"""Group-file delta layout: one ``gdelta-{group}-v{batch}`` file per
(exchange group, batch) with a parquet row group per touched sink bucket,
so delta-mode files per batch are O(num_exchange) — independent of
``num_buckets`` — while per-bucket reads stay random-access. Chain
pointers are ``[version, group]`` pairs."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.stages.merge import (
    events_to_state,
    gdelta_name,
    gdelta_row_group,
    lww_state,
    write_delta_group,
)
from glue_etl_pipeline_ray.state.snapshot import Source, read_state


def _gen(tmp_path, **kw):
    defaults = dict(n_events=6000, n_repos=12, n_paths=40, n_batches=6, seed=33,
                    delete_frac=0.15, dirty_frac=0.04, evolve_from_batch=4)
    defaults.update(kw)
    return generate_change_events(str(tmp_path), **defaults)


def test_lake_layout_is_group_files(ray_session, tmp_path):
    """The delta sink writes gdelta files only — never per-bucket delta
    files — and file count per batch is bounded by num_exchange."""
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode="delta", fold_threshold=100,
                       num_exchange=4)
    eng.replay(meta["events_dir"])
    assert glob.glob(os.path.join(lake, "delta-*.parquet")) == []
    gfiles = [os.path.basename(f)
              for f in glob.glob(os.path.join(lake, "gdelta-*.parquet"))]
    assert gfiles
    per_batch: dict[str, int] = {}
    for f in gfiles:
        v = f.split("-v")[1].split(".")[0]
        per_batch[v] = per_batch.get(v, 0) + 1
    assert all(n <= 4 for n in per_batch.values())
    # chain pointers are [version, group] pairs
    for d in eng.ckpt.bucket_deltas.values():
        assert all(isinstance(e, list) and len(e) == 2 for e in d["deltas"])
    assert eng.final_sha256() == replay_oracle(spec, meta["events_dir"])["sha256"]


def test_legacy_and_group_entries_fold_identically(tmp_path):
    """read_state over group files ((v, g) chain entries) folds to the
    LWW state of the same rows."""
    spec = repo_file_spec(num_buckets=8)
    rows = 400
    rng = np.random.default_rng(5)
    t = pa.table({
        "repo": [f"r{int(i)}" for i in rng.integers(0, 20, rows)],
        "path": [f"p{int(i)}" for i in rng.integers(0, 10, rows)],
        "commit": [f"c{i}" for i in range(rows)],
        "lang": ["py"] * rows,
        "content": [f"body{i}" for i in range(rows)],
        "seq": pa.array(np.arange(rows), pa.int64()),
        "op": ["UPSERT" if i % 7 else "DELETE" for i in range(rows)],
    })
    from glue_etl_pipeline_ray.stages.partial import BUCKET_COL
    from glue_etl_pipeline_ray.hashing import key_hash_u64

    kh = key_hash_u64(t["repo"], t["path"])
    bucket = (kh % 8).astype(np.int64)
    t = t.append_column(BUCKET_COL, pa.array(bucket, pa.int64()))

    lake_b = str(tmp_path / "b"); os.makedirs(lake_b)
    # two "batches" of 200 rows each
    for v, lo in ((0, 0), (1, 200)):
        part = t.slice(lo, 200)
        b = part[BUCKET_COL].to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="stable")
        part = part.take(order)
        bs = b[order]
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        ends = np.r_[starts[1:], len(bs)]
        state_t, _ = events_to_state(spec, (), part)
        write_delta_group(spec, (), lake_b, v, 0, state_t,
                          bs[starts], starts, ends)

    for bk in sorted(set(bucket.tolist())):
        rows_b = t.filter(pa.array(bucket == bk))
        want = lww_state(spec, (), [events_to_state(spec, (), rows_b)[0]])
        grouped = read_state(spec, (), Source(lake_b, bk, None, ((0, 0), (1, 0))))
        assert want.sort_by("commit").equals(grouped.sort_by("commit"))
    # bucket absent from a batch -> None, not an error
    pf = pq.ParquetFile(os.path.join(lake_b, gdelta_name(0, 0)))
    assert gdelta_row_group(pf, 9999) is None


def test_gdelta_gc_waits_for_last_reference(ray_session, tmp_path):
    """A group file is shared by its exchange group's buckets; with
    jittered fold cadences it must survive until NO chain references it,
    then disappear on the fold/compact that drops the last reference."""
    meta = _gen(tmp_path, n_batches=8)
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode="delta", fold_threshold=3,
                       num_exchange=4)
    eng.replay(meta["events_dir"])
    oracle = replay_oracle(spec, meta["events_dir"])
    assert eng.final_sha256() == oracle["sha256"]

    # every gdelta file still on disk must be referenced by some chain
    referenced = {
        (int(e[0]), int(e[1]))
        for d in eng.ckpt.bucket_deltas.values()
        for e in d["deltas"]
    }
    on_disk = set()
    for f in glob.glob(os.path.join(lake, "gdelta-*.parquet")):
        name = os.path.basename(f)
        g = int(name.split("-")[1])
        v = int(name.split("-v")[1].split(".")[0])
        on_disk.add((v, g))
    assert on_disk == referenced

    # full compact folds every chain -> all group files GC'd, sha intact
    eng.compact(min_retained_seq="keep")
    assert glob.glob(os.path.join(lake, "gdelta-*.parquet")) == []
    assert eng.final_sha256() == oracle["sha256"]


def test_delta_time_travel_group_files(ray_session, tmp_path):
    """as_of snapshots rebuild from the lineage log's [version, group]
    chains on a history-retaining lake."""
    meta = _gen(tmp_path, n_batches=6)
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode="delta", fold_threshold=3,
                       gc_old_versions=False)
    eng.replay(meta["events_dir"])

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(meta["events_dir"], "batch=*.parquet")))
    prefix_dir = str(tmp_path / "prefix")
    os.makedirs(prefix_dir)
    for f in files[:4]:
        os.symlink(f, os.path.join(prefix_dir, os.path.basename(f)))
    oracle_prefix = replay_oracle(spec, prefix_dir)
    assert eng.final_sha256(as_of=3) == oracle_prefix["sha256"]
