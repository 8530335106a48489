"""Backfill visibility in the history/feed machinery (round 5): a
backfill redefines state starting at the NEXT span — ``as_of <= wm``
resolves pre-backfill, ``as_of >= wm+1`` post-backfill, and the change
feed ``(wm, wm+1]`` carries the backfill's diffs for EVERY bucket, not
just the ones batch ``wm+1`` touched. Without the lineage/anchor
records these tests pin, a replica syncing across a backfill silently
diverged on every untouched bucket (and crashed with FileNotFoundError
under bounded retention)."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.hashing import table_sha256
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.pipelines.replicate import replicate
from glue_etl_pipeline_ray.spec import repo_file_spec


def _gen(tmp_path, **kw):
    defaults = dict(n_events=8000, n_repos=15, n_paths=40, n_batches=6,
                    seed=67, delete_frac=0.2, dirty_frac=0.03,
                    evolve_from_batch=99)
    defaults.update(kw)
    return generate_change_events(str(tmp_path / "w"), **defaults)


def _make_add_content_len():
    def add_content_len(t: pa.Table) -> pa.Table:
        return t.append_column(
            "content_len",
            pc.cast(
                pc.fill_null(pc.utf8_length(t["content"]), 0), pa.int64()
            ),
        )

    return add_content_len


@pytest.mark.parametrize("src_mode", ["rewrite", "delta"])
def test_replica_converges_across_backfill(ray_session, tmp_path, src_mode):
    """Replica synced at wm, source backfills (adds a column), source
    applies more batches, replica syncs again -> sha-exact with the
    source tip INCLUDING backfilled values in buckets the later batches
    never touched."""
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=16)
    src = ReplayEngine(spec, str(tmp_path / "src"),
                       gc_old_versions=False, state_mode=src_mode)
    dst = ReplayEngine(repo_file_spec(num_buckets=8), str(tmp_path / "dst"))
    staging = str(tmp_path / "staging")

    src.replay(meta["events_dir"], max_batches=3)
    replicate(src, dst, staging)
    assert dst.final_sha256() == src.final_sha256()

    src.backfill(_make_add_content_len())
    src.replay(meta["events_dir"])  # batches 3..5
    replicate(src, dst, staging)
    assert dst.final_sha256() == src.final_sha256()
    # the backfilled column actually crossed the feed with values
    dt = dst.final_table()
    assert "content_len" in dt.column_names
    assert pc.sum(pc.cast(pc.is_valid(dt["content_len"]), pa.int64())).as_py() > 0


def test_feed_span_over_backfill_matches_keep_history_twin(
    ray_session, tmp_path
):
    """Under bounded retention (rewrite + retain_batches) the feed span
    crossing a backfill must (a) not hit FileNotFoundError on the
    superseded files — they are retired, not deleted — and (b) equal
    the same span computed on a keep-everything twin lake."""
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    ret = ReplayEngine(spec, str(tmp_path / "ret"), retain_batches=4)
    hist = ReplayEngine(spec, str(tmp_path / "hist"), gc_old_versions=False)
    for eng in (ret, hist):
        eng.replay(meta["events_dir"], max_batches=4)  # wm=3
        eng.backfill(_make_add_content_len())
        eng.replay(meta["events_dir"], max_batches=1)  # wm=4
    t_ret = ret.changes_table(3, 4)
    t_hist = hist.changes_table(3, 4)
    cols = list(spec.key_cols)
    assert table_sha256(t_ret, cols) == table_sha256(t_hist, cols)
    # the span contains backfill updates: rows carrying the new column
    assert "content_len" in t_ret.column_names
    n_valued = pc.sum(
        pc.cast(pc.is_valid(t_ret["content_len"]), pa.int64())
    ).as_py()
    assert n_valued and n_valued > 0


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_as_of_semantics_around_backfill(ray_session, tmp_path, mode):
    """as_of = wm stays pre-backfill (pinned), as_of = wm+1 (once
    committed) is post-backfill; evolved_as_of follows the same split."""
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"),
                       gc_old_versions=False, state_mode=mode)
    eng.replay(meta["events_dir"], max_batches=4)
    wm = eng.ckpt.watermark
    pre_sha = eng.final_sha256(as_of=wm)
    eng.backfill(_make_add_content_len())
    assert eng.ckpt.evolved_as_of(wm) == ()
    assert ("content_len", "int64") in eng.ckpt.evolved_as_of(wm + 1)
    eng.replay(meta["events_dir"], max_batches=1)  # commits wm+1
    old = eng.final_table(as_of=wm)
    assert "content_len" not in old.column_names
    assert table_sha256(old, spec.key_cols) == pre_sha
    new = eng.final_table(as_of=wm + 1)
    assert "content_len" in new.column_names
    # post-backfill snapshot carries values in buckets wm+1 never
    # touched: every live row present at the backfill has a value
    assert pc.sum(
        pc.cast(pc.is_valid(new["content_len"]), pa.int64())
    ).as_py() > 0


def test_crashed_backfill_lineage_is_gcd_by_next_replay(
    ray_session, tmp_path
):
    """A crash between the backfill's lineage write and its manifest
    commit leaves lineage records for a rewrite that never landed; the
    next replay removes them so later feeds can't read half-backfilled
    pointer sets (a completed re-run rewrites the file instead)."""
    meta = _gen(tmp_path, n_batches=3)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"), gc_old_versions=False)
    eng.replay(meta["events_dir"], max_batches=2)
    wm = eng.ckpt.watermark
    # simulate the crash window: lineage written, manifest never
    eng._write_backfill_lineage(wm, {0: 1_000_000_000 + wm})
    orphan = os.path.join(
        eng.lake_dir, "_lineage", f"batch={wm:05d}_backfill.jsonl"
    )
    assert os.path.exists(orphan)
    eng.replay(meta["events_dir"])
    assert not os.path.exists(orphan)
    # a real backfill afterwards writes (and keeps) its own records
    eng.backfill(_make_add_content_len())
    kept = glob.glob(
        os.path.join(eng.lake_dir, "_lineage", "batch=*_backfill.jsonl")
    )
    assert len(kept) == 1


def test_crashed_backfill_lineage_is_gcd_by_multi_table_replay(
    ray_session, tmp_path
):
    """The same crash window in one table of a multi-table lake: the
    pass that serves every table runs each engine's orphan GC first."""
    from glue_etl_pipeline_ray.pipelines.multi import MultiTableReplayer

    meta = _gen(tmp_path, n_batches=3)
    spec = repo_file_spec(num_buckets=8)
    keep = lambda t: t  # noqa: E731
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"), {"a": (spec, keep), "b": (spec, keep)},
        gc_old_versions=False,
    )
    for e in multi.engines.values():
        e.replay(meta["events_dir"], max_batches=2)
    eng = multi.engines["a"]
    wm = eng.ckpt.watermark
    eng._write_backfill_lineage(wm, {0: 1_000_000_000 + wm})
    orphan = os.path.join(
        eng.lake_dir, "_lineage", f"batch={wm:05d}_backfill.jsonl"
    )
    assert os.path.exists(orphan)
    res = multi.replay(meta["events_dir"])
    assert all(r["applied_batches"] == [2] for r in res.values())
    assert not os.path.exists(orphan)
