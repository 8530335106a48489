"""One pointer model for both sinks: every bucket is a base file plus a
chain of group-file entries, whichever ``state_mode`` wrote it, so any
engine reads, continues and checks any lake — and manifests written in
the older two-map format open through a one-time conversion."""

import json
import os
import re
import subprocess
import sys

import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.multi import MultiTableReplayer
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = repo_file_spec(num_buckets=8)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    d = tmp_path_factory.mktemp("onemodel")
    meta = generate_change_events(
        str(d), n_events=3000, n_batches=6, seed=5, delete_frac=0.15,
        dirty_frac=0.03, evolve_from_batch=3,
    )
    return meta["events_dir"], replay_oracle(SPEC, meta["events_dir"])["sha256"]


@pytest.mark.parametrize("writer,reader", [("rewrite", "delta"), ("delta", "rewrite")])
def test_reopen_in_the_other_layout(ray_session, tmp_path, stream, writer, reader):
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    w = ReplayEngine(SPEC, lake, state_mode=writer, fold_threshold=2)
    w.replay(ev, max_batches=4)
    tip = w.final_table()
    assert tip.num_rows > 0

    r = ReplayEngine(SPEC, lake, state_mode=reader, fold_threshold=2)
    assert r.final_table().equals(tip)
    r.replay(ev)
    assert r.ckpt.watermark == 5
    assert r.final_sha256() == oracle
    fsck = r.fsck()
    assert fsck["ok"] and fsck["orphans"] == [] and fsck["n_referenced"] > 0


def _cli(*cmd):
    r = subprocess.run(
        [sys.executable, "-m", "glue_etl_pipeline_ray.cli", *cmd],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=REPO),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_cli_verify_and_fsck_default_mode_on_a_delta_lake(
    ray_session, tmp_path, stream
):
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    ReplayEngine(SPEC, lake, state_mode="delta", fold_threshold=100).replay(ev)
    common = ("--lake", lake, "--num-buckets", "8", "--num-cpus", "1")
    v = _cli("verify", *common)
    assert v["sha256"] == oracle and v["n_live"] > 0
    f = _cli("fsck", *common)
    assert f["ok"] and f["n_referenced"] > 0 and f["orphans"] == []


def _manifest(lake) -> tuple[str, dict]:
    path = os.path.join(lake, "_checkpoint", "manifest.json")
    with open(path) as f:
        return path, json.load(f)


def _dump(path, m) -> None:
    with open(path, "w") as f:
        json.dump(m, f)


def _part(name: str) -> tuple[int, int]:
    b, v = re.match(r"part-(\d+)-v(\d+)\.parquet$", name).groups()
    return int(b), int(v)


def test_parent_format_rewrite_manifest_with_retired_entries(
    ray_session, tmp_path, stream
):
    """A rewrite-layout manifest of the two-map format: ``bucket_versions``
    and a ``retired`` ledger of ``[bucket, version, at]``. It opens in
    either mode with the same tip, as-of reads and purge schedule."""
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(SPEC, lake, retain_batches=2)
    eng.replay(ev, max_batches=4)
    tip, asof = eng.final_sha256(), eng.final_sha256(as_of=2)

    path, m = _manifest(lake)
    retired = m.pop("retired_files")
    assert retired
    m["retired"] = [[*_part(n), at] for n, at in retired]
    m["bucket_versions"] = {b: d["base"] for b, d in m.pop("bucket_deltas").items()}
    _dump(path, m)

    for mode in ("delta", "rewrite"):
        e = ReplayEngine(SPEC, lake, state_mode=mode, retain_batches=2)
        assert e.final_sha256() == tip, mode
        assert e.final_sha256(as_of=2) == asof, mode
        assert sorted(map(tuple, e.ckpt._m["retired_files"])) == sorted(
            map(tuple, retired)
        )
    e = ReplayEngine(SPEC, lake, state_mode="delta", retain_batches=2)
    e.replay(ev)
    assert e.final_sha256() == oracle
    # the converted entries purge on the same schedule as native ones
    horizon = e.ckpt.watermark - 2
    for name, at in retired:
        gone = not os.path.exists(os.path.join(lake, name))
        assert gone == (at <= horizon), (name, at, horizon)
    assert "retired" not in e.ckpt._m and "bucket_versions" not in e.ckpt._m
    assert e.fsck()["orphans"] == []


@pytest.mark.parametrize("moved", ["rewrite", "delta"])
def test_parent_format_resharded_manifest_takes_the_newer_pointer(
    ray_session, tmp_path, stream, moved
):
    """A resharded lake of the two-map format carried both pointer maps,
    seeded at the reshard watermark; continued ingest moved only the one
    its engine used. Per bucket the newer pointer wins."""
    ev, oracle = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "src"), retain_batches=2)
    eng.replay(ev, max_batches=2)
    lake = str(tmp_path / "lake")
    r = eng.reshard(lake, factor=2)
    wm = r.ckpt.watermark
    seeded = {b: {"base": wm, "deltas": []} for b in _manifest(lake)[1]["bucket_deltas"]}
    r = ReplayEngine(r.spec, lake, state_mode=moved, fold_threshold=100,
                     retain_batches=2)
    r.replay(ev, max_batches=2)
    tip, asof = r.final_sha256(), r.final_sha256(as_of=wm + 1)

    path, m = _manifest(lake)
    if moved == "rewrite":
        m["bucket_versions"] = {b: d["base"] for b, d in m["bucket_deltas"].items()}
        m["bucket_deltas"] = seeded
    else:
        m["bucket_versions"] = {b: d["base"] for b, d in seeded.items()}
    _dump(path, m)

    for mode in ("rewrite", "delta"):
        e = ReplayEngine(r.spec, lake, state_mode=mode, retain_batches=2)
        assert e.final_sha256() == tip, mode
        assert e.final_sha256(as_of=wm + 1) == asof, mode
    other = "delta" if moved == "rewrite" else "rewrite"
    e = ReplayEngine(r.spec, lake, state_mode=other, retain_batches=2)
    e.replay(ev)
    assert e.final_sha256() == oracle
    assert e.fsck()["orphans"] == []


def test_int_chain_entry_raises_naming_the_lake(tmp_path):
    lake = str(tmp_path / "lake")
    os.makedirs(os.path.join(lake, "_checkpoint"))
    _dump(os.path.join(lake, "_checkpoint", "manifest.json"), {
        "watermark": 0, "committed": [0], "evolved": [], "batches": {},
        "bucket_deltas": {"3": {"base": None, "deltas": [0]}},
    })
    with pytest.raises(ValueError, match=re.escape(lake)):
        CheckpointManager(lake)


def _routes():
    """Two key-deterministic routes (locally defined: cloudpickle ships
    them by value into the map tasks)."""
    import pyarrow.compute as pc

    def org0(t):
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def rest(t):
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    return {"a": org0, "b": rest}


def _outcome(e):
    """Tip sha plus the dead-letter count of every committed batch."""
    per_batch = e.metrics()["per_batch"]
    return e.final_sha256(), {b: r["n_dead_lettered"] for b, r in per_batch.items()}


def _per_engine(tmp_path, ev, mode):
    """What a multi-table pass must reach: each table replayed alone by
    its own engine."""
    out = {}
    for name, flt in _routes().items():
        e = ReplayEngine(
            SPEC, str(tmp_path / "alone" / name), state_mode=mode,
            fold_threshold=2, event_filter=flt,
        )
        e.replay(ev)
        out[name] = _outcome(e)
    return out


def _two_tables(tmp_path, mode):
    return MultiTableReplayer(
        str(tmp_path / "lakes"),
        {n: (SPEC, flt) for n, flt in _routes().items()},
        state_mode=mode, fold_threshold=2,
    )


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_multi_table_pass_matches_per_engine_replay(tmp_path, stream, mode):
    ev = stream[0]
    multi = _two_tables(tmp_path, mode)
    res = multi.replay(ev)
    assert all(r["applied_batches"] == list(range(6)) for r in res.values())
    assert {n: _outcome(e) for n, e in multi.engines.items()} == _per_engine(
        tmp_path, ev, mode
    )
    if mode == "delta":
        # the delta sink writes no base itself: every base is a fold's,
        # and fold_threshold=2 over six batches folds during the pass
        for e in multi.engines.values():
            assert any(d["base"] is not None for d in e.ckpt.bucket_deltas.values())
    for e in multi.engines.values():
        fsck = e.fsck()
        assert fsck["ok"] and fsck["orphans"] == []


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_multi_table_capped_passes_converge(tmp_path, stream, mode):
    """Tables at different watermarks, then capped passes: each pass
    takes at most one batch per table, as each engine's own capped
    replay would, and the lakes converge to the per-engine outcome."""
    ev = stream[0]
    multi = _two_tables(tmp_path, mode)
    multi.engines["a"].replay(ev, max_batches=3)
    for i in range(8):
        res = multi.replay(ev, **({"max_events": 1} if i % 2 else {"max_batches": 1}))
        applied = {n: r["applied_batches"] for n, r in res.items()}
        assert all(len(a) <= 1 for a in applied.values()), applied
        if not any(applied.values()):
            break
    assert i == 6  # b takes six passes, a three; the seventh is empty
    assert {n: _outcome(e) for n, e in multi.engines.items()} == _per_engine(
        tmp_path, ev, mode
    )


class _Counted:
    """A remote function whose task launches are counted by name."""

    def __init__(self, fn, name, counts):
        self.fn, self.name, self.counts = fn, name, counts

    def options(self, **kw):
        return _Counted(self.fn.options(**kw), self.name, self.counts)

    def remote(self, *args, **kw):
        self.counts[self.name] = self.counts.get(self.name, 0) + 1
        return self.fn.remote(*args, **kw)


def _lake_bytes(lake):
    """Every state and DLQ file's bytes, and the lineage ``bucket``
    records (the manifest and batch summaries carry commit times)."""
    files, buckets = {}, []
    for root, _, names in os.walk(lake):
        rel = os.path.relpath(root, lake)
        for n in names:
            p = os.path.join(root, n)
            if rel == "_lineage":
                with open(p) as f:
                    recs = [json.loads(line) for line in f]
                buckets += [(n, r) for r in recs if r["kind"] == "bucket"]
            elif rel != "_checkpoint":
                with open(p, "rb") as f:
                    files[os.path.join(rel, n)] = f.read()
    return files, sorted(buckets, key=json.dumps)


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_one_table_pass_is_the_plain_replay(tmp_path, stream, monkeypatch, mode):
    """A one-table ``MultiTableReplayer`` with an identity route writes
    the bytes a plain engine writes, through the same tasks."""
    from glue_etl_pipeline_ray.stages import exchange

    counts = {}
    for name in ("_map_chunk", "_merge_group", "_delta_group"):
        monkeypatch.setattr(
            exchange, name, _Counted(getattr(exchange, name), name, counts)
        )
    ev = stream[0]
    # default fold_threshold: six batches fold nothing (when a background
    # fold is harvested, and so its version, depends on timing)
    kw = dict(state_mode=mode, num_exchange=4)
    ReplayEngine(SPEC, str(tmp_path / "plain"), **kw).replay(ev)
    plain_counts = dict(counts)
    counts.clear()
    keep = lambda t: t  # noqa: E731
    MultiTableReplayer(str(tmp_path / "multi"), {"t": (SPEC, keep)}, **kw).replay(ev)

    assert counts == plain_counts
    reduce = "_delta_group" if mode == "delta" else "_merge_group"
    assert counts[reduce] == 6 * 4  # ne reduces per batch
    assert counts["_map_chunk"] == 6  # one chunk per small batch
    plain = _lake_bytes(str(tmp_path / "plain"))
    multi = _lake_bytes(str(tmp_path / "multi" / "t"))
    assert plain[0].keys() == multi[0].keys()
    assert plain == multi
    assert any(k.startswith("_dlq") for k in plain[0]) and plain[1]


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_replay_atomic_reads_each_batch_once(tmp_path, stream, monkeypatch, mode):
    """``replay_atomic`` runs one map wave per batch for every table
    missing it, not one per table, and reaches each table's own outcome.
    Table a starts two batches ahead, so those batches feed b alone."""
    from glue_etl_pipeline_ray.stages import exchange

    counts = {}
    monkeypatch.setattr(
        exchange, "_map_chunk", _Counted(exchange._map_chunk, "_map_chunk", counts)
    )
    ev = stream[0]
    multi = _two_tables(tmp_path, mode)
    multi.engines["a"].replay(ev, max_batches=2)
    counts.clear()
    out = multi.replay_atomic(ev)

    assert counts["_map_chunk"] == 6  # one chunk per small batch, read once
    assert [r["applied_batches"] for r in out["a"]] == [[b] for b in range(2, 6)]
    assert [r["applied_batches"] for r in out["b"]] == [[b] for b in range(6)]
    assert multi.group_watermark() == 5
    assert {n: _outcome(e) for n, e in multi.engines.items()} == _per_engine(
        tmp_path, ev, mode
    )
