"""One change stream demuxed into two logical table lakes (the
reference's six-table routing, SURVEY.md M5/2.10)."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.multi import MultiTableReplayer
from glue_etl_pipeline_ray.spec import repo_file_spec


def test_demux_two_tables_match_filtered_oracles(tmp_path):
    # locally-defined filters: cloudpickle ships them by value into the
    # map tasks (a module-level test function would be imported by name,
    # which workers can't resolve)
    def _route_org0(t: pa.Table) -> pa.Table:
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def _route_rest(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    meta = generate_change_events(
        str(tmp_path), n_events=5000, n_repos=15, n_paths=40, n_batches=3,
        seed=13, delete_frac=0.15, dirty_frac=0.03,
    )
    spec = repo_file_spec(num_buckets=8)
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"),
        {"org0_files": (spec, _route_org0), "other_files": (spec, _route_rest)},
    )
    res = multi.replay(meta["events_dir"])
    assert all(r["applied_batches"] == [0, 1, 2] for r in res.values())

    # oracle per table: filter the raw stream the same way, replay serially
    for name, flt in (("org0_files", _route_org0), ("other_files", _route_rest)):
        odir = tmp_path / f"oracle_{name}" / "events"
        os.makedirs(odir)
        for f in meta["files"]:
            pq.write_table(flt(pq.read_table(f)), str(odir / os.path.basename(f)))
        oracle = replay_oracle(spec, str(odir))
        assert multi.engines[name].final_sha256() == oracle["sha256"], name

    # every live key lives in exactly one table
    a = multi.engines["org0_files"].final_table()
    b = multi.engines["other_files"].final_table()
    keys_a = set(zip(a["repo"].to_pylist(), a["path"].to_pylist()))
    keys_b = set(zip(b["repo"].to_pylist(), b["path"].to_pylist()))
    assert not (keys_a & keys_b)
    assert all(r.startswith("org0/") for r, _ in keys_a)


def test_shared_scan_demux_matches_per_table_pass(tmp_path):
    def _route_org0(t: pa.Table) -> pa.Table:
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def _route_rest(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    meta = generate_change_events(
        str(tmp_path), n_events=5000, n_repos=15, n_paths=40, n_batches=3,
        seed=13, delete_frac=0.15, dirty_frac=0.03,
    )
    spec = repo_file_spec(num_buckets=8)
    tables = {"org0_files": (spec, _route_org0), "other_files": (spec, _route_rest)}

    shared = MultiTableReplayer(str(tmp_path / "lakes_shared"), tables)
    res = shared.replay(meta["events_dir"])
    assert all(r["applied_batches"] == [0, 1, 2] for r in res.values())

    per_table = MultiTableReplayer(str(tmp_path / "lakes_sep"), tables)
    for e in per_table.engines.values():
        e.replay(meta["events_dir"])

    assert shared.final_sha256() == per_table.final_sha256()


def test_atomic_group_commit_survives_mid_lockstep_crash(tmp_path):
    """Crash after table A commits batch 1 but before table B does:
    per-table watermarks tear, the group watermark does not, and
    consistent_tables() reads a coherent cross-table snapshot; the
    re-run converges both tables and catches the group watermark up."""
    import pytest

    def _route_org0(t: pa.Table) -> pa.Table:
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def _route_rest(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    meta = generate_change_events(
        str(tmp_path), n_events=4000, n_repos=12, n_paths=30, n_batches=3,
        seed=3, delete_frac=0.1, dirty_frac=0.02,
    )
    spec = repo_file_spec(num_buckets=8)
    # delta mode (keep-all) so as-of reads past the group watermark work
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"),
        {"a": (spec, _route_org0), "b": (spec, _route_rest)},
        state_mode="delta",
        gc_old_versions=False,
    )
    # batch 0 lands everywhere
    multi.replay_atomic(meta["events_dir"])
    assert multi.group_watermark() == 2

    # fresh lakes; now simulate the crash at batch 1 on table b
    multi2 = MultiTableReplayer(
        str(tmp_path / "lakes2"),
        {"a": (spec, _route_org0), "b": (spec, _route_rest)},
        state_mode="delta",
        gc_old_versions=False,
    )
    # manual lockstep for batch 0, then crash b's batch 1
    multi2.engines["a"].replay(meta["events_dir"], max_batches=1)
    multi2.engines["b"].replay(meta["events_dir"], max_batches=1)
    import json, os as _os

    p = multi2._group_manifest_path()
    with open(p, "w") as f:
        json.dump({"group_watermark": 0}, f)
    multi2.engines["a"].replay(meta["events_dir"], max_batches=1)
    with pytest.raises(RuntimeError):
        multi2.engines["b"].replay(
            meta["events_dir"], max_batches=1, fail_before_commit_of=1
        )
    # torn: a at 1, b at 0; group watermark still 0
    assert multi2.engines["a"].ckpt.watermark == 1
    assert multi2.engines["b"].ckpt.watermark == 0
    assert multi2.group_watermark() == 0

    # consistent snapshot = both tables as-of batch 0
    snap = multi2.consistent_tables()
    ref_a0 = multi2.engines["a"].final_table(as_of=0)
    assert snap["a"].equals(ref_a0)
    assert snap["b"].equals(multi2.engines["b"].final_table())

    # resume: full lockstep converges to the same state as run 1
    multi2.replay_atomic(meta["events_dir"])
    assert multi2.group_watermark() == 2
    assert multi2.final_sha256() == multi.final_sha256()

def test_group_watermark_catches_up_after_final_batch_crash(tmp_path):
    """Crash AFTER the last table's commit of the FINAL batch but
    BEFORE the group-manifest write: every per-table watermark is at
    the tip, the group watermark is one behind. The re-run has no
    per-table work left — it must still record the fully-committed
    batch, or consistent_tables() stays pinned to a stale snapshot
    forever (the r4 ADVICE finding)."""

    def _route_org0(t: pa.Table) -> pa.Table:
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def _route_rest(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    meta = generate_change_events(
        str(tmp_path), n_events=3000, n_repos=10, n_paths=20, n_batches=3,
        seed=7, delete_frac=0.1, dirty_frac=0.02,
    )
    spec = repo_file_spec(num_buckets=8)
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"),
        {"a": (spec, _route_org0), "b": (spec, _route_rest)},
        state_mode="delta",
        gc_old_versions=False,
    )
    # both engines commit ALL batches directly (per-table machinery),
    # then the "crash": the group manifest was last written for batch 1
    multi.engines["a"].replay(meta["events_dir"])
    multi.engines["b"].replay(meta["events_dir"])
    import json

    with open(multi._group_manifest_path(), "w") as f:
        json.dump({"group_watermark": 1}, f)
    assert multi.group_watermark() == 1
    assert multi.engines["a"].ckpt.watermark == 2
    assert multi.engines["b"].ckpt.watermark == 2

    # re-run: no engine has work, the group watermark must still catch up
    out = multi.replay_atomic(meta["events_dir"])
    assert all(not runs for runs in out.values())  # nothing re-applied
    assert multi.group_watermark() == 2
    # and the consistent snapshot now serves the tip
    snap = multi.consistent_tables()
    assert snap["a"].equals(multi.engines["a"].final_table())
    assert snap["b"].equals(multi.engines["b"].final_table())


def test_shared_scan_skips_batches_an_engine_already_committed(tmp_path):
    """Table A replayed ahead (per-table pass, history retained), table
    B behind: a shared-scan catch-up must submit A's committed batches
    to B ONLY — re-merging them against A's current state would
    resurrect keys deleted since, clobber A's historic part files with
    future data, and rewind A's bucket pointers on commit."""
    from glue_etl_pipeline_ray.hashing import table_sha256

    def _route_org0(t: pa.Table) -> pa.Table:
        return t.filter(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))

    def _route_rest(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.starts_with(pc.fill_null(t["repo"], ""), "org0/"))
        )

    meta = generate_change_events(
        str(tmp_path), n_events=6000, n_repos=15, n_paths=40, n_batches=4,
        seed=29, delete_frac=0.25, dirty_frac=0.0,
    )
    spec = repo_file_spec(num_buckets=8)
    tables = {"a": (spec, _route_org0), "b": (spec, _route_rest)}
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"), tables, gc_old_versions=False
    )
    ea, eb = multi.engines["a"], multi.engines["b"]
    ea.replay(meta["events_dir"])               # A at wm=3
    eb.replay(meta["events_dir"], max_batches=2)  # B at wm=1
    a_sha = ea.final_sha256()
    a_versions = dict(ea.ckpt.bucket_versions)
    a_asof1 = table_sha256(ea.final_table(as_of=1), spec.key_cols)

    res = multi.replay(meta["events_dir"])
    assert res["a"]["applied_batches"] == []
    assert res["b"]["applied_batches"] == [2, 3]
    # A untouched: tip, pointers, and historic snapshots all intact
    assert ea.final_sha256() == a_sha
    assert dict(ea.ckpt.bucket_versions) == a_versions
    assert table_sha256(ea.final_table(as_of=1), spec.key_cols) == a_asof1
    # B converged to its per-table oracle
    per = MultiTableReplayer(str(tmp_path / "lakes_sep"), tables)
    for e in per.engines.values():
        e.replay(meta["events_dir"])
    assert eb.final_sha256() == per.engines["b"].final_sha256()


def test_shared_scan_holds_writer_lease(tmp_path):
    """shared_scan must hold each engine's single-writer lease for the
    pass (it commits via _finish_batch, bypassing the per-call lease
    wrapper on replay)."""
    import pytest

    from glue_etl_pipeline_ray.state.lease import ConcurrentWriter, WriterLease

    def _route_all(t: pa.Table) -> pa.Table:
        return t

    meta = generate_change_events(
        str(tmp_path), n_events=2000, n_repos=10, n_paths=20, n_batches=2,
        seed=31, dirty_frac=0.0,
    )
    spec = repo_file_spec(num_buckets=4)
    multi = MultiTableReplayer(
        str(tmp_path / "lakes"), {"a": (spec, _route_all)}, writer_lease=True
    )
    eng = multi.engines["a"]
    other = WriterLease(eng.lake_dir, ttl_s=300.0).acquire()
    try:
        with pytest.raises(ConcurrentWriter):
            multi.replay(meta["events_dir"])
    finally:
        other.release()
    # lease freed -> the pass goes through and releases its own hold
    multi.replay(meta["events_dir"])
    assert eng.ckpt.watermark == 1
    WriterLease(eng.lake_dir, ttl_s=300.0).acquire().release()
