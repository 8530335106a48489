"""Predicate DML (delete_where / update_where): synthesized change
events through the exactly-once replay path must land the same final
state as the single-threaded oracle replaying events + the staged DML
batches — in both state modes — and survive the stage->apply crash
window (the Delta-Lake ``DELETE FROM`` / ``UPDATE ... WHERE`` analog;
the reference's lake is append-only, so this is engine extension
surface)."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec


def _oracle_with_dml(spec, events_dir, lake_dir, dest):
    """Oracle ground truth = original stream + the engine's own staged
    DML batches (the staged events ARE the commit's source of truth)."""
    os.makedirs(dest)
    for f in glob.glob(os.path.join(events_dir, "batch=*")):
        os.symlink(f, os.path.join(dest, os.path.basename(f)))
    for d in glob.glob(os.path.join(lake_dir, "_dml", "batch=*")):
        os.symlink(d, os.path.join(dest, os.path.basename(d)))
    return replay_oracle(spec, dest)


# lambdas (serialized by value) — module-level test functions are not
# importable on Ray workers
_del_md = lambda t: pc.equal(t["lang"], "md")  # noqa: E731
_upd_pred = lambda t: pc.equal(t["lang"], "go")  # noqa: E731
_upd_set = lambda rows: {  # noqa: E731
    "content": pc.binary_join_element_wise(
        pa.array(["// reviewed\n"] * rows.num_rows),
        pc.cast(rows["content"], pa.string()),
        "",
    )
}


@pytest.mark.parametrize(
    "mode", ["rewrite", "delta"], ids=["rewrite-raycore", "delta-raycore"]
)
def test_dml_matches_oracle(tmp_path, mode):
    meta = generate_change_events(
        str(tmp_path), n_events=3000, n_batches=3, seed=11
    )
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode=mode)
    eng.replay(meta["events_dir"])

    s = eng.delete_where(_del_md)
    assert s["dml"] == "delete" and s["n_matched"] == s["n_deletes"] > 0
    s2 = eng.update_where(_upd_pred, _upd_set)
    assert s2["dml"] == "update" and s2["n_matched"] == s2["n_upserts"] > 0

    oracle = _oracle_with_dml(
        spec, meta["events_dir"], lake, str(tmp_path / "oev")
    )
    assert eng.final_sha256() == oracle["sha256"]
    t = eng.final_table()
    assert pc.sum(pc.equal(t["lang"], "md")).as_py() in (0, None)
    go = t.filter(pc.equal(t["lang"], "go"))
    assert pc.all(pc.starts_with(go["content"], "// reviewed")).as_py()


def test_dml_noop_commits_nothing(tmp_path):
    meta = generate_change_events(str(tmp_path), n_events=800, n_batches=2, seed=5)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    wm, sha = eng.ckpt.watermark, eng.final_sha256()
    s = eng.delete_where(lambda t: pc.equal(t["lang"], "cobol"))
    assert s["batch_id"] is None and s["n_matched"] == 0
    assert eng.ckpt.watermark == wm and eng.final_sha256() == sha
    assert not glob.glob(os.path.join(str(tmp_path / "lake"), "_dml", "batch=*"))


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_dml_crash_after_stage_resumes_exactly_once(tmp_path, mode):
    """Crash between MANIFEST write and commit: a fresh engine's
    resume_dml (also invoked implicitly by the next DML call) finishes
    the staged batch to the never-crashed state."""
    meta = generate_change_events(str(tmp_path), n_events=2000, n_batches=2, seed=9)
    spec = repo_file_spec(num_buckets=16)

    ref = ReplayEngine(spec, str(tmp_path / "ref"), state_mode=mode)
    ref.replay(meta["events_dir"])
    ref.delete_where(_del_md)
    want = ref.final_sha256()

    eng = ReplayEngine(spec, str(tmp_path / "lake"), state_mode=mode)
    eng.replay(meta["events_dir"])
    orig_apply = ReplayEngine._dml_apply
    ReplayEngine._dml_apply = lambda self, *a, **k: (_ for _ in ()).throw(
        RuntimeError("injected crash after stage")
    )
    try:
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.delete_where(_del_md)
    finally:
        ReplayEngine._dml_apply = orig_apply
    # staged but uncommitted
    mans = glob.glob(os.path.join(str(tmp_path / "lake"), "_dml", "*", "MANIFEST.json"))
    assert len(mans) == 1

    fresh = ReplayEngine(spec, str(tmp_path / "lake"), state_mode=mode)
    s = fresh.resume_dml()
    assert s is not None and s["n_deletes"] > 0
    assert fresh.final_sha256() == want
    assert fresh.resume_dml() is None  # second resume: nothing pending


def test_dml_partial_stage_discarded(tmp_path):
    """A stage directory with part files but NO manifest (crash mid-
    synthesis) never reached the checkpoint — the next DML discards it
    and synthesizes fresh."""
    meta = generate_change_events(str(tmp_path), n_events=1000, n_batches=2, seed=3)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    stage = os.path.join(str(tmp_path / "lake"), "_dml", "batch=00002")
    os.makedirs(stage)
    with open(os.path.join(stage, "part-00099.parquet"), "wb") as fh:
        fh.write(b"garbage")
    s = eng.delete_where(_del_md)
    assert s["n_matched"] > 0
    oracle = _oracle_with_dml(
        spec, meta["events_dir"], str(tmp_path / "lake"), str(tmp_path / "oev")
    )
    assert eng.final_sha256() == oracle["sha256"]


def test_update_where_rejects_non_payload_column(tmp_path):
    meta = generate_change_events(str(tmp_path), n_events=500, n_batches=1, seed=2)
    spec = repo_file_spec(num_buckets=4)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    with pytest.raises(Exception, match="payload"):
        eng.update_where(
            lambda t: pc.equal(t["lang"], "go"),
            lambda rows: {"repo": rows["repo"]},  # keys are immutable
        )


def test_update_where_invalid_payload_dead_letters(tmp_path):
    """set_fn output goes through the same validation as upstream
    events: a rule-violating rewrite quarantines instead of landing."""
    meta = generate_change_events(
        str(tmp_path), n_events=1000, n_batches=2, seed=8, dirty_frac=0.0
    )
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    t0 = eng.final_table()
    n_go = pc.sum(pc.equal(t0["lang"], "go")).as_py()
    assert n_go
    s = eng.update_where(
        lambda t: pc.equal(t["lang"], "go"),
        lambda rows: {"content": pa.nulls(rows.num_rows, pa.string())},
    )
    # every matched row violated content not_null -> all dead-lettered
    assert s["n_matched"] == n_go and s["n_dead_lettered"] == n_go
    assert s["n_upserts"] == 0
    # table unchanged: the DML batch contributed nothing live
    assert eng.final_table().num_rows == t0.num_rows


_NEW_ROWS = lambda: pa.table(  # noqa: E731
    {
        "repo": pa.array([f"neworg/repo{i}" for i in range(5)]),
        "path": pa.array([f"src/new{i}.py" for i in range(5)]),
        "commit": pa.array(["ab" * 20] * 5),
        "lang": pa.array(["py"] * 5),
        "content": pa.array([f"print({i})" for i in range(5)]),
    }
)


@pytest.mark.parametrize(
    "mode,as_dataset", [("rewrite", False), ("delta", False), ("rewrite", True)]
)
def test_merge_into_snapshot_apply(tmp_path, mode, as_dataset, ray_session):
    """merge_into(source, delete_unmatched=True) makes the live table
    equal the source exactly, and the lake still replays to the oracle
    of events + the staged merge batch."""
    import ray

    meta = generate_change_events(str(tmp_path), n_events=2500, n_batches=3, seed=21)
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode=mode)
    eng.replay(meta["events_dir"])
    live = eng.final_table()
    keep = live.filter(pc.is_in(live["lang"], value_set=pa.array(["py", "js"])))
    new = _NEW_ROWS()
    src = pa.concat_tables([keep.select(new.schema.names), new])
    s = eng.merge_into(
        ray.data.from_arrow(src) if as_dataset else src, delete_unmatched=True
    )
    assert s["dml"] == "merge" and s["n_matched"] >= src.num_rows
    t = eng.final_table()
    key = [("repo", "ascending"), ("path", "ascending")]
    assert t.select(new.schema.names).sort_by(key).equals(src.sort_by(key))
    oracle = _oracle_with_dml(
        spec, meta["events_dir"], lake, str(tmp_path / "oev")
    )
    assert eng.final_sha256() == oracle["sha256"]


def test_merge_into_keeps_unmatched_by_default(tmp_path):
    meta = generate_change_events(str(tmp_path), n_events=1500, n_batches=2, seed=22)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    n_before = eng.final_table().num_rows
    new = _NEW_ROWS()
    s = eng.merge_into(new)  # pure upsert: nothing deleted
    assert s["n_matched"] == new.num_rows and s["n_deletes"] == 0
    assert eng.final_table().num_rows == n_before + new.num_rows
    oracle = _oracle_with_dml(
        spec, meta["events_dir"], str(tmp_path / "lake"), str(tmp_path / "oev")
    )
    assert eng.final_sha256() == oracle["sha256"]


def test_merge_into_empty_lake_is_insert(tmp_path):
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    new = _NEW_ROWS()
    s = eng.merge_into(new, delete_unmatched=True)
    assert s["n_matched"] == new.num_rows
    key = [("repo", "ascending"), ("path", "ascending")]
    assert (
        eng.final_table().select(new.schema.names).sort_by(key).equals(new.sort_by(key))
    )


def test_merge_into_crash_after_stage_resumes(tmp_path):
    """The merge batch rides the same _dml staging contract: crash
    between MANIFEST and commit -> resume_dml finishes it."""
    meta = generate_change_events(str(tmp_path), n_events=1200, n_batches=2, seed=23)
    spec = repo_file_spec(num_buckets=8)
    ref = ReplayEngine(spec, str(tmp_path / "ref"))
    ref.replay(meta["events_dir"])
    ref.merge_into(_NEW_ROWS())
    want = ref.final_sha256()

    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    orig = ReplayEngine._dml_apply
    ReplayEngine._dml_apply = lambda self, *a, **k: (_ for _ in ()).throw(
        RuntimeError("injected crash after stage")
    )
    try:
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.merge_into(_NEW_ROWS())
    finally:
        ReplayEngine._dml_apply = orig
    fresh = ReplayEngine(spec, str(tmp_path / "lake"))
    assert fresh.resume_dml() is not None
    assert fresh.final_sha256() == want


def test_merge_into_missing_payload_column_raises(tmp_path):
    spec = repo_file_spec(num_buckets=4)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    bad = _NEW_ROWS().drop_columns(["content"])
    with pytest.raises(Exception, match="missing columns"):
        eng.merge_into(bad)


def test_dml_shows_in_change_feed(tmp_path):
    """A DML commit is an ordinary batch: the change feed between the
    pre- and post-DML watermarks carries its deletes."""
    meta = generate_change_events(str(tmp_path), n_events=1500, n_batches=2, seed=6)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"), gc_old_versions=False)
    eng.replay(meta["events_dir"])
    wm = eng.ckpt.watermark
    s = eng.delete_where(_del_md)
    feed = eng.changes_table(wm, s["batch_id"])
    deld = feed.filter(pc.equal(feed["_change_type"], "delete"))
    assert deld.num_rows == s["n_deletes"]
    assert set(deld["lang"].to_pylist()) == {"md"}


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_restore_rolls_back_to_snapshot(tmp_path, mode, ray_session):
    """restore(as_of) makes the live table equal the as_of snapshot
    (data-wise) while preserving history: the restore is an ordinary
    commit, so the oracle over events + staged DML still matches, and
    the change feed shows the rollback."""
    meta = generate_change_events(
        str(tmp_path), n_events=2400, n_batches=4, seed=31
    )
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode=mode, gc_old_versions=False)
    eng.replay(meta["events_dir"])
    want = eng.final_sha256(as_of=1)
    s = eng.restore(1)
    assert s["dml"] == "restore" and s["n_matched"] > 0
    assert eng.final_sha256() == want  # no evolution in this stream
    # and the lake still replays end-to-end: events + staged restore batch
    oracle = _oracle_with_dml(
        spec, meta["events_dir"], lake, str(tmp_path / "oev")
    )
    assert eng.final_sha256() == oracle["sha256"]
    # restore of the restore is a fixed point (second snapshot == first)
    s2 = eng.restore(1)
    assert eng.final_sha256() == want
    # rows re-created/changed after batch 1 show as deletes/updates in
    # the feed across the restore commit
    feed = eng.changes_table(3, s["batch_id"])
    assert feed.num_rows > 0


def test_restore_keeps_current_schema_after_evolution(tmp_path, ray_session):
    """Columns evolved AFTER the restore point stay in the table (the
    Delta RESTORE contract), null on every restored row."""
    meta = generate_change_events(
        str(tmp_path), n_events=1600, n_batches=4, seed=32, evolve_from_batch=2
    )
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"), gc_old_versions=False)
    eng.replay(meta["events_dir"])
    snap = eng.final_table(as_of=1)  # pre-evolution: no size_bytes
    assert "size_bytes" not in snap.schema.names
    eng.restore(1)
    t = eng.final_table()
    assert "size_bytes" in t.schema.names
    assert pc.all(pc.is_null(t["size_bytes"])).as_py()
    key = [("repo", "ascending"), ("path", "ascending")]
    assert (
        t.select(snap.schema.names).sort_by(key).equals(snap.sort_by(key))
    )


def test_restore_without_history_raises(tmp_path, ray_session):
    meta = generate_change_events(str(tmp_path), n_events=800, n_batches=2, seed=33)
    spec = repo_file_spec(num_buckets=4)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))  # GC on: no history
    eng.replay(meta["events_dir"])
    with pytest.raises(Exception):
        eng.restore(0)


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_restore_feed_path_equals_full_path(tmp_path, mode, ray_session):
    """The O(churn) inverse-change restore and the O(snapshot) full
    merge restore must land the identical final sha."""
    meta = generate_change_events(
        str(tmp_path), n_events=2000, n_batches=4, seed=34
    )
    spec = repo_file_spec(num_buckets=8)
    a = ReplayEngine(
        spec, str(tmp_path / "a"), state_mode=mode, gc_old_versions=False
    )
    a.replay(meta["events_dir"])
    b = ReplayEngine(
        spec, str(tmp_path / "b"), state_mode=mode, gc_old_versions=False
    )
    b.replay(meta["events_dir"])
    sa = a.restore(1)  # feed path
    sb = b.restore(1, full=True)  # snapshot path
    assert a.final_sha256() == b.final_sha256()
    # and the feed path synthesized no more events than churn demanded:
    # full re-upserts the whole snapshot, feed touches changed keys only
    assert sa["n_matched"] <= sb["n_matched"]


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_delete_where_pruned_scan_equals_full(tmp_path, mode, ray_session):
    """delete_where(columns=[...]) prunes the state scan to keys + the
    predicate's columns (a DELETE never needs the payload) and must land
    the identical final sha as the unpruned scan."""
    meta = generate_change_events(str(tmp_path), n_events=2000, n_batches=2, seed=36)
    spec = repo_file_spec(num_buckets=8)
    a = ReplayEngine(spec, str(tmp_path / "a"), state_mode=mode)
    a.replay(meta["events_dir"])
    b = ReplayEngine(spec, str(tmp_path / "b"), state_mode=mode)
    b.replay(meta["events_dir"])
    sa = a.delete_where(lambda t: pc.equal(t["lang"], "md"), columns=["lang"])
    sb = b.delete_where(lambda t: pc.equal(t["lang"], "md"))
    assert sa["n_matched"] == sb["n_matched"] > 0
    assert a.final_sha256() == b.final_sha256()
    with pytest.raises(ValueError, match="unknown columns"):
        a.delete_where(lambda t: t["lang"], columns=["nope"])


def test_gc_dml_staging_follows_retention_discipline(tmp_path, ray_session):
    meta = generate_change_events(str(tmp_path), n_events=900, n_batches=2, seed=37)
    spec = repo_file_spec(num_buckets=4)

    # plain GC: committed stages removed immediately, uncommitted kept
    lake = str(tmp_path / "gc")
    eng = ReplayEngine(spec, lake)
    eng.replay(meta["events_dir"])
    eng.delete_where(_del_md)
    assert len(glob.glob(os.path.join(lake, "_dml", "batch=*"))) == 1
    assert eng.gc_dml_staging() == 1
    assert not glob.glob(os.path.join(lake, "_dml", "batch=*"))
    # staged-but-uncommitted survives the sweep
    orig = ReplayEngine._dml_apply
    ReplayEngine._dml_apply = lambda self, *a, **k: (_ for _ in ()).throw(
        RuntimeError("crash")
    )
    try:
        with pytest.raises(RuntimeError):
            eng.update_where(_upd_pred, _upd_set)
    finally:
        ReplayEngine._dml_apply = orig
    assert eng.gc_dml_staging() == 0
    assert len(glob.glob(os.path.join(lake, "_dml", "batch=*"))) == 1
    assert eng.resume_dml() is not None  # recovery still possible

    # keep-everything: never swept (audit source of truth)
    lake2 = str(tmp_path / "keep")
    eng2 = ReplayEngine(spec, lake2, gc_old_versions=False)
    eng2.replay(meta["events_dir"])
    eng2.delete_where(_del_md)
    assert eng2.gc_dml_staging() == 0
    assert len(glob.glob(os.path.join(lake2, "_dml", "batch=*"))) == 1


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_restore_inside_retention_window(tmp_path, mode, ray_session):
    """Bounded retention: restore works for as_of inside the window
    (what the scale probes exercise) and raises once the horizon has
    passed the requested snapshot."""
    meta = generate_change_events(str(tmp_path), n_events=1600, n_batches=4, seed=38)
    spec = repo_file_spec(num_buckets=8)
    kw = dict(state_mode=mode, retain_batches=2)
    if mode == "delta":
        kw["fold_threshold"] = 2
    eng = ReplayEngine(spec, str(tmp_path / "lake"), **kw)
    eng.replay(meta["events_dir"])
    wm = eng.ckpt.watermark
    want = eng.final_sha256(as_of=wm - 1)
    s = eng.restore(wm - 1)
    assert s["dml"] == "restore"
    assert eng.final_sha256() == want
    with pytest.raises(Exception):
        eng.restore(0)  # outside the window: no silent wrong answer


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_dml_stage_survives_batch_id_aliasing(tmp_path, mode):
    """Crash after staging batch N, then an ordinary ingest replay
    commits upstream batch N (DML always stages at watermark+1 — the
    exact id upstream ships next): the staged DML must re-stage onto
    the next free id and apply, never be silently dropped, and the
    ingest batch must NOT be mislabeled as DML in history."""
    meta = generate_change_events(str(tmp_path), n_events=3000, n_batches=3, seed=21)
    ev = meta["events_dir"]
    spec = repo_file_spec(num_buckets=16)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(spec, lake, state_mode=mode)
    eng.replay(ev, max_batches=2)  # commits 0,1 -> watermark 1

    orig = ReplayEngine._dml_apply
    ReplayEngine._dml_apply = lambda self, *a, **k: (_ for _ in ()).throw(
        RuntimeError("injected crash after stage")
    )
    try:
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.delete_where(_del_md)  # stages batch 2, never commits
    finally:
        ReplayEngine._dml_apply = orig

    # a fresh plain-ingest run ships upstream batch 2 — the staged id
    fresh = ReplayEngine(spec, lake, state_mode=mode)
    r = fresh.replay(ev)
    assert 2 in r["applied_batches"]  # the INGEST batch took id 2
    # ... and the orphaned DML re-staged onto id 3 and applied
    assert r.get("resumed_dml") is not None
    assert r["resumed_dml"]["restaged_from"] == 2
    assert r["resumed_dml"]["dml"] == "delete"
    s2 = fresh.ckpt._m["batches"]["2"]
    s3 = fresh.ckpt._m["batches"]["3"]
    assert "dml" not in s2, "ingest batch mislabeled as DML"
    assert s3.get("dml") == "delete"

    # ground truth: full stream + the re-staged DML batch, oracle-exact
    oracle = _oracle_with_dml(spec, ev, lake, str(tmp_path / "oev"))
    assert fresh.final_sha256() == oracle["sha256"]

    # idempotence: nothing further to apply or resume
    r2 = fresh.replay(ev)
    assert r2["applied_batches"] == [] and "resumed_dml" not in r2
    assert fresh.final_sha256() == oracle["sha256"]
    # the committed re-staged stage is recognized as ours (no loop)
    assert fresh.resume_dml() is None
