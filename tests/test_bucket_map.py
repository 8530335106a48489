"""Maintenance and DML through the grouped bucket map: one task per
bucket group, read stats in ``metrics()["last_read"]``, one tombstone
fold for both layouts, and fsck's served-file classifier on lakes that
keep their history."""

import os

import pyarrow.compute as pc
import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.state.snapshot import SnapshotReader, plan_groups

MODES = ["rewrite", "delta"]

_is_md = lambda t: pc.equal(pc.utf8_lower(t["lang"]), "md")  # noqa: E731
_upper_lang = lambda t: t.set_column(  # noqa: E731
    t.schema.get_field_index("lang"), "lang", pc.utf8_upper(t["lang"])
)


def _stream(tmp_path, **kw):
    kw.setdefault("n_events", 5000)
    kw.setdefault("n_batches", 3)
    kw.setdefault("seed", 17)
    return generate_change_events(str(tmp_path / "gen"), **kw)["events_dir"]


@pytest.mark.parametrize("mode", MODES)
def test_fsck_serves_history_of_keep_everything_lake(ray_session, tmp_path, mode):
    events = _stream(tmp_path)
    eng = ReplayEngine(repo_file_spec(num_buckets=8), str(tmp_path / "lake"),
                       state_mode=mode, gc_old_versions=False)
    eng.replay(events)
    if mode == "delta":
        eng.compact()  # the fold leaves the group delta files to history
    history = {os.path.basename(f) for f in eng._state_files(as_of=0)}
    assert history - {os.path.basename(f) for f in eng._state_files()}
    eng.final_sha256(as_of=0)  # time travel reads those files

    r = eng.fsck()
    assert r["ok"] and r["orphans"] == [], r
    assert eng.gc_orphans() == 0

    orphan = os.path.join(eng.lake_dir, "part-00000-v00099.parquet")
    with open(orphan, "wb") as f:
        f.write(b"junk")
    assert eng.fsck()["orphans"] == ["part-00000-v00099.parquet"]
    assert eng.gc_orphans() == 1 and not os.path.exists(orphan)
    assert eng.fsck()["orphans"] == []


def test_compact_counts_dropped_tombstones_in_both_layouts(ray_session, tmp_path):
    events = _stream(tmp_path, n_events=4000, delete_frac=0.25, seed=9)
    dropped = {}
    for mode in MODES:
        eng = ReplayEngine(repo_file_spec(num_buckets=16),
                           str(tmp_path / f"lake_{mode}"), state_mode=mode)
        eng.replay(events)
        sha = eng.final_sha256()
        dropped[mode] = eng.compact(min_retained_seq=2000)["dropped_tombstones"]
        assert eng.final_sha256() == sha
    assert dropped["rewrite"] == dropped["delta"] > 0


@pytest.mark.parametrize("mode", MODES)
def test_maintenance_reads_one_task_per_group(ray_session, tmp_path, mode):
    events = _stream(tmp_path, n_batches=4)
    eng = ReplayEngine(repo_file_spec(num_buckets=16), str(tmp_path / "lake"),
                       state_mode=mode, fold_threshold=100)
    eng.replay(events, max_batches=3)

    def groups():  # plan_groups over the tip, on the 4-CPU test cluster
        srcs = SnapshotReader.of(eng).resolve().values()
        sizes = [sum(os.path.getsize(f) for f in s.files()) for s in srcs]
        return len(plan_groups(sizes, 4))

    def check(op, waves=1):
        want_files, n_groups = len(eng._state_files()), groups()
        assert n_groups < 16  # one task per bucket would be 16
        op()
        st = eng.metrics()["last_read"]
        assert st["tasks"] <= n_groups * waves, st
        assert st["files"] == want_files and st["bytes"] > 0, st
        assert st["rows"] > 0, st

    check(eng.compact)
    check(lambda: eng.optimize_sort("lang"))
    eng.replay(events)  # a new watermark re-arms the rewrite ledger
    check(lambda: eng.backfill(_upper_lang))
    check(lambda: eng.export_snapshot(str(tmp_path / "export")))
    check(eng.build_lookup_filters)
    check(lambda: eng.delete_where(_is_md), waves=2)
