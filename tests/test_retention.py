"""Bounded retention (retain_batches=N): superseded state files stay
readable for N batches of watermark progress, then are purged — time
travel and the change feed work inside the window, fail loudly outside
it, and storage does not grow without bound."""

import glob
import os

import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec


def _gen(tmp_path, **kw):
    defaults = dict(n_events=8000, n_repos=15, n_paths=40, n_batches=6,
                    seed=83, delete_frac=0.2, dirty_frac=0.03,
                    evolve_from_batch=4)
    defaults.update(kw)
    return generate_change_events(str(tmp_path), **defaults)


def test_feed_and_time_travel_inside_window_match_full_history(
    ray_session, tmp_path
):
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=16)
    ret = ReplayEngine(spec, str(tmp_path / "ret"), retain_batches=2)
    ful = ReplayEngine(spec, str(tmp_path / "full"), gc_old_versions=False)
    ret.replay(meta["events_dir"])
    ful.replay(meta["events_dir"])

    assert ret.final_sha256() == ful.final_sha256() \
        == replay_oracle(spec, meta["events_dir"])["sha256"]
    # horizon = 5 - 2 = 3: batches 3..5 are reconstructible
    assert ret.final_sha256(as_of=3) == ful.final_sha256(as_of=3)
    assert ret.final_sha256(as_of=4) == ful.final_sha256(as_of=4)
    feed_r = ret.changes_table(3, 5)
    feed_f = ful.changes_table(3, 5)
    assert feed_r.sort_by("repo").equals(feed_f.sort_by("repo"))

    # outside the window: loud failure, not silent garbage
    with pytest.raises(ValueError, match="retention window"):
        ret.final_table(as_of=1)
    with pytest.raises(ValueError, match="retention window"):
        ret.changes_table(0, 5)

    # storage is bounded: the retained lake holds strictly fewer state
    # files than the keep-everything lake, and the manifest's retired
    # list only tracks in-window files
    n_ret = len(glob.glob(str(tmp_path / "ret" / "part-*.parquet")))
    n_ful = len(glob.glob(str(tmp_path / "full" / "part-*.parquet")))
    assert n_ret < n_ful
    for _name, at in ret.ckpt._m.get("retired_files", []):
        assert at > ret.ckpt.watermark - 2


def test_retention_survives_process_restart(ray_session, tmp_path):
    """The retired list is durable: a new engine over the same lake keeps
    purging on the same schedule and the window keeps working."""
    meta = _gen(tmp_path, n_batches=6)
    spec = repo_file_spec(num_buckets=8)
    lake = str(tmp_path / "lake")
    e1 = ReplayEngine(spec, lake, retain_batches=3)
    e1.replay(meta["events_dir"], max_batches=3)

    e2 = ReplayEngine(spec, lake, retain_batches=3)
    e2.replay(meta["events_dir"])
    full = ReplayEngine(spec, str(tmp_path / "full"), gc_old_versions=False)
    full.replay(meta["events_dir"])
    assert e2.final_sha256() == full.final_sha256()
    assert e2.final_sha256(as_of=2) == full.final_sha256(as_of=2)
    assert e2.changes_table(2, 5).sort_by("repo").equals(
        full.changes_table(2, 5).sort_by("repo")
    )


def test_retention_rejects_invalid_configs(ray_session, tmp_path):
    spec = repo_file_spec(num_buckets=4)
    # delta + retain_batches is now a supported config (see
    # tests/test_delta_retention.py); invalid combos remain rejected
    with pytest.raises(ValueError, match="gc_old_versions=True"):
        ReplayEngine(spec, str(tmp_path / "b"), gc_old_versions=False,
                     retain_batches=2)
    with pytest.raises(ValueError, match=">= 1"):
        ReplayEngine(spec, str(tmp_path / "c"), retain_batches=0)


def test_eager_gc_unchanged_and_current_snapshot_always_readable(
    ray_session, tmp_path
):
    """Default engines (eager GC, no retention) behave as before: history
    reads fail with NotImplementedError, the current snapshot (as_of ==
    watermark) still reads fine."""
    meta = _gen(tmp_path, n_batches=3, evolve_from_batch=99)
    spec = repo_file_spec(num_buckets=4)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    assert eng.final_sha256(as_of=2) == eng.final_sha256()
    with pytest.raises(NotImplementedError):
        eng.final_table(as_of=1)
    with pytest.raises(NotImplementedError):
        eng.changes_table(1, 2)
