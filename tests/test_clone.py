"""Shallow lake clone: hardlinked zero-copy snapshot, sha-exact vs the
source, and full post-clone independence of both lakes."""

import os

import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec


def _gen(tmp_path, **kw):
    kw.setdefault("n_events", 3000)
    kw.setdefault("n_batches", 4)
    kw.setdefault("seed", 77)
    kw.setdefault("dirty_frac", 0.05)
    return generate_change_events(str(tmp_path), n_repos=10, n_paths=30, **kw)


@pytest.mark.parametrize("state_mode", ["rewrite", "delta"])
def test_clone_matches_source_and_hardlinks(tmp_path, ray_session, state_mode):
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"), state_mode=state_mode)
    eng.replay(meta["events_dir"])
    src_sha = eng.final_sha256()

    clone = eng.clone(str(tmp_path / "clone"))
    assert clone.final_sha256() == src_sha
    assert clone.ckpt.watermark == eng.ckpt.watermark
    assert clone.fsck()["ok"]
    # zero-copy: data files share inodes with the source
    stats = clone._clone_stats
    assert stats["linked"] > 0 and stats["copied"] == 0
    parts = [
        f
        for f in os.listdir(tmp_path / "clone")
        if f.endswith(".parquet")
    ]
    assert parts
    assert os.stat(tmp_path / "clone" / parts[0]).st_nlink >= 2


def test_clone_diverges_independently(tmp_path, ray_session):
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"], max_batches=2)
    prefix_sha = eng.final_sha256()

    clone = eng.clone(str(tmp_path / "clone"))
    # source advances past the clone point
    eng.replay(meta["events_dir"])
    full = replay_oracle(spec, meta["events_dir"])
    assert eng.final_sha256() == full["sha256"]
    # the clone is untouched by the source's commits ...
    assert clone.ckpt.watermark == 1
    assert clone.final_sha256() == prefix_sha
    # ... and can replay the remaining batches itself to the same truth
    clone2 = ReplayEngine(spec, str(tmp_path / "clone"))  # fresh handle
    clone2.replay(meta["events_dir"])
    assert clone2.final_sha256() == full["sha256"]
    # source sha unchanged by the clone's catching up
    assert eng.final_sha256() == full["sha256"]


def test_clone_refuses_nonempty_dest_and_empty_source(tmp_path, ray_session):
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    empty = ReplayEngine(spec, str(tmp_path / "lake0"))
    with pytest.raises(ValueError, match="nothing to clone"):
        empty.clone(str(tmp_path / "c0"))
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    dest = tmp_path / "occupied"
    dest.mkdir()
    (dest / "stray.txt").write_text("x")
    with pytest.raises(ValueError, match="not empty"):
        eng.clone(str(dest))


def test_clone_skips_crashed_commit_temp_files(tmp_path, ray_session):
    """A crashed commit leaves ``<name>.tmp.<pid>`` files; the clone
    must not carry them over."""
    meta = _gen(tmp_path, n_batches=2)
    eng = ReplayEngine(repo_file_spec(num_buckets=8), str(tmp_path / "lake"))
    eng.replay(meta["events_dir"])
    planted = [
        tmp_path / "lake" / "part-00000-v00009.parquet.tmp.4242",
        tmp_path / "lake" / "_checkpoint" / "manifest.json.tmp.4242",
    ]
    for f in planted:
        f.write_text("debris")
    clone = eng.clone(str(tmp_path / "clone"))
    names = {f for _, _, fs in os.walk(tmp_path / "clone") for f in fs}
    assert not any(".tmp" in f for f in names), sorted(names)
    assert clone.final_sha256() == eng.final_sha256()
