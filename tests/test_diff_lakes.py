"""Cross-lake diff (diff_with): converged lakes diff empty, a diverged
clone's diff equals the in-lake change feed over the same batches, and
layout mismatches raise instead of shuffling."""

import pyarrow as pa
import pytest
import ray

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec


def _gen(tmp_path, **kw):
    kw.setdefault("n_events", 4000)
    kw.setdefault("n_batches", 4)
    kw.setdefault("seed", 31)
    kw.setdefault("delete_frac", 0.15)
    return generate_change_events(str(tmp_path), n_repos=10, n_paths=30, **kw)


def _sorted_pd(ds_or_tbl):
    df = (
        ds_or_tbl.to_pandas()
        if not isinstance(ds_or_tbl, pa.Table)
        else ds_or_tbl.to_pandas()
    )
    return (
        df.sort_values(list(df.columns))
        .reset_index(drop=True)
        .reindex(sorted(df.columns), axis=1)
    )


@pytest.mark.parametrize("mode_a", ["rewrite", "delta"])
def test_diff_with_matches_change_feed(tmp_path, ray_session, mode_a):
    meta = _gen(tmp_path)
    spec = repo_file_spec(num_buckets=8)
    src = ReplayEngine(
        spec, str(tmp_path / "a"), state_mode=mode_a, gc_old_versions=False
    )
    src.replay(meta["events_dir"], max_batches=2)
    clone = src.clone(str(tmp_path / "b"))
    # identical lakes diff empty
    assert src.diff_with(clone).count() == 0
    assert clone.diff_with(src).count() == 0
    # mixed state modes: an independently-built rewrite lake with the
    # same committed content diffs empty against the delta lake
    mixed = ReplayEngine(spec, str(tmp_path / "m"), state_mode="rewrite")
    mixed.replay(meta["events_dir"], max_batches=2)
    assert src.diff_with(mixed).count() == 0

    # source advances; the cross-lake diff clone->src must equal the
    # IN-LAKE change feed between the same two snapshots
    src.replay(meta["events_dir"])
    cross = _sorted_pd(src.diff_with(clone))
    feed = _sorted_pd(src.changes_table(clone.ckpt.watermark, src.ckpt.watermark))
    assert len(cross) > 0
    pa_cross = pa.Table.from_pandas(cross)
    pa_feed = pa.Table.from_pandas(feed)
    assert pa_cross.equals(pa_feed) or cross.equals(feed)

    # reverse direction: applying src's view back onto the clone means
    # every insert becomes a delete and vice versa — counts must mirror
    rev = src.diff_with(clone).to_pandas()["_change_type"].value_counts()
    fwd = clone.diff_with(src).to_pandas()["_change_type"].value_counts()
    assert rev.get("insert", 0) == fwd.get("delete", 0)
    assert rev.get("delete", 0) == fwd.get("insert", 0)
    assert rev.get("update", 0) == fwd.get("update", 0)


def test_diff_with_update_preimages(tmp_path, ray_session):
    meta = _gen(tmp_path, seed=32)
    spec = repo_file_spec(num_buckets=8)
    src = ReplayEngine(spec, str(tmp_path / "a"), gc_old_versions=False)
    src.replay(meta["events_dir"], max_batches=2)
    clone = src.clone(str(tmp_path / "b"))
    src.replay(meta["events_dir"])
    df = src.diff_with(clone, update_preimages=True).to_pandas()
    kinds = set(df["_change_type"])
    assert "update" not in kinds  # split into pre/post pairs
    n_pre = (df["_change_type"] == "update_preimage").sum()
    n_post = (df["_change_type"] == "update_postimage").sum()
    assert n_pre == n_post


def test_diff_with_layout_mismatch_raises(tmp_path, ray_session):
    meta = _gen(tmp_path, seed=33, n_batches=2)
    a = ReplayEngine(repo_file_spec(num_buckets=8), str(tmp_path / "a"))
    a.replay(meta["events_dir"])
    b = ReplayEngine(repo_file_spec(num_buckets=16), str(tmp_path / "b"))
    b.replay(meta["events_dir"])
    with pytest.raises(ValueError, match="matching bucket layouts"):
        a.diff_with(b)
    # same final content, same layout -> empty diff even though the
    # lakes were built independently
    c = ReplayEngine(repo_file_spec(num_buckets=8), str(tmp_path / "c"))
    c.replay(meta["events_dir"])
    assert a.diff_with(c).count() == 0


def test_diff_with_payload_schema_mismatch_raises(tmp_path, ray_session):
    """Lakes whose base payload columns differ in type or name cannot be
    diffed: conform() would null-fill or drop columns and report
    spurious changes."""
    import dataclasses

    meta = _gen(tmp_path, seed=34, n_batches=2)
    spec = repo_file_spec(num_buckets=8)
    a = ReplayEngine(spec, str(tmp_path / "a"))
    a.replay(meta["events_dir"])
    retyped = dataclasses.replace(
        spec,
        base_cols=(("commit", "string"), ("lang", "int64"), ("content", "string")),
    )
    renamed = dataclasses.replace(
        spec,
        base_cols=(("commit", "string"), ("language", "string"), ("content", "string")),
    )
    for i, other_spec in enumerate((retyped, renamed)):
        other = ReplayEngine(other_spec, str(tmp_path / f"o{i}"))
        with pytest.raises(ValueError, match="matching payload columns"):
            a.diff_with(other)
        with pytest.raises(ValueError, match="matching payload columns"):
            other.diff_with(a)
