"""Grouped heavy hitters: exact when partial_m covers the per-group
cardinality (hash-exact vs DuckDB), bounds always contain the truth
when it doesn't, and retries stay deterministic (content-derived
partial ids)."""

import duckdb
import polars as pl

from glue_etl_pipeline_ray.functions.sketch import grouped_heavy_hitters
from glue_etl_pipeline_ray.pipelines.queries import (
    _t,
    q_topk_per_group_sketch,
)

SF = "/root/testdata/sf0.001"

ORACLE = """
SELECT CAST(user_id AS BIGINT) AS user_id, event_type AS key,
       cnt AS count_min, cnt AS count_max, rank
FROM (
    SELECT user_id, event_type, count(*) AS cnt,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY count(*) DESC, event_type) AS rank
    FROM read_parquet('{sf}/events.parquet')
    GROUP BY user_id, event_type
)
WHERE rank <= 3
ORDER BY user_id, rank
"""


def test_exact_when_partials_cover_cardinality(ray_session):
    got = (
        q_topk_per_group_sketch(SF)
        .to_pandas()
        .sort_values(["user_id", "rank"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(ORACLE.format(sf=SF)).df().reset_index(drop=True)
    assert len(got) == len(exp) > 0
    for c in ["user_id", "key", "count_min", "count_max", "rank"]:
        assert list(got[c]) == list(exp[c]), c
    # zero slack: exact partials covered every event type
    assert (got["count_min"] == got["count_max"]).all()


def test_bounds_contain_truth_under_truncation(ray_session):
    ds = _t(SF, "events", ["user_id", "event_type"])
    got = grouped_heavy_hitters(
        ds, "user_id", "event_type", k=2, partial_m=1
    ).to_pandas()
    truth = (
        pl.read_parquet(f"{SF}/events.parquet")
        .group_by(["user_id", "event_type"])
        .len()
        .to_pandas()
        .set_index(["user_id", "event_type"])["len"]
    )
    assert len(got) > 0
    for r in got.itertuples():
        t = int(truth.loc[(r.user_id, r.key)])
        assert r.count_min <= t <= r.count_max, (r, t)


def test_deterministic_across_runs(ray_session):
    a = q_topk_per_group_sketch(SF).to_pandas().sort_values(
        ["user_id", "rank"]
    )
    b = q_topk_per_group_sketch(SF).to_pandas().sort_values(
        ["user_id", "rank"]
    )
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_bounds_hold_when_blocks_are_identical(ray_session):
    """Byte-identical blocks emit identical partials with one content
    id; the fold must count their dropped mass once per block. Blocks
    a*3+b*2, a*3+b*2 and b*5 with partial_m=1: b's true count is 9."""
    import pyarrow as pa
    import ray

    def block(keys):
        return pa.table({"g": pa.array([1] * len(keys), pa.int64()), "k": keys})

    ab = ["a"] * 3 + ["b"] * 2
    ds = ray.data.from_arrow([block(ab), block(ab), block(["b"] * 5)])
    got = grouped_heavy_hitters(ds, "g", "k", k=2, partial_m=1).to_pandas()
    truth = {"a": 6, "b": 9}
    assert sorted(got["key"]) == ["a", "b"]
    for r in got.itertuples():
        assert r.count_min <= truth[r.key] <= r.count_max, r
