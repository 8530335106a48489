"""Nested struct / list<struct> payload columns through the full CDC
replay path: spec registry, validate, evolve (incl. a nested column
arriving mid-stream), exchange, LWW merge, sha256 oracle equality,
and manifest round-trip of nested type names."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import Rule, TableSpec, type_from_name, type_name

META_T = "struct<idx:int64,tags:list<string>>"
ANNO_T = "list<struct<k:string,v:double>>"


def _nested_spec(num_buckets: int = 8) -> TableSpec:
    return TableSpec(
        name="nested_files",
        key_cols=("repo", "path"),
        base_cols=(("commit", "string"), ("meta", META_T)),
        rules=(
            Rule("repo", "not_null"),
            Rule("path", "not_null"),
            Rule("op", "enum", allowed=("INSERT", "UPDATE", "DELETE")),
        ),
        num_buckets=num_buckets,
    )


def _gen_events(out_dir: str, n_batches: int = 3, per_batch: int = 400):
    rng = np.random.default_rng(5)
    os.makedirs(out_dir, exist_ok=True)
    seq = 0
    for b in range(n_batches):
        rows = {
            "seq": [], "batch_id": [], "op": [], "repo": [], "path": [],
            "commit": [], "meta": [],
        }
        annos = []
        for _ in range(per_batch):
            seq += 1
            r = int(rng.integers(0, 6))
            p = int(rng.integers(0, 25))
            op = "DELETE" if rng.random() < 0.1 else (
                "UPDATE" if rng.random() < 0.5 else "INSERT"
            )
            rows["seq"].append(seq)
            rows["batch_id"].append(b)
            rows["op"].append(op)
            rows["repo"].append(f"org{r}/repo")
            rows["path"].append(f"src/f{p}.py")
            rows["commit"].append(None if op == "DELETE" else f"c{seq:06d}")
            rows["meta"].append(
                None
                if op == "DELETE" or rng.random() < 0.2
                else {
                    "idx": int(rng.integers(0, 100)),
                    "tags": [f"t{int(x)}" for x in rng.integers(0, 5, 3)],
                }
            )
            annos.append(
                None
                if rng.random() < 0.5
                else [
                    {"k": f"k{int(rng.integers(0, 3))}", "v": float(rng.random())}
                ]
            )
        t = pa.table(
            {
                "seq": pa.array(rows["seq"], pa.int64()),
                "batch_id": pa.array(rows["batch_id"], pa.int64()),
                "op": pa.array(rows["op"], pa.string()),
                "repo": pa.array(rows["repo"], pa.string()),
                "path": pa.array(rows["path"], pa.string()),
                "commit": pa.array(rows["commit"], pa.string()),
                "meta": pa.array(rows["meta"], type_from_name(META_T)),
            }
        )
        if b >= 1:  # schema evolution: nested column arrives mid-stream
            t = t.append_column(
                "annotations", pa.array(annos, type_from_name(ANNO_T))
            )
        pq.write_table(t, os.path.join(out_dir, f"batch={b:05d}.parquet"))


def test_type_name_roundtrip():
    for s in (
        "string",
        "list<string>",
        "list<list<double>>",
        META_T,
        ANNO_T,
        "struct<a:struct<b:list<int64>>,c:bool>",
    ):
        assert type_name(type_from_name(s)) == s
    with pytest.raises(ValueError):
        type_from_name("map<string,int64>")
    with pytest.raises(ValueError):
        type_from_name("struct<broken>")


@pytest.mark.parametrize(
    "mode", ["rewrite", "delta"], ids=["rewrite-raycore", "delta-raycore"]
)
def test_nested_replay_matches_oracle(ray_session, tmp_path, mode):
    ev_dir = str(tmp_path / "events")
    _gen_events(ev_dir)
    spec = _nested_spec()
    oracle = replay_oracle(spec, ev_dir)
    assert oracle["evolved"] == (("annotations", ANNO_T),)

    eng = ReplayEngine(spec, str(tmp_path / f"lake_{mode}"), state_mode=mode)
    eng.replay(ev_dir)
    assert eng.final_sha256() == oracle["sha256"]
    # manifest round-trip: a fresh engine reloads the nested evolved type
    eng2 = ReplayEngine(spec, str(tmp_path / f"lake_{mode}"), state_mode=mode)
    assert eng2.ckpt.evolved == (("annotations", ANNO_T),)
    assert eng2.final_sha256() == oracle["sha256"]

    final = eng2.final_table()
    f = final.schema.field("meta")
    assert pa.types.is_struct(f.type)
    assert pa.types.is_list(final.schema.field("annotations").type)
    # early rows (pre-evolution) are null-backfilled in the nested column
    assert final["annotations"].null_count > 0


def test_nested_path_rules(ray_session, tmp_path):
    """Validation rules at depth (dotted paths into struct columns):
    engine's vectorized struct_field masks == oracle's dict walk."""
    ev_dir = str(tmp_path / "events")
    _gen_events(ev_dir)
    spec = TableSpec(
        name="nested_rules",
        key_cols=("repo", "path"),
        base_cols=(("commit", "string"), ("meta", META_T)),
        rules=(
            Rule("repo", "not_null"),
            Rule("path", "not_null"),
            Rule("op", "enum", allowed=("INSERT", "UPDATE", "DELETE")),
            # depth rules: meta.idx must be present (deletes exempt) and
            # in [0, 80) when set — quarantines rows with null meta too
            Rule("meta.idx", "not_null", nullable_for_ops=("DELETE",)),
            Rule("meta.idx", "range", lo=0, hi=79),
        ),
        num_buckets=8,
    )
    oracle = replay_oracle(spec, ev_dir)
    assert oracle["n_dead_lettered"] > 0  # the depth rules actually bite
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    r = eng.replay(ev_dir)
    assert eng.final_sha256() == oracle["sha256"]
    assert (
        sum(s["n_dead_lettered"] for s in r["summaries"])
        == oracle["n_dead_lettered"]
    )


def test_nested_crash_resume(ray_session, tmp_path):
    ev_dir = str(tmp_path / "events")
    _gen_events(ev_dir)
    spec = _nested_spec()
    oracle = replay_oracle(spec, ev_dir)
    eng = ReplayEngine(spec, str(tmp_path / "lake"))
    with pytest.raises(RuntimeError, match="injected crash"):
        eng.replay(ev_dir, fail_before_commit_of=1)
    eng2 = ReplayEngine(spec, str(tmp_path / "lake"))
    r = eng2.replay(ev_dir)
    assert r["applied_batches"] == [1, 2]
    assert eng2.final_sha256() == oracle["sha256"]
