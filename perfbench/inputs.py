"""Seeded benchmark inputs and the oracle answers that check them.

Every input is a pure function of the workload family and ``--seed``, and
is cached under ``.perfbench/cache/<family>-<version>-s<seed>/`` so a
repeated seed (and the two workloads that share the uniform-key stream)
skip generation; generation is never part of ``setup_s``. Oracle answers are cached next to the inputs; computing
them is never timed.

Families:

- ``bulk``: one ``gen.generate_change_events`` stream, hot repos drawn
  from a Zipf distribution, 2% dirty rows, 8% deletes, a new column in
  the last batch, two big batches.
- ``uniform``: one near-uniform stream over a large key space, cut into a
  single big base batch (the pre-built lake) plus many small batches the
  closed loop lands one at a time. ``ingest_steady`` and
  ``lake_reads`` share it.
- ``etl``: Firehose-style concatenated-JSON blobs shaped for the six
  production event tables, with about 5% events that must dead-letter.
"""

from __future__ import annotations

import json
import os
import shutil
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

CACHE_VERSION = "v6"

BULK = dict(
    n_events=30_000,
    n_batches=2,
    n_repos=200,
    n_paths=200,
    zipf_a=1.3,
    dirty_frac=0.02,
    delete_frac=0.08,
)

# near-uniform keys: a single repo, paths drawn uniformly from KEY_SPACE
UNIFORM = dict(
    base_events=40_000,
    batch_events=2_000,
    n_small_batches=96,
    key_space=80_000,
    dirty_frac=0.02,
    delete_frac=0.08,
)

ETL = dict(n_files=24, per_file=250, dirty_frac=0.05)

KEY_SEP = "\x1f"


def cache_dir(root: str, family: str, seed: int) -> str:
    return os.path.join(root, "cache", f"{family}-{CACHE_VERSION}-s{seed}")


def _cached(path: str, build) -> str:
    """Build ``path`` once: ``build(tmp_dir)`` fills a temp dir that is
    renamed into place, so an interrupted build never looks complete."""
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.replace(tmp, path)
    return path


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def key_strings(t: pa.Table, key_cols) -> pa.Array:
    """One string per row joining the key columns (null keys stay null)."""
    return pc.binary_join_element_wise(
        *(t[k].combine_chunks() for k in key_cols), KEY_SEP
    )


# ------------------------------------------------------------------ bulk
def bulk_inputs(root: str, seed: int) -> str:
    """``<dir>/events/batch=N.parquet`` plus ``oracle.json``."""

    def build(d: str) -> None:
        from glue_etl_pipeline_ray.gen import generate_change_events

        generate_change_events(
            d, evolve_from_batch=BULK["n_batches"] - 1, seed=seed, **BULK
        )

    return _cached(cache_dir(root, "bulk", seed), build)


def bulk_oracle(spec, d: str) -> dict:
    path = os.path.join(d, "oracle.json")
    if not os.path.exists(path):
        from glue_etl_pipeline_ray.oracle import replay_oracle

        o = replay_oracle(spec, os.path.join(d, "events"))
        _write_json(
            path,
            {
                "sha256": o["sha256"],
                "n_dead_lettered": o["n_dead_lettered"],
                "n_live": o["n_live"],
            },
        )
    return read_json(path)


# --------------------------------------------------------------- uniform
def uniform_inputs(root: str, seed: int) -> str:
    """``<dir>/events/batch=00000.parquet`` (the base) and
    ``<dir>/small/batch=NNNNN.parquet`` (batch ids 1..n, landed later).

    Generated as ONE stream so ``seq`` keeps rising across the cut; the
    first ``base_events`` rows are re-written as a single base batch."""
    u = UNIFORM

    def build(d: str) -> None:
        from glue_etl_pipeline_ray.gen import generate_change_events

        n_base = u["base_events"] // u["batch_events"]
        meta = generate_change_events(
            os.path.join(d, "gen"),
            n_events=u["base_events"] + u["n_small_batches"] * u["batch_events"],
            n_repos=1,
            n_paths=u["key_space"],
            n_batches=n_base + u["n_small_batches"],
            dirty_frac=u["dirty_frac"],
            delete_frac=u["delete_frac"],
            seed=seed,
        )
        files = meta["files"]
        os.makedirs(os.path.join(d, "events"))
        os.makedirs(os.path.join(d, "small"))
        base = pa.concat_tables([pq.read_table(f) for f in files[:n_base]])
        _write_batch(base, 0, os.path.join(d, "events", "batch=00000.parquet"))
        for i, f in enumerate(files[n_base:], start=1):
            _write_batch(
                pq.read_table(f),
                i,
                os.path.join(d, "small", f"batch={i:05d}.parquet"),
            )
        shutil.rmtree(os.path.join(d, "gen"))

    return _cached(cache_dir(root, "uniform", seed), build)


def _write_batch(t: pa.Table, batch_id: int, path: str) -> None:
    i = t.schema.get_field_index("batch_id")
    t = t.set_column(i, "batch_id", pa.array(np.full(t.num_rows, batch_id, np.int64)))
    pq.write_table(t, path, row_group_size=16_384)


def small_batches(d: str) -> list[str]:
    sd = os.path.join(d, "small")
    return [os.path.join(sd, f) for f in sorted(os.listdir(sd))]


def uniform_base_oracle(spec, d: str) -> tuple[pa.Table, int]:
    """Oracle over the base batch alone: (live table, dead-letter count)."""
    tpath = os.path.join(d, "oracle_base.parquet")
    jpath = os.path.join(d, "oracle_base.json")
    if not os.path.exists(jpath):
        from glue_etl_pipeline_ray.oracle import replay_oracle

        o = replay_oracle(spec, os.path.join(d, "events"))
        pq.write_table(o["table"], tpath)
        _write_json(jpath, {"n_dead_lettered": o["n_dead_lettered"]})
    return pq.read_table(tpath), read_json(jpath)["n_dead_lettered"]


def oracle_after(
    spec,
    d: str,
    base_live: pa.Table,
    later: list[str],
    work: str,
) -> dict:
    """Oracle state after the base batch plus the ``later`` batch files.

    LWW state is per key, so keys no later batch touches keep their
    base-oracle row; the touched keys are replayed by
    ``oracle.replay_oracle`` over the base rows of just those keys plus
    the later batches. Returns the full live table, its sha256 (same
    ``table_sha256`` the oracle uses), the later batches' dead-letter
    count, and the touched key strings. ``selfcheck.py`` checks this
    equals a full-stream ``replay_oracle``."""
    from glue_etl_pipeline_ray.hashing import table_sha256
    from glue_etl_pipeline_ray.oracle import replay_oracle

    kc = list(spec.key_cols)
    touched = pa.concat_arrays(
        [key_strings(pq.read_table(f, columns=kc), kc) for f in later]
    )
    touched = pc.unique(touched.filter(pc.is_valid(touched)))
    base_ev = pq.read_table(os.path.join(d, "events", "batch=00000.parquet"))
    base_sub = base_ev.filter(
        pc.fill_null(pc.is_in(key_strings(base_ev, kc), value_set=touched), False)
    )
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pq.write_table(base_sub, os.path.join(work, "batch=00000.parquet"))
    for f in later:
        os.link(f, os.path.join(work, os.path.basename(f)))
    o = replay_oracle(spec, work)
    shutil.rmtree(work)
    n_dlq_later = sum(1 for r in o["dlq"] if r.get("batch_id") != 0)
    keep = pc.invert(pc.is_in(key_strings(base_live, kc), value_set=touched))
    live = pa.concat_tables(
        [base_live.filter(keep), o["table"].cast(base_live.schema)]
    ).sort_by([(k, "ascending") for k in kc])
    return {
        "table": live,
        "sha256": table_sha256(live, kc),
        "n_dead_lettered": n_dlq_later,
        "touched": touched,
        "touched_live": o["table"],
    }


# ------------------------------------------------------------------- etl
def _etl_event(rng, fi: int, i: int, table: int) -> dict:
    """One valid production-shaped envelope for table index ``table``
    (0..5 = microone/microtwo/microthree x event/prediction)."""
    eid = f"s{fi:03d}-e{i:05d}"
    ts = 1_650_000_000_000 + fi * 3_600_000 + i
    minute, second = int(rng.integers(0, 60)), int(rng.integers(0, 60))
    time = f"2022-04-{1 + fi // 24:02d}T{fi % 24:02d}:{minute:02d}:{second:02d}Z"
    service = ("microone", "microtwo", "microthree")[table // 2]
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]
    text = " ".join(words[j] for j in rng.integers(0, len(words), 6))
    if table % 2 == 0:  # evaluation event
        dtype, field = "EFEvaluationEvent", "evaluation"
        if service == "microone":
            kinds, payload = ["PUBLISH", "DELETE", "DELETE SLIDE"], {
                "text": text,
                "paragraph": int(rng.integers(0, 20)),
                "slide": None,
            }
        elif service == "microtwo":
            kinds, payload = ["PUBLISH"], {"text": text}
        else:
            kinds, payload = ["ADD_TAG", "SEARCH_IMAGE", "PUBLISH"], {
                "text": text,
                "media_id": int(rng.integers(0, 1000)),
                "media_type": "IMAGE",
                "medialib": "MYLIB",
                "query": "q" if rng.random() < 0.5 else ["a", "b"],
                "tags": ["x", "y"] if rng.random() < 0.5 else None,
                "caption": None,
            }
        body = {
            "template_ef_version": "1.0",
            "id": eid,
            "shape_id": f"shape-{i % 7}",
            "timestamp": ts,
            "reporter": "user",
            "type": kinds[int(rng.integers(0, len(kinds)))],
            "payload": payload,
            "prediction_id": None,
            "service": service,
        }
    else:  # prediction
        dtype, field = "EFPredictionEvent", "prediction"
        body = {
            "id": eid,
            "shape_id": f"shape-{i % 7}",
            "service": service,
            "timestamp": ts,
            "service_version": {"software": "1.4.2", "model": "m-7"},
        }
        if service == "microone":
            body["input"] = {
                "paragraphs": [text, text[::-1]],
                "sentences_scores": [
                    {"sentence": w, "score": int(rng.integers(-1, 100))}
                    for w in words[:3]
                ],
            }
            body["output"] = {"summary": [text]}
        elif service == "microtwo":
            body["input"] = {"transcript": text}
            body["output"] = {"microtwo": [text[:20]]}
        else:
            body["context"] = {"paragraph": int(rng.integers(0, 9)), "sentence": 1}
            body["input"] = {"paragraph": text}
            body["output"] = {
                "sentence": text,
                "search_terms": words[:2],
                "scores": [float(rng.random()), float(rng.random())],
            }
    return {
        "version": "0",
        "id": eid,
        "detail-type": dtype,
        "source": "app.event.file",
        "account": "123456789012",
        "time": time,
        "region": "eu-west-1",
        "detail": {
            "id": eid,
            "type": dtype,
            "timestamp": ts,
            "partitionKey": f"pk-{i % 16}",
            field: body,
        },
    }


ETL_TABLES = (
    "MICROONE_EVENT",
    "MICROONE_PRED",
    "MICROTWO_EVENT",
    "MICROTWO_PRED",
    "MICROTHREE_EVENT",
    "MICROTHREE_PRED",
)


def _dirty(ev: dict, mode: int) -> str:
    """Five ways an event must dead-letter; returns the blob text."""
    if mode == 0:  # unroutable service
        ev["detail"] = {
            "id": ev["id"],
            "type": "EFEvaluationEvent",
            "timestamp": 1,
            "partitionKey": "pk",
            "evaluation": {"service": "imageTagging", "prediction_id": None},
        }
    elif mode == 1:  # envelope validation failure
        del ev["region"]
    elif mode == 2:  # wrong source
        ev["source"] = "app.other.stream"
    elif mode == 3:  # unparseable event time
        ev["time"] = "yesterday"
    else:  # the envelope's bytes replaced by garbage
        return "#corrupt-record#"
    return json.dumps(ev)


def etl_inputs(root: str, seed: int) -> str:
    """``<dir>/blobs/ef-prod-stream-NNNNN`` plus ``expected.json``: the
    per-table / dead-letter counts the generator intended."""
    e = ETL

    def build(d: str) -> None:
        rng = np.random.default_rng([seed, 7])
        bdir = os.path.join(d, "blobs")
        os.makedirs(bdir)
        tables = {t: 0 for t in ETL_TABLES}
        dlq = 0
        for fi in range(e["n_files"]):
            parts = []
            for i in range(e["per_file"]):
                table = int(rng.integers(0, 6))
                ev = _etl_event(rng, fi, i, table)
                if rng.random() < e["dirty_frac"]:
                    mode = int(rng.integers(0, 5))
                    if mode == 4 and parts and parts[-1].startswith("#"):
                        mode = 3  # adjacent garbage would merge into one bad span
                    parts.append(_dirty(ev, mode))
                    dlq += 1
                else:
                    parts.append(json.dumps(ev))
                    tables[ETL_TABLES[table]] += 1
            with open(os.path.join(bdir, f"ef-prod-stream-{fi:05d}"), "w") as f:
                f.write("".join(parts))
        _write_json(
            os.path.join(d, "expected.json"),
            {"tables": tables, "dead_lettered": dlq},
        )

    return _cached(cache_dir(root, "etl", seed), build)


def etl_blobs(d: str) -> list[str]:
    bdir = os.path.join(d, "blobs")
    return [os.path.join(bdir, f) for f in sorted(os.listdir(bdir))]


def etl_reference(specs, paths: list[str], require_source: str) -> dict:
    """Single-process pass over the same contract as the ETL job:
    split, source filter, classify, validate, event-time parse."""
    from glue_etl_pipeline_ray.pipelines.eventfile_etl import classify
    from glue_etl_pipeline_ray.sources.eventfiles import split_concat_json

    by_key = {(s.service, s.kind): s for s in specs}
    tables = {s.name: 0 for s in specs}
    dlq = 0
    for p in paths:
        with open(p, encoding="utf-8") as f:
            events, bad = split_concat_json(f.read())
        dlq += len(bad)
        for ev in events:
            detail = ev.get("detail")
            spec = None
            if ev.get("source") == require_source and isinstance(detail, dict):
                spec = by_key.get(classify(detail))
            if spec is None or not spec.validator.validate(ev)[0]:
                dlq += 1
                continue
            try:
                datetime.strptime(ev["time"], "%Y-%m-%dT%H:%M:%SZ")
            except ValueError:
                dlq += 1
                continue
            tables[spec.name] += 1
    return {"tables": tables, "dead_lettered": dlq}
