"""Reference five-job ETL parity: Firehose-style blobs -> classified,
fixed-up, projected, hive-partitioned Parquet tables + DLQ."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from glue_etl_pipeline_ray.pipelines.eventfile_etl import (
    EventTableSpec,
    run_eventfile_etl,
)


PRED_SCHEMA = pa.schema(
    [
        ("event_id", pa.string()),
        ("date_time", pa.string()),
        ("prediction_id", pa.string()),
        ("max_score", pa.float64()),
    ]
)
EVENT_SCHEMA = pa.schema(
    [
        ("event_id", pa.string()),
        ("date_time", pa.string()),
        ("action", pa.string()),
        ("n_tags", pa.int64()),
    ]
)


def _specs():
    # local defs: cloudpickle ships them by value into workers
    def _score_fixup(detail: dict) -> dict:
        """M6 analog: int scores -> float (sentinel -1 stays -1.0)."""
        pred = detail.get("prediction") or {}
        for s in pred.get("sentences_scores") or []:
            if isinstance(s.get("score"), int):
                s["score"] = float(s["score"])
        return detail

    def _tags_fixup(detail: dict) -> dict:
        """M10 analog: tags string | 'null' -> list<string>."""
        ev = detail.get("evaluation") or {}
        tags = ev.get("tags")
        if tags is None or tags == "null":
            ev["tags"] = []
        elif isinstance(tags, str):
            ev["tags"] = [tags]
        return detail

    return [
        EventTableSpec(
            service="microone",
            kind="prediction",
            schema=PRED_SCHEMA,
            fixups=(_score_fixup,),
            project=lambda d: {
                "prediction_id": d["prediction"]["prediction_id"],
                "max_score": max(
                    (s["score"] for s in d["prediction"].get("sentences_scores", [])),
                    default=-1.0,
                ),
            },
        ),
        EventTableSpec(
            service="microthree",
            kind="event",
            schema=EVENT_SCHEMA,
            fixups=(_tags_fixup,),
            project=lambda d: {
                "action": d["evaluation"].get("action"),
                "n_tags": len(d["evaluation"].get("tags", [])),
            },
        ),
    ]


def _blob(events):
    return "".join(json.dumps(e) for e in events)


def test_eventfile_etl_end_to_end(ray_session, tmp_path):
    preds = [
        {
            "id": f"p{i}",
            "time": f"2022-04-27T15:0{i}:00Z",
            "detail": {
                "type": "EFPredictionEvent",
                "prediction": {
                    "service": "microone",
                    "prediction_id": f"pid-{i}",
                    "sentences_scores": [{"score": i}, {"score": -1}],
                },
            },
        }
        for i in range(3)
    ]
    # old-style: service derivable only from the prediction_id suffix (M2)
    preds.append(
        {
            "id": "p3",
            "time": "2022-04-27T16:00:00Z",
            "detail": {
                "type": "EFPredictionEvent",
                "prediction": {
                    "prediction_id": "pid-3#microone",
                    "sentences_scores": [{"score": 7}],
                },
            },
        }
    )
    evs = [
        {
            "id": f"e{i}",
            "time": "2022-04-28T09:30:00Z",
            "detail": {
                "type": "EFEvaluationEvent",
                "evaluation": {
                    "service": "microthree",
                    "action": "ADD_TAG",
                    "tags": t,
                },
            },
        }
        for i, t in enumerate(["solo", ["a", "b"], "null"])
    ]
    unknown = {
        "id": "u0",
        "time": "2022-04-28T10:00:00Z",
        "detail": {"type": "TAG_IMAGE", "evaluation": {"service": "imageTagging"}},
    }
    f1 = tmp_path / "ef-1"
    f1.write_text(_blob(preds) + "###corrupt###")
    f2 = tmp_path / "ef-2"
    f2.write_text(_blob(evs + [unknown]))

    out = tmp_path / "out"
    counts = run_eventfile_etl([str(f1), str(f2)], _specs(), str(out))

    assert counts["tables"]["MICROONE_PREDICTION"] == 4
    assert counts["tables"]["MICROTHREE_EVENT"] == 3
    # corrupt span + unknown-service event both dead-letter (B2/B4 fixed)
    assert counts["dead_lettered"] == 2

    pred = pq.read_table(
        glob.glob(str(out / "MICROONE_PREDICTION" / "**" / "*.parquet"), recursive=True)
    ).sort_by("event_id")
    # M6: int scores became floats; max over [i, -1] is i
    assert pred["max_score"].to_pylist() == [0.0, 1.0, 2.0, 7.0]
    # hive layout carries the derived partitions
    assert glob.glob(str(out / "MICROONE_PREDICTION" / "year=2022" / "month=4" / "day=27" / "hour=15" / "*"))

    evt = pq.read_table(
        glob.glob(str(out / "MICROTHREE_EVENT" / "**" / "*.parquet"), recursive=True)
    ).sort_by("event_id")
    # M10: "solo" -> 1 tag, list stays 2, "null" -> 0
    assert evt["n_tags"].to_pylist() == [1, 2, 0]


def test_event_times_strict_and_pandas_paths(ray_session, tmp_path):
    """Strict UTC times parse per event, others go to pandas; a time
    neither accepts dead-letters and flips the event's audit row."""
    times = [
        "2022-04-27T15:01:00Z",  # strict
        "2022-04-27T15:02:00.5Z",  # pandas accepts it
        "yesterday",
        "2022-02-30T00:00:00Z",  # strict shape, no such day
    ]
    preds = [
        {
            "id": f"p{i}",
            "time": t,
            "detail": {
                "type": "EFPredictionEvent",
                "prediction": {"service": "microone", "prediction_id": f"pid-{i}"},
            },
        }
        for i, t in enumerate(times)
    ]
    f = tmp_path / "ef-1"
    f.write_text("#corrupt#" + _blob(preds))
    out = tmp_path / "out"
    counts = run_eventfile_etl([str(f)], _specs(), str(out))

    assert counts["tables"]["MICROONE_PREDICTION"] == 2
    assert counts["dead_lettered"] == 3
    part = out / "MICROONE_PREDICTION" / "year=2022" / "month=4" / "day=27" / "hour=15"
    landed = pq.read_table(str(part)).sort_by("event_id")["event_id"].to_pylist()
    assert landed == ["p0", "p1"]
    dlq = pq.read_table(str(out / "_dlq"))
    assert dlq["__error"].to_pylist() == ["decode", "time", "time"]
    audit = pq.read_table(str(out / "_audit")).to_pylist()
    assert [(r["event_id"], r["passed"], r["error"]) for r in audit] == [
        (None, False, "decode"),
        ("p0", True, None),
        ("p1", True, None),
        ("p2", False, "time"),
        ("p3", False, "time"),
    ]
    assert {r["event_file"] for r in audit} == {"ef-1"}
