"""Per-batch, per-bucket lineage manifests.

Structured successor of the reference's per-event PROFILER audit stream
shipped to ElasticSearch (``data_profiling.py:180-189``,
``process_logs.py:140-233``): one JSONL file per committed batch under
``<lake>/_lineage/``, one record per touched bucket (events in, upserts,
deletes, live rows, tombstones, live-state sha256) plus a batch summary
line. Written tmp + atomic rename, so lineage is idempotent too.
"""

from __future__ import annotations

import json
import os

from glue_etl_pipeline_ray.stages.merge import write_text_atomic


def write_lineage(lake_dir: str, batch_id: int, records: list[dict], summary: dict) -> str:
    d = os.path.join(lake_dir, "_lineage")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"batch={batch_id:05d}.jsonl")
    lines = [{"kind": "batch_summary", **summary}] + [
        {"kind": "bucket", **r} for r in sorted(records, key=lambda r: r["bucket"])
    ]
    write_text_atomic(path, "".join(json.dumps(r) + "\n" for r in lines))
    return path


def read_lineage(lake_dir: str) -> list[dict]:
    d = os.path.join(lake_dir, "_lineage")
    out = []
    if not os.path.isdir(d):
        return out
    for name in sorted(os.listdir(d)):
        if name.endswith(".jsonl"):
            with open(os.path.join(d, name)) as f:
                out.extend(json.loads(line) for line in f if line.strip())
    return out
