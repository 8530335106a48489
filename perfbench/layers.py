"""Per-layer measurements for the traced run (``--trace 1``).

Two sources, both outside the engine:

- Ray's own task timeline (``ray.timeline()``): execution spans keyed by
  task function (``_map_chunk``, ``_merge_group``, ``_delta_group``,
  ``fold_one``, ``diff_bucket``, ``probe``, ``_etl_chunk`` and Ray Data's
  read tasks) and the driver's ``submit_task`` spans.
- In-process timing of each layer's public functions over the same chunk
  plan the engine uses (``read_file_metas`` + ``plan_chunks``):
  ``ValidateFn``, ``make_evolve_fn``, ``key_hash_u64`` +
  ``guarded_last_per_key``, ``merge_bucket_table``,
  ``write_lineage`` and ``CheckpointManager.commit_batch`` — run against
  a scratch lake, never the measured one.

Every metric is per operation of the workload (one replay, one commit,
one lookup, scan or change-feed read, one ETL run) unless its name
says otherwise; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# name -> unit; BENCHMARK.json lists the same names as per_layer metrics
LAYER_UNITS = {
    "exchange.map_busy_s": "s",
    "exchange.map_tasks": "count",
    "exchange.plan_ms": "ms",
    "exchange.objects": "count",
    "exchange.task_wait_ms": "ms",
    "validate.busy_s": "s",
    "validate.rows_per_s": "rows/s",
    "validate.dlq_rows": "count",
    "evolve.busy_s": "s",
    "partial.busy_s": "s",
    "partial.combine_ratio": "ratio",
    "replay.driver_ms": "ms",
    "merge.busy_s": "s",
    "merge.buckets_touched": "count",
    "merge.state_rows_read": "count",
    "merge.write_amp": "ratio",
    "merge.bytes_written": "bytes",
    "checkpoint.commit_ms": "ms",
    "checkpoint.manifest_bytes": "bytes",
    "lineage.write_ms": "ms",
    "lookup.buckets_read": "count",
    "lookup.task_ms": "ms",
    "lookup.fixed_ms": "ms",
    "scan.files_read": "count",
    "scan.busy_s": "s",
    "changefeed.diff_busy_s": "s",
    "sources.split_busy_s": "s",
    "sources.bad_json": "count",
    "etl.chunk_busy_s": "s",
    "etl.dlq_rows": "count",
    "etl.files_written": "count",
    "core.busy_frac": "ratio",
}

# which end-to-end metric each per-layer metric should move, and where
LAYER_MOVES = [
    {
        "layers": [
            "exchange.map_busy_s", "exchange.map_tasks", "validate.busy_s",
            "validate.rows_per_s", "validate.dlq_rows", "evolve.busy_s",
            "partial.busy_s", "partial.combine_ratio",
        ],
        "moves": ["rows_per_s", "op_p50_ms"],
        "on": "ingest_bulk (little effect on ingest_steady)",
    },
    {
        "layers": [
            "exchange.plan_ms", "exchange.objects", "exchange.task_wait_ms",
            "replay.driver_ms", "merge.busy_s", "merge.buckets_touched",
            "merge.state_rows_read", "merge.write_amp", "merge.bytes_written",
            "checkpoint.commit_ms", "checkpoint.manifest_bytes", "lineage.write_ms",
        ],
        "moves": ["op_p50_ms", "op_p90_ms", "rows_per_s"],
        "on": "ingest_steady (little effect on ingest_bulk)",
    },
    {
        "layers": ["lookup.buckets_read", "lookup.task_ms", "lookup.fixed_ms"],
        "moves": ["op_p50_ms", "op_p90_ms"],
        "on": "lake_reads",
    },
    {
        "layers": ["scan.files_read", "scan.busy_s", "changefeed.diff_busy_s"],
        "moves": ["rows_per_s"],
        "on": "lake_reads",
    },
    {
        "layers": [
            "sources.split_busy_s", "sources.bad_json", "etl.chunk_busy_s",
            "etl.dlq_rows", "etl.files_written",
        ],
        "moves": ["rows_per_s", "op_p50_ms"],
        "on": "eventfile_etl",
    },
    {
        "layers": ["core.busy_frac"],
        "moves": ["rows_per_s", "op_p50_ms", "op_p90_ms"],
        "on": "all workloads",
    },
]

MERGE_TASKS = ("_merge_group", "_delta_group", "fold_one")


class Timeline:
    """Task spans from ``ray.timeline()``: ``tasks`` = [(name, start_s,
    dur_s)] in wall-clock seconds, ``submits`` = the driver's
    submit_task spans [(start_s, dur_s)]."""

    def __init__(self, ray):
        events = ray.timeline()
        self.raw = events
        self.tasks = sorted(
            (e["cat"][len("task::"):], e["ts"] / 1e6, e["dur"] / 1e6)
            for e in events
            if e["cat"].startswith("task::")
        )
        self.tasks.sort(key=lambda t: t[1])
        self.submits = sorted(
            (e["ts"] / 1e6, e["dur"] / 1e6)
            for e in events
            if e["cat"] == "submit_task" and str(e["tid"]).startswith("driver")
        )

    def within(self, lo: float, hi: float, names=None) -> list[tuple]:
        return [
            t
            for t in self.tasks
            if lo <= t[1] <= hi and (names is None or t[0] in names)
        ]

    def busy(self, spans, names=None) -> float:
        """Σ execution seconds of tasks started inside any of ``spans``."""
        return sum(
            d for lo, hi in spans for _, _, d in self.within(lo, hi, names)
        )

    def count(self, spans, names) -> int:
        return sum(len(self.within(lo, hi, names)) for lo, hi in spans)

    def durations(self, spans, names) -> list[float]:
        return [d for lo, hi in spans for _, _, d in self.within(lo, hi, names)]

    def driver_gaps_ms(self, spans) -> list[float]:
        """Per span: wall time minus the union of task execution inside it
        (what the driver and scheduling cost on top of the tasks)."""
        out = []
        for lo, hi in spans:
            covered, end = 0.0, lo
            for _, s, d in self.within(lo, hi):
                s, e = max(s, end), min(s + d, hi)
                if e > s:
                    covered += e - s
                    end = e
            out.append((hi - lo - covered) * 1e3)
        return out

    def submit_waits_ms(self, spans) -> list[float]:
        """Submit -> start per task, pairing the driver's submit_task
        spans with task starts in FIFO order inside each span (the
        timeline carries no task id on submit events). Spans whose
        submit and task counts differ are skipped."""
        out = []
        for lo, hi in spans:
            subs = [s for s in self.submits if lo <= s[0] <= hi]
            tasks = self.within(lo, hi)
            if not subs or len(subs) != len(tasks):
                continue
            for (s0, sd), (_, t0, _) in zip(subs, tasks):
                out.append(max(0.0, t0 - (s0 + sd)) * 1e3)
        return out


def median(xs, default=0.0) -> float:
    return float(statistics.median(xs)) if xs else default


def replay_layers(spec, batches: list[tuple[int, list[str]]], lake: str) -> dict:
    """Push ``batches`` through the replay layers in this process, in the
    engine's order and over the engine's chunk plan, against the scratch
    ``lake`` (its manifest is the prior state). Returns totals."""
    from glue_etl_pipeline_ray.hashing import guarded_last_per_key, key_hash_u64
    from glue_etl_pipeline_ray.stages.evolve import discover_evolved, make_evolve_fn
    from glue_etl_pipeline_ray.stages.exchange import (
        DEFAULT_SPLIT_ROWS,
        default_num_exchange,
        plan_chunks,
        read_file_metas,
    )
    from glue_etl_pipeline_ray.stages.merge import merge_bucket_table, part_name
    from glue_etl_pipeline_ray.stages.partial import BUCKET_COL
    from glue_etl_pipeline_ray.stages.validate import ValidateFn
    from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager
    from glue_etl_pipeline_ray.state.lineage import write_lineage

    acc = dict.fromkeys(
        (
            "plan_s", "objects", "rows_in", "validate_s", "dlq_rows",
            "evolve_s", "partial_s", "partial_in", "partial_out",
            "buckets", "state_rows_read", "state_rows_written",
            "bytes_written", "commit_s", "lineage_s", "manifest_bytes",
        ),
        0,
    )
    ckpt = CheckpointManager(lake)
    versions = ckpt.bucket_versions
    evolved = ckpt.evolved
    ne = max(1, min(default_num_exchange(spec), spec.num_buckets))
    kc = list(spec.key_cols)
    for bid, files in batches:
        t0 = time.perf_counter()
        metas = read_file_metas(files)
        n_rows = sum(md.num_rows for _, md in metas)
        chunks = plan_chunks(
            files, target_chunks=max(1, -(-n_rows // DEFAULT_SPLIT_ROWS)), metas=metas
        )
        acc["plan_s"] += time.perf_counter() - t0
        for _, md in metas:
            evolved = discover_evolved(spec, md.schema.to_arrow_schema(), evolved)
        acc["objects"] += len(chunks) * ne
        acc["rows_in"] += n_rows
        dlq_dir = os.path.join(lake, "_dlq", f"batch={bid:05d}")
        survivors = []
        for ch in chunks:
            parts = [pq.ParquetFile(f).read_row_groups(rgs) for f, rgs in ch]
            t = pa.concat_tables(parts, promote_options="permissive")
            t0 = time.perf_counter()
            v = ValidateFn(spec, dlq_dir)(t)
            t1 = time.perf_counter()
            e = make_evolve_fn(spec, evolved)(v)
            t2 = time.perf_counter()
            kh = key_hash_u64(*(e[k] for k in kc))
            seq = e[spec.seq_col].to_numpy(zero_copy_only=False)
            bucket = (kh % np.uint64(spec.num_buckets)).astype(np.int64)
            chosen = guarded_last_per_key(e, kc, kh, np.lexsort((seq, kh, bucket)))
            p = e.take(chosen).append_column(
                BUCKET_COL, pa.array(bucket[chosen], pa.int64())
            )
            t3 = time.perf_counter()
            acc["validate_s"] += t1 - t0
            acc["evolve_s"] += t2 - t1
            acc["partial_s"] += t3 - t2
            acc["dlq_rows"] += t.num_rows - v.num_rows
            acc["partial_in"] += e.num_rows
            acc["partial_out"] += p.num_rows
            survivors.append(p)
        allp = pa.concat_tables(survivors)
        b = allp[BUCKET_COL].to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="stable")
        allp, bs = allp.take(order), b[order]
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        ends = np.r_[starts[1:], len(bs)]
        records = []
        for s, e in zip(starts, ends):
            bucket = int(bs[s])
            prior = versions.get(bucket)
            if prior is not None:
                acc["state_rows_read"] += pq.ParquetFile(
                    os.path.join(lake, part_name(bucket, prior))
                ).metadata.num_rows
            rec = merge_bucket_table(
                spec, evolved, lake, prior, bid, bucket, allp.slice(int(s), int(e - s))
            )
            acc["state_rows_written"] += rec["n_live"] + rec["n_tombstones"]
            acc["bytes_written"] += os.path.getsize(
                os.path.join(lake, part_name(bucket, bid))
            )
            records.append(rec)
            versions[bucket] = bid
        acc["buckets"] += len(records)
        summary = {
            "batch_id": bid,
            "n_events": n_rows,
            "n_dead_lettered": 0,
            "buckets_touched": len(records),
            "evolved": [list(x) for x in evolved],
        }
        t0 = time.perf_counter()
        write_lineage(lake, bid, records, summary)
        t1 = time.perf_counter()
        ckpt.commit_batch(bid, evolved, summary, {r["bucket"]: bid for r in records})
        t2 = time.perf_counter()
        acc["lineage_s"] += t1 - t0
        acc["commit_s"] += t2 - t1
        acc["manifest_bytes"] = os.path.getsize(ckpt.path)
    return acc


def replay_metrics(acc: dict, per: float) -> dict:
    """Per-operation layer metrics from :func:`replay_layers` totals;
    ``per`` = operations the totals cover."""
    return {
        "exchange.plan_ms": acc["plan_s"] * 1e3 / per,
        "exchange.objects": acc["objects"] / per,
        "validate.busy_s": acc["validate_s"] / per,
        "validate.rows_per_s": acc["rows_in"] / acc["validate_s"] if acc["validate_s"] else 0.0,
        "validate.dlq_rows": acc["dlq_rows"] / per,
        "evolve.busy_s": acc["evolve_s"] / per,
        "partial.busy_s": acc["partial_s"] / per,
        "partial.combine_ratio": acc["partial_out"] / acc["partial_in"] if acc["partial_in"] else 0.0,
        "merge.buckets_touched": acc["buckets"] / per,
        "merge.state_rows_read": acc["state_rows_read"] / per,
        "merge.write_amp": acc["state_rows_written"] / acc["rows_in"] if acc["rows_in"] else 0.0,
        "merge.bytes_written": acc["bytes_written"] / per,
        "checkpoint.commit_ms": acc["commit_s"] * 1e3 / per,
        "checkpoint.manifest_bytes": acc["manifest_bytes"],
        "lineage.write_ms": acc["lineage_s"] * 1e3 / per,
    }


def replay_timeline_metrics(tl: Timeline, spans: list[tuple[float, float]]) -> dict:
    n = max(1, len(spans))
    return {
        "exchange.map_busy_s": tl.busy(spans, ("_map_chunk",)) / n,
        "exchange.map_tasks": tl.count(spans, ("_map_chunk",)) / n,
        "exchange.task_wait_ms": median(tl.submit_waits_ms(spans)),
        "replay.driver_ms": median(tl.driver_gaps_ms(spans)),
        "merge.busy_s": tl.busy(spans, MERGE_TASKS) / n,
    }


def split_layer(paths: list[str]) -> tuple[float, int]:
    """``split_concat_json`` over every blob: (busy seconds, bad spans)."""
    from glue_etl_pipeline_ray.sources.eventfiles import split_concat_json

    busy, bad = 0.0, 0
    for p in paths:
        with open(p, encoding="utf-8") as f:
            blob = f.read()
        t0 = time.perf_counter()
        _, spans = split_concat_json(blob)
        busy += time.perf_counter() - t0
        bad += len(spans)
    return busy, bad


def finish(layers: dict, tl: Timeline, window: tuple[float, float]) -> dict:
    """Fill the metrics every workload shares; zero the rest."""
    lo, hi = window
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    out.update(layers)
    out["core.busy_frac"] = tl.busy([window]) / (hi - lo) if hi > lo else 0.0
    return out
