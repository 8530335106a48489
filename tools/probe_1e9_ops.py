#!/usr/bin/env python3
"""Operational-surface probes over the 10^9-event soak lake.

Runs the round-5 lake operations at the 10^9 artifact's scale (20.6M
live rows, 256 buckets, 20M-row DLQ, delta mode with bounded
retention) — the 10^9 rung of the r4 10^8-scale probes:

- ``reshard`` 256 -> 512 (blue/green local split), sha-exact vs the
  soak's recorded tip sha + fsck on the new layout;
- ``redrive_dlq`` of the full 20M-row quarantine (no fixer: every row
  re-quarantines under the new batch; state must be untouched);
- ``backfill`` deriving ``content_len`` across every bucket;
- ``export_snapshot`` publishing the live table (full pass).

Usage: python tools/probe_1e9_ops.py [--lake /tmp/gepr_soak9/lake_delta]
       [--tip-sha <sha256 from the soak summary>]
Prints one JSON line per probe plus a summary line for BASELINE.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--lake", default="/tmp/gepr_soak9/lake_delta")
    p.add_argument("--tip-sha", default=None)
    p.add_argument("--num-buckets", type=int, default=256)
    p.add_argument("--num-cpus", type=int, default=32)
    p.add_argument("--reshard-dir", default="/tmp/gepr_soak9/lake_reshard")
    p.add_argument("--export-dir", default="/tmp/gepr_soak9/export")
    args = p.parse_args()

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
    from glue_etl_pipeline_ray.spec import repo_file_spec

    spec = repo_file_spec(num_buckets=args.num_buckets)
    eng_kw = dict(
        state_mode="delta",
        fold_threshold=4,
        retain_batches=4,
    )
    eng = ReplayEngine(spec, args.lake, **eng_kw)
    out: dict = {"phase": "summary"}

    t0 = time.perf_counter()
    fsck = eng.fsck()
    print(
        json.dumps(
            {
                "phase": "fsck",
                "ok": fsck["ok"],
                "sec": round(time.perf_counter() - t0, 1),
            }
        ),
        flush=True,
    )
    assert fsck["ok"]

    # --- reshard 256 -> 512, sha-exact on the new layout ------------
    t0 = time.perf_counter()
    resharded = eng.reshard(args.reshard_dir, factor=2)
    t_reshard = round(time.perf_counter() - t0, 1)
    t0 = time.perf_counter()
    fsck2 = resharded.fsck()
    sha2 = resharded.final_sha256()
    row = {
        "phase": "reshard",
        "factor": 2,
        "new_buckets": args.num_buckets * 2,
        "sec": t_reshard,
        "fsck_ok": fsck2["ok"],
        "sha": sha2,
        "sha_equal_tip": (sha2 == args.tip_sha) if args.tip_sha else None,
        "verify_sec": round(time.perf_counter() - t0, 1),
    }
    print(json.dumps(row), flush=True)
    assert fsck2["ok"]
    if args.tip_sha:
        assert sha2 == args.tip_sha, "reshard changed the table state"
    out["reshard"] = row

    # --- redrive the full 20M-row DLQ (no fixer) --------------------
    t0 = time.perf_counter()
    rd = eng.redrive_dlq()
    new_bid = rd.get("batch_id")
    # an empty/drained DLQ returns batch_id=None — nothing was requeued
    requeued = 0 if new_bid is None else sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(
            os.path.join(args.lake, "_dlq", f"batch={new_bid:05d}", "*.parquet")
        )
    )
    row = {
        "phase": "redrive",
        "sec": round(time.perf_counter() - t0, 1),
        "n_redriven": rd.get("n_redriven"),
        "batch_id": new_bid,
        "n_requeued": requeued,
        "all_requeued": requeued == rd.get("n_redriven"),
    }
    print(json.dumps(row), flush=True)
    out["redrive"] = row

    # --- backfill: derive content_len across every bucket -----------
    def add_content_len(t):
        return t.append_column(
            "content_len",
            pc.fill_null(
                pc.cast(pc.utf8_length(t["content"]), "int64"), 0
            ),
        )

    t0 = time.perf_counter()
    bf = eng.backfill(add_content_len)
    row = {
        "phase": "backfill",
        "sec": round(time.perf_counter() - t0, 1),
        "buckets": bf.get("buckets"),
        "added_cols": bf.get("added_cols"),
    }
    print(json.dumps(row), flush=True)
    out["backfill"] = row

    # --- export the live table (full pass) --------------------------
    t0 = time.perf_counter()
    ex = eng.export_snapshot(args.export_dir)
    t_export = round(time.perf_counter() - t0, 1)
    files = sorted(glob.glob(os.path.join(args.export_dir, "part-*.parquet")))
    n_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    n_bytes = sum(os.path.getsize(f) for f in files)
    row = {
        "phase": "export",
        "sec": t_export,
        "files": len(files),
        "rows": n_rows,
        "bytes": n_bytes,
        "manifest": os.path.exists(
            os.path.join(args.export_dir, "_export_manifest.json")
        ),
        "content_len_in_schema": "content_len"
        in pq.read_schema(files[0]).names,
    }
    print(json.dumps(row), flush=True)
    out["export"] = row

    print(json.dumps(out), flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
