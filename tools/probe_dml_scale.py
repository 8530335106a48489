#!/usr/bin/env python3
"""DML probes over a soak-built lake: wall-time of delete_where /
update_where / merge_into / restore at multi-10^7-event scale.

What "scale-safe" must look like here: each DML pays one per-bucket
live-state scan (the predicate wave) plus event synthesis + one normal
replay commit proportional to MATCHED rows — never to table size on the
write side, and never any data-scale driver materialization (driver
traffic is one tiny meta dict per bucket).

Usage:
  python tools/soak_1e8.py gen    --n-events=40000000 --cache-dir=D --parallel-gen
  python tools/soak_1e8.py replay --n-events=40000000 --cache-dir=D --parallel-gen --keep-lake
  python tools/probe_dml_scale.py --lake D/soak_lake_delta [--tip-sha SHA]

Prints one JSON line per probe plus a summary line for BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--lake", default="/tmp/gepr_dmlprobe/soak_lake_delta")
    p.add_argument("--tip-sha", default=None)
    p.add_argument("--num-buckets", type=int, default=256)
    p.add_argument("--num-cpus", type=int, default=32)
    p.add_argument("--retain-batches", type=int, default=4)
    args = p.parse_args()

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
    from glue_etl_pipeline_ray.spec import repo_file_spec

    eng = ReplayEngine(
        repo_file_spec(num_buckets=args.num_buckets),
        args.lake,
        state_mode="delta",
        fold_threshold=4,
        retain_batches=args.retain_batches,
    )

    if args.tip_sha:
        sha = eng.final_sha256()
        print(json.dumps({"probe": "tip-verify", "match": sha == args.tip_sha}))
        assert sha == args.tip_sha, "lake does not match the recorded soak tip"

    n_live0 = eng.final_dataset(columns=["repo"]).count()
    out = {"n_live_before": n_live0}

    # 1) delete_where: every live row under src/dir3/ (~10% of paths),
    # with the scan pruned to keys + the predicate column (a DELETE
    # never reads the payload)
    t0 = time.perf_counter()
    s = eng.delete_where(
        lambda t: pc.starts_with(t["path"], "src/dir3/"), columns=["path"]
    )
    out["delete_where"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "n_matched": s["n_matched"],
        "buckets_touched": s.get("buckets_touched"),
    }
    print(json.dumps({"probe": "delete_where", **out["delete_where"]}))

    # 2) update_where: rewrite content under src/dir7/
    t0 = time.perf_counter()
    s = eng.update_where(
        lambda t: pc.starts_with(t["path"], "src/dir7/"),
        lambda rows: {
            "content": pc.binary_join_element_wise(
                pa.array(["# patched\n"] * rows.num_rows),
                pc.cast(pc.fill_null(rows["content"], ""), pa.string()),
                "",
            )
        },
    )
    out["update_where"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "n_matched": s["n_matched"],
        "buckets_touched": s.get("buckets_touched"),
    }
    print(json.dumps({"probe": "update_where", **out["update_where"]}))

    # 3) merge_into: 200k fresh keys, pure upsert (vectorized source)
    n_new = 200_000
    idx = np.arange(n_new)
    src = pa.table(
        {
            "repo": pa.array([f"probe/repo{i % 512}" for i in idx]),
            "path": pa.array([f"gen/f{i}.py" for i in idx]),
            "commit": pa.array(["ab" * 20] * n_new),
            "lang": pa.array(["py"] * n_new),
            "content": pa.array([f"x = {i}" for i in idx]),
        }
    )
    t0 = time.perf_counter()
    s = eng.merge_into(src)
    out["merge_into"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "n_matched": s["n_matched"],
        "buckets_touched": s.get("buckets_touched"),
    }
    print(json.dumps({"probe": "merge_into", **out["merge_into"]}))

    # 4) restore: roll back to the snapshot just before the merge (the
    # retention window still holds it); the merged 200k rows must vanish
    wm = eng.ckpt.watermark
    t0 = time.perf_counter()
    s = eng.restore(wm - 1)
    out["restore"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "n_matched": s["n_matched"],
        "restored_to": wm - 1,
    }
    print(json.dumps({"probe": "restore", **out["restore"]}))
    assert s["n_deletes"] >= n_new  # at least the merged keys revert

    n_live1 = eng.final_dataset(columns=["repo"]).count()
    fsck = eng.fsck()
    out["n_live_after"] = n_live1
    out["fsck_ok"] = bool(fsck["ok"])
    print(json.dumps({"summary": out}))
    ray.shutdown()
    # a lake failing fsck after the DML sequence must fail the probe
    return 0 if out["fsck_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
