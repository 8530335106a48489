#!/usr/bin/env python3
"""Profile the delta-mode replay's driver-side phase costs.

Child mode (one fresh Ray session per invocation, like bench.py
--headline-only): replay the cached 4M/16-batch scaling input in
state_mode="delta" with wall-time accounting of the three driver-blocking
phases — merge-wave drain (ray.get on the batch's _delta_group refs),
mid-run background folds (_submit_folds and _apply_fold_results:
submitting the grouped fold tasks, waiting for them and committing
them), and _finish_batch commit work — so the
scaling loss between 4 and 16 cpus can be attributed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--num-cpus", type=int, required=True)
    p.add_argument(
        "--events-dir", default="/tmp/gepr_bench_cache/events_4000000_b16/events"
    )
    p.add_argument("--n-events", type=int, default=4_000_000)
    p.add_argument("--fold-threshold", type=int, default=8)
    p.add_argument("--state-mode", default="delta")
    args = p.parse_args()

    import ray

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from glue_etl_pipeline_ray.stages.exchange import warm_cluster

    warm_cluster(args.num_cpus)

    from glue_etl_pipeline_ray.pipelines import replay as rp
    from glue_etl_pipeline_ray.spec import repo_file_spec

    timings = {"fold_sec": 0.0, "fold_calls": 0, "drain_wait_sec": 0.0,
               "finish_sec": 0.0, "submit_sec": 0.0}

    real_submit_folds = rp.ReplayEngine._submit_folds
    real_apply_folds = rp.ReplayEngine._apply_fold_results

    def timed_submit_folds(self, *a, **kw):
        t0 = time.perf_counter()
        out = real_submit_folds(self, *a, **kw)
        timings["fold_sec"] += time.perf_counter() - t0
        timings["fold_calls"] += 1
        return out

    def timed_apply_folds(self, *a, **kw):
        t0 = time.perf_counter()
        out = real_apply_folds(self, *a, **kw)
        timings["fold_sec"] += time.perf_counter() - t0
        return out

    real_finish = rp.ReplayEngine._finish_batch

    def timed_finish(self, *a, **kw):
        t0 = time.perf_counter()
        out = real_finish(self, *a, **kw)
        timings["finish_sec"] += time.perf_counter() - t0
        return out

    real_get = rp.ray.get

    def timed_get(refs, **kw):
        t0 = time.perf_counter()
        out = real_get(refs, **kw)
        timings["drain_wait_sec"] += time.perf_counter() - t0
        return out

    real_submit = rp.submit_batch

    def timed_submit(*a, **kw):
        t0 = time.perf_counter()
        out = real_submit(*a, **kw)
        timings["submit_sec"] += time.perf_counter() - t0
        return out

    rp.ReplayEngine._submit_folds = timed_submit_folds
    rp.ReplayEngine._apply_fold_results = timed_apply_folds
    rp.ReplayEngine._finish_batch = timed_finish
    rp.ray.get = timed_get
    rp.submit_batch = timed_submit

    # warm mini-replay (untimed) as bench.py does; make_events
    # generates-or-reuses the cached warm input (a hardcoded cache path
    # crashed on any box where bench.py hadn't populated it)
    from bench import make_events

    warm_ev = make_events(50_000, "/tmp/gepr_bench_cache")
    warm_lake = tempfile.mkdtemp(prefix="gepr_prof_warm_")
    rp.ReplayEngine(
        repo_file_spec(num_buckets=64), warm_lake,
        state_mode=args.state_mode,
    ).replay(warm_ev)
    shutil.rmtree(warm_lake, ignore_errors=True)
    for k in timings:
        timings[k] = 0.0 if isinstance(timings[k], float) else 0

    lake = tempfile.mkdtemp(prefix="gepr_prof_lake_")
    try:
        eng = rp.ReplayEngine(
            repo_file_spec(num_buckets=64),
            lake,
            state_mode=args.state_mode,
            fold_threshold=args.fold_threshold,
        )
        t0 = time.perf_counter()
        eng.replay(args.events_dir)
        wall = time.perf_counter() - t0
        print(
            json.dumps(
                {
                    "num_cpus": args.num_cpus,
                    "state_mode": args.state_mode,
                    "fold_threshold": args.fold_threshold,
                    "wall_sec": round(wall, 3),
                    "events_per_sec": round(args.n_events / wall, 1),
                    **{k: (round(v, 3) if isinstance(v, float) else v)
                       for k, v in timings.items()},
                }
            )
        )
    finally:
        shutil.rmtree(lake, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
