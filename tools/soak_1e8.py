#!/usr/bin/env python3
"""10^8-event delta-retention soak (BASELINE.md evidence toward 10^10).

Each phase runs in its own process so Ray sessions are fresh and RSS
numbers are attributable:

  gen                         generate the 1e8-event / 32-batch stream
                              (cached under --cache-dir by _GEN_DONE)
  replay [--state-mode=...]   replay the full stream, per-batch wall +
                              cumulative ev/s + driver peak RSS + lake
                              file count/bytes; prints ONE JSON line
  oracle [--n-batches=K]      single-threaded reference replay over the
                              first K batches (default all 32); prints
                              the oracle sha256 JSON line

Checkpoint-equality protocol: replay prints the engine sha at BOTH a
mid-stream checkpoint (after --checkpoint-batches batches, via a capped
replay + resume) and the tip; `oracle --n-batches=K` provides the
matching ground truths. Cross-mode evidence: run replay twice
(state_mode delta + rewrite) — shas must agree at both points.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_EVENTS = 100_000_000  # overridable via --n-events (smoke tests)
N_BATCHES = 32


PARALLEL_GEN = False


def events_dir(cache_dir: str) -> str:
    suffix = "_par" if PARALLEL_GEN else ""
    return os.path.join(cache_dir, f"soak_{N_EVENTS}_b{N_BATCHES}{suffix}")


def phase_gen(cache_dir: str, parallel: bool = False) -> int:
    # parallel streams cache under a "_par" suffix (events_dir): same
    # seed, different (equally valid) stream than the serial generator
    # — recorded sha256s are per-stream
    ev = events_dir(cache_dir)
    done = os.path.join(ev, "_GEN_DONE")
    if os.path.exists(done):
        print(json.dumps({"phase": "gen", "cached": True, "dir": ev}))
        return 0
    shutil.rmtree(ev, ignore_errors=True)
    os.makedirs(ev, exist_ok=True)
    t0 = time.perf_counter()
    kw = dict(
        n_events=N_EVENTS,
        n_repos=max(50, N_EVENTS // 2_000),
        n_paths=200,
        n_batches=N_BATCHES,
        dirty_frac=0.02,
        delete_frac=0.08,
        evolve_from_batch=N_BATCHES - 1,
        seed=42,
    )
    if parallel:
        import ray

        from glue_etl_pipeline_ray.gen import (
            generate_change_events_parallel,
        )

        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
        generate_change_events_parallel(ev, **kw)
        ray.shutdown()
    else:
        from glue_etl_pipeline_ray.gen import generate_change_events

        generate_change_events(ev, **kw)
    with open(done, "w") as f:
        f.write("ok")
    nbytes = sum(
        os.path.getsize(p)
        for p in glob.glob(os.path.join(ev, "events", "*.parquet"))
    )
    print(
        json.dumps(
            {
                "phase": "gen",
                "sec": round(time.perf_counter() - t0, 1),
                "bytes": nbytes,
                "peak_rss_gb": round(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2
                ),
            }
        )
    )
    return 0


def phase_replay(args) -> int:
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
    from glue_etl_pipeline_ray.stages.exchange import warm_cluster

    warm_cluster(args.num_cpus)
    ev = os.path.join(events_dir(args.cache_dir), "events")
    lake = args.lake or os.path.join(
        args.cache_dir, f"soak_lake_{args.state_mode}"
    )
    if not args.resume:
        shutil.rmtree(lake, ignore_errors=True)

    kw = dict(
        state_mode=args.state_mode,
        fold_threshold=4,
    )
    if args.keep_all:
        kw["gc_old_versions"] = False
    elif args.state_mode == "delta" and args.retain_batches:
        kw["retain_batches"] = args.retain_batches
    eng = ReplayEngine(repo_file_spec(num_buckets=args.num_buckets), lake, **kw)

    # chunked replay: 8-batch chunks keep the engine's cross-batch
    # pipelining window live while exposing interval timings (sustained
    # vs front-loaded throughput) and a mid-stream sha checkpoint
    if args.fail_before is not None:
        # crash-at-scale probe: inject the crash, report watermark, stop
        try:
            eng.replay(ev, fail_before_commit_of=args.fail_before)
            print(json.dumps({"phase": "replay", "error": "no crash?"}))
            return 1
        except RuntimeError as e:
            print(
                json.dumps(
                    {
                        "phase": "replay-crash",
                        "injected": str(e),
                        "watermark": eng.ckpt.watermark,
                        "state_mode": args.state_mode,
                    }
                )
            )
            return 0
    chunk = args.batches_per_chunk
    per_chunk = []
    t_all = time.perf_counter()
    ck_sha = None
    # anchor at the ABSOLUTE watermark: a --resume run otherwise counts
    # from 0, fires the checkpoint sha at the wrong absolute batch, and
    # inflates events_per_sec with work a previous process did
    start_done = eng.ckpt.watermark + 1
    done = start_done
    while done < N_BATCHES:
        take = min(chunk, args.checkpoint_batches - done) if (
            done < args.checkpoint_batches
        ) else min(chunk, N_BATCHES - done)
        t0 = time.perf_counter()
        eng.replay(ev, max_batches=take)
        per_chunk.append(round(time.perf_counter() - t0, 2))
        done += take
        if done == args.checkpoint_batches:
            ck_sha = eng.final_sha256()
    wall = time.perf_counter() - t_all
    tip_sha = eng.final_sha256()
    files = glob.glob(os.path.join(lake, "**", "*.parquet"), recursive=True)
    nbytes = sum(os.path.getsize(p) for p in files)
    applied_events = (done - start_done) * (N_EVENTS // N_BATCHES)
    out = {
        "phase": "replay",
        "state_mode": args.state_mode,
        "retain_batches": None if args.keep_all else args.retain_batches,
        "keep_all": args.keep_all,
        "num_cpus": args.num_cpus,
        "n_events": N_EVENTS,
        "n_events_applied": applied_events,
        **({"resumed_from_batch": start_done} if start_done else {}),
        "wall_sec": round(wall, 1),
        "events_per_sec": round(applied_events / max(wall, 1e-9)),
        "per_chunk_sec": per_chunk,
        "batches_per_chunk": args.batches_per_chunk,
        "checkpoint_batches": args.checkpoint_batches,
        "checkpoint_sha256": ck_sha,
        "tip_sha256": tip_sha,
        "lake_files": len(files),
        "lake_bytes": nbytes,
        "driver_peak_rss_gb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2
        ),
    }
    print(json.dumps(out))
    if not args.keep_lake:
        shutil.rmtree(lake, ignore_errors=True)
    ray.shutdown()
    return 0


def phase_oracle(args) -> int:
    from glue_etl_pipeline_ray.oracle import replay_oracle
    from glue_etl_pipeline_ray.spec import repo_file_spec

    src = os.path.join(events_dir(args.cache_dir), "events")
    ev = src
    if args.n_batches and args.n_batches < N_BATCHES:
        # prefix view: symlink the first K batch files into a tmp dir
        ev = os.path.join(
            args.cache_dir, f"soak_oracle_prefix_{args.n_batches}"
        )
        shutil.rmtree(ev, ignore_errors=True)
        os.makedirs(ev)
        for p in sorted(glob.glob(os.path.join(src, "batch=*.parquet")))[
            : args.n_batches
        ]:
            os.symlink(p, os.path.join(ev, os.path.basename(p)))
    t0 = time.perf_counter()
    o = replay_oracle(repo_file_spec(), ev)
    print(
        json.dumps(
            {
                "phase": "oracle",
                "n_batches": args.n_batches or N_BATCHES,
                "sec": round(time.perf_counter() - t0, 1),
                "sha256": o["sha256"],
                "n_live": o["n_live"],
                "n_dead_lettered": o["n_dead_lettered"],
                "peak_rss_gb": round(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2
                ),
            }
        )
    )
    return 0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=["gen", "replay", "oracle"])
    p.add_argument("--cache-dir", default="/tmp/gepr_soak")
    p.add_argument("--num-cpus", type=int, default=32)
    p.add_argument("--num-buckets", type=int, default=256)
    p.add_argument("--state-mode", default="delta")
    p.add_argument("--retain-batches", type=int, default=4)
    p.add_argument("--checkpoint-batches", type=int, default=16)
    p.add_argument("--batches-per-chunk", type=int, default=8)
    p.add_argument("--n-batches", type=int, default=None)
    p.add_argument("--n-events", type=int, default=None)
    p.add_argument("--lake", default=None)
    p.add_argument("--keep-lake", action="store_true")
    p.add_argument("--keep-all", action="store_true")
    p.add_argument("--fail-before", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--parallel-gen", action="store_true")
    args = p.parse_args()
    global N_EVENTS, PARALLEL_GEN
    if args.n_events:
        N_EVENTS = args.n_events
    PARALLEL_GEN = args.parallel_gen
    os.makedirs(args.cache_dir, exist_ok=True)
    if args.phase == "gen":
        return phase_gen(args.cache_dir, parallel=args.parallel_gen)
    if args.phase == "replay":
        return phase_replay(args)
    return phase_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
