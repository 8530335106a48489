#!/usr/bin/env python3
"""10^9-event segmented soak: the next rung on the 10^10 evidence ladder.

The 10^8 soak (tools/soak_1e8.py) caches its whole stream on disk; at
10^9 the stream alone (~94 GB) exceeds this box's free disk, so this
harness runs the pipeline the way a real binlog tail would: generate a
SEGMENT of batches, replay it (engine), apply it (sharded oracle),
delete it, repeat. Nothing ever holds more than one segment of events
(~12 GB) plus the bounded-retention lake.

Three cooperating consumers of the same deterministic stream:
  - the engine: ``ReplayEngine.replay(max_batches=segment)`` per
    segment (delta mode, bounded retention) — the measured subject;
    each segment is timed in isolation (no generator/oracle load) so
    per-segment ev/s is clean;
  - the sharded oracle (oracle_sharded.ShardedOracle): the reference
    dict replay, key-hash-sharded across actors, fed the same files
    before they are deleted;
  - the generator: ``generate_change_events_parallel(batch_ids=...)``
    — byte-identical to a single full run (gated by
    tests/test_oracle_sharded.py::test_segmented_generation_equals_full).

Protocol: engine sha256 MUST equal the oracle sha at a mid-stream
checkpoint (after --checkpoint-batches) and at the tip; dead-letter
counts must agree at the tip. Prints per-phase JSON lines and one
final summary line for BASELINE.md.

Smoke: ``python tools/soak_1e9.py --smoke`` (2x10^7 events, 8 batches).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def rss_gb() -> float:
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2
    )


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--n-events", type=int, default=1_000_000_000)
    p.add_argument("--n-batches", type=int, default=64)
    p.add_argument("--segment-batches", type=int, default=8)
    p.add_argument("--checkpoint-batches", type=int, default=32)
    p.add_argument("--num-cpus", type=int, default=32)
    p.add_argument("--num-buckets", type=int, default=256)
    p.add_argument("--state-mode", default="delta")
    p.add_argument("--retain-batches", type=int, default=4)
    p.add_argument("--oracle-shards", type=int, default=24)
    p.add_argument("--n-repos", type=int, default=None)
    p.add_argument("--cache-dir", default="/tmp/gepr_soak9")
    p.add_argument("--keep-lake", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        args.n_events = 20_000_000
        args.n_batches = 8
        args.segment_batches = 2
        args.checkpoint_batches = 4

    n_repos = args.n_repos or max(50, args.n_events // 2_000)
    gen_kw = dict(
        n_events=args.n_events,
        n_repos=n_repos,
        n_paths=200,
        n_batches=args.n_batches,
        dirty_frac=0.02,
        delete_frac=0.08,
        evolve_from_batch=args.n_batches - args.segment_batches,
        seed=42,
        row_group_size=131_072,
    )

    import ray

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from glue_etl_pipeline_ray.gen import generate_change_events_parallel
    from glue_etl_pipeline_ray.oracle_sharded import ShardedOracle
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
    from glue_etl_pipeline_ray.spec import repo_file_spec
    from glue_etl_pipeline_ray.stages.exchange import warm_cluster

    warm_cluster(args.num_cpus)

    work = os.path.join(args.cache_dir, f"seg_{args.n_events}")
    ev = os.path.join(work, "events")
    lake = os.path.join(args.cache_dir, f"lake_{args.state_mode}")
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(lake, ignore_errors=True)
    os.makedirs(ev, exist_ok=True)

    spec = repo_file_spec(num_buckets=args.num_buckets)
    eng_kw = dict(
        state_mode=args.state_mode,
        fold_threshold=4,
    )
    if args.state_mode == "delta" and args.retain_batches:
        eng_kw["retain_batches"] = args.retain_batches
    eng = ReplayEngine(spec, lake, **eng_kw)
    # DLQ rows are counted, not kept: at 2% dirt and 10^9 events the
    # quarantine is 2x10^7 rows; row-level DLQ equality is pinned by
    # the small-scale gates (tests/test_oracle_sharded.py)
    oracle = ShardedOracle(
        repo_file_spec(),
        num_shards=args.oracle_shards,
        keep_dlq=False,
        actor_num_cpus=0.5,
    )

    import threading

    seg = args.segment_batches
    segments = [
        range(lo, min(lo + seg, args.n_batches))
        for lo in range(0, args.n_batches, seg)
    ]

    def gen_segment(ids, out: dict):
        # capture failures for the main loop: a raise inside the thread
        # would otherwise be swallowed by join(), and the loop would die
        # later on a KeyError('meta') with the prior segment's source
        # files already deleted — masking the root cause
        t0 = time.perf_counter()
        try:
            out["meta"] = generate_change_events_parallel(
                work, batch_ids=ids, **gen_kw
            )
        except BaseException as e:  # re-raised by the consumer
            out["error"] = e
            return
        out["sec"] = round(time.perf_counter() - t0, 1)

    per_segment = []
    n_dlq_engine = 0
    checkpoint = {}
    t_all = time.perf_counter()
    replay_wall = 0.0
    cur: dict = {}
    gen_segment(segments[0], cur)  # segment 0: nothing to overlap
    for si, ids in enumerate(segments):
        if "error" in cur:
            raise cur["error"]
        meta, t_gen = cur["meta"], cur["sec"]
        files = sorted(meta["files"])
        n_seg_events = meta["n_events"]

        # replay runs with the box otherwise quiet (clean per-segment
        # ev/s); generation of the NEXT segment overlaps the oracle
        # phase below instead (gen is the wall-clock long pole)
        t0 = time.perf_counter()
        res = eng.replay(ev, max_batches=len(files))
        t_replay = time.perf_counter() - t0
        replay_wall += t_replay
        n_dlq_engine += sum(
            s["n_dead_lettered"] for s in res["summaries"]
        )
        assert res["applied_batches"] == list(ids), res["applied_batches"]

        nxt: dict = {}
        th = None
        if si + 1 < len(segments):
            th = threading.Thread(
                target=gen_segment, args=(segments[si + 1], nxt)
            )
            th.start()

        t0 = time.perf_counter()
        oracle.apply_files(files)
        t_oracle = time.perf_counter() - t0

        for f in files:
            os.remove(f)
        row = {
            "segment": [ids.start, ids.stop - 1],
            "events": n_seg_events,
            "gen_sec": round(t_gen, 1),
            "replay_sec": round(t_replay, 1),
            "replay_ev_s": round(n_seg_events / t_replay),
            "oracle_sec": round(t_oracle, 1),
            "rss_gb": rss_gb(),
        }
        per_segment.append(row)
        print(json.dumps({"phase": "segment", **row}), flush=True)

        if ids.stop == args.checkpoint_batches:
            t0 = time.perf_counter()
            eng_sha = eng.final_sha256()
            mid = oracle.result(with_table=False)
            checkpoint = {
                "at_batch": ids.stop,
                "engine_sha": eng_sha,
                "oracle_sha": mid["sha256"],
                "equal": eng_sha == mid["sha256"],
                "n_live": mid["n_live"],
                "sha_sec": round(time.perf_counter() - t0, 1),
            }
            print(
                json.dumps({"phase": "checkpoint", **checkpoint}),
                flush=True,
            )
            assert checkpoint["equal"], "mid-stream sha mismatch"

        if th is not None:
            th.join()
            cur = nxt

    t0 = time.perf_counter()
    tip_engine = eng.final_sha256()
    tip = oracle.result(with_table=False)
    sha_sec = round(time.perf_counter() - t0, 1)
    files = [
        os.path.join(dp, f)
        for dp, _, fs in os.walk(lake)
        for f in fs
        if f.endswith(".parquet")
    ]
    out = {
        "phase": "summary",
        "n_events": args.n_events,
        "n_batches": args.n_batches,
        "segment_batches": seg,
        "n_repos": n_repos,
        "state_mode": args.state_mode,
        "retain_batches": args.retain_batches,
        "num_cpus": args.num_cpus,
        "oracle_shards": args.oracle_shards,
        "wall_sec_total": round(time.perf_counter() - t_all, 1),
        "replay_wall_sec": round(replay_wall, 1),
        "replay_ev_s": round(args.n_events / replay_wall),
        "per_segment": per_segment,
        "checkpoint": checkpoint,
        "tip_engine_sha": tip_engine,
        "tip_oracle_sha": tip["sha256"],
        "tip_equal": tip_engine == tip["sha256"],
        "n_live": tip["n_live"],
        "n_dead_lettered_oracle": tip["n_dead_lettered"],
        "n_dead_lettered_engine": n_dlq_engine,
        "dlq_equal": n_dlq_engine == tip["n_dead_lettered"],
        "tip_sha_sec": sha_sec,
        "lake_files": len(files),
        "lake_bytes": sum(os.path.getsize(f) for f in files),
        "fsck_ok": eng.fsck()["ok"],
        "driver_peak_rss_gb": rss_gb(),
    }
    print(json.dumps(out), flush=True)
    ok = out["tip_equal"] and out["dlq_equal"]
    if not args.keep_lake:
        shutil.rmtree(lake, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
