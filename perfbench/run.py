#!/usr/bin/env python3
"""CDC-ingest benchmark: one seeded workload per run, checked against the oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 10 --trace 0

Workloads: ``ingest_bulk``, ``ingest_steady``, ``lake_reads`` and
``eventfile_etl`` (``BENCHMARK.json`` says why
each is there, ``workloads.py`` what each measures). The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer metrics. The line
before it carries the run's details, and in a traced run also its
end-to-end values, so tracing overhead reads as traced minus untraced.
A run whose outputs disagree with the oracle prints ``"correct": false`` and
exits 1. Everything the run writes stays under ``.perfbench/`` and
``.rt/`` in the repository root; the Ray cluster it starts is sized to
the machine (``num_cpus = nproc``), kept with this process on ``nproc``
CPUs, and shut down before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RAY_TMP = os.path.join(ROOT, ".rt")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 72

WORKLOADS = (
    "ingest_bulk",
    "ingest_steady",
    "lake_reads",
    "eventfile_etl",
)

E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return max(1, int(out.stdout))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _pin(ncpu: int) -> None:
    """Keep this process and everything it starts (Ray's raylet, GCS and
    workers inherit the mask) on ``ncpu`` CPUs, the ones Ray is told it
    has; a vCPU left idle between cross-process wake-ups adds the host's
    scheduling delay to every Ray round trip."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:ncpu])


def _start_ray():
    """Ray sized to the machine, with its session files inside the
    checkout when the path leaves room for Ray's socket names."""
    import ray

    ncpu = nproc()
    _pin(ncpu)
    kw = dict(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=768 * 1024 * 1024,
    )
    if len(RAY_TMP) + _RAY_SOCKET_SUFFIX <= 107:
        kw["_temp_dir"] = RAY_TMP
    else:
        print(
            f"perfbench: checkout path too long for Ray sockets under {RAY_TMP}; "
            "using Ray's default temp dir",
            file=sys.stderr,
        )
    ray.init(**kw)
    session = ray._private.worker._global_node.get_session_dir_path()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    from glue_etl_pipeline_ray.stages.exchange import warm_cluster

    warm_cluster(ncpu)
    return ray, session


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "glue_etl_pipeline_ray")):
        print(
            "perfbench: the glue_etl_pipeline_ray package is not in this "
            f"checkout ({ROOT}); nothing to measure",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # workers import the package from the checkout; temp files stay in it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    sys.path.insert(0, ROOT)

    import workloads

    run_dir = os.path.join(WORK, "runs", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    t0 = time.perf_counter()
    ray, session = _start_ray()
    try:
        res = workloads.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work=WORK,
            run_dir=run_dir,
            ray_setup_s=time.perf_counter() - t0,
        )
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(session, ignore_errors=True)

    metrics = res["e2e"] if not args.trace else res["layers"]
    units = E2E_UNITS if not args.trace else workloads.LAYER_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    info = {"workload": args.workload, "detail": res["detail"]}
    if args.trace:
        info["e2e"] = res["e2e"]
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    k: {"value": float(metrics[k]), "unit": units[k]} for k in units
                },
            }
        )
    )
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
