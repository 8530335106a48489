#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads ingest_bulk,lake_reads \\
        --seeds 1-10 [--seconds 10] [--trace-overhead] \\
        [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``, plus the fewest ops any run measured.
``--trace-overhead`` also runs the first seed with ``--trace 1`` and
reports traced minus untraced end-to-end values of that seed. ``--out``
writes the figures as JSON together with ``nproc`` and the per-layer ->
end-to-end map. Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int = 0):
    """(result line, info line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace-overhead", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    report: dict = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        samples = []
        for seed in seeds:
            res, info = run_once(wl, seed, seconds)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            samples.append(info["detail"]["op_samples"])
            print(f"{wl} seed {seed}: ops={samples[-1]} " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
            ), flush=True)
        rep: dict = {"min_op_samples": min(samples), "metrics": {}}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rep["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vs,
            }
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {wl:16s} {name:12s} median={med:.5g} q1={q1:.5g} "
                  f"q3={q3:.5g} spread={spread:.3f} bound={bounds[name]}{flag}")
        if args.trace_overhead:
            _, info = run_once(wl, seeds[0], seconds, trace=1)
            rep["trace_overhead"] = {
                name: info["e2e"][name] - values[name][0] for name in values
            }
            print(f"  {wl:16s} traced - untraced (seed {seeds[0]}): " + ", ".join(
                f"{k}={v:+.4g}" for k, v in rep["trace_overhead"].items()
            ), flush=True)
        report[wl] = rep
    if args.out:
        sys.path.insert(0, HERE)
        import layers
        from run import nproc

        out = {
            "nproc": nproc(),
            "run_seconds": seconds,
            "seeds": args.seeds,
            "workloads": report,
            "layer_moves": layers.LAYER_MOVES,
        }
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
