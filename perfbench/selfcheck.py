#!/usr/bin/env python3
"""Self-check of the benchmark itself (not of the engine).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Checks, in order:

1. the same seed gives byte-identical inputs for every input family;
2. the composed oracle (``inputs.oracle_after``) equals a full-stream
   ``oracle.replay_oracle`` over the base plus later batches;
3. every workload prints every end-to-end metric of ``BENCHMARK.json``
   with its unit under ``--trace 0``, and every per-layer metric under
   ``--trace 1``, with all outputs correct;
4. a run whose oracle answer is wrong exits non-zero with
   ``"correct": false`` (a cached oracle answer is corrupted on purpose);
5. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Scratch files go under ``.perfbench/selfcheck/``. Exits 1 on the first
failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selfcheck")
SEED = 424242  # a seed no timed run uses, so cached inputs are not disturbed


def _digest_tree(d: str) -> dict[str, str]:
    out = {}
    for dp, _, fns in os.walk(d):
        for fn in fns:
            p = os.path.join(dp, fn)
            with open(p, "rb") as f:
                out[os.path.relpath(p, d)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = SEED):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    last = None
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
    return proc.returncode, last, proc.stderr


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    import inputs
    from glue_etl_pipeline_ray.oracle import replay_oracle
    from glue_etl_pipeline_ray.spec import repo_file_spec

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # 1. determinism
    for fam, make in (
        ("bulk", inputs.bulk_inputs),
        ("uniform", inputs.uniform_inputs),
        ("etl", inputs.etl_inputs),
    ):
        a = make(os.path.join(SCRATCH, "a"), SEED)
        b = make(os.path.join(SCRATCH, "b"), SEED)
        da, db = _digest_tree(a), _digest_tree(b)
        check(bool(da) and da == db, f"{fam} inputs are byte-identical for one seed")

    # 2. composed oracle == full-stream oracle
    spec = repo_file_spec()
    d = inputs.uniform_inputs(os.path.join(SCRATCH, "a"), SEED)
    base_live, _ = inputs.uniform_base_oracle(spec, d)
    later = inputs.small_batches(d)[:3]
    comp = inputs.oracle_after(spec, d, base_live, later, os.path.join(SCRATCH, "o"))
    full_dir = os.path.join(SCRATCH, "full")
    os.makedirs(full_dir)
    for f in [os.path.join(d, "events", "batch=00000.parquet")] + later:
        os.link(f, os.path.join(full_dir, os.path.basename(f)))
    full = replay_oracle(spec, full_dir)
    n_later = sum(1 for r in full["dlq"] if r.get("batch_id") != 0)
    check(
        comp["sha256"] == full["sha256"] and comp["n_dead_lettered"] == n_later,
        "composed oracle equals the full-stream oracle",
    )

    # 3. every metric, with units, on every workload
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, want in ((0, e2e), (1, per_layer)):
            rc, res, err = _bench(wl, trace)
            got = {} if res is None else {
                k: v.get("unit") for k, v in res.get("metrics", {}).items()
            }
            check(
                rc == 0 and res is not None and res["correct"] and got == want,
                f"{wl} --trace {trace} prints every metric with its unit "
                f"(exit {rc}){'' if rc == 0 else ': ' + err[-500:]}",
            )

    # 4. a wrong oracle answer fails the run
    bdir = inputs.cache_dir(os.path.join(ROOT, ".perfbench"), "bulk", SEED)
    opath = os.path.join(bdir, "oracle.json")
    good = inputs.read_json(opath)
    with open(opath, "w") as f:
        json.dump({**good, "sha256": "0" * 64}, f)
    try:
        rc, res, _ = _bench("ingest_bulk", 0)
    finally:
        with open(opath, "w") as f:
            json.dump(good, f, sort_keys=True)
    check(
        rc != 0 and res is not None and res["correct"] is False and res["failed"] > 0,
        f"a run that disagrees with the oracle exits non-zero (exit {rc})",
    )

    # 5. no program in the directory: non-zero exit, no result
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = _bench("ingest_bulk", 0, cwd=bare)
    check(rc != 0 and res is None, f"benchmark alone exits non-zero without a result (exit {rc})")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for fam in ("bulk", "uniform", "etl"):
        shutil.rmtree(
            inputs.cache_dir(os.path.join(ROOT, ".perfbench"), fam, SEED),
            ignore_errors=True,
        )
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
