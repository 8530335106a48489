"""Job entry point: ``ray job submit -- python -m glue_etl_pipeline_ray.cli ...``.

The ``ray job submit`` story from BASELINE.json's north_rule: on a real
cluster the driver below runs inside the job (``ray.init(address="auto")``
connects to the running cluster); locally it starts a local session. This
is the ONLY module in the package that may call ``ray.init`` — and only
under ``__main__``.

Subcommands (each prints one JSON line):

- ``replay``  : apply pending change-event batches to a lake.
- ``compact`` : fold deltas / drop tombstones.
- ``verify``  : recompute the live-table sha256 (prints it).
- ``gc``      : remove crash orphans.
- ``fsck``    : metadata-only integrity check (missing / orphan files).
- ``reshard`` : blue/green re-bucketing to ``--out-lake`` —
  ``--mode split`` multiplies the bucket count by ``--factor``,
  ``--mode merge`` divides it (factor must divide the bucket count).
- ``redrive`` : reprocess the DLQ as one new batch (rows that fail
  re-validation re-quarantine exactly once).
- ``export``  : publish the live table as partitioned Parquet +
  manifest under ``--out-dir``.
- ``clone``   : zero-copy shallow clone (hardlinked snapshot) of the
  committed lake to ``--out-lake``; both lakes evolve independently.
- ``diff``    : cross-lake drift check vs ``--out-lake`` (same bucket
  layout): per-change-type counts of rows that would turn the other
  lake's live table into this one's.
- ``optimize``: cluster every bucket by ``--sort-col`` (sha-invariant
  permutation) so predicate scans prune row groups.
- ``filters`` : build per-bucket key Bloom sidecars so absent-key
  point lookups skip bucket reads entirely.
- ``scan``    : predicate-pushdown live read (``--where col=value``,
  repeatable; equality only from the CLI, the value cast to the column's
  type) printing the match count and, under ``read``, the scan's read
  counters (files, bytes, rows, tasks).
- ``metrics`` : per-batch / totals rollup from lineage.
"""

from __future__ import annotations

import argparse
import json
import sys


def build_engine(args):
    return ReplayEngine_for(args, args.lake)


def ReplayEngine_for(args, lake_dir):
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
    from glue_etl_pipeline_ray.spec import repo_file_spec

    return ReplayEngine(
        repo_file_spec(num_buckets=args.num_buckets),
        lake_dir,
        state_mode=args.state_mode,
        window=args.window,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="glue_etl_pipeline_ray")
    p.add_argument(
        "command",
        choices=[
            "replay",
            "compact",
            "verify",
            "gc",
            "fsck",
            "reshard",
            "redrive",
            "export",
            "clone",
            "diff",
            "optimize",
            "filters",
            "scan",
            "metrics",
        ],
    )
    p.add_argument("--events", help="events dir (batch=N.parquet files)")
    p.add_argument("--lake", required=True)
    p.add_argument("--num-buckets", type=int, default=64)
    p.add_argument("--state-mode", choices=["rewrite", "delta"], default="rewrite")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--out-lake", help="reshard: destination lake dir")
    p.add_argument("--factor", type=int, default=2, help="reshard factor")
    p.add_argument("--sort-col", help="optimize: column to cluster by")
    p.add_argument(
        "--where",
        action="append",
        default=[],
        help="scan: col=value equality predicate (repeatable, ANDed)",
    )
    p.add_argument(
        "--mode",
        choices=["split", "merge"],
        default="split",
        help="reshard direction",
    )
    p.add_argument("--out-dir", help="export: destination dir")
    p.add_argument("--address", default=None,
                   help='ray address ("auto" inside ray job submit; default local)')
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kw = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.address:
            kw["address"] = args.address
        else:
            kw["address"] = "local"
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)

    try:
        eng = build_engine(args)
        if args.command == "replay":
            if not args.events:
                p.error("replay requires --events")
            out = eng.replay(args.events)
            out = {k: v for k, v in out.items() if k != "summaries"}
        elif args.command == "compact":
            out = eng.compact()
        elif args.command == "verify":
            # ONE unsorted assembly: table_sha256 re-sorts internally
            # (with the large_string upcast), and a second sorted pass
            # would overflow int32 offsets at 10^9 scale
            from glue_etl_pipeline_ray.hashing import table_sha256

            t = eng.final_table(sort=False)
            out = {"sha256": table_sha256(t, eng.spec.key_cols),
                   "n_live": t.num_rows}
        elif args.command == "fsck":
            out = eng.fsck()
        elif args.command == "reshard":
            if not args.out_lake:
                p.error("reshard requires --out-lake")
            eng2 = eng.reshard(args.out_lake, factor=args.factor, mode=args.mode)
            out = {
                "out_lake": args.out_lake,
                "mode": args.mode,
                "num_buckets": eng2.spec.num_buckets,
                "watermark": eng2.ckpt.watermark,
            }
        elif args.command == "redrive":
            out = eng.redrive_dlq()
            if isinstance(out.get("summary"), dict):
                out["summary"] = {
                    k: v
                    for k, v in out["summary"].items()
                    if k != "summaries"
                }
        elif args.command == "clone":
            if not args.out_lake:
                p.error("clone requires --out-lake")
            eng2 = eng.clone(args.out_lake)
            out = {
                "out_lake": args.out_lake,
                "watermark": eng2.ckpt.watermark,
                **eng2._clone_stats,
            }
        elif args.command == "diff":
            if not args.out_lake:
                p.error("diff requires --out-lake (the other lake)")
            other = ReplayEngine_for(args, args.out_lake)
            import collections

            import pyarrow.compute as pc

            counts = collections.Counter()
            for batch in eng.diff_with(other).iter_batches(
                batch_format="pyarrow"
            ):
                for row in pc.value_counts(batch["_change_type"]).to_pylist():
                    counts[row["values"]] += row["counts"]
            out = {"vs": args.out_lake, "changes": dict(counts),
                   "total": sum(counts.values())}
        elif args.command == "optimize":
            if not args.sort_col:
                p.error("optimize requires --sort-col")
            out = eng.optimize_sort(args.sort_col)
        elif args.command == "scan":
            if not args.where:
                p.error("scan requires at least one --where col=value")
            import pyarrow as pa

            schema = eng.spec.canonical_schema(eng.ckpt.evolved)
            preds = []
            for w in args.where:
                if "=" not in w:
                    p.error(f"bad --where {w!r}: expected col=value")
                c, v = w.split("=", 1)
                if c not in schema.names:
                    p.error(f"bad --where {w!r}: unknown column {c!r}")
                typ = schema.field(c).type
                try:
                    value = pa.scalar(v).cast(typ).as_py()
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    p.error(f"bad --where {w!r}: {v!r} is not a {typ} value")
                preds.append((c, "==", value))
            rows = eng.scan(preds).count()
            out = {"where": args.where, "rows": rows, "read": eng._last_read_stats}
        elif args.command == "filters":
            out = eng.build_lookup_filters()
        elif args.command == "export":
            if not args.out_dir:
                p.error("export requires --out-dir")
            out = eng.export_snapshot(args.out_dir)
        elif args.command == "metrics":
            out = eng.metrics()
        else:
            out = {"orphans_removed": eng.gc_orphans()}
        print(json.dumps(out))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
