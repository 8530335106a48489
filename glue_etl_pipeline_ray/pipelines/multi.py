"""Multi-table demux replay: one change stream -> N logical table lakes.

The reference routes every event into one of six logical tables by a
classifier over (service, type) (``flat_jsons.py:186-240``,
``convert_to_parquet.py:50-57``) and its extension story is "add a
schema + a bucket + a SQL entry" (SURVEY.md 2.10). The engine analog:
register a :class:`TableSpec` plus a route predicate per logical table;
each table runs its own :class:`ReplayEngine` (own lake, checkpoint,
lineage, DLQ) over the same event stream with the predicate pushed into
the map tasks.

Routing predicates must be key-deterministic (derivable from every
event of a key, including DELETEs) so a key's whole history lands in
exactly one table — same constraint the reference's service-prefix
routing satisfies.

Scale note: by default each table scans the stream once (read
amplification = N). That is the reference's own layout (per-table JSONL
reads) and keeps per-table checkpoints independent.
``replay(shared_scan=True)`` fuses routing into one map wave that feeds
every table's merge wave (read amplification 1; rewrite sink only).
"""

from __future__ import annotations

import os
from collections.abc import Callable

import pyarrow as pa

from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import TableSpec


class MultiTableReplayer:
    def __init__(
        self,
        lake_root: str,
        tables: dict[str, tuple[TableSpec, Callable[[pa.Table], pa.Table]]],
        **engine_kwargs,
    ):
        """``tables``: name -> (spec, route_filter). The filter is an
        Arrow-batch -> Arrow-batch predicate applied before validation."""
        self.engines: dict[str, ReplayEngine] = {
            name: ReplayEngine(
                spec,
                os.path.join(lake_root, name),
                event_filter=flt,
                **engine_kwargs,
            )
            for name, (spec, flt) in tables.items()
        }

    def replay(
        self,
        events_dir: str,
        shared_scan: bool = False,
        max_batches: int | None = None,
    ) -> dict[str, dict]:
        """``shared_scan=True``: one map wave reads each chunk once and
        feeds every table's merge wave (read amplification 1, rewrite
        state mode only); default runs one engine pass per table (the
        simple composition). ``max_batches``: per-run work budget,
        forwarded to every engine (per-table pass mode only)."""
        if not shared_scan:
            return {
                n: e.replay(events_dir, max_batches=max_batches)
                for n, e in self.engines.items()
            }
        if max_batches is not None:
            raise ValueError("max_batches requires shared_scan=False")
        if any(e.state_mode != "rewrite" for e in self.engines.values()):
            raise ValueError("shared_scan needs state_mode='rewrite' on every table")
        return self._replay_shared(events_dir)

    def _replay_shared(self, events_dir: str) -> dict[str, dict]:
        # honor each engine's writer_lease for the whole shared pass —
        # _finish_batch is called directly here, bypassing the per-call
        # lease wrapper on ReplayEngine.replay (per-batch heartbeats
        # happen inside _finish_batch via _active_lease)
        leases = []
        try:
            for e in self.engines.values():
                if getattr(e, "writer_lease", False) and e._active_lease is None:
                    from glue_etl_pipeline_ray.state.lease import WriterLease

                    lease = WriterLease(e.lake_dir, ttl_s=e.lease_ttl_s).acquire()
                    e._active_lease = lease
                    leases.append((e, lease))
            return self._replay_shared_inner(events_dir)
        finally:
            for e, lease in leases:
                e._active_lease = None
                lease.release()

    def _replay_shared_inner(self, events_dir: str) -> dict[str, dict]:
        import pyarrow.parquet as pq

        import ray

        from glue_etl_pipeline_ray.pipelines.replay import discover_batches
        from glue_etl_pipeline_ray.stages.evolve import discover_evolved
        from glue_etl_pipeline_ray.stages.exchange import (
            default_num_exchange,
            read_file_metas,
            submit_batch_multi,
        )

        engines = self.engines
        any_eng = next(iter(engines.values()))
        ne = any_eng.num_exchange or default_num_exchange(any_eng.spec)

        # per-(table, group) chains seeded from each table's manifest
        prev = {n: e._merge_seeds(ne) for n, e in engines.items()}
        evolved = {n: e.ckpt.evolved for n, e in engines.items()}

        batches = discover_batches(events_dir)
        pending = [
            (b, fs)
            for b, fs in batches
            if any(not e.ckpt.is_committed(b) for e in engines.values())
        ]
        window = any_eng.window
        inflight: list[dict] = []
        summaries: dict[str, list] = {n: [] for n in engines}

        def drain_one():
            fl = inflight.pop(0)
            for n in fl["names"]:
                e = engines[n]
                outs = ray.get(fl["refs"][n])
                records = [r for o in outs for r in o["records"]]
                new_versions = {rec["bucket"]: rec["version"] for rec in records}
                summaries[n].append(
                    e._finish_batch(
                        fl["batch_id"],
                        fl["evolved"][n],
                        fl["n_events"],
                        fl["dlq"][n],
                        records,
                        new_versions,
                    )
                )

        import os as _os

        for bid, files in pending:
            # only engines that have NOT committed this batch take part:
            # re-submitting a committed batch would re-merge old events
            # against the engine's CURRENT state (resurrecting keys
            # deleted since), overwrite the genuine historic part file
            # at that version, and rewind bucket_versions on commit.
            todo = [
                n for n, e in engines.items() if not e.ckpt.is_committed(bid)
            ]
            metas = read_file_metas(files)
            for _f, md in metas:
                sch = md.schema.to_arrow_schema()
                for n, e in engines.items():
                    evolved[n] = discover_evolved(e.spec, sch, evolved[n])
            dlq = {
                n: _os.path.join(
                    engines[n].lake_dir, "_dlq", f"batch={bid:05d}"
                )
                for n in todo
            }
            n_events = sum(md.num_rows for _, md in metas)
            tables = [
                {
                    "name": n,
                    "spec": engines[n].spec,
                    "evolved": evolved[n],
                    "filter": engines[n].event_filter,
                    "lake_dir": engines[n].lake_dir,
                    "dlq_dir": dlq[n],
                    "prev_by_group": prev[n],
                }
                for n in todo
            ]
            refs = submit_batch_multi(tables, files, bid, ne, metas=metas)
            for n in todo:
                prev[n] = refs[n]
            inflight.append(
                {
                    "batch_id": bid,
                    "names": todo,
                    "refs": refs,
                    "evolved": dict(evolved),
                    "dlq": dlq,
                    "n_events": n_events,
                }
            )
            if len(inflight) >= window:
                drain_one()
        while inflight:
            drain_one()
        # drain any staged-but-uncommitted DML, same as the per-table
        # replay path (see ReplayEngine.replay)
        resumed = {n: e.resume_dml() for n, e in engines.items()}
        return {
            n: {
                "applied_batches": [s["batch_id"] for s in summaries[n]],
                "watermark": engines[n].ckpt.watermark,
                "summaries": summaries[n],
                **(
                    {"resumed_dml": resumed[n]} if resumed.get(n) else {}
                ),
            }
            for n in engines
        }

    def final_tables(self) -> dict[str, pa.Table]:
        return {n: e.final_table() for n, e in self.engines.items()}

    def final_sha256(self) -> dict[str, str]:
        return {n: e.final_sha256() for n, e in self.engines.items()}

    # ------------------------------------------- cross-table atomicity
    def _group_manifest_path(self) -> str:
        any_eng = next(iter(self.engines.values()))
        return os.path.join(
            os.path.dirname(any_eng.lake_dir), "_group_checkpoint.json"
        )

    def group_watermark(self) -> int:
        """Highest batch id EVERY table has committed as a group (-1 =
        none) — the consistent cross-table snapshot point recorded by
        :meth:`replay_atomic`. Per-table watermarks may individually be
        ahead after a crash mid-lockstep; the group manifest only
        advances once the whole batch landed everywhere."""
        import json

        p = self._group_manifest_path()
        if not os.path.exists(p):
            return -1
        with open(p) as f:
            return int(json.load(f)["group_watermark"])

    def replay_atomic(self, events_dir: str) -> dict[str, dict]:
        """Lockstep cross-table replay with atomic group commits: batch
        b advances in ALL tables before the group watermark records b
        (one json replace = the commit point). A crash between two
        tables' commits of batch b leaves per-table watermarks torn,
        but readers using :meth:`consistent_tables` never see the tear:
        they read every table as-of the group watermark. Resume is the
        same call again — engines skip their committed batches, the
        group manifest catches up.

        The per-table pass keeps each engine's own exactly-once
        machinery; this layer adds only the ordering contract (the
        reference's single workflow run-state covered all six tables
        the same way)."""
        import json

        from glue_etl_pipeline_ray.pipelines.replay import discover_batches

        batches = discover_batches(events_dir)
        out: dict[str, list] = {n: [] for n in self.engines}
        gw = self.group_watermark()
        for bid, _files in batches:
            for n, e in self.engines.items():
                if not e.ckpt.is_committed(bid):
                    out[n].append(e.replay(events_dir, max_batches=1))
            # group commit point — written for EVERY batch all engines
            # hold, including batches they had already committed before
            # this call: a crash after the last table's commit of the
            # FINAL batch but before this write would otherwise leave
            # the group watermark one batch behind forever (the re-run
            # would skip the fully-committed batch without ever
            # recording it). The write is idempotent; monotone via gw.
            if bid > gw:
                p = self._group_manifest_path()
                tmp = p + ".tmp"
                with open(tmp, "w") as f:
                    json.dump({"group_watermark": bid}, f)
                os.replace(tmp, p)
                gw = bid
        return out

    def consistent_tables(self) -> dict[str, pa.Table]:
        """Every table as-of the group watermark — a cross-table
        consistent snapshot even while some tables have raced ahead.
        Needs readable history (``gc_old_versions=False`` or
        ``retain_batches``) when any per-table watermark is past the
        group watermark; with all watermarks equal it falls back to the
        plain tip read (no history required)."""
        wm = self.group_watermark()
        return {
            n: (
                e.final_table()
                if e.ckpt.watermark == wm
                else e.final_table(as_of=wm)
            )
            for n, e in self.engines.items()
        }
