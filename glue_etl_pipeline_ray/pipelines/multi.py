"""Multi-table demux replay: one change stream -> N logical table lakes.

The reference routes every event into one of six logical tables by a
classifier over (service, type) (``flat_jsons.py:186-240``,
``convert_to_parquet.py:50-57``) and its extension story is "add a
schema + a bucket + a SQL entry" (SURVEY.md 2.10). The engine analog:
register a :class:`TableSpec` plus a route predicate per logical table;
each table has its own :class:`ReplayEngine` (own lake, sink,
checkpoint, lineage, DLQ) and the predicate is pushed into the map
tasks.

Routing predicates must be key-deterministic (derivable from every
event of a key, including DELETEs) so a key's whole history lands in
exactly one table — same constraint the reference's service-prefix
routing satisfies.

``replay`` reads the stream once for all tables (read amplification 1):
one map task per chunk routes it through every table's predicate, and
each table's reduces, commits and folds run as in a one-table replay,
so per-table checkpoints stay independent.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import pyarrow as pa

from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine, replay_engines
from glue_etl_pipeline_ray.spec import TableSpec
from glue_etl_pipeline_ray.state.lease import writer_leases


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
        max_batches: int | None = None,
        max_events: int | None = None,
    ) -> dict[str, dict]:
        """One pass over the stream for every table: each batch is read
        once, by one map wave that feeds every table still missing it,
        and each table then merges, commits and folds as
        :meth:`ReplayEngine.replay` would, through its own sink. Holds
        every table's writer lease for the pass. ``max_batches`` /
        ``max_events``: per-table work budget. Returns each table's run
        summary."""
        engines = list(self.engines.values())
        with writer_leases(engines):
            runs = replay_engines(engines, events_dir, max_batches, max_events)
        return dict(zip(self.engines, runs))

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

        Each batch is one capped pass of :func:`replay_engines` over the
        tables that have not committed it: one map wave reads the batch
        for all of them, and each keeps its own exactly-once machinery;
        this layer adds only the ordering contract (the reference's
        single workflow run-state covered all six tables the same
        way)."""
        import json

        from glue_etl_pipeline_ray.pipelines.replay import discover_batches
        from glue_etl_pipeline_ray.stages.merge import write_text_atomic

        batches = discover_batches(events_dir)
        out: dict[str, list] = {n: [] for n in self.engines}
        gw = self.group_watermark()
        with writer_leases(list(self.engines.values())):
            for bid, _files in batches:
                todo = {n: e for n, e in self.engines.items() if not e.ckpt.is_committed(bid)}
                if todo:
                    runs = replay_engines(list(todo.values()), events_dir, max_batches=1)
                    for n, run in zip(todo, runs):
                        out[n].append(run)
                # group commit point — written for EVERY batch all engines
                # hold, including batches they had already committed before
                # this call: a crash after the last table's commit of the
                # FINAL batch but before this write would otherwise leave
                # the group watermark one batch behind forever (the re-run
                # would skip the fully-committed batch without ever
                # recording it). The write is idempotent; monotone via gw.
                if bid > gw:
                    write_text_atomic(
                        self._group_manifest_path(), json.dumps({"group_watermark": bid})
                    )
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
