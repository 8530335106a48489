"""The change-event replayer: pipelined micro-batch cursor over the event lake.

Ray-native re-expression of the reference's 7-job Glue workflow
(SURVEY.md 3.1-3.2). Per micro-batch:

    plan row-group chunks                      # pre-job work-list analog
      -> map tasks: read -> validate(+DLQ)     # profile-job analog
                    -> evolve -> partial LWW   # flat-job fix-ups analog
                    -> split by bucket range   # map side of the shuffle
      -> merge tasks: per-bucket LWW vs prior  # convert-job analog +
                      versioned state file     # idempotent sink
    drain in order: lineage + ONE manifest write + unlink released  # post-job

The driver loop is the incremental-ingest cursor
(``update_workflow_properties.py:104-165`` analog): pending batches =
discovered batch ids minus committed set; commits happen strictly in
batch order AFTER the batch's merges land, so every batch is exactly-once
(deterministic versioned file names make re-runs byte-identical no-ops).

**Pipelining** (the throughput core): merges chain per exchange group via
ObjectRef dependencies — merge(batch N+1, group g) waits only on
merge(N, g), never on a global barrier — and map waves for up to
``window`` batches run concurrently. The cluster therefore never idles at
batch boundaries while correctness still comes from the per-group chain +
ordered commits, not from execution order (LWW is commutative).

One pass serves a list of engines (``replay_engines``): each batch is
read by one map wave for every engine that has not committed it — the
multi-table demux of ``MultiTableReplayer`` — while merges, commits and
folds stay per engine. A plain ``ReplayEngine.replay`` is the one-engine
pass.

Scale notes (100 TB / multi-node): shuffle volume per batch is bounded by
distinct keys per chunk (partial LWW combiner); object count is
``chunks x num_exchange`` — both independent of the sink bucket count
``num_buckets`` (2^16 at 100 TB while num_exchange tracks cluster cores).
``lake_dir`` would be shared storage (S3/NFS) on a real cluster. Fixed
``split_rows`` keeps per-task efficiency uniform across cluster sizes.

``ReplayEngine`` holds the ingest path and the reads (through
state/snapshot.py); its maintenance and DML methods come from the
``Maintenance`` (pipelines/maintenance.py) and ``Dml``
(pipelines/dml.py) mixins.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from glue_etl_pipeline_ray.hashing import table_sha256
from glue_etl_pipeline_ray.pipelines.dml import Dml
from glue_etl_pipeline_ray.pipelines.maintenance import BATCH_RE, Maintenance
from glue_etl_pipeline_ray.spec import TableSpec
from glue_etl_pipeline_ray.stages.evolve import discover_evolved
from glue_etl_pipeline_ray.stages.exchange import (
    Sink,
    default_num_exchange,
    group_of,
    read_file_metas,
    submit_batch,
)
from glue_etl_pipeline_ray.stages.merge import write_atomic
from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager
from glue_etl_pipeline_ray.state.lease import with_writer_lease
from glue_etl_pipeline_ray.state.lineage import write_lineage
from glue_etl_pipeline_ray.state.snapshot import (  # noqa: F401  (_where_mask: re-exported)
    LOOKUP_CACHE,
    SnapshotReader,
    where_mask as _where_mask,
)


def discover_batches(events_dir: str) -> list[tuple[int, list[str]]]:
    """Map batch_id -> parquet file list; supports ``batch=N.parquet``
    files and ``batch=N/`` directories."""
    out: dict[int, list[str]] = {}
    for entry in sorted(glob.glob(os.path.join(events_dir, "batch=*"))):
        m = BATCH_RE.search(os.path.basename(entry))
        if not m:
            continue
        bid = int(m.group(1))
        if os.path.isdir(entry):
            out.setdefault(bid, []).extend(
                sorted(glob.glob(os.path.join(entry, "*.parquet")))
            )
        elif entry.endswith(".parquet"):
            out.setdefault(bid, []).append(entry)
    return sorted(out.items())


def dedup_first_by(t: pa.Table, col: str) -> pa.Table:
    """Keep the first row per distinct ``col`` value, preserving order.

    Uses a boolean ``filter`` (chunk-preserving), never ``Table.take``:
    take concatenates each column into ONE array, and a multi-GB string
    column overflows int32 offsets — the 10^9-lake probe hit exactly
    that on a 20M-row DLQ redrive (``ArrowInvalid: offset overflow
    while concatenating arrays``)."""
    vals = t[col].to_numpy(zero_copy_only=False)
    first = np.unique(vals, return_index=True)[1]
    if len(first) == t.num_rows:
        return t
    mask = np.zeros(len(vals), dtype=bool)
    mask[first] = True
    return t.filter(pa.array(mask))


class ReplayEngine(Maintenance, Dml):
    def __init__(
        self,
        spec: TableSpec,
        lake_dir: str,
        num_exchange: int | None = None,
        window: int = 4,
        gc_old_versions: bool = True,
        state_mode: str = "rewrite",
        fold_threshold: int = 8,
        event_filter=None,
        retain_batches: int | None = None,
        writer_lease: bool = False,
        lease_ttl_s: float = 300.0,
    ):
        """Batches land through the pipelined map-side-partition shuffle
        on Ray core (stages/exchange.py). ``num_exchange``: exchange
        groups (default: ``default_num_exchange``). ``window``: max
        batches in flight before the oldest is drained + committed.

        ``state_mode`` picks the sink, nothing else: "rewrite" (default)
        merges each touched bucket against its prior state into a new
        base file every batch — O(state) per batch, simplest reads.
        "delta" (LSM path) appends the batch's rows as one group file per
        exchange group with NO prior-state read — O(batch) per batch,
        mandatory when state >> batch (the 10^10-event regime); buckets
        whose chains exceed ``fold_threshold`` entries are folded into a
        new base in the background of the commit loop. Both sinks commit
        the same pointers (a base plus a chain), so the manifest, reads,
        maintenance and time travel do not depend on the mode, and any
        engine reads or continues any lake: the rewrite sink first folds
        the chains it finds on the tip.

        ``retain_batches``: bounded history (the Delta-Lake retention
        model, the 10^10-scale middle ground between eager GC and
        keep-everything): superseded state files stay readable until the
        watermark passes them by N batches, so time travel and the change
        feed work for any ``as_of >= watermark - N`` while storage stays
        O(state + N batches of churn). Consumers (views, replicas) must
        sync at least every N batches. Files a commit supersedes are
        retired, tagged with the version from which as-of reads anchor
        on their successor.

        ``writer_lease``: make the single-writer assumption explicit —
        every mutating call (replay/compact/gc/backfill/redrive/reshard)
        holds ``_checkpoint/WRITER_LOCK`` for its duration and a second
        live writer raises ``ConcurrentWriter`` instead of racing the
        manifest; a lock whose holder died (no heartbeat for
        ``lease_ttl_s``) is taken over atomically (state/lease.py)."""
        if state_mode not in ("rewrite", "delta"):
            raise ValueError(f"unknown state mode: {state_mode}")
        if retain_batches is not None:
            if retain_batches < 1:
                raise ValueError("retain_batches must be >= 1")
            if not gc_old_versions:
                raise ValueError(
                    "retain_batches needs gc_old_versions=True (with GC "
                    "off, everything is retained already)"
                )
        self.spec = spec
        self.lake_dir = lake_dir
        self.num_exchange = num_exchange
        self.window = max(1, window)
        self.gc_old_versions = gc_old_versions
        self.retain_batches = retain_batches
        self.state_mode = state_mode
        self.fold_threshold = max(1, fold_threshold)
        self.event_filter = event_filter
        self.writer_lease = writer_lease
        self.lease_ttl_s = lease_ttl_s
        self._active_lease = None
        self._last_read_stats = None
        self._last_lookup_stats = None
        os.makedirs(lake_dir, exist_ok=True)
        self.ckpt = CheckpointManager(lake_dir)

    # ---------------------------------------------------------------- replay
    @with_writer_lease
    def replay(
        self,
        events_dir: str,
        fail_before_commit_of: int | None = None,
        max_batches: int | None = None,
        max_events: int | None = None,
    ) -> dict:
        """Apply not-yet-committed batches in id order. Returns run summary.

        ``max_batches`` / ``max_events``: per-run work budget — stop taking
        pending batches once the cap is reached (at least one batch is
        always taken so a single oversized batch cannot stall the cursor).
        The reference caps each workflow run at 500 files for bounded
        recovery (``update_workflow_properties.py:152-160``); repeated
        capped runs converge to the same committed state as one uncapped
        run (sha256-tested).

        ``fail_before_commit_of``: test hook (FIXTURES.md F6) — raise after
        the named batch's merges land but before its checkpoint commit,
        simulating a crash in the at-least-once window.
        """
        return replay_engines(
            [self], events_dir, max_batches, max_events, fail_before_commit_of
        )[0]

    def follow(
        self,
        events_dir: str,
        poll_interval_s: float = 1.0,
        stop_file: str | None = None,
        idle_timeout_s: float | None = None,
        on_commit=None,
    ) -> dict:
        """Continuous ingestion: tail ``events_dir`` and replay new batch
        files as they land — the streaming analog of the reference's
        scheduled workflow trigger (``deployments/main.tf:203-226``
        re-runs the whole DAG on a cron; here the commit gate makes each
        poll an idempotent incremental run, so polling IS streaming).

        Producers must land batch files atomically (write to a temp name,
        then rename into place) — the same convention the engine's own
        sinks use; a half-written parquet would otherwise be read mid-copy.

        Stops when ``stop_file`` exists AND everything pending has been
        applied (drain-then-stop, so a stop marker racing a final batch
        loses), or when ``idle_timeout_s`` passes with no new work.
        ``on_commit(summary_dict)`` runs after each non-empty cycle —
        e.g. to refresh MaterializedViews or replicate downstream.
        Returns the accumulated run summary."""
        applied: list[int] = []
        last_progress = time.monotonic()
        while True:
            s = self.replay(events_dir)
            if s["applied_batches"]:
                applied.extend(s["applied_batches"])
                last_progress = time.monotonic()
                if on_commit is not None:
                    on_commit(s)
                continue  # drain back-to-back arrivals without sleeping
            if stop_file is not None and os.path.exists(stop_file):
                break
            if (
                idle_timeout_s is not None
                and time.monotonic() - last_progress >= idle_timeout_s
            ):
                break
            time.sleep(poll_interval_s)
        return {"applied_batches": applied, "watermark": self.ckpt.watermark}

    def _merge_seeds(self, ne: int) -> list[dict]:
        """The rewrite sink's per-group chain seeds: every bucket's
        committed base version. Chains on the tip (a lake the delta sink
        wrote) are folded first, in one blocking wave: the rewrite merge
        reads one base file and never merges over a chain."""
        chained = {b for b, d in self.ckpt.bucket_deltas.items() if d["deltas"]}
        if chained:
            self._apply_fold_results(*self._submit_folds(chained))
        seeds: list[dict] = [{"versions": {}} for _ in range(ne)]
        for b, v in self.ckpt.bucket_versions.items():
            seeds[group_of(b, ne, self.spec.num_buckets)]["versions"][b] = v
        return seeds

    def apply_batch(
        self, batch_id: int, files: list[str], _fail_before_commit: bool = False
    ) -> dict:
        """Apply one batch through the pipeline and commit it, whether or
        not it is already committed (re-applying a committed batch is an
        LWW no-op; DML commits its staged batch this way). Returns the
        batch summary."""
        fail = batch_id if _fail_before_commit else None
        return _replay_pipelined([self], [[(batch_id, files)]], fail)[0][0]

    # ----------------------------------------------------- commit + GC
    def _finish_batch(
        self,
        batch_id: int,
        evolved: tuple[tuple[str, str], ...],
        n_events: int,
        dlq_dir: str,
        records: list[dict],
        pointers: dict[int, object],
        _fail_before_commit: bool = False,
    ) -> dict:
        if self._active_lease is not None:
            # liveness: one heartbeat per batch commit keeps the lease
            # fresh through arbitrarily long replays
            self._active_lease.heartbeat()
        n_dlq = 0
        if os.path.isdir(dlq_dir):
            n_dlq = sum(
                pq.ParquetFile(os.path.join(dlq_dir, f)).metadata.num_rows
                for f in os.listdir(dlq_dir)
                if f.endswith(".parquet")
            )
        summary = {
            "batch_id": batch_id,
            "n_events": n_events,
            "n_dead_lettered": n_dlq,
            "n_merged_events": sum(r["n_events"] for r in records),
            "n_upserts": sum(r["n_upserts"] for r in records),
            "n_deletes": sum(r["n_deletes"] for r in records),
            # a group-file record does not know its bucket's live count
            # (-1: counted only by reads and folds)
            "n_live": (
                -1
                if any(r["n_live"] < 0 for r in records)
                else sum(r["n_live"] for r in records)
            ),
            "buckets_touched": len(records),
            "evolved": [list(e) for e in evolved],
        }
        # DML identity rides the COMMIT itself (kind + stage token), so
        # there is no annotate-after-commit crash window and resume_dml
        # can tell "this batch id is our committed DML" from "an
        # ordinary ingest replay took the id" (see resume_dml)
        extra = getattr(self, "_batch_extra", None)
        if extra:
            summary.update(extra)
        if _fail_before_commit:
            raise RuntimeError(f"injected crash before commit of batch {batch_id}")
        write_lineage(self.lake_dir, batch_id, records, summary)
        wm = max(self.ckpt.watermark, batch_id)
        self._release(self.ckpt.commit_batch(
            batch_id, evolved, summary, pointers, self._horizon(wm)
        ))
        return summary

    # ----------------------------------------------------------- final state
    # Snapshot reads, and the maintenance and DML maps, resolve, read and
    # dispatch through state/snapshot.py; each one records its counters
    # as ``_last_read_stats``.
    def _reader(self) -> SnapshotReader:
        r = SnapshotReader.of(self)
        self._last_read_stats = r.stats
        return r

    def _state_files(self, as_of: int | None = None) -> list[str]:
        return SnapshotReader.of(self).state_files(as_of)

    # -------------------------------------------------- change data feed
    def _changes_refs(
        self, from_batch: int, to_batch: int, update_preimages: bool = False
    ) -> list:
        """Change-feed table refs, one per group of changed buckets (both
        snapshots share the sink's bucket layout, so the feed is
        shuffle-free). Buckets whose source is the same at both batches
        are not read. Requires retained history: either
        ``gc_old_versions=False`` or both batches inside the
        ``retain_batches`` window."""
        return self._reader().change_refs(from_batch, to_batch, update_preimages)[0]

    def changes_dataset(
        self, from_batch: int, to_batch: int, update_preimages: bool = False
    ) -> "ray.data.Dataset":
        """Change data feed (like Delta Lake ``table_changes``): the NET
        row-level changes between two committed snapshots as a Dataset —
        one ``insert``/``update``/``delete`` row per key whose LWW winner
        differs, in the ``to`` snapshot's schema plus ``_change_type``.
        ``from_batch=-1`` diffs against the empty table. Shuffle-free:
        both snapshots share the bucket layout, and buckets no commit in
        the window touched are skipped. ``update_preimages=True`` splits
        each update into an ``update_preimage`` + ``update_postimage``
        pair (the Delta-Lake CDF convention; what incremental view
        maintenance consumes)."""
        r = self._reader()
        return r.dataset(*r.change_refs(from_batch, to_batch, update_preimages))

    def changes_table(self, from_batch: int, to_batch: int) -> pa.Table:
        """Driver-side change feed (test/oracle path only)."""
        r = self._reader()
        refs, schema = r.change_refs(from_batch, to_batch)
        return r.table(ray.get(refs), schema)

    def diff_with(
        self, other: "ReplayEngine", update_preimages: bool = False
    ) -> "ray.data.Dataset":
        """CROSS-LAKE diff: the net row-level changes that would turn
        ``other``'s live table into ``self``'s, as a Dataset of
        ``insert`` / ``update`` / ``delete`` rows — the drift detector
        for clones, replicas and blue/green lakes (did the replica
        converge? what did the clone change since the fork?).

        Shuffle-free by layout: both lakes must share ``num_buckets``
        and key columns (clone/replicate preserve them), so bucket ``b``
        of one lake pairs with bucket ``b`` of the other — one
        ``snapshot_diff`` per bucket, zero cross-bucket traffic.
        Mismatched layouts raise (reshard one side first) rather than
        silently shipping an all-to-all, and so do base payload columns
        that differ in name, order or type. State modes may differ per
        side. Schemas are unified additively (the union of both lakes'
        evolved columns, sorted by name; a same-name type conflict
        raises as ambiguous), so a column only one side evolved shows
        as null on the other — the same contract as in-lake evolution."""
        if self.spec.num_buckets != other.spec.num_buckets:
            raise ValueError(
                f"diff_with needs matching bucket layouts "
                f"({other.spec.num_buckets} vs {self.spec.num_buckets}); "
                "reshard one side first"
            )
        if tuple(self.spec.key_cols) != tuple(other.spec.key_cols):
            raise ValueError("diff_with needs matching key columns")
        mine, theirs = self.spec.canonical_schema(), other.spec.canonical_schema()
        if not mine.equals(theirs):
            raise ValueError(
                "diff_with needs matching payload columns "
                f"({[(f.name, str(f.type)) for f in theirs]} vs "
                f"{[(f.name, str(f.type)) for f in mine]})"
            )
        ev: dict[str, str] = dict(other.ckpt.evolved)
        for name, tn in self.ckpt.evolved:
            if ev.get(name, tn) != tn:
                raise ValueError(
                    f"diff_with: column {name!r} evolved to different "
                    f"types in the two lakes ({ev[name]} vs {tn})"
                )
            ev[name] = tn
        ev_to = tuple(sorted(ev.items()))
        r = self._reader()
        old, new = SnapshotReader.of(other).resolve(), r.resolve()
        pairs = [
            (old.get(b), new.get(b)) for b in sorted(set(old) | set(new))
        ]
        return r.dataset(
            r.diff_refs(ev_to, pairs, update_preimages), r.change_schema(ev_to)
        )

    def final_dataset(
        self, as_of: int | None = None, columns: list[str] | None = None
    ) -> "ray.data.Dataset":
        """Live table as a Dataset, one block per bucket group. ``as_of``:
        committed batch id for a time-travel snapshot — returned with the
        schema the table had THEN (an evolution after ``as_of`` does not
        leak null-backfilled columns into history).

        ``columns``: projection pushed down to the Parquet reads — a
        2-column scan of a wide-payload lake reads only those columns
        (plus the fold's own key/seq/deleted columns on a chained bucket)
        instead of shipping ``content`` just to drop it. Output keeps
        canonical column order."""
        r = self._reader()
        return r.dataset(*r.live_refs(as_of, columns))

    def scan(
        self,
        where: list[tuple],
        columns: list[str] | None = None,
        as_of: int | None = None,
    ) -> "ray.data.Dataset":
        """Predicate-pushdown live-table scan. ``where`` is a
        conjunction of ``(col, op, value)`` triples, ``op`` one of
        ``== != < <= > >= in`` (``in`` takes a list). Null never matches
        any op — SQL comparison semantics, including ``!=``.

        A bucket whose state is one file (every rewrite bucket, a folded
        delta bucket; tip and as-of) is opened once and the predicate
        checked against its row-group min/max statistics, so row groups
        that cannot match never decompress — on a lake whose buckets
        were backfill-sorted on the column, most files cost only their
        footer. Files written before the predicate column evolved in
        are skipped whole (their rows are all-null for it). A delta
        chain: a key's LWW winner is only known AFTER the fold —
        filtering pre-fold rows could resurrect a stale version whose
        payload matches — so the bucket folds as usual (with column
        pushdown) and the predicate applies vectorized post-fold. Both
        paths return the same rows (tests/test_scan_where.py)."""
        r = self._reader()
        return r.dataset(*r.live_refs(as_of, columns, where))

    def final_table(
        self, as_of: int | None = None, sort: bool = True
    ) -> pa.Table:
        """Live table assembled driver-side (test/oracle path only).

        ``sort=False`` skips the key sort — the sha path re-sorts
        inside ``table_sha256`` (with a large_string upcast), and a
        driver-side sort of a 10^9-scale table would overflow int32
        string offsets in take."""
        return self._reader().live_table(as_of, sort)

    def history(self) -> pa.Table:
        """Commit log (the Delta-Lake ``DESCRIBE HISTORY`` analog), one
        row per committed batch from the checkpoint manifest — metadata
        only, no data read: batch id, commit wall-clock, operation kind
        (``ingest`` or the DML kind that synthesized the batch),
        event/upsert/delete/dead-letter counts, buckets touched.
        Newest first."""
        return SnapshotReader.of(self).history()

    def resolve_as_of(self, timestamp: float) -> int:
        """TIMESTAMP AS OF -> batch id: the latest batch committed at or
        before the given wall-clock (unix seconds). Compose with any
        as_of-taking read: ``eng.final_table(as_of=eng.resolve_as_of(ts))``
        — reading the resolved snapshot still needs history retained at
        that batch (keep-everything or the retention window). Commit
        times are recorded in the checkpoint manifest at commit time."""
        return self.ckpt.resolve_timestamp(timestamp)

    def final_sha256(self, as_of: int | None = None) -> str:
        return table_sha256(
            self.final_table(as_of, sort=False), self.spec.key_cols
        )

    def fsck(self) -> dict:
        """Lake integrity check (the VACUUM dry-run / fsck an
        operational lake needs): verify every state file the committed
        manifest references exists, and list the lake's state files
        that no snapshot served under the retention policy reads (crash
        leftovers — exactly the set :meth:`gc_orphans` removes; time
        travel files of a history-keeping lake and retired files inside
        the retention window are served, not orphans). Metadata-only:
        O(manifest + lineage + directory listing), no data reads, no
        mutation.

        Returns ``{"ok", "missing", "orphans", "n_referenced"}`` —
        ``ok`` is True iff nothing referenced is missing. Orphans are
        normal debris after a crash inside a commit (deterministic names
        mean a re-run overwrites most of them); MISSING files mean real
        corruption (manual deletion / partial restore)."""
        return SnapshotReader.of(self).fsck()

    def metrics(self) -> dict:
        """Operational rollup from the lineage log: per-batch and total
        events / dead-letters / upserts / deletes / live counts — the
        run-report the reference surfaces through its workflow metrics,
        assembled from the same per-batch manifests the engine already
        commits (no data reads), plus ``last_read``: the counters of this
        engine's latest snapshot read, maintenance rewrite or DML, and
        ``last_lookup``: those of its latest :meth:`lookup`, with the
        process-wide lookup cache's in ``"cache"`` (each None before the
        first)."""
        from glue_etl_pipeline_ray.state.lineage import read_lineage

        per_batch = {}
        for rec in read_lineage(self.lake_dir):
            if rec.get("kind") == "batch_summary":
                per_batch[rec["batch_id"]] = {
                    k: rec[k]
                    for k in (
                        "n_events",
                        "n_dead_lettered",
                        "n_upserts",
                        "n_deletes",
                        "n_live",
                    )
                    if k in rec
                }
        totals = {
            k: sum(s.get(k, 0) for s in per_batch.values())
            for k in ("n_events", "n_dead_lettered", "n_upserts", "n_deletes")
        }
        last = per_batch.get(max(per_batch), {}) if per_batch else {}
        n_live = last.get("n_live")
        if n_live is not None and n_live < 0:
            # -1 is the lineage sentinel for "not counted": a batch the
            # delta sink wrote does not know its buckets' live counts
            n_live = None
        return {
            "watermark": self.ckpt.watermark,
            "n_batches": len(per_batch),
            "totals": totals,
            "n_live": n_live,
            "per_batch": dict(sorted(per_batch.items())),
            # counters of this engine's most recent read: files/bytes
            # opened, rows returned (state rows read by a maintenance or
            # DML map), Ray tasks launched
            "last_read": self._last_read_stats,
            # buckets touched and skipped, files/bytes opened, bytes of
            # column chunks needed and of those served from memory, and
            # the lookup cache's hits/misses/bytes held/evictions
            "last_lookup": self._last_lookup_stats,
        }

    @with_writer_lease
    def redrive_dlq(self, batches: list[int] | None = None, fixer=None) -> dict:
        """Reprocess dead-lettered rows after a fix (the DLQ redrive /
        repair loop every quarantining ingest needs — the reference
        only parks bad JSON in the dirty bucket; this closes the loop).

        Collects the quarantined rows of ``batches`` (default: every
        batch with a DLQ), applies the optional ``fixer`` (a
        ``pa.Table -> pa.Table`` repair, e.g. backfilling a payload),
        and replays them as ONE new batch through the NORMAL pipeline:
        re-validation quarantines still-bad rows under the new batch,
        the merge applies recovered rows with their ORIGINAL ``seq`` —
        so LWW yields exactly the state the stream would have produced
        had the rows never been quarantined (a newer live version still
        wins), and the checkpoint gives the redrive batch exactly-once
        commit semantics. After commit, redriven rows are removed from
        the source DLQ dirs (atomic per-file rewrite).

        Crash-safe by idempotence: a crash before commit re-runs the
        identical redrive batch; a crash after commit but before DLQ
        cleanup re-applies rows whose (key, seq) the merge already
        holds — a no-op under LWW — and the re-run's cleanup still
        prunes the source dirs. Rows are seq-deduplicated so repeated
        crashes never inflate the redrive batch.

        Batch ids collide: the redrive batch takes ``watermark + 1``,
        the id the change stream ships next, and ``replay()`` skips every
        batch id at or below the watermark as already committed. So the
        stream's own batch of that id is never applied once a redrive
        took it — a redrive between two ingest runs loses the next
        stream batch. Run it only after the stream's last batch has been
        replayed (or on a lake whose stream ids leave a gap). Never run
        it concurrently with an ingest run (single-writer engine).
        """
        # self-heal: a crash between a redrive COMMIT and its cleanup
        # leaves the consumed staging file behind; sweep any staging
        # file whose batch is already committed (its rows either live
        # in the table or re-quarantined under its batch id)
        for f in glob.glob(
            os.path.join(self.lake_dir, "_redrive", "batch=*.parquet")
        ):
            if int(BATCH_RE.search(f).group(1)) <= self.ckpt.watermark:
                os.remove(f)
        dlq_root = os.path.join(self.lake_dir, "_dlq")
        src: list[tuple[int, list[str]]] = []
        for d in sorted(glob.glob(os.path.join(dlq_root, "batch=*"))):
            bid = int(BATCH_RE.search(d).group(1))
            if batches is None or bid in batches:
                fs = sorted(glob.glob(os.path.join(d, "*.parquet")))
                if fs:
                    src.append((bid, fs))
        if not src:
            return {"n_redriven": 0, "batch_id": None, "summary": None}
        t = pa.concat_tables(
            [pq.read_table(f) for _, fs in src for f in fs],
            promote_options="permissive",
        )
        if "error" in t.column_names:
            t = t.drop_columns(["error"])
        # seq-dedup: crash replays and multi-generation DLQs can hold
        # the same event twice; one copy is enough (they are identical)
        t = dedup_first_by(t, self.spec.seq_col)
        if fixer is not None:
            t = fixer(t)
        # cleanup set = seqs actually written to the redrive batch,
        # computed AFTER the fixer: rows a fixer drops as unrecoverable
        # stay quarantined in the source DLQ (purging them without
        # reapplying or re-quarantining would silently lose them)
        redriven_seqs = np.unique(
            t[self.spec.seq_col].to_numpy(zero_copy_only=False)
        )
        new_bid = self.ckpt.watermark + 1
        if self.spec.batch_col in t.column_names:
            t = t.drop_columns([self.spec.batch_col])
        t = t.append_column(
            self.spec.batch_col,
            pa.array(np.full(t.num_rows, new_bid, np.int64)),
        )
        redrive_dir = os.path.join(self.lake_dir, "_redrive")
        os.makedirs(redrive_dir, exist_ok=True)
        path = os.path.join(redrive_dir, f"batch={new_bid:05d}.parquet")
        write_atomic(path, t, compression="snappy")
        summary = self.replay(redrive_dir)
        # post-commit cleanup (idempotent): drop redriven rows from the
        # source DLQ dirs and the consumed redrive staging file
        for _, fs in src:
            for f in fs:
                dt = pq.read_table(f)
                dseq = dt[self.spec.seq_col].to_numpy(zero_copy_only=False)
                # sorted-array membership, not a Python set: the 10^9
                # lake's DLQ holds 20M seqs per side
                pos = np.searchsorted(redriven_seqs, dseq)
                pos = np.minimum(pos, len(redriven_seqs) - 1)
                hit = (
                    redriven_seqs[pos] == dseq
                    if len(redriven_seqs)
                    else np.zeros(len(dseq), dtype=bool)
                )
                kept = dt.filter(pa.array(~hit))
                if kept.num_rows == 0:
                    os.remove(f)
                else:
                    write_atomic(f, kept, compression="snappy")
        os.remove(path)
        return {
            "n_redriven": len(redriven_seqs),
            "batch_id": new_bid,
            "summary": summary,
        }

    def lookup(
        self, keys, as_of: int | None = None,
        columns: list[str] | None = None,
        use_filters: bool = True,
    ) -> pa.Table:
        """Point lookups by primary key WITHOUT scanning the lake: each
        requested key hashes to its sink bucket (the same
        ``key_hash_u64 % num_buckets`` the exchange uses), so only the
        touched buckets' files are read — in the driver, no Ray task,
        key columns first and payloads only where a key is live
        (``SnapshotReader.probe``) — I/O proportional to those buckets'
        keys, independent of table size. The index is the layout itself; no
        secondary structure to maintain (the auditor's "what happened to
        key X" query, at serving cost). Footers and decoded column chunks
        are kept in a bounded process-wide cache keyed on each file's
        identity (``snapshot.LOOKUP_CACHE``), so a file is decoded once,
        not once per lookup.

        ``keys``: iterable of key tuples (scalars accepted for
        single-column keys). Returns live rows in canonical layout,
        key-sorted; deleted/absent keys are simply absent. ``as_of``
        time travel follows the same retention rules as
        ``final_dataset`` (only the touched buckets' pointers are
        rebuilt from the lineage log). ``columns``:
        payload projection pushed into the bucket-file reads (same
        contract as ``final_dataset``). An empty key list is validated
        and shaped like a miss."""
        import numpy as np

        from glue_etl_pipeline_ray.hashing import key_hash_u64

        kc = self.spec.key_cols
        skeys = [
            tuple(map(str, k)) if isinstance(k, (tuple, list)) else (str(k),)
            for k in keys
        ]
        if any(len(k) != len(kc) for k in skeys):
            raise ValueError(f"each key must have {len(kc)} parts {kc}")
        r = self._reader()
        evolved = r.evolved(as_of)
        # keys are the result's identity (and the sort key): always kept,
        # whether or not the projection names them
        cols = r.columns(evolved, columns, keep=kc)
        kh = key_hash_u64(
            *(np.array([k[i] for k in skeys], object) for i in range(len(kc)))
        )
        buckets = (kh % np.uint64(self.spec.num_buckets)).astype(np.int64)
        per_bucket: dict[int, list[int]] = {}
        for i, b in enumerate(buckets.tolist()):
            per_bucket.setdefault(b, []).append(i)
        # history gate and as-of pointers for the touched buckets only
        srcs = r.sources(as_of, buckets=per_bucket)
        # Bloom sidecar prefilter (tip reads only — time travel anchors
        # never match): drop touched buckets in which no requested key
        # can possibly exist. No false negatives; stale filters (anchor
        # != current pointer) are ignored, so this only removes reads.
        skipped = 0
        if use_filters and as_of is None and per_bucket:
            for b in self._bloom_misses(srcs, kh, per_bucket):
                del per_bucket[b], srcs[b]
                skipped += 1
        parts, cost = r.probe(
            srcs, {b: [skeys[i] for i in ix] for b, ix in per_bucket.items()},
            evolved, cols,
        )
        self._last_lookup_stats = {
            "buckets_touched": len(per_bucket),
            "buckets_skipped": skipped,
            **r.stats,
            **cost,
            "cache": LOOKUP_CACHE.counters(),
        }
        if not parts:
            # projected schema, same as the non-empty path
            return self.spec.canonical_schema(evolved).empty_table().select(cols)
        out = pa.concat_tables(parts)
        return out.sort_by([(k, "ascending") for k in kc]) if out.num_rows > 1 else out


# ------------------------------------------------------- pipelined replay
def replay_engines(
    engines: list[ReplayEngine],
    events_dir: str,
    max_batches: int | None = None,
    max_events: int | None = None,
    fail_before_commit_of: int | None = None,
) -> list[dict]:
    """Apply each engine's not-yet-committed batches of ``events_dir`` in
    id order, in ONE pipelined pass that reads every batch once for all
    engines taking it. One engine is :meth:`ReplayEngine.replay`; several
    demux one change stream into their lakes through their route filters
    (:class:`~glue_etl_pipeline_ray.pipelines.multi.MultiTableReplayer`).
    The caller holds the engines' writer leases. The arguments are those
    of :meth:`ReplayEngine.replay`, the budget counted per engine.
    Returns one run summary per engine."""
    batches = discover_batches(events_dir)
    committed_before, pending = [], []
    for e in engines:
        e._gc_orphaned_backfill_lineage()
        committed_before.append([b for b, _ in batches if e.ckpt.is_committed(b)])
        pending.append(
            _budget(
                [(b, fs) for b, fs in batches if not e.ckpt.is_committed(b)],
                max_batches,
                max_events,
            )
        )
    summaries = _replay_pipelined(engines, pending, fail_before_commit_of)
    out = []
    for e, done, sums in zip(engines, committed_before, summaries):
        applied = {s["batch_id"] for s in sums}
        # drain any staged-but-uncommitted DML AFTER the ingest batches:
        # DML stages at watermark+1 — the exact id upstream ships next —
        # so if this run consumed that id, resume_dml's token check sees
        # the aliasing and re-stages the DML onto the now-free id; with
        # no collision it simply applies. Either way a crash-orphaned
        # DML can never be silently dropped by a plain ingest run.
        resumed = e.resume_dml()
        # skipped_committed = committed BEFORE this run; batches the
        # max_batches/max_events budget cut are "deferred" — listing them
        # as committed would tell an operator unapplied work is safe
        deferred = [b for b, _ in batches if b not in applied and b not in done]
        out.append({
            "applied_batches": sorted(applied),
            "skipped_committed": done,
            "watermark": e.ckpt.watermark,
            "summaries": sums,
            **({"deferred": deferred} if deferred else {}),
            **({"resumed_dml": resumed} if resumed else {}),
        })
    return out


def _budget(
    pending: list[tuple[int, list[str]]],
    max_batches: int | None,
    max_events: int | None,
) -> list[tuple[int, list[str]]]:
    """Cut ``pending`` to the work budget; at least one batch is always
    taken so a single oversized batch cannot stall the cursor."""
    if max_batches is not None:
        pending = pending[: max(1, max_batches)]
    if max_events is not None and pending:
        # read_file_metas memoizes the footer, so the pipeline's own
        # metadata pass over the same files is a cache hit
        budget, cut = max_events, 0
        for _, fs in pending:
            budget -= sum(md.num_rows for _, md in read_file_metas(fs))
            cut += 1
            if budget <= 0:
                break
        pending = pending[:cut]
    return pending


class _Lane:
    """One engine's side of a pipelined pass: its exchange groups, the
    rewrite sink's per-group merge chains, its evolved columns, its
    ordered commits and its background folds."""

    def __init__(self, eng: ReplayEngine, pending: list[tuple[int, list[str]]]):
        spec = eng.spec
        ne = eng.num_exchange or default_num_exchange(spec)
        ne = max(1, min(ne, spec.num_buckets))
        self.eng = eng
        self.batches = {b for b, _ in pending}
        self.rewrite = eng.state_mode == "rewrite"
        # the rewrite sink chains each group's merges, seeded with the
        # committed bases; the delta sink reads no prior state
        self.prev = eng._merge_seeds(ne) if self.rewrite and pending else [None] * ne
        self.evolved = eng.ckpt.evolved
        self.summaries: list[dict] = []
        # background compaction of delta chains: fold tasks overlap the
        # map and reduce waves (an LSM compacts in the background; the
        # round-2 sync fold was ~20% of wall as a serial pipeline
        # barrier). At most one fold in flight per bucket; results are
        # harvested non-blocking at each commit and blocking at the end
        # of the run. The rewrite sink leaves no chains, so it never folds.
        self.fold_pending: list[tuple] = []
        self.folding: set[int] = set()

    def sink(self, bid: int, metas: list) -> Sink:
        e = self.eng
        for _f, md in metas:
            self.evolved = discover_evolved(
                e.spec, md.schema.to_arrow_schema(), self.evolved
            )
        dlq_dir = os.path.join(e.lake_dir, "_dlq", f"batch={bid:05d}")
        return Sink(
            e.spec, self.evolved, e.event_filter, dlq_dir, e.lake_dir,
            self.prev, e.state_mode,
        )

    def commit(self, bid: int, sink: Sink, refs: list, n_events: int, fail: bool) -> None:
        outs = ray.get(refs)
        records = [r for o in outs for r in o["records"]]
        # a group-file record's chain entry is its [version, group]
        # pair; a merged bucket's new base is its version
        pointers = {
            rec["bucket"]: (
                [rec["version"], rec["group"]] if "group" in rec else rec["version"]
            )
            for rec in records
        }
        self.summaries.append(
            self.eng._finish_batch(
                bid, sink.evolved, n_events, sink.dlq_dir, records, pointers,
                _fail_before_commit=fail,
            )
        )
        # folding is safe concurrently with in-flight delta batches:
        # their reduces never read state. Per-bucket threshold jitter
        # desynchronizes compaction: on a fresh lake every chain hits
        # the base threshold at the SAME batch, and a 64-bucket fold
        # storm competing with the in-flight waves beats the box
        # harder than the serial fold it replaced. Jittered cadences
        # (threshold..2*threshold-1 by bucket) keep folds a steady
        # trickle forever.
        self.harvest_folds(block=False)
        ft = self.eng.fold_threshold
        over = {
            b: d
            for b, d in self.eng.ckpt.bucket_deltas.items()
            if len(d["deltas"]) >= ft + (b % ft) and b not in self.folding
        }
        if over:
            self.folding.update(over)
            self.fold_pending.append(self.eng._submit_folds(over))

    def harvest_folds(self, block: bool) -> None:
        keep = []
        for refs, srcs, wm in self.fold_pending:
            if not block:
                _, rem = ray.wait(refs, num_returns=len(refs), timeout=0)
                if rem:
                    keep.append((refs, srcs, wm))
                    continue
            self.eng._apply_fold_results(refs, srcs, wm)
            self.folding.difference_update(srcs)
        self.fold_pending = keep


def _replay_pipelined(
    engines: list[ReplayEngine],
    pending: list[list[tuple[int, list[str]]]],
    fail_before_commit_of: int | None,
) -> list[list[dict]]:
    """Run ``pending[i]`` through ``engines[i]`` and commit it, every
    batch read by ONE map wave for the engines whose list holds it.
    Map waves for up to ``window`` batches run ahead of the oldest
    batch's commits. Returns each engine's batch summaries."""
    lanes = [_Lane(e, p) for e, p in zip(engines, pending)]
    files_of = {b: fs for p in pending for b, fs in p}
    window = min(e.window for e in engines)
    inflight: list[tuple] = []

    def drain_one() -> None:
        bid, n_events, wave = inflight.pop(0)
        for lane, sink, refs in wave:
            lane.commit(bid, sink, refs, n_events, bid == fail_before_commit_of)

    for bid in sorted(files_of):
        # only the engines listing the batch take part: re-merging a
        # batch an engine committed before this run against its CURRENT
        # state would resurrect keys deleted since, overwrite the
        # historic part file at that version, and rewind its pointers
        takers = [ln for ln in lanes if bid in ln.batches]
        # ONE footer read per file serves schema discovery, the event
        # count, and the chunk plan (read_file_metas)
        metas = read_file_metas(files_of[bid])
        sinks = [ln.sink(bid, metas) for ln in takers]
        refs = submit_batch(sinks, files_of[bid], bid, metas=metas)
        for ln, r in zip(takers, refs):
            if ln.rewrite:
                ln.prev = r
        n_events = sum(md.num_rows for _, md in metas)
        inflight.append((bid, n_events, list(zip(takers, sinks, refs))))
        if len(inflight) >= window:
            drain_one()
    while inflight:
        drain_one()
    for ln in lanes:
        ln.harvest_folds(block=True)
    return [ln.summaries for ln in lanes]
