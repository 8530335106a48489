"""The change-event replayer: pipelined micro-batch cursor over the event lake.

Ray-native re-expression of the reference's 7-job Glue workflow
(SURVEY.md 3.1-3.2). Per micro-batch:

    plan row-group chunks                      # pre-job work-list analog
      -> map tasks: read -> validate(+DLQ)     # profile-job analog
                    -> evolve -> partial LWW   # flat-job fix-ups analog
                    -> split by bucket range   # map side of the shuffle
      -> merge tasks: per-bucket LWW vs prior  # convert-job analog +
                      versioned state file     # idempotent sink
    drain in order: lineage + checkpoint commit + old-version GC  # post-job

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

Scale notes (100 TB / multi-node): shuffle volume per batch is bounded by
distinct keys per chunk (partial LWW combiner); object count is
``chunks x num_exchange`` — both independent of the sink bucket count
``num_buckets`` (2^16 at 100 TB while num_exchange tracks cluster cores).
``lake_dir`` would be shared storage (S3/NFS) on a real cluster. Fixed
``split_rows`` keeps per-task efficiency uniform across cluster sizes.
"""

from __future__ import annotations

import glob
import os
import time
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from glue_etl_pipeline_ray.hashing import table_sha256
from glue_etl_pipeline_ray.spec import TableSpec, type_from_name
from glue_etl_pipeline_ray.stages.evolve import conform, discover_evolved, make_evolve_fn
from glue_etl_pipeline_ray.stages.exchange import (
    default_num_exchange,
    group_of,
    read_file_metas,
    submit_batch,
)
from glue_etl_pipeline_ray.stages.merge import (
    DELETED_COL,
    make_merge_fn,
    part_name,
    state_schema,
)
from glue_etl_pipeline_ray.stages.partial import BUCKET_COL, make_partial_lww
from glue_etl_pipeline_ray.stages.validate import ValidateFn
from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager
from glue_etl_pipeline_ray.state.lineage import write_lineage

_BATCH_RE = re.compile(r"batch=(\d+)")


def discover_batches(events_dir: str) -> list[tuple[int, list[str]]]:
    """Map batch_id -> parquet file list; supports ``batch=N.parquet``
    files and ``batch=N/`` directories."""
    out: dict[int, list[str]] = {}
    for entry in sorted(glob.glob(os.path.join(events_dir, "batch=*"))):
        m = _BATCH_RE.search(os.path.basename(entry))
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


def _with_writer_lease(fn):
    """Guard a mutating ReplayEngine method with the single-writer
    lease when ``writer_lease=True``. Reentrant within one engine
    (``redrive_dlq`` calls ``replay``); held only for the call's
    duration so sequential writers never wait on a ttl."""
    import functools

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        if not getattr(self, "writer_lease", False) or self._active_lease:
            return fn(self, *args, **kwargs)
        from glue_etl_pipeline_ray.state.lease import WriterLease

        lease = WriterLease(self.lake_dir, ttl_s=self.lease_ttl_s).acquire()
        self._active_lease = lease
        try:
            return fn(self, *args, **kwargs)
        finally:
            self._active_lease = None
            lease.release()

    return wrapped


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


class ReplayEngine:
    def __init__(
        self,
        spec: TableSpec,
        lake_dir: str,
        compute_bucket_hash: bool = True,
        validate_batch_size: int | None = None,
        exchange: str = "raycore",
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
        """``exchange``: "raycore" (default) = pipelined map-side-partition
        shuffle on Ray core (stages/exchange.py); "groupby" = pure Dataset
        ``groupby(bucket).map_groups`` path, one batch at a time. Both
        produce byte-identical lake state (tested). ``window``: max
        batches in flight before the oldest is drained + committed.

        ``state_mode``: "rewrite" (default) merges each touched bucket
        against its prior state every batch — O(state) per batch, simplest
        reads. "delta" (LSM path, raycore only) appends per-batch delta
        files with NO prior-state read — O(batch) per batch, mandatory
        when state >> batch (the 10^10-event regime); reads fold
        base+deltas and buckets exceeding ``fold_threshold`` deltas are
        compacted in the background of the commit loop.

        ``retain_batches``: bounded history (the Delta-Lake retention
        model, the 10^10-scale middle ground between eager GC and
        keep-everything): superseded state files stay readable until the
        watermark passes them by N batches, so time travel and the change
        feed work for any ``as_of >= watermark - N`` while storage stays
        O(state + N batches of churn). Consumers (views, replicas) must
        sync at least every N batches. Both modes: rewrite retires
        superseded part files; delta retires fold-superseded delta/base
        files (tagged with the fold version) and anchors as-of rebuilds
        on the newest fold at or below the requested batch.

        ``writer_lease``: make the single-writer assumption explicit —
        every mutating call (replay/compact/gc/backfill/redrive/reshard)
        holds ``_checkpoint/WRITER_LOCK`` for its duration and a second
        live writer raises ``ConcurrentWriter`` instead of racing the
        manifest; a lock whose holder died (no heartbeat for
        ``lease_ttl_s``) is taken over atomically (state/lease.py)."""
        if exchange not in ("raycore", "groupby"):
            raise ValueError(f"unknown exchange mode: {exchange}")
        if state_mode not in ("rewrite", "delta"):
            raise ValueError(f"unknown state mode: {state_mode}")
        if state_mode == "delta" and exchange == "groupby":
            raise ValueError("state_mode='delta' requires exchange='raycore'")
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
        self.compute_bucket_hash = compute_bucket_hash
        self.validate_batch_size = validate_batch_size
        self.exchange = exchange
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
        os.makedirs(lake_dir, exist_ok=True)
        self.ckpt = CheckpointManager(lake_dir)

    # ---------------------------------------------------------------- replay
    @_with_writer_lease
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
        self._gc_orphaned_backfill_lineage()
        batches = discover_batches(events_dir)
        committed_before = [
            b for b, _ in batches if self.ckpt.is_committed(b)
        ]
        pending = [(b, fs) for b, fs in batches if not self.ckpt.is_committed(b)]
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
        if self.exchange == "raycore":
            summaries = self._replay_pipelined(pending, fail_before_commit_of)
        else:
            summaries = [
                self.apply_batch(b, fs, _fail_before_commit=(b == fail_before_commit_of))
                for b, fs in pending
            ]
        applied = {s["batch_id"] for s in summaries}
        # drain any staged-but-uncommitted DML AFTER the ingest batches:
        # DML stages at watermark+1 — the exact id upstream ships next —
        # so if this run consumed that id, resume_dml's token check sees
        # the aliasing and re-stages the DML onto the now-free id; with
        # no collision it simply applies. Either way a crash-orphaned
        # DML can never be silently dropped by a plain ingest run.
        resumed = self.resume_dml()
        # skipped_committed = committed BEFORE this run; batches the
        # max_batches/max_events budget cut are "deferred" — listing them
        # as committed would tell an operator unapplied work is safe
        deferred = [
            b
            for b, _ in batches
            if b not in applied and b not in committed_before
        ]
        return {
            "applied_batches": sorted(applied),
            "skipped_committed": committed_before,
            "watermark": self.ckpt.watermark,
            "summaries": summaries,
            **({"deferred": deferred} if deferred else {}),
            **({"resumed_dml": resumed} if resumed else {}),
        }

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

    # ------------------------------------------------- raycore (pipelined)
    def _replay_pipelined(
        self, pending: list[tuple[int, list[str]]], fail_before_commit_of: int | None
    ) -> list[dict]:
        spec = self.spec
        ne = self.num_exchange or default_num_exchange(spec)
        ne = max(1, min(ne, spec.num_buckets))
        # seed each group's chain with the committed snapshot pointers
        prev_by_group: list = [
            {"versions": {}} for _ in range(ne)
        ]
        for b, v in self.ckpt.bucket_versions.items():
            prev_by_group[group_of(b, ne, spec.num_buckets)]["versions"][b] = v

        evolved = self.ckpt.evolved
        inflight: list[dict] = []
        summaries: list[dict] = []
        # delta-mode background compaction: fold tasks overlap the map and
        # reduce waves (an LSM compacts in the background; the round-2 sync
        # fold was ~20% of wall as a serial pipeline barrier). At most one
        # fold in flight per bucket; results are harvested non-blocking at
        # each drain and blocking at the end of the run.
        fold_pending: list[tuple[list, dict, dict]] = []
        folding: set[int] = set()

        def harvest_folds(block: bool) -> None:
            nonlocal fold_pending
            keep = []
            for refs, folds, old_bases in fold_pending:
                if not block:
                    _, rem = ray.wait(refs, num_returns=len(refs), timeout=0)
                    if rem:
                        keep.append((refs, folds, old_bases))
                        continue
                ray.get(refs)
                self._apply_fold_results(folds, old_bases)
                folding.difference_update(folds)
            fold_pending = keep

        def drain_one() -> None:
            fl = inflight.pop(0)
            outs = ray.get(fl["merge_refs"])
            records = [r for o in outs for r in o["records"]]
            new_versions: dict[int, object] = {}
            for o in outs:
                for rec in o["records"]:
                    # delta group-file records carry the exchange group id;
                    # their chain pointer is the [version, group] pair
                    new_versions[rec["bucket"]] = (
                        [rec["version"], rec["group"]]
                        if "group" in rec
                        else rec["version"]
                    )
            summaries.append(
                self._finish_batch(
                    fl["batch_id"],
                    fl["evolved"],
                    fl["n_events"],
                    fl["dlq_dir"],
                    records,
                    new_versions,
                    _fail_before_commit=(fl["batch_id"] == fail_before_commit_of),
                )
            )
            if self.state_mode == "delta":
                # compact buckets whose delta chains grew past threshold;
                # delta-mode merges never read state, so folding is safe
                # concurrently with in-flight batches — submit and move on
                harvest_folds(block=False)
                # per-bucket threshold jitter desynchronizes compaction: on
                # a fresh lake every chain hits the base threshold at the
                # SAME batch, and a 64-bucket fold storm competing with the
                # in-flight waves beats the box harder than the serial fold
                # it replaced. Jittered cadences (threshold..2*threshold-1
                # by bucket) keep folds a steady trickle forever.
                ft = self.fold_threshold
                over = {
                    b: d
                    for b, d in self.ckpt.bucket_deltas.items()
                    if len(d["deltas"]) >= ft + (b % ft)
                    and b not in folding
                }
                if over:
                    folding.update(over)
                    fold_pending.append(self._submit_folds(over))

        for bid, files in pending:
            # ONE footer read per file serves schema discovery, the
            # event count, and the chunk plan (read_file_metas)
            metas = read_file_metas(files)
            for _f, md in metas:
                evolved = discover_evolved(
                    spec, md.schema.to_arrow_schema(), evolved
                )
            dlq_dir = os.path.join(self.lake_dir, "_dlq", f"batch={bid:05d}")
            n_events = sum(md.num_rows for _, md in metas)
            merge_refs = submit_batch(
                spec,
                evolved,
                files,
                self.lake_dir,
                dlq_dir,
                bid,
                prev_by_group,
                compute_hash=self.compute_bucket_hash,
                num_exchange=ne,
                state_mode=self.state_mode,
                event_filter=self.event_filter,
                metas=metas,
            )
            if self.state_mode == "rewrite":
                # chain per-group merges; delta merges are independent
                prev_by_group = merge_refs
            inflight.append(
                {
                    "batch_id": bid,
                    "evolved": evolved,
                    "n_events": n_events,
                    "dlq_dir": dlq_dir,
                    "merge_refs": merge_refs,
                }
            )
            if len(inflight) >= self.window:
                drain_one()
        while inflight:
            drain_one()
        harvest_folds(block=True)
        # folds harvested after the last commit retire files with no
        # commit following to purge them — sweep once at the end so the
        # retention bound holds at rest, not only mid-stream
        if (
            self.state_mode == "delta"
            and self.gc_old_versions
            and self.retain_batches is not None
            and self.ckpt.watermark >= 0
        ):
            horizon = self.ckpt.watermark - self.retain_batches
            for fname in self.ckpt.purge_retired_files(horizon):
                try:
                    os.remove(os.path.join(self.lake_dir, fname))
                except FileNotFoundError:
                    pass
        return summaries

    # ------------------------------------------------- groupby (per batch)
    def apply_batch(
        self, batch_id: int, files: list[str], _fail_before_commit: bool = False
    ) -> dict:
        spec = self.spec
        evolved = self.ckpt.evolved
        metas = read_file_metas(files)
        for _f, md in metas:
            evolved = discover_evolved(spec, md.schema.to_arrow_schema(), evolved)

        dlq_dir = os.path.join(self.lake_dir, "_dlq", f"batch={batch_id:05d}")
        n_events = sum(md.num_rows for _, md in metas)

        ds = ray.data.read_parquet(files)
        if self.event_filter is not None:
            ds = ds.map_batches(
                self.event_filter, batch_format="pyarrow", batch_size=None
            )
        ds = ds.map_batches(
            ValidateFn(spec, dlq_dir),
            batch_format="pyarrow",
            batch_size=self.validate_batch_size,
            zero_copy_batch=True,
        )
        ds = ds.map_batches(
            make_evolve_fn(spec, evolved),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        ds = ds.map_batches(
            make_partial_lww(spec, spec.num_buckets),
            batch_format="pyarrow",
            batch_size=None,
        )
        merge_fn = make_merge_fn(
            spec,
            evolved,
            self.lake_dir,
            self.ckpt.bucket_versions,
            batch_id,
            compute_hash=self.compute_bucket_hash,
        )
        lineage_ds = ds.groupby(BUCKET_COL).map_groups(
            merge_fn, batch_format="pyarrow"
        )
        records = lineage_ds.take_all()  # <= num_buckets tiny rows
        new_versions = {r["bucket"]: r["version"] for r in records}
        return self._finish_batch(
            batch_id, evolved, n_events, dlq_dir, records, new_versions,
            _fail_before_commit,
        )

    # ----------------------------------------------------- commit + GC
    def _finish_batch(
        self,
        batch_id: int,
        evolved: tuple[tuple[str, str], ...],
        n_events: int,
        dlq_dir: str,
        records: list[dict],
        new_versions: dict[int, int],
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
        delta = self.state_mode == "delta"
        summary = {
            "batch_id": batch_id,
            "n_events": n_events,
            "n_dead_lettered": n_dlq,
            "n_merged_events": sum(r["n_events"] for r in records),
            "n_upserts": sum(r["n_upserts"] for r in records),
            "n_deletes": sum(r["n_deletes"] for r in records),
            # per-batch live counts require reading state — deferred to
            # reads/compaction in delta mode
            "n_live": -1 if delta else sum(r["n_live"] for r in records),
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
        old_versions = self.ckpt.bucket_versions
        write_lineage(self.lake_dir, batch_id, records, summary)
        if delta:
            self.ckpt.commit_batch(
                batch_id, evolved, summary, new_deltas=new_versions
            )
            if self.gc_old_versions and self.retain_batches is not None:
                horizon = self.ckpt.watermark - self.retain_batches
                for fname in self.ckpt.purge_retired_files(horizon):
                    try:
                        os.remove(os.path.join(self.lake_dir, fname))
                    except FileNotFoundError:
                        pass
            return summary
        self.ckpt.commit_batch(batch_id, evolved, summary, new_versions)
        # GC superseded state files (post-commit, so a crash mid-GC only
        # leaves extra files, never dangling pointers). Keep history when
        # time-travel reads are wanted (gc_old_versions=False).
        if not self.gc_old_versions:
            return summary
        if self.retain_batches is not None:
            # bounded retention: record superseded files, delete only the
            # ones every snapshot inside the window has outgrown
            retired = [
                [b, v_old, batch_id]
                for b, v_new in new_versions.items()
                if (v_old := old_versions.get(b)) is not None and v_old != v_new
            ]
            self.ckpt.retire_versions(retired)
            horizon = self.ckpt.watermark - self.retain_batches
            for b, v_old, _at in self.ckpt.purge_retired(horizon):
                try:
                    os.remove(os.path.join(self.lake_dir, part_name(b, v_old)))
                except FileNotFoundError:
                    pass
            return summary
        for b, v_new in new_versions.items():
            v_old = old_versions.get(b)
            if v_old is not None and v_old != v_new:
                try:
                    os.remove(os.path.join(self.lake_dir, part_name(b, v_old)))
                except FileNotFoundError:
                    pass
        return summary

    # -------------------------------------------------- delta-mode folding
    def _submit_folds(
        self, targets: dict[int, dict], min_retained_seq: int | None = "keep"
    ) -> tuple[list, dict, dict]:
        """Submit fold tasks WITHOUT blocking: fold base+deltas into a new
        base at the current watermark. Returns ``(refs, folds, old_bases)``
        for :meth:`_apply_fold_results` once the refs resolve. The chain
        snapshot in ``targets`` is taken at submit time — deltas committed
        afterwards have versions > the watermark captured here, so the new
        base plus the remaining chain stays a correct LWW prefix.
        ``min_retained_seq="keep"`` keeps all tombstones (safe default
        during replay); None/int follows :meth:`compact` semantics."""
        wm = self.ckpt.watermark
        spec, evolved = self.spec, self.ckpt.evolved

        @ray.remote
        def fold_one(lake_dir, bucket, base, deltas, wm, horizon):
            from glue_etl_pipeline_ray.stages.merge import (
                part_name as _pn,
                read_bucket_state,
                write_atomic,
            )

            st = read_bucket_state(spec, evolved, lake_dir, base, deltas, bucket)
            if horizon != "keep":
                dead = st[DELETED_COL]
                drop = dead if horizon is None else pc.and_(
                    dead, pc.less(st["__seq"], horizon)
                )
                st = st.filter(pc.invert(pc.fill_null(drop, False)))
            write_atomic(os.path.join(lake_dir, _pn(bucket, wm)), st)
            return bucket

        refs = [
            fold_one.remote(
                self.lake_dir, b, d["base"], d["deltas"], wm, min_retained_seq
            )
            for b, d in targets.items()
        ]
        folds = {
            b: {"base": wm, "folded_deltas": list(d["deltas"])}
            for b, d in targets.items()
        }
        old_bases = {b: d["base"] for b, d in targets.items()}
        return refs, folds, old_bases

    def _apply_fold_results(self, folds: dict[int, dict], old_bases: dict) -> None:
        """Record completed folds in the manifest, then GC the folded
        files. Crash before this point only leaves orphan base files
        (never dangling pointers); :meth:`gc_orphans` reclaims them."""
        self.ckpt.apply_folds(folds)
        if not self.gc_old_versions:
            # keep folded files on disk: time-travel reads rebuild any
            # as-of state from the full delta chain in the lineage log
            return
        # GC post-commit: folded deltas + superseded bases. Per-bucket
        # delta files die with their bucket's fold; a group delta file is
        # shared by every bucket in its exchange group (buckets fold on
        # jittered cadences), so it is removed only once NO remaining
        # chain references its (version, group).
        from glue_etl_pipeline_ray.stages.merge import delta_name, gdelta_name

        # bounded retention (retain_batches=N, delta mode): a file made
        # redundant by a fold at version F is still the ONLY source for
        # as-of < F reads, so retire it tagged F and delete it only once
        # the horizon passes F (purge happens in the delta commit path)
        retire: list[tuple[str, int]] = [] if self.retain_batches else None

        def _drop(fname: str, superseded_at: int) -> None:
            if retire is not None:
                retire.append((fname, superseded_at))
                return
            try:
                os.remove(os.path.join(self.lake_dir, fname))
            except FileNotFoundError:
                pass

        folded_group_files: set[tuple[int, int]] = set()
        for b, f in folds.items():
            for ent in f["folded_deltas"]:
                if isinstance(ent, (list, tuple)):
                    folded_group_files.add((int(ent[0]), int(ent[1])))
                    continue
                _drop(delta_name(b, ent), f["base"])
            ob = old_bases[b]
            if ob is not None and ob != f["base"]:
                _drop(part_name(b, ob), f["base"])
        if folded_group_files:
            still_referenced = {
                (int(ent[0]), int(ent[1]))
                for d in self.ckpt.bucket_deltas.values()
                for ent in d["deltas"]
                if isinstance(ent, (list, tuple))
            }
            fold_wm = max(f["base"] for f in folds.values())
            for v, g in folded_group_files - still_referenced:
                _drop(gdelta_name(g, v), fold_wm)
        if retire:
            self.ckpt.retire_files(retire)

    def _fold_buckets(
        self, targets: dict[int, dict], min_retained_seq: int | None = "keep"
    ) -> int:
        """Synchronous fold (explicit :meth:`compact` / time-travel paths);
        the replay loop uses the submit/apply halves to overlap folding
        with in-flight batches."""
        refs, folds, old_bases = self._submit_folds(targets, min_retained_seq)
        ray.get(refs)
        self._apply_fold_results(folds, old_bases)
        return len(targets)

    # ------------------------------------------------------------- orphan GC
    @_with_writer_lease
    def gc_orphans(self) -> int:
        """Delete state/delta files that are newer than the watermark and
        not referenced by the committed manifest — leftovers of a crash
        inside the at-least-once window (a resumed run overwrites the ones
        it re-creates; this clears the rest). Files at or below the
        watermark are never touched (time-travel history)."""
        referenced = {
            part_name(b, v) for b, v in self.ckpt.bucket_versions.items()
        }
        from glue_etl_pipeline_ray.stages.merge import delta_name, gdelta_name

        for b, d in self.ckpt.bucket_deltas.items():
            if d["base"] is not None:
                referenced.add(part_name(b, d["base"]))
            for ent in d["deltas"]:
                referenced.add(
                    gdelta_name(int(ent[1]), int(ent[0]))
                    if isinstance(ent, (list, tuple))
                    else delta_name(b, ent)
                )
        # files retired but not yet purged are committed history, not
        # orphans (same exclusion fsck applies)
        retired = {
            fname for fname, _ in self.ckpt._m.get("retired_files", [])
        } | {
            part_name(b, v)
            for b, v, *_ in self.ckpt._m.get("retired", [])
        }
        # the backfill namespace (10^9 + wm) defeats the "version >
        # watermark means uncommitted" test: a committed backfill's files
        # are ALWAYS numbered above any watermark, so judge them by the
        # backfill ledger instead
        backfilled_wms = {
            bf.get("watermark") for bf in self.ckpt.backfills
        }
        wm = self.ckpt.watermark
        pat = re.compile(r"(?:part|delta|gdelta)-(\d+)-v(\d+)\.parquet$")
        n = 0
        for f in glob.glob(os.path.join(self.lake_dir, "part-*.parquet")) + glob.glob(
            os.path.join(self.lake_dir, "*delta-*.parquet")
        ):
            name = os.path.basename(f)
            m = pat.match(name)
            if not m or name in referenced or name in retired:
                continue
            v = int(m.group(2))
            if v >= 1_000_000_000:
                # backfill file: orphan only if no backfill committed at
                # its watermark (crash leftover a re-run overwrites)
                orphan = (v - 1_000_000_000) not in backfilled_wms
            else:
                orphan = v > wm
            if orphan:
                try:
                    os.remove(f)
                    n += 1
                except FileNotFoundError:
                    pass
        return n

    @_with_writer_lease
    def gc_dml_staging(self) -> int:
        """Remove staged ``_dml/batch=N`` directories the lake no longer
        needs, following the lake's retention discipline: committed
        stages are crash-recovery dead weight (plain GC mode removes
        them immediately; a ``retain_batches`` lake keeps them until the
        horizon passes, matching state-file retention; a keep-everything
        lake keeps them forever — they are the synthesized batches'
        event source of truth for audit/replay). Uncommitted stages are
        NEVER touched (resume_dml owns those). Returns dirs removed."""
        import shutil

        if not self.gc_old_versions:
            return 0
        root = self._dml_root()
        if not os.path.isdir(root):
            return 0
        horizon = (
            self.ckpt.watermark - self.retain_batches
            if self.retain_batches is not None
            else self.ckpt.watermark
        )
        import json as _json

        n = 0
        for d in sorted(os.listdir(root)):
            m = _BATCH_RE.search(d)
            if not m:
                continue
            bid = int(m.group(1))
            if bid <= horizon and self.ckpt.is_committed(bid):
                # only purge stages whose commit is OURS: a tokened stage
                # whose batch id was taken by an ingest commit is still
                # pending (resume_dml re-stages it) — purging it here
                # would silently lose the requested DML
                man = os.path.join(root, d, "MANIFEST.json")
                if os.path.exists(man):
                    try:
                        token = _json.load(open(man)).get("token")
                    except (OSError, ValueError):
                        token = None
                    if token and self.ckpt._m["batches"].get(
                        str(bid), {}
                    ).get("dml_token") != token:
                        continue
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
                n += 1
        return n

    # ------------------------------------------------------------ compaction
    @_with_writer_lease
    def compact(self, min_retained_seq: int | None = None) -> dict:
        """Drop tombstones from the committed state (LSM-style compaction).

        A tombstone is only needed to beat a *late* event with a smaller
        ``seq`` arriving in a future batch. ``min_retained_seq`` declares
        the lateness horizon: tombstones with ``seq >= min_retained_seq``
        are kept; default (None) drops them all (caller asserts no late
        data — the reference's pipeline has the same property once a file
        set is committed, ``update_workflow_properties.py:141-165``).

        Rewrites each affected bucket at version = current watermark (a
        committed batch id can never be re-run, so overwriting that
        version is safe), updates the manifest, GCs old files. Runs as
        parallel Ray tasks, one per bucket."""
        wm = self.ckpt.watermark
        if wm < 0:
            return {"compacted_buckets": 0, "dropped_tombstones": 0}
        if self.state_mode == "delta":
            n = self._fold_buckets(self.ckpt.bucket_deltas, min_retained_seq)
            return {"compacted_buckets": n, "dropped_tombstones": -1}
        versions = self.ckpt.bucket_versions
        horizon = min_retained_seq

        @ray.remote
        def compact_bucket(lake_dir: str, bucket: int, version: int, wm: int, horizon):
            t = pq.read_table(os.path.join(lake_dir, part_name(bucket, version)))
            dead = t[DELETED_COL]
            drop = dead if horizon is None else pc.and_(
                dead, pc.less(t["__seq"], horizon)
            )
            n_drop = pc.sum(drop).as_py() or 0
            if n_drop == 0:
                return (bucket, version, 0)
            out = t.filter(pc.invert(pc.fill_null(drop, False)))
            from glue_etl_pipeline_ray.stages.merge import write_atomic

            write_atomic(os.path.join(lake_dir, part_name(bucket, wm)), out)
            return (bucket, wm, n_drop)

        results = ray.get(
            [
                compact_bucket.remote(self.lake_dir, b, v, wm, horizon)
                for b, v in sorted(versions.items())
            ]
        )
        new_versions = {b: v for b, v, n in results if n > 0}
        dropped = sum(n for _, _, n in results)
        if new_versions:
            summary = {
                "kind": "compaction",
                "watermark": wm,
                "compacted_buckets": len(new_versions),
                "dropped_tombstones": dropped,
            }
            self.ckpt.record_compaction(summary, new_versions)
            # on a history-retaining lake (gc_old_versions=False) the old
            # versions back time-travel snapshot pointers — keep them, like
            # _fold_buckets does
            if self.gc_old_versions:
                for b, v_new in new_versions.items():
                    v_old = versions.get(b)
                    if v_old is not None and v_old != v_new:
                        try:
                            os.remove(
                                os.path.join(self.lake_dir, part_name(b, v_old))
                            )
                        except FileNotFoundError:
                            pass
        return {"compacted_buckets": len(new_versions), "dropped_tombstones": dropped}

    # --------------------------------------------------------------- backfill
    @_with_writer_lease
    def optimize_sort(
        self,
        sort_col: str,
        row_group_rows: int = 65536,
        _fail_before_commit: bool = False,
    ) -> dict:
        """Cluster every bucket's state file by ``sort_col`` — the
        single-column OPTIMIZE/clustering pass of a lakehouse, run
        in-place under backfill's crash-safety discipline (deterministic
        ``10^9 + watermark`` out-version, ONE atomic manifest commit,
        one rewrite per watermark). A pure row PERMUTATION: payload,
        seq and tombstone flags all ride the same ``take``, so logical
        content — and every sha — is unchanged; what changes is the
        Parquet row-group min/max statistics on the column, which a
        subsequent ``scan(where=[(sort_col, ...)])`` turns into skipped
        row groups instead of decompressed ones. Nulls (hence tombstone
        payloads) sort last; key columns break ties so the permutation
        is deterministic under any parallelism. Delta mode folds each
        chain to a single base first (the fold is its own committed
        step), then sorts the base."""
        from glue_etl_pipeline_ray.stages.merge import write_atomic

        wm = self.ckpt.watermark
        if wm < 0:
            raise ValueError("nothing to optimize: empty lake")
        spec = self.spec
        evolved = self.ckpt.evolved
        if sort_col not in spec.canonical_cols(evolved):
            raise ValueError(f"unknown sort column {sort_col!r}")
        if any(bf.get("watermark") == wm for bf in self.ckpt.backfills):
            raise ValueError(
                f"already rewritten at watermark {wm}: apply another "
                "batch before optimizing again (the shared one-rewrite-"
                "per-watermark ledger keeps re-runs reading pristine "
                "inputs)"
            )
        out_v = 1_000_000_000 + wm

        if self.state_mode == "delta":
            targets = {
                b: d
                for b, d in self.ckpt.bucket_deltas.items()
                if d["deltas"]
            }
            if targets:
                self._fold_buckets(targets)
            in_versions = {
                b: d["base"]
                for b, d in self.ckpt.bucket_deltas.items()
                if d["base"] is not None
            }
        else:
            in_versions = self.ckpt.bucket_versions

        @ray.remote
        def sort_bucket(lake_dir: str, bucket: int, in_version: int) -> int:
            st = state_schema(spec, evolved)
            t = conform(
                pq.read_table(
                    os.path.join(lake_dir, part_name(bucket, in_version))
                ),
                st,
            )
            idx = pc.sort_indices(
                t,
                sort_keys=[(sort_col, "ascending")]
                + [(k, "ascending") for k in spec.key_cols],
                null_placement="at_end",
            )
            # bounded row groups: sorted data + small groups = tight
            # min/max stats the scanner can actually skip on
            write_atomic(
                os.path.join(lake_dir, part_name(bucket, out_v)),
                t.take(idx),
                row_group_size=row_group_rows,
            )
            return bucket

        ray.get(
            [
                sort_bucket.remote(self.lake_dir, b, v)
                for b, v in sorted(in_versions.items())
            ]
        )
        summary = {
            "kind": "optimize_sort",
            "watermark": wm,
            "sort_col": sort_col,
            "buckets": len(in_versions),
            "out_version": out_v,
        }
        if _fail_before_commit:
            raise RuntimeError("injected crash before optimize commit")
        new_ptrs = {b: out_v for b in in_versions}
        self._write_backfill_lineage(wm, new_ptrs)
        if self.state_mode == "delta":
            self.ckpt.record_backfill(summary, None, new_ptrs, evolved)
        else:
            self.ckpt.record_backfill(summary, new_ptrs, None, evolved)
        if self.gc_old_versions:
            if self.retain_batches:
                sup = [
                    (b, v) for b, v in in_versions.items() if v != out_v
                ]
                if self.state_mode == "delta":
                    self.ckpt.retire_files(
                        [(part_name(b, v), wm + 1) for b, v in sup]
                    )
                else:
                    self.ckpt.retire_versions(
                        [[b, v, wm + 1] for b, v in sup]
                    )
            else:
                for b, v_old in in_versions.items():
                    if v_old == out_v:
                        continue
                    try:
                        os.remove(
                            os.path.join(self.lake_dir, part_name(b, v_old))
                        )
                    except FileNotFoundError:
                        pass
        return summary

    @_with_writer_lease
    def backfill(self, transform, _fail_before_commit: bool = False) -> dict:
        """Lake-wide payload transform (recompute a column, or ADD one
        derived from existing data) as a crash-safe in-place version
        bump — compaction's discipline, not a change batch, so per-row
        ``seq`` values are untouched and upstream LWW ordering is never
        disturbed.

        ``transform``: ``pa.Table -> pa.Table`` over ONE bucket's live
        rows in canonical layout; must return the same row count with
        identical key-column values (order preserved). Columns it adds
        become schema evolution (registered exactly as if they had
        arrived via a change batch; tombstone rows carry nulls); key
        columns must not change; existing columns must keep their types.

        Crash safety: every bucket writes to a deterministic version in
        a namespace no batch can collide with (``10^9 + watermark``),
        then ONE atomic manifest write commits pointers + ledger +
        evolution registry. A crash before that write leaves only
        orphans a re-run overwrites; the ledger allows one backfill per
        watermark (re-running at the same watermark after success
        raises — advance the watermark first), which is what makes the
        re-run read pristine inputs. Delta mode folds each chain to a
        single base first (tombstones kept), then rewrites the base.

        On a history-retaining lake (``gc_old_versions=False``) the old
        versions stay on disk, so ``final_table(as_of=...)`` keeps
        resolving pre-backfill snapshots with the pre-backfill schema.

        History/feed visibility: the backfill redefines state starting
        at the NEXT span — ``as_of <= wm`` resolves pre-backfill,
        ``as_of >= wm+1`` post-backfill, and the change feed
        ``(wm, wm+1]`` carries the backfill's diffs for EVERY bucket
        alongside batch ``wm+1``'s own changes (so replicas and
        incremental views converge once they sync past ``wm``; a
        replica anchored exactly at ``wm`` converges with its next
        sync after batch ``wm+1`` lands)."""
        from glue_etl_pipeline_ray.spec import type_name
        from glue_etl_pipeline_ray.stages.merge import (
            SEQ_COL,
            write_atomic,
        )

        wm = self.ckpt.watermark
        if wm < 0:
            raise ValueError("nothing to backfill: empty lake")
        if any(bf.get("watermark") == wm for bf in self.ckpt.backfills):
            raise ValueError(
                f"already backfilled at watermark {wm}: apply another "
                "batch before backfilling again (one backfill per "
                "watermark keeps re-runs reading pristine inputs)"
            )
        out_v = 1_000_000_000 + wm
        spec = self.spec
        evolved = self.ckpt.evolved

        if self.state_mode == "delta":
            targets = {
                b: d
                for b, d in self.ckpt.bucket_deltas.items()
                if d["deltas"]
            }
            if targets:
                self._fold_buckets(targets)
            in_versions = {
                b: d["base"]
                for b, d in self.ckpt.bucket_deltas.items()
                if d["base"] is not None
            }
        else:
            in_versions = self.ckpt.bucket_versions

        @ray.remote
        def backfill_bucket(
            lake_dir: str, bucket: int, in_version: int
        ) -> tuple:
            st = state_schema(spec, evolved)
            t = conform(
                pq.read_table(
                    os.path.join(lake_dir, part_name(bucket, in_version))
                ),
                st,
            )
            dead = pc.fill_null(t[DELETED_COL], False)
            live = t.filter(pc.invert(dead))
            canon_cols = spec.canonical_cols(evolved)
            canon = live.select(canon_cols)
            out = transform(canon)
            if out.num_rows != canon.num_rows:
                raise ValueError(
                    f"backfill transform changed the row count in bucket "
                    f"{bucket}: {canon.num_rows} -> {out.num_rows}"
                )
            for k in spec.key_cols:
                same = pc.all(
                    pc.fill_null(pc.equal(out[k], canon[k]), False)
                ).as_py()
                if canon.num_rows and same is not True:
                    raise ValueError(
                        f"backfill transform modified key column {k!r}"
                    )
            for c in canon_cols:
                if c in out.column_names and not out.schema.field(
                    c
                ).type.equals(canon.schema.field(c).type):
                    raise ValueError(
                        f"backfill transform changed the type of "
                        f"existing column {c!r} — widen via a change "
                        "batch instead"
                    )
            missing_payload = [
                c for c in canon_cols if c not in out.column_names
            ]
            if missing_payload:
                raise ValueError(
                    f"backfill transform dropped existing column(s) "
                    f"{missing_payload} in bucket {bucket} — a backfill "
                    "must return every canonical column (silently "
                    "nulling them lake-wide would be unrecoverable "
                    "data loss)"
                )
            reserved = {
                spec.seq_col,
                spec.op_col,
                spec.batch_col,
                SEQ_COL,
                DELETED_COL,
            }
            added = tuple(
                (f.name, type_name(f.type))
                for f in out.schema
                if f.name not in canon_cols
            )
            if any(n in reserved for n, _ in added):
                raise ValueError(
                    "backfill transform added a reserved meta column"
                )
            st_new = state_schema(spec, evolved + added)
            live_cols = {}
            for f in st_new:
                if f.name == SEQ_COL:
                    live_cols[f.name] = live[SEQ_COL]
                elif f.name == DELETED_COL:
                    live_cols[f.name] = live[DELETED_COL]
                elif f.name in out.column_names:
                    live_cols[f.name] = out[f.name]
                else:
                    live_cols[f.name] = pa.nulls(out.num_rows, f.type)
            parts = [conform(pa.table(live_cols), st_new)]
            if (pc.sum(dead).as_py() or 0) > 0:
                parts.append(conform(t.filter(dead), st_new))
            write_atomic(
                os.path.join(lake_dir, part_name(bucket, out_v)),
                pa.concat_tables(parts),
            )
            return (bucket, added)

        results = ray.get(
            [
                backfill_bucket.remote(self.lake_dir, b, v)
                for b, v in sorted(in_versions.items())
            ]
        )
        added_sets = {added for _, added in results}
        if len(added_sets) > 1:
            raise ValueError(
                "backfill transform added inconsistent columns across "
                f"buckets: {sorted(added_sets)}"
            )
        added = results[0][1] if results else ()
        new_evolved = evolved + added
        summary = {
            "kind": "backfill",
            "watermark": wm,
            "buckets": len(results),
            "added_cols": [list(a) for a in added],
            "out_version": out_v,
        }
        if _fail_before_commit:
            raise RuntimeError("injected crash before backfill commit")
        new_ptrs = {b: out_v for b in in_versions}
        # make the rewrite VISIBLE to the history machinery BEFORE the
        # manifest commit: the backfill redefines state starting at the
        # NEXT span (as_of <= wm keeps resolving pre-backfill), so
        # versions_as_of / _delta_chain_pointers / the change feed pick
        # up the new files at batch_id = wm + 1. Without these records a
        # feed spanning the backfill silently omits every bucket the
        # next batch didn't touch — permanent replica divergence. Write
        # order matters: a crash between lineage and manifest leaves
        # records a re-run rewrites (and replay GCs if never re-run);
        # the reverse order would leave a committed rewrite the feed is
        # permanently blind to.
        self._write_backfill_lineage(wm, new_ptrs)
        if self.state_mode == "delta":
            self.ckpt.record_backfill(summary, None, new_ptrs, new_evolved)
        else:
            self.ckpt.record_backfill(summary, new_ptrs, None, new_evolved)
        if self.gc_old_versions:
            if self.retain_batches:
                # bounded retention (either mode): the superseded files
                # are still the ONLY source for as-of <= wm reads inside
                # the window — RETIRE them tagged with their successor
                # position wm+1 (the span the backfill becomes visible
                # in), purged once the horizon passes it.
                sup = [
                    (b, v) for b, v in in_versions.items() if v != out_v
                ]
                if self.state_mode == "delta":
                    self.ckpt.retire_files(
                        [(part_name(b, v), wm + 1) for b, v in sup]
                    )
                else:
                    self.ckpt.retire_versions(
                        [[b, v, wm + 1] for b, v in sup]
                    )
            else:
                for b, v_old in in_versions.items():
                    if v_old == out_v:
                        continue
                    try:
                        os.remove(
                            os.path.join(self.lake_dir, part_name(b, v_old))
                        )
                    except FileNotFoundError:
                        pass
        return summary

    def _write_backfill_lineage(
        self, wm: int, new_ptrs: dict[int, int]
    ) -> None:
        """One lineage file per backfill, named to sort between
        ``batch={wm}.jsonl`` and ``batch={wm+1}.jsonl`` so read_lineage's
        file order stays commit order. Bucket records carry
        ``batch_id = wm + 1`` (the span the rewrite becomes visible in)
        and ``chain_floor = wm`` (delta chains replay strictly-after
        deltas on top of the backfilled base)."""
        import json as _json

        lin_dir = os.path.join(self.lake_dir, "_lineage")
        os.makedirs(lin_dir, exist_ok=True)
        path = os.path.join(lin_dir, f"batch={wm:05d}_backfill.jsonl")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(
                _json.dumps(
                    {
                        "kind": "backfill_summary",
                        "batch_id": wm + 1,
                        "watermark": wm,
                    }
                )
                + "\n"
            )
            for b, v in sorted(new_ptrs.items()):
                f.write(
                    _json.dumps(
                        {
                            "kind": "bucket",
                            "bucket": b,
                            "batch_id": wm + 1,
                            "version": v,
                            "backfill_base": True,
                            "chain_floor": wm,
                        }
                    )
                    + "\n"
                )
        os.replace(tmp, path)

    def _gc_orphaned_backfill_lineage(self) -> None:
        """Remove backfill lineage files whose manifest commit never
        landed (crash between the lineage write and ``record_backfill``)
        — without this, later batches would read half-backfilled
        pointer sets. A re-run of the same backfill (the documented
        recovery) rewrites the file before this ever fires."""
        committed = {bf.get("watermark") for bf in self.ckpt.backfills}
        for p in glob.glob(
            os.path.join(self.lake_dir, "_lineage", "batch=*_backfill.jsonl")
        ):
            m = re.search(r"batch=(\d+)_backfill\.jsonl$", p)
            if m and int(m.group(1)) not in committed:
                try:
                    os.remove(p)
                except FileNotFoundError:
                    pass

    # ---------------------------------------------------------------- export
    def export_snapshot(
        self, out_dir: str, incremental: bool = True
    ) -> dict:
        """Publish the live table as plain partitioned Parquet for
        downstream consumers (the serving handoff — the reference's
        final `convert_to_parquet` output analog): one file per bucket,
        canonical layout, live rows only, key-sorted within the bucket,
        plus `_export_manifest.json` written LAST (tmp + atomic rename)
        so readers never see a torn export and a crashed export re-runs
        over its own orphans.

        ``incremental=True``: buckets untouched since the prior export
        (per the lineage batch records) keep their existing files —
        cost O(changed buckets), the CDC point. Any backfill or schema
        evolution since the prior export, a missing prior file, or a
        missing/foreign manifest forces the full pass (the manifest
        records the source lake's identity, so an out_dir last fed by a
        DIFFERENT lake is detected even when watermark/evolved happen
        to agree). Compactions and folds don't force one (they never
        change live content).

        Re-export snapshot isolation: every export writes its touched
        buckets under GENERATION-versioned names
        (``part-NNNNN-g######.parquet``, monotone per out_dir) and the
        manifest records exact filenames — a re-export never overwrites
        a file the PRIOR manifest references, so a reader resolving
        files through a manifest sees one consistent generation even
        while (or after a crash while) the next export runs (in-place
        names previously made a crashed re-export serve a torn mix of
        two watermarks under the old manifest). After the manifest
        commit, exporter-owned files the new manifest doesn't reference
        are swept, leaving the directory glob-clean at rest; a reader
        still holding the pre-swap manifest then gets a loud missing-
        file error, never silently mixed data."""
        import json as _json

        from glue_etl_pipeline_ray.stages.merge import (
            read_bucket_state,
            write_atomic,
        )
        from glue_etl_pipeline_ray.state.lineage import read_lineage

        wm = self.ckpt.watermark
        if wm < 0:
            raise ValueError("nothing to export: empty lake")
        spec, evolved = self.spec, self.ckpt.evolved
        cols = spec.canonical_cols(evolved)
        os.makedirs(out_dir, exist_ok=True)
        man_path = os.path.join(out_dir, "_export_manifest.json")
        prior = None
        if incremental and os.path.exists(man_path):
            with open(man_path) as f:
                prior = _json.load(f)

        if self.state_mode == "delta":
            pointers = {
                b: (d["base"], d["deltas"])
                for b, d in self.ckpt.bucket_deltas.items()
            }
        else:
            pointers = {
                b: (v, None) for b, v in self.ckpt.bucket_versions.items()
            }

        evolved_l = [list(e) for e in evolved]
        n_bf = len(self.ckpt.backfills)
        # lake identity: an out_dir last exported from a DIFFERENT lake
        # must never reuse its files — two lakes with the same spec can
        # coincidentally agree on watermark/evolved while holding
        # different rows (a moved lake just pays one full pass)
        lake_id = os.path.realpath(self.lake_dir)
        full_needed = (
            prior is None
            or prior.get("lake") != lake_id
            or prior.get("evolved") != evolved_l
            or prior.get("n_backfills", 0) != n_bf
            or prior.get("watermark", -1) > wm
        )

        # monotone per-out_dir generation: touched buckets get NEW file
        # names every export, so the prior manifest's files stay intact
        # (snapshot isolation for manifest-resolving readers; a crashed
        # export's orphans are overwritten by the deterministic re-run)
        gen = (prior.get("gen", 0) if prior else 0) + 1
        prior_files = {
            int(b): v["file"]
            for b, v in (prior.get("buckets", {}) if prior else {}).items()
        }

        def fname(b: int) -> str:
            return f"part-{b:05d}-g{gen:06d}.parquet"

        if full_needed:
            todo = set(pointers)
        else:
            prior_wm = prior["watermark"]
            touched = {
                int(r["bucket"])
                for r in read_lineage(self.lake_dir)
                if r.get("kind") == "bucket"
                and int(r.get("batch_id", -1)) > prior_wm
                # backfill rewrites force a FULL export via the ledger
                # count above; their bucket records (batch_id = wm+1)
                # must not keep re-marking every bucket afterwards
                and not r.get("backfill_base")
            }
            missing = {
                b
                for b in pointers
                if b not in prior_files
                or not os.path.exists(os.path.join(out_dir, prior_files[b]))
            }
            todo = (touched & set(pointers)) | missing

        @ray.remote
        def export_bucket(lake_dir, dest, b, base, deltas):
            if deltas is None:
                st = state_schema(spec, evolved)
                t = conform(
                    pq.read_table(os.path.join(lake_dir, part_name(b, base))),
                    st,
                )
            else:
                t = read_bucket_state(spec, evolved, lake_dir, base, deltas, b)
            live = (
                t.filter(pc.invert(pc.fill_null(t[DELETED_COL], False)))
                .select(cols)
                .sort_by([(k, "ascending") for k in spec.key_cols])
            )
            write_atomic(dest, live)
            return (b, live.num_rows)

        results = ray.get(
            [
                export_bucket.remote(
                    self.lake_dir,
                    os.path.join(out_dir, fname(b)),
                    b,
                    *pointers[b],
                )
                for b in sorted(todo)
            ]
        )
        buckets = dict(prior["buckets"]) if prior and not full_needed else {}
        for b, n in results:
            buckets[str(b)] = {"rows": n, "file": fname(b)}
        manifest = {
            "lake": lake_id,
            "watermark": wm,
            "evolved": evolved_l,
            "n_backfills": n_bf,
            "gen": gen,
            "key_cols": list(spec.key_cols),
            "columns": cols,
            "buckets": buckets,
        }
        tmp = f"{man_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            _json.dump(manifest, f)
        os.replace(tmp, man_path)
        # sweep part files this exporter provably wrote (exact naming
        # scheme, generation-suffixed or legacy) that the new manifest
        # does not reference — superseded generations and foreign-lake
        # leftovers. AFTER the atomic manifest commit, so a crash
        # mid-sweep only leaves unreferenced orphans, never a manifest
        # pointing at deleted files; at rest the directory holds exactly
        # the manifest's files (plain-glob consumers stay duplicate-
        # free). Foreign files are preserved.
        stale = 0
        keep = {v["file"] for v in buckets.values()}
        for p in glob.glob(os.path.join(out_dir, "part-*.parquet")):
            bn = os.path.basename(p)
            if (
                re.fullmatch(r"part-\d{5}(-g\d{6})?\.parquet", bn)
                and bn not in keep
            ):
                os.remove(p)
                stale += 1
        return {
            "exported_buckets": len(results),
            "reused_buckets": len(buckets) - len(results),
            "rows": sum(int(v["rows"]) for v in buckets.values()),
            "watermark": wm,
            "full": bool(full_needed),
            "stale_removed": stale,
        }

    # ----------------------------------------------------------- final state
    @staticmethod
    def _reshard_floor(recs: list[dict]) -> int:
        """Oldest as_of this lake can serve: a resharded lake carries
        its base snapshot (batch == the reshard watermark) but NOTHING
        older — pre-reshard history stays with the old lake. -1 when
        the lake was never resharded (full history available)."""
        return max(
            (r["batch_id"] for r in recs if r.get("kind") == "reshard_base"),
            default=-1,
        )

    def versions_as_of(self, as_of_batch: int) -> dict[int, int]:
        """Snapshot pointer set as of a committed batch id, reconstructed
        from the lineage log (time travel; requires the engine to have
        retained old versions — construct with ``gc_old_versions=False``).
        On a resharded lake, raises for ``as_of`` older than the reshard
        base (that history lives in the OLD lake) instead of silently
        returning a partial pointer set."""
        from glue_etl_pipeline_ray.state.lineage import read_lineage

        recs = read_lineage(self.lake_dir)
        floor = self._reshard_floor(recs)
        if as_of_batch < floor:
            raise ValueError(
                f"as_of={as_of_batch} predates this lake's reshard base "
                f"(batch {floor}); pre-reshard history stays with the "
                "old lake — query it there or resync by snapshot"
            )
        out: dict[int, int] = {}
        for rec in recs:
            if rec.get("kind") == "bucket" and rec["batch_id"] <= as_of_batch:
                # LAST record wins — read_lineage returns commit order.
                # "max version" would be wrong across a backfill, whose
                # rewrites live in a high version namespace (10^9 + wm)
                # and are superseded by ordinary batch versions after it.
                out[rec["bucket"]] = rec["version"]
        return out

    def _state_files(self, as_of: int | None = None) -> list[str]:
        if self.state_mode == "delta":
            from glue_etl_pipeline_ray.stages.merge import (
                delta_entry_version,
                delta_name,
                gdelta_name,
            )

            out = []
            seen_g: set[str] = set()
            for b, d in sorted(self.ckpt.bucket_deltas.items()):
                if d["base"] is not None:
                    out.append(os.path.join(self.lake_dir, part_name(b, d["base"])))
                for ent in sorted(d["deltas"], key=delta_entry_version):
                    if isinstance(ent, (list, tuple)):
                        name = gdelta_name(int(ent[1]), int(ent[0]))
                        if name not in seen_g:
                            seen_g.add(name)
                            out.append(os.path.join(self.lake_dir, name))
                    else:
                        out.append(os.path.join(self.lake_dir, delta_name(b, ent)))
            return out
        versions = (
            self.ckpt.bucket_versions if as_of is None else self.versions_as_of(as_of)
        )
        return [
            os.path.join(self.lake_dir, part_name(b, v))
            for b, v in sorted(versions.items())
        ]

    def _delta_chain_pointers(
        self, as_of: int, buckets=None
    ) -> list[tuple[int, int | None, list]]:
        """Historic per-bucket (base, chain) pointers for state as-of a
        committed batch, rebuilt from the lineage log.

        Keep-everything mode (gc_old_versions=False): base=None and the
        full delta chain <= as_of — folds are caches, the chain is the
        truth. Bounded retention: deltas at or below a fold F may be
        purged once the horizon passes F, so anchor on the NEWEST fold
        <= as_of (exactly the deltas <= F) and replay only the chain
        after it. A reshard-base lineage record is a PART-file anchor in
        either mode (the reshard wrote full state at that version);
        as_of older than the reshard base raises — that history stays
        with the old lake. ``buckets``: optional restriction (point
        lookups)."""
        from glue_etl_pipeline_ray.state.lineage import read_lineage

        from glue_etl_pipeline_ray.stages.merge import delta_entry_version

        recs = read_lineage(self.lake_dir)
        floor = self._reshard_floor(recs)
        if as_of < floor:
            raise ValueError(
                f"as_of={as_of} predates this lake's reshard base "
                f"(batch {floor}); pre-reshard history stays with the "
                "old lake — query it there or resync by snapshot"
            )
        chains: dict[int, list] = {}
        bases: dict[int, int | None] = {}
        # floor = the batch position an anchor's part file folds up to;
        # deltas strictly after it replay on top. Reshard bases use
        # their file version AS the floor (those versions are batch
        # ids); backfill bases live in the 10^9 version namespace and
        # carry an explicit ``chain_floor``.
        floors: dict[int, int] = {}
        for rec in recs:
            if (
                rec.get("kind") == "bucket"
                and rec["batch_id"] <= as_of
                and (buckets is None or rec["bucket"] in buckets)
            ):
                if rec.get("reshard_base") or rec.get("backfill_base"):
                    fl = rec.get("chain_floor", rec["version"])
                    if fl >= floors.get(rec["bucket"], -1):
                        floors[rec["bucket"]] = fl
                        bases[rec["bucket"]] = rec["version"]
                else:
                    chains.setdefault(rec["bucket"], []).append(
                        [rec["version"], rec["group"]]
                        if "group" in rec
                        else rec["version"]
                    )
        if self.retain_batches is not None:
            for b, folds in self.ckpt.fold_history.items():
                cand = [f for f in folds if f <= as_of]
                if cand and max(cand) > floors.get(b, -1):
                    bases[b] = max(cand)
                    floors[b] = max(cand)
        return [
            (
                b,
                bases.get(b),
                sorted(
                    (
                        v for v in chains.get(b, [])
                        if b not in floors
                        or delta_entry_version(v) > floors[b]
                    ),
                    key=delta_entry_version,
                ),
            )
            for b in sorted(set(chains) | set(bases))
        ]

    def _delta_live_refs(
        self, as_of: int | None = None, columns: list[str] | None = None
    ) -> list:
        """One Ray task per bucket: fold base+deltas, return live rows.

        ``as_of``: historic rebuild via :meth:`_delta_chain_pointers`
        (keep-everything or retention-window semantics). ``columns``:
        projection pushed into the per-file Parquet reads."""
        from glue_etl_pipeline_ray.stages.merge import read_bucket_state

        spec = self.spec
        evolved = (
            self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)
        )
        cols = spec.canonical_cols(evolved)
        if columns is not None:
            cols = [c for c in cols if c in set(columns)]

        if as_of is None:
            pointers = [
                (b, d["base"], d["deltas"])
                for b, d in sorted(self.ckpt.bucket_deltas.items())
            ]
        else:
            pointers = self._delta_chain_pointers(as_of)

        @ray.remote
        def live_bucket(lake_dir, b, base, deltas):
            t = read_bucket_state(
                spec, evolved, lake_dir, base, deltas, b, columns=columns
            )
            return t.filter(pc.invert(t[DELETED_COL])).select(cols)

        return [
            live_bucket.remote(self.lake_dir, b, base, deltas)
            for b, base, deltas in pointers
        ]

    def _require_delta_history(self, as_of: int) -> None:
        """Delta-mode history gate: keep-everything
        (gc_old_versions=False) serves any as_of; bounded retention
        (retain_batches=N) serves as_of inside the window; plain GC mode
        has no history at all."""
        if not self.gc_old_versions:
            return
        if self.retain_batches is not None:
            horizon = self.ckpt.watermark - self.retain_batches
            if as_of >= horizon:
                return
            raise ValueError(
                f"as_of={as_of} is outside the retention window "
                f"(horizon={horizon}, retain_batches={self.retain_batches})"
            )
        raise NotImplementedError(
            "delta-mode time travel requires gc_old_versions=False "
            "or retain_batches=N"
        )

    def _require_history(self, as_of: int) -> None:
        """Raise unless the ``as_of`` snapshot is reconstructible under
        the retention policy: always with ``gc_old_versions=False``;
        inside the trailing window with ``retain_batches=N`` (a purge only
        removes files whose successor is at or below the horizon, so any
        snapshot at or above it still resolves — see ``purge_retired``)."""
        if not self.gc_old_versions:
            return
        if as_of >= self.ckpt.watermark:
            return  # the current snapshot needs no history
        if self.retain_batches is not None:
            horizon = self.ckpt.watermark - self.retain_batches
            if as_of >= horizon:
                return
            raise ValueError(
                f"as_of={as_of} is outside the retention window "
                f"(horizon={horizon}, retain_batches={self.retain_batches})"
            )
        raise NotImplementedError(
            "history reads require gc_old_versions=False or retain_batches=N"
        )

    # -------------------------------------------------- change data feed
    def _changes_refs(
        self, from_batch: int, to_batch: int, update_preimages: bool = False
    ) -> list:
        return [
            r
            for _, r in self._changes_refs_by_bucket(
                from_batch, to_batch, update_preimages
            )
        ]

    def _changes_refs_by_bucket(
        self, from_batch: int, to_batch: int, update_preimages: bool = False
    ) -> list:
        """One Ray task per bucket: diff the two snapshots of that bucket
        (both snapshots share the sink's bucket layout, so the whole feed
        is shuffle-free). Returns ``(bucket, ref)`` pairs in ascending
        bucket order. Requires retained history: either
        ``gc_old_versions=False`` or both batches inside the
        ``retain_batches`` window."""
        from glue_etl_pipeline_ray.stages.merge import (
            read_bucket_state,
            snapshot_diff,
        )

        if not (-1 <= from_batch < to_batch <= self.ckpt.watermark):
            raise ValueError(
                f"need -1 <= from_batch < to_batch <= watermark "
                f"({from_batch}, {to_batch}, wm={self.ckpt.watermark})"
            )
        self._require_history(to_batch)
        if from_batch >= 0:
            self._require_history(from_batch)
        spec = self.spec
        ev_to = self.ckpt.evolved_as_of(to_batch)

        if self.state_mode == "delta":
            # both sides anchored independently (fold <= from / fold <=
            # to), so the feed works in keep-everything AND bounded
            # retention (purged prefixes are covered by their folds)
            new_ptrs = {
                b: (base, chain)
                for b, base, chain in self._delta_chain_pointers(to_batch)
            }
            old_ptrs = (
                {
                    b: (base, chain)
                    for b, base, chain in self._delta_chain_pointers(from_batch)
                }
                if from_batch >= 0
                else {}
            )

            @ray.remote
            def diff_bucket_delta(lake_dir, b, old_ptr, new_ptr):
                ob, oc = old_ptr
                nb, nc = new_ptr
                old = read_bucket_state(spec, ev_to, lake_dir, ob, oc, b)
                new = read_bucket_state(spec, ev_to, lake_dir, nb, nc, b)
                return snapshot_diff(
                    spec,
                    ev_to,
                    old.filter(pc.invert(old[DELETED_COL])),
                    new.filter(pc.invert(new[DELETED_COL])),
                    update_preimages=update_preimages,
                )

            return [
                (
                    b,
                    diff_bucket_delta.remote(
                        self.lake_dir, b, old_ptrs.get(b, (None, [])), ptr
                    ),
                )
                for b, ptr in sorted(new_ptrs.items())
            ]

        v_old = self.versions_as_of(from_batch) if from_batch >= 0 else {}
        v_new = self.versions_as_of(to_batch)
        st = state_schema(spec, ev_to)

        @ray.remote
        def diff_bucket(lake_dir, b, vo, vn):
            def live(v):
                if v is None:
                    return st.empty_table()
                t = conform(pq.read_table(os.path.join(lake_dir, part_name(b, v))), st)
                return t.filter(pc.invert(t[DELETED_COL]))

            return snapshot_diff(
                spec, ev_to, live(vo), live(vn),
                update_preimages=update_preimages,
            )

        buckets = sorted(set(v_old) | set(v_new))
        return [
            (b, diff_bucket.remote(self.lake_dir, b, v_old.get(b), v_new.get(b)))
            for b in buckets
        ]

    def changes_dataset(
        self, from_batch: int, to_batch: int, update_preimages: bool = False
    ) -> "ray.data.Dataset":
        """Change data feed (like Delta Lake ``table_changes``): the NET
        row-level changes between two committed snapshots as a streaming
        Dataset — one ``insert``/``update``/``delete`` row per key whose
        LWW winner differs, in the ``to`` snapshot's schema plus
        ``_change_type``. ``from_batch=-1`` diffs against the empty
        table. Shuffle-free: both snapshots share the bucket layout.
        ``update_preimages=True`` splits each update into an
        ``update_preimage`` + ``update_postimage`` pair (the Delta-Lake
        CDF convention; what incremental view maintenance consumes)."""
        from glue_etl_pipeline_ray.stages.merge import CHANGE_TYPE_COL

        refs = self._changes_refs(from_batch, to_batch, update_preimages)
        if not refs:
            sch = self.spec.canonical_schema(
                self.ckpt.evolved_as_of(to_batch)
            ).append(pa.field(CHANGE_TYPE_COL, pa.string()))
            return ray.data.from_arrow(sch.empty_table())
        return ray.data.from_arrow_refs(refs)

    def changes_table(self, from_batch: int, to_batch: int) -> pa.Table:
        """Driver-side change feed (test/oracle path only)."""
        from glue_etl_pipeline_ray.stages.merge import CHANGE_TYPE_COL

        parts = ray.get(self._changes_refs(from_batch, to_batch))
        sch = self.spec.canonical_schema(
            self.ckpt.evolved_as_of(to_batch)
        ).append(pa.field(CHANGE_TYPE_COL, pa.string()))
        if not parts:
            return sch.empty_table()
        out = pa.concat_tables(parts)
        return out.sort_by([(k, "ascending") for k in self.spec.key_cols])

    def diff_with(
        self, other: "ReplayEngine", update_preimages: bool = False
    ) -> "ray.data.Dataset":
        """CROSS-LAKE diff: the net row-level changes that would turn
        ``other``'s live table into ``self``'s, as a streaming Dataset of
        ``insert`` / ``update`` / ``delete`` rows — the drift detector
        for clones, replicas and blue/green lakes (did the replica
        converge? what did the clone change since the fork?).

        Shuffle-free by layout: both lakes must share ``num_buckets``
        and key columns (clone/replicate preserve them), so bucket ``b``
        of one lake pairs with bucket ``b`` of the other — one
        ``snapshot_diff`` task per bucket, zero cross-bucket traffic.
        Mismatched layouts raise (reshard one side first) rather than
        silently shipping an all-to-all, and so do base payload columns
        that differ in name, order or type. State modes may differ per
        side. Schemas are unified additively (the union of both lakes'
        evolved columns, sorted by name; a same-name type conflict
        raises as ambiguous), so a column only one side evolved shows
        as null on the other — the same contract as in-lake evolution."""
        from glue_etl_pipeline_ray.stages.merge import (
            CHANGE_TYPE_COL,
            read_bucket_state,
            snapshot_diff,
        )

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
        spec = self.spec
        st = state_schema(spec, ev_to)

        def tip_desc(eng: "ReplayEngine") -> dict[int, tuple]:
            if eng.state_mode == "delta":
                return {
                    b: ("delta", eng.lake_dir, d["base"], tuple(d["deltas"]))
                    for b, d in eng.ckpt.bucket_deltas.items()
                }
            return {
                b: ("rewrite", eng.lake_dir, v, ())
                for b, v in eng.ckpt.bucket_versions.items()
            }

        old_desc, new_desc = tip_desc(other), tip_desc(self)

        @ray.remote
        def diff_bucket_cross(b, od, nd):
            def live(desc):
                if desc is None:
                    return st.empty_table()
                kind, lake_dir, base, chain = desc
                if kind == "delta":
                    t = read_bucket_state(
                        spec, ev_to, lake_dir, base, list(chain), b
                    )
                else:
                    t = conform(
                        pq.read_table(
                            os.path.join(lake_dir, part_name(b, base))
                        ),
                        st,
                    )
                return t.filter(pc.invert(t[DELETED_COL]))

            return snapshot_diff(
                spec,
                ev_to,
                live(od),
                live(nd),
                update_preimages=update_preimages,
            )

        buckets = sorted(set(old_desc) | set(new_desc))
        refs = [
            diff_bucket_cross.remote(b, old_desc.get(b), new_desc.get(b))
            for b in buckets
        ]
        if not refs:
            sch = spec.canonical_schema(ev_to).append(
                pa.field(CHANGE_TYPE_COL, pa.string())
            )
            return ray.data.from_arrow(sch.empty_table())
        return ray.data.from_arrow_refs(refs)

    def final_dataset(
        self, as_of: int | None = None, columns: list[str] | None = None
    ) -> "ray.data.Dataset":
        """Live table as a streaming Dataset (scale path). ``as_of``:
        committed batch id for a time-travel snapshot — returned with the
        schema the table had THEN (an evolution after ``as_of`` does not
        leak null-backfilled columns into history).

        ``columns``: projection pushed down to the Parquet reads — a
        2-column scan of a wide-payload lake reads only those columns
        (plus the fold's own key/seq/deleted columns in delta mode)
        instead of shipping ``content`` just to drop it. Output keeps
        canonical column order."""
        evolved = (
            self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)
        )
        cols = self.spec.canonical_cols(evolved)
        if columns is not None:
            unknown = [c for c in columns if c not in cols]
            if unknown:
                raise ValueError(
                    f"unknown columns {unknown}; table has {cols}"
                )
            out_cols = [c for c in cols if c in set(columns)]
        else:
            out_cols = cols
        if self.state_mode == "delta":
            if as_of is not None:
                self._require_delta_history(as_of)
            refs = self._delta_live_refs(as_of, columns=columns)
            if not refs:
                return ray.data.from_arrow(
                    self.spec.canonical_schema(evolved).empty_table().select(out_cols)
                )
            return ray.data.from_arrow_refs(refs)
        if as_of is not None:
            self._require_history(as_of)
        files = self._state_files(as_of)
        if not files:
            return ray.data.from_arrow(
                self.spec.canonical_schema(evolved).empty_table().select(out_cols)
            )

        if columns is None:
            st = state_schema(self.spec, evolved)

            def live_view(t: pa.Table) -> pa.Table:
                t = conform(t, st)
                return t.filter(pc.invert(t[DELETED_COL])).select(cols)

            return ray.data.read_parquet(files).map_batches(
                live_view, batch_format="pyarrow", zero_copy_batch=True
            )

        # pruned rewrite-mode read: per-file column intersection (files
        # written before an evolution lack the evolved column)
        want = list(dict.fromkeys(list(out_cols) + [DELETED_COL]))
        st_sub = state_schema(self.spec, evolved, columns=out_cols)
        st_sub = pa.schema([f for f in st_sub if f.name in set(want)])

        def load_pruned(batch: pa.Table) -> pa.Table:
            from glue_etl_pipeline_ray.stages.merge import read_parquet_pruned

            outs = []
            for path in batch["item"].to_pylist():
                t = conform(read_parquet_pruned(path, want), st_sub)
                outs.append(
                    t.filter(pc.invert(t[DELETED_COL])).select(out_cols)
                )
            return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

        return ray.data.from_items(files).map_batches(
            load_pruned, batch_format="pyarrow", batch_size=1
        )

    _SCAN_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")

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

        Rewrite mode (tip and as-of): the predicate is handed to the
        Parquet scanner (``pq.read_table(filters=...)``), so row groups
        whose min/max statistics exclude the value range never
        decompress — on a lake whose buckets were backfill-sorted on
        the column, most files cost only their footer. Files written
        before the predicate column evolved in are skipped whole (their
        rows are all-null for it). Delta mode: a key's LWW winner is
        only known AFTER the fold — filtering pre-fold rows could
        resurrect a stale version whose payload matches — so the
        per-bucket fold runs as usual (with column pushdown) and the
        predicate applies vectorized post-fold. Both paths return the
        same rows (tests/test_scan_where.py)."""
        evolved = (
            self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)
        )
        cols = self.spec.canonical_cols(evolved)
        for col, op, _ in where:
            if col not in cols:
                raise ValueError(f"unknown predicate column {col!r}")
            if op not in self._SCAN_OPS:
                raise ValueError(
                    f"unknown op {op!r}; supported: {self._SCAN_OPS}"
                )
        out_cols = (
            [c for c in cols if c in set(columns)] if columns is not None else cols
        )
        where_cols = [c for c, _, _ in where]
        spec = self.spec

        if self.state_mode == "delta":
            need = list(dict.fromkeys(out_cols + where_cols))
            base = self.final_dataset(as_of=as_of, columns=need)

            def apply_where(t: pa.Table) -> pa.Table:
                return t.filter(_where_mask(t, where)).select(out_cols)

            return base.map_batches(
                apply_where, batch_format="pyarrow", zero_copy_batch=True
            )

        if as_of is not None:
            self._require_history(as_of)
        files = self._state_files(as_of)
        sch_out = self.spec.canonical_schema(evolved).empty_table().select(
            out_cols
        )
        if not files:
            return ray.data.from_arrow(sch_out)
        need = list(dict.fromkeys(out_cols + where_cols + [DELETED_COL]))
        st_need = pa.schema(
            [f for f in state_schema(spec, evolved) if f.name in set(need)]
        )
        pq_filters = [tuple(w) for w in where] + [(DELETED_COL, "==", False)]

        def load_filtered(batch: pa.Table) -> pa.Table:
            outs = []
            for path in batch["item"].to_pylist():
                names = set(pq.read_schema(path).names)
                if any(c not in names for c in where_cols):
                    # pre-evolution file: the column is all-null there,
                    # and null matches no predicate — skip whole file
                    continue
                t = pq.read_table(
                    path,
                    columns=[c for c in need if c in names],
                    filters=pq_filters,
                )
                outs.append(conform(t, st_need).select(out_cols))
            if not outs:
                return sch_out
            return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

        return ray.data.from_items(files).map_batches(
            load_filtered, batch_format="pyarrow", batch_size=1
        )

    def final_table(
        self, as_of: int | None = None, sort: bool = True
    ) -> pa.Table:
        """Live table assembled driver-side (test/oracle path only).

        ``sort=False`` skips the key sort — the sha path re-sorts
        inside ``table_sha256`` (with a large_string upcast), and a
        driver-side sort of a 10^9-scale table would overflow int32
        string offsets in take."""
        if self.state_mode == "delta":
            if as_of is not None:
                self._require_delta_history(as_of)
            ev = (
                self.ckpt.evolved
                if as_of is None
                else self.ckpt.evolved_as_of(as_of)
            )
            parts = ray.get(self._delta_live_refs(as_of))
            if not parts:
                return self.spec.canonical_schema(ev).empty_table()
            out = pa.concat_tables(parts)
            if not sort:
                return out
            return out.sort_by([(k, "ascending") for k in self.spec.key_cols])
        evolved = (
            self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)
        )
        st = state_schema(self.spec, evolved)
        cols = self.spec.canonical_cols(evolved)
        if as_of is not None:
            self._require_history(as_of)
        parts = []
        for f in self._state_files(as_of):
            t = conform(pq.read_table(f), st)
            parts.append(t.filter(pc.invert(t[DELETED_COL])).select(cols))
        if not parts:
            return self.spec.canonical_schema(evolved).empty_table()
        out = pa.concat_tables(parts)
        if not sort:
            return out
        return out.sort_by([(k, "ascending") for k in self.spec.key_cols])

    def history(self) -> pa.Table:
        """Commit log (the Delta-Lake ``DESCRIBE HISTORY`` analog), one
        row per committed batch from the checkpoint manifest — metadata
        only, no data read: batch id, commit wall-clock, operation kind
        (``ingest`` or the DML kind that synthesized the batch),
        event/upsert/delete/dead-letter counts, buckets touched.
        Newest first."""
        rows = []
        for bid_s, s in self.ckpt._m["batches"].items():
            rows.append(
                {
                    "batch_id": int(bid_s),
                    "commit_ts": float(s.get("commit_ts") or float("nan")),
                    "operation": s.get("dml", "ingest"),
                    "n_events": s.get("n_events"),
                    "n_upserts": s.get("n_upserts"),
                    "n_deletes": s.get("n_deletes"),
                    "n_dead_lettered": s.get("n_dead_lettered"),
                    "buckets_touched": s.get("buckets_touched"),
                }
            )
        rows.sort(key=lambda r: -r["batch_id"])
        schema = pa.schema(
            [
                ("batch_id", pa.int64()),
                ("commit_ts", pa.float64()),
                ("operation", pa.string()),
                ("n_events", pa.int64()),
                ("n_upserts", pa.int64()),
                ("n_deletes", pa.int64()),
                ("n_dead_lettered", pa.int64()),
                ("buckets_touched", pa.int64()),
            ]
        )
        if not rows:
            return schema.empty_table()
        return pa.Table.from_pylist(rows, schema=schema)

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
        manifest references exists, and list data files the manifest
        does NOT reference (uncommitted orphans from a crash — safe to
        delete, never safe to read). Metadata-only: O(manifest +
        directory listing), no data reads, no mutation.

        Returns ``{"ok", "missing", "orphans", "n_referenced"}`` —
        ``ok`` is True iff nothing referenced is missing. Orphans are
        normal debris after a crash mid-batch (deterministic names mean
        the next replay overwrites them); MISSING files mean real
        corruption (manual deletion / partial restore)."""
        referenced: set[str] = set()
        if self.state_mode == "delta":
            from glue_etl_pipeline_ray.stages.merge import (
                delta_name,
                gdelta_name,
            )

            for b, d in self.ckpt.bucket_deltas.items():
                if d.get("base") is not None:
                    referenced.add(part_name(b, d["base"]))
                for ent in d.get("deltas", ()):
                    if isinstance(ent, int):
                        referenced.add(delta_name(b, ent))
                    else:
                        referenced.add(gdelta_name(int(ent[1]), int(ent[0])))
        else:
            for b, v in self.ckpt.bucket_versions.items():
                referenced.add(part_name(b, v))
        # files retired but not yet purged are still legitimately present
        retired = {
            fname for fname, _ in self.ckpt._m.get("retired_files", [])
        } | {
            part_name(b, v)
            for b, v, *_ in self.ckpt._m.get("retired", [])
        }
        missing = sorted(
            f
            for f in referenced
            if not os.path.exists(os.path.join(self.lake_dir, f))
        )
        on_disk = {
            os.path.basename(p)
            for p in glob.glob(os.path.join(self.lake_dir, "*.parquet"))
        }
        orphans = sorted(on_disk - referenced - retired)
        return {
            "ok": not missing,
            "missing": missing,
            "orphans": orphans,
            "n_referenced": len(referenced),
        }

    def metrics(self) -> dict:
        """Operational rollup from the lineage log: per-batch and total
        events / dead-letters / upserts / deletes / live counts — the
        run-report the reference surfaces through its workflow metrics,
        assembled from the same per-batch manifests the engine already
        commits (no data reads)."""
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
            # -1 is the lineage sentinel for "not counted" (live counts
            # are only tallied when bucket hashing is on)
            n_live = None
        return {
            "watermark": self.ckpt.watermark,
            "n_batches": len(per_batch),
            "totals": totals,
            "n_live": n_live,
            "per_batch": dict(sorted(per_batch.items())),
        }

    @_with_writer_lease
    def reshard(
        self, out_lake_dir: str, factor: int = 2, mode: str = "split"
    ) -> "ReplayEngine":
        """Re-bucketing in either direction (blue/green): write a new
        lake with ``num_buckets * factor`` buckets (``mode="split"``,
        scale-out) or ``num_buckets // factor`` buckets
        (``mode="merge"``, scale-in — the symmetric answer to an
        OVER-provisioned layout whose tiny files start to dominate),
        and return an engine over it that resumes replay exactly-once
        from the same watermark.

        Both directions are LOCAL — no shuffle. Split: ``h % (f*B)``
        is congruent to ``h % B`` mod B, so every row of old bucket
        ``b`` lands in one of the ``factor`` new buckets ``{b + k*B}``;
        one Ray task per old bucket. Merge: with ``B' = B / f`` a
        divisor of B, ``h % B'  ==  (h % B) % B'``, so new bucket
        ``nb`` is exactly the union of old buckets ``{nb + k*B'}`` —
        disjoint key sets, one Ray task per NEW bucket concatenates
        them. O(state) total work, cluster-parallel, zero cross-bucket
        traffic — the answer to a mis-provisioned ``num_buckets`` at
        10^10 keys without an all-to-all rewrite.

        Tombstones are carried (a late stale update to a deleted key
        must still lose LWW after the reshard). The new manifest copies
        watermark / committed / evolved / batch summaries and seeds
        both layouts (``bucket_versions`` for rewrite,
        ``bucket_deltas`` bases for delta), so the new engine opens in
        either state mode. Commit point = the new lake's manifest write
        (atomic rename); a crashed reshard re-runs with deterministic
        file names. Pre-reshard history (time travel, change feed) stays
        with the OLD lake — consumers resync by snapshot, the same
        contract as a passed retention horizon.

        Single-writer operation: run between ingest runs.
        """
        import dataclasses
        import json as _json

        from glue_etl_pipeline_ray.hashing import key_hash_u64
        from glue_etl_pipeline_ray.stages.merge import read_bucket_state

        if factor < 2:
            raise ValueError("factor must be >= 2")
        if mode not in ("split", "merge"):
            raise ValueError(f"unknown reshard mode {mode!r}")
        wm = self.ckpt.watermark
        if wm < 0:
            raise ValueError("nothing to reshard: no committed batches")
        spec, evolved = self.spec, self.ckpt.evolved
        nb_old = spec.num_buckets
        if mode == "merge":
            if nb_old % factor != 0:
                raise ValueError(
                    f"merge reshard needs factor | num_buckets "
                    f"({factor} does not divide {nb_old})"
                )
            nb_new = nb_old // factor
        else:
            nb_new = nb_old * factor
        os.makedirs(out_lake_dir, exist_ok=True)
        st = state_schema(spec, evolved)
        key_cols, lake = spec.key_cols, self.lake_dir

        if self.state_mode == "delta":
            ptrs = {
                b: (d["base"], d["deltas"])
                for b, d in self.ckpt.bucket_deltas.items()
            }
        else:
            ptrs = None
        bv = self.ckpt.bucket_versions

        def read_old_bucket(bucket: int) -> pa.Table:
            if ptrs is not None:
                base, chain = ptrs[bucket]
                t = read_bucket_state(spec, evolved, lake, base, chain, bucket)
            else:
                t = pq.read_table(
                    os.path.join(lake, part_name(bucket, bv[bucket]))
                )
            return conform(t, st)

        @ray.remote
        def split(bucket: int) -> list[int]:
            t = read_old_bucket(bucket)
            if t.num_rows == 0:
                return []
            h = (
                key_hash_u64(*(t[k] for k in key_cols)) % np.uint64(nb_new)
            ).astype(np.int64)
            targets = [bucket + k * nb_old for k in range(factor)]
            assert np.isin(h, targets).all(), (
                "split invariant violated: a row left its bucket family"
            )
            written = []
            for nb in targets:
                sub = t.filter(pa.array(h == nb))
                if sub.num_rows == 0:
                    continue
                path = os.path.join(out_lake_dir, part_name(nb, wm))
                tmp = path + ".tmp"
                pq.write_table(sub, tmp)
                os.replace(tmp, path)
                written.append(nb)
            return written

        @ray.remote
        def merge(nb: int, sources: list[int]) -> list[int]:
            tabs = [
                x
                for x in (read_old_bucket(b) for b in sources)
                if x.num_rows
            ]
            if not tabs:
                return []
            t = pa.concat_tables(tabs)
            h = (
                key_hash_u64(*(t[k] for k in key_cols)) % np.uint64(nb_new)
            ).astype(np.int64)
            assert (h == nb).all(), (
                "merge invariant violated: a row left its bucket family"
            )
            path = os.path.join(out_lake_dir, part_name(nb, wm))
            tmp = path + ".tmp"
            pq.write_table(t, tmp)
            os.replace(tmp, path)
            return [nb]

        buckets = sorted(ptrs) if ptrs is not None else sorted(bv)
        if mode == "merge":
            have = set(buckets)
            refs = [
                merge.remote(
                    nb,
                    [
                        nb + k * nb_new
                        for k in range(factor)
                        if nb + k * nb_new in have
                    ],
                )
                for nb in range(nb_new)
            ]
        else:
            refs = [split.remote(b) for b in buckets]
        new_buckets = [nb for r in ray.get(refs) for nb in r]

        # carry the quarantine queue: the DLQ is keyed by BATCH, not
        # bucket, so it re-buckets trivially — and redrive_dlq must
        # keep working on the new lake (without this, every row
        # quarantined before the reshard would be silently lost to the
        # repair loop). Blue/green copy; the old lake stays intact.
        import shutil as _shutil

        src_dlq = os.path.join(lake, "_dlq")
        if os.path.isdir(src_dlq):
            _shutil.copytree(
                src_dlq,
                os.path.join(out_lake_dir, "_dlq"),
                dirs_exist_ok=True,
            )

        # seed the NEW lake's lineage with the reshard base: one
        # "bucket" record (version=wm) per written bucket so
        # versions_as_of / _delta_chain_pointers anchor as-of reads on
        # the reshard snapshot instead of rebuilding from an empty log
        # (which would silently drop every pre-reshard row from any
        # bucket not re-written afterwards). Earlier history stays with
        # the OLD lake; the "reshard_base" marker makes as_of < wm
        # RAISE on this lake rather than return a partial table.
        lin_dir = os.path.join(out_lake_dir, "_lineage")
        os.makedirs(lin_dir, exist_ok=True)
        lpath = os.path.join(lin_dir, f"batch={wm:05d}.jsonl")
        ltmp = f"{lpath}.tmp.{os.getpid()}"
        with open(ltmp, "w") as f:
            f.write(
                _json.dumps(
                    {
                        "kind": "reshard_base",
                        "batch_id": wm,
                        "factor": factor,
                        "mode": mode,
                        "num_buckets": nb_new,
                    }
                )
                + "\n"
            )
            for nb in sorted(new_buckets):
                f.write(
                    _json.dumps(
                        {
                            "kind": "bucket",
                            "bucket": nb,
                            "batch_id": wm,
                            "version": wm,
                            "reshard_base": True,
                        }
                    )
                    + "\n"
                )
        os.replace(ltmp, lpath)

        # commit: one atomic manifest write makes the new lake live
        ckpt_dir = os.path.join(out_lake_dir, "_checkpoint")
        os.makedirs(ckpt_dir, exist_ok=True)
        manifest = {
            "watermark": wm,
            "committed": sorted(self.ckpt.committed),
            "evolved": [list(e) for e in evolved],
            "batches": self.ckpt._m.get("batches", {}),
            "bucket_versions": {str(b): wm for b in new_buckets},
            "bucket_deltas": {
                str(b): {"base": wm, "deltas": []} for b in new_buckets
            },
        }
        mpath = os.path.join(ckpt_dir, "manifest.json")
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            _json.dump(manifest, f)
        os.replace(tmp, mpath)

        return ReplayEngine(
            dataclasses.replace(spec, num_buckets=nb_new),
            out_lake_dir,
            compute_bucket_hash=self.compute_bucket_hash,
            validate_batch_size=self.validate_batch_size,
            exchange=self.exchange,
            num_exchange=self.num_exchange,
            window=self.window,
            gc_old_versions=self.gc_old_versions,
            state_mode=self.state_mode,
            fold_threshold=self.fold_threshold,
            event_filter=self.event_filter,
            retain_batches=self.retain_batches,
            writer_lease=self.writer_lease,
            lease_ttl_s=self.lease_ttl_s,
        )

    @_with_writer_lease
    def clone(self, out_lake_dir: str) -> "ReplayEngine":
        """Zero-copy shallow clone (the Delta-Lake CLONE analog): the
        committed manifest, lineage log, DLQ and every data file are
        HARDLINKED into a new lake root — O(files) metadata work, no
        data bytes moved — and an independent engine over the new root
        is returned. Sharing inodes is safe because every lake write in
        this engine is immutable-once-committed (tmp-write + atomic
        rename, never append/truncate in place; judged above at
        lineage.py:22, checkpoint.py:291, and the DLQ/redrive tmp
        pattern), so a post-clone commit in either lake replaces only
        its OWN directory entry and either side's GC merely unlinks its
        own name. Filesystems that refuse the link (cross-device)
        silently fall back to a copy. On a real object store this is a
        manifest-level copy (paths resolve into the source prefix) —
        the standard lakehouse shallow-clone contract.

        The clone snapshots COMMITTED state only: transient staging
        (``_redrive/``, ``_dml/``) and derived exports are skipped, and
        the source's writer lock is held for the walk so no commit can
        tear it. Both lakes then evolve fully independently — time
        travel, retention, reshard, DML all work on each side without
        touching the other (tests/test_clone.py)."""
        import shutil as _shutil

        if self.ckpt.watermark < 0:
            raise ValueError("nothing to clone: no committed batches")
        if os.path.exists(out_lake_dir) and os.listdir(out_lake_dir):
            raise ValueError(
                f"clone destination {out_lake_dir!r} is not empty"
            )
        skip_tops = {"_redrive", "_dml", "_export"}
        src_root = os.path.abspath(self.lake_dir)
        n_linked = n_copied = 0
        for dirpath, dirnames, filenames in os.walk(src_root):
            rel = os.path.relpath(dirpath, src_root)
            if rel != "." and rel.split(os.sep, 1)[0] in skip_tops:
                dirnames[:] = []
                continue
            out_dir = (
                out_lake_dir
                if rel == "."
                else os.path.join(out_lake_dir, rel)
            )
            os.makedirs(out_dir, exist_ok=True)
            for name in filenames:
                # temp files a crashed commit left: <name>.tmp.<pid>
                if name.endswith(".tmp") or ".tmp." in name or name == "WRITER_LOCK":
                    continue
                src = os.path.join(dirpath, name)
                dst = os.path.join(out_dir, name)
                try:
                    os.link(src, dst)
                    n_linked += 1
                except OSError:  # cross-device / no-link fs
                    _shutil.copy2(src, dst)
                    n_copied += 1
        eng = ReplayEngine(
            self.spec,
            out_lake_dir,
            compute_bucket_hash=self.compute_bucket_hash,
            validate_batch_size=self.validate_batch_size,
            exchange=self.exchange,
            num_exchange=self.num_exchange,
            window=self.window,
            gc_old_versions=self.gc_old_versions,
            state_mode=self.state_mode,
            fold_threshold=self.fold_threshold,
            event_filter=self.event_filter,
            retain_batches=self.retain_batches,
            writer_lease=self.writer_lease,
            lease_ttl_s=self.lease_ttl_s,
        )
        eng._clone_stats = {"linked": n_linked, "copied": n_copied}
        return eng

    @_with_writer_lease
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

        Note: the redrive batch consumes the next id in the single
        checkpoint sequence (single-writer engine) — run it between
        ingest runs, not concurrently with one.
        """
        # self-heal: a crash between a redrive COMMIT and its cleanup
        # leaves the consumed staging file behind; sweep any staging
        # file whose batch is already committed (its rows either live
        # in the table or re-quarantined under its batch id)
        for f in glob.glob(
            os.path.join(self.lake_dir, "_redrive", "batch=*.parquet")
        ):
            if int(_BATCH_RE.search(f).group(1)) <= self.ckpt.watermark:
                os.remove(f)
        dlq_root = os.path.join(self.lake_dir, "_dlq")
        src: list[tuple[int, list[str]]] = []
        for d in sorted(glob.glob(os.path.join(dlq_root, "batch=*"))):
            bid = int(_BATCH_RE.search(d).group(1))
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
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
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
                    ftmp = f + ".tmp"
                    pq.write_table(kept, ftmp)
                    os.replace(ftmp, f)
        os.remove(path)
        return {
            "n_redriven": len(redriven_seqs),
            "batch_id": new_bid,
            "summary": summary,
        }

    def _current_bucket_anchors(self) -> dict[int, str]:
        """Exact identity of each bucket's committed tip state — the
        freshness token lookup-filter sidecars are anchored to. Any
        commit path that changes what a bucket read would return
        (replay, compaction/fold, backfill, optimize_sort, reshard)
        changes the pointer and hence the anchor."""
        if self.state_mode == "delta":
            return {
                b: f"d:{d['base']}:{list(d['deltas'])}"
                for b, d in self.ckpt.bucket_deltas.items()
            }
        return {b: f"v:{v}" for b, v in self.ckpt.bucket_versions.items()}

    def build_lookup_filters(self, fp_rate: float = 0.005) -> dict:
        """Per-bucket key Bloom sidecars for negative point lookups: one
        task per committed bucket reads that bucket's KEY columns only,
        builds a ~1.2-bytes/key filter over the same ``key_hash_u64``
        the exchange routes by, and a sidecar manifest
        (``_filters/manifest.json``, written LAST) anchors every filter
        to the exact committed state it summarizes. ``lookup`` then
        skips any touched bucket in which NO requested key can exist —
        at 10^10 keys the common "is X present?" miss costs zero data
        I/O instead of a bucket read. Bloom = no false negatives;
        staleness is an anchor mismatch (any later commit to the bucket
        changes its pointer) and a stale filter is simply ignored, so
        correctness NEVER depends on the sidecar — it only removes
        reads. Rebuild after ingest/compaction as part of the
        operational loop (cli.py ``filters``)."""
        import numpy as np

        from glue_etl_pipeline_ray.functions.bloom import BloomFilter
        from glue_etl_pipeline_ray.hashing import key_hash_u64
        from glue_etl_pipeline_ray.stages.merge import (
            read_bucket_state,
            read_parquet_pruned,
        )

        if self.ckpt.watermark < 0:
            raise ValueError("nothing to index: no committed batches")
        spec = self.spec
        evolved = self.ckpt.evolved
        kc = list(spec.key_cols)
        lake_dir = self.lake_dir
        anchors = self._current_bucket_anchors()
        st = state_schema(spec, evolved)
        delta = self.state_mode == "delta"
        if delta:
            srcs = {
                b: (d["base"], list(d["deltas"]))
                for b, d in self.ckpt.bucket_deltas.items()
            }
        else:
            srcs = dict(self.ckpt.bucket_versions)

        @ray.remote
        def build(b, src):
            if delta:
                base, deltas = src
                t = read_bucket_state(
                    spec, evolved, lake_dir, base, deltas, b, columns=kc
                )
            else:
                t = conform(
                    read_parquet_pruned(
                        os.path.join(lake_dir, part_name(b, src)),
                        kc + [DELETED_COL],
                    ),
                    st,
                )
            live = t.filter(
                pc.invert(pc.fill_null(t[DELETED_COL], False))
            )
            h = key_hash_u64(*(live[k] for k in kc))
            bf = BloomFilter(max(1, len(h)), fp_rate)
            bf.add_hashes(h)
            return b, np.packbits(bf.bits).tobytes(), bf.m, bf.k, len(h)

        results = ray.get([build.remote(b, s) for b, s in sorted(srcs.items())])
        fdir = os.path.join(self.lake_dir, "_filters")
        os.makedirs(fdir, exist_ok=True)
        meta: dict[str, dict] = {}
        total_bytes = 0
        import json as _json

        for b, bits, m, k, n in results:
            fname = f"bucket={b:05d}.bits"
            tmp = os.path.join(fdir, fname + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(bits)
            os.replace(tmp, os.path.join(fdir, fname))
            meta[str(b)] = {
                "file": fname,
                "m": m,
                "k": k,
                "n_keys": n,
                "anchor": anchors[b],
            }
            total_bytes += len(bits)
        mtmp = os.path.join(fdir, "manifest.json.tmp")
        with open(mtmp, "w") as fh:
            _json.dump({"fp_rate": fp_rate, "buckets": meta}, fh)
        os.replace(mtmp, os.path.join(fdir, "manifest.json"))
        return {
            "buckets": len(results),
            "bytes": total_bytes,
            "fp_rate": fp_rate,
        }

    def _lookup_filter_meta(self) -> dict | None:
        import json as _json

        path = os.path.join(self.lake_dir, "_filters", "manifest.json")
        try:
            with open(path) as fh:
                return _json.load(fh)
        except FileNotFoundError:
            return None

    def lookup(
        self, keys, as_of: int | None = None,
        columns: list[str] | None = None,
        use_filters: bool = True,
    ) -> pa.Table:
        """Point lookups by primary key WITHOUT scanning the lake: each
        requested key hashes to its sink bucket (the same
        ``key_hash_u64 % num_buckets`` the exchange uses), so only the
        touched buckets' files are read — one Ray task per touched
        bucket, I/O proportional to those buckets' state, independent
        of table size. The index is the layout itself; no secondary
        structure to maintain (the auditor's "what happened to key X"
        query, at serving cost).

        ``keys``: iterable of key tuples (scalars accepted for
        single-column keys). Returns live rows in canonical layout,
        key-sorted; deleted/absent keys are simply absent. ``as_of``
        time travel follows the same retention rules as
        ``final_dataset`` in both modes (delta mode rebuilds only the
        touched buckets' chains from the lineage log). ``columns``:
        payload projection pushed into the bucket-file reads (same
        contract as ``final_dataset``)."""
        import numpy as np

        from glue_etl_pipeline_ray.hashing import key_hash_u64
        from glue_etl_pipeline_ray.stages.merge import SEQ_COL, read_bucket_state

        kc = self.spec.key_cols
        tuples = [
            (k,) if not isinstance(k, (tuple, list)) else tuple(k)
            for k in keys
        ]
        if not tuples:
            return self.spec.canonical_schema(self.ckpt.evolved).empty_table()
        if any(len(t) != len(kc) for t in tuples):
            raise ValueError(f"each key must have {len(kc)} parts {kc}")
        key_arrays = [
            pa.array([str(t[i]) for t in tuples], pa.string())
            for i in range(len(kc))
        ]
        kh = key_hash_u64(*key_arrays)
        buckets = (kh % np.uint64(self.spec.num_buckets)).astype(np.int64)
        per_bucket: dict[int, list[int]] = {}
        for i, b in enumerate(buckets.tolist()):
            per_bucket.setdefault(b, []).append(i)

        # Bloom sidecar prefilter (tip reads only — time travel anchors
        # never match): drop touched buckets in which no requested key
        # can possibly exist. No false negatives; stale filters (anchor
        # != current pointer) are ignored, so this only removes reads.
        skipped = 0
        if use_filters and as_of is None and per_bucket:
            fmeta = self._lookup_filter_meta()
            if fmeta:
                from glue_etl_pipeline_ray.functions.bloom import BloomFilter

                cur = self._current_bucket_anchors()
                for b in list(per_bucket):
                    m = fmeta["buckets"].get(str(b))
                    if not m or m["anchor"] != cur.get(b):
                        continue
                    path = os.path.join(
                        self.lake_dir, "_filters", m["file"]
                    )
                    try:
                        packed = np.fromfile(path, dtype=np.uint8)
                    except FileNotFoundError:
                        continue
                    bf = BloomFilter.__new__(BloomFilter)
                    bf.m, bf.k = m["m"], m["k"]
                    bf.bits = np.unpackbits(packed)[: m["m"]].astype(bool)
                    if not bf.contains_hashes(kh[per_bucket[b]]).any():
                        del per_bucket[b]
                        skipped += 1
        self._last_lookup_stats = {
            "buckets_touched": len(per_bucket),
            "buckets_skipped": skipped,
        }

        evolved = (
            self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)
        )
        cols = self.spec.canonical_cols(evolved)
        if columns is not None:
            unknown = [c for c in columns if c not in cols]
            if unknown:
                raise ValueError(f"unknown columns {unknown}; table has {cols}")
            # keys are the result's identity (and the sort key): always
            # kept, whether or not the projection names them
            cols = [c for c in cols if c in set(columns) | set(kc)]
        st = state_schema(self.spec, evolved, columns)
        want = None
        if columns is not None:
            want = list(dict.fromkeys(
                list(columns) + list(kc) + [SEQ_COL, DELETED_COL]
            ))
        spec = self.spec
        lake_dir = self.lake_dir
        keyset = {tuple(str(p) for p in t) for t in tuples}

        @ray.remote
        def probe(src, wanted_kh, keyset):
            if isinstance(src, str):
                from glue_etl_pipeline_ray.stages.merge import (
                    read_parquet_pruned,
                )

                t = conform(read_parquet_pruned(src, want), st)
            else:  # delta chain pointer (bucket, base, deltas)
                b, base, deltas = src
                t = read_bucket_state(
                    spec, evolved, lake_dir, base, deltas, b, columns=columns
                )
            row_kh = key_hash_u64(*(t[k] for k in kc))
            cand = np.flatnonzero(np.isin(row_kh, wanted_kh))
            if len(cand) == 0:
                return t.schema.empty_table().select(cols)
            t = t.take(pa.array(cand))
            # hash prefilter, exact verify (collision guard): candidate
            # sets are key-sized, so a tuple check is aggregate work
            rows = list(zip(*(t[k].to_pylist() for k in kc)))
            exact = [i for i, r in enumerate(rows) if tuple(map(str, r)) in keyset]
            t = t.take(pa.array(exact, pa.int64()))
            return t.filter(pc.invert(t[DELETED_COL])).select(cols)

        refs = []
        if self.state_mode == "delta":
            if as_of is None:
                pointers = {
                    b: (d["base"], list(d["deltas"]))
                    for b, d in self.ckpt.bucket_deltas.items()
                    if b in per_bucket
                }
            else:
                # history: rebuild only the TOUCHED buckets' chains from
                # the lineage log (same reconstruction as
                # _delta_live_refs(as_of) — folds are caches, deltas are
                # the truth), under the same retention requirement
                self._require_delta_history(as_of)
                pointers = {
                    b: (base, chain)
                    for b, base, chain in self._delta_chain_pointers(
                        as_of, buckets=per_bucket
                    )
                }
            for b, idxs in per_bucket.items():
                if b not in pointers:
                    continue
                base, deltas = pointers[b]
                refs.append(
                    probe.remote((b, base, deltas), kh[idxs], keyset)
                )
        else:
            if as_of is not None:
                self._require_history(as_of)
            versions = (
                self.ckpt.bucket_versions
                if as_of is None
                else self.versions_as_of(as_of)
            )
            for b, idxs in per_bucket.items():
                if b not in versions:
                    continue
                refs.append(
                    probe.remote(
                        os.path.join(lake_dir, part_name(b, versions[b])),
                        kh[idxs],
                        keyset,
                    )
                )
        parts = [p for p in ray.get(refs) if p.num_rows]
        if not parts:
            # projected schema, same as the non-empty path
            return self.spec.canonical_schema(evolved).empty_table().select(cols)
        out = pa.concat_tables(parts)
        return out.sort_by([(k, "ascending") for k in kc])

    # ------------------------------------------------------------- DML
    # Predicate-driven DELETE/UPDATE over the live table, expressed as
    # CDC: the engine synthesizes change events from the matching live
    # rows and commits them through the normal exactly-once replay path
    # (validate -> evolve -> exchange -> merge -> checkpoint), so the
    # change feed, time travel, IVM refresh and replicas all see a DML
    # commit as just another batch. The Delta-Lake `DELETE FROM` /
    # `UPDATE ... WHERE` analog; the reference has no DML (its lake is
    # append-only parquet), so this is engine-side extension surface.

    def _bucket_pointers(self) -> list[tuple[int, object, list]]:
        """(bucket, base_version, delta_chain) for every bucket with
        state at the current tip; rewrite mode folds a single file."""
        if self.state_mode == "delta":
            return [
                (b, d["base"], d["deltas"])
                for b, d in sorted(self.ckpt.bucket_deltas.items())
            ]
        return [(b, v, []) for b, v in sorted(self.ckpt.bucket_versions.items())]

    def _dml_root(self) -> str:
        return os.path.join(self.lake_dir, "_dml")

    def resume_dml(self) -> dict | None:
        """Crash recovery for the stage->apply window: if a fully staged
        DML batch (MANIFEST present) was never committed, apply it now —
        the merge layer's deterministic versioned writes make the re-run
        exactly-once. A stage directory WITHOUT a manifest is a partial
        synthesis (crash mid-stage) and is discarded: nothing of it ever
        reached the checkpoint. Returns the applied batch summary or
        None when nothing was pending."""
        import json as _json
        import shutil

        root = self._dml_root()
        if not os.path.isdir(root):
            return None
        for d in sorted(os.listdir(root)):
            m = _BATCH_RE.search(d)
            if not m:
                continue
            bid = int(m.group(1))
            stage = os.path.join(root, d)
            man = os.path.join(stage, "MANIFEST.json")
            if not os.path.exists(man):
                shutil.rmtree(stage, ignore_errors=True)
                continue
            try:
                man_d = _json.load(open(man))
            except (OSError, ValueError):
                man_d = {}
            kind = man_d.get("kind")
            token = man_d.get("token")
            if self.ckpt.is_committed(bid):
                s = self.ckpt._m["batches"].get(str(bid), {})
                if token and s.get("dml_token") != token:
                    # batch-id ALIASING: the stage crashed pre-commit and
                    # an ordinary ingest replay later committed ITS OWN
                    # batch under this id (DML always stages at
                    # watermark+1 — exactly the id upstream ships next).
                    # The staged DML never applied; re-stage it under the
                    # next free id. Seqs stay as staged: the DML was
                    # issued before that ingest batch, and LWW arbitrates
                    # exactly as for any later-arriving upstream events.
                    return self._restage_and_apply(stage, man_d)
                # committed by us: self-heal the history annotation for
                # stages committed by pre-token code (the kind now rides
                # the commit itself, so this is legacy-lake repair only)
                if kind and "dml" not in s:
                    self.ckpt.annotate_batch(bid, {"dml": kind})
                continue
            files = sorted(glob.glob(os.path.join(stage, "part-*.parquet")))
            summary = self._dml_apply(bid, files, kind=kind, token=token)
            if kind:
                summary["dml"] = kind
            return summary
        return None

    def _restage_and_apply(self, old_stage: str, man: dict) -> dict:
        """Move a crash-orphaned DML stage whose batch id was since taken
        by an ingest commit (see resume_dml) to the next free id and
        apply it: part files are rewritten with the new ``batch_id``
        column (provenance), a fresh MANIFEST (new token) commits the
        rename, and only then is the old stage removed — a crash at any
        point leaves either the old stage (retried) or a complete new
        stage (applied by the next resume)."""
        import json as _json
        import shutil
        import uuid

        from glue_etl_pipeline_ray.stages.merge import write_atomic

        kind = man.get("kind")
        new_bid = self.ckpt.watermark + 1
        new_stage = os.path.join(self._dml_root(), f"batch={new_bid:05d}")
        if os.path.isdir(new_stage):  # half-restaged leftover: rebuild
            shutil.rmtree(new_stage, ignore_errors=True)
        os.makedirs(new_stage, exist_ok=True)
        bcol = self.spec.batch_col
        files = sorted(man.get("files", []))
        for f in files:
            t = pq.read_table(os.path.join(old_stage, f))
            t = t.set_column(
                t.schema.get_field_index(bcol),
                bcol,
                pa.array(np.full(t.num_rows, new_bid, np.int64)),
            )
            write_atomic(os.path.join(new_stage, f), t)
        token = uuid.uuid4().hex
        new_man = dict(
            man,
            batch_id=new_bid,
            token=token,
            files=files,
            restaged_from=man.get("batch_id"),
        )
        tmp = os.path.join(new_stage, "MANIFEST.json.tmp")
        with open(tmp, "w") as fh:
            _json.dump(new_man, fh)
        os.replace(tmp, os.path.join(new_stage, "MANIFEST.json"))
        shutil.rmtree(old_stage, ignore_errors=True)
        summary = self._dml_apply(
            new_bid,
            [os.path.join(new_stage, f) for f in files],
            kind=kind,
            token=token,
        )
        if kind:
            summary["dml"] = kind
        summary["restaged_from"] = man.get("batch_id")
        return summary

    def _dml_apply(
        self,
        batch_id: int,
        files: list[str],
        kind: str | None = None,
        token: str | None = None,
    ) -> dict:
        """Commit a staged DML batch through the normal replay path.
        The source-origin event filter is bypassed: synthesized events
        are engine-internal, not upstream traffic. ``kind``/``token``
        are persisted atomically WITH the commit (via ``_batch_extra``)
        so history() and resume_dml identity never need a second
        write."""
        self._gc_orphaned_backfill_lineage()
        saved = self.event_filter
        extra: dict = {}
        if kind:
            extra["dml"] = kind
        if token:
            extra["dml_token"] = token
        self.event_filter = None
        self._batch_extra = extra or None
        try:
            if self.exchange == "raycore":
                return self._replay_pipelined([(batch_id, files)], None)[0]
            return self.apply_batch(batch_id, files)
        finally:
            self.event_filter = saved
            self._batch_extra = None

    @_with_writer_lease
    def delete_where(
        self,
        predicate,
        seq_base: int | None = None,
        columns: list[str] | None = None,
    ) -> dict:
        """Delete every live row matching ``predicate`` (a vectorized
        ``pa.Table -> boolean array`` over the canonical live columns)
        by committing synthesized DELETE events. See :meth:`_dml` for
        seq semantics and crash safety.

        ``columns``: the payload columns the predicate reads — a DELETE
        never needs the rest (tombstones carry null payload), so naming
        them prunes the per-bucket state scan to keys + these columns;
        a path-prefix delete on a content-heavy lake then never reads
        ``content`` off storage. Omit to scan everything (always
        correct)."""
        return self._dml("delete", predicate, None, seq_base, columns)

    @_with_writer_lease
    def update_where(self, predicate, set_fn, seq_base: int | None = None) -> dict:
        """Rewrite matching live rows: ``set_fn(matched: pa.Table) ->
        dict[col -> array]`` returns replacement PAYLOAD columns (keys
        are immutable — changing a key is a delete + insert, which DML
        deliberately does not hide). Unreturned payload columns keep
        their current values. Rows whose new payload fails the spec's
        rules dead-letter exactly like upstream dirt."""
        return self._dml("update", predicate, set_fn, seq_base)

    def _dml(
        self,
        kind: str,
        predicate,
        set_fn,
        seq_base: int | None,
        columns: list[str] | None = None,
    ) -> dict:
        """Shared DELETE/UPDATE driver.

        Sequencing: synthesized events get ``seq`` starting at
        ``seq_base`` (default: 1 + the max seq anywhere in the lake,
        tombstones included), assigned densely in (bucket, key) order —
        deterministic and above everything already applied. Upstream
        events that arrive LATER with HIGHER seqs override DML rows and
        ones with lower seqs lose to them — ordinary LWW. A caller whose
        upstream reuses the engine-observed seq range must pass an
        explicit disjoint ``seq_base`` (colliding seqs are a contract
        violation exactly as duplicated upstream seqs are).

        Crash safety: events are staged under ``_dml/batch=N/`` with an
        atomically renamed MANIFEST written only after every part file;
        the commit itself is the normal checkpoint commit. Crash before
        MANIFEST -> stage discarded, lake untouched. Crash after
        MANIFEST before commit -> :meth:`resume_dml` (called on entry
        here too) finishes it exactly-once."""
        import shutil

        self.resume_dml()  # never interleave with a half-done DML
        spec = self.spec
        evolved = self.ckpt.evolved
        batch_id = self.ckpt.watermark + 1
        no_op = {
            "dml": kind, "batch_id": None, "n_matched": 0,
            "watermark": self.ckpt.watermark,
        }
        pointers = self._bucket_pointers()
        if not pointers:
            return no_op
        stage = os.path.join(self._dml_root(), f"batch={batch_id:05d}")
        if os.path.isdir(stage):  # manifest-less leftovers (see resume_dml)
            shutil.rmtree(stage, ignore_errors=True)
        os.makedirs(stage, exist_ok=True)

        from glue_etl_pipeline_ray.stages.merge import SEQ_COL, read_bucket_state

        cols = spec.canonical_cols(evolved)
        key_cols = spec.key_cols
        # projection pushdown (delete only — tombstones need no payload):
        # scan keys + the predicate's columns, never the rest
        scan_cols = None
        if columns is not None:
            unknown = [c for c in columns if c not in cols]
            if unknown:
                raise ValueError(f"unknown columns {unknown}; table has {cols}")
            scan_cols = [
                c for c in cols if c in set(columns) | set(key_cols)
            ]

        payload = [(n, spec.base_type(n)) for n in spec.base_col_names] + [
            (n, type_from_name(t)) for n, t in evolved
        ]
        op_val = "DELETE" if kind == "delete" else "UPDATE"

        @ray.remote(num_returns=2)
        def scan_bucket(lake_dir, b, base, deltas):
            t = read_bucket_state(
                spec, evolved, lake_dir, base, deltas, b, columns=scan_cols
            )
            mseq = pc.max(t[SEQ_COL]).as_py() if t.num_rows else None
            live = t.filter(pc.invert(t[DELETED_COL])).select(
                cols if scan_cols is None else scan_cols
            )
            if live.num_rows:
                mask = predicate(live)
                if not isinstance(mask, (pa.Array, pa.ChunkedArray)):
                    mask = pa.array(np.asarray(mask, dtype=bool))
                rows = live.filter(pc.fill_null(mask, False))
                rows = rows.sort_by([(k, "ascending") for k in key_cols])
            else:
                rows = live
            n = rows.num_rows
            # proto events (op + keys + payload, seqs stamped later)
            out = {
                spec.op_col: pa.array(np.full(n, op_val, object), pa.string())
            }
            for k in key_cols:
                out[k] = rows[k]
            if kind == "delete":
                for name, typ in payload:
                    out[name] = pa.nulls(n, typ)
            else:
                for name, _ in payload:
                    out[name] = rows[name]
                repl = set_fn(rows) if n else {}
                valid = {name for name, _ in payload}
                for name, arr in repl.items():
                    if name not in valid:
                        raise ValueError(
                            f"update_where set_fn may only change payload "
                            f"columns {sorted(valid)}, got {name!r}"
                        )
                    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
                        arr = pa.array(arr)
                    out[name] = pc.cast(arr, dict(payload)[name])
            proto = pa.table(out)
            return proto, {"n": n, "max_seq": mseq}

        proto_refs, meta_refs, buckets = [], [], []
        for b, base, deltas in pointers:
            prr, mrr = scan_bucket.remote(self.lake_dir, b, base, deltas)
            proto_refs.append(prr)
            meta_refs.append(mrr)
            buckets.append(b)
        summary = self._stage_and_apply_protos(
            kind, stage, batch_id, buckets, proto_refs, meta_refs, seq_base
        )
        return summary if summary["batch_id"] is not None else no_op

    @_with_writer_lease
    def restore(
        self, as_of: int, seq_base: int | None = None, full: bool = False
    ) -> dict:
        """Roll the live table back to the committed ``as_of`` snapshot
        (the Delta-Lake ``RESTORE TABLE ... TO VERSION`` analog) by
        synthesizing the INVERSE of every change since: the change feed
        between ``as_of`` and the tip (with pre-images) becomes DELETE
        events for keys created since, and UPDATE events carrying the
        OLD payload for keys changed or deleted since — O(churn), never
        O(table) (measured: the 4x10^7-event probe's full-snapshot
        restore re-upserted 1.49M rows in 8.6 s; the feed path touches
        only the changed keys). ``full=True`` forces the O(snapshot)
        fallback (merge the whole as-of snapshot with unmatched-key
        deletes) — same result, kept as the cross-check the tests gate.

        History is PRESERVED — the restore is itself an ordinary commit
        (synthesized CDC events), so the change feed shows the rollback,
        replicas/views converge through their normal delta path, and a
        restore can be restored. Like Delta, the CURRENT schema is kept:
        columns evolved after ``as_of`` stay, null on restored rows.
        Requires readable history at ``as_of`` — raises otherwise."""
        import shutil

        if full:
            snap = self.final_dataset(as_of)  # raises if history is gone
            summary = self.merge_into(
                snap, delete_unmatched=True, seq_base=seq_base
            )
            # report (and persist) the operation as what it was
            summary["dml"] = "restore"
            summary["restored_to"] = as_of
            if summary.get("batch_id") is not None:
                self.ckpt.annotate_batch(
                    summary["batch_id"], {"dml": "restore"}
                )
            return summary

        from glue_etl_pipeline_ray.stages.merge import (
            CHANGE_TYPE_COL,
            SEQ_COL,
            read_bucket_state,
        )

        self.resume_dml()
        spec = self.spec
        evolved = self.ckpt.evolved
        batch_id = self.ckpt.watermark + 1
        wm = self.ckpt.watermark
        if as_of >= wm:
            return {
                "dml": "restore", "batch_id": None, "n_matched": 0,
                "watermark": wm,
            }
        key_cols = spec.key_cols
        payload = [(n, spec.base_type(n)) for n in spec.base_col_names] + [
            (n, type_from_name(t)) for n, t in evolved
        ]
        # NOTE: no re-bucketing here (unlike merge_into) — the feed refs
        # are already per-bucket, so the protos route for free
        pointers = {b: (base, d) for b, base, d in self._bucket_pointers()}

        # the inverse-change proto events, derived bucket-local from the
        # same shuffle-free per-bucket diff the change feed uses (the
        # feed refs ARE per-bucket, so routing needs no extra exchange)
        pairs = self._changes_refs_by_bucket(as_of, wm, update_preimages=True)
        if not pairs:
            return {
                "dml": "restore", "batch_id": None, "n_matched": 0,
                "watermark": wm,
            }
        stage = os.path.join(self._dml_root(), f"batch={batch_id:05d}")
        if os.path.isdir(stage):
            shutil.rmtree(stage, ignore_errors=True)
        os.makedirs(stage, exist_ok=True)

        @ray.remote(num_returns=2)
        def invert_bucket(lake_dir, feed, b, base, deltas):
            # drop post-images; invert: created-since -> DELETE,
            # changed/deleted-since -> UPDATE carrying the pre-image
            ct = feed[CHANGE_TYPE_COL]
            keep = pc.invert(pc.equal(ct, "update_postimage"))
            feed = feed.filter(keep)
            feed = feed.sort_by([(k, "ascending") for k in key_cols])
            ct = feed[CHANGE_TYPE_COL]
            n = feed.num_rows
            is_created = pc.equal(ct, "insert")
            cols_out = {
                spec.op_col: pc.if_else(is_created, "DELETE", "UPDATE"),
            }
            for k in key_cols:
                cols_out[k] = feed[k]
            for name, typ in payload:
                c = pc.cast(feed[name], typ)
                cols_out[name] = pc.if_else(
                    is_created, pa.nulls(n, typ), c
                )
            proto = pa.table(cols_out)
            mseq = None
            if base is not None or deltas:
                t = read_bucket_state(
                    spec, evolved, lake_dir, base, deltas, b,
                    columns=[],  # keys + seq + deleted only
                )
                if t.num_rows:
                    mseq = pc.max(t[SEQ_COL]).as_py()
            return proto, {"n": proto.num_rows, "max_seq": mseq}

        feed_buckets = [b for b, _ in pairs]
        proto_refs, meta_refs = [], []
        for b, fref in pairs:
            base, deltas = pointers.get(b, (None, []))
            prr, mrr = invert_bucket.remote(self.lake_dir, fref, b, base, deltas)
            proto_refs.append(prr)
            meta_refs.append(mrr)
        seq_floor = 0
        if seq_base is None:
            # the DML contract says synthesized seqs exceed the max seq
            # ANYWHERE in the lake — the feed may cover only churned
            # buckets, so sweep the rest (keys+seq only, no payload read)
            feed_set = set(feed_buckets)

            @ray.remote
            def bucket_max_seq(lake_dir, b, base, deltas):
                t = read_bucket_state(
                    spec, evolved, lake_dir, base, deltas, b, columns=[]
                )
                return pc.max(t[SEQ_COL]).as_py() if t.num_rows else None

            rest = [
                bucket_max_seq.remote(self.lake_dir, b, base, deltas)
                for b, (base, deltas) in pointers.items()
                if b not in feed_set
            ]
            maxes = [m for m in ray.get(rest) if m is not None]
            if maxes:
                seq_floor = max(maxes) + 1
        summary = self._stage_and_apply_protos(
            "restore", stage, batch_id, feed_buckets, proto_refs, meta_refs,
            seq_base, seq_floor=seq_floor,
        )
        summary["dml"] = "restore"
        summary["restored_to"] = as_of
        return summary

    @_with_writer_lease
    def merge_into(
        self,
        source,
        delete_unmatched: bool = False,
        seq_base: int | None = None,
    ) -> dict:
        """MERGE a source snapshot into the lake (the Delta-Lake ``MERGE
        INTO`` / apply-full-snapshot analog): every source row upserts —
        insert-or-update decided by the ordinary LWW merge — and with
        ``delete_unmatched=True`` live lake rows whose key is absent
        from the source are deleted, making the live table equal the
        (valid subset of the) source. Expressed as CDC: synthesized
        UPDATE events from source rows plus DELETE events for unmatched
        keys, staged and committed exactly like :meth:`_dml` (same
        ``_dml/`` crash contract, same seq semantics; source rows go
        through validation, so invalid rows dead-letter).

        ``source``: a ``pa.Table`` or ``ray.data.Dataset`` carrying the
        key columns plus ALL base payload columns (evolved columns are
        optional and null-backfilled). Keys should be unique in the
        source; duplicates resolve deterministically (last after a
        stable key sort wins)."""
        import json as _json
        import shutil

        self.resume_dml()
        spec = self.spec
        evolved = self.ckpt.evolved
        batch_id = self.ckpt.watermark + 1
        stage = os.path.join(self._dml_root(), f"batch={batch_id:05d}")
        if os.path.isdir(stage):
            shutil.rmtree(stage, ignore_errors=True)
        srcdir = os.path.join(stage, "_src")
        os.makedirs(srcdir, exist_ok=True)

        from glue_etl_pipeline_ray.hashing import bucket_of
        from glue_etl_pipeline_ray.stages.merge import (
            SEQ_COL,
            read_bucket_state,
            write_atomic,
        )

        key_cols = spec.key_cols
        payload = [(n, spec.base_type(n)) for n in spec.base_col_names] + [
            (n, type_from_name(t)) for n, t in evolved
        ]
        src_cols = list(key_cols) + [n for n, _ in payload]
        nb = spec.num_buckets

        # ---- route the source to sink buckets (one src file per bucket)
        def _route(t: pa.Table) -> dict[int, pa.Table]:
            missing = [c for c in key_cols + spec.base_col_names if c not in t.schema.names]
            if missing:
                raise ValueError(f"merge_into source missing columns: {missing}")
            for n, typ in payload:
                if n not in t.schema.names:
                    t = t.append_column(n, pa.nulls(t.num_rows, typ))
            t = t.select(src_cols)
            b = bucket_of(nb, *(t[k] for k in key_cols))
            out = {}
            for bb in np.unique(b):
                out[int(bb)] = t.filter(pa.array(b == bb))
            return out

        if isinstance(source, pa.Table):
            src_files: dict[int, str] = {}
            for b, part in _route(source).items():
                p = os.path.join(srcdir, f"src-{b:05d}.parquet")
                write_atomic(p, part)
                src_files[b] = p
        else:  # Dataset: distributed routing, one keyed shuffle

            def route_batch(t: pa.Table) -> pa.Table:
                parts = _route(t)
                if not parts:
                    empty = pa.schema(
                        [pa.field(c, pa.string()) for c in key_cols]
                        + [pa.field(n, typ) for n, typ in payload]
                    ).empty_table()
                    return empty.append_column(BUCKET_COL, pa.array([], pa.int64()))
                return pa.concat_tables(
                    p.append_column(
                        BUCKET_COL, pa.array(np.full(p.num_rows, b, np.int64))
                    )
                    for b, p in parts.items()
                )

            def stage_src(g: pa.Table) -> pa.Table:
                b = int(g[BUCKET_COL][0].as_py())
                p = os.path.join(srcdir, f"src-{b:05d}.parquet")
                write_atomic(p, g.drop_columns([BUCKET_COL]))
                return pa.table({"bucket": pa.array([b], pa.int64())})

            routed = source.map_batches(
                route_batch, batch_format="pyarrow", batch_size=None
            )
            got = routed.groupby(BUCKET_COL).map_groups(
                stage_src, batch_format="pyarrow"
            ).take_all()
            src_files = {
                int(r["bucket"]): os.path.join(
                    srcdir, f"src-{int(r['bucket']):05d}.parquet"
                )
                for r in got
            }

        pointers = {b: (base, deltas) for b, base, deltas in self._bucket_pointers()}
        all_buckets = sorted(set(src_files) | set(pointers))
        if not all_buckets:
            shutil.rmtree(stage, ignore_errors=True)
            return {
                "dml": "merge", "batch_id": None, "n_matched": 0,
                "watermark": self.ckpt.watermark,
            }
        cols = spec.canonical_cols(evolved)

        @ray.remote(num_returns=2)
        def proto_bucket(lake_dir, b, src_path, base, deltas):
            """Per-bucket proto events (op + keys + payload, no seq yet):
            source upserts, then — when asked — deletes for live keys the
            source does not carry. Deterministic order: deletes sorted by
            key, then source rows sorted by key (stable, so an in-source
            duplicate's later row wins the LWW)."""
            src = (
                pq.read_table(src_path)
                if src_path is not None
                else pa.schema(
                    [pa.field(c, pa.string()) for c in key_cols]
                    + [pa.field(n, typ) for n, typ in payload]
                ).empty_table()
            )
            src = src.sort_by([(k, "ascending") for k in key_cols])
            parts = []
            mseq = None
            if base is not None or deltas:
                t = read_bucket_state(spec, evolved, lake_dir, base, deltas, b)
                if t.num_rows:
                    mseq = pc.max(t[SEQ_COL]).as_py()
                if delete_unmatched and t.num_rows:
                    live = t.filter(pc.invert(t[DELETED_COL]))
                    # keys are always strings (canonical schema); a \x00
                    # join is collision-free for multi-column keys
                    def kj(tab):
                        if len(key_cols) == 1:
                            return tab[key_cols[0]]
                        return pc.binary_join_element_wise(
                            *(pc.cast(tab[k], pa.string()) for k in key_cols),
                            "\x00",
                        )
                    vs = kj(src) if src.num_rows else pa.array([], pa.string())
                    if isinstance(vs, pa.ChunkedArray):
                        vs = vs.combine_chunks()
                    gone = pc.invert(pc.is_in(kj(live), value_set=vs))
                    dead = live.filter(gone).sort_by(
                        [(k, "ascending") for k in key_cols]
                    )
                    if dead.num_rows:
                        dcols = {spec.op_col: pa.array(
                            np.full(dead.num_rows, "DELETE", object), pa.string()
                        )}
                        for k in key_cols:
                            dcols[k] = dead[k]
                        for n, typ in payload:
                            dcols[n] = pa.nulls(dead.num_rows, typ)
                        parts.append(pa.table(dcols))
            if src.num_rows:
                ucols = {spec.op_col: pa.array(
                    np.full(src.num_rows, "UPDATE", object), pa.string()
                )}
                for k in key_cols:
                    ucols[k] = src[k]
                for n, typ in payload:
                    ucols[n] = pc.cast(src[n], typ)
                parts.append(pa.table(ucols))
            if not parts:
                proto = pa.schema(
                    [pa.field(spec.op_col, pa.string())]
                    + [pa.field(c, pa.string()) for c in key_cols]
                    + [pa.field(n, typ) for n, typ in payload]
                ).empty_table()
            else:
                proto = pa.concat_tables(parts)
            return proto, {"n": proto.num_rows, "max_seq": mseq}

        proto_refs, meta_refs = [], []
        for b in all_buckets:
            base, deltas = pointers.get(b, (None, []))
            prr, mrr = proto_bucket.remote(
                self.lake_dir, b, src_files.get(b), base, deltas
            )
            proto_refs.append(prr)
            meta_refs.append(mrr)
        return self._stage_and_apply_protos(
            "merge", stage, batch_id, all_buckets, proto_refs, meta_refs, seq_base
        )

    def _stage_and_apply_protos(
        self,
        kind: str,
        stage: str,
        batch_id: int,
        buckets: list[int],
        proto_refs: list,
        meta_refs: list,
        seq_base: int | None,
        seq_floor: int = 0,
    ) -> dict:
        """Shared DML tail: stamp per-bucket proto events (op + keys +
        payload, produced by the caller's wave-1 tasks together with a
        tiny ``{"n", "max_seq"}`` meta per bucket) with dense seqs above
        the lake's max, stage them with an atomically-renamed MANIFEST,
        and commit through the normal replay path. ``seq_floor``: extra
        lower bound for the default seq assignment, for callers whose
        wave-1 metas cover only a subset of the lake's buckets."""
        import json as _json
        import shutil

        from glue_etl_pipeline_ray.stages.merge import write_atomic

        spec = self.spec
        metas = ray.get(meta_refs)  # tiny: one dict per bucket
        total = sum(m["n"] for m in metas)
        if total == 0:
            shutil.rmtree(stage, ignore_errors=True)
            return {
                "dml": kind, "batch_id": None, "n_matched": 0,
                "watermark": self.ckpt.watermark,
            }
        max_seq = max(
            (m["max_seq"] for m in metas if m["max_seq"] is not None), default=-1
        )
        base_seq = max(max_seq + 1, seq_floor) if seq_base is None else seq_base

        @ray.remote
        def stamp_and_write(b, proto, seq0):
            n = proto.num_rows
            out = pa.table(
                {
                    spec.seq_col: pa.array(
                        np.arange(seq0, seq0 + n, dtype=np.int64)
                    ),
                    spec.batch_col: pa.array(np.full(n, batch_id, np.int64)),
                    **{c: proto[c] for c in proto.schema.names},
                }
            )
            fname = f"part-{b:05d}.parquet"
            write_atomic(os.path.join(stage, fname), out)
            return fname, n

        offsets, acc = {}, base_seq
        for b, m in zip(buckets, metas):
            if m["n"]:
                offsets[b] = acc
                acc += m["n"]
        written = ray.get(
            [
                stamp_and_write.remote(b, prr, offsets[b])
                for b, prr, m in zip(buckets, proto_refs, metas)
                if m["n"]
            ]
        )
        import uuid

        token = uuid.uuid4().hex
        manifest = {
            "kind": kind,
            "batch_id": batch_id,
            "token": token,
            "n_matched": total,
            "seq_base": base_seq,
            "files": sorted(f for f, _ in written),
        }
        tmp = os.path.join(stage, "MANIFEST.json.tmp")
        with open(tmp, "w") as fh:
            _json.dump(manifest, fh)
        os.replace(tmp, os.path.join(stage, "MANIFEST.json"))
        files = [os.path.join(stage, f) for f in manifest["files"]]
        # kind + token land atomically with the commit — history() sees
        # the kind in fresh processes with no annotate-after crash window
        summary = self._dml_apply(batch_id, files, kind=kind, token=token)
        summary["dml"] = kind
        summary["n_matched"] = total
        return summary


def _where_mask(t: pa.Table, where: list[tuple]) -> pa.Array:
    """Vectorized conjunction mask for :meth:`ReplayEngine.scan`'s
    residual filter (delta mode / any post-fold check). Null compares
    to nothing (``fill_null(False)``) so both execution paths agree
    with the Parquet scanner's SQL-style semantics."""
    mask = None
    for col, op, val in where:
        c = t[col]
        if op == "==":
            m = pc.equal(c, val)
        elif op == "!=":
            m = pc.not_equal(c, val)
        elif op == "<":
            m = pc.less(c, val)
        elif op == "<=":
            m = pc.less_equal(c, val)
        elif op == ">":
            m = pc.greater(c, val)
        elif op == ">=":
            m = pc.greater_equal(c, val)
        elif op == "in":
            m = pc.is_in(c, value_set=pa.array(list(val)))
        else:  # validated upstream; defensive
            raise ValueError(f"unknown op {op!r}")
        m = pc.fill_null(m, False)
        mask = m if mask is None else pc.and_(mask, m)
    return mask
