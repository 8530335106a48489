"""Atomic checkpoint manifest: watermark + committed batches + schema log.

Engine analog of the Glue workflow run-property store
(``update_workflow_properties.py:123-165`` — ``run_state`` +
``event_files`` across runs = the processed set): a single JSON manifest
under ``<lake>/_checkpoint/manifest.json``, written tmp-file + atomic
``os.replace``. A batch counts as processed ONLY once it appears in
``committed`` (the exactly-once gate, A3 analog, SURVEY.md 2.5); a crash
after the sink but before commit simply re-runs the batch, which the
idempotent merge makes a no-op.

The manifest also logs the schema-evolution registry (``evolved``:
first-seen extra columns + types) so a resumed run conforms batches to
the same canonical layout, per-batch summaries and the per-bucket
pointers of the committed snapshot (see :class:`CheckpointManager`).
"""

from __future__ import annotations

import json
import math
import os

from glue_etl_pipeline_ray.stages.merge import gdelta_name, part_name, write_text_atomic


class CheckpointManager:
    """The lake's manifest. One pointer map, ``bucket_deltas``: ``bucket ->
    {"base": version | None, "deltas": [[version, group], ...]}`` — a
    ``part-*`` base file plus the ``gdelta-*`` group-file entries folded
    on top, whichever sink wrote them (a rewrite-sink bucket is a base
    with an empty chain). One retirement ledger, ``retired_files``:
    ``[name, at]`` for superseded files kept for as-of reads until the
    retention horizon passes ``at``. ``fold_history`` lists the bases
    folds and compactions wrote (the anchors of retained time travel).
    ``keep_history`` marks a lake whose time travel reads every file.
    Every commit is one manifest write that swaps pointers and ledger
    together (:meth:`_commit`)."""

    def __init__(self, lake_dir: str):
        self.dir = os.path.join(lake_dir, "_checkpoint")
        self.path = os.path.join(self.dir, "manifest.json")
        self._m = self._load()

    def _load(self) -> dict:
        if not os.path.exists(self.path):
            return {"watermark": -1, "committed": [], "evolved": [],
                    "batches": {}, "bucket_deltas": {}}
        with open(self.path) as f:
            m = json.load(f)
        bd = m.setdefault("bucket_deltas", {})
        for b, d in bd.items():
            if any(not isinstance(e, list) for e in d["deltas"]):
                raise ValueError(
                    f"lake {os.path.dirname(self.dir)!r}: bucket {b} chains "
                    "per-bucket delta-* files, a format this engine no "
                    "longer reads"
                )
        # a manifest written before one pointer model: the rewrite layout
        # kept ``bucket_versions`` and a ``retired`` ledger of [bucket,
        # version, at]; a resharded lake seeded both maps, so per bucket
        # the newer pointer wins
        for b, v in m.pop("bucket_versions", {}).items():
            d = bd.get(b)
            top = -1 if d is None else max(
                [d["base"] if d["base"] is not None else -1]
                + [e[0] for e in d["deltas"]]
            )
            if v > top:
                bd[b] = {"base": v, "deltas": []}
        m.setdefault("retired_files", []).extend(
            [part_name(b, v), at] for b, v, at in m.pop("retired", [])
        )
        return m

    @property
    def watermark(self) -> int:
        return self._m["watermark"]

    @property
    def committed(self) -> set[int]:
        return set(self._m["committed"])

    @property
    def evolved(self) -> tuple[tuple[str, str], ...]:
        return tuple((n, t) for n, t in self._m["evolved"])

    @property
    def bucket_deltas(self) -> dict[int, dict]:
        """The tip: ``bucket -> {"base": version | None, "deltas":
        [[version, group], ...]}``."""
        return {
            int(b): {"base": d["base"], "deltas": [list(e) for e in d["deltas"]]}
            for b, d in self._m["bucket_deltas"].items()
        }

    def tip_pointers(self, buckets=None) -> dict[int, tuple]:
        """``bucket -> (base, chain)`` of the tip; ``buckets`` restricts
        it to those buckets without touching the others (point lookups).
        The chains are the manifest's own lists: read, do not change."""
        bd = self._m["bucket_deltas"]
        names = bd if buckets is None else [str(b) for b in buckets if str(b) in bd]
        return {int(b): (bd[b]["base"], bd[b]["deltas"]) for b in names}

    @property
    def bucket_versions(self) -> dict[int, int]:
        """Read-only view: the base version of every bucket whose tip is
        that one file (no chain)."""
        return {
            int(b): d["base"]
            for b, d in self._m["bucket_deltas"].items()
            if d["base"] is not None and not d["deltas"]
        }

    def is_committed(self, batch_id: int) -> bool:
        return batch_id in self.committed

    def evolved_as_of(self, batch_id: int) -> tuple[tuple[str, str], ...]:
        """Schema registry as of a committed batch (time travel reads
        return the schema the table HAD then, not today's): the
        ``evolved`` list logged in the latest batch summary at or before
        ``batch_id``."""
        best_k, best = -1, ()
        for k, s in self._m.get("batches", {}).items():
            ki = int(k)
            if best_k < ki <= batch_id and "evolved" in s:
                best_k, best = ki, s["evolved"]
        out = [(n, t) for n, t in best]
        # columns a backfill added become visible in the NEXT span
        # (watermark+1, matching the lineage walk's view of the rewrite);
        # batches committed after the backfill already log them in
        # their own summaries, so this only fills the gap before one
        have = {n for n, _ in out}
        for bf in self._m.get("backfills", []):
            if bf.get("watermark", batch_id) + 1 <= batch_id:
                for n, t in bf.get("added_cols", []):
                    if n not in have:
                        out.append((n, t))
                        have.add(n)
        return tuple(out)

    @property
    def backfills(self) -> list[dict]:
        return list(self._m.get("backfills", []))

    def record_rewrite(
        self,
        summary: dict | None,
        folds: dict[int, dict],
        at: int,
        horizon: float | None,
        evolved: tuple[tuple[str, str], ...] | None = None,
    ) -> list[str]:
        """Commit a maintenance rewrite of bucket state in ONE atomic
        manifest write. ``folds`` maps ``bucket -> {"base": version,
        "folded_deltas": [...]}``: the base is replaced and the folded
        chain entries leave the chain. ``summary``: None for a background
        fold; a ``"compaction"`` kind goes to the compactions log; any
        other kind (backfill, optimize_sort) to the backfill ledger, the
        one-rewrite-per-watermark guard, with ``evolved`` registering
        columns a backfill added. Folds and compactions are recorded in
        ``fold_history``. None of these are batches: no batch summary, no
        watermark change. ``at`` and ``horizon``: see :meth:`_commit`."""
        m = self._m
        is_fold = summary is None or summary.get("kind") == "compaction"
        if summary is not None:
            ledger = "compactions" if is_fold else "backfills"
            m.setdefault(ledger, []).append(summary)
        old = self._files(folds)
        for b, f in folds.items():
            ent = m["bucket_deltas"].setdefault(str(b), {"base": None, "deltas": []})
            ent["base"] = int(f["base"])
            folded = {tuple(e) for e in f["folded_deltas"]}
            ent["deltas"] = [e for e in ent["deltas"] if tuple(e) not in folded]
            if is_fold:
                hist = m.setdefault("fold_history", {}).setdefault(str(b), [])
                if f["base"] not in hist:
                    hist.append(f["base"])
        if evolved is not None:
            m["evolved"] = [list(e) for e in evolved]
        return self._commit(old, at, horizon)

    @property
    def fold_history(self) -> dict[int, list[int]]:
        """Every fold (base) version ever recorded per bucket — the
        candidates a time-travel read on a GC'd lake can anchor on
        (state as-of X = newest fold <= X + the chain after it)."""
        return {
            int(b): list(vs)
            for b, vs in self._m.get("fold_history", {}).items()
        }

    def commit_batch(
        self,
        batch_id: int,
        evolved: tuple[tuple[str, str], ...],
        summary: dict,
        pointers: dict[int, object] | None = None,
        horizon: float | None = None,
    ) -> list[str]:
        """Commit a batch in ONE atomic manifest write. ``pointers`` maps
        each bucket the batch wrote to its new entry: an int is a new
        base version (it replaces the chain), a ``[version, group]`` pair
        is appended to the chain. The files it supersedes retire tagged
        ``batch_id`` (see :meth:`_commit` for ``horizon``)."""
        import time

        m = self._m
        if batch_id not in m["committed"]:
            m["committed"].append(batch_id)
        m["watermark"] = max(m["watermark"], batch_id)
        m["evolved"] = [list(e) for e in evolved]
        # commit wall-clock for TIMESTAMP AS OF resolution (callers may
        # pre-set it — tests pin deterministic clocks that way)
        summary.setdefault("commit_ts", time.time())
        m["batches"][str(batch_id)] = summary
        pointers = pointers or {}
        old = self._files(pointers)
        for b, p in pointers.items():
            ent = m["bucket_deltas"].setdefault(str(b), {"base": None, "deltas": []})
            if isinstance(p, (list, tuple)):
                p = [int(p[0]), int(p[1])]
                if p not in ent["deltas"]:
                    ent["deltas"].append(p)
            else:
                ent["base"], ent["deltas"] = int(p), []
        return self._commit(old, batch_id, horizon)

    def _files(self, buckets) -> set[str]:
        """The state files the manifest's entries of ``buckets`` name."""
        bd, out = self._m["bucket_deltas"], set()
        for b in map(str, buckets):
            d = bd.get(b, {"base": None, "deltas": []})
            out.update(gdelta_name(g, v) for v, g in d["deltas"])
            if d["base"] is not None:
                out.add(part_name(int(b), d["base"]))
        return out

    def _commit(self, old: set[str], at: int, horizon: float | None) -> list[str]:
        """The one manifest write of every commit, once the caller has
        repointed the buckets whose files were ``old``. With a
        ``horizon``, the ``old`` files no bucket names any more join
        ``retired_files`` tagged ``at``, and the same write drops every
        entry tagged at or below ``horizon`` (all, under plain GC's
        infinite one); returns the dropped names, for the caller to
        unlink (``gc_orphans`` removes any a crash leaves). Without one
        nothing is released and the lake is marked ``keep_history``."""
        m = self._m
        ledger = m.get("retired_files", [])
        if horizon is None:
            m["keep_history"] = True
        else:
            # a group file stays while any bucket still chains it
            gone = old - self._files(m["bucket_deltas"])
            ledger = ledger + [[n, int(at)] for n in sorted(gone)]
            # a lake that never retained anything keeps no ledger
            if "retired_files" in m or (gone and horizon != math.inf):
                m["retired_files"] = [e for e in ledger if e[1] > horizon]
        self._write(m)
        return [] if horizon is None else [n for n, a in ledger if a <= horizon]

    def annotate_batch(self, batch_id: int, extra: dict) -> None:
        """Attach metadata to an already-committed batch's summary
        (e.g. the DML kind that synthesized it) — atomic rewrite."""
        s = self._m["batches"].get(str(batch_id))
        if s is None:
            raise KeyError(f"batch {batch_id} not committed")
        s.update(extra)
        self._write(self._m)

    def resolve_timestamp(self, ts: float) -> int:
        """TIMESTAMP AS OF resolution (Delta-Lake convention): the
        LATEST committed batch whose commit wall-clock is <= ``ts``.
        Raises ``ValueError`` when ``ts`` precedes the first commit
        (there is no snapshot to serve) — same contract as Delta's
        "timestamp before earliest version" error. Batches committed by
        pre-timestamp manifests (no ``commit_ts``) are skipped."""
        best, best_ts = None, None
        for bid_s, summ in self._m["batches"].items():
            cts = summ.get("commit_ts")
            if cts is None or cts > ts:
                continue
            bid = int(bid_s)
            if best is None or cts > best_ts or (cts == best_ts and bid > best):
                best, best_ts = bid, cts
        if best is None:
            raise ValueError(
                f"timestamp {ts} precedes the first commit — no snapshot"
            )
        return best

    def _write(self, m: dict) -> None:
        os.makedirs(self.dir, exist_ok=True)
        write_text_atomic(self.path, json.dumps(m, indent=1, sort_keys=True))
