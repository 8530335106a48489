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
the same canonical layout, and per-batch lineage summaries.
"""

from __future__ import annotations

import json
import os


class CheckpointManager:
    def __init__(self, lake_dir: str):
        self.dir = os.path.join(lake_dir, "_checkpoint")
        self.path = os.path.join(self.dir, "manifest.json")
        self._m = self._load()

    def _load(self) -> dict:
        if os.path.exists(self.path):
            with open(self.path) as f:
                return json.load(f)
        return {
            "watermark": -1,
            "committed": [],
            "evolved": [],
            "batches": {},
            "bucket_versions": {},
        }

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
    def bucket_versions(self) -> dict[int, int]:
        """Committed state-file version per sink bucket (the snapshot
        pointer set; files ``part-{b}-v{version}`` newer than these are
        uncommitted orphans)."""
        return {int(b): int(v) for b, v in self._m.get("bucket_versions", {}).items()}

    @property
    def bucket_deltas(self) -> dict[int, dict]:
        """state_mode="delta" pointers: ``bucket -> {"base": version|None,
        "deltas": [versions...]}`` (the LSM manifest)."""
        out = {}
        for b, d in self._m.get("bucket_deltas", {}).items():
            out[int(b)] = {"base": d["base"], "deltas": list(d["deltas"])}
        return out

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
        # (watermark+1, matching versions_as_of's view of the rewrite);
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

    def append_deltas(self, new_deltas: dict[int, int]) -> None:
        """Record batch deltas (called inside commit_batch via
        new_deltas=)."""
        bd = self._m.setdefault("bucket_deltas", {})
        for b, v in new_deltas.items():
            ent = bd.setdefault(str(b), {"base": None, "deltas": []})
            if v not in ent["deltas"]:
                ent["deltas"].append(v)

    @property
    def backfills(self) -> list[dict]:
        return list(self._m.get("backfills", []))

    def record_rewrite(
        self,
        summary: dict | None,
        new_versions: dict[int, int] | None,
        folds: dict[int, dict] | None,
        evolved: tuple[tuple[str, str], ...] | None = None,
    ) -> None:
        """Commit a maintenance rewrite of bucket state in ONE atomic
        manifest write. Rewrite layout: ``new_versions`` bumps
        ``bucket_versions``. Delta layout: ``folds`` maps ``bucket ->
        {"base": new_base_version, "folded_deltas": [...]}`` — the base
        is replaced and the folded chain entries (ints for per-bucket
        delta files, ``[version, group]`` pairs for group files) leave
        the chain. ``summary``: None for a background fold; a
        ``"compaction"`` kind goes to the compactions log; any other
        kind (backfill, optimize_sort) to the backfill ledger, the
        one-rewrite-per-watermark guard, with ``evolved`` registering
        columns a backfill added. Folds and compactions are recorded in
        ``fold_history`` (the anchors of bounded-retention time travel).
        None of these are batches: no batch summary, no watermark
        change."""

        def _key(v):
            return tuple(v) if isinstance(v, (list, tuple)) else v

        m = self._m
        is_fold = summary is None or summary.get("kind") == "compaction"
        if summary is not None:
            ledger = "compactions" if is_fold else "backfills"
            m.setdefault(ledger, []).append(summary)
        for b, v in (new_versions or {}).items():
            m.setdefault("bucket_versions", {})[str(b)] = int(v)
        for b, f in (folds or {}).items():
            ent = m.setdefault("bucket_deltas", {}).setdefault(
                str(b), {"base": None, "deltas": []}
            )
            ent["base"] = int(f["base"])
            folded = {_key(v) for v in f["folded_deltas"]}
            ent["deltas"] = [v for v in ent["deltas"] if _key(v) not in folded]
            if is_fold:
                hist = m.setdefault("fold_history", {}).setdefault(str(b), [])
                if f["base"] not in hist:
                    hist.append(f["base"])
        if evolved is not None:
            m["evolved"] = [list(e) for e in evolved]
        self._write(m)

    @property
    def fold_history(self) -> dict[int, list[int]]:
        """Every fold (base) version ever recorded per bucket — the
        candidates a delta-mode time-travel read can anchor on (state
        as-of X = newest fold <= X + the delta chain after it)."""
        return {
            int(b): list(vs)
            for b, vs in self._m.get("fold_history", {}).items()
        }

    def retire_files(self, entries: list[tuple[str, int]]) -> None:
        """Delta-mode bounded retention: files superseded by a fold are
        recorded as ``[filename, fold_version]`` instead of deleted; they
        stay readable for time travel until :meth:`purge_retired_files`'s
        horizon passes the fold that made them redundant."""
        if entries:
            self._m.setdefault("retired_files", []).extend(
                [str(f), int(at)] for f, at in entries
            )
            self._write(self._m)

    def purge_retired_files(self, horizon: int) -> list[str]:
        """Pop and return filenames whose superseding fold version is at
        or below ``horizon`` — every reachable as-of >= horizon anchors on
        that fold (or a newer one), so these files are safe to delete.
        Manifest written first: a crash between write and delete only
        leaks files, never dangles a pointer."""
        kept, purged = [], []
        for ent in self._m.get("retired_files", []):
            (purged if ent[1] <= horizon else kept).append(ent)
        if purged:
            self._m["retired_files"] = kept
            self._write(self._m)
        return [f for f, _at in purged]

    def commit_batch(
        self,
        batch_id: int,
        evolved: tuple[tuple[str, str], ...],
        summary: dict,
        new_versions: dict[int, int] | None = None,
        new_deltas: dict[int, int] | None = None,
    ) -> None:
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
        if new_versions:
            bv = m.setdefault("bucket_versions", {})
            for b, v in new_versions.items():
                bv[str(b)] = int(v)
        if new_deltas:
            self.append_deltas(new_deltas)
        self._write(m)

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

    def retire_versions(self, retired: list[list[int]]) -> None:
        """Bounded-retention bookkeeping: superseded state files recorded
        as ``[bucket, old_version, superseded_at_batch]`` instead of being
        deleted eagerly; they stay readable for time travel / change feeds
        until :meth:`purge_retired`'s horizon passes them."""
        if retired:
            self._m.setdefault("retired", []).extend(
                [int(b), int(v), int(at)] for b, v, at in retired
            )
            self._write(self._m)

    def purge_retired(self, horizon: int) -> list[list[int]]:
        """Pop and return the retired entries whose SUCCESSOR version is
        at or below ``horizon`` — any snapshot as-of >= horizon resolves
        to a newer file, so these are safe to delete. The manifest is
        rewritten first; a crash between the write and the deletes only
        leaks files (never dangles a pointer)."""
        kept, purged = [], []
        for ent in self._m.get("retired", []):
            (purged if ent[2] <= horizon else kept).append(ent)
        if purged:
            self._m["retired"] = kept
            self._write(self._m)
        return purged

    def _write(self, m: dict) -> None:
        os.makedirs(self.dir, exist_ok=True)
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(m, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
