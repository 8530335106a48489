"""Lake maintenance: compaction and delta folds, clustering, backfill,
export, reshard, clone, lookup-filter sidecars and garbage collection.

Every rewrite here has one shape, the *Delta Lake* OPTIMIZE shape: a
snapshot read plus one atomic commit.

    resolve   SnapshotReader.resolve() -> one Source per bucket
    map       SnapshotReader.map_buckets(fn, sources, ...) — one Ray task
              per contiguous bucket group runs a module-level per-bucket
              function below (read_state -> transform -> write)
    commit    _commit_rewrite: ONE manifest write points every rewritten
              bucket at its new file and retires the files it supersedes,
              then the files that write dropped are unlinked

Every bucket is a base file plus a chain of group-file entries, whichever
sink wrote it, so nothing here depends on ``state_mode``; ``_release`` is
also the tail of every batch commit. :class:`Maintenance` is a mixin of
``ReplayEngine``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from glue_etl_pipeline_ray.stages.evolve import conform
from glue_etl_pipeline_ray.stages.merge import (
    DELETED_COL,
    SEQ_COL,
    part_name,
    state_schema,
    write_atomic,
    write_text_atomic,
)
from glue_etl_pipeline_ray.state.lease import with_writer_lease
from glue_etl_pipeline_ray.state.snapshot import (
    SnapshotReader,
    Source,
    file_identity,
    read_state,
)

# Version namespace of backfill / optimize_sort rewrites: 10^9 + watermark
# can never collide with a batch id, so a crashed rewrite's re-run
# overwrites only its own orphans.
BACKFILL_VERSION = 1_000_000_000

BATCH_RE = re.compile(r"batch=(\d+)")


def _path(src: Source, version: int) -> str:
    return os.path.join(src.lake_dir, part_name(src.bucket, version))


# ------------------------------------------------------ per-bucket work
# Each runs inside a SnapshotReader.map_buckets group task:
# fn(unit, *args) -> (payload, meta), meta["rows"] = state rows read.


def fold_bucket(src: Source, spec, evolved, out_v: int, horizon):
    """Fold one bucket to a single part file at version ``out_v``,
    dropping tombstones whose seq is below ``horizon`` (None: every
    tombstone; ``"keep"``: none). A single-file bucket with nothing to
    drop is left as it is (meta ``version`` None)."""
    st = read_state(spec, evolved, src)
    dropped = 0
    if horizon != "keep":
        dead = pc.fill_null(st[DELETED_COL], False)
        drop = dead if horizon is None else pc.and_(
            dead, pc.fill_null(pc.less(st[SEQ_COL], horizon), False)
        )
        dropped = pc.sum(drop).as_py() or 0
        if dropped:
            st = st.filter(pc.invert(drop))
    meta = {"bucket": src.bucket, "rows": st.num_rows + dropped,
            "dropped": dropped, "version": None}
    if dropped or src.chain:
        write_atomic(_path(src, out_v), st)
        meta["version"] = out_v
    return None, meta


def sort_bucket(src: Source, spec, evolved, out_v: int, sort_col: str,
                row_group_rows: int):
    """Rewrite one bucket sorted by ``sort_col`` (nulls last, key columns
    breaking ties) in row groups of ``row_group_rows``: sorted data and
    small groups give tight min/max statistics a scan can skip on."""
    t = read_state(spec, evolved, src)
    idx = pc.sort_indices(
        t,
        sort_keys=[(sort_col, "ascending")]
        + [(k, "ascending") for k in spec.key_cols],
        null_placement="at_end",
    )
    write_atomic(_path(src, out_v), t.take(idx), row_group_size=row_group_rows)
    return None, {"bucket": src.bucket, "rows": t.num_rows}


def backfill_bucket(src: Source, spec, evolved, out_v: int, transform):
    """Apply a backfill ``transform`` to one bucket's live rows and write
    them, with its tombstones, at version ``out_v``. Meta ``added``: the
    columns the transform added, as ``(name, type name)`` pairs."""
    from glue_etl_pipeline_ray.spec import type_name

    t = read_state(spec, evolved, src)
    bucket = src.bucket
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
        same = pc.all(pc.fill_null(pc.equal(out[k], canon[k]), False)).as_py()
        if canon.num_rows and same is not True:
            raise ValueError(f"backfill transform modified key column {k!r}")
    for c in canon_cols:
        if c in out.column_names and not out.schema.field(c).type.equals(
            canon.schema.field(c).type
        ):
            raise ValueError(
                f"backfill transform changed the type of existing column "
                f"{c!r} — widen via a change batch instead"
            )
    missing_payload = [c for c in canon_cols if c not in out.column_names]
    if missing_payload:
        raise ValueError(
            f"backfill transform dropped existing column(s) "
            f"{missing_payload} in bucket {bucket} — a backfill must return "
            "every canonical column (silently nulling them lake-wide would "
            "be unrecoverable data loss)"
        )
    reserved = {spec.seq_col, spec.op_col, spec.batch_col, SEQ_COL, DELETED_COL}
    added = tuple(
        (f.name, type_name(f.type)) for f in out.schema if f.name not in canon_cols
    )
    if any(n in reserved for n, _ in added):
        raise ValueError("backfill transform added a reserved meta column")
    st_new = state_schema(spec, evolved + added)
    live_cols = {}
    for f in st_new:
        if f.name in (SEQ_COL, DELETED_COL):
            live_cols[f.name] = live[f.name]
        elif f.name in out.column_names:
            live_cols[f.name] = out[f.name]
        else:
            live_cols[f.name] = pa.nulls(out.num_rows, f.type)
    parts = [conform(pa.table(live_cols), st_new)]
    if (pc.sum(dead).as_py() or 0) > 0:
        parts.append(conform(t.filter(dead), st_new))
    write_atomic(_path(src, out_v), pa.concat_tables(parts))
    return None, {"bucket": bucket, "rows": t.num_rows, "added": added}


def export_name(bucket: int, gen: int) -> str:
    return f"part-{bucket:05d}-g{gen:06d}.parquet"


def export_bucket(src: Source, spec, evolved, out_dir: str, gen: int):
    """Write one bucket's live rows, canonical columns, key-sorted, as
    the export file of generation ``gen``."""
    t = read_state(spec, evolved, src)
    live = (
        t.filter(pc.invert(pc.fill_null(t[DELETED_COL], False)))
        .select(spec.canonical_cols(evolved))
        .sort_by([(k, "ascending") for k in spec.key_cols])
    )
    write_atomic(os.path.join(out_dir, export_name(src.bucket, gen)), live)
    return None, {"bucket": src.bucket, "rows": t.num_rows, "live": live.num_rows}


def _new_buckets(t: pa.Table, key_cols, nb_new: int) -> np.ndarray:
    from glue_etl_pipeline_ray.hashing import key_hash_u64

    return (
        key_hash_u64(*(t[k] for k in key_cols)) % np.uint64(nb_new)
    ).astype(np.int64)


def reshard_split(src: Source, spec, evolved, out_lake: str, nb_new: int,
                  factor: int, wm: int):
    """Split one old bucket into its ``factor`` new buckets
    ``{b + k * B}`` of the new lake (version ``wm``)."""
    t = read_state(spec, evolved, src)
    meta = {"rows": t.num_rows, "written": []}
    if t.num_rows == 0:
        return None, meta
    h = _new_buckets(t, spec.key_cols, nb_new)
    nb_old = spec.num_buckets
    targets = [src.bucket + k * nb_old for k in range(factor)]
    assert np.isin(h, targets).all(), (
        "split invariant violated: a row left its bucket family"
    )
    for nb in targets:
        sub = t.filter(pa.array(h == nb))
        if sub.num_rows:
            write_atomic(os.path.join(out_lake, part_name(nb, wm)), sub)
            meta["written"].append(nb)
    return None, meta


def reshard_merge(unit: tuple, spec, evolved, out_lake: str, nb_new: int,
                  wm: int):
    """Concatenate the old buckets ``unit[1:]`` (disjoint key sets) into
    new bucket ``unit[0]`` of the new lake (version ``wm``)."""
    nb, *srcs = unit
    tabs = [read_state(spec, evolved, s) for s in srcs]
    meta = {"rows": sum(t.num_rows for t in tabs), "written": []}
    tabs = [t for t in tabs if t.num_rows]
    if not tabs:
        return None, meta
    t = pa.concat_tables(tabs)
    assert (_new_buckets(t, spec.key_cols, nb_new) == nb).all(), (
        "merge invariant violated: a row left its bucket family"
    )
    write_atomic(os.path.join(out_lake, part_name(nb, wm)), t)
    meta["written"].append(nb)
    return None, meta


def build_filter(src: Source, spec, evolved, fdir: str, fp_rate: float):
    """Build one bucket's key Bloom filter over its live keys and write
    it as the sidecar ``bucket=NNNNN.bits`` under ``fdir``."""
    from glue_etl_pipeline_ray.functions.bloom import BloomFilter
    from glue_etl_pipeline_ray.hashing import key_hash_u64

    t = read_state(spec, evolved, src, columns=[])
    live = t.filter(pc.invert(pc.fill_null(t[DELETED_COL], False)))
    h = key_hash_u64(*(live[k] for k in spec.key_cols))
    bf = BloomFilter(max(1, len(h)), fp_rate)
    bf.add_hashes(h)
    bits = np.packbits(bf.bits).tobytes()
    fname = f"bucket={src.bucket:05d}.bits"
    tmp = os.path.join(fdir, fname + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(bits)
    os.replace(tmp, os.path.join(fdir, fname))
    return None, {"bucket": src.bucket, "rows": t.num_rows, "file": fname,
                  "m": bf.m, "k": bf.k, "n_keys": len(h), "bytes": len(bits)}


def _metas(r: SnapshotReader, meta_refs) -> list[dict]:
    return [m for ms in r.gather(meta_refs) for m in ms]


class Maintenance:
    """Maintenance methods of ``ReplayEngine`` (see the module docstring)."""

    # ---------------------------------------------------------- commit tail
    def _horizon(self, wm: int) -> float | None:
        """The retirement horizon of a commit at watermark ``wm``: ledger
        entries tagged at or below it are released. Infinite under plain
        GC, ``wm - retain_batches`` under retention, None (release
        nothing) with ``gc_old_versions=False``."""
        if not self.gc_old_versions:
            return None
        if self.retain_batches is None:
            return math.inf
        return wm - self.retain_batches

    def _release(self, names) -> int:
        """Unlink the lake-root files ``names``: the ones a commit's
        manifest write dropped from the served set, or the orphans
        :meth:`gc_orphans` found. Returns the files removed."""
        n = 0
        for name in names:
            try:
                os.remove(os.path.join(self.lake_dir, name))
                n += 1
            except FileNotFoundError:
                pass
        return n

    def _commit_rewrite(
        self,
        old: dict[int, Source],
        new_v: dict[int, int],
        at: int,
        summary: dict | None = None,
        evolved=None,
    ) -> None:
        """Commit a maintenance rewrite: ONE manifest write points each
        bucket of ``new_v`` at base version ``new_v[b]``, with the chain
        of ``old[b]`` folded into it, and retires the files it supersedes
        tagged ``at`` (see ``CheckpointManager.record_rewrite`` for
        ``summary`` and ``evolved``); then :meth:`_release` unlinks the
        files that write dropped."""
        folds = {
            b: {"base": v, "folded_deltas": list(old[b].chain)}
            for b, v in new_v.items()
        }
        self._release(self.ckpt.record_rewrite(
            summary, folds, at, self._horizon(self.ckpt.watermark), evolved
        ))

    # -------------------------------------------------------- delta folds
    def _submit_folds(self, buckets) -> tuple:
        """Submit folds of ``buckets``' base + chain into a new base at
        the current watermark WITHOUT blocking, every tombstone kept (the
        replay loop's background folds); returns the argument tuple of
        :meth:`_apply_fold_results`. The chains are taken now: deltas
        committed afterwards have versions above this watermark, so the
        new base plus the remaining chain stays a correct LWW prefix."""
        r = SnapshotReader.of(self)
        srcs = r.resolve(buckets=buckets)
        wm = self.ckpt.watermark
        _, metas = r.map_buckets(
            fold_bucket, list(srcs.values()), self.spec, self.ckpt.evolved,
            wm, "keep",
        )
        return metas, srcs, wm

    def _apply_fold_results(self, metas, srcs: dict[int, Source], wm: int) -> None:
        """Wait for submitted folds and commit them (superseded files
        retire tagged with the fold version: as-of reads at or above it
        anchor on the new base). A crash before the commit leaves the new
        base files unserved: :meth:`gc_orphans` removes them, and a
        later fold at the same watermark overwrites them."""
        new_v = {
            m["bucket"]: m["version"]
            for m in _metas(SnapshotReader.of(self), metas)
            if m["version"] is not None
        }
        if new_v:
            self._commit_rewrite(srcs, new_v, wm)

    # ------------------------------------------------------------ compaction
    @with_writer_lease
    def compact(self, min_retained_seq: int | None = None) -> dict:
        """Drop tombstones from the committed state (LSM-style compaction);
        a delta lake's chains fold into new bases on the way.

        A tombstone is only needed to beat a *late* event with a smaller
        ``seq`` arriving in a future batch. ``min_retained_seq`` declares
        the lateness horizon: tombstones with ``seq >= min_retained_seq``
        are kept; default (None) drops them all (caller asserts no late
        data — the reference's pipeline has the same property once a file
        set is committed, ``update_workflow_properties.py:141-165``).

        Rewrites each affected bucket at version = current watermark (a
        committed batch id can never be re-run, so overwriting that
        version is safe) in one grouped map over the tip, then commits
        every new pointer in one manifest write and GCs the old files.
        Returns the buckets rewritten and the tombstones dropped."""
        wm = self.ckpt.watermark
        if wm < 0:
            return {"compacted_buckets": 0, "dropped_tombstones": 0}
        r = self._reader()
        srcs = r.resolve()
        _, metas = r.map_buckets(
            fold_bucket, list(srcs.values()), self.spec, self.ckpt.evolved,
            wm, min_retained_seq,
        )
        metas = _metas(r, metas)
        new_v = {m["bucket"]: m["version"] for m in metas if m["version"] is not None}
        dropped = sum(m["dropped"] for m in metas)
        if new_v:
            summary = {
                "kind": "compaction",
                "watermark": wm,
                "compacted_buckets": len(new_v),
                "dropped_tombstones": dropped,
            }
            # superseded files serve as-of reads up to wm (lineage still
            # names them), so they retire tagged wm + 1
            self._commit_rewrite(srcs, new_v, wm + 1, summary)
        return {"compacted_buckets": len(new_v), "dropped_tombstones": dropped}

    # ------------------------------------------------- backfill / optimize
    def _rewrite_watermark(self, what: str, again: str) -> int:
        """The watermark a lake-wide rewrite (backfill, optimize_sort)
        runs at; raises on an empty lake or when one already ran at it
        (the shared one-rewrite-per-watermark ledger keeps re-runs
        reading pristine inputs)."""
        wm = self.ckpt.watermark
        if wm < 0:
            raise ValueError(f"nothing to {what}: empty lake")
        if any(bf.get("watermark") == wm for bf in self.ckpt.backfills):
            raise ValueError(
                f"already {again} at watermark {wm}: apply another batch "
                "before rewriting again (one rewrite per watermark keeps "
                "re-runs reading pristine inputs)"
            )
        return wm

    def _commit_backfill(self, srcs, wm: int, summary: dict, evolved) -> None:
        """Commit a lake-wide rewrite at version ``10^9 + wm``. The
        lineage record is written BEFORE the manifest commit: the rewrite
        redefines state starting at the NEXT span (as_of <= wm keeps
        resolving pre-rewrite), so as-of pointers and the change feed
        pick up the new files at batch wm + 1. Without these records a
        feed spanning the rewrite silently omits every bucket the next
        batch didn't touch. A crash between lineage and manifest leaves
        records a re-run rewrites (and replay GCs if never re-run); the
        reverse order would leave a committed rewrite the feed is
        permanently blind to."""
        new_v = {b: BACKFILL_VERSION + wm for b in srcs}
        self._write_backfill_lineage(wm, new_v)
        self._commit_rewrite(srcs, new_v, wm + 1, summary, evolved)

    @with_writer_lease
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
        is deterministic under any parallelism. A delta bucket's chain
        folds into the sorted base (tombstones kept)."""
        if self.ckpt.watermark < 0:
            raise ValueError("nothing to optimize: empty lake")
        spec, evolved = self.spec, self.ckpt.evolved
        if sort_col not in spec.canonical_cols(evolved):
            raise ValueError(f"unknown sort column {sort_col!r}")
        wm = self._rewrite_watermark("optimize", "rewritten")
        r = self._reader()
        srcs = r.resolve()
        _, metas = r.map_buckets(
            sort_bucket, list(srcs.values()), spec, evolved,
            BACKFILL_VERSION + wm, sort_col, row_group_rows,
        )
        r.gather(metas)
        summary = {
            "kind": "optimize_sort",
            "watermark": wm,
            "sort_col": sort_col,
            "buckets": len(srcs),
            "out_version": BACKFILL_VERSION + wm,
        }
        if _fail_before_commit:
            raise RuntimeError("injected crash before optimize commit")
        self._commit_backfill(srcs, wm, summary, evolved)
        return summary

    @with_writer_lease
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
        re-run read pristine inputs. A delta bucket's chain folds into
        the rewritten base (tombstones kept).

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
        wm = self._rewrite_watermark("backfill", "backfilled")
        spec, evolved = self.spec, self.ckpt.evolved
        r = self._reader()
        srcs = r.resolve()
        _, metas = r.map_buckets(
            backfill_bucket, list(srcs.values()), spec, evolved,
            BACKFILL_VERSION + wm, transform,
        )
        added_sets = {m["added"] for m in _metas(r, metas)}
        if len(added_sets) > 1:
            raise ValueError(
                "backfill transform added inconsistent columns across "
                f"buckets: {sorted(added_sets)}"
            )
        added = added_sets.pop() if added_sets else ()
        summary = {
            "kind": "backfill",
            "watermark": wm,
            "buckets": len(srcs),
            "added_cols": [list(a) for a in added],
            "out_version": BACKFILL_VERSION + wm,
        }
        if _fail_before_commit:
            raise RuntimeError("injected crash before backfill commit")
        self._commit_backfill(srcs, wm, summary, evolved + added)
        return summary

    def _write_backfill_lineage(self, wm: int, new_ptrs: dict[int, int]) -> None:
        """One lineage file per backfill, named to sort between
        ``batch={wm}.jsonl`` and ``batch={wm+1}.jsonl`` so read_lineage's
        file order stays commit order. Bucket records carry
        ``batch_id = wm + 1`` (the span the rewrite becomes visible in)
        and ``chain_floor = wm`` (delta chains replay strictly-after
        deltas on top of the backfilled base)."""
        lin_dir = os.path.join(self.lake_dir, "_lineage")
        os.makedirs(lin_dir, exist_ok=True)
        path = os.path.join(lin_dir, f"batch={wm:05d}_backfill.jsonl")
        lines = [{"kind": "backfill_summary", "batch_id": wm + 1, "watermark": wm}] + [
            {
                "kind": "bucket",
                "bucket": b,
                "batch_id": wm + 1,
                "version": v,
                "backfill_base": True,
                "chain_floor": wm,
            }
            for b, v in sorted(new_ptrs.items())
        ]
        write_text_atomic(path, "".join(json.dumps(r) + "\n" for r in lines))

    def _gc_orphaned_backfill_lineage(self) -> None:
        """Remove backfill lineage files whose manifest commit never
        landed (crash between the lineage write and the commit) —
        without this, later batches would read half-backfilled pointer
        sets. A re-run of the same backfill (the documented recovery)
        rewrites the file before this ever fires."""
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
    def export_snapshot(self, out_dir: str, incremental: bool = True) -> dict:
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
        while (or after a crash while) the next export runs. After the
        manifest commit, exporter-owned files the new manifest doesn't
        reference are swept, leaving the directory glob-clean at rest; a
        reader still holding the pre-swap manifest then gets a loud
        missing-file error, never silently mixed data."""
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
                prior = json.load(f)
        r = self._reader()
        srcs = r.resolve()

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
        gen = (prior.get("gen", 0) if prior else 0) + 1
        prior_files = {
            int(b): v["file"]
            for b, v in (prior.get("buckets", {}) if prior else {}).items()
        }
        if full_needed:
            todo = set(srcs)
        else:
            prior_wm = prior["watermark"]
            touched = {
                int(rec["bucket"])
                for rec in read_lineage(self.lake_dir)
                if rec.get("kind") == "bucket"
                and int(rec.get("batch_id", -1)) > prior_wm
                # backfill rewrites force a FULL export via the ledger
                # count above; their bucket records (batch_id = wm+1)
                # must not keep re-marking every bucket afterwards
                and not rec.get("backfill_base")
            }
            missing = {
                b
                for b in srcs
                if b not in prior_files
                or not os.path.exists(os.path.join(out_dir, prior_files[b]))
            }
            todo = (touched & set(srcs)) | missing
        _, metas = r.map_buckets(
            export_bucket, [srcs[b] for b in sorted(todo)], spec, evolved,
            out_dir, gen,
        )
        results = _metas(r, metas)
        buckets = dict(prior["buckets"]) if prior and not full_needed else {}
        for m in results:
            buckets[str(m["bucket"])] = {
                "rows": m["live"], "file": export_name(m["bucket"], gen)
            }
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
        write_text_atomic(man_path, json.dumps(manifest))
        # sweep part files this exporter provably wrote (exact naming
        # scheme, generation-suffixed or legacy) that the new manifest
        # does not reference — superseded generations and foreign-lake
        # leftovers. AFTER the atomic manifest commit, so a crash
        # mid-sweep only leaves unreferenced orphans, never a manifest
        # pointing at deleted files. Foreign files are preserved.
        stale = 0
        keep = {v["file"] for v in buckets.values()}
        for p in glob.glob(os.path.join(out_dir, "part-*.parquet")):
            bn = os.path.basename(p)
            if re.fullmatch(r"part-\d{5}(-g\d{6})?\.parquet", bn) and bn not in keep:
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

    # --------------------------------------------------- reshard / clone
    def _sibling(self, lake_dir: str, spec=None):
        """An engine with this one's options over another lake."""
        return type(self)(
            spec or self.spec,
            lake_dir,
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

    @with_writer_lease
    def reshard(self, out_lake_dir: str, factor: int = 2, mode: str = "split"):
        """Re-bucketing in either direction (blue/green): write a new
        lake with ``num_buckets * factor`` buckets (``mode="split"``,
        scale-out) or ``num_buckets // factor`` buckets
        (``mode="merge"``, scale-in — the symmetric answer to an
        OVER-provisioned layout whose tiny files start to dominate),
        and return an engine over it that resumes replay exactly-once
        from the same watermark.

        Both directions are LOCAL — no shuffle. Split: ``h % (f*B)``
        is congruent to ``h % B`` mod B, so every row of old bucket
        ``b`` lands in one of the ``factor`` new buckets ``{b + k*B}``.
        Merge: with ``B' = B / f`` a divisor of B, ``h % B'  ==
        (h % B) % B'``, so new bucket ``nb`` is exactly the union of old
        buckets ``{nb + k*B'}`` — disjoint key sets, concatenated. Both
        run as one grouped map over the old buckets (one Ray task per
        bucket group): O(state) total work, cluster-parallel, zero
        cross-bucket traffic — the answer to a mis-provisioned
        ``num_buckets`` at 10^10 keys without an all-to-all rewrite.

        Tombstones are carried (a late stale update to a deleted key
        must still lose LWW after the reshard). The new manifest copies
        watermark / committed / evolved / batch summaries and points
        every written bucket at its new base. Commit point = the new
        lake's manifest write (atomic rename); a crashed reshard re-runs
        with deterministic file names. Pre-reshard history (time travel,
        change feed) stays with the OLD lake — consumers resync by
        snapshot, the same contract as a passed retention horizon.

        Single-writer operation: run between ingest runs.
        """
        import dataclasses
        import shutil

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
        r = self._reader()
        srcs = r.resolve()
        if mode == "merge":
            units = [
                (nb, *(srcs[b] for b in range(nb, nb_old, nb_new) if b in srcs))
                for nb in range(nb_new)
            ]
            _, metas = r.map_buckets(
                reshard_merge, units, spec, evolved, out_lake_dir, nb_new, wm
            )
        else:
            _, metas = r.map_buckets(
                reshard_split, list(srcs.values()), spec, evolved,
                out_lake_dir, nb_new, factor, wm,
            )
        new_buckets = sorted(nb for m in _metas(r, metas) for nb in m["written"])

        # carry the quarantine queue: the DLQ is keyed by BATCH, not
        # bucket, so it re-buckets trivially — and redrive_dlq must
        # keep working on the new lake (without this, every row
        # quarantined before the reshard would be silently lost to the
        # repair loop). Blue/green copy; the old lake stays intact.
        src_dlq = os.path.join(self.lake_dir, "_dlq")
        if os.path.isdir(src_dlq):
            shutil.copytree(
                src_dlq, os.path.join(out_lake_dir, "_dlq"), dirs_exist_ok=True
            )

        # seed the NEW lake's lineage with the reshard base: one
        # "bucket" record (version=wm) per written bucket so the
        # snapshot reader's as-of pointers anchor as-of reads on the
        # reshard snapshot instead of rebuilding from an empty log
        # (which would silently drop every pre-reshard row from any
        # bucket not re-written afterwards). Earlier history stays with
        # the OLD lake; the "reshard_base" marker makes as_of < wm
        # RAISE on this lake rather than return a partial table.
        lin_dir = os.path.join(out_lake_dir, "_lineage")
        os.makedirs(lin_dir, exist_ok=True)
        lpath = os.path.join(lin_dir, f"batch={wm:05d}.jsonl")
        lines = [{
            "kind": "reshard_base", "batch_id": wm, "factor": factor,
            "mode": mode, "num_buckets": nb_new,
        }] + [
            {"kind": "bucket", "bucket": nb, "batch_id": wm,
             "version": wm, "reshard_base": True}
            for nb in new_buckets
        ]
        write_text_atomic(lpath, "".join(json.dumps(r) + "\n" for r in lines))

        # commit: one atomic manifest write makes the new lake live
        ckpt_dir = os.path.join(out_lake_dir, "_checkpoint")
        os.makedirs(ckpt_dir, exist_ok=True)
        manifest = {
            "watermark": wm,
            "committed": sorted(self.ckpt.committed),
            "evolved": [list(e) for e in evolved],
            "batches": self.ckpt._m.get("batches", {}),
            "bucket_deltas": {
                str(b): {"base": wm, "deltas": []} for b in new_buckets
            },
        }
        write_text_atomic(os.path.join(ckpt_dir, "manifest.json"), json.dumps(manifest))
        return self._sibling(
            out_lake_dir, dataclasses.replace(spec, num_buckets=nb_new)
        )

    @with_writer_lease
    def clone(self, out_lake_dir: str):
        """Zero-copy shallow clone (the Delta-Lake CLONE analog): the
        committed manifest, lineage log, DLQ and every data file are
        HARDLINKED into a new lake root — O(files) metadata work, no
        data bytes moved — and an independent engine over the new root
        is returned. Sharing inodes is safe because every lake write in
        this engine is immutable-once-committed (tmp-write + atomic
        rename, never append/truncate in place), so a post-clone commit
        in either lake replaces only its OWN directory entry and either
        side's GC merely unlinks its own name. Filesystems that refuse
        the link (cross-device) silently fall back to a copy. On a real
        object store this is a manifest-level copy (paths resolve into
        the source prefix) — the standard lakehouse shallow-clone
        contract.

        The clone snapshots COMMITTED state only: transient staging
        (``_redrive/``, ``_dml/``) and derived exports are skipped, and
        the source's writer lock is held for the walk so no commit can
        tear it. Both lakes then evolve fully independently — time
        travel, retention, reshard, DML all work on each side without
        touching the other (tests/test_clone.py)."""
        import shutil

        if self.ckpt.watermark < 0:
            raise ValueError("nothing to clone: no committed batches")
        if os.path.exists(out_lake_dir) and os.listdir(out_lake_dir):
            raise ValueError(f"clone destination {out_lake_dir!r} is not empty")
        skip_tops = {"_redrive", "_dml", "_export"}
        src_root = os.path.abspath(self.lake_dir)
        n_linked = n_copied = 0
        for dirpath, dirnames, filenames in os.walk(src_root):
            rel = os.path.relpath(dirpath, src_root)
            if rel != "." and rel.split(os.sep, 1)[0] in skip_tops:
                dirnames[:] = []
                continue
            out_dir = out_lake_dir if rel == "." else os.path.join(out_lake_dir, rel)
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
                    shutil.copy2(src, dst)
                    n_copied += 1
        eng = self._sibling(out_lake_dir)
        eng._clone_stats = {"linked": n_linked, "copied": n_copied}
        return eng

    # -------------------------------------------------------- lookup filters
    def _current_bucket_anchors(self) -> dict[int, str]:
        """Exact identity of each bucket's committed tip state — the
        freshness token lookup-filter sidecars are anchored to. Any
        commit that changes what a bucket read would return (replay,
        compaction/fold, backfill, optimize_sort, reshard) changes the
        bucket's source and hence the anchor."""
        return {b: s.anchor for b, s in SnapshotReader.of(self).resolve().items()}

    def build_lookup_filters(self, fp_rate: float = 0.005) -> dict:
        """Per-bucket key Bloom sidecars for negative point lookups: a
        grouped map over the committed buckets reads each bucket's KEY
        columns only, builds a ~1.2-bytes/key filter over the same
        ``key_hash_u64`` the exchange routes by and writes it, and a
        sidecar manifest (``_filters/manifest.json``, written LAST)
        anchors every filter to the exact committed state it summarizes.
        ``lookup`` then skips any touched bucket in which NO requested
        key can exist — at 10^10 keys the common "is X present?" miss
        costs zero data I/O instead of a bucket read. Bloom = no false
        negatives; staleness is an anchor mismatch (any later commit to
        the bucket changes its source) and a stale filter is simply
        ignored, so correctness NEVER depends on the sidecar — it only
        removes reads. Rebuild after ingest/compaction as part of the
        operational loop (cli.py ``filters``)."""
        if self.ckpt.watermark < 0:
            raise ValueError("nothing to index: no committed batches")
        anchors = self._current_bucket_anchors()
        fdir = os.path.join(self.lake_dir, "_filters")
        os.makedirs(fdir, exist_ok=True)
        r = self._reader()
        srcs = r.resolve()
        _, metas = r.map_buckets(
            build_filter, list(srcs.values()), self.spec, self.ckpt.evolved,
            fdir, fp_rate,
        )
        results = _metas(r, metas)
        meta = {
            str(m["bucket"]): {
                "file": m["file"], "m": m["m"], "k": m["k"],
                "n_keys": m["n_keys"], "anchor": anchors[m["bucket"]],
            }
            for m in results
        }
        write_text_atomic(
            os.path.join(fdir, "manifest.json"),
            json.dumps({"fp_rate": fp_rate, "buckets": meta}),
        )
        return {
            "buckets": len(results),
            "bytes": sum(m["bytes"] for m in results),
            "fp_rate": fp_rate,
        }

    def _bloom_misses(self, srcs: dict, kh, per_bucket: dict) -> list[int]:
        """Touched buckets whose sidecar rules out every requested key
        (``per_bucket``: indices into the key hashes ``kh``). Only the
        touched buckets' anchors are checked, against their resolved
        ``srcs``; a bucket without a source or with a stale anchor is
        never ruled out. The sidecar manifest and the decoded filters
        are cached until the manifest file changes (it is replaced
        atomically, after the filters it names)."""
        path = os.path.join(self.lake_dir, "_filters", "manifest.json")
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return []
        ident = file_identity(st)
        cache = getattr(self, "_filter_cache", None)
        if cache is None or cache[0] != ident:
            with open(path) as fh:
                cache = self._filter_cache = (ident, json.load(fh)["buckets"], {})
        _, meta, blooms = cache
        out = []
        for b, ix in per_bucket.items():
            m = meta.get(str(b))
            if not m or b not in srcs or m["anchor"] != srcs[b].anchor:
                continue
            bf = blooms.get(b)
            if bf is None:
                from glue_etl_pipeline_ray.functions.bloom import BloomFilter

                try:
                    packed = np.fromfile(
                        os.path.join(self.lake_dir, "_filters", m["file"]),
                        dtype=np.uint8,
                    )
                except FileNotFoundError:
                    continue
                bf = BloomFilter.__new__(BloomFilter)
                bf.m, bf.k = m["m"], m["k"]
                bf.bits = np.unpackbits(packed)[: m["m"]].astype(bool)
                blooms[b] = bf
            if not bf.contains_hashes(kh[ix]).any():
                out.append(b)
        return out

    # -------------------------------------------------------------------- GC
    @with_writer_lease
    def gc_orphans(self) -> int:
        """Delete every state file no snapshot served under the retention
        policy reads (a lake marked ``keep_history`` keeps its history
        under any engine): the ``orphans`` :meth:`fsck` lists. They are a
        crash's leftovers: files of a batch or rewrite that never
        committed, or of a commit cut among its unlinks. Exact because
        each commit is one manifest write. Returns the files removed."""
        return self._release(SnapshotReader.of(self).unserved())

    @with_writer_lease
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
        n = 0
        for d in sorted(os.listdir(root)):
            m = BATCH_RE.search(d)
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
                        token = json.load(open(man)).get("token")
                    except (OSError, ValueError):
                        token = None
                    if token and self.ckpt._m["batches"].get(
                        str(bid), {}
                    ).get("dml_token") != token:
                        continue
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
                n += 1
        return n
