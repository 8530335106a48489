"""DML over the live table: DELETE/UPDATE WHERE, MERGE INTO and RESTORE.

Predicate-driven changes expressed as CDC: the engine synthesizes change
events from the affected live rows and commits them through the normal
exactly-once replay path (validate -> evolve -> exchange -> merge ->
checkpoint), so the change feed, time travel, IVM refresh and replicas
all see a DML commit as just another batch. The Delta-Lake `DELETE
FROM` / `UPDATE ... WHERE` / `MERGE INTO` / `RESTORE` analogs; the
reference has no DML (its lake is append-only parquet), so this is
engine-side extension surface.

Every DML runs two grouped waves over ``SnapshotReader.map_buckets``:

    wave 1  per bucket: read state, build proto events (op + keys +
            payload, no seq yet); the protos stay in the object store,
            only a ``{"n", "max_seq"}`` meta per bucket is fetched
    wave 2  per group of wave 1: stamp dense seqs above the lake's max
            and stage the events under ``_dml/batch=N/``

then an atomically renamed MANIFEST and the normal batch commit.
:class:`Dml` is a mixin of ``ReplayEngine``.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from glue_etl_pipeline_ray.pipelines.maintenance import BATCH_RE
from glue_etl_pipeline_ray.stages.merge import (
    CHANGE_TYPE_COL,
    DELETED_COL,
    SEQ_COL,
    write_atomic,
    write_text_atomic,
)
from glue_etl_pipeline_ray.state.lease import with_writer_lease
from glue_etl_pipeline_ray.state.snapshot import (
    SnapshotReader,
    Source,
    diff_live,
    read_state,
)


def _payload(spec, evolved) -> list[tuple[str, pa.DataType]]:
    """Payload (non-key canonical) columns and their types."""
    return [
        (f.name, f.type)
        for f in spec.canonical_schema(evolved)
        if f.name not in spec.key_cols
    ]


def _proto_schema(spec, evolved) -> pa.Schema:
    return pa.schema(
        [pa.field(spec.op_col, pa.string())]
        + [pa.field(k, pa.string()) for k in spec.key_cols]
        + [pa.field(n, t) for n, t in _payload(spec, evolved)]
    )


def _max_seq(t: pa.Table):
    return pc.max(t[SEQ_COL]).as_py() if t.num_rows else None


def _keyed(t: pa.Table, key_cols) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in key_cols])


# ------------------------------------------------------ per-bucket work
# Each runs inside a SnapshotReader.map_buckets group task:
# fn(unit, *args) -> ((bucket, proto events), meta).


def scan_bucket(src: Source, spec, evolved, kind, predicate, set_fn, scan_cols):
    """DELETE/UPDATE protos of one bucket: its live rows matching
    ``predicate``, key-sorted; deletes carry null payloads, updates the
    ``set_fn`` replacement columns over the current ones."""
    t = read_state(spec, evolved, src, columns=scan_cols)
    cols = spec.canonical_cols(evolved) if scan_cols is None else scan_cols
    live = t.filter(pc.invert(t[DELETED_COL])).select(cols)
    if live.num_rows:
        mask = predicate(live)
        if not isinstance(mask, (pa.Array, pa.ChunkedArray)):
            mask = pa.array(np.asarray(mask, dtype=bool))
        rows = _keyed(live.filter(pc.fill_null(mask, False)), spec.key_cols)
    else:
        rows = live
    n = rows.num_rows
    payload = _payload(spec, evolved)
    op = "DELETE" if kind == "delete" else "UPDATE"
    out = {spec.op_col: pa.array(np.full(n, op, object), pa.string())}
    for k in spec.key_cols:
        out[k] = rows[k]
    if kind == "delete":
        for name, typ in payload:
            out[name] = pa.nulls(n, typ)
    else:
        for name, _ in payload:
            out[name] = rows[name]
        repl = set_fn(rows) if n else {}
        valid = dict(payload)
        for name, arr in repl.items():
            if name not in valid:
                raise ValueError(
                    f"update_where set_fn may only change payload "
                    f"columns {sorted(valid)}, got {name!r}"
                )
            if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
                arr = pa.array(arr)
            out[name] = pc.cast(arr, valid[name])
    meta = {"bucket": src.bucket, "rows": t.num_rows, "n": n, "max_seq": _max_seq(t)}
    return (src.bucket, pa.table(out)), meta


def invert_bucket(unit: tuple, spec, evolved, ev_to):
    """RESTORE protos of one bucket ``unit = (bucket, old, new, tip)``:
    the inverse of its change feed from ``old`` to ``new`` (created
    since -> DELETE; changed or deleted since -> UPDATE carrying the
    pre-image), plus the max seq of its ``tip`` state (keys and seq
    only). A bucket with no feed (``old`` and ``new`` None) only
    reports its max seq."""
    b, old, new, tip = unit
    payload = _payload(spec, evolved)
    if old is None and new is None:
        proto = _proto_schema(spec, evolved).empty_table()
    else:
        feed = diff_live(spec, ev_to, old, new, update_preimages=True)
        feed = feed.filter(
            pc.invert(pc.equal(feed[CHANGE_TYPE_COL], "update_postimage"))
        )
        feed = _keyed(feed, spec.key_cols)
        n = feed.num_rows
        is_created = pc.equal(feed[CHANGE_TYPE_COL], "insert")
        cols = {spec.op_col: pc.if_else(is_created, "DELETE", "UPDATE")}
        for k in spec.key_cols:
            cols[k] = feed[k]
        for name, typ in payload:
            cols[name] = pc.if_else(
                is_created, pa.nulls(n, typ), pc.cast(feed[name], typ)
            )
        proto = pa.table(cols)
    t = read_state(spec, evolved, tip, columns=[]) if tip is not None else None
    meta = {
        "bucket": b,
        "rows": t.num_rows if t is not None else 0,
        "n": proto.num_rows,
        "max_seq": _max_seq(t) if t is not None else None,
    }
    return (b, proto), meta


def proto_bucket(unit: tuple, spec, evolved, delete_unmatched: bool):
    """MERGE INTO protos of one bucket ``unit = (bucket, staged source
    file or None, tip or None)``: source upserts and — when asked —
    deletes for live keys the source does not carry. Deterministic
    order: deletes sorted by key, then source rows sorted by key
    (stable, so an in-source duplicate's later row wins the LWW)."""
    b, src_path, tip = unit
    key_cols = spec.key_cols
    payload = _payload(spec, evolved)
    schema = _proto_schema(spec, evolved)
    src = (
        pq.read_table(src_path)
        if src_path is not None
        else pa.schema([f for f in schema if f.name != spec.op_col]).empty_table()
    )
    src = _keyed(src, key_cols)
    parts = []
    t = read_state(spec, evolved, tip) if tip is not None else None
    if delete_unmatched and t is not None and t.num_rows:
        live = t.filter(pc.invert(t[DELETED_COL]))

        # keys are always strings (canonical schema); a \x00 join is
        # collision-free for multi-column keys
        def kj(tab):
            if len(key_cols) == 1:
                return tab[key_cols[0]]
            return pc.binary_join_element_wise(
                *(pc.cast(tab[k], pa.string()) for k in key_cols), "\x00"
            )

        vs = kj(src) if src.num_rows else pa.array([], pa.string())
        if isinstance(vs, pa.ChunkedArray):
            vs = vs.combine_chunks()
        dead = _keyed(live.filter(pc.invert(pc.is_in(kj(live), value_set=vs))), key_cols)
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
    proto = pa.concat_tables(parts) if parts else schema.empty_table()
    meta = {
        "bucket": b,
        "rows": t.num_rows if t is not None else 0,
        "n": proto.num_rows,
        "max_seq": _max_seq(t) if t is not None else None,
    }
    return (b, proto), meta


def stamp_and_write(unit: tuple, seq0: dict, spec, batch_id: int, stage: str):
    """Stamp one bucket's protos ``unit = (bucket, proto)`` with dense
    seqs from ``seq0[bucket]`` and stage them as ``part-NNNNN.parquet``;
    a bucket with no events writes nothing (meta ``file`` None)."""
    b, proto = unit
    n = proto.num_rows
    if not n:
        return None, {"file": None}
    out = pa.table(
        {
            spec.seq_col: pa.array(np.arange(seq0[b], seq0[b] + n, dtype=np.int64)),
            spec.batch_col: pa.array(np.full(n, batch_id, np.int64)),
            **{c: proto[c] for c in proto.schema.names},
        }
    )
    fname = f"part-{b:05d}.parquet"
    write_atomic(os.path.join(stage, fname), out)
    return None, {"file": fname}


class Dml:
    """DML methods of ``ReplayEngine`` (see the module docstring)."""

    def _dml_root(self) -> str:
        return os.path.join(self.lake_dir, "_dml")

    def _new_stage(self, batch_id: int) -> str:
        """A fresh ``_dml/batch=N`` stage dir (manifest-less leftovers of
        a crashed stage are discarded; see resume_dml)."""
        stage = os.path.join(self._dml_root(), f"batch={batch_id:05d}")
        if os.path.isdir(stage):
            shutil.rmtree(stage, ignore_errors=True)
        os.makedirs(stage, exist_ok=True)
        return stage

    def _no_op(self, kind: str) -> dict:
        return {
            "dml": kind, "batch_id": None, "n_matched": 0,
            "watermark": self.ckpt.watermark,
        }

    def resume_dml(self) -> dict | None:
        """Crash recovery for the stage->apply window: if a fully staged
        DML batch (MANIFEST present) was never committed, apply it now —
        the merge layer's deterministic versioned writes make the re-run
        exactly-once. A stage directory WITHOUT a manifest is a partial
        synthesis (crash mid-stage) and is discarded: nothing of it ever
        reached the checkpoint. Returns the applied batch summary or
        None when nothing was pending."""
        root = self._dml_root()
        if not os.path.isdir(root):
            return None
        for d in sorted(os.listdir(root)):
            m = BATCH_RE.search(d)
            if not m:
                continue
            bid = int(m.group(1))
            stage = os.path.join(root, d)
            man = os.path.join(stage, "MANIFEST.json")
            if not os.path.exists(man):
                shutil.rmtree(stage, ignore_errors=True)
                continue
            try:
                man_d = json.load(open(man))
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
                    # requested before that ingest batch, and LWW arbitrates
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
        kind = man.get("kind")
        new_bid = self.ckpt.watermark + 1
        new_stage = self._new_stage(new_bid)  # half-restaged leftovers: rebuild
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
        write_text_atomic(os.path.join(new_stage, "MANIFEST.json"), json.dumps(new_man))
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
            return self.apply_batch(batch_id, files)
        finally:
            self.event_filter = saved
            self._batch_extra = None

    @with_writer_lease
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

    @with_writer_lease
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
        """Shared DELETE/UPDATE path.

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
        self.resume_dml()  # never interleave with a half-done DML
        spec, evolved = self.spec, self.ckpt.evolved
        r = self._reader()
        srcs = list(r.resolve().values())
        if not srcs:
            return self._no_op(kind)
        # projection pushdown (delete only — tombstones need no payload):
        # scan keys + the predicate's columns, never the rest
        scan_cols = None
        if columns is not None:
            scan_cols = r.columns(evolved, columns, keep=spec.key_cols)
        batch_id = self.ckpt.watermark + 1
        stage = self._new_stage(batch_id)
        protos, metas = r.map_buckets(
            scan_bucket, srcs, spec, evolved, kind, predicate, set_fn, scan_cols
        )
        return self._stage_and_apply_protos(
            r, kind, stage, batch_id, protos, metas, seq_base
        )

    @with_writer_lease
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
        if full:
            snap = self.final_dataset(as_of)  # raises if history is gone
            summary = self.merge_into(snap, delete_unmatched=True, seq_base=seq_base)
            # report (and persist) the operation as what it was
            summary["dml"] = "restore"
            summary["restored_to"] = as_of
            if summary.get("batch_id") is not None:
                self.ckpt.annotate_batch(summary["batch_id"], {"dml": "restore"})
            return summary

        self.resume_dml()
        wm = self.ckpt.watermark
        if as_of >= wm:
            return self._no_op("restore")
        r = self._reader()
        # the inverse-change protos come bucket-local from the same
        # shuffle-free per-bucket diff the change feed uses; buckets whose
        # source did not change since ``as_of`` have nothing to undo
        pairs = r.change_pairs(as_of, wm)
        if not pairs:
            return self._no_op("restore")
        tip = r.resolve()
        units = {b: (b, old, new, tip.get(b)) for b, old, new in pairs}
        if seq_base is None:
            # the DML contract says synthesized seqs exceed the max seq
            # ANYWHERE in the lake — the feed may cover only churned
            # buckets, so the rest report their max seq too
            for b, s in tip.items():
                units.setdefault(b, (b, None, None, s))
        stage = self._new_stage(wm + 1)
        protos, metas = r.map_buckets(
            invert_bucket, [units[b] for b in sorted(units)], self.spec,
            self.ckpt.evolved, self.ckpt.evolved_as_of(wm),
        )
        summary = self._stage_and_apply_protos(
            r, "restore", stage, wm + 1, protos, metas, seq_base
        )
        summary["dml"] = "restore"
        summary["restored_to"] = as_of
        return summary

    @with_writer_lease
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
        from glue_etl_pipeline_ray.hashing import bucket_of
        from glue_etl_pipeline_ray.stages.partial import BUCKET_COL

        self.resume_dml()
        spec, evolved = self.spec, self.ckpt.evolved
        batch_id = self.ckpt.watermark + 1
        stage = self._new_stage(batch_id)
        srcdir = os.path.join(stage, "_src")
        os.makedirs(srcdir, exist_ok=True)
        key_cols = spec.key_cols
        payload = _payload(spec, evolved)
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
            return {int(bb): t.filter(pa.array(b == bb)) for bb in np.unique(b)}

        def src_path(b: int) -> str:
            return os.path.join(srcdir, f"src-{b:05d}.parquet")

        if isinstance(source, pa.Table):
            src_files: dict[int, str] = {}
            for b, part in _route(source).items():
                write_atomic(src_path(b), part)
                src_files[b] = src_path(b)
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
                write_atomic(src_path(b), g.drop_columns([BUCKET_COL]))
                return pa.table({"bucket": pa.array([b], pa.int64())})

            routed = source.map_batches(
                route_batch, batch_format="pyarrow", batch_size=None
            )
            got = routed.groupby(BUCKET_COL).map_groups(
                stage_src, batch_format="pyarrow"
            ).take_all()
            src_files = {int(row["bucket"]): src_path(int(row["bucket"])) for row in got}

        r = self._reader()
        tip = r.resolve()
        all_buckets = sorted(set(src_files) | set(tip))
        if not all_buckets:
            shutil.rmtree(stage, ignore_errors=True)
            return self._no_op("merge")
        protos, metas = r.map_buckets(
            proto_bucket,
            [(b, src_files.get(b), tip.get(b)) for b in all_buckets],
            spec, evolved, delete_unmatched,
        )
        return self._stage_and_apply_protos(
            r, "merge", stage, batch_id, protos, metas, seq_base
        )

    def _stage_and_apply_protos(
        self,
        r: SnapshotReader,
        kind: str,
        stage: str,
        batch_id: int,
        proto_refs: list,
        meta_refs: list,
        seq_base: int | None,
    ) -> dict:
        """Shared DML tail: stamp the wave-1 protos (one object-store ref
        per bucket group, never fetched here) with dense seqs above the
        lake's max — from the tiny per-bucket metas — in one task per
        group, stage them with an atomically renamed MANIFEST, and
        commit through the normal replay path."""
        metas = r.gather(meta_refs)  # tiny: one dict per bucket
        flat = [m for ms in metas for m in ms]
        total = sum(m["n"] for m in flat)
        if total == 0:
            shutil.rmtree(stage, ignore_errors=True)
            return self._no_op(kind)
        max_seq = max(
            (m["max_seq"] for m in flat if m["max_seq"] is not None), default=-1
        )
        base_seq = max_seq + 1 if seq_base is None else seq_base
        seq0, acc = {}, base_seq
        for m in flat:
            if m["n"]:
                seq0[m["bucket"]] = acc
                acc += m["n"]
        groups = [p for p, ms in zip(proto_refs, metas) if any(m["n"] for m in ms)]
        _, written = r.map_groups(stamp_and_write, groups, seq0, self.spec, batch_id, stage)
        files = sorted(m["file"] for ms in r.gather(written) for m in ms if m["file"])
        token = uuid.uuid4().hex
        manifest = {
            "kind": kind,
            "batch_id": batch_id,
            "token": token,
            "n_matched": total,
            "seq_base": base_seq,
            "files": files,
        }
        write_text_atomic(os.path.join(stage, "MANIFEST.json"), json.dumps(manifest))
        # kind + token land atomically with the commit — history() sees
        # the kind in fresh processes with no annotate-after crash window
        summary = self._dml_apply(
            batch_id, [os.path.join(stage, f) for f in files], kind=kind, token=token
        )
        summary["dml"] = kind
        summary["n_matched"] = total
        return summary
