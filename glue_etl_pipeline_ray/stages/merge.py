"""Bucketed LWW merge + idempotent Parquet upsert sink.

The single shuffle of the pipeline (SURVEY.md 7.3): clean, partially
reduced events are hash-partitioned on the key by the raw-Ray exchange
(stages/exchange.py) and each bucket group is merged against its prior
lake state file by last-writer-wins on ``seq`` — the grouped-reduce
generalization of the reference's ordered append (``convert_to_parquet.py:236-238`` +
sorted work-list ``update_workflow_properties.py:146-150``).

Exactly-once mechanics (fixes the reference's at-least-once hazard,
SURVEY.md 2.9):

- **Deterministic versioned file names**: bucket ``b`` merged by batch
  ``v`` always writes ``part-{b:05d}-v{v:05d}.parquet`` (tmp + atomic
  rename); a retried/crashed batch rewrites the same files with the same
  content, never duplicates. The committed bucket -> version map lives in
  the checkpoint manifest; files newer than the watermark are orphans
  that the re-run overwrites (snapshot-versioning, Delta/Iceberg style).
  Versioning (instead of in-place overwrite) is what lets batch N+1's
  merges run while batch N is still committing — the pipelined replay.
- **Tombstones**: DELETE keeps the key in the state file with
  ``__deleted=true`` and its ``seq``, so re-applying any prefix of the
  event stream is a no-op (an old UPDATE can never resurrect a deleted
  key). The live table view filters tombstones out.

State-file schema: canonical payload + ``__seq:int64`` + ``__deleted:bool``.
Per-bucket lineage (events in, upserts, deletes, live rows, tombstones)
is returned as the group result — the engine's analog of the
per-event PROFILER audit stream (``data_profiling.py:180-189``).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from glue_etl_pipeline_ray.spec import TableSpec
from glue_etl_pipeline_ray.stages.evolve import conform

SEQ_COL = "__seq"
DELETED_COL = "__deleted"

def state_schema(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    columns: list[str] | None = None,
) -> pa.Schema:
    """State-file schema; ``columns`` restricts the payload to a subset
    (key columns are always kept — the fold needs them)."""
    base = spec.canonical_schema(evolved)
    if columns is not None:
        keep = set(columns) | set(spec.key_cols)
        base = pa.schema([f for f in base if f.name in keep])
    return base.append(pa.field(SEQ_COL, pa.int64())).append(
        pa.field(DELETED_COL, pa.bool_())
    )


def gdelta_name(group: int, version: int) -> str:
    """Group-level LSM delta file: ONE file per (exchange group, batch)
    holding every touched sink bucket's rows as its own bucket-sorted
    parquet ROW GROUP. Files per batch = num_exchange (~cluster cores),
    independent of ``num_buckets`` (2^16 at 100 TB) — the same
    object-count independence the rewrite exchange has; per-bucket
    random access stays O(1) via the footer's bucket -> row-group map
    (:data:`GDELTA_META_KEY`), so folds read only their bucket's bytes.
    Chain pointers for these files are ``[version, group]`` pairs in the
    checkpoint manifest."""
    return f"gdelta-{group:05d}-v{version:05d}.parquet"


GDELTA_META_KEY = b"gepr_bucket_rowgroups"


def part_name(bucket: int, version: int) -> str:
    """Versioned state-file name: bucket b after batch v. Deterministic,
    so a re-run of an uncommitted batch overwrites its own orphans —
    the write-side half of exactly-once (snapshot-version layout like a
    Delta/Iceberg manifest, here with the version map in the checkpoint
    manifest instead of a log)."""
    return f"part-{bucket:05d}-v{version:05d}.parquet"


def events_to_state(
    spec: TableSpec, evolved: tuple[tuple[str, str], ...], group: pa.Table
) -> tuple[pa.Table, int]:
    """Change events -> state rows (tombstone payloads nulled for
    determinism). Returns (state_table, n_deletes)."""
    st_schema = state_schema(spec, evolved)
    key_cols = spec.key_cols
    group = group.combine_chunks()
    # null-safe: a null op is an upsert (the oracle's `op == "DELETE"` is
    # False for None); a bare pc.equal would make __deleted null and the
    # live-view filter would silently drop the row
    deleted = pc.fill_null(pc.equal(group[spec.op_col], "DELETE"), False)
    n_deletes = pc.sum(deleted).as_py() or 0
    cols = {}
    for name in spec.canonical_cols(evolved):
        c = group[name]
        if name not in key_cols:
            # null ARRAY, not scalar: pyarrow 16 if_else(mask, null_scalar,
            # sliced_array) emits arrays with out-of-bounds offsets
            c = pc.if_else(deleted, pa.nulls(group.num_rows, c.type), c)
        cols[name] = c
    cols[SEQ_COL] = group[spec.seq_col]
    cols[DELETED_COL] = deleted
    return pa.table(cols).cast(st_schema), n_deletes


def lww_state(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    tables: list[pa.Table],
    columns: list[str] | None = None,
) -> pa.Table:
    """Fold state tables to one row per key by max ``__seq`` — one payload
    copy (the take); row order = key-hash ascending (deterministic; the
    oracle comparison key-sorts the assembled live table anyway).
    Survivor selection is collision-guarded: multi-row hash runs are
    verified against the real key columns and the vanishingly rare
    colliding run is sub-split per actual key (hashing.guarded_last_per_key)."""
    import numpy as np

    from glue_etl_pipeline_ray.hashing import guarded_last_per_key, key_hash_u64

    st_schema = state_schema(spec, evolved, columns)
    tables = [conform(t, st_schema) for t in tables]
    combined = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
    kh = key_hash_u64(*(combined[k] for k in spec.key_cols))
    seqs = combined[SEQ_COL].to_numpy(zero_copy_only=False)
    order = np.lexsort((seqs, kh))
    chosen = guarded_last_per_key(combined, spec.key_cols, kh, order)
    return combined.take(chosen).cast(st_schema)


# State/delta files are written+re-read every touched batch (rewrite mode
# reads prior state back in the very next merge), so codec speed matters
# more than ratio: lz4 measured +9% end-to-end replay throughput at 16
# cpus vs snappy on page-cache-backed storage. On cold object storage
# (S3) ratio matters more — swap via this constant.
STATE_COMPRESSION = "lz4"


def write_atomic(
    path: str,
    table: pa.Table,
    compression: str = STATE_COMPRESSION,
    row_group_size: int | None = None,
) -> None:
    """Tmp-write + atomic rename (the engine-wide immutability
    contract). ``row_group_size``: bound rows per Parquet row group —
    clustered rewrites (optimize_sort) pass a small bound so predicate
    scans get row groups to prune; the default (pyarrow's 1Mi) is right
    for plain state files, where one group per bucket file minimizes
    footer overhead."""
    import pyarrow.parquet as pq

    tmp = f"{path}.tmp.{os.getpid()}"
    if row_group_size is None:
        pq.write_table(table, tmp, compression=compression)
    else:
        pq.write_table(
            table, tmp, compression=compression, row_group_size=row_group_size
        )
    os.replace(tmp, path)


def write_text_atomic(path: str, text: str) -> None:
    """Tmp-write + atomic rename of a text file: the engine's JSON and
    JSONL commit files (manifests, lineage, DML stage manifests). The
    tmp file is ``<path>.tmp.<pid>``, as for :func:`write_atomic`."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def merge_bucket_table(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    lake_dir: str,
    prior_version: int | None,
    batch_id: int,
    bucket: int,
    group: pa.Table,
) -> dict:
    """Pure per-sink-bucket LWW merge + idempotent versioned write
    (``state_mode="rewrite"``: O(state) per touched bucket per batch).

    ``group``: all (partially reduced) events of this batch whose key
    hashes to ``bucket``. Reads state ``part-{bucket}-v{prior_version}``
    (None = bucket never written), writes ``part-{bucket}-v{batch_id}``.
    Returns the lineage record (incl. the new version) as a plain dict;
    its ``sha256`` field is kept for the lineage schema and left empty.
    """
    from glue_etl_pipeline_ray.state.snapshot import Source, read_state

    incoming, n_deletes = events_to_state(spec, evolved, group)
    tables = [incoming]
    if prior_version is not None:
        tables.insert(0, read_state(spec, evolved, Source(lake_dir, bucket, prior_version)))
    new_state = lww_state(spec, evolved, tables)
    write_atomic(os.path.join(lake_dir, part_name(bucket, batch_id)), new_state)

    n_dead = pc.sum(new_state[DELETED_COL]).as_py() or 0
    return {
        "bucket": bucket,
        "version": batch_id,
        "batch_id": batch_id,
        "n_events": group.num_rows,
        "n_upserts": group.num_rows - n_deletes,
        "n_deletes": n_deletes,
        "n_live": new_state.num_rows - n_dead,
        "n_tombstones": n_dead,
        "sha256": "",
    }


def write_delta_group(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    lake_dir: str,
    batch_id: int,
    group_id: int,
    state_t: pa.Table,
    buckets,
    starts,
    ends,
) -> list[dict]:
    """``state_mode="delta"`` sink, group-file layout: append this
    exchange group's batch rows as ONE ``gdelta-{group}-v{batch}`` file
    with one row group per touched sink bucket. ``state_t`` is the
    :func:`events_to_state` output for the whole group, already
    bucket-sorted; ``buckets[i]`` with ``starts[i]:ends[i]`` delimit
    bucket *i*'s run. Returns one lineage record per bucket (with the
    ``group`` id the chain pointer needs). O(batch) per batch, and
    O(num_exchange) files per batch instead of O(touched buckets)."""
    import json

    import pyarrow.parquet as pq

    path = os.path.join(lake_dir, gdelta_name(group_id, batch_id))
    mapping = {str(int(b)): i for i, b in enumerate(buckets)}
    state_t = state_t.replace_schema_metadata(
        {GDELTA_META_KEY: json.dumps(mapping).encode()}
    )
    schema = state_t.schema
    tmp = f"{path}.tmp.{os.getpid()}"
    records = []
    with pq.ParquetWriter(tmp, schema, compression=STATE_COMPRESSION) as w:
        for i, b in enumerate(buckets):
            s, e = int(starts[i]), int(ends[i])
            sl = state_t.slice(s, e - s)
            # one write_table call = one row group (slice sizes are far
            # below parquet's default row-group cap)
            w.write_table(sl, row_group_size=max(1, e - s))
            n_del = pc.sum(sl[DELETED_COL]).as_py() or 0
            records.append(
                {
                    "bucket": int(b),
                    "version": batch_id,
                    "group": group_id,
                    "batch_id": batch_id,
                    "n_events": e - s,
                    "n_upserts": (e - s) - n_del,
                    "n_deletes": n_del,
                    "n_live": -1,
                    "n_tombstones": -1,
                    "sha256": "",
                }
            )
    os.replace(tmp, path)
    return records


def gdelta_row_group(pf, bucket: int) -> int | None:
    """The row group holding ``bucket``'s rows in an open group delta
    file (its footer's :data:`GDELTA_META_KEY` map), or None."""
    import json

    meta = (pf.metadata.metadata or {}).get(GDELTA_META_KEY)
    return json.loads(meta).get(str(int(bucket))) if meta else None


CHANGE_TYPE_COL = "_change_type"


def _col_neq(a, b) -> np.ndarray:
    """Null-safe per-row inequality; nested types fall back to a Python
    compare (pc.not_equal has no list/struct kernel)."""
    import numpy as np

    try:
        an, bn = pc.is_null(a), pc.is_null(b)
        neq = pc.or_(
            pc.xor(an, bn),
            pc.fill_null(pc.not_equal(a, b), False),
        )
        return neq.to_numpy(zero_copy_only=False)
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
        av, bv = a.to_pylist(), b.to_pylist()
        return np.array([x != y for x, y in zip(av, bv)], bool)


def snapshot_diff(
    spec: TableSpec,
    evolved_to: tuple[tuple[str, str], ...],
    old_live: pa.Table,
    new_live: pa.Table,
    update_preimages: bool = False,
) -> pa.Table:
    """Change data feed kernel: net row-level changes between two LIVE
    snapshots of ONE bucket (both sides share the bucket layout, so the
    whole feed needs no shuffle — buckets diff independently).

    Emits one row per key whose LWW winner differs: ``insert`` (key only
    in new), ``delete`` (key only in old — the pre-image row), ``update``
    (both, payload differs — the post-image row), with the ``to``
    snapshot's schema plus :data:`CHANGE_TYPE_COL`. Vectorized: one
    key-hash lexsort, run boundaries, column-wise null-safe compares;
    hash-colliding runs are re-resolved per true key (collision guard).

    ``update_preimages=True`` emits updates as a pre/post pair —
    ``update_preimage`` (old row) + ``update_postimage`` (new row), the
    Delta-Lake CDF convention — which is what incremental view
    maintenance needs to retract the old contribution."""
    import numpy as np

    from glue_etl_pipeline_ray.hashing import collision_runs, key_hash_u64

    schema = spec.canonical_schema(evolved_to)
    cols = list(schema.names)
    key_cols = list(spec.key_cols)
    out_schema = schema.append(pa.field(CHANGE_TYPE_COL, pa.string()))

    old_live = conform(old_live, schema)
    new_live = conform(new_live, schema)
    no, nn = old_live.num_rows, new_live.num_rows
    if no == 0 and nn == 0:
        return out_schema.empty_table()
    comb = pa.concat_tables([old_live, new_live]).combine_chunks()
    side = np.r_[np.zeros(no, np.int8), np.ones(nn, np.int8)]
    kh = key_hash_u64(*(comb[k] for k in key_cols))
    order = np.lexsort((side, kh))
    khs, sides = kh[order], side[order]
    n = len(order)
    new_run = np.r_[True, khs[1:] != khs[:-1]]
    starts = np.flatnonzero(new_run)
    ends = np.r_[starts[1:], n]
    sizes = ends - starts
    key_sorted = comb.select(key_cols).take(pa.array(order, pa.int64()))
    bad = collision_runs(key_sorted, key_cols, starts, ends) or set()

    emit_idx: list[np.ndarray] = []
    emit_type: list[np.ndarray] = []
    clean = np.ones(len(starts), bool)
    if bad:
        clean[sorted(bad)] = False
    # singles: a run of one row is a pure insert (side 1) or delete (side 0)
    singles = clean & (sizes == 1)
    spos = starts[singles]
    if len(spos):
        emit_idx.append(order[spos])
        emit_type.append(
            np.where(sides[spos] == 1, "insert", "delete").astype(object)
        )
    # pairs: old+new -> update iff any payload column differs
    pairs = clean & (sizes == 2)
    ppos = starts[pairs]
    if len(ppos):
        i_old, i_new = order[ppos], order[ppos + 1]
        # a clean size-2 run is one old + one new (each side holds at most
        # one live row per key); sides are lexsorted so old comes first
        both = (sides[ppos] == 0) & (sides[ppos + 1] == 1)
        io, iu = i_old[both], i_new[both]
        if len(io):
            oi, ni = pa.array(io, pa.int64()), pa.array(iu, pa.int64())
            neq = np.zeros(len(io), bool)
            for c in cols:
                if c in key_cols:
                    continue
                neq |= _col_neq(comb[c].take(oi), comb[c].take(ni))
            upd = iu[neq]
            if len(upd):
                if update_preimages:
                    emit_idx.append(io[neq])
                    emit_type.append(
                        np.full(int(neq.sum()), "update_preimage", object)
                    )
                    emit_idx.append(upd)
                    emit_type.append(
                        np.full(len(upd), "update_postimage", object)
                    )
                else:
                    emit_idx.append(upd)
                    emit_type.append(np.full(len(upd), "update", object))
        # same-side size-2 runs only occur under a missed collision (the
        # guard catches them) — nothing to do here
    # colliding runs: per-true-key fallback (vanishingly rare)
    for r in sorted(bad):
        s, e = int(starts[r]), int(ends[r])
        rows: dict[tuple, dict[int, int]] = {}
        sl = key_sorted.slice(s, e - s)
        for i, tk in enumerate(zip(*(sl[c].to_pylist() for c in key_cols))):
            rows.setdefault(tk, {})[int(sides[s + i])] = int(order[s + i])
        for tk, by_side in rows.items():
            if 0 in by_side and 1 in by_side:
                oi = pa.array([by_side[0]], pa.int64())
                ni = pa.array([by_side[1]], pa.int64())
                if any(
                    _col_neq(comb[c].take(oi), comb[c].take(ni))[0]
                    for c in cols
                    if c not in key_cols
                ):
                    if update_preimages:
                        emit_idx.append(np.array([by_side[0]]))
                        emit_type.append(np.array(["update_preimage"], object))
                        emit_idx.append(np.array([by_side[1]]))
                        emit_type.append(np.array(["update_postimage"], object))
                    else:
                        emit_idx.append(np.array([by_side[1]]))
                        emit_type.append(np.array(["update"], object))
            elif 1 in by_side:
                emit_idx.append(np.array([by_side[1]]))
                emit_type.append(np.array(["insert"], object))
            else:
                emit_idx.append(np.array([by_side[0]]))
                emit_type.append(np.array(["delete"], object))
    if not emit_idx:
        return out_schema.empty_table()
    idx = np.concatenate(emit_idx)
    ct = np.concatenate(emit_type)
    out = comb.take(pa.array(idx, pa.int64()))
    return out.append_column(CHANGE_TYPE_COL, pa.array(ct.tolist(), pa.string()))
