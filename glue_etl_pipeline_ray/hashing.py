"""Deterministic hashing: key -> bucket assignment and canonical table sha256.

Bucket assignment must be stable across *processes and runs* (resume reads
bucket files written by an earlier run), so Python's salted ``hash()`` is
banned. We use pandas' SipHash-1-3 (``pandas.util.hash_array``) which is
keyed by a fixed default key and therefore process-stable, and vectorized.

The canonical sha256 is the engine's correctness oracle target
(BASELINE.json metric: "final-state sha256 equality"): hash of the live
table sorted by key, columns in canonical order, with an unambiguous
serialization (field sep 0x1f, row sep 0x1e, null sentinel 0x00+"NULL").
Strict upgrade over the reference's shape-only e2e oracle
(``test/end_to_end_tests/run_e2e_test.py:102-116``, SURVEY.md B3).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_SEP = "\x1f"
_ROW = "\x1e"
_NULL = "\x00NULL"


def key_hash_u64(*cols: pa.Array | pa.ChunkedArray | np.ndarray) -> np.ndarray:
    """Vectorized stable uint64 hash of the key columns.

    Per-column SipHash (pandas) mixed with a golden-ratio multiply —
    no row-wise string concatenation (the naive join was the hot spot
    of every map task). Stable across processes/runs. A hash collision
    between two distinct live keys would conflate them, so every LWW
    survivor selection (merge.lww_state, exchange._validate_reduce_slice,
    groups.grouped_apply) runs the vectorized real-key collision guard
    (:func:`collision_runs` / :func:`guarded_last_per_key`) and sub-splits
    the vanishingly rare colliding run by actual key values."""
    h: np.ndarray | None = None
    mult = np.uint64(0x9E3779B97F4A7C15)
    for c in cols:
        if isinstance(c, (pa.Array, pa.ChunkedArray)):
            c = c.to_numpy(zero_copy_only=False)
        hc = pd.util.hash_array(np.asarray(c, dtype=object), categorize=False)
        with np.errstate(over="ignore"):
            h = hc if h is None else (h * mult) ^ hc
    return h


def bucket_of(num_buckets: int, *cols) -> np.ndarray:
    return (key_hash_u64(*cols) % np.uint64(num_buckets)).astype(np.int64)


def collision_runs(part: pa.Table, keys, starts: np.ndarray, ends: np.ndarray):
    """Find hash runs whose rows do NOT all share the same real key.

    Group identity upstream is a 64-bit key hash; two distinct keys that
    collide would silently merge (wrong upsert/dedup/top-k output). This
    vectorized guard — one take+equal per key column — costs ~nothing and
    returns the (vanishingly rare) run indices that need a real-key
    sub-split. Returns None when every run is clean."""
    sizes = ends - starts
    if int(sizes.max(initial=0)) <= 1:
        return None
    ok = np.ones(int(ends[-1]) if len(ends) else 0, bool)
    idx_arr = pa.array(np.repeat(starts, sizes), pa.int64())
    try:
        for k in keys:
            col = part[k]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ref = col.take(idx_arr)
            eq = pc.or_kleene(
                pc.equal(col, ref), pc.and_(pc.is_null(col), pc.is_null(ref))
            )
            ok &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
    except pa.ArrowNotImplementedError:  # non-comparable key type
        return None
    if ok.all():
        return None
    bad = np.flatnonzero(~ok)
    return set((np.searchsorted(starts, bad, side="right") - 1).tolist())


def guarded_last_per_key(
    t: pa.Table, key_cols, kh: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Indices (into ``t``) of the max-``seq`` survivor per REAL key.

    ``order`` must sort rows so that equal-``kh`` rows are contiguous and
    ``seq``-ascending within the run (any ``np.lexsort`` with seq as the
    innermost key and kh among the outer keys qualifies). The last row of
    each run is the hash-level survivor; multi-row runs are verified
    against the real key columns and a colliding run is sub-split per
    actual key, keeping each key's own max-seq row. Output preserves
    ``order``'s relative ordering (deterministic)."""
    khs = kh[order]
    n = len(khs)
    last = np.r_[khs[1:] != khs[:-1], True]
    starts = np.flatnonzero(np.r_[True, khs[1:] != khs[:-1]])
    ends = np.r_[starts[1:], n]
    if int((ends - starts).max(initial=0)) <= 1:
        return order[last]
    key_cols = list(key_cols)
    key_sorted = t.select(key_cols).take(pa.array(order, pa.int64()))
    bad = collision_runs(key_sorted, key_cols, starts, ends)
    if not bad:
        return order[last]
    pick = last.copy()
    for r in sorted(bad):  # colliding runs are tiny and ~never occur
        s, e = int(starts[r]), int(ends[r])
        sl = key_sorted.slice(s, e - s)
        best: dict = {}
        for i, rk in enumerate(zip(*(sl[c].to_pylist() for c in key_cols))):
            best[rk] = i  # seq-ascending within the run: later wins
        pick[s:e] = False
        for i in best.values():
            pick[s + i] = True
    return order[pick]


def _col_to_str(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_nested(t):
        # nested list/struct columns: canonical sorted-key JSON per value
        # (both the engine and the python oracle route through this exact
        # function, so the serialization only needs to be deterministic)
        import json

        return pa.array(
            [
                _NULL if v is None else json.dumps(
                    v, sort_keys=True, separators=(",", ":"), default=str
                )
                for v in col.to_pylist()
            ],
            pa.string(),
        )
    if pa.types.is_boolean(t):
        col = pc.if_else(col, "true", "false")
    elif pa.types.is_timestamp(t):
        col = pc.strftime(col, format="%Y-%m-%dT%H:%M:%S.%f")
    elif pa.types.is_floating(t):
        # fixed formatting so the oracle (python) and engine agree
        col = pa.array(
            [None if v is None else format(v, ".10g") for v in col.to_pylist()],
            pa.string(),
        )
    elif not pa.types.is_string(t) and not pa.types.is_large_string(t):
        col = pc.cast(col, pa.string())
    return pc.fill_null(pc.cast(col, pa.string()), _NULL)


def canonical_bytes(table: pa.Table, key_cols: list[str] | tuple[str, ...]) -> bytes:
    """Serialize a table deterministically: sort by key, join cols/rows."""
    if table.num_rows == 0:
        return b""
    table = table.sort_by([(k, "ascending") for k in key_cols])
    str_cols = [_col_to_str(table[name]) for name in table.column_names]
    joined = str_cols[0]
    for c in str_cols[1:]:
        joined = pc.binary_join_element_wise(joined, c, _SEP)
    return (_ROW.join(joined.to_pylist()) + _ROW).encode("utf-8")


def upcast_large_strings(table: pa.Table) -> pa.Table:
    """string -> large_string on flat columns, so downstream take/sort/
    combine can't overflow int32 offsets (a single string column past
    ~2 GB — e.g. 15M+ wide ``content`` rows — breaks plain string on
    concat). Metadata-light: one offsets pass, data buffers shared."""
    fields, changed = [], False
    for f in table.schema:
        if pa.types.is_string(f.type):
            fields.append(pa.field(f.name, pa.large_string()))
            changed = True
        else:
            fields.append(f)
    return table.cast(pa.schema(fields)) if changed else table


def table_sha256(table: pa.Table, key_cols) -> str:
    """sha256 of the canonical serialization, computed streaming.

    Byte-stream-identical to ``sha256(canonical_bytes(...))`` — the
    trailing-separator form ``join(rows) + _ROW`` equals hashing each
    ``row + _ROW`` in order — but processes the sorted table in bounded
    row slices and upcasts string columns first, so a 10^9-scale live
    table (tens of GB of ``content``) hashes without materializing one
    giant buffer or overflowing int32 string offsets. Equivalence is
    pinned by tests/test_hashing.py."""
    h = hashlib.sha256()
    if table.num_rows == 0:
        return h.hexdigest()
    table = upcast_large_strings(table)
    table = table.sort_by([(k, "ascending") for k in key_cols])
    row_sep = _ROW.encode("utf-8")
    step = 1_000_000
    for off in range(0, table.num_rows, step):
        sl = table.slice(off, step)
        str_cols = [_col_to_str(sl[name]) for name in sl.column_names]
        joined = str_cols[0]
        for c in str_cols[1:]:
            joined = pc.binary_join_element_wise(joined, c, _SEP)
        for v in joined.to_pylist():
            h.update(v.encode("utf-8"))
            h.update(row_sep)
    return h.hexdigest()
