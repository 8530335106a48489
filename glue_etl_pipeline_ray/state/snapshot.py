"""Snapshot reads: committed manifest -> per-bucket sources -> live rows.

Every read of a committed snapshot (full and filtered scans, the change
feed, cross-lake diffs, point lookups) goes through one
:class:`SnapshotReader`:

    resolve   manifest (tip) or lineage log (``as_of``) -> one Source per
              bucket: a base part file plus a chain of group-file entries
              (empty for a bucket the rewrite sink wrote)
    read      _probe_files(src) opens the source's files, each with the
              row groups holding the bucket, and _read_groups decodes
              the columns a file has; on top, read_state conforms and
              LWW-folds a chain, and read_live drops tombstones, filters
              and projects (predicates pushed to row-group statistics
              when the source is a single state file)
    dispatch  contiguous groups of buckets, one plain Ray task per group
              returning one concatenated table (plan_groups)

A snapshot read is resolved from the manifest and should cost about its
file I/O, not a per-file plan (the *Delta Lake* point): on one CPU a
64-bucket scan is one task, on a large lake each task reads about
``GROUP_BYTES`` of state. Point lookups read their few buckets in the
driver, key columns first and payloads only for hits (``probe``), and
launch no task at all.

Maintenance, DML and the rewrite sink's merge read through the same
reader: ``read_state`` returns a bucket's full state (tombstones and
``__seq`` included), and
``map_buckets`` runs a per-bucket function over the tip's sources in the
same contiguous groups, one task per group.

Each reader counts what it read in ``stats``: ``files`` and ``bytes``
(distinct files opened and their on-disk size), ``rows`` returned (state
rows read, for ``map_buckets``) and Ray ``tasks`` launched.

Point lookups open their files through :data:`LOOKUP_CACHE`, a bounded
LRU of footers and decoded column chunks in the driver process, keyed on
each file's identity: a state file never changes after its rename into
place, so a chunk decoded once serves every later lookup of that file.
No other read uses it, so it never fills in a Ray worker.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from glue_etl_pipeline_ray.stages.evolve import conform
from glue_etl_pipeline_ray.stages.exchange import _pin_intraop_threads
from glue_etl_pipeline_ray.stages.merge import (
    CHANGE_TYPE_COL,
    DELETED_COL,
    SEQ_COL,
    gdelta_name,
    gdelta_row_group,
    lww_state,
    part_name,
    snapshot_diff,
    state_schema,
)

STATE_FILE_RE = re.compile(r"(?:part|gdelta)-(\d+)-v(\d+)\.parquet$")

# On-disk bytes one read task is planned to cover. A read task costs
# about 7-10 ms more than the same reads in the driver (task round trip);
# inside a task, state reads run at about 65 MiB/s of on-disk bytes per
# core (lz4 Parquet decode, conform, tombstone filter, the result's
# object-store put; one pinned Xeon vCPU). A 32 MiB group therefore runs
# for about 0.5 s and keeps the fixed cost near 2%. Lakes smaller than
# CPUs x budget get one group per CPU instead.
GROUP_BYTES = 32 << 20

# Bytes the driver's point-lookup cache (LOOKUP_CACHE) may hold: decoded
# column chunks, charged what their decode allocated, plus footers. The
# 64 bucket files of the benchmark's 30k-row read lake decode to about
# 16 MB, so a lake several times its size is served from memory.
LOOKUP_CACHE_BYTES = 64 << 20

SCAN_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")


@dataclass(frozen=True)
class Source:
    """Where one bucket's committed state lives: ``base`` is a part-file
    version and ``chain`` the ``(version, group)`` entries of the
    ``gdelta-*`` group files folded on top. Two equal sources hold equal
    rows, so an unchanged bucket is found by comparing sources."""

    lake_dir: str
    bucket: int
    base: int | None
    chain: tuple = ()

    def files(self) -> list[str]:
        out = []
        if self.base is not None:
            out.append(os.path.join(self.lake_dir, part_name(self.bucket, self.base)))
        for v, g in self.chain:
            out.append(os.path.join(self.lake_dir, gdelta_name(g, v)))
        return out

    @property
    def anchor(self) -> str:
        """The source as a string: the freshness token lookup-filter
        sidecars are anchored to."""
        return f"{self.base}:{list(self.chain)}"


def _source(lake_dir: str, bucket: int, base, chain) -> Source:
    return Source(
        lake_dir, int(bucket), base, tuple(sorted((int(v), int(g)) for v, g in chain))
    )


def where_mask(t: pa.Table, where) -> pa.Array:
    """Vectorized conjunction mask for a ``scan`` predicate list. Null
    matches no op (``fill_null(False)``, and ``in`` skips nulls even
    when its value set holds ``None``): SQL comparison semantics, the
    same on every read path."""
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
            m = pc.is_in(c, value_set=pa.array(list(val)), skip_nulls=True)
        else:  # validated upstream; defensive
            raise ValueError(f"unknown op {op!r}")
        m = pc.fill_null(m, False)
        mask = m if mask is None else pc.and_(mask, m)
    return mask


def _may_match(stats, op: str, val) -> bool:
    """False only when a row group's min/max rule the predicate out.
    ``!=`` never prunes (NaN is outside float statistics yet unequal to
    everything), nor do missing or incomparable statistics. A ``None``
    value matches nothing, so it never keeps a row group."""
    if stats is None or not stats.has_min_max:
        return True
    lo, hi = stats.min, stats.max
    try:
        if op in ("==", "in"):
            vals = val if op == "in" else [val]
            return any(v is not None and lo <= v <= hi for v in vals)
        if op == "<":
            return lo < val
        if op == "<=":
            return lo <= val
        if op == ">":
            return hi > val
        if op == ">=":
            return hi >= val
    except TypeError:
        pass
    return True


def _row_groups(pf: pq.ParquetFile, where) -> list[int]:
    """The row groups whose statistics may match every ``where`` triple
    (all of them for no triple); none when the file lacks a predicate
    column (a file written before an evolution holds null there, which
    matches nothing)."""
    md = pf.metadata
    if not where:
        return list(range(md.num_row_groups))
    if any(c not in pf.schema_arrow.names for c, _, _ in where):
        return []
    idx = {md.schema.column(i).path: i for i in range(md.num_columns)}
    return [
        g
        for g in range(md.num_row_groups)
        if all(
            _may_match(md.row_group(g).column(idx[c]).statistics, op, v)
            for c, op, v in where
            if c in idx
        )
    ]


def live_schema(spec, evolved, columns: list[str]) -> pa.Schema:
    sch = spec.canonical_schema(evolved)
    return pa.schema([sch.field(c) for c in columns])


def read_state(spec, evolved, src: Source, columns: list[str] | None = None,
               prune=()) -> pa.Table:
    """Every state row of one bucket, tombstones and ``__seq`` included,
    conformed to the state schema (``columns``: payload projection; keys
    are always kept). Each file is read for the columns it has (a file
    written before an evolution lacks later ones). A source that is one
    base file is not LWW-folded (a state file holds one row per key); any
    other source is. ``prune``: ``where`` triples that skip the row
    groups of a one-file source whose statistics rule them out; rows are
    not filtered."""
    st = state_schema(spec, evolved, columns)
    parts = [
        t for pf, groups in _probe_files(src, prune)
        if (t := _read_groups(pf, groups, st.names)) is not None
    ]
    if src.base is not None and not src.chain:
        return conform(parts[0], st)
    return lww_state(spec, evolved, parts, columns) if parts else st.empty_table()


def read_live(spec, evolved, src: Source, columns: list[str], where=()) -> pa.Table:
    """One bucket's live rows: ``columns`` (canonical order) of the rows
    that are not tombstones and match every ``where`` triple.

    :func:`read_state` of the columns the output and the predicate need,
    then the tombstone filter and the predicate. A one-file source (every
    rewrite bucket, a folded delta bucket) also skips the row groups the
    predicate rules out by their statistics. A delta chain is folded
    first — a key's winner is only known after the fold, so filtering
    pre-fold rows could resurrect a stale version whose payload matches —
    and the predicate applies to the fold."""
    where = list(where)
    need = list(dict.fromkeys(list(columns) + [c for c, _, _ in where]))
    t = read_state(spec, evolved, src, need, prune=where)
    mask = pc.invert(t[DELETED_COL])
    if where:
        mask = pc.and_(mask, where_mask(t, where))
    return t.filter(mask).select(list(columns))


def diff_live(spec, evolved, old: Source | None, new: Source | None,
              update_preimages: bool = False) -> pa.Table:
    """The change feed of one bucket: :func:`snapshot_diff` of the live
    rows of two sources (None = the bucket is empty on that side)."""
    cols = spec.canonical_cols(evolved)

    def live(src):
        if src is None:
            return live_schema(spec, evolved, cols).empty_table()
        return read_live(spec, evolved, src, cols)

    return snapshot_diff(
        spec, evolved, live(old), live(new), update_preimages=update_preimages
    )


def _probe_files(src: Source, where=(), open_file=pq.ParquetFile
                 ) -> list[tuple[pq.ParquetFile, list[int]]]:
    """The files of ``src`` in fold order, each open with the row groups
    that hold the bucket: the base file's (for a one-file source, those
    :func:`_row_groups` keeps for ``where``), and the bucket's one group
    in each chain file that has it. The one place a bucket's state files
    are opened, by ``open_file(path)`` (point lookups: through the
    lookup cache)."""
    out = []
    if src.base is not None:
        pf = open_file(os.path.join(src.lake_dir, part_name(src.bucket, src.base)))
        # a chain's base may hold stale versions that match: never pruned
        out.append((pf, _row_groups(pf, () if src.chain else where)))
    for v, g in src.chain:
        pf = open_file(os.path.join(src.lake_dir, gdelta_name(g, v)))
        idx = gdelta_row_group(pf, src.bucket)
        if idx is not None:
            out.append((pf, [idx]))
    return out


def file_identity(st: os.stat_result) -> tuple[int, int, int]:
    """A file's identity, ``(st_ino, st_mtime_ns, st_size)``: what its
    readers' caches key on. Files are replaced by renaming a new inode
    over the name, so the name alone is not enough."""
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class FileChanged(Exception):
    """A state file is no longer the one its identity was taken of: it
    was replaced (``compact()`` rewrites in place) between a lookup's
    ``stat`` and its read."""


class LookupCache:
    """A bounded LRU of Parquet footers and decoded column chunks of
    state files, for point lookups in the driver (:data:`LOOKUP_CACHE`).

    Entries are keyed on the file's identity ``(path, (st_ino,
    st_mtime_ns, st_size))``, a chunk also on its row group and column.
    A state file is never changed after its rename into place, and a
    rewrite of the same name is a new inode, so no entry can serve stale
    data. A decode is charged the bytes it left allocated (the
    ``pa.total_allocated_bytes()`` delta, at least its buffers' size),
    shared among its chunks by column size times rows; a footer its
    serialized size. Past :data:`LOOKUP_CACHE_BYTES` the least recently
    used entries are evicted. The counters are process-wide; a lock
    keeps them and the order whole under threads."""

    def __init__(self):
        self._d: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.held = self.hits = self.misses = self.evictions = 0

    def get(self, key):
        with self._lock:
            e = self._d.get(key)
            if e is None:
                self.misses += 1
                return None
            self._d.move_to_end(key)
            self.hits += 1
            return e[0]

    def put(self, key, value, charge: int) -> None:
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self.held -= old[1]
            self._d[key] = (value, charge)
            self.held += charge
            while self.held > LOOKUP_CACHE_BYTES:
                self.held -= self._d.popitem(last=False)[1][1]
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._d.clear()
            self.held = 0

    def counters(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "bytes_held": self.held, "entries": len(self._d),
                    "evictions": self.evictions}


LOOKUP_CACHE = LookupCache()


class CachedFile:
    """A state file opened through :data:`LOOKUP_CACHE`, with the
    ``metadata`` and ``read_row_groups`` of a ``pq.ParquetFile``: column
    chunks decoded before under the same identity (``ident``, the
    ``stat`` a reader took; None: the file was gone) come from memory,
    and the file is opened only for a footer or chunks not cached yet,
    all missing chunks decoded in one call. It counts into ``cost`` the
    footer ``total_compressed_size`` of every chunk read
    (``bytes_decoded``) and of those served from memory
    (``bytes_from_cache``). Raises :class:`FileChanged` if the file it
    opens is not ``ident``."""

    def __init__(self, path: str, ident: tuple | None, cost: dict):
        self.path, self.ident, self.cost = path, ident, cost
        self.key = (path, ident)
        self.metadata = self._pf = None
        entry = LOOKUP_CACHE.get(self.key)
        if entry is None:
            md = self._file().metadata
            # footer, top-level column -> leaf indices, (group, column) -> bytes
            entry = (md, _leaves(self._pf), {})
            LOOKUP_CACHE.put(self.key, entry, md.serialized_size)
        self.metadata, self.leaves, self._sizes = entry

    def _file(self) -> pq.ParquetFile:
        if self._pf is None:
            pf = pq.ParquetFile(self.path, metadata=self.metadata)
            # the file opened is ident iff the name still is (a state file
            # is replaced by renaming a new inode over it, never back)
            st = os.stat(self.path)
            if file_identity(st) != self.ident:
                pf.close()
                raise FileChanged(self.path)
            self._pf = pf
        return self._pf

    def close(self) -> None:
        if self._pf is not None:
            self._pf.close()

    def _chunk_bytes(self, g: int, c: str) -> int:
        n = self._sizes.get((g, c))
        if n is None:
            rg = self.metadata.row_group(g)
            n = self._sizes[g, c] = sum(
                rg.column(i).total_compressed_size for i in self.leaves[c]
            )
        return n

    def read_row_groups(self, groups, columns, use_threads=False) -> pa.Table:
        if not groups:
            return self._file().read_row_groups([], columns=columns, use_threads=False)
        got, need = {}, []
        for g in groups:
            for c in columns:
                n = self._chunk_bytes(g, c)
                self.cost["bytes_decoded"] += n
                if (v := LOOKUP_CACHE.get((self.key, g, c))) is None:
                    need.append((g, c))
                else:
                    got[g, c] = v
                    self.cost["bytes_from_cache"] += n
        if need:
            got.update(self._decode(need))
        if len(groups) == 1:
            return pa.Table.from_arrays([got[groups[0], c] for c in columns], names=columns)
        return pa.Table.from_arrays(
            [
                pa.chunked_array(
                    [ch for g in groups for ch in got[g, c].chunks],
                    got[groups[0], c].type,
                )
                for c in columns
            ],
            names=columns,
        )

    def _decode(self, need) -> dict:
        """Decode the ``need`` chunks in one ``read_row_groups`` call
        (every row group and column named in it), split the result by
        row group and column, and cache the pieces. The call's bytes are
        shared out by column size times rows."""
        gs = list(dict.fromkeys(g for g, _ in need))
        cs = list(dict.fromkeys(c for _, c in need))
        before = pa.total_allocated_bytes()
        t = self._file().read_row_groups(gs, columns=cs, use_threads=False)
        cols = [t.column(c) for c in cs]
        sizes = [col.get_total_buffer_size() + 1 for col in cols]
        held = max(pa.total_allocated_bytes() - before, sum(sizes))
        rows = [self.metadata.row_group(g).num_rows for g in gs]
        per = held / (sum(sizes) * (sum(rows) + len(rows)))
        out = {}
        for g, off, n in zip(gs, accumulate([0] + rows), rows):
            for c, col, size in zip(cs, cols, sizes):
                out[g, c] = col if len(gs) == 1 else col.slice(off, n)
                LOOKUP_CACHE.put((self.key, g, c), out[g, c], int(per * size * (n + 1)))
        return out


def _leaves(pf) -> dict[str, list[int]]:
    """Each top-level column of an open file -> its leaf column indices
    in the footer (a nested column has several)."""
    md = pf.metadata
    out: dict[str, list[int]] = {}
    for i in range(md.num_columns):
        out.setdefault(md.schema.column(i).path.split(".")[0], []).append(i)
    return out


def _read_groups(pf, groups, columns) -> pa.Table | None:
    """Decode the ``columns`` a file has (a pre-evolution file lacks
    later ones) in row ``groups``, single-threaded; None if it has none."""
    leaves = pf.leaves if isinstance(pf, CachedFile) else _leaves(pf)
    have = [c for c in columns if c in leaves]
    if not have:
        return None
    return pf.read_row_groups(groups, columns=have, use_threads=False)


def _materialize(pf, groups, keys_t, rows, payload, cost) -> pa.Table:
    """The winning ``rows`` of ``keys_t`` (the key columns read from
    ``groups``) with their ``payload`` columns, decoded only in the row
    groups that hold a winner."""
    t = keys_t.take(pa.array(rows, pa.int64()))
    md = pf.metadata
    sizes = [md.row_group(g).num_rows for g in groups]
    ends = list(accumulate(sizes))
    pos = [bisect_right(ends, r) for r in rows]  # the group of each winner
    # a winner's index in the key read -> its index in the decoded groups
    shift, kept = {}, 0
    for p in sorted(set(pos)):
        shift[p] = kept - (ends[p] - sizes[p])
        kept += sizes[p]
    got = _read_groups(pf, [groups[p] for p in shift], payload)
    if got is None:
        return t
    cost["payload_files"] += 1
    got = got.take(pa.array([r + shift[p] for r, p in zip(rows, pos)], pa.int64()))
    return pa.Table.from_arrays(
        t.columns + got.columns, names=t.column_names + got.column_names
    )


def _concat(parts: list[pa.Table]) -> pa.Table:
    return parts[0] if len(parts) == 1 else pa.concat_tables(parts)


@ray.remote(num_returns=2)
def read_buckets(srcs, spec, evolved, columns, where):
    _pin_intraop_threads()
    out = _concat([read_live(spec, evolved, s, columns, where) for s in srcs])
    return out, out.num_rows


@ray.remote(num_returns=2)
def diff_bucket(pairs, spec, evolved, update_preimages):
    _pin_intraop_threads()
    out = _concat(
        [diff_live(spec, evolved, o, n, update_preimages) for o, n in pairs]
    )
    return out, out.num_rows


@ray.remote(num_returns=2)
def map_group(fn, units, *args):
    """One task of :meth:`SnapshotReader.map_buckets`: ``fn(unit, *args)
    -> (payload, meta)`` per unit, in order. Payloads and metas return as
    two objects, so a caller can fetch the small metas alone."""
    _pin_intraop_threads()
    out = [fn(u, *args) for u in units]
    return [p for p, _ in out], [m for _, m in out]


def _sources(unit) -> list[Source]:
    """The sources a map unit reads: a Source, or the Sources in a tuple."""
    if isinstance(unit, Source):
        return [unit]
    if isinstance(unit, tuple):
        return [s for s in unit if isinstance(s, Source)]
    return []


def _cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def plan_groups(sizes: list[int], n_cpus: int, budget: int = GROUP_BYTES) -> list[list[int]]:
    """Split buckets (their on-disk ``sizes``, in bucket order) into
    contiguous groups, one read task each: ``max(n_cpus, total/budget)``
    groups, capped at the bucket count, of about equal bytes. A bucket
    larger than ``budget`` gets a group of its own. Every bucket lands in
    exactly one group, in order."""
    n = len(sizes)
    if n == 0:
        return []
    total = sum(sizes)
    k = min(n, max(n_cpus, -(-total // budget)))
    target = total / k
    groups: list[list[int]] = []
    cur: list[int] = []
    cur_b = 0
    for i, s in enumerate(sizes):
        # close the open group when this bucket would overflow it, when it
        # is oversize, or when only enough buckets remain to reach k groups
        if cur and (
            cur_b + s > target or s > budget or len(groups) + 1 + n - i <= k
        ):
            groups.append(cur)
            cur, cur_b = [], 0
        cur.append(i)
        cur_b += s
        if s > budget:
            groups.append(cur)
            cur, cur_b = [], 0
    if cur:
        groups.append(cur)
    return groups


class SnapshotReader:
    """Reads one lake's committed snapshots (see the module docstring).
    Built per read from the engine's spec, lake dir, checkpoint and
    retention policy; ``stats`` counts that read. The reader does not
    know which sink wrote the lake: every bucket is a base plus a chain,
    on the tip and as of any retained batch."""

    def __init__(self, spec, lake_dir, ckpt, gc_old_versions, retain_batches):
        self.spec = spec
        self.lake_dir = lake_dir
        self.ckpt = ckpt
        self.gc_old_versions = gc_old_versions
        self.retain_batches = retain_batches
        self.stats = {"files": 0, "bytes": 0, "rows": 0, "tasks": 0}
        self.idents: dict[str, tuple] = {}
        self._recs = None

    @classmethod
    def of(cls, eng) -> "SnapshotReader":
        return cls(eng.spec, eng.lake_dir, eng.ckpt, eng.gc_old_versions,
                   eng.retain_batches)

    # ------------------------------------------------ manifest -> sources
    def evolved(self, as_of: int | None = None):
        return self.ckpt.evolved if as_of is None else self.ckpt.evolved_as_of(as_of)

    def _lineage(self) -> list[dict]:
        if self._recs is None:
            from glue_etl_pipeline_ray.state.lineage import read_lineage

            self._recs = read_lineage(self.lake_dir)
        return self._recs

    def _check_reshard_floor(self, as_of: int) -> None:
        """A resharded lake carries its base snapshot (batch == the
        reshard watermark) but nothing older: pre-reshard history stays
        with the old lake, so an older ``as_of`` raises instead of
        returning a partial pointer set."""
        floor = max(
            (r["batch_id"] for r in self._lineage() if r.get("kind") == "reshard_base"),
            default=-1,
        )
        if as_of < floor:
            raise ValueError(
                f"as_of={as_of} predates this lake's reshard base "
                f"(batch {floor}); pre-reshard history stays with the "
                "old lake — query it there or resync by snapshot"
            )

    def pointers_as_of(self, as_of: int, buckets=None) -> dict[int, tuple]:
        """Per-bucket ``(base, chain)`` as of a committed batch, rebuilt
        from the lineage log in commit order. A ``bucket`` record without
        ``group`` anchors the bucket: a rewrite-sink version, or a
        reshard or backfill base, whose file holds the bucket's whole
        state up to its ``chain_floor`` (default: its version). Group
        records above the floor chain on top. Under GC, a fold or
        compaction (``fold_history``) newer than the anchor anchors
        instead: the files it folded may be gone. A history-keeping lake
        folds nothing away, so its chains replay in full. ``buckets``:
        optional restriction (point lookups)."""
        self._check_reshard_floor(as_of)
        bases: dict[int, int] = {}
        floors: dict[int, int] = {}
        chains: dict[int, list] = {}
        for rec in self._lineage():
            b = rec.get("bucket")
            if (
                rec.get("kind") != "bucket"
                or rec["batch_id"] > as_of
                or (buckets is not None and b not in buckets)
            ):
                continue
            if "group" in rec:
                chains.setdefault(b, []).append((rec["version"], rec["group"]))
            else:
                # the LAST anchor wins, not the highest version: a
                # backfill base (10^9 + wm) is superseded by the batch
                # versions committed after it
                bases[b] = rec["version"]
                floors[b] = rec.get("chain_floor", rec["version"])
        if self.gc_old_versions:
            for b, folds in self.ckpt.fold_history.items():
                f = max((f for f in folds if f <= as_of), default=-1)
                if f > floors.get(b, -1) and (buckets is None or b in buckets):
                    bases[b] = floors[b] = f
        return {
            b: (
                bases.get(b),
                [e for e in chains.get(b, []) if e[0] > floors.get(b, -1)],
            )
            for b in set(bases) | set(chains)
        }

    def _require_history(self, as_of: int) -> None:
        """Raise unless the ``as_of`` snapshot is reconstructible under
        the retention policy: always with ``gc_old_versions=False``;
        inside the trailing window with ``retain_batches=N`` (a commit only
        releases files whose successor is at or below the horizon, so any
        snapshot at or above it still resolves); under plain GC only the
        current snapshot."""
        if not self.gc_old_versions or as_of >= self.ckpt.watermark:
            return
        if self.retain_batches is None:
            raise NotImplementedError(
                "history reads require gc_old_versions=False or retain_batches=N"
            )
        horizon = self.ckpt.watermark - self.retain_batches
        if as_of < horizon:
            raise ValueError(
                f"as_of={as_of} is outside the retention window "
                f"(horizon={horizon}, retain_batches={self.retain_batches})"
            )

    def resolve(self, as_of: int | None = None, buckets=None) -> dict[int, Source]:
        """Per-bucket sources of the tip (``as_of=None``, from the
        checkpoint manifest) or of a committed batch (from the lineage
        log), without a history gate."""
        if as_of is None:
            ptrs = self.ckpt.tip_pointers(buckets)
        else:
            ptrs = self.pointers_as_of(as_of, buckets)
        return {
            b: _source(self.lake_dir, b, *ptrs[b])
            for b in sorted(ptrs)
            if buckets is None or b in buckets
        }

    def sources(self, as_of: int | None = None, buckets=None) -> dict[int, Source]:
        """:meth:`resolve` behind the history gate (snapshot and lookup
        reads)."""
        if as_of is not None:
            self._require_history(as_of)
        return self.resolve(as_of, buckets)

    def state_files(self, as_of: int | None = None) -> list[str]:
        """Every state file a snapshot reads, in bucket order, once each
        (group delta files are shared between buckets)."""
        out = []
        for src in self.resolve(as_of).values():
            out.extend(src.files())
        return list(dict.fromkeys(out))

    # ------------------------------------------------------ file classes
    def served_files(self) -> set[str]:
        """Names of the state files a snapshot served under the retention
        policy reads: the tip's, the retirement ledger's and, if the
        engine or the lake keeps history (``keep_history``), every file a
        committed lineage record names (a backfill's, committed once its
        backfill is). The one classifier behind ``fsck`` and
        ``gc_orphans``."""
        m = self.ckpt._m
        out = {os.path.basename(f) for f in self.state_files()}
        out |= {f for f, _ in m.get("retired_files", [])}
        if not self.gc_old_versions or m.get("keep_history"):
            wm = self.ckpt.watermark
            backfilled = {bf.get("watermark") for bf in self.ckpt.backfills}
            for rec in self._lineage():
                if rec.get("kind") == "bucket" and (
                    rec["batch_id"] <= wm
                    or rec.get("backfill_base") and rec.get("chain_floor") in backfilled
                ):
                    v = rec["version"]
                    out.add(
                        gdelta_name(rec["group"], v)
                        if "group" in rec
                        else part_name(rec["bucket"], v)
                    )
        return out

    def unserved(self) -> list[str]:
        """State files in the lake root that no served snapshot reads."""
        served = self.served_files()
        return sorted(
            f for f in os.listdir(self.lake_dir)
            if STATE_FILE_RE.match(f) and f not in served
        )

    def fsck(self) -> dict:
        """Metadata-only integrity check: every file the tip references
        exists (``missing`` otherwise), and the lake-root Parquet files no
        served snapshot reads are listed as ``orphans``. See
        ``ReplayEngine.fsck``."""
        referenced = {os.path.basename(f) for f in self.state_files()}
        missing = sorted(
            f
            for f in referenced
            if not os.path.exists(os.path.join(self.lake_dir, f))
        )
        return {
            "ok": not missing,
            "missing": missing,
            "orphans": self.unserved(),
            "n_referenced": len(referenced),
        }

    def history(self) -> pa.Table:
        """The commit log from the checkpoint manifest, newest first. See
        ``ReplayEngine.history``."""
        rows = [
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
            for bid_s, s in self.ckpt._m["batches"].items()
        ]
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

    def columns(self, evolved, columns=None, keep=()) -> list[str]:
        """The output columns of a projected read, canonical order;
        unknown names raise. ``keep`` columns are always kept."""
        cols = self.spec.canonical_cols(evolved)
        if columns is None:
            return cols
        unknown = [c for c in columns if c not in cols]
        if unknown:
            raise ValueError(f"unknown columns {unknown}; table has {cols}")
        return [c for c in cols if c in set(columns) | set(keep)]

    # ------------------------------------------------------------ dispatch
    def _count(self, units) -> list[int]:
        """Record the distinct files ``units`` (Sources, or tuples holding
        Sources) open; return each unit's on-disk size (the group
        planner's weight)."""
        sizes = []
        seen: dict[str, int] = {}
        for unit in units:
            n = 0
            for path in (p for src in _sources(unit) for p in src.files()):
                if path not in seen:
                    seen[path] = self._stat(path)
                n += seen[path]
            sizes.append(n)
        self.stats["files"] += len(seen)
        self.stats["bytes"] += sum(seen.values())
        return sizes

    def _stat(self, path: str) -> int:
        """The on-disk size of ``path`` (0 if it is gone: the read itself
        reports it). Its :func:`file_identity` goes to ``idents``, the key
        a lookup's reads are cached under."""
        try:
            st = os.stat(path)
        except OSError:
            self.idents.pop(path, None)
            return 0
        self.idents[path] = file_identity(st)
        return st.st_size

    def _dispatch(self, task, units: list, sizes: list[int], *args) -> list:
        groups = plan_groups(sizes, _cpus())
        refs, rows = [], []
        for g in groups:
            ref, n = task.remote([units[i] for i in g], *args)
            refs.append(ref)
            rows.append(n)
        self.stats["tasks"] += len(groups)
        self.stats["rows"] += sum(ray.get(rows))
        return refs

    def map_buckets(self, fn, units: list, *args) -> tuple[list, list]:
        """Run ``fn(unit, *args) -> (payload, meta)`` over ``units`` (a
        Source per bucket, or a tuple holding Sources) in one task per
        :func:`plan_groups` group. Returns ``(payload_refs, meta_refs)``,
        one ref each per group, resolving to that group's per-unit
        results in unit order. ``meta`` is a small dict; its ``"rows"``
        counts the state rows ``fn`` read. Non-blocking: the caller
        fetches metas with :meth:`gather` and leaves bulky payloads in
        the object store."""
        sizes = self._count(units)
        groups = plan_groups(sizes, _cpus())
        return self.map_groups(fn, [[units[i] for i in g] for g in groups], *args)

    def map_groups(self, fn, groups: list, *args) -> tuple[list, list]:
        """:meth:`map_buckets` over given groups: lists of units, or refs
        to them (a previous wave's payloads, fetched by the task)."""
        refs = [map_group.remote(fn, g, *args) for g in groups]
        self.stats["tasks"] += len(refs)
        return [p for p, _ in refs], [m for _, m in refs]

    def gather(self, meta_refs: list) -> list[list]:
        """Fetch :meth:`map_buckets` metas, one list per group, and count
        the rows they read."""
        metas = ray.get(meta_refs)
        self.stats["rows"] += sum(m.get("rows", 0) for ms in metas for m in ms)
        return metas

    # --------------------------------------------------------------- reads
    def live_refs(self, as_of=None, columns=None, where=()):
        """Live rows of a snapshot as one table ref per bucket group,
        plus the output schema. ``where``: validated ``(col, op, value)``
        conjunction."""
        evolved = self.evolved(as_of)
        cols = self.columns(evolved, columns)
        known = self.spec.canonical_cols(evolved)
        for col, op, _ in where:
            if col not in known:
                raise ValueError(f"unknown predicate column {col!r}")
            if op not in SCAN_OPS:
                raise ValueError(f"unknown op {op!r}; supported: {SCAN_OPS}")
        srcs = list(self.sources(as_of).values())
        refs = self._dispatch(
            read_buckets, srcs, self._count(srcs), self.spec, evolved,
            cols, list(where),
        )
        return refs, live_schema(self.spec, evolved, cols)

    def change_pairs(self, from_batch: int, to_batch: int) -> list[tuple]:
        """``(bucket, old, new)`` for every bucket whose source differs
        between two committed batches; an unchanged bucket has an empty
        diff and is neither read nor listed. Requires retained history:
        ``gc_old_versions=False`` or both batches inside the
        ``retain_batches`` window."""
        if not (-1 <= from_batch < to_batch <= self.ckpt.watermark):
            raise ValueError(
                f"need -1 <= from_batch < to_batch <= watermark "
                f"({from_batch}, {to_batch}, wm={self.ckpt.watermark})"
            )
        self._require_history(to_batch)
        if from_batch >= 0:
            self._require_history(from_batch)
        new = self.resolve(to_batch)
        old = self.resolve(from_batch) if from_batch >= 0 else {}
        return [
            (b, old.get(b), new.get(b))
            for b in sorted(set(old) | set(new))
            if old.get(b) != new.get(b)
        ]

    def diff_refs(self, evolved, pairs, update_preimages=False) -> list:
        """Change-feed table refs, one per bucket group, for ``(old,
        new)`` source pairs (sources may live in different lakes)."""
        return self._dispatch(
            diff_bucket, pairs, self._count(pairs), self.spec, evolved,
            update_preimages,
        )

    def change_schema(self, evolved) -> pa.Schema:
        return self.spec.canonical_schema(evolved).append(
            pa.field(CHANGE_TYPE_COL, pa.string())
        )

    def change_refs(self, from_batch: int, to_batch: int, update_preimages=False):
        """The in-lake change feed between two committed batches: table
        refs (changed buckets only) plus the output schema."""
        evolved = self.ckpt.evolved_as_of(to_batch)
        pairs = [(o, n) for _, o, n in self.change_pairs(from_batch, to_batch)]
        return (
            self.diff_refs(evolved, pairs, update_preimages),
            self.change_schema(evolved),
        )

    def probe(self, srcs: dict[int, Source], keys: dict[int, list[tuple]],
              evolved, cols: list[str]) -> tuple[list[pa.Table], dict]:
        """Key-first point lookup in the driver, one probe for a single
        state file and a chain alike (late materialization, as in *Nested
        Parquet Is Flat*). For each touched bucket, read only the key
        columns plus ``__seq``/``__deleted`` of its base file and of its
        row group in each chain file, match the bucket's requested
        ``keys`` (string tuples) by exact equality, and pick each key's
        winner by max ``__seq``, ties to the later file as the fold does.
        Payload columns are decoded only from the files holding a live
        winner, and only in the row groups holding one. Files are opened
        through :data:`LOOKUP_CACHE`, under the identity :meth:`_count`
        took; a file replaced since is stat-ed again and its bucket
        probed again.

        Returns the live rows (``cols``, canonical types) and
        ``{"bytes_decoded", "payload_files", "bytes_from_cache"}``: the
        footer ``total_compressed_size`` of every column chunk the lookup
        needed, the files whose payload it needed (from memory or disk
        alike), and the part of ``bytes_decoded`` served from memory."""
        kc = list(self.spec.key_cols)
        payload = [c for c in cols if c not in kc]
        schema = live_schema(self.spec, evolved, cols)
        self._count(srcs.values())
        cost = {"bytes_decoded": 0, "payload_files": 0, "bytes_from_cache": 0}
        out = []
        for b, src in srcs.items():
            before = dict(cost)
            try:
                out += self._probe_bucket(src, keys[b], kc, payload, schema, cost)
            except FileChanged as e:  # replaced since the stat: once more
                cost.update(before)
                self._stat(e.args[0])
                out += self._probe_bucket(src, keys[b], kc, payload, schema, cost)
        self.stats["rows"] += sum(p.num_rows for p in out)
        return out, cost

    def _probe_bucket(self, src, keys, kc, payload, schema, cost) -> list[pa.Table]:
        want = set(keys)
        values = [pa.array(sorted({k[i] for k in want}), pa.string())
                  for i in range(len(kc))]
        # each requested key's (seq, file, row, deleted) winner so far
        best: dict[tuple, tuple] = {}
        files, opened = [], []

        def open_file(path):
            opened.append(CachedFile(path, self.idents.get(path), cost))
            return opened[-1]

        try:
            for fi, (pf, groups) in enumerate(_probe_files(src, open_file=open_file)):
                t = _read_groups(pf, groups, kc + [SEQ_COL, DELETED_COL])
                files.append((pf, groups, t))
                if t.num_rows == 0:  # a bucket compacted to nothing
                    continue
                mask = None
                for k, v in zip(kc, values):
                    m = pc.is_in(t[k], value_set=v)
                    mask = m if mask is None else pc.and_(mask, m)
                hits = pc.indices_nonzero(mask)
                if len(hits) == 0:
                    continue
                for row, r in zip(hits.to_pylist(), t.take(hits).to_pylist()):
                    key = tuple(r[k] for k in kc)
                    cur = best.get(key)
                    if key in want and (cur is None or r[SEQ_COL] >= cur[0]):
                        best[key] = (r[SEQ_COL], fi, row, r[DELETED_COL])
            live: dict[int, list[int]] = {}
            for _, fi, row, dead in best.values():
                if not dead:
                    live.setdefault(fi, []).append(row)
            out = []
            for fi, rows in sorted(live.items()):
                pf, groups, t = files[fi]
                t = _materialize(pf, groups, t.select(kc), rows, payload, cost)
                out.append(conform(t, schema))
            return out
        finally:
            for pf in opened:
                pf.close()

    # ---------------------------------------------------------- assembly
    @staticmethod
    def dataset(refs: list, schema: pa.Schema) -> "ray.data.Dataset":
        import ray.data  # not at module level: read tasks import this module

        if not refs:
            return ray.data.from_arrow(schema.empty_table())
        return ray.data.from_arrow_refs(refs)

    def table(self, parts: list[pa.Table], schema: pa.Schema, sort: bool = True) -> pa.Table:
        out = _concat(parts) if parts else schema.empty_table()
        if not sort:
            return out
        return out.sort_by([(k, "ascending") for k in self.spec.key_cols])

    def live_table(self, as_of=None, sort: bool = True) -> pa.Table:
        """The live table read in the driver, bucket by bucket (the
        oracle-check path: no task, no object-store copy)."""
        evolved = self.evolved(as_of)
        cols = self.columns(evolved)
        srcs = list(self.sources(as_of).values())
        self._count(srcs)
        parts = [read_live(self.spec, evolved, s, cols) for s in srcs]
        self.stats["rows"] += sum(p.num_rows for p in parts)
        return self.table(parts, live_schema(self.spec, evolved, cols), sort)
