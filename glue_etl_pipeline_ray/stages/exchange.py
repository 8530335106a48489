"""Raw-Ray keyed exchange: the replay hot path's map-side-partition shuffle.

Why raw Ray here (and only here): the replay inner loop needs a *keyed
exchange whose partitioning is pinned to the sink's bucket layout* — every
merge task must receive exactly the rows of its sink buckets AND read/write
those buckets' lake files. ``Dataset.groupby(bucket).map_groups`` expresses
this but via a general sort-based shuffle whose per-group machinery costs
~10x the actual merge work at micro-batch sizes (measured: 64-bucket merge
of 130k rows = 0.97 s of compute inside 9+ s of groupby overhead). This
module is the textbook two-stage shuffle on Ray core — the same pattern
Ray Data's own shuffle uses internally (M map tasks x G reduce groups of
object-store refs):

    map task  (per row-group chunk):  read once -> per table: route
              filter -> validate(+DLQ) -> evolve -> partial LWW -> sort
              by sink bucket -> split into G zero-copy slices, returned
              as T x G separate objects (one table: T = 1)
    merge task (per table and exchange group):  fetch its column of
              slices -> per-sink-bucket LWW merge vs prior lake file
              (or one group delta file) -> staged idempotent write ->
              lineage records

Scale shape: G (exchange groups) ~ 2x cluster cores, independent of the
sink bucket count B (each merge task owns the contiguous bucket range
``[g*B/G, (g+1)*B/G)``), so object count is M x G — bounded by compute
parallelism, not by B (B can be 2^16 at 100 TB while G stays ~10^3).
It is the engine's only ingest path.

Reference analog: this stage *is* the Spark shuffle implicit in the
reference's convert job (``convert_to_parquet.py:218-239``) made explicit.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from glue_etl_pipeline_ray.spec import TableSpec
from glue_etl_pipeline_ray.stages.evolve import make_evolve_fn
from glue_etl_pipeline_ray.stages.merge import merge_bucket_table
from glue_etl_pipeline_ray.hashing import guarded_last_per_key, key_hash_u64
from glue_etl_pipeline_ray.stages.partial import BUCKET_COL
from glue_etl_pipeline_ray.stages.validate import ValidateFn


_META_CACHE: dict[tuple, "pq.FileMetaData"] = {}
_META_CACHE_MAX = 4096


def _file_meta(f: str) -> "pq.FileMetaData":
    """Footer metadata memo keyed by (path, mtime_ns, size): batch files
    land atomically and are immutable, so a same-process re-read (the
    work-budget pass, then the pipeline's schema/chunk-plan pass) must
    not pay a second metadata round trip per file."""
    st = os.stat(f)
    key = (f, st.st_mtime_ns, st.st_size)
    md = _META_CACHE.get(key)
    if md is None:
        md = pq.ParquetFile(f).metadata
        if len(_META_CACHE) >= _META_CACHE_MAX:
            # evict the oldest half (dict preserves insertion order) —
            # clear() would wipe the cache mid-run and the pipeline's
            # second pass over a >4096-file pending set would miss
            for k in list(_META_CACHE)[: _META_CACHE_MAX // 2]:
                del _META_CACHE[k]
        _META_CACHE[key] = md
    return md


def read_file_metas(files: list[str]) -> list[tuple[str, "pq.FileMetaData"]]:
    """ONE footer read per file: callers derive the schema (evolution
    discovery), the event count, and the row-group chunk plan from the
    same FileMetaData instead of re-opening the footer three times per
    file per micro-batch on the driver hot path — three serial metadata
    round trips per file against object storage at the 100 TB target."""
    return [(f, _file_meta(f)) for f in files]


def plan_chunks(
    files: list[str],
    target_chunks: int,
    metas: list[tuple[str, "pq.FileMetaData"]] | None = None,
) -> list[list[tuple[str, list[int]]]]:
    """Pack (file, row-group) units into <= target_chunks row-balanced
    chunks. Row-group granularity is what lets one big batch file fan out
    across the cluster (the reference's one-file-one-iteration straggler,
    SURVEY.md 4 'sharding unit', dissolved)."""
    units: list[tuple[str, int, int]] = []
    for f, md in metas if metas is not None else read_file_metas(files):
        for rg in range(md.num_row_groups):
            units.append((f, rg, md.row_group(rg).num_rows))
    if not units:
        return []
    n_chunks = max(1, min(target_chunks, len(units)))
    # greedy longest-first into least-loaded chunk
    chunks: list[list[tuple[str, int]]] = [[] for _ in range(n_chunks)]
    loads = [0] * n_chunks
    for f, rg, rows in sorted(units, key=lambda u: -u[2]):
        i = loads.index(min(loads))
        chunks[i].append((f, rg))
        loads[i] += rows
    out = []
    for ch in chunks:
        if not ch:
            continue
        by_file: dict[str, list[int]] = {}
        for f, rg in ch:
            by_file.setdefault(f, []).append(rg)
        out.append([(f, sorted(rgs)) for f, rgs in sorted(by_file.items())])
    return out


def _pin_intraop_threads() -> None:
    """One task = one core. Ray hands each task num_cpus=1, but pyarrow's
    global compute/IO pools default to ALL machine cores — 32 workers x
    32-thread pools thrash the node and (worse) make a num_cpus=8 run
    silently use the whole machine, corrupting any scaling measurement.
    Idempotent, cheap, called at task entry."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


@ray.remote
def _map_chunk(sinks: list[tuple], chunk: list[tuple[str, list[int]]]):
    """read the chunk ONCE -> per sink: [route filter] -> validate ->
    evolve -> partial LWW -> its G bucket-range slices. ``sinks`` holds
    each table's ``(spec, evolved, event_filter, dlq_dir, num_exchange)``;
    the slices come back table-major, so read amplification is 1
    whatever the table count."""
    _pin_intraop_threads()
    parts = [pq.ParquetFile(f).read_row_groups(rgs) for f, rgs in chunk]
    t0 = (
        parts[0]
        if len(parts) == 1
        else pa.concat_tables(parts, promote_options="permissive")
    )
    out: list[pa.Table] = []
    for spec, evolved, event_filter, dlq_dir, num_exchange in sinks:
        # demux predicate (reference M5 analog): each table consumes only
        # its logical table's events
        t = event_filter(t0) if event_filter is not None else t0
        out.extend(_validate_reduce_slice(spec, evolved, t, dlq_dir, num_exchange))
    return tuple(out) if len(out) > 1 else out[0]


def _validate_reduce_slice(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    t: pa.Table,
    dlq_dir: str,
    num_exchange: int,
) -> list[pa.Table]:
    """validate -> evolve -> fused partial LWW + bucket sort: ONE payload
    copy (the take). Sort indices by (bucket, key-hash, seq); the last
    row per key-hash is its max-seq survivor (the combiner, SURVEY.md
    7.3) and survivors come out already bucket-ordered for zero-copy
    range slicing into G exchange groups."""
    t = ValidateFn(spec, dlq_dir)(t)
    t = make_evolve_fn(spec, evolved)(t)
    if t.num_rows == 0:
        # a route filter or whole-chunk quarantine can drain a chunk;
        # np.r_ below would build a length-1 mask over an empty array
        empty = t.append_column(BUCKET_COL, pa.array([], pa.int64()))
        return [empty] * num_exchange
    kh = key_hash_u64(*(t[k] for k in spec.key_cols))
    seq = t[spec.seq_col].to_numpy(zero_copy_only=False)
    bucket = (kh % np.uint64(spec.num_buckets)).astype(np.int64)
    # bucket = kh % B, so equal-kh rows stay contiguous under the
    # bucket-major sort; runs detected on kh alone are exact. Survivor
    # selection is collision-guarded against the real key columns.
    order = np.lexsort((seq, kh, bucket))
    chosen = guarded_last_per_key(t, spec.key_cols, kh, order)
    t = t.take(chosen)
    bucket_chosen = bucket[chosen]
    t = t.append_column(BUCKET_COL, pa.array(bucket_chosen, pa.int64()))

    ex = bucket_chosen * num_exchange // spec.num_buckets
    bounds = np.searchsorted(ex, np.arange(num_exchange + 1))
    return [
        t.slice(int(bounds[g]), int(bounds[g + 1] - bounds[g]))
        for g in range(num_exchange)
    ]


def _bucket_runs(slices):
    """A reduce group's map slices as one table stably sorted by sink
    bucket: ``(table, sorted buckets, run starts, run ends)``, one run per
    bucket. None when every slice is empty."""
    live = [s for s in slices if s.num_rows]
    if not live:
        return None
    t = live[0] if len(live) == 1 else pa.concat_tables(live)
    b = t[BUCKET_COL].to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    bs = b[order]
    starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
    ends = np.r_[starts[1:], len(bs)]
    return t.take(order), bs, starts, ends


@ray.remote
def _merge_group(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    lake_dir: str,
    batch_id: int,
    prev: dict,
    *slices: pa.Table,
) -> dict:
    """LWW-merge every sink bucket in this exchange group's range.

    ``prev`` is the previous batch's output for the SAME group (passed as
    an ObjectRef by the pipelined driver, so merges chain per group while
    different groups — and different batches' map waves — run freely in
    parallel). Its ``versions`` map tells each bucket which state file to
    read; this batch's writes bump those versions. Returns
    ``{"versions": ..., "records": [...]}``."""
    _pin_intraop_threads()
    versions = dict(prev["versions"])
    runs = _bucket_runs(slices)
    if runs is None:
        return {"versions": versions, "records": []}
    t, bs, starts, ends = runs
    records = []
    for s, e in zip(starts, ends):
        bucket = int(bs[s])
        records.append(
            merge_bucket_table(
                spec,
                evolved,
                lake_dir,
                versions.get(bucket),
                batch_id,
                bucket,
                t.slice(int(s), int(e - s)),
            )
        )
        versions[bucket] = batch_id
    return {"versions": versions, "records": records}


@ray.remote
def _delta_group(
    spec: TableSpec,
    evolved: tuple[tuple[str, str], ...],
    lake_dir: str,
    batch_id: int,
    group_id: int,
    *slices: pa.Table,
) -> dict:
    """state_mode="delta" reduce: write this exchange group's batch rows
    as ONE group delta file (a row group per touched sink bucket). No
    prior-state read -> no cross-batch chaining needed; every batch's
    reduce wave runs fully independently, and files per batch stay
    O(num_exchange) — independent of the sink bucket count."""
    _pin_intraop_threads()
    from glue_etl_pipeline_ray.stages.merge import (
        events_to_state,
        write_delta_group,
    )

    runs = _bucket_runs(slices)
    if runs is None:
        return {"records": []}
    t, bs, starts, ends = runs
    # events_to_state is a 1:1 row transform, so one vectorized call over
    # the whole group keeps the bucket run boundaries valid
    state_t, _ = events_to_state(spec, evolved, t)
    records = write_delta_group(
        spec, evolved, lake_dir, batch_id, group_id,
        state_t, bs[starts], starts, ends,
    )
    return {"records": records}


@ray.remote
def _warm() -> int:
    """Pre-import the hot-path deps in a worker process (polars' rayon
    pool, the package modules). Called once per core by ``warm_cluster``
    so the first real batch doesn't pay a 32-way import storm."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    _pin_intraop_threads()
    import polars  # noqa: F401

    from glue_etl_pipeline_ray.stages import (  # noqa: F401
        evolve,
        merge,
        partial,
        validate,
    )

    return 1


def warm_cluster(n: int | None = None) -> None:
    if n is None:
        n = int(ray.cluster_resources().get("CPU", 8))
    ray.get([_warm.options(num_cpus=1).remote() for _ in range(int(n))])


DEFAULT_SPLIT_ROWS = 32_768


def default_num_exchange(spec: TableSpec) -> int:
    """Reduce-group count: ~half the cores (measured sweet spot — fewer,
    larger shuffle objects; the merge wave is short), capped by buckets."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(2, min(spec.num_buckets, max(4, cpus // 2)))


def group_of(bucket: int, num_exchange: int, num_buckets: int) -> int:
    return bucket * num_exchange // num_buckets


class Sink(NamedTuple):
    """One table's side of a batch. Its map slices need the spec, the
    evolved columns, the route filter and the DLQ dir; its reduces write
    ``lake_dir`` through the ``state_mode`` sink. ``prev_by_group`` has
    one entry per exchange group: the rewrite sink's chain (the previous
    batch's ``_merge_group`` output for that group, an ObjectRef, or a
    plain dict seeded from the committed manifest); the delta sink reads
    no prior state and ignores the entries."""

    spec: TableSpec
    evolved: tuple[tuple[str, str], ...]
    event_filter: Callable | None
    dlq_dir: str
    lake_dir: str
    prev_by_group: list
    state_mode: str


def submit_batch(
    sinks: list[Sink],
    files: list[str],
    batch_id: int,
    split_rows: int = DEFAULT_SPLIT_ROWS,
    metas: list | None = None,
) -> list[list]:
    """Submit one micro-batch's map wave and every sink's reduce wave
    WITHOUT blocking. One map task per chunk reads it once for all
    sinks. Returns each sink's per-group ObjectRefs; the caller drains
    them in commit order. ``metas``: pre-read footers from
    :func:`read_file_metas` (avoids re-opening them here).

    Split size is FIXED (``split_rows``), not derived from cluster size:
    per-task efficiency stays uniform from 8 cores to a 256-node cluster,
    and parallelism comes from data volume + batch pipelining (the same
    fixed-split discipline as HDFS/Spark input splits)."""
    if metas is None:
        metas = read_file_metas(files)
    total_rows = sum(md.num_rows for _, md in metas)
    n_chunks = max(1, -(-total_rows // split_rows))
    chunks = plan_chunks(files, target_chunks=n_chunks, metas=metas)
    maps = [
        (s.spec, s.evolved, s.event_filter, s.dlq_dir, len(s.prev_by_group))
        for s in sinks
    ]
    n_ret = sum(m[-1] for m in maps)
    map_refs = [
        _map_chunk.options(num_returns=n_ret).remote(maps, ch) for ch in chunks
    ]
    if n_ret == 1:
        map_refs = [[r] for r in map_refs]
    out, first = [], 0
    for s in sinks:
        refs = []
        for g, prev in enumerate(s.prev_by_group):
            col = (m[first + g] for m in map_refs)
            if s.state_mode == "delta":
                refs.append(
                    _delta_group.remote(s.spec, s.evolved, s.lake_dir, batch_id, g, *col)
                )
            else:
                refs.append(
                    _merge_group.remote(s.spec, s.evolved, s.lake_dir, batch_id, prev, *col)
                )
        out.append(refs)
        first += len(s.prev_by_group)
    return out
