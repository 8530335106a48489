"""Mergeable sketches: HyperLogLog distinct counting at shuffle-free cost.

The reference has no approximate aggregates (SURVEY.md 2.5); at 10^10
events an exact COUNT(DISTINCT key) is a full shuffle, while a HLL
register set is a fixed 2^p bytes per block, combined by elementwise max
— the classic mergeable-sketch pattern: ``map_batches`` emits one
register row per block (the partial), a tiny reduce folds them.

Standard HLL (Flajolet et al. 2007): p index bits, registers =
max(leading-zero-count + 1) of the remaining 64-p bits; bias-corrected
harmonic mean, linear counting for the small regime. Expected relative
error ~= 1.04 / sqrt(2^p)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from glue_etl_pipeline_ray.hashing import key_hash_u64


def _registers(h: np.ndarray, p: int) -> np.ndarray:
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad low bits
    # leading zeros of the remaining 64-p bits (values nonzero by the
    # pad): position of the highest set bit via float64 log2 — exact for
    # the exponent range we need; rho = lz + 1
    lz = 64 - np.floor(np.log2(rest.astype(np.float64))).astype(np.int64) - 1
    rho = np.minimum(lz + 1, 64 - p + 1)
    regs = np.zeros(m, np.int8)
    np.maximum.at(regs, idx, rho.astype(np.int8))
    return regs


def _estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small regime
    return float(est)


class KLLSketch:
    """Mergeable KLL quantile sketch (Karnin-Lang-Liberty, FOCS 2016) for
    unbounded / float domains — the documented scale path behind the
    exact value-histogram quantiles (which require a bounded integer
    domain). Rank error is O(1/k) of n with high probability; k=256
    gives well under 1% in practice.

    Level ``i`` holds items of weight ``2**i``; level capacities decay
    geometrically (c = 2/3) from ``k`` at the top. A full level is
    sorted and every other item (alternating offset — the deterministic
    coin used by Greenwald-Khanna-style implementations, chosen here so
    Ray task retries reproduce byte-identical partials) is promoted to
    the next level. Each block builds a partial over its rows in ONE
    vectorized append (no per-item inserts); partials serialize to a few
    KB and fold on the driver — the same shuffle-free mergeable-sketch
    shape as :func:`hll_distinct`."""

    _C = 2.0 / 3.0

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self._coin = 0

    def _capacity(self, level: int) -> int:
        depth = len(self.levels) - 1 - level
        return max(2, int(np.ceil(self.k * self._C**depth)))

    def _compress(self) -> None:
        while True:
            lvl = next(
                (
                    i
                    for i, arr in enumerate(self.levels)
                    if len(arr) > self._capacity(i)
                ),
                None,
            )
            if lvl is None:
                return
            arr = np.sort(self.levels[lvl])
            # weight conservation: an odd item stays behind (promoting it
            # would create or destroy one unit of level-lvl weight)
            leftover = arr[-1:] if len(arr) % 2 else np.empty(0, np.float64)
            arr = arr[: len(arr) - len(leftover)]
            off = self._coin
            self._coin ^= 1
            promoted = arr[off::2]
            self.levels[lvl] = leftover
            if lvl + 1 == len(self.levels):
                self.levels.append(np.empty(0, np.float64))
            self.levels[lvl + 1] = np.concatenate(
                [self.levels[lvl + 1], promoted]
            )

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def merge(self, other: "KLLSketch") -> None:
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
        for i, arr in enumerate(other.levels):
            if len(arr):
                self.levels[i] = np.concatenate([self.levels[i], arr])
        self._compress()

    @property
    def n(self) -> int:
        return int(sum(len(a) << i for i, a in enumerate(self.levels)))

    def quantile(self, q: float) -> float:
        if self.n == 0:
            return float("nan")
        items = np.concatenate([a for a in self.levels if len(a)])
        weights = np.concatenate(
            [np.full(len(a), 1 << i, np.int64) for i, a in enumerate(self.levels) if len(a)]
        )
        order = np.argsort(items, kind="stable")
        items, weights = items[order], weights[order]
        cum = np.cumsum(weights)
        target = q * cum[-1]
        return float(items[np.searchsorted(cum, target, side="left").clip(0, len(items) - 1)])

    def serialize(self) -> tuple[list[int], bytes]:
        return (
            [len(a) for a in self.levels],
            b"".join(np.ascontiguousarray(a).tobytes() for a in self.levels),
        )

    @classmethod
    def deserialize(cls, lens: list[int], blob: bytes, k: int = 256) -> "KLLSketch":
        sk = cls(k)
        flat = np.frombuffer(blob, np.float64)
        sk.levels, pos = [], 0
        for ln in lens:
            sk.levels.append(flat[pos : pos + ln].copy())
            pos += ln
        if not sk.levels:
            sk.levels = [np.empty(0, np.float64)]
        return sk


def kll_quantiles(
    ds: Dataset, col: str, qs: list[float], k: int = 256
) -> dict:
    """Approximate quantiles of ``ds[col]`` via per-block KLL partials
    (one ``map_batches`` pass, NO shuffle) folded on the driver — each
    partial is O(k log(n/k)) floats regardless of block size, so the
    reduce stays trivial at 10^10 rows. Returns
    ``{"n": int, "quantiles": {q: value}}``."""

    def block_sketch(batch: pa.Table) -> pa.Table:
        sk = KLLSketch(k)
        sk.update(batch[col].to_numpy(zero_copy_only=False).astype(np.float64))
        lens, blob = sk.serialize()
        return pa.table(
            {
                "lens": pa.array([lens], pa.list_(pa.int64())),
                "vals": pa.array([blob], pa.binary()),
            }
        )

    parts = ds.map_batches(block_sketch, batch_format="pyarrow", batch_size=None)
    merged = KLLSketch(k)
    for row in parts.take_all():  # aggregate-sized: one ~KB row per block
        merged.merge(KLLSketch.deserialize(list(row["lens"]), row["vals"], k))
    return {"n": merged.n, "quantiles": {q: merged.quantile(q) for q in qs}}


def heavy_hitters(
    ds: Dataset,
    key_col: str,
    k: int = 10,
    partial_m: int = 64,
    weight_col: str | None = None,
) -> pa.Table:
    """Approximate top-k heavy hitters with a deterministic error bound,
    shuffle-free (Misra-Gries / SpaceSaving summary shape):

    Each block emits its EXACT per-key totals truncated to its top
    ``partial_m`` keys plus the mass it dropped (`__dropped` = the
    largest truncated total — the bound on how much any unreported key
    could have accumulated in that block). The driver folds the partials
    (aggregate-sized) and reports each candidate's [count_min,
    count_max] where count_max = count_min + sum-of-dropped-bounds over
    blocks that did NOT report the key. Guarantee: every key whose true
    total exceeds top-k's count_min + total slack is present — and with
    ``partial_m >> k`` the slack is usually 0 at moderate skew.

    Columns: key, count_min, count_max, rank (by count_min desc, key asc).
    """

    def block_top(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch)
        agg = (
            df.group_by(key_col).agg(
                pl.col(weight_col).sum().alias("__w")
                if weight_col
                else pl.len().cast(pl.Int64).alias("__w")
            )
        ).sort(["__w", key_col], descending=[True, False])
        kept = agg.head(partial_m)
        dropped = int(agg["__w"][partial_m]) if len(agg) > partial_m else 0
        out = kept.to_arrow()
        return out.append_column(
            "__dropped", pa.array([dropped] * out.num_rows, pa.int64())
        )

    parts = ds.map_batches(block_top, batch_format="pyarrow", batch_size=None)
    totals: dict = {}
    block_drops: list[tuple[int, set]] = []  # (dropped_bound, keys_reported)
    import ray as _ray

    blocks = _ray.get(parts.to_arrow_refs())  # aggregate-sized, one fetch
    for b in blocks:
        if b.num_rows == 0:
            continue
        keys = b[key_col].to_pylist()
        ws = b["__w"].to_pylist()
        dropped = int(b["__dropped"][0].as_py())
        for kk, w in zip(keys, ws):
            totals[kk] = totals.get(kk, 0) + int(w)
        block_drops.append((dropped, set(keys)))
    out_rows = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[: k]
    res = {"key": [], "count_min": [], "count_max": [], "rank": []}
    for rank, (kk, cmin) in enumerate(out_rows, 1):
        slack = sum(d for d, seen in block_drops if kk not in seen)
        res["key"].append(kk)
        res["count_min"].append(cmin)
        res["count_max"].append(cmin + slack)
        res["rank"].append(rank)
    return pa.table(
        {
            "key": pa.array(res["key"]),
            "count_min": pa.array(res["count_min"], pa.int64()),
            "count_max": pa.array(res["count_max"], pa.int64()),
            "rank": pa.array(res["rank"], pa.int64()),
        }
    )


def hll_distinct(ds: Dataset, cols: list[str], p: int = 14) -> dict:
    """Approximate COUNT(DISTINCT cols): per-block registers (one
    ``map_batches`` pass, no shuffle), folded by max on the driver
    (2^p bytes per block — at 10^10 rows the reduce is still trivial).

    Returns {"estimate": float, "p": p, "rel_error": ~1.04/sqrt(2^p)}."""

    def block_regs(batch: pa.Table) -> pa.Table:
        h = key_hash_u64(*(batch[c] for c in cols))
        return pa.table({"regs": pa.array([_registers(h, p).tobytes()], pa.binary())})

    parts = ds.map_batches(block_regs, batch_format="pyarrow", batch_size=None)
    regs = np.zeros(1 << p, np.int8)
    for row in parts.take_all():
        regs = np.maximum(regs, np.frombuffer(row["regs"], np.int8))
    return {
        "estimate": _estimate(regs, p),
        "p": p,
        "rel_error": 1.04 / (1 << p) ** 0.5,
    }


def grouped_kll_quantiles(
    ds: Dataset,
    key_col: str,
    val_col: str,
    qs: list[float],
    k: int = 256,
    num_partitions: int = 64,
) -> Dataset:
    """Per-key approximate quantiles via mergeable KLL partials — the
    scale path for grouped quantiles over unbounded/float domains
    (``q_grouped_quantiles``'s exact per-group sort assumes a group
    fits one task; this never materializes a group's values at all).

    Shape: one ``map_batches`` pass emits a ~KB sketch per (key, block);
    the only shuffle moves those partials (bounded by keys x blocks,
    never data rows) into ``grouped_apply``'s hash partitions, where
    per-key partials merge and the quantiles are read off. Ray group
    count = num_partitions, independent of key cardinality.
    """

    def block_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # np.r_[True, ...] segmenting yields starts=[0] on empty
            # input and keys[0] would raise — an upstream filter can
            # legitimately empty a block
            return pa.table(
                {
                    key_col: pa.array([], t.schema.field(key_col).type),
                    "lens": pa.array([], pa.list_(pa.int64())),
                    "vals": pa.array([], pa.binary()),
                }
            )
        keys = np.asarray(t[key_col].to_pylist(), dtype=object)
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], len(keys)]
        out_k, out_lens, out_blob = [], [], []
        for s, e in zip(starts, ends):
            sk = KLLSketch(k)
            sk.update(vals[s:e])
            lens, blob = sk.serialize()
            out_k.append(keys[s])
            out_lens.append(lens)
            out_blob.append(blob)
        return pa.table(
            {
                key_col: pa.array(out_k),
                "lens": pa.array(out_lens, pa.list_(pa.int64())),
                "vals": pa.array(out_blob, pa.binary()),
            }
        )

    partials = ds.map_batches(
        block_partials, batch_format="pyarrow", batch_size=None
    )

    from glue_etl_pipeline_ray.functions.groups import grouped_apply

    def merge_key(g: pa.Table) -> pa.Table:
        merged = KLLSketch(k)
        for lens, blob in zip(g["lens"].to_pylist(), g["vals"].to_pylist()):
            merged.merge(KLLSketch.deserialize(list(lens), blob, k))
        cols = {
            key_col: g[key_col].slice(0, min(1, g.num_rows)),
            "n": pa.array([merged.n] if g.num_rows else [], pa.int64()),
        }
        for q in qs:
            cols[f"p{int(q * 100)}"] = pa.array(
                [merged.quantile(q)] if g.num_rows else [], pa.float64()
            )
        return pa.table(cols)

    return grouped_apply(
        partials, [key_col], merge_key, num_partitions=num_partitions
    )


def grouped_hll_distinct(
    ds: Dataset,
    key_col: str,
    cols: list[str],
    p: int = 12,
    num_partitions: int = 64,
) -> Dataset:
    """Per-key approximate COUNT(DISTINCT cols) via mergeable HLL
    registers — the grouped companion to :func:`hll_distinct`, same
    discipline as :func:`grouped_kll_quantiles`: one ``map_batches``
    pass emits a 2^p-byte register block per (key, block); the only
    shuffle moves those partials (keys x blocks, never data rows) into
    ``grouped_apply``'s hash partitions where per-key registers fold by
    max. Exact per-group distinct would shuffle every data row; this
    moves kilobytes per key regardless of group size."""

    def block_regs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # see block_partials: empty blocks are legal
            return pa.table(
                {
                    key_col: pa.array([], t.schema.field(key_col).type),
                    "regs": pa.array([], pa.binary()),
                }
            )
        keys = np.asarray(t[key_col].to_pylist(), dtype=object)
        h = key_hash_u64(*(t[c] for c in cols))
        order = np.argsort(keys, kind="stable")
        keys, h = keys[order], h[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], len(keys)]
        out_k, out_r = [], []
        for s, e in zip(starts, ends):
            out_k.append(keys[s])
            out_r.append(_registers(h[s:e], p).tobytes())
        return pa.table(
            {key_col: pa.array(out_k), "regs": pa.array(out_r, pa.binary())}
        )

    partials = ds.map_batches(
        block_regs, batch_format="pyarrow", batch_size=None
    )

    from glue_etl_pipeline_ray.functions.groups import grouped_apply

    def merge_key(g: pa.Table) -> pa.Table:
        regs = np.zeros(1 << p, np.int8)
        for blob in g["regs"].to_pylist():
            regs = np.maximum(regs, np.frombuffer(blob, np.int8))
        return pa.table(
            {
                key_col: g[key_col].slice(0, min(1, g.num_rows)),
                "distinct_est": pa.array(
                    [_estimate(regs, p)] if g.num_rows else [], pa.float64()
                ),
            }
        )

    return grouped_apply(
        partials, [key_col], merge_key, num_partitions=num_partitions
    )


def grouped_heavy_hitters(
    ds: Dataset,
    group_col: str,
    key_col: str,
    k: int = 5,
    partial_m: int = 32,
    weight_col: str | None = None,
) -> Dataset:
    """Per-GROUP approximate top-k heavy hitters — the grouped member of
    the sketch family (HLL and KLL already have grouped variants; this
    closes the SpaceSaving/Misra-Gries gap). Same bound construction as
    the global ``heavy_hitters``: each block emits its exact per-(group,
    key) totals truncated to the top ``partial_m`` keys PER GROUP plus
    that (group, block)'s dropped-mass bound; ONE bounded exchange on
    the group column (<= blocks x groups x partial_m rows — partials,
    never raw rows; Ray group count independent of group cardinality
    via ``grouped_apply``'s hash partitions) folds each group exactly
    like the global driver fold. Every reported key carries
    [count_min, count_max]; with ``partial_m`` >= the group's distinct
    keys the slack is 0 and the result is exact (the gate's fixture).

    The per-block partial id is CONTENT-derived (not a uuid), so task
    retries reproduce byte-identical partials — the engine-wide
    determinism discipline. Byte-identical blocks therefore share an id;
    the fold counts each such block's dropped mass once per block."""
    import hashlib as _hashlib

    from glue_etl_pipeline_ray.functions.groups import grouped_apply

    def block_top(batch: pa.Table) -> pa.Table:
        import polars as pl

        if batch.num_rows == 0:
            return pa.table(
                {
                    group_col: pa.array([], batch.schema.field(group_col).type),
                    key_col: pa.array([], batch.schema.field(key_col).type),
                    "__w": pa.array([], pa.int64()),
                    "__dropped": pa.array([], pa.int64()),
                    "__bid": pa.array([], pa.string()),
                }
            )
        df = pl.from_arrow(batch)
        agg = df.group_by([group_col, key_col]).agg(
            pl.col(weight_col).sum().alias("__w")
            if weight_col
            else pl.len().cast(pl.Int64).alias("__w")
        )
        agg = agg.sort(
            [group_col, "__w", key_col], descending=[False, True, False]
        ).with_columns(
            pl.col("__w").cum_count().over(group_col).alias("__rn")
        )
        kept = agg.filter(pl.col("__rn") <= partial_m)
        # per-group dropped bound = the (m+1)-th total (0 if none)
        dropped = (
            agg.filter(pl.col("__rn") == partial_m + 1)
            .select([group_col, pl.col("__w").alias("__dropped")])
        )
        out = kept.join(dropped, on=group_col, how="left").with_columns(
            pl.col("__dropped").fill_null(0)
        ).drop("__rn")
        t = out.to_arrow()
        bid = _hashlib.sha1(
            repr([t[c].to_pylist() for c in t.column_names]).encode()
        ).hexdigest()[:16]
        return t.append_column(
            "__bid", pa.array([bid] * t.num_rows, pa.string())
        )

    parts = ds.map_batches(block_top, batch_format="pyarrow", batch_size=None)

    def fold(g: pa.Table) -> pa.Table:
        gval = g[group_col][0].as_py()
        totals: dict = {}
        drops: dict = {}
        for key, w, d, bid in zip(
            g[key_col].to_pylist(),
            g["__w"].to_pylist(),
            g["__dropped"].to_pylist(),
            g["__bid"].to_pylist(),
        ):
            totals[key] = totals.get(key, 0) + int(w)
            # identical blocks share a bid and emit each (group, key)
            # row once apiece: a key's row count is the bid's block count
            rec = drops.setdefault(bid, [int(d), {}])
            rec[1][key] = rec[1].get(key, 0) + 1
        top = sorted(totals.items(), key=lambda kv: (-kv[1], str(kv[0])))[:k]
        rows = {group_col: [], "key": [], "count_min": [], "count_max": [],
                "rank": []}
        for rank, (key, cmin) in enumerate(top, 1):
            slack = sum(
                d * max(seen.values())
                for d, seen in drops.values()
                if key not in seen
            )
            rows[group_col].append(gval)
            rows["key"].append(key)
            rows["count_min"].append(cmin)
            rows["count_max"].append(cmin + slack)
            rows["rank"].append(rank)
        return pa.table(
            {
                group_col: pa.array(rows[group_col], g[group_col].type),
                "key": pa.array(rows["key"], g[key_col].type),
                "count_min": pa.array(rows["count_min"], pa.int64()),
                "count_max": pa.array(rows["count_max"], pa.int64()),
                "rank": pa.array(rows["rank"], pa.int64()),
            }
        )

    return grouped_apply(parts, [group_col], fold)
