"""Bucket assignment must be stable across processes/runs (resume reads
bucket files written by an earlier run) — Python's salted hash() would
break this."""

import subprocess
import sys

import numpy as np
import pyarrow as pa

from glue_etl_pipeline_ray.hashing import (
    bucket_of,
    canonical_bytes,
    key_hash_u64,
    table_sha256,
)

_PROBE = (
    "from glue_etl_pipeline_ray.hashing import key_hash_u64;"
    "import numpy as np;"
    "print(key_hash_u64(np.array(['a/b','c/d'],object), np.array(['x','y'],object)).tolist())"
)


def test_hash_stable_across_processes():
    local = key_hash_u64(
        np.array(["a/b", "c/d"], object), np.array(["x", "y"], object)
    ).tolist()
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True,
        cwd="/root/repo",
    )
    assert eval(out.stdout.strip()) == local


def test_bucket_range_and_determinism():
    repos = pa.array([f"r{i}" for i in range(1000)])
    paths = pa.array([f"p{i % 7}" for i in range(1000)])
    b1 = bucket_of(64, repos, paths)
    b2 = bucket_of(64, repos, paths)
    assert (b1 == b2).all()
    assert b1.min() >= 0 and b1.max() < 64
    # reasonable spread
    assert len(set(b1.tolist())) > 32


def test_canonical_bytes_sorting_and_nulls():
    t1 = pa.table({"k": ["b", "a"], "v": [None, "x"]})
    t2 = pa.table({"k": ["a", "b"], "v": ["x", None]})
    assert canonical_bytes(t1, ["k"]) == canonical_bytes(t2, ["k"])
    assert table_sha256(t1, ["k"]) == table_sha256(t2, ["k"])
    # null is distinguishable from the string "NULL" and ""
    ta = pa.table({"k": ["a"], "v": [None]})
    tb = pa.table({"k": ["a"], "v": ["NULL"]})
    tc = pa.table({"k": ["a"], "v": [""]})
    hs = {table_sha256(x, ["k"]) for x in (ta, tb, tc)}
    assert len(hs) == 3


def test_empty_table_hash():
    t = pa.table({"k": pa.array([], pa.string())})
    assert canonical_bytes(t, ["k"]) == b""


def test_guarded_last_per_key_clean_and_colliding():
    """lww survivor selection: the fast path picks max-seq per hash run;
    a fabricated hash collision between two real keys must sub-split."""
    import numpy as np

    from glue_etl_pipeline_ray.hashing import guarded_last_per_key

    t = pa.table(
        {"k": ["a", "a", "b", "c"], "seq": [1, 5, 3, 2], "v": [10, 11, 12, 13]}
    )
    seq = np.array([1, 5, 3, 2])

    # clean case: distinct hashes per key
    kh = np.array([7, 7, 8, 9], dtype=np.uint64)
    chosen = guarded_last_per_key(t, ["k"], kh, np.lexsort((seq, kh)))
    out = t.take(chosen)
    assert sorted(zip(out["k"].to_pylist(), out["v"].to_pylist())) == [
        ("a", 11), ("b", 12), ("c", 13)
    ]

    # collision: keys "a" and "b" share hash 7 — without the guard, "b"
    # (seq 3) would be conflated into "a"'s run and lose to seq 5
    kh2 = np.array([7, 7, 7, 9], dtype=np.uint64)
    chosen2 = guarded_last_per_key(t, ["k"], kh2, np.lexsort((seq, kh2)))
    out2 = t.take(chosen2)
    assert sorted(zip(out2["k"].to_pylist(), out2["v"].to_pylist())) == [
        ("a", 11), ("b", 12), ("c", 13)
    ]


def test_guarded_last_per_key_null_keys():
    import numpy as np

    from glue_etl_pipeline_ray.hashing import guarded_last_per_key

    t = pa.table(
        {"k": pa.array([None, "x", None], pa.string()), "seq": [1, 2, 3]}
    )
    seq = np.array([1, 2, 3])
    # null key and "x" fabricated into one hash run: must not conflate
    kh = np.array([5, 5, 5], dtype=np.uint64)
    chosen = guarded_last_per_key(t, ["k"], kh, np.lexsort((seq, kh)))
    out = t.take(chosen)
    assert sorted(out["seq"].to_pylist()) == [2, 3]


def test_streaming_sha_equals_canonical_bytes():
    """table_sha256 streams in slices with a large_string upcast; its
    byte stream must equal sha256(canonical_bytes(...)) exactly,
    including duplicate sort keys (stable ties) and nulls."""
    import hashlib

    import numpy as np

    rng = np.random.default_rng(7)
    n = 2500
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n)),
            "s": pa.array(
                [None if i % 11 == 0 else f"v{i % 97}" for i in range(n)],
                pa.string(),
            ),
            "f": pa.array(rng.random(n)),
            "b": pa.array((rng.random(n) < 0.5).tolist()),
        }
    )
    expect = hashlib.sha256(canonical_bytes(t, ["k"])).hexdigest()
    assert table_sha256(t, ["k"]) == expect
    # large_string input hashes identically to string input
    big = t.cast(
        pa.schema(
            [
                pa.field("k", pa.int64()),
                pa.field("s", pa.large_string()),
                pa.field("f", pa.float64()),
                pa.field("b", pa.bool_()),
            ]
        )
    )
    assert table_sha256(big, ["k"]) == expect
    assert table_sha256(t.slice(0, 0), ["k"]) == hashlib.sha256(
        b""
    ).hexdigest()


def test_key_hash_is_pandas_hash_array_bit_for_bit():
    """``key_hash_u64`` calls pandas' SipHash kernel and applies its
    finalizer itself; per column it must equal ``pd.util.hash_array(...,
    categorize=False)`` bit for bit, on ASCII, Unicode, empty strings,
    None and mixed-type values, from one row to 100k."""
    import pandas as pd

    from glue_etl_pipeline_ray.hashing import _hash_objects

    rng = np.random.default_rng(5)
    alphabet = list("abcxyz/._-0123456789") + ["é", "ß", "中", "文", "🙂", "\x00"]

    def strings(n, chars):
        lens = rng.integers(0, 24, n)
        return ["".join(rng.choice(chars, k)) for k in lens]

    mult = np.uint64(0x9E3779B97F4A7C15)
    for n in (1, 2, 7, 1000, 100_000):
        cases = {
            "ascii": strings(n, alphabet[:20]),
            "unicode": strings(n, alphabet),
            "empty": [""] * n,
            "mixed": [
                [None, 3, 2.5, b"raw", True, "s", np.int64(-7)][i % 7]
                for i in range(n)
            ],
        }
        for name, vals in cases.items():
            arr = np.array(vals, dtype=object)
            want = pd.util.hash_array(arr, categorize=False)
            got = _hash_objects(arr.copy())
            assert got.dtype == np.uint64 and np.array_equal(got, want), (name, n)
        a = np.array(cases["unicode"], dtype=object)
        b = np.array(cases["ascii"], dtype=object)
        with np.errstate(over="ignore"):
            want = (pd.util.hash_array(a, categorize=False) * mult) ^ (
                pd.util.hash_array(b, categorize=False)
            )
        assert np.array_equal(key_hash_u64(pa.array(cases["unicode"]), b), want), n
