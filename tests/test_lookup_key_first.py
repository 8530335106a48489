"""Key-first point lookups (``SnapshotReader.probe``) against the live
table, in both state layouts.

The probe reads only key columns plus ``__seq``/``__deleted`` first and
decodes payload columns only from files holding a live winner, so every
way a key's winner can move between files is checked against
``final_table(as_of)``: a tombstone in a chain over a live base row, a
re-insert after a delete, a base file written before a schema evolution,
projections, duplicate keys and several keys in one bucket, ``as_of``
inside the ``retain_batches`` window, multi-row-group base files and a
``__seq`` tie between a base and a chain file. Also: the lookup cost
counters, and the Arrow thread-pool pin of the snapshot read tasks."""

import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from glue_etl_pipeline_ray.hashing import bucket_of
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.stages.merge import (
    events_to_state,
    part_name,
    write_atomic,
    write_delta_group,
)
from glue_etl_pipeline_ray.state.snapshot import (
    Source,
    SnapshotReader,
    diff_bucket,
    map_group,
    read_buckets,
    read_live,
)

NB = 8
KC = ["repo", "path"]
MODES = ["rewrite", "delta"]


def _key(i):
    return (f"org{i % 3}/repo{i % 5}", f"src/f{i}.py")


def _bucket(key):
    return int(bucket_of(NB, pa.array([key[0]]), pa.array([key[1]]))[0])


def _batch(ev_dir, bid, rows, evolved=False):
    """``rows``: (op, key index, seq) -> one event file, batch ``bid``."""
    cols = {c: [] for c in ("seq", "batch_id", "op", "repo", "path", "commit",
                            "lang", "content", "event_id", "ts")}
    if evolved:
        cols["size_bytes"] = []
    for op, i, seq in rows:
        repo, path = _key(i)
        live = op != "DELETE"
        cols["seq"].append(seq)
        cols["batch_id"].append(bid)
        cols["op"].append(op)
        cols["repo"].append(repo)
        cols["path"].append(path)
        cols["commit"].append(hashlib.sha1(f"{seq}".encode()).hexdigest())
        cols["lang"].append("py" if live else None)
        cols["content"].append(f"key {i} at seq {seq}" if live else None)
        cols["event_id"].append(f"ev-{seq}")
        cols["ts"].append(1_700_000_000_000 + seq)
        if evolved:
            cols["size_bytes"].append(seq * 10 if live else None)
    types = {"seq": pa.int64(), "batch_id": pa.int64(), "ts": pa.int64(),
             "size_bytes": pa.int64()}
    t = pa.table({c: pa.array(v, types.get(c, pa.string())) for c, v in cols.items()})
    pq.write_table(t, os.path.join(ev_dir, f"batch={bid:05d}.parquet"))


@pytest.fixture(scope="module")
def keys():
    """30 keys, and one bucket that no batch after the first touches (its
    tip base predates the schema evolution in both layouts)."""
    ks = list(range(30))
    cold = _bucket(_key(0))
    hot = [i for i in ks if _bucket(_key(i)) != cold]
    return {"all": ks, "cold": cold, "hot": hot}


@pytest.fixture(scope="module", params=MODES)
def lake(request, keys, tmp_path_factory):
    """Batch 0 inserts every key, then (delta) a compaction folds the
    chains into bases. Batch 1 deletes and updates hot keys and adds the
    evolved ``size_bytes`` column; batch 2 re-inserts a deleted key,
    updates another and deletes a third."""
    mode = request.param
    work = tmp_path_factory.mktemp(f"keyfirst_{mode}")
    ev = str(work / "events")
    os.makedirs(ev)
    hot = keys["hot"]
    deleted, reinserted, updated, late_deleted = hot[0], hot[1], hot[2:5], hot[5]
    _batch(ev, 0, [("INSERT", i, 100 + i) for i in keys["all"]])
    eng = ReplayEngine(
        repo_file_spec(num_buckets=NB), str(work / "lake"), state_mode=mode,
        retain_batches=4, fold_threshold=100,
    )
    eng.replay(ev)
    if mode == "delta":
        eng.compact()
    _batch(ev, 1, [("DELETE", deleted, 200), ("DELETE", reinserted, 201)]
           + [("UPDATE", i, 210 + i) for i in updated], evolved=True)
    _batch(ev, 2, [("INSERT", reinserted, 300), ("UPDATE", updated[0], 301),
                   ("DELETE", late_deleted, 302)], evolved=True)
    eng.replay(ev)
    return {"eng": eng, "mode": mode, "deleted": deleted,
            "reinserted": reinserted, "late_deleted": late_deleted}


def _want(eng, keys, as_of=None, columns=None):
    live = eng.final_table(as_of=as_of)
    want = {tuple(k) for k in keys}
    rows = [r for r in live.to_pylist() if (r["repo"], r["path"]) in want]
    t = pa.Table.from_pylist(rows, schema=live.schema)
    if columns is not None:
        t = t.select([c for c in live.column_names if c in set(columns) | set(KC)])
    return t


def _lookup_keys(keys):
    ks = [_key(i) for i in keys["all"]]
    # duplicates, absent keys and several keys of one bucket in one call
    return ks + ks[:4] + [("org9/none", "nope.py"), ("org0/repo0", "src/f999.py")]


def test_lake_shape(lake, keys):
    """The fixture builds what the other tests rely on: chains over
    bases in the delta layout, and a cold bucket whose tip base has no
    ``size_bytes`` column."""
    eng = lake["eng"]
    ptrs = eng.ckpt.tip_pointers()
    base, chain = ptrs[keys["cold"]]
    assert base is not None and not chain
    names = pq.read_schema(os.path.join(eng.lake_dir, part_name(keys["cold"], base))).names
    assert "size_bytes" not in names
    assert "size_bytes" in eng.final_table().column_names
    if lake["mode"] == "delta":
        assert any(base is not None and chain for base, chain in ptrs.values())


@pytest.mark.parametrize("as_of", [None, 0, 1, 2])
@pytest.mark.parametrize("columns", [None, ["lang"], ["size_bytes"], ["content", "size_bytes"], KC])
def test_lookup_matches_final_table(lake, keys, as_of, columns):
    eng = lake["eng"]
    ks = _lookup_keys(keys)
    if as_of == 0 and columns is not None and "size_bytes" in columns:
        with pytest.raises(ValueError, match="unknown columns"):
            eng.lookup(ks, as_of=as_of, columns=columns)
        return
    got = eng.lookup(ks, as_of=as_of, columns=columns)
    assert got.num_rows > 0
    assert got.equals(_want(eng, ks, as_of, columns))


def test_winners_move_between_files(lake):
    """Tombstone over a live base row, re-insert after a delete, and a
    delete in the newest batch, each at the tip and as of earlier
    batches."""
    eng = lake["eng"]
    d, r, late = _key(lake["deleted"]), _key(lake["reinserted"]), _key(lake["late_deleted"])
    assert eng.lookup([d]).num_rows == 0
    assert eng.lookup([d], as_of=0).num_rows == 1
    assert eng.lookup([r], as_of=1).num_rows == 0
    got = eng.lookup([r])
    assert got["content"].to_pylist() == [f"key {lake['reinserted']} at seq 300"]
    assert got["size_bytes"].to_pylist() == [3000]
    assert eng.lookup([late]).num_rows == 0
    assert eng.lookup([late], as_of=1).num_rows == 1


def test_lookup_with_filters_matches(lake, keys):
    eng = lake["eng"]
    ks = _lookup_keys(keys)
    want = eng.lookup(ks, use_filters=False)
    eng.build_lookup_filters()
    try:
        assert eng.lookup(ks).equals(want)
        absent = [(f"ghost{i}", "x.py") for i in range(8)]
        assert eng.lookup(absent).num_rows == 0
        assert eng._last_lookup_stats["buckets_skipped"] > 0
    finally:
        shutil.rmtree(os.path.join(eng.lake_dir, "_filters"))


def test_miss_in_single_file_bucket_decodes_no_payload(lake, keys):
    eng = lake["eng"]
    cold = keys["cold"]
    miss = next(
        (f"org9/none{i}", "x.py") for i in range(10_000)
        if _bucket((f"org9/none{i}", "x.py")) == cold
    )
    assert eng.lookup([miss]).num_rows == 0
    st = eng._last_lookup_stats
    assert st["files"] == 1 and st["buckets_touched"] == 1
    assert st["payload_files"] == 0
    miss_bytes = st["bytes_decoded"]
    assert 0 < miss_bytes < st["bytes"]
    hit = next(_key(i) for i in keys["all"] if _bucket(_key(i)) == cold)
    assert eng.lookup([hit]).num_rows == 1
    st = eng._last_lookup_stats
    assert st["payload_files"] == 1
    assert miss_bytes < st["bytes_decoded"] < st["bytes"]
    # a key-only projection decodes no payload either
    assert eng.lookup([hit], columns=KC).num_rows == 1
    assert eng._last_lookup_stats["payload_files"] == 0


def test_multi_row_group_base(lake, keys, tmp_path):
    """After ``optimize_sort`` with tiny row groups, a hit decodes only
    the row groups holding winners and still returns the live rows."""
    eng = lake["eng"].clone(str(tmp_path / "sorted"))
    eng.optimize_sort("path", row_group_rows=2)
    ks = _lookup_keys(keys)
    assert eng.lookup(ks).equals(_want(eng, ks))
    live = eng.lookup(ks)
    by_bucket = {}
    for k in zip(live["repo"].to_pylist(), live["path"].to_pylist()):
        by_bucket.setdefault(_bucket(k), []).append(k)
    hit = max(by_bucket.values(), key=len)[0]  # the fullest bucket's first key
    b = _bucket(hit)
    base, _ = eng.ckpt.tip_pointers([b])[b]
    md = pq.ParquetFile(os.path.join(eng.lake_dir, part_name(b, base))).metadata
    assert md.num_row_groups > 1
    every_chunk = sum(
        md.row_group(g).column(i).total_compressed_size
        for g in range(md.num_row_groups) for i in range(md.num_columns)
    )
    assert eng.lookup([hit]).num_rows == 1
    st = eng._last_lookup_stats
    assert st["payload_files"] == 1 and st["bytes_decoded"] < every_chunk


def test_seq_tie_goes_to_the_later_file(tmp_path):
    """A key with equal ``__seq`` in a base and a chain file: the fold
    keeps the chain's row, and so must the probe."""
    spec = repo_file_spec(num_buckets=1)
    lake = str(tmp_path)

    def state(content):
        ev = pa.table({
            "repo": ["r"], "path": ["p"], "op": ["UPDATE"], "seq": pa.array([7], pa.int64()),
            "commit": ["c"], "lang": ["py"], "content": [content],
        })
        return events_to_state(spec, (), ev)[0]

    write_atomic(os.path.join(lake, part_name(0, 0)), state("base"))
    write_delta_group(spec, (), lake, 1, 0, state("chain"), [0], [0], [1])
    src = Source(lake, 0, 0, ((1, 0),))
    cols = spec.canonical_cols(())
    r = SnapshotReader(spec, lake, None, True, None)
    parts, cost = r.probe({0: src}, {0: [("r", "p")]}, (), cols)
    assert parts[0]["content"].to_pylist() == ["chain"]
    assert parts[0].equals(read_live(spec, (), src, cols))
    assert cost["payload_files"] == 1


def test_read_live_matches_probe_over_evolved_chain(tmp_path):
    """A delta bucket whose base predates the evolved ``size_bytes``
    column, under a 3-deep chain: for every projection, with and without
    a predicate on the evolved column, ``read_live`` returns exactly the
    live rows ``probe`` finds for every key of the bucket, and the lake's
    sha is the oracle's."""
    from glue_etl_pipeline_ray.oracle import replay_oracle
    from glue_etl_pipeline_ray.state.snapshot import where_mask

    ev = str(tmp_path / "events")
    os.makedirs(ev)
    b = _bucket(_key(0))
    ks = [i for i in range(60) if _bucket(_key(i)) == b]
    assert len(ks) > 3
    spec = repo_file_spec(num_buckets=NB)
    _batch(ev, 0, [("INSERT", i, 100 + i) for i in range(60)])
    eng = ReplayEngine(spec, str(tmp_path / "lake"), state_mode="delta",
                       fold_threshold=100)
    eng.replay(ev)
    eng.compact()
    # updates, then a delete and an update, then a re-insert and a delete
    _batch(ev, 1, [("UPDATE", i, 200 + i) for i in ks[:3]], evolved=True)
    _batch(ev, 2, [("DELETE", ks[0], 300), ("UPDATE", ks[1], 301)], evolved=True)
    _batch(ev, 3, [("INSERT", ks[0], 400), ("DELETE", ks[2], 401)], evolved=True)
    eng.replay(ev)
    assert eng.final_sha256() == replay_oracle(spec, ev)["sha256"]

    r = SnapshotReader.of(eng)
    src = r.resolve()[b]
    assert src.base is not None and len(src.chain) == 3
    assert "size_bytes" not in pq.read_schema(src.files()[0]).names
    evolved = eng.ckpt.evolved
    keys = {b: [_key(i) for i in range(60)]}
    where = [("size_bytes", ">=", 3000)]
    by_key = [(k, "ascending") for k in KC]
    for columns in (None, ["lang"], ["size_bytes"], ["content", "size_bytes"], KC):
        cols = r.columns(evolved, columns, keep=KC)
        wide = r.columns(evolved, columns, keep=KC + ["size_bytes"])
        parts, _ = r.probe({b: src}, keys, evolved, wide)
        probed = pa.concat_tables(parts).sort_by(by_key)
        assert probed.num_rows == len(ks) - 1
        live = read_live(spec, evolved, src, cols).sort_by(by_key)
        assert live.equals(probed.select(cols))
        hits = probed.filter(where_mask(probed, where)).select(cols)
        assert 0 < hits.num_rows < probed.num_rows
        assert read_live(spec, evolved, src, cols, where).sort_by(by_key).equals(hits)


@pytest.mark.parametrize("mode", MODES)
def test_in_with_none_matches_no_null(mode, tmp_path):
    """Null never matches any op, ``in`` with ``None`` in its value set
    included, whether a bucket is one file (that predates the evolved
    column, or holds nulls in it) or a chain: ``scan`` returns exactly
    the rows of ``final_dataset`` whose value is in the non-null part of
    the set."""
    import pyarrow.compute as pc
    import ray

    ev = str(tmp_path / "events")
    os.makedirs(ev)
    _batch(ev, 0, [("INSERT", i, 100 + i) for i in range(30)])
    eng = ReplayEngine(repo_file_spec(num_buckets=NB), str(tmp_path / "lake"),
                       state_mode=mode, fold_threshold=100)
    eng.replay(ev)
    eng.compact()
    # key 0's bucket: one file with a null size_bytes column (rewrite)
    # or a pre-evolution base under a one-entry chain (delta); the other
    # buckets are one file written before the evolution
    _batch(ev, 1, [("UPDATE", 0, 200)], evolved=True)
    eng.replay(ev)
    src = SnapshotReader.of(eng).resolve()[_bucket(_key(0))]
    assert len(src.chain) == (mode == "delta")
    live = pa.concat_tables(ray.get(eng.final_dataset().to_arrow_refs()))
    assert pc.sum(pc.is_null(live["size_bytes"])).as_py() == 29
    for vals in ([None, 2000], [None], [2000, 7]):
        parts = list(eng.scan([("size_bytes", "in", vals)])
                     .iter_batches(batch_format="pyarrow"))
        got = sum(t.num_rows for t in parts)
        hits = [v for v in vals if v is not None]
        want = live.filter(
            pc.is_in(live["size_bytes"], value_set=pa.array(hits, pa.int64()),
                     skip_nulls=True)
        ).num_rows
        assert got == want == (1 if hits else 0), vals


@pytest.fixture
def wide_arrow_pools():
    """Widen Arrow's pools as a fresh process on a many-core host has
    them; restore afterwards."""
    old = pa.cpu_count(), pa.io_thread_count()
    pa.set_cpu_count(3)
    pa.set_io_thread_count(5)
    yield
    pa.set_cpu_count(old[0])
    pa.set_io_thread_count(old[1])


@pytest.mark.parametrize("task", ["read_buckets", "diff_bucket", "map_group"])
def test_read_tasks_pin_arrow_pools(lake, task, wide_arrow_pools):
    """Every snapshot read task pins Arrow to one core at entry, so a
    read-only process that never ran an ingest task still gets one task
    = one core."""
    eng = lake["eng"]
    src = next(iter(SnapshotReader.of(eng).resolve().values()))
    evolved = eng.ckpt.evolved
    cols = eng.spec.canonical_cols(evolved)
    if task == "read_buckets":
        read_buckets._function([src], eng.spec, evolved, cols, [])
    elif task == "diff_bucket":
        diff_bucket._function([(None, src)], eng.spec, evolved, False)
    else:
        map_group._function(lambda u: (None, {}), [src])
    assert (pa.cpu_count(), pa.io_thread_count()) == (1, 2)


@pytest.mark.parametrize("mode", MODES)
def test_lookup_in_bucket_compacted_to_empty(mode, tmp_path):
    """Deleting every key of a bucket and compacting leaves a base file
    with no rows; a lookup there reads it and returns nothing."""
    ev = str(tmp_path / "events")
    os.makedirs(ev)
    gone = _bucket(_key(0))
    ks = [i for i in range(30) if _bucket(_key(i)) == gone]
    _batch(ev, 0, [("INSERT", i, 100 + i) for i in range(30)])
    _batch(ev, 1, [("DELETE", i, 200 + i) for i in ks])
    eng = ReplayEngine(
        repo_file_spec(num_buckets=NB), str(tmp_path / "lake"), state_mode=mode,
    )
    eng.replay(ev)
    eng.compact()
    base, chain = eng.ckpt.tip_pointers([gone])[gone]
    path = os.path.join(eng.lake_dir, part_name(gone, base))
    assert not chain and pq.ParquetFile(path).metadata.num_rows == 0
    probe = [_key(i) for i in ks] + [_key(1), _key(2)]
    assert eng.lookup(probe).equals(_want(eng, probe))
