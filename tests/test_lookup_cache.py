"""The point-lookup cache (``snapshot.LOOKUP_CACHE``): footers and decoded
column chunks kept in the driver, keyed on each state file's identity.

Every test drives one engine, so a second lookup is served from what the
first one decoded, and checks its answers against ``final_table`` (a scan,
which never uses the cache) after each step that can change a file under
a lookup: an in-place ``compact()`` of ``part-{b}-v{wm}``, a new commit,
``as_of`` reads inside ``retain_batches``, a delta chain before and after
its fold, a same-name rewrite between a lookup's ``stat`` and its read,
and a budget small enough to evict on every lookup. Also: the cache
counters in ``metrics()["last_lookup"]``, and that Ray read, merge and
rewrite tasks leave the cache of their worker empty."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.hashing import bucket_of
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.stages.merge import part_name, write_atomic
from glue_etl_pipeline_ray.state import snapshot
from glue_etl_pipeline_ray.state.snapshot import LOOKUP_CACHE, SnapshotReader

NB = 8
SPEC = repo_file_spec(num_buckets=NB)
KC = list(SPEC.key_cols)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    """A 4-batch stream with deletes and an evolution from batch 2, and
    every key it names plus a few that never occur."""
    root = tmp_path_factory.mktemp("lookup_cache")
    ev = generate_change_events(
        str(root / "gen"), n_events=1500, n_repos=10, n_paths=30,
        n_batches=4, seed=23, delete_frac=0.2, dirty_frac=0.0,
        evolve_from_batch=2,
    )["events_dir"]
    keys = set()
    for f in glob.glob(os.path.join(ev, "*.parquet")):
        t = pq.read_table(f, columns=KC)
        keys |= set(zip(*(t[k].to_pylist() for k in KC)))
    keys = sorted(k for k in keys if None not in k)
    return ev, keys + [(f"ghost/{i}", "none.py") for i in range(5)]


@pytest.fixture(autouse=True)
def cold_cache():
    LOOKUP_CACHE.clear()
    yield
    LOOKUP_CACHE.clear()


def _want(eng, keys, as_of=None, live=None):
    """The live rows of ``keys`` as a scan reads them (from ``live``, a
    ``final_table`` already read)."""
    t = eng.final_table(as_of) if live is None else live
    ks = pa.array(["\x1f".join(k) for k in keys])
    joined = pc.binary_join_element_wise(*(t[k] for k in KC), "\x1f")
    return t.filter(pc.is_in(joined, value_set=ks))


def _bucket(key):
    return int(bucket_of(NB, pa.array([key[0]]), pa.array([key[1]]))[0])


def _cached_idents(path):
    """The identities of ``path`` the cache holds entries of (footer keys
    are ``(path, ident)``, chunk keys ``((path, ident), group, column)``)."""
    out = set()
    for k in LOOKUP_CACHE._d:
        fk = k if isinstance(k[0], str) else k[0]
        if fk[0] == path:
            out.add(fk[1])
    return out


def _check(eng, keys, as_of=None):
    """All keys at once and a sample of single keys equal the scan, cold
    then warm."""
    live = eng.final_table(as_of)
    want = _want(eng, keys, as_of, live)
    for _ in range(2):
        assert eng.lookup(keys, as_of=as_of).equals(want)
        for k in keys[:: max(1, len(keys) // 25)]:
            got = eng.lookup([k], as_of=as_of)
            assert got.equals(_want(eng, [k], as_of, live)), (k, as_of)


def test_compact_in_place_between_two_lookups(ray_session, tmp_path, stream):
    """``compact()`` rewrites ``part-{b}-v{wm}`` under the same name: the
    lookup after it reads the new file (nothing of it is cached yet) and
    returns what a scan returns."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"))
    eng.replay(events)
    hit = next(k for k in keys if eng.lookup([k]).num_rows)
    b = _bucket(hit)
    path = os.path.join(eng.lake_dir, part_name(b, eng.ckpt.watermark))
    ino = os.stat(path).st_ino
    before = eng.lookup([hit])
    assert eng._last_lookup_stats["bytes_from_cache"] == (
        eng._last_lookup_stats["bytes_decoded"]
    )
    assert eng.compact()["dropped_tombstones"] > 0
    assert eng.ckpt.tip_pointers([b])[b][0] == eng.ckpt.watermark
    assert os.stat(path).st_ino != ino  # same name, new file
    assert eng.lookup([hit]).equals(before)
    st = eng._last_lookup_stats
    assert st["bytes_from_cache"] == 0 and st["bytes_decoded"] > 0
    _check(eng, keys)


def test_same_name_rewrite_returns_the_new_bytes(ray_session, tmp_path, stream):
    """A state file replaced under its name by different rows: the next
    lookup returns the new rows, never the cached ones."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"))
    eng.replay(events)
    hit = next(k for k in keys if eng.lookup([k]).num_rows)
    b = _bucket(hit)
    path = os.path.join(eng.lake_dir, part_name(b, eng.ckpt.tip_pointers([b])[b][0]))
    t = pq.read_table(path)
    new = pc.if_else(
        pc.equal(t["path"], hit[1]), pa.scalar("rewritten"), t["content"]
    )
    write_atomic(path, t.set_column(t.schema.get_field_index("content"), "content", new))
    assert eng.lookup([hit])["content"].to_pylist() == ["rewritten"]
    assert eng._last_lookup_stats["bytes_from_cache"] == 0


def test_file_replaced_between_stat_and_read(ray_session, tmp_path, stream,
                                             monkeypatch):
    """A file replaced after the lookup's ``stat`` but before its read
    (another process compacting) is stat-ed again and read whole: the
    answer is the new file's, and the cache holds only its identity."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"))
    eng.replay(events)
    hit = next(k for k in keys if eng.lookup([k]).num_rows)
    b = _bucket(hit)
    path = os.path.join(eng.lake_dir, part_name(b, eng.ckpt.tip_pointers([b])[b][0]))
    LOOKUP_CACHE.clear()
    real_count = SnapshotReader._count

    def count_then_replace(self, units):
        out = real_count(self, units)
        t = pq.read_table(path)
        new = pc.if_else(pc.equal(t["path"], hit[1]), pa.scalar("raced"), t["content"])
        write_atomic(path, t.set_column(t.schema.get_field_index("content"), "content", new))
        return out

    monkeypatch.setattr(SnapshotReader, "_count", count_then_replace)
    assert eng.lookup([hit])["content"].to_pylist() == ["raced"]
    monkeypatch.undo()
    st = os.stat(path)
    assert _cached_idents(path) == {(st.st_ino, st.st_mtime_ns, st.st_size)}
    assert eng.lookup([hit])["content"].to_pylist() == ["raced"]
    st = eng._last_lookup_stats
    assert st["bytes_from_cache"] == st["bytes_decoded"] > 0


def test_new_commit_between_two_lookups(ray_session, tmp_path, stream):
    """A commit moves the tip to new files: the same lookups before and
    after it each equal the scan of their snapshot."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"), retain_batches=8)
    for n in range(1, 5):
        eng.replay(events, max_batches=1)
        assert eng.ckpt.watermark == n - 1
        _check(eng, keys)


@pytest.mark.parametrize("mode", ["rewrite", "delta"])
def test_as_of_inside_the_retention_window(ray_session, tmp_path, stream, mode):
    """``as_of`` lookups at every retained batch, interleaved with tip
    lookups, equal the scans of their snapshots."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"), state_mode=mode,
                       retain_batches=3, fold_threshold=1000)
    eng.replay(events)
    wm = eng.ckpt.watermark
    for as_of in [wm, 0, wm - 1, 1, None, wm - 2]:
        _check(eng, keys, as_of)


def test_delta_chain_before_and_after_its_fold(ray_session, tmp_path, stream):
    """A delta bucket read as a base plus a chain of group files, then
    after ``compact()`` folded it into one new base: both probes equal
    the scan, and the pre-fold snapshot still reads right by ``as_of``."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"), state_mode="delta",
                       retain_batches=3, fold_threshold=1000)
    eng.replay(events)
    wm = eng.ckpt.watermark
    assert any(chain for _, chain in eng.ckpt.tip_pointers().values())
    _check(eng, keys)
    eng.compact()
    assert not any(chain for _, chain in eng.ckpt.tip_pointers().values())
    _check(eng, keys)
    _check(eng, keys, as_of=wm)


def test_budget_of_a_few_kb_evicts_and_stays_correct(ray_session, tmp_path,
                                                     stream, monkeypatch):
    """With a 4 KB budget most chunks evict as soon as they are cached:
    every key of a bucket still returns what a scan returns, and the
    bytes held never pass the budget."""
    events, keys = stream
    monkeypatch.setattr(snapshot, "LOOKUP_CACHE_BYTES", 4096)
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"), state_mode="delta",
                       fold_threshold=1000)
    eng.replay(events)
    b = _bucket(keys[0])
    mine = [k for k in keys if _bucket(k) == b]
    assert len(mine) > 10
    want = _want(eng, mine)
    ev0 = LOOKUP_CACHE.evictions
    for _ in range(2):
        got = [eng.lookup([k]) for k in mine]
        assert pa.concat_tables(got).sort_by([(k, "ascending") for k in KC]).equals(want)
        assert eng.lookup(mine).equals(want)
        assert LOOKUP_CACHE.held <= 4096
    assert LOOKUP_CACHE.evictions > ev0


def test_last_lookup_metrics_cold_then_warm(ray_session, tmp_path, stream):
    """``metrics()["last_lookup"]`` is the last lookup's stats with the
    process-wide cache counters: a cold lookup misses and decodes from
    disk, the same lookup again hits and reads every chunk from memory."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"))
    assert eng.metrics()["last_lookup"] is None
    eng.replay(events)
    hit = next(k for k in keys if _want(eng, [k]).num_rows)
    LOOKUP_CACHE.clear()
    c0 = LOOKUP_CACHE.counters()
    eng.lookup([hit])
    cold = eng.metrics()["last_lookup"]
    assert cold["payload_files"] == 1 and cold["bytes_decoded"] > 0
    assert cold["bytes_from_cache"] == 0
    c1 = cold["cache"]
    assert c1["misses"] > c0["misses"] and c1["hits"] == c0["hits"]
    assert c1["entries"] > 0 and 0 < c1["bytes_held"] <= snapshot.LOOKUP_CACHE_BYTES
    eng.lookup([hit])
    warm = eng.metrics()["last_lookup"]
    assert warm["bytes_decoded"] == warm["bytes_from_cache"] == cold["bytes_decoded"]
    assert warm["payload_files"] == 1
    c2 = warm["cache"]
    assert c2["hits"] > c1["hits"] and c2["misses"] == c1["misses"]
    assert c2["bytes_held"] == c1["bytes_held"] and c2["evictions"] == c1["evictions"]


def test_ray_reads_and_merges_leave_the_worker_cache_empty(ray_session, tmp_path,
                                                           stream):
    """Scans, the change feed, the rewrite merge, folds and ``compact``
    run in Ray workers and read straight from disk: a worker that ran
    them, and then reads a bucket's state itself, has an empty cache."""
    events, keys = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "lake"), retain_batches=3)
    eng.replay(events)
    eng.final_dataset().materialize()
    eng.scan([("lang", "==", "py")]).materialize()
    eng.changes_dataset(1, 3).materialize()
    eng.compact()
    eng.lookup(keys)  # fills the driver's cache only

    def probe_worker(src, spec, evolved):
        from glue_etl_pipeline_ray.state.snapshot import LOOKUP_CACHE, read_state

        read_state(spec, evolved, src)
        return None, {"rows": 0, "cache": LOOKUP_CACHE.counters()}

    r = eng._reader()
    srcs = list(r.resolve().values())
    _, metas = r.map_buckets(probe_worker, srcs, eng.spec, eng.ckpt.evolved)
    for ms in r.gather(metas):
        for m in ms:
            assert m["cache"] == {"hits": 0, "misses": 0, "bytes_held": 0,
                                  "entries": 0, "evictions": 0}
    assert LOOKUP_CACHE.counters()["entries"] > 0
