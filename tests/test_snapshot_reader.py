"""The snapshot reader (state/snapshot.py) against the serial oracle.

Every read path — ``final_dataset``, ``scan(where=)``, ``changes_dataset``
and ``lookup`` — must return the prefix oracle's rows in both state
modes, at the tip and ``as_of``, with and without a projection. The
lake is built so that most tip files predate the schema evolution (the
batches after it are a handful of events), which exercises the
per-file column intersection and the skip of files that lack a
predicate column. Also covered: the pure group planner, an empty lake,
a resharded lake, the read counters and the change feed's skipping of
unchanged buckets."""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine, _where_mask
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.state.lineage import read_lineage
from glue_etl_pipeline_ray.state.snapshot import SnapshotReader, plan_groups
from glue_etl_pipeline_ray.stages.merge import CHANGE_TYPE_COL

KC = ["repo", "path"]
N_BATCHES = 4
TINY = 5  # events in each batch after the evolution


# ------------------------------------------------------------- planner
def _check_plan(sizes, n_cpus, budget):
    groups = plan_groups(sizes, n_cpus, budget)
    assert [i for g in groups for i in g] == list(range(len(sizes)))
    assert all(groups)
    assert len(groups) >= min(n_cpus, len(sizes))
    for g in groups:
        if any(sizes[i] > budget for i in g):
            assert len(g) == 1  # an oversize bucket reads alone
        if len(g) > 1:
            assert sum(sizes[i] for i in g) <= budget
    return groups


def test_plan_groups_properties():
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.randint(0, 40)
        budget = rng.randint(1, 100)
        sizes = [
            rng.choice([0, rng.randint(0, budget), rng.randint(budget, 5 * budget)])
            for _ in range(n)
        ]
        _check_plan(sizes, rng.randint(1, 12), budget)


def test_plan_groups_shapes():
    # a small lake on one CPU is one task; on four CPUs, four
    assert plan_groups([100] * 64, 1) == [list(range(64))]
    assert len(plan_groups([100] * 64, 4)) == 4
    # a large lake is split by the byte budget, never below it per group
    groups = _check_plan([10] * 64, 1, 40)
    assert len(groups) == 16
    # an oversize bucket in the middle gets its own group
    groups = _check_plan([1, 1, 500, 1, 1], 1, 100)
    assert [2] in groups
    assert plan_groups([], 8) == []
    # more CPUs than buckets: one bucket per group
    assert plan_groups([5, 5, 5], 16) == [[0], [1], [2]]


# ------------------------------------------------------------ fixtures
def _events(work) -> str:
    """Two full batches, then ``N_BATCHES - 2`` tiny ones carrying the
    evolved ``size_bytes`` column (so most buckets keep pre-evolution
    files at the tip)."""
    meta = generate_change_events(
        str(work / "gen"), n_events=4000, n_repos=12, n_paths=40,
        n_batches=N_BATCHES, evolve_from_batch=2, delete_frac=0.15,
        dirty_frac=0.02, seed=71,
    )
    ev = work / "events"
    os.makedirs(ev)
    for b in range(N_BATCHES):
        name = f"batch={b:05d}.parquet"
        t = pq.read_table(os.path.join(meta["events_dir"], name))
        if b >= 2:
            t = t.slice(0, TINY)
        pq.write_table(t, ev / name)
    return str(ev)


def _prefix_oracle(spec, events_dir, work, upto):
    d = work / f"prefix{upto}"
    os.makedirs(d, exist_ok=True)
    for b in range(upto + 1):
        name = f"batch={b:05d}.parquet"
        if not os.path.exists(d / name):
            os.symlink(os.path.join(events_dir, name), d / name)
    return replay_oracle(spec, str(d))["table"]


@pytest.fixture(scope="module")
def world(ray_session, tmp_path_factory):
    work = tmp_path_factory.mktemp("snapshot")
    ev = _events(work)
    spec = repo_file_spec(num_buckets=16)
    lakes = {}
    for mode in ("rewrite", "delta"):
        eng = ReplayEngine(
            spec, str(work / f"lake_{mode}"), state_mode=mode,
            gc_old_versions=False, fold_threshold=2,
        )
        eng.replay(ev)
        lakes[mode] = eng
    oracles = {b: _prefix_oracle(spec, ev, work, b) for b in range(N_BATCHES)}
    return {"work": work, "events": ev, "spec": spec, "lakes": lakes,
            "oracles": oracles}


def _rows(t: pa.Table) -> list:
    cols = sorted(t.column_names)
    return sorted(
        (tuple(r[c] for c in cols) for r in t.to_pylist()), key=repr
    ), cols


def _same(got: pa.Table, want: pa.Table):
    assert got.column_names == want.column_names
    assert _rows(got) == _rows(want)


def _ds_table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _oracle(world, as_of):
    return world["oracles"][N_BATCHES - 1 if as_of is None else as_of]


MODES = ["rewrite", "delta"]
AS_OF = [None, 1, 2]


# --------------------------------------------------- snapshot reads
def test_fixture_has_pre_evolution_tip_files(world):
    eng = world["lakes"]["rewrite"]
    names = [set(pq.read_schema(f).names) for f in eng._state_files()]
    assert any("size_bytes" not in n for n in names)
    assert any("size_bytes" in n for n in names)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("as_of", AS_OF)
def test_final_dataset_matches_oracle(world, mode, as_of):
    eng = world["lakes"][mode]
    want = _oracle(world, as_of)
    _same(_ds_table(eng.final_dataset(as_of=as_of)), want)
    _same(eng.final_table(as_of=as_of), want)
    cols = ["path", "lang"] + (["size_bytes"] if as_of != 1 else [])
    got = _ds_table(eng.final_dataset(as_of=as_of, columns=cols))
    _same(got, want.select([c for c in want.column_names if c in cols]))


WHERES = [
    [("lang", "==", "py")],
    [("lang", "in", ["go", "rs"]), ("path", "<", "src/dir5")],
    [("lang", "!=", "py")],
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("as_of", AS_OF)
@pytest.mark.parametrize("where", WHERES)
def test_scan_matches_oracle(world, mode, as_of, where):
    eng = world["lakes"][mode]
    want = _oracle(world, as_of)
    want = want.filter(_where_mask(want, where))
    assert want.num_rows > 0
    _same(_ds_table(eng.scan(where, as_of=as_of)), want)
    got = _ds_table(eng.scan(where, columns=["repo", "lang"], as_of=as_of))
    _same(got, want.select(["repo", "lang"]))


@pytest.mark.parametrize("mode", MODES)
def test_scan_on_evolved_column_skips_pre_evolution_files(world, mode):
    eng = world["lakes"][mode]
    want = _oracle(world, None)
    where = [("size_bytes", ">=", 0)]
    want = want.filter(_where_mask(want, where))
    assert 0 < want.num_rows <= 2 * TINY
    _same(_ds_table(eng.scan(where)), want)


def _brute_changes(old: pa.Table, new: pa.Table) -> dict:
    def rows(t):
        return {tuple(r[k] for k in KC): r for r in t.to_pylist()}

    o, n = rows(old), rows(new)
    out = {}
    for k, r in n.items():
        if k not in o:
            out[k] = ("insert", r)
        elif any(o[k].get(c) != v for c, v in r.items()):
            out[k] = ("update", r)
    for k, r in o.items():
        if k not in n:
            out[k] = ("delete", r)
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("window", [(-1, 3), (0, 2), (1, 3), (2, 3)])
def test_changes_dataset_matches_oracle_diff(world, mode, window):
    eng = world["lakes"][mode]
    a, b = window
    new = world["oracles"][b]
    old = new.schema.empty_table() if a < 0 else world["oracles"][a]
    want = _brute_changes(old, new)
    got = _ds_table(eng.changes_dataset(a, b))
    assert got.column_names == new.column_names + [CHANGE_TYPE_COL]
    got_map = {}
    for r in got.to_pylist():
        ct = r.pop(CHANGE_TYPE_COL)
        got_map[tuple(r[k] for k in KC)] = (ct, r)
    assert set(got_map) == set(want)
    for k, (ct, r) in want.items():
        assert got_map[k][0] == ct
        row = {c: r.get(c) for c in new.column_names}
        assert got_map[k][1] == row
    _same(eng.changes_table(a, b), got)


def _lookup_keys(world, as_of):
    live = _oracle(world, as_of)
    present = list(zip(live["repo"].to_pylist(), live["path"].to_pylist()))
    gone = [
        k for k in zip(
            world["oracles"][0]["repo"].to_pylist(),
            world["oracles"][0]["path"].to_pylist(),
        )
        if k not in set(present)
    ]
    absent = [(f"no-repo-{i}", f"x/{i}.py") for i in range(4)]
    return present[::37] + gone[:5] + absent


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("as_of", AS_OF)
def test_lookup_matches_oracle(world, mode, as_of):
    eng = world["lakes"][mode]
    live = _oracle(world, as_of)
    keys = _lookup_keys(world, as_of)
    by_key = {
        (r["repo"], r["path"]): r for r in live.to_pylist()
    }
    want = pa.Table.from_pylist(
        [by_key[k] for k in sorted(set(keys)) if k in by_key], schema=live.schema
    )
    got = eng.lookup(keys, as_of=as_of)
    assert got.equals(want)
    got = eng.lookup(keys, as_of=as_of, columns=["lang"])
    assert got.equals(want.select(["repo", "path", "lang"]))
    st = eng._last_lookup_stats
    assert st["tasks"] == 0  # lookups read in the driver
    assert st["rows"] == want.num_rows
    assert 0 < st["files"] and st["buckets_touched"] <= eng.spec.num_buckets


# ------------------------------------------- empty key list (a miss)
@pytest.mark.parametrize("mode", MODES)
def test_lookup_empty_keys_is_shaped_like_a_miss(world, mode):
    eng = world["lakes"][mode]
    miss = [("no-such-repo", "no/such/path")]
    with pytest.raises(ValueError, match="unknown columns"):
        eng.lookup([], columns=["nope"])
    for kw in ({}, {"columns": ["lang"]}, {"as_of": 1},
               {"as_of": 1, "columns": ["lang"]}):
        got, want = eng.lookup([], **kw), eng.lookup(miss, **kw)
        assert got.num_rows == want.num_rows == 0
        assert got.schema.equals(want.schema), kw
    # the as-of schema predates the evolution
    assert "size_bytes" not in eng.lookup([], as_of=1).column_names
    assert eng.lookup([], columns=["lang"]).column_names == KC + ["lang"]


@pytest.mark.parametrize("mode", MODES)
def test_lookup_empty_keys_applies_the_retention_gate(world, mode, tmp_path):
    eng = ReplayEngine(
        world["spec"], str(tmp_path / "lake"), state_mode=mode
    )
    eng.replay(world["events"])
    with pytest.raises((ValueError, NotImplementedError)):
        eng.lookup([("no-such-repo", "x")], as_of=0)
    with pytest.raises((ValueError, NotImplementedError)):
        eng.lookup([], as_of=0)


# ------------------------------------------------------ read counters
@pytest.mark.parametrize("mode", MODES)
def test_read_stats(world, mode):
    eng = world["lakes"][mode]
    n = eng.final_dataset().count()
    st = eng.metrics()["last_read"]
    assert st is eng._last_read_stats
    assert st["rows"] == n == _oracle(world, None).num_rows
    assert st["files"] == len(eng._state_files())
    assert st["bytes"] == sum(os.path.getsize(f) for f in eng._state_files())
    assert st["tasks"] >= 1
    eng.scan([("lang", "==", "py")]).count()
    assert eng._last_read_stats["rows"] < n


@pytest.mark.parametrize("mode", MODES)
def test_change_feed_reads_only_changed_buckets(ray_session, tmp_path, mode):
    """A window whose commit touched k of 64 buckets reads only those
    buckets' files and launches no task for the other 64 - k; restore
    over the same window returns the older snapshot."""
    meta = generate_change_events(
        str(tmp_path / "gen"), n_events=4000, n_repos=12, n_paths=60,
        n_batches=2, delete_frac=0.1, seed=73,
    )
    ev = tmp_path / "events"
    os.makedirs(ev)
    for b, name in enumerate(["batch=00000.parquet", "batch=00001.parquet"]):
        t = pq.read_table(os.path.join(meta["events_dir"], name))
        pq.write_table(t.slice(0, TINY) if b else t, ev / name)
    spec = repo_file_spec(num_buckets=64)
    eng = ReplayEngine(spec, str(tmp_path / "lake"), state_mode=mode,
                       gc_old_versions=False)
    eng.replay(str(ev))
    touched = {
        r["bucket"] for r in read_lineage(eng.lake_dir)
        if r.get("kind") == "bucket" and r["batch_id"] == 1
    }
    assert 0 < len(touched) <= TINY
    reader = SnapshotReader.of(eng)
    before, after = reader.resolve(0), reader.resolve(1)
    files = {
        f for b in touched for s in (before.get(b), after[b]) if s is not None
        for f in s.files()
    }
    feed = eng.changes_table(0, 1)
    st = eng._last_read_stats
    assert st["files"] == len(files) < len(eng._state_files())
    assert st["rows"] == feed.num_rows > 0
    assert st["tasks"] >= 1
    old = replay_oracle(spec, str(_only(ev, tmp_path, 0)))["table"]
    new = replay_oracle(spec, str(ev))["table"]
    assert set(zip(feed["repo"].to_pylist(), feed["path"].to_pylist())) == set(
        _brute_changes(old, new)
    )
    # restore diffs the same changed buckets only, and undoes the commit
    eng.restore(0)
    _same(eng.final_table(), old)


def _only(ev, tmp_path, upto):
    d = tmp_path / f"only{upto}"
    os.makedirs(d, exist_ok=True)
    for b in range(upto + 1):
        name = f"batch={b:05d}.parquet"
        os.symlink(os.path.join(ev, name), d / name)
    return d


# -------------------------------------------------- empty / resharded
@pytest.mark.parametrize("mode", MODES)
def test_empty_lake(world, mode, tmp_path):
    eng = ReplayEngine(world["spec"], str(tmp_path / "empty"), state_mode=mode)
    schema = world["spec"].canonical_schema(())
    assert _ds_table(eng.final_dataset()).schema.equals(schema)
    assert eng.final_dataset().count() == 0
    assert eng.final_table().equals(schema.empty_table())
    assert eng.scan([("lang", "==", "py")]).count() == 0
    assert eng.lookup([("r", "p")]).num_rows == 0
    assert eng._last_read_stats == {"files": 0, "bytes": 0, "rows": 0, "tasks": 0}


@pytest.mark.parametrize("mode", MODES)
def test_resharded_lake(world, mode, tmp_path):
    spec, ev = world["spec"], world["events"]
    eng = ReplayEngine(spec, str(tmp_path / "lake"), state_mode=mode,
                       gc_old_versions=False, fold_threshold=2)
    eng.replay(ev, max_batches=2)
    eng2 = eng.reshard(str(tmp_path / "lake2"), factor=2)
    eng2.replay(ev)
    assert eng2.ckpt.watermark == N_BATCHES - 1
    want = _oracle(world, None)
    _same(_ds_table(eng2.final_dataset()), want)
    _same(_ds_table(eng2.final_dataset(as_of=1)), world["oracles"][1])
    where = [("lang", "==", "py")]
    _same(_ds_table(eng2.scan(where)), want.filter(_where_mask(want, where)))
    keys = _lookup_keys(world, None)
    assert eng2.lookup(keys).equals(world["lakes"][mode].lookup(keys))
    feed = eng2.changes_table(1, N_BATCHES - 1)
    assert set(zip(feed["repo"].to_pylist(), feed["path"].to_pylist())) == set(
        _brute_changes(world["oracles"][1], want)
    )
    with pytest.raises(ValueError, match="reshard base"):
        eng2.final_dataset(as_of=0)
