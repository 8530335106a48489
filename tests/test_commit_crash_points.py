"""Crash points of the commit tails: a crash at any driver-side file step
of a commit ends, after a resume and ``gc_orphans``, at the oracle.

A commit's driver steps are its ``os.replace`` calls (the lineage file,
then the manifest) and its ``os.remove`` calls (the files the manifest
write released). The test wraps both in the driver process while a
commit runs, learns the steps from a crash-free run, then raises before
each step in turn: every non-unlink step, and the first and last unlink
of the run. Ray workers are other processes, so the state files they
write are not commit steps. After each crash a fresh engine resumes the
stream and runs ``gc_orphans``; the sha must equal the oracle, ``fsck``
must be clean with no orphans, and every ``as_of`` inside the retention
window must equal its prefix oracle. The same runs check that every
commit is one manifest write, under plain GC, ``retain_batches`` and
``gc_old_versions=False``.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager

SPEC = repo_file_spec(num_buckets=8)
N_BATCHES = 4
POLICIES = {
    "gc": dict(),
    "retain2": dict(retain_batches=2),
    "keep": dict(gc_old_versions=False),
}


class Crash(Exception):
    pass


def _stream(root, spec, n_events):
    """The events dir and the oracle sha of every prefix of it."""
    ev = generate_change_events(
        str(root / "gen"), n_events=n_events, n_repos=10, n_paths=30,
        n_batches=N_BATCHES, seed=17, delete_frac=0.2, dirty_frac=0.03,
        evolve_from_batch=2,
    )["events_dir"]
    prefix = {}
    for b in range(N_BATCHES):
        d = root / f"prefix{b}"
        d.mkdir()
        for i in range(b + 1):
            name = f"batch={i:05d}.parquet"
            shutil.copy(os.path.join(ev, name), d / name)
        prefix[b] = replay_oracle(spec, str(d))["sha256"]
    return ev, prefix


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    return _stream(tmp_path_factory.mktemp("crash_stream"), SPEC, 1200)


# small batches over many buckets: each batch leaves most buckets alone
SPARSE_SPEC = repo_file_spec(num_buckets=64)


@pytest.fixture(scope="module")
def sparse_stream(tmp_path_factory):
    return _stream(tmp_path_factory.mktemp("sparse_stream"), SPARSE_SPEC, 240)


class Commits:
    """Counts the manifest writes of every commit (outermost
    ``_finish_batch`` or ``_commit_rewrite`` call), records the driver's
    file steps inside the ``target`` one, and raises :class:`Crash`
    before the ``crash_at``-th (1-based) of those steps."""

    def __init__(self, monkeypatch, target=None, crash_at=None):
        self.target, self.crash_at = target, crash_at
        self.steps: list[tuple[str, str]] = []
        self.writes: list[int] = []
        self.scopes: list[str] = []
        for name in ("_finish_batch", "_commit_rewrite"):
            monkeypatch.setattr(
                ReplayEngine, name, self._scope(name, getattr(ReplayEngine, name))
            )
        real_write = CheckpointManager._write

        def write(ckpt, m):
            if self.scopes:
                self.writes[-1] += 1
            return real_write(ckpt, m)

        monkeypatch.setattr(CheckpointManager, "_write", write)
        monkeypatch.setattr(os, "replace", self._step("replace", os.replace, 1))
        monkeypatch.setattr(os, "remove", self._step("remove", os.remove, 0))

    def _scope(self, name, fn):
        def wrapped(eng, *a, **k):
            if not self.scopes:
                self.writes.append(0)
            self.scopes.append(name)
            try:
                return fn(eng, *a, **k)
            finally:
                self.scopes.pop()

        return wrapped

    def _step(self, kind, fn, arg):
        def wrapped(*a, **k):
            if self.target in self.scopes:
                self.steps.append((kind, os.path.basename(a[arg])))
                if len(self.steps) == self.crash_at:
                    raise Crash(f"crash before {self.steps[-1]}")
            return fn(*a, **k)

        return wrapped


def _crash_points(steps) -> list[int]:
    """1-based: every step but an unlink, and the first and last unlink
    of each run of unlinks."""
    out = []
    for i, (kind, _) in enumerate(steps):
        first = i == 0 or steps[i - 1][0] != "remove"
        last = i == len(steps) - 1 or steps[i + 1][0] != "remove"
        if kind != "remove" or first or last:
            out.append(i + 1)
    return out


# sink, engine kwargs, batches committed before the crashing step, the
# step (one batch replayed, or compact) and the commit crashed inside it
SCENARIOS = {
    "batch-rewrite": ("rewrite", {}, 3, "batch", "_finish_batch"),
    "batch-delta": ("delta", {}, 3, "batch", "_finish_batch"),
    "fold": ("delta", {"fold_threshold": 1}, 2, "batch", "_commit_rewrite"),
    "compact-rewrite": ("rewrite", {}, 3, "compact", "_commit_rewrite"),
    "compact-delta": ("delta", {}, 3, "compact", "_commit_rewrite"),
}


def _engine(lake, sink, kw, policy, spec=SPEC):
    return ReplayEngine(spec, lake, state_mode=sink, **kw, **POLICIES[policy])


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_crash_at_every_commit_step_ends_at_the_oracle(
    ray_session, tmp_path, monkeypatch, stream, scenario, policy
):
    events, prefix = stream
    sink, kw, n_before, step, target = SCENARIOS[scenario]
    template = str(tmp_path / "template")
    _engine(template, sink, kw, policy).replay(events, max_batches=n_before)

    def run_step(crash_at):
        lake = str(tmp_path / f"lake{crash_at}")
        shutil.copytree(template, lake)
        eng = _engine(lake, sink, kw, policy)
        with monkeypatch.context() as mp:
            rec = Commits(mp, target, crash_at)
            try:
                if step == "compact":
                    eng.compact()
                else:
                    eng.replay(events, max_batches=1)
            except Crash:
                assert crash_at is not None
            else:
                assert crash_at is None
        return lake, rec

    _, dry = run_step(None)
    # the fold scenario's batch starts the fold it commits
    assert len(dry.writes) == (2 if scenario == "fold" else 1), dry.writes
    assert all(w == 1 for w in dry.writes), dry.writes
    assert ("replace", "manifest.json") in dry.steps, dry.steps
    for k in _crash_points(dry.steps):
        lake, _ = run_step(k)
        eng = _engine(lake, sink, kw, policy)
        eng.replay(events)
        eng.gc_orphans()
        eng = _engine(lake, sink, kw, policy)
        what = (scenario, policy, dry.steps[k - 1])
        wm = eng.ckpt.watermark
        assert wm == N_BATCHES - 1, what
        assert eng.final_sha256() == prefix[wm], what
        fsck = eng.fsck()
        assert fsck["ok"] and fsck["orphans"] == [], (what, fsck)
        lo = {"gc": wm, "retain2": wm - 2, "keep": 0}[policy]
        for as_of in range(lo, wm + 1):
            assert eng.final_sha256(as_of=as_of) == prefix[as_of], (what, as_of)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_one_manifest_write_per_commit(ray_session, tmp_path, monkeypatch,
                                       stream, policy):
    """Batch commits in both sinks, background folds, ``compact``,
    ``backfill`` and ``optimize_sort``: each is one manifest write."""
    events, prefix = stream
    rec = Commits(monkeypatch)
    rw = _engine(str(tmp_path / "rw"), "rewrite", {}, policy)
    rw.replay(events)
    n_batches = len(rec.writes)
    dl = _engine(str(tmp_path / "dl"), "delta", {"fold_threshold": 1}, policy)
    dl.replay(events, max_batches=N_BATCHES - 1)
    dl.compact()
    dl.backfill(lambda t: t.append_column(
        "content_len",
        pc.cast(pc.fill_null(pc.utf8_length(t["content"]), 0), pa.int64()),
    ))
    dl.replay(events)
    dl.optimize_sort("path")
    assert n_batches == N_BATCHES
    # rewrite batches, delta batches, at least one fold, compact,
    # backfill and optimize_sort
    assert len(rec.writes) >= 2 * N_BATCHES + 4, rec.writes
    assert all(w == 1 for w in rec.writes), rec.writes
    assert rw.final_sha256() == prefix[N_BATCHES - 1]


def test_gc_after_backfill_then_compact_keeps_served_backfill_bases(
    ray_session, tmp_path, sparse_stream
):
    """On a history-keeping lake, a backfill-namespace rewrite
    (``optimize_sort``, sha-invariant) then ``compact`` at the same
    watermark: the rewrite's bases leave the tip, but the next batch's
    as-of snapshot still anchors the buckets it did not touch on them,
    so ``gc_orphans`` must keep them."""
    events, prefix = sparse_stream
    lake = str(tmp_path / "lake")

    def engine():
        return _engine(lake, "rewrite", {}, "keep", SPARSE_SPEC)

    eng = engine()
    eng.replay(events, max_batches=2)
    eng.optimize_sort("path")
    eng.compact()
    eng.gc_orphans()
    eng.replay(events)
    eng.gc_orphans()
    eng = engine()
    wm = eng.ckpt.watermark
    assert wm == N_BATCHES - 1
    fsck = eng.fsck()
    assert fsck["ok"] and fsck["orphans"] == [], fsck
    for as_of in range(wm + 1):
        assert eng.final_sha256(as_of=as_of) == prefix[as_of], as_of


@pytest.mark.parametrize("sink,kw", [("rewrite", {}), ("delta", {"fold_threshold": 1})])
def test_default_policy_gc_keeps_a_keep_history_lakes_history(
    ray_session, tmp_path, stream, sink, kw
):
    """The lake, not the engine, says whether it keeps history: a
    plain-GC engine's ``fsck`` and ``gc_orphans`` on a lake built with
    ``gc_old_versions=False`` remove nothing its time travel reads."""
    events, prefix = stream
    lake = str(tmp_path / "lake")
    _engine(lake, sink, kw, "keep").replay(events)
    keep_orphans = _engine(lake, sink, kw, "keep").fsck()["orphans"]
    plain = _engine(lake, sink, kw, "gc")
    assert plain.fsck()["orphans"] == keep_orphans
    assert plain.gc_orphans() == len(keep_orphans)
    eng = _engine(lake, sink, kw, "keep")
    for as_of in range(N_BATCHES):
        assert eng.final_sha256(as_of=as_of) == prefix[as_of], as_of
