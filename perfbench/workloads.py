"""The benchmark workloads.

Each workload sets up (Ray is already up), measures a closed loop of its
operations for ``seconds`` of wall time, checks every operation
against the oracle, and returns ``{"e2e", "layers", "detail",
"attempted", "failed"}``.

End-to-end metrics, the same five on every workload (every run prints
every end-to-end metric of ``BENCHMARK.json``, so the metrics describe
the workload's operation, its "op"):

=================  =====================================================
``setup_s``        Ray start + worker warm-up plus the median of three
                   repetitions of the workload's own set-up (input
                   generation is cached per seed and left out, so a
                   cold or warm cache does not move it)
``rows_per_s``     median over ops of rows the op processed / op seconds
                   (``lake_reads``: of its scans, see there)
``op_p50_ms``      median op latency
``op_p90_ms``      90th-percentile op latency
``peak_rss_mb``    highest sampled RSS, driver + Ray worker processes
=================  =====================================================

===================  ==================================  ====================
workload             op                                  rows
===================  ==================================  ====================
``ingest_bulk``      one ``replay()`` of the whole       input events
                     stream into an empty lake
``ingest_steady``    land one small batch, then          input events
                     ``replay()`` until it commits
``lake_reads``       one single-key ``lookup()``         rows a full live scan,
                                                         a filtered scan and
                                                         the change feed return
``eventfile_etl``    one ``run_eventfile_etl`` of a      input events
                     delivery of blobs
===================  ==================================  ====================

``lake_reads`` interleaves every read path over the lake ``ingest_steady``
writes: its latency metrics are the lookups', its ``rows_per_s`` the
scans' and the change feed's, so a layout change that trades reads for
writes shows on one side or the other.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs
import layers
from layers import LAYER_UNITS  # noqa: F401  (re-exported for run.py)

SETUP_REPS = 3
READ_WINDOW = 2  # small batches committed on top of the base in the read lake
RETAIN = 8  # retain_batches of the read lake: the change feed's history window
TRACE_STEADY_BATCHES = 3  # small batches held back for the traced layer replay


class Run:
    """State of one measured run: timing spans, RSS samples, op tally."""

    def __init__(self, seed, seconds, trace, work, run_dir, ray_setup_s):
        import ray
        import psutil  # importable once ray has put its vendored copy on sys.path

        self.ray = ray
        self._psutil = psutil
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.run_dir = run_dir
        self.ray_setup_s = ray_setup_s
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans: list[tuple[str, float, float]] = []  # (kind, start, end) wall s
        self.peak_rss = 0
        self.window: tuple[float, float] | None = None  # measured wall span
        self._proc = self._psutil.Process()

    def sample_rss(self) -> None:
        rss = self._proc.memory_info().rss
        for ch in self._proc.children(recursive=True):
            try:
                if ch.cmdline()[:1] and ch.cmdline()[0].startswith("ray::"):
                    rss += ch.memory_info().rss
            except self._psutil.Error:
                continue
        self.peak_rss = max(self.peak_rss, rss)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def timed(self, kind: str, fn, *a, **kw):
        """Run ``fn`` as one op span; returns (result, seconds)."""
        w0, t0 = time.time(), time.perf_counter()
        out = fn(*a, **kw)
        dt = time.perf_counter() - t0
        self.spans.append((kind, w0, w0 + dt))
        return out, dt

    def span_list(self, kind: str) -> list[tuple[float, float]]:
        return [(a, b) for k, a, b in self.spans if k == kind]

    def setup_median(self, fn) -> float:
        """Repeat a set-up step SETUP_REPS times; median seconds."""
        ts = []
        for i in range(SETUP_REPS):
            t0 = time.perf_counter()
            fn(i)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    def write_trace(self, name: str, tl) -> None:
        d = os.path.join(self.work, "traces")
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, f"{name}-s{self.seed}.json"), "w") as f:
            json.dump(
                {"spans": self.spans, "ray_timeline": tl.raw}, f, default=str
            )

    def result(self, name, setup_s, rates, lat_s, detail, layer_fn):
        """``rates``: rows per second of each op."""
        self.sample_rss()
        lat_ms = [x * 1e3 for x in lat_s]
        e2e = {
            "setup_s": setup_s,
            "rows_per_s": statistics.median(rates),
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_p90_ms": float(np.percentile(lat_ms, 90)),
            "peak_rss_mb": self.peak_rss / 2**20,
        }
        detail = {
            **detail,
            "op_samples": len(lat_ms),
            "op_ms": [round(x, 1) for x in lat_ms[:40]],
            "seconds_measured": self.window[1] - self.window[0],
            "ray_cpus": int(self.ray.cluster_resources().get("CPU", 0)),
            "errors": self.errors[:5],
        }
        out = {
            "e2e": e2e,
            "layers": {},
            "detail": detail,
            "attempted": self.attempted,
            "failed": self.failed,
        }
        if self.trace:
            tl = layers.Timeline(self.ray)
            out["layers"] = layers.finish(layer_fn(tl), tl, self.window)
            self.write_trace(name, tl)
        return out

    def loop(self, body, seconds: float | None = None, min_steps: int = 1) -> None:
        """Closed loop: call ``body()`` until ``seconds`` (default: the
        run's) of wall time have passed and it ran ``min_steps`` times,
        or until it returns False. Consecutive loops share one measured
        window."""
        seconds = self.seconds if seconds is None else seconds
        w0, t0 = time.time(), time.perf_counter()
        n, last_rss = 0, 0.0
        while True:
            more = body()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed - last_rss >= 0.2:
                self.sample_rss()
                last_rss = elapsed
            if more is False:
                break
            # stop at the deadline, or when the next body would end
            # further past it than stopping now ends before it
            if n >= min_steps and elapsed + 0.5 * elapsed / n >= seconds:
                break
        self.window = (self.window[0] if self.window else w0, time.time())


def _spec():
    from glue_etl_pipeline_ray.spec import repo_file_spec

    return repo_file_spec()


def _link_into(files: list[str], d: str) -> str:
    os.makedirs(d, exist_ok=True)
    for f in files:
        os.link(f, os.path.join(d, os.path.basename(f)))
    return d


def _rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _timed_inputs(make, r: Run) -> tuple[str, float]:
    t0 = time.perf_counter()
    d = make(r.work, r.seed)
    return d, time.perf_counter() - t0


# ------------------------------------------------------------ ingest_bulk
def ingest_bulk(r: Run) -> dict:
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine, discover_batches

    spec = _spec()
    d, inputs_s = _timed_inputs(inputs.bulk_inputs, r)
    oracle = inputs.bulk_oracle(spec, d)
    ev_dir = os.path.join(d, "events")
    batches = discover_batches(ev_dir)
    files = [f for _, fs in batches for f in fs]
    n_events = _rows(files)

    warm_ev = _link_into(files[:1], os.path.join(r.run_dir, "warm_events"))

    def warm(i):
        ReplayEngine(spec, os.path.join(r.run_dir, f"warm{i}")).replay(warm_ev)

    setup_s = r.ray_setup_s + r.setup_median(warm)

    lat: list[float] = []

    def once():
        lake = os.path.join(r.run_dir, f"lake{len(lat)}")
        eng = ReplayEngine(spec, lake)
        s, dt = r.timed("replay", eng.replay, ev_dir)
        lat.append(dt)
        r.check(
            s["applied_batches"] == [b for b, _ in batches]
            and eng.final_sha256() == oracle["sha256"]
            and sum(x["n_dead_lettered"] for x in s["summaries"])
            == oracle["n_dead_lettered"],
            f"replay {len(lat)} disagrees with the oracle",
        )
        shutil.rmtree(lake)

    r.loop(once)

    def layer_fn(tl):
        scratch = os.path.join(r.run_dir, "layers_lake")
        acc = layers.replay_layers(spec, batches, scratch)
        return {
            **layers.replay_metrics(acc, 1.0),
            **layers.replay_timeline_metrics(tl, r.span_list("replay")),
        }

    detail = {
        "inputs_s": inputs_s,
        "events_per_replay": n_events,
        "batches_per_replay": len(batches),
        "oracle_live_rows": oracle["n_live"],
    }
    return r.result("ingest_bulk", setup_s, [n_events / x for x in lat], lat, detail, layer_fn)


# ---------------------------------------------------------- ingest_steady
def ingest_steady(r: Run) -> dict:
    from glue_etl_pipeline_ray.hashing import table_sha256
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine

    spec = _spec()
    d, inputs_s = _timed_inputs(inputs.uniform_inputs, r)
    base_live, base_dlq = inputs.uniform_base_oracle(spec, d)
    small = inputs.small_batches(d)
    # the last few batches stay out of the timed loop for the traced replay
    supply = small[: len(small) - TRACE_STEADY_BATCHES]
    ev_dir = _link_into(
        [os.path.join(d, "events", "batch=00000.parquet")],
        os.path.join(r.run_dir, "events"),
    )
    lakes = [os.path.join(r.run_dir, f"lake{i}") for i in range(SETUP_REPS)]
    pre: list[dict] = []

    def prebuild(i):
        pre.append(ReplayEngine(spec, lakes[i]).replay(ev_dir))

    setup_s = r.ray_setup_s + r.setup_median(prebuild)
    for lk in lakes[:-1]:
        shutil.rmtree(lk)
    eng = ReplayEngine(spec, lakes[-1])
    r.check(
        eng.final_sha256() == table_sha256(base_live, spec.key_cols)
        and pre[-1]["summaries"][0]["n_dead_lettered"] == base_dlq,
        "pre-built lake disagrees with the oracle",
    )

    lat: list[float] = []
    rows: list[int] = []
    dlq = [0]

    def land_and_commit(i: int) -> dict:
        src = supply[i]
        tmp = os.path.join(ev_dir, f".landing-{i}")
        shutil.copyfile(src, tmp)
        os.replace(tmp, os.path.join(ev_dir, os.path.basename(src)))
        return eng.replay(ev_dir)

    def once():
        i = len(lat)
        if i >= len(supply):
            # a run must measure its full --seconds: more batches are needed
            r.check(False, f"batch supply ({len(supply)}) ran out before the deadline")
            return False
        s, dt = r.timed("commit", land_and_commit, i)
        lat.append(dt)
        rows.append(s["summaries"][0]["n_events"] if s["summaries"] else 0)
        dlq[0] += sum(x["n_dead_lettered"] for x in s["summaries"])
        r.check(s["applied_batches"] == [i + 1], f"batch {i + 1} not committed")

    r.loop(once)
    landed = supply[: len(lat)]
    o = inputs.oracle_after(spec, d, base_live, landed, os.path.join(r.run_dir, "oracle"))
    r.check(
        eng.final_sha256() == o["sha256"] and dlq[0] == o["n_dead_lettered"],
        "final lake state disagrees with the oracle",
    )

    def layer_fn(tl):
        held = small[len(small) - TRACE_STEADY_BATCHES :]
        scratch = os.path.join(r.run_dir, "layers_lake")
        shutil.copytree(lakes[-1], scratch)
        acc = layers.replay_layers(
            spec, [(len(lat) + 1 + k, [f]) for k, f in enumerate(held)], scratch
        )
        return {
            **layers.replay_metrics(acc, len(held)),
            **layers.replay_timeline_metrics(tl, r.span_list("commit")),
        }

    detail = {
        "inputs_s": inputs_s,
        "base_live_keys": base_live.num_rows,
        "batches_committed": len(lat),
        "events_per_batch": inputs.UNIFORM["batch_events"],
    }
    rates = [n / x for n, x in zip(rows, lat)]
    return r.result("ingest_steady", setup_s, rates, lat, detail, layer_fn)


# ------------------------------------------------------------ lake reads
def _lookup_keys(rng, live: pa.Table, key_space: int, n: int) -> list[tuple]:
    """~80% live keys, ~20% keys of the same key space that are not live."""
    from glue_etl_pipeline_ray.gen import _LANGS

    live_keys = list(zip(live["repo"].to_pylist(), live["path"].to_pylist()))
    live_set = set(live_keys)
    out = []
    for _ in range(n):
        if rng.random() < 0.8:
            out.append(live_keys[int(rng.integers(0, len(live_keys)))])
            continue
        while True:
            j = int(rng.integers(0, key_space))
            k = ("org0/repo0", f"src/dir{j % 10}/file{j}.{_LANGS[j % len(_LANGS)]}")
            if k not in live_set:
                out.append(k)
                break
    return out


def _rows_by_key(t: pa.Table, kc) -> dict:
    return {tuple(row[k] for k in kc): row for row in t.to_pylist()}


def _materialize(ray, ds) -> pa.Table:
    parts = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(parts) if len(parts) > 1 else parts[0]


class ReadLake:
    """The lake ``lake_reads`` reads: the uniform base batch
    replayed into an empty lake with a ``RETAIN``-batch history window,
    then ``READ_WINDOW`` small batches committed on top, so the change
    feed has a window to read. ``oracle`` holds the oracle's live table
    after all of it; ``setup_s`` counts Ray start, the median of
    ``SETUP_REPS`` base builds, the window commits and one warm
    call of the workload's read path (``warm(engine)``)."""

    def __init__(self, r: Run, warm):
        from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine

        self.spec = _spec()
        self.kc = list(self.spec.key_cols)
        d, self.inputs_s = _timed_inputs(inputs.uniform_inputs, r)
        self.base_live, _ = inputs.uniform_base_oracle(self.spec, d)
        self.window = inputs.small_batches(d)[:READ_WINDOW]
        self.oracle = inputs.oracle_after(
            self.spec, d, self.base_live, self.window, os.path.join(r.run_dir, "oracle")
        )
        ev_dir = _link_into(
            [os.path.join(d, "events", "batch=00000.parquet")],
            os.path.join(r.run_dir, "events"),
        )
        lakes = [os.path.join(r.run_dir, f"lake{i}") for i in range(SETUP_REPS)]

        def prebuild(i):
            ReplayEngine(self.spec, lakes[i], retain_batches=RETAIN).replay(ev_dir)

        self.setup_s = r.ray_setup_s + r.setup_median(prebuild)
        for lk in lakes[:-1]:
            shutil.rmtree(lk)
        self.eng = ReplayEngine(self.spec, lakes[-1], retain_batches=RETAIN)
        t0 = time.perf_counter()
        _link_into(self.window, ev_dir)
        self.eng.replay(ev_dir)
        warm(self.eng)
        self.setup_s += time.perf_counter() - t0
        r.check(
            self.eng.final_sha256() == self.oracle["sha256"],
            "pre-built lake disagrees with the oracle",
        )

    @property
    def live(self) -> pa.Table:
        return self.oracle["table"]

    def detail(self) -> dict:
        return {"inputs_s": self.inputs_s, "live_rows": self.live.num_rows}


PREDICATE = [("lang", "==", "py")]
LOOKUPS_PER_ROUND = 150


def _changed_keys(lk: ReadLake) -> set:
    """Keys the window batches touched whose live row changed: exactly
    the keys ``changes_dataset(0, READ_WINDOW)`` must return."""
    kc, o = lk.kc, lk.oracle
    before = _rows_by_key(
        lk.base_live.filter(
            pc.is_in(inputs.key_strings(lk.base_live, kc), value_set=o["touched"])
        ),
        kc,
    )
    after = _rows_by_key(o["touched_live"], kc)
    return {k for k in set(before) | set(after) if before.get(k) != after.get(k)}


def lake_reads(r: Run) -> dict:
    """Rounds of ``LOOKUPS_PER_ROUND`` single-key lookups, one full live
    scan, one filtered scan and one ``changes_dataset`` over the retained
    window, one operation per loop step, so every kind of read is sampled
    across the whole run; a run measures at least one whole round.
    ``op_*`` are lookup latencies; ``rows_per_s`` is the rows one scan,
    one filtered scan and one change feed return over the sum of their
    median times."""
    rng = np.random.default_rng([r.seed, 11])

    def feed(eng):
        return _materialize(r.ray, eng.changes_dataset(0, READ_WINDOW))

    def warm(eng):
        eng.lookup([("org0/repo0", "warm")])
        _materialize(r.ray, eng.final_dataset())
        _materialize(r.ray, eng.scan(where=PREDICATE))
        feed(eng)

    lk = ReadLake(r, warm)
    eng, kc, live = lk.eng, lk.kc, lk.live
    keys = _lookup_keys(rng, live, inputs.UNIFORM["key_space"], 1000)
    expect = _rows_by_key(
        live.filter(
            pc.is_in(
                inputs.key_strings(live, kc),
                value_set=pa.array([inputs.KEY_SEP.join(k) for k in keys]),
            )
        ),
        kc,
    )
    n_pred = pc.sum(pc.equal(live["lang"], "py")).as_py()
    changed = _changed_keys(lk)
    lat: list[float] = []
    read_s: dict[str, list[float]] = {"scan": [], "filtered": [], "changefeed": []}

    def lookup():
        k = keys[len(lat) % len(keys)]
        got, dt = r.timed("lookup", eng.lookup, [k])
        lat.append(dt)
        want = expect.get(k)
        r.check(
            got.to_pylist() == ([want] if want is not None else []),
            f"lookup {k} disagrees with the oracle",
        )

    def scan():
        t, dt = r.timed("scan", lambda: _materialize(r.ray, eng.final_dataset()))
        read_s["scan"].append(dt)
        r.check(t.num_rows == live.num_rows, "live scan row count")

    def filtered():
        t, dt = r.timed("scan", lambda: _materialize(r.ray, eng.scan(where=PREDICATE)))
        read_s["filtered"].append(dt)
        r.check(
            t.num_rows == n_pred and pc.all(pc.equal(t["lang"], "py")).as_py() is not False,
            "filtered scan rows",
        )

    def changefeed():
        t, dt = r.timed("changefeed", feed, eng)
        read_s["changefeed"].append(dt)
        got = set(zip(*(t[k].to_pylist() for k in kc)))
        r.check(
            got == changed and t.num_rows == len(changed),
            f"change feed {len(read_s['changefeed'])} disagrees with the oracle",
        )

    schedule = [lookup] * LOOKUPS_PER_ROUND + [scan, filtered, changefeed]
    step = [0]

    def once():
        schedule[step[0] % len(schedule)]()
        step[0] += 1

    r.loop(once, min_steps=len(schedule))
    med = {k: statistics.median(v) for k, v in read_s.items()}
    round_rows = live.num_rows + n_pred + len(changed)
    rate = round_rows / sum(med.values())

    def layer_fn(tl):
        probes = tl.durations(r.span_list("lookup"), ("probe",))
        spans = r.span_list("scan")
        cf = r.span_list("changefeed")
        return {
            "lookup.buckets_read": len(probes) / len(lat),
            "lookup.task_ms": layers.median(probes) * 1e3,
            "lookup.fixed_ms": (statistics.median(lat) - layers.median(probes)) * 1e3,
            "scan.files_read": len(eng.ckpt.bucket_versions) * 2,
            "scan.busy_s": tl.busy(spans) / len(spans),
            "changefeed.diff_busy_s": tl.busy(cf, ("diff_bucket", "diff_bucket_delta"))
            / len(cf),
        }

    detail = {
        **lk.detail(),
        "changed_keys": len(changed),
        "rounds": len(read_s["changefeed"]),
        **{f"{k}_ms": v * 1e3 for k, v in med.items()},
    }
    return r.result("lake_reads", lk.setup_s, [rate], lat, detail, layer_fn)


# ---------------------------------------------------------- eventfile_etl
def eventfile_etl(r: Run) -> dict:
    from glue_etl_pipeline_ray.pipelines.event_schemas import reference_table_specs
    from glue_etl_pipeline_ray.pipelines.eventfile_etl import run_eventfile_etl

    source = "app.event.file"
    d, inputs_s = _timed_inputs(inputs.etl_inputs, r)
    paths = inputs.etl_blobs(d)
    specs = reference_table_specs()
    ref = inputs.etl_reference(specs, paths, source)
    intended = inputs.read_json(os.path.join(d, "expected.json"))
    if ref != intended:
        raise RuntimeError(
            f"blob generator and reference pass disagree: {intended} vs {ref}"
        )
    n_events = inputs.ETL["n_files"] * inputs.ETL["per_file"]

    def warm(i):
        run_eventfile_etl(
            paths[:4], specs, os.path.join(r.run_dir, f"warm{i}"), require_source=source
        )

    setup_s = r.ray_setup_s + r.setup_median(warm)

    lat: list[float] = []
    files_written: list[int] = []

    def once():
        out = os.path.join(r.run_dir, f"out{len(lat)}")
        counts, dt = r.timed(
            "etl", run_eventfile_etl, paths, specs, out, require_source=source
        )
        lat.append(dt)
        on_disk = {}
        n_files = 0
        for name in ref["tables"]:
            tdir = os.path.join(out, name)
            fs = [
                os.path.join(dp, f)
                for dp, _, fns in os.walk(tdir)
                for f in fns
                if f.endswith(".parquet")
            ]
            n_files += len(fs)
            on_disk[name] = _rows(fs)
        files_written.append(n_files)
        r.check(
            counts["tables"] == ref["tables"]
            and on_disk == ref["tables"]
            and counts["dead_lettered"] == ref["dead_lettered"],
            f"etl run {len(lat)} disagrees with the reference pass",
        )
        shutil.rmtree(out)

    r.loop(once)

    def layer_fn(tl):
        split_s, bad = layers.split_layer(paths)
        spans = r.span_list("etl")
        return {
            "sources.split_busy_s": split_s,
            "sources.bad_json": bad,
            "etl.chunk_busy_s": tl.busy(spans, ("_etl_chunk",)) / len(spans),
            "etl.dlq_rows": ref["dead_lettered"],
            "etl.files_written": statistics.median(files_written),
        }

    detail = {
        "inputs_s": inputs_s,
        "events_per_run": n_events,
        "blobs_per_run": len(paths),
        "expected": ref,
    }
    return r.result("eventfile_etl", setup_s, [n_events / x for x in lat], lat, detail, layer_fn)


WORKLOAD_FNS = {
    "ingest_bulk": ingest_bulk,
    "ingest_steady": ingest_steady,
    "lake_reads": lake_reads,
    "eventfile_etl": eventfile_etl,
}


def run(name, seed, seconds, trace, work, run_dir, ray_setup_s) -> dict:
    r = Run(seed, seconds, trace, work, run_dir, ray_setup_s)
    return WORKLOAD_FNS[name](r)
