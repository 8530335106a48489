"""One pointer model for both sinks: every bucket is a base file plus a
chain of group-file entries, whichever ``state_mode`` wrote it, so any
engine reads, continues and checks any lake — and manifests written in
the older two-map format open through a one-time conversion."""

import json
import os
import re
import subprocess
import sys

import pytest

from glue_etl_pipeline_ray.gen import generate_change_events
from glue_etl_pipeline_ray.oracle import replay_oracle
from glue_etl_pipeline_ray.pipelines.multi import MultiTableReplayer
from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
from glue_etl_pipeline_ray.spec import repo_file_spec
from glue_etl_pipeline_ray.state.checkpoint import CheckpointManager

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = repo_file_spec(num_buckets=8)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    d = tmp_path_factory.mktemp("onemodel")
    meta = generate_change_events(
        str(d), n_events=3000, n_batches=6, seed=5, delete_frac=0.15,
        dirty_frac=0.03, evolve_from_batch=3,
    )
    return meta["events_dir"], replay_oracle(SPEC, meta["events_dir"])["sha256"]


@pytest.mark.parametrize("writer,reader", [("rewrite", "delta"), ("delta", "rewrite")])
def test_reopen_in_the_other_layout(ray_session, tmp_path, stream, writer, reader):
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    w = ReplayEngine(SPEC, lake, state_mode=writer, fold_threshold=2)
    w.replay(ev, max_batches=4)
    tip = w.final_table()
    assert tip.num_rows > 0

    r = ReplayEngine(SPEC, lake, state_mode=reader, fold_threshold=2)
    assert r.final_table().equals(tip)
    r.replay(ev)
    assert r.ckpt.watermark == 5
    assert r.final_sha256() == oracle
    fsck = r.fsck()
    assert fsck["ok"] and fsck["orphans"] == [] and fsck["n_referenced"] > 0


def _cli(*cmd):
    r = subprocess.run(
        [sys.executable, "-m", "glue_etl_pipeline_ray.cli", *cmd],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=REPO),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_cli_verify_and_fsck_default_mode_on_a_delta_lake(
    ray_session, tmp_path, stream
):
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    ReplayEngine(SPEC, lake, state_mode="delta", fold_threshold=100).replay(ev)
    common = ("--lake", lake, "--num-buckets", "8", "--num-cpus", "1")
    v = _cli("verify", *common)
    assert v["sha256"] == oracle and v["n_live"] > 0
    f = _cli("fsck", *common)
    assert f["ok"] and f["n_referenced"] > 0 and f["orphans"] == []


def _manifest(lake) -> tuple[str, dict]:
    path = os.path.join(lake, "_checkpoint", "manifest.json")
    with open(path) as f:
        return path, json.load(f)


def _dump(path, m) -> None:
    with open(path, "w") as f:
        json.dump(m, f)


def _part(name: str) -> tuple[int, int]:
    b, v = re.match(r"part-(\d+)-v(\d+)\.parquet$", name).groups()
    return int(b), int(v)


def test_parent_format_rewrite_manifest_with_retired_entries(
    ray_session, tmp_path, stream
):
    """A rewrite-layout manifest of the two-map format: ``bucket_versions``
    and a ``retired`` ledger of ``[bucket, version, at]``. It opens in
    either mode with the same tip, as-of reads and purge schedule."""
    ev, oracle = stream
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(SPEC, lake, retain_batches=2)
    eng.replay(ev, max_batches=4)
    tip, asof = eng.final_sha256(), eng.final_sha256(as_of=2)

    path, m = _manifest(lake)
    retired = m.pop("retired_files")
    assert retired
    m["retired"] = [[*_part(n), at] for n, at in retired]
    m["bucket_versions"] = {b: d["base"] for b, d in m.pop("bucket_deltas").items()}
    _dump(path, m)

    for mode in ("delta", "rewrite"):
        e = ReplayEngine(SPEC, lake, state_mode=mode, retain_batches=2)
        assert e.final_sha256() == tip, mode
        assert e.final_sha256(as_of=2) == asof, mode
        assert sorted(map(tuple, e.ckpt._m["retired_files"])) == sorted(
            map(tuple, retired)
        )
    e = ReplayEngine(SPEC, lake, state_mode="delta", retain_batches=2)
    e.replay(ev)
    assert e.final_sha256() == oracle
    # the converted entries purge on the same schedule as native ones
    horizon = e.ckpt.watermark - 2
    for name, at in retired:
        gone = not os.path.exists(os.path.join(lake, name))
        assert gone == (at <= horizon), (name, at, horizon)
    assert "retired" not in e.ckpt._m and "bucket_versions" not in e.ckpt._m
    assert e.fsck()["orphans"] == []


@pytest.mark.parametrize("moved", ["rewrite", "delta"])
def test_parent_format_resharded_manifest_takes_the_newer_pointer(
    ray_session, tmp_path, stream, moved
):
    """A resharded lake of the two-map format carried both pointer maps,
    seeded at the reshard watermark; continued ingest moved only the one
    its engine used. Per bucket the newer pointer wins."""
    ev, oracle = stream
    eng = ReplayEngine(SPEC, str(tmp_path / "src"), retain_batches=2)
    eng.replay(ev, max_batches=2)
    lake = str(tmp_path / "lake")
    r = eng.reshard(lake, factor=2)
    wm = r.ckpt.watermark
    seeded = {b: {"base": wm, "deltas": []} for b in _manifest(lake)[1]["bucket_deltas"]}
    r = ReplayEngine(r.spec, lake, state_mode=moved, fold_threshold=100,
                     retain_batches=2)
    r.replay(ev, max_batches=2)
    tip, asof = r.final_sha256(), r.final_sha256(as_of=wm + 1)

    path, m = _manifest(lake)
    if moved == "rewrite":
        m["bucket_versions"] = {b: d["base"] for b, d in m["bucket_deltas"].items()}
        m["bucket_deltas"] = seeded
    else:
        m["bucket_versions"] = {b: d["base"] for b, d in seeded.items()}
    _dump(path, m)

    for mode in ("rewrite", "delta"):
        e = ReplayEngine(r.spec, lake, state_mode=mode, retain_batches=2)
        assert e.final_sha256() == tip, mode
        assert e.final_sha256(as_of=wm + 1) == asof, mode
    other = "delta" if moved == "rewrite" else "rewrite"
    e = ReplayEngine(r.spec, lake, state_mode=other, retain_batches=2)
    e.replay(ev)
    assert e.final_sha256() == oracle
    assert e.fsck()["orphans"] == []


def test_int_chain_entry_raises_naming_the_lake(tmp_path):
    lake = str(tmp_path / "lake")
    os.makedirs(os.path.join(lake, "_checkpoint"))
    _dump(os.path.join(lake, "_checkpoint", "manifest.json"), {
        "watermark": 0, "committed": [0], "evolved": [], "batches": {},
        "bucket_deltas": {"3": {"base": None, "deltas": [0]}},
    })
    with pytest.raises(ValueError, match=re.escape(lake)):
        CheckpointManager(lake)


def _two_tables(tmp_path, **kw):
    spec = repo_file_spec(num_buckets=4)
    keep = lambda t: t  # noqa: E731
    return MultiTableReplayer(
        str(tmp_path / "lakes"), {"a": (spec, keep), "b": (spec, keep)}, **kw
    )


def test_shared_scan_max_batches_raises(tmp_path, stream):
    with pytest.raises(ValueError, match="max_batches"):
        _two_tables(tmp_path).replay(stream[0], shared_scan=True, max_batches=1)


def test_shared_scan_delta_sink_raises(tmp_path, stream):
    multi = _two_tables(tmp_path, state_mode="delta")
    with pytest.raises(ValueError, match="shared_scan"):
        multi.replay(stream[0], shared_scan=True)
