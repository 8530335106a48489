"""CLI smoke gate: the ``ray job submit`` entry point drives the
operational surface from FRESH processes (each subprocess owns its own
Ray session, as a real job would). Kept to one replay + fsck +
merge-reshard + two verifies so the suite pays ~4 subprocess Ray
startups, not nine; the full per-command behavior is gated by the
in-process engine tests."""

import json
import os
import subprocess
import sys

from glue_etl_pipeline_ray.gen import generate_change_events

ENV = dict(os.environ, PYTHONPATH="/root/repo")


def _run(*cmd):
    return subprocess.run(
        [sys.executable, "-m", "glue_etl_pipeline_ray.cli", *cmd],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ENV["PYTHONPATH"],
    )


def _cli(*cmd):
    r = _run(*cmd)
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_cli_replay_fsck_merge_reshard_verify(ray_session, tmp_path):
    meta = generate_change_events(
        str(tmp_path / "gen"), n_events=4000, n_batches=3,
        dirty_frac=0.02, seed=12,
    )
    lake = str(tmp_path / "lake")
    out = _cli(
        "replay", "--lake", lake, "--num-buckets", "8",
        "--events", meta["events_dir"], "--num-cpus", "4",
    )
    assert out["applied_batches"] == [0, 1, 2]
    fsck = _cli("fsck", "--lake", lake, "--num-buckets", "8",
                "--num-cpus", "4")
    assert fsck["ok"] and not fsck["missing"]
    v1 = _cli("verify", "--lake", lake, "--num-buckets", "8",
              "--num-cpus", "4")
    merged = str(tmp_path / "lake4")
    r = _cli(
        "reshard", "--lake", lake, "--num-buckets", "8",
        "--out-lake", merged, "--factor", "2", "--mode", "merge",
        "--num-cpus", "4",
    )
    assert r["num_buckets"] == 4
    v2 = _cli("verify", "--lake", merged, "--num-buckets", "4",
              "--num-cpus", "4")
    assert v1["sha256"] == v2["sha256"]
    assert v1["n_live"] == v2["n_live"] > 0


def test_cli_scan_casts_where_to_column_type(ray_session, tmp_path):
    """``--where`` on an int column compares ints, not a string literal;
    a value the column type cannot hold exits with a usage error."""
    from glue_etl_pipeline_ray.pipelines.replay import ReplayEngine
    from glue_etl_pipeline_ray.spec import repo_file_spec

    meta = generate_change_events(
        str(tmp_path / "gen"), n_events=2000, n_batches=3,
        evolve_from_batch=1, seed=13,
    )
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(repo_file_spec(num_buckets=8), lake)
    eng.replay(meta["events_dir"])
    assert dict(eng.ckpt.evolved)["size_bytes"] == "int64"
    value = eng.final_table()["size_bytes"].drop_null()[0].as_py()
    want = eng.scan([("size_bytes", "==", value)]).count()
    assert want > 0
    out = _cli(
        "scan", "--lake", lake, "--num-buckets", "8", "--num-cpus", "1",
        "--where", f"size_bytes={value}",
    )
    assert out["rows"] == want
    r = _run(
        "scan", "--lake", lake, "--num-buckets", "8", "--num-cpus", "1",
        "--where", "size_bytes=big",
    )
    assert r.returncode == 2
    assert "'big' is not a int64 value" in r.stderr
