"""The reference's five-job event-file ETL as ONE single-pass Ray wave.

Reference flow (SURVEY.md 3.1): pre-job work-list -> profile-job
(split + Cerberus validate + dead-letter) -> flat-job (classify by
service x type + per-service fix-ups) -> convert-job (project nested
fields, derive y/m/d/h, partitioned Parquet append) -> post-job commit.

Here the whole flow is one map wave over deterministic blob chunks; each
task parses its events ONCE and routes every event to exactly one of
{table partition file, dead-letter file} (ref bugs B1/B2/B4 fixed):

    chunk of blobs -> split concat-JSON -> source filter -> classify
      -> envelope validate (nested anyof rules)   # M2-M4, ST1
      -> fix-ups -> project (nested schemas ok)   # M5-M12
      -> y/m/d/h derive (unparseable time -> DLQ) # M13
      -> write out/{TABLE}/year=/month=/day=/hour=/part-c{chunk}.parquet
         + out/_dlq/part-c{chunk}.parquet         # S7, S4

Design points for 100 TB:

- **No materialization, no shuffle, read amplification 1**: each blob is
  read once; per-table output is written straight from the map task
  (the round-1 design materialized the union dataset and re-filtered it
  once per table).
- **Deterministic, idempotent output**: chunking is a pure function of
  the sorted input list and ``files_per_task`` (NOT cluster size), and
  every output file is named by its chunk id (tmp + atomic rename), so
  re-running a failed run overwrites identical files instead of
  appending duplicates (the reference's at-least-once append hazard,
  SURVEY.md 2.9). A resumable caller can skip chunks whose outputs
  exist.
- **Raw Ray tasks, not Dataset**: the idempotency contract requires the
  chunk -> output-file mapping to be pinned; ``map_batches`` batch
  composition isn't deterministic across cluster sizes. Same rationale
  as stages/exchange.py. Output file count is chunks x touched
  partitions (same shape as a Spark partitioned append).

Where a run's time goes (perfbench ``eventfile_etl``, seed 1: 6,000
events in 24 blobs, 6 chunks, one Intel Xeon vCPU, chunk bodies timed
in process, about 0.5 s in all): writing 156 Parquet files (144 table
partitions plus one DLQ and one audit file per chunk) about 0.2 s,
splitting the blobs 65 ms (nearly all of it ``json`` decoding), projection, fix-ups
and Arrow conversion about 0.15 s, validation 33 ms (generated code,
``stages/rules.py``) and event-time parsing 30 ms (a strict-format
parse per event; pandas only for the other strings, in one call per
chunk). The 144 table files are this layout's floor: tables are
partitioned by hour and each of the 24 blobs holds one hour, so six
tables need 6 x 24 partition files however the blobs are chunked, and a
chunk writes exactly one file per (table, hour) it touches.

A logical table = an :class:`EventTableSpec` (the 2.10 extension
surface); the reference's six production tables live in
``pipelines/event_schemas.py``. Unknown (service, kind) pairs, invalid
envelopes, corrupt JSON spans and unparseable event times all
dead-letter — they neither crash the run (ref bug B4,
``flat_jsons.py:234-239``) nor vanish (B2).
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray


@dataclass(frozen=True)
class EventTableSpec:
    """One logical table: route key + validation + fix-ups + projection.

    ``project``: (detail dict) -> dict of output column values; the
    envelope-level ``account`` / ``event_id`` / ``date_time`` columns are
    injected automatically when the schema declares them and the
    projection didn't set them.
    ``fixups``: applied to the detail dict before projection (M6-M11
    analogs); each is (detail) -> detail.
    ``validator``: optional nested envelope validator
    (stages/rules.DocValidator, the Cerberus M3 analog); when absent, a
    light required-field check applies instead.
    ``schema``: authoritative output schema (the reference's SQL SELECT
    contract, ``convert_to_parquet.py:58-159``) — nested ``struct`` /
    ``list<struct>`` columns supported."""

    service: str
    kind: str  # "event" | "prediction"
    schema: pa.Schema
    project: Callable[[dict], dict]
    fixups: tuple[Callable[[dict], dict], ...] = field(default=())
    required: tuple[str, ...] = ("id", "time")
    validator: object | None = None
    table_name: str | None = None

    @property
    def name(self) -> str:
        return self.table_name or f"{self.service}_{self.kind}".upper()


def classify(detail: dict) -> tuple[str | None, str | None]:
    """M2 analog: (service, kind) from ``detail.type`` +
    ``prediction.service`` / ``evaluation.service``, with the reference's
    ``prediction_id`` suffix fallback (``data_profiling.py:61-87``)."""
    dtype = detail.get("type")
    if dtype == "EFPredictionEvent":
        kind = "prediction"
        body = detail.get("prediction") or {}
    elif dtype == "EFEvaluationEvent":
        kind = "event"
        body = detail.get("evaluation") or {}
    else:
        return None, None
    service = body.get("service")
    if not service:
        pid = body.get("prediction_id") or ""
        service = pid.split("#")[-1] if "#" in pid else None
    return service, kind


_PART_COLS = ("year", "month", "day", "hour")
_DLQ_SCHEMA = pa.schema([("__raw", pa.string()), ("__error", pa.string())])

# per-event audit record — the reference's PROFILER line
# (data_profiling.py:180-189: EventId|HasPassed|EventFile|ServiceName|
# ServiceType|Errors, parsed to ES docs by process_logs.py:140-190);
# one row per event, PASS or FAIL, written per chunk with the same
# idempotent part-c{chunk} naming as the data files
_AUDIT_SCHEMA = pa.schema(
    [
        ("event_id", pa.string()),
        ("event_file", pa.string()),
        ("service", pa.string()),
        ("kind", pa.string()),
        ("passed", pa.bool_()),
        ("error", pa.string()),
    ]
)


_ISO8601_SHORTCUT_OK: bool | None = None


def _iso8601_shortcut_works() -> bool:
    """Capability probe, once per process: pandas >= 2 understands
    ``format="ISO8601"``; pandas 1.x treats it as a literal strptime
    format and (with ``errors="coerce"``) silently coerces EVERY value
    to NaT instead of raising. Probing a known-good sample keeps the
    per-row acceptance contract independent of which other events share
    the chunk — an all-NaT fallback gate would accept or dead-letter
    the same event depending on its neighbors."""
    global _ISO8601_SHORTCUT_OK
    if _ISO8601_SHORTCUT_OK is None:
        import pandas as pd

        try:
            probe = pd.to_datetime(
                pd.Series(["2022-01-02T03:04:05Z"]),
                utc=True,
                errors="coerce",
                format="ISO8601",
            )
            _ISO8601_SHORTCUT_OK = bool(probe.notna().all())
        except (TypeError, ValueError):
            _ISO8601_SHORTCUT_OK = False
    return _ISO8601_SHORTCUT_OK


def _parse_times(values: list) -> np.ndarray | None:
    """ISO-8601 parse tolerant of fractional seconds / offsets; returns
    an int64 array of [year, month, day, hour] rows with -1 for
    unparseable entries (those rows dead-letter — the reference's Spark
    cast would silently null their partitions instead)."""
    import pandas as pd

    ser = pd.Series(values, dtype="object")
    if _iso8601_shortcut_works():
        ts = pd.to_datetime(ser, utc=True, errors="coerce", format="ISO8601")
    else:
        ts = pd.to_datetime(ser, utc=True, errors="coerce")
    out = np.full((len(values), 4), -1, dtype=np.int64)
    ok = ts.notna().to_numpy()
    if ok.any():
        dt = ts[ok].dt
        out[ok, 0] = dt.year.to_numpy()
        out[ok, 1] = dt.month.to_numpy()
        out[ok, 2] = dt.day.to_numpy()
        out[ok, 3] = dt.hour.to_numpy()
    return out


# a strict UTC event time, the form the event source writes; ASCII digits
# only (re.ASCII), since int() would also read other Unicode digits
_STRICT_UTC = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)


def _strict_ymdh(value) -> list[int] | None:
    """[year, month, day, hour] of a ``YYYY-MM-DDTHH:MM:SSZ`` string
    that names a real second in 1678-2261, the years pandas' nanosecond
    timestamps hold whole; None for anything else, which
    :func:`_parse_times` decides. Both give the same answer where this
    one answers (tests/test_eventfile_fast_paths.py); this one costs a
    regex match and a ``datetime`` per event, where pandas has a fixed
    cost per call of a few milliseconds."""
    m = _STRICT_UTC.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        return None
    y, mo, d, h, mi, sec = map(int, m.groups())
    if not 1678 <= y <= 2261:
        return None
    try:
        datetime(y, mo, d, h, mi, sec)
    except ValueError:  # Feb 30, hour 24, second 60, ...
        return None
    return [y, mo, d, h]


def _write_atomic(path: str, table: pa.Table) -> None:
    from glue_etl_pipeline_ray.stages.merge import write_atomic

    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_atomic(path, table)


def _chunk_marker(out_dir: str, chunk_id: int) -> str:
    return os.path.join(out_dir, "_progress", f"chunk-{chunk_id:05d}.json")


def _chunk_signature(files: list[str]) -> str:
    """Metadata-only input fingerprint (no data read): path + size +
    mtime per file — the same freshness contract rsync/make use."""
    import hashlib

    h = hashlib.sha256()
    for f in files:
        st = os.stat(f)
        h.update(f.encode())
        h.update(f"{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


@ray.remote
def _etl_chunk(
    chunk_id: int,
    files: list[str],
    specs: list[EventTableSpec],
    out_dir: str,
    require_source: str | None,
) -> dict:
    """Process one deterministic chunk of blobs end-to-end."""
    from glue_etl_pipeline_ray.sources.eventfiles import split_concat_json
    from glue_etl_pipeline_ray.stages.exchange import _pin_intraop_threads

    _pin_intraop_threads()
    by_key = {(s.service, s.kind): s for s in specs}
    # envelope columns injected when the schema declares them and the
    # projection left them unset: (output column, envelope field)
    envelope = (("event_id", "id"), ("account", "account"), ("date_time", "time"))
    injected = {
        s.name: [(col, key) for col, key in envelope if col in s.schema.names]
        for s in specs
    }
    rows: dict[str, list[dict]] = {s.name: [] for s in specs}
    # per row: [year, month, day, hour] of a strict UTC time, or None
    # when pandas must decide
    times: dict[str, list] = {s.name: [] for s in specs}
    dlq: list[tuple[str, str]] = []
    # the audit table (M14), one entry per event, pass or fail:
    # (event_id, event_file, service, kind) plus the error, None = passed
    audit: list[tuple] = []
    audit_error: list[str | None] = []
    audit_idx: dict[str, list[int]] = {s.name: [] for s in specs}

    def reject(fname: str, ev: dict | None, service, kind, error: str, raw=None):
        dlq.append((str(ev)[:200] if raw is None else raw, error))
        audit.append((None if ev is None else ev.get("id"), fname, service, kind))
        audit_error.append(error)

    for path in files:
        fname = os.path.basename(path)
        with open(path, "rb") as f:
            content = f.read().decode("utf-8", "replace")
        events, bad_spans = split_concat_json(content)
        for span in bad_spans:
            reject(fname, None, None, None, "decode", raw=span)
        for ev in events:
            if (
                require_source is not None
                and str(ev.get("source", "")).lower() != require_source
            ):
                # the reference silently drops these (data_profiling.py:154-157);
                # we keep the everything-lands-somewhere invariant
                reject(fname, ev, None, None, "source")
                continue
            detail = ev.get("detail")
            if not isinstance(detail, dict):
                reject(fname, ev, None, None, "required")
                continue
            service, kind = classify(detail)
            spec = by_key.get((service, kind))
            if spec is None:
                reject(fname, ev, service, kind, "unroutable")
                continue
            if spec.validator is not None:
                ok, errs = spec.validator.validate(ev)
                if not ok:
                    reject(fname, ev, service, kind, f"validation: {errs[0]}")
                    continue
            elif any(not ev.get(r) for r in spec.required):
                reject(fname, ev, service, kind, "required")
                continue
            for fx in spec.fixups:
                detail = fx(detail)
            flat = spec.project(detail)
            for col, key in injected[spec.name]:
                if col not in flat:
                    flat[col] = ev.get(key)
            rows[spec.name].append(flat)
            times[spec.name].append(_strict_ymdh(flat.get("date_time")))
            # tentative pass; an unparseable event time flips it below
            audit_idx[spec.name].append(len(audit))
            audit.append((ev.get("id"), fname, service, kind))
            audit_error.append(None)

    # the times the strict parse left open, in one pandas call per chunk
    slow = [(n, i) for n, ts in times.items() for i, t in enumerate(ts) if t is None]
    if slow:
        parsed = _parse_times([rows[name][i].get("date_time") for name, i in slow])
        for (name, i), t in zip(slow, parsed.tolist()):
            times[name][i] = t

    counts: dict[str, int] = {}
    partitions: set[tuple] = set()
    for spec in specs:
        table_rows = rows[spec.name]
        if not table_rows:
            counts[spec.name] = 0
            continue
        ymdh = np.array(times[spec.name], np.int64).reshape(len(table_rows), 4)
        bad = np.flatnonzero(ymdh[:, 0] < 0)
        if len(bad):
            for i in bad:
                dlq.append((str(table_rows[i])[:200], "time"))
                audit_error[audit_idx[spec.name][i]] = "time"
            keep = np.flatnonzero(ymdh[:, 0] >= 0)
            table_rows = [table_rows[i] for i in keep]
            ymdh = ymdh[keep]
        counts[spec.name] = len(table_rows)
        if not table_rows:
            continue
        t = pa.Table.from_pylist(table_rows, schema=spec.schema)
        # group rows by partition tuple: one slice + one file per
        # (chunk, partition)
        order = np.lexsort((ymdh[:, 3], ymdh[:, 2], ymdh[:, 1], ymdh[:, 0]))
        t = t.take(order)
        y = ymdh[order]
        starts = np.flatnonzero(np.r_[True, (np.diff(y, axis=0) != 0).any(axis=1)])
        ends = np.r_[starts[1:], len(y)]
        for s, e in zip(starts, ends):
            py, pm, pd_, ph = (int(v) for v in y[s])
            partitions.add((spec.name, py, pm, pd_, ph))
            dest = os.path.join(
                out_dir,
                spec.name,
                f"year={py}",
                f"month={pm}",
                f"day={pd_}",
                f"hour={ph}",
                f"part-c{chunk_id:05d}.parquet",
            )
            _write_atomic(dest, t.slice(int(s), int(e - s)))

    if dlq:
        _write_atomic(
            os.path.join(out_dir, "_dlq", f"part-c{chunk_id:05d}.parquet"),
            pa.table(
                {
                    "__raw": pa.array([r for r, _ in dlq], pa.string()),
                    "__error": pa.array([e for _, e in dlq], pa.string()),
                }
            ),
        )
    if audit:
        ids, fnames, services, kinds = zip(*audit)
        _write_atomic(
            os.path.join(out_dir, "_audit", f"part-c{chunk_id:05d}.parquet"),
            pa.Table.from_pydict(
                {
                    "event_id": ids,
                    "event_file": fnames,
                    "service": services,
                    "kind": kinds,
                    "passed": [e is None for e in audit_error],
                    "error": audit_error,
                },
                schema=_AUDIT_SCHEMA,
            ),
        )
    result = {
        "tables": counts,
        "dead_lettered": len(dlq),
        "audited": len(audit),
        "partitions": sorted(partitions),
    }
    # completion marker LAST (after every output rename): its existence
    # proves the chunk's files are all in place, so a resumed run can
    # skip the chunk (the engine's analog of the reference's
    # processed-file set, at chunk granularity)
    import json as _json

    marker = {"signature": _chunk_signature(files), **result}
    marker_path = _chunk_marker(out_dir, chunk_id)
    os.makedirs(os.path.dirname(marker_path), exist_ok=True)
    tmp = f"{marker_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        _json.dump(marker, f)
    os.replace(tmp, marker_path)
    return result


def run_eventfile_etl(
    paths: list[str],
    specs: list[EventTableSpec],
    out_dir: str,
    files_per_task: int = 4,
    require_source: str | None = None,
    resume: bool = False,
) -> dict:
    """Run the full ETL; returns per-table + DLQ counts (A1/A2 analog).

    Writes ``out_dir/{TABLE}/year=/month=/day=/hour=/part-c*.parquet``
    and ``out_dir/_dlq/part-c*.parquet``. ``require_source``: when set
    (e.g. ``"app.event.file"``), events from other sources dead-letter
    (the reference's M1 filter, which silently drops them).

    Chunking is ``sorted(paths)`` split every ``files_per_task`` files —
    a pure function of the input (the reference's O1 work-list sort), so
    output names are stable across runs and cluster sizes.

    ``resume=True``: skip chunks whose completion marker
    (``_progress/chunk-*.json``, written after all of the chunk's output
    renames) exists with a matching input signature — a crashed run
    redoes only unfinished chunks; finished chunks' counts come from
    their markers."""
    import json as _json

    paths = sorted(paths)
    chunks = [
        paths[i : i + max(1, files_per_task)]
        for i in range(0, len(paths), max(1, files_per_task))
    ]
    def _purge_chunk_outputs(ci: int, m: dict, mp: str) -> None:
        # delete everything the old marker recorded (then the marker):
        # a stale chunk's files would otherwise survive as phantom data
        for name, py, pm, pd_, ph in map(tuple, m.get("partitions", [])):
            stale = os.path.join(
                out_dir, name, f"year={py}", f"month={pm}",
                f"day={pd_}", f"hour={ph}",
                f"part-c{ci:05d}.parquet",
            )
            try:
                os.remove(stale)
            except FileNotFoundError:
                pass
        for side in ("_dlq", "_audit"):
            try:
                os.remove(
                    os.path.join(out_dir, side, f"part-c{ci:05d}.parquet")
                )
            except FileNotFoundError:
                pass
        os.remove(mp)

    done: dict[int, dict] = {}
    if resume:
        for ci, ch in enumerate(chunks):
            mp = _chunk_marker(out_dir, ci)
            if not os.path.exists(mp):
                continue
            with open(mp) as f:
                m = _json.load(f)
            if m.get("signature") == _chunk_signature(ch):
                done[ci] = m
            else:
                # input changed: the re-run may land in DIFFERENT
                # partitions — purge before re-running the chunk
                _purge_chunk_outputs(ci, m, mp)
        # a SHRUNK input leaves tail chunks beyond the current chunk
        # list; their markers and outputs are stale data no loop index
        # reaches — sweep them too
        prog_dir = os.path.join(out_dir, "_progress")
        if os.path.isdir(prog_dir):
            for fn in sorted(os.listdir(prog_dir)):
                mm = re.match(r"chunk-(\d+)\.json$", fn)
                if not mm or int(mm.group(1)) < len(chunks):
                    continue
                ci = int(mm.group(1))
                mp = os.path.join(prog_dir, fn)
                with open(mp) as f:
                    m = _json.load(f)
                _purge_chunk_outputs(ci, m, mp)
        # chunks about to (re-)run may have crashed AFTER writing some
        # outputs but BEFORE their marker — no marker records what they
        # wrote, so sweep their deterministic part-c{ci} names directly:
        # a changed input could otherwise leave phantom partition files
        import glob as _glob

        run_names = {
            f"part-c{ci:05d}.parquet"
            for ci in range(len(chunks))
            if ci not in done
        }
        if run_names:
            for p in _glob.glob(
                os.path.join(out_dir, "**", "part-c*.parquet"),
                recursive=True,
            ):
                if os.path.basename(p) in run_names:
                    try:
                        os.remove(p)
                    except FileNotFoundError:
                        pass
    refs = {
        ci: _etl_chunk.options(num_cpus=1).remote(
            ci, ch, specs, out_dir, require_source
        )
        for ci, ch in enumerate(chunks)
        if ci not in done
    }
    outs = list(done.values()) + list(ray.get(list(refs.values())))
    counts: dict = {
        "tables": {s.name: 0 for s in specs},
        "dead_lettered": 0,
        "audited": 0,
        "partitions": sorted({p for o in outs for p in map(tuple, o["partitions"])}),
        "chunks_skipped": len(done),
        "chunks_run": len(refs),
    }
    for o in outs:
        counts["dead_lettered"] += o["dead_lettered"]
        counts["audited"] += o.get("audited", 0)
        for name, n in o["tables"].items():
            counts["tables"][name] += n
    # run-level lineage manifest (A2/S8 analog of the replay engine's
    # lineage log): per-table + DLQ tallies and the partition inventory,
    # named by the full input signature so re-runs of identical input
    # overwrite one deterministic file
    import hashlib
    import json as _json

    run_sig = hashlib.sha256(
        "".join(_chunk_signature(ch) for ch in chunks).encode()
    ).hexdigest()[:16]
    manifest_path = os.path.join(out_dir, "_lineage", f"run-{run_sig}.json")
    os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
    tmp = f"{manifest_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        _json.dump(
            {
                "input_signature": run_sig,
                "n_files": len(paths),
                "n_chunks": len(chunks),
                **counts,
            },
            f,
            default=list,
        )
    os.replace(tmp, manifest_path)
    return counts
