"""Concatenated-JSON event-file source (the reference's raw input format).

A Firehose delivery blob is back-to-back JSON envelopes with NO delimiter
(reference samples ``test/end_to_end_tests/data/input/*``; scan-decode
loop ``data_profiling.py:90-110``). This source reads such blobs with
``ray.data.read_binary_files`` and splits them inside ``flat_map``-style
map tasks:

- well-formed envelopes -> one row each, with ``source_file`` + ``idx``
  lineage columns;
- malformed byte spans -> dead-letter rows (``error="decode"`` + the raw
  span), NEVER silently dropped and NEVER duplicated — this fixes both
  reference bugs B1 (duplicate-on-decode-error, ``flat_jsons.py:219-239``)
  and B2 (dropped-not-dead-lettered, ``data_profiling.py:190-202``),
  SURVEY.md 2.11.

The splitter resyncs after a bad span by scanning forward to the next
``{`` that starts a decodable object, so one corrupt record costs exactly
its own bytes. It tries a decode only where a JSON value can start, and
inside a corrupt span it reads a copy of the blob that starts in the
span, so a span costs time about linear in its length, not its length
times its offset in the blob.
"""

from __future__ import annotations

import json
import re

import pyarrow as pa

import ray.data
from ray.data import Dataset


# where ``json`` can start reading a value (NaN and Infinity included);
# raw_decode fails at every other position
_VALUE_START = re.compile(
    r'[\["0-9]|\{[ \t\n\r]*["}]|-(?:[0-9]|Infinity)|true|false|null|NaN|Infinity'
)
_WHITESPACE = re.compile(r"[ \t\n\r]*")


def split_concat_json(blob: str) -> tuple[list[dict], list[str]]:
    """Scan-decode concatenated JSON objects; returns (events, bad_spans).

    Every byte of the input lands in exactly one of the two outputs."""
    dec = json.JSONDecoder()
    events: list[dict] = []
    bad: list[str] = []
    i, n = 0, len(blob)
    bad_start: int | None = None
    # what raw_decode reads: the blob, or a copy of its tail from `base`
    doc, base = blob, 0
    while i < n:
        if bad_start is None:
            # whitespace between values; strip() drops it from a span anyway
            i = _WHITESPACE.match(blob, i).end()
            if i == n:
                break
        obj = end = None
        if _VALUE_START.match(blob, i):
            try:
                obj, end = dec.raw_decode(doc, i - base)
                end += base
            except ValueError:
                # the error counts the newlines before its position in
                # what was read: until this span ends, read a copy that
                # starts here, so a long corrupt span is not quadratic
                if doc is blob:
                    doc, base = blob[i:], i
        if not isinstance(obj, dict):
            # failed decodes and bare scalars count as malformed span bytes
            if bad_start is None:
                bad_start = i
            if end is None:
                nxt = _VALUE_START.search(blob, i + 1)
                i = n if nxt is None else nxt.start()
            else:
                i = end
            continue
        if bad_start is not None:
            span = blob[bad_start:i].strip()
            if span:
                bad.append(span)
            bad_start = None
            doc, base = blob, 0
        events.append(obj)
        i = end
    if bad_start is not None:
        span = blob[bad_start:].strip()
        if span:
            bad.append(span)
    return events, bad


def read_event_files(
    paths: str | list[str],
    envelope_fields: tuple[str, ...] = ("id", "source", "time"),
    detail_field: str = "detail",
) -> Dataset:
    """Blobs -> one row per envelope: lineage columns (``source_file``,
    ``idx``), selected envelope fields as string columns, the nested
    payload re-serialized as a JSON string column (``detail_json``), and
    dead-letter rows flagged via ``error``/``raw`` (B1/B2 fix: every input
    byte is accounted for)."""

    def split(batch: pa.Table) -> pa.Table:
        files = batch["path"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        out: dict[str, list] = {
            "source_file": [],
            "idx": [],
            **{f: [] for f in envelope_fields},
            "detail_json": [],
            "error": [],
            "raw": [],
        }

        def emit(f, i, ev=None, err=None, raw=None):
            out["source_file"].append(f)
            out["idx"].append(i)
            for k in envelope_fields:
                v = None if ev is None else ev.get(k)
                out[k].append(None if v is None else str(v))
            det = None if ev is None else ev.get(detail_field)
            out["detail_json"].append(
                None if det is None else json.dumps(det, sort_keys=True)
            )
            out["error"].append(err)
            out["raw"].append(raw)

        for f, blob in zip(files, blobs):
            events, bad = split_concat_json(blob.decode("utf-8", "replace"))
            i = 0
            for ev in events:
                emit(f, i, ev=ev)
                i += 1
            for span in bad:
                emit(f, i, err="decode", raw=span)
                i += 1
        out["idx"] = pa.array(out["idx"], pa.int64())
        return pa.table(out)

    ds = ray.data.read_binary_files(paths, include_paths=True)
    return ds.map_batches(split, batch_format="pyarrow", batch_size=None)
