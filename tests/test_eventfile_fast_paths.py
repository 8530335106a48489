"""The event-file ETL's fast paths against their slow references.

- ``_strict_ymdh`` (regex + ``datetime`` per event) must give the same
  [year, month, day, hour] as the pandas ``_parse_times`` wherever it
  answers, and leave every other string to pandas.
- ``split_concat_json`` must split every blob exactly as the one-step
  resync loop it replaced (kept below as the reference), and a long
  corrupt span deep in a blob must not cost time quadratic in its
  offset."""

import json
import random
import time

from hypothesis import given, settings, strategies as st

from glue_etl_pipeline_ray.pipelines.eventfile_etl import _parse_times, _strict_ymdh
from glue_etl_pipeline_ray.sources.eventfiles import split_concat_json


def _agrees_with_pandas(value) -> list[int] | None:
    fast = _strict_ymdh(value)
    if fast is not None:
        assert fast == _parse_times([value])[0].tolist(), value
    return fast


def test_strict_times_hand_cases():
    assert _agrees_with_pandas("2021-11-17T20:37:06Z") == [2021, 11, 17, 20]
    assert _agrees_with_pandas("1678-01-01T00:00:00Z") == [1678, 1, 1, 0]
    assert _agrees_with_pandas("2261-12-31T23:59:59Z") == [2261, 12, 31, 23]
    assert _agrees_with_pandas("2024-02-29T12:00:00Z") == [2024, 2, 29, 12]
    for value in (
        "2022-02-30T00:00:00Z",  # no such day
        "2022-01-01T00:00:60Z",  # leap second
        "2022-01-01T24:00:00Z",
        "1677-12-01T00:00:00Z",  # pandas holds part of 1677 and 2262
        "2262-01-01T00:00:00Z",
        "٢٠٢٢-01-01T00:00:00Z",  # Arabic-Indic digits
        "2022-01-01T00:00:00Z\n",
        "2022-01-01T00:00:00z",
        "2022-01-01 00:00:00Z",
        "2022-01-01T00:00:00.5Z",
        "2022-01-01T00:00:00+00:00",
        "yesterday",
        None,
        20220101,
    ):
        assert _strict_ymdh(value) is None, value
    # the slow path still decides them, as before
    got = _parse_times(["2022-02-30T00:00:00Z", "2022-01-01T00:00:00Z\n"])
    assert got.tolist() == [[-1, -1, -1, -1], [2022, 1, 1, 0]]


_TIMES = st.builds(
    "{}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z{}".format,
    st.integers(1600, 2300),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 25),
    st.integers(0, 61),
    st.integers(0, 61),
    st.sampled_from(["", "", "", "\n", "Z", " "]),
)


@settings(max_examples=300, deadline=None)
@given(value=_TIMES | st.text(alphabet="0123456789-:TZ٣ ", max_size=22))
def test_strict_times_agree_with_pandas(value):
    _agrees_with_pandas(value)


def _reference_split(blob: str) -> tuple[list[dict], list[str]]:
    """The splitter before the resync fix: step one character after
    every failed decode."""
    dec = json.JSONDecoder()
    events, bad = [], []
    i, n = 0, len(blob)
    bad_start = None
    while i < n:
        try:
            obj, end = dec.raw_decode(blob, i)
        except ValueError:
            if bad_start is None:
                bad_start = i
            i += 1
            continue
        if not isinstance(obj, dict):
            if bad_start is None:
                bad_start = i
            i = end
            continue
        if bad_start is not None:
            span = blob[bad_start:i].strip()
            if span:
                bad.append(span)
            bad_start = None
        events.append(obj)
        i = end
    if bad_start is not None:
        span = blob[bad_start:].strip()
        if span:
            bad.append(span)
    return events, bad


_PIECES = st.sampled_from(
    [
        json.dumps({"id": "a", "s": "}{", "t": "\"{\\\"x\\\": 1}"}),
        '{"v": NaN, "w": -Infinity, "x": Infinity}',
        '{"big": 123456789012345678901234567890}',
        '{"s": "\\ud800"}',
        '{"s": "\ud800 lone"}',
        json.dumps({"n": [1, {"m": None}], "b": True}),
        "{}",
        '{"broken": ',
        '{"a" 1}',
        "#corrupt-record#",
        "garbage", "null", "true", "fals", "nul", "NaN", "-", "-I", "1e5",
        "0.5", "[", "]", "[1, 2]", "{", "}", '"', '"str"', ",", ":",
        '"{\\"k\\": 1}"',  # a string whose text is an object
        " ", "\n", "\t\r", "\x00", "\\",
    ]
)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(_PIECES, max_size=12))
def test_split_agrees_with_one_step_resync(pieces):
    blob = "".join(pieces)
    # repr: NaN != NaN, but the two must decode it identically
    assert repr(split_concat_json(blob)) == repr(_reference_split(blob))


def test_split_long_corrupt_span_deep_in_blob_is_fast():
    """A 20 KB corrupt span at offset ~0.43 MB took the one-step resync
    about 6 s; it must split in well under a second, into the same
    events and one bad span."""
    event = json.dumps({"id": "x" * 20, "detail": {"a": [1, 2, 3], "b": "q}{w"}})
    rng = random.Random(5)
    # brackets and text: every '[' starts a decode that fails; no '{' or
    # '"', so nothing in the span decodes as an object or swallows the
    # event after it, and the expected split is known
    garbage = "#" + "".join(rng.choice("[ a") for _ in range(20_000)) + "#"
    head = 0.43e6 // len(event) + 1
    blob = event * int(head) + garbage + event * 10
    t0 = time.perf_counter()
    events, bad = split_concat_json(blob)
    elapsed = time.perf_counter() - t0
    assert len(events) == head + 10
    assert all(e == json.loads(event) for e in events)
    assert bad == [garbage]
    assert elapsed < 1.0, elapsed
