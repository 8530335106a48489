"""Generated accept functions vs the rule-tree interpreter.

``DocValidator.validate`` answers from code generated out of the schema
document when it accepts and from the interpreter when it does not, so
the two must agree on every document: hypothesis documents drawn near
the six production schemas, hand-written edge cases of Cerberus's type
rules, and schema documents whose shape the interpreter cannot walk."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from glue_etl_pipeline_ray.pipelines.event_schemas import _validation_schemas
from glue_etl_pipeline_ray.stages.rules import DocValidator, compile_accept

SCHEMAS = _validation_schemas()

_ANY = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)

_SCALARS = {
    "string": st.text(max_size=3),
    "integer": st.integers(-(2**40), 2**40) | st.booleans(),
    "float": st.floats(allow_nan=False) | st.integers(-5, 5),
    "boolean": st.booleans(),
}


def _perturb(draw) -> str | None:
    """Mostly None (draw from the rules); now and then one way to break
    them. 0 is the value hypothesis shrinks to, so failures shrink toward
    valid documents."""
    return {57: "missing", 58: "arbitrary", 59: "null"}.get(draw(st.integers(0, 59)))


@st.composite
def _doc(draw, schema: dict) -> dict:
    """A document near ``schema``: each field usually drawn from its
    rules, now and then missing; sometimes with an unknown field."""
    doc = {}
    for name, rules in schema.items():
        if _perturb(draw) != "missing":
            doc[name] = draw(_value(rules))
    if draw(st.integers(0, 9)) == 9:
        doc[draw(st.text(max_size=3))] = draw(_ANY)
    return doc


@st.composite
def _value(draw, rules: dict):
    """A value usually drawn from ``rules``, now and then null or
    arbitrary."""
    how = _perturb(draw)
    if how == "arbitrary":
        return draw(_ANY)
    if how == "null" or (rules.get("nullable") and draw(st.integers(0, 9)) == 9):
        return None  # with or without nullable
    if "anyof_schema" in rules:
        return draw(_doc(draw(st.sampled_from(rules["anyof_schema"]))))
    if "anyof" in rules:
        return draw(_value(draw(st.sampled_from(rules["anyof"]))))
    ty, sub, allowed = rules.get("type"), rules.get("schema"), rules.get("allowed")
    if allowed and _perturb(draw) is None:
        one = st.sampled_from(allowed)
        return draw(st.lists(one, max_size=3) if ty == "list" else one)
    if ty == "dict":
        return draw(_doc(sub or {}))
    if ty == "list":
        return draw(st.lists(_value(sub) if sub else _ANY, max_size=3))
    return draw(_SCALARS.get(ty, _ANY))


def _agree(v: DocValidator, doc) -> bool:
    want = v.interpret(doc)
    assert v._accept(doc) is want[0], (doc, want)
    assert v.validate(doc) == want
    assert v(doc) is want[0]
    return want[0]


@pytest.mark.parametrize("key", sorted(SCHEMAS), ids="_".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_code_agrees_with_interpreter(key, data):
    v = DocValidator(SCHEMAS[key])
    _agree(v, data.draw(_doc(SCHEMAS[key])))


def _envelope(detail: dict, detail_type="EFEvaluationEvent") -> dict:
    return {
        "version": "0", "id": "e1", "detail-type": detail_type,
        "source": "app.event.file", "account": "1",
        "time": "2021-11-17T20:37:06Z", "region": "eu-west-1",
        "detail": detail,
    }


def _m3_event(**payload) -> dict:
    body = {
        "template_ef_version": "1.0", "id": "x", "shape_id": "s",
        "timestamp": 1, "reporter": "user", "type": "PUBLISH",
        "service": "microthree", "prediction_id": None,
        "payload": {"text": "t", "medialib": "MYLIB", "query": "q", **payload},
    }
    return _envelope({
        "id": "d", "type": "EFEvaluationEvent", "timestamp": 1,
        "partitionKey": "p", "evaluation": body,
    })


def _m1_pred(**output) -> dict:
    return _envelope(
        {
            "id": "d", "type": "EFPredictionEvent", "timestamp": 1,
            "partitionKey": "p",
            "prediction": {
                "id": "p", "shape_id": "s", "service": "microone",
                "timestamp": 1,
                "service_version": {"software": "1", "model": "m"},
                "input": {"paragraphs": ["a"]},
                "output": {"summary": ["s"], **output},
            },
        },
        "EFPredictionEvent",
    )


def test_hand_written_cases():
    m3 = DocValidator(SCHEMAS[("microthree", "event")])
    m1p = DocValidator(SCHEMAS[("microone", "prediction")])
    ok = _m3_event()
    assert _agree(m3, ok)
    # both anyof_schema variants: new style (above) and old style
    old = copy.deepcopy(ok)
    old["detail"]["evaluation"].pop("service")
    old["detail"]["evaluation"]["prediction_id"] = "p#microthree"
    assert _agree(m3, old)
    # media_id: str or int; nullable; a float is neither alternative
    assert _agree(m3, _m3_event(media_id="abc"))
    assert _agree(m3, _m3_event(media_id=7))
    assert _agree(m3, _m3_event(media_id=None))
    assert not _agree(m3, _m3_event(media_id=1.5))
    # bool counts as integer (Integral); a float does not
    bool_ts = copy.deepcopy(ok)
    bool_ts["detail"]["timestamp"] = True
    assert _agree(m3, bool_ts)
    bool_ts["detail"]["timestamp"] = 1.0
    assert not _agree(m3, bool_ts)
    # int widens to float; None needs nullable
    meta = [{"scores": [1, 2.5, None], "idx": 3, "filtered_sentences": None}]
    assert _agree(m1p, _m1_pred(metadata=meta))
    assert _agree(m1p, _m1_pred(metadata=[None]))
    null_id = copy.deepcopy(ok)
    null_id["detail"]["id"] = None
    assert not _agree(m3, null_id)
    # a missing required field, at the top and deep down
    for path in (("region",), ("detail", "evaluation", "payload", "text")):
        doc = copy.deepcopy(ok)
        parent = doc
        for p in path[:-1]:
            parent = parent[p]
        del parent[path[-1]]
        assert not _agree(m3, doc)
    # a list where a dict is expected, and a dict where a list is
    as_list = copy.deepcopy(ok)
    as_list["detail"] = [ok["detail"]]
    assert not _agree(m3, as_list)
    assert not _agree(m1p, _m1_pred(summary={"0": "s"}))
    # allowed on a list checks every element; unknown fields pass
    assert not _agree(m3, _m3_event(media_type="GIF"))
    assert _agree(m3, _m3_event(query=["a", None], extra={"x": 1}))
    assert not _agree(m3, _m3_event(query=7))


def test_schema_rule_shapes():
    """``schema`` is field rules on a dict and element rules on a list;
    a value that is neither fails."""
    v = DocValidator({"x": {"schema": {"a": {"type": "integer"}}}})
    assert _agree(v, {"x": {"a": 1}})
    assert not _agree(v, {"x": {"a": "s"}})
    # on a list, the same document is the elements' rules: "a" is no rule
    assert _agree(v, {"x": [1, "s", {}]})
    assert not _agree(v, {"x": [None]})
    assert not _agree(v, {"x": 5})
    w = DocValidator({"x": {"schema": {"type": "integer"}}})
    assert _agree(w, {"x": [1, True]})
    assert not _agree(w, {"x": [1.5]})
    assert _agree(w, {"x": []})
    # read as field rules, "type": "integer" is not a rule set: the
    # interpreter raises, and validate() keeps that
    for doc in ({"x": {}}, {"x": {"type": 1}}):
        with pytest.raises(AttributeError):
            w.interpret(doc)
        with pytest.raises(AttributeError):
            w.validate(doc)


def test_allowed_on_lists_and_untyped_values():
    """``allowed`` checks every element of a list value, and the value
    itself otherwise; without a type rule both can occur."""
    typed = DocValidator({"x": {"type": "list", "allowed": ["a", "b"]}})
    assert _agree(typed, {"x": ["a", "b", "a"]})
    assert not _agree(typed, {"x": ["a", "c"]})
    untyped = DocValidator({"x": {"allowed": ["a", 1]}})
    assert _agree(untyped, {"x": "a"})
    assert _agree(untyped, {"x": [1, "a"]})
    assert _agree(untyped, {"x": True})  # True == 1, as Cerberus compares
    assert not _agree(untyped, {"x": ["a", 2]})
    assert not _agree(untyped, {"x": {"a": 1}})


def test_schemas_the_interpreter_cannot_walk_keep_its_behaviour():
    v = DocValidator({"x": {"type": "decimal"}})
    assert _agree(v, {})
    assert not _agree(v, {"x": None})
    with pytest.raises(KeyError):
        v.validate({"x": 1})
    closed = DocValidator({"a": {"type": "string"}}, allow_unknown=False)
    assert _agree(closed, {"a": "s"})
    assert not _agree(closed, {"a": "s", "b": 1})
    # more nested loops than Python compiles: every document takes the
    # interpreter, with the same answers
    rules = {"type": "integer"}
    doc, bad = 1, 1.5
    for _ in range(40):
        rules = {"type": "list", "schema": rules}
        doc, bad = [doc], [bad]
    deep = DocValidator({"x": rules})
    assert deep._accept({"x": doc}) is False
    assert deep.validate({"x": doc}) == (True, [])
    assert not deep.validate({"x": bad})[0]


def test_generated_functions_are_cached_and_validators_pickle():
    schema = SCHEMAS[("microtwo", "event")]
    assert compile_accept(schema) is compile_accept(copy.deepcopy(schema))
    v = pickle.loads(pickle.dumps(DocValidator(schema)))
    assert v._accept is compile_accept(schema)
    assert v.schema == schema and v.allow_unknown
