"""Nested document validation: the reference's Cerberus contract, self-contained.

The reference profiles every raw event envelope against per-(service,kind)
Cerberus schemas with ``allow_unknown=True`` (open-world: unknown fields
pass) before anything else touches it (``data_profiling.py:46-58``; schema
documents ``dependencies/*.json``). The rule subset those six schemas
actually use is: ``type`` (string/integer/float/boolean/dict/list),
``required``, ``nullable``, ``allowed``, ``schema`` (sub-document rules on
a dict, element rules on a list), ``anyof`` (alternative rule-sets) and
``anyof_schema`` (alternative sub-document schemas — the old/new envelope
version mechanism, e.g. ``dependencies/microone_event.json:59-187``).

:class:`DocValidator` implements exactly that subset with Cerberus's
semantics (verified bit-for-bit against the reference's committed golden
outputs in tests/test_reference_fixture_parity.py):

- a missing field only fails when ``required``;
- ``None`` passes iff ``nullable`` and short-circuits the other rules;
- type ``integer`` accepts any Integral, ``float`` accepts float AND
  Integral (Cerberus's documented widening), ``boolean`` only bool;
- ``allowed`` on a list value checks every element;
- an alternative set (``anyof``/``anyof_schema``) passes if at least one
  alternative validates.

Events arrive as parsed JSON dicts, so validation stays per-event Python,
but it runs in two tiers. The accept path is generated code:
:func:`compile_accept` turns a schema document into the source of one
Python function whose body is the rule tree unrolled into ``isinstance``
tests, ``in`` tests against constant lists and ``for`` loops over list
elements (alternatives become helper functions), and which returns
``False`` at the first failing rule. It builds no path strings or error
lists and looks up no rule keys at run time. Functions are cached per
process by schema text, so the specs a task unpickles reuse them. Only
a rejected document walks the rule tree again, in the interpreter
(``DocValidator._check_doc``), which builds the error list dead-letter
diagnostics need and stays the reference the differential tests compare
the generated code against. Where a schema document has a shape the
interpreter cannot walk (an unknown type name, rules that are not a
dict), the generated code rejects, so the interpreter's behaviour,
including its exception, is kept. Columnar inputs use the vectorized
``stages/validate.py`` rules instead.
"""

from __future__ import annotations

from collections.abc import Callable
from numbers import Integral

_TYPES = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, Integral),
    "float": lambda v: isinstance(v, (float, Integral)),
    "boolean": lambda v: isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}

# the same tests as _TYPES, as isinstance() class expressions for the
# generated code (int before Integral: an exact-type hit skips the ABC check)
_TYPE_CLASSES = {
    "string": "str",
    "integer": "(int, _Integral)",
    "float": "(float, int, _Integral)",
    "boolean": "bool",
    "dict": "dict",
    "list": "list",
}

# per-process cache of generated accept functions, keyed by schema text:
# specs are unpickled once per task, their schemas are equal but new
# objects, and generating the six production schemas costs ~15 ms
_COMPILED: dict[tuple[str, bool], Callable[[object], bool]] = {}


def compile_accept(
    schema: dict, allow_unknown: bool = True
) -> Callable[[object], bool]:
    """A generated function ``doc -> bool`` that is ``True`` exactly when
    :meth:`DocValidator.validate` finds no error, and ``False`` when it
    finds one or would raise."""
    key = (repr(schema), allow_unknown)
    fn = _COMPILED.get(key)
    if fn is None:
        fn = _COMPILED[key] = _Codegen(allow_unknown).build(schema)
    return fn


def _typed_not_null(rules: dict) -> bool:
    """Whether the generated type test alone rejects ``None`` (and the
    missing-field sentinel): a known type and no ``nullable``."""
    ty = rules.get("type")
    return (
        isinstance(ty, str)
        and ty in _TYPE_CLASSES
        and not rules.get("nullable", False)
    )


class _Codegen:
    """Emits the accept function's source: each ``_doc`` / ``_value``
    call appends lines that ``return False`` when the interpreter's
    ``_check_doc`` / ``_check_value`` would record an error (or raise)
    for the same value, and fall through otherwise."""

    def __init__(self, allow_unknown: bool):
        self.allow_unknown = allow_unknown
        self.consts: dict[str, object] = {"_MISSING": object(), "_Integral": Integral}
        self.helpers: list[str] = []
        self.n = 0

    def build(self, schema) -> Callable[[object], bool]:
        lines = ["def accept(d0):"]
        self._doc(lines, "d0", schema, 1, known_dict=False)
        lines.append("    return True")
        ns = dict(self.consts)
        try:
            exec(compile("\n".join(self.helpers + lines), "<rules>", "exec"), ns)
        except (SyntaxError, RecursionError):
            # nesting deeper than the compiler allows: every document
            # takes the interpreter
            return lambda doc: False
        return ns["accept"]

    def _name(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def _const(self, value) -> str:
        """A source expression for ``value``: a literal for a string or a
        list of strings (``in`` on a tuple is ``in`` on the list), else a
        name bound in the generated module."""
        if type(value) is str:
            return repr(value)
        if type(value) in (list, tuple) and all(type(x) is str for x in value):
            return repr(tuple(value))
        name = self._name("_c")
        self.consts[name] = value
        return name

    def _doc(self, out: list, var: str, schema, ind: int, known_dict: bool) -> None:
        pad = "    " * ind
        if not known_dict:
            out.append(f"{pad}if not isinstance({var}, dict): return False")
        if not isinstance(schema, dict):
            out.append(f"{pad}return False")
            return
        for fname, rules in schema.items():
            if not isinstance(rules, dict):
                out.append(f"{pad}return False")
                return
            v = self._name("v")
            out.append(f"{pad}{v} = {var}.get({self._const(fname)}, _MISSING)")
            if rules.get("required", False):
                if not _typed_not_null(rules):  # else the type test rejects it
                    out.append(f"{pad}if {v} is _MISSING: return False")
                self._value(out, v, rules, ind)
            else:
                out.append(f"{pad}if {v} is not _MISSING:")
                out.append(f"{pad}    pass")
                self._value(out, v, rules, ind + 1)
        if not self.allow_unknown:
            keys = self._const(frozenset(schema))
            k = self._name("k")
            out.append(f"{pad}for {k} in {var}:")
            out.append(f"{pad}    if {k} not in {keys}: return False")

    def _value(self, out: list, var: str, rules, ind: int) -> None:
        pad = "    " * ind
        if not isinstance(rules, dict):
            out.append(f"{pad}return False")
            return
        if rules.get("nullable", False):
            out.append(f"{pad}if {var} is not None:")
            ind += 1
            pad = "    " * ind
            out.append(f"{pad}pass")
        elif not _typed_not_null(rules):
            out.append(f"{pad}if {var} is None: return False")
        ty = rules.get("type")
        shape = None  # what the type rule proves: "dict", "list", "scalar"
        if ty is not None:
            if not (isinstance(ty, str) and ty in _TYPE_CLASSES):
                out.append(f"{pad}return False")
                return
            out.append(
                f"{pad}if not isinstance({var}, {_TYPE_CLASSES[ty]}): return False"
            )
            shape = ty if ty in ("dict", "list") else "scalar"
        allowed = rules.get("allowed")
        if allowed is not None:
            a = self._const(allowed)
            x = self._name("x")
            each = [f"for {x} in {var}:", f"    if {x} not in {a}: return False"]
            one = [f"if {var} not in {a}: return False"]
            if shape == "list":
                out.extend(pad + ln for ln in each)
            elif shape is not None:
                out.extend(pad + ln for ln in one)
            else:
                out.append(f"{pad}if isinstance({var}, list):")
                out.extend(pad + "    " + ln for ln in each)
                out.append(f"{pad}else:")
                out.extend(pad + "    " + ln for ln in one)
        sub = rules.get("schema")
        if sub is not None:
            # field rules on a dict, element rules on a list, an error on
            # anything else; only the branches the type rule leaves open
            if shape == "dict":
                self._doc(out, var, sub, ind, known_dict=True)
            elif shape == "list":
                self._elements(out, var, sub, ind)
            elif shape == "scalar":
                out.append(f"{pad}return False")
                return
            else:
                out.append(f"{pad}if isinstance({var}, dict):")
                self._doc(out, var, sub, ind + 1, known_dict=True)
                out.append(f"{pad}elif isinstance({var}, list):")
                self._elements(out, var, sub, ind + 1)
                out.append(f"{pad}else: return False")
        anyof_schema = rules.get("anyof_schema")
        if anyof_schema is not None:
            if not isinstance(anyof_schema, (list, tuple)):
                out.append(f"{pad}return False")
                return
            self._any(out, var, [{"schema": s} for s in anyof_schema], ind)
        anyof = rules.get("anyof")
        if anyof is not None:
            if not isinstance(anyof, (list, tuple)):
                out.append(f"{pad}return False")
                return
            self._any(out, var, anyof, ind)

    def _elements(self, out: list, var: str, rules, ind: int) -> None:
        e = self._name("e")
        out.append(f"{'    ' * ind}for {e} in {var}:")
        out.append(f"{'    ' * ind}    pass")
        self._value(out, e, rules, ind + 1)

    def _any(self, out: list, var: str, alternatives: list, ind: int) -> None:
        names = []
        for alt in alternatives:
            name = self._name("_alt")
            body = [f"def {name}(a0):"]
            self._value(body, "a0", alt, 1)
            body.append("    return True")
            self.helpers.append("\n".join(body))
            names.append(f"{name}({var})")
        test = " or ".join(names) or "False"
        out.append(f"{'    ' * ind}if not ({test}): return False")


class DocValidator:
    """Validate nested dicts against a Cerberus-style schema document.

    ``validate(doc) -> (ok, errors)`` where ``errors`` is a list of
    dotted-path strings ("detail.evaluation.type: unallowed value X") —
    enough for dead-letter diagnostics without replicating Cerberus's
    nested error-dict shape. A document the generated accept function
    passes returns ``(True, [])`` without walking the rule tree.
    """

    __slots__ = ("schema", "allow_unknown", "_accept")

    def __init__(self, schema: dict, allow_unknown: bool = True):
        self.schema = schema
        self.allow_unknown = allow_unknown
        self._accept = compile_accept(schema, allow_unknown)

    def __reduce__(self):
        # the generated function is not picklable; the receiving process
        # regenerates it (or finds it in its cache)
        return (DocValidator, (self.schema, self.allow_unknown))

    # ------------------------------------------------------------- public
    def validate(self, doc) -> tuple[bool, list[str]]:
        if self._accept(doc):
            return (True, [])
        return self.interpret(doc)

    def interpret(self, doc) -> tuple[bool, list[str]]:
        """The rule-tree walk alone: the error list for a rejected
        document, and the reference the generated code is tested
        against."""
        errors: list[str] = []
        self._check_doc(doc, self.schema, "", errors)
        return (not errors, errors)

    def __call__(self, doc) -> bool:
        return self.validate(doc)[0]

    # ------------------------------------------------------------ internal
    def _check_doc(self, doc, schema: dict, path: str, errors: list[str]) -> None:
        if not isinstance(doc, dict):
            errors.append(f"{path or '<root>'}: must be of dict type")
            return
        for fname, rules in schema.items():
            fpath = f"{path}.{fname}" if path else fname
            if fname not in doc:
                if rules.get("required", False):
                    errors.append(f"{fpath}: required field")
                continue
            self._check_value(doc[fname], rules, fpath, errors)
        if not self.allow_unknown:
            for k in doc:
                if k not in schema:
                    fpath = f"{path}.{k}" if path else k
                    errors.append(f"{fpath}: unknown field")

    def _check_value(self, value, rules: dict, path: str, errors: list[str]) -> None:
        if value is None:
            if not rules.get("nullable", False):
                errors.append(f"{path}: null value not allowed")
            return
        ty = rules.get("type")
        if ty is not None and not _TYPES[ty](value):
            errors.append(f"{path}: must be of {ty} type")
            return  # type failure short-circuits the value rules (Cerberus)
        allowed = rules.get("allowed")
        if allowed is not None:
            vals = value if isinstance(value, list) else [value]
            bad = [v for v in vals if v not in allowed]
            if bad:
                errors.append(f"{path}: unallowed value {bad[0]!r}")
        sub = rules.get("schema")
        if sub is not None:
            if isinstance(value, dict):
                self._check_doc(value, sub, path, errors)
            elif isinstance(value, list):
                for i, el in enumerate(value):
                    self._check_value(el, sub, f"{path}[{i}]", errors)
            else:
                errors.append(f"{path}: schema rule needs a dict or list value")
        anyof_schema = rules.get("anyof_schema")
        if anyof_schema is not None and not self._any_ok(
            value, [{"schema": s} for s in anyof_schema]
        ):
            errors.append(f"{path}: no anyof_schema alternative validated")
        anyof = rules.get("anyof")
        if anyof is not None and not self._any_ok(value, anyof):
            errors.append(f"{path}: no anyof alternative validated")

    def _any_ok(self, value, alternatives: list[dict]) -> bool:
        for alt in alternatives:
            errs: list[str] = []
            self._check_value(value, alt, "", errs)
            if not errs:
                return True
        return False
