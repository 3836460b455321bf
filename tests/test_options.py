"""Every defaulted parameter of ``scatcalc`` takes two values in program use.

The source of ``src/scatcalc`` is parsed with ``ast``.  For each parameter
with a default, of a module-level function, of a method or of the
``__init__`` of a dataclass (an init field with a default), the lint collects
what the calls in ``src/`` and ``perfbench/`` pass, by keyword or by
position: a literal counts by its value, any other expression counts as one
value, "varying", and the default counts once some call omits the argument.
A parameter with fewer than two values in use fails, for one of three
reasons:

* never set: no call passes it, so the default belongs inline;
* one literal: every call passes the same literal, so that literal belongs
  inline as a constant;
* default unused: every call passes it, so the parameter belongs required.

A test alone does not justify a knob, so each one kept for a test is listed in
``ALLOWED`` with its reason.

Calls are matched by name (``f(...)``, ``obj.f(...)``, ``Class(...)`` for
``__init__``), so two functions that share a name share their callers, and a
call that unpacks ``*args`` or ``**kwargs`` counts as varying for what it does
not pass by name; both only err towards passing.
"""

from __future__ import annotations

import ast
import functools
import importlib
from collections import defaultdict
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatcalc"
CALLER_DIRS = ("src", "perfbench")
VARYING = "<varying>"
DEFAULT = "<default>"  # a default that is not a literal: one value of its own

#: Kept on purpose although the program uses one value: (module, function,
#: parameter), each for a criterion, an oracle, a model under test or
#: ``main.argv``.
ALLOWED = {
    ("cli", "main", "argv"): "main.argv: the tests drive the command line in-process",
    ("commutants", "build_propagation_commutant", "p1"): "model under test: a subprincipal term",
    ("commutants", "build_propagation_commutant", "r"): "model under test: the weight substitution",
    ("hamflow", "schrodinger_model", "n"): "model under test: the 1-D and 2-D Schrodinger flows",
    ("helmholtz", "build_poisson_series", "oscillation"): "model under test: the incoming step",
    ("helmholtz", "build_poisson_series", "power"): "criterion 12: the wrong power is refused",
    ("helmholtz", "fit_smatrix_phase", "extra_degree"): "criterion 11: drift under refinement",
    ("helmholtz", "sphere_density", "degree"): "oracle: sphere rules of a chosen degree",
    ("radon", "injectivity_probe", "chi"): "criterion 15: the cone-cut 3-D probe",
    ("radon", "injectivity_probe", "n_t"): "criterion 15: the cone-cut 3-D probe",
    ("symbols", "parametrix", "expansion_order"): "model under test: the composition order",
}


def _value(node: ast.expr) -> str:
    """A literal by its value; any other expression is ``VARYING``."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return VARYING


def _default(node: ast.expr) -> str:
    value = _value(node)
    return DEFAULT if value == VARYING else value


def _defaulted(args: ast.arguments, skip_self: bool):
    """(name, position or None, default) of each parameter with a default."""
    positional = args.posonlyargs + args.args
    offset = 1 if skip_self else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - offset, _default(d))
           for i, (a, d) in enumerate(zip(positional[first:], args.defaults), first)]
    out += [(a.arg, None, _default(d))
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _field_options(module: str):
    """(class, field, position or None, default) of each dataclass init field with a default."""
    mod = importlib.import_module(f"scatcalc.{module}".removesuffix(".__init__"))
    for cls in vars(mod).values():
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == mod.__name__:
            init = [f for f in fields(cls) if f.init]
            for pos, f in enumerate(init):
                if f.default is not MISSING:
                    yield cls.__name__, f.name, None if f.kw_only else pos, repr(f.default)
                elif f.default_factory is not MISSING:
                    yield cls.__name__, f.name, None if f.kw_only else pos, DEFAULT


def _options():
    """(module, owner, name, callee name, position, default) of every defaulted parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for name, pos, default in _defaulted(node.args, False):
                    found.append((module, node.name, name, node.name, pos, default))
            elif isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef):
                        continue
                    static = "staticmethod" in {getattr(d, "id", "") for d in meth.decorator_list}
                    callee = node.name if meth.name == "__init__" else meth.name
                    owner = f"{node.name}.{meth.name}"
                    for name, pos, default in _defaulted(meth.args, not static):
                        found.append((module, owner, name, callee, pos, default))
        for cls, name, pos, default in _field_options(module):
            found.append((module, cls, name, cls, pos, default))
    return found


def _callee(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


@functools.cache
def _calls() -> dict:
    """Per callee name, the ``ast.Call`` nodes of ``src/`` and ``perfbench/``."""
    calls = defaultdict(list)
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                name = _callee(call) if isinstance(call, ast.Call) else None
                if name is not None:
                    calls[name].append(call)
    return calls


def _passed(call: ast.Call, name: str, pos: int | None) -> str | None:
    """What ``call`` passes as the parameter, or None when it takes the default."""
    for k in call.keywords:
        if k.arg == name:
            return _value(k.value)
    if pos is not None:
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred):
                return VARYING
            if i == pos:
                return _value(a)
    if any(k.arg is None for k in call.keywords):
        return VARYING
    return None


def _why(values: list, default: str) -> str | None:
    """Why one parameter fails the rule, or None when it takes two values."""
    in_use = {default if v is None else v for v in values}
    if len(in_use) >= 2:
        return None
    passed = [v for v in values if v is not None]
    if not passed:
        return "never set"
    if passed[0] == VARYING:
        return "default unused: every call passes it"
    return f"one literal: {passed[0]} at {len(values)} call(s)"


@functools.cache
def _flagged() -> dict:
    """(module, owner, parameter) -> why, for each parameter that fails the rule."""
    calls = _calls()
    out = {}
    for module, owner, name, callee, pos, default in _options():
        why = _why([_passed(c, name, pos) for c in calls[callee]], default)
        if why is not None:
            out[(module, owner, name)] = why
    return out


def test_every_option_has_a_caller():
    bad = {opt: why for opt, why in _flagged().items() if opt not in ALLOWED}
    assert not bad, "defaulted parameters with fewer than two values in use:\n" + "\n".join(
        f"  {m}.{o}({p}): {why}" for (m, o, p), why in sorted(bad.items())
    )


@pytest.mark.parametrize("kept", sorted(ALLOWED), ids=lambda k: ".".join(k))
def test_allowlist_entry_is_still_unset(kept):
    # an entry that the program now uses with two values, or that is gone,
    # leaves the allowlist
    assert kept in _flagged()
