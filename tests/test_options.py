"""Every defaulted parameter of ``scatcalc`` has a caller that sets it.

The source of ``src/scatcalc`` is parsed with ``ast``.  Each parameter with a
default, of a module-level function, of a method or of the ``__init__`` of a
dataclass (an init field with a default), must be passed, by keyword or by
position, by at least one call in ``src/`` or ``perfbench/``.  A default that
the program never overrides belongs inline, as the value it always is; a test
alone does not justify a knob, so each one that only tests set is listed in
``ALLOWED`` with its reason.

Calls are matched by name (``f(...)``, ``obj.f(...)``, ``Class(...)`` for
``__init__``), so two functions that share a name share their callers; that
only errs towards passing.
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

#: Kept on purpose although only tests set them: (module, function, parameter),
#: each for a criterion, an oracle, a model under test or ``main.argv``.
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


def _defaulted(args: ast.arguments, skip_self: bool):
    """(name, position or None) of each parameter with a default."""
    positional = args.posonlyargs + args.args
    offset = 1 if skip_self else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _field_options(module: str):
    """(class, field, position or None) of each dataclass init field with a default."""
    mod = importlib.import_module(f"scatcalc.{module}".removesuffix(".__init__"))
    for cls in vars(mod).values():
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == mod.__name__:
            init = [f for f in fields(cls) if f.init]
            for pos, f in enumerate(init):
                if f.default is not MISSING or f.default_factory is not MISSING:
                    yield cls.__name__, f.name, None if f.kw_only else pos


def _options():
    """(module, owner, name, callee name, position) of every defaulted parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for name, pos in _defaulted(node.args, False):
                    found.append((module, node.name, name, node.name, pos))
            elif isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef):
                        continue
                    static = "staticmethod" in {getattr(d, "id", "") for d in meth.decorator_list}
                    callee = node.name if meth.name == "__init__" else meth.name
                    for name, pos in _defaulted(meth.args, not static):
                        found.append((module, f"{node.name}.{meth.name}", name, callee, pos))
        for cls, name, pos in _field_options(module):
            found.append((module, cls, name, cls, pos))
    return found


def _callee(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _calls():
    """Per callee name: the keywords passed and the largest positional count."""
    keywords = defaultdict(set)
    n_positional = defaultdict(int)
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                name = _callee(call) if isinstance(call, ast.Call) else None
                if name is None:
                    continue
                keywords[name].update(k.arg for k in call.keywords if k.arg is not None)
                plain = [a for a in call.args if not isinstance(a, ast.Starred)]
                n_positional[name] = max(n_positional[name], len(plain))
    return keywords, n_positional


@functools.cache
def _unset() -> tuple:
    keywords, n_positional = _calls()
    return tuple(sorted(
        (module, owner, name)
        for module, owner, name, callee, pos in _options()
        if name not in keywords[callee] and (pos is None or n_positional[callee] <= pos)
    ))


def test_every_option_has_a_caller():
    unset = [opt for opt in _unset() if opt not in ALLOWED]
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(
        f"{m}.{o}({p})" for m, o, p in unset
    )


@pytest.mark.parametrize("kept", sorted(ALLOWED), ids=lambda k: ".".join(k))
def test_allowlist_entry_is_still_unset(kept):
    # an entry that a caller now sets, or that is gone, leaves the allowlist
    assert kept in _unset()
