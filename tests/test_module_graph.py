"""Which package modules may import what, read from the source with ``ast``.

``ALLOWED`` is the whole import graph of the package: each module against the
package modules it may import, and a new edge fails until the table names it.
``hamflow`` differentiates its own Hamiltonians with ``quadrature.central`` and
``quadrature.richardson``, so it imports nothing from ``symbols``, and the
symbol calculus imports no scipy.  Every import statement counts, deferred
ones inside functions included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scatcalc"

#: every module but ``__init__``, which imports them all to form the package
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

#: module -> the package modules it may import; None: any
ALLOWED = {
    "quadrature": set(),
    "bumps": set(),
    # the one back edge: var_sobolev_norm quantizes its weight with symbols,
    # which builds on grid, so that import is deferred into the function
    "grid": {"quadrature", "symbols"},
    "symbols": {"bumps", "grid", "quadrature"},
    "commutants": {"bumps", "grid", "quadrature"},
    "hamflow": {"grid", "quadrature"},
    "helmholtz": {"grid", "quadrature"},
    "scatter1d": {"grid", "quadrature", "bumps"},
    "radon": {"bumps", "quadrature"},
    "cli": None,
}

#: (module, imported module) -> the one function whose body may hold the import
DEFERRED_ONLY = {("grid", "symbols"): "var_sobolev_norm"}


def _imports(module: str) -> list:
    """(dotted name, enclosing top-level function or class or None) of each
    module that ``scatcalc.<module>`` imports.  Relative names are made
    absolute, and ``from . import x`` counts as ``scatcalc.x``."""
    found = []
    for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["scatcalc" if node.level else "", node.module]))
                names = [base] if node.module else [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(name, owner) for name in names]
    return found


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _package_edges(module: str) -> list:
    """(imported package module, owner) of each package import of `module`;
    the package itself counts as ``__init__``."""
    return [
        ((name.split(".") + ["__init__"])[1], owner)
        for name, owner in _imports(module)
        if _within(name, "scatcalc")
    ]


def test_hamflow_imports_nothing_from_symbols():
    imported = {name for name, _ in _imports("hamflow")}
    assert "scatcalc.quadrature" in imported  # the parse sees the imports it should
    assert not [m for m in imported if _within(m, "scatcalc.symbols")]


def test_symbols_imports_no_scipy():
    imported = {name for name, _ in _imports("symbols")}
    assert "numpy" in imported
    assert not [m for m in imported if _within(m, "scipy")]


def test_every_module_has_a_row():
    assert sorted(ALLOWED) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_stay_in_the_table(module):
    allowed = ALLOWED[module]
    for imported, owner in _package_edges(module):
        assert allowed is None or imported in allowed, f"new edge {module} -> {imported}"
        if (module, imported) in DEFERRED_ONLY:
            assert owner == DEFERRED_ONLY[module, imported], f"{module} -> {imported} outside its function"


def test_the_parse_sees_each_kind_of_edge():
    # module level, deferred into a function, and ``from . import x`` (cli)
    edges = {(m, i) for m in MODULES for i, _ in _package_edges(m)}
    assert {("grid", "quadrature"), ("grid", "symbols"), ("cli", "hamflow"), ("cli", "scatter1d")} <= edges
