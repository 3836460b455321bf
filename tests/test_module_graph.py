"""Which package modules may import what, read from the source with ``ast``.

``hamflow`` differentiates its own Hamiltonians with ``quadrature.central`` and
``quadrature.richardson``, so it imports nothing from ``symbols``, and the
symbol calculus imports no scipy.  Every import statement counts, deferred
ones inside functions included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scatcalc"


def _imported_modules(module: str) -> set:
    """Dotted names of the modules that ``scatcalc.<module>`` imports; relative
    names keep their leading dots, and ``from . import x`` counts as ".x"."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.update([base] if node.module else (base + alias.name for alias in node.names))
    return names


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_hamflow_imports_nothing_from_symbols():
    imported = _imported_modules("hamflow")
    assert ".quadrature" in imported  # the parse sees the imports it should
    assert not [m for m in imported if _within(m, ".symbols") or _within(m, "scatcalc.symbols")]


def test_symbols_imports_no_scipy():
    imported = _imported_modules("symbols")
    assert "numpy" in imported
    assert not [m for m in imported if _within(m, "scipy")]
