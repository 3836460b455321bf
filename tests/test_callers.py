"""Every public function, class, method and property of ``scatcalc`` has a reader in ``src/``.

The source of ``src/scatcalc`` is parsed with ``ast``.  Each public (no
leading underscore) module-level function or class, and each public method or
property of a module-level class, must be referenced by an ``ast.Name`` or an
``ast.Attribute`` somewhere in ``src/`` outside its own definition: a call,
an annotation, a table entry.  A name that only tests use is an oracle or a
criterion kept in the package; it stays only with a reason in ``ALLOWED``,
keyed ``(module, name)`` or ``(module, "Class.method")``.  Strings
(``__all__``) do not count.

References are matched by name, so two definitions that share a name share
their readers; that only errs towards passing.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scatcalc"

#: Kept on purpose although nothing in ``src/`` reads them: (module, name or
#: "Class.method").
ALLOWED = {
    ("grid", "parseval_defect"): "oracle of the FFT normalization",
    ("hamflow", "boundary_chart_field"): "oracle of the boundary Hamilton field",
    ("hamflow", "chart_field_by_limit"): "oracle of the rescaled chart fields",
    ("hamflow", "schrodinger_model"): "model under test",
    ("helmholtz", "fit_smatrix_phase"): "criterion 11",
    ("helmholtz", "free_scattering_matrix"): "criterion 11",
    ("helmholtz", "pde_residual_patch"): "oracle of the synthesis",
    ("helmholtz", "quadrature_harmonic_defect"): "oracle of the sphere rules",
    ("helmholtz", "rotate_density"): "criterion 12",
    ("helmholtz", "series_residual_slope"): "criterion 12",
    ("radon", "normal_symbol_hankel"): "tracer target",
    ("scatter1d", "lg_profile_residual"): "criterion 14",
    ("scatter1d", "lg_tail_masses"): "criterion 14",
    ("scatter1d", "symmetry_boundary_term"): "criterion 14",
    ("symbols", "classical_limit_consistency"): "oracle of the symbol calculus",
    ("symbols", "identity_operator"): "oracle of the kernel round trip",
    ("symbols", "operator_norm_estimate"): "oracle of the operator norms",
    ("symbols", "parametrix"): "criterion 3",
    ("symbols", "poisson_bracket"): "criterion 2",
}


def _referenced_names(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public_definitions(module: ast.Module):
    """(label, node) of each public module-level function or class, and of
    each public method or property of a module-level class."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


@functools.cache
def _unread() -> tuple:
    """(module, label) of each public definition that nothing in ``src/``
    reads, its own definition excepted."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    return tuple(
        sorted(
            (module, label)
            for module, tree in trees.items()
            for label, node in _public_definitions(tree)
            if readers[node.name] == _referenced_names(node)[node.name]
        )
    )


def test_every_public_name_has_a_reader():
    unread = [d for d in _unread() if d not in ALLOWED]
    assert not unread, "public names that nothing in src/ reads: " + ", ".join(
        f"{m}.{n}" for m, n in unread
    )


@pytest.mark.parametrize("kept", sorted(ALLOWED), ids=lambda k: ".".join(k))
def test_allowlist_entry_is_still_unread(kept):
    # an entry that gains a reader in src/, or that is gone, leaves the allowlist
    assert kept in _unread()
