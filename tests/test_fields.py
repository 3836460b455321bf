"""Every dataclass field of ``scatcalc`` has a reader.

The source of ``src/scatcalc`` is parsed with ``ast``.  Each field of a
dataclass (a class decorated with ``dataclass`` or ``dataclass(...)``) must be
read by at least one attribute load ``obj.<field>`` in ``src/``, ``tests/`` or
``perfbench/``.  A field that is set but never read is state that no code
depends on: it belongs deleted, together with the code that only fills it.

Reads are matched by attribute name, so two fields that share a name share
their readers; that only errs towards passing.  A name passed to ``getattr``
as a string is not a read.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatcalc"
READER_DIRS = ("src", "tests", "perfbench")

#: Kept on purpose although nothing reads them: (module, class, field).
ALLOWED: dict = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _fields():
    """(module, class, field) of every dataclass field in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    (path.stem, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return found


def _reads() -> set:
    """Every attribute name that some expression loads."""
    names = set()
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            names.update(
                node.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    return names


@functools.cache
def _unread() -> tuple:
    reads = _reads()
    return tuple(sorted(f for f in _fields() if f[2] not in reads))


def test_every_field_has_a_reader():
    unread = [f for f in _unread() if f not in ALLOWED]
    assert not unread, "dataclass fields that nothing reads: " + ", ".join(
        ".".join(f) for f in unread
    )


def test_allowlist_entries_are_still_unread():
    # an entry that now has a reader, or that is gone, leaves the allowlist
    stale = [f for f in sorted(ALLOWED) if f not in _unread()]
    assert not stale, "allowlisted fields that are read or gone: " + ", ".join(
        ".".join(f) for f in stale
    )
