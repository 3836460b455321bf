"""Every name a module exports through ``__all__`` exists."""

import pytest

MODULES = (
    "bumps", "cli", "commutants", "grid", "hamflow", "helmholtz", "quadrature", "radon",
    "scatter1d", "symbols",
)


def test_package_star_import():
    namespace = {}
    exec("from scatcalc import *", namespace)
    assert {"grid", "symbols", "radon"} <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_module_star_import(module):
    namespace = {}
    exec(f"from scatcalc.{module} import *", namespace)
    exported = __import__(f"scatcalc.{module}", fromlist=["__all__"]).__all__
    assert set(exported) <= set(namespace)
