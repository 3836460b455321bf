import numpy as np
import pytest

from scatcalc.bumps import (
    FlatSquareCutoff,
    chi0,
    chi0_prime,
    plateau,
    smoothstep,
    smoothstep_prime,
    sqrt_chi0_over_t2,
)


def test_chi0_basic_values():
    t = np.array([-1.0, 0.0, 1.0, 2.0])
    v = chi0(t, 2.0)
    assert v[0] == 0.0 and v[1] == 0.0
    assert np.isclose(v[2], np.exp(-2.0))
    assert np.isclose(v[3], np.exp(-1.0))


def test_chi0_derivative_identity():
    # chi0' = chi0 / t^2 at digamma 1, checked against finite differences
    t = np.linspace(0.3, 3.0, 40)
    h = 1e-6
    fd = (chi0(t + h) - chi0(t - h)) / (2 * h)
    assert np.allclose(fd, chi0_prime(t), rtol=1e-7, atol=1e-12)


def test_sqrt_chi0_over_t2_squares_back():
    t = np.linspace(0.05, 2.0, 50)
    assert np.allclose(sqrt_chi0_over_t2(t, 3.0) ** 2, chi0(t, 3.0) / t**2)


def test_smoothstep_range_and_monotonicity():
    u = np.linspace(-0.5, 1.5, 101)
    s = smoothstep(u)
    assert np.all(s[u <= 0] == 0.0)
    assert np.all(s[u >= 1] == 1.0)
    assert np.all(np.diff(s) >= 0)
    assert np.all(smoothstep_prime(u) >= 0)


def test_plateau_support():
    t = np.linspace(-3, 3, 121)
    p = plateau(t, 1.0, 2.0)
    assert np.all(p[np.abs(t) <= 1.0] == 1.0)
    assert np.all(p[np.abs(t) >= 2.0] == 0.0)
    assert np.all((0 <= p) & (p <= 1))


class TestFlatSquareCutoff:
    cut = FlatSquareCutoff(0.2, 1.0)

    def test_plateau_and_support(self):
        # exact values, not approximations: s is exactly 0 or 1 off (t1, t2)
        t = np.linspace(0.0, 1.5, 301)
        p, e = self.cut.psi(t), self.cut.eta(t)
        assert np.all(p[t <= 0.2] == 1.0)
        assert np.all(p[t >= 1.0] == 0.0)
        assert np.all(e[(t <= 0.2) | (t >= 1.0)] == 0.0)

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 1.1, 2001)
        assert np.all(np.diff(self.cut.psi(t)) <= 0.0)

    def test_sqrt_identity(self):
        # -(psi^2)' = eta^2 against a central difference at h = 1e-6: the
        # rounding error eps / h is about 2e-10 of psi^2 <= 1, the truncation
        # error h^2 far below it
        t = np.linspace(0.21, 0.99, 79)
        h = 1e-6
        fd = -(self.cut.psi(t + h) ** 2 - self.cut.psi(t - h) ** 2) / (2 * h)
        e2 = self.cut.eta(t) ** 2
        assert np.allclose(fd, e2, rtol=0.0, atol=1e-9 * e2.max())

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            FlatSquareCutoff(1.0, 0.5)
