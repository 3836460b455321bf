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
        t = np.array([0.0, 0.1, 0.2, 1.0, 1.5])
        p = self.cut.psi(t)
        assert p[0] == 1.0 and p[1] == 1.0 and p[2] == 1.0
        assert p[3] == 0.0 and p[4] == 0.0

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 1.1, 200)
        assert np.all(np.diff(self.cut.psi(t)) <= 1e-15)

    def test_sqrt_identity(self):
        # -psi' psi = eta^2 / 2 exactly by construction
        t = np.linspace(0.25, 0.95, 60)
        lhs = -self.cut.dpsi(t) * self.cut.psi(t)
        rhs = self.cut.sqrt_neg_psi_dpsi(t) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_dpsi_matches_finite_difference(self):
        t = np.linspace(0.3, 0.9, 25)
        h = 1e-6
        fd = (self.cut.psi(t + h) - self.cut.psi(t - h)) / (2 * h)
        assert np.allclose(fd, self.cut.dpsi(t), rtol=1e-5, atol=1e-10)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            FlatSquareCutoff(1.0, 0.5)

    def test_underflowing_normalisation_rejected(self):
        # eta**2 underflows to 0 on every node of a short enough interval; the
        # cutoff would be NaN, so construction must fail
        with pytest.raises(ValueError, match="integrates to 0"):
            FlatSquareCutoff(0.01, 0.011)
