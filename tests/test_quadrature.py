import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from scatcalc.helmholtz import SphereDensity, quadrature_harmonic_defect
from scatcalc.quadrature import _gauss_legendre, central, gauss_panels, product_sphere_rule, richardson


def harmonic_defect(n, nodes, w, degree):
    dens = SphereDensity(n, lambda th: np.ones(len(th)), nodes, w, degree)
    return quadrature_harmonic_defect(dens)


class TestProductSphereRule:
    def test_two_points_on_s0(self):
        nodes, w = product_sphere_rule(1, 0, 0)
        assert nodes.tolist() == [[1.0], [-1.0]] and w.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("K", [8, 17, 64])
    def test_circle_trapezoid_exact_below_node_count(self, K, offset):
        nodes, w = product_sphere_rule(2, 0, K, offset)
        assert nodes.shape == (K, 2)
        assert np.allclose(np.sum(nodes**2, axis=-1), 1.0, atol=1e-15)
        assert harmonic_defect(2, nodes, w, K - 1) < 1e-12
        # e^{iK theta} is aliased onto the constant: the check can fail
        assert harmonic_defect(2, nodes, w, K) > 1.0

    @pytest.mark.parametrize("roll", [0, 1])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("n_polar,n_azimuth", [(4, 8), (6, 13), (10, 21)])
    def test_sphere_product_exact_to_its_degree(self, n_polar, n_azimuth, offset, roll):
        nodes, w = product_sphere_rule(3, n_polar, n_azimuth, offset)
        # the harmonics of degree <= L span a rotation-invariant space, so the
        # rule moved to polar axis e_1 stays exact for harmonics about e_3
        nodes = np.roll(nodes, roll, axis=-1)
        degree = min(2 * n_polar - 1, n_azimuth - 1)
        assert nodes.shape == (n_polar * n_azimuth, 3)
        assert np.allclose(np.sum(nodes**2, axis=-1), 1.0, atol=1e-14)
        assert harmonic_defect(3, nodes, w, degree) < 1e-12

    def test_sphere_polar_degree_limits_exactness(self):
        # P_{2 n_polar}(cos theta) is the first zonal harmonic Gauss misses
        nodes, w = product_sphere_rule(3, 4, 64)
        assert harmonic_defect(3, nodes, w, 7) < 1e-12
        assert harmonic_defect(3, nodes, w, 8) > 1e-6

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            product_sphere_rule(4, 4, 8)


class TestGaussLegendreCache:
    @pytest.mark.parametrize("order", [1, 5, 16, 211])
    def test_numpy_bits_read_only_and_shared(self, order):
        x, w = _gauss_legendre(order)
        ref_x, ref_w = leggauss(order)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        assert not x.flags.writeable and not w.flags.writeable
        again = _gauss_legendre(order)
        assert again[0] is x and again[1] is w


def exact_monomial(lo, hi, k):
    return (np.asarray(hi) ** (k + 1) - np.asarray(lo) ** (k + 1)) / (k + 1)


class TestGaussPanels:
    @pytest.mark.parametrize("n_panels,order", [(1, 1), (1, 5), (3, 4), (7, 12)])
    def test_scalar_endpoints_exact_to_degree(self, n_panels, order):
        lo, hi = -0.3, 2.1
        x, w = gauss_panels(lo, hi, n_panels, order)
        assert x.shape == w.shape == (n_panels * order,)
        assert np.all((x > lo) & (x < hi)) and np.all(np.diff(x) > 0)  # panel by panel
        for k in range(2 * order):
            assert np.sum(w * x**k) == pytest.approx(exact_monomial(lo, hi, k), rel=1e-13, abs=1e-14)

    def test_array_endpoints_broadcast(self):
        lo = np.array([[0.0, -1.0, 0.5], [2.0, -3.0, 1.0]])
        hi = np.array([[1.0, 2.0, 3.0], [2.5, 0.0, 4.0]])
        order = 6
        x, w = gauss_panels(lo, hi, 5, order)
        assert x.shape == w.shape == lo.shape + (5 * order,)
        for k in range(2 * order):
            got = np.sum(w * x**k, axis=-1)
            np.testing.assert_allclose(got, exact_monomial(lo, hi, k), rtol=1e-12, atol=1e-13)

    def test_one_degree_more_is_not_exact(self):
        order = 4
        x, w = gauss_panels(0.0, 1.0, 1, order)
        err = np.sum(w * x ** (2 * order)) - exact_monomial(0.0, 1.0, 2 * order)
        assert abs(err) > 1e-6

    def test_single_panel_on_unit_interval_is_plain_legendre(self):
        x, w = gauss_panels(-1.0, 1.0, 1, 16)
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def sin_at(x0):
    return lambda t: np.sin(x0 + t)


class TestDifferenceRules:
    X0 = 0.3

    def errors(self, rule, steps):
        return np.array([abs(rule(h) - np.cos(self.X0)) for h in steps])

    def test_central_error_falls_fourfold_per_halving(self):
        err = self.errors(lambda h: central(sin_at(self.X0), h), [0.1, 0.05, 0.025])
        np.testing.assert_allclose(err[:-1] / err[1:], 4.0, rtol=0.01)

    def test_richardson_over_central_falls_sixteenfold_per_halving(self):
        def rule(h):
            return richardson(lambda s: central(sin_at(self.X0), s), h, 2)

        err = self.errors(rule, [0.2, 0.1, 0.05])
        np.testing.assert_allclose(err[:-1] / err[1:], 16.0, rtol=0.01)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_richardson_removes_the_h_to_the_p_term_exactly(self, p):
        # dyadic values: every operation below is exact in binary
        assert richardson(lambda h: 3.0 + 0.75 * h**p, 0.5, p) == 3.0

    def test_array_steps_act_elementwise(self):
        x0 = np.array([-1.0, 0.3, 2.0])
        h = 1e-3 * (1.0 + np.abs(x0))
        got = richardson(lambda s: central(sin_at(x0), s), h, 2)
        np.testing.assert_allclose(got, np.cos(x0), rtol=0, atol=1e-12)
