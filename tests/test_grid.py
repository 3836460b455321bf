import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from scatcalc.grid import (
    GridBudgetError,
    MASS_TOL,
    GridField,
    QuadratureError,
    SobolevOrder,
    field_from_function,
    fit_growth_exponent,
    fit_log_growth,
    make_grid,
    parseval_defect,
    radial_weighted_mass,
    sobolev_norm,
    spectral_transform,
    truncated_weighted_mass,
    var_sobolev_norm,
)


class TestMakeGrid:
    def test_spacing_example(self):
        spec = make_grid(1, 20.0, 256)
        assert spec.spacing == 0.15625

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(1, 20.0, 257)

    @pytest.mark.parametrize("bad", [(0, 20.0, 64), (4, 20.0, 64)])
    def test_dimension_rejected(self, bad):
        with pytest.raises(ValueError):
            make_grid(*bad)

    def test_two_dimensions_refused(self):
        # no grid of another dimension reaches a 1-D entry point (quantize, DenseOperator,
        # symbol_from_kernel, var_sobolev_norm): it cannot be built
        with pytest.raises(GridBudgetError, match="one-dimensional"):
            make_grid(2, 8.0, 8)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, -1.0, 64)

    def test_oversize_rejected(self):
        with pytest.raises(GridBudgetError, match="budget"):
            make_grid(1, 10.0, 2**25)


class TestTransforms:
    spec = make_grid(1, 20.0, 256)

    def test_gaussian_pair_against_quadrature(self):
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2) / 2))
        uh = spectral_transform(u)
        # oracle: direct quadrature of int exp(-x^2/2) cos(x xi) dx
        for k in (0, 3, 17, 101):
            xi = self.spec.freq_axis()[k]
            val, _ = quad(lambda x: np.exp(-(x**2) / 2) * np.cos(x * xi), -20, 20, limit=200)
            assert abs(uh[k] - val) < 1e-12

    def test_spike_has_constant_modulus_spectrum(self):
        vals = np.zeros(self.spec.size, dtype=complex)
        vals[31] = 1.0
        mods = np.abs(spectral_transform(GridField(self.spec, vals)))
        assert np.allclose(mods, mods[0], rtol=1e-12)

    @pytest.mark.parametrize("n,N", [(1, 64), (1, 256)])
    def test_parseval_random_fields(self, n, N):
        spec = make_grid(n, 8.0, N)
        rng = np.random.default_rng(n)
        for _ in range(5):
            vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            assert parseval_defect(GridField(spec, vals)) < 1e-10

    def test_type_mismatch(self):
        # bare values carry no grid
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2)))
        with pytest.raises(TypeError):
            spectral_transform(u.values)


class TestSobolevNorm:
    spec = make_grid(1, 20.0, 256)

    def test_zero_orders_is_l2(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(self.spec.size) * np.exp(-self.spec.axis() ** 2 / 20)
        u = GridField(self.spec, vals.astype(complex))
        assert sobolev_norm(u, SobolevOrder(0, 0)) == pytest.approx(u.l2_norm(), rel=1e-14)

    def test_gaussian_l2_against_quadrature(self):
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2) / 2))
        val, _ = quad(lambda x: np.exp(-(x**2)), -20, 20)
        assert sobolev_norm(u, SobolevOrder(0, 0)) == pytest.approx(np.sqrt(val), rel=1e-10)

    def test_weighted_norm_against_quadrature(self):
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2) / 2))
        val, _ = quad(lambda x: (1 + x**2) * np.exp(-(x**2)), -20, 20)
        assert sobolev_norm(u, SobolevOrder(0, 1.0)) == pytest.approx(np.sqrt(val), rel=1e-10)

    def test_oscillation_raises_s_norm_like_bracket(self):
        # || e^{i k x} bump ||_{H^2} / || . ||_{L^2} tracks (1 + k^2)
        bump = lambda x: np.exp(-(x**2) / 4)
        ratios = []
        for k in (2.0, 4.0, 8.0):
            u = field_from_function(self.spec, lambda x: np.exp(1j * k * x) * bump(x))
            ratios.append(
                sobolev_norm(u, SobolevOrder(2, 0)) / sobolev_norm(u, SobolevOrder(0, 0))
            )
        for k, rat in zip((2.0, 4.0, 8.0), ratios):
            assert rat == pytest.approx(1 + k**2, rel=0.15)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_monotone_in_orders(self):
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2) / 2))
        n00 = sobolev_norm(u, SobolevOrder(0, 0))
        assert sobolev_norm(u, SobolevOrder(1, 0)) >= n00
        assert sobolev_norm(u, SobolevOrder(0, 1)) >= n00

    def test_variable_order_rejected(self):
        u = field_from_function(self.spec, lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            sobolev_norm(u, SobolevOrder(0, r=lambda x, xi: 0.0 * x[..., 0]))


class TestVarSobolevNorm:
    spec = make_grid(1, 12.0, 96)

    def gaussian(self, center=0.0):
        return field_from_function(self.spec, lambda x: np.exp(-((x - center) ** 2) / 2))

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_constant_order_consistency(self, s):
        u = self.gaussian()
        ordv = SobolevOrder(s=s, r=lambda x, xi: -1.0 + 0.0 * x[..., 0] * xi[..., 0])
        nv = var_sobolev_norm(u, ordv)
        nf = sobolev_norm(u, SobolevOrder(s=s, r=-1.0))
        assert abs(nv - nf) / nf < 1e-6

    def test_support_localization(self):
        # order interpolating +eps / -eps across x = 0; u supported in x < -1
        eps = 0.4
        u = field_from_function(
            self.spec, lambda x: np.exp(-((x + 4.0) ** 2)) * (np.abs(x + 4.0) < 3.0)
        )

        def rvar(x, xi):
            return eps * np.tanh(-4.0 * x[..., 0]) + 0.0 * xi[..., 0]

        nv = var_sobolev_norm(u, SobolevOrder(s=0.0, r=rvar))
        nf = sobolev_norm(u, SobolevOrder(s=0.0, r=eps))
        assert abs(nv - nf) / nf < 0.02

    @pytest.mark.parametrize("xi0", [3.0, -3.0])
    def test_order_that_depends_on_xi(self, xi0):
        # r = -1/2 - 1.25 tanh(x) tanh(xi) is above -1/2 where x xi < 0 (incoming) and
        # below where x xi > 0 (outgoing).  A packet at (x0, xi0) sees the constant
        # order r(x0, xi0): ratios 1.0011 and 0.9988 at x0 = 20 (1.0186 and 0.9989 at
        # x0 = 12), while an order read at xi = 0 or at -xi is off by <x0>^(+-1.24).
        spec, x0 = make_grid(1, 40.0, 256), 20.0
        u = field_from_function(spec, lambda x: np.exp(-((x - x0) ** 2) / 32 + 1j * xi0 * x))

        def order(x, xi):
            return -0.5 - 1.25 * np.tanh(x[..., 0]) * np.tanh(xi[..., 0])

        nv = var_sobolev_norm(u, SobolevOrder(s=0.0, r=order))
        r0 = float(order(np.array([x0]), np.array([xi0])))
        nf = sobolev_norm(u, SobolevOrder(s=0.0, r=r0))
        assert abs(nv / nf - 1.0) < 0.05

    def test_zero_field(self):
        u = GridField(self.spec, np.zeros(self.spec.size, dtype=complex))
        assert var_sobolev_norm(u, SobolevOrder(0, r=lambda x, xi: 0.0 * x[..., 0])) == 0.0

    def test_unbounded_order_rejected(self):
        u = self.gaussian()

        def bad(x, xi):
            with np.errstate(divide="ignore"):
                return 1.0 / (0.0 * x[..., 0] + 0.0 * xi[..., 0])

        with pytest.raises(ValueError, match="unbounded"):
            var_sobolev_norm(u, SobolevOrder(0, r=bad))


def shell_profile(r_amp):
    # |u| ~ r^{r_amp}: the weighted-mass integrand stays integrable at 0
    def u(pts):
        r = np.sqrt(np.sum(pts**2, axis=-1))
        return np.maximum(r, 1e-300) ** r_amp

    return u


class TestTruncatedMass:
    LADDER = [50.0, 100.0, 200.0, 400.0]

    def test_shell_growth_exponents(self):
        # invariant: fitted exponent equals 2r + 1 within 0.05 for r in {-1/4, 0}
        orders = [-0.25, 0.0]
        masses = truncated_weighted_mass(shell_profile(-0.5), orders, self.LADDER, n=2, lam=1.0)
        for col, r in zip(masses.T, orders):
            assert fit_growth_exponent(self.LADDER, col) == pytest.approx(2 * r + 1, abs=0.05)

    def test_mass_against_radial_oracle(self):
        # n = 2: mass = 2 pi int_0^R (1 + r^2)^{r_ord} dr for |u|^2 = 1/r
        [[val]] = truncated_weighted_mass(shell_profile(-0.5), [-0.75], [100.0], n=2, lam=1.0)
        oracle, _ = quad(lambda rr: (1 + rr**2) ** -0.75, 0, 100.0, limit=300)
        assert val == pytest.approx(2 * np.pi * oracle, rel=1e-9)

    def test_log_case(self):
        u = shell_profile(-0.5)
        masses = truncated_weighted_mass(u, [-0.5], self.LADDER, n=2, lam=1.0)
        assert fit_log_growth(self.LADDER, masses[:, 0]) > 0.99

    def test_convergent_case(self):
        u = shell_profile(-0.5)
        m100, m400 = truncated_weighted_mass(u, [-0.75], [100.0, 400.0], n=2, lam=1.0)
        assert m400 / m100 < 1.05

    def test_compact_support_constant_beyond(self):
        def u(pts):
            r2 = np.sum(pts**2, axis=-1)
            return np.where(r2 < 4.0, np.exp(-r2), 0.0)

        vals = truncated_weighted_mass(u, [0.7], [5.0, 10.0, 20.0], n=2, lam=1.0)[:, 0]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)

    def test_monotone_in_radius(self):
        u = shell_profile(-0.5)
        masses = truncated_weighted_mass(u, [0.0], [10, 20, 40], n=2, lam=1.0)[:, 0]
        assert masses[0] < masses[1] < masses[2]

    def test_order_sequence_matches_single_orders(self):
        # one evaluation of u serves every order, with the same values
        calls = []
        base = shell_profile(-0.5)

        def u(pts):
            calls.append(len(pts))
            return base(pts)

        orders = [-0.75, -0.5, 0.0]
        many = truncated_weighted_mass(u, orders, [40.0], n=2, lam=1.0)
        assert len(calls) == 1  # the rule, without a self-check
        single = [truncated_weighted_mass(base, [r], [40.0], n=2, lam=1.0)[0, 0] for r in orders]
        assert many[0].tolist() == single


def bessel_shell(lam):
    # the n = 2 shell integral of a two-harmonic eigenfunction, elementwise in rho
    def shell(rho):
        return jv(0, lam * rho) ** 2 + 0.3 * jv(3, lam * rho) ** 2

    return shell


class TestRadialLadder:
    ORDERS = [-0.75, -0.5, 0.0, 0.4]

    def test_one_shell_call_per_rule(self):
        calls = []

        def shell(rho):
            calls.append(len(rho))
            return bessel_shell(1.0)(rho)

        masses = radial_weighted_mass(shell, self.ORDERS, [5.0, 10.0, 20.0, 40.0], n=2, lam=1.0)
        assert masses.shape == (4, 4)
        # the rule and its self-check: 80 panels of 8 and of 12 nodes up to R = 40
        assert calls == [80 * 8, 80 * 12]

    @pytest.mark.parametrize(
        "lam, radii", [(1.0, [1.0, 2.5, 50.0, 400.0]), (16.0, [1.25, 3.0, 10.75])]
    )
    def test_rungs_on_panel_edges_match_single_radii_bit_for_bit(self, lam, radii):
        # radii on multiples of the panel width min(0.5, 4 / lam): each rung's
        # panels are those of its radius alone, and its mass sums the same terms
        ladder = radial_weighted_mass(bessel_shell(lam), self.ORDERS, radii, n=2, lam=lam)
        for k, R in enumerate(radii):
            alone = radial_weighted_mass(bessel_shell(lam), self.ORDERS, [R], n=2, lam=lam)
            assert np.array_equal(ladder[k], alone[0])

    def test_rungs_between_panel_edges_still_converge(self):
        # lam = 20: panels 0.2 wide, so the rung at 2.5 cuts a panel of the
        # single-radius rule in two; both rules pass the self-check, and agree
        # within its tolerance (about 1e-10 apart)
        ladder = radial_weighted_mass(bessel_shell(20.0), self.ORDERS, [2.5, 5.0], n=2, lam=20.0)
        alone = radial_weighted_mass(bessel_shell(20.0), self.ORDERS, [5.0], n=2, lam=20.0)
        assert np.allclose(ladder[-1], alone[0], rtol=MASS_TOL, atol=0.0)

    @pytest.mark.parametrize("radii", [[10.0, 10.0], [20.0, 10.0], [5.0, 10.0, 7.0]])
    def test_non_increasing_ladder_rejected(self, radii):
        with pytest.raises(ValueError, match="increase"):
            radial_weighted_mass(bessel_shell(1.0), [0.0], radii, n=2, lam=1.0)

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_weighted_mass(bessel_shell(1.0), [0.0], [0.5], n=2, lam=1.0)

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(0)

        def noisy(rho):
            # white noise defeats any fixed quadrature rule
            return rng.standard_normal(len(rho))

        with pytest.raises(QuadratureError):
            radial_weighted_mass(noisy, [0.0], [10.0], n=1, lam=1.0)
