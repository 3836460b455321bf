import gc
import inspect
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import jv

from scatcalc.cli import load_config, run_experiment
from scatcalc.grid import GridBudgetError, QuadratureError, radial_weighted_mass
from scatcalc.helmholtz import (
    FREE_SMATRIX_PHASE,
    PowerMismatchError,
    SphereDensity,
    asymptotic_profile,
    boundary_pairing_check,
    build_poisson_series,
    eigenfunction_evaluator,
    error_slope,
    fit_smatrix_phase,
    free_scattering_matrix,
    harmonic_power,
    pde_residual_patch,
    poisson_series_step,
    quadrature_harmonic_defect,
    radial_derivative_evaluator,
    rotate_density,
    series_evaluator,
    series_obstruction,
    series_residual_slope,
    solution_from_series,
    sphere_density,
    sphere_rule,
    stationary_phase_leading,
    threshold_scan,
)
from scatcalc.helmholtz import _fold, _probe_directions, _required_degree, _rule_sizes
from scatcalc.quadrature import _cos_sin_from_half, product_sphere_rule

LAM = 1.0


def smooth_density_2d():
    return sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])


class TestQuadrature:
    def test_harmonics_integrate_exactly(self):
        for n in (2, 3):
            dens = sphere_density(n, lambda th: np.ones(len(th)), degree=24)
            assert quadrature_harmonic_defect(dens) < 1e-12


class TestEigenfunction:
    def test_constant_density_sinc_profile(self):
        # n = 3, f == 1: closed-form sphere integral gives the sinc profile
        f = sphere_density(3, lambda th: np.ones(len(th), dtype=complex))
        x = np.array([0.7, -0.2, 0.4])
        r = np.linalg.norm(x)
        oracle, _ = quad(lambda c: np.cos(LAM * r * c), -1.0, 1.0)
        expected = (2 * np.pi) ** -3 * LAM**2 * 2 * np.pi * oracle
        assert eigenfunction_evaluator(f, LAM)(x) == pytest.approx(expected, rel=1e-12)

    def test_value_at_origin(self):
        f = smooth_density_2d()
        nodes, w = sphere_rule(2, 64)
        integral = np.sum(w * f(nodes))
        assert eigenfunction_evaluator(f, LAM)(np.zeros(2)) == pytest.approx(
            (2 * np.pi) ** -2 * integral, rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_pde_residual_on_patch(self, n):
        if n == 2:
            f = smooth_density_2d()
            center = [0.5, -0.3]
        else:
            f = sphere_density(3, lambda th: 1.0 + 0.3 * th[:, 2])
            center = [0.4, 0.1, -0.2]
        assert pde_residual_patch(f, LAM, center) < 1e-8


def generic_density(n, degree):
    # no symmetry under theta -> -theta, so G_+ + G_- and G_+ - G_- differ
    a, b, c = (0, 1, 0) if n == 2 else (2, 0, 1)
    return sphere_density(
        n, lambda th: 1.0 + 0.5 * th[:, a] + 0.2j * th[:, b] + 0.3 * th[:, c] ** 2, degree
    )


def direct_sums(dens, lam, pts):
    """The oracle: u and d_r u as plain sums pref sum g w e^{i lam x.theta}
    over every node, and the scale pref sum |g w|."""
    pref = (2 * np.pi) ** -dens.n * lam ** (dens.n - 1)
    gw = dens(dens.nodes) * dens.weights
    r = np.linalg.norm(pts, axis=-1)
    dots = (pts / r[:, None]) @ dens.nodes.T
    waves = np.exp(1j * lam * r[:, None] * dots)
    return pref * (waves @ gw), pref * ((1j * lam * dots * waves) @ gw), pref * np.sum(np.abs(gw))


class TestFoldedSynthesis:
    LAM = 1.7

    def points(self, n, lam_r):
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((9, n))
        return lam_r / self.LAM * dirs / np.linalg.norm(dirs, axis=-1)[:, None]

    def assert_matches_direct_sum(self, dens, pts):
        u, du, scale = direct_sums(dens, self.LAM, pts)
        assert np.max(np.abs(eigenfunction_evaluator(dens, self.LAM)(pts) - u)) < 1e-13 * scale
        assert np.max(np.abs(radial_derivative_evaluator(dens, self.LAM)(pts) - du)) < 1e-13 * scale

    @pytest.mark.parametrize("lam_r", [5.0, 50.0, 200.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_antipodal_pairs_match_direct_sum(self, n, lam_r):
        # an odd-degree rule (antipodally closed) past the one these points
        # need, so the evaluator sums over exactly its nodes
        dens = generic_density(n, _required_degree(self.LAM, 1.01 * lam_r / self.LAM) | 1)
        self.assert_matches_direct_sum(dens, self.points(n, lam_r))

    @pytest.mark.parametrize("n,count", [(2, 3000), (3, 200)])
    def test_blocks_of_shell_points_match_direct_sum(self, n, count):
        # radii up to lam |x| = 52, and enough points for several blocks;
        # relative to the largest |u| and |d_r u|
        rng = np.random.default_rng(8)
        dirs = rng.standard_normal((count, n))
        pts = rng.uniform(0.1, 40.0, count)[:, None] * dirs / np.linalg.norm(dirs, axis=-1)[:, None]
        dens = generic_density(n, _required_degree(1.3, 40.0) | 1)
        u, du, _ = direct_sums(dens, 1.3, pts)
        for evaluator, want in ((eigenfunction_evaluator, u), (radial_derivative_evaluator, du)):
            got = evaluator(dens, 1.3)(pts)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3])
    def test_unclosed_node_set_matches_direct_sum(self, n):
        full = generic_density(n, _required_degree(self.LAM, 51.0 / self.LAM) | 1)
        keep = full.nodes[:, 0] > -0.3
        dens = SphereDensity(n, full.eval, full.nodes[keep], full.weights[keep], full.degree)
        self.assert_matches_direct_sum(dens, self.points(n, 50.0))

    @pytest.mark.parametrize("evaluator", [eigenfunction_evaluator, radial_derivative_evaluator])
    def test_dense_shells_stay_in_cache_sized_blocks(self, evaluator):
        # the threshold runner's cross-check: 800 shells x 48 angles to R = 50
        f = sphere_density(2, lambda th: 1.0 + 0.45 * th[:, 0] + 0.2j * th[:, 1])
        ang = 2 * np.pi * np.arange(48) / 48
        rho = np.linspace(50.0 / 800, 50.0, 800)
        pts = (rho[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)).reshape(-1, 2)
        u = evaluator(f, 1.0)
        tracemalloc.start()
        try:
            u(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 38400
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("evaluator", [eigenfunction_evaluator, radial_derivative_evaluator])
    @pytest.mark.parametrize("lam", [-1.0, 0.0])
    def test_nonpositive_lambda_rejected(self, evaluator, lam):
        with pytest.raises(ValueError, match="lambda"):
            evaluator(smooth_density_2d(), lam)

    def test_radial_derivative_rejects_origin(self):
        du = radial_derivative_evaluator(smooth_density_2d(), LAM)
        with pytest.raises(ValueError, match="x = 0"):
            du(np.zeros(2))
        with pytest.raises(ValueError, match="x = 0"):
            du(np.array([[3.0, 0.0], [0.0, 0.0]]))


def fold_by_index(dens):
    """The oracle of ``_fold``: the same pairs by fancy-index copies, and the
    (real, imaginary) columns by ``np.stack``."""
    gw = dens(dens.nodes) * dens.weights
    plus, gm = np.arange(len(gw)), 0.0
    n_rings, n_azimuth = _rule_sizes(dens.degree)
    n_rings = 1 if dens.n == 2 else n_rings
    if n_azimuth % 2 == 0 and len(gw) == n_rings * n_azimuth:
        idx, half = plus.reshape(n_rings, n_azimuth), n_azimuth // 2
        p, m = idx[:, :half].ravel(), idx[::-1, half:].ravel()
        if np.array_equal(dens.nodes[m], -dens.nodes[p]):
            plus, gm = p, gw[m]
    gp = gw[plus]
    columns = [np.stack([s.real, s.imag], -1) for s in (gp + gm, 1j * (gp - gm))]
    return (dens.nodes[plus], *columns)


def raw_product_density(n, degree):
    # the product rule of an odd degree without the antipodal fix-up: as many
    # nodes as the closed rule, but -theta is off by rounding
    base = generic_density(n, degree)
    nodes, w = product_sphere_rule(n, *_rule_sizes(degree))
    return SphereDensity(n, base.eval, nodes, w, degree)


ROTATION = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]


class TestFold:
    @pytest.mark.parametrize(
        "make,pairs",
        [
            (lambda: generic_density(2, 121), True),
            (lambda: generic_density(2, 421), True),
            (lambda: generic_density(3, 121), True),
            (lambda: generic_density(3, 421), True),
            (lambda: generic_density(3, 120), False),  # even degree: odd azimuth count
            (lambda: generic_density(2, 120), False),
            (lambda: rotate_density(generic_density(3, 421), ROTATION), True),
            (lambda: raw_product_density(3, 121), False),
            (lambda: raw_product_density(2, 421), False),
        ],
        ids=["2-121", "2-421", "3-121", "3-421", "3-120", "2-120", "3-421-rotated",
             "3-121-raw", "2-421-raw"],
    )
    def test_bit_for_bit_against_fancy_index_fold(self, make, pairs):
        dens = make()
        got, want = _fold(dens), fold_by_index(dens)
        assert len(got[0]) == (len(dens.nodes) // 2 if pairs else len(dens.nodes))
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.fixture
def gc_off():
    """No cyclic collection: what is still alive is held by a reference."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def synth_state(u):
    """The evaluator closure's rule in use and its fold, as the benchmark's
    tracer reads them for ``helmholtz.synth_terms``."""
    return inspect.getclosurevars(u).nonlocals["state"]


class TestSynthesisState:
    LAM = 1.3
    EVALUATORS = [eigenfunction_evaluator, radial_derivative_evaluator]

    def points(self, n, r):
        dirs = np.random.default_rng(6).standard_normal((9, n))
        return r * dirs / np.linalg.norm(dirs, axis=-1)[:, None]

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_state_holds_the_rule_in_use(self, n, which):
        u = self.EVALUATORS[which](generic_density(n, 48), self.LAM)
        degree = 48
        for r in (20.3, 60.3, 30.3):  # raise, raise, and keep the larger rule
            pts = self.points(n, r)
            got = u(pts)
            degree = max(degree, _required_degree(self.LAM, r) | 1)
            dens = synth_state(u)["dens"]
            assert np.array_equal(dens.nodes, sphere_rule(n, degree)[0])
            sums = direct_sums(dens, self.LAM, pts)
            assert np.max(np.abs(got - sums[which])) < 1e-13 * sums[2]

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_used_closure_dies_with_its_last_reference(self, gc_off, evaluator):
        u = evaluator(generic_density(3, 48), self.LAM)
        u(np.array([30.0, 40.0, 0.0]))  # one point
        u(self.points(3, 60.0))
        state = synth_state(u)
        refs = [weakref.ref(x) for x in (u, state["dens"], state["folded"][0])]
        del u, state
        assert [r() for r in refs] == [None, None, None]

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_raise_drops_the_previous_rule_first(self, gc_off, evaluator):
        base, refs, seen = generic_density(3, 48), [], []

        def g(theta):
            seen.append([r() is not None for r in refs])
            return base.eval(theta)

        u = evaluator(replace(base, eval=g), self.LAM)
        u(self.points(3, 40.0))
        state = synth_state(u)
        assert state["dens"].degree > base.degree
        refs[:] = weakref.ref(state["dens"]), weakref.ref(state["folded"][0])
        seen.clear()
        u(self.points(3, 80.0))
        # the next rule's density values are taken with the previous rule gone
        assert seen == [[False, False]]
        assert state["dens"].degree > _required_degree(self.LAM, 40.0)

    def test_helmholtz_runner_peak(self, gc_off, tmp_path):
        # The runner's largest rule is the degree-421 rule on S^2: 89,042
        # nodes, 2.85 MB of nodes and weights.  Its fold holds half the nodes
        # and two (pairs, 2) columns, 2.49 MB, and is built from the density
        # values g and g w, 2.85 MB: about 8.2 MB with one rule at a time.
        # Cached rules and a closure kept alive by a cycle read 25.0 MiB.
        path = tmp_path / "helmholtz.json"
        path.write_text("{}")
        cfg = load_config(str(path), "helmholtz")
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 10 * 2**20


def half_angle_trig(a):
    return _cos_sin_from_half(0.5 * np.asarray(a, dtype=float))


class TestHalfAngleTrig:
    """The synthesis kernels' cos and sin, from tan(a/2), against libm's."""

    @staticmethod
    def assert_matches_libm(a):
        c, s = half_angle_trig(a)
        assert np.max(np.abs(c - np.cos(a))) <= 4.5e-16
        assert np.max(np.abs(s - np.sin(a))) <= 4.5e-16

    @pytest.mark.parametrize("bound", [1.0, 10.0, 150.0, 1e3, 1e5, 1e7])
    def test_uniform_samples(self, bound):
        self.assert_matches_libm(np.random.default_rng(5).uniform(-bound, bound, 1 << 16))

    @pytest.mark.parametrize("period", [np.pi, np.pi / 2])
    def test_near_odd_multiples(self, period):
        # tan(a/2) is largest at odd multiples of pi, and cos a passes 0 at
        # odd multiples of pi/2
        base = np.arange(-20001, 20002, 2) * period
        for a in (np.nextafter(base, -np.inf), base, np.nextafter(base, np.inf)):
            self.assert_matches_libm(a)

    def test_signed_zero(self):
        c, s = half_angle_trig([0.0, -0.0])
        assert list(c) == [1.0, 1.0]
        assert list(s) == [0.0, 0.0] and list(np.signbit(s)) == [False, True]

    def test_non_finite_gives_nan(self):
        with np.errstate(invalid="ignore"):
            c, s = half_angle_trig([np.inf, -np.inf, np.nan])
        assert np.isnan(c).all() and np.isnan(s).all()

    def test_works_in_place(self):
        half = np.linspace(-3.0, 3.0, 7)
        c, s = _cos_sin_from_half(half)
        assert s is half and not np.shares_memory(c, half)


class TestSphereRule:
    @pytest.mark.parametrize("n", [2, 3])
    def test_raised_rule_is_antipodal_and_read_only(self, n):
        dens = sphere_density(n, lambda th: np.ones(len(th))).with_degree(120)
        assert dens.degree == 121
        n_polar, n_azimuth = _rule_sizes(121)
        grid = dens.nodes.reshape(-1, n_azimuth, n)
        assert len(grid) == (1 if n == 2 else n_polar) and n_azimuth % 2 == 0
        # node (ring P-1-i, azimuth k+K/2) is exactly -(node (i, k))
        np.testing.assert_array_equal(grid[::-1, n_azimuth // 2 :], -grid[:, : n_azimuth // 2])
        assert not dens.nodes.flags.writeable and not dens.weights.flags.writeable
        with pytest.raises(ValueError):
            dens.nodes[0, 0] = 0.0

    @pytest.mark.parametrize("degree", [2, 8, 48, 64, 120, 520])
    @pytest.mark.parametrize("n", [2, 3])
    def test_even_degree_is_the_product_rule(self, n, degree):
        nodes, w = sphere_rule(n, degree)
        ref_nodes, ref_w = product_sphere_rule(n, *_rule_sizes(degree))
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(w, ref_w)

    @pytest.mark.parametrize("n,degree", [(2, 2**24), (3, 5800)])
    def test_oversize_rule_refused(self, n, degree):
        # 2^24 + 1 azimuths; 2901 rings x 5801 azimuths = 1.68e7 nodes
        with pytest.raises(GridBudgetError, match="budget"):
            sphere_rule(n, degree)

    @pytest.mark.parametrize("lam", [1e9, 1e308])
    def test_error_slope_refuses_before_synthesis(self, lam):
        # the largest radius's rule is checked before any synthesis, and a
        # non-finite lam R is refused too
        with pytest.raises(GridBudgetError, match="budget"):
            error_slope(sphere_density(2, lambda th: np.ones(len(th))), lam, [1.0, 400.0])

    def test_probe_directions_unchanged(self):
        # the degree-8 rule: 9 azimuths (5 Gauss rings on S^2), strides 2 and 11
        phi = 2.0 * np.pi * np.arange(0, 9, 2) / 9
        np.testing.assert_array_equal(_probe_directions(2, 4), np.stack([np.cos(phi), np.sin(phi)], -1))
        c = leggauss(5)[0]
        s = np.sqrt(1.0 - c**2)
        expected = np.stack([s * np.cos(phi), s * np.sin(phi), c], -1)
        np.testing.assert_array_equal(_probe_directions(3, 4), expected)



class TestStationaryPhase:
    def test_error_slope_n2(self):
        slope = error_slope(smooth_density_2d(), LAM, np.geomspace(20, 200, 8))
        assert slope == pytest.approx(-1.5, abs=0.2)

    def test_antipodal_term_vanishes(self):
        # density zero at +xhat, nonzero at -xhat: only the incoming wave
        f = sphere_density(2, lambda th: (1.0 - th[:, 0]) / 2.0)
        x = np.array([50.0, 0.0])
        lead = stationary_phase_leading(f, LAM, x)
        incoming_only = (
            (2 * np.pi) ** -2
            * LAM
            * (2 * np.pi / LAM) ** 0.5
            * np.exp(-1j * (LAM * 50.0 - np.pi / 4))
            * f(np.array([[-1.0, 0.0]]))[0]
            / np.sqrt(50.0)
        )
        assert lead == pytest.approx(incoming_only, rel=1e-12)

    def test_support_away_from_caps_decays_fast(self):
        from scatcalc.bumps import plateau

        f = sphere_density(
            2,
            lambda th: plateau(np.arctan2(th[:, 1], th[:, 0]) - np.pi / 2, 0.3, 0.6).astype(
                complex
            ),
        )
        u = eigenfunction_evaluator(f, LAM)
        d = np.array([[1.0, 0.0]])
        rs = np.geomspace(10, 50, 6)
        vals = [abs(complex(u(r * d)[0])) for r in rs]
        lead = [abs(np.atleast_1d(stationary_phase_leading(f, LAM, r * d))[0]) for r in rs]
        assert max(lead) == 0.0
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert slope < -0.5 - 1.0  # much faster than the generic r^{-1/2}


class TestProfiles:
    def test_plus_minus_norms_equal(self):
        prof = asymptotic_profile(smooth_density_2d(), LAM)
        assert prof.f_plus.l2_norm() == pytest.approx(prof.f_minus.l2_norm(), rel=1e-12)


class TestLeadingTermOracles:
    """Closed forms of the leading term that read neither far-field formula."""

    def test_constant_density_n3_is_exact(self):
        # g == 1: u = lam sin(lam r) / (2 pi^2 r), and the two stationary
        # points reproduce it exactly
        lam = 1.3
        f = sphere_density(3, lambda th: np.ones(len(th)))
        direction = np.array([0.48, -0.6, 0.64])
        r = np.array([0.7, 3.0, 20.0, 150.0, 1000.0])
        lead = stationary_phase_leading(f, lam, r[:, None] * direction)
        envelope = lam / (2 * np.pi**2 * r)
        assert np.max(np.abs(lead - envelope * np.sin(lam * r)) / envelope) < 1e-13

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_fourier_mode_n2_tracks_bessel(self, k):
        # g = e^{ik phi}: u = (lam / 2 pi) i^k J_k(lam r) e^{ik phi}, and the
        # leading term misses it by O(r^{-3/2}); odd k see the antipode in f_-
        lam, phi = 1.3, 0.4
        f = sphere_density(2, lambda th: np.exp(1j * k * np.arctan2(th[:, 1], th[:, 0])))
        r = np.array([50.0, 100.0, 200.0, 400.0]) / lam
        x = r[:, None] * np.array([np.cos(phi), np.sin(phi)])
        exact = lam / (2 * np.pi) * 1j**k * jv(k, lam * r) * np.exp(1j * k * phi)
        assert np.max(r**1.5 * np.abs(stationary_phase_leading(f, lam, x) - exact)) < 0.5


def skewed_density(n):
    # degree 2 with a_1 != a_-1 on S^1: Parseval has to count both signs of k
    return sphere_density(
        n, lambda th: 1.0 + 0.45 * th[:, 0] + 0.2j * th[:, 1] + 0.3 * th[:, 0] * th[:, 1]
    )


def dense_masses(f, lam, orders, radii, n_ang):
    # the oracle: plane-wave synthesis of u on the shells of the same radial
    # rule, each shell integrated by the product rule on n_ang angles
    u = eigenfunction_evaluator(f, lam)
    theta, tw = product_sphere_rule(f.n, max(4, n_ang // 2), n_ang)

    def shell(rho):
        pts = (rho[:, None, None] * theta[None, :, :]).reshape(-1, f.n)
        return np.abs(u(pts).reshape(len(rho), len(tw))) ** 2 @ tw

    return radial_weighted_mass(shell, orders, radii, n=f.n, lam=lam, check=False)


class TestThresholdScan:
    ORDERS = [-0.75, -0.5, 0.0]

    def test_trichotomy_small_ladder(self):
        f = smooth_density_2d()
        table = threshold_scan(f, LAM, self.ORDERS, [100.0, 200.0, 400.0])
        assert table[0.0]["exponent"] == pytest.approx(1.0, abs=0.05)
        assert table[-0.5]["log_r2"] > 0.99
        assert table[-0.75]["ratio"] < 1.05
        assert table[-0.75]["ratio_radii"] == [100.0, 400.0]

    @pytest.mark.parametrize("lam", [10.0, 20.0, 40.0])
    def test_trichotomy_at_high_lambda(self, lam):
        # the radial panels shrink with the wavelength, so the self-checked
        # rule converges; with 0.5-wide panels it refused lam >= 10
        table = threshold_scan(smooth_density_2d(), lam, self.ORDERS, [50.0, 100.0, 200.0, 400.0])
        assert table[0.0]["exponent"] == pytest.approx(1.0, abs=1e-3)
        assert table[-0.5]["log_r2"] > 0.9999
        assert table[-0.75]["ratio"] < 1.05

    def test_power_spectrum_closed_form(self):
        # 1 + 0.45 cos + 0.2i sin = sqrt(2 pi) (Y_0 + 0.325 Y_1 + 0.125 Y_-1)
        degrees, power = harmonic_power(
            sphere_density(2, lambda th: 1.0 + 0.45 * th[:, 0] + 0.2j * th[:, 1])
        )
        assert degrees.tolist() == [0, 1]
        assert power == pytest.approx(2 * np.pi * np.array([1.0, 0.325**2 + 0.125**2]), rel=1e-14)
        # x_3 = sqrt(4 pi / 3) Y_10 on S^2
        degrees, power = harmonic_power(sphere_density(3, lambda th: 2.0 + th[:, 2]))
        assert degrees.tolist() == [0, 1]
        assert power == pytest.approx([16 * np.pi, 4 * np.pi / 3], rel=1e-14)

    # lam = 20 has radial panels narrower than 0.5
    @pytest.mark.parametrize(
        "lam,R", [(1.7, 5.0), (1.7, 10.0), (20.0, 5.0)], ids=["5.0", "10.0", "lam20-5.0"]
    )
    def test_parseval_against_synthesis_n2(self, lam, R):
        f = skewed_density(2)
        table = threshold_scan(f, lam, self.ORDERS, [R / 2, R])
        dense = dense_masses(f, lam, self.ORDERS, [R / 2, R], n_ang=64)
        for r, ref in zip(self.ORDERS, dense.T):
            assert table[r]["masses"] == pytest.approx(ref, rel=1e-12)

    def test_parseval_against_synthesis_n3(self):
        f = skewed_density(3)
        table = threshold_scan(f, 1.7, self.ORDERS, [1.0, 3.0])
        dense = dense_masses(f, 1.7, self.ORDERS, [1.0, 3.0], n_ang=16)
        for r, ref in zip(self.ORDERS, dense.T):
            assert table[r]["masses"] == pytest.approx(ref, rel=1e-12)

    def test_narrow_bump_beats_fixed_angles(self):
        # at lam R = 250 the Fresnel scale (lam R)^{-1/2} = 0.06 resolves the
        # bump of width 0.1, so |u|^2 on the shells carries its high harmonics:
        # 256 angles still integrate them exactly (the bump's harmonics past
        # degree 128 are below 1e-17 of its degree-0 one), 48 do not
        def bump(th):
            return np.exp(-((np.arctan2(th[:, 1], th[:, 0]) / 0.1) ** 2))

        f = sphere_density(2, bump, degree=512)
        radii = [1.0, 5.0]
        mass = threshold_scan(f, 50.0, [0.0], radii)[0.0]["masses"][-1]
        # the oracle sums the plane waves of the degree-521 rule (the one the
        # evaluator raises f to at lam R = 250) where the bump exceeds 1e-16:
        # the 421 dropped terms move u by under 1e-17, far below the 1e-10 asked
        full = f.with_degree(520)
        on = bump(full.nodes) > 1e-16
        support = SphereDensity(2, bump, full.nodes[on], full.weights[on], full.degree)
        fine, coarse = (
            dense_masses(support, 50.0, [0.0], radii, n_ang=k)[-1, 0] for k in (256, 48)
        )
        assert mass == pytest.approx(fine, rel=1e-10)
        assert abs(coarse - mass) > 1e-6 * mass

    def test_discontinuous_density_fails_tail_check(self):
        f = sphere_density(2, lambda th: np.sign(th[:, 0]))
        with pytest.raises(QuadratureError, match="tail"):
            threshold_scan(f, LAM, self.ORDERS, [5.0, 10.0])


class TestPoissonSeries:
    def test_obstruction_coefficient(self):
        p = 0.8
        ob = series_obstruction(p, LAM, 2, "outgoing")
        assert ob == pytest.approx(1j * LAM * (2 * p - 2 + 1))
        with pytest.raises(PowerMismatchError) as exc:
            build_poisson_series({0: 1.0}, 1, LAM, 2, power=(2 - 1) / 2 + 0.3)
        assert exc.value.obstruction == pytest.approx(1j * LAM * 0.6)

    def test_obstruction_against_fd_laplacian(self):
        # apply (Delta - lam^2) to the wrong-power outgoing profile by finite
        # differences and read off the leading coefficient directly
        p, n, h = 1.1, 2, 0.02
        base = np.array([[40.0, 3.0]])

        def u_bad(pts):
            r = np.sqrt(np.sum(pts**2, axis=-1))
            return r**-p * np.exp(1j * LAM * r)

        acc = np.zeros(1, dtype=complex)
        for j in range(2):
            for k, c in ((-2, -1 / 12), (-1, 4 / 3), (0, -5 / 2), (1, 4 / 3), (2, -1 / 12)):
                sh = np.zeros(2)
                sh[j] = k * h
                acc += c * u_bad(base + sh)
        resid = -acc / h**2 - LAM**2 * u_bad(base)
        r0 = np.linalg.norm(base[0])
        lead = complex(resid[0] / (r0 ** -(p + 1) * np.exp(1j * LAM * r0)))
        assert lead == pytest.approx(series_obstruction(p, LAM, n, "outgoing"), abs=0.05)

    def test_n3_constant_term_closes(self):
        # a_0 constant in n = 3: the spherical wave is exact, a_1 = 0
        s = build_poisson_series({(0, 0): 1.0}, 1, LAM, 3)
        assert s.terms[1] == {}

    def test_n2_first_correction_matches_hankel(self):
        # incoming n = 2 series of the k = 0 mode reproduces the Hankel
        # asymptotic coefficient i/(8 lambda)
        step = poisson_series_step({0: 1.0}, 0, LAM, 2, "incoming")
        assert step[0] == pytest.approx(1j / (8 * LAM))

    def test_residual_improves_per_term(self):
        radii = np.geomspace(5, 25, 6)
        slopes = []
        for J in range(3):
            s = build_poisson_series({0: 1.0, 1: 0.3}, J, LAM, 2)
            slope, vals = series_residual_slope(s, radii)
            slopes.append(slope)
            assert np.all(np.diff(vals) < 0)
        assert slopes[0] - slopes[1] >= 0.9
        assert slopes[1] - slopes[2] >= 0.9

    def test_n3_residual_slopes_of_spherical_harmonic_seed(self):
        # seeded with ell = 2 and ell = 1 harmonics, each term gains one power
        # of r; a_2 closes the series (a_3 = 0), so u_2 is an exact solution
        radii = np.geomspace(5, 25, 6)
        for J, expected in ((0, -3.0), (1, -4.0)):
            s = build_poisson_series({(2, 1): 1.0, (1, 0): 0.3}, J, LAM, 3)
            slope, _ = series_residual_slope(s, radii)
            assert slope == pytest.approx(expected, abs=0.1)
        exact = build_poisson_series({(2, 1): 1.0, (1, 0): 0.3}, 2, LAM, 3)
        _, vals = series_residual_slope(exact, radii)
        assert max(vals) < 1e-9

    def test_evaluator_leading_amplitude(self):
        s = build_poisson_series({0: 2.0}, 0, LAM, 2)
        u = series_evaluator(s)
        val = complex(u(np.array([[100.0, 0.0]]))[0])
        assert abs(val) == pytest.approx(2.0 / np.sqrt(100.0), rel=1e-12)


class TestBoundaryPairing:
    def test_gap_ladder_against_series_solution(self):
        f1 = smooth_density_2d()
        ser = build_poisson_series({0: 1.0, 1: 0.4, -1: 0.15j}, 0, LAM, 2)
        sol = solution_from_series(ser)
        gaps = []
        for R in (100.0, 200.0, 400.0):
            lhs, rhs, gap = boundary_pairing_check(f1, sol, LAM, R)
            gaps.append(gap)
        assert abs(rhs) > 0.1
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.10

    def test_self_pairing_vanishes(self):
        f1 = smooth_density_2d()
        lhs, rhs, _ = boundary_pairing_check(f1, f1, LAM, 150.0)
        assert abs(rhs) < 1e-12
        assert abs(lhs) < 1e-2

    def test_disjoint_caps_zero_rhs(self):
        from scatcalc.bumps import plateau

        f1 = sphere_density(
            2, lambda th: plateau(np.arctan2(th[:, 1], th[:, 0]), 0.2, 0.4).astype(complex)
        )
        ser = build_poisson_series({0: 0.0, 5: 1.0}, 0, LAM, 2)
        # outgoing data concentrated on a harmonic; overlap integral against
        # the cap profile of f1's outgoing coefficient is the only rhs term
        sol = solution_from_series(ser)
        _, rhs, _ = boundary_pairing_check(f1, sol, LAM, 100.0)
        prof = asymptotic_profile(f1, LAM)
        nodes, w = sphere_rule(2, 64)
        th = np.arctan2(nodes[:, 1], nodes[:, 0])
        overlap = 2j * LAM * np.sum(w * prof.f_plus(nodes) * np.conj(np.exp(5j * th)))
        assert rhs == pytest.approx(complex(overlap), rel=1e-10)


class TestScatteringMatrix:
    def test_unitarity_random_densities(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

            def fm(th, c=coeffs):
                ang = np.arctan2(th[:, 1], th[:, 0])
                return sum(ck * np.exp(1j * k * ang) for k, ck in enumerate(c, start=-2))

            dens = sphere_density(2, fm)
            out = free_scattering_matrix(LAM, dens)
            assert abs(out.l2_norm() - dens.l2_norm()) < 1e-6

    def test_rotational_equivariance(self):
        th0 = 0.7
        R = np.array([[np.cos(th0), -np.sin(th0)], [np.sin(th0), np.cos(th0)]])
        f = smooth_density_2d()
        lhs = free_scattering_matrix(LAM, rotate_density(f, R))
        rhs = rotate_density(free_scattering_matrix(LAM, f), R)
        nodes, _ = sphere_rule(2, 64)
        assert np.max(np.abs(lhs(nodes) - rhs(nodes))) < 1e-8

    def test_harmonic_maps_to_antipodal_harmonic(self):
        # Y_l goes to phase * Y_l(-.): l-independent phase, antipodal action
        for ell in (0, 1, 3):
            dens = sphere_density(2, lambda th, l=ell: np.exp(1j * l * np.arctan2(th[:, 1], th[:, 0])))
            out = free_scattering_matrix(LAM, dens)
            nodes, _ = sphere_rule(2, 32)
            ang = np.arctan2(nodes[:, 1], nodes[:, 0])
            expected = FREE_SMATRIX_PHASE[2] * np.exp(1j * ell * (ang + np.pi))
            assert np.max(np.abs(out(nodes) - expected)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_fixture_phase_fit(self, n):
        ph = fit_smatrix_phase(LAM, n)
        assert abs(ph - FREE_SMATRIX_PHASE[n]) < 0.02
