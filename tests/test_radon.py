import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.fft import idct
from scipy.integrate import quad
from scipy.linalg import svdvals

from scatcalc import radon
from scatcalc.bumps import plateau
from scatcalc.quadrature import gauss_panels, product_sphere_rule
from scatcalc.radon import (
    ConeCutoff,
    LocalizerProfile,
    _antipode_pairs,
    _line_blocks,
    _line_points,
    _line_rule,
    _line_symmetries,
    _lattice_ball,
    _nearest,
    backproject,
    cone_ellipticity_check,
    default_cone,
    default_profile,
    direction_rule,
    injectivity_probe,
    normal_kernel_symbol,
    normal_symbol_hankel,
    pairing_gap,
    xray_transform,
)

PHI = default_profile()


def full_cone():
    return ConeCutoff(lambda w: np.ones_like(np.asarray(w, dtype=float)))


class TestProfile:
    def test_phi_properties(self):
        t = np.linspace(-3, 3, 301)
        v = PHI(t)
        assert np.all(v >= 0)
        assert np.allclose(v, PHI(-t))
        assert np.all(v[np.abs(t) <= 1.0] > 0)
        assert np.all(v[np.abs(t) >= 2.0] == 0)

    def test_phi_tilde_support_and_symmetry(self):
        s = np.linspace(-5, 5, 41)
        pt = PHI.phi_tilde(s)
        assert np.all(pt >= -1e-14)
        assert np.allclose(pt, PHI.phi_tilde(-s), atol=1e-12)
        assert np.all(pt[np.abs(s) >= 4.0] == 0)

    def test_phi_tilde_against_quadrature(self):
        for s in (0.0, 1.2, 3.1):
            oracle, _ = quad(
                lambda u: PHI(np.array([u]))[0] * PHI(np.array([s - u]))[0], -2, 2, limit=200
            )
            assert PHI.phi_tilde(np.array([s]))[0] == pytest.approx(oracle, abs=1e-8)

    def test_phi_hat_squared_nonnegative_transform(self):
        s = np.linspace(-30, 30, 121)
        assert np.all(PHI.phi_hat(s) ** 2 >= 0)

    def test_non_even_profile_rejected(self):
        # backproject and injectivity_probe reuse the lines z + t omega of I_0
        # for the lines z - t omega of L, which only an even profile allows
        with pytest.raises(ValueError, match="even"):
            LocalizerProfile(phi=lambda t: plateau(t - 0.1, 1.0, 2.0))

    def test_cone_validation(self):
        with pytest.raises(ValueError):
            ConeCutoff(lambda w: 0.1 * np.ones_like(np.asarray(w, dtype=float)))
        bad = ConeCutoff(lambda w: 1.0 - 2.0 * np.abs(np.asarray(w, dtype=float)))
        with pytest.raises(ValueError):
            bad(np.array([0.9]))


def direct_phi_hat(s):
    """phi_hat by a 400-panel, 16-node Gauss-Legendre rule, finer than any table fill."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-2.0, 2.0, 401)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    cw = (half[:, None] * w).ravel() * PHI(t)
    return np.concatenate(
        [(np.cos(np.multiply.outer(c, t)) * cw).sum(axis=-1) for c in np.array_split(s, 40)]
    )


class TestPhiHatTable:
    rng = np.random.default_rng(11)
    # random points, then every integer panel edge (s = 0 among them)
    s = np.concatenate([rng.uniform(-100.0, 100.0, 20000), np.arange(-100.0, 101.0)])

    @pytest.fixture(scope="class")
    def oracle(self):
        return direct_phi_hat(self.s)

    def test_against_direct_rule(self, oracle):
        small = np.abs(self.s) <= 1.0
        prof = default_profile()
        for sel in (small, np.ones_like(small)):
            err = np.max(np.abs(prof.phi_hat(self.s[sel]) - oracle[sel]))
            assert err < 1e-13

    def test_value_at_zero_is_profile_mass(self):
        # int plateau(t, 1, 2) dt = 2 + 2 int_0^1 (1 - smoothstep) = 3, because
        # smoothstep(u) + smoothstep(1 - u) = 1
        prof = default_profile()
        assert abs(prof.phi_hat(0.0) - 3.0) < 1e-14
        prof.phi_hat(np.array([100.0]))
        assert abs(prof.phi_hat(0.0) - 3.0) < 1e-14

    def test_past_the_table_cap(self):
        # |s| above the cap is summed directly; the one table stops at the cap
        prof = default_profile()
        s = np.array([1000.0, 250.5, 3.0])
        got = prof.phi_hat(s)
        assert np.max(np.abs(got - direct_phi_hat(s))) < 1e-12
        assert prof._hat_coef.shape == (radon._HAT_DEGREE + 1, radon._HAT_TOP)
        assert prof.phi_hat(-1000.0) == got[0]

    def test_even_bit_for_bit(self):
        assert np.array_equal(PHI.phi_hat(-self.s), PHI.phi_hat(self.s))

    @pytest.mark.parametrize("top", [1, 2, 128])
    def test_table_matches_direct_sums_at_its_nodes(self, top):
        # angle addition on the half rule, by matrix products, against the full
        # rule summed one node at a time
        n = radon._HAT_DEGREE + 1
        u = np.arange(top)[:, None] + 0.5 * (np.cos(np.pi * (np.arange(n) + 0.5) / n) + 1.0)
        vals = idct(PHI._hat_table(top).T * n, type=2)
        assert vals.shape == (top, n)
        assert np.max(np.abs(vals - PHI._hat_sums(u, top))) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            default_profile().phi_hat(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            PHI.phi_hat(bad)


class TestDirectionRule:
    @pytest.mark.parametrize("count, size", [(1, 32), (60, 60), (255, 253), (511, 510)])
    def test_size_is_count_in_2d_and_a_product_in_3d(self, count, size):
        # S^2: nc = max(4, int(sqrt(count / 2))) polar nodes times max(8, count // nc) azimuths
        for n, k in ((2, count), (3, size)):
            dirs, w = direction_rule(n, count)
            assert dirs.shape == (k, n) and w.shape == (k,)


class TestXray:
    def test_constant_integrand(self):
        ez = np.zeros((4, 2))
        oms, _ = direction_rule(2, 4)
        vals = xray_transform(lambda p: np.ones(len(p)), ez, oms, PHI)
        oracle, _ = quad(lambda t: PHI(np.array([t]))[0], -2, 2, limit=200)
        assert np.allclose(vals, oracle, rtol=1e-8)

    def test_radial_gaussian_any_direction(self):
        f = lambda p: np.exp(-np.sum(p**2, axis=-1))
        oms, _ = direction_rule(2, 6)
        vals = xray_transform(f, np.zeros((6, 2)), oms, PHI)
        oracle, _ = quad(
            lambda t: np.exp(-(t**2)) * PHI(np.array([t]))[0], -2, 2, limit=200
        )
        assert np.allclose(vals, oracle, rtol=1e-9)
        assert np.ptp(np.real(vals)) < 1e-12

    def test_direction_flip_symmetry(self):
        f = lambda p: np.exp(-np.sum((p - 0.2) ** 2, axis=-1))
        z = np.array([[0.3, 0.2]])
        om = np.array([[0.6, 0.8]])
        assert xray_transform(f, z, om, PHI) == pytest.approx(
            xray_transform(f, z, -om, PHI), rel=1e-12
        )

    def test_linearity(self):
        f1 = lambda p: np.exp(-np.sum(p**2, axis=-1))
        f2 = lambda p: np.cos(p[..., 0])
        z = np.array([[0.1, -0.4]])
        om = np.array([[1.0, 0.0]])
        lhs = xray_transform(lambda p: 2 * f1(p) - 3 * f2(p), z, om, PHI)
        rhs = 2 * xray_transform(f1, z, om, PHI) - 3 * xray_transform(f2, z, om, PHI)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBackprojection:
    def test_adjointness_evaluator(self):
        f = lambda p: np.exp(-np.sum(p**2, axis=-1))

        def v(p, k):
            return np.exp(-0.7 * np.sum(p**2, axis=-1)) * (1.0 + 0.02 * k)

        gap = pairing_gap(f, v, PHI, 2)
        assert gap < 1e-6

    def test_adjointness_random_pairs(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(5):
            a = rng.uniform(0.5, 1.2)
            c = rng.uniform(-0.3, 0.3, size=2)

            def f(p, a=a, c=c):
                return np.exp(-a * np.sum((p - c) ** 2, axis=-1))

            b = rng.uniform(0.5, 1.0)

            def v(p, k, b=b):
                return np.exp(-b * np.sum(p**2, axis=-1))

            worst = max(worst, pairing_gap(f, v, PHI, 2))
        assert worst < 1e-6

    @staticmethod
    def f(p):
        return np.exp(-np.sum((p - np.array([0.2, -0.1])) ** 2, axis=-1))

    @staticmethod
    def v(p, k):
        # v(., k) differs from v(., k') at an antipodal pair, and is complex
        c = 0.3 * np.array([np.cos(k), np.sin(k)])
        return np.exp(-0.7 * np.sum((p - c) ** 2, axis=-1)) * (1.0 + 0.5j * np.sin(0.3 * k))

    @staticmethod
    def use_rule(monkeypatch, n_dirs):
        # pairing_gap runs the 32-count rule; an odd count has no antipodal pair
        monkeypatch.setattr(radon, "direction_rule", lambda n, _: direction_rule(n, n_dirs))

    @pytest.mark.parametrize("n_dirs, calls", [(32, 16), (63, 63)])
    def test_one_xray_per_antipodal_pair(self, monkeypatch, n_dirs, calls):
        self.use_rule(monkeypatch, n_dirs)
        made = []

        def counted(*args):
            made.append(1)
            return xray_transform(*args)

        monkeypatch.setattr(radon, "xray_transform", counted)
        assert pairing_gap(self.f, self.v, PHI, 2) < 1e-6
        assert len(made) == calls

    @pytest.mark.parametrize("n_dirs", [32, 63])
    def test_folded_lhs_matches_unfolded_sum(self, monkeypatch, n_dirs):
        # <I_0 f, v> summed over every direction, I_0 f computed for each
        dirs, dw = direction_rule(2, n_dirs)
        ax, axw = gauss_panels(-6.0, 6.0, 1, 32)  # the box rule of pairing_gap
        Z = np.stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
        WZ = np.outer(axw, axw).ravel()
        lhs = sum(
            wk * np.sum(WZ * xray_transform(self.f, Z, om, PHI) * np.conj(self.v(Z, k)))
            for k, (om, wk) in enumerate(zip(dirs, dw))
        )
        # a constant L v whose <f, L v> is that sum: the gap is then the relative
        # defect of the folded lhs against it
        ratio = lhs / np.sum(WZ * self.f(Z))

        def constant_backprojection(*args):
            return lambda y: np.full(len(y), np.conj(ratio))

        monkeypatch.setattr(radon, "backproject", constant_backprojection)
        self.use_rule(monkeypatch, n_dirs)
        assert pairing_gap(self.f, self.v, PHI, 2) <= 1e-12

    def test_constant_data_backprojects_to_constant(self):
        dirs, dw = direction_rule(2, 16)
        Lv = backproject(lambda p, k: np.ones(len(p)), PHI, dirs, dw)
        vals = Lv(np.array([[0.0, 0.0], [0.4, -0.2]]))
        oracle, _ = quad(lambda t: PHI(np.array([t]))[0], -2, 2, limit=200)
        assert np.allclose(vals, oracle * 2 * np.pi, rtol=1e-8)

    def test_data_support_propagates(self):
        # data concentrated near one (z, omega) backprojects into a tube of
        # half-length 2 (the reach of phi) along omega
        dirs, dw = direction_rule(2, 8)

        def v(p, k):
            bump = np.clip(1.0 - np.sum(p**2, axis=-1) / 0.04, 0.0, None)
            return bump if k == 0 else np.zeros(len(p))

        Lv = backproject(v, PHI, dirs, dw)
        assert abs(Lv(1.5 * dirs[0])) > 0
        assert abs(Lv(-1.5 * dirs[0])) > 0
        assert Lv(2.5 * dirs[0]) == 0.0
        assert Lv(2.5 * np.array([-dirs[0][1], dirs[0][0]])) == 0.0


class TestNormalSymbol:
    qs = np.geomspace(0.1, 100.0, 25)

    def test_positivity(self):
        for n in (2, 3):
            tab = normal_kernel_symbol(n, PHI, self.qs)
            assert np.all(tab["symbol"] > 0)

    def test_plateau_top_decade(self):
        for n in (2, 3):
            tab = normal_kernel_symbol(n, PHI, self.qs)
            top = tab["scaled"][self.qs >= 10.0]
            assert (top.max() - top.min()) / top.mean() < 0.05

    def test_hankel_oracle_agreement(self):
        for n in (2, 3):
            tab = normal_kernel_symbol(n, PHI, self.qs)
            oracle = normal_symbol_hankel(n, PHI, self.qs)
            assert np.max(np.abs(oracle - tab["symbol"]) / tab["symbol"]) < 1e-7

    @pytest.mark.parametrize("n", [2, 3])
    def test_hankel_oracle_value_does_not_depend_on_the_grid(self, n):
        alone = normal_symbol_hankel(n, PHI, [5.0])[0]
        ladder = normal_symbol_hankel(n, PHI, [5.0, 20.0, 80.0])[0]
        assert abs(alone - ladder) <= 1e-13 * abs(ladder)

    def test_dc_value_is_kernel_mass(self):
        # a(0) = |S^{n-1}| (int phi)^2
        intphi, _ = quad(lambda t: PHI(np.array([t]))[0], -2, 2, limit=200)
        a0 = normal_kernel_symbol(2, PHI, [0.0])["symbol"][0]
        assert a0 == pytest.approx(2 * np.pi * intphi**2, rel=1e-8)
        a0_3 = normal_kernel_symbol(3, PHI, [0.0])["symbol"][0]
        assert a0_3 == pytest.approx(4 * np.pi * intphi**2, rel=1e-8)


class TestConeEllipticity:
    def test_n3_floor_positive(self):
        rep = cone_ellipticity_check(3, default_cone(0.3), PHI)
        assert min(rep["scaled_floor"]) > 0.1

    def test_full_cone_reduces_to_normal_symbol(self):
        rep = cone_ellipticity_check(3, full_cone(), PHI)
        tab = normal_kernel_symbol(3, PHI, rep["xi"])
        # with chi == 1 the tilt scan is constant and equals the radial symbol
        assert np.allclose(rep["scaled_values"][0], tab["scaled"][0], rtol=1e-6)

    def test_full_cone_first_rung_matches_hankel_oracle(self):
        # the 64 x 64 sphere rule resolves the q = 5 rung, so what is left is phi_hat's error
        rep = cone_ellipticity_check(3, full_cone(), PHI)
        q = rep["xi"][0]
        oracle = normal_symbol_hankel(3, PHI, [q])[0]
        assert np.max(np.abs(rep["scaled_values"][0] / q - oracle)) / oracle < 1e-9

    def test_n2_narrow_cone_collapses(self):
        narrow = cone_ellipticity_check(2, default_cone(0.3), PHI)
        full = cone_ellipticity_check(2, full_cone(), PHI)
        assert narrow["scaled_floor"][-1] < 1e-3 * full["scaled_floor"][-1]

    @staticmethod
    def unfolded_scaled_values(n, chi):
        """The |xi|-scaled tilt values summed over every node of the check's rules."""
        xi_ladder = (5.0, 20.0, 80.0)
        tilts = np.linspace(0.0, np.pi / 2.0, 13)
        xihats = np.zeros((len(tilts), n))
        xihats[:, 0], xihats[:, 1] = np.cos(tilts), np.sin(tilts)
        out = np.empty((len(xi_ladder), len(tilts)))
        for iq, q in enumerate(xi_ladder):
            if n == 2:
                om, wgt = product_sphere_rule(2, 0, int(max(256, 8 * q)))
            else:
                m = max(64, int(2 * q))
                om, wgt = product_sphere_rule(3, m, m)
                om = np.roll(om, 1, axis=-1)
            wchi = wgt * chi(om[:, 0])
            for it, xihat in enumerate(xihats):
                out[iq, it] = q * np.sum(wchi * PHI.phi_hat(q * (om @ xihat)) ** 2)
        return out

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "chi",
        [full_cone(), default_cone(0.3), ConeCutoff(lambda w: 0.75 + 0.25 * w)],
        ids=["full", "default", "non-even"],
    )
    def test_folded_rule_matches_unfolded_sum(self, n, chi):
        # the non-even cutoff weighs omega and -omega differently: an orbit's
        # weight is w chi(omega_1) + w chi(-omega_1), not a multiple of one of them
        got = cone_ellipticity_check(n, chi, PHI)["scaled_values"]
        want = self.unfolded_scaled_values(n, chi)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize(
        "n, per_tilt", [(2, [128, 128, 320]), (3, [32 * 33, 32 * 33, 80 * 81])]
    )
    def test_phi_hat_once_per_orbit(self, monkeypatch, n, per_tilt):
        # n = 2: K / 2 antipodal pairs; n = 3: half the Gauss nodes times the
        # azimuths 0 ... pi, which x_3 -> -x_3 pairs with their negatives
        sizes = []
        read = LocalizerProfile.phi_hat

        def counted(prof, s):
            sizes.append(np.size(s))
            return read(prof, s)

        monkeypatch.setattr(LocalizerProfile, "phi_hat", counted)
        cone_ellipticity_check(n, full_cone(), PHI)
        assert sizes == [k for k in per_tilt for _ in range(13)]


def interp_matrix(axes, pts, line_w) -> sparse.csr_matrix:
    """Per-point oracle of the probe's line matrices: row i sums line_w[j] times
    the multilinear interpolant at pts[i * len(line_w) + j] (duplicate entries
    sum in the CSR conversion); columns index the tensor grid; outside queries
    are zero, and a query on an upper face reads the last cell at fraction 1 (to
    rounding).  The cell width is the linspace step (a[-1] - a[0]) / (len(a) - 1)
    itself; a[1] - a[0] is up to 6.7e-16 off it, which moves u = 23 by 1.5e-14."""
    n, m = len(axes), len(line_w)
    sizes = [len(a) for a in axes]
    u = [(pts[:, j] - a[0]) / ((a[-1] - a[0]) / (len(a) - 1)) for j, a in enumerate(axes)]
    inside = np.ones(len(pts), dtype=bool)
    for j, a in enumerate(axes):  # test the faces on pts: u rounds past them
        inside &= (pts[:, j] >= a[0]) & (pts[:, j] <= a[-1])
    r = np.nonzero(inside)[0]  # the rest read zero: drop them before the corners
    u = [uj[r] for uj in u]
    idx0 = [np.minimum(np.floor(uj).astype(int), size - 2) for uj, size in zip(u, sizes)]
    frac = [uj - i for uj, i in zip(u, idx0)]
    rows, cols, vals = [], [], []
    for corner in range(2**n):
        wt = np.ones(len(r))
        flat = np.zeros(len(r), dtype=int)
        stride = 1
        for j in reversed(range(n)):
            bit = (corner >> j) & 1
            wt = wt * (frac[j] if bit else (1.0 - frac[j]))
            flat = flat + (idx0[j] + bit) * stride
            stride *= sizes[j]
        keep = wt != 0
        rows.append(r[keep] // m)
        cols.append(flat[keep])
        vals.append(wt[keep] * line_w[r[keep] % m])
    M = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(pts) // m, int(np.prod(sizes))),
    )
    return M.tocsr()


class TestInterpMatrix:
    def test_linear_function_is_exact_on_every_face(self):
        g = np.linspace(-1.0, 1.0, 24)
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        s = np.array([-1.0, -0.37, 0.2, 0.999999999, 1.0])
        faces = np.concatenate(
            [np.stack([np.full_like(s, e), s], axis=-1) for e in (-1.0, 1.0)]
            + [np.stack([s, np.full_like(s, e)], axis=-1) for e in (-1.0, 1.0)]
        )
        past = np.array([[1.0 + 1e-9, 0.3], [0.3, -1.0 - 1e-9]])

        def f(p):
            return 100.0 + 300.0 * p[:, 0] + 200.0 * p[:, 1]

        read = interp_matrix((g, g), np.concatenate([faces, past]), np.ones(1)) @ f(grid)
        assert np.max(np.abs(read[: len(faces)] - f(faces))) < 1e-12
        assert np.all(read[len(faces):] == 0.0)


def lattice_ball(n, grid_points):
    """The probe's ball: grid point i sits at (2 i - g) / g, g = grid_points - 1, so
    |z|^2 <= 1 is decided on the integers: sum_j (2 i_j - g)^2 <= g^2."""
    g = grid_points - 1
    idx = np.stack(np.meshgrid(*[np.arange(grid_points)] * n, indexing="ij"), axis=-1)
    return np.sum((2 * idx.reshape(-1, n) - g) ** 2, axis=-1) <= g**2


def probe_grid(n, grid_points):
    """The probe's axes, grid points and ball mask."""
    axes = tuple(np.linspace(-1.0, 1.0, grid_points) for _ in range(n))
    Z = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return axes, Z, lattice_ball(n, grid_points)


#: (dim, grid_points) the radon runner admits: 4 ... 24 points per axis, at most 16 in 3-D
ADMITTED = [(2, g) for g in range(4, 25)] + [(3, g) for g in range(4, 17)]


class TestLatticeBall:
    @pytest.mark.parametrize("n, grid_points", ADMITTED)
    def test_closed_under_reflection_and_float_test_where_that_is(self, n, grid_points):
        _, Z, want = probe_grid(n, grid_points)
        ball = _lattice_ball(n, grid_points)
        assert np.array_equal(ball, want)
        assert np.array_equal(ball, ball[::-1])  # flat index i reflects to G - 1 - i
        float_test = np.sum(Z**2, axis=-1) <= 1.0
        if np.array_equal(float_test, float_test[::-1]):
            assert np.array_equal(ball, float_test)

    def test_rounded_lattice_points_are_in(self):
        # at 11 points the axis holds +-0.6 and +-0.8, whose squares sum to 1 up to rounding
        probe = injectivity_probe(2, grid_points=11, n_dirs=16)
        assert probe["dof"] == 81
        pts = probe["points"]  # linspace is antisymmetric to rounding, not bit for bit
        assert np.max(np.abs(pts[::-1] + pts)) <= 1e-15


class TestLineBlocks:
    """The stencil blocks I0[top, :] and I0[:, ball] against the per-point oracle, top the
    first half of the ball's points as the probe builds them."""

    @staticmethod
    def assert_blocks_match(axes, Z, ball, t, wt, omega):
        top = ball & (np.cumsum(ball) <= (ball.sum() + 1) // 2)
        rows, cols = _line_blocks(axes, Z, t, wt, omega, ball, top)
        I0 = interp_matrix(axes, _line_points(Z, t, omega).reshape(-1, len(axes)), wt)
        for got, want in ((rows, I0[top]), (cols, I0[:, ball])):
            assert got.shape == want.shape
            assert abs(got - want).max() <= 1e-14 * abs(want).max()
            assert got.has_canonical_format  # sorted columns, no duplicates

    @pytest.mark.parametrize(
        "n, grid_points, n_dirs, n_t",
        [(2, 24, 64, 16), (2, 16, 63, 16), (3, 10, 60, 12), (3, 16, 64, 16)],
    )
    def test_every_direction_of_a_probe_rule(self, n, grid_points, n_dirs, n_t):
        axes, Z, ball = probe_grid(n, grid_points)
        dirs, _ = direction_rule(n, n_dirs)
        t, w = _line_rule(n_t)
        for pair in _antipode_pairs(dirs):
            self.assert_blocks_match(axes, Z, ball, t, w * PHI(t), dirs[pair[0]])

    @pytest.mark.parametrize("n", [2, 3])
    def test_axis_parallel_and_diagonal_directions(self, n):
        axes, Z, ball = probe_grid(n, 12)
        t, w = _line_rule(16)
        eye = np.eye(n)
        diagonals = [np.ones(n), np.r_[1.0, -np.ones(n - 1)]]
        for omega in [*eye, *-eye, *(d / np.linalg.norm(d) for d in diagonals)]:
            self.assert_blocks_match(axes, Z, ball, t, w * PHI(t), omega)

    def test_line_node_on_an_upper_face(self):
        # z = 0.5 and t = 0.5 along e_1 land on x_1 = 1 exactly, and t = 1.5 past it
        axes, Z, ball = probe_grid(2, 5)
        t = np.array([-1.5, -0.5, 0.25, 0.5, 1.5])
        pts = _line_points(Z, t, np.array([1.0, 0.0]))
        assert np.any(pts[..., 0] == 1.0) and np.any(pts[..., 0] > 1.0)
        for omega in (np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([0.6, 0.8])):
            self.assert_blocks_match(axes, Z, ball, t, np.linspace(1.0, 2.0, 5), omega)


class TestLinePoints:
    @staticmethod
    def broadcast(z, t, omega):
        """The construction the transforms used before: z + t omega in C order."""
        z, omega = np.asarray(z, dtype=float), np.asarray(omega, dtype=float)
        return z[..., None, :] + t[:, None] * omega[..., None, :]

    rng = np.random.default_rng(5)

    @pytest.mark.parametrize(
        "z_shape, omega_shape",
        [((40, 2), (2,)), ((40, 2), (40, 2)), ((2,), (2,)), ((2,), (7, 2)), ((3, 5, 3), (5, 3)),
         ((30, 3), (3,))],
        ids=["grid", "batched", "one-point", "one-point-many-directions", "3d-batched", "3d"],
    )
    def test_bit_identical_to_broadcast(self, z_shape, omega_shape):
        z, omega = self.rng.normal(size=z_shape), self.rng.normal(size=omega_shape)
        t = _line_rule(24)[0]
        got = _line_points(z, t, omega)
        want = self.broadcast(z, t, omega)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        flat = got.reshape(-1, got.shape[-1])
        assert np.shares_memory(flat, got) and flat.flags.f_contiguous


def two_matrix_normal_operator(n, grid_points, n_dirs, n_t, chi=None):
    """sum_k w_k chi_k L_k I0_k on the probe's ball, dense, with L_k built from its
    own lines z - t omega instead of reusing I0_k, and every row assembled."""
    axes, Z, ball = probe_grid(n, grid_points)
    dirs, dw = direction_rule(n, n_dirs)
    t, w = _line_rule(n_t)
    wt = w * PHI(t)
    A = 0
    for om, wk in zip(dirs, dw):
        I0k = interp_matrix(axes, (Z[:, None, :] + t[:, None] * om).reshape(-1, n), wt)
        Lk = interp_matrix(axes, (Z[:, None, :] - t[:, None] * om).reshape(-1, n), wt)
        A = A + (wk * (float(chi(np.array([om[0]]))[0]) if chi else 1.0) * Lk) @ I0k
    return A.toarray()[np.ix_(ball, ball)]


def two_matrix_sigma_min(n, **kw):
    return float(svdvals(two_matrix_normal_operator(n, **kw))[-1])


class TestInjectivity:
    CONE3 = dict(grid_points=10, n_dirs=60, n_t=12)  # the 3-D probe of criterion 15

    @pytest.fixture(scope="class")
    def r24(self):
        return injectivity_probe(2, grid_points=24, n_dirs=64)

    @pytest.fixture(scope="class")
    def cone3(self):
        return injectivity_probe(3, chi=default_cone(0.3), **self.CONE3)

    def test_sigma_min_positive_and_stable(self, r24):
        r30 = injectivity_probe(2, grid_points=30, n_dirs=64)
        assert r24["sigma_min"] > 0
        assert 0.7 < r30["sigma_min"] / r24["sigma_min"] < 1.3

    def test_reconstruction(self, r24):
        assert r24["reconstruction_error"] < 1e-3

    def test_n3_with_cone_still_injective(self, cone3):
        assert cone3["sigma_min"] > 0
        assert cone3["reconstruction_error"] < 1e-3

    @pytest.mark.parametrize(
        "n, kw, fixture",
        [
            (2, dict(grid_points=24, n_dirs=64, n_t=16), "r24"),
            (3, dict(CONE3, chi=default_cone(0.3)), "cone3"),
            # an odd count on S^1: no direction has an antipode
            (2, dict(grid_points=16, n_dirs=63, n_t=16), None),
            # chi is not even, so an antipodal pair weighs c_k + c_k', not 2 c_k
            (3, dict(CONE3, chi=ConeCutoff(lambda w: 0.75 + 0.25 * w)), None),
            # odd dof: the origin is in the ball, the fixed point of z -> -z
            (2, dict(grid_points=9, n_dirs=64, n_t=16), None),
            (3, dict(CONE3, grid_points=9, chi=default_cone(0.3)), None),
            # chi weighs the lines near x_1 and x_2 apart: no quarter turn
            (2, dict(grid_points=16, n_dirs=64, n_t=16,
                     chi=ConeCutoff(lambda w: 0.75 + 0.25 * w + 0.1 * w**2)), None),
            # lines that a reflection fixes: 90 degrees of 6, and of 10, directions
            (2, dict(grid_points=16, n_dirs=6, n_t=16), None),
            (2, dict(grid_points=16, n_dirs=10, n_t=16), None),
        ],
        ids=["2d", "3d-cone", "2d-odd-count", "3d-noneven-cutoff", "2d-odd-dof",
             "3d-cone-odd-dof", "2d-noneven-cutoff", "2d-stabilized-6", "2d-stabilized-10"],
    )
    def test_one_matrix_per_direction_matches_two(self, request, n, kw, fixture):
        # phi is even and the line rule symmetric, so L_k is I0_k itself
        probe = request.getfixturevalue(fixture) if fixture else injectivity_probe(n, **kw)
        two = two_matrix_sigma_min(n, **kw)
        assert abs(probe["sigma_min"] - two) <= 1e-12 * two

    @pytest.mark.parametrize(
        "n, kw",
        [(2, dict(grid_points=16, n_dirs=64, n_t=16)),
         (3, dict(CONE3, grid_points=9, chi=ConeCutoff(lambda w: 0.75 + 0.25 * w)))],
        ids=["2d-even-dof", "3d-odd-dof"],
    )
    def test_even_and_odd_blocks_hold_the_whole_spectrum(self, monkeypatch, n, kw):
        # the probe takes sigma_min over the blocks E and O; their singular values
        # together are those of the fully assembled A
        blocks = []

        def kept(B):
            blocks.append(B.copy())
            return svdvals(B)

        monkeypatch.setattr(radon, "svdvals", kept)
        probe = injectivity_probe(n, **kw)
        want = svdvals(two_matrix_normal_operator(n, **kw))
        assert probe["dof"] % 2 == kw["grid_points"] % 2
        assert [len(B) for B in blocks] == [(probe["dof"] + 1) // 2, probe["dof"] // 2]
        got = np.sort(np.concatenate([svdvals(B) for B in blocks]))[::-1]
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("n, n_dirs, builds", [(2, 64, 8), (2, 63, 32), (3, 60, 6)])
    def test_one_line_matrix_per_orbit(self, monkeypatch, n, n_dirs, builds):
        # 32 lines in 8 free orbits of the dihedral group; 63 lines, the reflection
        # x_2 -> -x_2 fixing one; 30 lines in 6 orbits, two of them on the equator
        calls = {"blocks": 0, "points": 0}

        def counted(name, build):
            def wrapped(*args):
                calls[name] += 1
                return build(*args)
            return wrapped

        monkeypatch.setattr(radon, "_line_blocks", counted("blocks", _line_blocks))
        monkeypatch.setattr(radon, "_line_points", counted("points", _line_points))
        injectivity_probe(n, grid_points=8, n_dirs=n_dirs)
        assert calls == {"blocks": builds, "points": builds}


def old_antipode_pairs(dirs) -> list:
    """Oracle of `_antipode_pairs`: the nearest antipode of each node in a (K, K) table of
    |omega_k + omega_j|, at about 46 B K^2 of memory."""
    gap = np.linalg.norm(dirs[:, None, :] + dirs[None, :, :], axis=-1)
    anti = np.argmin(gap, axis=1)
    return [(k, int(j)) if gap[k, j] <= 1e-12 else (k,) for k, j in enumerate(anti)
            if j > k or gap[k, j] > 1e-12]


class TestLineSymmetries:
    @pytest.mark.parametrize("n, n_dirs", [(2, 1), (2, 6), (2, 63), (2, 64), (2, 500),
                                           (3, 1), (3, 60), (3, 61), (3, 64), (3, 500)])
    def test_pairs_match_the_table_oracle(self, n, n_dirs):
        dirs, _ = direction_rule(n, n_dirs)
        assert _antipode_pairs(dirs) == old_antipode_pairs(dirs)

    def test_nearest_against_brute_force(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(300, 3))
        # moved off the sort key's line: the same key, 1e-11 away
        aside = np.cross(radon._MATCH_KEY, [1.0, 0.0, 0.0])
        # exact copies, copies moved by 1e-13, by 1e-11 and aside, and strangers
        queries = np.concatenate([points[:50], points[50:100] + 1e-13 / np.sqrt(3),
                                  points[100:150] + 1e-11,
                                  points[150:200] + 1e-11 * aside / np.linalg.norm(aside),
                                  rng.normal(size=(50, 3))])
        gap = np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=-1)
        want = np.where(gap.min(axis=1) <= 1e-12, gap.argmin(axis=1), -1)
        got = _nearest(points, queries)
        assert np.array_equal(got, want)
        assert np.array_equal(want[:100], np.arange(100)) and np.all(want[100:] == -1)

    def test_pairs_need_no_k_squared_table(self):
        # the table oracle's peak is about 46 B K^2: 183 MB at K = 2000
        dirs, _ = direction_rule(2, 2000)
        tracemalloc.start()
        try:
            pairs = _antipode_pairs(dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 1000 and peak < 2e6

    @staticmethod
    def group_size(n, n_dirs, chi=None):
        dirs, dw = direction_rule(n, n_dirs)
        c = dw * (chi(dirs[:, 0]) if chi is not None else 1.0)
        pairs = _antipode_pairs(dirs)
        group, images = _line_symmetries(dirs, np.array([c[list(p)].sum() for p in pairs]), pairs)
        assert len(images) == len(group)
        assert np.array_equal(images[0], np.arange(len(pairs)))  # the identity first
        for img in images:  # each g permutes the lines
            assert np.array_equal(np.sort(img), np.arange(len(pairs)))
        return len(group)

    @pytest.mark.parametrize(
        "n, n_dirs, chi, size",
        [(2, 64, None, 4), (2, 62, None, 2), (2, 63, None, 2), (3, 60, None, 8),
         # chi(omega_1) weighs x_1 <-> x_2 apart; its line sums are even in omega_1
         (2, 64, default_cone(0.3), 2), (3, 60, default_cone(0.3), 8),
         (2, 64, ConeCutoff(lambda w: 0.75 + 0.25 * w + 0.1 * w**2), 2),
         (3, 60, ConeCutoff(lambda w: 0.75 + 0.25 * w + 0.1 * w**2), 8),
         # chi(w) + chi(-w) = 1.5: every line weighs the same, as with no cutoff
         (2, 64, ConeCutoff(lambda w: 0.75 + 0.25 * w), 4)],
        ids=["2d-64", "2d-62", "2d-63", "3d-60", "2d-cone", "3d-cone", "2d-noneven",
             "3d-noneven", "2d-noneven-flat-sum"],
    )
    def test_group_size_modulo_the_point_reflection(self, n, n_dirs, chi, size):
        assert self.group_size(n, n_dirs, chi) == size
