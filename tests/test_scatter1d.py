import numpy as np
import pytest

from scatcalc.grid import GridBudgetError, InputRefusal
from scatcalc.scatter1d import (
    compact_bump,
    free_potential,
    gaussian_bump,
    lg_profile,
    lg_profile_residual,
    lg_tail_masses,
    potential_from_callable,
    solve_scatter,
    square_barrier,
    square_barrier_coeffs,
    symmetry_boundary_term,
    wronskian,
    wronskian_drift,
)

LG_RANGES = {3: (10.0, 1000.0), 4: (10.0, 1000.0), 5: (10.0, 400.0), 6: (10.0, 140.0)}


class TestSolveScatter:
    def test_free_case_exact(self):
        sol = solve_scatter(free_potential(), 1.0)
        assert sol.coeffs.r == 0.0
        assert abs(sol.coeffs.t - 1.0) < 1e-15
        assert sol.coeffs.unitarity_defect == 0.0

    @pytest.mark.parametrize("lam", [0.9, 1.3, 2.0])
    def test_square_barrier_matches_closed_form(self, lam):
        sol = solve_scatter(square_barrier(2.0, 1.0), lam)
        oracle = square_barrier_coeffs(2.0, 1.0, lam)
        assert abs(sol.coeffs.r - oracle.r) < 1e-6
        assert abs(sol.coeffs.t - oracle.t) < 1e-6

    def test_tunnelling_regime(self):
        # below the barrier top the transmission is small but nonzero
        sol = solve_scatter(square_barrier(2.0, 1.0), 0.8)
        assert 0 < abs(sol.coeffs.t) < 0.8
        assert sol.coeffs.unitarity_defect < 1e-6

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_smooth_bump_unitary(self, lam):
        for V in (gaussian_bump(1.2, 1.5), compact_bump(0.8, 1.0)):
            sol = solve_scatter(V, lam)
            assert sol.coeffs.unitarity_defect < 1e-6

    def test_high_energy_transparency(self):
        V = gaussian_bump(1.2, 1.5)
        rs, ts = [], []
        for lam in (0.5, 1.0, 2.0, 4.0):
            c = solve_scatter(V, lam).coeffs
            rs.append(abs(c.r))
            ts.append(abs(c.t))
        assert rs[0] > rs[1] > rs[2] > rs[3]
        assert abs(ts[-1] - 1.0) < 1e-4

    @pytest.mark.parametrize("lam", [0.8, 1.3])
    def test_path_ends_at_the_plane_waves(self, lam):
        # the path is psi / alpha: t e^{i lam x} at x = L and
        # e^{i lam x} + r e^{-i lam x} at x = -L; both ends are algebraic in the
        # read-off, so they hold far inside 100 x the IVP's rtol of 1e-11
        V = square_barrier(2.0, 1.0)
        sol = solve_scatter(V, lam)
        r, t, L = sol.coeffs.r, sol.coeffs.t, V.support_radius
        assert abs(sol.psi[-1] - t * np.exp(1j * lam * L)) < 1e-9
        assert abs(sol.psi[0] - (np.exp(-1j * lam * L) + r * np.exp(1j * lam * L))) < 1e-9

    def test_large_potential_refused(self):
        # 2L sqrt(lam^2 + max|V|) = 2 * 0.5 * sqrt(1 + 1e6) ~ 1000 > 400
        with pytest.raises(GridBudgetError, match="exceeds 400"):
            solve_scatter(square_barrier(1e6, 1.0), 1.0)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            solve_scatter(free_potential(), 0.0)

    def test_support_autodetect(self):
        V = potential_from_callable(lambda x: 0.4 * np.exp(-np.asarray(x) ** 2))
        # exp(-x^2) < 1e-12 beyond |x| ~ 5.26
        assert 5.0 < V.support_radius < 6.0

    def test_support_just_inside_the_scan_is_admitted(self):
        # 2 exp(-(x/10)^2) < 1e-12 beyond |x| ~ 53.8; 4.6e-16 at the scan's end
        assert 53.0 < gaussian_bump(2.0, 10.0).support_radius < 55.0

    @pytest.mark.parametrize("width", [20.0, 1e9])
    def test_undecayed_potential_is_refused(self, width):
        # V(60) = 2 exp(-9) ~ 2.5e-4 at width 20, and about 2 at width 1e9
        with pytest.raises(InputRefusal, match="at x = 60, the end of the support scan"):
            gaussian_bump(2.0, width)


class TestWronskian:
    def test_plane_wave_constant(self):
        lam = 1.7
        xs = np.linspace(-5, 5, 101)
        psi = np.exp(1j * lam * xs)
        J = wronskian(psi, 1j * lam * psi)
        assert np.allclose(J, 2j * lam, rtol=1e-14)
        assert np.max(np.abs(J - J[0])) < 1e-14

    @pytest.mark.parametrize("lam", [0.6, 1.4])
    def test_solver_paths_conserve(self, lam):
        sol = solve_scatter(gaussian_bump(1.0, 1.2), lam)
        assert wronskian_drift(sol) < 1e-8

    def test_detects_perturbation(self):
        sol = solve_scatter(gaussian_bump(1.0, 1.2), 1.0)
        clean = wronskian_drift(sol)
        sol.psi[40] += 1e-3
        assert wronskian_drift(sol) > max(10 * clean, 1e-4)


class TestLGProfiles:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [-1, 1])
    def test_residual_decays(self, k, eps):
        rep = lg_profile_residual(k, eps, 0.7, LG_RANGES[k])
        assert rep["slope"] <= -0.9

    @pytest.mark.parametrize("eps", [0, 2])
    def test_sign_other_than_plus_minus_one_rejected(self, eps):
        # the residual used to fit a slope of -+6e-6 to these
        with pytest.raises(ValueError, match="eps"):
            lg_profile(4, eps)
        with pytest.raises(ValueError, match="eps"):
            lg_profile_residual(4, eps, 0.7, (10.0, 1000.0))

    def test_k4_oscillatory_tail_convergent(self):
        rep = lg_tail_masses(4, [100.0, 200.0, 400.0])
        assert rep["convergent"]
        m = rep["masses"]
        assert (m[2] - m[1]) < (m[1] - m[0])

    def test_k2_divergent(self):
        rep = lg_tail_masses(2, [100.0, 200.0, 400.0])
        assert not rep["convergent"]
        m = rep["masses"]
        # harmonic growth: equal increments per doubling
        assert (m[1] - m[0]) == pytest.approx(m[2] - m[1], rel=1e-12)

    @pytest.mark.parametrize("cutoffs", [[100.0, 400.0], [5.0, 100.0, 400.0], [100.0, 400.0, 200.0]])
    def test_tail_ladder_rejected(self, cutoffs):
        with pytest.raises(ValueError):
            lg_tail_masses(3, cutoffs)

    def test_profile_closed_form_derivatives(self):
        u, up, upp = lg_profile(4, -1)(np.linspace(5.0, 9.0, 11))
        h = 1e-5
        um, _, _ = lg_profile(4, -1)(np.linspace(5.0, 9.0, 11) - h)
        upl, _, _ = lg_profile(4, -1)(np.linspace(5.0, 9.0, 11) + h)
        fd = (upl - um) / (2 * h)
        assert np.max(np.abs(fd - up) / np.abs(up)) < 1e-5


class TestBoundaryTerm:
    def test_lg_term_nonvanishing_across_ladder(self):
        vals = [symmetry_boundary_term(R) for R in (50.0, 100.0, 200.0)]
        mods = [abs(v) for v in vals]
        assert min(mods) > 1.9
        assert (max(mods) - min(mods)) / min(mods) < 0.5

    def test_schwartz_function_term_vanishes(self):
        # [u conj(u') - u' conj(u)] for a decaying function drops like its tail
        def term(R):
            u = np.exp(-(R**2) / 4) * np.exp(1j * R)
            up = (-R / 2 + 1j) * u
            return u * np.conj(up) - up * np.conj(u)

        assert abs(term(8.0)) < 1e-12
        assert abs(term(8.0)) < abs(term(4.0))

    def test_compact_support_exactly_zero(self):
        from scatcalc.bumps import plateau

        R = 5.0
        u = plateau(np.array([R]), 1.0, 2.0)[0] * np.exp(1j * R)
        assert u == 0.0
