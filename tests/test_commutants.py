import json

import numpy as np
import pytest

from scatcalc import commutants
from scatcalc.cli import load_config, main, run_experiment
from scatcalc.commutants import (
    DigammaTooSmallError,
    SupportTooWideError,
    ThresholdOrderError,
    build_propagation_commutant,
    model_estimate_multipliers,
    model_inequality_margins,
    radial_commutant_check,
)
from scatcalc.grid import GridBudgetError, make_grid


def _p1_cos(z1, z2):
    return 0.3 * np.cos(z1) + 0.0 * z2


def _p1_one(z1, z2):
    return np.ones_like(z1)


#: Gate on residual_sup / max|a| over the chart grid.  At digamma 2, max|a| is
#: 0.15 to 0.18 (r = -0.7, 0 and 1.3, with or without p1 = 0.3 cos z1), and at
#: digamma 3 it is 0.06 to 0.07, so the absolute gate measures the identity as
#: well.  What is left of an exact identity is the Richardson-extrapolated
#: difference of H_p a, 5e-12 to 9e-12 of max|a|; dropping w^{-1} d_z1 w or p1 from the effective p1 leaves 0.29 to
#: 0.60 of it.  1e-6 sits more than five decades from both.
RELATIVE_RESIDUAL_TOL = 1e-6


def _relative_residual(cb, s0=1.0, eps=0.25):
    Z1, Z2 = commutants._chart_grid(s0, eps)
    return cb.residual_sup / float(np.max(np.abs(cb.a(Z1, Z2))))


class TestFlowBoxCommutant:
    def test_identity_residual(self):
        cb = build_propagation_commutant(1.0, 0.25, digamma=10.0)
        assert cb.residual_sup < 1e-8

    def test_eprime_supported_in_turn_on(self):
        cb = build_propagation_commutant(1.0, 0.25, digamma=10.0)
        assert cb.eprime_support_ok
        z1 = np.array([0.5, 1.0, 1.2])
        z2 = np.zeros_like(z1)
        assert np.allclose(cb.e_prime(z1, z2), 0.0)

    def test_small_digamma_with_p1_rejected(self):
        with pytest.raises(DigammaTooSmallError, match="increase digamma"):
            build_propagation_commutant(
                1.0, 0.25, digamma=0.01, p1=lambda z1, z2: np.ones_like(z1)
            )

    def test_general_orders_substitution(self):
        cb = build_propagation_commutant(1.0, 0.25, digamma=2.0, r=-0.7)
        assert cb.residual_sup < 1e-8
        assert _relative_residual(cb) < RELATIVE_RESIDUAL_TOL
        cb2 = build_propagation_commutant(1.0, 0.25, digamma=2.0, r=1.3)
        assert cb2.residual_sup < 1e-8
        assert _relative_residual(cb2) < RELATIVE_RESIDUAL_TOL

    def test_nonzero_p1_folded_in(self):
        cb = build_propagation_commutant(1.0, 0.25, digamma=2.0, p1=_p1_cos)
        assert cb.residual_sup < 1e-8
        assert _relative_residual(cb) < RELATIVE_RESIDUAL_TOL

    @pytest.mark.parametrize("r", [-0.7, 0.0, 1.3])
    @pytest.mark.parametrize("p1", [None, _p1_cos, _p1_one], ids=["zero", "cos", "one"])
    def test_explicit_digamma_builds_the_identity(self, r, p1):
        # digamma 3 is the least integer that all nine accept (p1 = 1 at r = -0.7
        # and r = 0 refuses digamma 2); b is the square root of a positive
        # argument times a's factors, so it vanishes nowhere a does not
        cb = build_propagation_commutant(1.0, 0.25, digamma=3.0, r=r, p1=p1)
        assert cb.residual_sup < 1e-8
        assert _relative_residual(cb) < RELATIVE_RESIDUAL_TOL
        Z1, Z2 = commutants._chart_grid(1.0, 0.25)
        a = cb.a(Z1, Z2)
        assert np.all(cb.b(Z1, Z2)[a > 0] > 0)

    def test_b_and_a_supports(self):
        cb = build_propagation_commutant(1.0, 0.25, digamma=10.0)
        z1 = np.linspace(-1.0, 2.0, 301)
        z2 = np.zeros_like(z1)
        a = cb.a(z1, z2)
        b = cb.b(z1, z2)
        inside = (z1 > -0.25) & (z1 < 1.25)
        assert np.all(a[~inside] == 0.0)
        assert np.all(b[~inside] == 0.0)
        assert np.all(a >= 0.0) and np.all(b >= 0.0)


class TestModelInequality:
    spec = make_grid(1, 6.0, 64)
    X1, X2 = np.meshgrid(spec.axis(), spec.axis(), indexing="ij")

    def test_multiplier_signs_and_split(self):
        X1, X2 = self.X1, self.X2
        a, b, e = model_estimate_multipliers(X1, X2)
        assert np.all(b >= -1e-15) and np.all(e >= -1e-15) and np.all(a >= -1e-15)
        assert np.all(b >= a - 1e-12)
        assert np.max(a) <= 9.0
        # e lives in the turn-on strip
        assert np.max(np.abs(e[X1 > -1.0 + 1e-9]), initial=0.0) == 0.0

    def test_split_reconstructs_derivative(self):
        X1, X2 = self.X1, self.X2
        a, b, e = model_estimate_multipliers(X1, X2)
        h = 1e-6
        da = (
            model_estimate_multipliers(X1 + h, X2)[0]
            - model_estimate_multipliers(X1 - h, X2)[0]
        ) / (2 * h)
        assert np.max(np.abs(da - (-b + e))) < 1e-6

    def test_quantitative_estimate_holds(self):
        pairs = model_inequality_margins(self.spec, n_fields=20, seed=3)
        assert len(pairs) == 20
        assert all(lhs <= rhs + 1e-8 for lhs, rhs in pairs)

    def test_derivative_is_the_spectral_one(self, monkeypatch):
        # the x1-derivative of a plane wave exp(i k x1) that the grid resolves is k times it
        spec = make_grid(1, np.pi, 16)
        k = 3.0
        wave = np.exp(1j * k * spec.axis())[:, None] * np.ones(16)
        monkeypatch.setattr(np.fft, "ifftn", lambda values: wave)
        [(lhs, rhs)] = model_inequality_margins(spec, n_fields=1, seed=0)
        _, b, e = model_estimate_multipliers(spec.axis()[:, None], spec.axis()[None, :])
        h2 = spec.spacing**2
        assert lhs == pytest.approx(np.sum(b) * h2, rel=1e-14)
        assert rhs == pytest.approx((2.0 * np.sum(e) + 36.0 * k**2 * 16**2) * h2, rel=1e-12)

    def test_lattice_budget(self):
        # N^2 lattice points are bounded as an N^2 grid was: 4098^2 > 2^24
        with pytest.raises(GridBudgetError, match="budget"):
            model_inequality_margins(make_grid(1, 6.0, 4098), n_fields=1, seed=0)


class TestRadialCommutant:
    def test_below_threshold_identity(self):
        rep = radial_commutant_check(1.0, -1.0, 0.05)
        assert rep.branch == "below"
        assert rep.residual_sup < 1e-8

    def test_b_elliptic_at_sink(self):
        rep = radial_commutant_check(1.0, -1.0, 0.05)
        assert rep.min_b_scaled > 0.0

    def test_above_threshold_sign_flip(self):
        rep = radial_commutant_check(1.0, 0.0, 0.05)
        assert rep.branch == "above"
        assert rep.residual_sup < 1e-8

    def test_threshold_order_rejected(self):
        with pytest.raises(ThresholdOrderError, match="threshold"):
            radial_commutant_check(1.0, -0.5, 0.05)

    def test_runner_counts_only_the_threshold_order_error(self, tmp_path, monkeypatch):
        # a support failure at r = -1/2 is a fault, not a refused threshold order
        real = commutants.radial_commutant_check

        def wide_at_threshold(lam, r, delta):
            if r == -0.5:
                raise SupportTooWideError("square-root argument reaches -1")
            return real(lam, r, delta)

        monkeypatch.setattr(commutants, "radial_commutant_check", wide_at_threshold)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({}))
        with pytest.raises(SupportTooWideError):
            run_experiment(load_config(str(path), "commutant"))

    def test_runner_fails_when_the_threshold_order_is_accepted(self, tmp_path, monkeypatch):
        # a check that builds a commutant at r = -1/2 fails the criterion, and the CLI exits 1
        real = commutants.radial_commutant_check

        def accepts_threshold(lam, r, delta):
            return real(lam, -0.6 if r == -0.5 else r, delta)

        monkeypatch.setattr(commutants, "radial_commutant_check", accepts_threshold)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({}))
        report = run_experiment(load_config(str(path), "commutant"))
        assert report.criteria["threshold_order_rejected"] is False
        assert sum(not ok for ok in report.criteria.values()) == 1
        assert main(["commutant", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_oversized_delta_rejected(self):
        with pytest.raises(SupportTooWideError, match="shrink"):
            radial_commutant_check(1.0, -0.6, 0.5)

    @pytest.mark.parametrize("r", [-1.5, -0.8, 0.3])
    def test_branches_across_orders(self, r):
        rep = radial_commutant_check(1.0, r, 0.03)
        assert rep.residual_sup < 1e-8
