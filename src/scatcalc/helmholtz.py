"""Free-Helmholtz generalized eigenfunctions and their scattering data.

Eigenfunctions are synthesized from a density g on the unit sphere as

    u(x) = (2 pi)^{-n} lambda^{n-1} int_{S^{n-1}} exp(i lambda x.theta) g(theta) dtheta,

by the product sphere rule of :mod:`scatcalc.quadrature` (trapezoid on S^1,
Gauss-Legendre x uniform on S^2), with the node count auto-raised to track
the sampling requirement ~ 2 lambda |x| per great circle.  A raised rule has
odd degree and is closed under theta -> -theta, so the sum runs over
antipodal node pairs: with G_+- = (g w)(+-theta) and a = lambda x.theta,

    u(x) = c sum_pairs [cos(a) (G_+ + G_-) + i sin(a) (G_+ - G_-)],

cos(a) and sin(a) from one tangent tan(a/2) per pair, summed in blocks of
about 2^16 terms (points x pairs) that stay in cache.  A node set not closed
under the antipodal map is summed by the same kernel with G_- = 0.

The far field u ~ r^{-(n-1)/2} (e^{i lambda r} f_+ + e^{-i lambda r} f_-) is
read off this representation once: :func:`asymptotic_profile` gives the pair
f_+-(theta) = c_+- g(+-theta), and the leading term and
:func:`solution_from_density` read it.  A :class:`ScatteringSolution` is the
one far-field object: n, lambda, (u, d_r u) and f_+- of an eigenfunction or
of an outgoing/incoming formal series, whose sum and radial derivative come
from one pass over its terms.  The boundary pairing (:func:`profile_pairing`,
:func:`boundary_pairing_check`) takes two solutions and reads n and lambda
from them; a pair that differs in either is refused.

Threshold-decay scans read the density's harmonic power spectrum instead.
By Jacobi-Anger (n = 2) and Rayleigh (n = 3), with orthonormal harmonic
coefficients a_lm of g and c_n = (2 pi)^{-n} lambda^{n-1} |S^{n-1}|,

    int_{S^{n-1}} |u(r w)|^2 dw = c_n^2 sum_l p_l b_l(lambda r)^2,

p_l = sum_m |a_lm|^2, b_l = J_l (n = 2) or j_l (n = 3): Parseval on each
shell, with no angular quadrature and no synthesis.  The spectrum's degree is
tail-checked (:func:`harmonic_power`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from scipy.special import jv, sph_harm_y, spherical_jn

from .grid import (
    MAX_PAIRING_TERMS, MAX_TOTAL_POINTS, GridBudgetError, InputRefusal, QuadratureError,
    fit_growth_exponent, fit_log_growth, radial_weighted_mass,
)
from .quadrature import _cos_sin_from_half, product_sphere_rule, richardson

__all__ = [
    "SphereDensity",
    "ExpansionCoeffs",
    "PowerMismatchError",
    "sphere_rule",
    "sphere_density",
    "quadrature_harmonic_defect",
    "eigenfunction_evaluator",
    "radial_derivative_evaluator",
    "pde_residual_patch",
    "stationary_phase_leading",
    "asymptotic_profile",
    "error_slope",
    "harmonic_power",
    "threshold_scan",
    "series_obstruction",
    "poisson_series_step",
    "build_poisson_series",
    "series_residual_slope",
    "ScatteringSolution",
    "solution_from_density",
    "solution_from_series",
    "profile_pairing",
    "boundary_pairing_check",
    "free_scattering_matrix",
    "FREE_SMATRIX_PHASE",
    "fit_smatrix_phase",
    "rotate_density",
]


class PowerMismatchError(ValueError):
    """Formal series seeded at the wrong radial power; carries the obstruction."""

    def __init__(self, msg, obstruction):
        super().__init__(msg)
        self.obstruction = obstruction


def _rule_sizes(degree: int) -> tuple[int, int]:
    """(polar, azimuth) node counts of the degree-`degree` sphere rule."""
    return max((degree + 2) // 2, 4), max(degree + 1, 8)


def _rule_size(n: int, degree: int) -> int:
    """Node count of the degree-`degree` rule on S^{n-1}."""
    n_polar, n_azimuth = _rule_sizes(degree)
    return n_azimuth * (n_polar if n == 3 else 1)


def _check_rule_budget(n: int, degree: int) -> None:
    """GridBudgetError when the degree-`degree` rule on S^{n-1} has more than
    :data:`~scatcalc.grid.MAX_TOTAL_POINTS` nodes."""
    size = _rule_size(n, degree)
    if size > MAX_TOTAL_POINTS:
        raise GridBudgetError(
            f"degree-{degree} sphere rule with {size} nodes exceeds budget {MAX_TOTAL_POINTS}"
        )


def sphere_rule(n: int, degree: int):
    """Product quadrature on S^{n-1} exact for harmonics up to `degree`.

    An odd degree has an even azimuth count K, and its rule is closed under
    theta -> -theta exactly: node (ring P-1-i, azimuth k+K/2) is set to the
    negation of node (i, k).  Read-only: the densities built on a rule share
    its arrays (:meth:`SphereDensity.with_degree`, :func:`rotate_density`),
    and the synthesis folds views of them.  A rule of more than
    :data:`~scatcalc.grid.MAX_TOTAL_POINTS` nodes raises
    :class:`~scatcalc.grid.GridBudgetError` before it is built.
    """
    if n not in (2, 3):
        raise ValueError("sphere dimension n must be 2 or 3")
    _check_rule_budget(n, degree)
    n_polar, n_azimuth = _rule_sizes(degree)
    nodes, w = product_sphere_rule(n, n_polar, n_azimuth)
    if degree % 2:
        grid = nodes.reshape(-1, n_azimuth, n)
        grid[:, n_azimuth // 2 :] = -grid[::-1, : n_azimuth // 2]
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w


@dataclass
class SphereDensity:
    """Density on S^{n-1} with an attached quadrature of known degree."""

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def __call__(self, theta):
        return np.asarray(self.eval(np.asarray(theta, dtype=float)), dtype=complex)

    def with_degree(self, degree: int) -> "SphereDensity":
        """This density on a rule of at least `degree`: itself when its rule
        suffices, else on the smallest odd degree >= `degree`, whose rule is
        antipodally closed (:func:`sphere_rule`)."""
        if degree <= self.degree:
            return self
        degree |= 1
        nodes, w = sphere_rule(self.n, degree)
        return SphereDensity(self.n, self.eval, nodes, w, degree)

    def l2_norm(self) -> float:
        vals = self(self.nodes)
        return float(np.sqrt(np.sum(self.weights * np.abs(vals) ** 2)))


def sphere_density(n: int, fn: Callable, degree: int = 48) -> SphereDensity:
    nodes, w = sphere_rule(n, degree)
    return SphereDensity(n, fn, nodes, w, degree)


def quadrature_harmonic_defect(dens: SphereDensity) -> float:
    """Worst error integrating low harmonics with the attached quadrature.

    Spherical harmonics of positive degree integrate to zero; defect is the
    max absolute error across degrees up to the declared degree, plus the
    area error at degree zero.
    """
    n, degrees = dens.n, range(1, dens.degree + 1)
    area = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    worst = abs(float(np.sum(dens.weights)) - area)
    if n == 2:
        keys = degrees
    else:
        keys = [(ell, m) for ell in degrees for m in (0, min(ell, 1), ell)]
    for key in keys:
        vals = _angular_eval(n, {key: 1.0}, dens.nodes)
        worst = max(worst, abs(complex(np.sum(dens.weights * vals))))
    return worst


def _far_field_constants(n: int, lam: float) -> tuple[complex, complex]:
    """(c_+, c_-), c_+- = (2 pi)^{-n} lam^{n-1} (2 pi / lam)^{(n-1)/2}
    e^{-+i pi (n-1)/4}: synthesis prefactor times the stationary-phase factor
    of the direction theta = +-xhat, of Hessian signature -+(n-1)."""
    pref = (2.0 * np.pi) ** (-n) * lam ** (n - 1) * (2.0 * np.pi / lam) ** ((n - 1) / 2)
    quarter = np.pi * (n - 1) / 4.0
    return pref * np.exp(-1j * quarter), pref * np.exp(1j * quarter)


def _required_degree(lam: float, rmax: float) -> int:
    if not lam * rmax < MAX_TOTAL_POINTS:  # past every sphere rule's budget, or not finite
        raise GridBudgetError(f"lambda R = {lam * rmax:.3g} exceeds the sphere-rule budget")
    return int(4 + 2 * np.ceil(lam * rmax)) + 16


#: Terms (points x node pairs) per block of the plane-wave sum: its (points,
#: pairs) temporaries stay in cache.
_SYNTH_TERMS = 1 << 16


def _fold(dens: SphereDensity):
    """(nodes, even, odd) of the plane-wave sum over `dens`: the `plus` node of
    each antipodal pair, and the (real, imaginary) columns of G_+ + G_- and of
    i (G_+ - G_-), G_+- = (g w)(+-theta).  The pairs are found (one
    ``np.array_equal``) when the nodes are the antipodally closed rule of
    `dens.degree`; otherwise every node is a `plus` node and G_- = 0."""
    gw = dens(dens.nodes) * dens.weights
    nodes, gp, gm = dens.nodes, gw, 0.0
    n_rings, n_azimuth = _rule_sizes(dens.degree)
    n_rings = 1 if dens.n == 2 else n_rings
    if n_azimuth % 2 == 0 and len(gw) == n_rings * n_azimuth:
        # ring-major halves: azimuths [0, K/2) of every ring, and their antipodes
        half = n_azimuth // 2
        grid, g = dens.nodes.reshape(n_rings, n_azimuth, -1), gw.reshape(n_rings, n_azimuth)
        if np.array_equal(grid[::-1, half:], -grid[:, :half]):
            nodes, gp, gm = grid[:, :half].reshape(-1, dens.n), g[:, :half], g[::-1, half:]
    columns = [s.reshape(-1).view(float).reshape(-1, 2) for s in (gp + gm, 1j * (gp - gm))]
    return (nodes, *columns)


def _synthesis_evaluator(f: SphereDensity, lam: float, kernel):
    """Plane-wave sum over (M, n) points, raising the density's sphere
    rule to the largest radius it is asked for.

    kernel(points, nodes) returns the real (even, odd) parts of the summand
    under theta -> -theta at the `plus` nodes of :func:`_fold`; the sum is
    pref * [even @ (G_+ + G_-) + i odd @ (G_+ - G_-)] with G_+- = (g w)(+-theta),
    in blocks of about :data:`_SYNTH_TERMS` terms.  The closure holds one rule
    and its fold at a time, ``state["dens"]`` and ``state["folded"]``: both
    are dropped before the next rule is built from `f`.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    n = f.n
    pref = (2.0 * np.pi) ** (-n) * lam ** (n - 1)
    state = {"dens": f, "folded": None}

    def synth(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rmax = float(np.sqrt(np.max(np.sum(pts**2, axis=-1)))) if len(pts) else 0.0
        degree = _required_degree(lam, rmax)
        if state["folded"] is None or degree > state["dens"].degree:
            # once per rule, so that each block is two real GEMMs
            state["dens"] = state["folded"] = None
            state["dens"] = f.with_degree(degree)
            state["folded"] = _fold(state["dens"])
        nodes, even, odd = state["folded"]
        step = max(1, _SYNTH_TERMS // len(nodes))
        out = np.empty((len(pts), 2))  # (real, imaginary) rows, read as complex
        for lo in range(0, len(pts), step):
            e, o = kernel(pts[lo : lo + step], nodes)
            out[lo : lo + step] = e @ even + o @ odd
        return pref * out.view(complex)[:, 0]

    return synth


def eigenfunction_evaluator(f: SphereDensity, lam: float):
    """Vectorized evaluator of the eigenfunction over (M, n) point arrays."""

    def phase(pts, nodes):
        return _cos_sin_from_half((0.5 * lam * pts) @ nodes.T)

    return _synthesis_evaluator(f, lam, phase)


def radial_derivative_evaluator(f: SphereDensity, lam: float):
    """d/dr of the eigenfunction along x/|x|, by differentiating the phase;
    ValueError at x = 0, where x/|x| is undefined."""

    def dphase(pts, nodes):
        r = np.sqrt(np.sum(pts**2, axis=-1))
        if np.any(r == 0):
            raise ValueError("the radial derivative is undefined at x = 0")
        ld = lam * ((pts / r[:, None]) @ nodes.T)  # lambda xhat.theta
        c, s = _cos_sin_from_half(ld * (0.5 * r[:, None]))
        c *= ld
        s *= ld
        return np.negative(s, out=s), c

    return _synthesis_evaluator(f, lam, dphase)


def _fd_laplacian(u, base: np.ndarray, step: float) -> np.ndarray:
    """sum_j d^2 u / dx_j^2 at the (M, n) points base, by the 4th-order
    five-point stencil per axis (minus the positive Laplacian)."""
    n = base.shape[-1]
    u0 = u(base)
    acc = np.zeros(len(base), dtype=complex)
    for j in range(n):
        col = {}
        for k in (-2, -1, 1, 2):
            shift = np.zeros(n)
            shift[j] = k * step
            col[k] = u(base + shift)
        acc += (
            -col[-2] / 12 + 4 * col[-1] / 3 - 5 * u0 / 2 + 4 * col[1] / 3 - col[2] / 12
        ) / step**2
    return acc


def pde_residual_patch(f: SphereDensity, lam: float, center) -> float:
    """sup |(Delta - lambda^2) u| on a patch, by Richardson 4th-order stencils.

    The patch is the 6^n grid on center + [-0.4, 0.4]^n, the stencil steps
    0.05 and 0.025.  Delta is the positive Laplacian -sum d^2/dx_j^2.  The
    finite-difference Laplacian is an oracle independent of the quadrature
    representation.
    """
    n = f.n
    c = np.asarray(center, dtype=float)
    axes = [np.linspace(-0.4, 0.4, 6)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=-1) + c
    u = eigenfunction_evaluator(f, lam)
    lap = richardson(lambda h: _fd_laplacian(u, base, h), 0.05, 4)
    resid = -lap - lam**2 * u(base)
    return float(np.max(np.abs(resid)))


def stationary_phase_leading(f: SphereDensity, lam: float, x) -> np.ndarray:
    """Leading large-|x| term r^{-(n-1)/2} (e^{i lam r} f_+(xhat) + e^{-i lam r}
    f_-(xhat)), r = |x|, at (M, n) points x, with f_+- from
    :func:`asymptotic_profile`: spherical waves with amplitudes g(+-xhat)."""
    pts = np.asarray(x, dtype=float)
    f_plus, f_minus = asymptotic_profile(f, lam)
    r = np.sqrt(np.sum(pts**2, axis=-1))
    xhat = pts / r[:, None]
    waves = np.exp(1j * lam * r) * f_plus(xhat) + np.exp(-1j * lam * r) * f_minus(xhat)
    return waves / r ** ((f.n - 1) / 2)


def asymptotic_profile(f: SphereDensity, lam: float) -> tuple[SphereDensity, SphereDensity]:
    """(f_+, f_-): the outgoing/incoming coefficients, read off analytically
    from the density.

    In u ~ r^{-(n-1)/2} (e^{i lam r} f_+ + e^{-i lam r} f_-), the coefficients
    are f_+-(theta) = c_+- g(+-theta), the stationary-phase constants of
    :func:`_far_field_constants`."""
    cp, cm = _far_field_constants(f.n, lam)
    return replace(f, eval=lambda th: cp * f(th)), replace(f, eval=lambda th: cm * f(-th))


def _probe_directions(n: int, n_dirs: int) -> np.ndarray:
    """About n_dirs unit vectors, a stride through the degree-2 n_dirs rule."""
    dirs, _ = sphere_rule(n, 2 * n_dirs)
    return dirs[:: max(1, len(dirs) // n_dirs)]


def error_slope(f: SphereDensity, lam: float, radii) -> float:
    """Fitted log-log slope of sup |u - leading| over about 4 directions
    against radius."""
    _check_rule_budget(f.n, _required_degree(lam, max(radii)))  # before any synthesis
    dirs = _probe_directions(f.n, 4)
    u = eigenfunction_evaluator(f, lam)
    errs = []
    for r in radii:
        pts = r * dirs
        err = np.abs(u(pts) - stationary_phase_leading(f, lam, pts))
        errs.append(float(np.max(err)))
    return fit_growth_exponent(radii, errs)


#: Share of a density's harmonic power that the top half of the resolved
#: degrees may carry; degrees with a smaller share are dropped.
SPECTRUM_TAIL = 1e-28

#: Sphere-rule degree past which :func:`harmonic_power` gives up, per n.
_MAX_SPECTRUM_DEGREE = {2: 4096, 3: 256}


def _power_spectrum(f: SphereDensity, degree: int) -> np.ndarray:
    """p_l for l <= degree // 2 by the degree-`degree` sphere rule, which
    integrates g conj(Y_lm) exactly when g has degree at most degree // 2."""
    nodes, w = sphere_rule(f.n, degree)
    gw = w * f(nodes)
    top = degree // 2
    if f.n == 2:
        # trapezoid on uniform angles: a DFT; a_k = sum w g e^{-ik phi} / sqrt(2 pi)
        p = np.abs(np.fft.fft(gw)) ** 2 / (2.0 * np.pi)
        power = p[: top + 1].copy()
        power[1:] += p[: -top - 1 : -1]  # k and -k both count toward l = |k|
        return power
    n_polar, n_azimuth = _rule_sizes(degree)
    # azimuthal DFT per polar ring, then Y_lm(theta, 0) in the polar angle
    G = np.fft.fft(gw.reshape(n_polar, n_azimuth), axis=1)
    theta = np.arccos(nodes[::n_azimuth, 2])
    power = np.empty(top + 1)
    for ell in range(top + 1):
        m = np.arange(-ell, ell + 1)
        ylm = sph_harm_y(ell, m[:, None], theta[None, :], 0.0)
        power[ell] = np.sum(np.abs(np.sum(np.conj(ylm) * G[:, m].T, axis=1)) ** 2)
    return power


def harmonic_power(f: SphereDensity) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, p_l): the harmonic power spectrum of the density.

    p_l = sum_m |a_lm|^2 over orthonormal harmonics: e^{ik phi} / sqrt(2 pi)
    on S^1 (k and -k both count toward l = |k|), ``sph_harm_y`` on S^2.  The
    sphere rule starts at `f.degree` and doubles until the top half of the
    resolved degrees carries at most :data:`SPECTRUM_TAIL` of the power;
    past :data:`_MAX_SPECTRUM_DEGREE` a :class:`QuadratureError` is raised.
    Only the degrees whose power exceeds that share come back.
    """
    degree = f.degree
    while True:
        power = _power_spectrum(f, degree)
        floor = SPECTRUM_TAIL * power.sum()
        if power[len(power) // 2 + 1 :].sum() <= floor:
            keep = np.flatnonzero(power > floor)
            return keep, power[keep]
        degree *= 2
        if degree > _MAX_SPECTRUM_DEGREE[f.n]:
            raise QuadratureError(
                f"harmonic power of the density still has a tail share above "
                f"{SPECTRUM_TAIL:g} at sphere-rule degree {degree // 2}"
            )


def threshold_scan(f: SphereDensity, lam: float, r_orders, radii) -> dict:
    """Truncated-mass growth table of the eigenfunction across spatial orders.

    For each order r, masses over the radius ladder are classified: power-law
    exponent fit for r > -1/2 (expected 2r + 1), log-linear fit quality at
    r = -1/2, boundedness ratio for r < -1/2.  The masses are one
    :func:`~scatcalc.grid.radial_weighted_mass` over the whole ladder, with its
    self-check, on the shell integrals c_n^2 sum_l p_l b_l(lam r)^2 of the
    tail-checked spectrum of :func:`harmonic_power` (Parseval; see the module
    docstring).
    """
    n = f.n
    degrees, power = harmonic_power(f)
    area = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    c_n = (2.0 * np.pi) ** (-n) * lam ** (n - 1) * area
    bessel = jv if n == 2 else spherical_jn

    def shell(rho):
        return c_n**2 * (power @ bessel(degrees[:, None], lam * rho[None, :]) ** 2)

    by_radius = radial_weighted_mass(shell, r_orders, radii, n=n, lam=lam)
    table = {}
    for j, r in enumerate(r_orders):
        masses = by_radius[:, j].tolist()
        entry = {"radii": list(radii), "masses": masses}
        if r > -0.5:
            entry["kind"] = "power"
            entry["exponent"] = fit_growth_exponent(radii, masses)
        elif r == -0.5:
            entry["kind"] = "log"
            entry["log_r2"] = fit_log_growth(radii, masses)
        else:
            entry["kind"] = "bounded"
            # the top mass over the mass two rungs below it (over the first
            # rung on a ladder of fewer than three radii), where the tail
            # dominates the trend
            base = -3 if len(masses) >= 3 else 0
            if masses[base] == 0.0:
                raise InputRefusal(f"order {r}: the weighted masses underflow to zero")
            entry["ratio"] = masses[-1] / masses[base]
            entry["ratio_radii"] = [float(radii[base]), float(radii[-1])]
        table[float(r)] = entry
    return table


# ---------------------------------------------------------------------------
# formal (Poisson-type) series
# ---------------------------------------------------------------------------


#: sign s of the oscillation e^{s i lam r}
_OSCILLATION_SIGN = {"outgoing": 1.0, "incoming": -1.0}


def series_obstruction(p: float, lam: float, n: int, oscillation: str) -> complex:
    """Leading coefficient of (Delta - lam^2)(r^{-p} e^{s i lam r} a(y)).

    For the outgoing oscillation (s = +1) it is i lam (2p - n + 1), vanishing
    exactly at p = (n - 1)/2; the incoming oscillation flips the sign.
    """
    s = _OSCILLATION_SIGN[oscillation]
    return s * 1j * lam * (2.0 * p - n + 1.0)


@dataclass
class ExpansionCoeffs:
    """Spherical-harmonic coefficients of the series terms a_0..a_J.

    n = 2 entries are Fourier coefficients {k: c_k}; n = 3 entries are
    {(ell, m): c}.  The positive spherical Laplacian acts diagonally with
    eigenvalue k^2 resp. ell (ell + 1).
    """

    n: int
    lam: float
    terms: list
    oscillation: str

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("need at least a_0")


def _laplace_eigen(n: int, key) -> float:
    if n == 2:
        return float(key**2)
    ell, _ = key
    return float(ell * (ell + 1))


def poisson_series_step(a_j: dict, j: int, lam: float, n: int, oscillation: str) -> dict:
    """One recursion step a_{j+1} from a_j (coefficient dictionaries).

    Built so the r^{-(n-1)/2 - j - 1} error of the truncated series cancels:
    a_{j+1} = -s [Delta_S + mu (n - 2 - mu)] a_j / (2 i lam (j + 1)) with
    mu = (n-1)/2 + j and s the oscillation sign.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    s = _OSCILLATION_SIGN[oscillation]
    mu = (n - 1) / 2.0 + j
    out = {}
    for key, c in a_j.items():
        lap = _laplace_eigen(n, key)
        val = -s * (lap + mu * (n - 2.0 - mu)) * c / (2.0j * lam * (j + 1))
        if val != 0:
            out[key] = val
    return out


def build_poisson_series(
    a0: dict, J: int, lam: float, n: int, *, power: Optional[float] = None,
    oscillation: str = "outgoing",
) -> ExpansionCoeffs:
    """Coefficients a_0..a_J of the formal series, seeded at radial power
    (n-1)/2; any other seed power raises with the nonzero obstruction."""
    nu = (n - 1) / 2.0
    p = nu if power is None else float(power)
    if p != nu:
        ob = series_obstruction(p, lam, n, oscillation)
        raise PowerMismatchError(
            f"radial power {p} leaves the uncancellable leading term "
            f"{ob!r} * r^-(p+1); the series exists only at power {nu}",
            ob,
        )
    terms = [dict(a0)]
    for j in range(J):
        terms.append(poisson_series_step(terms[-1], j, lam, n, oscillation))
    return ExpansionCoeffs(n=n, lam=lam, terms=terms, oscillation=oscillation)


def _angular_eval(n: int, coeffs: dict, xhat: np.ndarray) -> np.ndarray:
    """sum c Y_key(xhat) over {key: c}: e^{ik phi} on S^1, ``sph_harm_y`` on S^2."""
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    ph = np.arctan2(xhat[:, 1], xhat[:, 0])
    if n == 2:
        harmonics = (np.exp(1j * k * ph) for k in coeffs)
    else:
        th = np.arccos(np.clip(xhat[:, 2], -1, 1))
        harmonics = (sph_harm_y(ell, m, th, ph) for ell, m in coeffs)
    out = np.zeros(len(xhat), dtype=complex)
    for c, y in zip(coeffs.values(), harmonics):
        out += c * y
    return out


def _series_sums(exp: ExpansionCoeffs, points) -> tuple[np.ndarray, np.ndarray]:
    """(u, d_r u) of the truncated series at (M, n) points, from one pass over
    its terms e^{s i lam r} r^{-mu_j} a_j(xhat), mu_j = (n-1)/2 + j; the radial
    derivative is exact term by term."""
    s = _OSCILLATION_SIGN[exp.oscillation]
    nu = (exp.n - 1) / 2.0
    pts = np.asarray(points, dtype=float)
    r = np.sqrt(np.sum(pts**2, axis=-1))
    xhat = pts / r[:, None]
    u = np.zeros(len(pts), dtype=complex)
    du = np.zeros(len(pts), dtype=complex)
    for j, coeffs in enumerate(exp.terms):
        mu = nu + j
        decay, ang = r ** (-mu), _angular_eval(exp.n, coeffs, xhat)
        u += decay * ang
        du += (s * 1j * exp.lam - mu / r) * decay * ang
    osc = np.exp(s * 1j * exp.lam * r)
    return osc * u, du * osc


def series_residual_slope(exp: ExpansionCoeffs, radii):
    """Fitted decay exponent of |(Delta - lam^2) u_J| via the FD oracle (step
    0.02, about 6 directions)."""

    def u(points):
        return _series_sums(exp, points)[0]

    n = exp.n
    dirs = _probe_directions(n, 6)
    vals = []
    for r in radii:
        base = r * dirs
        resid = -_fd_laplacian(u, base, 0.02) - exp.lam**2 * u(base)
        vals.append(float(np.max(np.abs(resid))))
    return fit_growth_exponent(radii, vals), vals


# ---------------------------------------------------------------------------
# boundary pairing and the scattering matrix
# ---------------------------------------------------------------------------


@dataclass
class ScatteringSolution:
    """The one far-field object: a solution of (Delta - lam^2) u = 0 on R^n.

    values maps (M, n) point arrays to (u, d_r u); f_plus and f_minus are
    the outgoing/incoming coefficient evaluators on the unit sphere.
    Quadrature eigenfunctions carry both coefficients; one-sided formal-series
    solutions carry one and a zero.  The boundary pairing reads n and lam
    from the two solutions it pairs.
    """

    n: int
    lam: float
    values: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    f_plus: Callable[[np.ndarray], np.ndarray]
    f_minus: Callable[[np.ndarray], np.ndarray]


def solution_from_density(f: SphereDensity, lam: float) -> ScatteringSolution:
    """The eigenfunction of `f` at `lam` as a two-sided solution."""
    f_plus, f_minus = asymptotic_profile(f, lam)
    u, du = eigenfunction_evaluator(f, lam), radial_derivative_evaluator(f, lam)
    return ScatteringSolution(
        n=f.n,
        lam=lam,
        values=lambda points: (u(points), du(points)),
        f_plus=f_plus,
        f_minus=f_minus,
    )


def solution_from_series(exp: ExpansionCoeffs) -> ScatteringSolution:
    """Truncated one-sided series as a pairing-grade solution.

    Its PDE defect O(r^{-(n-1)/2 - J - 2}) is far below the O(1/R) pairing
    convergence, and its radial derivative is exact term-by-term.
    """
    def leading(points):
        return _angular_eval(exp.n, exp.terms[0], points)

    def zero(points):
        return np.zeros(len(np.atleast_2d(points)), dtype=complex)

    fp = leading if exp.oscillation == "outgoing" else zero
    fm = zero if exp.oscillation == "outgoing" else leading
    return ScatteringSolution(exp.n, exp.lam, partial(_series_sums, exp), fp, fm)


def _same_energy(sol1: ScatteringSolution, sol2: ScatteringSolution) -> None:
    """ValueError unless the two solutions share n and lambda."""
    if (sol1.n, sol1.lam) != (sol2.n, sol2.lam):
        raise ValueError(
            f"cannot pair solutions at (n, lambda) = ({sol1.n}, {sol1.lam}) "
            f"and ({sol2.n}, {sol2.lam})"
        )


def profile_pairing(sol1: ScatteringSolution, sol2: ScatteringSolution) -> complex:
    """2 i lam int (f1+ conj(f2+) - f1- conj(f2-)) on the degree-64 sphere rule:
    the profile form of the boundary pairing, at the solutions' common n and
    lam."""
    _same_energy(sol1, sol2)
    qn, qw = sphere_rule(sol1.n, 64)
    plus = np.asarray(sol1.f_plus(qn)) * np.conj(np.asarray(sol2.f_plus(qn)))
    minus = np.asarray(sol1.f_minus(qn)) * np.conj(np.asarray(sol2.f_minus(qn)))
    return 2j * sol1.lam * complex(np.sum(qw * (plus - minus)))


def _pairing_degree(n: int, lam: float, R: float) -> int:
    """Degree of the boundary pairing's sphere rule at radius R; GridBudgetError
    when its synthesis would exceed :data:`~scatcalc.grid.MAX_PAIRING_TERMS`
    terms.  The terms grow with R, so a ladder is admitted by its largest."""
    degree = _required_degree(lam, R)
    # points x node pairs of the synthesis rule (odd degree) x the evaluators u
    # and d_r u of both solutions, as if both were synthesized
    terms = _rule_size(n, degree) * (_rule_size(n, degree | 1) // 2) * 4
    if terms > MAX_PAIRING_TERMS:
        raise GridBudgetError(
            f"boundary pairing at R = {R:.3g} needs {terms:.3g} synthesis terms, over the budget "
            f"{MAX_PAIRING_TERMS:.3g}; use smaller radii (terms grow as (lambda R)^{2 * (n - 1)})"
        )
    return degree


def boundary_pairing_check(sol1: ScatteringSolution, sol2: ScatteringSolution, R: float):
    """(lhs(R), rhs, gap): Green's-identity boundary term vs the profile form.

    lhs(R) = - oint_{|x|=R} (u1 dr conj(u2) - (dr u1) conj(u2)) dS converges to
    rhs = :func:`profile_pairing`; the oscillatory cross terms cancel exactly
    in the Wronskian-type combination, so the gap decays at the rate of the
    subleading far-field corrections.  n and lam are the solutions' own, and a
    pair that differs in either raises ValueError; promote a density with
    :func:`solution_from_density`, and pass series solutions for one-sided
    data.  The gap is relative to |rhs| when that is nonzero, absolute
    otherwise.  A check whose synthesis would exceed
    :data:`~scatcalc.grid.MAX_PAIRING_TERMS` terms raises
    :class:`~scatcalc.grid.GridBudgetError` before any synthesis.
    """
    _same_energy(sol1, sol2)
    n = sol1.n
    nodes, w = sphere_rule(n, _pairing_degree(n, sol1.lam, R))
    pts = R * nodes
    u1, du1 = sol1.values(pts)
    u2, du2 = sol2.values(pts)
    integrand = u1 * np.conj(du2) - du1 * np.conj(u2)
    lhs = -complex(np.sum(w * integrand)) * R ** (n - 1)
    rhs = profile_pairing(sol1, sol2)
    scale = abs(rhs) if abs(rhs) > 1e-12 else 1.0
    return lhs, rhs, abs(lhs - rhs) / scale


#: Free scattering-matrix phase c_+ / c_- = e^{-i pi (n-1)/2} of
#: :func:`_far_field_constants`, for n = 2, 3 (lam cancels); the map is
#: f_+(theta) = PHASE[n] * f_-(-theta).
FREE_SMATRIX_PHASE = {n: complex(np.divide(*_far_field_constants(n, 1.0))) for n in (2, 3)}


def free_scattering_matrix(lam: float, f_minus: SphereDensity) -> SphereDensity:
    """Map incoming data to outgoing data for the free problem.

    Implemented through the coefficient chain: solve for the synthesizing
    density g from f_- and read off f_+; the net effect is the antipodal map
    times the phase c_+ / c_- = e^{-i pi (n-1)/2}, :data:`FREE_SMATRIX_PHASE`.
    """
    cp, cm = _far_field_constants(f_minus.n, lam)

    def g(theta):
        return f_minus(-theta) / cm

    return replace(f_minus, eval=lambda th: cp * g(th))


def fit_smatrix_phase(lam: float, n: int, extra_degree: int = 0) -> complex:
    """Measure the S-matrix phase f_+(theta) / f_-(-theta) by oscillation fits.

    Synthesizes an eigenfunction from a reference density and, along theta =
    e_1 and along -theta separately, solves the 2x2 system
    u(r) = r^{-(n-1)/2}(e^{i lam r} f_+ + e^{-i lam r} f_-) at r = 200 and
    200 + pi/(4 lam) for the coefficients; the phase is the fitted f_+ at theta
    over the fitted f_- at -theta.  Stability under quadrature refinement
    (extra_degree) is the fixture check, closeness to
    :data:`FREE_SMATRIX_PHASE` the value check.
    """
    direction = np.zeros(n)
    direction[0] = 1.0
    if n == 2:
        dens = sphere_density(2, lambda th: 1.0 + 0.6 * th[:, 0] + 0.3j * th[:, 1])
    else:
        dens = sphere_density(3, lambda th: 1.0 + 0.5 * th[:, 2] + 0.25j * th[:, 0])
    r1, r2 = 200.0, 200.0 + np.pi / (4 * lam)
    if extra_degree:
        dens = dens.with_degree(_required_degree(lam, r1) + extra_degree)
    u = eigenfunction_evaluator(dens, lam)
    nu = (n - 1) / 2.0
    A = np.array(
        [
            [np.exp(1j * lam * r1) * r1 ** (-nu), np.exp(-1j * lam * r1) * r1 ** (-nu)],
            [np.exp(1j * lam * r2) * r2 ** (-nu), np.exp(-1j * lam * r2) * r2 ** (-nu)],
        ]
    )
    fp_fit, _ = np.linalg.solve(A, u(np.stack([r1 * direction, r2 * direction])))
    _, fm_fit = np.linalg.solve(A, u(np.stack([-r1 * direction, -r2 * direction])))
    return complex(fp_fit / fm_fit)


def rotate_density(f: SphereDensity, Rmat: np.ndarray) -> SphereDensity:
    """Pullback of the density under a rotation: (R.f)(theta) = f(R^T theta)."""
    Rmat = np.asarray(Rmat, dtype=float)
    return replace(f, eval=lambda th: f(th @ Rmat))
