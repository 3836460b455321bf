"""Positive-commutator symbol constructions and their exact identities.

Three pieces of machinery live here:

* a concrete quadratic-form inequality for the model operator D_{x1} on R^2
  (multiplier symbols b, e derived from a product cutoff times exp(-x1),
  with the sharp constant 36 coming from absorbing a^2 <= 9 b), checked on
  the square lattice of a 1-D grid with D_{x1} applied by FFT along x1;

* the propagation commutant along a flow-box chart, where H_p = d/dz1
  exactly: a = w * chi(z1) chi1(z1)^2 psi(z')^2 with the flat turn-off
  chi(z1) = exp(-digamma/(T - z1)), satisfying

      H_p a + p1 a + b^2 + a^2 - e' = 0

  identically, with b given by a smooth closed-form square root (digamma
  large enough makes the root's argument strictly positive);

* the radial commutant at a sink of the Helmholtz boundary flow, built from
  rho^{-(2r+1)} phi(pbar)^2 psi(varrho)^2 with the threshold dichotomy in the
  sign of 2r + 1, satisfying (below threshold)

      H_p a = -2 delta rho^{2r+2} a^2 - b^2 + e^2 + h pbar.

The identities are algebraic; the reported residuals measure only the finite
differences used to evaluate the flow derivative, and sit far below any
asymptotic tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bumps import (
    FlatSquareCutoff,
    chi0,
    plateau,
    smoothstep,
    smoothstep_prime,
    sqrt_chi0_over_t2,
)
from .grid import MAX_TOTAL_POINTS, GridBudgetError, GridSpec, InputRefusal
from .quadrature import central, richardson

__all__ = [
    "CommutantBundle",
    "RadialCommutantReport",
    "DigammaTooSmallError",
    "SupportTooWideError",
    "ThresholdOrderError",
    "build_propagation_commutant",
    "model_estimate_multipliers",
    "model_inequality_margins",
    "radial_commutant_check",
]


class DigammaTooSmallError(InputRefusal):
    """Square-root argument loses positivity; increase digamma."""


class SupportTooWideError(InputRefusal):
    """Square-root argument loses positivity; shrink delta."""


class ThresholdOrderError(InputRefusal):
    """Order r = -1/2: the leading commutant term has no sign to exploit."""


@dataclass
class CommutantBundle:
    a: Callable
    b: Callable
    e_prime: Callable
    digamma: float
    residual_sup: float
    eprime_support_ok: bool


def _chart_grid(s0: float, eps: float):
    z1 = np.linspace(-eps - 0.5, s0 + eps + 0.5, 221)
    z2 = np.linspace(-2 * eps - 0.5, 2 * eps + 0.5, 101)
    return np.meshgrid(z1, z2, indexing="ij")


def build_propagation_commutant(
    s0: float,
    eps: float,
    digamma: Optional[float] = None,
    r: float = 0.0,
    p1: Optional[Callable] = None,
) -> CommutantBundle:
    """Commutant bundle on a flow-box chart (z1, z') with H_p = d/dz1.

    The turn-on chi1 switches on over [-eps, eps], the turn-off is the flat
    exponential ending at T = s0 + eps, and psi localizes |z'| <= 2 eps.  For
    the spatial order r the weight w = (1 + z1^2 + z'^2)^r multiplies a, and
    the construction literally replaces p1 by p1 + w^{-1} d_z1 w (the
    frequency weight is constant on a chart at fixed finite frequency, so no
    frequency order enters).  If digamma is omitted it is set to 10x the sup of the
    competing terms and escalated by 4x up to three times.
    """
    T = s0 + eps
    p1_fn = p1 if p1 is not None else (lambda z1, z2: np.zeros_like(z1))

    def w(z1, z2):
        return (1.0 + z1**2 + z2**2) ** r

    def w_logderiv(z1, z2):
        return 2.0 * r * z1 / (1.0 + z1**2 + z2**2)

    def p1_eff(z1, z2):
        return p1_fn(z1, z2) + w_logderiv(z1, z2)

    def chi1(z1):
        return smoothstep((z1 + eps) / (2 * eps))

    def chi1p(z1):
        return smoothstep_prime((z1 + eps) / (2 * eps)) / (2 * eps)

    def psi(z2):
        return plateau(z2, eps, 2 * eps)

    Z1, Z2 = _chart_grid(s0, eps)
    competing = (T - Z1) ** 2 * (np.abs(p1_eff(Z1, Z2)) + w(Z1, Z2))
    auto = digamma is None
    dig = 10.0 * float(np.max(competing)) if auto else float(digamma)

    def sqrt_arg(z1, z2, dg):
        chi = chi0(T - z1, dg)
        a0 = chi * chi1(z1) ** 2 * psi(z2) ** 2
        return dg - (T - z1) ** 2 * (p1_eff(z1, z2) + w(z1, z2) * a0)

    support = (chi1(Z1) * psi(Z2) > 0) & (Z1 < T)
    attempts = 0
    while True:
        arg = sqrt_arg(Z1, Z2, dig)
        if np.all(arg[support] >= 1e-6):
            break
        attempts += 1
        if not auto or attempts > 3:
            raise DigammaTooSmallError(
                f"square-root argument reaches {float(np.min(arg[support])):.3e}; "
                "increase digamma"
            )
        dig *= 4.0

    def a_fn(z1, z2):
        return w(z1, z2) * chi0(T - z1, dig) * chi1(z1) ** 2 * psi(z2) ** 2

    def b_fn(z1, z2):
        core = sqrt_chi0_over_t2(T - z1, dig) * chi1(z1) * psi(z2) * np.sqrt(w(z1, z2))
        return core * np.sqrt(np.clip(sqrt_arg(z1, z2, dig), 0.0, None))

    def e_fn(z1, z2):
        return 2.0 * w(z1, z2) * chi0(T - z1, dig) * chi1(z1) * chi1p(z1) * psi(z2) ** 2

    # flow derivative by Richardson-extrapolated central differences in z1
    h = 1e-4 * (1.0 + np.abs(Z1))
    Hpa = richardson(lambda hv: central(lambda t: a_fn(Z1 + t, Z2), hv), h, 2)
    resid = Hpa + p1_fn(Z1, Z2) * a_fn(Z1, Z2) + b_fn(Z1, Z2) ** 2 + a_fn(Z1, Z2) ** 2 - e_fn(Z1, Z2)
    residual_sup = float(np.max(np.abs(resid)))
    outside_turn_on = np.abs(Z1) > eps
    eprime_ok = bool(np.max(np.abs(e_fn(Z1, Z2)[outside_turn_on]), initial=0.0) == 0.0)
    return CommutantBundle(
        a=a_fn,
        b=b_fn,
        e_prime=e_fn,
        digamma=dig,
        residual_sup=residual_sup,
        eprime_support_ok=eprime_ok,
    )


def model_estimate_multipliers(x1, x2):
    """Multipliers (a, b, e) of the model propagation estimate on R^2.

    chi_a is 1 on [-1, 2], supported on [-2, 3]; chi_b is 1 on [-1, 1],
    supported on [-2, 2]; a = chi_a(x1) chi_b(x2) exp(-x1), and
    d_x1 a = -b + e splits by the sign regions of chi_a', giving b >= a >= 0
    and e >= 0 supported in the turn-on strip x1 in [-2, -1].
    """
    up = smoothstep(x1 + 2.0)
    down = 1.0 - smoothstep(x1 - 2.0)
    chi_a = up * down
    dchi_a = smoothstep_prime(x1 + 2.0) * down - up * smoothstep_prime(x1 - 2.0)
    chi_b = plateau(x2, 1.0, 2.0)
    expf = np.exp(-x1)
    a = chi_a * chi_b * expf
    e = np.where(x1 <= 0, dchi_a, 0.0) * expf * chi_b
    b = a - np.where(x1 >= 0, dchi_a, 0.0) * expf * chi_b
    return a, b, e


def model_inequality_margins(spec: GridSpec, n_fields: int, seed: int):
    """<b u, u> vs 2 <e u, u> + 36 ||D_x1 u||^2 for random band-limited fields.

    The fields live on the lattice spec.axis() x spec.axis() of R^2.  Returns
    (lhs, rhs) pairs in the discrete L^2 pairing; the inequality is the
    quantitative propagation estimate for P = D_x1, with the constant 36
    coming from the explicit absorption (a <= 9, so a^2 <= 9b).
    """
    N = spec.size
    if N**2 > MAX_TOTAL_POINTS:
        raise GridBudgetError(f"lattice with {N}^2 points exceeds budget {MAX_TOTAL_POINTS}")
    rng = np.random.default_rng(seed)
    x, k = spec.axis(), spec.freq_axis()
    _, b, e = model_estimate_multipliers(x[:, None], x[None, :])
    h2 = spec.spacing**2
    kcut = 0.25 * np.pi / spec.spacing
    K1 = k[:, None]
    damp = np.exp(-((K1**2 + k[None, :] ** 2) / kcut**2) * 3.0)
    out = []
    for _ in range(n_fields):
        coef = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        u = np.fft.ifftn(coef * damp)
        # D_x1 u by one FFT pair along x1: the grid transform's signs and
        # normalizations cancel between its forward and inverse
        f = np.fft.ifft(K1 * np.fft.fft(u, axis=0), axis=0)
        lhs = float(np.sum(b * np.abs(u) ** 2).real * h2)
        rhs = float(
            2.0 * np.sum(e * np.abs(u) ** 2).real * h2 + 36.0 * np.sum(np.abs(f) ** 2) * h2
        )
        out.append((lhs, rhs))
    return out


@dataclass
class RadialCommutantReport:
    branch: str
    residual_sup: float
    min_b_scaled: float


def radial_commutant_check(lam: float, r: float, delta: float) -> RadialCommutantReport:
    """Verify the radial-point commutant identity on the Helmholtz sink chart.

    Chart: x1-dominant, sign +1, coordinates (rho, v, xi) with v the offset
    from the radial set; the (2 rho)^{-1}-rescaled field gives beta_0 = -xi_1
    and beta_1 = -2 xi_1 on the sink where xi_1 > 0.  The commutant is

        a = rho^{-(2r+1)} phi(pbar)^2 psi(varrho)^2,   varrho = v^2,

    with pbar the normalized characteristic function of xi, phi a plateau
    (1 on |pbar| <= 0.1, 0 beyond 0.25) and psi the flat square cutoff on
    [0.01, 0.09].  Below threshold
    (r < -1/2) the identity H_p a = -2 delta rho^{2r+2} a^2 - b^2 + e^2
    + h pbar holds pointwise (h vanishes for the flat model, whose flow
    freezes xi); above threshold the b^2 and delta terms switch sign, and the
    e^2 term stays on the same side (it is the *estimate* that discards it).
    Exactly at r = -1/2 there is no sign to exploit and the check refuses.
    """
    if r == -0.5:
        raise ThresholdOrderError(
            "2r + 1 = 0: the leading commutant term has no sign at the threshold order"
        )
    below = r < -0.5
    cut = FlatSquareCutoff(0.01, 0.09)

    def phi(p):
        return plateau(p, 0.10, 0.25)

    # sample chart points: rho > 0, v around the sink, xi near the sphere with
    # x1-dominant directions (xi_1 comfortably positive)
    rhos = np.linspace(0.02, 0.4, 14)
    vs = np.linspace(-0.35, 0.35, 15)
    qs = lam * np.linspace(0.85, 1.15, 9)
    angs = np.linspace(-0.35, 0.35, 5)
    R, V, Q, A = np.meshgrid(rhos, vs, qs, angs, indexing="ij")
    XI1 = Q * np.cos(A)
    XI2 = Q * np.sin(A)
    beta0 = -XI1
    beta1 = -2.0 * XI1

    def pbar(xi1, xi2):
        q2 = xi1**2 + xi2**2
        return (q2 - lam**2) / (q2 + lam**2)

    def a_of(rho, v, xi1, xi2):
        return rho ** (-(2 * r + 1)) * phi(pbar(xi1, xi2)) ** 2 * cut.psi(v**2) ** 2

    sign = 1.0 if below else -1.0
    arg = sign * (beta0 * (2 * r + 1)) - 2.0 * delta * phi(pbar(XI1, XI2)) ** 2 * cut.psi(V**2) ** 2
    on_supp = (phi(pbar(XI1, XI2)) * cut.psi(V**2)) > 0
    if np.any(arg[on_supp] <= 0):
        raise SupportTooWideError(
            f"square-root argument reaches {float(np.min(arg[on_supp])):.3e}; "
            "shrink delta or move r away from -1/2"
        )

    b = R ** (-r) * phi(pbar(XI1, XI2)) * cut.psi(V**2) * np.sqrt(np.clip(arg, 0.0, None))
    e = R ** (-r) * phi(pbar(XI1, XI2)) * np.sqrt(np.abs(beta1) * V**2) * cut.eta(V**2)

    # directional derivative of a along the chart field (drho, dv) =
    # (beta0 rho, beta1 v / 2 * 2) ... namely (-xi1 rho, -xi1 v)
    Frho = beta0 * R
    Fv = -XI1 * V

    def a_along(t):
        return a_of(R + t * Frho, V + t * Fv, XI1, XI2)

    tstep = 1e-4 / (1.0 + np.abs(XI1))
    Hpa = R * richardson(lambda h: central(a_along, h), tstep, 2)

    avals = a_of(R, V, XI1, XI2)
    if below:
        rhs = -2.0 * delta * R ** (2 * r + 2) * avals**2 - b**2 + e**2
    else:
        rhs = 2.0 * delta * R ** (2 * r + 2) * avals**2 + b**2 + e**2
    residual = float(np.max(np.abs(Hpa - rhs)))

    near = (R <= 0.1) & (np.abs(V) <= 0.05) & (np.abs(pbar(XI1, XI2)) <= 0.05)
    min_b = float(np.min((b * R**r)[near])) if np.any(near) else float("nan")
    return RadialCommutantReport(
        branch="below" if below else "above",
        residual_sup=residual,
        min_b_scaled=min_b,
    )
