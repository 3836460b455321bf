"""One-dimensional time-independent scattering and Liouville-Green probes.

solve_scatter integrates (D_x^2 + V - lambda^2) psi = 0 from the transmission
side: a single initial-value problem with psi = exp(i lambda x) at x = +L_V,
matched at x = -L_V against exp(i lambda x) + r exp(-i lambda x) through the
Wronskian read-off of the two plane-wave coefficients.  No shooting iteration
is needed, and |r|^2 + |t|^2 = 1 is a conserved-current identity the adaptive
integrator reproduces to its local tolerance.

The Liouville-Green section evaluates the leading profile
|x|^{-k/4} exp(+-2 i |x|^{(k+2)/2} / (k+2)) for the potentials eps x^k and the
boundary-term-at-infinity diagnostic for the non-essentially-self-adjoint
example D_x^2 + x^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .grid import GridBudgetError, InputRefusal, fit_growth_exponent
from .quadrature import gauss_panels

__all__ = [
    "Potential1D",
    "ScatterCoeffs",
    "potential_from_callable",
    "free_potential",
    "square_barrier",
    "compact_bump",
    "gaussian_bump",
    "solve_scatter",
    "square_barrier_coeffs",
    "wronskian",
    "wronskian_drift",
    "lg_profile",
    "lg_profile_residual",
    "lg_tail_masses",
    "symmetry_boundary_term",
]


@dataclass
class Potential1D:
    eval: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __call__(self, x):
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)


def potential_from_callable(fn: Callable) -> Potential1D:
    """Wrap fn with an automatically detected support radius: the last point
    of a 4001-point scan of [0, 60] where |V(x)| + |V(-x)| > 1e-12, plus one
    scan step.  InputRefusal when V has not decayed by the scan's end."""
    xs, step = np.linspace(0.0, 60.0, 4001, retstep=True)
    vals = np.abs(np.asarray(fn(xs))) + np.abs(np.asarray(fn(-xs)))
    if vals[-1] > 1e-12:
        raise InputRefusal(
            f"|V(x)| + |V(-x)| = {vals[-1]:.3g} at x = {xs[-1]:g}, the end of the support scan"
        )
    big = np.nonzero(vals > 1e-12)[0]
    L = float(xs[big[-1]] + step) if len(big) else 0.0
    return Potential1D(eval=fn, support_radius=L)


def free_potential() -> Potential1D:
    return Potential1D(eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)), support_radius=0.0)


def square_barrier(height: float, width: float) -> Potential1D:
    half = width / 2.0

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= half, height, 0.0)

    return Potential1D(eval=fn, support_radius=half)


def compact_bump(height: float, half_width: float) -> Potential1D:
    """C-infinity bump with exact compact support [-2w, 2w]."""
    from .bumps import plateau

    def fn(x):
        return height * plateau(np.asarray(x, dtype=float) / half_width, 1.0, 2.0)

    return Potential1D(eval=fn, support_radius=2.0 * half_width)


def gaussian_bump(height: float, width: float) -> Potential1D:
    def fn(x):
        return height * np.exp(-((np.asarray(x, dtype=float) / width) ** 2))

    return potential_from_callable(fn)


@dataclass
class ScatterCoeffs:
    lam: float
    r: complex
    t: complex
    unitarity_defect: float = field(init=False)

    def __post_init__(self):
        self.unitarity_defect = abs(abs(self.r) ** 2 + abs(self.t) ** 2 - 1.0)


@dataclass
class ScatterSolution:
    coeffs: ScatterCoeffs
    psi: np.ndarray
    dpsi: np.ndarray


#: Largest 2L sqrt(lambda^2 + max|V|) that :func:`solve_scatter` integrates
#: over [-L, L]: it bounds both the growth exponent and the phase of psi there,
#: so psi stays far from overflow (exp(400) ~ 5e173) and the IVP short.
MAX_PATH_EXPONENT = 400.0


def solve_scatter(V: Potential1D, lam: float):
    """Reflection/transmission coefficients of V at energy lambda^2.

    Integrates backwards from x = +L with the pure transmitted wave (psi'' =
    (V - lambda^2) psi in the PDE-positive convention D_x^2 = -d^2/dx^2), then
    divides out the incident amplitude.  Returns a ScatterSolution carrying
    the path sampled at 257 points for Wronskian diagnostics.  Raises
    GridBudgetError before integrating when 2L sqrt(lambda^2 + max|V|), with
    max|V| over those points, exceeds :data:`MAX_PATH_EXPONENT`.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive (zero energy is excluded)")
    L = max(V.support_radius, 1e-9)  # the free potential integrates over [-1e-9, 1e-9]
    xs = np.linspace(-L, L, 257)
    exponent = 2.0 * L * np.sqrt(lam**2 + np.max(np.abs(V(xs))))
    if not exponent <= MAX_PATH_EXPONENT:
        raise GridBudgetError(
            f"2L sqrt(lambda^2 + max|V|) = {exponent:.3g} exceeds {MAX_PATH_EXPONENT:g}"
        )

    def rhs(x, y):
        return [y[1], (V(np.array([x]))[0] - lam**2) * y[0]]

    y0 = [np.exp(1j * lam * L), 1j * lam * np.exp(1j * lam * L)]
    sol = solve_ivp(
        rhs,
        (L, -L),
        np.asarray(y0, dtype=complex),
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    psiL, dpsiL = sol.y[0, -1], sol.y[1, -1]
    # psi = alpha e^{i lam x} + beta e^{-i lam x} at x = -L
    alpha = (dpsiL + 1j * lam * psiL) * np.exp(1j * lam * L) / (2j * lam)
    beta = (1j * lam * psiL - dpsiL) * np.exp(-1j * lam * L) / (2j * lam)
    r = beta / alpha
    t = 1.0 / alpha
    path = sol.sol(xs) / alpha
    return ScatterSolution(ScatterCoeffs(lam, complex(r), complex(t)), path[0], path[1])


def square_barrier_coeffs(height: float, width: float, lam: float) -> ScatterCoeffs:
    """Closed-form barrier coefficients by piecewise-exponential matching.

    Independent oracle: continuity of (psi, psi') at x = -a/2 and +a/2 with
    interior wavenumber kappa = sqrt(lambda^2 - height) (possibly imaginary)
    is solved as an explicit 2x2 linear system.
    """
    a = width
    k = lam
    kap = np.sqrt(complex(lam**2 - height))
    x1, x2 = -a / 2.0, a / 2.0

    def waves(q, x):
        return np.array([[np.exp(1j * q * x), np.exp(-1j * q * x)],
                         [1j * q * np.exp(1j * q * x), -1j * q * np.exp(-1j * q * x)]])

    # [1, r] -> interior [C, D] -> [t, 0]
    left = waves(k, x1)
    mid1 = waves(kap, x1)
    mid2 = waves(kap, x2)
    right = waves(k, x2)
    CD = np.linalg.solve(mid2, right @ np.array([1.0, 0.0]))
    lr = np.linalg.solve(left, mid1 @ CD)  # = [1/t_scaled, r/t_scaled]
    t = 1.0 / lr[0]
    r = lr[1] / lr[0]
    return ScatterCoeffs(lam, complex(r), complex(t))


def wronskian(psi, dpsi):
    """J = conj(psi) psi' - psi conj(psi'); constant for real potentials."""
    return np.conj(psi) * dpsi - psi * np.conj(dpsi)


def wronskian_drift(sol: ScatterSolution) -> float:
    J = wronskian(sol.psi, sol.dpsi)
    return float(np.max(np.abs(J - J[0])))


def _lg_log_derivatives(k: int, eps: int):
    """(mult, x -> (u'/u, (u'/u)')) of the Liouville-Green profile of
    D_x^2 + eps x^k: u'/u = -k/(4x) + mult x^{k/2}, with mult = i for eps = -1
    and -1 for eps = +1.  ValueError for any other eps."""
    if eps not in (-1, +1):
        raise ValueError("eps must be +-1")
    mult = 1j if eps == -1 else -1.0

    def log_derivatives(x):
        l1 = -k / (4.0 * x) + mult * x ** (k / 2.0)
        dl1 = k / (4.0 * x**2) + mult * (k / 2.0) * x ** (k / 2.0 - 1.0)
        return l1, dl1

    return mult, log_derivatives


def lg_profile(k: int, eps: int):
    """Leading Liouville-Green profile for D_x^2 + eps x^k on x > 0.

    For eps = -1 the classically allowed side carries the oscillatory
    |x|^{-k/4} exp(+2i |x|^{(k+2)/2}/(k+2)); for eps = +1 the decaying real
    exponential branch is returned.  u, u', u'' are closed forms.
    """
    mult, log_derivatives = _lg_log_derivatives(k, eps)

    def parts(x):
        x = np.asarray(x, dtype=float)
        amp = x ** (-k / 4.0)
        theta = 2.0 * x ** ((k + 2) / 2.0) / (k + 2)
        u = amp * np.exp(mult * theta)
        l1, dl1 = log_derivatives(x)
        up = u * l1
        upp = u * (dl1 + l1**2)
        return u, up, upp

    return parts


def lg_profile_residual(k: int, eps: int, lam: complex, x_range) -> dict:
    """Relative residual |(D_x^2 + eps x^k - lam) u_LG| / |x^k u_LG| decay.

    Computed in ratio form from the symbolic logarithmic derivatives,
    residual/u = -(l1' + l1^2) + eps x^k - lam, which is amplitude-free (the
    decaying eps = +1 branch underflows long before the ratio does).  The
    subtraction still cancels x^k in floating point, so keep x^k well below
    1/eps_machine over the requested range (e.g. x <= 140 for k = 6).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    xs = np.geomspace(x_range[0], x_range[1], 25)
    l1, dl1 = _lg_log_derivatives(k, eps)[1](xs)
    resid_over_u = -(dl1 + l1**2) + eps * xs**k - lam
    rel = np.abs(resid_over_u) / xs**k
    slope = fit_growth_exponent(xs, rel)
    return {"x": xs, "relative_residual": rel, "slope": slope}


def lg_tail_masses(k: int, cutoffs) -> dict:
    """Masses int_10^c |u_LG|^2 dx of the oscillatory profile up a cutoff ladder.

    Gauss-Legendre quadrature of |lg_profile(k, -1)|^2 in s = log x, where the
    mass density x |u|^2 per unit s is smooth, rung by rung and summed.
    Convergence is read off the ladder (at least three cutoffs): the mass per
    unit log x of each rung between cutoffs is fitted against the rung's
    geometric midpoint.  For |u|^2 ~ x^{-p} that slope is 1 - p, so the tail
    converges when it is negative (below -1e-6, clear of rounding); p = 1
    (k = 2) gives equal increments per doubling, the harmonic divergence.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.size < 3 or cutoffs[0] <= 10.0 or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("need at least three increasing cutoffs above 10")
    edges = np.log(np.concatenate([[10.0], cutoffs]))
    s, w = gauss_panels(edges[:-1], edges[1:], 4, 16)
    x = np.exp(s)
    rungs = np.sum(np.abs(lg_profile(k, -1)(x)[0]) ** 2 * x * w, axis=-1)
    widths = np.diff(edges[1:])
    slope = fit_growth_exponent(np.exp(edges[1:-1] + widths / 2), rungs[1:] / widths)
    return {"masses": np.cumsum(rungs), "convergent": slope < -1e-6}


def symmetry_boundary_term(R: float) -> complex:
    """Integration-by-parts boundary defect of <A u, u> - <u, A u> at radius R.

    A = D_x^2 + x^3: the L^2 eigenfunction-like profile is superpolynomially
    decaying on the right and oscillatory Liouville-Green on the left, so the
    boundary contribution [u conj(u') - u' conj(u)] survives only at x = -R,
    where the LG phase makes it modulus-2 to leading order.
    """
    u, up, _ = lg_profile(3, -1)(np.array([R]))
    # left endpoint x = -R: u(x) = profile(|x|), d/dx = -d/d|x|
    val = u[0] * np.conj(-up[0]) - (-up[0]) * np.conj(u[0])
    # Green's boundary term at the lower limit enters with a minus sign; the
    # decaying right side contributes nothing
    return complex(-val)
