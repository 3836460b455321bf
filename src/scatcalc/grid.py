"""Truncated grids on the line, the discrete Fourier transform, and weighted Sobolev norms.

Conventions.  The forward transform is u_hat(xi) = integral exp(-i x xi) u dx,
whose inverse carries the factor (2 pi)^{-1}.  A grid of N points covers
[-L, L) with spacing h = 2L/N; the dual grid carries frequencies
xi_k = (pi/L) k for k in [-N/2, N/2), stored in numpy fft layout.  With these
choices Parseval reads ||u||^2 = (2 pi)^{-1} ||u_hat||^2 exactly, including on
the discrete grid.  The radial mass quadratures below work on R^n (n = 1..3)
without a grid.

Functions are assumed negligible outside the box; callers are expected to keep
fields decayed below ~1e-12 at the boundary so that aliasing is a controlled
error rather than a modeling choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import gauss_panels, product_sphere_rule

__all__ = [
    "GridSpec",
    "GridField",
    "SobolevOrder",
    "InputRefusal",
    "GridBudgetError",
    "QuadratureError",
    "make_grid",
    "field_from_function",
    "spectral_transform",
    "parseval_defect",
    "sobolev_norm",
    "var_sobolev_norm",
    "radial_weighted_mass",
    "truncated_weighted_mass",
    "fit_growth_exponent",
    "fit_log_growth",
]

MAX_TOTAL_POINTS = 2**24

#: Largest `directions` of the radon probe.  It builds one line block per orbit of
#: the rule's lines, about 40 ms each in 3-D at 16 grid points (2-core machine, one
#: BLAS thread), so 256 keeps the slowest admitted probe (3-D, 16 points, 72 orbits)
#: near 3.5 s; tests and perfbench use at most 64.
MAX_DIRECTIONS = 256

#: Largest size of a dense operator's grid (dense operators are 1-D); the CLI
#: bounds its N keys by it without importing the symbol calculus.
QUANTIZE_MAX_N = 256

#: Relative weight of the fixed-order floor term inside the variable-order
#: norm.  The floor only guards definiteness of the norm (the quantized weight
#: is injective on every grid we use), so it is kept far below the 1e-6
#: constant-order consistency tolerance.
FLOOR_WEIGHT = 1e-7

#: Gauss-Legendre nodes per radial panel of :func:`radial_weighted_mass`;
#: its self-check reruns with four more.
MASS_GL_ORDER = 8
#: Relative disagreement of the two radial rules that fails the self-check.
MASS_TOL = 1e-8


class InputRefusal(ValueError):
    """The library refuses an input it cannot compute with: a bad value, not a bug.
    Every such refusal derives from it, and the CLI exits 2 on it."""


class GridBudgetError(InputRefusal):
    """Requested grid or operator exceeds the desk-scale budget."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed its self-consistency check."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L) with an even number N of points."""

    half_width: float
    size: int

    def __post_init__(self):
        L, N = self.half_width, self.size
        if not L > 0:
            raise ValueError("half_width must be positive")
        if N % 2 != 0:
            raise ValueError(f"size must be even, got {N}")
        if N < 8:
            raise ValueError("size must be at least 8")
        if N > MAX_TOTAL_POINTS:
            raise GridBudgetError(f"grid with {N} points exceeds budget {MAX_TOTAL_POINTS}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.size

    @property
    def freq_spacing(self) -> float:
        return np.pi / self.half_width

    def axis(self) -> np.ndarray:
        """Spatial nodes -L, -L+h, ..., L-h."""
        return -self.half_width + self.spacing * np.arange(self.size)

    def freq_axis(self) -> np.ndarray:
        """Frequencies in fft layout: 0, dxi, ..., -dxi."""
        return 2.0 * np.pi * np.fft.fftfreq(self.size, d=self.spacing)

    def _alt_signs(self) -> np.ndarray:
        """(-1)^k in fft layout.

        These absorb the exp(+i L xi) phases relating the DFT to the
        centered-box transform (L xi_k = pi k).
        """
        k = np.rint(np.fft.fftfreq(self.size) * self.size).astype(int)
        return (-1.0) ** k


@dataclass(frozen=True)
class GridField:
    """Finite values on the grid's N nodes; l2_norm sums them with the cell measure h."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.spec.size,):
            raise ValueError(f"values shape {self.values.shape} != grid shape ({self.spec.size},)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridField contains non-finite entries")

    def l2_norm(self) -> float:
        return float(np.sqrt(self.spec.spacing * np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class SobolevOrder:
    """Differential order s and spatial order r, the latter possibly variable.

    A variable spatial order is a callable r(x, xi) -> real, vectorized over
    broadcastable position and frequency arrays, bounded on the grid.
    """

    s: float
    r: float | Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def is_variable(self) -> bool:
        return callable(self.r)


def make_grid(n: int, L: float, N: int) -> GridSpec:
    """Validated grid constructor; see :class:`GridSpec` for the invariants.
    Grids are one-dimensional: any n but 1 raises :class:`GridBudgetError`."""
    if n != 1:
        raise GridBudgetError("grids are one-dimensional")
    if isinstance(N, float) and not float(N).is_integer():
        raise ValueError("size must be an integer")
    return GridSpec(half_width=float(L), size=int(N))


def field_from_function(spec: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> GridField:
    """Sample fn(x) on the grid."""
    vals = np.asarray(fn(spec.axis()), dtype=complex)
    return GridField(spec, np.broadcast_to(vals, (spec.size,)).copy())


def spectral_transform(u: GridField) -> np.ndarray:
    """Discrete forward transform u_hat(xi) = h sum exp(-i x xi) u(x), in fft layout."""
    if not isinstance(u, GridField):
        raise TypeError(f"spectral_transform expects a GridField, got {type(u).__name__}")
    spec = u.spec
    return spec.spacing * spec._alt_signs() * np.fft.fft(u.values)


def parseval_defect(u: GridField) -> float:
    """Relative defect of ||u||^2 - (2 pi)^{-1} ||u_hat||^2."""
    a = u.l2_norm() ** 2
    b = (2.0 * np.pi) ** -1 * u.spec.freq_spacing * np.sum(np.abs(spectral_transform(u)) ** 2)
    return abs(a - b) / a if a > 0 else abs(b)


def sobolev_norm(u: GridField, ord: SobolevOrder) -> float:
    """Weighted Sobolev norm || <D>^s ( <x>^r u ) ||_{L^2}.

    The operator ordering (spatial weight first) matches the definition of the
    weighted space as <x>^{-r} H^s.  Constant orders only.
    """
    if ord.is_variable:
        raise ValueError("sobolev_norm takes constant orders; use var_sobolev_norm")
    spec = u.spec
    xw = np.sqrt(1.0 + spec.axis() ** 2) ** ord.r
    vh = spectral_transform(GridField(spec, u.values * xw))
    xiw = np.sqrt(1.0 + spec.freq_axis() ** 2) ** ord.s
    total = (2.0 * np.pi) ** -1 * spec.freq_spacing * np.sum(np.abs(xiw * vh) ** 2)
    return float(np.sqrt(total))


def var_sobolev_norm(u: GridField, ord: SobolevOrder) -> float:
    """Variable-order norm via a quantized elliptic weight plus a tiny floor.

    The weight A = Op(<xi>^s <x>^{r(x,xi)}) is realized as a dense right
    quantization so that a constant r reproduces <D>^s(<x>^r u), i.e. exactly
    the :func:`sobolev_norm` ordering.  The fixed-order floor term
    Lambda = <D>^s <x>^Lfloor (Lfloor = min r - 1) enters with weight
    :data:`FLOOR_WEIGHT`; it guards strict positivity without perturbing the
    constant-order agreement.
    """
    from .symbols import Symbol, quantize  # deferred: symbols builds on grid

    if not ord.is_variable:
        return sobolev_norm(u, ord)
    spec = u.spec
    sub = spec.freq_axis()[:: max(1, spec.size // 16)]
    rflat = np.asarray(ord.r(spec.axis()[:, None], sub), dtype=float).ravel()
    if not np.all(np.isfinite(rflat)):
        raise ValueError("variable order is unbounded on the grid")
    floor_order = float(np.floor(rflat.min())) - 1.0

    def weight_symbol(x, xi):
        r = np.asarray(ord.r(x, xi), dtype=float)
        return np.sqrt(1.0 + xi**2) ** ord.s * np.sqrt(1.0 + x**2) ** r

    a = Symbol(eval=weight_symbol, order=(ord.s, float(rflat.max())))
    A = quantize(a, spec, mode="right")
    Au = A.apply(u)
    floor = sobolev_norm(u, SobolevOrder(s=ord.s, r=floor_order))
    return float(np.sqrt(Au.l2_norm() ** 2 + (FLOOR_WEIGHT * floor) ** 2))


def radial_weighted_mass(
    shell: Callable[[np.ndarray], np.ndarray],
    orders: Sequence[float],
    radii: Sequence[float],
    *,
    n: int,
    lam: float,
    check: bool = True,
) -> np.ndarray:
    """masses[k, j] = int_0^R <rho>^{2r} rho^{n-1} shell(rho) drho at R = radii[k], r = orders[j].

    shell maps radii (K,) to the sphere integrals int_{S^{n-1}} |u(rho w)|^2 dw
    at those radii; u oscillates at wavenumber lam (1 if it does not).  One
    composite Gauss-Legendre rule of order :data:`MASS_GL_ORDER` covers the
    increasing ladder: each gap between consecutive radii (0 to radii[0]
    first) is cut into panels at most min(0.5, 4 / lam) wide (0.5 for every
    lam <= 8), and the mass at a radius sums the nodes below it.  A rule of
    more than :data:`MAX_TOTAL_POINTS` nodes at the self-check's order raises
    :class:`GridBudgetError` before any node is built.  When `check`
    is set, the masses are recomputed with four more nodes per panel and a
    :class:`QuadratureError` is raised on a relative disagreement beyond
    :data:`MASS_TOL`.
    """
    edges = np.concatenate([[0.0], radii])
    if edges[1] < 1 or np.any(np.diff(edges) <= 0) or not lam > 0:
        raise ValueError("radii must increase from at least 1 and lam be positive")
    panels = np.ceil(np.diff(edges) / min(0.5, 4.0 / lam))
    nodes = panels.sum() * (MASS_GL_ORDER + 4)
    if nodes > MAX_TOTAL_POINTS:
        raise GridBudgetError(f"radial rule with {nodes:.3g} nodes exceeds budget {MAX_TOTAL_POINTS}")
    panels = panels.astype(int)
    masses = _radial_once(shell, orders, edges, panels, n, MASS_GL_ORDER)
    if check:
        refs = _radial_once(shell, orders, edges, panels, n, MASS_GL_ORDER + 4)
        if np.any(np.abs(masses - refs) > MASS_TOL * np.abs(refs)):
            raise QuadratureError(
                f"radial quadrature not converged at order {MASS_GL_ORDER}: {masses} vs {refs}"
            )
    return masses


def _radial_once(shell, orders, edges, panels, n, gl_order) -> np.ndarray:
    rungs = [gauss_panels(a, b, p, gl_order) for a, b, p in zip(edges[:-1], edges[1:], panels)]
    rho, rw = map(np.concatenate, zip(*rungs))
    ang = shell(rho)
    terms = np.array([rw * ((1.0 + rho**2) ** r * rho ** (n - 1)) * ang for r in orders])
    return np.array([np.sum(terms[:, :m], axis=1) for m in np.cumsum(panels) * gl_order])


def truncated_weighted_mass(
    u: Callable[[np.ndarray], np.ndarray],
    orders: Sequence[float],
    radii: Sequence[float],
    *,
    n: int,
    lam: float,
) -> np.ndarray:
    """masses[k, j] = int_{|x| <= radii[k]} <x>^{2 orders[j]} |u|^2 dx by radial x angular rules.

    u must be vectorized over (M, n) point arrays and oscillate at wavenumber
    lam.  The radial rule over the ladder is that of
    :func:`radial_weighted_mass`, without its self-check, so u is evaluated
    once on its nodes; each sphere integral is the trapezoidal/product rule on
    48 angles (and 24 polar nodes for n = 3).  More than
    :data:`MAX_TOTAL_POINTS` points raise :class:`GridBudgetError` before u
    is evaluated.
    """
    theta, tw = product_sphere_rule(n, 24, 48)

    def shell(rho):
        if len(rho) * len(tw) > MAX_TOTAL_POINTS:
            raise GridBudgetError(f"{len(rho)} x {len(tw)} points exceed budget {MAX_TOTAL_POINTS}")
        pts = rho[:, None, None] * theta[None, :, :]
        vals = np.asarray(u(pts.reshape(-1, n))).reshape(len(rho), len(tw))
        return np.abs(vals) ** 2 @ tw

    return radial_weighted_mass(shell, orders, radii, n=n, lam=lam, check=False)


def fit_growth_exponent(radii, masses) -> float:
    """Least-squares slope of log(mass) against log(R)."""
    x = np.log(np.asarray(radii, dtype=float))
    y = np.log(np.asarray(masses, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def fit_log_growth(radii, masses) -> float:
    """R^2 of the fit mass ~ a + b log(R)."""
    x = np.log(np.asarray(radii, dtype=float))
    y = np.asarray(masses, dtype=float)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
