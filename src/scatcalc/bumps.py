"""Smooth cutoff functions with explicitly controlled square roots.

Everything here is built from the flat exponential

    chi0(t) = exp(-F / t)   (t > 0),    chi0(t) = 0   (t <= 0),

whose derivative satisfies chi0'(t) = F * chi0(t) / t**2.  That identity is
what makes square roots like sqrt(chi0(t)/t**2) and sqrt(-psi' * psi) smooth,
which the positive-commutator constructions need.  All evaluators are
vectorized over numpy arrays and return float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_panels

__all__ = [
    "chi0",
    "chi0_prime",
    "sqrt_chi0",
    "sqrt_chi0_over_t2",
    "smoothstep",
    "smoothstep_prime",
    "plateau",
    "FlatSquareCutoff",
]


def _flat_exp(t, a: float, k: int):
    """exp(-a/t) / t**k for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    with np.errstate(over="ignore", divide="ignore"):
        e = np.exp(-a / tp)
        out[pos] = e / tp**k if k else e
    return out


def chi0(t, digamma: float = 1.0):
    """exp(-digamma/t) for t > 0, identically 0 for t <= 0."""
    return _flat_exp(t, digamma, 0)


def chi0_prime(t):
    """Derivative chi0(t) / t**2 of chi0 at digamma 1, extended by 0 through t = 0."""
    return _flat_exp(t, 1.0, 2)


def sqrt_chi0(t):
    """Smooth square root exp(-1/(2t)) of chi0 at digamma 1."""
    return chi0(t, 0.5)


def sqrt_chi0_over_t2(t, digamma: float):
    """Smooth square root exp(-digamma/(2t))/t of chi0(t)/t**2."""
    return _flat_exp(t, 0.5 * digamma, 1)


def smoothstep(u):
    """Monotone C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    f = chi0(u)
    g = chi0(1.0 - u)
    out = np.zeros_like(u)
    mid = (u > 0) & (u < 1)
    out[mid] = f[mid] / (f[mid] + g[mid])
    out[u >= 1] = 1.0
    return out


def smoothstep_prime(u):
    """Derivative of :func:`smoothstep`; supported in (0, 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    mid = (u > 0) & (u < 1)
    um = u[mid]
    f, g = chi0(um), chi0(1.0 - um)
    fp, gp = chi0_prime(um), chi0_prime(1.0 - um)
    out[mid] = (fp * g + f * gp) / (f + g) ** 2
    return out


def plateau(t, inner: float, outer: float):
    """Even bump: 1 for |t| <= inner, 0 for |t| >= outer, monotone between."""
    if not outer > inner >= 0:
        raise ValueError("need 0 <= inner < outer")
    t = np.asarray(t, dtype=float)
    return 1.0 - smoothstep((np.abs(t) - inner) / (outer - inner))


#: Composite Gauss-Legendre mesh of the cumulative integral in FlatSquareCutoff.
_CUTOFF_PANELS = 400
_CUTOFF_GL_ORDER = 12


@dataclass
class FlatSquareCutoff:
    """Decreasing cutoff psi with psi = 1 on [0, t1], psi = 0 on [t2, inf),
    engineered so that sqrt(-psi' * psi) is smooth.

    The square psi**2 is integrated down from 1 with slope -eta**2, where
    eta = sqrt(c * chi0(t - t1) * chi0(t2 - t)) has a smooth closed form.
    Then -psi' * psi = eta**2 / 2 exactly, with smooth square root
    eta / sqrt(2).  The cumulative integral of eta**2 is precomputed on a
    composite Gauss-Legendre mesh (400 panels of 12 nodes), well beyond the
    accuracy the commutant residual checks need.
    """

    t1: float
    t2: float
    _edges: np.ndarray = field(init=False, repr=False)
    _prefix: np.ndarray = field(init=False, repr=False)
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        if not self.t2 > self.t1:
            raise ValueError("need t1 < t2")
        self._edges = np.linspace(self.t1, self.t2, _CUTOFF_PANELS + 1)
        # raw [-1, 1] rule for the partial panel of _cumulative, a hot path
        # that maps it by hand rather than rebuilding a rule per call
        self._gl = tuple(a.ravel() for a in gauss_panels(-1.0, 1.0, 1, _CUTOFF_GL_ORDER))
        pts, w = gauss_panels(self.t1, self.t2, _CUTOFF_PANELS, _CUTOFF_GL_ORDER)
        per_panel = (self._eta2_raw(pts) * w).sum(axis=1)
        self._prefix = np.concatenate([[0.0], np.cumsum(per_panel)])
        self._norm = self._prefix[-1]
        if not (np.isfinite(self._norm) and self._norm > 0):
            raise ValueError(f"eta**2 integrates to {float(self._norm)}; widen [t1, t2]")

    def _eta2_raw(self, t):
        return chi0(np.asarray(t) - self.t1) * chi0(self.t2 - np.asarray(t))

    def _cumulative(self, t):
        """Integral of the unnormalized eta**2 from t1 to t, vectorized."""
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, self.t1, self.t2)
        idx = np.clip(np.searchsorted(self._edges, tc, side="right") - 1, 0, _CUTOFF_PANELS - 1)
        lo = self._edges[idx]
        nodes, weights = self._gl
        mid = 0.5 * (lo + tc)
        half = 0.5 * (tc - lo)
        pts = mid[..., None] + half[..., None] * nodes
        partial = (self._eta2_raw(pts) * weights).sum(axis=-1) * half
        return self._prefix[idx] + partial

    def eta(self, t):
        """Smooth closed form with eta**2 = -2 psi' psi."""
        t = np.asarray(t, dtype=float)
        return np.sqrt(1.0 / self._norm) * sqrt_chi0(t - self.t1) * sqrt_chi0(self.t2 - t)

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        sq = 1.0 - self._cumulative(t) / self._norm
        return np.sqrt(np.clip(sq, 0.0, 1.0))

    def dpsi(self, t):
        """psi' = -eta**2 / (2 psi); 0 outside (t1, t2) and where psi underflows."""
        t = np.asarray(t, dtype=float)
        p = self.psi(t)
        e2 = self.eta(t) ** 2
        out = np.zeros_like(p)
        ok = p > 1e-150
        out[ok] = -0.5 * e2[ok] / p[ok]
        return out

    def sqrt_neg_psi_dpsi(self, t):
        """Smooth square root of -psi' * psi, namely eta / sqrt(2)."""
        return self.eta(t) / np.sqrt(2.0)
