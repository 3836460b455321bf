"""Smooth cutoff functions with explicitly controlled square roots, in closed form.

Everything here is built from the flat exponential

    chi0(t) = exp(-F / t)   (t > 0),    chi0(t) = 0   (t <= 0),

whose derivative satisfies chi0'(t) = F * chi0(t) / t**2.  That identity is
what makes square roots like sqrt(chi0(t)/t**2) and the sqrt(-psi' * psi) of
:class:`FlatSquareCutoff` smooth, which the positive-commutator constructions
need.  All evaluators are vectorized over numpy arrays and return float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "chi0",
    "chi0_prime",
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


@dataclass
class FlatSquareCutoff:
    """Decreasing cutoff psi = 1 on [0, t1], psi = 0 on [t2, inf), with a
    smooth square root eta of -(psi**2)'.

    In closed form: with s = smoothstep(u), u = (t - t1) / (t2 - t1), and
    theta = (pi/2)(1 - s), psi = sin(theta), so that

        -(psi**2)' = pi s'(u) sin(theta) cos(theta) / (t2 - t1) = eta**2.

    Near u = 0 the factors s' and cos(theta) each vanish like chi0(u), and near
    u = 1 the factors s' and sin(theta) each vanish like chi0(1 - u), so
    eta, the square root of their product, is smooth.
    """

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t2 > self.t1:
            raise ValueError("need t1 < t2")

    def _angle(self, t):
        """(u, theta) at t."""
        u = (np.asarray(t, dtype=float) - self.t1) / (self.t2 - self.t1)
        return u, 0.5 * np.pi * (1.0 - smoothstep(u))

    def psi(self, t):
        return np.sin(self._angle(t)[1])

    def eta(self, t):
        """Smooth closed form with eta**2 = -(psi**2)' = -2 psi' psi."""
        u, theta = self._angle(t)
        slope = np.pi * smoothstep_prime(u) / (self.t2 - self.t1)
        return np.sqrt(slope * np.sin(theta) * np.cos(theta))
