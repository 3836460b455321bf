"""The numerical rules of scatcalc: two for integration, two for differentiation.

``product_sphere_rule`` integrates over the unit sphere S^{n-1}: the two
points +-1 for n = 1, the uniform trapezoid in the angle on S^1, and
Gauss-Legendre in cos(theta) times a uniform azimuth on S^2 (polar axis e_3).
``gauss_panels`` is the flat composite Gauss-Legendre rule on equal panels of
an interval, with array endpoints broadcasting to a batch of intervals.
``central`` is the central difference and ``richardson`` one Richardson step,
removing the h^p error term of an estimate d(h) by halving h; scatcalc writes
no central difference or Richardson step outside these two.  The private
``_cos_sin_from_half`` gives cos a and sin a from one vectorized tangent of a/2,
for the plane-wave synthesis of ``helmholtz`` and the phi_hat table of ``radon``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["product_sphere_rule", "gauss_panels", "central", "richardson"]


def product_sphere_rule(n: int, n_polar: int, n_azimuth: int, offset: float = 0.0):
    """Nodes (K, n) and weights (K,) of the product rule on S^{n-1}.

    n_polar Gauss-Legendre nodes in cos(theta) (n = 3 only) times n_azimuth
    uniform angles 2 pi (k + offset) / n_azimuth; the azimuth runs fastest.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phi = 2.0 * np.pi * (np.arange(n_azimuth) + offset) / n_azimuth
    w_phi = np.full(n_azimuth, 2.0 * np.pi / n_azimuth)
    if n == 2:
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1), w_phi
    if n == 3:
        c, wc = leggauss(n_polar)
        s = np.sqrt(1.0 - c**2)
        nodes = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.outer(c, np.ones(n_azimuth)).ravel(),
            ],
            axis=-1,
        )
        return nodes, np.outer(wc, w_phi).ravel()
    raise ValueError("n must be 1, 2 or 3")


def gauss_panels(lo, hi, n_panels: int, order: int):
    """Composite Gauss-Legendre rule on n_panels equal panels of [lo, hi].

    Returns nodes and weights of shape lo.shape + (n_panels * order,), panel
    by panel; array endpoints broadcast, one flat rule per interval.
    """
    x, w = leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = mid.shape[:-1] + (-1,)
    return (mid[..., None] + half[..., None] * x).reshape(shape), (half[..., None] * w).reshape(shape)


def central(f, h):
    """(f(h) - f(-h)) / (2 h): the derivative at 0 of f, with error O(h^2)."""
    return (f(h) - f(-h)) / (2.0 * h)


def richardson(d, h, p: int):
    """(2^p d(h/2) - d(h)) / (2^p - 1): one Richardson step on d(h) = d + c h^p + ..."""
    return (2.0**p * d(h / 2) - d(h)) / (2.0**p - 1)


def _cos_sin_from_half(half: np.ndarray):
    """(cos a, sin a) from the half angle a/2, which is overwritten: with
    t = tan(a/2) and q = 2/(1 + t^2), cos a = q - 1 and sin a = t q.  numpy's
    tan is vectorized where its cos and sin are scalar calls, and this takes
    one temporary; the error stays within about 3.3e-16 absolute, and t is
    finite at every finite a."""
    t = np.tan(half, out=half)
    q = t * t
    q += 1.0
    np.divide(2.0, q, out=q)
    t *= q
    q -= 1.0
    return q, t
