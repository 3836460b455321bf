"""Flat localized X-ray (Radon) transform, its adjoint and normal operator.

The transform integrates along straight lines against an even, nonnegative
profile phi that is positive on |t| <= 1 and supported in |t| <= 2; the
normal operator A = L I_0 is then a convolution whose Fourier symbol

    a(xi) = int_{S^{n-1}} |phi_hat(omega . xi)|^2 domega

is strictly positive (an integral of squares) and decays like c/|xi|: the
sphere integral concentrates on the equator omega . xi = 0 with width ~1/|xi|.
A direction cutoff chi(omega_1) preserves the positive floor exactly when the
orthogroup {omega . xihat = 0} always meets {chi > 0}: true for n >= 3 (two
great circles on S^2 intersect), false for narrow cutoffs in n = 2 (two
antipodal points miss the allowed arc), and the probe exhibits both.  phi_hat
is read from a Chebyshev table, filled by angle addition on half a Gauss rule
(phi is even); the Hankel oracle reads phi_tilde, not the table.
Since phi is even and the line rule symmetric, L integrates along the lines of
I_0, so `backproject` and `injectivity_probe` build each line integral once;
the lines along omega and -omega are the same too, so the probe builds one line
matrix and `pairing_gap` one I_0 f per antipodal pair, and the probe assembles
A on the ball only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.fft import dct
from scipy.linalg import svdvals

from .bumps import plateau
from .quadrature import gauss_panels, product_sphere_rule

__all__ = [
    "LocalizerProfile",
    "ConeCutoff",
    "default_profile",
    "default_cone",
    "direction_rule",
    "xray_transform",
    "backproject",
    "pairing_gap",
    "normal_kernel_symbol",
    "normal_symbol_hankel",
    "cone_ellipticity_check",
    "injectivity_probe",
]


def _flat_panels(lo, hi, n_panels: int, order: int):
    return tuple(a.ravel() for a in gauss_panels(lo, hi, n_panels, order))


#: The profile vanishes for |t| > _SUPPORT.
_SUPPORT = 2.0
#: Gauss nodes per panel of the line integrals of xray_transform and backproject.
_LINE_NODES = 24


@functools.cache
def _line_rule(n_t: int):
    """4 Gauss panels of n_t nodes on [-_SUPPORT, _SUPPORT], aligned with the plateau;
    t is exactly antisymmetric and w exactly symmetric.  Cached, so read-only."""
    t, w = _flat_panels(-_SUPPORT, _SUPPORT, 4, n_t)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _hat_panels(reach: float) -> int:
    """Panels on [-_SUPPORT, _SUPPORT] of the phi_hat rule for |s| <= reach."""
    return int(max(64, np.ceil(2.0 * reach * _SUPPORT / np.pi)))


#: phi_hat table: Chebyshev degree on each unit panel [k, k + 1] of u = |s|.
_HAT_DEGREE = 24
#: phi_hat table: its reach (|s| <= 100 is every caller here), filled on first use;
#: the rare |s| past it is summed directly, since the fill costs O(top^2).
_HAT_TOP = 128


@dataclass
class LocalizerProfile:
    """Line profile phi and its self-convolution phi_tilde = phi * phi.

    phi vanishes for |t| > 2 and must be even (checked to rounding on the line
    rule's nodes, else ValueError): evenness lets L reuse the lines of I_0.

    Plateau-type profiles converge slowly under single-panel Gauss rules, so
    every integral here uses :func:`scatcalc.quadrature.gauss_panels`, aligned
    with the plateau structure or, for phi_hat, filled once into a table.
    """

    phi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = self(_line_rule(_LINE_NODES)[0])
        if np.max(np.abs(vals - vals[::-1])) > 1e-12 * np.max(np.abs(vals)):
            raise ValueError("the line profile phi must be even")

    def __call__(self, t):
        return np.asarray(self.phi(np.asarray(t, dtype=float)), dtype=float)

    def phi_tilde(self, s):
        """(phi * phi)(s) by composite Gauss quadrature over the overlap."""
        s = np.asarray(s, dtype=float)
        lo = np.maximum(-_SUPPORT, s - _SUPPORT)
        hi = np.minimum(_SUPPORT, s + _SUPPORT)
        pts, w = gauss_panels(lo, hi, 8, 16)
        vals = self(pts) * self(s[..., None, None] - pts)
        return np.sum(vals * w, axis=(-2, -1))

    def phi_hat(self, s):
        """Fourier transform int phi(t) exp(-i s t) dt (real and even), read from the
        Chebyshev table `_hat_coef` in u = |s| on [0, _HAT_TOP]; u past _HAT_TOP is
        summed directly by `_hat_sums`."""
        u = np.abs(np.asarray(s, dtype=float))
        if not np.all(np.isfinite(u)):
            raise ValueError("phi_hat needs finite s")
        far = u > _HAT_TOP
        near = np.where(far, 0.0, u)
        coef = self._hat_coef
        k = np.minimum(near.astype(int), _HAT_TOP - 1)
        x2 = 4.0 * (near - k) - 2.0
        b1 = b2 = 0.0
        for c in coef[:0:-1]:  # Clenshaw, highest degree first
            b1, b2 = c[k] + x2 * b1 - b2, b1
        out = np.asarray(0.5 * (coef[0][k] + x2 * b1) - b2)
        if far.any():
            out[far] = self._hat_sums(u[far][:, None], u.max())[:, 0]
        return out[()]

    @functools.cached_property
    def _hat_coef(self) -> np.ndarray:
        return self._hat_table(_HAT_TOP)

    def _hat_table(self, top: int) -> np.ndarray:
        """Chebyshev coefficients (degree + 1, top) of phi_hat on [k, k + 1]; row 0 is 2 c_0.
        phi is even: phi_hat(k + x) = 2 int_0^2 phi(t) (cos kt cos xt - sin kt sin xt) dt on
        the half of `_hat_sums`'s rule at reach top, its panels rounded up to even."""
        n = _HAT_DEGREE + 1
        x = 0.5 * (np.cos(np.pi * (np.arange(n) + 0.5) / n) + 1.0)
        t, w = _flat_panels(0.0, _SUPPORT, (_hat_panels(top) + 1) // 2, 16)
        kt, xt = np.multiply.outer(np.arange(top), t), np.multiply.outer(x, t)
        cw = 2.0 * w * self(t)
        vals = (np.cos(kt) * cw) @ np.cos(xt).T - (np.sin(kt) * cw) @ np.sin(xt).T
        return dct(vals, type=2).T / n

    def _hat_sums(self, u: np.ndarray, reach: float) -> np.ndarray:
        """phi_hat at every entry of u (rows, m) by composite Gauss quadrature, with
        panels fine enough for |s| <= reach (for |s| past _HAT_TOP, and the table's oracle)."""
        pts, w = _flat_panels(-_SUPPORT, _SUPPORT, _hat_panels(reach), 16)
        cw = w * self(pts)
        # one row at a time, summed pairwise (the table's BLAS sums are within 2.6e-15)
        return np.array([(np.cos(np.multiply.outer(uk, pts)) * cw).sum(axis=-1) for uk in u])


def default_profile() -> LocalizerProfile:
    """Smooth even profile: 1 on |t| <= 1, 0 for |t| >= 2."""
    return LocalizerProfile(phi=lambda t: plateau(t, 1.0, 2.0))


@dataclass
class ConeCutoff:
    chi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if float(self.chi(np.zeros(1))[0]) < 0.5:
            raise ValueError("cone cutoff must satisfy chi(0) >= 0.5")

    def __call__(self, w1):
        vals = np.asarray(self.chi(np.asarray(w1, dtype=float)), dtype=float)
        if np.any(vals < 0):
            raise ValueError("cone cutoff must be nonnegative")
        return vals


def default_cone(width: float) -> ConeCutoff:
    return ConeCutoff(chi=lambda w1: plateau(w1, width / 2.0, width))


def direction_rule(n: int, count: int):
    """Direction quadrature: `count` angles on S^1, a product grid on S^2.

    The rule is closed under omega -> -omega for an even `count` on S^1 and for
    an even azimuth count on S^2 (the Gauss polar nodes are symmetric)."""
    if n == 2:
        return product_sphere_rule(2, 0, count, offset=0.5)
    nc = max(4, int(np.sqrt(count / 2)))
    nodes, w = product_sphere_rule(3, nc, max(8, count // nc), offset=0.5)
    return np.roll(nodes, 1, axis=-1), w  # polar axis e_1


def _antipode_pairs(dirs) -> list:
    """Each direction once: (k, k') with k < k' where node k' is within 1e-12 of
    -omega_k, else (k,).  The lines z + t omega of a pair are the same points."""
    gap = np.linalg.norm(dirs[:, None, :] + dirs[None, :, :], axis=-1)
    anti = np.argmin(gap, axis=1)
    return [(k, int(j)) if gap[k, j] <= 1e-12 else (k,) for k, j in enumerate(anti)
            if j > k or gap[k, j] > 1e-12]


def xray_transform(f: Callable, z, omega, phi: LocalizerProfile):
    """I_0 f(z, omega) = int f(z + t omega) phi(t) dt by Gauss quadrature.

    f is vectorized over (M, n) arrays; z and omega may carry matching batch
    dimensions (..., n).
    """
    z, omega = np.asarray(z, dtype=float), np.asarray(omega, dtype=float)
    t, w = _line_rule(_LINE_NODES)
    pts = z[..., None, :] + t[:, None] * omega[..., None, :]
    return np.asarray(f(pts.reshape(-1, pts.shape[-1]))).reshape(pts.shape[:-1]) @ (w * phi(t))


def backproject(v: Callable, phi: LocalizerProfile, directions, dir_weights):
    """Adjoint evaluator L v(y) = int v(y - t omega, omega) phi(t) dt domega.

    v is a callable v(z_points, omega_index).  phi is even and the line rule
    symmetric, so each line integral is the one of :func:`xray_transform`:
    the same nodes and weights, and the same points y + t omega.
    """
    t, w = _line_rule(_LINE_NODES)
    tw = w * phi(t)
    lines = list(enumerate(zip(np.asarray(directions, dtype=float), dir_weights)))

    def Lv(y):
        y = np.asarray(y, dtype=float)
        out = 0.0
        # inline, not a helper call per direction: the last direction's points
        # stay allocated, so the heap is not trimmed and refaulted each time
        for k, (om, wk) in lines:
            pts = y[..., None, :] + t[:, None] * om
            vals = np.asarray(v(pts.reshape(-1, y.shape[-1]), k)).reshape(pts.shape[:-1])
            out = out + wk * (vals @ tw)
        return out

    return Lv


def pairing_gap(f: Callable, v: Callable, phi: LocalizerProfile, n: int) -> float:
    """Relative defect of <I_0 f, v> = <f, L v> by tensor Gauss quadrature.

    The directions are the 32-count rule of :func:`direction_rule`, and the
    tensor rule is 32-point Gauss-Legendre per axis on the box [-6, 6]^n.
    f and v(., omega_index) must be smooth and decayed at the box scale (the
    box must also absorb the +-2 line reach of the localizer); both pairings
    quadrate the same continuum integrals, so the gap then measures
    quadrature error alone.
    """
    dirs, dw = direction_rule(n, 32)
    ax, axw = _flat_panels(-6.0, 6.0, 1, 32)
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=-1)
    WZ = np.prod(np.meshgrid(*([axw] * n), indexing="ij"), axis=0).ravel()
    # both sides share the direction rule; I_0 f is the same along -omega_k
    lhs = 0.0 + 0j
    for pair in _antipode_pairs(dirs):
        cv = sum(dw[k] * np.conj(np.asarray(v(Z, k))) for k in pair)
        lhs += np.sum(WZ * xray_transform(f, Z, dirs[pair[0]], phi) * cv)
    Lv = backproject(v, phi, dirs, dw)
    rhs = np.sum(WZ * np.asarray(f(Z)) * np.conj(Lv(Z)))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def normal_kernel_symbol(n: int, phi: LocalizerProfile, xi_grid) -> dict:
    """Symbol a(|xi|) = int_{S^{n-1}} phi_hat(omega.xi)^2 domega, radially.

    n = 2 uses a 2048-point trapezoid in the circle angle; n = 3 reduces by
    azimuthal symmetry to 2 pi int_{-1}^{1} phi_hat(|xi| c)^2 dc on a
    512-point Gauss-Legendre rule.  Values are manifestly positive (integrals of
    squares); the table also reports the |xi|-scaled plateau.
    """
    q = np.asarray(xi_grid, dtype=float)
    if n == 2:
        om, w = product_sphere_rule(2, 0, 2048)
        vals = phi.phi_hat(np.outer(q, om[:, 0])) ** 2
        a = vals.sum(axis=1) * w[0]
    elif n == 3:
        c, w = _flat_panels(-1.0, 1.0, 1, 512)
        vals = phi.phi_hat(np.outer(q, c)) ** 2
        a = 2.0 * np.pi * vals @ w
    else:
        raise ValueError("n must be 2 or 3")
    return {"xi": q, "symbol": a, "scaled": a * q}


def normal_symbol_hankel(n: int, phi: LocalizerProfile, xi_grid) -> np.ndarray:
    """Oracle: the same symbol as the radial Fourier transform of the kernel
    K(w) = 2 phi_tilde(|w|) |w|^{-(n-1)} (the singular weight cancels against
    the Jacobian, leaving smooth integrals of phi_tilde against J_0 / sin).

    Each q gets its own radial rule on [0, 2 _SUPPORT]: max(8, ceil(q / 2))
    panels per unit length, so a value does not depend on the rest of the grid
    and the panels stay aligned with the integer breakpoints of phi_tilde."""
    from scipy.special import j0

    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    out = []
    for qq in np.asarray(xi_grid, dtype=float):
        n_panels = int(np.ceil(2.0 * _SUPPORT)) * max(8, int(np.ceil(qq / 2.0)))
        rho, wr = _flat_panels(0.0, 2.0 * _SUPPORT, n_panels, 12)
        pt = phi.phi_tilde(rho)
        if n == 2:
            out.append(4.0 * np.pi * np.sum(wr * pt * j0(qq * rho)))
        elif qq == 0:
            out.append(8.0 * np.pi * np.sum(wr * pt))
        else:
            out.append(8.0 * np.pi / qq * np.sum(wr * pt * np.sin(qq * rho) / rho))
    return np.array(out)


def cone_ellipticity_check(n: int, chi: ConeCutoff, phi: LocalizerProfile) -> dict:
    """min over directions of the chi-weighted symbol, per |xi| rung.

    The symbol a_chi(xi) = int chi(omega_1) phi_hat(omega.xi)^2 domega is
    evaluated at |xi| = 5, 20 and 80, over a ladder of 13 tilt angles between
    xihat and the e_1 axis (rotational symmetry about e_1 reduces the direction
    scan to the tilt).  Reported floors are |xi|-scaled.
    """
    xi_ladder = (5.0, 20.0, 80.0)
    tilts = np.linspace(0.0, np.pi / 2.0, 13)
    xihats = np.zeros((len(tilts), n))
    xihats[:, 0], xihats[:, 1] = np.cos(tilts), np.sin(tilts)
    floors = []
    per_dir = np.empty((len(xi_ladder), len(tilts)))
    for iq, q in enumerate(xi_ladder):
        if n == 2:
            om, wgt = product_sphere_rule(2, 0, int(max(256, 8 * q)))
        else:
            m = max(64, int(2 * q))
            om, wgt = product_sphere_rule(3, m, m)
            om = np.roll(om, 1, axis=-1)  # polar axis e_1
        wchi = wgt * chi(om[:, 0])
        for it, xihat in enumerate(xihats):
            per_dir[iq, it] = np.sum(wchi * phi.phi_hat(q * (om @ xihat)) ** 2)
        floors.append(float(np.min(per_dir[iq]) * q))
    return {
        "xi": list(xi_ladder),
        "tilts": tilts,
        "scaled_values": per_dir * np.asarray(xi_ladder)[:, None],
        "scaled_floor": floors,
    }


# ---------------------------------------------------------------------------
# discrete injectivity probe
# ---------------------------------------------------------------------------


def _interp_matrix(axes, pts, line_w) -> sparse.csr_matrix:
    """Sparse line sums of multilinear interpolation: row i sums line_w[j] times
    the interpolant at pts[i * len(line_w) + j] (duplicate entries sum in the
    CSR conversion); columns index the tensor grid; outside queries are zero,
    and a query on an upper face reads the last cell at fraction 1 (to rounding)."""
    n, m = len(axes), len(line_w)
    sizes = [len(a) for a in axes]
    u = [(pts[:, j] - a[0]) / (a[1] - a[0]) for j, a in enumerate(axes)]
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


def injectivity_probe(
    n: int,
    *,
    grid_points: int,
    n_dirs: int,
    n_t: int = 16,
    chi: Optional[ConeCutoff] = None,
) -> dict:
    """sigma_min of the discretized normal operator A = L I_0 plus a solve.

    f lives on a grid_points^n tensor grid over [-1, 1]^n (zero outside); the
    sparse I0k interpolates the line integrals along z + t omega_k.  L's lines
    z - t omega_k are the same (even phi, symmetric rule), so
    A = sum_k c_k I0k I0k with c_k = w_k chi(omega_k), the optional cone cutoff
    chi weighting L.  The lines along -omega_k are those along omega_k, so a
    direction and its antipode in the rule share one I0k, weighted by the sum
    of their c_k; and only the ball block
    A[ball, ball] = sum_k c_k I0k[ball, :] I0k[:, ball] is assembled.
    Reports sigma_min, the relative reconstruction error for the bump
    f0 = exp(-6 |z|^2) (1 - |z|^2) on the ball, the size of the function
    space, and the demo data: the ball points, f0 on them and the
    reconstruction.
    """
    phi = default_profile()
    axes = tuple(np.linspace(-1.0, 1.0, grid_points) for _ in range(n))
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=-1)
    # restrict the function space to the inscribed ball: the corners of the
    # box are barely sampled by localized lines and contribute spurious
    # near-null high-frequency modes that wander under refinement
    ball = np.sum(Z**2, axis=-1) <= 1.0
    dof = int(ball.sum())
    dirs, dw = direction_rule(n, n_dirs)
    c = dw * (chi(dirs[:, 0]) if chi is not None else 1.0)
    t, wt = _line_rule(n_t)
    wt = wt * phi(t)
    A = np.zeros((dof, dof))  # every product is nearly dense: sum them densely
    for pair in _antipode_pairs(dirs):
        pts = (Z[:, None, :] + t[:, None] * dirs[pair[0]]).reshape(-1, n)
        I0k = _interp_matrix(axes, pts, wt)
        A += ((c[list(pair)].sum() * I0k[ball]) @ I0k[:, ball]).toarray()
    sigma_min = float(svdvals(A)[-1])
    r2 = np.sum(Z[ball] ** 2, axis=-1)
    fvec = np.exp(-6.0 * r2) * (1.0 - np.clip(r2, 0, 1))
    rhs = A @ fvec
    rec = np.linalg.solve(A, rhs)
    err = float(np.linalg.norm(rec - fvec) / np.linalg.norm(fvec))
    return {
        "sigma_min": sigma_min,
        "reconstruction_error": err,
        "dof": dof,
        "points": Z[ball],
        "f0": fvec,
        "reconstruction": rec,
    }
