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
(phi is even, and cos and sin come from one tangent of the half angle); the
Hankel oracle reads phi_tilde, not the table.
Since phi is even and the line rule symmetric, L integrates along the lines of
I_0, so `backproject` and `injectivity_probe` build each line integral once;
the lines along omega and -omega are the same too, so `pairing_gap` computes one
I_0 f per antipodal pair, and the probe assembles A on the ball only.  The
lattice, the ball and phi are invariant under the signed axis permutations g,
and those that map the weighted lines of the direction rule onto themselves act
on A by permuting the ball: the probe builds one line matrix (a stencil shifted
along the lattice) per orbit of lines and sums its images.  One of them, z -> -z,
reverses the ball, so only the rows of half the ball are built and A splits into
even and odd half-size blocks; the cone check reads phi_hat once per orbit of
omega -> -omega (and x_3 -> -x_3 at n = 3), against summed weights.
Line points are stored coordinate-major: the callables f and v receive (M, n)
views with contiguous columns, not C-contiguous copies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.fft import dct
from scipy.linalg import svdvals

from .bumps import plateau
from .quadrature import _cos_sin_from_half, gauss_panels, product_sphere_rule

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


#: The profile vanishes for |t| > _SUPPORT.
_SUPPORT = 2.0
#: Gauss nodes per panel of the line integrals of xray_transform and backproject.
_LINE_NODES = 24


@functools.cache
def _line_rule(n_t: int):
    """4 Gauss panels of n_t nodes on [-_SUPPORT, _SUPPORT], aligned with the plateau;
    t is exactly antisymmetric and w exactly symmetric.  Cached, so read-only."""
    t, w = gauss_panels(-_SUPPORT, _SUPPORT, 4, n_t)
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
        vals = self(pts) * self(s[..., None] - pts)
        return np.sum(vals * w, axis=-1)

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
        t, w = gauss_panels(0.0, _SUPPORT, (_hat_panels(top) + 1) // 2, 16)
        ck, sk = _cos_sin_from_half(np.multiply.outer(np.arange(top), 0.5 * t))
        cx, sx = _cos_sin_from_half(np.multiply.outer(x, 0.5 * t))
        cw = 2.0 * w * self(t)
        ck *= cw
        sk *= cw
        vals = ck @ cx.T - sk @ sx.T
        return dct(vals, type=2).T / n

    def _hat_sums(self, u: np.ndarray, reach: float) -> np.ndarray:
        """phi_hat at every entry of u (rows, m) by composite Gauss quadrature, with
        panels fine enough for |s| <= reach (for |s| past _HAT_TOP, and the table's oracle)."""
        pts, w = gauss_panels(-_SUPPORT, _SUPPORT, _hat_panels(reach), 16)
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

    On S^2 the grid has nc = max(4, int(sqrt(count / 2))) Gauss polar nodes
    times max(8, count // nc) azimuths, which is `count` directions only for
    some counts: 1, 60, 64, 255 and 511 give 32, 60, 60, 253 and 510.

    The rule is closed under omega -> -omega for an even `count` on S^1 and for
    an even azimuth count on S^2 (the Gauss polar nodes are symmetric)."""
    if n == 2:
        return product_sphere_rule(2, 0, count, offset=0.5)
    nc = max(4, int(np.sqrt(count / 2)))
    nodes, w = product_sphere_rule(3, nc, max(8, count // nc), offset=0.5)
    return np.roll(nodes, 1, axis=-1), w  # polar axis e_1


#: Sort key of `_nearest`: generic, so that the rules' symmetric nodes rarely share a key.
_MATCH_KEY = np.array([1.0, np.sqrt(2.0), np.sqrt(5.0)])


def _nearest(points, queries) -> np.ndarray:
    """For each row of queries, the index of the nearest row of points within 1e-12, else
    -1.  Points are sorted on a generic linear key, which moves by at most the distance,
    so only the keys within the window (doubled for rounding) are checked: O((K + M) log K)
    time and O(K + M) memory for K points and M queries."""
    n = points.shape[-1]
    key = _MATCH_KEY[:n] / np.linalg.norm(_MATCH_KEY[:n])
    pk = points @ key
    order = np.argsort(pk)
    qk = queries @ key
    lo = np.searchsorted(pk[order], qk - 2e-12)
    hi = np.searchsorted(pk[order], qk + 2e-12, side="right")
    best, gap = np.full(len(queries), -1), np.full(len(queries), np.inf)
    for j in range(int(np.max(hi - lo, initial=0))):
        cand = order[np.minimum(lo + j, len(order) - 1)]
        d = np.linalg.norm(points[cand] - queries, axis=-1)
        hit = (lo + j < hi) & (d <= 1e-12) & (d < gap)
        best[hit], gap[hit] = cand[hit], d[hit]
    return best


def _antipode_pairs(dirs) -> list:
    """Each direction once: (k, k') with k < k' where node k' is within 1e-12 of
    -omega_k, else (k,).  The lines z + t omega of a pair are the same points."""
    anti = _nearest(dirs, -dirs)
    return [(k, int(j)) if j >= 0 else (k,) for k, j in enumerate(anti) if j > k or j < 0]


def _line_symmetries(dirs, weight, pairs):
    """The signed axis permutations g x = s * x[perm] that map every line of the rule
    (a pair of `_antipode_pairs`, of summed weight `weight`) to a line of equal weight,
    one of g and -g = J g each (s_0 = +1: J fixes every line), the identity first.
    Returns [(perm, s)] and the line each g sends each line to, (|G/J|, lines)."""
    n = dirs.shape[-1]
    line = np.empty(len(dirs), dtype=int)
    for q, pair in enumerate(pairs):
        line[list(pair)] = q
    both = np.concatenate([dirs, -dirs])  # a line is matched through either direction
    first = dirs[[pair[0] for pair in pairs]]
    group, images = [], []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n - 1):
            s = np.array((1, *signs))
            hit = _nearest(both, s * first[:, perm])
            if np.all(hit >= 0):
                img = line[hit % len(dirs)]
                if np.all(np.abs(weight[img] - weight) <= 1e-12 * np.max(np.abs(weight))):
                    group.append((np.array(perm), s))
                    images.append(img)
    return group, np.array(images)


def _line_points(z, t, omega) -> np.ndarray:
    """The points z + t omega, (..., m, n) for t (m,) and z, omega (..., n) with broadcasting
    batch shapes, stored coordinate-major: their reshape to (... * m, n) is a view with
    contiguous columns, so the add here and the callables loop over points, not over n."""
    z, omega = np.asarray(z, dtype=float), np.asarray(omega, dtype=float)
    batch = np.broadcast_shapes(z.shape[:-1], omega.shape[:-1])
    out = np.empty((z.shape[-1], *batch, len(t)))
    np.add(z[..., None], t * omega[..., None], out=np.moveaxis(out, 0, -2))
    return np.moveaxis(out, 0, -1)


def xray_transform(f: Callable, z, omega, phi: LocalizerProfile):
    """I_0 f(z, omega) = int f(z + t omega) phi(t) dt by Gauss quadrature.

    f is vectorized over (M, n) arrays: it receives a view whose columns are
    contiguous, not a C-contiguous copy.  z and omega may carry matching batch
    dimensions (..., n).
    """
    t, w = _line_rule(_LINE_NODES)
    pts = _line_points(z, t, omega)
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
        out = 0.0
        # pts is rebound, not freed, per direction: the last direction's points
        # stay allocated, so the heap is not trimmed and refaulted each time
        for k, (om, wk) in lines:
            pts = _line_points(y, t, om)
            vals = np.asarray(v(pts.reshape(-1, pts.shape[-1]), k)).reshape(pts.shape[:-1])
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
    ax, axw = gauss_panels(-6.0, 6.0, 1, 32)
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
        c, w = gauss_panels(-1.0, 1.0, 1, 512)
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
        rho, wr = gauss_panels(0.0, 2.0 * _SUPPORT, n_panels, 12)
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
    scan to the tilt).  Reported floors are |xi|-scaled.  phi_hat is even and
    every tilt lies in the e_1-e_2 plane, so omega, -omega and (n = 3) their
    mirrors in x_3 -> -x_3 share one value: each orbit of these symmetries of the
    even-sized rules is read once, weighted by its summed w chi(omega_1).
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
            images = [np.arange(len(om)), np.roll(np.arange(len(om)), -(len(om) // 2))]
        else:
            m = max(64, int(2 * q))
            om, wgt = product_sphere_rule(3, m, m)
            om = np.roll(om, 1, axis=-1)  # polar axis e_1
            p, a = np.divmod(np.arange(m * m), m)  # Gauss node, azimuth (runs fastest)
            # -omega: the mirrored Gauss node, the azimuth turned by pi; x_3 -> -x_3: -azimuth
            images = [p * m + a, p * m + -a % m, (m - 1 - p) * m + (a + m // 2) % m,
                      (m - 1 - p) * m + (m // 2 - a) % m]
        rep = np.min(images, axis=0)  # each orbit's first node
        orbits = np.flatnonzero(rep == np.arange(len(rep)))
        wchi, om = np.bincount(rep, wgt * chi(om[:, 0]))[orbits], om[orbits]
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


def _line_blocks(axes, Z, t, wt, omega, ball, top):
    """I0[top, :] and I0[:, ball] in CSR for masks top and ball of the grid points z of Z,
    I0 the wt-weighted sums of the multilinear interpolant on the lines z + t omega.
    The cells floor(t omega / h) + corner and their weights do not depend on z: every
    row is one stencil shifted along the lattice.  Nodes outside the box read zero (tested
    on the points), and an entry whose column leaves the grid on an axis, a face
    rounding case of weight ~1e-16, is dropped."""
    n, m, G = len(axes), len(t), len(Z)
    sizes = np.array([len(a) for a in axes])
    s = np.multiply.outer(omega / [(a[-1] - a[0]) / (len(a) - 1) for a in axes], t)
    cell = np.floor(s)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # (corner, axis)
    corner_w = np.prod(np.where(bits[..., None] == 1, s - cell, 1.0 - (s - cell)), axis=1) * wt
    keep = corner_w != 0
    # an offset vector is one step in the grid padded by the offsets' reach, so
    # distinct vectors stay distinct and sort in C order; lut maps back to the grid
    reach = int(np.abs(cell).max()) + 1
    lut = np.full(sizes + 2 * reach, -1, dtype=np.int32)
    lut[(slice(reach, -reach),) * n] = np.arange(G).reshape(sizes)
    strides = np.array(lut.strides) // lut.itemsize
    steps, inv = np.unique(np.add.outer(bits @ strides, strides @ cell.astype(int))[keep],
                           return_inverse=True)
    stencil = np.bincount(np.nonzero(keep)[1] * len(steps) + inv, corner_w[keep], m * len(steps))
    pts = _line_points(Z, t, omega)
    inside = np.ones(pts.shape[:-1])
    for j, a in enumerate(axes):
        inside *= (pts[..., j] >= a[0]) & (pts[..., j] <= a[-1])
    vals = inside @ stencil.reshape(m, -1)  # (grid point, offset)
    cols = lut.ravel()[np.flatnonzero(lut >= 0)[:, None] + steps]  # -1 off the grid
    # -1 off the ball too: column -1 reads the appended -1
    ball_cols = np.append(np.where(ball, np.cumsum(ball, dtype=np.int32) - 1, -1), -1)[cols]
    nonzero = vals != 0

    def csr(mask, indices, data, width):
        indptr = np.append(0, np.cumsum(np.count_nonzero(mask, axis=1)))
        return sparse.csr_matrix((data[mask], indices[mask], indptr), shape=(len(mask), width))

    return (csr(nonzero[top] & (cols[top] >= 0), cols[top], vals[top], G),
            csr(nonzero & (ball_cols >= 0), ball_cols, vals, int(ball.sum())))


def _lattice_ball(n: int, grid_points: int) -> np.ndarray:
    """Mask of the grid points in the closed unit ball, decided exactly on the integers
    2 i - (grid_points - 1), i the axis index, so that it is closed under z -> -z."""
    k2 = (2 * np.arange(grid_points) - (grid_points - 1)) ** 2
    return functools.reduce(np.add.outer, [k2] * n).ravel() <= (grid_points - 1) ** 2


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
    direction and its antipode in the rule share one line matrix M_q = I0k I0k,
    weighted by the sum C_q of their c_k.  A signed axis permutation g permutes
    the ball's points (P_g), and M_{g q} = P_g M_q P_g^T; the group G of those g
    that map every line q to a line of equal C_q always holds J: z -> -z, which
    fixes every line and reverses the ball's points.  So M_q is built for each
    orbit's first line only, S = sum C_q / |stabilizer of q in G/J| M_q, and
    A = sum over G/J of P_g S P_g^T.  J A J = A, so only the rows of the first
    half of the ball are assembled (S's other rows are read through J S J = S),
    and A splits into an even block E and an odd block O of half the size each,
    whose singular values together are A's.
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
    ball = _lattice_ball(n, grid_points)
    dof = int(ball.sum())
    half, h = (dof + 1) // 2, dof // 2  # ball point k reflects to dof - 1 - k
    top = ball & (np.cumsum(ball) <= half)
    dirs, dw = direction_rule(n, n_dirs)
    c = dw * (chi(dirs[:, 0]) if chi is not None else 1.0)
    pairs = _antipode_pairs(dirs)
    weight = np.array([c[list(pair)].sum() for pair in pairs])
    group, images = _line_symmetries(dirs, weight, pairs)
    stab = np.sum(images == np.arange(len(pairs)), axis=0)
    t, wt = _line_rule(n_t)
    wt = wt * phi(t)
    # S: each orbit's first line at its weight over its stabilizer's size, so that the
    # sum of g S g^T over G/J gives every line of the orbit its own weight
    S = np.zeros((half, dof))  # every product is nearly dense: sum them densely
    for q in np.flatnonzero(images.min(axis=0) == np.arange(len(pairs))):
        rows, cols = _line_blocks(axes, Z, t, wt, dirs[pairs[q][0]], ball, top)
        S += (weight[q] / stab[q] * rows @ cols).toarray()
    # g permutes the ball's points, at lattice coordinates 2 i - (grid_points - 1), by p:
    # (P_g S P_g^T)[i, j] = S[p_i, p_j].  A row r past half is S[dof - 1 - r, dof - 1 - p_j]
    # by J S J = S, and dof - 1 - p_j = p_{dof - 1 - j} (g commutes with J): that row of
    # the gather on dof - 1 - r, read backwards
    shape = (grid_points,) * n
    lattice = 2 * np.argwhere(ball.reshape(shape)) - (grid_points - 1)
    number = np.cumsum(ball) - 1  # grid point -> ball point
    A = np.zeros((half, dof))
    for perm, sign in group:
        image = (sign * lattice[:, perm] + grid_points - 1) // 2
        p = number[np.ravel_multi_index(image.T, shape)]
        r = p[:half]
        up = (r < half)[:, None]
        X = S[np.ix_(np.where(r < half, r, dof - 1 - r), p)]
        np.add(A, X, out=A, where=up)
        np.add(A, X[:, ::-1], out=A, where=~up)
        del X  # before the next gather
    del S
    # E and O in orthonormal bases (e_k +- e_{dof-1-k}) / sqrt 2; the origin, the
    # fixed point when dof is odd, is e_h alone, so s scales its row and column
    mirror = A[:, ::-1][:, :half]
    s = np.where(np.arange(half) < h, 1.0, np.sqrt(0.5))
    blocks = (s[:, None] * (A[:, :half] + mirror) * s, A[:h, :h] - mirror[:h, :h])
    sigma_min = float(min(svdvals(B)[-1] for B in blocks))
    r2 = np.sum(Z[ball] ** 2, axis=-1)
    fvec = np.exp(-6.0 * r2) * (1.0 - np.clip(r2, 0, 1))
    # the even and odd parts of f0 on the first half of the ball, the even one scaled by s
    parts = (s * (fvec[:half] + fvec[::-1][:half]) / 2.0, (fvec[:h] - fvec[::-1][:h]) / 2.0)
    even, odd = (np.linalg.solve(B, B @ y) for B, y in zip(blocks, parts))
    even /= s
    rec = np.concatenate([even + np.pad(odd, (0, half - h)), (even[:h] - odd)[::-1]])
    err = float(np.linalg.norm(rec - fvec) / np.linalg.norm(fvec))
    return {
        "sigma_min": sigma_min,
        "reconstruction_error": err,
        "dof": dof,
        "points": Z[ball],
        "f0": fvec,
        "reconstruction": rec,
    }
