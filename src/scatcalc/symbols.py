"""Scattering symbols, seminorms, quantization, composition, and parametrices.

A :class:`Symbol` is an evaluator a(x, xi) on mutually broadcastable position
and frequency arrays, with declared bi-order (m, l): differentiation in x is
expected to gain a factor <x>^{-1} and differentiation in xi a factor
<xi>^{-1}, both measured by :func:`conormal_seminorm` on a logarithmically
spaced probe set.

The symbol calculus is one-dimensional, (x, xi) in R x R: composition
expansions, Poisson brackets, seminorms and parametrices take 1-D symbols
(built with :func:`sym1d`) and integer derivative orders, and the dense
operators live on the 1-D grids of :mod:`scatcalc.grid`.  Quantization is the
left (standard) one,

    (Op a) u(x) = (2 pi)^{-1} int exp(i x xi) a(x, xi) u_hat(xi) d xi,

realized as a dense kernel matrix on a :class:`~scatcalc.grid.GridSpec`.  The
grid is a stand-in for the continuum: all operator-norm statements in this
package are made as ratios or monotone trends, never absolute continuum
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .bumps import smoothstep
from .grid import QUANTIZE_MAX_N, GridBudgetError, GridField, GridSpec, InputRefusal, SobolevOrder
from .quadrature import central, richardson

__all__ = [
    "Symbol",
    "DenseOperator",
    "SeminormReport",
    "NotScEllipticError",
    "KernelDecayError",
    "sym1d",
    "symbol_sum",
    "symbol_scale",
    "symbol_derivative",
    "conormal_seminorm",
    "classical_limit_consistency",
    "quantize",
    "identity_operator",
    "symbol_from_kernel",
    "compose_expansion",
    "poisson_bracket",
    "parametrix",
    "operator_norm_estimate",
]

_EPS = np.finfo(float).eps

TABULATE_MAX_SIZE = 2**22

#: Floor below which the normalized symbol modulus disqualifies a symbol from
#: the parametrix construction (full sc-ellipticity gate).
ELLIPTICITY_FLOOR = 1e-6


class NotScEllipticError(InputRefusal):
    """Symbol fails the total (joint spatial/frequency) ellipticity gate."""


class KernelDecayError(InputRefusal):
    """Kernel does not decay off-diagonal well enough to read off a symbol."""


@dataclass
class Symbol:
    """Evaluator a(x, xi) with declared order (m, l).

    eval takes mutually broadcastable arrays x and xi and returns a complex
    array of their broadcast shape.  Derivatives are scale-aware central
    finite differences (:func:`symbol_derivative`).  `depends_on_x` /
    `depends_on_xi` short-circuit derivatives of genuinely one-sided symbols
    to exact zeros, which keeps composition expansions of Fourier multipliers
    exact.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    order: tuple[float, float]
    depends_on_x: bool = True
    depends_on_xi: bool = True

    def __call__(self, x, xi):
        return np.asarray(self.eval(np.asarray(x, float), np.asarray(xi, float)))


def sym1d(f: Callable[[np.ndarray, np.ndarray], np.ndarray], order, **kw) -> Symbol:
    """The Symbol of f(x, xi) with order (m, l)."""
    return Symbol(f, tuple(order), **kw)


def symbol_sum(a: Symbol, b: Symbol) -> Symbol:
    return Symbol(
        eval=lambda x, xi: a(x, xi) + b(x, xi),
        order=(max(a.order[0], b.order[0]), max(a.order[1], b.order[1])),
        depends_on_x=a.depends_on_x or b.depends_on_x,
        depends_on_xi=a.depends_on_xi or b.depends_on_xi,
    )


def symbol_scale(a: Symbol, c: complex) -> Symbol:
    return Symbol(
        eval=lambda x, xi: c * a(x, xi),
        order=a.order,
        depends_on_x=a.depends_on_x,
        depends_on_xi=a.depends_on_xi,
    )


def symbol_derivative(a: Symbol, alpha: int, beta: int, x, xi):
    """partial_x^alpha partial_xi^beta a by nested finite differences (exact zeros
    where a does not depend on x or on xi).

    Note this returns plain partial derivatives; D = -i * partial factors are
    applied by the callers that need them.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if alpha == 0 and beta == 0:
        return a(x, xi)
    if (alpha > 0 and not a.depends_on_x) or (beta > 0 and not a.depends_on_xi):
        return np.zeros(np.broadcast(x, xi).shape, dtype=complex)
    # peel one derivative off, x before xi
    in_x = alpha > 0
    base = x if in_x else xi

    def shifted(h):
        if in_x:
            return symbol_derivative(a, alpha - 1, beta, x + h, xi)
        return symbol_derivative(a, alpha, beta - 1, x, xi + h)

    # central differences with one Richardson pass, scale-aware; the step
    # balances the truncation error against rounding noise that grows with
    # the order
    step = max(1e-4, _EPS ** (1.0 / (2 + alpha + beta)))
    return richardson(lambda h: central(shifted, h), step * (1.0 + np.abs(base)), 2)


#: |x| and |xi| scales of the probe lattice.
_PROBE_SCALES = (0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)


def probe_lattice():
    """Logarithmic probe lattice in (x, xi): every pair of signed scales.

    Returns (X, XI, x_scale, xi_scale), each of shape (P,).  Conormal
    estimates are scale-wise statements, so log spacing is the right stress.
    """
    pos = np.array(_PROBE_SCALES[1:])
    signed = np.concatenate([-pos[::-1], [0.0], pos])
    X, XI = (g.ravel() for g in np.meshgrid(signed, signed, indexing="ij"))
    return X, XI, np.abs(X), np.abs(XI)


@dataclass
class SeminormReport:
    value: float
    per_multiindex: dict
    flagged: bool
    growth_ratio: float


# A genuine symbol has scale-wise bounded weighted sups; a log loss grows like
# log(scale), i.e. by the ratio log(s_hi)/log(s_lo) between the top scales.
_GROWTH_FLAG_RATIO = 1.25


def conormal_seminorm(a: Symbol, k: int) -> SeminormReport:
    """Weighted derivative sups sup |<x>^{-l+al} <xi>^{-m+be} D_x^al D_xi^be a|.

    Evaluated on the log-spaced probe lattice; the maxima at |x| (or |xi|)
    scale 1024 over those at scale 64 measure divergence across scales, so
    that symbols outside their declared class (e.g. variable-order weights
    tested against a fixed class) can be flagged.
    """
    if k > 4:
        raise ValueError("derivative budget k must be at most 4")
    m, l = a.order
    X, XI, sx, sxi = probe_lattice()
    xw = np.sqrt(1.0 + sx**2)
    xiw = np.sqrt(1.0 + sxi**2)
    top, below = _PROBE_SCALES[-1], _PROBE_SCALES[-3]
    per_idx: dict = {}
    drifts = []  # (sup at the top scale, sup two scales below), along x and along xi
    for alpha in range(k + 1):
        for beta in range(k - alpha + 1):
            d = symbol_derivative(a, alpha, beta, X, XI)
            w = xw ** (-l + alpha) * xiw ** (-m + beta) * np.abs(d)
            per_idx[(alpha, beta)] = float(np.max(w))
            for s in (sx, sxi):
                drifts.append((float(np.max(w[s == top])), float(np.max(w[s == below]))))
    value = max(per_idx.values())
    growth_ratio = max(hi / max(lo, 1e-12 * value) for hi, lo in drifts)
    return SeminormReport(
        value=value,
        per_multiindex=per_idx,
        flagged=growth_ratio > _GROWTH_FLAG_RATIO,
        growth_ratio=growth_ratio,
    )


def classical_limit_consistency(a: Symbol) -> float:
    """Relative drift of the normalized symbol along rays, scale 256 vs 1024.

    Classical symbols have boundary limits in every direction, so their drift
    is small; the caller compares it with its own budget (the tests use the
    5 percent Richardson budget).
    """
    m, l = a.order
    worst = 0.0
    for sx, sxi in ((256.0, 256.0), (256.0, 0.0), (0.0, 256.0)):
        for u, v in product((1.0, -1.0), repeat=2):
            vals = []
            for fac in (1.0, 4.0):
                x, xi = sx * fac * u, sxi * fac * v
                val = complex(a(np.array([x]), np.array([xi]))[0])
                vals.append(val * math.sqrt(1.0 + x**2) ** (-l) * math.sqrt(1.0 + xi**2) ** (-m))
            scale = max(abs(vals[0]), abs(vals[1]), 1e-300)
            worst = max(worst, abs(vals[0] - vals[1]) / scale)
    return worst


@dataclass
class DenseOperator:
    """Kernel-sampled matrix realization of a quantized symbol.

    matrix[i, j] approximates the Schwartz kernel K(x_i, y_j) on a 1-D grid;
    applying to a field carries the h quadrature measure, so Op(1) acts as the
    identity.
    """

    spec: GridSpec
    matrix: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise InputRefusal("operator kernel contains non-finite entries (the symbol overflows)")

    def as_l2_matrix(self) -> np.ndarray:
        """Matrix of the operator on grid value-vectors (the measure h included)."""
        return self.matrix * self.spec.spacing

    def apply(self, u: GridField) -> GridField:
        if u.spec != self.spec:
            raise ValueError("field and operator live on different grids")
        return GridField(self.spec, self.as_l2_matrix() @ u.values)

    def compose(self, other: "DenseOperator") -> "DenseOperator":
        if other.spec != self.spec:
            raise ValueError("operators live on different grids")
        return DenseOperator(self.spec, self.as_l2_matrix() @ other.matrix)


def identity_operator(spec: GridSpec) -> DenseOperator:
    return DenseOperator(spec, np.eye(spec.size, dtype=complex) / spec.spacing)


def quantize(a: Symbol, spec: GridSpec, mode: str = "left") -> DenseOperator:
    """Dense kernel of Op_L(a) (or Op_R(a)): the standard quantization.

    K(x, y) = (2 pi)^{-1} sum_xi exp(i (x - y) xi) a(x, xi) dxi, assembled by
    an FFT in xi along each x-row.  Right quantization is obtained from
    Op_R(a) = Op_L(conj a)^*; it is what the variable-order norm uses to match
    the <D>^s <x>^r operator ordering.
    """
    if mode not in ("left", "right"):
        raise ValueError("mode must be 'left' or 'right'")
    if spec.size > QUANTIZE_MAX_N:
        raise GridBudgetError(f"N = {spec.size} exceeds dense budget {QUANTIZE_MAX_N}")
    sym = a(spec.axis()[:, None], spec.freq_axis())
    if mode == "right":
        return DenseOperator(spec, _left_kernel(spec, np.conj(sym)).conj().T)
    return DenseOperator(spec, _left_kernel(spec, sym))


@lru_cache(maxsize=4)
def _phase_table(spec: GridSpec) -> np.ndarray:
    """exp(i x xi) on the (x, xi) grid lattice, xi in fft layout.  Cached per
    grid, so read-only."""
    table = np.exp(1j * (spec.axis()[:, None] * spec.freq_axis()))
    table.flags.writeable = False
    return table


def _left_kernel(spec: GridSpec, sym) -> np.ndarray:
    """Kernel of Op_L from the symbol table sym[i, k] = a(x_i, xi_k)."""
    # sym * phase in that order: the factor order moves the complex product's last bit
    rows = np.fft.fft(sym * _phase_table(spec) * spec._alt_signs(), axis=1)
    return (2.0 * np.pi) ** -1 * spec.freq_spacing * rows


@dataclass(frozen=True)
class TabulatedSymbol:
    """Symbol values on the (x, xi) grid lattice, read off by symbol_from_kernel."""

    spec: GridSpec
    values: np.ndarray  # shape (N, N): x-major, xi in fft layout

    def value_table(self) -> np.ndarray:
        return self.values


def symbol_from_kernel(kernel, spec: GridSpec) -> TabulatedSymbol:
    """Left symbol from a kernel: a(x, xi) = int exp(-i w xi) K(x, x - w) dw.

    `kernel` is a DenseOperator or a callable K(x, y) over broadcastable arrays.
    The result holds the values on the (x, xi) grid lattice: a table, not an
    evaluator.  Kernels must decay below 1e-10 (relative) at the box edge;
    otherwise the w-integral is visibly truncated and a KernelDecayError is
    raised.
    """
    if spec.size**2 > TABULATE_MAX_SIZE:
        raise GridBudgetError("grid too large to tabulate a full symbol")
    x = spec.axis()
    if isinstance(kernel, DenseOperator):
        if kernel.spec != spec:
            raise ValueError("kernel and target grid disagree")
        K = kernel.matrix
    else:
        K = np.asarray(kernel(x[:, None], x[None, :]), dtype=complex)
    kmax = float(np.max(np.abs(K)))
    edge = np.abs(x[:, None] - x[None, :]) >= spec.half_width - 2 * spec.spacing
    if kmax > 0 and float(np.max(np.abs(K[edge]))) > 1e-10 * kmax:
        raise KernelDecayError("kernel does not decay at the box edge; symbol read-off invalid")
    # sum_y K(x, y) exp(+i y xi) via an inverse FFT per x-row, then strip the
    # exp(-i x xi) factor
    tr = np.fft.ifft(K, axis=1) * spec._alt_signs() * spec.size
    return TabulatedSymbol(spec, spec.spacing * _phase_table(spec).conj() * tr)


def compose_expansion(a: Symbol, b: Symbol, N_terms: int) -> Symbol:
    """Truncated composition symbol sum_{j < N} (-i)^j/j! (d_xi^j a)(d_x^j b).

    Exact whenever the expansion terminates (polynomial frequency dependence
    against polynomial spatial dependence); otherwise the truncation improves
    by one joint order per term.  When b does not depend on x or a does not
    depend on xi, every term with j > 0 is exactly zero and is left out.
    """
    if N_terms > 4:
        raise ValueError("N_terms capped at 4")
    top = N_terms - 1 if b.depends_on_x and a.depends_on_xi else 0

    def ev(x, xi):
        out = None
        for j in range(top + 1):
            da = symbol_derivative(a, 0, j, x, xi)
            db = symbol_derivative(b, j, 0, x, xi)
            term = (-1j) ** j / math.factorial(j) * da * db
            out = term if out is None else out + term
        return out

    return Symbol(
        eval=ev,
        order=(a.order[0] + b.order[0], a.order[1] + b.order[1]),
        depends_on_x=a.depends_on_x or b.depends_on_x,
        depends_on_xi=a.depends_on_xi or b.depends_on_xi,
    )


def poisson_bracket(a: Symbol, b: Symbol) -> Symbol:
    """{a, b} = d_xi a d_x b - d_x a d_xi b."""

    def ev(x, xi):
        return (
            symbol_derivative(a, 0, 1, x, xi) * symbol_derivative(b, 1, 0, x, xi)
            - symbol_derivative(a, 1, 0, x, xi) * symbol_derivative(b, 0, 1, x, xi)
        )

    return Symbol(
        eval=ev,
        order=(a.order[0] + b.order[0] - 1, a.order[1] + b.order[1] - 1),
        depends_on_x=a.depends_on_x or b.depends_on_x,
        depends_on_xi=a.depends_on_xi or b.depends_on_xi,
    )


def _normalized_modulus(a: Symbol, x, xi):
    m, l = a.order
    return np.abs(a(x, xi)) * np.sqrt(1.0 + x**2) ** (-l) * np.sqrt(1.0 + xi**2) ** (-m)


def ellipticity_floor(a: Symbol) -> float:
    """inf of <xi>^{-m} <x>^{-l} |a| over the probe lattice."""
    X, XI, _, _ = probe_lattice()
    return float(np.min(_normalized_modulus(a, X, XI)))


def parametrix(a: Symbol, N_terms: int, *, expansion_order: int = 3) -> Symbol:
    """Neumann-series parametrix symbol B_N = b0 (1 + r + ... + r^N).

    b0 inverts the symbol where its normalized modulus is comfortably above
    the ellipticity floor, and is regularized to conj(a)/(|a|^2 + 1) in a
    smooth collar below twice the floor (one concrete choice of the arbitrary
    interior extension, so parametrix outputs are canonical only modulo
    residual symbols; compare residual norms, not symbol values).

    Rejects symbols whose floor falls below :data:`ELLIPTICITY_FLOOR`: this is
    the strong, joint-in-(x, xi) notion of ellipticity, under which e.g. the
    symbol of the Laplacian alone does not qualify (it vanishes at xi = 0 over
    spatial infinity) while xi^2 + 1 does.
    """
    floor = ellipticity_floor(a)
    if floor <= ELLIPTICITY_FLOOR:
        raise NotScEllipticError(
            f"normalized symbol modulus reaches {floor:.3e}: not totally elliptic "
            "(invertibility is required jointly at frequency and spatial infinity, "
            "including at zero frequency over spatial infinity)"
        )
    m, l = a.order

    def b0_eval(x, xi):
        av = a(x, xi)
        tilde = _normalized_modulus(a, x, xi)
        low = 1.0 - smoothstep((tilde - 1.5 * floor) / (0.5 * floor))
        safe = np.where(np.abs(av) > 0, av, 1.0)
        return (1.0 - low) / safe + low * np.conj(av) / (np.abs(av) ** 2 + 1.0)

    b0 = Symbol(
        eval=b0_eval,
        order=(-m, -l),
        depends_on_x=a.depends_on_x,
        depends_on_xi=a.depends_on_xi,
    )
    one = Symbol(
        eval=lambda x, xi: np.ones(np.broadcast(x, xi).shape, dtype=complex),
        order=(0.0, 0.0),
        depends_on_x=False,
        depends_on_xi=False,
    )
    ab = compose_expansion(a, b0, expansion_order)
    r1 = symbol_sum(one, symbol_scale(ab, -1.0))
    acc = one
    term = one
    for _ in range(N_terms):
        term = compose_expansion(term, r1, expansion_order)
        acc = symbol_sum(acc, term)
    out = compose_expansion(b0, acc, expansion_order)
    out.order = (-m, -l)
    return out


def _weight_matrices(spec: GridSpec, order: SobolevOrder):
    """Dense matrix of <D>^s <x>^r and of its inverse on value-vectors."""
    if order.is_variable:
        raise ValueError("operator norms take constant orders")
    dft = np.fft.fft(np.eye(spec.size), axis=1).T
    idft = dft.conj().T / spec.size
    xiw = np.sqrt(1.0 + spec.freq_axis() ** 2)
    xw = np.sqrt(1.0 + spec.axis() ** 2)
    W = idft @ (xiw[:, None] ** order.s * dft) @ np.diag(xw**order.r)
    Winv = np.diag(xw**-order.r) @ idft @ (xiw[:, None] ** -order.s * dft)
    return W, Winv


def operator_norm_estimate(A: DenseOperator, frm: SobolevOrder, to: SobolevOrder) -> float:
    """Largest singular value of A as a map H^{frm} -> H^{to} on the grid."""
    _, Winv_from = _weight_matrices(A.spec, frm)
    W_to, _ = _weight_matrices(A.spec, to)
    return float(np.linalg.svd(W_to @ A.as_l2_matrix() @ Winv_from, compute_uv=False)[0])
