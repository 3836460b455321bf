"""Hamilton flows on compactified phase space: charts, trajectories, radial sets.

Chart conventions
-----------------
Every boundary chart carries a defining coordinate rho >= 0 with the boundary
at rho = 0 exactly.  The implemented charts are

interior                x (n,), xi (n,)
spatial_face(j, sigma)  rho = sigma/x_j, y_m = x_m/x_j (m != j), xi (n,)
frequency_face(j, sig)  rho = sigma/xi_j, x (n,)           [1D x.D_x model]
kg_face(sigma)          rho = sigma/t, v = x tau/t + xi, tau, xi
schrodinger_time_face   rho = sigma/t, y = x/t, tau, xi (n,)

Rescaled fields on boundary faces use each model's customary normalization
(a fixed positive multiple of <x><xi> rescalings of H_p, e.g. (2 rho)^{-1} H_p
for the Helmholtz spatial chart), so threshold data like beta_0 = -|xi_j| come
out in the conventional scale; only sign patterns and the ratio beta_1/beta_0
are invariant statements.

The interior chart is one spec shared by every Hamiltonian, named or not: its
field is (d_xi p, -d_x p) by finite differences of p and its characteristic
function is p / sqrt(1 + p^2).  The table ``_SPECS`` holds the boundary faces
only, and is the single source for what each (model, face) pair means: flat
coordinate layout, closed-form field, defining and transverse slots,
characteristic function, the maps of the limit oracle and the seeds of the
radial scan.  Every routine here reads it, and a pair missing from it raises
NotImplementedError; :func:`find_radial_points` walks the scans of a model's
entries in table order and raises it for a model with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import GridBudgetError, InputRefusal
from .quadrature import central, richardson

__all__ = [
    "PhasePointChart",
    "SymbolHamiltonian",
    "RadialPoint",
    "RadialSetReport",
    "ThresholdDegeneracyError",
    "helmholtz_model",
    "klein_gordon_model",
    "wave_model",
    "schrodinger_model",
    "d_x1_model",
    "x_dx_model",
    "hamilton_field",
    "char_value",
    "boundary_chart_field",
    "chart_field_by_limit",
    "chart_transition",
    "flow_trajectory",
    "FlowBatch",
    "flow_batch",
    "find_radial_points",
    "classify_radial",
    "threshold_data",
    "helmholtz_radial_distance",
    "trajectory_rows",
]

EPS_EIG = 1e-6
TANGENCY_TOL = 1e-9
FIELD_TOL = 1e-10  # |rescaled field| above which a scan candidate is not radial
CHAR_TOL = 1e-8  # |char_value| up to which a flow start counts as null
#: Largest states array of :func:`flow_batch`, (steps + 1) x B x d float entries.
MAX_FLOW_ENTRIES = 2**24


class ThresholdDegeneracyError(InputRefusal):
    """Radial point whose threshold data is undefined, chiefly by a vanishing
    normal rate beta_0.

    This is the zero-frequency pathology of the wave operator: the defining
    square roots of the commutant construction lose strict positivity, and the
    analysis needs a different calculus rather than a smaller tolerance.
    """


@dataclass(frozen=True)
class PhasePointChart:
    """A phase-space point expressed in one explicit chart."""

    chart: str
    coords: dict
    axis: Optional[int] = None
    sign: int = 1

    def __post_init__(self):
        rho_key = _RHO_KEYS.get(self.chart)
        if rho_key is not None:
            rho = float(self.coords[rho_key])
            if rho < 0:
                raise ValueError(f"{rho_key} must be nonnegative, got {rho}")


@dataclass
class SymbolHamiltonian:
    """Real Hamiltonian p(x, xi) on (..., n) arrays, with an optional named
    model enabling closed forms.

    For the named models the position variables are ordered as written in the
    chart table; for klein_gordon and schrodinger_free the first position slot
    is time and the first frequency slot is tau.  The symbol must be real on
    probes (flows of complex Hamiltonians are out of scope).
    """

    p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    named_model: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        rng = np.random.default_rng(0)
        probes = 4.0 * rng.standard_normal((2, 16, self.dim))
        if float(np.max(np.abs(np.imag(self.p(*probes))))) > 1e-12:
            raise ValueError("Hamiltonian symbol must be real-valued on probes")

    @property
    def dim(self) -> int:
        return self.params.get("dim", 1)


def helmholtz_model(lam: float, n: int) -> SymbolHamiltonian:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return SymbolHamiltonian(
        lambda x, xi: np.sum(xi**2, axis=-1) - lam**2, "helmholtz", {"lambda": lam, "dim": n}
    )


def klein_gordon_model(mass: float = 1.0) -> SymbolHamiltonian:
    return SymbolHamiltonian(
        lambda x, xi: xi[..., 0] ** 2 - xi[..., 1] ** 2 - mass**2,
        "klein_gordon",
        {"mass": mass, "dim": 2},
    )


def wave_model() -> SymbolHamiltonian:
    """Free wave operator on 1+1 spacetime: the mass-zero Klein-Gordon case."""
    return klein_gordon_model(mass=0.0)


def schrodinger_model(n: int = 1) -> SymbolHamiltonian:
    # position slots (t, x_1..x_n), frequency slots (tau, xi_1..xi_n)
    return SymbolHamiltonian(
        lambda x, xi: xi[..., 0] + np.sum(xi[..., 1:] ** 2, axis=-1),
        "schrodinger_free",
        {"dim": n + 1},
    )


def d_x1_model(n: int) -> SymbolHamiltonian:
    return SymbolHamiltonian(lambda x, xi: xi[..., 0], "d_x1", {"dim": n})


def x_dx_model() -> SymbolHamiltonian:
    return SymbolHamiltonian(lambda x, xi: x[..., 0] * xi[..., 0], "x_dx", {"dim": 1})


def _take(n: int, axis) -> tuple:
    """Fancy index of B axis-first orders: X[_take(n, axis)] lists row b of
    X (B, n) from axis[b], then the other axes in increasing order."""
    return np.arange(len(axis))[:, None], _order(n)[axis]


class _Rows(NamedTuple):
    """Per-row chart data of a batch of flat states: axis (int, -1 on a chart
    without one) and sign (float +-1.0), shape (B,); take, the :func:`_take`
    of the axes; and coef, the chart's field coefficients at each row (see
    ``_ChartSpec.coef``).  All of it changes only at a chart switch."""

    axis: np.ndarray
    sign: np.ndarray
    take: tuple
    coef: tuple


@cache
def _row(axis: int, sign: int, n: int) -> _Rows:
    """The _Rows of one point, cached for the scalar callers (one per field
    call), so shared and read-only; :func:`_field` adds its coef."""
    rows = _Rows(np.array([axis]), np.array([float(sign)]), _take(n, [axis]), ())
    for a in (rows.axis, rows.sign, *rows.take):
        a.flags.writeable = False
    return rows


@dataclass(frozen=True)
class _ChartSpec:
    """What one chart means, for one model on a boundary face or for every
    Hamiltonian on the interior; every flow and radial routine reads it.

    The flat state of a chart concatenates its layout slots (name, k): k None
    is a scalar, an int k a vector of length dim + k.  The defining slot rho
    comes first (flat index 0); it is None on the interior.  coords, interior
    and rescale serve the limit oracle: the chart coordinates of an interior
    (x, xi), the interior point over a flat state at a given rho, and the
    factor turning H_p into the rescaled field.
    """

    layout: tuple
    field: Callable  # (H, rows, S, out): writes the fields at the flat states S (B, d) to out
    # (H, coords) -> normalized characteristic function, elementwise over
    # coords of one point or over the columns of a batch (see _columns)
    char: Callable
    rho: Optional[str] = "rho"
    transverse: tuple = ()  # slots of the radial linearization, rho first
    threshold: Optional[float] = None
    projective: bool = False  # a direction-ray chart whose axis flows may switch
    coords: Optional[Callable] = None
    interior: Optional[Callable] = None
    rescale: Optional[Callable] = None
    scan: Optional[Callable] = None  # (H, resolution) -> radial candidates (pt, family, tau, mu)
    # (H, rows, S) -> the field's per-row coefficients, rows.coef: read from
    # axis, sign and slots that the field leaves put, so they hold until a switch
    coef: Optional[Callable] = None


def _symbol_field(H, rows, s, out):
    """Hamilton field (d_xi p, -d_x p) of an arbitrary real Hamiltonian: each
    partial of p by one central difference and one Richardson step, at step
    1e-4 (1 + |s_j|) in slot j."""
    n = H.dim
    for j in range(2 * n):

        def p_at(t):
            shifted = s.copy()
            shifted[..., j] += t
            return H.p(shifted[..., :n], shifted[..., n:])

        d = np.real(richardson(lambda h: central(p_at, h), 1e-4 * (1.0 + np.abs(s[..., j])), 2))
        out[..., (j + n) % (2 * n)] = d if j >= n else -d


def _symbol_char(H, c):
    """p / sqrt(1 + p^2) of an arbitrary real Hamiltonian: zero exactly on
    Char(P), with the sign of p, and bounded."""
    x, xi = np.asarray(c["x"], dtype=float), np.asarray(c["xi"], dtype=float)
    return _unit(np.real(H.p(x, xi)))


@cache
def _order(n: int) -> np.ndarray:
    """Row j: axis j, then the other axes in increasing order; shape (n, n), read-only."""
    order = np.array([[j] + [m for m in range(n) if m != j] for j in range(n)])
    order.flags.writeable = False
    return order


def _affine_face(H, rows, S, out):
    """A * S + C, elementwise, with rows.coef = (A, C): the field of every
    boundary face here is affine in the slots that move, with coefficients
    read from the slots that stay put."""
    A, C = rows.coef
    np.multiply(A, S, out)
    np.add(out, C, out)


def _affine_coef(S, n, a, b):
    """(A, C) of the field (a rho, a y + b, 0) on flat states S (B, d) with y
    in slots 1 to n - 1: a (B,), b (B, n - 1) or a scalar.  The -0.0 added to
    a rho changes no bit of it, and the tail slots come out +0.0.  With
    a = -sigma c and b = sigma e for sigma = +-1, a y + b rounds exactly as
    sigma (e - c y) does, since rounding to nearest is odd."""
    A, C = np.zeros((2,) + S.shape)
    A[:, :n] = a[:, None]
    C[:, 0] = -0.0
    C[:, 1:n] = b
    return A, C


def _helmholtz_coef(H, rows, S):
    # (2 rho)^{-1} H_p for p = |xi|^2 - lambda^2: a = -sigma xi_j and
    # b = sigma xi_m (m != j), so y* = -b/a = xi_m/xi_j; xi stays put
    xi = S[:, H.dim :][rows.take]  # xi_j, then the others
    return _affine_coef(S, H.dim, -rows.sign * xi[:, 0], rows.sign[:, None] * xi[:, 1:])


def _d_x1_coef(H, rows, S):
    # rho^{-1} <x> H_p for p = xi_1: a = -sigma on the x1 chart, 0 elsewhere,
    # and b = sigma in the x1 slot of y off the x1 chart
    on_x1 = np.where(rows.axis == 0, 1.0, 0.0)
    ind = np.where(rows.take[1][:, 1:] == 0, 1.0, 0.0)
    return _affine_coef(S, H.dim, -rows.sign * on_x1, rows.sign[:, None] * ind)


def _sq(v):
    """|v|^2 over the last axis, added left to right as np.sum adds an axis
    this short, without the slow path of its reduction; np.einsum adds three
    terms in another order."""
    v = np.asarray(v, dtype=float)
    q = v[..., 0] ** 2
    for k in range(1, v.shape[-1]):
        q = q + v[..., k] ** 2
    return q


def _helmholtz_char(H, c):
    lam = H.params["lambda"]
    q = _sq(c["xi"])
    return (q - lam**2) / (q + lam**2)


def _kg_char(H, c):
    m = H.params["mass"]
    tau, xi = np.asarray(c["tau"], dtype=float), np.asarray(c["xi"], dtype=float)
    return (tau**2 - xi**2 - m**2) / (tau**2 + xi**2 + m**2 + 1.0)


def _schrodinger_char(H, c):
    tau = np.asarray(c["tau"], dtype=float)
    q = _sq(c["xi"])
    return (tau + q) / (1.0 + np.abs(tau) + q)


def _d_x1_char(H, c):
    xi = np.asarray(c["xi"], dtype=float)
    return xi[..., 0] / np.sqrt(1.0 + _sq(xi))


def _unit(v):
    return v / np.sqrt(1.0 + v**2)


def _spatial_coords(pt, H, x, xi):
    j = pt.axis
    return np.concatenate([[pt.sign / x[j]], [x[m] / x[j] for m in range(H.dim) if m != j], xi])


def _spatial_interior(pt, H, s, rho):
    ray = _direction(s[None], H.dim, _take(H.dim, [pt.axis]))[0]
    return ray * (pt.sign / rho), s[H.dim :].copy()


def _kg_interior(pt, H, s, rho):
    t = pt.sign / rho
    tau, xi = s[2], s[3]
    return np.array([t, (s[1] - xi) * t / tau]), np.array([tau, xi])


def _schrodinger_interior(pt, H, s, rho):
    n = H.dim
    t = pt.sign / rho
    return np.concatenate([[t], s[1:n] * t]), np.concatenate([[s[n]], s[n + 1 :]])


def _sc_frequencies(x_dir: np.ndarray, xi: np.ndarray):
    """Scattering frequencies (tau, |mu|) of (x_dir, xi): tau is minus the
    radial component of xi along x_dir, mu the tangential part."""
    xhat = x_dir / np.linalg.norm(x_dir)
    tau = -float(np.dot(xhat, xi))
    mu = float(np.linalg.norm(xi + tau * xhat))
    return tau, mu


def _sphere_grid(n: int, resolution: int, radius: float):
    """Weightless seed points on the sphere of the given radius."""
    if n == 1:
        return [np.array([radius]), np.array([-radius])]
    if n == 2:
        th = 2 * np.pi * (np.arange(resolution) + 0.37) / resolution
        return [radius * np.array([np.cos(t), np.sin(t)]) for t in th]
    out = []
    for c in np.linspace(-0.9, 0.9, resolution // 2 + 2):
        s = np.sqrt(1 - c**2)
        for t in 2 * np.pi * (np.arange(resolution) + 0.29) / resolution:
            out.append(radius * np.array([s * np.cos(t), s * np.sin(t), c]))
    return out


def _helmholtz_scan(H, resolution):
    # per xi on the sphere |xi| = lambda and per hemisphere: the best point of
    # a coarse grid in the chart's angular coordinates, then Newton polish
    n = H.dim
    ygrid = np.linspace(-1.0, 1.0, 7)
    for xi in _sphere_grid(n, resolution, H.params["lambda"]):
        j = int(np.argmax(np.abs(xi)))
        for sign in (+1, -1):
            seeds = (
                PhasePointChart("spatial_face", {"rho": 0.0, "y": y, "xi": xi.copy()}, j, sign)
                for y in map(np.array, product(ygrid, repeat=n - 1))
            )
            pt = _newton_polish(H, min(seeds, key=lambda c: np.max(np.abs(_flat_field(H, c)))))
            u = np.insert(np.atleast_1d(pt.coords["y"]), j, 1.0)
            tau, mu = _sc_frequencies(sign * u, xi)
            yield pt, "out" if tau < 0 else "in", tau, mu


def _d_x1_scan(H, resolution):
    # xi_2 (when there is one) sweeps [-1, 1]; in one dimension the only
    # fiber point is xi = 0, seeded once
    n = H.dim
    for xi_rest in np.linspace(-1.0, 1.0, resolution if n > 1 else 1):
        xi = np.zeros(n)
        if n > 1:
            xi[1] = xi_rest
        for sigma in (+1, -1):
            coords = {"rho": 0.0, "y": np.zeros(n - 1), "xi": xi.copy()}
            pt = _newton_polish(H, PhasePointChart("spatial_face", coords, axis=0, sign=sigma))
            x_dir = np.zeros(n)
            x_dir[0] = sigma
            tau, mu = _sc_frequencies(x_dir, xi) if np.linalg.norm(xi) > 0 else (0.0, 0.0)
            yield pt, "x1_" + ("plus" if sigma > 0 else "minus"), tau, mu


def _kg_scan(H, resolution):
    m = H.params["mass"]
    for xi in np.linspace(-2.0, 2.0, 2 * resolution + 1):
        for tsheet in (+1, -1):
            # v = 0 stays in the t-dominant chart: |x1/t| = |xi/tau| <= 1
            tau = tsheet * np.sqrt(xi**2 + m**2)
            sheet = "tau+" if tau > 0 else ("tau-" if tau < 0 else "tau0")
            coords = {"rho": 0.0, "v": 0.0, "tau": tau, "xi": xi}
            for sigma in (+1, -1):
                cap = "future_cap" if sigma > 0 else "past_cap"
                pt = PhasePointChart("kg_face", coords, sign=sigma)
                yield pt, f"{cap}:{sheet}", float(tau), None


def _schrodinger_scan(H, resolution):
    n = H.dim - 1
    for xi1 in np.linspace(-1.5, 1.5, 2 * resolution + 1):
        xi = np.array([xi1] + [0.0] * (n - 1))
        for sigma in (+1, -1):
            coords = {"rho": 0.0, "y": 2.0 * xi, "tau": -float(xi1**2), "xi": xi}
            pt = PhasePointChart("schrodinger_time_face", coords, sign=sigma)
            yield pt, "out" if sigma > 0 else "in", None, None


def _x_dx_scan(chart, slot, family):
    """The two corners {rho = 0, slot = 0} of an x_dx face."""

    def scan(H, resolution):
        for sigma in (+1, -1):
            pt = PhasePointChart(chart, {"rho": 0.0, slot: 0.0}, axis=0, sign=sigma)
            yield pt, f"{family}_{'+' if sigma > 0 else '-'}", None, None

    return scan


#: The interior chart of every Hamiltonian, named or not.
_INTERIOR = _ChartSpec((("x", 0), ("xi", 0)), _symbol_field, char=_symbol_char, rho=None)
_SPATIAL = (("rho", None), ("y", -1), ("xi", 0))

_SPECS = {
    ("helmholtz", "spatial_face"): _ChartSpec(
        _SPATIAL, _affine_face, transverse=("rho", "y"), char=_helmholtz_char,
        threshold=-0.5, projective=True, coords=_spatial_coords, interior=_spatial_interior,
        rescale=lambda pt, x: abs(x[pt.axis]) / 2.0, scan=_helmholtz_scan, coef=_helmholtz_coef,
    ),
    ("klein_gordon", "kg_face"): _ChartSpec(
        (("rho", None), ("v", None), ("tau", None), ("xi", None)), _affine_face,
        transverse=("rho", "v"), char=_kg_char, threshold=-0.5,
        coords=lambda pt, H, x, xi: np.array(
            [pt.sign / x[0], x[1] * xi[0] / x[0] + xi[1], xi[0], xi[1]]
        ),
        interior=_kg_interior, rescale=lambda pt, x: abs(x[0]), scan=_kg_scan,
        # rho = sigma/t: a = -2 sigma tau, the familiar -2 tau (rho d_rho + v d_v)
        # form on the future cap; tau stays put
        coef=lambda H, rows, S: _affine_coef(S, 2, -2.0 * rows.sign * S[:, 2], -0.0),
    ),
    ("schrodinger_free", "schrodinger_time_face"): _ChartSpec(
        (("rho", None), ("y", -1), ("tau", None), ("xi", -1)), _affine_face,
        transverse=("rho", "y"), char=_schrodinger_char, threshold=-0.5,
        coords=lambda pt, H, x, xi: np.concatenate(
            [[pt.sign / x[0]], x[1:] / x[0], [xi[0]], xi[1:]]
        ),
        interior=_schrodinger_interior, rescale=lambda pt, x: abs(x[0]), scan=_schrodinger_scan,
        # a = -sigma, b = 2 sigma xi; xi stays put
        coef=lambda H, rows, S: _affine_coef(
            S, H.dim, -rows.sign, rows.sign[:, None] * (2.0 * S[:, H.dim + 1 :])
        ),
    ),
    ("d_x1", "spatial_face"): _ChartSpec(
        _SPATIAL, _affine_face, transverse=("rho", "y"), char=_d_x1_char, projective=True,
        coords=_spatial_coords, interior=_spatial_interior, rescale=lambda pt, x: abs(x[pt.axis]),
        scan=_d_x1_scan, coef=_d_x1_coef,
    ),
    # one dimension: the spatial chart has no y slot, and the fiber variable
    # moves under the flow, so it is transverse
    ("x_dx", "spatial_face"): _ChartSpec(
        (("rho", None), ("xi", None)), lambda H, rows, s, out: np.negative(s, out=out),
        transverse=("rho", "xi"),
        char=lambda H, c: _unit(np.asarray(c["xi"], dtype=float)),
        coords=_spatial_coords, interior=_spatial_interior, rescale=lambda pt, x: 1.0,
        scan=_x_dx_scan("spatial_face", "xi", "spatial"),
    ),
    # the Euler field rho d_rho + x d_x
    ("x_dx", "frequency_face"): _ChartSpec(
        (("rho", None), ("x", None)), lambda H, rows, s, out: np.copyto(out, s),
        transverse=("rho", "x"),
        char=lambda H, c: _unit(np.asarray(c["x"], dtype=float)),
        coords=lambda pt, H, x, xi: np.concatenate([[pt.sign / xi[0]], x]),
        interior=lambda pt, H, s, rho: (s[1:2].copy(), np.array([pt.sign / rho])),
        rescale=lambda pt, x: 1.0, scan=_x_dx_scan("frequency_face", "x", "frequency"),
    ),
}

# the defining coordinate is a property of the chart alone
_RHO_KEYS = {chart: spec.rho for (_, chart), spec in _SPECS.items()}


def _spec(H: SymbolHamiltonian, chart: str, need: Optional[str] = None) -> _ChartSpec:
    """The shared interior spec, or the table entry for (H.named_model, chart);
    either must provide ``need`` when given."""
    spec = _INTERIOR if chart == "interior" else _SPECS.get((H.named_model, chart))
    if spec is None or (need and not getattr(spec, need)):
        what = need or "spec"
        raise NotImplementedError(f"no {what} for model {H.named_model!r} on chart {chart!r}")
    return spec


def _flatten(spec: _ChartSpec, pt: PhasePointChart) -> np.ndarray:
    return np.concatenate([np.atleast_1d(np.asarray(pt.coords[k], float)) for k, _ in spec.layout])


def _slots(spec: _ChartSpec, n: int) -> dict:
    """Slot name -> (start, stop, scalar) in the flat state at dimension n."""
    out, i = {}, 0
    for name, k in spec.layout:
        stop = i + (1 if k is None else n + k)
        out[name] = (i, stop, k is None)
        i = stop
    return out


def _unflatten(spec: _ChartSpec, S: np.ndarray, n: int) -> dict:
    """Coords dict over flat states S (..., d): floats for scalar slots (nested
    lists of them over the leading axes) and views for vector slots; one flat
    state gives one point's coords."""
    slots = _slots(spec, n).items()
    return {k: S[..., a].tolist() if scalar else S[..., a:b] for k, (a, b, scalar) in slots}


def _columns(spec: _ChartSpec, S: np.ndarray, n: int) -> dict:
    """Coords dict over flat states S (..., d): a column view per slot."""
    slots = _slots(spec, n).items()
    return {k: S[..., a] if scalar else S[..., a:b] for k, (a, b, scalar) in slots}


def _with_coef(spec: _ChartSpec, H, rows: _Rows, S: np.ndarray) -> _Rows:
    """rows with the chart's field coefficients at the flat states S (B, d)."""
    return _Rows(rows.axis, rows.sign, rows.take, spec.coef(H, rows, S)) if spec.coef else rows


def _check_tangent(rho, drho) -> None:
    """Refuse a field whose rho component exceeds TANGENCY_TOL where rho = 0;
    rho and drho are arrays or scalars."""
    if np.count_nonzero((rho == 0.0) & (abs(drho) > TANGENCY_TOL)):
        raise RuntimeError("rescaled field is not tangent to the boundary")


def _field(spec: _ChartSpec, H, pt: Optional[PhasePointChart], s: np.ndarray) -> np.ndarray:
    """The table's field at one flat state s, refusing one that leaves the boundary at rho = 0."""
    axis = -1 if pt is None or pt.axis is None else pt.axis
    S = s[None]
    rows = _with_coef(spec, H, _row(axis, 1 if pt is None else pt.sign, H.dim), S)
    F = np.empty(S.shape)
    spec.field(H, rows, S, F)
    if spec.rho:
        _check_tangent(s[0], F[0, 0])
    return F[0]


def _flat_field(H: SymbolHamiltonian, pt: PhasePointChart) -> np.ndarray:
    """Boundary chart field at pt in the table's flat layout."""
    spec = _spec(H, pt.chart, "rho")
    return _field(spec, H, pt, _flatten(spec, pt))


def _direction(S: np.ndarray, n: int, take) -> np.ndarray:
    """Direction rays (B, n) of projective spatial states S (B, d) whose axes
    have the :func:`_take` take: 1 on each row's axis, y elsewhere."""
    U = np.empty((len(S), n))
    U[take] = np.concatenate([np.ones((len(S), 1)), S[:, 1:n]], 1)
    return U


def _transition(S: np.ndarray, n: int, axis, sign, new_axis):
    """Flat states and signs of the projective charts with dominant axes new_axis."""
    U = _direction(S, n, _take(n, axis))[_take(n, new_axis)]  # lead first
    lead = U[:, 0]
    if np.any(lead == 0.0):
        raise ValueError("target chart is invalid: vanishing dominant component")
    new_rho = S[:, 0] * np.abs(1.0 / lead)
    new_S = np.concatenate([new_rho[:, None], U[:, 1:] / U[:, :1], S[:, n:]], 1)
    return new_S, np.sign(lead) * sign


def _transverse(H: SymbolHamiltonian, pt: PhasePointChart):
    """(spec, flat state, flat indices of the transverse slots) at pt."""
    spec = _spec(H, pt.chart, "transverse")
    slots = _slots(spec, H.dim)
    idx = np.concatenate([np.arange(*slots[k][:2]) for k in spec.transverse])
    return spec, _flatten(spec, pt), idx


def _transverse_field(spec, H, pt, s, idx, vec):
    """Transverse field components with the transverse slots of s set to vec; a
    rho that a difference probe pushed negative is used as it is (every face
    with transverse slots is affine in its moving slots, so drho is odd in rho)."""
    w = s.copy()
    w[idx] = vec
    return _field(spec, H, pt, w)[idx]


def _jacobian(g, base: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian of g at base."""
    return np.column_stack([central(lambda t: g(base + t * e), step) for e in np.eye(len(base))])


def hamilton_field(H: SymbolHamiltonian, x: np.ndarray, xi: np.ndarray):
    """(dx/dt, dxi/dt) = (dp/dxi, -dp/dx) at an interior point, each partial
    of p by a Richardson-extrapolated central difference (see _symbol_field)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    f = _field(_INTERIOR, H, None, np.concatenate([x, xi]))
    return f[: len(x)], f[len(x) :]


def char_value(H: SymbolHamiltonian, pt: PhasePointChart) -> float:
    """Normalized characteristic function; zero on Char(P), bounded on charts.

    On the interior it is p / sqrt(1 + p^2), which has the sign of p; on a
    boundary face it is the face's closed form."""
    return float(_spec(H, pt.chart).char(H, pt.coords))


def boundary_chart_field(H: SymbolHamiltonian, pt: PhasePointChart) -> dict:
    """Rescaled Hamilton field in chart coordinates (closed forms).

    Raises if the would-be field fails tangency (a nonzero d/drho coefficient
    surviving at rho = 0), which no implemented model does; the guard mirrors
    the b-vector-field property of the rescaled flow.
    """
    return _unflatten(_spec(H, pt.chart), _flat_field(H, pt), H.dim)


def chart_field_by_limit(H: SymbolHamiltonian, pt: PhasePointChart) -> np.ndarray:
    """Boundary chart field as a Richardson limit of the rescaled interior flow.

    Independent of the closed forms in :func:`boundary_chart_field`: the chart
    coordinate functions are differentiated along the interior Hamilton field
    and the limit rho -> 0 is extrapolated from two probe values.
    """
    spec = _spec(H, pt.chart, "interior")
    s = _flatten(spec, pt)

    def at_rho(rho):
        x, xi = spec.interior(pt, H, s, rho)
        dx, dxi = hamilton_field(H, x, xi)
        eps = 1e-6 / max(1.0, float(np.max(np.abs(dx))) + float(np.max(np.abs(dxi))))
        along = central(lambda t: spec.coords(pt, H, x + t * dx, xi + t * dxi), eps)
        return spec.rescale(pt, x) * along

    return richardson(at_rho, 1e-3, 1)


def chart_transition(pt: PhasePointChart, H: SymbolHamiltonian, new_axis: int) -> PhasePointChart:
    """Move a spatial_face point to the chart with dominant axis new_axis.

    Valid where the direction ray has a nonzero new_axis component; mutually
    inverse with the reverse transition on the overlap.
    """
    spec = _SPECS.get((H.named_model, pt.chart))
    if spec is None or not spec.projective:
        raise ValueError("chart_transition applies to projective spatial_face points")
    S, signs = _transition(_flatten(spec, pt)[None], H.dim, [pt.axis], [pt.sign], [new_axis])
    return PhasePointChart(pt.chart, _unflatten(spec, S[0], H.dim), new_axis, int(signs[0]))


# chart-switch hysteresis: leave a chart once the dominant ratio drops below
# 0.45, enter the best chart (which then has ratio >= 1/sqrt(n) > 0.55 for the
# models here), avoiding thrashing on the overlap
SWITCH_LOW = 0.45


def flow_trajectory(
    H: SymbolHamiltonian, start: PhasePointChart, T: float, dt: float
) -> list[PhasePointChart]:
    """Fixed-step RK4 bicharacteristic flow with automatic chart switching from
    one start: :func:`flow_batch` on ``[start]``, read back as chart points."""
    batch = flow_batch(H, [start], T, dt)
    cols = _unflatten(_spec(H, start.chart), batch.states[:, 0], H.dim)
    axes, signs = batch.axes[:, 0].tolist(), batch.signs[:, 0].tolist()
    return [
        PhasePointChart(start.chart, {k: v[i] for k, v in cols.items()}, None if a < 0 else a, sign)
        for i, (a, sign) in enumerate(zip(axes, signs))
    ]


@dataclass(frozen=True)
class FlowBatch:
    """B trajectories of one chart as arrays, the result of :func:`flow_batch`:
    states (steps + 1, B, d) in the chart's flat layout, axes and signs
    (steps + 1, B, int8); axis -1 where the chart has none."""

    H: SymbolHamiltonian
    chart: str
    states: np.ndarray
    axes: np.ndarray
    signs: np.ndarray

    def point(self, step: int, b: int) -> PhasePointChart:
        """Row b at the given step as a chart point."""
        axis, sign = int(self.axes[step, b]), int(self.signs[step, b])
        coords = _unflatten(_spec(self.H, self.chart), self.states[step, b], self.H.dim)
        return PhasePointChart(self.chart, coords, None if axis < 0 else axis, sign)

    def char_values(self) -> np.ndarray:
        """:func:`char_value` at every state, shape (steps + 1, B), taken in
        blocks of about 256 steps so that its temporaries stay small."""
        spec, n = _spec(self.H, self.chart), self.H.dim
        blocks = np.array_split(self.states, max(1, len(self.states) // 256))
        return np.concatenate([spec.char(self.H, _columns(spec, S, n)) for S in blocks])


def flow_batch(H: SymbolHamiltonian, starts, T: float, dt: float) -> FlowBatch:
    """Fixed-step RK4 bicharacteristic flow with automatic chart switching from
    every start at once, on one (B, d) flat state.

    The starts share a chart and lie on the characteristic set; each row keeps
    its own axis and sign.  Stages run on the chart's flat states with rho
    clamped to its half-line, elementwise, so a row does not depend on the others.

    A step writes its three stage states and result, and its four fields, into
    two preallocated (4, B, d) buffers, and copies the result to ``states[i]``.
    The rows' chart data (:class:`_Rows`: the take of the axes and the field's
    per-row coefficients) is built at the start and again only at a step where
    some row switches charts, and axes and signs are filled forward from that
    step.  On a chart with rho, a step first runs unclamped; one reduction
    over the rho of its stages and result tells whether any left rho's
    half-line, and only then is the step redone with every stage and the
    result clamped.  A clamp that finds no negative rho writes nothing, so
    the states are those of clamping at every stage, bit for bit.  The
    tangency guard takes the largest |drho| of the four stage fields and runs
    its full check, rho == 0 where |drho| > TANGENCY_TOL, only when that
    largest exceeds the tolerance.
    """
    if len(starts) == 0:
        raise ValueError("a batch needs at least one start")
    if not 0.0 < abs(dt) <= 0.01:
        raise ValueError(f"|dt| must be positive and at most 0.01, got {dt}")
    if any(abs(char_value(H, p)) > CHAR_TOL for p in starts):
        raise ValueError("start is not on the characteristic set")
    chart = starts[0].chart
    if any(p.chart != chart for p in starts):
        raise ValueError("the starts of a batch must share one chart")
    spec = _spec(H, chart)
    n = H.dim
    field = spec.field
    S = np.array([_flatten(spec, p) for p in starts])
    if (abs(T / dt) + 1.0) * S.size > MAX_FLOW_ENTRIES:
        raise GridBudgetError(f"{abs(T / dt):.3g} steps of {S.size} entries exceed the budget")
    steps = int(round(abs(T / dt)))
    h = (np.sign(T) if T != 0 else 1.0) * abs(dt)
    axis = np.array([-1 if p.axis is None else p.axis for p in starts])
    sign = np.array([p.sign for p in starts], dtype=float)

    def clamp(V):
        # a masked copy, so that a negative rho becomes +0.0 exactly; fmin
        # passes over NaN, so one row's NaN does not skip the others
        if np.fmin.reduce(V[:, 0]) < 0.0:
            np.copyto(V[:, 0], 0.0, where=V[:, 0] < 0.0)

    def chart_rows(S):
        return _with_coef(spec, H, _Rows(axis, sign, _take(n, axis), ()), S)

    def step(S, clamped):
        # the RK4 step from S into Y[0], with K[0] its field at S
        for state, prev, out, c in stages:
            np.multiply(c, prev, state)
            np.add(S, state, state)
            if clamped:
                clamp(state)
            field(H, rows, state, out)
        if spec.rho:
            np.abs(drho, abs_drho)
        # S + h/6 (((k1 + 2 k2) + 2 k3) + k4): the reduction adds along axis 0 in order
        np.multiply(doubled, two, doubled)
        np.add.reduce(K, 0, None, Y[0])
        np.multiply(sixth, Y[0], Y[0])
        np.add(S, Y[0], Y[0])
        if clamped:
            clamp(Y[0])

    rows = chart_rows(S)
    states = np.empty((steps + 1,) + S.shape)
    states[0] = S
    axes = np.empty((steps + 1, len(S)), dtype=np.int8)
    signs = np.empty_like(axes)
    axes[:], signs[:] = axis, sign
    Y, K = np.empty((2, 4) + S.shape)  # the result and three stage states, and four fields
    # 0-d arrays: numpy multiplies by them faster than by a Python or numpy scalar
    half, full, sixth, two = (np.array(c) for c in (h / 2, h, h / 6, 2.0))
    stages = ((Y[1], K[0], K[1], half), (Y[2], K[1], K[2], half), (Y[3], K[2], K[3], full))
    rho, drho = Y[:, :, 0], K[:, :, 0]
    abs_drho, doubled = np.empty(drho.shape), K[1:3]
    ray_y = Y[0, :, 1:n]  # the result's y slots, on a projective chart
    y = np.empty(ray_y.shape)
    for i in range(1, steps + 1):
        S, new = states[i - 1], states[i]
        field(H, rows, S, K[0])
        step(S, False)
        if spec.rho:
            # a clamp that finds no negative rho writes nothing, so the step is
            # the clamped one unless a stage or the result left rho's half-line
            # (fmin passes over NaN, as the clamp does)
            if np.fmin.reduce(rho, None) < 0.0:
                step(S, True)
            # refuse a stage field with |drho| > TANGENCY_TOL at rho = 0; with
            # no |drho| that large no stage can fail
            if np.fmax.reduce(abs_drho, None) > TANGENCY_TOL:
                _check_tangent(S[:, 0], abs_drho[0])
                _check_tangent(rho[1:], abs_drho[1:])
        new[...] = Y[0]
        if not spec.projective:
            continue
        # a row leaves its chart when 1/max|ray| < SWITCH_LOW, and the ray is 1
        # on the axis and y elsewhere; 1/x falls as x grows, so the largest |y|
        # of all rows (fmax passes over NaN) tells whether any row does
        np.abs(ray_y, y)
        if 1.0 / np.fmax.reduce(y, axis=None, initial=1.0) < SWITCH_LOW:
            switch = 1.0 / np.maximum.reduce(y, axis=1, initial=1.0) < SWITCH_LOW
            U = np.abs(_direction(new[switch], n, _take(n, axis[switch])))
            new_axis = np.argmax(U, axis=1)
            new[switch], sign[switch] = _transition(
                new[switch], n, axis[switch], sign[switch], new_axis
            )
            axis[switch] = new_axis
            rows = chart_rows(new)
            axes[i:], signs[i:] = axis, sign
    return FlowBatch(H, chart, states, axes, signs)


def classify_radial(H: SymbolHamiltonian, pt: PhasePointChart):
    """Verdict and transverse linearization eigenvalues at a radial point.

    The Jacobian of the chart field is taken in the transverse slots only
    (rho and the defining coordinates), holding the flow invariants fixed;
    eigenvalue real-part signs are called with EPS_EIG, and a modulus below
    EPS_EIG in any direction is reported as degenerate rather than guessed.
    """
    spec, s, idx = _transverse(H, pt)
    jac = _jacobian(lambda v: _transverse_field(spec, H, pt, s, idx, v), s[idx], 1e-5)
    eigs = np.linalg.eigvals(jac)
    re = eigs.real
    if np.any(np.abs(eigs) < EPS_EIG):
        verdict = "degenerate"
    elif np.all(re > EPS_EIG):
        verdict = "source"
    elif np.all(re < -EPS_EIG):
        verdict = "sink"
    else:
        verdict = "saddle"
    return verdict, eigs


@dataclass
class RadialPoint:
    point: PhasePointChart
    family: str
    verdict: str
    eigenvalues: np.ndarray
    tau: Optional[float]
    mu: Optional[float]


@dataclass
class RadialSetReport:
    points: list


def find_radial_points(H: SymbolHamiltonian, resolution: int) -> RadialSetReport:
    """Scan boundary faces for zeros of the rescaled field and classify them.

    The scans of the model's table entries, in table order, seed candidates on
    the characteristic set (some Newton-polished on the transverse
    coordinates); those whose field exceeds FIELD_TOL are dropped.  An empty
    scan yields an empty report, not an error; a model with no scan raises
    NotImplementedError.
    """
    scans = [spec.scan for (m, _), spec in _SPECS.items() if spec.scan and m == H.named_model]
    if not scans:
        raise NotImplementedError(f"radial scan for model {H.named_model!r}")
    pts: list[RadialPoint] = []
    for scan in scans:
        for pt, family, tau, mu in scan(H, resolution):
            if np.max(np.abs(_flat_field(H, pt))) > FIELD_TOL:
                continue
            verdict, eigs = classify_radial(H, pt)
            pts.append(RadialPoint(pt, family, verdict, eigs, tau, mu))
    return RadialSetReport(pts)


def _newton_polish(H: SymbolHamiltonian, pt: PhasePointChart) -> PhasePointChart:
    """Newton iteration on the transverse coordinates at fixed invariants."""
    spec, s, idx = _transverse(H, pt)

    def g(v):
        return _transverse_field(spec, H, pt, s, idx, v)

    for _ in range(8):
        f = g(s[idx])
        if np.max(np.abs(f)) < 1e-14:
            break
        try:
            step = np.linalg.solve(_jacobian(g, s[idx], 1e-6), -f)
        except np.linalg.LinAlgError:
            break
        new = s[idx] + step
        # keep rho on its half-line
        new[0] = max(new[0], 0.0)
        s[idx] = new
    return PhasePointChart(pt.chart, _unflatten(spec, s, H.dim), pt.axis, pt.sign)


def threshold_data(H: SymbolHamiltonian, pt: PhasePointChart):
    """(beta_0, beta_1, threshold_order) at a nondegenerate radial point.

    beta_0 and beta_1 are the logarithmic derivatives along the rescaled flow
    of the boundary defining function rho (flat slot 0) and of the quadratic
    defining function of the radial set (the squared distance of the other
    transverse slots from the point), fitted at two probe scales.  They are
    chart-scale quantities; their common sign and the ratio beta_1/beta_0 are
    invariant.  ThresholdDegeneracyError is raised at a degenerate point, on a
    chart with no transverse slot besides rho, and when the two lack a common
    sign.
    """
    verdict, eigs = classify_radial(H, pt)
    if verdict == "degenerate":
        raise ThresholdDegeneracyError(
            "beta_0 vanishes at this radial point (zero-frequency degeneracy); "
            "threshold data is undefined and the square-root commutant cannot be built"
        )
    spec, s0, idx = _transverse(H, pt)
    if len(idx) == 1:
        raise ThresholdDegeneracyError(
            "the chart has no transverse slot besides rho, so beta_1 is undefined"
        )
    rest = idx[1:]

    def log_rate(fn, displace):
        def rate(eps):
            s = displace(eps)
            f = _transverse_field(spec, H, pt, s, idx, s[idx])
            # central difference along the flow; the defining functions are
            # linear/quadratic so a generous step avoids cancellation
            step = 1e-2 * eps / (1.0 + float(np.max(np.abs(f))))

            def along(t):
                q = s.copy()
                q[idx] = s[idx] + t * f
                return fn(q)

            return central(along, step) / fn(s)

        return richardson(rate, 1e-3, 1)

    def displace_rho(eps):
        s = s0.copy()
        s[0] = eps
        return s

    def displace_trans(eps):
        s = s0.copy()
        s[rest] = s[rest] + eps
        return s

    beta0 = float(log_rate(lambda q: q[0], displace_rho))
    beta1 = float(log_rate(lambda q: np.sum((q[rest] - s0[rest]) ** 2), displace_trans))
    if beta0 * beta1 <= 0:
        raise ThresholdDegeneracyError("beta_0 and beta_1 do not share a strict sign")
    return beta0, beta1, spec.threshold


def helmholtz_radial_distance(H: SymbolHamiltonian, pt: PhasePointChart) -> float:
    """Chart distance sqrt(rho^2 + |v|^2) to the outgoing Helmholtz radial set."""
    if pt.chart != "spatial_face":
        raise ValueError("expected a spatial_face point")
    xi = np.asarray(pt.coords["xi"], dtype=float)
    n = H.dim
    j = int(np.argmax(np.abs(xi)))
    q = pt if (pt.axis == j) else chart_transition(pt, H, j)
    if q.sign != int(np.sign(xi[j])):
        # point lies on the opposite hemisphere; distance through the equator
        return 2.0
    others = [m for m in range(n) if m != j]
    v = xi[others] / xi[j] - np.atleast_1d(q.coords["y"])
    return float(np.sqrt(float(q.coords["rho"]) ** 2 + np.sum(v**2)))


def trajectory_rows(H: SymbolHamiltonian, path) -> list[dict]:
    """Flatten a trajectory for CSV export: step, chart id, coords, |p|."""
    rows = []
    for i, pt in enumerate(path):
        row = {"step": i, "chart": pt.chart, "axis": pt.axis, "sign": pt.sign}
        for k, v in pt.coords.items():
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            if len(arr) == 1:
                row[k] = float(arr[0])
            else:
                for m, vv in enumerate(arr):
                    row[f"{k}{m}"] = float(vv)
        row["abs_char"] = abs(char_value(H, pt))
        rows.append(row)
    return rows
