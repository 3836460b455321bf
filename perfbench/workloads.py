"""The benchmark's workloads: what each pass calls, with inputs from the seed.

A pass is a list of calls.  Each call is either one ``scatcalc`` experiment at
its default config (``{}`` plus the seed) or one symbol-calculus call through
the public ``scatcalc.symbols`` API.  Every call yields a ``cli.RunReport``
that the pass writes with ``cli.emit_report``, so all calls share one
correctness gate and one report format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Each workload has this many recorded experiment seeds (``seeds`` in
#: ``reference/<workload>.json``); the benchmark's ``--seed`` picks one of them
#: by its residue, so any seed maps onto inputs whose results are known.
SEEDS = 16

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "flow": "Mechanism of a batched hamflow engine: 50 RK4 chart-flow trajectories, over 99% of "
            "the time in hamflow; helmholtz, radon and symbols are bypassed.",
    "threshold": "Mechanism of coefficient-space Helmholtz: 576,000 shell points of plane-wave "
                 "synthesis under grid mass quadrature; hamflow, radon and symbols are bypassed.",
    "radon": "Mechanism of a tabulated phi_hat: phi_hat quadrature, sparse X-ray assembly and SVD "
             "in the injectivity probe; radon runs in no other workload.",
    "calculus": "Many short calls (seven small experiments, quantize, commutator, parametrix): the "
                "only user of symbols, commutants and scatter1d, so per-call overhead shows here.",
}

_SHORT_EXPERIMENTS = (
    "radial", "quantize-check", "commutant", "helmholtz", "pairing", "scatter1d", "var-order",
)


@dataclass(frozen=True)
class Call:
    """One call of a pass: an experiment (``experiment`` set) or a symbol call."""

    name: str
    experiment: str | None = None
    params: dict = field(default_factory=dict)


def calls(workload: str, wseed: int) -> list[Call]:
    """The calls of one pass of ``workload`` with inputs drawn from ``wseed``."""
    if workload in ("flow", "threshold", "radon"):
        return [Call(workload, workload)]
    if workload != "calculus":
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    rng = np.random.default_rng(wseed)
    out = [Call(e, e) for e in _SHORT_EXPERIMENTS]
    for N, L in ((128, 20.0), (256, 30.0)):
        c, d = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        out.append(Call(f"quantize_N{N}", params={"N": N, "L": L, "x0": c, "xi0": d}))
    s = float(rng.uniform(5.5, 6.5))
    out.append(Call("commutator", params={"s": s, "sig": 0.6 * s}))
    out.append(Call("parametrix_ladder", params={"mass2": float(rng.uniform(1.0, 1.5))}))
    return out


# ---------------------------------------------------------------------------
# symbol-calculus calls (criteria 1-3 through the public API)
# ---------------------------------------------------------------------------


def _quantize(p, span):
    from scatcalc.grid import make_grid
    from scatcalc.symbols import quantize, sym1d, symbol_from_kernel

    spec = make_grid(1, p["L"], p["N"])
    x0, xi0 = p["x0"], p["xi0"]
    a = sym1d(lambda x, xi: np.exp(-((x - x0) ** 2) / 2 - (xi - xi0) ** 2 / 2), (0, 0))
    A = quantize(a, spec)
    tab = symbol_from_kernel(A, spec)
    xs = spec.axis()
    X, XI = np.meshgrid(xs, spec.freq_axis(), indexing="ij")
    exact = np.exp(-((X - x0) ** 2) / 2 - (XI - xi0) ** 2 / 2)
    vals = tab.value_table().reshape(spec.size, spec.size)
    interior = np.abs(xs) <= p["L"] / 2
    err = float(np.max(np.abs(vals - exact)[interior]))
    metrics = {"kernel_roundtrip_err": err, "frobenius_norm": float(np.linalg.norm(A.matrix))}
    return metrics, {"kernel_roundtrip": err < 1e-8}


def _commutator(p, span):
    from scatcalc.grid import make_grid
    from scatcalc.symbols import poisson_bracket, quantize, sym1d

    spec = make_grid(1, 30.0, 256)

    def pairs(s, sig):
        def gx(x, c=0.0):
            return np.exp(-(((x - c) / s) ** 4))

        def gxi(xi):
            return np.exp(-((xi / sig) ** 4))

        return [
            (sym1d(lambda x, xi: xi * gx(x) * gxi(xi), (1, 0)),
             sym1d(lambda x, xi: sig * gx(x) * gxi(xi), (1, 0))),
            (sym1d(lambda x, xi: xi * gx(x, 2.0) * gxi(xi), (1, 0)),
             sym1d(lambda x, xi: sig * gx(x) * gxi(xi), (1, 0))),
        ]

    def ratio(a, b):
        A = quantize(a, spec).as_l2_matrix()
        B = quantize(b, spec).as_l2_matrix()
        pb = quantize(poisson_bracket(a, b), spec).as_l2_matrix()
        return float(np.linalg.norm(1j * (A @ B - B @ A) - pb, 2) / np.linalg.norm(pb, 2))

    base = [ratio(a, b) for a, b in pairs(p["s"], p["sig"])]
    doubled = [ratio(a, b) for a, b in pairs(2 * p["s"], 2 * p["sig"])]
    metrics = {f"ratio_{k}": r for k, r in enumerate(base)}
    metrics.update({f"ratio_doubled_{k}": r for k, r in enumerate(doubled)})
    criteria = {
        "bracket_leading": all(r <= 0.15 for r in base),
        "bracket_improves": all(d < r for r, d in zip(base, doubled)),
    }
    return metrics, criteria


def _parametrix_ladder(p, span):
    from scatcalc.grid import make_grid
    from scatcalc.symbols import NotScEllipticError, parametrix, quantize, sym1d

    spec = make_grid(1, 20.0, 128)
    m2 = p["mass2"]
    a = sym1d(lambda x, xi: xi**2 + m2 + 0 * x, (2, 0), depends_on_x=False)
    A = quantize(a, spec)
    eye = np.eye(spec.size)
    resids = []
    for N in range(4):
        with span("parametrix_rung", N=N):
            B = quantize(parametrix(a, N), spec)
            resids.append(float(np.linalg.norm(A.compose(B).as_l2_matrix() - eye, 2)))
    try:
        parametrix(sym1d(lambda x, xi: xi**2 + 0 * x, (2, 0), depends_on_x=False), 1)
        rejected = False
    except NotScEllipticError:
        rejected = True
    metrics = {f"residual_N{k}": r for k, r in enumerate(resids)}
    criteria = {
        "residual_halves": all(resids[k] / resids[k + 1] >= 2.0 - 1e-9 for k in range(3)),
        "non_elliptic_rejected": rejected,
    }
    return metrics, criteria


SYMBOL_CALLS = {
    "quantize_N128": _quantize,
    "quantize_N256": _quantize,
    "commutator": _commutator,
    "parametrix_ladder": _parametrix_ladder,
}
