"""Outside-in tracing of scatcalc: spans around each module's public functions.

Nothing in the program is edited.  ``install`` replaces each public function
listed in ``TARGETS`` by a wrapper that records a span (name, start, end,
parent, call id) and, where a target has a hook, counts the work that crossed
the boundary.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics of ``LAYER_METRICS`` when the pass ends.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

ALL = ("flow", "threshold", "radon", "calculus")


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "attrs")

    def __init__(self, name, start, parent, call, attrs=None):
        self.name, self.start, self.end = name, start, start
        self.parent, self.call, self.attrs = parent, call, attrs

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.call, self.attrs]


class Tracer:
    """Span recorder.  Spans nest on one thread; ``parent`` is a list index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call = None
        self._stack: list[int] = []

    def open(self, name, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.call, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name, /, **attrs):
        idx = self.open(name, attrs or None)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, hook=None):
        """``fn`` with a span around each call; ``hook(tracer, args, kwargs,
        result)`` counts work and may return a replacement result."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                swapped = hook(self, args, kwargs, result)
                if swapped is not None:
                    result = swapped
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call of a no-op adds over the bare call: the span
    bookkeeping alone, without the hooks' counting."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


def _count(key, amount=1):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += amount(args, kwargs, result) if callable(amount) else amount

    return hook


def _report_bytes(tr, args, kwargs, result):
    tr.counts["cli.report_bytes"] += sum(p.stat().st_size for p in result)


def _flow_counts(tr, args, kwargs, path):
    tr.counts["hamflow.rk4_steps"] += len(path) - 1
    tr.counts["hamflow.chart_switches"] += sum(
        (a.chart, a.axis, a.sign) != (b.chart, b.axis, b.sign) for a, b in zip(path, path[1:])
    )


def _quantize_counts(tr, args, kwargs, result):
    tr.counts["symbols.quantize_calls"] += 1
    tr.counts["symbols.quantize_entries"] += result.matrix.size


def _synth_nodes(closure) -> int:
    # the closures upgrade their sphere rule in place; read the rule in use
    dens = inspect.getclosurevars(closure).nonlocals["state"]["dens"]
    return len(dens.nodes)


def _wrap_synth(tr, args, kwargs, closure):
    """Return the evaluator closure wrapped in a ``helmholtz.synth`` span."""

    def counted(tr_, cargs, ckwargs, out):
        points = len(np.atleast_2d(cargs[0]))
        tr_.counts["helmholtz.synth_calls"] += 1
        tr_.counts["helmholtz.synth_points"] += points
        tr_.counts["helmholtz.synth_terms"] += points * _synth_nodes(closure)

    return tr.wrap(closure, "helmholtz.synth", counted)


def _count_mass_nodes(tr, args, kwargs):
    """Hand truncated_weighted_mass an integrand that counts its nodes."""
    u = args[0]

    def counted_u(points):
        tr.counts["grid.mass_nodes"] += len(points)
        return u(points)

    return (counted_u,) + tuple(args[1:]), kwargs


def _phi_hat_counts(tr, args, kwargs, result):
    tr.counts["radon.phi_hat_calls"] += 1
    tr.counts["radon.phi_hat_evals"] += np.size(args[1])


@dataclass(frozen=True)
class Target:
    """A public name to wrap: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str
    hook: object = None
    pre: object = None  # rewrites (args, kwargs) before the call


TARGETS = (
    Target("cli", "run_experiment", "cli.run_experiment", _count("cli.calls")),
    Target("cli", "emit_report", "cli.emit_report", _report_bytes),
    Target("hamflow", "flow_trajectory", "hamflow.flow_trajectory", _flow_counts),
    Target("hamflow", "char_value", "hamflow.char_value", _count("hamflow.char_value_calls")),
    Target("hamflow", "find_radial_points", "hamflow.find_radial_points",
           _count("hamflow.radial_points", lambda a, k, r: len(r.points))),
    Target("hamflow", "classify_radial", "hamflow.classify_radial"),
    Target("hamflow", "threshold_data", "hamflow.threshold_data"),
    Target("helmholtz", "eigenfunction_evaluator", "helmholtz.eigenfunction_evaluator", _wrap_synth),
    Target("helmholtz", "radial_derivative_evaluator", "helmholtz.radial_derivative_evaluator",
           _wrap_synth),
    Target("helmholtz", "threshold_scan", "helmholtz.threshold_scan"),
    Target("helmholtz", "error_slope", "helmholtz.error_slope"),
    Target("helmholtz", "boundary_pairing_check", "helmholtz.boundary_pairing"),
    Target("helmholtz", "stationary_phase_leading", "helmholtz.stationary_phase"),
    # bound into helmholtz at import: every scatcalc binding is patched
    Target("grid", "truncated_weighted_mass", "grid.mass", _count("grid.mass_calls"),
           _count_mass_nodes),
    Target("grid", "sobolev_norm", "grid.sobolev"),
    Target("grid", "var_sobolev_norm", "grid.sobolev"),
    Target("symbols", "quantize", "symbols.quantize", _quantize_counts),
    Target("symbols", "symbol_from_kernel", "symbols.symbol_from_kernel"),
    Target("symbols", "conormal_seminorm", "symbols.conormal_seminorm"),
    Target("commutants", "build_propagation_commutant", "commutants.build"),
    Target("commutants", "radial_commutant_check", "commutants.radial_check"),
    Target("commutants", "model_inequality_margins", "commutants.model_margins"),
    Target("scatter1d", "solve_scatter", "scatter1d.solve", _count("scatter1d.solves")),
    Target("radon", "LocalizerProfile.phi_hat", "radon.phi_hat", _phi_hat_counts),
    # scipy's svdvals as bound into radon only (symbols binds it too)
    Target("radon", "svdvals", "radon.probe_svd"),
    Target("radon", "injectivity_probe", "radon.probe",
           _count("radon.probe_dof", lambda a, k, r: r["dof"])),
    Target("radon", "cone_ellipticity_check", "radon.cone_check"),
    Target("radon", "normal_kernel_symbol", "radon.normal_symbol"),
    Target("radon", "normal_symbol_hankel", "radon.normal_symbol"),
    Target("radon", "pairing_gap", "radon.pairing_gap"),
)

MODULES = ("cli", "grid", "symbols", "hamflow", "commutants", "helmholtz", "scatter1d", "radon")


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Patch every target; return the targets whose name no longer exists."""
    mods = {m: importlib.import_module(f"scatcalc.{m}") for m in MODULES}
    missing = []
    for t in targets:
        owner = mods[t.module]
        *outer, attr = t.attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{t.module}.{t.attr}")
            continue
        fn = original
        if t.pre is not None:
            def fn(*args, _orig=original, _pre=t.pre, **kwargs):
                args, kwargs = _pre(tracer, args, kwargs)
                return _orig(*args, **kwargs)

        wrapper = tracer.wrap(fn, t.span, t.hook)
        setattr(owner, attr, wrapper)
        if outer or not getattr(original, "__module__", "").startswith("scatcalc."):
            continue
        for mod in mods.values():  # names bound with ``from .x import name``
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the end-to-end metric it should move and where."""

    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple
    required: bool = True  # the coverage check wants it nonzero on `workloads`


def _m(name, unit, moves, workloads, better=None, required=True):
    if better is None:
        better = "higher" if unit == "1/s" else "lower"
    return LayerMetric(name, unit, better, moves, workloads, required)


C = ("calculus",)
LAYER_METRICS = (
    _m("cli.run_experiment_s", "s", "wall_s", ALL),
    _m("cli.calls", "count", "wall_s", ALL),
    _m("cli.emit_report_s", "s", "wall_s", C),
    _m("cli.report_bytes", "B", "wall_s", C),
    _m("hamflow.flow_trajectory_s", "s", "wall_s", ("flow",)),
    _m("hamflow.rk4_steps", "count", "wall_s", ("flow",)),
    _m("hamflow.rk4_steps_per_s", "1/s", "wall_s", ("flow",)),
    _m("hamflow.char_value_s", "s", "wall_s", ("flow",)),
    _m("hamflow.char_value_calls", "count", "wall_s", ("flow",)),
    # should not move under a faster engine; zero is a valid count
    _m("hamflow.chart_switches", "count", "wall_s", ("flow",), required=False),
    _m("hamflow.find_radial_points_s", "s", "wall_s", C),
    _m("hamflow.classify_radial_s", "s", "wall_s", C),
    _m("hamflow.threshold_data_s", "s", "wall_s", C),
    _m("hamflow.radial_points", "count", "wall_s", C),
    _m("helmholtz.synth_s", "s", "wall_s,peak_rss_mb", ("threshold", "calculus")),
    _m("helmholtz.synth_calls", "count", "wall_s,peak_rss_mb", ("threshold", "calculus")),
    _m("helmholtz.synth_points", "count", "wall_s,peak_rss_mb", ("threshold", "calculus")),
    _m("helmholtz.synth_terms", "count", "wall_s,peak_rss_mb", ("threshold", "calculus")),
    _m("helmholtz.threshold_scan_s", "s", "wall_s", ("threshold",)),
    _m("helmholtz.error_slope_s", "s", "wall_s", C),
    _m("helmholtz.boundary_pairing_s", "s", "wall_s", C),
    _m("helmholtz.stationary_phase_s", "s", "wall_s", C),
    _m("grid.mass_s", "s", "wall_s", ("threshold",)),
    _m("grid.mass_calls", "count", "wall_s", ("threshold",)),
    _m("grid.mass_nodes", "count", "wall_s", ("threshold",)),
    _m("grid.mass_evals_per_call", "share", "wall_s", ("threshold",)),
    _m("grid.sobolev_s", "s", "wall_s", C),
    _m("symbols.quantize_s", "s", "wall_s", C),
    _m("symbols.quantize_calls", "count", "wall_s", C),
    _m("symbols.quantize_entries", "count", "wall_s", C),
    *(_m(f"symbols.parametrix_rung_s.N{k}", "s", "wall_s", C) for k in range(4)),
    _m("symbols.symbol_from_kernel_s", "s", "wall_s", C),
    _m("symbols.conormal_seminorm_s", "s", "wall_s", C),
    _m("commutants.build_s", "s", "wall_s", C),
    _m("commutants.radial_check_s", "s", "wall_s", C),
    _m("commutants.model_margins_s", "s", "wall_s", C),
    _m("scatter1d.solve_s", "s", "wall_s", C),
    _m("scatter1d.solves", "count", "wall_s", C),
    _m("radon.phi_hat_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.phi_hat_calls", "count", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.phi_hat_evals", "count", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.probe_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.probe_svd_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.probe_dof", "count", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.cone_check_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.normal_symbol_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    _m("radon.pairing_gap_s", "s", "wall_s,peak_rss_mb", ("radon",)),
    # the traced pass itself: how much of its wall time the layers explain
    _m("trace.wall_s", "s", "wall_s", ALL),
    _m("trace.accounted_share", "share", "wall_s", ALL, better="higher"),
    _m("trace.unaccounted_s", "s", "wall_s", ALL),
    _m("trace.overhead_s", "s", "wall_s", ALL, required=False),
)

#: counts that are derived from the program's inputs, not observed at a call
COMPUTED = ("helmholtz.synth_terms",)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` (needs an untraced
    pass), from the spans and counts of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    self_s = defaultdict(float)
    for s, t in zip(spans, own):
        self_s[s.name] += t
    out = {}
    for m in LAYER_METRICS:
        if m.name.endswith("_s") and m.name.count(".") == 1:
            out[m.name] = self_s.get(m.name[:-2], 0.0)
    out.update({k: v for k, v in tracer.counts.items() if k in {m.name for m in LAYER_METRICS}})
    for k in range(4):
        out[f"symbols.parametrix_rung_s.N{k}"] = sum(
            s.end - s.start for s in spans
            if s.name == "parametrix_rung" and s.attrs and s.attrs.get("N") == k
        )
    flow_s = self_s.get("hamflow.flow_trajectory", 0.0)
    out["hamflow.rk4_steps_per_s"] = tracer.counts["hamflow.rk4_steps"] / flow_s if flow_s else 0.0
    mass_calls = tracer.counts["grid.mass_calls"]
    under_mass = sum(1 for s in spans if s.name == "helmholtz.synth" and _under(spans, s, "grid.mass"))
    out["grid.mass_evals_per_call"] = under_mass / mass_calls if mass_calls else 0.0
    layer_s = sum(t for s, t in zip(spans, own) if "." in s.name)
    out["trace.wall_s"] = wall_s
    out["trace.unaccounted_s"] = wall_s - layer_s
    out["trace.accounted_share"] = layer_s / wall_s if wall_s else 0.0
    return {m.name: float(out.get(m.name, 0.0)) for m in LAYER_METRICS if m.name != "trace.overhead_s"}


def _under(spans, span, name) -> bool:
    p = span.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def coverage_problems(workload: str, metrics: dict, missing: list) -> list[str]:
    """Why the trace cannot be trusted to cover its layers (empty if it can)."""
    problems = [f"wrapped name no longer exists: {name}" for name in missing]
    for m in LAYER_METRICS:
        if m.required and workload in m.workloads and not metrics.get(m.name):
            problems.append(f"per-layer metric {m.name} is empty on workload {workload}")
    return problems
