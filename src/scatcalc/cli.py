"""Reproducible experiment driver.

    scatcalc <experiment> --config <file> [--out <dir>] [--seed <int>]
             [--format json|csv]

Experiments: flow, radial, quantize-check, commutant, helmholtz, threshold,
pairing, scatter1d, radon, var-order.  Configs are strict JSON objects (all
violations are reported at once, unknown keys get a nearest-name suggestion,
NaN and infinities are refused, and every list key has a range check);
reports are byte-stable for a fixed (config, seed): floats are serialized
with 17 significant digits and wall time stays out of the report files.

Each experiment is one entry of the table ``_EXPERIMENTS``: its runner (the
only definition of its metrics and criteria; the acceptance tests call it
through ``run_experiment``) and its config schema.  ``load_config``,
``run_experiment`` and ``main`` all read that table.

Exit codes: 0 all criteria pass, 1 criterion failure, 2 config error or an
input the library refuses (``grid.InputRefusal``), 3 I/O error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import MAX_DIRECTIONS, QUANTIZE_MAX_N, GridBudgetError, InputRefusal

__all__ = ["ExperimentConfig", "RunReport", "load_config", "run_experiment", "emit_report", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    values: dict
    seed: int
    output_dir: str


@dataclass
class RunReport:
    experiment: str
    parameters: dict
    metrics: dict
    criteria: dict
    tables: dict = dc_field(default_factory=dict)
    wall_time_s: float = 0.0  # not serialized: reports must be byte-stable

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.criteria.values())


def _positive(x):
    return x > 0


def _even(x):
    return x % 2 == 0 and x >= 8


def _numbers(least: int, check):
    """Range check of a list key: at least ``least`` numbers, each passing ``check``."""
    return lambda v: len(v) >= least and all(type(x) in (int, float) and check(x) for x in v)


_COMMON = {
    "seed": (int, 0, lambda v: v >= 0),
    "output_dir": (str, ".", None),
}


def load_config(path, experiment: str) -> ExperimentConfig:
    """Parse and validate a JSON config against the experiment's schema.

    All violations are collected and reported together; unknown keys carry a
    closest-match suggestion.
    """
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {sorted(_EXPERIMENTS)}")
    try:
        body = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(body, dict):
        raise ConfigError("config body must be a JSON object")
    schema = {**_COMMON, **_EXPERIMENTS[experiment][1]}
    problems = []
    values = {}
    for key, spec_val in body.items():
        if key not in schema:
            hint = difflib.get_close_matches(key, schema.keys(), n=1)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            problems.append(f"unknown key {key!r}{extra}")
            continue
        typ, _, check = schema[key]
        val = spec_val
        try:
            json.dumps(val, allow_nan=False)  # json reads NaN and Infinity; refuse them
        except ValueError:
            problems.append(f"key {key!r} must be finite (got {val!r})")
            continue
        if typ is float and type(val) is int:
            val = float(val)
        if type(val) is not typ:  # not isinstance: a JSON boolean is an int
            problems.append(f"key {key!r} must have type {typ.__name__}")
            continue
        if check is not None and not check(val):
            problems.append(f"key {key!r} fails its range check (got {val!r})")
            continue
        values[key] = val
    for key, (typ, default, _) in schema.items():
        values.setdefault(key, default)
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    return ExperimentConfig(
        experiment=experiment,
        values={k: v for k, v in values.items() if k not in _COMMON},
        seed=values["seed"],
        output_dir=values["output_dir"],
    )


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _flow_starts(H, count: int, seed: int) -> list:
    """The ``flow`` starts: null spatial-face points at random xi on the sphere
    |xi| = lambda and random directions, each in its dominant-axis chart."""
    from .hamflow import PhasePointChart

    lam, n = H.params["lambda"], H.dim
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        xi = rng.standard_normal(n)
        xi *= lam / np.linalg.norm(xi)
        xdir = rng.standard_normal(n)
        xdir /= np.linalg.norm(xdir)
        j = int(np.argmax(np.abs(xdir)))
        others = [m for m in range(n) if m != j]
        starts.append(PhasePointChart(
            "spatial_face",
            {"rho": 0.0, "y": xdir[others] / xdir[j], "xi": xi},
            axis=j,
            sign=int(np.sign(xdir[j])),
        ))
    return starts


def _run_flow(v, seed):
    from .hamflow import flow_batch, flow_trajectory, helmholtz_model
    from .hamflow import helmholtz_radial_distance, trajectory_rows

    H = helmholtz_model(v["lambda"], v["dim"])
    starts = _flow_starts(H, v["trajectories"], seed)
    batch = flow_batch(H, starts, v["time"], v["dt"])
    dists = [helmholtz_radial_distance(H, batch.point(-1, b)) for b in range(len(starts))]
    rho_max = float(np.max(np.abs(batch.states[:, :, 0])))
    char_max = float(np.max(np.abs(batch.char_values())))
    # trajectory 0's rows come through flow_trajectory: perfbench's traced flow
    # run counts RK4 steps in that call, and its coverage check fails without it
    path = flow_trajectory(H, starts[0], v["time"], v["dt"])
    first_rows = trajectory_rows(H, path[:: max(1, len(path) // 200)])
    metrics = {
        "max_final_distance_to_out": float(max(dists)),
        "max_rho_on_boundary_paths": rho_max,
        "max_char_drift": char_max,
    }
    criteria = {
        "all_trajectories_reach_sink": max(dists) < 1e-3,
        "boundary_invariance": rho_max < 1e-9,
        "char_conservation": char_max < 1e-6,
    }
    return metrics, criteria, {"trajectory": first_rows}


#: ``radial`` models: name -> Hamiltonian from (hamflow module, config values)
_RADIAL_MODELS = {
    "helmholtz": lambda hf, v: hf.helmholtz_model(v["lambda"], v["dim"]),
    "klein_gordon": lambda hf, v: hf.klein_gordon_model(),
    "wave": lambda hf, v: hf.wave_model(),
    "x_dx": lambda hf, v: hf.x_dx_model(),
    "d_x1": lambda hf, v: hf.d_x1_model(v["dim"]),
}


def _run_radial(v, seed):
    from . import hamflow as hf

    name = v["model"]
    if name == "helmholtz" and v["dim"] == 1:
        # no transverse slot besides rho: threshold data is undefined
        raise ConfigError("helmholtz radial needs dim 2 or 3")
    H = _RADIAL_MODELS[name](hf, v)
    if H.dim != v["dim"]:
        raise ConfigError(f"{name} radial has dim {H.dim}, not {v['dim']}")
    rep = hf.find_radial_points(H, resolution=v["resolution"])
    rows = [
        {
            "family": p.family,
            "verdict": p.verdict,
            "tau": p.tau if p.tau is not None else float("nan"),
            "mu": p.mu if p.mu is not None else float("nan"),
            "max_re_eig": float(np.max(p.eigenvalues.real)),
            "min_re_eig": float(np.min(p.eigenvalues.real)),
        }
        for p in rep.points
    ]
    metrics = {"n_points": len(rep.points)}
    criteria = {"nonempty": len(rep.points) > 0}
    if name == "helmholtz":
        lam = v["lambda"]
        tau_dev = max(abs(abs(p.tau) - lam) for p in rep.points)
        mu_max = max(abs(p.mu) for p in rep.points)
        ratio_err = max(
            abs(b1 / b0 - 2.0) for b0, b1, _ in (hf.threshold_data(H, p.point) for p in rep.points)
        )
        metrics.update(
            {
                "tau_deviation": float(tau_dev),
                "mu_max": float(mu_max),
                "beta_ratio_err": float(ratio_err),
                "threshold_order": -0.5,
            }
        )
        criteria.update(
            {
                "tau_on_sphere": tau_dev < 1e-8,
                "mu_vanishes": mu_max < 1e-8,
                "in_source_out_sink": all(
                    (p.family == "in") == (p.verdict == "source")
                    and (p.family == "out") == (p.verdict == "sink")
                    for p in rep.points
                ),
                "beta_ratio_two": ratio_err < 1e-6,
            }
        )
    if name == "wave":
        pt = hf.PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 0.0, "xi": 0.0}, sign=1)
        verdict, _ = hf.classify_radial(H, pt)
        metrics["zero_section_verdict"] = verdict
        criteria["degenerate_gate"] = verdict == "degenerate"
    return metrics, criteria, {"radial_points": rows}


def _run_quantize(v, seed):
    from .grid import field_from_function, make_grid
    from .symbols import compose_expansion, quantize, sym1d, symbol_from_kernel

    spec = make_grid(1, v["L"], v["N"])
    one = sym1d(lambda x, xi: np.ones_like(x + xi), (0, 0), depends_on_x=False, depends_on_xi=False)
    id_err = float(np.max(np.abs(quantize(one, spec).as_l2_matrix() - np.eye(spec.size))))
    s_xi = sym1d(lambda x, xi: xi + 0 * x, (1, 0), depends_on_x=False)
    s_x = sym1d(lambda x, xi: x + 0 * xi, (0, 1), depends_on_xi=False)
    comp = compose_expansion(s_xi, s_x, 2)
    prod = quantize(s_xi, spec).compose(quantize(s_x, spec))
    target = quantize(comp, spec)
    diff = prod.as_l2_matrix() - target.as_l2_matrix()
    rng = np.random.default_rng(seed)
    resid = 0.0
    for _ in range(5):
        shift = rng.uniform(-2, 2)
        u = field_from_function(spec, lambda x: np.exp(-((x - shift) ** 2) / 6.0))
        resid = max(resid, float(np.linalg.norm(diff @ u.values) / np.linalg.norm(u.values)))
    a = sym1d(lambda x, xi: np.exp(-(x**2) / 2 - xi**2 / 2), (0, 0))
    tab = symbol_from_kernel(quantize(a, spec), spec)
    xs = spec.axis()
    interior = np.abs(xs) <= v["L"] / 2
    vals = tab.value_table().reshape(spec.size, spec.size)
    X, XI = np.meshgrid(xs, spec.freq_axis(), indexing="ij")
    rt_err = float(np.max(np.abs(vals - np.exp(-(X**2) / 2 - XI**2 / 2))[interior]))
    metrics = {"op1_identity_err": id_err, "moyal_terminating_resid": resid, "kernel_roundtrip_err": rt_err}
    criteria = {
        "op1_is_identity": id_err < 1e-10,
        "xi_x_composition": resid < 1e-9,
        "kernel_roundtrip": rt_err < 1e-8,
    }
    return metrics, criteria, {}


def _run_commutant(v, seed):
    from .commutants import (
        ThresholdOrderError,
        build_propagation_commutant,
        model_inequality_margins,
        radial_commutant_check,
    )
    from .grid import make_grid

    cb = build_propagation_commutant(v["s0"], v["eps"], digamma=v["digamma"])
    below = radial_commutant_check(v["lambda"], v["r_below"], v["delta"])
    above = radial_commutant_check(v["lambda"], v["r_above"], v["delta"])
    try:
        radial_commutant_check(v["lambda"], -0.5, v["delta"])
        threshold_rejected = False
    except ThresholdOrderError:
        threshold_rejected = True
    spec = make_grid(1, v["L"], v["N"])
    pairs = model_inequality_margins(spec, n_fields=v["fields"], seed=seed)
    min_margin = min(r - l for l, r in pairs)
    metrics = {
        "flowbox_residual": cb.residual_sup,
        "radial_residual_below": below.residual_sup,
        "radial_residual_above": above.residual_sup,
        "model_inequality_min_margin": float(min_margin),
    }
    criteria = {
        "flowbox_identity": cb.residual_sup < 1e-8,
        "eprime_in_turn_on": cb.eprime_support_ok,
        "radial_identity_below": below.residual_sup < 1e-8,
        "radial_identity_above": above.residual_sup < 1e-8,
        "threshold_order_rejected": threshold_rejected,
        "model_inequality": min_margin > -1e-8,
    }
    return metrics, criteria, {}


def _run_helmholtz(v, seed):
    from .helmholtz import (
        eigenfunction_evaluator,
        error_slope,
        sphere_density,
        stationary_phase_leading,
    )

    if not v["r_max"] > v["r_min"]:  # a slope needs two abscissae
        raise ConfigError(f"key 'r_max' must exceed r_min (got {v['r_max']!r} <= {v['r_min']!r})")
    radii = np.geomspace(v["r_min"], v["r_max"], v["n_radii"])
    metrics, criteria, rows = {}, {}, []
    for n in v["dims"]:
        if n == 2:
            f = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
        else:
            f = sphere_density(3, lambda th: 1.0 + 0.4 * th[:, 2] + 0.2 * th[:, 0])
        slope = error_slope(f, v["lambda"], radii)
        target = -(n + 1) / 2.0
        metrics[f"slope_n{n}"] = float(slope)
        criteria[f"stationary_phase_n{n}"] = abs(slope - target) < 0.2
        u = eigenfunction_evaluator(f, v["lambda"])
        direction = np.zeros(n)
        direction[0] = 1.0
        for r in radii:
            pt = (r * direction)[None, :]
            uv = complex(u(pt)[0])
            lv = complex(stationary_phase_leading(f, v["lambda"], pt)[0])
            rows.append(
                {"n": n, "radius": float(r), "abs_u": abs(uv), "abs_leading": abs(lv),
                 "error": abs(uv - lv)}
            )
    return metrics, criteria, {"ladder": rows}


def _run_threshold(v, seed):
    from .grid import QuadratureError, truncated_weighted_mass
    from .helmholtz import eigenfunction_evaluator, sphere_density, threshold_scan

    lam, orders, radii = v["lambda"], v["orders"], v["radii"]
    f = sphere_density(2, lambda th: 1.0 + 0.45 * th[:, 0] + 0.2j * th[:, 1])
    table = threshold_scan(f, lam, orders, radii)
    # the Parseval masses at the first radius against dense plane-wave
    # synthesis (48 angles are exact here: |u|^2 has degree 2 on each shell)
    dense = truncated_weighted_mass(
        eigenfunction_evaluator(f, lam), orders, radii[:1], n=2, lam=lam
    )[0]
    for r, ref in zip(orders, dense):
        mass = table[float(r)]["masses"][0]
        if abs(mass - ref) > 1e-10 * abs(ref):
            raise QuadratureError(
                f"order {r}: coefficient mass {mass!r} vs synthesized {ref!r} at R = {radii[0]}"
            )
    rows, metrics, criteria = [], {}, {}
    for r, entry in table.items():
        row = {"order": r, "kind": entry["kind"]}
        if entry["kind"] == "power":
            row["exponent"] = entry["exponent"]
            metrics[f"exponent_r{r}"] = entry["exponent"]
            criteria[f"growth_r{r}"] = abs(entry["exponent"] - (2 * r + 1)) < 0.05
        elif entry["kind"] == "log":
            row["log_r2"] = entry["log_r2"]
            metrics["log_fit_r2"] = entry["log_r2"]
            criteria["log_at_threshold"] = entry["log_r2"] > 0.99
        else:
            row["ratio"] = entry["ratio"]
            row["ratio_radii"] = entry["ratio_radii"]
            metrics[f"bounded_ratio_r{r}"] = entry["ratio"]
            criteria[f"bounded_r{r}"] = entry["ratio"] < 1.05
        rows.append(row)
    return metrics, criteria, {"threshold": rows}


def _run_pairing(v, seed):
    from .helmholtz import (
        _pairing_degree,
        boundary_pairing_check,
        build_poisson_series,
        profile_pairing,
        solution_from_density,
        solution_from_series,
        sphere_density,
    )

    lam = v["lambda"]
    f1 = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
    ser = build_poisson_series({0: 1.0, 1: 0.4, -1: 0.15j}, 0, lam, 2)
    sol2 = solution_from_series(ser)
    _pairing_degree(f1.n, lam, max(v["radii"]))  # the whole ladder, before any synthesis
    gaps = []
    for R in v["radii"]:
        # one solution per radius: each check builds only its own radius's rule
        _, _, gap = boundary_pairing_check(solution_from_density(f1, lam), sol2, float(R))
        gaps.append(gap)
    sol1 = solution_from_density(f1, lam)
    rhs_self = abs(profile_pairing(sol1, sol1))
    metrics = {"final_gap": gaps[-1], "self_pairing_rhs": rhs_self}
    criteria = {
        "gap_below_10pct": gaps[-1] < 0.10,
        "gap_decreasing": all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)),
        "self_pairing_zero": rhs_self < 1e-6,
    }
    rows = [{"R": float(R), "gap": g} for R, g in zip(v["radii"], gaps)]
    return metrics, criteria, {"pairing": rows}


#: ``scatter1d`` potentials: name -> potential from (scatter1d module, config values)
_POTENTIALS = {
    "free": lambda sc, v: sc.free_potential(),
    "square_barrier": lambda sc, v: sc.square_barrier(v["height"], v["width"]),
    "gaussian_bump": lambda sc, v: sc.gaussian_bump(v["height"], v["width"]),
    "compact_bump": lambda sc, v: sc.compact_bump(v["height"], v["width"]),
}


def _run_scatter1d(v, seed):
    from . import scatter1d as sc

    name = v["potential"]
    V = _POTENTIALS[name](sc, v)
    rows, defects, drifts, oracle_err = [], [], [], 0.0
    for lam in v["lambdas"]:
        sol = sc.solve_scatter(V, float(lam))
        c = sol.coeffs
        defects.append(c.unitarity_defect)
        drifts.append(sc.wronskian_drift(sol))
        if name == "square_barrier":
            o = sc.square_barrier_coeffs(v["height"], v["width"], float(lam))
            oracle_err = max(oracle_err, abs(c.r - o.r) + abs(c.t - o.t))
        rows.append(
            {
                "lambda": float(lam),
                "re_r": c.r.real,
                "im_r": c.r.imag,
                "re_t": c.t.real,
                "im_t": c.t.imag,
                "defect": c.unitarity_defect,
            }
        )
    metrics = {
        "max_unitarity_defect": float(max(defects)),
        "max_wronskian_drift": float(max(drifts)),
    }
    criteria = {
        "unitarity": max(defects) < 1e-6,
        "wronskian_conserved": max(drifts) < 1e-8,
    }
    if name == "square_barrier":
        metrics["barrier_oracle_err"] = float(oracle_err)
        criteria["matches_closed_form"] = oracle_err < 1e-6
    return metrics, criteria, {"coefficients": rows}


def _run_radon(v, seed):
    from .radon import (
        ConeCutoff,
        cone_ellipticity_check,
        default_cone,
        default_profile,
        injectivity_probe,
        normal_kernel_symbol,
        pairing_gap,
    )

    if v["directions"] > MAX_DIRECTIONS:
        raise GridBudgetError(f"radon directions {v['directions']} exceed budget {MAX_DIRECTIONS}")
    if v["dim"] == 3 and v["grid_points"] > 16:
        # the probe's two dense SVDs, of half the ball each, grow like grid_points^9:
        # 1,736 unknowns at 16 (two blocks of 868), 6,272 at 24 (two of 3,136)
        raise ConfigError(f"radon dim 3 needs grid_points <= 16 (got {v['grid_points']})")
    phi = default_profile()
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.2, 0.2, size=2)

    # np.einsum adds the two squares as np.sum does, without its slow reduction
    def f(p):
        d = p - shift
        return np.exp(-np.einsum("...i,...i->...", d, d))

    def vfun(p, k):
        return np.exp(-0.8 * np.einsum("...i,...i->...", p, p)) * (1.0 + 0.01 * k)

    adj_gap = pairing_gap(f, vfun, phi, 2)
    qs = np.geomspace(0.1, 100.0, 21)
    tab = normal_kernel_symbol(2, phi, qs)
    top = tab["scaled"][qs >= 10.0]
    plateau_var = float((top.max() - top.min()) / top.mean())
    cone3 = cone_ellipticity_check(3, default_cone(v["cone_width"]), phi)
    full2 = cone_ellipticity_check(
        2, ConeCutoff(lambda w: np.ones_like(np.asarray(w, dtype=float))), phi
    )
    narrow2 = cone_ellipticity_check(2, default_cone(v["cone_width"]), phi)
    probe = injectivity_probe(v["dim"], grid_points=v["grid_points"], n_dirs=v["directions"])
    metrics = {
        "adjointness_gap": float(adj_gap),
        "plateau_variation": plateau_var,
        "cone3_floor": float(min(cone3["scaled_floor"])),
        "cone2_collapse_ratio": float(narrow2["scaled_floor"][-1] / full2["scaled_floor"][-1]),
        "sigma_min": probe["sigma_min"],
        "reconstruction_error": probe["reconstruction_error"],
    }
    criteria = {
        "adjointness": adj_gap < 1e-6,
        "symbol_positive": bool(np.min(tab["symbol"]) > 0),
        "plateau": plateau_var < 0.05,
        "cone_floor_positive_3d": min(cone3["scaled_floor"]) > 0,
        "cone_collapse_2d": narrow2["scaled_floor"][-1] < 1e-3 * full2["scaled_floor"][-1],
        "injective": probe["sigma_min"] > 0,
        "reconstruction": probe["reconstruction_error"] < 1e-3,
    }
    rows = [
        {"xi": float(q), "symbol": float(s), "scaled": float(sc)}
        for q, s, sc in zip(tab["xi"], tab["symbol"], tab["scaled"])
    ]
    # plain grid dump of the reconstruction demo
    grid_rows = [
        {**{f"x{j}": float(x) for j, x in enumerate(pt)},
         "f0": float(f), "reconstruction": float(r)}
        for pt, f, r in zip(probe["points"], probe["f0"], probe["reconstruction"])
    ]
    return metrics, criteria, {"symbol": rows, "reconstruction": grid_rows}


def _run_var_order(v, seed):
    from .grid import GridField, SobolevOrder, make_grid, sobolev_norm, var_sobolev_norm
    from .symbols import conormal_seminorm, sym1d

    amp = 1.0 / 16.0

    def ell(x, xi):
        return -amp * (1.0 + xi / np.sqrt(1.0 + xi**2))

    a = sym1d(lambda x, xi: (1.0 + x**2) ** (0.5 * ell(x, xi)), (0.0, 0.0))
    rep = conormal_seminorm(a, 1)
    spec = make_grid(1, v["L"], v["N"])
    xs = spec.axis()
    u = GridField(spec, np.exp(-((xs - 1.0) ** 2) / 2.0) * (1.0 + 0.2j))
    rc = v["r_const"]
    const_var = SobolevOrder(s=v["s"], r=lambda x, xi: rc + 0.0 * x * xi)
    nvar = var_sobolev_norm(u, const_var)
    nfix = sobolev_norm(u, SobolevOrder(s=v["s"], r=rc))
    rel = abs(nvar - nfix) / nfix
    metrics = {
        "log_loss_growth_ratio": rep.growth_ratio,
        "const_order_rel_err": float(rel),
    }
    criteria = {"log_loss_flagged": rep.flagged, "const_order_consistency": rel < 1e-6}
    return metrics, criteria, {}


#: One entry per experiment: (runner, config schema).  A runner maps the
#: validated values and the seed to (metrics, criteria, tables); a schema maps
#: each key to (type, default, range check or None).
_EXPERIMENTS = {
    "flow": (_run_flow, {
        "lambda": (float, 1.0, _positive),
        "dim": (int, 2, lambda v: v in (2, 3)),
        "trajectories": (int, 50, _positive),
        "time": (float, 20.0, _positive),
        "dt": (float, 0.01, lambda v: 0 < v <= 0.01),
    }),
    "radial": (_run_radial, {
        "model": (str, "helmholtz", lambda v: v in _RADIAL_MODELS),
        "lambda": (float, 1.0, _positive),
        "dim": (int, 2, lambda v: v in (1, 2, 3)),
        "resolution": (int, 8, _positive),
    }),
    "quantize-check": (_run_quantize, {
        "L": (float, 20.0, _positive),
        "N": (int, 128, lambda v: _even(v) and v <= QUANTIZE_MAX_N),
    }),
    "commutant": (_run_commutant, {
        "s0": (float, 1.0, _positive),
        "eps": (float, 0.25, _positive),
        "digamma": (float, 10.0, _positive),
        "lambda": (float, 1.0, _positive),
        "r_below": (float, -1.0, lambda v: v < -0.5),
        "r_above": (float, 0.0, lambda v: v > -0.5),
        "delta": (float, 0.05, _positive),
        "L": (float, 6.0, _positive),
        "N": (int, 64, _even),
        "fields": (int, 20, _positive),
    }),
    "helmholtz": (_run_helmholtz, {
        "lambda": (float, 1.0, _positive),
        "dims": (list, [2, 3], _numbers(1, lambda n: type(n) is int and n in (2, 3))),
        "r_min": (float, 20.0, _positive),
        "r_max": (float, 200.0, _positive),
        "n_radii": (int, 16, lambda v: v >= 2),  # a slope needs two radii
    }),
    "threshold": (_run_threshold, {
        "lambda": (float, 1.0, _positive),
        "orders": (list, [-0.75, -0.5, 0.0], _numbers(1, lambda r: True)),
        # strictly increasing: a flat or reversed ladder passes or fails by chance
        "radii": (list, [50.0, 100.0, 200.0, 400.0],
                  lambda v: _numbers(2, lambda r: r >= 1)(v) and v == sorted(set(v))),
    }),
    "pairing": (_run_pairing, {
        "lambda": (float, 1.0, _positive),
        # a reversed ladder is legal: it fails gap_decreasing
        "radii": (list, [100.0, 200.0, 400.0], _numbers(2, _positive)),
    }),
    "scatter1d": (_run_scatter1d, {
        "potential": (str, "free", lambda v: v in _POTENTIALS),
        "height": (float, 2.0, None),
        "width": (float, 1.0, _positive),
        "lambdas": (list, [0.5, 0.8, 1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9, 3.2], _numbers(1, _positive)),
    }),
    "radon": (_run_radon, {
        "dim": (int, 2, lambda v: v in (2, 3)),
        "grid_points": (int, 24, lambda v: 4 <= v <= 24),
        "directions": (int, 64, _positive),
        "cone_width": (float, 0.3, _positive),
    }),
    "var-order": (_run_var_order, {
        "L": (float, 12.0, _positive),
        "N": (int, 96, lambda v: _even(v) and v <= QUANTIZE_MAX_N),
        "s": (float, 0.0, None),
        "r_const": (float, -1.0, None),
    }),
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    t0 = time.perf_counter()
    metrics, criteria, tables = _EXPERIMENTS[cfg.experiment][0](cfg.values, cfg.seed)
    return RunReport(
        experiment=cfg.experiment,
        parameters={**cfg.values, "seed": cfg.seed},
        metrics=metrics,
        criteria=criteria,
        tables=tables,
        wall_time_s=time.perf_counter() - t0,
    )


def _json_scalar(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not np.isfinite(x):
            return '"%s"' % repr(float(x))
        return format(float(x), ".17g")
    if x is None:
        return "null"
    return json.dumps(str(x))


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(obj)


def emit_report(report: RunReport, out_dir, formats=("json",)) -> list:
    """Write report files; returns the paths.  Bytes depend only on content.

    Floats are rendered with 17 significant digits; wall time is deliberately
    excluded so identical (config, seed) runs produce identical bytes.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out}: {e}") from e
    payload = {
        "experiment": report.experiment,
        "parameters": report.parameters,
        "metrics": report.metrics,
        "criteria": report.criteria,
        "passed": report.passed,
    }
    paths = []
    if "json" in formats:
        p = out / f"{report.experiment}-report.json"
        p.write_text(_to_json(payload) + "\n")
        paths.append(p)
    if "csv" in formats:
        import csv

        for name, rows in report.tables.items():
            p = out / f"{report.experiment}-{name}.csv"
            if not rows:
                p.write_text("")
                paths.append(p)
                continue
            keys = sorted({k for row in rows for k in row})
            with open(p, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(keys)
                for row in rows:
                    writer.writerow(
                        [
                            format(float(row[k]), ".17g")
                            if isinstance(row.get(k), (float, np.floating))
                            else row.get(k, "")
                            for k in keys
                        ]
                    )
            paths.append(p)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatcalc", description="scattering-calculus experiment driver"
    )
    parser.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: config's)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--format", default="json", choices=["json", "csv", "json,csv", "csv,json"])
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.experiment)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative (got {args.seed})")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        report = run_experiment(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InputRefusal as e:  # the library refuses a value the schema lets through
        print(f"refused: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    try:
        paths = emit_report(report, cfg.output_dir, formats=tuple(args.format.split(",")))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    for name, ok in sorted(report.criteria.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {report.experiment}: {name}")
    where = paths[0] if paths else cfg.output_dir  # a run without tables writes no csv
    print(f"report: {where}  (wall {report.wall_time_s:.2f}s)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
