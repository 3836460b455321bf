"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v`; the per-criterion lines are
written straight to the terminal so they appear regardless of capture.

Criteria 1, 4-10, 13, 15 and 16 are the criteria of the `scatcalc` CLI
runners: each test loads its pinned config through `load_config` (the CLI's
schema validation) and takes its verdict and detail line from
`run_experiment`, so the runner is the only definition of those criteria and
their tolerances.  Checks no runner makes stay here as extra assertions.
Criteria 2, 3, 11, 12 and 14 have no runner and are pinned here.
"""

import json
import sys

import numpy as np
import pytest

from scatcalc.cli import load_config, run_experiment
from scatcalc.grid import make_grid
from scatcalc.symbols import (
    NotScEllipticError,
    compose_expansion,
    parametrix,
    poisson_bracket,
    quantize,
    sym1d,
)


#: collected one-line verdicts, emitted by the conftest terminal-summary hook
CRITERION_LINES: list = []


def announce(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run(tmp_path, experiment, body):
    """The CLI runner's report for a config body, validated as the CLI does."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return run_experiment(load_config(path, experiment))


def passed(report, *names):
    """True when the named runner criteria (all of them if none named) hold."""
    return all(bool(report.criteria[k]) for k in names or report.criteria)


def test_01_quantization_identity(tmp_path):
    rep = run(tmp_path, "quantize-check", {"L": 20.0, "N": 128})
    # extra: the composed symbol of xi # x itself is x xi - i
    s_xi = sym1d(lambda x, xi: xi + 0 * x, (1, 0), depends_on_x=False)
    s_x = sym1d(lambda x, xi: x + 0 * xi, (0, 1), depends_on_xi=False)
    comp = compose_expansion(s_xi, s_x, 2)
    xs = np.linspace(-5, 5, 11)
    xis = np.linspace(-4, 4, 11)
    sym_err = float(np.max(np.abs(comp(xs, xis) - (xs * xis - 1j))))
    m = rep.metrics
    announce(
        1,
        "quantization identity",
        passed(rep) and sym_err < 1e-9,
        f"Op(1) err {m['op1_identity_err']:.1e}, xi.x resid {m['moyal_terminating_resid']:.1e}",
    )


def test_02_commutator_vs_poisson_bracket():
    spec = make_grid(1, 30.0, 256)

    def pairs(s, sig):
        gx = lambda x, c=0.0: np.exp(-(((x - c) / s) ** 4))
        gxi = lambda xi: np.exp(-((xi / sig) ** 4))
        return [
            (
                sym1d(lambda x, xi: xi * gx(x) * gxi(xi), (1, 0)),
                sym1d(lambda x, xi: sig * gx(x) * gxi(xi), (1, 0)),
            ),
            (
                sym1d(lambda x, xi: xi * gx(x, 2.0) * gxi(xi), (1, 0)),
                sym1d(lambda x, xi: sig * gx(x) * gxi(xi), (1, 0)),
            ),
            (
                sym1d(lambda x, xi: (xi + 0.25 * sig) * gx(x) * gxi(xi), (1, 0)),
                sym1d(lambda x, xi: sig * (1 + 0.3 * x / s) * gx(x) * gxi(xi), (1, 0)),
            ),
        ]

    def ratio(a, b):
        A = quantize(a, spec).as_l2_matrix()
        B = quantize(b, spec).as_l2_matrix()
        comm = 1j * (A @ B - B @ A)
        pb = quantize(poisson_bracket(a, b), spec).as_l2_matrix()
        return np.linalg.norm(comm - pb, 2) / np.linalg.norm(pb, 2)

    base = [ratio(a, b) for a, b in pairs(5.5, 3.3)]
    doubled = [ratio(a, b) for a, b in pairs(11.0, 6.6)]
    ok = all(r <= 0.15 for r in base) and all(d < r for r, d in zip(base, doubled))
    announce(
        2,
        "commutator vs Poisson bracket",
        ok,
        "ratios " + ", ".join(f"{r:.3f}->{d:.3f}" for r, d in zip(base, doubled)),
    )


def test_03_parametrix_neumann_series():
    spec = make_grid(1, 20.0, 128)
    a = sym1d(lambda x, xi: xi**2 + 1.0 + 0 * x, (2, 0), depends_on_x=False)
    A = quantize(a, spec)
    I = np.eye(spec.size)
    resids = []
    for N in range(4):
        B = quantize(parametrix(a, N), spec)
        resids.append(float(np.linalg.norm(A.compose(B).as_l2_matrix() - I, 2)))
    monotone = all(resids[k + 1] < resids[k] for k in range(3))
    factors_ok = all(resids[k] / resids[k + 1] >= 2.0 - 1e-9 for k in range(3))
    try:
        parametrix(sym1d(lambda x, xi: xi**2 + 0 * x, (2, 0), depends_on_x=False), 1)
        rejected = False
    except NotScEllipticError:
        rejected = True
    ok = monotone and factors_ok and rejected
    announce(3, "parametrix Neumann series", ok, "residuals " + ", ".join(f"{r:.4f}" for r in resids))


COMMUTANT = {"seed": 2026, "s0": 1.0, "eps": 0.25, "digamma": 10.0, "lambda": 1.0,
             "r_below": -1.0, "r_above": 0.0, "delta": 0.05, "L": 6.0, "N": 64, "fields": 20}


def test_04_model_quantitative_estimate(tmp_path):
    rep = run(tmp_path, "commutant", COMMUTANT)
    announce(
        4,
        "model quantitative estimate (constant 36)",
        passed(rep, "model_inequality"),
        f"min margin {rep.metrics['model_inequality_min_margin']:.3f}",
    )


def test_05_commutant_identities(tmp_path):
    from scatcalc.commutants import radial_commutant_check

    rep = run(tmp_path, "commutant", COMMUTANT)
    # extra: the scaled b term stays positive near the radial set below threshold
    v = rep.parameters
    min_b = radial_commutant_check(v["lambda"], v["r_below"], v["delta"]).min_b_scaled
    ok = min_b > 0 and passed(
        rep,
        "flowbox_identity",
        "eprime_in_turn_on",
        "radial_identity_below",
        "radial_identity_above",
        "threshold_order_rejected",
    )
    m = rep.metrics
    announce(
        5,
        "commutant identities",
        ok,
        f"flow-box {m['flowbox_residual']:.1e}, "
        f"radial {m['radial_residual_below']:.1e}/{m['radial_residual_above']:.1e}",
    )


def test_06_helmholtz_dynamics(tmp_path):
    from scatcalc.hamflow import PhasePointChart, helmholtz_model, threshold_data

    radial = run(tmp_path, "radial", {"model": "helmholtz", "lambda": 1.0, "dim": 2, "resolution": 8})
    flow = run(
        tmp_path,
        "flow",
        {"seed": 20260810, "lambda": 1.0, "dim": 2, "trajectories": 50, "time": 20.0, "dt": 0.01},
    )
    # extra: beta ratio at one radial point seen in two overlapping charts
    H = helmholtz_model(1.0, 2)
    xi = np.array([0.8, 0.6])
    pt0 = PhasePointChart(
        "spatial_face", {"rho": 0.0, "y": np.array([0.75]), "xi": xi}, axis=0, sign=1
    )
    pt1 = PhasePointChart(
        "spatial_face", {"rho": 0.0, "y": np.array([1 / 0.75]), "xi": xi}, axis=1, sign=1
    )
    b0a, b1a, _ = threshold_data(H, pt0)
    b0b, b1b, _ = threshold_data(H, pt1)
    ratio_err = max(abs(b1a / b0a - 2.0), abs(b1b / b0b - 2.0))
    announce(
        6,
        "Helmholtz dynamics",
        passed(radial) and passed(flow) and ratio_err < 1e-6,
        f"tau dev {radial.metrics['tau_deviation']:.1e}, ratio err {ratio_err:.1e}, "
        f"worst dist {flow.metrics['max_final_distance_to_out']:.1e}",
    )


@pytest.mark.parametrize("verdict", ["sink", "saddle"])
def test_06_in_point_must_be_source(tmp_path, monkeypatch, verdict):
    # relabel one in-radial point: "sink" also breaks the out/sink pairing,
    # "saddle" breaks only the in/source one
    import dataclasses

    import scatcalc.hamflow as hf

    real = hf.find_radial_points

    def relabelled(H, **kwargs):
        rep = real(H, **kwargs)
        i = next(i for i, p in enumerate(rep.points) if p.family == "in")
        rep.points[i] = dataclasses.replace(rep.points[i], verdict=verdict)
        return rep

    monkeypatch.setattr(hf, "find_radial_points", relabelled)
    rep = run(tmp_path, "radial", {"model": "helmholtz"})
    assert rep.criteria["in_source_out_sink"] is False


def test_07_degeneracy_gate(tmp_path):
    from scatcalc.hamflow import PhasePointChart, ThresholdDegeneracyError, threshold_data, wave_model

    rep = run(tmp_path, "radial", {"model": "wave", "resolution": 8})
    # extra: threshold data refuse the degenerate zero-section point
    pt = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 0.0, "xi": 0.0}, sign=1)
    try:
        threshold_data(wave_model(), pt)
        refused = False
    except ThresholdDegeneracyError:
        refused = True
    ok = passed(rep) and refused
    announce(7, "wave-operator degeneracy gate", ok, f"verdict {rep.metrics['zero_section_verdict']}")


def test_08_stationary_phase_slopes(tmp_path):
    # dense ladder: the error magnitude carries an oscillatory |sin| factor
    # whose sparse sampling would wobble the fitted slope
    rep = run(
        tmp_path,
        "helmholtz",
        {"lambda": 1.0, "dims": [2, 3], "r_min": 20.0, "r_max": 200.0, "n_radii": 24},
    )
    m = rep.metrics
    announce(
        8,
        "stationary phase error slopes",
        passed(rep, "stationary_phase_n2", "stationary_phase_n3"),
        f"n=2: {m['slope_n2']:.3f}, n=3: {m['slope_n3']:.3f}",
    )


def test_09_threshold_trichotomy(tmp_path):
    rep = run(
        tmp_path,
        "threshold",
        {"lambda": 1.0, "orders": [-0.75, -0.5, -0.25, 0.0], "radii": [50.0, 100.0, 200.0, 400.0]},
    )
    m = rep.metrics
    announce(
        9,
        "threshold trichotomy",
        passed(rep, "bounded_r-0.75", "log_at_threshold", "growth_r-0.25", "growth_r0.0"),
        f"exps {m['exponent_r-0.25']:.3f}/{m['exponent_r0.0']:.3f}, "
        f"log R2 {m['log_fit_r2']:.4f}, ratio {m['bounded_ratio_r-0.75']:.3f}",
    )


def test_10_boundary_pairing(tmp_path):
    from scatcalc.helmholtz import (
        asymptotic_profile,
        boundary_pairing_check,
        solution_from_density,
        sphere_density,
        sphere_rule,
    )

    rep = run(tmp_path, "pairing", {"lambda": 1.0, "radii": [100.0, 200.0, 400.0]})
    # extra: boundary_pairing_check(f1, f1) against the direct formula
    # 2 i lam (||f+||^2 - ||f-||^2), which vanishes
    lam = 1.0
    f1 = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
    sol1 = solution_from_density(f1, lam)
    _, rhs_self, _ = boundary_pairing_check(sol1, sol1, 100.0)
    f_plus, f_minus = asymptotic_profile(f1, lam)
    nodes, w = sphere_rule(2, 64)
    direct = 2j * lam * (
        np.sum(w * np.abs(f_plus(nodes)) ** 2)
        - np.sum(w * np.abs(f_minus(nodes)) ** 2)
    )
    self_err = abs(rhs_self - complex(direct))
    gaps = [row["gap"] for row in rep.tables["pairing"]]
    announce(
        10,
        "boundary pairing",
        passed(rep) and self_err < 1e-6,
        f"gaps {gaps[0]:.2e}>{gaps[1]:.2e}>{gaps[2]:.2e}, self {self_err:.1e}",
    )


def _criterion_11_phase_fits(lam):
    """Per n: the phase f_+(theta)/f_-(-theta) fitted at R = 200, its drift
    under quadrature refinement, and its distance to the frozen constant."""
    from scatcalc.helmholtz import FREE_SMATRIX_PHASE, fit_smatrix_phase

    fits = {}
    for n in (2, 3):
        p1 = fit_smatrix_phase(lam, n)
        p2 = fit_smatrix_phase(lam, n, extra_degree=256)
        fits[n] = (p1, abs(p1 - p2), abs(p1 - FREE_SMATRIX_PHASE[n]))
    return fits


def test_11_free_scattering_matrix():
    from scatcalc.helmholtz import (
        free_scattering_matrix,
        rotate_density,
        sphere_density,
        sphere_rule,
    )

    lam = 1.0
    rng = np.random.default_rng(11)
    defect = 0.0
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

        def fm(th, c=coeffs):
            ang = np.arctan2(th[:, 1], th[:, 0])
            return sum(ck * np.exp(1j * k * ang) for k, ck in enumerate(c, start=-2))

        dens = sphere_density(2, fm)
        out = free_scattering_matrix(lam, dens)
        defect = max(defect, abs(out.l2_norm() - dens.l2_norm()))
    th0 = 0.7
    R = np.array([[np.cos(th0), -np.sin(th0)], [np.sin(th0), np.cos(th0)]])
    f = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
    lhs = free_scattering_matrix(lam, rotate_density(f, R))
    rhs = rotate_density(free_scattering_matrix(lam, f), R)
    nodes, _ = sphere_rule(2, 64)
    equivar = float(np.max(np.abs(lhs(nodes) - rhs(nodes))))
    # fixture: the fitted phase is stable under quadrature refinement and
    # sits at the frozen constant up to the O(1/R) fit truncation
    fits = _criterion_11_phase_fits(lam)
    stable = all(v[1] < 1e-6 for v in fits.values())
    near = all(v[2] < 0.02 for v in fits.values())
    ok = defect < 1e-6 and equivar < 1e-8 and stable and near
    announce(
        11,
        "free scattering matrix",
        ok,
        f"defect {defect:.1e}, equivariance {equivar:.1e}, fit drift {max(v[1] for v in fits.values()):.1e}",
    )


def test_11_phase_check_fails_for_negated_constant(monkeypatch):
    # the fit measures the phase from the field, so a wrong frozen constant
    # must put every fitted phase outside the criterion-11 tolerance
    import scatcalc.helmholtz as hz

    negated = {n: -c for n, c in hz.FREE_SMATRIX_PHASE.items()}
    monkeypatch.setattr(hz, "FREE_SMATRIX_PHASE", negated)
    fits = _criterion_11_phase_fits(1.0)
    assert all(v[2] >= 0.02 for v in fits.values())


def test_12_poisson_formal_series():
    from scatcalc.helmholtz import (
        PowerMismatchError,
        build_poisson_series,
        series_residual_slope,
    )

    lam, n = 1.0, 2
    p_bad = (n - 1) / 2 + 0.3
    try:
        build_poisson_series({0: 1.0}, 1, lam, n, power=p_bad)
        obstruction_ok = False
    except PowerMismatchError as e:
        obstruction_ok = abs(e.obstruction - 1j * lam * (2 * p_bad - n + 1)) < 1e-12
    radii = np.geomspace(5.0, 25.0, 6)
    slopes = []
    for J in range(3):
        s = build_poisson_series({0: 1.0, 1: 0.3}, J, lam, n)
        slopes.append(series_residual_slope(s, radii)[0])
    gains = [slopes[k] - slopes[k + 1] for k in range(2)]
    ok = obstruction_ok and all(g >= 0.9 for g in gains)
    announce(12, "Poisson formal series", ok, f"slopes {['%.2f' % s for s in slopes]}")


def test_13_one_dimensional_scattering(tmp_path):
    reps = [
        run(tmp_path, "scatter1d", {"potential": name, "height": height, "width": width})
        for name, height, width in (
            ("square_barrier", 2.0, 1.0),
            ("gaussian_bump", 1.2, 1.5),
            ("compact_bump", 0.8, 1.0),
        )
    ]
    defect = max(r.metrics["max_unitarity_defect"] for r in reps)
    drift = max(r.metrics["max_wronskian_drift"] for r in reps)
    announce(
        13,
        "1D scattering",
        all(passed(r) for r in reps) and passed(reps[0], "matches_closed_form"),
        f"defect {defect:.1e}, drift {drift:.1e}, oracle {reps[0].metrics['barrier_oracle_err']:.1e}",
    )


#: cutoff ladder of the criterion-14 tail masses (three rungs of ratio 4)
LG_LADDER = (100.0, 400.0, 1600.0)


def lg_mass_closed_form(k, cutoffs):
    """Oracle for lg_tail_masses: int_10^c x^{-k/2} dx in closed form."""
    c = np.asarray(cutoffs, dtype=float)
    if k == 2:
        return np.log(c / 10.0)
    expo = 1.0 - k / 2.0
    return (c**expo - 10.0**expo) / expo


def _criterion_14():
    from scatcalc.scatter1d import lg_profile_residual, lg_tail_masses, symmetry_boundary_term

    ranges = {3: (10.0, 1000.0), 4: (10.0, 1000.0), 5: (10.0, 400.0), 6: (10.0, 140.0)}
    slopes_ok = all(
        lg_profile_residual(k, eps, 0.7, ranges[k])["slope"] <= -0.9
        for k in (3, 4, 5, 6)
        for eps in (-1, 1)
    )
    tails = {k: lg_tail_masses(k, LG_LADDER) for k in (2, 3, 4, 5, 6)}
    masses_ok = all(
        np.allclose(t["masses"], lg_mass_closed_form(k, LG_LADDER), rtol=1e-12, atol=0.0)
        for k, t in tails.items()
    )
    dichotomy_ok = not tails[2]["convergent"] and all(tails[k]["convergent"] for k in (3, 4, 5, 6))
    terms = [abs(symmetry_boundary_term(R)) for R in (50.0, 100.0, 200.0)]
    term_ok = min(terms) > 1.9 and (max(terms) - min(terms)) / min(terms) < 0.5
    ok = slopes_ok and masses_ok and dichotomy_ok and term_ok
    return ok, f"boundary terms {['%.3f' % t for t in terms]}"


def test_14_liouville_green_profiles():
    announce(14, "Liouville-Green profiles", *_criterion_14())


def test_14_fails_when_k3_carries_the_k2_amplitude(monkeypatch):
    # the tail verdict is read from the quadrature masses, so a k = 3 profile
    # with the harmonic k = 2 amplitude must be judged divergent
    import scatcalc.scatter1d as sc

    real = sc.lg_profile
    monkeypatch.setattr(sc, "lg_profile", lambda k, eps: real(2 if k == 3 else k, eps))
    assert not sc.lg_tail_masses(3, LG_LADDER)["convergent"]
    assert not _criterion_14()[0]


def test_15_radon_flat_model(tmp_path):
    from scatcalc.radon import default_cone, injectivity_probe

    rep = run(tmp_path, "radon", {"dim": 2, "grid_points": 24, "directions": 64, "cone_width": 0.3})
    # extra: sigma_min is stable under grid refinement, and the cone-cut
    # 3-D probe is injective too
    r30 = injectivity_probe(2, grid_points=30, n_dirs=64)
    stable = 0.7 < r30["sigma_min"] / rep.metrics["sigma_min"] < 1.3
    r3 = injectivity_probe(3, grid_points=10, n_dirs=60, n_t=12, chi=default_cone(0.3))
    ok = passed(rep) and stable and r3["sigma_min"] > 0 and r3["reconstruction_error"] < 1e-3
    m = rep.metrics
    announce(
        15,
        "flat Radon model",
        ok,
        f"adjoint {m['adjointness_gap']:.1e}, plateau {m['plateau_variation']:.3f}, "
        f"collapse {m['cone2_collapse_ratio']:.1e}, sigma_min {m['sigma_min']:.3f}",
    )


def test_16_variable_orders(tmp_path):
    reps = [
        run(tmp_path, "var-order", {"L": 12.0, "N": 96, "s": s, "r_const": rc})
        for s, rc in ((0.0, -1.0), (1.0, -1.0), (0.0, 0.5))
    ]
    worst = max(r.metrics["const_order_rel_err"] for r in reps)
    announce(
        16,
        "variable orders",
        all(passed(r) for r in reps),
        f"log-loss growth {reps[0].metrics['log_loss_growth_ratio']:.2f}, const-order err {worst:.1e}",
    )
