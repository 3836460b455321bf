"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v`; the per-criterion lines are
written straight to the terminal so they appear regardless of capture.
Criteria and tolerances are pinned here, not configurable.
"""

import sys

import numpy as np

from scatcalc.grid import (
    GridField,
    SobolevOrder,
    field_from_function,
    make_grid,
    sobolev_norm,
    var_sobolev_norm,
)
from scatcalc.symbols import (
    NotScEllipticError,
    compose_expansion,
    conormal_seminorm,
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


def test_01_quantization_identity():
    spec = make_grid(1, 20.0, 128)
    one = sym1d(lambda x, xi: np.ones_like(x + xi), (0, 0), depends_on_x=False, depends_on_xi=False)
    id_err = float(np.max(np.abs(quantize(one, spec).as_l2_matrix() - np.eye(spec.size))))
    s_xi = sym1d(lambda x, xi: xi + 0 * x, (1, 0), depends_on_x=False)
    s_x = sym1d(lambda x, xi: x + 0 * xi, (0, 1), depends_on_xi=False)
    comp = compose_expansion(s_xi, s_x, 2)
    xs = np.linspace(-5, 5, 11)[:, None]
    xis = np.linspace(-4, 4, 11)[:, None]
    sym_err = float(np.max(np.abs(comp(xs, xis) - (xs[:, 0] * xis[:, 0] - 1j))))
    diff = (
        quantize(s_xi, spec).compose(quantize(s_x, spec)).as_l2_matrix()
        - quantize(comp, spec).as_l2_matrix()
    )
    resid = 0.0
    for shift in (-3.0, 0.0, 2.0):
        u = field_from_function(spec, lambda x: np.exp(-((x - shift) ** 2) / 5.0))
        resid = max(resid, float(np.linalg.norm(diff @ u.values) / np.linalg.norm(u.values)))
    ok = id_err < 1e-10 and sym_err < 1e-9 and resid < 1e-9
    announce(1, "quantization identity", ok, f"Op(1) err {id_err:.1e}, xi.x resid {resid:.1e}")


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


def test_04_model_quantitative_estimate():
    from scatcalc.commutants import model_inequality_margins

    spec = make_grid(2, 6.0, 64)
    pairs = model_inequality_margins(spec, n_fields=20, seed=2026)
    worst = min(rhs - lhs for lhs, rhs in pairs)
    ok = len(pairs) == 20 and all(lhs <= rhs + 1e-8 for lhs, rhs in pairs)
    announce(4, "model quantitative estimate (constant 36)", ok, f"min margin {worst:.3f}")


def test_05_commutant_identities():
    from scatcalc.commutants import (
        SupportTooWideError,
        build_propagation_commutant,
        radial_commutant_check,
    )

    cb = build_propagation_commutant(1.0, 0.25, digamma=10.0)
    below = radial_commutant_check(1.0, -1.0, 0.05)
    above = radial_commutant_check(1.0, 0.0, 0.05)
    try:
        radial_commutant_check(1.0, -0.5, 0.05)
        rejected = False
    except SupportTooWideError:
        rejected = True
    ok = (
        cb.residual_sup < 1e-8
        and cb.eprime_support_ok
        and below.residual_sup < 1e-8
        and below.min_b_scaled > 0
        and above.residual_sup < 1e-8
        and rejected
    )
    announce(
        5,
        "commutant identities",
        ok,
        f"flow-box {cb.residual_sup:.1e}, radial {below.residual_sup:.1e}/{above.residual_sup:.1e}",
    )


def test_06_helmholtz_dynamics():
    from scatcalc.hamflow import (
        PhasePointChart,
        find_radial_points,
        flow_trajectory,
        helmholtz_model,
        helmholtz_radial_distance,
        threshold_data,
    )

    H = helmholtz_model(1.0, 2)
    rep = find_radial_points(H, resolution=8)
    tau_dev = max(abs(abs(p.tau) - 1.0) for p in rep.points)
    mu_max = max(abs(p.mu) for p in rep.points)
    verdicts_ok = all(
        (p.family == "out") == (p.verdict == "sink")
        and (p.family == "in") == (p.verdict == "source")
        for p in rep.points
    )
    # beta ratio at one radial point seen in two overlapping charts
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
    rng = np.random.default_rng(20260810)
    worst_dist = 0.0
    for _ in range(50):
        xi_r = rng.standard_normal(2)
        xi_r /= np.linalg.norm(xi_r)
        xd = rng.standard_normal(2)
        xd /= np.linalg.norm(xd)
        j = int(np.argmax(np.abs(xd)))
        others = [m for m in range(2) if m != j]
        start = PhasePointChart(
            "spatial_face",
            {"rho": 0.0, "y": xd[others] / xd[j], "xi": xi_r},
            axis=j,
            sign=int(np.sign(xd[j])),
        )
        path = flow_trajectory(H, start, 20.0, 0.01)
        worst_dist = max(worst_dist, helmholtz_radial_distance(H, path[-1], "out"))
    ok = (
        tau_dev < 1e-8
        and mu_max < 1e-8
        and verdicts_ok
        and ratio_err < 1e-6
        and worst_dist < 1e-3
    )
    announce(
        6,
        "Helmholtz dynamics",
        ok,
        f"tau dev {tau_dev:.1e}, ratio err {ratio_err:.1e}, worst dist {worst_dist:.1e}",
    )


def test_07_degeneracy_gate():
    from scatcalc.hamflow import (
        PhasePointChart,
        ThresholdDegeneracyError,
        classify_radial,
        threshold_data,
        wave_model,
    )

    Hw = wave_model()
    pt = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 0.0, "xi": 0.0}, sign=1)
    verdict, _ = classify_radial(Hw, pt)
    refused = False
    try:
        threshold_data(Hw, pt)
    except ThresholdDegeneracyError:
        refused = True
    ok = verdict == "degenerate" and refused
    announce(7, "wave-operator degeneracy gate", ok, f"verdict {verdict}")


def test_08_stationary_phase_slopes():
    from scatcalc.helmholtz import error_slope, sphere_density

    # dense ladder: the error magnitude carries an oscillatory |sin| factor
    # whose sparse sampling would wobble the fitted slope
    radii = np.geomspace(20.0, 200.0, 24)
    f2 = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
    s2 = error_slope(f2, 1.0, radii)
    f3 = sphere_density(3, lambda th: 1.0 + 0.4 * th[:, 2] + 0.2 * th[:, 0])
    s3 = error_slope(f3, 1.0, radii)
    ok = abs(s2 + 1.5) < 0.2 and abs(s3 + 2.0) < 0.2
    announce(8, "stationary phase error slopes", ok, f"n=2: {s2:.3f}, n=3: {s3:.3f}")


def test_09_threshold_trichotomy():
    from scatcalc.helmholtz import sphere_density, threshold_scan

    f = sphere_density(2, lambda th: 1.0 + 0.45 * th[:, 0] + 0.2j * th[:, 1])
    table = threshold_scan(f, 1.0, [-0.75, -0.5, -0.25, 0.0], [50.0, 100.0, 200.0, 400.0])
    e0 = table[0.0]["exponent"]
    e25 = table[-0.25]["exponent"]
    r2 = table[-0.5]["log_r2"]
    ratio = table[-0.75]["ratio"]
    ok = abs(e0 - 1.0) < 0.05 and abs(e25 - 0.5) < 0.05 and r2 > 0.99 and ratio < 1.05
    announce(
        9,
        "threshold trichotomy",
        ok,
        f"exps {e25:.3f}/{e0:.3f}, log R2 {r2:.4f}, ratio {ratio:.3f}",
    )


def test_10_boundary_pairing():
    from scatcalc.helmholtz import (
        asymptotic_profile,
        boundary_pairing_check,
        build_poisson_series,
        solution_from_series,
        sphere_density,
        sphere_rule,
    )

    lam = 1.0
    f1 = sphere_density(2, lambda th: 1.0 + 0.5 * th[:, 0] + 0.2j * th[:, 1])
    ser = build_poisson_series({0: 1.0, 1: 0.4, -1: 0.15j}, 0, lam, 2)
    sol = solution_from_series(ser)
    gaps = [boundary_pairing_check(f1, sol, lam, R)[2] for R in (100.0, 200.0, 400.0)]
    # self pairing: rhs equals 2 i lam (||f+||^2 - ||f-||^2), which vanishes
    _, rhs_self, _ = boundary_pairing_check(f1, f1, lam, 100.0)
    prof = asymptotic_profile(f1, lam)
    nodes, w = sphere_rule(2, 64)
    direct = 2j * lam * (
        np.sum(w * np.abs(prof.f_plus(nodes)) ** 2)
        - np.sum(w * np.abs(prof.f_minus(nodes)) ** 2)
    )
    self_err = abs(rhs_self - complex(direct))
    ok = gaps[-1] < 0.10 and gaps[0] > gaps[1] > gaps[2] and self_err < 1e-6
    announce(
        10,
        "boundary pairing",
        ok,
        f"gaps {gaps[0]:.2e}>{gaps[1]:.2e}>{gaps[2]:.2e}, self {self_err:.1e}",
    )


def _criterion_11_phase_fits(lam):
    """Per n: the phase f_+(theta)/f_-(-theta) fitted at R = 200, its drift
    under quadrature refinement, and its distance to the frozen constant."""
    from scatcalc.helmholtz import FREE_SMATRIX_PHASE, fit_smatrix_phase

    fits = {}
    for n in (2, 3):
        p1 = fit_smatrix_phase(lam, n, R=200.0)
        p2 = fit_smatrix_phase(lam, n, R=200.0, extra_degree=256)
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


def test_13_one_dimensional_scattering():
    from scatcalc.scatter1d import (
        compact_bump,
        gaussian_bump,
        solve_scatter,
        square_barrier,
        square_barrier_coeffs,
        wronskian_drift,
    )

    lambdas = np.linspace(0.5, 3.2, 10)
    worst_defect, worst_drift, worst_oracle = 0.0, 0.0, 0.0
    for V, name in (
        (square_barrier(2.0, 1.0), "barrier"),
        (gaussian_bump(1.2, 1.5), "gauss"),
        (compact_bump(0.8, 1.0), "bump"),
    ):
        for lam in lambdas:
            sol = solve_scatter(V, float(lam))
            worst_defect = max(worst_defect, sol.coeffs.unitarity_defect)
            worst_drift = max(worst_drift, wronskian_drift(sol))
            if name == "barrier":
                o = square_barrier_coeffs(2.0, 1.0, float(lam))
                worst_oracle = max(
                    worst_oracle, abs(sol.coeffs.r - o.r) + abs(sol.coeffs.t - o.t)
                )
    ok = worst_defect < 1e-6 and worst_drift < 1e-8 and worst_oracle < 1e-6
    announce(
        13,
        "1D scattering",
        ok,
        f"defect {worst_defect:.1e}, drift {worst_drift:.1e}, oracle {worst_oracle:.1e}",
    )


def test_14_liouville_green_profiles():
    from scatcalc.scatter1d import lg_profile_residual, lg_tail_masses, symmetry_boundary_term

    ranges = {3: (10.0, 1000.0), 4: (10.0, 1000.0), 5: (10.0, 400.0), 6: (10.0, 140.0)}
    slopes_ok = all(
        lg_profile_residual(k, eps, 0.7, ranges[k])["slope"] <= -0.9
        for k in (3, 4, 5, 6)
        for eps in (-1, 1)
    )
    dichotomy_ok = (not lg_tail_masses(2, [100.0, 400.0])["convergent"]) and all(
        lg_tail_masses(k, [100.0, 400.0])["convergent"] for k in (3, 4, 5, 6)
    )
    terms = [abs(symmetry_boundary_term(R)) for R in (50.0, 100.0, 200.0)]
    term_ok = min(terms) > 1.9 and (max(terms) - min(terms)) / min(terms) < 0.5
    ok = slopes_ok and dichotomy_ok and term_ok
    announce(14, "Liouville-Green profiles", ok, f"boundary terms {['%.3f' % t for t in terms]}")


def test_15_radon_flat_model():
    from scatcalc.radon import (
        ConeCutoff,
        cone_ellipticity_check,
        default_cone,
        default_profile,
        injectivity_probe,
        normal_kernel_symbol,
        pairing_gap,
    )

    phi = default_profile()

    def f(p):
        return np.exp(-np.sum((p - np.array([0.1, -0.15])) ** 2, axis=-1))

    def v(p, k):
        return np.exp(-0.8 * np.sum(p**2, axis=-1)) * (1.0 + 0.01 * k)

    gap = pairing_gap(f, v, phi, 2, n_dirs=32)
    qs = np.geomspace(0.1, 100.0, 25)
    tab = normal_kernel_symbol(2, phi, qs)
    positive = bool(np.min(tab["symbol"]) > 0)
    top = tab["scaled"][qs >= 10.0]
    plateau_var = float((top.max() - top.min()) / top.mean())
    full = ConeCutoff(lambda w: np.ones_like(np.asarray(w, dtype=float)))
    ladder = (5.0, 20.0, 80.0)
    cone3 = cone_ellipticity_check(3, default_cone(0.3), phi, xi_ladder=ladder)
    full2 = cone_ellipticity_check(2, full, phi, xi_ladder=ladder)
    narrow2 = cone_ellipticity_check(2, default_cone(0.3), phi, xi_ladder=ladder)
    floor3 = min(cone3["scaled_floor"])
    collapse = narrow2["scaled_floor"][-1] / full2["scaled_floor"][-1]
    r24 = injectivity_probe(2, grid_points=24)
    r30 = injectivity_probe(2, grid_points=30)
    stable = 0.7 < r30["sigma_min"] / r24["sigma_min"] < 1.3
    r3 = injectivity_probe(3, grid_points=10, n_dirs=60, n_t=12, chi=default_cone(0.3))
    ok = (
        gap < 1e-6
        and positive
        and plateau_var < 0.05
        and floor3 > 0
        and collapse < 1e-3
        and r24["sigma_min"] > 0
        and stable
        and r24["reconstruction_error"] < 1e-3
        and r3["sigma_min"] > 0
        and r3["reconstruction_error"] < 1e-3
    )
    announce(
        15,
        "flat Radon model",
        ok,
        f"adjoint {gap:.1e}, plateau {plateau_var:.3f}, collapse {collapse:.1e}, "
        f"sigma_min {r24['sigma_min']:.3f}",
    )


def test_16_variable_orders():
    amp = 1.0 / 16.0

    def ell(x, xi):
        return -amp * (1.0 + xi / np.sqrt(1.0 + xi**2))

    a = sym1d(lambda x, xi: (1.0 + x**2) ** (0.5 * ell(x, xi)), (0, 0))
    rep = conormal_seminorm(a, 1)
    spec = make_grid(1, 12.0, 96)
    xs = spec.axis()
    u = GridField(spec, (np.exp(-((xs - 1.0) ** 2) / 2.0) * (1.0 + 0.2j)).astype(complex))
    worst = 0.0
    for s, rc in ((0.0, -1.0), (1.0, -1.0), (0.0, 0.5)):
        nv = var_sobolev_norm(
            u, SobolevOrder(s=s, variable_r=lambda x, xi, rc=rc: rc + 0.0 * x[..., 0] * xi[..., 0])
        )
        nf = sobolev_norm(u, SobolevOrder(s=s, r=rc))
        worst = max(worst, abs(nv - nf) / nf)
    ok = rep.flagged and worst < 1e-6
    announce(
        16,
        "variable orders",
        ok,
        f"log-loss growth {rep.growth_ratio:.2f}, const-order err {worst:.1e}",
    )
