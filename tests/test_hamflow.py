import dataclasses
import itertools

import numpy as np
import pytest

from scatcalc import hamflow
from scatcalc.cli import _flow_starts
from scatcalc.hamflow import (
    PhasePointChart,
    SymbolHamiltonian,
    ThresholdDegeneracyError,
    boundary_chart_field,
    chart_field_by_limit,
    chart_transition,
    char_value,
    classify_radial,
    d_x1_model,
    find_radial_points,
    flow_trajectory,
    hamilton_field,
    helmholtz_model,
    helmholtz_radial_distance,
    klein_gordon_model,
    schrodinger_model,
    threshold_data,
    trajectory_rows,
    wave_model,
    x_dx_model,
)


def _spatial(rho, y, xi, axis, sign):
    return PhasePointChart(
        "spatial_face", {"rho": rho, "y": np.array(y), "xi": np.array(xi)}, axis=axis, sign=sign
    )


# one boundary point per chart-table entry that has an interior map, with the
# layout of its closed-form field
LIMIT_CASES = [
    lambda: (helmholtz_model(1.0, 2), _spatial(0.0, [0.3], [0.8, 0.6], 0, 1), ("rho", "y", "xi")),
    lambda: (
        klein_gordon_model(1.0),
        PhasePointChart(
            "kg_face", {"rho": 0.0, "v": 0.2, "tau": np.sqrt(1.25), "xi": -0.5}, sign=1
        ),
        ("rho", "v", "tau", "xi"),
    ),
    lambda: (
        schrodinger_model(1),
        PhasePointChart(
            "schrodinger_time_face",
            {"rho": 0.0, "y": np.array([0.7]), "tau": -0.09, "xi": np.array([0.3])},
            sign=1,
        ),
        ("rho", "y", "tau", "xi"),
    ),
    lambda: (d_x1_model(2), _spatial(0.0, [0.3], [0.0, 0.5], 0, 1), ("rho", "y", "xi")),
    lambda: (d_x1_model(2), _spatial(0.0, [-0.4], [0.0, 0.5], 1, -1), ("rho", "y", "xi")),
    lambda: (
        x_dx_model(),
        PhasePointChart("spatial_face", {"rho": 0.0, "xi": 0.7}, axis=0, sign=-1),
        ("rho", "xi"),
    ),
    lambda: (
        x_dx_model(),
        PhasePointChart("frequency_face", {"rho": 0.0, "x": -0.4}, axis=0, sign=1),
        ("rho", "x"),
    ),
]


class TestHamiltonField:
    def test_helmholtz_straight_lines(self):
        H = helmholtz_model(2.0, 3)
        dx, dxi = hamilton_field(H, np.array([1.0, 0.0, -1.0]), np.array([0.5, 1.0, 0.2]))
        assert np.allclose(dx, [1.0, 2.0, 0.4])
        assert np.allclose(dxi, 0.0)

    def test_first_derivative_model(self):
        H = d_x1_model(2)
        dx, dxi = hamilton_field(H, np.array([5.0, -2.0]), np.array([0.3, 0.4]))
        assert np.allclose(dx, [1.0, 0.0]) and np.allclose(dxi, 0.0)

    def test_x_dx_by_hand(self):
        H = x_dx_model()
        dx, dxi = hamilton_field(H, np.array([2.0]), np.array([-1.5]))
        assert np.allclose(dx, [2.0]) and np.allclose(dxi, [1.5])

    def test_generic_symbol_fallback(self):
        H = SymbolHamiltonian(lambda x, xi: np.sum(xi**2, axis=-1) - 1.0, None, {"dim": 2})
        dx, dxi = hamilton_field(H, np.array([0.3, 0.4]), np.array([0.6, 0.8]))
        assert np.allclose(dx, [1.2, 1.6], atol=1e-7)
        assert np.allclose(dxi, 0.0, atol=1e-7)


class TestChartFields:
    def test_helmholtz_vanishes_at_parallel_point(self):
        H = helmholtz_model(1.0, 2)
        xi = np.array([0.8, 0.6])
        pt = PhasePointChart(
            "spatial_face", {"rho": 0.0, "y": np.array([0.75]), "xi": xi}, axis=0, sign=1
        )
        f = boundary_chart_field(H, pt)
        assert f["rho"] == 0.0
        assert np.allclose(f["y"], 0.0)

    def test_klein_gordon_sink_point(self):
        H = klein_gordon_model(1.0)
        pt = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 1.3, "xi": 0.5}, sign=1)
        f = boundary_chart_field(H, pt)
        assert f["rho"] == 0.0 and f["v"] == 0.0
        verdict, eigs = classify_radial(H, pt)
        assert verdict == "sink"
        assert np.allclose(sorted(eigs.real), [-2.6, -2.6], atol=1e-6)

    def test_schrodinger_vanishes_at_doubled_frequency(self):
        H = schrodinger_model(1)
        pt = PhasePointChart(
            "schrodinger_time_face",
            {"rho": 0.0, "y": np.array([0.6]), "tau": -0.09, "xi": np.array([0.3])},
            sign=1,
        )
        f = boundary_chart_field(H, pt)
        assert f["rho"] == 0.0 and np.allclose(f["y"], 0.0)

    @pytest.mark.parametrize("make_pt", LIMIT_CASES)
    def test_closed_form_matches_rescaled_limit(self, make_pt):
        H, pt, keys = make_pt()
        f = boundary_chart_field(H, pt)
        closed = np.concatenate([np.atleast_1d(np.asarray(f[k], dtype=float)) for k in keys])
        limit = chart_field_by_limit(H, pt)
        assert np.max(np.abs(closed - limit)) < 1e-6

    def test_limit_cases_cover_every_oracle_entry(self):
        cases = {(H.named_model, pt.chart) for H, pt, _ in (make() for make in LIMIT_CASES)}
        assert cases == {key for key, spec in hamflow._SPECS.items() if spec.interior}

    def test_tangency_guard_rejects_a_field_leaving_the_boundary(self, monkeypatch):
        key = ("helmholtz", "spatial_face")
        bad = dataclasses.replace(hamflow._SPECS[key], field=lambda H, rows, S, out: out.fill(1.0))
        monkeypatch.setitem(hamflow._SPECS, key, bad)
        H, pt = helmholtz_model(1.0, 2), _spatial(0.0, [0.3], [0.8, 0.6], 0, 1)
        with pytest.raises(RuntimeError, match="not tangent"):
            boundary_chart_field(H, pt)
        with pytest.raises(RuntimeError, match="not tangent"):
            flow_trajectory(H, pt, 1.0, 0.01)

    def test_tangency_of_rho_coefficient(self):
        # at rho = 0 the rho-component of every implemented field vanishes
        H = helmholtz_model(1.0, 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            y = rng.uniform(-0.9, 0.9, size=2)
            pt = PhasePointChart(
                "spatial_face", {"rho": 0.0, "y": y, "xi": xi}, axis=0, sign=1
            )
            assert abs(boundary_chart_field(H, pt)["rho"]) < 1e-9


# the named models, at the dimensions they are checked in
NAMED_MODELS = {
    "helmholtz-2": lambda: helmholtz_model(1.0, 2),
    "helmholtz-3": lambda: helmholtz_model(1.0, 3),
    "klein_gordon": klein_gordon_model,
    "wave": wave_model,
    "schrodinger-1": lambda: schrodinger_model(1),
    "schrodinger-2": lambda: schrodinger_model(2),
    "d_x1-1": lambda: d_x1_model(1),
    "d_x1-2": lambda: d_x1_model(2),
    "x_dx": x_dx_model,
}
# (d_xi p, -d_x p) of each named model by hand, at one point (x, xi); the
# spacetime models put t and tau in slot 0
HAND_FIELDS = {
    "helmholtz": lambda x, xi: (2.0 * xi, 0.0 * x),
    "klein_gordon": lambda x, xi: (np.array([2.0 * xi[0], -2.0 * xi[1]]), 0.0 * x),
    "schrodinger_free": lambda x, xi: (np.concatenate([[1.0], 2.0 * xi[1:]]), 0.0 * x),
    "d_x1": lambda x, xi: (np.eye(len(x))[0], 0.0 * x),
    "x_dx": lambda x, xi: (x, -xi),
}


class TestClosedFormsAgainstSymbol:
    """The chart table and the interior chart against each model's own symbol p."""

    @pytest.mark.parametrize("name", sorted(NAMED_MODELS))
    def test_char_vanishes_at_scanned_radial_points(self, name):
        H = NAMED_MODELS[name]()
        points = find_radial_points(H, resolution=5).points
        assert points
        assert max(abs(char_value(H, p.point)) for p in points) < 1e-12

    @pytest.mark.parametrize("name", sorted(NAMED_MODELS))
    def test_interior_field_matches_symbol_derivatives(self, name):
        H = NAMED_MODELS[name]()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, xi = np.split(3.0 * rng.standard_normal(2 * H.dim), 2)
            got = np.concatenate(hamilton_field(H, x, xi))
            want = np.concatenate(HAND_FIELDS[H.named_model](x, xi))
            assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("name", sorted(NAMED_MODELS))
    def test_interior_char_has_the_sign_of_p(self, name):
        H = NAMED_MODELS[name]()
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, xi = 3.0 * rng.standard_normal((2, H.dim))
            c = char_value(H, PhasePointChart("interior", {"x": x, "xi": xi}))
            p = float(np.real(H.p(x[None], xi[None])[0]))
            assert np.sign(c) == np.sign(p) and abs(c) < 1.0

    def test_the_table_holds_boundary_faces_only(self):
        # the interior chart is shared by every Hamiltonian, so no model has its own
        assert "interior" not in {chart for _, chart in hamflow._SPECS}
        assert set(HAND_FIELDS) == {NAMED_MODELS[name]().named_model for name in NAMED_MODELS}


class TestChartTransitions:
    def test_mutually_inverse(self):
        H = helmholtz_model(1.0, 3)
        pt = PhasePointChart(
            "spatial_face",
            {"rho": 0.2, "y": np.array([0.7, -0.4]), "xi": np.array([0.1, 0.2, 0.3])},
            axis=0,
            sign=1,
        )
        back = chart_transition(chart_transition(pt, H, 1), H, 0)
        assert abs(float(back.coords["rho"]) - 0.2) < 1e-10
        assert np.max(np.abs(np.asarray(back.coords["y"]) - [0.7, -0.4])) < 1e-10

    def test_invalid_target_rejected(self):
        H = helmholtz_model(1.0, 2)
        pt = PhasePointChart(
            "spatial_face", {"rho": 0.1, "y": np.array([0.0]), "xi": np.array([1.0, 0.0])},
            axis=0, sign=1,
        )
        with pytest.raises(ValueError):
            chart_transition(pt, H, 1)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            PhasePointChart("spatial_face", {"rho": -0.1, "y": np.zeros(1), "xi": np.ones(2)})


class TestFlow:
    H = helmholtz_model(1.0, 2)

    def random_boundary_start(self, rng):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        xd = rng.standard_normal(2)
        xd /= np.linalg.norm(xd)
        j = int(np.argmax(np.abs(xd)))
        others = [m for m in range(2) if m != j]
        return PhasePointChart(
            "spatial_face",
            {"rho": 0.0, "y": xd[others] / xd[j], "xi": xi},
            axis=j,
            sign=int(np.sign(xd[j])),
        )

    def test_boundary_trajectories_converge(self):
        rng = np.random.default_rng(11)
        starts = [self.random_boundary_start(rng) for _ in range(8)]
        fwd = hamflow.flow_batch(self.H, starts, 20.0, 0.01)
        bwd = hamflow.flow_batch(self.H, starts, -20.0, 0.01)
        for b in range(len(starts)):
            assert helmholtz_radial_distance(self.H, fwd.point(-1, b)) < 1e-3
            # the incoming set at x is the outgoing set at -x: flip the sign
            end = bwd.point(-1, b)
            flipped = dataclasses.replace(end, sign=-end.sign)
            assert helmholtz_radial_distance(self.H, flipped) < 1e-3
        assert np.max(np.abs(fwd.states[:, :, 0])) < 1e-9
        assert np.max(np.abs(fwd.char_values())) < 1e-6

    def test_distance_monotone_after_transient(self):
        rng = np.random.default_rng(3)
        starts = [self.random_boundary_start(rng) for _ in range(5)]
        batch = hamflow.flow_batch(self.H, starts, 20.0, 0.01)
        steps = len(batch.states)
        for b in range(len(starts)):
            d = [helmholtz_radial_distance(self.H, batch.point(i, b))
                 for i in range(steps // 2, steps)]
            assert all(d[i + 1] <= d[i] + 1e-12 for i in range(len(d) - 1))

    def test_chart_switch_fires_on_rotating_trajectory(self):
        # start x2-dominant with xi along e1: the boundary flow rotates xhat
        # to e1 and must hand over to the axis-0 chart on the way
        xi = np.array([1.0, 0.0])
        start = PhasePointChart(
            "spatial_face", {"rho": 0.0, "y": np.array([0.1]), "xi": xi}, axis=1, sign=1
        )
        path = flow_trajectory(self.H, start, 20.0, 0.01)
        axes_seen = {p.axis for p in path}
        assert axes_seen == {0, 1}
        assert helmholtz_radial_distance(self.H, path[-1]) < 1e-3

    def test_stationary_at_radial_point(self):
        xi = np.array([0.6, 0.8])
        start = PhasePointChart(
            "spatial_face", {"rho": 0.0, "y": np.array([0.75]), "xi": xi}, axis=1, sign=1
        )
        path = flow_trajectory(self.H, start, 5.0, 0.01)
        assert np.max(np.abs(np.asarray(path[-1].coords["y"]) - 0.75)) < 1e-14

    def test_interior_straight_line(self):
        xi = np.array([0.6, 0.8])
        start = PhasePointChart("interior", {"x": np.array([1.0, -2.0]), "xi": xi})
        path = flow_trajectory(self.H, start, 5.0, 0.01)
        exact = np.array([1.0, -2.0]) + 2 * xi * 5.0
        assert np.max(np.abs(np.asarray(path[-1].coords["x"]) - exact)) < 1e-10

    def test_generic_hamiltonian_turns_at_the_barrier(self):
        # p = xi^2 + 1.5 exp(-x^2) - 1 has no named model; from x = -3 on Char(P)
        # the ray climbs the barrier and turns back where 1.5 exp(-x^2) = 1.
        # The sampled turning point lies within 1/2 |x''| (dt/2)^2 ~ 3.2e-5 of
        # the exact one, as x'' ~ -2.55 there.
        H = SymbolHamiltonian(
            lambda x, xi: xi[..., 0] ** 2 + 1.5 * np.exp(-x[..., 0] ** 2) - 1.0, None, {"dim": 1}
        )
        xi0 = np.sqrt(1.0 - 1.5 * np.exp(-9.0))
        start = PhasePointChart("interior", {"x": np.array([-3.0]), "xi": np.array([xi0])})
        batch = hamflow.flow_batch(H, [start], 6.0, 0.01)
        assert abs(np.max(batch.states[:, 0, 0]) + np.sqrt(np.log(1.5))) < 1e-4
        assert np.max(np.abs(batch.char_values())) < 1e-8

    @pytest.mark.parametrize("sign, T", [(1, 5.0), (1, -2.0), (-1, 2.0), (-1, -5.0)])
    def test_frozen_xi_closed_form(self, sign, T):
        # at frozen xi the spatial-face field is linear in (rho, y):
        # rho = rho0 e^{-sigma xi_j t}, y = xi_o/xi_j + (y0 - xi_o/xi_j) e^{-sigma xi_j t}
        xi, rho0, y0 = np.array([0.8, 0.6]), 0.1, 0.3
        path = flow_trajectory(self.H, _spatial(rho0, [y0], xi, 0, sign), T, 0.01)
        assert {(p.axis, p.sign) for p in path} == {(0, sign)}
        decay = np.exp(-sign * xi[0] * np.sign(T) * 0.01 * np.arange(len(path)))
        rho = np.array([float(p.coords["rho"]) for p in path])
        y = np.array([float(np.asarray(p.coords["y"])[0]) for p in path])
        np.testing.assert_allclose(rho, rho0 * decay, rtol=1e-9, atol=0)
        y_star = xi[1] / xi[0]
        np.testing.assert_allclose(y, y_star + (y0 - y_star) * decay, rtol=0, atol=1e-9)

    def test_large_step_rejected(self):
        start = PhasePointChart("interior", {"x": np.zeros(2), "xi": np.array([1.0, 0.0])})
        with pytest.raises(ValueError):
            flow_trajectory(self.H, start, 1.0, 0.1)

    def test_off_characteristic_start_rejected(self):
        start = PhasePointChart("interior", {"x": np.zeros(2), "xi": np.array([2.0, 0.0])})
        with pytest.raises(ValueError):
            flow_trajectory(self.H, start, 1.0, 0.01)

    def test_rows_export_shape(self):
        start = PhasePointChart("interior", {"x": np.zeros(2), "xi": np.array([1.0, 0.0])})
        rows = trajectory_rows(self.H, flow_trajectory(self.H, start, 0.1, 0.01))
        assert rows[0]["step"] == 0 and "abs_char" in rows[0]


class TestErrorTypes:
    H = helmholtz_model(1.0, 2)
    kg_point = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.2, "tau": 1.0, "xi": 0.0}, sign=1)

    def test_flow_value_errors_from_a_boundary_start(self):
        with pytest.raises(ValueError):
            flow_trajectory(self.H, _spatial(0.0, [0.3], [0.8, 0.6], 0, 1), 1.0, 0.02)
        with pytest.raises(ValueError):
            flow_trajectory(self.H, _spatial(0.0, [0.3], [1.6, 1.2], 0, 1), 1.0, 0.01)

    @pytest.mark.parametrize(
        "chart, coords",
        [
            ("kg_face", {"rho": -0.1, "v": 0.0, "tau": 1.0, "xi": 0.0}),
        ],
    )
    def test_negative_defining_coordinate_rejected(self, chart, coords):
        with pytest.raises(ValueError):
            PhasePointChart(chart, coords)

    def test_no_helmholtz_field_on_kg_face(self):
        with pytest.raises(NotImplementedError):
            boundary_chart_field(self.H, self.kg_point)

    @pytest.mark.parametrize(
        "fn",
        [
            boundary_chart_field,
            char_value,
            chart_field_by_limit,
            classify_radial,
            threshold_data,
            lambda H, pt: flow_trajectory(H, pt, 1.0, 0.01),
        ],
        ids=["field", "char", "limit", "classify", "threshold", "flow"],
    )
    def test_unsupported_pair_raises_not_implemented(self, fn):
        with pytest.raises(NotImplementedError):
            fn(self.H, self.kg_point)


class TestRadialPoints:
    def test_helmholtz_families(self):
        H = helmholtz_model(1.0, 2)
        rep = find_radial_points(H, resolution=8)
        assert len(rep.points) == 16
        for p in rep.points:
            assert abs(abs(p.tau) - 1.0) < 1e-8
            assert abs(p.mu) < 1e-8
            assert (p.family == "out") == (p.verdict == "sink")
            assert (p.family == "in") == (p.verdict == "source")

    def test_helmholtz_three_dimensional(self):
        H = helmholtz_model(1.5, 3)
        rep = find_radial_points(H, resolution=6)
        assert {(p.family, p.verdict) for p in rep.points} == {("in", "source"), ("out", "sink")}
        assert max(abs(abs(p.tau) - 1.5) for p in rep.points) < 1e-8
        assert max(abs(p.mu) for p in rep.points) < 1e-8
        p0 = [p for p in rep.points if p.family == "out"][0]
        b0, b1, _ = threshold_data(H, p0.point)
        assert b1 / b0 == pytest.approx(2.0, abs=1e-6)

    def test_helmholtz_sink_eigen_scale(self):
        # eigenvalues all at the -|xi_j| chart scale
        H = helmholtz_model(1.0, 2)
        rep = find_radial_points(H, resolution=4)
        p = [q for q in rep.points if q.family == "out"][0]
        xi = np.asarray(p.point.coords["xi"])
        scale = abs(xi[p.point.axis])
        assert np.allclose(p.eigenvalues.real, -scale, rtol=1e-6)

    def test_klein_gordon_caps(self):
        H = klein_gordon_model(1.0)
        rep = find_radial_points(H, resolution=5)
        plus = {(p.family, p.verdict) for p in rep.points if p.tau > 0}
        assert ("future_cap:tau+", "sink") in plus
        assert ("past_cap:tau+", "source") in plus
        p = [q for q in rep.points if q.family == "future_cap:tau+"][0]
        assert np.allclose(p.eigenvalues.real, -2 * p.tau, rtol=1e-6)

    def test_first_derivative_alignment(self):
        rep = find_radial_points(d_x1_model(2), resolution=5)
        assert {p.family for p in rep.points} == {"x1_plus", "x1_minus"}
        assert {p.verdict for p in rep.points} == {"sink", "source"}
        for p in rep.points:
            expected = "sink" if p.point.sign > 0 else "source"
            assert p.verdict == expected

    def test_first_derivative_one_dimension_lists_each_point_once(self):
        # xi has no second slot in one dimension: one fiber point, one seed
        rep = find_radial_points(d_x1_model(1), resolution=8)
        assert sorted(p.family for p in rep.points) == ["x1_minus", "x1_plus"]

    def test_x_dx_four_configurations(self):
        rep = find_radial_points(x_dx_model(), resolution=8)
        got = {(p.family, p.verdict) for p in rep.points}
        assert got == {
            ("spatial_+", "sink"),
            ("spatial_-", "sink"),
            ("frequency_+", "source"),
            ("frequency_-", "source"),
        }

    def test_schrodinger_source_sink(self):
        rep = find_radial_points(schrodinger_model(1), resolution=4)
        assert {(p.family, p.verdict) for p in rep.points} == {("out", "sink"), ("in", "source")}

    def test_every_named_model_scans(self):
        models = {
            H.named_model
            for H in (helmholtz_model(1.0, 2), klein_gordon_model(), schrodinger_model(),
                      d_x1_model(2), x_dx_model())
        }
        assert models == {m for m, _ in hamflow._SPECS}
        for m in models:
            assert any(spec.scan for (k, _), spec in hamflow._SPECS.items() if k == m), m

    def test_model_without_scan_raises(self):
        H = SymbolHamiltonian(lambda x, xi: np.sum(xi**2, axis=-1), None, {"dim": 2})
        with pytest.raises(NotImplementedError):
            find_radial_points(H, resolution=8)

    def test_empty_scan_reports_not_raises(self):
        # the d_x1 scan in a chart family with no zeros stays silent
        rep = find_radial_points(d_x1_model(2), resolution=3)
        assert isinstance(rep.points, list)


# the models behind each table entry with transverse slots, at the dimensions checked
TRANSVERSE_MODELS = {
    "helmholtz": [lambda: helmholtz_model(1.3, 2), lambda: helmholtz_model(0.7, 3)],
    "klein_gordon": [klein_gordon_model],
    "schrodinger_free": [lambda: schrodinger_model(1), lambda: schrodinger_model(2)],
    "d_x1": [lambda: d_x1_model(1), lambda: d_x1_model(2)],
    "x_dx": [x_dx_model],
}
TRANSVERSE_KEYS = [key for key, spec in hamflow._SPECS.items() if spec.transverse]
# rho of the difference probes: classify_radial's and _newton_polish's steps, and a wide one
PROBE_RHOS = (-1e-5, -1e-6, -3e-3)


def _reflected_transverse_field(spec, H, pt, s, idx, vec):
    """The former evaluation at rho < 0: the field at |rho|, its drho negated."""
    w = s.copy()
    w[idx] = vec
    neg = w[0] < 0
    if neg:
        w[0] = -w[0]
    out = hamflow._field(spec, H, pt, w)[idx]
    if neg:
        out[0] = -out[0]
    return out


def _reflection_mismatches(key, n_states, seed):
    """Random states on the face key at each PROBE_RHOS rho where _transverse_field
    and the reflected evaluation differ in a bit, sign bits included."""
    rng = np.random.default_rng(seed)
    makers = TRANSVERSE_MODELS[key[0]]
    spec = hamflow._SPECS[key]
    bad = 0
    for rho, k in itertools.product(PROBE_RHOS, range(n_states)):
        H = makers[k % len(makers)]()
        axis = int(rng.integers(H.dim)) if spec.projective else None
        sign = int(rng.choice([-1, 1]))
        coords = {}
        for name, (a, b, scalar) in hamflow._slots(spec, H.dim).items():
            v = rng.standard_normal(b - a)
            v[rng.random(b - a) < 0.2] = rng.choice([0.0, -0.0])  # zeros of either sign
            coords[name] = float(v[0]) if scalar else v
        coords["rho"] = 0.0
        pt = PhasePointChart(key[1], coords, axis, sign)
        _, s, idx = hamflow._transverse(H, pt)
        vec = s[idx].copy()
        vec[0] = rho
        new = hamflow._transverse_field(spec, H, pt, s, idx, vec)
        old = _reflected_transverse_field(spec, H, pt, s, idx, vec)
        bad += not (np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old)))
    return bad


class TestTransverseLinearization:
    def test_every_transverse_entry_has_models(self):
        assert {m for m, _ in TRANSVERSE_KEYS} == set(TRANSVERSE_MODELS)
        assert len(TRANSVERSE_KEYS) == 6

    @pytest.mark.parametrize("key", TRANSVERSE_KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
    def test_negative_rho_keeps_the_bits_of_the_reflection(self, key):
        # every face is affine in its moving slots: drho odd, the rest even in rho
        assert _reflection_mismatches(key, 200, seed=len(key[1])) == 0

    def test_a_drho_with_an_even_part_fails(self, monkeypatch):
        key = ("x_dx", "frequency_face")

        def even_part(H, rows, S, out):
            np.copyto(out, S)
            out[..., 0] += S[..., 0] ** 2

        monkeypatch.setitem(hamflow._SPECS, key, dataclasses.replace(hamflow._SPECS[key], field=even_part))
        assert _reflection_mismatches(key, 20, seed=0) == 3 * 20

    def test_saddle_verdict(self, monkeypatch):
        # x_dx's spatial face with the fiber field reversed: rates -1 and +1
        key = ("x_dx", "spatial_face")

        def field(H, rows, S, out):
            np.multiply(S, [-1.0, 1.0], out=out)

        monkeypatch.setitem(hamflow._SPECS, key, dataclasses.replace(hamflow._SPECS[key], field=field))
        pt = PhasePointChart("spatial_face", {"rho": 0.0, "xi": 0.0}, axis=0, sign=1)
        verdict, eigs = classify_radial(x_dx_model(), pt)
        assert verdict == "saddle"
        assert np.allclose(sorted(eigs.real), [-1.0, 1.0])

    def test_newton_polish_stops_at_a_singular_jacobian(self, monkeypatch):
        # drho = rho and dx = 1: the field never vanishes and the x column of
        # its Jacobian is exactly zero, so the first solve raises LinAlgError
        key = ("x_dx", "frequency_face")

        def field(H, rows, S, out):
            out[..., 0] = S[..., 0]
            out[..., 1] = 1.0

        monkeypatch.setitem(hamflow._SPECS, key, dataclasses.replace(hamflow._SPECS[key], field=field))
        pt = PhasePointChart("frequency_face", {"rho": 0.0, "x": 0.25}, axis=0, sign=1)
        polished = hamflow._newton_polish(x_dx_model(), pt)
        assert polished.coords == {"rho": 0.0, "x": 0.25}


class TestThresholdData:
    H = helmholtz_model(1.0, 2)

    def out_point(self):
        rep = find_radial_points(self.H, resolution=6)
        return [p for p in rep.points if p.family == "out"][0]

    def test_helmholtz_beta_values(self):
        p = self.out_point()
        b0, b1, th = threshold_data(self.H, p.point)
        xi = np.asarray(p.point.coords["xi"])
        assert b0 == pytest.approx(-abs(xi[p.point.axis]), rel=1e-6)
        assert b1 / b0 == pytest.approx(2.0, abs=1e-6)
        assert th == -0.5

    def test_in_point_opposite_sign_same_ratio(self):
        rep = find_radial_points(self.H, resolution=6)
        p_in = [p for p in rep.points if p.family == "in"][0]
        p_out = [p for p in rep.points if p.family == "out"][0]
        b0i, b1i, _ = threshold_data(self.H, p_in.point)
        b0o, b1o, _ = threshold_data(self.H, p_out.point)
        assert b0i > 0 > b0o
        assert b1i / b0i == pytest.approx(b1o / b0o, abs=1e-6)

    def test_chart_independence_of_ratio(self):
        # the same radial point seen in two overlapping charts
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
        assert b0a != pytest.approx(b0b, rel=1e-3)  # chart-scale quantities differ
        assert b1a / b0a == pytest.approx(b1b / b0b, abs=1e-6)

    def test_wave_operator_degenerate_gate(self):
        Hw = wave_model()
        pt = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 0.0, "xi": 0.0}, sign=1)
        verdict, eigs = classify_radial(Hw, pt)
        assert verdict == "degenerate"
        with pytest.raises(ThresholdDegeneracyError):
            threshold_data(Hw, pt)

    def test_no_transverse_slot_besides_rho(self):
        # d_x1 in one dimension: the spatial chart has no y slot, so the
        # quadratic defining function of the radial set is identically zero
        rep = find_radial_points(d_x1_model(1), resolution=3)
        assert {p.verdict for p in rep.points} == {"sink", "source"}
        for p in rep.points:
            with pytest.raises(ThresholdDegeneracyError, match="no transverse slot"):
                threshold_data(d_x1_model(1), p.point)

    def test_massive_kg_not_degenerate(self):
        H = klein_gordon_model(1.0)
        pt = PhasePointChart("kg_face", {"rho": 0.0, "v": 0.0, "tau": 1.0, "xi": 0.0}, sign=1)
        b0, b1, th = threshold_data(H, pt)
        assert b0 < 0 and b1 < 0 and th == -0.5


def _flow_case(dim, seed):
    """The 50 starts of the ``flow`` experiment at lambda = 1."""
    H = helmholtz_model(1.0, dim)
    return H, _flow_starts(H, 50, seed)


def _d_x1_case():
    """Four d_x1 starts on the x2 chart: y = x1/x2 moves at unit rate there, so
    every row hands over to the x1 chart; rho > 0 rows carry the rescaling of rho."""
    starts = [
        _spatial(rho, [y], [0.0, xi2], 1, sign)
        for rho, y, xi2, sign in [(0.0, 0.2, 0.5, 1), (0.1, -0.9, -1.0, 1),
                                  (0.05, 0.6, 0.3, -1), (0.0, -0.3, 0.0, -1)]
    ]
    return d_x1_model(2), starts


def _kg_case():
    """Four kg_face starts on both caps and both sheets."""
    starts = [
        PhasePointChart("kg_face", {"rho": rho, "v": v, "tau": tsheet * np.hypot(xi, 1.0),
                                    "xi": xi}, sign=sign)
        for rho, v, xi, tsheet, sign in [(0.0, 0.3, 0.5, 1, 1), (0.2, -0.4, -1.0, 1, -1),
                                         (0.1, 0.7, 0.2, -1, 1), (0.0, -0.1, 1.5, -1, -1)]
    ]
    return klein_gordon_model(1.0), starts


class TestFlowBatch:
    """The batched engine on the d_x1 and kg_face charts against their exact flows,
    and its input checks."""

    def test_d_x1_batch_switches_charts(self):
        H, starts = _d_x1_case()
        batch = hamflow.flow_batch(H, starts, 6.0, 0.01)
        assert set(batch.axes[0]) == {1} and np.any(batch.states[:, :, 0] > 0)
        states, axis, sign = _exact_boundary_flow(starts, 6.0, 0.01, _d_x1_step)
        assert set(axis) == {0} and np.array_equal(batch.axes[-1], axis)
        assert np.array_equal(batch.signs[-1], sign)
        assert np.max(np.abs(batch.states[-1] - states)) < 1e-9
        # a row does not depend on the rows batched with it
        for b, start in enumerate(starts):
            path = flow_trajectory(H, start, 6.0, 0.01)
            flat = [np.concatenate([[q.coords["rho"]], q.coords["y"], q.coords["xi"]])
                    for q in path]
            assert np.array_equal(batch.states[:, b], flat), b

    def test_kg_face_batch(self):
        # rho(t) = rho_0 e^{-2 sigma tau t} and v(t) = v_0 e^{-2 sigma tau t}; at
        # dt = 0.01 RK4's own error reaches 1.6e-7 relative by T = 3, at 0.001 1.5e-11
        H, starts = _kg_case()
        dt = 0.001
        batch = hamflow.flow_batch(H, starts, 3.0, dt)
        assert set(batch.axes.ravel()) == {-1}
        t = dt * np.arange(len(batch.states))
        for b, p in enumerate(starts):
            decay = np.exp(-2.0 * p.sign * p.coords["tau"] * t)
            rho_v = np.array([p.coords["rho"], p.coords["v"]])
            np.testing.assert_allclose(
                batch.states[:, b, :2], rho_v * decay[:, None], rtol=1e-9, atol=0
            )
            assert np.all(batch.states[:, b, 2:] == [p.coords["tau"], p.coords["xi"]])

    def test_large_step_rejected(self):
        H, starts = _flow_case(2, 0)
        with pytest.raises(ValueError):
            hamflow.flow_batch(H, starts, 1.0, 0.02)

    def test_off_characteristic_start_rejected(self):
        H, starts = _flow_case(2, 0)
        bad = _spatial(0.0, [0.3], [1.6, 1.2], 0, 1)
        with pytest.raises(ValueError):
            hamflow.flow_batch(H, starts[:3] + [bad], 1.0, 0.01)

    def test_non_tangent_field_rejected(self, monkeypatch):
        key = ("helmholtz", "spatial_face")
        bad = dataclasses.replace(hamflow._SPECS[key], field=lambda H, rows, S, out: out.fill(1.0))
        monkeypatch.setitem(hamflow._SPECS, key, bad)
        H, starts = _flow_case(2, 0)
        with pytest.raises(RuntimeError, match="not tangent"):
            hamflow.flow_batch(H, starts, 1.0, 0.01)

    @pytest.mark.parametrize("stage", [0, 1, 2, 3])
    def test_field_non_tangent_at_an_inner_stage_rejected(self, monkeypatch, stage):
        # tangent at every stage state but the given one of each step: the
        # guard runs once per step and must still see every stage, stage 0
        # being the step's own state
        key = ("helmholtz", "spatial_face")
        good, calls = hamflow._SPECS[key].field, itertools.count()

        def field(H, rows, S, out):
            good(H, rows, S, out)
            if next(calls) % 4 == stage:
                out[:, 0] = 1.0

        monkeypatch.setitem(hamflow._SPECS, key, dataclasses.replace(hamflow._SPECS[key], field=field))
        H, starts = _flow_case(2, 0)
        with pytest.raises(RuntimeError, match="not tangent"):
            hamflow.flow_batch(H, starts, 1.0, 0.01)

    def test_zero_step_rejected(self):
        H, starts = _flow_case(2, 0)
        with pytest.raises(ValueError, match="dt"):
            hamflow.flow_batch(H, starts, 1.0, 0.0)
        with pytest.raises(ValueError, match="dt"):
            flow_trajectory(H, starts[0], 1.0, 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="start"):
            hamflow.flow_batch(helmholtz_model(1.0, 2), [], 1.0, 0.01)


def _schrodinger_case():
    """Two schrodinger_time_face starts on both caps, one off the boundary."""
    starts = [
        PhasePointChart("schrodinger_time_face",
                        {"rho": rho, "y": np.array([y]), "tau": -xi**2, "xi": np.array([xi])},
                        sign=sign)
        for rho, y, xi, sign in [(0.0, 0.7, 0.3, 1), (0.2, -0.4, -0.5, -1)]
    ]
    return schrodinger_model(1), starts


def _kg_clamp_case():
    """kg_face starts with |tau| about 150: at dt = 0.01 the decaying rows'
    RK4 stages overshoot rho = 0, so flow_batch redoes their steps clamped."""
    starts = [
        PhasePointChart("kg_face", {"rho": rho, "v": v, "tau": tsheet * np.hypot(xi, 1.0),
                                    "xi": xi}, sign=sign)
        for rho, v, xi, tsheet, sign in [(0.3, 0.2, 150.0, 1, 1), (0.1, -0.1, -149.5, -1, -1),
                                         (0.0, 0.4, 150.5, 1, 1), (0.2, 0.3, 0.5, 1, 1)]
    ]
    return klein_gordon_model(1.0), starts


def _helmholtz_clamp_case():
    """Helmholtz at lambda = 250 from rho > 0: rho decays at rate |xi_j| up to
    240, so at dt = 0.01 some RK4 stages overshoot rho = 0."""
    lam = 250.0
    starts = [
        _spatial(rho, [y], lam * np.array(u), axis, sign)
        for rho, y, u, axis, sign in [(0.3, 0.2, [0.96, 0.28], 0, 1),
                                      (0.3, -0.5, [-0.6, 0.8], 1, 1),
                                      (0.05, 0.1, [0.6, 0.8], 0, 1),
                                      (0.0, 0.4, [0.28, -0.96], 0, -1)]
    ]
    return helmholtz_model(lam, 2), starts


def _oracle_helmholtz_spatial(H, rows, S):
    n, sigma = H.dim, rows.sign
    xi = S[:, n:][rows.take]
    F = np.zeros(S.shape)
    F[:, 0] = -sigma * xi[:, 0] * S[:, 0]
    F[:, 1:n] = sigma[:, None] * (xi[:, 1:] - S[:, 1:n] * xi[:, :1])
    return F


def _oracle_d_x1_spatial(H, rows, S):
    n, sigma = H.dim, rows.sign
    on_x1 = np.where(rows.axis == 0, 1.0, 0.0)
    ind = np.where(rows.take[1][:, 1:] == 0, 1.0, 0.0)
    F = np.zeros(S.shape)
    F[:, 0] = -sigma * on_x1 * S[:, 0]
    F[:, 1:n] = sigma[:, None] * (ind - S[:, 1:n] * on_x1[:, None])
    return F


def _oracle_kg_face(H, rows, S):
    c = -2.0 * rows.sign * S[:, 2]
    F = np.zeros(S.shape)
    F[:, :2] = np.stack([c * S[:, 0], c * S[:, 1]], axis=1)
    return F


def _oracle_schrodinger_time_face(H, rows, S):
    n, sigma = H.dim, rows.sign
    F = np.zeros(S.shape)
    F[:, 0] = -sigma * S[:, 0]
    F[:, 1:n] = sigma[:, None] * (2.0 * S[:, n + 1 :] - S[:, 1:n])
    return F


#: the boundary faces' fields in the closed forms they had before the table
#: read them as affine with per-row coefficients
ORACLE_FIELDS = {
    ("helmholtz", "spatial_face"): _oracle_helmholtz_spatial,
    ("d_x1", "spatial_face"): _oracle_d_x1_spatial,
    ("klein_gordon", "kg_face"): _oracle_kg_face,
    ("schrodinger_free", "schrodinger_time_face"): _oracle_schrodinger_time_face,
}


def _flow_batch_oracle(H, starts, T, dt):
    """The RK4 step loop of flow_batch before its stage buffers, on the fields
    of ORACLE_FIELDS: new arrays at every stage, the field recomputed from the
    stage state alone, the tangency guard at every stage, and axes and signs
    written at every step.  Returns (states, axes, signs) as flow_batch does."""
    spec, n = hamflow._spec(H, starts[0].chart), H.dim
    steps = int(round(abs(T / dt)))
    h = (np.sign(T) if T != 0 else 1.0) * abs(dt)

    def clamp(V):
        if spec.rho:
            V[V[:, 0] < 0.0, 0] = 0.0
        return V

    def fields(S):
        F = ORACLE_FIELDS[(H.named_model, starts[0].chart)](H, rows, S)
        if spec.rho and np.count_nonzero((S[:, 0] == 0.0) & (np.abs(F[:, 0]) > hamflow.TANGENCY_TOL)):
            raise RuntimeError("rescaled field is not tangent to the boundary")
        return F

    S = np.array([hamflow._flatten(spec, p) for p in starts])
    axis = np.array([-1 if p.axis is None else p.axis for p in starts])
    sign = np.array([p.sign for p in starts], dtype=float)
    rows = hamflow._Rows(axis, sign, hamflow._take(n, axis), ())
    states, axes, signs = [S], [axis.copy()], [sign.copy()]
    for _ in range(steps):
        k1 = fields(S)
        k2 = fields(clamp(S + h / 2 * k1))
        k3 = fields(clamp(S + h / 2 * k2))
        k4 = fields(clamp(S + h * k3))
        S = clamp(S + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        if spec.projective:
            U = np.abs(hamflow._direction(S, n, rows.take))
            switch = 1.0 / np.max(U, axis=1) < hamflow.SWITCH_LOW
            if switch.any():
                new_axis = np.argmax(U[switch], axis=1)
                S[switch], sign[switch] = hamflow._transition(
                    S[switch], n, axis[switch], sign[switch], new_axis
                )
                axis[switch] = new_axis
                rows.take[1][switch] = hamflow._order(n)[new_axis]
        states.append(S)
        axes.append(axis.copy())
        signs.append(sign.copy())
    return np.array(states), np.array(axes, dtype=np.int8), np.array(signs, dtype=np.int8)


ORACLE_CASES = {
    "helmholtz-2": (lambda: _flow_case(2, 0), 20.0, 0.01),
    "helmholtz-2-backward": (lambda: _flow_case(2, 0), -20.0, 0.01),
    "helmholtz-3": (lambda: _flow_case(3, 0), 20.0, 0.01),
    "helmholtz-3-backward": (lambda: _flow_case(3, 0), -20.0, 0.01),
    "d_x1": (_d_x1_case, 6.0, 0.01),
    "kg_face": (_kg_case, 3.0, 0.001),
    "schrodinger": (_schrodinger_case, 3.0, 0.01),
    "kg_face-clamped": (_kg_clamp_case, 1.0, 0.01),
    "helmholtz-clamped": (_helmholtz_clamp_case, 1.0, 0.01),
}


class TestFlowBatchOracle:
    """flow_batch bit for bit against its slow path."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bit_identical_to_the_step_loop_oracle(self, case):
        make, T, dt = ORACLE_CASES[case]
        H, starts = make()
        batch = hamflow.flow_batch(H, starts, T, dt)
        states, axes, signs = _flow_batch_oracle(H, starts, T, dt)
        assert np.array_equal(batch.states, states)
        assert np.array_equal(batch.axes, axes)
        assert np.array_equal(batch.signs, signs)

    def test_helmholtz_cases_switch_charts(self):
        for case in ("helmholtz-2", "helmholtz-2-backward", "helmholtz-3", "helmholtz-3-backward"):
            make, T, dt = ORACLE_CASES[case]
            axes = hamflow.flow_batch(*make(), T, dt).axes
            assert np.any(axes[-1] != axes[0]), case

    @pytest.mark.parametrize("case", ["kg_face-clamped", "helmholtz-clamped"])
    def test_clamped_cases_clamp(self, case):
        # rho decays geometrically in these flows, so only a clamp takes a row
        # that starts at rho > 0 to rho == 0 exactly
        make, T, dt = ORACLE_CASES[case]
        H, starts = make()
        rho = hamflow.flow_batch(H, starts, T, dt).states[:, :, 0]
        assert np.all(rho >= 0.0)
        assert np.any((rho[0] > 0.0) & np.any(rho == 0.0, axis=0))

    def test_oracle_covers_every_face_with_coefficients(self):
        faces = {key for key, spec in hamflow._SPECS.items() if spec.coef}
        assert set(ORACLE_FIELDS) == faces
        cases = set()
        for make, _, _ in ORACLE_CASES.values():
            H, starts = make()
            cases.add((H.named_model, starts[0].chart))
        assert cases == faces


def _others(n, axis):
    """Row b: the axes other than axis[b], in increasing order."""
    return np.array([[m for m in range(n) if m != j] for j in range(n)])[axis]


def _exact_boundary_flow(starts, T, dt, step):
    """Endpoints of a spatial-face flow at frozen xi, propagated exactly per step.

    ``step(rho, y, xi, axis, sign, h)`` is the chart's exact flow over one step
    h, returning (rho, y).  After each step the SWITCH_LOW rule moves a row to
    the chart of its dominant direction component.  Nothing here reads the
    chart table or the transition of hamflow.  Returns (flat states, axes,
    signs) of the last step.
    """
    n = len(starts[0].coords["xi"])
    h = np.sign(T) * dt
    rho = np.array([float(p.coords["rho"]) for p in starts])
    y = np.array([np.atleast_1d(p.coords["y"]) for p in starts], dtype=float)
    xi = np.array([p.coords["xi"] for p in starts], dtype=float)
    axis = np.array([p.axis for p in starts])
    sign = np.array([p.sign for p in starts])
    rows = np.arange(len(starts))
    for _ in range(int(round(abs(T / dt)))):
        rho, y = step(rho, y, xi, axis, sign, h)
        others = _others(n, axis)
        ray = np.ones((len(starts), n))  # direction ray: 1 on the axis, y elsewhere
        ray[rows[:, None], others] = y
        ratio = np.abs(ray[rows, axis]) / np.max(np.abs(ray), 1)
        for b in np.flatnonzero(ratio < hamflow.SWITCH_LOW):
            k = int(np.argmax(np.abs(ray[b])))
            rho[b] /= abs(ray[b, k])
            y[b] = np.delete(ray[b], k) / ray[b, k]
            sign[b] *= int(np.sign(ray[b, k]))
            axis[b] = k
    return np.column_stack([rho, y, xi]), axis, sign


def _helmholtz_step(rho, y, xi, axis, sign, h):
    # rho <- rho e^{-sigma xi_j h}, y <- y* + (y - y*) e^{-sigma xi_j h} with
    # y* = xi_others / xi_j
    rows = np.arange(len(rho))
    others = _others(xi.shape[1], axis)
    xi_j = xi[rows, axis]
    decay = np.exp(-sign * xi_j * h)
    y_star = xi[rows[:, None], others] / xi_j[:, None]
    return rho * decay, y_star + (y - y_star) * decay[:, None]


def _d_x1_step(rho, y, xi, axis, sign, h):
    # on the x1 chart rho and y scale by e^{-sigma h}; on the others rho stays
    # and the x1 slot of y (its first: the slots follow the other axes in
    # increasing order) moves by sigma h
    on_x1 = axis == 0
    decay = np.where(on_x1, np.exp(-sign * h), 1.0)
    y = y * decay[:, None]
    y[:, 0] += np.where(on_x1, 0.0, sign * h)
    return rho * decay, y


def _rk4_departure_from_exact(dim, seed, T=20.0):
    """Largest endpoint gap between the batched RK4 flow and the exact flow
    over the 50 ``flow`` starts (inf when a row ends in another chart)."""
    H, starts = _flow_case(dim, seed)
    batch = hamflow.flow_batch(H, starts, T, 0.01)
    states, axis, sign = _exact_boundary_flow(starts, T, 0.01, _helmholtz_step)
    if not (np.array_equal(batch.axes[-1], axis) and np.array_equal(batch.signs[-1], sign)):
        return np.inf
    return float(np.max(np.abs(batch.states[-1] - states)))


class TestExactBoundaryFlow:
    """RK4 on the Helmholtz spatial face against the closed-form flow."""

    @pytest.mark.parametrize("seed", [0, 1, 15])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rk4_endpoints_match_exact_flow(self, dim, seed):
        assert _rk4_departure_from_exact(dim, seed) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_backward_rk4_endpoints_match_exact_flow(self, dim):
        assert _rk4_departure_from_exact(dim, 0, T=-20.0) < 1e-9

    def test_switches_are_exercised(self):
        _, starts = _flow_case(2, 0)
        _, axis, _ = _exact_boundary_flow(starts, 20.0, 0.01, _helmholtz_step)
        assert np.any(axis != [p.axis for p in starts])

    def test_fails_without_chart_transition(self, monkeypatch):
        monkeypatch.setattr(hamflow, "_transition", lambda S, n, axis, sign, new_axis: (S, sign))
        assert not _rk4_departure_from_exact(2, 0) < 1e-9
