"""Self-tests of the benchmark's own logic (not of scatcalc).

    python3 perfbench/selftest.py

Covers the self-time arithmetic, seeded workload generation, the correctness
gate, the tracer's coverage check and the agreement of BENCHMARK.json with
the tables in this directory.  Runs in a few seconds; no workload pass runs.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # call [0, 10] > quantize [1, 4] > svd [2, 3]; quantize [5, 9]
        t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        with t.span("call"):
            with t.span("symbols.quantize"):
                with t.span("radon.probe_svd"):
                    pass
            with t.span("symbols.quantize"):
                pass
        self.assertEqual([s.parent for s in t.spans], [None, 0, 1, 0])
        self.assertEqual(tr.self_times(t.spans), [3, 2, 1, 4])
        m = tr.layer_metrics(t, wall_s=10.0)
        self.assertEqual(m["symbols.quantize_s"], 6)
        self.assertEqual(m["radon.probe_svd_s"], 1)
        self.assertEqual(m["trace.unaccounted_s"], 3)
        self.assertAlmostEqual(m["trace.accounted_share"], 0.7)

    def test_wrapped_calls_nest_and_count(self):
        t = tr.Tracer(clock=FakeClock(range(100)))
        inner = t.wrap(lambda x: x + 1, "grid.inner", tr._count("grid.mass_calls"))
        outer = t.wrap(lambda x: inner(x) * 2, "grid.outer")
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s.name, s.parent) for s in t.spans], [("grid.outer", None), ("grid.inner", 0)])
        self.assertEqual(t.counts["grid.mass_calls"], 1)


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WHY:
            for seed in (0, 7, 12345):
                self.assertEqual(workloads.calls(w, seed), workloads.calls(w, seed))
        self.assertNotEqual(workloads.calls("calculus", 0), workloads.calls("calculus", 1))

    def test_every_recorded_seed_has_results(self):
        for w in workloads.WHY:
            ref = _reference(w)
            self.assertEqual(len(ref["seeds"]), workloads.SEEDS)
            self.assertEqual(set(ref["results"]), {str(s) for s in ref["seeds"]})
            self.assertFalse(set(ref["results"]) & set(ref["skipped"]))
            for s in ref["seeds"]:
                names = [c.name for c in workloads.calls(w, s)]
                self.assertEqual(sorted(ref["results"][str(s)]), sorted(names))


def _reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def _passing_pass(workload="calculus", wseed=0):
    ref = _reference(workload)["results"][str(wseed)]
    calls = [
        {"name": name, "error": None, "metrics": copy.deepcopy(r["metrics"]),
         "criteria": {k: True for k in r["criteria"]}, "report_sha256": name}
        for name, r in ref.items()
    ]
    return {"calls": calls}, ref


class Gate(unittest.TestCase):
    def test_reference_passes(self):
        p, ref = _passing_pass()
        attempted, failed, problems = run.gate([p, copy.deepcopy(p)], ref)
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(attempted, 2 * len(ref))

    def test_injected_wrong_metric_fails(self):
        p, ref = _passing_pass()
        call = next(c for c in p["calls"] if c["name"] == "parametrix_ladder")
        call["metrics"]["residual_N3"] *= 1 + 1e-4
        attempted, failed, problems = run.gate([p], ref)
        self.assertGreater(failed / attempted, 0)
        self.assertIn("residual_N3", problems[0])

    def test_within_tolerance_passes(self):
        p, ref = _passing_pass()
        call = next(c for c in p["calls"] if c["name"] == "parametrix_ladder")
        call["metrics"]["residual_N3"] *= 1 + 0.1 * run.RTOL
        self.assertEqual(run.gate([p], ref)[1], 0)

    def test_false_criterion_raise_and_byte_drift_fail(self):
        p, ref = _passing_pass()
        q = copy.deepcopy(p)
        q["calls"][0]["criteria"] = dict.fromkeys(q["calls"][0]["criteria"], False)
        q["calls"][1] = {"name": q["calls"][1]["name"], "error": "Traceback: boom"}
        q["calls"][2]["report_sha256"] = "different bytes"
        attempted, failed, _ = run.gate([p, q], ref)
        self.assertEqual(failed, 3)


class Coverage(unittest.TestCase):
    def test_every_target_exists(self):
        self.assertEqual(tr.install(tr.Tracer()), [])

    def test_renamed_function_is_reported(self):
        gone = tr.Target("hamflow", "flow_trajectory_renamed", "hamflow.flow_trajectory")
        self.assertEqual(tr.install(tr.Tracer(), (gone,)), ["hamflow.flow_trajectory_renamed"])
        problems = tr.coverage_problems("flow", {}, ["hamflow.flow_trajectory_renamed"])
        self.assertIn("wrapped name no longer exists: hamflow.flow_trajectory_renamed", problems)

    def test_empty_metric_on_its_workload_is_reported(self):
        full = {m.name: 1.0 for m in tr.LAYER_METRICS}
        self.assertEqual(tr.coverage_problems("radon", full, []), [])
        full["radon.phi_hat_evals"] = 0.0
        self.assertEqual(tr.coverage_problems("radon", full, []),
                         ["per-layer metric radon.phi_hat_evals is empty on workload radon"])
        self.assertEqual(tr.coverage_problems("flow", full, []), [])


class BenchmarkFile(unittest.TestCase):
    def test_matches_tables(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(m.name, m.unit, m.better) for m in tr.LAYER_METRICS])
        for m in tr.LAYER_METRICS:
            self.assertTrue(set(m.workloads) <= set(workloads.WHY), m.name)


if __name__ == "__main__":
    unittest.main()
