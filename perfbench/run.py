"""scatcalc benchmark: run one workload, check every result, print its metrics.

    python3 perfbench/run.py --workload flow --seed 3 --seconds 10 --trace 0

Run from the root of a scatcalc checkout (the program is used from ``src/``).
Each pass runs in a fresh interpreter, as a ``scatcalc`` CLI user runs it.
With ``--trace 0`` the run prints the end-to-end metrics ``setup_s``,
``wall_s`` and ``peak_rss_mb`` (medians over the run's samples); with
``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics of ``tracer.LAYER_METRICS``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Every call is checked: it must not raise, all its criteria must hold, its
metrics must match the reference recorded for its (workload, seed) within
``RTOL``/``ATOL``, and passes of one seed must write byte-identical reports.
A workload whose pass outlasts ``--seconds`` makes one untraced pass, so its
byte check runs in the traced run (untraced pass against traced pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a reference metric matches when |value - ref| <= RTOL * |ref| + ATOL
RTOL = 1e-6
ATOL = 1e-10
#: BLAS threads of every pass: fixed, so OpenBLAS does not pick its own
BLAS_THREADS = 1
#: setup_s is the median of at least this many fresh interpreters per run
SETUP_SAMPLES = 7
#: a run is cut (its remaining calls counted as failed) after this long
RUN_LIMIT_S = 165.0


def reference_problems(call: dict, ref: dict | None) -> list[str]:
    """Why one call's result fails the gate (empty when it passes)."""
    name = call["name"]
    if call.get("error"):
        return [f"{name}: raised\n{call['error']}"]
    problems = [f"{name}: criterion {k} is false" for k, ok in call["criteria"].items() if not ok]
    if ref is None:
        return problems + [f"{name}: no reference recorded"]
    if set(call["criteria"]) != set(ref["criteria"]):
        problems.append(f"{name}: criteria {sorted(call['criteria'])} != reference {ref['criteria']}")
    got, want = call["metrics"], ref["metrics"]
    if set(got) != set(want):
        problems.append(f"{name}: metric names {sorted(got)} != reference {sorted(want)}")
    for k in sorted(set(got) & set(want)):
        a, b = got[k], want[k]
        if isinstance(b, (str, bool)) or isinstance(a, (str, bool)):
            ok = a == b
        else:
            ok = abs(a - b) <= RTOL * abs(b) + ATOL
        if not ok:
            problems.append(f"{name}: metric {k} = {a!r}, reference {b!r}")
    return problems


def gate(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every call of every pass.

    A call fails when it raises, a criterion is false, a metric leaves its
    reference, or its report bytes differ from an earlier pass of the run.
    """
    attempted, failed, problems, digests = 0, 0, [], {}
    for p in passes:
        for call in p["calls"]:
            attempted += 1
            bad = reference_problems(call, reference.get(call["name"]))
            sha = call.get("report_sha256")
            if sha is not None and digests.setdefault(call["name"], sha) != sha:
                bad.append(f"{call['name']}: report bytes differ between passes of one seed")
            if bad:
                failed += 1
                problems.extend(bad)
    return attempted, failed, problems


def _configs(workload: str, wseed: int, cfg_dir: Path):
    """Each experiment's config file: every default, and the seed."""
    import workloads

    cfg_dir.mkdir(parents=True, exist_ok=True)
    for c in workloads.calls(workload, wseed):
        if c.experiment:
            (cfg_dir / f"{c.name}.json").write_text(json.dumps({"seed": wseed}))


class Runner:
    """Spawns the worker processes of one run and collects their results."""

    def __init__(self, workload: str, wseed: int, run_dir: Path, deadline: float):
        self.workload, self.wseed, self.run_dir, self.deadline = workload, wseed, run_dir, deadline
        self.env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        }
        self.count = 0
        _configs(workload, wseed, run_dir / "configs")

    def spawn(self, *, setup_only=False, trace=0) -> dict:
        """Run one worker; its result plus ``setup_s``, or ``{"crashed": ...}``."""
        self.count += 1
        tag = f"w{self.count}"
        result = self.run_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--wseed", str(self.wseed),
            "--configs", str(self.run_dir / "configs"), "--out", str(self.run_dir / tag),
            "--result", str(result), "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(ROOT / ".bench_build" / "perfbench" / f"spans-{self.workload}.json")]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return {"crashed": "pass exceeded the run's time limit"}
        if proc.returncode != 0 or not result.exists():
            return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        body = json.loads(result.read_text())
        body["setup_s"] = body["ready"] - t0
        return body


def machine_facts(sample: dict) -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": sample.get("blas_threads"),
        "python": platform.python_version(),
        **sample.get("versions", {}),
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
        "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: print its metrics by name and return the result object."""
    import tracer as tr
    import workloads

    start = time.monotonic()
    ref = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    wseed = ref["seeds"][seed % len(ref["seeds"])]
    reference = ref["results"][str(wseed)]

    run_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workload, wseed, run_dir, start + RUN_LIMIT_S)
    try:
        if trace:
            passes = [runner.spawn(), runner.spawn(trace=1)]
        else:  # passes start until `seconds` are spent; the last may overrun
            t0 = time.monotonic()
            passes = [runner.spawn()]
            while "crashed" not in passes[-1] and time.monotonic() - t0 < seconds:
                passes.append(runner.spawn())
        setups = [] if trace else [runner.spawn(setup_only=True)
                                   for _ in range(SETUP_SAMPLES - len(passes))]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    expected = [c.name for c in workloads.calls(workload, wseed)]
    crashed = [p["crashed"] for p in setups + passes if "crashed" in p]
    for p in passes:
        if "crashed" in p:  # every call of a crashed pass counts as failed
            p["calls"] = [{"name": n, "error": p["crashed"]} for n in expected]
    attempted, failed, problems = gate(passes, reference)
    problems += [f"worker crashed: {c}" for c in crashed]

    ok_passes = [p for p in passes if "wall_s" in p]
    setup_vals = [p["setup_s"] for p in setups + passes if "setup_s" in p]
    print(f"workload {workload}  seed {seed} (inputs of seed {wseed})  "
          f"passes {len(passes)}  setups {len(setup_vals)}  trace {trace}")
    for s, why in sorted(ref["skipped"].items(), key=lambda kv: int(kv[0])):
        print(f"known failure, skipped by the seed mapping: experiment seed {s}: {why}")
    print("machine " + json.dumps(machine_facts(ok_passes[0] if ok_passes else {}), sort_keys=True))
    metrics = {}
    if trace:
        if len(ok_passes) == 2:
            untraced, traced = ok_passes
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            per_span = tr.span_cost_s()
            problems += tr.coverage_problems(workload, layers, traced["missing"])
            for m in tr.LAYER_METRICS:
                metrics[m.name] = {"value": layers[m.name], "unit": m.unit}
                note = "  (computed)" if m.name in tr.COMPUTED else ""
                print(f"  {m.name:36s} {layers[m.name]:14.6g} {m.unit}{note}")
            print(f"  untraced wall_s {untraced['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s; "
                  f"trace.overhead_s is one pair of passes and carries the run-to-run noise of wall_s")
            print(f"  span bookkeeping alone: {traced['spans']} spans x "
                  f"{per_span * 1e6:.2f} us = {per_span * traced['spans']:.4f} s")
        else:
            problems.append("traced run incomplete")
    else:
        for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")):
            vals = [p[name] for p in (setups + passes if name == "setup_s" else ok_passes) if name in p]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
                print(f"  {name:12s} {statistics.median(vals):12.6g} {unit}  median of {len(vals)}")
            else:
                problems.append(f"no sample of {name}")
        if ok_passes:  # process CPU time of the same span as wall_s, for comparison
            print(f"  {'cpu_s':12s} {statistics.median(p['cpu_s'] for p in ok_passes):12.6g} s")
    share = failed / attempted if attempted else 1.0
    print(f"  {'failed_share':12s} {share:12.6g} share  ({failed} of {attempted} calls failed)")
    for line in problems:
        print("FAIL " + line)
    return {"correct": not problems and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scatcalc benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if not (ROOT / "src" / "scatcalc" / "__init__.py").is_file():
        print(f"error: no scatcalc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WHY):
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WHY)} or all",
              file=sys.stderr)
        return 2
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if len(results) == 1:
        out = results[names[0]]
    else:  # one object for all workloads; metric names gain a workload prefix
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
