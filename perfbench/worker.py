"""One pass of a workload in a fresh interpreter, as a ``scatcalc`` user runs it.

Spawned by ``run.py``; not meant to be run by hand.  The worker imports
numpy, scipy and every scatcalc module, loads the experiment configs, and
records the moment it is ready for its first call (``setup``).  Unless told to
stop there, it then runs every call of the pass, writes each report with
``cli.emit_report``, and writes a JSON result: per call the metrics, criteria,
error and the SHA-256 of the report bytes, plus the pass wall time and peak
resident memory.  With ``--trace 1`` it wraps the modules' public functions
first and adds the per-layer metrics and the span file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np


def _plain(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    return float(v)


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy loaded."""
    import ctypes
    import glob
    import os

    import scipy

    out = {}
    for pkg, sym in ((np, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                out[pkg.__name__] = int(fn())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--wseed", type=int, required=True)
    ap.add_argument("--configs", required=True, help="directory of <call>.json configs")
    ap.add_argument("--out", required=True, help="report directory of this pass")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    import scatcalc  # noqa: F401  (imports every scatcalc module)
    from scatcalc import cli

    import workloads

    calls = workloads.calls(args.workload, args.wseed)
    configs = {
        c.name: cli.load_config(Path(args.configs) / f"{c.name}.json", c.experiment)
        for c in calls
        if c.experiment
    }
    ready = time.monotonic()
    result_path = Path(args.result)
    if args.setup_only:
        result_path.write_text(json.dumps({"ready": ready}))
        return 0

    tracer, missing = None, []
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
    out_dir = Path(args.out)
    results = []
    t_first, cpu_first = time.perf_counter(), time.process_time()
    for c in calls:
        if tracer is not None:
            tracer.call = c.name
        with tracer.span("call", name=c.name) if tracer else nullcontext():
            results.append(_run_call(c, configs, out_dir, cli, workloads, tracer))
    wall_s, cpu_s = time.perf_counter() - t_first, time.process_time() - cpu_first
    for r in results:
        if r["error"] is None:
            r["report_sha256"] = hashlib.sha256(Path(r.pop("report")).read_bytes()).hexdigest()

    body = {
        "ready": ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": results,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")},
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        body["layers"] = layer_metrics(tracer, wall_s)
        body["missing"] = missing
        body["spans"] = len(tracer.spans)
        if args.spans:
            Path(args.spans).write_text(json.dumps([s.as_row() for s in tracer.spans]))
    result_path.write_text(json.dumps(body))
    return 0


def _run_call(c, configs, out_dir, cli, workloads, tracer) -> dict:
    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    try:
        if c.experiment:
            cfg = configs[c.name]
            cfg.output_dir = str(out_dir)
            report = cli.run_experiment(cfg)
        else:
            metrics, criteria = workloads.SYMBOL_CALLS[c.name](c.params, span)
            report = cli.RunReport(experiment=c.name, parameters=dict(c.params),
                                   metrics=metrics, criteria=criteria)
        report_path = str(cli.emit_report(report, out_dir)[0])
    except Exception:  # a failed call is counted, and the pass goes on
        return {"name": c.name, "error": traceback.format_exc(limit=3)}
    return {
        "name": c.name,
        "error": None,
        "metrics": {k: _plain(v) for k, v in report.metrics.items()},
        "criteria": {k: bool(v) for k, v in report.criteria.items()},
        "report": report_path,
    }


if __name__ == "__main__":
    raise SystemExit(main())
