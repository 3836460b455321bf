"""Record the reference metrics of every (workload, seed) from the current code.

    python3 perfbench/record.py

Writes ``perfbench/reference/<workload>.json`` for every workload, one seed
after another: the first ``workloads.SEEDS`` experiment seeds on which every
call passes its criteria, each call's metrics and criterion names for each of
them, and the seeds skipped with the reason (for ``flow``, a random start can
lie so close to the source that its trajectory has not reached the sink at the
default end time).  A call that raises stops the recording.  Run it only when
the program's results are meant to change, and say so where the change is
described: the benchmark compares every later run against these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import ROOT, Runner  # noqa: E402


def record_one(workload: str, wseed: int):
    """(reference of one seed, None), or (None, why) when a criterion fails."""
    run_dir = ROOT / ".bench_build" / "perfbench" / f"record-{workload}-{wseed}"
    try:
        body = Runner(workload, wseed, run_dir, time.monotonic() + 600).spawn()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if "crashed" in body:
        raise RuntimeError(f"{workload} seed {wseed}: {body['crashed']}")
    out = {}
    for call in body["calls"]:
        if call["error"]:
            raise RuntimeError(f"{workload} seed {wseed}: {call['name']} raised:\n{call['error']}")
        false = sorted(k for k, ok in call["criteria"].items() if not ok)
        if false:
            why = f"{call['name']}: {', '.join(false)} false; metrics {call['metrics']}"
            print(f"{workload} seed {wseed}: skipped, {why}", flush=True)
            return None, why
        out[call["name"]] = {"metrics": call["metrics"], "criteria": sorted(call["criteria"])}
    print(f"{workload} seed {wseed}: wall {body['wall_s']:.2f} s", flush=True)
    return out, None


def record(workload: str) -> dict:
    """The first ``SEEDS`` seeds on which every call passes, with their results."""
    results, skipped, s = {}, {}, 0
    while len(results) < workloads.SEEDS:
        res, why = record_one(workload, s)
        if why is None:
            results[str(s)] = res
        else:
            skipped[str(s)] = why
        s += 1
    return {"seeds": sorted(int(s) for s in results), "skipped": skipped, "results": results}


def main() -> int:
    for w in sorted(workloads.WHY):
        ref = record(w)
        (HERE / "reference" / f"{w}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
