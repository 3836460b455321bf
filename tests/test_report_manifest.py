"""The report files that ``scatcalc`` writes at ``{}`` keep the bytes recorded in
``tests/report_digests.sha256``.

One subprocess, pinned to one BLAS thread (reports are byte-stable at a fixed
thread count), runs all ten experiments with ``--format json,csv``.  A change
that moves a report records the new digests, which ``python
tools/report_digests.py .`` prints, and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("report_digests.sha256")

RUN_ALL = """
import sys
from scatcalc.cli import _EXPERIMENTS, main
config, out = sys.argv[1:]
sys.exit(max(main([e, "--config", config, "--out", out, "--format", "json,csv"]) for e in _EXPERIMENTS))
"""


def test_reports_keep_their_recorded_bytes(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text("{}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(config), str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    recorded = {}
    for line in MANIFEST.read_text().splitlines():
        sha, name = line.split("  ")
        recorded[name] = sha
    assert sorted(found) == sorted(recorded)
    assert [n for n in sorted(found) if found[n] != recorded[n]] == []
