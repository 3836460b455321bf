"""SHA-256 digests of the report files that ``scatcalc`` writes at ``{}``.

Each experiment runs as ``python -m scatcalc.cli <exp> --config {} --format
json,csv`` in a fresh process with ``OPENBLAS_NUM_THREADS=1`` (reports are
byte-stable at a fixed BLAS thread count), once per checkout root, with
``<root>/src`` first on ``PYTHONPATH``.  Every file is printed with its digest;
given two or more roots, the files whose bytes differ between them, or that
some root did not write, are listed after.

    python tools/report_digests.py ROOT [ROOT ...]

Exit status: 0 when every run wrote its report and all roots agree, 1 when a
file differs or is missing, 2 when a run exited with neither 0 nor 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from scatcalc.cli import _EXPERIMENTS  # noqa: E402

#: The experiments of this checkout's ``scatcalc.cli``, in the order they are run.
EXPERIMENTS = tuple(_EXPERIMENTS)


def digests(root: Path, experiments, work: Path) -> tuple[dict, list]:
    """({file name: sha256}, [failed runs]) of one checkout root."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    config = work / "config.json"
    config.write_text("{}")
    found, failed = {}, []
    for exp in experiments:
        out = work / exp
        run = subprocess.run(
            [sys.executable, "-m", "scatcalc.cli", exp, "--config", str(config),
             "--out", str(out), "--format", "json,csv"],
            env=env, cwd=work, capture_output=True, text=True,
        )
        if run.returncode not in (0, 1):
            failed.append(f"{exp} exited {run.returncode}: {run.stderr.strip()[-500:]}")
        for path in sorted(out.glob("*")):
            found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("roots", nargs="+", type=Path, help="checkout roots (each holds src/scatcalc)")
    args = ap.parse_args(argv)
    table, failed = {}, []
    for root in args.roots:
        with tempfile.TemporaryDirectory() as work:
            table[root], bad = digests(root.resolve(), EXPERIMENTS, Path(work))
        failed += [f"{root}: {line}" for line in bad]
        for name, sha in table[root].items():
            print(f"{sha}  {root}  {name}")
    names = sorted(set().union(*table.values()))
    differ = [n for n in names if len({table[r].get(n) for r in args.roots}) > 1]
    if len(args.roots) > 1:
        print(f"{len(differ)} of {len(names)} files differ between roots" + ("" if differ else "."))
        for name in differ:
            print(f"differs: {name}  (" + ", ".join(
                f"{r}: {table[r].get(name, 'missing')[:12]}" for r in args.roots) + ")")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 2 if failed else 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
