"""Smoke test of ``tools/report_digests.py`` on two short experiments."""

import hashlib
import importlib.util
from pathlib import Path

from scatcalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_digests_are_those_of_the_reports(tmp_path, monkeypatch, capsys):
    # each experiment runs in a fresh process; its files hash as the in-process run's do
    monkeypatch.setattr(report_digests, "EXPERIMENTS", ("var-order", "scatter1d"))
    assert report_digests.main([str(ROOT)]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        sha, root, name = line.split("  ")
        assert root == str(ROOT)
        printed[name] = sha
    (tmp_path / "cfg.json").write_text("{}")
    for exp in ("var-order", "scatter1d"):
        out = tmp_path / exp
        cfg = str(tmp_path / "cfg.json")
        assert main([exp, "--config", cfg, "--out", str(out), "--format", "json,csv"]) == 0
        for path in out.iterdir():
            assert printed.pop(path.name) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert not printed


def test_lists_the_files_that_differ(monkeypatch, capsys):
    tables = {"a": {"x.json": "1" * 64, "y.csv": "2" * 64}, "b": {"x.json": "1" * 64}}
    monkeypatch.setattr(report_digests, "digests", lambda root, exps, work: (tables[root.name], []))
    assert report_digests.main(["a", "b"]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 files differ between roots" in out
    assert "differs: y.csv  (a: 222222222222, b: missing)" in out
