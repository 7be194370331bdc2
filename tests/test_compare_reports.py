"""``scripts/compare_reports.py`` reads only the report of the run it made."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)

STALE = '{"records": [], "verdict": "PASS"}'


def test_a_run_that_raises_is_failed_not_read_from_a_stale_report(tmp_path, capsys):
    # an uncaught exception exits 1, the code of a failed check, and writes
    # no report: the previous configuration's file must not stand in for it
    package = tmp_path / "src" / "kreinmod"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("raise RuntimeError('cli crashed')\n")
    path = tmp_path / "report.json"
    path.write_text(STALE)
    args = ["check", "tensor", "--samples", "1"]
    assert compare_reports.run_report(str(package.parent), args, str(path)) is None
    assert not path.exists()
    out = capsys.readouterr().out
    assert "exit 1" in out and "cli crashed" in out


def test_a_run_replaces_a_stale_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(STALE)
    args = ["demo", "torus", "--samples", "1"]
    text = compare_reports.run_report(str(compare_reports.SRC), args, str(path))
    assert json.loads(text)["title"] == "demo: torus"
