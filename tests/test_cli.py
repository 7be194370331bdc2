import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kreinmod
from kreinmod import cli
from kreinmod.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_USAGE,
    SEED_ENV_VAR,
    main,
)


class TestExitCodes:
    def test_passing_check(self, capsys):
        assert main(["check", "krein-algebra", "--samples", "10"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_demo_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "nonsense"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_samples_is_usage_error(self, capsys):
        assert main(["check", "module", "--samples", "0"]) == EXIT_USAGE

    def test_budget_exceeded(self, capsys):
        code = main(
            ["check", "clifford", "--p", "6", "--q", "6", "--samples", "1"]
        )
        assert code == EXIT_RESOURCE

    def test_exit_codes_are_distinct(self):
        codes = {EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_RESOURCE, EXIT_ERROR}
        assert len(codes) == 5

    def test_crash_is_not_a_failed_check(self, monkeypatch, tmp_path, capsys):
        def crash(config):
            raise RuntimeError("scenario crashed")

        monkeypatch.setattr(cli, "run", crash)
        path = tmp_path / "report.json"
        args = ["check", "module", "--samples", "5", "--report", str(path)]
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: scenario crashed" in err
        assert not path.exists()


class TestParameterRanges:
    # a value outside its range is a usage error: exit 2 and one error line

    @staticmethod
    def assert_usage_error(args, capsys):
        assert main(args + ["--samples", "5", "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["check", "krein-algebra"], ["demo", "torus"]]
    )
    def test_non_finite_tol(self, command, tol, capsys):
        self.assert_usage_error(command + ["--tol", tol], capsys)

    @pytest.mark.parametrize(
        "scenario", ["krein-algebra", "module", "module-over-krein", "tensor"]
    )
    def test_empty_signature(self, scenario, capsys):
        self.assert_usage_error(["check", scenario, "--p", "0", "--q", "0"], capsys)

    @pytest.mark.parametrize("scenario", ["clifford", "spinor", "full-gallery"])
    def test_empty_signature_still_runs(self, scenario, capsys):
        args = ["check", scenario, "--p", "0", "--q", "0", "--samples", "5"]
        assert main(args + ["--quiet"]) == EXIT_PASS

    @pytest.mark.parametrize(
        "args",
        [["check", "module", "--seed", "-1"], ["demo", "torus", "--seed", "-2"]],
    )
    def test_negative_seed_flag(self, args, capsys):
        self.assert_usage_error(args, capsys)

    def test_negative_seed_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        self.assert_usage_error(["check", "krein-algebra"], capsys)

    @pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "dir"])
    def test_unwritable_report_path(self, monkeypatch, missing, tmp_path, capsys):
        # a usage error that names the path, not a traceback and exit 1, and
        # refused before the run, creating nothing
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", refuse)
        monkeypatch.setattr(cli, "run_demo", refuse)
        path = str(tmp_path / "absent" / "r.json" if missing else tmp_path)
        for command in (["check", "krein-algebra"], ["demo", "torus"]):
            args = command + ["--samples", "2", "--report", path]
            assert main(args + ["--quiet"]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and path in err
        assert os.listdir(tmp_path) == []

    def test_odd_spinor_dimension(self, capsys):
        # a usage error even where the byte budget would refuse the size
        self.assert_usage_error(["check", "spinor", "--p", "9", "--q", "8"], capsys)


def _child_run(args):
    """Exit code, wall seconds and peak RSS (bytes) of a child interpreter.

    The child gets one BLAS thread, 2 GiB of address space and 60 s of CPU,
    so that a size the guard wrongly admits fails instead of filling memory.
    """
    src = str(Path(kreinmod.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, preexec_fn=limit,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait4 reaps the child and returns its own rusage; tell Popen it is done
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss * 1024


class TestBudgetRefusal:
    # each size is past the byte budget; the refusal must come before any
    # array of the scenario is allocated
    @pytest.mark.parametrize(
        "scenario, p, q",
        [
            ("krein-algebra", 1000, 1000),
            ("module", 2500, 2500),
            ("module-over-krein", 10, 10),
            ("clifford", 7, 6),
            ("spinor", 7, 7),
            ("tensor", 40, 40),
        ],
    )
    def test_refused_at_import_footprint(self, scenario, p, q):
        _, _, baseline = _child_run(["-c", "import kreinmod.cli"])
        code, wall, peak = _child_run(
            ["-m", "kreinmod.cli", "check", scenario, "--p", str(p), "--q", str(q)]
        )
        assert code == EXIT_RESOURCE
        assert wall < 10
        assert peak - baseline <= 10 * 2**20


class TestSeedPrecedence:
    def test_env_var_used_when_no_flag(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        path = tmp_path / "report.json"
        main(
            [
                "check",
                "krein-algebra",
                "--samples",
                "5",
                "--quiet",
                "--report",
                str(path),
            ]
        )
        assert json.loads(path.read_text())["seed"] == 7

    def test_flag_beats_env_var(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        path = tmp_path / "report.json"
        main(
            [
                "check",
                "krein-algebra",
                "--seed",
                "11",
                "--samples",
                "5",
                "--quiet",
                "--report",
                str(path),
            ]
        )
        assert json.loads(path.read_text())["seed"] == 11

    def test_default_seed_is_42(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(
            [
                "check",
                "krein-algebra",
                "--samples",
                "5",
                "--quiet",
                "--report",
                str(path),
            ]
        )
        assert json.loads(path.read_text())["seed"] == 42

    def test_garbage_env_var_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["check", "module", "--samples", "5"]) == EXIT_USAGE


class TestOutput:
    def test_quiet_suppresses_text(self, capsys):
        main(["check", "krein-algebra", "--samples", "5", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_report_round_trips_as_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(
            [
                "check",
                "module",
                "--samples",
                "5",
                "--quiet",
                "--report",
                str(path),
            ]
        )
        data = json.loads(path.read_text())
        assert data["verdict"] == "pass"
        assert data["schema_version"] == 1
        assert all("max_violation" in r for r in data["records"])

    def test_report_is_byte_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", "full-gallery", "--samples", "10", "--quiet"]
        main(args + ["--report", str(p1)])
        main(args + ["--report", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_demo_prints_narrative(self, capsys):
        assert main(["demo", "torus", "--samples", "10"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "16" in out and "verdict: pass" in out

    def test_list_names_everything(self, capsys):
        assert main(["list"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "full-gallery" in out and "minkowski" in out


class TestFullnessAtLowSamples:
    # fullness is decided from the full pairing tensors, so it must not
    # depend on --samples being at least the algebra dimension
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "module-over-krein", "--samples", "3"],
            ["check", "module-over-krein", "--p", "2", "--q", "2", "--samples", "3"],
            ["check", "spinor", "--p", "1", "--q", "3", "--samples", "10"],
            ["demo", "spinor-m4", "--samples", "10"],
        ],
    )
    def test_exits_zero(self, args, capsys):
        assert main(args + ["--quiet"]) == EXIT_PASS


class TestImportGraph:
    def test_cli_import_loads_no_scipy(self):
        # scipy costs ~0.2 s and ~28 MB at every cold start; kreinmod needs
        # only numpy at run time
        src = str(Path(kreinmod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, kreinmod.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestBlasThreads:
    def test_report_identical_across_blas_threads(self, tmp_path):
        # stacked products are the first to reach sizes where BLAS may split
        # work between threads; the canonical report must not notice
        src = str(Path(kreinmod.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
            )
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            path = tmp_path / f"threads-{threads}.json"
            args = ["check", "full-gallery", "--samples", "5", "--quiet"]
            subprocess.run(
                [sys.executable, "-m", "kreinmod.cli", *args, "--report", str(path)],
                env=env, check=True,
            )
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
