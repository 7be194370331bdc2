"""Benchmark of the krein-check verifier, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S]
    python3 perfbench/run.py --self-check

Every timed krein-check run happens in a fresh interpreter (worker.py), as
every real ``krein-check`` call does, so nothing cached between runs in one
process can help a result.  BLAS is pinned to one thread.  All runs within one
invocation use the same seed, so their canonical JSON reports must be
byte-identical.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
MIN_RUNS times) and reports the end-to-end metrics of BENCHMARK.json as
medians.  On a shared 2-vCPU Intel Xeon VM the machine's speed drifts by up
to a third over minutes, in step for kreinmod and for any other code, so
``setup_s`` and ``run_s`` are wall seconds scaled to reference speed: each is
multiplied by REFERENCE_PROBE_S over the wall time of a fixed probe
(worker.probe, no kreinmod code) timed in the same process right next to it.
The unscaled wall times are printed beside them.  ``--trace 1`` alternates an
untraced run with a traced one, in which every public function of the layers
is wrapped (tracing.py), and reports the per-layer metrics of BENCHMARK.json
plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
the check records of every run; ``failed`` counts records that FAIL
unexpectedly plus negative controls that did not fire, and a run that exits 2
or 3, or misses an expected record, counts as entirely failed.  The exit code
is 1 when an output check fails (wrong record names, a negative control that
did not fire, verdicts inconsistent with the reported violations, or
same-seed reports that differ) and 2 when the checkout holds no kreinmod
sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# krein-check arguments per workload: (benchmark size, smallest size for --self-check)
WORKLOADS = {
    # all six scenarios at d <= 16: per-sample Python overhead and tiny SVDs,
    # no dominant kernel
    "gallery": (
        ["full-gallery", "--samples", "100"],
        ["full-gallery", "--samples", "5"],
    ),
    # ~90% in adjoint_residual's Kronecker-sized lstsq; no clifford or
    # correspondence
    "module-krein-2x2": (
        ["module-over-krein", "--p", "2", "--q", "2", "--samples", "20"],
        ["module-over-krein", "--p", "1", "--q", "1", "--samples", "5"],
    ),
    # N = 64: blade-tensor rebuilds in clifford_action, the 64 x 4096
    # KreinCStarAlgebra SVD and pinv, operator_norm at _SVD_DIM_LIMIT
    "clifford-3x3": (
        ["clifford", "--p", "3", "--q", "3", "--samples", "20"],
        ["clifford", "--p", "1", "--q", "1", "--samples", "5"],
    ),
    # one large internal_tensor inside spinor_factorization_check; at 10
    # samples it carries the known false FAIL "morita: left products full"
    "spinor-3x3": (
        ["spinor", "--p", "3", "--q", "3", "--samples", "10"],
        ["spinor", "--p", "1", "--q", "1", "--samples", "5"],
    ),
}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_RUNS = 3  # untraced runs per invocation: a median, and a determinism check
MIN_SETUP_SAMPLES = 7
REFERENCE_PROBE_S = 0.1  # worker.probe() at the speed times are scaled to
CHILD_TIMEOUT_S = 170


class Runner:
    """Starts worker.py processes, one at a time, with their result and report
    files in a scratch directory inside the checkout."""

    def __init__(self, scratch: Path):
        self.result_path = scratch / "result.json"
        self.report_path = scratch / "report.json"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in THREAD_VARS})

    def spawn(self, mode: str, argv: list[str] = ()) -> dict:
        """Run worker.py once and return its result, with ``setup_s`` (from
        spawning the interpreter to kreinmod.cli being imported)."""
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.result_path), mode, *argv]
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return {"crashed": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
        result = json.loads(self.result_path.read_text())
        self.result_path.unlink()
        result["setup_s"] = result["imported_at"] - spawned
        return result

    def check(self, mode: str, cli_args: list[str], seed: int) -> dict:
        """One krein-check run; adds the canonical report bytes as ``report``."""
        argv = ["check", *cli_args, "--seed", str(seed), "--quiet", "--report", str(self.report_path)]
        result = self.spawn(mode, argv)
        result["report"] = None
        if self.report_path.exists():
            result["report"] = self.report_path.read_bytes()
            self.report_path.unlink()
        return result


def check_report(expected: dict, run: dict) -> tuple[list[str] | None, list[str]]:
    """Failing record names of one run (None when the run failed as a whole)
    and the output checks it broke.  Verdicts are recomputed from each
    record's violation and tolerance, never compared by value across runs."""
    if "crashed" in run:
        return None, ["krein-check crashed: " + " ".join(run["crashed"])]
    if run["exit_code"] in (2, 3):
        return None, []
    if run["exit_code"] not in (0, 1) or run["report"] is None:
        return None, [f"exit code {run['exit_code']} without a report"]
    records = json.loads(run["report"])["records"]
    names = [r["name"] for r in records]
    problems = []
    missing = sorted(set(expected["records"]) - set(names))
    unexpected = sorted(set(names) - set(expected["records"]))
    if missing or unexpected or len(set(names)) != len(names):
        problems.append(f"record names differ: missing {missing}, unexpected {unexpected}")
    controls = set(expected["negative_controls"])
    failing = []
    for r in records:
        control = r["name"] in controls
        if r["expected_fail"] != control:
            problems.append(f"{r['name']!r}: negative-control flag is {r['expected_fail']}")
        violated = r["max_violation"] > r["tolerance"]
        passed = violated if control else not violated
        if passed != r["passed"]:
            problems.append(f"{r['name']!r}: reported passed={r['passed']} against its violation")
        if not passed:
            failing.append(r["name"])
            if control:
                problems.append(f"negative control did not fire: {r['name']!r}")
    if (run["exit_code"] == 0) != all(r["passed"] for r in records):
        problems.append(f"exit code {run['exit_code']} disagrees with the verdicts")
    return (None if missing else failing), problems


def min_headroom_decades(report: bytes) -> float:
    """Smallest log10(tolerance / violation) over the laws that are not
    negative controls; negative when a law fails."""
    margins = [
        math.log10(r["tolerance"] / r["max_violation"])
        for r in json.loads(report)["records"]
        if not r["expected_fail"] and r["max_violation"] > 0
    ]
    return min(margins)


def layer_metric(name: str, traced: list[dict], untraced: list[dict]) -> float:
    """A per-layer metric of BENCHMARK.json, by name: ``<function>.<stat>``
    from the span summary (median over the traced runs), or one of the
    derived metrics below.  A function with no span reads 0."""
    if name == "trace.overhead_s":
        return statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in untraced
        )
    if name == "trace.spans":
        return traced[0]["spans"]
    if name == "checker.min_headroom_decades":
        return min_headroom_decades(untraced[0]["report"])
    if name == "clifford.clifford_action.calls_per_signature":
        entry = traced[0]["layers"].get("clifford.clifford_action", {})
        return entry.get("calls", 0) / max(entry.get("signatures", 0), 1)
    function, stat = name.rsplit(".", 1)
    values = [r["layers"].get(function, {}).get(stat, 0) for r in traced]
    # counts and computed bytes repeat exactly; only times need a median
    return statistics.median(values) if stat.endswith("_s") else values[0]


def measure(spec: dict, expected_records: dict, workload: str, seed: int, seconds: float,
            trace: bool, small: bool = False) -> dict:
    """Run one workload for ``seconds`` and return its result object plus a
    printable summary (under ``lines``)."""
    cli_args = WORKLOADS[workload][1 if small else 0]
    expected = expected_records[workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = Runner(Path(scratch))
        warmup = runner.spawn("import")  # writes bytecode caches in a fresh checkout
        if "crashed" in warmup:
            sys.exit("perfbench: cannot import kreinmod.cli: " + " ".join(warmup["crashed"]))
        untraced, traced = [], []
        start = time.monotonic()
        while True:
            untraced.append(runner.check("run", cli_args, seed))
            if trace:
                traced.append(runner.check("trace", cli_args, seed))
            done = len(traced) >= 1 if trace else len(untraced) >= MIN_RUNS
            if done and time.monotonic() - start >= seconds:
                break
        imports = [r for r in untraced if "setup_s" in r]
        while not trace and len(imports) < MIN_SETUP_SAMPLES:
            imports.append(runner.spawn("import"))
        imports = [r for r in imports if "setup_s" in r]

    runs = untraced + traced
    attempted = failed = 0
    problems, failing_names = [], set()
    for run in runs:
        failing, broken = check_report(expected, run)
        problems += broken
        attempted += len(expected["records"])
        failed += len(expected["records"]) if failing is None else len(failing)
        failing_names.update(failing or ())
    reports = {run.get("report") for run in runs}
    if len(reports) > 1:
        problems.append(f"{len(reports)} different reports from {len(runs)} same-seed runs")
    problems = sorted(set(problems))

    ok_runs = [r for r in untraced if "run_s" in r]
    ok_traced = [r for r in traced if "layers" in r]
    metrics = {}
    if not trace and ok_runs:
        # times are scaled to reference speed by the probe timed next to them
        values = {
            "setup_s": [r["setup_s"] * REFERENCE_PROBE_S / r["probe_s"][0] for r in imports],
            "run_s": [r["run_s"] * REFERENCE_PROBE_S / statistics.fmean(r["probe_s"]) for r in ok_runs],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in ok_runs],
        }
        wall = {"setup_s": [r["setup_s"] for r in imports], "run_s": [r["run_s"] for r in ok_runs]}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
    elif trace and ok_runs and ok_traced and ok_runs[0]["report"]:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_metric(m["name"], ok_traced, ok_runs), "unit": m["unit"]}

    lines = [f"workload {workload} (krein-check check {' '.join(cli_args)} --seed {seed}): "
             f"{len(untraced)} untraced and {len(traced)} traced runs"]
    if not trace and ok_runs:
        for m in spec["end_to_end"]:
            lines.append(f"  {m['name']:<12} [{m['unit']}] {_spread(values[m['name']])}")
        for name, vals in wall.items():
            lines.append(f"  {name:<12} [s, wall] {_spread(vals)}")
        probes = [p for r in imports for p in r["probe_s"]]
        lines.append(f"  probe        [s, wall] {_spread(probes)}")
    lines.append(f"  failed_share [share] {failed / attempted:.6g} ({failed} of {attempted} records)"
                 + (f"; failing: {', '.join(sorted(failing_names))}" if failing_names else ""))
    if trace and ok_traced:
        lines += _layer_table(ok_traced[0]["layers"])
        lines.append(f"  tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s on "
                     f"{statistics.median(r['run_s'] for r in ok_runs):.4f} s untraced")
    lines += [f"  OUTPUT CHECK FAILED: {p}" for p in problems]
    return {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "versions": ok_runs[0]["versions"] if ok_runs else {},
    }


def _spread(values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"median {statistics.median(values):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"min {min(values):.4f}  max {max(values):.4f}  (n={len(values)})")


def _layer_table(layers: dict, top: int = 12) -> list[str]:
    by_layer: dict[str, float] = {}
    for name, entry in layers.items():
        module = name.split(".", 1)[0]
        by_layer[module] = by_layer.get(module, 0.0) + entry["self_s"]
    lines = ["  self time by layer: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))]
    lines.append(f"  top {top} functions by self time (calls, self s, total s):")
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    lines += [f"    {name:<48} {e['calls']:>8} {e['self_s']:>9.4f} {e['total_s']:>9.4f}"
              for name, e in ranked]
    return lines


def environment(seed: int, versions: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        **versions,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def self_check(spec: dict, expected: dict) -> dict:
    """Each workload once at its smallest size, untraced and traced: every
    metric of BENCHMARK.json must be printed, with its unit, as a number."""
    problems, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(spec, expected, workload, 42, 0, trace, small=True)
            attempted += result["attempted"]
            failed += result["failed"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {key}: metrics {sorted(got.items())} != {sorted(want.items())}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad or not result["correct"]:
                problems.append(f"{workload} {key}: correct={result['correct']}, non-numeric {bad}")
            print(f"self-check {workload} trace={int(trace)}: {len(got)} metrics, "
                  f"correct={result['correct']}", flush=True)
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "kreinmod" / "cli.py").is_file():
        print(f"perfbench: no kreinmod sources under {SRC}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected_records.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.self_check:
        result = self_check(spec, expected)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: measure(spec, expected, w, args.seed, seconds, bool(args.trace)) for w in names}
        print("environment: " + json.dumps(environment(args.seed, next(iter(results.values()))["versions"])))
        for r in results.values():
            print("\n".join(r["lines"]))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": (results[names[0]]["metrics"] if len(names) == 1 else
                        {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}),
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
