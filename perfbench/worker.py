"""One kreinmod run in a fresh interpreter.

    python3 worker.py RESULT_JSON MODE [KREIN-CHECK ARGS...]

MODE is ``import`` (stop once ``kreinmod.cli`` is imported), ``run``
(call ``kreinmod.cli.main`` with the arguments) or ``trace`` (the same,
with every layer wrapped by ``tracing.install``).  The result file gets the
CLOCK_MONOTONIC time at which the import finished, the wall time and exit
code of ``main``, the process's peak RSS, the speed probe timed right after
the import and right after ``main``, and, when tracing, the per-function
span summary.
"""

import json
import resource
import sys
import time


def probe() -> float:
    """Wall seconds of a fixed mix of LAPACK and interpreter work (~0.1 s on
    a 2-vCPU Intel Xeon VM).  It runs no kreinmod code, so it measures only
    how fast the machine is right now."""
    import numpy

    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    start = time.perf_counter()
    for _ in range(1000):
        numpy.linalg.svd(a, compute_uv=False)
    x = 0
    for i in range(800_000):
        x += i * i
    return time.perf_counter() - start


def main() -> None:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from kreinmod import cli

    result = {"imported_at": time.monotonic()}
    result["probe_s"] = [probe()]
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.install()
        start = time.perf_counter()
        result["exit_code"] = cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["spans"] = len(tracer.spans)
        result["probe_s"].append(probe())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "{name} {version}".format(**numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
