#!/usr/bin/env python3
"""Run the complete verification gallery plus all demo presets.

Prints each report, repeats the gallery to confirm the canonical JSON is
byte-identical, and writes the gallery report next to this script when
--report is given.
"""

import argparse
import time

from kreinmod.checker import DEMOS, CheckConfig, run, run_demo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--report", metavar="PATH", default=None)
    args = parser.parse_args()

    config = CheckConfig(
        scenario="full-gallery", seed=args.seed, samples=args.samples
    )
    start = time.perf_counter()
    report = run(config)
    elapsed = time.perf_counter() - start
    print(report.to_text(show_timing=True))
    print(f"gallery wall time: {elapsed:.2f} s")

    second = run(config)
    print(f"repeat run byte-identical: {report.to_json() == second.to_json()}")

    for name in DEMOS:
        rep, narrative = run_demo(
            name, seed=args.seed, samples=args.samples
        )
        print(f"\n--- demo: {name} ---")
        print(narrative)
        print(f"verdict: {rep.verdict}")

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"\nwrote {args.report}")

    raise SystemExit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
