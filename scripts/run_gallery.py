#!/usr/bin/env python3
"""Run the complete verification gallery plus all demo presets.

Prints each report, repeats the gallery to confirm the canonical JSON is
byte-identical, and writes the gallery report to PATH when --report PATH is
given.  Exits 1 when the gallery or a demo fails or the repeat run differs,
and 2 when --seed or --samples is out of range.
"""

import argparse
import time

from kreinmod.checker import DEMOS, CheckConfig, ConfigError, run, run_demo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--report", metavar="PATH", default=None)
    args = parser.parse_args()

    try:
        config = CheckConfig(
            scenario="full-gallery", seed=args.seed, samples=args.samples
        )
    except ConfigError as exc:
        parser.error(str(exc))  # exit 2, as krein-check does
    start = time.perf_counter()
    report = run(config)
    elapsed = time.perf_counter() - start
    print(report.to_text(show_timing=True))
    print(f"gallery wall time: {elapsed:.2f} s")

    identical = report.to_json() == run(config).to_json()
    print(f"repeat run byte-identical: {identical}")
    passed = report.passed and identical

    for name in DEMOS:
        rep, narrative = run_demo(
            name, seed=args.seed, samples=args.samples
        )
        print(f"\n--- demo: {name} ---")
        print(narrative)
        print(f"verdict: {rep.verdict}")
        passed = passed and rep.passed

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"\nwrote {args.report}")

    raise SystemExit(0 if passed else 1)


if __name__ == "__main__":
    main()
