"""Command line front end for the verification scenarios.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 a resource budget was exceeded, 4 a crash (traceback on stderr).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import traceback

from .checker import (
    DEMOS,
    SCENARIOS,
    CheckConfig,
    ConfigError,
    ResourceBudgetError,
    run,
    run_demo,
)
from .report import Report

SEED_ENV_VAR = "KREIN_CHECK_SEED"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krein-check",
        description="Randomized verification of indefinite operator-algebra "
        "and module structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one verification scenario")
    check.add_argument("scenario", choices=SCENARIOS)
    _common_flags(check)
    check.add_argument("--p", type=int, default=1, help="positive directions")
    check.add_argument("--q", type=int, default=1, help="negative directions")

    demo = sub.add_parser("demo", help="run a named example walkthrough")
    demo.add_argument("name", choices=DEMOS)
    _common_flags(demo)

    sub.add_parser("list", help="list available scenarios and demos")
    return parser


def _common_flags(cmd: argparse.ArgumentParser):
    cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} or 42)",
    )
    cmd.add_argument("--samples", type=int, default=100)
    cmd.add_argument("--tol", type=float, default=1e-9)
    cmd.add_argument(
        "--report", metavar="PATH", help="write the canonical JSON report here"
    )
    cmd.add_argument(
        "--quiet", action="store_true", help="suppress the text rendering"
    )


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 42


def _check_report_path(path: str):
    """Refuse, before the run, a report path that is a directory or whose
    directory does not exist; nothing is created or truncated."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write report {path}: {os.strerror(code)}")


def _emit(report: Report, args) -> int:
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            msg = f"cannot write report {args.report}: {exc.strerror}"
            raise ConfigError(msg) from None
    if not args.quiet:
        sys.stdout.write(report.to_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            print("scenarios:")
            for s in SCENARIOS:
                print(f"  {s}")
            print("demos:")
            for d in DEMOS:
                print(f"  {d}")
            return EXIT_PASS
        seed = _resolve_seed(args.seed)
        if args.report:
            _check_report_path(args.report)
        if args.command == "check":
            config = CheckConfig(
                scenario=args.scenario,
                seed=seed,
                samples=args.samples,
                tol=args.tol,
                p=args.p,
                q=args.q,
            )
            return _emit(run(config), args)
        report, narrative = run_demo(
            args.name, seed=seed, samples=args.samples, tol=args.tol
        )
        if not args.quiet:
            print(narrative)
            print()
        return _emit(report, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
