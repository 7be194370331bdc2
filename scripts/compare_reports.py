#!/usr/bin/env python3
"""Compare the canonical reports of another source tree with this one's.

Usage: scripts/compare_reports.py PARENT_SRC

Runs every configuration of the standard list below through ``krein-check``
twice, once with PYTHONPATH=PARENT_SRC and once with this repository's
``src``, and compares the two canonical JSON reports.  Prints "identical"
for a configuration whose reports are byte-equal, and otherwise each moved
value as (record name, field, parent, change).  Exits 1 when record names,
their order, tolerances, negative-control flags or verdicts differ, or when
a run ends other than pass or fail or writes no report; such a run's stderr
is printed.  krein-check exits 4 on an uncaught error, but an error before
its ``main`` runs, or in a tree older than that code, exits 1, as a failed
check does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the 31 configurations: scenarios at the sizes the benchmark and gallery
# use, ladder sizes, and the three demos, each at its default seed unless
# given
CONFIGS = [
    *(
        ["check", "full-gallery", "--samples", "100", "--seed", str(seed)]
        for seed in (0, 1, 42)
    ),
    ["check", "module-over-krein", "--p", "2", "--q", "2", "--samples", "20"],
    # a non-square signature: B(C^{3,2}) over itself and into B(C^{1,1})
    ["check", "module-over-krein", "--p", "3", "--q", "2", "--samples", "10"],
    ["check", "clifford", "--p", "3", "--q", "3", "--samples", "20"],
    # the weakest sampled Clifford run: a law decided on the blades reads the
    # same value at one sample as at twenty
    ["check", "clifford", "--p", "3", "--q", "3", "--samples", "1"],
    ["check", "spinor", "--p", "3", "--q", "3", "--samples", "10"],
    # A diagonal, so the gamma algebra twists entrywise
    ["check", "spinor", "--p", "2", "--q", "2", "--samples", "10"],
    # the spinor module's law table at the demo's signature, whose demo runs
    # only the Morita half
    ["check", "spinor", "--p", "1", "--q", "3", "--samples", "10"],
    ["check", "krein-algebra", "--p", "2", "--q", "2", "--samples", "200"],
    ["check", "module", "--p", "2", "--q", "2", "--samples", "50"],
    # a stack of 20 random symmetries, one per sample, at a non-square
    # signature
    ["check", "module", "--p", "5", "--q", "3", "--samples", "20"],
    ["check", "tensor", "--samples", "50"],
    # the weakest sampled tensor run: every tensor law except the seeded
    # section is decided on bases and reads the same value at any sample count
    ["check", "tensor", "--samples", "1"],
    ["check", "tensor", "--p", "3", "--q", "2", "--samples", "20"],
    # J = −I, so the odd half of C^{0,2} ⊗ C^{0,2} is empty
    ["check", "tensor", "--p", "0", "--q", "2", "--samples", "20"],
    # ladder sizes: the algebra constructor, the tensor of C^{p,q} with itself
    # and S ⊗ S̄ at the largest spinor size the byte budget admits
    ["check", "clifford", "--p", "4", "--q", "3", "--samples", "5"],
    # Clifford (4,4), where a dense N x N x N blade tensor would take 268 MB
    ["check", "clifford", "--p", "4", "--q", "4", "--samples", "2"],
    ["check", "tensor", "--p", "6", "--q", "6", "--samples", "5"],
    ["check", "spinor", "--p", "4", "--q", "4", "--samples", "5"],
    # the gamma algebra at s = 32, the largest spinor size the guard admits
    ["check", "spinor", "--p", "5", "--q", "5", "--samples", "3"],
    # the module-over-Kreĭn ladder at d = 10: adjoints and ranks read from
    # disjoint supports
    ["check", "module-over-krein", "--p", "5", "--q", "5", "--samples", "3"],
    # Clifford at N = 512 and B(C^{p,q}) at d = 100, both admitted by the
    # guard's D x D terms
    ["check", "clifford", "--p", "5", "--q", "4", "--samples", "2"],
    ["check", "krein-algebra", "--p", "50", "--q", "50", "--samples", "2"],
    # the empty signature: zero-degree and zero-size draws
    ["check", "clifford", "--p", "0", "--q", "0", "--samples", "5"],
    # a single generator, the one whose metric entry the degenerate control nulls
    ["check", "clifford", "--p", "0", "--q", "1", "--samples", "5"],
    ["check", "spinor", "--p", "0", "--q", "0", "--samples", "5"],
    ["demo", "minkowski"],
    ["demo", "torus"],
    ["demo", "spinor-m4"],
]

# record fields that must agree; a difference in any other field is a move
STRUCTURAL = ("name", "tolerance", "expected_fail", "passed")


def run_report(src: str, args: list[str], path: str):
    """The canonical JSON report of one krein-check run, or None if the run
    did not end in pass (0) or fail (1) or wrote no report.

    A run that raises may also exit 1, so the report at ``path`` is removed
    first: a run that writes none is a failed run, never a stale file.
    """
    Path(path).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "kreinmod.cli", *args, "--quiet", "--report", path]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        print(f"  exit {proc.returncode} with {src}: {proc.stderr.strip()}")
        return None
    with open(path) as fh:
        return fh.read()


def compare(parent: dict, change: dict) -> bool:
    """Print the moved values; True when the structure or a verdict differs."""
    differs = parent["verdict"] != change["verdict"]
    if differs:
        print(f"  verdict: {parent['verdict']} -> {change['verdict']}")
    for key in sorted(set(parent) | set(change)):
        if key not in ("records", "verdict") and parent.get(key) != change.get(key):
            print(f"  ({key}, {parent.get(key)!r}, {change.get(key)!r})")
    old, new = parent["records"], change["records"]
    if [r["name"] for r in old] != [r["name"] for r in new]:
        print(f"  record names or order differ ({len(old)} vs {len(new)} records)")
        differs = True
    for a, b in zip(old, new):
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                print(f"  ({a['name']}, {field}, {a.get(field)!r}, {b.get(field)!r})")
                differs = differs or field in STRUCTURAL
    return differs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC")
    args = parser.parse_args()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            print(" ".join(config))
            parent = run_report(args.parent_src, config, os.path.join(tmp, "p.json"))
            change = run_report(str(SRC), config, os.path.join(tmp, "c.json"))
            if parent is None or change is None:
                failed = True
            elif parent == change:
                print("  identical")
            else:
                failed = compare(json.loads(parent), json.loads(change)) or failed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
