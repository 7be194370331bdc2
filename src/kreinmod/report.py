"""Structured pass/fail reports produced by the randomized checkers.

The canonical JSON serialization is byte-deterministic for a fixed seed and
configuration: per-record wall times are kept out of it and only appear in
the human-readable rendering.

``Report.check_laws`` is the one driver for sampled laws.  A draw function
returns a batch of samples, a namespace whose array fields are stacked on
axis 0 (random ones drawn by one ``linalg.gaussians`` call); each row
``(name, tolerance, residual)`` of a law table maps the batch to one value
per sample, and the driver records each law's worst value; a row whose
residual is ``decide(f)``, a law decided without samples, records f()'s value.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from .linalg import ValidationError


def decide(compute: Callable[[], Any]) -> tuple[float, float]:
    """``compute()`` and its wall time: the third entry of a law table row
    for a law decided without samples."""
    start = time.perf_counter()
    return float(compute()), time.perf_counter() - start


# one law: record name, tolerance, and the residual of a batch of samples, an
# array of one value per sample, or ``decide`` of a law decided exactly
Law = tuple[str, float, Callable[[Any], Any] | tuple[float, float]]

SCHEMA_VERSION = 1

# bytes of drawn arrays per batch: the first sample's arrays turn this into
# the number of samples drawn and evaluated together.  A residual's
# temporaries can be several times its batch (an adjoint's least squares
# targets, operators built from vectors), so a batch is kept small enough
# that they do not raise a run's peak memory.
CHUNK_BYTES = 2**14


@dataclass
class CheckRecord:
    """Outcome of one verified law.

    ``expected_fail`` marks a deliberately corrupted negative control: the
    record passes when the underlying violation exceeds tolerance.  A NaN
    violation fails either way: an undefined residual proves nothing.
    """

    name: str
    max_violation: float
    tolerance: float
    detail: str = ""
    expected_fail: bool = False
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        if math.isnan(self.max_violation):
            return False
        violated = self.max_violation > self.tolerance
        return violated if self.expected_fail else not violated

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_violation": _round_float(self.max_violation),
            "tolerance": self.tolerance,
            "detail": self.detail,
            "expected_fail": self.expected_fail,
            "passed": self.passed,
        }


def worst_of(*values: float) -> float:
    """The largest value; a NaN anywhere wins, so it cannot be dropped."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def _array_bytes(batch) -> int:
    """Bytes of the arrays among a batch's fields."""
    return sum(getattr(v, "nbytes", 0) for v in vars(batch).values())


def _round_float(x: float) -> float:
    # canonical representation; avoids last-bit jitter from thread timing
    # sensitive reductions while staying far below every check tolerance
    if x == 0.0:
        return 0.0
    return float(f"{x:.12e}")


@dataclass
class Report:
    """A list of check records plus the environment that produced them."""

    title: str
    seed: int
    samples: int
    records: list[CheckRecord] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    @classmethod
    def sampled(cls, title: str, seed: int, samples: int, **environment):
        """The report of a suite that draws ``samples`` samples, and the
        generator ``default_rng(seed)`` it draws them from.  Raises
        ValidationError when ``samples < 1``."""
        if samples < 1:
            raise ValidationError("samples must be at least 1")
        report = cls(title=title, seed=seed, samples=samples, environment=environment)
        return report, np.random.default_rng(seed)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def check(
        self,
        name: str,
        max_violation: float,
        tolerance: float,
        detail: str = "",
        expected_fail: bool = False,
    ) -> CheckRecord:
        return self.add(
            CheckRecord(
                name=name,
                max_violation=float(max_violation),
                tolerance=float(tolerance),
                detail=detail,
                expected_fail=expected_fail,
            )
        )

    def check_laws(
        self, draw: Callable[[range], Any], samples: int, laws: Sequence[Law]
    ) -> list[CheckRecord]:
        """Record the worst residual of each law over ``samples`` samples.

        ``draw(rows)`` returns the batch of the samples numbered ``rows``, a
        range; ranges come in order, and ``linalg.gaussians`` reads a seeded
        RNG in sample order, so every batching draws the same samples.  The
        first batch is one sample, whose array fields fix how many samples
        make up ``CHUNK_BYTES`` for the later batches.  Each residual maps a
        batch to an array of one value per sample; a NaN wins over every
        other value.  A row whose third entry is ``decide`` of a law decided
        without samples records its value.  Records are appended in table
        order; each carries its law's residual or deciding wall time.
        """
        decided = [r if isinstance(r, tuple) else (0.0, 0.0) for _, _, r in laws]
        worst, elapsed = [v for v, _ in decided], [t for _, t in decided]
        sampled = [(k, r) for k, (_, _, r) in enumerate(laws) if callable(r)]
        rows = range(min(1, samples))
        while rows:
            batch = draw(rows)
            for k, residual in sampled:
                start = time.perf_counter()
                values = residual(batch)
                elapsed[k] += time.perf_counter() - start
                worst[k] = worst_of(worst[k], float(values.max()))
            if rows.start == 0:
                chunk = max(1, CHUNK_BYTES // max(_array_bytes(batch), 1))
            rows = range(rows.stop, min(rows.stop + chunk, samples))
        return [
            self.add(
                CheckRecord(
                    name=name,
                    max_violation=float(value),
                    tolerance=float(tol),
                    elapsed=seconds,
                )
            )
            for (name, tol, _), value, seconds in zip(laws, worst, elapsed)
        ]

    def extend(self, other: "Report", prefix: str = "") -> None:
        for rec in other.records:
            self.add(replace(rec, name=prefix + rec.name))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "seed": self.seed,
            "samples": self.samples,
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self, show_timing: bool = False) -> str:
        lines = [f"== {self.title} (seed={self.seed}, samples={self.samples}) =="]
        width = max((len(r.name) for r in self.records), default=0)
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            mark = " [negative control]" if r.expected_fail else ""
            timing = f"  {r.elapsed * 1e3:8.1f} ms" if show_timing else ""
            lines.append(
                f"  {status}  {r.name:<{width}}  "
                f"violation {r.max_violation:.3e} vs tol {r.tolerance:.1e}"
                f"{timing}{mark}"
            )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"
