import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import kreinmod.report as report_module
from kreinmod.algebra import bounded_operators, check_krein_cstar_axioms
from kreinmod.checker import CheckConfig, run
from kreinmod.linalg import ValidationError, gaussians
from kreinmod.report import CheckRecord, Report, decide, worst_of


def report():
    return Report(title="t", seed=0, samples=1)


def batches(values):
    """A draw over fixed per-sample values, stacked in the field ``v``."""
    values = np.asarray(values, dtype=float)
    return lambda rows: SimpleNamespace(v=values[rows])


class TestCheckLaws:
    def test_running_max_per_law(self):
        r = report()
        r.check_laws(
            batches([1.0, 3.0, 2.0]),
            3,
            [("identity", 5.0, lambda s: s.v), ("negated", 5.0, lambda s: -s.v)],
        )
        assert [rec.max_violation for rec in r.records] == [3.0, 0.0]

    def test_records_follow_table_order(self):
        r = report()
        r.check("before", 0.0, 1.0)
        names = ["c", "a", "b"]
        r.check_laws(batches([0.0]), 1, [(n, 1.0, lambda s: s.v) for n in names])
        assert [rec.name for rec in r.records] == ["before"] + names
        assert [rec.tolerance for rec in r.records[1:]] == [1.0] * 3

    def test_no_samples_records_zero(self):
        def draw(rows):
            raise AssertionError("nothing to draw")

        r = report()
        recs = r.check_laws(
            draw, 0, [("empty", 1e-9, lambda s: 1.0), ("also", 1e-9, lambda s: 2.0)]
        )
        assert [rec.max_violation for rec in recs] == [0.0, 0.0]
        assert all(rec.passed for rec in recs)

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan, 0.5]])
    def test_nan_is_kept_once_it_appears(self, values):
        (rec,) = report().check_laws(
            batches(values), len(values), [("law", 10.0, lambda s: s.v)]
        )
        assert math.isnan(rec.max_violation)
        assert not rec.passed

    def test_nan_in_a_batch_wins_over_larger_values(self):
        sizes = []

        def residual(s):
            sizes.append(len(s.v))
            return s.v

        (rec,) = report().check_laws(
            batches([1.0, 5.0, math.nan, 7.0]), 4, [("law", 10.0, residual)]
        )
        assert sizes == [1, 3]  # NaN and 7.0 come in one batch
        assert math.isnan(rec.max_violation)

    def test_numeric_row_is_recorded_at_its_place(self):
        recs = report().check_laws(
            batches([1.0, 3.0]),
            2,
            [
                ("a", 5.0, lambda s: s.v),
                ("decided", 1.0, (2.5, 0.25)),
                ("b", 5.0, lambda s: -s.v),
            ],
        )
        assert [(rec.name, rec.max_violation) for rec in recs] == [
            ("a", 3.0), ("decided", 2.5), ("b", 0.0)
        ]
        assert recs[1].tolerance == 1.0 and not recs[1].passed
        assert recs[1].elapsed == 0.25  # the time it took to decide

    def test_decide_times_its_computation(self):
        value, elapsed = decide(lambda: time.sleep(0.01) or 2.5)
        assert value == 2.5 and elapsed >= 0.01

    def test_nan_numeric_row_fails(self):
        (rec,) = report().check_laws(
            batches([0.0]), 1, [("decided", 10.0, decide(lambda: math.nan))]
        )
        assert math.isnan(rec.max_violation)
        assert not rec.passed

    def test_lazy_draw_interleaves_with_residuals(self):
        # each batch is drawn just before its residuals run; after the first
        # sample, the samples of CHUNK_BYTES come in one batch
        events = []

        def draw(rows):
            events.append(f"draw {rows.start}:{rows.stop}")
            return SimpleNamespace(v=np.zeros(len(rows)))

        def residual(tag):
            def fn(s):
                events.append(f"{tag} {len(s.v)}")
                return s.v

            return fn

        report().check_laws(
            draw, 3, [("a", 1.0, residual("a")), ("b", 1.0, residual("b"))]
        )
        assert events == ["draw 0:1", "a 1", "b 1", "draw 1:3", "a 2", "b 2"]

    def test_batches_hold_chunk_bytes(self, monkeypatch):
        # the first sample's 8 bytes turn CHUNK_BYTES = 24 into three samples
        monkeypatch.setattr(report_module, "CHUNK_BYTES", 24)
        rows = []

        def draw(r):
            rows.append((r.start, r.stop))
            return SimpleNamespace(v=np.zeros(len(r)))

        report().check_laws(draw, 8, [("law", 1.0, lambda s: s.v)])
        assert rows == [(0, 1), (1, 4), (4, 7), (7, 8)]

    def test_order_and_elapsed_kept(self):
        def slow(s):
            return np.array([sum(range(10_000)) * 0.0 for _ in s.v])

        r = report()
        recs = r.check_laws(
            batches(np.zeros(5)), 5, [("x", 1.0, slow), ("y", 1.0, slow)]
        )
        assert [rec.name for rec in recs] == ["x", "y"]
        assert all(rec.elapsed > 0 for rec in recs)

    def test_chunked_equals_single_batch(self, monkeypatch):
        def worst_values(chunk_bytes):
            monkeypatch.setattr(report_module, "CHUNK_BYTES", chunk_bytes)
            rep = check_krein_cstar_axioms(bounded_operators(2, 1), samples=40, seed=9)
            return [rec.max_violation for rec in rep.records]

        assert worst_values(1) == worst_values(2**30)

    def test_worst_of(self):
        assert worst_of(0.0, 2.0, 1.0) == 2.0
        assert math.isnan(worst_of(3.0, math.nan))


class TestSampled:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_refuses_fewer_than_one_sample(self, samples):
        with pytest.raises(ValidationError, match="samples must be at least 1"):
            Report.sampled("t", 0, samples)

    def test_opened_report_and_generator_follow_the_seed(self):
        (first, rng1), (second, rng2) = (
            Report.sampled("t", 7, 3, dim=2) for _ in range(2)
        )
        assert (first.title, first.seed, first.samples) == ("t", 7, 3)
        assert first.environment == {"dim": 2} and first.records == []
        sample = gaussians(rng1, 1, (4,))[0]
        assert np.array_equal(sample, gaussians(rng2, 1, (4,))[0])
        _, other = Report.sampled("t", 8, 3)
        assert not np.array_equal(sample, gaussians(other, 1, (4,))[0])


class TestNaNRecords:
    def test_nan_violation_fails(self):
        assert not report().check("x", float("nan"), 1e-9).passed

    def test_nan_negative_control_fails(self):
        rec = CheckRecord("x", float("nan"), 1e-9, expected_fail=True)
        assert not rec.passed


class TestElapsed:
    def test_sampled_laws_are_timed_outside_the_canonical_json(self):
        cfg = CheckConfig(scenario="full-gallery", samples=3)
        first, second = run(cfg), run(cfg)
        by_name = {r.name: r for r in first.records}
        for name in (
            "krein-algebra: cstar identity",
            "module: intertwiner unitary for the form",
            "module-over-krein: linking identity",
            "clifford: star equals conjugate reversal",
            "spinor: morita: linking identity",
            # decided on basis pairs inside a law table: the table records
            # the time deciding it took
            "module-over-krein: inner star-hermitian",
        ):
            assert by_name[name].elapsed > 0, name
        # plain checks carry no time
        for name in ("krein-algebra: eta hermitian", "tensor: multiplicative"):
            assert by_name[name].elapsed == 0.0, name
        assert first.to_json() == second.to_json()
        assert "elapsed" not in first.to_json()
        for r in second.records:
            r.elapsed = 0.0
        assert first.to_json() == second.to_json()

    def test_copied_records_carry_no_time(self):
        # the spinor scenario extends its module table a second time under
        # "morita: "; nothing runs for those copies
        records = run(CheckConfig(scenario="spinor", p=1, q=1, samples=3)).records
        module = {
            r.name.removeprefix("module: "): r
            for r in records if r.name.startswith("module: ")
        }
        copies = [
            r for r in records
            if r.name.startswith("morita: ")
            and r.name.removeprefix("morita: ") in module
        ]
        assert len(copies) == len(module) == 13
        for copy in copies:
            original = module[copy.name.removeprefix("morita: ")]
            assert copy.elapsed == 0.0
            restored = replace(copy, name=original.name, elapsed=original.elapsed)
            assert restored == original
        # the table's 10 sampled laws keep their times, and so does "inner
        # star-hermitian", decided on basis pairs
        assert sum(r.elapsed > 0 for r in module.values()) == 11
