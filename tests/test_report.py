import math

import pytest

from kreinmod.checker import CheckConfig, run
from kreinmod.report import CheckRecord, Report, worst_of


def report():
    return Report(title="t", seed=0, samples=1)


class TestCheckLaws:
    def test_running_max_per_law(self):
        r = report()
        r.check_laws(
            [1.0, 3.0, 2.0],
            [("identity", 5.0, lambda x: x), ("negated", 5.0, lambda x: -x)],
        )
        assert [rec.max_violation for rec in r.records] == [3.0, 0.0]

    def test_records_follow_table_order(self):
        r = report()
        r.check("before", 0.0, 1.0)
        names = ["c", "a", "b"]
        r.check_laws([0.0], [(n, 1.0, lambda x: x) for n in names])
        assert [rec.name for rec in r.records] == ["before"] + names
        assert [rec.tolerance for rec in r.records[1:]] == [1.0] * 3

    def test_no_samples_records_zero(self):
        r = report()
        (rec,) = r.check_laws([], [("empty", 1e-9, lambda x: 1.0)])
        assert rec.max_violation == 0.0 and rec.passed

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan, 0.5]])
    def test_nan_is_kept_once_it_appears(self, values):
        (rec,) = report().check_laws(values, [("law", 10.0, lambda x: x)])
        assert math.isnan(rec.max_violation)
        assert not rec.passed

    def test_lazy_draw_interleaves_with_residuals(self):
        events = []

        def draw(k):
            events.append(f"draw {k}")
            return k

        def residual(tag):
            def fn(k):
                events.append(f"{tag} {k}")
                return float(k)

            return fn

        report().check_laws(
            (draw(k) for k in range(2)),
            [("a", 1.0, residual("a")), ("b", 1.0, residual("b"))],
        )
        assert events == ["draw 0", "a 0", "b 0", "draw 1", "a 1", "b 1"]

    def test_worst_of(self):
        assert worst_of(0.0, 2.0, 1.0) == 2.0
        assert math.isnan(worst_of(3.0, math.nan))


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
            "clifford: clifford product associative",
            "spinor: morita: linking identity",
            "tensor: multiplicative",
        ):
            assert by_name[name].elapsed > 0, name
        assert by_name["krein-algebra: eta hermitian"].elapsed == 0.0
        assert first.to_json() == second.to_json()
        assert "elapsed" not in first.to_json()
        for r in second.records:
            r.elapsed = 0.0
        assert first.to_json() == second.to_json()
