import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from kreinmod import checker, correspondence
from kreinmod.clifford import PseudoEuclideanSpace, clifford_krein_algebra, spinor_module
from kreinmod.checker import (
    COVERAGE_MANIFEST,
    DEMOS,
    SCENARIOS,
    CheckConfig,
    ConfigError,
    ResourceBudgetError,
    run,
    run_demo,
)
from kreinmod.krein_module import FundamentalSymmetry, hyperbolic_symmetry, krein_space


class TestCheckConfig:
    def test_defaults(self):
        cfg = CheckConfig(scenario="module")
        assert cfg.seed == 42
        assert cfg.samples == 100

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(scenario="nope")

    def test_bad_samples_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(scenario="module", samples=0)

    def test_bad_tol_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(scenario="module", tol=0.0)

    def test_signature_cap(self):
        # no cap on p + q: both configurations are valid, and the byte
        # budget inside run() decides
        assert run(CheckConfig(scenario="krein-algebra", p=8, q=8, samples=2)).passed
        config = CheckConfig(scenario="clifford", p=7, q=6)
        with pytest.raises(ResourceBudgetError):
            run(config)

    def test_negative_signature_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(scenario="module", p=-1)


# the most a peak prediction, beyond its fixed 16 MiB, may exceed the traced
# peak by at a shape-dominated size
OVER_PREDICTION = 2


def traced_run_peak(config: CheckConfig) -> int:
    """Traced peak of ``run(config)``."""
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario", [s for s in SCENARIOS if s != "full-gallery"]
    )
    def test_scenario_passes(self, scenario):
        report = run(CheckConfig(scenario=scenario, samples=30))
        assert report.passed, [r.name for r in report.failures()]

    @pytest.mark.parametrize(
        "scenario", [s for s in SCENARIOS if s != "full-gallery"]
    )
    def test_coverage_manifest_satisfied(self, scenario):
        report = run(CheckConfig(scenario=scenario, samples=5))
        names = {r.name for r in report.records}
        for required in COVERAGE_MANIFEST[scenario]:
            assert required in names
        assert "coverage manifest complete" in names

    def test_every_scenario_has_a_negative_control(self):
        # at least one deliberately corrupted structure per direct scenario,
        # five distinct controls across the suite
        controls = set()
        for scenario in SCENARIOS:
            if scenario == "full-gallery":
                continue
            report = run(CheckConfig(scenario=scenario, samples=5))
            expected = [r for r in report.records if r.expected_fail]
            assert expected, scenario
            for r in expected:
                assert r.passed, r.name
                controls.add(r.name)
        assert len(controls) >= 5

    def test_tensor_morphism_and_hom_laws_take_tol(self):
        report = run(CheckConfig(scenario="tensor", samples=5, tol=1e-3))
        tolerances = {r.name: r.tolerance for r in report.records}
        laws = (
            "intertwines both actions",
            "preserves inner products",
            "intertwines symmetries",
        )
        names = [
            f"{iso}: {law}"
            for iso in ("right unit", "left unit", "associativity")
            for law in laws
        ]
        names += ["unital", "multiplicative", "star-preserving"]
        names += ["intertwines alpha and beta", "section independence"]
        assert {n: tolerances[n] for n in names} == dict.fromkeys(names, 1e-3)

    def test_clifford_budget(self):
        # the axiom table's N x N arrays come to about 0.77 GB at p + q = 10
        # and 3.0 GB at p + q = 11, N = 2048
        for p, q in ((5, 4), (5, 5)):
            config = CheckConfig(scenario="clifford", p=p, q=q, samples=1)
            assert checker._predicted_peak_bytes(config) <= checker.BYTE_BUDGET
        for p, q in ((6, 5), (5, 6)):
            with pytest.raises(ResourceBudgetError):
                run(CheckConfig(scenario="clifford", p=p, q=q, samples=1))

    def test_clifford_scenario_reads_no_dense_basis(self, monkeypatch):
        built = []

        def keep(space):
            built.append(clifford_krein_algebra(space))
            return built[-1]

        monkeypatch.setattr(checker, "clifford_krein_algebra", keep)
        run(CheckConfig("clifford", p=2, q=2, samples=3))
        assert built and all("basis" not in vars(alg) for alg in built)

    def test_clifford_laws_on_the_tables_read_no_samples(self):
        laws = (
            "gram determinant oracle",
            "second quantized symmetry preserves pairing",
            "second quantized auxiliary form positive",
            "clifford product associative",
        )
        reports = {
            (samples, seed): run(
                CheckConfig("clifford", p=3, q=3, samples=samples, seed=seed)
            )
            for samples in (1, 20)
            for seed in (0, 42)
        }
        values = {
            key: json.dumps([r.to_dict() for r in report.records if r.name in laws])
            for key, report in reports.items()
        }
        assert len(set(values.values())) == 1
        assert len(json.loads(values[1, 0])) == len(laws)

    def test_tensor_twist_law_on_the_basis_reads_no_samples(self):
        values = {
            json.dumps(next(
                r.to_dict() for r in run(
                    CheckConfig("tensor", samples=samples, seed=seed)
                ).records
                if r.name == "gamma compatibility of descended product"
            ))
            for samples in (1, 20)
            for seed in (0, 42)
        }
        assert len(values) == 1

    @pytest.mark.parametrize(
        "run_module",
        [
            pytest.param(
                lambda: run(CheckConfig("module", p=2, q=2, samples=20)),
                id="check module (2,2)",
            ),
            pytest.param(lambda: run_demo("torus", samples=20)[0], id="demo torus"),
        ],
    )
    def test_adjoint_relation_reads_the_gram_not_elements(
        self, monkeypatch, run_module
    ):
        # the stacks hold no elements x, y: the relation is the operator
        # identity T†G = GT♯, exact for each symmetry on these ±1 grams
        fields = []

        def recorded(module, rng, n_random):
            group = samples(module, rng, n_random)
            fields.append(set(vars(group)))
            return group

        samples = checker._symmetry_samples
        monkeypatch.setattr(checker, "_symmetry_samples", recorded)
        (record,) = (
            r for r in run_module().records
            if r.name == "adjoint solves the inner relation"
        )
        assert fields and all(f == {"module", "j", "t", "ts"} for f in fields)
        assert record.max_violation == 0.0

    def test_module_over_krein_builds_no_dense_action(self, monkeypatch):
        # the laws act by matrix products, and only the inner tensors are read
        built = []
        for name in ("self_module", "operator_bimodule"):
            make = getattr(checker, name)
            monkeypatch.setattr(
                checker, name,
                lambda *args, make=make: built.append(make(*args)) or built[-1],
            )
        assert run(CheckConfig(scenario="module-over-krein", p=2, q=2, samples=20)).passed
        assert len(built) == 2
        for module in built:
            assert {"action", "left_action"}.isdisjoint(vars(module))
            assert "inner" in vars(module)

    def test_spinor_budget_refuses_before_any_work(self, monkeypatch):
        # spinor (7, 7) would hold a few 16384 x 16384 arrays; nothing may be
        # built
        def unreachable(space):
            raise AssertionError("spinor module built before the budget check")

        monkeypatch.setattr(checker, "spinor_module", unreachable)
        with pytest.raises(ResourceBudgetError):
            run(CheckConfig(scenario="spinor", p=7, q=7, samples=1))

    # the scenario sizes of scripts/compare_reports.py
    @pytest.mark.parametrize(
        "scenario, p, q, samples",
        [
            ("module-over-krein", 2, 2, 20),
            ("clifford", 3, 3, 20),
            ("spinor", 3, 3, 10),
            ("spinor", 4, 4, 5),
            ("krein-algebra", 2, 2, 200),
            ("module", 2, 2, 50),
            ("tensor", 1, 1, 50),
            ("tensor", 3, 2, 20),
            ("clifford", 4, 3, 5),
            ("tensor", 6, 6, 5),
        ],
    )
    def test_prediction_bounds_traced_peak(self, scenario, p, q, samples):
        config = CheckConfig(scenario=scenario, p=p, q=q, samples=samples)
        assert traced_run_peak(config) <= checker._predicted_peak_bytes(config)

    # one size per scenario where its shapes, not the fixed 16 MiB, dominate
    @pytest.mark.parametrize(
        "scenario, p, q, samples",
        [
            ("krein-algebra", 100, 100, 2),
            ("module", 50, 50, 3),
            ("module-over-krein", 3, 3, 3),
            ("tensor", 6, 6, 5),
            ("clifford", 4, 4, 2),
            ("spinor", 5, 5, 3),
        ],
    )
    def test_prediction_is_current(self, scenario, p, q, samples):
        # a stale term shows as an over-prediction, which refuses sizes that
        # would run
        config = CheckConfig(scenario=scenario, p=p, q=q, samples=samples)
        peak, predicted = traced_run_peak(config), checker._predicted_peak_bytes(config)
        assert peak <= predicted
        assert predicted - 2**24 <= OVER_PREDICTION * peak

    def test_module_draws_once_per_module_and_checks_no_built_symmetry(
        self, monkeypatch
    ):
        # one random_symmetry call per module, of one symmetry per sample,
        # and one for the negative control; the one constructor check is on
        # the hyperbolic symmetry the scenario passes in
        draws, checked = [], []

        def counted(module, rng, count=None):
            draws.append(count)
            return draw(module, rng, count)

        def recorded(symmetry):
            checked.append(symmetry.matrix)
            validate(symmetry)

        draw = checker.random_symmetry
        validate = FundamentalSymmetry.__post_init__
        monkeypatch.setattr(checker, "random_symmetry", counted)
        monkeypatch.setattr(FundamentalSymmetry, "__post_init__", recorded)
        assert run(CheckConfig(scenario="module", p=2, q=2, samples=5)).passed
        assert draws == [5, 5, None]
        assert len(checked) == 1
        assert np.array_equal(checked[0], hyperbolic_symmetry(0.3))

    @pytest.mark.parametrize(
        "residual, corrupt",
        [
            (checker._hilbertified_gram_defect, np.negative),
            (checker._decomposition_defect, np.zeros_like),
        ],
        ids=["gram", "decomposition"],
    )
    def test_module_law_reports_a_corrupted_symmetry(self, residual, corrupt):
        module = krein_space(2, 2)
        group = checker._symmetry_samples(module, np.random.default_rng(0), 3)
        bad = group.j.matrix.copy()
        bad[2] = corrupt(bad[2])
        j = FundamentalSymmetry._built(module, bad)
        values = residual(SimpleNamespace(**{**vars(group), "j": j}))
        assert values[2] > 1e-9
        assert np.delete(values, 2).tolist() == [0.0] * 3

    @pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (2, 0), (0, 2)])
    def test_module_passes_on_a_definite_space(self, p, q):
        # one half is empty: its rounding-level rank must count 0, and the
        # control doubles the other half's transition
        report = run(CheckConfig(scenario="module", p=p, q=q, samples=5))
        assert report.passed, [r.name for r in report.failures()]
        control = next(
            r for r in report.records
            if r.name == "negative control: scaled minus transition"
        )
        assert control.max_violation >= 10 * control.tolerance
        half = "positive" if q == 0 else "negative"
        assert f"doubling the {half} transition" in control.detail

    def test_module_over_krein_solves_no_least_squares(self, monkeypatch):
        # every design of the scenario has at most one nonzero per row
        calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw)
        )
        config = CheckConfig(scenario="module-over-krein", p=2, q=2, samples=20)
        assert run(config).passed
        assert calls == []

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_module_over_krein_passes_on_a_negative_definite_algebra(self, q):
        # eta = -1: star(a) = a† and alpha = id, so the symmetry is adjointable
        # and the not-adjointable control must not expect a failure
        config = CheckConfig(scenario="module-over-krein", p=0, q=q, samples=5)
        report = run(config)
        assert report.passed, [r.name for r in report.failures()]

    @pytest.mark.parametrize(
        "run_spinor",
        [
            pytest.param(
                lambda: run(CheckConfig(scenario="spinor", p=1, q=1, samples=5)),
                id="check spinor (1,1)",
            ),
            pytest.param(
                lambda: run_demo("spinor-m4", samples=5)[0], id="demo spinor-m4"
            ),
        ],
    )
    def test_spinor_run_builds_one_bimodule(self, monkeypatch, run_spinor):
        calls = []

        def counted(space):
            calls.append((space.p, space.q))
            return spinor_module(space)

        for binding in (checker, correspondence):
            monkeypatch.setattr(binding, "spinor_module", counted)
        assert run_spinor().passed
        assert len(calls) == 1

    def test_spinor_form_involution_defect_computed_once(self, monkeypatch):
        # ‖A² − 1‖ serves "spinor form hermitian involutive" and "spinor
        # auxiliary gram standard"
        args = []

        def recorded(x):
            args.append(x)
            return defect(x)

        defect = checker.involution_defect
        monkeypatch.setattr(checker, "involution_defect", recorded)
        report = run(CheckConfig(scenario="spinor", p=1, q=3, samples=2))
        form = spinor_module(PseudoEuclideanSpace(1, 3)).symmetry
        assert sum(np.array_equal(x, form) for x in args) == 1
        values = {r.name: r.max_violation for r in report.records}
        involution = defect(form)
        assert values["spinor auxiliary gram standard"] == involution
        assert values["spinor form hermitian involutive"] == max(
            checker.hermitian_defect(form), involution
        )

    def test_spinor_needs_even_dimension(self):
        with pytest.raises(ConfigError):
            CheckConfig(scenario="spinor", p=2, q=1, samples=1)


class TestFullGallery:
    def test_passes_and_is_byte_deterministic(self):
        cfg = CheckConfig(scenario="full-gallery", seed=42, samples=30)
        first = run(cfg)
        second = run(cfg)
        assert first.passed, [r.name for r in first.failures()]
        assert first.to_json() == second.to_json()

    def test_seed_changes_violations(self):
        a = run(CheckConfig(scenario="module", seed=1, samples=20))
        b = run(CheckConfig(scenario="module", seed=2, samples=20))
        va = [r.max_violation for r in a.records]
        vb = [r.max_violation for r in b.records]
        assert va != vb

    def test_gallery_covers_all_scenarios(self):
        report = run(CheckConfig(scenario="full-gallery", samples=5))
        names = {r.name for r in report.records}
        for scenario in COVERAGE_MANIFEST:
            assert f"{scenario}: coverage manifest complete" in names


class TestDemos:
    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_passes_with_narrative(self, name):
        report, narrative = run_demo(name, samples=30)
        assert report.passed, [r.name for r in report.failures()]
        assert len(narrative) > 100

    def test_torus_draws_one_symmetry_per_sample(self, monkeypatch):
        # up to MODULE_SYMMETRIES, as the module scenario does
        draws = []

        def counted(module, rng, count=None):
            draws.append(count)
            return draw(module, rng, count)

        draw = checker.random_symmetry
        monkeypatch.setattr(checker, "random_symmetry", counted)
        for samples in (1, 3, checker.MODULE_SYMMETRIES + 5):
            assert run_demo("torus", samples=samples)[0].passed
        assert draws == [1, 3, checker.MODULE_SYMMETRIES]

    def test_unknown_demo_rejected(self):
        with pytest.raises(ConfigError):
            run_demo("nope")
