"""Mutation table for the sampled laws of ``check_module_over_krein``.

Each law row of the table, run on the operator bimodule of B(C^{1,1}) and
B(C^{2,1}), gets one named corruption of the module.  The corruption must
push that law at least one decade above its own tolerance, and the law must
pass on the uncorrupted module, so the tolerance sits between the two sides.

The checker's negative controls that run a law's own residual get one row
each in the same style: the residual stays within the law's tolerance on the
real structure and reaches ten times the control's tolerance on the
control's corruption.  So do the scenario laws whose residual is a library
or checker function, each against its own tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from kreinmod import checker
from kreinmod.algebra import KreinCStarAlgebra, bounded_operators
from kreinmod.clifford import (
    PseudoEuclideanSpace,
    clifford_krein_algebra,
    gamma_rep,
    spinor_module,
)
from kreinmod.correspondence import (
    alpha_beta_defect,
    identity_correspondence,
    internal_tensor,
)
from kreinmod.krein_module import (
    intertwiner,
    krein_space,
    random_symmetry,
    standard_symmetry,
)
from kreinmod.krein_over_krein import (
    check_module_over_krein,
    left_twist_defect,
    operator_bimodule,
)
from kreinmod.linalg import (
    gaussians,
    involution_defect,
    operator_norm,
    spectral_projector,
)

MODULE = operator_bimodule(bounded_operators(1, 1), bounded_operators(2, 1))
SAMPLES = 20

# records of the plain checks before the law table
PLAIN_CHECKS = ("J involutive", "inner non-degenerate")


def bumped(tensor, index, delta):
    out = tensor.copy()
    out[index] = out[index] + delta
    return out


def swapped(tensor, i, k):
    out = tensor.copy()
    out[[i, k]] = out[[k, i]]
    return out


def j_scaled_on_one_half(m):
    plus, minus = (spectral_projector(m.symmetry, s) for s in (+1, -1))
    return replace(m, symmetry=plus - 2 * minus)


# law -> (corruption name, corrupted module)
MUTATIONS = {
    "action associative": (
        "one right action entry perturbed",
        lambda m: replace(m, action=bumped(m.action, (1, 0, 1), 1.0)),
    ),
    "inner right-linear": (
        "inner block <e_0, e_1> shifted by the unit",
        lambda m: replace(m, inner=bumped(m.inner, (0, 1), np.eye(m.algebra.dim))),
    ),
    "inner star-hermitian": (
        "inner product times i",
        lambda m: replace(m, inner=1j * m.inner),
    ),
    "J twists over alpha": ("J scaled on its minus half", j_scaled_on_one_half),
    "alpha of inner is inner of J pair": (
        "J doubled",
        lambda m: replace(m, symmetry=2 * m.symmetry),
    ),
    "auxiliary product positive": (
        "J negated",
        lambda m: replace(m, symmetry=-m.symmetry),
    ),
    "even odd parts exchange under J": (
        "J replaced by the identity",
        lambda m: replace(m, symmetry=np.eye(m.dim)),
    ),
    "left action associative": (
        "two left actions swapped",
        lambda m: replace(m, left_action=swapped(m.left_action, 0, 1)),
    ),
    "actions commute": (
        "a right action added to a left action",
        lambda m: replace(m, left_action=bumped(m.left_action, 0, m.action[1])),
    ),
    "J twists over left alpha": (
        "left algebra untwisted to B(C^{3,0})",
        lambda m: replace(m, left_algebra=bounded_operators(3, 0)),
    ),
    "left inner left-linear": (
        "left inner block <e_0, e_0> shifted by the unit",
        lambda m: replace(
            m, left_inner=bumped(m.left_inner, (0, 0), np.eye(m.left_algebra.dim))
        ),
    ),
}


def laws(module) -> dict:
    report = check_module_over_krein(module, samples=SAMPLES, seed=0)
    return {r.name: r for r in report.records if r.name not in PLAIN_CHECKS}


def test_table_names_every_law_and_each_passes_on_the_module():
    records = laws(MODULE)
    assert len(records) == 11
    assert sorted(records) == sorted(MUTATIONS)
    for record in records.values():
        assert record.max_violation <= record.tolerance, record.name


@pytest.mark.parametrize(
    "law",
    list(MUTATIONS),
    ids=[f"{law}: {name}" for law, (name, _) in MUTATIONS.items()],
)
def test_corruption_breaks_its_law_by_a_decade(law):
    _, corrupt = MUTATIONS[law]
    record = laws(corrupt(MODULE))[law]
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed


# the module-over-Kreĭn scenario's "rank-one adjoint swaps arguments", whose
# residual reads ‖T♯ − |y><x|‖ for T = |x><y|: it must catch an adjoint that
# keeps the arguments in place
def rank_one_adjoint_record():
    report = checker.run(
        checker.CheckConfig(scenario="module-over-krein", p=1, q=1, samples=10)
    )
    law = "rank-one adjoint swaps arguments"
    (record,) = (r for r in report.records if r.name == law)
    return record


def test_rank_one_adjoint_law_fails_on_an_unswapped_adjoint(monkeypatch):
    assert rank_one_adjoint_record().passed
    # the adjoint of |x><y| left as |x><y|, the arguments not swapped
    monkeypatch.setattr(checker, "krein_adjoint_over_krein", lambda module, t: t)
    record = rank_one_adjoint_record()
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed


# the module scenario's control pair on C^{2,2}, the spinor form of R^{2,2}
# and the reference symmetry of C^{2,1} with the krein-algebra scenario's
# corruption
SPACE = krein_space(2, 2)
JA = standard_symmetry(SPACE)
JB = random_symmetry(SPACE, np.random.default_rng(43))
FORM = gamma_rep(PseudoEuclideanSpace(2, 2)).a
ETA = bounded_operators(2, 1).eta
BAD_ETA = np.diag([1.0, 1.0, -2.0]).astype(complex)
B11 = bounded_operators(1, 1)
ODD = B11.basis[1]  # E₀₁, which alpha negates


def doubled_minus_transition():
    plus = JB.projector(+1) @ JA.projector(+1)
    return plus + 2.0 * (JB.projector(-1) @ JA.projector(-1))


# control record -> (law tolerance, control tolerance, residual on the real
# structure, residual on the control's corruption)
CONTROLS = {
    "negative control: scaled minus transition": (
        1e-9,
        1e-9,
        lambda: checker._unitarity_defect(SPACE, JA, intertwiner(SPACE, JA, JB)),
        lambda: checker._unitarity_defect(SPACE, JA, doubled_minus_transition()),
    ),
    "negative control: scaled spinor form": (
        1e-12,
        1e-10,
        lambda: checker._form_defect(FORM),
        lambda: checker._form_defect(2.0 * FORM),
    ),
    "negative control: corrupted eta": (
        1e-10,
        1e-10,
        lambda: involution_defect(ETA),
        lambda: involution_defect(BAD_ETA),
    ),
    "negative control: non-intertwining homomorphism": (
        1e-9,
        1e-9,
        lambda: alpha_beta_defect(lambda a: a, B11, B11.alpha, ODD, ODD),
        lambda: alpha_beta_defect(lambda a: a, B11, lambda b: b, ODD, ODD),
    ),
}


@pytest.mark.parametrize("control", list(CONTROLS))
def test_control_residual_separates_structure_from_corruption(control):
    law_tol, control_tol, real, corrupted = CONTROLS[control]
    assert real() <= law_tol
    assert corrupted() >= 10 * control_tol


# scenario laws whose residual is a library or checker function, each with
# its scenario's normalisation: law -> (tolerance, residual on the real
# structure, residual on a corruption of it)
SPINOR = spinor_module(PseudoEuclideanSpace(2, 2))
IDENT11 = identity_correspondence(B11)
TENSOR11 = internal_tensor(IDENT11, IDENT11)


def spinor_twisting(module):
    """The spinor scenario's "spinor twisting over alpha" on SAMPLES draws."""
    left = module.left_algebra
    c, x = gaussians(np.random.default_rng(5), SAMPLES, (left.dim,) * 2, (module.dim,))
    c = left.project(c)
    scale = np.linalg.norm(x, axis=-1) * operator_norm(c)
    return np.max(left_twist_defect(module, c, x) / scale)


def inner_twist(t):
    """The tensor scenario's "gamma compatibility of descended product"."""
    u, v = gaussians(np.random.default_rng(6), SAMPLES, (t.dim,), (t.dim,))
    return np.max(checker._inner_twist_residual(t, u, v))


SCENARIO_LAWS = {
    "spinor twisting over alpha": (
        1e-10,
        lambda: spinor_twisting(SPINOR),
        lambda: spinor_twisting(j_scaled_on_one_half(SPINOR)),
    ),
    "gamma compatibility of descended product": (
        1e-10,
        lambda: inner_twist(TENSOR11),
        lambda: inner_twist(replace(TENSOR11, symmetry=2 * TENSOR11.symmetry)),
    ),
}


@pytest.mark.parametrize("law", list(SCENARIO_LAWS))
def test_scenario_law_separates_structure_from_corruption(law):
    tol, real, corrupted = SCENARIO_LAWS[law]
    assert real() <= tol
    assert corrupted() >= 10 * tol


def test_tensor_scenario_twist_law_meets_a_quotient(monkeypatch):
    # over the scalars the section is I, and over B(C^{2,0}) alpha and J are
    # the identity: on either the law could not tell J from I
    seen = []
    residual = checker._inner_twist_residual
    monkeypatch.setattr(
        checker, "_inner_twist_residual",
        lambda t, u, v: seen.append(t) or residual(t, u, v),
    )
    checker.run(checker.CheckConfig(scenario="tensor", samples=3))
    assert seen and all(t.section.shape == (16, 4) for t in seen)
    assert not any(t.algebra.is_trivially_definite for t in seen)


# the Clifford scenario's "clifford grassmann bijection" reads c(e_S)·1 = e_S
# off the blades' first columns
def grassmann_run():
    report = checker.run(checker.CheckConfig(scenario="clifford", p=2, q=2, samples=5))
    law = "clifford grassmann bijection"
    (record,) = (r for r in report.records if r.name == law)
    return report, record


def test_grassmann_bijection_fails_on_negated_first_columns(monkeypatch):
    report, record = grassmann_run()
    assert record.max_violation == 0.0
    real = clifford_krein_algebra(PseudoEuclideanSpace(2, 2))
    basis = real.basis.copy()
    basis[:, :, 0] *= -1
    monkeypatch.setattr(
        checker, "clifford_krein_algebra",
        lambda space: KreinCStarAlgebra(basis, real.eta, validate=False),
    )
    corrupted, record = grassmann_run()
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed
    assert [r.name for r in corrupted.records] == [r.name for r in report.records]
