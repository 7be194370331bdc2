"""Mutation table for the sampled laws of ``check_module_over_krein``.

Each law row of the table, run on the operator bimodule of B(C^{1,1}) and
B(C^{2,1}), gets one named corruption of the module.  The corruption must
push that law at least one decade above its own tolerance, and the law must
pass on the uncorrupted module, so the tolerance sits between the two sides.

The checker's negative controls that run a law's own residual get one row
each in the same style: the residual stays within the law's tolerance on the
real structure and reaches ten times the control's tolerance on the
control's corruption.  So do the scenario laws whose residual is a library
or checker function, each against its own tolerance, and the C* identity of
the algebra axioms.
"""

from dataclasses import replace

import numpy as np
import pytest

from kreinmod import checker, correspondence
from kreinmod.algebra import (
    FiniteCStarAlgebra,
    KreinCStarAlgebra,
    bounded_operators,
    check_krein_cstar_axioms,
)
from kreinmod.clifford import (
    PseudoEuclideanSpace,
    anticommutator_residual,
    clifford_krein_algebra,
    gamma_rep,
    grassmann_inner,
    spinor_module,
    vector,
    wedge,
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
    inner_twist_defect,
    operator_bimodule,
)
from kreinmod.linalg import (
    gaussians,
    involution_defect,
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


def scenario_records(scenario, p, q) -> dict:
    report = checker.run(checker.CheckConfig(scenario=scenario, p=p, q=q, samples=3))
    return {r.name: r for r in report.records}


def inner_twins(module):
    # alpha(p) = p₊ − p₋, so ⟨Jx, Jy⟩ = p₊ − p₋ is alpha(⟨x, y⟩) = ⟨Jx, Jy⟩
    records = laws(module)
    twins = ("even odd parts exchange under J", "alpha of inner is inner of J pair")
    return [(records[twins[0]], records[twins[1]], 1.0)]


def spinor_twins(p, q):
    """The Morita block repeats the module table, and the spinor twisting law
    is its left-twist row, held to 1e-10."""
    records = scenario_records("spinor", p, q)
    table = [n.removeprefix("module: ") for n in records if n.startswith("module: ")]
    assert len(table) == 13
    twist = records["spinor twisting over alpha"]
    assert twist.tolerance == 1e-10
    return [
        *((records[f"morita: {n}"], records[f"module: {n}"], 1.0) for n in table),
        (twist, records["module: J twists over left alpha"], 1.0),
    ]


def clifford_cstar_twins():
    records = clifford_records()
    twin = records["algebra: cstar identity"]
    return [(records["clifford cstar identity"], twin, 1.0)]


def grading_twins(algebra):
    # alpha(a₊) − a₊ = −(alpha(a₋) + a₋) = (alpha²(a) − a)/2
    report = check_krein_cstar_axioms(algebra, samples=SAMPLES, seed=0)
    records = {r.name: r for r in report.records}
    return [(records["even part alpha-fixed"], records["alpha involutive"], 0.5)]


def rotated_eta_algebra():
    """B(C^2) with eta = R diag(1, −1) Rᵀ for a rotation R by 0.3: an eta with
    inexact entries, on which alpha² is the identity only to rounding."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    return KreinCStarAlgebra(
        FiniteCStarAlgebra((2,)).basis(), rot @ np.diag([1.0, -1.0]) @ rot.T
    )


# each case -> (record, the twin whose evaluation it reads, factor) triples
TWINS = {
    "inner twist, operator bimodule": lambda: inner_twins(MODULE),
    "inner twist, spinor (1,3)": lambda: inner_twins(
        spinor_module(PseudoEuclideanSpace(1, 3))
    ),
    "spinor (1,1)": lambda: spinor_twins(1, 1),
    "spinor (1,3)": lambda: spinor_twins(1, 3),
    "spinor (3,3)": lambda: spinor_twins(3, 3),
    "clifford (2,2) cstar identity": clifford_cstar_twins,
    "krein-algebra (2,1) grading": lambda: grading_twins(bounded_operators(2, 1)),
    "rotated eta grading": lambda: grading_twins(rotated_eta_algebra()),
}


@pytest.mark.parametrize("case", list(TWINS))
def test_twin_records_read_one_residual(case):
    for record, twin, factor in TWINS[case]():
        assert record.max_violation == factor * twin.max_violation, record.name


def test_spinor_scenario_runs_the_module_table_once(monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(args[0])
        return check_module_over_krein(*args, **kw)

    for namespace in (checker, correspondence):
        monkeypatch.setattr(namespace, "check_module_over_krein", spy)
    checker.run(checker.CheckConfig(scenario="spinor", p=1, q=1, samples=3))
    assert len(calls) == 1


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


# the module scenario's control pair on C^{2,2}, the spinor form and the
# Clifford generator images of R^{2,2}, and the reference symmetry of C^{2,1}
# with the krein-algebra scenario's corruption
SPACE = krein_space(2, 2)
JA = standard_symmetry(SPACE)
JB = random_symmetry(SPACE, np.random.default_rng(43))
S22 = PseudoEuclideanSpace(2, 2)
FORM = gamma_rep(S22).a
CLIFFORD22 = clifford_krein_algebra(S22)
GENS = CLIFFORD22.from_coefficients(vector(S22, np.eye(S22.n)).coeffs)
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
    # {c_i, c_i} = 2 g_ii for each real generator, against g = 0 for the control
    "negative control: degenerate metric gram": (
        1e-12,
        1e-12,
        lambda: np.max(anticommutator_residual(GENS, GENS, S22.signs)),
        lambda: np.max(anticommutator_residual(GENS[-1:], GENS[-1:], np.zeros(1))),
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
SPINOR = spinor_module(S22)
IDENT11 = identity_correspondence(B11)
TENSOR11 = internal_tensor(IDENT11, IDENT11)


def spinor_twisting(module):
    """The spinor scenario's "spinor twisting over alpha": the spinor module's
    own "J twists over left alpha" on SAMPLES draws."""
    return laws(module)["J twists over left alpha"].max_violation


def inner_twist(t):
    """The tensor scenario's "gamma compatibility of descended product"."""
    u, v = gaussians(np.random.default_rng(6), SAMPLES, (t.dim,), (t.dim,))
    scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    p, pj = t.pairing(u, v), t.pairing(t.j(u), t.j(v))
    return np.max(inner_twist_defect(t.algebra, p, pj) / scale)


def gram_oracle(signs):
    """The Clifford scenario's "gram determinant oracle" on SAMPLES pairs of
    2-blades v₀∧v₁, w₀∧w₁ of R^{2,2}, the reference Gram matrix ⟨vᵢ, wⱼ⟩ read
    with the metric ``signs``."""
    vs, ws = gaussians(np.random.default_rng(7), SAMPLES, (2, S22.n), (2, S22.n))
    v, w = (wedge(vector(S22, x[:, 0]), vector(S22, x[:, 1])) for x in (vs, ws))
    gram = np.einsum("kin,n,kjn->kij", vs.conj(), signs, ws)
    scale = np.prod(np.linalg.norm(vs, axis=-1) * np.linalg.norm(ws, axis=-1), -1)
    return np.max(np.abs(grassmann_inner(v, w) - checker._gram_det(gram)) / scale)


IDENT2 = identity_correspondence(bounded_operators(2, 0))


def section_independence(moved_by_cob):
    """The tensor scenario's "section independence" of id(B(C^{2,0})) ⊗ itself:
    its inner product moved to a rotated section by the change of basis, or
    left where it is."""
    t, t_rot = (
        internal_tensor(IDENT2, IDENT2, section_rotation=rotation)
        for rotation in (None, np.random.default_rng(3))
    )
    cob = t.section.conj().T @ t_rot.section if moved_by_cob else np.eye(t.dim)
    moved = np.einsum("au,bv,abcd->uvcd", cob.conj(), cob, t.inner)
    return np.linalg.norm(moved - t_rot.inner) / np.linalg.norm(t_rot.inner)


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
    "gram determinant oracle": (
        1e-10,
        lambda: gram_oracle(S22.signs),
        lambda: gram_oracle(S22.signs * [1, 1, 1, -1]),  # one metric sign flipped
    ),
    "section independence": (
        1e-9,
        lambda: section_independence(True),
        lambda: section_independence(False),  # the change of basis dropped
    ),
}


@pytest.mark.parametrize("law", list(SCENARIO_LAWS))
def test_scenario_law_separates_structure_from_corruption(law):
    tol, real, corrupted = SCENARIO_LAWS[law]
    assert real() <= tol
    assert corrupted() >= 10 * tol


# "cstar identity" of the algebra axioms: with eta doubled, alpha(star(a)) =
# 16 a†, so ‖alpha(star(a)) a‖ = 16‖a‖² and the relative defect reads 15
CSTAR_ALGEBRAS = {"clifford (2,2)": CLIFFORD22, "B(C^{2,1})": bounded_operators(2, 1)}


def cstar_identity(algebra):
    report = check_krein_cstar_axioms(algebra, samples=SAMPLES, seed=0)
    return {r.name: r for r in report.records}["cstar identity"]


@pytest.mark.parametrize("name", list(CSTAR_ALGEBRAS))
def test_cstar_identity_fails_under_doubled_eta(name):
    algebra = CSTAR_ALGEBRAS[name]
    assert cstar_identity(algebra).passed
    doubled = KreinCStarAlgebra(algebra.basis, 2 * algebra.eta, validate=False)
    record = cstar_identity(doubled)
    assert record.max_violation == pytest.approx(15.0)
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed


def test_tensor_scenario_twist_law_meets_a_quotient(monkeypatch):
    # over the scalars the section is I, and over B(C^{2,0}) alpha and J are
    # the identity: on either the law could not tell J from I
    tensors, seen = [], []
    monkeypatch.setattr(
        checker, "internal_tensor",
        lambda *args, **kw: tensors.append(internal_tensor(*args, **kw)) or tensors[-1],
    )
    monkeypatch.setattr(
        checker, "inner_twist_defect",
        lambda alg, p, pj: seen.append(alg) or inner_twist_defect(alg, p, pj),
    )
    checker.run(checker.CheckConfig(scenario="tensor", samples=3))
    # the pairings come from the scenario's tensors over the algebra they twist by
    twisted = [t for t in tensors if any(t.algebra is alg for alg in seen)]
    assert twisted and all(t.section.shape == (16, 4) for t in twisted)
    assert seen and not any(alg.is_trivially_definite for alg in seen)


# the Clifford scenario's "clifford grassmann bijection" and "representation
# faithful" read the symbol map a ↦ c(a)·1, the blades' first columns, and
# "second quantized auxiliary form positive" reads the algebra's eta as J
def clifford_records(monkeypatch=None, basis=None, eta=None):
    """The Clifford (2,2) scenario's records by name, on the real algebra or,
    given a monkeypatch, on a blade stack or eta that replaces its own."""
    if monkeypatch is not None:
        basis = CLIFFORD22.basis if basis is None else basis
        eta = CLIFFORD22.eta if eta is None else eta
        monkeypatch.setattr(
            checker, "clifford_krein_algebra",
            lambda space: KreinCStarAlgebra(basis, eta, validate=False),
        )
    report = checker.run(checker.CheckConfig(scenario="clifford", p=2, q=2, samples=5))
    return {r.name: r for r in report.records}


def first_columns_scaled(factor):
    basis = CLIFFORD22.basis.copy()
    basis[:, :, 0] *= factor
    return basis


def test_grassmann_bijection_fails_on_negated_first_columns(monkeypatch):
    real = clifford_records()
    assert real["clifford grassmann bijection"].max_violation == 0.0
    corrupted = clifford_records(monkeypatch, basis=first_columns_scaled(-1))
    record = corrupted["clifford grassmann bijection"]
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed
    assert list(corrupted) == list(real)
    # negated columns stay independent: the representation is still faithful
    assert corrupted["representation faithful"].max_violation == 0.0


def test_faithfulness_fails_on_zeroed_first_columns(monkeypatch):
    assert clifford_records()["representation faithful"].max_violation == 0.0
    corrupted = clifford_records(monkeypatch, basis=first_columns_scaled(0))
    record = corrupted["representation faithful"]
    assert record.max_violation == 16  # every symbol is zero
    assert record.max_violation >= 10 * record.tolerance
    assert not record.passed


def test_auxiliary_form_reads_one_under_negated_J(monkeypatch):
    law = "second quantized auxiliary form positive"
    assert clifford_records()[law].max_violation <= 1e-15
    # ⟨m, −Jm⟩ = −‖m‖², summed as the normalisation sums it
    record = clifford_records(monkeypatch, eta=-CLIFFORD22.eta)[law]
    assert record.max_violation == 1.0
    assert not record.passed
