"""Scenario runner: packages the library's randomized verification suites
into named, seeded, reproducible check lists.

Every scenario emits a fixed set of record names (the coverage manifest);
the full gallery re-runs all scenarios and fails if any expected record is
missing.  Each scenario also carries at least one deliberately corrupted
structure whose check must fail, guarding against vacuous passes.

Sampled laws are stated as tables.  A draw function turns the seeded RNG
into a batch of samples: one ``linalg.gaussians`` call gives every drawn
field as a stack on axis 0, read from the stream in sample order, and the
draw computes the quantities several laws share (projections, norms,
``star(a)``, pairings) once for the whole stack.  A law table lists one
``(record name, tolerance, residual)`` row per law, where the residual maps
a batch to one non-negative, normalised violation per sample.
``Report.check_laws`` draws the batches, feeds each through the table and
records each law's worst residual in table order.  A new law is one table
row, and every new law needs a negative control: a corrupted structure on
which it fails.  One-off checks that draw nothing stay plain
``Report.check`` calls, and so does a law linear in each argument, which
holds iff it holds on a basis and is decided there: the Clifford laws on the
blades and unit vectors, and every tensor-category law (gamma compatibility,
``check_morphism``, ``check_krein_star_hom``); inside a sampled table it is a
row whose residual is its value, as "inner star-hermitian".  Sampling stays
for laws that are not multilinear, for the module scenario's random
fundamental symmetries, and for multilinear laws whose basis tuples outgrow
a run's tensors: the algebra axioms, the module table's other bilinear laws,
the linking identity and the spinor identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import numpy as np

from .algebra import (
    FiniteCStarAlgebra,
    bounded_operators,
    check_krein_cstar_axioms,
    cstar_residual,
    functions_on_points,
)
from .clifford import (
    MultiVector,
    PseudoEuclideanSpace,
    anticommutator_residual,
    clifford_krein_algebra,
    cocycle_failures,
    conjugate_reversal_coeffs,
    gamma_algebra,
    gamma_rep,
    generator,
    scalar_one,
    spinor_module,
    spinor_signature,
    vector,
    wedge,
    grassmann_inner,
)
from .correspondence import (
    DegenerateDescentError,
    _factorization,
    alpha_beta_defect,
    associativity_iso,
    check_krein_star_hom,
    check_morphism,
    double_contragredient_iso,
    even_odd_decomposition_check,
    identity_correspondence,
    internal_tensor,
    krein_space_correspondence,
    left_unit_iso,
    morita_krein_check,
    right_unit_iso,
    spinor_correspondence,
)
from .krein_module import (
    FundamentalSymmetry,
    KreinModule,
    _pd_gram,
    halves_rank,
    hilbert_adjoint,
    hyperbolic_symmetry,
    intertwiner,
    krein_adjoint,
    krein_space,
    norm_equivalence_constants,
    random_symmetry,
    standard_symmetry,
)
from .krein_over_krein import (
    ADJOINT_TOL,
    MatrixBimodule,
    adjoint_residual,
    auxiliary_product,
    check_imprimitivity,
    check_module_over_krein,
    inner_twist_defect,
    is_adjointable,
    krein_adjoint_over_krein,
    operator_bimodule,
    rank_one,
    self_module,
)
from .linalg import (
    ValidationError,
    _Monomials,
    gaussians,
    hermitian_defect,
    involution_defect,
    min_hermitian_eig,
    numerical_rank,
    operator_norm,
)
from .report import Report

# scenarios whose structures live on C^{p,q} and so need p + q >= 1
NONEMPTY_SIGNATURE = ("krein-algebra", "module", "module-over-krein", "tensor")

# the one limit on a run's predicted peak memory (``_predicted_peak_bytes``):
# it admits Clifford (5,5) at 0.77 GB and refuses Clifford at p + q = 11 (3.0 GB),
# keeping a run well inside a machine with 8 GB
BYTE_BUDGET = 2_500_000_000

# sample cap for laws whose residual solves for an adjoint or multiplies
# operators on the whole exterior algebra
SLOW_LAW_SAMPLES = 50

# the most random fundamental symmetries the module scenario draws per module,
# one per sample
MODULE_SYMMETRIES = 20


class ConfigError(ValueError):
    """Invalid check configuration (a usage error, not a check failure)."""


class ResourceBudgetError(RuntimeError):
    """A run's predicted peak memory exceeds ``BYTE_BUDGET``."""


@dataclass(frozen=True)
class CheckConfig:
    """Parameters of one verification run."""

    scenario: str
    seed: int = 42
    samples: int = 100
    tol: float = 1e-9
    p: int = 1
    q: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        _check_run_parameters(self.seed, self.samples, self.tol)
        if self.p < 0 or self.q < 0:
            raise ConfigError("signature counts must be non-negative")
        if self.p + self.q < 1 and self.scenario in NONEMPTY_SIGNATURE:
            raise ConfigError(f"scenario {self.scenario} needs p + q >= 1")
        if (self.p + self.q) % 2 and self.scenario == "spinor":
            raise ConfigError("spinor scenario needs an even total dimension")


def _check_run_parameters(seed: int, samples: int, tol: float):
    """The ranges shared by scenarios and demos; NaN fails the tol test."""
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    if not 0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")


# one record name per operation-level invariant; the gallery coverage
# check fails if any of these is missing from the merged report
COVERAGE_MANIFEST = {
    "krein-algebra": (
        "eta hermitian",
        "eta involutive",
        "star involutive",
        "star antimultiplicative",
        "alpha involutive",
        "alpha multiplicative",
        "alpha star-compatible",
        "cstar identity",
        "even part alpha-fixed",
        "odd times odd is even",
        "cstar identity on B(C^{1,1})",
        "cstar identity on B(C^{2,1})",
        "cstar identity on B(C^{2,2})",
        "negative control: corrupted eta",
    ),
    "module": (
        "symmetry squares to identity",
        "symmetry self-adjoint for the form",
        "positive half semidefinite",
        "negative half semidefinite",
        "hilbertified gram positive definite",
        "decomposition exhausts the carrier",
        "adjoint solves the inner relation",
        "adjoint dictionary twisted vs hilbertified",
        "transition maps bijective",
        "intertwiner exchanges symmetries",
        "intertwiner unitary for the form",
        "hyperbolic norm constants",
        "negative control: scaled minus transition",
        "negative control: degenerate gram rejected",
    ),
    "module-over-krein": (
        "J involutive",
        "inner non-degenerate",
        "action associative",
        "inner right-linear",
        "inner star-hermitian",
        "J twists over alpha",
        "alpha of inner is inner of J pair",
        "auxiliary product positive",
        "linking identity",
        "left products full",
        "right products full",
        "adjoint dictionary auxiliary vs twisted",
        "rank-one adjoint swaps arguments",
        "negative control: symmetry not adjointable",
    ),
    "clifford": (
        "generator anticommutators",
        "gram determinant oracle",
        "top blade value in signature (1,1)",
        "second quantized symmetry preserves pairing",
        "second quantized auxiliary form positive",
        "clifford product associative",
        "clifford grassmann bijection",
        "representation faithful",
        "star equals conjugate reversal",
        "clifford cstar identity",
        "negative control: degenerate metric gram",
    ),
    "spinor": (
        "gamma anticommutators",
        "spinor form hermitian involutive",
        "spinor signature (1,1)",
        "spinor signature (1,3)",
        "spinor signature (2,2)",
        "spinor twisting over alpha",
        "spinor auxiliary gram standard",
        "dimension product matches exterior algebra",
        "intertwines left Clifford actions",
        "negative control: scaled spinor form",
    ),
    "tensor": (
        "matrix algebra self-tensor dimension",
        "right unit law",
        "left unit law",
        "associativity isomorphism",
        "even part matches matched-sign tensors",
        "odd part matches mixed-sign tensors",
        "section independence",
        "gamma compatibility of descended product",
        "left action adjointable on tensor",
        "double contragredient identity",
        "unital",
        "multiplicative",
        "star-preserving",
        "intertwines alpha and beta",
        "negative control: non-intertwining homomorphism",
        "negative control: degenerate descent",
    ),
}


def run(config: CheckConfig) -> Report:
    """Execute a scenario; deterministic for fixed config.

    Raises ResourceBudgetError, before building anything, when the predicted
    peak memory of the run exceeds ``BYTE_BUDGET``.
    """
    if config.scenario == "full-gallery":
        return _full_gallery(config)
    needed = _predicted_peak_bytes(config)
    if needed > BYTE_BUDGET:
        raise ResourceBudgetError(
            f"{config.scenario} at (p, q) = ({config.p}, {config.q}) needs "
            f"about {needed:.3g} bytes, budget {BYTE_BUDGET:.3g}"
        )
    report = _SCENARIOS[config.scenario][0](config)
    _coverage_check(report, config.scenario)
    return report


def _predicted_peak_bytes(config: CheckConfig) -> float:
    """Peak memory of one scenario run beyond the imported interpreter.

    16 B per complex entry times a multiple of the scenario's largest shape,
    in d = p + q and N = 2^d, plus 16 MiB for the fixed-size parts every run
    shares (presets, negative controls, numpy's lazily loaded parts).  Each
    multiple is fitted to child peak RSS at two or more sizes.
    """
    d = config.p + config.q
    n = 2.0 ** min(d, 64)  # keeps N³ finite; both N terms exceed the budget from d = 11
    # the D x D arrays of the axiom table's draw, D = d for B(C^{p,q}) and N
    # for Clifford: Clifford (5,5) needs 41.2 of them
    axiom_table = 45
    entries = {
        "krein-algebra": axiom_table * d**2,
        # about 12 d x d matrices per symmetry of the stack: the symmetries,
        # t, its adjoint, the intertwiners, one sign's halves and products
        "module": 12 * (min(config.samples, MODULE_SYMMETRIES) + 1) * d**2,
        # the d² x d² x d x d inner tensors and an adjoint's target: 5.1 at
        # (7,7) and 5.2 at (9,8), so p + q = 17 is admitted and 18 refused
        "module-over-krein": 6 * d**6,
        "tensor": 17 * d**4,  # maps of the d²-dimensional plain tensor
        "clifford": axiom_table * n**2,
        # the s⁴ = N² left inner tensor and the column norms of its rank in "left
        # products full": 1.8 at (5,5) and 2.1 at (6,6), so (7,7) is refused
        "spinor": 3 * n**2,
    }[config.scenario]
    return 16 * entries + 2**24


def _coverage_check(report: Report, scenario: str):
    names = {r.name for r in report.records}
    missing = [n for n in COVERAGE_MANIFEST[scenario] if n not in names]
    report.check(
        "coverage manifest complete",
        float(len(missing)),
        0.5,
        detail="missing: " + ", ".join(missing) if missing else "all present",
    )


def _full_gallery(config: CheckConfig) -> Report:
    report, _ = Report.sampled(
        "full gallery", config.seed, config.samples, scenarios=list(COVERAGE_MANIFEST)
    )
    for name, (_, p, q) in _SCENARIOS.items():
        report.extend(run(replace(config, scenario=name, p=p, q=q)), prefix=f"{name}: ")
    return report


def _check_cstar_identity(report: Report, name: str, algebra, rng, samples, tol):
    """The C* identity ‖a* a‖ = ‖a‖² on one random element a per sample."""
    def draw(rows):
        (g,) = gaussians(rng, len(rows), (algebra.vector_dim,))
        return SimpleNamespace(a=algebra.from_normals(g))

    law = (name, tol, lambda s: cstar_residual(algebra, s.a, algebra.norm(s.a)))
    report.check_laws(draw, samples, [law])


def _check_twin(report: Report, name: str, twin: str, tol: float):
    """Record ``name`` as the value of the report's record ``twin``: the same
    law, evaluated once, held to its own tolerance ``tol``."""
    (value,) = (r.max_violation for r in report.records if r.name == twin)
    report.check(name, value, tol, detail=f"reads {twin}")


def _check_morphism_law(report: Report, name, mor, tol, prefix=""):
    """``check_morphism`` of a morphism, its records extended under a given
    prefix, and a 0/1 record for its verdict."""
    law = check_morphism(mor, tol=tol)
    if prefix:
        report.extend(law, prefix=prefix)
    report.check(name, 0.0 if law.passed else 1.0, 0.5)


def _raised(error, build) -> float:
    """1.0 when ``build()`` raises ``error``, else 0.0."""
    try:
        build()
    except error:
        return 1.0
    return 0.0


def _generator_images(algebra, n: int) -> _Monomials:
    """The basis elements 2^i, i < n, held by their nonzeros, read from a
    dense basis if the algebra has one."""
    k = 1 << np.arange(n)
    held = algebra._monomials
    return _Monomials.read(algebra.basis[k]) if held is None else held[k]


def _check_anticommutators(report: Report, name: str, ops, signs):
    """One law over every unordered pair i ≤ j of the generator images
    ``ops``, full rows (``linalg._Monomials``), since {c_i, c_j} = {c_j, c_i}
    to the bit."""
    pairs = np.array(
        list(combinations_with_replacement(range(len(signs)), 2))
    ).reshape(-1, 2)

    def draw(rows):
        i, j = pairs[rows].T
        return SimpleNamespace(ci=ops[i], cj=ops[j], g=np.where(i == j, signs[i], 0.0))

    report.check_laws(
        draw, len(pairs),
        [(name, 1e-12, lambda s: anticommutator_residual(s.ci, s.cj, s.g))],
    )


# -- scenario: the algebra axioms -------------------------------------------------


def _scenario_krein_algebra(config: CheckConfig) -> Report:
    alg = bounded_operators(config.p, config.q)
    report = check_krein_cstar_axioms(
        alg, samples=config.samples, seed=config.seed, tol=config.tol
    )
    report.title = f"Kreĭn algebra scenario {alg.label}"

    for pp, qq in ((1, 1), (2, 1), (2, 2)):
        rng = np.random.default_rng(config.seed + pp * 10 + qq)
        _check_cstar_identity(
            report, f"cstar identity on B(C^{{{pp},{qq}}})", bounded_operators(pp, qq),
            rng, config.samples, config.tol,
        )

    bad_eta = np.diag(np.concatenate([np.ones(alg.dim - 1), [-2.0]])).astype(complex)
    report.check(
        "negative control: corrupted eta",
        involution_defect(bad_eta),
        1e-10,
        detail="eta with an eigenvalue of -2 must break involutivity",
        expected_fail=True,
    )
    return report


# -- scenario: modules over C*-algebras --------------------------------------------


def _scenario_module(config: CheckConfig) -> Report:
    report, rng = Report.sampled(
        "Kreĭn module scenario", config.seed, config.samples,
        p=config.p, q=config.q, rank=2,
    )
    space = krein_space(config.p, config.q)
    matrix_module = KreinModule(
        FiniteCStarAlgebra((2,)),
        2,
        np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex),
    )
    n_random = min(config.samples, MODULE_SYMMETRIES)
    groups = [_symmetry_samples(m, rng, n_random) for m in (space, matrix_module)]
    for g in groups:  # the intertwiners of the consecutive pairs j[:-1], j[1:]
        g.u = intertwiner(g.module, *(
            FundamentalSymmetry._built(g.module, m)
            for m in (g.j.matrix[:-1], g.j.matrix[1:])
        ))
    tol = config.tol
    report.check_laws(
        _module_draw(groups),
        len(groups),
        [
            ("symmetry squares to identity", tol,
             _per_module(lambda g: involution_defect(g.j.matrix))),
            ("symmetry self-adjoint for the form", tol,
             _per_module(lambda g: g.j.selfadjoint_defect())),
            ("positive half semidefinite", tol,
             _per_module(lambda g: _psd_defect(g.j.half_form(+1)))),
            ("negative half semidefinite", tol,
             _per_module(lambda g: _psd_defect(g.j.half_form(-1)))),
            ("hilbertified gram positive definite", tol,
             _per_module(_hilbertified_gram_defect)),
            ("decomposition exhausts the carrier", tol,
             _per_module(_decomposition_defect)),
            ("adjoint solves the inner relation", tol,
             _per_module(_adjoint_relation_residual)),
            ("adjoint dictionary twisted vs hilbertified", tol,
             _per_module(lambda g: operator_norm(
                 g.ts - g.j.matrix @ hilbert_adjoint(g.module, g.j, g.t) @ g.j.matrix
             ) / np.maximum(operator_norm(g.t), 1.0))),
            ("transition maps bijective", tol, _per_module(_transition_defect)),
            ("intertwiner exchanges symmetries", tol,
             _per_module(lambda g: operator_norm(
                 g.u @ g.j.matrix[:-1] - g.j.matrix[1:] @ g.u
             ))),
            ("intertwiner unitary for the form", tol,
             _per_module(lambda g: _unitarity_defect(g.module, g.j, g.u))),
        ],
    )

    c11 = krein_space(1, 1)
    j1 = standard_symmetry(c11)
    j2 = FundamentalSymmetry(c11, hyperbolic_symmetry(0.3))
    lo, hi = norm_equivalence_constants(c11, j1, j2)
    report.check(
        "hyperbolic norm constants",
        max(abs(lo - np.exp(-0.3)), abs(hi - np.exp(0.3))),
        1e-6,
        detail="rotation parameter t = 0.3",
    )

    # the minus transition is doubled, or the plus one on a space with no
    # minus half
    ja = standard_symmetry(space)
    jb = random_symmetry(space, np.random.default_rng(config.seed + 1))
    doubled, half = (-1, "negative") if config.q else (+1, "positive")
    bad = sum(
        (2.0 if sign == doubled else 1.0) * (jb.projector(sign) @ ja.projector(sign))
        for sign in (+1, -1)
    )
    report.check(
        "negative control: scaled minus transition",
        _unitarity_defect(space, ja, bad),
        config.tol,
        detail=f"doubling the {half} transition map must break unitarity",
        expected_fail=True,
    )
    report.check(
        "negative control: degenerate gram rejected",
        _raised(ValidationError, lambda: KreinModule(
            FiniteCStarAlgebra((1,)), 2, np.diag([1.0, 0.0]).astype(complex)
        )),
        0.5,
        detail="a singular gram matrix must be refused at construction",
        expected_fail=True,
    )
    return report


def _symmetry_samples(module: KreinModule, rng, n_random: int):
    """The standard and ``n_random`` random fundamental symmetries of a
    module as one stack j, with a random operator t and its Kreĭn adjoint ts
    per symmetry: one namespace of stacks."""
    drawn = random_symmetry(module, rng, n_random).matrix
    jm = np.concatenate([standard_symmetry(module).matrix[None], drawn])
    j = FundamentalSymmetry._built(module, jm)
    (t,) = gaussians(rng, n_random + 1, (module.flat_dim,) * 2)
    t = module.project_operator(t)
    return SimpleNamespace(
        module=module,
        j=j,
        t=t,
        ts=krein_adjoint(module, j, t),  # G⁻¹ T† G, for every symmetry
    )


def _module_draw(groups):
    """A draw whose samples are modules, each a ``_symmetry_samples`` group."""
    return lambda rows: SimpleNamespace(modules=groups[rows.start : rows.stop])


def _per_module(residual):
    """A law over ``_module_draw`` samples: its worst value over each
    module's stack."""
    return lambda batch: np.array([residual(g).max() for g in batch.modules])


def _unitarity_defect(module: KreinModule, j: FundamentalSymmetry, u):
    """‖U♯ U − 1‖ of an operator or of each operator of a stack; the Kreĭn
    adjoint U♯ = G⁻¹ U† G does not depend on the symmetry passed."""
    return operator_norm(krein_adjoint(module, j, u) @ u - np.eye(module.flat_dim))


def _adjoint_relation_residual(g):
    """‖T†G − GT♯‖₂ / max(‖T‖₂, 1) per symmetry, G the gram that
    ``KreinModule.inner`` reads: ⟨Tx, y⟩ − ⟨x, T♯y⟩ = x†(T†G − GT♯)y is
    linear in y and conjugate-linear in x, so the relation holds for all x
    and y when this operator vanishes."""
    gram = g.module.gram
    defect = g.t.conj().swapaxes(-1, -2) @ gram - gram @ g.ts
    return operator_norm(defect) / np.maximum(operator_norm(g.t), 1.0)


def _psd_defect(h):
    return np.maximum(0.0, -min_hermitian_eig(h))


def _hilbertified_gram_defect(g):
    """Positivity defect of the hilbertified gram J† G of each symmetry."""
    return _psd_defect(_pd_gram(g.module, g.j))


def _decomposition_defect(g):
    """|r₊ + r₋ − dim carrier| of the ``halves_rank`` of P₊ and P₋, per J."""
    ranks = halves_rank(g.module, g.j.projector(+1), g.j.projector(-1))
    return np.abs(sum(ranks) - len(g.module.carrier))


def _transition_defect(g):
    """Summed rank deficit of the transition maps P₂± P₁± from the halves of
    j1 = j[:-1] to those of j2 = j[1:], against the halves P₁± themselves."""
    plus, minus = g.j.projector(+1), g.j.projector(-1)
    sources = halves_rank(g.module, plus[:-1], minus[:-1])
    images = halves_rank(g.module, plus[1:] @ plus[:-1], minus[1:] @ minus[:-1])
    return np.abs(sum(images) - sum(sources))


# -- scenario: modules over Kreĭn algebras -----------------------------------------


def _scenario_module_over_krein(config: CheckConfig) -> Report:
    algebra = bounded_operators(config.p, config.q)
    module = self_module(algebra)
    report = morita_krein_check(
        module, samples=config.samples, seed=config.seed, tol=config.tol
    )
    report.title = f"module over {algebra.label}"
    other = operator_bimodule(algebra, bounded_operators(1, 1))
    report.extend(
        check_module_over_krein(
            other, samples=config.samples, seed=config.seed + 2, tol=config.tol
        ),
        prefix="operator bimodule: ",
    )

    rng = np.random.default_rng(config.seed + 3)
    # the module under ⟨x, J y⟩, holding only the inner tensor that
    # adjoint_residual reads: replace would build every dense field
    units = np.eye(module.dim)
    aux_module = MatrixBimodule._held(
        algebra=algebra, dim=module.dim,
        inner=auxiliary_product(module, units[:, None], units[None]),
    )

    def draw(rows):
        x, y = gaussians(rng, len(rows), (module.dim,), (module.dim,))
        t = rank_one(module, x, y)
        return SimpleNamespace(
            x=x, y=y, t=t, ts=krein_adjoint_over_krein(module, t),
            scale=np.maximum(operator_norm(t), 1.0),
        )

    jmat = module.symmetry
    report.check_laws(
        draw,
        min(config.samples, SLOW_LAW_SAMPLES),
        [
            ("adjoint dictionary auxiliary vs twisted", 1e-7,
             lambda s: operator_norm(
                 adjoint_residual(aux_module, s.t)[0] - jmat @ s.ts @ jmat
             ) / s.scale),
            ("rank-one adjoint swaps arguments", 1e-7,
             lambda s: operator_norm(s.ts - rank_one(module, s.y, s.x)) / s.scale),
        ],
    )

    _, residual = adjoint_residual(module, module.symmetry)
    definite = algebra.is_trivially_definite
    report.check(
        "negative control: symmetry not adjointable",
        residual,
        ADJOINT_TOL,
        detail="the twisted symmetry of a genuinely indefinite algebra "
        "admits no adjoint",
        expected_fail=not definite,
    )
    return report


# -- scenario: Clifford and Grassmann ----------------------------------------------


def _gram_oracle_defect(space: PseudoEuclideanSpace, signs) -> float:
    """max |⟨v₁∧…∧v_k, w₁∧…∧w_k⟩ − det(g(vᵢ, wⱼ))| over all k-tuples of unit
    vectors, k = min(2, n), the left side read through ``wedge`` and
    ``grassmann_inner`` and g = diag(signs).

    Both sides are conjugate-linear in each vᵢ and linear in each wⱼ, so they
    agree for all vectors iff they agree here.  The metric minors hold only 0
    and ±1, on which ``np.linalg.det`` is exact.  The blades are built by
    wedging one generator onto the stack of shorter ones, and paired row by
    row, so no (n^k, N, N) or (n^k, n^k, N) array is held.
    """
    n, k = space.n, min(2, space.n)
    tuples = np.array(list(product(range(n), repeat=k)), dtype=int).reshape(n**k, k)
    blades = MultiVector(space, scalar_one(space).coeffs[None])  # the empty tuple
    for _ in range(k):  # tuples in lexicographic order, as ``product`` lists them
        blades = MultiVector(space, np.concatenate(
            [wedge(generator(space, i), blades).coeffs for i in range(n)]
        ))
    pairing = np.array([grassmann_inner(MultiVector(space, row), blades)
                        for row in blades.coeffs])
    minors = np.diag(signs)[tuples[:, None, :, None], tuples[None, :, None, :]]
    return float(np.abs(pairing - np.linalg.det(minors)).max())


def _second_quantized_defects(space: PseudoEuclideanSpace, jmat) -> tuple:
    """The second-quantized pairing laws decided on the blades: with G the
    Gram matrix of ``grassmann_inner`` and H = GJ, ‖J†GJ − G‖₂ and
    max(0, −λ_min((H + H†)/2), ‖H − H†‖₂ / 2).

    These are the suprema over unit m, m' of |⟨Jm, Jm'⟩ − ⟨m, m'⟩| and of
    max(0, −Re⟨m, Jm⟩, |Im⟨m, Jm⟩|), the worst values any sample could show.
    Distinct blades pair to zero, so G is diagonal, the pairing of the unit
    stack with itself.  The largest absolute row sum t of (H + H†)/2 bounds
    its eigenvalues, so t·I − (H + H†)/2 is positive semidefinite of 2-norm
    t − λ_min, and λ_min takes no eigensolver.
    """
    units = MultiVector(space, np.eye(space.grassmann_dim))
    g = grassmann_inner(units, units)
    gj = g[:, None] * jmat
    real_part = (gj + gj.conj().T) / 2
    top = np.abs(real_part).sum(axis=1).max()
    return (
        operator_norm(jmat.conj().T @ gj - np.diag(g)),
        max(
            0.0,
            operator_norm(top * units.coeffs - real_part) - top,
            operator_norm(gj - real_part),
        ),
    )


def _scenario_clifford(config: CheckConfig) -> Report:
    space = PseudoEuclideanSpace(config.p, config.q)
    alg = clifford_krein_algebra(space)
    report, rng = Report.sampled(
        f"Clifford scenario R^{{{config.p},{config.q}}}", config.seed, config.samples,
        p=config.p, q=config.q,
    )
    n = space.n
    gens = _generator_images(alg, n)
    _check_anticommutators(report, "generator anticommutators", gens, space.signs)

    report.check(
        "gram determinant oracle", _gram_oracle_defect(space, space.signs), 1e-10
    )

    s11 = PseudoEuclideanSpace(1, 1)
    blade = wedge(
        vector(s11, [1.0, 0.0]), vector(s11, [0.0, 1.0])
    )
    report.check(
        "top blade value in signature (1,1)",
        abs(grassmann_inner(blade, blade) + 1.0),
        1e-12,
    )

    symmetry, auxiliary = _second_quantized_defects(space, alg.eta)
    report.check("second quantized symmetry preserves pairing", symmetry, 1e-9)
    report.check("second quantized auxiliary form positive", auxiliary, 1e-12)
    report.check("clifford product associative", cocycle_failures(space), 1e-10)

    # the symbol map a ↦ c(a)·1: row S is c(e_S)·1, the first column of blade S,
    # gathered from the slots whose column is 0 (the blades are full rows, slot
    # r in row r), or read from a dense basis.  It is I (c(e_S)·1 = e_S), and
    # independent rows force c(a) = 0 ⇒ a = 0
    eye, held = np.eye(space.grassmann_dim), alg._monomials
    symbols = (
        alg.basis[..., 0] if held is None else np.where(held.cols == 0, held.vals, 0)
    )
    for name, value in (
        ("clifford grassmann bijection", np.count_nonzero(symbols != eye)),
        ("representation faithful", len(eye) - numerical_rank(symbols)),
    ):
        report.check(name, float(value), 0.5)
    report.extend(
        check_krein_cstar_axioms(
            alg,
            samples=min(config.samples, SLOW_LAW_SAMPLES),
            seed=config.seed + 1,
            tol=config.tol,
        ),
        prefix="algebra: ",
    )

    # c(a) drawn with a: the batch counts its N² entries; ‖a‖ ≤ ‖c(a)‖₂ as c(a)·1 = a
    def actions(rows):
        (m0,) = gaussians(rng, len(rows), (space.grassmann_dim,))
        return SimpleNamespace(m0=m0, c0=alg.from_coefficients(m0))

    report.check_laws(
        actions,
        min(config.samples, SLOW_LAW_SAMPLES),
        [("star equals conjugate reversal", 1e-10,
          lambda s: operator_norm(
              alg.star(s.c0)
              - alg.from_coefficients(
                  conjugate_reversal_coeffs(MultiVector(space, s.m0)).coeffs
              )
          ) / np.linalg.norm(s.m0, axis=-1))],
    )
    _check_twin(
        report, "clifford cstar identity", "algebra: cstar identity", config.tol
    )

    null = anticommutator_residual(gens[-1:], gens[-1:], np.zeros(1))[0] if n else 1.0
    report.check(
        "negative control: degenerate metric gram",
        float(null),
        1e-12,
        detail="the last generator must break {c, c} = 2g at a null metric entry g = 0",
        expected_fail=True,
    )
    return report


# -- scenario: spinors --------------------------------------------------------------


def _scenario_spinor(config: CheckConfig) -> Report:
    space = PseudoEuclideanSpace(config.p, config.q)
    module = spinor_module(space)
    left, form = module.left_algebra, module.symmetry
    report, _ = Report.sampled(
        f"spinor scenario R^{{{config.p},{config.q}}}", config.seed, config.samples,
        p=config.p, q=config.q, spinor_dim=module.dim,
    )
    # the gammas are the generator images; the module symmetry is the form A
    gammas = _generator_images(left, space.n)
    _check_anticommutators(report, "gamma anticommutators", gammas, space.signs)
    involution = involution_defect(form)  # also the auxiliary gram's defect
    law = max(hermitian_defect(form), involution)
    report.check("spinor form hermitian involutive", law, 1e-12)
    for (pp, qq), expected in (((1, 1), (1, 1)), ((1, 3), (2, 2)), ((2, 2), (2, 2))):
        _check_spinor_signature(report, pp, qq, expected)

    # Morita certification is the module table plus imprimitivity: one table run
    samples, seed, tol = config.samples, config.seed, config.tol
    axioms = check_module_over_krein(module, samples=samples, seed=seed, tol=tol)
    report.extend(axioms, prefix="module: ")
    _check_twin(
        report, "spinor twisting over alpha", "module: J twists over left alpha", 1e-10
    )
    report.check("spinor auxiliary gram standard", involution, 1e-12)
    # copies of the module table: nothing runs for them, so they carry no time
    copies = [replace(r, elapsed=0.0) for r in axioms.records]
    report.extend(replace(axioms, records=copies), prefix="morita: ")
    report.extend(check_imprimitivity(module, samples, seed + 3, tol), prefix="morita: ")
    report.extend(_factorization(module, space, samples, seed + 3, tol))
    report.check(
        "negative control: scaled spinor form",
        _form_defect(2.0 * form),
        1e-10,
        detail="doubling the form matrix must break involutivity",
        expected_fail=True,
    )
    return report


def _check_spinor_signature(report: Report, p: int, q: int, expected):
    sig = spinor_signature(PseudoEuclideanSpace(p, q))
    report.check(
        f"spinor signature ({p},{q})",
        float(abs(sig[0] - expected[0]) + abs(sig[1] - expected[1])),
        0.5,
        detail=f"signature {sig}",
    )


def _form_defect(a):
    """max(‖A − A†‖, ‖A² − 1‖): how far a form matrix is from a hermitian
    involution."""
    return max(hermitian_defect(a), involution_defect(a))


# -- scenario: the tensor category --------------------------------------------------


def _scenario_tensor(config: CheckConfig) -> Report:
    report, _ = Report.sampled(
        "tensor category scenario", config.seed, config.samples, p=config.p, q=config.q
    )
    ident2 = identity_correspondence(bounded_operators(2, 0))
    right_unit = right_unit_iso(ident2)
    t22 = right_unit.source  # ident2 ⊗ ident2
    report.check(
        "matrix algebra self-tensor dimension",
        float(abs(t22.dim - 4)),
        0.5,
        detail=f"dimension {t22.dim}",
    )
    mpq = krein_space_correspondence(config.p, config.q)
    chain = associativity_iso(
        mpq, krein_space_correspondence(1, 0), krein_space_correspondence(0, 1)
    )[0]
    for prefix, name, mor in (
        ("right unit: ", "right unit law", right_unit),
        ("left unit: ", "left unit law", left_unit_iso(ident2)),
        ("associativity: ", "associativity isomorphism", chain),
    ):
        _check_morphism_law(report, name, mor, config.tol, prefix)

    report.extend(even_odd_decomposition_check(internal_tensor(mpq, mpq), mpq, mpq))

    # mpq ⊗ mpq, over the scalars, has the section I; t22's 16 x 4 one is a choice
    t_rot = internal_tensor(
        ident2, ident2, section_rotation=np.random.default_rng(config.seed + 3)
    )
    cob = t22.section.conj().T @ t_rot.section
    moved = np.einsum("au,bv,abcd->uvcd", cob.conj(), cob, t22.inner, optimize=True)
    report.check(
        "section independence",
        float(np.linalg.norm(moved - t_rot.inner) / np.linalg.norm(t_rot.inner)),
        config.tol,
    )

    # id(B(C^{1,1})) ⊗ id(B(C^{1,1})) descends through a 16 x 4 section, over
    # a middle algebra whose alpha is not the identity
    b11 = bounded_operators(1, 1)
    ident11 = identity_correspondence(b11)
    t11 = internal_tensor(ident11, ident11)
    report.check(
        "gamma compatibility of descended product", _descended_twist_defect(t11), 1e-10
    )

    # left_operator(b_k) is left_action[k]: the middle basis is orthogonal
    adjointable = is_adjointable(t22, t22.left_action)
    report.check(
        "left action adjointable on tensor", 0.0 if adjointable else 1.0, 0.5
    )

    _check_morphism_law(
        report, "double contragredient identity", double_contragredient_iso(ident2),
        config.tol,
    )
    report.extend(check_krein_star_hom(lambda a: a, b11, b11, tol=config.tol))
    odd = b11.basis[1]  # E₀₁: alpha(E₀₁) = −E₀₁, so the defect is 2
    report.check(
        "negative control: non-intertwining homomorphism",
        alpha_beta_defect(lambda a: a, b11, lambda b: b, odd, odd),
        config.tol,
        detail="identity map against a trivialized target automorphism",
        expected_fail=True,
    )

    bad_inner = mpq.inner.copy()
    bad_inner[mpq.dim - 1, mpq.dim - 1] = 0.0
    bad = replace(
        mpq, inner=bad_inner, symmetry=np.eye(mpq.dim, dtype=complex), left_inner=None
    )
    report.check(
        "negative control: degenerate descent",
        _raised(DegenerateDescentError, lambda: internal_tensor(
            bad, identity_correspondence(mpq.algebra)
        )),
        0.5,
        detail="a rank-deficient pairing must be reported after descent",
        expected_fail=True,
    )
    return report


def _descended_twist_defect(t) -> float:
    """The largest ``inner_twist_defect`` of ⟨u, v⟩ against ⟨Ju, Jv⟩ over the
    pairs (u, v) of basis vectors of a tensor's carrier: both pairings are
    sesquilinear in u and v, so they agree for all u, v iff they agree here."""
    e = np.eye(t.dim)
    p = t.pairing(e[:, None], e[None])
    pj = t.pairing(t.j(e)[:, None], t.j(e)[None])
    return float(inner_twist_defect(t.algebra, p, pj).max())


# scenario -> (runner, gallery p, gallery q), in gallery order
_SCENARIOS = {
    "krein-algebra": (_scenario_krein_algebra, 2, 1),
    "module": (_scenario_module, 2, 2),
    "module-over-krein": (_scenario_module_over_krein, 1, 1),
    "clifford": (_scenario_clifford, 2, 2),
    "spinor": (_scenario_spinor, 1, 1),
    "tensor": (_scenario_tensor, 1, 1),
}
SCENARIOS = (*_SCENARIOS, "full-gallery")


# -- demos -------------------------------------------------------------------------


def run_demo(
    name: str, seed: int = 42, samples: int = 100, tol: float = 1e-9
) -> tuple[Report, str]:
    """Named preset walkthroughs; returns the report and a narrative."""
    if name not in DEMOS:
        raise ConfigError(f"unknown demo {name!r}")
    _check_run_parameters(seed, samples, tol)
    return DEMOS[name](seed, samples, tol)


def _demo_minkowski(seed, samples, tol):
    space = PseudoEuclideanSpace(1, 3)
    alg = gamma_algebra(gamma_rep(space))
    report = check_krein_cstar_axioms(alg, samples=samples, seed=seed, tol=tol)
    report.title = "demo: minkowski"
    _check_spinor_signature(report, 1, 3, (2, 2))
    narrative = (
        "Four-dimensional space with one positive and three negative\n"
        "directions.  The gamma matrices realize its Clifford algebra on a\n"
        "4-dimensional spinor space; the normalized product of the\n"
        "positive-square gammas is the fundamental symmetry, and the\n"
        "indefinite spinor form it defines has signature (2,2).  The checks\n"
        "verify the twisted involution axioms for the operator algebra this\n"
        "generates."
    )
    return report, narrative


def _demo_torus(seed, samples, tol):
    points = 16
    base = functions_on_points(points)
    gram = np.kron(np.diag([1.0, -1.0]), np.eye(points)).astype(complex)
    module = KreinModule(base, 2, gram)
    report, rng = Report.sampled(
        "demo: torus", seed, samples, points=points, fiber_signature=[1, 1]
    )
    group = _symmetry_samples(module, rng, min(samples, MODULE_SYMMETRIES))
    report.check_laws(
        _module_draw([group]),
        1,
        [
            ("fiberwise symmetry squares to identity", tol,
             _per_module(lambda g: involution_defect(g.j.matrix))),
            ("fiberwise symmetry self-adjoint", tol,
             _per_module(lambda g: g.j.selfadjoint_defect())),
            ("adjoint solves the inner relation", tol,
             _per_module(_adjoint_relation_residual)),
        ],
    )
    report.check(  # of the standard symmetry, the first of the stack
        "hilbertified gram positive definite", _hilbertified_gram_defect(group)[0], tol
    )
    narrative = (
        "A rank-2 module over the commutative algebra of functions on 16\n"
        "points, with an indefinite fiberwise form of signature (1,1) at\n"
        "every point: the discrete stand-in for a line bundle pair with an\n"
        "indefinite metric over a torus.  The checks run the fundamental\n"
        "symmetry axioms and the adjoint dictionary fiberwise."
    )
    return report, narrative


def _demo_spinor_m4(seed, samples, tol):
    space = PseudoEuclideanSpace(1, 3)
    s = spinor_correspondence(space)
    report, _ = Report.sampled("demo: spinor-m4", seed, samples, p=1, q=3)
    report.extend(morita_krein_check(s, samples, seed, tol), prefix="morita: ")
    report.extend(_factorization(s, space, samples, seed + 1, tol))
    narrative = (
        "The spinor bimodule for the four-dimensional (1,3) space: full on\n"
        "both sides and imprimitive, so it certifies an equivalence between\n"
        "the Clifford algebra and the scalars.  Tensoring the spinors with\n"
        "their contragredient recovers the 16-dimensional exterior algebra,\n"
        "and the constructed identification intertwines the left Clifford\n"
        "actions."
    )
    return report, narrative


DEMOS = {
    "minkowski": _demo_minkowski,
    "torus": _demo_torus,
    "spinor-m4": _demo_spinor_m4,
}
