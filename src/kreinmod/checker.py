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
``Report.check`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
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
    associativity_residual,
    clifford_krein_algebra,
    conjugate_reversal_coeffs,
    gamma_algebra,
    gamma_rep,
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
    adjoint_residual,
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
# it admits spinor (4,4) at 0.85 GB and refuses Clifford at p + q = 9 (2.8 GB),
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
    n = 2.0 ** min(d, 64)  # keeps N³ finite; from d = 9 on N³ is past the budget
    entries = {
        "krein-algebra": 4 * d**4,  # the basis: d² matrices of d x d
        # about 12 d x d matrices per symmetry of the stack: the symmetries,
        # t, its adjoint, the intertwiners, one sign's halves and products
        "module": 12 * (min(config.samples, MODULE_SYMMETRIES) + 1) * d**2,
        "module-over-krein": 9 * d**6,  # the d² x d² x d x d inner tensor
        "tensor": 17 * d**4,  # maps of the d²-dimensional plain tensor
        "clifford": 1.3 * n**3,  # bounds validation's slices of N/16 blades
        "spinor": 3.1 * n**3,  # S ⊗ S̄: both actions and the inner, each N³
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
    report = Report(
        title="full gallery",
        seed=config.seed,
        samples=config.samples,
        environment={"scenarios": list(COVERAGE_MANIFEST)},
    )
    for name, (_, p, q) in _SCENARIOS.items():
        report.extend(run(replace(config, scenario=name, p=p, q=q)), prefix=f"{name}: ")
    return report


def _check_cstar_identity(report: Report, name: str, algebra, rng, samples, tol):
    """The C* identity ‖a* a‖ = ‖a‖² on one random element a per sample."""
    d = algebra.dim

    def draw(rows):
        return SimpleNamespace(a=algebra.project(gaussians(rng, len(rows), (d, d))[0]))

    law = (name, tol, lambda s: cstar_residual(algebra, s.a, algebra.norm(s.a)))
    report.check_laws(draw, samples, [law])


def _check_twin(report: Report, name: str, twin: str, tol: float):
    """Record ``name`` as the value of the report's record ``twin``: the same
    law, evaluated once, held to its own tolerance ``tol``."""
    (value,) = (r.max_violation for r in report.records if r.name == twin)
    report.check(name, value, tol, detail=f"reads {twin}")


def _check_morphism_law(report: Report, name, mor, samples, seed, tol, prefix=""):
    """``check_morphism`` of a morphism, its records extended under a given
    prefix, and a 0/1 record for its verdict."""
    law = check_morphism(mor, samples=samples, seed=seed, tol=tol)
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


def _check_anticommutators(report: Report, name: str, ops, signs):
    """One law over every unordered pair i ≤ j of generator images, since
    {c_i, c_j} = {c_j, c_i} to the bit; the batch holds the images
    themselves, so its size counts their bytes."""
    ops = np.asarray(ops)
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
    and two random elements x and y per symmetry: one namespace of stacks."""
    drawn = random_symmetry(module, rng, n_random).matrix
    jm = np.concatenate([standard_symmetry(module).matrix[None], drawn])
    j = FundamentalSymmetry._built(module, jm)
    f, b = module.flat_dim, module.base.dim
    t, x, y = gaussians(rng, n_random + 1, (f, f), (f, b), (f, b))
    t = module.project_operator(t)
    return SimpleNamespace(
        module=module,
        j=j,
        t=t,
        ts=krein_adjoint(module, j, t),  # G⁻¹ T† G, for every symmetry
        x=module.project_element(x),
        y=module.project_element(y),
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
    m = g.module
    defect = m.inner(g.t @ g.x, g.y) - m.inner(g.x, g.ts @ g.y)
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
    aux_module = replace(module, inner=np.einsum(
        "kj,ikab->ijab", module.symmetry, module.inner, optimize=True
    ))

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


def _gram_det(m: np.ndarray):
    """Determinant of each matrix of a stack (..., k, k) with k ≤ 2, the
    Gram matrices of the decomposables the oracle draws."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2], dtype=complex)
    if k == 1:
        return m[..., 0, 0]
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _scenario_clifford(config: CheckConfig) -> Report:
    space = PseudoEuclideanSpace(config.p, config.q)
    alg = clifford_krein_algebra(space)
    report, rng = Report.sampled(
        f"Clifford scenario R^{{{config.p},{config.q}}}", config.seed, config.samples,
        p=config.p, q=config.q,
    )
    n = space.n
    gens = alg.from_coefficients(vector(space, np.eye(n)).coeffs)
    _check_anticommutators(report, "generator anticommutators", gens, space.signs)

    deg = min(2, n)
    g = space.signs

    def decomposables(rows):
        # deg separate (n,) fields per side; np.array, not np.stack, so that
        # deg = 0 gives an empty (k, 0, n) stack
        fields = gaussians(rng, len(rows), *[(n,)] * (2 * deg))
        vs, ws = (
            np.array(side).reshape(deg, len(rows), n).swapaxes(0, 1)
            for side in (fields[:deg], fields[deg:])
        )
        bv, bw = scalar_one(space), scalar_one(space)
        for i in range(deg):
            bv = wedge(bv, vector(space, vs[:, i]))
            bw = wedge(bw, vector(space, ws[:, i]))
        gram = np.sum(vs.conj()[:, :, None] * g * ws[:, None], axis=-1)
        # the pairing is linear in each vector: relative to ∏ᵢ ‖vᵢ‖‖wᵢ‖
        scale = np.prod(np.linalg.norm(vs, axis=-1) * np.linalg.norm(ws, axis=-1), -1)
        return SimpleNamespace(v=bv.coeffs, w=bw.coeffs, gram=gram, scale=scale)

    report.check_laws(
        decomposables,
        config.samples,
        [("gram determinant oracle", 1e-10,
          lambda s: np.abs(
              grassmann_inner(MultiVector(space, s.v), MultiVector(space, s.w))
              - _gram_det(s.gram)
          ) / s.scale)],
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

    jmat = alg.eta

    def multivectors(count):
        """A draw of ``count`` random multivectors per sample, their
        coefficient stacks in the fields m0, m1, ..."""

        def draw(rows):
            stacks = gaussians(rng, len(rows), *[(space.grassmann_dim,)] * count)
            return SimpleNamespace(**{f"m{k}": c for k, c in enumerate(stacks)})
        return draw

    def vec(c):
        return MultiVector(space, c)

    def j_pairs(rows):
        s = multivectors(2)(rows)
        return SimpleNamespace(**vars(s), j0=s.m0 @ jmat.T, j1=s.m1 @ jmat.T)

    def auxiliary_defect(s):
        # relative to ⟨m, Jm⟩ = ‖m‖², summed as the pairing sums it
        aux = grassmann_inner(vec(s.m0), vec(s.j0))
        norm_sq = np.maximum(np.sum(s.m0.conj() * s.m0, axis=-1).real, 1e-30)
        return np.maximum(np.maximum(0.0, -aux.real), np.abs(aux.imag)) / norm_sq

    report.check_laws(
        j_pairs,
        min(config.samples, SLOW_LAW_SAMPLES),
        [
            # the Gram diagonal is ±1, so |⟨m0, m1⟩| ≤ ‖m0‖‖m1‖
            ("second quantized symmetry preserves pairing", 1e-9,
             lambda s: np.abs(
                 grassmann_inner(vec(s.j0), vec(s.j1))
                 - grassmann_inner(vec(s.m0), vec(s.m1))
             ) / (np.linalg.norm(s.m0, axis=-1) * np.linalg.norm(s.m1, axis=-1))),
            ("second quantized auxiliary form positive", 1e-12, auxiliary_defect),
        ],
    )

    report.check_laws(
        multivectors(3),
        config.samples,
        [("clifford product associative", 1e-10,
          lambda s: associativity_residual(vec(s.m0), vec(s.m1), vec(s.m2)))],
    )

    # the symbol map a ↦ c(a)·1: row S is c(e_S)·1, the first column of blade S
    # synthesised alone, copied, since a view would keep each N x N blade alive.
    # It is I (c(e_S)·1 = e_S), and independent rows force c(a) = 0 ⇒ a = 0
    eye = np.eye(space.grassmann_dim)
    symbols = np.array([alg.from_coefficients(e)[:, 0].copy() for e in eye])
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
        s = multivectors(1)(rows)
        return SimpleNamespace(m0=s.m0, c0=alg.from_coefficients(s.m0))

    report.check_laws(
        actions,
        min(config.samples, SLOW_LAW_SAMPLES),
        [("star equals conjugate reversal", 1e-10,
          lambda s: operator_norm(
              alg.star(s.c0)
              - alg.from_coefficients(conjugate_reversal_coeffs(vec(s.m0)).coeffs)
          ) / np.linalg.norm(s.m0, axis=-1))],
    )
    _check_twin(
        report, "clifford cstar identity", "algebra: cstar identity", config.tol
    )

    null = anticommutator_residual(gens[-1:], gens[-1:], np.zeros(1))
    report.check(
        "negative control: degenerate metric gram",
        float(null[0]) if n else 1.0,
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
    report = Report(
        title=f"spinor scenario R^{{{config.p},{config.q}}}",
        seed=config.seed,
        samples=config.samples,
        environment={"p": config.p, "q": config.q, "spinor_dim": module.dim},
    )
    # the gammas are the generator images; the module symmetry is the form A
    gammas = left.from_coefficients(vector(space, np.eye(space.n)).coeffs)
    _check_anticommutators(report, "gamma anticommutators", gammas, space.signs)
    report.check("spinor form hermitian involutive", _form_defect(form), 1e-12)
    for (pp, qq), expected in (((1, 1), (1, 1)), ((1, 3), (2, 2)), ((2, 2), (2, 2))):
        _check_spinor_signature(report, pp, qq, expected)

    # Morita certification is the module table plus imprimitivity: one table run
    samples, seed, tol = config.samples, config.seed, config.tol
    axioms = check_module_over_krein(module, samples=samples, seed=seed, tol=tol)
    report.extend(axioms, prefix="module: ")
    _check_twin(
        report, "spinor twisting over alpha", "module: J twists over left alpha", 1e-10
    )
    report.check("spinor auxiliary gram standard", involution_defect(form), 1e-12)
    report.extend(axioms, prefix="morita: ")
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
    report = Report(
        title="tensor category scenario",
        seed=config.seed,
        samples=config.samples,
        environment={"p": config.p, "q": config.q},
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
    for k, (prefix, name, mor) in enumerate((
        ("right unit: ", "right unit law", right_unit),
        ("left unit: ", "left unit law", left_unit_iso(ident2)),
        ("associativity: ", "associativity isomorphism", chain),
    )):
        _check_morphism_law(
            report, name, mor, config.samples, config.seed + k, config.tol, prefix
        )

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
    rng = np.random.default_rng(config.seed + 4)

    def draw(rows):
        u, v = gaussians(rng, len(rows), (t11.dim,), (t11.dim,))
        scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
        return SimpleNamespace(u=u, v=v, scale=np.maximum(scale, 1e-30))

    report.check_laws(
        draw,
        min(config.samples, SLOW_LAW_SAMPLES),
        [("gamma compatibility of descended product", 1e-10,
          lambda s: inner_twist_defect(
              t11.algebra, t11.pairing(s.u, s.v), t11.pairing(t11.j(s.u), t11.j(s.v))
          ) / s.scale)],
    )

    # left_operator(b_k) is left_action[k]: the middle basis is orthogonal
    adjointable = is_adjointable(t22, t22.left_action)
    report.check(
        "left action adjointable on tensor", 0.0 if adjointable else 1.0, 0.5
    )

    _check_morphism_law(
        report, "double contragredient identity", double_contragredient_iso(ident2),
        min(config.samples, SLOW_LAW_SAMPLES), config.seed + 5, config.tol,
    )

    hom = check_krein_star_hom(
        lambda a: a,
        b11,
        b11,
        samples=config.samples,
        seed=config.seed + 6,
        tol=config.tol,
    )
    report.extend(hom)
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
    report = Report(
        title="demo: spinor-m4",
        seed=seed,
        samples=samples,
        environment={"p": 1, "q": 3},
    )
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
