"""Indefinite-inner-product modules over finite-dimensional C*-algebras.

A rank-n module over a block-diagonal algebra A acting on C^k stores its
elements as (n*k, k) complex arrays: n vertically stacked algebra elements.
The A-valued inner product is ⟨x, y⟩ = x† G y with G an invertible hermitian
(n*k, n*k) matrix whose k x k blocks lie in A.  A-linear operators are
(n*k, n*k) matrices with blocks in A, acting by left multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import FiniteCStarAlgebra, reference_form, scalars
from .linalg import (
    RANK_TOL,
    DimensionMismatchError,
    Subspace,
    ValidationError,
    as_complex_matrix,
    first_exceeding,
    gaussians,
    hermitian_defect,
    involution_defect,
    is_psd,
    min_hermitian_eig,
    numerical_rank,
    operator_norm,
    random_complex,
    spectral_projector,
)


@dataclass(frozen=True)
class KreinModule:
    """Finite-rank right module over a FiniteCStarAlgebra with an
    indefinite algebra-valued inner product."""

    base: FiniteCStarAlgebra
    rank: int
    gram: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be positive")
        g = as_complex_matrix(self.gram)
        nk = self.rank * self.base.dim
        if g.shape != (nk, nk):
            raise DimensionMismatchError(f"gram must be {nk} x {nk}")
        if hermitian_defect(g) > 1e-10 * max(operator_norm(g), 1.0):
            raise ValidationError("gram is not hermitian")
        if not self._in_pattern(g):
            raise ValidationError("gram blocks do not lie in the base algebra")
        if numerical_rank(g) < nk:
            raise ValidationError("gram is degenerate")
        object.__setattr__(self, "gram", g)

    # -- shapes and patterns -------------------------------------------------

    @property
    def flat_dim(self) -> int:
        """Side of the flat operator matrices, rank * base.dim."""
        return self.rank * self.base.dim

    @property
    def ambient_dim(self) -> int:
        """Dimension of the vectorized element space (with pattern zeros)."""
        return self.flat_dim * self.base.dim

    @cached_property
    def operator_pattern(self) -> np.ndarray:
        return np.tile(self.base.mask, (self.rank, self.rank))

    @cached_property
    def element_pattern(self) -> np.ndarray:
        return np.tile(self.base.mask, (self.rank, 1))

    @cached_property
    def carrier(self) -> np.ndarray:
        """Positions of the carrier in the row-major vectorized element space:
        the element pattern, rank copies of the base's block pattern."""
        return np.flatnonzero(self.element_pattern)

    def _in_pattern(self, m) -> bool:
        """Every matrix of m, one or a stack, in the operator pattern."""
        stack = m.reshape(-1, *m.shape[-2:])
        off = np.where(self.operator_pattern, stack, 0.0) - stack
        return first_exceeding(off, stack, 1e-10) < 0

    def project_operator(self, m) -> np.ndarray:
        """Restrict a flat matrix to the A-linear operator pattern."""
        m = as_complex_matrix(m)
        return np.where(self.operator_pattern, m, 0.0)

    def project_element(self, x) -> np.ndarray:
        x = as_complex_matrix(x)
        return np.where(self.element_pattern, x, 0.0)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return self.project_element(random_complex(rng, self.flat_dim, self.base.dim))

    def random_operator(self, rng: np.random.Generator) -> np.ndarray:
        return self.project_operator(random_complex(rng, self.flat_dim, self.flat_dim))

    # -- module structure -----------------------------------------------------

    def action(self, x, a) -> np.ndarray:
        """The right action x·a."""
        return x @ self.base.project(a)

    def inner(self, x, y) -> np.ndarray:
        """The A-valued inner product, of each pair of a stack."""
        x, y = as_complex_matrix(x), as_complex_matrix(y)
        if x.shape[-2:] != (self.flat_dim, self.base.dim):
            raise DimensionMismatchError("element shape mismatch")
        return x.conj().swapaxes(-1, -2) @ self.gram @ y

    def lift_operator(self, m) -> np.ndarray:
        """The flat operator on the row-major vectorized element space."""
        return np.kron(as_complex_matrix(m), np.eye(self.base.dim))

    @cached_property
    def standard_matrix(self) -> np.ndarray:
        """The matrix sign of the gram, one ``eigh`` per module: read-only, as
        ``standard_symmetry`` and ``random_symmetry`` share it."""
        g = self.gram
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        j = self.project_operator(v @ np.diag(np.sign(w)) @ v.conj().T)
        j.flags.writeable = False
        return j


def krein_space(p: int, q: int) -> KreinModule:
    """C^{p,q} as a rank-(p+q) module over the scalars."""
    return KreinModule(scalars(), p + q, reference_form(p, q))


def hyperbolic_symmetry(t: float) -> np.ndarray:
    """The standard symmetry of C^{1,1} conjugated by a hyperbolic rotation."""
    w = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    return (w @ np.diag([1.0, -1.0]) @ np.linalg.inv(w)).astype(complex)


@dataclass(frozen=True)
class FundamentalSymmetry:
    """An A-linear involution splitting the module into semidefinite halves,
    or a stack (..., nk, nk) of them; the constructor checks each matrix."""

    module: KreinModule
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.module
        j = as_complex_matrix(self.matrix)
        nk = m.flat_dim
        if j.shape[-2:] != (nk, nk):
            raise DimensionMismatchError(f"symmetry must be {nk} x {nk}")
        scale = np.maximum(operator_norm(j), 1.0)
        if not m._in_pattern(j):
            raise ValidationError("symmetry blocks do not lie in the base algebra")
        if np.any(involution_defect(j) > 1e-9 * scale * scale):
            raise ValidationError("symmetry does not square to the identity")
        object.__setattr__(self, "matrix", j)
        if np.any(self.selfadjoint_defect() > 1e-9 * operator_norm(m.gram) * scale):
            raise ValidationError("symmetry is not self-adjoint for the inner product")
        if not all(np.all(is_psd(self.half_form(sign))) for sign in (1, -1)):
            raise ValidationError("a half of the decomposition is not semidefinite")

    @classmethod
    def _built(cls, module: KreinModule, matrix: np.ndarray) -> "FundamentalSymmetry":
        """A library-built symmetry or stack, unchecked: the module laws check it."""
        symmetry = object.__new__(cls)
        symmetry.__dict__.update(module=module, matrix=matrix)
        return symmetry

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ x

    def projector(self, sign: int) -> np.ndarray:
        return spectral_projector(self.matrix, sign)

    def selfadjoint_defect(self):
        """‖J†G − GJ‖, of the symmetry or of each symmetry of the stack."""
        j, g = self.matrix, self.module.gram
        return operator_norm(j.conj().swapaxes(-1, -2) @ g - g @ j)

    def half_form(self, sign: int) -> np.ndarray:
        """sign·P†GP on the sign half P = (1 + sign·J)/2: semidefinite for a
        fundamental symmetry."""
        p = self.projector(sign)
        return sign * (p.conj().swapaxes(-1, -2) @ self.module.gram @ p)


def standard_symmetry(module: KreinModule) -> FundamentalSymmetry:
    """The matrix sign of the gram: the canonical splitting."""
    return FundamentalSymmetry._built(module, module.standard_matrix)


def random_symmetry(
    module: KreinModule, rng: np.random.Generator, count: int | None = None
) -> FundamentalSymmetry:
    """Conjugate the standard symmetry by a random unitary of the indefinite
    form: the Cayley transform (1 − X/2)⁻¹(1 + X/2) of a form-skew-adjoint
    A-linear X of norm 0.3, so that ‖U‖ and ‖U⁻¹‖ are at most 1.15/0.85.  A
    count gives a stack (count, nk, nk), drawn as ``count`` single calls would."""
    j0 = module.standard_matrix
    f, k = module.flat_dim, 1 if count is None else count
    s = module.project_operator(gaussians(rng, k, (f, f))[0])
    s = s - s.conj().swapaxes(-1, -2)
    x = module.project_operator(np.linalg.solve(module.gram, s))  # form-skew-adjoint
    x *= 0.3 / np.maximum(operator_norm(x), 1e-30)[:, None, None]
    eye = np.eye(f)
    u = module.project_operator(np.linalg.solve(eye - x / 2, eye + x / 2))
    j = module.project_operator(u @ j0 @ np.linalg.inv(u))
    return FundamentalSymmetry._built(module, j[0] if count is None else j)


# -- operations ----------------------------------------------------------------


def halves_rank(module: KreinModule, plus, minus):
    """Carrier ranks (r₊, r₋) of lift(plus) and lift(minus), or of each pair
    of two stacks, under one cut relative to the larger top singular value of
    the pair, so that a rounding-level empty half counts 0.  One half is
    lifted at a time."""
    spectra = [
        np.linalg.svd(module.lift_operator(h)[..., module.carrier], compute_uv=False)
        for h in (plus, minus)
    ]
    top = np.maximum(*(s[..., :1] for s in spectra))
    return tuple(np.sum(s > RANK_TOL * top, axis=-1) for s in spectra)


def fundamental_decomposition(
    module: KreinModule, symmetry: FundamentalSymmetry
) -> tuple[Subspace, Subspace]:
    """Ranges of (1 ± J)/2 inside the vectorized carrier, of the dimensions
    ``halves_rank`` counts."""
    _check_owner(module, symmetry)
    halves = [symmetry.projector(sign) for sign in (+1, -1)]
    ranks = halves_rank(module, *halves)
    if sum(ranks) != len(module.carrier):
        raise ValidationError("decomposition does not exhaust the carrier")
    lifted = (module.lift_operator(h)[:, module.carrier] for h in halves)
    return tuple(
        Subspace(module.ambient_dim, np.linalg.svd(a, full_matrices=False)[0][:, :r])
        for a, r in zip(lifted, ranks)
    )


def hilbertify(module: KreinModule, symmetry: FundamentalSymmetry) -> KreinModule:
    """The positive-definite module with gram J† G."""
    _check_owner(module, symmetry)
    g = _pd_gram(module, symmetry)
    if min_hermitian_eig(g) <= 0:
        raise ValidationError("hilbertified gram is not positive definite")
    return KreinModule(module.base, module.rank, module.project_operator(g))


def krein_adjoint(module: KreinModule, symmetry: FundamentalSymmetry, t) -> np.ndarray:
    """Adjoint for the indefinite product: G^{-1} T† G, of an operator or of
    each operator of a stack.

    Coincides with J ∘ (hilbertified adjoint) ∘ J.
    """
    t = as_complex_matrix(t)
    if t.shape[-2:] != (module.flat_dim, module.flat_dim):
        raise DimensionMismatchError("operator shape mismatch")
    adj = np.linalg.solve(module.gram, t.conj().swapaxes(-1, -2) @ module.gram)
    return module.project_operator(adj)


def hilbert_adjoint(module: KreinModule, symmetry: FundamentalSymmetry, t) -> np.ndarray:
    """Adjoint in the hilbertified module |K|^J; stacks broadcast."""
    g = symmetry.matrix.conj().swapaxes(-1, -2) @ module.gram
    adj = np.linalg.solve(g, as_complex_matrix(t).conj().swapaxes(-1, -2) @ g)
    return module.project_operator(adj)


def norm_equivalence_constants(
    module: KreinModule, j1: FundamentalSymmetry, j2: FundamentalSymmetry
) -> tuple[float, float]:
    """Extreme singular values of the identity between the two hilbertified
    structures: c ‖x‖_{J1} ≤ ‖x‖_{J2} ≤ C ‖x‖_{J1}."""
    g1 = _pd_gram(module, j1)
    g2 = _pd_gram(module, j2)
    l1 = np.linalg.cholesky(g1).conj().T
    l2 = np.linalg.cholesky(g2).conj().T
    s = np.linalg.svd(l2 @ np.linalg.inv(l1), compute_uv=False)
    return float(s[-1]), float(s[0])


def _pd_gram(module: KreinModule, j: FundamentalSymmetry) -> np.ndarray:
    g = j.matrix.conj().swapaxes(-1, -2) @ module.gram
    return (g + g.conj().swapaxes(-1, -2)) / 2


def intertwiner(
    module: KreinModule, j1: FundamentalSymmetry, j2: FundamentalSymmetry
) -> np.ndarray:
    """A unitary (for the indefinite form) with U J1 = J2 U; stacks pair up.

    The direct sum of the two transition maps already exchanges the
    splittings but is only approximately isometric; replacing it by its
    polar factor a (a* a)^{-1/2}, with a* the adjoint of a as a map
    (K, G1') -> (K, G2'), makes it exactly unitary.
    """
    a = (np.eye(module.flat_dim) + j2.matrix @ j1.matrix) / 2
    # orthonormal coordinates: G_i' = R_i† R_i, so x ↦ R_i x is isometric
    r1 = np.linalg.cholesky(_pd_gram(module, j1)).conj().swapaxes(-1, -2)
    r2 = np.linalg.cholesky(_pd_gram(module, j2)).conj().swapaxes(-1, -2)
    # there a reads C = R2 a R1⁻¹ = W Σ V†, and a* a = R1⁻¹ (C† C) R1, so the
    # polar factor a (a* a)^{-1/2} is R2⁻¹ (W V†) R1
    w, _, vh = np.linalg.svd(r2 @ a @ np.linalg.inv(r1))
    u = np.linalg.solve(r2, w @ vh @ r1)
    return module.project_operator(u)


def _check_owner(module: KreinModule, symmetry: FundamentalSymmetry):
    if symmetry.module is not module and not (
        symmetry.module.rank == module.rank
        and symmetry.module.base == module.base
        and np.array_equal(symmetry.module.gram, module.gram)
    ):
        raise ValidationError("symmetry belongs to a different module")
