"""Grassmann and Clifford algebras over pseudo-Euclidean spaces.

Multivectors over R^{p,q} are stored as dense coefficient vectors of length
2^n indexed by subset bitmasks: bit i set means the generator e_i occurs,
and basis monomials are read in increasing index order.  One sign table
states the monomial product, e_S e_T = σ(S, T) e_{S xor T}, with σ the
parity of moving the generators of S past the smaller ones of T times the
square g_ii of each generator in S ∩ T (bitmap blades: Dorst, Fontijne &
Mann, *Geometric Algebra for Computer Science*, ch. 19).  The exterior
product keeps the disjoint pairs only.  The Clifford algebra acts on the
exterior algebra by these signed permutations, which realizes it as a
concrete operator algebra and fixes the linear bijection between the two
products.

A MultiVector may hold a stack (..., 2^n) of coefficient vectors, one per
sample; the products, pairings and residuals below then act on each.

Gamma matrices (the irreducible representation for even n) are built by the
standard 2x2 tensor recursion; the spinor space carries the indefinite form
psi† A phi with A the normalized product of the positive-square gammas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import KreinCStarAlgebra, scalar_krein_algebra
from .krein_over_krein import KreinBimodule, operator_bimodule
from .linalg import (
    DimensionMismatchError,
    ValidationError,
    eig_signature,
    matvec,
    operator_norm,
    random_complex,
)


@dataclass(frozen=True)
class PseudoEuclideanSpace:
    """R^{p,q}: p directions of square +1 followed by q of square -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValidationError("signature counts must be non-negative")

    @property
    def n(self) -> int:
        return self.p + self.q

    @cached_property
    def signs(self) -> np.ndarray:
        return np.concatenate([np.ones(self.p), -np.ones(self.q)])

    @property
    def grassmann_dim(self) -> int:
        return 1 << self.n

    @cached_property
    def grades(self) -> np.ndarray:
        """The degree (popcount) of every mask."""
        masks = np.arange(self.grassmann_dim)
        return ((masks[:, None] >> np.arange(self.n)) & 1).sum(axis=1)

    @cached_property
    def blade_signs(self) -> np.ndarray:
        """The read-only table σ[S, T] with e_S e_T = σ[S, T] e_{S xor T}."""
        masks = np.arange(self.grassmann_dim)
        negative = (1 << self.n) - (1 << self.p)
        swaps = self.grades[masks[:, None] & masks & negative]
        for j in range(self.n):
            # e_j in T moves past the generators of S above it
            swaps += self.grades[masks >> (j + 1)][:, None] * ((masks >> j) & 1)
        table = 1.0 - 2.0 * (swaps % 2)
        table.flags.writeable = False
        return table

    @cached_property
    def product_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, σ[s, T]) over the entries (R, T): s = R xor T is the one blade
        that maps e_T to e_R, e_s e_T = σ[s, T] e_R.  The signs are read-only;
        s is not, since ``np.take`` copies a read-only index on every call."""
        t = np.arange(self.grassmann_dim)
        s = t[:, None] ^ t
        signs = self.blade_signs[s, t]
        signs.flags.writeable = False
        return s, signs


@dataclass(frozen=True)
class MultiVector:
    """An element of the complexified exterior algebra of the space, or a
    stack of them."""

    space: PseudoEuclideanSpace
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape[-1:] != (self.space.grassmann_dim,):
            raise DimensionMismatchError(
                f"coefficient vector must have length {self.space.grassmann_dim}"
            )
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "MultiVector") -> "MultiVector":
        _same_space(self, other)
        return MultiVector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        _same_space(self, other)
        return MultiVector(self.space, self.coeffs - other.coeffs)

    def __rmul__(self, z: complex) -> "MultiVector":
        return MultiVector(self.space, z * self.coeffs)

    def norm(self):
        norms = np.linalg.norm(self.coeffs, axis=-1)
        return norms if norms.ndim else float(norms)


def _same_space(a: MultiVector, b: MultiVector):
    if a.space != b.space:
        raise DimensionMismatchError("multivectors live over different spaces")


def scalar_one(space: PseudoEuclideanSpace) -> MultiVector:
    return basis_blade(space, 0)


def basis_blade(space: PseudoEuclideanSpace, mask: int) -> MultiVector:
    c = np.zeros(space.grassmann_dim, dtype=complex)
    c[mask] = 1.0
    return MultiVector(space, c)


def generator(space: PseudoEuclideanSpace, i: int) -> MultiVector:
    if not 0 <= i < space.n:
        raise ValidationError(f"generator index {i} out of range")
    return basis_blade(space, 1 << i)


def vector(space: PseudoEuclideanSpace, components) -> MultiVector:
    components = np.asarray(components, dtype=complex)
    if components.shape[-1:] != (space.n,):
        raise DimensionMismatchError("vector needs one component per generator")
    c = np.zeros(components.shape[:-1] + (space.grassmann_dim,), dtype=complex)
    c[..., 1 << np.arange(space.n)] = components
    return MultiVector(space, c)


def random_multivector(
    space: PseudoEuclideanSpace, rng: np.random.Generator
) -> MultiVector:
    return MultiVector(space, random_complex(rng, space.grassmann_dim))


# -- Grassmann structure --------------------------------------------------------


def _left_matrix(space: PseudoEuclideanSpace, coeffs, disjoint=False) -> np.ndarray:
    """The operator e_T ↦ a e_T of coefficients a, or a C-contiguous stack of
    them for a stack of rows: entry [..., R, T] is σ[S, T] a_S, S = R xor T;
    with ``disjoint`` only pairs S ∩ T = ∅ count (the exterior product)."""
    s, signs = space.product_table
    out = np.take(coeffs, s, axis=-1)
    out *= signs
    if disjoint:
        out[..., (s & np.arange(len(s))) != 0] = 0
    return out


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; on monomials e_S ∧ e_T = σ[S, T] e_{S∪T} when
    S ∩ T = ∅, and 0 otherwise."""
    _same_space(a, b)
    left = _left_matrix(a.space, a.coeffs, disjoint=True)
    return MultiVector(a.space, matvec(left, b.coeffs))


def grassmann_inner(a: MultiVector, b: MultiVector) -> complex:
    """Sesquilinear pairing ⟨e_S, e_T⟩ = δ_ST · Π_{i∈S} g_ii.

    Equals the metric Gram determinant on decomposables of equal degree;
    distinct degrees (and distinct monomials) pair to zero.
    """
    _same_space(a, b)
    pairing = np.sum(a.coeffs.conj() * b.coeffs * _gram_diagonal(a.space), axis=-1)
    return pairing if pairing.ndim else complex(pairing)


def _gram_diagonal(space: PseudoEuclideanSpace) -> np.ndarray:
    """Π_{i∈S} g_ii: one minus sign per negative-square generator in S."""
    negative = (1 << space.n) - (1 << space.p)
    return (-1.0) ** space.grades[np.arange(space.grassmann_dim) & negative]


def second_quantized_J(space: PseudoEuclideanSpace) -> np.ndarray:
    """The lift of diag(signs) to the exterior algebra: e_S picks up one
    minus sign per negative-square generator it contains."""
    return np.diag(_gram_diagonal(space)).astype(complex)


# -- Clifford structure ---------------------------------------------------------


def clifford_generator_matrix(space: PseudoEuclideanSpace, i: int) -> np.ndarray:
    """c(e_i): creation plus g_ii times contraction, acting on multivectors."""
    return clifford_action(space, generator(space, i))


def anticommutator_residual(ci, cj, gij):
    """‖{c_i, c_j} − 2 g_ij‖ for stacks of generator images c_i, c_j and the
    matching metric entries g_ij."""
    anti = ci @ cj + cj @ ci
    return operator_norm(anti - 2.0 * gij[:, None, None] * np.eye(ci.shape[-1]))


def clifford_action(space: PseudoEuclideanSpace, a: MultiVector) -> np.ndarray:
    """The operator c(a) on the exterior algebra, extended multiplicatively
    from the generators."""
    if a.space != space:
        raise DimensionMismatchError("multivector over a different space")
    return _left_matrix(space, a.coeffs)


def clifford_product(a: MultiVector, b: MultiVector) -> MultiVector:
    """The Clifford product, computed as c(a) applied to b.

    Evaluating at b = 1 inverts the linear bijection Cl ≃ Λ, so this is the
    algebra product transported to exterior coordinates.
    """
    _same_space(a, b)
    return MultiVector(a.space, matvec(clifford_action(a.space, a), b.coeffs))


def associativity_residual(a: MultiVector, b: MultiVector, c: MultiVector):
    """‖(ab)c − a(bc)‖ / max(‖a‖·‖b‖·‖c‖, 1) in coefficient 2-norms: the
    defect relative to the size of a trilinear product."""
    lhs = clifford_product(clifford_product(a, b), c)
    defect = (lhs - clifford_product(a, clifford_product(b, c))).norm()
    return defect / np.maximum(a.norm() * b.norm() * c.norm(), 1.0)


def reversal(a: MultiVector) -> MultiVector:
    """Reverse each monomial factor order: sign (-1)^{k(k-1)/2} on degree k."""
    k = a.space.grades
    return MultiVector(a.space, np.where(k * (k - 1) // 2 % 2, -a.coeffs, a.coeffs))


def conjugate_reversal_coeffs(a: MultiVector) -> MultiVector:
    """Reversal with conjugated coefficients: the candidate involution."""
    return MultiVector(a.space, reversal(a).coeffs.conj())


def clifford_krein_algebra(space: PseudoEuclideanSpace) -> KreinCStarAlgebra:
    """The Clifford algebra as operators on the exterior algebra, with the
    second-quantized symmetry as the reference involution.

    The resulting star is the adjoint for the indefinite Gram pairing; it
    coincides with conjugate-reversal of Clifford monomials (verified by the
    test suite, not postulated here).  Blade S is the signed permutation
    e_T ↦ σ[S, T] e_{S xor T}, so entry (R, T) is σ[R xor T, T] in blade
    R xor T; the algebra is built from that table, ``space.product_table``, and
    the N x N x N blade tensor, N = 2^(p+q), only if its ``basis`` is read.
    """
    s, signs = space.product_table
    return KreinCStarAlgebra._monomial(
        s.ravel(), signs.ravel(), second_quantized_J(space),
        label=f"CCl(R^{{{space.p},{space.q}}})",
    )


# -- gamma matrices and spinors --------------------------------------------------

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _euclidean_gammas(n: int) -> list[np.ndarray]:
    """Hermitian matrices with Γ_iΓ_j + Γ_jΓ_i = 2δ_ij, size 2^(n/2)."""
    if n == 0:
        return []
    gammas = [_SIGMA_X, _SIGMA_Y]
    while len(gammas) < n:
        size = gammas[0].shape[0]
        eye = np.eye(size)
        gammas = [np.kron(g, _SIGMA_Z) for g in gammas]
        gammas.append(np.kron(eye, _SIGMA_X))
        gammas.append(np.kron(eye, _SIGMA_Y))
    return gammas[:n]


@dataclass(frozen=True)
class GammaRep:
    """Irreducible Clifford representation for an even-dimensional space."""

    space: PseudoEuclideanSpace
    gammas: tuple = field(repr=False)
    a: np.ndarray = field(repr=False)

    @property
    def spinor_dim(self) -> int:
        return self.a.shape[0]


def gamma_rep(space: PseudoEuclideanSpace) -> GammaRep:
    if space.n % 2 != 0:
        raise ValidationError("gamma representation needs even total dimension")
    base = _euclidean_gammas(space.n)
    gammas = [g if s > 0 else 1j * g for g, s in zip(base, space.signs)]
    dim = 1 << (space.n // 2) if space.n else 1
    a = np.eye(dim, dtype=complex)
    for i in range(space.p):
        a = a @ gammas[i]
    # normalize the phase so A is hermitian with A² = 1
    z = 1.0 if (space.p * (space.p - 1) // 2) % 2 == 0 else 1j
    a = z * a
    # fix the residual overall sign deterministically: first nonzero entry
    # of the flattened matrix is made positive real
    flat = a.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        a = -a
    return GammaRep(space, tuple(gammas), a)


def spinor_signature(space: PseudoEuclideanSpace) -> tuple[int, int]:
    """Eigenvalue signature of the spinor form matrix A."""
    return eig_signature(gamma_rep(space).a)


def gamma_algebra(rep: GammaRep) -> KreinCStarAlgebra:
    """The full gamma-blade span as a Kreĭn algebra with reference form A.

    Basis element S is the product of the gammas in S, in increasing index
    order: appending Γ_i doubles the list from the masks below 2^i.
    """
    basis = np.eye(rep.spinor_dim, dtype=complex)[None]
    for g in rep.gammas:
        basis = np.concatenate([basis, basis @ g])
    s = rep.space
    return KreinCStarAlgebra(basis, rep.a, label=f"Cl(R^{{{s.p},{s.q}}}) on spinors")


def spinor_module(space: PseudoEuclideanSpace) -> KreinBimodule:
    """Spinors as the operator bimodule B(C, S) of the spinor space S.

    The maps C -> S are the spinors themselves, with reference forms 1 on C
    and A on S: right action of the scalars, indefinite scalar product
    psi† A phi, symmetry J = A, left gamma action and left Clifford-valued
    product psi phi† A.  The twisting J(c psi) = alpha(c) J(psi) holds with
    alpha the conjugation by A on the gamma image.
    """
    return operator_bimodule(scalar_krein_algebra(), gamma_algebra(gamma_rep(space)))
