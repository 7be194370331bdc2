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
sample; the exterior product, the pairing and the Clifford action then act on
each.  Associativity is decided on the sign table itself
(``cocycle_failures``), since a law linear in each argument holds iff it
holds on basis blades.

Gamma matrices (the irreducible representation for even n) are Kronecker
products of Pauli matrices, held as signed permutations; the spinor space
carries the form psi† A phi, A the normalized product of the positive gammas.
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
    _Monomials,
    eig_signature,
    matvec,
    operator_norm,
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
        table = self._signs(masks[:, None], masks)
        table.flags.writeable = False
        return table

    def _signs(self, s, t) -> np.ndarray:
        """σ[S, T] of the masks s and t, broadcast: one minus sign per
        negative square in S ∩ T and per generator of T below one of S."""
        negative = (1 << self.n) - (1 << self.p)
        swaps = self.grades[s & t & negative]
        for j in range(self.n):
            # e_j in T moves past the generators of S above it
            swaps = swaps + self.grades[s >> (j + 1)] * ((t >> j) & 1)
        return 1.0 - 2.0 * (swaps % 2)

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
    """‖{c_i, c_j} − 2 g_ij‖ for full-row stacks (``linalg._Monomials``) of
    generator images c_i, c_j and the metric entries g_ij, the products by
    gathers.  Where both hold the same permutation of columns, the identity
    unless g_ij = 0, the 2-norm is the largest entry modulus; any other pair
    is formed densely."""
    ij, ji = ci.product(cj), cj.product(ci)
    rows = np.arange(ci.dim)
    diagonal = ij.cols == rows
    out = np.abs(ij.vals + ji.vals - 2.0 * gij[:, None] * diagonal).max(axis=-1)
    loose = (ij.cols != ji.cols) | (np.sort(ij.cols, axis=-1) != rows)
    loose = np.flatnonzero(loose.any(axis=-1) | ((gij != 0) & ~diagonal.all(axis=-1)))
    if loose.size:
        eye = np.eye(len(loose))
        anti = ij[loose].synthesis(eye) + ji[loose].synthesis(eye)
        out[loose] = operator_norm(anti - 2.0 * gij[loose, None, None] * np.eye(ci.dim))
    return out


def clifford_action(space: PseudoEuclideanSpace, a: MultiVector) -> np.ndarray:
    """The operator c(a) on the exterior algebra, extended multiplicatively
    from the generators."""
    if a.space != space:
        raise DimensionMismatchError("multivector over a different space")
    return _left_matrix(space, a.coeffs)


def cocycle_failures(space: PseudoEuclideanSpace) -> int:
    """The number of generator-left triples (e_i, e_T, e_U) with
    (e_i e_T) e_U ≠ e_i (e_T e_U) on ``space.blade_signs``.

    Both sides are ±e_{i xor T xor U}, with signs σ[i, T] σ[i xor T, U] and
    σ[T, U] σ[i, T xor U].  Every blade is a signed product of generators, so
    by induction on grade the count is 0 iff the product is associative.  It
    is taken one generator at a time, on N x N tables of int8 signs.
    """
    sigma = space.blade_signs.astype(np.int8)
    xor, _ = space.product_table
    failures = 0
    for i in 1 << np.arange(space.n):
        lhs = sigma[i][:, None] * sigma[xor[i]]
        failures += np.count_nonzero(lhs != sigma * sigma[i, xor])
    return failures


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
    coincides with conjugate-reversal of Clifford monomials (verified by the test
    suite, not postulated here).  Blade S is the signed permutation c(e_S):
    e_T ↦ σ[S, T] e_{S xor T}, held as full rows (``linalg._Monomials``), and the
    N x N x N blade tensor, N = 2^(p+q), only if ``basis`` is read.  Its ``norm``
    reads a carrier element a as γ(a) on spinors, s x s with s = 2^⌈n/2⌉, not as
    c(a): γ is certified an injective *-homomorphism (``_spinor_representation``),
    so ‖γ(a)‖ = ‖c(a)‖.  The blades are certified here, exactly: ValidationError
    unless c(e_i) c(e_T) = σ[i, T] c(e_{i xor T}) for each generator i and blade T
    (``cocycle_failures``).  So c is multiplicative: the span holds c(e_∅) = 1 and
    is closed under products and, as c(e_S)† = σ[S, S] c(e_S) and J is a
    character of the masks, under star and alpha.
    """
    if cocycle_failures(space):
        raise ValidationError("blade sign table is not associative")
    xor, _ = space.product_table
    signs = np.take_along_axis(space.blade_signs, xor, axis=1)
    return KreinCStarAlgebra._monomial(
        _Monomials(space.grassmann_dim, xor, signs), second_quantized_J(space),
        label=f"CCl(R^{{{space.p},{space.q}}})",
        representation=_spinor_representation(space),
    )


def _spinor_blades(space: PseudoEuclideanSpace) -> _Monomials:
    """Gamma blade S, the product of the gammas in S in increasing index
    order, as full rows: appending Γ_i doubles the list from the blades below
    2^i by products.  Γ_2j and Γ_2j+1 are 1^{⊗j} ⊗ σ ⊗ σ_z^{⊗(m-1-j)} on m =
    ⌈n/2⌉ qubits, σ = σ_x and σ_y: each flips row bit m-1-j, with a minus sign
    per set bit below it, and σ_y's -i or i as that bit is clear or set.  A
    negative square takes iΓ_i; for odd n the gammas are those of (p, q + 1)."""
    s = 1 << (space.n + 1) // 2
    rows = np.arange(s)
    cols, vals = rows[None], np.ones((1, s), dtype=complex)
    for i, sign in enumerate(space.signs):
        bit = s >> (1 + i // 2)
        sigma = np.where(rows & bit, 1j, -1j) if i % 2 else 1  # σ_y, or σ_x
        phase = sigma * (-1.0) ** space.grades[rows & (bit - 1)] * 1j ** (sign < 0)
        more = _Monomials(s, cols, vals).product(_Monomials(s, [rows ^ bit], [phase]))
        cols, vals = np.concatenate([cols, more.cols]), np.concatenate([vals, more.vals])
    return _Monomials(s, cols, vals)


def _spinor_representation(space: PseudoEuclideanSpace) -> _Monomials:
    """``_spinor_blades`` if it is a faithful *-representation γ, else
    ValidationError, by comparisons with no threshold (the phases are ±1, ±i):
    γ(e_i) γ(e_T) = σ[i, T] γ(e_{i xor T}) for every generator i and blade T,
    so γ is multiplicative; γ(e_S)† = σ[S, S] γ(e_S), as is c(e_S)†, c(e_S)
    being a signed permutation of square σ[S, S]; and tr γ(e_S) = 0 for
    S ≠ ∅, so the blades are Frobenius-orthogonal and γ is injective."""
    blades, masks = _spinor_blades(space), np.arange(space.grassmann_dim)
    gens = (1 << np.arange(space.n))[:, None]
    product, target = blades[gens].product(blades[None]), blades[gens ^ masks]
    if not (np.array_equal(product.cols, target.cols) and np.array_equal(
        product.vals, space._signs(gens, masks)[..., None] * target.vals
    )):
        raise ValidationError("spinor representation is not multiplicative")
    adjoint = blades.adjoint()
    if not (np.array_equal(adjoint._at, blades._at) and np.array_equal(
        adjoint.vals, space._signs(masks, masks)[:, None] * blades.vals
    )):
        raise ValidationError("spinor representation does not preserve adjoints")
    if blades.diagonal()[1:].sum(axis=1).any():
        raise ValidationError("spinor representation is not faithful")
    return blades


# -- gamma matrices and spinors --------------------------------------------------


@dataclass(frozen=True)
class GammaRep:
    """Irreducible Clifford representation: the certified blades and form A."""

    space: PseudoEuclideanSpace
    blades: _Monomials = field(repr=False)
    a: np.ndarray = field(repr=False)

    @property
    def spinor_dim(self) -> int:
        return self.a.shape[0]


def gamma_rep(space: PseudoEuclideanSpace) -> GammaRep:
    """The gamma blades and A = ±z γ(e_0 ⋯ e_{p-1}), z = i^(p(p-1)/2 mod 2) so
    that A is hermitian with A² = 1, the sign making row 0's entry positive
    real, else positive imaginary: exact, since the entry is a phase."""
    if space.n % 2 != 0:
        raise ValidationError("gamma representation needs even total dimension")
    blades = _spinor_representation(space)
    top = blades[[(1 << space.p) - 1]]
    z = 1j ** (space.p * (space.p - 1) // 2 % 2)
    lead = z * top.vals[0, 0]
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        z = -z
    return GammaRep(space, blades, top.synthesis([z]))


def spinor_signature(space: PseudoEuclideanSpace) -> tuple[int, int]:
    """Eigenvalue signature of the spinor form matrix A."""
    return eig_signature(gamma_rep(space).a)


def gamma_algebra(rep: GammaRep) -> KreinCStarAlgebra:
    """The full gamma-blade span as a Kreĭn algebra with reference form A: the
    blades of ``rep``, whose certificate also makes them Frobenius-orthogonal
    and nonzero."""
    s = rep.space
    return KreinCStarAlgebra._monomial(
        rep.blades, rep.a, f"Cl(R^{{{s.p},{s.q}}}) on spinors"
    )


def spinor_module(space: PseudoEuclideanSpace) -> KreinBimodule:
    """Spinors as the operator bimodule B(C, S) of the spinor space S.

    The maps C -> S are the spinors themselves, with reference forms 1 on C
    and A on S: right action of the scalars, indefinite scalar product
    psi† A phi, symmetry J = A, left gamma action and left Clifford-valued
    product psi phi† A.  The twisting J(c psi) = alpha(c) J(psi) holds with
    alpha the conjugation by A on the gamma image.
    """
    return operator_bimodule(scalar_krein_algebra(), gamma_algebra(gamma_rep(space)))
