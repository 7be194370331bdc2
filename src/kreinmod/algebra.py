"""Finite-dimensional C*-algebras and their indefinite (Kreĭn) variants.

A finite C*-algebra is realized as a direct sum of full matrix blocks,
i.e. block-diagonal complex matrices.  The Kreĭn variant is always
concretely represented on a reference space C^d carrying a hermitian
involution ``eta`` (the symmetry of the reference indefinite product):
the twisted involution is ``star(a) = eta a† eta`` and the fundamental
symmetry automorphism is ``alpha(a) = eta a eta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .linalg import (
    DimensionMismatchError,
    ValidationError,
    as_complex_matrix,
    first_exceeding,
    gaussians,
    hermitian_adjoint,
    hermitian_defect,
    involution_defect,
    operator_norm,
    random_complex,
)
from .report import CHUNK_BYTES, Report


@dataclass(frozen=True)
class FiniteCStarAlgebra:
    """Direct sum of full matrix algebras, as block-diagonal matrices.

    ``blocks`` lists the block sizes; all size-1 blocks give the
    commutative algebra of functions on a finite set.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(k < 1 for k in self.blocks):
            raise ValidationError("block sizes must be positive")
        object.__setattr__(self, "blocks", tuple(int(k) for k in self.blocks))

    @property
    def dim(self) -> int:
        """Dimension of the reference space the algebra acts on."""
        return sum(self.blocks)

    @property
    def vector_dim(self) -> int:
        """Linear dimension of the algebra itself."""
        return sum(k * k for k in self.blocks)

    @cached_property
    def mask(self) -> np.ndarray:
        d = self.dim
        m = np.zeros((d, d), dtype=bool)
        off = 0
        for k in self.blocks:
            m[off : off + k, off : off + k] = True
            off += k
        return m

    def project(self, m) -> np.ndarray:
        """Zero out the off-block entries."""
        a = as_complex_matrix(m)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected shape {(self.dim, self.dim)}, got {a.shape}"
            )
        return np.where(self.mask, a, 0.0)

    def contains(self, m) -> bool:
        a = as_complex_matrix(m)
        if a.shape != (self.dim, self.dim):
            return False
        return first_exceeding((self.project(a) - a)[None], a[None], 1e-10) < 0

    def basis(self) -> np.ndarray:
        """Matrix units of every block, stacked as a (vector_dim, d, d) array.

        The blocks are diagonal and contiguous, so the row-major order of the
        mask's entries is block by block, row by row.
        """
        d = self.dim
        units = np.eye(d * d, dtype=complex)[np.flatnonzero(self.mask)]
        return units.reshape(-1, d, d)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """I.i.d. complex normal entries, restricted to the blocks."""
        return self.project(random_complex(rng, self.dim, self.dim))


def scalars() -> FiniteCStarAlgebra:
    """The base field C as a one-block algebra."""
    return FiniteCStarAlgebra((1,))


def functions_on_points(n_points: int) -> FiniteCStarAlgebra:
    """Commutative algebra of functions on a finite set (diagonal matrices)."""
    return FiniteCStarAlgebra((1,) * n_points)


class KreinCStarAlgebra:
    """A concrete *-closed operator algebra on a reference Kreĭn space C^d.

    ``basis`` is a stack of d x d matrices that are pairwise orthogonal and
    nonzero in the Frobenius inner product ⟨x, y⟩ = tr(x† y): matrix units,
    Clifford and gamma blades and the scalars all are.  It spans the carrier
    subalgebra, whose coordinates are then ⟨b_i, a⟩ / ‖b_i‖².  ``eta`` is the
    hermitian involution of the reference space.  The twisted involution is
    ``star(a) = eta a† eta`` and ``alpha(a) = eta a eta``; ``star``, ``alpha``
    and ``project`` take a d x d matrix or a stack (..., d, d).

    The library's monomial algebras (matrix units, Clifford blades, the
    scalars) state their support: the owner and value of each entry.  Their
    nonzeros are stored once, coordinates and projections gather and scatter
    through them, and ``basis`` is synthesised when first read.  A basis
    given as a dense stack is checked for non-finite entries once and read
    by products with its flattened rows, after one Gram product that raises
    ValidationError unless it is exactly diagonal.  A zero element is
    refused on either path.  A diagonal ``eta`` twists entrywise, any other
    by two products.
    """

    def __init__(self, basis, eta, *, label: str = "", validate: bool = True):
        basis = np.ascontiguousarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValidationError("basis must be a stack of square matrices")
        if not np.isfinite(basis).all():
            raise ValidationError("basis has non-finite entries")
        self.basis, self._support = basis, None
        self._flat = flat = basis.reshape(len(basis), -1)  # a view of the stack
        # gram[i, j] = ⟨b_i, b_j⟩, in row blocks so that only one block of
        # the basis is ever conjugated
        step = max(1, len(basis) // 8)
        gram = np.empty((len(basis),) * 2, dtype=complex)
        for i in range(0, len(basis), step):
            gram[i : i + step] = flat[i : i + step].conj() @ flat.T
        if not np.array_equal(gram, np.diag(np.diagonal(gram))):
            raise ValidationError("basis elements are not Frobenius-orthogonal")
        norms_sq = np.diagonal(gram).real.copy()
        self._finish(norms_sq, eta, basis.shape[1], label, validate)

    @classmethod
    def _monomial(cls, owner, entry_values, eta, label: str) -> "KreinCStarAlgebra":
        """A library-built algebra of elements with pairwise disjoint supports,
        from the ``owner`` and the value of each of the d² entries r·d + t."""
        algebra = object.__new__(cls)
        algebra._support = _support(owner, entry_values)
        algebra._finish(algebra._support.norms_sq, eta, len(eta), label, True)
        return algebra

    def _finish(self, norms_sq, eta, dim: int, label: str, validate: bool):
        """The tail both constructors share, from the elements' ‖b_i‖²."""
        self._norms_sq = norms_sq
        self.eta = as_complex_matrix(eta)
        self.dim = dim
        self.label = label
        if self.eta.shape != (self.dim, self.dim):
            raise DimensionMismatchError("eta shape does not match basis")
        if not np.all(self._norms_sq > 0):
            raise ValidationError("basis contains a zero element")
        e = np.diagonal(self.eta)
        self._eta_outer = (
            e[:, None] * e if np.count_nonzero(self.eta) == np.count_nonzero(e) else None
        )
        if validate:
            self._validate()

    @cached_property
    def basis(self) -> np.ndarray:
        """The stack (vector_dim, d, d), unless it was given dense."""
        return self.from_coefficients(np.eye(self.vector_dim))

    @property
    def vector_dim(self) -> int:
        return len(self._norms_sq)

    def _validate(self):
        d = self.dim
        if hermitian_defect(self.eta) > 1e-10:
            raise ValidationError("eta is not hermitian")
        if involution_defect(self.eta) > 1e-10:
            raise ValidationError("eta squared is not the identity")
        if self.vector_dim == d * d:
            # d² pairwise orthogonal nonzero elements span M_d, which holds 1
            # and is closed under alpha, star and products: nothing can fail
            return
        # carrier membership of the identity, then of alpha(b) and star(b)
        # for every basis element b in turn, then of products of a
        # deterministic sample; the first failure in this order is reported.
        # a sixteenth of the basis at a time: each image stack is ⅛ of the basis.
        # The basis was checked finite at construction, so eta is applied to
        # its slices directly.
        if self._first_outside(np.eye(d)[None]) >= 0:
            raise ValidationError("carrier does not contain the identity")
        step, eye = max(1, self.vector_dim // 16), np.eye(self.vector_dim)
        for i in range(0, self.vector_dim, step):
            b = self.from_coefficients(eye[i : i + step])
            k = self._first_outside(np.stack(
                [self._twist(b), self._twist(b.conj().swapaxes(-1, -2))], axis=1
            ).reshape(-1, d, d))
            if k >= 0:
                kind = "star" if k % 2 else "alpha"
                raise ValidationError(f"carrier is not closed under {kind}")
        # the sample is drawn in stacks of pairs that hold ⅛ of the basis or
        # CHUNK_BYTES, whichever is more (a pair is 2·d² complex entries).
        # The lazy map lets no drawn or projected pair outlive its products.
        rng, pairs = np.random.default_rng(0), min(8, self.vector_dim**2)
        per_draw = max(step, CHUNK_BYTES // (2 * 16 * d * d))
        for i in range(0, pairs, per_draw):
            pair = map(
                self.project, gaussians(rng, min(per_draw, pairs - i), (d, d), (d, d))
            )
            if self._first_outside(np.matmul(*pair)) >= 0:
                raise ValidationError("carrier is not closed under products")

    # -- carrier membership ------------------------------------------------

    def _operand(self, a) -> np.ndarray:
        """A d x d matrix or a stack (..., d, d), complex with finite entries."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatchError(f"expected (..., d, d), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("matrix has non-finite entries")
        return a

    def project(self, m) -> np.ndarray:
        return self._project(self._operand(m))

    def _project(self, a) -> np.ndarray:
        """``project`` of an operand that is already checked."""
        return self.from_coefficients(self.coefficients(a))

    def contains(self, m) -> bool:
        a = as_complex_matrix(m)
        if a.shape != (self.dim, self.dim):
            return False
        return self._first_outside(a[None]) < 0

    def _first_outside(self, x, tol: float = 1e-9) -> int:
        """Index of the first matrix in the stack x with
        ‖project(a) − a‖ > tol · max(‖a‖, 1), or -1 if there is none."""
        residual = self._project(x)
        residual -= x
        return first_exceeding(residual, x, tol)

    def coefficients(self, a) -> np.ndarray:
        """Coordinates ⟨b_i, a⟩ / ‖b_i‖² of a carrier element or a stack.

        On the support path one gather of a's entries, summed per element;
        on the Gram path the conjugate is taken on a's side so the basis is
        read, never copied."""
        a = np.asarray(a, dtype=complex).reshape(*np.shape(a)[:-2], -1)
        s = self._support
        if s is None:
            return (a.conj() @ self._flat.T).conj() / self._norms_sq
        # rebinding c frees the gathered entries once they are summed
        c = np.take(a, s.entries, axis=-1)
        _scale_rows(c, s.conj_values)
        c = np.add.reduceat(c, s.starts, axis=-1)
        c /= self._norms_sq
        return c

    def from_coefficients(self, c) -> np.ndarray:
        """Σ_k c_k b_k of coordinates (..., vector_dim) laid out as ``coefficients``
        returns them.  On the support path each entry is its owner's coordinate
        times its value, which is zero where no element owns it."""
        c = np.asarray(c, dtype=complex)
        shape, s = (*c.shape[:-1], self.dim, self.dim), self._support
        if s is None:
            return (c @ self._flat).reshape(shape)
        out = np.take(c, s.owner, axis=-1)
        _scale_rows(out, s.entry_values)
        return out.reshape(shape)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """I.i.d. complex normal matrix, projected into the carrier."""
        return self.project(random_complex(rng, self.dim, self.dim))

    # -- Kreĭn structure ----------------------------------------------------

    def star(self, a) -> np.ndarray:
        """The involution twisted by the reference symmetry: eta a† eta."""
        return self._twist(self._operand(a).conj().swapaxes(-1, -2))

    def alpha(self, a) -> np.ndarray:
        """The fundamental symmetry automorphism: eta a eta."""
        return self._twist(self._operand(a))

    def _twist(self, a) -> np.ndarray:
        """eta a eta of an operand that is already checked: entrywise
        e_r a[r, t] e_t for a diagonal eta, C-ordered like a product, else two
        products, where rebinding ``a`` frees the first before the second."""
        if self._eta_outer is not None:
            return np.multiply(a, self._eta_outer, order="C")
        a = self.eta @ a
        return a @ self.eta

    def norm(self, a):
        """The C*-norm attached to alpha (operator norm on the hilbertified
        reference space, which is the standard one since eta² = 1), of a
        matrix or of each matrix of a stack."""
        return operator_norm(a)

    @property
    def is_trivially_definite(self) -> bool:
        """True when eta = ±identity: then star(a) = a† and alpha = id, so the
        algebra is a plain C*-algebra."""
        eye = np.eye(self.dim)
        return any(operator_norm(self.eta - s * eye) <= 1e-12 for s in (1, -1))


def _support(owner, entry_values) -> SimpleNamespace:
    """The support of a basis whose elements have pairwise disjoint supports,
    from the ``owner`` and the ``entry_values`` of each of the d² entries:
    the flat ``entries`` r·d + t sorted stably by element, with ``starts``,
    ``conj_values`` and ``norms_sq``."""
    entry_values = np.asarray(entry_values, dtype=complex)
    entries = np.argsort(owner, kind="stable")
    element, values = owner[entries], entry_values[entries]
    counts = np.bincount(element)
    return SimpleNamespace(
        entries=entries,
        starts=np.cumsum(counts) - counts,
        conj_values=values.conj(),
        owner=owner,
        entry_values=entry_values,
        norms_sq=np.bincount(element, weights=values.real**2 + values.imag**2),
    )


def _scale_rows(x, v):
    """x *= v in place, for a C-contiguous stack x (..., k) and a vector v (k,).

    numpy 2.4 buffers a broadcast product in up to 8192 entries, which at
    Clifford (3,3) is a quarter of an (8, N²) stack on top of the stack that
    ``project`` holds; a product of one row needs no buffer and, for rows of
    1024 entries or more, is as fast, so long rows are scaled one at a time.
    The threshold and the buffer were measured with numpy 2.4.6 only.
    """
    if x.shape[-1] < 1024:
        x *= v
    else:
        for row in x.reshape(-1, x.shape[-1]):
            row *= v


def bounded_operators(p: int, q: int) -> KreinCStarAlgebra:
    """All operators on the reference space C^{p,q} with eta = diag(+1^p, -1^q)."""
    d = p + q
    if d < 1:
        raise ValidationError("p + q must be at least 1")
    eta = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)
    return KreinCStarAlgebra._monomial(
        np.arange(d * d), np.ones(d * d), eta, label=f"B(C^{{{p},{q}}})"
    )


def scalar_krein_algebra() -> KreinCStarAlgebra:
    """The base field C with the trivial reference symmetry."""
    return KreinCStarAlgebra._monomial(np.zeros(1, int), np.ones(1), np.eye(1), "C")


# -- operations ---------------------------------------------------------------


def even_odd_split(algebra: KreinCStarAlgebra, a) -> tuple[np.ndarray, np.ndarray]:
    """Split a matrix or a stack into the +1 and -1 eigencomponents of alpha."""
    a = as_complex_matrix(a)
    aa = algebra.alpha(a)
    return (a + aa) / 2, (a - aa) / 2


def cstar_residual(algebra: KreinCStarAlgebra, a, na):
    """Relative defect of the twisted C*-identity ‖alpha(star(a)) a‖ = ‖a‖²,
    of a matrix or of each matrix of a stack with its norms ``na``."""
    return abs(algebra.norm(algebra.alpha(algebra.star(a)) @ a) - na * na) / (
        na * na
    )


def check_krein_cstar_axioms(
    algebra: KreinCStarAlgebra,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> Report:
    """Randomized verification of the twisted-involution algebra axioms.

    Draws ``samples`` random carrier elements and records the worst relative
    violation of each law.  Violations are reported, never raised.
    """
    report, rng = Report.sampled(
        f"Kreĭn algebra axioms: {algebra.label or 'carrier'}", seed, samples,
        dim=algebra.dim, carrier_dim=algebra.vector_dim,
    )

    report.check("eta hermitian", hermitian_defect(algebra.eta), 1e-10)
    report.check("eta involutive", involution_defect(algebra.eta), 1e-10)

    d = algebra.dim

    def draw(rows):
        raw_a, raw_b, z = gaussians(rng, len(rows), (d, d), (d, d), ())
        a, b = algebra.project(raw_a), algebra.project(raw_b)
        even, odd = even_odd_split(algebra, a)
        s = SimpleNamespace(
            a=a, b=b, z=z[:, None, None],
            even=even, odd=odd,
            odd_b=even_odd_split(algebra, b)[1],
            na=np.maximum(operator_norm(a), 1e-30),
            nb=np.maximum(operator_norm(b), 1e-30),
            sa=algebra.star(a),
            aa=algebra.alpha(a),
        )
        s.involution = operator_norm(algebra.alpha(s.aa) - a) / s.na  # read by two laws
        return s

    def rel(m, s):
        return operator_norm(m) / s.na

    def rel2(m, s):
        return operator_norm(m) / (s.na * s.nb)

    star, alpha, project = algebra.star, algebra.alpha, algebra.project
    grading_tol = 1e-10
    laws = [
        ("star involutive", grading_tol, lambda s: rel(star(s.sa) - s.a, s)),
        ("star antimultiplicative", tol,
         lambda s: rel2(star(s.a @ s.b) - star(s.b) @ s.sa, s)),
        ("star conjugate-linear", tol,
         lambda s: operator_norm(
             star(s.z * s.a + s.b) - (np.conj(s.z) * s.sa + star(s.b))
         ) / (np.abs(s.z[:, 0, 0]) * s.na + s.nb)),
        ("alpha involutive", grading_tol, lambda s: s.involution),
        ("alpha multiplicative", tol,
         lambda s: rel2(alpha(s.a @ s.b) - s.aa @ alpha(s.b), s)),
        ("alpha star-compatible", grading_tol,
         lambda s: rel(alpha(s.sa) - star(s.aa), s)),
        ("alpha(star(a)) is plain adjoint", tol,
         lambda s: rel(alpha(s.sa) - hermitian_adjoint(s.a), s)),
        ("carrier closed under alpha and star", grading_tol,
         lambda s: np.maximum(
             operator_norm(project(s.aa) - s.aa), operator_norm(project(s.sa) - s.sa)
         ) / s.na),
        ("cstar identity", tol, lambda s: cstar_residual(algebra, s.a, s.na)),
        ("norm submultiplicative", tol,
         lambda s: np.maximum(0.0, algebra.norm(s.a @ s.b) - s.na * s.nb)
         / (s.na * s.nb)),
        # alpha(a₊) − a₊ = −(alpha(a₋) + a₋) = (alpha²(a) − a)/2
        ("even part alpha-fixed", grading_tol, lambda s: s.involution / 2),
        # odd·odd lands in the even part, even·odd in the odd part
        ("odd times odd is even", grading_tol,
         lambda s: np.maximum(
             rel2(even_odd_split(algebra, s.odd @ s.odd_b)[1], s),
             rel2(even_odd_split(algebra, s.even @ s.odd_b)[0], s),
         )),
    ]
    report.check_laws(draw, samples, laws)
    return report
