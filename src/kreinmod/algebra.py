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
    _Monomials,
    as_complex_matrix,
    first_exceeding,
    gaussians,
    hermitian_adjoint,
    hermitian_defect,
    involution_defect,
    operator_norm,
    random_complex,
)
from .report import Report, decide

# relative bound on a carrier-membership residual
CLOSURE_TOL = 1e-9


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

    The library's monomial algebras (matrix units, Clifford and gamma blades,
    the scalars) are built from their nonzeros (``linalg._Monomials``):
    coordinates and projections gather through them, and ``basis`` is
    synthesised when first read.  A basis given as a dense stack is checked
    for non-finite entries once and read by products with its flattened
    rows, after one Gram product that raises ValidationError unless it is
    exactly diagonal.  A zero element is refused on either path.  A diagonal
    ``eta`` twists entrywise, any other by two products.
    """

    def __init__(self, basis, eta, *, label: str = "", validate: bool = True):
        basis = np.ascontiguousarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValidationError("basis must be a stack of square matrices")
        if not np.isfinite(basis).all():
            raise ValidationError("basis has non-finite entries")
        self.basis, self._monomials, self._representation = basis, None, None
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
    def _monomial(cls, monomials, eta, label: str, representation=None):
        """A library-built algebra of Frobenius-orthogonal ``monomials``;
        ``norm`` reads a certified faithful ``representation`` ρ, if given,
        with ρ(b_k) the k-th element of that stack."""
        algebra = object.__new__(cls)
        algebra._monomials, algebra._representation = monomials, representation
        algebra._finish(monomials.norms_sq, eta, monomials.dim, label, True)
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
        """The stack (vector_dim, d, d), unless it was given dense: the
        nonzeros scattered into zeros, each signed zero made +0."""
        out = np.zeros((self.vector_dim, self.dim**2), dtype=complex)
        np.put_along_axis(out, self._monomials._at, self._monomials.vals + 0, axis=-1)
        return out.reshape(-1, self.dim, self.dim)

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
        # the first failure is reported: the identity, then alpha(b) and
        # star(b) for each basis element b, then 8 seeded products in turn
        if self._first_outside(np.eye(d)[None]) >= 0:
            raise ValidationError("carrier does not contain the identity")
        unclosed = np.flatnonzero(~(self._closure_defects <= CLOSURE_TOL))
        if unclosed.size:
            kind = ("alpha", "star")[unclosed[0] % 2]
            raise ValidationError(f"carrier is not closed under {kind}")
        rng, m = np.random.default_rng(0), self.vector_dim
        for _ in range(min(8, m * m)):
            x, y = map(self.from_normals, gaussians(rng, 1, (m,), (m,)))
            if self._first_outside(x @ y) >= 0:
                raise ValidationError("carrier is not closed under products")

    @cached_property
    def _closure_defects(self) -> np.ndarray:
        """(vector_dim, 2): ‖P(x) − x‖₂ / ‖b‖₂ of x = alpha(b) and x = star(b),
        P the projection onto the carrier, per basis element b; both maps are
        (conjugate-)linear, so these decide closure.  On monomials with a
        diagonal eta, alpha(b) holds e_r e_t v at each nonzero (r, t, v) of b
        and star(b) e_r e_t conj(v) at (t, r).  b is read there when each
        image lands on all the nonzeros of one element b′, which no other
        element holds: P(image) is c b′, and b, b′ and the residual have at
        most one nonzero per row and per column (b's columns are the rows of
        b′), so a 2-norm is a largest entry modulus.  Any other b is
        synthesised and twisted on its own."""
        out = np.empty((self.vector_dim, 2))
        swept = range(self.vector_dim)
        b = self._monomials
        if b is not None and self._eta_outer is not None:
            d, live = self.dim, b.vals != 0
            (owner, value), *shared = b._holders
            # the one element holding each entry, or -1 where none or several do
            sole = np.where((value != 0) & ~np.any([v for _, v in shared], 0), owner, -1)
            count, signs = live.sum(axis=-1), self._eta_outer[b.rows, b.cols]
            norm = np.abs(b.vals).max(axis=-1)
            undecided = np.zeros(self.vector_dim, dtype=bool)
            for k, (image, at) in enumerate([(b.vals * signs, b._at),
                                             (b.vals.conj() * signs, b.cols * d + b.rows)]):
                target = np.where(live, sole[at], -1)
                lands = target.max(axis=-1)
                undecided |= (lands < 0) | (live & (target != lands[:, None])).any(axis=-1)
                lands = np.maximum(lands, 0)  # undecided elements are swept
                undecided |= count != count[lands]
                landing = np.where(live, value[at], 0)
                c = (landing.conj() * image).sum(axis=-1) / b.norms_sq[lands]
                out[:, k] = np.abs(image - c[:, None] * landing).max(axis=-1) / norm
            swept = np.flatnonzero(undecided)
        for k in swept:
            b = self.from_coefficients(np.eye(1, self.vector_dim, k)[0])
            x = np.stack([self._twist(b), self._twist(b.conj().T)])
            out[k] = operator_norm(self._project(x) - x)
            if out[k].any():  # exact zeros, the usual case, need no ‖b‖₂
                out[k] /= operator_norm(b)
        return out

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

    def _first_outside(self, x, tol: float = CLOSURE_TOL) -> int:
        """Index of the first matrix in the stack x with
        ‖project(a) − a‖ > tol · max(‖a‖, 1), or -1 if there is none."""
        residual = self._project(x)
        residual -= x
        return first_exceeding(residual, x, tol)

    def coefficients(self, a) -> np.ndarray:
        """Coordinates ⟨b_i, a⟩ / ‖b_i‖² of a carrier element or a stack; on
        the Gram path the conjugate is taken on a's side so the basis is
        read, never copied."""
        if self._monomials is not None:
            return self._monomials.coefficients(a)
        a = np.asarray(a, dtype=complex).reshape(*np.shape(a)[:-2], -1)
        return (a.conj() @ self._flat.T).conj() / self._norms_sq

    def from_coefficients(self, c) -> np.ndarray:
        """Σ_k c_k b_k of coordinates (..., vector_dim) laid out as ``coefficients``
        returns them."""
        if self._monomials is not None:
            return self._monomials.synthesis(c)
        c = np.asarray(c, dtype=complex)
        return (c @ self._flat).reshape(*c.shape[:-1], self.dim, self.dim)

    def from_normals(self, g) -> np.ndarray:
        """Elements of coordinates g_k / ‖b_k‖_F, g (..., vector_dim) i.i.d. complex
        standard normal: distributed as ``project`` of a d x d such G, since its
        ⟨b_k, G⟩ / ‖b_k‖² are CN(0, 1 / ‖b_k‖²); on matrix units, G itself."""
        return self.from_coefficients(g / np.sqrt(self._norms_sq))

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """``from_normals`` of one draw of i.i.d. complex normal coordinates."""
        return self.from_normals(random_complex(rng, self.vector_dim))

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
        matrix or of each matrix of a stack.

        With a representation ρ (the Clifford algebra's spinors) a is read
        as ρ(a), s x s with s² ≤ 2d, synthesised from a's coordinates: ρ is an
        injective *-homomorphism of C*-algebras, so ‖ρ(a)‖ = ‖a‖.  An element
        outside the carrier is read as its projection, so a residual, which
        may leave it, takes ``operator_norm``."""
        if self._representation is None:
            return operator_norm(a)
        return operator_norm(self._representation.synthesis(self.coefficients(a)))

    @property
    def is_trivially_definite(self) -> bool:
        """True when eta = ±identity: then star(a) = a† and alpha = id, so the
        algebra is a plain C*-algebra."""
        eye = np.eye(self.dim)
        return any(operator_norm(self.eta - s * eye) <= 1e-12 for s in (1, -1))


def bounded_operators(p: int, q: int) -> KreinCStarAlgebra:
    """All operators on the reference space C^{p,q} with eta = diag(+1^p, -1^q)."""
    d = p + q
    if d < 1:
        raise ValidationError("p + q must be at least 1")
    eta = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)
    return KreinCStarAlgebra._monomial(_matrix_units(d), eta, f"B(C^{{{p},{q}}})")


def scalar_krein_algebra() -> KreinCStarAlgebra:
    """The base field C with the trivial reference symmetry."""
    return KreinCStarAlgebra._monomial(_matrix_units(1), np.eye(1), "C")


def _matrix_units(d: int) -> _Monomials:
    """E_rt, one nonzero each, in row-major order of (r, t)."""
    rows, cols = np.divmod(np.arange(d * d)[:, None], d)
    return _Monomials(d, cols, np.ones((d * d, 1)), rows)


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

    Draws ``samples`` pairs of random carrier elements (``from_normals``) and
    records the worst relative violation of each law; closure under alpha and
    star, which is linear, is decided on the basis.  Violations are reported,
    never raised.
    """
    report, rng = Report.sampled(
        f"Kreĭn algebra axioms: {algebra.label or 'carrier'}", seed, samples,
        dim=algebra.dim, carrier_dim=algebra.vector_dim,
    )

    report.check("eta hermitian", hermitian_defect(algebra.eta), 1e-10)
    report.check("eta involutive", involution_defect(algebra.eta), 1e-10)

    m = algebra.vector_dim

    def draw(rows):
        ga, gb, z = gaussians(rng, len(rows), (m,), (m,), ())
        a, b = algebra.from_normals(ga), algebra.from_normals(gb)
        del ga, gb  # as large as a and b on B(C^{p,q})
        even, odd = even_odd_split(algebra, a)
        s = SimpleNamespace(
            a=a, b=b, z=z[:, None, None],
            even=even, odd=odd,
            odd_b=even_odd_split(algebra, b)[1],
            na=np.maximum(algebra.norm(a), 1e-30),
            nb=np.maximum(algebra.norm(b), 1e-30),
            sa=algebra.star(a),
            aa=algebra.alpha(a),
            ab=a @ b,  # read by three laws
        )
        s.involution = operator_norm(algebra.alpha(s.aa) - a) / s.na  # read by two laws
        return s

    def rel(m, s):
        return operator_norm(m) / s.na

    def rel2(m, s):
        return operator_norm(m) / (s.na * s.nb)

    star, alpha = algebra.star, algebra.alpha
    grading_tol = 1e-10
    laws = [
        ("star involutive", grading_tol, lambda s: rel(star(s.sa) - s.a, s)),
        ("star antimultiplicative", tol,
         lambda s: rel2(star(s.ab) - star(s.b) @ s.sa, s)),
        ("star conjugate-linear", tol,
         lambda s: operator_norm(
             star(s.z * s.a + s.b) - (np.conj(s.z) * s.sa + star(s.b))
         ) / (np.abs(s.z[:, 0, 0]) * s.na + s.nb)),
        ("alpha involutive", grading_tol, lambda s: s.involution),
        ("alpha multiplicative", tol,
         lambda s: rel2(alpha(s.ab) - s.aa @ alpha(s.b), s)),
        ("alpha star-compatible", grading_tol,
         lambda s: rel(alpha(s.sa) - star(s.aa), s)),
        ("alpha(star(a)) is plain adjoint", tol,
         lambda s: rel(alpha(s.sa) - hermitian_adjoint(s.a), s)),
        # linear, so decided on the basis
        ("carrier closed under alpha and star", grading_tol,
         decide(lambda: algebra._closure_defects.max())),
        ("cstar identity", tol, lambda s: cstar_residual(algebra, s.a, s.na)),
        ("norm submultiplicative", tol,
         lambda s: np.maximum(0.0, algebra.norm(s.ab) - s.na * s.nb)
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
