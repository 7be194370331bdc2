"""Modules whose coefficient algebra is itself a Kreĭn C*-algebra.

The carrier is a plain complex vector space C^D.  The right action and the
algebra-valued inner product are tensors contracted against the coefficient
expansion of algebra elements, given dense or, on the matrix modules
(``MatrixBimodule``), built from the matrix products of the maps when read:

    action[i]        D x D matrix, the right action of the i-th basis element
    inner[i, j]      d x d algebra element, the pairing of carrier basis
                     vectors e_i and e_j

The module symmetry J is a D x D involution twisted over the algebra's
fundamental automorphism: J(x b) = J(x) alpha(b).  Unlike the definite
situation, J is in general not adjointable for the algebra-valued product;
``krein_adjoint_over_krein`` detects this and raises NonAdjointableError.

The module maps take one carrier vector (D,) and algebra element (d, d), or
stacks (..., D) and (..., d, d) of them, one per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .algebra import KreinCStarAlgebra
from .linalg import (
    DimensionMismatchError,
    ValidationError,
    as_complex_matrix,
    frobenius_norms,
    gaussians,
    hermitian_defect,
    involution_defect,
    is_psd,
    matvec,
    numerical_rank,
    operator_norm,
    random_complex,
)
from .report import Report, decide

# the relative residual of ⟨T x, y⟩ = ⟨x, S y⟩ above which T has no adjoint
ADJOINT_TOL = 1e-8


class NonAdjointableError(ValueError):
    """No operator satisfies the adjoint relation within tolerance."""


@dataclass(frozen=True)
class KreinModuleOverKrein:
    """A right module over a Kreĭn C*-algebra with a twisted symmetry."""

    algebra: KreinCStarAlgebra
    dim: int
    action: np.ndarray = field(repr=False)
    inner: np.ndarray = field(repr=False)
    symmetry: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, d = self.dim, self.algebra.dim
        self._coerce("action", (self.algebra.vector_dim, n, n), "action tensor")
        self._coerce("inner", (n, n, d, d), "inner tensor")
        self._coerce("symmetry", (n, n), "symmetry")

    def _coerce(self, name: str, shape: tuple, what: str):
        """Store the field ``name`` as a complex array of ``shape``; raises
        DimensionMismatchError("<what> shape mismatch") for any other shape."""
        value = np.asarray(getattr(self, name), dtype=complex)
        if value.shape != shape:
            raise DimensionMismatchError(f"{what} shape mismatch")
        object.__setattr__(self, name, value)

    def right_operator(self, b) -> np.ndarray:
        """The D x D matrix of x ↦ x · b."""
        return np.tensordot(self.algebra.coefficients(b), self.action, axes=(-1, 0))

    def act(self, x, b) -> np.ndarray:
        """The right action x · b."""
        return matvec(self.right_operator(b), np.asarray(x, dtype=complex))

    def pairing(self, x, y) -> np.ndarray:
        """The algebra-valued inner product."""
        return _contract_pairs(np.asarray(x, dtype=complex).conj(), y, self.inner)

    def j(self, x) -> np.ndarray:
        return np.asarray(x, dtype=complex) @ self.symmetry.T

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return random_complex(rng, self.dim)

    def is_nondegenerate(self) -> bool:
        return numerical_rank(self.inner.reshape(self.dim, -1)) == self.dim

    @cached_property
    def _adjoint_design(self) -> SimpleNamespace:
        """The design M of ``adjoint_residual``, row (i, a, b) = inner[i, :, a, b],
        decided once per module.

        ``i`` and ``ab`` (= a·d + b) list the rows in solve order.  If a row
        has two nonzeros, ``col`` is None and the rows keep their order.
        Otherwise the rows holding a nonzero ``val`` come first, in runs of
        one column ``col`` that begin at ``starts``, and the zero rows last;
        ``weights`` is conj(val) / g_j, g_j = ‖M_j‖², or 0 where √g_j is at
        most lstsq's cut, eps·max(rows, columns) times the largest √g.
        """
        n, d2 = self.dim, self.algebra.dim**2
        rows = self.inner.reshape(n, n, d2).swapaxes(1, 2)  # a view
        nonzero = rows != 0
        count = nonzero.sum(axis=-1).ravel()
        if count.max() > 1:
            i, ab = np.divmod(np.arange(n * d2), d2)
            return SimpleNamespace(i=i, ab=ab, col=None)
        key = np.where(count, nonzero.argmax(axis=-1).ravel(), n)  # zero rows last
        order = np.argsort(key, kind="stable")
        held = order[: count.sum()]
        col = key[held]
        val = rows.sum(axis=-1).ravel()[held]  # each row's one nonzero, exactly
        g = np.bincount(col, weights=np.abs(val) ** 2, minlength=n)
        cut = np.finfo(float).eps * n * d2 * np.sqrt(g.max())  # n·d² rows ≥ n columns
        inverse = np.divide(1.0, g, out=np.zeros(n), where=np.sqrt(g) > cut)
        i, ab = np.divmod(order, d2)
        return SimpleNamespace(
            i=i, ab=ab, col=col, val=val, weights=val.conj() * inverse[col],
            starts=np.flatnonzero(np.diff(col, prepend=-1)),
        )


@dataclass(frozen=True)
class KreinBimodule(KreinModuleOverKrein):
    """Adds a left Kreĭn algebra action, and optionally a left-algebra-valued
    product (present on candidate equivalence bimodules only).

    The symmetry twists over both sides: J(a x b) = alpha(a) J(x) beta(b).
    """

    left_algebra: KreinCStarAlgebra = None
    left_action: np.ndarray = field(default=None, repr=False)
    left_inner: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.left_algebra is None:
            raise ValidationError("left algebra is required")
        n, left = self.dim, self.left_algebra
        self._coerce("left_action", (left.vector_dim, n, n), "left action tensor")
        if self.left_inner is not None:
            self._coerce("left_inner", (n, n, left.dim, left.dim), "left inner tensor")

    def left_operator(self, a) -> np.ndarray:
        """The D x D matrix of x ↦ a · x."""
        c = self.left_algebra.coefficients(a)
        return np.tensordot(c, self.left_action, axes=(-1, 0))

    def act_left(self, a, x) -> np.ndarray:
        return matvec(self.left_operator(a), np.asarray(x, dtype=complex))

    def pairing_left(self, x, y) -> np.ndarray:
        """The left-algebra-valued product, linear in the first argument."""
        if self.left_inner is None:
            raise ValidationError("this bimodule carries no left inner product")
        return _contract_pairs(x, np.asarray(y, dtype=complex).conj(), self.left_inner)


def _contract_pairs(u, v, inner) -> np.ndarray:
    """Σ_ij u_i v_j inner[i, j] for vectors u, v (..., D) of a (D, D, d, d) tensor."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    outer = u[..., :, None] * v[..., None, :]
    return np.tensordot(outer, inner, axes=([-2, -1], [0, 1]))


class _Held:
    """A bimodule held by what its maps read.  Its dense fields are cached
    properties, built from the maps when first read: ``action[k]`` is
    ``right_operator`` of the k-th basis element, whose column i is e_i · b_k.
    A carrier vector (..., dim) is read as a (..., *_shape) matrix, unless the
    instance holds its own ``_matrices`` and ``_vectors``.
    ``dataclasses.replace`` calls the class with every field, and gets the
    dense ``_dense`` of those fields."""

    def __new__(cls, *args, **fields):
        if args or fields:
            return cls._dense(*args, **fields)
        return super().__new__(cls)

    @classmethod
    def _held(cls, **held):
        module = object.__new__(cls)
        module.__dict__.update(held)
        return module

    @cached_property
    def action(self) -> np.ndarray:
        return self.right_operator(self.algebra.basis)

    @cached_property
    def left_action(self) -> np.ndarray:
        return self.left_operator(self.left_algebra.basis)

    def right_operator(self, b) -> np.ndarray:
        b = np.asarray(b)[..., None, :, :]
        return self.act(np.eye(self.dim), b).swapaxes(-1, -2)

    def left_operator(self, a) -> np.ndarray:
        a = np.asarray(a)[..., None, :, :]
        return self.act_left(a, np.eye(self.dim)).swapaxes(-1, -2)

    def _matrices(self, x) -> np.ndarray:
        """Carrier vectors (..., dim) as (..., *_shape) matrices."""
        x = np.asarray(x, dtype=complex)
        return x.reshape(*x.shape[:-1], *self._shape)

    def _vectors(self, y) -> np.ndarray:
        return y.reshape(*y.shape[:-2], self.dim)


class MatrixBimodule(_Held, KreinBimodule):
    """The matrix module of k2 x k1 matrices X over k1 = ``algebra`` on the
    right and k2 = ``left_algebra`` on the left, with etas η₁ and η₂ (Lance,
    Hilbert C*-modules, LMS LN 210, 1995): x·b = X b, a·x = a X,
    ⟨x, y⟩ = η₁ X† η₂ Y, the left product X η₁ Y† η₂ and J x = η₂ X η₁.  The
    maps do not project the matrices they take.  ``inner``, ``left_inner``
    and ``symmetry`` read the maps on the carrier's unit vectors.
    """

    _dense = KreinBimodule

    @cached_property
    def inner(self) -> np.ndarray:
        units = np.eye(self.dim)
        return self.pairing(units[:, None], units[None])

    @cached_property
    def left_inner(self) -> np.ndarray:
        units = np.eye(self.dim)
        return self.pairing_left(units[:, None], units[None])

    @cached_property
    def symmetry(self) -> np.ndarray:
        return self.j(np.eye(self.dim)).T

    def act(self, x, b) -> np.ndarray:
        return self._vectors(_product(self._matrices(x), b))

    def act_left(self, a, x) -> np.ndarray:
        return self._vectors(_product(a, self._matrices(x)))

    def pairing(self, x, y) -> np.ndarray:
        return _product(self._adjoint(x), self._matrices(y))

    def pairing_left(self, x, y) -> np.ndarray:
        return _product(self._matrices(x), self._adjoint(y))

    def j(self, x) -> np.ndarray:
        twisted = self.left_algebra.eta @ self._matrices(x) @ self.algebra.eta
        return self._vectors(twisted)

    def _adjoint(self, x) -> np.ndarray:
        """η₁ X† η₂, the factor x brings to either product."""
        adjoint = self._matrices(x).conj().swapaxes(-1, -2)
        return self.algebra.eta @ adjoint @ self.left_algebra.eta


def _product(a, b) -> np.ndarray:
    """The products a b of two stacks by ``np.einsum``, which sums rounded
    products with no fused multiply-add, unlike the BLAS behind ``@``: two
    sums of the same two products in either order agree exactly, so a law
    whose sides differ by J's signed permutations reads 0 where its sums have
    two terms, as it did on the dense tensors."""
    return np.einsum("...ij,...jk->...ik", a, b)


def self_module(algebra: KreinCStarAlgebra) -> MatrixBimodule:
    """The algebra over itself, in coefficient coordinates: the matrix module
    of k1 = k2 = A, so right product star(x) y, left product x star(y) and
    symmetry alpha."""
    return MatrixBimodule._held(
        algebra=algebra, dim=algebra.vector_dim, left_algebra=algebra,
        _matrices=algebra.from_coefficients, _vectors=algebra.coefficients,
    )


def operator_bimodule(
    k1: KreinCStarAlgebra, k2: KreinCStarAlgebra
) -> MatrixBimodule:
    """Maps between two reference Kreĭn spaces as a bimodule: the matrix
    module of d2 x d1 matrices T, flattened row-major.  Both algebras must
    have full matrix carriers.  Spinors are the instance B(C, S): k1 the
    scalars with form 1, k2 the gamma algebra on the spinor space S with
    form A (``spinor_module``).
    """
    for alg in (k1, k2):
        if alg.vector_dim != alg.dim**2:
            raise ValidationError("operator bimodule needs full matrix algebras")
    return MatrixBimodule._held(
        algebra=k1, dim=k2.dim * k1.dim, left_algebra=k2, _shape=(k2.dim, k1.dim)
    )


# -- operations ----------------------------------------------------------------


def auxiliary_product(module: KreinModuleOverKrein, x, y) -> np.ndarray:
    """The positive companion product ⟨x, J y⟩."""
    return module.pairing(x, module.j(y))


def inner_twist_defect(algebra: KreinCStarAlgebra, p, pj):
    """‖alpha(p) − pj‖, unnormalised, of each pairing p = ⟨x, y⟩ (..., d, d) and its
    pj = ⟨Jx, Jy⟩: J twists over alpha, alpha(⟨x, y⟩) = ⟨Jx, Jy⟩ = p₊ − p₋."""
    return operator_norm(algebra.alpha(p) - pj)


def rank_one(module: KreinModuleOverKrein, x, y) -> np.ndarray:
    """The operator z ↦ x · ⟨y, z⟩, or a stack of them for stacks x, y: its
    column k is x · ⟨y, e_k⟩."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    pairings = module.pairing(y[..., None, :], np.eye(module.dim))
    return module.act(x[..., None, :], pairings).swapaxes(-1, -2)


def adjoint_residual(module: KreinModuleOverKrein, t):
    """Best least-squares candidate for the adjoint of T, with the relative
    residual of the defining relation ⟨T x, y⟩ = ⟨x, S y⟩; for a stack of k
    operators, the stack of candidates and an array of k residuals.

    On basis vectors it reads ⟨T e_i, e_j⟩ = Σ_k inner[i, k] S_kj, so column j
    of S meets only column j of the target R, through the same M = inner as
    (n·d², n): M S = R has n right-hand sides, and a stack of k operators k·n.
    The module decides once how M is solved (``_adjoint_design``):
    - when every row of M has at most one nonzero, its columns have disjoint
      supports and so are exactly orthogonal, and S_j = M_j†R / ‖M_j‖² with
      no factorisation; a zero column, or one under ``np.linalg.lstsq``'s own
      cut, reads S_j = 0, the minimum-norm answer lstsq gives;
    - any other M goes to ``np.linalg.lstsq``.
    Each operator's residual is ‖M S − R‖_F / max(‖R‖_F, 1), read from the
    difference M S − R itself.
    """
    t = as_complex_matrix(t)
    d = module.algebra.dim
    n = module.dim
    if t.shape[-2:] != (n, n):
        raise DimensionMismatchError("operator shape mismatch")
    lead = t.shape[:-2]
    design = module._adjoint_design

    # R_k[(i, a, b), j] = Σ_m conj(t_k[m, i]) inner[m, j, a, b] is one matmul;
    # its rows, gathered in the design's order, give target (rows, k, n)
    target = (t.conj().swapaxes(-1, -2) @ module.inner.reshape(n, -1)).reshape(
        -1, n, n, d * d
    )[:, design.i, :, design.ab]
    if design.col is None:
        m = module.inner.reshape(n, n, d * d)[design.i, :, design.ab]
        s = np.linalg.lstsq(m, target.reshape(len(m), -1), rcond=None)[0]
        error = (m @ s).reshape(target.shape) - target
        s = s.reshape(n, -1, n)
    else:
        held = len(design.col)
        s = np.zeros((n, *target.shape[1:]), dtype=complex)
        s[design.col[design.starts]] = np.add.reduceat(
            target[:held] * design.weights[:, None, None], design.starts
        )
        error = design.val[:, None, None] * s[design.col] - target[:held]

    def per_operator(x):  # Frobenius norm of each operator's n columns
        return frobenius_norms(x.swapaxes(0, 1))

    # the rows past the error's are zero rows of M, where M S − R is −R
    error_norm = np.hypot(per_operator(error), per_operator(target[len(error):]))
    residual = error_norm / np.maximum(per_operator(target), 1.0)
    s = s.swapaxes(0, 1).reshape(*lead, n, n)
    return s, residual.reshape(lead) if lead else float(residual[0])


def krein_adjoint_over_krein(module: KreinModuleOverKrein, t) -> np.ndarray:
    """Solve ⟨T x, y⟩ = ⟨x, S y⟩ for S, raising when no solution exists.

    The relation is linear in S; it is set up over the carrier basis and
    solved by ``adjoint_residual``.  A residual above ``ADJOINT_TOL``
    (relative to the target) means T has no adjoint for the indefinite
    algebra-valued product.  A stack of operators gives the stack of
    adjoints, and raises if any has none.
    """
    s, residual = adjoint_residual(module, t)
    worst = np.max(residual)
    if not worst <= ADJOINT_TOL:
        raise NonAdjointableError(
            f"no adjoint exists: relative residual {worst:.3e}"
        )
    return s


def is_adjointable(module: KreinModuleOverKrein, t) -> bool:
    return bool(np.max(adjoint_residual(module, t)[1]) <= ADJOINT_TOL)


def check_module_over_krein(
    module: KreinModuleOverKrein,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> Report:
    """Verification of the twisted-module axioms, on random samples but for
    "inner star-hermitian", which is decided on carrier basis pairs."""
    alg = module.algebra
    is_bimodule = isinstance(module, KreinBimodule)
    report, rng = Report.sampled(
        "module over Kreĭn algebra", seed, samples,
        carrier_dim=module.dim, algebra_dim=alg.dim,
    )

    report.check("J involutive", involution_defect(module.symmetry), 1e-10)
    report.check(
        "inner non-degenerate", 0.0 if module.is_nondegenerate() else 1.0, 0.5
    )

    def draw(rows):
        n, m = module.dim, alg.vector_dim
        left = [(module.left_algebra.vector_dim,)] * 2 if is_bimodule else []
        x, y, a, b, *cd = gaussians(rng, len(rows), (n,), (n,), (m,), (m,), *left)
        a, b = alg.from_normals(a), alg.from_normals(b)
        nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
        s = SimpleNamespace(
            x=x,
            y=y,
            a=a,
            b=b,
            nx=nx,
            na=np.maximum(operator_norm(a), 1e-30),
            nb=np.maximum(operator_norm(b), 1e-30),
            sxy=np.maximum(nx * ny, 1e-30),
            p=module.pairing(x, y),
        )
        pj = module.pairing(module.j(x), module.j(y))
        s.inner_twist = inner_twist_defect(alg, s.p, pj) / s.sxy  # read by two laws
        if is_bimodule:
            s.c, s.d = map(module.left_algebra.from_normals, cd)
            s.nc = np.maximum(operator_norm(s.c), 1e-30)
            s.nd = np.maximum(operator_norm(s.d), 1e-30)
        return s

    def auxiliary_defect(s):
        # hermiticity defect of <x, J x> relative to |x|², or 1 if not PSD
        aux = auxiliary_product(module, s.x, s.x)
        psd_defect = np.where(is_psd(aux), 0.0, 1.0)
        return np.maximum(
            hermitian_defect(aux) / np.maximum(s.nx * s.nx, 1e-30), psd_defect
        )

    def vnorm(v):
        return np.linalg.norm(v, axis=-1)

    act, pairing, j = module.act, module.pairing, module.j
    laws = [
        ("action associative", tol,
         lambda s: vnorm(act(act(s.x, s.a), s.b) - act(s.x, s.a @ s.b))
         / (s.nx * s.na * s.nb)),
        ("inner right-linear", tol,
         lambda s: operator_norm(pairing(s.x, act(s.y, s.b)) - s.p @ s.b)
         / (s.sxy * s.nb)),
        # star(inner[i, j]) = inner[j, i], one row i of pairs (n·d² entries) at a time
        ("inner star-hermitian", tol, decide(lambda: np.max([
            operator_norm(alg.star(module.inner[i]) - module.inner[:, i])
            for i in range(module.dim)
        ]))),
        ("J twists over alpha", tol,
         lambda s: vnorm(j(act(s.x, s.b)) - act(j(s.x), alg.alpha(s.b)))
         / (s.nx * s.nb)),
        ("alpha of inner is inner of J pair", tol, lambda s: s.inner_twist),
        ("auxiliary product positive", tol, auxiliary_defect),
        ("even odd parts exchange under J", tol, lambda s: s.inner_twist),
    ]
    if is_bimodule:
        left, left_alpha = module.act_left, module.left_algebra.alpha
        laws += [
            ("left action associative", tol,
             lambda s: vnorm(left(s.c, left(s.d, s.x)) - left(s.c @ s.d, s.x))
             / (s.nx * s.nc * s.nd)),
            ("actions commute", tol,
             lambda s: vnorm(left(s.c, act(s.x, s.b)) - act(left(s.c, s.x), s.b))
             / (s.nx * s.nc * s.nb)),
            ("J twists over left alpha", tol,
             lambda s: vnorm(j(left(s.c, s.x)) - left(left_alpha(s.c), j(s.x)))
             / (s.nx * s.nc)),
        ]
    if is_bimodule and module.left_inner is not None:
        laws.append(
            ("left inner left-linear", tol,
             lambda s: operator_norm(
                 module.pairing_left(left(s.c, s.x), s.y)
                 - s.c @ module.pairing_left(s.x, s.y)
             ) / (s.sxy * s.nc))
        )
    report.check_laws(draw, samples, laws)
    return report


def check_imprimitivity(
    module: KreinBimodule, samples: int = 100, seed: int = 0, tol: float = 1e-9
) -> Report:
    """Randomized check of the linking identity _A⟨x,y⟩ z = x ⟨y,z⟩_B, and
    exact two-sided fullness from the rank of the full pairing tensors."""
    report, rng = Report.sampled("imprimitivity", seed, samples, carrier_dim=module.dim)

    def draw(rows):
        x, y, z = gaussians(rng, len(rows), *[(module.dim,)] * 3)
        return SimpleNamespace(x=x, y=y, z=z)

    def linking(s):
        norms = [np.linalg.norm(v, axis=-1) for v in (s.x, s.y, s.z)]
        scale = np.maximum(norms[0] * norms[1] * norms[2], 1e-30)
        lhs = module.act_left(module.pairing_left(s.x, s.y), s.z)
        rhs = module.act(s.x, module.pairing(s.y, s.z))
        return np.linalg.norm(lhs - rhs, axis=-1) / scale

    report.check_laws(draw, samples, [("linking identity", tol, linking)])
    # fullness: the products of all carrier basis pairs span the algebras
    n = module.dim
    for side, algebra, inner in (
        ("left", module.left_algebra, module.left_inner),
        ("right", module.algebra, module.inner),
    ):
        rank = numerical_rank(inner.reshape(n * n, -1))
        report.check(
            f"{side} products full",
            float(algebra.vector_dim - rank),
            0.5,
            detail=f"rank {rank} of {algebra.vector_dim}",
        )
    return report
