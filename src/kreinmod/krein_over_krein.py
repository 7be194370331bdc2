"""Modules whose coefficient algebra is itself a Kreĭn C*-algebra.

The carrier is a plain complex vector space C^D.  The right action and the
algebra-valued inner product are stored as dense tensors contracted against
the coefficient expansion of algebra elements:

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
from .report import Report

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


def self_module(algebra: KreinCStarAlgebra) -> KreinBimodule:
    """The algebra over itself, in coefficient coordinates.

    Right product star(x) y, left product x star(y), symmetry alpha.
    """
    basis = algebra.basis
    # structure constants: products[i, j] = coefficients(b_i b_j)
    products = algebra.coefficients(basis[:, None] @ basis[None])
    stars = algebra.star(basis)
    return KreinBimodule(
        algebra=algebra,
        dim=len(basis),
        action=products.transpose(1, 2, 0),  # column k of action[j]: b_k b_j
        inner=stars[:, None] @ basis[None],
        symmetry=algebra.coefficients(algebra.alpha(basis)).T,
        left_algebra=algebra,
        left_action=products.transpose(0, 2, 1),  # column k of left_action[j]: b_j b_k
        left_inner=basis[:, None] @ stars[None],
    )


def operator_bimodule(
    k1: KreinCStarAlgebra, k2: KreinCStarAlgebra
) -> KreinBimodule:
    """Maps between two reference Kreĭn spaces as a bimodule.

    Carrier: d2 x d1 matrices T, flattened.  Right action by composition,
    right product eta1 T† eta2 S; left product T eta1 S† eta2; the symmetry
    is T ↦ eta2 T eta1.  Both algebras must have full matrix carriers.
    Spinors are the instance B(C, S): k1 the scalars with form 1, k2 the
    gamma algebra on the spinor space S with form A (``spinor_module``).
    """
    d1, d2 = k1.dim, k2.dim
    for alg in (k1, k2):
        if alg.vector_dim != alg.dim**2:
            raise ValidationError("operator bimodule needs full matrix algebras")
    dim = d2 * d1
    eye1, eye2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    # row-major vec(A T B) = (A ⊗ Bᵀ) vec(T); on the unit T_(r,s) = e_r e_sᵀ
    # the products read eta1 T_(r,s)† eta2 T_(t,u) = eta1[:, s] eta2[r, t] e_uᵀ
    # and T_(r,s) eta1 T_(t,u)† eta2 = e_r eta1[s, u] eta2[t, :]
    inner = np.einsum("as,rt,uc->rstuac", k1.eta, k2.eta, eye1)
    left_inner = np.einsum("ra,su,tc->rstuac", eye2, k1.eta, k2.eta)
    return KreinBimodule(
        algebra=k1,
        dim=dim,
        action=np.kron(eye2[None], k1.basis.swapaxes(1, 2)),
        inner=inner.reshape(dim, dim, d1, d1),
        symmetry=np.kron(k2.eta, k1.eta.T),
        left_algebra=k2,
        left_action=np.kron(k2.basis, eye1[None]),
        left_inner=left_inner.reshape(dim, dim, d2, d2),
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
    """The operator z ↦ x · ⟨y, z⟩, or a stack of them for stacks x, y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    # column k is x · ⟨y, e_k⟩; the action is linear in the coefficients
    pairings = np.tensordot(y.conj(), module.inner, axes=(-1, 0))
    coeffs = module.algebra.coefficients(pairings)
    actions = matvec(module.action, x[..., None, :])  # row b is action[b] x
    return actions.swapaxes(-1, -2) @ coeffs.swapaxes(-1, -2)


def adjoint_residual(module: KreinModuleOverKrein, t):
    """Best least-squares candidate for the adjoint of T, with the relative
    residual of the defining relation ⟨T x, y⟩ = ⟨x, S y⟩; for a stack of k
    operators, the stack of candidates and an array of k residuals.

    On basis vectors it reads ⟨T e_i, e_j⟩ = Σ_k inner[i, k] S_kj, so column j
    of S meets only column j of the target R, through the same M = inner as
    (n·d², n): M S = R is one least squares problem with n right-hand sides,
    and a stack of k operators is one problem with k·n, so M is factored once.
    Each operator's residual is ‖M S − R‖_F / max(‖R‖_F, 1).
    """
    t = as_complex_matrix(t)
    d = module.algebra.dim
    n = module.dim
    if t.shape[-2:] != (n, n):
        raise DimensionMismatchError("operator shape mismatch")
    lead = t.shape[:-2]

    # (k, i, j, a, b) -> rows (i, a, b), columns (k, j)
    def rows_iab(x):
        return x.reshape(-1, n, n, d, d).transpose(1, 3, 4, 0, 2).reshape(n * d * d, -1)

    # R_k[(i, a, b), j] = Σ_m conj(t_k[m, i]) inner[m, j, a, b] is one matmul
    design = rows_iab(module.inner)
    target = rows_iab(t.conj().swapaxes(-1, -2) @ module.inner.reshape(n, -1))
    s, _, _, _ = np.linalg.lstsq(design, target, rcond=None)

    def per_operator(x):  # Frobenius norm of each operator's n columns
        return frobenius_norms(x.reshape(n * d * d, -1, n).swapaxes(0, 1))

    residual = per_operator(design @ s - target) / np.maximum(per_operator(target), 1.0)
    s = s.reshape(n, -1, n).swapaxes(0, 1).reshape(*lead, n, n)
    return s, residual.reshape(lead) if lead else float(residual[0])


def krein_adjoint_over_krein(module: KreinModuleOverKrein, t) -> np.ndarray:
    """Solve ⟨T x, y⟩ = ⟨x, S y⟩ for S, raising when no solution exists.

    The relation is linear in S; it is set up over the carrier basis and
    solved by least squares.  A residual above ``ADJOINT_TOL`` (relative to
    the target) means T has no adjoint for the indefinite algebra-valued
    product.  A stack of operators gives the stack of adjoints, and raises if
    any has none.
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
    """Randomized verification of the twisted-module axioms."""
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
        n, d = module.dim, alg.dim
        left = [(module.left_algebra.dim,) * 2] * 2 if is_bimodule else []
        x, y, a, b, *cd = gaussians(rng, len(rows), (n,), (n,), (d, d), (d, d), *left)
        a, b = alg.project(a), alg.project(b)
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
            s.c, s.d = (module.left_algebra.project(m) for m in cd)
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
        ("inner star-hermitian", tol,
         lambda s: operator_norm(alg.star(s.p) - pairing(s.y, s.x)) / s.sxy),
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
