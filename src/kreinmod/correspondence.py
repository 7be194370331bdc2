"""Correspondences between Kreĭn C*-algebras and their internal tensor
products.

A correspondence from A to B is a bimodule carrier with a B-valued inner
product and a symmetry twisting over both fundamental automorphisms:
J(a x b) = alpha(a) J(x) beta(b).  The tensor product over B is realized
constructively: quotient the plain tensor by the balancing relations
x·b ⊗ y − x ⊗ b·y, then push every structure map through an explicit
orthonormal section of the quotient.  Well-definedness of each descended
map is verified numerically rather than assumed.  Over the scalars every
relation is zero and the section is exactly I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import KreinCStarAlgebra, reference_form, scalar_krein_algebra
from .clifford import (
    PseudoEuclideanSpace,
    spinor_module,
)
from .krein_over_krein import (
    KreinBimodule,
    check_imprimitivity,
    check_module_over_krein,
    self_module,
)
from .linalg import (
    DimensionMismatchError,
    ValidationError,
    _Monomials,
    column_space,
    first_exceeding,
    numerical_rank,
    operator_norm,
    quotient_space,
    random_complex,
    spectral_projector,
)
from .report import Report


class DegenerateDescentError(ValueError):
    """The inner product degenerates on the quotient carrier."""


# a correspondence is a Kreĭn bimodule viewed as an arrow left_algebra -> algebra
Correspondence = KreinBimodule


@dataclass(frozen=True)
class TensorCorrespondence(Correspondence):
    """An internal tensor product, remembering its quotient section S; the
    projector onto the quotient is S†."""

    section: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class CorrespondenceMorphism:
    """A linear carrier map between correspondences over the same algebras."""

    source: Correspondence
    target: Correspondence
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatchError("morphism matrix shape mismatch")
        object.__setattr__(self, "matrix", m)

    def __call__(self, x) -> np.ndarray:
        """The image of a carrier vector, or of each vector of a stack."""
        return np.asarray(x, dtype=complex) @ self.matrix.T

    @property
    def is_bijective(self) -> bool:
        return (
            self.source.dim == self.target.dim
            and numerical_rank(self.matrix) == self.source.dim
        )


def identity_correspondence(algebra: KreinCStarAlgebra) -> Correspondence:
    """The algebra over itself with ⟨a1, a2⟩ = star(a1) a2 and J = alpha."""
    return self_module(algebra)


def krein_space_correspondence(p: int, q: int) -> Correspondence:
    """C^{p,q} as a correspondence from the scalars to the scalars."""
    n = p + q
    if n < 1:
        raise ValidationError("p + q must be at least 1")
    eta, scalars = reference_form(p, q), scalar_krein_algebra()
    inner = eta[:, :, None, None].copy()
    return Correspondence(
        algebra=scalars,
        dim=n,
        action=np.eye(n, dtype=complex)[None, :, :],
        inner=inner,
        symmetry=eta,
        left_algebra=scalars,
        left_action=np.eye(n, dtype=complex)[None, :, :],
        left_inner=inner.copy(),
    )


def spinor_correspondence(space: PseudoEuclideanSpace) -> Correspondence:
    """Spinors as an arrow from the Clifford algebra to the scalars."""
    return spinor_module(space)


# -- internal tensor product ----------------------------------------------------


def internal_tensor(
    m: Correspondence,
    n: Correspondence,
    section_rotation: np.random.Generator | None = None,
) -> TensorCorrespondence:
    """The balanced tensor product over the shared middle algebra.

    A plain map T descends iff P T R = 0, for P = section† and R an orthonormal
    basis of the relation span: ‖P T R‖₂ ≤ 1e-8 · max(‖T‖₂, 1) for each map,
    and ‖R† ip‖, ‖ip R‖ ≤ 1e-8 · max(‖ip‖, 1) for the plain inner product.

    It holds the relation blocks and each action as (nb, plain, plain)
    Kronecker stacks, nb the size of the basis acting and plain = m.dim·n.dim,
    and the (plain, plain, dc, dc) plain inner product: ``internal_tensor(S,
    S̄)`` of the spinors at (4,4) holds three 256³ arrays and traces 1.36 GB.

    ``section_rotation`` optionally re-picks the orthonormal section by a
    random unitary change of quotient basis; the descended structures must
    not depend on this choice beyond the change of basis itself.
    """
    mid = m.algebra
    if (
        mid.dim != n.left_algebra.dim
        or mid.basis.shape != n.left_algebra.basis.shape
        or first_exceeding(mid.basis - n.left_algebra.basis, mid.basis, 1e-12) >= 0
        or operator_norm(mid.eta - n.left_algebra.eta) > 1e-12
    ):
        raise ValidationError("middle algebras do not match")
    t = _descended_tensor(m, n, section_rotation)
    if not t.is_nondegenerate():
        raise DegenerateDescentError("descended inner product is degenerate")
    return t


def _descended_tensor(m, n, section_rotation) -> TensorCorrespondence:
    """m ⊗ n through the orthonormal section of the quotient by the balancing
    relations, each structure map checked to descend."""
    dm, dn = m.dim, n.dim
    plain, nb = dm * dn, m.algebra.basis.shape[0]
    eye_m, eye_n = np.eye(dm, dtype=complex), np.eye(dn, dtype=complex)
    # relation (i, k, l), e_i·b_k ⊗ e_l − e_i ⊗ b_k·e_l, is column (i, l) of
    # action[k] ⊗ I − I ⊗ left_action[k] (the middle bases are equal)
    blocks = np.kron(m.action, eye_n) - np.kron(eye_m, n.left_action)
    relations = blocks.reshape(nb, plain, dm, dn).transpose(2, 0, 3, 1)
    section, span = quotient_space(plain, relations.reshape(-1, plain))
    if section_rotation is not None:
        section = section @ _random_unitary(section_rotation, section.shape[1])

    def descend(maps: np.ndarray, kind: str) -> np.ndarray:
        """A stack of plain maps, each of which must keep the relation span."""
        pt = section.conj().T @ maps
        k = first_exceeding(pt @ span, maps, 1e-8)
        if k >= 0:
            raise ValidationError(
                f"{kind} does not descend to the quotient (map {k})"
            )
        return pt @ section

    action = descend(np.kron(eye_m, n.action), "right action")
    left_action = descend(np.kron(m.left_action, eye_n), "left action")
    (symmetry,) = descend(np.kron(m.symmetry, n.symmetry)[None], "symmetry")

    ip_plain = _plain_inner(m, n)
    # BLAS contractions; the defects are norms, so their axis order is free
    defect = max(
        np.linalg.norm(np.tensordot(span.conj(), ip_plain, axes=(0, 0))),
        np.linalg.norm(np.tensordot(ip_plain, span, axes=(1, 0))),
    )
    if defect > 1e-8 * max(np.linalg.norm(ip_plain), 1.0):
        raise ValidationError("inner product does not descend to the quotient")
    inner = np.einsum(
        "au,bv,abcd->uvcd", section.conj(), section, ip_plain, optimize=True
    )
    return TensorCorrespondence(
        algebra=n.algebra,
        dim=section.shape[1],
        action=action,
        inner=inner,
        symmetry=symmetry,
        left_algebra=m.left_algebra,
        left_action=left_action,
        left_inner=None,
        section=section,
    )


def _plain_inner(m, n) -> np.ndarray:
    """The inner product of the plain tensor, a (plain, plain, dc, dc) tensor.

    <x1 (x) y1, x2 (x) y2> = <y1, <x1,x2> y2> = Σ_b c[i, j, b] lb[b, k, l],
    with c the middle coefficients of <e_i, e_j> and lb[b, k, l] =
    <e_k, b·e_l>: one outer product per middle basis element, written in C
    order so that the reshape is a view.
    """
    plain, dc = m.dim * n.dim, n.algebra.dim
    c = n.left_algebra.coefficients(m.inner)
    lb = np.einsum("kmab,nml->nklab", n.inner, n.left_action)
    return np.einsum("ijn,nklab->ikjlab", c, lb, order="C").reshape(
        plain, plain, dc, dc
    )


def _random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, k, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def even_odd_decomposition_check(
    t: TensorCorrespondence,
    m: Correspondence,
    n: Correspondence,
    tol: float = 1e-8,
) -> Report:
    """The descended symmetry's eigenspaces against the pushed-forward
    products of the factors' halves: even = (+,+) with (−,−), odd = mixed."""
    report = Report(
        title="tensor symmetry decomposition",
        seed=0,
        samples=0,
        environment={"dim": t.dim},
    )
    # the elementary tensors u ⊗ v of the halves with signs s·s' = sign span
    # P₊⊗Q_sign + P₋⊗Q₋sign = (1 + sign·J_m⊗J_n)/2, pushed to the quotient
    plain = np.kron(m.symmetry, n.symmetry)
    projector = t.section.conj().T
    for sign, name in (
        (+1, "even part matches matched-sign tensors"),
        (-1, "odd part matches mixed-sign tensors"),
    ):
        u = column_space(spectral_projector(t.symmetry, sign)).basis
        v = column_space(projector @ spectral_projector(plain, sign)).basis
        # ‖uu† − vv†‖₂, the sine of the largest principal angle (Golub & Van
        # Loan, §2.5.3): 1 when the dimensions differ
        report.check(name, operator_norm(u @ u.conj().T - v @ v.conj().T), tol)
    return report


# -- unit and associativity isomorphisms ------------------------------------------


def right_unit_iso(m: Correspondence) -> CorrespondenceMorphism:
    """M ⊗ id(B) → M by x ⊗ b ↦ x·b."""
    t = internal_tensor(m, identity_correspondence(m.algebra))
    # column (i, k) is e_i · b_k, column i of action[k]
    iso_plain = m.action.transpose(1, 2, 0).reshape(m.dim, -1)
    return CorrespondenceMorphism(t, m, iso_plain @ t.section)


def left_unit_iso(m: Correspondence) -> CorrespondenceMorphism:
    """id(A) ⊗ M → M by a ⊗ x ↦ a·x."""
    t = internal_tensor(identity_correspondence(m.left_algebra), m)
    # column (k, i) is b_k · e_i, column i of left_action[k]
    iso_plain = m.left_action.transpose(1, 0, 2).reshape(m.dim, -1)
    return CorrespondenceMorphism(t, m, iso_plain @ t.section)


def associativity_iso(
    m: Correspondence, n: Correspondence, p: Correspondence
) -> tuple[CorrespondenceMorphism, TensorCorrespondence, TensorCorrespondence]:
    """(M⊗N)⊗P → M⊗(N⊗P) through the two quotient presentations."""
    mn = internal_tensor(m, n)
    np_ = internal_tensor(n, p)
    lhs = internal_tensor(mn, p)
    rhs = internal_tensor(m, np_)
    eye_m = np.eye(m.dim, dtype=complex)
    eye_p = np.eye(p.dim, dtype=complex)
    expand = np.kron(mn.section, eye_p)  # (dm*dn*dp, q_mn*dp)
    regroup = np.kron(eye_m, np_.section.conj().T)  # (dm*q_np, dm*dn*dp)
    matrix = rhs.section.conj().T @ regroup @ expand @ lhs.section
    return CorrespondenceMorphism(lhs, rhs, matrix), lhs, rhs


def check_morphism(
    mor: CorrespondenceMorphism,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> Report:
    """Bijectivity and the morphism laws, each decided on basis tuples.

    Every law is linear or sesquilinear in each argument, so it holds iff it
    holds on bases, and is read on the matrix M: "intertwines both actions"
    is the largest ‖M R(b_l) L(a_k) − R′(b_l) L′(a_k) M‖₂ / (‖a_k‖₂ ‖b_l‖₂)
    over the source's left and right bases, which each side reads through
    its own ``left_operator`` and ``right_operator``; "preserves inner
    products" the largest ‖Σ conj(M_ai) M_bj inner′[a, b] − inner[i, j]‖₂ over
    carrier basis pairs; "intertwines symmetries" ‖M J − J′ M‖₂, the supremum
    of the residual over unit x.  Nothing is drawn: ``samples`` (at least 1)
    and ``seed``, kept for the callers that pass them, only head the report.
    """
    src, dst = mor.source, mor.target
    report, _ = Report.sampled(
        "correspondence morphism", seed, samples,
        source_dim=src.dim, target_dim=dst.dim,
    )
    report.check("bijective", 0.0 if mor.is_bijective else 1.0, 0.5)

    m, la, ra = mor.matrix, src.left_algebra.basis, src.algebra.basis

    def actions(side):  # R(b_l) L(a_k) at (k, l)
        return side.right_operator(ra)[None] @ side.left_operator(la)[:, None]

    pulled = np.einsum("ai,bj,abcd->ijcd", m.conj(), m, dst.inner, optimize=True)
    for name, values in (
        ("intertwines both actions", operator_norm(m @ actions(src) - actions(dst) @ m)
         / np.outer(operator_norm(la), operator_norm(ra))),
        ("preserves inner products", operator_norm(pulled - src.inner)),
        ("intertwines symmetries", operator_norm(m @ src.symmetry - dst.symmetry @ m)),
    ):
        report.check(name, np.max(values), tol)
    return report


# -- contragredient ---------------------------------------------------------------


def contragredient(m: Correspondence) -> Correspondence:
    """The conjugate correspondence with the sides swapped.

    Carrier coordinates are conjugated; actions follow b·x̄·a = conj(a* x b*)
    and the two products trade places.
    """
    if m.left_inner is None:
        raise ValidationError("contragredient needs both inner products")
    la, ra = m.left_algebra, m.algebra
    # x̄·a = conj(star(a)·x) and b·x̄ = conj(x·star(b))
    return Correspondence(
        algebra=la,
        dim=m.dim,
        action=m.left_operator(la.star(la.basis)).conj(),
        inner=m.left_inner.copy(),
        symmetry=m.symmetry.conj(),
        left_algebra=ra,
        left_action=m.right_operator(ra.star(ra.basis)).conj(),
        left_inner=m.inner.copy(),
    )


def double_contragredient_iso(m: Correspondence) -> CorrespondenceMorphism:
    """The natural identification of m with its double contragredient."""
    return CorrespondenceMorphism(
        m, contragredient(contragredient(m)), np.eye(m.dim, dtype=complex)
    )


# -- verification suites -----------------------------------------------------------


def check_krein_star_hom(
    phi,
    source: KreinCStarAlgebra,
    target: KreinCStarAlgebra,
    beta=None,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> Report:
    """Unitality, multiplicativity, star-preservation, and the intertwining
    of the two fundamental automorphisms for an algebra map phi; ``beta``
    defaults to the target's automorphism.  phi and beta map a matrix, and
    a stack of matrices one by one.  Each law is (conjugate-)linear in each
    argument and decided on the source's basis b_k, divided by the ‖b_k‖₂ of
    its factors: "multiplicative" over basis pairs, one left factor at a
    time.  Nothing is drawn: ``samples`` (at least 1) and ``seed``, kept for
    the callers that pass them, only head the report.
    """
    beta = beta if beta is not None else target.alpha
    report, _ = Report.sampled(
        "Kreĭn *-homomorphism", seed, samples,
        source_dim=source.dim, target_dim=target.dim,
    )
    unital = operator_norm(phi(np.eye(source.dim)) - np.eye(target.dim))
    report.check("unital", unital, tol)

    basis = source.basis
    pb, norms = phi(basis), operator_norm(basis)
    multiplicative = [
        operator_norm(phi(b @ basis) - pa @ pb) / (norm * norms)
        for b, pa, norm in zip(basis, pb, norms)
    ]
    for name, values in (
        ("multiplicative", multiplicative),
        ("star-preserving",
         operator_norm(phi(source.star(basis)) - target.star(pb)) / norms),
        ("intertwines alpha and beta",
         alpha_beta_defect(phi, source, beta, basis, pb) / norms),
    ):
        report.check(name, np.max(values), tol)
    return report


def alpha_beta_defect(phi, source: KreinCStarAlgebra, beta, a, pa):
    """‖phi(alpha(a)) − beta(pa)‖ for pa = phi(a), of a matrix or of each
    matrix of a stack."""
    return operator_norm(phi(source.alpha(a)) - beta(pa))


def morita_krein_check(
    corr: Correspondence, samples: int = 100, seed: int = 0, tol: float = 1e-9
) -> Report:
    """Certify a Morita-Kreĭn equivalence bimodule: module axioms on both
    sides, imprimitivity, and two-sided fullness."""
    if corr.left_inner is None:
        raise ValidationError("certification needs both inner products")
    report = check_module_over_krein(corr, samples=samples, seed=seed, tol=tol)
    report.title = "Morita-Kreĭn certification"
    report.extend(check_imprimitivity(corr, samples=samples, seed=seed + 1, tol=tol))
    return report


def spinor_factorization_check(
    space: PseudoEuclideanSpace, samples: int = 200, seed: int = 0, tol: float = 1e-9
) -> Report:
    """S ⊗_C S̄, over the scalars the plain tensor of the carriers, against
    the Clifford algebra acting on the exterior algebra.

    The identification sends psi ⊗ phi-bar to the operator psi phi† A,
    expanded over gamma-matrix monomials and read as exterior coordinates.
    """
    return _factorization(spinor_correspondence(space), space, samples, seed, tol)


def _factorization(s, space, samples, seed, tol) -> Report:
    """``spinor_factorization_check`` of the spinor bimodule s of space, its
    laws decided on the nonzeros of the identification (``_identification``):
    ``samples`` (at least 1) and ``seed`` only head the report.  S ⊗ S̄ is
    the plain tensor, of dimension s.dim², and nothing is built for it: its
    inner product ⟨x, x′⟩ ⊗ (S's left inner) is nondegenerate when S passes
    "inner non-degenerate" and "left products full", which the scenario and
    the spinor-m4 demo record beside this report."""
    report, _ = Report.sampled(
        "spinor factorization", seed, samples, p=space.p, q=space.q
    )
    dim, lam_dim = s.dim * s.dim, space.grassmann_dim
    report.check(
        "dimension product matches exterior algebra",
        float(abs(dim - lam_dim)),
        0.5,
        detail=f"{s.dim}·{s.dim} vs 2^{space.n}",
    )
    if dim != lam_dim:
        return report
    v, gammas = _identification(s), s.left_algebra._monomials[1 << np.arange(space.n)]
    report.check("identification bijective", float(_gram_defect(v) >= 1), 0.5)
    defect = _intertwining_defect(v, gammas, space)
    report.check("intertwines left Clifford actions", defect, tol)
    return report


def _identification(s) -> _Monomials:
    """Over the scalars S ⊗ S̄ is the plain tensor, and v sends e_i ⊗ e_k to
    the exterior coordinates of E_ik A, A = s.symmetry: row S of v, read as
    an s x s matrix, is V_S = conj(γ_S) Aᵀ / ‖γ_S‖², γ_S the left blade S."""
    b = s.left_algebra._monomials
    conj = _Monomials(b.dim, b.cols, b.vals.conj() / b.norms_sq[:, None])
    return conj.product(_Monomials.read([s.symmetry.T]))


def _gram_defect(v: _Monomials) -> float:
    """‖s v v† − I‖_∞, s = v.dim, of the stack v read as the rows of a matrix:
    below 1, s v v† is invertible.  ⟨v_T, v_S⟩ gathers, per entry v_S holds,
    the elements T holding it too, for 2^14 Gram entries at a time."""
    owners, values = map(np.stack, zip(*v._holders))  # (h, s²) each
    n, worst = len(v), 0.0
    for rows in np.array_split(np.arange(n), max(1, n * n >> 14)):
        at, size, local = v._at[rows], len(rows) * n, rows - rows[0]
        key = (owners[:, at] + n * local[:, None]).ravel()
        w = (values[:, at].conj() * v.vals[rows]).ravel()
        gram = np.bincount(key, w.real, size) + 1j * np.bincount(key, w.imag, size)
        gram = v.dim * gram.reshape(len(rows), n)
        gram[local, rows] -= 1
        worst = max(worst, np.abs(gram).sum(axis=1).max())
    return worst


def _intertwining_defect(v: _Monomials, gammas: _Monomials, space) -> float:
    """v (γ(c) ⊗ I) = c(c) v on the generators c = e_i, which decide it as
    both sides are homomorphisms in c: with (v X)_S = tr(V_Sᵀ X), row S of
    the difference L_i is γ_iᵀ V_S − σ[i, S xor i] V_{S xor i}.  The value is
    the largest Schur bound √(‖L_i‖₁ ‖L_i‖_∞) ≥ ‖L_i‖₂ over ‖v‖₂ = 1/√s and
    ‖γ_i‖₂ = 1, so it is scale-invariant."""
    gt = _Monomials(v.dim, gammas.cols, gammas.vals.conj()).adjoint()  # γ_iᵀ
    masks, worst = np.arange(len(v)), 0.0
    for i in range(space.n):
        lhs, flip = gt[[i]].product(v), masks ^ (1 << i)
        rhs, rhs_at = space._signs(1 << i, flip)[:, None] * v.vals[flip], v._at[flip]
        same = lhs._at == rhs_at  # else the two sides' entries count apart
        a = np.abs(np.where(same, lhs.vals - rhs, lhs.vals))
        b = np.abs(np.where(same, 0, rhs))
        cols = np.bincount(np.append(lhs._at, rhs_at), np.append(a, b), v.dim**2)
        worst = max(worst, np.sqrt(v.dim * (a + b).sum(axis=1).max() * cols.max()))
    return worst
