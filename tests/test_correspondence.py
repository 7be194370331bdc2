import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from kreinmod import correspondence, linalg
from kreinmod.algebra import (
    KreinCStarAlgebra,
    bounded_operators,
    check_krein_cstar_axioms,
)
from kreinmod.checker import CheckConfig, run
from kreinmod.clifford import PseudoEuclideanSpace
from kreinmod.correspondence import (
    CorrespondenceMorphism,
    DegenerateDescentError,
    FactoredTensor,
    TensorCorrespondence,
    associativity_iso,
    check_krein_star_hom,
    check_morphism,
    contragredient,
    double_contragredient_iso,
    even_odd_decomposition_check,
    identity_correspondence,
    internal_tensor,
    krein_space_correspondence,
    left_unit_iso,
    morita_krein_check,
    right_unit_iso,
    spinor_correspondence,
    spinor_factorization_check,
)
from kreinmod.krein_module import krein_space, random_symmetry
from kreinmod.krein_over_krein import (
    check_imprimitivity,
    check_module_over_krein,
    is_adjointable,
)
from kreinmod.linalg import (
    ValidationError,
    eig_signature,
    first_exceeding,
    numerical_rank,
    operator_norm,
    quotient_space,
    random_complex,
    spectral_projector,
)

EPS = np.finfo(float).eps


def m2_algebra():
    return bounded_operators(2, 0)


def mixed_basis_b11():
    """B(C^{1,1}) on the orthogonal basis 1, 2·diag(1, -1), E_12, 3·E_21,
    whose unequal norms make star's coefficient matrix non-symmetric."""
    b = bounded_operators(1, 1)
    mix = np.array([[1, 0, 0, 1], [2, 0, 0, -2], [0, 1, 0, 0], [0, 0, 3, 0]])
    return KreinCStarAlgebra(np.tensordot(mix, b.basis, axes=(1, 0)), b.eta)


def spinor_pair(p, q):
    s = spinor_correspondence(PseudoEuclideanSpace(p, q))
    return s, contragredient(s)


def assert_correspondence(corr, seed):
    """The module axioms, and every left basis element acts adjointably."""
    report = check_module_over_krein(corr, samples=100, seed=seed)
    assert report.passed, report.to_text()
    for a in corr.left_algebra.basis:
        assert is_adjointable(corr, corr.left_operator(a))


def assert_corrupted_map(kind, size, descends):
    # a perturbed action no longer commutes with the other side's action
    # and a perturbed symmetry no longer twists over alpha, so either
    # moves the balancing relations out of their span once the defect
    # passes 1e-8; the right action comes from the second factor
    m = identity_correspondence(bounded_operators(1, 1))
    noise = size * random_complex(np.random.default_rng(15), m.dim, m.dim)
    if kind == "symmetry":
        bad, index = dataclasses.replace(m, symmetry=m.symmetry + noise), 0
    else:
        field = {"right action": "action", "left action": "left_action"}[kind]
        maps = getattr(m, field).copy()
        maps[2] += noise
        bad, index = dataclasses.replace(m, **{field: maps}), 2
    pair = (m, bad) if kind == "right action" else (bad, m)
    if descends:
        assert internal_tensor(*pair).dim == m.dim
        return
    with pytest.raises(ValidationError, match=f"{kind} does not descend") as err:
        internal_tensor(*pair)
    assert str(err.value).endswith(f"(map {index})")


class TestCorrespondenceAxioms:
    def test_identity_correspondence_b11(self):
        assert_correspondence(identity_correspondence(bounded_operators(1, 1)), 0)

    def test_krein_space_correspondence(self):
        assert_correspondence(krein_space_correspondence(1, 1), 1)

    def test_spinor_correspondence(self):
        assert_correspondence(spinor_correspondence(PseudoEuclideanSpace(1, 1)), 2)


class TestStarHomChecker:
    def test_identity_map_passes(self):
        A = bounded_operators(1, 1)
        report = check_krein_star_hom(lambda a: a, A, A, samples=100, seed=3)
        assert report.passed, report.to_text()

    def test_krein_unitary_conjugation_passes(self):
        # u = exp(k) with k skew for the twisted involution and even, so
        # conjugating alpha by u gives back alpha
        A = bounded_operators(1, 1)
        rng = np.random.default_rng(4)
        k = A.random_element(rng)
        k = (k - A.star(k)) / 2
        k = (k + A.alpha(k)) / 2
        u = scipy.linalg.expm(k)
        uinv = np.linalg.inv(u)
        report = check_krein_star_hom(
            lambda a: u @ a @ uinv, A, A, samples=100, seed=5
        )
        assert report.passed, report.to_text()

    def test_broken_intertwining_fails_exactly_that_clause(self):
        A = bounded_operators(1, 1)
        report = check_krein_star_hom(
            lambda a: a, A, A, beta=lambda b: b, samples=100, seed=6
        )
        failed = {r.name for r in report.failures()}
        assert failed == {"intertwines alpha and beta"}


    @pytest.mark.parametrize("scale", [3.0, 1e-3])
    def test_values_do_not_scale_with_the_basis(self, scale):
        # each law is divided by the norms of its basis factors
        b = bounded_operators(1, 1)
        scaled = KreinCStarAlgebra(scale * b.basis, b.eta)
        s, s_inv = np.diag([2.0, 1.0]), np.diag([0.5, 1.0])
        for phi in (lambda a: np.swapaxes(a, -1, -2), lambda a: s @ a @ s_inv):
            values = [
                [r.max_violation for r in check_krein_star_hom(phi, alg, alg).records]
                for alg in (b, scaled)
            ]
            assert max(values[0]) >= 1.0
            assert values[1] == pytest.approx(values[0], rel=1e-12)


def test_morphism_and_hom_suites_draw_nothing(monkeypatch):
    # every law of the three suites is decided on bases or generators: no
    # draw, at any count; the module draws only through linalg
    def refuse(*args, **kw):
        raise AssertionError("a decided suite drew samples")

    monkeypatch.setattr(linalg, "gaussians", refuse)
    b11 = bounded_operators(1, 1)
    for samples in (1, 100):
        iso = right_unit_iso(identity_correspondence(b11))
        assert check_morphism(iso, samples=samples).passed
        assert check_krein_star_hom(lambda a: a, b11, b11, samples=samples).passed
        space = PseudoEuclideanSpace(1, 3)
        assert spinor_factorization_check(space, samples=samples).passed


# tensors over the scalars, of spinors with their contragredients and of
# Kreĭn spaces
OVER_SCALARS = {
    "spinor11": lambda: spinor_pair(1, 1),
    "spinor13": lambda: spinor_pair(1, 3),
    "spinor22": lambda: spinor_pair(2, 2),
    "spinor33": lambda: spinor_pair(3, 3),
    "c21": lambda: (krein_space_correspondence(2, 1),) * 2,
    "c11-c02": lambda: (
        krein_space_correspondence(1, 1), krein_space_correspondence(0, 2)
    ),
}


class TestInternalTensor:
    def test_m2_self_tensor_dimension(self):
        ident = identity_correspondence(m2_algebra())
        t = internal_tensor(ident, ident)
        assert t.dim == 4

    def test_section_rotation_moves_only_a_proper_section(self):
        # over the scalars there are no relations and the section is I
        mpq = krein_space_correspondence(2, 1)
        assert np.array_equal(internal_tensor(mpq, mpq).section, np.eye(mpq.dim**2))
        ident = identity_correspondence(m2_algebra())
        plain = internal_tensor(ident, ident).section
        rotated = internal_tensor(
            ident, ident, section_rotation=np.random.default_rng(3)
        ).section
        assert plain.shape == rotated.shape == (16, 4)
        assert not np.allclose(plain, rotated)

    def test_m2_self_tensor_is_correspondence(self):
        ident = identity_correspondence(m2_algebra())
        assert_correspondence(internal_tensor(ident, ident), 7)

    def test_scalar_tensor_preserves_dimension(self):
        m = krein_space_correspondence(2, 1)
        ident = identity_correspondence(m.algebra)
        t = internal_tensor(m, ident)
        assert t.dim == 3

    def test_krein_sign_bookkeeping(self):
        # C^{1,1} (x) C^{1,1} over the scalars: 4-dim, symmetry signature (2,2)
        m = krein_space_correspondence(1, 1)
        t = internal_tensor(m, m)
        assert t.dim == 4
        j = t.symmetry
        assert operator_norm(j - j.conj().T) < 1e-10
        assert eig_signature(j) == (2, 2)

    def test_elementary_inner_formula(self):
        m = identity_correspondence(m2_algebra())
        t = internal_tensor(m, m)
        rng = np.random.default_rng(8)
        projector = t.section.conj().T
        for _ in range(20):
            x1, y1 = m.random_element(rng), m.random_element(rng)
            x2, y2 = m.random_element(rng), m.random_element(rng)
            u1, u2 = projector @ np.kron(x1, y1), projector @ np.kron(x2, y2)
            lhs = t.pairing(u1, u2)
            rhs = m.pairing(y1, m.act_left(m.pairing(x1, x2), y2))
            assert operator_norm(lhs - rhs) < 1e-9

    def test_section_independence(self):
        m = krein_space_correspondence(1, 1)
        t1 = internal_tensor(m, m)
        t2 = internal_tensor(m, m, section_rotation=np.random.default_rng(9))
        # change of basis from t2 coordinates to t1 coordinates
        c = t1.section.conj().T @ t2.section
        moved = np.einsum("au,bv,abcd->uvcd", c.conj(), c, t1.inner)
        assert np.linalg.norm(moved - t2.inner) < 1e-9

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2)])
    def test_descended_inner_matches_loops(self, p, q):
        m = spinor_correspondence(PseudoEuclideanSpace(p, q))
        n = contragredient(m)
        t = internal_tensor(m, n)
        # <x1 (x) y1, x2 (x) y2> = <y1, <x1, x2> y2>, then through the section
        eye_m, eye_n = np.eye(m.dim), np.eye(n.dim)
        plain = [(i, k) for i in range(m.dim) for k in range(n.dim)]
        ip = [
            [
                n.pairing(eye_n[k], n.act_left(m.pairing(eye_m[i], eye_m[j]), eye_n[l]))
                for j, l in plain
            ]
            for i, k in plain
        ]
        ref = np.zeros_like(t.inner)
        for u in range(t.dim):
            for v in range(t.dim):
                for a in range(len(plain)):
                    for b in range(len(plain)):
                        ref[u, v] += t.section[a, u].conj() * t.section[b, v] * ip[a][b]
        assert np.linalg.norm(t.inner - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: spinor_pair(1, 1),
            lambda: spinor_pair(2, 2),
            lambda: (identity_correspondence(bounded_operators(1, 1)),) * 2,
            lambda: (krein_space_correspondence(2, 1),) * 2,
        ],
        ids=["spinor11", "spinor22", "id-b11", "c21"],
    )
    def test_descended_inner_matches_per_pair_reference(self, make):
        m, n = make()
        t = internal_tensor(m, n)
        # the plain inner tensor, one pair (i, j) of m's basis vectors at a time
        dm, dn, dc = m.dim, n.dim, n.algebra.dim
        ip = np.zeros((dm * dn, dm * dn, dc, dc), dtype=complex)
        for i in range(dm):
            for j in range(dm):
                lmat = n.left_operator(m.inner[i, j])
                ip[i * dn : (i + 1) * dn, j * dn : (j + 1) * dn] = np.einsum(
                    "ml,kmab->klab", lmat, n.inner
                )
        ref = np.einsum(
            "au,bv,abcd->uvcd", t.section.conj(), t.section, ip, optimize=True
        )
        assert np.array_equal(t.inner, ref)

    @pytest.mark.parametrize("make", OVER_SCALARS.values(), ids=OVER_SCALARS)
    def test_tensor_over_scalars_is_the_plain_tensor(self, make):
        # every balancing relation is zero, so the section is I and each
        # structure, built on first read, is its dense Kronecker or einsum
        # formula
        m, n = make()
        t = internal_tensor(m, n)
        assert isinstance(t, FactoredTensor) and t.factors == (m, n)
        eye_m, eye_n = np.eye(m.dim), np.eye(n.dim)
        lmats = np.tensordot(
            n.left_algebra.coefficients(m.inner), n.left_action, axes=(2, 0)
        )
        inner = np.einsum("ijml,kmab->ikjlab", lmats, n.inner)
        assert np.array_equal(t.section, np.eye(m.dim * n.dim))
        assert np.array_equal(t.action, np.kron(eye_m, n.action))
        assert np.array_equal(t.left_action, np.kron(m.left_action, eye_n))
        assert np.array_equal(t.symmetry, np.kron(m.symmetry, n.symmetry))
        assert np.array_equal(t.inner, inner.reshape(t.inner.shape))

    @pytest.mark.parametrize(
        "size, descends", [(1e-3, False), (1e-7, False), (1e-10, True)]
    )
    def test_one_corrupted_left_action(self, size, descends):
        assert_corrupted_map("left action", size, descends)

    @pytest.mark.parametrize(
        "size, descends", [(1e-3, False), (1e-7, False), (1e-10, True)]
    )
    def test_one_corrupted_right_action(self, size, descends):
        assert_corrupted_map("right action", size, descends)

    @pytest.mark.parametrize(
        "size, descends", [(1e-3, False), (1e-7, False), (1e-10, True)]
    )
    def test_corrupted_symmetry(self, size, descends):
        assert_corrupted_map("symmetry", size, descends)

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize(
        "size, descends", [(1e-3, False), (1e-7, False), (1e-10, True)]
    )
    def test_corrupted_inner_product(self, side, size, descends):
        # the actions still descend, but a perturbed inner product no longer
        # vanishes on the balancing relations once the defect passes 1e-8
        m = identity_correspondence(bounded_operators(1, 1))
        noise = size * random_complex(np.random.default_rng(16), *m.inner.shape)
        bad = dataclasses.replace(m, inner=m.inner + noise)
        pair = (bad, m) if side == "first" else (m, bad)
        if descends:
            assert internal_tensor(*pair).dim == m.dim
            return
        with pytest.raises(
            ValidationError, match="inner product does not descend to the quotient"
        ):
            internal_tensor(*pair)

    def test_middle_mismatch_rejected(self):
        m = krein_space_correspondence(1, 1)
        ident = identity_correspondence(m2_algebra())
        with pytest.raises(ValidationError):
            internal_tensor(m, ident)

    def test_middle_basis_off_by_a_relative_1e_6_rejected(self):
        ident = identity_correspondence(bounded_operators(1, 1))
        left = ident.left_algebra
        scaled = KreinCStarAlgebra(left.basis * (1 + 1e-6), left.eta)
        n = dataclasses.replace(ident, left_algebra=scaled)
        with pytest.raises(ValidationError, match="middle algebras do not match"):
            internal_tensor(ident, n)

    def test_decomposition_even_odd(self):
        m = krein_space_correspondence(1, 1)
        t = internal_tensor(m, m)
        report = even_odd_decomposition_check(t, m, m)
        assert report.passed, report.to_text()

    def test_decomposition_m2(self):
        ident = identity_correspondence(bounded_operators(1, 1))
        t = internal_tensor(ident, ident)
        report = even_odd_decomposition_check(t, ident, ident)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("p, q", [(2, 0), (0, 2)])
    def test_decomposition_definite(self, p, q):
        # one half of each factor is zero, so is the odd part: two empty
        # spaces match
        m = krein_space_correspondence(p, q)
        report = even_odd_decomposition_check(internal_tensor(m, m), m, m)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (krein_space_correspondence(1, 1),) * 2,
            lambda: (identity_correspondence(bounded_operators(1, 1)),) * 2,
        ],
        ids=["c11", "id-b11"],
    )
    def test_decomposition_wrong_symmetry_fails(self, make):
        m, n = make()
        t = internal_tensor(m, n)
        # -J swaps the halves; flipping one eigen-direction of the (hermitian)
        # descended J moves one vector from the even to the odd half
        v = np.linalg.eigh(t.symmetry)[1][:, :1]
        for symmetry in (-t.symmetry, t.symmetry - 2 * t.symmetry @ v @ v.conj().T):
            bad = dataclasses.replace(t, symmetry=symmetry)
            report = even_odd_decomposition_check(bad, m, n)
            assert np.allclose([r.max_violation for r in report.records], 1.0)

    @staticmethod
    def matched_halves(j, k, sign):
        """P₊⊗Q_sign + P₋⊗Q₋sign from the four halves of j and k."""
        p = {s: spectral_projector(j, s) for s in (+1, -1)}
        q = {s: spectral_projector(k, s) for s in (+1, -1)}
        return np.kron(p[+1], q[sign]) + np.kron(p[-1], q[-sign])

    @pytest.mark.parametrize(
        "pq, rs", [((2, 1), (1, 2)), ((2, 2), (1, 1)), ((3, 2), (0, 2))]
    )
    def test_matched_halves_are_the_kronecker_eigenspaces(self, pq, rs):
        # (1 + sign·J⊗K)/2, the projector the even/odd check reads
        rng = np.random.default_rng(21)
        js, ks = (random_symmetry(krein_space(*s), rng, 4).matrix for s in (pq, rs))
        for j, k in zip(js, ks):
            jk = np.kron(j, k)
            for sign in (+1, -1):
                defect = spectral_projector(jk, sign) - self.matched_halves(j, k, sign)
                assert operator_norm(defect) <= 4 * EPS * operator_norm(jk)

    @pytest.mark.parametrize(
        "pq, rs", [((2, 1), (1, 2)), ((1, 1), (0, 2)), ((3, 0), (2, 2))]
    )
    def test_matched_halves_exact_on_diagonal_symmetries(self, pq, rs):
        j, k = (krein_space_correspondence(*s).symmetry for s in (pq, rs))
        for sign in (+1, -1):
            got = spectral_projector(np.kron(j, k), sign)
            assert np.array_equal(got, self.matched_halves(j, k, sign))


def assert_rounding(got, ref):
    """got equals ref to rounding, relative to the largest entry of ref."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 64 * EPS * np.max(np.abs(ref))


class TestFactoredTensor:
    """Tensors over the scalars keep their factors: the maps act on carrier
    vectors through them, and no dense field is built until it is read."""

    @pytest.mark.parametrize("make", OVER_SCALARS.values(), ids=OVER_SCALARS)
    def test_maps_match_the_dense_products(self, make):
        m, n = make()
        t = internal_tensor(m, n)
        assert {"action", "left_action", "inner", "section"}.isdisjoint(vars(t))
        rng = np.random.default_rng(22)
        left, right = t.left_algebra, t.algebra
        for k in (None, 3):  # one element and a stack
            shape = () if k is None else (k,)
            a = left.from_normals(random_complex(rng, *shape, left.vector_dim))
            b = right.from_normals(random_complex(rng, *shape, right.vector_dim))
            x = random_complex(rng, *shape, t.dim)
            dense_left = np.tensordot(left.coefficients(a), t.left_action, axes=(-1, 0))
            dense_right = np.tensordot(right.coefficients(b), t.action, axes=(-1, 0))
            assert_rounding(t.left_operator(a), dense_left)
            assert_rounding(t.right_operator(b), dense_right)
            assert_rounding(t.act_left(a, x), linalg.matvec(dense_left, x))
            assert_rounding(t.act(x, b), linalg.matvec(dense_right, x))

    def test_replace_gives_the_dense_tensor(self):
        m, n = spinor_pair(1, 1)
        t = internal_tensor(m, n)
        bad = dataclasses.replace(t, symmetry=-t.symmetry)
        assert type(bad) is TensorCorrespondence
        assert np.array_equal(bad.symmetry, -t.symmetry)
        for name in ("action", "left_action", "inner", "section"):
            assert np.array_equal(getattr(bad, name), getattr(t, name))

    @pytest.mark.parametrize(
        "corrupt, side, error",
        [
            ("inner degenerate", 0, DegenerateDescentError),
            ("inner degenerate", 1, DegenerateDescentError),
            ("left action bumped", 1, ValidationError),
            ("right action bumped", 0, ValidationError),
            ("middle algebra scaled", 1, ValidationError),
        ],
    )
    @pytest.mark.parametrize("make", ["spinor22", "c21"])
    def test_corrupted_factor_is_refused(self, make, corrupt, side, error):
        # a bumped scalar action makes the relations nonzero, and the dense
        # path refuses a map or the inner product
        def corrupted(c):
            if corrupt == "inner degenerate":
                inner = c.inner.copy()
                inner[-1], inner[:, -1] = 0, 0
                return dataclasses.replace(c, inner=inner)
            if corrupt == "middle algebra scaled":
                alg = c.left_algebra
                scaled = KreinCStarAlgebra(2 * alg.basis, alg.eta)
                return dataclasses.replace(c, left_algebra=scaled)
            field = "left_action" if corrupt == "left action bumped" else "action"
            maps = getattr(c, field).copy()
            maps[0, 0, 0] += 1e-3
            return dataclasses.replace(c, **{field: maps})

        pair = list(OVER_SCALARS[make]())
        pair[side] = corrupted(pair[side])
        with pytest.raises(error):
            internal_tensor(*pair)

    def test_nonzero_relations_take_the_dense_path(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return quotient_space(*args)

        monkeypatch.setattr(correspondence, "quotient_space", counted)
        ident = identity_correspondence(bounded_operators(1, 1))
        t = internal_tensor(ident, ident)
        assert type(t) is TensorCorrespondence and t.section.shape == (16, 4)
        assert calls == [16]
        assert isinstance(internal_tensor(*spinor_pair(2, 2)), FactoredTensor)
        assert calls == [16]

    # S ⊗ S̄ built as a tensor: its one-element-basis nondegeneracy test
    # reads the factors' singular values, not the plain inner product
    @pytest.mark.parametrize("name", ["action", "left_action", "inner", "section"])
    def test_factorization_reads_no_dense_field(self, monkeypatch, name):
        def unreachable(self):
            raise AssertionError(f"{name} read")

        monkeypatch.setattr(FactoredTensor, name, property(unreachable))
        assert internal_tensor(*spinor_pair(2, 2)).dim == 16

    def test_spinor_44_holds_no_plain_cubed_stack(self):
        # S ⊗ S̄ at (4,4) has plain = N = 256; one (N, N, N) complex stack is
        # 256 MiB, and the dense tensor held three
        plain = 256
        tracemalloc.start()
        try:
            t = internal_tensor(*spinor_pair(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.dim == plain
        assert peak < 16 * plain**3 / 8


def balancing_relations(m, n):
    """The rows e_i·b_k ⊗ e_l − e_i ⊗ b_k·e_l, one (i, k, l) at a time."""
    e_m, e_n = np.eye(m.dim), np.eye(n.dim)
    rows = [
        np.kron(m.action[k] @ e_m[i], e_n[l])
        - np.kron(e_m[i], n.left_action[k] @ e_n[l])
        for i in range(m.dim)
        for k in range(len(m.action))
        for l in range(n.dim)
    ]
    return np.array(rows)


def descent_residuals(m, n, maps):
    """P·T·(I − S·P) with the kernel projector, and P·T·R with the span."""
    section, span = quotient_space(m.dim * n.dim, balancing_relations(m, n))
    projector = section.conj().T
    kernel = np.eye(len(section)) - section @ projector
    pt = projector @ maps
    return pt @ kernel, pt @ span, section, span


class TestDescentReference:
    """The span form of the descent test against the kernel-projector form."""

    def assert_same_norms(self, old, new, maps):
        for o, r, t in zip(old, new, maps):
            gap = abs(np.linalg.norm(o, 2) - np.linalg.norm(r, 2))
            assert gap <= 1e-12 * np.linalg.norm(t, 2)

    def test_random_maps(self):
        # id(B(C^{1,1})) ⊗ id(B(C^{1,1})): 16 plain, 4 quotient, span rank 12
        m = identity_correspondence(bounded_operators(1, 1))
        rng = np.random.default_rng(17)
        maps = random_complex(rng, 6, 16, 16)
        old, new, section, span = descent_residuals(m, m, maps)
        assert span.shape == (16, 12)
        self.assert_same_norms(old, new, maps)

        # maps that keep the span, then one moved out of it by 1e-3
        keep = (
            section @ random_complex(rng, 5, 4, 4) @ section.conj().T
            + span @ random_complex(rng, 5, 12, 16)
        )
        keep[3] += 1e-3 * section @ random_complex(rng, 4, 12) @ span.conj().T
        old, new, _, _ = descent_residuals(m, m, keep)
        self.assert_same_norms(old, new, keep)
        assert first_exceeding(old, keep, 1e-8) == first_exceeding(new, keep, 1e-8) == 3
        assert first_exceeding(old[:3], keep[:3], 1e-8) == -1
        assert first_exceeding(new[:3], keep[:3], 1e-8) == -1

    def test_spinor_rank_zero_span(self):
        # S ⊗ S̄ over the scalars at (1,1): every balancing relation is zero
        m, n = spinor_pair(1, 1)
        eye_m, eye_n = np.eye(m.dim), np.eye(n.dim)
        maps = np.concatenate(
            [
                np.kron(eye_m, n.action),
                np.kron(m.left_action, eye_n),
                np.kron(m.symmetry, n.symmetry)[None],
            ]
        )
        old, new, _, span = descent_residuals(m, n, maps)
        assert span.shape == (4, 0)
        self.assert_same_norms(old, new, maps)
        assert first_exceeding(old, maps, 1e-8) == first_exceeding(new, maps, 1e-8) == -1


class TestUnitLaws:
    def test_right_unit_m2(self):
        iso = right_unit_iso(identity_correspondence(m2_algebra()))
        report = check_morphism(iso, samples=100, seed=10)
        assert report.passed, report.to_text()

    def test_left_unit_m2(self):
        iso = left_unit_iso(identity_correspondence(m2_algebra()))
        report = check_morphism(iso, samples=100, seed=11)
        assert report.passed, report.to_text()

    def test_right_unit_spinor(self):
        iso = right_unit_iso(spinor_correspondence(PseudoEuclideanSpace(1, 1)))
        report = check_morphism(iso, samples=100, seed=12)
        assert report.passed, report.to_text()

    def test_left_unit_krein_space(self):
        iso = left_unit_iso(krein_space_correspondence(2, 1))
        report = check_morphism(iso, samples=100, seed=13)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_correspondence(m2_algebra()),
            lambda: krein_space_correspondence(2, 1),
        ],
        ids=["id-m2", "c21"],
    )
    def test_isos_match_per_column_reference(self, make):
        m = make()
        eye_m = np.eye(m.dim, dtype=complex)
        right = right_unit_iso(m)
        cols = np.stack([m.act(x, b) for x in eye_m for b in m.algebra.basis], axis=1)
        assert np.array_equal(right.matrix, cols @ right.source.section)
        left = left_unit_iso(m)
        cols = np.stack(
            [m.act_left(a, x) for a in m.left_algebra.basis for x in eye_m], axis=1
        )
        assert np.array_equal(left.matrix, cols @ left.source.section)


    def test_morphism_between_two_bases_of_one_algebra(self):
        # id(B(C^{1,1})) in the coefficients of the matrix units, sent to the
        # coefficients of another basis: each side's actions are read through
        # its own basis, so nothing assumes the bases are the same
        plain, mixed = bounded_operators(1, 1), mixed_basis_b11()
        change = mixed.coefficients(plain.basis).T
        iso = CorrespondenceMorphism(
            identity_correspondence(plain), identity_correspondence(mixed), change
        )
        report = check_morphism(iso)
        assert report.passed, report.to_text()


class TestAssociativity:
    def test_identity_chain(self):
        ident = identity_correspondence(bounded_operators(1, 1))
        iso, lhs, rhs = associativity_iso(ident, ident, ident)
        report = check_morphism(iso, samples=100, seed=14)
        assert report.passed, report.to_text()

    def test_m2_chain(self):
        ident = identity_correspondence(m2_algebra())
        iso, lhs, rhs = associativity_iso(ident, ident, ident)
        assert lhs.dim == 4 and rhs.dim == 4
        report = check_morphism(iso, samples=100, seed=15)
        assert report.passed, report.to_text()

    def test_mixed_signature_scalar_chain(self):
        m = krein_space_correspondence(1, 1)
        n = krein_space_correspondence(1, 0)
        p = krein_space_correspondence(0, 1)
        iso, lhs, rhs = associativity_iso(m, n, p)
        assert lhs.dim == 2 and rhs.dim == 2
        report = check_morphism(iso, samples=100, seed=16)
        assert report.passed, report.to_text()


class TestContragredient:
    def test_identity_contragredient_axioms(self):
        cbar = contragredient(identity_correspondence(bounded_operators(1, 1)))
        assert_correspondence(cbar, 17)

    def test_inner_values_transported(self):
        m = identity_correspondence(bounded_operators(1, 1))
        mbar = contragredient(m)
        rng = np.random.default_rng(18)
        x, y = m.random_element(rng), m.random_element(rng)
        # the conjugate-linear identification x -> conj(x)
        assert operator_norm(
            mbar.pairing(x.conj(), y.conj()) - m.pairing_left(x, y)
        ) < 1e-10
        assert operator_norm(
            mbar.pairing_left(x.conj(), y.conj()) - m.pairing(x, y)
        ) < 1e-10

    def test_action_transport(self):
        m = spinor_correspondence(PseudoEuclideanSpace(1, 1))
        mbar = contragredient(m)
        rng = np.random.default_rng(19)
        x = m.random_element(rng)
        a = m.left_algebra.random_element(rng)
        # x-bar . a = conj(star(a) . x)
        lhs = mbar.act(x.conj(), a)
        rhs = m.act_left(m.left_algebra.star(a), x).conj()
        assert np.linalg.norm(lhs - rhs) < 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: spinor_correspondence(PseudoEuclideanSpace(1, 1)),
            lambda: spinor_correspondence(PseudoEuclideanSpace(2, 2)),
            lambda: identity_correspondence(bounded_operators(1, 1)),
            lambda: identity_correspondence(mixed_basis_b11()),
        ],
        ids=["spinor11", "spinor22", "id-b11", "id-b11-mixed"],
    )
    def test_actions_match_per_element_reference(self, make):
        # on the first three bases star permutes the basis elements up to
        # sign, so only the mixed basis, where star(E_12) = -E_21 is a third
        # of a basis element, tells a coefficient matrix from its transpose
        m = make()
        mbar = contragredient(m)
        la, ra = m.left_algebra, m.algebra
        right = np.stack([m.left_operator(la.star(a)).conj() for a in la.basis])
        left = np.stack([m.right_operator(ra.star(b)).conj() for b in ra.basis])
        for got, want in ((mbar.action, right), (mbar.left_action, left)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: spinor_correspondence(PseudoEuclideanSpace(1, 3)),
            lambda: identity_correspondence(bounded_operators(1, 1)),
            lambda: krein_space_correspondence(2, 1),
        ],
        ids=["spinor13", "id-b11", "c21"],
    )
    def test_actions_equal_coefficient_formulas(self, make):
        # the actions through the operator maps are, to the bit, the star
        # coefficient matrices contracted with the other side's action tensor
        m = make()
        mbar = contragredient(m)
        star_l, star_r = (
            a.coefficients(a.star(a.basis)) for a in (m.left_algebra, m.algebra)
        )
        right = np.tensordot(star_l, m.left_action, axes=(1, 0)).conj()
        left = np.tensordot(star_r, m.action, axes=(1, 0)).conj()
        assert np.array_equal(mbar.action, right)
        assert np.array_equal(mbar.left_action, left)

    def test_spinor_contragredient_reads_no_gamma_coordinates(self, monkeypatch):
        # the star of a gamma blade is a signed blade, and the spinor module's
        # left operator of a matrix is that matrix: no N x N coordinates
        m = spinor_correspondence(PseudoEuclideanSpace(3, 3))
        gamma, calls = m.left_algebra, []
        coefficients = gamma.coefficients
        monkeypatch.setattr(
            gamma, "coefficients", lambda a: calls.append(np.shape(a)) or coefficients(a)
        )
        mbar = contragredient(m)
        assert calls == []
        star = coefficients(gamma.star(gamma.basis))
        right = np.tensordot(star, m.left_action, axes=(1, 0)).conj()
        assert np.array_equal(mbar.action, right)

    def test_double_contragredient_is_identity(self):
        for corr in (
            identity_correspondence(bounded_operators(1, 1)),
            spinor_correspondence(PseudoEuclideanSpace(1, 1)),
        ):
            iso = double_contragredient_iso(corr)
            report = check_morphism(iso, samples=100, seed=20)
            assert report.passed, report.to_text()
            back = iso.target
            assert np.linalg.norm(back.action - corr.action) < 1e-12
            assert np.linalg.norm(back.symmetry - corr.symmetry) < 1e-12


class TestMoritaKrein:
    def test_self_module_certified(self):
        report = morita_krein_check(
            identity_correspondence(bounded_operators(1, 1)), samples=100, seed=21
        )
        assert report.passed, report.to_text()

    def test_spinor_bimodule_certified_11(self):
        report = morita_krein_check(
            spinor_correspondence(PseudoEuclideanSpace(1, 1)), samples=100, seed=22
        )
        assert report.passed, report.to_text()

    def test_spinor_bimodule_certified_22(self):
        report = morita_krein_check(
            spinor_correspondence(PseudoEuclideanSpace(2, 2)), samples=60, seed=23
        )
        assert report.passed, report.to_text()

    def test_non_full_sub_bimodule_fails_fullness(self):
        # view the spinor bimodule over the direct sum of two copies of its
        # left algebra, acting through the first summand only: the left
        # products land in one block and cannot be full
        from kreinmod.algebra import FiniteCStarAlgebra, KreinCStarAlgebra

        m = spinor_correspondence(PseudoEuclideanSpace(1, 1))
        d = m.dim
        a_form = m.symmetry
        doubled = KreinCStarAlgebra(
            FiniteCStarAlgebra((d, d)).basis(),
            scipy.linalg.block_diag(a_form, a_form),
        )
        left_action = np.stack([u[:d, :d] for u in doubled.basis])
        left_inner = np.zeros((d, d, 2 * d, 2 * d), dtype=complex)
        left_inner[:, :, :d, :d] = m.left_inner
        sub = TensorCorrespondence(
            algebra=m.algebra,
            dim=d,
            action=m.action,
            inner=m.inner,
            symmetry=m.symmetry,
            left_algebra=doubled,
            left_action=left_action,
            left_inner=left_inner,
        )
        report = morita_krein_check(sub, samples=100, seed=24)
        failed = {r.name for r in report.failures()}
        assert "left products full" in failed
        assert "linking identity" not in failed

    @pytest.mark.parametrize(
        "field, record",
        [("inner", "inner non-degenerate"), ("left_inner", "left products full")],
    )
    def test_degenerate_pairing_fails_certification(self, field, record):
        # S ⊗ S̄ has inner product ⟨x, x′⟩ ⊗ (S's left inner): a degenerate
        # pairing of S makes the tensor degenerate and fails the record that
        # the spinor factorization relies on in its place
        s = spinor_correspondence(PseudoEuclideanSpace(2, 2))
        pairing = getattr(s, field).copy()
        pairing[-1], pairing[:, -1] = 0, 0
        bad = dataclasses.replace(s, **{field: pairing})
        with pytest.raises(DegenerateDescentError):
            internal_tensor(bad, contragredient(bad))
        failed = {r.name for r in morita_krein_check(bad, samples=3).failures()}
        assert record in failed


class TestSpinorFactorization:
    def test_signature_11(self):
        report = spinor_factorization_check(PseudoEuclideanSpace(1, 1), seed=25)
        assert report.passed, report.to_text()

    def test_signature_22(self):
        report = spinor_factorization_check(PseudoEuclideanSpace(2, 2), seed=26)
        assert report.passed, report.to_text()

    def test_dimension_identity(self):
        report = spinor_factorization_check(PseudoEuclideanSpace(1, 1), seed=27)
        rec = {r.name: r for r in report.records}
        assert rec["dimension product matches exterior algebra"].max_violation == 0.0

    def test_builds_no_tensor_and_no_contragredient(self, monkeypatch):
        # over the scalars S ⊗ S̄ is the plain tensor: only its dimension is read
        def unreachable(*args, **kw):
            raise AssertionError("S ⊗ S̄ built")

        monkeypatch.setattr(correspondence, "internal_tensor", unreachable)
        monkeypatch.setattr(correspondence, "contragredient", unreachable)
        assert run(CheckConfig(scenario="spinor", p=2, q=2, samples=3)).passed
        assert spinor_factorization_check(PseudoEuclideanSpace(2, 2)).passed


class TestDegenerateDescent:
    def test_degenerate_inner_reported(self):
        # a correspondence with a rank-deficient plain inner product leads
        # to a degenerate descent when tensored against the identity
        m = krein_space_correspondence(1, 1)
        bad_inner = m.inner.copy()
        bad_inner[1, 1] = 0.0  # kill one diagonal entry: degenerate pairing
        bad = TensorCorrespondence(
            algebra=m.algebra,
            dim=m.dim,
            action=m.action,
            inner=bad_inner,
            symmetry=np.eye(2, dtype=complex),
            left_algebra=m.left_algebra,
            left_action=m.left_action,
            left_inner=None,
        )
        ident = identity_correspondence(m.algebra)
        with pytest.raises(DegenerateDescentError):
            internal_tensor(bad, ident)


def planted(rng, spectrum, cols):
    """A len(spectrum) x cols matrix with the given singular values."""
    rows = len(spectrum)
    u = np.linalg.qr(random_complex(rng, rows, rows))[0]
    v = np.linalg.qr(random_complex(rng, cols, rows))[0]
    return (u * spectrum) @ v.conj().T


@pytest.mark.parametrize(
    "sa, sb, nondegenerate",
    [
        ([1, 1e-3], [1, 1e-4], True),
        ([2, 2e-4], [3, 6e-4], True),  # smallest product 2e-8 of the largest
        ([2, 2e-4], [3, 1.5e-4], False),  # 5e-9 of the largest
        ([1, 1e-5], [1, 1e-5], False),  # both factors have full rank
        ([1, 1e-9], [1, 1], False),  # a rank-deficient factor, either side
        ([1, 1], [1, 0], False),
    ],
)
def test_factor_spectra_decide_nondegeneracy_as_the_dense_rank(sa, sb, nondegenerate):
    # C^2 with inner a over the scalars, tensored with S̄ at (1,1) with inner
    # B: the plain inner product a ⊗ B is 4 x 4·dc², with the products of
    # the factors' singular values; rank(a)·rank(B) would read 4 for the
    # full-rank factors whose product falls below the cut
    rng = np.random.default_rng(18)
    _, sbar = spinor_pair(1, 1)
    dn, dc = sbar.dim, sbar.algebra.dim
    a, b = planted(rng, sa, 2), planted(rng, sb, dn * dc * dc)
    m = dataclasses.replace(
        krein_space_correspondence(2, 0), inner=a[:, :, None, None]
    )
    n = dataclasses.replace(sbar, inner=b.reshape(sbar.inner.shape))
    assert (numerical_rank(np.kron(a, b)) == 4) == nondegenerate
    if nondegenerate:
        t = internal_tensor(m, n)
        assert numerical_rank(t.inner.reshape(t.dim, -1)) == t.dim
    else:
        with pytest.raises(DegenerateDescentError):
            internal_tensor(m, n)


B11 = bounded_operators(1, 1)
SAMPLED_SUITES = {
    "krein cstar axioms": lambda n: check_krein_cstar_axioms(B11, samples=n),
    "module over krein": lambda n: check_module_over_krein(
        identity_correspondence(B11), samples=n
    ),
    "imprimitivity": lambda n: check_imprimitivity(
        identity_correspondence(B11), samples=n
    ),
    "morphism": lambda n: check_morphism(
        right_unit_iso(identity_correspondence(B11)), samples=n
    ),
    # the corruption of the tensor scenario's negative control
    "krein star hom": lambda n: check_krein_star_hom(
        lambda a: a, B11, B11, beta=lambda b: b, samples=n
    ),
    "spinor factorization": lambda n: spinor_factorization_check(
        PseudoEuclideanSpace(1, 1), samples=n
    ),
    "morita krein": lambda n: morita_krein_check(
        identity_correspondence(B11), samples=n
    ),
}


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_suites_refuse_fewer_than_one_sample(suite, samples):
    # with no samples every sampled law would record a vacuous 0.0 pass
    with pytest.raises(ValidationError, match="samples must be at least 1"):
        SAMPLED_SUITES[suite](samples)
