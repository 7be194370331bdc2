import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinmod.clifford as clifford_module
from kreinmod.algebra import check_krein_cstar_axioms
from kreinmod.clifford import (
    MultiVector,
    PseudoEuclideanSpace,
    _gram_diagonal,
    _left_matrix,
    _spinor_blades,
    anticommutator_residual,
    basis_blade,
    clifford_action,
    clifford_generator_matrix,
    clifford_krein_algebra,
    cocycle_failures,
    conjugate_reversal_coeffs,
    gamma_algebra,
    gamma_rep,
    generator,
    grassmann_inner,
    reversal,
    scalar_one,
    second_quantized_J,
    spinor_module,
    spinor_signature,
    vector,
    wedge,
)
from kreinmod.krein_over_krein import (
    auxiliary_product,
    check_imprimitivity,
    check_module_over_krein,
)
from kreinmod.linalg import (
    ValidationError,
    _Monomials,
    eig_signature,
    min_hermitian_eig,
    numerical_rank,
    operator_norm,
    random_complex,
)

S11 = PseudoEuclideanSpace(1, 1)
S21 = PseudoEuclideanSpace(2, 1)
S22 = PseudoEuclideanSpace(2, 2)


def laplace_det(m: np.ndarray) -> complex:
    """Cofactor-expansion determinant, independent of numpy's LU path."""
    k = m.shape[0]
    if k == 0:
        return 1.0 + 0j
    if k == 1:
        return complex(m[0, 0])
    total = 0j
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * laplace_det(minor)
    return total


def multivector(space: PseudoEuclideanSpace, rng) -> MultiVector:
    """A multivector with i.i.d. complex standard normal coefficients."""
    return MultiVector(space, random_complex(rng, space.grassmann_dim))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_metric_minor_determinants_are_the_cofactor_expansion(k):
    # the Clifford scenario's gram oracle takes np.linalg.det of k x k minors
    # of a diagonal ±1 metric; on every k x k matrix of 0 and ±1 entries it
    # must be exact, so any oracle difference is the pairing's, not rounding's
    stack = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=k * k)))
    stack = stack.reshape(len(stack), k, k)
    expected = [laplace_det(m) for m in stack]
    assert list(np.linalg.det(stack)) == expected


class TestWedge:
    def test_generator_product(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(wedge(e0, e1).coeffs, basis_blade(S11, 0b11).coeffs)

    def test_antisymmetry(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(wedge(e1, e0).coeffs, -basis_blade(S11, 0b11).coeffs)

    def test_square_vanishes(self):
        e0 = generator(S11, 0)
        assert not wedge(e0, e0).coeffs.any()

    def test_unit(self):
        a = multivector(S21, np.random.default_rng(0))
        assert np.allclose(wedge(scalar_one(S21), a).coeffs, a.coeffs)

    def test_alternation_oracle_on_vectors(self):
        # v (wedge) w against the antisymmetrized outer product
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_complex(rng, 3)
            w = random_complex(rng, 3)
            prod = wedge(vector(S21, v), vector(S21, w))
            alt = np.outer(v, w) - np.outer(w, v)
            for i in range(3):
                for j in range(i + 1, 3):
                    mask = (1 << i) | (1 << j)
                    assert prod.coeffs[mask] == pytest.approx(alt[i, j], abs=1e-12)

    def test_mixed_degree_expansion(self):
        # (e0 + e1) wedge e2 = e_{02} + e_{12}
        e0, e1, e2 = (generator(S21, i) for i in range(3))
        out = wedge(MultiVector(S21, e0.coeffs + e1.coeffs), e2)
        expected = basis_blade(S21, 0b101).coeffs + basis_blade(S21, 0b110).coeffs
        assert np.allclose(out.coeffs, expected)

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_graded_commutativity(self, seed):
        rng = np.random.default_rng(seed)
        deg_a, deg_b = rng.integers(0, 4), rng.integers(0, 4)
        a, b = multivector(S22, rng), multivector(S22, rng)
        a = MultiVector(S22, np.where(S22.grades == deg_a, a.coeffs, 0))
        b = MultiVector(S22, np.where(S22.grades == deg_b, b.coeffs, 0))
        lhs = wedge(a, b)
        rhs = (-1.0) ** (deg_a * deg_b) * wedge(b, a).coeffs
        assert np.allclose(lhs.coeffs, rhs, atol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (multivector(S22, rng) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)


class TestGrassmannInner:
    def test_top_blade_signature_11(self):
        blade = wedge(generator(S11, 0), generator(S11, 1))
        assert grassmann_inner(blade, blade) == pytest.approx(-1.0)

    def test_empty_determinant(self):
        one = scalar_one(S11)
        assert grassmann_inner(one, one) == pytest.approx(1.0)

    def test_distinct_degrees_orthogonal(self):
        rng = np.random.default_rng(3)
        a = multivector(S21, rng)
        parts = [
            MultiVector(S21, np.where(S21.grades == k, a.coeffs, 0)) for k in range(4)
        ]
        for k in range(4):
            for l in range(4):
                if k != l:
                    assert grassmann_inner(parts[k], parts[l]) == 0

    def test_gram_determinant_oracle_degree2(self):
        rng = np.random.default_rng(4)
        g = S21.signs
        worst = 0.0
        for _ in range(100):
            v = [random_complex(rng, 3) for _ in range(2)]
            w = [random_complex(rng, 3) for _ in range(2)]
            lhs = grassmann_inner(
                wedge(vector(S21, v[0]), vector(S21, v[1])),
                wedge(vector(S21, w[0]), vector(S21, w[1])),
            )
            gram = np.array(
                [[np.sum(v[i].conj() * g * w[j]) for j in range(2)] for i in range(2)]
            )
            worst = max(worst, abs(lhs - laplace_det(gram)))
        assert worst < 1e-10

    def test_gram_determinant_oracle_degree3(self):
        rng = np.random.default_rng(5)
        space = S22
        g = space.signs
        worst = 0.0
        for _ in range(100):
            v = [random_complex(rng, 4) for _ in range(3)]
            w = [random_complex(rng, 4) for _ in range(3)]
            bv = wedge(wedge(vector(space, v[0]), vector(space, v[1])), vector(space, v[2]))
            bw = wedge(wedge(vector(space, w[0]), vector(space, w[1])), vector(space, w[2]))
            gram = np.array(
                [[np.sum(v[i].conj() * g * w[j]) for j in range(3)] for i in range(3)]
            )
            worst = max(worst, abs(grassmann_inner(bv, bw) - laplace_det(gram)))
        assert worst < 1e-10

    def test_conjugate_linear_first_argument(self):
        rng = np.random.default_rng(6)
        a, b = multivector(S11, rng), multivector(S11, rng)
        z = 1.3 - 0.7j
        assert grassmann_inner(MultiVector(S11, z * a.coeffs), b) == pytest.approx(
            np.conj(z) * grassmann_inner(a, b)
        )


class TestSecondQuantizedJ:
    def test_signature_11_signs(self):
        j = second_quantized_J(S11)
        assert np.allclose(np.diag(j), [1, 1, -1, -1])
        # e_(index 1) is the negative-square generator
        assert np.allclose((j @ generator(S11, 1).coeffs)[0b10], -1)

    def test_squares_to_identity_bit_exact(self):
        j = second_quantized_J(S22)
        assert np.array_equal(j @ j, np.eye(16))

    def test_preserves_inner(self):
        rng = np.random.default_rng(7)
        a, b = multivector(S21, rng), multivector(S21, rng)
        j = second_quantized_J(S21)
        assert grassmann_inner(
            MultiVector(S21, j @ a.coeffs), MultiVector(S21, j @ b.coeffs)
        ) == pytest.approx(grassmann_inner(a, b))

    def test_auxiliary_form_positive_definite(self):
        for space in (S11, S21, S22):
            j = second_quantized_J(space)
            for mask in range(space.grassmann_dim):
                e = basis_blade(space, mask)
                je = MultiVector(space, j @ e.coeffs)
                assert grassmann_inner(e, je) == pytest.approx(1.0)
            gram = np.diag(
                [
                    grassmann_inner(
                        basis_blade(space, m),
                        MultiVector(space, j @ basis_blade(space, m).coeffs),
                    )
                    for m in range(space.grassmann_dim)
                ]
            )
            assert min_hermitian_eig(gram) > 0.5


def product(a: MultiVector, b: MultiVector) -> MultiVector:
    """The dense reference Clifford product, c(a) applied to b."""
    return MultiVector(a.space, clifford_action(a.space, a) @ b.coeffs)


def flipped(pq, s, t) -> PseudoEuclideanSpace:
    """R^{p,q} with the one sign σ[s, t] of its blade table flipped."""
    space = PseudoEuclideanSpace(*pq)
    table = space.blade_signs.copy()
    table[s, t] *= -1
    table.flags.writeable = False
    space.__dict__["blade_signs"] = table  # replaces the cached table
    return space


class TestCliffordProduct:
    def test_generator_squares(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(product(e0, e0).coeffs, scalar_one(S11).coeffs)
        assert np.allclose(product(e1, e1).coeffs, -scalar_one(S11).coeffs)

    def test_generators_anticommute(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        s = product(e0, e1).coeffs + product(e1, e0).coeffs
        assert np.linalg.norm(s) < 1e-14

    def test_associativity_sweep_22(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            a, b, c = (multivector(S22, rng) for _ in range(3))
            lhs = product(product(a, b), c).coeffs
            rhs = product(a, product(b, c)).coeffs
            worst = max(worst, np.linalg.norm(lhs - rhs))
        assert worst < 1e-10

    @pytest.mark.parametrize("n", range(7))
    def test_cocycle_is_associative_up_to_six_generators(self, n):
        for p in range(n + 1):
            assert cocycle_failures(PseudoEuclideanSpace(p, n - p)) == 0, (p, n - p)

    def test_one_flipped_sign_breaks_associativity(self):
        # e_0 e_1 = -e_1 e_0 turned into e_0 e_1 = +e_1 e_0 alone at (2,1)
        cases = (((2, 1), 0b001, 0b010, 18), ((2, 2), 0b0011, 0b0101, 8))
        for pq, s, t, failures in cases:
            space = flipped(pq, s, t)
            assert cocycle_failures(space) == failures
            # the dense product built from the flipped table fails on random triples
            rng = np.random.default_rng(13)
            a, b, c = (multivector(space, rng) for _ in range(3))
            lhs = product(product(a, b), c).coeffs
            assert np.linalg.norm(lhs - product(a, product(b, c)).coeffs) > 1e-10

    def test_unital(self):
        a = multivector(S21, np.random.default_rng(9))
        assert np.allclose(product(scalar_one(S21), a).coeffs, a.coeffs)
        assert np.allclose(product(a, scalar_one(S21)).coeffs, a.coeffs)


class TestCliffordAction:
    def test_action_on_unit_recovers_element(self):
        rng = np.random.default_rng(10)
        a = multivector(S22, rng)
        out = clifford_action(S22, a) @ scalar_one(S22).coeffs
        assert np.allclose(out, a.coeffs, atol=1e-12)

    def test_contraction(self):
        e0 = generator(S11, 0)
        out = product(e0, e0)
        assert np.allclose(out.coeffs, S11.signs[0] * scalar_one(S11).coeffs)

    def test_anticommutators_22_exact(self):
        mats = [clifford_generator_matrix(S22, i) for i in range(4)]
        eye = np.eye(16)
        for i in range(4):
            for j in range(4):
                anti = mats[i] @ mats[j] + mats[j] @ mats[i]
                expected = 2.0 * (S22.signs[i] if i == j else 0.0) * eye
                assert operator_norm(anti - expected) < 1e-12

    def test_anticommutator_residual_is_the_dense_norm(self):
        # generator images read their largest entry where both products hold
        # the same columns, exact or with one sign flipped; other pairs, and
        # random signed permutations, are formed densely
        rng = np.random.default_rng(24)
        gens = clifford_krein_algebra(S22)._monomials[1 << np.arange(4)]
        flipped = gens[np.arange(4)]
        flipped.vals[0, 0] *= -1
        perms = _Monomials(
            16, np.argsort(rng.random((4, 16)), axis=-1), 1j ** rng.integers(4, size=(4, 16))
        )
        i, j = np.triu_indices(4)
        metric = np.where(i == j, S22.signs[i], 0.0)
        for ops, g in [(gens, metric), (flipped, metric),
                       (gens, rng.standard_normal(len(i))), (perms, metric)]:
            c = ops.synthesis(np.eye(4))
            anti = c[i] @ c[j] + c[j] @ c[i] - 2 * g[:, None, None] * np.eye(16)
            np.testing.assert_allclose(
                anticommutator_residual(ops[i], ops[j], g), operator_norm(anti),
                rtol=1e-14, atol=0,
            )
        assert anticommutator_residual(flipped[:1], flipped[1:2], np.zeros(1)) == 2.0

    def test_linear_bijection_with_grassmann(self):
        for space in (S11, S21, S22):
            n = space.grassmann_dim
            cols = np.stack(
                [
                    clifford_action(space, basis_blade(space, m))
                    @ scalar_one(space).coeffs
                    for m in range(n)
                ],
                axis=1,
            )
            assert numerical_rank(cols) == n


class TestCliffordKreinAlgebra:
    def test_axioms_pass(self):
        for space in (S11, S21):
            alg = clifford_krein_algebra(space)
            report = check_krein_cstar_axioms(alg, samples=100, seed=11)
            assert report.passed, report.to_text()

    def test_trivial_signature(self):
        alg = clifford_krein_algebra(PseudoEuclideanSpace(0, 0))
        assert alg.dim == 1 and alg.is_trivially_definite

    def test_faithful(self):
        alg = clifford_krein_algebra(S22)
        flat = alg.basis.reshape(alg.basis.shape[0], -1)
        assert numerical_rank(flat) == 16

    def test_star_fixes_generators(self):
        alg = clifford_krein_algebra(S11)
        for i in range(2):
            c = clifford_generator_matrix(S11, i)
            assert operator_norm(alg.star(c) - c) < 1e-12

    def test_star_is_conjugate_reversal(self):
        alg = clifford_krein_algebra(S21)
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = multivector(S21, rng)
            lhs = alg.star(clifford_action(S21, a))
            rhs = clifford_action(S21, conjugate_reversal_coeffs(a))
            assert operator_norm(lhs - rhs) < 1e-10

    def test_alpha_is_metric_lift_on_generators(self):
        alg = clifford_krein_algebra(S21)
        for i in range(3):
            c = clifford_generator_matrix(S21, i)
            assert operator_norm(alg.alpha(c) - S21.signs[i] * c) < 1e-12

    def test_cstar_identity_sweep(self):
        alg = clifford_krein_algebra(S11)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(500):
            a = alg.random_element(rng)
            n = alg.norm(a)
            worst = max(worst, abs(alg.norm(alg.alpha(alg.star(a)) @ a) - n * n) / (n * n))
        assert worst < 1e-9


SMALL_SIGNATURES = [(p, n - p) for n in range(9) for p in range(n + 1)]
EVEN_SIGNATURES = [pq for pq in SMALL_SIGNATURES if sum(pq) % 2 == 0]


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kronecker_gammas(space):
    """The gammas by the dense Kronecker recursion, hermitian with
    Γ_iΓ_j + Γ_jΓ_i = 2δ_ij, then iΓ_i for a negative square: the reference
    for the generator blades."""
    gammas = [SIGMA_X, SIGMA_Y][: space.n]
    while len(gammas) < space.n:
        eye = np.eye(gammas[0].shape[0])
        gammas = [np.kron(g, SIGMA_Z) for g in gammas]
        gammas += [np.kron(eye, SIGMA_X), np.kron(eye, SIGMA_Y)]
    return [g if s > 0 else 1j * g for g, s in zip(gammas[: space.n], space.signs)]


def generator_blades(rep):
    """γ(e_i) = ``rep.blades[1 << i]`` as dense s x s matrices."""
    n = rep.space.n
    return rep.blades[1 << np.arange(n)].synthesis(np.eye(n))


def reference_form(space):
    """A by dense products: z Γ_0 ⋯ Γ_{p-1}, z = i^(p(p-1)/2 mod 2), negated
    unless its first nonzero entry is positive real, else positive
    imaginary."""
    a = np.eye(1 << space.n // 2, dtype=complex)
    for g in kronecker_gammas(space)[: space.p]:
        a = a @ g
    a = (1j if space.p * (space.p - 1) // 2 % 2 else 1.0) * a
    flat = a.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
    return -a if lead.real < 0 or (lead.real == 0 and lead.imag < 0) else a


class TestGammaRep:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            gamma_rep(S21)

    @pytest.mark.parametrize("pq", SMALL_SIGNATURES[1:], ids=str)
    def test_generator_blades_are_the_kronecker_gammas(self, pq):
        space, n = PseudoEuclideanSpace(*pq), sum(pq)
        blades = _spinor_blades(space)[1 << np.arange(n)].synthesis(np.eye(n))
        assert np.array_equal(blades, kronecker_gammas(space))
        if n % 2 == 0:
            assert np.array_equal(generator_blades(gamma_rep(space)), blades)

    @pytest.mark.parametrize("pq", EVEN_SIGNATURES, ids=str)
    def test_form_is_the_dense_product(self, pq):
        space = PseudoEuclideanSpace(*pq)
        assert np.array_equal(gamma_rep(space).a, reference_form(space))

    def test_anticommutators_22(self):
        rep = gamma_rep(S22)
        gammas, eye = generator_blades(rep), np.eye(rep.spinor_dim)
        for i in range(4):
            for j in range(4):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                expected = 2.0 * (S22.signs[i] if i == j else 0.0) * eye
                assert operator_norm(anti - expected) < 1e-12

    def test_hermiticity_pattern(self):
        rep = gamma_rep(PseudoEuclideanSpace(1, 3))
        for i, g in enumerate(generator_blades(rep)):
            sign = 1.0 if i < 1 else -1.0
            assert operator_norm(g.conj().T - sign * g) < 1e-12

    def test_form_involutive_hermitian(self):
        for space in (S11, S22, PseudoEuclideanSpace(1, 3)):
            rep = gamma_rep(space)
            assert operator_norm(rep.a - rep.a.conj().T) < 1e-12
            assert operator_norm(rep.a @ rep.a - np.eye(rep.spinor_dim)) < 1e-12

    def test_signature_11(self):
        assert spinor_signature(S11) == (1, 1)

    def test_signature_13_minkowski(self):
        assert spinor_signature(PseudoEuclideanSpace(1, 3)) == (2, 2)

    def test_signature_22(self):
        assert spinor_signature(S22) == (2, 2)

    def test_generators_self_adjoint_for_form(self):
        rep = gamma_rep(PseudoEuclideanSpace(1, 3))
        rng = np.random.default_rng(14)
        for g in generator_blades(rep):
            psi = random_complex(rng, 4)
            phi = random_complex(rng, 4)
            # the indefinite spinor pairing psi† A phi
            lhs = (g @ psi).conj() @ rep.a @ phi
            rhs = psi.conj() @ rep.a @ (g @ phi)
            assert abs(lhs - rhs) < 1e-10


class TestSpinorModule:
    @pytest.mark.parametrize("pq", [(0, 0), (1, 1), (1, 3), (2, 2), (3, 3)])
    def test_tensors_equal_spinor_formulas(self, pq):
        """The operator bimodule B(C, S) carries, value for value, the
        spinor tensors written out from the gamma representation."""
        rep = gamma_rep(PseudoEuclideanSpace(*pq))
        a, eye = rep.a, np.eye(rep.spinor_dim, dtype=complex)
        m = spinor_module(rep.space)
        assert np.array_equal(m.algebra.basis, np.ones((1, 1, 1)))
        assert np.array_equal(m.algebra.eta, np.ones((1, 1)))
        assert np.array_equal(m.left_algebra.eta, a)
        assert np.array_equal(m.action, eye[None])
        # inner[i, j] = e_i† A e_j as a 1 x 1 scalar matrix
        assert np.array_equal(m.inner, a[:, :, None, None])
        assert np.array_equal(m.symmetry, a)
        assert np.array_equal(m.left_action, gamma_algebra(rep).basis)
        # left_inner[i, j] = e_i e_j† A
        assert np.array_equal(m.left_inner, np.einsum("ai,jb->ijab", eye, a))

    def test_axioms_11(self):
        report = check_module_over_krein(spinor_module(S11), samples=150, seed=15)
        assert report.passed, report.to_text()

    def test_axioms_22(self):
        report = check_module_over_krein(spinor_module(S22), samples=100, seed=16)
        assert report.passed, report.to_text()

    def test_axioms_13(self):
        report = check_module_over_krein(
            spinor_module(PseudoEuclideanSpace(1, 3)), samples=100, seed=17
        )
        assert report.passed, report.to_text()

    def test_morita_certified_11(self):
        report = check_imprimitivity(spinor_module(S11), samples=100, seed=18)
        assert report.passed, report.to_text()

    def test_left_fullness_rank(self):
        m = spinor_module(S11)
        flat = m.left_algebra.basis.reshape(m.left_algebra.basis.shape[0], -1)
        assert numerical_rank(flat) == 4

    def test_dimension_identity(self):
        for space in (S11, S22):
            m = spinor_module(space)
            assert m.dim * m.dim == space.grassmann_dim

    def test_twisting_randomized(self):
        m = spinor_module(S11)
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(100):
            c = m.left_algebra.random_element(rng)
            psi = m.random_element(rng)
            lhs = m.j(m.act_left(c, psi))
            rhs = m.act_left(m.left_algebra.alpha(c), m.j(psi))
            worst = max(worst, np.linalg.norm(lhs - rhs))
        assert worst < 1e-10

    def test_auxiliary_gram_is_identity(self):
        m = spinor_module(S11)
        eye = np.eye(m.dim)
        gram = np.array(
            [
                [complex(auxiliary_product(m, eye[i], eye[j])[0, 0]) for j in range(m.dim)]
                for i in range(m.dim)
            ]
        )
        assert np.allclose(gram, eye, atol=1e-12)

    def test_gamma_algebra_axioms(self):
        alg = gamma_algebra(gamma_rep(S22))
        report = check_krein_cstar_axioms(alg, samples=100, seed=20)
        assert report.passed, report.to_text()


def gamma_blades(rep) -> np.ndarray:
    """The gamma blades by the dense recursion from the generator blades:
    appending γ(e_i) doubles the list from the blades below 2^i."""
    basis = np.eye(rep.spinor_dim, dtype=complex)[None]
    for g in generator_blades(rep):
        basis = np.concatenate([basis, basis @ g])
    return basis


class TestSpinorNorm:
    @pytest.mark.parametrize("pq", SMALL_SIGNATURES, ids=str)
    def test_norm_through_spinors_is_the_dense_svd(self, pq):
        space = PseudoEuclideanSpace(*pq)
        alg = clifford_krein_algebra(space)
        shape = alg._representation.cols.shape
        assert shape == (space.grassmann_dim, 2 ** math.ceil(space.n / 2))
        rng = np.random.default_rng(sum(pq))
        a = alg.from_coefficients(random_complex(rng, 3, space.grassmann_dim))
        dense = operator_norm(a)
        assert np.allclose(alg.norm(a), dense, rtol=1e-13, atol=0)
        assert alg.norm(a[0]) == pytest.approx(dense[0], rel=1e-13)
        assert alg.norm(np.zeros_like(a[0])) == 0.0

    @pytest.mark.parametrize("pq", [(1, 1), (2, 2), (1, 3), (3, 3)], ids=str)
    def test_even_blades_are_the_gamma_algebra(self, pq):
        rep = gamma_rep(PseudoEuclideanSpace(*pq))
        assert np.array_equal(gamma_blades(rep), gamma_algebra(rep).basis)

    @pytest.mark.parametrize("pq", [(2, 1), (2, 2), (0, 3)], ids=str)
    def test_one_flipped_blade_sign_is_refused(self, pq, monkeypatch):
        space = PseudoEuclideanSpace(*pq)
        assert clifford_krein_algebra(space)._representation is not None
        builds = [clifford_krein_algebra]
        if space.n % 2 == 0:
            builds.append(lambda space: gamma_algebra(gamma_rep(space)))
        for blade in range(space.grassmann_dim):
            def flipped(space, blade=blade):
                blades = _spinor_blades(space)
                blades.vals[blade] *= -1
                return blades

            monkeypatch.setattr(clifford_module, "_spinor_blades", flipped)
            for build in builds:
                with pytest.raises(ValidationError, match="spinor representation"):
                    build(space)

    def test_axiom_table_reads_carrier_norms_on_spinors(self, monkeypatch):
        # the four carrier norms per sample (‖a‖, ‖b‖, ‖alpha(star(a)) a‖,
        # ‖ab‖) are 8 x 8 SVDs at (3,3); the dense path takes them at 64 x 64
        alg = clifford_krein_algebra(PseudoEuclideanSpace(3, 3))
        svd, sizes = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            sizes.extend([a.shape[-1]] * math.prod(a.shape[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        spinor = check_krein_cstar_axioms(alg, samples=5, seed=3)
        spinor_sizes, sizes[:] = sorted(sizes), []
        monkeypatch.setattr(alg, "_representation", None)
        dense = check_krein_cstar_axioms(alg, samples=5, seed=3)
        assert spinor_sizes.count(8) == 20 and 8 not in sizes
        assert sizes.count(64) == spinor_sizes.count(64) + 20
        for x, y in zip(spinor.records, dense.records):
            assert x.name == y.name and x.passed == y.passed
            assert x.max_violation == pytest.approx(y.max_violation, abs=1e-14)


def generator_product_blades(space: PseudoEuclideanSpace) -> np.ndarray:
    """c(e_S) as ordered products of c(e_i) = creation + g_ii · contraction."""
    n = space.grassmann_dim
    gens = []
    for i in range(space.n):
        bit = 1 << i
        create = np.zeros((n, n), dtype=complex)
        for mask in range(n):
            if not mask & bit:
                create[mask | bit, mask] = (-1.0) ** bin(mask & (bit - 1)).count("1")
        gens.append(create + space.signs[i] * create.T)
    out = np.zeros((n, n, n), dtype=complex)
    out[0] = np.eye(n)
    for mask in range(1, n):
        low = (mask & -mask).bit_length() - 1
        out[mask] = gens[low] @ out[mask ^ (1 << low)]
    return out


def shuffle_wedge(a: MultiVector, b: MultiVector) -> np.ndarray:
    """e_S ∧ e_T = (−1)^#{i ∈ S, j ∈ T, i > j} e_{S∪T}, as a double loop."""
    out = np.zeros_like(a.coeffs)
    for s, ca in enumerate(a.coeffs):
        for t, cb in enumerate(b.coeffs):
            if s & t:
                continue
            swaps = sum(
                bin(s >> (j + 1)).count("1") for j in range(a.space.n) if t >> j & 1
            )
            out[s | t] += (-1) ** swaps * ca * cb
    return out


class TestSignTableReference:
    @pytest.mark.parametrize("pq", [(1, 1), (2, 2), (3, 2), (2, 3), (0, 3), (4, 0)])
    def test_blade_tensor_matches_generator_products(self, pq):
        space = PseudoEuclideanSpace(*pq)
        ref = generator_product_blades(space)
        eye = np.eye(space.grassmann_dim, dtype=complex)
        assert np.array_equal(_left_matrix(space, eye), ref)
        a = multivector(space, np.random.default_rng(sum(pq)))
        expected = np.tensordot(a.coeffs, ref, axes=(0, 0))
        assert np.allclose(clifford_action(space, a), expected, rtol=0, atol=1e-14)
        for i in range(space.n):
            assert np.array_equal(clifford_generator_matrix(space, i), ref[1 << i])

    def test_left_matrix_of_a_stack(self):
        space = PseudoEuclideanSpace(2, 1)
        rng = np.random.default_rng(16)
        coeffs = random_complex(rng, 5, space.grassmann_dim)
        stacked = _left_matrix(space, coeffs)
        expected = np.stack(
            [clifford_action(space, MultiVector(space, c)) for c in coeffs]
        )
        assert np.array_equal(stacked, expected)
        assert stacked.flags.c_contiguous

    def test_sign_table_is_read_only(self):
        with pytest.raises(ValueError):
            S22.blade_signs[0, 0] = -1.0

    @pytest.mark.parametrize("space", [S21, S22], ids=["21", "22"])
    def test_wedge_matches_shuffle_signs(self, space):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = multivector(space, rng)
            b = multivector(space, rng)
            assert np.allclose(wedge(a, b).coeffs, shuffle_wedge(a, b), atol=1e-13)

    @pytest.mark.parametrize("pq", [(0, 0), (1, 1), (2, 1), (0, 3), (2, 2)])
    def test_second_quantized_J_is_gram_diagonal(self, pq):
        space = PseudoEuclideanSpace(*pq)
        diag = _gram_diagonal(space)
        assert np.array_equal(second_quantized_J(space), np.diag(diag))
        for mask in range(space.grassmann_dim):
            picked = [space.signs[i] for i in range(space.n) if mask >> i & 1]
            assert diag[mask] == np.prod(picked)

    def test_grade_and_reversal_per_mask(self):
        a = multivector(S22, np.random.default_rng(6))
        rev = reversal(a).coeffs
        for mask in range(S22.grassmann_dim):
            k = bin(mask).count("1")
            assert rev[mask] == (-1) ** (k * (k - 1) // 2) * a.coeffs[mask]
            for j in range(S22.n + 1):
                graded = MultiVector(S22, np.where(S22.grades == j, a.coeffs, 0))
                assert graded.coeffs[mask] == (a.coeffs[mask] if j == k else 0)
