import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinmod.algebra import check_krein_cstar_axioms
from kreinmod.clifford import (
    GammaRep,
    MultiVector,
    PseudoEuclideanSpace,
    _gram_diagonal,
    _left_matrix,
    associativity_residual,
    basis_blade,
    clifford_action,
    clifford_generator_matrix,
    clifford_krein_algebra,
    clifford_product,
    conjugate_reversal_coeffs,
    gamma_algebra,
    gamma_rep,
    generator,
    grassmann_inner,
    random_multivector,
    reversal,
    scalar_one,
    second_quantized_J,
    spinor_module,
    spinor_signature,
    vector,
    wedge,
)
from kreinmod.checker import _gram_det
from kreinmod.krein_over_krein import (
    auxiliary_product,
    check_imprimitivity,
    check_module_over_krein,
)
from kreinmod.linalg import (
    ValidationError,
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


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gram_det_is_the_cofactor_expansion(k):
    # the oracle's closed form on k x k stacks; Gaussian-integer entries make
    # both sides exact, so any difference is the formula's, not rounding's
    rng = np.random.default_rng(k)
    stack = rng.integers(-9, 10, (50, k, k)) + 1j * rng.integers(-9, 10, (50, k, k))
    expected = [laplace_det(m) for m in stack]
    assert list(_gram_det(stack)) == expected


class TestWedge:
    def test_generator_product(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(wedge(e0, e1).coeffs, basis_blade(S11, 0b11).coeffs)

    def test_antisymmetry(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(wedge(e1, e0).coeffs, -basis_blade(S11, 0b11).coeffs)

    def test_square_vanishes(self):
        e0 = generator(S11, 0)
        assert wedge(e0, e0).norm() == 0.0

    def test_unit(self):
        a = random_multivector(S21, np.random.default_rng(0))
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
        out = wedge(e0 + e1, e2)
        expected = basis_blade(S21, 0b101) + basis_blade(S21, 0b110)
        assert np.allclose(out.coeffs, expected.coeffs)

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_graded_commutativity(self, seed):
        rng = np.random.default_rng(seed)
        deg_a, deg_b = rng.integers(0, 4), rng.integers(0, 4)
        a, b = random_multivector(S22, rng), random_multivector(S22, rng)
        a = MultiVector(S22, np.where(S22.grades == deg_a, a.coeffs, 0))
        b = MultiVector(S22, np.where(S22.grades == deg_b, b.coeffs, 0))
        lhs = wedge(a, b)
        rhs = (-1.0) ** (deg_a * deg_b) * wedge(b, a)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (random_multivector(S22, rng) for _ in range(3))
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
        a = random_multivector(S21, rng)
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
        a, b = random_multivector(S11, rng), random_multivector(S11, rng)
        z = 1.3 - 0.7j
        assert grassmann_inner(z * a, b) == pytest.approx(
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
        a, b = random_multivector(S21, rng), random_multivector(S21, rng)
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


class TestCliffordProduct:
    def test_generator_squares(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        assert np.allclose(clifford_product(e0, e0).coeffs, scalar_one(S11).coeffs)
        assert np.allclose(clifford_product(e1, e1).coeffs, -scalar_one(S11).coeffs)

    def test_generators_anticommute(self):
        e0, e1 = generator(S11, 0), generator(S11, 1)
        s = clifford_product(e0, e1) + clifford_product(e1, e0)
        assert s.norm() < 1e-14

    def test_associativity_sweep_22(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            a, b, c = (random_multivector(S22, rng) for _ in range(3))
            lhs = clifford_product(clifford_product(a, b), c)
            rhs = clifford_product(a, clifford_product(b, c))
            worst = max(worst, (lhs - rhs).norm())
        assert worst < 1e-10

    def test_associativity_residual_is_scale_invariant(self):
        rng = np.random.default_rng(12)
        a, b, c = (random_multivector(PseudoEuclideanSpace(3, 3), rng) for _ in range(3))
        small = associativity_residual(a, b, c)
        big = associativity_residual(1e3 * a, 1e3 * b, 1e3 * c)
        assert small < 1e-15 and big < 1e-15

    def test_one_flipped_sign_breaks_associativity(self):
        # e_0 e_1 = -e_1 e_0 turned into e_0 e_1 = +e_1 e_0 alone
        space = PseudoEuclideanSpace(2, 1)
        table = space.blade_signs.copy()
        table[0b001, 0b010] *= -1
        table.flags.writeable = False
        space.__dict__["blade_signs"] = table  # replaces the cached table
        rng = np.random.default_rng(13)
        a, b, c = (random_multivector(space, rng) for _ in range(3))
        assert associativity_residual(a, b, c) > 1e-10

    def test_unital(self):
        a = random_multivector(S21, np.random.default_rng(9))
        assert np.allclose(clifford_product(scalar_one(S21), a).coeffs, a.coeffs)
        assert np.allclose(clifford_product(a, scalar_one(S21)).coeffs, a.coeffs)


class TestCliffordAction:
    def test_action_on_unit_recovers_element(self):
        rng = np.random.default_rng(10)
        a = random_multivector(S22, rng)
        out = clifford_action(S22, a) @ scalar_one(S22).coeffs
        assert np.allclose(out, a.coeffs, atol=1e-12)

    def test_contraction(self):
        e0 = generator(S11, 0)
        out = clifford_product(e0, e0)
        assert np.allclose(out.coeffs, S11.signs[0] * scalar_one(S11).coeffs)

    def test_anticommutators_22_exact(self):
        mats = [clifford_generator_matrix(S22, i) for i in range(4)]
        eye = np.eye(16)
        for i in range(4):
            for j in range(4):
                anti = mats[i] @ mats[j] + mats[j] @ mats[i]
                expected = 2.0 * (S22.signs[i] if i == j else 0.0) * eye
                assert operator_norm(anti - expected) < 1e-12

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
            a = random_multivector(S21, rng)
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


class TestGammaRep:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            gamma_rep(S21)

    def test_anticommutators_22(self):
        rep = gamma_rep(S22)
        eye = np.eye(rep.spinor_dim)
        for i in range(4):
            for j in range(4):
                anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                expected = 2.0 * (S22.signs[i] if i == j else 0.0) * eye
                assert operator_norm(anti - expected) < 1e-12

    def test_hermiticity_pattern(self):
        rep = gamma_rep(PseudoEuclideanSpace(1, 3))
        for i, g in enumerate(rep.gammas):
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
        for g in rep.gammas:
            psi = random_complex(rng, 4)
            phi = random_complex(rng, 4)
            # the indefinite spinor pairing psi† A phi
            lhs = (g @ psi).conj() @ rep.a @ phi
            rhs = psi.conj() @ rep.a @ (g @ phi)
            assert abs(lhs - rhs) < 1e-10


class TestSpinorModule:
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
        a = random_multivector(space, np.random.default_rng(sum(pq)))
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
            a = random_multivector(space, rng)
            b = random_multivector(space, rng)
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
        a = random_multivector(S22, np.random.default_rng(6))
        rev = reversal(a).coeffs
        for mask in range(S22.grassmann_dim):
            k = bin(mask).count("1")
            assert rev[mask] == (-1) ** (k * (k - 1) // 2) * a.coeffs[mask]
            for j in range(S22.n + 1):
                graded = MultiVector(S22, np.where(S22.grades == j, a.coeffs, 0))
                assert graded.coeffs[mask] == (a.coeffs[mask] if j == k else 0)
