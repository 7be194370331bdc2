import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinmod.algebra import FiniteCStarAlgebra, scalars
from kreinmod.krein_module import (
    FundamentalSymmetry,
    KreinModule,
    fundamental_decomposition,
    hilbert_adjoint,
    hilbertify,
    hyperbolic_symmetry,
    intertwiner,
    krein_adjoint,
    krein_space,
    norm_equivalence_constants,
    random_symmetry,
    standard_symmetry,
)
from kreinmod.linalg import (
    ValidationError,
    min_hermitian_eig,
    numerical_rank,
    operator_norm,
)


def m2_module(signs=(1, 1, -1, -1)) -> KreinModule:
    """Rank-2 module over M_2(C) with a diagonal-sign gram."""
    return KreinModule(FiniteCStarAlgebra((2,)), 2, np.diag(signs).astype(complex))


class TestKreinModule:
    def test_krein_space_shapes(self):
        m = krein_space(2, 1)
        assert m.flat_dim == 3 and m.base.dim == 1 and m.ambient_dim == 3

    def test_rejects_degenerate_gram(self):
        with pytest.raises(ValidationError):
            krein_space(1, 1).__class__(
                FiniteCStarAlgebra((1,)), 2, np.diag([1.0, 0.0]).astype(complex)
            )

    def test_rejects_non_hermitian_gram(self):
        with pytest.raises(ValidationError):
            KreinModule(
                FiniteCStarAlgebra((1,)), 2, np.array([[0, 1], [0, 0]], dtype=complex)
            )

    def test_rejects_gram_outside_pattern(self):
        # two scalar points: off-diagonal couplings are not algebra blocks
        alg = FiniteCStarAlgebra((1, 1))
        g = np.array([[1, 1], [1, -1]], dtype=complex)
        with pytest.raises(ValidationError):
            KreinModule(alg, 1, g)

    def test_carrier_matches_per_copy_reference(self):
        m = KreinModule(
            FiniteCStarAlgebra((2, 1)),
            3,
            np.kron(np.diag([1.0, -1.0, 1.0]), np.eye(3)).astype(complex),
        )
        k, ref = m.base.dim, []
        for i in range(m.rank):
            for b in m.base.basis():
                x = np.zeros((m.flat_dim, k), dtype=complex)
                x[i * k : (i + 1) * k] = b
                ref.append(x)
        # the stacked e_i ⊗ b are the unit vectors at the carrier positions
        stacked = np.stack(ref).reshape(len(ref), m.ambient_dim).T
        assert np.array_equal(stacked, np.eye(m.ambient_dim)[:, m.carrier])

    def test_inner_lands_in_base(self):
        m = m2_module()
        rng = np.random.default_rng(0)
        x, y = m.random_element(rng), m.random_element(rng)
        assert m.base.contains(m.inner(x, y))

    def test_inner_right_linearity(self):
        m = m2_module()
        rng = np.random.default_rng(1)
        x, y, a = m.random_element(rng), m.random_element(rng), m.base.random_element(rng)
        lhs = m.inner(x, m.action(y, a))
        rhs = m.inner(x, y) @ a
        assert operator_norm(lhs - rhs) < 1e-10

    def test_inner_hermitian_symmetry(self):
        m = m2_module()
        rng = np.random.default_rng(2)
        x, y = m.random_element(rng), m.random_element(rng)
        assert operator_norm(m.inner(x, y) - m.inner(y, x).conj().T) < 1e-12

    def test_antimodule_negates_inner(self):
        # same carrier and action, negated gram
        m = m2_module()
        anti = KreinModule(m.base, m.rank, -m.gram)
        rng = np.random.default_rng(3)
        x, y = m.random_element(rng), m.random_element(rng)
        assert np.allclose(anti.inner(x, y), -m.inner(x, y))


class TestFundamentalSymmetry:
    def test_standard_on_c11(self):
        m = krein_space(1, 1)
        j = standard_symmetry(m)
        assert np.allclose(j.matrix, np.diag([1.0, -1.0]))

    def test_standard_matrix_takes_one_eigh_per_module(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args)
        )
        m = m2_module()
        stack = random_symmetry(m, np.random.default_rng(0), 3).matrix
        j = standard_symmetry(m).matrix
        assert len(calls) == 1
        assert j is m.standard_matrix and not j.flags.writeable
        assert np.allclose(j, np.diag([1.0, 1.0, -1.0, -1.0]))
        # each random symmetry conjugates the standard one: same spectrum
        assert np.allclose(np.trace(stack, axis1=1, axis2=2), np.trace(j))

    def test_hyperbolic_is_valid(self):
        m = krein_space(1, 1)
        j = FundamentalSymmetry(m, hyperbolic_symmetry(0.3))
        assert operator_norm(j.matrix @ j.matrix - np.eye(2)) < 1e-12

    def test_rejects_non_involutive(self):
        m = krein_space(1, 1)
        with pytest.raises(ValidationError):
            FundamentalSymmetry(m, np.diag([1.0, -2.0]).astype(complex))

    def test_rejects_wrong_sign_split(self):
        # -eta squares to 1 and is self-adjoint, but flips the halves'
        # definiteness on C^{2,1} only if the signature is asymmetric
        m = krein_space(2, 1)
        with pytest.raises(ValidationError):
            FundamentalSymmetry(m, -np.diag([1.0, 1.0, -1.0]).astype(complex))

    @pytest.mark.parametrize(
        "module, bad",
        [
            (krein_space(2, 1), np.diag([1.0, 1.0, -2.0])),  # not involutive
            (krein_space(2, 1), -np.diag([1.0, 1.0, -1.0])),  # wrong-sign halves
            (  # off the diagonal pattern of C ⊕ C
                KreinModule(
                    FiniteCStarAlgebra((1, 1)), 1, np.diag([1.0, -1.0]).astype(complex)
                ),
                np.array([[0.0, 1.0], [1.0, 0.0]]),
            ),
        ],
        ids=["non-involutive", "wrong-sign", "off-pattern"],
    )
    def test_stack_with_one_bad_member_raises_its_error(self, module, bad):
        good = random_symmetry(module, np.random.default_rng(5), 2).matrix
        FundamentalSymmetry(module, good)
        with pytest.raises(ValidationError) as alone:
            FundamentalSymmetry(module, bad)
        with pytest.raises(ValidationError) as stacked:
            FundamentalSymmetry(module, np.stack([good[0], bad, good[1]]))
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize(
        "module", [krein_space(2, 2), m2_module()], ids=["c22", "m2"]
    )
    def test_random_symmetry_stack_is_single_draws(self, module):
        stack = random_symmetry(module, np.random.default_rng(9), 4).matrix
        rng = np.random.default_rng(9)
        singles = [random_symmetry(module, rng).matrix for _ in range(4)]
        assert np.array_equal(stack, np.stack(singles))

    def test_random_symmetry_bounded_on_an_ill_conditioned_gram(self):
        # the Cayley generator X has norm 0.3 whatever ‖G⁻¹‖, so ‖U‖ and
        # ‖U⁻¹‖ are at most 1.15/0.85 and ‖J‖ = ‖U J₀ U⁻¹‖ at most their product
        m = KreinModule(scalars(), 3, np.diag([1e-2, 1.0, -1.0]).astype(complex))
        for seed in range(20):
            j = random_symmetry(m, np.random.default_rng(seed))
            assert operator_norm(j.matrix) <= (1.15 / 0.85) ** 2, seed
            FundamentalSymmetry(m, j.matrix)

    def test_laws_read_off_a_stack(self):
        m = krein_space(2, 1)
        j = random_symmetry(m, np.random.default_rng(7), 3)
        assert j.selfadjoint_defect().shape == (3,)
        assert np.all(j.selfadjoint_defect() < 1e-12)
        for sign, rank in ((+1, 2), (-1, 1)):
            half = j.half_form(sign)
            assert np.all(min_hermitian_eig(half) > -1e-12)
            assert np.all(numerical_rank(half) == rank)

    def test_random_symmetry_valid_over_m2(self):
        m = m2_module()
        rng = np.random.default_rng(6)
        j = random_symmetry(m, rng)
        assert operator_norm(j.matrix @ j.matrix - np.eye(4)) < 1e-9
        assert m._in_pattern(j.matrix)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_random_symmetry_self_adjoint_for_form(self, seed):
        m = m2_module((1, -1, 1, -1))
        j = random_symmetry(m, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        x, y = m.random_element(rng), m.random_element(rng)
        assert operator_norm(m.inner(j(x), y) - m.inner(x, j(y))) < 1e-9


class TestDecompositionAndHilbertify:
    def test_c11_halves(self):
        m = krein_space(1, 1)
        plus, minus = fundamental_decomposition(m, standard_symmetry(m))
        assert plus.dim == 1 and minus.dim == 1
        assert plus.contains(np.array([1.0, 0.0]))
        assert minus.contains(np.array([0.0, 1.0]))

    def test_m2_halves_dims(self):
        m = m2_module()
        plus, minus = fundamental_decomposition(m, standard_symmetry(m))
        assert plus.dim == 4 and minus.dim == 4  # one M_2 slot each

    # definite modules, where one half is empty up to rounding: each half is
    # cut against the larger top singular value of the pair, not its own
    @pytest.mark.parametrize(
        "module, seed, dims",
        [
            *(
                pytest.param(krein_space(p, q), seed, (p, q), id=f"C{p},{q}-seed{seed}")
                for p, q in ((1, 0), (0, 1), (2, 0), (0, 2), (3, 0))
                for seed in range(5)
            ),
            pytest.param(
                KreinModule(
                    FiniteCStarAlgebra((1,)),
                    3,
                    np.array([[4, 1, 0.5], [1, 3, 0.2], [0.5, 0.2, 2]], dtype=complex),
                ),
                None,
                (3, 0),
                id="non-diagonal-pd-gram-standard",
            ),
            pytest.param(m2_module((1, 1, 1, 1)), 0, (8, 0), id="m2-identity-gram"),
        ],
    )
    def test_definite_halves(self, module, seed, dims):
        j = (
            standard_symmetry(module)
            if seed is None
            else random_symmetry(module, np.random.default_rng(seed))
        )
        plus, minus = fundamental_decomposition(module, j)
        assert (plus.dim, minus.dim) == dims
        assert plus.dim + minus.dim == len(module.carrier)

    def test_hilbertify_positive(self):
        m = m2_module()
        j = random_symmetry(m, np.random.default_rng(7))
        h = hilbertify(m, j)
        assert min_hermitian_eig(h.gram) > 0

    def test_hilbertify_recovers_original(self):
        # <x, y> = <J x, y>_hilbertified
        m = m2_module()
        j = random_symmetry(m, np.random.default_rng(8))
        h = hilbertify(m, j)
        rng = np.random.default_rng(9)
        x, y = m.random_element(rng), m.random_element(rng)
        assert operator_norm(m.inner(x, y) - h.inner(j(x), y)) < 1e-9


class TestKreinAdjoint:
    def test_nilpotent_on_c11(self):
        m = krein_space(1, 1)
        j = standard_symmetry(m)
        t = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.array([[0, 0], [-1, 0]], dtype=complex)
        assert np.allclose(krein_adjoint(m, j, t), expected, atol=1e-14)

    def test_adjoint_property(self):
        m = m2_module()
        j = standard_symmetry(m)
        rng = np.random.default_rng(10)
        t = m.random_operator(rng)
        ts = krein_adjoint(m, j, t)
        x, y = m.random_element(rng), m.random_element(rng)
        assert operator_norm(m.inner(t @ x, y) - m.inner(x, ts @ y)) < 1e-9

    def test_twist_of_hilbert_adjoint(self):
        # krein adjoint equals J (hilbert adjoint) J
        m = m2_module()
        j = random_symmetry(m, np.random.default_rng(11))
        t = m.random_operator(np.random.default_rng(12))
        lhs = krein_adjoint(m, j, t)
        rhs = j.matrix @ hilbert_adjoint(m, j, t) @ j.matrix
        assert operator_norm(lhs - rhs) < 1e-8 * max(operator_norm(t), 1.0)

    def test_involutive(self):
        m = m2_module()
        j = standard_symmetry(m)
        t = m.random_operator(np.random.default_rng(13))
        assert operator_norm(krein_adjoint(m, j, krein_adjoint(m, j, t)) - t) < 1e-10

    def test_symmetry_is_self_adjoint(self):
        m = m2_module()
        j = random_symmetry(m, np.random.default_rng(14))
        assert operator_norm(krein_adjoint(m, j, j.matrix) - j.matrix) < 1e-9


class TestTransitionsAndIntertwiner:
    def test_transition_bijective(self):
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(15))
        # (1±J2)/2 restricted to the J1-halves keeps their full rank
        for sign, half in zip((+1, -1), fundamental_decomposition(m, j1)):
            comp = m.lift_operator(j2.projector(sign) @ j1.projector(sign))
            assert half.dim == 4
            assert numerical_rank(comp @ half.basis) == half.dim

    def test_intertwiner_relation(self):
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(16))
        u = intertwiner(m, j1, j2)
        assert operator_norm(u @ j1.matrix - j2.matrix @ u) < 1e-9

    def test_intertwiner_krein_unitary(self):
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(17))
        u = intertwiner(m, j1, j2)
        ustar_u = krein_adjoint(m, j1, u) @ u
        assert operator_norm(ustar_u - np.eye(4)) < 1e-9

    def test_scaled_minus_component_breaks_unitarity(self):
        # doubling the negative-half transition map is the canonical way
        # to produce a non-unitary intertwining candidate
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(18))
        bad = j2.projector(+1) @ j1.projector(+1) + 2.0 * (
            j2.projector(-1) @ j1.projector(-1)
        )
        assert operator_norm(krein_adjoint(m, j1, bad) @ bad - np.eye(4)) > 0.5

    @pytest.mark.parametrize("module", [krein_space(2, 2), m2_module()])
    def test_intertwiner_matches_inverse_square_root(self, module):
        # reference: a (b a)^{-1/2}, b the adjoint of a between the
        # hilbertified grams, through scipy's matrix square root
        j1 = random_symmetry(module, np.random.default_rng(19))
        j2 = random_symmetry(module, np.random.default_rng(20))
        a = (np.eye(module.flat_dim) + j2.matrix @ j1.matrix) / 2
        g1 = (j1.matrix.conj().T @ module.gram + module.gram @ j1.matrix) / 2
        g2 = (j2.matrix.conj().T @ module.gram + module.gram @ j2.matrix) / 2
        b = np.linalg.solve(g1, a.conj().T @ g2)
        ref = module.project_operator(a @ np.linalg.inv(scipy.linalg.sqrtm(b @ a)))
        u = intertwiner(module, j1, j2)
        assert operator_norm(u - ref) < 1e-12 * operator_norm(ref)


class TestNormEquivalence:
    def test_hyperbolic_pair_constants(self):
        m = krein_space(1, 1)
        j1 = standard_symmetry(m)
        j2 = FundamentalSymmetry(m, hyperbolic_symmetry(0.3))
        lo, hi = norm_equivalence_constants(m, j1, j2)
        assert lo == pytest.approx(np.exp(-0.3), abs=1e-6)
        assert hi == pytest.approx(np.exp(0.3), abs=1e-6)

    def test_same_symmetry_gives_unity(self):
        m = m2_module()
        j = random_symmetry(m, np.random.default_rng(19))
        lo, hi = norm_equivalence_constants(m, j, j)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_under_swap(self):
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(20))
        lo12, hi12 = norm_equivalence_constants(m, j1, j2)
        lo21, hi21 = norm_equivalence_constants(m, j2, j1)
        assert lo12 == pytest.approx(1.0 / hi21, rel=1e-9)
        assert hi12 == pytest.approx(1.0 / lo21, rel=1e-9)

    def test_constants_bound_ratios(self):
        m = m2_module()
        j1 = standard_symmetry(m)
        j2 = random_symmetry(m, np.random.default_rng(21))
        lo, hi = norm_equivalence_constants(m, j1, j2)
        h1, h2 = hilbertify(m, j1), hilbertify(m, j2)
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = m.random_element(rng)
            n1 = np.sqrt(operator_norm(h1.inner(x, x)))
            n2 = np.sqrt(operator_norm(h2.inner(x, x)))
            assert lo * n1 <= n2 * (1 + 1e-9)
            assert n2 <= hi * n1 * (1 + 1e-9)


class TestInnerProductOp:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz_in_hilbertified(self, seed):
        m = m2_module((1, 2, -1, -3))
        j = standard_symmetry(m)
        h = hilbertify(m, j)
        rng = np.random.default_rng(seed)
        x, y = m.random_element(rng), m.random_element(rng)
        lhs = operator_norm(h.inner(x, y)) ** 2
        rhs = operator_norm(h.inner(x, x)) * operator_norm(h.inner(y, y))
        assert lhs <= rhs * (1 + 1e-9)
