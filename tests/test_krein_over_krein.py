from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinmod.algebra import FiniteCStarAlgebra, KreinCStarAlgebra, bounded_operators
from kreinmod.clifford import PseudoEuclideanSpace, gamma_algebra, gamma_rep
from kreinmod.correspondence import identity_correspondence, internal_tensor
from kreinmod.krein_over_krein import (
    NonAdjointableError,
    adjoint_residual,
    auxiliary_product,
    check_imprimitivity,
    check_module_over_krein,
    is_adjointable,
    krein_adjoint_over_krein,
    operator_bimodule,
    rank_one,
    self_module,
)
from kreinmod.linalg import (
    DimensionMismatchError,
    ValidationError,
    is_psd,
    min_hermitian_eig,
    operator_norm,
    random_complex,
)


def b11():
    return bounded_operators(1, 1)


def rotated_bounded_operators(p, q, seed):
    """B(C^{p,q}) with eta conjugated by a random unitary, so eta ≠ etaᵀ."""
    u, _ = np.linalg.qr(random_complex(np.random.default_rng(seed), p + q, p + q))
    eta = u @ np.diag([1.0] * p + [-1.0] * q) @ u.conj().T
    return KreinCStarAlgebra(FiniteCStarAlgebra((p + q,)).basis(), eta)


MODULES = pytest.mark.parametrize(
    "module",
    [
        lambda: self_module(b11()),
        lambda: operator_bimodule(b11(), bounded_operators(2, 1)),
    ],
    ids=["self-b11", "operator-b11-b21"],
)


# the five tensor fields of a bimodule, each with its shape error
FIELDS = pytest.mark.parametrize(
    "name, what",
    [
        ("action", "action tensor"),
        ("inner", "inner tensor"),
        ("symmetry", "symmetry"),
        ("left_action", "left action tensor"),
        ("left_inner", "left inner tensor"),
    ],
)


class TestFieldShapes:
    # the two algebras differ in size, so no field fits another's shape
    MODULE = operator_bimodule(b11(), bounded_operators(2, 1))

    @FIELDS
    def test_wrong_shape_names_its_field(self, name, what):
        cut = getattr(self.MODULE, name)[..., :-1]
        with pytest.raises(DimensionMismatchError, match=f"^{what} shape mismatch$"):
            replace(self.MODULE, **{name: cut})

    @FIELDS
    def test_valid_field_comes_back_complex(self, name, what):
        real = getattr(self.MODULE, name).real
        value = getattr(replace(self.MODULE, **{name: real}), name)
        assert value.dtype == complex
        assert np.array_equal(value, real)


class TestSelfModule:
    def test_axioms_b11(self):
        report = check_module_over_krein(self_module(b11()), samples=150, seed=0)
        assert report.passed, report.to_text()

    def test_axioms_b21(self):
        report = check_module_over_krein(
            self_module(bounded_operators(2, 1)), samples=100, seed=1
        )
        assert report.passed, report.to_text()

    def test_axioms_commutative_with_signs(self):
        eta = np.diag([1.0, -1.0, 1.0]).astype(complex)
        alg = KreinCStarAlgebra(FiniteCStarAlgebra((1, 1, 1)).basis(), eta)
        report = check_module_over_krein(self_module(alg), samples=100, seed=2)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "make",
        [
            b11,
            lambda: bounded_operators(2, 1),
            lambda: KreinCStarAlgebra(
                FiniteCStarAlgebra((1, 1, 1)).basis(), np.diag([1.0, -1.0, 1.0])
            ),
            lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(2, 2))),
        ],
        ids=["b11", "b21", "signs", "gamma22"],
    )
    def test_tensors_match_per_element_reference(self, make):
        alg = make()
        m = self_module(alg)
        b, coef = alg.basis, alg.coefficients
        for j in range(len(b)):
            for k in range(len(b)):
                assert np.array_equal(m.action[j][:, k], coef(b[k] @ b[j]))
                assert np.array_equal(m.left_action[j][:, k], coef(b[j] @ b[k]))
                assert np.array_equal(m.inner[j, k], alg.star(b[j]) @ b[k])
                assert np.array_equal(m.left_inner[j, k], b[j] @ alg.star(b[k]))
            assert np.array_equal(m.symmetry[:, j], coef(alg.alpha(b[j])))

    def test_pairing_matches_algebra_product(self):
        alg = b11()
        m = self_module(alg)
        rng = np.random.default_rng(3)
        a, b = alg.random_element(rng), alg.random_element(rng)
        lhs = m.pairing(alg.coefficients(a), alg.coefficients(b))
        assert operator_norm(lhs - alg.star(a) @ b) < 1e-10

    def test_imprimitivity_exact(self):
        report = check_imprimitivity(self_module(b11()), samples=100, seed=4)
        assert report.passed, report.to_text()

    def test_auxiliary_product_positive(self):
        m = self_module(b11())
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = m.random_element(rng)
            assert is_psd(auxiliary_product(m, x, x))


class TestSymmetryAdjointability:
    def test_symmetry_not_adjointable_when_twisted(self):
        # on the algebra over itself, J = alpha has no adjoint for the
        # indefinite product unless alpha is the identity
        m = self_module(b11())
        assert not is_adjointable(m, m.symmetry)
        with pytest.raises(NonAdjointableError):
            krein_adjoint_over_krein(m, m.symmetry)

    def test_symmetry_adjointable_in_definite_case(self):
        alg = KreinCStarAlgebra(FiniteCStarAlgebra((2,)).basis(), np.eye(2))
        m = self_module(alg)
        s = krein_adjoint_over_krein(m, m.symmetry)
        assert operator_norm(s - m.symmetry) < 1e-8

    def test_left_multiplication_adjoint_is_star(self):
        alg = b11()
        m = self_module(alg)
        rng = np.random.default_rng(6)
        a = alg.random_element(rng)
        # left multiplication by a, as a matrix on coefficient space
        la = np.stack(
            [
                alg.coefficients(a @ alg.from_coefficients(np.eye(m.dim)[k]))
                for k in range(m.dim)
            ],
            axis=1,
        )
        adj = krein_adjoint_over_krein(m, la)
        lstar = np.stack(
            [
                alg.coefficients(alg.star(a) @ alg.from_coefficients(np.eye(m.dim)[k]))
                for k in range(m.dim)
            ],
            axis=1,
        )
        assert operator_norm(adj - lstar) < 1e-8

    @pytest.mark.parametrize(
        "decide", [adjoint_residual, is_adjointable, krein_adjoint_over_krein]
    )
    def test_non_finite_operator_is_refused(self, decide):
        # a NaN operator is neither certified adjointable nor given a NaN adjoint
        m = self_module(b11())
        t = np.eye(m.dim, dtype=complex)
        t[0, 1] = np.nan
        with pytest.raises(ValidationError):
            decide(m, t)

    def test_adjoint_relation_holds(self):
        m = self_module(b11())
        rng = np.random.default_rng(7)
        t = rank_one(m, m.random_element(rng), m.random_element(rng))
        s = krein_adjoint_over_krein(m, t)
        for _ in range(20):
            x, y = m.random_element(rng), m.random_element(rng)
            lhs = m.pairing(t @ x, y)
            rhs = m.pairing(x, s @ y)
            assert operator_norm(lhs - rhs) < 1e-8 * max(
                np.linalg.norm(x) * np.linalg.norm(y), 1.0
            )


def _kronecker_adjoint_residual(m, t):
    """Reference: the adjoint relation as one (n²d² x n²) system in vec(S)."""
    d, n = m.algebra.dim, m.dim
    target = np.einsum("ki,kjab->ijab", t.conj(), m.inner).reshape(-1)
    design = np.zeros((n * n * d * d, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            row = (i * n + j) * d * d
            design[row : row + d * d, j::n] = m.inner[i].reshape(n, d * d).T
    sol = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = np.linalg.norm(design @ sol - target)
    return sol.reshape(n, n), residual / max(np.linalg.norm(target), 1.0)


class TestAdjointResidualMatchesKronecker:
    @MODULES
    @pytest.mark.parametrize("kind", ["rank-one", "left-multiplication"])
    def test_adjointable(self, module, kind):
        m = module()
        rng = np.random.default_rng(16)
        if kind == "rank-one":
            t = rank_one(m, m.random_element(rng), m.random_element(rng))
        else:
            t = m.left_operator(m.left_algebra.random_element(rng))
        s, residual = adjoint_residual(m, t)
        s_ref, residual_ref = _kronecker_adjoint_residual(m, t)
        assert operator_norm(s - s_ref) <= 1e-12 * max(operator_norm(s_ref), 1.0)
        assert abs(residual - residual_ref) <= 1e-12
        assert residual <= 1e-12

    def test_twisted_symmetry_keeps_its_residual(self):
        m = self_module(b11())
        s, residual = adjoint_residual(m, m.symmetry)
        s_ref, residual_ref = _kronecker_adjoint_residual(m, m.symmetry)
        assert residual > 1e-8
        assert residual == pytest.approx(residual_ref, rel=1e-10)
        assert operator_norm(s - s_ref) <= 1e-12 * max(operator_norm(s_ref), 1.0)


def lstsq_calls(monkeypatch) -> list:
    """The design shapes of every later ``np.linalg.lstsq`` call."""
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq",
        lambda a, *args, **kw: calls.append(np.shape(a)) or lstsq(a, *args, **kw),
    )
    return calls


def aux_module(m):
    """The module under its auxiliary product ⟨x, J y⟩, as the
    module-over-Kreĭn scenario builds it."""
    return replace(m, inner=np.einsum("kj,ikab->ijab", m.symmetry, m.inner))


def assert_matches_kronecker(m, ops, s, residual):
    for k, t in enumerate(ops):
        s_ref, residual_ref = _kronecker_adjoint_residual(m, t)
        assert operator_norm(s[k] - s_ref) <= 1e-12 * max(operator_norm(s_ref), 1.0)
        assert abs(residual[k] - residual_ref) <= 1e-12


def adjointable_and_not(m, seed):
    """A stack of a rank-one operator, the module symmetry and a random map."""
    rng = np.random.default_rng(seed)
    t = rank_one(m, m.random_element(rng), m.random_element(rng))
    return np.stack([t, m.symmetry, random_complex(rng, m.dim, m.dim)])


class TestDisjointSupportDesign:
    # each row of these designs has at most one nonzero, so their columns are
    # exactly orthogonal and no least squares runs
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize(
        "build",
        [
            self_module,
            lambda a: aux_module(self_module(a)),
            lambda a: operator_bimodule(a, b11()),
        ],
        ids=["self", "auxiliary", "operator"],
    )
    def test_orthogonal_design_takes_no_lstsq(self, build, p, q, monkeypatch):
        m = build(bounded_operators(p, q))
        ops = adjointable_and_not(m, 18)
        calls = lstsq_calls(monkeypatch)
        s, residual = adjoint_residual(m, ops)
        assert calls == []
        assert_matches_kronecker(m, ops, s, residual)

    # id ⊗ id of B(C^{p,q}), p + q = 3, has a design row with two nonzeros
    @pytest.mark.parametrize("p, q", [(2, 1), (3, 0)])
    def test_dense_design_keeps_lstsq(self, p, q, monkeypatch):
        ident = identity_correspondence(bounded_operators(p, q))
        m = internal_tensor(ident, ident)
        rng = np.random.default_rng(19)
        ops = np.concatenate([
            m.left_operator(m.left_algebra.random_element(rng))[None],
            adjointable_and_not(m, 20),
        ])
        calls = lstsq_calls(monkeypatch)
        s, residual = adjoint_residual(m, ops)
        assert calls == [(m.dim * m.algebra.dim**2, m.dim)]
        assert_matches_kronecker(m, ops, s, residual)

    # a zero column, and one under lstsq's cut eps·max(rows, columns)·largest
    @pytest.mark.parametrize("scale", [0.0, 1e-17])
    def test_column_under_the_cut_reads_zero(self, scale, monkeypatch):
        m = self_module(b11())
        inner = m.inner.copy()
        inner[:, 1] *= scale
        m = replace(m, inner=inner)
        ops = adjointable_and_not(m, 21)
        calls = lstsq_calls(monkeypatch)
        s, residual = adjoint_residual(m, ops)
        assert calls == []
        assert np.array_equal(s[:, 1], np.zeros_like(s[:, 1]))
        assert_matches_kronecker(m, ops, s, residual)

    def test_design_is_decided_once_per_module(self):
        m = self_module(b11())
        design = m._adjoint_design
        adjoint_residual(m, m.symmetry)
        assert m._adjoint_design is design
        assert aux_module(m)._adjoint_design is not design


class TestAlphaJ:
    # the automorphism T ↦ J T J: conjugation by the module symmetry
    def test_involutive(self):
        m = self_module(b11())
        j = m.symmetry
        rng = np.random.default_rng(8)
        t = rank_one(m, m.random_element(rng), m.random_element(rng))
        assert operator_norm(j @ (j @ t @ j) @ j - t) < 1e-10

    def test_multiplicative(self):
        m = self_module(b11())
        j = m.symmetry
        rng = np.random.default_rng(9)
        t = rank_one(m, m.random_element(rng), m.random_element(rng))
        s = rank_one(m, m.random_element(rng), m.random_element(rng))
        assert operator_norm(j @ (t @ s) @ j - (j @ t @ j) @ (j @ s @ j)) < 1e-9

    def test_star_compatibility_with_cstar_identity(self):
        # J T* J T has the operator norm squared in the auxiliary
        # hilbertified picture; spot-check the identity through the adjoint
        m = self_module(b11())
        rng = np.random.default_rng(10)
        for _ in range(10):
            t = rank_one(m, m.random_element(rng), m.random_element(rng))
            ts = krein_adjoint_over_krein(m, t)
            a = m.symmetry @ ts @ m.symmetry
            n = operator_norm(_aux_rep(m, t))
            lhs = operator_norm(_aux_rep(m, a @ t))
            assert lhs == pytest.approx(n * n, rel=1e-8)


def _aux_rep(m, t):
    """Matrix of t in coordinates where the auxiliary product is standard."""
    g = np.zeros((m.dim, m.dim), dtype=complex)
    for i in range(m.dim):
        for j in range(m.dim):
            g[i, j] = np.trace(auxiliary_product(m, np.eye(m.dim)[i], np.eye(m.dim)[j]))
    l = np.linalg.cholesky((g + g.conj().T) / 2).conj().T
    return l @ t @ np.linalg.inv(l)


class TestRankOne:
    @MODULES
    def test_matches_column_definition(self, module):
        m = module()
        rng = np.random.default_rng(17)
        x, y = m.random_element(rng), m.random_element(rng)
        columns = np.stack(
            [m.act(x, m.pairing(y, e)) for e in np.eye(m.dim)], axis=1
        )
        t = rank_one(m, x, y)
        assert operator_norm(t - columns) <= 1e-12 * max(operator_norm(columns), 1.0)

    def test_rank_at_most_algebra_dim(self):
        m = self_module(bounded_operators(2, 1))
        rng = np.random.default_rng(11)
        t = rank_one(m, m.random_element(rng), m.random_element(rng))
        # rank-one over the algebra, so rank <= dim of the algebra's space
        assert np.linalg.matrix_rank(t) <= m.algebra.dim * m.algebra.dim

    def test_action_formula(self):
        m = self_module(b11())
        rng = np.random.default_rng(12)
        x, y, z = (m.random_element(rng) for _ in range(3))
        t = rank_one(m, x, y)
        assert np.allclose(t @ z, m.act(x, m.pairing(y, z)), atol=1e-10)

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_adjoint_swaps_arguments(self, seed):
        m = self_module(b11())
        rng = np.random.default_rng(seed)
        x, y = m.random_element(rng), m.random_element(rng)
        adj = krein_adjoint_over_krein(m, rank_one(m, x, y))
        swapped = rank_one(m, y, x)
        assert operator_norm(adj - swapped) < 1e-7 * max(
            operator_norm(swapped), 1.0
        )


class TestOperatorBimodule:
    def test_axioms_mixed_signatures(self):
        m = operator_bimodule(bounded_operators(1, 1), bounded_operators(2, 1))
        report = check_module_over_krein(m, samples=100, seed=13)
        assert report.passed, report.to_text()

    def test_imprimitivity(self):
        m = operator_bimodule(bounded_operators(1, 1), bounded_operators(1, 1))
        report = check_imprimitivity(m, samples=100, seed=14)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (bounded_operators(1, 1), bounded_operators(2, 1)),
            lambda: (bounded_operators(2, 1), bounded_operators(1, 1)),
            lambda: (bounded_operators(2, 2), bounded_operators(1, 1)),
            lambda: (
                rotated_bounded_operators(2, 1, 16),
                rotated_bounded_operators(1, 1, 17),
            ),
        ],
        ids=["b11-b21", "b21-b11", "b22-b11", "rotated"],
    )
    def test_tensors_match_per_unit_reference(self, make):
        k1, k2 = make()
        m = operator_bimodule(k1, k2)
        # diagonal etas keep every entry exact; rotated ones may round each
        # product of two eta entries differently
        exact = all(np.array_equal(e, np.diag(np.diag(e))) for e in (k1.eta, k2.eta))
        same = np.array_equal if exact else lambda x, y: np.allclose(x, y, 0, 1e-15)
        # carrier basis: the d2 x d1 matrix units, flattened row-major
        units = np.eye(m.dim, dtype=complex).reshape(m.dim, k2.dim, k1.dim)
        for k, t in enumerate(units):
            for i, b in enumerate(k1.basis):
                assert np.array_equal(m.action[i][:, k], (t @ b).ravel())
            for i, a in enumerate(k2.basis):
                assert np.array_equal(m.left_action[i][:, k], (a @ t).ravel())
            assert same(m.symmetry[:, k], (k2.eta @ t @ k1.eta).ravel())
            for j, s in enumerate(units):
                assert same(m.inner[k, j], k1.eta @ t.conj().T @ k2.eta @ s)
                assert same(m.left_inner[k, j], t @ k1.eta @ s.conj().T @ k2.eta)

    def test_symmetry_squares_to_identity(self):
        m = operator_bimodule(bounded_operators(2, 1), bounded_operators(1, 1))
        assert operator_norm(m.symmetry @ m.symmetry - np.eye(m.dim)) < 1e-12

    def test_auxiliary_product_definite(self):
        m = operator_bimodule(bounded_operators(1, 1), bounded_operators(1, 1))
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = m.random_element(rng)
            aux = auxiliary_product(m, x, x)
            assert min_hermitian_eig(aux) >= -1e-10
