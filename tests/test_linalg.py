import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinmod.linalg as linalg
from kreinmod.linalg import (
    DimensionMismatchError,
    Subspace,
    ValidationError,
    column_space,
    as_complex_matrix,
    eig_signature,
    first_exceeding,
    gaussians,
    hermitian_adjoint,
    hermitian_defect,
    involution_defect,
    numerical_rank,
    operator_norm,
    quotient_space,
    random_complex,
    spectral_projector,
)


def rand(seed, *shape):
    return random_complex(np.random.default_rng(seed), *shape)


class TestHermitianAdjoint:
    def test_identity(self):
        assert np.array_equal(hermitian_adjoint(np.eye(2)), np.eye(2))

    def test_real_transpose(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(hermitian_adjoint(m), np.array([[0, 0], [1, 0]]))

    def test_conjugates_imaginary(self):
        m = np.array([[1j, 0], [0, 0]])
        assert np.array_equal(hermitian_adjoint(m), np.array([[-1j, 0], [0, 0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            hermitian_adjoint(np.array([[np.nan, 0], [0, 0]]))

    @pytest.mark.parametrize(
        "bad", [complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 1)]
    )
    def test_rejects_one_non_finite_part(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValidationError):
            as_complex_matrix(m)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_involution_bit_exact(self, seed):
        m = rand(seed, 4, 3)
        assert np.array_equal(hermitian_adjoint(hermitian_adjoint(m)), m)


class TestSymmetryDefects:
    def test_involution_defect(self):
        # diag(1, -2)² − 1 = diag(0, 3)
        assert involution_defect(np.diag([1.0, -2.0]).astype(complex)) == 3.0
        assert involution_defect(np.diag([1.0, -1.0]).astype(complex)) == 0.0

    def test_hermitian_defect(self):
        assert hermitian_defect(np.array([[0, 1], [0, 0]], dtype=complex)) == 1.0
        assert hermitian_defect(np.array([[1, 1j], [-1j, 2]])) == 0.0

    @pytest.mark.parametrize("defect", [involution_defect, hermitian_defect])
    def test_stack_gives_one_value_per_matrix(self, defect):
        stack = rand(3, 5, 4, 4)
        values = defect(stack)
        assert values.shape == (5,)
        assert np.array_equal(values, [defect(m) for m in stack])


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-12)

    def test_matches_full_svd(self):
        m = rand(5, 5, 5)
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(expected, rel=1e-9)

    def test_power_iteration_path(self):
        m = rand(7, 80, 80)
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "shape, zero",
        [
            ((5, 4, 4), [1, 0, 1, 1, 0]),
            ((3, 4, 4), [1, 1, 1]),
            ((4, 4), True),
            ((0, 4, 4), []),
            ((4, 3, 5), [0, 1, 0, 1]),
            ((2, 3, 4, 4), [[0, 1, 0], [1, 1, 0]]),
        ],
        ids=["mixed", "all zero", "2-D zero", "empty stack", "rectangular",
             "two leading axes"],
    )
    def test_zero_matrices_skip_the_svd(self, shape, zero, monkeypatch):
        # a zero matrix reads the 0.0 its SVD returns, and the SVD sees only
        # the nonzero matrices
        zero = np.asarray(zero, dtype=bool)
        a = rand(21, *shape) * ~zero[..., None, None]
        expected = np.linalg.svd(a, compute_uv=False)[..., 0]
        inputs, svd = [], np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd",
            lambda x, *args, **kw: inputs.append(x) or svd(x, *args, **kw),
        )
        got = operator_norm(a)
        assert np.array_equal(got, expected)
        assert len(inputs) == int(not zero.all())
        for x in inputs:
            assert x.reshape(-1, *shape[-2:]).any(axis=(-2, -1)).all()
        if a.ndim == 2:
            assert type(got) is float and got == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_preserves_norm(self, seed):
        m = rand(seed, 6, 4)
        assert operator_norm(hermitian_adjoint(m)) == pytest.approx(
            operator_norm(m), rel=1e-10
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cstar_identity_of_concrete_norm(self, seed):
        m = rand(seed, 5, 5)
        lhs = operator_norm(hermitian_adjoint(m) @ m)
        assert lhs == pytest.approx(operator_norm(m) ** 2, rel=1e-9)


def first_exceeding_by_svd(residuals, references, tol):
    """Every norm by SVD, no screen."""
    r = np.linalg.svd(residuals, compute_uv=False)[:, 0]
    a = np.linalg.svd(references, compute_uv=False)[:, 0]
    outside = r > tol * np.maximum(a, 1.0)
    return int(np.argmax(outside)) if outside.any() else -1


class TestFirstExceeding:
    """The Frobenius screen in front of the stacked SVD changes no answer."""

    TOL = 1e-9

    @staticmethod
    def stack(rng, ratios, r_shape, a_shape):
        """References of mixed scale and residuals at exactly ratios[k] times
        tol · max(‖a_k‖₂, 1) in operator norm."""
        refs = np.stack([
            random_complex(rng, *a_shape) * 10.0 ** rng.uniform(-2, 2)
            for _ in ratios
        ])
        res = random_complex(rng, len(ratios), *r_shape)
        scale = np.maximum(np.linalg.svd(refs, compute_uv=False)[:, 0], 1.0)
        res *= (np.asarray(ratios) * TestFirstExceeding.TOL * scale
                / np.linalg.svd(res, compute_uv=False)[:, 0])[:, None, None]
        return res, refs

    @pytest.mark.parametrize(
        "r_shape, a_shape", [((4, 4), (4, 4)), ((3, 6), (6, 6)), ((8, 8), (8, 8))]
    )
    def test_matches_all_svd_reference(self, r_shape, a_shape):
        rng = np.random.default_rng(20)
        found = set()
        for _ in range(200):
            ratios = 10.0 ** rng.uniform(-1, 1, size=4)
            res, refs = self.stack(rng, ratios, r_shape, a_shape)
            expected = first_exceeding_by_svd(res, refs, self.TOL)
            assert first_exceeding(res, refs, self.TOL) == expected
            found.add(expected)
        assert found == {-1, 0, 1, 2, 3}

    def test_row_at_twice_tol_reported(self):
        res, refs = self.stack(
            np.random.default_rng(21), [0.5, 0.9, 0.99, 2.0, 5.0], (6, 6), (6, 6)
        )
        assert first_exceeding(res, refs, self.TOL) == 3
        assert first_exceeding(res[:3], refs[:3], self.TOL) == -1

    def test_screened_rows_take_no_svd(self, monkeypatch):
        res, refs = self.stack(np.random.default_rng(22), [0.01] * 3, (4, 4), (4, 4))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k)
        )
        assert first_exceeding(res, refs, self.TOL) == -1
        assert calls == []


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-8) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(4), 1e-8) == 4

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(11)
        u = random_complex(rng, 6)
        v = random_complex(rng, 6)
        assert numerical_rank(np.outer(u, v), 1e-8) == 1

    def test_requires_positive_tol(self):
        with pytest.raises(ValidationError):
            numerical_rank(np.eye(2), 0.0)

    def test_stack_counts_each_matrix(self):
        u, v = rand(12, 4, 1), rand(13, 1, 4)
        w = rand(14, 4, 2) @ rand(15, 2, 4)
        stack = np.stack([np.zeros((4, 4)), u @ v, np.eye(4), w])
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [numerical_rank(m) for m in stack] == [0, 1, 4, 2]


def monomial(rng, shape, per_row: bool) -> np.ndarray:
    """Random complex matrices of ``shape`` with at most one nonzero per row,
    or per column; the others are zero rows (columns), and the magnitudes of
    the nonzeros are 1 or 1e-8·(1 ± 1e-3), on both sides of the rank cut."""
    *lead, m, n = shape if per_row else (*shape[:-2], shape[-1], shape[-2])
    size = (*lead, m)
    magnitude = rng.choice([1.0, 1.001e-8, 0.999e-8, 0.0], size=size)
    value = magnitude * np.exp(2j * np.pi * rng.random(size))
    a = np.zeros((*lead, m, n), dtype=complex)
    np.put_along_axis(a, rng.integers(0, n, size)[..., None], value[..., None], -1)
    return a if per_row else a.swapaxes(-1, -2)


def svd_inputs(monkeypatch) -> list:
    """Every later ``np.linalg.svd`` input."""
    inputs, svd = [], np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda x, *args, **kw: inputs.append(x) or svd(x, *args, **kw)
    )
    return inputs


class TestRankFromDisjointSupports:
    # one nonzero per row: orthogonal columns, singular values = column norms;
    # one per column: orthogonal rows, singular values = row norms
    @pytest.mark.parametrize(
        "shape", [(6, 4), (4, 6), (5, 5), (1, 7), (7, 1), (3, 8, 5), (2, 3, 4, 6)]
    )
    @pytest.mark.parametrize("per_row", [True, False], ids=["row", "column"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_svd_rank_without_an_svd(self, shape, per_row, seed, monkeypatch):
        a = monomial(np.random.default_rng(seed), shape, per_row)
        s = np.linalg.svd(a, compute_uv=False)
        expected = np.sum(s > 1e-8 * s[..., :1], axis=-1)
        inputs = svd_inputs(monkeypatch)
        assert np.array_equal(numerical_rank(a), expected)
        assert inputs == []

    def test_straddling_norms(self, monkeypatch):
        # column norms 1, 1.001e-8 and 0.999e-8 of the largest, and a zero
        # column; two rows share column 0
        a = np.zeros((5, 4), dtype=complex)
        a[0, 0], a[1, 0], a[2, 1], a[3, 2] = 0.6, 0.8j, -1.001e-8, 0.999e-8j
        inputs = svd_inputs(monkeypatch)
        assert numerical_rank(a) == numerical_rank(a.T) == 2
        assert inputs == []

    def test_dense_input_takes_the_svd(self, monkeypatch):
        a = np.stack([monomial(np.random.default_rng(5), (4, 4), True), rand(22, 4, 4)])
        inputs = svd_inputs(monkeypatch)
        assert numerical_rank(a).tolist()[1] == 4
        assert len(inputs) == 1


def assert_quotient_pair(section, span, rels):
    """section and span are orthonormal, mutually orthogonal and together
    resolve the identity, and span holds every relation."""
    ambient = section.shape[0]
    for basis in (section, span):
        k = basis.shape[1]
        assert np.allclose(basis.conj().T @ basis, np.eye(k), atol=1e-12)
    assert np.allclose(section.conj().T @ span, 0, atol=1e-12)
    resolution = section @ section.conj().T + span @ span.conj().T
    assert np.allclose(resolution, np.eye(ambient), atol=1e-12)
    for r in rels:
        r = np.asarray(r, dtype=complex)
        gap = r - span @ (span.conj().T @ r)
        assert np.linalg.norm(gap) <= 1e-9 * np.linalg.norm(r)


class TestQuotientSpace:
    def test_one_relation(self):
        rels = [np.array([1, 0, 0])]
        section, span = quotient_space(3, rels)
        assert section.shape == (3, 2) and span.shape == (3, 1)
        assert_quotient_pair(section, span, rels)

    def test_duplicate_relation(self):
        e1 = np.eye(4)[0]
        section, span = quotient_space(4, [e1, e1])
        assert section.shape[1] == 3 and span.shape[1] == 1
        assert_quotient_pair(section, span, [e1])

    def test_projector_kills_relations(self):
        # section† is the projector onto the quotient
        rng = np.random.default_rng(3)
        rels = [random_complex(rng, 8) for _ in range(3)]
        section, span = quotient_space(8, rels)
        for r in rels:
            assert np.linalg.norm(section.conj().T @ r) <= 1e-9 * np.linalg.norm(r)
        assert_quotient_pair(section, span, rels)

    @pytest.mark.parametrize(
        "ambient, n_relations, rank", [(8, 3, 3), (8, 5, 2), (6, 20, 4)]
    )
    def test_both_shape_regimes(self, ambient, n_relations, rank):
        # fewer relations than ambient needs the full U of the SVD, more
        # relations only the thin one
        rng = np.random.default_rng(ambient + n_relations)
        vectors = random_complex(rng, ambient, rank) @ random_complex(rng, rank, n_relations)
        rels = list(vectors.T)
        section, span = quotient_space(ambient, rels)
        assert section.shape == (ambient, ambient - rank)
        assert span.shape == (ambient, rank)
        assert_quotient_pair(section, span, rels)

    def test_m2_balancing_span(self):
        # x b (x) y - x (x) b y over matrix-unit bases of M_2: quotient dim 4
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for n, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            units[n][i, j] = 1.0
        rels = []
        for x in units:
            for b in units:
                for y in units:
                    rels.append(
                        np.kron((x @ b).ravel(), y.ravel())
                        - np.kron(x.ravel(), (b @ y).ravel())
                    )
        section, span = quotient_space(16, rels)
        assert section.shape[1] == 4 and span.shape[1] == 12
        assert_quotient_pair(section, span, [r for r in rels if r.any()])

    def test_no_relations(self):
        # no relation, and only zero relations (the balancing relations
        # over the scalars), fewer or more than the ambient dimension, leave
        # an empty span and the section I itself
        for rels in ([], np.zeros((3, 5)), np.zeros((9, 5))):
            section, span = quotient_space(5, rels)
            assert np.array_equal(section, np.eye(5)) and span.shape == (5, 0)
            assert_quotient_pair(section, span, [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quotient_space(3, [np.ones(4)])

    def test_relation_array(self):
        # one relation per row, as a list of rows or an array, and an array
        # with no rows is no relation
        rels = random_complex(np.random.default_rng(4), 3, 6)
        for got, want in zip(quotient_space(6, rels), quotient_space(6, list(rels))):
            assert np.array_equal(got, want)
        section, span = quotient_space(6, np.zeros((0, 6)))
        assert np.array_equal(section, np.eye(6)) and span.shape == (6, 0)
        for bad in (rels.T, rels[:, :, None]):
            with pytest.raises(DimensionMismatchError):
                quotient_space(6, bad)


class TestSpectralProjector:
    def test_non_hermitian_involution(self):
        # J = S diag(1, 1, -1) S⁻¹: the projectors are oblique but complementary
        s = random_complex(np.random.default_rng(6), 3, 3)
        j = s @ np.diag([1.0, 1.0, -1.0]) @ np.linalg.inv(s)
        plus, minus = spectral_projector(j, +1), spectral_projector(j, -1)
        for sign, p in ((+1, plus), (-1, minus)):
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.allclose(j @ p, sign * p, atol=1e-12)
        assert np.allclose(plus + minus, np.eye(3), atol=1e-15)
        assert numerical_rank(plus) == 2 and numerical_rank(minus) == 1


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Subspace(2, np.array([[1.0], [1.0]]))

    def test_rejects_a_column_off_unit_norm_by_more_than_the_tolerance(self):
        # ‖b†b − I‖ = 8e-6 > 1e-10
        with pytest.raises(ValidationError):
            Subspace(2, np.array([[1.0 + 4e-6], [0.0]]))

    def test_column_space_rank(self):
        rng = np.random.default_rng(5)
        u = random_complex(rng, 6)
        v = random_complex(rng, 6)
        s = column_space(np.outer(u, v))
        assert s.dim == 1
        assert s.contains(u * 2.5)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 0)])
    def test_column_space_of_no_columns_or_zeros_is_empty(self, shape):
        s = column_space(np.zeros(shape))
        assert s.dim == 0 and s.ambient_dim == 4


class TestEigSignature:
    def test_diag(self):
        assert eig_signature(np.diag([2.0, -1.0, -3.0])) == (1, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_signature(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_a_defect_above_the_relative_tolerance(self):
        # ‖a − a†‖ = 5e-6 against 1e-10 · ‖a‖
        with pytest.raises(ValidationError):
            eig_signature(np.array([[1.0, 1.0], [1.0 + 5e-6, -1.0]]))


class TestGaussians:
    SHAPES = [(3, 3), (), (2, 0), (4,), (2, 1, 3)]

    @pytest.mark.parametrize("k", [1, 5])
    def test_stream_is_k_rounds_of_random_complex(self, k):
        drawn, rounds, parts = (np.random.default_rng(11) for _ in range(3))
        stacks = gaussians(drawn, k, *self.SHAPES)
        expected = [
            [random_complex(rounds, *shape) for shape in self.SHAPES] for _ in range(k)
        ]
        # the same stream read as real part, then imaginary part, per field
        by_parts = [
            [parts.standard_normal(shape) + 1j * parts.standard_normal(shape)
             for shape in self.SHAPES]
            for _ in range(k)
        ]
        for field, (shape, stack) in enumerate(zip(self.SHAPES, stacks)):
            assert stack.shape == (k, *shape) and stack.dtype == complex
            reference = np.array([sample[field] for sample in expected])
            assert stack.tobytes() == reference.reshape(k, *shape).tobytes()
            assert np.array_equal(stack, [sample[field] for sample in by_parts])
        state = drawn.bit_generator.state
        assert state == rounds.bit_generator.state == parts.bit_generator.state

    def test_no_shapes(self):
        assert gaussians(np.random.default_rng(0), 4) == []


def test_standard_normal_only_in_gaussians():
    """Every draw reads the one layout of ``gaussians``: a second call site
    would let the batched and the single-sample streams drift apart."""
    inside, everywhere = 0, 0
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.name == "linalg.py" and getattr(node, "name", "") == "gaussians":
                inside += _standard_normal_uses(node)
        everywhere += _standard_normal_uses(tree)
    assert inside >= 1
    assert everywhere == inside


def _standard_normal_uses(tree) -> int:
    """Attribute reads and names of standard_normal."""
    return sum(
        getattr(node, "attr", None) == "standard_normal"
        or getattr(node, "id", None) == "standard_normal"
        for node in ast.walk(tree)
    )
