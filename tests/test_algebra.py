import tracemalloc

import numpy as np
import pytest

from kreinmod.algebra import (
    FiniteCStarAlgebra,
    KreinCStarAlgebra,
    bounded_operators,
    check_krein_cstar_axioms,
    even_odd_split,
    functions_on_points,
    scalar_krein_algebra,
)
from kreinmod.clifford import (
    PseudoEuclideanSpace,
    _left_matrix,
    clifford_krein_algebra,
    gamma_algebra,
    gamma_rep,
    second_quantized_J,
)
from kreinmod.linalg import (
    DimensionMismatchError,
    ValidationError,
    operator_norm,
    random_complex,
)


def eta_pq(p, q):
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)


def rotated_diagonal_basis():
    """q E_ii q† for q = [[3, 4i], [4i, 3]], a multiple of a unitary: exactly
    orthogonal, dense and *-closed, but not closed under entrywise
    conjugation."""
    q = np.array([[3, 4j], [4j, 3]])
    return np.stack([q @ np.diag(e) @ q.conj().T for e in np.eye(2)])


class TestCoefficients:
    """Coordinates are taken against a Frobenius-orthogonal basis only: a
    basis that is not one is refused at construction."""

    def test_non_orthogonal_basis(self):
        units = FiniteCStarAlgebra((2,)).basis()
        mix = random_complex(np.random.default_rng(10), 4, 4) + 3 * np.eye(4)
        basis = np.tensordot(mix, units, axes=(1, 0))
        with pytest.raises(ValidationError, match="not Frobenius-orthogonal"):
            KreinCStarAlgebra(basis, eta_pq(1, 1))

    def test_duplicated_basis_element(self):
        units = FiniteCStarAlgebra((2,)).basis()
        basis = np.concatenate([units, units[1:2]])
        with pytest.raises(ValidationError, match="not Frobenius-orthogonal"):
            KreinCStarAlgebra(basis, eta_pq(1, 1))


ORTHOGONAL_CARRIERS = {
    "clifford (2,2)": lambda: clifford_krein_algebra(PseudoEuclideanSpace(2, 2)),
    "clifford (3,1)": lambda: clifford_krein_algebra(PseudoEuclideanSpace(3, 1)),
    "clifford (2,1)": lambda: clifford_krein_algebra(PseudoEuclideanSpace(2, 1)),
    "gamma (1,3)": lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(1, 3))),
    "gamma (2,2)": lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(2, 2))),
    "B(C^{2,1})": lambda: bounded_operators(2, 1),
    # orthogonal, not orthonormal: coordinates divide by unequal ‖b_i‖²
    "blocks with unequal norms": lambda: KreinCStarAlgebra(
        FiniteCStarAlgebra((2, 1)).basis() * np.arange(1, 6)[:, None, None],
        np.diag([1.0, -1.0, 1.0]),
    ),
    # complex entries: coordinates read the conjugated values
    "blocks with complex scales": lambda: KreinCStarAlgebra(
        FiniteCStarAlgebra((2, 1)).basis()
        * np.array([1, 2j, -3, 1 - 1j, 0.5j])[:, None, None],
        np.diag([1.0, -1.0, 1.0]),
    ),
}


class TestGramPath:
    """Every carrier is built from its Gram diagonal, without an SVD."""

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_matches_svd_reference(self, name):
        alg = ORTHOGONAL_CARRIERS[name]()
        flat = alg.basis.reshape(alg.basis.shape[0], -1)
        gram = flat @ flat.conj().T
        assert np.array_equal(gram, np.diag(np.diagonal(gram)))
        s = np.linalg.svd(flat, compute_uv=False)
        assert alg.vector_dim == int(np.sum(s > 1e-12 * s[0]))
        pinv = np.linalg.pinv(flat, rcond=1e-12)
        rng = np.random.default_rng(12)
        d = alg.dim
        vs = random_complex(rng, 3, d, d)
        expected = vs.reshape(3, -1) @ pinv
        assert np.allclose(alg.coefficients(vs), expected, rtol=0, atol=1e-12)
        for v, coeffs in zip(vs, expected):
            assert np.allclose(alg.coefficients(v), coeffs, rtol=0, atol=1e-12)
            assert np.allclose(
                alg.project(v), (coeffs @ flat).reshape(d, d), rtol=0, atol=1e-12
            )
            assert np.allclose(alg.from_coefficients(coeffs), alg.project(v))

    def test_zero_element_rejected(self):
        # B(C^2) ⊕ C with a zero element appended: still orthogonal
        basis = FiniteCStarAlgebra((2, 1)).basis()
        basis = np.concatenate([basis, np.zeros_like(basis[:1])])
        with pytest.raises(ValidationError, match="basis contains a zero element"):
            KreinCStarAlgebra(basis, np.diag([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("validate", [True, False])
    def test_non_finite_basis_rejected(self, bad, validate):
        # checked once at construction, before the Gram test could call a
        # non-finite basis non-orthogonal
        basis = FiniteCStarAlgebra((2,)).basis()
        basis[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="non-finite entries"):
            KreinCStarAlgebra(basis, eta_pq(1, 1), validate=validate)

    @staticmethod
    def svd_shapes(monkeypatch):
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd",
            lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw),
        )
        return shapes

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_orthogonal_basis_takes_no_svd(self, name, monkeypatch):
        shapes = self.svd_shapes(monkeypatch)
        alg = ORTHOGONAL_CARRIERS[name]()
        # validation takes only the two d x d SVDs of its checks on eta:
        # every carrier-membership norm passes the Frobenius screen
        assert shapes == [(alg.dim, alg.dim)] * 2
        shapes.clear()
        KreinCStarAlgebra(alg.basis, alg.eta, validate=False)
        assert shapes == []

    def test_non_orthogonal_basis_rejected_without_svd(self, monkeypatch):
        units = FiniteCStarAlgebra((2,)).basis()
        mix = random_complex(np.random.default_rng(10), 4, 4) + 3 * np.eye(4)
        basis = np.tensordot(mix, units, axes=(1, 0))
        shapes = self.svd_shapes(monkeypatch)
        with pytest.raises(ValidationError, match="not Frobenius-orthogonal"):
            KreinCStarAlgebra(basis, eta_pq(1, 1), validate=False)
        assert shapes == []


class TestSupportPath:
    """The library's monomial algebras state their support and are read
    through its nonzeros; a basis given as a dense stack is read through its
    Gram matrix.  Both read the coordinates ⟨b_i, a⟩ / ‖b_i‖² and twist by
    eta a eta."""

    @pytest.mark.parametrize(
        "build, on_support",
        [
            (lambda: bounded_operators(2, 1), True),
            (scalar_krein_algebra, True),
            # a dense stack takes the Gram path, monomial or not
            (lambda: KreinCStarAlgebra(FiniteCStarAlgebra((2, 1)).basis(),
                                       eta_pq(2, 1)), False),
            (lambda: clifford_krein_algebra(PseudoEuclideanSpace(2, 1)), True),
            # gamma blades are monomial but overlap, q E_ii q† is dense
            (lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(2, 2))), False),
            (lambda: KreinCStarAlgebra(rotated_diagonal_basis(), np.eye(2)), False),
        ],
        ids=["B(C^{2,1})", "scalars", "blocks (2,1)", "clifford (2,1)",
             "gamma (2,2)", "rotated diagonal"],
    )
    def test_path_selection(self, build, on_support):
        assert (build()._support is not None) == on_support

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_matches_dense_formulas(self, name):
        alg = ORTHOGONAL_CARRIERS[name]()
        flat = alg.basis.reshape(alg.vector_dim, -1)
        norms_sq = np.einsum("ki,ki->k", flat.conj(), flat).real
        a = random_complex(np.random.default_rng(16), 2, 3, alg.dim, alg.dim)
        coeffs = (a.reshape(2, 3, -1).conj() @ flat.T).conj() / norms_sq
        eta = alg.eta
        bound = 4 * np.finfo(float).eps * np.abs(a).max()
        for got, expected in [
            (alg.coefficients(a), coeffs),
            (alg.project(a), (coeffs @ flat).reshape(a.shape)),
            (alg.star(a), eta @ a.conj().swapaxes(-1, -2) @ eta),
            (alg.alpha(a), eta @ a @ eta),
        ]:
            assert np.abs(got - expected).max() <= bound

    def test_zero_element_refused_before_any_coordinates(self, monkeypatch):
        # a zero element owns no entry, so summing each element's entries
        # would read its neighbour's; the norms refuse it first
        def no_coordinates(self, a):
            raise AssertionError("coordinates read before the zero check")

        monkeypatch.setattr(KreinCStarAlgebra, "coefficients", no_coordinates)
        units = FiniteCStarAlgebra((2, 1)).basis()
        basis = np.concatenate([units[:2], np.zeros_like(units[:1]), units[2:]])
        with pytest.raises(ValidationError, match="basis contains a zero element"):
            KreinCStarAlgebra(basis, eta_pq(2, 1))

    def test_declared_zero_element_refused_before_any_coordinates(self, monkeypatch):
        # element 2 owns no entry of the declared table
        def no_coordinates(self, a):
            raise AssertionError("coordinates read before the zero check")

        monkeypatch.setattr(KreinCStarAlgebra, "coefficients", no_coordinates)
        with pytest.raises(ValidationError, match="basis contains a zero element"):
            KreinCStarAlgebra._monomial(
                np.array([0, 1, 3, 4]), np.ones(4), eta_pq(1, 1), ""
            )

    def test_overlapping_monomials_refused(self):
        # E_11 and the identity are monomial and share the entry (0, 0)
        basis = np.stack([np.diag([1.0, 0.0]), np.eye(2)])
        with pytest.raises(ValidationError, match="not Frobenius-orthogonal"):
            KreinCStarAlgebra(basis, eta_pq(1, 1), validate=False)


def declared_clifford(p, q):
    space = PseudoEuclideanSpace(p, q)
    return (
        lambda: clifford_krein_algebra(space),
        lambda: _left_matrix(space, np.eye(space.grassmann_dim, dtype=complex)),
    )


# each declared algebra with the dense stack of its basis
DECLARED = {
    **{f"clifford ({p},{q})": declared_clifford(p, q)
       for p, q in ((2, 2), (3, 1), (0, 0))},
    "B(C^{2,1})": (
        lambda: bounded_operators(2, 1), lambda: FiniteCStarAlgebra((3,)).basis()
    ),
    "scalars": (scalar_krein_algebra, lambda: np.ones((1, 1, 1), dtype=complex)),
}


class TestDeclaredSupport:
    """The library's monomial algebras are built from their index tables:
    they read as their dense stacks do, and hold no stack until ``basis`` is
    read."""

    @pytest.mark.parametrize("name", DECLARED)
    def test_basis_synthesised_on_first_read(self, name):
        build, dense = DECLARED[name]
        alg = build()
        assert "basis" not in vars(alg)
        basis, expected = alg.basis, dense()
        assert "basis" in vars(alg)
        assert basis.dtype == expected.dtype and basis.shape == expected.shape
        assert basis.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", DECLARED)
    def test_maps_match_dense_stack(self, name):
        build, dense = DECLARED[name]
        alg = build()
        ref = KreinCStarAlgebra(dense(), alg.eta)
        a = random_complex(np.random.default_rng(20), 2, 3, alg.dim, alg.dim)
        bound = 4 * np.finfo(float).eps * np.abs(a).max()
        for f in ("coefficients", "project", "star", "alpha"):
            got, expected = getattr(alg, f)(a), getattr(ref, f)(a)
            assert np.abs(got - expected).max() <= bound, f
        assert "basis" not in vars(alg)

    def test_clifford_construction_holds_no_blade_tensor(self):
        # the N x N x N stack alone is N³ · 16 B = 4 MiB at (3,3)
        space = PseudoEuclideanSpace(3, 3)
        peak = TestStackedMaps.traced_peak(lambda: clifford_krein_algebra(space))
        assert peak < space.grassmann_dim**3 * 16 / 2


class TestSynthesis:
    """``from_coefficients`` is Σ_k c_k b_k of coordinates laid out as
    ``coefficients`` returns them, the last axis indexing the basis."""

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_stack_of_coordinates(self, name):
        alg = ORTHOGONAL_CARRIERS[name]()
        c = random_complex(np.random.default_rng(18), 2, 3, alg.vector_dim)
        expected = np.tensordot(c, alg.basis, axes=(-1, 0))
        bound = 4 * np.finfo(float).eps * np.abs(c).max() * np.abs(alg.basis).max()
        got = alg.from_coefficients(c)
        assert got.shape == (2, 3, alg.dim, alg.dim)
        assert np.abs(got - expected).max() <= bound

    def test_support_path_reads_no_dense_basis(self):
        alg = clifford_krein_algebra(PseudoEuclideanSpace(2, 1))
        assert alg._support is not None
        rng = np.random.default_rng(19)
        c = random_complex(rng, 3, alg.vector_dim)
        a = random_complex(rng, 3, alg.dim, alg.dim)
        before = alg.from_coefficients(c), alg.project(a)
        alg.basis = np.full_like(alg.basis, np.nan)
        after = alg.from_coefficients(c), alg.project(a)
        for old, new in zip(before, after):
            assert np.isfinite(new).all()
            assert np.array_equal(new, old)


class TestStackedMaps:
    """star, alpha and project of a stack are the per-element maps.

    star and alpha agree exactly.  project agrees to rounding: its
    coordinates are a matrix-vector product for one matrix and a
    matrix-matrix product for a stack, and BLAS sums those in different
    orders.
    """

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_stack_equals_per_element(self, name):
        alg = ORTHOGONAL_CARRIERS[name]()
        rng = np.random.default_rng(15)
        stack = random_complex(rng, 2, 3, alg.dim, alg.dim)
        for f in (alg.star, alg.alpha):
            expected = np.array([[f(a) for a in row] for row in stack])
            assert np.array_equal(f(stack), expected)
        expected = np.array([[alg.project(a) for a in row] for row in stack])
        bound = 4 * np.finfo(float).eps * np.abs(stack).max()
        assert np.abs(alg.project(stack) - expected).max() <= bound

    @pytest.mark.parametrize("name", ORTHOGONAL_CARRIERS)
    def test_stack_operand_checked(self, name):
        alg = ORTHOGONAL_CARRIERS[name]()
        d = alg.dim
        bad = np.ones((3, d, d), dtype=complex)
        bad[1, 0, 0] = np.nan
        for f in (alg.star, alg.alpha, alg.project):
            with pytest.raises(DimensionMismatchError):
                f(np.ones((3, d, d + 1)))
            with pytest.raises(ValidationError):
                f(bad)

    @staticmethod
    def construction_bases():
        """The Clifford (3,3) blades with their J as a dense stack, and their
        conjugates by the 64 x 64 Sylvester-Hadamard matrix h, a multiple of
        a real orthogonal matrix: dense, with integer entries, so that their
        Gram matrix is exactly diagonal.  Both are read through it."""
        space = PseudoEuclideanSpace(3, 3)
        basis = _left_matrix(space, np.eye(space.grassmann_dim, dtype=complex))
        eta = second_quantized_J(space)
        h = np.ones((1, 1))
        while len(h) < len(basis):
            h = np.block([[h, h], [h, -h]])
        return {
            "blades": (basis, eta),
            "conjugated blades": (h @ basis @ h.T, h @ eta @ h.T / len(h)),
        }

    @staticmethod
    def traced_peak(f) -> int:
        """Traced peak of f() beyond the memory held before, after a first
        call has loaded numpy's lazily initialised parts."""
        f()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def construction_peaks(self, validate: bool) -> dict:
        """Peak of building each construction basis's algebra, as a fraction
        of the basis bytes."""
        return {
            path: self.traced_peak(
                lambda: KreinCStarAlgebra(basis, eta, validate=validate)
            ) / basis.nbytes
            for path, (basis, eta) in self.construction_bases().items()
        }

    def test_gram_holds_one_block_of_the_basis(self):
        # the blocked Gram product conjugates an eighth of the basis at a
        # time
        peaks = self.construction_peaks(validate=False)
        assert max(peaks.values()) <= 0.25, peaks

    def test_closure_check_holds_a_fraction_of_the_basis(self):
        # one image stack, a sixteenth of the basis times two, and one
        # conjugate or projection of it
        peaks = self.construction_peaks(validate=True)
        assert max(peaks.values()) <= 0.4, peaks

    def test_project_holds_one_stack(self):
        # projecting an (8, N, N) stack on Clifford (3,3) through the
        # supports peaks no higher than the dense (8, N²) x (N², N) product
        # this basis took before they were read: the result, the (8, N)
        # coordinates and object overhead
        alg = clifford_krein_algebra(PseudoEuclideanSpace(3, 3))
        stack = random_complex(np.random.default_rng(17), 8, alg.dim, alg.dim)
        flat = alg.basis.reshape(alg.vector_dim, -1)
        norms_sq = np.einsum("ki,ki->k", flat.conj(), flat).real

        def dense():
            a = stack.reshape(len(stack), -1)
            coeffs = (a.conj() @ flat.T).conj() / norms_sq
            return (coeffs @ flat).reshape(stack.shape)

        assert alg._support is not None
        assert self.traced_peak(lambda: alg.project(stack)) <= self.traced_peak(dense)


class TestValidation:
    """The constructor's batched carrier checks, in their reporting order."""

    def test_complex_rotated_diagonal_algebra(self):
        # projecting onto the conjugate span would reject this basis
        basis = rotated_diagonal_basis()
        q = np.array([[3, 4j], [4j, 3]])
        alg = KreinCStarAlgebra(basis, np.eye(2))
        for b in basis:
            assert np.allclose(alg.project(b), b, atol=1e-12)
            assert alg.contains(b)
        assert not alg.contains(basis[0].conj())
        assert not alg.contains(q @ np.eye(2, k=1) @ q.conj().T)

    @pytest.mark.parametrize(
        "basis, eta, message",
        [
            (np.eye(2, k=1)[None], np.eye(2), "does not contain the identity"),
            # eta swaps e_1 and e_2, so alpha(E_11) = E_22 leaves
            # span{E_11, E_22 + E_33}
            (np.stack([np.diag([1.0, 0, 0]), np.diag([0.0, 1, 1])]),
             np.eye(3)[[1, 0, 2]], "not closed under alpha"),
            (np.stack([np.eye(2), np.eye(2, k=1)]), np.eye(2),
             "not closed under star"),
            # span{1, a} is *-closed, but a² = diag(1, 0, 1) leaves it
            (np.stack([np.eye(3), np.diag([1.0, 0, -1])]), np.eye(3),
             "not closed under products"),
        ],
    )
    def test_first_failure_message(self, basis, eta, message):
        with pytest.raises(ValidationError, match=message):
            KreinCStarAlgebra(np.asarray(basis, dtype=complex), eta)

    def test_first_outside_matches_all_svd_reference(self):
        # off-block perturbations are orthogonal to B(C^3) ⊕ B(C^2) ⊕ C, so
        # each residual is the perturbation, here 0.1 to 10 times the bound
        alg = KreinCStarAlgebra(FiniteCStarAlgebra((3, 2, 1)).basis(), eta_pq(3, 3))
        off_block = ~FiniteCStarAlgebra((3, 2, 1)).mask
        rng = np.random.default_rng(14)
        tol, found = 1e-9, set()
        for _ in range(100):
            x = np.stack([alg.random_element(rng) for _ in range(4)])
            pert = np.where(off_block, random_complex(rng, 4, 6, 6), 0)
            ratios = 10.0 ** rng.uniform(-1, 1, size=4)
            scale = np.maximum(np.linalg.svd(x, compute_uv=False)[:, 0], 1.0)
            pert *= (ratios * tol * scale
                     / np.linalg.svd(pert, compute_uv=False)[:, 0])[:, None, None]
            x = x + pert
            residual = np.stack([alg.project(a) - a for a in x])
            r = np.linalg.svd(residual, compute_uv=False)[:, 0]
            a = np.linalg.svd(x, compute_uv=False)[:, 0]
            outside = r > tol * np.maximum(a, 1.0)
            expected = int(np.argmax(outside)) if outside.any() else -1
            assert alg._first_outside(x, tol) == expected
            found.add(expected)
        assert found == {-1, 0, 1, 2, 3}

    @staticmethod
    def unit(i, j, d=64):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    @pytest.mark.parametrize("case", ["star", "alpha"])
    def test_failure_past_the_first_stack(self, case):
        # validation takes the images of 64 x 64 basis elements a few at a
        # time; the offending element comes after the 64 diagonal units
        if case == "star":
            # alpha(E_23) = E_23 but star(E_23) = E_32
            extra, eta = self.unit(2, 3), np.eye(64)
        else:
            # eta swaps e_0 and e_1: alpha and star both give E_12 + E_21
            extra = self.unit(0, 2) + self.unit(2, 0)
            eta = np.eye(64)[[1, 0, *range(2, 64)]]
        basis = np.concatenate([FiniteCStarAlgebra((1,) * 64).basis(), extra[None]])
        with pytest.raises(ValidationError, match=f"not closed under {case}"):
            KreinCStarAlgebra(basis, eta)


class TestClosureCheckWhereItCanFail:
    """d² pairwise orthogonal nonzero elements span all of M_d, so construction
    runs no closure check there; any smaller carrier keeps every check."""

    BUILDS = {
        "B(C^{2,2})": (lambda: bounded_operators(2, 2), False),
        "gamma (3,3)": (lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(3, 3))),
                        False),
        "scalars": (scalar_krein_algebra, False),
        "clifford (2,2)": (lambda: clifford_krein_algebra(PseudoEuclideanSpace(2, 2)),
                           True),
        "blocks (2,1) dense": (
            lambda: KreinCStarAlgebra(FiniteCStarAlgebra((2, 1)).basis(), eta_pq(2, 1)),
            True,
        ),
    }

    @pytest.mark.parametrize("name", list(BUILDS))
    def test_closure_checked_only_below_full_dimension(self, name, monkeypatch):
        build, checked = self.BUILDS[name]
        calls = []
        first_outside = KreinCStarAlgebra._first_outside
        monkeypatch.setattr(
            KreinCStarAlgebra, "_first_outside",
            lambda alg, *args: calls.append(args) or first_outside(alg, *args),
        )
        alg = build()
        assert (alg.vector_dim < alg.dim**2) == checked
        assert bool(calls) == checked


class TestFiniteCStarAlgebra:
    def test_dims(self):
        alg = FiniteCStarAlgebra((2, 1))
        assert alg.dim == 3
        assert alg.vector_dim == 5

    def test_projection_is_blockwise(self):
        alg = FiniteCStarAlgebra((2, 1))
        m = np.ones((3, 3), dtype=complex)
        p = alg.project(m)
        assert p[0, 2] == 0 and p[2, 0] == 0 and p[0, 1] == 1

    def test_random_element_in_blocks(self):
        alg = FiniteCStarAlgebra((2, 2))
        a = alg.random_element(np.random.default_rng(0))
        assert alg.contains(a)

    @pytest.mark.parametrize("blocks", [(1,), (3,), (2, 1, 3), (1, 1, 1)])
    def test_basis_matches_per_unit_reference(self, blocks):
        alg = FiniteCStarAlgebra(blocks)
        ref, off = [], 0
        for k in blocks:
            for i in range(k):
                for j in range(k):
                    unit = np.zeros((alg.dim, alg.dim), dtype=complex)
                    unit[off + i, off + j] = 1.0
                    ref.append(unit)
            off += k
        assert np.array_equal(alg.basis(), np.stack(ref))

    def test_commutative_case(self):
        alg = functions_on_points(4)
        a = alg.random_element(np.random.default_rng(1))
        b = alg.random_element(np.random.default_rng(2))
        assert operator_norm(a @ b - b @ a) < 1e-12


class TestKreinInvolution:
    def test_identity_fixed(self):
        A = bounded_operators(1, 1)
        assert np.allclose(A.star(np.eye(2)), np.eye(2))

    def test_nilpotent_on_c11(self):
        # eta a† eta for a = [[0,1],[0,0]], eta = diag(1,-1)
        A = bounded_operators(1, 1)
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.array([[0, 0], [-1, 0]], dtype=complex)
        assert np.allclose(A.star(a), expected, atol=1e-14)

    def test_fixes_hermitian_commuting_with_eta(self):
        A = bounded_operators(1, 1)
        a = np.diag([2.0, 5.0]).astype(complex)
        assert np.allclose(A.star(a), a)

    def test_adjoint_identity_for_indefinite_form(self):
        # form(a x, y) == form(x, star(a) y) with form(x, y) = x† eta y
        A = bounded_operators(2, 1)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = A.random_element(rng)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = (a @ x).conj() @ A.eta @ y
            rhs = x.conj() @ A.eta @ (A.star(a) @ y)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


class TestFundamentalSymmetry:
    def test_eta_fixed(self):
        A = bounded_operators(1, 1)
        assert np.allclose(A.alpha(A.eta), A.eta)

    def test_nilpotent(self):
        A = bounded_operators(1, 1)
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(
            A.alpha(a), np.array([[0, -1], [0, 0]]), atol=1e-14
        )

    def test_commuting_element_fixed(self):
        A = bounded_operators(1, 1)
        a = np.diag([3.0, 7.0]).astype(complex)
        assert np.allclose(A.alpha(a), a)


class TestTriviallyDefinite:
    def test_eta_plus_or_minus_identity(self):
        # eta = -1 gives star(a) = a† and alpha = id, as eta = 1 does
        definite = [bounded_operators(p, q).is_trivially_definite
                    for p, q in ((2, 0), (0, 2), (1, 1))]
        assert definite == [True, True, False]


class TestCStarNorm:
    def test_identity(self):
        A = bounded_operators(2, 2)
        assert A.norm(np.eye(4)) == pytest.approx(1.0)

    def test_single_singular_value(self):
        A = bounded_operators(1, 1)
        a = np.array([[0, 2], [0, 0]], dtype=complex)
        assert A.norm(a) == pytest.approx(2.0)

    def test_twisted_cstar_identity_sweep(self):
        A = bounded_operators(2, 1)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            a = A.random_element(rng)
            n = A.norm(a)
            lhs = A.norm(A.alpha(A.star(a)) @ a)
            worst = max(worst, abs(lhs - n * n) / (n * n))
        assert worst < 1e-9


class TestEvenOddSplit:
    def test_eta_is_even(self):
        A = bounded_operators(1, 1)
        even, odd = even_odd_split(A, A.eta)
        assert np.allclose(even, A.eta) and np.allclose(odd, 0)

    def test_offdiagonal_is_odd(self):
        A = bounded_operators(1, 1)
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        even, odd = even_odd_split(A, a)
        assert np.allclose(even, 0) and np.allclose(odd, a)

    def test_identity_is_even(self):
        A = bounded_operators(2, 1)
        even, odd = even_odd_split(A, np.eye(3))
        assert np.allclose(even, np.eye(3)) and np.allclose(odd, 0)

    def test_reconstruction_and_grading(self):
        A = bounded_operators(2, 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = A.random_element(rng), A.random_element(rng)
            ea, oa = even_odd_split(A, a)
            eb, ob = even_odd_split(A, b)
            assert operator_norm(ea + oa - a) < 1e-12
            assert operator_norm(even_odd_split(A, oa @ ob)[1]) < 1e-10
            assert operator_norm(even_odd_split(A, ea @ ob)[0]) < 1e-10


class TestAxiomChecker:
    def test_c11_passes(self):
        report = check_krein_cstar_axioms(bounded_operators(1, 1), samples=500, seed=7)
        assert report.passed, report.to_text()

    def test_plain_cstar_degenerate_case(self):
        # eta = identity: alpha is the identity automorphism
        A = KreinCStarAlgebra(FiniteCStarAlgebra((2,)).basis(), np.eye(2))
        assert A.is_trivially_definite
        a = A.random_element(np.random.default_rng(0))
        assert np.allclose(A.alpha(a), a)
        report = check_krein_cstar_axioms(A, samples=100, seed=1)
        assert report.passed

    def test_corrupted_eta_fails(self):
        basis = FiniteCStarAlgebra((2,)).basis()
        bad_eta = np.diag([1.0, -2.0]).astype(complex)
        with pytest.raises(ValidationError):
            KreinCStarAlgebra(basis, bad_eta)
        # the checker itself reports (not raises) when validation is skipped
        A = KreinCStarAlgebra(basis, bad_eta, validate=False)
        report = check_krein_cstar_axioms(A, samples=50, seed=2)
        failed = {r.name for r in report.failures()}
        assert "eta involutive" in failed

    def test_block_algebra_with_eta(self):
        # commutative functions on 4 points, pointwise signs (+,+,-,-)
        A = KreinCStarAlgebra(FiniteCStarAlgebra((1, 1, 1, 1)).basis(), eta_pq(2, 2))
        report = check_krein_cstar_axioms(A, samples=200, seed=3)
        assert report.passed, report.to_text()

    def test_deterministic_for_fixed_seed(self):
        r1 = check_krein_cstar_axioms(bounded_operators(2, 1), samples=50, seed=11)
        r2 = check_krein_cstar_axioms(bounded_operators(2, 1), samples=50, seed=11)
        assert r1.to_json() == r2.to_json()
