import tracemalloc

import numpy as np
import pytest

from kreinmod.algebra import (
    CLOSURE_TOL,
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
    _Monomials,
    gaussians,
    operator_norm,
    random_complex,
)

EPS = np.finfo(float).eps


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


def clifford(p, q):
    return lambda: clifford_krein_algebra(PseudoEuclideanSpace(p, q))


def gamma(p, q):
    return lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(p, q)))


CLIFFORD_SIGNATURES = ((0, 0), (1, 1), (2, 2), (3, 3))
GAMMA_SIGNATURES = ((1, 1), (2, 2), (1, 3), (3, 3))

ORTHOGONAL_CARRIERS = {
    **{f"clifford ({p},{q})": clifford(p, q)
       for p, q in (*CLIFFORD_SIGNATURES, (3, 1), (2, 1))},
    **{f"gamma ({p},{q})": gamma(p, q) for p, q in GAMMA_SIGNATURES},
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
        # validation takes no SVD: each eta here is monomial with unit
        # entries, so its hermitian and involution residuals are exactly
        # zero, and every carrier-membership norm passes the Frobenius screen
        assert shapes == []
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
    """The library's monomial algebras are held by their nonzeros
    (``linalg._Monomials``); a basis given as a dense stack is read through
    its Gram matrix.  Both read the coordinates ⟨b_i, a⟩ / ‖b_i‖² and twist
    by eta a eta."""

    @pytest.mark.parametrize(
        "build, on_support",
        [
            (lambda: bounded_operators(2, 1), True),
            (scalar_krein_algebra, True),
            # a dense stack takes the Gram path, monomial or not
            (lambda: KreinCStarAlgebra(FiniteCStarAlgebra((2, 1)).basis(),
                                       eta_pq(2, 1)), False),
            (lambda: clifford_krein_algebra(PseudoEuclideanSpace(2, 1)), True),
            # gamma blades share their entries, s of them each, and are held
            # by their nonzeros all the same; q E_ii q† is dense
            (lambda: gamma_algebra(gamma_rep(PseudoEuclideanSpace(2, 2))), True),
            (lambda: KreinCStarAlgebra(rotated_diagonal_basis(), np.eye(2)), False),
        ],
        ids=["B(C^{2,1})", "scalars", "blocks (2,1)", "clifford (2,1)",
             "gamma (2,2)", "rotated diagonal"],
    )
    def test_path_selection(self, build, on_support):
        assert (build()._monomials is not None) == on_support

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
        # element 2 holds only a slot of value 0
        def no_coordinates(self, a):
            raise AssertionError("coordinates read before the zero check")

        monkeypatch.setattr(KreinCStarAlgebra, "coefficients", no_coordinates)
        units = _Monomials(
            2, [[0], [1], [0], [0], [1]], [[1], [1], [0], [1], [1]],
            [[0], [0], [0], [1], [1]],
        )
        with pytest.raises(ValidationError, match="basis contains a zero element"):
            KreinCStarAlgebra._monomial(units, eta_pq(1, 1), "")

    def test_overlapping_monomials_refused(self):
        # E_11 and the identity are monomial and share the entry (0, 0)
        basis = np.stack([np.diag([1.0, 0.0]), np.eye(2)])
        with pytest.raises(ValidationError, match="not Frobenius-orthogonal"):
            KreinCStarAlgebra(basis, eta_pq(1, 1), validate=False)


# the dense references add 0, which turns their products' signed zeros into
# +0: a basis scattered from its nonzeros holds +0 at every other entry
def declared_clifford(p, q):
    space = PseudoEuclideanSpace(p, q)
    return (
        clifford(p, q),
        lambda: _left_matrix(space, np.eye(space.grassmann_dim, dtype=complex)) + 0,
    )


def gamma_blades(rep):
    """The gamma blades by the dense recursion from the generator blades
    γ(e_i) = ``rep.blades[1 << i]``: appending γ(e_i) doubles the list from
    the blades below 2^i."""
    n = rep.space.n
    basis = np.eye(rep.spinor_dim, dtype=complex)[None]
    for g in rep.blades[1 << np.arange(n)].synthesis(np.eye(n)):
        basis = np.concatenate([basis, basis @ g])
    return basis + 0


# each algebra held by its nonzeros with the dense stack of its basis
DECLARED = {
    **{f"clifford ({p},{q})": declared_clifford(p, q)
       for p, q in (*CLIFFORD_SIGNATURES, (3, 1))},
    **{f"gamma ({p},{q})": (
        gamma(p, q), lambda p=p, q=q: gamma_blades(gamma_rep(PseudoEuclideanSpace(p, q)))
    ) for p, q in GAMMA_SIGNATURES},
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

    @pytest.mark.parametrize("name", DECLARED)
    def test_format_matches_dense_references(self, name):
        build, dense = DECLARED[name]
        m, basis = build()._monomials, dense()
        k, d = basis.shape[:2]
        eye, rng = np.eye(k), np.random.default_rng(21)
        assert np.array_equal(m.synthesis(eye), basis)
        c = random_complex(rng, 2, k)
        bound = 4 * EPS * np.abs(c).max() * np.abs(basis).max()
        assert np.abs(m.synthesis(c) - np.tensordot(c, basis, axes=(-1, 0))).max() <= bound
        a = random_complex(rng, 2, d, d)
        flat = basis.reshape(k, -1)
        coeffs = a.reshape(2, -1) @ flat.conj().T / np.linalg.norm(flat, axis=1) ** 2
        assert np.abs(m.coefficients(a) - coeffs).max() <= 4 * EPS * np.abs(a).max() * d
        assert np.array_equal(m.adjoint().synthesis(eye), basis.conj().swapaxes(1, 2))
        assert np.array_equal(m.diagonal().sum(axis=-1), np.trace(basis, axis1=1, axis2=2))
        if m.cols.shape[-1] == d:
            assert np.array_equal(m.diagonal(), np.diagonal(basis, axis1=1, axis2=2))
        # each element times a signed permutation with phases ±1, ±i, so that
        # both products are exact
        perms = np.argsort(rng.random((k, d)), axis=-1)
        phases = 1j ** rng.integers(4, size=(k, d))
        other = _Monomials(d, perms, phases)
        expected = basis @ other.synthesis(eye)
        assert np.array_equal(m.product(other).synthesis(eye), expected)
        # the structural read, of the basis and of a matrix with a row of two
        assert np.array_equal(_Monomials.read(basis).synthesis(eye), basis)
        assert _Monomials.read(np.ones((1, 2, 2))) is None

    def test_matrix_units_hold_one_slot_each(self):
        # the d² = 40,000 units of B(C^{100,100}) hold one slot each; a slot
        # per row of each unit would be d³ = 8·10⁶ slots, about 192 MB
        def build_and_read():
            alg = bounded_operators(100, 100)
            alg.coefficients(alg.random_element(np.random.default_rng(0)))

        assert TestStackedMaps.traced_peak(build_and_read) < 16 * 2**20

    def test_clifford_construction_holds_no_blade_tensor(self):
        # a few N x N arrays at a time: the closure sample draws and checks
        # one product pair at a time (an N x N x N blade stack would be
        # N³ · 16 B, 4 MiB at (3,3))
        for p, q in ((3, 3), (4, 3)):
            space = PseudoEuclideanSpace(p, q)
            peak = TestStackedMaps.traced_peak(lambda: clifford_krein_algebra(space))
            assert peak < 16 * space.grassmann_dim**2 * 16, (p, q)


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
        assert alg._monomials is not None
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
        # the closure check synthesises one element at a time, so the Gram
        # product's block stays the peak
        peaks = self.construction_peaks(validate=True)
        assert max(peaks.values()) <= 0.25, peaks

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

        assert alg._monomials is not None
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


def clifford_table(p, q):
    """The owner and value of each entry of the Clifford (p,q) blades, and J."""
    space = PseudoEuclideanSpace(p, q)
    blade, signs = space.product_table
    eta = second_quantized_J(space)
    return blade.ravel().copy(), signs.ravel().astype(complex), eta


def held(owner, values, d):
    """The elements of a table of the d² entries r·d + t, each entry's owner
    and value, as ``_Monomials`` with each element's entries in row order and
    padded by slots of value 0; None if an element holds two nonzeros in one
    row, which the format cannot hold."""
    order = np.argsort(owner, kind="stable")
    element, live = owner[order], values[order] != 0
    counts = np.bincount(element)
    slot = np.arange(len(order)) - (np.cumsum(counts) - counts)[element]
    rows, cols = np.zeros((2, len(counts), counts.max()), dtype=int)
    vals = np.zeros(rows.shape, dtype=complex)
    rows[element, slot], cols[element, slot] = np.divmod(order, d)
    vals[element, slot] = values[order]
    key = (element * d + order // d)[live]
    return None if len(np.unique(key)) < len(key) else _Monomials(d, cols, vals, rows)


class TestClosureOnSupport:
    """With a diagonal eta, construction on monomials decides closure under
    alpha and star on the slots: it accepts and refuses what the dense
    slices do, with the same message."""

    @pytest.mark.parametrize("p, q", [(p, q) for p in range(4) for q in range(4)])
    def test_clifford_accepted_on_both_paths(self, p, q):
        alg = clifford_krein_algebra(PseudoEuclideanSpace(p, q))
        assert alg._monomials is not None and alg._eta_outer is not None
        KreinCStarAlgebra(alg.basis, alg.eta)

    @staticmethod
    def flip_sign(owner, values):
        values[np.flatnonzero(owner == 1)[0]] *= -1

    @staticmethod
    def move_to_other_parity(owner, values):
        # blade 1, a positive generator, commutes with J; blade 4, a negative
        # one, anticommutes: their entries in row 0, (0, 1) and (0, 4), trade
        # owners, so that each blade still holds one entry per row
        owner[[1, 4]] = owner[[4, 1]]

    @pytest.mark.parametrize(
        "corrupt, message",
        [(flip_sign, "not closed under star"),
         (move_to_other_parity, "not closed under alpha")],
        ids=["flipped sign", "moved entry"],
    )
    def test_corrupted_table_refused_alike(self, corrupt, message):
        owner, values, eta = clifford_table(2, 2)
        corrupt(owner, values)
        builds = self.both_paths(owner, values, eta)
        assert None not in builds
        for build in builds:
            with pytest.raises(ValidationError, match=message):
                build()

    @staticmethod
    def both_paths(owner, values, eta):
        """Builds of a table on monomials, None if the format cannot hold it,
        and as a dense stack."""
        d = len(eta)
        dense = np.zeros((owner.max() + 1, d * d), dtype=complex)
        dense[owner, np.arange(d * d)] = values
        monomials = held(owner, values, d)
        return (
            None if monomials is None
            else lambda: KreinCStarAlgebra._monomial(monomials, eta, ""),
            lambda: KreinCStarAlgebra(dense.reshape(-1, d, d), eta),
        )

    @staticmethod
    def outcome(build):
        try:
            build()
        except ValidationError as error:
            return str(error)
        return None

    @staticmethod
    def edited_tables(seed):
        """200 small tables, each with one to four edits: an entry moved to
        another or a new element, its sign flipped, doubled or zeroed.  A move
        to an element that holds the row already makes a table the format
        cannot hold, about half of them."""
        rng = np.random.default_rng(seed)
        for trial in range(200):
            signature = [(1, 1), (2, 1), (1, 2), (2, 0)][trial % 4]
            owner, values, eta = clifford_table(*signature)
            for _ in range(rng.integers(1, 5)):
                j, edit = rng.integers(len(owner)), rng.integers(4)
                if edit == 0:
                    owner[j] = rng.integers(owner.max() + 2)
                else:
                    values[j] *= (-1, 2, 0)[edit - 1]
            yield trial, owner, values, eta

    def test_random_corruptions_refused_alike(self):
        outcomes, compared = set(), 0
        for trial, owner, values, eta in self.edited_tables(23):
            monomial, dense = self.both_paths(owner, values, eta)
            if monomial is not None:
                assert self.outcome(monomial) == self.outcome(dense), trial
                outcomes.add(self.outcome(dense))
                compared += 1
        closure = {f"carrier is not closed under {m}" for m in ("alpha", "star")}
        assert {None, *closure} <= outcomes and compared >= 80

    def test_random_corruptions_read_alike(self, monkeypatch):
        # the same kind of edits with construction's checks off: the slots
        # decide the elements they can and the rest are swept, so both paths
        # give the same closure values
        monkeypatch.setattr(KreinCStarAlgebra, "_validate", lambda alg: None)
        compared = 0
        for _, owner, values, eta in self.edited_tables(29):
            monomial, dense = self.both_paths(owner, values, eta)
            if monomial is not None:
                np.testing.assert_allclose(
                    monomial()._closure_defects, dense()._closure_defects,
                    rtol=0, atol=16 * EPS,
                )
                compared += 1
        assert compared >= 80

    @staticmethod
    def table(d, elements):
        """The owner and value of each entry of M_d: the given elements, each
        {(r, t): value}, then every other entry as an element of value 1."""
        owner, values = np.full(d * d, -1), np.ones(d * d, dtype=complex)
        for k, cells in enumerate(elements):
            for (r, t), v in cells.items():
                owner[r * d + t], values[r * d + t] = k, v
        rest = owner < 0
        owner[rest] = len(elements) + np.arange(rest.sum())
        return owner, values

    @pytest.mark.parametrize(
        "elements",
        [
            # two entries in a column: the alpha image lands on the element
            # itself, with a repeated column, and the star image is a row of
            # two, held by two elements
            [{(0, 1): 1, (2, 1): 2}],
            # star(E_01) lands on one of the two entries of another element
            [{(0, 1): 1}, {(1, 0): 3, (2, 2): 1}],
        ],
        ids=["repeated row", "part of an element"],
    )
    def test_elements_the_support_cannot_read_are_swept(self, elements, monkeypatch):
        # each value differs from the largest entry moduli of b and of the
        # residual, so reading these elements on the slots would show
        monkeypatch.setattr(KreinCStarAlgebra, "_validate", lambda alg: None)
        owner, values = self.table(3, elements)
        support, dense = (
            build() for build in self.both_paths(owner, values, eta_pq(2, 1))
        )
        assert support._closure_defects.max() >= 0.3
        np.testing.assert_allclose(
            support._closure_defects, dense._closure_defects, rtol=0, atol=16 * EPS
        )

    def test_star_image_inside_a_larger_element(self):
        # star(E_01) = E_10 is a part of element 3, E_10 + E_23, and element
        # 2, E_03 + E_12, fails alpha: element 1 is refused first only if its
        # star image must cover the whole element it lands on
        elements = [[(0, 0), (1, 1), (2, 2), (3, 3)], [(0, 1)], [(0, 3), (1, 2)],
                    [(1, 0), (2, 3)]]
        taken = {cell for cells in elements for cell in cells}
        elements += [[(r, t)] for r in range(4) for t in range(4)
                     if (r, t) not in taken]
        owner = np.empty(16, dtype=int)
        for k, cells in enumerate(elements):
            for r, t in cells:
                owner[4 * r + t] = k
        for build in self.both_paths(owner, np.ones(16), eta_pq(3, 1)):
            with pytest.raises(ValidationError, match="not closed under star"):
                build()

    @staticmethod
    def decided_and_swept(alg, monkeypatch):
        """The closure defects the support decides, twisting no element, and
        those of the same elements as a dense stack, which twists each one."""
        twisted, twist = [], KreinCStarAlgebra._twist
        monkeypatch.setattr(
            KreinCStarAlgebra, "_twist", lambda a, x: twisted.append(x) or twist(a, x)
        )
        alg.__dict__.pop("_closure_defects", None)  # computed again, watched
        decided = alg._closure_defects
        assert twisted == []
        dense = KreinCStarAlgebra(alg.basis, alg.eta, validate=False)
        swept = dense._closure_defects
        assert dense._monomials is None and len(twisted) == 2 * alg.vector_dim
        return decided, swept

    # B(C^{p,q}) at three sizes and Clifford at every signature with p + q ≤ 6
    DECIDED = {
        **{f"B(C^{{{p},{q}}})": lambda p=p, q=q: bounded_operators(p, q)
           for p, q in ((1, 1), (2, 1), (3, 2))},
        **{f"clifford ({p},{n - p})":
           lambda p=p, q=n - p: clifford_krein_algebra(PseudoEuclideanSpace(p, q))
           for n in range(7) for p in range(n + 1)},
    }

    @pytest.mark.parametrize("name", list(DECIDED))
    def test_decided_closure_matches_the_sweep(self, name, monkeypatch):
        decided, swept = self.decided_and_swept(self.DECIDED[name](), monkeypatch)
        assert np.array_equal(decided, swept)
        assert not decided.any()

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (0, 2), (2, 2), (3, 1), (3, 3)])
    def test_near_closed_value_matches_the_sweep(self, p, q, monkeypatch):
        # the first entry of the pseudoscalar scaled by 1 + 1e-11: star(b)
        # misses b there and at the transposed entry, by about 1e-11
        owner, values, eta = clifford_table(p, q)
        values[np.flatnonzero(owner == owner.max())[0]] *= 1 + 1e-11
        alg = KreinCStarAlgebra._monomial(held(owner, values, len(eta)), eta, "")
        decided, swept = self.decided_and_swept(alg, monkeypatch)
        assert 0.5e-11 < decided.max() < CLOSURE_TOL
        # each residual is formed from entries of modulus about 1, so the two
        # agree to a few rounding errors of 1, not relative to the value
        np.testing.assert_allclose(decided, swept, rtol=0, atol=8 * EPS)

    def test_no_closure_slices(self, monkeypatch):
        # construction twists an element only to sweep it: the support
        # decides every blade, and a dense stack sweeps each one
        calls, twisted = [], []
        first_outside = KreinCStarAlgebra._first_outside
        twist = KreinCStarAlgebra._twist
        monkeypatch.setattr(
            KreinCStarAlgebra, "_first_outside",
            lambda alg, x, *args: calls.append(x) or first_outside(alg, x, *args),
        )
        monkeypatch.setattr(
            KreinCStarAlgebra, "_twist", lambda alg, a: twisted.append(a) or twist(alg, a)
        )
        alg = clifford_krein_algebra(PseudoEuclideanSpace(3, 3))
        identity, *products = calls
        assert np.array_equal(identity, np.eye(alg.dim)[None])
        assert sum(len(x) for x in products) == 8
        assert twisted == []
        calls.clear()
        KreinCStarAlgebra(alg.basis, alg.eta)
        assert len(calls) == 1 + len(products)
        assert len(twisted) == 2 * alg.vector_dim


class TestDraws:
    """A carrier element is drawn as the coordinates g_k / ‖b_k‖_F of i.i.d.
    complex standard normal g, in the order ``linalg.gaussians`` lays it out."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_units_read_the_matrix_stream(self, seed):
        a = bounded_operators(2, 1).random_element(np.random.default_rng(seed))
        assert np.array_equal(a, random_complex(np.random.default_rng(seed), 3, 3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clifford_coordinates_read_the_coordinate_stream(self, seed):
        alg = clifford_krein_algebra(PseudoEuclideanSpace(2, 2))
        norms = np.linalg.norm(alg.basis.reshape(alg.vector_dim, -1), axis=1)
        a = alg.random_element(np.random.default_rng(seed))
        (g,) = gaussians(np.random.default_rng(seed), 1, (16,))
        np.testing.assert_allclose(alg.coefficients(a) * norms, g[0], rtol=4 * EPS)


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
