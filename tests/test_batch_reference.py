"""Batched law tables against a per-sample loop.

Each test replays the RNG stream of one table sample by sample, evaluates
the laws with the unbatched formulas on d x d matrices and vectors, and
compares the worst value of each law with the record the batched table
wrote: every law is relative, so they agree to 4·eps.
"""

from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from kreinmod.algebra import bounded_operators, check_krein_cstar_axioms
from kreinmod.checker import CheckConfig, run
from kreinmod.clifford import (
    MultiVector,
    PseudoEuclideanSpace,
    clifford_action,
    clifford_krein_algebra,
    conjugate_reversal_coeffs,
    grassmann_inner,
    second_quantized_J,
    vector,
    wedge,
)
from kreinmod.correspondence import (
    _identification,
    _intertwining_defect,
    spinor_correspondence,
    spinor_factorization_check,
)
from kreinmod.krein_over_krein import check_module_over_krein, operator_bimodule
from kreinmod.linalg import gaussians, numerical_rank, random_complex

EPS = np.finfo(float).eps


def opnorm(m) -> float:
    return float(np.linalg.norm(m, 2))


def assert_matches(report, reference):
    """Every law of ``reference`` (name -> per-sample values) has the worst
    value the report recorded, to 4·eps."""
    records = {r.name: r.max_violation for r in report.records}
    for name, values in reference.items():
        worst = max(values, default=0.0)
        assert abs(records[name] - worst) <= 4 * EPS, (name, records[name], worst)


def axioms_reference(alg, samples, seed):
    rng = np.random.default_rng(seed)
    out = defaultdict(list)
    for _ in range(samples):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        z = complex(*rng.standard_normal(2))
        na, nb = max(opnorm(a), 1e-30), max(opnorm(b), 1e-30)
        sa, aa = alg.star(a), alg.alpha(a)
        even, odd = (a + aa) / 2, (a - aa) / 2
        odd_b = (b - alg.alpha(b)) / 2
        star, alpha, project = alg.star, alg.alpha, alg.project
        values = {
            "star involutive": opnorm(star(sa) - a) / na,
            "star antimultiplicative": opnorm(star(a @ b) - star(b) @ sa) / (na * nb),
            "star conjugate-linear": opnorm(
                star(z * a + b) - (np.conj(z) * sa + star(b))
            ) / (abs(z) * na + nb),
            "alpha involutive": opnorm(alpha(aa) - a) / na,
            "alpha multiplicative": opnorm(alpha(a @ b) - aa @ alpha(b)) / (na * nb),
            "alpha star-compatible": opnorm(alpha(sa) - star(aa)) / na,
            "alpha(star(a)) is plain adjoint": opnorm(alpha(sa) - a.conj().T) / na,
            "sampled closure": max(
                opnorm(project(aa) - aa), opnorm(project(sa) - sa)
            ) / na,
            "cstar identity": abs(opnorm(alpha(sa) @ a) - na * na) / (na * na),
            "norm submultiplicative": max(0.0, opnorm(a @ b) - na * nb) / (na * nb),
            "even part alpha-fixed": max(
                opnorm(alpha(even) - even) / na, opnorm(alpha(odd) + odd) / na
            ),
            # the odd part of odd·odd and the even part of even·odd
            "odd times odd is even": max(
                opnorm((odd @ odd_b - alpha(odd @ odd_b)) / 2) / (na * nb),
                opnorm((even @ odd_b + alpha(even @ odd_b)) / 2) / (na * nb),
            ),
        }
        for name, v in values.items():
            out[name].append(v)
    # linear, so decided on the basis: each element's images against their
    # projections, relative to the element's norm
    out["carrier closed under alpha and star"] = [
        max(opnorm(project(alpha(b)) - alpha(b)), opnorm(project(star(b)) - star(b)))
        / opnorm(b)
        for b in alg.basis
    ]
    return out


def test_krein_axioms_on_b21():
    alg = bounded_operators(2, 1)
    report = check_krein_cstar_axioms(alg, samples=60, seed=3)
    reference = axioms_reference(alg, 60, 3)
    # the sampled form of closure, the table's law before it was decided
    assert max(reference.pop("sampled closure")) <= 1e-10
    assert len(reference) == 12
    assert_matches(report, reference)


def module_reference(m, samples, seed):
    alg, la = m.algebra, m.left_algebra
    rng = np.random.default_rng(seed)

    def pairing(x, y):
        return np.einsum("i,j,ijab->ab", x.conj(), y, m.inner)

    def pairing_left(x, y):
        return np.einsum("i,j,ijab->ab", x, y.conj(), m.left_inner)

    def act(x, b):
        return np.tensordot(alg.coefficients(b), m.action, axes=(0, 0)) @ x

    def left(c, x):
        return np.tensordot(la.coefficients(c), m.left_action, axes=(0, 0)) @ x

    def j(x):
        return m.symmetry @ x

    out = defaultdict(list)
    for _ in range(samples):
        x, y = random_complex(rng, m.dim), random_complex(rng, m.dim)
        a, b = alg.random_element(rng), alg.random_element(rng)
        c, d = la.random_element(rng), la.random_element(rng)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        na, nb = opnorm(a), opnorm(b)
        nc, nd = opnorm(c), opnorm(d)
        sxy = nx * ny
        p, pj = pairing(x, y), pairing(j(x), j(y))
        aux = pairing(x, j(x))
        herm = (aux + aux.conj().T) / 2
        psd = np.linalg.eigvalsh(herm)[0] >= -1e-9 * max(opnorm(aux), 1.0)
        even, odd = (p + alg.alpha(p)) / 2, (p - alg.alpha(p)) / 2
        values = {
            "action associative":
                np.linalg.norm(act(act(x, a), b) - act(x, a @ b)) / (nx * na * nb),
            "inner right-linear": opnorm(pairing(x, act(y, b)) - p @ b) / (sxy * nb),
            "J twists over alpha":
                np.linalg.norm(j(act(x, b)) - act(j(x), alg.alpha(b))) / (nx * nb),
            "alpha of inner is inner of J pair": opnorm(alg.alpha(p) - pj) / sxy,
            "auxiliary product positive": max(
                opnorm(aux - aux.conj().T) / (nx * nx), 0.0 if psd else 1.0
            ),
            "even odd parts exchange under J": opnorm(pj - (even - odd)) / sxy,
            "left action associative":
                np.linalg.norm(left(c, left(d, x)) - left(c @ d, x)) / (nx * nc * nd),
            "actions commute":
                np.linalg.norm(left(c, act(x, b)) - act(left(c, x), b))
                / (nx * nc * nb),
            "J twists over left alpha":
                np.linalg.norm(j(left(c, x)) - left(la.alpha(c), j(x))) / (nx * nc),
            "left inner left-linear": opnorm(
                pairing_left(left(c, x), y) - c @ pairing_left(x, y)
            ) / (sxy * nc),
        }
        for name, v in values.items():
            out[name].append(v)
    # decided on the carrier basis, one value per pair: star(⟨e_i, e_j⟩) = ⟨e_j, e_i⟩
    units = np.eye(m.dim)
    out["inner star-hermitian"] = [
        opnorm(alg.star(pairing(units[i], units[j])) - pairing(units[j], units[i]))
        for i, j in product(range(m.dim), repeat=2)
    ]
    return out


def test_module_over_krein_on_operator_bimodule():
    m = operator_bimodule(bounded_operators(1, 1), bounded_operators(2, 1))
    report = check_module_over_krein(m, samples=40, seed=5)
    reference = module_reference(m, 40, 5)
    assert len(reference) == 11
    assert_matches(report, reference)


@pytest.mark.parametrize("samples", [30, 60])
def test_clifford_tables_at_21(samples):
    """The star law, the one sampled Clifford table that reads the scenario's
    RNG, and the laws decided on the blades; the algebra axioms draw from
    their own seed."""
    seed = 4
    space = PseudoEuclideanSpace(2, 1)
    n, nmv = space.n, space.grassmann_dim
    alg = clifford_krein_algebra(space)
    report = run(CheckConfig(scenario="clifford", p=2, q=1, samples=samples, seed=seed))
    rng = np.random.default_rng(seed)
    out = defaultdict(list)
    for _ in range(min(samples, 50)):
        a = MultiVector(space, random_complex(rng, nmv))
        out["star equals conjugate reversal"].append(opnorm(
            alg.star(clifford_action(space, a))
            - clifford_action(space, conjugate_reversal_coeffs(a))
        ) / np.linalg.norm(a.coeffs))
    assert len(out) == 1 and nmv == 8
    assert_matches(report, out)
    # the laws decided on the blades, against dense products and pairings
    blades = [MultiVector(space, e) for e in np.eye(nmv)]
    failures = 0
    for a in blades:
        for b in blades:
            ab = MultiVector(space, clifford_action(space, a) @ b.coeffs)
            for c in blades:
                lhs = clifford_action(space, ab) @ c.coeffs
                rhs = clifford_action(space, a) @ (clifford_action(space, b) @ c.coeffs)
                failures += not np.array_equal(lhs, rhs)
    # the gram oracle on every pair of unit 2-tuples, one wedge at a time
    metric = np.diag(space.signs)
    units = [vector(space, e) for e in np.eye(n)]
    oracle = max(
        abs(grassmann_inner(wedge(units[i], units[j]), wedge(units[k], units[m]))
            - (metric[i, k] * metric[j, m] - metric[i, m] * metric[j, k]))
        for i, j, k, m in product(range(n), repeat=4)
    )
    jmat = second_quantized_J(space)
    gram = np.array([[grassmann_inner(a, b) for b in blades] for a in blades])
    h = gram @ jmat
    exact = {
        "second quantized symmetry preserves pairing":
            opnorm(jmat.conj().T @ gram @ jmat - gram),
        "second quantized auxiliary form positive": max(
            0.0, -np.linalg.eigvalsh((h + h.conj().T) / 2)[0], opnorm(h - h.conj().T) / 2
        ),
        "clifford product associative": failures,
        "gram determinant oracle": oracle,
    }
    assert_matches(report, {name: [value] for name, value in exact.items()})
    # the C* identity is the algebra axioms' own record, read by name
    records = {r.name: r for r in report.records}
    twin = records["algebra: cstar identity"]
    assert records["clifford cstar identity"].max_violation == twin.max_violation


def dense_identification(s):
    """The identification of S ⊗ S̄ as a dense (N, s²) matrix: the exterior
    coordinates of E_ik A for every matrix unit E_ik, A = s.symmetry."""
    units = np.eye(s.dim**2, dtype=complex).reshape(-1, s.dim, s.dim)
    return s.left_algebra.coefficients(units @ s.symmetry).T


def sampled_intertwining(s, space, v, samples, seed):
    """The largest ‖v (γ(c) ⊗ I) x − c(c) v x‖ / (‖c‖ ‖x‖) over drawn Clifford
    coordinates c and tensors x, the law sampled with dense N x N actions."""
    c, x = gaussians(np.random.default_rng(seed), samples, (len(v),), (s.dim**2,))
    gamma = np.tensordot(c, s.left_action, axes=(-1, 0))
    lhs = (gamma @ x.reshape(samples, s.dim, s.dim)).reshape(samples, -1) @ v.T
    rhs = [clifford_action(space, MultiVector(space, ck)) @ (v @ xk) for ck, xk in zip(c, x)]
    norms = np.linalg.norm(c, axis=-1) * np.linalg.norm(x, axis=-1)
    return max(np.linalg.norm(lhs - rhs, axis=-1) / norms)


@pytest.mark.parametrize("pq", [(1, 1), (2, 2), (1, 3), (3, 3)], ids=str)
def test_spinor_identification_against_dense(pq):
    """V held by its nonzeros is the dense identification entry for entry,
    and each record agrees with the law read the dense way: rank by SVD, and
    the intertwining law sampled.  With one phase of V flipped both forms of
    the intertwining law fail."""
    space = PseudoEuclideanSpace(*pq)
    s = spinor_correspondence(space)
    v, dense = _identification(s), dense_identification(s)
    assert np.array_equal(v.synthesis(np.eye(len(v))).reshape(len(v), -1), dense)
    records = {
        r.name: r.max_violation
        for r in spinor_factorization_check(space, samples=1).records
    }
    rank = numerical_rank(dense) == space.grassmann_dim
    assert records["identification bijective"] == (0.0 if rank else 1.0) == 0.0
    sampled = sampled_intertwining(s, space, dense, 20, seed=7)
    assert records["intertwines left Clifford actions"] == 0.0
    assert sampled <= 8 * EPS
    flipped = v[np.arange(len(v))]
    flipped.vals[3, 0] *= -1
    corrupted = flipped.synthesis(np.eye(len(v))).reshape(len(v), -1)
    assert sampled_intertwining(s, space, corrupted, 20, seed=7) > 1e-3
    gammas = s.left_algebra._monomials[1 << np.arange(space.n)]
    assert _intertwining_defect(flipped, gammas, space) > 1e-3
