"""Batched law tables against a per-sample loop.

Each test replays the RNG stream of one table sample by sample, evaluates
the laws with the unbatched formulas on d x d matrices and vectors, and
compares the worst value of each law with the record the batched table
wrote: every law is relative, so they agree to 4·eps.
"""

from collections import defaultdict

import numpy as np
import pytest

from kreinmod.algebra import bounded_operators, check_krein_cstar_axioms
from kreinmod.checker import CheckConfig, run
from kreinmod.clifford import (
    MultiVector,
    PseudoEuclideanSpace,
    associativity_residual,
    clifford_action,
    clifford_krein_algebra,
    conjugate_reversal_coeffs,
    grassmann_inner,
    random_multivector,
    scalar_one,
    second_quantized_J,
    vector,
    wedge,
)
from kreinmod.krein_over_krein import check_module_over_krein, operator_bimodule
from kreinmod.linalg import random_complex

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
            "carrier closed under alpha and star": max(
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
    return out


def test_krein_axioms_on_b21():
    alg = bounded_operators(2, 1)
    report = check_krein_cstar_axioms(alg, samples=60, seed=3)
    reference = axioms_reference(alg, 60, 3)
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
            "inner star-hermitian": opnorm(alg.star(p) - pairing(y, x)) / sxy,
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
    return out


def test_module_over_krein_on_operator_bimodule():
    m = operator_bimodule(bounded_operators(1, 1), bounded_operators(2, 1))
    report = check_module_over_krein(m, samples=40, seed=5)
    reference = module_reference(m, 40, 5)
    assert len(reference) == 11
    assert_matches(report, reference)


@pytest.mark.parametrize("samples", [30, 60])
def test_clifford_tables_at_21(samples):
    """The sampled Clifford tables that share the scenario's RNG, in order;
    the algebra axioms in between draw from their own seed."""
    seed = 4
    space = PseudoEuclideanSpace(2, 1)
    n, nmv = space.n, space.grassmann_dim
    alg = clifford_krein_algebra(space)
    report = run(CheckConfig(scenario="clifford", p=2, q=1, samples=samples, seed=seed))
    rng = np.random.default_rng(seed)
    g = space.signs
    out = defaultdict(list)
    for _ in range(samples):
        vs = [random_complex(rng, n) for _ in range(2)]
        ws = [random_complex(rng, n) for _ in range(2)]
        bv, bw = scalar_one(space), scalar_one(space)
        for v, w in zip(vs, ws):
            bv, bw = wedge(bv, vector(space, v)), wedge(bw, vector(space, w))
        gram = [[np.sum(v.conj() * g * w) for w in ws] for v in vs]
        det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
        scale = np.prod([np.linalg.norm(v) * np.linalg.norm(w) for v, w in zip(vs, ws)])
        out["gram determinant oracle"].append(abs(grassmann_inner(bv, bw) - det) / scale)
    jmat = second_quantized_J(space)
    for _ in range(min(samples, 50)):
        a, b = random_multivector(space, rng), random_multivector(space, rng)
        ja, jb = MultiVector(space, jmat @ a.coeffs), MultiVector(space, jmat @ b.coeffs)
        out["second quantized symmetry preserves pairing"].append(
            abs(grassmann_inner(ja, jb) - grassmann_inner(a, b))
            / (np.linalg.norm(a.coeffs) * np.linalg.norm(b.coeffs))
        )
        aux = grassmann_inner(a, ja)
        out["second quantized auxiliary form positive"].append(
            max(max(0.0, -aux.real), abs(aux.imag)) / np.vdot(a.coeffs, a.coeffs).real
        )
    for _ in range(samples):
        a, b, c = (random_multivector(space, rng) for _ in range(3))
        out["clifford product associative"].append(associativity_residual(a, b, c))
    for _ in range(min(samples, 50)):
        a = random_multivector(space, rng)
        out["star equals conjugate reversal"].append(opnorm(
            alg.star(clifford_action(space, a))
            - clifford_action(space, conjugate_reversal_coeffs(a))
        ) / np.linalg.norm(a.coeffs))
    assert len(out) == 5 and nmv == 8
    assert_matches(report, out)
    # the C* identity is the algebra axioms' own record, read by name
    records = {r.name: r for r in report.records}
    twin = records["algebra: cstar identity"]
    assert records["clifford cstar identity"].max_violation == twin.max_violation
