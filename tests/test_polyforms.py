import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from smallball import polyforms
from smallball.core import concentration_probability
from smallball.gaps import Gap
from smallball.polyforms import (
    MultilinearPolynomial,
    SymmetricCoefficientMatrix,
    decoupling_check,
    greedy_disjoint_terms,
    multilinear_concentration,
    parity_correlation,
    quadratic_concentration,
    structured_quadratic_generator,
)
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
)

PM1 = SignDistribution.bernoulli_pm1()
BOOL = SignDistribution.boolean_01()
LAZY = SignDistribution.lazy(Fraction(2, 3))
LAWS = ((PM1, (-1, 1)), (BOOL, (0, 1)), (LAZY, (-1, 0, 1)))


def rand_pm1_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=(n, n)) * 2 - 1
    return SymmetricCoefficientMatrix.of((np.triu(m) + np.triu(m, 1).T).tolist())


def rand_symmetric(n, seed, lo=-6, hi=6, scale=1):
    rng = np.random.default_rng(seed)
    m = rng.integers(lo, hi + 1, size=(n, n)).astype(object) * scale
    return SymmetricCoefficientMatrix.of((np.triu(m) + np.triu(m, 1).T).tolist())


def brute_quadratic(M, support):
    n = M.n
    buckets = {}
    for signs in itertools.product(support, repeat=n):
        val = sum(M.entries[i][j] * signs[i] * signs[j]
                  for i in range(n) for j in range(n))
        buckets[val] = buckets.get(val, 0) + 1
    best = max(buckets.values())
    arg = min(v for v, c in buckets.items() if c == best)
    return Fraction(best, len(support) ** n), arg


def test_quadratic_examples():
    all_ones = SymmetricCoefficientMatrix.of([[1] * 4] * 4)
    # (sum xi)^2 over {0,1}: mode of Bin(4,1/2)^2 has mass 6/16
    assert quadratic_concentration(all_ones, BOOL)[0] == Fraction(6, 16)
    # over +-1 the squared sum concentrates at 4 with mass 8/16
    assert quadratic_concentration(all_ones, PM1) == (Fraction(1, 2), Fraction(4))
    identity = SymmetricCoefficientMatrix.of(
        [[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert quadratic_concentration(identity, PM1) == (Fraction(1), Fraction(5))


def test_quadratic_matches_brute():
    for seed in range(5):
        M = rand_pm1_symmetric(6, seed)
        rho, arg = quadratic_concentration(M, PM1)
        brho, barg = brute_quadratic(M, (-1, 1))
        assert (rho, arg) == (brho, Fraction(barg))
    # odd n and n = 1, where the second half of the split is empty
    for n in (1, 2, 3, 5, 8):
        for xi, support in LAWS:
            M = rand_symmetric(n, 10 * n + len(support))
            assert quadratic_concentration(M, xi) == brute_quadratic(M, support), (n, xi)


def test_quadratic_invariances():
    M = rand_pm1_symmetric(7, 42)
    rho, _ = quadratic_concentration(M, PM1)
    perm = [3, 1, 0, 2, 6, 5, 4]
    P = SymmetricCoefficientMatrix.of(
        [[M.entries[perm[i]][perm[j]] for j in range(7)] for i in range(7)])
    assert quadratic_concentration(P, PM1)[0] == rho
    S = SymmetricCoefficientMatrix.of(
        [[Fraction(3, 7) * M.entries[i][j] for j in range(7)] for i in range(7)])
    assert quadratic_concentration(S, PM1)[0] == rho


def test_quadratic_rate_shape():
    vals = []
    for seed in range(25):
        M = rand_pm1_symmetric(10, seed)
        rho, _ = quadratic_concentration(M, PM1)
        vals.append(float(rho) * math.sqrt(10))
    vals.sort()
    assert 0.3 <= vals[len(vals) // 2] <= 3


def test_quadratic_validation():
    with pytest.raises(ValidationError):
        SymmetricCoefficientMatrix.of([[1, 2], [3, 4]])
    big = [[0] * 25 for _ in range(25)]
    with pytest.raises(BudgetError):
        quadratic_concentration(SymmetricCoefficientMatrix.of(big), PM1)


def test_decoupling_examples():
    all_ones = SymmetricCoefficientMatrix.of([[1] * 4] * 4)
    lhs, joint, ok = decoupling_check(all_ones, (0, 1), 0)
    assert ok and lhs**4 <= joint
    # x outside the range of Q: empty event
    lhs, joint, ok = decoupling_check(all_ones, (0, 1), Fraction(1, 3))
    assert lhs == 0 and ok
    for seed in range(20):
        M = rand_pm1_symmetric(8, 100 + seed)
        lhs, joint, ok = decoupling_check(M, (0, 1, 2, 3), 0)
        assert ok, seed


def brute_decoupling(M, u1, x, support):
    """(lhs, joint) by independent four-copy enumeration."""
    n = M.n
    u2 = [i for i in range(n) if i not in u1]

    def q(y, z):
        full = dict(zip(u1, y)) | dict(zip(u2, z))
        return sum(M.entries[i][j] * full[i] * full[j]
                   for i in range(n) for j in range(n))

    Ys = list(itertools.product(support, repeat=len(u1)))
    Zs = list(itertools.product(support, repeat=len(u2)))
    hit = {(y, z): q(y, z) == x for y in Ys for z in Zs}
    count = sum(hit[y, z] and hit[y, z2] and hit[y2, z] and hit[y2, z2]
                for y in Ys for y2 in Ys for z in Zs for z2 in Zs)
    return Fraction(sum(hit.values()), len(hit)), Fraction(count, len(hit) ** 2)


def test_decoupling_brute_agreement():
    M = rand_pm1_symmetric(4, 9)
    assert decoupling_check(M, (0, 1), 0)[:2] == brute_decoupling(M, (0, 1), 0, (-1, 1))
    # lopsided partitions, and the {0,1} law
    M = rand_symmetric(5, 3, -2, 2)
    for u1 in ((2,), (0, 1, 3, 4), (1, 4)):
        for xi, support in LAWS[:2]:
            x = brute_quadratic(M, support)[1]
            got = decoupling_check(M, u1, x, xi)
            assert got[:2] == brute_decoupling(M, u1, x, support), (u1, xi)
            assert got[2] == (got[0] ** 4 <= got[1])


def test_structured_generators():
    M, rho, floor = structured_quadratic_generator(
        "gap", 10, seed=1, gap=Gap.of([1], [3]))
    assert rho >= floor
    k = [1, -1] * 5
    M, rho, floor = structured_quadratic_generator(
        "lowrank", 10, seed=2, k=k)
    counts_floor = Fraction(math.comb(10, 5), 2**10)
    assert floor == counts_floor
    assert rho >= floor
    M, rho_mixed, floor_mixed = structured_quadratic_generator(
        "mixed", 8, seed=3, k=[0] * 8, gap=Gap.of([1], [3]))
    _, rho_gap, floor_gap = structured_quadratic_generator(
        "gap", 8, seed=3, gap=Gap.of([1], [3]))
    assert floor_mixed == floor_gap  # degenerate k: mixed reduces to gap
    assert rho_mixed >= floor_mixed


def test_multilinear_disjoint_product_law():
    P = MultilinearPolynomial.of({(2 * i, 2 * i + 1): 1 for i in range(10)}, 20)
    prob, r, bound = multilinear_concentration(P, 5)
    assert r == 10
    assert prob == Fraction(math.comb(10, 5) * 3**5, 4**10)
    assert bound > 0


def test_multilinear_single_variable():
    P = MultilinearPolynomial.of({(0,): 1}, 1)
    prob, r, _ = multilinear_concentration(P, 1)
    assert prob == Fraction(1, 2) and r == 1


def test_multilinear_overlapping_terms():
    P = MultilinearPolynomial.of({(0, i): 1 for i in range(1, 8)}, 8)
    prob, r, _ = multilinear_concentration(P, 0)
    assert r == 1
    # all terms share index 0: p = xi0 * (xi1 + ... + xi7)
    assert prob == Fraction(1, 2) + Fraction(1, 2) * Fraction(math.comb(7, 0), 2**7)


def test_multilinear_k1_reduces_to_concentration():
    coeffs = [3, -1, 4, 1, -5]
    P = MultilinearPolynomial.of({(i,): c for i, c in enumerate(coeffs)}, 5)
    A = CoefficientMultiset.of(coeffs)
    rho, arg = concentration_probability(A, BOOL)
    prob, _, _ = multilinear_concentration(P, arg)
    assert prob == rho


def test_parity_correlation_examples():
    const_half = MultilinearPolynomial.of({(): Fraction(1, 2)}, 8)
    assert parity_correlation(const_half) == Fraction(-1, 2)
    x1 = MultilinearPolynomial.of({(0,): 1}, 16)
    assert parity_correlation(x1) == 0
    # parity as an exact polynomial: (1 - prod(1 - 2 xi)) / 2, i.e.
    # c_S = -(-2)^|S| / 2 for nonempty S; its self-correlation is 1/2
    n = 6
    terms = {}
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            terms[S] = Fraction(-((-2) ** size), 2)
    parity_poly = MultilinearPolynomial.of(terms, n)
    assert parity_correlation(parity_poly) == Fraction(1, 2)


def test_parity_correlation_random_quadratics():
    rng = np.random.default_rng(314)
    n = 12
    for _ in range(20):
        terms = {}
        for _ in range(10):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            terms[(i, j)] = int(rng.integers(-3, 4)) or 1
        P = MultilinearPolynomial.of(terms, n)
        assert parity_correlation(P) <= 0


def test_polynomial_parsing():
    P = MultilinearPolynomial.parse("2: 0 1\n-1/2: 2\n3:", 4)
    assert dict(P.terms) == {(): Fraction(3), (0, 1): Fraction(2),
                             (2,): Fraction(-1, 2)}
    assert P.k == 2
    assert greedy_disjoint_terms(P) == 1


def test_quadratic_beyond_int64_is_exact():
    # 2^61 (x1 + x2)^2 takes 0 and 2^63; int64 wraps the latter to -2^63
    big = SymmetricCoefficientMatrix.of([[2**61, 2**61], [2**61, 2**61]])
    assert quadratic_concentration(big, PM1) == (Fraction(1, 2), 0)
    mixed = SymmetricCoefficientMatrix.of(
        [[2**62, -(2**61), 3], [-(2**61), 2**60, 1], [3, 1, -(2**62)]])
    for xi, support in ((PM1, (-1, 1)), (BOOL, (0, 1))):
        assert quadratic_concentration(mixed, xi) == brute_quadratic(mixed, support)
    # both halves of the split, and their cross term, beyond int64
    for n in (3, 5):
        M = rand_symmetric(n, n, scale=2**60 + 1)
        for xi, support in LAWS:
            assert quadratic_concentration(M, xi) == brute_quadratic(M, support), (n, xi)


def test_decoupling_beyond_int64_is_exact():
    big = SymmetricCoefficientMatrix.of([[2**61, 2**61], [2**61, 2**61]])
    # Q(y, z) = 2^61 (y + z)^2 is 2^63 exactly when z = y: 1/2 of the pairs,
    # and the four-copy event needs y = y' = z = z': 2 of 16
    assert decoupling_check(big, (0,), 2**63) == (Fraction(1, 2), Fraction(1, 8), True)
    assert decoupling_check(big, (0,), -(2**63)) == (0, 0, True)


def test_decoupling_memory_follows_the_smaller_side():
    # with |u1| = 11 of 12 the joint probability came from the 2048 x 2048
    # Gram matrix of the y rows (32 MB, then an object copy); that of the
    # two z columns is 2 x 2
    M = rand_pm1_symmetric(12, 5)
    x = quadratic_concentration(M, PM1)[1]
    tracemalloc.start()
    try:
        lhs, _, ok = decoupling_check(M, tuple(range(11)), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lhs > 0 and ok
    assert peak < 4 * 2**20, peak


def test_budgets_count_sign_vectors(monkeypatch):
    # lazy signs passed the old n <= 24 and n <= 16 checks and then
    # enumerated 3^n vectors; the patched enumerator fails the test before
    # it enumerates past the quadratic budget
    real = polyforms._sign_vectors

    def guarded(support, n, *args):
        assert len(support) ** n <= 2**polyforms.QUADRATIC_ENUM_LIMIT, \
            f"{len(support)}^{n} sign vectors"
        return real(support, n, *args)

    monkeypatch.setattr(polyforms, "_sign_vectors", guarded)
    ones = SymmetricCoefficientMatrix.of([[1] * 16] * 16)
    with pytest.raises(BudgetError):
        quadratic_concentration(ones, LAZY)  # 3^16 > 2^24
    assert quadratic_concentration(ones, BOOL)[0] == Fraction(math.comb(16, 8), 2**16)
    ones11 = SymmetricCoefficientMatrix.of([[1] * 11] * 11)
    with pytest.raises(BudgetError):
        decoupling_check(ones11, (0, 1, 2, 3, 4), 0, LAZY)  # 3^11 > 2^16
    ones10 = SymmetricCoefficientMatrix.of([[1] * 10] * 10)
    assert decoupling_check(ones10, (0, 1, 2, 3, 4), 0, LAZY)[2]  # 3^10 <= 2^16


def _per_term_values(P, masks):
    """den * P at each assignment in `masks` (bit i is xi_i), one pass over
    the masks per term: the reference for the subset-sum transform."""
    den = math.lcm(*(c.denominator for _, c in P.terms))
    vals = np.zeros(len(masks), dtype=np.int64)
    for S, c in P.terms:
        mask = sum(1 << i for i in S)
        vals[(masks & mask) == mask] += int(c * den)
    return vals


def test_boolean_values_match_the_per_term_reference():
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(0, 11))
        terms = {}
        for _ in range(int(rng.integers(1, 40))):
            S = tuple(sorted(rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)),
                                        replace=False).tolist()))
            terms[S] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        if not any(terms.values()):
            continue
        P = MultilinearPolynomial.of(terms, n)
        masks = np.arange(2**n)
        vals, den = polyforms._eval_all_boolean(P)
        assert vals.dtype == np.int64 and np.array_equal(vals, _per_term_values(P, masks))
        parity = np.array([bin(m).count("1") % 2 for m in range(2**n)])
        agree = int(np.count_nonzero(vals == parity * den))
        assert parity_correlation(P) == Fraction(agree, 2**n) - Fraction(1, 2)


def test_all_degree_two_terms_at_n22_take_one_pass_per_bit():
    # 231 terms took one pass over the 2^22 masks each, 5 s; the report's
    # probability is the one that per-term pass gave
    n = 22
    terms = {(i, j): 1 + (3 * i + 5 * j) % 7 for i, j in itertools.combinations(range(n), 2)}
    P = MultilinearPolynomial.of(terms, n)
    assert len(P.terms) == 231
    start = time.perf_counter()
    prob, r, _ = multilinear_concentration(P, 100)
    assert time.perf_counter() - start < 2
    assert (prob, r) == (Fraction(631, 524288), 11)
    masks = np.arange(0, 2**n, 1021)
    assert np.array_equal(polyforms._eval_all_boolean(P)[0][masks], _per_term_values(P, masks))
