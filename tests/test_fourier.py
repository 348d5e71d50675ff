import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallball import fourier
from smallball.core import ball_probability_1d, concentration_probability
from smallball.fourier import (
    ESSEEN_C1,
    FpContext,
    check_esseen_soundness,
    esseen_bound,
    fp_exponential_bound,
    fp_fourier_identity,
    halasz_hierarchy_ratio,
    is_prime,
    level_and_dual_sets,
    next_prime,
    norm_rz,
    qualifying_level_exists,
    rl_count,
    xi_norm,
)
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
)

PM1 = SignDistribution.bernoulli_pm1()


def test_primes():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert next_prime(100) == 101
    assert is_prime(999983)


def test_context_embedding_condition():
    A = CoefficientMultiset.of([1, 2, 3])
    ctx = FpContext.from_multiset(A)
    assert ctx.strict
    assert ctx.p > 2**3 * 7
    small = FpContext.from_multiset(CoefficientMultiset.of([1] * 10), p=997)
    assert not small.strict


def test_fp_identity_examples():
    for entries, target, expected in [([1, 1], 0, Fraction(1, 2)),
                                      ([1], 1, Fraction(1, 2)),
                                      ([1, 2, 3], 0, Fraction(1, 4))]:
        ctx = FpContext.from_multiset(CoefficientMultiset.of(entries))
        val, exact, diff = fp_fourier_identity(ctx, target)
        assert exact == expected
        assert diff < 1e-9


def test_fp_identity_random_multisets():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        entries = [int(v) for v in rng.integers(1, 9, size=n)]
        ctx = FpContext.from_multiset(CoefficientMultiset.of(entries))
        target = int(rng.choice(entries)) if rng.random() < 0.5 else 0
        _, _, diff = fp_fourier_identity(ctx, target)
        assert diff < 1e-9


def test_fp_exponential_bound_soundness():
    for entries in ([1, 1, 1, 1], [1], [1] * 12, [2, 3, 5, 7]):
        A = CoefficientMultiset.of(entries)
        ctx = FpContext.from_multiset(A)
        bound = fp_exponential_bound(ctx)
        rho, _ = concentration_probability(A)
        assert bound >= float(rho)
    # calibration example: all-ones n=12 has modest slack
    A = CoefficientMultiset.of([1] * 12)
    bound = fp_exponential_bound(FpContext.from_multiset(A))
    rho = float(concentration_probability(A)[0])
    assert bound / rho <= 4


def test_esseen_examples():
    A16 = CoefficientMultiset.of([1] * 16)
    res, _ = check_esseen_soundness(A16, 1)
    assert res.bound >= 10016 / 65536
    # O(n^-1/2) shape: compare against the rate constant over two sizes
    res8 = esseen_bound(CoefficientMultiset.of([1] * 8), 1)
    assert res.bound < res8.bound
    assert res.bound * math.sqrt(16) < 4
    res1 = esseen_bound(CoefficientMultiset.of([1]), 1)
    assert res1.bound >= 1
    A12 = CoefficientMultiset.of(range(1, 13))
    r, checked = check_esseen_soundness(A12, Fraction(1, 2))
    exact, _ = ball_probability_1d(A12, PM1, Fraction(1, 2))
    assert checked == exact
    assert r.bound >= float(exact)


def test_esseen_constant_is_explicit():
    assert abs(ESSEEN_C1 - 1 / (4 * math.sin(0.5) ** 2)) < 1e-15


def test_rl_count():
    # brute-force oracle over ordered 2l-tuples
    def brute(entries, l):
        cnt = 0
        for tup in itertools.product(range(len(entries)), repeat=2 * l):
            if sum(entries[i] for i in tup[:l]) == sum(entries[i] for i in tup[l:]):
                cnt += 1
        return cnt

    A = CoefficientMultiset.of([1, 2, 3, 4])
    assert rl_count(A, 2) == brute([1, 2, 3, 4], 2) == 44
    assert rl_count(CoefficientMultiset.of([1, 1]), 1) == 4
    distinct = CoefficientMultiset.of([3, 1, 4, 1 + 4])
    assert rl_count(distinct, 1) == 4  # distinct entries: R_1 = n


def test_halasz_hierarchy_bounded():
    ratios = [halasz_hierarchy_ratio(CoefficientMultiset.of(range(1, n + 1)), 1)
              for n in (6, 8, 10, 12)]
    assert max(ratios) / min(ratios) <= 3
    ones = [halasz_hierarchy_ratio(CoefficientMultiset.of([1] * n), 1)
            for n in (6, 8, 10, 12)]
    assert max(ones) / min(ones) <= 3
    # Sidon-type set (pairwise sums distinct): l = 2
    sidon = {6: [1, 2, 5, 11, 22, 33], 8: [1, 2, 5, 11, 22, 33, 51, 72],
             10: [1, 2, 5, 11, 22, 33, 51, 72, 94, 129]}
    r2 = [halasz_hierarchy_ratio(CoefficientMultiset.of(sidon[n]), 2)
          for n in (6, 8, 10)]
    assert max(r2) / min(r2) <= 4


def test_level_sets_exact_formula():
    A = CoefficientMultiset.of([1] * 10)
    ctx = FpContext.from_multiset(A, p=997)
    reports = level_and_dual_sets(ctx, 3)
    # S_m = {t : 10 ||t/p||^2 <= m}; |S_1| = 2*floor(p/sqrt(10)) + 1
    assert reports[1].level_size == 2 * int(997 / math.sqrt(10)) + 1 == 631
    assert reports[0].level_size == 1  # t = 0 only
    sizes = [r.level_size for r in reports]
    assert sizes == sorted(sizes)  # monotone in m
    for r in reports:
        if r.level_size:
            assert r.dual_size * r.level_size <= 8 * 997


def test_level_sets_dual_bound_many_m():
    A = CoefficientMultiset.of([1, 2, 3, 4, 5])
    ctx = FpContext.from_multiset(A, p=499)
    reports = level_and_dual_sets(ctx, 6)
    for r in reports:
        if r.level_size:
            assert r.dual_size * r.level_size <= 8 * 499


def test_qualifying_level_exists_strict():
    A = CoefficientMultiset.of([1, 2, 3])
    ctx = FpContext.from_multiset(A)  # p = 59, strict
    reports = level_and_dual_sets(ctx, 6)
    assert qualifying_level_exists(reports, ctx.p)


def _levels_by_definition(ctx, m_max):
    """(|S_m|, |S*_m|) for m = 0..m_max straight from the definitions: every
    t and every a of F_p, exact ints, no symmetry and no nesting."""
    p = ctx.p
    rbar2 = [min(r, p - r) ** 2 for r in range(p)]
    w = [sum(rbar2[a * t % p] for a in ctx.residues) for t in range(p)]
    out = []
    for m in range(m_max + 1):
        level = [t for t in range(p) if w[t] <= m * p * p]
        if p <= 400:
            dual = sum(1 for a in range(p)
                       if 200 * sum(rbar2[a * t % p] for t in level) <= len(level) * p * p)
        else:  # the same sums, exact in int64, a block of rows at a time
            lv = np.array(level, dtype=np.int64)
            dual = 0
            for a0 in range(0, p, 256):
                r = np.arange(a0, min(a0 + 256, p), dtype=np.int64)[:, None] * lv % p
                r = np.minimum(r, p - r)
                dual += int(np.count_nonzero(200 * (r * r).sum(axis=1) <= len(level) * p * p))
        out.append((len(level), dual))
    return out


@pytest.mark.parametrize("entries, p", [
    ([1], None), ([1, 2, 3], None), ([1, 1, 1, 1, 1], None), ([2, -3, 5], None),
    ([3, -1, 4, 1, 5], None), ([0, 1], None), ([1, 1, 2, 3, 5, 8], None),
    ([0], 2), ([0, 0], 2), ([0, 0], 3), ([1], 3), ([1, -1], 5), ([1, 2], 7),
    ([2, 4, 6], 101), ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 997),
    ([7, -6, -6, -8, 1, -4, 1, -7], 2411), ([5, 12, -9, 3], 2999),
    # many entries: small level sets, so dual sets hold more than a = 0
    ([1] * 100, 211), ([1, 2] * 40, 251), ([1] * 300, 601), ([3, 5, 7] * 30, 2003),
    ([2, 3] * 60, 2999),
])
def test_level_sets_match_definition(entries, p):
    ctx = FpContext.from_multiset(CoefficientMultiset.of(entries), p=p)
    assert ctx.p <= 3000
    reports = level_and_dual_sets(ctx, 6)
    assert [(r.m, r.level_size, r.dual_size) for r in reports] == \
        [(m, *sd) for m, sd in enumerate(_levels_by_definition(ctx, 6))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4), st.integers(1, 25),
       st.integers(0, 6), st.sampled_from([2, 3, 5, 7, 31, 61, 127, 251]))
def test_level_sets_match_definition_random(base, reps, m_max, p):
    entries = base * reps
    p = max(p, next_prime(2 * sum(map(abs, entries))))
    ctx = FpContext.from_multiset(CoefficientMultiset.of(entries), p=p)
    reports = level_and_dual_sets(ctx, m_max)
    assert [(r.level_size, r.dual_size) for r in reports] == \
        _levels_by_definition(ctx, m_max)


def test_level_sets_m_max_bounds():
    ctx = FpContext.from_multiset(CoefficientMultiset.of([1, 2, 3]))
    with pytest.raises(ValidationError):
        level_and_dual_sets(ctx, -1)
    with pytest.raises(BudgetError):
        level_and_dual_sets(ctx, fourier.LEVEL_M_BUDGET + 1)
    reports = level_and_dual_sets(ctx, fourier.LEVEL_M_BUDGET)
    # w(t) < n p^2 / 4, so every m >= n/4 repeats the same report
    assert {(r.level_size, r.dual_size) for r in reports[1:]} == {(ctx.p, 1)}


def test_level_sets_m_max_cap_grows_with_n():
    # with n > 4000 entries the levels above LEVEL_M_BUDGET can still differ:
    # here S_1000 misses the t with rbar(t) >= 4003 and S_1001 = F_p
    n, p = 4004, 8009
    ctx = FpContext.from_multiset(CoefficientMultiset.of([1] * n), p=p)
    reports = level_and_dual_sets(ctx, 1001)
    rbar = np.minimum(np.arange(p), p - np.arange(p))
    w = n * rbar * rbar
    assert [r.level_size for r in reports] == \
        [int(np.count_nonzero(w <= m * p * p)) for m in range(1002)]
    assert (reports[1000].level_size, reports[1001].level_size) == (p - 4, p)
    level = np.flatnonzero(w <= 1000 * p * p)
    sums = [int((rbar[a * level % p] ** 2).sum()) for a in range(p)]
    assert reports[1000].dual_size == sum(200 * s <= level.size * p * p for s in sums)
    with pytest.raises(BudgetError):
        level_and_dual_sets(ctx, 1002)


def test_level_sets_refuse_p_above_budget(monkeypatch):
    ctx = FpContext.from_multiset(CoefficientMultiset.of([1, 2]), p=1000003)
    with pytest.raises(BudgetError):
        level_and_dual_sets(ctx, 1)
    small = FpContext.from_multiset(CoefficientMultiset.of([1, 2, 3]))
    monkeypatch.setattr(fourier, "LEVEL_P_BUDGET", small.p - 1)
    with pytest.raises(BudgetError):
        level_and_dual_sets(small, 1)


def test_level_sets_scan_memory_is_bounded():
    # the largest levels query of the exact-dense benchmark: the dual scan
    # held 23 MB of full-F_p blocks before it scanned in LEVEL_BLOCK pieces
    import tracemalloc

    ctx = FpContext.from_multiset(
        CoefficientMultiset.of([7, -6, -6, -8, 1, -4, 1, -7]), p=2411)
    tracemalloc.start()
    try:
        reports = level_and_dual_sets(ctx, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.level_size, r.dual_size) for r in reports] == \
        [(1, 2411), (2211, 1), (2411, 1), (2411, 1)]
    assert peak < 4 * 2**20, peak


@given(st.fractions(min_value=-50, max_value=50))
def test_norm_rz_properties(x):
    assert norm_rz(x + 1) == norm_rz(x)
    assert norm_rz(-x) == norm_rz(x)
    assert 0 <= norm_rz(x) <= Fraction(1, 2)


def test_xi_norm_examples():
    assert xi_norm(Fraction(1, 2), PM1) == 0
    assert xi_norm(0, PM1) == 0
    assert abs(xi_norm(Fraction(1, 4), PM1) - 1 / math.sqrt(8)) < 1e-12


def test_illustrative_context_rejects_identity():
    ctx = FpContext.from_multiset(CoefficientMultiset.of([1] * 10), p=997)
    with pytest.raises(ValidationError):
        fp_fourier_identity(ctx, 0)


def test_esseen_refuses_past_evaluation_budget(monkeypatch):
    # entries 1, 2 at beta = 1/1000 took 17 s (3.84M integrand calls) with no
    # budget; the patched integrand fails the test just past the budget
    real = fourier._charfn_abs

    def guarded(A, xi):
        f = real(A, xi)
        per_call = len(A.entries) * len(xi.support)
        calls = 0

        def g(u):
            nonlocal calls
            calls += 1
            assert (calls - 1) * per_call <= fourier.ESSEEN_EVAL_BUDGET, "unbudgeted quadrature"
            return f(u)

        return g

    monkeypatch.setattr(fourier, "_charfn_abs", guarded)
    with pytest.raises(BudgetError, match="factor evaluations exceed"):
        esseen_bound(CoefficientMultiset.of([1, 2]), Fraction(1, 1000))


def test_fp_scans_refuse_p_above_budget(monkeypatch):
    # twenty entries of 50 give p ~ 1.05e9: an 8 GB scan.  Any arange that
    # large fails the test instead of allocating.
    real_arange = np.arange

    def guarded(stop, *args, **kwargs):
        assert stop <= 10**7, f"unbudgeted arange({stop})"
        return real_arange(stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    ctx = FpContext.from_multiset(CoefficientMultiset.of([50] * 20))
    assert ctx.p > 10**9
    with pytest.raises(BudgetError):
        fp_exponential_bound(ctx)
    with pytest.raises(BudgetError):
        fp_fourier_identity(ctx, 0)
    small = FpContext.from_multiset(CoefficientMultiset.of([1, 2, 3]))
    monkeypatch.setattr(fourier, "P_BUDGET", small.p)
    assert fp_exponential_bound(small) > 0
    monkeypatch.setattr(fourier, "P_BUDGET", small.p - 1)
    with pytest.raises(BudgetError):
        fp_exponential_bound(small)
