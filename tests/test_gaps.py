import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallball import gaps
from smallball.core import bernoulli_int_counts
from smallball.gaps import (
    Gap,
    gap_fit,
    gap_forward_sample,
    gap_lattice_points,
    gap_materialize,
    geometric_progression_rho,
    structured_multiset_census,
)
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    ValidationError,
)


def test_materialize_examples():
    pts, proper = gap_materialize(Gap.of([1], [2]))
    assert sorted(pts) == [-2, -1, 0, 1, 2] and proper
    pts, proper = gap_materialize(Gap.of([1, 3], [1, 1]))
    assert len(pts) == 9 and proper
    # (1,2) with bounds (2,1) is improper: 2 = 2*1 + 0*2 = 0*1 + 1*2
    pts, proper = gap_materialize(Gap.of([1, 2], [2, 1]))
    assert len(pts) == 9 and not proper
    # and a wider-step variant collapsing 15 combinations onto 13 points
    pts, proper = gap_materialize(Gap.of([1, 4], [2, 1]))
    assert len(pts) == 13 and not proper


def _fraction_points(Q):
    """The point set as the box image in Fractions, one generator at a time."""
    pts = {Fraction(0)}
    for g, M in zip(Q.generators, Q.bounds):
        pts = {v + m * g for v in pts for m in range(-M, M + 1)}
    return pts


def _assert_lattice_matches_fractions(Q):
    ref = _fraction_points(Q)
    L, pts = gap_lattice_points(Q)
    assert all(type(v) is int for v in pts)
    assert {Fraction(v, L) for v in pts} == ref and len(pts) == len(ref)
    assert gap_materialize(Q) == (frozenset(ref), len(ref) == Q.volume)
    assert (len(pts) == Q.volume) == (len(ref) == Q.volume)


def _cases(*rows):
    """(generators, bounds, id) rows as parameters.  The ids are the ones the
    suite has always run these cases under; their last part named an offset
    that the GAP no longer takes (every GAP is symmetric)."""
    return [pytest.param(gens, bounds, id=case_id) for gens, bounds, case_id in rows]


@pytest.mark.parametrize("gens, bounds", _cases(
    ([Fraction(1, 2)], [3], "gens0-bounds0-0"),
    ([Fraction(-2, 3)], [0], "gens1-bounds1-offset1"),
    ([Fraction(1, 2), Fraction(1, 3)], [2, 2], "gens2-bounds2-0"),  # improper: 2/2 = 3/3
    ([Fraction(1, 6), Fraction(7, 4)], [4, 2], "gens3-bounds3-offset3"),
    ([1, 0], [2, 3], "gens4-bounds4-0"),  # a zero generator
    ([0], [5], "gens5-bounds5-3"),
    ([1, 5, 25], [2, 2, 1], "gens6-bounds6-0"),
    ([1, 4, 9], [2, 1, 1], "gens7-bounds7-0"),  # improper rank 3
    ([Fraction(1, 3), Fraction(5, 7), Fraction(2, 11)], [1, 2, 1], "gens8-bounds8-offset8"),
    ([3, -3], [2, 2], "gens9-bounds9--1"),
    ([], [], "gens10-bounds10-offset10"),
    # a generator of many multiples, and a zero generator's repeated
    # shift, either first
    ([1, 0], [600, 3], "gens11-bounds11-0"),
    ([0, Fraction(1, 2)], [3, 600], "gens12-bounds12-2"),
    ([1, 37], [300, 20], "gens13-bounds13-0"),
    ([1000, 1], [200, 200], "gens14-bounds14-0"),  # the widest generator first
    ([3, 1, 1, 1], [2000, 0, 0, 0], "gens15-bounds15-0"),  # zero bounds after a wide one
))
def test_lattice_points_match_fraction_builder(gens, bounds):
    _assert_lattice_matches_fractions(Gap.of(gens, bounds))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(-20, 20, max_denominator=12), st.integers(0, 4)),
                max_size=3))
def test_lattice_points_match_fraction_builder_random(steps):
    _assert_lattice_matches_fractions(Gap.of([g for g, _ in steps], [M for _, M in steps]))


@pytest.mark.parametrize("gens, bounds", _cases(
    ([2**61 - 1, 1], [2, 2], "gens0-bounds0-0"),  # points up to 2^62
    ([2**62], [1], "gens1-bounds1-0"),
    ([Fraction(2**61, 3), Fraction(1, 2)], [1, 1], "gens2-bounds2-0"),  # L = 6: 2^62 + 3
    ([2**63 + 5, 7], [2, 3], "gens3-bounds3--1180591620717411303424"),
    ([10**19, 1], [0, 2], "gens4-bounds4-0"),  # a zero bound on a generator beyond int64
    ([10**19], [0], "gens5-bounds5-0"),
))
def test_lattice_points_near_and_beyond_int64(gens, bounds):
    _assert_lattice_matches_fractions(Gap.of(gens, bounds))


def test_dilate():
    Q = Gap.of([1], [2])
    assert Q.dilate(1) == Q
    pts, _ = gap_materialize(Q.dilate(3))
    assert len(pts) == 13
    # properness is not preserved by dilation in general
    Q2 = Gap.of([1, 3], [1, 1])
    assert gap_materialize(Q2)[1]
    assert not gap_materialize(Q2.dilate(2))[1]
    # proper stays proper / improper stays improper on these instances
    assert gap_materialize(Gap.of([1, 5], [2, 0]))[1]
    assert gap_materialize(Gap.of([1, 5], [2, 0]).dilate(3))[1]
    assert not gap_materialize(Gap.of([1, 5], [4, 1]))[1]
    assert not gap_materialize(Gap.of([1, 5], [4, 1]).dilate(3))[1]


def test_sumset_doubling_bound():
    # |Q + Q| <= 2^r |Q| for proper symmetric GAPs
    for Q in [Gap.of([1], [4]), Gap.of([1, 10], [2, 2]), Gap.of([2, 31], [3, 2])]:
        pts, proper = gap_materialize(Q)
        assert proper
        sums = {a + b for a in pts for b in pts}
        assert len(sums) <= 2**Q.rank * len(pts)


def test_forward_sample_quality():
    for seed in range(20):
        _, rho, q = gap_forward_sample(Gap.of([1], [5]), 12, seed)
        assert q >= 0.5
        _, rho2, q2 = gap_forward_sample(Gap.of([1, 37], [3, 3]), 12, seed)
        assert q2 >= 0.2
    A, rho, _ = gap_forward_sample(Gap.of([1], [0]), 5, 0)
    assert rho == 1  # degenerate {0} GAP


def test_forward_quality_scaling_invariance():
    _, rho1, q1 = gap_forward_sample(Gap.of([1], [5]), 10, 3)
    _, rho2, q2 = gap_forward_sample(Gap.of([7], [5]), 10, 3)
    assert rho1 == rho2 and q1 == q2


def test_gap_fit_planted_rank1():
    rng = np.random.default_rng(5)
    entries = [int(v) for v in rng.integers(-7, 8, size=20)]
    cert = gap_fit(CoefficientMultiset.of(entries), 0)
    assert cert.gap.rank == 1
    assert cert.gap.volume <= 15
    assert cert.epsilon_achieved == 0
    assert cert.covered == 20


def test_gap_fit_planted_rank2():
    rng = np.random.default_rng(6)
    entries = [1000 * int(i) + int(j)
               for i, j in zip(rng.integers(-2, 3, size=15),
                               rng.integers(-1, 2, size=15))]
    cert = gap_fit(CoefficientMultiset.of(entries), 0)
    assert cert.gap.rank == 2
    gens = sorted(abs(g) for g in cert.gap.generators)
    assert gens == [1, 1000]
    assert cert.gap.volume <= 15
    assert cert.epsilon_achieved == 0


def test_gap_fit_generic_fallback():
    rng = np.random.default_rng(7)
    entries = [int(x) for x in rng.integers(2**39, 2**40, size=10)]
    cert = gap_fit(CoefficientMultiset.of(entries), 0)
    assert cert.epsilon_achieved == 0
    assert cert.gap.volume >= 10


def test_gap_fit_epsilon_exclusion():
    # one far outlier:允许 epsilon exclusion shrinks the certificate
    entries = list(range(-7, 8)) + [10**6]
    full = gap_fit(CoefficientMultiset.of(entries), 0)
    loose = gap_fit(CoefficientMultiset.of(entries), Fraction(1, 10))
    assert loose.gap.volume < full.gap.volume
    assert loose.epsilon_achieved <= Fraction(1, 10)


def test_gap_fit_validation():
    with pytest.raises(ValidationError):
        gap_fit(CoefficientMultiset.of([Fraction(1, 2)]), 0)
    with pytest.raises(ValidationError):
        gap_fit(CoefficientMultiset.of([1]), 1)


def _least_rank1_volume(entries, keep):
    """2M + 1 minimised over every generator g in [1, max |v|] (a larger g
    has only the zeros as multiples), M the keep-th smallest |v|/g over the
    multiples v of g."""
    vols = []
    for g in range(1, max([abs(v) for v in entries] + [1]) + 1):
        q = sorted(abs(v) // g for v in entries if v % g == 0)
        if len(q) >= keep:
            vols.append(2 * q[keep - 1] + 1)
    return min(vols)


def test_rank1_optimum_matches_brute_force():
    # every multiset of up to 4 entries in [-12, 12], and seeded ones of 5
    # and 6, at every keep: the least volume, and a GAP that holds keep
    rng = np.random.default_rng(16)
    cases = [list(e) for n in range(1, 5)
             for e in itertools.combinations_with_replacement(range(-12, 13), n)]
    cases += [rng.integers(-12, 13, size=n).tolist() for n in (5, 6) for _ in range(1500)]
    for e in cases:
        for keep in range(1, len(e) + 1):
            g, M = gaps._rank1_optimum(e, keep)
            assert 2 * M + 1 == _least_rank1_volume(e, keep), (e, keep)
            assert sum(1 for v in e if v % g == 0 and abs(v) // g <= M) >= keep


@pytest.mark.parametrize("max_rank", [1, 2])
@pytest.mark.parametrize("entries,epsilon,generator,volume", [
    ([3, 2, 4, 6, 8], Fraction(1, 5), 2, 9),
    ([5, 10, 15, 20, 25, 7, 14], Fraction(2, 7), 5, 11),
    ([6, 9, 12, 15, 18, 21, 2], Fraction(1, 7), 3, 15),
])
def test_gap_fit_drops_a_small_entry(entries, epsilon, generator, volume, max_rank):
    # a greedy drop of the largest entries gave volumes 13, 31 and 37, and
    # at max_rank 2 the smaller cover came back as rank 2 with a zero bound
    cert = gap_fit(CoefficientMultiset.of(entries), epsilon, max_rank)
    assert cert.gap == Gap.of([generator], [volume // 2])
    assert cert.covered == len(entries) - epsilon * len(entries)


def test_gap_fit_takes_rank2_only_below_the_rank1_optimum():
    rng = np.random.default_rng(17)
    ranks = set()
    for _ in range(300):
        n = int(rng.integers(3, 12))
        entries = (rng.integers(-3, 4, size=n) + 25 * rng.integers(-2, 3, size=n)).tolist()
        epsilon = Fraction(int(rng.integers(0, 3)), 8)
        cert = gap_fit(CoefficientMultiset.of(entries), epsilon)
        keep = n - math.floor(epsilon * n)
        ranks.add(cert.gap.rank)
        if cert.gap.rank == 2:
            assert cert.gap.volume < 2 * gaps._rank1_optimum(entries, keep)[1] + 1
            assert min(cert.gap.bounds) > 0
            assert len(gap_lattice_points(cert.gap)[1]) == cert.gap.volume
        assert cert.covered >= keep
        assert cert.covered == sum(1 for v in entries if v in gap_materialize(cert.gap)[0])
    assert ranks == {1, 2}


def test_gap_fit_kept_zeros_give_the_zero_gap():
    cert = gap_fit(CoefficientMultiset.of([0, 0, 0, 5, 7]), Fraction(2, 5))
    assert cert.gap == Gap.of([1], [0]) and cert.covered == 3
    assert gap_fit(CoefficientMultiset.of([0, 0]), 0).gap == Gap.of([1], [0])


def test_rank1_gcds_are_budgeted(monkeypatch):
    # 2, 3, 5, 7 have the subset gcds 1, 2, 3, 5, 7: 4 x 5 steps
    monkeypatch.setattr(gaps, "MATERIALIZE_BUDGET", 19)
    with pytest.raises(BudgetError):
        gap_fit(CoefficientMultiset.of([2, 3, 5, 7]), 0)
    monkeypatch.setattr(gaps, "MATERIALIZE_BUDGET", 20)
    assert gap_fit(CoefficientMultiset.of([2, 3, 5, 7]), 0, max_rank=1).gap == Gap.of([1], [7])


def test_gap_fit_refuses_a_volume_past_the_int_to_str_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts ints of any length to text")
    with pytest.raises(BudgetError, match=f"{limit + 1} decimal digits"):
        gap_fit(CoefficientMultiset.of([10**limit - 1, 1]), 0)
    # one digit fewer: volume 2 * 10^(limit - 1) - 1 has limit digits
    assert gap_fit(CoefficientMultiset.of([10 ** (limit - 1) - 1, 1]), 0).gap.volume \
        == 2 * 10 ** (limit - 1) - 1


def test_census_small_exact():
    rows = structured_multiset_census(2, 2, [Fraction(1, 2), Fraction(0)])
    by_rho = {r: c for r, c, _ in rows}
    # exactly the sorted pairs {a, +-a}: {1,1},{2,2},{-1,-1},{-2,-2},{-1,1},{-2,2}
    assert by_rho[Fraction(1, 2)] == 6
    assert by_rho[Fraction(0)] == 10  # C(4+2-1, 2)


def test_census_monotone():
    grid = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(0)]
    rows = structured_multiset_census(3, 3, grid)
    counts = [c for _, c, _ in sorted(rows, key=lambda r: r[0], reverse=True)]
    assert counts == sorted(counts)


def test_census_thresholds_match_fraction_comparison():
    # the integer threshold ceil(rho0 2^n) against rho(A) >= rho0 in
    # Fractions: grid points at each possible rho, just either side of it,
    # 0, below 0 and above 1
    n, M = 4, 3
    grid = [Fraction(k, 16) + d for k in range(-1, 18)
            for d in (Fraction(-1, 99), 0, Fraction(1, 99))]
    universe = [x for x in range(-M, M + 1) if x != 0]
    rhos = [Fraction(max(bernoulli_int_counts(combo).values()), 2**n)
            for combo in itertools.combinations_with_replacement(universe, n)]
    rows = structured_multiset_census(n, M, grid)
    assert [(r, c) for r, c, _ in rows] == \
        [(r0, sum(1 for r in rhos if r >= r0)) for r0 in sorted(grid, reverse=True)]


def test_rank2_fit_rounds_ties_to_even():
    # 9 / 6 and 3 / 6 lie at exact halves: to the even integers 2 and 0, as
    # round() takes them, entry 3 is a multiple 0 of 6 and the cover {3, -3}
    # has volume 3; rounding halves up would give it the multiple 1, volume 9
    assert gaps._rank2_fit([9, 9, 9, 3], 1) == (Gap.of([3, 6], [1, 0]), 1)
    # the tie at -3 / 2 and 5 / 2 decides which of two volume-9 covers wins
    assert gaps._rank2_fit([0, -5, 2, -3, 0, 0], 5) == (Gap.of([1, 3], [1, 1]), 5)


def test_census_budget(monkeypatch):
    monkeypatch.setattr(gaps, "CENSUS_BUDGET", 100)
    with pytest.raises(BudgetError):
        structured_multiset_census(8, 8, [Fraction(1, 2)])


def test_geometric_progression_rho():
    assert geometric_progression_rho(1, 3) == Fraction(3, 8)
    # powers of two: all 2^(n+1) signed sums are distinct binary expansions
    assert geometric_progression_rho(2, 6) == Fraction(1, 128)
    rho = geometric_progression_rho(None, 8, quad=(1, 1))  # golden ratio
    assert rho == Fraction(1, 64)
    assert float(rho) >= 8 ** (-2.5)
    # rational x with small denominator
    third = geometric_progression_rho(Fraction(1, 3), 2)
    counts = bernoulli_int_counts([9, 3, 1])  # scaled by 9
    assert third == Fraction(max(counts.values()), 8)
