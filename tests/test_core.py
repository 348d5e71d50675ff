import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smallball import core
from smallball.core import (
    ball_probability_1d,
    ball_probability_2d,
    bernoulli_int_counts,
    centered_progression,
    concentration_probability,
    disk_mass,
    exact_sign_sum_distribution,
    flat_direction_search,
    stanley_constant_scan,
)
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    SortedCounts,
    ValidationError,
)

from references import largest_binomial_sum

PM1 = SignDistribution.bernoulli_pm1()
BOOL = SignDistribution.boolean_01()


def brute_distribution(entries, xi):
    """Independent oracle: enumerate all |support|^n outcomes."""
    atoms = {}
    supports = [xi.support] * len(entries)
    for combo in itertools.product(*supports):
        val = sum((a * v for a, (v, _) in zip(entries, combo)), Fraction(0))
        prob = math.prod((p for _, p in combo), start=Fraction(1))
        atoms[val] = atoms.get(val, Fraction(0)) + prob
    return atoms


def test_distribution_examples():
    A = CoefficientMultiset.of([1, 1, 1, 1])
    dist = exact_sign_sum_distribution(A, PM1)
    assert dist.atoms[Fraction(0)] == Fraction(6, 16)
    single = exact_sign_sum_distribution(CoefficientMultiset.of([1]), PM1)
    assert dict(single.atoms) == {Fraction(-1): Fraction(1, 2),
                                  Fraction(1): Fraction(1, 2)}
    mixed = exact_sign_sum_distribution(CoefficientMultiset.of([-1, 0, 1]), PM1)
    assert mixed.atoms[Fraction(0)] == Fraction(1, 2)


def test_distribution_matches_enumeration_oracle():
    cases = [
        ([1, 2, 3], PM1),
        ([1, 1, 2], BOOL),
        ([Fraction(1, 2), Fraction(3, 2), 2], PM1),
        ([1, -1, 5, 5], SignDistribution.lazy(Fraction(1, 2))),
    ]
    for entries, xi in cases:
        A = CoefficientMultiset.of(entries)
        dist = exact_sign_sum_distribution(A, xi)
        assert dict(dist.atoms) == brute_distribution(A.entries, xi)


def test_capacity_budget(monkeypatch):
    A = CoefficientMultiset.of([2**k for k in range(12)])
    monkeypatch.setattr(core, "ATOM_BUDGET", 100)
    with pytest.raises(BudgetError):
        exact_sign_sum_distribution(A, PM1)


def test_concentration_examples():
    assert concentration_probability(CoefficientMultiset.of([1, 1, 1, 1])) == \
        (Fraction(3, 8), Fraction(0))
    assert concentration_probability(CoefficientMultiset.of([1, 2, 3])) == \
        (Fraction(1, 4), Fraction(0))
    assert concentration_probability(CoefficientMultiset.of([-1, 0, 1])) == \
        (Fraction(1, 2), Fraction(0))
    with pytest.raises(ValidationError):
        concentration_probability(CoefficientMultiset.of_pairs([(1, 0)]))


@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=7),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(bool))
@settings(max_examples=60, deadline=None)
def test_concentration_scaling_invariance(entries, c):
    A = CoefficientMultiset.of(entries)
    rho, arg = concentration_probability(A)
    rho_s, arg_s = concentration_probability(CoefficientMultiset.of([c * e for e in A.entries]))
    assert rho_s == rho
    # argmax scales by c, with the tie-break re-applied on the scaled values
    dist = exact_sign_sum_distribution(A, PM1)
    scaled_args = sorted(c * v for v, p in dist.atoms.items() if p == rho)
    assert arg_s == scaled_args[0]


def test_largest_binomial_sum():
    assert largest_binomial_sum(4, 1) == 6
    assert largest_binomial_sum(4, 2) == 10
    assert largest_binomial_sum(5, 7) == 32
    assert largest_binomial_sum(3, 0) == 0
    with pytest.raises(ValidationError):
        largest_binomial_sum(0, 1)


def test_ball_1d_examples():
    A = CoefficientMultiset.of([1, 1, 1, 1])
    p, c = ball_probability_1d(A, PM1, 1)
    assert p == Fraction(10, 16)
    # returned center must attain the mass
    dist = exact_sign_sum_distribution(A, PM1)
    att = sum(pr for v, pr in dist.atoms.items() if abs(v - c) <= 1)
    assert att == p
    p0, _ = ball_probability_1d(A, PM1, 0)
    assert p0 == concentration_probability(A)[0]
    p3, _ = ball_probability_1d(CoefficientMultiset.of([1, 2, 3]), PM1,
                                Fraction(1, 2))
    assert p3 == Fraction(1, 4)


def brute_ball_1d(entries, xi, R):
    """Oracle: direct mass summation over windows anchored at each atom."""
    atoms = brute_distribution(entries, xi)
    best = Fraction(0)
    for a in atoms:
        mass = sum(p for v, p in atoms.items() if a <= v <= a + 2 * R)
        best = max(best, mass)
    return best


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=7),
       st.fractions(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_ball_1d_matches_window_oracle(entries, R):
    A = CoefficientMultiset.of(entries)
    p, _ = ball_probability_1d(A, PM1, R)
    assert p == brute_ball_1d(A.entries, PM1, R)


def test_erdos_interval_optimum_small():
    # closed-interval extremal identity at the all-ones multiset
    for n in (3, 4, 5):
        A = CoefficientMultiset.of([1] * n)
        for R in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            p, _ = ball_probability_1d(A, PM1, R)
            s = math.floor(R) + 1
            assert p == Fraction(largest_binomial_sum(n, s), 2**n)


def test_ball_2d_flat_example():
    # ten unit e1's and one e2: the printed mass of the configured example
    A = CoefficientMultiset.of_pairs([(1, 0)] * 10 + [(0, 1)])
    R = Fraction(23, 10)
    dist = exact_sign_sum_distribution(A, BOOL)
    mass = disk_mass(dist, (Fraction(11, 2), Fraction(1, 2)), R)
    expected = Fraction(2 * sum(math.comb(10, i) for i in range(4, 8)), 2**11)
    assert mass == expected == Fraction(1584, 2048)
    # the sup over centers can only be larger, and still beats S(11,3)/2^11
    p, _ = ball_probability_2d(A, BOOL, R)
    assert p >= mass
    assert p > Fraction(largest_binomial_sum(11, 3), 2**11) == Fraction(1254, 2048)


def test_ball_2d_collinear_trivial():
    for n in (3, 5, 6):
        A = CoefficientMultiset.of_pairs([(1, 0)] * n)
        p, _ = ball_probability_2d(A, PM1, Fraction(9, 10))
        assert p == Fraction(math.comb(n, n // 2), 2**n)


def test_ball_2d_rotation_invariance():
    A = CoefficientMultiset.of_pairs([(1, 0), (0, 1), (1, 1), (2, 1)])
    R = Fraction(3, 2)
    p, _ = ball_probability_2d(A, PM1, R)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotated = CoefficientMultiset.of_pairs([(c * x - s * y, s * x + c * y) for x, y in A.entries])
    p_rot, _ = ball_probability_2d(rotated, PM1, R)
    assert p == p_rot


def test_ball_2d_size_bounded_by_the_budgets_alone():
    # no cap on n: 23 copies of (1, 0) have 24 atoms and give the 1-D ball's
    # p, while 23 distinct small vectors spread over 1363 atoms, past the
    # disk budget before any pair is examined
    ones = CoefficientMultiset.of_pairs([(1, 0)] * 23)
    want, _ = ball_probability_1d(CoefficientMultiset.of([1] * 23), PM1, 1)
    assert ball_probability_2d(ones, PM1, 1) == (want, (0.0, 0.0))
    assert want == Fraction(676039, 2097152)
    distinct = CoefficientMultiset.of_pairs([(i % 5, i // 5) for i in range(1, 24)])
    with pytest.raises(BudgetError, match="^1363 atoms x at least 1363 candidate centres"):
        ball_probability_2d(distinct, PM1, 1)


def test_ball_2d_witness_past_the_float_range():
    Y, R = 10**200 - 1, 10**200
    # the atoms (+-Y, +-1): the best centre is the first pair's, 2 apart, with
    # q = R^2/4 - 1/4 past the float range; sqrt(q) comes from its integer part
    A = CoefficientMultiset.of_pairs([(0, 1), (Y, 0)])
    assert ball_probability_2d(A, PM1, R) == (1, (0.0, 0.0))
    # a nonzero q that rounds to 0 reads 0
    B = CoefficientMultiset.of_pairs([(1, 0)])
    assert ball_probability_2d(B, PM1, 1 + Fraction(1, 10**330)) == (1, (0.0, 0.0))
    # the atoms (0, 0), (0, 2), (Y', 0), (Y', 2): the first pair's centre
    # (sqrt(R^2 - 1), 1) covers all four, its m, w and sqrt(q) are floats,
    # but the centre is past the float range
    C = CoefficientMultiset.of_pairs([(0, 2), (3 * 10**308, 0)])
    with pytest.raises(ValidationError, match="disk centre coordinate"):
        ball_probability_2d(C, BOOL, 18 * 10**307)


def test_ball_2d_disk_work_budget(monkeypatch):
    # the atoms (+-1, +-1) are four centres, and the four pairs at distance
    # exactly 2R give two each (the diagonal pairs lie past 2R): 4 x 12; the
    # same law scaled by 1/3 on the lattice (1/3)Z^2 examines as many
    A = CoefficientMultiset.of_pairs([(1, 0), (0, 1)])
    third = CoefficientMultiset.of_pairs([(x / 3, y / 3) for x, y in A.entries])
    for B, R in ((A, Fraction(1)), (third, Fraction(1, 3))):
        monkeypatch.setattr(core, "DISK_WORK_BUDGET", 48)
        assert ball_probability_2d(B, PM1, R)[0] == Fraction(1, 2)
        monkeypatch.setattr(core, "DISK_WORK_BUDGET", 47)
        with pytest.raises(BudgetError, match="4 atoms x 12 candidate centres"):
            ball_probability_2d(B, PM1, R)
    # past the budget on the atoms alone, before any pair is examined
    monkeypatch.setattr(core, "DISK_WORK_BUDGET", 15)
    with pytest.raises(BudgetError, match="4 atoms x at least 4 candidate centres"):
        ball_probability_2d(A, PM1, 1)


def test_flat_direction_search():
    collinear = CoefficientMultiset.of_pairs([(k, 0) for k in range(1, 7)])
    _, _, far = flat_direction_search(collinear, 8)
    assert far == 0
    # 12 points on a circle of radius 3
    pts = []
    for k in range(12):
        ang = 2 * math.pi * k / 12
        pts.append((Fraction(round(3 * math.cos(ang) * 8), 8),
                    Fraction(round(3 * math.sin(ang) * 8), 8)))
    circ = CoefficientMultiset.of_pairs(pts)
    _, _, far = flat_direction_search(circ, 360)
    assert far <= 8
    spike = CoefficientMultiset.of_pairs([(1, 0)] * 7 + [(0, 1)])
    _, _, far = flat_direction_search(spike, 8)
    assert far <= 1


def test_stanley_scan():
    rows = stanley_constant_scan([3, 5])
    assert rows[0][1] == Fraction(1, 2)
    assert abs(rows[0][2] - 2.598) < 1e-3
    target = math.sqrt(24 / math.pi)
    # n=5 is closer to the limit than n=3
    assert abs(rows[1][2] - target) < abs(rows[0][2] - target)
    with pytest.raises(ValidationError):
        stanley_constant_scan([4])


def test_bernoulli_int_counts_matches_general_path():
    entries = [1, -2, 2, 5]
    counts = bernoulli_int_counts(entries)
    dist = exact_sign_sum_distribution(CoefficientMultiset.of(entries), PM1)
    assert {Fraction(v): Fraction(c, 16) for v, c in counts.items()} == \
        dict(dist.atoms)


def test_centered_progression():
    assert centered_progression(5).entries == tuple(
        Fraction(k) for k in (-2, -1, 0, 1, 2))


def reference_max_atom(law):
    """The scan `max_atom` replaced: the largest count, then the least value
    among the keys that hold it."""
    best = max(law.counts.values())
    ties = [k for k, c in law.counts.items() if c == best]
    return Fraction(best, law.total), law._value(min(ties, key=law._coords if law.pack else None))


def reference_ball(law, R):
    """The bisection `ball_probability_1d` replaced, on a 1-D law: the first
    window of greatest mass, anchored at an atom, in value order."""
    keys = sorted(law.counts)
    mass = list(itertools.accumulate((law.counts[k] for k in keys), initial=0))
    width = math.floor(2 * Fraction(R) * law.scale)
    best, lo, hi = 0, 0, 1
    for i, k in enumerate(keys):
        j = bisect.bisect_right(keys, k + width, i)
        if mass[j] - mass[i] > best:
            best, lo, hi = mass[j] - mass[i], i, j
    return Fraction(best, law.total), Fraction(keys[lo] + keys[hi - 1], 2 * law.scale)


def reader_cases():
    """(entries, sign law, the kernel's counts type) on every path: the sorted
    merge (dissociated entries, whose atoms all tie, one with pairs of atoms
    2 apart), the histogram, the dict merge of a tiny law, keys past int64, a
    mass past int64, and keys at the edge of the merge's int64 guard."""
    rng = random.Random(18)
    lazy = SignDistribution.lazy(Fraction(1, 3))
    wide = [[Fraction(rng.choice([-1, 1]) * rng.randint(10**4, 10**6), rng.choice([1, 3, 40]))
             for _ in range(n)] for n in (10, 11, 12)]
    edge = [3**k for k in range(9)]
    return [(wide[0], PM1, SortedCounts), (wide[1], BOOL, SortedCounts),
            (wide[2][:7], lazy, SortedCounts),
            ([1] + [100_003 * 2**k + 7 * k for k in range(11)], PM1, SortedCounts),
            ([rng.randint(-9, 9) for _ in range(30)], PM1, SortedCounts),
            ([rng.randint(-9, 9) for _ in range(20)], lazy, SortedCounts),
            (wide[0][:5], BOOL, dict),
            ([10**19 + 3**k for k in range(11)], PM1, dict),
            ([1] * 63, PM1, dict),  # a total mass of 2^63, past int64
            (edge + [core.INT64_MAX // 2 - sum(edge)], PM1, SortedCounts)]


@pytest.mark.parametrize("entries, xi, kind", reader_cases())
def test_array_readers_match_the_python_reference(entries, xi, kind):
    A = CoefficientMultiset.of(entries)
    law = exact_sign_sum_distribution(A, xi)
    assert type(law.counts) is kind and len(law.atoms) == len(law.counts)
    assert law.max_atom() == reference_max_atom(law)
    keys = sorted(law.counts)
    span = Fraction(keys[-1] - keys[0], law.scale)
    radii = [Fraction(0), Fraction(1), abs(A.entries[0]) * Fraction(5, 7), span / 2,
             span / 2 + Fraction(1, 3), span * 10**12]
    for R in radii:
        assert ball_probability_1d(A, xi, R) == reference_ball(law, R), R
    # a radius past half the span covers every atom, centred between the ends
    assert ball_probability_1d(A, xi, span * 10**12) == (1, (keys[0] + keys[-1]) / 2 / law.scale)


def test_reader_cases_hold_ties():
    # the cases above test the tie rules: several atoms hold the greatest
    # count, and several best windows hold the greatest mass
    cases = reader_cases()
    for entries, xi, _ in (cases[0], cases[1], cases[3], cases[7]):
        law = exact_sign_sum_distribution(CoefficientMultiset.of(entries), xi)
        counts = list(law.counts.values())
        assert counts.count(max(counts)) > 1
    law = exact_sign_sum_distribution(CoefficientMultiset.of(cases[3][0]), PM1)
    keys = sorted(law.counts)
    pairs = [k for k, nxt in zip(keys, keys[1:]) if nxt - k == 2 * law.scale]
    assert len(pairs) == len(keys) // 2  # every window of radius 1 holds one pair


def test_max_atom_of_a_2d_law_matches_the_reference():
    A = CoefficientMultiset.of_pairs([(1, 0), (0, 1), (1, 1), (2, -1), (1, 2)])
    for xi in (PM1, BOOL, SignDistribution.lazy(Fraction(1, 2))):
        law = exact_sign_sum_distribution(A, xi)
        assert law.max_atom() == reference_max_atom(law)


def test_window_near_the_int64_edge_does_not_wrap():
    # keys in two clusters at +-(2^62 - 1), the upper one twice as likely;
    # a window wider than 2^62 from any upper key passes int64, and one from
    # a lower key never reaches the upper cluster: the best window is the
    # upper cluster, found only if the window ends are clamped inside the keys
    small = [3**k for k in range(9)]
    A = CoefficientMultiset.of(small + [core.INT64_MAX // 2 - sum(small)])
    xi = SignDistribution.general([(-1, Fraction(1, 3)), (1, Fraction(2, 3))])
    law = exact_sign_sum_distribution(A, xi)
    assert type(law.counts) is SortedCounts and max(law.counts) == core.INT64_MAX // 2
    R = Fraction(2**62 + 2 * sum(small) + 10, 2)
    assert ball_probability_1d(A, xi, R) == reference_ball(law, R)
    assert ball_probability_1d(A, xi, R)[0] == Fraction(2, 3)
