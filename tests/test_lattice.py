"""Oracle tests for the integer-lattice kernel and every exact law built on
it, against brute-force sign enumeration with Fraction arithmetic."""
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smallball.core import (
    ball_probability_1d,
    exact_sign_sum_distribution,
    lattice_counts,
)
from smallball.fourier import rl_count
from smallball.gaps import geometric_progression_rho
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
    ValidationError,
)

LAWS = {
    "pm1": SignDistribution.bernoulli_pm1(),
    "bool": SignDistribution.boolean_01(),
    "lazy": SignDistribution.lazy(Fraction(2, 3)),
}

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def outcomes(entries, xi):
    """(value, probability) of every sign assignment."""
    for combo in itertools.product(xi.support, repeat=len(entries)):
        value = sum((a * v for a, (v, _) in zip(entries, combo)), Fraction(0))
        yield value, math.prod((p for _, p in combo), start=Fraction(1))


def brute_law(entries, xi):
    law = {}
    for value, p in outcomes(entries, xi):
        law[value] = law.get(value, Fraction(0)) + p
    return law


def brute_ball(law, R):
    """(mass, centre) of the best closed window [a, a + 2R] anchored at an
    atom, centred between its extreme atoms; ties go to the smallest centre."""
    best = (Fraction(-1), None)
    for a in sorted(law):
        covered = [v for v in law if a <= v <= a + 2 * R]
        mass = sum(law[v] for v in covered)
        if mass > best[0]:
            best = (mass, (a + max(covered)) / 2)
    return best


def test_kernel_counts_weighted_steps():
    # (x0 + 2 x^1)(x^-3 + x^3): shifts add, weights multiply, sums merge
    assert lattice_counts([((0, 1), (1, 2)), ((-3, 1), (3, 1))]) == \
        {-3: 1, 3: 1, -2: 2, 4: 2}
    assert lattice_counts([((-1, 1), (1, 1))] * 2) == {-2: 1, 0: 2, 2: 1}
    with pytest.raises(BudgetError):
        lattice_counts([((-1, 1), (1, 1))] * 3, budget=3)


@given(st.lists(rationals, min_size=1, max_size=6), st.sampled_from(sorted(LAWS)))
@settings(max_examples=60, deadline=None)
def test_distribution_matches_sign_enumeration(entries, law):
    xi = LAWS[law]
    dist = exact_sign_sum_distribution(CoefficientMultiset.of(entries), xi)
    oracle = brute_law(entries, xi)
    assert dict(dist.atoms) == oracle
    assert len(dist.atoms) == len(oracle)
    best = max(oracle.values())
    assert dist.max_atom() == (best, min(v for v, p in oracle.items() if p == best))
    assert [v for v, _ in dist.sorted_items()] == sorted(oracle)


def fraction_convolution_order(pairs, xi):
    """Keys of the sequential Fraction-pair convolution, in insertion order."""
    atoms = {(Fraction(0), Fraction(0)): None}
    for ax, ay in pairs:
        atoms = {(x + ax * s, y + ay * s): None for x, y in atoms for s, _ in xi.support}
    return list(atoms)


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5),
       st.sampled_from(sorted(LAWS)))
@settings(max_examples=40, deadline=None)
def test_distribution_2d_matches_enumeration_and_order(pairs, law):
    xi = LAWS[law]
    A = CoefficientMultiset.of_pairs(pairs)
    dist = exact_sign_sum_distribution(A, xi)
    oracle = {}
    for combo in itertools.product(xi.support, repeat=A.n):
        key = (sum((x * v for (x, _), (v, _) in zip(A.entries, combo)), Fraction(0)),
               sum((y * v for (_, y), (v, _) in zip(A.entries, combo)), Fraction(0)))
        oracle[key] = oracle.get(key, Fraction(0)) + math.prod(
            (p for _, p in combo), start=Fraction(1))
    assert dict(dist.atoms) == oracle
    # the 2-D disk scan's witness depends on the atoms' order
    assert list(dist.atoms) == fraction_convolution_order(A.entries, xi)


@given(st.lists(rationals, min_size=1, max_size=6), st.sampled_from(sorted(LAWS)),
       st.fractions(min_value=0, max_value=12, max_denominator=7))
@settings(max_examples=60, deadline=None)
def test_ball_1d_matches_window_oracle(entries, law, R):
    xi = LAWS[law]
    got = ball_probability_1d(CoefficientMultiset.of(entries), xi, R)
    assert got == brute_ball(brute_law(entries, xi), R)


def test_ball_1d_radius_denominator_not_dividing_entries():
    # entries on (1/6)Z, radius in (1/7)Z: the window width is not a lattice step
    entries = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 3)]
    for law, xi in LAWS.items():
        for R in (Fraction(1, 7), Fraction(3, 7), Fraction(5, 7), Fraction(13, 7)):
            got = ball_probability_1d(CoefficientMultiset.of(entries), xi, R)
            assert got == brute_ball(brute_law(entries, xi), R), (law, R)


@given(st.lists(rationals, min_size=1, max_size=5), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_rl_count_matches_tuple_enumeration(entries, l):
    n = len(entries)
    want = sum(1 for tup in itertools.product(range(n), repeat=2 * l)
               if sum(entries[i] for i in tup[:l]) == sum(entries[i] for i in tup[l:]))
    assert rl_count(CoefficientMultiset.of(entries), l) == want


@given(st.fractions(min_value=-9, max_value=9, max_denominator=9), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_geometric_rho_rational_matches_enumeration(x, n):
    counts = Counter(sum(s * x**j for j, s in enumerate(signs))
                     for signs in itertools.product((-1, 1), repeat=n + 1))
    assert geometric_progression_rho(x, n) == Fraction(max(counts.values()), 2 ** (n + 1))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_geometric_rho_quadratic_matches_enumeration(c1, c0, n):
    # t^(j+1) = t * (u + v t) = v c0 + (u + v c1) t in Z[t]/(t^2 - c1 t - c0)
    powers = [(1, 0)]
    for _ in range(n):
        u, v = powers[-1]
        powers.append((v * c0, u + v * c1))
    counts = Counter(
        (sum(s * u for s, (u, _) in zip(signs, powers)),
         sum(s * v for s, (_, v) in zip(signs, powers)))
        for signs in itertools.product((-1, 1), repeat=n + 1))
    assert geometric_progression_rho(None, n, quad=(c1, c0)) == \
        Fraction(max(counts.values()), 2 ** (n + 1))


def test_exact_distribution_rejects_counts_not_summing_to_total():
    assert ExactDistribution({-1: 1, 1: 1}, 1, 2, 1).max_atom() == (Fraction(1, 2), -1)
    with pytest.raises(ValidationError):
        ExactDistribution({-1: 1, 1: 2}, 1, 4, 1)
