from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from smallball.types import (
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
    parse_rational,
    quad_le,
)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ValidationError):
        parse_rational("")
    with pytest.raises(ValidationError):
        parse_rational("1/0")


def test_sign_distribution_invariants():
    b = SignDistribution.bernoulli_pm1()
    assert sum(p for _, p in b.support) == 1
    lazy = SignDistribution.lazy(Fraction(1, 4))
    assert dict(lazy.support) == {
        Fraction(-1): Fraction(1, 8),
        Fraction(0): Fraction(3, 4),
        Fraction(1): Fraction(1, 8),
    }
    with pytest.raises(ValidationError):
        SignDistribution(((Fraction(0), Fraction(1, 2)),))


def test_b_value_extraction():
    # open unit windows: Bernoulli +-1 atoms are 2 apart, so b = 1/2
    assert SignDistribution.bernoulli_pm1().b_value() == Fraction(1, 2)
    # lazy law: window around 0 captures {0} plus one of +-1
    assert SignDistribution.lazy(Fraction(1, 4)).b_value() == Fraction(1, 8)
    assert SignDistribution.boolean_01().b_value() == 0


def test_difference_condition():
    b = SignDistribution.bernoulli_pm1()
    # |xi1 - xi2| = 2 with probability 1/2
    assert b.satisfies_difference_condition(1, 2, Fraction(1, 2))
    assert not b.satisfies_difference_condition(1, 2, Fraction(3, 4))


def test_multiset_construction():
    A = CoefficientMultiset.of([3, 1, 2])
    assert A.entries == (Fraction(1), Fraction(2), Fraction(3))
    assert A.n == 3
    B = CoefficientMultiset.from_text("1, 2 3/2")
    assert B.entries == (Fraction(1), Fraction(3, 2), Fraction(2))
    with pytest.raises(ValidationError):
        CoefficientMultiset.from_text("")


def test_multiset_rotation_exact():
    A = CoefficientMultiset.of_pairs([(1, 0), (0, 1)])
    R = A.rotated((Fraction(3, 5), Fraction(4, 5)))
    assert set(R.entries) == {(Fraction(3, 5), Fraction(4, 5)),
                              (Fraction(-4, 5), Fraction(3, 5))}
    with pytest.raises(ValidationError):
        A.rotated((Fraction(1, 2), Fraction(1, 2)))


@given(st.fractions(), st.fractions(), st.fractions(min_value=0, max_value=100),
       st.fractions())
def test_quad_le_against_float(a, b, q, c):
    lhs = float(a) + float(b) * float(q) ** 0.5
    expected = lhs <= float(c)
    got = quad_le(a, b, q, c)
    # only trust the float comparison away from ties
    if abs(lhs - float(c)) > 1e-6 * (1 + abs(lhs) + abs(float(c))):
        assert got == expected
