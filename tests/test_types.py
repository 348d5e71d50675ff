import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smallball.types import (
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
    SortedCounts,
    ValidationError,
    common_denominator,
    lattice_ints,
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


def test_multiset_construction():
    A = CoefficientMultiset.of([3, 1, 2])
    assert A.entries == (Fraction(1), Fraction(2), Fraction(3))
    assert A.n == 3
    B = CoefficientMultiset.from_text("1, 2 3/2")
    assert B.entries == (Fraction(1), Fraction(3, 2), Fraction(2))
    with pytest.raises(ValidationError):
        CoefficientMultiset.from_text("")


@given(st.fractions(), st.fractions(), st.fractions(min_value=0, max_value=100),
       st.fractions())
def test_quad_le_against_float(a, b, q, c):
    lhs = float(a) + float(b) * float(q) ** 0.5
    expected = lhs <= float(c)
    got = quad_le(a, b, q, c)
    # only trust the float comparison away from ties
    if abs(lhs - float(c)) > 1e-6 * (1 + abs(lhs) + abs(float(c))):
        assert got == expected


def test_trace_probe_sees_one_law_built_through_the_module(capsys):
    # a tracer wraps library functions where a module binds them and
    # ExactDistribution.__post_init__ on the class; its fixed probe, `esseen
    # --entries=1,2,3 --beta=1`, must reach ball_probability_1d, which builds
    # its law through the module attribute with one construction check
    from smallball import core, fourier
    from smallball.cli import main

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    post_init = ExactDistribution.__dict__["__post_init__"]
    with mock.patch.object(core, "exact_sign_sum_distribution",
                           counted("law", core.exact_sign_sum_distribution)), \
            mock.patch.object(fourier, "ball_probability_1d",
                              counted("ball", fourier.ball_probability_1d)), \
            mock.patch.object(ExactDistribution, "__post_init__", counted("check", post_init)):
        assert main(["esseen", "--entries=1,2,3", "--beta=1"]) == 0
    assert calls == {"ball": 1, "law": 1, "check": 1}
    assert '"exact": "3/8"' in capsys.readouterr().out


# (entries, d, the dtype of the kernel's arrays); each id ends in the path
# that counts the law, SortedCounts for the int64 arrays and dict for the
# dict merge, whose law the kernel sorts into arrays at its exit
@pytest.mark.parametrize("entries, d, dtype", [
    pytest.param([3, 5, 9], 1, np.int64, id="entries0-1-dict"),  # tiny
    pytest.param([1] * 40, 1, np.int64, id="entries1-1-SortedCounts"),  # narrow: the histogram
    # wide: the sorted merge
    pytest.param([10**5 + 3**k for k in range(10)], 1, np.int64, id="entries2-1-SortedCounts"),
    # keys past int64
    pytest.param([10**19 + 3**k for k in range(10)], 1, object, id="entries3-1-dict"),
    pytest.param([1, 0, 0, 1, 1, 1], 2, np.int64, id="entries4-2-dict"),
])
def test_construction_check_and_support_size_on_every_path(entries, d, dtype):
    from smallball import core
    from smallball.core import exact_sign_sum_distribution

    A = CoefficientMultiset.of(entries) if d == 1 else \
        CoefficientMultiset.of_pairs(list(zip(entries[::2], entries[1::2])))
    law = exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1())
    assert type(law.counts) is SortedCounts
    assert law.counts.arrays[0].dtype == law.counts.arrays[1].dtype == dtype
    with mock.patch.object(core, "_array_counts", return_value=None):
        size = len(exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1()).counts)
    # the support size, read without building the Fraction atoms or, from
    # the arrays, a dict of counts
    assert len(law.atoms) == len(law.counts) == size
    assert "_atoms" not in law.__dict__ and "_dict" not in getattr(law.counts, "__dict__", {})
    assert len(dict(law.atoms)) == size
    # __post_init__, defined on the class, refuses counts off the total
    assert "__post_init__" in ExactDistribution.__dict__
    with pytest.raises(ValidationError, match="do not sum to"):
        ExactDistribution(law.counts, law.scale, law.total + 1, law.n_source, law.pack)


def _seeded_rationals(rng, n):
    """Negatives and zeros, denominators up to 10^6, numerators past int64."""
    return [Fraction(rng.choice([0, rng.randint(-9, 9), rng.randint(-2**70, 2**70)]),
                     rng.choice([1, 2, 3, 7, 40, rng.randint(1, 10**6)])) for _ in range(n)]


def _written(rng, v):
    """v as an int, a Fraction or a 'p/q' string with a common factor."""
    k = rng.randint(2, 5)
    return rng.choice([v, f"{v.numerator * k}/{v.denominator * k}"]
                      + ([int(v)] if v.denominator == 1 else []))


def test_integer_keys_sort_and_scale_like_fractions():
    rng = random.Random(2026)
    for _ in range(300):
        vals = _seeded_rationals(rng, rng.randint(1, 24))
        vals += [vals[0]] * rng.randint(0, 3)  # repeats
        L = common_denominator(vals)
        for scale in (L, 6 * L):
            assert lattice_ints(vals, scale) == [int(v * scale) for v in vals]
        assert CoefficientMultiset.of([_written(rng, v) for v in vals]).entries == tuple(
            sorted(vals))
        # pairs: x drawn from a few values, so many pairs tie in x
        xs = rng.sample(vals, min(len(vals), 3))
        pairs = [(rng.choice(xs), y) for y in _seeded_rationals(rng, len(vals))]
        assert CoefficientMultiset.of_pairs(
            [(_written(rng, x), _written(rng, y)) for x, y in pairs]).entries == tuple(
            sorted(pairs))
