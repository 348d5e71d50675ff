import itertools
import math
from fractions import Fraction

import pytest

from smallball.core import ball_probability_1d
from smallball.lcd import (
    RECURRENCE_C,
    check_rv_soundness,
    lcd_1d,
    lcd_multidim,
    recurrence_set_measure,
    rv_smallball_bound,
)
from smallball.types import (
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
)

ALPHA = Fraction(1, 12)  # < 1/8: blocks every non-hit candidate for entries <= 8
GAMMA = Fraction(1, 2)


def test_lcd_all_ones():
    r = lcd_1d([1] * 8, Fraction(1, 2), GAMMA)
    assert r.lcd == 1
    assert r.witness_integers == (1,) * 8
    assert r.achieved_distance == 0.0


def test_lcd_two_twos():
    r = lcd_1d([2, 2], Fraction(1, 2), GAMMA)
    assert r.lcd == Fraction(1, 2)


def test_lcd_good_rational_approximation():
    # (1, 239/169): 239/169 is a Pell convergent of sqrt(2), so the first
    # qualifying window on a fine grid sits near theta = 2.07, well past the
    # integer hits at 1 and 2; the coarse default scan first lands on the
    # lattice-refinement candidate 7*169/239 near 4.95.
    a = [1, Fraction(239, 169)]
    fine = lcd_1d(a, Fraction(1, 10), Fraction(1, 10), theta_max=10,
                  resolution=Fraction(1, 500))
    assert 2 < fine.lcd < Fraction(21, 10)
    coarse = lcd_1d(a, Fraction(1, 10), Fraction(1, 10), theta_max=10)
    assert coarse.lcd == Fraction(7 * 169, 239)


def test_lcd_sentinel_certificate():
    r = lcd_1d([1, Fraction(239, 169)], Fraction(1, 50), Fraction(1, 50),
               theta_max=2, resolution=Fraction(1, 100))
    assert r.is_infinite
    assert r.margin > 0


def test_integer_vector_law_sample():
    # spot sample; the exhaustive sweep is acceptance criterion 10
    for a in [(1,), (5,), (8, 1), (7, 8), (2, 4, 6), (3, 5, 7), (8, 8, 8),
              (2, 3, 5, 7), (4, 6, 8, 2, 6)]:
        g = math.gcd(*a)
        r = lcd_1d(list(a), ALPHA, GAMMA, theta_max=Fraction(3, 2))
        assert r.lcd == Fraction(1, g), a


def test_lcd_scaling_covariance():
    for a, c in [((3, 4, 5), 2), ((1, 2), 3), ((5, 8), 2)]:
        base = lcd_1d(list(a), ALPHA, GAMMA, theta_max=2)
        scaled = lcd_1d([c * x for x in a], ALPHA, GAMMA,
                        theta_max=Fraction(2, c),
                        resolution=Fraction(1, 4 * c))
        assert scaled.lcd == base.lcd / c


def test_lcd_monotone_in_alpha_and_gamma():
    a = [1, Fraction(239, 169)]
    res = Fraction(1, 400)
    vals = []
    for alpha in (Fraction(1, 50), Fraction(1, 10), Fraction(1, 2)):
        r = lcd_1d(a, alpha, Fraction(1, 10), theta_max=12, resolution=res)
        vals.append(float(r.lcd) if not r.is_infinite else math.inf)
    assert vals == sorted(vals, reverse=True)
    vals = []
    for gamma in (Fraction(1, 100), Fraction(1, 10), Fraction(9, 10)):
        r = lcd_1d(a, Fraction(1, 10), gamma, theta_max=12, resolution=res)
        vals.append(float(r.lcd) if not r.is_infinite else math.inf)
    assert vals == sorted(vals, reverse=True)


def test_lcd_multidim_basis_vectors():
    r = lcd_multidim([(1, 0)] * 4 + [(0, 1)] * 4, Fraction(1, 2), GAMMA)
    assert r.lcd == pytest.approx(1.0)


def test_lcd_multidim_scaling():
    base = lcd_multidim([(1, 0)] * 4 + [(0, 1)] * 4, Fraction(1, 2), GAMMA)
    scaled = lcd_multidim([(2, 0)] * 4 + [(0, 2)] * 4, Fraction(1, 2), GAMMA,
                          resolution=0.125)
    assert scaled.lcd == pytest.approx(base.lcd / 2)


def test_lcd_multidim_isotropy_violation():
    with pytest.raises(ValidationError):
        lcd_multidim([(1, 0)] * 3, Fraction(1, 2), GAMMA)


def test_lcd_multidim_certificate():
    import numpy as np

    rng = np.random.default_rng(11)
    pts = []
    for _ in range(20):
        ang = rng.random() * 2 * math.pi
        pts.append((Fraction(round(math.cos(ang) * 64), 64),
                    Fraction(round(math.sin(ang) * 64), 64)))
    pts = [(3 * x, 3 * y) for x, y in pts]  # ensure isotropy
    r = lcd_multidim(pts, math.sqrt(20) / 10, GAMMA, theta_max=3,
                     resolution=0.05, angle_grid=180)
    assert r.is_infinite or r.lcd >= 0.3


def test_rv_bound_soundness_and_preconditions():
    quarter = Fraction(1, 4)
    res, exact = check_rv_soundness([quarter] * 16, 1, 4, GAMMA)
    assert res.bound >= float(exact) >= 0
    with pytest.raises(ValidationError):
        rv_smallball_bound([Fraction(1, 10)], 1, 1, GAMMA)  # sum a^2 < 1
    with pytest.raises(ValidationError):
        rv_smallball_bound([1, 1], 1, 1, GAMMA,
                           SignDistribution.boolean_01())  # b = 0
    with pytest.raises(ValidationError):
        rv_smallball_bound([quarter] * 16, Fraction(1, 100), 4, GAMMA)


def test_rv_bound_large_beta_trivial():
    res = rv_smallball_bound([1] * 4, 10, 2, GAMMA)
    assert res.bound >= 1


def test_rv_erdos_rate_shape():
    # all-ones directions scaled to unit norm (perfect squares keep the
    # entries rational); the bound at beta = 1/LCD decays like n^{-1/2}
    vals = []
    for n in (16, 64):
        a = [Fraction(1, int(math.isqrt(n)))] * n
        lcd = lcd_1d(a, Fraction(math.isqrt(n), 4), GAMMA)
        beta = 1 / lcd.lcd
        res = rv_smallball_bound(a, beta, Fraction(math.isqrt(n), 4), GAMMA)
        exact, _ = ball_probability_1d(CoefficientMultiset.of(a),
                                       SignDistribution.bernoulli_pm1(), beta)
        assert res.bound >= float(exact)
        vals.append(res.bound * math.sqrt(n))
    assert max(vals) / min(vals) < 3


def test_recurrence_measure_analytic():
    res = recurrence_set_measure([1] * 10, Fraction(1, 4), 1, 1, GAMMA,
                                 Fraction(11, 20))
    analytic = 1 / math.sqrt(10)
    assert abs(res.measure_estimate - analytic) / analytic < 0.02
    assert res.measure_estimate <= res.lemma_bound
    assert not res.resolution_warning


def test_recurrence_t0_and_linearity():
    res0 = recurrence_set_measure([1, Fraction(7, 3), 5], Fraction(1, 1000), 1,
                                  1, GAMMA, 1, grid_points=20001)
    assert res0.measure_estimate <= 0.01  # near measure-zero set
    r1 = recurrence_set_measure([1] * 6, Fraction(1, 8), 1, 1, GAMMA, 1)
    r2 = recurrence_set_measure([1] * 6, Fraction(1, 4), 1, 1, GAMMA, 1)
    assert r2.lemma_bound == pytest.approx(2 * r1.lemma_bound)
    with pytest.raises(ValidationError):
        recurrence_set_measure([1], Fraction(1, 2), 1, 1, GAMMA, Fraction(1, 2))


def test_recurrence_frozen_constant_suite():
    # the frozen constant is never fit per instance; verify it dominates on
    # a fixed corpus
    suite = [
        ([1] * 10, Fraction(1, 4), 1, 1),
        ([1, 2, 3], Fraction(1, 8), 2, Fraction(1, 2)),
        ([2, 5, 9, 11], Fraction(1, 10), 1, 1),
        ([Fraction(3, 2), Fraction(5, 2)], Fraction(1, 6), 1, 1),
    ]
    for a, t, z, beta in suite:
        res = recurrence_set_measure(a, t, z, beta, GAMMA, 1,
                                     grid_points=40001)
        assert res.measure_estimate <= res.lemma_bound, (a, t, z, beta)
    assert RECURRENCE_C == 4.0
