import itertools
import math
import random
from fractions import Fraction

import pytest

from smallball import lcd
from smallball.core import ball_probability_1d
from smallball.lcd import (
    DEFAULT_RESOLUTION,
    RECURRENCE_BLOCK,
    RECURRENCE_C,
    LcdResult,
    RecurrenceMeasure,
    _check_scan,
    check_rv_soundness,
    lcd_1d,
    lcd_multidim,
    recurrence_set_measure,
    rv_smallball_bound,
)
from smallball.types import (
    BudgetError,
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


def test_lcd_multidim_certificate(monkeypatch):
    import numpy as np

    rng = np.random.default_rng(11)
    pts = []
    for _ in range(20):
        ang = rng.random() * 2 * math.pi
        pts.append((Fraction(round(math.cos(ang) * 64), 64),
                    Fraction(round(math.sin(ang) * 64), 64)))
    pts = [(3 * x, 3 * y) for x, y in pts]  # ensure isotropy
    monkeypatch.setattr(lcd, "LCD_ANGLE_GRID", 180)
    r = lcd_multidim(pts, math.sqrt(20) / 10, GAMMA, theta_max=3, resolution=0.05)
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


def _nearest_int(x: Fraction) -> int:
    fl = math.floor(x)
    return fl if x - fl <= Fraction(1, 2) else fl + 1


def _lcd_1d_reference(a, alpha, gamma, theta_max=None, resolution=DEFAULT_RESOLUTION):
    """The rational scan that the integer-lattice lcd_1d replaced: every
    candidate built as a Fraction and sorted, every decision a Fraction
    comparison."""
    a = [Fraction(x) for x in a]
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValidationError("gamma must lie in (0, 1)")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if theta_max is None:
        theta_max = Fraction(math.isqrt(len(a)) + 1) / gamma
    theta_max, resolution = Fraction(theta_max), Fraction(resolution)
    _check_scan(theta_max, resolution, [abs(c) for c in a])
    cands = set()
    for step in (resolution, *(1 / abs(c) for c in a if c)):
        k = 1
        while k * step <= theta_max:
            cands.add(k * step)
            k += 1
    a2 = sum(x * x for x in a)
    best_margin = None
    for theta in sorted(cands):
        xs = [ai * theta for ai in a]
        ps = [_nearest_int(x) for x in xs]
        d2 = sum((x - p) * (x - p) for x, p in zip(xs, ps))
        cutoff2 = min(gamma * gamma * a2 * theta * theta, alpha * alpha)
        if d2 < cutoff2:
            return LcdResult(theta, theta, tuple(ps), math.sqrt(float(d2)), 0.0,
                             float(theta_max), float(resolution))
        slack = math.sqrt(float(d2)) - math.sqrt(float(cutoff2))
        if best_margin is None or slack < best_margin:
            best_margin = slack
    return LcdResult(None, None, None, float("nan"),
                     best_margin if best_margin is not None else float("inf"),
                     float(theta_max), float(resolution))


def _outcome(fn, *args):
    try:
        return repr(fn(*args).to_json_dict())
    except (BudgetError, ValidationError) as exc:
        return type(exc), str(exc)


def _lcd_corpus(count, seed=20261018):
    rng = random.Random(seed)
    gammas = [Fraction(1, 50), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
    alphas = [Fraction(1, 50), Fraction(1, 12), Fraction(1, 4), Fraction(1, 2), Fraction(1),
              Fraction(3)]
    resolutions = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 3), Fraction(2, 7),
                   Fraction(1, 20), Fraction(3, 2)]
    for i in range(count):
        n = rng.randint(0, 6)
        if i % 25 == 0:
            a = [Fraction(0)] * n  # all zero (and, for n = 0, empty)
        else:
            a = [Fraction(rng.randint(-12, 12) if rng.random() < 0.8 else 0, rng.randint(1, 40))
                 for _ in range(n)]
        gamma = rng.choice(gammas)
        theta_max = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3),
                                Fraction(5), None if gamma >= Fraction(1, 2) else Fraction(4)])
        yield a, rng.choice(alphas), gamma, theta_max, rng.choice(resolutions)


def test_lcd_1d_matches_rational_reference():
    hits = misses = 0
    for case in _lcd_corpus(2400):
        got = _outcome(lcd_1d, *case)
        assert got == _outcome(_lcd_1d_reference, *case), case
        hits += "'lcd': 'infinite'" not in got
        misses += "'lcd': 'infinite'" in got
    assert hits >= 300 and misses >= 300, (hits, misses)


@pytest.mark.parametrize("case", [
    ([1, 2], Fraction(1, 8), 0, None, Fraction(1, 4)),
    ([1, 2], Fraction(1, 8), 1, None, Fraction(1, 4)),
    ([1, 2], 0, Fraction(1, 2), None, Fraction(1, 4)),
    ([1, 2], -1, Fraction(1, 2), None, Fraction(1, 4)),
    ([1, 2], Fraction(1, 8), Fraction(1, 2), None, 0),
    ([1, 2], Fraction(1, 8), Fraction(1, 2), None, Fraction(-1, 4)),
    ([1, 2], Fraction(1, 100), Fraction(1, 2), None, Fraction(1, 10**6)),
    ([Fraction(10**6, 7)], Fraction(1, 8), Fraction(1, 2), 2, Fraction(1, 4)),
    ([1], Fraction(1, 8), Fraction(1, 2), 10**6, Fraction(1, 4)),
])
def test_lcd_1d_refusals_match_rational_reference(case):
    got = _outcome(lcd_1d, *case)
    assert isinstance(got, tuple)
    assert got == _outcome(_lcd_1d_reference, *case)


def test_lcd_witness_rounds_ties_down():
    # theta = 1 puts 1/2 and -1/2 exactly halfway between two integers
    r = lcd_1d([1, Fraction(1, 2)], 1, GAMMA, theta_max=1, resolution=1)
    assert (r.lcd, r.witness_integers) == (1, (1, 0))
    r = lcd_1d([1, Fraction(-1, 2)], 1, GAMMA, theta_max=1, resolution=1)
    assert (r.lcd, r.witness_integers) == (1, (1, -1))


def _recurrence_reference(a, t, z, beta, gamma, alpha, grid_points):
    """The scalar loop that the numpy blocks replaced, and its per-point
    flags."""
    scale = [float(Fraction(x) * Fraction(z) / Fraction(beta)) for x in a]
    t_f = float(t)
    tt = t_f ** 2
    h = 2.0 / grid_points
    goods = []
    for i in range(grid_points):
        theta = -1.0 + (i + 0.5) * h
        d2 = 0.0
        for c in scale:
            x = c * theta
            d = x - round(x)
            d2 += d * d
        goods.append(d2 <= tt)
    inside = sum(goods)
    boundary = sum(g != p for p, g in zip(goods, goods[1:]))
    measure = inside * h
    boundary_fraction = (boundary * h / measure) if measure > 0 else 0.0
    return RecurrenceMeasure(measure, RECURRENCE_C * t_f * float(beta) / float(gamma),
                             boundary_fraction, boundary_fraction > 0.01), goods


@pytest.mark.parametrize("grid_points", [RECURRENCE_BLOCK - 1, RECURRENCE_BLOCK,
                                         RECURRENCE_BLOCK + 1, 3 * RECURRENCE_BLOCK + 7])
def test_recurrence_blocks_match_scalar_loop(grid_points):
    for a, t, z, beta in [([1, Fraction(7, 3), 5], Fraction(1, 10), 2, Fraction(3, 2)),
                          ([Fraction(1, 3)], Fraction(1, 4), 1, 1)]:
        ref, _ = _recurrence_reference(a, t, z, beta, GAMMA, 1, grid_points)
        got = recurrence_set_measure(a, t, z, beta, GAMMA, 1, grid_points)
        assert repr(got) == repr(ref)


def test_recurrence_transition_on_block_boundary():
    # for entries (1, 1/2) and theta near -1/3, d^2 = 5 theta^2 / 4 falls
    # with i: a t between its values at points B - 1 and B makes point B
    # the first good one, so the flip is counted only across the blocks
    B, G = RECURRENCE_BLOCK, 3 * RECURRENCE_BLOCK + 7
    thetas = [-1.0 + (i + 0.5) * (2.0 / G) for i in (B - 1, B)]
    t = Fraction(math.sqrt(1.25) * (abs(thetas[0]) + abs(thetas[1])) / 2)
    ref, goods = _recurrence_reference([1, Fraction(1, 2)], t, 1, 1, GAMMA, 1, G)
    assert (goods[B - 1], goods[B]) == (False, True)
    got = recurrence_set_measure([1, Fraction(1, 2)], t, 1, 1, GAMMA, 1, G)
    assert repr(got) == repr(ref)
