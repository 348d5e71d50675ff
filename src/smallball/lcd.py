"""Essential least common denominator scans and the small-ball bounds that
consume them.

The defining set {theta > 0 : dist(theta a, Z^n) < min(gamma ||theta a||_2,
alpha)} is open, so its infimum is generally unattained and lies slightly
below the first lattice hit: approaching theta = 1/g from below, the
distance (1/g - theta) ||a|| already satisfies both conditions once theta >
max(1/(g(1+gamma)), 1/g - alpha/||a||).  The scan therefore reports the
least *candidate* theta satisfying the condition, where the candidates are
the global grid of step `resolution` plus the exact rationals k/|a_i|
("LCD up to resolution delta").  For integer vectors with entries bounded
by 1/(2 alpha) this candidate scan provably returns exactly 1/gcd: at any
candidate k/|a_i| that is not a multiple of 1/gcd some coordinate sits at a
rational with denominator |a_i|, hence at distance >= 1/|a_i| > alpha from
the integers, and grid candidates k delta with delta = 1/4 are either
lattice hits or at coordinate distance >= 1/4 > alpha.

The 1-D scan decides on the integer lattice: over one common denominator
each candidate is m / L, the numerators come lazily in increasing order,
and every comparison is between integers; a Fraction is built only for the
reported lcd.  The 2-D scan and the recurrence grid run in floats, the
grid in numpy blocks of RECURRENCE_BLOCK points.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
    check_bound,
    checked_float,
)

DEFAULT_RESOLUTION = Fraction(1, 4)
RECURRENCE_C = 4.0  # frozen once against the d=1 corpus; never auto-fit
# Most candidates one LCD scan may build, and most grid points x entries one
# recurrence scan may take: each more than ten times the most that any test,
# golden case or benchmark workload needs (about 5e3 and 1e6).
LCD_CANDIDATE_BUDGET = 10**5
RECURRENCE_BUDGET = 2 * 10**7
RECURRENCE_BLOCK = 2**16
LCD_ANGLE_GRID = 720  # directions of the 2-D scan


@dataclass(frozen=True)
class LcdResult:
    """Outcome of an LCD scan.

    lcd is None when no scanned candidate (<= theta_max) satisfies the
    condition; then `margin` reports the smallest observed slack
    dist - min(gamma ||theta a||, alpha) over the scan, certifying the
    failure on the scanned set.
    """

    lcd: Fraction | float | None
    witness_theta: Fraction | float | None
    witness_integers: tuple[int, ...] | None
    achieved_distance: float
    margin: float
    theta_max: float
    resolution: float

    @property
    def is_infinite(self) -> bool:
        return self.lcd is None

    def to_json_dict(self):
        return {**vars(self), "lcd": "infinite" if self.lcd is None else self.lcd,
                "witness_integers": self.witness_integers or None}


def _check_scan(theta_max, resolution, sizes) -> None:
    """Refuse, before building any, a candidate scan up to theta_max that
    could build more than LCD_CANDIDATE_BUDGET candidates: at most
    theta_max / resolution on the grid and theta_max * m lattice points for
    each coefficient of absolute value at most m in `sizes`."""
    if not resolution > 0:
        raise ValidationError("resolution must be positive")
    count = theta_max / resolution + sum(theta_max * m for m in sizes)
    if count > LCD_CANDIDATE_BUDGET:
        raise BudgetError(f"an LCD scan up to theta_max {theta_max} in steps of "
                          f"{resolution} exceeds the budget of {LCD_CANDIDATE_BUDGET} "
                          "candidates")


def _candidates(coeffs: list, theta_max, resolution) -> list:
    """Sorted float candidates up to theta_max: the grid k * resolution and
    the lattice points k / |c| for each nonzero coefficient c, k >= 1.  The
    caller has checked the scan against LCD_CANDIDATE_BUDGET."""
    cands = set()
    for step in (resolution, *(1 / abs(c) for c in coeffs if c)):
        k = 1
        while k * step <= theta_max:
            cands.add(k * step)
            k += 1
    return sorted(cands)


def lcd_1d(
    a,
    alpha,
    gamma,
    theta_max=None,
    resolution: Fraction = DEFAULT_RESOLUTION,
) -> LcdResult:
    """Least candidate theta with dist(theta a, Z^n) < min(gamma ||theta a||,
    alpha), scanning the grid of step `resolution` plus the exact lattice
    candidates k/|a_i|.  With a_i = A_i / D over one common denominator,
    every candidate is theta = m / L for an integer m, and every decision is
    an exact integer comparison; nearest integers round ties down."""
    a = [Fraction(x) for x in a]
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValidationError("gamma must lie in (0, 1)")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    n = len(a)
    if theta_max is None:
        theta_max = Fraction(math.isqrt(n) + 1) / gamma
    theta_max, resolution = Fraction(theta_max), Fraction(resolution)
    _check_scan(theta_max, resolution, [abs(x) for x in a])
    D = math.lcm(*(x.denominator for x in a))
    A = [x.numerator * (D // x.denominator) for x in a]
    L = math.lcm(resolution.denominator, *(abs(x) for x in A if x))
    # theta = m / L steps m by P L / Q on the grid of step P / Q and by
    # D L / |A_i| on coefficient i's lattice; a step that is a multiple of
    # another adds no candidate
    steps = {resolution.numerator * (L // resolution.denominator),
             *(D * (L // abs(x)) for x in A if x)}
    steps = [s for s in steps if not any(s % u == 0 for u in steps if u < s)]
    m_max = theta_max.numerator * L // theta_max.denominator
    # theta a_i = m A_i / N, so dist^2 = E / N^2 with E = sum min(r, N - r)^2
    # over r = m A_i mod N; gamma^2 ||a||^2 theta^2 = gn^2 S m^2 / (gd^2 N^2)
    # with S = sum A_i^2, and alpha^2 = an^2 / ad^2
    N = D * L
    N2 = N * N
    weights = Counter(abs(x) for x in A if x)
    gn2S = gamma.numerator ** 2 * sum(x * x for x in A)
    gd2N2 = gamma.denominator ** 2 * N2
    an2, ad2 = alpha.numerator ** 2, alpha.denominator ** 2
    best_margin = None
    for m, _ in itertools.groupby(heapq.merge(*(range(s, m_max + 1, s) for s in steps))):
        E = 0
        for x, w in weights.items():
            r = m * x % N
            E += w * min(r, N - r) ** 2
        near = gn2S * m * m
        cut, cut_den = (near, gd2N2) if near * ad2 <= an2 * gd2N2 else (an2, ad2)
        if E * cut_den < cut * N2:
            ps = tuple(q if 2 * r <= N else q + 1 for q, r in (divmod(m * x, N) for x in A))
            theta = Fraction(m, L)
            return LcdResult(theta, theta, ps, math.sqrt(E / N2), 0.0,
                             float(theta_max), float(resolution))
        # int / int rounds correctly, as float() of the Fraction does
        slack = math.sqrt(E / N2) - math.sqrt(cut / cut_den)
        if best_margin is None or slack < best_margin:
            best_margin = slack
    return LcdResult(None, None, None, float("nan"),
                     best_margin if best_margin is not None else float("inf"),
                     float(theta_max), float(resolution))


def _radial_scan(coeffs: list[float], alpha: float, gamma: float,
                 theta_max: float, resolution: float):
    """Float 1-D scan along a fixed direction; returns least qualifying r."""
    a2 = sum(c * c for c in coeffs)
    if a2 == 0:
        return None
    for r in _candidates([c for c in coeffs if abs(c) >= 1e-12], theta_max, resolution):
        d2 = 0.0
        for c in coeffs:
            x = c * r
            d = x - round(x)
            d2 += d * d
        if d2 < min(gamma * gamma * a2 * r * r, alpha * alpha):
            return r
    return None


def lcd_multidim(
    pairs,
    alpha,
    gamma,
    theta_max=None,
    resolution=0.25,
) -> LcdResult:
    """Grid-plus-refinement search over theta in R^2 with ||theta|| <=
    theta_max: for each of LCD_ANGLE_GRID directions, run a radial candidate
    scan; the result is the smallest qualifying ||theta|| found.

    Precondition (super-isotropy): the smallest eigenvalue of sum a_i a_i^T
    is >= 1, checked exactly.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in pairs]
    alpha_f, gamma_f = checked_float(alpha, "alpha"), checked_float(gamma, "gamma")
    if not 0 < gamma_f < 1:
        raise ValidationError("gamma must lie in (0, 1)")
    sxx = sum(x * x for x, _ in pts)
    syy = sum(y * y for _, y in pts)
    sxy = sum(x * y for x, y in pts)
    # lambda_min(M) >= 1 for M = [[sxx, sxy], [sxy, syy]]:
    # trace - 2 >= 0 and det(M - I) >= 0 with both eigenvalues >= 1
    if not (sxx + syy >= 2 and (sxx - 1) * (syy - 1) - sxy * sxy >= 0
            and sxx >= 1 and syy >= 1):
        raise ValidationError(
            "super-isotropy violated: smallest eigenvalue of sum a a^T < 1")
    n = len(pts)
    fpts = [(checked_float(x, "an entry"), checked_float(y, "an entry")) for x, y in pts]
    if theta_max is None:
        theta_max = (math.isqrt(n) + 1) / gamma_f
    theta_max = checked_float(theta_max, "theta_max")
    resolution = checked_float(resolution, "resolution")
    # |<a_i, e>| <= ||a_i|| and the scans' theta_max only shrinks, so this
    # one check bounds every direction's scan
    _check_scan(theta_max, resolution, [math.hypot(x, y) for x, y in fpts])
    best_r = None
    best_dir = None
    for k in range(LCD_ANGLE_GRID):
        phi = math.pi * k / LCD_ANGLE_GRID
        e = (math.cos(phi), math.sin(phi))
        coeffs = [e[0] * x + e[1] * y for x, y in fpts]
        r = _radial_scan(coeffs, alpha_f, gamma_f,
                         best_r if best_r is not None else theta_max,
                         resolution)
        if r is not None and (best_r is None or r < best_r):
            best_r, best_dir = r, e
    if best_r is None:
        return LcdResult(None, None, None, float("nan"), float("nan"),
                         theta_max, resolution)
    theta = (best_dir[0] * best_r, best_dir[1] * best_r)
    prods = [theta[0] * x + theta[1] * y for x, y in fpts]
    ps = tuple(round(v) for v in prods)
    d = math.sqrt(sum((v - p) ** 2 for v, p in zip(prods, ps)))
    return LcdResult(best_r, theta, ps, d, 0.0, theta_max, resolution)


@dataclass(frozen=True)
class RvBound:
    bound: float
    b: Fraction
    lcd: LcdResult


def rv_smallball_bound(
    a,
    beta,
    alpha,
    gamma,
    xi: SignDistribution | None = None,
    C: float = 2.0,
) -> RvBound:
    """Right-hand side C beta / (gamma sqrt(b)) + C exp(-2 b alpha^2) with
    the preconditions of the Diophantine small-ball theorem checked:
    sum a_i^2 >= 1, the sign law leaves unit windows with mass <= 1 - b for
    some b > 0, and beta >= 1 / LCD_{alpha,gamma}(a).  C must be finite and
    positive."""
    if not (math.isfinite(C) and C > 0):
        raise ValidationError(f"constant C={C} must be finite and positive")
    a = [Fraction(x) for x in a]
    beta = Fraction(beta)
    xi = xi or SignDistribution.bernoulli_pm1()
    if sum(x * x for x in a) < 1:
        raise ValidationError("precondition failed: sum a_i^2 >= 1")
    b = xi.b_value()
    if b <= 0:
        raise ValidationError(
            "precondition failed: sign law concentrates in a unit window (b = 0)")
    lcd = lcd_1d(a, alpha, gamma)
    if not lcd.is_infinite and beta * lcd.lcd < 1:
        raise ValidationError(
            f"precondition failed: beta={beta} < 1/LCD={1 / float(lcd.lcd)}")
    beta_f, alpha_f = checked_float(beta, "beta"), checked_float(alpha, "alpha")
    # an alpha whose square overflows leaves exp(-inf) = 0
    alpha2 = alpha_f ** 2 if alpha_f < 2.0**511 else math.inf
    bound = C * beta_f / (checked_float(gamma, "gamma") * math.sqrt(float(b))) \
        + C * math.exp(-2.0 * float(b) * alpha2)
    return RvBound(bound, b, lcd)


def check_rv_soundness(a, beta, alpha, gamma, xi=None, C: float = 2.0
                       ) -> tuple[RvBound, Fraction]:
    """(bound, exact closed-ball probability); raise SoundnessError unless
    the bound dominates the exact value."""
    xi = xi or SignDistribution.bernoulli_pm1()
    res = rv_smallball_bound(a, beta, alpha, gamma, xi, C)
    from .core import ball_probability_1d

    A = CoefficientMultiset.of(a)
    exact, _ = ball_probability_1d(A, xi, Fraction(beta))
    check_bound(res.bound, exact, "rv", a)
    return res, exact


@dataclass(frozen=True)
class RecurrenceMeasure:
    measure_estimate: float
    lemma_bound: float
    boundary_fraction: float
    resolution_warning: bool


def recurrence_set_measure(
    a,
    t,
    z,
    beta,
    gamma,
    alpha,
    grid_points: int = 100_001,
) -> RecurrenceMeasure:
    """Measure of {theta in [-1, 1] : min_p ||(z/beta) theta a - p||_2 <= t}
    by a deterministic midpoint grid, against the d=1 lemma bound
    C t beta / gamma with the frozen constant.  Requires 0 <= t < alpha/2
    and z >= 1."""
    t = Fraction(t)
    z, beta, gamma, alpha = map(Fraction, (z, beta, gamma, alpha))
    if t < 0:
        raise ValidationError("t must be >= 0")
    if not t < alpha / 2:
        raise ValidationError("lemma hypothesis t < alpha/2 violated")
    if z < 1:
        raise ValidationError("z must be >= 1")
    if beta <= 0 or gamma <= 0 or grid_points < 1:
        raise ValidationError("beta, gamma and grid_points must be positive")
    if grid_points * max(1, len(a)) > RECURRENCE_BUDGET:
        raise BudgetError(f"{grid_points} grid points x {len(a)} entries exceed the "
                          f"recurrence budget of {RECURRENCE_BUDGET}")
    scale = [checked_float(Fraction(x) * z / beta, "an entry times z / beta") for x in a]
    t_f, beta_f = checked_float(t, "t"), checked_float(beta, "beta")
    gamma_f = checked_float(gamma, "gamma")
    # every squared distance below is finite, so a t whose square overflows
    # admits every theta
    tt = t_f ** 2 if t_f < 2.0**511 else math.inf
    h = 2.0 / grid_points
    inside = boundary = 0
    # the float operations of a scalar loop over theta = -1 + (i + 1/2) h
    # and then the entries, in its order, so the sums are bit-identical
    for i in range(0, grid_points, RECURRENCE_BLOCK):
        theta = -1.0 + (np.arange(i, min(i + RECURRENCE_BLOCK, grid_points)) + 0.5) * h
        d2 = np.zeros_like(theta)
        for c in scale:
            x = c * theta
            d = x - np.rint(x)
            d2 += d * d
        good = d2 <= tt
        inside += int(np.count_nonzero(good))
        boundary += int(np.count_nonzero(good[1:] != good[:-1])) + bool(i and good[0] != prev)
        prev = good[-1]
    measure = inside * h
    boundary_fraction = (boundary * h / measure) if measure > 0 else 0.0
    bound = RECURRENCE_C * t_f * beta_f / gamma_f
    return RecurrenceMeasure(
        measure_estimate=measure,
        lemma_bound=bound,
        boundary_fraction=boundary_fraction,
        resolution_warning=boundary_fraction > 0.01,
    )
