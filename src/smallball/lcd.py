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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    SoundnessError,
    ValidationError,
)

DEFAULT_RESOLUTION = Fraction(1, 4)
RECURRENCE_C = 4.0  # frozen once against the d=1 corpus; never auto-fit
# Most candidates one LCD scan may build, and most grid points x entries one
# recurrence scan may take: each more than ten times the most that any test,
# golden case or benchmark workload needs (about 5e3 and 1e6).
LCD_CANDIDATE_BUDGET = 10**5
RECURRENCE_BUDGET = 2 * 10**7


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
        def enc(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            return x

        return {
            "lcd": enc(self.lcd) if self.lcd is not None else "infinite",
            "witness_theta": enc(self.witness_theta) if self.witness_theta is not None else None,
            "witness_integers": list(self.witness_integers) if self.witness_integers else None,
            "achieved_distance": self.achieved_distance,
            "margin": self.margin,
            "theta_max": self.theta_max,
            "resolution": self.resolution,
        }


def _nearest_int(x: Fraction) -> int:
    fl = math.floor(x)
    return fl if x - fl <= Fraction(1, 2) else fl + 1


def _float(x, name: str) -> float:
    """float(x), refusing a rational beyond the float range or a nonzero one
    that rounds to 0."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f == 0.0 and x != 0:
        raise ValidationError(f"{name} lies outside the float range")
    return f


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
    """Sorted candidates up to theta_max: the grid k * resolution and the
    lattice points k / |c| for each nonzero coefficient c, k >= 1; exact
    for Fractions, floats for floats."""
    _check_scan(theta_max, resolution, [abs(c) for c in coeffs])
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
    candidates k/|a_i|.  All decisions are exact rational comparisons."""
    a = [Fraction(x) for x in a]
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValidationError("gamma must lie in (0, 1)")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    n = len(a)
    if theta_max is None:
        theta_max = Fraction(math.isqrt(n) + 1) / gamma
    theta_max = Fraction(theta_max)
    a2 = sum(x * x for x in a)
    alpha2 = alpha * alpha
    gamma2 = gamma * gamma
    best_margin = None
    for theta in _candidates(a, theta_max, Fraction(resolution)):
        xs = [ai * theta for ai in a]
        ps = [_nearest_int(x) for x in xs]
        d2 = sum((x - p) * (x - p) for x, p in zip(xs, ps))
        cutoff2 = min(gamma2 * a2 * theta * theta, alpha2)
        if d2 < cutoff2:
            return LcdResult(
                lcd=theta,
                witness_theta=theta,
                witness_integers=tuple(ps),
                achieved_distance=math.sqrt(float(d2)),
                margin=0.0,
                theta_max=float(theta_max),
                resolution=float(resolution),
            )
        slack = math.sqrt(float(d2)) - math.sqrt(float(cutoff2))
        if best_margin is None or slack < best_margin:
            best_margin = slack
    return LcdResult(
        lcd=None,
        witness_theta=None,
        witness_integers=None,
        achieved_distance=float("nan"),
        margin=best_margin if best_margin is not None else float("inf"),
        theta_max=float(theta_max),
        resolution=float(resolution),
    )


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
    angle_grid: int = 720,
) -> LcdResult:
    """Grid-plus-refinement search over theta in R^2 with ||theta|| <=
    theta_max: for each direction on the angle grid, run a radial candidate
    scan; the result is the smallest qualifying ||theta|| found.

    Precondition (super-isotropy): the smallest eigenvalue of sum a_i a_i^T
    is >= 1, checked exactly.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in pairs]
    alpha_f, gamma_f = _float(alpha, "alpha"), _float(gamma, "gamma")
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
    fpts = [(_float(x, "an entry"), _float(y, "an entry")) for x, y in pts]
    if theta_max is None:
        theta_max = (math.isqrt(n) + 1) / gamma_f
    theta_max = _float(theta_max, "theta_max")
    resolution = _float(resolution, "resolution")
    # |<a_i, e>| <= ||a_i|| bounds every direction's scan
    _check_scan(theta_max, resolution, [math.hypot(x, y) for x, y in fpts])
    best_r = None
    best_dir = None
    for k in range(angle_grid):
        phi = math.pi * k / angle_grid
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
    beta: float
    b: Fraction
    lcd: LcdResult
    constant: float


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
    some b > 0, and beta >= 1 / LCD_{alpha,gamma}(a)."""
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
    if not lcd.is_infinite:
        lcd_val = lcd.lcd
        ok = (beta * lcd_val >= 1) if isinstance(lcd_val, Fraction) \
            else (float(beta) * lcd_val >= 1.0)
        if not ok:
            raise ValidationError(
                f"precondition failed: beta={beta} < 1/LCD={1 / float(lcd_val)}")
    bound = C * float(beta) / (float(gamma) * math.sqrt(float(b))) \
        + C * math.exp(-2.0 * float(b) * float(alpha) ** 2)
    return RvBound(bound, float(beta), b, lcd, C)


def check_rv_soundness(a, beta, alpha, gamma, xi=None, C: float = 2.0
                       ) -> tuple[RvBound, Fraction]:
    """(bound, exact closed-ball probability); raise SoundnessError unless
    the bound dominates the exact value."""
    xi = xi or SignDistribution.bernoulli_pm1()
    res = rv_smallball_bound(a, beta, alpha, gamma, xi, C)
    from .core import ball_probability_1d

    A = CoefficientMultiset.of(a)
    exact, _ = ball_probability_1d(A, xi, Fraction(beta))
    if res.bound < float(exact):
        raise SoundnessError(
            f"rv bound {res.bound} < exact {float(exact)} on {a}")
    return res, exact


@dataclass(frozen=True)
class RecurrenceMeasure:
    measure_estimate: float
    lemma_bound: float
    boundary_fraction: float
    grid_points: int
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
    C t beta / gamma with the frozen constant.  Requires t < alpha/2 and
    z >= 1."""
    t = Fraction(t)
    z, beta, gamma, alpha = map(Fraction, (z, beta, gamma, alpha))
    if not t < alpha / 2:
        raise ValidationError("lemma hypothesis t < alpha/2 violated")
    if z < 1:
        raise ValidationError("z must be >= 1")
    if beta <= 0 or gamma <= 0 or grid_points < 1:
        raise ValidationError("beta, gamma and grid_points must be positive")
    if grid_points * max(1, len(a)) > RECURRENCE_BUDGET:
        raise BudgetError(f"{grid_points} grid points x {len(a)} entries exceed the "
                          f"recurrence budget of {RECURRENCE_BUDGET}")
    scale = [_float(Fraction(x) * z / beta, "an entry times z / beta") for x in a]
    t_f, beta_f, gamma_f = _float(t, "t"), _float(beta, "beta"), _float(gamma, "gamma")
    # every squared distance below is finite, so a t whose square overflows
    # admits every theta
    tt = t_f ** 2 if t_f < 2.0**511 else math.inf
    h = 2.0 / grid_points
    inside = boundary = 0
    for i in range(grid_points):
        theta = -1.0 + (i + 0.5) * h
        d2 = 0.0
        for c in scale:
            x = c * theta
            d = x - round(x)
            d2 += d * d
        good = d2 <= tt
        inside += good
        if i and good != prev:
            boundary += 1
        prev = good
    measure = inside * h
    boundary_fraction = (boundary * h / measure) if measure > 0 else 0.0
    bound = RECURRENCE_C * t_f * beta_f / gamma_f
    return RecurrenceMeasure(
        measure_estimate=measure,
        lemma_bound=bound,
        boundary_fraction=boundary_fraction,
        grid_points=grid_points,
        resolution_warning=boundary_fraction > 0.01,
    )
