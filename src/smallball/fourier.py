"""Fourier-analytic machinery: finite-field identities and exponential
bounds, the Esseen integral bound, solution-count hierarchies, level and
dual sets, and the torus-distance norm.

Esseen constant.  The inequality P(X in closed ball of radius beta) <=
C(1) * beta * integral_{|u| <= 1/beta} |E exp(iuX)| du is derived with the
triangular kernel k(t) = max(0, 1 - |t|) (the self-convolution of the
half-unit box).  Its Fourier transform is K(x) = 4 sin^2(x/2) / x^2, which
is nonnegative everywhere and >= K(1) = 4 sin^2(1/2) on [-1, 1]; Parseval
then gives the bound with the explicit constant C(1) = 1 / (4 sin^2(1/2)).
Any valid constant passes the soundness tests; this one is fixed here.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ball_probability_1d, exact_sign_sum_distribution, lattice_counts
from .types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    SoundnessError,
    ValidationError,
    common_denominator,
)

ESSEEN_C1 = 1.0 / (4.0 * math.sin(0.5) ** 2)
ESSEEN_TOL = 1e-10  # adaptive Simpson's target error
ESSEEN_MAX_DEPTH = 22  # adaptive Simpson's deepest bisection
FP_IMAG_TOL = 1e-9  # largest imaginary part the F_p Fourier identity tolerates
RL_BUDGET = 10**8  # n^(2l) tuples, and lattice atoms, for R_l

# Largest p that the F_p operations scan in full: each work array is then at
# most 32 MB, and a*t stays far inside int64.
P_BUDGET = 4 * 10**6
# `level_and_dual_sets` scans p <= LEVEL_P_BUDGET and m up to
# max(LEVEL_M_BUDGET, ceil(n/4)) (S_m = F_p for every m >= n/4, so larger m
# only repeat the last report), and builds its dual sums in blocks of
# LEVEL_BLOCK int64 entries.
LEVEL_P_BUDGET = 10**6
LEVEL_M_BUDGET = 10**3
LEVEL_BLOCK = 2**16

# Most factor evaluations (integrand calls x entries x sign-law support
# size) one Esseen quadrature may make: more than ten times the most that
# any test, golden case or benchmark workload makes (about 2.5e5).
ESSEEN_EVAL_BUDGET = 3 * 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the base set is exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    c = max(2, n + 1)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class FpContext:
    """Residues of a scaled integer multiset modulo a prime p.

    Strict contexts satisfy the embedding condition p > 2^n (sum|a_i| + 1) so
    modular probabilities coincide with the integer ones; illustrative
    contexts relax it (needed for exhaustive small-p level-set scans) and
    must not be used for rho comparisons.
    """

    p: int
    residues: tuple[int, ...]
    entries: tuple[int, ...]
    strict: bool

    @staticmethod
    def from_multiset(A: CoefficientMultiset, p: int | None = None) -> "FpContext":
        entries = A.int_entries()
        n = len(entries)
        floor = 2**n * (sum(abs(a) for a in entries) + 1)
        if p is None:
            p = next_prime(floor)
        strict = p > floor
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if not strict and p <= 2 * sum(abs(a) for a in entries):
            # below even the wraparound threshold the scans are meaningless
            raise ValidationError(
                f"p={p} is too small even for an illustrative context")
        return FpContext(p, tuple(a % p for a in entries), tuple(entries), strict)

    @property
    def n(self) -> int:
        return len(self.residues)


def _full_scan(ctx: FpContext, name: str, dtype) -> np.ndarray:
    """All of F_p as an array, for a full scan by `name` over a strict
    context with n <= 24 and p <= P_BUDGET."""
    if ctx.n > 24:
        raise BudgetError(f"{name} limited to n <= 24")
    if not ctx.strict:
        raise ValidationError(f"{name} requires a strict embedding context")
    if ctx.p > P_BUDGET:
        raise BudgetError(f"p={ctx.p} exceeds the F_p scan budget {P_BUDGET}")
    return np.arange(ctx.p, dtype=dtype)


def fp_fourier_identity(ctx: FpContext, a_target: int):
    """Evaluate rho(a_target) = (1/p) sum_t prod_i cos(2 pi t a_i / p)
    e_p(-t a_target) and compare against the exact convolution probability.

    Returns (fourier_value, exact_probability, abs_difference).
    """
    t = _full_scan(ctx, "fp_fourier_identity", np.float64)
    prod = np.ones(ctx.p)  # prod_i cos(2 pi a_i t / p)
    for a in ctx.residues:
        prod *= np.cos((2.0 * math.pi * a / ctx.p) * t)
    phase = -2.0 * math.pi * (a_target % ctx.p) / ctx.p * t
    val = complex(np.sum(prod * np.cos(phase)), np.sum(prod * np.sin(phase))) / ctx.p
    if abs(val.imag) > FP_IMAG_TOL:
        raise SoundnessError(f"imaginary part {val.imag} exceeds {FP_IMAG_TOL}")
    A = CoefficientMultiset.of(ctx.entries)
    dist = exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1())
    exact = Fraction(dist.counts.get(a_target * dist.scale, 0), dist.total)
    return val.real, exact, abs(val.real - float(exact))


def fp_exponential_bound(ctx: FpContext) -> float:
    """(1/p) sum_t exp(-2 sum_i ||a_i t / p||^2): an upper bound on rho(A)."""
    t = _full_scan(ctx, "fp_exponential_bound", np.int64)
    s = np.zeros(ctx.p)
    for a in ctx.residues:
        r = (a * t) % ctx.p
        r = np.minimum(r, ctx.p - r)
        s += (r.astype(np.float64) / ctx.p) ** 2
    return float(np.sum(np.exp(-2.0 * s)) / ctx.p)


def _charfn_abs(A: CoefficientMultiset, xi: SignDistribution):
    """|E exp(iu S)| = prod_i |E exp(iu a_i xi)| as a float function.  It
    raises BudgetError at the call that would take its factor evaluations
    past ESSEEN_EVAL_BUDGET."""
    entries = [float(e) for e in A.entries]
    vals = [(float(v), float(p)) for v, p in xi.support]
    per_call = len(entries) * len(vals)
    max_calls = ESSEEN_EVAL_BUDGET // per_call
    calls = 0

    def f(u: float) -> float:
        nonlocal calls
        calls += 1
        if calls > max_calls:
            raise BudgetError(
                f"esseen quadrature: {calls} integrand calls x {per_call} factors "
                f"= {calls * per_call} factor evaluations exceed the budget "
                f"{ESSEEN_EVAL_BUDGET}")
        out = 1.0
        for a in entries:
            re = sum(p * math.cos(u * a * v) for v, p in vals)
            im = sum(p * math.sin(u * a * v) for v, p in vals)
            out *= math.hypot(re, im)
            if out == 0.0:
                return 0.0
        return out

    return f


def _adaptive_simpson(f, a, b, tol):
    """Adaptive Simpson returning (estimate, error_bound_estimate)."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        rv, re = rec(m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        return lv + rv, le + re

    return rec(a, b, fa, fm, fb, whole, tol, ESSEEN_MAX_DEPTH)


@dataclass(frozen=True)
class EsseenBound:
    bound: float
    quad_error: float
    constant: float


def esseen_bound(
    A: CoefficientMultiset,
    beta,
    xi: SignDistribution | None = None,
) -> EsseenBound:
    """C(1) * beta * integral_{|u| <= 1/beta} |E exp(iuS)| du, an upper bound
    on the closed-ball concentration rho_{1,beta}(A).  The reported bound
    already includes the outward-rounded quadrature error."""
    if A.d != 1:
        raise ValidationError("esseen_bound needs d=1")
    beta = Fraction(beta)
    if beta <= 0:
        raise ValidationError("beta must be positive")
    xi = xi or SignDistribution.bernoulli_pm1()
    f = _charfn_abs(A, xi)
    lim = 1.0 / float(beta)
    est, err = _adaptive_simpson(f, -lim, lim, ESSEEN_TOL)
    bound = ESSEEN_C1 * float(beta) * (est + err)
    return EsseenBound(bound, err, ESSEEN_C1)


def check_esseen_soundness(A: CoefficientMultiset, beta, xi=None
                           ) -> tuple[EsseenBound, Fraction]:
    """(bound, exact closed-ball probability from the core module); raise
    SoundnessError if the Esseen bound falls below the exact value."""
    xi = xi or SignDistribution.bernoulli_pm1()
    res = esseen_bound(A, beta, xi)
    exact, _ = ball_probability_1d(A, xi, Fraction(beta))
    if res.bound < float(exact):
        raise SoundnessError(
            f"esseen bound {res.bound} < exact {float(exact)} on {A.entries}")
    return res, exact


def rl_count(A: CoefficientMultiset, l: int) -> int:
    """Number of ordered 2l-index tuples with equal side sums:
    #{(i_1..i_l, j_1..j_l) in [n]^2l : sum a_i = sum a_j}.

    Computed by meet-in-the-middle: R_l = sum_s N_l(s)^2 where N_l is the
    l-fold sum-count of the multiset.
    """
    if A.d != 1:
        raise ValidationError("rl_count needs d=1")
    if l < 1:
        raise ValidationError("l must be >= 1")
    if A.n ** (2 * l) > RL_BUDGET:
        raise BudgetError(f"n^(2l) = {A.n ** (2 * l)} exceeds budget {RL_BUDGET}")
    L = common_denominator(A.entries)
    step = list(Counter(int(a * L) for a in A.entries).items())
    counts = lattice_counts([step] * l, RL_BUDGET)
    return sum(c * c for c in counts.values())


def halasz_hierarchy_ratio(A: CoefficientMultiset, l: int) -> float:
    """rho(A) * n^(2l + 1/2) / R_l: bounded along structured families."""
    from .core import concentration_probability

    rho, _ = concentration_probability(A)
    rl = rl_count(A, l)
    return float(rho) * A.n ** (2 * l + 0.5) / rl


@dataclass(frozen=True)
class LevelSetReport:
    m: int
    level_size: int
    dual_size: int
    rho_reference: Fraction | None

    def to_json_dict(self):
        return {
            "m": self.m,
            "level_size": self.level_size,
            "dual_size": self.dual_size,
            "rho_reference": None if self.rho_reference is None
            else f"{self.rho_reference.numerator}/{self.rho_reference.denominator}",
        }


def _add_dual_sums(acc: np.ndarray, a_vals: np.ndarray, ts: np.ndarray, p: int) -> None:
    """acc += sum_{t in ts} rbar(a t)^2 over a in a_vals, a block of rows of
    about LEVEL_BLOCK int64 entries at a time.  The dual budget
    |S_m| * p <= 4e8 keeps |ts| <= 10^4, below LEVEL_BLOCK."""
    rows = max(1, LEVEL_BLOCK // max(1, ts.size))
    for i in range(0, acc.size, rows):
        r = np.multiply.outer(a_vals[i:i + rows], ts)
        np.remainder(r, p, out=r)
        np.minimum(r, p - r, out=r)
        acc[i:i + rows] += np.einsum("ij,ij->i", r, r)


def level_and_dual_sets(ctx: FpContext, m_max: int) -> list[LevelSetReport]:
    """Exact sizes of the level sets S_m = {t : sum_i ||a_i t/p||^2 <= m} and
    dual sets S*_m = {a : sum_{t in S_m} ||a t/p||^2 <= |S_m|/200} for
    m = 0..m_max by full scans over F_p, with the dual inequality
    |S*_m| * |S_m| <= 8p verified.

    All threshold comparisons are exact integer arithmetic: with r = a t mod
    p and rbar = min(r, p - r), the condition sum (rbar/p)^2 <= m becomes
    w(t) = sum_i rbar(a_i t)^2 <= m p^2, and the dual condition becomes
    200 sum_{t in S_m} rbar(a t)^2 <= |S_m| p^2.

    The scan rests on three facts.  Symmetry: rbar(-x) = rbar(x), so
    w(t) = w(p - t), and a and p - a have the same dual sum; only t and a in
    H = {1, .., p // 2} are scanned, each counted for itself and its mirror
    (for p = 2, H = {1} is its own mirror), while t = 0 (w = 0, in every
    S_m) and a = 0 (sum 0, in every S*_m) are counted once.  Nesting:
    S_0 is a subset of S_1 and so on, so each t enters the per-a running
    sums once, at the first m whose level set holds it, and an m that adds
    no t repeats the previous dual count.  Every m >= n/4 gives S_m = F_p,
    since w(t) < n p^2 / 4, so m_max above max(LEVEL_M_BUDGET, ceil(n/4))
    is refused.  Memory: the running sums are built in blocks of about
    LEVEL_BLOCK int64 entries, so the scan holds a few arrays of p // 2
    entries plus O(LEVEL_BLOCK), whatever m_max and |S_m|.
    """
    if m_max < 0:
        raise ValidationError("m_max must be >= 0")
    m_cap = max(LEVEL_M_BUDGET, -(-ctx.n // 4))
    if m_max > m_cap:
        raise BudgetError(
            f"m_max={m_max} exceeds budget {m_cap} (S_m = F_p for every m >= n/4)")
    p = ctx.p
    if p > LEVEL_P_BUDGET:
        raise BudgetError(f"p={p} exceeds scan budget {LEVEL_P_BUDGET}")
    half = np.arange(1, p // 2 + 1, dtype=np.int64)
    mirror = 1 if p == 2 else 2
    w = np.zeros(half.size, dtype=np.int64)
    for a in ctx.residues:
        r = a * half % p
        r = np.minimum(r, p - r)
        w += r * r
    order = np.argsort(w)
    w_sorted, t_sorted = w[order], half[order]
    pp = p * p
    rho_ref = None
    if ctx.strict:
        A = CoefficientMultiset.of(ctx.entries)
        dist = exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1())
        rho_ref = dist.max_atom()[0]
    acc = np.zeros(half.size, dtype=np.int64)  # sum_{t in S_m, t in H} rbar(a t)^2
    entered, dual = 0, None
    reports = []
    for m in range(0, m_max + 1):
        k = int(np.searchsorted(w_sorted, m * pp, side="right"))
        size = 1 + mirror * k
        if size * p > 4 * 10**8:
            raise BudgetError(
                f"dual scan cost |S_m| * p = {size * p} exceeds budget")
        if dual is None or k > entered:
            _add_dual_sums(acc, half, t_sorted[entered:k], p)
            entered = k
            # 200 * mirror * acc[a] <= 50 |S_m| p^2 <= 2e16 under the budget
            dual = 1 + mirror * int(np.count_nonzero(200 * mirror * acc <= size * pp))
            if dual * size > 8 * p:
                raise SoundnessError(
                    f"dual bound violated at m={m}: |S*|={dual}, |S|={size}, p={p}")
        reports.append(LevelSetReport(m, size, dual, rho_ref))
    return reports


def qualifying_level_exists(reports: list[LevelSetReport], p: int) -> bool:
    """Check existence of m with |S_m| e^(-m+2) >= rho * p (strict contexts)."""
    rho = reports[0].rho_reference
    if rho is None:
        raise ValidationError("needs a strict context with rho reference")
    target = float(rho) * p
    return any(r.level_size * math.exp(-r.m + 2) >= target for r in reports)


def norm_rz(x) -> Fraction:
    """Distance to the nearest integer, exact for rationals."""
    x = Fraction(x)
    fl = x - math.floor(x)
    return min(fl, 1 - fl)


def xi_norm(w, xi: SignDistribution) -> float:
    """(E ||w (xi1 - xi2)||_{R/Z}^2)^(1/2); expectation exact, root floating."""
    w = Fraction(w)
    acc = Fraction(0)
    for d, p in xi.difference_law():
        nd = norm_rz(w * d)
        acc += p * nd * nd
    return math.sqrt(float(acc))
