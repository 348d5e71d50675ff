"""Generalized arithmetic progressions: algebra, forward constructions,
inverse fitting with certificates, the structured-multiset census, and
geometric-progression concentration in quadratic integer rings.

The inverse fit is a certificate-producing heuristic: the inverse theorems
guarantee existence of a small proper symmetric GAP non-constructively, so
the promise here is only "find a certificate at least as good as the
planted one on planted instances", verified independently by membership
recounts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import bernoulli_int_counts, exact_sign_sum_distribution, lattice_counts
from .types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    ValidationError,
    common_denominator,
)

MATERIALIZE_BUDGET = 10**6
CENSUS_BUDGET = 10**7  # multisets one census may enumerate
# Most entries `gap_forward_sample` may draw: more than ten times the most
# that any test, golden case or benchmark workload draws (20).
FORWARD_N_BUDGET = 10**3
# Most bits the n + 1 powers of `geometric_progression_rho` may take, each
# counted at one word or more: far above any test or workload (under 1e3).
GEO_POWER_BITS_BUDGET = 2**24


@dataclass(frozen=True)
class Gap:
    """Symmetric-by-default GAP: {offset + sum m_i g_i : |m_i| <= M_i}."""

    generators: tuple[Fraction, ...]
    bounds: tuple[int, ...]
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.generators) != len(self.bounds):
            raise ValidationError("generators and bounds must align")
        if any(b < 0 for b in self.bounds):
            raise ValidationError("bounds must be non-negative")

    @staticmethod
    def of(generators, bounds, offset=0) -> "Gap":
        return Gap(tuple(Fraction(g) for g in generators),
                   tuple(int(b) for b in bounds), Fraction(offset))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def volume(self) -> int:
        v = 1
        for b in self.bounds:
            v *= 2 * b + 1
        return v

    @property
    def symmetric(self) -> bool:
        return self.offset == 0

    def dilate(self, t: int) -> "Gap":
        if not self.symmetric:
            raise ValidationError("dilate requires a symmetric GAP")
        if t < 1:
            raise ValidationError("dilate factor must be a positive integer")
        return Gap(self.generators, tuple(t * b for b in self.bounds), self.offset)


def gap_lattice_points(Q: Gap):
    """(L, points): L is the least common denominator of the offset and the
    generators, and points is the set of integers L*x, exact Python ints,
    over the points x of Q.  Memory is O(volume) <= O(MATERIALIZE_BUDGET)
    entries."""
    if Q.volume > MATERIALIZE_BUDGET:
        raise BudgetError(f"volume {Q.volume} exceeds budget {MATERIALIZE_BUDGET}")
    L = common_denominator((Q.offset, *Q.generators))
    pts = {int(Q.offset * L)}
    for g, M in zip(Q.generators, Q.bounds):
        step = int(g * L)
        shifts = [m * step for m in range(-M, M + 1)]
        pts = {v + s for v in pts for s in shifts}
    return L, pts


def gap_materialize(Q: Gap):
    """Exact point set of the box image; proper iff |points| = volume.

    The points are enumerated as integers on the lattice (1/L)Z by
    `gap_lattice_points`, at most MATERIALIZE_BUDGET of them, and become
    Fractions only here; callers that need only the count, the order or
    the integer points take them from `gap_lattice_points`.
    """
    L, pts = gap_lattice_points(Q)
    return frozenset(Fraction(v, L) for v in pts), len(pts) == Q.volume


def gap_is_proper(Q: Gap) -> bool:
    """Properness: by counting the lattice points within MATERIALIZE_BUDGET,
    else by an exact pairwise-relation certificate (supported for rank <= 2)."""
    if Q.volume <= MATERIALIZE_BUDGET:
        return len(gap_lattice_points(Q)[1]) == Q.volume
    if Q.rank == 1:
        return Q.generators[0] != 0
    if Q.rank == 2:
        g1, g2 = Q.generators
        if g1 == 0 or g2 == 0:
            return False
        # A collision needs c1 g1 + c2 g2 = 0 with |c_i| <= 2 M_i, not both 0;
        # the minimal relation is (q, -p) where g1/g2 = p/q reduced.
        ratio = Fraction(g1, g2)
        p, q = ratio.numerator, ratio.denominator
        return not (abs(q) <= 2 * Q.bounds[0] and abs(p) <= 2 * Q.bounds[1])
    raise BudgetError("properness beyond rank 2 requires materialization")


def gap_forward_sample(Q: Gap, n: int, seed: int):
    """Sample n entries uniformly from the points of a proper GAP, compute
    the exact concentration rho, and the quality statistic
    rho * n^(r/2) * |Q| (order 1 by the forward pigeonhole construction)."""
    if n < 1 or seed < 0:
        raise ValidationError("forward sampling needs n >= 1 and seed >= 0")
    if n > FORWARD_N_BUDGET:
        raise BudgetError(f"n={n} exceeds the forward-sampling budget {FORWARD_N_BUDGET}")
    L, pts = gap_lattice_points(Q)
    if len(pts) != Q.volume:
        raise ValidationError("forward sampling requires a proper GAP")
    pool = sorted(pts)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size=n)
    entries = [Fraction(pool[i], L) for i in idx]
    A = CoefficientMultiset.of(entries)
    dist = exact_sign_sum_distribution(A, SignDistribution.bernoulli_pm1())
    rho = dist.max_atom()[0]
    quality = float(rho) * n ** (Q.rank / 2) * len(pool)
    return A, rho, quality


@dataclass(frozen=True)
class GapFitCertificate:
    gap: Gap
    covered: int
    epsilon_achieved: Fraction
    rho: Fraction
    quality: float

    def to_json_dict(self):
        return {
            "generators": [str(g) for g in self.gap.generators],
            "bounds": list(self.gap.bounds),
            "volume": self.gap.volume,
            "rank": self.gap.rank,
            "covered": self.covered,
            "epsilon_achieved": str(self.epsilon_achieved),
            "rho": f"{self.rho.numerator}/{self.rho.denominator}",
            "quality": self.quality,
        }


def _rank1_fit(entries: list[int], keep: int):
    """Best symmetric rank-1 GAP covering >= keep entries (greedy drop of the
    largest |m| outliers)."""
    best = None
    work = sorted(entries, key=abs)
    for drop in range(0, len(entries) - keep + 1):
        kept = work[:len(entries) - drop]
        g = math.gcd(*kept)
        if g == 0:
            cand = Gap.of([1], [0])
        else:
            M = max(abs(v) // g for v in kept)
            cand = Gap.of([g], [M])
        if best is None or cand.volume < best[0].volume:
            best = (cand, len(kept))
        if len(kept) == keep:
            break
    return best


def _rank2_candidates(entries: list[int]):
    """Candidate coarse generators for a rank-2 fit: cluster centers from the
    sorted entry sequence plus large pairwise differences."""
    cands = set()
    uniq = sorted(set(entries))
    if len(uniq) >= 2:
        gaps_ = [uniq[i + 1] - uniq[i] for i in range(len(uniq) - 1)]
        big = max(gaps_)
        if big > 4 * max(1, min(gaps_)):
            # split into clusters at jumps comparable to the largest
            centers = []
            start = 0
            for i, g in enumerate(gaps_):
                if g > big // 2:
                    cluster = uniq[start:i + 1]
                    centers.append(cluster[len(cluster) // 2])
                    start = i + 1
            cluster = uniq[start:]
            centers.append(cluster[len(cluster) // 2])
            G = math.gcd(*(c for c in centers if c != 0))
            if G > 1:
                cands.add(G)
            for c in centers:
                if abs(c) > 1:
                    cands.add(abs(c))
    for x, y in itertools.combinations(uniq[:60], 2):
        d = abs(x - y)
        if d > 1:
            cands.add(d)
    return cands


def _rank2_fit(entries: list[int], keep: int):
    best = None
    for G in _rank2_candidates(entries):
        # v / G to the nearest integer, ties to the even one as round() does
        quot = [q - (r == 0 and q % 2) for q, r in (divmod(2 * v + G, 2 * G) for v in entries)]
        resid = [v - q * G for v, q in zip(entries, quot)]
        order = sorted(range(len(entries)), key=lambda i: (abs(resid[i]), abs(quot[i])))
        kept = order[:keep] if keep < len(entries) else order
        g1 = math.gcd(*(resid[i] for i in kept))
        M2 = max(abs(quot[i]) for i in kept)
        if g1 == 0:
            cand = Gap.of([1, G], [0, M2])
        else:
            M1 = max(abs(resid[i]) // g1 for i in kept)
            cand = Gap.of([g1, G], [M1, M2])
        if best is None or cand.volume < best[0].volume:
            best = (cand, len(kept))
    return best


def gap_fit(
    A: CoefficientMultiset,
    epsilon,
    max_rank: int = 2,
) -> GapFitCertificate:
    """Search for a small proper symmetric GAP containing all but epsilon*n
    entries; always returns a certificate (fallback: rank-1 with generator
    gcd(entries)).  Coverage and volume in the certificate are re-verified by
    independent membership tests."""
    entries = A.int_entries()
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon < 1:
        raise ValidationError("epsilon must lie in [0, 1)")
    if max_rank not in (1, 2):
        raise ValidationError("max_rank must be 1 or 2")
    n = len(entries)
    keep = n - math.floor(epsilon * n)
    candidates = [_rank1_fit(entries, keep)]
    if max_rank == 2 and len(set(entries)) > 2:
        c2 = _rank2_fit(entries, keep)
        # rank-2 certificates must stay materializable for verification
        if c2 is not None and c2[0].volume <= MATERIALIZE_BUDGET:
            candidates.append(c2)
    best = min(candidates, key=lambda c: c[0].volume)
    gap = best[0]
    if not gap_is_proper(gap):
        # fall back to the always-proper rank-1 gcd cover
        gap = _rank1_fit(entries, n)[0]
    # independent verification by membership recount
    try:
        L, pts = gap_lattice_points(gap)
        covered = sum(1 for v in entries if v * L in pts)
    except BudgetError:
        # volume too large to materialize: rank-1 membership is divisibility
        g = int(gap.generators[0])
        M = gap.bounds[0]
        covered = sum(1 for v in entries if g != 0 and v % g == 0
                      and abs(v) // g <= M)
    rho = Fraction(max(bernoulli_int_counts(entries).values()), 2**n)
    eps_achieved = Fraction(n - covered, n)
    quality = float(rho) * gap.volume * n ** (gap.rank / 2)
    return GapFitCertificate(gap, covered, eps_achieved, rho, quality)


def structured_multiset_census(
    n: int,
    M: int,
    rho_grid,
):
    """For each rho0 in the grid, the exact number of sorted multisets of
    nonzero integers in [-M, M] with rho(A) >= rho0, with the counting-bound
    shape (rho0^-1 n^-1/2)^n emitted alongside.  Refuses more than
    CENSUS_BUDGET multisets before building the universe."""
    if n < 1 or M < 1:
        raise ValidationError("census needs n >= 1 and M >= 1")
    # C(N, n) = C(N, N - n) multisets, N = 2M + n - 1, built up exactly as
    # C(N, 1), C(N, 2), ...; C(N, i) >= (N / i)^i >= 2^i while 2i <= N, so a
    # huge universe is refused within log2(CENSUS_BUDGET) + 1 steps
    N, total = 2 * M + n - 1, 1
    for i in range(min(n, N - n)):
        total = total * (N - i) // (i + 1)
        if total > CENSUS_BUDGET:
            raise BudgetError(f"census universe C({N}, {n}) >= {total} exceeds budget "
                              f"{CENSUS_BUDGET}")
    universe = [x for x in range(-M, M + 1) if x != 0]
    grid = sorted((Fraction(r) for r in rho_grid), reverse=True)
    # rho(A) >= rho0 iff the largest count reaches ceil(rho0 * 2^n)
    peaks = [max(bernoulli_int_counts(combo).values())
             for combo in itertools.combinations_with_replacement(universe, n)]
    rows = []
    for rho0 in grid:
        need = -(-rho0.numerator * 2**n // rho0.denominator)
        cnt = sum(1 for c in peaks if c >= need)
        shape = float(rho0) ** (-n) * n ** (-n / 2) if rho0 > 0 else float("inf")
        rows.append((rho0, cnt, shape))
    return rows


def _check_power_bits(n: int, growth: int) -> None:
    """Refuse n + 1 powers whose entries grow by at most a factor `growth`
    per power when, at a bit length of n * bit_length(growth - 1) + 1 (a
    bound on the largest) and no less than one word each, they pass
    GEO_POWER_BITS_BUDGET bits."""
    bits = max(64, n * (growth - 1).bit_length() + 1)
    if (n + 1) * bits > GEO_POWER_BITS_BUDGET:
        raise BudgetError(f"{n + 1} powers of up to {bits} bits exceed the budget of "
                          f"{GEO_POWER_BITS_BUDGET} bits")


def geometric_progression_rho(x, n: int, quad: tuple[int, int] | None = None) -> Fraction:
    """Exact rho of sum_{j=0..n} xi_j x^j for Bernoulli signs.

    x is either an exact rational, or (with quad=(c1, c0)) the root of the
    monic quadratic t^2 = c1 t + c0, in which case arithmetic is exact in
    the quotient ring Z[t]/(t^2 - c1 t - c0): elements are integer pairs
    (u, v) meaning u + v t and equality is pairwise.

    Refuses (BudgetError) before building any power when the powers could
    pass GEO_POWER_BITS_BUDGET bits; see `_check_power_bits`.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    if (x is None and quad is None) or (quad is not None and len(quad) != 2):
        raise ValidationError("give x, or quad = (c1, c0)")
    if quad is None:
        # x = p/q: the powers scaled by q^n are the integers p^j q^(n-j)
        xf = Fraction(x)
        p, q = xf.numerator, xf.denominator
        _check_power_bits(n, max(abs(p), q))
        shifts = [p**j * q ** (n - j) for j in range(n + 1)]
    else:
        c1, c0 = quad
        _check_power_bits(n, 1 + abs(c1) + abs(c0))
        powers: list[tuple[int, int]] = [(1, 0)]
        for _ in range(n):
            u, v = powers[-1]
            powers.append((v * c0, u + v * c1))
        # pack u + v t into u + B v with B above twice every reachable |u|
        B = 2 * sum(abs(u) for u, _ in powers) + 1
        shifts = [u + B * v for u, v in powers]
    counts = lattice_counts([((-s, 1), (s, 1)) for s in shifts])
    return Fraction(max(counts.values()), 2 ** (n + 1))
