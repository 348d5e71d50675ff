"""Exact laws of random signed sums and small-ball suprema in 1-D and 2-D.

Ball convention: all interval/disk probabilities are computed over CLOSED
balls.  The extremal identity sup_A P(S_A in ball of radius R) =
2^-n * S(n, floor(R)+1) for unit-floor coefficient multisets is attained
exactly (at the all-ones multiset) under the closed convention for every
rational R, while under the open convention it fails at integer R; the
lattice-supported test families make the closed maximum equal to the open
supremum.

2-D candidate-center argument: a closed disk of radius R maximizing covered
atom mass can be translated until either (a) a single covered atom remains
and centering on an atom is optimal, or (b) two covered atoms lie on the
boundary, in which case the center is one of the two points at distance
exactly R from both.  Coincident atoms are merged with their multiplicity
weight during convolution, so the scan over support points plus pairwise
equidistant centers is exhaustive.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .types import (
    BudgetError,
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
    ValidationError,
    common_denominator,
    hypot2,
    isqrt_fraction_exact,
    quad_le,
)

ATOM_BUDGET = 10**7
# Most work the dict merge may take for one exact law: the support before
# each step times the step's size, summed over the steps.  More than ten
# times the most that any test, golden case, acceptance criterion or
# benchmark query takes (262,142, where a 24-entry law of 2000-digit keys
# trips ATOM_BUDGET; 246,262 for criterion 4's Stanley scan).
KERNEL_WORK_BUDGET = 3 * 10**6
# Most work the int64 histogram may take for one exact law: the slots in
# use before each step times the step's size, summed over the steps.  Above
# `rho` on 60 entries in [2500, 3500] (9,972,650) and 166 times the most of
# any other test, golden case or benchmark query (72,100).
HISTOGRAM_WORK_BUDGET = 12 * 10**6
DEFAULT_2D_ENUM_LIMIT = 22
# Most atoms x candidate centres one 2-D disk scan may examine (the centres
# are the atoms and two per atom pair within 2R): more than ten times the
# most that any test, golden case, acceptance criterion or benchmark query
# examines (123,832, in criterion 15).
DISK_WORK_BUDGET = 1_250_000
# Most angles x entries one flat-direction search may project: more than ten
# times the most that any test, golden case or benchmark workload takes
# (360 x 6).
FLAT_WORK_BUDGET = 10**5
# Least histogram work for which a narrow law goes to the histogram: below
# it the dict merge costs less than the histogram's set-up and its few numpy
# calls per step.
DENSE_MIN_WORK = 1024
INT64_MAX = 2**63 - 1


def lattice_counts(steps, budget: int = ATOM_BUDGET) -> dict[int, int]:
    """The one exact-law kernel: counts of s_1 + ... + s_n where step i
    offers integer shift s with positive integer weight w.  `steps` is a
    list of nonempty sequences of (shift, weight) pairs.

    The path is chosen once, from the steps, before any step runs: a narrow
    law is counted on an int64 histogram, keys ascending (`_histogram_counts`);
    every other law is merged in a dict, keys in the order of their first
    appearance (`_dict_counts`).  Each path bounds its own cost and raises
    BudgetError past it: the dict merge against `budget` and
    KERNEL_WORK_BUDGET, the histogram against HISTOGRAM_WORK_BUDGET."""
    counts = _histogram_counts(steps, budget)
    return _dict_counts(steps, budget) if counts is None else counts


def _dict_counts(steps, budget: int) -> dict[int, int]:
    """`lattice_counts` by merging equal sums in a dict.  Before each step,
    raises BudgetError if the projected support, weighted by the signed
    64-bit words of the widest key the step can reach, exceeds `budget`, or
    as soon as the work must pass KERNEL_WORK_BUDGET: no step shrinks the
    support, so the steps left take at least the support times their sizes."""
    counts = {0: 1}
    reach = work = 0  # reach bounds |key| after the steps so far
    left = sum(map(len, steps))  # the sizes of this step and the later ones
    for step in steps:
        support, size = len(counts), len(step)
        reach += max([abs(s) for s, _ in step])
        projected = support * size * (reach.bit_length() // 64 + 1)
        if projected > budget:
            raise BudgetError(f"projected atom count {support * size} x key width "
                              f"= {projected} words exceeds budget {budget}")
        if work + support * left > KERNEL_WORK_BUDGET:
            raise BudgetError(f"kernel work of at least {work + support * left} (support x "
                              f"step size, summed over the steps) exceeds budget "
                              f"{KERNEL_WORK_BUDGET}")
        work += support * size
        left -= size
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            for s, w in step:
                key = v + s
                if key in nxt:
                    nxt[key] += c * w
                else:
                    nxt[key] = c * w
        counts = nxt
    return counts


def _histogram_counts(steps, budget: int) -> dict[int, int] | None:
    """`lattice_counts` on an int64 histogram, keys ascending; None if the
    law is not narrow.  Slot j holds the count of key lo + g*j, where lo
    sums the least shift of each step and g is the gcd of the offsets of
    every shift from the least of its step.  Starting from {0: 1}, the
    steps run narrowest first, as the counts do not depend on their order,
    and a step adds each shift's weighted copy of the slots in use at its
    offset.

    Narrow, tested cheapest first: the work, the slots in use before each
    step times its size summed over the steps, is at least DENSE_MIN_WORK;
    there are at most `budget` slots; every key fits int64; every weight is
    positive; the total mass, which bounds every count, fits int64; and
    there are at most four times as many slots as the law can have atoms
    (for each group of m equal steps of k shifts, the C(m + k - 1, m)
    multisets of their shifts, multiplied over the groups), so a law far
    wider than its support never allocates its span.  A narrow law whose
    work passes HISTOGRAM_WORK_BUDGET raises BudgetError before a slot is
    allocated."""
    sizes = [len(step) for step in steps]
    # a narrow law's work is at most its slots times the sum of the sizes,
    # and its slots at most 4 x the product of the sizes and at most 1 + the
    # summed spans: tiny laws leave on one of the two
    if 4 * math.prod(sizes) * sum(sizes) < DENSE_MIN_WORK:
        return None
    ends = [(min(step)[0], max(step)[0]) for step in steps]
    if (1 + sum(most - least for least, most in ends)) * sum(sizes) < DENSE_MIN_WORK:
        return None
    # the narrowest first: for steps of one size, as the library's laws
    # have, that order takes the least work
    ends, steps = zip(*sorted(zip(ends, steps), key=lambda e: e[0][1] - e[0][0]))
    g = math.gcd(*(s - least for (least, _), step in zip(ends, steps) for s, _ in step)) or 1
    # tops[i]: the slots in use before step i; tops[-1]: all of them
    tops = list(itertools.accumulate(((most - least) // g for least, most in ends), initial=1))
    work = sum(top * len(step) for top, step in zip(tops, steps))
    lo, hi = sum(e[0] for e in ends), sum(e[1] for e in ends)
    if (work < DENSE_MIN_WORK or tops[-1] > budget or max(-lo, hi) > INT64_MAX // 2
            or any(w <= 0 for step in steps for _, w in step)
            or math.prod(sum(w for _, w in step) for step in steps) > INT64_MAX):
        return None
    groups = Counter(tuple(sorted(step)) for step in steps)
    if tops[-1] > 4 * math.prod(math.comb(m + len(k) - 1, m) for k, m in groups.items()):
        return None
    if work > HISTOGRAM_WORK_BUDGET:
        raise BudgetError(f"histogram work {work} (slots in use x step size, summed over "
                          f"the steps) exceeds budget {HISTOGRAM_WORK_BUDGET}")
    hist = np.zeros(tops[-1], np.int64)
    hist[0] = 1
    for top, (least, _), step in zip(tops, ends, steps):
        old = hist[:top].copy()
        (_, w), *rest = sorted(step)  # the least shift, at offset 0, in place
        if w != 1:
            hist[:top] *= w
        for s, w in rest:
            off = (s - least) // g
            hist[off:off + top] += old if w == 1 else w * old
    nz = np.flatnonzero(hist)
    return dict(zip((nz * g + lo).tolist(), hist[nz].tolist()))


def exact_sign_sum_distribution(
    A: CoefficientMultiset,
    xi: SignDistribution,
) -> ExactDistribution:
    """Exact law of sum a_i * xi_i as integer counts on the lattice (1/L)Z,
    or (1/L)Z^2 packed into Z as x + B*y, where L clears the denominators of
    the entries and of the sign values.  Raises BudgetError if the projected
    support size exceeds ATOM_BUDGET or a path's work its budget (see
    `lattice_counts`).  A 2-D law goes straight to the dict merge: its keys
    keep the order of their first appearance, which the disk scan's witness
    tie rule follows."""
    la = common_denominator(c for e in A.entries for c in (e if A.d == 2 else (e,)))
    ls, den = common_denominator(xi.values), common_denominator(p for _, p in xi.support)
    signs = [(int(v * ls), int(p * den)) for v, p in xi.support]
    if A.d == 1:
        pack, shifts = 0, [int(a * la) for a in A.entries]
    else:
        # B exceeds twice the largest |x| a partial sum can reach
        top = max(abs(s) for s, _ in signs) * sum(abs(int(x * la)) for x, _ in A.entries)
        pack = 2 * top + 1
        shifts = [int(x * la) + pack * int(y * la) for x, y in A.entries]
    steps = [[(a * s, w) for s, w in signs] for a in shifts]
    counts = (lattice_counts if A.d == 1 else _dict_counts)(steps, ATOM_BUDGET)
    return ExactDistribution(counts, la * ls, den ** A.n, A.n, pack)


def bernoulli_int_counts(entries: list[int]) -> dict[int, int]:
    """Counts (out of 2^n) of sum +-a_i for integer entries and Bernoulli
    +-1 signs."""
    return lattice_counts([((-a, 1), (a, 1)) for a in entries])


def concentration_probability(
    A: CoefficientMultiset,
    xi: SignDistribution | None = None,
) -> tuple[Fraction, Fraction]:
    """rho(A) = sup_x P(S_A = x) with the smallest maximizing value."""
    if A.d != 1:
        raise ValidationError("concentration_probability needs d=1")
    xi = xi or SignDistribution.bernoulli_pm1()
    dist = exact_sign_sum_distribution(A, xi)
    return dist.max_atom()


def largest_binomial_sum(n: int, m: int) -> int:
    """S(n, m): sum of the m largest binomial coefficients C(n, i)."""
    if n < 1 or m < 0:
        raise ValidationError("need n >= 1 and m >= 0")
    if m == 0:
        return 0
    if m >= n + 1:
        return 2**n
    coeffs = sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)
    return sum(coeffs[:m])


def ball_probability_1d(
    A: CoefficientMultiset,
    xi: SignDistribution,
    R,
) -> tuple[Fraction, Fraction]:
    """Max over centers x of P(S_A in [x-R, x+R]), with a maximizing center.

    The optimum is attained by a window whose left edge sits on a support
    point; each such window's mass is a difference of prefix sums of the
    integer counts, its right end found by bisection over the sorted lattice
    keys.  The returned center is the midpoint of the extreme atoms covered
    by the best window (ties broken by the smallest center).
    """
    if A.d != 1:
        raise ValidationError("ball_probability_1d needs d=1")
    R = Fraction(R)
    if R < 0:
        raise ValidationError("radius must be >= 0")
    dist = exact_sign_sum_distribution(A, xi)
    keys = sorted(dist.counts)
    mass = list(itertools.accumulate((dist.counts[k] for k in keys), initial=0))
    # integer keys k <= k' fit one window iff k' - k <= 2R*L, i.e. <= floor(2R*L)
    width = math.floor(2 * R * dist.scale)
    best, lo, hi = 0, 0, 1
    for i, k in enumerate(keys):
        j = bisect.bisect_right(keys, k + width, i)
        # the centre grows with i, so the first maximum has the smallest one
        if mass[j] - mass[i] > best:
            best, lo, hi = mass[j] - mass[i], i, j
    return Fraction(best, dist.total), Fraction(keys[lo] + keys[hi - 1], 2 * dist.scale)


def disk_mass(dist: ExactDistribution, center: tuple, R) -> Fraction:
    """Exact mass of the closed disk of radius R at a rational center."""
    R = Fraction(R)
    cx, cy = Fraction(center[0]), Fraction(center[1])
    rr = R * R
    total = Fraction(0)
    for (x, y), p in dist.atoms.items():
        if hypot2((x, y), (cx, cy)) <= rr:
            total += p
    return total


def _surd_disk_mass(dist, mx, my, b, wx, wy, q, rr) -> Fraction:
    """Mass of the closed disk of radius^2 rr centered at
    (mx + b*sqrt(q)*wx, my + b*sqrt(q)*wy) with all parameters rational."""
    total = Fraction(0)
    for (x, y), p in dist.atoms.items():
        dx, dy = mx - x, my - y
        # |c - a|^2 = |m - a|^2 + b^2 q |w|^2 + 2 b sqrt(q) <m - a, w>
        base = dx * dx + dy * dy + b * b * q * (wx * wx + wy * wy)
        cross = 2 * b * (dx * wx + dy * wy)
        if quad_le(base, cross, q, rr):
            total += p
    return total


def ball_probability_2d(
    A: CoefficientMultiset,
    xi: SignDistribution,
    R,
):
    """Max over disk centers of the closed-disk mass of the exact 2-D law.

    Returns (p, witness_center) where witness_center is a float pair (the
    exact optimum may have quadratic-irrational coordinates; the probability
    itself is exact).  Raises BudgetError before scanning when the atoms
    times the candidate centres pass DISK_WORK_BUDGET.
    """
    if A.d != 2:
        raise ValidationError("ball_probability_2d needs d=2")
    if A.n > DEFAULT_2D_ENUM_LIMIT:
        raise BudgetError(f"n={A.n} exceeds 2-D enumeration limit {DEFAULT_2D_ENUM_LIMIT}")
    R = Fraction(R)
    if R < 0:
        raise ValidationError("radius must be >= 0")
    dist = exact_sign_sum_distribution(A, xi)
    pts = list(dist.atoms.keys())
    rr = R * R
    # each atom is a centre, and each pair of atoms within 2R gives two; every
    # centre's disk test reads every atom
    atoms = len(pts)
    if atoms * atoms > DISK_WORK_BUDGET:
        raise BudgetError(f"{atoms} atoms x at least {atoms} candidate centres exceed the "
                          f"disk scan budget of {DISK_WORK_BUDGET}")
    xy = [dist._coords(k) for k in dist.counts]  # the atoms' lattice points, in order
    limit = math.floor(4 * rr * dist.scale**2)  # (2R)^2 on the integer lattice
    near = [(i, j) for i, (x, y) in enumerate(xy) for j in range(i + 1, atoms)
            if (xy[j][0] - x) ** 2 + (xy[j][1] - y) ** 2 <= limit]
    centres = atoms + 2 * len(near)
    if atoms * centres > DISK_WORK_BUDGET:
        raise BudgetError(f"{atoms} atoms x {centres} candidate centres exceed the disk "
                          f"scan budget of {DISK_WORK_BUDGET}")
    best = Fraction(0)
    best_center: tuple[float, float] = (float(pts[0][0]), float(pts[0][1]))

    for p in pts:
        m = disk_mass(dist, p, R)
        if m > best:
            best = m
            best_center = (float(p[0]), float(p[1]))

    for i, j in near:
        u, v = pts[i], pts[j]
        d2 = hypot2(u, v)
        mx, my = (u[0] + v[0]) / 2, (u[1] + v[1]) / 2
        # centers m +- h * perp(delta)/|delta|, h = sqrt(R^2 - d2/4)
        # = m +- sqrt(q) * perp(delta) with q = R^2/d2 - 1/4
        q = rr / d2 - Fraction(1, 4)
        wx, wy = -(v[1] - u[1]), v[0] - u[0]
        root = isqrt_fraction_exact(q)
        for b in (Fraction(1), Fraction(-1)):
            m_val = _surd_disk_mass(dist, mx, my, b, wx, wy, q, rr)
            if m_val > best:
                best = m_val
                s = float(root) if root is not None else math.sqrt(float(q))
                best_center = (
                    float(mx) + float(b) * s * float(wx),
                    float(my) + float(b) * s * float(wy),
                )
    return best, best_center


def flat_direction_search(
    A: CoefficientMultiset,
    angle_grid: int = 360,
) -> tuple[tuple[float, float], float, int]:
    """Search affine lines H minimizing #{i : dist(a_i, H) >= 1}.

    For each of angle_grid unit normals e, project the entries onto e and
    pick the offset c maximizing the number of projections inside the open
    interval (c-1, c+1) by interval stabbing.  Returns (normal, offset,
    far_count); a grid-certified upper bound on the true minimum.
    """
    if A.d != 2:
        raise ValidationError("flat_direction_search needs d=2")
    if angle_grid < 4:
        raise ValidationError("angle_grid must be >= 4")
    n = A.n
    if angle_grid * n > FLAT_WORK_BUDGET:
        raise BudgetError(f"{angle_grid} angles x {n} entries exceed the flat-direction "
                          f"budget of {FLAT_WORK_BUDGET}")
    best = (n + 1, (1.0, 0.0), 0.0)
    for k in range(angle_grid):
        phi = math.pi * k / angle_grid
        e = (math.cos(phi), math.sin(phi))
        proj = [float(x) * e[0] + float(y) * e[1] for x, y in A.entries]
        events = []
        for t in proj:
            events.append((t - 1, 1))
            events.append((t + 1, -1))
        events.sort()
        cur = 0
        best_cov = 0
        best_c = proj[0]
        for idx, (pos, delta) in enumerate(events):
            cur += delta
            if cur > best_cov:
                nxt = events[idx + 1][0] if idx + 1 < len(events) else pos + 1
                best_cov = cur
                best_c = (pos + nxt) / 2
        far = n - best_cov
        if far < best[0]:
            best = (far, e, best_c)
    far, e, c = best
    return e, c, far


def centered_progression(n: int) -> CoefficientMultiset:
    """The centered arithmetic progression {-(n-1)/2, ..., (n-1)/2}, n odd."""
    if n < 3 or n % 2 == 0:
        raise ValidationError("need odd n >= 3")
    m = (n - 1) // 2
    return CoefficientMultiset.of(range(-m, m + 1))


def stanley_constant_scan(n_list: list[int]) -> list[tuple[int, Fraction, float]]:
    """For each odd n, rho of the centered progression and the scaled value
    rho * n^(3/2); the scaled values approach sqrt(24/pi)."""
    out = []
    for n in n_list:
        A0 = centered_progression(n)
        counts = bernoulli_int_counts(A0.int_entries())
        rho = Fraction(max(counts.values()), 2**n)
        out.append((n, rho, float(rho) * n**1.5))
    return out
