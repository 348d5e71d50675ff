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

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np

from .types import (
    INT64_MAX,
    BudgetError,
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
    SortedCounts,
    ValidationError,
    checked_float,
    common_denominator,
    hypot2,
    isqrt_fraction_exact,
    lattice_ints,
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
# Most atoms x candidate centres one 2-D disk scan may examine (the centres
# are the atoms and two per atom pair within 2R): more than ten times the
# most that any test, golden case, acceptance criterion or benchmark query
# examines (123,832, in criterion 15).
DISK_WORK_BUDGET = 1_250_000
# Most angles x entries one flat-direction search may project: more than ten
# times the most that any test, golden case or benchmark workload takes
# (360 x 6).
FLAT_WORK_BUDGET = 10**5
# Least work for which a narrow law goes to the histogram, or a wide one to
# the sorted merge: below it the dict merge costs less than their set-up and
# their few numpy calls per step.
DENSE_MIN_WORK = 1024


def lattice_counts(steps) -> SortedCounts | dict[int, int]:
    """The one exact-law kernel: counts of s_1 + ... + s_n where step i
    offers integer shift s with positive integer weight w.  `steps` is a
    list of nonempty sequences of (shift, weight) pairs.

    The path is chosen once, from the steps, before any step runs
    (`_array_counts`), and the law it builds is returned as it is: a narrow
    law is counted on an int64 histogram and a wide one by a sorted merge of
    int64 arrays, returned as `SortedCounts`, keys ascending; a tiny law, or
    one past int64, is merged in a dict (`_dict_counts`), which readers take
    with its keys sorted, so no report depends on the path.  Each path raises
    BudgetError past its own budgets, read when called: both merges
    ATOM_BUDGET and KERNEL_WORK_BUDGET, the histogram HISTOGRAM_WORK_BUDGET."""
    law = _array_counts(steps, ATOM_BUDGET)
    return _dict_counts(steps, ATOM_BUDGET) if law is None else SortedCounts(*law)


def _budgeted(steps, budget: int, support):
    """The steps, each after the merges' checks on `support()`: BudgetError
    if the projected support, weighted by the signed 64-bit words of the
    widest key the step can reach, exceeds `budget`, or once the work must
    pass KERNEL_WORK_BUDGET: no step shrinks the support, so the steps left
    take at least the support times their sizes."""
    reach = work = 0  # reach bounds |key| after the steps so far
    left = sum(map(len, steps))  # the sizes of this step and the later ones
    for step in steps:
        atoms, size = support(), len(step)
        reach += max([abs(s) for s, _ in step])
        projected = atoms * size * (reach.bit_length() // 64 + 1)
        if projected > budget:
            raise BudgetError(f"projected atom count {atoms * size} x key width "
                              f"= {projected} words exceeds budget {budget}")
        if work + atoms * left > KERNEL_WORK_BUDGET:
            raise BudgetError(f"kernel work of at least {work + atoms * left} (support x "
                              f"step size, summed over the steps) exceeds budget "
                              f"{KERNEL_WORK_BUDGET}")
        work += atoms * size
        left -= size
        yield step


def _dict_counts(steps, budget: int) -> dict[int, int]:
    """`lattice_counts` by merging equal sums in a dict."""
    counts = {0: 1}
    for step in _budgeted(steps, budget, lambda: len(counts)):
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


def _merge_counts(steps, budget: int):
    """`lattice_counts` as sorted int64 arrays: per step, one ascending copy
    of the keys per shift, merged by a stable argsort, equal keys summed."""
    keys, counts = np.zeros(1, np.int64), np.ones(1, np.int64)
    for step in _budgeted(steps, budget, lambda: len(keys)):
        shifts, weights = np.array(step, np.int64).T
        order = np.argsort(k := np.add.outer(shifts, keys).ravel(), kind="stable")
        keys, counts = k[order], np.multiply.outer(weights, counts).ravel()[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        if not first.all():
            starts = np.flatnonzero(first)
            keys, counts = keys[starts], np.add.reduceat(counts, starts)
    return keys, counts


def _array_counts(steps, budget: int):
    """`lattice_counts` as sorted int64 arrays (keys, counts); None for a law
    that is tiny or does not fit int64.  The histogram's slot j holds the
    count of key lo + g*j: lo sums the least shift of each step, and g is the
    gcd of the offsets of every shift from the least of its step.  The steps
    run narrowest first, and each adds a weighted copy of the slots in use
    at each shift's offset.

    Tested cheapest first.  Tiny: the work (the slots in use before each
    step times its size, summed) is below DENSE_MIN_WORK.  Fits int64: every
    key fits in half of it, every weight is positive, and the total mass,
    which bounds every count, fits.  Narrow, else wide: at most `budget`
    slots, and at most four times as many as the law can have atoms (per
    group of m equal steps of k shifts, the C(m + k - 1, m) multisets of
    their shifts).  A narrow law whose work passes HISTOGRAM_WORK_BUDGET is
    refused before a slot is allocated.  A wide law is tiny too if the dict
    merge's work, were no two sums to meet, is below DENSE_MIN_WORK."""
    sizes = [len(step) for step in steps]
    # the work is at most the slots times the summed sizes, and the slots at
    # most 4 x the product of the sizes (or the law is wide; that product
    # times the summed sizes bounds the merges' work too) and at most 1 + the
    # summed spans: tiny laws leave on either bound
    if 4 * math.prod(sizes) * sum(sizes) < DENSE_MIN_WORK:
        return None
    ends = [(min(step)[0], max(step)[0]) for step in steps]
    if (1 + sum(most - least for least, most in ends)) * sum(sizes) < DENSE_MIN_WORK:
        return None
    # the narrowest first: for steps of one size, as the library's laws
    # have, that order takes the least work
    ends, ordered = zip(*sorted(zip(ends, steps), key=lambda e: e[0][1] - e[0][0]))
    g = math.gcd(*(s - least for (least, _), step in zip(ends, ordered) for s, _ in step)) or 1
    # tops[i]: the slots in use before step i; tops[-1]: all of them
    tops = list(itertools.accumulate(((most - least) // g for least, most in ends), initial=1))
    work = sum(top * len(step) for top, step in zip(tops, ordered))
    lo, hi = sum(e[0] for e in ends), sum(e[1] for e in ends)
    if (work < DENSE_MIN_WORK or max(-lo, hi) > INT64_MAX // 2
            or any(w <= 0 for step in steps for _, w in step)
            or math.prod(sum(w for _, w in step) for step in steps) > INT64_MAX):
        return None
    groups = Counter(tuple(sorted(step)) for step in steps)
    if tops[-1] > min(budget, 4 * math.prod(math.comb(m + len(k) - 1, m)
                                            for k, m in groups.items())):
        no_meets = sum(itertools.accumulate(sizes, operator.mul))  # the dict merge's work
        return None if no_meets < DENSE_MIN_WORK else _merge_counts(steps, budget)
    if work > HISTOGRAM_WORK_BUDGET:
        raise BudgetError(f"histogram work {work} (slots in use x step size, summed over "
                          f"the steps) exceeds budget {HISTOGRAM_WORK_BUDGET}")
    hist = np.zeros(tops[-1], np.int64)
    hist[0] = 1
    for top, (least, _), step in zip(tops, ends, ordered):
        old = hist[:top].copy()
        (_, w), *rest = sorted(step)  # the least shift, at offset 0, in place
        if w != 1:
            hist[:top] *= w
        for s, w in rest:
            off = (s - least) // g
            hist[off:off + top] += old if w == 1 else w * old
    used = hist != 0
    hist = hist[used]  # the full histogram goes before the keys are built
    keys = np.flatnonzero(used)
    keys *= g  # in place: a law of 2^22 atoms then peaks near 0.1 GB
    keys += lo
    return keys, hist


def exact_sign_sum_distribution(
    A: CoefficientMultiset,
    xi: SignDistribution,
) -> ExactDistribution:
    """Exact law of sum a_i * xi_i as integer counts on the lattice (1/L)Z,
    or (1/L)Z^2 packed into Z as y + B*x, where L clears the denominators of
    the entries and of the sign values: ascending keys are the values in
    order, pairs in (x, y) order.  The counts are `lattice_counts`'s, so
    BudgetError past its budgets."""
    la = common_denominator(c for e in A.entries for c in (e if A.d == 2 else (e,)))
    ls, den = common_denominator(xi.values), common_denominator(p for _, p in xi.support)
    signs = list(zip(lattice_ints(xi.values, ls), lattice_ints((p for _, p in xi.support), den)))
    if A.d == 1:
        pack, shifts = 0, lattice_ints(A.entries, la)
    else:
        xs, ys = (lattice_ints((e[i] for e in A.entries), la) for i in (0, 1))
        # B exceeds twice the largest |y| a partial sum can reach
        pack = 2 * max(abs(s) for s, _ in signs) * sum(map(abs, ys)) + 1
        shifts = [y + pack * x for x, y in zip(xs, ys)]
    steps = [[(a * s, w) for s, w in signs] for a in shifts]
    return ExactDistribution(lattice_counts(steps), la * ls, den ** A.n, A.n, pack)


def bernoulli_int_counts(entries: list[int]) -> SortedCounts | dict[int, int]:
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


def ball_probability_1d(
    A: CoefficientMultiset,
    xi: SignDistribution,
    R,
) -> tuple[Fraction, Fraction]:
    """Max over centers x of P(S_A in [x-R, x+R]), with a maximizing center.

    The optimum is attained by a window whose left edge sits on a support
    point; each such window's mass is a difference of the cumulative sums of
    the counts in value order, its right end found by `np.searchsorted`.
    The returned center is the midpoint of the extreme atoms covered by the
    best window (ties broken by the smallest center).
    """
    if A.d != 1:
        raise ValidationError("ball_probability_1d needs d=1")
    R = Fraction(R)
    if R < 0:
        raise ValidationError("radius must be >= 0")
    dist = exact_sign_sum_distribution(A, xi)
    keys, counts = dist.arrays
    mass = np.concatenate(([0], np.cumsum(counts)))
    # keys k <= k' fit one window iff k' - k <= floor(2R*L); with the width clamped to
    # the span, min(k, last - width) + width ends where k + width would, and cannot wrap
    width = min(math.floor(2 * R * dist.scale), int(keys[-1]) - int(keys[0]))
    ends = np.searchsorted(keys, np.minimum(keys, keys[-1] - width) + width, side="right")
    windows = mass[ends] - mass[:-1]
    # the centre grows with the left edge, so the first maximum has the smallest one
    i = int(np.argmax(windows))
    return (Fraction(int(windows[i]), dist.total),
            Fraction(int(keys[i]) + int(keys[ends[i] - 1]), 2 * dist.scale))


def disk_mass(dist: ExactDistribution, center: tuple, R) -> Fraction:
    """Exact mass of the closed disk of radius R at a rational center."""
    c, rr = (Fraction(center[0]), Fraction(center[1])), Fraction(R) ** 2
    return sum((p for a, p in dist.atoms.items() if hypot2(a, c) <= rr), Fraction(0))


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
    itself is exact), the first strict maximum over the candidates in value
    order: the atoms ascending in (x, y), then each pair i < j of them within
    2R, its +w centre before its -w one.  Raises BudgetError before scanning
    when the atoms times the candidate centres pass DISK_WORK_BUDGET.
    """
    if A.d != 2:
        raise ValidationError("ball_probability_2d needs d=2")
    R = Fraction(R)
    if R < 0:
        raise ValidationError("radius must be >= 0")
    dist = exact_sign_sum_distribution(A, xi)
    xy = [dist._coords(k) for k in dist.arrays[0].tolist()]  # the atoms in value order
    pts = [(Fraction(x, dist.scale), Fraction(y, dist.scale)) for x, y in xy]
    rr = R * R
    # each atom is a centre, and each pair of atoms within 2R gives two; every
    # centre's disk test reads every atom
    atoms = len(pts)
    if atoms * atoms > DISK_WORK_BUDGET:
        raise BudgetError(f"{atoms} atoms x at least {atoms} candidate centres exceed the "
                          f"disk scan budget of {DISK_WORK_BUDGET}")
    limit = math.floor(4 * rr * dist.scale**2)  # (2R)^2 on the integer lattice
    near = [(i, j) for i, (x, y) in enumerate(xy) for j in range(i + 1, atoms)
            if (xy[j][0] - x) ** 2 + (xy[j][1] - y) ** 2 <= limit]
    centres = atoms + 2 * len(near)
    if atoms * centres > DISK_WORK_BUDGET:
        raise BudgetError(f"{atoms} atoms x {centres} candidate centres exceed the disk "
                          f"scan budget of {DISK_WORK_BUDGET}")

    def scan():
        """(mass, centre m + b sqrt(q) w) per candidate, in value order."""
        for p in pts:
            yield disk_mass(dist, p, R), (p, 0, (0, 0), Fraction(0))
        for i, j in near:
            u, v = pts[i], pts[j]
            # centres m +- h w/|w|, h = sqrt(R^2 - |v - u|^2/4), w = perp(v - u):
            # m +- sqrt(q) w with q = R^2/|v - u|^2 - 1/4
            m, w = ((u[0] + v[0]) / 2, (u[1] + v[1]) / 2), (u[1] - v[1], v[0] - u[0])
            q = rr / hypot2(u, v) - Fraction(1, 4)
            for b in (1, -1):
                yield _surd_disk_mass(dist, *m, b, *w, q, rr), (m, b, w, q)

    # the first strict maximum: max returns the first of equal maxima
    best, ((mx, my), b, (wx, wy), q) = max(scan(), key=operator.itemgetter(0))
    root = isqrt_fraction_exact(q)
    try:
        s = float(root) if root is not None else math.sqrt(float(q))
    except OverflowError:  # q past the float range: the root of its integer part
        s = checked_float(math.isqrt(q.numerator // q.denominator), "a disk centre coordinate")
    x, y, wx, wy = (checked_float(c, "a disk centre coordinate") for c in (mx, my, wx, wy))
    centre = (x + b * s * wx, y + b * s * wy)
    if not all(map(math.isfinite, centre)):
        raise ValidationError("a disk centre coordinate lies outside the float range")
    return best, centre


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
    pts = [(checked_float(x, "an entry"), checked_float(y, "an entry")) for x, y in A.entries]
    best = (n + 1, (1.0, 0.0), 0.0)
    for k in range(angle_grid):
        phi = math.pi * k / angle_grid
        e = (math.cos(phi), math.sin(phi))
        proj = [x * e[0] + y * e[1] for x, y in pts]
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
        # a nonzero entry's step adds an atom, so either kernel path works at
        # least n(n - 1): past both budgets, refuse before building anything
        if n > 2 and n % 2 and n * (n - 1) > max(KERNEL_WORK_BUDGET, HISTOGRAM_WORK_BUDGET):
            raise BudgetError(f"n={n}: kernel work of at least n(n - 1) exceeds its budgets")
        A0 = centered_progression(n)
        counts = bernoulli_int_counts(A0.int_entries())
        rho = Fraction(max(counts.values()), 2**n)
        out.append((n, rho, float(rho) * n**1.5))
    return out
