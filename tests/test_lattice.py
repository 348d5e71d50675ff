"""Oracle tests for the integer-lattice kernel and every exact law built on
it, against brute-force sign enumeration with Fraction arithmetic."""
import contextlib
import io
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallball import core
from smallball.cli import main
from smallball.core import (
    ball_probability_1d,
    ball_probability_2d,
    concentration_probability,
    exact_sign_sum_distribution,
    lattice_counts,
)
from smallball.fourier import rl_count
from smallball.gaps import gap_fit, geometric_progression_rho, structured_multiset_census
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
    SortedCounts,
    ValidationError,
)

LAWS = {
    "pm1": SignDistribution.bernoulli_pm1(),
    "bool": SignDistribution.boolean_01(),
    "lazy": SignDistribution.lazy(Fraction(2, 3)),
}

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def outcomes(entries, xi):
    """(value, probability) of every sign assignment."""
    for combo in itertools.product(xi.support, repeat=len(entries)):
        value = sum((a * v for a, (v, _) in zip(entries, combo)), Fraction(0))
        yield value, math.prod((p for _, p in combo), start=Fraction(1))


def brute_law(entries, xi):
    law = {}
    for value, p in outcomes(entries, xi):
        law[value] = law.get(value, Fraction(0)) + p
    return law


def brute_ball(law, R):
    """(mass, centre) of the best closed window [a, a + 2R] anchored at an
    atom, centred between its extreme atoms; ties go to the smallest centre."""
    best = (Fraction(-1), None)
    for a in sorted(law):
        covered = [v for v in law if a <= v <= a + 2 * R]
        mass = sum(law[v] for v in covered)
        if mass > best[0]:
            best = (mass, (a + max(covered)) / 2)
    return best


def test_kernel_counts_weighted_steps():
    # (x0 + 2 x^1)(x^-3 + x^3): shifts add, weights multiply, sums merge
    assert lattice_counts([((0, 1), (1, 2)), ((-3, 1), (3, 1))]) == \
        {-3: 1, 3: 1, -2: 2, 4: 2}
    assert lattice_counts([((-1, 1), (1, 1))] * 2) == {-2: 1, 0: 2, 2: 1}
    with mock.patch.object(core, "ATOM_BUDGET", 3), pytest.raises(BudgetError):
        lattice_counts([((-1, 1), (1, 1))] * 3)


def merged(steps, budget=core.ATOM_BUDGET):
    """The kernel with the dict merge alone."""
    return core._dict_counts(steps, budget)


def path(steps, budget=core.ATOM_BUDGET):
    """The kernel's path for the law: "histogram", "merge" or "dict"."""
    with mock.patch.object(core, "_merge_counts", return_value="merge"):
        law = core._array_counts(steps, budget)
    return "dict" if law is None else law if law == "merge" else "histogram"


def takes_dense(steps, budget=core.ATOM_BUDGET):
    """Whether the kernel counts the law on the histogram."""
    return path(steps, budget) == "histogram"


def sign_steps(entries, xi):
    """The kernel steps of `exact_sign_sum_distribution` for integer entries."""
    ls, den = math.lcm(*(v.denominator for v in xi.values)), \
        math.lcm(*(p.denominator for _, p in xi.support))
    return [[(a * int(v * ls), int(p * den)) for v, p in xi.support] for a in entries]


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


XI_TEXT = {"pm1": "pm1", "bool": "bool", "lazy": "lazy:2/3", "lazy13": "lazy:1/3"}
XI_TEXT_LAWS = {**LAWS, "lazy13": SignDistribution.lazy(Fraction(1, 3))}
narrow = st.lists(st.integers(-30, 30), min_size=12, max_size=24)
NARROW = [3, -7, 5, 1, -2, 8, -4, 6, 0, 2, 11, -13, 9, -10, 12, 4, -5, 7, 1, 3, -9, 6, 8, -12]
wide = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7)


@given(st.one_of(narrow, wide), st.sampled_from(sorted(XI_TEXT)), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_dense_histogram_matches_dict_merge(entries, law, twice_r):
    # the laws the histogram takes and the wide ones it leaves to the dict
    # merge: the counts as mappings, and the reports, with the histogram
    # switched off by a work floor no law reaches
    steps = sign_steps(entries, XI_TEXT_LAWS[law])
    assert lattice_counts(steps) == merged(steps)
    text = ",".join(map(str, entries))
    argvs = [["rho", f"--entries={text}", f"--xi={XI_TEXT[law]}"],
             ["ball", f"--entries={text}", f"--xi={XI_TEXT[law]}", f"--radius={twice_r}/2"],
             ["dist", f"--entries={text}", f"--xi={XI_TEXT[law]}"]]
    got = [report(argv) for argv in argvs]
    with mock.patch.object(core, "DENSE_MIN_WORK", math.inf):
        assert got == [report(argv) for argv in argvs]


def test_dense_histogram_is_taken_on_narrow_laws():
    # what the test above compares is the histogram, on every sign law
    for xi in XI_TEXT_LAWS.values():
        assert takes_dense(sign_steps(NARROW, xi))
    assert not takes_dense(sign_steps([10**5 + 7**k for k in range(9)], LAWS["pm1"]))


@pytest.mark.parametrize("n, dense", [(61, True), (62, True), (63, False)])
def test_all_ones_at_the_int64_mass_edge(n, dense):
    # the mass 2^n fits int64 up to n = 62; past it the dict merge takes the law
    steps = [((-1, 1), (1, 1))] * n
    assert takes_dense(steps) == dense
    assert lattice_counts(steps) == {2 * k - n: math.comb(n, k) for k in range(n + 1)}


def test_histogram_slots_at_the_selection_boundary():
    # one step of 64 shifts and 8 of 2: at most 64 x 2^8 atoms, so the
    # histogram takes at most 4 x 16384 = 65536 slots, and at most `budget`
    first = [tuple((j, 1) for j in range(64))]
    at = first + [((0, 1), (a, 1)) for a in (1, 2, 4, 8, 16, 32, 64, 65345)]
    past = first + [((0, 1), (a, 1)) for a in (1, 2, 4, 8, 16, 32, 64, 65346)]
    assert takes_dense(at) and not takes_dense(past)
    assert takes_dense(at, budget=65536) and not takes_dense(at, budget=65535)
    for steps in (at, past):
        assert lattice_counts(steps) == merged(steps)
    with mock.patch.object(core, "ATOM_BUDGET", 65535):
        assert lattice_counts(at) == merged(at, budget=65535)
    # 55 equal steps after those 64 atoms reach at most 64 x 56 atoms, not
    # 64 x 2^55: their 550,119 slots stay unallocated
    repeated = first + [((0, 1), (10_001, 1))] * 55
    assert not takes_dense(repeated)
    assert lattice_counts(repeated) == merged(repeated)
    # a zero weight in any step keeps the law in the dict, whose zero counts
    # the histogram would drop
    for zero in ([((0, 0), (1, 1))] + first + [((0, 1), (1, 1))] * 16,
                 first + [((0, 0), (1, 1))] * 16):
        assert not takes_dense(zero) and lattice_counts(zero) == merged(zero)
    # the work floor: one step of DENSE_MIN_WORK shifts takes the histogram,
    # one of a shift fewer stays on the dict merge
    assert core.DENSE_MIN_WORK == 1024
    assert takes_dense([tuple((j, 1) for j in range(1024))])
    assert not takes_dense([tuple((j, 1) for j in range(1023))])


steps_strategy = st.lists(
    st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), min_size=1, max_size=3),
    min_size=10, max_size=24)


def outcome(kernel, *args):
    try:
        return kernel(*args)
    except BudgetError as exc:
        return str(exc)


@given(steps_strategy, st.integers(1, 10_000) | st.just(core.ATOM_BUDGET),
       st.integers(1, 100_000), st.integers(1, 20_000))
@settings(max_examples=200, deadline=None)
def test_each_path_refuses_on_its_own_counters(steps, budget, work, hist_work):
    # the path is chosen before any step: a law off the histogram is
    # answered or refused as by the dict merge alone, whatever the
    # histogram's budget, and a law on it is answered, or refused by the
    # histogram's own work counter, whatever the dict merge's budget
    dense = takes_dense(steps, budget)
    with mock.patch.object(core, "KERNEL_WORK_BUDGET", work), \
            mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", hist_work), \
            mock.patch.object(core, "ATOM_BUDGET", budget):
        got = outcome(lattice_counts, steps)
        if not dense:
            assert got == outcome(merged, steps, budget)
            return
    if isinstance(got, str):
        assert got.startswith("histogram work ") and int(got.split()[2]) > hist_work
    else:
        assert got == merged(steps)


def test_kernel_work_counts_support_times_step_size():
    # the dict merge's counter: supports 1, 2, ..., 62 before the steps of
    # size 2, work 62 * 63
    steps = [((-1, 1), (1, 1))] * 62
    want = {2 * k - 62: math.comb(62, k) for k in range(63)}
    with mock.patch.object(core, "KERNEL_WORK_BUDGET", 3906):
        assert merged(steps) == want
    with mock.patch.object(core, "KERNEL_WORK_BUDGET", 3905):
        with pytest.raises(BudgetError, match="^kernel work of at least 3906 "):
            merged(steps)
        # the histogram takes this law and does not read the dict merge's budget
        assert takes_dense(steps) and lattice_counts(steps) == want


def test_histogram_work_counts_slots_times_step_size():
    # the histogram's counter: 1, 2, ..., 62 slots in use before the steps
    # of size 2 (the same as the dict merge's support here), work 62 * 63;
    # past its budget the law is refused before a slot is allocated, and the
    # dict merge's work budget plays no part
    steps = [((-1, 1), (1, 1))] * 62
    want = {2 * k - 62: math.comb(62, k) for k in range(63)}
    with mock.patch.object(core, "KERNEL_WORK_BUDGET", 1):
        with mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", 3906):
            assert lattice_counts(steps) == want
        with mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", 3905), \
                mock.patch.object(core.np, "zeros", side_effect=AssertionError("allocated")):
            with pytest.raises(BudgetError, match=r"^histogram work 3906 \(slots in use x "
                                                  r"step size, summed over the steps\) "
                                                  r"exceeds budget 3905$"):
                lattice_counts(steps)
    # slots, not atoms, in any order of the steps: the narrowest run first,
    # and after the steps 0/1 and 0/3 the atoms are 0, 1, 3, 4 but the slots
    # in use 0..4, so the step 0/4 makes the work 1 x 2 + 2 x 2 + 5 x 2 = 16,
    # where the dict merge's is 1 x 2 + 2 x 2 + 4 x 2 = 14
    steps = [((0, 1), (3, 1)), ((0, 1), (4, 1)), ((0, 1), (1, 1))]
    with mock.patch.object(core, "DENSE_MIN_WORK", 1), \
            mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", 15):
        for order in itertools.permutations(steps):
            with pytest.raises(BudgetError, match="^histogram work 16 "):
                lattice_counts(list(order))
        with mock.patch.object(core, "KERNEL_WORK_BUDGET", 14):
            assert merged(steps) == {0: 1, 1: 1, 3: 1, 4: 2, 5: 1, 7: 1, 8: 1}


@pytest.mark.parametrize("kernel", [lattice_counts, merged])
def test_kernel_work_refused_once_the_steps_left_must_pass_it(kernel):
    # before step i of 63 all-ones steps the support is i + 1 and the work
    # i (i + 1); the steps left take at least (i + 1)(126 - 2i), so the
    # total must pass 1200 from step 10 on (at least 11 x 106 = 1166 plus
    # the 110 done: 1276), long before the work done does (at step 35); the
    # mass 2^63 keeps the law off the histogram, so both refuse on the dict
    with mock.patch.object(core, "KERNEL_WORK_BUDGET", 1200):
        with pytest.raises(BudgetError, match="kernel work of at least 1276 "):
            kernel([((-1, 1), (1, 1))] * 63)


def test_histogram_answers_a_narrow_law_past_the_dict_budget(capsys):
    # 60 entries in [2500, 3500]: the mass 2^60 fits int64 and the law
    # spans 178,691 slots, some 10 million histogram work, far past the
    # dict merge's budget; an independent reference counts it by Kronecker
    # substitution: prod (1 + X^(2a)) at X = 2^64, each coefficient < 2^60
    rng = random.Random(14)
    entries = [rng.randint(2500, 3500) for _ in range(60)]
    started = time.perf_counter()
    code = main(["rho", "--entries=" + ",".join(map(str, entries))])
    assert code == 0 and time.perf_counter() - started < 0.5
    assert '"rho": "1415371161421/36028797018963968"' in capsys.readouterr().out
    dist = exact_sign_sum_distribution(CoefficientMultiset.of(entries), LAWS["pm1"])
    poly = 1
    for a in entries:
        poly += poly << (128 * a)
    coeffs = np.frombuffer(poly.to_bytes(8 * (2 * sum(entries) + 1), "little"), "<u8")
    nz = np.flatnonzero(coeffs)
    assert dist.counts == dict(zip((nz - sum(entries)).tolist(), coeffs[nz].tolist()))


def test_histogram_refuses_a_narrow_law_past_its_own_budget(capsys):
    # 62 further entries in [100000, 160000]: the mass 2^62 fits int64 and
    # 8 million slots fit ATOM_BUDGET, but the histogram work of some 456
    # million does not fit its budget; refused at once, before any slot
    rng = random.Random(14)
    for _ in range(60):  # the entries of the test above
        rng.randint(2500, 3500)
    entries = [rng.randint(100000, 160000) for _ in range(62)]
    started = time.perf_counter()
    code = main(["rho", "--entries=" + ",".join(map(str, entries))])
    assert code == 3 and time.perf_counter() - started < 0.5
    assert "budget error: histogram work " in capsys.readouterr().err


@pytest.mark.parametrize("wide", [-110000, 110000])
def test_histogram_work_does_not_depend_on_the_order_of_the_entries(wide, capsys):
    # the entries come sorted, so the wide one's step is the first or the
    # last; the histogram runs it last either way, after 1,771 slots in use,
    # not first, before 59 steps over some 110,000 slots each
    entries = [wide, *range(1, 60)]
    steps = sign_steps(sorted(entries), LAWS["pm1"])
    with mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", 0):
        with pytest.raises(BudgetError, match="^histogram work 72100 "):
            lattice_counts(steps)
    assert lattice_counts(steps) == merged(steps)
    assert main(["rho", "--entries=" + ",".join(map(str, entries))]) == 0
    assert capsys.readouterr().err == ""


def packed_steps(pairs, xi):
    """The kernel steps of `exact_sign_sum_distribution` for integer pairs:
    each packed as y + B x, B above twice the largest reachable |y|."""
    top = max(abs(v) for v in xi.values) * math.lcm(*(v.denominator for v in xi.values))
    pack = 2 * int(top) * sum(abs(int(y)) for _, y in pairs) + 1
    return sign_steps([int(y) + pack * int(x) for x, y in pairs], xi)


def test_2d_law_takes_an_array_path_in_value_order():
    # the packed keys of this law fit the histogram, which sorts them:
    # ascending keys are the atoms in ascending (x, y), not in the order of
    # their first appearance in the convolution
    pairs = [(-2, -3), (2, -1), (-3, 1), (-3, 0), (3, 2), (1, 0), (1, -3), (1, -2), (0, 3),
             (-1, -1), (-2, 3), (-2, 3)]
    A = CoefficientMultiset.of_pairs(pairs)
    assert takes_dense(packed_steps(A.entries, LAWS["pm1"]))
    dist = exact_sign_sum_distribution(A, LAWS["pm1"])
    assert type(dist.counts) is SortedCounts
    appearance = fraction_convolution_order(A.entries, LAWS["pm1"])
    assert list(dist.atoms) == sorted(appearance) != appearance


def test_wide_dissociated_law_stays_small():
    # eleven dissociated entries near 10^5 span 3.5 * 10^6 keys, under 2^22,
    # but have 2^11 atoms: a histogram over the span would take some 14 MB
    entries = [100_000 + 2 ** (k + 6) + 10_007 * k for k in range(11)]
    A = CoefficientMultiset.of(entries)
    tracemalloc.start()
    try:
        rho, _ = concentration_probability(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho == Fraction(1, 2**11)
    assert peak < 2 * 2**20


@given(st.lists(rationals, min_size=1, max_size=6), st.sampled_from(sorted(LAWS)))
@settings(max_examples=60, deadline=None)
def test_distribution_matches_sign_enumeration(entries, law):
    xi = LAWS[law]
    dist = exact_sign_sum_distribution(CoefficientMultiset.of(entries), xi)
    oracle = brute_law(entries, xi)
    assert dict(dist.atoms) == oracle
    assert len(dist.atoms) == len(oracle)
    best = max(oracle.values())
    assert dist.max_atom() == (best, min(v for v, p in oracle.items() if p == best))


def fraction_convolution_order(pairs, xi):
    """Keys of the sequential Fraction-pair convolution, in insertion order."""
    atoms = {(Fraction(0), Fraction(0)): None}
    for ax, ay in pairs:
        atoms = {(x + ax * s, y + ay * s): None for x, y in atoms for s, _ in xi.support}
    return list(atoms)


def brute_law_2d(pairs, xi):
    law = {}
    for combo in itertools.product(xi.support, repeat=len(pairs)):
        value = (sum((x * v for (x, _), (v, _) in zip(pairs, combo)), Fraction(0)),
                 sum((y * v for (_, y), (v, _) in zip(pairs, combo)), Fraction(0)))
        law[value] = law.get(value, Fraction(0)) + math.prod(
            (p for _, p in combo), start=Fraction(1))
    return law


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5),
       st.sampled_from(sorted(LAWS)))
@settings(max_examples=40, deadline=None)
def test_distribution_2d_matches_enumeration_and_order(pairs, law):
    xi = LAWS[law]
    A = CoefficientMultiset.of_pairs(pairs)
    dist = exact_sign_sum_distribution(A, xi)
    oracle = brute_law_2d(A.entries, xi)
    assert dict(dist.atoms) == oracle
    # the 2-D disk scan's witness depends on the atoms' order: value order,
    # ascending in (x, y), on every kernel path
    assert list(dist.atoms) == sorted(oracle)


def brute_disk(law, R):
    """(mass, centre) of the first strict maximum over the disk scan's
    candidates in value order: the atoms ascending in (x, y), then each pair
    u < v of them within 2R, its centre m + sqrt(q) w before m - sqrt(q) w
    (m the midpoint, w = perp(v - u), q = R^2/|v - u|^2 - 1/4).  A centre
    c = m + b sqrt(q) w covers atom a iff |c - a|^2 - R^2, which is
    alpha + beta sqrt(q) for rationals alpha and beta, is <= 0."""
    rr = R * R

    def covers(alpha, beta, q):
        if beta == 0 or q == 0:
            return alpha <= 0
        if beta < 0:  # alpha <= |beta| sqrt(q)
            return alpha <= 0 or alpha * alpha <= beta * beta * q
        return alpha <= 0 and beta * beta * q <= alpha * alpha

    def mass(m, b, w, q):
        total = Fraction(0)
        for (x, y), p in law.items():
            dx, dy = m[0] - x, m[1] - y
            alpha = dx * dx + dy * dy + q * (w[0] * w[0] + w[1] * w[1]) - rr
            if covers(alpha, 2 * b * (dx * w[0] + dy * w[1]), q):
                total += p
        return total

    pts = sorted(law)
    candidates = [(a, 0, (0, 0), Fraction(0)) for a in pts]
    for u, v in itertools.combinations(pts, 2):
        d2 = (v[0] - u[0]) ** 2 + (v[1] - u[1]) ** 2
        if d2 <= 4 * rr:
            m, w = ((u[0] + v[0]) / 2, (u[1] + v[1]) / 2), (u[1] - v[1], v[0] - u[0])
            candidates += [(m, b, w, rr / d2 - Fraction(1, 4)) for b in (1, -1)]
    best, at = Fraction(0), None
    for c in candidates:
        if (p := mass(*c)) > best:
            best, at = p, c
    (mx, my), b, (wx, wy), q = at
    return best, (float(mx) + b * math.sqrt(q) * float(wx), float(my) + b * math.sqrt(q) * float(wy))


def test_ball_2d_witness_is_the_first_maximum_in_value_order():
    rng = random.Random(22)
    laws = [LAWS["pm1"], LAWS["bool"], SignDistribution.lazy(Fraction(1, 2))]
    for case in range(45):
        xi = laws[case % 3]
        pairs = [(Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])), Fraction(rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 4 if case % 3 < 2 else 3))]
        A = CoefficientMultiset.of_pairs(pairs)
        law = brute_law_2d(A.entries, xi)
        for R in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            p, centre = ball_probability_2d(A, xi, R)
            want, want_centre = brute_disk(law, R)
            assert p == want, (pairs, xi, R)
            assert centre == pytest.approx(want_centre, abs=1e-12), (pairs, xi, R)


def test_2d_reports_do_not_depend_on_the_kernel_path():
    # each input takes the histogram or the sorted merge; on the dict merge
    # alone its ball2d and dist --d 2 reports are byte for byte the same
    cases = [("3,-2,2,3,-1,0,-3,1,-2,-2,0,0,-1,-1,-1,-1", "pm1", "histogram"),
             ("-2,0,1,3,1,3,-2,0,-1,3,-1,3,-1,3,1,3", "bool", "histogram"),
             ("1,-3,0,0,-1,-2,1,-3,0,0,0,0,-1,-2,1,-3,0,0", "lazy", "histogram"),
             ("1,5,3,4,2,-1,2,-1,1,5,1,5", "lazy", "merge"),
             ("-1,0,-3,-5,-1,0,0,0,-1,0,0,0,-3,-5,-3,-5,-3,-5,-1,0", "bool", "merge")]
    for entries, law, kind in cases:
        A = CoefficientMultiset.from_text(entries, 2)
        assert path(packed_steps(A.entries, LAWS[law])) == kind
        for argv in (["ball2d", f"--entries={entries}", f"--xi={XI_TEXT[law]}", "--radius=1"],
                     ["ball2d", f"--entries={entries}", f"--xi={XI_TEXT[law]}", "--radius=3/2"],
                     ["dist", "--d=2", f"--entries={entries}", f"--xi={XI_TEXT[law]}",
                      "--format=csv"]):
            code, out = report(argv)
            with mock.patch.object(core, "_array_counts", return_value=None):
                assert report(argv) == (code, out) and code == 0, argv


@given(st.lists(rationals, min_size=1, max_size=6), st.sampled_from(sorted(LAWS)),
       st.fractions(min_value=0, max_value=12, max_denominator=7))
@settings(max_examples=60, deadline=None)
def test_ball_1d_matches_window_oracle(entries, law, R):
    xi = LAWS[law]
    got = ball_probability_1d(CoefficientMultiset.of(entries), xi, R)
    assert got == brute_ball(brute_law(entries, xi), R)


def test_ball_1d_radius_denominator_not_dividing_entries():
    # entries on (1/6)Z, radius in (1/7)Z: the window width is not a lattice step
    entries = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 3)]
    for law, xi in LAWS.items():
        for R in (Fraction(1, 7), Fraction(3, 7), Fraction(5, 7), Fraction(13, 7)):
            got = ball_probability_1d(CoefficientMultiset.of(entries), xi, R)
            assert got == brute_ball(brute_law(entries, xi), R), (law, R)


@given(st.lists(rationals, min_size=1, max_size=5), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_rl_count_matches_tuple_enumeration(entries, l):
    n = len(entries)
    want = sum(1 for tup in itertools.product(range(n), repeat=2 * l)
               if sum(entries[i] for i in tup[:l]) == sum(entries[i] for i in tup[l:]))
    assert rl_count(CoefficientMultiset.of(entries), l) == want


@given(st.fractions(min_value=-9, max_value=9, max_denominator=9), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_geometric_rho_rational_matches_enumeration(x, n):
    counts = Counter(sum(s * x**j for j, s in enumerate(signs))
                     for signs in itertools.product((-1, 1), repeat=n + 1))
    assert geometric_progression_rho(x, n) == Fraction(max(counts.values()), 2 ** (n + 1))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_geometric_rho_quadratic_matches_enumeration(c1, c0, n):
    # t^(j+1) = t * (u + v t) = v c0 + (u + v c1) t in Z[t]/(t^2 - c1 t - c0)
    powers = [(1, 0)]
    for _ in range(n):
        u, v = powers[-1]
        powers.append((v * c0, u + v * c1))
    counts = Counter(
        (sum(s * u for s, (u, _) in zip(signs, powers)),
         sum(s * v for s, (_, v) in zip(signs, powers)))
        for signs in itertools.product((-1, 1), repeat=n + 1))
    assert geometric_progression_rho(None, n, quad=(c1, c0)) == \
        Fraction(max(counts.values()), 2 ** (n + 1))


def test_exact_distribution_rejects_counts_not_summing_to_total():
    assert ExactDistribution({-1: 1, 1: 1}, 1, 2, 1).max_atom() == (Fraction(1, 2), -1)
    with pytest.raises(ValidationError):
        ExactDistribution({-1: 1, 1: 2}, 1, 4, 1)


def dissociated(rng, n, denominators=(1,)):
    """n large entries with mixed signs and denominators: 2^n distinct sums."""
    return [Fraction(rng.choice([-1, 1]) * rng.randint(10**4, 10**6), rng.choice(denominators))
            for _ in range(n)]


def laws_on_both_merges(A, xi):
    """The law of A under xi as the kernel builds it, and with the dict merge
    alone (every array path declined)."""
    law = exact_sign_sum_distribution(A, xi)
    with mock.patch.object(core, "_array_counts", return_value=None):
        return law, exact_sign_sum_distribution(A, xi)


@pytest.mark.parametrize("law", sorted(XI_TEXT_LAWS))
@pytest.mark.parametrize("denominators", [(1,), (1, 1, 2, 3, 7, 40)], ids=["int", "rational"])
def test_sorted_merge_matches_dict_merge(law, denominators):
    # seeded wide laws: the sorted merge gives the dict merge's counts, keys
    # ascending, and every report reads the same from either
    rng = random.Random(f"{law}{len(denominators)}")
    xi = XI_TEXT_LAWS[law]
    for n in ((6, 8) if len(xi.support) == 3 else (10, 11, 12)):
        A = CoefficientMultiset.of(dissociated(rng, n, denominators))
        L = math.lcm(*(e.denominator for e in A.entries))
        steps = sign_steps(CoefficientMultiset.of([L * e for e in A.entries]).int_entries(), xi)
        assert path(steps) == "merge"
        keys, counts = core._merge_counts(steps, core.ATOM_BUDGET)
        assert keys.dtype == counts.dtype == np.int64 and (np.diff(keys) > 0).all()
        assert dict(zip(keys.tolist(), counts.tolist())) == merged(steps)
        law_, by_dict = laws_on_both_merges(A, xi)
        assert isinstance(law_.counts, SortedCounts) and type(by_dict.counts) is dict
        assert law_.counts == by_dict.counts and len(law_.atoms) == len(by_dict.counts)
        R = abs(A.entries[0]) * Fraction(rng.randint(1, 8), 3)
        for reader in (lambda d: d.max_atom(), lambda d: d.to_csv(), lambda d: d.to_json_dict(),
                       lambda d: core.ball_probability_1d(A, xi, R)):
            with mock.patch.object(core, "exact_sign_sum_distribution", return_value=law_):
                got = reader(law_)
            with mock.patch.object(core, "exact_sign_sum_distribution", return_value=by_dict):
                assert got == reader(by_dict)


def at_int64_edge(total):
    """Ten dissociated pm1 steps whose keys reach +-total exactly."""
    entries = [3**k for k in range(9)]
    return [((-a, 1), (a, 1)) for a in entries + [total - sum(entries)]]


def test_law_past_the_int64_guard_falls_back_to_the_dict_merge():
    # keys up to half of int64 take the merge; one more and the law stays
    # on the dict merge, with the same counts
    at, past = at_int64_edge(core.INT64_MAX // 2), at_int64_edge(core.INT64_MAX // 2 + 1)
    assert path(at) == "merge" and path(past) == "dict"
    for steps in (at, past):
        assert lattice_counts(steps) == merged(steps)
    # a total mass past int64 keeps a wide law on the dict merge too: the
    # weights of lazy:1/2^62 sum to 2^63 in each step
    lazy = SignDistribution.lazy(Fraction(1, 2**62))
    heavy = sign_steps([10**4 * 3**k + k for k in range(7)], lazy)
    assert path(heavy) == "dict" and lattice_counts(heavy) == merged(heavy)
    assert path(sign_steps([10**4 * 3**k + k for k in range(7)], LAWS["lazy"])) == "merge"


@pytest.mark.parametrize("budget, work", [(core.ATOM_BUDGET, 3000), (1000, 10**6),
                                          (3000, 5000), (core.ATOM_BUDGET, 10**6)])
def test_merge_refuses_where_the_dict_merge_does(budget, work):
    # the sorted merge runs the dict merge's checks on the same supports, so
    # it answers or refuses, with the same message, exactly as the dict does
    rng = random.Random(18)
    for n in (10, 11, 12, 13):
        steps = sign_steps([int(e) for e in dissociated(rng, n)], LAWS["pm1"])
        assert path(steps) == "merge"
        with mock.patch.object(core, "KERNEL_WORK_BUDGET", work), \
                mock.patch.object(core, "ATOM_BUDGET", budget):
            got = outcome(lattice_counts, steps)
            assert got == outcome(merged, steps, budget)


def test_wide_law_past_the_kernel_work_budget_exits_3_as_before(capsys):
    # 21 dissociated entries: the merge refuses at the step the dict merge
    # did, with its message
    entries = ",".join(str(10**6 + 3**k) for k in range(21))
    assert main(["rho", f"--entries={entries}"]) == 3
    err = capsys.readouterr().err
    assert "kernel work of at least 3145726 (support x step size" in err
    with mock.patch.object(core, "_array_counts", return_value=None):
        assert main(["rho", f"--entries={entries}"]) == 3
    assert capsys.readouterr().err == err


def test_tiny_wide_law_stays_on_the_dict_merge():
    # the dict merge's work on n pm1 steps whose sums never meet is
    # 2^(n+1) - 2: under DENSE_MIN_WORK up to n = 9
    rng = random.Random(9)
    for n, want in ((8, "dict"), (9, "dict"), (10, "merge")):
        steps = sign_steps([int(e) for e in dissociated(rng, n)], LAWS["pm1"])
        assert path(steps) == want


def test_every_reader_of_the_kernel_refuses_on_the_atom_budget_read_when_called():
    # lattice_counts reads core.ATOM_BUDGET at each call, so every exact law
    # built on it refuses, with the kernel's message, once the budget is
    # patched low: the 12 powers of two (2^12 atoms), geo-rho, Stanley at
    # n = 21, a census of 4-entry multisets and R_2 of 7 entries
    refuses = r"^projected atom count \d+ x key width = \d+ words exceeds budget 10$"
    calls = [lambda: exact_sign_sum_distribution(CoefficientMultiset.of([2**k for k in range(12)]),
                                                 LAWS["pm1"]),
             lambda: core.bernoulli_int_counts([2**k for k in range(12)]),
             lambda: geometric_progression_rho(2, 11),
             lambda: core.stanley_constant_scan([21]),
             lambda: structured_multiset_census(4, 3, [Fraction(1, 2)]),
             lambda: rl_count(CoefficientMultiset.of(range(1, 8)), 2)]
    with mock.patch.object(core, "ATOM_BUDGET", 10):
        for call in calls:
            with pytest.raises(BudgetError, match=refuses):
                call()
    for call in calls:
        call()


@pytest.mark.parametrize("entries, want", [(NARROW, "histogram"), ([10**5 + 3**k for k in range(
    11)], "merge")])
def test_sorted_counts_values_and_items_are_the_dict_merges(entries, want):
    steps = sign_steps(entries, LAWS["lazy"])
    assert path(steps) == want
    law, by_dict = lattice_counts(steps), sorted(merged(steps).items())
    assert isinstance(law, SortedCounts)
    assert law.items() == by_dict and law.values() == [c for _, c in by_dict]
    assert all(type(k) is int and type(c) is int for k, c in law.items())
    assert "_dict" not in law.__dict__


def test_readers_of_max_or_squares_build_no_lookup_dict():
    # a max, a sum of squares and the Fraction atoms come from the arrays;
    # the kernel's readers that take only those never look a key up
    law = exact_sign_sum_distribution(CoefficientMultiset.of(NARROW), LAWS["pm1"])
    assert isinstance(law.counts, SortedCounts)
    max(law.counts.values()), sum(c * c for c in law.counts.values()), dict(law.atoms)
    assert "_dict" not in law.counts.__dict__
    unbuilt = property(lambda self: pytest.fail("a lookup dict was built"))
    with mock.patch.object(SortedCounts, "_dict", unbuilt):
        assert geometric_progression_rho(Fraction(7, 3), 12) == Fraction(1, 2**13)
        assert geometric_progression_rho(None, 11, quad=(2, 3)) == Fraction(1, 2**12)
        assert rl_count(CoefficientMultiset.of(NARROW[:14]), 3) > 0
        assert core.stanley_constant_scan([39])[0][1] == Fraction(385531891, 2**35)
        gap_fit(CoefficientMultiset.of(NARROW), Fraction(1, 8))
        structured_multiset_census(6, 6, [Fraction(1, 8)])
        concentration_probability(CoefficientMultiset.of(NARROW))
