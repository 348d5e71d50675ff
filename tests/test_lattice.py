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
    concentration_probability,
    exact_sign_sum_distribution,
    lattice_counts,
)
from smallball.fourier import rl_count
from smallball.gaps import geometric_progression_rho
from smallball.types import (
    BudgetError,
    CoefficientMultiset,
    ExactDistribution,
    SignDistribution,
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
    with pytest.raises(BudgetError):
        lattice_counts([((-1, 1), (1, 1))] * 3, budget=3)


def merged(steps, budget=core.ATOM_BUDGET):
    """The kernel with the dict merge alone."""
    return core._dict_counts(steps, budget)


def takes_dense(steps, budget=core.ATOM_BUDGET):
    """Whether the kernel counts the law on the histogram."""
    return core._histogram_counts(steps, budget) is not None


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
    assert lattice_counts(at, budget=65535) == merged(at, budget=65535)
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


def outcome(kernel, steps, budget):
    try:
        return kernel(steps, budget)
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
            mock.patch.object(core, "HISTOGRAM_WORK_BUDGET", hist_work):
        got = outcome(lattice_counts, steps, budget)
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


def test_2d_law_keeps_first_appearance_order_where_a_histogram_fits():
    # the packed keys of this law would fit the histogram, which would sort
    # them; the disk scan's witness tie rule reads their first appearance
    pairs = [(-2, -3), (2, -1), (-3, 1), (-3, 0), (3, 2), (1, 0), (1, -3), (1, -2), (0, 3),
             (-1, -1), (-2, 3), (-2, 3)]
    A = CoefficientMultiset.of_pairs(pairs)
    pack = 2 * sum(abs(x) for x, _ in pairs) + 1
    assert takes_dense(sign_steps([int(x) + pack * int(y) for x, y in A.entries], LAWS["pm1"]))
    dist = exact_sign_sum_distribution(A, LAWS["pm1"])
    assert list(dist.atoms) == fraction_convolution_order(A.entries, LAWS["pm1"])
    assert list(dist.atoms) != sorted(dist.atoms, key=lambda v: (v[1], v[0]))


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
    assert [v for v, _ in dist.sorted_items()] == sorted(oracle)


def fraction_convolution_order(pairs, xi):
    """Keys of the sequential Fraction-pair convolution, in insertion order."""
    atoms = {(Fraction(0), Fraction(0)): None}
    for ax, ay in pairs:
        atoms = {(x + ax * s, y + ay * s): None for x, y in atoms for s, _ in xi.support}
    return list(atoms)


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5),
       st.sampled_from(sorted(LAWS)))
@settings(max_examples=40, deadline=None)
def test_distribution_2d_matches_enumeration_and_order(pairs, law):
    xi = LAWS[law]
    A = CoefficientMultiset.of_pairs(pairs)
    dist = exact_sign_sum_distribution(A, xi)
    oracle = {}
    for combo in itertools.product(xi.support, repeat=A.n):
        key = (sum((x * v for (x, _), (v, _) in zip(A.entries, combo)), Fraction(0)),
               sum((y * v for (_, y), (v, _) in zip(A.entries, combo)), Fraction(0)))
        oracle[key] = oracle.get(key, Fraction(0)) + math.prod(
            (p for _, p in combo), start=Fraction(1))
    assert dict(dist.atoms) == oracle
    # the 2-D disk scan's witness depends on the atoms' order
    assert list(dist.atoms) == fraction_convolution_order(A.entries, xi)


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
