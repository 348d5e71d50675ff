"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here; exact assertions use rational arithmetic with
zero tolerance.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from smallball.core import (
    ball_probability_1d,
    ball_probability_2d,
    bernoulli_int_counts,
    centered_progression,
    concentration_probability,
    disk_mass,
    exact_sign_sum_distribution,
    stanley_constant_scan,
)
from smallball.fourier import (
    FpContext,
    esseen_bound,
    fp_exponential_bound,
    level_and_dual_sets,
)
from smallball.gaps import (
    Gap,
    gap_fit,
    gap_forward_sample,
    geometric_progression_rho,
    structured_multiset_census,
)
from smallball.lcd import lcd_1d, recurrence_set_measure, rv_smallball_bound
from smallball.polyforms import (
    MultilinearPolynomial,
    SymmetricCoefficientMatrix,
    decoupling_check,
    multilinear_concentration,
    parity_correlation,
    quadratic_concentration,
)
from smallball.experiments import (
    EnsembleSpec,
    common_root_probability,
    edelman_cdf,
    exact_common_value_at_one,
    k_universality_check,
    least_singular_value_mc,
    singularity_probability,
)
from smallball.types import CoefficientMultiset, SignDistribution

from references import fp_fourier_identity, largest_binomial_sum, mc_agreement_sigma

PM1 = SignDistribution.bernoulli_pm1()
BOOL = SignDistribution.boolean_01()

CENSUS_CONSTANT = 32.0       # frozen: observed max ratio 24.05 on n=5, M=8
LCD_SWEEP_ALPHA = Fraction(1, 12)   # < 1/8 blocks every non-hit candidate
LCD_SWEEP_GAMMA = Fraction(1, 2)


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def nonzero_multisets(n, M):
    universe = [v for v in range(-M, M + 1) if v]
    return itertools.combinations_with_replacement(universe, n)


def window_max(counts, R):
    """Best closed-window count mass: two-pointer over the sorted support."""
    vals = sorted(counts)
    width = 2 * R
    best = 0
    j = 0
    run = 0
    for i in range(len(vals)):
        if j < i:
            j, run = i, 0
        while j < len(vals) and vals[j] - vals[i] <= width:
            run += counts[vals[j]]
            j += 1
        best = max(best, run)
        run -= counts[vals[i]]
    return best


def test_criterion_01_erdos_optimum():
    ok = True
    for n in range(1, 9):
        bound = Fraction(math.comb(n, n // 2), 2**n)
        for A in nonzero_multisets(n, 4):
            counts = bernoulli_int_counts(list(A))
            rho = Fraction(max(counts.values()), 2**n)
            if rho > bound:
                ok = False
        all_ones = bernoulli_int_counts([1] * n)
        if Fraction(max(all_ones.values()), 2**n) != bound:
            ok = False
    report(1, ok, "rho(A) <= C(n,n/2)/2^n over all |a_i|<=4 multisets, n<=8, "
                  "equality at the all-ones multiset (exact)")


def test_criterion_02_interval_optimum():
    radii = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    ok = True
    for n in range(1, 9):
        bounds = {R: Fraction(largest_binomial_sum(n, math.floor(R) + 1), 2**n)
                  for R in radii}
        for A in nonzero_multisets(n, 4):
            counts = bernoulli_int_counts(list(A))
            for R in radii:
                if Fraction(window_max(counts, R), 2**n) > bounds[R]:
                    ok = False
        ones = bernoulli_int_counts([1] * n)
        for R in radii:
            if Fraction(window_max(ones, R), 2**n) != bounds[R]:
                ok = False
    report(2, ok, "closed-interval optimum S(n, floor(R)+1)/2^n over the "
                  "sweep, equality at all-ones, R in {1/2,1,3/2,2} (exact)")


def test_criterion_02_window_consistency():
    # window_max oracle agrees with the library op on a sample
    for A in [(1, 2, 3), (1, 1, 4), (-2, 3, 3, 4)]:
        counts = bernoulli_int_counts(list(A))
        for R in (Fraction(1, 2), 1, 2):
            p, _ = ball_probability_1d(CoefficientMultiset.of(A), PM1, R)
            assert p == Fraction(window_max(counts, R), 2 ** len(A))


def test_criterion_03_flat_example_strictness():
    A = CoefficientMultiset.of_pairs([(1, 0)] * 10 + [(0, 1)])
    R = Fraction(23, 10)
    dist = exact_sign_sum_distribution(A, BOOL)
    configured = disk_mass(dist, (Fraction(11, 2), Fraction(1, 2)), R)
    s_bound = Fraction(largest_binomial_sum(11, 3), 2**11)
    sup, _ = ball_probability_2d(A, BOOL, R)
    ok = (configured == Fraction(1584, 2048)
          and s_bound == Fraction(1254, 2048)
          and configured > s_bound
          and sup >= configured)
    report(3, ok, "flat configuration mass 1584/2048 strictly exceeds "
                  "S(11,3)/2^11 = 1254/2048 (exact 2-D disk mass)")


def test_criterion_04_stanley():
    ok = True
    for n in (3, 5, 7, 9):
        rho0 = Fraction(max(bernoulli_int_counts(
            [int(v) for v in centered_progression(n).entries]).values()), 2**n)
        scale = n ** 1.5
        for A in itertools.combinations(range(-6, 7), n):
            counts = bernoulli_int_counts(list(A))
            rho = Fraction(max(counts.values()), 2**n)
            if rho > rho0:
                ok = False
            # Sarkozy-Szemeredi-shape corollary, asserted directly
            if float(rho) * scale > float(rho0) * scale * 1.0 + 1e-12:
                ok = False
    _, _, scaled101 = stanley_constant_scan([101])[0]
    target = math.sqrt(24 / math.pi)
    ok = ok and abs(scaled101 - target) / target <= 0.05
    report(4, ok, "rho(A) <= rho(A0) for all distinct-integer sets (odd n<=9, "
                  f"|a|<=6); rho(A0)*101^1.5 = {scaled101:.4f} within 5% of "
                  f"sqrt(24/pi) = {target:.4f}")


def test_criterion_05_fourier_soundness():
    rng = np.random.default_rng(170_004)
    ok = True
    worst_identity = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        entries = [int(v) for v in rng.integers(1, 9, size=n)]
        A = CoefficientMultiset.of(entries)
        dist = exact_sign_sum_distribution(A, PM1)
        rho, arg = dist.max_atom()
        ctx = FpContext.from_multiset(A)
        # Eq. (A.1)-style identity against the exact convolution
        _, exact, diff = fp_fourier_identity(ctx, int(arg))
        worst_identity = max(worst_identity, diff)
        if diff > 1e-9 or exact != rho:
            ok = False
        # exponential bound dominates the exact concentration
        if fp_exponential_bound(ctx) < float(rho):
            ok = False
        # Esseen bound (with outward-rounded quadrature error) dominates the
        # exact closed-ball probability at beta = 1
        eb = esseen_bound(A, 1)
        exact_ball, _ = ball_probability_1d(A, PM1, 1)
        if eb.bound < float(exact_ball):
            ok = False
    # exhaustive dual-set scans at small primes
    for entries, p in [([1] * 10, 997), ([1, 2, 3, 4, 5], 499),
                       ([1, 1, 2, 3, 5, 8], 997), ([2, 3, 5], 97)]:
        ctx = FpContext.from_multiset(CoefficientMultiset.of(entries), p=p)
        for rep in level_and_dual_sets(ctx, 6):
            if rep.level_size and rep.dual_size * rep.level_size > 8 * p:
                ok = False
    report(5, ok, "Esseen and F_p exponential bounds dominate exact values on "
                  f"200 random multisets (worst identity gap "
                  f"{worst_identity:.2e} <= 1e-9); dual bound |S*||S| <= 8p "
                  "on every exhaustive scan")


def test_criterion_06_decoupling():
    rng = np.random.default_rng(60_606)
    ok = True
    for trial in range(20):
        m = rng.integers(0, 2, size=(8, 8)) * 2 - 1
        M = SymmetricCoefficientMatrix.of((np.triu(m) + np.triu(m, 1).T).tolist())
        for u1 in itertools.combinations(range(8), 4):
            if 0 not in u1:
                continue  # complements give the same partition
            lhs, joint, holds = decoupling_check(M, u1, 0)
            if not holds or lhs**4 > joint:
                ok = False
    report(6, ok, "lhs^4 <= joint probability exactly for 20 random +-1 "
                  "symmetric matrices at n=8, all balanced partitions")


def test_criterion_07_quadratic_rates():
    all_ones = SymmetricCoefficientMatrix.of([[1] * 4] * 4)
    rho_b, _ = quadratic_concentration(all_ones, BOOL)
    vals = []
    for seed in range(50):
        g = np.random.default_rng(seed)
        m = g.integers(0, 2, size=(12, 12)) * 2 - 1
        M = SymmetricCoefficientMatrix.of((np.triu(m) + np.triu(m, 1).T).tolist())
        rho, _ = quadratic_concentration(M, PM1)
        vals.append(float(rho) * math.sqrt(12))
    vals.sort()
    median = (vals[24] + vals[25]) / 2
    ok = rho_b == Fraction(6, 16) and 0.3 <= median <= 3.0
    report(7, ok, f"rho_q(all-ones, n=4, {{0,1}} signs) = 6/16 exactly; median "
                  f"rho_q*sqrt(12) = {median:.3f} lies in [0.3, 3]")


def test_criterion_08_gap_forward_inverse():
    ok = True
    for seed in range(20):
        _, _, q1 = gap_forward_sample(Gap.of([1], [5]), 12, seed)
        _, _, q2 = gap_forward_sample(Gap.of([1, 37], [3, 3]), 12, seed)
        if q1 < 0.2 or q2 < 0.2:
            ok = False
    planted_volume = 15
    for seed in range(10):
        g = np.random.default_rng(1000 + seed)
        entries = [int(v) for v in g.integers(-7, 8, size=20)]
        cert = gap_fit(CoefficientMultiset.of(entries), 0)
        if cert.gap.volume > 2 * planted_volume or cert.epsilon_achieved != 0:
            ok = False
        g = np.random.default_rng(2000 + seed)
        entries = [1000 * int(i) + int(j)
                   for i, j in zip(g.integers(-2, 3, size=15),
                                   g.integers(-1, 2, size=15))]
        cert = gap_fit(CoefficientMultiset.of(entries), 0)
        if cert.gap.volume > 2 * planted_volume or cert.epsilon_achieved != 0:
            ok = False
    report(8, ok, "forward-sample quality >= 0.2 on 20 seeds for the rank-1 "
                  "and rank-2 reference GAPs; planted rank-1/rank-2 fits "
                  "recover volume within 2x with no exclusions")


def test_criterion_09_census():
    grid = [Fraction(1, 2), Fraction(3, 8), Fraction(1, 4), Fraction(3, 16),
            Fraction(1, 8), Fraction(3, 32), Fraction(1, 16)]
    rows = structured_multiset_census(5, 8, grid)
    by_rho = sorted(rows, key=lambda r: r[0], reverse=True)
    counts = [c for _, c, _ in by_rho]
    monotone = counts == sorted(counts)
    shape_ok = all(c <= CENSUS_CONSTANT * s for _, c, s in rows)
    report(9, monotone and shape_ok,
           f"census counts monotone in rho0 and <= C*(rho0^-1 n^-1/2)^n with "
           f"the frozen C = {CENSUS_CONSTANT}")


def test_criterion_10_lcd():
    ok = True
    for n in range(1, 7):
        for a in itertools.combinations_with_replacement(range(1, 9), n):
            g = math.gcd(*a)
            r = lcd_1d(list(a), LCD_SWEEP_ALPHA, LCD_SWEEP_GAMMA,
                       theta_max=Fraction(3, 2))
            if r.lcd != Fraction(1, g):
                ok = False
    # rv bound soundness on a validated corpus
    corpus = [
        ([Fraction(1, 2)] * 4, Fraction(1), Fraction(1), Fraction(1, 2)),
        ([Fraction(1, 4)] * 16, Fraction(1), Fraction(2), Fraction(1, 2)),
        ([1, 1, 1, 1], Fraction(2), Fraction(2), Fraction(1, 2)),
        ([Fraction(1, 3)] * 9, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)),
    ]
    for a, beta, alpha, gamma in corpus:
        res = rv_smallball_bound(a, beta, alpha, gamma)
        exact, _ = ball_probability_1d(CoefficientMultiset.of(a), PM1, beta)
        if res.bound < float(exact):
            ok = False
    # recurrence-set measure against the frozen-constant lemma bound
    suite = [([1] * 10, Fraction(1, 4), 1, 1),
             ([1, 2, 3], Fraction(1, 8), 2, Fraction(1, 2)),
             ([2, 5, 9, 11], Fraction(1, 10), 1, 1)]
    for a, t, z, beta in suite:
        res = recurrence_set_measure(a, t, z, beta, Fraction(1, 2), 1,
                                     grid_points=40001)
        if res.measure_estimate > res.lemma_bound:
            ok = False
    report(10, ok, "lcd_1d = 1/gcd exactly on all 3002 integer vectors "
                   "(entries <= 8, n <= 6); rv bound and recurrence measure "
                   "dominate their exact counterparts")


def test_criterion_11_singularity():
    p2 = singularity_probability(EnsembleSpec("bernoulli_iid", 2), "exact")
    p3 = singularity_probability(EnsembleSpec("bernoulli_iid", 3), "exact")
    p4 = singularity_probability(EnsembleSpec("bernoulli_iid", 4), "exact")
    ok = p2.exact_value == Fraction(1, 2)
    mc3 = singularity_probability(EnsembleSpec("bernoulli_iid", 3),
                                  "monte_carlo", trials=10**5, seed=31)
    mc4 = singularity_probability(EnsembleSpec("bernoulli_iid", 4),
                                  "monte_carlo", trials=10**5, seed=41)
    ok = ok and mc_agreement_sigma(mc3.estimate, float(p3.exact_value),
                                   mc3.trials) <= 4
    ok = ok and mc_agreement_sigma(mc4.estimate, float(p4.exact_value),
                                   mc4.trials) <= 4
    sym = {}
    for n in (10, 20, 40):
        sym[n] = singularity_probability(EnsembleSpec("bernoulli_symmetric", n),
                                         "monte_carlo", trials=10**5, seed=50 + n)
    for lo, hi in ((10, 20), (20, 40)):
        slack = 4 * (sym[lo].std_error + sym[hi].std_error)
        if sym[hi].estimate > sym[lo].estimate + slack:
            ok = False
    report(11, ok, f"p2 = 1/2 exact; exact p3 = {p3.exact_value}, p4 = "
                   f"{p4.exact_value} match MC at 1e5 trials within 4 sigma; "
                   f"symmetric trend {sym[10].estimate:.4f} >= "
                   f"{sym[20].estimate:.4f} >= {sym[40].estimate:.4f} "
                   "within 4 sigma")


def test_criterion_12_edelman():
    ok = all(abs(edelman_cdf(t) - (t - t**3 / 3)) <= 0.6 * t**4
             for t in np.linspace(1e-4, 0.1, 40))
    gauss = least_singular_value_mc(EnsembleSpec("gaussian_iid", 100), 2000,
                                    seed=120)
    emp = gauss.empirical_cdf(0.5)
    ok = ok and abs(emp - edelman_cdf(0.5)) <= 0.05
    bern = least_singular_value_mc(EnsembleSpec("bernoulli_iid", 100), 2000,
                                   seed=121)
    diffs = [abs(bern.empirical_cdf(t) - gauss.empirical_cdf(t))
             for t in (0.5, 1.0)]
    ok = ok and max(diffs) <= 0.07
    report(12, ok, f"edelman series check on t <= 0.1; Gaussian empirical "
                   f"CDF(0.5) = {emp:.4f} within 0.05 of "
                   f"{edelman_cdf(0.5):.4f}; Bernoulli matches Gaussian "
                   f"within 0.07 (max diff {max(diffs):.4f})")


def test_criterion_13_common_roots():
    ok = (exact_common_value_at_one(3) == Fraction(9, 64)
          and exact_common_value_at_one(7) == Fraction(1225, 16384)
          and exact_common_value_at_one(15) == Fraction(41409225, 2**30))
    scaled = {}
    for n in (7, 15, 31):
        rep, _ = common_root_probability(n, 2 * 10**5, seed=130 + n)
        scaled[n] = n * rep.estimate
    ratio = max(scaled.values()) / min(scaled.values())
    ok = ok and ratio <= 3
    report(13, ok, "exact value-at-1 channels for n in {3,7,15}; n * estimate "
                   f"= {[round(v, 3) for v in scaled.values()]} within a "
                   f"factor {ratio:.2f} <= 3 across n in {{7,15,31}}")


def test_criterion_14_parity_correlation():
    rng = np.random.default_rng(140_014)
    n = 16
    ok = True
    worst = Fraction(-1)
    for _ in range(100):
        terms = {}
        n_terms = int(rng.integers(3, 20))
        for _ in range(n_terms):
            size = int(rng.integers(1, 3))
            S = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            c = int(rng.integers(-4, 5))
            if c:
                terms[S] = terms.get(S, 0) + c
        terms = {S: c for S, c in terms.items() if c}
        if not terms:
            continue
        cor = parity_correlation(MultilinearPolynomial.of(terms, n))
        worst = max(worst, cor)
        if cor > 0:
            ok = False
    report(14, ok, "Cor(p, parity) <= 0 exactly for 100 random degree-2 "
                   f"integer polynomials at n=16 (max observed {worst})")


def _oracle_distribution(entries, xi):
    atoms = {}
    for combo in itertools.product(xi.support, repeat=len(entries)):
        v = sum((a * s for a, (s, _) in zip(entries, combo)), Fraction(0))
        p = math.prod((pr for _, pr in combo), start=Fraction(1))
        atoms[v] = atoms.get(v, Fraction(0)) + p
    return atoms


def test_criterion_15_oracle_equivalence():
    rng = np.random.default_rng(150_015)
    ok = True
    cases = 0
    xis = [PM1, BOOL, SignDistribution.lazy(Fraction(1, 2)),
           SignDistribution.general([(Fraction(-2), Fraction(1, 3)),
                                     (Fraction(1), Fraction(2, 3))])]
    # distributions, concentration, 1-D balls
    for _ in range(200):
        xi = xis[int(rng.integers(0, len(xis)))]
        n = int(rng.integers(1, 11 if len(xi.support) == 2 else 8))
        entries = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                   for _ in range(n)]
        A = CoefficientMultiset.of(entries)
        oracle = _oracle_distribution(A.entries, xi)
        dist = exact_sign_sum_distribution(A, xi)
        if dict(dist.atoms) != oracle:
            ok = False
        rho, arg = dist.max_atom()
        best = max(oracle.values())
        if rho != best or oracle[arg] != best:
            ok = False
        R = Fraction(int(rng.integers(0, 9)), 4)
        p, _ = ball_probability_1d(A, xi, R)
        brute = max(sum(pr for v, pr in oracle.items() if a <= v <= a + 2 * R)
                    for a in oracle)
        if p != brute:
            ok = False
        cases += 1
    # 2-D balls: exact max must dominate direct masses and match recounts
    for _ in range(60):
        n = int(rng.integers(1, 8))
        pairs = [(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                 for _ in range(n)]
        A = CoefficientMultiset.of_pairs(pairs)
        R = Fraction(int(rng.integers(1, 7)), 2)
        p, _ = ball_probability_2d(A, PM1, R)
        dist = exact_sign_sum_distribution(A, PM1)
        for (cx, cy) in list(dist.atoms.keys())[:20]:
            if disk_mass(dist, (cx, cy), R) > p:
                ok = False
        cases += 1
    # R_l counts vs brute tuples
    for _ in range(60):
        n = int(rng.integers(2, 7))
        entries = [int(v) for v in rng.integers(-5, 6, size=n)]
        A = CoefficientMultiset.of(entries)
        from smallball.fourier import rl_count

        l = int(rng.integers(1, 3))
        brute = sum(
            1 for tup in itertools.product(range(n), repeat=2 * l)
            if sum(entries[i] for i in tup[:l]) == sum(entries[i] for i in tup[l:]))
        if rl_count(A, l) != brute:
            ok = False
        cases += 1
    # quadratic forms vs brute enumeration
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = rng.integers(-2, 3, size=(n, n))
        M = SymmetricCoefficientMatrix.of((np.triu(m) + np.triu(m, 1).T).tolist())
        rho, arg = quadratic_concentration(M, PM1)
        buckets = {}
        for signs in itertools.product((-1, 1), repeat=n):
            v = sum(M.entries[i][j] * signs[i] * signs[j]
                    for i in range(n) for j in range(n))
            buckets[v] = buckets.get(v, 0) + 1
        best = max(buckets.values())
        if rho != Fraction(best, 2**n) or buckets[arg] != best:
            ok = False
        cases += 1
    # multilinear + parity vs brute over {0,1}^n
    for _ in range(60):
        n = int(rng.integers(2, 9))
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, min(n, 3) + 1))
            S = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            c = int(rng.integers(-3, 4))
            if c:
                terms[S] = c
        if not terms:
            terms = {(0,): 1}
        P = MultilinearPolynomial.of(terms, n)
        x = int(rng.integers(-2, 3))
        prob, _, _ = multilinear_concentration(P, x)
        cor = parity_correlation(P)
        hits = 0
        agree = 0
        for assign in itertools.product((0, 1), repeat=n):
            val = sum(c * math.prod(assign[i] for i in S)
                      for S, c in terms.items())
            hits += val == x
            agree += val == (sum(assign) % 2)
        if prob != Fraction(hits, 2**n) or cor != Fraction(agree, 2**n) - Fraction(1, 2):
            ok = False
        cases += 1
    # geometric-progression rho vs brute signed sums
    for _ in range(40):
        n = int(rng.integers(1, 8))
        x = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        rho = geometric_progression_rho(x, n)
        oracle = _oracle_distribution([x**j for j in range(n + 1)], PM1)
        if rho != max(oracle.values()):
            ok = False
        cases += 1
    # exact singularity versus independent numpy determinant enumeration
    for n in (2, 3):
        rep = singularity_probability(EnsembleSpec("bernoulli_iid", n), "exact")
        count = 0
        for bits in range(2**(n * n)):
            M = np.array([(1 if (bits >> k) & 1 else -1)
                          for k in range(n * n)]).reshape(n, n)
            if round(float(np.linalg.det(M))) == 0:
                count += 1
        if rep.exact_value != Fraction(count, 2**(n * n)):
            ok = False
        cases += 1
    # binomial sums vs direct summation
    for _ in range(18):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, n + 3))
        direct = sum(sorted((math.comb(n, i) for i in range(n + 1)),
                            reverse=True)[:m])
        if largest_binomial_sum(n, m) != direct:
            ok = False
        cases += 1
    report(15, ok, f"{cases} randomized oracle-equivalence cases (n <= 10) "
                   "against brute-force enumeration, zero tolerance")
