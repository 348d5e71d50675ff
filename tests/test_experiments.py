import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from smallball.arith import (
    bareiss_determinant,
    poly_gcd_degree_modp,
    poly_gcd_int,
)
from smallball.experiments import (
    EnsembleSpec,
    McReport,
    common_root_probability,
    edelman_cdf,
    exact_common_value_at_one,
    k1_universality_failure_exact,
    k_universality_check,
    least_singular_value_mc,
    mc_agreement_sigma,
    singularity_probability,
    substream,
)
from smallball.types import BudgetError, ValidationError


def cofactor_determinant(A) -> int:
    """Reference determinant by recursive cofactor expansion (tiny matrices)."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * cofactor_determinant([r[:j] + r[j + 1:] for r in A[1:]])
               for j in range(len(A)))


def test_determinant_backends_agree_exhaustively_n3():
    # full cross-validation over all 2^9 sign matrices
    for bits in range(2**9):
        M = [[1 if (bits >> (3 * i + j)) & 1 else -1 for j in range(3)]
             for i in range(3)]
        assert bareiss_determinant(M) == cofactor_determinant(M)


def test_poly_gcd_basics():
    # (x-1)(x+2) and (x-1)(x-3) share exactly (x-1)
    f = [-2, 1, 1]   # low-to-high: x^2 + x - 2
    g = [3, -4, 1]   # x^2 - 4x + 3
    assert poly_gcd_int(f, g) == [-1, 1]
    assert poly_gcd_degree_modp(f, g, 46337) == 1
    # coprime pair certified by the modular screen
    assert poly_gcd_degree_modp([1, 1], [1, 0, 1], 46337) == 0


def test_poly_gcd_against_numeric_roots():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(400):
        c1 = (rng.integers(0, 2, size=21) * 2 - 1).tolist()
        c2 = (rng.integers(0, 2, size=21) * 2 - 1).tolist()
        g = poly_gcd_int([int(v) for v in c1], [int(v) for v in c2])
        exact_common = len(g) - 1 >= 1
        r1 = np.roots(c1[::-1])
        r2 = np.roots(c2[::-1])
        numeric_common = bool((np.abs(r1[:, None] - r2[None, :]) < 1e-6).any())
        if exact_common != numeric_common:
            mismatches += 1  # resolved in favor of the exact gcd
    assert mismatches <= 2


def test_singularity_exact_small():
    assert singularity_probability(EnsembleSpec("bernoulli_iid", 1),
                                   "exact").exact_value == 0
    assert singularity_probability(EnsembleSpec("bernoulli_iid", 2),
                                   "exact").exact_value == Fraction(1, 2)
    r3 = singularity_probability(EnsembleSpec("bernoulli_iid", 3), "exact")
    assert r3.exact_value == Fraction(320, 512)
    sym = singularity_probability(EnsembleSpec("bernoulli_symmetric", 3), "exact")
    assert sym.exact_value == Fraction(1, 2)


def test_singularity_exact_budget():
    with pytest.raises(BudgetError):
        singularity_probability(EnsembleSpec("bernoulli_iid", 6), "exact")


def test_singularity_mc_agrees_with_exact():
    exact = singularity_probability(EnsembleSpec("bernoulli_iid", 3), "exact")
    mc = singularity_probability(EnsembleSpec("bernoulli_iid", 3),
                                 "monte_carlo", trials=20000, seed=11)
    assert mc_agreement_sigma(mc.estimate, float(exact.exact_value),
                              mc.trials) <= 4


def test_mc_worker_count_independence():
    # identical (seed, trials) must yield identical counts regardless of how
    # the trial range is partitioned across workers
    full = singularity_probability(EnsembleSpec("bernoulli_iid", 4),
                                   "monte_carlo", trials=3000, seed=5)
    chunked = singularity_probability(EnsembleSpec("bernoulli_iid", 4),
                                      "monte_carlo", trials=3000, seed=5,
                                      batch=127)
    assert full.successes == chunked.successes


def test_substream_determinism():
    a = substream(42, 7).integers(0, 2, size=16)
    b = substream(42, 7).integers(0, 2, size=16)
    c = substream(42, 8).integers(0, 2, size=16)
    assert (a == b).all()
    assert (a != c).any()


def test_k_universality():
    rep0 = k_universality_check(4, 6, 0, 50, seed=1)
    assert rep0.successes == 0  # k = 0 is always universal
    exact = k1_universality_failure_exact(20, 20)
    rep = k_universality_check(20, 20, 1, 4000, seed=2)
    assert mc_agreement_sigma(rep.estimate, float(exact), rep.trials) <= 4
    # inclusion-exclusion cross-check at n=3, d=3, k=1 by full enumeration
    fail = 0
    for bits in range(2**9):
        V = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        cols = list(zip(*V))
        if any(len(set(c)) == 1 for c in cols):
            fail += 1
    assert Fraction(fail, 512) == k1_universality_failure_exact(3, 3)
    with pytest.raises(BudgetError):
        k_universality_check(10, 50, 12, 1, per_trial_budget=10)


def test_k_universality_wide_margin():
    # d = 2n random vectors are k=2 universal with failure rate well under 5/n
    rep = k_universality_check(48, 24, 2, 400, seed=3)
    assert rep.estimate <= 5 / 24


def test_edelman_cdf():
    assert edelman_cdf(0) == 0
    assert edelman_cdf(50) == pytest.approx(1.0)
    # series check: CDF(t) = t - t^3/3 + O(t^4), coefficient 1/12 at t^4
    for t in (0.1, 0.05, 0.025):
        err = abs(edelman_cdf(t) - (t - t**3 / 3))
        assert err <= 0.6 * t**4
    with pytest.raises(ValidationError):
        edelman_cdf(-1)


def test_lsv_gaussian_matches_limit_law():
    spec = EnsembleSpec("gaussian_iid", 60)
    samples = least_singular_value_mc(spec, 400, seed=17)
    emp = samples.empirical_cdf(0.5)
    assert abs(emp - edelman_cdf(0.5)) < 0.1
    assert samples.values == tuple(sorted(samples.values))
    empty = least_singular_value_mc(spec, 0, seed=17)
    assert empty.values == ()


def test_lsv_sigma_matches_svd():
    rng = np.random.default_rng(3)
    from smallball.experiments import _sigma_min_qr_inverse_iteration

    for _ in range(20):
        M = rng.standard_normal((30, 30))
        sigma, _ = _sigma_min_qr_inverse_iteration(M)
        ref = np.linalg.svd(M, compute_uv=False)[-1]
        assert sigma == pytest.approx(ref, rel=1e-6)


def test_common_root_exact_channels():
    assert exact_common_value_at_one(3) == Fraction(9, 64)
    assert exact_common_value_at_one(4) == 0  # five signs cannot sum to zero
    assert exact_common_value_at_one(7) == Fraction(1225, 16384)


def test_common_root_mc_brute_agreement():
    # exhaustive check on degree 2: decision by gcd equals root comparison
    rep, exact1 = common_root_probability(2, 500, seed=23)
    assert exact1 == 0
    # brute force the true probability over all 8 x 8 coefficient choices
    count = 0
    for c1 in itertools.product((-1, 1), repeat=3):
        for c2 in itertools.product((-1, 1), repeat=3):
            g = poly_gcd_int(list(c1), list(c2))
            if len(g) - 1 >= 1:
                count += 1
    truth = count / 64
    assert mc_agreement_sigma(rep.estimate, truth, rep.trials) <= 4


def test_common_root_theta_shape():
    vals = {}
    for n in (7, 15):
        rep, _ = common_root_probability(n, 4000, seed=29)
        vals[n] = n * rep.estimate
    assert max(vals.values()) / min(vals.values()) < 3


def test_mcreport_shapes():
    rep = McReport.from_counts(5, 100, 7, 0.0)
    assert rep.estimate == 0.05
    assert rep.std_error == pytest.approx(math.sqrt(0.05 * 0.95 / 100))
    d = rep.to_json_dict()
    assert d["mode"] == "monte_carlo"
