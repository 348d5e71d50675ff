import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_triangular

from smallball import experiments
from smallball.arith import (
    bareiss_determinant,
    poly_gcd_degree_modp,
    poly_gcd_degree_modp_batch,
    poly_gcd_int,
)
from smallball.experiments import (
    _ONE_PRIME_EXACT_N,
    _SCREEN_PRIMES,
    _TWO_PRIMES_EXACT_N,
    MAX_TRIAL_DRAWS,
    EnsembleSpec,
    McReport,
    _batch_rank_deficient_modp,
    _batches,
    _inv_modp,
    _sigma_min_qr_inverse_iteration,
    _sign_matrices,
    common_root_probability,
    edelman_cdf,
    exact_common_value_at_one,
    k1_universality_failure_exact,
    k_universality_check,
    least_singular_value_mc,
    mc_agreement_sigma,
    singularity_probability,
    substream,
    trial_bits,
)
from smallball.types import BudgetError, ValidationError

TRTRS = get_lapack_funcs("trtrs", dtype=np.float64)


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
        sigma, _ = _sigma_min_qr_inverse_iteration(M, TRTRS)
        ref = np.linalg.svd(M, compute_uv=False)[-1]
        assert sigma == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_lsv_reports_exact_zero_for_every_singular_sign_matrix(n, monkeypatch):
    # draw t of the patched stream is sign matrix t of the enumeration; the
    # float iteration leaves about 1e-16 on each singular one
    class Draw:
        def __init__(self, t):
            self.t = t

        def integers(self, low, high, size, dtype):
            return np.array([[self.t >> k & 1 for k in range(n * n)]], dtype=dtype)

    monkeypatch.setattr(experiments, "substream", lambda seed, t: Draw(t))
    spec = EnsembleSpec("bernoulli_iid", n)
    expected = []
    for t in range(2 ** (n * n)):
        S = _sign_matrices(spec, Draw(t).integers(0, 2, (1, n * n), np.int8))[0]
        sigma, _ = _sigma_min_qr_inverse_iteration(S.astype(np.float64), TRTRS)
        assert sigma > 0.0
        expected.append(0.0 if bareiss_determinant(S.tolist()) == 0 else math.sqrt(n) * sigma)
    got = least_singular_value_mc(spec, 2 ** (n * n), seed=0)
    assert got.values == tuple(sorted(expected))
    assert got.values.count(0.0) == {2: 8, 3: 320}[n]


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
    rep = McReport.from_counts(5, 100, 7)
    assert rep.estimate == 0.05
    assert rep.std_error == pytest.approx(math.sqrt(0.05 * 0.95 / 100))
    d = rep.to_json_dict()
    assert d["mode"] == "monte_carlo"


# ---------------------------------------------------------- batched engine


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 7, 2**64 - 1])
def test_trial_bits_match_substreams(seed):
    # byte, 32-bit word and 4-word Philox block boundaries are all crossed
    for i in (0, 1, 4095, 2**40):
        for k in (1, 7, 8, 9, 31, 32, 33, 257, 1600):
            want = substream(seed, i).integers(0, 2, size=k, dtype=np.int8)
            got = trial_bits(seed, i, i + 1, k)
            assert got.shape == (1, k) and got.dtype == np.int8
            assert (got[0] == want).all(), (seed, i, k)


def test_trial_bits_partition_independent():
    for seed, k in ((3, 9), (2**64 - 1, 40)):
        whole = trial_bits(seed, 0, 300, k)
        parts = np.vstack([trial_bits(seed, 0, 127, k), trial_bits(seed, 127, 300, k)])
        assert (whole == parts).all()


@pytest.mark.parametrize("p", _SCREEN_PRIMES)
def test_pivot_inverse_every_residue(p):
    x = np.arange(1, p, dtype=np.int64)
    want = np.array([pow(int(v), p - 2, p) for v in x])
    assert (_inv_modp(x, p) == want).all()
    assert (x * _inv_modp(x, p) % p == 1).all()


def _scalar_screen(F, G, p):
    return [poly_gcd_degree_modp(f, g, p) for f, g in zip(F.tolist(), G.tolist())]


@pytest.mark.parametrize("n", [1, 3, 7, 15, 31, 60])
def test_batched_gcd_screen_matches_scalar(n):
    rng = np.random.default_rng(n)
    F = rng.integers(0, 2, size=(300, n + 1)) * 2 - 1
    G = rng.integers(0, 2, size=(300, n + 1)) * 2 - 1
    for p in _SCREEN_PRIMES:
        assert poly_gcd_degree_modp_batch(F, G, p).tolist() == _scalar_screen(F, G, p)


def test_batched_gcd_screen_planted_factors():
    rng = np.random.default_rng(5)
    p = _SCREEN_PRIMES[0]
    # equal rows: the gcd is the polynomial itself
    F = rng.integers(0, 2, size=(40, 8)) * 2 - 1
    assert poly_gcd_degree_modp_batch(F, F, p).tolist() == [7] * 40
    # f*(x+1) against g*(x+1): degree >= 1, as the scalar screen says
    f = rng.integers(0, 2, size=(60, 7)) * 2 - 1
    g = rng.integers(0, 2, size=(60, 7)) * 2 - 1
    x1 = np.zeros((60, 8), dtype=np.int64)
    y1 = np.zeros((60, 8), dtype=np.int64)
    x1[:, 1:] += f
    x1[:, :-1] += f
    y1[:, 1:] += g
    y1[:, :-1] += g
    got = poly_gcd_degree_modp_batch(x1, y1, p)
    assert (got >= 1).all()
    assert got.tolist() == _scalar_screen(x1, y1, p)
    # rows vanishing mod p on one side or on both
    Z = np.array([[0, 0, 0], [p, 0, 2 * p], [0, 0, 0], [1, 1, 0], [2, 0, 0]])
    W = np.array([[0, 0, 0], [0, -p, 0], [1, 2, 1], [0, 0, 0], [0, 0, 5]])
    assert poly_gcd_degree_modp_batch(Z, W, p).tolist() == [-1, -1, 2, 1, 0]
    assert poly_gcd_degree_modp_batch(Z, W, p).tolist() == _scalar_screen(Z, W, p)


def test_exact_enumeration_one_determinant_per_matrix(monkeypatch):
    calls = []

    def counting(M):
        calls.append(M)
        return bareiss_determinant(M)

    monkeypatch.setattr(experiments, "bareiss_determinant", counting)
    for kind, n, free in (("bernoulli_iid", 3, 9), ("bernoulli_symmetric", 4, 10)):
        calls.clear()
        singularity_probability(EnsembleSpec(kind, n), "exact")
        assert len(calls) == 2**free
        assert len({tuple(map(tuple, M)) for M in calls}) == 2**free
        assert all(M == [list(r) for r in zip(*M)] for M in calls) == (
            kind == "bernoulli_symmetric")


@pytest.mark.parametrize("call", [
    lambda: singularity_probability(EnsembleSpec("bernoulli_iid", 3), trials=-5),
    lambda: singularity_probability(EnsembleSpec("bernoulli_iid", 3), trials=0),
    lambda: common_root_probability(3, -5),
    lambda: common_root_probability(3, 0),
    lambda: common_root_probability(0, 10),
    lambda: common_root_probability(-1, 10),
    lambda: common_root_probability(-2, 10),
    lambda: k_universality_check(3, 3, 1, -5),
    lambda: k_universality_check(3, 3, 0, 0),
    lambda: least_singular_value_mc(EnsembleSpec("gaussian_iid", 3), -5),
])
def test_mc_rejects_nonsense_sizes(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**64 + 5])
def test_mc_rejects_seeds_outside_range(seed):
    calls = [
        lambda: singularity_probability(EnsembleSpec("bernoulli_iid", 3), trials=10, seed=seed),
        lambda: common_root_probability(3, 10, seed),
        lambda: k_universality_check(3, 3, 1, 10, seed),
        lambda: least_singular_value_mc(EnsembleSpec("gaussian_iid", 3), 2, seed),
        lambda: substream(seed, 0),
        lambda: trial_bits(seed, 0, 1, 8),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    # the edges of the range are valid and distinct streams
    assert (trial_bits(0, 0, 1, 64) != trial_bits(2**64 - 1, 0, 1, 64)).any()


@pytest.mark.parametrize("d,n,k,trials", [(40, 6, 3, 60), (400, 6, 6, 40), (600, 7, 7, 30)])
def test_k_universality_against_pattern_sets(d, n, k, trials):
    # a trial fails when some k coordinates show fewer than 2^k distinct
    # patterns; k >= 6 needs more than a 64-bit pattern mask
    want = 0
    for t in range(trials):
        V = substream(9, t).integers(0, 2, size=(d, n), dtype=np.int8).tolist()
        if any(len({tuple(v[i] for i in idx) for v in V}) < 2**k
               for idx in itertools.combinations(range(n), k)):
            want += 1
    got = k_universality_check(d, n, k, trials, seed=9).successes
    assert got == want
    assert 0 < got < trials


def test_hadamard_thresholds():
    # |det| <= n^(n/2) for a +-1 matrix, so det == 0 mod m decides det == 0
    # while n^n < m^2: one screen prime up to n = 9, both up to n = 15
    p1, p2 = _SCREEN_PRIMES
    assert (_ONE_PRIME_EXACT_N, _TWO_PRIMES_EXACT_N) == (9, 15)
    assert 9**9 < p1**2 <= 10**10
    assert 15**15 < (p1 * p2) ** 2 <= 16**16


@pytest.mark.parametrize("kind,n,seed", [("bernoulli_iid", 3, 31), ("bernoulli_iid", 4, 41),
                                         ("bernoulli_symmetric", 10, 60)])
def test_hadamard_shortcut_agrees_with_bareiss(kind, n, seed):
    # the Monte Carlo runs of acceptance criterion 11 at n <= 15: every
    # matrix the screens flag is singular, so counting them is exact
    spec, trials = EnsembleSpec(kind, n), 10**5
    flagged = 0
    for lo, hi in _batches(trials, n * n):
        mats = _sign_matrices(spec, trial_bits(seed, lo, hi, n * n))
        first = mats[_batch_rank_deficient_modp(mats, _SCREEN_PRIMES[0])]
        both = first[_batch_rank_deficient_modp(first, _SCREEN_PRIMES[1])]
        decided = first if n <= _ONE_PRIME_EXACT_N else both
        assert all(bareiss_determinant(M.tolist()) == 0 for M in decided)
        flagged += len(decided)
    assert flagged > 0
    assert singularity_probability(spec, trials=trials, seed=seed).successes == flagged


def test_bareiss_confirms_only_above_hadamard(monkeypatch):
    calls = []

    def counting(M):
        calls.append(M)
        return bareiss_determinant(M)

    monkeypatch.setattr(experiments, "bareiss_determinant", counting)
    for n, seed in ((15, 31), (16, 32)):
        calls.clear()
        rep = singularity_probability(EnsembleSpec("bernoulli_symmetric", n), trials=1500,
                                      seed=seed)
        assert rep.successes > 0
        assert (len(calls) > 0) == (n > _TWO_PRIMES_EXACT_N)


def _sigma_min_reference(mat, tol=1e-10, max_iter=200):
    """The inverse iteration through `solve_triangular` and `np.linalg.norm`."""
    n = mat.shape[0]
    _, R = np.linalg.qr(mat)
    if np.abs(np.diag(R)).min() < 1e-300:
        return 0.0, True
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    prev = np.inf
    for _ in range(max_iter):
        y = solve_triangular(R, x, trans="T", lower=False)
        z = solve_triangular(R, y, trans="N", lower=False)
        x = z / np.linalg.norm(z)
        sigma = np.linalg.norm(R @ x)
        if abs(sigma - prev) <= tol * max(sigma, 1e-300):
            return float(sigma), True
        prev = sigma
    return float(np.linalg.svd(mat, compute_uv=False)[-1]), False


def _lsv_cases():
    rng = np.random.default_rng(29)
    for n in (1, 2, 18, 22):
        yield from (rng.standard_normal((n, n)) for _ in range(25))
    for n in (2, 20):
        for t in range(25):
            M = _sign_matrices(EnsembleSpec("bernoulli_iid", n),
                               rng.integers(0, 2, (1, n * n)))[0].astype(np.float64)
            if t % 3 == 0:  # plant a singular draw: a repeated or negated row
                M[-1] = M[0] * (-1) ** t
            yield M


def test_lsv_lapack_iteration_matches_solve_triangular():
    singular = 0
    for M in _lsv_cases():
        ref = _sigma_min_reference(M)
        got = _sigma_min_qr_inverse_iteration(M, TRTRS)
        assert repr(got) == repr(ref)  # bit for bit, and a Python float
        singular += np.linalg.matrix_rank(M) < len(M)
        # the SVD fallback once the iteration runs out of steps
        ref = _sigma_min_reference(M, max_iter=2)
        assert repr(_sigma_min_qr_inverse_iteration(M, TRTRS, max_iter=2)) == repr(ref)
    assert singular >= 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e307])
def test_lsv_lapack_iteration_non_finite_like_solve_triangular(scale):
    # extreme scales overflow the iterates; both raise, or both return the same
    rng = np.random.default_rng(31)
    for M in (rng.standard_normal((5, 5)) * scale, np.diag([1.0] * 4 + [1e-160])):
        for max_iter in (1, 2, 200):
            try:
                ref = repr(_sigma_min_reference(M, max_iter=max_iter))
            except ValueError:
                ref = "ValueError"
            try:
                got = repr(_sigma_min_qr_inverse_iteration(M, TRTRS, max_iter=max_iter))
            except ValueError:
                got = "ValueError"
            assert got == ref
    M = rng.standard_normal((4, 4))
    M[1, 2] = np.nan
    with pytest.raises(ValueError):
        _sigma_min_qr_inverse_iteration(M, TRTRS)


def test_edelman_rejects_non_finite_t():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            edelman_cdf(t)


def _draw_guard(monkeypatch):
    # unguarded code must fail here, before it allocates a huge batch
    real = experiments.trial_bits

    def guarded(seed, lo, hi, k):
        assert k <= MAX_TRIAL_DRAWS, f"{k} draws per trial"
        return real(seed, lo, hi, k)

    monkeypatch.setattr(experiments, "trial_bits", guarded)


def test_draws_per_trial_are_capped(monkeypatch):
    _draw_guard(monkeypatch)
    with pytest.raises(BudgetError):
        singularity_probability(EnsembleSpec("bernoulli_iid", 100000), trials=1)
    with pytest.raises(BudgetError):
        singularity_probability(EnsembleSpec("bernoulli_symmetric", 1449), trials=1)
    with pytest.raises(BudgetError):
        k_universality_check(100000, 100000, 1, 1)
    with pytest.raises(BudgetError):
        k_universality_check(MAX_TRIAL_DRAWS // 1024 + 1, 1024, 1, 1)
    # at the cap a trial runs; with k = 0 nothing is drawn
    assert k_universality_check(MAX_TRIAL_DRAWS // 1024, 1024, 1, 2).trials == 2
    assert k_universality_check(100000, 100000, 0, 1).successes == 0
