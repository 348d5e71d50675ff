import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from smallball import experiments
from smallball.arith import (
    bareiss_determinant,
    poly_gcd_degree_modp,
    poly_gcd_degree_modp_batch,
    poly_gcd_int,
)
from smallball.experiments import (
    _SCREEN_PRIMES,
    MAX_TRIAL_DRAWS,
    EnsembleSpec,
    McReport,
    _batch_rank_deficient_modp,
    _batches,
    _halved_minors,
    _inv_modp,
    _sign_matrices,
    _singular,
    common_root_probability,
    edelman_cdf,
    exact_common_value_at_one,
    k1_universality_failure_exact,
    k_universality_check,
    least_singular_value_mc,
    singularity_probability,
    substream,
    trial_bits,
)
from smallball.types import BudgetError, ValidationError

from references import mc_agreement_sigma



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


def test_determinant_of_empty_matrix_is_one():
    # the halved minor of a 1 x 1 sign matrix is empty
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant(np.zeros((0, 0), np.int8)) == 1
    assert [bareiss_determinant([[s]]) for s in (-1, 1)] == [-1, 1]


def halved_minor(M: list) -> list:
    """Scalar reference for `_halved_minors` on one matrix of lists."""
    rows = [[x * r[0] for x in r[1:]] for r in M]
    return [[(x - y) // 2 for x, y in zip(r, rows[0])] for r in rows[1:]]


@pytest.mark.parametrize("kind", ["bernoulli_iid", "bernoulli_symmetric"])
def test_halved_minor_identity(kind):
    # det M = s 2^(n-1) det M', s the product of M's first column, and
    # |det M'| never passes the halved Hadamard bound n^(n/2) / 2^(n-1)
    for n in range(1, 13):
        mats = _sign_matrices(EnsembleSpec(kind, n), trial_bits(70 + n, 0, 60, n * n))
        minors = _halved_minors(mats)
        assert minors.shape == (60, n - 1, n - 1) and np.isin(minors, (-1, 0, 1)).all()
        for M, minor in zip(mats.tolist(), minors.tolist()):
            assert minor == halved_minor(M)
            det, det_minor = bareiss_determinant(M), bareiss_determinant(minor)
            assert det == math.prod(r[0] for r in M) * 2 ** (n - 1) * det_minor
            assert det_minor**2 * 4 ** (n - 1) <= n**n


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


def test_mc_worker_count_independence(monkeypatch):
    # identical (seed, trials) must yield identical counts regardless of how
    # the trial range is partitioned across workers
    full = singularity_probability(EnsembleSpec("bernoulli_iid", 4),
                                   "monte_carlo", trials=3000, seed=5)
    monkeypatch.setattr(experiments, "BATCH", 127)
    chunked = singularity_probability(EnsembleSpec("bernoulli_iid", 4),
                                      "monte_carlo", trials=3000, seed=5)
    assert full.successes == chunked.successes


def test_substream_determinism():
    a = substream(42, 7).integers(0, 2, size=16)
    b = substream(42, 7).integers(0, 2, size=16)
    c = substream(42, 8).integers(0, 2, size=16)
    assert (a == b).all()
    assert (a != c).any()


def test_k_universality(monkeypatch):
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
    monkeypatch.setattr(experiments, "UNIVERSALITY_PATTERN_BUDGET", 10)
    with pytest.raises(BudgetError):
        k_universality_check(10, 50, 12, 1)


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


def test_lsv_sigma_matches_svd(monkeypatch):
    # each value is sqrt(n) * sigma_min of one SVD of its trial's own matrix,
    # bit for bit, except that a singular sign draw reports exactly 0.0; the
    # values do not depend on how the trials are batched
    for seed, (kind, n, trials) in itertools.product(
            (5, 2**63 + 7, 2**64 - 1),
            (("gaussian_iid", 1, 7), ("gaussian_iid", 12, 40), ("bernoulli_iid", 4, 100),
             ("bernoulli_iid", 9, 60), ("bernoulli_symmetric", 6, 60))):
        spec = EnsembleSpec(kind, n)
        expected = []
        for t in range(trials):
            rng = substream(seed, t)
            if kind == "gaussian_iid":
                S, M = None, rng.standard_normal((n, n))
            else:
                S = _sign_matrices(spec, rng.integers(0, 2, size=(1, n * n), dtype=np.int8))[0]
                M = S.astype(np.float64)
            sigma = np.linalg.svd(M, compute_uv=False)[-1]
            singular = S is not None and bareiss_determinant(S.tolist()) == 0
            expected.append(0.0 if singular else math.sqrt(n) * sigma)
        expected.sort()
        assert least_singular_value_mc(spec, trials, seed=seed).values == tuple(expected)
        with monkeypatch.context() as m:
            m.setattr(experiments, "MAX_TRIAL_DRAWS", 3 * n * n)  # batches of 3 trials
            assert least_singular_value_mc(spec, trials, seed=seed).values == tuple(expected)
        if n > 1:
            assert (0.0 in expected) == (kind != "gaussian_iid")


@pytest.mark.parametrize("n", [2, 3])
def test_lsv_reports_exact_zero_for_every_singular_sign_matrix(n, monkeypatch):
    # draw t of the patched batch draw is sign matrix t of the enumeration;
    # the float SVD leaves about 1e-16 on each singular one
    def draw(seed, lo, hi, k):
        t = np.arange(lo, hi)[:, None]
        return (t >> np.arange(k) & 1).astype(np.int8)

    monkeypatch.setattr(experiments, "trial_bits", draw)
    spec = EnsembleSpec("bernoulli_iid", n)
    expected = []
    for t in range(2 ** (n * n)):
        S = _sign_matrices(spec, draw(0, t, t + 1, n * n))[0]
        sigma = np.linalg.svd(S.astype(np.float64), compute_uv=False)[-1]
        assert sigma > 0.0
        expected.append(0.0 if bareiss_determinant(S.tolist()) == 0 else math.sqrt(n) * sigma)
    got = least_singular_value_mc(spec, 2 ** (n * n), seed=0)
    assert got.values == tuple(sorted(expected))
    assert got.values.count(0.0) == {2: 8, 3: 320}[n]


@pytest.mark.parametrize("seed", [0, 2**63 + 7, 2**64 - 1])
def test_gaussian_draws_match_substreams(seed):
    # one re-pointed generator gives each trial its own substream's draws,
    # whatever the previous trial left in the generator's output buffer, and
    # across the boundary between two batches
    for n in (1, 3, 7):
        want = np.stack([substream(seed, t).standard_normal((n, n)) for t in range(9)])
        got = np.concatenate([experiments._gaussian_matrices(seed, 0, 5, n),
                              experiments._gaussian_matrices(seed, 5, 9, n)])
        assert got.shape == (9, n, n)
        assert (got == want).all()


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


@pytest.mark.parametrize("p", _SCREEN_PRIMES[:2])
def test_pivot_inverse_every_residue(p):
    x = np.arange(1, p, dtype=np.int64)
    want = np.array([pow(int(v), p - 2, p) for v in x])
    assert (_inv_modp(x, p) == want).all()
    assert (x * _inv_modp(x, p) % p == 1).all()


@pytest.mark.parametrize("kind", ["bernoulli_iid", "bernoulli_symmetric"])
@pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 16, 20])
def test_rank_screen_matches_bareiss(kind, n):
    # the batched F_p elimination flags exactly the matrices whose integer
    # determinant is divisible by p; a third of the batch gets a repeated
    # row (and column, to stay symmetric) so that every n has singular ones
    spec, trials = EnsembleSpec(kind, n), 120
    mats = _sign_matrices(spec, trial_bits(n, 0, trials, n * n)).copy()
    if n > 1:
        mats[::3, 1] = mats[::3, 0]
        mats[::3, :, 1] = mats[::3, :, 0]
    dets = [bareiss_determinant(M.tolist()) for M in mats]
    for p in _SCREEN_PRIMES[:3]:
        want = [d % p == 0 for d in dets]
        assert _batch_rank_deficient_modp(mats, p).tolist() == want
        # p is odd, so it divides det M exactly when it divides det M'
        assert _batch_rank_deficient_modp(_halved_minors(mats), p).tolist() == want
    assert any(d == 0 for d in dets) == (n > 1)


def test_inverse_table_built_once_per_prime():
    experiments._inverse_table.cache_clear()
    for seed in range(6):
        singularity_probability(EnsembleSpec("bernoulli_iid", 4), trials=300, seed=seed)
        singularity_probability(EnsembleSpec("bernoulli_symmetric", 20), trials=300, seed=seed)
    info = experiments._inverse_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 12
    # the two tables in use; reading the others would build them
    used = _SCREEN_PRIMES[:2]
    for p in used:
        table = experiments._inverse_table(p)
        assert table.dtype == np.int32 and table.shape == (p,)
        assert not table.flags.writeable
    assert sum(experiments._inverse_table(p).nbytes for p in used) < 2**19
    assert experiments._inverse_table.cache_info().currsize == 2


def _scalar_screen(F, G, p):
    return [poly_gcd_degree_modp(f, g, p) for f, g in zip(F.tolist(), G.tolist())]


@pytest.mark.parametrize("n", [1, 3, 7, 15, 31, 60])
def test_batched_gcd_screen_matches_scalar(n):
    rng = np.random.default_rng(n)
    F = rng.integers(0, 2, size=(300, n + 1)) * 2 - 1
    G = rng.integers(0, 2, size=(300, n + 1)) * 2 - 1
    for p in _SCREEN_PRIMES[:2]:
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
    # one determinant per enumerated matrix, taken on its halved minor
    calls, mats = [], []

    def counting(M):
        calls.append(M)
        return bareiss_determinant(M)

    def recording(spec, bits):
        out = _sign_matrices(spec, bits)
        mats.extend(out.tolist())
        return out

    monkeypatch.setattr(experiments, "bareiss_determinant", counting)
    monkeypatch.setattr(experiments, "_sign_matrices", recording)
    for kind, n, free in (("bernoulli_iid", 3, 9), ("bernoulli_symmetric", 4, 10)):
        calls.clear()
        mats.clear()
        singularity_probability(EnsembleSpec(kind, n), "exact")
        assert len(calls) == 2**free
        assert calls == [halved_minor(M) for M in mats]
        assert len({tuple(map(tuple, M)) for M in mats}) == 2**free
        assert all(M == [list(r) for r in zip(*M)] for M in mats) == (
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


def _hadamard_primes(n: int) -> list[int]:
    """The least run of screen primes whose product m has n^n < m^2 4^(n-1):
    a +-1 matrix of order n has |det| <= n^(n/2) (Hadamard) and det a
    multiple of 2^(n-1), so its halved minor has |det| < m.  The primes are
    odd, so det == 0 mod each of them decides det == 0, for the matrix as
    for its minor."""
    primes, m = [], 1
    for p in _SCREEN_PRIMES:
        if n**n < m * m * 4 ** (n - 1):
            break
        primes.append(p)
        m *= p
    return primes


@pytest.mark.parametrize("n,count", [(1, 1), (9, 1), (10, 1), (15, 1), (16, 2), (20, 2),
                                     (24, 3), (40, 5)])
def test_screen_prime_counts(n, count, monkeypatch):
    # the product of the first `count` primes passes n^(n/2) / 2^(n-1), and
    # that of one fewer does not; at n = 24 a bound of n^(n/2) / 2^n would
    # stop a prime early
    primes = _SCREEN_PRIMES[:count]
    scale = 4 ** (n - 1)
    assert math.prod(primes) ** 2 * scale > n**n >= math.prod(primes[:-1]) ** 2 * scale
    assert _hadamard_primes(n) == list(primes)
    # the screen of a singular matrix (all ones, rank 1; its minor is 0)
    # takes exactly those
    seen = []
    real = experiments._batch_rank_deficient_modp
    monkeypatch.setattr(experiments, "_batch_rank_deficient_modp",
                        lambda mats, p: seen.append(p) or real(mats, p))
    mats = np.ones((2, n, n), np.int8)
    mats[1, 0, 0] = -1  # singular for n >= 3 only
    assert _singular(mats).tolist() == [n > 1, n > 2]
    assert seen == list(primes)


def test_screen_primes_cover_every_order_a_trial_can_draw():
    # 46337 keeps the gcd screen's int32 path; the rest are the primes below
    # 2^16 from the top, and together they pass n^(n/2) at the largest order
    # whose matrix fits in one trial
    assert _SCREEN_PRIMES[0] == 46337 and (_SCREEN_PRIMES[0] - 1) ** 2 < 2**31
    rest = list(_SCREEN_PRIMES[1:])
    assert rest == sorted(rest, reverse=True) and rest[0] == 65521 and rest[-1] > 46337
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in _SCREEN_PRIMES)
    assert len(rest) == sum(all(q % d for d in range(2, math.isqrt(q) + 1))
                            for q in range(46338, 2**16))
    n = math.isqrt(MAX_TRIAL_DRAWS)
    assert math.prod(_SCREEN_PRIMES) ** 2 > n**n


@pytest.mark.parametrize("kind,n,seed", [("bernoulli_iid", 3, 31), ("bernoulli_iid", 4, 41),
                                         ("bernoulli_symmetric", 10, 60),
                                         ("bernoulli_symmetric", 16, 32),
                                         ("bernoulli_symmetric", 20, 40)])
def test_hadamard_shortcut_agrees_with_bareiss(kind, n, seed):
    # the Monte Carlo runs of acceptance criterion 11 at n <= 15, and runs at
    # n = 16 and 20 that flag some matrices: every matrix that all the primes
    # of the halved Hadamard rule flag is singular, so counting them is exact
    spec = EnsembleSpec(kind, n)
    trials = 10**5 if n < 16 else 2000
    flagged = 0
    for lo, hi in _batches(trials, n * n):
        decided = _sign_matrices(spec, trial_bits(seed, lo, hi, n * n))
        for p in _hadamard_primes(n):
            decided = decided[_batch_rank_deficient_modp(decided, p)]
        assert all(bareiss_determinant(M.tolist()) == 0 for M in decided)
        flagged += len(decided)
    assert flagged > 0
    assert singularity_probability(spec, trials=trials, seed=seed).successes == flagged


def test_monte_carlo_makes_no_bareiss_call(monkeypatch):
    # Monte Carlo singularity and Bernoulli lsv decide by the screen alone,
    # singular draws included; exact mode keeps one determinant per matrix
    calls = []

    def counting(M):
        calls.append(M)
        return bareiss_determinant(M)

    monkeypatch.setattr(experiments, "bareiss_determinant", counting)
    for n, seed in ((15, 31), (16, 32), (20, 40)):
        for kind in ("bernoulli_symmetric", "bernoulli_iid"):
            rep = singularity_probability(EnsembleSpec(kind, n), trials=1500, seed=seed)
            assert rep.successes > 0
        # lsv draws the same iid matrices and reports the singular ones as 0
        lsv = least_singular_value_mc(EnsembleSpec("bernoulli_iid", n), 1500, seed=seed)
        assert lsv.values.count(0.0) == rep.successes
    assert calls == []
    singularity_probability(EnsembleSpec("bernoulli_iid", 3), "exact")
    assert len(calls) == 512


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


def test_draws_per_run_are_capped(monkeypatch):
    # a run of trials x draws per trial past MC_DRAW_BUDGET is refused
    # before anything is drawn, in every Monte Carlo run that draws signs;
    # every enumeration that exact mode's own budget admits stays below it
    for kind in ("bernoulli_iid", "bernoulli_symmetric"):
        n = max(n for n in range(1, 9) if experiments._free_entry_count(
            EnsembleSpec(kind, n)) <= experiments.EXACT_ENUM_BUDGET_LOG2)
        free = experiments._free_entry_count(EnsembleSpec(kind, n))
        assert 2**free * n * n <= experiments.MC_DRAW_BUDGET
    _draw_guard(monkeypatch)
    monkeypatch.setattr(experiments, "MC_DRAW_BUDGET", 9 * 100)
    spec = EnsembleSpec("bernoulli_iid", 3)
    assert singularity_probability(spec, trials=100).trials == 100
    with pytest.raises(BudgetError, match="909 draws"):
        singularity_probability(spec, trials=101)
    with pytest.raises(BudgetError):
        common_root_probability(3, 113)  # 8 draws each
    with pytest.raises(BudgetError):
        k_universality_check(10, 5, 1, 19)  # 50 draws each
    with pytest.raises(BudgetError):
        least_singular_value_mc(spec, 101)
