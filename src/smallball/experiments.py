"""Monte Carlo and exact experiments: Bernoulli matrix singularity,
k-universality, least singular values against the Gaussian limit law, and
common roots of random sign polynomials.

Reproducibility: trial i draws from the Philox4x64-10 stream with key =
master seed and counter block i, the stream `substream(seed, i)` returns.
The sign experiments compute those streams a batch of trials at a time
(`trial_bits`), so a report does not depend on the batch size.  Seeds must
lie in [0, 2^64).

Singularity decisions are exact integer arithmetic end to end.  In Monte
Carlo mode a batched modular elimination screens out matrices whose
determinant is provably nonzero (det != 0 mod p).  While Hadamard's bound
|det| <= n^(n/2) stays below the modulus (n <= 9 for one prime, n <= 15
for both), a flagged matrix is singular; at larger n fraction-free integer
elimination confirms each one, as it does every enumerated matrix in exact
mode.  Common roots likewise: a batched gcd over F_p certifies most pairs
coprime, and the exact integer gcd confirms the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .arith import bareiss_determinant, poly_gcd_degree_modp_batch, poly_gcd_int
from .types import BudgetError, ValidationError

EXACT_ENUM_BUDGET_LOG2 = 26
BATCH = 4096  # trials (or enumerated matrices) per vectorised batch
MAX_TRIAL_DRAWS = 2**21  # draws per trial, and per batch of trials
_SCREEN_PRIMES = (46337, 65521)


def _hadamard_exact_n(modulus: int) -> int:
    """Largest n with n^n < modulus^2.  A +-1 matrix of order n has
    |det| <= n^(n/2) (Hadamard), so up to that n, det == 0 mod `modulus`
    means det == 0."""
    n = 1
    while (n + 1) ** (n + 1) < modulus**2:
        n += 1
    return n


_ONE_PRIME_EXACT_N = _hadamard_exact_n(_SCREEN_PRIMES[0])  # 9
_TWO_PRIMES_EXACT_N = _hadamard_exact_n(_SCREEN_PRIMES[0] * _SCREEN_PRIMES[1])  # 15


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed} outside [0, 2^64)")


def _check_mc(trials: int, seed: int, least: int = 1) -> None:
    if trials < least:
        raise ValidationError(f"trials must be >= {least}")
    _check_seed(seed)


def _batches(trials: int, draws: int, batch: int = BATCH):
    """[lo, hi) ranges of at most `batch` trials of `draws` draws each, and
    of at most `MAX_TRIAL_DRAWS` draws: larger batches of large matrices
    only cost more memory and time.  A trial of more draws is refused
    before anything is drawn."""
    if draws > MAX_TRIAL_DRAWS:
        raise BudgetError(f"one trial needs {draws} draws, over the "
                          f"{MAX_TRIAL_DRAWS} budget")
    step = min(batch, MAX_TRIAL_DRAWS // draws)
    for lo in range(0, trials, step):
        yield lo, min(lo + step, trials)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator: Philox keyed by the master seed
    with a disjoint counter block per trial index."""
    _check_seed(master_seed)
    bg = np.random.Philox(key=master_seed, counter=[0, 0, 0, index])
    return np.random.Generator(bg)


_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a, b: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products a*b, from 32-bit
    halves so that no partial product leaves uint64."""
    a0, a1 = a & _M32, a >> _S32
    b0, b1 = b & _M32, b >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), a * b


def trial_bits(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """(hi - lo, k) int8 array of 0/1 draws: row t is exactly
    `substream(seed, lo + t).integers(0, 2, size=k, dtype=np.int8)`.

    That call reads Philox4x64-10 blocks at counters [1, 0, 0, i],
    [2, 0, 0, i], ... with key (seed, 0), splits each 64-bit word into two
    32-bit words (low half first) and those into bytes (low byte first);
    Lemire's method on a range of two returns each byte's top bit.  Here the
    blocks of every trial in [lo, hi) are computed at once."""
    _check_seed(seed)
    blocks = -(-k // 32)  # a block is 4 words = 32 bytes
    shape = (hi - lo, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = np.zeros(shape, np.uint64)
    c3 = np.broadcast_to(np.arange(lo, hi, dtype=np.uint64)[:, None], shape)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        k1 = np.uint64(r * _PHILOX_W[1] % 2**64)
        h0, l0 = _mulhilo(_PHILOX_M[0], c0)
        h1, l1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0
    words = np.stack([c0, c1, c2, c3], axis=-1).astype("<u8", copy=False)
    return (words.view(np.uint8).reshape(hi - lo, 32 * blocks)[:, :k] >> 7).astype(np.int8)


@dataclass(frozen=True)
class McReport:
    estimate: float
    trials: int
    successes: int
    std_error: float
    master_seed: int
    mode: str  # 'exact' | 'monte_carlo'
    exact_value: Fraction | None = None

    def to_json_dict(self):
        d = {
            "estimate": self.estimate,
            "trials": self.trials,
            "successes": self.successes,
            "std_error": self.std_error,
            "master_seed": self.master_seed,
            "mode": self.mode,
        }
        if self.exact_value is not None:
            d["exact_value"] = (f"{self.exact_value.numerator}/"
                                f"{self.exact_value.denominator}")
        return d

    @staticmethod
    def from_counts(successes: int, trials: int, seed: int,
                    mode: str = "monte_carlo",
                    exact: Fraction | None = None) -> "McReport":
        est = successes / trials if trials else 0.0
        se = 0.0 if mode == "exact" or not trials else \
            math.sqrt(est * (1 - est) / trials)
        return McReport(est, trials, successes, se, seed, mode, exact)


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str  # 'bernoulli_iid' | 'bernoulli_symmetric' | 'gaussian_iid'
    n: int

    def __post_init__(self):
        if self.kind not in ("bernoulli_iid", "bernoulli_symmetric", "gaussian_iid"):
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")


def _free_entry_count(spec: EnsembleSpec) -> int:
    if spec.kind == "bernoulli_iid":
        return spec.n * spec.n
    if spec.kind == "bernoulli_symmetric":
        return spec.n * (spec.n + 1) // 2
    raise ValidationError("exact enumeration needs a Bernoulli ensemble")


def _sign_matrices(spec: EnsembleSpec, bits: np.ndarray) -> np.ndarray:
    """(T, n, n) int8 sign matrices from (T, n*n) 0/1 draws in row-major
    order; a symmetric matrix keeps the upper triangle's draws."""
    n = spec.n
    if spec.kind not in ("bernoulli_iid", "bernoulli_symmetric"):
        raise ValidationError("sign sampling needs a Bernoulli ensemble")
    m = bits.reshape(-1, n, n) * 2 - 1
    if spec.kind == "bernoulli_symmetric":
        m = np.triu(m) + np.triu(m, 1).transpose(0, 2, 1)
    return m


def _enumerated_matrices(spec: EnsembleSpec, lo: int, hi: int) -> list:
    """Matrices lo..hi-1 of the exact enumeration as nested lists: bit k of
    the index is free entry k (row-major; upper triangle when symmetric),
    set meaning +1."""
    n = spec.n
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    signs = ((idx >> np.arange(_free_entry_count(spec))) & 1) * 2 - 1
    if spec.kind == "bernoulli_iid":
        return signs.reshape(-1, n, n).tolist()
    M = np.empty((hi - lo, n, n), np.int64)
    rows, cols = np.triu_indices(n)
    M[:, rows, cols] = signs
    M[:, cols, rows] = signs
    return M.tolist()


def _inv_modp(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise, by square-and-multiply: the inverse of
    every nonzero residue.  Products stay below p^2 < 2^63."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _batch_rank_deficient_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of matrices with det == 0 (mod p), by batched Gaussian
    elimination over F_p.  A matrix leaves the batch at the first column
    with no pivot.  Only the pivot column and row are reduced mod p; the
    trailing block takes one product below p^2 per step unreduced, so its
    entries stay below n*p^2 + 1 < 2^63 for p < 2^31 and any n that fits
    in memory."""
    T, n, _ = mats.shape
    A = mats.astype(np.int64)
    singular = np.zeros(T, dtype=bool)
    live = np.arange(T)
    for k in range(n):
        nonzero = A[:, k:, k] % p != 0
        has_pivot = nonzero.any(axis=1)
        if not has_pivot.all():
            singular[live[~has_pivot]] = True
            live, A, nonzero = live[has_pivot], A[has_pivot], nonzero[has_pivot]
        pivot_rows = k + np.argmax(nonzero, axis=1)
        swap = np.nonzero(pivot_rows != k)[0]
        if swap.size:
            pr = pivot_rows[swap]
            A[swap, k], A[swap, pr] = A[swap, pr], A[swap, k]
        col = A[:, k:, k] % p
        factors = col[:, 1:] * _inv_modp(col[:, 0], p)[:, None] % p
        A[:, k + 1:, k + 1:] -= factors[:, :, None] * (A[:, k, None, k + 1:] % p)
    return singular


def singularity_probability(
    spec: EnsembleSpec,
    mode: str = "monte_carlo",
    trials: int = 10**5,
    seed: int = 0,
    batch: int = BATCH,
) -> McReport:
    """P(random sign matrix is singular), exact by full enumeration or by
    seeded Monte Carlo with exact per-trial singularity decisions."""
    n = spec.n
    if mode == "exact":
        free = _free_entry_count(spec)
        if free > EXACT_ENUM_BUDGET_LOG2:
            raise BudgetError(
                f"exact mode needs 2^{free} enumerations, over the 2^"
                f"{EXACT_ENUM_BUDGET_LOG2} budget")
        total = 2**free
        count = 0
        for lo, hi in _batches(total, free):
            for M in _enumerated_matrices(spec, lo, hi):
                if bareiss_determinant(M) == 0:
                    count += 1
        return McReport.from_counts(count, total, seed, "exact", Fraction(count, total))
    if mode != "monte_carlo":
        raise ValidationError("mode must be 'exact' or 'monte_carlo'")
    _check_mc(trials, seed)
    successes = 0
    for lo, hi in _batches(trials, n * n, batch):
        mats = _sign_matrices(spec, trial_bits(seed, lo, hi, n * n))
        flagged = mats[_batch_rank_deficient_modp(mats, _SCREEN_PRIMES[0])]
        if n > _ONE_PRIME_EXACT_N and len(flagged):
            flagged = flagged[_batch_rank_deficient_modp(flagged, _SCREEN_PRIMES[1])]
        if n <= _TWO_PRIMES_EXACT_N:
            successes += len(flagged)
        else:
            successes += sum(bareiss_determinant(M.tolist()) == 0 for M in flagged)
    return McReport.from_counts(successes, trials, seed)


def _universality_failures(V: np.ndarray, index_sets: list, k: int) -> int:
    """Trials in the (T, d, n) 0/1 batch V for which some k coordinates
    show fewer than all 2^k patterns across the d vectors."""
    T, d, _ = V.shape
    if 2**k > d:  # d vectors cannot show 2^k patterns
        return T
    weights = 1 << np.arange(k)
    alive = np.arange(T)  # trials with every pattern seen so far
    for idx in index_sets:
        pats = V[:, :, idx][alive].astype(np.int64) @ weights  # (alive, d)
        seen = np.zeros((len(alive), 2**k), dtype=bool)
        seen[np.arange(len(alive))[:, None], pats] = True
        alive = alive[seen.all(axis=1)]
        if not alive.size:
            break
    return T - len(alive)


def k_universality_check(
    d: int,
    n: int,
    k: int,
    trials: int,
    seed: int = 0,
    per_trial_budget: int = 10**7,
) -> McReport:
    """Failure frequency of k-universality for d random sign n-vectors:
    a trial fails when some k coordinates and sign pattern are realized by
    none of the d vectors.  Decided exactly per trial by exhaustive pattern
    check."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    if d < 1 or n < 1:
        raise ValidationError("d and n must be >= 1")
    if k > 0 and math.comb(n, k) * 2**k > per_trial_budget:
        raise BudgetError("per-trial pattern check over budget")
    _check_mc(trials, seed)
    failures = 0
    index_sets = [list(c) for c in combinations(range(n), k)] if k else []
    if index_sets:
        for lo, hi in _batches(trials, d * n):
            V = trial_bits(seed, lo, hi, d * n).reshape(hi - lo, d, n)
            failures += _universality_failures(V, index_sets, k)
    return McReport.from_counts(failures, trials, seed)


def k1_universality_failure_exact(d: int, n: int) -> Fraction:
    """Exact failure probability for k=1: some coordinate constant across
    all d vectors; coordinates independent."""
    per = Fraction(2, 2**d)
    return 1 - (1 - per) ** n


_NON_FINITE = "array must not contain infs or NaNs"


def _sigma_min_qr_inverse_iteration(mat: np.ndarray, trtrs, tol: float = 1e-10,
                                    max_iter: int = 200):
    """Smallest singular value: orthogonal (QR) reduction, then inverse
    iteration on the normal-equations operator R^T R via two triangular
    solves per step; SVD fallback on non-convergence.
    Returns (sigma, converged).

    `trtrs` is LAPACK's float64 triangular solver, called with the
    arguments `scipy.linalg.solve_triangular(R, b, trans, lower=False)`
    passes it for the C-ordered R of `np.linalg.qr` (R.T, with `lower` and
    `trans` flipped), and a vector norm is sqrt(v.dot(v)), as in
    `np.linalg.norm`: the iterates are theirs bit for bit, without their
    per-call checks.  R has no zero on its diagonal, so `trtrs` cannot
    fail.  R is checked to be finite once; a non-finite iterate makes sigma
    non-finite, so only then are the iterates checked, and refused with
    `solve_triangular`'s ValueError."""
    n = mat.shape[0]
    _, R = np.linalg.qr(mat)
    if np.abs(np.diag(R)).min() < 1e-300:
        return 0.0, True
    if not np.isfinite(R).all():
        raise ValueError(_NON_FINITE)
    Rt = R.T
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n)
    x /= math.sqrt(x.dot(x))
    prev = np.inf
    for it in range(max_iter):
        y, _ = trtrs(Rt, x, lower=True, trans=False)
        z, _ = trtrs(Rt, y, lower=True, trans=True)
        x = z / math.sqrt(z.dot(z))
        v = R @ x
        sigma = math.sqrt(v.dot(v))
        if abs(sigma - prev) <= tol * max(sigma, 1e-300):
            return sigma, True
        # solve_triangular refuses a non-finite y at once and x on the next
        # step; a non-finite y makes sigma NaN, which never converges
        if not math.isfinite(sigma) and (not np.isfinite(y).all()
                                         or it + 1 < max_iter and not np.isfinite(x).all()):
            raise ValueError(_NON_FINITE)
        prev = sigma
    return float(np.linalg.svd(mat, compute_uv=False)[-1]), False


@dataclass(frozen=True)
class LsvSamples:
    values: tuple[float, ...]  # sorted sqrt(n) * sigma_min samples
    retries: int
    spec: EnsembleSpec
    master_seed: int

    def empirical_cdf(self, t: float) -> float:
        if not self.values:
            return 0.0
        import bisect

        return bisect.bisect_right(self.values, t) / len(self.values)

    def quantiles(self, qs=(0.1, 0.25, 0.5, 0.75, 0.9)):
        if not self.values:
            return {}
        v = self.values
        return {q: v[min(len(v) - 1, int(q * len(v)))] for q in qs}

    def to_csv(self) -> str:
        lines = ["trial,sigma_min_scaled"]
        lines += [f"{i},{x!r}" for i, x in enumerate(self.values)]
        return "\n".join(lines) + "\n"


def least_singular_value_mc(
    spec: EnsembleSpec,
    trials: int,
    seed: int = 0,
    tol: float = 1e-10,
) -> LsvSamples:
    """Sorted sample of sqrt(n) * sigma_n over seeded trials.  A singular
    sign matrix is reported as exactly 0.0."""
    if spec.n > 400:
        raise BudgetError("least_singular_value_mc limited to n <= 400")
    _check_mc(trials, seed, least=0)
    from scipy.linalg import get_lapack_funcs

    trtrs = get_lapack_funcs("trtrs", dtype=np.float64)
    vals = []
    retries = 0
    scale = math.sqrt(spec.n)
    # Householder QR is backward stable (Higham, Accuracy and Stability of
    # Numerical Algorithms, Thm 19.4): R is exact for M + E with ||E||_F <=
    # c n^2 u ||M||_F, u = 2^-53, and ||M||_F = n for signs, so a singular
    # sign matrix reports sigma <= c n^3 u instead of 0.  Draws below
    # n^3 2^-44 (c up to 2^9) are decided by an exact determinant; others
    # keep their float sigma, so the bound only sets the Bareiss calls.
    exact_below = spec.n**3 * 2.0**-44
    for t in range(trials):
        rng = substream(seed, t)
        if spec.kind == "gaussian_iid":
            S, M = None, rng.standard_normal((spec.n, spec.n))
        else:
            bits = rng.integers(0, 2, size=(1, spec.n**2), dtype=np.int8)
            S = _sign_matrices(spec, bits)[0]
            M = S.astype(np.float64)
        sigma, converged = _sigma_min_qr_inverse_iteration(M, trtrs, tol)
        if not converged:
            retries += 1
            sigma, converged = _sigma_min_qr_inverse_iteration(M, trtrs, tol * 10)
        if S is not None and sigma < exact_below and bareiss_determinant(S.tolist()) == 0:
            sigma = 0.0
        vals.append(scale * sigma)
    vals.sort()
    return LsvSamples(tuple(vals), retries, spec, seed)


def edelman_cdf(t: float) -> float:
    """Limit law of sqrt(n) * sigma_n for Gaussian matrices:
    1 - exp(-t^2/2 - t), the closed form of the density integral; its series
    is t - t^3/3 + O(t^4)."""
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    if t < 0:
        raise ValidationError("t must be >= 0")
    return -math.expm1(-(t * t) / 2.0 - t)


def exact_common_value_at_one(n: int) -> Fraction:
    """P(P1(1) = P2(1) = 0) for independent degree-n sign polynomials:
    ((C(n+1,(n+1)/2)) / 2^(n+1))^2 when n+1 is even, else 0."""
    if (n + 1) % 2:
        return Fraction(0)
    m = (n + 1) // 2
    p = Fraction(math.comb(n + 1, m), 2 ** (n + 1))
    return p * p


def common_root_probability(
    n: int,
    trials: int,
    seed: int = 0,
) -> tuple[McReport, Fraction]:
    """Probability that two independent random +-1 polynomials of degree n
    share a complex root, decided exactly per trial via integer polynomial
    gcd (deg gcd >= 1).  Also returns the exact value-at-1 channel.

    Per batch a screen certifies most coprime pairs cheaply: evaluation at
    x = +-1 detects the dominant shared-root channels, and gcd degree 0
    modulo a prime certifies coprimality; only unresolved pairs reach the
    exact integer gcd.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > 60:
        raise BudgetError("common_root_probability limited to degree <= 60")
    _check_mc(trials, seed)
    successes = 0
    alternating = (-1) ** np.arange(n + 1)
    for lo, hi in _batches(trials, 2 * (n + 1)):
        flat = trial_bits(seed, lo, hi, 2 * (n + 1)).astype(np.int64) * 2 - 1
        c1, c2 = flat[:, : n + 1], flat[:, n + 1:]
        both_at_one = (c1.sum(axis=1) == 0) & (c2.sum(axis=1) == 0)
        both_at_minus_one = (c1 @ alternating == 0) & (c2 @ alternating == 0)
        channel = both_at_one | both_at_minus_one
        successes += int(channel.sum())
        rest = np.nonzero(~channel)[0]
        degree = poly_gcd_degree_modp_batch(c1[rest], c2[rest], _SCREEN_PRIMES[0])
        for t in rest[degree != 0]:
            if len(poly_gcd_int(c1[t].tolist(), c2[t].tolist())) > 1:
                successes += 1
    report = McReport.from_counts(successes, trials, seed)
    return report, exact_common_value_at_one(n)


def mc_agreement_sigma(est: float, exact: float, trials: int) -> float:
    """|est - exact| in units of the exact-probability standard error."""
    se = math.sqrt(max(exact * (1 - exact), 1e-300) / trials)
    return abs(est - exact) / se
