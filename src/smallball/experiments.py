"""Monte Carlo and exact experiments: Bernoulli matrix singularity,
k-universality, least singular values against the Gaussian limit law, and
common roots of random sign polynomials.

Reproducibility: trial i draws from the Philox4x64-10 stream with key =
master seed and counter block i, the stream `substream(seed, i)` returns.
Every sign draw comes from `trial_bits`, which computes those streams a
batch of trials at a time, so a report does not depend on the batch size;
Gaussian draws come from one generator per batch, re-pointed to counter
block i before trial i.  Seeds must lie in [0, 2^64).

Singularity decisions are exact integer arithmetic end to end, and each
works on a sign matrix's halved minor: an n x n sign matrix M has det M =
+-2^(n-1) det M' for an (n-1) x (n-1) matrix M' of entries 0 and +-1 (see
`_halved_minors`).  In Monte Carlo mode one rule decides every minor:
modular elimination over the screen primes in turn, until their product
passes the halved Hadamard bound |det M'| <= n^(n/2) / 2^(n-1); a minor
flagged (det == 0 mod p) by all of them is singular (see `_singular`).
Exact mode takes each enumerated matrix's minor's determinant by
fraction-free integer elimination.  Common roots: a batched gcd over F_p
certifies most pairs coprime, and the exact integer gcd confirms the rest.

Least singular values come from one batched LAPACK SVD per batch of trials,
each trial drawn from its own stream.  A sign draw whose float sigma lies
within the SVD's backward error of zero is decided by the same screen, so a
singular sign matrix reports exactly 0.
"""
from __future__ import annotations

import functools
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
MC_DRAW_BUDGET = 2 * 10**9  # trials x draws per run: over 10x the largest run tested, 1.6e8
LSV_TRIAL_BUDGET = 10**5  # lsv keeps every sample; tests take at most 2000
UNIVERSALITY_PATTERN_BUDGET = 10**7  # C(n, k) 2^k patterns checked per trial


def _primes_below(m: int) -> list[int]:
    """The primes in [2, m), ascending, by the sieve of Eratosthenes."""
    sieve = np.ones(m, dtype=bool)
    for d in range(2, math.isqrt(m) + 1):
        sieve[d * d::d] = False  # d's multiples from d^2 on, d prime or not
    return np.flatnonzero(sieve)[2:].tolist()


# 46337 (the gcd screen's int32 path), then the primes below 2^16 from the
# top: their product passes Hadamard's bound at every order a trial can draw
_SCREEN_PRIMES = (46337, *(p for p in reversed(_primes_below(2**16)) if p > 46337))


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed} outside [0, 2^64)")


def _check_mc(trials: int, seed: int, least: int = 1) -> None:
    if trials < least:
        raise ValidationError(f"trials must be >= {least}")
    _check_seed(seed)


def _batches(trials: int, draws: int):
    """[lo, hi) ranges of at most BATCH trials of `draws` draws each, and
    of at most `MAX_TRIAL_DRAWS` draws: larger batches of large matrices
    only cost more memory and time.  A trial of more draws, or a run of
    more than MC_DRAW_BUDGET draws, is refused before anything is drawn."""
    if draws > MAX_TRIAL_DRAWS:
        raise BudgetError(f"one trial needs {draws} draws, over the "
                          f"{MAX_TRIAL_DRAWS} budget")
    if trials * draws > MC_DRAW_BUDGET:
        raise BudgetError(f"{trials} trials of {draws} draws need {trials * draws} "
                          f"draws, over the {MC_DRAW_BUDGET} budget")
    step = min(BATCH, MAX_TRIAL_DRAWS // draws)
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
        return {k: v for k, v in vars(self).items() if v is not None}  # exact_value if set

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
    if spec.kind == "bernoulli_symmetric":
        # entry (i, j) reads the draw at (min(i, j), max(i, j))
        i, j = np.indices((n, n))
        bits = bits[:, np.minimum(i, j) * n + np.maximum(i, j)]
    return bits.reshape(-1, n, n) * 2 - 1


@functools.cache
def _inverse_table(p: int) -> np.ndarray:
    """x^(p-2) mod p for every residue x, as read-only int32: the inverse of
    every nonzero residue (and 0 at 0).  Built once per prime, by
    square-and-multiply over all residues; products stay below p^2 < 2^63."""
    out = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    table = out.astype(np.int32)
    table.flags.writeable = False
    return table


def _batch_rank_deficient_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of matrices with det == 0 (mod p), by batched Gaussian
    elimination over F_p.  A matrix leaves the batch at the first column
    with no pivot.  Only the pivot column and row are reduced mod p; the
    trailing block takes one product below p^2 per step unreduced, so its
    entries stay below n*p^2 + 1, which is below 2^63 for the screen primes
    (p < 2^16) at any n < 2^31."""
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
        factors = col[:, 1:] * _inverse_table(p)[col[:, 0]][:, None] % p
        A[:, k + 1:, k + 1:] -= factors[:, :, None] * (A[:, k, None, k + 1:] % p)
    return singular


def _halved_minors(mats: np.ndarray) -> np.ndarray:
    """(T, n-1, n-1) halved minors M' of a (T, n, n) batch of sign matrices M:
    each row times its first entry (column 0 becomes all ones), row 0
    subtracted from the others (their entries become 0 or +-2, column 0 all
    0), halved, and row 0 and column 0 dropped.  So det M = s 2^(n-1) det M',
    s = +-1 the product of M's first column, and M' has entries 0 and +-1."""
    signed = mats[:, :, 1:] * mats[:, :, :1]
    return (signed[:, 1:] - signed[:, :1]) // 2


def _singular(mats: np.ndarray) -> np.ndarray:
    """Mask of the singular matrices in a (T, n, n) batch of sign matrices,
    decided on their halved minors M'.  The screen primes run in order, the
    first on every minor and each later one on the minors still flagged,
    until their product passes the halved Hadamard bound |det M'| <= n^(n/2)
    / 2^(n-1) (1, 1, 2, 2 and 5 primes at n = 10, 15, 16, 20 and 40).  Each
    prime reached builds its 4p-byte inverse table once per process: 0.26 MB
    near 2^16, 1.2 MB for five at n = 40."""
    n = mats.shape[1]
    hadamard_sq = n**n  # (n^(n/2))^2; a modulus m decides once m^2 4^(n-1) > it
    minors = _halved_minors(mats)
    singular = _batch_rank_deficient_modp(minors, _SCREEN_PRIMES[0])
    modulus = _SCREEN_PRIMES[0]
    for p in _SCREEN_PRIMES[1:]:
        flagged = np.flatnonzero(singular)
        if modulus**2 << 2 * (n - 1) > hadamard_sq or not flagged.size:
            break
        singular[flagged] = _batch_rank_deficient_modp(minors[flagged], p)
        modulus *= p
    return singular


def singularity_probability(
    spec: EnsembleSpec,
    mode: str = "monte_carlo",
    trials: int = 10**5,
    seed: int = 0,
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
        # matrix i of the enumeration: bit k of i is free entry k (row-major;
        # the upper triangle when symmetric), set meaning +1; each is decided
        # by its halved minor's determinant
        at = np.arange(n * n).reshape(n, n)
        at = at[np.triu_indices(n)] if spec.kind == "bernoulli_symmetric" else at.ravel()
        total, count = 2**free, 0
        for lo, hi in _batches(total, n * n):
            bits = np.zeros((hi - lo, n * n), np.int8)
            bits[:, at] = np.arange(lo, hi)[:, None] >> np.arange(free) & 1
            for M in _halved_minors(_sign_matrices(spec, bits)).tolist():
                count += bareiss_determinant(M) == 0
        return McReport.from_counts(count, total, seed, "exact", Fraction(count, total))
    if mode != "monte_carlo":
        raise ValidationError("mode must be 'exact' or 'monte_carlo'")
    _check_mc(trials, seed)
    successes = 0
    for lo, hi in _batches(trials, n * n):
        mats = _sign_matrices(spec, trial_bits(seed, lo, hi, n * n))
        successes += int(np.count_nonzero(_singular(mats)))
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
) -> McReport:
    """Failure frequency of k-universality for d random sign n-vectors:
    a trial fails when some k coordinates and sign pattern are realized by
    none of the d vectors.  Decided exactly per trial by exhaustive pattern
    check."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    if d < 1 or n < 1:
        raise ValidationError("d and n must be >= 1")
    if k > 0 and math.comb(n, k) * 2**k > UNIVERSALITY_PATTERN_BUDGET:
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


@dataclass(frozen=True)
class LsvSamples:
    values: tuple[float, ...]  # sorted sqrt(n) * sigma_min samples
    retries: int  # always 0; kept in the report's schema

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


def _gaussian_matrices(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """(hi - lo, n, n) array whose row t is exactly
    `substream(seed, lo + t).standard_normal((n, n))`, from one generator
    re-pointed to counter block [0, 0, 0, lo + t] before each trial: the
    state a fresh substream starts from, without building a bit generator
    per trial."""
    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    state = bits.state  # counter [0, 0, 0, 0] and an empty output buffer
    out = np.empty((hi - lo, n, n))
    for i, t in enumerate(range(lo, hi)):
        state["state"]["counter"][3] = t
        bits.state = state
        rng.standard_normal(out=out[i])
    return out


def least_singular_value_mc(
    spec: EnsembleSpec,
    trials: int,
    seed: int = 0,
) -> LsvSamples:
    """Sorted sample of sqrt(n) * sigma_n over seeded trials, sigma_n from
    one batched SVD per batch of trials.  A singular sign matrix is reported
    as exactly 0.0."""
    # bounds the O(n^3) SVD of each trial: MAX_TRIAL_DRAWS alone admits n = 1448
    if spec.n > 400:
        raise BudgetError("least_singular_value_mc limited to n <= 400")
    _check_mc(trials, seed, least=0)
    if trials > LSV_TRIAL_BUDGET:
        raise BudgetError(f"{trials} trials exceed the lsv budget of {LSV_TRIAL_BUDGET}")
    n = spec.n
    # LAPACK's SVD is backward stable (LAPACK Users' Guide, sec. 4.9): its
    # singular values are exact for M + E with ||E||_2 <= p(n) u ||M||_2,
    # u = 2^-53, so by Weyl's inequality each moves by at most ||E||_2.  A
    # sign matrix has ||M||_2 <= ||M||_F = n, so a singular one reports
    # sigma <= p(n) n u instead of 0.  Draws below n^3 2^-44 = n^3 2^9 u
    # (p(n) up to 2^9 n^2) are decided by the exact screen; others keep
    # their float sigma, so the bound only sets the matrices screened.
    exact_below = n**3 * 2.0**-44
    vals = []
    for lo, hi in _batches(trials, n * n):
        if spec.kind == "gaussian_iid":
            S, M = None, _gaussian_matrices(seed, lo, hi, n)
        else:
            S = _sign_matrices(spec, trial_bits(seed, lo, hi, n * n))
            M = S.astype(np.float64)
        sigma = np.linalg.svd(M, compute_uv=False)[:, -1]
        near = np.flatnonzero(sigma < exact_below)
        if S is not None and near.size:
            sigma[near[_singular(S[near])]] = 0.0
        vals += (math.sqrt(n) * sigma).tolist()
    vals.sort()
    return LsvSamples(tuple(vals), 0)


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
    # bounds the batched Euclid's degree: MAX_TRIAL_DRAWS alone admits n = 10^6
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
