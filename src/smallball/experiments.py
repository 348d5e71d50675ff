"""Monte Carlo and exact experiments: Bernoulli matrix singularity,
k-universality, least singular values against the Gaussian limit law, and
common roots of random sign polynomials.

Reproducibility: trial i draws from a Philox substream keyed by
(master_seed) with the counter block set to i, so results are identical for
any partitioning of the trial range across workers.

Singularity decisions are exact integer arithmetic end to end: a batched
modular elimination screens out matrices whose determinant is provably
nonzero (det != 0 mod p), and only the flagged remainder is confirmed by
fraction-free integer elimination.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import bareiss_determinant, poly_gcd_degree_modp, poly_gcd_int
from .types import BudgetError, ValidationError

EXACT_ENUM_BUDGET_LOG2 = 26
_SCREEN_PRIMES = (46337, 65521)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator: Philox keyed by the master seed
    with a disjoint counter block per trial index."""
    bg = np.random.Philox(key=master_seed & (2**64 - 1),
                          counter=[0, 0, 0, index])
    return np.random.Generator(bg)


@dataclass(frozen=True)
class McReport:
    estimate: float
    trials: int
    successes: int
    std_error: float
    master_seed: int
    wall_clock: float
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
    def from_counts(successes: int, trials: int, seed: int, wall: float,
                    mode: str = "monte_carlo",
                    exact: Fraction | None = None) -> "McReport":
        est = successes / trials if trials else 0.0
        se = 0.0 if mode == "exact" or not trials else \
            math.sqrt(est * (1 - est) / trials)
        return McReport(est, trials, successes, se, seed, wall, mode, exact)


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


def _sample_sign_matrices(spec: EnsembleSpec, rng, count: int) -> np.ndarray:
    n = spec.n
    if spec.kind == "bernoulli_iid":
        return rng.integers(0, 2, size=(count, n, n), dtype=np.int8) * 2 - 1
    if spec.kind == "bernoulli_symmetric":
        m = rng.integers(0, 2, size=(count, n, n), dtype=np.int8) * 2 - 1
        upper = np.triu(m)
        return upper + np.triu(m, 1).transpose(0, 2, 1)
    raise ValidationError("sign sampling needs a Bernoulli ensemble")


def _batch_rank_deficient_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of matrices with det == 0 (mod p), by batched Gaussian
    elimination over F_p.  int64 products stay below 2^63 since p < 2^31."""
    T, n, _ = mats.shape
    A = mats.astype(np.int64) % p
    inv_table = np.zeros(p, dtype=np.int64)
    inv_table[1:] = np.vectorize(lambda x: pow(int(x), p - 2, p),
                                 otypes=[np.int64])(np.arange(1, p))
    singular = np.zeros(T, dtype=bool)
    for k in range(n):
        col = A[:, :, k]
        nonzero = col != 0
        nonzero[:, :k] = False
        has_pivot = nonzero.any(axis=1)
        newly_singular = ~has_pivot & ~singular
        singular |= newly_singular
        active = has_pivot & ~singular
        if not active.any():
            continue
        pivot_rows = np.argmax(nonzero, axis=1)
        idx = np.nonzero(active)[0]
        pr = pivot_rows[idx]
        # swap pivot row into position k
        tmp = A[idx, pr, :].copy()
        A[idx, pr, :] = A[idx, k, :]
        A[idx, k, :] = tmp
        pivots = A[idx, k, k]
        inv_p = inv_table[pivots]
        below = A[idx, k + 1:, k]  # (active, n-k-1)
        factors = (below * inv_p[:, None]) % p
        A[idx, k + 1:, k:] = (
            A[idx, k + 1:, k:] - factors[:, :, None] * A[idx, k, k:][:, None, :]
        ) % p
    return singular


def _is_singular_exact(mat: np.ndarray) -> bool:
    return bareiss_determinant(mat.tolist()) == 0


def singularity_probability(
    spec: EnsembleSpec,
    mode: str = "monte_carlo",
    trials: int = 10**5,
    seed: int = 0,
    batch: int = 4096,
) -> McReport:
    """P(random sign matrix is singular), exact by full enumeration or by
    seeded Monte Carlo with exact per-trial singularity decisions."""
    t0 = time.time()
    n = spec.n
    if mode == "exact":
        free = _free_entry_count(spec)
        if free > EXACT_ENUM_BUDGET_LOG2:
            raise BudgetError(
                f"exact mode needs 2^{free} enumerations, over the 2^"
                f"{EXACT_ENUM_BUDGET_LOG2} budget")
        total = 2**free
        count = 0
        for bits in range(total):
            M = _matrix_from_bits(spec, bits)
            if _is_singular_exact(M):
                count += 1
        return McReport.from_counts(count, total, seed, time.time() - t0,
                                    "exact", Fraction(count, total))
    if mode != "monte_carlo":
        raise ValidationError("mode must be 'exact' or 'monte_carlo'")
    successes = 0
    for lo in range(0, trials, batch):
        hi = min(lo + batch, trials)
        mats = np.stack([
            _sample_sign_matrices(spec, substream(seed, i), 1)[0]
            for i in range(lo, hi)
        ])
        mask = _batch_rank_deficient_modp(mats, _SCREEN_PRIMES[0])
        if mask.any():
            second = _batch_rank_deficient_modp(mats[mask], _SCREEN_PRIMES[1])
            cands = np.nonzero(mask)[0][second]
            for ci in cands:
                if _is_singular_exact(mats[ci]):
                    successes += 1
    return McReport.from_counts(successes, trials, seed, time.time() - t0)


def _matrix_from_bits(spec: EnsembleSpec, bits: int) -> np.ndarray:
    n = spec.n
    if spec.kind == "bernoulli_iid":
        vals = [(1 if (bits >> k) & 1 else -1) for k in range(n * n)]
        return np.array(vals, dtype=np.int64).reshape(n, n)
    M = np.zeros((n, n), dtype=np.int64)
    k = 0
    for i in range(n):
        for j in range(i, n):
            v = 1 if (bits >> k) & 1 else -1
            M[i, j] = v
            M[j, i] = v
            k += 1
    return M


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
    from itertools import combinations

    if k < 0:
        raise ValidationError("k must be >= 0")
    if d < 1 or n < 1:
        raise ValidationError("d and n must be >= 1")
    if k > 0 and math.comb(n, k) * 2**k > per_trial_budget:
        raise BudgetError("per-trial pattern check over budget")
    t0 = time.time()
    failures = 0
    index_sets = list(combinations(range(n), k)) if k else []
    full = (1 << (2**k)) - 1 if k else 0
    for t in range(trials):
        rng = substream(seed, t)
        V = rng.integers(0, 2, size=(d, n), dtype=np.int8)
        if k == 0:
            continue
        ok = True
        for idx in index_sets:
            cols = V[:, idx]
            pats = np.zeros(d, dtype=np.int64)
            for b in range(k):
                pats |= cols[:, b].astype(np.int64) << b
            seen = np.bitwise_or.reduce(1 << pats)
            if seen != full:
                ok = False
                break
        if not ok:
            failures += 1
    return McReport.from_counts(failures, trials, seed, time.time() - t0)


def k1_universality_failure_exact(d: int, n: int) -> Fraction:
    """Exact failure probability for k=1: some coordinate constant across
    all d vectors; coordinates independent."""
    per = Fraction(2, 2**d)
    return 1 - (1 - per) ** n


def _sigma_min_qr_inverse_iteration(mat: np.ndarray, tol: float = 1e-10,
                                    max_iter: int = 200):
    """Smallest singular value: orthogonal (QR) reduction, then inverse
    iteration on the normal-equations operator R^T R via two triangular
    solves per step; SVD fallback on non-convergence.
    Returns (sigma, converged)."""
    from scipy.linalg import solve_triangular

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
        nz = np.linalg.norm(z)
        x = z / nz
        sigma = np.linalg.norm(R @ x)
        if abs(sigma - prev) <= tol * max(sigma, 1e-300):
            return float(sigma), True
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
    """Sorted sample of sqrt(n) * sigma_n over seeded trials."""
    if spec.n > 400:
        raise BudgetError("least_singular_value_mc limited to n <= 400")
    vals = []
    retries = 0
    scale = math.sqrt(spec.n)
    for t in range(trials):
        rng = substream(seed, t)
        if spec.kind == "gaussian_iid":
            M = rng.standard_normal((spec.n, spec.n))
        else:
            M = _sample_sign_matrices(spec, rng, 1)[0].astype(np.float64)
        sigma, converged = _sigma_min_qr_inverse_iteration(M, tol)
        if not converged:
            retries += 1
            sigma, converged = _sigma_min_qr_inverse_iteration(M, tol * 10)
        vals.append(scale * sigma)
    vals.sort()
    return LsvSamples(tuple(vals), retries, spec, seed)


def edelman_cdf(t: float) -> float:
    """Limit law of sqrt(n) * sigma_n for Gaussian matrices:
    1 - exp(-t^2/2 - t), the closed form of the density integral; its series
    is t - t^3/3 + O(t^4)."""
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


def _has_common_root_exact(c1: list[int], c2: list[int]) -> bool:
    g = poly_gcd_int(c1[:], c2[:])
    return len(g) - 1 >= 1


def common_root_probability(
    n: int,
    trials: int,
    seed: int = 0,
) -> tuple[McReport, Fraction]:
    """Probability that two independent random +-1 polynomials of degree n
    share a complex root, decided exactly per trial via integer polynomial
    gcd (deg gcd >= 1).  Also returns the exact value-at-1 channel.

    Per trial a screen certifies most coprime pairs cheaply: evaluation at
    x = +-1 detects the dominant shared-root channels, and gcd degree 0
    modulo a prime certifies coprimality; only unresolved pairs reach the
    exact integer gcd.
    """
    if n > 60:
        raise BudgetError("common_root_probability limited to degree <= 60")
    t0 = time.time()
    successes = 0
    p_screen = _SCREEN_PRIMES[0]
    for t in range(trials):
        rng = substream(seed, t)
        flat = rng.integers(0, 2, size=2 * (n + 1), dtype=np.int8) * 2 - 1
        c1 = flat[: n + 1].astype(int).tolist()
        c2 = flat[n + 1:].astype(int).tolist()
        s1p, s2p = sum(c1), sum(c2)
        s1m = sum(c * (-1) ** i for i, c in enumerate(c1))
        s2m = sum(c * (-1) ** i for i, c in enumerate(c2))
        if (s1p == 0 and s2p == 0) or (s1m == 0 and s2m == 0):
            successes += 1
            continue
        if poly_gcd_degree_modp(c1, c2, p_screen) == 0:
            continue
        if _has_common_root_exact(c1, c2):
            successes += 1
    report = McReport.from_counts(successes, trials, seed, time.time() - t0)
    return report, exact_common_value_at_one(n)


def mc_agreement_sigma(est: float, exact: float, trials: int) -> float:
    """|est - exact| in units of the exact-probability standard error."""
    se = math.sqrt(max(exact * (1 - exact), 1e-300) / trials)
    return abs(est - exact) / se
