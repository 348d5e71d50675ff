"""Quadratic and multilinear concentration: exact rho_q built from the sign
vectors of the two index halves, the four-copy decoupling inequality,
structured quadratic generators, disjoint-term multilinear bounds, and parity
correlation.  The quadratic budgets count sign vectors: at most 2^24 for
rho_q and 2^16 for decoupling.

Sign conventions differ per operation: quadratic forms take a
SignDistribution (+-1 signs by default), while the multilinear/Boolean
operations always use uniform {0,1} signs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import bernoulli_int_counts
from .gaps import Gap, gap_lattice_points
from .types import (
    BudgetError,
    SignDistribution,
    ValidationError,
    common_denominator,
    lattice_ints,
)

QUADRATIC_ENUM_LIMIT = 24
MULTILINEAR_C = 2.0  # calibrated once over the corpus for the r^-b_k bound


@dataclass(frozen=True)
class SymmetricCoefficientMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if not n:
            raise ValidationError("matrix must be nonempty")
        for row in self.entries:
            if len(row) != n:
                raise ValidationError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValidationError("matrix must be exactly symmetric")

    @staticmethod
    def of(rows) -> "SymmetricCoefficientMatrix":
        return SymmetricCoefficientMatrix(tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def common_denominator(self) -> int:
        return common_denominator(x for row in self.entries for x in row)


def _sign_vectors(support: tuple[int, ...], n: int) -> np.ndarray:
    """The (len(support))^n x n assignment matrix, index 0 varying fastest;
    one empty row for n = 0."""
    k = len(support)
    idx = np.arange(k**n)
    sup = np.array(support, dtype=np.int64)
    return np.array([sup[idx // k**j % k] for j in range(n)],
                    dtype=np.int64).reshape(n, k**n).T


def _xi_int_support(xi: SignDistribution) -> tuple[int, ...]:
    vals = []
    for v, p in xi.support:
        if v.denominator != 1 or p != Fraction(1, len(xi.support)):
            raise ValidationError(
                "enumeration path needs integer-valued uniform sign laws")
        vals.append(int(v))
    return tuple(vals)


def _int_form(M: SymmetricCoefficientMatrix, support: tuple[int, ...]):
    """(den * M as an integer array, den).  Every value of the scaled form
    on the support, and every partial sum of it, is at most
    sum |den M_ij| * max|s|^2 in size: below 2^63 the array is int64, above
    it holds exact Python ints."""
    den = M.common_denominator()
    rows = [lattice_ints(row, den) for row in M.entries]
    top = max(abs(s) for s in support)
    bound = sum(abs(v) for row in rows for v in row) * top * top
    return np.array(rows, dtype=np.int64 if bound < 2**63 else object), den


def _split_form(Mi: np.ndarray, support: tuple[int, ...], u1, u2):
    """Q(y, z) = q(y) + q(z) + 2 y^T M_12 z over the index parts u1 | u2:
    (Y, q(Y), q(Z), W) with Y the sign table of u1 and W = 2 M_12 Z^T, so
    Q on the rows Y[r] against every z is q(Y)[r, None] + q(Z) + Y[r] @ W."""
    Y = _sign_vectors(support, len(u1))
    Z = _sign_vectors(support, len(u2))
    qy = np.einsum("si,ij,sj->s", Y, Mi[np.ix_(u1, u1)], Y)
    qz = np.einsum("si,ij,sj->s", Z, Mi[np.ix_(u2, u2)], Z)
    return Y, qy, qz, 2 * Mi[np.ix_(u1, u2)] @ Z.T


def quadratic_concentration(
    M: SymmetricCoefficientMatrix,
    xi: SignDistribution | None = None,
) -> tuple[Fraction, Fraction]:
    """rho_q(M) = sup_a P(sum_{i,j} a_ij xi_i xi_j = a) by full enumeration
    of sign vectors, built from the two index halves, with exact value
    bucketing; returns (rho_q, smallest maximizing value)."""
    xi = xi or SignDistribution.bernoulli_pm1()
    n = M.n
    if len(xi.support) ** n > 2**QUADRATIC_ENUM_LIMIT:
        raise BudgetError(f"{len(xi.support)}^{n} sign vectors exceed the "
                          f"2^{QUADRATIC_ENUM_LIMIT} enumeration budget")
    support = _xi_int_support(xi)
    Mi, den = _int_form(M, support)
    h = n - n // 2
    Y, qy, qz, W = _split_form(Mi, support, range(h), range(h, n))
    # values per block: 2^20 int64 values take 8 MB, but an object block of
    # Python ints peaks near 200 MB at that size, so it holds 2^16
    block = 1 << 20 if Mi.dtype == np.int64 else 1 << 16
    rows = block // len(qz)  # len(qz) = k^(n//2) <= 2^12
    buckets: dict[int, int] = {}
    for lo in range(0, len(Y), rows):
        vals = qy[lo:lo + rows, None] + qz + Y[lo:lo + rows] @ W
        uniq, counts = np.unique(vals, return_counts=True)
        for u, c in zip(uniq.tolist(), counts.tolist()):
            buckets[u] = buckets.get(u, 0) + c
    best = max(buckets.values())
    arg = min(u for u, c in buckets.items() if c == best)
    return Fraction(best, len(support) ** n), Fraction(arg, den)


def decoupling_check(
    M: SymmetricCoefficientMatrix,
    u1: tuple[int, ...],
    x,
    xi: SignDistribution | None = None,
) -> tuple[Fraction, Fraction, bool]:
    """Exact check of P(Q(Y,Z)=x)^4 <= P(Q(Y,Z)=Q(Y,Z')=Q(Y',Z)=Q(Y',Z')=x)
    for the partition U1 | U2 of the indices (at most 2^16 sign vectors).

    Returns (lhs, joint, lhs^4 <= joint).  The joint probability is computed
    as E_{Y,Y'} [count_Z(Y,Y')^2] using that Z, Z' are iid.
    """
    xi = xi or SignDistribution.bernoulli_pm1()
    n = M.n
    if len(xi.support) ** n > 2**16:
        raise BudgetError(f"{len(xi.support)}^{n} sign vectors exceed the "
                          "decoupling budget of 2^16")
    u1 = tuple(sorted(u1))
    if not u1 or len(u1) == n or any(i < 0 or i >= n for i in u1):
        raise ValidationError("partition must be a proper nonempty subset")
    u2 = tuple(i for i in range(n) if i not in u1)
    support = _xi_int_support(xi)
    Mi, den = _int_form(M, support)
    x_scaled = Fraction(x) * den
    if x_scaled.denominator != 1:
        return Fraction(0), Fraction(0), True  # x not representable: empty event
    Y, qy, qz, W = _split_form(Mi, support, u1, u2)
    B = (qy[:, None] + qz + Y @ W == int(x_scaled)).astype(np.int64)
    lhs = Fraction(int(B.sum()), B.size)
    # sum_{y,y'} count_Z(y,y')^2 = |B B^T|_F^2 = |B^T B|_F^2, the Gram matrix
    # of the smaller side; B has <= 2^16 entries, so every sum is below 2^32
    side = B if B.shape[0] <= B.shape[1] else B.T
    gram = side @ side.T
    joint = Fraction(int((gram * gram).sum()), B.size**2)
    return lhs, joint, lhs**4 <= joint


def structured_quadratic_generator(kind: str, n: int, seed: int,
                                   k: list[int] | None = None, gap: Gap | None = None):
    """Construct a structured symmetric matrix with provably large rho_q.

    kinds: 'gap' (entries sampled from a GAP Q; the form lands in the dilate
    n^2 Q so rho_q >= 1/|n^2 Q|), 'lowrank' (a_ij = k_i b_j + k_j b_i; the
    form factorizes so rho_q >= P(sum k_i xi_i = 0)), 'mixed' (sum of both;
    floor = P(sum k_i xi_i = 0) / |n^2 Q|).

    Returns (matrix, rho_q, predicted_floor).
    """
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    if not 1 <= n <= 20:
        raise ValidationError("structured generators need 1 <= n <= 20")
    if kind not in ("gap", "lowrank", "mixed"):
        raise ValidationError(f"unknown kind {kind!r}")
    if kind != "gap":
        k = [int(v) for v in (rng.integers(-3, 4, size=n) if k is None else k)]
        if len(k) != n:
            raise ValidationError(f"k needs n = {n} entries, not {len(k)}")
    # exact ints: the GAP points and the k_i may lie beyond int64
    entries, floor = np.zeros((n, n), dtype=object), Fraction(1)
    if kind != "lowrank":
        Q = gap or Gap.of([1], [3])
        L, pts = gap_lattice_points(Q)
        if len(pts) != Q.volume:
            raise ValidationError("generator GAP must be proper")
        pool = sorted(pts)
        if any(v % L for v in pool):
            raise ValidationError("gap generator needs integer GAP points")
        pick = np.array([v // L for v in pool], dtype=object)[rng.integers(0, len(pool), (n, n))]
        entries += np.triu(pick) + np.triu(pick, 1).T
        floor /= len(gap_lattice_points(Q.dilate(n * n))[1])
    if kind != "gap":
        kv = np.array(k, dtype=object)
        bv = np.array([int(v) for v in rng.integers(-5, 6, size=n)], dtype=object)
        entries += np.outer(kv, bv) + np.outer(bv, kv)
        floor *= Fraction(bernoulli_int_counts(k).get(0, 0), 2**n)
    M = SymmetricCoefficientMatrix.of(entries.tolist())
    rho_q, _ = quadratic_concentration(M)
    return M, rho_q, floor


@dataclass(frozen=True)
class MultilinearPolynomial:
    """sum_S c_S prod_{i in S} xi_i with index sets S of size <= k."""

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    n: int
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("n must be >= 0")
        for S, c in self.terms:
            if c == 0:
                raise ValidationError("zero coefficients must not be stored")
            if list(S) != sorted(set(S)):
                raise ValidationError("index sets must be strictly increasing")
            if S and (S[0] < 0 or S[-1] >= self.n):
                raise ValidationError("index out of range")
            if len(S) > self.k:
                raise ValidationError("term degree exceeds declared k")

    @staticmethod
    def of(term_map: dict, n: int) -> "MultilinearPolynomial":
        terms = []
        k = 1
        for S, c in term_map.items():
            c = Fraction(c)
            if c == 0:
                continue
            S = tuple(sorted(S))
            k = max(k, len(S))
            terms.append((S, c))
        terms.sort()
        return MultilinearPolynomial(tuple(terms), n, k)

    @staticmethod
    def parse(text: str, n: int) -> "MultilinearPolynomial":
        """Term-list format: one 'coef: i1 i2 ... ik' per line (empty index
        list for the constant term)."""
        from .types import parse_rational

        term_map: dict[tuple[int, ...], Fraction] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            coef = parse_rational(head)
            try:
                idx = tuple(sorted(int(t) for t in tail.split()))
            except ValueError as exc:
                raise ValidationError(f"bad term indices in {line!r}") from exc
            term_map[idx] = term_map.get(idx, Fraction(0)) + coef
        return MultilinearPolynomial.of(term_map, n)


def _eval_all_boolean(P: MultilinearPolynomial) -> tuple[np.ndarray, int]:
    """(den * P over all 2^n boolean assignments, exact in int64; den), with
    den the coefficients' common denominator: each scaled coefficient goes to
    its index mask, and n subset-sum passes spread it over the supersets, so
    the work is O(terms + n 2^n) however many terms there are."""
    den = common_denominator(c for _, c in P.terms)
    coefs = lattice_ints((c for _, c in P.terms), den)
    n = P.n
    if n > 22:
        raise BudgetError("multilinear enumeration limited to n <= 22")
    if sum(map(abs, coefs)) >= 2**62:
        raise BudgetError("coefficients too large for exact int64 evaluation")
    vals = np.zeros(2**n, dtype=np.int64)
    for (S, _), c in zip(P.terms, coefs):
        vals[sum(1 << i for i in S)] += c
    # subset-sum (zeta) transform: pass i adds each mask without bit i to the
    # mask with it, so vals[m] ends as the sum over the terms S inside m
    for i in range(n):
        v = vals.reshape(-1, 2, 2**i)
        v[:, 1] += v[:, 0]
    return vals, den


def greedy_disjoint_terms(P: MultilinearPolynomial) -> int:
    """Size of a greedily-built maximal family of pairwise disjoint degree-k
    index sets with nonzero coefficients."""
    used: set[int] = set()
    r = 0
    for S, _ in P.terms:
        if len(S) == P.k and not used.intersection(S):
            used.update(S)
            r += 1
    return r


def multilinear_concentration(
    P: MultilinearPolynomial,
    x,
):
    """Exact P(P(xi) = x) over uniform {0,1}^n, the greedy disjoint
    degree-k term count r, and the bound MULTILINEAR_C * r^(-b_k) with
    b_k = 1/(2k 2^k)."""
    vals, den = _eval_all_boolean(P)
    x_scaled = Fraction(x) * den
    if x_scaled.denominator != 1:
        prob = Fraction(0)
    else:
        prob = Fraction(int(np.count_nonzero(vals == int(x_scaled))), 2**P.n)
    r = greedy_disjoint_terms(P)
    b_k = 1.0 / (2 * P.k * 2**P.k)
    bound = MULTILINEAR_C * r ** (-b_k) if r > 0 else float("inf")
    return prob, r, bound


def parity_correlation(P: MultilinearPolynomial) -> Fraction:
    """Cor(P, parity) = P(P(xi) = parity(xi)) - 1/2 over uniform {0,1}^n,
    exact; outputs outside {0,1} count as disagreement."""
    n = P.n
    vals, den = _eval_all_boolean(P)
    par = np.zeros(1, dtype=np.int64)
    for _ in range(n):  # the masks with the next bit set flip the parity
        par = np.concatenate([par, par ^ 1])
    agree = int(np.count_nonzero(vals == par * den))
    return Fraction(agree, 2**n) - Fraction(1, 2)
