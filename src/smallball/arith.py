"""Exact integer linear algebra and polynomial arithmetic helpers."""
from __future__ import annotations

import math

import numpy as np


def bareiss_determinant(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination;
    the empty (0 x 0) matrix has determinant 1."""
    A = [list(map(int, row)) for row in matrix]
    n = len(A)
    if set(map(len, A)) - {n}:
        raise ValueError("matrix must be square")
    if not n:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = A[k][k]
        for i in range(k + 1, n):
            row_i = A[i]
            row_k = A[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * A[n - 1][n - 1]


def poly_trim(p: list[int]) -> list[int]:
    """Drop leading zeros; coefficients are low-to-high degree."""
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    return g


def poly_primitive(p: list[int]) -> list[int]:
    c = poly_content(p)
    if c <= 1:
        return p[:]
    return [x // c for x in p]


def poly_pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g over Z (coefficients low-to-high)."""
    f = f[:]
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        shift = df - dg
        lead = f[-1]
        f = [lg * c for c in f]
        for i in range(dg + 1):
            f[shift + i] -= lead * g[i]
        poly_trim(f)
    return f


def poly_gcd_int(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials via a primitive pseudo-
    remainder sequence.  Returns the primitive gcd with positive leading
    coefficient (low-to-high coefficients)."""
    f = poly_primitive(poly_trim(f[:]))
    g = poly_primitive(poly_trim(g[:]))
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = poly_pseudo_rem(f, g)
        f, g = g, poly_primitive(r)
    if f[-1] < 0:
        f = [-c for c in f]
    return f


def poly_gcd_degree_modp(f: list[int], g: list[int], p: int) -> int:
    """Degree of gcd(f mod p, g mod p); >= deg gcd_Z(f, g) always, so a
    result of 0 certifies coprimality over Q.  Returns -1 when both vanish
    mod p.  The scalar reference for `poly_gcd_degree_modp_batch`."""
    fm = [c % p for c in f]
    gm = [c % p for c in g]
    poly_trim(fm)
    poly_trim(gm)
    if not fm and not gm:
        return -1
    while gm:
        inv = pow(gm[-1], p - 2, p)
        dg = len(gm) - 1
        while len(fm) - 1 >= dg and fm:
            shift = len(fm) - 1 - dg
            factor = fm[-1] * inv % p
            for i in range(dg + 1):
                fm[shift + i] = (fm[shift + i] - factor * gm[i]) % p
            poly_trim(fm)
        fm, gm = gm, fm
    return len(fm) - 1


def poly_gcd_degree_modp_batch(F, G, p: int) -> np.ndarray:
    """`poly_gcd_degree_modp` for every row pair of two (T, W) integer
    coefficient arrays (low-to-high), by one batched Euclid over F_p.

    Rows are held leading coefficient first.  Each round, a pair with
    deg f < deg g swaps them; a pair with g = 0 is then done, with answer
    deg f; every other pair takes one step f <- lc(g)*f - lc(f)*x^s*g with
    s = deg f - deg g, which in that layout is the same columnwise for any
    s.  The step clears lc(f) and keeps gcd(f, g), since lc(g) is a unit
    mod p.  Products stay below p^2, so int32 suffices for p <= 46340."""
    dtype = np.int32 if (p - 1) ** 2 < 2**31 else np.int64
    F = np.asarray(F, dtype=np.int64) % p
    G = np.asarray(G, dtype=np.int64) % p
    T, W = F.shape

    def lead_first(A):
        nonzero = A != 0
        d = np.where(nonzero.any(axis=1), W - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)
        idx = np.arange(W) + (W - 1 - d)[:, None]
        out = np.take_along_axis(A[:, ::-1], np.minimum(idx, W - 1), axis=1)
        out[idx >= W] = 0
        return out.astype(dtype), d

    (F, df), (G, dg) = lead_first(F), lead_first(G)
    out = np.empty(T, dtype=np.int64)
    live = np.arange(T)
    while live.size:
        swap = df < dg
        if swap.any():
            F[swap], G[swap] = G[swap], F[swap]
            df[swap], dg[swap] = dg[swap], df[swap]
        done = dg < 0
        if done.any():
            out[live[done]] = df[done]
            keep = ~done
            live, F, G, df, dg = live[keep], F[keep], G[keep], df[keep], dg[keep]
            if not live.size:
                break
        width = df.max() + 1  # no live row has a coefficient beyond it
        G = G[:, :width]
        step = (F[:, :width] * G[:, :1] - F[:, :1] * G) % p
        F = np.zeros_like(step)
        F[:, :-1] = step[:, 1:]
        df = df - 1
        while (low := (df >= 0) & (F[:, 0] == 0)).any():
            F[low, :-1] = F[low, 1:]
            F[low, -1] = 0
            df -= low
    return out
