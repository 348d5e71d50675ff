"""Output checks against references written here, independent of smallball.

Exact laws come from brute-force sign enumeration when the number of sign
vectors is small, and otherwise from an integer polynomial product on the
common-denominator lattice.  Bounds are checked for domination of their exact
value; Monte Carlo estimates are checked within 5 sigma of an exact value
where one exists, and for range otherwise.  A check returns a list of error
strings; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np

ESSEEN_C1 = 1.0 / (4.0 * math.sin(0.5) ** 2)
Z_TOL = 5.0  # sigmas allowed for Monte Carlo estimates

# ------------------------------------------------------------ references


def xi_weights(text: str):
    """Integer sign law: ([(value, weight)], total weight)."""
    if text == "pm1":
        return [(-1, 1), (1, 1)], 2
    if text == "bool":
        return [(0, 1), (1, 1)], 2
    mu = Fraction(text.split(":", 1)[1])
    if mu == 1:
        return [(-1, 1), (1, 1)], 2
    a, b = mu.numerator, mu.denominator
    return [(-1, a), (0, 2 * (b - a)), (1, a)], 2 * b


def law_1d_counts(entries, xi: str):
    """Exact law of sum a_i xi_i on the lattice (1/D) Z, as integer counts:
    ({D * value: count}, D, total) with probability count / total."""
    entries = [Fraction(e) for e in entries]
    D = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * D) for e in entries]
    pairs, weight = xi_weights(xi)
    n = len(ints)
    if len(pairs) ** n <= 1 << 14:
        sums = [(0, 1)]
        for a in ints:
            sums = [(s + v * a, w * wv) for s, w in sums for v, wv in pairs]
        counts = Counter()
        for s, w in sums:
            counts[s] += w
    else:
        lo = sum(min(v * a for v, _ in pairs) for a in ints)
        poly = [1]
        for a in ints:
            shifts = [(v * a - min(u * a for u, _ in pairs), w) for v, w in pairs]
            nxt = [0] * (len(poly) + max(s for s, _ in shifts))
            for i, c in enumerate(poly):
                if c:
                    for s, w in shifts:
                        nxt[i + s] += c * w
            poly = nxt
        counts = {lo + i: c for i, c in enumerate(poly) if c}
    return counts, D, weight ** n


def law_1d(entries, xi: str) -> dict:
    """Exact law as {Fraction value: Fraction probability}."""
    counts, D, total = law_1d_counts(entries, xi)
    return {Fraction(s, D): Fraction(c, total) for s, c in counts.items()}


def law_2d(pairs, xi: str) -> dict:
    sup, total = xi_weights(xi)
    out = Counter()
    for combo in itertools.product(sup, repeat=len(pairs)):
        x = sum(Fraction(a) * v for (a, _), (v, _) in zip(pairs, combo))
        y = sum(Fraction(b) * v for (_, b), (v, _) in zip(pairs, combo))
        out[(x, y)] += math.prod(w for _, w in combo)
    den = total ** len(pairs)
    return {k: Fraction(c, den) for k, c in out.items()}


def rho_of(law: dict):
    best = max(law.values())
    return best, min(v for v, p in law.items() if p == best)


def ball_1d(entries, xi: str, R: Fraction):
    """Max closed-window mass of width 2R (the optimum has its left edge on
    an atom), and a function giving the mass of [c - R, c + R]."""
    counts, D, total = law_1d_counts(entries, xi)
    vals = sorted(counts)
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + counts[v])

    def mass(lo: Fraction, hi: Fraction) -> Fraction:
        i = bisect_left(vals, math.ceil(lo * D))
        j = bisect_right(vals, math.floor(hi * D))
        return Fraction(prefix[j] - prefix[i], total)

    width = math.floor(2 * R * D)
    best = max(prefix[bisect_right(vals, v + width)] - prefix[i] for i, v in enumerate(vals))
    return Fraction(best, total), lambda c: mass(c - R, c + R)


def int_counts(ints) -> Counter:
    """Counts (out of 2^n) of sum +-a_i."""
    counts = Counter({0: 1})
    for a in ints:
        nxt = Counter()
        for v, c in counts.items():
            nxt[v + a] += c
            nxt[v - a] += c
        counts = nxt
    return counts


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def gap_points(gens, bounds) -> set:
    pts = {Fraction(0)}
    for g, M in zip(gens, bounds):
        pts = {p + m * Fraction(g) for p in pts for m in range(-M, M + 1)}
    return pts


def int_gap_size(gens, bounds) -> int:
    """Number of distinct points of an integer GAP."""
    pts = np.zeros(1, dtype=np.int64)
    for g, M in zip(gens, bounds):
        pts = np.unique(np.add.outer(pts, g * np.arange(-M, M + 1)).ravel())
    return int(pts.size)


@functools.cache
def singular_fraction(kind: str, n: int) -> Fraction:
    """P(det = 0) for n x n sign matrices, by enumeration with numpy dets
    (exact after rounding: |det| <= n^(n/2) is far below 2^52)."""
    if kind == "bernoulli_iid":
        free = n * n
    else:
        free = n * (n + 1) // 2
    bits = (np.arange(2 ** free)[:, None] >> np.arange(free)) & 1
    signs = (2 * bits - 1).astype(np.float64)
    if kind == "bernoulli_iid":
        mats = signs.reshape(-1, n, n)
    else:
        mats = np.zeros((2 ** free, n, n))
        iu = np.triu_indices(n)
        mats[:, iu[0], iu[1]] = signs
        mats[:, iu[1], iu[0]] = signs
    dets = np.rint(np.linalg.det(mats)).astype(np.int64)
    return Fraction(int(np.count_nonzero(dets == 0)), 2 ** free)



# --------------------------------------------------------------- checkers


def _F(text) -> Fraction:
    return Fraction(str(text))


def _expect(errors, cond, msg):
    if not cond:
        errors.append(msg)


def _close(a: float, b: float, rel=1e-9, abs_=1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _within_sigma(est: float, p: float, trials: int) -> bool:
    se = math.sqrt(max(p * (1 - p), 1e-300) / trials)
    return abs(est - p) <= Z_TOL * se + 1e-12


def check_rho(d, res, e):
    rho, arg = rho_of(law_1d(d["entries"], d["xi"]))
    _expect(e, _F(res["rho"]) == rho, f"rho {res['rho']} != {rho}")
    _expect(e, _F(res["argmax"]) == arg, f"argmax {res['argmax']} != {arg}")


def _check_window(entries, xi, R, p, center, e):
    best, mass_at = ball_1d(entries, xi, R)
    _expect(e, p == best, f"ball p {p} != {best}")
    got = mass_at(center)
    _expect(e, got == p, f"witness centre {center} covers {got}, not {p}")


def check_ball(d, res, e):
    _check_window(d["entries"], d["xi"], d["radius"], _F(res["p"]),
                  _F(res["witness_center"]), e)


def check_dist(d, res, e, text):
    if d["d"] == 2:
        want = law_2d(d["pairs"], d["xi"])
        got = {(_F(a["value"][0]), _F(a["value"][1])): _F(a["prob"]) for a in res["atoms"]}
    else:
        want = law_1d(d["entries"], d["xi"])
        if d["format"] == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            _expect(e, rows[0] == ["value", "numerator", "denominator"], "bad csv header")
            got = {_F(v): Fraction(int(a), int(b)) for v, a, b in rows[1:]}
        else:
            got = {_F(a["value"]): _F(a["prob"]) for a in res["atoms"]}
    _expect(e, got == want, f"law differs from reference on {len(set(got) ^ set(want))} values"
            if set(got) != set(want) else "law probabilities differ from reference")


def check_esseen(d, res, e):
    beta = d["beta"]
    exact, _ = ball_1d(d["entries"], d["xi"], beta)
    _expect(e, _F(res["exact"]) == exact, f"esseen exact {res['exact']} != {exact}")
    _expect(e, res["bound"] >= float(exact), f"esseen bound {res['bound']} < exact {exact}")
    _expect(e, res["quad_error"] >= 0, "negative quadrature error")
    _expect(e, _close(res["constant"], ESSEEN_C1), "wrong Esseen constant")
    if exact:
        _expect(e, _close(res["ratio"], res["bound"] / float(exact)), "wrong ratio")


def check_fp_bound(d, res, e):
    ints = d["entries"]
    floor = 2 ** len(ints) * (sum(map(abs, ints)) + 1)
    p = res["p"]
    _expect(e, p > floor and is_prime(p), f"p={p} is not a prime above {floor}")
    _expect(e, not any(is_prime(c) for c in range(floor + 1, p)), f"p={p} is not the next prime")
    rho, _ = rho_of(law_1d(ints, "pm1"))
    _expect(e, _F(res["exact"]) == rho, f"fp exact {res['exact']} != {rho}")
    _expect(e, res["bound"] >= float(rho), f"fp bound {res['bound']} < rho {rho}")


def check_levels(d, res, e):
    ints = d["entries"]
    floor = 2 ** len(ints) * (sum(map(abs, ints)) + 1)
    p = d["p"] if d["p"] else res["p"]
    _expect(e, res["p"] == p and is_prime(p), f"levels p={res['p']}")
    if not d["p"]:
        _expect(e, p > floor and not any(is_prime(c) for c in range(floor + 1, p)),
                f"auto p={p} is not the next prime above {floor}")
    strict = p > floor
    _expect(e, res["strict"] == strict, "wrong strict flag")
    t = np.arange(p, dtype=np.int64)
    resid = np.array([a % p for a in ints], dtype=np.int64)
    r = np.outer(resid, t) % p
    w = (np.minimum(r, p - r) ** 2).sum(axis=0)
    rho = rho_of(law_1d(ints, "pm1"))[0] if strict else None
    levels = res["levels"]
    _expect(e, [lv["m"] for lv in levels] == list(range(d["m_max"] + 1)), "wrong m range")
    for lv in levels:
        level = t[w <= lv["m"] * p * p]
        _expect(e, lv["level_size"] == level.size, f"|S_{lv['m']}| {lv['level_size']} != {level.size}")
        dual = 0
        for lo in range(0, p, 256):
            a = np.arange(lo, min(p, lo + 256), dtype=np.int64)
            blk = np.outer(a, level) % p
            s = (np.minimum(blk, p - blk) ** 2).sum(axis=1)
            dual += int(np.count_nonzero(200 * s <= level.size * p * p))
        _expect(e, lv["dual_size"] == dual, f"|S*_{lv['m']}| {lv['dual_size']} != {dual}")
        _expect(e, dual * level.size <= 8 * p, f"dual inequality fails at m={lv['m']}")
        want = None if rho is None else f"{rho.numerator}/{rho.denominator}"
        _expect(e, lv["rho_reference"] == want, f"rho_reference {lv['rho_reference']} != {want}")


def check_rl(d, res, e):
    ints, l = d["entries"], d["l"]
    lo = min(ints)
    base = Counter(a - lo for a in ints)  # shift to non-negative exponents
    poly = {0: 1}
    for _ in range(l):
        nxt = Counter()
        for s, c in poly.items():
            for a, m in base.items():
                nxt[s + a] += c * m
        poly = nxt
    want = sum(c * c for c in poly.values())
    _expect(e, res["r_l"] == want, f"R_l {res['r_l']} != {want}")


def _check_lcd_1d(vals, res, e):
    g = math.gcd(*vals)
    _expect(e, res["lcd"] == f"1/{g}", f"lcd {res['lcd']} != 1/{g}")
    _expect(e, res["witness_integers"] == [v // g for v in vals], "wrong witness integers")
    _expect(e, res["achieved_distance"] == 0.0, "lattice witness at nonzero distance")


def check_lcd(d, res, e):
    _check_lcd_1d(d["entries"], res, e)


def check_rv_bound(d, res, e):
    exact, _ = ball_1d(d["entries"], d["xi"], d["beta"])
    _expect(e, _F(res["exact"]) == exact, f"rv exact {res['exact']} != {exact}")
    _expect(e, res["bound"] >= float(exact), f"rv bound {res['bound']} < exact {exact}")
    b = Fraction(1, 2) if d["xi"] == "pm1" else Fraction(d["xi"].split(":")[1]) / 2
    _expect(e, _F(res["b"]) == b, f"b {res['b']} != {b}")
    want = 2.0 * float(d["beta"]) / (float(d["gamma"]) * math.sqrt(float(b))) \
        + 2.0 * math.exp(-2.0 * float(b) * float(d["alpha"]) ** 2)
    _expect(e, _close(res["bound"], want), f"rv bound {res['bound']} != formula {want}")
    _check_lcd_1d(d["entries"], res["lcd"], e)


def check_recurrence(d, res, e):
    t, beta, gamma, grid = d["t"], d["beta"], d["gamma"], d["grid"]
    h = 2.0 / grid
    theta = -1.0 + (np.arange(grid) + 0.5) * h
    d2 = np.zeros(grid)
    for a in d["entries"]:
        x = float(Fraction(a) * d["z"] / beta) * theta
        d2 += (x - np.round(x)) ** 2
    measure = np.count_nonzero(d2 <= float(t) ** 2) * h
    _expect(e, abs(res["measure_estimate"] - measure) <= 4 * h,
            f"measure {res['measure_estimate']} != {measure}")
    bound = 4.0 * float(t) * float(beta) / float(gamma)
    _expect(e, _close(res["lemma_bound"], bound), "wrong lemma bound")
    _expect(e, res["measure_estimate"] <= res["lemma_bound"], "measure exceeds lemma bound")


def check_stanley(d, rows, e):
    _expect(e, [r["n"] for r in rows] == d["ns"], "wrong n list")
    for r in rows:
        n = r["n"]
        m = (n - 1) // 2
        rho = Fraction(max(int_counts(range(-m, m + 1)).values()), 2 ** n)
        _expect(e, _F(r["rho"]) == rho, f"stanley rho({n}) {r['rho']} != {rho}")
        _expect(e, _close(r["scaled"], float(rho) * n ** 1.5), "wrong scaled value")


def check_census(d, rows, e):
    n, M = d["n"], d["M"]
    universe = [x for x in range(-M, M + 1) if x]
    rhos = [Fraction(max(int_counts(c).values()), 2 ** n)
            for c in itertools.combinations_with_replacement(universe, n)]
    grid = sorted(d["grid"], reverse=True)
    _expect(e, [_F(r["rho0"]) for r in rows] == grid, "wrong rho grid")
    for r, rho0 in zip(rows, grid):
        want = sum(1 for x in rhos if x >= rho0)
        _expect(e, r["count"] == want, f"census count at {rho0}: {r['count']} != {want}")


def _in_gap(v: int, gens, bounds) -> bool:
    if len(gens) == 1:
        g, M = gens[0], bounds[0]
        return (v == 0) if g == 0 else (v % g == 0 and abs(v // g) <= M)
    (g1, G), (M1, M2) = gens, bounds
    return any(_in_gap(v - m2 * G, [g1], [M1]) for m2 in range(-M2, M2 + 1))


def check_gap_fit(d, res, e):
    vals = d["entries"]
    n = len(vals)
    gens = [int(_F(g)) for g in res["generators"]]
    bounds = res["bounds"]
    vol = math.prod(2 * b + 1 for b in bounds)
    _expect(e, res["volume"] == vol and res["rank"] == len(gens), "wrong volume or rank")
    covered = sum(1 for v in vals if _in_gap(v, gens, bounds))
    _expect(e, res["covered"] == covered, f"covered {res['covered']} != {covered}")
    keep = n - math.floor(d["epsilon"] * n)
    _expect(e, covered >= keep, f"certificate covers {covered} < {keep}")
    _expect(e, _F(res["epsilon_achieved"]) == Fraction(n - covered, n), "wrong epsilon")
    if vol <= 10**5:
        _expect(e, len(gap_points(gens, bounds)) == vol, "certificate GAP is not proper")
    rho = Fraction(max(int_counts(vals).values()), 2 ** n)
    _expect(e, _F(res["rho"]) == rho, f"gap-fit rho {res['rho']} != {rho}")
    _expect(e, _close(res["quality"], float(rho) * vol * n ** (len(gens) / 2)), "wrong quality")


def check_gap_forward(d, res, e):
    pts = gap_points(d["gens"], d["bounds"])
    vals = [_F(v) for v in res["entries"]]
    _expect(e, len(vals) == d["n"] and all(v in pts for v in vals), "entries outside the GAP")
    rho, _ = rho_of(law_1d(vals, "pm1"))
    _expect(e, _F(res["rho"]) == rho, f"gap-forward rho {res['rho']} != {rho}")
    want = float(rho) * d["n"] ** (len(d["gens"]) / 2) * len(pts)
    _expect(e, _close(res["quality"], want), "wrong quality")


def _quad_values(M, xi):
    n = len(M)
    sup = [v for v, _ in xi_weights(xi)[0]]
    S = np.array(list(itertools.product(sup, repeat=n)), dtype=np.int64)
    return ((S @ np.array(M, dtype=np.int64)) * S).sum(axis=1)


def check_quad_rho(d, res, e):
    vals = _quad_values(d["M"], d["xi"])
    counts = Counter(vals.tolist())
    best = max(counts.values())
    arg = min(v for v, c in counts.items() if c == best)
    _expect(e, _F(res["rho_q"]) == Fraction(best, vals.size), f"rho_q {res['rho_q']} wrong")
    _expect(e, _F(res["argmax"]) == arg, f"quad argmax {res['argmax']} != {arg}")


def check_decouple(d, res, e):
    M, u1, x = d["M"], d["u1"], d["x"]
    n = len(M)
    u2 = [i for i in range(n) if i not in u1]
    Y = np.array(list(itertools.product([-1, 1], repeat=len(u1))), dtype=np.int64)
    Z = np.array(list(itertools.product([-1, 1], repeat=len(u2))), dtype=np.int64)
    full = np.zeros((len(Y), len(Z), n), dtype=np.int64)
    full[:, :, u1] = Y[:, None, :]
    full[:, :, u2] = Z[None, :, :]
    q = np.einsum("yzi,ij,yzj->yz", full, np.array(M, dtype=np.int64), full)
    B = (q == x).astype(np.int64)
    lhs = Fraction(int(B.sum()), B.size)
    pair = B @ B.T
    joint = Fraction(sum(int(c) ** 2 for c in pair.ravel()), len(Y) ** 2 * len(Z) ** 2)
    _expect(e, _F(res["lhs"]) == lhs, f"decouple lhs {res['lhs']} != {lhs}")
    _expect(e, _F(res["joint"]) == joint, f"decouple joint {res['joint']} != {joint}")
    _expect(e, res["holds"] is True and lhs ** 4 <= joint, "decoupling inequality fails")


def check_quad_gen(d, res, e):
    n, kind = d["n"], d["kind"]
    floor = Fraction(1)
    if kind in ("gap", "mixed"):
        gens, bounds = d["gap"] or ([1], [3])
        floor *= Fraction(1, int_gap_size(gens, [n * n * b for b in bounds]))
    if kind in ("lowrank", "mixed"):
        if d["k"] is None:
            floor = None  # k drawn inside the program: only domination is checkable
        else:
            floor *= Fraction(int_counts(d["k"]).get(0, 0), 2 ** n)
    got = _F(res["predicted_floor"])
    if floor is not None:
        _expect(e, got == floor, f"predicted floor {got} != {floor}")
    rho = _F(res["rho_q"])
    _expect(e, res["n"] == n and got <= rho <= 1, f"rho_q {rho} not in [floor {got}, 1]")


def _bool_values(terms, n):
    bits = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.int64)
    vals = np.zeros(len(bits), dtype=np.int64)
    for S, c in terms.items():
        vals += c * bits[:, list(S)].prod(axis=1)
    return bits, vals


def check_multi_rho(d, res, e):
    terms, n = d["terms"], d["n"]
    _, vals = _bool_values(terms, n)
    prob = Fraction(int(np.count_nonzero(vals == d["x"])), 2 ** n)
    _expect(e, _F(res["prob"]) == prob, f"multi prob {res['prob']} != {prob}")
    k = max(len(S) for S in terms)
    used, r = set(), 0
    for S in sorted(terms):
        if len(S) == k and not used.intersection(S):
            used.update(S)
            r += 1
    _expect(e, res["r"] == r, f"disjoint terms {res['r']} != {r}")
    if r:
        _expect(e, _close(res["bound"], 2.0 * r ** (-1.0 / (2 * k * 2 ** k))), "wrong bound")
        _expect(e, res["bound"] >= float(prob), "multilinear bound below exact")


def check_parity_cor(d, res, e):
    bits, vals = _bool_values(d["terms"], d["n"])
    par = bits.sum(axis=1) % 2
    cor = Fraction(int(np.count_nonzero(vals == par)), 2 ** d["n"]) - Fraction(1, 2)
    _expect(e, _F(res["correlation"]) == cor, f"correlation {res['correlation']} != {cor}")


def check_sweep(d, text, e):
    rows = list(csv.DictReader(io.StringIO(text)))
    _expect(e, all(r["status"] == "ok" for r in rows), "sweep cell failed")
    if d["sub"] == "rho":
        _expect(e, len(rows) == len(d["cells"]), "wrong cell count")
        for row, cell in zip(rows, d["cells"]):
            check_rho({"entries": cell, "xi": "pm1"}, row, e)
    elif d["sub"] == "ball":
        _expect(e, len(rows) == len(d["radii"]), "wrong cell count")
        for row, R in zip(rows, d["radii"]):
            _check_window(d["entries"], "pm1", R, _F(row["p"]), _F(row["witness_center"]), e)
    else:
        _expect(e, len(rows) == len(d["ns"]), "wrong cell count")
        check_stanley({"ns": d["ns"]}, [{"n": int(r["n"]), "rho": r["rho"],
                                         "scaled": float(r["scaled"])} for r in rows], e)


def check_geo_rho(d, res, e):
    n = d["n"]
    if d["quad"] is None:
        x = d["x"]
        ints = [x.numerator ** j * x.denominator ** (n - j) for j in range(n + 1)]
        counts = int_counts(ints)
    else:
        c1, c0 = d["quad"]
        comp = np.array([[0, c0], [1, c1]], dtype=object)  # multiplication by t
        vec = np.array([1, 0], dtype=object)
        sums = Counter({(0, 0): 1})
        for _ in range(n + 1):
            u, v = int(vec[0]), int(vec[1])
            nxt = Counter()
            for (a, b), c in sums.items():
                nxt[(a + u, b + v)] += c
                nxt[(a - u, b - v)] += c
            sums = nxt
            vec = comp.dot(vec)
        counts = sums
    rho = Fraction(max(counts.values()), 2 ** (n + 1))
    _expect(e, _F(res["rho"]) == rho, f"geo rho {res['rho']} != {rho}")


def _disk_candidates(pts, R):
    """Float candidate centres: atoms plus points at distance R from two atoms."""
    P = np.array(pts, dtype=np.float64)
    cands = [P]
    i, j = np.triu_indices(len(P), 1)
    dv = P[j] - P[i]
    d2 = (dv ** 2).sum(axis=1)
    ok = (d2 > 0) & (d2 <= 4 * R * R)
    i, j, dv, d2 = i[ok], j[ok], dv[ok], d2[ok]
    mid = (P[i] + P[j]) / 2
    h = np.sqrt(np.maximum(R * R / d2 - 0.25, 0.0))[:, None]
    perp = np.stack([-dv[:, 1], dv[:, 0]], axis=1)
    cands += [mid + h * perp, mid - h * perp]
    return np.concatenate(cands)


def check_ball2d(d, res, e):
    """The exact optimum is sandwiched between the best float candidate disk
    shrunk by eps (a real disk of radius R) and grown by eps (which covers
    the exact candidate centre's atoms despite rounding)."""
    law = law_2d(d["pairs"], d["xi"])
    R = float(d["radius"])
    pts = list(law)
    den = math.lcm(*(p.denominator for p in law.values()))
    w = np.array([int(law[k] * den) for k in pts], dtype=np.int64)
    P = np.array(pts, dtype=np.float64)
    dist2 = ((_disk_candidates(pts, R)[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
    eps = 1e-9 * max(1.0, R * R)
    loose = Fraction(int(((dist2 <= R * R + eps) @ w).max()), den)
    tight = Fraction(int(((dist2 <= R * R - eps) @ w).max()), den)
    p = _F(res["p"])
    _expect(e, tight <= p <= loose, f"disk p {p} outside reference [{tight}, {loose}]")
    c = np.array(res["witness_center"], dtype=np.float64)
    at_witness = Fraction(int(w[((P - c) ** 2).sum(axis=1) <= R * R + eps].sum()), den)
    _expect(e, at_witness >= p, f"witness centre covers {at_witness} < {p}")


def check_flat(d, res, e):
    ex, ey = res["direction"]
    c = res["offset"]
    proj = [x * ex + y * ey for x, y in d["pairs"]]
    lo = sum(1 for t in proj if abs(t - c) >= 1 + 1e-9)
    hi = sum(1 for t in proj if abs(t - c) >= 1 - 1e-9)
    _expect(e, abs(ex * ex + ey * ey - 1) < 1e-12, "direction is not a unit vector")
    _expect(e, lo <= res["far_count"] <= hi, f"far_count {res['far_count']} not in [{lo}, {hi}]")


def check_lcd2(d, res, e):
    pairs = d["pairs"]
    _expect(e, res["lcd"] != "infinite", "integer pairs must have a lattice hit at r <= 1")
    if res["lcd"] == "infinite":
        return
    tx, ty = res["witness_theta"]
    prods = [tx * x + ty * y for x, y in pairs]
    dist = math.sqrt(sum((v - round(v)) ** 2 for v in prods))
    norm = math.sqrt(sum(v * v for v in prods))
    _expect(e, 0 < res["lcd"] <= 1 + 1e-9, f"2-D lcd {res['lcd']} above the lattice hit at 1")
    _expect(e, _close(res["lcd"], math.hypot(tx, ty)), "lcd != |witness theta|")
    _expect(e, dist < min(float(d["gamma"]) * norm, float(d["alpha"])) + 1e-9,
            "2-D witness does not satisfy the LCD condition")
    _expect(e, res["witness_integers"] == [round(v) for v in prods], "wrong witness integers")


def _check_mc_fields(res, e):
    t, s = res["trials"], res["successes"]
    _expect(e, 0 <= s <= t and t > 0, f"successes {s} of {t}")
    _expect(e, _close(res["estimate"], s / t), "estimate != successes / trials")
    _expect(e, 0.0 <= res["estimate"] <= 1.0, "estimate outside [0, 1]")


def check_singularity(d, res, e):
    _check_mc_fields(res, e)
    kind, n = d["kind"], d["n"]
    exact_known = (kind == "bernoulli_iid" and n <= 4) or (kind == "bernoulli_symmetric" and n <= 5)
    if d["mode"] == "exact":
        want = singular_fraction(kind, n)
        _expect(e, _F(res["exact_value"]) == want, f"exact singular {res['exact_value']} != {want}")
        _expect(e, res["std_error"] == 0.0, "exact mode with nonzero std error")
    elif exact_known:
        p = float(singular_fraction(kind, n))
        _expect(e, _within_sigma(res["estimate"], p, res["trials"]),
                f"MC {res['estimate']} not within {Z_TOL} sigma of exact {p}")


def check_common_roots(d, res, e):
    _check_mc_fields(res, e)
    n = d["n"]
    want = Fraction(math.comb(n + 1, (n + 1) // 2), 2 ** (n + 1)) ** 2 if n % 2 else Fraction(0)
    _expect(e, _F(res["exact_value_at_one"]) == want, "wrong value-at-1 channel")
    se = math.sqrt(float(want) * (1 - float(want)) / res["trials"])
    _expect(e, res["estimate"] >= float(want) - Z_TOL * se,
            f"common-root estimate {res['estimate']} below value-at-1 channel {float(want)}")


def check_universal(d, res, e):
    _check_mc_fields(res, e)
    _expect(e, _close(res["benchmark_1_over_n"], 1.0 / d["n"]), "wrong 1/n")
    if d["k"] == 1:
        want = 1 - (1 - Fraction(2, 2 ** d["d"])) ** d["n"]
        _expect(e, _F(res["exact_failure_probability"]) == want, "wrong k=1 failure probability")
        _expect(e, _within_sigma(res["estimate"], float(want), res["trials"]),
                "k=1 MC estimate not within 5 sigma of exact")


def edelman(t: float) -> float:
    return 1.0 - math.exp(-t * t / 2.0 - t)


def check_lsv(d, res, e):
    q = {float(k): v for k, v in res["quantiles"].items()}
    vals = [q[k] for k in sorted(q)]
    _expect(e, all(a <= b for a, b in zip(vals, vals[1:])), "quantiles not monotone")
    _expect(e, res["trials"] == d["trials"] and res["retries"] >= 0, "wrong trials or retries")
    m = d["trials"]
    # DKW at level 1e-6 plus slack for the finite-n and Bernoulli deviations
    tol = math.sqrt(math.log(2 / 1e-6) / (2 * m)) + (0.05 if d["kind"] == "gaussian_iid" else 0.1)
    _expect(e, abs(edelman(q[0.5]) - 0.5) <= tol,
            f"lsv median {q[0.5]}: Edelman CDF {edelman(q[0.5]):.3f} not within {tol:.3f} of 1/2")


def check_edelman(d, res, e):
    _expect(e, _close(res["cdf"], edelman(d["t"]), rel=1e-12), "wrong Edelman CDF")


_CHECKS = {
    "rho": check_rho, "ball": check_ball, "esseen": check_esseen,
    "fp-bound": check_fp_bound, "levels": check_levels, "rl": check_rl,
    "lcd": check_lcd, "rv-bound": check_rv_bound, "recurrence": check_recurrence,
    "stanley": check_stanley, "census": check_census, "gap-fit": check_gap_fit,
    "gap-forward": check_gap_forward, "quad-rho": check_quad_rho,
    "decouple": check_decouple, "quad-gen": check_quad_gen,
    "multi-rho": check_multi_rho, "parity-cor": check_parity_cor,
    "geo-rho": check_geo_rho, "ball2d": check_ball2d, "flat": check_flat,
    "lcd2": check_lcd2, "singularity": check_singularity,
    "common-roots": check_common_roots, "universal": check_universal,
    "lsv": check_lsv, "edelman": check_edelman,
}


def check(query, code: int, text: str) -> list[str]:
    """Errors for one query's exit code and stdout; [] when correct."""
    if code != 0:
        return [f"exit code {code}"]
    errors: list[str] = []
    if query.kind == "sweep":
        check_sweep(query.data, text, errors)
        return errors
    if query.kind == "dist" and query.data.get("format") == "csv":
        check_dist(query.data, None, errors, text)
        return errors
    report = json.loads(text)
    if report["subcommand"] != query.argv[0]:
        return [f"report for {report['subcommand']}, not {query.argv[0]}"]
    res = report["results"]
    if query.kind == "dist":
        check_dist(query.data, res, errors, text)
    else:
        _CHECKS[query.kind](query.data, res, errors)
    return errors


def fault_injection_selftest() -> bool:
    """A report with one wrong rational must be counted as a failure."""
    from workloads import Query

    q = Query(["rho", "--entries=1,1,1,1", "--xi=pm1"], "rho",
              {"entries": [1, 1, 1, 1], "xi": "pm1"})
    good = json.dumps({"subcommand": "rho", "results": {"rho": "3/8", "argmax": "0/1"}})
    bad = good.replace("3/8", "3/7")
    return check(q, 0, good) == [] and len(check(q, 0, bad)) == 1
