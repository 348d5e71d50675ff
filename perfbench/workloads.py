"""Seeded query streams for the four workloads.

A query is one `smallball.cli.main(argv)` invocation.  Each stream is an
endless sequence of *rounds*; a round is a fixed template of subcommands.
Sizes follow a schedule by round number that repeats every `PERIOD` rounds,
and values come from the seeded generator.  The runner times whole periods,
so every run, whatever its seed or length, sends the same traffic mix and
the median and p90 fall at the same place in it: seeds change input values,
not the amount of work.  The program sees only the generated argv; the
`data` dict carries what the checker needs to build its independent
reference.

Every value argument is passed as `--flag=value`: argparse reads a separate
token such as `-4,1` as an unknown flag and raises SystemExit in-process.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = {
    "exact-dense": "small integers, n up to 48: the support is about as wide as "
                   "the span, so convolution merges heavily; all 1-D exact and "
                   "bound subcommands plus sweep",
    "exact-sparse": "dissociated large integers and rationals with denominators "
                    "1..40: support 2^n, span many orders wider; 1-D window over "
                    "10^3-10^4 atoms and geo-rho",
    "disk-2d": "2-D pairs in [-3,3], n <= 6: the exact candidate-centre disk "
               "scan does nearly all the work here and none elsewhere",
    "monte-carlo": "seeded singularity, common-root, lsv and universality jobs: "
                   "F_p and gcd screens, Philox substreams, exact confirmers; "
                   "no exact-law kernel",
}


@dataclass
class Query:
    argv: list
    kind: str
    data: dict = field(default_factory=dict)


def _csv(vals) -> str:
    return ",".join(str(v) for v in vals)


def _at(r: int, schedule):
    """The round's entry of a size schedule; every schedule's length divides
    its workload's PERIOD, so a whole period sees each entry equally often."""
    return schedule[r % len(schedule)]


def _small_ints(rng, n, m):
    return [rng.choice([-1, 1]) * rng.randint(1, m) for _ in range(n)]


def _entries_query(kind, vals, xi, extra=(), **data):
    argv = [kind, f"--entries={_csv(vals)}", f"--xi={xi}", *extra]
    return Query(argv, kind, {"entries": list(vals), "xi": xi, **data})


# ------------------------------------------------------------- exact-dense


def _random_poly(rng, n, max_deg):
    terms = {}
    for _ in range(rng.randint(3, 2 * n)):
        size = rng.randint(1, max_deg)
        S = tuple(sorted(rng.sample(range(n), size)))
        c = rng.randint(-4, 4)
        if c:
            terms[S] = terms.get(S, 0) + c
    terms = {S: c for S, c in terms.items() if c}
    if not terms:
        terms = {(0,): 1}
    return terms


def _poly_text(terms) -> str:
    return ";".join(f"{c}: {' '.join(map(str, S))}" for S, c in sorted(terms.items()))


def _eval_poly(terms, bits) -> int:
    return sum(c for S, c in terms.items() if all(bits[i] for i in S))


def _sym_matrix(rng, n, m):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-m, m)
    return M


def _matrix_text(M) -> str:
    return ";".join(",".join(map(str, row)) for row in M)


def _lcd_entries(rng):
    """Integer entries with a planted gcd g, bounded so that the candidate
    scan provably returns 1/g (|a_i| <= 1/(2 alpha), alpha < 1/4)."""
    g = rng.choice([1, 1, 2, 3])
    n = rng.randint(3, 10)
    vals = [g * b for b in _small_ints(rng, n, max(1, 6 // g))]
    M = max(abs(v) for v in vals)
    alpha = Fraction(1, 2 * max(M, 3))
    gamma = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    return vals, alpha, gamma


def _planted_gap_entries(rng):
    g1 = rng.randint(1, 4)
    G = rng.randint(15, 60)
    n = rng.randint(6, 16)
    rank = rng.choice([1, 2])
    vals = []
    for _ in range(n):
        v = g1 * rng.randint(-3, 3)
        if rank == 2:
            v += G * rng.randint(-2, 2)
        vals.append(v if v else g1)
    return vals


def _dense_round(rng: random.Random, r: int) -> list[Query]:
    qs = []
    n = _at(r, (16, 28, 40, 48))
    qs.append(_entries_query("rho", _small_ints(rng, n, 8), "pm1"))
    n = _at(r, (8, 12, 16, 20))
    qs.append(_entries_query("rho", _small_ints(rng, n, 8),
                             _at(r, ("bool", "lazy:1/2", "bool", "lazy:1/3"))))
    for xi in ("pm1", _at(r, ("bool", "lazy:1/2", "lazy:3/4", "bool"))):
        n = _at(r, (16, 24, 32, 40)) if xi == "pm1" else _at(r + 1, (8, 12, 16, 20))
        R = Fraction(_at(r + (xi != "pm1"), (0, 1, 3, 6)), 2)
        qs.append(_entries_query("ball", _small_ints(rng, n, 8), xi,
                                 (f"--radius={R}",), radius=R))
    n = _at(r + 2, (8, 12, 16, 20))
    fmt = _at(r, ("json", "json", "json", "csv"))
    qs.append(_entries_query("dist", _small_ints(rng, n, 8),
                             _at(r, ("pm1", "bool", "lazy:1/2", "pm1")),
                             (f"--format={fmt}",), format=fmt, d=1))
    n = _at(r, (8, 14, 20, 26))
    beta = _at(r, (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1)))
    qs.append(_entries_query("esseen", _small_ints(rng, n, 8), _at(r, ("pm1", "lazy:1/2")),
                             (f"--beta={beta}",), beta=beta))
    n = _at(r, (6, 8, 9, 11))
    vals = _small_ints(rng, n, 8)
    qs.append(Query(["fp-bound", f"--entries={_csv(vals)}"], "fp-bound", {"entries": vals}))
    if r % 2:
        vals = _small_ints(rng, _at(r // 2, (3, 6)), 4)
        qs.append(Query(["levels", f"--entries={_csv(vals)}", "--m-max=3"], "levels",
                        {"entries": vals, "p": None, "m_max": 3}))
    else:
        vals = _small_ints(rng, _at(r // 2, (4, 8)), 8)
        p = _next_prime(_at(r // 2, (700, 2400)) + rng.randint(0, 100))
        m_max = 3
        qs.append(Query(["levels", f"--entries={_csv(vals)}", f"--p={p}", f"--m-max={m_max}"],
                        "levels", {"entries": vals, "p": p, "m_max": m_max}))
    l, n = _at(r, ((1, 10), (2, 14), (2, 20), (3, 9)))
    vals = _small_ints(rng, n, 8)
    qs.append(Query(["rl", f"--entries={_csv(vals)}", f"--l={l}"], "rl", {"entries": vals, "l": l}))
    vals, alpha, gamma = _lcd_entries(rng)
    qs.append(Query(["lcd", f"--entries={_csv(vals)}", f"--alpha={alpha}", f"--gamma={gamma}"],
                    "lcd", {"entries": vals, "alpha": alpha, "gamma": gamma}))
    vals, alpha, gamma = _lcd_entries(rng)
    g = math.gcd(*vals)
    beta = Fraction(g * rng.randint(1, 3))
    xi = rng.choice(["pm1", "lazy:1/2"])
    qs.append(Query(["rv-bound", f"--entries={_csv(vals)}", f"--xi={xi}", f"--beta={beta}",
                     f"--alpha={alpha}", f"--gamma={gamma}"], "rv-bound",
                    {"entries": vals, "xi": xi, "beta": beta, "alpha": alpha,
                     "gamma": gamma}))
    vals = [rng.randint(1, 12) for _ in range(_at(r, (1, 2, 4, 6)))]
    t = rng.choice([Fraction(1, 16), Fraction(1, 10), Fraction(1, 8), Fraction(1, 6), Fraction(1, 4)])
    z = rng.randint(1, 3)
    grid = _at(r, (2001, 4001, 6001, 8001))
    qs.append(Query(["recurrence", f"--entries={_csv(vals)}", f"--t={t}", f"--z={z}",
                     "--beta=1", "--gamma=1/2", "--alpha=1", f"--grid-points={grid}"],
                    "recurrence", {"entries": vals, "t": t, "z": z, "beta": Fraction(1),
                                   "gamma": Fraction(1, 2), "grid": grid}))
    ns = sorted(rng.sample(range(3, 40, 2), rng.randint(2, 5)))
    qs.append(Query(["stanley", f"--n-list={','.join(map(str, ns))}"], "stanley", {"ns": ns}))
    n, M = _at(r, ((2, 3), (3, 2), (4, 2), (3, 3)))
    grid = [Fraction(1, 2), Fraction(3, 8), Fraction(1, 4), Fraction(1, 8), Fraction(0)]
    qs.append(Query(["census", f"--n={n}", f"--max-entry={M}", f"--rho-grid={_csv(grid)}"],
                    "census", {"n": n, "M": M, "grid": grid}))
    vals = _planted_gap_entries(rng)
    eps = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 4)])
    rank = rng.choice([1, 2])
    qs.append(Query(["gap-fit", f"--entries={_csv(vals)}", f"--epsilon={eps}", f"--max-rank={rank}"],
                    "gap-fit", {"entries": vals, "epsilon": eps}))
    if r % 2:
        gens, bounds = [rng.randint(1, 5)], [rng.randint(2, 8)]
    else:
        g1, M1 = rng.randint(1, 3), rng.randint(1, 4)
        gens, bounds = [g1, g1 * (2 * M1 + 1) + rng.randint(0, 5) * g1], [M1, rng.randint(1, 3)]
    n = _at(r, (8, 12, 16, 20))
    qs.append(Query(["gap-forward", f"--generators={_csv(gens)}", f"--bounds={_csv(bounds)}",
                     f"--n={n}", f"--seed={rng.randint(0, 10**6)}"], "gap-forward",
                    {"gens": gens, "bounds": bounds, "n": n}))
    n = _at(r, (4, 6, 8, 10))
    Mx = _sym_matrix(rng, n, 3)
    xi = _at(r, ("pm1", "bool", "pm1", "pm1"))
    qs.append(Query(["quad-rho", f"--matrix={_matrix_text(Mx)}", f"--xi={xi}"], "quad-rho",
                    {"M": Mx, "xi": xi}))
    n = _at(r + 2, (4, 6, 8, 10))
    Mx = _sym_matrix(rng, n, 3)
    u1 = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    y = [rng.choice([-1, 1]) for _ in range(n)]
    x = sum(Mx[i][j] * y[i] * y[j] for i in range(n) for j in range(n))
    qs.append(Query(["decouple", f"--matrix={_matrix_text(Mx)}", f"--u1={','.join(map(str, u1))}",
                     f"--x={x}"], "decouple", {"M": Mx, "u1": u1, "x": x}))
    # (kind, n, with --gap-generators, with --k)
    kind, n, with_gap, with_k = _at(r, (("gap", 8, True, False), ("lowrank", 6, False, True),
                                        ("mixed", 5, True, True), ("mixed", 7, False, False)))
    argv = ["quad-gen", f"--kind={kind}", f"--n={n}", f"--seed={rng.randint(0, 10**6)}"]
    data = {"kind": kind, "n": n, "gap": None, "k": None}
    if with_gap:
        gens, bounds = [1, rng.randint(5, 9)], [rng.randint(1, 2), 1]
        argv += [f"--gap-generators={_csv(gens)}", f"--gap-bounds={_csv(bounds)}"]
        data["gap"] = (gens, bounds)
    if with_k:
        k = [rng.randint(-3, 3) for _ in range(n)]
        argv.append(f"--k={_csv(k)}")
        data["k"] = k
    qs.append(Query(argv, "quad-gen", data))
    n = _at(r, (6, 8, 10, 12))
    terms = _random_poly(rng, n, _at(r, (2, 3)))
    bits = [rng.randint(0, 1) for _ in range(n)]
    x = _eval_poly(terms, bits)
    qs.append(Query(["multi-rho", f"--poly={_poly_text(terms)}", f"--n={n}", f"--x={x}"],
                    "multi-rho", {"terms": terms, "n": n, "x": x}))
    n = _at(r + 3, (6, 8, 10, 12))
    terms = _random_poly(rng, n, 2)
    qs.append(Query(["parity-cor", f"--poly={_poly_text(terms)}", f"--n={n}"], "parity-cor",
                    {"terms": terms, "n": n}))
    qs.append(_sweep_query(rng, r))
    return qs


def _sweep_query(rng, r):
    which = _at(r, (0, 1, 2, 1))
    if which == 0:
        cells = [_small_ints(rng, rng.randint(4, 14), 6) for _ in range(3)]
        grid = ",".join(" ".join(map(str, c)) for c in cells)
        return Query(["sweep", "--sub=rho", f"--grid=entries={grid}"], "sweep",
                     {"sub": "rho", "cells": cells})
    if which == 1:
        vals = _small_ints(rng, rng.randint(4, 16), 6)
        radii = sorted({Fraction(rng.randint(0, 6), 2) for _ in range(3)})
        return Query(["sweep", "--sub=ball", f"--grid=radius={_csv(radii)}",
                      f"--fixed=entries={' '.join(map(str, vals))}"], "sweep",
                     {"sub": "ball", "entries": vals, "radii": radii})
    ns = sorted(rng.sample(range(3, 30, 2), 3))
    return Query(["sweep", "--sub=stanley", f"--grid=n-list={','.join(map(str, ns))}"],
                 "sweep", {"sub": "stanley", "ns": ns})


def _next_prime(n: int) -> int:
    c = max(2, n + 1)
    while any(c % d == 0 for d in range(2, math.isqrt(c) + 1)):
        c += 1
    return c


# ------------------------------------------------------------ exact-sparse


def _dissociated(rng, n):
    """Large integers and rationals with mixed denominators 1..40."""
    out = []
    for _ in range(n):
        den = rng.choice([1, 1, rng.randint(2, 40)])
        out.append(Fraction(rng.choice([-1, 1]) * rng.randint(10**4, 10**6), den))
    return out


def _sparse_round(rng: random.Random, r: int) -> list[Query]:
    """Three cheap queries (`dist`, `geo-rho` at n <= 11), two `rho` at
    n = 11 and four costly ones (`ball`, `esseen` and `geo-rho --x` at
    n = 11-12).  An exact law here costs about 2^n whatever the values,
    so the median falls inside the `rho` pair in every run, and the p90
    inside the costly block."""
    qs = []
    vals = _dissociated(rng, _at(r, (6, 7, 8, 9)))
    qs.append(_entries_query("dist", vals, _at(r, ("pm1", "bool")), ("--format=json",),
                             format="json", d=1))
    quad = rng.choice([(1, 1), (2, 1), (1, 2), (3, 1), (0, 2), (1, 3)])
    n = _at(r, (6, 8, 10, 11))
    qs.append(Query(["geo-rho", f"--quad={quad[0]},{quad[1]}", f"--n={n}"], "geo-rho",
                    {"x": None, "n": n, "quad": quad}))
    for n in (_at(r, (6, 7, 8, 7)), 12):
        x = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        if x == 1:
            x = Fraction(3, 2)
        qs.append(Query(["geo-rho", f"--x={x}", f"--n={n}"], "geo-rho",
                        {"x": x, "n": n, "quad": None}))
    for xi in ("pm1", "bool"):
        qs.append(_entries_query("rho", _dissociated(rng, 11), xi))
    for slot, xi in enumerate(("pm1", "bool")):
        vals = _dissociated(rng, _at(r + 2 * slot, (11, 12, 12, 11)))
        scale = max(abs(v) for v in vals)
        R = Fraction(round(scale * Fraction(rng.randint(1, 8), 4)))
        qs.append(_entries_query("ball", vals, xi, (f"--radius={R}",), radius=R))
    vals = _dissociated(rng, 12)
    # beta scaled to the entries: the quadrature's node count grows like
    # sum|a_i| / beta, and beta = 1 on entries near 10^6 would take minutes
    beta = Fraction(round(max(abs(v) for v in vals) / _at(r, (64, 128))))
    qs.append(_entries_query("esseen", vals, "pm1", (f"--beta={beta}",), beta=beta))
    return qs


# ----------------------------------------------------------------- disk-2d


def _pairs(rng, n):
    return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]


def _flat_pairs(pairs):
    return [c for p in pairs for c in p]


def _super_isotropic(pairs) -> bool:
    sxx = sum(x * x for x, _ in pairs)
    syy = sum(y * y for _, y in pairs)
    sxy = sum(x * y for x, y in pairs)
    return sxx >= 1 and syy >= 1 and (sxx - 1) * (syy - 1) - sxy * sxy >= 0


# Classes (n, R, xi) of the exact disk scan, with a target for their work
# N * (N + 2 P) over distinct nonzero pairs: N atoms, each a candidate centre,
# plus two centres for each of the P atom pairs within 2R, each candidate
# summing over the N atoms.  Within a class the scan's time follows this
# work, which varies about threefold with the values; so values are drawn
# until the work lies within 10% of the class target, and seeds change the
# values, not the amount of work.  Targets are class medians, except that
# (6, 1, pm1) is drawn at about its 75th percentile, so that scans rather
# than the CLI's fixed ~10 ms per call dominate the workload.  n = 6 at
# R >= 2 is left out: one such query can take seconds.
_DISK_MEDIUM = [(6, Fraction(1, 2)), (4, Fraction(5, 2)), (4, Fraction(3)), (5, Fraction(1))]
_DISK_HEAVY = (6, Fraction(1))
_DISK_WORK = {
    (6, Fraction(1, 2), "pm1"): 2304, (6, Fraction(1, 2), "bool"): 7688,
    (4, Fraction(5, 2), "pm1"): 1152, (4, Fraction(5, 2), "bool"): 2896,
    (4, Fraction(3), "pm1"): 1472, (4, Fraction(3), "bool"): 3360,
    (5, Fraction(1), "pm1"): 2100, (5, Fraction(1), "bool"): 4080,
    (6, Fraction(1), "pm1"): 9600,
}
_NONZERO_PAIRS = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if x or y]


def disk_work(pairs, xi: str, R: Fraction) -> int:
    """N * (N + 2 P) for the exact 2-D law of sum xi_i a_i (pm1 or bool)."""
    pts = {(0, 0)}
    for x, y in pairs:
        if xi == "pm1":
            pts = {(u + s * x, v + s * y) for u, v in pts for s in (-1, 1)}
        else:
            pts |= {(u + x, v + y) for u, v in pts}
    pts = list(pts)
    reach = 4 * R * R
    close = sum(1 for i, (u, v) in enumerate(pts) for x, y in pts[i + 1:]
                if (u - x) ** 2 + (v - y) ** 2 <= reach)
    return len(pts) * (len(pts) + 2 * close)


def _disk_round(rng: random.Random, r: int) -> list[Query]:
    """Per period of two rounds: five cheap queries (`dist --d 2`, `flat`,
    `lcd --d 2`), eight medium scans (each medium class once with each sign
    law) and six (6, 1, pm1) scans, the costliest, whose block the p90
    falls inside.  The median falls between the medium pm1 and bool scans,
    inside the (4, 5/2) and (4, 3) bool ones, which cost about the same."""
    qs = []

    def ball2d(n, R, xi):
        # distinct nonzero pairs, whose work is drawn to the class target
        target = _DISK_WORK[n, R, xi]
        while True:
            pairs = rng.sample(_NONZERO_PAIRS, n)
            if abs(disk_work(pairs, xi, R) - target) <= target / 10:
                break
        qs.append(Query(["ball2d", f"--entries={_csv(_flat_pairs(pairs))}", f"--xi={xi}",
                         f"--radius={R}"], "ball2d", {"pairs": pairs, "xi": xi, "radius": R}))

    for slot in range(4):
        ball2d(*_DISK_MEDIUM[(r + slot) % 4], ("pm1", "bool")[slot % 2])
    for _ in range(3):
        ball2d(*_DISK_HEAVY, "pm1")
    for cheap in ("dist", "flat", "lcd2")[:_at(r, (3, 2))]:
        if cheap == "dist":
            pairs = _pairs(rng, rng.randint(2, 6))
            xi = rng.choice(("pm1", "bool", "lazy:1/2"))
            qs.append(Query(["dist", f"--entries={_csv(_flat_pairs(pairs))}", f"--xi={xi}",
                             "--d=2"], "dist", {"pairs": pairs, "xi": xi, "d": 2, "format": "json"}))
        elif cheap == "flat":
            pairs = _pairs(rng, rng.randint(3, 6))
            grid = rng.choice((90, 180, 360))
            qs.append(Query(["flat", f"--entries={_csv(_flat_pairs(pairs))}",
                             f"--angle-grid={grid}"], "flat", {"pairs": pairs}))
        else:
            pairs = _pairs(rng, rng.randint(2, 6))
            while not _super_isotropic(pairs):
                pairs = _pairs(rng, len(pairs))
            alpha = rng.choice((Fraction(1, 8), Fraction(1, 6), Fraction(1, 4)))
            gamma = rng.choice((Fraction(1, 4), Fraction(1, 2)))
            qs.append(Query(["lcd", f"--entries={_csv(_flat_pairs(pairs))}", "--d=2",
                             f"--alpha={alpha}", f"--gamma={gamma}"], "lcd2",
                            {"pairs": pairs, "alpha": alpha, "gamma": gamma}))
    return qs


# ------------------------------------------------------------- monte-carlo


def _mc_round(rng: random.Random, r: int) -> list[Query]:
    """Small jobs (10^2-10^3 trials, per-batch fixed costs dominate) and one
    large job per round (10^4 trials or 2^16 exact matrices).

    Every round holds the same jobs, except that the symmetric MC screen's n
    and the kind of large job rotate with r % 3: four cheap jobs, nine medium
    ones (20-90 ms), the symmetric screen, four iid screens of 1200 trials
    (about 0.4 s each) and the large job (about 1 s).  The median falls
    inside the medium block and the p90 inside the iid screens; the rotating
    jobs lie on either side of that, so they move neither.
    """
    qs = []

    def seed():
        return f"--seed={rng.randint(0, 2**31)}"

    def sing(kind, n, mode, trials=None):
        argv = ["singularity", f"--kind={kind}", f"--n={n}", f"--mode={mode}", seed()]
        if trials:
            argv.append(f"--trials={trials}")
        qs.append(Query(argv, "singularity", {"kind": kind, "n": n, "mode": mode}))

    def roots(n, trials):
        qs.append(Query(["common-roots", f"--n={n}", f"--trials={trials}", seed()],
                        "common-roots", {"n": n}))

    for _ in range(2):
        t = round(rng.uniform(0.01, 3.0), 4)
        qs.append(Query(["edelman", f"--t={t}"], "edelman", {"t": t}))
    sing("bernoulli_iid", 3, "exact")
    sing("bernoulli_symmetric", 3, "exact")
    sing("bernoulli_symmetric", 4, "exact")
    for d, n, k, trials in ((8, 6, 1, 100), (7, 7, 2, 150)):
        qs.append(Query(["universal", f"--d={d}", f"--n={n}", f"--k={k}", f"--trials={trials}",
                         seed()], "universal", {"d": d, "n": n, "k": k}))
    for kind, n in (("gaussian_iid", 18), ("bernoulli_iid", 20), ("gaussian_iid", 22)):
        qs.append(Query(["lsv", f"--kind={kind}", f"--n={n}", "--trials=40", seed()], "lsv",
                        {"kind": kind, "n": n, "trials": 40}))
    for n, trials in ((7, 400), (15, 200), (31, 100)):
        roots(n, trials)
    sing("bernoulli_symmetric", _at(r, (10, 20, 40)), "monte_carlo", 200)
    for n in (3, 4, 5, 6):
        sing("bernoulli_iid", n, "monte_carlo", 1200)
    large = r % 3
    if large == 0:
        sing("bernoulli_iid", 4, "exact")
    elif large == 1:
        sing("bernoulli_iid", _at(r // 3, (3, 4)), "monte_carlo", 10**4)
    else:
        roots(7, 10**4)
    return qs


_ROUNDS = {
    "exact-dense": _dense_round,
    "exact-sparse": _sparse_round,
    "disk-2d": _disk_round,
    "monte-carlo": _mc_round,
}


# Rounds per period: every size schedule of a workload repeats within it.
PERIOD = {"exact-dense": 4, "exact-sparse": 4, "disk-2d": 2, "monte-carlo": 1}


def rounds(workload: str, seed: int, key: str = ""):
    """Seeded endless sequence of rounds, each a list of queries; `key`
    selects an independent stream of the same shape (the warm-up's)."""
    rng = random.Random(f"{workload}:{seed}{key}")
    make = _ROUNDS[workload]
    r = 0
    while True:
        yield make(rng, r)
        r += 1


def stream(workload: str, seed: int, rounds_: int):
    """The first `rounds_` rounds as one list of queries."""
    gen = rounds(workload, seed)
    return [q for _ in range(rounds_) for q in next(gen)]
