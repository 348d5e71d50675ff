"""Byte-for-byte CLI outputs for every subcommand and `sweep`.

`golden/cli_outputs.json` holds argv, exit code and stdout for each case.
The outputs were captured from the CLI before it became one command table;
the only edit since is the removal of the `workers` parameter from every
JSON report.  Cases cover `--format csv`, seeded Monte Carlo runs, sweep
error cells and an exit-2 input.  Later cases were captured before a change
to the code they run: Monte Carlo `singularity` at n = 9, 10, 15 and 16
(iid and symmetric), either side of the orders at which the F_p screens
decide alone, and `lsv` on 2 x 2 sign matrices, half of them singular.
The last four were captured before the F_p screen read its pivot inverses
from a table and before `lsv` drew from one generator per batch: Monte
Carlo `singularity` at n = 5 over two batches of trials (5000) at seed
2^64 - 1, `lsv --kind gaussian_iid` at seed 2^63 + 7, `lsv --kind
bernoulli_iid --format csv` with ten singular draws of sixteen, and
`common-roots` at n = 11.
The last three were captured before the 1-D LCD scan moved to the integer
lattice and the recurrence grid to numpy blocks: an `lcd` with rational and
zero entries and no hit (the margin path), an `rv-bound` with rational
entries under `--xi lazy:1/2`, and a `recurrence` on 196,617 grid points,
past three blocks of 2^16.
The last five were captured before narrow 1-D laws moved to an int64
histogram: `rho` on 48 small entries, `stanley` at n = 3, 13, 33 and 37,
`rl` at l = 2 on entries in [-30, 30], a `census` of 4-entry multisets and
a `dist` under `--xi lazy:1/3`.
The last seven were captured before the kernel chose its path once from
the steps and before GAP point sets became kernel laws: `rho` on all-ones
at n = 61, 62 and 63 (either side of the int64 mass edge), `rho --xi
lazy:1/3` on 30 small integers, a rank-2 `gap-forward`, a rank-2 `gap-fit`
at epsilon = 1/8 whose candidate generators round entries at exact halves,
and `quad-gen --kind gap` on the generator 10^19, whose points pass int64.
The last three were captured before Monte Carlo singularity moved to one
Hadamard rule over the screen primes and `levels` rows to the report's
generic Fraction text: `levels --format csv` on a strict context, a `sweep
--sub levels` over a strict and an illustrative p, and a symmetric
`singularity` at n = 20 with six singular matrices, which Bareiss confirmed
before.
The last four were captured before `gap-fit` took the exact rank-1 optimum
and multilinear forms moved to the subset-sum transform: a planted rank-2
`gap-fit` at epsilon = 1/8, a `--max-rank 1` fit whose greedy cover was
already optimal, and a `multi-rho` at n = 12 and a `parity-cor` at n = 10
with many terms.
The last twelve were captured before wide 1-D laws moved to a sorted merge of
int64 arrays and `rho`, `ball` and `dist` came to read the arrays: a `rho`
and a `ball` on dissociated rational entries under each of `pm1`, `bool`
and `lazy:1/3`, `dist --format=csv` and `dist --format=json` on wide laws, a
`ball` whose best windows all tie (atoms in pairs 2 apart, radius 1), a
`ball` whose radius passes the span, and a `rho` and a `ball` on entries
near 10^19, whose keys pass int64 and stay on the dict merge.
The last six were captured before `lattice_counts` returned the law its
path built in place of a dict, and read its atom budget when called:
`geo-rho --x=7/3 --n=12` and `geo-rho --quad=2,3 --n=11` (on the sorted
merge), `geo-rho --x=1000000 --n=4` (shifts past int64, on the dict merge),
`rl` at l = 3 on a law the histogram takes, `quad-gen --kind=lowrank` at
n = 12 whose floor reads key 0 of a histogram law, and `stanley` at n = 5,
21 and 39.
The last five were captured before `levels` took the smaller side of each
dual-sum update and `fp-bound` scanned half of F_p: `fp-bound` on 11
entries at p = 131,101, `levels` at p = 2411 whose m = 1 update takes the
complement side, `levels` at p = 2 and at p = 3 on zero entries (the p = 2
mirror), and a strict `levels` at p = 1091.
The last seven were captured before argv was parsed on the command table and
entries were sorted and scaled on exact integers: `rho --entries 3/4,-1/2,
2/4,1/2,-7,0 --xi lazy:1/3` (two-token flags, equal values written
differently, a zero), a `ball` on rationals with denominators 40 and 7 under
`--xi=bool`, a `ball2d` whose pairs tie in x, a `quad-rho` on a rational
matrix, a `multi-rho` with a rational coefficient and target, a `sweep --sub
ball` over radius and sign law with `--fixed entries=-4,1,3`, and an `esseen`
under `--xi lazy:1/3`.
The last four were captured before 2-D laws went through `lattice_counts`
and the `ball2d` witness became the first maximum in value order: `dist
--d=2 --format=csv` under `--xi=lazy:1/2` and under `pm1` with a zero pair,
and a `ball2d` under `--xi=bool` and under `--xi=lazy:1/2`.  That change
re-captured two `ball2d` witnesses, with p unchanged: `--entries "1,0, 0,1"
--radius 1` went from (0.0, -1.0) to (-1.0, 0.0), and `--entries "1,0, 0,1,
1,1" --radius 1/2 --xi bool` from (1.0, 0.5) to (0.5, 1.0).
The last four were captured before the Esseen integrand computed one factor
per run of equal entries: `esseen` on 26 ones at beta = 2, on runs with
zeros and negatives under `--xi=lazy:1/2`, and on repeated rationals under
`--xi=bool`, and a `sweep --sub=esseen` over three betas on `2 2 2 -1 -1 4`.
The last six were captured before every sign-matrix singularity decision
moved to the matrix's halved (n - 1) x (n - 1) minor: exact `singularity`
at n = 1, iid and symmetric (the minor is empty), iid at n = 4 and
symmetric at n = 5, a Monte Carlo symmetric `singularity` at n = 40, whose
screen bound takes five primes, and `lsv --kind bernoulli_iid` at n = 1.
A change that alters some reports on purpose re-captures only those cases
with `python tests/golden/recapture.py ARGV_PREFIX...`; new guards are
captured from the current tree with `recapture.py --append ARGV...`.
"""
import json
from pathlib import Path

import pytest

from smallball.cli import COMMANDS, main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


def test_cases_cover_every_subcommand():
    assert {c["argv"][0] for c in CASES} == {*COMMANDS, "sweep"}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.delenv("SMALLBALL_SEED", raising=False)
    code = main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


def test_golden_cases_repeat_on_one_parser_per_subcommand(capsys, monkeypatch):
    # every case again in one process, in reverse order, each after a -h
    # call and an unknown-flag error on the same flags (a list flag and a
    # boolean flag included): parsing argv on the table must carry nothing
    # between calls
    monkeypatch.delenv("SMALLBALL_SEED", raising=False)
    for case in reversed(CASES):
        argv = list(case["argv"])
        assert main(argv + ["-h"]) == 0
        assert main(argv + ["--timing", "--no-such-flag"]) == 2
        capsys.readouterr()
        assert (main(argv), capsys.readouterr().out) == (case["code"], case["stdout"]), argv
