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
A change that alters some reports on purpose re-captures only those cases
with `python tests/golden/recapture.py ARGV_PREFIX...`; new guards are
captured from the current tree with `recapture.py --append ARGV...`.
"""
import json
from collections import Counter
from pathlib import Path

import pytest

from smallball import cli
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
    # call and an argparse error on the same flags (appends and a
    # store_const included): a reused parser must carry nothing between
    # calls, and each subcommand's parser is built once
    monkeypatch.delenv("SMALLBALL_SEED", raising=False)
    built = Counter()
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built[kwargs["prog"]] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    for case in reversed(CASES):
        argv = list(case["argv"])
        assert main(argv + ["-h"]) == 0
        assert main(argv + ["--timing", "--no-such-flag"]) == 2
        capsys.readouterr()
        assert (main(argv), capsys.readouterr().out) == (case["code"], case["stdout"]), argv
    assert built == {f"smallball {name}": 1 for name in {c["argv"][0] for c in CASES}}
