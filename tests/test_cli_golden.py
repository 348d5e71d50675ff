"""Byte-for-byte CLI outputs for every subcommand and `sweep`.

`golden/cli_outputs.json` holds argv, exit code and stdout for each case.
The outputs were captured from the CLI before it became one command table;
the only edit since is the removal of the `workers` parameter from every
JSON report.  Cases cover `--format csv`, seeded Monte Carlo runs, sweep
error cells and an exit-2 input.  Later cases were captured before a change
to the code they run: Monte Carlo `singularity` at n = 9, 10, 15 and 16
(iid and symmetric), either side of the orders at which the F_p screens
decide alone, and `lsv` on 2 x 2 sign matrices, half of them singular.
A change that alters some reports on purpose re-captures only those cases
with `python tests/golden/recapture.py ARGV_PREFIX...`.
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
