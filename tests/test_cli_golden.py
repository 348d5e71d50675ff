"""Byte-for-byte CLI outputs for every subcommand and `sweep`.

`golden/cli_outputs.json` holds argv, exit code and stdout for each case.
The outputs were captured from the CLI before it became one command table;
the only edit since is the removal of the `workers` parameter from every
JSON report.  Cases cover `--format csv`, seeded Monte Carlo runs, sweep
error cells and an exit-2 input.
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
