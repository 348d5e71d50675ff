"""Re-capture selected cases of `cli_outputs.json`.

    python tests/golden/recapture.py "lsv --kind bernoulli_iid --n 2" [PREFIX ...]

Each PREFIX is split like a shell line into argv tokens.  Only the cases
whose argv starts with one of the prefixes are run again, in-process with
SMALLBALL_SEED unset as in the golden test, and only their exit code and
stdout are rewritten; every other entry stays byte for byte.  A unified
diff of each rewritten stdout goes to stdout.  Exits 1, writing nothing,
when a prefix matches no case.
"""
from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_outputs.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from smallball.cli import main  # noqa: E402


def recapture(prefixes: list[list[str]]) -> int:
    cases = json.loads(GOLDEN.read_text())
    unmatched = [p for p in prefixes if not any(c["argv"][:len(p)] == p for c in cases)]
    if unmatched:
        for p in unmatched:
            print(f"no golden case starts with {shlex.join(p)!r}", file=sys.stderr)
        return 1
    os.environ.pop("SMALLBALL_SEED", None)
    for case in cases:
        if not any(case["argv"][:len(p)] == p for p in prefixes):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(case["argv"]))
        name = shlex.join(case["argv"])
        if code != case["code"]:
            print(f"{name}: exit code {case['code']} -> {code}")
        sys.stdout.writelines(difflib.unified_diff(
            case["stdout"].splitlines(keepends=True), out.getvalue().splitlines(keepends=True),
            f"old: {name}", f"new: {name}"))
        case["code"], case["stdout"] = code, out.getvalue()
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(recapture([shlex.split(p) for p in sys.argv[1:]]))
