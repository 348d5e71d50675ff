"""Re-capture selected cases of `cli_outputs.json`, or append new ones.

    python tests/golden/recapture.py "lsv --kind bernoulli_iid --n 2" [PREFIX ...]
    python tests/golden/recapture.py --append "rho --entries 1,1,1" [ARGV ...]

Each PREFIX or ARGV is split like a shell line into argv tokens.  Cases run
in-process with SMALLBALL_SEED unset, as in the golden test.

Without `--append`, only the cases whose argv starts with one of the
prefixes are run again, and only their exit code and stdout are rewritten;
every other entry stays byte for byte.  A unified diff of each rewritten
stdout goes to stdout.  Exits 1, writing nothing, when a prefix matches no
case.

With `--append`, each ARGV is run on the current tree and added at the end
as a new case; its exit code goes to stdout.  Exits 1, writing nothing,
when an ARGV is already a case or is given twice.
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


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


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
        code, stdout = _run(case["argv"])
        name = shlex.join(case["argv"])
        if code != case["code"]:
            print(f"{name}: exit code {case['code']} -> {code}")
        sys.stdout.writelines(difflib.unified_diff(
            case["stdout"].splitlines(keepends=True), stdout.splitlines(keepends=True),
            f"old: {name}", f"new: {name}"))
        case["code"], case["stdout"] = code, stdout
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    return 0


def append(argvs: list[list[str]]) -> int:
    cases = json.loads(GOLDEN.read_text())
    seen = [c["argv"] for c in cases]
    present = [a for i, a in enumerate(argvs) if a in seen or a in argvs[:i]]
    if present:
        for a in present:
            print(f"already a golden case: {shlex.join(a)!r}", file=sys.stderr)
        return 1
    os.environ.pop("SMALLBALL_SEED", None)
    for argv in argvs:
        code, stdout = _run(argv)
        print(f"{shlex.join(argv)}: exit code {code}")
        cases.append({"argv": argv, "code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args or args == ["--append"]:
        sys.exit(__doc__)
    if args[0] == "--append":
        sys.exit(append([shlex.split(a) for a in args[1:]]))
    sys.exit(recapture([shlex.split(p) for p in args]))
