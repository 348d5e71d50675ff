import contextlib
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate

from smallball.cli import COMMANDS, COMMON, REPORT_SCHEMA, SWEEP_FLAGS, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_rho_subcommand(capsys):
    code, out = run_cli(["rho", "--entries", "1,1,1,1"], capsys)
    assert code == 0
    report = json.loads(out)
    validate(report, REPORT_SCHEMA)
    assert report["results"]["rho"] == "3/8"


def test_empty_entries_exit_code(capsys):
    assert run_cli(["rho", "--entries", ""], capsys)[0] == 2


def test_budget_exit_code(capsys):
    code, _ = run_cli(["singularity", "--n", "8", "--mode", "exact"], capsys)
    assert code == 3


def test_singularity_exact_n2(capsys):
    code, out = run_cli(["singularity", "--n", "2", "--mode", "exact"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["exact_value"] == "1/2"


def test_reports_byte_identical(capsys):
    args = ["common-roots", "--n", "5", "--trials", "50", "--seed", "9"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    validate(json.loads(out1), REPORT_SCHEMA)


def test_all_bound_commands_sound(capsys):
    code, out = run_cli(["esseen", "--entries", "1,1,1,1", "--beta", "1"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["ratio"] >= 1
    code, out = run_cli(["fp-bound", "--entries", "1,2,3"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["ratio"] >= 1
    code, out = run_cli(["rv-bound", "--entries", "1,1,1,1", "--beta", "2",
                         "--alpha", "2", "--gamma", "1/2"], capsys)
    assert code == 0


def test_various_subcommands(capsys):
    cases = [
        ["dist", "--entries", "1,2", "--format", "csv"],
        ["ball", "--entries", "1,2,3", "--radius", "1/2"],
        ["ball2d", "--entries", "1,0, 0,1", "--radius", "1"],
        ["flat", "--entries", "1,0, 2,0, 3,0", "--angle-grid", "8"],
        ["stanley", "--n-list", "3,5"],
        ["levels", "--entries", "1,1,1", "--m-max", "2"],
        ["rl", "--entries", "1,2,3,4", "--l", "2"],
        ["lcd", "--entries", "2,2", "--alpha", "1/12", "--gamma", "1/2"],
        ["recurrence", "--entries", "1,1,1", "--t", "1/8", "--gamma", "1/2",
         "--alpha", "1/2", "--grid-points", "5001"],
        ["gap-fit", "--entries", "1,2,3,4,5,6"],
        ["gap-forward", "--generators", "1", "--bounds", "5", "--n", "8"],
        ["census", "--n", "2", "--max-entry", "2", "--rho-grid", "1/2,1/4"],
        ["geo-rho", "--x", "2", "--n", "4"],
        ["geo-rho", "--quad", "1,1", "--n", "4"],
        ["quad-rho", "--matrix", "1,1;1,1"],
        ["decouple", "--matrix", "1,1;1,1", "--u1", "0", "--x", "0"],
        ["quad-gen", "--kind", "lowrank", "--n", "6", "--k", "1,-1,1,-1,1,-1"],
        ["multi-rho", "--poly", "1: 0 1;1: 2 3", "--n", "4", "--x", "1"],
        ["parity-cor", "--poly", "1: 0", "--n", "6"],
        ["universal", "--d", "10", "--n", "5", "--k", "1", "--trials", "20"],
        ["lsv", "--kind", "gaussian_iid", "--n", "10", "--trials", "5"],
        ["edelman", "--t", "0.5"],
        ["common-roots", "--n", "3", "--trials", "50"],
    ]
    for args in cases:
        code, out = run_cli(args, capsys)
        assert code == 0, args
        if "--format" not in args:
            validate(json.loads(out), REPORT_SCHEMA)


def test_sweep_stanley(capsys):
    code, out = run_cli(["sweep", "--sub", "stanley", "--grid",
                         "n-list=3,5,7"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 cells
    assert lines[0].startswith("n-list")


def test_sweep_empty_grid(capsys):
    code, out = run_cli(["sweep", "--sub", "edelman", "--grid", "t=0.1,0.2,0.3"],
                        capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_sweep_partial_failure_flagged(capsys):
    code, out = run_cli(["sweep", "--sub", "rho", "--grid",
                         "entries=1,bad,2"], capsys)
    assert code == 0
    assert "error" in out
    assert out.count("ok") == 2  # run continues past the failing cell


def test_sweep_cells_take_values_not_argv(capsys):
    # a value that argparse would read as a flag reaches the cell intact
    code, out = run_cli(["sweep", "--sub", "rho", "--grid", "xi=pm1,bool",
                         "--fixed", "entries=-4,1"], capsys)
    assert code == 0
    assert out.count(",ok") == 2


def test_sweep_cells_take_the_sweep_seed(capsys):
    base = ["sweep", "--seed", "5", "--sub", "common-roots", "--grid", "n=3",
            "--fixed", "trials=10"]
    code, out = run_cli(base, capsys)
    assert code == 0
    assert next(csv.DictReader(io.StringIO(out)))["master_seed"] == "5"
    # a cell's own seed still wins
    code, out = run_cli(base + ["--fixed", "seed=7"], capsys)
    assert next(csv.DictReader(io.StringIO(out)))["master_seed"] == "7"


@pytest.mark.parametrize("name", ["rho", "sweep"])
def test_subcommand_help_returns_zero(name, capsys):
    code, out = run_cli([name, "-h"], capsys)
    assert code == 0
    assert out.startswith(f"usage: smallball {name}")


def test_sweep_census_monotone(capsys):
    code, out = run_cli(["sweep", "--sub", "census", "--grid", "n=2,3",
                         "--fixed", "max-entry=4",
                         "--fixed", "rho-grid=1/2,1/4,0"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 1\n")
    code, out = run_cli(["ball", "--entries", "1,1,1,1", "--radius", "0",
                         "--config", str(cfg)], capsys)
    # flag wins over config
    assert json.loads(out)["results"]["p"] == "3/8"
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("l = 2\n")
    code, out = run_cli(["rl", "--entries", "1,2,3,4", "--config", str(cfg2)],
                        capsys)
    assert json.loads(out)["results"]["r_l"] == 44
    cfg3 = tmp_path / "bad.cfg"
    cfg3.write_text("nonsense = 1\n")
    assert run_cli(["rl", "--entries", "1", "--config", str(cfg3)], capsys)[0] == 2
    # a flag given on the command line wins even when it equals the default
    cfg4 = tmp_path / "trials.cfg"
    cfg4.write_text("trials = 50\n")
    code, out = run_cli(["common-roots", "--n", "3", "--trials", "10000",
                         "--config", str(cfg4)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["trials"] == 10000
    code, out = run_cli(["common-roots", "--n", "3", "--config", str(cfg4)], capsys)
    assert json.loads(out)["results"]["trials"] == 50


@pytest.mark.parametrize("args", [
    ["stanley", "--n-list", "3,x"],
    ["geo-rho", "--quad", "1", "--n", "3"],
    ["geo-rho", "--n", "3"],
    ["multi-rho", "--poly", "1:a", "--n", "3"],
    ["gap-forward", "--generators", "1", "--bounds", "x", "--n", "3"],
    ["decouple", "--matrix", "1,1;1,1", "--u1", "a"],
    ["quad-gen", "--kind", "lowrank", "--n", "3", "--k", "1,x"],
    ["quad-gen", "--kind", "lowrank", "--n", "0"],
    ["quad-gen", "--kind", "gap", "--n", "-1"],
    ["quad-rho", "--matrix", ";"],
    ["lcd", "--d", "2", "--entries", "2,0,0,2,5", "--alpha", "1/8", "--gamma", "1/2"],
    ["census", "--n", "0", "--max-entry", "0", "--rho-grid", "0"],
    ["recurrence", "--entries", "1", "--t", "0", "--gamma", "1", "--alpha", "1",
     "--grid-points", "0"],
    ["gap-forward", "--generators", "1", "--bounds", "3", "--n", "-1"],
    ["gap-forward", "--generators", "1", "--bounds", "3", "--n", "3", "--seed", "-1"],
    ["universal", "--d", "1", "--n", "0", "--k", "0"],
    ["parity-cor", "--poly", "1:", "--n", "-1"],
    ["rho", "--entries"],
    ["rho", "--entries", "1", "--bogus", "1"],
    ["nonsense"],
    [],
])
def test_malformed_input_exit_code(args, capsys):
    assert run_cli(args, capsys)[0] == 2


@pytest.mark.parametrize("args", [
    ["singularity", "--n", "3", "--trials", "-5"],
    ["singularity", "--n", "3", "--trials", "0"],
    ["universal", "--d", "3", "--n", "3", "--k", "1", "--trials", "-5"],
    ["common-roots", "--n", "3", "--trials", "-5"],
    ["lsv", "--n", "3", "--trials", "-5"],
    ["lsv", "--n", "3", "--trials", "0"],
    ["common-roots", "--n", "-1", "--trials", "10"],
    ["common-roots", "--n", "-2"],
    ["singularity", "--n", "3", "--trials", "10", "--seed", "-3"],
    ["common-roots", "--n", "3", "--trials", "10", "--seed", "18446744073709551616"],
    ["universal", "--d", "3", "--n", "3", "--k", "1", "--trials", "5", "--seed", "-1"],
    ["lsv", "--n", "3", "--trials", "2", "--seed", "-1"],
])
def test_mc_nonsense_exit_code(args, capsys):
    assert run_cli(args, capsys)[0] == 2


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_edelman_non_finite_t_exit_code(t, capsys):
    # nan and inf printed NaN / Infinity with exit 0, which is not JSON
    assert run_cli(["edelman", f"--t={t}"], capsys) == (2, "")


@pytest.mark.parametrize("args", [
    ["singularity", "--n=100000", "--trials=1"],
    ["singularity", "--n=1449", "--trials=1", "--kind=bernoulli_symmetric"],
    ["universal", "--d=100000", "--n=100000", "--k=1", "--trials=1"],
])
def test_draws_per_trial_budget_exit_code(args, capsys, monkeypatch):
    # these tried to allocate more than 2 GiB for one trial; unguarded code
    # fails the patched draw before it allocates
    from smallball import experiments

    real = experiments.trial_bits

    def guarded(seed, lo, hi, k):
        assert k <= experiments.MAX_TRIAL_DRAWS, f"{k} draws per trial"
        return real(seed, lo, hi, k)

    monkeypatch.setattr(experiments, "trial_bits", guarded)
    assert run_cli(args, capsys) == (3, "")


@pytest.mark.parametrize("m_max, code", [("-1", 2), ("-7", 2), ("20000", 3),
                                         (str(10**12), 3)])
def test_levels_m_max_bounds(m_max, code, capsys):
    # a negative m_max printed an empty `levels` list with exit 0, and a large
    # one printed a report per m although every m >= n/4 repeats the last
    out = run_cli(["levels", "--entries", "1,1,1", f"--m-max={m_max}"], capsys)
    assert out == (code, "")


def test_quad_gen_gap_points_beyond_int64(capsys):
    # a generator of 10^19 raised OverflowError out of an int64 conversion
    code, out = run_cli(["quad-gen", "--kind", "gap", "--n", "3",
                         "--gap-generators", str(10**19), "--gap-bounds", "1"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["predicted_floor"] == "1/19"


def test_quad_rho_budget_counts_sign_vectors(capsys, monkeypatch):
    # lazy signs at n = 16 are 3^16 > 2^24 vectors, which the old n <= 24
    # check let through; the patched enumerator fails the test instead
    from smallball import polyforms

    real = polyforms._sign_vectors

    def guarded(support, n, *args):
        assert len(support) ** n <= 2**polyforms.QUADRATIC_ENUM_LIMIT
        return real(support, n, *args)

    monkeypatch.setattr(polyforms, "_sign_vectors", guarded)
    ones = ";".join([",".join(["1"] * 16)] * 16)
    assert run_cli(["quad-rho", f"--matrix={ones}", "--xi=lazy:2/3"], capsys) == (3, "")


def test_decouple_lopsided_n16_bounded_memory():
    # with |u1| = 15 the joint probability needed a 2^15 x 2^15 int64 Gram
    # matrix (8 GiB); the child's address space is capped at 1 GiB so such
    # an allocation fails there instead of in this process
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    ones = ";".join([",".join(["1"] * 16)] * 16)
    proc = subprocess.run(
        [sys.executable, "-m", "smallball.cli", "decouple", f"--matrix={ones}",
         f"--u1={','.join(map(str, range(15)))}"],
        capture_output=True, text=True, preexec_fn=cap, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["holds"] is True


def test_quad_gen_beyond_int64_bounded_memory():
    # past the int64 guard rho_q works on object blocks of Python ints; at
    # 2^20 values a block took this case to 205 MB peak RSS, at 2^16 about
    # 51 MB.  The child reports its own peak RSS in KiB (VmHWM: getrusage's
    # ru_maxrss would count this process's pages, kept across the exec).
    code = ("import re, sys; from pathlib import Path; from smallball.cli import main; "
            "c = main(sys.argv[1:]); "
            "print(re.search(r'VmHWM:\\s*(\\d+)', Path('/proc/self/status').read_text())[1], "
            "file=sys.stderr); sys.exit(c)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "quad-gen", "--kind", "gap", "--n", "20",
         "--gap-generators", str(10**19), "--gap-bounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["n"] == 20
    assert int(proc.stderr.split()[-1]) < 120 * 1024


@pytest.mark.parametrize("args", [
    ["quad-gen", "--kind", "gap", "--n", "3", "--gap-generators", f"{10**19},1",
     "--gap-bounds", "0,1"],
    ["gap-forward", "--generators", str(10**19), "--bounds", "0", "--n", "2"],
])
def test_gap_commands_zero_bound_generator_beyond_int64(args, capsys):
    # a generator beyond int64 with bound 0 adds no point and must not overflow
    assert run_cli(args, capsys)[0] == 0


def test_seed_range_edges_are_distinct_streams(capsys):
    # before seeds were range-checked, -3 ran the stream of 2^64 - 3
    args = ["common-roots", "--n", "7", "--trials", "200", "--seed"]
    code, top = run_cli(args + [str(2**64 - 3)], capsys)
    assert code == 0
    assert json.loads(top)["master_seed"] == 2**64 - 3
    assert run_cli(args + ["-3"], capsys)[0] == 2


TOKENS = ["", "x", "-1", "1/0", "3,x", "1:a", "2,0,0,2,5", "0", "1", "2", "3"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_exit_codes(data):
    """Every subcommand with each of its flags (plus --seed and --format)
    set to a malformed or tiny token, or to the flag's default text, ends in
    exit 0, 2, 3 or 4.  Tokens are at most 3, so no case runs long."""
    name = data.draw(st.sampled_from([*COMMANDS, "sweep"]))
    flags = {"seed": COMMON["seed"], "format": COMMON["format"],
             **(SWEEP_FLAGS if name == "sweep" else COMMANDS[name].flags)}
    argv = [name]
    for dest, (_, default) in flags.items():
        alphabet = TOKENS + ([default] if isinstance(default, str) else [])
        argv.append(f"--{dest.replace('_', '-')}={data.draw(st.sampled_from(alphabet))}")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4), argv


def test_cli_process_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "smallball.cli", "rho", "--entries", "1,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["rho"] == "1/2"


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "smallball.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "schema 1" in proc.stdout


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"one subcommand per operation family:\n\n```\n(.*?)```",
                      readme, re.S).group(1)
    assert block.split() == [*COMMANDS, "sweep"]
