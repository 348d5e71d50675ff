import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate

from smallball import fourier, lcd, polyforms
from smallball.cli import COMMANDS, COMMON, REPORT_SCHEMA, SWEEP_FLAGS, main
from smallball.core import ball_probability_1d
from smallball.types import CoefficientMultiset, SignDistribution


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


# (argv, exit code, the `--flag=value` argv whose stdout it must repeat).
# Against the argparse parser before argv was read on the command table, two
# cases change exit code: a separate value token starting with '-' (was 2)
# and an abbreviated flag (was 0).
ARGV_FORMS = [
    (["rho", "--entries", "1,2,3"], 0, ["rho", "--entries=1,2,3"]),
    (["rho", "--entries", "-4,1"], 0, ["rho", "--entries=-4,1"]),  # was 2
    (["rho", "--entries=9", "--entries", "1,2,3"], 0, ["rho", "--entries=1,2,3"]),
    (["sweep", "--sub", "ball", "--grid", "radius=0,1/2", "--grid", "xi=pm1,bool",
      "--fixed", "entries=-4,1,3"], 0,
     ["sweep", "--sub=ball", "--grid=radius=0,1/2", "--grid=xi=pm1,bool",
      "--fixed=entries=-4,1,3"]),
    (["rho", "--entries=1,2", "--timing"], 0, None),
    (["rho", "-h"], 0, None),
    (["sweep", "--help"], 0, None),
    (["rho", "--no-such-flag", "-h"], 0, None),
    (["rho", "--entries=1,2", "--timing=x"], 2, None),
    (["rho", "--entries=1", "--no-such-flag=1"], 2, None),
    (["rho", "--entries=1", "2"], 2, None),
    (["rho", "--entries"], 2, None),
    (["rho", "--ent=1,2,3"], 2, None),  # was 0
    (["stanley", "--n_list=3"], 2, None),
    (["rho", "-entries=1"], 2, None),
]


@pytest.mark.parametrize("argv, code, same_as", ARGV_FORMS,
                         ids=[" ".join(c[0]) for c in ARGV_FORMS])
def test_argv_forms(argv, code, same_as, capsys):
    got = run_cli(argv, capsys)
    assert got[0] == code
    if same_as:
        assert got == run_cli(same_as, capsys)
    if "--timing" in argv:
        assert json.loads(got[1])["wall_clock"] >= 0


@pytest.mark.parametrize("value, code", [("float(exact)", 4), (math.inf, 0), (math.nan, 4)])
@pytest.mark.parametrize("argv, module, name", [
    (["esseen", "--beta=1/2"], fourier, "esseen_bound"),
    (["rv-bound", "--beta=2", "--alpha=2", "--gamma=1/4"], lcd, "rv_smallball_bound"),
], ids=["esseen", "rv-bound"])
def test_bounds_compare_with_exact_values_exactly(argv, module, name, value, code,
                                                 capsys, monkeypatch):
    # float(exact) rounds 223/648 and 56/81 down, so a bound equal to it lies
    # below the exact value and must fail, as must NaN; +inf holds
    xi, beta = SignDistribution.lazy(Fraction(1, 3)), Fraction(argv[1].split("=")[1])
    exact, _ = ball_probability_1d(CoefficientMultiset.of([1, 2, 2, 3]), xi, beta)
    assert Fraction(float(exact)) < exact
    bound = float(exact) if value == "float(exact)" else value
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a: dataclasses.replace(real(*a), bound=bound))
    argv = argv + ["--entries=1,2,2,3", "--xi=lazy:1/3"]
    assert run_cli(argv, capsys)[0] == code


@pytest.mark.parametrize("value, code", [(math.inf, 0), (math.nan, 4)])
def test_fp_bound_infinite_holds_nan_fails(value, code, capsys, monkeypatch):
    monkeypatch.setattr(fourier, "fp_exponential_bound", lambda ctx: value)
    assert run_cli(["fp-bound", "--entries=1,2,3"], capsys)[0] == code


@pytest.mark.parametrize("value, code", [("float(prob)", 0), ("below", 4), (math.inf, 0),
                                         (math.nan, 4)])
def test_multi_rho_bound_compares_with_the_exact_probability(value, code, capsys,
                                                             monkeypatch):
    # prob = 3/8 is a float: a bound equal to it holds, the next float below
    # it fails, as does NaN, and +inf holds
    real = polyforms.multilinear_concentration

    def patched(P, x):
        prob, r, _ = real(P, x)
        bound = {"float(prob)": float(prob),
                 "below": math.nextafter(float(prob), 0.0)}.get(value, value)
        return prob, r, bound

    monkeypatch.setattr(polyforms, "multilinear_concentration", patched)
    assert run_cli(["multi-rho", "--poly=1: 0 1;1: 2 3", "--n=4", "--x=1"], capsys)[0] == code


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


HUGE = str(10**400)


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
    # a resolution <= 0 never ends the candidate grid
    ["lcd", "--entries", "1,2", "--alpha", "1/8", "--gamma", "1/2", "--resolution", "0"],
    ["lcd", "--d", "2", "--entries", "2,0,0,2", "--alpha", "1/8", "--gamma", "1/2",
     "--resolution=-1/4"],
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
    # rationals beyond the float range, or a nonzero one that rounds to 0
    ["lcd", "--d", "2", "--entries", f"{HUGE},0,0,{HUGE}", "--alpha", "1/8", "--gamma", "1/2"],
    ["recurrence", "--entries", HUGE, "--t", "1/16", "--gamma", "1/2", "--alpha", "1",
     "--grid-points", "10"],
    ["recurrence", "--entries", "1", "--t", "1/16", "--gamma", f"1/{HUGE}", "--alpha", "1",
     "--grid-points", "10"],
    ["rv-bound", "--entries", "1,1", "--beta", HUGE, "--alpha", "1/8", "--gamma", "1/2"],
    ["rv-bound", "--entries", "1,1", "--beta", "2", "--alpha", HUGE, "--gamma", "1/2"],
    # a constant that is not finite and positive: nan and inf printed NaN and
    # Infinity with exit 0, 0 and negative ones failed as unsound (exit 4)
    *(["rv-bound", "--entries=1,1", "--beta=2", "--alpha=1/8", "--gamma=1/2", f"--constant={c}"]
      for c in ("nan", "inf", "0", "-2")),
    # a negative t measured the set for |t| and failed as unsound (exit 4)
    ["recurrence", "--entries=1", "--t=-1/8", "--gamma=1/2", "--alpha=1", "--grid-points=1001"],
    # rank 3 ran exactly the rank-2 path
    ["gap-fit", "--entries=1,2,3", "--max-rank=3"],
    # user rationals that reached float() unchecked: ZeroDivisionError or
    # OverflowError
    ["esseen", "--entries=1", f"--beta=1/{HUGE}"],
    ["esseen", "--entries=1", f"--beta={HUGE}"],
    ["esseen", f"--entries={HUGE}", "--beta=1"],
    # a subnormal beta: 1 / beta overflowed to inf, and cos(inf) raised
    ["esseen", "--entries=1", f"--beta=1/{10**309}"],
    ["flat", f"--entries={HUGE},1,2,3"],
    ["ball2d", f"--entries={HUGE},0,0,1", "--radius=1"],
])
def test_malformed_input_exit_code(args, capsys):
    assert run_cli(args, capsys)[0] == 2


def test_derived_values_past_the_float_range(capsys):
    # the census shape and the gap-fit quality raised ZeroDivisionError or
    # OverflowError; past the float range they read inf, and a shape whose
    # rho0^-n alone overflows keeps its finite value
    rows = [r.split(",") for r in run_cli(
        ["census", "--n=40", "--max-entry=1", "--rho-grid=1/10000000000,1/100",
         "--format=csv"], capsys)[1].split()]
    assert rows[1:] == [["9.094947017729275e+47", "41", "1/100"],
                        ["inf", "41", "1/10000000000"]]
    code, out = run_cli(["census", "--n=1", "--max-entry=1", f"--rho-grid=1/{HUGE}"], capsys)
    assert code == 0 and json.loads(out)["results"][0]["bound_shape"] == math.inf
    code, out = run_cli(["census", "--n=100", "--max-entry=1", "--rho-grid=1/10000"], capsys)
    shape = json.loads(out)["results"][0]["bound_shape"]
    assert abs(shape / 1e300 - 1) < 1e-9  # (10^4 / 100^(1/2))^100
    code, out = run_cli(["gap-fit", f"--entries={HUGE},1"], capsys)
    res = json.loads(out)["results"]
    assert code == 0 and res["quality"] == math.inf and res["volume"] == 2 * 10**400 + 1
    # a volume past the float range with a quality inside it
    entries = [3**j for j in range(13)] + [10**309]
    res = json.loads(run_cli(["gap-fit", "--entries=" + ",".join(map(str, entries))],
                             capsys)[1])["results"]
    want = Fraction(res["rho"]) * res["volume"] * math.sqrt(14)
    assert res["volume"] > 10**309 and abs(res["quality"] / float(want) - 1) < 1e-12


def test_quad_gen_low_rank_part_beyond_int64(capsys):
    # k = 10^400 raised OverflowError when the entries went into int64; the
    # low-rank part is exact, as the GAP part is
    code, out = run_cli(["quad-gen", "--kind=lowrank", "--n=3", f"--k={HUGE},1,1"], capsys)
    assert code == 0
    assert json.loads(out)["results"] == {"n": 3, "rho_q": "1/4", "predicted_floor": "0/1"}


def test_rv_bound_alpha_whose_square_overflows(capsys):
    # float(alpha) = 1e200 is in range but its square is not: the
    # exp(-2 b alpha^2) term is 0, not an OverflowError
    code, out = run_cli(["rv-bound", "--entries", "1,1", "--beta", "2",
                         "--alpha", str(10**200), "--gamma", "1/2"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["b"] == "1/2"
    assert res["bound"] == 2.0 * 2 / (0.5 * math.sqrt(0.5))  # C beta / (gamma sqrt(b))


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


# a CLI child that reports its own peak RSS in KiB on its last stderr line
# (VmHWM: getrusage's ru_maxrss would count this process's pages, kept
# across the exec)
PEAK_RSS_CHILD = (
    "import re, sys; from pathlib import Path; from smallball.cli import main; "
    "c = main(sys.argv[1:]); "
    "print(re.search(r'VmHWM:\\s*(\\d+)', Path('/proc/self/status').read_text())[1], "
    "file=sys.stderr); sys.exit(c)")


def test_quad_gen_beyond_int64_bounded_memory():
    # past the int64 guard rho_q works on object blocks of Python ints; at
    # 2^20 values a block took this case to 205 MB peak RSS, at 2^16 about
    # 51 MB
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "quad-gen", "--kind", "gap", "--n", "20",
         "--gap-generators", str(10**19), "--gap-bounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["n"] == 20
    assert int(proc.stderr.split()[-1]) < 120 * 1024


def test_rho_of_a_law_of_4_million_atoms_bounded_memory():
    # rho on 1, 2, 4, ..., 2^21: 2^22 atoms, which as a dict of Python ints
    # took this case to 0.55 GB peak RSS; the law now stays int64 arrays
    entries = ",".join(str(2**j) for j in range(22))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, "rho", f"--entries={entries}"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["rho"] == f"1/{2**22}"
    assert int(proc.stderr.split()[-1]) * 1024 < 0.15 * 10**9


def test_recurrence_at_budget_bounded_memory():
    # the grid is evaluated in numpy blocks of lcd.RECURRENCE_BLOCK points,
    # so a scan at the full budget peaks near the interpreter's own size
    # (about 35 MB); one array over all 2e7 points would take 160 MB
    from smallball.lcd import RECURRENCE_BUDGET

    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "recurrence", "--entries=1", "--t=1/16",
         "--gamma=1/2", "--alpha=1", f"--grid-points={RECURRENCE_BUDGET}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["measure_estimate"] == 0.25
    assert int(proc.stderr.split()[-1]) < 80 * 1024


def test_census_refused_before_its_universe_is_built():
    # the list of the 2M nonzero entries was built before the budget check:
    # 2*10^6 Python ints took this case to about 109 MB peak RSS, and
    # --max-entry 10^11 ran out of memory
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "census", "--n=2", "--max-entry=1000000",
         "--rho-grid=1/2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert int(proc.stderr.split()[-1]) < 80 * 1024


@pytest.mark.parametrize("args", [
    pytest.param(["rho", "--entries", ",".join(str(2**j * 10**2000) for j in range(24))],
                 id="rho-wide-keys"),
    pytest.param(["geo-rho", "--x=1/1000000000000", "--n=3000"], id="geo-rho-x"),
    pytest.param(["geo-rho", "--quad=3,1", "--n=20000"], id="geo-rho-quad"),
    pytest.param(["lcd", "--entries=1,2", "--alpha=1/100", "--gamma=1/2",
                  "--resolution=1/1000000"], id="lcd"),
    pytest.param(["rv-bound", "--entries=1,2", "--beta=1", "--alpha=1/100",
                  "--gamma=1/1000000"], id="rv-bound"),
    pytest.param(["recurrence", "--entries=1,2", "--t=1/16", "--gamma=1/2", "--alpha=1",
                  "--grid-points=100000000"], id="recurrence"),
    pytest.param(["lsv", "--n=1", "--trials=1000000"], id="lsv"),
    # four equal entries share one factor per node, but the quadrature
    # budget still charges all four
    pytest.param(["esseen", "--entries=1,1,1,1", "--beta=1/100000"], id="esseen-repeated"),
    pytest.param(["census", "--n=1", f"--max-entry={10**11}", "--rho-grid=1/2"], id="census"),
    pytest.param(["gap-forward", "--generators=1", "--bounds=2", f"--n={10**10}"],
                 id="gap-forward-n-1e10"),
    pytest.param(["gap-forward", "--generators=1", "--bounds=2", f"--n={10**5}"],
                 id="gap-forward-n-1e5"),
    pytest.param(["flat", "--entries=1,0,0,1", f"--angle-grid={10**21}"], id="flat"),
    pytest.param(["stanley", "--n-list=1201"], id="stanley-kernel-work"),
    pytest.param(["ball2d", "--entries=1,0,3,0,9,0,27,0,81,0,0,1,0,3,0,9,0,27,0,81",
                  "--radius=1"], id="ball2d-disk-work"),
    # the message printed n^(2l), 60,206 digits, which str() refuses
    pytest.param(["rl", "--entries=1,2", "--l=100000"], id="rl-l-1e5"),
    # the process was killed while it took n^(2l)
    pytest.param(["rl", "--entries=1,2", f"--l={HUGE}"], id="rl-l-huge"),
    # one entry: n^(2l) = 1, but l steps went into a list
    pytest.param(["rl", "--entries=1", f"--l={HUGE}"], id="rl-one-entry-l-huge"),
    pytest.param(["rl", "--entries=1", "--l=100000000"], id="rl-one-entry-l-1e8"),
    # the multiset was built before the kernel refused it
    pytest.param(["stanley", "--n-list=5000001"], id="stanley-n-5e6"),
    # the search for a prime above 2^15000 x 15001 ran for minutes
    pytest.param(["fp-bound", "--entries=" + ",".join(["1"] * 15000)], id="fp-bound-prime"),
    pytest.param(["levels", "--entries=" + ",".join(["1"] * 15000)], id="levels-prime"),
    # 10^12 trials ran until a timer stopped them
    pytest.param(["singularity", "--n=3", f"--trials={10**12}"], id="singularity-trials"),
    pytest.param(["common-roots", "--n=3", f"--trials={10**12}"], id="common-roots-trials"),
    pytest.param(["universal", "--d=10", "--n=5", "--k=1", f"--trials={10**12}"],
                 id="universal-trials"),
    # json.dumps raised ValueError on the volume's 4,301 digits
    pytest.param(["gap-fit", "--entries=" + "9" * 4300 + ",1"], id="gap-fit-volume-digits"),
    # the message printed a volume of 4,800 digits, which str() refuses
    pytest.param(["gap-forward", "--generators=" + ",".join(["1"] * 12),
                  "--bounds=" + ",".join([HUGE] * 12), "--n=3"], id="gap-forward-volume"),
    pytest.param(["quad-gen", "--kind=gap", "--gap-generators=" + ",".join(["1"] * 12),
                  "--gap-bounds=" + ",".join([HUGE] * 12), "--n=3"], id="quad-gen-volume"),
])
def test_input_past_a_budget_exits_3_in_bounded_memory(args):
    # without its budget each input runs out of memory or runs for minutes;
    # in a child capped at 1 GiB of address space it must be refused at
    # once, with a message of bounded length
    proc = _capped_cli(args)
    assert proc.returncode == 3, proc.stderr[-400:]
    assert len(proc.stderr) < 1000


@pytest.mark.parametrize("args,code", [
    pytest.param(["esseen", "--entries=1", f"--beta=1/{HUGE}"], 2, id="esseen-beta-tiny"),
    pytest.param(["esseen", "--entries=1", f"--beta={HUGE}"], 2, id="esseen-beta-huge"),
    pytest.param(["esseen", f"--entries={HUGE}", "--beta=1"], 2, id="esseen-entry-huge"),
    pytest.param(["flat", f"--entries={HUGE},1,2,3"], 2, id="flat"),
    pytest.param(["ball2d", f"--entries={HUGE},0,0,1", "--radius=1"], 2, id="ball2d"),
    # best centres m + sqrt(q) w of pairs: the first and the last ended in
    # an OverflowError at float(q); the second reads a q = R^2/4 - 1/4 past
    # the float range, and the last a midpoint past it
    pytest.param(["ball2d", f"--entries=1,0,0,{10**200 - 1}", f"--radius={10**200}"], 0,
                 id="ball2d-pair-centre"),
    pytest.param(["ball2d", f"--entries=0,1,{10**200 - 1},0", f"--radius={10**200}"], 0,
                 id="ball2d-pair-root"),
    pytest.param(["ball2d", f"--entries=2,0,0,{4 * 10**308}", "--xi=bool",
                  f"--radius={2 * 10**308 + 1}"], 2, id="ball2d-pair-centre-huge"),
    pytest.param(["gap-fit", f"--entries={HUGE},1"], 0, id="gap-fit"),
    pytest.param(["census", "--n=1", "--max-entry=1", f"--rho-grid=1/{HUGE}"], 0,
                 id="census-rho-tiny"),
    pytest.param(["census", "--n=40", "--max-entry=1", "--rho-grid=1/10000000000"], 0,
                 id="census-shape-huge"),
    pytest.param(["quad-gen", "--kind=lowrank", "--n=3", f"--k={HUGE},1,1"], 0, id="quad-gen"),
])
def test_float_range_input_ends_cleanly_in_bounded_memory(args, code):
    # each ended in a traceback at a float conversion or an int64 array
    proc = _capped_cli(args)
    assert proc.returncode == code, proc.stderr[-400:]


def _capped_cli(args):
    """The CLI on `args` in a child capped at 1 GiB of address space and
    20 s, so that an unbudgeted allocation fails there, not here."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run([sys.executable, "-m", "smallball.cli", *args],
                          capture_output=True, text=True, preexec_fn=cap, timeout=20)


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
