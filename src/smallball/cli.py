"""Command-line front end.

One table, `COMMANDS`, gives each subcommand its flags (converter and
default), a call into the library and a mapper from the library's result to
the report's `results`.  Flag values resolve as table defaults < `--config`
file < flags given; `sweep` runs table entries over a grid of flag values.
Argv is read on the table: flags spelled in full, as `--flag=value` or `--flag
value` (the next token, whatever it starts with); `--timing` takes no value,
a list flag may repeat; `-h` or `--help` anywhere prints a usage line.

Reports are deterministic for a fixed configuration: all randomness flows
from --seed, which must lie in [0, 2^64).  Trial i draws from the Philox
stream with key = seed and counter block i, computed a batch of trials at a
time, so a report does not depend on the batch size.  Wall-clock time is
reported only under --timing, so identical configs give byte-identical
reports.

Exit codes: 0 success, 2 validation error, 3 budget error, 4 soundness
failure (a bound fell below the exact value it must dominate).
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from . import __version__, core, experiments, fourier, gaps, lcd, polyforms
from .types import (
    BudgetError,
    CoefficientMultiset,
    SignDistribution,
    SoundnessError,
    ValidationError,
    check_bound,
    parse_rational,
)

SCHEMA_VERSION = "1"
# Most grid cells one `sweep` may run: over a thousand times the most that
# any test, golden case or benchmark sweep runs (6).
SWEEP_CELL_BUDGET = 10_000

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "subcommand", "parameters", "master_seed",
                 "version", "results"],
    "properties": {
        "schema_version": {"type": "string"},
        "subcommand": {"type": "string"},
        "parameters": {"type": "object"},
        "master_seed": {"type": "integer"},
        "version": {"type": "string"},
        "wall_clock": {"type": ["number", "null"]},
        "results": {"type": ["object", "array"]},
    },
    "additionalProperties": False,
}

REQUIRED = object()  # flag default: the value must come from a flag or the config


# ------------------------------------------------------------- converters
# Each turns one flag's text into the value the library takes.  `_resolve`
# turns a ValueError from any of them into a ValidationError.


@lru_cache(maxsize=64)  # laws are frozen, so calls may share one
def _xi(text: str) -> SignDistribution:
    if text == "pm1":
        return SignDistribution.bernoulli_pm1()
    if text == "bool":
        return SignDistribution.boolean_01()
    if text.startswith("lazy:"):
        return SignDistribution.lazy(parse_rational(text.split(":", 1)[1]))
    raise ValidationError(f"unknown sign law {text!r} (pm1, bool, lazy:MU)")


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _rationals(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in text.replace(",", " ").split()]


def _matrix(text: str) -> polyforms.SymmetricCoefficientMatrix:
    rows = [r for r in text.split(";") if r.strip()]
    return polyforms.SymmetricCoefficientMatrix.of(
        [[parse_rational(x) for x in row.replace(",", " ").split()] for row in rows])


def _terms(text: str) -> str:
    """A term-list file's contents, or inline terms separated by ';'."""
    if os.path.exists(text):
        with open(text) as fh:
            return fh.read()
    return text.replace(";", "\n")


def _bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValidationError(f"{text!r} must be >= 1")
    return value


def _choice(convert: Callable, *options) -> Callable:
    def conv(text):
        value = convert(text)
        if value not in options:
            raise ValidationError(f"{text!r} is not one of {', '.join(map(str, options))}")
        return value
    return conv


# ---------------------------------------------------------- result helpers


def _versus(bound: float, exact: Fraction) -> dict:
    """A bound next to the exact value it dominates."""
    return {"bound": bound, "exact": exact, "ratio": bound / float(exact) if exact else None}


def _sound(results, holds: bool, failure: str):
    """`results`, or a SoundnessError when a checked inequality fails."""
    if not holds:
        raise SoundnessError(failure)
    return results


def _fp_results(ctx, a) -> dict:
    bound = fourier.fp_exponential_bound(ctx)
    exact, _ = core.concentration_probability(a.entries)
    check_bound(bound, exact, "fp")
    return {"p": ctx.p, **_versus(bound, exact)}


def _multi_rho_results(r, a) -> dict:
    prob, terms, bound = r
    check_bound(bound, prob, "multilinear")
    return {"prob": prob, "r": terms, "bound": bound}


def _pairs_of(values: list) -> list:
    if len(values) % 2:
        raise ValidationError("d=2 input needs an even number of scalars")
    return list(zip(values[0::2], values[1::2]))


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class Command:
    """flags: dest -> (converter, default text); call: values -> library
    result; result: (library result, values) -> the report's `results`.
    Calls look library functions up through their module every time, so a
    wrapper bound to the module attribute sees them."""

    name: str
    flags: dict[str, tuple[Callable, Any]]
    call: Callable
    result: Callable = lambda r, a: r  # `_jsonable` reads r.to_json_dict()

    def run(self, a):
        return self.result(self.call(a), a)


COMMON = {
    "output": (str, None),
    "format": (_choice(str, "json", "csv"), "json"),
    "seed": (int, 0),  # default read from SMALLBALL_SEED at each call
    "config": (str, None),
    "timing": (_bool, "false"),
}
ENTRIES = (CoefficientMultiset.from_text, REQUIRED)
PAIRS = (partial(CoefficientMultiset.from_text, d=2), REQUIRED)
RATIONAL = (parse_rational, REQUIRED)
RATIONALS = (_rationals, REQUIRED)
MATRIX = (_matrix, REQUIRED)
POLY = (_terms, REQUIRED)
INT = (int, REQUIRED)
XI = (_xi, "pm1")

COMMANDS: dict[str, Command] = {c.name: c for c in [
    Command("dist", {"entries": (str, REQUIRED), "xi": XI, "d": (_choice(int, 1, 2), 1)},
            lambda a: core.exact_sign_sum_distribution(
                CoefficientMultiset.from_text(a.entries, a.d), a.xi),
            lambda law, a: {"csv": law.to_csv()} if a.format == "csv" else law),
    Command("rho", {"entries": ENTRIES, "xi": XI},
            lambda a: core.concentration_probability(a.entries, a.xi),
            lambda r, a: {"rho": r[0], "argmax": r[1]}),
    Command("ball", {"entries": ENTRIES, "xi": XI, "radius": RATIONAL},
            lambda a: core.ball_probability_1d(a.entries, a.xi, a.radius),
            lambda r, a: {"p": r[0], "witness_center": r[1]}),
    Command("ball2d", {"entries": PAIRS, "xi": XI, "radius": RATIONAL},
            lambda a: core.ball_probability_2d(a.entries, a.xi, a.radius),
            lambda r, a: {"p": r[0], "witness_center": list(r[1])}),
    Command("flat", {"entries": PAIRS, "angle_grid": (int, 360)},
            lambda a: core.flat_direction_search(a.entries, a.angle_grid),
            lambda r, a: {"direction": list(r[0]), "offset": r[1], "far_count": r[2]}),
    Command("stanley", {"n_list": (_ints, REQUIRED)},
            lambda a: core.stanley_constant_scan(a.n_list),
            lambda rows, a: [{"n": n, "rho": rho, "scaled": s} for n, rho, s in rows]),
    Command("esseen", {"entries": ENTRIES, "xi": XI, "beta": (parse_rational, "1")},
            lambda a: fourier.check_esseen_soundness(a.entries, a.beta, a.xi),
            lambda r, a: {**_versus(r[0].bound, r[1]), "quad_error": r[0].quad_error,
                          "constant": r[0].constant}),
    Command("fp-bound", {"entries": ENTRIES},
            lambda a: fourier.FpContext.from_multiset(a.entries),
            _fp_results),
    Command("levels", {"entries": ENTRIES, "p": (int, 0), "m_max": (int, 4)},
            lambda a: fourier.FpContext.from_multiset(a.entries, p=a.p or None),
            lambda ctx, a: {"p": ctx.p, "strict": ctx.strict, "levels": [
                vars(r) for r in fourier.level_and_dual_sets(ctx, a.m_max)]}),
    Command("rl", {"entries": ENTRIES, "l": (int, 1)},
            lambda a: fourier.rl_count(a.entries, a.l),
            lambda r, a: {"r_l": r}),
    Command("lcd", {"entries": RATIONALS, "d": (_choice(int, 1, 2), 1), "alpha": RATIONAL,
                    "gamma": RATIONAL, "theta_max": (parse_rational, None),
                    "resolution": (parse_rational, "1/4")},
            lambda a: (lcd.lcd_1d(a.entries, a.alpha, a.gamma, a.theta_max, a.resolution)
                       if a.d == 1 else
                       lcd.lcd_multidim(_pairs_of(a.entries), a.alpha, a.gamma,
                                        a.theta_max, a.resolution))),
    Command("rv-bound", {"entries": RATIONALS, "xi": XI, "beta": RATIONAL, "alpha": RATIONAL,
                         "gamma": RATIONAL, "constant": (float, 2.0)},
            lambda a: lcd.check_rv_soundness(a.entries, a.beta, a.alpha, a.gamma, a.xi,
                                             a.constant),
            lambda r, a: {**_versus(r[0].bound, r[1]), "b": r[0].b,
                          "lcd": r[0].lcd.to_json_dict()}),
    Command("recurrence", {"entries": RATIONALS, "t": RATIONAL, "z": (parse_rational, "1"),
                           "beta": (parse_rational, "1"), "gamma": RATIONAL,
                           "alpha": RATIONAL, "grid_points": (int, 100001)},
            lambda a: lcd.recurrence_set_measure(a.entries, a.t, a.z, a.beta, a.gamma,
                                                 a.alpha, a.grid_points),
            lambda r, a: _sound(vars(r), not r.measure_estimate > r.lemma_bound,
                                f"recurrence measure {r.measure_estimate} exceeds "
                                f"lemma bound {r.lemma_bound}")),
    Command("gap-fit", {"entries": ENTRIES, "epsilon": (parse_rational, "0"),
                        "max_rank": (int, 2)},
            lambda a: gaps.gap_fit(a.entries, a.epsilon, a.max_rank)),
    Command("gap-forward", {"generators": RATIONALS, "bounds": (_ints, REQUIRED), "n": INT},
            lambda a: gaps.gap_forward_sample(gaps.Gap.of(a.generators, a.bounds), a.n, a.seed),
            lambda r, a: {"entries": [str(e) for e in r[0].entries], "rho": r[1],
                          "quality": r[2]}),
    Command("census", {"n": INT, "max_entry": INT, "rho_grid": RATIONALS},
            lambda a: gaps.structured_multiset_census(a.n, a.max_entry, a.rho_grid),
            lambda rows, a: [{"rho0": r, "count": c, "bound_shape": s} for r, c, s in rows]),
    Command("geo-rho", {"x": (parse_rational, None), "quad": (_ints, None), "n": INT},
            lambda a: gaps.geometric_progression_rho(a.x, a.n, a.quad),
            lambda r, a: {"rho": r}),
    Command("quad-rho", {"matrix": MATRIX, "xi": XI},
            lambda a: polyforms.quadratic_concentration(a.matrix, a.xi),
            lambda r, a: {"rho_q": r[0], "argmax": r[1]}),
    Command("decouple", {"matrix": MATRIX, "u1": (_ints, REQUIRED), "x": (parse_rational, "0")},
            lambda a: polyforms.decoupling_check(a.matrix, tuple(a.u1), a.x),
            lambda r, a: _sound({"lhs": r[0], "joint": r[1], "holds": r[2]}, r[2],
                                "decoupling inequality violated")),
    Command("quad-gen", {"kind": (_choice(str, "gap", "lowrank", "mixed"), REQUIRED),
                         "n": INT, "gap_generators": (_rationals, None),
                         "gap_bounds": (_ints, None), "k": (_ints, None)},
            lambda a: polyforms.structured_quadratic_generator(
                a.kind, a.n, a.seed, k=a.k or None,
                gap=a.gap_generators and gaps.Gap.of(a.gap_generators, a.gap_bounds or [])),
            lambda r, a: _sound({"n": a.n, "rho_q": r[1], "predicted_floor": r[2]},
                                r[1] >= r[2], f"rho_q {r[1]} below predicted floor {r[2]}")),
    Command("multi-rho", {"poly": POLY, "n": INT, "x": (parse_rational, "0")},
            lambda a: polyforms.multilinear_concentration(
                polyforms.MultilinearPolynomial.parse(a.poly, a.n), a.x),
            _multi_rho_results),
    Command("parity-cor", {"poly": POLY, "n": INT},
            lambda a: polyforms.parity_correlation(
                polyforms.MultilinearPolynomial.parse(a.poly, a.n)),
            lambda r, a: {"correlation": r}),
    Command("singularity",
            {"kind": (_choice(str, "bernoulli_iid", "bernoulli_symmetric"), "bernoulli_iid"),
             "n": INT, "mode": (_choice(str, "exact", "monte_carlo"), "monte_carlo"),
             "trials": (int, 10000)},
            lambda a: experiments.singularity_probability(
                experiments.EnsembleSpec(a.kind, a.n), a.mode, a.trials, a.seed)),
    Command("universal", {"d": INT, "n": INT, "k": INT, "trials": (int, 1000)},
            lambda a: experiments.k_universality_check(a.d, a.n, a.k, a.trials, a.seed),
            lambda rep, a: {**rep.to_json_dict(), "benchmark_1_over_n": 1.0 / a.n, **(
                {"exact_failure_probability": experiments.k1_universality_failure_exact(
                    a.d, a.n)} if a.k == 1 else {})}),
    Command("lsv", {"kind": (_choice(str, "bernoulli_iid", "gaussian_iid"), "gaussian_iid"),
                    "n": INT, "trials": (_positive, 200)},  # library: 0 gives an empty sample
            lambda a: experiments.least_singular_value_mc(
                experiments.EnsembleSpec(a.kind, a.n), a.trials, a.seed),
            lambda s, a: ({"csv": s.to_csv()} if a.format == "csv" else {
                "quantiles": {str(q): v for q, v in s.quantiles().items()},
                "retries": s.retries, "trials": a.trials})),
    Command("edelman", {"t": (float, REQUIRED)},
            lambda a: experiments.edelman_cdf(a.t),
            lambda cdf, a: {"t": a.t, "cdf": cdf}),
    Command("common-roots", {"n": INT, "trials": (int, 10000)},
            lambda a: experiments.common_root_probability(a.n, a.trials, a.seed),
            lambda r, a: {**r[0].to_json_dict(), "exact_value_at_one": r[1]}),
]}

SWEEP_FLAGS = {
    "sub": (_choice(str, *COMMANDS), REQUIRED),
    "grid": (list, []),
    "fixed": (list, []),
}


# ------------------------------------------------------------ CLI plumbing


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _flags(name: str) -> dict:
    """Every flag of subcommand `name` (or `sweep`): dest -> (converter, default)."""
    return {**COMMON, **(SWEEP_FLAGS if name == "sweep" else COMMANDS[name].flags)}


def _given(name: str, flags: dict, args: list[str]) -> dict:
    """The flags given in `args`, as text (a list for a list flag)."""
    given = {}
    tokens = iter(args)
    for tok in tokens:
        key, eq, value = tok.partition("=")
        dest = key[2:].replace("-", "_")
        if dest not in flags or key != _flag(dest) or eq and flags[dest][0] is _bool:
            raise ValidationError(f"smallball {name}: bad argument {tok!r}")
        if not eq:
            value = "true" if flags[dest][0] is _bool else next(tokens, None)
        if value is None:
            raise ValidationError(f"{key} needs a value")
        given[dest] = [*given.get(dest, []), value] if isinstance(flags[dest][1], list) else value
    return given


def _config(path: str | None) -> dict:
    """Line-oriented `key = value` config; keys are flag names."""
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    out = {}
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValidationError(f"bad config line: {line!r}")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _resolve(flags: dict, given: dict):
    """(text, values) of every flag: table defaults < config < given."""
    config = _config(given.get("config"))
    for dest in {**config, **given}:
        if dest not in flags:
            raise ValidationError(f"unknown flag or config key {dest!r}")
    text = {**{dest: default for dest, (_, default) in flags.items()},
            "seed": os.environ.get("SMALLBALL_SEED", "0"), **config, **given}
    values = {}
    for dest, raw in text.items():
        if raw is REQUIRED:
            raise ValidationError(f"{_flag(dest)} is required")
        try:
            values[dest] = None if raw is None else flags[dest][0](raw)
        except ValidationError:
            raise
        except (ValueError, OSError) as exc:
            raise ValidationError(f"bad {_flag(dest)} {raw!r}: {exc}") from exc
    return text, SimpleNamespace(**values)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    return obj


def _csv(keys, rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(keys)
    for row in rows:
        w.writerow([row.get(k, "") for k in keys])
    return buf.getvalue()


def _results_to_csv(results) -> str:
    if isinstance(results, dict) and "csv" in results:
        return results["csv"]
    if isinstance(results, list):
        return _csv(sorted({k for row in results for k in row}), results)
    return _csv(["key", "value"], [{"key": k, "value": results[k]} for k in sorted(results)])


def _write(a, text: str) -> None:
    if not a.output:
        sys.stdout.write(text)
        return
    try:
        with open(a.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --output {a.output!r}: {exc}") from exc


def _report(name: str, text: dict, a, results, started: float) -> str:
    if a.format == "csv":
        return _results_to_csv(_jsonable(results))
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": name,
        # numbers as converted; every other value as given
        "parameters": {
            k: v if isinstance(v, (int, float)) else text[k]
            for k, v in sorted(vars(a).items()) if k not in COMMON
        },
        "master_seed": a.seed,
        "version": __version__,
        "wall_clock": round(time.time() - started, 3) if a.timing else None,
        "results": _jsonable(results),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flatten(d, prefix=""):
    if not isinstance(d, dict):
        return {prefix or "value": d}
    out = {}
    for k, v in d.items():
        out.update(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _sweep(a) -> str:
    """Run a subcommand over a parameter grid, one CSV row per cell.  Cell
    values go to `_resolve` as given, not re-parsed as argv: table defaults
    < the sweep's own seed < the cell's `--grid` values < `--fixed` values."""
    cmd = COMMANDS[a.sub]
    flags = _flags(a.sub)
    grids = []
    for g in a.grid:
        key, _, vals = g.partition("=")
        if not vals:
            raise ValidationError(f"bad --grid {g!r}, expected key=v1,v2")
        grids.append((key.strip(), [v for v in vals.split(",") if v]))
    cells = math.prod(max(1, len(vals)) for _, vals in grids)
    if cells > SWEEP_CELL_BUDGET:
        raise BudgetError(f"{cells} grid cells exceed SWEEP_CELL_BUDGET = {SWEEP_CELL_BUDGET}")
    fixed = {key.strip(): val for key, _, val in (f.partition("=") for f in a.fixed)}
    rows = []
    for combo in itertools.product(*(vals for _, vals in grids)):
        cell = dict(zip((k for k, _ in grids), combo))
        given = {k.replace("-", "_"): v for k, v in {"seed": a.seed, **cell, **fixed}.items()}
        try:
            results = cmd.run(_resolve(flags, given)[1])
        except (ValidationError, BudgetError, SoundnessError) as exc:
            rows.append({**cell, "status": f"error: {exc}"})
        else:
            if isinstance(results, list):
                rows += [{**cell, "row": i, **_flatten(r), "status": "ok"}
                         for i, r in enumerate(results)]
            else:
                rows.append({**cell, **_flatten(_jsonable(results)), "status": "ok"})
    return _csv(list(dict.fromkeys(k for row in rows for k in row)), rows)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.time()
    names = [*COMMANDS, "sweep"]
    try:
        name = argv[0] if argv else ""
        if name in ("--version", "-h", "--help"):
            print(f"smallball {__version__} (schema {SCHEMA_VERSION})" if name == "--version"
                  else f"usage: smallball {{{','.join(names)}}} [--flag value ...]")
            return 0
        if name not in names:
            raise ValidationError(f"unknown subcommand {name!r}; one of {', '.join(names)}")
        flags = _flags(name)
        if "-h" in argv or "--help" in argv:
            print(f"usage: smallball {name}", *(f"[{_flag(d)}]" for d in flags))
            return 0
        text, a = _resolve(flags, _given(name, flags, argv[1:]))
        _write(a, _sweep(a) if name == "sweep"
               else _report(name, text, a, COMMANDS[name].run(a), started))
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except SoundnessError as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
