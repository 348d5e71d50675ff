"""smallball benchmark: seeded CLI query streams, checked outputs, traced layers.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports `smallball` from `src/`.
One process, one client, closed loop: each query is one in-process
`smallball.cli.main(argv)` call; the next starts when the previous returns.
Timings are corrected for the host's changing speed (see `hostspeed.py`).
Every output is checked against an independent reference after the timed
section.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  Environment and a summary go to
stderr; `--dump PATH` also writes the generated argv (for replay with
`python -m smallball.cli`), the environment and, when tracing, the spans.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

MIN_QUERIES = 100  # so that at least ten samples lie beyond the p90
SETUP_SAMPLES = 5
# Rounds in the traced pass, whole periods: a fixed query list, so per-layer
# counts repeat exactly for a seed; sized to about 10 s on a 2-core VM.
TRACE_ROUNDS = {"exact-dense": 12, "exact-sparse": 12, "disk-2d": 6, "monte-carlo": 4}

SETUP_CODE = """
import time
t0 = time.perf_counter()
import contextlib, io
import smallball
from smallball import arith, cli, core, experiments, fourier, gaps, lcd, polyforms, types
import scipy.linalg
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["rho", "--entries=1,2,3"]) == 0
print(time.perf_counter() - t0)
"""

END_TO_END = (
    ("setup_s", "s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


def measure_setup() -> list[float]:
    """Seconds each of SETUP_SAMPLES fresh interpreters takes to import
    smallball, its modules and scipy.linalg and to answer one query."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": sha, "src_sha256": src_digest.hexdigest(),
        **{v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")},
    }


def run_query(cli, argv):
    """(exit code, stdout, stderr, seconds); SystemExit and exceptions are
    failures with a nonzero code."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) and exc.code else 1
    except Exception as exc:  # a raising query is a failed query, not a crash
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def timed_loop(cli, rounds, period, seconds):
    """Closed loop over whole periods of rounds, until `seconds` of query
    time and MIN_QUERIES queries: every run then holds the same traffic mix,
    however many periods it completes.  Returns the records and the host
    probe time taken right before each query."""
    records, probes = [], []
    busy = 0.0
    for r, queries in enumerate(rounds, 1):
        for q in queries:
            probes.append(hostspeed.probe())
            code, out, err, dt = run_query(cli, q.argv)
            records.append((q, code, out, err, dt))
            busy += dt
        if r % period == 0 and busy >= seconds and len(records) >= MIN_QUERIES:
            return records, probes


def check_records(records):
    import checks

    failures = []
    for q, code, out, err, _ in records:
        try:
            errors = checks.check(q, code, out)
        except Exception as exc:  # malformed output is a failed check
            errors = [f"checker raised {type(exc).__name__}: {exc}"]
        if code != 0 and err:
            errors.append(err.strip().splitlines()[-1][:200])
        if errors:
            failures.append({"argv": q.argv, "errors": errors})
    return failures


def percentile(sorted_vals, q):
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[q - 1]


def end_to_end(times, setup_s, rss_kb):
    lat = sorted(t * 1000.0 for t in times)
    return {
        "setup_s": setup_s,
        "queries_per_s": len(times) / sum(times),
        "query_p50_ms": statistics.median(lat),
        "query_p90_ms": percentile(lat, 90),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def trace_probe(cli, tracing):
    """The fixed probe's call tree, and identical traced/untraced reports."""
    argv = ["esseen", "--entries=1,2,3", "--beta=1"]
    plain = run_query(cli, argv)[1]
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.query = 0
        traced = run_query(cli, argv)[1]
        tracer.end_query()
        tracer.query = 1
        run_query(cli, ["singularity", "--n=3", "--mode=exact"])
    finally:
        tracer.uninstall()
    want = [("cli.main", [
        ("fourier.esseen_bound", [], {}),
        ("core.ball_probability_1d", [
            ("core.exact_sign_sum_distribution", [], {"types.ExactDistribution": 1})], {}),
    ], {})]
    want_mc = [("cli.main", [("experiments.singularity_probability", [],
                              {"arith.bareiss_determinant": 512})], {})]
    return (tracer.tree(0) == want and tracer.tree(1) == want_mc and plain == traced
            and _bindings() == before)


def _bindings():
    """Identity of every smallball module attribute, to prove restoration."""
    from smallball.types import ExactDistribution

    out = {(m, k): id(v) for m, mod in sys.modules.items()
           if m.startswith("smallball") for k, v in vars(mod).items()}
    out["post_init"] = id(ExactDistribution.__dict__["__post_init__"])
    return out


def traced_run(cli, tracing, queries):
    """Traced pass over a fixed query list, then an untraced replay of it.
    The overhead compares the two passes' wall times corrected for host
    speed, which may change between them."""
    tracer = tracing.Tracer()
    records, probes = [], []
    tracer.install()
    try:
        for i, q in enumerate(queries):
            tracer.query = i
            probes.append(hostspeed.probe())
            records.append((q, *run_query(cli, q.argv)))
            tracer.end_query()
    finally:
        tracer.uninstall()
    replay, replay_probes = [], []
    for q in queries:
        replay_probes.append(hostspeed.probe())
        replay.append((q, *run_query(cli, q.argv)))
    traced_wall = sum(hostspeed.corrected([r[4] for r in records], probes))
    plain_wall = sum(hostspeed.corrected([r[4] for r in replay], replay_probes))
    mismatched = sum(1 for a, b in zip(records, replay) if a[1:4] != b[1:4])
    report_bytes = sum(len(r[2].encode()) for r in records)
    return tracer, records, tracer.metrics(traced_wall / plain_wall - 1.0, report_bytes), mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--dump", default=None, help="write argv, environment and spans here")
    args = ap.parse_args(argv)

    if not (SRC / "smallball" / "cli.py").is_file():
        print(f"benchmark: no smallball sources under {SRC}", file=sys.stderr)
        return 2
    phases = {}
    t_phase = time.perf_counter()

    def phase(name):
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = now - t_phase
        t_phase = now

    setup_samples = [] if args.trace else measure_setup()
    setup_s = statistics.median(setup_samples) if setup_samples else None
    phase("setup")
    sys.path.insert(0, str(SRC))
    import checks
    from smallball import arith, cli, core, experiments, fourier, gaps, lcd, polyforms, types  # noqa: F401

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["rho", "--entries=1,2,3"])
    import scipy.linalg  # noqa: F401  (part of set-up, as in measure_setup)
    # Warm-up: from one round of an independent stream of the same shape, the
    # first query of each subcommand, mode and sign law, so that no timed
    # call pays a lazy import or a first call.  Neither timed nor counted.
    seen = set()
    for q in next(workloads.rounds(args.workload, args.seed, ":warm-up")):
        key = (q.kind, q.data.get("mode"), q.data.get("xi"))
        if key not in seen:
            seen.add(key)
            run_query(cli, q.argv)
    phase("warm_up")

    env = environment(args)
    print(json.dumps({"env": env}), file=sys.stderr)
    selftests = {"fault_injection": checks.fault_injection_selftest()}
    if args.trace:
        import tracing

        selftests["trace_probe"] = trace_probe(cli, tracing)
        queries = workloads.stream(args.workload, args.seed, TRACE_ROUNDS[args.workload])
        tracer, records, metrics, mismatched = traced_run(cli, tracing, queries)
        selftests["traced_reports_identical"] = mismatched == 0
        units = dict(tracing.layer_metric_names())
    else:
        tracer = None
        records, probes = timed_loop(cli, workloads.rounds(args.workload, args.seed),
                                     workloads.PERIOD[args.workload], args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = [r[4] for r in records]
        metrics = end_to_end(hostspeed.corrected(times, probes), setup_s, rss_kb)
        raw = end_to_end(times, setup_s, rss_kb)
        raw["probe_median_ms"] = statistics.median(probes) * 1000.0
        units = dict(END_TO_END)

    phase("timed")
    failures = check_records(records)
    phase("check")
    failed_ratio = len(failures) / len(records)
    if args.trace:
        metrics["failed_ratio"] = failed_ratio
        units["failed_ratio"] = "ratio"
    summary = {"queries": len(records), "failed_ratio": failed_ratio,
               "selftests": selftests, "failures": failures[:5], "phases_s": phases}
    if not args.trace:
        summary["uncorrected"] = raw
        summary["setup_samples_s"] = setup_samples
    print(json.dumps(summary), file=sys.stderr)
    if args.dump:
        dump = {"env": env, "argv": [r[0].argv for r in records], "summary": summary}
        if tracer is not None:
            dump["spans"] = [[s.query, s.sid, s.parent, s.name, s.start, s.end, s.leaves]
                             for s in tracer.spans]
        Path(args.dump).write_text(json.dumps(dump))

    result = {
        "correct": not failures and all(selftests.values()),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
