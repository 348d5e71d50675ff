"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --seeds 601-610 --seconds 15
    python3 perfbench/baseline.py --workloads disk-2d --seeds 1-5 --no-trace
    python3 perfbench/baseline.py --seeds 601-610 --out perfbench/baseline.json

For each workload, one `run.py --trace 0` process per seed, one after the
other, as a benchmark driver would run them; then one `--trace 1` run.  Each
end-to-end metric is summarised by its median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance as
a share of the median, which is what the bounds in BENCHMARK.json are
compared with.  `--out` writes the numbers, the environment and the traced
per-layer metrics as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stderr.splitlines()
    env, stderr_summary = json.loads(lines[0])["env"], json.loads(lines[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1]), stderr_summary, env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=seeds("601-610"))
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace-seed", type=int, default=7)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    env = None
    end_to_end, per_layer = {}, {}
    for wl in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            res, summ, env = run(wl, seed, args.seconds, 0)
            res["uncorrected"] = summ["uncorrected"]
            results.append(res)
            print(wl, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  "uncorrected", {k: round(v, 4) for k, v in summ["uncorrected"].items()},
                  flush=True)
        entry = {"seeds": args.seeds, "attempted": [r["attempted"] for r in results],
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results)}
        for name in results[0]["metrics"]:
            entry[name] = summary([r["metrics"][name]["value"] for r in results])
            raw = summary([r["uncorrected"][name] for r in results])
            entry[name]["uncorrected"] = raw
            s = entry[name]
            print(f"  {name:14s} median {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                  f"spread {s['iqr_over_median']:.3f} (uncorrected {raw['iqr_over_median']:.3f})",
                  flush=True)
        end_to_end[wl] = entry
        if not args.no_trace:
            res, _, _ = run(wl, args.trace_seed, args.seconds, 1)
            metrics = {k: v["value"] for k, v in res["metrics"].items()}
            selfs = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
            total = sum(selfs.values())
            share = {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])
                     if v / total >= 0.005}
            per_layer[wl] = {"seed": args.trace_seed, "queries": res["attempted"],
                             "correct": res["correct"], "traced_self_s_total": total,
                             "self_share": share, "metrics": metrics}
            print("  traced shares:", {k: round(v, 3) for k, v in share.items()}, flush=True)
    if args.out:
        env = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
        Path(args.out).write_text(json.dumps(
            {"env": env, "end_to_end": end_to_end, "per_layer": per_layer}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
