"""Per-layer tracing from outside the program.

The tracer wraps the public boundary functions of each smallball module and
patches *every* module-namespace binding of each wrapped function object,
because `fourier`, `gaps`, `polyforms` and `experiments` bind `core`/`arith`
functions at import time while the CLI imports lazily per call.  Helpers are
not wrapped.  `types.ExactDistribution` is traced through its construction
check (`__post_init__`).

Spans: name, start, end, parent span and query id.  High-frequency leaf calls
are not spans; they are aggregated per parent span as (calls, seconds), so
span memory stays bounded.  Self time is span time minus child time.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

BOUNDARY = (
    "cli.main",
    "core.exact_sign_sum_distribution", "core.bernoulli_int_counts",
    "core.concentration_probability", "core.ball_probability_1d",
    "core.ball_probability_2d", "core.disk_mass", "core.flat_direction_search",
    "core.stanley_constant_scan",
    "types.ExactDistribution",
    "fourier.esseen_bound", "fourier.fp_exponential_bound", "fourier.next_prime",
    "fourier.level_and_dual_sets", "fourier.rl_count",
    "lcd.lcd_1d", "lcd.lcd_multidim", "lcd.rv_smallball_bound",
    "lcd.recurrence_set_measure",
    "gaps.gap_fit", "gaps.gap_forward_sample", "gaps.gap_materialize",
    "gaps.structured_multiset_census", "gaps.geometric_progression_rho",
    "polyforms.quadratic_concentration", "polyforms.decoupling_check",
    "polyforms.structured_quadratic_generator", "polyforms.multilinear_concentration",
    "polyforms.parity_correlation",
    "experiments.singularity_probability", "experiments.substream",
    "experiments.common_root_probability", "experiments.least_singular_value_mc",
    "experiments.k_universality_check",
    "arith.bareiss_determinant", "arith.poly_gcd_degree_modp", "arith.poly_gcd_int",
)

# Called per trial, per matrix or per candidate centre: aggregated, not spans.
LEAVES = frozenset({
    "experiments.substream", "arith.poly_gcd_degree_modp",
    "arith.bareiss_determinant", "core.disk_mass", "arith.poly_gcd_int",
    "core.bernoulli_int_counts", "types.ExactDistribution",
})

COUNTERS = (
    ("core.exact_sign_sum_distribution.atoms", "count"),
    ("core.ball_probability_2d.candidates", "count"),
    ("cli.main.report_bytes", "bytes"),
    ("experiments.mc.trials", "count"),
    ("experiments.singularity.confirm_yield", "ratio"),
    ("arith.gcd_screen_escape_ratio", "ratio"),
    ("experiments.lsv.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metric_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = []
    for b in BOUNDARY:
        out += [(f"{b}.calls", "count"), (f"{b}.self_s", "s")]
    return out + list(COUNTERS)


class Span:
    __slots__ = ("sid", "parent", "name", "query", "start", "end", "child", "leaves")

    def __init__(self, sid, parent, name, query, start):
        self.sid, self.parent, self.name, self.query = sid, parent, name, query
        self.start, self.end, self.child = start, None, 0.0
        self.leaves: dict = {}


class Tracer:
    """Install with `install()`, always `uninstall()` in a finally block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.query = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.pending: list = []  # (2-D law, R) to count candidates after the query
        self._last_law = None
        self._restore: list = []

    # ------------------------------------------------------------ patching
    def install(self):
        mods = {m: importlib.import_module(f"smallball.{m}")
                for m in ("cli", "core", "types", "fourier", "lcd", "gaps",
                          "polyforms", "experiments", "arith")}
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "smallball" or name.startswith("smallball.")]
        for full in BOUNDARY:
            mod_name, attr = full.split(".")
            if full == "types.ExactDistribution":
                cls = mods["types"].ExactDistribution
                orig = cls.__dict__["__post_init__"]
                self._restore.append((cls, "__post_init__", orig))
                setattr(cls, "__post_init__", self._leaf(full, orig))
                continue
            orig = getattr(mods[mod_name], attr)
            wrapper = self._leaf(full, orig) if full in LEAVES else self._span(full, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------ wrappers
    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), parent.sid if parent else None, name,
                        tracer.query, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                dur = span.end - span.start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - span.child
                if parent is not None:
                    parent.child += dur
            tracer._count(name, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur
                if tracer.stack:
                    parent = tracer.stack[-1]
                    parent.child += dur
                    agg = parent.leaves.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ counters
    def _count(self, name, span, args, kwargs, result):
        c = self.counters
        if name == "core.exact_sign_sum_distribution":
            c["core.exact_sign_sum_distribution.atoms"] += len(result.atoms)
            self._last_law = result
        elif name == "core.ball_probability_2d":
            R = args[2] if len(args) > 2 else kwargs["R"]
            self.pending.append((self._last_law, R))
        elif name == "experiments.singularity_probability":
            c["experiments.mc.trials"] += result.trials
            if result.mode == "monte_carlo":
                c["singularity.mc_successes"] += result.successes
                c["singularity.mc_bareiss"] += span.leaves.get(
                    "arith.bareiss_determinant", [0])[0]
        elif name == "experiments.common_root_probability":
            c["experiments.mc.trials"] += result[0].trials
        elif name == "experiments.k_universality_check":
            c["experiments.mc.trials"] += result.trials
        elif name == "experiments.least_singular_value_mc":
            c["experiments.mc.trials"] += len(result.values)
            c["experiments.lsv.retries"] += result.retries

    def end_query(self):
        """Settle deferred counters outside every span's time."""
        import numpy as np

        for law, R in self.pending:
            pts = np.array([[float(x), float(y)] for x, y in law.atoms], dtype=float)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            iu = np.triu_indices(len(pts), 1)
            near = int(np.count_nonzero(d2[iu] <= 4 * float(R) ** 2))
            self.counters["core.ball_probability_2d.candidates"] += len(pts) + 2 * near
        self.pending.clear()
        self._last_law = None

    def metrics(self, overhead_ratio: float, report_bytes: int) -> dict:
        out = {}
        for b in BOUNDARY:
            out[f"{b}.calls"] = self.calls[b]
            out[f"{b}.self_s"] = self.self_s[b]
        c = self.counters
        bareiss = c["singularity.mc_bareiss"]
        modp = self.calls["arith.poly_gcd_degree_modp"]
        out.update({
            "core.exact_sign_sum_distribution.atoms": c["core.exact_sign_sum_distribution.atoms"],
            "core.ball_probability_2d.candidates": c["core.ball_probability_2d.candidates"],
            "cli.main.report_bytes": report_bytes,
            "experiments.mc.trials": c["experiments.mc.trials"],
            "experiments.singularity.confirm_yield":
                c["singularity.mc_successes"] / bareiss if bareiss else 0.0,
            "arith.gcd_screen_escape_ratio":
                self.calls["arith.poly_gcd_int"] / modp if modp else 0.0,
            "experiments.lsv.retries": c["experiments.lsv.retries"],
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    # ------------------------------------------------------------ call tree
    def tree(self, query: int):
        """Nested (name, [children], {leaf: calls}) for one query's spans."""
        spans = [s for s in self.spans if s.query == query]
        kids = defaultdict(list)
        for s in spans:
            kids[s.parent].append(s)

        def build(s):
            return (s.name, [build(k) for k in kids[s.sid]],
                    {k: v[0] for k, v in sorted(s.leaves.items())})

        return [build(s) for s in kids[None]]
