"""Correction of measured wall times for the host's changing speed.

The benchmark runs on small virtual machines whose physical cores are shared
with other tenants.  Their load changes the speed of the same code by up to
about 1.6x, in phases that last from seconds to minutes: the same seed of
`disk-2d`, run four times back to back, gave 6.4 to 10.2 queries/s.  No
statistic of one run removes a slowdown that lasts the whole run, so the
runner scales each timing to a fixed reference speed:

    corrected = measured * REFERENCE_S / local probe time

Right before each query the runner times `probe()`, a fixed piece of work of
the benchmark's own that does not call smallball.  It runs once, right after
the previous query, so it meets the caches as the program's code does; timed
again on warm caches it reacted more strongly to a busy host than the
program and over-corrected (the program's speed moved as about the 0.6th
power of the warm probe's).  A query's local probe time
is the median over the PROBE_WINDOW queries on either side of it, so a
single disturbed probe does not move it.  Because the probe never runs
program code, a change to the program moves corrected times as much as it
moves raw ones, except through the caches the previous query leaves to the
probe.  With the host at its reference speed the probe takes
REFERENCE_S and corrected times equal wall times.  Raw wall times are
reported on stderr beside the corrected ones.  Set-up time is not corrected:
the probe does not track the speed of interpreter start-up and imports.

The probe mixes the two kinds of work the program does: interpreter-bound
exact arithmetic on Fractions and dicts (the exact laws, the CLI) and
batches of small numpy array operations (the Monte Carlo screens).  Each
reacts to a busy host in its own degree, and a probe of one kind alone
over-corrects the other.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.00055  # about the probe's median time in quiet phases of a 2-core VM
PROBE_WINDOW = 7
_STEPS = ((1, 2), (-2, 1), (3, -1), (1, 1), (2, -3), (-1, 2))
_BLOCK = np.arange(600, dtype=np.int64).reshape(200, 3)


def _work() -> None:
    law = {(0, 0): Fraction(1)}
    for x, y in _STEPS:
        nxt: dict = {}
        for (u, v), w in law.items():
            for s in (-1, 1):
                key = (u + s * x, v + s * y)
                nxt[key] = nxt.get(key, 0) + w / 2
        law = nxt
    sum(w for (u, v), w in law.items() if u * u + v * v <= 9)
    for p in (101, 103, 107, 109, 113, 127, 131, 137):
        b = (_BLOCK * p + 1) % p
        (b[:, 0] * b[:, 1] - b[:, 2]) % p


for _ in range(10):  # past the interpreter's specialisation of the probe's code
    _work()


def probe() -> float:
    """Seconds taken by one run of the probe's work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def corrected(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_S / the median probe around it."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
