"""Host-speed reference for the germlie benchmark.

On the shared two-vCPU hosts this benchmark was sized on, the same code runs
up to about 1.6x slower for tens of seconds to minutes at a time, in process
CPU time as well as in wall time.  A run of half a minute lands in one such
phase, so raw timings of whole runs mostly tell which phase it was.  The
benchmark therefore times a fixed reference loop next to the program, right
before and after each op and outside the timed region, and reports times at
the reference speed::

    t_ref = t * NOMINAL_S / r

where ``r`` is the reference loop's time measured next to ``t``.  The loop does
not touch germlie: a change to the package moves ``t_ref`` one for one, while a
change of host speed moves ``t`` and ``r`` together.  The raw wall times are
kept in each run's record next to the reference samples.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of reference_loop() on the machine the benchmark was
# sized on (two shared vCPUs, CPython 3.11, numpy 2); a fixed constant, so
# scaled figures of two commits compare directly.
NOMINAL_S = 2.5e-3

SETUP_SAMPLES = 5   # reference samples taken after each set-up

_A = np.random.default_rng(0).standard_normal((12, 4, 4)) + 0.5j


def reference_loop() -> float:
    """Interpreter arithmetic plus small-array numpy calls, as germlie's ops mix them."""
    s = 0
    for i in range(12000):
        s += i * i % 7
    x = _A
    acc = float(s)
    for _ in range(64):
        y = np.einsum("kij,kjl->kil", x, _A)
        x = y / (1.0 + np.abs(y).max())
        acc += float(np.linalg.norm(x[0]))
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def setup_reference() -> float:
    """Median reference time right after a set-up (one untimed warm-up call first)."""
    reference_loop()
    return statistics.median(reference_time() for _ in range(SETUP_SAMPLES))
