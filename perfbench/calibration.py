"""Host-speed calibration.

The benchmark shares its host with other work, and the host's speed for
one process drifts by 10-15% over tens of seconds, far more than the
bounds the benchmark sets.  A fixed reference workload, unrelated to
``repro``, is timed between requests; each request's host time is scaled
by how fast the reference ran just before and just after it (and, in a
long in-process campaign, during it).  Reported
times are therefore host seconds on a host that runs the reference in
:data:`NOMINAL_S` seconds; the unscaled host seconds are kept in the
results document beside them.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds the reference workload takes on the nominal host.
NOMINAL_S = 0.0175

_ARRAY = np.arange(4096)


def _reference_work() -> int:
    """Interpreter-bound loop plus small-array numpy calls (like the
    scalar simulator and the lane engines)."""
    table: dict = {}
    total = 0
    for i in range(55000):
        key = i % 251
        total += (i * i) % 7
        table[key] = table.get(key, 0) + 1
    for j in range(150):
        total += int(((_ARRAY * j) % 13).sum())
    return total


def reference_seconds() -> float:
    """Median of three timings of the reference workload, now."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def speed_factor(references: List[float]) -> float:
    """Multiplier taking host seconds, measured while ``references`` were
    taken (before, during and after), to seconds on the nominal host."""
    return NOMINAL_S / statistics.fmean(references)
