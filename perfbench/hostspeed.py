"""Host-speed correction for end-to-end times.

The benchmark runs on shared hosts whose speed drifts: on the 2-core VM the
baseline was taken on, a fixed pure-Python loop took 5.4-8.1 ms in 5 s
windows, and the planner's rounds slowed by 30-40% between runs an hour
apart.  That drift is not the program's, so each end-to-end time is scaled
to a nominal host speed: multiplied by ``NOMINAL_S`` over the time of a
fixed reference loop measured next to it.  The loop shares no code with the
planner, so a change to the planner moves the corrected times exactly as it
moves the raw ones.  Raw times are printed alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.020       # the reference loop's time on an unloaded host
_LOOP_N = 300_000
_REPEATS = 5


def _loop():
    total = 0
    for i in range(_LOOP_N):
        total += i * i
    return total


def reference_seconds():
    """Median time of the reference loop over a few back-to-back runs."""
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(ref_seconds):
    """Multiply a raw time by this to get the time at nominal host speed."""
    return NOMINAL_S / ref_seconds
