"""Pure helpers for the benchmark: percentiles with sample counts, span
self time, and the spread of repeated runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

MIN_BEYOND = 10  # a percentile is resolved only with this many samples above it


@dataclass(frozen=True)
class Percentile:
    value: float
    n: int            # samples it was computed from
    beyond: int       # samples strictly above the value

    @property
    def resolved(self):
        return self.beyond >= MIN_BEYOND

    def describe(self):
        note = "" if self.resolved else f", unresolved: {self.beyond} beyond"
        return f"n={self.n}{note}"


def percentile(values, q):
    """The q-th percentile (linear interpolation) with its sample count.

    ``beyond`` counts samples strictly above the value, so a tail percentile
    can be flagged when fewer than ``MIN_BEYOND`` samples support it.  An
    empty sample gives 0.0 with n = 0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return Percentile(value=0.0, n=0, beyond=0)
    value = float(np.percentile(arr, q))
    return Percentile(value=value, n=int(arr.size), beyond=int(np.sum(arr > value)))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(lo, hi, children):
    """A span's duration minus the part of it its child spans cover."""
    return (hi - lo) - covered(children, lo, hi)


def spread(values):
    """(median, IQR / median) as ``statistics.quantiles(values, n=4)`` gives
    the quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")
