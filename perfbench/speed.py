"""The machine's current speed, from fixed reference work timed next to each op.

On a shared host the speed one process gets drifts by up to 20% either way
over tens of seconds, and ti2kit's pure-Python code and this slice drift
together (in 2 s buckets over 90 s, ti2kit's time ranged 45-73 ms and the
slice's 1.2-2.2 ms, moving in step).  So the in-process loops time a slice
every EVERY_S between ops and scale each op's time by NOMINAL_S over the
slice time around it: their time metrics are in seconds of a machine that
runs the slice in NOMINAL_S.  Over five seeds this cut the spread of
`verify`'s ops_per_s from 0.13 to 0.04 of the median.

A slice timed in the benchmark between processes does not track a child
process's speed, so process-level times (`cli` ops, set-up runs) are scaled
instead by NOMINAL_START_S over the wall time of a bare ``python -c pass``
started just before each process; over eight 20 s runs this cut the spread of
`cli`'s ops_per_s from 0.23 to 0.02.  The raw wall-clock figures are printed
next to the scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter

# About the slice's time inside a busy ti2kit process, and a bare interpreter
# start, on the 2-vCPU host the baseline was recorded on.
NOMINAL_S = 0.0019
NOMINAL_START_S = 0.065
EVERY_S = 0.2


def _work() -> float:
    total = 0.0
    window: list[float] = []
    for i in range(1, 6001):
        x = math.sqrt(i) * 1.0000001
        total += math.atan(x) / x
        window.append(total)
        if len(window) > 64:
            window.pop(0)
    return total


def slice_s() -> float:
    """Seconds for one slice, best of two (a stall inside one does not count)."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best


def scale(lat: list[float], refs: list[float], ref_at: list[int]) -> list[float]:
    """Each op's time in nominal seconds.

    Slice ``k`` was timed just before op ``ref_at[k]``; the last one after
    the last op.  Op ``i`` is scaled by the mean of the two slices around it.
    """
    out = []
    k = 0
    for i, t in enumerate(lat):
        while k + 2 < len(ref_at) and ref_at[k + 1] <= i:
            k += 1
        out.append(t * NOMINAL_S / (0.5 * (refs[k] + refs[k + 1])))
    return out
