"""Kernel error map: worst error against mpmath at 40 digits over seeded samples.

Each bound is about three times the worst error measured over a larger
seeded sample of the same domain (recorded in ROADMAP item 4), so a change
of regime or switchover that costs accuracy fails here.
"""

import cmath
import math
import random

import pytest

from ti2kit.polylog import clausen2, li2
from ti2kit.ti2core import SERIES_CUTOFF, ti2

mpmath = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_ti2_relative_error():
    # Worst measured: 3.4e-15 at y = 0.99 (8000 y in [0.9, 0.99]), on the
    # series side of the 0.99 switchover; the dense band brackets it.
    rng = random.Random(11)
    ys = [_log_uniform(rng, 1e-3, 1e3) for _ in range(400)]
    ys += [rng.uniform(0.5, 1.02) for _ in range(400)]
    ys += [SERIES_CUTOFF, math.nextafter(SERIES_CUTOFF, 2.0)]
    worst = 0.0
    for y in ys:
        ref = mpmath.polylog(2, mpmath.mpc(0, y)).imag
        worst = max(worst, float(abs((ti2(y) - ref) / ref)))
    assert worst <= 1e-14


def test_li2_error_at_every_argument():
    # Worst measured: 4.4e-16 of |ref| + 1 over seeded samples.
    rng = random.Random(12)
    worst = 0.0
    for _ in range(500):
        z = cmath.rect(_log_uniform(rng, 1e-3, 10.0), rng.uniform(-math.pi, math.pi))
        ref = mpmath.polylog(2, mpmath.mpc(z.real, z.imag))
        worst = max(worst, float(abs(li2(z) - ref) / (abs(ref) + 1)))
    assert worst <= 1.3e-15


def test_clausen2_error_over_a_period():
    # Worst measured: 3.5e-16 of |ref| + 1 over seeded samples.
    rng = random.Random(13)
    worst = 0.0
    for _ in range(300):
        x = rng.uniform(0.0, 2.0 * math.pi)
        ref = mpmath.clsin(2, x)
        worst = max(worst, float(abs(clausen2(x) - ref) / (abs(ref) + 1)))
    assert worst <= 1e-15
