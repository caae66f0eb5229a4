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
from ti2kit.special import ei_negative, log_gamma
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


def test_log_gamma_relative_error():
    # Worst measured: 3.1e-14 relative just above 2.5, where the upward
    # shift to x >= 10 starts (40000 x in [0.5, 3] over two seeds), and
    # 3.4e-16 within 1e-3 of the zeros at 1 and 2, on the Taylor series.
    rng = random.Random(14)
    xs = [_log_uniform(rng, 1e-3, 1e3) for _ in range(300)]
    xs += [rng.uniform(0.5, 3.0) for _ in range(300)]
    near_zeros = [z + rng.uniform(-1e-3, 1e-3) for z in (1.0, 2.0) for _ in range(100)]
    worst = {}
    for band, points in (("all", xs), ("near zeros", near_zeros)):
        worst[band] = 0.0
        for x in points:
            ref = mpmath.loggamma(x)
            worst[band] = max(worst[band], float(abs((log_gamma(x) - ref) / ref)))
    assert worst["all"] <= 1e-13
    assert worst["near zeros"] <= 1e-15


def test_ei_negative_relative_error():
    # Worst measured: 1.2e-14 relative, on the continued fraction just above
    # its 1.5 cutoff (40000 x log-uniform in [1e-3, 700] and 40000 in
    # [1, 2]); 7.4e-15 on (2, 6], where the old series lost 1e-11.
    rng = random.Random(15)
    xs = [_log_uniform(rng, 1e-3, 700.0) for _ in range(300)]
    xs += [rng.uniform(2.0, 6.0) for _ in range(300)]
    worst = 0.0
    for x in xs:
        ref = mpmath.ei(-mpmath.mpf(x))
        worst = max(worst, float(abs((ei_negative(x) - ref) / ref)))
    assert worst <= 3.5e-14
