"""Kernel error map: worst error against mpmath at 40 digits over seeded samples.

Each bound is about three times the worst error measured over a larger
seeded sample of the same domain (recorded in ROADMAP item 3), so a change
of regime or switchover that costs accuracy fails here.
"""

import cmath
import itertools
import math
import random

import pytest

from ti2kit.endpoint import aux_closed_F, phi
from ti2kit.polylog import clausen2, li2
from ti2kit.special import (
    _sine_log_sum,
    _zeta_rungs,
    digamma_gap,
    ei_negative,
    hurwitz_zeta,
    log_gamma,
    loggamma_im_gap,
)
from ti2kit.ti2core import (
    _HORNER_BANDS,
    INVERSION_FROM,
    METHOD_IMAGINARY_DILOG,
    METHOD_INVERSION,
    METHOD_SERIES,
    SERIES_CUTOFF,
    _ti2_series,
    ti2,
    ti2_method,
)

mpmath = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _worst(errors):
    # max() would skip a NaN error; count it as infinite so a NaN result fails.
    return max(math.inf if math.isnan(e) else e for e in errors)


def test_ti2_relative_error():
    # Worst measured: 3.4e-15 at y = 0.99 (8000 y in [0.9, 0.99]), on the
    # series side of the 0.99 switchover; the dense band brackets it.
    rng = random.Random(11)
    ys = [_log_uniform(rng, 1e-3, 1e3) for _ in range(400)]
    ys += [rng.uniform(0.5, 1.02) for _ in range(400)]
    ys += [SERIES_CUTOFF, math.nextafter(SERIES_CUTOFF, 2.0)]
    refs = (mpmath.polylog(2, mpmath.mpc(0, y)).imag for y in ys)
    assert _worst(float(abs((ti2(y) - ref) / ref)) for y, ref in zip(ys, refs)) <= 1e-14


def test_ti2_horner_bands_relative_error():
    # |y| <= 1/2 takes a fixed-degree Horner polynomial per band.  Every band
    # top, the float above it (the next band's bottom), their negatives and a
    # subnormal y, where y^2 underflows and Ti2(y) = y.  Worst measured:
    # 1.1e-16 relative (40000 y log-uniform in [1e-8, 1/2] over ten seeds).
    rng = random.Random(21)
    ys = [_log_uniform(rng, 1e-8, 0.5) for _ in range(1000)]
    for top, _ in _HORNER_BANDS:
        ys += [top, math.nextafter(top, 1.0)]
    ys += [-y for y in ys] + [5e-324]
    refs = (mpmath.polylog(2, mpmath.mpc(0, y)).imag for y in ys)
    assert _worst(float(abs((ti2(y) - ref) / ref)) for y, ref in zip(ys, refs)) <= 5e-16


def test_ti2_inversion_relative_error():
    # From y = 2 on, Ti2(y) = Ti2(1/y) + (pi/2) log y with Ti2(1/y) on the
    # Horner bands; both terms are positive.  The switchover at 2 from both
    # sides, 1e308 (1/y near the subnormals) and the negatives.  Worst
    # measured: 3.1e-16 relative (40000 y uniform in [2, 20], 100000
    # log-uniform in [2, 1e300] over five seeds).
    rng = random.Random(24)
    ys = [_log_uniform(rng, 2.0, 1e300) for _ in range(1000)]
    ys += [rng.uniform(2.0, 20.0) for _ in range(500)]
    ys += [INVERSION_FROM, math.nextafter(INVERSION_FROM, 0.0),
           math.nextafter(INVERSION_FROM, 3.0), 1e308]
    ys += [-y for y in ys]
    refs = (mpmath.polylog(2, mpmath.mpc(0, y)).imag for y in ys)
    assert _worst(float(abs((ti2(y) - ref) / ref)) for y, ref in zip(ys, refs)) <= 5e-16


_TI2_ROUTES = {
    METHOD_SERIES: _ti2_series,
    METHOD_IMAGINARY_DILOG: lambda y: li2(complex(0.0, y)).imag,
    METHOD_INVERSION: lambda y: _ti2_series(1.0 / y) + math.pi / 2.0 * math.log(y),
}


@pytest.mark.parametrize(
    "edge, below, above",
    [
        (0.5, METHOD_SERIES, METHOD_SERIES),  # Horner bands, then the term loop
        (SERIES_CUTOFF, METHOD_SERIES, METHOD_IMAGINARY_DILOG),
        (INVERSION_FROM, METHOD_IMAGINARY_DILOG, METHOD_INVERSION),
    ],
)
def test_ti2_method_names_the_route_taken(edge, below, above):
    # Each switchover belongs to the route below it, except 2, which the
    # inversion takes.
    at = above if edge == INVERSION_FROM else below
    for y, method in ((math.nextafter(edge, 0.0), below), (edge, at),
                      (math.nextafter(edge, 3.0), above)):
        assert ti2_method(y) == ti2_method(-y) == method, y
        assert ti2(y) == -ti2(-y) == _TI2_ROUTES[method](y), y


def test_phi_and_aux_closed_F_above_one():
    # Above a = 1, phi_a(b) = b^2/2 + Li2(-1/a) - Re Li2(-e^{-ib}/a); the
    # form -Li2(-a) + Re Li2(-a e^{ib}) subtracts two log^2(a)/2 terms and
    # lost up to 5.6e-6 relative here.  phi's error is in units of
    # |ref| + |c|, with c = Li2(-1/a) its b-free term: at small b, c and
    # Re Li2(-e^{-ib}/a) still cancel down to about b^2/(2(1 + a)), which
    # cost up to 4.2e-12 of |ref| (a = 410, b = 3.3e-4) but stays within
    # an ulp of c.  F's is relative.  Worst measured: 3.0e-16 for phi and
    # 1.3e-15 for F (40000 points over four seeds).
    rng = random.Random(25)
    points = [(_log_uniform(rng, 1.0, 1e308), rng.uniform(0.0, math.pi)) for _ in range(400)]
    points += [(1e308, 1.0), (math.nextafter(1.0, 2.0), 1.0)]
    phi_errors, f_errors = [], []
    for a, b in points:
        x, y = mpmath.mpf(a), mpmath.mpf(b)
        ref = mpmath.re(mpmath.polylog(2, -x * mpmath.expj(y))) - mpmath.polylog(2, -x)
        scale = abs(ref) + abs(mpmath.polylog(2, -1 / x))
        phi_errors.append(float(abs(phi(a, b) - ref) / scale))
        ref_f = mpmath.pi * y / 2 - y * y / 2 + ref
        f_errors.append(float(abs((aux_closed_F(a, b) - ref_f) / ref_f)))
    assert _worst(phi_errors) <= 1e-15
    assert _worst(f_errors) <= 4e-15


def _sine_log_ref(alpha):
    # Kummer's closed form at a = mpf(alpha)/pi.
    x = mpmath.mpf(alpha)
    a = x / mpmath.pi
    return mpmath.pi / 2 * (mpmath.loggamma(a) - mpmath.loggamma(1 - a)) - (
        mpmath.pi / 2 - x
    ) * (mpmath.euler + mpmath.log(2 * mpmath.pi))


def test_sine_log_sum_error():
    # In units of |ref| + 1: uniform alpha, plus alpha within 1e-3 of 0,
    # pi/2 and pi, where a = alpha/pi rounded at alpha itself would cost
    # 1 - a about 4e-17/(pi - alpha) of its digits.  Worst measured: 1.2e-15
    # (40000 uniform and 10000 near each of the three, ten seeds).  Next to
    # pi/2, where the sum vanishes, the next test bounds its relative error.
    rng = random.Random(23)
    alphas = [rng.uniform(1e-6, math.pi - 1e-6) for _ in range(400)]
    for _ in range(100):
        alphas += [
            rng.uniform(1e-9, 1e-3),
            math.pi / 2.0 + rng.uniform(-1e-3, 1e-3),
            math.pi - rng.uniform(1e-9, 1e-3),
        ]
    errors = []
    for alpha in alphas:
        ref = _sine_log_ref(alpha)
        errors.append(float(abs(_sine_log_sum(alpha) - ref) / (abs(ref) + 1)))
    assert _worst(errors) <= 3.5e-15


def test_sine_log_sum_relative_error_next_to_half_pi():
    # Plain relative error for alpha - pi/2 log-uniform in [1e-300, 1/4] on
    # either side, where the log Gamma gap is one divided difference.  Worst
    # measured: 1.2e-15 (13500 alpha, three seeds); 2.8e-8 at 1e-8 when two
    # log_gamma values were subtracted.
    rng = random.Random(24)
    alphas = [math.pi / 2.0 + rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-300, 0.25)
              for _ in range(600)]
    errors = []
    for alpha in alphas:
        ref = _sine_log_ref(alpha)
        errors.append(float(abs((_sine_log_sum(alpha) - ref) / ref)))
    assert _worst(errors) <= 3.5e-15


def test_li2_error_at_every_argument():
    # Worst measured: 4.4e-16 of |ref| + 1 over seeded samples.
    rng = random.Random(12)
    errors = []
    for _ in range(500):
        z = cmath.rect(_log_uniform(rng, 1e-3, 10.0), rng.uniform(-math.pi, math.pi))
        ref = mpmath.polylog(2, mpmath.mpc(z.real, z.imag))
        errors.append(float(abs(li2(z) - ref) / (abs(ref) + 1)))
    assert _worst(errors) <= 1.3e-15


def test_li2_real_axis_relative_error():
    # Worst measured: 5.0e-16 relative near x = 0.54, just past the
    # reflection at 1/2 (60000 x over two seeds, same three bands).
    rng = random.Random(16)
    xs = [-_log_uniform(rng, 1e-8, 30.0) for _ in range(100)]
    xs += [_log_uniform(rng, 1e-8, 1.0) for _ in range(100)]
    xs += [rng.uniform(0.4, 1.0) for _ in range(100)]
    # Both sides of the inversion and reflection switchovers.
    xs += [-1.0 - 2e-8, -1.0 - 1e-8, -1.0, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
    errors = []
    for x in xs:
        ref = mpmath.polylog(2, x)
        errors.append(float(abs((li2(x).real - ref) / ref)))
    assert _worst(errors) <= 1.5e-15


def test_li2_relative_error_across_the_power_series_edge():
    # Every complex z in the reduced region ends in the one w-series; there
    # is no edge at 1/4.  Three bands: |z| in [0.2, 0.3]; |z| log-uniform in
    # [1e-8, 1/4], where w's relative error would grow as 1e-16/|z| were w
    # taken from a rounded 1 - z; and the corner |z| ~ 1, arg z ~ +-pi/3,
    # where |w| reaches pi/3 and the fixed Horner degree has the least
    # slack.  Worst measured: 3.4e-16 relative on the first two, 5.1e-16 at
    # the corner (60000 z over two seeds).
    rng = random.Random(17)
    zs = [cmath.rect(rng.uniform(0.2, 0.3), rng.uniform(-math.pi, math.pi)) for _ in range(300)]
    zs += [
        cmath.rect(_log_uniform(rng, 1e-8, 0.25), rng.uniform(-math.pi, math.pi))
        for _ in range(300)
    ]
    zs += [
        cmath.rect(
            rng.uniform(0.97, 1.0 + 1e-8),
            rng.choice((-1.0, 1.0)) * (math.pi / 3.0 + rng.uniform(-0.05, 0.05)),
        )
        for _ in range(300)
    ]
    errors = []
    for z in zs:
        ref = mpmath.polylog(2, mpmath.mpc(z.real, z.imag))
        errors.append(float(abs((li2(z) - ref) / ref)))
    assert _worst(errors) <= 3e-15


def test_hurwitz_zeta_relative_error():
    # s - 1 log-uniform in [1e-3, 49], c log-uniform in [1e-3, 1e4].  mpmath
    # itself loses digits at large s and c (at 200 digits its zeta(51, 1e4)
    # is off by 2.9e-13), so a point counts only where 40 and 60 digits
    # agree to 1e-25; about 6% do not.  Worst measured: 6.6e-16 relative
    # at s = 1.0018, c = 0.97 (3000 points over two seeds; 1.0e-15 before
    # hurwitz_zeta became one rung of _zeta_rungs).
    rng = random.Random(19)
    errors = []
    for _ in range(300):
        s, c = 1.0 + _log_uniform(rng, 1e-3, 49.0), _log_uniform(rng, 1e-3, 1e4)
        ref = mpmath.zeta(s, c)
        with mpmath.workdps(60):
            ref60 = mpmath.zeta(s, c)
        if abs(ref - ref60) > 1e-25 * abs(ref60):
            continue
        errors.append(float(abs((hurwitz_zeta(s, c) - ref60) / ref60)))
    assert len(errors) >= 250
    assert _worst(errors) <= 3.3e-15


def test_odd_zeta_rungs_error():
    # c log-uniform in [0.5, 60], x/c uniform in [1/16, 1/2], first order r0
    # odd in 3..41, 1 to 20 rungs.  The rungs carry an absolute budget of
    # 1.1e-17, so, as the sine-log sum is against |sum| + 1, each is measured
    # against |ref| + 1e-2: relative above 1e-2.  Worst measured: 8.7e-16
    # over 3 x 1000 points, where x^r zeta(r, c) is near 1e-2 or below.  The
    # references take 60 digits: at 40, mpmath's zeta(r, c) at large r and c
    # is off by up to 7.9e-17 in this measure.
    rng = random.Random(23)
    errors = []
    for _ in range(200):
        c = _log_uniform(rng, 0.5, 60.0)
        x = c * rng.uniform(1.0 / 16.0, 0.5)
        r0 = rng.randrange(3, 42, 2)
        rungs = _zeta_rungs(x, c, r0, rng.randint(1, 20))
        for value, r in zip(rungs, itertools.count(r0, 2)):
            with mpmath.workdps(60):
                ref = mpmath.mpf(x) ** r * mpmath.zeta(r, c)
                errors.append(float(abs(value - ref) / (ref + mpmath.mpf("1e-2"))))
    assert _worst(errors) <= 2.5e-15


def test_clausen2_error_over_a_period():
    # Worst measured: 3.5e-16 of |ref| + 1 over seeded samples.
    rng = random.Random(13)
    errors = []
    for _ in range(300):
        x = rng.uniform(0.0, 2.0 * math.pi)
        ref = mpmath.clsin(2, x)
        errors.append(float(abs(clausen2(x) - ref) / (abs(ref) + 1)))
    assert _worst(errors) <= 1e-15


def test_log_gamma_relative_error():
    # Worst measured: 6.8e-16 relative at x = 1.47 (45000 x over ten seeds,
    # 20000 log-uniform in [1e-3, 1e3], 20000 in [0.5, 3] and 5000 in
    # (0, 12)), and 6.0e-16 over 4000 x in [2.5, 14], across the downward
    # shift and the Stirling switch at 8 (2.2e-15 with the switch at 6), and
    # 3.4e-16 within 1e-3 of the zeros at 1 and 2, on the Taylor series.
    rng = random.Random(14)
    xs = [_log_uniform(rng, 1e-3, 1e3) for _ in range(300)]
    xs += [rng.uniform(0.5, 3.0) for _ in range(300)]
    xs += [rng.uniform(2.5, 12.0) for _ in range(300)]
    near_zeros = [z + rng.uniform(-1e-3, 1e-3) for z in (1.0, 2.0) for _ in range(100)]
    worst = {}
    for band, points in (("all", xs), ("near zeros", near_zeros)):
        refs = (mpmath.loggamma(x) for x in points)
        worst[band] = _worst(
            float(abs((log_gamma(x) - ref) / ref)) for x, ref in zip(points, refs)
        )
    assert worst["all"] <= 2e-15
    assert worst["near zeros"] <= 1e-15


def test_ei_negative_relative_error():
    # Worst measured: 1.2e-14 relative, on the continued fraction just above
    # its 1.5 cutoff (40000 x log-uniform in [1e-3, 700] and 40000 in
    # [1, 2]); 7.4e-15 on (2, 6], where the old series lost 1e-11.
    rng = random.Random(15)
    xs = [_log_uniform(rng, 1e-3, 700.0) for _ in range(300)]
    xs += [rng.uniform(2.0, 6.0) for _ in range(300)]
    errors = []
    for x in xs:
        ref = mpmath.ei(-mpmath.mpf(x))
        errors.append(float(abs((ei_negative(x) - ref) / ref)))
    assert _worst(errors) <= 3.5e-14


def _gap_points():
    # (x, y, h) with x - h log-uniform in [12, 1e4], h uniform in [0, 1] at
    # odd i and log-uniform in [1e-12, 1] at even i, where two subtracted
    # asymptotic sums would lose digits, and y log-uniform in [1e-3, 1e3],
    # or 0 at every tenth point.
    rng = random.Random(20)
    points = []
    for i in range(3000):
        lo = _log_uniform(rng, 12.0, 1e4)
        h = rng.uniform(0.0, 1.0) if i % 2 else _log_uniform(rng, 1e-12, 1.0)
        y = 0.0 if i % 10 == 0 else _log_uniform(rng, 1e-3, 1e3)
        points.append((lo + h, y, h))
    return points


def test_loggamma_im_gap_relative_error():
    # The references take x + h and x - h exactly, as mpf(x) +- mpf(h): formed
    # in floats they would carry a 1e-10 relative error into the gap.  At
    # y = 0 both sides are real and the gap is exactly 0.  Worst measured:
    # 7.8e-16 relative (36000 points over twelve seeds).
    errors = []
    for x, y, h in _gap_points():
        if y == 0.0:
            assert loggamma_im_gap(x, y, h) == 0.0
            continue
        hi, lo = mpmath.mpf(x) + mpmath.mpf(h), mpmath.mpf(x) - mpmath.mpf(h)
        ref = mpmath.im(mpmath.loggamma(mpmath.mpc(hi, y)) - mpmath.loggamma(mpmath.mpc(lo, y)))
        errors.append(float(abs((loggamma_im_gap(x, y, h) - ref) / ref)))
    assert _worst(errors) <= 2.2e-15


def test_digamma_gap_relative_error():
    # Same points, y unused.  Worst measured: 4.3e-16 relative (36000 points
    # over twelve seeds); subtracting the two Bernoulli sums instead gave
    # 5.9e-7 at h = 1.4e-12.
    errors = []
    for x, _, h in _gap_points():
        hi, lo = mpmath.mpf(x) + mpmath.mpf(h), mpmath.mpf(x) - mpmath.mpf(h)
        ref = mpmath.digamma(hi) - mpmath.digamma(lo)
        errors.append(float(abs((digamma_gap(x, h) - ref) / ref)))
    assert _worst(errors) <= 1.3e-15
