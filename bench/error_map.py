"""The kernel error map: each kernel's worst error against mpmath.

Each row of ROWS holds a kernel, a seeded sampler, an mpmath reference and
its digits, an error measure and a bound, about three times the worst error
over a larger seeded sample (the comment next to the row).  Tier-1 runs
every row; `python bench/error_map.py` prints one JSON record per row.
"""

import cmath
import itertools
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ti2kit import decomp, endpoint, polylog, special, ti2core

PI = math.pi


def relative(got, ref):
    # A zero reference needs an exact zero.
    if ref == 0:
        return 0 if got == 0 else math.inf
    return abs(got - ref) / abs(ref)


def componentwise(got, ref):
    # The real and imaginary parts, each relative; a NaN part is NaN.
    parts = relative(got.real, ref.real), relative(got.imag, ref.imag)
    return math.nan if any(map(mpmath.isnan, parts)) else max(parts)


def against(floor):
    # Against |ref| + floor: relative above the floor, absolute below it.
    return lambda got, ref: abs(got - ref) / (abs(ref) + floor)


class Row(NamedTuple):
    name: str
    kernel: Callable
    points: Callable  # () -> the arguments in draw order, each a tuple or one value
    reference: Callable
    bound: float
    test: str | None = None  # the test id that runs the row; "Class::name" in test_special.py
    measure: Callable = relative  # (kernel value, reference) -> error
    digits: int = 40
    agree: int | None = None  # a second reference's digits; a point counts where both agree
    min_samples: int = 1


def run(row):
    """(worst error, its argument, sample count) of ``row``; a NaN error is infinite."""
    worst, at, samples = 0.0, None, 0
    with mpmath.workdps(row.digits):
        for point in row.points():
            args = point if isinstance(point, tuple) else (point,)
            ref = row.reference(*args)
            if row.agree:
                with mpmath.workdps(row.agree):
                    second = row.reference(*args)
                if abs(ref - second) > 1e-25 * abs(second):
                    continue
                ref = second
            err = float(row.measure(row.kernel(*args), ref))
            err = math.inf if math.isnan(err) else err
            samples += 1
            if at is None or err > worst:
                worst, at = err, point
    return worst, at, samples


def write(rows, stream):
    for row in rows:
        worst, at, samples = run(row)
        record = {"name": row.name, "worst": worst, "argument": repr(at), "bound": row.bound,
                  "samples": samples, "digits": row.digits}
        print(json.dumps(record), file=stream, flush=True)


def _sample(seed, *bands):
    # count draws of each (count, draw) in turn, from one seeded generator.
    rng = random.Random(seed)
    return [draw(rng) for count, draw in bands for _ in range(count)]


def _u(lo, hi):
    return lambda rng: rng.uniform(lo, hi)


def _lu(lo, hi):
    return lambda rng: math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _polar(radius, angle=_u(-PI, PI)):
    return lambda rng: cmath.rect(radius(rng), angle(rng))


def _and_negatives(xs):
    return xs + [-x for x in xs]


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _ti2_ref(y):
    return mpmath.polylog(2, mpmath.mpc(0, y)).imag


def _li2_ref(z):
    return mpmath.polylog(2, mpmath.mpc(z.real, z.imag))


def _phi_ref(a, b):
    # phi's value and the scale of its error, |ref| + |c|, c = Li2(-1/a).
    x = mpmath.mpf(a)
    ref = mpmath.re(mpmath.polylog(2, -x * mpmath.expj(b))) - mpmath.polylog(2, -x)
    return ref, abs(ref) + abs(mpmath.polylog(2, -1 / x))


def _phi_points():
    return _sample(25, (400, lambda rng: (_lu(1.0, 1e308)(rng), rng.uniform(0.0, PI)))) + [
        (1e308, 1.0), (math.nextafter(1.0, 2.0), 1.0)]


def _aux_integral_points(seed=32, count=200):
    # (a, b(a)) at seeded admissible a, log-uniform over the admissibility
    # window, and at the window's two ends: theorem1's quadrature points.
    draws = [a for a in _sample(seed, (count, _lu(0.4513, 18.92)))
             if endpoint.admissibility(a).admissible] + [0.4513, 18.92]
    return [(a, endpoint.solve_endpoint_b(a, 1e-14).b) for a in draws]


def _aux_closed_ref(a, b):
    return mpmath.pi * b / 2 - mpmath.mpf(b) ** 2 / 2 + _phi_ref(a, b)[0]


def _sine_log_ref(alpha):
    # Kummer's closed form at a = mpf(alpha)/pi.
    x, pi = mpmath.mpf(alpha), mpmath.pi
    a = x / pi
    return (pi / 2 * (mpmath.loggamma(a) - mpmath.loggamma(1 - a))
            - (pi / 2 - x) * (mpmath.euler + mpmath.log(2 * pi)))


def _cot_partial_fraction_ref(b):
    x = mpmath.mpf(b)
    return 1 / (2 * x * x) - mpmath.cot(x) / (2 * x)


def _s_r_ref(r):
    # S_1 = 1 - cot 1 from the partial fractions; zeta(1, c) has a pole.
    if r == 1:
        return 1 - mpmath.cot(1)
    pi = mpmath.pi
    return pi ** -r * (mpmath.zeta(r, 1 - 1 / pi) - mpmath.zeta(r, 1 + 1 / pi))


def _rung(x, c, r0, count, i):
    # Rung i of count, from the end, so that a list of any other length fails.
    return special._zeta_rungs(x, c, r0, count)[i - count]


def _rung_ref(x, c, r0, count, i):
    return mpmath.mpf(x) ** (r0 + 2 * i) * mpmath.zeta(r0 + 2 * i, c)


def _rungs(draws):
    # Every rung (x, c, r0, count, i) of each draw (x, c, r0, count).
    return [(*draw, i) for draw in draws for i in range(draw[3])]


def _rung_draw(rng):
    c = _lu(0.5, 60.0)(rng)
    return c * rng.uniform(1.0 / 16.0, 0.5), c, rng.randrange(3, 42, 2), rng.randint(1, 20)


def _lemma1_or_pole_draw(rng):
    if rng.random() < 0.5:
        x, c = 1.0 / PI, rng.choice(_LEMMA1_OFFSETS)
    else:
        c = rng.uniform(12.0, 60.0)
        x = c * rng.uniform(0.0, 0.25)
    r0 = rng.randrange(3, 42, 2)
    return x, c, r0, rng.randint(1, (41 - r0) // 2 + 1)


def _log_gamma_draws():
    return _sample(14, (300, _lu(1e-3, 1e3)), (300, _u(0.5, 3.0)), (300, _u(2.5, 12.0)),
                   *((100, lambda rng, z=z: z + rng.uniform(-1e-3, 1e-3)) for z in (1.0, 2.0)))


def _log_gamma_stratified():
    rng = np.random.default_rng(20261018)
    u = (np.arange(400) + rng.random(400)) / 400
    xs = list(np.exp(np.log(1e-10) + u * (np.log(30.0) - np.log(1e-10))))
    for centre in (1.0, 2.0):
        xs += list(centre + rng.uniform(-0.2, 0.2, 300))
        xs += [centre + d for d in (-1e-3, -1e-8, 1e-8, 1e-3)]
    return list(map(float, xs))


def _gap_points():
    # (x, y, h); h log-uniform at even i, down to 1e-12, where two
    # subtracted asymptotic sums would lose digits; y = 0 at every tenth.
    rng = random.Random(20)
    for i in range(3000):
        lo = _lu(12.0, 1e4)(rng)
        h = rng.uniform(0.0, 1.0) if i % 2 else _lu(1e-12, 1.0)(rng)
        y = 0.0 if i % 10 == 0 else _lu(1e-3, 1e3)(rng)
        yield lo + h, y, h


def _loggamma_im_gap_ref(x, y, h):
    # x + h and x - h exactly, as mpf(x) +- mpf(h): formed in floats they
    # would carry a 1e-10 relative error into the gap.  At y = 0 both sides
    # are real and the gap is exactly 0; mpmath is not asked.
    if y == 0.0:
        return 0
    hi, lo = mpmath.mpf(x) + mpmath.mpf(h), mpmath.mpf(x) - mpmath.mpf(h)
    return mpmath.im(mpmath.loggamma(mpmath.mpc(hi, y)) - mpmath.loggamma(mpmath.mpc(lo, y)))


_LEMMA1_OFFSETS = [1.0 - 1.0 / PI, 1.0 + 1.0 / PI]
_CUTOFF, _SWITCH = ti2core.SERIES_CUTOFF, ti2core.INVERSION_FROM

ROWS = (
    # Worst measured: 3.4e-15 at y = 0.99 (8000 y in [0.9, 0.99]), on the
    # series side of the 0.99 switchover; the dense band brackets it.
    Row("ti2", ti2core.ti2, lambda: _sample(11, (400, _lu(1e-3, 1e3)), (400, _u(0.5, 1.02)))
        + [_CUTOFF, math.nextafter(_CUTOFF, 2.0)], _ti2_ref, 1e-14, "test_ti2_relative_error"),
    # |y| <= 1/2 takes a fixed-degree Horner polynomial per band.  At a
    # subnormal y, y^2 underflows and Ti2(y) = y.  Worst measured: 1.1e-16
    # (40000 y log-uniform in [1e-8, 1/2] over ten seeds).
    Row("ti2_horner_bands", ti2core.ti2, lambda: _and_negatives(_sample(21, (1000, _lu(1e-8, 0.5)))
        + [y for top, _ in ti2core._HORNER_BANDS for y in (top, math.nextafter(top, 1.0))])
        + [5e-324], _ti2_ref, 5e-16, "test_ti2_horner_bands_relative_error"),
    # From y = 2 on, Ti2(y) = Ti2(1/y) + (pi/2) log y with Ti2(1/y) on the
    # Horner bands; both terms are positive.  At 1e308, 1/y is near the
    # subnormals.  Worst measured: 3.1e-16 (40000 y uniform in [2, 20],
    # 100000 log-uniform in [2, 1e300] over five seeds).
    Row("ti2_inversion", ti2core.ti2, lambda: _and_negatives(
        _sample(24, (1000, _lu(2.0, 1e300)), (500, _u(2.0, 20.0)))
        + [_SWITCH, math.nextafter(_SWITCH, 0.0), math.nextafter(_SWITCH, 3.0), 1e308]),
        _ti2_ref, 5e-16, "test_ti2_inversion_relative_error"),
    # Above a = 1, phi_a(b) = b^2/2 + Li2(-1/a) - Re Li2(-e^{-ib}/a); the
    # form -Li2(-a) + Re Li2(-a e^{ib}) subtracts two log^2(a)/2 terms and
    # lost up to 5.6e-6 relative here.  phi's error is in units of |ref| +
    # |c|, with c = Li2(-1/a) its b-free term: at small b, c and
    # Re Li2(-e^{-ib}/a) still cancel down to about b^2/(2(1 + a)), which
    # cost up to 4.2e-12 of |ref| (a = 410, b = 3.3e-4) but stays within an
    # ulp of c.  F's is relative.  Worst measured: 3.0e-16 for phi and
    # 1.3e-15 for F (40000 points over four seeds).
    Row("phi_above_one", endpoint.phi, _phi_points, _phi_ref, 1e-15,
        "test_phi_and_aux_closed_F_above_one", lambda got, ref: abs(got - ref[0]) / ref[1]),
    Row("aux_closed_F_above_one", endpoint.aux_closed_F, _phi_points, _aux_closed_ref, 4e-15,
        "test_phi_and_aux_closed_F_above_one"),
    # I(a, b(a)) at theorem1's tolerance, 1e-13, where every admissible a
    # takes a Gauss-Legendre rung.  Worst measured: 9.1e-16 at a = 0.454,
    # next to the window's lower end (5010 points over five seeds).
    Row("aux_integral_I", lambda a, b: endpoint.aux_integral_I(a, b, 1e-13).value,
        _aux_integral_points, _aux_closed_ref, 2.7e-15, digits=30),
    # Against |ref| + 1.  Within 1e-3 of 0, pi/2 and pi, a = alpha/pi rounded
    # at alpha itself would cost 1 - a about 4e-17/(pi - alpha) of its
    # digits.  Worst measured: 1.2e-15 (40000 uniform and 10000 near each of
    # the three, ten seeds).  Next to pi/2, where the sum vanishes, the next
    # row bounds its relative error.
    Row("sine_log_sum", special._sine_log_sum, lambda: _sample(
        23, (400, _u(1e-6, PI - 1e-6)), *[(1, _u(1e-9, 1e-3)), (1, lambda rng: PI / 2.0
        + rng.uniform(-1e-3, 1e-3)), (1, lambda rng: PI - rng.uniform(1e-9, 1e-3))] * 100),
        _sine_log_ref, 3.5e-15, "test_sine_log_sum_error", against(1)),
    # The log Gamma gap is one divided difference.  Worst measured: 1.2e-15
    # (13500 alpha, three seeds); 2.8e-8 at 1e-8 when two log_gamma values
    # were subtracted.
    Row("sine_log_sum_next_to_half_pi", special._sine_log_sum, lambda: _sample(24, (
        600, lambda rng: PI / 2.0 + rng.choice((-1.0, 1.0)) * _lu(1e-300, 0.25)(rng))),
        _sine_log_ref, 3.5e-15, "test_sine_log_sum_relative_error_next_to_half_pi"),
    # Next to pi/2, where log_gamma(a) - log_gamma(1 - a) cancels, only the
    # error against |ref| + 1 is small.
    Row("sine_log_sum_grid", special._sine_log_sum,
        lambda: [0.01, 0.3, 1.0, 1.5, PI / 2.0, 1.6, 2.5, PI - 0.01], _sine_log_ref, 4e-15,
        "TestAgainstMpmath::test_sine_log_sum", against(1), digits=150),
    # Worst measured: 4.4e-16 of |ref| + 1 over seeded samples.
    Row("li2", polylog.li2, lambda: _sample(12, (500, _polar(_lu(1e-3, 10.0)))), _li2_ref,
        1.3e-15, "test_li2_error_at_every_argument", against(1)),
    # Worst measured: 5.0e-16 near x = 0.54, just past the reflection at 1/2
    # (60000 x over two seeds, same three bands); then each switchover.
    Row("li2_real_axis", lambda x: polylog.li2(x).real, lambda: _sample(
        16, (100, lambda rng: -_lu(1e-8, 30.0)(rng)), (100, _lu(1e-8, 1.0)), (100, _u(0.4, 1.0)))
        + [-1.0 - 2e-8, -1.0 - 1e-8, -1.0, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)],
        lambda x: mpmath.polylog(2, x), 1.5e-15, "test_li2_real_axis_relative_error"),
    # Every z in the reduced region ends in the one w-series; there is no
    # edge at 1/4.  Below it w's error would grow as 1e-16/|z| were w taken
    # from a rounded 1 - z; at the corner |z| ~ 1, arg z ~ +-pi/3, |w| is
    # pi/3 and the fixed Horner degree has the least slack.  Worst measured:
    # 3.4e-16 on the first two bands, 5.1e-16 at the corner (60000 z, two
    # seeds).
    Row("li2_power_series_edge", polylog.li2, lambda: _sample(
        17, (300, _polar(_u(0.2, 0.3))), (300, _polar(_lu(1e-8, 0.25))),
        (300, _polar(_u(0.97, 1.0 + 1e-8),
                     lambda rng: rng.choice((-1.0, 1.0)) * (PI / 3.0 + rng.uniform(-0.05, 0.05))))),
        _li2_ref, 3e-15, "test_li2_relative_error_across_the_power_series_edge"),
    # Each part relative: the reflection takes the log of a rounded z, which
    # loses the imaginary part's digits.  Worst measured: 4.8e-10, in the
    # imaginary part, at z = 1 + 1.3e-8 + 1.04e-8i (40000 z, eight seeds).
    # ROADMAP item 9 tightens it.
    Row("li2_next_to_one", polylog.li2, lambda: _sample(26, (300, lambda rng: 1.0 + _polar(
        _lu(1e-12, 0.5))(rng))), _li2_ref, 1.5e-9, measure=componentwise),
    # mpmath itself loses digits at large s and c (at 200 digits its
    # zeta(51, 1e4) is off by 2.9e-13), so a point counts only where 40 and
    # 60 digits agree to 1e-25; about 6% do not.  Worst measured: 6.6e-16 at
    # s = 1.0018, c = 0.97 (3000 points over two seeds; 1.0e-15 before
    # hurwitz_zeta became one rung of _zeta_rungs).
    Row("hurwitz_zeta", special.hurwitz_zeta, lambda: _sample(
        19, (300, lambda rng: (1.0 + _lu(1e-3, 49.0)(rng), _lu(1e-3, 1e4)(rng)))), mpmath.zeta,
        3.3e-15, "test_hurwitz_zeta_relative_error", agree=60, min_samples=250),
    # The rungs x^r zeta(r, c) carry an absolute budget of 1.1e-17, so each
    # is measured against |ref| + 1e-2.  At 40 digits mpmath's zeta(r, c) at
    # large r and c is off by up to 7.9e-17 in this measure, so the
    # references take 60.  Worst measured: 8.7e-16 over 3 x 1000 points,
    # where x^r zeta(r, c) is near 1e-2 or below.
    Row("odd_zeta_rungs", _rung, lambda: _rungs(_sample(23, (200, _rung_draw))), _rung_ref,
        2.5e-15, "test_odd_zeta_rungs_error", against(mpmath.mpf("1e-2")), digits=60),
    # lemma1's two sides (x = 1/pi, c = 1 -+ 1/pi) and pole tails.  Worst
    # measured: 7.4e-16 over these 400.
    Row("odd_zeta_rungs_lemma1_and_poles", _rung,
        lambda: _rungs(_sample(31, (400, _lemma1_or_pole_draw))), _rung_ref, 2.5e-15,
        "TestOddZetaRungs::test_matches_mpmath_at_every_rung", against(mpmath.mpf("1e-2")),
        digits=60),
    # |b| <= 3, off the poles at 0 and pi: the Taylor series below 1/2, the
    # closed form 1/(2b^2) - cot(b)/(2b) above, whose two terms cancel to
    # about 1/6 there.  Worst measured: 3.3e-15 at b = 0.576, just above the
    # switch (40000 b over four seeds, half uniform, half log-uniform in
    # |b| from 1e-9).
    Row("cot_partial_fraction_sum", special.cot_partial_fraction_sum, lambda: _sample(
        33, (200, _u(-3.0, 3.0)), (200, lambda rng: rng.choice((-1.0, 1.0)) * _lu(1e-9, 3.0)(rng)))
        + [0.5, math.nextafter(0.5, 1.0), -0.5, 3.0, -3.0], _cot_partial_fraction_ref, 1e-14),
    # S_r at every odd r up to 399, against pi^-r [zeta(r, 1 - 1/pi) -
    # zeta(r, 1 + 1/pi)] where 40 and 60 digits agree (all do).  Worst
    # measured: 1.5e-15 at r = 399, growing with r; with pi rounded to a
    # float the reference would move 2.1e-14 there.
    Row("s_r", decomp.s_r, lambda: list(range(1, 400, 2)), _s_r_ref, 4.5e-15, agree=60,
        min_samples=200),
    # The Hurwitz grids take 150 digits: mpmath's zeta(s, c) loses about
    # s log10(c) digits, which at 40 digits leaves zeta(21, 100) off by 2e-10.
    Row("hurwitz_zeta_odd_s", special.hurwitz_zeta, lambda: [(float(s), c) for s in range(3, 32, 2)
        for c in _log_grid(1e-2, 1e6, 33) + [2.0 * s + 29.5, 2.0 * s + 30.5]],
        mpmath.zeta, 1e-14, "TestAgainstMpmath::test_hurwitz_zeta_odd_s", digits=150),
    # Large s and small c, where the direct sum stops after a handful of
    # terms and no Euler-Maclaurin tail is added.
    Row("hurwitz_zeta_short_direct_sum", special.hurwitz_zeta, lambda: list(itertools.product(
        [float(s) for s in range(3, 62, 2)] + [2.5, 7.3, 11.7, 19.9, 33.3, 40.2, 55.5, 60.9],
        _log_grid(1e-3, 3.0, 11) + _LEMMA1_OFFSETS)), mpmath.zeta, 1e-14,
        "TestAgainstMpmath::test_hurwitz_zeta_short_direct_sum", digits=150),
    # c^{-s} underflows while zeta(s, c) ~ c^{1-s}/(s - 1) does not; the
    # rung c^s zeta(s, c) itself passes the float range at the last two.
    Row("hurwitz_zeta_c_to_the_minus_s_underflows", special.hurwitz_zeta,
        lambda: [(1.1, 1e300), (1.0000000000000002, 1e300), (PI / 2, sys.float_info.max)],
        mpmath.zeta, 4e-16,
        "TestAgainstMpmath::test_hurwitz_zeta_where_c_to_the_minus_s_underflows", digits=400),
    # Worst measured: 3.5e-16 of |ref| + 1 over seeded samples.
    Row("clausen2", polylog.clausen2, lambda: _sample(13, (300, _u(0.0, 2.0 * PI))),
        lambda x: mpmath.clsin(2, x), 1e-15, "test_clausen2_error_over_a_period", against(1)),
    # e^{i phi} is rounded before the reflection takes its log.  Worst
    # measured: 4.3e-10 at phi = 1.05e-8 (20000 phi over four seeds).
    # ROADMAP item 9 tightens it.
    Row("clausen2_next_to_0_and_2pi", polylog.clausen2, lambda: _sample(
        27, (300, lambda rng: abs(rng.choice((0.0, 2.0 * PI)) - _lu(1e-12, 0.5)(rng)))),
        lambda x: mpmath.clsin(2, x), 1.3e-9),
    # Worst measured: 6.8e-16 at x = 1.47 (45000 x over ten seeds, 20000
    # log-uniform in [1e-3, 1e3], 20000 in [0.5, 3] and 5000 in (0, 12)),
    # and 6.0e-16 over 4000 x in [2.5, 14], across the downward shift and
    # the Stirling switch at 8 (2.2e-15 with the switch at 6).
    Row("log_gamma", special.log_gamma, lambda: _log_gamma_draws()[:900], mpmath.loggamma,
        2e-15, "test_log_gamma_relative_error"),
    # Worst measured: 3.4e-16 within 1e-3 of the zeros at 1 and 2, on the
    # Taylor series.
    Row("log_gamma_near_zeros", special.log_gamma, lambda: _log_gamma_draws()[900:],
        mpmath.loggamma, 1e-15, "test_log_gamma_relative_error"),
    # The docstring's 1e-15, including next to the zeros at 1 and 2, where
    # the upward recursion once gave 3.3e-12 (x = 0.999) and 3.8e-12
    # (x = 1.999).
    Row("log_gamma_stratified", special.log_gamma, _log_gamma_stratified, mpmath.loggamma,
        1e-15, "TestLogGamma::test_relative_error_against_mpmath"),
    # Worst measured: 1.2e-14, on the continued fraction just above its 1.5
    # cutoff (40000 x log-uniform in [1e-3, 700] and 40000 in [1, 2]);
    # 7.4e-15 on (2, 6], where the old series lost 1e-11.
    Row("ei_negative", special.ei_negative,
        lambda: _sample(15, (300, _lu(1e-3, 700.0)), (300, _u(2.0, 6.0))),
        lambda x: mpmath.ei(-mpmath.mpf(x)), 3.5e-14, "test_ei_negative_relative_error"),
    Row("ei_negative_grid", special.ei_negative,
        lambda: _log_grid(1e-3, 700.0, 121) + [1.5, 1.5000000000000002, 2.5, 4.0, 6.0],
        lambda x: mpmath.ei(-mpmath.mpf(x)), 1e-14, "TestAgainstMpmath::test_ei_negative",
        digits=150),
    # Worst measured: 7.8e-16 (36000 points over twelve seeds).
    Row("loggamma_im_gap", special.loggamma_im_gap, _gap_points, _loggamma_im_gap_ref, 2.2e-15,
        "test_loggamma_im_gap_relative_error"),
    Row("loggamma_im_gap_grid", special.loggamma_im_gap, lambda: list(itertools.product(
        (13.0, 21.0, 400.0, 5001.0, 1e7), (0.0, 1e-3, 0.3, 16.0, 300.0, 3e5),
        (0.0, 0.07, 0.5, 0.99))),
        _loggamma_im_gap_ref, 1e-15, "TestAgainstMpmath::test_loggamma_im_gap", digits=150),
    # The same points, y unused.  Worst measured: 4.3e-16 (36000 points over
    # twelve seeds); subtracting the two Bernoulli sums instead gave 5.9e-7
    # at h = 1.4e-12.
    Row("digamma_gap", special.digamma_gap, lambda: [(x, h) for x, _, h in _gap_points()],
        lambda x, h: mpmath.digamma(mpmath.mpf(x) + h) - mpmath.digamma(mpmath.mpf(x) - h),
        1.3e-15, "test_digamma_gap_relative_error"),
    # Up to the float range: 2h and x + h overflow at x = 1.5e308.
    Row("digamma_gap_grid", special.digamma_gap, lambda: list(itertools.product(
        (13.0, 21.0, 400.0, 2001.0, 1e6), (0.0, 0.07, 0.5, 0.95))) + [
        (1e20, 1e-3), (1e100, 1.0), (1e200, 1e150), (1e300, 1e299), (1.5e308, 1e308),
        (21.3, 0.3), (300.0, 0.9), (12.0, 0.0)],
        lambda x, h: mpmath.digamma(mpmath.mpf(x) + h) - mpmath.digamma(mpmath.mpf(x) - h),
        4e-16, "TestAgainstMpmath::test_digamma_gap", digits=150),
    # To first order the gap is 2h psi'(x), exact to (h/x)^2 relative;
    # subnormal h gives a subnormal gap, which keeps fewer digits: the
    # error is relative past an allowance of the least subnormal.
    Row("digamma_gap_at_tiny_h", special.digamma_gap, lambda: list(itertools.product(
        (12.5, 30.0, 1e8, 1e300), (5e-324, 1e-310, 1e-300, 1e-200, 1e-20))),
        lambda x, h: 2 * mpmath.mpf(h) * mpmath.psi(1, x), 4e-16,
        "TestAgainstMpmath::test_digamma_gap_at_tiny_h",
        lambda got, ref: max(abs(got - ref) - 5e-324, 0) / ref, digits=150),
)


if __name__ == "__main__":
    write(ROWS, sys.stdout)
