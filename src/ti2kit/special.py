"""Hurwitz zeta, exponential integral, log-gamma, and the Catalan oracle.

These are the scalar special functions the identity checks lean on.  Each one
uses a classical two-regime scheme (series or recursion where it converges
briskly, continued fraction / asymptotic tail elsewhere) with the switchovers
pinned by overlap tests and by measured error against a high-precision
reference rather than tuning.

``_zeta_rungs`` is the one Euler-Maclaurin Hurwitz pass: x^r zeta(r, c) at
r = s0, s0 + 2, ... with one shared tail (F. Johansson, Numer. Algorithms 69
(2015) 253-270), for the pole tails, Lemma 1, S_r and :func:`hurwitz_zeta`.

log Gamma has one implementation, :func:`log_gamma`; the sine-log sum takes
Kummer's log Gamma(a) - log Gamma(1 - a) from two of its values, or next to
a = 1/2 from one divided difference of its Taylor polynomial.  The digamma and
Im log Gamma gaps take the gap of their asymptotic series in 1/z from one
divided difference, so that no two asymptotic sums are subtracted.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, islice, repeat, zip_longest
from operator import mul

from . import _EXPORTS
from .numerics import DomainError
from .polylog import _BERNOULLI, _log1p

__all__ = _EXPORTS["special"]

PI = math.pi
# pi - PI, rounded: PI - x is exact for x in [PI/2, PI], and adding this
# recovers pi - x to about one ulp.
_PI_LO = 1.2246467991473532e-16

# Euler-Mascheroni constant, full binary64 precision.
EULER_GAMMA = 0.5772156649015329


def _bernoulli_over(j: int, k: int) -> float:
    # B_{2j} / k for an integer k, rounded once from the exact fraction.
    num, den = _BERNOULLI[2 * j]
    return num / (den * k)


# B_{2j} / (2j)! for j = 1..6, used by the Euler-Maclaurin tail.
_EM_BERN = tuple(_bernoulli_over(j, math.factorial(2 * j)) for j in range(1, 7))
_EM2, _EM4, _EM6, _EM8, _EM10, _EM12 = _EM_BERN


def hurwitz_zeta(s: float, c: float) -> float:
    """Hurwitz zeta  zeta(s, c) = sum_{k>=0} (k + c)^{-s}  for finite s > 1, c > 0.

    c^{-s} times one _zeta_rungs rung at x = c, c^s zeta(s, c) >= 1, whose
    1.1e-17 budget is then relative: M is 14 at s = 1.1, c = 1, and the short
    stop takes 2 terms at s = 41, c = 1 - 1/pi.  x = 1e300 (s - 1) where c/(s - 1)
    would pass 1e300, and the scale is x^{1-s} (rung/x) where x^{-s} underflows.
    Past the float range the value raises :class:`DomainError`.
    """
    if not 1.0 < s < math.inf:
        raise DomainError(f"hurwitz_zeta requires 1 < s < inf, got s={s!r}")
    if not 0.0 < c < math.inf:
        raise DomainError(f"hurwitz_zeta requires 0 < c < inf, got c={c!r}")
    x = c if c < 1e300 * (s - 1.0) else 1e300 * (s - 1.0)
    (rung,) = _zeta_rungs(x, c, s, 1)
    try:
        scale = x ** -s
    except OverflowError:
        scale = math.inf
    value = scale * rung if scale >= sys.float_info.min else x ** (1.0 - s) * (rung / x)
    if value == math.inf:
        raise DomainError(f"hurwitz_zeta({s!r}, {c!r}) overflows binary64")
    return value


# log(1.5 |B_14/14!| / 1e-17): the tail budget of _zeta_rungs.
_EM14_BUDGET = math.log(1.5 * abs(_bernoulli_over(7, math.factorial(14))) / 1e-17)
_LOG_ROW_FLOOR = math.log(1e-20)


def _zeta_rungs(x: float, c: float, s0: float, count: int) -> list[float]:
    """[x^r zeta(r, c) for r = s0, s0 + 2, ..., s0 + 2 (count - 1)], s0 > 1, 0 <= x <= c.

    Rows k < M climb (x/(k + c))^r by (x/(k + c))^2, and one Euler-Maclaurin
    tail at X = M + c through B_12 serves each rung (x < c for more than one):
        (x/X)^r [X/(r-1) + 1/2 + (r/X) sum_j B_2j/(2j)! prod_{i<j} (r+2i-1)(r+2i)/X^2].
    X is the least M + c with |B_14/14!| (r)_13 x^r X^{-r-13} <= 1e-17/1.5 at
    r = min(s0, 1e6), and X >= 4x for more than one rung, so that this bound on
    the remainder grows by at most 17/12; a rung skips the tail, as do the later
    ones, once (x/X)^r (1 + X/(r-1)) <= 1e-17.  Short stop: as no later term
    exceeds the first rung's, the rows end with no tail at the first n in 1..M
    with (x/(n + c))^s0 (1 + X/(s0-1)) <= 1e-17: 2 rows at s0 = 41, x = c =
    1 - 1/pi.  Row trim: a row ends at its first term below 1e-20, 97 and 81 of
    lemma1's 220 and 200 terms.  Each rung is within 1.1e-17 plus rounding,
    summed by math.fsum (one rung smallest term first).
    """
    r0 = s0 if s0 < 1e6 else 1e6
    e = r0 + 13.0
    big = math.exp((_EM14_BUDGET + math.lgamma(e) - math.lgamma(r0)) / e) * x ** (r0 / e)
    if count > 1 and big < 4.0 * x:
        big = 4.0 * x
    m = math.ceil(big - c) if big > c else 0
    big = m + c
    stop = x * (1e17 * (1.0 + big / (s0 - 1.0))) ** (1.0 / s0) - c
    tail = [0.0] * count
    if stop <= m:
        m = math.ceil(stop) if stop > 1.0 else 1
    else:
        u = x / big
        p = u ** s0
        h2 = 1.0 / (big * big)
        r = s0
        # f_j = (r + 2j - 1)((r + 2j)/X^2), finite where r^2 would overflow;
        # rung r + 2 takes f_2..f_5 and one new factor.
        f1 = (r + 1.0) * ((r + 2.0) * h2)
        f2 = (r + 3.0) * ((r + 4.0) * h2)
        f3 = (r + 5.0) * ((r + 6.0) * h2)
        f4 = (r + 7.0) * ((r + 8.0) * h2)
        f5 = (r + 9.0) * ((r + 10.0) * h2)
        for i in range(count):
            g = p * big / (r - 1.0)
            if p + g <= 1e-17:
                break
            a = _EM2 + f1 * (_EM4 + f2 * (_EM6 + f3 * (_EM8 + f4 * (_EM10 + f5 * _EM12))))
            tail[i] = g + p * (0.5 + r / big * a)
            p *= u * u
            r += 2
            f1, f2, f3, f4, f5 = f2, f3, f4, f5, (r + 9.0) * ((r + 10.0) * h2)
    if count == 1:
        rung = tail[0]
        for k in range(m - 1, -1, -1):
            rung += (x / (k + c)) ** s0
        return [rung]
    if not m:
        return tail
    rows = []
    for k in range(m):
        t = x / (k + c)
        climbs = int((_LOG_ROW_FLOOR / (math.log(t) if t else -math.inf) - s0) / 2.0)
        rows.append(accumulate(repeat(t * t, climbs), mul, initial=t ** s0))
    return list(islice(map(math.fsum, zip_longest(*rows, tail, fillvalue=0.0)), count))


# B_{2j} / (2j) for j = 1..7, the asymptotic digamma coefficients.
_DIGAMMA_BERN = tuple(_bernoulli_over(j, 2 * j) for j in range(1, 8))


def _inverse_power_gap(coeffs, z, q, odd):
    # sum_j c_j (v^k - u^k), k = 2j - 1 if odd else 2j, over coeffs = c_1..c_n,
    # between u = 1/z and v = 1/(z + 2h) = u/(1 + q), q = 2h/z, for real or
    # complex z: the gap of a Stirling or Bernoulli sum without subtracting
    # the two sums.  The node gap v - u = -q v comes from q, never from a
    # rounded z + 2h.  With R(w) = sum_j c_j w^{j-1}, one Horner pass gives
    # R(u^2) and the divided difference D = (R(v^2) - R(u^2))/(v^2 - u^2),
    # and v^2 - u^2 = (v - u)(v + u); then the gap is
    #     (v - u) [R(u^2) + v (v + u) D]            for k = 2j - 1,
    #     (v - u) (v + u) [R(u^2) + v^2 D]          for k = 2j.
    u = 1.0 / z
    v = u / (1.0 + q)
    lo = u * u
    hi = v * v
    r = coeffs[-1]
    d = 0.0
    for c in coeffs[-2::-1]:
        d = d * hi + r
        r = c + lo * r
    if odd:
        return -q * v * (r + v * (v + u) * d)
    return -q * v * (v + u) * (r + hi * d)


# The least z = x - h from which digamma_gap and loggamma_im_gap sum their
# asymptotic series.
_GAP_LEAST_Z = 12


def digamma_gap(x: float, h: float) -> float:
    """psi(x + h) - psi(x - h) for 0 <= h and x - h >= 12, to a few ulp of the gap.

    Subtracting two digamma values of size log x leaves a gap of about 2h/x
    and loses the digits they share; here the asymptotic series
    psi(z) ~ log z - 1/(2z) - sum_j B_{2j}/(2j z^{2j}) is differenced term
    by term from z = x - h and q = 2h/z alone,

        log1p(q) + q/(2 (z + 2h)) - [B(z + 2h) - B(z)],

    the Bernoulli gap by one divided difference, so that nothing subtracts
    two sums or takes the rounded x + h.  q is taken as h/(z/2), one rounding
    of the same quotient, so that it stays finite where 2h overflows: at
    x = inf the gap is 0.0.
    """
    if not (h >= 0.0 and x - h >= _GAP_LEAST_Z):
        raise DomainError(
            f"digamma_gap requires h >= 0 and x - h >= {_GAP_LEAST_Z}, got x={x!r}, h={h!r}"
        )
    lo = x - h
    q = h / (0.5 * lo)
    return math.log1p(q) + 0.5 * q / (lo * (1.0 + q)) - _inverse_power_gap(
        _DIGAMMA_BERN, lo, q, False
    )


def loggamma_im_gap(x: float, y: float, h: float) -> float:
    """Im[log Gamma(x + h + iy) - log Gamma(x - h + iy)] for h >= 0, x - h >= 12.

    With w = x - h + iy the Stirling series is differenced term by term,

        Im[(w - 1/2) log1p(2h/w) + 2h log(w + 2h)] + Im[B(w + 2h) - B(w)],

    B(z) = sum_j B_{2j}/(2j (2j-1) z^{2j-1}), so that the two O(|w| log |w|)
    Stirling leads never meet, and the gap of B is one divided difference
    in 1/w and 1/(w + 2h), taken from q = 2h/w, so that no two sums are
    subtracted as h -> 0.  log1p(2h/w) is the dilogarithm's complex
    log1p (polylog), taken from real parts, which keeps its digits when
    2h/|w| is small.  The cost does not depend on x or y.  Where x + h + |y|
    overflows, and so may 2h, x + h or the quotient's scaled |w|^2, 2h/w and
    2h atan2(y, x + h) are taken from halves.  A subnormal atan2(y, x + h) is
    taken as y/(x + h).  Where Im log1p(2h/w) underflows, the first term is
    taken to first order in Im(2h/w), in closed form, since its two parts of
    size 2h|y|/|w| no longer cancel in floating point.
    """
    if not (h >= 0.0 and x - h >= _GAP_LEAST_Z and math.isfinite(x) and math.isfinite(y)):
        raise DomainError(
            f"loggamma_im_gap requires finite x and y, h >= 0 and x - h >= {_GAP_LEAST_Z}, "
            f"got x={x!r}, y={y!r}, h={h!r}"
        )
    w = complex(x - h, y)
    gap = 2.0 * h
    if x + h + abs(y) < math.inf:
        q = gap / w
        angle = math.atan2(y, x + h)
        arc = gap * angle
    else:
        q = h / (0.5 * w)
        angle = math.atan2(0.5 * y, 0.5 * x + 0.5 * h)
        arc = 2.0 * (h * angle)
    tiny = sys.float_info.min
    if y and abs(angle) < tiny:
        # Below the normal range the arctangent is y/(x + h) itself.
        arc = y * (h / (0.5 * x + 0.5 * h))
    if y and abs(q.imag) < tiny * (1.0 + q.real):
        # Im log1p(q) ~ Im q/(1 + Re q) has underflowed, and with it the
        # cancellation of the lg terms' leading parts.  To first order in Im q,
        # with r = Re q,
        # Im[(w - 1/2) log1p(q)] = y [log1p(r) - (1 - 1/(2 Re w)) r/(1 + r)].
        r = q.real
        lead = y * (math.log1p(r) - (1.0 - 0.5 / w.real) * r / (1.0 + r)) + arc
    else:
        lg = _log1p(q)
        lead = (w.real - 0.5) * lg.imag + w.imag * lg.real + arc
    return lead + _inverse_power_gap(_STIRLING, w, q, True).imag


# Below this the series of Ei(-x) is used, above it the continued fraction.
# Measured against a 40-digit reference: the series loses digits to
# cancellation as x grows (1e-14 relative at 2, 1e-12 at 6) while the
# continued fraction stays below 6e-15 relative from 1.5 on.
_EI_SERIES_CUTOFF = 1.5


def ei_negative(x: float) -> float:
    """Exponential integral Ei(-x) for x > 0; negative until it underflows.

    x <= 1.5: the convergent series Ei(-x) = gamma + log x + sum (-x)^n/(n*n!).
    x >  1.5: modified Lentz evaluation of the continued fraction

        Ei(-x) = -e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))).

    Satisfies |Ei(-x)| <= e^{-x}/x; the result underflows to -0.0 for
    x above about 745, inf included.
    """
    if not x > 0.0:
        raise DomainError(f"ei_negative requires x > 0, got {x!r}")
    if x <= _EI_SERIES_CUTOFF:
        return EULER_GAMMA + math.log(x) + _ei_series_sum(x)
    # Once e^{-x} underflows the quotient is -0.0 without the continued
    # fraction, which at x = inf would be inf / inf.
    e = math.exp(-x)
    return -e / _e1_lentz_cf(x) if e else -0.0


def _ei_series_sum(x: float) -> float:
    # sum_{n>=1} (-x)^n / (n * n!), alternating, entire.
    total = 0.0
    term = 1.0  # (-x)^n / n!
    for n in range(1, 200):
        term *= -x / n
        contrib = term / n
        total += contrib
        if abs(contrib) < 1e-18 * (1.0 + abs(total)):
            break
    return total


def _e1_lentz_cf(x: float) -> float:
    # Continued fraction x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)) by
    # modified Lentz; about 60 steps at x = 1.5, 22 at x = 6.  For x > 0 no
    # step divides by zero: since n^2/(x + n) < n, by induction
    # c_n > x + n + 1 and 0 < d_n < 1/(n + 1).
    f = x + 1.0
    c = f
    d = 0.0
    for n in range(1, 200):
        a = -float(n * n)
        b = x + 2.0 * n + 1.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f


_POLE_MARGIN = 1e-10
# zeta(2j + 2)/pi^(2j + 2) for j = 27 down to 0, the Taylor coefficients of
# cot_partial_fraction_sum in b^2, rounded from 40-digit values.  Below
# |b| = 3/2, where they are summed, the first omitted term is below 5.4e-19
# of the sum.  Above it 1/(2b^2) is at most 1.12x the sum, so the closed form
# cancels little.  The switch is set where the worst error over |b| <= 3 is
# least (40000 b, half uniform, half log-uniform in |b| from 1e-9): 3.5e-15
# with it at 1/2, just above it; 7.1e-16 at 1; 3.9e-16 at 1.25; 3.4e-16 at
# 3/2, next to pi, where the closed form's own error is left.
_COT_TAYLOR = (
    1.4441327902750873e-28,
    1.4253019342656459e-27,
    1.4067166243309396e-26,
    1.3883736586582218e-25,
    1.3702698771849757e-24,
    1.3524021610545156e-23,
    1.3347674320786975e-22,
    1.31736265220769e-21,
    1.3001848230068637e-20,
    1.2832309851413144e-19,
    1.2664982178703175e-18,
    1.2499836385610405e-17,
    1.2336844022586037e-16,
    1.2175977014591684e-15,
    1.2017207666653852e-14,
    1.1860508700116827e-13,
    1.1705853409912441e-12,
    1.1553216299501312e-11,
    1.1402575602296092e-10,
    1.1253923258404497e-09,
    1.1107304394989839e-08,
    1.0962973925936889e-07,
    1.0822021404031986e-06,
    1.0688899577788467e-05,
    0.00010582010582010582,
    0.0010582010582010583,
    0.011111111111111112,
    0.16666666666666666,
)


def cot_partial_fraction_sum(b: float) -> float:
    """Closed form of sum_{k>=1} 1/((k*pi)^2 - b^2) = 1/(2b^2) - cot(b)/(2b).

    Even in b.  Arguments with |sin b| < 1e-10, next to a multiple of pi
    (including 0), sit on a pole of the right-hand side and are rejected
    with :class:`DomainError`, as are b = +-inf and nan.  Below |b| = 3/2,
    where the two terms cancel (to about 1/6 next to 0), the Taylor series
    1/6 + b^2/90 + ... is summed instead, 28 terms by Horner's rule.
    """
    if not math.isfinite(b):
        raise DomainError(f"cot_partial_fraction_sum requires finite b, got {b!r}")
    sin_b = math.sin(b)
    if abs(sin_b) < _POLE_MARGIN:
        raise DomainError(f"b={b!r} is within {_POLE_MARGIN} of a pole (pi * integer)")
    if abs(b) < 1.5:
        x = b * b
        s = 0.0
        for c in _COT_TAYLOR:
            s = s * x + c
        return s
    return 1.0 / (2.0 * b * b) - math.cos(b) / (2.0 * b * sin_b)


# Stirling coefficients B_{2j} / (2j (2j-1)) for j = 1..8.
_STIRLING = tuple(_bernoulli_over(j, 2 * j * (2 * j - 1)) for j in range(1, 9))

_LN_SQRT_2PI = 0.9189385332046727  # log(2*pi)/2


def _stirling_series(x: float, total: float) -> float:
    # total + sum_j B_{2j} / (2j (2j-1) x^{2j-1}) over _STIRLING, added to
    # total term by term; first omitted term below 8e-17 at x >= 8,
    # log_gamma's switch.  Each power of 1/x is one step from the last.
    xinv = 1.0 / x
    x2 = xinv * xinv
    for coeff in _STIRLING:
        total += coeff * xinv
        xinv *= x2
    return total


# (-1)^k (zeta(k) - 1) / k for k = 2..28, the Taylor coefficients of
# log Gamma(2 + e) past its linear term (1 - gamma) e; rounded from 40-digit
# values.  At |e| <= 1/2 the first omitted term is below 2e-19.  With 1 - gamma
# they make _LGAMMA2_HORNER, the polynomial log Gamma(2 + e)/e from e^27 down
# to e^0, the one table that _log_gamma_two_plus and _sine_log_sum's divided
# difference walk.
_LGAMMA2_COEFF = (
    0.3224670334241132,
    -0.0673523010531981,
    0.020580808427784546,
    -0.007385551028673986,
    0.0028905103307415234,
    -0.001192753911703261,
    0.0005096695247430425,
    -0.00022315475845357939,
    9.945751278180853e-05,
    -4.492623673813314e-05,
    2.050721277567069e-05,
    -9.439488275268397e-06,
    4.374866789907488e-06,
    -2.039215753801366e-06,
    9.55141213040742e-07,
    -4.492469198764566e-07,
    2.1207184805554665e-07,
    -1.0043224823968099e-07,
    4.7698101693639804e-08,
    -2.2711094608943164e-08,
    1.0838659214896955e-08,
    -5.183475041970047e-09,
    2.4836745438024785e-09,
    -1.1921401405860912e-09,
    5.731367241678862e-10,
    -2.7595228851242334e-10,
    1.330476437424449e-10,
)
_ONE_MINUS_EULER_GAMMA = 0.42278433509846713
_LGAMMA2_HORNER = (*_LGAMMA2_COEFF[::-1], _ONE_MINUS_EULER_GAMMA)


def _log_gamma_two_plus(e: float) -> float:
    # log Gamma(2 + e) for |e| <= 1/2 by its Taylor series, Horner's rule
    # from p = 0, whose first step gives the top coefficient exactly.
    p = 0.0
    for c in _LGAMMA2_HORNER:
        p = p * e + c
    return p * e


# log_gamma sums the Stirling series from this x on and shifts down below it.
# Worst relative error against 45-digit mpmath over 8500 x (4500 log-uniform
# in [1e-3, 1e3], 4000 uniform in [2.5, 14]): 6.0e-16 for a switch at 8, 9,
# 10 or 12, 7.5e-16 at 7 and 2.2e-15 at 6, where the first omitted Stirling
# term reaches 1e-15 of the value.
_STIRLING_FROM = 8.0


def log_gamma(x: float) -> float:
    """log Gamma(x) for 0 < x < inf, to within 1e-15 relative.

    Below 8 the argument is shifted down onto [1/2, 5/2], where the Taylor
    series of log Gamma(2 + e) is summed at e = x - 2, or at e = x - 1 less
    log1p(e):

        log Gamma(x) = log Gamma(1 + x) - log x                      (x < 1/2),
        log Gamma(x) = log prod_{j<=k} (x - j) + log Gamma(x - k)     (x > 5/2),

    with x - k in (3/2, 5/2].  Every e and x - j is exact, so only the
    product rounds, and the result keeps its relative accuracy next to the
    zeros at 1 and 2.  From 8 on the Stirling series takes over.

    From x = 2.556348163871691e305 on the value is past the float range and
    :class:`DomainError` is raised.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires 0 < x < inf, got {x!r}")
    if x < _STIRLING_FROM:
        if x < 0.5:
            return _log_gamma_two_plus(x) - math.log1p(x) - math.log(x)
        if x < 1.5:
            e = x - 1.0
            return _log_gamma_two_plus(e) - math.log1p(e)
        prod = 1.0
        while x > 2.5:
            x -= 1.0
            prod *= x
        return math.log(prod) + _log_gamma_two_plus(x - 2.0)
    value = _stirling_series(x, (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI)
    if value == math.inf:
        raise DomainError(f"log_gamma({x!r}) overflows binary64")
    return value


_ACCEL_RATE = math.log(3.0 + math.sqrt(8.0))  # ~1.7627, digits gained per term


def catalan_reference(tol: float) -> float:
    """Catalan's constant from sum_n (-1)^n / (2n+1)^2, accelerated.

    Chebyshev-weighted acceleration of the alternating series (the classic
    "sumalt" scheme): with n terms the remainder is provably below
    2*(3+sqrt 8)^{-n} because 1/(2n+1)^2 is a moment sequence of a positive
    measure on [0, 1].  n is chosen so that bound sits under ``tol`` with a
    factor-2 margin; tol is floored at 1e-15 (binary64 noise floor), and
    every tol from 0.5 up, inf included, takes the 8-term floor of n.

    This is the reference oracle every other Catalan route is compared to;
    it also respects the elementary bracket 0 < G < pi^2/8.
    """
    if math.isnan(tol):
        raise DomainError(f"catalan_reference requires a tolerance, got {tol!r}")
    tol = min(max(tol, 1e-15), 0.5)
    n = max(8, math.ceil(math.log(4.0 / tol) / _ACCEL_RATE))
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c / float((2 * k + 1) ** 2)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


# Within this of pi/2, pi/2 - alpha takes pi's low part (PI/2 - alpha is
# exact there), and the sine-log sum its log Gamma gap from one divided
# difference; both vanish at pi/2.  Elsewhere they keep PI/2 - alpha.
_NEAR_HALF_PI = 0.25
# gamma + log(2 pi) - 2 rounded once from its 40-digit value.
_GAMMA_LOG_2PI_LESS_2 = 0.41509273131087837


def _half_pi_minus(alpha: float) -> float:
    gap = PI / 2.0 - alpha
    return gap + 0.5 * _PI_LO if abs(gap) < _NEAR_HALF_PI else gap


def _sine_log_sum(alpha: float) -> float:
    """sum_{j>=1} sin(2 j alpha) log(j) / j for 0 < alpha < pi, in closed form.

    Kummer's Fourier series of log Gamma on (0, 1),

        log Gamma(a) = (1/2) log(pi / sin(pi a)) + (1/2 - a)(gamma + log 2 pi)
                       + (1/pi) sum_j sin(2 pi j a) log(j) / j,

    minus the same series at 1 - a, taken at a = alpha/pi, gives

        sum = (pi/2) [log Gamma(a) - log Gamma(1 - a)] - (pi/2 - alpha)(gamma + log 2 pi).

    The sum vanishes at pi/2.  Within 1/4 of it, with a = 1/2 + d and
    delta = alpha - pi/2 = pi d, the log Gamma gap is 2d times the divided
    difference D of log Gamma(2 + e)'s Taylor polynomial between d - 1/2 and
    -d - 1/2, less 2 atanh(2d), so that

        sum = delta (D + gamma + log 2 pi - 2) - pi (atanh(2d) - 2d),

    and the sum keeps 1.2e-15 of itself (against 40-digit mpmath).  Elsewhere
    two log_gamma values are subtracted, with alpha > pi/2 taken as minus the
    sum at pi - alpha from pi's two parts (a = alpha/pi rounded would cost
    1 - a about 4e-17/(pi - alpha) of its digits): 1.2e-15 of |sum| + 1.
    """
    delta = -_half_pi_minus(alpha)
    if abs(delta) < _NEAR_HALF_PI:
        # D in one Horner pass over both nodes: a step p -> p x + c of the
        # polynomial's Horner sums takes D -> D x1 + p(x0).
        d = delta / PI
        x1, x0 = d - 0.5, -d - 0.5
        p = slope = 0.0
        for c in _LGAMMA2_HORNER:
            slope = slope * x1 + p
            p = p * x0 + c
        slope = slope * x1 + p
        return delta * (slope + _GAMMA_LOG_2PI_LESS_2) - PI * (math.atanh(2.0 * d) - 2.0 * d)
    sign = 1.0
    if alpha > PI / 2.0:
        sign, alpha = -1.0, (PI - alpha) + _PI_LO
    a = alpha / PI
    return sign * (
        (PI / 2.0) * (log_gamma(a) - log_gamma(1.0 - a))
        - (PI / 2.0 - alpha) * (EULER_GAMMA + math.log(2.0 * PI))
    )
