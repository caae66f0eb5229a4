"""Hurwitz zeta, exponential integral, log-gamma, and the Catalan oracle.

These are the scalar special functions the identity checks lean on.  Each one
uses a classical two-regime scheme (series or recursion where it converges
briskly, continued fraction / asymptotic tail elsewhere) with the switchovers
pinned by overlap tests and by measured error against a high-precision
reference rather than tuning.

log Gamma has one implementation, :func:`log_gamma`; the sine-log sum takes
Kummer's log Gamma(a) - log Gamma(1 - a) from two of its values.  The digamma
and Im log Gamma gaps take the gap of their asymptotic series in 1/z from one
divided difference, so that no two asymptotic sums are subtracted.
"""

from __future__ import annotations

import math
import sys

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

    Direct summation of the first M = max(0, ceil(2s + 30 - c)) terms plus
    the Euler-Maclaurin tail at x = M + c

        x^{1-s}/(s-1) + x^{-s}/2
          + sum_j B_{2j}/(2j)! * (s)_{2j-1} * x^{-s-2j+1}

    with Bernoulli corrections through B_12.  The first omitted correction,
    B_14/14! (s)_13 x^{-s-13}, is below 1e-16 of the leading term once
    x >= 2s + 30 (for s up to about 50), so large c needs no shift and the
    cost does not grow with c.

    The direct sum stops sooner, with no tail, at the first n with
    y = n + c >= c (1e17 F)^{1/s}, F = 1 + x/(s-1), if that n is below M:
    the rest, at most y^{-s} (1 + y/(s-1)), is then below 1e-17 c^{-s} <=
    1e-17 zeta(s, c).  That is 2 terms at s = 41, c = 1 - 1/pi.  At least
    one term is summed: from s = 3.6e17 (at c = 1) the root rounds to 1 and n
    to 0, and the first term is then all of zeta(s, c) that binary64 holds.
    """
    if not 1.0 < s < math.inf:
        raise DomainError(f"hurwitz_zeta requires 1 < s < inf, got s={s!r}")
    if not 0.0 < c < math.inf:
        raise DomainError(f"hurwitz_zeta requires 0 < c < inf, got c={c!r}")

    # 2s overflows from s = 8.99e307; from s = 1e300 on (1e17 F)^{1/s}
    # rounds to 1 whatever M is, so there M is taken at s = 1e300.
    m = max(0, math.ceil(2.0 * min(s, 1e300) + 30.0 - c))
    x = m + c
    # Compared as a float first: the bound is inf as s -> 1.
    stop = c * ((1e17 * (1.0 + x / (s - 1.0))) ** (1.0 / s) - 1.0)
    short = stop < m
    total = 0.0
    try:
        for k in range(max(1, math.ceil(stop)) if short else m):
            total += (k + c) ** (-s)
    except OverflowError:
        # (k + c)^{-s} for k + c < 1: zeta(s, c) is past the float range.
        raise DomainError(f"hurwitz_zeta({s!r}, {c!r}) overflows binary64") from None
    if short:
        return total

    total += x ** (1.0 - s) / (s - 1.0)
    total += 0.5 * x ** (-s)
    # Pochhammer (s)_{2j-1} and x^{-s-2j+1}, each one step from the last;
    # a step's factor (s + 2j - 1)(s + 2j) rounds s + 2j before taking 1 off.
    xp1 = x ** (-s - 1.0)
    if xp1 == 0.0:
        # Every correction underflows too, but (s)_{2j-1} can overflow
        # (from s of about 1e28) and make inf * 0 = nan.
        return total
    x2 = 1.0 / (x * x)
    xp2 = xp1 * x2
    xp3 = xp2 * x2
    xp4 = xp3 * x2
    xp5 = xp4 * x2
    xp6 = xp5 * x2
    poch2 = s * ((s + 2.0 - 1.0) * (s + 2.0))
    poch3 = poch2 * ((s + 4.0 - 1.0) * (s + 4.0))
    poch4 = poch3 * ((s + 6.0 - 1.0) * (s + 6.0))
    poch5 = poch4 * ((s + 8.0 - 1.0) * (s + 8.0))
    poch6 = poch5 * ((s + 10.0 - 1.0) * (s + 10.0))
    return (
        total
        + _EM2 * s * xp1
        + _EM4 * poch2 * xp2
        + _EM6 * poch3 * xp3
        + _EM8 * poch4 * xp4
        + _EM10 * poch5 * xp5
        + _EM12 * poch6 * xp6
    )


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
    if not (h >= 0.0 and x - h >= 12.0):
        raise DomainError(f"digamma_gap requires h >= 0 and x - h >= 12, got x={x!r}, h={h!r}")
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
    if not (h >= 0.0 and x - h >= 12.0 and math.isfinite(x) and math.isfinite(y)):
        raise DomainError(
            f"loggamma_im_gap requires finite x and y, h >= 0 and x - h >= 12, "
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
    # modified Lentz; about 60 steps at x = 1.5, 22 at x = 6.
    tiny = 1e-300
    f = x + 1.0
    if f == 0.0:
        f = tiny
    c = f
    d = 0.0
    for n in range(1, 200):
        a = -float(n * n)
        b = x + 2.0 * n + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f


_POLE_MARGIN = 1e-10


def cot_partial_fraction_sum(b: float) -> float:
    """Closed form of sum_{k>=1} 1/((k*pi)^2 - b^2) = 1/(2b^2) - cot(b)/(2b).

    Even in b.  Arguments within 1e-10 of a multiple of pi (including 0)
    sit on a pole of the right-hand side and are rejected with
    :class:`DomainError`, as are b = +-inf and nan.
    """
    if not math.isfinite(b):
        raise DomainError(f"cot_partial_fraction_sum requires finite b, got {b!r}")
    if abs(b - PI * round(b / PI)) < _POLE_MARGIN:
        raise DomainError(f"b={b!r} is within {_POLE_MARGIN} of a pole (pi * integer)")
    return 1.0 / (2.0 * b * b) - math.cos(b) / (2.0 * b * math.sin(b))


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
# values.  At |e| <= 1/2 the first omitted term is below 2e-19.
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
(_LG2, _LG3, _LG4, _LG5, _LG6, _LG7, _LG8, _LG9, _LG10, _LG11, _LG12, _LG13, _LG14, _LG15,
 _LG16, _LG17, _LG18, _LG19, _LG20, _LG21, _LG22, _LG23, _LG24, _LG25, _LG26, _LG27,
 _LG28) = _LGAMMA2_COEFF
_ONE_MINUS_EULER_GAMMA = 0.42278433509846713


def _log_gamma_two_plus(e: float) -> float:
    # log Gamma(2 + e) for |e| <= 1/2 by its Taylor series (Horner), the
    # products and sums of acc = (acc + c) * e over reversed(_LGAMMA2_COEFF)
    # in the same order.
    return e * (_ONE_MINUS_EULER_GAMMA + e * (_LG2 + e * (_LG3 + e * (_LG4 + e * (
        _LG5 + e * (_LG6 + e * (_LG7 + e * (_LG8 + e * (_LG9 + e * (_LG10 + e * (
        _LG11 + e * (_LG12 + e * (_LG13 + e * (_LG14 + e * (_LG15 + e * (_LG16 + e * (
        _LG17 + e * (_LG18 + e * (_LG19 + e * (_LG20 + e * (_LG21 + e * (_LG22 + e * (
        _LG23 + e * (_LG24 + e * (_LG25 + e * (_LG26 + e * (
        _LG27 + e * _LG28)))))))))))))))))))))))))))


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


def _sine_log_sum(alpha: float) -> float:
    """sum_{j>=1} sin(2 j alpha) log(j) / j for 0 < alpha < pi, in closed form.

    Kummer's Fourier series of log Gamma on (0, 1),

        log Gamma(a) = (1/2) log(pi / sin(pi a)) + (1/2 - a)(gamma + log 2 pi)
                       + (1/pi) sum_j sin(2 pi j a) log(j) / j,

    minus the same series at 1 - a, taken at a = alpha/pi, gives

        sum = (pi/2) [log Gamma(a) - log Gamma(1 - a)] - (pi/2 - alpha)(gamma + log 2 pi).

    The sum is odd about pi/2, so alpha > pi/2 is taken as minus the sum at
    pi - alpha, formed from pi's two parts.  At alpha itself, the rounding of
    a = alpha/pi would cost 1 - a about 4e-17/(pi - alpha) of its digits,
    which log Gamma(1 - a) passes on to the sum.  Both log_gamma values err
    below 7e-16 relative, and the sum within 1.2e-15 of |sum| + 1 (measured
    against 40-digit mpmath); next to pi/2, where the sum vanishes, its
    relative error grows, to 2.8e-8 at alpha - pi/2 = 1e-8.
    """
    sign = 1.0
    if alpha > PI / 2.0:
        sign, alpha = -1.0, (PI - alpha) + _PI_LO
    a = alpha / PI
    return sign * (
        (PI / 2.0) * (log_gamma(a) - log_gamma(1.0 - a))
        - (PI / 2.0 - alpha) * (EULER_GAMMA + math.log(2.0 * PI))
    )

