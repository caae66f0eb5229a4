"""Pole decomposition of arctan(x/alpha) and everything downstream of it.

The cotangent's partial-fraction expansion turns the argument of
sin(alpha + i x)/sin(alpha) into the pointwise identity (alpha not a
multiple of pi, x >= 0):

    arctan(x/alpha) = arctan(cot(alpha) tanh(x)) + sum_{k>=1} Xi_k(x),
    Xi_k(x) = arctan( 2 alpha x / (x^2 + (k pi)^2 - alpha^2) ).

Dividing by x and integrating over [0, A] gives, for 0 < alpha < pi,

    Ti2(A/alpha) = H(A, alpha) + sum_k [ Ti2(A/(k pi - alpha)) - Ti2(A/(k pi + alpha)) ]

with H(A, alpha) = integral_0^A arctan(cot(alpha) tanh x)/x dx.  Setting
A = alpha = pi/n produces a family of Catalan decompositions; n = 2 kills
the hyperbolic term and telescopes.  Expanding the bracket sum at A = 1,
alpha = 1 through the Ti2 power series yields the Hurwitz-zeta form

    G = K(1) + S_1 + sum_{n>=1} (-1)^n / (2n+1)^2 * S_{2n+1},
    S_r = sum_k [ (k pi - 1)^{-r} - (k pi + 1)^{-r} ]
        = pi^{-r} [ zeta(r, 1 - 1/pi) - zeta(r, 1 + 1/pi) ]   (r > 1),

with S_1 = 1 - cot(1) from the cotangent partial fractions and K(1) in
closed form through the exponential integral and the sine-log sum.

H(A, alpha) has two routes, chosen by A.  Below A = 3 (_H_QUADRATURE_BELOW)
the integrand arctan(cot(alpha) tanh x)/x is integrated by adaptive
Gauss-Kronrod quadrature; it is analytic in the strip |Im x| < min(alpha,
pi - alpha), so the rule converges fast there.  From A = 3 on, H is the
exponential-integral series of the Fourier expansion, at most 5 terms.
Below A = 3 that series grows as 1/A and loses digits to cancellation
(1395 terms and 1.2e-12 relative at A = 0.01); there it serves only
Lemma 1's K(1), whose statement it is.

Corollary 2's bracket sum (and the Catalan family's, its A = alpha = pi/n
case) is summed over every k with a fixed number of Ti2 calls.  The first
K0 = max(20, ceil((4A + alpha)/pi)) brackets are summed directly; the rest,
T(K0) = sum over k > K0, is a digamma difference plus an alternating series
of Hurwitz-zeta differences whose ratio A/((K0+1) pi - alpha) stays below
1/4.  That n-series stops at its first omitted term below 1e-17, which is
the reported tail bound.  Lemma 1's n-series is the same series at
A = alpha = 1, m = 0 (ratio 1/(pi - 1)), summed to the end by the same code
in 20 terms.

The pointwise identity's pole sum is summed to the end the same way.
Xi_k(x) = Im[log(k - a + iy) - log(k + a + iy)] with a = alpha/pi and
y = x/pi, so the sum over k > m telescopes through log Gamma(z+1) =
log Gamma(z) + log z to Im[log Gamma(m+1+a+iy) - log Gamma(m+1-a+iy)].  The
first 20 terms are summed directly and the rest is that tail at m = 20,
from the complex Stirling series differenced term by term
(special.loggamma_im_gap), whose remainder is below 1e-19.

The reports that check these identities are built by verify's table; this
module holds the sums they compare.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .numerics import (
    DomainError,
    QuadratureResult,
    SeriesResult,
    integrate_adaptive,
    sum_series,
)
from .special import (
    EULER_GAMMA,
    _sine_log_sum,
    cot_partial_fraction_sum,
    digamma_gap,
    ei_negative,
    hurwitz_zeta,
    loggamma_im_gap,
)
from .ti2core import ti2

__all__ = _EXPORTS["decomp"]

PI = math.pi

_ALPHA_MARGIN = 1e-10


def _check_alpha(alpha: float) -> None:
    if not _ALPHA_MARGIN < alpha < PI - _ALPHA_MARGIN:
        raise DomainError(
            f"alpha must lie in (0, pi) away from multiples of pi, got {alpha!r}"
        )


# Above this x, _xi_term divides through by x: x * x overflows above
# 1.34e154, and 2 alpha x above 9e307 / alpha, which made the term inf / inf.
_XI_LARGE_X = 1e150


def _xi_term(k: int, alpha: float, x: float) -> float:
    # (k pi)^2 - alpha^2 as a product: PI - alpha is exact near alpha = pi.
    kpi = k * PI
    c = (kpi - alpha) * (kpi + alpha)
    if x > _XI_LARGE_X:
        return math.atan(2.0 * alpha / (x + c / x))
    return math.atan(2.0 * alpha * x / (x * x + c))


# Pole corrections summed one by one before the Stirling tail takes over.
_XI_DIRECT_TERMS = 20


def _xi_sum(alpha: float, x: float) -> float:
    """sum_{k>=1} Xi_k(x) in constant time.

    Xi_k(x) = Im[log(k - a + iy) - log(k + a + iy)] with a = alpha/pi and
    y = x/pi, so log Gamma(z+1) = log Gamma(z) + log z telescopes the tail:

        T(m) = sum_{k>m} Xi_k(x) = Im[log Gamma(m+1+a+iy) - log Gamma(m+1-a+iy)].

    The first 20 terms are summed directly, the rest as T(20) by
    loggamma_im_gap.
    """
    direct = math.fsum(_xi_term(k, alpha, x) for k in range(1, _XI_DIRECT_TERMS + 1))
    return direct + loggamma_im_gap(_XI_DIRECT_TERMS + 1.0, x / PI, alpha / PI)


def _h_integral(A: float, alpha: float, tol: float) -> QuadratureResult:
    # integral_0^A arctan(cot(alpha) tanh x)/x dx; the integrand tends to
    # cot(alpha) at x -> 0+, its value at 0, and is smooth on (0, A].
    cot = math.cos(alpha) / math.sin(alpha)

    def f(x: float) -> float:
        if x == 0.0:
            return cot
        return math.atan(cot * math.tanh(x)) / x

    return integrate_adaptive(f, 0.0, A, tol)


# h_series integrates below this A and sums the Ei series from it on.  Mean
# h_series cost over 200 points stratified like perfbench's H pool (A
# log-uniform in [0.01, 10], alpha uniform in [0.01, pi - 0.01]) on 21-point
# Gauss-Kronrod panels, each point the best of 11, 2 vCPUs, Python 3.11;
# the ranges span two runs on a host whose speed drifted by a third between
# them: 16-22 us for every crossover in [1.5, 3] (3 within 6% of the least
# in each run), 18-24 us at 1, 19-25 us at 5, 22-29 us for quadrature
# throughout, about 1 ms for the series throughout.  Of that flat range the
# top is taken: the quadrature is the more accurate route (worst 2.5e-16
# against 3.4e-15 of |H| + 1, mpmath at 30 digits), and A < 3 puts every
# corollary 2 and 3 grid point on it.
_H_QUADRATURE_BELOW = 3.0
_H_QUADRATURE_TOL = 1e-13


def h_series(A: float, alpha: float) -> SeriesResult:
    """H(A, alpha) = integral_0^A arctan(cot(alpha) tanh x)/x dx, by one of two routes.

    A below 3 is integrated by adaptive Gauss-Kronrod quadrature to absolute
    tolerance 1e-13 (the exponential-integral series would need
    ceil(16.1/A) terms there and lose digits to cancellation).  On that
    route ``terms_used`` is the number of integrand evaluations and
    ``tail_bound`` the quadrature's error estimate.

    From A = 3 on, H is summed by termwise integration of the Fourier
    expansion.  arctan(cot(alpha) tanh x) = -sum_j sin(2 j alpha)/j
    (e^{-2jx} - 1) integrates termwise to -sum_j sin(2 j alpha)/j * T(2 j A)
    with T(xi) = Ei(-xi) - gamma - log(xi).  The gamma and log pieces of T
    make that series only conditionally convergent, so they are summed in
    closed form first (the sawtooth sum_j sin(2 j alpha)/j = pi/2 - alpha
    and the sine-log sum via Kummer's log-gamma Fourier series), leaving

        H = -sum_j sin(2 j alpha)/j * Ei(-2 j A)
            + (pi/2 - alpha)(gamma + log 2A) + sum_j sin(2 j alpha) log(j)/j.

    The Ei sum stops once its tail bound falls below 1e-15, within 5 terms;
    ``terms_used`` is the number of Ei terms and ``tail_bound`` the
    truncation bound, geometric because |Ei(-xi)| <= e^{-xi}/xi gives
    e^{-2nA}/(2 A n^2 (1 - e^{-2A})) after n terms.  A must be finite; H is
    finite up to the largest float.
    """
    _check_alpha(alpha)
    if not 0.0 < A < math.inf:
        raise DomainError(f"h_series requires 0 < A < inf, got {A!r}")
    if A < _H_QUADRATURE_BELOW:
        quad = _h_integral(A, alpha, _H_QUADRATURE_TOL)
        return SeriesResult(
            value=quad.value,
            terms_used=quad.evaluations,
            tail_bound=quad.abs_error_estimate,
        )
    return _h_ei_series(A, alpha)


# The Ei sum's term budget.  Its tail bound falls below 1e-15 within 64
# terms for every A >= 0.25: 5 terms at A = 3, 15 at K(1)'s A = 1.
_H_EI_MAX_TERMS = 64


def _h_ei_series(A: float, alpha: float) -> SeriesResult:
    # h_series' exponential-integral route, which K(1) takes at A = 1.
    geom = 1.0 - math.exp(-2.0 * A)
    ser = sum_series(
        lambda j: -math.sin(2.0 * j * alpha) / j * ei_negative(2.0 * j * A),
        lambda k: math.exp(-2.0 * k * A) / (2.0 * A * k * k * geom),
        tol=1e-15,
        max_terms=_H_EI_MAX_TERMS,
    )
    # 2A overflows from A = 8.99e307, where log 2A is taken as log A + log 2.
    two_a = 2.0 * A
    log_two_a = math.log(two_a) if two_a < math.inf else math.log(A) + math.log(2.0)
    value = (
        ser.value
        + (PI / 2.0 - alpha) * (EULER_GAMMA + log_two_a)
        + _sine_log_sum(alpha)
    )
    return ser._replace(value=value)


def _pole_tail(A: float, alpha: float, m: int) -> SeriesResult:
    """T(m) = sum_{k>m} [Ti2(A/(k pi - alpha)) - Ti2(A/(k pi + alpha))] via Hurwitz zeta.

    Requires q = A/((m+1) pi - alpha) < 1, so that every argument sits inside
    the radius of the Ti2 power series; swapping the sums then gives, with
    a = alpha/pi,

        T(m) = (A/pi) [psi(m+1+a) - psi(m+1-a)] + _hurwitz_n_series(A, alpha, m).

    The digamma difference is taken by digamma_gap, which keeps its digits
    when A/pi is large; it needs m + 1 - a >= 12.
    """
    ser = _hurwitz_n_series(A, alpha, m)
    return ser._replace(value=A / PI * digamma_gap(m + 1.0, alpha / PI) + ser.value)


def _hurwitz_n_series(A: float, alpha: float, m: int) -> SeriesResult:
    """sum_{n>=1} (-1)^n x^r / r^2 [zeta(r, m+1-a) - zeta(r, m+1+a)], r = 2n + 1.

    With x = A/pi and a = alpha/pi this is the pole tail's n-series; it needs
    q = x/lo < 1, lo = m+1-a.  Its terms alternate and decrease, so the rest
    is below the first omitted term, bounded through x^r zeta(r, lo) <=
    q^r (1 + lo/(r-1)) (first term plus the integral of the rest).  The sum
    stops once that bound falls below 1e-17 and reports it as the tail bound.
    """
    x = A / PI
    lo = m + 1 - alpha / PI
    hi = m + 1 + alpha / PI

    def term(n: int) -> float:
        r = 2 * n + 1
        return (-1.0) ** n * x**r / (r * r) * (hurwitz_zeta(r, lo) - hurwitz_zeta(r, hi))

    def first_omitted(n: int) -> float:
        r = 2 * n + 3
        return (x / lo) ** r * (1.0 + lo / (r - 1)) / (r * r)

    return sum_series(term, first_omitted, tol=1e-17, max_terms=64)


def _pole_direct_terms(A: float, alpha: float) -> int:
    # K0 with A/((K0+1) pi - alpha) < 1/4: the Hurwitz n-series then gains
    # at least 1.2 digits per term.
    return max(20, math.ceil((4.0 * A + alpha) / PI))


def _pole_bracket(A: float, alpha: float) -> SeriesResult:
    """sum_{k>=1} [Ti2(A/(k pi - alpha)) - Ti2(A/(k pi + alpha))].

    The first K0 = max(20, ceil((4A + alpha)/pi)) brackets are summed
    directly and the rest as T(K0) from the Hurwitz expansion, whose
    n-series bound is the tail bound.
    """
    k0 = _pole_direct_terms(A, alpha)
    total = 0.0
    for k in range(1, k0 + 1):
        total += ti2(A / (k * PI - alpha)) - ti2(A / (k * PI + alpha))
    tail = _pole_tail(A, alpha, k0)
    return SeriesResult(
        value=total + tail.value,
        terms_used=k0 + tail.terms_used,
        tail_bound=tail.tail_bound,
        truncated=tail.truncated,
    )


def remark1_partial(K: int) -> float:
    """Partial sum sum_{k<=K} [Ti2(1/(2k-1)) - Ti2(1/(2k+1))].

    Summed term by term, it telescopes to Ti2(1) - Ti2(1/(2K+1)) for any
    Ti2.  remark1 adds Ti2(1/(2K+1)) back by quadrature, not by ti2, so an
    error in ti2's series route, which serves every term past Ti2(1), stays
    in the sum and fails the check.
    """
    if K < 1:
        raise DomainError(f"remark1_partial requires K >= 1, got {K!r}")
    total = 0.0
    for k in range(1, K + 1):
        total += ti2(1.0 / (2 * k - 1)) - ti2(1.0 / (2 * k + 1))
    return total


def s_r(r: int) -> float:
    """S_r = sum_k [(k pi - 1)^{-r} - (k pi + 1)^{-r}] for odd r >= 1; positive.

    r = 1 goes through the cotangent partial fractions (S_1 = 1 - cot 1);
    r >= 3 through pi^{-r} [zeta(r, 1 - 1/pi) - zeta(r, 1 + 1/pi)].
    """
    if r < 1 or r % 2 == 0:
        raise DomainError(f"s_r requires odd r >= 1, got {r!r}")
    if r == 1:
        return 2.0 * cot_partial_fraction_sum(1.0)
    return PI ** (-r) * (hurwitz_zeta(r, 1.0 - 1.0 / PI) - hurwitz_zeta(r, 1.0 + 1.0 / PI))


def k1_closed() -> float:
    """K(1) = H(1, 1), the hyperbolic term of the A = 1 family, in closed form:

        K(1) = -sum_j sin(2j)/j Ei(-2j) + (pi/2 - 1)(gamma + log 2)
               + sum_j sin(2j) log(j)/j,

    which is h_series' exponential-integral route taken at A = alpha = 1,
    below its crossover, because this form is Lemma 1's statement.  The sum
    stops once its tail bound falls below 1e-15 (15 terms).
    """
    return _h_ei_series(1.0, 1.0).value
