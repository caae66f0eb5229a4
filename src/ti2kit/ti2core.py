"""Evaluators for the inverse tangent integral Ti2(y) = integral_0^y arctan(x)/x dx.

Four independent routes to the same function:

* the defining power series for |y| <= 0.99 (a fixed-degree Horner
  polynomial per band up to 1/2, a term-by-term loop above), the
  imaginary part of the dilogarithm at i*y on (0.99, 2), and the inversion
  Ti2(y) = Ti2(1/y) + (pi/2) log y onto the Horner bands from 2 on,
* direct adaptive quadrature of arctan(x)/x (the oracle route),
* the closed form arctan(a) log(a) + Im Li2(1 + i a) - (pi/4) log(1 + a^2),
* the Clausen reduction at tangent arguments.

None of them clamps or corrects anything: a disagreement above tolerance
surfaces as a verification failure, never as a silent adjustment.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .numerics import DomainError, integrate_adaptive
from .polylog import _li2_any, clausen2, li2

__all__ = _EXPORTS["ti2core"]

PI = math.pi

# Route tags recorded in identity reports.
METHOD_SERIES = "series"
METHOD_IMAGINARY_DILOG = "imaginary-dilog"
METHOD_INVERSION = "inversion"
METHOD_QUADRATURE = "quadrature"
METHOD_CLAUSEN_FORM = "clausen-form"

# The power series has radius 1; beyond 0.99 its term count degrades, so the
# dilogarithm route takes over (the loop takes 1252 terms at y = 0.99).
SERIES_CUTOFF = 0.99

# From here on 1/y <= 1/2, so the inversion lands on the Horner bands.
INVERSION_FROM = 2.0

_HALF_PI = 0.5 * PI

# remark1_partial's and verify's largest K: K Ti2 differences at ~2 us each
# take 0.23 s at K = 1e5, the largest K remark1's tolerance was measured at.
_MAX_K = 100_000


def ti2_method(y: float) -> str:
    """Which route :func:`ti2` uses for the argument ``y``."""
    y = abs(y)
    if y <= SERIES_CUTOFF:
        return METHOD_SERIES
    return METHOD_INVERSION if y >= INVERSION_FROM else METHOD_IMAGINARY_DILOG


def ti2(y: float) -> float:
    """Inverse tangent integral Ti2(y); odd in y, Ti2(1) = Catalan's constant.

    |y| <= 1/2:  power series sum (-1)^n y^{2n+1} / (2n+1)^2, cut at a fixed
                 N = 7, 9, 12 or 23 terms for |y| <= 1/16, 1/8, 1/4 or 1/2
                 and summed by Horner's rule in y^2.
    |y| <= 0.99: the same series term by term, until a term drops below
                 1e-18 of the sum.
    |y| <  2:    Im Li2(i y).
    |y| >= 2:    the inversion Ti2(y) = Ti2(1/y) + (pi/2) log y, with
                 Ti2(1/y) on the Horner bands; both terms are positive, so
                 nothing cancels (within 3.1e-16 relative of mpmath).
    Oddness is implemented by reflection, so ti2(-y) == -ti2(y) exactly.
    """
    if not math.isfinite(y):
        raise DomainError(f"ti2 requires a finite argument, got {y!r}")
    if y < 0.0:
        return -ti2(-y)
    if y == 0.0:
        return y  # -0.0 stays -0.0, as oddness asks
    if y <= SERIES_CUTOFF:
        return _ti2_series(y)
    if y >= INVERSION_FROM:
        return _ti2_series(1.0 / y) + _HALF_PI * math.log(y)
    return _li2_any(complex(0.0, y)).imag


# (-1)^n / (2n+1)^2 for n = 0..64, each correctly rounded (int / int).  The
# bands below use n <= 22; decomp's Hurwitz n-series takes n = 1..64.
_SERIES_COEFF = tuple((-1) ** n / (2 * n + 1) ** 2 for n in range(65))

# (top of band, N): on 0 < y <= top the series keeps its first N terms, the
# least N whose first omitted term y^(2N+1) / (2N+1)^2 at the top is below
# 1e-17 of Ti2(top).  Each band carries its coefficients n = N-1 .. 1 in
# Horner order; _ti2_series writes each band's polynomial out over them.
_HORNER_BANDS = tuple(
    (top, _SERIES_COEFF[n - 1 : 0 : -1])
    for top, n in ((0.0625, 7), (0.125, 9), (0.25, 12), (0.5, 23))
)

# The coefficients n = 1..22 as names, for the written-out polynomials.
(_T1, _T2, _T3, _T4, _T5, _T6, _T7, _T8, _T9, _T10, _T11,
 _T12, _T13, _T14, _T15, _T16, _T17, _T18, _T19, _T20, _T21, _T22) = _SERIES_COEFF[1:23]


def _ti2_series(y: float) -> float:
    # 0 < y <= SERIES_CUTOFF.  Up to 1/2: y + y * sum_{1<=n<N} (-1)^n y^2n / (2n+1)^2
    # by Horner's rule in y^2, with N fixed per band.  Adding the leading y
    # last keeps the error within 1.1e-16 relative (1.5e-16 with the 1 in p).
    # Each band's polynomial makes the products and sums of the loop
    # p = p * u + c over its _HORNER_BANDS coefficients in the same order.
    if y <= 0.5:
        u = y * y
        if y <= 0.0625:
            p = _T1 + u * (_T2 + u * (_T3 + u * (_T4 + u * (_T5 + u * _T6))))
        elif y <= 0.125:
            p = _T1 + u * (_T2 + u * (_T3 + u * (_T4 + u * (_T5 + u * (_T6 + u * (
                _T7 + u * _T8))))))
        elif y <= 0.25:
            p = _T1 + u * (_T2 + u * (_T3 + u * (_T4 + u * (_T5 + u * (_T6 + u * (
                _T7 + u * (_T8 + u * (_T9 + u * (_T10 + u * _T11)))))))))
        else:
            p = _T1 + u * (_T2 + u * (_T3 + u * (_T4 + u * (_T5 + u * (_T6 + u * (
                _T7 + u * (_T8 + u * (_T9 + u * (_T10 + u * (_T11 + u * (_T12 + u * (
                _T13 + u * (_T14 + u * (_T15 + u * (_T16 + u * (_T17 + u * (_T18 + u * (
                _T19 + u * (_T20 + u * (_T21 + u * _T22))))))))))))))))))))
        return y + y * (u * p)
    # (1/2, 0.99]: term by term until a term drops below 1e-18 of the sum;
    # 1252 terms at y = 0.99.
    total = 0.0
    yp = y  # y^{2n+1}
    y2 = y * y
    for n in range(0, 1500):
        m = 2 * n + 1
        term = yp / (m * m)
        if n % 2 == 1:
            term = -term
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            break
        yp *= y2
    return total


def ti2_via_quadrature(y: float) -> float:
    """Ti2(y) by adaptive quadrature of arctan(x)/x, which takes its limit 1 at 0.

    Serves, to absolute tolerance 1e-12, as the independent oracle for every
    other route.  Requires y >= 0 (combine with oddness for negative arguments).
    """
    if not y >= 0.0:
        raise DomainError(f"ti2_via_quadrature requires y >= 0, got {y!r}")
    if y == 0.0:
        return y  # keeps the sign of zero, as ti2 does
    return integrate_adaptive(
        lambda x: math.atan(x) / x if x != 0.0 else 1.0, 0.0, y, 1e-12
    ).value


def ti2_proposition_form(a: float) -> float:
    """Closed form arctan(a) log(a) + Im Li2(1 + i a) - (pi/4) log(1 + a^2), a > 0.

    All three pieces vanish as a -> 0+, matching Ti2(0) = 0.
    """
    if not a > 0.0:
        raise DomainError(f"ti2_proposition_form requires a > 0, got {a!r}")
    log_a = math.log(a)
    # a * a overflows from a = 1.34e154; above 1e150, log1p(a^2) is 2 log a
    # to within a^-2 < 1e-300.
    log1p_a2 = math.log1p(a * a) if a <= 1e150 else 2.0 * log_a
    return math.atan(a) * log_a + li2(complex(1.0, a)).imag - 0.25 * PI * log1p_a2


_THETA_MARGIN = 1e-6


def ti2_clausen_form(theta: float) -> float:
    """Clausen reduction: Ti2(tan t) = t log(tan t) + Cl2(2t)/2 + Cl2(pi - 2t)/2.

    Valid on (0, pi/2); arguments within 1e-6 of either endpoint are rejected
    (tan degenerates at pi/2 and the log(tan) term loses all its digits to
    cancellation at 0).
    """
    if not (_THETA_MARGIN <= theta <= PI / 2.0 - _THETA_MARGIN):
        raise DomainError(
            f"ti2_clausen_form requires theta in [{_THETA_MARGIN}, pi/2 - {_THETA_MARGIN}], "
            f"got {theta!r}"
        )
    t = math.tan(theta)
    return theta * math.log(t) + 0.5 * clausen2(2.0 * theta) + 0.5 * clausen2(PI - 2.0 * theta)
