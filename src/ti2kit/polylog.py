"""Complex dilogarithm on the principal branch and the Clausen function.

The dilogarithm Li2(z) = sum_{n>=1} z^n / n^2 is continued to the whole plane
minus the cut [1, oo) on the real axis.  The evaluator refuses arguments on
the open cut (1, oo), so that branch choices are always explicit.

Evaluation strategy: each argument takes at most one inversion and then at
most one reflection, in that order.  Arguments with |z| > 1 are pulled
inside the unit disk with the inversion law

    Li2(z) + Li2(1/z) = -pi^2/6 - Log(-z)^2 / 2,

arguments (inverted or not) with Re z > 1/2 are reflected with

    Li2(z) + Li2(1-z) = pi^2/6 - Log(z) Log(1-z),

and what remains, |z| <= 1 with Re z <= 1/2, is summed by one series in
w = -Log(1-z),

    Li2(z) = sum_{k>=0} B_k w^{k+1} / (k+1)!,

by Horner's rule in w^2 with a fixed 12 even-index terms (k = 2..24).  On
that region |w| <= pi/3, so the terms shrink by (|w|/2pi)^2 < 0.03 per step.
The evaluator keeps Log(-z) and Log(z) Log(1-z) as it reduces, then undoes
the reflection and after it the inversion on the one series value; nothing
recurses.  w is taken from real parts by a complex log1p, never from a
rounded 1 - z, so its relative error does not grow as |z| shrinks.  Against
40-digit mpmath the relative error stays within 3.4e-16 for |z| <= 1/4 and
5.1e-16 up to |z| = 1 (seeded samples of 1500-10000 z per band).  Real
arguments take the same inversion and reflection in float arithmetic and the
same series in real w, within 3.7e-16 relative.

All logarithms are principal.
"""

from __future__ import annotations

import cmath
import math

from . import _EXPORTS
from .numerics import DomainError

__all__ = _EXPORTS["polylog"]

PI = math.pi
_PI2_6 = PI * PI / 6.0


# Bernoulli numbers B_0 .. B_24 as (numerator, denominator); odd ones
# beyond B_1 vanish.
_BERNOULLI = {
    0: (1, 1),
    1: (-1, 2),
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
    18: (43867, 798),
    20: (-174611, 330),
    22: (854513, 138),
    24: (-236364091, 2730),
}

# Coefficients B_k / (k+1)! for k = 24, 22, ..., 2, in Horner order.  Each
# integer quotient is correctly rounded, as float(Fraction(num, den)) is.
_SERIES_COEFF = tuple(
    _BERNOULLI[k][0] / (_BERNOULLI[k][1] * math.factorial(k + 1)) for k in range(24, 0, -2)
)

# The same coefficients as names, for _series' written-out Horner sum.
(_C24, _C22, _C20, _C18, _C16, _C14, _C12, _C10, _C8, _C6, _C4, _C2) = _SERIES_COEFF

_INVERSION_THRESHOLD = 1.0 + 1e-8


def _log1p(u: complex) -> complex:
    """Principal Log(1 + u) from real parts, for Re u >= -1/2.

    (1/2) log1p(2 Re u + |u|^2) + i atan2(Im u, 1 + Re u) keeps its digits
    when |u| is small, where cmath.log(1 + u) first rounds 1 + u.
    """
    re, im = u.real, u.imag
    return complex(0.5 * math.log1p(2.0 * re + re * re + im * im), math.atan2(im, 1.0 + re))


def _series(w):
    # Li2 = sum_{k>=0} B_k w^{k+1} / (k+1)! = w - w^2/4 + w * sum_{j>=1} c_{2j} w^{2j},
    # summed by Horner's rule in w^2, for float and complex w alike.  On the
    # reduced region |w| <= pi/3, so the terms shrink by (|w|/2pi)^2 < 0.03
    # and the first omitted one, k = 26, is below 1e-21 of |Li2|.  Written
    # out, it makes the products and sums of the loop p = p * u + c over
    # _SERIES_COEFF in the same order (each commutes bit for bit).
    u = w * w
    p = _C2 + u * (_C4 + u * (_C6 + u * (_C8 + u * (_C10 + u * (_C12 + u * (
        _C14 + u * (_C16 + u * (_C18 + u * (_C20 + u * (_C22 + u * _C24))))))))))
    return w + w * (u * p - 0.25 * w)


def _li2_real(x: float) -> float:
    # Li2(x) for finite real x <= 1: the complex route's inversion and
    # reflection in float arithmetic, then the series in w = -log1p(-x).
    if x == 1.0:
        return _PI2_6
    lg = None  # Log(-x) of an inversion still to be undone
    if x < -_INVERSION_THRESHOLD:
        lg = math.log(-x)
        x = 1.0 / x
    if x > 0.5:
        r = _PI2_6 - math.log(x) * math.log1p(-x) - _series(-math.log1p(-(1.0 - x)))
    else:
        r = _series(-math.log1p(-x))
    if lg is not None:
        return -r - _PI2_6 - 0.5 * lg * lg
    return r


def _li2_any(z: complex) -> complex:
    """Principal-branch Li2 for any z not on the open cut (1, oo)."""
    lg = None  # Log(-z) of an inversion still to be undone
    try:
        big = z.imag != 0.0 and abs(z) > _INVERSION_THRESHOLD
    except OverflowError:  # |z| past the float range is past the threshold
        big = True
    if big:
        lg = cmath.log(-z)
        z = 1.0 / z
    if z.imag == 0.0:
        # Real x <= 1, or a 1/z that underflowed onto the real axis; the
        # signed zero keeps Li2(conj z) = conj Li2(z).
        r = complex(_li2_real(z.real), z.imag)
    elif z.real > 0.5:
        r = _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _series(-_log1p(-(1.0 - z)))
    else:
        r = _series(-_log1p(-z))
    if lg is not None:
        r = -r - _PI2_6 - 0.5 * lg * lg
    return r


def li2(z: complex) -> complex:
    """Principal-branch dilogarithm Li2(z), z off the open cut (1, oo).

    Agrees with the power series for |z| <= 1, satisfies
    d/dz Li2(z) = -Log(1-z)/z, and is conjugate-symmetric off the real axis.
    Every argument, small or not, real or complex, ends in the same Bernoulli
    series in w = -Log(1-z) after the inversion and reflection laws.
    Real arguments x > 1 raise :class:`DomainError`.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"li2 requires a finite argument, got {z!r}")
    if z.imag == 0.0 and z.real > 1.0:
        raise DomainError(f"z={z.real!r} lies on the branch cut (1, oo)")
    return _li2_any(z)


def clausen2(phi: float) -> float:
    """Clausen function Cl2(phi) = sum_{n>=1} sin(n*phi)/n^2 on [0, 2*pi].

    Computed as Im Li2(e^{i*phi}); the reflection and w-series inside
    :func:`li2` supplies the -phi*log|2 sin(phi/2)| structure near the
    logarithmic endpoints, where the defining series crawls.  Odd about pi:
    Cl2(2*pi - phi) = -Cl2(phi), exactly satisfied here by conjugate symmetry.
    No implicit periodic reduction: arguments outside [0, 2*pi] are rejected.
    """
    if not 0.0 <= phi <= 2.0 * PI:
        raise DomainError(f"clausen2 requires 0 <= phi <= 2*pi, got {phi!r}")
    if phi == 0.0 or phi == 2.0 * PI or phi == PI:
        return 0.0
    return _li2_any(cmath.exp(1j * phi)).imag
