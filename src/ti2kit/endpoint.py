"""The tunable-endpoint identity for Ti2(a).

Cast of characters, all for a > 0 and an endpoint b in (0, pi):

    I(a, b)   = integral_0^b arctan((a + cos beta)/sin beta) d beta
    F(a, b)   = pi*b/2 - b^2/2 + phi_a(b)                     (= I, closed form)
    psi(a)    = Im Li2(1 + i a)
    phi_a(b)  = I(a, b) - pi*b/2 + b^2/2 = -Li2(-a) + Re Li2(-a e^{ib})
              = b^2/2 + Li2(-1/a) - Re Li2(-e^{-ib}/a)       (inversion law)
    phi_a'(b) = Arg(1 + a e^{ib})  in (0, pi)   =>  phi_a strictly increasing

When 0 < psi(a) < phi_a(pi) (the admissibility window), the equation
phi_a(b) = psi(a) has a unique solution b(a) in (0, pi), and then

    Ti2(a) = arctan(a) log(a) + I(a, b(a)) - pi*b(a)/2 + b(a)^2/2
             - (pi/4) log(a^2 + 1).

At a = 1 everything collapses: phi_1(b) = b^2/4, b(1) = sqrt(4G + pi log 2),
and G = b(1)^2/4 - (pi/4) log 2, the Catalan evaluation that verify's
corollary1 checks.  verify's theorem1 checks the identity itself.

phi_a takes the first form up to a = 1 and the second above, where the
first subtracts two terms of size log^2(a)/2 that cancel down to about b^2/2
(inversion law: Lewin, Polylogarithms and Associated Functions, 1981).  With
u = a e^{ib} up to 1 and u = e^{-ib}/a above, so that |u| <= 1, the b-free
term c = -Li2(-a) or Li2(-1/a), and the first or second of each pair,

    phi_a(b)   = c + Re Li2(-u)       or  b^2/2 + c - Re Li2(-u)
    phi_a'(b)  = Arg(1 + u)           or  b + Arg(1 + u)
    phi_a''(b) = Re(u / (1 + u))      or  Re(1 / (1 + u))
    phi_a(pi)  = Re Li2(a) + c        or  pi^2/2 + c - Li2(1/a)

The solve of b(a) is its own safeguarded Halley loop on the bracket (0, pi),
one u per step.  Cost: the admissibility test's three dilogarithms (psi(a),
c and phi_a(pi)), then one Li2(-u) per step from the root of the cubic
Hermite interpolant of phi_a on [0, pi]; a solve to 1e-14 takes 2-4 steps
(3.1 on average over seeded admissible a).  Every dilogarithm takes polylog's
complex or real route without the public wrapper's checks; ``_check_a`` is
the guard.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import _EXPORTS
from .numerics import BudgetError, DomainError, QuadratureResult, integrate_adaptive
from .polylog import _li2_any, _li2_real

__all__ = _EXPORTS["endpoint"]

PI = math.pi

# Strict-inequality margin for the admissibility test; values inside the
# margin are excluded from solves.
ADMISSIBILITY_MARGIN = 1e-12

# phi takes its b = pi value at every b within this distance of pi.
_PI_SNAP = 1e-12

# The solve's bracket width below which it returns the bracket's midpoint,
# and its step budget.
_BRACKET_FLOOR = 1e-14
_MAX_STEPS = 200


class AdmissibilityResult(NamedTuple):
    """Outcome of the admissibility test 0 < psi(a) < phi_a(pi).

    ``phi_const`` is phi_a's b-free term c, -Li2(-a) up to a = 1 and
    Li2(-1/a) above, kept for the solve, whose phi_a adds it at every step.
    """

    a: float
    psi: float
    phi_pi: float
    phi_const: float
    admissible: bool


class EndpointSolution(NamedTuple):
    """Solved endpoint b(a) with the residual |phi_a(b) - psi(a)|."""

    a: float
    b: float
    residual: float
    iterations: int


def _check_a(a: float, who: str) -> None:
    # The kernels below take a unchecked, so this is the only guard.
    if not 0.0 < a < math.inf:
        raise DomainError(f"{who} requires 0 < a < inf, got {a!r}")


# phi_a in the form a picks; the module docstring gives both forms.
def _phi_const(a: float) -> float:
    return -_li2_real(-a) if a <= 1.0 else _li2_real(-1.0 / a)


def _phi_pi(a: float, c: float) -> float:
    return _li2_real(a) + c if a <= 1.0 else 0.5 * PI * PI + c - _li2_real(1.0 / a)


def _phi_u(a: float, b: float) -> complex:
    return a * cmath.exp(1j * b) if a <= 1.0 else cmath.exp(-1j * b) / a


def _phi_at(a: float, c: float, b: float, u: complex, base: float = 0.0) -> float:
    # base + phi_a(b) at 0 < b < pi, summed from base (aux_closed_F's pi b/2 - b^2/2).
    if a <= 1.0:
        return base + c + _li2_any(-u).real
    return base + 0.5 * b * b + c - _li2_any(-u).real


def _phi_snapped(a: float, c: float, b: float, u: complex) -> float:
    # phi_a(b) at 0 < b <= pi, taking the b = pi value within _PI_SNAP of pi.
    return _phi_pi(a, c) if b >= PI - _PI_SNAP else _phi_at(a, c, b, u)


def _phi_slope(a: float, b: float, u: complex) -> float:
    return math.atan2(u.imag, 1.0 + u.real) + (0.0 if a <= 1.0 else b)


def _phi_curve(a: float, u: complex) -> float:
    return (u / (1.0 + u)).real if a <= 1.0 else (1.0 / (1.0 + u)).real


def aux_integral_I(a: float, b: float, tol: float = 1e-11) -> QuadratureResult:
    """Quadrature of arctan((a + cos beta)/sin beta) over [0, b], 0 < b < pi.

    The integrand takes its limit pi/2 at beta = 0.  It needs no value at pi:
    sin beta > 0 for every float beta < pi, even b within an ulp of pi.
    """
    _check_a(a, "aux_integral_I")
    if not 0.0 < b < PI:
        raise DomainError(f"aux_integral_I requires 0 < b < pi, got b={b!r}")

    def f(beta: float) -> float:
        if beta == 0.0:
            return PI / 2.0
        return math.atan((a + math.cos(beta)) / math.sin(beta))

    return integrate_adaptive(f, 0.0, b, tol)


def aux_closed_F(a: float, b: float) -> float:
    """Closed form pi*b/2 - b^2/2 + phi_a(b) of the integral (see :func:`phi`).

    For 0 < b < pi neither -a e^{ib} nor -e^{-ib}/a lies on the branch cut,
    so the dilogarithms are unambiguous.
    """
    _check_a(a, "aux_closed_F")
    if not 0.0 < b < PI:
        raise DomainError(f"aux_closed_F requires 0 < b < pi, got b={b!r}")
    return _phi_at(a, _phi_const(a), b, _phi_u(a, b), PI * b / 2.0 - b * b / 2.0)


def psi(a: float) -> float:
    """psi(a) = Im Li2(1 + i a); positive for a > 0."""
    _check_a(a, "psi")
    return _li2_any(complex(1.0, a)).imag


def phi(a: float, b: float) -> float:
    """phi_a(b) = -Li2(-a) + Re Li2(-a e^{ib}) on 0 <= b <= pi.

    Above a = 1 it is b^2/2 + Li2(-1/a) - Re Li2(-e^{-ib}/a), keeping the
    digits two cancelling log^2(a)/2 terms cost the first.  phi_a(0) = 0.
    """
    _check_a(a, "phi")
    if not 0.0 <= b <= PI:
        raise DomainError(f"phi requires 0 <= b <= pi, got b={b!r}")
    if b == 0.0:
        return 0.0
    return _phi_snapped(a, _phi_const(a), b, _phi_u(a, b))


def admissibility(a: float) -> AdmissibilityResult:
    """Test 0 < psi(a) < phi_a(pi) with strict margin 1e-12.

    Points within the margin of either inequality are not admissible.
    """
    _check_a(a, "admissibility")
    p = _li2_any(complex(1.0, a)).imag
    c = _phi_const(a)
    q = _phi_pi(a, c)
    admissible = p > ADMISSIBILITY_MARGIN and q - p > ADMISSIBILITY_MARGIN
    return AdmissibilityResult(a, p, q, c, admissible)


def solve_endpoint_b(a: float, tol: float = 1e-12) -> EndpointSolution:
    """Solve phi_a(b) = psi(a) for the unique b in (0, pi).

    Requires ``a`` admissible, so that the bracket (0, pi) is strict.  Halley
    steps (Newton's where Halley's divisor is not in (0, inf), bisection
    where a step leaves the bracket) refine the root of the cubic Hermite
    interpolant of phi_a on [0, pi], and stop on the bracket's midpoint once
    it is narrower than 1e-14; 200 steps raise :class:`BudgetError`.
    ``iterations`` counts the steps' phi_a values and the two bracket ends,
    so a solve makes ``iterations + 1`` dilogarithm calls (one more if it
    stops on a bracket midpoint, whose residual then needs one).
    """
    return _solve(admissibility(a), tol)


def _hermite_start(adm: AdmissibilityResult) -> float:
    # The root in (0, pi) of the cubic Hermite interpolant of phi_a on
    # [0, pi], built from what the admissibility test already holds:
    # phi_a(0) = 0 with slope Arg(1 + a) = 0, and phi_a(pi) with slope
    # Arg(1 - a) = pi for a > 1, 0 for a < 1 and pi/2 at a = 1, where the
    # interpolant b^2/4 is exact.  In t = b/pi it is t^2 (c2 + c3 t).
    a, target, top = adm.a, adm.psi, adm.phi_pi
    if a < 1.0:
        # top (3t^2 - 2t^3) = target, inverted in closed form.
        t = 0.5 - math.sin(math.asin(1.0 - 2.0 * target / top) / 3.0)
    else:
        slope = PI if a > 1.0 else PI / 2.0
        c2 = 3.0 * top - PI * slope
        c3 = PI * slope - 2.0 * top
        # The cubic rises and is convex on [root, 1]: Newton from t = 1
        # falls monotonically onto the root.
        t = 1.0
        for _ in range(50):
            step = (t * t * (c2 + c3 * t) - target) / (t * (2.0 * c2 + 3.0 * c3 * t))
            t -= step
            if step <= 1e-16:
                break
    return PI * min(max(t, 0.0), 1.0)


def _solve(adm: AdmissibilityResult, tol: float) -> EndpointSolution:
    # solve_endpoint_b for an admissibility result already in hand.  Its test puts
    # psi strictly between phi_a(0) = 0 and phi_a(pi): those ends count as evaluations.
    a, target = adm.a, adm.psi
    if not adm.admissible:
        raise DomainError(f"a={a!r} is not admissible (psi={target!r}, phi_pi={adm.phi_pi!r})")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    c = adm.phi_const
    lo, hi = 0.0, PI
    evals = 2
    b = _hermite_start(adm)
    if not lo < b < hi:
        b = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        # phi_a, phi_a' and phi_a'' at b, all from one u.
        u = _phi_u(a, b)
        value = _phi_snapped(a, c, b, u)
        evals += 1
        if abs(value - target) <= tol:
            return EndpointSolution(a, b, abs(value - target), evals)
        if value < target:
            lo = b
        else:
            hi = b
        if hi - lo < _BRACKET_FLOOR:
            # The midpoint's phi_a is the residual's, not a step.
            b = 0.5 * (lo + hi)
            value = _phi_snapped(a, c, b, _phi_u(a, b))
            return EndpointSolution(a, b, abs(value - target), evals)
        # A Halley step, or Newton's where its divisor is not in (0, inf),
        # taken only if it lands strictly inside the bracket; else bisection.
        d = _phi_slope(a, b, u)
        if d > 0.0 and math.isfinite(d):
            step = (value - target) / d
            div = 1.0 - 0.5 * step * _phi_curve(a, u) / d
            if 0.0 < div < math.inf:
                step /= div
            if lo < b - step < hi:
                b -= step
                continue
        b = 0.5 * (lo + hi)
    raise BudgetError(f"root iteration budget {_MAX_STEPS} exhausted", best=0.5 * (lo + hi))
