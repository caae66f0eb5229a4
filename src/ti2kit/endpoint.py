"""The tunable-endpoint identity for Ti2(a).

Cast of characters, all for a > 0 and an endpoint b in (0, pi):

    I(a, b)   = integral_0^b arctan((a + cos beta)/sin beta) d beta
    F(a, b)   = pi*b/2 - b^2/2 - Li2(-a) + Re Li2(-a e^{ib})      (= I, closed form)
    psi(a)    = Im Li2(1 + i a)
    phi_a(b)  = I(a, b) - pi*b/2 + b^2/2 = -Li2(-a) + Re Li2(-a e^{ib})
    phi_a'(b) = Arg(1 + a e^{ib})  in (0, pi)   =>  phi_a strictly increasing

When 0 < psi(a) < phi_a(pi) (the admissibility window), the equation
phi_a(b) = psi(a) has a unique solution b(a) in (0, pi), and then

    Ti2(a) = arctan(a) log(a) + I(a, b(a)) - pi*b(a)/2 + b(a)^2/2
             - (pi/4) log(a^2 + 1).

At a = 1 everything collapses: phi_1(b) = b^2/4, b(1) = sqrt(4G + pi log 2),
and G = b(1)^2/4 - (pi/4) log 2, the Catalan evaluation that verify's
corollary1 checks.  The identity check here deliberately evaluates I by
quadrature while the solver works on the dilogarithm closed form, so the
comparison is a genuine two-route test rather than algebra cancelling itself.

Every dilogarithm here takes polylog's complex route (Li2(1 + i a),
Li2(-a e^{ib})) or its real one (Li2(-a), Re Li2(a)) without the public
wrapper's argument checks; ``_check_a`` is the guard.

Cost of one solve of b(a): the admissibility test (psi(a) and phi_a(pi),
three dilogarithms, Li2(-a) among them and kept), then one Li2(-a e^{ib})
per interior root step; phi_a(0) = 0 and phi_a(pi) come free, and the
residual reuses the value at the returned root.  The steps are Halley's,
from the root of the cubic Hermite interpolant of phi_a on [0, pi], and
each forms w = a e^{ib} once for phi_a, phi_a' = Arg(1 + w) and
phi_a'' = Re(w / (1 + w)).  A solve to 1e-14 takes 2-4 interior steps (3.1
on average over seeded admissible a).  A theorem1 check tests admissibility
once.  At a = 3 the test costs about 3.9 us, the solve 10.7 us and the whole
check 28.5 us (timeit, best of 7, on a 2-vCPU host).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import _EXPORTS, _LazyModule
from .numerics import (
    DomainError,
    QuadratureResult,
    find_root_increasing,
    integrate_adaptive,
)
from .polylog import _li2_any, _li2_real
from .ti2core import METHOD_QUADRATURE, ti2, ti2_method

# Imported by the first report built, so ``compute psi``, ``phi`` and
# ``b-of-a`` never load it.
report = _LazyModule(globals(), ".report")

__all__ = _EXPORTS["endpoint"]

PI = math.pi

# Strict-inequality margin for the admissibility test; values inside the
# margin are excluded from solves.
ADMISSIBILITY_MARGIN = 1e-12

# phi takes its b = pi value at every b within this distance of pi.
_PI_SNAP = 1e-12

# theorem1's quadrature and root-solve tolerances.
_QUAD_TOL = 1e-11
_SOLVER_TOL = 1e-14


class AdmissibilityResult(NamedTuple):
    """Outcome of the admissibility test 0 < psi(a) < phi_a(pi).

    ``li2_minus_a`` is the Li2(-a) that phi_a(pi) = Re Li2(a) - Li2(-a) took,
    kept for the solve, whose phi_a subtracts it at every step.
    """

    a: float
    psi: float
    phi_pi: float
    li2_minus_a: float
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
    """Closed form pi*b/2 - b^2/2 - Li2(-a) + Re Li2(-a e^{ib}) of the integral.

    For 0 < b < pi the point -a e^{ib} stays off the branch cut, so the
    dilogarithms are unambiguous.
    """
    _check_a(a, "aux_closed_F")
    if not 0.0 < b < PI:
        raise DomainError(f"aux_closed_F requires 0 < b < pi, got b={b!r}")
    return (
        PI * b / 2.0
        - b * b / 2.0
        - _li2_real(-a)
        + _li2_any(-a * cmath.exp(1j * b)).real
    )


def psi(a: float) -> float:
    """psi(a) = Im Li2(1 + i a); positive for a > 0."""
    _check_a(a, "psi")
    return _li2_any(complex(1.0, a)).imag


def phi(a: float, b: float) -> float:
    """phi_a(b) = -Li2(-a) + Re Li2(-a e^{ib}) on 0 <= b <= pi.

    phi_a(0) = 0 exactly and phi_a(pi) = Re Li2(a) - Li2(-a), the latter via
    the boundary value of the dilogarithm when a > 1.
    """
    _check_a(a, "phi")
    if not 0.0 <= b <= PI:
        raise DomainError(f"phi requires 0 <= b <= pi, got b={b!r}")
    if b == 0.0:
        return 0.0
    li2_minus_a = _li2_real(-a)
    if b >= PI - _PI_SNAP:
        return _li2_real(a) - li2_minus_a
    return _li2_any(-a * cmath.exp(1j * b)).real - li2_minus_a


def phi_derivative(a: float, b: float) -> float:
    """d/db phi_a(b) = Arg(1 + a e^{ib}), strictly inside (0, pi)."""
    _check_a(a, "phi_derivative")
    if not 0.0 < b < PI:
        raise DomainError(f"phi_derivative requires 0 < b < pi, got b={b!r}")
    return math.atan2(a * math.sin(b), 1.0 + a * math.cos(b))


def admissibility(a: float) -> AdmissibilityResult:
    """Test 0 < psi(a) < phi_a(pi) with strict margin 1e-12.

    Points within the margin of either inequality are not admissible.
    """
    _check_a(a, "admissibility")
    # psi(a) and phi_a(pi) = Re Li2(a) - Li2(-a), with Re Li2(a) the
    # boundary value's real part above 1.
    p = _li2_any(complex(1.0, a)).imag
    li2_minus_a = _li2_real(-a)
    q = _li2_real(a) - li2_minus_a
    admissible = p > ADMISSIBILITY_MARGIN and q - p > ADMISSIBILITY_MARGIN
    return AdmissibilityResult(a, p, q, li2_minus_a, admissible)


def solve_endpoint_b(a: float, tol: float = 1e-12) -> EndpointSolution:
    """Solve phi_a(b) = psi(a) for the unique b in (0, pi).

    Requires ``a`` admissible; the bracket (0, pi) is then strict on both
    sides and monotonicity of phi_a makes bisection sufficient.

    Refinement starts at the root of the cubic Hermite interpolant of phi_a
    on [0, pi] and takes Halley steps with phi_a'(b) = Arg(1 + a e^{ib}) and
    phi_a''(b) = Re(a e^{ib} / (1 + a e^{ib})).

    One solve evaluates the admissibility test (psi(a) and phi_a(pi), three
    dilogarithms, Li2(-a) among them) and one Li2(-a e^{ib}) per interior
    root step.  ``iterations`` counts the phi_a values the root finder asked
    for, the two bracket ends included, so a solve makes ``iterations + 1``
    dilogarithm calls (one more if the solver stops on a bracket midpoint
    it never evaluated, whose residual then needs one).
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
    # solve_endpoint_b for an admissibility result already in hand: phi_a
    # with Li2(-a) and phi_a(pi) taken from the test.  phi_a counts the
    # solver's evaluations and keeps the last one, which is the residual's
    # phi_a(b) unless the solver returned a bracket midpoint.
    a = adm.a
    if not adm.admissible:
        raise DomainError(
            f"a={a!r} is not admissible (psi={adm.psi!r}, phi_pi={adm.phi_pi!r})"
        )
    li2_minus_a, phi_pi = adm.li2_minus_a, adm.phi_pi
    evals = 0
    w = 0j  # a e^{ib} at the last b > 0 that phi_a took
    last_b = last_phi = math.nan

    def phi_a(b: float) -> float:
        nonlocal evals, w, last_b, last_phi
        evals += 1
        if b == 0.0:
            value = 0.0
        else:
            w = a * cmath.exp(1j * b)
            value = phi_pi if b >= PI - _PI_SNAP else _li2_any(-w).real - li2_minus_a
        last_b, last_phi = b, value
        return value

    # The solver asks for phi_a' = Arg(1 + w) and phi_a'' = Re(w / (1 + w))
    # only at the interior point it last evaluated, so w is that point's.
    b = find_root_increasing(
        phi_a,
        0.0,
        PI,
        adm.psi,
        tol,
        derivative=lambda b: math.atan2(w.imag, 1.0 + w.real),
        second_derivative=lambda b: (w / (1.0 + w)).real,
        start=_hermite_start(adm),
    )
    iterations = evals
    # An unevaluated midpoint's phi_a is the residual's, not a root step.
    phi_b = last_phi if last_b == b else phi_a(b)
    return EndpointSolution(a, b, abs(phi_b - adm.psi), iterations)


def theorem1_identity(a: float, tolerance: float = 1e-12) -> report.IdentityReport:
    """Check Ti2(a) against the tunable-endpoint right-hand side.

    LHS: Ti2(a) by its own series/dilogarithm route.  RHS: with b = b(a)
    from the closed-form solve, evaluate

        arctan(a) log(a) + I(a, b) - pi*b/2 + b^2/2 - (pi/4) log(a^2 + 1)

    with I by *quadrature*, keeping the two sides on independent routes.
    ``terms_used`` is the solve's ``iterations``.
    """
    return _theorem1(admissibility(a), tolerance)


def _theorem1(adm: AdmissibilityResult, tolerance: float) -> report.IdentityReport:
    # theorem1_identity for an admissibility result already in hand.
    a = adm.a
    sol = _solve(adm, _SOLVER_TOL)
    quad = aux_integral_I(a, sol.b, _QUAD_TOL)
    rhs = (
        math.atan(a) * math.log(a)
        + quad.value
        - PI * sol.b / 2.0
        + sol.b * sol.b / 2.0
        - 0.25 * PI * math.log1p(a * a)
    )
    return report.IdentityReport.build(
        name="theorem1",
        params={"a": a, "b": sol.b},
        lhs=ti2(a),
        rhs=rhs,
        tolerance=tolerance,
        method_lhs=ti2_method(a),
        method_rhs=f"{METHOD_QUADRATURE}+root-solve",
        terms_used=sol.iterations,
    )
