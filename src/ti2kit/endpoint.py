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
c and phi_a(pi)), then one Li2(-u) per step.  The loop starts from one
polynomial in s = sqrt(log(a / a_min)), a_min the window's lower end, within
8.9e-7 of b(a) over the whole window, and a solve to 1e-14 takes 2 steps at
every seeded admissible a, wherever it falls in the window.  Every
dilogarithm takes polylog's complex or real route without the public
wrapper's checks; ``_check_a`` is the guard.

I(a, b) is integrated on one Gauss-Legendre panel of 20 to 32 nodes, the
fewest whose a-priori error bound meets the tolerance; the bound is the
reported error.
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

# The solve's start.  a_min and a_max are the admissibility window's ends,
# where psi(a) = phi_a(pi).  In s = sqrt(log(a / a_min)), b(a) is analytic on
# the closed window: phi_a is even about pi, with phi_a'(pi) = 0 below a = 1,
# so pi - b(a) vanishes like s at the lower end, and like s_max - s at the
# upper, where phi_a'(pi) = pi; so a Chebyshev fit converges geometrically
# (Trefethen, Approximation Theory and Approximation Practice, ch. 8).  The
# start is pi - s (s_max - s) q(x), x = 2 s / s_max - 1, with q the degree-12
# least-squares Chebyshev fit to (pi - b(a)) / (s (s_max - s)) at 200
# Chebyshev points, b(a) solved by mpmath at 30 digits, in monomials, x^12
# first.  It is within 8.9e-7 of b(a) over the window (20001 log-spaced a),
# close enough that one Halley step meets 1e-14.
_A_MIN, _A_MAX = 0.45124630058833868334, 18.924174234265879322
_LOG_A_MIN = math.log(_A_MIN)
_S_MAX = math.sqrt(math.log(_A_MAX / _A_MIN))
_FIT = (
    0.0061524112065331924, -0.0013751781461110257, -0.024491667028333112, 0.007683165074917678,
    0.041316009378965575, -0.023747693461380427, -0.04178308523424394, 0.06020882286247697,
    0.04721407201920305, -0.12940178634496036, -0.15512743840885956, 0.2444206749352865,
    0.80016119951943,
)

# aux_integral_I's Gauss-Legendre rungs, least first, and the machine epsilon.
_RUNGS = (20, 24, 28, 32)
_EPS = 2.0**-52

# Gauss-Legendre rules on [-1, 1] with n = 20, 24, 28 and 32 nodes, each as
# its n/2 pairs (x, w), x > 0, from the outermost in: the nodes are -x and x.
# Legendre roots refined by Newton's method at 50 digits, each rounded once
# to binary64.  aux_integral_I sums its integrand on them.
_GAUSS_LEGENDRE = {
    20: (
        (0.9931285991850949, 0.017614007139152118),
        (0.9639719272779138, 0.04060142980038694),
        (0.912234428251326, 0.06267204833410907),
        (0.8391169718222188, 0.08327674157670475),
        (0.7463319064601508, 0.10193011981724044),
        (0.636053680726515, 0.11819453196151841),
        (0.5108670019508271, 0.13168863844917664),
        (0.37370608871541955, 0.14209610931838204),
        (0.22778585114164507, 0.14917298647260374),
        (0.07652652113349734, 0.15275338713072584),
    ),
    24: (
        (0.9951872199970213, 0.0123412297999872),
        (0.9747285559713095, 0.028531388628933663),
        (0.9382745520027328, 0.04427743881741981),
        (0.8864155270044011, 0.05929858491543678),
        (0.820001985973903, 0.0733464814110803),
        (0.7401241915785544, 0.08619016153195327),
        (0.6480936519369755, 0.09761865210411388),
        (0.5454214713888396, 0.10744427011596563),
        (0.4337935076260451, 0.1155056680537256),
        (0.3150426796961634, 0.12167047292780339),
        (0.1911188674736163, 0.1258374563468283),
        (0.06405689286260563, 0.12793819534675216),
    ),
    28: (
        (0.9964424975739544, 0.009124282593094517),
        (0.9813031653708727, 0.02113211259277126),
        (0.9542592806289382, 0.03290142778230438),
        (0.9156330263921321, 0.04427293475900423),
        (0.8658925225743951, 0.05510734567571675),
        (0.8056413709171791, 0.0652729239669996),
        (0.7356108780136318, 0.07464621423456878),
        (0.656651094038865, 0.08311341722890121),
        (0.5697204718114017, 0.09057174439303284),
        (0.4758742249551183, 0.09693065799792992),
        (0.3762515160890787, 0.10211296757806076),
        (0.2720616276351781, 0.10605576592284642),
        (0.16456928213338076, 0.10871119225829413),
        (0.05507928988403427, 0.1100470130164752),
    ),
    32: (
        (0.9972638618494816, 0.007018610009470096),
        (0.9856115115452684, 0.01627439473090567),
        (0.9647622555875064, 0.02539206530926206),
        (0.9349060759377397, 0.03427386291302143),
        (0.8963211557660521, 0.04283589802222668),
        (0.84936761373257, 0.050998059262376175),
        (0.7944837959679424, 0.058684093478535544),
        (0.7321821187402897, 0.06582222277636185),
        (0.6630442669302152, 0.0723457941088485),
        (0.5877157572407623, 0.07819389578707031),
        (0.5068999089322294, 0.08331192422694675),
        (0.42135127613063533, 0.08765209300440381),
        (0.33186860228212767, 0.09117387869576389),
        (0.23928736225213706, 0.09384439908080457),
        (0.1444719615827965, 0.09563872007927486),
        (0.04830766568773832, 0.0965400885147278),
    ),
}


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

    The integrand is pi/2 - beta/2 - arctan(k tan(beta/2)), k = (1 - a)/(1 + a)
    (both are the angle whose cotangent is (a + cos beta)/sin beta), so the
    linear part integrates to pi b/2 - b^2/4 in closed form and a rule sums
    the arctangent alone.  That rule is one Gauss-Legendre panel on [0, b]
    with the fewest of 20, 24, 28 or 32 nodes whose a-priori bound (see
    ``_gauss_legendre_rung``) is at most ``tol``; the bound is
    ``abs_error_estimate`` and the node count ``evaluations``.  Where no rung
    meets ``tol`` (a next to 1 with b next to pi, |log a| of about 4 or more
    with b above 2.5, a subnormal b, or tol below the rule's rounding
    allowance, about 1e-14 at b = 2.5) the integral is integrate_adaptive's,
    with its error estimate.  Neither needs a value at pi: tan(beta/2) is
    finite for every float beta < pi.
    """
    _check_a(a, "aux_integral_I")
    if not 0.0 < b < PI:
        raise DomainError(f"aux_integral_I requires 0 < b < pi, got b={b!r}")
    k = (1.0 - a) / (1.0 + a)
    n, bound = _gauss_legendre_rung(a, b, tol)
    if n:
        return QuadratureResult(_gauss_legendre_I(k, b, n), bound, n)

    def f(beta: float) -> float:
        return 0.5 * (PI - beta) - math.atan(k * math.tan(0.5 * beta))

    return integrate_adaptive(f, 0.0, b, tol)


def _gauss_legendre_rung(a: float, b: float, tol: float) -> tuple[int, float]:
    """The least rung n whose a-priori error bound is at most tol, and that bound.

    (0, inf) if none is.  The rule integrates g(beta) = arctan(k tan(beta/2)),
    whose derivative is (1 - a^2)/(2D), D = 1 + 2a cos(beta) + a^2 =
    4a sin(w0) sin(w1), w_j = (beta - t_j)/2, t_j = pi -+ i |log a|.  On [0, b]
    mapped to [-1, 1], t_0 lies on the Bernstein ellipse of semi-major axis
    alpha_s; the rule's ellipse takes alpha = 0.1 + 0.9 alpha_s, capped so that
    every |w_j| on it is at most R = (b/4)(alpha_s + alpha) <= 3 (with these
    two constants every admissible a takes a rung at b(a) and 1e-13).  Every
    |w_j| is at least d/2, d = (b/2)(alpha_s - alpha) being the distance from
    that ellipse to t_0 and t_1 (the confocal ellipses' gap at the major
    axis), and the larger of the two at least |log a|/2.  With
    |sin w| >= sin|w| for |w| <= pi,

        |g'| <= K = |a - 1/a| / (8 P),  P = min(sin(d/2), sin R) *
                                            min(sin(max(d, |log a|)/2), sin R),

    and g less its value at b/2 is at most (b/2) alpha K on the ellipse,
    which bounds the n-point error by

        64 (b/2)^2 alpha K / (15 (rho^2 - 1) rho^(2n)),  rho = alpha + sqrt(alpha^2 - 1)

    (Trefethen, SIAM Rev. 50 (2008), Thm 4.5; ATAP, Thm 19.3).  The bound
    adds the rounding of the sum, eps b (9 + b (n/8 + 2 + 2 |g'(b)|)): each
    node's arctangent to 4 eps, its node's rounding through |g'| <= |g'(b)|
    on [0, b], the n/2 summed terms of one sign, and the closed-form linear
    part.
    """
    # t_0 - b/2 = h (u + i v) with h = b/2; divisions by b overflow to inf
    # rather than raise for a subnormal b, which then takes no rung.
    # The mins are written out: each builtin call costs as much as a sine.
    h = 0.5 * b
    log_a = abs(math.log(a))
    u = (2.0 * PI - b) / b
    v = 2.0 * log_a / b
    alpha_s = 0.5 * (math.hypot(u - 1.0, v) + math.hypot(u + 1.0, v))
    if not alpha_s < math.inf:
        return 0, math.inf
    alpha = 0.1 + 0.9 * alpha_s
    cap = 12.0 / b - alpha_s
    if cap < alpha:
        alpha = cap
    if alpha > 64.0:
        # Small b: rho^40 would overflow, and rho <= 128 already bounds the
        # error below 1e-80.
        alpha = 64.0
    if not alpha > 1.0:
        return 0, math.inf
    rho = alpha + math.sqrt(alpha * alpha - 1.0)
    half_d = 0.5 * h * (alpha_s - alpha)
    sin_r = math.sin(0.5 * h * (alpha_s + alpha))
    s0 = math.sin(half_d)
    s1 = math.sin(half_d if half_d > 0.5 * log_a else 0.5 * log_a)
    p = (s0 if s0 < sin_r else sin_r) * (s1 if s1 < sin_r else sin_r)
    error = 8.0 * h * h * alpha * abs(a - 1.0 / a) / (15.0 * p * (rho * rho - 1.0) * rho**40)
    # On [0, b] itself |g'| is at most its value at b, where D is least.
    c = math.cos(h)
    slope = abs(1.0 - a * a) / (2.0 * ((1.0 - a) * (1.0 - a) + 4.0 * a * c * c))
    rounding = _EPS * b * (9.0 + b * (2.0 + 2.0 * slope))
    for n in _RUNGS:
        bound = error + rounding + _EPS * b * b * n / 8.0
        if bound <= tol:
            return n, bound
        error /= rho**8
    return 0, math.inf


def _gauss_legendre_I(k: float, b: float, n: int) -> float:
    # I(a, b) on the n-point rule: pi b/2 - b^2/4 less the rule's sum of
    # arctan(k tan(beta/2)), k = (1 - a)/(1 + a), written into its loop.
    atan, tan = math.atan, math.tan
    q = 0.25 * b
    s = 0.0
    for x, w in _GAUSS_LEGENDRE[n]:
        d = q * x
        s += w * (atan(k * tan(q - d)) + atan(k * tan(q + d)))
    return 0.5 * PI * b - q * b - 2.0 * q * s


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
    where a step leaves the bracket) refine a start fitted to b(a) over the
    admissibility window, and stop on the bracket's midpoint once
    it is narrower than 1e-14; 200 steps raise :class:`BudgetError`.
    ``iterations`` counts the steps' phi_a values and the two bracket ends,
    so a solve makes ``iterations + 1`` dilogarithm calls (one more if it
    stops on a bracket midpoint, whose residual then needs one).
    """
    return _solve(admissibility(a), tol)


def _start(adm: AdmissibilityResult) -> float:
    # The solve's first b, from the fit in s = sqrt(log(a / a_min)) above;
    # an admissible a puts s strictly inside (0, s_max).
    s = math.sqrt(math.log(adm.a) - _LOG_A_MIN)
    x = 2.0 * s / _S_MAX - 1.0
    q = 0.0
    for c in _FIT:
        q = q * x + c
    return PI - s * (_S_MAX - s) * q


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
    b = _start(adm)
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
