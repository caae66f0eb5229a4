"""Foundation kernels: adaptive quadrature and tail-bounded sums.

Everything here is pure and deterministic: fixed evaluation order, no shared
state, binary64 throughout.  The Gauss-Kronrod panel is written out with no
loop; it makes the floating-point operations of QUADPACK's QK21 loop in the
loop's order, so its results are the loop's, bit for bit.  The quadrature
engine calls the integrand only at interior Kronrod nodes, so an integrand
with a removable singularity at an endpoint (an arctan kernel divided by its
argument, and similar) needs a value there only when the interval is so
narrow that a node rounds onto the endpoint; such an integrand returns its
own limit at that point.  Theorem 1's root solve is written out in ``endpoint``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

from . import _EXPORTS

__all__ = _EXPORTS["numerics"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetError(RuntimeError):
    """An iteration/subdivision budget ran out before the tolerance was met.

    The best estimate available at that point is attached as ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class QuadratureResult(NamedTuple):
    """Value of an adaptive integral together with its error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int


class SeriesResult(NamedTuple):
    """Partial sum of a series with a rigorous bound on the omitted tail.

    When the supplied tail-bound function is valid, the true sum lies in
    ``[value - tail_bound, value + tail_bound]``.  ``truncated`` is set when
    the requested tolerance was not reached within the term budget.
    """

    value: float
    terms_used: int
    tail_bound: float
    truncated: bool = False


# 21-point Kronrod extension of the 10-point Gauss rule, QUADPACK's QK21
# (abscissae for [-1, 1], the centre last).
_XGK = (
    0.9956571630258081,
    0.9739065285171717,
    0.9301574913557082,
    0.8650633666889845,
    0.7808177265864169,
    0.6794095682990244,
    0.5627571346686047,
    0.4333953941292472,
    0.2943928627014602,
    0.14887433898163122,
    0.0,
)
_WGK = (
    0.011694638867371874,
    0.032558162307964725,
    0.054755896574351995,
    0.07503967481091996,
    0.0931254545836976,
    0.10938715880229764,
    0.12349197626206584,
    0.13470921731147334,
    0.14277593857706009,
    0.14773910490133849,
    0.1494455540029169,
)
# Gauss weights, paired with _XGK[1], _XGK[3], ..., _XGK[9]; the centre is
# not a Gauss node.
_WG = (
    0.06667134430868814,
    0.1494513491505806,
    0.21908636251598204,
    0.26926671930999635,
    0.29552422471475287,
)
# The tuples above as the written-out panel's names; _Gj goes with _Xj.
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9 = _XGK[:10]
_W0, _W1, _W2, _W3, _W4, _W5, _W6, _W7, _W8, _W9, _W10 = _WGK
_G1, _G3, _G5, _G7, _G9 = _WG


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 21(10) panel on [a, b] -> (integral, error estimate).

    Written out: the floating-point operations of QUADPACK's QK21 loop, in
    the loop's order.  Makes exactly 21 calls to ``f``: the centre, then
    ``centr - d`` and ``centr + d`` for each node pair from the outermost in.
    A NaN from any node reaches the Kronrod sum, which is checked once:
    :class:`DomainError` if it is NaN.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)

    fc = f(centr)
    d = hlgth * _X0
    l0 = f(centr - d)
    r0 = f(centr + d)
    d = hlgth * _X1
    l1 = f(centr - d)
    r1 = f(centr + d)
    d = hlgth * _X2
    l2 = f(centr - d)
    r2 = f(centr + d)
    d = hlgth * _X3
    l3 = f(centr - d)
    r3 = f(centr + d)
    d = hlgth * _X4
    l4 = f(centr - d)
    r4 = f(centr + d)
    d = hlgth * _X5
    l5 = f(centr - d)
    r5 = f(centr + d)
    d = hlgth * _X6
    l6 = f(centr - d)
    r6 = f(centr + d)
    d = hlgth * _X7
    l7 = f(centr - d)
    r7 = f(centr + d)
    d = hlgth * _X8
    l8 = f(centr - d)
    r8 = f(centr + d)
    d = hlgth * _X9
    l9 = f(centr - d)
    r9 = f(centr + d)
    resk = (
        _W10 * fc + _W0 * (l0 + r0) + _W1 * (l1 + r1) + _W2 * (l2 + r2)
        + _W3 * (l3 + r3) + _W4 * (l4 + r4) + _W5 * (l5 + r5) + _W6 * (l6 + r6)
        + _W7 * (l7 + r7) + _W8 * (l8 + r8) + _W9 * (l9 + r9)
    )
    if math.isnan(resk):
        raise DomainError(f"integrand returned NaN on [{a!r}, {b!r}]")
    resg = (
        0.0 + _G1 * (l1 + r1) + _G3 * (l3 + r3) + _G5 * (l5 + r5) + _G7 * (l7 + r7)
        + _G9 * (l9 + r9)
    )

    reskh = resk * 0.5
    resasc = (
        _W10 * abs(fc - reskh) + _W0 * (abs(l0 - reskh) + abs(r0 - reskh))
        + _W1 * (abs(l1 - reskh) + abs(r1 - reskh))
        + _W2 * (abs(l2 - reskh) + abs(r2 - reskh))
        + _W3 * (abs(l3 - reskh) + abs(r3 - reskh))
        + _W4 * (abs(l4 - reskh) + abs(r4 - reskh))
        + _W5 * (abs(l5 - reskh) + abs(r5 - reskh))
        + _W6 * (abs(l6 - reskh) + abs(r6 - reskh))
        + _W7 * (abs(l7 - reskh) + abs(r7 - reskh))
        + _W8 * (abs(l8 - reskh) + abs(r8 - reskh))
        + _W9 * (abs(l9 - reskh) + abs(r9 - reskh))
    ) * abs(hlgth)

    result = resk * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    return result, abserr


# integrate_adaptive's bisection budget.
_MAX_SUBDIVISIONS = 10_000


def integrate_adaptive(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> QuadratureResult:
    """Adaptively integrate ``f`` over ``[lo, hi]`` to absolute tolerance ``tol``.

    ``f`` is called only at Kronrod nodes, which are interior, so it is never
    called at ``lo`` or ``hi`` unless a subinterval is narrow enough (about
    1e-321 wide next to 0) for a node to round onto its end.  An integrand
    with a removable singularity at an endpoint returns its limit there.

    Strategy: nested 21-point Gauss-Kronrod panels, always bisecting the
    panel with the largest error estimate, up to 10 000 splits.
    ``evaluations`` is 21 per panel, 21 * (1 + 2 * splits) in all.  Raises
    :class:`BudgetError` (with the best estimate attached) if the budget
    runs out, and :class:`DomainError` if ``f`` returns NaN.
    """
    if not lo < hi:
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    val, err = _gk21(f, lo, hi)
    total, toterr = val, err
    counter = 0  # heap tiebreaker, keeps ordering deterministic
    heap = [(-err, counter, lo, hi, val, err)]
    splits = 0

    while toterr > tol and heap:
        if splits >= _MAX_SUBDIVISIONS:
            raise BudgetError(
                f"subdivision budget {_MAX_SUBDIVISIONS} exhausted "
                f"(error estimate {toterr:.3e} > tol {tol:.3e})",
                best=QuadratureResult(total, toterr, 21 * (1 + 2 * splits)),
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Interval at floating-point resolution; its error is irreducible.
            continue
        splits += 1
        v1, e1 = _gk21(f, a, mid)
        v2, e2 = _gk21(f, mid, b)
        total += (v1 + v2) - v
        toterr += (e1 + e2) - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2))

    if toterr > tol:
        raise BudgetError(
            f"tolerance {tol:.3e} unreachable (error estimate {toterr:.3e})",
            best=QuadratureResult(total, toterr, 21 * (1 + 2 * splits)),
        )
    return QuadratureResult(total, toterr, 21 * (1 + 2 * splits))


def sum_series(
    term: Callable[[int], float],
    tail_bound: Callable[[int], float],
    tol: float,
    max_terms: int,
) -> SeriesResult:
    """Sum ``term(1) + term(2) + ...`` until ``tail_bound(K) <= tol``.

    ``tail_bound(K)`` must bound ``|sum_{k>K} term(k)|`` and be non-increasing
    in K.  Always evaluates at least one term.  If the tolerance is not
    reached within ``max_terms``, the partial sum is returned with
    ``truncated=True`` and the (still valid) tail bound at the stopping index.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    total = 0.0
    comp = 0.0  # Kahan compensation; keeps long sums at the analytic bound
    tb = math.inf
    for k in range(1, max_terms + 1):
        y = term(k) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        tb = tail_bound(k)
        if tb <= tol:
            return SeriesResult(total, k, tb)
    return SeriesResult(total, max_terms, tb, truncated=True)
