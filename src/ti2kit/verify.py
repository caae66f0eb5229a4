"""Named identity verifications over configurable parameter grids.

Each identity is one row of a table: its grid points, and the check that
turns one point into an :class:`IdentityReport`.  Every check lives here;
decomp and endpoint hold only the sums, solves and quadratures the checks
compare.  The name set is a closed enumeration: adding one requires adding
the backing operation first.  Reports keep grid order; runs are deterministic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

# decomp, endpoint and special are reached as ti2kit.decomp and so on, which
# the package imports on first use: verify theorem1 loads neither decomp nor special.
import ti2kit

from .numerics import DomainError
from .report import IdentityReport
from .ti2core import (
    METHOD_CLAUSEN_FORM,
    METHOD_QUADRATURE,
    _MAX_K,
    ti2,
    ti2_clausen_form,
    ti2_method,
    ti2_via_quadrature,
)

__all__ = ti2kit._EXPORTS["verify"]

PI = math.pi


_ALPHA_X_GRID = tuple(
    (a, x) for a in (0.4, 1.0, 1.6, 2.2, 2.8) for x in (0.8, 1.6, 2.4, 3.2, 4.0)
)


class VerificationConfig:
    """Grids, truncation, tolerance and output format of a verify run.

    ``tol`` is every report's tolerance; None leaves each one at ``_TOL``.
    """

    def __init__(
        self,
        a_grid: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0),
        theta_grid: Sequence[float] = (PI / 12, PI / 8, PI / 6, PI / 4, PI / 3),
        n_grid: Sequence[int] = (2, 3, 4, 6),
        A_alpha_grid: Sequence[tuple[float, float]] = (
            (1.0, 1.0),
            (1.0, PI / 2),
            (0.5, 0.5),
            (2.0, 2.5),
        ),
        alpha_x_grid: Sequence[tuple[float, float]] = _ALPHA_X_GRID,
        K: int = 10,  # Remark 1 partial-sum depth
        tol: Optional[float] = None,
        format: str = "table",
    ):
        self.a_grid = a_grid
        self.theta_grid = theta_grid
        self.n_grid = n_grid
        self.A_alpha_grid = A_alpha_grid
        self.alpha_x_grid = alpha_x_grid
        self.K = K
        self.tol = tol
        self.format = format

    def validate(self) -> None:
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if not 1 <= self.K <= _MAX_K:
            raise ValueError(f"truncation K must be in 1..{_MAX_K}, got {self.K!r}")
        if self.format not in ("json", "table"):
            raise ValueError(f"format must be 'json' or 'table', got {self.format!r}")


# theorem1's root-solve tolerance.
_SOLVER_TOL = 1e-14

# corollary2's largest A.  The bracket sum's K0 ~ 4A/pi direct terms make
# its cost linear in A: 0.22 s at A = 1e4 (residual 4.4e-14), 2.3 s at 1e5.
_COROLLARY2_MAX_A = 1e4


def _theorem1(adm, tol: float) -> IdentityReport:
    # Ti2(a) by its own series/dilogarithm route against
    #   arctan(a) log(a) + I(a, b) - pi b/2 + b^2/2 - (pi/4) log(a^2 + 1),
    # b = b(a) solved on phi_a's dilogarithm closed form from the
    # admissibility result, and I(a, b) by *quadrature*: the comparison is a
    # genuine two-route test rather than algebra cancelling itself.  b enters
    # the rhs only through I - pi b/2 + b^2/2 = phi_a(b), so the tail bound is
    # the quadrature's a-priori bound, asked to be at most 1e-13, plus the
    # solve residual |phi_a(b) - psi(a)|.
    a = adm.a
    sol = ti2kit.endpoint._solve(adm, _SOLVER_TOL)
    quad = ti2kit.endpoint.aux_integral_I(a, sol.b, 1e-13)
    rhs = (
        math.atan(a) * math.log(a)
        + quad.value
        - PI * sol.b / 2.0
        + sol.b * sol.b / 2.0
        - 0.25 * PI * math.log1p(a * a)
    )
    return IdentityReport.build(
        "theorem1", {"a": a, "b": sol.b}, ti2(a), rhs, tol,
        ti2_method(a), f"{METHOD_QUADRATURE}+root-solve",
        quad.abs_error_estimate + sol.residual, sol.iterations,
    )


def _corollary1(_point, tol: float) -> IdentityReport:
    # b^2/4 = phi_1(b), so the rhs misses G by the solve residual, its tail bound.
    sol = ti2kit.endpoint.solve_endpoint_b(1.0, 1e-13)
    return IdentityReport.build(
        "corollary1", {"a": 1.0, "b": sol.b}, ti2kit.special.catalan_reference(1e-14),
        sol.b * sol.b / 4.0 - 0.25 * PI * math.log(2.0), tol,
        "alternating-series-acceleration", "endpoint-root-solve", sol.residual, sol.iterations,
    )


def _h_plus_poles(A: float, alpha: float) -> tuple[float, float, int]:
    # H(A, alpha) plus the full bracket sum; the tail bound adds the bracket
    # sum's Hurwitz n-series bound to h_series' (its quadrature error
    # estimate below A = 3), and the terms are the bracket sum's.
    h = ti2kit.decomp.h_series(A, alpha)
    pole = ti2kit.decomp._pole_bracket(A, alpha)
    return h.value + pole.value, pole.tail_bound + h.tail_bound, pole.terms_used


def _corollary2(point, tol: float) -> IdentityReport:
    # A beyond 1e4, or not finite, is a DomainError rather than ~4A/pi
    # brackets summed directly.
    A, alpha = point
    ti2kit.decomp._check_alpha(alpha)
    if not 0.0 < A <= _COROLLARY2_MAX_A:
        raise DomainError(f"requires 0 < A <= {_COROLLARY2_MAX_A:g}, got {A!r}")
    rhs, tail, terms = _h_plus_poles(A, alpha)
    return IdentityReport.build(
        "corollary2", {"A": A, "alpha": alpha}, ti2(A / alpha), rhs, tol,
        "ti2", "hyperbolic-term+ti2-differences", tail, terms,
    )


def _corollary3(n: int, tol: float) -> IdentityReport:
    # The n-th Catalan decomposition, corollary 2 at A = alpha = pi/n:
    #   G = H(pi/n, pi/n) + sum_k [Ti2(1/(n k - 1)) - Ti2(1/(n k + 1))].
    # n = 2 makes the hyperbolic term vanish and the sum telescope.
    if n < 2:
        raise DomainError(f"requires n >= 2, got {n!r}")
    rhs, tail, terms = _h_plus_poles(PI / n, PI / n)
    return IdentityReport.build(
        "corollary3", {"n": float(n)}, ti2kit.special.catalan_reference(1e-14), rhs, tol,
        "alternating-series-acceleration", "hyperbolic-term+ti2-differences", tail, terms,
    )


def _corollary4(theta: float, tol: float) -> IdentityReport:
    # The rhs first: it checks theta, and math.tan(inf) raises ValueError.
    rhs = ti2_clausen_form(theta)
    t = math.tan(theta)
    return IdentityReport.build(
        "corollary4", {"theta": theta}, ti2(t), rhs, tol, ti2_method(t), METHOD_CLAUSEN_FORM,
    )


def _remark1(K: int, tol: float) -> IdentityReport:
    # The partial sum telescopes to Ti2(1) - Ti2(1/(2K+1)) for any Ti2, so
    # the tail added back is Ti2(1/(2K+1)) by quadrature: an error in Ti2's
    # series route then stays in the rhs instead of cancelling.
    return IdentityReport.build(
        "remark1", {"K": float(K)}, ti2kit.special.catalan_reference(1e-14),
        ti2kit.decomp.remark1_partial(K) + ti2_via_quadrature(1.0 / (2 * K + 1)), tol,
        "alternating-series-acceleration", "telescoping+quadrature-tail", None, K,
    )


def _lemma1(_point, tol: float) -> IdentityReport:
    # G = K(1) + (1 - cot 1) + sum_{n>=1} (-1)^n/(2n+1)^2 S_{2n+1}, the
    # n-series being the pole tail's at A = alpha = 1, m = 0, summed to the
    # end (20 terms).  There S_r = pi^{-r} [zeta(r, 1 - 1/pi) - zeta(r, 1 + 1/pi)],
    # all 20 from two special._zeta_rungs passes, whose direct rows end at
    # their first term below 1e-20 (97 and 81 terms of the full 220 and
    # 200): that bracket order carries (k pi - 1)^{-r} - (k pi + 1)^{-r}, and
    # the opposite order misses G by about 2e-2 (the tests pin it).  The tail
    # bound adds the n-series bound to K(1)'s Ei-series bound.
    k1 = ti2kit.decomp._h_ei_series(1.0, 1.0)
    ser = ti2kit.decomp._hurwitz_n_series(1.0, 1.0, 0)
    return IdentityReport.build(
        "lemma1", {}, ti2kit.special.catalan_reference(1e-14),
        k1.value + ti2kit.decomp.s_r(1) + ser.value, tol,
        "alternating-series-acceleration", "hurwitz-ei-loggamma-assembly",
        ser.tail_bound + k1.tail_bound, ser.terms_used,
    )


def _pointwise(point, tol: float) -> IdentityReport:
    # arctan(x/alpha) against the principal term plus the pole sum summed to
    # the end, 0 <= x < inf.  The sum costs the same at every x, and the
    # Stirling remainder of its tail is below 1e-19, so no tail bound is
    # reported and tol is the whole budget.
    alpha, x = point
    ti2kit.decomp._check_alpha(alpha)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"requires 0 <= x < inf, got {x!r}")
    principal = math.atan(math.cos(alpha) / math.sin(alpha) * math.tanh(x))
    return IdentityReport.build(
        "pointwise", {"alpha": alpha, "x": x}, math.atan(x / alpha),
        principal + ti2kit.decomp._xi_sum(alpha, x), tol, "arctan", "pole-sum",
        None, ti2kit.decomp._XI_DIRECT_TERMS,
    )


# Every identity's default tolerance, set from the worst residual measured at
# each row below.  Truncated series carry their own tail bounds on top.
_TOL = 1e-12

# name -> (points(cfg), check(point, tol)).  Each check builds its report
# with positional arguments: keywords cost a build about 0.1 us of its 1.3.
_IDENTITIES = {
    # theorem1's points are the admissibility results of the admissible a, so
    # the check solves from the test it was filtered by instead of redoing it.
    # Its worst residual is set by its root solve, not by its quadrature of
    # I(a, b): over 3000 seeded admissible a (two seeds, a in [0.45, 19]) it
    # was 1.09e-14 with the solve at 1e-14, where the worst solve residual
    # was 9.99e-15.
    "theorem1": (
        lambda cfg: [r for r in map(ti2kit.endpoint.admissibility, cfg.a_grid) if r.admissible],
        _theorem1,
    ),
    # corollary1: residual 0 at its one point.
    "corollary1": (lambda cfg: [None], _corollary1),
    # corollary2 and corollary3 sum their pole series to the end, 12 brackets
    # directly and the rest by the Hurwitz n-series: over 4000 seeded
    # corollary2 points (A log-stratified in [0.05, 2], alpha uniform in
    # [0.2, 3]) the worst residual was 2.1e-15, and over corollary3's
    # n = 2..12 it was 2.2e-16, so 1e-12 leaves a factor of about 400 for
    # other platforms' libm while a 1e-11 error in either sum fails.
    "corollary2": (lambda cfg: cfg.A_alpha_grid, _corollary2),
    "corollary3": (lambda cfg: cfg.n_grid, _corollary3),
    # corollary4: worst residual 3.6e-15 over 20000 theta in
    # [0.02, pi/2 - 0.02] and 100 within 5e-5 of either end.
    "corollary4": (lambda cfg: cfg.theta_grid, _corollary4),
    # remark1: worst residual 4.7e-15 for K = 1..299, 1e3, 5e3, 2e4, 1e5,
    # at 1e5.
    "remark1": (lambda cfg: [cfg.K], _remark1),
    # lemma1 sums its Hurwitz n-series to the end too, in 20 terms; at its
    # one point the residual is 1.1e-16 under a tail bound of 2.4e-16, so
    # 1e-12 holds it the same way, and a 1e-11 error in K(1) fails.
    "lemma1": (lambda cfg: [None], _lemma1),
    # pointwise: worst residual 7.8e-16 over 3 x 4000 seeded points (alpha
    # in [0.2, 3], x in [0.05, 4]), with 12 pole terms summed directly.
    "pointwise": (lambda cfg: cfg.alpha_x_grid, _pointwise),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def _run(name: str, cfg: VerificationConfig) -> list[IdentityReport]:
    points, check = _IDENTITIES[name]
    tol = _TOL if cfg.tol is None else cfg.tol
    return [check(p, tol) for p in points(cfg)]


def run_identity(name: str, cfg: Optional[VerificationConfig] = None) -> list[IdentityReport]:
    """Run one named identity, or "all" of them in IDENTITY_NAMES order.

    The config is validated once; the reports come back in grid order.
    """
    cfg = cfg or VerificationConfig()
    cfg.validate()
    if name == "all":
        return [r for n in IDENTITY_NAMES for r in _run(n, cfg)]
    if name not in _IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    return _run(name, cfg)
