"""Named identity verifications over configurable parameter grids.

Each identity is one row of a table: its default tolerance, the grid points
it runs at, and the check that turns one point into an
:class:`IdentityReport`.  The name set is a closed enumeration: adding one
requires adding the backing operation first.  Reports are emitted in grid
order, so runs are deterministic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import _EXPORTS, _LazyModule
from .report import IdentityReport
from .ti2core import METHOD_CLAUSEN_FORM, ti2, ti2_clausen_form, ti2_method

# Imported by the first row that uses them, so ``verify theorem1`` loads
# neither decomp nor special.
decomp = _LazyModule(globals(), ".decomp")
endpoint = _LazyModule(globals(), ".endpoint")
special = _LazyModule(globals(), ".special")

__all__ = _EXPORTS["verify"]

PI = math.pi


# remark1 sums K terms directly, ~2 us each: K = 1e5 takes 0.23 s, and is
# the largest K its tolerance was measured at (see _IDENTITIES).
_MAX_K = 100_000


_ALPHA_X_GRID = tuple(
    (a, x) for a in (0.4, 1.0, 1.6, 2.2, 2.8) for x in (0.8, 1.6, 2.4, 3.2, 4.0)
)


class VerificationConfig:
    """Grids, truncations, tolerances, and output options for verify runs."""

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
        tolerances: Optional[dict[str, float]] = None,
        format: str = "table",
        out: Optional[str] = None,
    ):
        self.a_grid = a_grid
        self.theta_grid = theta_grid
        self.n_grid = n_grid
        self.A_alpha_grid = A_alpha_grid
        self.alpha_x_grid = alpha_x_grid
        self.K = K
        self.tolerances = {} if tolerances is None else tolerances
        self.format = format
        self.out = out

    def validate(self) -> None:
        for name, tol in self.tolerances.items():
            if name not in IDENTITY_NAMES:
                raise ValueError(f"unknown identity {name!r} in tolerances")
            if not 0.0 < tol < math.inf:
                raise ValueError(
                    f"tolerance for {name!r} must be finite and positive, got {tol!r}"
                )
        if not 1 <= self.K <= _MAX_K:
            raise ValueError(f"truncation K must be in 1..{_MAX_K}, got {self.K!r}")
        if self.format not in ("json", "table"):
            raise ValueError(f"format must be 'json' or 'table', got {self.format!r}")


def _corollary1(_point, cfg: VerificationConfig, tol: float) -> IdentityReport:
    sol = endpoint.solve_endpoint_b(1.0, 1e-13)
    return IdentityReport.build(
        name="corollary1",
        params={"a": 1.0, "b": sol.b},
        lhs=special.catalan_reference(1e-14),
        rhs=sol.b * sol.b / 4.0 - 0.25 * PI * math.log(2.0),
        tolerance=tol,
        method_lhs="alternating-series-acceleration",
        method_rhs="endpoint-root-solve",
        terms_used=sol.iterations,
    )


def _corollary4(theta: float, cfg: VerificationConfig, tol: float) -> IdentityReport:
    # The rhs first: it checks theta, and math.tan(inf) raises ValueError.
    rhs = ti2_clausen_form(theta)
    t = math.tan(theta)
    return IdentityReport.build(
        name="corollary4",
        params={"theta": theta},
        lhs=ti2(t),
        rhs=rhs,
        tolerance=tol,
        method_lhs=ti2_method(t),
        method_rhs=METHOD_CLAUSEN_FORM,
    )


def _remark1(K: int, cfg: VerificationConfig, tol: float) -> IdentityReport:
    # Telescoping correction: partial sum + Ti2(1/(2K+1)) recovers G in full.
    return IdentityReport.build(
        name="remark1",
        params={"K": float(K)},
        lhs=special.catalan_reference(1e-14),
        rhs=decomp.remark1_partial(K) + ti2(1.0 / (2 * K + 1)),
        tolerance=tol,
        method_lhs="alternating-series-acceleration",
        method_rhs="telescoping+ti2-tail",
        terms_used=K,
    )


# name -> (default tolerance, points(cfg), check(point, cfg, tol)).
# theorem1's points are the admissibility results of the admissible a, so
# the check solves from the test it was filtered by instead of redoing it.
# Default tolerances: 1e-12, each set from a measured worst residual.
# Truncated series carry their own tail bounds on top.  theorem1's worst
# residual is set by its root solve, not by its quadrature of I(a, b) to
# 1e-11: over 3000 seeded admissible a (two seeds, a in [0.45, 19]) it was
# 1.09e-14 with the solve at 1e-14, where the worst solve residual was
# 9.99e-15; on the first seed the quadrature at 1e-13 gave 1.13e-14.
# corollary2 and corollary3 sum their pole series to
# the end: over 4000 seeded corollary2 points (A log-stratified in [0.05, 2],
# alpha uniform in [0.2, 3]) the worst residual was 2.4e-15, and over
# corollary3's n = 2..12 it was 1.1e-16, so 1e-12 leaves a factor of about
# 400 for other platforms' libm while a 1e-11 error in either sum fails.
# lemma1 sums its Hurwitz n-series to the end too; at its one point the
# residual is 1.1e-16 under a tail bound of 2.4e-16, so 1e-12 holds it the
# same way, and a 1e-11 error in K(1) fails.
_IDENTITIES = {
    "theorem1": (
        1e-12,
        lambda cfg: [r for r in map(endpoint.admissibility, cfg.a_grid) if r.admissible],
        lambda adm, cfg, tol: endpoint._theorem1(adm, tol),
    ),
    # corollary1: residual 0 at its one point.
    "corollary1": (1e-12, lambda cfg: [None], _corollary1),
    "corollary2": (
        1e-12,
        lambda cfg: cfg.A_alpha_grid,
        lambda p, cfg, tol: decomp.corollary2_series(p[0], p[1], tolerance=tol),
    ),
    "corollary3": (
        1e-12,
        lambda cfg: cfg.n_grid,
        lambda n, cfg, tol: decomp.catalan_family(n, tolerance=tol),
    ),
    # corollary4: worst residual 3.6e-15 over 20000 theta in
    # [0.02, pi/2 - 0.02] and 100 within 5e-5 of either end.
    "corollary4": (1e-12, lambda cfg: cfg.theta_grid, _corollary4),
    # remark1: worst residual 4.9e-15 for K = 1..299, 1e3, 5e3, 2e4, 1e5.
    "remark1": (1e-12, lambda cfg: [cfg.K], _remark1),
    "lemma1": (
        1e-12,
        lambda cfg: [None],
        lambda _point, cfg, tol: decomp.lemma1_catalan(tolerance=tol),
    ),
    "pointwise": (
        1e-12,
        lambda cfg: cfg.alpha_x_grid,
        lambda p, cfg, tol: decomp.pointwise_identity(p[0], p[1], tolerance=tol),
    ),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def _run(name: str, cfg: VerificationConfig) -> list[IdentityReport]:
    default_tol, points, check = _IDENTITIES[name]
    tol = cfg.tolerances.get(name, default_tol)
    return [check(p, cfg, tol) for p in points(cfg)]


def run_identity(name: str, cfg: Optional[VerificationConfig] = None) -> list[IdentityReport]:
    """Run one named identity (or "all") and return its reports in grid order."""
    cfg = cfg or VerificationConfig()
    cfg.validate()
    if name == "all":
        return run_all(cfg)
    if name not in _IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    return _run(name, cfg)


def run_all(cfg: Optional[VerificationConfig] = None) -> list[IdentityReport]:
    """Run every identity in the fixed enumeration order."""
    cfg = cfg or VerificationConfig()
    cfg.validate()
    reports: list[IdentityReport] = []
    for name in IDENTITY_NAMES:
        reports.extend(_run(name, cfg))
    return reports
