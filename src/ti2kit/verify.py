"""Named identity verifications over configurable parameter grids.

Each identity name maps to a runner that emits one :class:`IdentityReport`
per grid point.  The name set is a closed enumeration: adding one requires
adding the backing operation first.  Grid points are independent pure
computations, so they may be dispatched to worker threads; reports are
always emitted in input order, making runs deterministic at any worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import decomp, endpoint
from .report import IdentityReport
from .special import catalan_reference
from .ti2core import METHOD_CLAUSEN_FORM, ti2, ti2_clausen_form, ti2_method

__all__ = ["IDENTITY_NAMES", "VerificationConfig", "run_identity", "run_all"]

PI = math.pi

IDENTITY_NAMES = (
    "theorem1",
    "corollary1",
    "corollary2",
    "corollary3",
    "corollary4",
    "remark1",
    "lemma1",
    "pointwise",
)

# Default tolerances: 1e-9 where a quadrature sits on one side, 1e-10 for
# purely series/closed-form comparisons.  Truncated series carry their own
# tail bounds on top.
_DEFAULT_TOLERANCES = {
    "theorem1": 1e-9,
    "corollary1": 1e-10,
    "corollary2": 1e-9,
    "corollary3": 1e-8,
    "corollary4": 1e-10,
    "remark1": 1e-10,
    "lemma1": 1e-10,
    "pointwise": 1e-12,
}


@dataclass
class VerificationConfig:
    """Grids, truncations, tolerances, and output options for verify runs."""

    a_grid: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0)
    theta_grid: Sequence[float] = (PI / 12, PI / 8, PI / 6, PI / 4, PI / 3)
    n_grid: Sequence[int] = (2, 3, 4, 6)
    A_alpha_grid: Sequence[tuple[float, float]] = (
        (1.0, 1.0),
        (1.0, PI / 2),
        (0.5, 0.5),
        (2.0, 2.5),
    )
    alpha_x_grid: Sequence[tuple[float, float]] = tuple(
        (a, x)
        for a in (0.4, 1.0, 1.6, 2.2, 2.8)
        for x in (0.8, 1.6, 2.4, 3.2, 4.0)
    )
    K: Optional[int] = None  # pole-series depth; None = per-identity default
    J: Optional[int] = None  # exponential-integral depth; None = auto
    N: int = 8  # Hurwitz series depth
    tolerances: dict[str, float] = field(default_factory=dict)
    format: str = "table"
    out: Optional[str] = None
    workers: int = 1

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, _DEFAULT_TOLERANCES[name])

    def validate(self) -> None:
        for name, tol in self.tolerances.items():
            if name not in IDENTITY_NAMES:
                raise ValueError(f"unknown identity {name!r} in tolerances")
            if not tol > 0.0:
                raise ValueError(f"tolerance for {name!r} must be positive, got {tol!r}")
        for label, v in (("K", self.K), ("J", self.J)):
            if v is not None and v < 1:
                raise ValueError(f"truncation {label} must be >= 1, got {v!r}")
        if self.N < 1:
            raise ValueError(f"truncation N must be >= 1, got {self.N!r}")
        if self.format not in ("json", "table"):
            raise ValueError(f"format must be 'json' or 'table', got {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")


def _map_ordered(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # ~4 ms of import; rarely used

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_theorem1(cfg: VerificationConfig) -> list[IdentityReport]:
    tol = cfg.tolerance("theorem1")
    points = [a for a in cfg.a_grid if endpoint.admissibility(a).admissible]
    return _map_ordered(
        lambda a: endpoint.theorem1_identity(a, tolerance=tol), points, cfg.workers
    )


def _run_corollary1(cfg: VerificationConfig) -> list[IdentityReport]:
    sol = endpoint.solve_endpoint_b(1.0, 1e-13)
    value = sol.b * sol.b / 4.0 - 0.25 * PI * math.log(2.0)
    return [
        IdentityReport.build(
            name="corollary1",
            params={"a": 1.0, "b": sol.b},
            lhs=catalan_reference(1e-14),
            rhs=value,
            tolerance=cfg.tolerance("corollary1"),
            method_lhs="alternating-series-acceleration",
            method_rhs="endpoint-root-solve",
        )
    ]


def _run_corollary2(cfg: VerificationConfig) -> list[IdentityReport]:
    K = cfg.K if cfg.K is not None else 2000
    tol = cfg.tolerance("corollary2")
    return _map_ordered(
        lambda p: decomp.corollary2_series(p[0], p[1], K, tolerance=tol),
        list(cfg.A_alpha_grid),
        cfg.workers,
    )


def _run_corollary3(cfg: VerificationConfig) -> list[IdentityReport]:
    K = cfg.K if cfg.K is not None else 2000
    tol = cfg.tolerance("corollary3")
    return _map_ordered(
        lambda n: decomp.catalan_family(n, K, tolerance=tol),
        list(cfg.n_grid),
        cfg.workers,
    )


def _run_corollary4(cfg: VerificationConfig) -> list[IdentityReport]:
    tol = cfg.tolerance("corollary4")

    def check(theta: float) -> IdentityReport:
        lhs = ti2(math.tan(theta))
        return IdentityReport.build(
            name="corollary4",
            params={"theta": theta},
            lhs=lhs,
            rhs=ti2_clausen_form(theta),
            tolerance=tol,
            method_lhs=ti2_method(math.tan(theta)),
            method_rhs=METHOD_CLAUSEN_FORM,
        )

    return _map_ordered(check, list(cfg.theta_grid), cfg.workers)


def _run_remark1(cfg: VerificationConfig) -> list[IdentityReport]:
    K = cfg.K if cfg.K is not None else 10
    # Telescoping correction: partial sum + Ti2(1/(2K+1)) recovers G in full.
    value = decomp.remark1_partial(K) + ti2(1.0 / (2 * K + 1))
    return [
        IdentityReport.build(
            name="remark1",
            params={"K": float(K)},
            lhs=catalan_reference(1e-14),
            rhs=value,
            tolerance=cfg.tolerance("remark1"),
            method_lhs="alternating-series-acceleration",
            method_rhs="telescoping+ti2-tail",
            terms_used=K,
        )
    ]


def _run_lemma1(cfg: VerificationConfig) -> list[IdentityReport]:
    J = cfg.J if cfg.J is not None else 18
    return [decomp.lemma1_catalan(cfg.N, J, tolerance=cfg.tolerance("lemma1"))]


def _run_pointwise(cfg: VerificationConfig) -> list[IdentityReport]:
    K = cfg.K if cfg.K is not None else 5000
    return _map_ordered(
        lambda p: decomp.pointwise_identity(p[0], p[1], K),
        list(cfg.alpha_x_grid),
        cfg.workers,
    )


_RUNNERS = {
    "theorem1": _run_theorem1,
    "corollary1": _run_corollary1,
    "corollary2": _run_corollary2,
    "corollary3": _run_corollary3,
    "corollary4": _run_corollary4,
    "remark1": _run_remark1,
    "lemma1": _run_lemma1,
    "pointwise": _run_pointwise,
}


def run_identity(name: str, cfg: Optional[VerificationConfig] = None) -> list[IdentityReport]:
    """Run one named identity (or "all") and return its reports in grid order."""
    cfg = cfg or VerificationConfig()
    cfg.validate()
    if name == "all":
        return run_all(cfg)
    if name not in _RUNNERS:
        raise KeyError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    return _RUNNERS[name](cfg)


def run_all(cfg: Optional[VerificationConfig] = None) -> list[IdentityReport]:
    """Run every identity in the fixed enumeration order."""
    cfg = cfg or VerificationConfig()
    cfg.validate()
    reports: list[IdentityReport] = []
    for name in IDENTITY_NAMES:
        reports.extend(_RUNNERS[name](cfg))
    return reports
