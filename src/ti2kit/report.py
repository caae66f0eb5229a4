"""Identity reports and machine-readable output.

An :class:`IdentityReport` is the artifact's unit of evidence: one named
identity checked at one parameter point, with both sides, the residual, the
tolerance regime, and the methods that produced each side.  The JSON writer
serializes reals with 17 significant digits in a fixed field order so that
identical runs produce byte-identical output.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import _EXPORTS

__all__ = _EXPORTS["report"]


class IdentityReport(NamedTuple):
    """One verified identity at one grid point.

    Invariants: ``abs_residual == |lhs - rhs|`` exactly as computed, and
    ``passed`` is ``abs_residual <= tolerance + (tail_bound or 0)``.  Use
    :meth:`build` so both are enforced by construction.  The wire name of
    ``passed`` is ``pass``.  Equality compares every field, ``params``
    included.
    """

    name: str
    params: dict[str, float]
    lhs: float
    rhs: float
    abs_residual: float
    tolerance: float
    passed: bool
    method_lhs: str
    method_rhs: str
    tail_bound: Optional[float] = None
    terms_used: Optional[int] = None

    @classmethod
    def build(
        cls,
        name: str,
        params: dict[str, float],
        lhs: float,
        rhs: float,
        tolerance: float,
        method_lhs: str,
        method_rhs: str,
        tail_bound: Optional[float] = None,
        terms_used: Optional[int] = None,
    ) -> "IdentityReport":
        residual = abs(lhs - rhs)
        budget = tolerance + (tail_bound if tail_bound is not None else 0.0)
        return cls(name, dict(params), lhs, rhs, residual, tolerance, residual <= budget,
                   method_lhs, method_rhs, tail_bound, terms_used)


def _real(x: float) -> str:
    # 17 significant digits round-trips any binary64 value.
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    return format(x, ".17g")


def _report_json(r: IdentityReport, dumps) -> str:
    parts = [f'"name": {dumps(r.name)}']
    inner = ", ".join(f"{dumps(k)}: {_real(v)}" for k, v in r.params.items())
    parts.append(f'"params": {{{inner}}}')
    parts.append(f'"lhs": {_real(r.lhs)}')
    parts.append(f'"rhs": {_real(r.rhs)}')
    parts.append(f'"abs_residual": {_real(r.abs_residual)}')
    parts.append(f'"tolerance": {_real(r.tolerance)}')
    if r.tail_bound is not None:
        parts.append(f'"tail_bound": {_real(r.tail_bound)}')
    parts.append(f'"pass": {"true" if r.passed else "false"}')
    parts.append(f'"method_lhs": {dumps(r.method_lhs)}')
    parts.append(f'"method_rhs": {dumps(r.method_rhs)}')
    if r.terms_used is not None:
        parts.append(f'"terms_used": {r.terms_used}')
    return "{" + ", ".join(parts) + "}"


def render_json(reports: Sequence[IdentityReport]) -> str:
    import json  # here, so that table output never loads it
    if not reports:
        return "[]\n"
    body = ",\n  ".join(_report_json(r, json.dumps) for r in reports)
    return "[\n  " + body + "\n]\n"


_TABLE_HEADER = (
    f"{'identity':<12} {'params':<28} {'lhs':>22} {'rhs':>22} "
    f"{'residual':>10} {'tol':>9} {'tail':>9} {'pass':>5}"
)


def render_table(reports: Sequence[IdentityReport]) -> str:
    lines = [_TABLE_HEADER, "-" * len(_TABLE_HEADER)]
    for r in reports:
        params = " ".join(f"{k}={v:.6g}" for k, v in r.params.items())
        tail = f"{r.tail_bound:9.2e}" if r.tail_bound is not None else f"{'-':>9}"
        lines.append(
            f"{r.name:<12} {params:<28} {r.lhs:>22.15e} {r.rhs:>22.15e} "
            f"{r.abs_residual:>10.2e} {r.tolerance:>9.1e} {tail} "
            f"{'ok' if r.passed else 'FAIL':>5}"
        )
    return "\n".join(lines) + "\n"
