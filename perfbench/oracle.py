"""Independent references: mpmath 1.3 at 40 digits, never the library under test.

Tolerances are relative (``REL_TOL * |ref|``) for functions with no real zero
in the sampled domain.  The four functions that have one there mix in an
absolute part (``REL_TOL * (|ref| + 1)``): ``li2`` at z = 0, ``clausen2`` at 0,
pi and 2 pi, ``phi`` at b = 0 and ``H`` at alpha = pi/2.  ``b-of-a`` is judged
by the residual ``|phi_a(b) - psi(a)|`` of the returned endpoint, which the
solver promises below its default tolerance 1e-12.

The error reported for each output is the error divided by its tolerance
scale (``|ref|``, ``|ref| + 1`` or ``|psi(a)|``), so it reads as a relative
error wherever the tolerance is relative.
"""

from __future__ import annotations

import re

import mpmath as mp

DPS = 40
REL_TOL = 1e-13
SOLVER_TOL = 1e-12
MIXED = frozenset({"li2", "clausen2", "phi", "H"})

# Known defects.  The timed op streams keep out of them (inputs.py), so that
# no timed op fails on a known defect; every run instead checks a seeded
# probe of each one outside the timed region (inputs.defect_probe) and reports
# the probe's misses as `defect_fail_frac`.  A miss inside a known defect
# leaves the run's `correct` flag alone; any other failure makes it incorrect.
# Outputs known to miss REL_TOL:
EI_DEFECT = (2.0, 6.0)  # the half-open interval (2, 6]
KNOWN_DEFECTS = {
    "ei": (lambda args: EI_DEFECT[0] < args[0] <= EI_DEFECT[1],
           "ei_negative's series loses digits to cancellation on (2, 6], up to ~1e-11 relative"),
}
# `ti2kit compute` exits 2 (usage error) on a negative argument written with
# an exponent, such as -6e-05: argparse takes it for an option.  The timed
# argvs write every number in positional notation (inputs.cli_arg).
_NEGATIVE_EXPONENT = re.compile(r"-\d[\d.]*e[-+]?\d+")


def _li2(z):
    return mp.polylog(2, z)


def _phi(a, b):
    # phi_a(b) = Re Li2(-a e^{ib}) - Li2(-a); Re Li2 is continuous across the cut.
    a = mp.mpf(a)
    return mp.re(_li2(-a * mp.expj(b))) - mp.re(_li2(-a))


def _psi(a):
    return mp.im(_li2(mp.mpc(1, a)))


def _h(A, alpha):
    cot = mp.cot(alpha)
    return mp.quad(lambda x: mp.atan(cot * mp.tanh(x)) / x, [0, A])


def admissible(a: float, margin: float = 1e-9) -> bool:
    """0 < psi(a) < phi_a(pi), each side by more than ``margin``."""
    with mp.workdps(DPS):
        p = _psi(a)
        q = mp.re(_li2(mp.mpf(a))) - mp.re(_li2(-mp.mpf(a)))
        return p > margin and q - p > margin


def reference(fn: str, args: list[float]):
    """The 40-digit value of ``fn`` at ``args`` (for b-of-a: psi(a), the target)."""
    with mp.workdps(DPS):
        if fn == "ti2":
            return mp.im(_li2(mp.mpc(0, args[0])))
        if fn == "li2":
            return _li2(mp.mpc(args[0], args[1]))
        if fn == "clausen2":
            return mp.clsin(2, args[0])
        if fn == "hurwitz":
            return mp.zeta(args[0], args[1])
        if fn == "ei":
            return mp.ei(-mp.mpf(args[0]))
        if fn == "catalan":
            return +mp.catalan
        if fn in ("psi", "b-of-a"):
            return _psi(args[0])
        if fn == "phi":
            return _phi(args[0], args[1])
        if fn == "H":
            return _h(args[0], args[1])
        if fn == "K1":
            return _h(1, 1)
    raise KeyError(fn)


def check(fn: str, args: list[float], value, ref) -> tuple[bool, float]:
    """(within tolerance, error over its tolerance scale) for one output.

    ``value`` is a float, or ``[re, im]`` for li2.
    """
    with mp.workdps(DPS):
        if fn == "b-of-a":
            err = abs(_phi(args[0], value) - ref)
            scale = abs(ref)
            ok = err <= SOLVER_TOL + REL_TOL * scale
        else:
            v = mp.mpc(*value) if isinstance(value, list) else mp.mpf(value)
            err = abs(v - ref)
            scale = abs(ref) + 1 if fn in MIXED else abs(ref)
            ok = err <= REL_TOL * scale
        return bool(ok), float(err / scale)


def known_defect(fn: str, args: list[float]) -> bool:
    hit = KNOWN_DEFECTS.get(fn)
    return hit is not None and hit[0](args)


def known_cli_usage_defect(argv: list[str]) -> bool:
    return argv[0] == "compute" and any(_NEGATIVE_EXPONENT.fullmatch(a) for a in argv[2:])
