"""The straight-line kernels against their loop and recursive forms, bit for bit.

The dilogarithm reduces without recursion, the fixed-degree sums on hot
paths are written out term by term, and so is the Gauss-Kronrod panel.
Each reference below is the earlier form of the same kernel: a recursive
reduction or a loop over the coefficient or node tuple.  The endpoint solve's reference is
a generic root finder with bisection and Newton modes; the solve is its
Newton mode written out for phi_a.
Both make the same floating-point operations in the same order, so every
comparison is ``==`` on the bits, signed zeros included, over seeded
arguments on each reduction path and in each band.
"""

import cmath
import math
import random
from typing import Callable, Optional

import pytest

from ti2kit import endpoint, numerics, polylog, special, ti2core
from ti2kit.endpoint import admissibility, solve_endpoint_b
from ti2kit.numerics import BudgetError, DomainError

PI = math.pi
_PI2_6 = polylog._PI2_6
_THRESHOLD = polylog._INVERSION_THRESHOLD


def _bits(v):
    # float.hex tells -0.0 from 0.0.
    if isinstance(v, complex):
        return (v.real.hex(), v.imag.hex())
    return v.hex()


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --- reference forms -------------------------------------------------------


def _series_ref(w):
    u = w * w
    p = 0.0
    for c in polylog._SERIES_COEFF:
        p = p * u + c
    return w + w * (u * p - 0.25 * w)


def _li2_real_ref(x):
    if x == 1.0:
        return _PI2_6
    if x > 0.5:
        return _PI2_6 - math.log(x) * math.log1p(-x) - _li2_real_ref(1.0 - x)
    if x < -_THRESHOLD:
        lg = math.log(-x)
        return -_li2_real_ref(1.0 / x) - _PI2_6 - 0.5 * lg * lg
    return _series_ref(-math.log1p(-x))


def _li2_any_ref(z):
    if z.imag == 0.0:
        return complex(_li2_real_ref(z.real), z.imag)
    if abs(z) > _THRESHOLD:
        lg = cmath.log(-z)
        return -_li2_any_ref(1.0 / z) - _PI2_6 - 0.5 * lg * lg
    if z.real > 0.5:
        return _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _li2_any_ref(1.0 - z)
    return _series_ref(-polylog._log1p(-z))


def _ti2_horner_ref(y):
    for top, coeffs in ti2core._HORNER_BANDS:
        if y <= top:
            break
    u = y * y
    p = 0.0
    for c in coeffs:
        p = p * u + c
    return y + y * (u * p)


def _log_gamma_two_plus_ref(e):
    acc = 0.0
    for c in reversed(special._LGAMMA2_COEFF):
        acc = (acc + c) * e
    return (acc + special._ONE_MINUS_EULER_GAMMA) * e


def _gk21_ref(f, a, b):
    # QUADPACK's QK21 loop over the node pairs.
    xgk, wgk, wg = numerics._XGK, numerics._WGK, numerics._WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)

    fc = f(centr)
    resg = 0.0
    resk = wgk[10] * fc
    pairs = []
    for j in range(10):
        dx = hlgth * xgk[j]
        f1 = f(centr - dx)
        f2 = f(centr + dx)
        pairs.append((f1, f2))
        resk += wgk[j] * (f1 + f2)
        if j % 2 == 1:
            resg += wg[j // 2] * (f1 + f2)
    if math.isnan(resk):
        raise DomainError(f"integrand returned NaN on [{a!r}, {b!r}]")

    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        f1, f2 = pairs[j]
        resasc += wgk[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc *= abs(hlgth)

    result = resk * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    return result, abserr


class BracketError(ValueError):
    """The supplied bracket does not strictly enclose the target value."""


_BRACKET_FLOOR = 1e-14

_ROOT_MAX_ITERATIONS = 200


def find_root_increasing(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float,
    *,
    derivative: Optional[Callable[[float], float]] = None,
    start: Optional[float] = None,
) -> float:
    """Solve ``g(b) = target`` for strictly increasing ``g`` on ``[lo, hi]``.

    Guaranteed-convergent bisection, optionally refined with safeguarded
    Newton steps when ``derivative`` is supplied: a step is taken where
    ``g'`` is in (0, inf) and the step lands strictly inside the current
    bracket.  The first iterate is ``start`` when it lies strictly inside
    the bracket, and the bracket midpoint otherwise.  Returns the last
    iterate, which it has evaluated, as soon as ``|g(b) - target| <= tol``,
    the bracket width falls below 1e-14 or a Newton step no longer moves it.

    Requires the strict bracketing ``g(lo) < target < g(hi)``; otherwise a
    :class:`BracketError` is raised.  Raises :class:`BudgetError` (with the
    bracket midpoint attached) if 200 steps do not meet any condition.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got [{lo}, {hi}]")
    glo = g(lo)
    ghi = g(hi)
    if not (glo < target < ghi):
        raise BracketError(
            f"target {target!r} not strictly inside [g(lo), g(hi)] = [{glo!r}, {ghi!r}]"
        )

    a, b = lo, hi
    x = start if start is not None and lo < start < hi else 0.5 * (a + b)
    for _ in range(_ROOT_MAX_ITERATIONS):
        gx = g(x)
        if gx < target:
            a = x
        else:
            b = x
        if abs(gx - target) <= tol or b - a < _BRACKET_FLOOR:
            return x
        nxt = None
        if derivative is not None:
            d = derivative(x)
            if d > 0.0 and math.isfinite(d):
                cand = x - (gx - target) / d
                if cand == x:
                    return x
                if a < cand < b:
                    nxt = cand
        x = 0.5 * (a + b) if nxt is None else nxt
    raise BudgetError(
        f"root iteration budget {_ROOT_MAX_ITERATIONS} exhausted", best=0.5 * (a + b)
    )


def _solve_ref(adm, tol):
    # endpoint._solve as a counting wrapper g around phi_a, written out in
    # the module docstring's form for a, handed to find_root_increasing.
    # The bracket ends count as values, as the solve counts them.
    a = adm.a
    c, phi_pi = adm.phi_const, adm.phi_pi
    inverted = a > 1.0
    u = 0j

    def phi_a(b):
        nonlocal u
        if b == 0.0:
            return 0.0
        if b == PI:
            return phi_pi
        u = cmath.exp(-1j * b) / a if inverted else a * cmath.exp(1j * b)
        if inverted:
            return 0.5 * b * b + c - polylog._li2_any(-u).real
        return polylog._li2_any(-u).real + c

    evals = 0
    last = (math.nan, math.nan)

    def g(b):
        nonlocal evals, last
        evals += 1
        last = (b, phi_a(b))
        return last[1]

    b = find_root_increasing(
        g,
        0.0,
        PI,
        adm.psi,
        tol,
        derivative=lambda b: math.atan2(u.imag, 1.0 + u.real) + (b if inverted else 0.0),
        start=endpoint._start(adm),
    )
    assert last[0] == b
    return a, b, abs(last[1] - adm.psi), evals


# --- the complex dilogarithm, one test per reduction path -------------------


def _path(z):
    inverted = abs(z) > _THRESHOLD
    reflected = (1.0 / z if inverted else z).real > 0.5
    return inverted, reflected


def _sample_path(inverted, reflected, n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        r = _log_uniform(rng, 1e-6, 1e6) if rng.random() < 0.8 else 1.0 + rng.uniform(-1e-7, 1e-7)
        z = cmath.rect(r, rng.uniform(-PI, PI))
        if z.imag != 0.0 and _path(z) == (inverted, reflected):
            out.append(z)
    return out


@pytest.mark.parametrize(
    "inverted, reflected",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["series", "inversion", "reflection", "inversion+reflection"],
)
def test_li2_any_matches_recursive_form_on_each_path(inverted, reflected):
    zs = _sample_path(inverted, reflected, 3000, seed=31 + 2 * inverted + reflected)
    zs += [z.conjugate() for z in zs[:500]]
    for z in zs:
        assert _bits(polylog._li2_any(z)) == _bits(_li2_any_ref(z)), z


def test_li2_any_matches_recursive_form_at_the_edges():
    # Re z at 1/2 and |z| at the inversion threshold from both sides, the
    # theorem1 arguments, signed zeros on the real axis, and huge z whose
    # 1/z underflows onto the real axis or to 0 (after the inversion).
    rng = random.Random(37)
    zs = []
    for _ in range(1000):
        zs.append(complex(0.5 + rng.uniform(-1e-12, 1e-12), rng.uniform(-1.1, 1.1)))
        zs.append(cmath.rect(_THRESHOLD * (1.0 + rng.uniform(-1e-15, 1e-15)), rng.uniform(-PI, PI)))
        a, b = _log_uniform(rng, 0.4, 20.0), rng.uniform(0.0, PI)
        zs += [-a * cmath.exp(1j * b), complex(1.0, a), complex(0.0, a)]
    for x in (0.0, -0.0, 0.7, -0.7, 0.5, -0.5, -3.0, 1.0, -1.0):
        for im in (0.0, -0.0):
            zs.append(complex(x, im))
    zs += [
        complex(1e300, 1e-300),
        complex(-1e300, -1e-300),
        complex(1e300, -1e-300),
        complex(1.2e308, 1.2e308),
        complex(-1.2e308, 1.2e308),
        complex(0.5, 1e-300),
        complex(0.0, 5e-324),
    ]
    for z in zs:
        assert _bits(polylog._li2_any(z)) == _bits(_li2_any_ref(z)), z


def test_li2_real_matches_recursive_form_on_each_side_of_minus_one_half_and_one():
    rng = random.Random(41)
    # Real x <= 1 only: above 1 lies the cut, where li2 refuses to evaluate.
    xs = [5e-324, -5e-324, 0.0, -0.0, 1.0, -_THRESHOLD]
    for c in (-1.0, -_THRESHOLD, 0.5, 1.0):
        for scale in (1.0, 1e-3, 1e-8, 1e-14):
            xs += [c + rng.uniform(-1.0, 1.0) * scale for _ in range(300)]
        xs += [math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
    xs += [_log_uniform(rng, 1e-300, 1.0) for _ in range(2000)]
    xs += [-_log_uniform(rng, 1e-300, 1e308) for _ in range(2000)]
    for x in (x for x in xs if x <= 1.0):
        assert _bits(polylog._li2_real(x)) == _bits(_li2_real_ref(x)), x


def test_dilog_series_matches_loop():
    rng = random.Random(43)
    for _ in range(3000):
        w = rng.uniform(-1.1, 1.1)
        assert _bits(polylog._series(w)) == _bits(_series_ref(w)), w
        w = complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1))
        assert _bits(polylog._series(w)) == _bits(_series_ref(w)), w
    for w in (0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)):
        assert _bits(polylog._series(w)) == _bits(_series_ref(w)), w


# --- the written-out sums ---------------------------------------------------


def test_ti2_bands_match_loop_over_horner_bands():
    rng = random.Random(47)
    ys = [5e-324, 1e-310]
    bottom = 1e-8
    for top, _ in ti2core._HORNER_BANDS:
        ys += [_log_uniform(rng, bottom, top) for _ in range(1500)]
        ys += [top, math.nextafter(top, 0.0), math.nextafter(top, 1.0)]
        bottom = top
    for y in ys:
        if y <= 0.5:
            assert _bits(ti2core._ti2_series(y)) == _bits(_ti2_horner_ref(y)), y


def test_log_gamma_taylor_series_matches_loop():
    rng = random.Random(61)
    for e in [0.0, -0.0, 0.5, -0.5] + [rng.uniform(-0.5, 0.5) for _ in range(3000)]:
        assert _bits(special._log_gamma_two_plus(e)) == _bits(_log_gamma_two_plus_ref(e)), e


# --- the Gauss-Kronrod panel -------------------------------------------------


def _aux_I_integrand(a):
    # aux_integral_I's integrand in the tan form that its adaptive fallback takes.
    k = (1.0 - a) / (1.0 + a)
    return lambda beta: 0.5 * (PI - beta) - math.atan(k * math.tan(0.5 * beta))


def _h_integrand(alpha):
    cot = math.cos(alpha) / math.sin(alpha)

    def f(x):
        if x == 0.0:
            return cot
        return math.atan(cot * math.tanh(x)) / x

    return f


def _recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


def _intervals(rng, lo_range, n, top=math.inf):
    # n intervals [lo, hi], hi below top, of log-uniform width up to pi.
    out = []
    while len(out) < n:
        lo = rng.uniform(*lo_range)
        hi = lo + _log_uniform(rng, 1e-300, min(PI, top - lo))
        if lo < hi < top:
            out.append((lo, hi))
    return out


def _panel_cases(kind, rng):
    if kind == "aux_integral_I fallback":
        for lo, hi in _intervals(rng, (0.0, PI), 20000, PI):
            yield _aux_I_integrand(_log_uniform(rng, 0.3, 50.0)), lo, hi
        yield _aux_I_integrand(3.0), 0.0, 5e-324
    elif kind == "H":
        # alpha next to 0, pi/2 (from either side) and pi.
        for centre, signs in ((0.0, (1.0,)), (PI / 2.0, (-1.0, 1.0)), (PI, (-1.0,))):
            for lo, hi in _intervals(rng, (0.0, 3.0), 5000):
                alpha = centre + rng.choice(signs) * _log_uniform(rng, 1e-12, 1e-2)
                yield _h_integrand(alpha), lo, hi
    elif kind == "arctan":
        f = lambda x: math.atan(x) / x if x != 0.0 else 1.0
        for lo, hi in _intervals(rng, (0.0, 10.0), 5000):
            yield f, lo, hi
    elif kind == "polynomial":
        f = lambda x: ((0.5 * x - 3.0) * x + 1.25) * x - 7.0
        for lo, hi in _intervals(rng, (-5.0, 5.0), 5000):
            yield f, lo, hi
    else:
        for lo, hi in _intervals(rng, (-5.0, 5.0), 5000):
            yield (lambda x: -0.0), lo, hi


@pytest.mark.parametrize(
    "kind", ["aux_integral_I fallback", "H", "arctan", "polynomial", "negative zero"])
def test_gk21_matches_loop(kind):
    rng = random.Random(83 + len(kind))
    panels = 0
    for f, lo, hi in _panel_cases(kind, rng):
        calls, ref_calls = [], []
        got = numerics._gk21(_recorded(f, calls), lo, hi)
        ref = _gk21_ref(_recorded(f, ref_calls), lo, hi)
        assert [_bits(v) for v in got] == [_bits(v) for v in ref], (kind, lo, hi)
        assert calls == ref_calls and len(calls) == 21, (kind, lo, hi)
        panels += 1
    assert panels >= 5000


@pytest.mark.parametrize("node", range(21))
def test_gk21_bad_value_at_any_node(node):
    # A NaN at one node raises from both forms; an inf gives both the same
    # (value, error), nan included.
    def spiked(spike, calls):
        def f(x):
            calls.append(x)
            return spike if len(calls) == node + 1 else math.sin(x)

        return f

    for form in (numerics._gk21, _gk21_ref):
        calls = []
        with pytest.raises(DomainError):
            form(spiked(math.nan, calls), 0.25, 1.5)
        assert len(calls) == 21
    got = numerics._gk21(spiked(math.inf, []), 0.25, 1.5)
    ref = _gk21_ref(spiked(math.inf, []), 0.25, 1.5)
    assert [_bits(v) for v in got] == [_bits(v) for v in ref]


# --- the endpoint solve -----------------------------------------------------


@pytest.mark.parametrize("tol", [1e-12, 1e-14, 1e-300])
def test_solve_matches_wrapped_form(tol):
    # At 1e-300 only an exact root meets the tolerance; other solves return
    # their last b once the bracket is narrower than 1e-14 or the step no
    # longer moves b.
    rng = random.Random(71)
    unmet = checked = 0
    while checked < 300:
        a = _log_uniform(rng, 0.4513, 18.92)
        if not admissibility(a).admissible:
            continue
        sol = solve_endpoint_b(a, tol)
        ref = _solve_ref(admissibility(a), tol)
        assert [_bits(v) for v in sol[:3]] == [_bits(v) for v in ref[:3]], a
        assert sol.iterations == ref[3], a
        unmet += sol.residual > tol
        checked += 1
    assert (unmet > 0) == (tol == 1e-300), unmet


def test_solve_matches_root_finder_form_over_seeded_a():
    # 20,000 seeded admissible a, a fifth of them within 1e-3 of a = 1 where
    # phi_a changes form, each solved at five tolerances: b, the residual and
    # the count of phi_a values must be the finder form's, bit for bit.  At
    # 1e-16 some solves end on the bracket floor or on a step that no longer
    # moves b, short of the tolerance.
    rng = random.Random(79)
    tols = (1e-12, 1e-13, 1e-14, 1e-15, 1e-16)
    solves = unmet = 0
    while solves < 100_000:
        if rng.random() < 0.2:
            a = 1.0 + rng.uniform(-1e-3, 1e-3)
        else:
            a = _log_uniform(rng, 0.4513, 18.92)
        adm = admissibility(a)
        if not adm.admissible:
            continue
        for tol in tols:
            sol = endpoint._solve(adm, tol)
            ref = _solve_ref(adm, tol)
            assert [_bits(v) for v in sol[:3]] == [_bits(v) for v in ref[:3]], (a, tol)
            assert sol.iterations == ref[3], (a, tol)
            unmet += sol.residual > tol
            solves += 1
    assert unmet > 0
