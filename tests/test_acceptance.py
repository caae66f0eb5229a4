"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import subprocess
import sys

from conftest import central_difference, identity_report
from ti2kit.decomp import (
    _h_ei_series,
    _h_integral,
    k1_closed,
    remark1_partial,
    s_r,
)
from ti2kit.endpoint import (
    _phi_slope,
    _phi_u,
    aux_closed_F,
    aux_integral_I,
    phi,
    solve_endpoint_b,
)
from ti2kit.numerics import integrate_adaptive
from ti2kit.polylog import clausen2, li2
from ti2kit.special import EULER_GAMMA, catalan_reference, ei_negative, hurwitz_zeta
from ti2kit.ti2core import ti2, ti2_clausen_form
from ti2kit.verify import run_identity

PI = math.pi
G_REFERENCE_DIGITS = 0.9159655941772190


def _report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} [{status}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {label} {detail}"


def test_criterion_01_catalan_cross_route_agreement():
    routes = {
        "reference": catalan_reference(1e-14),
        "endpoint": run_identity("corollary1")[0].rhs,
        "telescoped": remark1_partial(100) + ti2(1.0 / 201.0),
        "clausen": ti2_clausen_form(PI / 4.0),
        "hurwitz-assembly": identity_report("lemma1").rhs,
    }
    worst = max(
        abs(u - v) for u, v in itertools.combinations(routes.values(), 2)
    )
    twelve_digit_routes = sum(
        1 for v in routes.values() if abs(v - G_REFERENCE_DIGITS) < 5e-13
    )
    _report(
        1,
        "Catalan cross-route agreement",
        worst < 1e-8 and twelve_digit_routes >= 3,
        f"worst pairwise {worst:.2e}, {twelve_digit_routes} routes at 12 digits",
    )


def test_criterion_02_theorem1_end_to_end():
    residuals = {}
    for a in (0.5, 0.75, 1.0, 1.5, 2.0):
        report = identity_report("theorem1", a)
        residuals[a] = report.abs_residual
    worst = max(residuals.values())
    _report(2, "endpoint identity on default grid", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_03_corollary1_endpoint_value():
    b = solve_endpoint_b(1.0, 1e-13).b
    expected = math.sqrt(4.0 * catalan_reference(1e-14) + PI * math.log(2.0))
    _report(3, "solved b(1) vs sqrt(4G + pi log 2)", abs(b - expected) < 1e-9,
            f"|diff| {abs(b - expected):.2e}")


def test_criterion_04_integral_equals_closed_form():
    worst = 0.0
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        for b in (0.3, 1.0, 2.0, 3.0):
            diff = abs(aux_integral_I(a, b, 1e-11).value - aux_closed_F(a, b))
            worst = max(worst, diff)
    _report(4, "quadrature vs closed form on 5x4 grid", worst < 2e-10, f"worst {worst:.2e}")


def test_criterion_05_phi_derivative_law():
    # The slope the endpoint solve takes, in the form a picks on each side
    # of a = 1.
    def slope(a, b):
        return _phi_slope(a, b, _phi_u(a, b))

    worst_fd = 0.0
    for a in (0.25, 0.5, 1.0, 2.0, 4.0, 1e3):
        for b in (0.3, 1.0, 2.0, 3.0):
            fd = central_difference(lambda x: phi(a, x), b, 1e-5)
            worst_fd = max(worst_fd, abs(slope(a, b) - fd))
    worst_half = max(
        abs(slope(a, b) - b / 2.0)
        for a in (1.0, math.nextafter(1.0, 2.0))
        for b in (0.3, 1.0, 2.0, 3.0)
    )
    _report(
        5,
        "phi' = Arg(1 + a e^{ib}) law",
        worst_fd < 1e-6 and worst_half < 1e-11,
        f"fd {worst_fd:.2e}, b/2 law {worst_half:.2e}",
    )


def test_criterion_06_pointwise_decomposition():
    worst = 0.0
    for alpha in (0.4, 1.0, 1.6, 2.2, 2.8):
        for x in (0.8, 1.6, 2.4, 3.2, 4.0):
            worst = max(worst, identity_report("pointwise", (alpha, x)).abs_residual)
    _report(6, "pointwise pole decomposition summed to the end", worst <= 1e-13,
            f"worst residual {worst:.1e}")


def test_criterion_07_catalan_family():
    ok = True
    detail = []
    for n in (2, 3, 4, 6):
        report = identity_report("corollary3", n)
        ok = ok and report.abs_residual <= 1e-13 and report.tail_bound <= 1e-14
        detail.append(f"n={n}:{report.abs_residual:.1e}")
    _report(7, "Catalan family summed to the end", ok, " ".join(detail))


def test_criterion_08_clausen_reduction():
    worst = 0.0
    for i in range(25):
        theta = 0.05 + i * (PI / 2.0 - 0.1) / 24.0
        worst = max(worst, abs(ti2_clausen_form(theta) - ti2(math.tan(theta))))
    _report(8, "Clausen reduction on 25 angles", worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_09_hurwitz_ei_internals():
    import numpy as np

    # S_1 against the truncated k-sum with Euler-Maclaurin tail correction.
    m = 1_000_000
    k = np.arange(1, m + 1, dtype=np.float64)
    head = 2.0 * float(np.sum(1.0 / ((k * PI) ** 2 - 1.0)))
    tail = 2.0 * (
        1.0 / (2.0 * PI) * math.log((PI * (m + 1) + 1.0) / (PI * (m + 1) - 1.0))
        + 0.5 / ((PI * (m + 1.0)) ** 2 - 1.0)
    )
    s1_ok = abs(s_r(1) - (head + tail)) < 1e-12

    s_direct_ok = True
    for r in (3, 5):
        kk = np.arange(1, 100_001, dtype=np.float64)
        direct = float(np.sum((kk * PI - 1.0) ** (-r) - (kk * PI + 1.0) ** (-r)))
        s_direct_ok = s_direct_ok and abs(s_r(r) - direct) < 1e-10

    closed, fourier = k1_closed(), _h_ei_series(1.0, 1.0).value
    quad = _h_integral(1.0, 1.0, 1e-11).value
    k1_ok = (
        abs(closed - quad) < 1e-8
        and abs(closed - fourier) < 1e-8
        and abs(quad - fourier) < 1e-8
    )
    _report(
        9,
        "S_1/S_3/S_5 and K(1) internals",
        s1_ok and s_direct_ok and k1_ok,
        f"S1 {abs(s_r(1) - (head + tail)):.1e}, K1 spread {abs(closed - quad):.1e}",
    )


def test_criterion_10_function_level_oracles():
    checks = {
        "li2(1)": abs(li2(1.0).real - PI * PI / 6.0),
        "li2(-1)": abs(li2(-1.0).real + PI * PI / 12.0),
        "Im li2(i)": abs(li2(1j).imag - catalan_reference(1e-14)),
        "clausen2(pi/2)": abs(clausen2(PI / 2.0) - catalan_reference(1e-14)),
        "zeta(2,1)": abs(hurwitz_zeta(2.0, 1.0) - PI * PI / 6.0),
        "zeta(2,1/2)": abs(hurwitz_zeta(2.0, 0.5) - PI * PI / 2.0),
    }
    for xi in (0.1, 1.0, 2.0, 10.0):
        quad = integrate_adaptive(
            lambda x: (math.exp(-xi * x) - 1.0) / x,
            0.0,
            1.0,
            1e-11,
        ).value
        expint_t = ei_negative(xi) - EULER_GAMMA - math.log(xi)
        checks[f"T({xi})"] = abs(expint_t - quad)
    worst = max(checks.values())
    _report(10, "function-level oracles", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_11_deterministic_json():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "ti2kit.cli", "verify", "all", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=300,
        )

    first, second = run(), run()
    identical = first.stdout == second.stdout and first.returncode == second.returncode == 0
    payload = json.loads(first.stdout)
    _report(
        11,
        "verify all --format json byte-identical",
        identical and all(r["pass"] for r in payload),
        f"{len(payload)} reports",
    )
