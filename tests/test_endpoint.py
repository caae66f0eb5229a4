import cmath
import math
import random

import pytest

from conftest import central_difference, identity_report
from test_kernel_reference import find_root_increasing
from ti2kit import endpoint
from ti2kit.endpoint import (
    admissibility,
    aux_closed_F,
    aux_integral_I,
    phi,
    psi,
    solve_endpoint_b,
)
from ti2kit.numerics import BudgetError, DomainError
from ti2kit.polylog import li2
from ti2kit.special import catalan_reference
from ti2kit.ti2core import ti2
from ti2kit.verify import VerificationConfig, run_identity

PI = math.pi

# Endpoints frozen from the root-solve itself, cross-checked against
# sqrt(4G + pi log 2) at a = 1 in the tests below.
B_OF_ONE = 2.4169088660957984


def _slope(a, b):
    return endpoint._phi_slope(a, b, endpoint._phi_u(a, b))


def _curve(a, b):
    return endpoint._phi_curve(a, endpoint._phi_u(a, b))


class TestAuxIntegral:
    def test_a_equal_one_closed_form(self):
        # I(1, b) = pi b/2 - b^2/4 because the integrand is (pi - beta)/2.
        res = aux_integral_I(1.0, 2.0, 1e-11)
        assert res.value == pytest.approx(PI - 1.0, abs=2e-11)
        assert res.abs_error_estimate <= 1e-11

    def test_small_a_regression(self):
        # As a -> 0 the integrand is pi/2 - beta, so I -> pi b/2 - b^2/2.
        res = aux_integral_I(1e-12, 1.0, 1e-11)
        assert res.value == pytest.approx(PI / 2.0 - 0.5, abs=1e-10)

    def test_matches_closed_form(self):
        assert aux_integral_I(2.0, 1.5, 1e-11).value == pytest.approx(
            aux_closed_F(2.0, 1.5), abs=1e-10
        )

    @pytest.mark.parametrize("b", [1e-310, 1e-318, 1e-322, 5e-324])
    def test_subnormal_width_takes_the_limit_at_zero(self, b):
        res = aux_integral_I(1.0, b)
        assert math.isfinite(res.value)
        assert abs(res.value - PI * b / 2.0) <= 1e-13

    @pytest.mark.parametrize("a", [0.5, 3.0])
    @pytest.mark.parametrize("b", [1e-300, 1e-100, 1e-8])
    def test_small_b_takes_the_least_rung(self, a, b):
        # The ellipse grows as 1/b; its bound stays finite, far below tol.
        # I = pi b/2 - (1 + k) b^2/4 + O(b^4), k = (1 - a)/(1 + a).
        res = aux_integral_I(a, b, 1e-13)
        assert res.evaluations == 20 and res.abs_error_estimate <= 1e-20
        k = (1.0 - a) / (1.0 + a)
        expected = PI * b / 2.0 - (1.0 + k) * b * b / 4.0
        assert res.value == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_b_within_an_ulp_of_pi(self, a):
        # sin(beta) > 0 for every float beta < pi: no value at pi is needed.
        b = math.nextafter(PI, 0.0)
        assert aux_integral_I(a, b).value == pytest.approx(aux_closed_F(a, b), abs=1e-10)

    # Each quadrature's result to the bit: a change to the rule, its bound
    # or the integrand shows here as a moved bit.  Both take the 20-point
    # rule, whose bound is mostly its rounding allowance.
    @pytest.mark.parametrize("a, b, expected", [
        (0.7, 2.5420684378056677, (1.960352263624714, 1.561366691018253e-14, 20)),
        (3.0, 2.4765670555140833, (3.3147894281527086, 1.3141721424622435e-14, 20)),
    ])
    def test_pinned_to_the_bit(self, a, b, expected):
        assert aux_integral_I(a, b, 1e-11) == expected

    def test_estimate_bounds_the_error_at_every_sampled_point(self):
        # The a-priori bound against 30-digit mpmath: at theorem1's points and
        # tolerance, and at seeded (a, b) off the solved endpoint at 1e-11.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(36)
        points = [(a, solve_endpoint_b(a, 1e-14).b, 1e-13)
                  for a in _seeded_admissible_a(60, seed=36) + [0.4513, 18.92]]
        points += [(math.exp(rng.uniform(math.log(0.05), math.log(20.0))),
                    rng.uniform(0.01, 3.1), 1e-11) for _ in range(100)]
        rules = 0
        with mpmath.workdps(30):
            for a, b, tol in points:
                res = aux_integral_I(a, b, tol)
                x = mpmath.mpf(a)
                ref = (mpmath.pi * b / 2 - mpmath.mpf(b) ** 2 / 2 - mpmath.polylog(2, -x)
                       + mpmath.re(mpmath.polylog(2, -x * mpmath.expj(b))))
                assert abs(res.value - ref) <= res.abs_error_estimate <= tol, (a, b)
                rules += res.evaluations in endpoint._RUNGS
        assert rules >= 150

    def test_every_admissible_a_takes_a_rung_at_theorem1s_tolerance(self):
        # A fine log grid of the admissibility window, both ends included.
        lo, hi = 0.45125, 18.924
        grid = [lo * (hi / lo) ** (i / 2000) for i in range(2001)]
        admissible = [a for a in grid if admissibility(a).admissible]
        assert admissible[0] == lo and admissible[-1] == hi and len(admissible) == 2001
        for a in admissible:
            n, bound = endpoint._gauss_legendre_rung(a, solve_endpoint_b(a, 1e-14).b, 1e-13)
            assert n in endpoint._RUNGS and bound <= 1e-13, a

    @pytest.mark.parametrize("a", [1.0 - 1e-6, 1.0 + 1e-6])
    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    def test_no_rung_next_to_the_pinch_takes_the_adaptive_rule(self, a, tol):
        # Next to a = 1 and b = pi the singularities pi -+ i|log a| pinch
        # the interval's end: no rung's bound meets tol, and integrate_adaptive
        # serves the call.
        b = math.nextafter(PI, 0.0)
        assert endpoint._gauss_legendre_rung(a, b, tol) == (0, math.inf)
        res = aux_integral_I(a, b, tol)
        assert res.evaluations not in endpoint._RUNGS
        assert abs(res.value - aux_closed_F(a, b)) <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            aux_integral_I(0.0, 1.0)
        with pytest.raises(DomainError):
            aux_integral_I(1.0, PI)
        with pytest.raises(DomainError):
            aux_integral_I(1.0, -0.1)


class TestAuxClosedF:
    def test_a_equal_one(self):
        assert aux_closed_F(1.0, 2.0) == pytest.approx(PI - 1.0, abs=1e-13)

    def test_vanishes_as_b_to_zero(self):
        for b in (1e-4, 1e-6, 1e-8):
            assert abs(aux_closed_F(0.7, b)) < 3.0 * b

    def test_quadrature_cross_check(self):
        assert aux_closed_F(0.5, 2.5) == pytest.approx(
            aux_integral_I(0.5, 2.5, 1e-11).value, abs=1e-10
        )

    def test_closed_form_equivalence_grid(self):
        worst = 0.0
        for a in (0.25, 0.5, 1.0, 2.0, 4.0):
            for b in (0.3, 1.0, 2.0, 3.0):
                diff = abs(aux_integral_I(a, b, 1e-11).value - aux_closed_F(a, b))
                worst = max(worst, diff)
        assert worst < 2e-10

    def test_da_derivative_formula(self):
        # d/da I(a,b) = log((1+a)^2 / (1 + 2a cos b + a^2)) / (2a).
        h = 1e-5
        for a, b in ((0.5, 1.0), (1.0, 2.0), (2.0, 2.5)):
            fd = (
                aux_integral_I(a + h, b, 1e-12).value
                - aux_integral_I(a - h, b, 1e-12).value
            ) / (2.0 * h)
            closed = math.log(
                (1.0 + a) ** 2 / (1.0 + 2.0 * a * math.cos(b) + a * a)
            ) / (2.0 * a)
            assert abs(fd - closed) < 1e-6


class TestPsiPhi:
    def test_psi_small_a(self):
        # psi(a) ~ a(1 - log a) -> 0 as a -> 0+.
        assert abs(psi(1e-10)) < 1e-8

    def test_psi_at_one(self, catalan_oracle):
        expected = catalan_oracle + 0.25 * PI * math.log(2.0)
        assert psi(1.0) == pytest.approx(expected, abs=1e-12)

    def test_psi_positive(self):
        for a in (0.01, 0.5, 1.0, 5.0, 20.0):
            assert psi(a) > 0.0

    def test_phi_at_zero(self):
        assert phi(0.7, 0.0) == 0.0

    def test_phi_one_is_quarter_square(self):
        for b in (0.5, 1.0, 2.0, 3.0):
            assert phi(1.0, b) == pytest.approx(b * b / 4.0, abs=1e-13)

    def test_phi_one_at_pi(self):
        assert phi(1.0, PI) == pytest.approx(PI * PI / 4.0, abs=1e-13)

    def test_phi_endpoint_formula(self):
        # phi_a(pi) = Re Li2(a) - Li2(-a); above 1, Re Li2(a) is the real part
        # of the value on the cut, which li2 refuses, so mpmath gives it.
        mpmath = pytest.importorskip("mpmath")
        for a in (0.5, 1.0, 2.0, 4.0):
            re_li2 = float(mpmath.polylog(2, a).real) if a > 1.0 else li2(a).real
            expected = re_li2 - li2(-a).real
            assert abs(phi(a, PI) - expected) < 1e-11

    def test_phi_monotone(self):
        for a in (0.3, 1.0, 3.0):
            bs = [0.01 + i * (PI - 0.02) / 30.0 for i in range(31)]
            vals = [phi(a, b) for b in bs]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    # The solve's slopes phi_a' and phi_a'', in the form a picks.
    def test_phi_derivative_is_argument(self):
        for a in (0.25, 1.0, 2.0, 1e6):
            for b in (0.4, 1.5, 2.8):
                w = a * cmath.exp(1j * b)
                slope = _slope(a, b)
                assert slope == pytest.approx(cmath.phase(1.0 + w), abs=1e-15)
                assert 0.0 < slope < PI
                assert _curve(a, b) == pytest.approx((w / (1.0 + w)).real, abs=1e-15)

    def test_phi_derivative_halves_b_at_a_one(self):
        for a in (1.0, math.nextafter(1.0, 2.0)):
            for b in (0.3, 1.0, 2.0, 3.0):
                assert _slope(a, b) == pytest.approx(b / 2.0, abs=1e-11)
                assert _curve(a, b) == pytest.approx(0.5, abs=1e-11)

    def test_phi_derivative_finite_difference(self):
        h = 1e-5
        for a in (0.5, 1.0, 2.0, 50.0):
            for b in (0.5, 1.5, 2.5):
                fd = central_difference(lambda x: phi(a, x), b, h)
                assert abs(_slope(a, b) - fd) < 1e-6
                fd2 = central_difference(lambda x: _slope(a, x), b, h)
                assert abs(_curve(a, b) - fd2) < 1e-6

    def test_positive_upper_half_plane(self):
        assert _slope(0.5, 3.0) > 0.0
        assert _slope(2.0, 3.0) > 0.0

    def test_same_values_as_the_public_li2(self):
        # psi, phi and F skip li2's argument checks and nothing else.  Above
        # a = 1 phi and F take the inversion law's form instead, which the
        # kernel error map checks against mpmath.
        rng = random.Random(17)
        for _ in range(2000):
            a = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            b = rng.uniform(1e-9, PI - 1e-9)
            assert psi(a) == li2(complex(1.0, a)).imag, a
            if a > 1.0:
                continue
            li2_minus_a = li2(complex(-a, 0.0)).real
            re_li2_w = li2(-a * cmath.exp(1j * b)).real
            assert phi(a, b) == re_li2_w - li2_minus_a, (a, b)
            assert aux_closed_F(a, b) == PI * b / 2.0 - b * b / 2.0 - li2_minus_a + re_li2_w, (a, b)


class TestAdmissibility:
    def test_a_one_admissible(self):
        res = admissibility(1.0)
        assert res.admissible
        assert res.psi < res.phi_pi
        assert res.psi == pytest.approx(1.4603621167531195, abs=1e-12)
        assert res.phi_pi == pytest.approx(PI * PI / 4.0, abs=1e-12)

    def test_degenerate_a_not_admissible(self):
        res = admissibility(1e-12)
        assert not res.admissible

    def test_small_a_fails_upper_inequality(self):
        # psi(a) ~ a(1 - log a) exceeds phi_a(pi) ~ 2a for a < 1/e.
        res = admissibility(0.1)
        assert not res.admissible
        assert res.psi > res.phi_pi

    def test_scan_finds_contiguous_window(self):
        # Empirical scan: the admissible set contains the default grid and
        # excludes both extremes (tested, not asserted equal to the full set).
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0, 10.0]
        flags = [admissibility(a).admissible for a in grid]
        assert flags == [False, False, False, False, True, True, True, True, True, True, True]
        assert not admissibility(25.0).admissible

    def test_domain(self):
        with pytest.raises(DomainError):
            admissibility(0.0)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        admissibility,
        psi,
        lambda a: phi(a, 1.0),
        solve_endpoint_b,
        lambda a: identity_report("theorem1", a),
        lambda a: aux_integral_I(a, 1.0),
        lambda a: aux_closed_F(a, 1.0),
    ],
    ids=[
        "admissibility",
        "psi",
        "phi",
        "solve_endpoint_b",
        "theorem1_identity",
        "aux_integral_I",
        "aux_closed_F",
    ],
)
def test_non_finite_a_is_a_domain_error(call, a):
    # The kernels behind these take a unchecked, so an infinite a once gave
    # aux_integral_I(inf, 1) = pi/2.
    with pytest.raises(DomainError):
        call(a)


class TestSolveEndpoint:
    def test_b_of_one(self, catalan_oracle):
        sol = solve_endpoint_b(1.0, 1e-13)
        expected = math.sqrt(4.0 * catalan_oracle + PI * math.log(2.0))
        assert sol.b == pytest.approx(expected, abs=1e-9)
        assert sol.b == pytest.approx(B_OF_ONE, abs=1e-12)
        assert sol.residual <= 1e-13
        assert 0.0 < sol.b < PI
        assert sol.iterations >= 3

    def test_residual_contract_across_grid(self):
        for a in (0.5, 0.75, 1.0, 1.5, 2.0, 5.0):
            sol = solve_endpoint_b(a, 1e-12)
            assert sol.residual <= 1e-12
            assert abs(phi(a, sol.b) - psi(a)) <= 1e-12

    def test_dual_solver_agreement(self):
        for a in (0.5, 1.0, 2.0):
            refined = solve_endpoint_b(a, 1e-12)
            bisected, _, _ = _reference_solve(a, 1e-12, False)
            assert abs(refined.b - bisected) < 1e-10

    def test_unique_sign_change_on_grid(self):
        # phi_a(b) - psi(a) crosses zero exactly once on a 100-point grid.
        for a in (0.5, 1.0, 2.0, 5.0):
            target = psi(a)
            bs = [0.01 + i * (PI - 0.02) / 99.0 for i in range(100)]
            signs = [phi(a, b) - target > 0.0 for b in bs]
            flips = sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))
            assert flips == 1

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            solve_endpoint_b(0.1)

    # (a, tol) -> (b, residual, iterations), each to the bit.
    @pytest.mark.parametrize("a, tol, expected", [
        (0.4513, 1e-12, (3.130720210205089, 0.0, 4)),
        (1.0, 1e-13, (2.4169088660957985, 0.0, 4)),
        (3.0, 1e-12, (2.4765670555140837, 4.440892098500626e-16, 4)),
        (18.92, 1e-12, (3.141500968811973, 8.881784197001252e-16, 4)),
    ])
    def test_pinned_to_the_bit(self, a, tol, expected):
        assert solve_endpoint_b(a, tol) == (a, *expected)


def _reference_solve(a, tol, use_derivative, start=None):
    # The solve through the generic finder, phi_a evaluated in full at every
    # step and once more at the returned root: bisection, or Newton steps
    # with ``use_derivative``.  -> (b, residual, phi_a values counted as the
    # solve counts them)
    target = psi(a)
    evals = 0

    def g(b):
        nonlocal evals
        evals += 1
        return phi(a, b)

    deriv = (lambda b: _slope(a, b)) if use_derivative else None
    b = find_root_increasing(g, 0.0, PI, target, tol, derivative=deriv, start=start)
    return b, abs(phi(a, b) - target), evals


def _seeded_admissible_a(n, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a = math.exp(rng.uniform(math.log(0.4515), math.log(19.0)))
        if admissibility(a).admissible:
            out.append(a)
    return out


class TestSolveCost:
    """What one solve evaluates: admissibility, Li2(-a), one Li2 per step."""

    @pytest.fixture
    def dilog_calls(self, monkeypatch):
        """A one-item list counting the dilogarithms the solve calls.

        Admissibility and the root steps call polylog's complex and real
        routes directly; endpoint has no other dilogarithm.
        """
        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)

            return wrapper

        for name in ("_li2_any", "_li2_real"):
            monkeypatch.setattr(endpoint, name, counted(getattr(endpoint, name)))
        return calls

    @pytest.mark.parametrize("a", [0.46, 0.5, 1.0, 2.0, 18.9])
    def test_dilog_calls_at_most_iterations_plus_two(self, a, dilog_calls):
        sol = solve_endpoint_b(a)
        assert 0 < dilog_calls[0] <= sol.iterations + 2, (dilog_calls[0], sol.iterations)

    def test_theorem1_point_tests_admissibility_once(self, monkeypatch):
        calls = 0
        real = endpoint.admissibility

        def counted(a):
            nonlocal calls
            calls += 1
            return real(a)

        monkeypatch.setattr(endpoint, "admissibility", counted)
        reports = run_identity("theorem1", VerificationConfig(a_grid=(1.5,)))
        assert len(reports) == 1 and reports[0].passed
        assert calls == 1

    def test_halley_solve_agrees_with_reference_solve(self):
        # The fitted start and Halley steps take another path to the same
        # root as bisection with Newton steps from pi/2.
        for a in _seeded_admissible_a(200):
            b, _, _ = _reference_solve(a, 1e-14, True)
            for tol in (1e-12, 1e-14):
                sol = solve_endpoint_b(a, tol)
                assert sol.residual <= tol, (a, tol)
                assert abs(phi(a, sol.b) - psi(a)) == sol.residual
            assert abs(sol.b - b) <= 1e-12, a

    def test_mean_iterations_over_seeded_a(self, dilog_calls):
        # The fitted start leaves two Halley steps wherever a falls: 4.0
        # evaluations here, the two bracket ends included.
        its = []
        for a in _seeded_admissible_a(600, seed=5):
            dilog_calls[0] = 0
            sol = solve_endpoint_b(a, 1e-14)
            # Admissibility's three dilogarithms, then one per interior step.
            assert dilog_calls[0] == sol.iterations + 1, a
            its.append(sol.iterations)
        assert 4 <= min(its) and max(its) <= 7
        assert sum(its) / len(its) == pytest.approx(4.0, abs=0.05)

    def test_total_iterations_over_seeded_a_are_pinned(self):
        # The exact count of phi_a evaluations at tolerance 1e-14, which
        # repeats run to run: 2 interior steps for every a.  A change to the
        # start, the Halley steps or what the solve counts shows here.
        its = [solve_endpoint_b(a, 1e-14).iterations for a in _seeded_admissible_a(1000, seed=13)]
        assert sum(its) == 4000
        assert its.count(4) == 1000

    def test_start_is_near_b_across_the_window(self):
        # Within about 3x the fit's worst distance from b(a), 8.9e-7 at
        # a = 1.147 (20001 log-spaced a), at seeded a and at a within 1e-9
        # of either end of the window, where b(a) is within 1e-4 of pi and
        # the start must still lie inside the bracket (0, pi).
        ends = [endpoint._A_MIN * (1.0 + 1e-9), endpoint._A_MAX * (1.0 - 1e-9)]
        for a in _seeded_admissible_a(300, seed=11) + ends:
            start = endpoint._start(admissibility(a))
            assert 0.0 < start < PI, a
            assert abs(start - solve_endpoint_b(a, 1e-14).b) <= 2.7e-6, a
        for a in ends:
            assert solve_endpoint_b(a, 1e-14).iterations == 3, a

    def test_bit_identical_when_solver_stops_on_unevaluated_midpoint(self, dilog_calls):
        # A tolerance no step can meet makes the solver return the midpoint
        # of its last bracket, whose phi_a the residual then evaluates: one
        # dilogarithm more than a solve that stops on an evaluated root.
        # These a end there; others stop on a step that lands on the root.
        # Which a end there turns on phi_a's last bits.
        for a in (0.46, 1.45, 5.0):
            dilog_calls[0] = 0
            sol = solve_endpoint_b(a, 1e-300)
            assert dilog_calls[0] == sol.iterations + 2, a
            assert sol.residual == abs(phi(a, sol.b) - psi(a)), a

    def test_reports_carry_solve_iterations(self):
        sol = solve_endpoint_b(1.0)
        assert identity_report("theorem1", 1.0).terms_used == sol.iterations
        (c1,) = run_identity("corollary1")
        assert c1.terms_used == solve_endpoint_b(1.0, 1e-13).iterations > 2


class TestSolveSafeguards:
    """Each fallback of the solve's Halley loop, forced by a patched kernel."""

    @pytest.mark.parametrize("start", [0.0, PI, -1.0, 4.0, math.nan])
    def test_start_outside_the_open_bracket_takes_the_midpoint(self, start, monkeypatch):
        steps = []
        phi_u = endpoint._phi_u

        def recorded(a, b):
            steps.append(b)
            return phi_u(a, b)

        monkeypatch.setattr(endpoint, "_start", lambda adm: start)
        monkeypatch.setattr(endpoint, "_phi_u", recorded)
        sol = solve_endpoint_b(2.0, 1e-14)
        assert steps[0] == PI / 2.0
        assert sol.residual <= 1e-14

    @pytest.mark.parametrize("curve", [math.nan, math.inf, -math.inf])
    def test_halley_divisor_outside_zero_to_inf_takes_newtons_step(self, curve, monkeypatch):
        halley = [tuple(solve_endpoint_b(a, 1e-14)) for a in (0.5, 2.0, 5.0)]
        monkeypatch.setattr(endpoint, "_phi_curve", lambda a, u: curve)
        for a, unpatched in zip((0.5, 2.0, 5.0), halley):
            sol = solve_endpoint_b(a, 1e-14)
            start = endpoint._start(admissibility(a))
            assert tuple(sol)[1:] == _reference_solve(a, 1e-14, True, start), a
            assert sol != unpatched, a

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.nan, math.inf])
    def test_slope_outside_zero_to_inf_bisects(self, slope, monkeypatch):
        monkeypatch.setattr(endpoint, "_phi_slope", lambda a, b, u: slope)
        for a in (0.5, 2.0, 5.0):
            sol = solve_endpoint_b(a, 1e-14)
            start = endpoint._start(admissibility(a))
            assert tuple(sol)[1:] == _reference_solve(a, 1e-14, False, start), a
            assert sol.iterations > 30, a

    def test_step_budget_is_200(self, monkeypatch):
        # phi_a held 1 below psi with slope 1000 moves b up by 1e-3 a step,
        # so after 200 steps the bracket [b, pi] is still half a unit wide.
        target = psi(1.0)
        steps = []

        def below(a, c, b, u):
            steps.append(b)
            return target - 1.0

        monkeypatch.setattr(endpoint, "_phi_snapped", below)
        monkeypatch.setattr(endpoint, "_phi_slope", lambda a, b, u: 1000.0)
        with pytest.raises(BudgetError) as err:
            solve_endpoint_b(1.0, 1e-14)
        assert len(steps) == 200
        assert steps[-1] < 2.7
        assert err.value.best == 0.5 * (steps[-1] + PI)


class TestTheorem1Identity:
    def test_at_one(self):
        report = identity_report("theorem1", 1.0)
        assert report.passed
        assert report.abs_residual < 1e-9
        assert report.method_rhs == "quadrature+root-solve"

    def test_structure_at_one(self):
        # log(1) = 0, so the RHS reduces to I(1,b) - pi b/2 + b^2/2 - (pi/4) log 2.
        sol = solve_endpoint_b(1.0, 1e-13)
        quad = aux_integral_I(1.0, sol.b, 1e-11).value
        rhs = quad - PI * sol.b / 2.0 + sol.b ** 2 / 2.0 - 0.25 * PI * math.log(2.0)
        assert rhs == pytest.approx(ti2(1.0), abs=1e-10)

    def test_grid(self):
        for a in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
            report = identity_report("theorem1", a)
            assert report.abs_residual < 1e-8, f"a={a}: {report.abs_residual}"


class TestCatalanViaEndpoint:
    def test_against_reference(self):
        # corollary1's rhs, b(1)^2/4 - (pi/4) log 2 with b(1) solved to 1e-13.
        (c1,) = run_identity("corollary1")
        assert abs(c1.rhs - catalan_reference(1e-14)) < 1e-10

    def test_intermediate_b_squared(self, catalan_oracle):
        sol = solve_endpoint_b(1.0, 1e-13)
        assert sol.b ** 2 == pytest.approx(
            4.0 * catalan_oracle + PI * math.log(2.0), abs=1e-9
        )

    def test_psi_one_strict_bounds(self):
        p = psi(1.0)
        assert 0.0 < p < PI * PI / 4.0
