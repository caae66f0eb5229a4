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

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_b_within_an_ulp_of_pi(self, a):
        # sin(beta) > 0 for every float beta < pi: no value at pi is needed.
        b = math.nextafter(PI, 0.0)
        assert aux_integral_I(a, b).value == pytest.approx(aux_closed_F(a, b), abs=1e-10)

    # Each quadrature's result to the bit: a change to the panel, the
    # subdivision or the integrand shows here as a moved bit.
    @pytest.mark.parametrize("a, b, expected", [
        (0.7, 2.5420684378056677, (1.960352263624714, 8.017405648927388e-18, 63)),
        (3.0, 2.4765670555140833, (3.314789428152709, 1.8703278248502278e-14, 21)),
    ])
    def test_pinned_to_the_bit(self, a, b, expected):
        assert aux_integral_I(a, b, 1e-11) == expected

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
        (0.4513, 1e-12, (3.1307202101906695, 1.290079154614432e-13, 5)),
        (1.0, 1e-13, (2.416908866095799, 4.440892098500626e-16, 3)),
        (3.0, 1e-12, (2.4765670555140833, 4.440892098500626e-16, 5)),
        (18.92, 1e-12, (3.1415009688119735, 8.881784197001252e-16, 4)),
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
        # The Hermite start and Halley steps take another path to the same
        # root as bisection with Newton steps from pi/2.
        for a in _seeded_admissible_a(200):
            b, _, _ = _reference_solve(a, 1e-14, True)
            for tol in (1e-12, 1e-14):
                sol = solve_endpoint_b(a, tol)
                assert sol.residual <= tol, (a, tol)
                assert abs(phi(a, sol.b) - psi(a)) == sol.residual
            assert abs(sol.b - b) <= 1e-12, a

    def test_mean_iterations_over_seeded_a(self, dilog_calls):
        # The Hermite start leaves about three Halley steps: 5.117 (4-6)
        # here.  From pi/2 with Newton steps the mean at tolerance 1e-12 was
        # 8.0 (7-11).
        its = []
        for a in _seeded_admissible_a(600, seed=5):
            dilog_calls[0] = 0
            sol = solve_endpoint_b(a, 1e-14)
            # Admissibility's three dilogarithms, then one per interior step.
            assert dilog_calls[0] == sol.iterations + 1, a
            its.append(sol.iterations)
        assert 4 <= min(its) and max(its) <= 7
        assert sum(its) / len(its) == pytest.approx(5.117, abs=0.05)

    def test_total_iterations_over_seeded_a_are_pinned(self):
        # The exact count of phi_a evaluations at tolerance 1e-14, which
        # repeats run to run: 3.125 interior steps a solve on average (4 for
        # most a < 1.1, 3 on [2, 5), 2-3 from 5 on).  A change to the
        # Hermite start, the Halley steps or what the solve counts shows here.
        # Above a = 1 phi_a takes the inversion law's form, whose last bits
        # differ from the old form's.  That moved five solves near a = 8.9 and
        # 11.4 whose residual sits at the tolerance (4.4e-16 or 9.8e-15 on
        # one side or the other): two took one step fewer, three one more
        # (5125 before, 166/543/291).
        its = [solve_endpoint_b(a, 1e-14).iterations for a in _seeded_admissible_a(1000, seed=13)]
        assert sum(its) == 5126
        assert (its.count(4), its.count(5), its.count(6)) == (165, 544, 291)

    def test_hermite_start_is_exact_at_one(self):
        # phi_1(b) = b^2/4 is its own cubic Hermite interpolant.
        start = endpoint._hermite_start(admissibility(1.0))
        assert start == pytest.approx(B_OF_ONE, abs=1e-15)
        assert solve_endpoint_b(1.0, 1e-14).iterations == 3

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

        monkeypatch.setattr(endpoint, "_hermite_start", lambda adm: start)
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
            start = endpoint._hermite_start(admissibility(a))
            assert tuple(sol)[1:] == _reference_solve(a, 1e-14, True, start), a
            assert sol != unpatched, a

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.nan, math.inf])
    def test_slope_outside_zero_to_inf_bisects(self, slope, monkeypatch):
        monkeypatch.setattr(endpoint, "_phi_slope", lambda a, b, u: slope)
        for a in (0.5, 2.0, 5.0):
            sol = solve_endpoint_b(a, 1e-14)
            start = endpoint._hermite_start(admissibility(a))
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
