import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernel_reference import find_root_increasing
from ti2kit import decomp, numerics
from ti2kit.numerics import (
    BudgetError,
    DomainError,
    QuadratureResult,
    SeriesResult,
    integrate_adaptive,
)

PI = math.pi


class TestGK21Rule:
    """QUADPACK's 21-point Kronrod rule and its embedded 10-point Gauss rule."""

    @staticmethod
    def _moment(d):
        # (Kronrod, Gauss) sums of x^d over [-1, 1]; the centre is Kronrod-only.
        kronrod = numerics._WGK[10] * (1.0 if d == 0 else 0.0)
        gauss = 0.0
        for j in range(10):
            pair = numerics._XGK[j] ** d + (-numerics._XGK[j]) ** d
            kronrod += numerics._WGK[j] * pair
            if j % 2 == 1:
                gauss += numerics._WG[j // 2] * pair
        return kronrod, gauss

    def test_kronrod_exact_to_degree_31(self):
        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(self._moment(d)[0] - exact) <= 1e-15, d

    def test_gauss_exact_to_degree_19_and_not_20(self):
        for d in range(20):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(self._moment(d)[1] - exact) <= 1e-15, d
        assert abs(self._moment(20)[1] - 2.0 / 21.0) > 1e-7

    def test_gauss_nodes_and_weights_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for j in range(5):
                x = numerics._XGK[2 * j + 1]
                root = mpmath.findroot(lambda t: mpmath.legendre(10, t), x)
                slope = mpmath.diff(lambda t: mpmath.legendre(10, t), root)
                weight = 2 / ((1 - root**2) * slope**2)
                assert abs(x - root) <= 1e-16, j
                assert abs(numerics._WG[j] - weight) <= 1e-16, j


class TestIntegrateAdaptive:
    def test_constant(self):
        res = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 21

    def test_error_estimate_is_never_negative_over_seeded_h_quadratures(self):
        # H's integrand, as h_series integrates it below A = 3.  The running
        # total of the panels' estimates cancelled below zero at 342 of these
        # 3000 before it was summed afresh at the end.
        rng = random.Random(37)
        for i in range(3000):
            A = math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
            if i % 2:
                alpha = rng.uniform(0.01, PI - 0.01)
            else:
                alpha = math.exp(rng.uniform(math.log(1e-9), 0.0))
            est = decomp._h_integral(A, alpha, 1e-13).abs_error_estimate
            assert 0.0 <= est <= 1e-13, (A, alpha, est)

    def test_linear(self):
        res = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-13)

    def test_arctan_kernel_with_endpoint_limits(self):
        # Removable singularity at 0, where no Kronrod node falls.
        f = lambda b: math.atan((1.0 + math.cos(b)) / math.sin(b))
        res = integrate_adaptive(f, 0.0, 2.0, 1e-11)
        assert res.value == pytest.approx(PI - 1.0, abs=2e-11)
        assert res.abs_error_estimate <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        c=st.floats(-5, 5),
        lo=st.floats(-10, 9),
        width=st.floats(0.1, 10),
    )
    def test_quadratic_exactness(self, a, b, c, lo, width):
        hi = min(lo + width, 10.0)
        if hi <= lo:
            return
        exact = (
            a * (hi ** 3 - lo ** 3) / 3.0
            + b * (hi ** 2 - lo ** 2) / 2.0
            + c * (hi - lo)
        )
        res = integrate_adaptive(lambda x: (a * x + b) * x + c, lo, hi, 1e-10)
        assert abs(res.value - exact) < 1e-12 * (1.0 + abs(exact))

    def test_additivity(self):
        f = lambda x: math.exp(math.sin(3.0 * x)) + x * x
        r_ab = integrate_adaptive(f, 0.0, 0.7, 1e-12)
        r_bc = integrate_adaptive(f, 0.7, 1.9, 1e-12)
        r_ac = integrate_adaptive(f, 0.0, 1.9, 1e-12)
        budget = (
            r_ab.abs_error_estimate + r_bc.abs_error_estimate + r_ac.abs_error_estimate
        )
        assert abs(r_ab.value + r_bc.value - r_ac.value) <= budget + 1e-13

    def test_integrand_never_called_at_endpoints(self):
        calls = []

        def f(x):
            calls.append(x)
            assert x != 0.0 and x != 1.0
            return math.sin(x) / x

        res = integrate_adaptive(f, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.9460830703671830, abs=1e-12)
        assert len(calls) == res.evaluations

    def test_evaluations_count_the_integrand_calls(self):
        for f, tol in ((math.exp, 1e-12), (lambda x: math.sin(50.0 / (x + 0.01)), 1e-9)):
            calls = []

            def counted(x):
                calls.append(x)
                return f(x)

            res = integrate_adaptive(counted, 0.0, 1.0, tol)
            assert res.evaluations == len(calls)
            assert res.evaluations % 42 == 21  # 21 * (1 + 2 * splits)
        assert res.evaluations > 1000  # the oscillating integrand split many times

    def test_budget_error_counts_the_integrand_calls(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 3)
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(50.0 / (x + 0.01))

        with pytest.raises(BudgetError) as err:
            integrate_adaptive(f, 0.0, 1.0, 1e-14)
        assert err.value.best.evaluations == len(calls) == 21 * 7

    def test_endpoint_limit_keywords_are_gone(self):
        # One path: integrands own their endpoint values, nothing is declared.
        params = list(inspect.signature(integrate_adaptive).parameters)
        assert params == ["f", "lo", "hi", "tol"]
        for end in ("lo", "hi"):
            with pytest.raises(TypeError):
                integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-12, **{f"limit_{end}": 1.0})

    def test_nan_raises_domain_error(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: float("nan"), 0.0, 1.0, 1e-10)

    def test_nan_at_one_node_raises_domain_error(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: float("nan") if x > 0.99 else x, 0.0, 1.0, 1e-10)

    def test_budget_error_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 3)
        f = lambda x: math.sin(50.0 / (x + 0.01))
        with pytest.raises(BudgetError) as err:
            integrate_adaptive(f, 0.0, 1.0, 1e-14)
        best = err.value.best
        assert isinstance(best, QuadratureResult)
        assert best.abs_error_estimate > 1e-14

    def test_bad_bounds_and_tolerance(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, 0.0)


class TestFindRootIncreasing:
    """The endpoint solve's bitwise reference, kept in test_kernel_reference.

    Its start rule, Halley steps with their Newton fallback and step budget
    are the solve's.
    """

    def test_halley_steps_from_a_start(self):
        calls = []

        def g(x):
            calls.append(x)
            return x * math.exp(x)

        dg = lambda x: (1.0 + x) * math.exp(x)
        d2g = lambda x: (2.0 + x) * math.exp(x)
        newton = find_root_increasing(g, 0.0, 2.0, 3.0, 1e-14, derivative=dg)
        n_newton = len(calls)
        calls.clear()
        halley = find_root_increasing(
            g, 0.0, 2.0, 3.0, 1e-14, derivative=dg, second_derivative=d2g, start=1.2
        )
        assert abs(halley * math.exp(halley) - 3.0) <= 1e-14
        assert abs(halley - newton) < 1e-14
        assert calls[2] == 1.2
        assert len(calls) < n_newton

    @pytest.mark.parametrize("start", [None, 0.0, 2.0, -1.0, math.nan])
    def test_start_missing_or_outside_the_open_bracket_takes_the_midpoint(self, start):
        calls = []

        def g(x):
            calls.append(x)
            return x * x * x + x

        find_root_increasing(g, 0.0, 2.0, 3.0, 1e-13, start=start)
        assert calls[2] == 1.0

    @pytest.mark.parametrize("d2", [math.nan, math.inf, -math.inf])
    def test_halley_divisor_outside_zero_to_inf_falls_back_to_newton(self, d2):
        # 1 - step g''/(2 g') is NaN or infinite at every step.
        g = lambda x: x * math.exp(x)
        dg = lambda x: (1.0 + x) * math.exp(x)
        newton = find_root_increasing(g, 0.0, 2.0, 3.0, 1e-13, derivative=dg)
        fallback = find_root_increasing(
            g, 0.0, 2.0, 3.0, 1e-13, derivative=dg, second_derivative=lambda x: d2
        )
        assert fallback == newton

    def test_step_budget_is_200(self):
        # Bisecting [0, 1e300] toward 1.5 leaves a bracket 6e239 wide after
        # 200 steps, far above the 1e-14 floor.
        calls = []

        def g(x):
            calls.append(x)
            return x

        with pytest.raises(BudgetError) as err:
            find_root_increasing(g, 0.0, 1e300, 1.5, 1e-300)
        assert len(calls) == 2 + 200
        assert 0.0 < err.value.best < 1e300


def test_series_result_fields():
    # A sum's value, its term count and the bound on its omitted tail.
    assert SeriesResult._fields == ("value", "terms_used", "tail_bound")
