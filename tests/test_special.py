import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import central_difference
from test_kernel_error_map import KEPT_IDS, ROWS, check, kept_test
from ti2kit.numerics import DomainError, integrate_adaptive
from ti2kit.polylog import _BERNOULLI, clausen2
from ti2kit.special import (
    _DIGAMMA_BERN,
    _EM_BERN,
    _STIRLING,
    EULER_GAMMA,
    catalan_reference,
    cot_partial_fraction_sum,
    digamma_gap,
    ei_negative,
    hurwitz_zeta,
    _sine_log_sum,
    _zeta_rungs,
    log_gamma,
    loggamma_im_gap,
)

PI = math.pi


def test_bernoulli_coefficients_match_fractions():
    # B_{2j} / k, rounded once from the exact fraction, for the
    # Euler-Maclaurin (k = (2j)!), digamma (2j) and Stirling (2j (2j-1)) tables.
    tables = (
        (_EM_BERN, 6, lambda j: math.factorial(2 * j)),
        (_DIGAMMA_BERN, 7, lambda j: 2 * j),
        (_STIRLING, 8, lambda j: 2 * j * (2 * j - 1)),
    )
    for table, length, k in tables:
        assert len(table) == length
        for j, coeff in enumerate(table, start=1):
            assert coeff == float(Fraction(*_BERNOULLI[2 * j]) / k(j)), j
    assert _EM_BERN[5] == -691.0 / 1307674368000.0
    assert _STIRLING[7] == -3617.0 / 122400.0


def hurwitz_direct_oracle(s: float, c: float, n_terms: int = 100_000) -> float:
    """Direct summation plus the integral tail (k+c)^{1-s}/(s-1)."""
    k = np.arange(n_terms, dtype=np.float64)
    head = float(np.sum((k + c) ** (-s)))
    return head + (n_terms + c) ** (1.0 - s) / (s - 1.0)


class TestHurwitzZeta:
    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(PI * PI / 6.0, rel=1e-13, abs=0.0)

    def test_half_offset_gives_odd_squares(self):
        # zeta(2, 1/2) = 4 * sum over odd squares = pi^2/2.
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(PI * PI / 2.0, rel=1e-13, abs=0.0)

    def test_apery(self):
        # Direct-summation oracle pins zeta(3).
        oracle = hurwitz_direct_oracle(3.0, 1.0)
        got = hurwitz_zeta(3.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(1.2020569031595943, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("c", [0.3, 0.68, 1.0, 1.32])
    def test_against_direct_summation(self, s, c):
        assert abs(hurwitz_zeta(s, c) - hurwitz_direct_oracle(s, c)) < 1e-10

    @pytest.mark.parametrize("s", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("c", [0.3, 0.68, 1.0, 1.32])
    def test_recursion(self, s, c):
        lhs = hurwitz_zeta(s, c) - hurwitz_zeta(s, c + 1.0)
        assert lhs == pytest.approx(c ** (-s), rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0)
        # inf once died in math.ceil with an OverflowError.
        for s, c in ((math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan)):
            with pytest.raises(DomainError):
                hurwitz_zeta(s, c)

    def test_value_past_the_float_range_is_a_domain_error(self):
        # zeta(s, c) > c^{-s}, which passes the float range for c < 1 and
        # large s; (k + c)^{-s} once raised a bare OverflowError there.
        rng = random.Random(11)
        overflowed = 0
        for _ in range(3000):
            s = math.exp(rng.uniform(math.log(1.01), math.log(1e17)))
            c = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            try:
                value = hurwitz_zeta(s, c)
            except DomainError:
                overflowed += 1
                assert -s * math.log(c) > math.log(sys.float_info.max) - 1e-9, (s, c)
            else:
                assert 0.0 <= value < math.inf, (s, c)
        assert 0 < overflowed < 3000

    @pytest.mark.parametrize("s", [1e18, 4.5e307, 1e308, sys.float_info.max])
    def test_huge_order_sums_its_first_term(self, s):
        # (1e17 F)^(1/s) rounds to 1 from s = 3.6e17, which once stopped the
        # direct sum before its first term and returned 0; 2s overflowed
        # from 8.99e307.
        assert hurwitz_zeta(s, 1.0) == 1.0

    @pytest.mark.parametrize(
        "s, c", [(1e300, sys.float_info.max), (sys.float_info.max, sys.float_info.max), (1e30, 1e31)]
    )
    def test_tail_past_the_underflow_is_zero(self, s, c):
        # x^{-s-1} underflows to 0 while (s)_{2j-1} overflows to inf; the
        # product was nan.  zeta(s, c) < c^{-s} (1 + c/(s - 1)) underflows.
        assert hurwitz_zeta(s, c) == 0.0


class TestOddZetaRungs:
    """x^r zeta(r, c) at a run of odd r in one pass."""

    def test_rungs_past_the_float_range_underflow_to_zero(self):
        # (x/c)^r underflows from r of about 1000 at x/c = 0.47; nothing
        # overflows, at any r.
        for r0 in (1001, 2001, 4001, 9007199254740991.0):
            assert _zeta_rungs(1.0 / PI, 1.0 - 1.0 / PI, r0, 3) == [0.0, 0.0, 0.0]


class TestAgainstMpmath:
    """Differential tests against mpmath that check more than an error bound."""

    @pytest.fixture(autouse=True)
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(150):
            yield mpmath

    def test_hurwitz_zeta_huge_order_or_offset(self, mp):
        # s log-uniform up to 1e27 and c up to 1e300, the region where the
        # Euler-Maclaurin tail's x^{-s-1} underflows.  Half the offsets keep
        # s log c below 740, so that zeta(s, c) stays in the float range.
        # zeta(s, c) < c^{-s} (1 + c/(s - 1)): where that bound is below half
        # the least subnormal the value is 0.0, and mpmath is not asked.  The
        # rest take 200 digits more than the s log10(c) that mpmath loses (at
        # 220 in all, its zeta(64.4, 12217) is off by 2.8e-13 relative), and
        # subnormal values are held to their spacing.
        rng = random.Random(73)
        checked = zeros = 0
        for _ in range(200):
            s = math.exp(rng.uniform(math.log(60.0), math.log(1e27)))
            if rng.random() < 0.5:
                c = math.exp(rng.uniform(0.0, math.log(1e300)))
            else:
                c = math.exp(rng.uniform(0.0, 740.0 / s))
            got = hurwitz_zeta(s, c)
            if -s * math.log(c) + math.log1p(c / (s - 1.0)) < math.log(5e-324) - math.log(2.0):
                zeros += 1
                assert got == 0.0, (s, c)
                continue
            with mp.workdps(200 + math.ceil(s * math.log10(c))):
                ref = mp.zeta(s, c)
            assert abs(got - ref) <= 1e-15 * ref + 1e-323, (s, c)
            checked += 1
        assert checked > 60 and zeros > 60

    @pytest.mark.parametrize("s, c", ROWS["hurwitz_zeta_c_to_the_minus_s_underflows"].points())
    def test_hurwitz_zeta_where_c_to_the_minus_s_underflows(self, s, c):
        check("hurwitz_zeta_c_to_the_minus_s_underflows", points=[(s, c)])


class TestHurwitzCost:
    def test_large_offset_is_cheap(self):
        # Euler-Maclaurin needs no shift at large c; the old 16*ceil(c) + 32
        # direct terms took tens of ms at c = 1e4.
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            hurwitz_zeta(3.0, 1e6)
            best = min(best, time.perf_counter() - t0)
        assert best < 2e-4

    def test_large_order_small_offset_is_cheap(self):
        # Lemma 1's zeta(41, 1 - 1/pi) stops its direct sum after 2 terms;
        # summing the 112 terms ahead of the Euler-Maclaurin tail took ~12 us.
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(100):
                hurwitz_zeta(41.0, 1.0 - 1.0 / PI)
            best = min(best, (time.perf_counter() - t0) / 100)
        assert best < 5e-6


class TestDigamma:
    def test_recursion(self):
        # psi(x + 1) - psi(x) = 1/x is the gap at h = 1/2 about x + 1/2.
        for x in (12.0, 12.5, 40.0, 1e3, 1e8):
            assert digamma_gap(x + 0.5, 0.5) == pytest.approx(1.0 / x, rel=1e-15, abs=0.0)

    def test_twice_h_past_the_float_range(self):
        # 2h overflowed: nan at x = inf, inf for finite x - h.
        big = sys.float_info.max
        assert digamma_gap(math.inf, big) == 0.0
        # psi(x + h) - psi(x - h) -> log((x + h)/(x - h)) = log 7 here.
        assert digamma_gap(big, 0.75 * big) == pytest.approx(math.log(7.0), rel=1e-15, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_gap(12.5, 1.0)
        with pytest.raises(DomainError):
            digamma_gap(30.0, -0.1)


class TestLoggammaImGap:
    def test_recursion(self):
        # log Gamma(z+1) - log Gamma(z) = log z moves the pair by arg(x +- h + iy).
        for x, y, h in ((20.5, 0.3, 0.2), (50.0, 40.0, 0.9), (13.0, 1e4, 0.5)):
            step = loggamma_im_gap(x + 1.0, y, h) - loggamma_im_gap(x, y, h)
            assert step == pytest.approx(
                math.atan2(y, x + h) - math.atan2(y, x - h), abs=1e-15
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            loggamma_im_gap(12.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            loggamma_im_gap(30.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "x, y", [(math.inf, 1.0), (21.0, math.inf), (21.0, -math.inf), (21.0, math.nan)]
    )
    def test_non_finite_is_a_domain_error(self, x, y):
        with pytest.raises(DomainError):
            loggamma_im_gap(x, y, 0.5)

    # Values from 700-digit mpmath loggamma.
    def test_twice_h_past_the_float_range(self):
        big = sys.float_info.max
        got = loggamma_im_gap(big, 1.0, big / 1.5)
        assert got == pytest.approx(1.6094379124341005, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "y, want", [(sys.float_info.max, 1.5707963267948966e300), (1e300, 1.1125369292536008e292)]
    )
    def test_x_plus_h_past_the_float_range(self, y, want):
        got = loggamma_im_gap(sys.float_info.max, y, 1e300)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "x, y, h, want",
        [
            # Im(2h/w) underflows while h y/|w| does not: its lg terms once
            # lost their cancelling half and came out twice the true value.
            (1e300, 1.0, 1e200, 1.9999999999999998e-100),
            (1e250, 1e-3, 1e100, 2.0000000000000003e-153),
            (1e300, 1e-10, 1e200, 1.9999999999999998e-110),
            (1.7012568681567116e308, -86980232314697.67, 2.121416107599892e241,
             -2.1692346326878493e-53),
            # atan2(y, x + h) is subnormal while 2h atan2(y, x + h) is not,
            # and then Im log1p(2h/w) too, while Im(2h/w) is not.
            (2.0**90 + 2.0**40, 1e-290, 2.0**90, 3.535050620855767e-289),
            (2.0**90 + 2.0**40, 1e-300, 2.0**90, 3.535050620855767e-299),
        ],
    )
    def test_underflowing_quotients(self, x, y, h, want):
        assert loggamma_im_gap(x, y, h) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestEiNegative:
    def test_at_one(self):
        # Series oracle gamma + log x + sum (-x)^n/(n n!), summed here inline.
        x = 1.0
        acc, term = 0.0, 1.0
        for n in range(1, 60):
            term *= -x / n
            acc += term / n
        oracle = EULER_GAMMA + math.log(x) + acc
        assert ei_negative(1.0) == pytest.approx(oracle, abs=1e-15)
        assert ei_negative(1.0) == pytest.approx(-0.21938393439552027, abs=1e-14)

    def test_at_two(self):
        assert ei_negative(2.0) == pytest.approx(-0.048900510708061120, abs=1e-14)

    def test_asymptotic_bound_far_out(self):
        v = ei_negative(50.0)
        assert v < 0.0
        assert abs(v) <= math.exp(-50.0) / 50.0

    def test_always_negative_and_bounded(self):
        for x in (0.1, 0.5, 1.0, 3.0, 6.0, 6.5, 10.0, 25.0):
            v = ei_negative(x)
            assert v < 0.0
            assert abs(v) <= math.exp(-x) / x

    def test_series_cf_overlap(self):
        # The two regimes must agree on both sides of the switchover; on
        # [1, 2] they agree within 1.9e-14 relative (2001 evenly spaced x).
        from ti2kit.special import _EI_SERIES_CUTOFF, _e1_lentz_cf, _ei_series_sum

        for d in (-0.5, -0.25, 0.0, 0.25, 0.5):
            x = _EI_SERIES_CUTOFF + d
            series = EULER_GAMMA + math.log(x) + _ei_series_sum(x)
            cf = -math.exp(-x) / _e1_lentz_cf(x)
            assert abs(series - cf) <= 4e-14 * abs(cf), x

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-8, 0.5, 1.5, 745.0, 1e300, sys.float_info.max])
    def test_continued_fraction_never_divides_by_zero(self, x):
        # The Lentz loop has no zero guards: for x > 0 every divisor stays
        # above n + 1, so the fraction is finite and positive from the least
        # subnormal up to the largest float.
        from ti2kit.special import _e1_lentz_cf

        cf = _e1_lentz_cf(x)
        assert 0.0 < cf < math.inf
        assert cf <= x + 1.0

    def test_underflows_to_negative_zero(self):
        v = ei_negative(800.0)
        assert v == 0.0 and math.copysign(1.0, v) == -1.0

    def test_derivative_consistency(self):
        # d/dx Ei(-x) = e^{-x}/x (negative, increasing toward zero).
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = central_difference(ei_negative, x, 1e-6)
            assert abs(fd - math.exp(-x) / x) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            ei_negative(0.0)
        with pytest.raises(DomainError):
            ei_negative(-1.0)

    @pytest.mark.parametrize("x", [746.0, 1e300, math.inf])
    def test_underflows_to_negative_zero_far_out(self, x):
        # The docstring's -0.0; at inf the continued fraction gave nan.
        assert math.copysign(1.0, ei_negative(x)) == -1.0 and ei_negative(x) == 0.0


def expint_t(xi: float) -> float:
    """T(xi) = Ei(-xi) - gamma - log(xi) = integral_0^1 (e^{-xi x} - 1)/x dx."""
    return ei_negative(xi) - EULER_GAMMA - math.log(xi)


class TestExpintT:
    def test_vanishes_at_origin(self):
        assert abs(expint_t(1e-12)) < 1e-11

    def test_at_two(self):
        assert expint_t(2.0) == pytest.approx(-1.3192633561695393, abs=1e-13)

    @pytest.mark.parametrize("xi", [0.1, 1.0, 2.0, 10.0])
    def test_against_quadrature(self, xi):
        quad = integrate_adaptive(
            lambda x: (math.exp(-xi * x) - 1.0) / x,
            0.0,
            1.0,
            1e-11,
        ).value
        assert abs(expint_t(xi) - quad) < 1e-10

    def test_negative_for_positive_argument(self):
        for xi in (1e-6, 0.1, 1.0, 7.0, 40.0):
            assert expint_t(xi) < 0.0


class TestCotPartialFractionSum:
    def test_at_one_against_truncated_sum(self):
        # 1e6-term direct oracle plus Euler-Maclaurin tail correction.
        k = np.arange(1, 1_000_001, dtype=np.float64)
        head = float(np.sum(1.0 / ((k * PI) ** 2 - 1.0)))
        m = 1_000_000
        f = lambda x: 1.0 / ((x * PI) ** 2 - 1.0)
        tail = (
            1.0 / (2.0 * PI) * math.log((PI * (m + 1) + 1.0) / (PI * (m + 1) - 1.0))
            + 0.5 * f(m + 1.0)
        )
        oracle = head + tail
        got = cot_partial_fraction_sum(1.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.17895369203283465, abs=1e-14)

    def test_even_in_b(self):
        for b in (0.7, 1.3, 2.9):
            assert cot_partial_fraction_sum(b) == cot_partial_fraction_sum(-b)

    def test_at_half_pi(self):
        want = 2.0 / (PI * PI)
        assert cot_partial_fraction_sum(PI / 2.0) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_pole_rejection(self):
        for b in (0.0, PI, -2.0 * PI, PI + 1e-11):
            with pytest.raises(DomainError, match="pole"):
                cot_partial_fraction_sum(b)

    def test_poles_against_mpmath(self):
        # b log-uniform in [1e-3, 1e300], either sign.  A pole is |sin b| <
        # 1e-10, taken at log10(b) + 40 digits; off the poles the value is
        # held to 4e-16 of its two terms' size, 1/(2 b^2) + |cot b|/(2 b),
        # since it vanishes between poles.  b - PI round(b/PI) once called
        # b = 3.2e14 and most b past 1e20 poles.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(41)
        for _ in range(1500):
            b = math.exp(rng.uniform(math.log(1e-3), math.log(1e300)))
            b = math.copysign(b, rng.random() - 0.5)
            with mpmath.workdps(int(math.log10(abs(b))) + 40):
                sin_b = mpmath.sin(b)
                size = 1 / (2 * mpmath.mpf(b) ** 2) + abs(mpmath.cos(b) / sin_b) / (2 * abs(b))
                want = 1 / (2 * mpmath.mpf(b) ** 2) - mpmath.cos(b) / (2 * b * sin_b)
            if abs(sin_b) < 1e-10:
                with pytest.raises(DomainError, match="pole"):
                    cot_partial_fraction_sum(b)
            else:
                assert abs(cot_partial_fraction_sum(b) - want) <= 4e-16 * size, b

    def test_small_b_against_mpmath(self):
        # 1e-9 <= |b| < 3/2, the Taylor series' range, where 1/(2 b^2) -
        # cot(b)/(2 b) cancels: to about 1/6 next to 0, where it gave 0.0 at
        # b = 1e-8 and 1.4e-10 relative at 1.1e-3, and 1.5e-15 at b = 0.559.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(43)
        bs = [1e-9, 1e-8, 1e-6, 1.1e-3, 0.5, 0.559, 1.4999999999999998]
        bs += [math.exp(rng.uniform(math.log(1e-9), math.log(1.5))) for _ in range(1500)]
        for b in bs:
            with mpmath.workdps(60):
                want = 1 / (2 * mpmath.mpf(b) ** 2) - mpmath.cot(b) / (2 * b)
            got = cot_partial_fraction_sum(b)
            assert abs(got - want) <= 4e-16 * want, b
            assert got == cot_partial_fraction_sum(-b)

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_a_domain_error(self, b):
        # round(b / pi) raised a bare OverflowError at +-inf, ValueError at nan.
        with pytest.raises(DomainError):
            cot_partial_fraction_sum(b)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half_via_reflection(self):
        # Gamma(1/2)^2 = pi.
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(PI), abs=1e-13)

    def test_recursion(self):
        for x in (0.2, 1.0 / PI, 0.9, 2.3, 7.7):
            assert log_gamma(x + 1.0) == pytest.approx(
                log_gamma(x) + math.log(x), abs=1e-12
            )

    def test_reflection_grid(self):
        for i in range(1, 20):
            x = i / 20.0
            lhs = log_gamma(x) + log_gamma(1.0 - x)
            assert lhs == pytest.approx(math.log(PI / math.sin(PI * x)), abs=1e-11)

    def test_at_inverse_pi(self):
        # Independent route: the reflection formula pins
        # logGamma(1/pi) + logGamma(1 - 1/pi) = log(pi / sin 1).
        x = 1.0 / PI
        got = log_gamma(x)
        assert got + log_gamma(1.0 - x) == pytest.approx(
            math.log(PI / math.sin(1.0)), abs=1e-12
        )
        assert got == pytest.approx(1.0336461257655827, abs=1e-12)

    def test_factorials(self):
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14, abs=0.0)
        assert log_gamma(13.0) == pytest.approx(math.log(479001600.0), rel=1e-14, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-0.5)
        with pytest.raises(DomainError):
            log_gamma(math.inf)  # the Stirling lead was inf - inf = nan

    def test_overflow_is_a_domain_error(self):
        # log Gamma(x) passes the float range at x = 2.556348163871691e305;
        # it returned inf there and at the largest float.
        limit = 2.556348163871691e305
        below = math.nextafter(limit, 0.0)
        want = (below - 0.5) * math.log(below) - below
        assert log_gamma(below) == pytest.approx(want, rel=1e-15, abs=0.0)
        for x in (limit, sys.float_info.max):
            with pytest.raises(DomainError, match="overflows binary64"):
                log_gamma(x)


class TestCatalanReference:
    def test_first_partial_sums(self):
        # n=0 term alone is 1; two terms give 1 - 1/9.
        assert 1.0 == pytest.approx(1.0)
        assert 1.0 - 1.0 / 9.0 == pytest.approx(0.8888888888888888)

    def test_accelerated_value(self, catalan_oracle):
        g = catalan_reference(1e-14)
        assert g == pytest.approx(catalan_oracle, abs=1e-10)
        assert g == pytest.approx(0.915965594177219, abs=1e-14)

    def test_tolerance_scaling(self):
        coarse = catalan_reference(1e-6)
        fine = catalan_reference(1e-15)
        assert abs(coarse - fine) <= 1e-6

    def test_bracketed_by_zero_and_pi2_over_8(self):
        g = catalan_reference(1e-14)
        assert 0.0 < g < PI * PI / 8.0

    def test_cross_check_against_clausen(self):
        assert catalan_reference(1e-14) == pytest.approx(clausen2(PI / 2.0), abs=1e-13)

    def test_non_finite_tolerance(self):
        # inf takes the 8-term floor of every tolerance from 0.5 up.
        assert catalan_reference(math.inf) == catalan_reference(0.5) == catalan_reference(1e300)
        with pytest.raises(DomainError):
            catalan_reference(math.nan)


class TestKummerSineLogSum:
    def test_closed_form_against_abel_oracle(self):
        # Abel summation: S(r) = sum sin(2j) log(j) r^j / j at r = e^{-delta},
        # Richardson-extrapolated delta -> 0.
        def abel(delta: float) -> float:
            jmax = int(40.0 / delta)
            total = 0.0
            chunk = 2_000_000
            lo = 1
            while lo <= jmax:
                hi = min(lo + chunk - 1, jmax)
                j = np.arange(lo, hi + 1, dtype=np.float64)
                total += float(
                    np.sum(np.sin(2.0 * j) * np.log(j) / j * np.exp(-delta * j))
                )
                lo = hi + 1
            return total

        delta = 1e-6
        extrapolated = 2.0 * abel(delta) - abel(2.0 * delta)
        assert _sine_log_sum(1.0) == pytest.approx(extrapolated, abs=1e-5)

    def test_sawtooth_companion(self):
        # sum sin(2j)/j = pi/2 - 1; slow-convergence sanity at 1e6 terms.
        j = np.arange(1, 1_000_001, dtype=np.float64)
        partial = float(np.sum(np.sin(2.0 * j) / j))
        assert abs(partial - (PI / 2.0 - 1.0)) < 1e-3

    def test_gamma_coefficient_cancels(self):
        # The two gamma coefficients in the hyperbolic-term assembly are
        # (pi/2 - 1) and (1 - pi/2); their sum is exactly zero.
        assert (PI / 2.0 - 1.0) + (1.0 - PI / 2.0) == 0.0


# Accuracy tests that became rows of bench/error_map.py keep their ids, unless written out above.
for _test_id in filter(None, KEPT_IDS):
    _scope, _, _name = _test_id.rpartition("::")
    if _scope and not hasattr(globals()[_scope], _name):
        setattr(globals()[_scope], _name, kept_test(_test_id))
