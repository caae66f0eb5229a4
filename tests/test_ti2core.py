import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from ti2kit.numerics import DomainError
from ti2kit.polylog import li2
from ti2kit.special import catalan_reference
from ti2kit.ti2core import (
    _HORNER_BANDS,
    _SERIES_COEFF,
    ti2,
    ti2_clausen_form,
    ti2_proposition_form,
    ti2_via_quadrature,
)

PI = math.pi


class TestTi2:
    def test_zero(self):
        assert ti2(0.0) == 0.0

    def test_at_one_is_catalan(self, catalan_oracle):
        assert ti2(1.0) == pytest.approx(catalan_oracle, abs=1e-12)

    def test_at_half_against_quadrature(self):
        oracle = ti2_via_quadrature(0.5)
        assert ti2(0.5) == pytest.approx(oracle, abs=1e-11)
        assert ti2(0.5) == pytest.approx(0.48722235829452236, abs=1e-13)

    def test_odd_exactly(self):
        for y in (0.3, 0.99, 1.0, 2.5, 17.0):
            assert ti2(-y) + ti2(y) == 0.0

    def test_large_argument_against_dilog(self):
        assert ti2(3.0) == pytest.approx(li2(3j).imag, abs=1e-14)
        assert ti2(3.0) == pytest.approx(ti2_via_quadrature(3.0), abs=1e-10)

    def test_series_dilog_switchover_continuity(self):
        # Both routes live near |y| = 0.99; they must agree there.
        for y in (0.985, 0.99, 0.9901, 0.995):
            assert ti2(y) == pytest.approx(li2(complex(0.0, y)).imag, abs=1e-13)

    def test_monotone_on_grid(self):
        ys = [i * 0.25 for i in range(41)]
        vals = [ti2(y) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_route_agreement_grid(self):
        for y in (0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 5.0):
            routes = [ti2(y), li2(complex(0.0, y)).imag, ti2_via_quadrature(y)]
            if y > 0.0:
                routes.append(ti2_proposition_form(y))
            worst = max(
                abs(u - v) for u, v in itertools.combinations(routes, 2)
            )
            assert worst < 1e-9

    def test_horner_band_degrees_are_the_least_that_meet_the_rule(self):
        # N terms on (previous top, top]: the first omitted term at the top is
        # below 1e-17 of Ti2(top), and the term before it is not.
        assert [top for top, _ in _HORNER_BANDS] == [0.0625, 0.125, 0.25, 0.5]
        assert [len(coeffs) + 1 for _, coeffs in _HORNER_BANDS] == [7, 9, 12, 23]
        for top, coeffs in _HORNER_BANDS:
            n = len(coeffs) + 1
            term = lambda k: top ** (2 * k + 1) / (2 * k + 1) ** 2
            assert term(n) < 1e-17 * ti2(top) <= term(n - 1), top
            assert coeffs == _SERIES_COEFF[n - 1 : 0 : -1]

    def test_series_coefficients_are_correctly_rounded(self):
        # n = 0..64: the Horner bands use n <= 22, decomp's n-series n = 1..64.
        assert len(_SERIES_COEFF) == 65
        for n, c in enumerate(_SERIES_COEFF):
            assert c == float(Fraction((-1) ** n, (2 * n + 1) ** 2)), n

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ti2(float("nan"))
        with pytest.raises(DomainError):
            ti2(float("inf"))


class TestTi2ViaQuadrature:
    def test_zero(self):
        assert ti2_via_quadrature(0.0) == 0.0

    def test_negative_zero_keeps_its_sign_like_ti2(self):
        assert math.copysign(1.0, ti2_via_quadrature(-0.0)) == -1.0
        assert math.copysign(1.0, ti2(-0.0)) == -1.0

    @pytest.mark.parametrize("y", [1e-310, 1e-318, 1e-322, 5e-324])
    def test_subnormal_width_takes_the_limit_at_zero(self, y):
        value = ti2_via_quadrature(y)
        assert math.isfinite(value)
        assert abs(value - y) <= 1e-13

    def test_at_one_matches_reference(self):
        assert ti2_via_quadrature(1.0) == pytest.approx(
            catalan_reference(1e-14), abs=1e-10
        )

    def test_pinned_to_the_bit(self):
        assert ti2_via_quadrature(0.9) == 0.8359882857255051

    def test_domain(self):
        with pytest.raises(DomainError):
            ti2_via_quadrature(-0.5)


class TestTi2PropositionForm:
    def test_vanishes_at_origin(self):
        # All three pieces go to zero individually.
        for a in (1e-6, 1e-8):
            assert abs(ti2_proposition_form(a)) < 2e-5

    def test_at_one(self, catalan_oracle):
        # arctan(1) log(1) drops out, leaving Im Li2(1+i) - (pi/4) log 2.
        expected = li2(complex(1.0, 1.0)).imag - 0.25 * PI * math.log(2.0)
        got = ti2_proposition_form(1.0)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(catalan_oracle, abs=1e-12)

    def test_at_two_against_quadrature(self):
        assert ti2_proposition_form(2.0) == pytest.approx(
            ti2_via_quadrature(2.0), abs=1e-10
        )

    def test_large_a_against_ti2(self):
        # a * a overflows from a = 1.34e154, where log1p(a^2) made the form
        # -inf; ti2(1e200) is 723.378.
        rng = random.Random(11)
        top = math.log(sys.float_info.max)
        grid = [math.exp(rng.uniform(0.0, top)) for _ in range(4000)]
        for a in grid + [1e150, math.nextafter(1e150, 2e150), 1.34e154, 1e200, sys.float_info.max]:
            assert abs(ti2_proposition_form(a) - ti2(a)) <= 1e-15 * ti2(a), a

    def test_domain(self):
        with pytest.raises(DomainError):
            ti2_proposition_form(0.0)
        with pytest.raises(DomainError):
            ti2_proposition_form(-1.0)


class TestTi2ClausenForm:
    def test_at_quarter_pi(self, catalan_oracle):
        # log tan(pi/4) = 0 and both Clausen arguments coincide at pi/2.
        assert ti2_clausen_form(PI / 4.0) == pytest.approx(catalan_oracle, abs=1e-12)

    def test_at_sixth_pi(self):
        got = ti2_clausen_form(PI / 6.0)
        assert got == pytest.approx(ti2(1.0 / math.sqrt(3.0)), abs=1e-10)

    def test_at_eighth_pi(self):
        got = ti2_clausen_form(PI / 8.0)
        assert got == pytest.approx(ti2(math.sqrt(2.0) - 1.0), abs=1e-10)

    def test_residual_grid(self):
        for i in range(25):
            theta = 0.05 + i * (PI / 2.0 - 0.1) / 24.0
            assert abs(ti2_clausen_form(theta) - ti2(math.tan(theta))) < 1e-9

    def test_endpoint_rejection(self):
        for theta in (0.0, 1e-7, PI / 2.0, PI / 2.0 - 1e-7, -0.3):
            with pytest.raises(DomainError):
                ti2_clausen_form(theta)
