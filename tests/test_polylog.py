import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CATALAN,
    central_difference,
    clausen_series_oracle,
    li2_series_oracle,
    li2_series_tail,
)
from ti2kit.numerics import DomainError, integrate_adaptive
from ti2kit.polylog import (
    _BERNOULLI,
    _SERIES_COEFF,
    BranchCutError,
    clausen2,
    li2,
    li2_upper_boundary,
)

PI = math.pi
PI2_6 = PI * PI / 6.0


def test_log_series_coefficients_match_fractions():
    # B_k / (k+1)! for k = 24, 22, ..., 2, each rounded once from the exact
    # fraction.
    ks = range(24, 0, -2)
    assert len(_SERIES_COEFF) == len(ks)
    for k, coeff in zip(ks, _SERIES_COEFF):
        assert coeff == float(Fraction(*_BERNOULLI[k]) / math.factorial(k + 1)), k
    assert Fraction(*_BERNOULLI[12]) == Fraction(-691, 2730)


class TestLi2:
    def test_zero(self):
        assert li2(0.0) == 0.0

    def test_one(self):
        assert li2(1.0).real == pytest.approx(PI2_6, abs=1e-14)
        assert li2(1.0).imag == 0.0

    def test_minus_one(self):
        # Alternating series oracle: partial sums bracket the limit.
        partial = sum((-1.0) ** n / (n * n) for n in range(1, 4001))
        assert li2(-1.0).real == pytest.approx(-PI * PI / 12.0, abs=1e-13)
        assert abs(li2(-1.0).real - partial) < 1e-7
        assert li2(-1.0).imag == 0.0

    def test_at_i(self, catalan_oracle):
        v = li2(1j)
        assert v.imag == pytest.approx(catalan_oracle, abs=1e-12)
        # Re Li2(i) = -pi^2/48
        assert v.real == pytest.approx(-PI * PI / 48.0, abs=1e-13)

    def test_series_agreement_random_disk(self):
        rng = random.Random(20240817)
        for _ in range(200):
            r = 0.9 * math.sqrt(rng.random())
            t = 2.0 * PI * rng.random()
            z = complex(r * math.cos(t), r * math.sin(t))
            n = 120
            assert abs(li2(z) - li2_series_oracle(z, n)) <= li2_series_tail(z, n) + 1e-13

    @settings(max_examples=80, deadline=None)
    @given(
        re=st.floats(-3.0, 3.0),
        im=st.floats(0.01, 3.0),
    )
    def test_conjugate_symmetry(self, re, im):
        z = complex(re, im)
        assert li2(z.conjugate()) == pytest.approx(li2(z).conjugate(), abs=1e-13)

    def test_inversion_law_on_overlap(self):
        # Functional-equation constants validated against the direct series
        # on the annulus 0.4 < |z| < 0.5 (mapped out by 1/z).
        for t in (0.3, 1.1, 2.2, 2.9, 4.0, 5.5):
            w = cmath.rect(0.45, t)
            z = 1.0 / w
            lg = cmath.log(-z)
            expected = -li2_series_oracle(w, 200) - PI2_6 - 0.5 * lg * lg
            assert abs(li2(z) - expected) < 1e-13 * (1.0 + abs(expected))

    def test_reflection_law_on_overlap(self):
        # Angles kept small enough that 1 - z stays inside the series disk.
        for t in (-0.6, -0.2, 0.2, 0.6, 1.0):
            z = cmath.rect(0.45, t)
            assert abs(1.0 - z) < 0.95
            expected = PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - li2_series_oracle(1.0 - z, 400)
            assert abs(li2(z) - expected) < 2e-13 * (1.0 + abs(expected))

    def test_hard_sextic_points(self):
        # e^{+-i pi/3}: the whole inversion/reflection orbit sits on |z| = 1,
        # the worst case for the kernel series.  Li2(e^{i pi/3}) is known in
        # closed form: pi^2/36 + i * Cl2(pi/3).
        z = cmath.exp(1j * PI / 3.0)
        v = li2(z)
        assert v.real == pytest.approx(PI * PI / 36.0, abs=1e-13)
        cl, bound = clausen_series_oracle(PI / 3.0)
        assert v.imag == pytest.approx(cl, abs=bound + 1e-12)

    def test_cut_rejected(self):
        with pytest.raises(BranchCutError):
            li2(1.5)
        with pytest.raises(BranchCutError):
            li2(complex(10.0, 0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            li2(complex(float("inf"), 0.0))

    def test_modulus_past_the_float_range(self):
        # |z| = 2.4e308 overflows abs(z); each part alone puts z past the
        # inversion threshold.  Reference: mpmath at 40 digits.
        z = complex(1.7e308, 1.7e308)
        v = li2(z)
        assert v.real == pytest.approx(-252100.99324566942, rel=1e-15, abs=0.0)
        assert v.imag == pytest.approx(1673.0710574133293, rel=1e-15, abs=0.0)
        assert li2(z.conjugate()) == v.conjugate()


class TestLi2UpperBoundary:
    def test_at_two(self):
        # Oracle: inversion law evaluated just above the cut.
        eps = 1e-9
        oracle = li2(complex(2.0, eps))
        v = li2_upper_boundary(2.0)
        assert v.real == pytest.approx(PI * PI / 4.0, abs=1e-12)
        assert v.real == pytest.approx(oracle.real, abs=1e-8)
        assert v.imag == pytest.approx(oracle.imag, abs=1e-8)
        assert v.imag == pytest.approx(PI * math.log(2.0), abs=1e-13)

    def test_continuity_at_one(self):
        assert li2_upper_boundary(1.0 + 1e-12).real == pytest.approx(PI2_6, abs=1e-10)

    def test_at_ten_against_path_continuation(self):
        # Independent continuation: Li2(z) = -int_0^z Log(1-t)/t dt along a
        # cut-avoiding path 0 -> 10i -> 10 + 10i -> 10 + i*eps.
        eps = 1e-9
        tol = 1e-12

        def leg(fn, lo, hi):
            re = integrate_adaptive(lambda s: fn(s).real, lo, hi, tol).value
            im = integrate_adaptive(lambda s: fn(s).imag, lo, hi, tol).value
            return complex(re, im)

        # d/dt Li2 along t = i y: integrand -Log(1-iy)/(iy) * i dy
        up = leg(lambda y: -cmath.log(1.0 - 1j * y) / y if y else 1j, 1e-300, 10.0)
        across = leg(
            lambda x: -cmath.log(1.0 - (x + 10j)) / (x + 10j), 0.0, 10.0
        )
        down = leg(
            lambda y: -cmath.log(1.0 - (10.0 + 1j * y)) / (10.0 + 1j * y) * 1j,
            eps,
            10.0,
        )
        continued = up + across - down
        v = li2_upper_boundary(10.0)
        assert abs(v - continued) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            li2_upper_boundary(1.0)
        with pytest.raises(DomainError):
            li2_upper_boundary(0.5)
        for x in (math.inf, math.nan):
            with pytest.raises(DomainError):
                li2_upper_boundary(x)


def _li2_slope(z, h=1e-5):
    return (li2(z + h) - li2(z - h)) / (2 * h)


class TestLi2Derivative:
    """li2's derivative law d/dz Li2(z) = -Log(1-z)/z, by central differences."""

    def test_removable_at_zero(self):
        assert abs(_li2_slope(0.0) - 1.0) < 1e-10

    def test_at_minus_one(self):
        # The difference straddles the inversion switchover at -1 - 1e-8.
        assert _li2_slope(-1.0).real == pytest.approx(math.log(2.0), abs=1e-10)

    def test_finite_difference_at_sample_point(self):
        z = complex(0.3, 0.2)
        assert abs(_li2_slope(z) + cmath.log(1.0 - z) / z) < 1e-7

    def test_finite_difference_grid(self):
        pts = [
            complex(re, im)
            for re in (-1.5, -0.5, 0.2, 0.45, 0.8)
            for im in (-1.0, -0.3, 0.3, 1.0)
        ]
        assert len(pts) == 20
        for z in pts:
            assert abs(_li2_slope(z) + cmath.log(1.0 - z) / z) < 1e-6


class TestClausen2:
    def test_endpoints_and_pi(self):
        assert clausen2(0.0) == 0.0
        assert clausen2(PI) == 0.0
        assert clausen2(2.0 * PI) == 0.0

    def test_at_half_pi(self, catalan_oracle):
        assert clausen2(PI / 2.0) == pytest.approx(catalan_oracle, abs=1e-12)

    def test_maximum_at_pi_over_three(self):
        cl, bound = clausen_series_oracle(PI / 3.0)
        assert clausen2(PI / 3.0) == pytest.approx(cl, abs=bound + 1e-12)
        assert clausen2(PI / 3.0) == pytest.approx(1.0149416064096536, abs=1e-12)

    def test_oddness_about_pi(self):
        for i in range(1, 50):
            phi = 2.0 * PI * i / 50.0
            assert abs(clausen2(2.0 * PI - phi) + clausen2(phi)) < 1e-11

    def test_consistency_with_dilogarithm(self):
        for i in range(1, 40):
            phi = 2.0 * PI * i / 40.0
            if phi in (PI, 2.0 * PI):
                continue
            assert abs(clausen2(phi) - li2(cmath.exp(1j * phi)).imag) < 1e-11

    def test_near_logarithmic_endpoints(self):
        # Cl2(phi) ~ phi - phi*log(phi) as phi -> 0+; the dilogarithm route
        # must hold 1e-10 within 1e-6 of the endpoints.
        for phi in (1e-6, 5e-7):
            expansion = phi - phi * math.log(phi)
            assert clausen2(phi) == pytest.approx(expansion, abs=1e-11)
            assert clausen2(2.0 * PI - phi) == pytest.approx(-expansion, abs=1e-11)

    def test_duplication_identity(self):
        # Cl2(2 phi) = 2 Cl2(phi) - 2 Cl2(pi - phi); independent structural check.
        for phi in (0.4, 1.0, 1.3):
            lhs = clausen2(2.0 * phi)
            rhs = 2.0 * clausen2(phi) - 2.0 * clausen2(PI - phi)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            clausen2(-0.1)
        with pytest.raises(DomainError):
            clausen2(2.0 * PI + 0.1)
