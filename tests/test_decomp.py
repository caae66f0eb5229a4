import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import identity_report
from ti2kit.decomp import (
    _H_QUADRATURE_BELOW,
    _XI_DIRECT_TERMS,
    _h_ei_series,
    _h_integral,
    _hurwitz_n_series,
    _pole_bracket,
    _pole_direct_terms,
    _pole_tail,
    _xi_sum,
    _xi_term,
    h_series,
    k1_closed,
    remark1_partial,
    s_r,
)
from ti2kit.numerics import DomainError
from ti2kit.special import (
    _PI_LO,
    EULER_GAMMA,
    _sine_log_sum,
    catalan_reference,
    hurwitz_zeta,
    loggamma_im_gap,
)
from ti2kit.ti2core import ti2
from ti2kit.verify import VerificationConfig, run_identity

PI = math.pi


class TestXiK:
    """The pole correction Xi_k(x) as _xi_sum sums it term by term."""

    def test_zero_at_origin(self):
        assert _xi_term(1, 1.0, 0.0) == 0.0
        assert _xi_term(7, 2.5, 0.0) == 0.0

    def test_first_pole_term(self):
        # k=1, alpha=1, x=1: arctan(2/(1 + pi^2 - 1)) = arctan(2/pi^2).
        assert _xi_term(1, 1.0, 1.0) == pytest.approx(math.atan(2.0 / (PI * PI)), abs=1e-16)
        assert _xi_term(1, 1.0, 1.0) == pytest.approx(0.19993500175087207, abs=1e-15)

    def test_small_angle_regime_for_large_k(self):
        for k in (20, 50, 200):
            for alpha, x in ((1.0, 1.0), (0.5, 2.0), (2.8, 4.0)):
                ratio = _xi_term(k, alpha, x) / (2.0 * alpha * x / (k * PI) ** 2)
                assert abs(ratio - 1.0) < 0.01

    @pytest.mark.parametrize("x", [1e154, 1e200, 1e308, sys.float_info.max])
    def test_far_abscissa_against_mpmath(self, x):
        # 2 alpha x overflows above 9e307 / alpha and x * x above 1.34e154;
        # neither may turn the term into inf / inf.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in (1, 20):
                for alpha in (0.5, 1.0, 3.1):
                    X, a = mpmath.mpf(x), mpmath.mpf(alpha)
                    ref = mpmath.atan(2 * a * X / (X * X + (k * mpmath.pi) ** 2 - a * a))
                    value = _xi_term(k, alpha, x)
                    # The smallest references are subnormal: allow one of their ulps.
                    assert abs(value - ref) <= 4e-16 * ref + 5e-324, (k, alpha, x)


class TestPointwiseIdentity:
    def test_zero_at_origin(self):
        report = identity_report("pointwise", (1.0, 0.0))
        assert report.lhs == 0.0
        assert report.abs_residual < 1e-15

    def test_half_pi_drops_principal_term(self):
        # cot(pi/2) = 0, so arctan(2x/pi)... the whole arctan(x/alpha) must be
        # carried by the pole sum alone.
        report = identity_report("pointwise", (PI / 2.0, 1.0))
        assert report.passed
        assert report.abs_residual <= 1e-13

    def test_residual_tracks_tail_bound(self):
        # Cut at K, the sum misses exactly T(K) = sum_{k>K} Xi_k, which sits
        # under the envelope 2 alpha x/(pi^2 K); the full sum misses nothing.
        alpha, x, K = 1.0, 1.0, 1000
        report = identity_report("pointwise", (alpha, x))
        truncated = report.rhs - loggamma_im_gap(K + 1.0, x / PI, alpha / PI)
        envelope = 2.0 * alpha * x / (PI * PI * K)
        assert 0.0 < report.lhs - truncated <= envelope
        assert report.lhs - truncated == pytest.approx(envelope, rel=1e-3, abs=0.0)
        assert report.tail_bound is None
        assert report.abs_residual <= 1e-13
        assert report.passed

    @pytest.mark.parametrize("x", [1e154, 1e200, 1e308, sys.float_info.max])
    def test_far_abscissa_is_finite_and_passes(self, x):
        report = identity_report("pointwise", (1.0, x))
        assert report.rhs == pytest.approx(PI / 2.0, abs=1e-15)
        assert report.abs_residual <= 1e-15
        assert report.passed

    @pytest.mark.parametrize("x", [math.inf, -1.0, math.nan])
    def test_domain(self, x):
        # At inf the rhs was nan, which the JSON writer refused.
        with pytest.raises(DomainError):
            identity_report("pointwise", (1.0, x))

    def test_default_grid(self):
        for alpha in (0.4, 1.0, 1.6, 2.2, 2.8):
            for x in (0.8, 1.6, 2.4, 3.2, 4.0):
                report = identity_report("pointwise", (alpha, x))
                assert report.abs_residual <= 1e-13, (alpha, x)
                assert report.terms_used == _XI_DIRECT_TERMS


_STIRLING_ALPHAS = (0.01, 0.2, 1.0, 2.0, 3.0, PI - 0.01)


class TestPointwiseStirlingTail:
    """The pole sum summed to the end: direct terms plus a complex-Stirling tail."""

    def test_rhs_against_mpmath_truncated_sum(self):
        # Terms k <= 21 are summed one by one in mpmath; k > 21 come from
        # mpmath's own loggamma: sum_{k>m} Xi_k = Im[lg(m+1+a+iy) - lg(m+1-a+iy)].
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for alpha in _STIRLING_ALPHAS:
                for x in (0.0, 1e-3, 0.8, 4.0, 50.0, 1e3, 1e6):
                    a, X = mpmath.mpf(alpha), mpmath.mpf(x)
                    ref = mpmath.atan(mpmath.cot(a) * mpmath.tanh(X))
                    for k in range(1, 22):
                        kpi = k * mpmath.pi
                        ref += mpmath.atan(X / (kpi - a)) - mpmath.atan(X / (kpi + a))
                    z = mpmath.mpc(22, X / mpmath.pi)
                    shift = a / mpmath.pi
                    ref += mpmath.im(mpmath.loggamma(z + shift) - mpmath.loggamma(z - shift))
                    rhs = identity_report("pointwise", (alpha, x)).rhs
                    assert abs(rhs - ref) <= 1e-14, (alpha, x)

    @pytest.mark.parametrize("K", [_XI_DIRECT_TERMS, _XI_DIRECT_TERMS + 1, 5000])
    def test_kernel_matches_atan_loop(self, K):
        # The full sum less its own tail T(K) is the K-term partial sum.
        for alpha in _STIRLING_ALPHAS:
            for x in (0.0, 0.3, 4.0, 1e3):
                brute = math.fsum(_xi_term(k, alpha, x) for k in range(1, K + 1))
                partial = _xi_sum(alpha, x) - loggamma_im_gap(K + 1.0, x / PI, alpha / PI)
                assert partial == pytest.approx(brute, abs=2e-15), (alpha, x)

    def test_cost_does_not_grow_with_x(self):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            identity_report("pointwise", (1.0, 1e6))
            best = min(best, time.perf_counter() - t0)
        assert best < 5e-3


class TestHRoutes:
    def test_quadrature_vanishes_at_half_pi(self):
        assert abs(_h_integral(1.0, PI / 2.0, 1e-11).value) < 1e-13
        assert abs(_h_integral(3.0, PI / 2.0, 1e-11).value) < 1e-13

    def test_series_vanishes_at_half_pi(self):
        assert abs(h_series(1.0, PI / 2.0).value) < 1e-13

    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0, 2.9])
    def test_ei_series_vanishes_at_half_pi_below_crossover(self, A):
        # h_series takes quadrature below A = 3, so the Ei sum K(1) uses is
        # checked here directly; its values are at most 2.3e-17.
        assert abs(_h_ei_series(A, PI / 2.0).value) < 1e-15

    def test_two_route_agreement_at_unit_point(self):
        hq = _h_integral(1.0, 1.0, 1e-11).value
        hs = _h_ei_series(1.0, 1.0)
        assert abs(hq - hs.value) < 1e-9

    def test_two_route_agreement_grid(self):
        for A in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 2.0, 2.5):
                hq = _h_integral(A, alpha, 1e-11).value
                hs = _h_ei_series(A, alpha)
                assert abs(hq - hs.value) < 1e-9, (A, alpha)

    def test_small_interval_limit(self):
        # H(A, alpha) ~ A cot(alpha) as A -> 0.
        A = 1e-6
        want = A / math.tan(1.0)
        assert _h_integral(A, 1.0, 1e-11).value == pytest.approx(want, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("A", [1e-310, 1e-318, 1e-322, 5e-324])
    def test_subnormal_width_takes_the_limit_at_zero(self, A):
        # Below ~1e-321 a Kronrod node rounds onto x = 0.
        h = h_series(A, 1.0)
        assert math.isfinite(h.value)
        assert abs(h.value - A / math.tan(1.0)) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            h_series(0.0, 1.0)
        with pytest.raises(DomainError):
            h_series(1.0, PI)
        with pytest.raises(DomainError):
            h_series(math.inf, 1.0)

    @pytest.mark.parametrize("A", [8.9e307, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("alpha", [1.0, PI / 2.0, 2.5])
    def test_huge_A_is_finite(self, A, alpha):
        # 2A overflows from 8.99e307, which made log 2A and Ei(-2A) give nan;
        # there H is (pi/2 - alpha)(gamma + log 2A) + the sine-log sum.  At
        # alpha = PI/2, pi/2 - alpha is pi's low part over 2, and H is 4.3e-14.
        h = h_series(A, alpha).value
        lead = (PI / 2.0 - alpha + _PI_LO / 2.0) * (EULER_GAMMA + math.log(A) + math.log(2.0))
        assert h == pytest.approx(lead + _sine_log_sum(alpha), rel=1e-15, abs=1e-15)


def _h_reference(mpmath, A: float, alpha: float):
    # Breakpoints at s, 4s, 16s, ... with s = min(alpha, pi - alpha), the
    # distance to the integrand's nearest singularities x = +-i s.
    cot = mpmath.cot(mpmath.mpf(alpha))
    s = min(alpha, PI - alpha)
    pts = [0]
    while s < A:
        pts.append(s)
        s *= 4.0
    pts.append(A)
    return mpmath.quad(lambda x: mpmath.atan(cot * mpmath.tanh(x)) / x, pts)


class TestHSeriesDefaultRoute:
    """h_series: quadrature below _H_QUADRATURE_BELOW, the Ei series from it on."""

    def test_against_mpmath(self):
        # One seeded point per (log A, alpha) stratum, the corners, both
        # sides of the crossover, and a dense alpha band around pi/2 on the
        # Ei route, where the sine-log sum's log_gamma(a) - log_gamma(1 - a)
        # cancels.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(6)
        n_a, n_alpha = 14, 12
        points = [
            (1e-6 * 1e7 ** ((i + rng.random()) / n_a),
             0.01 + (PI - 0.02) * (j + rng.random()) / n_alpha)
            for i in range(n_a)
            for j in range(n_alpha)
        ]
        below = math.nextafter(_H_QUADRATURE_BELOW, 0.0)
        points += [(A, alpha) for A in (1e-6, below, _H_QUADRATURE_BELOW, 10.0)
                   for alpha in (0.01, PI / 2.0 - 1e-3, PI - 0.01)]
        points += [(A, 1.2 + 0.75 * k / 40) for A in (3.0, 4.5, 7.0, 10.0) for k in range(41)]
        with mpmath.workdps(30):
            for A, alpha in points:
                ref = _h_reference(mpmath, A, alpha)
                err = abs(h_series(A, alpha).value - ref)
                assert err <= 1e-14 * (abs(ref) + 1), (A, alpha, float(err))

    @pytest.mark.parametrize("A", [3.0, 5.0, 1e3])
    def test_relative_error_next_to_half_pi(self, A):
        # H vanishes at alpha = pi/2, and the Ei route's pi/2 - alpha and
        # sine-log sum vanish with it; both keep their digits there.  Worst
        # measured: 3.0e-16 relative (1.2e-4 when both dropped pi's low part).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for d in (1e-2, 1e-5, 1e-8, 1e-12):
                for alpha in (PI / 2.0 + d, PI / 2.0 - d):
                    ref = _h_reference(mpmath, A, alpha)
                    err = abs((h_series(A, alpha).value - ref) / ref)
                    assert err <= 1e-15, (alpha, float(err))

    def test_route_and_counts_switch_at_crossover(self):
        below = h_series(math.nextafter(_H_QUADRATURE_BELOW, 0.0), 1.0)
        assert below.terms_used % 21 == 0  # GK21 panels: integrand evaluations
        assert below.tail_bound <= 1e-13
        at = h_series(_H_QUADRATURE_BELOW, 1.0)
        assert at.terms_used <= 6
        assert at.tail_bound <= 1e-15
        assert at == _h_ei_series(_H_QUADRATURE_BELOW, 1.0)

    def test_quadrature_route_pinned_to_the_bit(self):
        assert h_series(0.5, 0.01) == (6.163332930310567, 231, 2.4182839218697898e-14)

    def test_ei_route_pinned_to_the_bit(self):
        # K(1)'s sum and the Ei route's first point: value, term count and
        # tail bound of the Kahan-summed Ei terms.
        assert _h_ei_series(1.0, 1.0) == (0.5676349189508212, 15, 2.404945790591815e-16)
        assert h_series(3.0, 1.0) == (1.1520357317411067, 5, 6.253917223490535e-16)

    @pytest.mark.parametrize("A, alpha", [(1e-6, 1.0), (0.01, 0.01)])
    def test_small_A_costs_under_a_millisecond(self, A, alpha):
        # The Ei series needs ceil(16.1/A) terms here: 16.1 million at 1e-6.
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            h_series(A, alpha)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3


class TestCorollary2:
    def test_unit_point(self):
        report = identity_report("corollary2", (1.0, 1.0))
        assert report.passed
        assert report.abs_residual <= 1e-13
        assert report.tail_bound <= 1e-14

    def test_half_pi_alpha(self):
        report = identity_report("corollary2", (1.0, PI / 2.0))
        assert report.lhs == pytest.approx(ti2(2.0 / PI), abs=1e-14)
        assert report.passed
        assert report.abs_residual <= 1e-13

    def test_bracket_terms_positive(self):
        for k in range(1, 40):
            diff = ti2(1.0 / (k * PI - 1.0)) - ti2(1.0 / (k * PI + 1.0))
            assert diff > 0.0

    def test_residual_shrinks_with_k(self):
        # Cut at K the sum misses T(K); the full sum is closer than any cut.
        report = identity_report("corollary2", (1.0, 1.0))
        r500, r4000 = (
            abs(report.lhs - report.rhs + _pole_tail(1.0, 1.0, K).value) for K in (500, 4000)
        )
        assert report.abs_residual < r4000 < r500

    def test_terms_used_counts_the_work_done(self):
        k0 = _pole_direct_terms(1.0, 1.0)
        report = identity_report("corollary2", (1.0, 1.0))
        assert report.terms_used == k0 + _pole_tail(1.0, 1.0, k0).terms_used
        assert report.terms_used < 30


def explicit_partial_sums(bracket, checkpoints):
    """Running sum of bracket(k), k = 1..max(checkpoints), read at each checkpoint."""
    out, total = {}, 0.0
    for k in range(1, max(checkpoints) + 1):
        total += bracket(k)
        if k in checkpoints:
            out[k] = total
    return out


class TestPoleBracket:
    """The direct-plus-Hurwitz bracket sum against the explicit k-loop.

    The full sum less its own tail T(K) is the K-bracket partial sum.
    """

    @pytest.mark.parametrize(
        "A, alpha",
        # A = 1000 has K0 = 1274, so its K = 500 tail runs at ratio 0.64.
        [(1.0, 1.0), (0.05, 0.2), (2.0, 0.21), (2.0, 2.95), (0.5, 3.0), (50.0, 2.5), (1000.0, 1.0)],
    )
    def test_matches_explicit_loop(self, A, alpha):
        k0 = _pole_direct_terms(A, alpha)
        checkpoints = {k0, k0 + 1, 500, 2000, 4000}
        loop = explicit_partial_sums(
            lambda k: ti2(A / (k * PI - alpha)) - ti2(A / (k * PI + alpha)), checkpoints
        )
        full = _pole_bracket(A, alpha).value
        for K in sorted(checkpoints):
            got = full - _pole_tail(A, alpha, K).value
            assert abs(got - loop[K]) <= 1e-13, (A, alpha, K)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_catalan_family_brackets(self, n):
        # The corollary-3 sum in its own form, Ti2(1/(nk-1)) - Ti2(1/(nk+1)).
        k0 = _pole_direct_terms(PI / n, PI / n)
        checkpoints = {k0, k0 + 1, 500, 2000, 4000}
        loop = explicit_partial_sums(
            lambda k: ti2(1.0 / (n * k - 1)) - ti2(1.0 / (n * k + 1)), checkpoints
        )
        full = _pole_bracket(PI / n, PI / n).value
        for K in sorted(checkpoints):
            got = full - _pole_tail(PI / n, PI / n, K).value
            assert abs(got - loop[K]) <= 1e-13, (n, K)

    def test_ratio_stays_below_a_quarter(self):
        for A, alpha in ((0.01, 3.1), (1.0, 1.0), (7.0, 0.3), (1e4, 2.0)):
            k0 = _pole_direct_terms(A, alpha)
            assert k0 >= 12
            assert A / ((k0 + 1) * PI - alpha) < 0.25

    def test_tail_series_converges_with_honest_bound(self):
        # T(m) - T(m+1) is the single bracket m+1; the n-series reports the
        # first omitted term as its bound and stops well before its cap.
        A, alpha = 2.0, 2.95
        m = _pole_direct_terms(A, alpha)
        t0, t1 = _pole_tail(A, alpha, m), _pole_tail(A, alpha, m + 1)
        for t in (t0, t1):
            assert 0.0 < t.tail_bound <= 1e-17
        single = ti2(A / ((m + 1) * PI - alpha)) - ti2(A / ((m + 1) * PI + alpha))
        assert t0.value - t1.value == pytest.approx(single, rel=1e-12, abs=0.0)


class TestRemark1:
    def test_single_term_telescopes(self):
        assert remark1_partial(1) == pytest.approx(ti2(1.0) - ti2(1.0 / 3.0), abs=1e-15)

    def test_partial_sum_bound(self):
        # |result - G| < 1/21 because Ti2(y) <= y.
        val = remark1_partial(10)
        assert abs(val - catalan_reference(1e-14)) < 1.0 / 21.0

    @pytest.mark.parametrize("K", [1, 5, 10, 100])
    def test_telescoping_exactness(self, K):
        total = remark1_partial(K) + ti2(1.0 / (2 * K + 1))
        assert abs(total - catalan_reference(1e-14)) <= 1e-11

    @pytest.mark.parametrize("K", [0, 100_001])
    def test_K_outside_1_to_100000_is_a_domain_error(self, K):
        # verify's K ceiling: no call starts a longer loop.
        with pytest.raises(DomainError, match="integer K in 1..100000"):
            remark1_partial(K)


class TestCatalanFamily:
    def test_n2_reduces_to_telescoping(self):
        # The hyperbolic term vanishes at alpha = pi/2, and the K-term partial
        # sum telescopes to G - Ti2(1/(2K+1)).
        assert abs(h_series(PI / 2.0, PI / 2.0).value) < 1e-13
        report = identity_report("corollary3", 2)
        telescoped = remark1_partial(500) + ti2(1.0 / 1001.0)
        assert report.rhs == pytest.approx(
            telescoped + h_series(PI / 2.0, PI / 2.0).value, abs=1e-13
        )
        assert report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_family_members(self, n):
        report = identity_report("corollary3", n)
        assert report.passed
        assert report.abs_residual <= 1e-13
        assert report.tail_bound <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            identity_report("corollary3", 1)


class TestSR:
    def test_s1_via_cotangent(self):
        assert s_r(1) == pytest.approx(1.0 - 1.0 / math.tan(1.0), abs=1e-14)
        assert s_r(1) == pytest.approx(0.35790738406566930, abs=1e-14)

    @pytest.mark.parametrize("r", [3, 5, 7])
    def test_hurwitz_route_equals_direct_sum(self, r):
        k = np.arange(1, 100_001, dtype=np.float64)
        direct = float(np.sum((k * PI - 1.0) ** (-r) - (k * PI + 1.0) ** (-r)))
        assert abs(s_r(r) - direct) < 1e-10

    def test_positive(self):
        for r in (1, 3, 5, 7, 9, 15):
            assert s_r(r) > 0.0

    def test_even_r_rejected(self):
        with pytest.raises(DomainError):
            s_r(2)
        with pytest.raises(DomainError):
            s_r(-3)

    def test_against_mpmath(self):
        # Worst measured: 1.8e-16 relative (at r = 41); hurwitz_zeta's
        # pi^{-r} [zeta(r, lo) - zeta(r, hi)] gave 6.1e-15 there.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = 1 / mpmath.pi
            for r in range(3, 42, 2):
                ref = x**r * (mpmath.zeta(r, 1 - x) - mpmath.zeta(r, 1 + x))
                assert abs(s_r(r) - ref) <= 6e-16 * ref, r

    @pytest.mark.parametrize("r", [1001, 1851, 2001, 4001])
    def test_large_order_underflows_instead_of_overflowing(self, r):
        # S_r rounds to 0.0 in binary64 from r = 979 on (1.6e-324 there); the
        # hurwitz_zeta route raised DomainError from r = 1853, where
        # zeta(r, 1 - 1/pi) passes the float range.
        value = s_r(r)
        assert math.isfinite(value) and value >= 0.0


class TestK1:
    def test_ei_tail_below_budget(self):
        # Geometric envelope |Ei(-2j)| <= e^{-2j}/(2j): tail at J=18 < 1e-15.
        tail = math.exp(-36.0) / (2.0 * 18.0 * 18.0 * (1.0 - math.exp(-2.0)))
        assert tail < 1e-15

    def test_triple_agreement(self):
        closed = k1_closed()
        quad = _h_integral(1.0, 1.0, 1e-11).value
        fourier = _h_ei_series(1.0, 1.0).value
        assert abs(closed - quad) < 1e-8
        assert abs(closed - fourier) < 1e-9
        assert abs(quad - fourier) < 1e-8

    def test_value_frozen(self):
        assert k1_closed() == pytest.approx(0.56763491895082106, abs=1e-13)

    def test_assembly_from_sine_log_sum(self):
        # K(1) = -sum sin(2j)/j Ei(-2j) + (pi/2 - 1)(gamma + log 2)
        #        + [sine-log sum]; the gamma coefficients cancel between the
        #        last two pieces, leaving the compressed closed form.
        from ti2kit.special import ei_negative

        ei_part = -sum(
            math.sin(2.0 * j) / j * ei_negative(2.0 * j) for j in range(1, 19)
        )
        assembled = (
            ei_part
            + (PI / 2.0 - 1.0) * (EULER_GAMMA + math.log(2.0))
            + _sine_log_sum(1.0)
        )
        assert k1_closed() == pytest.approx(assembled, abs=1e-13)


def lemma1_partial(N):
    """K(1) + S_1 + the Lemma 1 n-series cut after N terms, term n being (-1)^n S_r / r^2."""
    total = k1_closed() + s_r(1)
    for n in range(1, N + 1):
        r = 2 * n + 1
        total += (-1.0) ** n * s_r(r) / (r * r)
    return total


def _n_series_depth_by_loop(A, alpha, m):
    # The n-series depth and tail bound found by trying n = 1, 2, ... up to 64.
    x = A / PI
    lo = m + 1 - alpha / PI
    for n in range(1, 65):
        r = 2 * n + 3
        bound = (x / lo) ** r * (1.0 + lo / (r - 1)) / (r * r)
        if bound <= 1e-17:
            break
    return n, bound


class TestHurwitzNSeriesDepth:
    """The depth from one Newton step is the loop's, bound bits included."""

    @staticmethod
    def _check(tails):
        for A, alpha, m in tails:
            ser = _hurwitz_n_series(A, alpha, m)
            assert (ser.terms_used, ser.tail_bound) == _n_series_depth_by_loop(A, alpha, m), (
                A, alpha, m)

    def test_lemma1_and_every_verified_pole_tail(self):
        # lemma1's point, and the pole tails of verify's default grid and of
        # perfbench's verify passes, seeds 1-3.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import inputs
        finally:
            sys.path.pop(0)
        cfg = VerificationConfig()
        points = list(cfg.A_alpha_grid) + [(PI / n, PI / n) for n in cfg.n_grid]
        for seed in (1, 2, 3):
            for name, point in inputs.verify_grid(seed):
                if name == "corollary2":
                    points.append((point["A"], point["alpha"]))
                elif name == "corollary3":
                    points.append((PI / point["n"], PI / point["n"]))
        assert len(points) == 29
        self._check([(1.0, 1.0, 0)] + [(A, al, _pole_direct_terms(A, al)) for A, al in points])

    def test_seeded_tails(self):
        # A log-uniform in [1e-6, 1e4], alpha in (0, pi), m the pole sum's K0
        # or any of 0..40, wherever q = x/lo < 1.
        rng = random.Random(32)
        tails = []
        while len(tails) < 20000:
            A = math.exp(rng.uniform(math.log(1e-6), math.log(1e4)))
            alpha = rng.uniform(1e-6, PI - 1e-6)
            m = _pole_direct_terms(A, alpha) if rng.random() < 0.5 else rng.randint(0, 40)
            if A / PI < m + 1 - alpha / PI:
                tails.append((A, alpha, m))
        self._check(tails)


class TestLemma1:
    def test_default_assembly_reproduces_catalan(self):
        report = identity_report("lemma1")
        assert report.passed
        assert report.tolerance == 1e-12
        assert report.abs_residual <= 1e-15
        assert report.tail_bound <= 1e-15

    def test_summed_to_the_end_on_the_pole_tail_series(self):
        # Lemma 1's n-series is the pole tail's at A = alpha = 1, m = 0, where
        # term n is (-1)^n S_r / r^2; the explicit S_r sum to the same depth
        # agrees to rounding.
        ser = _hurwitz_n_series(1.0, 1.0, 0)
        assert 0.0 < ser.tail_bound <= 1e-17
        report = identity_report("lemma1")
        assert report.terms_used == ser.terms_used == 20
        assert report.rhs == k1_closed() + s_r(1) + ser.value
        assert abs(lemma1_partial(ser.terms_used) - report.rhs) <= 4.5e-16

    def test_deeper_truncation_reaches_1e10(self):
        assert abs(lemma1_partial(12) - catalan_reference(1e-14)) < 1e-10

    def test_truncation_error_matches_first_omitted_term(self):
        # Cut after N = 1 the sum misses G by about the n = 2 term S_5/25;
        # cut anywhere, by less than the envelope of the first omitted term.
        g = catalan_reference(1e-14)
        assert abs(lemma1_partial(1) - g) == pytest.approx(s_r(5) / 25.0, rel=0.15, abs=0.0)
        for N in range(1, 13):
            r = 2 * N + 3
            # S_r <= sum_k (k pi - 1)^{-r}: first term plus the integral of the rest.
            bound = ((PI - 1.0) ** -r + (PI - 1.0) ** (1 - r) / (PI * (r - 1))) / (r * r)
            assert abs(lemma1_partial(N) - g) <= bound, N

    def test_bracket_orientation_is_pinned(self):
        # Hurwitz offsets: zeta(r, 1+1/pi) < zeta(r, 1-1/pi) termwise, so
        # S_r > 0; assembling with the flipped bracket misses G by ~2e-2.
        for r in (3, 5, 7):
            assert hurwitz_zeta(r, 1.0 + 1.0 / PI) < hurwitz_zeta(r, 1.0 - 1.0 / PI)
        g = catalan_reference(1e-14)
        correct = k1_closed() + s_r(1)
        flipped = k1_closed() + s_r(1)
        for n in range(1, 9):
            coeff = (-1.0) ** n / float((2 * n + 1) ** 2)
            correct += coeff * s_r(2 * n + 1)
            flipped -= coeff * s_r(2 * n + 1)
        assert abs(correct - g) < 1e-8
        assert abs(flipped - g) > 1e-2

    def test_residuals_alternate_and_shrink(self):
        # G minus the cut after N has the sign (-1)^(N+1) of the first
        # omitted term, and the full sum is closer than every cut.
        g = catalan_reference(1e-14)
        residuals = [g - lemma1_partial(n) for n in range(1, 9)]
        for n, res in enumerate(residuals, start=1):
            assert math.copysign(1.0, res) == (-1.0) ** (n + 1), n
        magnitudes = [abs(r) for r in residuals] + [identity_report("lemma1").abs_residual]
        assert all(r2 < r1 for r1, r2 in zip(magnitudes, magnitudes[1:]))


class TestSeededResiduals:
    """Seeded points stay within the worst residuals verify._IDENTITIES records.

    Those comments give 2.1e-15 for corollary2 over 4000 points, 2.2e-16 for
    corollary3 over n = 2..12, 1.1e-16 for lemma1 and 7.8e-16 for pointwise
    over 3 x 4000 points: 19, 2, 1 and 7 units of 2^-53, as measured.
    """

    def test_corollary2(self):
        # A log-stratified in [0.05, 2], alpha uniform in [0.2, 3].
        rng = random.Random(30)
        points = []
        for i in range(300):
            u = (i + rng.random()) / 300
            points.append((0.05 * 40.0**u, rng.uniform(0.2, 3.0)))
        reports = run_identity("corollary2", VerificationConfig(A_alpha_grid=points))
        assert max(r.abs_residual for r in reports) <= 19 * 2.0**-53

    def test_corollary3_and_lemma1(self):
        reports = run_identity("corollary3", VerificationConfig(n_grid=range(2, 13)))
        assert max(r.abs_residual for r in reports) <= 2 * 2.0**-53
        assert identity_report("lemma1").abs_residual <= 2.0**-53

    def test_pointwise_at_the_direct_count(self):
        rng = random.Random(30)
        points = [(rng.uniform(0.2, 3.0), rng.uniform(0.05, 4.0)) for _ in range(300)]
        reports = run_identity("pointwise", VerificationConfig(alpha_x_grid=points))
        assert all(r.terms_used == _XI_DIRECT_TERMS == 12 for r in reports)
        assert max(r.abs_residual for r in reports) <= 7 * 2.0**-53
