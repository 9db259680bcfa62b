"""Unit tests for the gamma power-gain statistics and order statistics."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from noma_perf.fading import (
    _SORT_NETWORKS,
    _SORT_ROWS,
    FadingParams,
    OrderedIndex,
    gamma_cdf,
    gamma_pdf,
    ordered_cdf,
    ordered_cdf_small_arg,
    ordered_pdf,
    sample_gain,
    sample_sorted_gains,
    _sort_pools,
)
from noma_perf.validation import ordered_cdf_quadrature

# Frozen closed-form reference points (elementary algebra):
#   F(mu=2, omega=1, x=1) = 1 - 3 exp(-2)
#   f(mu=2, omega=1, x=1) = 4 exp(-2)
#   F(mu=3, omega=2, x=0.7) from the truncated exponential series
CDF_MU2_W1_X1 = 0.5939941502901619
PDF_MU2_W1_X1 = 0.5413411329464508
CDF_MU3_W2_X07 = 0.08972443012460718

# KS acceptance at the 99.9% level: statistic * sqrt(n) below the
# asymptotic critical value of the Kolmogorov distribution
KS_CRIT_999 = 1.9495


def binomial_tail_mp(rank, total, big_f):
    """P(at least ``rank`` of ``total`` draws fall below x) for F(x) =
    ``big_f``: the order-statistic CDF as a 40-digit sum of its positive
    binomial terms, which nothing cancels."""
    with mp.workdps(40):
        f = mp.mpf(big_f)
        term = mp.binomial(total, rank) * f**rank * (1 - f) ** (total - rank)
        acc = term
        for j in range(rank, total):
            term *= mp.mpf(total - j) / (j + 1) * f / (1 - f)
            acc += term
        return acc


def at(fn, *args):
    """``fn`` at one point: its last argument as a one-element array, and
    the element it returns as a float."""
    *head, x = args
    return fn(*head, np.array([x], dtype=float)).item()


def series_cdf(mu, omega, x):
    """Truncated-exponential-series CDF, the textbook integer-shape form."""
    psi = mu * x / omega
    partial = sum(psi**k / math.factorial(k) for k in range(mu))
    return 1.0 - math.exp(-psi) * partial


class TestParams:
    def test_fading_params_validation(self):
        FadingParams(2, 1.5)
        with pytest.raises(ValueError):
            FadingParams(0, 1.0)
        with pytest.raises(ValueError):
            FadingParams(1.5, 1.0)
        with pytest.raises(ValueError):
            FadingParams(1, 0.0)
        with pytest.raises(ValueError):
            FadingParams(1, math.inf)

    def test_ordered_index_validation(self):
        OrderedIndex(1, 1)
        OrderedIndex(3, 5)
        with pytest.raises(ValueError):
            OrderedIndex(0, 5)
        with pytest.raises(ValueError):
            OrderedIndex(6, 5)
        with pytest.raises(ValueError):
            OrderedIndex(1, 0)


class TestGammaPdf:
    def test_frozen_point(self):
        assert_allclose(gamma_pdf(FadingParams(2, 1.0), 1.0), PDF_MU2_W1_X1, rtol=1e-14)

    def test_normalizes_and_has_mean_omega(self):
        for mu, omega in [(1, 0.5), (2, 3.0), (4, 1.0)]:
            p = FadingParams(mu, omega)
            total, _ = integrate.quad(lambda x: gamma_pdf(p, x), 0, math.inf)
            mean, _ = integrate.quad(lambda x: x * gamma_pdf(p, x), 0, math.inf)
            assert_allclose(total, 1.0, rtol=1e-9)
            assert_allclose(mean, omega, rtol=1e-9)

    def test_zero_outside_support(self):
        p = FadingParams(2, 1.0)
        assert gamma_pdf(p, 0.0) == 0.0
        assert gamma_pdf(p, -1.0) == 0.0

    def test_vectorized(self):
        p = FadingParams(3, 2.0)
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        out = gamma_pdf(p, x)
        assert out.shape == x.shape
        assert out[0] == 0.0 and out[1] == 0.0
        assert_allclose(out[2], gamma_pdf(p, 0.5), rtol=1e-15)

    @staticmethod
    def masked_pdf(p, x):
        # reference: the density assembled only on the positive entries
        # and scattered into zeros; gamma_pdf must match it bit for bit
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xv)
        pos = xv > 0
        xp = xv[pos]
        out[pos] = np.exp(p.mu * math.log(p.rate) - math.lgamma(p.mu)
                          + (p.mu - 1) * np.log(xp) - p.rate * xp)
        return out

    def test_bit_identical_to_masked_form(self):
        x = np.concatenate((
            [-2.0, -0.0, 0.0, 5e-324, 1e-300, 1e300],
            np.exp(np.linspace(-700.0, 700.0, 1001)),
        ))
        for mu, omega in [(1, 0.3), (2, 1.0), (3, 4.0), (6, 16.0)]:
            p = FadingParams(mu, omega)
            assert np.array_equal(gamma_pdf(p, x), self.masked_pdf(p, x))
            assert np.array_equal(gamma_pdf(p, x.reshape(19, 53)),
                                  self.masked_pdf(p, x).reshape(19, 53))
            masked = self.masked_pdf(p, x)
            for i in range(0, x.size, 25):
                assert gamma_pdf(p, x[i:i + 1]).view(np.uint64) == masked[i:i + 1].view(np.uint64)


    def test_zero_at_infinity_without_warning(self):
        # the density vanishes at x = inf, where gamma_cdf reaches 1
        with np.errstate(all="raise"):
            for mu in (1, 2, 3):
                p = FadingParams(mu, 1.5)
                assert gamma_pdf(p, np.array([math.inf])).tolist() == [0.0]
                out = gamma_pdf(p, np.array([math.inf, 1.0, -math.inf]))
                assert out[0] == 0.0 and out[2] == 0.0
                assert out[1] == at(gamma_pdf, p, 1.0)
                assert gamma_cdf(p, np.array([math.inf])).tolist() == [1.0]


class TestGammaCdf:
    def test_frozen_points(self):
        assert_allclose(gamma_cdf(FadingParams(2, 1.0), 1.0), CDF_MU2_W1_X1, rtol=1e-14)
        assert_allclose(gamma_cdf(FadingParams(3, 2.0), 0.7), CDF_MU3_W2_X07, rtol=1e-14)

    def test_matches_truncated_series(self):
        for mu in (1, 2, 3, 5):
            for omega in (0.3, 1.0, 4.0):
                p = FadingParams(mu, omega)
                for x in (0.01, 0.4, 1.0, 3.0, 10.0):
                    # the reference itself loses digits to 1 - (1 - tiny)
                    # cancellation at small x, so allow its rounding floor
                    assert_allclose(
                        gamma_cdf(p, x),
                        series_cdf(mu, omega, x),
                        rtol=1e-12,
                        atol=5e-16,
                    )

    def test_rayleigh_power_is_exponential(self):
        # integer shape 1 must reduce to the exponential CDF to near machine
        for omega in (0.25, 1.0, 5.0):
            p = FadingParams(1, omega)
            x = np.linspace(0.0, 20.0 * omega, 400)
            assert_allclose(gamma_cdf(p, x), -np.expm1(-x / omega), atol=1e-14)

    def test_matches_pdf_integral(self):
        p = FadingParams(3, 1.5)
        for x in (0.2, 1.0, 4.0):
            ref, _ = integrate.quad(lambda y: gamma_pdf(p, y), 0, x)
            assert_allclose(gamma_cdf(p, x), ref, rtol=1e-10)

    def test_limits_and_monotonicity(self):
        p = FadingParams(2, 1.0)
        assert gamma_cdf(p, 0.0) == 0.0
        assert gamma_cdf(p, -3.0) == 0.0
        assert gamma_cdf(p, 1e8) == 1.0
        xs = np.linspace(0, 10, 200)
        vals = gamma_cdf(p, xs)
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_product_past_double_range_is_one_without_warning(self):
        # x * mu / omega overflows to inf, where the CDF is exactly 1
        for mu in (1, 3):
            p = FadingParams(mu, 1e-300)
            assert gamma_cdf(p, 1e10) == 1.0
            assert gamma_cdf(p, np.array([1e10, 0.0])).tolist() == [1.0, 0.0]


@pytest.mark.filterwarnings("error")
class TestRateOverflow:
    """A mean below mu / DBL_MAX makes mu / omega inf: all mass sits at 0."""

    P = FadingParams(1, 1e-310)

    def test_rate_is_inf(self):
        assert self.P.rate == math.inf

    def test_density_is_zero_everywhere(self):
        assert gamma_pdf(self.P, [1e-320, 1.0, 2.0]).tolist() == [0.0, 0.0, 0.0]
        assert gamma_pdf(self.P, 0.0) == 0.0 and gamma_pdf(self.P, 1.0) == 0.0
        for rank in (1, 3):
            out = ordered_pdf(self.P, OrderedIndex(rank, 3), np.array([0.0, 1e-320, 1.0]))
            assert out.tolist() == [0.0, 0.0, 0.0]

    def test_cdf_is_a_unit_step_at_zero(self):
        assert gamma_cdf(self.P, np.array([-1.0, 0.0, 1e-320, 1.0])).tolist() == [
            0.0, 0.0, 1.0, 1.0]
        assert gamma_cdf(self.P, np.array([0.0, 1e-320])).tolist() == [0.0, 1.0]
        assert at(ordered_cdf, self.P, OrderedIndex(2, 3), 1.0) == 1.0
        assert ordered_cdf_quadrature(self.P, OrderedIndex(2, 3), 1.0) == 1.0


class TestSmallArgCdf:
    """The leading term of one gain's CDF: the ordered form at rank 1 of 1."""

    def test_frozen_leading_term(self):
        # (mu x / omega)^mu / mu! at mu=3, omega=2, x=1e-3
        assert_allclose(
            at(ordered_cdf_small_arg, FadingParams(3, 2.0), OrderedIndex(1, 1), 1e-3),
            5.625e-10,
            rtol=1e-12,
        )

    def test_ratio_to_exact_approaches_one(self):
        p = FadingParams(2, 1.0)
        ratios = [at(ordered_cdf_small_arg, p, OrderedIndex(1, 1), x) / gamma_cdf(p, x)
                  for x in (1e-2, 1e-4, 1e-6)]
        errs = [abs(r - 1.0) for r in ratios]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-5

    def test_zero_at_origin(self):
        assert at(ordered_cdf_small_arg, FadingParams(2, 1.0), OrderedIndex(1, 1), 0.0) == 0.0


class TestOrderedCdf:
    def test_single_user_reduces_to_plain_cdf(self):
        p = FadingParams(2, 1.5)
        for x in (0.1, 1.0, 5.0):
            assert_allclose(
                at(ordered_cdf, p, OrderedIndex(1, 1), x), gamma_cdf(p, x), rtol=1e-14
            )

    def test_extreme_ranks_have_closed_forms(self):
        # min of M: 1 - (1-F)^M; max of M: F^M
        p = FadingParams(2, 1.0)
        for total in (2, 4, 7):
            for x in (0.3, 1.2, 3.0):
                big_f = gamma_cdf(p, x)
                assert_allclose(
                    at(ordered_cdf, p, OrderedIndex(1, total), x),
                    1.0 - (1.0 - big_f) ** total,
                    rtol=1e-13,
                )
                assert_allclose(
                    at(ordered_cdf, p, OrderedIndex(total, total), x),
                    big_f**total,
                    rtol=1e-13,
                )

    def test_matches_regularized_beta(self):
        # order-statistic CDF = I_F(rank, total-rank+1), here mpmath's
        for mu, omega in [(1, 1.0), (3, 0.5)]:
            p = FadingParams(mu, omega)
            for total in (3, 5):
                for rank in range(1, total + 1):
                    for x in (0.05, 0.5, 1.5, 4.0):
                        big_f = gamma_cdf(p, x)
                        with mp.workdps(30):
                            ref = float(mp.betainc(rank, total - rank + 1, 0, big_f,
                                                   regularized=True))
                        assert_allclose(
                            at(ordered_cdf, p, OrderedIndex(rank, total), x), ref, rtol=1e-12
                        )

    @pytest.mark.parametrize("total", [20, 40, 60, 100, 1000])
    def test_matches_exact_binomial_tail_on_large_pools(self, total):
        # F from 1e-300 to 0.99 reaches both the incomplete-beta path and
        # the log-domain tail where F**rank underflows; refs below the
        # double range must clamp to 0
        p = FadingParams(1, 1.0)  # F(x) = 1 - exp(-x)
        for rank in sorted({1, 2, total // 4, total // 2, total - 1, total}):
            for big_f in (1e-300, 1e-30, 1e-3, 0.05, 0.3, 0.7, 0.99):
                x = -math.log1p(-big_f)
                got = at(ordered_cdf, p, OrderedIndex(rank, total), x)
                ref = binomial_tail_mp(rank, total, gamma_cdf(p, x))
                if ref < 2.2250738585072014e-308:
                    assert got == 0.0, (rank, big_f)
                else:
                    assert_allclose(got, float(ref), rtol=1e-11, err_msg=f"{rank} {big_f}")

    def test_mixture_identity(self):
        # averaging over ranks recovers the plain CDF
        for mu in (1, 2, 3):
            p = FadingParams(mu, 2.0)
            for total in (2, 5):
                for x in np.linspace(0.05, 8.0, 40):
                    mix = math.fsum(
                        at(ordered_cdf, p, OrderedIndex(rank, total), x)
                        for rank in range(1, total + 1)
                    ) / total
                    assert abs(mix - gamma_cdf(p, x)) <= 1e-12

    def test_nonincreasing_in_rank(self):
        p = FadingParams(2, 1.0)
        for x in (0.2, 1.0, 3.0):
            vals = [at(ordered_cdf, p, OrderedIndex(r, 5), x) for r in range(1, 6)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_underflow_falls_back_to_leading_term(self):
        # F ~ 1e-75, rank 4: F^4 underflows but the log-domain lead survives
        p = FadingParams(1, 1.0)
        x = 1e-75
        got = at(ordered_cdf, p, OrderedIndex(4, 5), x)
        assert got > 0.0
        assert_allclose(got, at(ordered_cdf_small_arg, p, OrderedIndex(4, 5), x), rtol=1e-10)

    def test_deep_underflow_clamps_to_zero(self):
        p = FadingParams(1, 1.0)
        assert at(ordered_cdf, p, OrderedIndex(5, 5), 1e-110) == 0.0

    def test_bounds_and_edges(self):
        p = FadingParams(2, 1.0)
        idx = OrderedIndex(2, 4)
        assert at(ordered_cdf, p, idx, 0.0) == 0.0
        assert at(ordered_cdf, p, idx, -1.0) == 0.0
        assert at(ordered_cdf, p, idx, math.inf) == 1.0
        assert at(ordered_cdf, p, idx, 1e9) == 1.0

    def test_array_is_scalar_calls_bit_for_bit(self):
        # one gamma_p_grid call over the array, the binomial tail and the
        # clamps per element: each element is the one-element call at its cut
        xs = np.array([-1.0, 0.0, 1e-300, 1e-110, 1e-75, 1e-20, 1e-3, 0.3, 1.0, 4.0, 60.0,
                       1e9, math.inf])
        for p in (FadingParams(1, 1.0), FadingParams(3, 0.7), FadingParams(2, 1e-310)):
            for idx in (OrderedIndex(1, 1), OrderedIndex(2, 4), OrderedIndex(5, 5),
                        OrderedIndex(30, 200)):
                got = ordered_cdf(p, idx, xs)
                assert isinstance(got, np.ndarray)
                assert got.tolist() == [at(ordered_cdf, p, idx, x) for x in xs.tolist()]
                lead = ordered_cdf_small_arg(p, idx, xs[2:])
                assert lead.tolist() == [at(ordered_cdf_small_arg, p, idx, x)
                                         for x in xs[2:].tolist()]
        assert ordered_cdf(FadingParams(1, 1.0), OrderedIndex(1, 2), np.array([])).size == 0

    def test_edges_and_nan_pass_through_the_plain_cdf(self):
        # gamma_cdf gives F = 0 at x <= 0 and F = 1 at x = inf, where the
        # tail equals F, and NaN at a NaN cut; each is the one-element call
        xs = np.array([-math.inf, -1.0, -0.0, 0.0, math.inf, math.nan])
        for p in (FadingParams(1, 1.0), FadingParams(3, 0.7), FadingParams(40, 1e3)):
            for idx in (OrderedIndex(1, 1), OrderedIndex(2, 4), OrderedIndex(30, 200)):
                got = ordered_cdf(p, idx, xs)
                np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.0, 1.0, math.nan])
                assert not np.signbit(got[:4]).any()
                np.testing.assert_array_equal(
                    got, [ordered_cdf(p, idx, np.array([x])).item() for x in xs.tolist()])


class TestOrderedPdf:
    def test_finite_difference_of_cdf(self):
        p = FadingParams(2, 1.0)
        idx = OrderedIndex(2, 4)
        for x in (0.3, 1.0, 2.5):
            h = 1e-6
            fd = (at(ordered_cdf, p, idx, x + h) - at(ordered_cdf, p, idx, x - h)) / (2 * h)
            assert_allclose(ordered_pdf(p, idx, x), fd, rtol=1e-5)

    def test_integrates_to_cdf(self):
        p = FadingParams(3, 2.0)
        idx = OrderedIndex(3, 5)
        for x in (0.5, 2.0, 6.0):
            ref, _ = integrate.quad(lambda y: ordered_pdf(p, idx, y), 0, x, limit=200)
            assert_allclose(ref, at(ordered_cdf, p, idx, x), rtol=1e-9)

    def test_zero_outside_support(self):
        p = FadingParams(2, 1.0)
        idx = OrderedIndex(1, 3)
        assert ordered_pdf(p, idx, 0.0) == 0.0
        assert ordered_pdf(p, idx, -2.0) == 0.0

    def test_array_matches_scalar_calls(self):
        p = FadingParams(3, 2.0)
        idx = OrderedIndex(2, 4)
        x = np.array([-1.0, 0.0, 1e-9, 0.3, 2.5, 40.0, math.inf])
        out = ordered_pdf(p, idx, x)
        assert out.shape == x.shape
        assert out.tolist() == [at(ordered_pdf, p, idx, v) for v in x]
        assert out[0] == out[1] == out[-1] == 0.0 and out[2] > 0.0


class TestOrderedSmallArg:
    def test_decay_exponent_is_mu_times_rank(self):
        for mu in (1, 2):
            p = FadingParams(mu, 1.0)
            for rank, total in [(1, 5), (2, 5), (3, 3)]:
                idx = OrderedIndex(rank, total)
                v1 = at(ordered_cdf_small_arg, p, idx, 1e-4)
                v2 = at(ordered_cdf_small_arg, p, idx, 1e-5)
                slope = (math.log10(v1) - math.log10(v2))
                assert_allclose(slope, mu * rank, rtol=1e-10)

    def test_ratio_to_exact_approaches_one(self):
        p = FadingParams(2, 1.0)
        idx = OrderedIndex(2, 5)
        for x, tol in [(1e-2, 0.2), (1e-4, 2e-3)]:
            ratio = at(ordered_cdf_small_arg, p, idx, x) / at(ordered_cdf, p, idx, x)
            assert abs(ratio - 1.0) < tol

    def test_past_the_double_range_returns_inf(self):
        # ln of the term is 5 * (32 ln 32 - ln 32!) = 147 at x = 1, and
        # 5 * 32 * ln 100 = 737 more at x = 100, past ln(max double) = 709.8
        p = FadingParams(32, 1.0)
        idx = OrderedIndex(5, 5)
        assert math.isfinite(at(ordered_cdf_small_arg, p, idx, 1.0))
        assert at(ordered_cdf_small_arg, p, idx, 100.0) == math.inf
        assert at(ordered_cdf_small_arg, p, idx, math.inf) == math.inf


class TestOrderedCdfSeries:
    def test_matches_stable_form_at_moderate_arguments(self):
        # the incomplete beta function of F agrees with the quadrature of
        # the order-statistic density where the plain CDF is not tiny
        for mu in (1, 2, 3):
            p = FadingParams(mu, 1.3)
            for rank, total in [(1, 5), (2, 3), (3, 5), (5, 5), (7, 20), (30, 60),
                                (50, 100), (100, 100), (1, 1000), (333, 1000),
                                (500, 1000), (1000, 1000)]:
                idx = OrderedIndex(rank, total)
                for x in (0.4, 1.0, 2.0, 4.0):
                    big_f = gamma_cdf(p, x)
                    if not 0.05 <= big_f <= 0.95:
                        continue
                    assert_allclose(
                        ordered_cdf_quadrature(p, idx, x),
                        at(ordered_cdf, p, idx, x),
                        rtol=1e-7,
                    )


class TestSampling:
    def test_reproducible(self):
        p = FadingParams(2, 1.0)
        a = sample_gain(p, np.random.default_rng(42), size=1000)
        b = sample_gain(p, np.random.default_rng(42), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_and_shapes(self):
        p = FadingParams(3, 2.0)
        rng = np.random.default_rng(1)
        scalar = sample_gain(p, rng)
        assert isinstance(scalar, float)
        arr = sample_gain(p, rng, size=(4, 5))
        assert arr.shape == (4, 5)
        sorted_arr = sample_sorted_gains(p, 6, rng, size=10)
        assert sorted_arr.shape == (10, 6)
        assert np.all(np.diff(sorted_arr, axis=-1) >= 0)

    def test_mean_matches_omega(self):
        p = FadingParams(2, 3.0)
        draws = sample_gain(p, np.random.default_rng(7), size=200_000)
        # SE of the mean is omega/sqrt(mu n) ~ 0.005
        assert abs(draws.mean() - 3.0) < 4 * 3.0 / math.sqrt(2 * 200_000)

    def test_ks_against_cdf(self):
        p = FadingParams(2, 3.0)
        draws = sample_gain(p, np.random.default_rng(123), size=1_000_000)
        stat = stats.kstest(draws, lambda x: gamma_cdf(p, x)).statistic
        assert stat * math.sqrt(draws.size) < KS_CRIT_999

    def test_amplitude_change_of_variables(self):
        # the envelope (sqrt of the power gain) has CDF F(x^2); checking the
        # sampled envelope against it validates the power-domain convention
        p = FadingParams(3, 1.5)
        draws = np.sqrt(sample_gain(p, np.random.default_rng(5), size=200_000))
        stat = stats.kstest(draws, lambda x: gamma_cdf(p, np.square(x))).statistic
        assert stat * math.sqrt(draws.size) < KS_CRIT_999

    def test_sorted_rank_matches_ordered_cdf(self):
        p = FadingParams(1, 1.0)
        total = 5
        draws = sample_sorted_gains(p, total, np.random.default_rng(9), size=200_000)
        for rank, x in [(1, 0.2), (3, 0.8), (5, 2.0)]:
            emp = float(np.mean(draws[:, rank - 1] <= x))
            ref = at(ordered_cdf, p, OrderedIndex(rank, total), x)
            se = math.sqrt(ref * (1 - ref) / draws.shape[0])
            assert abs(emp - ref) < 4 * se


class TestInPlaceSampling:
    """The ``out=`` path draws the same gains as the allocating path, and
    the sort network gives the same pools as ``np.sort``, bit for bit."""

    @pytest.mark.parametrize("pool", [1, 2, 3, 4, 5])
    def test_network_equals_np_sort(self, pool):
        rng = np.random.default_rng(pool)
        # exponentials, then ties and zeros: few distinct values per row
        cases = [rng.standard_exponential((4096, pool), method="inv"),
                 rng.integers(0, 3, size=(4096, pool)).astype(float),
                 np.zeros((3, pool)), np.full((3, pool), math.inf)]
        for gains in cases:
            want = np.sort(gains, axis=-1)
            got = _sort_pools(gains.copy())
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # one pool without a leading axis
        assert np.array_equal(_sort_pools(cases[0][0].copy()), np.sort(cases[0][0]))

    def test_networks_sort_every_zero_one_input(self):
        # a comparator network sorts every input iff it sorts every 0-1
        # input (Knuth, TAOCP vol. 3, 5.3.4, exercise 8)
        for pool in _SORT_NETWORKS:
            rows = np.array(list(itertools.product((0.0, 1.0), repeat=pool)))
            assert np.array_equal(_sort_pools(rows.copy()), np.sort(rows, axis=-1)), pool

    def test_large_pools_sort_in_place(self):
        gains = np.random.default_rng(6).standard_exponential((500, 40))
        want = np.sort(gains, axis=-1)
        got = _sort_pools(gains)
        assert got is gains and np.array_equal(got, want)

    @pytest.mark.parametrize("pool", [1, 2, 3, 4, 5, 40])
    @pytest.mark.parametrize("rows", [1, _SORT_ROWS - 1, _SORT_ROWS, _SORT_ROWS + 1,
                                      3 * _SORT_ROWS + 7])
    def test_sort_in_place_across_row_chunks(self, pool, rows):
        # the network runs _SORT_ROWS pools at a time: every pool on either
        # side of a chunk edge sorts as np.sort does, in place, also under a
        # leading axis and in strided views, and nothing outside them moves
        rng = np.random.default_rng(rows + pool)
        cases = [
            (rng.standard_exponential((rows, pool)), lambda a: a),
            (rng.standard_exponential((2, rows, pool)), lambda a: a),
            (rng.standard_exponential((2, rows + 3, pool + 2)),
             lambda a: a[:, 2:rows + 2, 1:pool + 1]),
            (rng.standard_exponential((pool, rows, 2)), lambda a: a.transpose(2, 1, 0)),
        ]
        cases[0][0][::5] = rng.integers(0, 2, size=cases[0][0][::5].shape)  # ties
        for base, view in cases:
            want = base.copy()
            view(want)[...] = np.sort(view(base), axis=-1)
            gains = view(base)
            assert _sort_pools(gains) is gains
            assert np.array_equal(base.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mu", [1, 2, 3, 7])
    @pytest.mark.parametrize("omega", [1.0, 2.5, "mu"])
    def test_sample_gain_out_equals_allocating_path(self, mu, omega):
        p = FadingParams(mu, float(mu) if omega == "mu" else omega)
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        want = sample_gain(p, a, size=(300, 4))
        block = np.full((310, 4), -1.0)
        got = sample_gain(p, b, out=block[5:305])
        assert got.base is block
        assert np.array_equal(block[5:305], want)
        assert (block[:5] == -1.0).all() and (block[305:] == -1.0).all()
        assert a.bit_generator.state == b.bit_generator.state
        # the allocating path is one standard_gamma draw, scaled to the mean
        unit = np.random.default_rng(21).standard_gamma(mu, (300, 4))
        assert np.array_equal(want, unit * (p.omega / p.mu))

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("size", [1, 7, 8193, (40, 9)])
    def test_unit_shape_draws_the_gamma_stream(self, size, omega):
        # at mu = 1 the gains come from standard_exponential, the branch
        # that standard_gamma takes at shape 1: the same values and the same
        # final generator state, on both paths; should a numpy release part
        # the two, this fails before any p_mc byte moves
        p = FadingParams(1, omega)
        ref = np.random.default_rng(17)
        want = ref.standard_gamma(1.0, size)
        if omega != 1.0:
            want *= omega
        rng = np.random.default_rng(17)
        got = sample_gain(p, rng, size=size)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state
        # out= into a view of a larger block (rows 3.. of a 2-D one)
        shape = (size,) if isinstance(size, int) else size
        block = np.full((shape[0] + 5, *shape[1:]), -1.0)
        rng = np.random.default_rng(17)
        assert sample_gain(p, rng, out=block[3:3 + shape[0]]).base is block
        assert np.array_equal(block[3:3 + shape[0]].view(np.uint64), want.view(np.uint64))
        assert (block[:3] == -1.0).all() and (block[3 + shape[0]:] == -1.0).all()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mu", [1, 2, 3])
    @pytest.mark.parametrize("total", [1, 3, 5, 6])
    def test_sample_sorted_gains_out_equals_allocating_path(self, mu, total):
        p = FadingParams(mu, 1.7)
        want = sample_sorted_gains(p, total, np.random.default_rng(5), size=777)
        out = np.empty((777, total))
        got = sample_sorted_gains(p, total, np.random.default_rng(5), out=out)
        assert got is out and np.array_equal(got, want)
        # and both equal np.sort of the unsorted draw
        raw = sample_gain(p, np.random.default_rng(5), size=(777, total))
        assert np.array_equal(want, np.sort(raw, axis=-1))

    def test_sorted_out_must_end_in_the_pool(self):
        with pytest.raises(ValueError):
            sample_sorted_gains(FadingParams(1, 1.0), 3, np.random.default_rng(0),
                                out=np.empty((10, 4)))
