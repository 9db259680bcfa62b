"""Unit tests for the special-function and combinatorial primitives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from noma_perf.numerics import (
    QuadratureError,
    bessel_k_scaled,
    integrate_from_zero,
    integrate_semi_infinite,
    log_binomial,
    log_gamma,
)

# Frozen reference values for K_v(x), computed once from the integral
# representation int_0^inf exp(-x cosh t) cosh(v t) dt with adaptive
# quadrature at 1e-13 relative tolerance.
BESSEL_K_REFERENCE = {
    (0, 0.5): 0.9244190712276659,
    (1, 1.0): 0.6019072301972347,
    (2, 3.0): 0.06151045847174204,
    (3, 1.5): 1.8338037024745795,
}


class TestLogGamma:
    def test_matches_factorials(self):
        for n in range(1, 15):
            assert_allclose(log_gamma(n + 1), math.log(math.factorial(n)), rtol=1e-14)

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-14)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -3.5):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestLogBinomial:
    def test_matches_comb(self):
        for n in range(0, 20):
            for k in range(0, n + 1):
                assert_allclose(log_binomial(n, k), math.log(math.comb(n, k)), atol=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)


class TestBesselK:
    def test_frozen_integral_representation_values(self):
        for (v, x), ref in BESSEL_K_REFERENCE.items():
            assert_allclose(bessel_k_scaled(v, x) * math.exp(-x), ref, rtol=1e-12)

    def test_integral_representation_fresh(self):
        # recompute the representation with the package quadrature; caps the
        # hyperbolic cosine so the integrand underflows cleanly
        def oracle(v, x):
            def f(t):
                a = -x * np.cosh(np.minimum(t, 700.0))
                out = np.zeros_like(t)
                keep = (t <= 700.0) & (a > -745)
                out[keep] = np.exp(a[keep]) * np.cosh(v * t[keep])
                return out

            return integrate_semi_infinite(f, 0.0).value

        for v in (0, 1, 2, 4):
            for x in (0.3, 1.0, 2.5, 8.0):
                assert_allclose(bessel_k_scaled(v, x) * math.exp(-x), oracle(v, x),
                                rtol=1e-10)

    def test_scaled_consistency(self):
        for v in (0, 1, 3):
            for x in (0.5, 2.0, 30.0):
                assert_allclose(bessel_k_scaled(v, x), special.kv(v, x) * math.exp(x),
                                rtol=1e-12)

    def test_scaled_survives_huge_argument(self):
        # plain K underflows around x ~ 700; the scaled form must not
        assert special.kv(1, 800.0) == 0.0
        val = bessel_k_scaled(1, 1e8)
        assert 0 < val < 1
        # asymptotically kve -> sqrt(pi / (2 x))
        assert_allclose(val, math.sqrt(math.pi / 2e8), rtol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k_scaled(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_k_scaled(1, 0.0)
        with pytest.raises(ValueError):
            bessel_k_scaled(2, -3.0)


class TestIntegrateSemiInfinite:
    def test_exponential_tail(self):
        for a in (0.0, 0.7, 5.0):
            res = integrate_semi_infinite(lambda x: np.exp(-x), a)
            assert res.converged
            assert_allclose(res.value, math.exp(-a), rtol=1e-12)

    def test_gaussian_tail_matches_erfc(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x * x), 1.0)
        assert_allclose(res.value, 0.5 * math.sqrt(math.pi) * math.erfc(1.0), rtol=1e-12)

    def test_tiny_tail_keeps_relative_accuracy(self):
        # a ~1e-12 integral is resolved relatively, not accepted as "small"
        res = integrate_semi_infinite(lambda x: np.exp(-x), 27.0)
        assert_allclose(res.value, math.exp(-27.0), rtol=1e-9)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(np.sin, 0.0)
        assert math.isfinite(info.value.error)

    def test_rejects_nonfinite_lower(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, math.inf)

    def test_each_level_adds_only_new_nodes(self):
        seen = []

        def f(y):
            seen.append(y.copy())
            return np.exp(-y)

        res = integrate_semi_infinite(f, 0.0)
        nodes = np.concatenate(seen)
        assert len(seen) > 2 and np.unique(nodes).size == nodes.size
        # the level difference is the error estimate
        assert 0.0 <= res.error <= 1e-12 * res.value


class TestIntegrateFromZero:
    def test_polynomial_and_exponential(self):
        for upper in (0.3, 1.0, 15.0):
            assert_allclose(integrate_from_zero(lambda y: 3.0 * y * y, upper).value,
                            upper**3, rtol=1e-13)
            assert_allclose(integrate_from_zero(lambda y: np.exp(-y), upper).value,
                            -math.expm1(-upper), rtol=1e-13)

    def test_tiny_interval_keeps_relative_accuracy(self):
        # a power-law density near 0: the nodes there carry full relative precision
        for upper in (1e-8, 1e-30):
            res = integrate_from_zero(lambda y: 6.0 * y**5, upper)
            assert res.converged
            assert_allclose(res.value, upper**6, rtol=1e-12)

    def test_endpoint_singularity_converges(self):
        # the rule stops 2.7e-23 of the interval short of 0, which cuts
        # sqrt(1.1e-22) ~ 1e-11 off this integral
        res = integrate_from_zero(lambda y: 0.5 / np.sqrt(y), 4.0)
        assert res.converged
        assert_allclose(res.value, 2.0, rtol=1e-10)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_from_zero(lambda y: 1.0 / y, 1.0)

    def test_rejects_bad_upper(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_from_zero(np.zeros_like, bad)
