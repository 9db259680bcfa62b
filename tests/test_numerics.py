"""Unit tests for the combinatorial and quadrature primitives."""

import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noma_perf.numerics import (
    EXP_SINH_HALF_WIDTH,
    MAX_LEVELS,
    REL_TOL,
    QuadratureError,
    integrate_from_zero,
    integrate_semi_infinite,
    log_binomial,
)


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


class TestIntegrateSemiInfinite:
    def test_exponential_tail(self):
        for a in (0.0, 0.7, 5.0):
            res = integrate_semi_infinite(lambda x, rows: np.exp(-x), a)
            assert res.converged
            assert res.value.shape == res.error.shape == (1,)
            assert_allclose(res.value[0], math.exp(-a), rtol=1e-12)

    def test_gaussian_tail_matches_erfc(self):
        res = integrate_semi_infinite(lambda x, rows: np.exp(-x * x), 1.0)
        assert_allclose(res.value, 0.5 * math.sqrt(math.pi) * math.erfc(1.0), rtol=1e-12)

    def test_tiny_tail_keeps_relative_accuracy(self):
        # a ~1e-12 integral is resolved relatively, not accepted as "small"
        res = integrate_semi_infinite(lambda x, rows: np.exp(-x), 27.0)
        assert_allclose(res.value, math.exp(-27.0), rtol=1e-9)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(lambda x, rows: np.sin(x), 0.0)
        assert math.isfinite(info.value.error)
        assert info.value.row == 0

    def test_rejects_nonfinite_lower(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, math.inf)

    def test_each_level_adds_only_new_nodes(self):
        seen = []

        def f(y, rows):
            seen.append(y.ravel())
            return np.exp(-y)

        res = integrate_semi_infinite(f, 0.0)
        nodes = np.concatenate(seen)
        assert len(seen) > 2 and np.unique(nodes).size == nodes.size
        # the level difference is the error estimate
        assert 0.0 <= res.error[0] <= 1e-12 * res.value[0]


class TestIntegrateFromZero:
    def test_polynomial_and_exponential(self):
        for upper in (0.3, 1.0, 15.0):
            assert_allclose(integrate_from_zero(lambda y, rows: 3.0 * y * y, upper).value,
                            [upper**3], rtol=1e-13)
            assert_allclose(integrate_from_zero(lambda y, rows: np.exp(-y), upper).value,
                            [-math.expm1(-upper)], rtol=1e-13)

    def test_tiny_interval_keeps_relative_accuracy(self):
        # a power-law density near 0: the nodes there carry full relative precision
        for upper in (1e-8, 1e-30):
            res = integrate_from_zero(lambda y, rows: 6.0 * y**5, upper)
            assert res.converged
            assert_allclose(res.value, [upper**6], rtol=1e-12)

    def test_endpoint_singularity_converges(self):
        # the rule stops 2.7e-23 of the interval short of 0, which cuts
        # sqrt(1.1e-22) ~ 1e-11 off this integral
        res = integrate_from_zero(lambda y, rows: 0.5 / np.sqrt(y), 4.0)
        assert res.converged
        assert_allclose(res.value, [2.0], rtol=1e-10)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_from_zero(lambda y, rows: 1.0 / y, 1.0)

    def test_rejects_bad_upper(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_from_zero(np.zeros_like, bad)


def _rows_of(fns):
    """A batched integrand applying ``fns[row]`` to each row's nodes, and
    a counter of the levels each row was evaluated on."""
    levels = collections.Counter()

    def fn(y, rows):
        levels.update(rows.tolist())
        return np.stack([fns[row](nodes) for row, nodes in zip(rows, y)])

    return fn, levels


def scalar_exp_sinh(fn, lower):
    """The exp-sinh rule on one integral, one level of 1-D nodes at a time,
    each level summed as one dot product: the arithmetic every row of a
    batch must reproduce bit for bit."""
    step, total, value = 1.0, 0.0, math.nan
    t = np.arange(-4.0, 5.0)
    for _ in range(MAX_LEVELS + 1):
        offset = np.exp(0.5 * math.pi * np.sinh(t))
        total += float(np.dot(0.5 * math.pi * np.cosh(t) * offset, fn(lower + offset)))
        previous, value = value, step * total
        if abs(value - previous) <= REL_TOL * abs(value):
            return value
        step *= 0.5
        t = np.arange(step, EXP_SINH_HALF_WIDTH, 2.0 * step)
        t = np.concatenate((-t[::-1], t))
    raise AssertionError("the reference did not converge")


class TestBatchedRows:
    # a zero row converges on level 1, (1 + y)**-3 on level 3 and exp(-y)
    # on level 5 (levels counted from 0 at step 1)
    SEMI = (lambda y: np.zeros_like(y), lambda y: (1.0 + y) ** -3, lambda y: np.exp(-y))

    @staticmethod
    def one_row(rule, fn, limit):
        batched, levels = _rows_of([fn])
        res = rule(batched, limit)
        return levels[0], res.value[0], res.error[0]

    def test_converged_row_keeps_its_value_while_others_refine(self):
        lower = np.zeros(len(self.SEMI))
        fn, levels = _rows_of(self.SEMI)
        res = integrate_semi_infinite(fn, lower)
        alone = [self.one_row(integrate_semi_infinite, f, 0.0) for f in self.SEMI]
        assert [levels[row] for row in range(3)] == [n for n, _, _ in alone] == [2, 4, 6]
        # bit for bit the values and errors of one-row runs
        assert res.value.tolist() == [v for _, v, _ in alone]
        assert res.error.tolist() == [e for _, _, e in alone]
        assert res.value[0] == 0.0 and res.converged is True

    def test_per_row_limits_match_one_row_runs(self):
        # rows whose last bits depend on the order each level is summed in
        lower = np.array([5.0, 0.0, 0.7, 27.0, 0.0, 3.0, 0.7])
        fns = [lambda y: np.exp(-y), lambda y: np.exp(-y * y), lambda y: np.exp(-y),
               lambda y: np.exp(-y), lambda y: y * np.exp(-y), lambda y: 1.0 / (1.0 + y * y),
               lambda y: np.exp(-y) * (1.5 + np.sin(7.0 * y))]
        res = integrate_semi_infinite(_rows_of(fns)[0], lower)
        assert res.value.tolist() == [
            self.one_row(integrate_semi_infinite, f, a)[1] for f, a in zip(fns, lower)]
        assert res.value.tolist() == [scalar_exp_sinh(f, a) for f, a in zip(fns, lower)]
        upper = np.array([15.0, 1e-30, 0.3])
        fns = [lambda y: np.exp(-y), lambda y: 6.0 * y**5, lambda y: 3.0 * y * y]
        fn, _ = _rows_of(fns)
        res = integrate_from_zero(fn, upper)
        assert res.value.tolist() == [
            self.one_row(integrate_from_zero, f, b)[1] for f, b in zip(fns, upper)]

    # node counts of both rules' levels and the lengths around BLAS ddot's
    # unrolling and blocking boundaries
    DOT_LENGTHS = (*range(1, 200), 255, 256, 257, 511, 512, 1023, 1024, 2047, 4097)

    @pytest.mark.parametrize("shared_weights", [True, False])
    def test_level_sum_is_each_rows_own_dot_product(self, shared_weights):
        # a level sums every row with one np.vecdot, which must give each
        # row the bits of np.dot of its two vectors
        rng = np.random.default_rng(28)
        for n in self.DOT_LENGTHS:
            for rows in (1, 3, 61, 183):
                values = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-30, 30, (rows, n)))
                weight = rng.standard_normal(n if shared_weights else (rows, n))
                want = [np.dot(w, v) for w, v in zip(np.broadcast_to(weight, values.shape),
                                                     values)]
                assert np.vecdot(weight, values).tolist() == want, (n, rows)

    def test_first_failing_row_is_named(self):
        fns = [lambda y: np.exp(-y), np.sin, lambda y: np.exp(-y), np.cos]
        fn, _ = _rows_of(fns)
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(fn, np.zeros(4))
        with pytest.raises(QuadratureError) as alone:
            integrate_semi_infinite(_rows_of([np.sin])[0], 0.0)
        assert info.value.row == 1 and alone.value.row == 0
        assert (info.value.estimate, info.value.error) == (alone.value.estimate,
                                                           alone.value.error)
        assert str(info.value) == str(alone.value)
        fn, _ = _rows_of([lambda y: 3.0 * y * y, lambda y: 1.0 / y])
        with pytest.raises(QuadratureError) as info:
            integrate_from_zero(fn, np.ones(2))
        assert info.value.row == 1

    def test_empty_batch_evaluates_nothing(self):
        res = integrate_semi_infinite(_rows_of([])[0], np.zeros(0))
        assert res.value.shape == res.error.shape == (0,) and res.converged

    def test_rejects_bad_limit_shapes_and_rows(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, [0.0, math.nan])
        with pytest.raises(ValueError):
            integrate_from_zero(np.zeros_like, [1.0, 0.0])
