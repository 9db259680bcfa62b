"""Unit tests for the combinatorial and quadrature primitives."""

import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noma_perf.numerics import (
    LOG_TRAPEZOID_HALF_WIDTH,
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


def in_log(f, shift=0.0):
    """The integrand e^v f(shift + e^v) in v = ln u of f over (shift, inf)."""
    return lambda v, rows: np.exp(v) * f(shift + np.exp(v))


class TestIntegrateSemiInfinite:
    def test_exponential_tail(self):
        for a in (0.0, 0.7, 5.0):
            res = integrate_semi_infinite(in_log(lambda x: np.exp(-x), a), -40.0, 4.0)
            assert res.converged
            assert res.value.shape == res.error.shape == (1,)
            assert_allclose(res.value[0], math.exp(-a), rtol=1e-12)

    def test_gaussian_tail_matches_erfc(self):
        res = integrate_semi_infinite(in_log(lambda x: np.exp(-x * x), 1.0), -40.0, 2.0)
        assert_allclose(res.value, 0.5 * math.sqrt(math.pi) * math.erfc(1.0), rtol=1e-12)

    def test_tiny_tail_keeps_relative_accuracy(self):
        # a ~1e-12 integral is resolved relatively, not accepted as "small"
        res = integrate_semi_infinite(in_log(lambda x: np.exp(-x), 27.0), -40.0, 4.0)
        assert_allclose(res.value, math.exp(-27.0), rtol=1e-9)

    def test_features_hundreds_of_decades_apart(self):
        # 1 / (1 + u)**2 from u = 1e-200, where the mass starts, to 1e200,
        # where it ends: one window in ln u holds both
        res = integrate_semi_infinite(in_log(lambda u: (1.0 + u) ** -2), -500.0, 500.0)
        assert_allclose(res.value, [1.0], rtol=1e-12)

    def test_offset_stops_rows_a_known_part_dwarfs(self):
        # the same integral added to 1e9 needs fewer levels, and the sum
        # keeps REL_TOL relative to that sum
        fn, levels = _rows_of([lambda v: np.exp(v - np.exp(v))] * 2)
        res = integrate_semi_infinite(fn, -40.0, 4.0, np.array([0.0, 1e9]))
        assert levels[1] < levels[0]
        assert abs(res.value[1] - 1.0) <= REL_TOL * (1e9 + 1.0)
        assert_allclose(res.value[0], 1.0, rtol=1e-12)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(in_log(np.sin), -5.0, 10.0)
        assert math.isfinite(info.value.error)
        assert info.value.row == 0

    def test_rejects_nonfinite_lower(self):
        for low, high in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                integrate_semi_infinite(np.zeros_like, low, high)

    def test_each_level_adds_only_new_nodes(self):
        seen = []

        def f(v, rows):
            seen.append(v.ravel())
            return np.exp(v - np.exp(v))

        res = integrate_semi_infinite(f, -40.0, 4.0)
        nodes = np.concatenate(seen)
        assert len(seen) > 2 and np.unique(nodes).size == nodes.size
        # every node lies in the window, both edges included
        assert nodes.min() == -40.0 and nodes.max() == 4.0
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


def scalar_log_trapezoid(fn, low, high):
    """The ln-u trapezoid rule on one integral, one level of 1-D nodes at
    a time, each level summed as one dot product: the arithmetic every
    row of a batch must reproduce bit for bit."""
    mid, stretch = 0.5 * (low + high), 0.5 * (high - low) / LOG_TRAPEZOID_HALF_WIDTH
    step, total, value = 1.0, 0.0, math.nan
    t = np.arange(-LOG_TRAPEZOID_HALF_WIDTH, LOG_TRAPEZOID_HALF_WIDTH + 1.0)
    for _ in range(MAX_LEVELS + 1):
        total += float(np.dot(np.full(t.size, stretch), fn(mid + stretch * t)))
        previous, value = value, step * total
        if abs(value - previous) <= REL_TOL * abs(value):
            return value
        step *= 0.5
        t = np.arange(step, LOG_TRAPEZOID_HALF_WIDTH, 2.0 * step)
        t = np.concatenate((-t[::-1], t))
    raise AssertionError("the reference did not converge")


class TestBatchedRows:
    # integrands in v = ln u, each over its window: a zero row converges on
    # level 1, the other two on later levels (counted from 0 at step 1)
    SEMI = ((np.zeros_like, -40.0, 4.0),
            (lambda v: np.exp(v) * (1.0 + np.exp(v)) ** -3, -40.0, 40.0),
            (lambda v: np.exp(v - np.exp(v)), -40.0, 4.0))

    @staticmethod
    def one_row(rule, fn, *limits):
        batched, levels = _rows_of([fn])
        res = rule(batched, *limits)
        return levels[0], res.value[0], res.error[0]

    def test_converged_row_keeps_its_value_while_others_refine(self):
        fns, low, high = zip(*self.SEMI)
        fn, levels = _rows_of(fns)
        res = integrate_semi_infinite(fn, np.array(low), np.array(high))
        alone = [self.one_row(integrate_semi_infinite, *row) for row in self.SEMI]
        assert [levels[row] for row in range(3)] == [n for n, _, _ in alone] == [2, 6, 6]
        # bit for bit the values and errors of one-row runs
        assert res.value.tolist() == [v for _, v, _ in alone]
        assert res.error.tolist() == [e for _, _, e in alone]
        assert res.value[0] == 0.0 and res.converged is True

    def test_per_row_limits_match_one_row_runs(self):
        # rows whose last bits depend on the order each level is summed in
        rows = [(lambda x: np.exp(-x), 5.0), (lambda x: np.exp(-x * x), 0.0),
                (lambda x: np.exp(-x), 0.7), (lambda x: np.exp(-x), 27.0),
                (lambda x: x * np.exp(-x), 0.0), (lambda x: 1.0 / (1.0 + x * x) ** 2, 0.0),
                (lambda x: np.exp(-x) * (1.5 + np.sin(7.0 * x)), 0.7)]
        fns = [lambda v, f=f, a=a: in_log(f, a)(v, None) for f, a in rows]
        low = np.array([-40.0, -45.0, -38.0, -40.0, -50.0, -40.0, -40.0])
        high = np.array([4.0, 2.5, 4.0, 4.0, 4.5, 40.0, 4.0])
        res = integrate_semi_infinite(_rows_of(fns)[0], low, high)
        assert res.value.tolist() == [
            self.one_row(integrate_semi_infinite, f, a, b)[1] for f, a, b in zip(fns, low, high)]
        assert res.value.tolist() == [scalar_log_trapezoid(f, a, b)
                                      for f, a, b in zip(fns, low, high)]
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
        decay, swing = (lambda v: np.exp(v - np.exp(v))), (lambda v: np.exp(v) * np.sin(np.exp(v)))
        fn, _ = _rows_of([decay, swing, decay, np.cos])
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(fn, np.full(4, -40.0), 10.0)
        with pytest.raises(QuadratureError) as alone:
            integrate_semi_infinite(_rows_of([swing])[0], -40.0, 10.0)
        assert info.value.row == 1 and alone.value.row == 0
        assert (info.value.estimate, info.value.error) == (alone.value.estimate,
                                                           alone.value.error)
        assert str(info.value) == str(alone.value)
        fn, _ = _rows_of([lambda y: 3.0 * y * y, lambda y: 1.0 / y])
        with pytest.raises(QuadratureError) as info:
            integrate_from_zero(fn, np.ones(2))
        assert info.value.row == 1

    def test_empty_batch_evaluates_nothing(self):
        res = integrate_semi_infinite(_rows_of([])[0], np.zeros(0), np.zeros(0))
        assert res.value.shape == res.error.shape == (0,) and res.converged

    def test_rejects_bad_limit_shapes_and_rows(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, [0.0, math.nan], 1.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, [0.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            integrate_semi_infinite(np.zeros_like, np.zeros(2), np.ones(3))
        with pytest.raises(ValueError):
            integrate_from_zero(np.zeros_like, [1.0, 0.0])
