"""Unit tests for the Monte Carlo estimators and their determinism contract."""

import ast
import copy
import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from config_strategies import blocked_users
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noma_perf.analytic import (
    decode_depth,
    point_links,
    served_users,
    sic_stages,
    threshold_snr,
    user_outage,
)
from noma_perf import montecarlo
from noma_perf.configs import (
    ScenarioConfig,
    coop_preset,
    direct_preset,
    preset_configs,
    with_mu,
)
from noma_perf.fading import FadingParams, gamma_cdf, sample_gain, sample_sorted_gains
from noma_perf.montecarlo import (
    BLOCK_TRIALS,
    MAX_TRIALS,
    Estimate,
    TrialBatch,
    UnitDraw,
    branch_gains,
    draw_block,
    estimate_outage,
    gain_cuts,
    user_failures,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def raw_block(cfg, rng, n, omega=None):
    """The hop gains behind ``draw_block([cfg], rng, n)`` for a generator in
    the same state, drawn in its order: (direct pool, relay feed y, one w
    per served user); without a relay, y is None and there is no w.  The
    pool is drawn at mean ``omega`` (default: the first served user's),
    not at unit scale as ``draw_block`` draws it."""
    omega = cfg.omega[0] if omega is None else omega
    direct = sample_sorted_gains(FadingParams(cfg.mu, omega), cfg.pool, rng, size=n)
    if not cfg.has_relay:
        return direct, None, ()
    y = sample_gain(FadingParams(cfg.mu, cfg.omega_sr), rng, size=n)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    return direct, y, tuple(sample_gain(drop, rng, size=n) for _ in cfg.ranks)


def coop_events_from_cuts(raw, cfg, rho):
    """(far_fail, near_fail) of the hop gains ``raw`` at the decode cuts the
    closed form uses: a user fails when its direct gain is below the cut
    and the relay path misses it (first hop y <= cut, or second hop below
    cut * c / (y - cut))."""
    direct, y, drops = raw
    fails = []
    for (_, idx, (cut,)), w in zip(point_links(cfg, [rho]), drops, strict=True):
        with np.errstate(divide="ignore", invalid="ignore"):
            relay_ok = (y > cut) & (w >= cut * cfg.noise_scale / (y - cut))
        fails.append((direct[:, idx.rank - 1] < cut) & ~relay_ok)
    return tuple(fails)


def direct_events_from_cuts(gain, cfg, rho, user):
    """Outage indicators of single-slot user ``user`` at its decode cut."""
    return np.asarray(gain, dtype=float) < point_links(cfg, [rho])[user - 1][2][0]


def one_draw(cfg, rng, n):
    """The branch gains of ``cfg`` over ``n`` trials, drawn for it alone."""
    return branch_gains(draw_block([cfg], rng, n), cfg)


def scalar_draw(cfg, h_far, h_near, y, w_f, w_n):
    """Single-trial draw with explicit hop gains, relayed by ``cfg``'s
    relay, as ``branch_gains`` returns it: one (direct, relay) tuple per
    served user."""
    c = cfg.noise_scale
    return [(np.asarray([h], dtype=float), np.asarray([y / (1.0 + c / w)]))
            for h, w in ((h_far, w_f), (h_near, w_n))]


def with_stage_threshold(cfg, stage, gamma):
    """``cfg`` with SIC stage ``stage`` at SINR threshold ``gamma`` and every
    other stage at a threshold of about 7e-13, which no SINR below misses."""
    rates = [1e-12] * len(sic_stages(cfg))
    rates[stage - 1] = math.log2(1.0 + gamma) / (2 if cfg.has_relay else 1)
    return dataclasses.replace(cfg, rates=tuple(rates))


def assert_stage_sinr(fails, cfg, stage, want):
    """The branch SINR of stage ``stage`` is ``want``: ``fails(probe_cfg)``
    turns True once the stage threshold passes it and stays False below."""
    for scale, expected in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
        probe = with_stage_threshold(cfg, stage, want * scale)
        assert bool(fails(probe)) is expected, (stage, want, scale)


class TestContainers:
    def test_trial_batch_validation(self):
        TrialBatch(trials=1, seed=0)
        TrialBatch(trials=10, seed=3, chunks=4)
        with pytest.raises(ValueError):
            TrialBatch(trials=0, seed=0)
        with pytest.raises(ValueError):
            TrialBatch(trials=10, seed=-1)
        with pytest.raises(ValueError):
            TrialBatch(trials=10, seed=0, chunks=0)
        with pytest.raises(ValueError):
            TrialBatch(trials=10.5, seed=0)
        # failure counts are int64
        assert MAX_TRIALS == np.iinfo(np.int64).max
        TrialBatch(trials=MAX_TRIALS, seed=0)
        with pytest.raises(ValueError, match="trials"):
            TrialBatch(trials=MAX_TRIALS + 1, seed=0)

    def test_estimate_from_count(self):
        est = Estimate.from_count(25, 400)
        assert est.p_hat == 0.0625
        assert_allclose(est.stderr, math.sqrt(0.0625 * 0.9375 / 400), rtol=1e-15)
        assert est.trials == 400

    def test_estimate_degenerate_counts(self):
        assert Estimate.from_count(400, 400) == Estimate(1.0, 0.0, 400)
        assert Estimate.from_count(0, 400) == Estimate(0.0, 0.0, 400)


class TestDraws:
    def test_shapes_and_sorted_pool(self):
        for cfg, n_branches in ((coop_preset(), 2), (direct_preset(), 1)):
            draw = one_draw(cfg, np.random.default_rng(0), 1000)
            # one tuple of branch gains per served user, in served order:
            # the direct gain, then the relay's effective gain if any
            assert len(draw) == len(served_users(cfg))
            assert [len(branches) for branches in draw] == [n_branches] * len(draw)
            assert {g.shape for branches in draw for g in branches} == {(1000,)}
            # ascending ranks of one sorted pool: over its mean, a user's
            # direct gain never exceeds the next served user's
            scaled = [branches[0] / omega for branches, omega in zip(draw, cfg.omega)]
            assert all(np.all(a <= b) for a, b in zip(scaled, scaled[1:]))
            assert np.all(scaled[0] > 0)

    def test_reproducible(self):
        for cfg in (with_mu(coop_preset(), 2), with_mu(direct_preset(), 2)):
            a = one_draw(cfg, np.random.default_rng(11), 500)
            b = one_draw(cfg, np.random.default_rng(11), 500)
            for ta, tb in zip(a, b, strict=True):
                for ga, gb in zip(ta, tb, strict=True):
                    assert np.array_equal(ga, gb)

    def test_effective_relay_gains_of_the_hop_draws(self):
        # each user's relay branch is stored as y / (1 + c / w), and its
        # direct gain, drawn at unit scale and scaled by omega / mu, equals
        # its column of a pool drawn at its mean, bit for bit
        for cfg in (coop_preset(), dataclasses.replace(coop_preset(2), relay_gain=0.5),
                    dataclasses.replace(coop_preset(3), omega=(0.37, 0.37)),
                    dataclasses.replace(coop_preset(), omega_sr=2.5, omega_rd=7.0)):
            draw = one_draw(cfg, np.random.default_rng(3), 700)
            direct, y, drops = raw_block(cfg, np.random.default_rng(3), 700)
            for (gain, relay), rank, w in zip(draw, cfg.ranks, drops, strict=True):
                assert np.array_equal(gain, direct[:, rank - 1])
                assert np.array_equal(relay, y / (1.0 + cfg.noise_scale / w))
        # without a relay the block draws the pool alone, and each user's
        # one branch is its column of a pool drawn at its own mean
        for cfg in (direct_preset(), with_mu(direct_preset(), 3)):
            rng = np.random.default_rng(3)
            draw = one_draw(cfg, rng, 700)
            for (gain,), rank, omega in zip(draw, cfg.ranks, cfg.omega, strict=True):
                direct, y, drops = raw_block(cfg, np.random.default_rng(3), 700, omega)
                assert (y, drops) == (None, ())
                assert np.array_equal(gain, direct[:, rank - 1])
            after_pool = np.random.default_rng(3)
            raw_block(cfg, after_pool, 700)
            assert rng.bit_generator.state == after_pool.bit_generator.state


    def test_draw_fills_the_block_arrays_in_place(self):
        # the generator writes every gain straight into the block's
        # arrays, one call per array with no raw buffer, and the unit draw
        # equals one draw of the whole block, bit for bit
        class Recording:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.outs = []

            def standard_gamma(self, shape, size=None, *, out):
                assert size is None
                self.outs.append(out)
                return self.rng.standard_gamma(shape, out=out)

            def standard_exponential(self, size=None, *, out):
                assert size is None
                self.outs.append(out)
                return self.rng.standard_exponential(out=out)

        shared = preset_configs("comparison.ini")
        wide = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0), mu=3,
                              ranks=(1, 40), pool=40)
        groups = [[shared["coop"], shared["direct"]], [with_mu(coop_preset(), 3)],
                  [with_mu(direct_preset(), 20)], [wide]]
        for cfgs in groups:
            rng = Recording(4)
            draw = draw_block(cfgs, rng, 2500)
            arrays = [draw.pool] + ([draw.y, *draw.w] if cfgs[0].has_relay else [])
            assert len(rng.outs) == len(arrays)
            for out, array in zip(rng.outs, arrays):
                assert out.shape == array.shape
                assert out.__array_interface__["data"] == array.__array_interface__["data"]
            ref = np.random.default_rng(4)
            unit = FadingParams(cfgs[0].mu, float(cfgs[0].mu))
            want = [sample_sorted_gains(unit, cfgs[0].pool, ref, size=2500)]
            want += [sample_gain(unit, ref, size=2500) for _ in arrays[1:]]
            for got, ref_gains in zip(arrays, want):
                assert np.array_equal(got, ref_gains)
            # the relay feed, then one relay-to-user gain per served user
            assert len(draw.w) == (2 if cfgs[0].has_relay else 0)

    def test_draw_in_tile_slices_equals_one_draw(self):
        # the generator fills an array element by element, so drawing each
        # array of a block in consecutive tile-sized row slices, in place,
        # gives the block's gains bit for bit: the draw does not depend on
        # how the trials are cut
        shared = preset_configs("comparison.ini")
        wide = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0), mu=3,
                              ranks=(1, 40), pool=40)
        for cfgs in ([shared["coop"], shared["direct"]], [with_mu(coop_preset(), 3)],
                     [with_mu(direct_preset(), 20)], [wide]):
            draw = draw_block(cfgs, np.random.default_rng(4), 2500)
            rng = np.random.default_rng(4)
            unit = FadingParams(cfgs[0].mu, float(cfgs[0].mu))
            for got in (draw.pool, *((draw.y, *draw.w) if cfgs[0].has_relay else ())):
                sliced = np.empty_like(got)
                for start in range(0, 2500, 1000):
                    if got.ndim == 2:
                        sample_sorted_gains(unit, cfgs[0].pool, rng, out=sliced[start:start + 1000])
                    else:
                        sample_gain(unit, rng, out=sliced[start:start + 1000])
                assert np.array_equal(got, sliced)
            if not cfgs[0].has_relay:
                assert (draw.y, draw.w) == (None, ())

    def test_draw_slices_stay_within_the_element_budget(self):
        # a draw allocates its block arrays and at most one column of
        # scratch for the sort network, whatever mu is: no buffer grows
        # with the mu exponentials a gain once summed
        wide = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0), mu=300,
                              ranks=(1, 40), pool=40)
        n = 2000
        for cfgs in ([with_mu(coop_preset(), 40)], [with_mu(direct_preset(), 300)], [wide]):
            tracemalloc.start()
            try:
                draw = draw_block(cfgs, np.random.default_rng(8), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block = sum(a.nbytes for a in (draw.pool, draw.y, *draw.w) if a is not None)
            assert block <= peak <= block + 8 * n + (1 << 16)

    def test_shared_draw_needs_one_mu_and_pool(self):
        for other in (with_mu(direct_preset(), 2), coop_preset()):
            with pytest.raises(ValueError):
                draw_block([direct_preset(), other], np.random.default_rng(0), 10)
        draw = draw_block([direct_preset()], np.random.default_rng(0), 10)
        assert isinstance(draw, UnitDraw) and draw.pool.shape == (10, 3)


class TestSinrChains:
    """Hand-computed SINRs pin the shared stage table and the stage test:
    the closed form and the simulator read the same table, so only an
    outside number catches a wrong power, residual or slot count."""

    def test_slot1_hand_computed(self):
        cfg = coop_preset()  # powers 0.8 / 0.2
        assert sic_stages(cfg) == ((0.8, 0.2, 3.0), (0.2, 0.0, 7.0))
        draw = scalar_draw(cfg, 2.0, 4.0, 1.0, 1.0, 1.0)

        def far(probe):
            return user_failures(draw, gain_cuts(probe, 10.0))[0][0]

        def near(probe):
            return user_failures(draw, gain_cuts(probe, 10.0))[1][0]

        # the relay branch (effective gain 1 / (1 + c), c = 1.23) misses
        # each threshold below, so the direct gain decides
        assert_stage_sinr(far, cfg, 1, 2.0 * 8.0 / (2.0 * 2.0 + 1.0))
        assert_stage_sinr(near, cfg, 1, 4.0 * 8.0 / (4.0 * 2.0 + 1.0))
        assert_stage_sinr(near, cfg, 2, 4.0 * 2.0)

    def test_slot2_hand_computed(self):
        base = coop_preset()
        cfg = dataclasses.replace(base, relay_gain=1.0)  # c = 1

        def far(probe):
            draw = scalar_draw(probe, 0.1, 0.1, 1.0, 2.0, 3.0)
            return user_failures(draw, gain_cuts(probe, 10.0))[0][0]

        def near(probe):
            draw = scalar_draw(probe, 0.1, 0.1, 1.0, 2.0, 3.0)
            return user_failures(draw, gain_cuts(probe, 10.0))[1][0]

        # the direct gain 0.1 misses each threshold below, so the relay decides
        # cascade far: 1 * 2 = 2; denom 2*0.2*10 + 2 + 1 = 7
        assert_stage_sinr(far, cfg, 1, 2.0 * 8.0 / 7.0)
        # cascade near: 3; denom 3*2 + 3 + 1 = 10
        assert_stage_sinr(near, cfg, 1, 3.0 * 8.0 / 10.0)
        assert_stage_sinr(near, cfg, 2, 3.0 * 2.0 / 4.0)
        # c = 4 tells the forwarded noise apart from the unit receiver noise:
        # denom 2*0.2*10 + 2 + 4 = 10
        cfg = dataclasses.replace(base, relay_gain=0.5)
        assert_stage_sinr(far, cfg, 1, 2.0 * 8.0 / 10.0)
        assert_stage_sinr(near, cfg, 2, 3.0 * 2.0 / 7.0)

    def test_direct_chain_hand_computed(self):
        cfg = direct_preset()  # powers 0.5 / 0.4 / 0.1
        assert sic_stages(cfg) == (
            (0.5, 0.5, threshold_snr(0.2, slots=1)),
            (0.4, 0.1, 1.0),
            (0.1, 0.0, 3.0),
        )
        g = np.array([2.0])

        def stage(depth):
            # a single-branch user at position k runs the chain to depth k
            return lambda probe: user_failures([(g,)] * depth,
                                               gain_cuts(probe, 10.0))[depth - 1][0]

        assert_stage_sinr(stage(1), cfg, 1, 2.0 * 5.0 / (2.0 * 5.0 + 1.0))
        assert_stage_sinr(stage(2), cfg, 2, 2.0 * 4.0 / (2.0 * 1.0 + 1.0))
        # last message decodes interference-free
        assert_stage_sinr(stage(3), cfg, 3, 2.0 * 1.0)
        with pytest.raises(ValueError):
            user_failures([(g,)] * 4, gain_cuts(cfg, 10.0))


class TestEventEquivalence:
    """The SINR replay and the inverted gain cuts must label every trial alike."""

    def test_coop_routes_agree_trialwise(self):
        rng = np.random.default_rng(2024)
        far_fails = far_trials = 0
        for mu in (1, 2):
            cfg = with_mu(coop_preset(), mu)
            raw = raw_block(cfg, copy.deepcopy(rng), 1 << 16)
            draw = one_draw(cfg, rng, 1 << 16)
            for rho_db in (0.0, 10.0, 30.0):
                rho = db_to_linear(rho_db)
                far_a, near_a = user_failures(draw, gain_cuts(cfg, rho))
                far_b, near_b = coop_events_from_cuts(raw, cfg, rho)
                assert np.array_equal(far_a, far_b)
                assert np.array_equal(near_a, near_b)
                far_fails += far_a.sum()
                far_trials += far_a.size
        assert 0 < far_fails < far_trials  # the grid exercises both labels

    def test_coop_routes_agree_when_infeasible(self):
        cfg = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))  # threshold 7 > 4
        draw = one_draw(cfg, np.random.default_rng(8), 4096)
        far_a, near_a = user_failures(draw, gain_cuts(cfg, db_to_linear(30.0)))
        raw = raw_block(cfg, np.random.default_rng(8), 4096)
        far_b, near_b = coop_events_from_cuts(raw, cfg, db_to_linear(30.0))
        assert far_a.all() and near_a.all()
        assert np.array_equal(far_a, far_b)
        assert np.array_equal(near_a, near_b)

    def test_direct_routes_agree_trialwise(self):
        cfg = with_mu(direct_preset(), 2)
        gain = np.random.default_rng(77).gamma(2.0, 1.0, size=1 << 16)
        for rho_db in (0.0, 15.0, 30.0):
            rho = db_to_linear(rho_db)
            fails = user_failures([(gain,)] * 3, gain_cuts(cfg, rho))
            for user in (1, 2, 3):
                b = direct_events_from_cuts(gain, cfg, rho, user)
                assert np.array_equal(fails[user - 1], b)

    def test_direct_routes_agree_when_infeasible(self):
        cfg = ScenarioConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        gain = np.random.default_rng(9).gamma(1.0, 5.0, size=4096)
        a = user_failures([(gain,)] * 2, gain_cuts(cfg, db_to_linear(40.0)))[1]
        b = direct_events_from_cuts(gain, cfg, db_to_linear(40.0), 2)
        assert a.all()
        assert np.array_equal(a, b)


def reference_stage_failures(gain, cfg, rho, depth):
    """The float SINR chain written out with fresh arrays, one expression
    a stage: a stage is missed unless its float SINR reaches the
    threshold, so a NaN SINR misses.  It rounds six times a stage, so it
    can differ from the exact comparison within about 2**-49 of a
    crossing; on sampled gains it labels every trial alike."""
    fail = None
    for power, residual, gamma in sic_stages(cfg)[:depth]:
        sinr = gain * power * rho
        if residual:
            sinr /= gain * residual * rho + 1.0
        miss = ~(sinr >= gamma)
        fail = miss if fail is None else fail | miss
    return fail


class TestBufferedReplay:
    """Writing the comparison into reused buffers changes no label, and on
    sampled gains every label is the float SINR chain's."""

    RHOS = np.array([db_to_linear(db) for db in range(0, 41, 5)])[:, np.newaxis]

    def configs(self):
        shared = preset_configs("comparison.ini")
        return [shared["coop"], shared["direct"], coop_preset(2), direct_preset(3),
                dataclasses.replace(coop_preset(), relay_gain=0.5)]

    @pytest.mark.parametrize("rho", [10.0, "column"])
    def test_buffered_user_failures_equal_the_stage_failures_chain(self, rho):
        rho = self.RHOS if rho == "column" else rho
        out = None
        for k, cfg in enumerate(self.configs()):
            draw = one_draw(cfg, np.random.default_rng(k), 3000)
            shape = np.broadcast_shapes((3000,), np.shape(rho))
            want = [reduce(np.logical_and, [reference_stage_failures(g, cfg, rho, depth)
                                            for g in branches])
                    for depth, branches in enumerate(draw, 1)]
            # one buffer serves every config in turn, as in a block; it
            # starts with values the comparison must overwrite
            if out is None:
                out = np.ones((3, *shape), dtype=bool)
            got = user_failures(draw, gain_cuts(cfg, rho), out[:len(draw)])
            assert got.base is out and got.shape == (len(draw), *shape)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)
            assert np.array_equal(user_failures(draw, gain_cuts(cfg, rho)), got)

    def test_partial_tile_views(self):
        # the last tile of a block is decided into the leading columns of
        # the block's buffer, a strided view of it, against the cuts the
        # estimator computes once per call
        cfg = preset_configs("comparison.ini")["coop"]
        draw = one_draw(cfg, np.random.default_rng(1), 1234)
        out = np.ones((2, len(self.RHOS), 2048), dtype=bool)
        got = user_failures(draw, gain_cuts(cfg, self.RHOS), out[:, :, :1234])
        assert np.array_equal(got, user_failures(draw, gain_cuts(cfg, self.RHOS)))

    def test_buffered_stage_failures_equal_allocating_path(self):
        cfg = direct_preset(2)
        gain = np.random.default_rng(3).gamma(2.0, 1.0, size=5000)
        for rho in (10.0, self.RHOS):
            shape = np.broadcast_shapes(gain.shape, np.shape(rho))
            out = np.ones((3, *shape), dtype=bool)
            # single-branch users at positions 1..3 clear stages 1..k, k = 1..3
            got = user_failures([(gain,)] * 3, gain_cuts(cfg, rho), out)
            assert got is out
            assert np.array_equal(got, user_failures([(gain,)] * 3, gain_cuts(cfg, rho)))
            for depth, row in enumerate(got, 1):
                assert np.array_equal(row, reference_stage_failures(gain, cfg, rho, depth))
        # each row of a column of rho equals the scalar call at its rho
        column = user_failures([(gain,)] * 3, gain_cuts(cfg, self.RHOS))
        for k, rho in enumerate(self.RHOS[:, 0]):
            assert np.array_equal(column[:, k],
                                  user_failures([(gain,)] * 3, gain_cuts(cfg, rho)))

    @pytest.mark.parametrize("width", [1, 7, 8, 1234, 8192])
    def test_row_counts(self, width):
        rng = np.random.default_rng(width)
        buf = np.empty((3, 4, width), dtype=bool)
        for k in {width, max(1, width - 3), 1}:
            fail = buf[:2, :, :k]
            fail[...] = rng.random(fail.shape) < 0.3
            got = montecarlo._row_counts(fail)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.count_nonzero(fail, axis=-1))


def ulp_neighbours(values, steps=4):
    """Each finite positive value of ``values`` and its float neighbours
    1..``steps`` ulps below and above."""
    out = []
    for x in np.ravel(values):
        if 0.0 < x < math.inf:
            down = up = float(x)
            out.append(down)
            for _ in range(steps):
                down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
                out += [down, up]
    return out


def headroom_configs():
    """Single-slot configs whose stage 1 has threshold 3 and residual
    headroom power - 3 * residual of 0 or a few ulps either side: power
    0.75 + k * 2**-53 and residual 1 - power are exact, so the headroom is
    4 k * 2**-53 exactly."""
    cfgs = []
    for k in range(-3, 4):
        power = 0.75 + k * 2.0**-53
        cfgs.append(ScenarioConfig(power=(power, 1.0 - power), rates=(2.0, 0.5), omega=(1.0, 1.0)))
    return cfgs


@cache
def exact_stage_passes(gain, stage, rho):
    """Whether float ``gain`` clears ``stage``, a (power, residual,
    threshold) row of ``sic_stages``, at ``rho`` in real arithmetic: its
    SINR in Fractions reaches the threshold.  A NaN gain and an infinite
    threshold clear nothing; an inf gain, whose true value lies past every
    finite cut, clears every stage with headroom, power > threshold *
    residual."""
    power, residual, gamma = stage
    if math.isnan(gain) or gamma == math.inf:
        return False
    p, r, g = Fraction(power), Fraction(residual), Fraction(gamma)
    if gain == math.inf:
        return p - g * r > 0
    x, rho = Fraction(gain), Fraction(rho)
    return x * p * rho / (x * r * rho + 1) >= g


def exact_user_failures(branches, cfg, rhos, depth):
    """(points, trials) failures of a user at decode depth ``depth`` whose
    branches hold the float gains ``branches``, trial by trial in Fractions:
    a trial fails where a branch gain is NaN, or where no branch clears
    every stage 1..``depth``."""
    stages = sic_stages(cfg)[:depth]
    trials = [[float(g) for g in gains] for gains in zip(*branches)]
    return np.array([[any(math.isnan(g) for g in gains)
                      or not any(all(exact_stage_passes(g, stage, rho) for stage in stages)
                                 for g in gains)
                      for gains in trials] for rho in rhos])


class TestBracketedReplay:
    """Each stage's cut and the float just below it bracket the stage's
    crossing: the cut clears the stage in real arithmetic and its lower
    neighbour does not, so one comparison against the cut labels every
    trial as the exact SINR chain does."""

    RHOS = np.array([1e-300, 1e-150, 1e-10, 1.0, 10.0, 1e4, 1e150, 1e300])[:, np.newaxis]
    EDGE_GAINS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-150, 1e-5, 0.5,
                  1.0, 3.0, 1e5, 1e150, 1e300, 1e308, sys.float_info.max, math.inf, math.nan]

    def stage_tables(self):
        shared = preset_configs("comparison.ini")
        return [
            direct_preset(), coop_preset(), shared["coop"], shared["direct"],
            *headroom_configs(),
            # gamma = 0 at every stage, and gamma = 0 after gamma = inf
            dataclasses.replace(direct_preset(), rates=(0.0, 0.0, 0.0)),
            dataclasses.replace(direct_preset(), rates=(1.7e308, 0.0, 0.5)),
            # gamma = inf last, and past the double range of 2**(2 rate)
            dataclasses.replace(direct_preset(), rates=(0.2, 0.5, 1.7e308)),
            dataclasses.replace(coop_preset(), rates=(0.5, 600.0)),
            # gamma 2**1e-15 - 1, 3 ulps of 1: at rho 1e300 the crossings
            # are subnormal gains
            dataclasses.replace(direct_preset(), rates=(1e-15, 1e-15, 1e-15)),
        ]

    def probe_gains(self, cfg):
        """The edge gains, and the neighbours of every stage's float
        crossing and of every stage's cut at every rho."""
        gains = list(self.EDGE_GAINS)
        for rho in self.RHOS[:, 0].tolist():
            for power, residual, gamma in sic_stages(cfg):
                headroom = power - gamma * residual
                if headroom > 0:
                    gains += ulp_neighbours(gamma / (rho * headroom))
        gains += ulp_neighbours(gain_cuts(cfg, self.RHOS))
        return np.array(gains)

    @pytest.mark.filterwarnings("error")
    def test_bracket_equals_the_chain_trialwise(self):
        passed = failed = 0
        rhos = self.RHOS[:, 0].tolist()
        for cfg in self.stage_tables():
            gain = self.probe_gains(cfg)
            other = gain[::-1].copy()
            users = len(sic_stages(cfg))
            one = user_failures([(gain,)] * users, gain_cuts(cfg, self.RHOS))
            two = user_failures([(gain, other)] * users, gain_cuts(cfg, self.RHOS))
            for depth in range(1, users + 1):
                want = exact_user_failures([gain], cfg, rhos, depth)
                assert np.array_equal(one[depth - 1], want), (cfg, depth)
                want = exact_user_failures([gain, other], cfg, rhos, depth)
                assert np.array_equal(two[depth - 1], want), (cfg, depth)
                # each row equals the scalar call at its rho
                for k, rho in enumerate(rhos):
                    row = user_failures([(gain,)] * depth, gain_cuts(cfg, rho))[-1]
                    assert np.array_equal(row, one[depth - 1, k]), (cfg, depth, rho)
            failed += int(one.sum())
            passed += int((~one).sum())
        # the probes crowd the crossings from both sides
        assert passed > 1000 and failed > 1000

    @pytest.mark.parametrize("cfg", [direct_preset(), coop_preset(), *headroom_configs()[2:5]],
                             ids=["direct", "coop", "headroom-1", "headroom0", "headroom+1"])
    def test_bounds_bracket_each_stage(self, cfg):
        cuts = gain_cuts(cfg, self.RHOS)
        stages = sic_stages(cfg)
        assert cuts.shape == (len(stages), *self.RHOS.shape)
        for stage, row in zip(stages, cuts):
            power, residual, gamma = stage
            for rho, cut in zip(self.RHOS[:, 0].tolist(), row[:, 0].tolist()):
                if math.isnan(cut):
                    # no gain clears the stage, not even an inf one
                    assert not exact_stage_passes(math.inf, stage, rho), (stage, rho)
                elif cut == math.inf:
                    # only an overflowed gain clears it
                    assert exact_stage_passes(math.inf, stage, rho)
                    assert not exact_stage_passes(sys.float_info.max, stage, rho), (stage, rho)
                else:
                    assert exact_stage_passes(cut, stage, rho), (stage, rho)
                    if cut > 0.0:
                        below = math.nextafter(cut, 0.0)
                        assert not exact_stage_passes(below, stage, rho), (stage, rho)
                    else:
                        assert gamma == 0.0
                    # within a few ulps of the float quotient of stage_cuts
                    if 1e-300 < cut < 1e300:
                        assert cut == pytest.approx(gamma / (rho * (power - gamma * residual)),
                                                    rel=1e-15), (stage, rho)
        # stage 1 without headroom: every point's cut is NaN, and so every
        # user's, as the running maximum carries it down the chain
        power, residual, gamma = stages[0]
        if Fraction(power) <= Fraction(gamma) * Fraction(residual):
            assert np.isnan(np.maximum.accumulate(cuts)).all()

    def test_montecarlo_reads_only_the_stage_table(self):
        # no cut, CDF or relay closed form: the comparison and its cuts
        # come from analytic.sic_stages alone
        import noma_perf.montecarlo as module

        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert sorted(name for mod, name in imported if mod == "analytic") == [
            "_check_rho", "served_users", "sic_stages"]
        assert [name for mod, name in imported if mod is None and name == "analytic"] == []
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                    and any("analytic" in alias.name for alias in node.names)]


def assert_within_5_se(failures, trials, p):
    """``failures`` of ``trials`` lie within 5 binomial standard errors,
    taken at the exact probability ``p``, of ``p``."""
    p_hat = failures / trials
    assert abs(p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials), (failures, trials, p)


def assert_same_counts(got, want):
    """Per-config failure counts equal in dtype, shape and every count."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and (a == b).all()


class TestOverflowGuard:
    """Overflow cannot flip a label, so no config is too large to
    simulate: a gain past the double range is inf, which clears every
    stage with headroom, as its true value lies past every finite cut; a
    NaN gain fails; and drawing or deciding raises no floating-point
    warning."""

    def test_nan_sinr_fails(self):
        # the float chain gives a gain of 1e308 at rho 1e10 the SINR
        # inf / inf, a NaN; stage 1's threshold 3 is above power / residual
        # = 1, so its cut is NaN and both trials fail, with no warning
        cfg = dataclasses.replace(direct_preset(), rates=(2.0, 0.5, 0.5))
        gain = np.array([1e308, 1.0])
        with np.errstate(all="ignore"):
            assert np.isnan((gain * 0.5 * 1e10) / (gain * 0.5 * 1e10 + 1.0))[0]
        assert np.isnan(gain_cuts(cfg, 1e10)).tolist() == [True, False, False]
        assert user_failures([(gain,)] * 3, gain_cuts(cfg, 1e10)).tolist() == [[True, True]] * 3
        # a NaN gain fails even stages at threshold 0, which 0 and inf clear,
        # and a NaN branch fails its user whatever the other branch holds
        free = dataclasses.replace(direct_preset(), rates=(0.0, 0.0, 0.0))
        gain = np.array([math.nan, 0.0, math.inf])
        free_cuts = gain_cuts(free, 1.0)
        assert user_failures([(gain,)] * 3, free_cuts).tolist() == [[True, False, False]] * 3
        other = np.array([math.inf, math.nan, math.inf])
        assert user_failures([(gain, other)], free_cuts).tolist() == [[True, True, False]]
        # a first hop past the double range over a second hop whose c / w
        # overflows leaves inf / inf, an effective gain no float can hold
        cfg = dataclasses.replace(coop_preset(), omega_sr=1.7e308, omega_rd=1e-308)
        draw = branch_gains(draw_block([cfg], np.random.default_rng(1), 3000), cfg)
        relay = draw[0][1]
        assert np.isnan(relay).any()
        assert user_failures(draw, gain_cuts(cfg, 1.0))[0][np.isnan(relay)].all()

    @pytest.mark.filterwarnings("error")
    def test_huge_direct_mean_is_simulated(self):
        # gains at mean 1.7e308 overflow to inf, and the threshold, past
        # the double range, is inf, which no gain clears: outage is 1
        cfg = ScenarioConfig(power=(1.0,), rates=(1.7e308,), omega=(1.7e308,), ranks=(1,), pool=1)
        ((gain,),) = branch_gains(draw_block([cfg], np.random.default_rng(1), 3000), cfg)
        assert np.isinf(gain).any() and not np.isnan(gain).any()
        (counts,) = estimate_outage([cfg], [1.0, 10.0], TrialBatch(3000, seed=1))
        assert counts.tolist() == [[3000, 3000]]
        # at a finite threshold every gain clears the stage
        cfg = dataclasses.replace(cfg, rates=(1.0,))
        (counts,) = estimate_outage([cfg], [1.0, 10.0], TrialBatch(3000, seed=1))
        assert counts.tolist() == [[0, 0]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["omega_sr", "omega_rd"])
    def test_huge_relay_hop_mean_is_simulated(self, field):
        cfg = dataclasses.replace(coop_preset(), **{field: 1.7e308})
        relay = branch_gains(draw_block([cfg], np.random.default_rng(1), 3000), cfg)[0][1]
        # a first hop past the double range overflows the effective gain;
        # y / (1 + c / w) keeps it finite where only w is huge
        assert np.isinf(relay).any() == (field == "omega_sr") and not np.isnan(relay).any()
        rhos = [1.0, 100.0]
        (counts,) = estimate_outage([cfg], rhos, TrialBatch(3000, seed=1))
        for user, row in zip(served_users(cfg), counts.tolist(), strict=True):
            for rho, failures in zip(rhos, row, strict=True):
                assert_within_5_se(failures, 3000, user_outage(cfg, rho, user)[0])

    @pytest.mark.filterwarnings("error")
    def test_huge_mean_is_simulated_at_a_large_rho(self):
        # user 2's gains near 1e300 would overflow a float SINR at rho 1e10
        cfg = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1e300))
        rhos = [1.0, 1e10]
        (counts,) = estimate_outage([cfg], rhos, TrialBatch(3000, seed=1))
        assert counts[0, 0] > 1500  # the weak user's outage is about 0.68 at 0 dB
        for user, row in zip(served_users(cfg), counts.tolist(), strict=True):
            for rho, failures in zip(rhos, row, strict=True):
                assert_within_5_se(failures, 3000, user_outage(cfg, rho, user)[0])

    @pytest.mark.filterwarnings("error")
    def test_infinite_threshold_fails_every_trial(self):
        cfg = ScenarioConfig(power=(1.0,), rates=(1.7e308,), omega=(1.0,))
        (counts,) = estimate_outage([cfg], [1.0, 1e12], TrialBatch(3000, seed=1))
        assert counts.tolist() == [[3000, 3000]]


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        batch = TrialBatch(trials=3 * BLOCK_TRIALS // 2, seed=5)
        assert_same_counts(estimate_outage([cfg], [rho], batch),
                           estimate_outage([cfg], [rho], batch))

    def test_chunks_do_not_change_estimate(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        trials = 2 * BLOCK_TRIALS + 1234
        one = estimate_outage([cfg], [rho], TrialBatch(trials, seed=5, chunks=1))
        many = estimate_outage([cfg], [rho], TrialBatch(trials, seed=5, chunks=4))
        assert_same_counts(one, many)
        d_one = estimate_outage([direct_preset()], [rho], TrialBatch(trials, seed=5, chunks=1))
        d_many = estimate_outage([direct_preset()], [rho], TrialBatch(trials, seed=5, chunks=3))
        assert_same_counts(d_one, d_many)

    def test_one_call_equals_separate_calls(self, monkeypatch):
        # the comparison preset's coop and direct configs and the direct
        # preset share (mu, pool) and so one draw per block; the coop
        # preset has another pool and the last config another mu
        shared = preset_configs("comparison.ini")
        cfgs = [shared["coop"], shared["direct"], coop_preset(), with_mu(shared["direct"], 2),
                direct_preset()]
        rhos = (1.0, 10.0, 100.0, 1000.0)
        batch = TrialBatch(BLOCK_TRIALS + 3000, seed=9)
        alone = [count for cfg in cfgs for count in estimate_outage([cfg], rhos, batch)]
        groups = []
        draw = montecarlo.draw_block

        def counted(group, rng, n):
            groups.append([cfgs.index(cfg) for cfg in group])
            return draw(group, rng, n)

        monkeypatch.setattr(montecarlo, "draw_block", counted)
        assert_same_counts(estimate_outage(cfgs, rhos, batch), alone)
        # three groups, each drawn once in each of the two blocks
        assert sorted(groups) == [[0, 1, 4], [0, 1, 4], [2], [2], [3], [3]]

    def test_counts_do_not_depend_on_tile_or_chunks(self, monkeypatch):
        shared = preset_configs("comparison.ini")
        cfgs = [shared["coop"], shared["direct"], direct_preset(2)]
        rhos = (1.0, 10.0, 100.0)
        trials = 2 * BLOCK_TRIALS + 1234
        want = estimate_outage(cfgs, rhos, TrialBatch(trials, seed=5))
        for tile in (1000, BLOCK_TRIALS, 4 * BLOCK_TRIALS):
            monkeypatch.setattr(montecarlo, "TILE_TRIALS", tile)
            for chunks in (1, 2):
                got = estimate_outage(cfgs, rhos, TrialBatch(trials, seed=5, chunks=chunks))
                assert_same_counts(got, want)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_huge_batch_reaches_its_first_block(self, monkeypatch, chunks):
        # 2**63 - 1 trials are 3.5e13 blocks: each worker sizes its blocks
        # from their indices and starts drawing without a per-block schedule
        class FirstBlock(Exception):
            pass

        sizes = []

        def first(cfgs, rng, n):
            sizes.append(n)
            raise FirstBlock

        monkeypatch.setattr(montecarlo, "draw_block", first)
        batch = TrialBatch(MAX_TRIALS, seed=0, chunks=chunks)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                estimate_outage([direct_preset()], [10.0], batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes and set(sizes) == {BLOCK_TRIALS}
        assert peak < 1 << 20

    def test_seed_changes_estimate(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        (a,) = estimate_outage([cfg], [rho], TrialBatch(100_000, seed=1))
        (b,) = estimate_outage([cfg], [rho], TrialBatch(100_000, seed=2))
        assert a[0, 0] != b[0, 0]  # the far user

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_random_stream_is_pinned(self, chunks):
        # Failure counts per served user (rows) and rho (columns) of the
        # committed random stream; any change to them is a change of the
        # stream.  direct_preset has distinct omegas, so the per-user
        # scaling of the shared pool is covered.
        batch = TrialBatch(2 * BLOCK_TRIALS + 1234, seed=5, chunks=chunks)
        rhos = (1.0, 10.0, 100.0)
        for cfg, want in (
            (coop_preset(2), [[525207, 168043, 757], [525522, 364271, 3]]),
            (direct_preset(2), [[507758, 35990, 424], [519569, 8254, 1], [525389, 20083, 0]]),
        ):
            (counts,) = estimate_outage([cfg], rhos, batch)
            assert counts.dtype == np.int64 and counts.tolist() == want

    def test_counts_are_users_by_points_of_one_point_calls(self):
        # one int64 row per served user in decode order, one column per
        # rho, and each column the counts of a one-point call at its rho
        shared = preset_configs("comparison.ini")
        cfgs = [shared["coop"], shared["direct"]]
        rhos = (1.0, 10.0, 100.0)
        batch = TrialBatch(5000, seed=3)
        for cfg, counts in zip(cfgs, estimate_outage(cfgs, rhos, batch), strict=True):
            assert counts.dtype == np.int64
            assert counts.shape == (len(served_users(cfg)), len(rhos))
            for j, rho in enumerate(rhos):
                (column,) = estimate_outage([cfg], [rho], batch)
                assert column[:, 0].tolist() == counts[:, j].tolist()


class TestAgreementWithClosedForms:
    def test_coop_estimates_within_sampling_error(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        (counts,) = estimate_outage([cfg], [rho], TrialBatch(400_000, seed=6))
        far, near = (Estimate.from_count(c, 400_000) for (c,) in counts.tolist())
        p_far = user_outage(cfg, rho, "far")[0]
        p_near = user_outage(cfg, rho, "near")[0]
        assert abs(far.p_hat - p_far) < 4.0 * far.stderr
        assert abs(near.p_hat - p_near) < 4.0 * near.stderr

    def test_direct_estimates_within_sampling_error(self):
        cfg = with_mu(direct_preset(), 2)
        rho = db_to_linear(10.0)
        (counts,) = estimate_outage([cfg], [rho], TrialBatch(400_000, seed=6))
        for user, (failures,) in zip((1, 2, 3), counts.tolist(), strict=True):
            est = Estimate.from_count(failures, 400_000)
            p = user_outage(cfg, rho, user)[0]
            assert abs(est.p_hat - p) < 4.0 * max(est.stderr, 1e-5)

    def test_single_user_single_slot_reduces_to_plain_cdf(self):
        cfg = ScenarioConfig(power=(1.0,), rates=(0.5,), omega=(2.0,), mu=2)
        rho = 4.0
        (((failures,),),) = estimate_outage([cfg], [rho], TrialBatch(400_000, seed=12))
        est = Estimate.from_count(int(failures), 400_000)
        cut = (2.0**0.5 - 1.0) / rho
        p = gamma_cdf(FadingParams(2, 2.0), cut)
        assert abs(est.p_hat - p) < 4.0 * est.stderr

    @pytest.mark.parametrize("user", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_direct_user_follows_served_user_contract(self, user):
        # as for analytic.user_outage, a served user matches in type and
        # value: counts have one row per served user, and decode depth, the
        # user's position in the replay, is defined for those alone
        cfg = direct_preset()
        (counts,) = estimate_outage([cfg], [10.0], TrialBatch(10, seed=0))
        assert counts.shape == (len(served_users(cfg)), 1)
        with pytest.raises(ValueError):
            decode_depth(cfg, user)
        with pytest.raises(ValueError):
            user_outage(cfg, 10.0, user)

    def test_infeasible_rate_estimates_exactly_one(self):
        coop = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))
        (counts,) = estimate_outage([coop], [db_to_linear(40.0)], TrialBatch(10_000, seed=1))
        assert counts.tolist() == [[10_000], [10_000]]

    @settings(max_examples=30, deadline=None)
    @given(blocked=blocked_users(), snr_db=st.floats(-10.0, 120.0), seed=st.integers(0, 99))
    def test_stage_without_headroom_estimates_exactly_one(self, blocked, snr_db, seed):
        cfg, user = blocked
        (counts,) = estimate_outage([cfg], [db_to_linear(snr_db)], TrialBatch(2000, seed=seed))
        assert counts[decode_depth(cfg, user) - 1].tolist() == [2000]

    def test_rejects_bad_rho_and_user(self):
        with pytest.raises(ValueError):
            estimate_outage([coop_preset()], [0.0], TrialBatch(10, seed=0))
        with pytest.raises(ValueError):
            user_failures([(np.ones(4),)] * 4, gain_cuts(direct_preset(), 10.0))
        with pytest.raises(ValueError):
            estimate_outage([direct_preset()], [10.0, math.inf], TrialBatch(10, seed=0))
        with pytest.raises(AttributeError):
            estimate_outage([object()], [10.0], TrialBatch(10, seed=0))
        (empty,) = estimate_outage([coop_preset()], [], TrialBatch(10, seed=0))
        assert empty.dtype == np.int64 and empty.shape == (2, 0)
        assert estimate_outage([], [10.0], TrialBatch(10, seed=0)) == []
