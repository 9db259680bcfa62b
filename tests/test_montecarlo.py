"""Unit tests for the Monte Carlo estimators and their determinism contract."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from config_strategies import blocked_users
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noma_perf.analytic import (
    outage_direct_exact,
    outage_far_exact,
    outage_near_exact,
    point_links,
    served_users,
    sic_stages,
    threshold_snr,
)
from noma_perf.configs import ScenarioConfig, coop_preset, direct_preset, with_mu
from noma_perf.fading import FadingParams, gamma_cdf, sample_gain, sample_sorted_gains
from noma_perf.montecarlo import (
    BLOCK_TRIALS,
    Estimate,
    TrialBatch,
    coop_events_from_sinr,
    direct_events_from_sinr,
    draw_block,
    draw_coop_block,
    estimate_outage,
    estimate_outage_coop,
    estimate_outage_direct,
    stage_failures,
    user_failures,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def raw_block(cfg, rng, n, omega=None):
    """The hop gains behind ``draw_block(cfg, rng, n)`` for a generator in
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
    for (_, idx, cut), w in zip(point_links(cfg, rho), drops, strict=True):
        with np.errstate(divide="ignore", invalid="ignore"):
            relay_ok = (y > cut) & (w >= cut * cfg.noise_scale / (y - cut))
        fails.append((direct[:, idx.rank - 1] < cut) & ~relay_ok)
    return tuple(fails)


def direct_events_from_cuts(gain, cfg, rho, user):
    """Outage indicators of single-slot user ``user`` at its decode cut."""
    return np.asarray(gain, dtype=float) < point_links(cfg, rho)[user - 1][2]


def scalar_draw(cfg, h_far, h_near, y, w_f, w_n):
    """Single-trial draw with explicit hop gains, relayed by ``cfg``'s
    relay, as ``draw_block`` returns it: one (direct, relay) tuple per
    served user."""
    c = cfg.noise_scale
    return [(np.asarray([h], dtype=float), np.asarray([y * w / (w + c)]))
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

    def test_estimate_from_count(self):
        est = Estimate.from_count(25, 400)
        assert est.p_hat == 0.0625
        assert_allclose(est.stderr, math.sqrt(0.0625 * 0.9375 / 400), rtol=1e-15)
        assert est.trials == 400

    def test_estimate_degenerate_counts(self):
        assert Estimate.from_count(400, 400) == Estimate(1.0, 0.0, 400)
        assert Estimate.from_count(0, 400) == Estimate(0.0, 0.0, 400)


class TestDraws:
    def test_earlier_names_are_the_same_objects(self):
        assert draw_coop_block is draw_block
        assert coop_events_from_sinr is user_failures

    def test_shapes_and_sorted_pool(self):
        for cfg, n_branches in ((coop_preset(), 2), (direct_preset(), 1)):
            draw = draw_block(cfg, np.random.default_rng(0), 1000)
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
            a = draw_block(cfg, np.random.default_rng(11), 500)
            b = draw_block(cfg, np.random.default_rng(11), 500)
            for ta, tb in zip(a, b, strict=True):
                for ga, gb in zip(ta, tb, strict=True):
                    assert np.array_equal(ga, gb)

    def test_effective_relay_gains_of_the_hop_draws(self):
        # each user's relay branch is stored as y * w / (w + c), and its
        # direct gain, drawn at unit scale and scaled by omega / mu, equals
        # its column of a pool drawn at its mean, bit for bit
        for cfg in (coop_preset(), dataclasses.replace(coop_preset(2), relay_gain=0.5),
                    dataclasses.replace(coop_preset(3), omega=(0.37, 0.37))):
            draw = draw_block(cfg, np.random.default_rng(3), 700)
            direct, y, drops = raw_block(cfg, np.random.default_rng(3), 700)
            for (gain, relay), rank, w in zip(draw, cfg.ranks, drops, strict=True):
                assert np.array_equal(gain, direct[:, rank - 1])
                assert np.array_equal(relay, y * w / (w + cfg.noise_scale))
        # without a relay the block draws the pool alone, and each user's
        # one branch is its column of a pool drawn at its own mean
        for cfg in (direct_preset(), with_mu(direct_preset(), 3)):
            rng = np.random.default_rng(3)
            draw = draw_block(cfg, rng, 700)
            for (gain,), rank, omega in zip(draw, cfg.ranks, cfg.omega, strict=True):
                direct, y, drops = raw_block(cfg, np.random.default_rng(3), 700, omega)
                assert (y, drops) == (None, ())
                assert np.array_equal(gain, direct[:, rank - 1])
            after_pool = np.random.default_rng(3)
            raw_block(cfg, after_pool, 700)
            assert rng.bit_generator.state == after_pool.bit_generator.state


class TestSinrChains:
    """Hand-computed SINRs pin the shared stage table and the stage test:
    the closed form and the simulator read the same table, so only an
    outside number catches a wrong power, residual or slot count."""

    def test_slot1_hand_computed(self):
        cfg = coop_preset()  # powers 0.8 / 0.2
        assert sic_stages(cfg) == ((0.8, 0.2, 3.0), (0.2, 0.0, 7.0))
        draw = scalar_draw(cfg, 2.0, 4.0, 1.0, 1.0, 1.0)

        def far(probe):
            return user_failures(draw, probe, 10.0)[0][0]

        def near(probe):
            return user_failures(draw, probe, 10.0)[1][0]

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
            return user_failures(draw, probe, 10.0)[0][0]

        def near(probe):
            draw = scalar_draw(probe, 0.1, 0.1, 1.0, 2.0, 3.0)
            return user_failures(draw, probe, 10.0)[1][0]

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
            return lambda probe: stage_failures(g, probe, 10.0, depth)[0]

        assert_stage_sinr(stage(1), cfg, 1, 2.0 * 5.0 / (2.0 * 5.0 + 1.0))
        assert_stage_sinr(stage(2), cfg, 2, 2.0 * 4.0 / (2.0 * 1.0 + 1.0))
        # last message decodes interference-free
        assert_stage_sinr(stage(3), cfg, 3, 2.0 * 1.0)
        with pytest.raises(ValueError):
            stage_failures(g, cfg, 10.0, 4)
        with pytest.raises(ValueError):
            stage_failures(g, cfg, 10.0, 0)


class TestEventEquivalence:
    """The SINR replay and the inverted gain cuts must label every trial alike."""

    def test_coop_routes_agree_trialwise(self):
        rng = np.random.default_rng(2024)
        for mu in (1, 2):
            cfg = with_mu(coop_preset(), mu)
            raw = raw_block(cfg, copy.deepcopy(rng), 1 << 16)
            draw = draw_block(cfg, rng, 1 << 16)
            for rho_db in (0.0, 10.0, 30.0):
                rho = db_to_linear(rho_db)
                far_a, near_a = user_failures(draw, cfg, rho)
                far_b, near_b = coop_events_from_cuts(raw, cfg, rho)
                assert np.array_equal(far_a, far_b)
                assert np.array_equal(near_a, near_b)
                assert 0 < far_a.sum() < far_a.size  # grid exercises both labels

    def test_coop_routes_agree_when_infeasible(self):
        cfg = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))  # threshold 7 > 4
        draw = draw_block(cfg, np.random.default_rng(8), 4096)
        far_a, near_a = user_failures(draw, cfg, db_to_linear(30.0))
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
            for user in (1, 2, 3):
                a = direct_events_from_sinr(gain, cfg, rho, user)
                b = direct_events_from_cuts(gain, cfg, rho, user)
                assert np.array_equal(a, b)

    def test_direct_routes_agree_when_infeasible(self):
        cfg = ScenarioConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        gain = np.random.default_rng(9).gamma(1.0, 5.0, size=4096)
        a = direct_events_from_sinr(gain, cfg, db_to_linear(40.0), 2)
        b = direct_events_from_cuts(gain, cfg, db_to_linear(40.0), 2)
        assert a.all()
        assert np.array_equal(a, b)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        batch = TrialBatch(trials=3 * BLOCK_TRIALS // 2, seed=5)
        assert estimate_outage_coop(cfg, rho, batch) == estimate_outage_coop(
            cfg, rho, batch
        )

    def test_chunks_do_not_change_estimate(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        trials = 2 * BLOCK_TRIALS + 1234
        one = estimate_outage_coop(cfg, rho, TrialBatch(trials, seed=5, chunks=1))
        many = estimate_outage_coop(cfg, rho, TrialBatch(trials, seed=5, chunks=4))
        assert one == many
        d_one = estimate_outage_direct(
            direct_preset(), rho, 2, TrialBatch(trials, seed=5, chunks=1)
        )
        d_many = estimate_outage_direct(
            direct_preset(), rho, 2, TrialBatch(trials, seed=5, chunks=3)
        )
        assert d_one == d_many

    def test_seed_changes_estimate(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        a, _ = estimate_outage_coop(cfg, rho, TrialBatch(100_000, seed=1))
        b, _ = estimate_outage_coop(cfg, rho, TrialBatch(100_000, seed=2))
        assert a.p_hat != b.p_hat

    def test_far_near_wrappers_share_draws(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        batch = TrialBatch(50_000, seed=3)
        far, near = estimate_outage_coop(cfg, rho, batch)
        assert estimate_outage(cfg, [rho], batch) == [{"far": far, "near": near}]

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_random_stream_is_pinned(self, chunks):
        # Failure counts per rho (rows) and served user (columns) of the
        # committed random stream; any change to them is a change of the
        # stream.  direct_preset has distinct omegas, so the per-user
        # scaling of the shared pool is covered.
        trials = 2 * BLOCK_TRIALS + 1234
        batch = TrialBatch(trials, seed=5, chunks=chunks)
        rhos = (1.0, 10.0, 100.0)
        for cfg, want in (
            (coop_preset(2), [[525181, 525522], [167790, 364486], [771, 2]]),
            (direct_preset(2), [[507773, 519282, 525393], [35602, 8219, 20488], [377, 1, 1]]),
        ):
            points = estimate_outage(cfg, rhos, batch)
            got = [[round(e.p_hat * trials) for e in point.values()] for point in points]
            assert got == want
            assert all(e.trials == trials for point in points for e in point.values())


class TestAgreementWithClosedForms:
    def test_coop_estimates_within_sampling_error(self):
        cfg = coop_preset()
        rho = db_to_linear(10.0)
        far, near = estimate_outage_coop(cfg, rho, TrialBatch(400_000, seed=6))
        p_far = outage_far_exact(cfg, rho)
        p_near = outage_near_exact(cfg, rho)
        assert abs(far.p_hat - p_far) < 4.0 * far.stderr
        assert abs(near.p_hat - p_near) < 4.0 * near.stderr

    def test_direct_estimates_within_sampling_error(self):
        cfg = with_mu(direct_preset(), 2)
        rho = db_to_linear(10.0)
        for user in (1, 2, 3):
            est = estimate_outage_direct(cfg, rho, user, TrialBatch(400_000, seed=6))
            p = outage_direct_exact(cfg, rho, user)
            assert abs(est.p_hat - p) < 4.0 * max(est.stderr, 1e-5)

    def test_single_user_single_slot_reduces_to_plain_cdf(self):
        cfg = ScenarioConfig(power=(1.0,), rates=(0.5,), omega=(2.0,), mu=2)
        rho = 4.0
        est = estimate_outage_direct(cfg, rho, 1, TrialBatch(400_000, seed=12))
        cut = (2.0**0.5 - 1.0) / rho
        p = gamma_cdf(FadingParams(2, 2.0), cut)
        assert abs(est.p_hat - p) < 4.0 * est.stderr

    @pytest.mark.parametrize("user", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_direct_user_follows_served_user_contract(self, user):
        # as for analytic.user_outage, a served user matches in type and value
        cfg = direct_preset()
        with pytest.raises(ValueError):
            estimate_outage_direct(cfg, 10.0, user, TrialBatch(10, seed=0))
        with pytest.raises(ValueError):
            direct_events_from_sinr(np.ones(4), cfg, 10.0, user)

    def test_infeasible_rate_estimates_exactly_one(self):
        coop = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))
        far, near = estimate_outage_coop(coop, db_to_linear(40.0), TrialBatch(10_000, seed=1))
        assert far == Estimate(1.0, 0.0, 10_000)
        assert near == Estimate(1.0, 0.0, 10_000)

    @settings(max_examples=30, deadline=None)
    @given(blocked=blocked_users(), snr_db=st.floats(-10.0, 120.0), seed=st.integers(0, 99))
    def test_stage_without_headroom_estimates_exactly_one(self, blocked, snr_db, seed):
        cfg, user = blocked
        (point,) = estimate_outage(cfg, [db_to_linear(snr_db)], TrialBatch(2000, seed=seed))
        assert point[user] == Estimate(1.0, 0.0, 2000)

    def test_rejects_bad_rho_and_user(self):
        with pytest.raises(ValueError):
            estimate_outage_coop(coop_preset(), 0.0, TrialBatch(10, seed=0))
        with pytest.raises(ValueError):
            estimate_outage_direct(direct_preset(), 10.0, 5, TrialBatch(10, seed=0))
        with pytest.raises(ValueError):
            estimate_outage(direct_preset(), [10.0, math.inf], TrialBatch(10, seed=0))
        with pytest.raises(AttributeError):
            estimate_outage(object(), [10.0], TrialBatch(10, seed=0))
        assert estimate_outage(coop_preset(), [], TrialBatch(10, seed=0)) == []
