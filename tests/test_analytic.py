"""Unit tests for the closed-form outage, asymptotics, and throughput."""

import json
import math
import warnings
from fractions import Fraction

import mp_reference
import numpy as np
import pytest
from config_strategies import blocked_users, configs
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from quadpack_reference import relay_outage_quadpack

from noma_perf import analytic
from noma_perf.analytic import (
    decode_depth,
    diversity_order_fit,
    far_outage_parts,
    near_outage_parts,
    outage_direct_asymptotic,
    outage_direct_exact,
    outage_far_asymptotic,
    outage_far_exact,
    outage_near_asymptotic,
    outage_near_exact,
    outage_oma,
    relay_outage,
    relay_outage_closed,
    served_users,
    sic_stages,
    stage_cuts,
    threshold_snr,
    throughput_coop,
    throughput_direct,
    user_link,
    user_outage,
)
from noma_perf.configs import (
    CoopConfig,
    DirectConfig,
    coop_preset,
    direct_preset,
    with_mu,
)
from noma_perf.fading import FadingParams, OrderedIndex, ordered_cdf
from noma_perf.validation import relay_outage_quadrature

# Frozen threshold / cut constants for the committed presets (elementary
# closed forms: 2**(slots*rate) - 1 and ratios of the power split)
GAMMA_ONE_FIFTH_RATE = 0.1486983549970351
FAR_CUT_TIMES_RHO = 15.0
NEAR_CUT_TIMES_RHO = 35.0
DIRECT_CUT1_TIMES_RHO = 0.349343516178727
DIRECT_CUT2_TIMES_RHO = 10.0 / 3.0
DIRECT_CUT3_TIMES_RHO = 30.0
KAPPA_NOISE_SCALE = 1.2345679012345678


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


class TestThresholdSnr:
    def test_values(self):
        assert threshold_snr(1.0, slots=1) == 1.0
        assert threshold_snr(1.0, slots=2) == 3.0
        assert threshold_snr(1.5, slots=2) == 7.0
        assert threshold_snr(0.0, slots=2) == 0.0
        assert_allclose(threshold_snr(0.2, slots=1), GAMMA_ONE_FIFTH_RATE, rtol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            threshold_snr(1.0, slots=3)
        with pytest.raises(ValueError):
            threshold_snr(-0.5, slots=1)
        with pytest.raises(ValueError):
            threshold_snr(math.inf, slots=1)


class TestFixedGainConstant:
    def test_literal_kappa(self):
        cfg = coop_preset()
        assert_allclose(cfg.noise_scale, KAPPA_NOISE_SCALE, rtol=1e-15)

    def test_relay_const_override(self):
        base = coop_preset()
        import dataclasses

        cfg = dataclasses.replace(base, relay_gain=None, relay_const=2.5)
        assert cfg.noise_scale == 2.5


class TestCoopCuts:
    def test_preset_cut_products(self):
        # scale-free products cut * rho pinned from the 0.8 / 0.2 split
        cfg = coop_preset()
        assert [gamma for _, _, gamma in sic_stages(cfg)] == [3.0, 7.0]
        for rho in (1.0, 10.0, 316.0):
            far_cut, near_rate_cut = stage_cuts(cfg, rho)
            assert_allclose(far_cut * rho, FAR_CUT_TIMES_RHO, rtol=1e-14)
            assert_allclose(near_rate_cut * rho, NEAR_CUT_TIMES_RHO, rtol=1e-14)
            assert user_link(cfg, rho, "far")[2] == far_cut
            assert user_link(cfg, rho, "near")[2] == max(far_cut, near_rate_cut)

    def test_infeasible_power_split_gives_infinite_cut(self):
        cfg = CoopConfig(
            users=2,
            far_rank=1,
            near_rank=2,
            power_far=0.6,
            power_near=0.4,
            rate_far=1.0,  # gamma 3 > 0.6 / 0.4
            rate_near=1.0,
            relay_gain=0.9,
            mu=1,
            omega_sd=1.0,
            omega_sr=1.0,
            omega_rd=1.0,
        )
        far_cut, near_rate_cut = stage_cuts(cfg, 100.0)
        assert math.isinf(far_cut)
        assert math.isinf(user_link(cfg, 100.0, "near")[2])
        assert math.isfinite(near_rate_cut)

    def test_zero_far_rate(self):
        import dataclasses

        cfg = dataclasses.replace(coop_preset(), rate_far=0.0)
        assert sic_stages(cfg)[0][2] == 0.0
        assert stage_cuts(cfg, 10.0)[0] == 0.0

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            stage_cuts(coop_preset(), 0.0)
        with pytest.raises(ValueError):
            stage_cuts(coop_preset(), -5.0)

    def test_one_cut_function_and_decode_depths(self):
        assert analytic.coop_cuts is analytic.direct_cuts is stage_cuts
        assert [decode_depth(coop_preset(), u) for u in served_users(coop_preset())] == [1, 2]
        assert [decode_depth(direct_preset(), u) for u in (1, 2, 3)] == [1, 2, 3]
        with pytest.raises(ValueError):
            decode_depth(direct_preset(), "far")
        with pytest.raises(TypeError):
            sic_stages(object())


class TestDirectCuts:
    def test_preset_cut_products(self):
        for rho in (1.0, 50.0):
            cuts = stage_cuts(direct_preset(), rho)
            assert_allclose(cuts[0] * rho, DIRECT_CUT1_TIMES_RHO, rtol=1e-14)
            assert_allclose(cuts[1] * rho, DIRECT_CUT2_TIMES_RHO, rtol=1e-14)
            assert_allclose(cuts[2] * rho, DIRECT_CUT3_TIMES_RHO, rtol=1e-14)

    def test_infeasible_stage_is_infinite(self):
        cfg = DirectConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),  # stage 2: gamma 3 > 0.3 / 0.2
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        cuts = stage_cuts(cfg, 10.0)
        assert math.isfinite(cuts[0])
        assert math.isinf(cuts[1])
        assert math.isfinite(cuts[2])


class TestRelayOutage:
    CASES = [
        # (mu, omega_sr, omega_rd, noise_scale)
        (1, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (2, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (3, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (2, 1.5, 0.7, 2.0),
    ]

    def test_matches_quadrature_both_routes(self):
        for mu, omega_sr, omega_rd, noise_scale in self.CASES:
            cfg = CoopConfig(
                users=2,
                far_rank=1,
                near_rank=2,
                power_far=0.8,
                power_near=0.2,
                rate_far=1.0,
                rate_near=1.5,
                relay_gain=None,
                relay_const=noise_scale,
                mu=mu,
                omega_sd=1.0,
                omega_sr=omega_sr,
                omega_rd=omega_rd,
            )
            for cut in (0.03, 0.3, 1.5):
                closed = relay_outage(cfg, cut)
                for ref in (relay_outage_quadrature(cfg, cut), relay_outage_quadpack(cfg, cut)):
                    assert_allclose(closed, ref, rtol=1e-8)

    def test_edge_cases(self):
        kw = dict(mu=2, omega_sr=4.0, omega_rd=4.0, noise_scale=1.0)
        assert relay_outage_closed(0.0, **kw) == 0.0
        assert relay_outage_closed(math.inf, **kw) == 1.0
        # deep cut: the feeder-link factor alone underflows exp(-745)
        assert relay_outage_closed(4.0 * 746.0 / 2.0, **kw) == 1.0

    def test_monotone_in_cut(self):
        kw = dict(mu=1, omega_sr=4.0, omega_rd=4.0, noise_scale=KAPPA_NOISE_SCALE)
        vals = [relay_outage_closed(c, **kw) for c in np.logspace(-4, 2, 25)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[0] < vals[-1] <= 1.0

    def test_deep_tail_stays_positive_and_accurate(self):
        # far below 1e-6 the deep branch's series takes over from the
        # cancelling Bessel sum; the quadrature oracle must still agree
        cfg = with_mu(coop_preset(), 2)
        cut = 3.0 / db_to_linear(45.0)
        closed = relay_outage(cfg, cut)
        assert 0.0 < closed < 1e-7
        for ref in (relay_outage_quadrature(cfg, cut), relay_outage_quadpack(cfg, cut)):
            assert_allclose(closed, ref, rtol=1e-7)

    def test_deep_coefficients_start_with_the_incomplete_gamma_sum(self):
        # the q = 0 row is sum_{p<mu} t**p / p!, so exp(-t) times it is
        # the upper incomplete gamma function the deep branch subtracts
        for mu in range(1, 7):
            row = analytic._deep_coefficients(mu, 0)
            assert row == {p: (Fraction(1, math.factorial(p)), 0) for p in range(mu)}
        # the O(s) terms of mu = 2 cancel exactly between K_1 and K_2
        assert 0 not in analytic._deep_coefficients(2, 1)

    def test_deep_branch_matches_mp_reference(self):
        # every row of the table lies below the switch, on the deep branch
        table = json.loads(mp_reference.TABLE_PATH.read_text(encoding="utf-8"))["rows"]
        assert {row[0] for row in table} == set(mp_reference.GRID_MU)
        for mu, omega_sr, omega_rd, noise, cut, ref in table:
            args = (cut, mu, omega_sr, omega_rd, noise)
            deep = analytic._relay_outage_deep(*args)
            assert deep == pytest.approx(ref, rel=1e-10, abs=0.0), args
            assert relay_outage_closed(cut, mu=mu, omega_sr=omega_sr, omega_rd=omega_rd,
                                       noise_scale=noise) == deep, args

    # s at which the Bessel sum reaches 1e-6 as t -> 0, for mu = 1..6: the
    # outage grows with t and s, so the deep branch never sees a larger s
    DEEP_S_MAX = (6.07454e-08, 5.39410e-04, 1.51857e-02, 9.58308e-02, 3.23604e-01, 7.86845e-01)

    @pytest.mark.parametrize("mu", range(1, 7))
    def test_largest_deep_s(self, mu):
        noise = 1e9  # t = s / (mu**2 * noise) is negligible next to s
        kw = dict(mu=mu, omega_sr=1.0, omega_rd=1.0, noise_scale=noise)
        s_max = self.DEEP_S_MAX[mu - 1]
        assert relay_outage_closed(1.001 * s_max / (mu * mu * noise), **kw) >= 1e-6
        cut = 0.999 * s_max / (mu * mu * noise)
        value = relay_outage_closed(cut, **kw)
        assert value < 1e-6
        assert value == analytic._relay_outage_deep(cut, mu, 1.0, 1.0, noise)
        ref = mp_reference.relay_outage_mp(cut, mu, 1.0, 1.0, noise)
        assert value == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_large_mu_resums_in_decimal(self, monkeypatch):
        # at mu = 14 near the switch the series' terms are ~1e8 times its
        # sum, so a double-precision sum would be off by ~1e-9
        resums = []
        decimal_sum = analytic._deep_sum_decimal

        def counted(*args):
            resums.append(args[-1])
            return decimal_sum(*args)

        monkeypatch.setattr(analytic, "_deep_sum_decimal", counted)
        mu, noise = 14, 1e9
        cut = 0.999 * 21.6 / (mu * mu * noise)
        value = relay_outage_closed(cut, mu=mu, omega_sr=1.0, omega_rd=1.0, noise_scale=noise)
        assert resums == [32] and value < 1e-6
        ref = mp_reference.relay_outage_mp(cut, mu, 1.0, 1.0, noise)
        assert value == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_euler_gamma_digits(self):
        with mp_reference.mp.workdps(130):
            digits = mp_reference.mp.nstr(mp_reference.mp.euler, 125)
        assert digits.startswith(analytic._EULER_GAMMA_DIGITS)

    @pytest.mark.parametrize("mu, omega_sr, omega_rd, noise", [
        (1, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (2, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (3, 0.5, 4.0, 0.1),
        (6, 3.0, 0.5, 10.0),
    ])
    def test_switch_is_continuous_and_monotone(self, mu, omega_sr, omega_rd, noise):
        kw = dict(mu=mu, omega_sr=omega_sr, omega_rd=omega_rd, noise_scale=noise)
        args = (mu, omega_sr, omega_rd, noise)
        lo, hi = 1e-12, 1e2
        for _ in range(200):  # bisect the cut at which the Bessel sum reaches 1e-6
            mid = math.sqrt(lo * hi)
            if analytic._relay_outage_f64(mid, *args) < 1e-6:
                lo = mid
            else:
                hi = mid
        assert hi / lo - 1.0 < 1e-12
        # both forms agree at the switch, up to the Bessel sum's own error
        # there of a few 1e-9
        assert analytic._relay_outage_deep(hi, *args) == pytest.approx(
            analytic._relay_outage_f64(hi, *args), rel=1e-8)
        vals = [relay_outage_closed(c, **kw) for c in np.linspace(0.999 * lo, 1.001 * hi, 401)]
        assert vals[0] < 1e-6 <= vals[-1]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.integers(1, 6),
        omega_sr=st.floats(0.1, 10.0),
        omega_rd=st.floats(0.1, 10.0),
        noise=st.floats(0.01, 100.0),
        log_cut=st.floats(-12.0, 2.0),
        log_step=st.floats(0.0, 2.0),
    )
    def test_in_unit_interval_and_nondecreasing(self, mu, omega_sr, omega_rd, noise,
                                                 log_cut, log_step):
        kw = dict(mu=mu, omega_sr=omega_sr, omega_rd=omega_rd, noise_scale=noise)
        low = relay_outage_closed(10.0 ** log_cut, **kw)
        high = relay_outage_closed(10.0 ** (log_cut + log_step), **kw)
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        # up to the Bessel sum's few-1e-9 error just above the switch
        assert low <= high * (1.0 + 1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            relay_outage_closed(-1.0, mu=1, omega_sr=1.0, omega_rd=1.0, noise_scale=1.0)
        with pytest.raises(ValueError):
            relay_outage_closed(1.0, mu=0, omega_sr=1.0, omega_rd=1.0, noise_scale=1.0)
        with pytest.raises(ValueError):
            relay_outage_closed(1.0, mu=1, omega_sr=0.0, omega_rd=1.0, noise_scale=1.0)


class TestCoopExactOutage:
    def test_product_of_parts(self):
        cfg = coop_preset()
        for rho_db in (0.0, 10.0, 25.0):
            rho = db_to_linear(rho_db)
            d, r = far_outage_parts(cfg, rho)
            assert_allclose(outage_far_exact(cfg, rho), d * r, rtol=1e-15)
            d, r = near_outage_parts(cfg, rho)
            assert_allclose(outage_near_exact(cfg, rho), d * r, rtol=1e-15)

    def test_direct_part_is_ordered_cdf_at_cut(self):
        cfg = with_mu(coop_preset(), 2)
        rho = db_to_linear(15.0)
        far_cut = stage_cuts(cfg, rho)[0]
        d, _ = far_outage_parts(cfg, rho)
        ref = ordered_cdf(
            FadingParams(cfg.mu, cfg.omega_sd),
            OrderedIndex(cfg.far_rank, cfg.users),
            far_cut,
        )
        assert_allclose(d, ref, rtol=1e-15)

    def test_low_snr_saturates_to_one(self):
        cfg = coop_preset()
        for f in (outage_far_exact, outage_near_exact):
            assert f(cfg, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_in_snr(self):
        cfg = coop_preset()
        rhos = db_to_linear(np.arange(0.0, 41.0, 5.0))
        for f in (outage_far_exact, outage_near_exact):
            vals = [f(cfg, r) for r in rhos]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert 0.0 < vals[-1] < vals[0] <= 1.0

    def test_infeasible_split_is_exactly_one(self):
        import dataclasses

        # far threshold 2**(2*1.5) - 1 = 7 exceeds 0.8 / 0.2 = 4
        cfg = dataclasses.replace(coop_preset(), rate_far=1.5)
        for rho_db in (0.0, 60.0):
            rho = db_to_linear(rho_db)
            assert outage_far_exact(cfg, rho) == 1.0
            assert outage_near_exact(cfg, rho) == 1.0

    def test_higher_mu_lowers_outage(self):
        rho = db_to_linear(20.0)
        far = [outage_far_exact(with_mu(coop_preset(), m), rho) for m in (1, 2, 3)]
        near = [outage_near_exact(with_mu(coop_preset(), m), rho) for m in (1, 2, 3)]
        assert far[0] > far[1] > far[2]
        assert near[0] > near[1] > near[2]


class TestDirectExactOutage:
    def test_is_ordered_cdf_at_running_max_cut(self):
        cfg = direct_preset()
        rho = db_to_linear(12.0)
        cuts = stage_cuts(cfg, rho)
        for user in (1, 2, 3):
            ref = ordered_cdf(
                FadingParams(cfg.mu, cfg.omega[user - 1]),
                OrderedIndex(cfg.ranks[user - 1], cfg.pool),
                float(np.max(cuts[:user])),
            )
            assert_allclose(outage_direct_exact(cfg, rho, user), ref, rtol=1e-15)

    def test_infeasible_stage_is_exactly_one(self):
        cfg = DirectConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        rho = db_to_linear(40.0)
        assert outage_direct_exact(cfg, rho, 2) == 1.0
        assert outage_direct_exact(cfg, rho, 3) == 1.0
        assert outage_direct_exact(cfg, rho, 1) < 1.0

    def test_rejects_bad_user(self):
        cfg = direct_preset()
        with pytest.raises(ValueError):
            outage_direct_exact(cfg, 10.0, 0)
        with pytest.raises(ValueError):
            outage_direct_exact(cfg, 10.0, 4)


class TestUserOutage:
    def test_rejects_unknown_user_and_config(self):
        with pytest.raises(ValueError):
            user_outage(coop_preset(), 10.0, "middle")
        with pytest.raises(ValueError):
            user_outage(direct_preset(), 10.0, 4)
        # served users match by type and value, never by coercion
        for user in ("far", "2", 2.0, True):
            with pytest.raises(ValueError):
                user_outage(direct_preset(), 10.0, user)
        with pytest.raises(TypeError):
            user_outage(object(), 10.0, 1)


    @settings(max_examples=80, deadline=None)
    @given(cfg=configs(), snr_db=st.lists(st.floats(-10.0, 70.0), min_size=2, max_size=2))
    def test_exact_non_increasing_in_snr_on_random_configs(self, cfg, snr_db):
        low, high = (db_to_linear(db) for db in sorted(snr_db))
        for user in served_users(cfg):
            p_low, p_high = user_outage(cfg, low, user)[0], user_outage(cfg, high, user)[0]
            assert 0.0 <= p_high <= 1.0
            # up to the Bessel sum's few-1e-9 error just above its switch
            assert p_high <= p_low * (1.0 + 1e-8), user

    @settings(max_examples=80, deadline=None)
    @given(blocked=blocked_users(), snr_db=st.floats(-10.0, 120.0))
    def test_stage_without_headroom_gives_exactly_one(self, blocked, snr_db):
        cfg, user = blocked
        assert user_outage(cfg, db_to_linear(snr_db), user) == (1.0, 1.0)

class TestAsymptotics:
    def test_coop_ratio_near_one_at_high_snr(self):
        for mu in (1, 2, 3):
            cfg = with_mu(coop_preset(), mu)
            rho = db_to_linear(60.0)
            for exact, asym in (
                (outage_far_exact, outage_far_asymptotic),
                (outage_near_exact, outage_near_asymptotic),
            ):
                ratio = asym(cfg, rho) / exact(cfg, rho)
                assert abs(ratio - 1.0) < 0.05

    def test_direct_ratio_near_one_at_high_snr(self):
        for mu in (1, 2, 3):
            cfg = with_mu(direct_preset(), mu)
            rho = db_to_linear(60.0)
            for user in (1, 2, 3):
                ratio = outage_direct_asymptotic(cfg, rho, user) / outage_direct_exact(
                    cfg, rho, user
                )
                assert abs(ratio - 1.0) < 0.05

    def test_direct_asym_is_pure_power_law(self):
        cfg = with_mu(direct_preset(), 2)
        for user in (1, 2, 3):
            p1 = outage_direct_asymptotic(cfg, db_to_linear(50.0), user)
            p2 = outage_direct_asymptotic(cfg, db_to_linear(60.0), user)
            slope = math.log10(p1 / p2)  # per decade of rho
            assert_allclose(slope, cfg.mu * cfg.ranks[user - 1], rtol=1e-12)

    def test_clamped_to_one_at_low_snr(self):
        cfg = coop_preset()
        assert outage_far_asymptotic(cfg, 1e-6) == 1.0
        assert outage_direct_asymptotic(direct_preset(), 1e-6, 3) == 1.0


class TestDiversityOrderFit:
    def test_recovers_synthetic_power_law(self):
        rhos = np.logspace(4, 6, 9)
        curve = [(r, 3.7 * r**-2.5) for r in rhos]
        assert_allclose(diversity_order_fit(curve), 2.5, rtol=1e-12)

    def test_constant_curve_gives_zero(self):
        curve = [(r, 0.25) for r in (1e4, 1e5, 1e6)]
        assert diversity_order_fit(curve) == pytest.approx(0.0, abs=1e-12)

    def test_drops_underflowed_points_with_warning(self):
        curve = [(1e4, 1e-8), (1e5, 1e-10), (1e6, 0.0)]
        with pytest.warns(UserWarning):
            order = diversity_order_fit(curve)
        assert_allclose(order, 2.0, rtol=1e-12)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            diversity_order_fit([(10.0, -1e-3), (100.0, 1e-4)])
        with pytest.raises(ValueError):
            diversity_order_fit([(0.0, 0.5), (100.0, 1e-4)])
        with pytest.raises(ValueError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                diversity_order_fit([(10.0, 0.0), (100.0, 1e-4)])

    def test_measured_orders_match_channel_richness(self):
        # empirical slopes over 50..60 dB approach mu * (rank)
        grid = [db_to_linear(db) for db in (50.0, 55.0, 60.0)]
        for mu in (1, 2):
            coop = with_mu(coop_preset(), mu)
            far = diversity_order_fit((r, outage_far_exact(coop, r)) for r in grid)
            near = diversity_order_fit((r, outage_near_exact(coop, r)) for r in grid)
            assert abs(far - mu * (coop.far_rank + 1)) / (mu * (coop.far_rank + 1)) < 0.05
            assert (
                abs(near - mu * (coop.near_rank + 1)) / (mu * (coop.near_rank + 1))
                < 0.05
            )
            direct = with_mu(direct_preset(), mu)
            for user in (1, 2, 3):
                got = diversity_order_fit(
                    (r, outage_direct_exact(direct, r, user)) for r in grid
                )
                want = mu * direct.ranks[user - 1]
                assert abs(got - want) / want < 0.05


class TestThroughput:
    def test_coop_matches_outage_identity(self):
        cfg = coop_preset()
        rho = db_to_linear(18.0)
        want = (1.0 - outage_far_exact(cfg, rho)) * cfg.rate_far + (
            1.0 - outage_near_exact(cfg, rho)
        ) * cfg.rate_near
        assert_allclose(throughput_coop(cfg, rho), want, rtol=1e-15)

    def test_direct_matches_outage_identity(self):
        cfg = direct_preset()
        rho = db_to_linear(18.0)
        want = sum(
            (1.0 - outage_direct_exact(cfg, rho, u + 1)) * cfg.rates[u]
            for u in range(cfg.n_users)
        )
        assert_allclose(throughput_direct(cfg, rho), want, rtol=1e-14)

    def test_approaches_rate_ceiling(self):
        rho = db_to_linear(50.0)
        coop = coop_preset()
        assert_allclose(throughput_coop(coop, rho), coop.rate_far + coop.rate_near,
                        atol=1e-4)
        direct = direct_preset()
        assert_allclose(throughput_direct(direct, rho), math.fsum(direct.rates),
                        atol=1e-4)

    def test_monotone_in_snr(self):
        coop, direct = coop_preset(), direct_preset()
        rhos = db_to_linear(np.arange(0.0, 41.0, 5.0))
        for f, cfg in ((throughput_coop, coop), (throughput_direct, direct)):
            vals = [f(cfg, r) for r in rhos]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestOmaBaseline:
    def test_coop_is_best_user_two_slot_product(self):
        cfg = coop_preset()
        rho = db_to_linear(12.0)
        cut = threshold_snr(cfg.rate_far + cfg.rate_near, slots=2) / rho
        direct = ordered_cdf(
            FadingParams(cfg.mu, cfg.omega_sd),
            OrderedIndex(cfg.users, cfg.users),
            cut,
        )
        relay = relay_outage(cfg, cut)
        assert_allclose(outage_oma(cfg, rho), direct * relay, rtol=1e-14)

    def test_direct_is_top_rank_single_slot(self):
        cfg = direct_preset()
        rho = db_to_linear(12.0)
        cut = threshold_snr(math.fsum(cfg.rates), slots=1) / rho
        ref = ordered_cdf(
            FadingParams(cfg.mu, cfg.omega[-1]),
            OrderedIndex(cfg.ranks[-1], cfg.pool),
            cut,
        )
        assert_allclose(outage_oma(cfg, rho), ref, rtol=1e-14)

    def test_decreasing_in_snr(self):
        for cfg in (coop_preset(), direct_preset()):
            vals = [outage_oma(cfg, db_to_linear(db)) for db in (0.0, 20.0, 40.0)]
            assert vals[0] > vals[1] > vals[2] > 0.0
