"""Unit tests for the closed-form outage, asymptotics, and throughput."""

import dataclasses
import itertools
import json
import math
import signal
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

from noma_perf import analytic, numerics
from noma_perf.analytic import (
    decode_depth,
    diversity_order_fit,
    outage_oma,
    point_links,
    point_outages,
    relay_outage,
    relay_outage_closed,
    served_users,
    sic_stages,
    stage_cuts,
    threshold_snr,
    throughput,
    user_outage,
)
from noma_perf.configs import (
    ScenarioConfig,
    coop_preset,
    direct_preset,
    with_mu,
)
from noma_perf.fading import FadingParams, OrderedIndex, ordered_cdf
from noma_perf.numerics import gamma_p
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


def point_throughput(cfg, rho):
    return throughput(cfg, [p.item() for p, _ in point_outages(cfg, [rho])])


def relay_outage_bessel_first(cut, mu, omega_sr, omega_rd, noise_scale):
    """The relay closed form as it picked its branch before the deep
    series could run first: the Bessel sum on every call, and the deep
    series wherever that sum is below the 1e-6 switch, or (at mu <= 6,
    s below the band's bound) where its double-precision pass lands in
    the band of analytic._DEEP_BAND."""
    s = mu * mu * (cut * noise_scale / omega_sr / omega_rd)
    if (mu * cut / omega_sr > analytic._EXP_UNDERFLOW
            or math.sqrt(s) - mu * math.log(4.0) > analytic._EXP_UNDERFLOW):
        return 1.0
    if s == 0.0:
        return gamma_p(mu, mu * cut / omega_sr)
    if mu <= len(analytic._DEEP_S_MAX) and s < analytic._DEEP_S_MAX[mu - 1]:
        deep = analytic._relay_outage_deep(cut, mu, omega_sr, omega_rd, noise_scale)
        if analytic._DEEP_BAND[0] <= deep < analytic._DEEP_BAND[1]:
            return deep
    value = analytic._relay_outage_f64(cut, mu, omega_sr, omega_rd, noise_scale)
    if value >= 1e-6:
        return value
    return analytic._relay_outage_deep(cut, mu, omega_sr, omega_rd, noise_scale)


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

    def test_past_double_range_is_infinite(self):
        # 2**1024 overflows a double; no SINR meets such a threshold
        assert threshold_snr(1023.0, slots=1) == 2.0 ** 1023 - 1.0
        assert threshold_snr(600.0, slots=2) == math.inf
        assert threshold_snr(1100.0, slots=1) == math.inf


class TestFixedGainConstant:
    def test_literal_kappa(self):
        cfg = coop_preset()
        assert_allclose(cfg.noise_scale, KAPPA_NOISE_SCALE, rtol=1e-15)

    def test_relay_const_override(self):
        # the relay constant c = 1 / G**2 follows the one relay setting, G
        import dataclasses

        cfg = dataclasses.replace(coop_preset(), relay_gain=0.5)
        assert cfg.noise_scale == 4.0


class TestCoopCuts:
    def test_preset_cut_products(self):
        # scale-free products cut * rho pinned from the 0.8 / 0.2 split
        cfg = coop_preset()
        assert [gamma for _, _, gamma in sic_stages(cfg)] == [3.0, 7.0]
        for rho in (1.0, 10.0, 316.0):
            (far_cut,), (near_rate_cut,) = stage_cuts(cfg, [rho])
            assert_allclose(far_cut * rho, FAR_CUT_TIMES_RHO, rtol=1e-14)
            assert_allclose(near_rate_cut * rho, NEAR_CUT_TIMES_RHO, rtol=1e-14)
            (_, _, (far,)), (_, _, (near,)) = point_links(cfg, [rho])
            assert far == far_cut
            assert near == max(far_cut, near_rate_cut)

    def test_infeasible_power_split_gives_infinite_cut(self):
        cfg = ScenarioConfig(
            power=(0.6, 0.4),
            rates=(1.0, 1.0),  # far gamma 3 > 0.6 / 0.4
            omega=(1.0, 1.0),
            mu=1,
            relay_gain=0.9,
            omega_sr=1.0,
            omega_rd=1.0,
        )
        (far_cut,), (near_rate_cut,) = stage_cuts(cfg, [100.0])
        assert math.isinf(far_cut)
        assert math.isinf(point_links(cfg, [100.0])[1][2][0])
        assert math.isfinite(near_rate_cut)

    def test_zero_far_rate(self):
        import dataclasses

        cfg = dataclasses.replace(coop_preset(), rates=(0.0, 1.5))
        assert sic_stages(cfg)[0][2] == 0.0
        assert stage_cuts(cfg, [10.0])[0].tolist() == [0.0]

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="transmit SNR rho must be finite"):
            stage_cuts(coop_preset(), [0.0])
        with pytest.raises(ValueError, match="transmit SNR rho must be finite"):
            stage_cuts(coop_preset(), [-5.0])

    def test_one_cut_function_and_decode_depths(self):
        # one stage-cut tuple per deployment, one entry per served user
        assert [len(stage_cuts(cfg, [10.0])) for cfg in (coop_preset(), direct_preset())] == [2, 3]
        assert [decode_depth(coop_preset(), u) for u in served_users(coop_preset())] == [1, 2]
        assert [decode_depth(direct_preset(), u) for u in (1, 2, 3)] == [1, 2, 3]
        with pytest.raises(ValueError):
            decode_depth(direct_preset(), "far")
        with pytest.raises(AttributeError):
            sic_stages(object())


class TestDirectCuts:
    def test_preset_cut_products(self):
        for rho in (1.0, 50.0):
            cuts = [cut.item() for cut in stage_cuts(direct_preset(), [rho])]
            assert_allclose(cuts[0] * rho, DIRECT_CUT1_TIMES_RHO, rtol=1e-14)
            assert_allclose(cuts[1] * rho, DIRECT_CUT2_TIMES_RHO, rtol=1e-14)
            assert_allclose(cuts[2] * rho, DIRECT_CUT3_TIMES_RHO, rtol=1e-14)

    def test_infeasible_stage_is_infinite(self):
        cfg = ScenarioConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),  # stage 2: gamma 3 > 0.3 / 0.2
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        cuts = [cut.item() for cut in stage_cuts(cfg, [10.0])]
        assert math.isfinite(cuts[0])
        assert math.isinf(cuts[1])
        assert math.isfinite(cuts[2])


class TestRelayOutage:
    CASES = [
        # (mu, omega_sr, omega_rd, relay_gain); gain 0.9 is the preset's
        # KAPPA_NOISE_SCALE, 2**-0.5 a noise constant of about 2
        (1, 4.0, 4.0, 0.9),
        (2, 4.0, 4.0, 0.9),
        (3, 4.0, 4.0, 0.9),
        (2, 1.5, 0.7, 2.0**-0.5),
    ]

    def test_matches_quadrature_both_routes(self):
        for mu, omega_sr, omega_rd, relay_gain in self.CASES:
            cfg = ScenarioConfig(
                power=(0.8, 0.2),
                rates=(1.0, 1.5),
                omega=(1.0, 1.0),
                mu=mu,
                relay_gain=relay_gain,
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("relay_gain, omega_rd", [(1e-12, 4.0), (1e-9, 4.0), (0.9, 1e-300)])
    def test_vanishing_relay_success_is_exactly_one_at_once(self, relay_gain, omega_rd):
        # the Bessel argument 2 sqrt(s) passes 2**31 here, where scipy's kve,
        # which the sum once called, returns nan; that sent these cuts to
        # the deep series at s ~ 1e23 (no return) or into a decimal
        # overflow; the relay succeeds with probability below
        # 4**mu exp(-sqrt(s)) < exp(-745)

        def timeout(signum, frame):
            raise TimeoutError("the relay outage took more than 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            for mu in (1, 3):
                cfg = dataclasses.replace(coop_preset(mu), relay_gain=relay_gain,
                                          omega_rd=omega_rd)
                for snr_db in (0.0, 30.0, 60.0):
                    for _, _, (cut,) in point_links(cfg, [db_to_linear(snr_db)]):
                        assert relay_outage(cfg, cut) == 1.0, (mu, snr_db)
                        assert relay_outage_quadrature(cfg, cut) == pytest.approx(1.0, rel=1e-15)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("omega_sr, omega_rd", [(1e300, 4.0), (1e200, 1e200)])
    def test_extreme_hop_means_keep_the_small_s_limit(self, omega_sr, omega_rd):
        # omega_sr * omega_rd overflows, and at (1e200, 1e200) s underflows
        # too, so only the first hop can fail; at mu = 1 the outage is
        # 1 - exp(-t) x K_1(x), x = 2 sqrt(s), and by DLMF 10.31.1
        # x K_1(x) = 1 + s (ln s + 2 gamma - 1) + O(s**2 ln s)
        for cut in (15.0, 0.015):
            t = cut / omega_sr
            s = cut * KAPPA_NOISE_SCALE / omega_sr / omega_rd
            lead = s * (math.log(s) + 2.0 * analytic._EULER_GAMMA - 1.0) if s else 0.0
            want = -math.expm1(-t) - math.exp(-t) * lead
            got = relay_outage_closed(cut, mu=1, omega_sr=omega_sr, omega_rd=omega_rd,
                                      noise_scale=KAPPA_NOISE_SCALE)
            assert got == pytest.approx(want, rel=1e-12), cut

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

    def test_deep_first_bound_covers_every_deep_s(self):
        # the deep series runs first only below analytic._DEEP_S_MAX, so
        # that bound must not cut off a deep-branch value
        assert len(analytic._DEEP_S_MAX) == len(self.DEEP_S_MAX)
        assert all(a >= b for a, b in zip(analytic._DEEP_S_MAX, self.DEEP_S_MAX))

    @pytest.mark.parametrize("mu", range(1, 7))
    def test_deep_first_series_never_needs_the_decimal_resum(self, mu):
        # where the deep series runs first (s below analytic._DEEP_S_MAX,
        # P(mu, t) below the band's top) its double-precision terms stay
        # within 1e3 of its sum (864 at mu = 6, the corner), far from the
        # 1e5 at which _relay_outage_deep sums them again in decimal
        lo, hi = 0.0, 10.0
        for _ in range(60):  # bisect the t at which P(mu, t) reaches the band's top
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gamma_p(mu, mid) < analytic._DEEP_BAND[1] else (lo, mid)
        rows = analytic._deep_rows(mu)
        for s in np.geomspace(1e-12, analytic._DEEP_S_MAX[mu - 1], 20).tolist():
            lam = math.log(s) + 2.0 * numerics._EULER_GAMMA
            for t in np.geomspace(1e-12, lo, 20).tolist():
                rest, size_sum = analytic._deep_sum(mu, rows, t, s, lam, 1e-17)
                assert size_sum <= 1e3 * abs(rest), (s, t)

    # s at which the outage reaches the top of the series band, 1e-3, as
    # t -> 0, for mu = 1..6
    BAND_S_MAX = (1.117943e-04, 2.539424e-02, 2.181475e-01, 7.704733e-01, 1.843142e+00,
                  3.562095e+00)

    @pytest.mark.parametrize("mu", range(1, 7))
    def test_series_serves_the_band(self, mu):
        # up to the band's top the deep series serves the value, within
        # 5e-14 of mpmath where the Bessel sum is off by up to 2.4e-10
        noise = 1e9
        kw = dict(mu=mu, omega_sr=1.0, omega_rd=1.0, noise_scale=noise)
        s_top = self.BAND_S_MAX[mu - 1]
        assert analytic._DEEP_S_MAX[mu - 1] >= s_top
        assert relay_outage_closed(1.001 * s_top / (mu * mu * noise), **kw) >= 1e-3
        cuts = [frac * s_top / (mu * mu * noise) for frac in (0.999, 0.6)]
        for cut in cuts:
            value = relay_outage_closed(cut, **kw)
            assert analytic._DEEP_BAND[0] <= value < analytic._DEEP_BAND[1]
            assert value == analytic._relay_outage_deep(cut, mu, 1.0, 1.0, noise)
        # against mpmath at the band's top, where the series cancels most
        ref = mp_reference.relay_outage_mp(cuts[0], mu, 1.0, 1.0, noise)
        assert relay_outage_closed(cuts[0], **kw) == pytest.approx(ref, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("mu, omega_sr, omega_rd, noise", [
        (1, 4.0, 4.0, KAPPA_NOISE_SCALE),
        (3, 0.5, 4.0, 0.1),
        (6, 3.0, 0.5, 10.0),
    ])
    @pytest.mark.parametrize("edge", [1e-5, 1e-3])
    def test_band_edges_are_monotone(self, mu, omega_sr, omega_rd, noise, edge):
        # the Bessel sum and the series meet at each edge of the band
        # within the sum's error there, far below the step of the grid
        kw = dict(mu=mu, omega_sr=omega_sr, omega_rd=omega_rd, noise_scale=noise)
        lo, hi = 1e-12, 1e2
        for _ in range(200):  # bisect the cut at which the closed form reaches the edge
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if relay_outage_closed(mid, **kw) < edge else (lo, mid)
        vals = [relay_outage_closed(c, **kw) for c in np.linspace(0.999 * lo, 1.001 * hi, 201)]
        assert vals[0] < edge <= vals[-1]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu", range(1, 13))
    def test_early_branch_choice_keeps_every_bit(self, mu):
        # the closed form against the rule it replaced (Bessel sum first,
        # the deep series below 1e-6) over 1e-3..1e3 times each config's
        # switch cut, and at relative offsets 1e-15..1e-3 around it:
        # the Bessel sum and the series differ there by up to 3e-8
        # relative, so the offsets below that land between the cuts at
        # which each form reaches 1e-6
        for omega_sr, omega_rd, noise in itertools.product(
                mp_reference.GRID_OMEGA_SR, mp_reference.GRID_OMEGA_RD, mp_reference.GRID_NOISE):
            args = (mu, omega_sr, omega_rd, noise)
            lo, hi = 1e-16, 1e3
            while hi / lo - 1.0 > 1e-14:  # bisect the cut where the Bessel sum reaches 1e-6
                mid = math.sqrt(lo * hi)
                lo, hi = (mid, hi) if analytic._relay_outage_f64(mid, *args) < 1e-6 else (lo, mid)
            offsets = np.logspace(-15, -3, 13)
            cuts = [hi * 10.0 ** (e / 2.0) for e in range(-6, 7)]
            cuts += [hi * (1.0 + d) for d in np.concatenate([-offsets, offsets])]
            for cut in cuts:
                got = relay_outage_closed(cut, mu=mu, omega_sr=omega_sr, omega_rd=omega_rd,
                                          noise_scale=noise)
                assert got == relay_outage_bessel_first(cut, *args), (cut, *args)

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

    @pytest.mark.parametrize("overflow", [(-math.inf, math.inf), (math.nan, math.nan)],
                             ids=["inf", "nan"])
    def test_overflowed_float_pass_resums_in_decimal(self, monkeypatch, overflow):
        # past mu = 40 near the switch the double-precision pass overflows
        # (cold calls of 11-14 s at mu = 44); a pass returning inf or nan
        # must escalate to the decimal re-sum, which then gives the value
        # of the normal path
        deep_sum = analytic._deep_sum

        def overflowing(mu, row, t, s, lam, tol):
            return overflow if isinstance(t, float) else deep_sum(mu, row, t, s, lam, tol)

        noise = 1e9
        for mu in (1, 2, 3):
            args = (0.999 * self.DEEP_S_MAX[mu - 1] / (mu * mu * noise), mu, 1.0, 1.0, noise)
            want = analytic._relay_outage_deep(*args)
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "_deep_sum", overflowing)
                got = analytic._relay_outage_deep(*args)
            assert 0.0 < want < 1e-6
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), mu

    def test_euler_gamma_digits(self):
        with mp_reference.mp.workdps(130):
            digits = mp_reference.mp.nstr(mp_reference.mp.euler, 125)
        assert digits.startswith(analytic._EULER_GAMMA_DIGITS)
        # the one double of the constant is the digits rounded, bit for bit
        assert numerics._EULER_GAMMA == float(analytic._EULER_GAMMA_DIGITS)
        assert numerics._EULER_GAMMA.hex() == "0x1.2788cfc6fb619p-1"

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
        # the ordered CDF of the direct gain at the decode cut times the
        # relay factor at the same cut
        cfg = coop_preset()
        for rho_db in (0.0, 10.0, 25.0):
            rho = db_to_linear(rho_db)
            for user, (params, idx, cut) in zip(("far", "near"), point_links(cfg, [rho])):
                assert_allclose(user_outage(cfg, rho, user)[0],
                                ordered_cdf(params, idx, cut) * relay_outage(cfg, cut[0]),
                                rtol=1e-15)

    def test_low_snr_saturates_to_one(self):
        cfg = coop_preset()
        for user in ("far", "near"):
            assert user_outage(cfg, 1e-9, user)[0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_in_snr(self):
        cfg = coop_preset()
        rhos = db_to_linear(np.arange(0.0, 41.0, 5.0))
        for user in ("far", "near"):
            vals = [user_outage(cfg, r, user)[0] for r in rhos]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert 0.0 < vals[-1] < vals[0] <= 1.0

    def test_infeasible_split_is_exactly_one(self):
        import dataclasses

        # far threshold 2**(2*1.5) - 1 = 7 exceeds 0.8 / 0.2 = 4
        cfg = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))
        for rho_db in (0.0, 60.0):
            rho = db_to_linear(rho_db)
            assert user_outage(cfg, rho, "far")[0] == 1.0
            assert user_outage(cfg, rho, "near")[0] == 1.0

    def test_higher_mu_lowers_outage(self):
        rho = db_to_linear(20.0)
        far = [user_outage(with_mu(coop_preset(), m), rho, "far")[0] for m in (1, 2, 3)]
        near = [user_outage(with_mu(coop_preset(), m), rho, "near")[0] for m in (1, 2, 3)]
        assert far[0] > far[1] > far[2]
        assert near[0] > near[1] > near[2]


class TestDirectExactOutage:
    def test_is_ordered_cdf_at_running_max_cut(self):
        cfg = direct_preset()
        rho = db_to_linear(12.0)
        cuts = stage_cuts(cfg, [rho])
        for user in (1, 2, 3):
            ref = ordered_cdf(
                FadingParams(cfg.mu, cfg.omega[user - 1]),
                OrderedIndex(cfg.ranks[user - 1], cfg.pool),
                np.max(cuts[:user], axis=0),
            )
            assert_allclose(user_outage(cfg, rho, user)[0], ref, rtol=1e-15)

    def test_infeasible_stage_is_exactly_one(self):
        cfg = ScenarioConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        rho = db_to_linear(40.0)
        assert user_outage(cfg, rho, 2)[0] == 1.0
        assert user_outage(cfg, rho, 3)[0] == 1.0
        assert user_outage(cfg, rho, 1)[0] < 1.0

    def test_rejects_bad_user(self):
        cfg = direct_preset()
        with pytest.raises(ValueError):
            user_outage(cfg, 10.0, 0)
        with pytest.raises(ValueError):
            user_outage(cfg, 10.0, 4)


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
        with pytest.raises(AttributeError):
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


class TestGridForms:
    """A config's whole SNR grid in one call gives, element by element, the
    bits of one-element-grid calls."""

    @staticmethod
    def assert_grid_is_points(cfg, rhos):
        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64).tolist()

        points = [point_outages(cfg, [rho]) for rho in rhos]
        for u, (exact, asym) in enumerate(point_outages(cfg, rhos)):
            assert bits(exact) == bits([point[u][0][0] for point in points])
            assert bits(asym) == bits([point[u][1][0] for point in points])
        for u, (params, idx, cuts) in enumerate(point_links(cfg, rhos)):
            ones = [point_links(cfg, [rho])[u] for rho in rhos]
            assert all(one[:2] == (params, idx) for one in ones)
            assert bits(cuts) == bits([one[2][0] for one in ones])
        assert [bits(cuts) for cuts in stage_cuts(cfg, rhos)] == [
            bits([cut[0] for cut in stage])
            for stage in zip(*(stage_cuts(cfg, [rho]) for rho in rhos))]
        assert bits(outage_oma(cfg, rhos)) == bits([outage_oma(cfg, [rho])[0] for rho in rhos])

    def test_presets_over_the_deep_grid(self):
        rhos = [db_to_linear(float(db)) for db in range(0, 61, 3)]
        for mu in (1, 2, 3):
            for cfg in (coop_preset(mu), with_mu(direct_preset(), mu)):
                self.assert_grid_is_points(cfg, rhos)

    def test_zero_rates_and_blocked_stages(self):
        zero = dataclasses.replace(coop_preset(2), rates=(0.0, 0.0))
        # far threshold 2**(2*1.5) - 1 = 7 exceeds 0.8 / 0.2 = 4
        blocked = dataclasses.replace(coop_preset(2), rates=(1.5, 1.0))
        for cfg in (zero, blocked):
            self.assert_grid_is_points(cfg, [1e-3, 1.0, 1e4])
        assert point_outages(blocked, [1.0, 1e4])[0][0].tolist() == [1.0, 1.0]
        assert point_outages(zero, [1.0, 1e4])[1][0].tolist() == [0.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(cfg=configs(), snr_db=st.lists(st.floats(-10.0, 70.0), min_size=1, max_size=6))
    def test_random_configs(self, cfg, snr_db):
        self.assert_grid_is_points(cfg, [db_to_linear(db) for db in snr_db])

    def test_empty_grid_and_bad_rho(self):
        assert [cuts.tolist() for cuts in stage_cuts(coop_preset(), [])] == [[], []]
        assert outage_oma(coop_preset(), []).tolist() == []
        for rhos in ([1.0, 0.0], [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError):
                stage_cuts(coop_preset(), rhos)
            with pytest.raises(ValueError):
                outage_oma(coop_preset(), rhos)

    def test_rho_is_a_grid(self):
        # a single SNR is the grid [rho]; a scalar or a 2-D table is refused
        for rho in (10.0, np.float64(10.0), np.array(10.0), [[10.0]]):
            for fn in (stage_cuts, point_links, point_outages, outage_oma):
                with pytest.raises(ValueError, match="1-D grid"):
                    fn(coop_preset(), rho)


class TestAsymptotics:
    def test_coop_ratio_near_one_at_high_snr(self):
        for mu in (1, 2, 3):
            cfg = with_mu(coop_preset(), mu)
            rho = db_to_linear(60.0)
            for user in ("far", "near"):
                exact, asym = user_outage(cfg, rho, user)
                assert abs(asym / exact - 1.0) < 0.05

    def test_direct_ratio_near_one_at_high_snr(self):
        for mu in (1, 2, 3):
            cfg = with_mu(direct_preset(), mu)
            rho = db_to_linear(60.0)
            for user in (1, 2, 3):
                exact, asym = user_outage(cfg, rho, user)
                assert abs(asym / exact - 1.0) < 0.05

    def test_direct_asym_is_pure_power_law(self):
        cfg = with_mu(direct_preset(), 2)
        for user in (1, 2, 3):
            p1 = user_outage(cfg, db_to_linear(50.0), user)[1]
            p2 = user_outage(cfg, db_to_linear(60.0), user)[1]
            slope = math.log10(p1 / p2)  # per decade of rho
            assert_allclose(slope, cfg.mu * cfg.ranks[user - 1], rtol=1e-12)

    def test_clamped_to_one_at_low_snr(self):
        cfg = coop_preset()
        assert user_outage(cfg, 1e-6, "far")[1] == 1.0
        assert user_outage(direct_preset(), 1e-6, 3)[1] == 1.0

    def test_clamped_to_one_where_leading_term_overflows(self):
        # at 0 dB the leading term of the near user's ordered CDF passes the
        # double range at mu = 32 (coop) and mu = 100 (single slot)
        for cfg, user in ((with_mu(coop_preset(), 32), "near"),
                          (with_mu(direct_preset(), 100), 3)):
            exact, asym = user_outage(cfg, 1.0, user)
            assert 0.0 <= exact <= 1.0
            assert asym == 1.0


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
            far = diversity_order_fit((r, user_outage(coop, r, "far")[0]) for r in grid)
            near = diversity_order_fit((r, user_outage(coop, r, "near")[0]) for r in grid)
            assert abs(far - mu * (coop.ranks[0] + 1)) / (mu * (coop.ranks[0] + 1)) < 0.05
            assert (
                abs(near - mu * (coop.ranks[1] + 1)) / (mu * (coop.ranks[1] + 1))
                < 0.05
            )
            direct = with_mu(direct_preset(), mu)
            for user in (1, 2, 3):
                got = diversity_order_fit(
                    (r, user_outage(direct, r, user)[0]) for r in grid
                )
                want = mu * direct.ranks[user - 1]
                assert abs(got - want) / want < 0.05


class TestThroughput:
    def test_coop_matches_outage_identity(self):
        cfg = coop_preset()
        rho = db_to_linear(18.0)
        want = (1.0 - user_outage(cfg, rho, "far")[0]) * cfg.rates[0] + (
            1.0 - user_outage(cfg, rho, "near")[0]
        ) * cfg.rates[1]
        assert_allclose(point_throughput(cfg, rho), want, rtol=1e-15)

    def test_direct_matches_outage_identity(self):
        cfg = direct_preset()
        rho = db_to_linear(18.0)
        want = sum(
            (1.0 - user_outage(cfg, rho, u + 1)[0]) * cfg.rates[u]
            for u in range(cfg.n_users)
        )
        assert_allclose(point_throughput(cfg, rho), want, rtol=1e-14)

    def test_approaches_rate_ceiling(self):
        rho = db_to_linear(50.0)
        coop = coop_preset()
        assert_allclose(point_throughput(coop, rho), coop.rates[0] + coop.rates[1],
                        atol=1e-4)
        direct = direct_preset()
        assert_allclose(point_throughput(direct, rho), math.fsum(direct.rates),
                        atol=1e-4)

    def test_monotone_in_snr(self):
        rhos = db_to_linear(np.arange(0.0, 41.0, 5.0))
        for cfg in (coop_preset(), direct_preset()):
            vals = [point_throughput(cfg, r) for r in rhos]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestOmaBaseline:
    def test_coop_is_best_user_two_slot_product(self):
        cfg = coop_preset()
        rho = db_to_linear(12.0)
        cut = threshold_snr(cfg.rates[0] + cfg.rates[1], slots=2) / rho
        direct = ordered_cdf(
            FadingParams(cfg.mu, cfg.omega[0]),
            OrderedIndex(cfg.pool, cfg.pool),
            np.array([cut]),
        )
        relay = relay_outage(cfg, cut)
        assert_allclose(outage_oma(cfg, [rho]), direct * relay, rtol=1e-14)

    def test_direct_is_top_rank_single_slot(self):
        cfg = direct_preset()
        rho = db_to_linear(12.0)
        cut = threshold_snr(math.fsum(cfg.rates), slots=1) / rho
        ref = ordered_cdf(
            FadingParams(cfg.mu, cfg.omega[-1]),
            OrderedIndex(cfg.ranks[-1], cfg.pool),
            np.array([cut]),
        )
        assert_allclose(outage_oma(cfg, [rho]), ref, rtol=1e-14)

    def test_coop_schedules_the_near_user_not_the_pool_top(self):
        import dataclasses

        # near user at rank 3 of a pool of 5: the pool top is not served
        cfg = dataclasses.replace(coop_preset(2), ranks=(1, 3))
        rho = db_to_linear(20.0)
        cut = threshold_snr(cfg.rates[0] + cfg.rates[1], slots=2) / rho
        relay = relay_outage(cfg, cut)
        params = FadingParams(cfg.mu, cfg.omega[0])
        cuts = np.array([cut])
        served = ordered_cdf(params, OrderedIndex(3, 5), cuts) * relay
        assert_allclose(outage_oma(cfg, [rho]), served, rtol=1e-14)
        top = ordered_cdf(params, OrderedIndex(5, 5), cuts) * relay
        assert outage_oma(cfg, [rho]) > 100.0 * top

    def test_zero_total_rate_gives_zero(self):
        import dataclasses

        cfg = dataclasses.replace(coop_preset(), rates=(0.0, 0.0))
        assert outage_oma(cfg, [db_to_linear(12.0)]).tolist() == [0.0]

    def test_decreasing_in_snr(self):
        for cfg in (coop_preset(), direct_preset()):
            vals = outage_oma(cfg, [db_to_linear(db) for db in (0.0, 20.0, 40.0)]).tolist()
            assert vals[0] > vals[1] > vals[2] > 0.0

    def test_rejects_bad_rho(self):
        for cfg in (coop_preset(), direct_preset()):
            for rho in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="transmit SNR rho must be finite"):
                    outage_oma(cfg, [rho])
