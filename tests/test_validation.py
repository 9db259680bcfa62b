"""Unit tests for the quadrature oracles and the validation gate."""

import dataclasses
import math
import random

import numpy as np
import pytest
from config_strategies import configs
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from quadpack_reference import ordered_cdf_quadpack, relay_outage_quadpack

from noma_perf.analytic import (
    point_links,
    served_users,
    stage_cuts,
    user_outage,
)
from noma_perf.configs import ConfigError, ScenarioConfig, coop_preset, direct_preset, with_mu
from noma_perf.fading import FadingParams, OrderedIndex, gamma_cdf, ordered_cdf
from noma_perf.montecarlo import TrialBatch
from noma_perf.numerics import QuadratureError
from noma_perf.validation import (
    MC_PROBABILITY_FLOOR,
    link_oracles,
    ordered_cdf_quadrature,
    outage_oracle,
    relay_outage_quadrature,
    run_validation_suite,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


class TestRelayQuadrature:
    def test_de_and_quadpack_routes_agree(self):
        for mu in (1, 2, 3):
            cfg = with_mu(coop_preset(), mu)
            for cut in (0.01, 0.2, 2.0):
                de = relay_outage_quadrature(cfg, cut)
                assert_allclose(de, relay_outage_quadpack(cfg, cut), rtol=1e-11)
                assert 0.0 < de < 1.0

    def test_edges(self):
        cfg = coop_preset()
        assert relay_outage_quadrature(cfg, 0.0) == 0.0
        assert relay_outage_quadrature(cfg, math.inf) == 1.0


class TestOrderedQuadrature:
    def test_matches_closed_cdf(self):
        for mu in (1, 3):
            params = FadingParams(mu, 1.4)
            for rank, total in [(1, 5), (3, 5), (5, 5)]:
                idx = OrderedIndex(rank, total)
                for x in (0.05, 0.6, 2.5):
                    assert_allclose(
                        ordered_cdf_quadrature(params, idx, x),
                        ordered_cdf(params, idx, np.array([x]))[0],
                        rtol=1e-9,
                    )

    def test_matches_quadpack_at_tiny_x(self):
        # far below the CDF's knee the value is ~x**(mu * rank); both
        # routes must still agree relatively
        params = FadingParams(3, 1.4)
        idx = OrderedIndex(3, 5)
        for x in (1e-6, 1e-3):
            de = ordered_cdf_quadrature(params, idx, x)
            assert 0.0 < de < 1e-20
            assert_allclose(de, ordered_cdf_quadpack(params, idx, x), rtol=1e-11)

    def test_edges(self):
        params = FadingParams(2, 1.0)
        idx = OrderedIndex(1, 3)
        assert ordered_cdf_quadrature(params, idx, 0.0) == 0.0
        assert ordered_cdf_quadrature(params, idx, -1.0) == 0.0
        assert ordered_cdf_quadrature(params, idx, math.inf) == 1.0

    def test_cut_far_past_the_mass_is_one(self):
        # stage 3 has a headroom of 0.075 - 3 * 0.024999999999999994, about
        # 1e-17, so it cuts at 2.2e17, where the tanh-sinh levels agreed on 0
        cfg = ScenarioConfig(power=(0.675, 0.225, 0.075, 0.024999999999999994),
                           rates=(1.0, 1.0, 2.0, 1.0), omega=(1.0,) * 4)
        params, idx, (cut,) = point_links(cfg, [1.0])[2]
        assert 1e17 < cut < math.inf
        assert ordered_cdf_quadrature(params, idx, cut) == 1.0
        assert outage_oracle(cfg, 1.0, 3) == user_outage(cfg, 1.0, 3)[0] == 1.0


class TestQuadpackCrossCheck:
    GRID_DB = range(0, 61)

    @pytest.mark.parametrize("mu", (1, 2, 3, 6))
    def test_oracles_match_quadpack_on_preset_grid(self, mu):
        # every oracle call of the benchmark's oracle-gate grid, plus
        # mu = 6, against the QUADPACK route: far and near, and every
        # single-slot user
        worst = 0.0
        rhos = [db_to_linear(float(db)) for db in self.GRID_DB]
        for cfg in (with_mu(coop_preset(), mu), with_mu(direct_preset(), mu)):
            for params, idx, cuts in point_links(cfg, rhos):
                for cut in cuts.tolist():
                    pairs = [(ordered_cdf_quadrature(params, idx, cut),
                              ordered_cdf_quadpack(params, idx, cut))]
                    if cfg.has_relay:
                        pairs.append((relay_outage_quadrature(cfg, cut),
                                      relay_outage_quadpack(cfg, cut)))
                    for de, ref in pairs:
                        assert 0.0 < ref <= 1.0
                        worst = max(worst, abs(de - ref) / ref)
        assert worst <= 1e-11


class TestOutageOracle:
    def test_coop_matches_exact_closed_form(self):
        for mu in (1, 2):
            cfg = with_mu(coop_preset(), mu)
            for db in (0.0, 10.0, 25.0):
                rho = db_to_linear(db)
                for user in ("far", "near"):
                    assert_allclose(
                        outage_oracle(cfg, rho, user), user_outage(cfg, rho, user)[0], rtol=1e-8
                    )

    def test_coop_is_product_of_branch_quadratures(self):
        cfg = coop_preset()
        rho = db_to_linear(15.0)
        far_cut = stage_cuts(cfg, [rho])[0].item()
        direct = ordered_cdf_quadrature(
            FadingParams(cfg.mu, cfg.omega[0]),
            OrderedIndex(cfg.ranks[0], cfg.pool),
            far_cut,
        )
        relay = relay_outage_quadrature(cfg, far_cut)
        assert_allclose(outage_oracle(cfg, rho, "far"), direct * relay, rtol=1e-12)

    def test_direct_matches_exact_closed_form(self):
        for mu in (1, 3):
            cfg = with_mu(direct_preset(), mu)
            for db in (0.0, 10.0, 25.0):
                rho = db_to_linear(db)
                for user in (1, 2, 3):
                    assert_allclose(
                        outage_oracle(cfg, rho, user),
                        user_outage(cfg, rho, user)[0],
                        rtol=1e-8,
                    )

    def test_direct_uses_running_max_cut(self):
        cfg = direct_preset()
        rho = db_to_linear(12.0)
        cut = max(cuts.item() for cuts in stage_cuts(cfg, [rho])[:2])
        ref = ordered_cdf_quadrature(
            FadingParams(cfg.mu, cfg.omega[1]),
            OrderedIndex(cfg.ranks[1], cfg.pool),
            cut,
        )
        assert_allclose(outage_oracle(cfg, rho, 2), ref, rtol=1e-12)

    def test_rejects_bad_user(self):
        with pytest.raises(ValueError):
            outage_oracle(coop_preset(), 10.0, "middle")
        with pytest.raises(ValueError):
            outage_oracle(direct_preset(), 10.0, 9)
        # the same served users as the closed form, matched by type and value
        for user in ("far", "2", 2.0, True):
            with pytest.raises(ValueError):
                outage_oracle(direct_preset(), 10.0, user)

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs(), snr_db=st.floats(0.0, 60.0))
    @example(cfg=ScenarioConfig(power=(0.675, 0.225, 0.075, 0.024999999999999994),
                              rates=(1, 1, 2, 1), omega=(1,) * 4), snr_db=0.0)
    def test_matches_exact_on_random_configs(self, cfg, snr_db):
        rho = db_to_linear(snr_db)
        for user in served_users(cfg):
            oracle = outage_oracle(cfg, rho, user)
            assert 0.0 <= oracle <= 1.0
            assert abs(user_outage(cfg, rho, user)[0] - oracle) <= 1e-6 * oracle

    def test_rejects_unknown_config_type(self):
        with pytest.raises(AttributeError):
            outage_oracle(object(), 10.0, "far")


class TestBatchedOracle:
    GRID_DB = range(0, 61)

    @staticmethod
    def one_row(cfg, link):
        params, idx, cut = link
        value = ordered_cdf_quadrature(params, idx, cut)
        return value * relay_outage_quadrature(cfg, cut) if cfg.has_relay else value

    @pytest.mark.parametrize("mu", range(1, 7))
    def test_batch_equals_one_row_calls_bit_for_bit(self, mu):
        # each user's grid link in one batch, its cuts shuffled with a
        # cut-0, a cut-inf and an F(cut) == 1 row mixed in: each element
        # of a grid link's oracle is the one-row call at its cut
        rng = random.Random(mu)
        rhos = [db_to_linear(float(db)) for db in self.GRID_DB]
        for cfg in (with_mu(coop_preset(), mu), with_mu(direct_preset(), mu)):
            links = []
            for params, idx, cuts in point_links(cfg, rhos):
                assert gamma_cdf(params, np.array([1e3])).tolist() == [1.0]
                row = cuts.tolist() + [0.0, math.inf, 1e3]
                rng.shuffle(row)
                links.append((params, idx, np.array(row)))
            oracles = link_oracles(cfg, links)
            assert [oracle.tolist() for oracle in oracles] == [
                [self.one_row(cfg, (params, idx, cut)) for cut in cuts.tolist()]
                for params, idx, cuts in links]

    def test_edge_rows_keep_their_prefilters(self):
        cfg = coop_preset()
        params, idx, (cut,) = point_links(cfg, [1.0])[0]
        (oracle,) = link_oracles(cfg, [(params, idx, np.array([0.0, cut, math.inf, 1e3]))])
        assert oracle[0] == 0.0 and oracle[2] == oracle[3] == 1.0
        assert 0.0 < oracle[1] < 1.0
        assert isinstance(oracle, np.ndarray) and oracle.dtype == np.float64
        assert link_oracles(cfg, []) == []

    def test_relay_failure_names_the_cut_of_the_first_failing_row(self):
        cfg = dataclasses.replace(coop_preset(), omega_sr=1e300)
        (params, idx, _), (near_params, near_idx, _) = point_links(cfg, [1.0])
        cuts = [0.0, math.inf, 0.35, 0.015, 3.5]
        for cut in cuts[2:]:
            with pytest.raises(QuadratureError):
                relay_outage_quadrature(cfg, cut)
        with pytest.raises(ConfigError, match=r"at cut 0\.35: semi-infinite quadrature"):
            link_oracles(cfg, [(params, idx, np.array(cuts))])
        # the relay batch concatenates the links' cuts: a failure in the
        # second link names that link's cut
        with pytest.raises(ConfigError, match=r"at cut 0\.015: semi-infinite quadrature"):
            link_oracles(cfg, [(params, idx, np.array([0.0, math.inf, 0.0])),
                               (near_params, near_idx, np.array([0.015, 0.35, 3.5]))])


class TestValidationSuite:
    def test_row_fields_are_plain_python_types(self):
        # a numpy scalar would print as np.True_ or np.float64(...) in a report
        batch = TrialBatch(trials=5_000, seed=1)
        rows = run_validation_suite([coop_preset(), direct_preset()], [10.0, 40.0], batch)
        for row in rows:
            for name, value in dataclasses.asdict(row).items():
                assert type(value) in (bool, int, float, str), (name, value)
            assert type(row.passed) is bool
            assert type(row.p_oracle) is float and type(row.rel_err) is float

    def test_empty_inputs_give_empty_report(self):
        assert run_validation_suite([], [10.0]) == []
        assert run_validation_suite([coop_preset()], []) == []

    def test_row_counts_and_identity_fields(self):
        rows = run_validation_suite([coop_preset(), direct_preset()], [0.0, 10.0])
        assert len(rows) == 2 * 2 + 2 * 3
        coop_rows = [r for r in rows if r.scenario == "coop"]
        direct_rows = [r for r in rows if r.scenario == "direct"]
        assert {r.user for r in coop_rows} == {"far", "near"}
        assert {r.user for r in direct_rows} == {"1", "2", "3"}
        assert {r.snr_db for r in rows} == {0.0, 10.0}

    def test_oracle_only_rows_have_no_mc_leg(self):
        rows = run_validation_suite([direct_preset()], [10.0])
        for row in rows:
            assert math.isnan(row.p_mc) and math.isnan(row.mc_stderr)
            assert "mc" not in row.gate
            assert row.passed

    def test_mc_leg_respects_probability_floor(self):
        batch = TrialBatch(trials=50_000, seed=1)
        rows = run_validation_suite(
            [coop_preset(), direct_preset()], [10.0, 40.0], batch
        )
        assert all(r.passed for r in rows)
        for row in rows:
            if row.p_exact > MC_PROBABILITY_FLOOR:
                assert not math.isnan(row.p_mc)
                assert "mc" in row.gate
            else:
                assert math.isnan(row.p_mc)
        # the 10 dB points are well above the floor, so some rows simulate
        assert any(not math.isnan(r.p_mc) for r in rows)
        # and the 40 dB deep-tail points stay oracle-only
        assert any(math.isnan(r.p_mc) for r in rows)

    def test_infeasible_config_rows_pass_at_one(self):
        cfg = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))
        batch = TrialBatch(trials=5_000, seed=1)
        rows = run_validation_suite([cfg], [30.0], batch)
        for row in rows:
            assert row.p_exact == 1.0
            assert row.p_oracle == 1.0
            assert row.p_mc == 1.0
            assert row.mc_stderr == 0.0
            assert row.passed

    def test_rejects_unknown_config_type(self):
        with pytest.raises(AttributeError):
            run_validation_suite([object()], [10.0])
