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

from noma_perf import validation
from noma_perf.analytic import (
    link_outage,
    point_links,
    relay_outage,
    served_users,
    stage_cuts,
    user_outage,
)
from noma_perf.configs import (
    MAX_RELAY_MU,
    ConfigError,
    ScenarioConfig,
    coop_preset,
    direct_preset,
    with_mu,
)
from noma_perf.fading import (
    FadingParams,
    OrderedIndex,
    _gamma_log_pdf_inside,
    gamma_cdf,
    ordered_cdf,
)
from noma_perf.montecarlo import Estimate, TrialBatch
from noma_perf.numerics import QuadratureError, integrate_semi_infinite
from noma_perf.validation import (
    MC_PROBABILITY_FLOOR,
    MC_SIGMAS,
    ORACLE_REL_TOL,
    ComparisonRow,
    _ordered_cdfs,
    _relay_outages,
    link_oracles,
    ordered_cdf_quadrature,
    outage_oracle,
    relay_outage_quadrature,
    run_validation_suite,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def relay_row(cfg, cut):
    """(F_sr(cut), the relay integrand in v = ln u, low, high) of one relay
    oracle row, its window [min(ln knee, ln decay) - 37, ln decay + ln 800]
    floored at the smallest double, as ``validation`` documents them."""
    feed, drop = FadingParams(cfg.mu, cfg.omega_sr), FadingParams(cfg.mu, cfg.omega_rd)
    scaled = cut * cfg.noise_scale
    # the production rounding: each log taken alone, numpy's for the knee
    knee = float(np.log(scaled)) + (math.log(cfg.mu) - math.log(cfg.omega_rd))
    decay = math.log(cfg.omega_sr) - math.log(cfg.mu)

    def integrand(v, rows):
        u = np.exp(v)
        with np.errstate(over="ignore"):
            reach = scaled / u
        return np.exp(v + _gamma_log_pdf_inside(feed, cut + u)) * gamma_cdf(drop, reach)

    low = max(min(knee, decay) - 37.0, math.log(5e-324))
    return gamma_cdf(feed, np.array([cut]))[0], integrand, low, decay + math.log(800.0)


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

    def test_relay_failure_names_the_cut_of_the_first_failing_row(self, monkeypatch):
        # at omega_sr = 1.7e308 the first-hop mass lies past every node: a
        # cut whose outage bound is below the double range stands at 0,
        # the others raise
        cfg = dataclasses.replace(coop_preset(), omega_sr=1.7e308)
        (params, idx, _), (near_params, near_idx, _) = point_links(cfg, [1.0])
        cuts = [0.0, math.inf, 1e-20, 0.35, 0.015, 3.5]
        assert relay_outage_quadrature(cfg, 1e-20) == 0.0
        for cut in cuts[3:]:
            with pytest.raises(QuadratureError):
                relay_outage_quadrature(cfg, cut)
        with pytest.raises(ConfigError, match=r"at cut 0\.35: the first-hop mass lies past"):
            link_oracles(cfg, [(params, idx, np.array(cuts))])
        # the relay batch concatenates the links' cuts: a failure in the
        # second link names that link's cut
        with pytest.raises(ConfigError, match=r"at cut 0\.015: the first-hop mass lies past"):
            link_oracles(cfg, [(params, idx, np.array([0.0, math.inf, 1e-20])),
                               (near_params, near_idx, np.array([0.015, 0.35, 3.5]))])
        # the quadrature names its rows among the integrated cuts only: its
        # second row is the fourth cut here

        def unconverged(fn, low, high, offset):
            raise QuadratureError("semi-infinite quadrature did not converge", 0.0, 0.0, 1)

        monkeypatch.setattr(validation, "integrate_semi_infinite", unconverged)
        with pytest.raises(ConfigError, match=r"at cut 3\.5: semi-infinite quadrature"):
            link_oracles(coop_preset(), [(params, idx, np.array([0.0, math.inf, 0.35, 3.5]))])

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_centred_relay_batch_equals_one_row_calls_bit_for_bit(self, mu, monkeypatch):
        # at omega_sr = 1e20 the second-hop knee of the small cuts sits far
        # below the first-hop decay, so one batch mixes rows whose windows,
        # each centred on its own mass, differ in width by tens of units of
        # ln u, shuffled among cut-0 and cut-inf rows
        cfg = dataclasses.replace(with_mu(coop_preset(), mu), omega_sr=1e20)
        cuts = [10.0 ** (e / 4) for e in range(-24, 81, 3)] + [0.0, math.inf]
        random.Random(mu).shuffle(cuts)
        cuts = np.array(cuts)
        windows = []

        def spy(fn, low, high, offset):
            windows.append(np.broadcast_to(high, low.shape) - low)
            return integrate_semi_infinite(fn, low, high, offset)

        monkeypatch.setattr(validation, "integrate_semi_infinite", spy)
        batch = _relay_outages(cfg, cuts)
        assert np.ptp(windows[0]) > 20.0
        assert batch.tolist() == [relay_outage_quadrature(cfg, cut) for cut in cuts.tolist()]

    def test_relay_row_is_the_log_trapezoid_over_its_mass_window(self):
        # a row's outage is F_sr(cut) plus exactly the ln-u trapezoid sum
        # over its documented window, resolved against that sum
        cfg = dataclasses.replace(coop_preset(), omega_sr=1e20)
        for cut in (1e-6, 1e-4, 0.3):
            first, integrand, low, high = relay_row(cfg, cut)
            tail = integrate_semi_infinite(integrand, low, high, first)
            assert relay_outage_quadrature(cfg, cut) == min(1.0, first + tail.value[0])

    @pytest.mark.parametrize("over", [{}, {"omega_rd": 1e-300}, {"omega_sr": 1e-3},
                                      {"omega_rd": 1e30}, {"omega_sr": 1e30}])
    def test_window_holds_the_mass_up_to_max_relay_mu(self, over):
        # the integrand's mass past the window's upper edge (the first-hop
        # decay times 800) is below 1e-15 of the outage, and below its
        # lower edge below MAX_RELAY_MU * e^-37 = 3.4e-15 of it, at every
        # mu up to MAX_RELAY_MU and cut far below, near and far above the
        # decay
        for mu in (1, 3, MAX_RELAY_MU):
            cfg = dataclasses.replace(with_mu(coop_preset(), mu), **over)
            for cut in (1e-6, 1e-3, 0.3, 3.0, 30.0):
                first, integrand, low, high = relay_row(cfg, cut)
                if first == 1.0:
                    continue
                outage = relay_outage_quadrature(cfg, cut)
                above = integrate_semi_infinite(integrand, high, high + 30.0, outage).value[0]
                below = integrate_semi_infinite(integrand, low - 30.0, low, outage).value[0]
                assert above <= 1e-15 * outage, (mu, cut)
                assert below <= MAX_RELAY_MU * math.exp(-37.0) * outage, (mu, cut)

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_far_apart_hop_means_resolve(self, mu):
        # at omega_sr = 1e300 the first-hop decay sits 300 decades past the
        # knee: every row's window holds both, and the oracle matches the
        # closed form; from mu = 2 on every outage is below the double
        # range, and 0 stands
        rhos = [db_to_linear(float(db)) for db in range(0, 61)]
        cfg = dataclasses.replace(with_mu(coop_preset(), mu), omega_sr=1e300)
        cuts = np.concatenate([cut for _, _, cut in point_links(cfg, rhos)])
        oracle = _relay_outages(cfg, cuts)
        if mu == 1:
            assert_allclose(oracle, [relay_outage(cfg, cut) for cut in cuts], rtol=1e-12)
        else:
            assert (oracle == 0.0).all()

    def test_knee_far_past_the_decay_matches_the_closed_form(self, monkeypatch):
        # at omega_rd = 1e-300 the second-hop knee sits far above the
        # first-hop decay; the window ends at the decay's edge, not the
        # knee's, so a row takes a few hundred nodes rather than thousands
        cfg = dataclasses.replace(coop_preset(), omega_rd=1e-300)
        rhos = [db_to_linear(float(db)) for db in range(0, 41, 5)]
        cuts = np.concatenate([cut for _, _, cut in point_links(cfg, rhos)])
        nodes = []

        def spy(fn, *limits):
            return integrate_semi_infinite(lambda v, rows: nodes.append(v.size) or fn(v, rows),
                                           *limits)

        monkeypatch.setattr(validation, "integrate_semi_infinite", spy)
        assert_allclose(_relay_outages(cfg, cuts), [relay_outage(cfg, cut) for cut in cuts],
                        rtol=1e-12)
        assert sum(nodes) <= 600 * cuts.size

    def test_cross_user_ordered_batch_equals_one_link_calls_bit_for_bit(self):
        # one tanh-sinh batch over links of different means, ranks and
        # pools, each element the one-link, one-cut call
        rng = random.Random(29)
        links = []
        for omega, rank, total in ((0.5, 1, 1), (1.0, 1, 3), (2.0, 2, 3), (4.0, 3, 3),
                                   (1e3, 7, 40), (1e-3, 1, 2)):
            params, idx = FadingParams(3, omega), OrderedIndex(rank, total)
            row = [10.0 ** rng.uniform(-12, 2) for _ in range(17)] + [0.0, math.inf]
            rng.shuffle(row)
            links.append((params, idx, np.array(row)))
        assert [cdf.tolist() for cdf in _ordered_cdfs(links)] == [
            [ordered_cdf_quadrature(params, idx, x) for x in xs.tolist()]
            for params, idx, xs in links]
        assert _ordered_cdfs([]) == []


def row_by_row_report(configs, snr_db, batch=None):
    """The gate as one row at a time: the reference that the column form
    of ``run_validation_suite`` must reproduce, field for field."""
    rows = []
    rhos = [10.0 ** (float(db) / 10.0) for db in snr_db]
    for cfg in configs:
        users = served_users(cfg)
        scenario = "coop" if cfg.has_relay else "direct"
        links = point_links(cfg, rhos)
        exact = [link_outage(cfg, link)[0].tolist() for link in links]
        oracles = [oracle.tolist() for oracle in link_oracles(cfg, links)]
        fails = np.zeros((len(users), len(rhos)), dtype=np.int64)
        if batch is not None:
            simulated = (np.array(exact) > MC_PROBABILITY_FLOOR).any(axis=0)
            fails[:, simulated] = validation.estimate_outage(
                [cfg], np.array(rhos)[simulated], batch)[0]
        for k, db in enumerate(snr_db):
            for i, user in enumerate(users):
                p, oracle = exact[i][k], oracles[i][k]
                rel_err = abs(p - oracle) / max(abs(oracle), 1e-300)
                ok = rel_err <= ORACLE_REL_TOL
                gate = f"rel_err<={ORACLE_REL_TOL:g}"
                p_mc = mc_stderr = math.nan
                if batch is not None and p > MC_PROBABILITY_FLOOR:
                    est = Estimate.from_count(int(fails[i, k]), batch.trials)
                    p_mc, mc_stderr = est.p_hat, est.stderr
                    tol = MC_SIGMAS * max(est.stderr, math.sqrt(p * (1.0 - p) / est.trials))
                    ok = ok and abs(p - p_mc) <= tol
                    gate += f" & |exact-mc|<={MC_SIGMAS:g}se"
                rows.append(ComparisonRow(
                    snr_db=float(db), scenario=scenario, mu=cfg.mu, user=str(user), p_exact=p,
                    p_oracle=oracle, rel_err=rel_err, p_mc=p_mc, mc_stderr=mc_stderr,
                    passed=ok, gate=gate))
    return rows


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

    @pytest.mark.parametrize("mu, field, value", [
        (1, "omega_rd", 1e18), (1, "relay_gain", 1e10),
        (1, "omega_sr", 1e30), (2, "omega_sr", 1e30), (3, "omega_sr", 1e30)])
    def test_hop_laws_60_decades_apart_pass_every_row(self, mu, field, value):
        # knee and decay more than 60 decades apart, past the reach of
        # nodes spanning a fixed range of u, over the oracle-gate grid
        cfg = dataclasses.replace(with_mu(coop_preset(), mu), **{field: value})
        rows = run_validation_suite([cfg], [float(db) for db in range(0, 61)])
        assert len(rows) == 61 * 2 and all(row.passed for row in rows)

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

    @pytest.mark.parametrize("case", ["presets", "simulated", "failing", "infeasible"])
    def test_rows_match_the_row_by_row_builder(self, case, monkeypatch):
        # NaN fields (no simulation leg) compare by repr
        grid = [0.0, 2.5, 10.0, 22.5, 40.0]
        cfgs, batch = {
            "presets": ([with_mu(coop_preset(), 2), direct_preset()], None),
            "simulated": ([coop_preset(), with_mu(direct_preset(), 3)],
                          TrialBatch(trials=20_000, seed=29)),
            "failing": ([coop_preset(), direct_preset()], TrialBatch(trials=1_000, seed=3)),
            "infeasible": ([dataclasses.replace(coop_preset(), rates=(1.5, 1.5))],
                           TrialBatch(trials=5_000, seed=1)),
        }[case]
        if case == "failing":
            # a simulation where one trial in three fails for every user
            # fails the Monte Carlo leg of most simulated rows
            monkeypatch.setattr(validation, "estimate_outage", lambda cfgs, rhos, batch: [
                np.full((len(served_users(cfg)), len(rhos)), batch.trials // 3) for cfg in cfgs])
        rows = run_validation_suite(cfgs, grid, batch)
        reference = row_by_row_report(cfgs, grid, batch)
        assert rows and [repr(row) for row in rows] == [repr(row) for row in reference]
        assert [[type(v) for v in dataclasses.astuple(row)] for row in rows] == [
            [type(v) for v in dataclasses.astuple(row)] for row in reference]
        if case == "failing":
            assert {row.passed for row in rows if "mc" in row.gate} == {True, False}
