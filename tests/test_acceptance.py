"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
simulation-heavy criterion runs ten-million-trial batches and dominates
the runtime (a few minutes on one core).
"""

import dataclasses
import math
import time

import numpy as np
from scipy import special, stats

from noma_perf.analytic import (
    diversity_order_fit,
    point_outages,
    relay_outage,
    served_users,
    stage_cuts,
    throughput,
    user_outage,
)
from noma_perf.cli import main
from noma_perf.configs import (
    ScenarioConfig,
    coop_preset,
    direct_preset,
    preset_configs,
)
from noma_perf.fading import (
    FadingParams,
    OrderedIndex,
    gamma_cdf,
    ordered_cdf,
    sample_gain,
    sample_sorted_gains,
)
from noma_perf.montecarlo import Estimate, TrialBatch, estimate_outage
from noma_perf.validation import relay_outage_quadrature

GRID_DB = [5.0 * k for k in range(9)]  # 0, 5, ..., 40 dB


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


class TestAcceptance:
    def test_criterion_1_relay_branch_matches_quadrature_oracle(self):
        start = time.perf_counter()
        worst = 0.0
        for mu in (1, 2, 3):
            cfg = coop_preset(mu)
            far_cuts, near_rate_cuts = stage_cuts(cfg, [db_to_linear(db) for db in GRID_DB])
            for far_cut, near_rate_cut in zip(far_cuts.tolist(), near_rate_cuts.tolist()):
                for cut in (far_cut, max(far_cut, near_rate_cut)):
                    closed = relay_outage(cfg, cut)
                    oracle = relay_outage_quadrature(cfg, cut)
                    worst = max(worst, abs(closed - oracle) / max(oracle, 1e-300))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 10.0
        report(
            1, "relay closed form vs quadrature oracle", ok,
            f"worst rel err {worst:.3g} <= 1e-6 over mu in 1..3 x 0..40 dB, "
            f"{elapsed:.1f} s < 10 s",
        )

    def test_criterion_2_closed_forms_match_ten_million_trial_simulation(self):
        start = time.perf_counter()
        # two worker threads; --chunks never changes a count
        batch = TrialBatch(10_000_000, seed=1234, chunks=2)
        floor = 1e-4
        worst_z = 0.0
        checked = 0

        def gate(exact, failures):
            nonlocal worst_z, checked
            est = Estimate.from_count(failures, batch.trials)
            se = max(est.stderr, math.sqrt(exact * (1.0 - exact) / est.trials))
            worst_z = max(worst_z, abs(exact - est.p_hat) / se)
            checked += 1

        for mu in (1, 2, 3):
            for cfg in (coop_preset(mu), direct_preset(mu)):
                # one simulation per config over the points where some
                # served user is above the floor; each block is drawn once
                gated = []
                for db in GRID_DB:
                    rho = db_to_linear(db)
                    exact = [user_outage(cfg, rho, u)[0] for u in served_users(cfg)]
                    if max(exact) > floor:
                        gated.append((rho, exact))
                (counts,) = estimate_outage([cfg], [rho for rho, _ in gated], batch)
                for (_, exact), column in zip(gated, counts.T.tolist(), strict=True):
                    for p, failures in zip(exact, column, strict=True):
                        if p > floor:
                            gate(p, failures)
        elapsed = time.perf_counter() - start
        ok = worst_z <= 3.0 and elapsed < 300.0
        report(
            2, "exact outage vs 1e7-trial simulation", ok,
            f"worst deviation {worst_z:.2f} SE <= 3 SE over {checked} gated points "
            f"(P > 1e-4), {elapsed:.0f} s < 300 s",
        )

    def test_criterion_3_diversity_orders_from_slope_fits(self):
        start = time.perf_counter()
        grid = [db_to_linear(db) for db in (50.0, 55.0, 60.0)]
        failures = []
        worst = 0.0

        def check(label, got, want):
            nonlocal worst
            rel = abs(got - want) / want
            worst = max(worst, rel)
            if rel > 0.05:
                failures.append(f"{label}: {got:.3f} vs {want}")

        for mu in (1, 2):
            coop = coop_preset(mu)
            check(
                f"coop far mu={mu}",
                diversity_order_fit((r, user_outage(coop, r, "far")[0]) for r in grid),
                mu * (coop.ranks[0] + 1),
            )
            check(
                f"coop near mu={mu}",
                diversity_order_fit((r, user_outage(coop, r, "near")[0]) for r in grid),
                mu * (coop.ranks[1] + 1),
            )
            direct = direct_preset(mu)
            for user in (1, 2, 3):
                check(
                    f"direct user {user} mu={mu}",
                    diversity_order_fit(
                        (r, user_outage(direct, r, user)[0]) for r in grid
                    ),
                    mu * direct.ranks[user - 1],
                )
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 30.0
        report(
            3, "log-log slopes match diversity orders", ok,
            f"worst rel err {worst:.3%} <= 5% over mu in 1..2, "
            f"{elapsed:.1f} s < 30 s" + (f"; failures: {failures}" if failures else ""),
        )

    def test_criterion_4_throughput_ceilings_at_fifty_db(self):
        rho = db_to_linear(50.0)
        coop, direct = (throughput(cfg, [p.item() for p, _ in point_outages(cfg, [rho])])
                        for cfg in (coop_preset(), direct_preset()))
        ok = abs(coop - 2.5) <= 0.01 and abs(direct - 3.2) <= 0.01
        report(
            4, "throughput ceilings at 50 dB", ok,
            f"coop {coop:.6f} vs 2.5, direct {direct:.6f} vs 3.2, both within 0.01",
        )

    def test_criterion_5_cooperation_dominates_past_thirty_db(self):
        cfgs = preset_configs("comparison")
        coop, direct = cfgs["coop"], cfgs["direct"]
        points = []
        ok = True
        for db in [d for d in GRID_DB if d >= 30.0]:
            rho = db_to_linear(db)
            pairs = (
                (user_outage(coop, rho, "far")[0], user_outage(direct, rho, 1)[0]),
                (user_outage(coop, rho, "near")[0], user_outage(direct, rho, 2)[0]),
            )
            for p_coop, p_direct in pairs:
                ok = ok and p_coop <= p_direct
            points.append(f"{db:g} dB")
        report(
            5, "cooperative outage below non-cooperative", ok,
            f"both served users at {', '.join(points)}",
        )

    def test_criterion_6_distribution_properties(self):
        # order-statistics mixture identity
        worst_mix = 0.0
        for mu in (1, 2):
            params = FadingParams(mu, 1.3)
            for total in (3, 5):
                for x in np.linspace(0.05, 6.0, 40):
                    mix = math.fsum(
                        ordered_cdf(params, OrderedIndex(rank, total), np.array([x])).item()
                        for rank in range(1, total + 1)
                    ) / total
                    worst_mix = max(worst_mix, abs(mix - gamma_cdf(params, x)))
        # exponential reduction at unit shape
        worst_exp = 0.0
        for omega in (0.5, 1.0, 4.0):
            params = FadingParams(1, omega)
            for x in np.linspace(0.0, 10.0 * omega, 200):
                worst_exp = max(
                    worst_exp, abs(gamma_cdf(params, x) - (1.0 - math.exp(-x / omega)))
                )
        # sampler Kolmogorov-Smirnov at the 99.9% level on 1e6 draws
        n = 1_000_000
        crit = stats.kstwobign.isf(0.001) / math.sqrt(n)
        params = FadingParams(2, 3.0)
        plain = sample_gain(params, np.random.default_rng(60), size=n)
        ks_plain = stats.kstest(plain, lambda x: gamma_cdf(params, x)).statistic
        pool = FadingParams(1, 1.0)
        ranked = sample_sorted_gains(pool, 5, np.random.default_rng(61), size=n)[:, 1]
        # vectorized independent route for the rank-2-of-5 CDF (equality with
        # ordered_cdf is pinned down separately at 1e-12)
        ks_rank = stats.kstest(
            ranked, lambda x: special.betainc(2, 4, gamma_cdf(pool, x))
        ).statistic
        ok = (
            worst_mix <= 1e-12
            and worst_exp <= 1e-14
            and ks_plain < crit
            and ks_rank < crit
        )
        report(
            6, "distribution properties", ok,
            f"mixture {worst_mix:.2g} <= 1e-12, exponential {worst_exp:.2g} <= 1e-14, "
            f"KS {ks_plain:.2g}/{ks_rank:.2g} < {crit:.2g} at 99.9% on 1e6 draws",
        )

    def test_criterion_7_degenerate_conditions_return_exactly_one(self):
        rho = db_to_linear(30.0)
        batch = TrialBatch(200_000, seed=2)
        # far threshold 2**(2*1.5) - 1 = 7 exceeds the 0.8 / 0.2 split ratio
        coop = dataclasses.replace(coop_preset(), rates=(1.5, 1.5))
        (counts,) = estimate_outage([coop], [rho], batch)
        far_est, near_est = (Estimate.from_count(c, batch.trials) for (c,) in counts.tolist())
        coop_ok = (
            user_outage(coop, rho, "far")[0] == 1.0
            and user_outage(coop, rho, "near")[0] == 1.0
            and far_est.p_hat == 1.0 and far_est.stderr == 0.0
            and near_est.p_hat == 1.0 and near_est.stderr == 0.0
        )
        # middle stage: threshold 3 exceeds 0.3 / 0.2, poisoning users 2 and 3
        direct = ScenarioConfig(
            power=(0.5, 0.3, 0.2),
            rates=(0.5, 2.0, 1.0),
            omega=(1.0, 1.0, 1.0),
            mu=1,
        )
        direct_ok = True
        (counts,) = estimate_outage([direct], [rho], batch)
        for user in (2, 3):
            est = Estimate.from_count(int(counts[user - 1, 0]), batch.trials)
            direct_ok = direct_ok and (
                user_outage(direct, rho, user)[0] == 1.0
                and est.p_hat == 1.0 and est.stderr == 0.0
            )
        ok = coop_ok and direct_ok
        report(
            7, "infeasible power splits give outage exactly 1", ok,
            "closed forms == 1.0 and simulations report p=1 with zero stderr",
        )

    def test_criterion_8_sweep_csv_is_deterministic(self, tmp_path, capsys):
        args = [
            "sweep", "--scenario", "compare", "--trials", "50000", "--seed", "9",
            "--snr-start", "10", "--snr-stop", "20", "--snr-step", "5",
        ]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert main([*args, "--out", str(paths[0])]) == 0
        assert main([*args, "--out", str(paths[1])]) == 0
        assert main([*args, "--chunks", "4", "--out", str(paths[2])]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
        report(
            8, "sweep CSV byte-identical across runs and chunk counts", ok,
            f"{len(blobs[0])} bytes, repeat run and 4-chunk run both match",
        )
