"""End-to-end tests of the command-line interface and its CSV contract."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import mpmath as mp
import pytest
from config_strategies import ini_sections
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_perf import analytic, montecarlo, validation
from noma_perf.analytic import outage_oma, point_outages, served_users, throughput, user_outage
from noma_perf.cli import CSV_COLUMNS, REPORT_COLUMNS, _selected_users, main, sweep_rows
from noma_perf.configs import (
    MAX_RELAY_MU,
    coop_preset,
    direct_preset,
    load_config_file,
    load_config_text,
    preset_configs,
    with_mu,
)
from noma_perf.montecarlo import Estimate, TrialBatch, estimate_outage

HEADER = ",".join(CSV_COLUMNS)
#: sha256 of the stdout bytes of each argv (space-separated), a validate
#: report's with its rel_err cells blanked (see blank_rel_err); regenerate
#: only for a deliberate change of the output
CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "cli_digests.json").read_text(encoding="utf-8"))


def preset_ini(name):
    return resources.files("noma_perf").joinpath(f"presets/{name}.ini").read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    lines = out.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0] in (HEADER, ",".join(REPORT_COLUMNS))
    return body[1:]


def cells(row):
    return dict(zip(CSV_COLUMNS, row.split(",")))


def blank_rel_err(report):
    """A validate report with every rel_err cell blanked, each checked first
    to parse and to be at most 1e-12.

    rel_err prints the quadrature's rounding noise, whose last digits
    follow numpy's SIMD dispatch of exp (AVX-512 or not); every other
    cell is the same at both dispatch levels.
    """
    col = REPORT_COLUMNS.index("rel_err")
    header, *rows = report.splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    lines = [header]
    for row in rows:
        row_cells = row.split(",")
        assert float(row_cells[col]) <= 1e-12, row
        row_cells[col] = ""
        lines.append(",".join(row_cells))
    return "".join(line + "\n" for line in lines)


class TestSweep:
    def test_default_direct_sweep_shape(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct")
        assert code == 0 and err == ""
        rows = data_rows(out)
        assert len(rows) == 9 * 3  # 0..40 dB step 5, three served users
        first = cells(rows[0])
        assert first["snr_db"] == "0" and first["scenario"] == "direct"
        assert first["mu"] == "1" and first["user"] == "1"
        # no Monte Carlo requested: those columns stay empty
        assert first["p_mc"] == "" and first["mc_stderr"] == "" and first["p_oma"] == ""

    def test_cells_match_library_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "direct",
            "--snr-start", "10", "--snr-stop", "10", "--snr-step", "5",
            "--mu", "2", "--oma",
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 3
        cfg = with_mu(direct_preset(), 2)
        rho = 10.0
        for row, user in zip(rows, (1, 2, 3)):
            c = cells(row)
            assert c["p_exact"] == f"{user_outage(cfg, rho, user)[0]:.12g}"
            assert c["p_oma"] == f"{outage_oma(cfg, [rho]).item():.12g}"
            exact = [p.item() for p, _ in point_outages(cfg, [rho])]
            assert c["throughput"] == f"{throughput(cfg, exact):.12g}"

    def test_coop_rows_come_before_direct_in_compare(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "compare",
            "--snr-start", "20", "--snr-stop", "25", "--snr-step", "5",
        )
        assert code == 0
        scen = [cells(r)["scenario"] for r in data_rows(out)]
        assert scen == ["coop"] * 4 + ["direct"] * 4

    def test_mu_list_expands_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "coop", "--mu", "1,2 3",
            "--snr-start", "10", "--snr-stop", "10", "--snr-step", "1",
        )
        assert code == 0
        mus = [cells(r)["mu"] for r in data_rows(out)]
        assert mus == ["1", "1", "2", "2", "3", "3"]

    def test_users_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "coop", "--users", "far",
            "--snr-start", "10", "--snr-stop", "15", "--snr-step", "5",
        )
        assert code == 0
        users = [cells(r)["user"] for r in data_rows(out)]
        assert users == ["far", "far"]
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "direct", "--users", "1 3",
            "--snr-start", "10", "--snr-stop", "10", "--snr-step", "5",
        )
        assert code == 0
        assert [cells(r)["user"] for r in data_rows(out)] == ["1", "3"]

    def test_mc_columns_populate_and_no_mc_suppresses(self, capsys):
        args = (
            "sweep", "--scenario", "direct", "--trials", "20000",
            "--snr-start", "10", "--snr-stop", "10", "--snr-step", "5",
            "--users", "2",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        c = cells(data_rows(out)[0])
        assert c["p_mc"] != "" and c["mc_stderr"] != ""
        assert 0.0 <= float(c["p_mc"]) <= 1.0
        code, out, _ = run_cli(capsys, *args, "--trials", "0")
        assert code == 0
        c = cells(data_rows(out)[0])
        assert c["p_mc"] == "" and c["mc_stderr"] == ""

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "direct", "--out", str(target),
            "--snr-start", "0", "--snr-stop", "10", "--snr-step", "5",
        )
        assert code == 0 and out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith(HEADER + "\n")
        assert len(text.splitlines()) == 1 + 3 * 3

    def test_custom_config_file(self, capsys, tmp_path):
        ini = tmp_path / "own.ini"
        ini.write_text(
            "[direct]\npower = 0.7 0.3\nrates = 0.5 1.0\nomega = 1.0 2.0\nmu = 2\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "direct", "--config", str(ini),
            "--snr-start", "10", "--snr-stop", "10", "--snr-step", "5",
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 2
        cfg = load_config_file(str(ini))["direct"]
        assert cells(rows[0])["p_exact"] == f"{user_outage(cfg, 10.0, 1)[0]:.12g}"

    def test_no_mc_flag_is_gone(self, capsys):
        # --trials 0 (the default) is the one way to leave out the MC columns
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--no-mc"])
        assert exc.value.code == 2
        assert "--no-mc" in capsys.readouterr().err

    def test_vanishing_snr_is_certain_outage(self, capsys):
        # 10**(-323.3) is a subnormal SNR whose product with a stage's
        # headroom underflows to 0: the cut is infinite, every outage 1
        code, out, err = run_cli(capsys, "sweep", "--scenario", "compare", "--oma",
                                 "--snr-start", "-3233", "--snr-stop", "-3233")
        assert (code, err) == (0, "")
        rows = [cells(row) for row in data_rows(out)]
        assert {r["scenario"] for r in rows} == {"coop", "direct"}
        assert {(r["p_exact"], r["p_asymptotic"], r["p_oma"], r["throughput"]) for r in rows} == {
            ("1", "1", "1", "0")}

    def test_bad_flags_exit_2(self, capsys):
        assert run_cli(capsys, "sweep", "--mu", "0")[0] == 2
        assert run_cli(capsys, "sweep", "--mu", "x")[0] == 2
        assert run_cli(capsys, "sweep", "--snr-step", "-1")[0] == 2
        code, _, err = run_cli(
            capsys, "sweep", "--snr-start", "20", "--snr-stop", "10"
        )
        assert code == 2 and "error:" in err
        for argv in (
            ("sweep", "--trials", "10", "--chunks", "0"),
            ("sweep", "--trials", "10", "--seed", "-1"),
            ("sweep", "--snr-start", "nan"),
            ("sweep", "--snr-stop", "inf"),
            ("figure", "fig2", "--trials", "10", "--chunks", "0"),
            ("validate", "--trials", "-1"),
            ("sweep", "--snr-start", "4000", "--snr-stop", "4000"),
            ("sweep", "--snr-start", "-4000", "--snr-stop", "-4000"),
            ("sweep", "--snr-stop", "1e300", "--snr-step", "1e-300"),
            ("sweep", "--snr-step", "1e-9"),
            ("sweep", "--scenario", "direct", "--users", "1,1"),
            ("sweep", "--scenario", "coop", "--users", "far,far"),
            ("sweep", "--scenario", "compare", "--users", "7"),
            ("sweep", "--scenario", "compare", "--users", "far,1,far"),
            ("sweep", "--scenario", "direct", "--users", "far"),
            # an entry is a label exactly as the CSV prints it
            ("sweep", "--scenario", "direct", "--users", "01"),
            ("sweep", "--scenario", "compare", "--users", "far,+1"),
            ("sweep", "--trials", "-1"),
            ("validate", "--trials", "0", "--seed", "-1"),
            ("validate", "--trials", "0", "--chunks", "0"),
            ("figure", "fig2", "--seed", "-1"),
            ("figure", "fig2", "--trials", "-1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1, argv
        # of two bad flags, the --mu error is the one reported
        code, out, err = run_cli(capsys, "sweep", "--mu", "0", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --mu values must be >= 1, got '0'\n"

    def test_repeated_mu_exits_2(self, capsys):
        # as with a repeated --users entry: each row would print twice
        for mu in ("1,1", "2 3 2"):
            code, out, err = run_cli(capsys, "sweep", "--mu", mu)
            assert (code, out) == (2, "")
            assert err == f"error: --mu names a value more than once, got '{mu}'\n"

    def test_users_filter_keeps_full_sweep_rows(self, capsys):
        args = ("sweep", "--scenario", "coop", "--mu", "1,2", "--oma")
        code, full, _ = run_cli(capsys, *args)
        assert code == 0
        code, near, _ = run_cli(capsys, *args, "--users", "near")
        assert code == 0
        want = [row for row in data_rows(full) if cells(row)["user"] == "near"]
        assert data_rows(near) == want

    def test_users_pick_rows_per_scenario_in_compare(self, capsys):
        args = ("sweep", "--scenario", "compare", "--snr-step", "10", "--oma",
                "--trials", "2000")
        code, full, _ = run_cli(capsys, *args)
        assert code == 0
        for users, keep in (("far,1", {("coop", "far"), ("direct", "1")}),
                            ("far", {("coop", "far")})):
            code, out, _ = run_cli(capsys, *args, "--users", users)
            assert code == 0, users
            want = [row for row in data_rows(full)
                    if (cells(row)["scenario"], cells(row)["user"]) in keep]
            assert want and data_rows(out) == want, users

    # coop sections whose far user has a zero cut (rate 0) or whose users
    # both have infinite cuts (a far threshold past the power split), with
    # the stdout digests of sweep --oma --trials 20000 and validate
    # --trials 20000 (rel_err cells blanked)
    EDGE_CUT_DIGESTS = {
        "0 3": ("8bda378aec8367115562cf3c25d9faca3be6b60def77df41da0deaa84b39cda2",
                "86b5a0aeaa1c4660b8c1e6b17b0e4af321c7d544bc30ee490f641dac6d5b5a87"),
        "1.5 1": ("ef6df5a9dd8c7430cb09449dfeb7efabc7fbc275d0e01d138e8549dfb6c8f54a",
                  "5068a92c98467899be544411c7b2bb086d29b446237371da8639530720fe08d7"),
    }

    @pytest.mark.parametrize("rates", sorted(EDGE_CUT_DIGESTS))
    def test_zero_and_infinite_cuts_are_pinned(self, capsys, tmp_path, rates):
        ini = tmp_path / "edge.ini"
        ini.write_text(preset_ini("coop").replace("rates = 1.0 1.5", f"rates = {rates}"),
                       encoding="utf-8")
        outs = []
        for command in ("sweep --oma", "validate"):
            code, out, err = run_cli(capsys, *command.split(), "--trials", "20000",
                                     "--config", str(ini))
            assert code == 0 and err == ""
            outs.append(blank_rel_err(out) if command == "validate" else out)
        digests = tuple(hashlib.sha256(out.encode("utf-8")).hexdigest() for out in outs)
        assert digests == self.EDGE_CUT_DIGESTS[rates]

    def test_relay_closed_form_once_per_user_and_point(self, capsys, monkeypatch):
        calls = []
        closed_form = analytic.relay_outage_closed

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_form(*args, **kwargs)

        monkeypatch.setattr(analytic, "relay_outage_closed", counted)
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "coop", "--mu", "1,2", "--oma")
        assert code == 0
        # 2 mu values x 9 SNR points x (far, near, OMA baseline)
        assert len(calls) == 2 * 9 * 3

    def test_bessel_sum_skipped_below_the_switch(self, capsys, monkeypatch):
        # a relay call whose deep series lands clearly below 1e-6, or at
        # mu <= 6 in the series band [1e-5, 1e-3), returns it without
        # running the Bessel sum, while the closed form still runs once
        # per user and point; the default grid stops at 40 dB, above
        # every deep value of these configs, so this one goes to 60
        results, sums = [], []
        closed_form, bessel_sum = analytic.relay_outage_closed, analytic._relay_outage_f64

        def counted_closed_form(*args, **kwargs):
            results.append(closed_form(*args, **kwargs))
            return results[-1]

        def counted_sum(*args, **kwargs):
            sums.append(args)
            return bessel_sum(*args, **kwargs)

        monkeypatch.setattr(analytic, "relay_outage_closed", counted_closed_form)
        monkeypatch.setattr(analytic, "_relay_outage_f64", counted_sum)
        code, _, _ = run_cli(capsys, "sweep", "--scenario", "coop", "--mu", "1,2", "--oma",
                             "--snr-stop", "60")
        assert code == 0
        # 2 mu values x 13 SNR points x (far, near, OMA baseline)
        assert len(results) == 2 * 13 * 3
        deep = sum(value < 1e-6 for value in results)
        band = sum(analytic._DEEP_BAND[0] <= value < analytic._DEEP_BAND[1] for value in results)
        assert deep > 0 and band > 0 and len(sums) == len(results) - deep - band

    def test_stage_cuts_once_per_config(self, capsys, monkeypatch):
        # one call gives the stage cuts of a config's whole SNR grid, for
        # every user; the OMA baseline needs no cut
        calls = []
        cuts = analytic.stage_cuts

        def counted(*args, **kwargs):
            calls.append(args)
            return cuts(*args, **kwargs)

        monkeypatch.setattr(analytic, "stage_cuts", counted)
        for argv, want in (
            # 2 mu values
            (("sweep", "--scenario", "coop", "--mu", "1,2", "--oma"), 2),
            # one config, three users
            (("sweep", "--scenario", "direct", "--oma"), 1),
            # the gate reads exact values and oracles from one set of
            # cuts: 2 preset configs
            (("validate", "--trials", "0"), 2),
        ):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            assert len(calls) == want, argv

    def test_each_block_drawn_once_per_run(self, capsys, monkeypatch):
        block_draws, sorted_draws = [], []
        draw_block = montecarlo.draw_block
        sample_sorted_gains = montecarlo.sample_sorted_gains

        def counted_block(*args, **kwargs):
            block_draws.append(args)
            return draw_block(*args, **kwargs)

        def counted_sorted(*args, **kwargs):
            sorted_draws.append(args)
            return sample_sorted_gains(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "draw_block", counted_block)
        monkeypatch.setattr(montecarlo, "sample_sorted_gains", counted_sorted)
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "compare", "--trials", "1000", "--snr-step", "10",
        )
        assert code == 0
        # 5 SNR points, 1 block: both configs share (mu, pool), so one draw
        # serves every config, point and user, and sorts one pool
        assert [[cfg.has_relay for cfg in args[0]] for args in block_draws] == [[True, False]]
        assert len(sorted_draws) == 1

    def test_config_with_both_relay_keys_exits_2(self, capsys, tmp_path):
        text = preset_ini("coop").replace("relay_gain = 0.9", "relay_gain = 0.9\nrelay_const = 2.0")
        ini = tmp_path / "both.ini"
        ini.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 2 and out == ""
        assert "unknown keys ['relay_const']" in err

    @pytest.mark.parametrize("key", ["relay_const", "relay_distance", "pathloss_exp"])
    def test_config_with_removed_relay_key_exits_2(self, capsys, tmp_path, key):
        ini = tmp_path / "removed.ini"
        ini.write_text(preset_ini("coop") + f"{key} = 0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 2 and out == ""
        assert err == f"error: {ini} [coop]: unknown keys ['{key}']\n"

    @pytest.mark.parametrize("scenario, mu", [("coop", "32"), ("direct", "100")])
    def test_leading_term_past_double_range_exits_0(self, capsys, scenario, mu):
        code, out, err = run_cli(capsys, "sweep", "--scenario", scenario, "--mu", mu)
        assert code == 0 and err == ""
        rows = [cells(r) for r in data_rows(out)]
        assert len(rows) == 9 * {"coop": 2, "direct": 3}[scenario]
        for c in rows:
            assert math.isfinite(float(c["p_exact"])) and math.isfinite(float(c["p_asymptotic"]))
            if c["snr_db"] == "0":
                assert c["p_asymptotic"] == "1"

    @pytest.mark.parametrize("scenario, rates, user", [
        ("coop", "1.0 600", "near"),
        ("direct", "0.2 1.0 1100", "3"),
        # each threshold is finite; only the OMA sum rate passes 1024 bits
        ("direct", "0.2 1.0 1023", None),
    ])
    def test_threshold_past_double_range_is_certain_outage(self, capsys, tmp_path,
                                                           scenario, rates, user):
        text = preset_ini(scenario)
        ini = tmp_path / "rates.ini"
        ini.write_text(text.replace(
            next(ln for ln in text.splitlines() if ln.startswith("rates =")), f"rates = {rates}"),
            encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", scenario, "--config", str(ini),
                                 "--oma", "--trials", "1000")
        assert code == 0 and err == ""
        for c in map(cells, data_rows(out)):
            assert c["p_oma"] == "1"
            if c["user"] == user:
                assert c["p_exact"] == c["p_asymptotic"] == c["p_mc"] == "1"
        code, out, err = run_cli(capsys, "validate", "--config", str(ini), "--trials", "1000")
        assert code == 0 and err == ""
        for row in data_rows(out):
            c = dict(zip(REPORT_COLUMNS, row.split(",")))
            assert c["passed"] == "pass"
            if c["user"] == user:
                assert c["p_exact"] == c["p_oracle"] == c["p_mc"] == "1"

    def test_config_with_removed_mean_override_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "override.ini"
        ini.write_text(preset_ini("coop") + "omega_sd_far = 0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 2 and out == ""
        assert "unknown keys ['omega_sd_far']" in err

    def test_missing_scenario_section_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "cooponly.ini"
        ini.write_text(preset_ini("coop"), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "direct", "--config", str(ini)
        )
        assert code == 2
        assert err == "error: config does not define scenario section(s): ['direct']\n"

    @pytest.mark.parametrize("gain", ["1e200", "1e-200"])
    def test_relay_gain_without_finite_noise_constant_exits_2(self, capsys, tmp_path, gain):
        # 1/G**2 is 0 at G = 1e200 and G*G is 0 at G = 1e-200
        ini = tmp_path / "gain.ini"
        ini.write_text(preset_ini("coop").replace("relay_gain = 0.9", f"relay_gain = {gain}"),
                       encoding="utf-8")
        for argv in (("sweep", "--scenario", "coop", "--config", str(ini)),
                     ("validate", "--trials", "0", "--config", str(ini))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1, argv
            assert "finite noise constant" in err

    @pytest.mark.parametrize("omega_sr, omega_rd, validate_code", [
        ("1e200", "1e200", 0),  # omega_sr * omega_rd overflows
        ("1e300", "4.0", 2),  # the relay oracle's nodes stop near 5e30
    ])
    def test_extreme_hop_means_exit_0_or_2(self, capsys, tmp_path, omega_sr, omega_rd,
                                           validate_code):
        ini = tmp_path / "hops.ini"
        ini.write_text(preset_ini("coop").replace("omega_sr = 4.0", f"omega_sr = {omega_sr}")
                       .replace("omega_rd = 4.0", f"omega_rd = {omega_rd}"), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 0 and err == ""
        assert all(0.0 < float(cells(r)["p_exact"]) < 1e-190 for r in data_rows(out))
        code, out, err = run_cli(capsys, "validate", "--trials", "0", "--config", str(ini))
        if validate_code == 0:
            assert code == 0 and err == ""
            assert all(row.split(",")[-2] == "pass" for row in data_rows(out))
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: the relay oracle cannot resolve omega_sr = 1e+300")
            assert err.count("\n") == 1

    def test_relay_outage_below_the_double_range_exits_0(self, capsys, tmp_path):
        # at mu = 3 and hop means 1e116 every relay outage is below 5e-324:
        # the closed form and the oracle both round it to 0, and the rows
        # pass rather than the oracle reporting that it cannot resolve them
        ini = tmp_path / "underflow.ini"
        ini.write_text(preset_ini("coop").replace("mu = 1", "mu = 3")
                       .replace("omega_sr = 4.0", "omega_sr = 1e116")
                       .replace("omega_rd = 4.0", "omega_rd = 1e116"), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--trials", "0", "--config", str(ini))
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in data_rows(out)]
        assert len(rows) == 9 * 2
        assert all(r[4:7] == ["0", "0", "0"] and r[-2] == "pass" for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_direct_mean_past_rate_range_exits_0_without_warning(self, capsys, tmp_path):
        # mu / 1e-310 overflows: that user's direct link always fails
        ini = tmp_path / "tiny.ini"
        ini.write_text(preset_ini("coop").replace("omega = 1.0 1.0", "omega = 1e-310 1.0"),
                       encoding="utf-8")
        for argv in (("sweep", "--scenario", "coop", "--trials", "2000"),
                     ("validate", "--trials", "2000")):
            code, out, err = run_cli(capsys, *argv, "--config", str(ini))
            assert (code, err) == (0, ""), argv
            assert len(data_rows(out)) == 9 * 2

    @pytest.mark.filterwarnings("error")
    def test_mean_that_overflows_the_simulated_sinr_is_simulated(self, capsys, tmp_path):
        # gains near 1.7e308 overflow a float SINR to inf or NaN; the
        # comparison against exact cuts decides them, so the runs are fine
        huge = tmp_path / "huge.ini"
        huge.write_text("[direct]\npower = 1.0\nrates = 1.7e308\nomega = 1.7e308\nmu = 1\n"
                        "ranks = 1\npool = 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--trials", "3000",
                                 "--config", str(huge))
        assert (code, err) == (0, "")
        # the threshold is past the double range: exact outage 1, and p_mc 1
        assert {(cells(r)["p_exact"], cells(r)["p_mc"]) for r in data_rows(out)} == {("1", "1")}
        for trials in ("3000", "0"):
            code, out, err = run_cli(capsys, "validate", "--trials", trials, "--config", str(huge))
            assert (code, err) == (0, ""), trials
        for field in ("omega_sr", "omega_rd"):
            relay = tmp_path / f"{field}.ini"
            relay.write_text(preset_ini("coop").replace(f"{field} = 4.0", f"{field} = 1.7e308"),
                             encoding="utf-8")
            code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--trials", "3000",
                                     "--config", str(relay))
            assert (code, err) == (0, ""), field
            assert len(data_rows(out)) == 9 * 2
            # the Monte Carlo leg runs; only the relay oracle cannot resolve
            # hop means this far apart
            code, out, err = run_cli(capsys, "validate", "--trials", "3000", "--config", str(relay))
            assert (code, out) == (2, "") and err.count("\n") == 1, field
            assert err.startswith("error: the relay oracle cannot resolve ") and field in err

    def test_trials_past_the_int64_counts_exit_2(self, capsys):
        # failure counts are int64; a larger --trials used to build one
        # list entry per block and exit 1 with a MemoryError
        for command in ("sweep", "validate"):
            for trials in (str(2**63), "99999999999999999999999"):
                code, out, err = run_cli(capsys, command, "--trials", trials)
                assert (code, out) == (2, ""), (command, trials)
                assert err == (f"error: trials must be in 0..{2**63 - 1} (2**63 - 1), "
                               f"got {trials}\n")

    def test_large_pool_config_exits_0(self, capsys, tmp_path):
        # the ordered CDF of a pool this size is a finite probability
        ini = tmp_path / "pool.ini"
        ini.write_text("[direct]\npower = 0.8 0.2\nrates = 0.5 1.0\nomega = 1.0 1.0\n"
                       "ranks = 1 1100\npool = 1100\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--config", str(ini))
        assert code == 0 and err == ""
        rows = [cells(r) for r in data_rows(out)]
        assert len(rows) == 9 * 2
        assert all(0.0 <= float(c["p_exact"]) <= 1.0 for c in rows)

    def test_large_pool_at_large_mu_simulates(self, capsys, tmp_path):
        # one gamma variate a gain: a (3000, 1504) block at mu 300 draws
        # no (trials, pool, mu) buffer
        ini = tmp_path / "pool.ini"
        ini.write_text("[direct]\npower = 0.8 0.2\nrates = 0.5 1.0\nomega = 1.0 1.0\n"
                       "ranks = 1 1504\npool = 1504\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--mu", "300",
                                 "--trials", "3000", "--snr-step", "20", "--config", str(ini))
        assert (code, err) == (0, "")
        rows = [cells(r) for r in data_rows(out)]
        assert len(rows) == 3 * 2 and all(c["p_mc"] != "" for c in rows)

    def test_relay_mu_above_bound_exits_2(self, capsys, tmp_path):
        bad = str(MAX_RELAY_MU + 1)
        ini = tmp_path / "mu.ini"
        ini.write_text(preset_ini("coop").replace("mu = 1", f"mu = {bad}"), encoding="utf-8")
        for argv in (("sweep", "--scenario", "coop", "--mu", bad),
                     ("sweep", "--scenario", "compare", "--mu", f"1,{bad}"),
                     ("validate", "--trials", "0", "--config", str(ini))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1, argv
            assert f"mu must be <= {MAX_RELAY_MU} with a relay, got {bad}" in err
        # without a relay, mu has no such bound
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--mu",
                                 str(4 * MAX_RELAY_MU), "--snr-start", "10", "--snr-stop", "10")
        assert code == 0 and err == "" and len(data_rows(out)) == 3


class TestHugePool:
    """A pool far past any array: the ordered CDF's work follows the rank."""

    INI = ("[direct]\npower = 0.8 0.2\nrates = 0.5 1.0\nomega = 1.0 1.0\nmu = 3\n"
           "ranks = 1 40\npool = 100000000000000000000\n")

    @staticmethod
    def reference(cut, rank, total):
        """Ordered CDF of a unit-mean mu = 3 gain at ``cut``: the binomial
        tail in the 60-digit gamma CDF, as 1 minus its rank lower terms."""
        with mp.workdps(60):
            f = mp.gammainc(3, 0, 3 * mp.mpf(cut), regularized=True)
            lower = mp.fsum(mp.binomial(total, j) * f**j * (1 - f) ** (total - j)
                            for j in range(rank))
            return float(1 - lower)

    def test_exits_0_with_the_mpmath_value(self, capsys, tmp_path):
        ini = tmp_path / "huge.ini"
        ini.write_text(self.INI, encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--config", str(ini),
                                 "--snr-start", "60", "--snr-stop", "60")
        assert code == 0 and err == ""
        rows = [cells(row) for row in data_rows(out)]
        cfg = load_config_file(ini)["direct"]
        links = analytic.point_links(cfg, [1e6])
        for user, row, (_, idx, cut) in zip(analytic.served_users(cfg), rows, links, strict=True):
            value = user_outage(cfg, 1e6, user)[0]
            assert row["p_exact"] == f"{value:.12g}"
            # the leading term C(pool, rank) F**rank is past 1, so it clamps
            assert row["p_asymptotic"] == "1"
            ref = self.reference(cut[0], idx.rank, idx.total)
            assert abs(value - ref) <= 1e-12 * ref, (idx.rank, value, ref)

    def test_simulation_exits_2_before_any_draw(self, capsys, tmp_path, monkeypatch):
        # one trial of this pool is past any array, so nothing is allocated
        def no_draw(*args, **kwargs):
            raise AssertionError("drew gains for a pool that no array holds")

        monkeypatch.setattr(montecarlo, "draw_block", no_draw)
        ini = tmp_path / "huge.ini"
        ini.write_text(self.INI, encoding="utf-8")
        for command in ("sweep", "validate"):
            code, out, err = run_cli(capsys, command, "--config", str(ini), "--trials", "1",
                                     *(("--scenario", "direct") if command == "sweep" else ()))
            assert (code, out) == (2, ""), command
            assert err.startswith("error: pool 100000000000000000000 is too large to simulate")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("chunks", ["1", "2"])
    def test_refused_allocation_exits_2(self, capsys, monkeypatch, chunks):
        # numpy's refusal of a block's gains, raised by a stand-in sampler
        # so that no test allocates a real multi-GiB block
        def refuse(p, total, rng, size=None, *, out=None):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")

        monkeypatch.setattr(montecarlo, "sample_sorted_gains", refuse)
        code, out, err = run_cli(capsys, "sweep", "--scenario", "direct", "--trials", "600000",
                                 "--chunks", chunks)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: a block of {2**18} trials at pool 3: Unable to allocate")
        assert "Unable to allocate 74.5 GiB" in err and err.count("\n") == 1


class TestFigure:
    def test_header_echoes_preset_values(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# figure = fig4"
        assert "# direct.power = 0.5 0.4 0.1" in lines
        assert "# direct.omega = 0.3 1.5 5" in lines
        assert "# direct.mu = 1" in lines
        rows = data_rows(out)
        assert len(rows) == 9 * 3
        assert all(cells(r)["mu"] == "1" for r in rows)

    def test_mu_schedule_per_figure(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3")
        assert code == 0
        mus = {cells(r)["mu"] for r in data_rows(out)}
        assert mus == {"2", "3"}
        code, out, _ = run_cli(capsys, "figure", "fig6")
        assert code == 0
        mus = {cells(r)["mu"] for r in data_rows(out)}
        assert mus == {"1", "2", "3"}

    def test_comparison_figure_covers_both_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig8")
        assert code == 0
        lines = out.splitlines()
        assert "# coop.pool = 3" in lines
        assert "# direct.power = 0.8 0.2" in lines
        scen = {cells(r)["scenario"] for r in data_rows(out)}
        assert scen == {"coop", "direct"}

    def test_figure_rows_always_carry_oma_and_throughput(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2")
        assert code == 0
        for row in data_rows(out):
            c = cells(row)
            assert c["p_oma"] != "" and c["throughput"] != ""

    def test_throughput_grows_with_snr(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig6")
        assert code == 0
        rows = [cells(r) for r in data_rows(out) if r.split(",")[2] == "1"]
        tput = [float(c["throughput"]) for c in rows if c["user"] == "far"]
        assert tput == sorted(tput)
        assert tput[-1] > tput[0]

    def test_figure_rows_are_the_preset_sweep(self, capsys):
        code, fig, _ = run_cli(capsys, "figure", "fig3")
        assert code == 0
        code, sweep, _ = run_cli(capsys, "sweep", "--scenario", "coop", "--mu", "2,3", "--oma")
        assert code == 0
        assert data_rows(fig) == data_rows(sweep)

    def test_unknown_figure_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["figure", "fig99"])
        assert info.value.code == 2
        capsys.readouterr()


class TestValidate:
    def test_oracle_only_report_passes(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--trials", "0")
        assert code == 0 and err == ""
        rows = data_rows(out)
        assert len(rows) == 9 * 2 + 9 * 3
        for row in rows:
            parts = row.split(",")
            assert parts[-2] == "pass"
            assert parts[7] == ""  # no simulation leg

    def test_report_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "validate", "--trials", "0", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith(",".join(REPORT_COLUMNS) + "\n")

    def test_oracle_failure_exits_1(self, capsys, monkeypatch):
        # the gate reads every user's oracle at every point from one batch
        # of the config's links
        oracles = validation.link_oracles

        def off_oracles(cfg, links):
            return [value * (1.0 + 1e-5) for value in oracles(cfg, links)]

        monkeypatch.setattr(validation, "link_oracles", off_oracles)
        code, out, err = run_cli(capsys, "validate", "--trials", "0")
        assert code == 1
        rows = data_rows(out)
        assert len(rows) == 9 * 2 + 9 * 3
        assert all(row.split(",")[-2] == "FAIL" for row in rows)
        assert err == f"validation: {len(rows)} of {len(rows)} rows failed\n"

    def test_large_pool_oracle_agrees_to_1e_13(self, capsys, tmp_path):
        # the order-statistic density's coefficient at a pool of 1e5,
        # as log(total) + log C(total - 1, rank - 1), keeps its digits
        ini = tmp_path / "pool.ini"
        ini.write_text("[direct]\npower = 0.6 0.4\nrates = 0.5 1.0\nomega = 1 1\nmu = 3\n"
                       "ranks = 1 40\npool = 100000\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--trials", "0", "--config", str(ini))
        assert code == 0 and err == ""
        rows = [dict(zip(REPORT_COLUMNS, row.split(","))) for row in data_rows(out)]
        assert len(rows) == 18 and all(float(r["rel_err"]) <= 1e-13 for r in rows)

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "broken.ini"
        ini.write_text("[direct]\npower = 0.5 0.6\nrates = 1.0 1.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", "--config", str(ini))
        assert code == 2
        assert "error:" in err


class TestCliContract:
    """Exit 0, 1 or 2 by the documented rule, and a clean stderr, for
    random INI sections of both deployments."""

    @staticmethod
    def run_quietly(argv):
        """(exit code, stderr, warnings raised) of one in-process run."""
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(argv)
        return code, err.getvalue(), [str(w.message) for w in caught]

    @settings(max_examples=300, deadline=None)
    @given(section=ini_sections(), trials=st.sampled_from([0, 3000]))
    # hop means 128 decades apart: the relay oracle's integrand underflows
    # at every node where the exact outage is still 1e-305
    @example(section=("coop", "[coop]\npower = 0.6666666666666666 0.3333333333333333\n"
                              "rates = 0.0 1.0\nomega = 1.0 1.0\nmu = 3\nranks = 1 2\npool = 2\n"
                              "relay_gain = 1.0\nomega_sr = 1e+116\nomega_rd = 1e-12\n"),
             trials=0)
    def test_random_sections_keep_the_exit_contract(self, tmp_path_factory, section, trials):
        scenario, text = section
        ini = tmp_path_factory.getbasetemp() / "contract.ini"
        ini.write_text(text, encoding="utf-8")
        code, err, caught = self.run_quietly(
            ["sweep", "--scenario", scenario, "--config", str(ini), "--trials", str(trials),
             "--oma"])
        assert code in (0, 2) and caught == [], (code, err, caught)
        assert "Traceback" not in err and "Warning" not in err, err
        # no mean gain is too large for the Monte Carlo leg
        assert "Monte Carlo" not in err, err
        # exit 1 would mean a failed row; exit 2 only where the relay
        # oracle cannot resolve the hop means
        code, err, caught = self.run_quietly(["validate", "--config", str(ini), "--trials", "0"])
        assert code == 0 or (code == 2 and err.startswith("error: the relay oracle cannot")), (
            code, err)
        assert caught == [] and "Traceback" not in err and "Warning" not in err, (err, caught)

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_config_that_is_not_utf8_exits_2(self, capsys, tmp_path, command):
        # 200 random bytes are bad input, not a UnicodeDecodeError traceback
        raw = random.Random(24).randbytes(200)
        with pytest.raises(UnicodeDecodeError):
            raw.decode("utf-8")
        ini = tmp_path / "binary.ini"
        ini.write_bytes(raw)
        code, out, err = run_cli(capsys, command, "--config", str(ini), "--trials", "0")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config file {ini}: 'utf-8' codec"), err


class TestDeterminism:
    ARGS = (
        "sweep", "--scenario", "compare", "--trials", "30000",
        "--snr-start", "10", "--snr-stop", "15", "--snr-step", "5",
        "--seed", "7",
    )

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.ARGS, "--out", str(a)]) == 0
        assert main([*self.ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_chunks_do_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.ARGS, "--chunks", "1", "--out", str(a)]) == 0
        assert main([*self.ARGS, "--chunks", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_seed_changes_mc_cells_only(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = list(self.ARGS)
        assert main([*base, "--out", str(a)]) == 0
        base[base.index("7")] = "8"
        assert main([*base, "--out", str(b)]) == 0
        rows_a = a.read_text(encoding="utf-8").splitlines()[1:]
        rows_b = b.read_text(encoding="utf-8").splitlines()[1:]
        assert rows_a != rows_b
        for ra, rb in zip(rows_a, rows_b):
            ca, cb = cells(ra), cells(rb)
            assert ca["p_exact"] == cb["p_exact"]
            assert ca["p_asymptotic"] == cb["p_asymptotic"]
            assert ca["throughput"] == cb["throughput"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
    def test_stdout_bytes_are_pinned(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0 and err == ""
        if argv.startswith("validate"):
            out = blank_rel_err(out)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_DIGESTS[argv]


class TestFormatting:
    def test_float_cells_use_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "coop",
            "--snr-start", "17", "--snr-stop", "17", "--snr-step", "1",
        )
        assert code == 0
        rho = 10.0 ** 1.7
        c = cells(data_rows(out)[0])
        value = user_outage(coop_preset(), rho, "far")[0]
        assert c["p_exact"] == f"{value:.12g}"
        assert float(c["p_exact"]) == pytest.approx(value, rel=1e-11)

    def test_nan_free_output(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig8")
        assert code == 0
        assert "nan" not in out and "inf" not in out

    @staticmethod
    def cell_by_cell_rows(cfgs, grid, *, mu_list=None, users=None, batch=None,
                          with_oma=False):
        """The rows of ``sweep_rows`` built one cell at a time: each float
        through ``float``, ``math.isnan`` and its own f-string, with the
        throughput of a point computed just before its rows."""
        def fmt(value):
            v = float(value)
            return "" if math.isnan(v) else f"{v:.12g}"

        rhos = [10.0 ** (db / 10.0) for db in grid]
        selected = _selected_users(users, cfgs)
        runs = [(scenario, with_mu(base, mu)) for scenario, base in cfgs.items()
                if selected[scenario] for mu in mu_list or (base.mu,)]
        counts = [None] * len(runs) if batch is None else [
            fails.tolist() for fails in estimate_outage([cfg for _, cfg in runs], rhos, batch)]
        rows = []
        for (scenario, cfg), fails in zip(runs, counts):
            labels = [str(user) for user in served_users(cfg)]
            outages = [(exact.tolist(), asym.tolist()) for exact, asym in point_outages(cfg, rhos)]
            omas = outage_oma(cfg, rhos).tolist() if with_oma else [math.nan] * len(rhos)
            for k, (db, oma) in enumerate(zip(grid, omas)):
                tput = throughput(cfg, [exact[k] for exact, _ in outages])
                for i in selected[scenario]:
                    exact, asym = outages[i]
                    e = (Estimate.from_count(fails[i][k], batch.trials) if fails
                         else Estimate(math.nan, math.nan, 0))
                    rows.append(",".join([
                        f"{db:g}", scenario, str(cfg.mu), labels[i],
                        fmt(exact[k]), fmt(asym[k]), fmt(e.p_hat), fmt(e.stderr),
                        fmt(oma), fmt(tput),
                    ]))
        return rows

    # (coop rates or None, sweep_rows keywords): None runs the comparison
    # presets, with users from both scenarios out of decode order, with and
    # without Monte Carlo, and without the OMA column; rates "0 3" give the
    # coop preset a zero cut and "1.5 1" infinite cuts
    SWEEP_CASES = {
        "compare-users": (None, dict(users=("near", "2", "far"), with_oma=True)),
        "compare-users-mc": (None, dict(users=("near", "2", "far"), with_oma=True,
                                        batch=TrialBatch(20000, seed=28))),
        "no-oma": (None, dict(mu_list=(1, 3))),
        "rates-0-3": ("0 3", dict(with_oma=True, batch=TrialBatch(20000, seed=28))),
        "rates-1.5-1": ("1.5 1", dict(with_oma=True, batch=TrialBatch(20000, seed=28),
                                      mu_list=(2,))),
    }

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_sweep_rows_match_the_cell_by_cell_builder(self, case):
        rates, kwargs = self.SWEEP_CASES[case]
        cfgs = preset_configs("comparison") if rates is None else load_config_text(
            preset_ini("coop").replace("rates = 1.0 1.5", f"rates = {rates}"), "edge")
        grid = [2.5 * k for k in range(25)]
        rows = sweep_rows(cfgs, grid, **kwargs)
        assert rows and rows == self.cell_by_cell_rows(cfgs, grid, **kwargs)


_PRODUCTION_RUN_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import _COOP_DEEP_ARGV
from noma_perf.cli import main
codes = [main([*_COOP_DEEP_ARGV, "--out", sys.argv[2]]),
         main(["validate", "--trials", "0", "--out", sys.argv[3]])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


_BLOCKED_SCIPY_CHILD = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
from workloads import _COOP_DEEP_ARGV
from noma_perf.cli import main
argvs = [["figure", "fig7"], _COOP_DEEP_ARGV, ["validate", "--trials", "0"]]
codes = [main([*argv, "--out", f"{sys.argv[2]}/blocked{i}.csv"]) for i, argv in enumerate(argvs)]
print(json.dumps({"argvs": argvs, "codes": codes}))
"""


@pytest.fixture(scope="module")
def production_run(tmp_path_factory):
    """Exit codes and imported modules of the benchmark's coop-deep sweep
    and ``validate --trials 0``, run in one fresh interpreter: the sweep
    reaches deep into the relay closed form's sub-1e-6 branch, and
    validate runs every quadrature oracle."""
    root = Path(__file__).resolve().parents[1]
    tmp = tmp_path_factory.mktemp("production_run")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-c", _PRODUCTION_RUN_CHILD, str(root / "perfbench"),
         str(tmp / "sweep.csv"), str(tmp / "validate.csv")],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0]
    return result["modules"]


def _imported(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


class TestNumericalPaths:
    def test_production_runs_never_import_mpmath(self, production_run):
        assert _imported(production_run, "mpmath") == []

    def test_production_runs_never_import_quadpack(self, production_run):
        # the oracles run the package's own double-exponential rules;
        # scipy's QUADPACK is only the tests' second route
        assert _imported(production_run, "scipy.integrate") == []

    def test_production_runs_never_import_scipy(self, production_run):
        # the special functions are the package's own integer-shape kernels
        assert _imported(production_run, "scipy") == []

    def test_production_runs_need_no_scipy(self, tmp_path):
        # with scipy blocked from import, the commands print the same bytes
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run(
            [sys.executable, "-c", _BLOCKED_SCIPY_CHILD, str(root / "perfbench"), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["codes"] == [0, 0, 0]
        for i, argv in enumerate(result["argvs"]):
            free = tmp_path / f"free{i}.csv"
            assert main([*argv, "--out", str(free)]) == 0
            assert (tmp_path / f"blocked{i}.csv").read_bytes() == free.read_bytes(), argv
