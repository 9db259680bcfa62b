"""End-to-end tests of the command-line interface and its CSV contract."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from noma_perf import analytic, montecarlo
from noma_perf.analytic import (
    outage_direct_exact,
    outage_far_exact,
    outage_oma,
    throughput_direct,
)
from noma_perf.cli import CSV_COLUMNS, REPORT_COLUMNS, main
from noma_perf.configs import coop_preset, direct_preset, load_config_file, with_mu

HEADER = ",".join(CSV_COLUMNS)


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
            assert c["p_exact"] == f"{outage_direct_exact(cfg, rho, user):.12g}"
            assert c["p_oma"] == f"{outage_oma(cfg, rho):.12g}"
            assert c["throughput"] == f"{throughput_direct(cfg, rho):.12g}"

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
        assert cells(rows[0])["p_exact"] == f"{outage_direct_exact(cfg, 10.0, 1):.12g}"

    def test_no_mc_flag_is_gone(self, capsys):
        # --trials 0 (the default) is the one way to leave out the MC columns
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--no-mc"])
        assert exc.value.code == 2
        assert "--no-mc" in capsys.readouterr().err

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
            ("sweep", "--trials", "-1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1, argv

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

    def test_each_block_drawn_once_per_run(self, capsys, monkeypatch):
        coop_draws, sorted_draws = [], []
        draw_coop_block = montecarlo.draw_coop_block
        sample_sorted_gains = montecarlo.sample_sorted_gains

        def counted_coop(*args, **kwargs):
            coop_draws.append(args)
            return draw_coop_block(*args, **kwargs)

        def counted_sorted(*args, **kwargs):
            sorted_draws.append(args)
            return sample_sorted_gains(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "draw_coop_block", counted_coop)
        monkeypatch.setattr(montecarlo, "sample_sorted_gains", counted_sorted)
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "compare", "--trials", "1000", "--snr-step", "10",
        )
        assert code == 0
        # 5 SNR points, 1 block: one coop draw and one direct pool draw
        # serve every point and user; each coop draw sorts its own pool
        assert len(coop_draws) == 1
        assert len(sorted_draws) - len(coop_draws) == 1

    def test_config_with_both_relay_keys_exits_2(self, capsys, tmp_path):
        text = preset_ini("coop").replace("relay_gain = 0.9", "relay_gain = 0.9\nrelay_const = 2.0")
        ini = tmp_path / "both.ini"
        ini.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 2 and out == ""
        assert "exactly one of relay_gain and relay_const" in err

    def test_config_with_removed_mean_override_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "override.ini"
        ini.write_text(preset_ini("coop") + "omega_sd_far = 0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--scenario", "coop", "--config", str(ini))
        assert code == 2 and out == ""
        assert "unknown keys ['omega_sd_far']" in err

    def test_missing_scenario_section_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "cooponly.ini"
        ini.write_text("[coop]\nusers = 3\nnear_rank = 3\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "direct", "--config", str(ini)
        )
        assert code == 2 and "error:" in err


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
        assert "# coop.users = 3" in lines
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

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "broken.ini"
        ini.write_text("[direct]\npower = 0.5 0.6\nrates = 1.0 1.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", "--config", str(ini))
        assert code == 2
        assert "error:" in err


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


class TestFormatting:
    def test_float_cells_use_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "coop",
            "--snr-start", "17", "--snr-stop", "17", "--snr-step", "1",
        )
        assert code == 0
        rho = 10.0 ** 1.7
        c = cells(data_rows(out)[0])
        value = outage_far_exact(coop_preset(), rho)
        assert c["p_exact"] == f"{value:.12g}"
        assert float(c["p_exact"]) == pytest.approx(value, rel=1e-11)

    def test_nan_free_output(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig8")
        assert code == 0
        assert "nan" not in out and "inf" not in out


_PRODUCTION_RUN_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import _COOP_DEEP_ARGV
from noma_perf.cli import main
codes = [main([*_COOP_DEEP_ARGV, "--out", sys.argv[2]]),
         main(["validate", "--trials", "0", "--out", sys.argv[3]])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
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
