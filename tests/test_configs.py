"""Unit tests for the scenario configuration objects and INI loading."""

import dataclasses
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noma_perf.configs import (
    _COOP_KEYS,
    _DIRECT_KEYS,
    ConfigError,
    CoopConfig,
    DirectConfig,
    coop_preset,
    direct_preset,
    load_config_file,
    load_config_text,
    preset_configs,
    with_mu,
)

COOP_KWARGS = dict(
    users=5,
    far_rank=1,
    near_rank=5,
    power_far=0.8,
    power_near=0.2,
    rate_far=1.0,
    rate_near=1.5,
    relay_gain=0.9,
    mu=1,
    omega_sd=1.0,
    omega_sr=4.0,
    omega_rd=4.0,
)


def make_coop(**overrides):
    return CoopConfig(**{**COOP_KWARGS, **overrides})


class TestCoopConfig:
    def test_accepts_reference_values(self):
        cfg = make_coop()
        assert cfg.users == 5
        assert_allclose(cfg.noise_scale, 1.0 / 0.81, rtol=1e-15)

    def test_rank_and_mean_accessors(self):
        cfg = make_coop()
        assert cfg.rank("far") == 1 and cfg.rank("near") == 5
        with pytest.raises(ValueError):
            cfg.rank("middle")

    def test_rejects_bad_structure(self):
        with pytest.raises(ConfigError):
            make_coop(users=1, near_rank=1)
        with pytest.raises(ConfigError):
            make_coop(far_rank=5, near_rank=5)
        with pytest.raises(ConfigError):
            make_coop(far_rank=0)
        with pytest.raises(ConfigError):
            make_coop(near_rank=6)

    def test_rejects_bad_powers(self):
        with pytest.raises(ConfigError):
            make_coop(power_far=0.4, power_near=0.6)  # far must dominate
        with pytest.raises(ConfigError):
            make_coop(power_far=0.7, power_near=0.2)  # must sum to one
        with pytest.raises(ConfigError):
            make_coop(power_far=1.2, power_near=-0.2)

    def test_rejects_bad_rates_and_fading(self):
        with pytest.raises(ConfigError):
            make_coop(rate_far=-1.0)
        with pytest.raises(ConfigError):
            make_coop(rate_near=math.inf)
        with pytest.raises(ConfigError):
            make_coop(mu=0)
        with pytest.raises(ConfigError):
            make_coop(mu=1.5)
        with pytest.raises(ConfigError):
            make_coop(omega_sr=0.0)

    @pytest.mark.parametrize("name, bad", [
        ("users", True), ("users", 5.0), ("far_rank", True), ("far_rank", 1.0),
        ("near_rank", 4.9), ("mu", True), ("mu", np.float64(2.0)),
    ])
    def test_integer_fields_reject_bools_and_floats(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make_coop(**{name: bad})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = make_coop(users=np.int64(5), far_rank=np.int32(1), near_rank=np.uint8(5),
                        mu=np.int16(2))
        for name in ("users", "far_rank", "near_rank", "mu"):
            assert type(getattr(cfg, name)) is int
        assert cfg == make_coop(mu=2)

    def test_rejects_relay_spec_conflicts(self):
        # relay_gain is the one spelling of the relay: no second field to conflict with
        with pytest.raises(TypeError, match="relay_const"):
            make_coop(relay_gain=0.9, relay_const=1.0)
        for bad in (-0.9, 0.0, math.inf):
            with pytest.raises(ConfigError, match="relay_gain must be finite and > 0"):
                make_coop(relay_gain=bad)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_coop().users = 3


class TestDirectConfig:
    def test_defaults_fill_ranks_and_pool(self):
        cfg = DirectConfig(power=(0.5, 0.4, 0.1), rates=(0.2, 1.0, 2.0),
                           omega=(0.3, 1.5, 5.0))
        assert cfg.n_users == 3
        assert cfg.ranks == (1, 2, 3)
        assert cfg.pool == 3
        assert cfg.mu == 1

    def test_sparse_ranks_widen_pool(self):
        cfg = DirectConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0),
                           ranks=(1, 3))
        assert cfg.pool == 3
        cfg = DirectConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0),
                           ranks=(2, 3), pool=5)
        assert cfg.pool == 5

    def test_rejects_bad_vectors(self):
        with pytest.raises(ConfigError):
            DirectConfig(power=(), rates=(), omega=())
        with pytest.raises(ConfigError):
            DirectConfig(power=(0.6, 0.4), rates=(1.0,), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DirectConfig(power=(0.4, 0.6), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DirectConfig(power=(0.6, 0.3), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DirectConfig(power=(0.6, 0.4), rates=(1.0, 0.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DirectConfig(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, -1.0))

    def test_rejects_bad_ranks_and_pool(self):
        good = dict(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DirectConfig(ranks=(2, 1), **good)
        with pytest.raises(ConfigError):
            DirectConfig(ranks=(1,), **good)
        with pytest.raises(ConfigError):
            DirectConfig(ranks=(0, 1), **good)
        with pytest.raises(ConfigError):
            DirectConfig(ranks=(1, 3), pool=2, **good)

    @pytest.mark.parametrize("bad", [
        dict(ranks=(1.9, 3.7)), dict(ranks=(True, 2)), dict(ranks=(1, 3), pool=4.0),
        dict(pool=True), dict(mu=True), dict(mu=2.0),
    ])
    def test_integer_fields_reject_bools_and_floats(self, bad):
        good = dict(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError, match="must be an integer"):
            DirectConfig(**good, **bad)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = DirectConfig(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0),
                           ranks=np.array([1, 3]), pool=np.int64(4), mu=np.int32(2))
        assert cfg.ranks == (1, 3) and cfg.pool == 4 and cfg.mu == 2
        assert all(type(v) is int for v in (*cfg.ranks, cfg.pool, cfg.mu))


class TestPresets:
    def test_coop_preset_values(self):
        cfg = coop_preset()
        assert (cfg.users, cfg.far_rank, cfg.near_rank) == (5, 1, 5)
        assert (cfg.power_far, cfg.power_near) == (0.8, 0.2)
        assert (cfg.rate_far, cfg.rate_near) == (1.0, 1.5)
        assert (cfg.omega_sd, cfg.omega_sr, cfg.omega_rd) == (1.0, 4.0, 4.0)
        assert cfg.mu == 1
        assert_allclose(cfg.noise_scale, 1.2345679012345678, rtol=1e-15)
        assert coop_preset(3).mu == 3

    def test_direct_preset_values(self):
        cfg = direct_preset()
        assert cfg.power == (0.5, 0.4, 0.1)
        assert cfg.rates == (0.2, 1.0, 2.0)
        assert cfg.omega == (0.3, 1.5, 5.0)
        assert cfg.ranks == (1, 2, 3) and cfg.pool == 3
        assert direct_preset(2).mu == 2

    def test_comparison_presets_are_matched(self):
        cfgs = preset_configs("comparison")
        coop, direct = cfgs["coop"], cfgs["direct"]
        assert coop.users == direct.pool == 3
        assert (coop.far_rank, coop.near_rank) == direct.ranks
        assert (coop.power_far, coop.power_near) == direct.power
        assert (coop.rate_far, coop.rate_near) == direct.rates
        assert coop.omega_sd == direct.omega[0] == direct.omega[1] == 1.0

    def test_preset_configs_name_forms(self):
        assert "coop" in preset_configs("coop")
        assert "coop" in preset_configs("coop.ini")
        both = preset_configs("comparison")
        assert set(both) == {"coop", "direct"}
        with pytest.raises(ConfigError):
            preset_configs("no-such-preset")


class TestIniLoading:
    GOOD = """
[coop]
users = 4
far_rank = 1
near_rank = 4
power_far = 0.75
power_near = 0.25
rate_far = 0.5
rate_near = 1.0
relay_gain = 0.8
mu = 2
omega_sd = 1.5
omega_sr = 2.0
omega_rd = 3.0

[direct]
power = 0.6 0.4
rates = 0.5 1.5
omega = 1.0 2.0
mu = 3
ranks = 1 4
pool = 4
"""

    def test_parses_both_sections(self):
        cfgs = load_config_text(self.GOOD, "inline")
        coop = cfgs["coop"]
        assert isinstance(coop, CoopConfig)
        assert (coop.users, coop.mu, coop.omega_rd) == (4, 2, 3.0)
        direct = cfgs["direct"]
        assert isinstance(direct, DirectConfig)
        assert direct.ranks == (1, 4) and direct.pool == 4 and direct.mu == 3

    def test_section_keys_are_the_dataclass_fields(self):
        assert set(_COOP_KEYS) == {f.name for f in fields(CoopConfig)}
        assert set(_DIRECT_KEYS) == {f.name for f in fields(DirectConfig)}

    def test_geometry_keys(self):
        # the relay geometry is stated as omega_sr / omega_rd, never as a position
        for key in ("relay_distance", "pathloss_exp"):
            text = self.GOOD.replace("[direct]", f"{key} = 0.5\n\n[direct]")
            with pytest.raises(ConfigError, match=rf"\[coop\]: unknown keys \['{key}'\]"):
                load_config_text(text, "inline")

    def test_both_relay_keys_are_rejected(self):
        text = self.GOOD.replace("relay_gain = 0.8", "relay_gain = 0.8\nrelay_const = 2.0")
        with pytest.raises(ConfigError, match=r"unknown keys \['relay_const'\]"):
            load_config_text(text, "inline")

    @pytest.mark.parametrize(
        "key", ["omega_sd_far", "omega_sd_near", "omega_rd_far", "omega_rd_near"]
    )
    def test_removed_per_user_mean_keys_are_unknown(self, key):
        text = self.GOOD.replace("[direct]", f"{key} = 1.0\n\n[direct]")
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            load_config_text(text, "inline")

    def test_required_keys_are_the_fields_without_default(self):
        required = {
            "coop": ("users", "far_rank", "near_rank", "power_far", "power_near",
                     "rate_far", "rate_near"),
            "direct": ("power", "rates", "omega"),
        }
        for section, keys in required.items():
            for key in keys:
                text = re.sub(rf"(?m)^{key} = .*\n", "", self.GOOD)
                with pytest.raises(ConfigError,
                                   match=rf"\[{section}\]: missing required key '{key}'"):
                    load_config_text(text, "inline")

    def test_list_keys_name_their_type(self):
        with pytest.raises(ConfigError, match="'ranks' is not an integer list"):
            load_config_text(self.GOOD.replace("ranks = 1 4", "ranks = 1 4.5"), "inline")
        with pytest.raises(ConfigError, match="'power' is not a number list"):
            load_config_text(self.GOOD.replace("power = 0.6 0.4", "power = 0.6 x"), "inline")

    def test_error_messages_name_source_and_key(self):
        with pytest.raises(ConfigError, match=r"inline \[coop\].*users"):
            load_config_text("[coop]\nfar_rank = 1\n", "inline")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config_text(self.GOOD + "typo_key = 1\n", "inline")
        with pytest.raises(ConfigError, match="unknown sections"):
            load_config_text("[unrelated]\nx = 1\n", "inline")
        with pytest.raises(ConfigError, match="no \\[coop\\] or \\[direct\\]"):
            load_config_text("", "inline")
        with pytest.raises(ConfigError, match="integer"):
            load_config_text(self.GOOD.replace("users = 4", "users = four"), "inline")
        with pytest.raises(ConfigError, match="malformed"):
            load_config_text("users = 4\n", "inline")  # key before any section

    def test_load_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.GOOD, encoding="utf-8")
        cfgs = load_config_file(path)
        assert set(cfgs) == {"coop", "direct"}
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "missing.ini")


class TestReadme:
    def test_ini_block_matches_committed_presets(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        text = "\n".join(line.split("#", 1)[0].rstrip() for line in block.splitlines())
        cfgs = load_config_text(text, "README")
        assert cfgs["coop"] == preset_configs("coop")["coop"]
        assert cfgs["direct"] == preset_configs("direct")["direct"]


class TestWithMu:
    def test_replaces_only_mu(self):
        cfg = coop_preset()
        bumped = with_mu(cfg, 3)
        assert bumped.mu == 3 and cfg.mu == 1
        assert bumped.omega_sr == cfg.omega_sr
        direct = with_mu(direct_preset(), 2)
        assert direct.mu == 2 and direct.power == (0.5, 0.4, 0.1)

    def test_validation_still_applies(self):
        with pytest.raises(ConfigError):
            with_mu(coop_preset(), 0)
