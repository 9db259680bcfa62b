"""Unit tests for the scenario configuration objects and INI loading."""

import dataclasses
import itertools
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noma_perf.analytic import point_links, user_outage
from noma_perf.configs import (
    _KEYS,
    MAX_RELAY_MU,
    ConfigError,
    ScenarioConfig,
    coop_preset,
    direct_preset,
    load_config_file,
    load_config_text,
    preset_configs,
    with_mu,
)

COOP_KWARGS = dict(
    power=(0.8, 0.2),
    rates=(1.0, 1.5),
    omega=(1.0, 1.0),
    mu=1,
    ranks=(1, 5),
    pool=5,
    relay_gain=0.9,
    omega_sr=4.0,
    omega_rd=4.0,
)
RELAY_FIELDS = ("relay_gain", "omega_sr", "omega_rd")


def make_coop(**overrides):
    return ScenarioConfig(**{**COOP_KWARGS, **overrides})


class TestCoopConfig:
    """Configs with the relay: two served users, far and near."""

    def test_accepts_reference_values(self):
        cfg = make_coop()
        assert cfg.pool == 5 and cfg.has_relay
        assert_allclose(cfg.noise_scale, 1.0 / 0.81, rtol=1e-15)

    def test_rank_and_mean_accessors(self):
        cfg = make_coop()
        for (params, idx, _), rank in zip(point_links(cfg, 10.0), (1, 5), strict=True):
            assert (idx.rank, idx.total) == (rank, 5)
            assert (params.omega, cfg.omega_rd) == (1.0, 4.0)
        with pytest.raises(ValueError):
            user_outage(cfg, 10.0, "middle")

    def test_rejects_bad_structure(self):
        with pytest.raises(ConfigError):
            make_coop(ranks=(1, 5), pool=4)
        with pytest.raises(ConfigError):
            make_coop(ranks=(5, 5))
        with pytest.raises(ConfigError):
            make_coop(ranks=(0, 5))
        with pytest.raises(ConfigError):
            make_coop(ranks=(1, 6))

    def test_rejects_bad_powers(self):
        with pytest.raises(ConfigError):
            make_coop(power=(0.4, 0.6))  # far must dominate
        with pytest.raises(ConfigError):
            make_coop(power=(0.7, 0.2))  # must sum to one
        with pytest.raises(ConfigError):
            make_coop(power=(1.2, -0.2))

    def test_rejects_bad_rates_and_fading(self):
        with pytest.raises(ConfigError):
            make_coop(rates=(-1.0, 1.5))
        with pytest.raises(ConfigError):
            make_coop(rates=(1.0, math.inf))
        with pytest.raises(ConfigError):
            make_coop(mu=0)
        with pytest.raises(ConfigError):
            make_coop(mu=1.5)
        with pytest.raises(ConfigError):
            make_coop(omega_sr=0.0)

    #: the override that sets each integer setting of the reference relay
    #: config (the pool size, the far and near user's sort ranks, mu) to
    #: a bad value, and the field the error names
    INTEGER_SETTINGS = {
        "users": (lambda v: dict(pool=v), "pool"),
        "far_rank": (lambda v: dict(ranks=(v, 5)), r"ranks\[1\]"),
        "near_rank": (lambda v: dict(ranks=(1, v)), r"ranks\[2\]"),
        "mu": (lambda v: dict(mu=v), "mu"),
    }

    @pytest.mark.parametrize("name, bad", [
        ("users", True), ("users", 5.0), ("far_rank", True), ("far_rank", 1.0),
        ("near_rank", 4.9), ("mu", True), ("mu", np.float64(2.0)),
    ])
    def test_integer_fields_reject_bools_and_floats(self, name, bad):
        override, field = self.INTEGER_SETTINGS[name]
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            make_coop(**override(bad))

    def test_integer_fields_accept_numpy_integers(self):
        cfg = make_coop(pool=np.int64(5), ranks=(np.int32(1), np.uint8(5)), mu=np.int16(2))
        for value in (cfg.pool, *cfg.ranks, cfg.mu):
            assert type(value) is int
        assert cfg == make_coop(mu=2)

    def test_rejects_relay_spec_conflicts(self):
        # relay_gain is the one spelling of the relay: no second field to conflict with
        with pytest.raises(TypeError, match="relay_const"):
            make_coop(relay_gain=0.9, relay_const=1.0)
        for bad in (-0.9, 0.0, math.inf):
            with pytest.raises(ConfigError, match="relay_gain must be finite and > 0"):
                make_coop(relay_gain=bad)
        # G*G is 0 at 1e-200 and subnormal at 1e-160, so 1/G**2 is undefined
        # or inf; at 1e200 G*G is inf and 1/G**2 is 0
        for bad in (1e200, 1e-200, 1e-160):
            with pytest.raises(ConfigError, match="finite noise constant"):
                make_coop(relay_gain=bad)

    @pytest.mark.parametrize("given", [1, 2])
    def test_relay_fields_are_given_together(self, given):
        for names in itertools.combinations(RELAY_FIELDS, given):
            partial = {**COOP_KWARGS, **dict.fromkeys(RELAY_FIELDS)}
            partial.update({name: COOP_KWARGS[name] for name in names})
            with pytest.raises(ConfigError, match="must be given together"):
                ScenarioConfig(**partial)

    @pytest.mark.parametrize("m", [1, 3])
    def test_relay_serves_exactly_two_users(self, m):
        weights = [0.5**k for k in range(m)]
        with pytest.raises(ConfigError, match="exactly two users"):
            make_coop(power=tuple(w / sum(weights) for w in weights), rates=(1.0,) * m,
                      omega=(1.0,) * m, ranks=None)

    def test_mu_is_bounded_with_a_relay_only(self):
        assert make_coop(mu=MAX_RELAY_MU).mu == MAX_RELAY_MU
        with pytest.raises(ConfigError, match=f"mu must be <= {MAX_RELAY_MU} with a relay"):
            make_coop(mu=MAX_RELAY_MU + 1)
        assert with_mu(direct_preset(), 4 * MAX_RELAY_MU).mu == 4 * MAX_RELAY_MU

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_coop().pool = 3


class TestDirectConfig:
    """Configs without the relay: the single-slot M-user system."""

    def test_defaults_fill_ranks_and_pool(self):
        cfg = ScenarioConfig(power=(0.5, 0.4, 0.1), rates=(0.2, 1.0, 2.0),
                             omega=(0.3, 1.5, 5.0))
        assert cfg.n_users == 3
        assert cfg.ranks == (1, 2, 3)
        assert cfg.pool == 3
        assert cfg.mu == 1
        assert not cfg.has_relay and cfg.noise_scale is None

    def test_sparse_ranks_widen_pool(self):
        cfg = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0),
                             ranks=(1, 3))
        assert cfg.pool == 3
        cfg = ScenarioConfig(power=(0.8, 0.2), rates=(0.5, 1.0), omega=(1.0, 1.0),
                             ranks=(2, 3), pool=5)
        assert cfg.pool == 5

    def test_rejects_bad_vectors(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(), rates=(), omega=())
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(0.6, 0.4), rates=(1.0,), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(0.4, 0.6), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(0.6, 0.3), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(0.6, 0.4), rates=(1.0, -1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, -1.0))
        # a zero rate is a user that never misses, as with the relay
        assert ScenarioConfig(power=(0.6, 0.4), rates=(1.0, 0.0), omega=(1.0, 1.0)).rates[1] == 0

    def test_rejects_bad_ranks_and_pool(self):
        good = dict(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(ranks=(2, 1), **good)
        with pytest.raises(ConfigError):
            ScenarioConfig(ranks=(1,), **good)
        with pytest.raises(ConfigError):
            ScenarioConfig(ranks=(0, 1), **good)
        with pytest.raises(ConfigError):
            ScenarioConfig(ranks=(1, 3), pool=2, **good)

    @pytest.mark.parametrize("bad", [
        dict(ranks=(1.9, 3.7)), dict(ranks=(True, 2)), dict(ranks=(1, 3), pool=4.0),
        dict(pool=True), dict(mu=True), dict(mu=2.0),
    ])
    def test_integer_fields_reject_bools_and_floats(self, bad):
        good = dict(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0))
        with pytest.raises(ConfigError, match="must be an integer"):
            ScenarioConfig(**good, **bad)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = ScenarioConfig(power=(0.6, 0.4), rates=(1.0, 1.0), omega=(1.0, 1.0),
                             ranks=np.array([1, 3]), pool=np.int64(4), mu=np.int32(2))
        assert cfg.ranks == (1, 3) and cfg.pool == 4 and cfg.mu == 2
        assert all(type(v) is int for v in (*cfg.ranks, cfg.pool, cfg.mu))


class TestPresets:
    def test_coop_preset_values(self):
        cfg = coop_preset()
        assert (cfg.pool, cfg.ranks) == (5, (1, 5))
        assert cfg.power == (0.8, 0.2)
        assert cfg.rates == (1.0, 1.5)
        assert cfg.omega == (1.0, 1.0)
        assert (cfg.relay_gain, cfg.omega_sr, cfg.omega_rd) == (0.9, 4.0, 4.0)
        assert cfg.mu == 1
        assert_allclose(cfg.noise_scale, 1.2345679012345678, rtol=1e-15)
        assert coop_preset(3).mu == 3

    def test_direct_preset_values(self):
        cfg = direct_preset()
        assert cfg.power == (0.5, 0.4, 0.1)
        assert cfg.rates == (0.2, 1.0, 2.0)
        assert cfg.omega == (0.3, 1.5, 5.0)
        assert cfg.ranks == (1, 2, 3) and cfg.pool == 3
        assert not cfg.has_relay
        assert direct_preset(2).mu == 2

    def test_comparison_presets_are_matched(self):
        cfgs = preset_configs("comparison")
        coop, direct = cfgs["coop"], cfgs["direct"]
        # the relay is the only difference
        assert coop.has_relay
        assert dataclasses.replace(coop, **dict.fromkeys(RELAY_FIELDS)) == direct
        assert direct.omega == (1.0, 1.0) and direct.pool == 3

    def test_preset_configs_name_forms(self):
        assert "coop" in preset_configs("coop")
        assert "coop" in preset_configs("coop.ini")
        both = preset_configs("comparison")
        assert set(both) == {"coop", "direct"}
        with pytest.raises(ConfigError):
            preset_configs("no-such-preset")


class TestIniLoading:
    COOP = """
[coop]
power = 0.75 0.25
rates = 0.5 1.0
omega = 1.5 1.5
mu = 2
ranks = 1 4
pool = 4
relay_gain = 0.8
omega_sr = 2.0
omega_rd = 3.0
"""
    DIRECT = """
[direct]
power = 0.6 0.4
rates = 0.5 1.5
omega = 1.0 2.0
mu = 3
ranks = 1 4
pool = 4
"""
    GOOD = COOP + DIRECT

    def test_parses_both_sections(self):
        cfgs = load_config_text(self.GOOD, "inline")
        coop = cfgs["coop"]
        assert coop.has_relay
        assert (coop.pool, coop.mu, coop.omega_rd) == (4, 2, 3.0)
        direct = cfgs["direct"]
        assert not direct.has_relay
        assert direct.ranks == (1, 4) and direct.pool == 4 and direct.mu == 3

    def test_section_keys_are_the_dataclass_fields(self):
        assert set(_KEYS) == {f.name for f in fields(ScenarioConfig)}
        # [coop] is [direct] plus the relay keys, which [direct] does not take
        for key in RELAY_FIELDS:
            text = self.DIRECT + f"{key} = 1.0\n"
            with pytest.raises(ConfigError, match=rf"\[direct\]: unknown keys \['{key}'\]"):
                load_config_text(text, "inline")

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

    @pytest.mark.parametrize("key", ["users", "far_rank", "near_rank", "power_far",
                                     "power_near", "rate_far", "rate_near", "omega_sd"])
    def test_removed_coop_keys_are_unknown(self, key):
        text = self.COOP + f"{key} = 1\n"
        with pytest.raises(ConfigError, match=rf"\[coop\]: unknown keys \['{key}'\]"):
            load_config_text(text, "inline")

    def test_required_keys_are_the_fields_without_default(self):
        required = {
            "coop": (self.COOP, ("power", "rates", "omega", *RELAY_FIELDS)),
            "direct": (self.DIRECT, ("power", "rates", "omega")),
        }
        for section, (text, keys) in required.items():
            for key in keys:
                with pytest.raises(ConfigError,
                                   match=rf"\[{section}\]: missing required key '{key}'"):
                    load_config_text(re.sub(rf"(?m)^{key} = .*\n", "", text), "inline")

    def test_list_keys_name_their_type(self):
        with pytest.raises(ConfigError, match="'ranks' is not an integer list"):
            load_config_text(self.GOOD.replace("ranks = 1 4", "ranks = 1 4.5"), "inline")
        with pytest.raises(ConfigError, match="'power' is not a number list"):
            load_config_text(self.GOOD.replace("power = 0.6 0.4", "power = 0.6 x"), "inline")

    def test_error_messages_name_source_and_key(self):
        with pytest.raises(ConfigError, match=r"inline \[coop\].*power"):
            load_config_text("[coop]\nmu = 1\n", "inline")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config_text(self.GOOD + "typo_key = 1\n", "inline")
        with pytest.raises(ConfigError, match="unknown sections"):
            load_config_text("[unrelated]\nx = 1\n", "inline")
        with pytest.raises(ConfigError, match="no \\[coop\\] or \\[direct\\]"):
            load_config_text("", "inline")
        with pytest.raises(ConfigError, match="integer"):
            load_config_text(self.GOOD.replace("pool = 4", "pool = four"), "inline")
        with pytest.raises(ConfigError, match="malformed"):
            load_config_text("pool = 4\n", "inline")  # key before any section

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
        with pytest.raises(ConfigError, match="with a relay"):
            with_mu(coop_preset(), MAX_RELAY_MU + 1)
