"""Scenario configuration containers, canonical presets, and INI loading.

Two deployments are modelled.  ``CoopConfig`` describes a two-user
downlink where a far user (weak direct link, low sort rank) and a near
user (strong direct link, high sort rank) are picked from a pool of M
sorted users and additionally served through a fixed-gain amplify-and-
forward relay over a second time slot.  ``DirectConfig`` describes a
single-slot downlink serving every user by superposition coding with
successive interference cancellation and no relay.

The cooperative model is the paper's: both served users come from one
i.i.d. pool of direct links with mean ``omega_sd``, the relay has one
fixed gain G (``relay_gain``; its noise constant 1/G**2 is derived), the
source-relay hop has mean ``omega_sr`` and both relay-to-user hops have
mean ``omega_rd``.

Every setting has one spelling.  Configs are frozen dataclasses
validated on construction; the CLI builds them from INI files whose
section keys are exactly the dataclass fields, each section read
through one table of its keys' parsers, so any other key is an
"unknown keys" error.
"""

from __future__ import annotations

import configparser
import logging
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

logger = logging.getLogger(__name__)

__all__ = [
    "ConfigError",
    "CoopConfig",
    "DirectConfig",
    "coop_preset",
    "direct_preset",
    "load_config_file",
    "load_config_text",
    "preset_configs",
    "with_mu",
]

_POWER_SUM_TOL = 1e-9


class ConfigError(ValueError):
    """Raised for invalid scenario parameters; message names the field."""


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


def _integer(name: str, value, low: int) -> int:
    """``value`` as a plain int; Python and numpy integers >= ``low`` pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


# =====================================================================
# Cooperative (relay-assisted) two-user scenario
# =====================================================================

@dataclass(frozen=True)
class CoopConfig:
    """Relay-assisted two-user downlink over Nakagami-m fading.

    Attributes
    ----------
    users : int
        Pool size M of sorted direct links.
    far_rank, near_rank : int
        1-based ascending sort positions of the served far and near user;
        ``far_rank < near_rank``.
    power_far, power_near : float
        Superposition power fractions; sum to 1 with the far user favored.
    rate_far, rate_near : float
        Target rates in bit/s/Hz; the two-slot protocol doubles the SNR
        thresholds relative to single-slot signalling.  Zero is allowed
        and makes the corresponding outage trivially zero.
    relay_gain : float
        Fixed amplification factor G of the relay; the noise it forwards
        is scaled by ``noise_scale`` = 1 / G**2.
    mu : int
        Integer fading severity shared by all links.
    omega_sd : float
        Mean direct-link power gain of the sorted pool.
    omega_sr, omega_rd : float
        Mean gains of the source-relay hop and the relay-user hops.
    """

    users: int
    far_rank: int
    near_rank: int
    power_far: float
    power_near: float
    rate_far: float
    rate_near: float
    relay_gain: float = 0.9
    mu: int = 1
    omega_sd: float = 1.0
    omega_sr: float = 4.0
    omega_rd: float = 4.0

    def __post_init__(self) -> None:
        for name, low in (("users", 2), ("far_rank", 1), ("near_rank", 1), ("mu", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if self.near_rank > self.users:
            raise ConfigError(f"near_rank must not exceed users, got {self.near_rank}")
        if self.far_rank >= self.near_rank:
            raise ConfigError(
                f"far_rank must be below near_rank, got {self.far_rank} >= {self.near_rank}"
            )
        _check_positive("power_far", self.power_far)
        _check_positive("power_near", self.power_near)
        if self.power_far <= self.power_near:
            raise ConfigError(
                "power_far must exceed power_near (far user is decoded first), "
                f"got {self.power_far} <= {self.power_near}"
            )
        if abs(self.power_far + self.power_near - 1.0) > _POWER_SUM_TOL:
            raise ConfigError(
                f"power_far + power_near must equal 1, got {self.power_far + self.power_near}"
            )
        for name in ("rate_far", "rate_near"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("relay_gain", "omega_sd", "omega_sr", "omega_rd"):
            _check_positive(name, getattr(self, name))

    # -- derived quantities -------------------------------------------

    @property
    def noise_scale(self) -> float:
        """Relay noise constant 1 / relay_gain**2."""
        return 1.0 / (self.relay_gain * self.relay_gain)

    def rank(self, user: str) -> int:
        if user == "far":
            return self.far_rank
        if user == "near":
            return self.near_rank
        raise ValueError(f"user must be 'far' or 'near', got {user!r}")


# =====================================================================
# Non-cooperative M-user scenario
# =====================================================================

@dataclass(frozen=True)
class DirectConfig:
    """Single-slot M-user downlink with superposition coding and SIC.

    Attributes
    ----------
    power : tuple of float
        Power fractions per served user, strictly descending, summing
        to 1.  User 1 gets the most power and is decoded first.
    rates : tuple of float
        Target rates in bit/s/Hz per served user, strictly positive.
    omega : tuple of float
        Mean power gain per served user (statistically ordered users
        have ascending means, but any positive values are accepted).
    mu : int
        Integer fading severity shared by all users.
    ranks : tuple of int or None
        Ascending 1-based sort positions of the served users inside a
        pool of ``pool`` i.i.d. links.  Default: users 1..M of a pool of
        size M, which is the fully loaded system.
    pool : int or None
        Sorted pool size; defaults to ``len(power)`` (or ``max(ranks)``).
    """

    power: tuple[float, ...]
    rates: tuple[float, ...]
    omega: tuple[float, ...]
    mu: int = 1
    ranks: tuple[int, ...] | None = None
    pool: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "power", tuple(float(a) for a in self.power))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        m = len(self.power)
        if m < 1:
            raise ConfigError("power must contain at least one user")
        if len(self.rates) != m or len(self.omega) != m:
            raise ConfigError(
                f"power, rates and omega must have equal length, got "
                f"{m}, {len(self.rates)}, {len(self.omega)}"
            )
        for i, a in enumerate(self.power, start=1):
            _check_positive(f"power[{i}]", a)
        if any(a <= b for a, b in zip(self.power, self.power[1:])):
            raise ConfigError(f"power must be strictly descending, got {self.power}")
        if abs(sum(self.power) - 1.0) > _POWER_SUM_TOL:
            raise ConfigError(f"power must sum to 1, got {sum(self.power)}")
        for i, r in enumerate(self.rates, start=1):
            _check_positive(f"rates[{i}]", r)
        for i, w in enumerate(self.omega, start=1):
            _check_positive(f"omega[{i}]", w)
        object.__setattr__(self, "mu", _integer("mu", self.mu, 1))
        ranks = self.ranks if self.ranks is not None else range(1, m + 1)
        ranks = tuple(_integer(f"ranks[{i}]", r, 1) for i, r in enumerate(ranks, start=1))
        if len(ranks) != m:
            raise ConfigError(f"ranks must list one sort position per user, got {ranks}")
        if any(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:])):
            raise ConfigError(f"ranks must be strictly ascending, got {ranks}")
        pool = _integer("pool", max(m, ranks[-1]) if self.pool is None else self.pool, 1)
        if pool < ranks[-1]:
            raise ConfigError(f"pool must be >= max rank {ranks[-1]}, got {pool}")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "pool", pool)

    @property
    def n_users(self) -> int:
        """Number of served users M."""
        return len(self.power)


# =====================================================================
# Canonical presets (committed INI files are the source of truth)
# =====================================================================

def preset_configs(name: str) -> dict[str, "CoopConfig | DirectConfig"]:
    """Load a committed preset file by name ('coop', 'direct', 'comparison')."""
    from importlib import resources

    filename = name if name.endswith(".ini") else f"{name}.ini"
    try:
        text = resources.files("noma_perf").joinpath(f"presets/{filename}").read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"no such preset: {name}") from exc
    return load_config_text(text, f"preset {filename}")


def coop_preset(mu: int = 1) -> CoopConfig:
    """Reference cooperative setup: pool of 5, weakest and strongest served.

    Far/near power split 0.8/0.2, target rates 1 and 1.5 bit/s/Hz, relay
    gain 0.9, relay halfway along a unit path with square-law pathloss
    (both hop means equal 4), unit direct-link mean.
    """
    return with_mu(preset_configs("coop")["coop"], mu)


def direct_preset(mu: int = 1) -> DirectConfig:
    """Reference non-cooperative setup: three users, ascending link quality.

    Power split 0.5/0.4/0.1, rates 0.2/1/2 bit/s/Hz, mean gains
    0.3/1.5/5.
    """
    return with_mu(preset_configs("direct")["direct"], mu)


# =====================================================================
# INI loading
# =====================================================================

def _tokens(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


# parser and description of the values of one INI key type
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_NUMBERS = (lambda raw: tuple(float(tok) for tok in _tokens(raw)), "a number list")
_INTEGERS = (lambda raw: tuple(int(tok) for tok in _tokens(raw)), "an integer list")

#: every key of a [coop] section: the CoopConfig fields
_COOP_KEYS = {
    "users": _INTEGER, "far_rank": _INTEGER, "near_rank": _INTEGER,
    "power_far": _NUMBER, "power_near": _NUMBER, "rate_far": _NUMBER,
    "rate_near": _NUMBER, "relay_gain": _NUMBER, "mu": _INTEGER,
    "omega_sd": _NUMBER, "omega_sr": _NUMBER, "omega_rd": _NUMBER,
}
#: every key of a [direct] section: the DirectConfig fields
_DIRECT_KEYS = {
    "power": _NUMBERS, "rates": _NUMBERS, "omega": _NUMBERS,
    "mu": _INTEGER, "ranks": _INTEGERS, "pool": _INTEGER,
}


def _read_section(section, keys: dict, cls: type, where: str) -> dict:
    """Parsed values of ``section`` by key; every key must be in ``keys``
    and every field of ``cls`` without a default must be given."""
    unknown = set(section.keys()) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for field in fields(cls):
        if field.default is MISSING and field.name not in section:
            raise ConfigError(f"{where}: missing required key '{field.name}'")
    kwargs = {}
    for key, raw in section.items():
        parse, what = keys[key]
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: key '{key}' is not {what}: {raw}") from exc
    return kwargs


def load_config_text(text: str, source: str) -> dict[str, CoopConfig | DirectConfig]:
    """Parse INI text with [coop] and/or [direct] sections into configs.

    Returns a dict keyed by scenario name.  Raises :class:`ConfigError`
    naming ``source`` plus the offending section/key for malformed input.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from exc
    known = {"coop", "direct"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(
            f"{source}: unknown sections {sorted(unknown)} (expected [coop]/[direct])"
        )
    out: dict[str, CoopConfig | DirectConfig] = {}
    for name, keys, cls in (("coop", _COOP_KEYS, CoopConfig),
                            ("direct", _DIRECT_KEYS, DirectConfig)):
        if parser.has_section(name):
            out[name] = cls(**_read_section(parser[name], keys, cls, f"{source} [{name}]"))
    if not out:
        raise ConfigError(f"{source}: no [coop] or [direct] section found")
    return out


def load_config_file(path: str | Path) -> dict[str, CoopConfig | DirectConfig]:
    """Parse an INI file with optional [coop] and [direct] sections."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return load_config_text(text, str(path))


def with_mu(cfg: CoopConfig | DirectConfig, mu: int):
    """Copy of ``cfg`` with the fading severity replaced."""
    return replace(cfg, mu=mu)
