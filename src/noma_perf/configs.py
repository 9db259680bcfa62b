"""Scenario configuration container, canonical presets, and INI loading.

One frozen dataclass, ``ScenarioConfig``, describes both deployments of
the paper.  Each serves ordered users by superposition coding with
successive interference cancellation: the served users sit at sort
positions ``ranks`` of a pool of ``pool`` i.i.d. direct links, user m
with power fraction ``power[m]``, target rate ``rates[m]`` and mean
direct-link gain ``omega[m]``.  Without a relay this is the single-slot
M-user system, users 1..M.  With the three relay fields (``relay_gain``
G, whose noise constant 1/G**2 is derived, the source-relay mean
``omega_sr`` and the relay-user mean ``omega_rd``) a fixed-gain
amplify-and-forward relay repeats the superposed signal in a second
time slot, and exactly two users are served, reported as far and near.

Every setting has one spelling.  Configs are validated on construction;
the CLI builds them from INI files whose section keys are exactly the
dataclass fields, read through one table of their parsers: a ``[coop]``
section is a ``[direct]`` section plus the three relay keys, so any
other key is an "unknown keys" error.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

__all__ = [
    "ConfigError",
    "MAX_RELAY_MU",
    "ScenarioConfig",
    "coop_preset",
    "direct_preset",
    "load_config_file",
    "load_config_text",
    "preset_configs",
    "with_mu",
]

_POWER_SUM_TOL = 1e-9

#: largest fading severity a relay config accepts.  Just below its
#: deep-branch switch the relay closed form agrees with the quadrature
#: oracle to 3e-11 and takes at most 10 s from a cold cache up to mu = 40
#: (relay gains 0.001 to 3); the cold cost grows past that, to 11-14 s
#: at mu = 44 and minutes from about mu = 100
MAX_RELAY_MU = 40

#: the fields a relay config sets and a config without one leaves None
_RELAY_FIELDS = ("relay_gain", "omega_sr", "omega_rd")


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


@dataclass(frozen=True)
class ScenarioConfig:
    """NOMA downlink over Nakagami-m fading, with or without a fixed-gain relay.

    Attributes
    ----------
    power : tuple of float
        Power fractions per served user, strictly descending, summing
        to 1.  User 1 gets the most power and is decoded first.
    rates : tuple of float
        Target rates in bit/s/Hz per served user, finite and >= 0.  Zero
        makes that user's outage trivially zero.  The relay's two-slot
        protocol doubles the SNR thresholds relative to one slot.
    omega : tuple of float
        Mean direct-link power gain per served user (statistically
        ordered users have ascending means, but any positive values are
        accepted).
    mu : int
        Integer fading severity shared by all links; at most
        ``MAX_RELAY_MU`` with a relay.
    ranks : tuple of int or None
        Ascending 1-based sort positions of the served users inside a
        pool of ``pool`` i.i.d. links.  Default: users 1..M of a pool of
        size M, which is the fully loaded system.
    pool : int or None
        Sorted pool size; defaults to ``max(ranks)`` (``len(power)``
        with default ranks).
    relay_gain : float or None
        Fixed amplification factor G of the relay; the noise it forwards
        is scaled by ``noise_scale`` = 1 / G**2, which must be finite
        and > 0.
    omega_sr, omega_rd : float or None
        Mean gains of the source-relay hop and the relay-user hops.

    The three relay fields are given together or not at all.  A relay
    config serves exactly two users, reported as ``'far'`` and
    ``'near'``; one without serves users 1..M in a single slot.
    """

    power: tuple[float, ...]
    rates: tuple[float, ...]
    omega: tuple[float, ...]
    mu: int = 1
    ranks: tuple[int, ...] | None = None
    pool: int | None = None
    relay_gain: float | None = None
    omega_sr: float | None = None
    omega_rd: float | None = None

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
            if not (math.isfinite(r) and r >= 0):
                raise ConfigError(f"rates[{i}] must be finite and >= 0, got {r!r}")
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
        given = [name for name in _RELAY_FIELDS if getattr(self, name) is not None]
        if given:
            self._check_relay(given)

    def _check_relay(self, given: list[str]) -> None:
        if len(given) != len(_RELAY_FIELDS):
            raise ConfigError(
                f"relay_gain, omega_sr and omega_rd must be given together, got only {given}"
            )
        if len(self.power) != 2:
            raise ConfigError(
                f"a relay config serves exactly two users, got {len(self.power)}"
            )
        for name in _RELAY_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
            _check_positive(name, getattr(self, name))
        square = self.relay_gain * self.relay_gain
        if not (square > 0 and 0 < 1.0 / square < math.inf):
            raise ConfigError(
                f"relay_gain must give a finite noise constant 1/relay_gain**2 > 0, "
                f"got relay_gain = {self.relay_gain}"
            )
        if self.mu > MAX_RELAY_MU:
            raise ConfigError(f"mu must be <= {MAX_RELAY_MU} with a relay, got {self.mu}")

    @property
    def has_relay(self) -> bool:
        """Whether a fixed-gain relay serves the (two) users in a second slot."""
        return self.relay_gain is not None

    @property
    def n_users(self) -> int:
        """Number of served users M."""
        return len(self.power)

    @property
    def noise_scale(self) -> float | None:
        """Relay noise constant 1 / relay_gain**2, None without a relay."""
        if self.relay_gain is None:
            return None
        return 1.0 / (self.relay_gain * self.relay_gain)


# =====================================================================
# Canonical presets (committed INI files are the source of truth)
# =====================================================================

def preset_configs(name: str) -> dict[str, ScenarioConfig]:
    """Load a committed preset file by name ('coop', 'direct', 'comparison')."""
    from importlib import resources

    filename = name if name.endswith(".ini") else f"{name}.ini"
    try:
        text = resources.files("noma_perf").joinpath(f"presets/{filename}").read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"no such preset: {name}") from exc
    return load_config_text(text, f"preset {filename}")


def coop_preset(mu: int = 1) -> ScenarioConfig:
    """Reference relay setup: pool of 5, weakest and strongest served.

    Far/near power split 0.8/0.2, target rates 1 and 1.5 bit/s/Hz, unit
    direct-link means, relay gain 0.9, relay halfway along a unit path
    with square-law pathloss (both hop means equal 4).
    """
    return with_mu(preset_configs("coop")["coop"], mu)


def direct_preset(mu: int = 1) -> ScenarioConfig:
    """Reference single-slot setup: three users, ascending link quality.

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

#: every key of a scenario section: the ScenarioConfig fields
_KEYS = {
    "power": _NUMBERS, "rates": _NUMBERS, "omega": _NUMBERS,
    "mu": _INTEGER, "ranks": _INTEGERS, "pool": _INTEGER,
    "relay_gain": _NUMBER, "omega_sr": _NUMBER, "omega_rd": _NUMBER,
}


def _read_section(section, relay: bool, where: str) -> dict:
    """Parsed values of ``section`` by key.  A [coop] section (``relay``)
    takes every key of ``_KEYS`` and a [direct] section every key but the
    relay fields; both must give each field without a default, and
    [coop] also the relay fields."""
    keys = [key for key in _KEYS if relay or key not in _RELAY_FIELDS]
    unknown = set(section.keys()) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for field in fields(ScenarioConfig):
        required = field.default is MISSING or (relay and field.name in _RELAY_FIELDS)
        if required and field.name not in section:
            raise ConfigError(f"{where}: missing required key '{field.name}'")
    kwargs = {}
    for key, raw in section.items():
        parse, what = _KEYS[key]
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: key '{key}' is not {what}: {raw}") from exc
    return kwargs


def load_config_text(text: str, source: str) -> dict[str, ScenarioConfig]:
    """Parse INI text with [coop] and/or [direct] sections into configs.

    Returns a dict keyed by scenario name: the [coop] config has the
    relay, the [direct] one has none.  Raises :class:`ConfigError`
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
    out: dict[str, ScenarioConfig] = {}
    for name in ("coop", "direct"):
        if parser.has_section(name):
            out[name] = ScenarioConfig(
                **_read_section(parser[name], name == "coop", f"{source} [{name}]"))
    if not out:
        raise ConfigError(f"{source}: no [coop] or [direct] section found")
    return out


def load_config_file(path: str | Path) -> dict[str, ScenarioConfig]:
    """Parse an INI file with optional [coop] and [direct] sections."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return load_config_text(text, str(path))


def with_mu(cfg: ScenarioConfig, mu: int) -> ScenarioConfig:
    """Copy of ``cfg`` with the fading severity replaced."""
    return replace(cfg, mu=mu)
