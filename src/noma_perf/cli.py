"""Command-line front end: SNR sweeps, figure presets, validation runs.

Three subcommands:

``sweep``
    Evaluate outage/throughput over an SNR grid for one scenario (or
    both with ``--scenario compare``) and emit one CSV row per
    (snr_db, scenario, mu, user).
``figure``
    Run a committed preset (fig2..fig8) reproducing the reference curve
    setups; the CSV is preceded by comment lines echoing every preset
    value.
``validate``
    Run the exact-vs-oracle-vs-simulation gate over the presets (or a
    user config) and exit nonzero if any row fails.

All SNR values cross the interface in dB and are converted to linear
scale exactly once.  CSV output uses '.' decimals, 12 significant
digits, and is byte-identical for a fixed seed regardless of chunk
count or repetition.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

from .analytic import (
    outage_oma,
    served_users,
    throughput,
    user_outage,
)
from .configs import (
    ConfigError,
    CoopConfig,
    DirectConfig,
    load_config_file,
    preset_configs,
    with_mu,
)
from .montecarlo import TrialBatch, estimate_outage
from .validation import run_validation_suite

logger = logging.getLogger(__name__)

__all__ = ["main"]

CSV_COLUMNS = (
    "snr_db", "scenario", "mu", "user",
    "p_exact", "p_asymptotic", "p_mc", "mc_stderr", "p_oma", "throughput",
)
REPORT_COLUMNS = (
    "snr_db", "scenario", "mu", "user",
    "p_exact", "p_oracle", "rel_err", "p_mc", "mc_stderr", "passed", "gate",
)

# figure id -> (sweep scenario, mu values); each figure sweeps the
# scenario's committed preset file
_FIGURES = {
    "fig2": ("coop", (1,)),
    "fig3": ("coop", (2, 3)),
    "fig4": ("direct", (1,)),
    "fig5": ("direct", (2, 3)),
    "fig6": ("coop", (1, 2, 3)),
    "fig7": ("direct", (1, 2, 3)),
    "fig8": ("compare", (1,)),
}

_DEFAULT_GRID = (0.0, 40.0, 5.0)
#: most points one SNR grid may have
_MAX_GRID_POINTS = 10**6


# =====================================================================
# Helpers
# =====================================================================

def _grid(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"snr grid must be finite, got {start}..{stop} step {step}")
    if step <= 0:
        raise ConfigError(f"snr-step must be > 0, got {step}")
    if stop < start:
        raise ConfigError(f"snr-stop must be >= snr-start, got {start}..{stop}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise ConfigError(
            f"snr grid {start}..{stop} step {step} has more than {_MAX_GRID_POINTS} points"
        )
    grid = [start + k * step for k in range(math.floor(span) + 1)]
    try:
        # 10**(dB/10) is monotone, so the end points bound every point
        ok = all(0.0 < 10.0 ** (db / 10.0) < math.inf for db in (grid[0], grid[-1]))
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"snr grid {start}..{stop} dB must map to a finite linear SNR > 0")
    return grid


def _check_mc_flags(trials: int, seed: int, chunks: int) -> None:
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if chunks < 1:
        raise ConfigError(f"chunks must be >= 1, got {chunks}")


def _parse_mu_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--mu expects integers, got {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"--mu values must be >= 1, got {raw!r}")
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.12g}"


def _fmt_header_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(f"{v:g}" for v in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _config_header(figure: str, cfgs: dict[str, CoopConfig | DirectConfig]) -> list[str]:
    lines = [f"# figure = {figure}"]
    for scenario in ("coop", "direct"):
        if scenario not in cfgs:
            continue
        for key, value in asdict(cfgs[scenario]).items():
            lines.append(f"# {scenario}.{key} = {_fmt_header_value(value)}")
    return lines


def _write_lines(lines: Sequence[str], out_path: str | None) -> None:
    payload = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(payload)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out_path}: {exc}") from exc


# =====================================================================
# Sweep evaluation
# =====================================================================

@dataclass(frozen=True)
class SweepSpec:
    """Everything one sweep run needs; built from CLI flags or by tests."""

    scenario: str
    snr_db: tuple[float, float, float] = _DEFAULT_GRID
    mu_list: tuple[int, ...] | None = None  # None: keep each config's own mu
    users: tuple[str, ...] | None = None
    trials: int = 0
    seed: int = 1
    chunks: int = 1
    with_oma: bool = False
    output: str | None = None
    config: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in ("coop", "direct", "compare"):
            raise ConfigError(
                f"scenario must be coop, direct, or compare, got {self.scenario!r}"
            )
        _check_mc_flags(self.trials, self.seed, self.chunks)


def _base_configs(spec: SweepSpec) -> dict[str, CoopConfig | DirectConfig]:
    if spec.config is not None:
        cfgs = load_config_file(spec.config)
    elif spec.scenario == "compare":
        cfgs = preset_configs("comparison.ini")
    else:
        name = "coop.ini" if spec.scenario == "coop" else "direct.ini"
        cfgs = preset_configs(name)
    wanted = ("coop", "direct") if spec.scenario == "compare" else (spec.scenario,)
    missing = [s for s in wanted if s not in cfgs]
    if missing:
        raise ConfigError(f"config does not define scenario section(s): {missing}")
    return {s: cfgs[s] for s in wanted}


def _selected_users(spec: SweepSpec,
                    cfgs: dict[str, CoopConfig | DirectConfig]) -> dict[str, tuple]:
    """Users each scenario emits rows for, in ``--users`` order.

    ``far``/``near`` select coop rows and integers select direct rows, so
    a compare run can mix both; a scenario that no entry names emits no
    rows.  An entry that names no served user of any scenario, or names
    one twice, is an error.
    """
    served = {scenario: served_users(cfg) for scenario, cfg in cfgs.items()}
    if spec.users is None:
        return served
    picked: dict[str, list] = {scenario: [] for scenario in cfgs}
    seen = set()
    for token in spec.users:
        try:
            user = int(token)
        except ValueError:
            user = token
        if user in seen:
            raise ConfigError(f"--users names a user more than once, got {spec.users}")
        seen.add(user)
        hits = [scenario for scenario, users in served.items() if user in users]
        if not hits:
            known = [u for users in served.values() for u in users]
            raise ConfigError(
                f"--users entry {token!r} is not a served user; expected one of {known}"
            )
        for scenario in hits:
            picked[scenario].append(user)
    return {scenario: tuple(users) for scenario, users in picked.items()}


def sweep_rows(spec: SweepSpec, cfgs: dict[str, CoopConfig | DirectConfig]) -> list[str]:
    """Evaluate the sweep on ``cfgs`` and return formatted CSV rows (without header).

    At each SNR point every served user is evaluated once, the throughput
    is taken from those same values, and rows are emitted only for the
    users ``spec.users`` selects.
    """
    grid = _grid(*spec.snr_db)
    rhos = [10.0 ** (db / 10.0) for db in grid]
    batch = TrialBatch(spec.trials, spec.seed, spec.chunks) if spec.trials > 0 else None
    selected = _selected_users(spec, cfgs)
    rows: list[str] = []
    for scenario, base in cfgs.items():
        users = selected[scenario]
        if not users:
            continue
        served = served_users(base)
        mu_values = spec.mu_list if spec.mu_list is not None else (base.mu,)
        for mu in mu_values:
            cfg = with_mu(base, mu)
            if batch is None:
                estimates = [dict.fromkeys(served)] * len(rhos)
            else:
                estimates = estimate_outage(cfg, rhos, batch)
            for db, rho, est in zip(grid, rhos, estimates):
                outages = {user: user_outage(cfg, rho, user) for user in served}
                tput = throughput(cfg, [exact for exact, _ in outages.values()])
                oma = outage_oma(cfg, rho) if spec.with_oma else None
                for user in users:
                    exact, asym = outages[user]
                    e = est[user]
                    rows.append(",".join([
                        f"{db:g}", scenario, str(mu), str(user),
                        _fmt(exact), _fmt(asym),
                        _fmt(e.p_hat if e else None), _fmt(e.stderr if e else None),
                        _fmt(oma), _fmt(tput),
                    ]))
    return rows


def cmd_sweep(spec: SweepSpec) -> int:
    rows = sweep_rows(spec, _base_configs(spec))
    _write_lines([",".join(CSV_COLUMNS), *rows], spec.output)
    return 0


def cmd_figure(figure: str, *, trials: int = 0, seed: int = 1, chunks: int = 1,
               output: str | None = None) -> int:
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; expected fig2..fig8")
    scenario, mus = _FIGURES[figure]
    spec = SweepSpec(
        scenario=scenario,
        mu_list=mus,
        trials=trials,
        seed=seed,
        chunks=chunks,
        with_oma=True,
    )
    cfgs = _base_configs(spec)
    lines = _config_header(figure, cfgs)
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(sweep_rows(spec, cfgs))
    _write_lines(lines, output)
    return 0


def cmd_validate(*, config: str | None, trials: int, seed: int, chunks: int,
                 output: str | None) -> int:
    _check_mc_flags(trials, seed, chunks)
    if config is not None:
        cfgs = list(load_config_file(config).values())
    else:
        cfgs = [preset_configs("coop.ini")["coop"], preset_configs("direct.ini")["direct"]]
    grid = _grid(*_DEFAULT_GRID)
    batch = TrialBatch(trials, seed, chunks) if trials > 0 else None
    rows = run_validation_suite(cfgs, grid, batch)
    lines = [",".join(REPORT_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            f"{r.snr_db:g}", r.scenario, str(r.mu), r.user,
            _fmt(r.p_exact), _fmt(r.p_oracle), _fmt(r.rel_err),
            _fmt(r.p_mc), _fmt(r.mc_stderr),
            "pass" if r.passed else "FAIL", r.gate,
        ]))
    _write_lines(lines, output)
    failed = sum(not r.passed for r in rows)
    if failed:
        print(f"validation: {failed} of {len(rows)} rows failed", file=sys.stderr)
        return 1
    return 0


# =====================================================================
# Argument parsing
# =====================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-perf",
        description="Outage and throughput analysis for cooperative and "
                    "non-cooperative NOMA over Nakagami-m fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate an SNR sweep and emit CSV")
    sweep.add_argument("--scenario", choices=("coop", "direct", "compare"), default="coop")
    sweep.add_argument("--snr-start", type=float, default=_DEFAULT_GRID[0], metavar="DB")
    sweep.add_argument("--snr-stop", type=float, default=_DEFAULT_GRID[1], metavar="DB")
    sweep.add_argument("--snr-step", type=float, default=_DEFAULT_GRID[2], metavar="DB")
    sweep.add_argument("--mu", default=None, metavar="LIST",
                       help="comma-separated fading severities, e.g. 1,2,3 "
                            "(default: the config's own value)")
    sweep.add_argument("--trials", type=int, default=0,
                       help="Monte Carlo trials per point (0 disables)")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--chunks", type=int, default=1,
                       help="worker chunks for Monte Carlo blocks (never changes results)")
    sweep.add_argument("--users", default=None, metavar="LIST",
                       help="subset of users: far,near (coop rows) and 1,2,... (direct rows)")
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.add_argument("--config", default=None, metavar="INI")
    sweep.add_argument("--oma", action="store_true",
                       help="fill the orthogonal-access baseline column")

    figure = sub.add_parser("figure", help="run a committed figure preset")
    figure.add_argument("id", choices=sorted(_FIGURES), metavar="figN",
                        help="one of fig2..fig8")
    figure.add_argument("--trials", type=int, default=0)
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument("--chunks", type=int, default=1)
    figure.add_argument("--out", default=None, metavar="PATH")

    validate = sub.add_parser("validate", help="run the exact/oracle/simulation gate")
    validate.add_argument("--config", default=None, metavar="INI")
    validate.add_argument("--trials", type=int, default=1_000_000)
    validate.add_argument("--seed", type=int, default=1)
    validate.add_argument("--chunks", type=int, default=1)
    validate.add_argument("--out", default=None, metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            users = None
            if args.users is not None:
                users = tuple(tok for tok in args.users.replace(",", " ").split())
                if not users:
                    raise ConfigError("--users given but empty")
            spec = SweepSpec(
                scenario=args.scenario,
                snr_db=(args.snr_start, args.snr_stop, args.snr_step),
                mu_list=tuple(_parse_mu_list(args.mu)) if args.mu is not None else None,
                users=users,
                trials=args.trials,
                seed=args.seed,
                chunks=args.chunks,
                with_oma=args.oma,
                output=args.out,
                config=args.config,
            )
            return cmd_sweep(spec)
        if args.command == "figure":
            return cmd_figure(
                args.id, trials=args.trials, seed=args.seed,
                chunks=args.chunks, output=args.out,
            )
        if args.command == "validate":
            return cmd_validate(
                config=args.config, trials=args.trials, seed=args.seed,
                chunks=args.chunks, output=args.out,
            )
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
