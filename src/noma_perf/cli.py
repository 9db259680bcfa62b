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

``main`` checks the flags once and hands them to :func:`sweep_rows`
(``sweep``; ``figure``, a sweep of its preset with the OMA column on)
or to ``validation.run_validation_suite`` (``validate``).

All SNR values cross the interface in dB and are converted to linear
scale exactly once.  CSV output uses '.' decimals, 12 significant
digits, and is byte-identical for a fixed seed regardless of chunk
count or repetition.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Sequence

from .analytic import outage_oma, point_outages, served_users, throughput
from .configs import (
    ConfigError,
    ScenarioConfig,
    load_config_file,
    preset_configs,
    with_mu,
)
from .montecarlo import MAX_TRIALS, TrialBatch, estimate_outage
from .validation import ComparisonRow, run_validation_suite

__all__ = ["main"]

CSV_COLUMNS = (
    "snr_db", "scenario", "mu", "user",
    "p_exact", "p_asymptotic", "p_mc", "mc_stderr", "p_oma", "throughput",
)
REPORT_COLUMNS = (
    "snr_db", "scenario", "mu", "user",
    "p_exact", "p_oracle", "rel_err", "p_mc", "mc_stderr", "passed", "gate",
)

# figure id -> (sweep --scenario, --mu); each figure sweeps the
# scenario's committed preset file
_FIGURES = {
    "fig2": ("coop", "1"),
    "fig3": ("coop", "2,3"),
    "fig4": ("direct", "1"),
    "fig5": ("direct", "2,3"),
    "fig6": ("coop", "1,2,3"),
    "fig7": ("direct", "1,2,3"),
    "fig8": ("compare", "1"),
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
    if not 0 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be in 0..{MAX_TRIALS} (2**63 - 1), got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if chunks < 1:
        raise ConfigError(f"chunks must be >= 1, got {chunks}")


def _parse_users(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    users = tuple(raw.replace(",", " ").split())
    if not users:
        raise ConfigError("--users given but empty")
    return users


def _parse_mu_list(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        values = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--mu expects integers, got {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"--mu values must be >= 1, got {raw!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"--mu names a value more than once, got {raw!r}")
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


def _config_header(figure: str, cfgs: dict[str, ScenarioConfig]) -> list[str]:
    lines = [f"# figure = {figure}"]
    for scenario, cfg in cfgs.items():
        # a config without a relay leaves the relay fields None: not echoed
        lines += [f"# {scenario}.{key} = {_fmt_header_value(value)}"
                  for key, value in asdict(cfg).items() if value is not None]
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

def _base_configs(scenario: str, config: str | None) -> dict[str, ScenarioConfig]:
    if config is not None:
        cfgs = load_config_file(config)
    elif scenario == "compare":
        cfgs = preset_configs("comparison.ini")
    else:
        cfgs = preset_configs(f"{scenario}.ini")
    wanted = ("coop", "direct") if scenario == "compare" else (scenario,)
    missing = [s for s in wanted if s not in cfgs]
    if missing:
        raise ConfigError(f"config does not define scenario section(s): {missing}")
    return {s: cfgs[s] for s in wanted}


def _selected_users(users: tuple[str, ...] | None,
                    cfgs: dict[str, ScenarioConfig]) -> dict[str, tuple]:
    """Users each scenario emits rows for, in ``--users`` order.

    ``far``/``near`` select coop rows and integers select direct rows, so
    a compare run can mix both; a scenario that no entry names emits no
    rows.  An entry that names no served user of any scenario, or names
    one twice, is an error.
    """
    served = {scenario: served_users(cfg) for scenario, cfg in cfgs.items()}
    if users is None:
        return served
    picked: dict[str, list] = {scenario: [] for scenario in cfgs}
    seen = set()
    for token in users:
        try:
            user = int(token)
        except ValueError:
            user = token
        if user in seen:
            raise ConfigError(f"--users names a user more than once, got {users}")
        seen.add(user)
        hits = [scenario for scenario, names in served.items() if user in names]
        if not hits:
            known = [u for names in served.values() for u in names]
            raise ConfigError(
                f"--users entry {token!r} is not a served user; expected one of {known}"
            )
        for scenario in hits:
            picked[scenario].append(user)
    return {scenario: tuple(names) for scenario, names in picked.items()}


def sweep_rows(cfgs: dict[str, ScenarioConfig], grid: Sequence[float], *,
               mu_list: Sequence[int] | None = None, users: tuple[str, ...] | None = None,
               batch: TrialBatch | None = None, with_oma: bool = False) -> list[str]:
    """CSV rows (without header) of a sweep of ``cfgs`` over the dB ``grid``.

    Each config runs at every mu of ``mu_list`` (its own mu if None).
    Every served user is evaluated once over the whole grid, the
    throughput at each point is taken from those same values, and rows
    are emitted only for the ``users`` tokens select (every served user
    if None).  ``batch`` fills the Monte Carlo columns and ``with_oma``
    the OMA column.
    """
    rhos = [10.0 ** (db / 10.0) for db in grid]
    selected = _selected_users(users, cfgs)
    runs = [(scenario, with_mu(base, mu)) for scenario, base in cfgs.items()
            if selected[scenario] for mu in mu_list or (base.mu,)]
    if batch is None:
        estimates = [[dict.fromkeys(served_users(cfg))] * len(rhos) for _, cfg in runs]
    else:
        # one call: configs that share a pool share its draws
        estimates = estimate_outage([cfg for _, cfg in runs], rhos, batch)
    rows: list[str] = []
    for (scenario, cfg), run_estimates in zip(runs, estimates):
        # each served user's (exact, high-SNR) outages over the whole grid
        outages = {user: (exact.tolist(), asym.tolist()) for user, (exact, asym)
                   in zip(served_users(cfg), point_outages(cfg, rhos), strict=True)}
        omas = outage_oma(cfg, rhos).tolist() if with_oma else [None] * len(rhos)
        for k, (db, est, oma) in enumerate(zip(grid, run_estimates, omas)):
            tput = throughput(cfg, [exact[k] for exact, _ in outages.values()])
            for user in selected[scenario]:
                exact, asym = outages[user][0][k], outages[user][1][k]
                e = est[user]
                rows.append(",".join([
                    f"{db:g}", scenario, str(cfg.mu), str(user),
                    _fmt(exact), _fmt(asym),
                    _fmt(e.p_hat if e else None), _fmt(e.stderr if e else None),
                    _fmt(oma), _fmt(tput),
                ]))
    return rows


def _report_line(r: ComparisonRow) -> str:
    return ",".join([
        f"{r.snr_db:g}", r.scenario, str(r.mu), r.user,
        _fmt(r.p_exact), _fmt(r.p_oracle), _fmt(r.rel_err),
        _fmt(r.p_mc), _fmt(r.mc_stderr),
        "pass" if r.passed else "FAIL", r.gate,
    ])


# =====================================================================
# Argument parsing and dispatch
# =====================================================================

def _shared_flags() -> argparse.ArgumentParser:
    """Flags every subcommand takes; one parser per subcommand, since a
    parent's actions are shared and ``set_defaults`` would change them all."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--trials", type=int, default=0,
                        help="Monte Carlo trials per point (0 disables)")
    shared.add_argument("--seed", type=int, default=1)
    shared.add_argument("--chunks", type=int, default=1,
                        help="worker threads for Monte Carlo blocks (never changes results)")
    shared.add_argument("--out", default=None, metavar="PATH")
    return shared


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-perf",
        description="Outage and throughput analysis for cooperative and "
                    "non-cooperative NOMA over Nakagami-m fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", parents=[_shared_flags()],
                           help="evaluate an SNR sweep and emit CSV")
    sweep.add_argument("--scenario", choices=("coop", "direct", "compare"), default="coop")
    sweep.add_argument("--snr-start", type=float, default=_DEFAULT_GRID[0], metavar="DB")
    sweep.add_argument("--snr-stop", type=float, default=_DEFAULT_GRID[1], metavar="DB")
    sweep.add_argument("--snr-step", type=float, default=_DEFAULT_GRID[2], metavar="DB")
    sweep.add_argument("--mu", default=None, metavar="LIST",
                       help="comma-separated fading severities, e.g. 1,2,3 "
                            "(default: the config's own value)")
    sweep.add_argument("--users", default=None, metavar="LIST",
                       help="subset of users: far,near (coop rows) and 1,2,... (direct rows)")
    sweep.add_argument("--config", default=None, metavar="INI")
    sweep.add_argument("--oma", action="store_true",
                       help="fill the orthogonal-access baseline column")

    figure = sub.add_parser("figure", parents=[_shared_flags()],
                            help="run a committed figure preset")
    figure.add_argument("id", choices=sorted(_FIGURES), metavar="figN",
                        help="one of fig2..fig8")
    # a figure is a sweep of its preset over the default grid, OMA column on
    figure.set_defaults(snr_start=_DEFAULT_GRID[0], snr_stop=_DEFAULT_GRID[1],
                        snr_step=_DEFAULT_GRID[2], users=None, config=None, oma=True)

    validate = sub.add_parser("validate", parents=[_shared_flags()],
                              help="run the exact/oracle/simulation gate")
    validate.add_argument("--config", default=None, metavar="INI")
    validate.set_defaults(trials=1_000_000, mu=None, users=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "figure":
        args.scenario, args.mu = _FIGURES[args.id]
    failed = 0
    try:
        users = _parse_users(args.users)
        mu_list = _parse_mu_list(args.mu)
        _check_mc_flags(args.trials, args.seed, args.chunks)
        batch = TrialBatch(args.trials, args.seed, args.chunks) if args.trials > 0 else None
        if args.command == "validate":
            cfgs = (load_config_file(args.config) if args.config is not None
                    else {**preset_configs("coop.ini"), **preset_configs("direct.ini")})
            report = run_validation_suite(list(cfgs.values()), _grid(*_DEFAULT_GRID), batch)
            failed = sum(not r.passed for r in report)
            lines = [",".join(REPORT_COLUMNS), *map(_report_line, report)]
        else:
            cfgs = _base_configs(args.scenario, args.config)
            lines = _config_header(args.id, cfgs) if args.command == "figure" else []
            lines.append(",".join(CSV_COLUMNS))
            lines += sweep_rows(cfgs, _grid(args.snr_start, args.snr_stop, args.snr_step),
                                mu_list=mu_list, users=users, batch=batch,
                                with_oma=args.oma)
        _write_lines(lines, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"validation: {failed} of {len(report)} rows failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
