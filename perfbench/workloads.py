"""The three benchmark workloads: fixed inputs, one pass each, row checks.

Importing this module imports ``noma_perf``; the caller puts the
checkout's ``src`` directory on ``sys.path`` first.  Every workload
drives the package from outside, through ``noma_perf.cli.main`` or the
public library functions, and returns its output as one text blob so a
pass can be compared byte for byte with the first pass of its run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from noma_perf import (
    coop_preset,
    direct_preset,
    preset_configs,
    run_validation_suite,
    with_mu,
)
from noma_perf.cli import CSV_COLUMNS, main

#: relative tolerance of the analytic columns against the stored reference
REF_REL_TOL = 1e-9
#: Monte Carlo estimates must lie within this many standard errors
MC_SIGMAS = 5.0
#: trials per point of the mc-compare sweep
MC_TRIALS = 1_000_000

_CSV_HEADER = ",".join(CSV_COLUMNS)
# analytic CSV columns checked against the reference, by column index
ANALYTIC_COLS = (4, 5, 8, 9)  # p_exact, p_asymptotic, p_oma, throughput


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    # load(): configs the pass needs; the part of set-up that is not import
    load: Callable[[], object]
    # run(cfgs, seed, out_path) -> output text of one pass
    run: Callable[[object, int, str], str]
    # check(text, reference) -> per-row failure flags
    check: Callable[[str, list], list]
    # Monte Carlo estimates of a pass times their trials; the row check
    # fails any row without its estimate
    trial_points: int = 0


def _sweep(argv: list[str], out_path: str) -> str:
    code = main([*argv, "--out", out_path])
    if code != 0:
        raise RuntimeError(f"noma-perf {' '.join(argv)} exited {code}")
    with open(out_path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _close(value: str, ref: float) -> bool:
    v = float(value)
    return abs(v - ref) <= REF_REL_TOL * max(abs(v), abs(ref))


def _check_csv(text: str, reference: list, *, trials: int) -> list[bool]:
    """Row failures of a sweep CSV: analytic columns against the
    reference, and (with ``trials``) p_mc within MC_SIGMAS standard errors
    of p_exact, the wider of the empirical and the exact-p error as in the
    validation gate."""
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEADER or len(lines) - 1 != len(reference):
        return [True] * len(reference)
    return [_csv_row_failed(line.split(","), ref, trials)
            for line, ref in zip(lines[1:], reference)]


def _csv_row_failed(cells: list[str], ref: list, trials: int) -> bool:
    if len(cells) != len(CSV_COLUMNS) or cells[:4] != ref[:4]:
        return True
    try:
        if not all(_close(cells[c], r) for c, r in zip(ANALYTIC_COLS, ref[4:])):
            return True
        if not trials:
            return cells[6] != "" or cells[7] != ""
        exact, p_mc, stderr = float(cells[4]), float(cells[6]), float(cells[7])
        se_exact = math.sqrt(exact * (1.0 - exact) / trials)
    except ValueError:  # an empty or malformed cell, or p_exact outside [0, 1]
        return True
    return abs(p_mc - exact) > MC_SIGMAS * max(stderr, se_exact)


# ---------------------------------------------------------------------
# coop-deep: analytics only, deep into the mpmath relay branch
# ---------------------------------------------------------------------

_COOP_DEEP_ARGV = [
    "sweep", "--scenario", "coop", "--mu", "1,2,3",
    "--snr-start", "0", "--snr-stop", "60", "--snr-step", "1", "--oma",
]


def _coop_deep_run(cfgs, seed: int, out_path: str) -> str:
    return _sweep(_COOP_DEEP_ARGV, out_path)


# ---------------------------------------------------------------------
# mc-compare: 1e6-trial Monte Carlo on both deployments, 2 worker threads
# ---------------------------------------------------------------------

def _mc_seed(seed: int) -> int:
    """The workload seed as the non-negative integer ``--seed`` accepts."""
    return seed % (1 << 32)


def _mc_compare_run(cfgs, seed: int, out_path: str) -> str:
    # run.py sets NOMA_PERF_THREADS=2, so --chunks 2 gets two worker threads
    return _sweep([
        "sweep", "--scenario", "compare", "--trials", str(MC_TRIALS), "--oma",
        "--chunks", "2", "--seed", str(_mc_seed(seed)),
    ], out_path)


# ---------------------------------------------------------------------
# oracle-gate: quadrature oracles against the exact closed forms
# ---------------------------------------------------------------------

ORACLE_GRID = [float(db) for db in range(0, 61)]


def _oracle_load():
    return [cfg for m in (1, 2, 3)
            for cfg in (with_mu(coop_preset(), m), with_mu(direct_preset(), m))]


def _oracle_run(cfgs, seed: int, out_path: str) -> str:
    rows = run_validation_suite(cfgs, ORACLE_GRID, None)
    return "".join(
        ",".join(repr(v) for v in dataclasses.astuple(r)) + "\n" for r in rows
    )


def _oracle_check(text: str, reference: list) -> list[bool]:
    lines = text.splitlines()
    if len(lines) != len(reference):
        return [True] * len(reference)
    failed = []
    for line, ref in zip(lines, reference):
        # snr_db, scenario, mu, user, p_exact, p_oracle, rel_err, p_mc, mc_stderr, passed, gate
        cells = line.split(",")
        key = [repr(float(ref[0])), repr(ref[1]), repr(int(ref[2])), repr(ref[3])]
        try:
            bad = cells[:4] != key or not _close(cells[4], ref[4]) or cells[9] != "True"
        except (ValueError, IndexError):
            bad = True
        failed.append(bad)
    return failed


WORKLOADS = {
    "coop-deep": Workload(
        name="coop-deep",
        rows=366,
        load=lambda: preset_configs("coop.ini"),
        run=_coop_deep_run,
        check=lambda text, ref: _check_csv(text, ref, trials=0),
    ),
    "mc-compare": Workload(
        name="mc-compare",
        rows=36,
        load=lambda: preset_configs("comparison.ini"),
        run=_mc_compare_run,
        check=lambda text, ref: _check_csv(text, ref, trials=MC_TRIALS),
        trial_points=36 * MC_TRIALS,
    ),
    "oracle-gate": Workload(
        name="oracle-gate",
        rows=915,
        load=_oracle_load,
        run=_oracle_run,
        check=_oracle_check,
    ),
}
