"""Monte Carlo outage estimation, independent of the closed-form layer.

Estimators replay the decoding chain on sampled channel gains and count
failures.  The chain is the SIC stage table of ``analytic.sic_stages``,
the one statement of the decode rule that the closed form also inverts
into gain cuts; here it is evaluated forward, as SINR comparisons, by
one stage test (:func:`stage_failures`).  Each served user runs it on
each of its branches (its direct gain and, with a relay, the relay's
effective gain) and fails where every branch fails.  Nothing else of
the analytic layer is shared: no cut, CDF or relay closed form.
The tests label every trial a second time from the decode cuts of
``analytic.point_links`` and check that both routes agree trial by
trial, and pin the table itself with hand-computed SINRs.

Reproducibility contract: trials are split into fixed-size blocks; block
j of a run draws from a generator seeded with (seed, spawn_key=(j,)),
and per-block failure counts are integers summed in any order.  The
estimate therefore depends only on (seed, trials, rho), not on how blocks
are distributed over worker threads nor on which other points or users
the same call replays, and repeated runs are bit-identical.
``TrialBatch.chunks`` is the worker-thread count, capped by the CPU
count and the number of blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .analytic import _check_rho, decode_depth, served_users, sic_stages
from .configs import ScenarioConfig
from .fading import FadingParams, sample_gain, sample_sorted_gains

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "TrialBatch",
    "coop_events_from_sinr",
    "direct_events_from_sinr",
    "draw_block",
    "draw_coop_block",
    "estimate_outage",
    "estimate_outage_coop",
    "estimate_outage_direct",
    "stage_failures",
    "user_failures",
]

# Trials per RNG block.  Fixed so that the mapping trial -> random draw
# depends only on (seed, trials); never change without a major release.
BLOCK_TRIALS = 1 << 18


# =====================================================================
# Containers
# =====================================================================

@dataclass(frozen=True)
class TrialBatch:
    """Size, seed, and parallelism request of one Monte Carlo run.

    ``chunks`` only controls how blocks are distributed over worker
    threads; it never changes the estimate.
    """

    trials: int
    seed: int
    chunks: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.chunks, int) or self.chunks < 1:
            raise ValueError(f"chunks must be an integer >= 1, got {self.chunks!r}")


@dataclass(frozen=True)
class Estimate:
    """Empirical outage probability with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int

    @classmethod
    def from_count(cls, failures: int, trials: int) -> "Estimate":
        p = failures / trials
        return cls(p_hat=p, stderr=math.sqrt(p * (1.0 - p) / trials), trials=trials)


# =====================================================================
# Sampling
# =====================================================================

def _served_gains(cfg: ScenarioConfig, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Direct-link gains of each served user over ``n`` trials.

    The pool is drawn once at unit scale (omega / mu == 1.0, so the sums
    are not rescaled) and each user's column is scaled afterwards.
    Sorting commutes with a positive scale and rounding is monotone, so
    this equals sorting a pool drawn at the user's own mean, bit for bit.
    """
    pool = sample_sorted_gains(FadingParams(cfg.mu, float(cfg.mu)), cfg.pool, rng, size=n)
    return [pool[:, rank - 1] * (omega / cfg.mu) for rank, omega in zip(cfg.ranks, cfg.omega)]


def draw_block(cfg: ScenarioConfig, rng: np.random.Generator, n: int) -> list[tuple]:
    """Sample ``n`` trials of the branch gains of every served user of ``cfg``.

    Returns one tuple per served user, in served order, of arrays of shape
    (n,): ``(direct,)`` without a relay, ``(direct, relay)`` with one.
    Draw order is fixed (direct pool, relay feed y, then one relay-to-user
    w per served user) and is part of the reproducibility contract.  The
    fixed-gain relay rebroadcasts its noisy slot-1 observation, so the
    second-hop SINR y * w * power * rho / (y * w * residual * rho + w + c)
    is the stage SINR at the effective gain y * w / (w + c), with c the
    config's ``noise_scale``; each user's effective gain is stored once
    per block, as no SNR point changes it.
    """
    direct = _served_gains(cfg, rng, n)
    if not cfg.has_relay:
        return [(gain,) for gain in direct]
    y = sample_gain(FadingParams(cfg.mu, cfg.omega_sr), rng, size=n)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    c = cfg.noise_scale
    return [(gain, y * w / (w + c))
            for gain, w in zip(direct, (sample_gain(drop, rng, size=n) for _ in direct))]


# =====================================================================
# SINR replay
# =====================================================================

def stage_failures(gain, cfg: ScenarioConfig, rho: float, depth: int):
    """True where a branch of power gain ``gain`` misses a SIC stage up to ``depth``.

    Stage i of ``analytic.sic_stages`` gives the branch the SINR
    gain * power * rho / (gain * residual * rho + 1); a trial fails when
    that SINR is below the stage threshold at any of the first ``depth``
    stages.
    """
    stages = sic_stages(cfg)
    if not 1 <= depth <= len(stages):
        raise ValueError(f"depth must be in [1, {len(stages)}], got {depth}")
    gain = np.asarray(gain, dtype=float)
    fail = None
    for power, residual, gamma in stages[:depth]:
        sinr = gain * power * rho
        if residual:
            # with no residual the denominator is exactly 1, so skip it
            sinr /= gain * residual * rho + 1.0
        miss = sinr < gamma
        fail = miss if fail is None else fail | miss
    return fail


def user_failures(draw: Sequence[tuple], cfg: ScenarioConfig, rho: float) -> tuple:
    """Failure arrays of the served users, in served order, from the SINR chain.

    ``draw`` holds one tuple of branch gains per served user, as
    :func:`draw_block` returns for ``cfg``.  The user at position k
    (1-based) runs :func:`stage_failures` to depth k, its decode depth,
    on each of its branches; it is served by selection and fails only
    where every branch fails.
    """
    return tuple(reduce(np.logical_and, [stage_failures(g, cfg, rho, depth) for g in branches])
                 for depth, branches in enumerate(draw, 1))


#: earlier names, kept as the same objects
draw_coop_block = draw_block
coop_events_from_sinr = user_failures


def direct_events_from_sinr(gain, cfg: ScenarioConfig, rho: float, user: int):
    """Outage indicators of served user ``user`` from its SIC chain.

    ``user`` is one of ``served_users(cfg)``, an ``int`` in 1..M, as for
    :func:`~noma_perf.analytic.user_outage`; anything else raises
    ``ValueError``.
    """
    return stage_failures(gain, cfg, rho, decode_depth(cfg, user))


# =====================================================================
# Block scheduling
# =====================================================================

def _block_sizes(trials: int) -> list[int]:
    sizes = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS)
    if trials % BLOCK_TRIALS:
        sizes.append(trials % BLOCK_TRIALS)
    return sizes


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _run_blocks(batch: TrialBatch, worker: Callable[[int, int], ArrayLike]) -> np.ndarray:
    """Sum worker(block_index, block_trials) counts over all blocks.

    Counts are integers, so the sum is exact and order-independent;
    parallelism cannot change the result.
    """
    sizes = _block_sizes(batch.trials)
    workers = min(batch.chunks, os.cpu_count() or 1, len(sizes))
    if workers <= 1:
        parts = [worker(j, n) for j, n in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, range(len(sizes)), sizes))
    return np.sum(np.asarray(parts, dtype=np.int64), axis=0)


# =====================================================================
# Estimators
# =====================================================================

def _block(cfg: ScenarioConfig, rhos: list[float], rng: np.random.Generator, n: int) -> list:
    """Failure counts of one block per rho and served user, shape (rhos, users)."""
    draw = draw_block(cfg, rng, n)
    return [[np.count_nonzero(fail) for fail in user_failures(draw, cfg, rho)] for rho in rhos]


def estimate_outage(cfg: ScenarioConfig, rhos: Sequence[float],
                    batch: TrialBatch) -> list[dict]:
    """Outage estimates of every served user at every transmit SNR in ``rhos``.

    Returns one dict per rho, mapping each served user (``'far'``/``'near'``
    or 1..M) to its :class:`Estimate`.  Each block draws its gains once and
    replays the SINR chain for every (rho, user) point, so all points and
    users of one call see the same draws, and each estimate equals a
    one-point call at that rho.
    """
    rhos = [_check_rho(rho) for rho in rhos]
    users = served_users(cfg)
    if not rhos:
        return []
    counts = _run_blocks(batch, lambda j, n: _block(cfg, rhos, _block_rng(batch.seed, j), n))
    return [
        {user: Estimate.from_count(int(c), batch.trials) for user, c in zip(users, row)}
        for row in counts
    ]


def estimate_outage_coop(cfg: ScenarioConfig, rho: float, batch: TrialBatch
                         ) -> tuple[Estimate, Estimate]:
    """Far and near outage estimates from one shared set of draws."""
    (point,) = estimate_outage(cfg, [rho], batch)
    return point["far"], point["near"]


def estimate_outage_direct(cfg: ScenarioConfig, rho: float, user: int,
                           batch: TrialBatch) -> Estimate:
    """Outage estimate of served user ``user`` in the single-slot system.

    ``user`` follows the served-user contract of
    :func:`direct_events_from_sinr`.
    """
    decode_depth(cfg, user)  # rejects an unserved user before any draw
    return estimate_outage(cfg, [rho], batch)[0][user]
