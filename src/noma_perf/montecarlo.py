"""Monte Carlo outage estimation, independent of the closed-form layer.

Estimators replay the decoding chain on sampled channel gains and count
failures.  The chain is the SIC stage table of ``analytic.sic_stages``,
the one statement of the decode rule that the closed form also inverts
into gain cuts; here it is evaluated forward, as SINR comparisons, by
:func:`user_failures`.  Each served user runs the chain up to its decode
depth on each of its branches (its direct gain and, with a relay, the
relay's effective gain) and fails where every branch fails.  Nothing else of
the analytic layer is shared: no cut, CDF or relay closed form.
The tests label every trial a second time from the decode cuts of
``analytic.point_links`` and check that both routes agree trial by
trial, and pin the table itself with hand-computed SINRs.

Reproducibility contract: trials are split into fixed-size blocks; block
j of a run draws from a generator seeded with (seed, spawn_key=(j,)),
and per-block failure counts are integers summed in any order.  Configs
of one call that share ``(mu, pool)`` share that draw: a fresh generator
per group draws the unit-scale sorted pool, then the relay hops if a
config of the group has a relay, and each config reads the prefix of
that stream it would draw alone.  The estimate therefore depends only on
(config, seed, trials, rho), not on how blocks are distributed over
worker threads, nor on which other points, users or configs the same
call replays, nor on the tile size of the replay, and repeated runs are
bit-identical.  ``TrialBatch.chunks`` is the worker-thread count, capped
by the CPU count and the number of blocks.

Every step of a block works in place and keeps its bits: one
``fading.sample_gain``/``sample_sorted_gains`` call draws each of the
block's arrays straight into it, one gamma variate a gain, and pools of
at most 5 are sorted there by a min/max compare-exchange network, which
gives the values ``np.sort`` gives.  The replay writes its SINRs and
stage passes into (points, tile) buffers that a block worker allocates
once, taking every product in the order of the unbuffered stage test,
and counts the failures of each row by a popcount; a trial fails unless
every SINR it needs reaches its threshold, so a NaN SINR fails.  Before
any draw, a config whose bounded gains (``GAIN_BOUND`` times their
means) could overflow a simulated SINR is rejected with a
``ConfigError``.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .analytic import _check_rho, served_users, sic_stages
from .configs import ConfigError, ScenarioConfig
from .fading import FadingParams, sample_gain, sample_sorted_gains

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "ReplayScratch",
    "TILE_TRIALS",
    "TrialBatch",
    "UnitDraw",
    "branch_gains",
    "draw_block",
    "estimate_outage",
    "user_failures",
]

# Trials per RNG block.  Fixed so that the mapping trial -> random draw
# depends only on (seed, trials); never change without a major release.
BLOCK_TRIALS = 1 << 18

# Trials per tile.  A block is replayed tile by tile into (points, tile)
# buffers that a worker allocates once per block and that stay in a
# core's cache.  No count depends on it.
TILE_TRIALS = 1 << 13

# A gain never exceeds this multiple of its mean.  numpy's
# standard_gamma(mu) / mu is largest at mu = 1 or 2.  At mu = 1 it is an
# exponential, whose ziggurat tail returns r_e - log1p(-u) with
# r_e ~ 7.697 and u at most 1 - 2**-53, so at most r_e + 53 ln 2 ~ 44.43.
# Above, Marsaglia-Tsang returns b (1 + x / sqrt(9 b))**3, b = mu - 1/3,
# for a normal x whose ziggurat tail keeps |x| < r_n + sqrt(2 * 53 ln 2)
# ~ 12.23 (r_n ~ 3.654); over mu that is 59.85 at mu = 2, 37.97 at
# mu = 3, and falls as mu grows.  The margin covers the scaling.
GAIN_BOUND = 64.0


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

class UnitDraw(NamedTuple):
    """Hop gains of one block at unit scale (mean ``mu``, so omega / mu == 1.0).

    ``pool`` is the direct pool sorted ascending, shape (n, pool); ``y``
    the relay feed, shape (n,), and ``w`` one relay-to-user gain per user
    behind the relay, shape (n,) each, or None and () when no config of
    the draw has a relay.
    """

    pool: np.ndarray
    y: np.ndarray | None
    w: tuple[np.ndarray, ...]


def draw_block(cfgs: Sequence[ScenarioConfig], rng: np.random.Generator, n: int) -> UnitDraw:
    """Sample ``n`` trials of the hop gains that every config of ``cfgs`` replays.

    The configs must share ``mu`` and ``pool``.  Draw order is fixed and
    part of the reproducibility contract: the direct pool, then, when a
    config has a relay, the relay feed y and one w per user behind the
    relay (as many as the config that serves most).  Each config reads a
    prefix of that stream, the same gains it would draw alone, so one
    draw serves the whole group.  The pool and each hop are drawn (and
    the pool sorted) in place, one sampler call each.
    :func:`branch_gains` scales the unit draw to each config.
    """
    mu, pool = cfgs[0].mu, cfgs[0].pool
    if any((cfg.mu, cfg.pool) != (mu, pool) for cfg in cfgs):
        raise ValueError("configs that share a draw must share mu and pool")
    unit = FadingParams(mu, float(mu))
    direct = sample_sorted_gains(unit, pool, rng, size=n)
    relayed = max((len(cfg.ranks) for cfg in cfgs if cfg.has_relay), default=0)
    if not relayed:
        return UnitDraw(direct, None, ())
    hops = np.empty((1 + relayed, n))
    for hop in hops:
        sample_gain(unit, rng, out=hop)
    return UnitDraw(direct, hops[0], tuple(hops[1:]))


def branch_gains(draw: UnitDraw, cfg: ScenarioConfig, trials: slice = slice(None)) -> list[tuple]:
    """Branch gains of every served user of ``cfg`` on ``trials`` of ``draw``.

    Returns one tuple per served user, in served order, of arrays over
    those trials: ``(direct,)`` without a relay, ``(direct, relay)`` with
    one.  Each unit-scale gain is scaled by its own mean over ``mu``.
    Sorting commutes with a positive scale and rounding is monotone, so
    a user's direct gain equals its column of a pool drawn at its own
    mean, bit for bit, and each hop gain equals one drawn at its mean.
    The fixed-gain relay rebroadcasts its noisy slot-1 observation, so
    the second-hop SINR y * w * power * rho / (y * w * residual * rho + w + c)
    is the stage SINR at the effective gain y * w / (w + c), with c the
    config's ``noise_scale``.
    """
    pool = draw.pool[trials]
    direct = [pool[:, rank - 1] * (omega / cfg.mu) for rank, omega in zip(cfg.ranks, cfg.omega)]
    if not cfg.has_relay:
        return [(gain,) for gain in direct]
    y = draw.y[trials] * (cfg.omega_sr / cfg.mu)
    c = cfg.noise_scale
    drops = (w[trials] * (cfg.omega_rd / cfg.mu) for w in draw.w)
    return [(gain, y * w / (w + c)) for gain, w in zip(direct, drops)]


# =====================================================================
# SINR replay
# =====================================================================

class ReplayScratch(NamedTuple):
    """Work arrays of one SINR replay, each of the replay's result shape:
    the SINR and its denominator (float), the passes of one stage and of
    one branch (bool).  A block worker allocates one set per block and
    reuses it for every tile and config."""

    sinr: np.ndarray
    denom: np.ndarray
    stage: np.ndarray
    branch: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "ReplayScratch":
        return cls(np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool),
                   np.empty(shape, dtype=bool))


def _stage_passes(gain: np.ndarray, stages: Sequence[tuple], rho, out: np.ndarray,
                  scratch: ReplayScratch) -> np.ndarray:
    """Write into ``out`` where ``gain`` reaches every one of ``stages`` at
    ``rho``: a SINR at or above its threshold, so a NaN SINR reaches none."""
    sinr, denom, stage, _ = scratch
    for i, (power, residual, gamma) in enumerate(stages):
        np.multiply(gain * power, rho, out=sinr)
        if residual:
            # with no residual the denominator is exactly 1, so skip it
            np.multiply(gain * residual, rho, out=denom)
            denom += 1.0
            sinr /= denom
        if i:
            np.greater_equal(sinr, gamma, out=stage)
            out &= stage
        else:
            np.greater_equal(sinr, gamma, out=out)
    return out


def user_failures(draw: Sequence[tuple], cfg: ScenarioConfig, rho, out=None,
                  scratch: ReplayScratch | None = None) -> np.ndarray:
    """Failures of the served users, in served order, from the SINR chain.

    ``draw`` holds one tuple of branch gains per served user, as
    :func:`branch_gains` returns for ``cfg``.  The user at position k
    (1-based) runs the stage chain to depth k, its decode depth, on each
    of its branches: stage i of ``analytic.sic_stages`` gives a branch of
    power gain g the SINR g * power * rho / (g * residual * rho + 1), and
    the branch passes only where that SINR reaches the stage threshold at
    each of the first k stages, so a NaN SINR fails.  The user is served
    by selection and fails only where every branch fails.  ``rho`` is a
    scalar or a column of shape (points, 1); a column gives one row per
    SNR point, and each row equals the scalar call at its rho: the
    products are taken left to right, ``(g * power) * rho`` and
    ``(g * residual) * rho + 1.0``, either way.  Returns a bool array of
    shape (users, *result shape), row k - 1 for the user at position k:
    ``out`` when given, with its SINR work in ``scratch`` (of the result
    shape), both allocated otherwise.  A draw of more users than ``cfg``
    serves raises ``ValueError``.
    """
    stages = sic_stages(cfg)
    if len(draw) > len(stages):
        raise ValueError(f"the draw holds {len(draw)} users, cfg serves {len(stages)}")
    if out is None or scratch is None:
        shape = np.broadcast_shapes(np.shape(draw[0][0]), np.shape(rho))
        out = np.empty((len(draw), *shape), dtype=bool) if out is None else out
        scratch = ReplayScratch.empty(shape) if scratch is None else scratch
    for depth, (branches, ok) in enumerate(zip(draw, out), 1):
        _stage_passes(branches[0], stages[:depth], rho, ok, scratch)
        for gain in branches[1:]:
            ok |= _stage_passes(gain, stages[:depth], rho, scratch.branch, scratch)
    # a user fails unless it decodes on some branch
    return np.logical_not(out, out=out)


def _check_replay_range(cfg: ScenarioConfig, rho: float) -> None:
    """Raise :class:`ConfigError` if a simulated SINR of ``cfg`` could
    overflow at transmit SNR ``rho`` (the largest of a run).

    An overflowed SINR is inf or NaN, which passes or fails a stage
    whatever the true SINR, so such a config is rejected before any draw,
    naming the mean whose bounded gains (``GAIN_BOUND`` times the mean)
    could overflow a product of :func:`branch_gains` or
    :func:`user_failures`.  Every accepted config keeps its SINRs finite,
    so a stage at threshold inf fails every trial.
    """
    means = {f"omega[{k}]": omega for k, omega in enumerate(cfg.omega, 1)}
    if cfg.has_relay:
        y, w = GAIN_BOUND * cfg.omega_sr, GAIN_BOUND * cfg.omega_rd
        if not (math.isfinite(y * w) and math.isfinite(w + cfg.noise_scale)):
            raise ConfigError(f"omega_sr = {cfg.omega_sr:g}, omega_rd = {cfg.omega_rd:g}: the "
                              f"relay's effective gain y * w / (w + c) can overflow in the "
                              f"Monte Carlo leg")
        # the effective gain never exceeds y
        means["omega_sr"] = cfg.omega_sr
    # powers descend, so stage 1 has the largest power and the largest residual
    power, residual, _ = sic_stages(cfg)[0]
    for name, mean in means.items():
        if not math.isfinite(GAIN_BOUND * mean * max(power, residual) * rho):
            raise ConfigError(f"{name} = {mean:g} is too large for the Monte Carlo leg: a "
                              f"simulated SINR can overflow at transmit SNR {rho:g}")


# =====================================================================
# Block scheduling
# =====================================================================

def _row_counts(fail: np.ndarray) -> np.ndarray:
    """Number of True entries along the last axis of bool ``fail``: a
    bool is one byte, 0 or 1, so a popcount of the bytes read 8 at a time
    counts them, and ``count_nonzero`` counts a ragged tail."""
    whole = fail.shape[-1] - fail.shape[-1] % 8
    counts = np.bitwise_count(fail[..., :whole].view(np.uint64)).sum(axis=-1, dtype=np.int64)
    if whole < fail.shape[-1]:
        counts += np.count_nonzero(fail[..., whole:], axis=-1)
    return counts


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

def estimate_outage(cfgs: Sequence[ScenarioConfig], rhos: Sequence[float],
                    batch: TrialBatch) -> list[list[dict]]:
    """Outage estimates of every served user of each config at every SNR in ``rhos``.

    Returns, per config of ``cfgs`` in order, one dict per rho mapping
    each served user (``'far'``/``'near'`` or 1..M) to its
    :class:`Estimate`.  Each block draws once per group of configs that
    share ``(mu, pool)`` and replays the SINR chain of every config of
    the group, tile by tile, at every rho at once.  Every config reads
    the stream it would draw alone, so each estimate equals a
    one-config, one-point call at that rho.
    """
    rhos = [_check_rho(rho) for rho in rhos]
    users = [served_users(cfg) for cfg in cfgs]
    if not (rhos and cfgs):
        return [[] for _ in cfgs]
    for cfg in cfgs:
        _check_replay_range(cfg, max(rhos))
    # config i counts its users in columns edges[i]..edges[i + 1] of a block's table
    edges = list(accumulate((len(names) for names in users), initial=0))
    groups = defaultdict(list)
    for i, cfg in enumerate(cfgs):
        groups[cfg.mu, cfg.pool].append(i)
    rho_col = np.array(rhos)[:, np.newaxis]
    widest = max(len(names) for names in users)

    def block(j: int, n: int) -> np.ndarray:
        counts = np.zeros((edges[-1], len(rhos)), dtype=np.int64)
        width = min(n, TILE_TRIALS)
        scratch = ReplayScratch.empty((len(rhos), width))
        fails = np.empty((widest, len(rhos), width), dtype=bool)
        for members in groups.values():
            draw = draw_block([cfgs[i] for i in members], _block_rng(batch.seed, j), n)
            for start in range(0, n, TILE_TRIALS):
                k = min(TILE_TRIALS, n - start)
                work = scratch if k == width else ReplayScratch(*(a[:, :k] for a in scratch))
                for i in members:
                    branches = branch_gains(draw, cfgs[i], slice(start, start + k))
                    fail = user_failures(branches, cfgs[i], rho_col,
                                         fails[:len(branches), :, :k], work)
                    counts[edges[i]:edges[i + 1]] += _row_counts(fail)
        return counts.T

    counts = _run_blocks(batch, block)
    return [
        [{user: Estimate.from_count(int(c), batch.trials) for user, c in zip(names, row[edges[i]:])}
         for row in counts]
        for i, names in enumerate(users)
    ]


# =====================================================================
# Names that perfbench/tracing.py:TRACED pins, bound to the functions
# whose spans they name
# =====================================================================

draw_coop_block = draw_block
coop_events_from_sinr = direct_events_from_sinr = user_failures
estimate_outage_coop = estimate_outage_direct = estimate_outage
