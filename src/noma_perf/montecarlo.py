"""Monte Carlo outage estimation, independent of the closed-form layer.

Estimators replay the decoding chain on sampled channel gains and count
failures.  The chain is the SIC stage table of ``analytic.sic_stages``,
the one statement of the decode rule that the closed form also inverts
into gain cuts; here it decides, by :func:`user_failures`, what the float
SINR comparisons of that table decide.  Each served user runs the chain up
to its decode depth on each of its branches (its direct gain and, with a
relay, the relay's effective gain) and fails where every branch fails.
The replay first settles each trial against a gain bracket per user and
SNR point (:func:`gain_bounds`), derived here from the stage table with
exact rational arithmetic and a rounding-error bound on the float SINR,
and runs the SINR chain itself only on the few trials inside a bracket.
Nothing else of the analytic layer is shared: no cut, CDF or relay closed
form.  The tests label every trial a second time from the decode cuts of
``analytic.point_links`` and check that both routes agree trial by
trial, check the bracket against the dense chain at gains ulps from each
bound, and pin the table itself with hand-computed SINRs.

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
gives the values ``np.sort`` gives.  The bracket of each config is
computed once per call; the replay writes each tile's failure rows into
(points, tile) buffers that a block worker allocates once and counts the
failures of each row by a popcount; a trial fails unless every SINR it
needs reaches its threshold, so a NaN SINR fails.  Before
any draw, a config whose bounded gains (``GAIN_BOUND`` times their
means) could overflow a simulated SINR is rejected with a
``ConfigError``.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
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
    "GainBounds",
    "ReplayScratch",
    "TILE_TRIALS",
    "TrialBatch",
    "UnitDraw",
    "branch_gains",
    "draw_block",
    "estimate_outage",
    "gain_bounds",
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


class _UserEstimates(dict):
    """Estimates of one SNR point keyed by served user.  As for
    ``analytic.user_outage``, a user matches in type and value: a lookup
    by another spelling (``True`` for 1, ``2.0`` for 2, ``"2"``) raises
    ``ValueError``, and such a key is not ``in`` the point."""

    def __contains__(self, user) -> bool:
        return any(type(user) is type(served) and user == served for served in self)

    def __getitem__(self, user):
        if user not in self:
            raise ValueError(f"user must be one of {tuple(self)}, got {user!r}")
        return super().__getitem__(user)

    def get(self, user, default=None):
        return self[user] if user in self else default


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

# The replay's bracket lies at gamma * (1 -/+ eta) around each stage
# threshold gamma, eta = 1 / _ETA_INVERSE = 1e-9 exactly.
_ETA_INVERSE = 10**9


class GainBounds(NamedTuple):
    """Gain bracket of a config's stage chain at a set of SNR points.

    ``lo`` and ``hi`` have shape (users, *rho shape), one bracket per
    served user at its decode depth and SNR point.  A branch gain in
    [0, ``cap``] below ``lo`` fails the chain, one at or above ``hi``
    passes it; a gain in between, negative, above ``cap`` or NaN is
    decided by the chain itself.
    """

    lo: np.ndarray
    hi: np.ndarray
    cap: float


def _rounded(x, up: bool) -> float:
    """Fraction ``x`` rounded to a float toward +inf (``up``) or toward -inf."""
    try:
        f = float(x)  # int / int division, rounded to nearest
    except OverflowError:
        return math.inf if up else sys.float_info.max
    # a Fraction compares with a float exactly
    if up and x > f:
        return math.nextafter(f, math.inf)
    if not up and x < f:
        return math.nextafter(f, -math.inf)
    return f


def _stage_bounds(power: float, residual: float, gamma: float, rho: float) -> tuple[float, float]:
    """(lo, hi) of one stage at ``rho``: a gain in [0, cap] below lo has a
    float SINR below ``gamma``, one at or above hi a float SINR at or
    above it.

    The real SINR S(g) = g p rho / (g r rho + 1) rises strictly from 0
    toward p / r, with d ln S / d ln g = 1 / (1 + g r rho) in (0, 1], and
    reaches a level L at g = L / (rho (p - L r)), never where p - L r <= 0.
    lo and hi are the exact gains of the levels gamma (1 -/+ eta), in
    rational arithmetic, rounded outward; since S grows no faster than g,
    they lie at least 2 eta apart in ln g.  The float SINR s of
    ``_stage_passes`` takes 6 roundings (two products, two more and a sum
    in the denominator, the quotient), each x (1 + d) + e with
    |d| <= 2**-53 and |e| <= 2**-1075.  The denominator is at least 1, so
    its absolute errors are relative ones, and for any gain in [0, cap]
    (no product overflows)
        |s - S(g)| <= 2**-49 S(g) + (rho + 2) 2**-1074.
    Where the absolute term is at most gamma eta / 2, that is where
    gamma / (rho + 2) >= 9.9e-315 (tested at 1e-313 in floats), a gain
    below lo has S < gamma (1 - eta), so s < gamma, and one at or above hi
    has S >= gamma (1 + eta), so s >= gamma.  Elsewhere, and where rho is
    not finite and positive, the stage settles nothing: (0, inf).
    gamma = 0 passes every gain (s >= 0), and gamma = inf fails every
    finite SINR.
    """
    if not 0.0 < rho < math.inf:
        return 0.0, math.inf
    if gamma == 0.0 or gamma == math.inf:
        return gamma, gamma
    if gamma / (rho + 2.0) < 1e-313:
        return 0.0, math.inf
    # imported here, as in analytic, so that importing the package stays light
    from fractions import Fraction

    p, r, g, x = Fraction(power), Fraction(residual), Fraction(gamma), Fraction(rho)
    eta = Fraction(1, _ETA_INVERSE)
    bounds = []
    for level, up in ((g * (1 - eta), False), (g * (1 + eta), True)):
        headroom = p - level * r
        bounds.append(_rounded(level / (x * headroom), up) if headroom > 0 else math.inf)
    return bounds[0], bounds[1]


def gain_bounds(cfg: ScenarioConfig, rho) -> GainBounds:
    """The :class:`GainBounds` of ``cfg`` at ``rho``, a scalar or an array
    of SNR points, from ``analytic.sic_stages`` alone.

    A user at depth k fails below the largest lo of stages 1..k (that
    stage fails) and passes at or above the largest hi (every stage
    passes).  ``cap`` keeps every product of the chain finite at the
    largest rho: a gain above it goes to the chain.
    """
    stages = sic_stages(cfg)
    rho = np.asarray(rho, dtype=float)
    table = np.array([[_stage_bounds(power, residual, gamma, point)
                       for power, residual, gamma in stages]
                      for point in rho.ravel().tolist()]).reshape(-1, len(stages), 2)
    # (points, stages, lo/hi) -> (lo/hi, users, *rho shape)
    lo, hi = np.maximum.accumulate(table, axis=1).T.reshape(2, len(stages), *rho.shape)
    scale = max(max(power, residual) for power, residual, _ in stages)
    top = float(rho.max()) if rho.size else 1.0
    cap = sys.float_info.max / 4.0 / scale / max(top, 1.0) if 0.0 < top < math.inf else 0.0
    return GainBounds(lo, hi, cap)


class ReplayScratch(NamedTuple):
    """Work array of one SINR replay, of the replay's result shape: the
    trials inside a user's bracket (bool).  A block worker allocates one
    per block and reuses it for every tile and config."""

    band: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "ReplayScratch":
        return cls(np.empty(shape, dtype=bool))


def _stage_passes(gain: np.ndarray, stages: Sequence[tuple], rho: np.ndarray) -> np.ndarray:
    """Where ``gain`` reaches every one of ``stages`` at ``rho`` (an array
    of its shape): a SINR at or above its threshold, so a NaN SINR
    reaches none."""
    passes = np.ones(np.shape(gain), dtype=bool)
    for power, residual, gamma in stages:
        sinr = gain * power * rho
        if residual:
            # with no residual the denominator is exactly 1, so skip it
            sinr = sinr / (gain * residual * rho + 1.0)
        passes &= sinr >= gamma
    return passes


def user_failures(draw: Sequence[tuple], cfg: ScenarioConfig, rho, out=None,
                  scratch: ReplayScratch | None = None,
                  bounds: GainBounds | None = None) -> np.ndarray:
    """Failures of the served users, in served order, from the SINR chain.

    ``draw`` holds one tuple of branch gains per served user, as
    :func:`branch_gains` returns for ``cfg``.  The user at position k
    (1-based) runs the stage chain to depth k, its decode depth, on each
    of its branches: stage i of ``analytic.sic_stages`` gives a branch of
    power gain g the SINR g * power * rho / (g * residual * rho + 1), and
    the branch passes only where that SINR reaches the stage threshold at
    each of the first k stages, so a NaN SINR fails.  The user is served
    by selection and fails only where every branch fails.

    The chain is settled by the user's bracket (``bounds``, from
    :func:`gain_bounds`; computed here when not given): the user passes
    where its best branch gain is at or above ``hi`` and fails where that
    gain is below ``lo``.  The trials in between, a band of about
    2e-9 p / (p - gamma r) in relative gain around the decode cut, and
    every trial with a branch gain that is negative, NaN or above ``cap``,
    are gathered and run the chain itself, products taken left to right,
    ``(g * power) * rho`` and ``(g * residual) * rho + 1.0``, so every
    label is the chain's, bit for bit.  ``rho`` is a scalar or a column
    of shape (points, 1); a column gives one row per SNR point, and each
    row equals the scalar call at its rho.  Returns a bool array of shape
    (users, *result shape), row k - 1 for the user at position k: ``out``
    when given, with the band in ``scratch`` (of the result shape), both
    allocated otherwise.  A draw of more users than ``cfg`` serves raises
    ``ValueError``.
    """
    stages = sic_stages(cfg)
    if len(draw) > len(stages):
        raise ValueError(f"the draw holds {len(draw)} users, cfg serves {len(stages)}")
    bounds = gain_bounds(cfg, rho) if bounds is None else bounds
    if out is None or scratch is None:
        shape = np.broadcast_shapes(np.shape(draw[0][0]), np.shape(rho))
        out = np.empty((len(draw), *shape), dtype=bool) if out is None else out
        scratch = ReplayScratch.empty(shape) if scratch is None else scratch
    band = scratch.band
    for depth, (branches, fail, lo, hi) in enumerate(zip(draw, out, bounds.lo, bounds.hi), 1):
        # the user passes where its best branch does
        best = branches[0] if len(branches) == 1 else reduce(np.maximum, branches)
        # fail where not (best >= hi): best < hi would read a NaN as a pass
        np.greater_equal(best, hi, out=fail)
        np.logical_not(fail, out=fail)
        np.greater_equal(best, lo, out=band)
        band &= fail
        # a trial with a gain below 0 or past cap, or a NaN gain (np.maximum
        # and max carry it, and it fails both tests), goes to the chain at
        # every point
        if not (best.max(initial=0.0) <= bounds.cap
                and all(gain.min(initial=0.0) >= 0.0 for gain in branches)):
            for gain in branches:
                band |= ~((gain >= 0.0) & (gain <= bounds.cap))
        if band.any():
            at = np.nonzero(band)
            rho_at = np.broadcast_to(rho, band.shape)[at]
            passes = [_stage_passes(np.broadcast_to(gain, band.shape)[at], stages[:depth], rho_at)
                      for gain in branches]
            fail[at] = ~reduce(np.logical_or, passes)
    return out


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
    :class:`Estimate`; looking up a user by another spelling (``True``,
    ``2.0``, ``"2"``) raises ``ValueError``.  Each block draws once per
    group of configs that share ``(mu, pool)`` and replays the SINR chain
    of every config of the group, tile by tile, at every rho at once,
    against brackets computed once per call.  Every config reads
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
    bounds = [gain_bounds(cfg, rho_col) for cfg in cfgs]
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
                                         fails[:len(branches), :, :k], work, bounds[i])
                    counts[edges[i]:edges[i + 1]] += _row_counts(fail)
        return counts.T

    counts = _run_blocks(batch, block)
    return [
        [_UserEstimates((user, Estimate.from_count(int(c), batch.trials))
                        for user, c in zip(names, row[edges[i]:]))
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
