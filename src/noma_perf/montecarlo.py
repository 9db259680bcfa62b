"""Monte Carlo outage estimation, independent of the closed-form layer.

Estimators decide the decoding chain on sampled channel gains and count
failures.  The chain is the SIC stage table of ``analytic.sic_stages``,
the one statement of the decode rule that the closed form also inverts
into gain cuts.  Stage i gives a branch of power gain g the SINR
g * power * rho / (g * residual * rho + 1), which rises with g, so it
reaches the stage threshold exactly where g reaches a cut.
:func:`gain_cuts` computes each stage's cut in rational arithmetic and
rounds it up to the least float gain whose real SINR reaches the
threshold, and :func:`user_failures` decides each user with one
comparison of its best branch gain against the largest cut up to its
decode depth.  Each served user has one branch per path (its direct
gain and, with a relay, the relay's effective gain) and fails where
every branch fails.  Nothing else of the analytic layer is shared: no
cut, CDF or relay closed form.  The tests label every trial a second
time from the decode cuts of ``analytic.point_links`` and with the float
SINR chain, check the comparison against the exact rational SINR at
gains ulps from each crossing, and pin the table itself with
hand-computed SINRs.

Reproducibility contract: trials are split into fixed-size blocks; block
j of a run draws from a generator seeded with (seed, spawn_key=(j,)),
and per-block failure counts are integers summed in any order.  Configs
of one call that share ``(mu, pool)`` share that draw: a fresh generator
per group draws the unit-scale sorted pool, then the relay hops if a
config of the group has a relay, and each config reads the prefix of
that stream it would draw alone.  The estimate therefore depends only on
(config, seed, trials, rho), not on how blocks are distributed over
worker threads, nor on which other points, users or configs the same
call decides, nor on the tile size, and repeated runs are
bit-identical.  ``TrialBatch.chunks`` is the worker-thread count, capped
by the CPUs the process may run on and the number of blocks; worker w
sums blocks w, w + workers, ..., each sized from its index, so no
schedule is built.

A block worker allocates its arrays once per call and every step after
that works in place and keeps its bits.  The worker's first draw, of the
widest group at its largest block, allocates the draw array that every
later group and block draws into: one
``fading.sample_gain``/``sample_sorted_gains`` call draws each of the
block's arrays straight into it, one gamma variate a gain (an
exponential at mu = 1, the same values), and pools of at most 5 are
sorted there by a min/max compare-exchange network, run over row chunks
that stay in cache, which gives the values ``np.sort`` gives.  Each tile
is replayed in the worker's tile rows: :func:`branch_gains` writes the
scaled direct gains and the relay gains there, with the operations and
bits of its allocating form, and configs of a group with the same direct
gains read one copy of them.  The failure rows, the best-branch row and
the counts are the worker's too, and the failures of each row are
counted by a popcount.  A tile row is 128 KiB, glibc's default mmap
threshold, so an array of that size allocated per tile would be mapped,
trimmed and faulted in again and again.  No array outlives the call,
and the cuts of each config are computed once per call.  Each numpy
call runs its loop without the GIL and takes it back at the end, so a
worker waits whenever the other holds it; ``TILE_TRIALS`` is long
enough that a block of the comparison preset is replayed in 16 tiles of
about 30 calls each, not 32.  A gain past the double range is inf and a
NaN gain fails, so no config is too large to simulate.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .analytic import _check_rho, served_users, sic_stages
from .configs import ConfigError, ScenarioConfig
from .fading import FadingParams, sample_gain, sample_sorted_gains

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "MAX_TRIALS",
    "TILE_TRIALS",
    "TrialBatch",
    "UnitDraw",
    "branch_gains",
    "draw_block",
    "estimate_outage",
    "gain_cuts",
    "user_failures",
]

# Trials per RNG block.  Fixed so that the mapping trial -> random draw
# depends only on (seed, trials); never change without a major release.
BLOCK_TRIALS = 1 << 18

# Trials per tile.  A block is replayed tile by tile into tile rows and
# (points, tile) failure rows that a worker allocates once per call.  Each
# tile costs about 30 numpy calls, and a worker waits for the GIL at the
# end of each call while the other worker holds it, so short tiles cost
# GIL handoffs; long ones leave a core's cache and hold more memory.
# Median paired time of estimate_outage on the comparison preset at 1e6
# trials (2-core Xeon, measured when each tile allocated its gains)
# against 8192-trial tiles: one worker 1.01x at 16384 and 1.05x at
# 32768, two workers 0.85x and 0.78x.  A worker's tile scratch grows with
# the tile: on the comparison preset (6 float rows and 2 users' failure rows
# at 18 points) it is 1.4 MB at 16384 trials and 2.8 MB at 32768.  No
# count depends on it.
TILE_TRIALS = 1 << 14

# Failure counts are int64, so a run holds at most this many trials.
MAX_TRIALS = 2**63 - 1


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
        if not isinstance(self.trials, int) or not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be an integer in 1..{MAX_TRIALS}, got {self.trials!r}")
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


def _draw_width(cfgs: Sequence[ScenarioConfig]) -> int:
    """Gains a trial of :func:`draw_block` holds for ``cfgs``: the pool,
    then, with a relay, the relay feed and one hop per user behind it."""
    relayed = max((len(cfg.ranks) for cfg in cfgs if cfg.has_relay), default=0)
    return cfgs[0].pool + (1 + relayed if relayed else 0)


def draw_block(cfgs: Sequence[ScenarioConfig], rng: np.random.Generator, n: int, *,
               out=None) -> UnitDraw:
    """Sample ``n`` trials of the hop gains that every config of ``cfgs`` replays.

    The configs must share ``mu`` and ``pool``.  Draw order is fixed and
    part of the reproducibility contract: the direct pool, then, when a
    config has a relay, the relay feed y and one w per user behind the
    relay (as many as the config that serves most).  Each config reads a
    prefix of that stream, the same gains it would draw alone, so one
    draw serves the whole group.  The pool and each hop are drawn (and
    the pool sorted) in place, one sampler call each, into views of one
    flat float64 array: the pool's n * pool gains first, then the hops'.
    With ``out``, a C-contiguous 1-D float64 array of at least that many
    elements, that array is ``out`` (a worker reuses one across blocks);
    without, it is allocated to fit.  Both give the same gains bit for
    bit.  :func:`branch_gains` scales the unit draw to each config.
    """
    mu, pool = cfgs[0].mu, cfgs[0].pool
    if any((cfg.mu, cfg.pool) != (mu, pool) for cfg in cfgs):
        raise ValueError("configs that share a draw must share mu and pool")
    unit = FadingParams(mu, float(mu))
    width = _draw_width(cfgs)
    if out is None:
        out = np.empty(n * width)
    direct = sample_sorted_gains(unit, pool, rng, out=out[:n * pool].reshape(n, pool))
    if width == pool:
        return UnitDraw(direct, None, ())
    hops = out[n * pool:n * width].reshape(width - pool, n)
    for hop in hops:
        sample_gain(unit, rng, out=hop)
    return UnitDraw(direct, hops[0], tuple(hops[1:]))


def _branch_rows(cfg: ScenarioConfig) -> int:
    """Rows of :func:`branch_gains`' output for ``cfg``: one direct gain
    per user, then, with a relay, the scaled feed and one relay gain per
    user."""
    users = len(cfg.ranks)
    return users + (1 + users if cfg.has_relay else 0)


def branch_gains(draw: UnitDraw, cfg: ScenarioConfig, trials: slice = slice(None), *,
                 out=None) -> list[tuple]:
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
    config's ``noise_scale``, computed as y / (1 + c / w) so that no
    product overflows where the gain itself is finite.  A gain past the
    double range is inf, and one whose hops both leave it (inf / inf)
    NaN, silently: :func:`user_failures` decides both.

    The gains are rows of one float64 array, written in place: the
    direct gains first, then, with a relay, the scaled feed y and the
    relay gains.  With ``out``, at least that many rows as long as
    ``trials``, they are rows of ``out`` (a worker reuses one per tile);
    without, the array is allocated.  Both give the same gains bit for
    bit.
    """
    pool = draw.pool[trials]
    users = len(cfg.ranks)
    if out is None:
        out = np.empty((_branch_rows(cfg), len(pool)))
    direct = out[:users]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for gain, rank, omega in zip(direct, cfg.ranks, cfg.omega):
            np.multiply(pool[:, rank - 1], omega / cfg.mu, out=gain)
        if not cfg.has_relay:
            return [(gain,) for gain in direct]
        y = np.multiply(draw.y[trials], cfg.omega_sr / cfg.mu, out=out[users])
        relay = out[users + 1:2 * users + 1]
        for gain, w in zip(relay, draw.w):
            # y / (1.0 + c / w), one operation at a time
            np.multiply(w[trials], cfg.omega_rd / cfg.mu, out=gain)
            np.divide(cfg.noise_scale, gain, out=gain)
            np.add(1.0, gain, out=gain)
            np.divide(y, gain, out=gain)
        return list(zip(direct, relay))


# =====================================================================
# Outage decision
# =====================================================================

def _stage_cut(power: float, residual: float, gamma: float, rho: float) -> float:
    """The least float gain whose real SINR g p rho / (g r rho + 1) at
    ``rho`` reaches ``gamma``: NaN where no gain does, inf where that gain
    lies past the double range.

    The SINR rises with g and reaches gamma exactly at
    g = gamma / (rho (p - gamma r)), taken in rationals and rounded up.
    gamma = 0 gives 0; gamma = inf, or no headroom (p <= gamma r), NaN.
    """
    if gamma == math.inf:
        return math.nan
    # imported here, as in analytic, so that importing the package stays light
    from fractions import Fraction

    p, r, g = Fraction(power), Fraction(residual), Fraction(gamma)
    headroom = p - g * r
    if headroom <= 0:
        return math.nan
    cut = g / (Fraction(rho) * headroom)
    try:
        nearest = float(cut)  # int / int division, rounded to nearest
    except OverflowError:
        return math.inf
    # a Fraction compares with a float exactly
    return math.nextafter(nearest, math.inf) if nearest < cut else nearest


def gain_cuts(cfg: ScenarioConfig, rho) -> np.ndarray:
    """Per-stage gain cuts of ``cfg`` at ``rho``, from ``analytic.sic_stages`` alone.

    ``rho`` is an array of SNR points of any shape (a column of them in
    :func:`estimate_outage`, a 0-d one for a single point), each finite
    and > 0.  Entry [i, ...] is the least float gain whose real SINR at
    stage i + 1 reaches its threshold at that point, of shape (stages,
    *rho shape): 0 where the threshold is 0, inf where that gain lies
    past the double range, and NaN where no gain reaches it (an infinite
    threshold, or no headroom, power <= threshold * residual).
    """
    rho = np.asarray(rho, dtype=float)
    points = [_check_rho(point) for point in rho.ravel().tolist()]
    table = [[_stage_cut(*stage, point) for point in points] for stage in sic_stages(cfg)]
    return np.array(table, dtype=float).reshape(len(table), *rho.shape)


def user_failures(draw: Sequence[tuple], cuts: np.ndarray, out=None, *, best=None) -> np.ndarray:
    """Failures of the served users, in served order, of the SIC chain.

    ``draw`` holds one tuple of branch gains per served user, as
    :func:`branch_gains` returns for a config, and ``cuts`` is that
    config's :func:`gain_cuts` table.  The user at position k (1-based)
    must clear the first k stages of ``analytic.sic_stages``, its decode
    depth, on one of its branches: stage i gives a branch of power gain g
    the SINR g * power * rho / (g * residual * rho + 1), which reaches
    the stage threshold exactly where g reaches the stage's cut.  So the
    user fails where ``not (best >= cut)``, with ``best`` the largest of
    its branch gains and ``cut`` the largest cut of stages 1..k: each
    label is the real-arithmetic SINR test of its float gains.  A NaN
    gain, or a NaN cut (a stage that no gain clears), fails; an inf gain
    passes every stage that has headroom, including one whose cut rounds
    past the largest float.  A table over a column of SNR points, shape
    (stages, points, 1), gives one row per point, each equal to the
    decision against that point's cuts alone.  Returns a bool array of
    shape (users, *the gains and a stage's cuts broadcast), row k - 1 for
    the user at position k: ``out`` when given, allocated otherwise.
    ``best``, a float64 array of one branch gain's shape, holds the best
    gain of each user of several branches in turn; it is allocated per
    user when None, with the same labels.  A draw of more users than the
    table has stages raises ``ValueError``.
    """
    if len(draw) > len(cuts):
        raise ValueError(f"the draw holds {len(draw)} users, the cut table {len(cuts)} stages")
    if out is None:
        shape = np.broadcast_shapes(np.shape(draw[0][0]), cuts.shape[1:])
        out = np.empty((len(draw), *shape), dtype=bool)
    # the maximum carries a NaN cut to every deeper user
    for branches, cut, fail in zip(draw, np.maximum.accumulate(cuts), out):
        # the maximum carries a NaN gain, and not (NaN >= cut) fails it
        top = reduce(lambda a, b: np.maximum(a, b, out=best), branches)
        np.greater_equal(top, cut, out=fail)
        np.logical_not(fail, out=fail)
    return out


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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(batch: TrialBatch,
                worker: Callable[[Iterator[tuple[int, int]]], ArrayLike]) -> np.ndarray:
    """Sum the counts of ``worker`` over the blocks of ``batch``.

    Each worker thread makes one ``worker`` call, which sums its blocks
    (block_index, block_trials) as an iterator hands them over: blocks w,
    w + workers, ..., each sized from its index, so no per-block schedule
    is built, and a worker can allocate its scratch once for all of them.
    The thread count is ``batch.chunks`` capped by the CPUs the process
    may run on and by the number of blocks.  Counts are integers, so the
    sum is exact and order-independent; parallelism cannot change the
    result.
    """
    blocks = -(-batch.trials // BLOCK_TRIALS)
    workers = min(batch.chunks, _usable_cpus(), blocks)

    def strided(first: int) -> ArrayLike:
        return worker((j, min(BLOCK_TRIALS, batch.trials - j * BLOCK_TRIALS))
                      for j in range(first, blocks, workers))

    if workers <= 1:
        return strided(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(strided, range(workers)))


def _tile_plan(cfgs: Sequence[ScenarioConfig], members: list[int]) -> tuple[list[tuple], int]:
    """How the configs ``members`` of one draw group fill a tile's rows.

    Returns ``(plan, rows)``: one ``(i, row, donor)`` per member, in the
    order a tile is filled, and the tile rows the group uses.  A member
    whose direct gains (ranks and means over ``mu``) an earlier member
    already computed, and that has no relay, reads the direct rows of
    that ``donor``; every other member writes its :func:`branch_gains`
    from tile row ``row`` on, with ``donor`` None.  Relay configs come
    first, so that a direct config of the same users finds their rows.
    """
    plan, donors, rows = [], {}, 0
    for i in sorted(members, key=lambda i: not cfgs[i].has_relay):
        cfg = cfgs[i]
        key = (cfg.ranks, tuple(omega / cfg.mu for omega in cfg.omega))
        if key in donors and not cfg.has_relay:
            plan.append((i, None, donors[key]))
            continue
        donors.setdefault(key, i)
        plan.append((i, rows, None))
        rows += _branch_rows(cfg)
    return plan, rows


# =====================================================================
# Estimators
# =====================================================================

def estimate_outage(cfgs: Sequence[ScenarioConfig], rhos: Sequence[float],
                    batch: TrialBatch) -> list[np.ndarray]:
    """Failure counts of every served user of each config at every SNR in ``rhos``.

    Returns, per config of ``cfgs`` in order, an int64 array of shape
    (users, points), rows in decode order as ``analytic.point_outages``
    returns them, each count out of ``batch.trials`` (see
    :meth:`Estimate.from_count`).  Each block draws once per group of
    configs that share ``(mu, pool)`` and decides every config of the
    group with :func:`user_failures`, tile by tile, at every rho at once,
    against cuts computed once per call.  Every config reads the stream it
    would draw alone, so each column equals a one-config, one-point call.
    A worker's first draw, of the widest group at its largest block,
    sizes the arrays it reuses for every later block: the draw, the tile
    rows, the failure rows and the counts.  A pool whose block of gains
    has no array, or no memory, raises ``ConfigError`` before any count.
    """
    rhos = [_check_rho(rho) for rho in rhos]
    users = [len(served_users(cfg)) for cfg in cfgs]
    if not (rhos and cfgs):
        return [np.zeros((n, len(rhos)), dtype=np.int64) for n in users]
    shared = defaultdict(list)
    for i, cfg in enumerate(cfgs):
        shared[cfg.mu, cfg.pool].append(i)
    # widest draw first, so that the first draw of a worker fits every later one
    groups = sorted((([cfgs[i] for i in members], *_tile_plan(cfgs, members))
                     for members in shared.values()),
                    key=lambda group: -_draw_width(group[0]))
    largest, width = min(BLOCK_TRIALS, batch.trials), _draw_width(groups[0][0])
    tile_rows = max(rows for _, _, rows in groups)
    pool = max(cfg.pool for cfg in cfgs)
    if largest * width > np.iinfo(np.intp).max // 8:  # bytes of float64 gains
        raise ConfigError(f"pool {pool} is too large to simulate: a block of {largest} "
                          f"trials would hold {largest * width} gains")
    # config i counts its users in rows edges[i]..edges[i + 1] of the table
    edges = list(accumulate(users, initial=0))
    rho_col = np.array(rhos)[:, np.newaxis]
    cuts = [gain_cuts(cfg, rho_col) for cfg in cfgs]

    def worker(blocks: Iterator[tuple[int, int]]) -> np.ndarray:
        counts = np.zeros((edges[-1], len(rhos)), dtype=np.int64)
        scratch = None
        for j, n in blocks:
            for group, plan, _ in groups:
                draw = draw_block(group, _block_rng(batch.seed, j), n, out=scratch)
                if scratch is None:
                    # the draw's own array, sized by the worker's widest, largest draw
                    scratch = draw.pool.base
                    tile = min(n, TILE_TRIALS)
                    rows = np.empty((tile_rows, tile))
                    fails = np.empty((max(users), len(rhos), tile), dtype=bool)
                    best = np.empty(tile)
                for start in range(0, n, TILE_TRIALS):
                    k = min(TILE_TRIALS, n - start)
                    trials = slice(start, start + k)
                    branches = {}
                    for i, row, donor in plan:
                        if donor is None:
                            branches[i] = branch_gains(draw, cfgs[i], trials, out=rows[row:, :k])
                        else:
                            branches[i] = [gains[:1] for gains in branches[donor]]
                        fail = user_failures(branches[i], cuts[i], fails[:users[i], :, :k],
                                             best=best[:k])
                        counts[edges[i]:edges[i + 1]] += _row_counts(fail)
        return counts

    try:
        counts = _run_blocks(batch, worker)
    except MemoryError as exc:
        raise ConfigError(f"a block of {largest} trials at pool {pool}: {exc}") from exc
    return np.split(counts, edges[1:-1])


# =====================================================================
# Names that perfbench/tracing.py:TRACED pins, bound to the functions
# whose spans they name
# =====================================================================

draw_coop_block = draw_block
coop_events_from_sinr = direct_events_from_sinr = user_failures
estimate_outage_coop = estimate_outage_direct = estimate_outage
