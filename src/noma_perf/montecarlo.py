"""Monte Carlo outage estimation, independent of the closed-form layer.

Estimators replay the decoding chain on sampled channel gains and count
failures, working directly on SINR comparisons; they share no algebra
with the analytic module beyond the SINR definitions themselves, which
makes them a meaningful cross-check.  The tests label every trial a
second time from the decode cuts of ``analytic.user_link`` and check
that both routes agree trial by trial.

Reproducibility contract: trials are split into fixed-size blocks; block
j of a run draws from a generator seeded with (seed, spawn_key=(j,)),
and per-block failure counts are integers summed in any order.  The
estimate therefore depends only on (seed, trials, rho), not on how blocks
are distributed over worker threads nor on which other points or users
the same call replays, and repeated runs are bit-identical.
The ``NOMA_PERF_THREADS`` environment variable caps worker threads.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .analytic import _check_rho, _check_user, served_users, threshold_snr
from .configs import CoopConfig, DirectConfig
from .fading import FadingParams, sample_gain, sample_sorted_gains

logger = logging.getLogger(__name__)

__all__ = [
    "BLOCK_TRIALS",
    "ChannelDraw",
    "Estimate",
    "TrialBatch",
    "coop_events_from_sinr",
    "direct_events_from_sinr",
    "draw_coop_block",
    "estimate_outage",
    "estimate_outage_coop",
    "estimate_outage_direct",
    "sinr_direct",
    "sinr_slot1",
    "sinr_slot2",
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


@dataclass(frozen=True)
class ChannelDraw:
    """One block of cooperative-scenario channel gains.

    ``direct`` holds the ascending-sorted pool of direct-link gains,
    shape (n, users); ``relay_feed`` the source-to-relay gains and
    ``relay_far`` / ``relay_near`` the relay-to-user gains, shape (n,).
    """

    direct: np.ndarray
    relay_feed: np.ndarray
    relay_far: np.ndarray
    relay_near: np.ndarray

    def __post_init__(self) -> None:
        n = self.direct.shape[0]
        if self.direct.ndim != 2:
            raise ValueError("direct must be 2-D (trials, users)")
        for name in ("relay_feed", "relay_far", "relay_near"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")


# =====================================================================
# Sampling
# =====================================================================

def draw_coop_block(cfg: CoopConfig, rng: np.random.Generator, n: int) -> ChannelDraw:
    """Sample ``n`` trials of all cooperative-scenario gains.

    Draw order is fixed (direct pool, relay feed, relay-to-far,
    relay-to-near) and is part of the reproducibility contract.
    """
    direct = sample_sorted_gains(FadingParams(cfg.mu, cfg.omega_sd), cfg.users, rng, size=n)
    relay_feed = sample_gain(FadingParams(cfg.mu, cfg.omega_sr), rng, size=n)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    relay_far = sample_gain(drop, rng, size=n)
    relay_near = sample_gain(drop, rng, size=n)
    return ChannelDraw(
        direct=direct,
        relay_feed=np.asarray(relay_feed),
        relay_far=np.asarray(relay_far),
        relay_near=np.asarray(relay_near),
    )


# =====================================================================
# SINR chains
# =====================================================================

def sinr_slot1(draw: ChannelDraw, cfg: CoopConfig, rho: float):
    """Direct-slot SINRs: far message at far user, far message at near user,
    and near message at near user after interference cancellation."""
    h_far = draw.direct[:, cfg.far_rank - 1]
    h_near = draw.direct[:, cfg.near_rank - 1]
    far_at_far = h_far * cfg.power_far * rho / (h_far * cfg.power_near * rho + 1.0)
    far_at_near = h_near * cfg.power_far * rho / (h_near * cfg.power_near * rho + 1.0)
    near_at_near = h_near * cfg.power_near * rho
    return far_at_far, far_at_near, near_at_near


def sinr_slot2(draw: ChannelDraw, cfg: CoopConfig, rho: float):
    """Relay-slot SINRs through the fixed-gain amplify-and-forward path.

    The relay rebroadcasts its noisy slot-1 observation with a fixed
    amplification, so each second-hop SINR carries the cascaded gain in
    the numerator and the forwarded noise constant in the denominator.
    """
    y = draw.relay_feed
    c = cfg.noise_scale
    w_f = draw.relay_far
    w_n = draw.relay_near
    casc_f = y * w_f
    casc_n = y * w_n
    far_at_far = casc_f * cfg.power_far * rho / (casc_f * cfg.power_near * rho + w_f + c)
    far_at_near = casc_n * cfg.power_far * rho / (casc_n * cfg.power_near * rho + w_n + c)
    near_at_near = casc_n * cfg.power_near * rho / (w_n + c)
    return far_at_far, far_at_near, near_at_near


def sinr_direct(gain, cfg: DirectConfig, rho: float, stage: int):
    """SINR of message ``stage`` (1-based) at a user with power gain ``gain``.

    Earlier messages see the residual interference of all later ones;
    the last message is decoded interference-free.
    """
    if not 1 <= stage <= cfg.n_users:
        raise ValueError(f"stage must be in [1, {cfg.n_users}], got {stage}")
    gain = np.asarray(gain, dtype=float)
    residual = math.fsum(cfg.power[stage:])
    if residual == 0.0:
        return gain * cfg.power[stage - 1] * rho
    return gain * cfg.power[stage - 1] * rho / (gain * residual * rho + 1.0)


# =====================================================================
# Outage events
# =====================================================================

def coop_events_from_sinr(draw: ChannelDraw, cfg: CoopConfig, rho: float):
    """(far_fail, near_fail) boolean arrays from raw SINR comparisons."""
    gamma_far = threshold_snr(cfg.rate_far, slots=2)
    gamma_near = threshold_snr(cfg.rate_near, slots=2)
    s1_far, s1_far_at_near, s1_near = sinr_slot1(draw, cfg, rho)
    s2_far, s2_far_at_near, s2_near = sinr_slot2(draw, cfg, rho)
    far_fail = (s1_far < gamma_far) & (s2_far < gamma_far)
    near_ok_slot1 = (s1_far_at_near >= gamma_far) & (s1_near >= gamma_near)
    near_ok_slot2 = (s2_far_at_near >= gamma_far) & (s2_near >= gamma_near)
    near_fail = ~(near_ok_slot1 | near_ok_slot2)
    return far_fail, near_fail


def direct_events_from_sinr(gain, cfg: DirectConfig, rho: float, user: int):
    """Outage indicators of served user ``user`` from its SIC chain.

    ``user`` is one of ``served_users(cfg)``, an ``int`` in 1..M, as for
    :func:`~noma_perf.analytic.user_link`; anything else raises
    ``ValueError``.
    """
    _check_user(cfg, user)
    gain = np.asarray(gain, dtype=float)
    fail = np.zeros(gain.shape, dtype=bool)
    for stage in range(1, user + 1):
        gamma = threshold_snr(cfg.rates[stage - 1], slots=1)
        fail |= sinr_direct(gain, cfg, rho, stage) < gamma
    return fail


# =====================================================================
# Block scheduling
# =====================================================================

def _thread_cap() -> int:
    raw = os.environ.get("NOMA_PERF_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        logger.warning("ignoring non-integer NOMA_PERF_THREADS=%r", raw)
        return os.cpu_count() or 1


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
    workers = min(batch.chunks, _thread_cap(), len(sizes))
    if workers <= 1:
        parts = [worker(j, n) for j, n in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, range(len(sizes)), sizes))
    return np.sum(np.asarray(parts, dtype=np.int64), axis=0)


# =====================================================================
# Estimators
# =====================================================================

def _coop_block(cfg: CoopConfig, rhos: list[float], rng: np.random.Generator,
                n: int) -> ArrayLike:
    """Far and near failure counts of one block at each rho, shape (rhos, 2)."""
    draw = draw_coop_block(cfg, rng, n)
    return [[fail.sum() for fail in coop_events_from_sinr(draw, cfg, rho)] for rho in rhos]


def _direct_block(cfg: DirectConfig, rhos: list[float], rng: np.random.Generator,
                  n: int) -> ArrayLike:
    """Failure counts of one block per rho and served user, shape (rhos, users).

    The pool is drawn once at unit scale (omega / mu == 1.0, so the sums
    are not rescaled) and each user's column is scaled afterwards.
    Sorting commutes with a positive scale and rounding is monotone, so
    this equals sorting a pool drawn at the user's own mean, bit for bit.
    """
    base = sample_sorted_gains(FadingParams(cfg.mu, float(cfg.mu)), cfg.pool, rng, size=n)
    counts = []
    for user in served_users(cfg):
        gain = base[:, cfg.ranks[user - 1] - 1] * (cfg.omega[user - 1] / cfg.mu)
        counts.append([direct_events_from_sinr(gain, cfg, rho, user).sum() for rho in rhos])
    return np.transpose(counts)


def estimate_outage(cfg: CoopConfig | DirectConfig, rhos: Sequence[float],
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
    block = _coop_block if isinstance(cfg, CoopConfig) else _direct_block
    counts = _run_blocks(batch, lambda j, n: block(cfg, rhos, _block_rng(batch.seed, j), n))
    return [
        {user: Estimate.from_count(int(c), batch.trials) for user, c in zip(users, row)}
        for row in counts
    ]


def estimate_outage_coop(cfg: CoopConfig, rho: float, batch: TrialBatch
                         ) -> tuple[Estimate, Estimate]:
    """Far and near outage estimates from one shared set of draws."""
    (point,) = estimate_outage(cfg, [rho], batch)
    return point["far"], point["near"]


def estimate_outage_direct(cfg: DirectConfig, rho: float, user: int,
                           batch: TrialBatch) -> Estimate:
    """Outage estimate of served user ``user`` in the single-slot system.

    ``user`` follows the served-user contract of
    :func:`direct_events_from_sinr`.
    """
    _check_user(cfg, user)
    return estimate_outage(cfg, [rho], batch)[0][user]
