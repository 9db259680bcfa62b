"""Independent numerical oracles and the exact-vs-oracle-vs-simulation gate.

The closed-form layer is checked against double-exponential quadrature
of the underlying probability integrals (``numerics``).  The oracles
share the links (``analytic.point_links``: each served user's
direct-link law, sort index and decode cut) and the density/CDF
primitives with the production code, never its Bessel-sum algebra: the
relay-branch oracle integrates the first-hop density against the
conditional second-hop CDF with the exp-sinh rule, and the ordered-CDF
oracle integrates the order-statistic density with the tanh-sinh rule.
Each oracle integrates every row of a config at once
(:func:`link_oracles`, over links whose cuts span the config's SNR
grid), in one batch over the cuts of every served user.

The relay rows run on exp-sinh nodes z scaled to each row, u = c_r * z
in the offset u past the cut, centred at c_r = sqrt(u_knee * u_decay)
between the second-hop knee u_knee = cut * noise_scale * mu / omega_rd
and the first-hop decay u_decay = omega_sr / mu, where the integrand
sits.  A row is centred only where its mass window [ln min(u_knee,
u_decay) - 45, ln max(u_knee, u_decay, cut) + ln 800] fits inside the
nodes' reach c_r * e^(+-(pi/2) sinh 4.5), and its scaled nodes stay
normal doubles.  Elsewhere centred nodes could miss part of the mass
and still converge, to a truncated value, so the row keeps the nodes in
u itself (c_r = 1): they either resolve it or fail to converge, and the
config is then rejected rather than failed.  The ordered-CDF rows each carry
their own link's law, rank and pool (``fading.ordered_pdfs``).

A refinement level evaluates the rows still refining as one (rows,
nodes) array, and each row stops when its own two levels agree to
1e-12 relative, so every value equals a one-row call bit for bit.  Both
oracles are sums of positive terms, so relative accuracy survives even
when the result is far below one.  The tests keep a second, independent
route through scipy's QUADPACK (``tests/quadpack_reference.py``).

:func:`run_validation_suite` drives the full gate: for every configured
user and SNR point it compares the exact value against its oracle, both
read from one set of links over the config's grid, at the relative tolerance
``ORACLE_REL_TOL``, and (optionally) against a Monte
Carlo estimate at ``MC_SIGMAS`` binomial standard errors wherever the
probability exceeds ``MC_PROBABILITY_FLOOR``, large enough for
simulation to resolve.  The three are fixed module constants, not
options: the gate strings of the report name the values they used.
Each config's gate is computed as (users, points) columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import Link, _user_link, link_exact, point_links, served_users
from .configs import ConfigError, ScenarioConfig
from .fading import FadingParams, OrderedIndex, gamma_cdf, gamma_pdf, ordered_pdfs
from .montecarlo import TrialBatch, estimate_outage
from .numerics import (
    EXP_SINH_HALF_WIDTH,
    QuadratureError,
    integrate_from_zero,
    integrate_semi_infinite,
)

__all__ = [
    "ComparisonRow",
    "link_oracles",
    "ordered_cdf_quadrature",
    "outage_oracle",
    "relay_outage_quadrature",
    "run_validation_suite",
]

#: largest relative error of the exact outage against its quadrature oracle
ORACLE_REL_TOL = 1e-6
#: standard errors the exact outage may differ from its Monte Carlo estimate
MC_SIGMAS = 3.0
#: probability below which a 3-sigma Monte Carlo gate is meaningless at
#: feasible trial counts, so the simulation leg is skipped
MC_PROBABILITY_FLOOR = 1e-4

#: gate strings of a row without and with the simulation leg
_ORACLE_GATE = f"rel_err<={ORACLE_REL_TOL:g}"
_MC_GATE = f"{_ORACLE_GATE} & |exact-mc|<={MC_SIGMAS:g}se"

#: log of the smallest positive (subnormal) double
_LOG_SMALLEST = math.log(5e-324)
#: the relay integrand's mass lies above its smaller feature (second-hop
#: knee or first-hop decay) divided by e^45, and below 800 times the
#: largest of those two and the cut
_MASS_BELOW = 45.0
_MASS_ABOVE = math.log(800.0)
#: the exp-sinh nodes reach e^(+-(pi/2) sinh 4.5) times their scale
_NODE_REACH = 0.5 * math.pi * math.sinh(EXP_SINH_HALF_WIDTH)
#: largest |ln c_r| whose scaled nodes all stay normal doubles
_CENTRE_LIMIT = -math.log(2.2250738585072014e-308) - _NODE_REACH


# =====================================================================
# Quadrature oracles
# =====================================================================

def _relay_scales(cfg: ScenarioConfig, cut: np.ndarray) -> np.ndarray:
    """The scale c_r of each row's relay nodes, u = c_r * z for exp-sinh nodes z.

    c_r is sqrt(u_knee * u_decay), the geometric mean of the second-hop
    knee u_knee = cut * noise_scale * mu / omega_rd and the first-hop
    decay u_decay = omega_sr / mu, where a row's integrand mass window
    [ln min(u_knee, u_decay) - 45, ln max(u_knee, u_decay, cut) + ln 800]
    fits inside the nodes' reach c_r * e^(+-(pi/2) sinh 4.5); every other
    row keeps c_r = 1, the nodes in u itself, as does a row whose scaled
    nodes would leave the normal doubles.
    """
    decay = math.log(cfg.omega_sr) - math.log(cfg.mu)
    with np.errstate(divide="ignore"):  # a product below the double range: log 0 = -inf
        knee = np.log(cut * cfg.noise_scale) + (math.log(cfg.mu) - math.log(cfg.omega_rd))
    centre = 0.5 * (knee + decay)
    low = np.minimum(knee, decay) - _MASS_BELOW
    high = np.maximum(np.maximum(knee, decay), np.log(cut)) + _MASS_ABOVE
    fits = ((low >= centre - _NODE_REACH) & (high <= centre + _NODE_REACH)
            & (np.abs(centre) <= _CENTRE_LIMIT))
    return np.exp(np.where(fits, centre, 0.0))


def _relay_outages(cfg: ScenarioConfig, cuts: np.ndarray) -> np.ndarray:
    """Relay-branch outage of relay config ``cfg`` at each of ``cuts``.

    Cut 0 gives 0 and an infinite cut 1.  The other cuts are integrated
    as one batch of exp-sinh rows, each on nodes u = c_r * z scaled to
    its own integrand (:func:`_relay_scales`); a ``QuadratureError``
    names its row as an index of ``cuts``.  A row whose first-hop CDF and
    integral both come out 0 has lost its outage to underflow at every
    node, and raises too, where a lower bound of the outage is still a
    double; where the bound is below the double range, 0 stands as the
    outage rounded.  The bound is the larger of the first-hop CDF
    F_sr(cut) and F_sr(cut + v) F_rd(cut * noise_scale / v) at v =
    sqrt(cut * noise_scale * omega_sr / omega_rd) (the branch fails when
    y - cut < v and the second hop misses), each CDF taken as P(mu, x)
    >= e^-x x^mu / mu!: with t = mu * cut / omega_sr and s = t * mu *
    noise_scale / omega_rd, the arguments are t, t + sqrt(s) and sqrt(s).
    """
    out = np.where(cuts > 0, 1.0, 0.0)
    live = np.flatnonzero((cuts > 0) & (cuts < math.inf))
    if not live.size:
        return out
    feed = FadingParams(cfg.mu, cfg.omega_sr)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    cut = cuts[live]
    scaled = cut * cfg.noise_scale
    scale = _relay_scales(cfg, cut)

    def integrand(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        c = scale[rows, None]
        u = c * z
        return c * gamma_pdf(feed, cut[rows, None] + u) * gamma_cdf(drop, scaled[rows, None] / u)

    try:
        tail = integrate_semi_infinite(integrand, np.zeros(live.size))
    except QuadratureError as exc:
        exc.row = int(live[exc.row])
        raise
    outage = gamma_cdf(feed, cut) + tail.value
    lost = np.flatnonzero(outage == 0.0)
    t = feed.rate * cut[lost]
    root = np.sqrt(t * drop.rate * cfg.noise_scale)
    with np.errstate(divide="ignore"):  # log 0 = -inf where t or s underflows
        log_bound = np.maximum(cfg.mu * np.log(t),
                               cfg.mu * (np.log(t + root) + np.log(root)) - 2.0 * root
                               - math.lgamma(cfg.mu + 1)) - t - math.lgamma(cfg.mu + 1)
    lost = lost[log_bound > _LOG_SMALLEST]
    if lost.size:
        raise QuadratureError("the integrand underflows at every node", 0.0, 0.0,
                              int(live[lost[0]]))
    out[live] = np.minimum(1.0, outage)
    return out


def relay_outage_quadrature(cfg: ScenarioConfig, cut: float) -> float:
    """Relay-branch outage of relay config ``cfg`` by direct integration.

    The branch fails when the first-hop gain y stays below ``cut`` or,
    given y > cut, when the second-hop gain misses cut * noise_scale /
    (y - cut).  The outage is the first-hop CDF at the cut plus the
    exp-sinh integral over the offset u = y - cut of the first-hop
    density at cut + u times the second-hop CDF at cut * noise_scale /
    u.  Both terms are positive, and the exp-sinh nodes resolve u
    relative to 0 rather than to the cut, from the second-hop knee at
    u ~ cut * noise_scale up to the first-hop decay at u ~ omega_sr,
    centred between the two where both fit (see :func:`_relay_scales`).
    """
    cut = float(cut)
    if math.isnan(cut) or cut < 0:
        raise ValueError(f"cut must be >= 0, got {cut}")
    return float(_relay_outages(cfg, np.array([cut]))[0])


def _ordered_cdfs(links: Sequence[Link]) -> list[np.ndarray]:
    """Ordered CDF of each link at each of its cuts (see
    :func:`ordered_cdf_quadrature`), every integrated cut of every link
    one tanh-sinh row of a single batch, under its own link's density."""
    outs, lives = [], []
    for params, idx, xs in links:
        outs.append(np.where(xs <= 0, 0.0, 1.0))
        lives.append(np.flatnonzero(~((xs <= 0) | (gamma_cdf(params, xs) == 1.0))))
    sizes = [live.size for live in lives]
    if sum(sizes):
        pdf = ordered_pdfs([(params, idx) for params, idx, _ in links])
        which = np.repeat(np.arange(len(links)), sizes)
        upper = np.concatenate([xs[live] for (_, _, xs), live in zip(links, lives)])
        value = integrate_from_zero(lambda y, rows: pdf(which[rows], y), upper).value
        for out, live, cdf in zip(outs, lives, np.split(value, np.cumsum(sizes[:-1]))):
            out[live] = np.minimum(1.0, cdf)
    return outs


def ordered_cdf_quadrature(params: FadingParams, idx: OrderedIndex, x: float) -> float:
    """Ordered CDF by tanh-sinh integration of the order-statistic density over (0, x).

    Where the plain CDF at ``x`` rounds to 1 (``x`` = inf included), the
    ordered CDF is within ``total`` * 2**-54 of 1 and is returned as 1.0:
    the density's mass then sits so far below ``x`` that the tanh-sinh
    nodes can step over it at every level and agree on 0.
    """
    return float(_ordered_cdfs([(params, idx, np.array([float(x)]))])[0][0])


def link_oracles(cfg: ScenarioConfig, links: Sequence[Link]) -> list[np.ndarray]:
    """Quadrature-only outage of each ``analytic.point_links`` entry of ``cfg``.

    The links share one SNR grid, as ``point_links`` returns them, and
    the result holds one ndarray per link, over its cuts.  The ordered
    CDF is integrated once over the cuts of every link, concatenated,
    each row under its own link's law, rank and pool, and with a relay
    the relay branch once over the same cuts.  A relay that puts the
    integrand past the exp-sinh nodes raises ``ConfigError``, naming the
    cut of the first row of that batch that fails.
    """
    direct = _ordered_cdfs(links)
    if not (cfg.has_relay and links):
        return direct
    cuts = np.concatenate([cut for _, _, cut in links])
    try:
        relay = _relay_outages(cfg, cuts)
    except QuadratureError as exc:
        raise ConfigError(
            f"the relay oracle cannot resolve omega_sr = {cfg.omega_sr:g}, omega_rd = "
            f"{cfg.omega_rd:g}, relay_gain = {cfg.relay_gain:g} at cut {cuts[exc.row]:.6g}: {exc}"
        ) from exc
    return [outage * factor for outage, factor in zip(direct, np.split(relay, len(links)))]


def outage_oracle(cfg: ScenarioConfig, rho: float, user) -> float:
    """Quadrature-only outage for one served user, no Bessel sums involved.

    The user's link comes from :func:`~noma_perf.analytic.point_links`, as
    for the exact closed form; ``user`` is one of ``served_users(cfg)``
    and anything else raises ``ValueError``.  Matches the exact closed
    forms up to quadrature error and is the reference leg of the
    validation gate; it runs :func:`link_oracles` on the one-element grid
    ``[rho]`` and returns a float.
    """
    return link_oracles(cfg, [_user_link(cfg, rho, user)])[0].item()


# =====================================================================
# Validation gate
# =====================================================================

@dataclass(frozen=True)
class ComparisonRow:
    """One gated comparison of exact, oracle, and simulated outage."""

    snr_db: float
    scenario: str
    mu: int
    user: str
    p_exact: float
    p_oracle: float
    rel_err: float
    p_mc: float
    mc_stderr: float
    passed: bool
    gate: str


def run_validation_suite(
    configs: Sequence[ScenarioConfig],
    snr_db: Sequence[float],
    batch: TrialBatch | None = None,
) -> list[ComparisonRow]:
    """Gate every configured user at every SNR point; returns all rows.

    Each row compares the exact closed form against its quadrature
    oracle at ``ORACLE_REL_TOL`` relative error.  When ``batch`` is
    given, users whose exact outage exceeds ``MC_PROBABILITY_FLOOR`` are
    also simulated and gated at ``MC_SIGMAS`` standard errors; smaller
    probabilities skip the simulation leg (noted in the gate string).
    An empty config or SNR list yields an empty report.  Each config's
    gate is computed as (users, points) columns, with the operations
    of :meth:`Estimate.from_count` for the simulated values, and the
    rows come out point by point, users in :func:`served_users` order.
    """
    rows: list[ComparisonRow] = []
    snr = [float(db) for db in snr_db]
    rhos = [10.0 ** (db / 10.0) for db in snr]
    for cfg in configs:
        users = [str(user) for user in served_users(cfg)]
        links = point_links(cfg, rhos)
        # each user's exact outage and oracle over the grid, one row a user
        exact = np.array([link_exact(cfg, link) for link in links])
        oracle = np.array(link_oracles(cfg, links))
        rel_err = np.abs(exact - oracle) / np.maximum(np.abs(oracle), 1e-300)
        passed = rel_err <= ORACLE_REL_TOL
        p_mc = mc_stderr = np.full(exact.shape, math.nan)
        # a user above the floor makes its point simulated
        simulated = (exact > MC_PROBABILITY_FLOOR) & (batch is not None)
        if simulated.any():
            points = simulated.any(axis=0)
            fails = np.zeros(exact.shape, dtype=np.int64)
            fails[:, points] = estimate_outage([cfg], np.array(rhos)[points], batch)[0]
            p_hat = fails / batch.trials
            stderr = np.sqrt(p_hat * (1.0 - p_hat) / batch.trials)
            # standard error under the exact probability is the natural null
            # scale and stays positive even when the empirical count is 0 or n
            tol = MC_SIGMAS * np.maximum(stderr, np.sqrt(exact * (1.0 - exact) / batch.trials))
            passed &= ~simulated | (np.abs(exact - p_hat) <= tol)
            p_mc = np.where(simulated, p_hat, math.nan)
            mc_stderr = np.where(simulated, stderr, math.nan)
        gate = np.where(simulated, _MC_GATE, _ORACLE_GATE)
        scenario = "coop" if cfg.has_relay else "direct"
        # point-major order: column k holds every user at point k
        rows.extend(map(
            ComparisonRow, np.repeat(snr, len(users)).tolist(), itertools.repeat(scenario),
            itertools.repeat(cfg.mu), users * len(snr),
            *(column.T.ravel().tolist() for column in
              (exact, oracle, rel_err, p_mc, mc_stderr, passed, gate))))
    return rows
