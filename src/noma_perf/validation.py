"""Independent numerical oracles and the exact-vs-oracle-vs-simulation gate.

The closed-form layer is checked against quadrature of the underlying
probability integrals (``numerics``).  The oracles share the links
(``analytic.point_links``: each served user's direct-link law, sort
index and decode cut) and the density/CDF primitives with the
production code, never its Bessel-sum algebra: the relay-branch oracle
integrates the first-hop density against the conditional second-hop
CDF with the trapezoid rule in ln u, and the ordered-CDF oracle
integrates the order-statistic density with the tanh-sinh rule.  Each
oracle integrates every row of a config at once (:func:`link_oracles`,
over links whose cuts span the config's SNR grid), in one batch over
the cuts of every served user.

Every relay row runs the one rule over its own mass window in v = ln u
of the offset u past the cut, [min(ln u_knee, ln u_decay) - 37, ln
u_decay + ln 800], between the second-hop knee u_knee = cut *
noise_scale * mu / omega_rd and the first-hop decay u_decay = omega_sr
/ mu, where the integrand sits; the mass outside the window is below
40 e^-37 of the outage for every mu up to ``configs.MAX_RELAY_MU`` = 40.  A
row is resolved to 1e-12 relative to the first-hop CDF plus its
integral.  Only a first-hop mass past the largest double is out of
reach, and its config is then rejected rather than failed.  The
ordered-CDF rows each carry their own link's law, rank and pool
(``fading.ordered_pdfs``).

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
from .fading import FadingParams, OrderedIndex, _gamma_log_pdf_inside, gamma_cdf, ordered_pdfs
from .montecarlo import TrialBatch, estimate_outage
from .numerics import QuadratureError, integrate_from_zero, integrate_semi_infinite

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
#: the relay integrand's mass in ln u lies above its smaller feature
#: (second-hop knee or first-hop decay) less 37 and below the first-hop
#: decay plus ln 800, for every mu up to ``configs.MAX_RELAY_MU``
_MASS_BELOW = 37.0
_MASS_ABOVE = math.log(800.0)
#: the highest window edge: e^709 stays a little below the largest double
_LOG_U_MAX = 709.0


# =====================================================================
# Quadrature oracles
# =====================================================================

def _relay_outages(cfg: ScenarioConfig, cuts: np.ndarray) -> np.ndarray:
    """Relay-branch outage of relay config ``cfg`` at each of ``cuts``.

    Cut 0 gives 0, and a cut where the first-hop CDF F_sr is 1 (an
    infinite cut included) gives 1.  The other cuts are one batch of
    ln-u trapezoid rows over their mass windows (module docstring), each
    resolving F_sr(cut) plus its integral; a ``QuadratureError`` names
    its row as an index of ``cuts``.  A row whose outage comes out 0 has
    lost it to underflow at every node, as has every row where u_decay *
    800 passes e^709, beyond every node: such a row raises where a lower
    bound of the outage is still a double, and 0 stands as the outage
    rounded where the bound is below the double range.  The bound is the
    larger of F_sr(cut) and F_sr(cut + v) F_rd(cut * noise_scale / v) at
    v = sqrt(cut * noise_scale * omega_sr / omega_rd) (the branch fails
    when y - cut < v and the second hop misses), each CDF taken as
    P(mu, x) >= e^-x x^mu / mu!: with t = mu * cut / omega_sr and s = t
    * mu * noise_scale / omega_rd, the arguments are t, t + sqrt(s) and
    sqrt(s).
    """
    feed = FadingParams(cfg.mu, cfg.omega_sr)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    first = gamma_cdf(feed, cuts)
    out = np.where(cuts > 0, 1.0, 0.0)
    live = np.flatnonzero((cuts > 0) & (first < 1.0))
    if not live.size:
        return out
    cut, first = cuts[live], first[live]
    scaled = cut * cfg.noise_scale
    decay = math.log(cfg.omega_sr) - math.log(cfg.mu)
    if decay + _MASS_ABOVE > _LOG_U_MAX:
        outage, why = np.zeros(live.size), "the first-hop mass lies past the double range"
    else:
        with np.errstate(divide="ignore"):  # a product below the double range: log 0 = -inf
            knee = np.log(scaled) + (math.log(cfg.mu) - math.log(cfg.omega_rd))
        low = np.maximum(np.minimum(knee, decay) - _MASS_BELOW, _LOG_SMALLEST)

        def integrand(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
            # u * f_sr(cut + u) * F_rd(cut * noise_scale / u) at u = e^v, the
            # first two factors as one exponential
            u = np.exp(v)
            with np.errstate(over="ignore"):  # a quotient past the double range: F_rd = 1
                reach = scaled[rows, None] / u
            return (np.exp(v + _gamma_log_pdf_inside(feed, cut[rows, None] + u))
                    * gamma_cdf(drop, reach))

        try:
            tail = integrate_semi_infinite(integrand, low, decay + _MASS_ABOVE, first)
        except QuadratureError as exc:
            exc.row = int(live[exc.row])
            raise
        outage, why = first + tail.value, "the integrand underflows at every node"
    lost = np.flatnonzero(outage == 0.0)
    t = feed.rate * cut[lost]
    root = np.sqrt(t * drop.rate * cfg.noise_scale)
    with np.errstate(divide="ignore"):  # log 0 = -inf where t or s underflows
        log_bound = np.maximum(cfg.mu * np.log(t),
                               cfg.mu * (np.log(t + root) + np.log(root)) - 2.0 * root
                               - math.lgamma(cfg.mu + 1)) - t - math.lgamma(cfg.mu + 1)
    lost = lost[log_bound > _LOG_SMALLEST]
    if lost.size:
        raise QuadratureError(why, 0.0, 0.0, int(live[lost[0]]))
    out[live] = np.minimum(1.0, outage)
    return out


def relay_outage_quadrature(cfg: ScenarioConfig, cut: float) -> float:
    """Relay-branch outage of relay config ``cfg`` by direct integration.

    The branch fails when the first-hop gain y stays below ``cut`` or,
    given y > cut, when the second-hop gain misses cut * noise_scale /
    (y - cut).  The outage is the first-hop CDF at the cut plus the
    integral over the offset u = y - cut of the first-hop density at cut
    + u times the second-hop CDF at cut * noise_scale / u, taken in ln u
    over the row's mass window (see :func:`_relay_outages`).  Both terms
    are positive, so relative accuracy survives at any size.
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
    the relay branch once over the same cuts.  A relay the oracle cannot
    resolve raises ``ConfigError``, naming the cut of the first row of
    that batch that fails.
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
