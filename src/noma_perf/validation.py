"""Independent numerical oracles and the exact-vs-oracle-vs-simulation gate.

The closed-form layer is checked against double-exponential quadrature
of the underlying probability integrals (``numerics``).  The oracles
share the links (``analytic.point_links``: each served user's
direct-link law, sort index and decode cut) and the density/CDF
primitives with the production code, never its Bessel-sum algebra: the
relay-branch oracle integrates the first-hop density against the
conditional second-hop CDF with the exp-sinh rule, and the ordered-CDF
oracle integrates the order-statistic density with the tanh-sinh rule.  Each
oracle integrates every row of a config at once (:func:`link_oracles`,
over links whose cuts span the config's SNR grid): the relay branch over
every user's cuts in one batch, whose exp-sinh nodes in the offset u do
not depend on the cut, and the ordered CDF once per served user over its
cuts.  A refinement level evaluates the rows still refining as one
(rows, nodes) array, and each row stops when its own two levels agree to
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import Link, _user_link, link_outage, point_links, served_users
from .configs import ConfigError, ScenarioConfig
from .fading import FadingParams, OrderedIndex, gamma_cdf, gamma_pdf, ordered_pdf
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


# =====================================================================
# Quadrature oracles
# =====================================================================

def _relay_outages(cfg: ScenarioConfig, cuts: np.ndarray) -> np.ndarray:
    """Relay-branch outage of relay config ``cfg`` at each of ``cuts``.

    Cut 0 gives 0 and an infinite cut 1.  The other cuts are integrated
    as one batch of exp-sinh rows, since the nodes in u do not depend on
    the cut; a ``QuadratureError`` names its row as an index of ``cuts``.
    """
    out = np.where(cuts > 0, 1.0, 0.0)
    live = np.flatnonzero((cuts > 0) & (cuts < math.inf))
    if not live.size:
        return out
    feed = FadingParams(cfg.mu, cfg.omega_sr)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    cut = cuts[live]
    scaled = cut * cfg.noise_scale

    def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return gamma_pdf(feed, cut[rows, None] + u) * gamma_cdf(drop, scaled[rows, None] / u)

    try:
        tail = integrate_semi_infinite(integrand, np.zeros(live.size))
    except QuadratureError as exc:
        exc.row = int(live[exc.row])
        raise
    out[live] = np.minimum(1.0, gamma_cdf(feed, cut) + tail.value)
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
    u ~ cut * noise_scale up to the first-hop decay at u ~ omega_sr.
    """
    cut = float(cut)
    if math.isnan(cut) or cut < 0:
        raise ValueError(f"cut must be >= 0, got {cut}")
    return float(_relay_outages(cfg, np.array([cut]))[0])


def _ordered_cdfs(params: FadingParams, idx: OrderedIndex, xs: np.ndarray) -> np.ndarray:
    """Ordered CDF at each of ``xs`` (see :func:`ordered_cdf_quadrature`),
    every integrated point one tanh-sinh row of a single batch."""
    out = np.where(xs <= 0, 0.0, 1.0)
    live = np.flatnonzero(~((xs <= 0) | (gamma_cdf(params, xs) == 1.0)))
    if live.size:
        result = integrate_from_zero(lambda y, rows: ordered_pdf(params, idx, y), xs[live])
        out[live] = np.minimum(1.0, result.value)
    return out


def ordered_cdf_quadrature(params: FadingParams, idx: OrderedIndex, x: float) -> float:
    """Ordered CDF by tanh-sinh integration of the order-statistic density over (0, x).

    Where the plain CDF at ``x`` rounds to 1 (``x`` = inf included), the
    ordered CDF is within ``total`` * 2**-54 of 1 and is returned as 1.0:
    the density's mass then sits so far below ``x`` that the tanh-sinh
    nodes can step over it at every level and agree on 0.
    """
    return float(_ordered_cdfs(params, idx, np.array([float(x)]))[0])


def link_oracles(cfg: ScenarioConfig, links: Sequence[Link]) -> list[np.ndarray]:
    """Quadrature-only outage of each ``analytic.point_links`` entry of ``cfg``.

    The links share one SNR grid, as ``point_links`` returns them, and
    the result holds one ndarray per link, over its cuts.  The ordered CDF is
    integrated once per link over its cuts, and with a relay the relay
    branch once over the cuts of every link, concatenated.  A relay that
    puts the integrand past the exp-sinh nodes raises ``ConfigError``,
    naming the cut of the first row of that batch that fails.
    """
    direct = [_ordered_cdfs(params, idx, cuts) for params, idx, cuts in links]
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
    An empty config or SNR list yields an empty report.
    """
    rows: list[ComparisonRow] = []
    rhos = [10.0 ** (float(db) / 10.0) for db in snr_db]
    for cfg in configs:
        users = served_users(cfg)
        scenario = "coop" if cfg.has_relay else "direct"
        links = point_links(cfg, rhos)
        # per point, the exact outage and the oracle of each user in turn
        exact = list(zip(*(link_outage(cfg, link)[0].tolist() for link in links)))
        oracles = list(zip(*(oracle.tolist() for oracle in link_oracles(cfg, links))))
        estimates = {}
        if batch is not None:
            # one simulation over the points where some user is above the floor
            simulated = [k for k, point in enumerate(exact) if max(point) > MC_PROBABILITY_FLOOR]
            (points,) = estimate_outage([cfg], [rhos[k] for k in simulated], batch)
            estimates = dict(zip(simulated, points))
        for k, db in enumerate(snr_db):
            for user, p, oracle in zip(users, exact[k], oracles[k]):
                rel_err = abs(p - oracle) / max(abs(oracle), 1e-300)
                ok = rel_err <= ORACLE_REL_TOL
                gate = f"rel_err<={ORACLE_REL_TOL:g}"
                p_mc = math.nan
                mc_stderr = math.nan
                if k in estimates and p > MC_PROBABILITY_FLOOR:
                    est = estimates[k][user]
                    p_mc = est.p_hat
                    mc_stderr = est.stderr
                    # standard error under the exact probability is the natural null
                    # scale and stays positive even when the empirical count is 0 or n
                    se_exact = math.sqrt(p * (1.0 - p) / est.trials)
                    tol = MC_SIGMAS * max(est.stderr, se_exact)
                    ok = ok and abs(p - p_mc) <= tol
                    gate += f" & |exact-mc|<={MC_SIGMAS:g}se"
                rows.append(ComparisonRow(
                    snr_db=float(db),
                    scenario=scenario,
                    mu=cfg.mu,
                    user=str(user),
                    p_exact=p,
                    p_oracle=oracle,
                    rel_err=rel_err,
                    p_mc=p_mc,
                    mc_stderr=mc_stderr,
                    passed=ok,
                    gate=gate,
                ))
    return rows
