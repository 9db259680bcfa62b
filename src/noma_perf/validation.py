"""Independent numerical oracles and the exact-vs-oracle-vs-simulation gate.

The closed-form layer is checked against double-exponential quadrature
of the underlying probability integrals (``numerics``).  The oracles
share the per-point links (``analytic.point_links``: each served user's
direct-link law, sort index and decode cut) and the density/CDF
primitives with the production code, never its Bessel-sum algebra: the
relay-branch oracle integrates the first-hop density against the
conditional second-hop CDF with the exp-sinh rule, and the ordered-CDF
oracle integrates the order-statistic density with the tanh-sinh rule.  Each
rule evaluates a whole refinement level of nodes in one vectorized
integrand call and stops when two levels agree to 1e-12 relative.  Both
oracles are sums of positive terms, so relative accuracy survives even
when the result is far below one.  The tests keep a second, independent
route through scipy's QUADPACK (``tests/quadpack_reference.py``).

:func:`run_validation_suite` drives the full gate: for every configured
user and SNR point it compares the exact value against its oracle, both
read from the point's one set of links, at the relative tolerance
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
from .configs import ScenarioConfig
from .fading import FadingParams, OrderedIndex, gamma_cdf, gamma_pdf, ordered_pdf
from .montecarlo import TrialBatch, estimate_outage
from .numerics import integrate_from_zero, integrate_semi_infinite

__all__ = [
    "ComparisonRow",
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
    if cut == 0.0:
        return 0.0
    if math.isinf(cut):
        return 1.0
    feed = FadingParams(cfg.mu, cfg.omega_sr)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    scaled = cut * cfg.noise_scale

    def integrand(u: np.ndarray) -> np.ndarray:
        return gamma_pdf(feed, cut + u) * gamma_cdf(drop, scaled / u)

    tail = integrate_semi_infinite(integrand, 0.0)
    return min(1.0, gamma_cdf(feed, cut) + tail.value)


def ordered_cdf_quadrature(params: FadingParams, idx: OrderedIndex, x: float) -> float:
    """Ordered CDF by tanh-sinh integration of the order-statistic density over (0, x).

    Where the plain CDF at ``x`` rounds to 1, the ordered CDF is within
    ``total`` * 2**-54 of 1 and is returned as 1.0: the density's mass
    then sits so far below ``x`` that the tanh-sinh nodes can step over
    it at every level and agree on 0.
    """
    x = float(x)
    if x <= 0:
        return 0.0
    if math.isinf(x) or gamma_cdf(params, x) == 1.0:
        return 1.0
    result = integrate_from_zero(lambda y: ordered_pdf(params, idx, y), x)
    return min(1.0, result.value)


def _link_oracle(cfg: ScenarioConfig, link: Link) -> float:
    """Quadrature-only outage of one ``analytic.point_links`` entry of ``cfg``."""
    params, idx, cut = link
    direct = ordered_cdf_quadrature(params, idx, cut)
    return direct * relay_outage_quadrature(cfg, cut) if cfg.has_relay else direct


def outage_oracle(cfg: ScenarioConfig, rho: float, user) -> float:
    """Quadrature-only outage for one served user, no Bessel sums involved.

    The user's link comes from :func:`~noma_perf.analytic.point_links`, as
    for the exact closed form; ``user`` is one of ``served_users(cfg)``
    and anything else raises ``ValueError``.  Matches the exact closed
    forms up to quadrature error and is the reference leg of the
    validation gate.
    """
    return _link_oracle(cfg, _user_link(cfg, rho, user))


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
        links = [point_links(cfg, rho) for rho in rhos]
        exact = [[link_outage(cfg, link)[0] for link in point] for point in links]
        estimates = {}
        if batch is not None:
            # one simulation over the points where some user is above the floor
            simulated = [k for k, point in enumerate(exact) if max(point) > MC_PROBABILITY_FLOOR]
            points = estimate_outage(cfg, [rhos[k] for k in simulated], batch)
            estimates = dict(zip(simulated, points))
        for k, db in enumerate(snr_db):
            for user, p, link in zip(users, exact[k], links[k]):
                oracle = _link_oracle(cfg, link)
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
