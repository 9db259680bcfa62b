"""Second quadrature route for the outage oracles, through QUADPACK (tests only).

``noma_perf.validation`` integrates with vectorized double-exponential
rules.  The functions here integrate the same two probabilities with
scipy's QUADPACK instead: another rule, another parametrization of the
relay tail, and scalar integrands.  Agreement between the two routes is
what the tests take as evidence that both are right.  The scalar
densities here are written out with ``math`` and one ``scipy.special``
call, so this route shares no density code with the oracles either.

- :func:`relay_outage_quadpack`: the first-hop CDF at the cut plus the
  tail integral over the first-hop gain y in (cut, inf), by QUADPACK's
  semi-infinite rule.  The oracle integrates over the offset y - cut.
- :func:`ordered_cdf_quadpack`: the order-statistic density integrated
  over (0, x) by QUADPACK's adaptive Gauss-Kronrod rule.
"""

from __future__ import annotations

import math

from scipy import integrate, special

from noma_perf.configs import ScenarioConfig
from noma_perf.fading import FadingParams, OrderedIndex

#: QUADPACK's relative target, absolute floor and subdivision limit
REL_TOL = 1e-10
ABS_TOL = 1e-300
LIMIT = 200


def _pdf(p: FadingParams, y: float) -> float:
    """Gamma density of shape mu and mean omega at scalar y > 0."""
    return math.exp(p.mu * math.log(p.rate) - math.lgamma(p.mu)
                    + (p.mu - 1) * math.log(y) - p.rate * y)


def _cdf(p: FadingParams, y: float) -> float:
    """Gamma CDF of shape mu and mean omega at scalar y >= 0."""
    return float(special.gammainc(p.mu, p.rate * y))


def relay_outage_quadpack(cfg: ScenarioConfig, cut: float) -> float:
    """Relay-branch outage of a served user at decode cut ``cut``, via QUADPACK."""
    cut = float(cut)
    if cut == 0.0:
        return 0.0
    if math.isinf(cut):
        return 1.0
    feed = FadingParams(cfg.mu, cfg.omega_sr)
    drop = FadingParams(cfg.mu, cfg.omega_rd)
    scaled = cut * cfg.noise_scale

    def integrand(y: float) -> float:
        return _pdf(feed, y) * _cdf(drop, scaled / (y - cut))

    tail, _ = integrate.quad(integrand, cut, math.inf, epsabs=ABS_TOL, epsrel=REL_TOL,
                             limit=LIMIT)
    return min(1.0, _cdf(feed, cut) + tail)


def ordered_cdf_quadpack(p: FadingParams, idx: OrderedIndex, x: float) -> float:
    """Ordered CDF at ``x`` from the order-statistic density, via QUADPACK."""
    x = float(x)
    if x <= 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    m, total = idx.rank, idx.total
    log_norm = math.lgamma(total + 1) - math.lgamma(m) - math.lgamma(total - m + 1)

    def density(y: float) -> float:
        big_f = _cdf(p, y)
        return math.exp(log_norm) * _pdf(p, y) * big_f ** (m - 1) * (1.0 - big_f) ** (total - m)

    value, _ = integrate.quad(density, 0.0, x, epsabs=ABS_TOL, epsrel=REL_TOL, limit=LIMIT)
    return min(1.0, value)
