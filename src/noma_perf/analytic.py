"""Closed-form outage, asymptotics, and throughput for both scenarios.

Both deployments are one ``ScenarioConfig``, with or without its relay,
and decode by successive interference cancellation.  :func:`sic_stages`
is the one statement of that rule: the (power, residual power, SINR
threshold) of each stage in decode order, at two-slot thresholds for the
relay config's pair (far, then near message) and one-slot thresholds for
the single-slot M-user system.  A served user must clear the stages up to
its :func:`decode_depth` (far 1, near 2, single-slot user m m).
:func:`stage_cuts` inverts each stage at a given transmit SNR into a
gain cut, and a user's decode cut is the largest cut up to its depth.  A
user is in outage exactly when the relevant gains fall below that cut,
so every probability is a CDF evaluation.  The Monte Carlo replay reads
the same stage table forward, on sampled gains.

With a relay, each message also travels, in a second slot, over a
fixed-gain amplify-and-forward relay; the two branches fail
independently, so the outage is the product of the direct factor
(ordered CDF at the cut) and the relay factor.  The relay factor has a
closed form in modified Bessel functions of the second kind, obtained by
integrating the first-hop density against the conditional second-hop CDF
(Gradshteyn-Ryzhik 3.471.9).  It is evaluated in double precision on two
paths: the Bessel sum 1 - sum K_nu while that stays at or above 1e-6,
and below it, where the sum cancels against 1, a deep branch that
expands every K_n by DLMF 10.31.1, sums the cancelling terms exactly in
rational arithmetic and adds a non-negative series to an incomplete
gamma function.

Without a relay, the outage of user m is the ordered CDF of its gain at
its decode cut.

High-SNR behaviour replaces the ordered CDF of the direct link by its
leading small-argument term, which exposes the decay exponents directly;
for the cooperative users the relay factor, which decays like
rho**-mu * ln(rho), is kept exact, since no closed form of its leading
term is implemented yet.

:func:`point_links` is the one map from an SNR point to every served
user's direct-link law, sort index and decode cut, from one evaluation of
:func:`stage_cuts`; the quadrature oracle in ``validation`` reads the same
links.  :func:`link_outage` evaluates both forms for one link from one cut
and one relay evaluation, and :func:`point_outages` does so for every
served user of a point.  :func:`user_outage` is its checked one-user
view; the per-user functions (``outage_far_exact`` and the like) are
views of it, and the throughput is a sum over the served users' exact
outages.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .configs import ScenarioConfig
from .fading import (
    FadingParams,
    OrderedIndex,
    ordered_cdf,
    ordered_cdf_small_arg,
)
from .numerics import bessel_k_scaled, log_binomial, log_gamma

__all__ = [
    "COOP_USERS",
    "coop_cuts",
    "decode_depth",
    "direct_cuts",
    "diversity_order_fit",
    "far_outage_parts",
    "link_outage",
    "near_outage_parts",
    "outage_direct_asymptotic",
    "outage_direct_exact",
    "outage_far_asymptotic",
    "outage_far_exact",
    "outage_near_asymptotic",
    "outage_near_exact",
    "outage_oma",
    "point_links",
    "point_outages",
    "relay_outage",
    "relay_outage_closed",
    "served_users",
    "sic_stages",
    "stage_cuts",
    "threshold_snr",
    "throughput",
    "throughput_coop",
    "throughput_direct",
    "user_outage",
]

COOP_USERS = ("far", "near")

#: one served user's (direct-link law, sort index, decode cut) at one SNR point
Link = tuple[FadingParams, OrderedIndex, float]

# exp(-x) underflows past this, so the relay-branch bracket is an exact
# double-precision zero and the outage saturates at 1
_EXP_UNDERFLOW = 745.0


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"transmit SNR rho must be finite and > 0, got {rho}")
    return rho


# =====================================================================
# SIC stages and gain cuts
# =====================================================================

def threshold_snr(rate: float, slots: int) -> float:
    """SINR threshold 2**(slots * rate) - 1 for a target rate in bit/s/Hz.

    ``slots`` is the number of orthogonal time slots the transmission
    occupies (2 for the cooperative protocol, 1 for single-slot
    signalling); each slot halves the effective spectral efficiency, so
    the threshold rises accordingly.  A threshold past the double range
    is ``inf``: no SINR meets it, so every link to it is in outage.
    """
    if slots not in (1, 2):
        raise ValueError(f"slots must be 1 or 2, got {slots}")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    try:
        return 2.0 ** (slots * rate) - 1.0
    except OverflowError:
        return math.inf


def served_users(cfg: ScenarioConfig) -> tuple:
    """Served users of ``cfg`` in report order: ``('far', 'near')`` with a
    relay, 1..M without."""
    return COOP_USERS if cfg.has_relay else tuple(range(1, cfg.n_users + 1))


def decode_depth(cfg: ScenarioConfig, user: str | int) -> int:
    """Number of leading :func:`sic_stages` that served user ``user`` must clear.

    It is the user's position in decode order: 1 for ``'far'``, 2 for
    ``'near'``, m for single-slot user m.  ``user`` must be one of
    :func:`served_users` of ``cfg``, equal in type and value; anything
    else raises ``ValueError``.
    """
    served = served_users(cfg)
    # one config's served users share one type, so True, 2.0 or "2" never pass
    if type(user) is not type(served[0]) or user not in served:
        raise ValueError(f"user must be one of {served}, got {user!r}")
    return served.index(user) + 1


def sic_stages(cfg: ScenarioConfig) -> tuple[tuple[float, float, float], ...]:
    """(power, residual power, SINR threshold) of each SIC stage, in decode order.

    Stage i decodes message i against the residual interference of the
    messages after it, so a receiver with power gain g at transmit SNR
    rho sees the SINR g * power * rho / (g * residual * rho + 1); the
    last stage has no residual.  There is one stage per served user, at
    two-slot thresholds with a relay and one-slot thresholds without.
    This table is the one statement of the decode rule: :func:`stage_cuts`
    inverts it into gain cuts and the Monte Carlo replay
    (``montecarlo.stage_failures``) evaluates it on sampled gains.
    """
    powers, slots = cfg.power, 2 if cfg.has_relay else 1
    return tuple([(powers[i], math.fsum(powers[i + 1:]), threshold_snr(rate, slots))
                  for i, rate in enumerate(cfg.rates)])


def stage_cuts(cfg: ScenarioConfig, rho: float) -> tuple[float, ...]:
    """Per-stage gain cuts of the SIC chain at transmit SNR ``rho``.

    Entry i (0-based) is the least gain that clears stage i of
    :func:`sic_stages`, threshold / (rho * (power - threshold *
    residual)); it is infinite where that headroom is not positive, as
    no gain then meets the rate.  A served user's decode cut is the
    largest of the first :func:`decode_depth` entries.
    """
    rho = _check_rho(rho)
    cuts = []
    for power, residual, gamma in sic_stages(cfg):
        # gamma = 0 keeps headroom = power > 0, so the cut is 0 there
        headroom = power - gamma * residual
        cuts.append(gamma / (rho * headroom) if headroom > 0 else math.inf)
    return tuple(cuts)


#: earlier names of :func:`stage_cuts`, one per deployment
coop_cuts = direct_cuts = stage_cuts


# =====================================================================
# Relay branch closed form
# =====================================================================

def _relay_outage_f64(cut: float, mu: int, omega_sr: float, omega_rd: float,
                      noise_scale: float) -> float:
    """Double-precision evaluation of the relay-branch outage at gain cut ``cut``."""
    zc = cut * noise_scale
    arg = 2.0 * mu * math.sqrt(zc / (omega_sr * omega_rd))
    log_pref = (
        math.log(2.0)
        + mu * math.log(mu)
        - mu * cut / omega_sr
        - mu * math.log(omega_sr)
        - log_gamma(mu)
    )
    half_log = 0.5 * (math.log(zc) + math.log(omega_sr) - math.log(omega_rd))
    log_cut = math.log(cut)
    log_zc_term = math.log(zc) + math.log(mu) - math.log(omega_rd)
    # each K depends only on the order |i - k + 1| (0..mu; 1 alone at
    # mu = 1) and each binomial only on i, so evaluate them once apiece
    log_bessel = {n: math.log(bessel_k_scaled(n, arg))
                  for n in range(1 if mu == 1 else 0, mu + 1)}
    log_binom = [log_binomial(mu - 1, i) for i in range(mu)]
    terms = []
    for k in range(mu):
        log_k = k * log_zc_term - log_gamma(k + 1)
        for i in range(mu):
            order = i - k + 1
            log_term = (
                log_pref
                + log_k
                + log_binom[i]
                + (mu - 1 - i) * log_cut
                + order * half_log
                + log_bessel[abs(order)]
                - arg
            )
            terms.append(math.exp(log_term))
    return 1.0 - math.fsum(terms)


#: Euler-Mascheroni constant, psi(1) = -gamma, to the digits the deep
#: branch's extended-precision re-sum can use
_EULER_GAMMA_DIGITS = (
    "0.57721566490153286060651209008240243104215933593992359880576723488486772677766467"
    "0936947063291746749514631447249"
)
_EULER_GAMMA = float(_EULER_GAMMA_DIGITS)
_EULER_GAMMA_PRECISION = len(_EULER_GAMMA_DIGITS) - 2

#: the Bessel sum cancels against 1 below this value; the deep branch takes over
_DEEP_SWITCH = 1e-6


@functools.cache
def _harmonic(n: int):
    """H_n = 1 + 1/2 + ... + 1/n as an exact fraction."""
    from fractions import Fraction  # only the deep branch needs exact sums

    return Fraction(0) if n == 0 else _harmonic(n - 1) + Fraction(1, n)


@functools.cache
def _deep_coefficients(mu: int, q: int) -> dict[int, tuple]:
    """Exact coefficients of s**q in the series of the relay success term.

    With t = (mu / omega_sr) * cut and s = t * (mu / omega_rd) *
    noise_scale, the success term of the closed form is
    exp(-t) * sum_{p, q} t**p * s**q * (alpha + beta * (ln s + 2 gamma)),
    p < mu, once every K_n of the Bessel sum is expanded by DLMF 10.31.1
    (finite singular sum, ln(x/2) I_n(x) and the psi series, with
    x = 2 sqrt(s) and psi(j + 1) = H_j - gamma).  Returns {p: (alpha,
    beta)} for one power q, with every cancelling pair already summed
    to its exact rational value.
    """
    from fractions import Fraction

    f = math.factorial
    row: dict[int, list] = {}
    for k in range(mu):
        for i in range(mu):
            weight = Fraction(2 * math.comb(mu - 1, i), f(k) * f(mu - 1))
            order = i - k + 1
            n = abs(order)
            alpha = beta = Fraction(0)
            # singular part: (1/2) (x/2)**-n sum_{j<n} (n-j-1)!/j! (-x**2/4)**j
            j = q - k - min(order, 0)
            if 0 <= j < n:
                alpha += weight / 2 * Fraction((-1) ** j * f(n - j - 1), f(j))
            # (-1)**(n+1) (ln(x/2) I_n(x) - (1/2) (x/2)**n sum_j psi terms)
            j = q - k - max(order, 0)
            if j >= 0:
                c = weight * Fraction((-1) ** (n + 1), 2 * f(j) * f(n + j))
                beta += c
                alpha -= c * (_harmonic(j) + _harmonic(n + j))
            if alpha or beta:
                acc = row.setdefault(mu - 1 - i, [Fraction(0), Fraction(0)])
                acc[0] += alpha
                acc[1] += beta
    return {p: (a, b) for p, (a, b) in sorted(row.items()) if a or b}


@functools.cache
def _deep_row(mu: int, q: int) -> tuple[tuple[int, float, float], ...]:
    """Row q >= 1 of :func:`_deep_coefficients` as (p, alpha, beta) floats."""
    return tuple((p, float(a), float(b)) for p, (a, b) in _deep_coefficients(mu, q).items())


def _deep_sum(mu: int, row, t, s, lam, tol):
    """R = sum_{q>=1} s**q sum_p t**p (alpha + beta * lam), and the sum of
    its terms' magnitudes.

    Runs on floats or on Decimals alike: ``row(q)`` gives the (p, alpha,
    beta) of power q in the type of ``t``, ``s`` and ``lam``, and the sum
    stops once a row's magnitude falls below ``tol`` of R.
    """
    t_pow = [t ** p for p in range(mu)]
    rest = size_sum = 0
    s_pow = 1
    q = 0
    while True:
        q += 1
        s_pow *= s
        term = size = 0
        for p, alpha, beta in row(q):
            term += t_pow[p] * (alpha + beta * lam)
            size += t_pow[p] * (abs(alpha) + abs(beta * lam))
        rest += s_pow * term
        size_sum += s_pow * size
        # past q = mu every (k, i) pair feeds the row, p = 0 included, so
        # its bound cannot vanish by exact cancellation or by t**p underflow
        if q > mu and s_pow * size <= tol * abs(rest):
            return rest, size_sum


def _deep_sum_decimal(mu: int, t: float, s: float, digits: int) -> tuple[float, float]:
    """:func:`_deep_sum` in ``digits``-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        lam = Decimal(s).ln() + 2 * Decimal(_EULER_GAMMA_DIGITS)

        def row(q):
            return [(p, Decimal(a.numerator) / a.denominator,
                     Decimal(b.numerator) / b.denominator)
                    for p, (a, b) in _deep_coefficients(mu, q).items()]

        rest, size_sum = _deep_sum(mu, row, Decimal(t), Decimal(s), lam,
                                   Decimal(10) ** -(digits + 1))
        return float(rest), float(size_sum)


def _relay_outage_deep(cut: float, mu: int, omega_sr: float, omega_rd: float,
                       noise_scale: float) -> float:
    """Relay-branch outage from the small-argument series, without cancellation.

    The q = 0 row of :func:`_deep_coefficients` is sum_{p<mu} t**p / p!,
    whose product with exp(-t) is the regularized upper incomplete gamma
    function, so the outage is gammainc(mu, t) - exp(-t) * R with R the
    rows q >= 1.  Both parts are non-negative (R <= 0: the first hop
    failing alone is part of the outage), so nothing cancels against 1.

    R itself is an alternating series whose terms grow with s, as
    I_n(2 sqrt(s)) does: near the switch at mu = 12 its terms are 1e6
    times R, at mu = 20 1e14 times.  Where that ratio times the
    rounding unit of the working precision exceeds 1e-11 (a ratio above
    1e5 in double precision), R is summed again in decimal arithmetic
    at 32, 64 and then 111 digits, the digits of the stored
    Euler-Mascheroni constant.
    """
    t = mu * cut / omega_sr
    # the quotient under the Bessel sum's square root, so s > 0 wherever that sum ran
    s = mu * mu * (cut * noise_scale / (omega_sr * omega_rd))
    lam = math.log(s) + 2.0 * _EULER_GAMMA
    rest, size_sum = _deep_sum(mu, functools.partial(_deep_row, mu), t, s, lam, 1e-17)
    digits = 16
    # a double-precision pass that overflowed (inf terms) escalates too
    while not (math.isfinite(size_sum) and size_sum <= 10.0 ** (digits - 11) * abs(rest)):
        if digits == _EULER_GAMMA_PRECISION:
            raise ArithmeticError(
                f"relay outage below {_DEEP_SWITCH} at mu={mu}, s={s} cancels past "
                f"{digits} digits"
            )
        digits = min(2 * digits, _EULER_GAMMA_PRECISION)
        rest, size_sum = _deep_sum_decimal(mu, t, s, digits)
    return float(special.gammainc(mu, t)) - math.exp(-t) * rest


def relay_outage_closed(cut: float, *, mu: int, omega_sr: float, omega_rd: float,
                        noise_scale: float) -> float:
    """Outage of the fixed-gain relay branch at gain cut ``cut``.

    Probability that the cascaded first-hop gain y and second-hop gain w
    fail the decode condition ``y > cut and w >= cut * noise_scale /
    (y - cut)``.  Integrating the first-hop density against the
    second-hop CDF gives, by Gradshteyn-Ryzhik 3.471.9, a double sum of
    K_nu(2 sqrt(s)) with s = (mu / omega_sr) (mu / omega_rd) noise_scale
    cut, evaluated in double precision as 1 minus the sum.

    Once that bracket drops below 1e-6 it cancels against 1, and the
    deep branch (:func:`_relay_outage_deep`) takes over: every K_n is
    expanded by DLMF 10.31.1, the terms that cancel are combined exactly
    in rational arithmetic, and the outage is gammainc(mu, t) -
    exp(-t) R with t = (mu / omega_sr) cut and R <= 0 a power series in
    t, s and ln s, all in double precision.  The switch keeps s below
    about 6.1e-8, 5.4e-4, 0.015, 0.096, 0.32 and 0.79 at mu = 1..6 (the
    s at which the bracket reaches 1e-6 as t -> 0; the outage grows
    with t and s), where the series stays within about 2e-14 relative
    of a 20-digit reference; at larger mu, where s reaches further, the
    series is summed again in decimal arithmetic once it cancels by more
    than 1e5.  Results at or above 1e-6 come from the Bessel sum
    unchanged.

    Returns exactly 0.0 at ``cut = 0`` and exactly 1.0 once the bracket
    underflows to zero (deep outage).
    """
    if not isinstance(mu, int) or mu < 1:
        raise ValueError(f"mu must be an integer >= 1, got {mu!r}")
    for name, v in (("omega_sr", omega_sr), ("omega_rd", omega_rd),
                    ("noise_scale", noise_scale)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    cut = float(cut)
    if math.isnan(cut) or cut < 0:
        raise ValueError(f"cut must be >= 0, got {cut}")
    if cut == 0.0:
        return 0.0
    if math.isinf(cut) or mu * cut / omega_sr > _EXP_UNDERFLOW:
        return 1.0
    value = _relay_outage_f64(cut, mu, omega_sr, omega_rd, noise_scale)
    if value >= _DEEP_SWITCH:
        return value
    return _relay_outage_deep(cut, mu, omega_sr, omega_rd, noise_scale)


def relay_outage(cfg: ScenarioConfig, cut: float) -> float:
    """Relay-branch outage of a served user of relay config ``cfg`` at cut ``cut``."""
    return relay_outage_closed(
        cut,
        mu=cfg.mu,
        omega_sr=cfg.omega_sr,
        omega_rd=cfg.omega_rd,
        noise_scale=cfg.noise_scale,
    )


# =====================================================================
# Exact and high-SNR outage of one served user
# =====================================================================

def point_links(cfg: ScenarioConfig, rho: float) -> tuple[Link, ...]:
    """Direct-link law, sort index and decode cut of every served user at ``rho``.

    One entry per user of :func:`served_users`, in decode order, all from
    one :func:`stage_cuts` evaluation.  A user's decode cut is the running
    maximum of the stage cuts up to its :func:`decode_depth`: the
    far-message cut for ``'far'``, the larger of that cut (SIC stage) and
    the near-message cut for ``'near'``, the largest of the first m cuts
    for single-slot user m.
    """
    cuts = itertools.accumulate(stage_cuts(cfg, rho), max)
    return tuple((FadingParams(cfg.mu, omega), OrderedIndex(rank, cfg.pool), cut)
                 for omega, rank, cut in zip(cfg.omega, cfg.ranks, cuts, strict=True))


def _link_factors(cfg: ScenarioConfig, link: Link) -> tuple[float, float, float]:
    """Direct factor, its small-argument leading term, and relay factor (1
    without a relay) of one link; (1, 1, 1) at an infeasible cut and
    (0, 0, 0) at a zero cut (zero rates)."""
    params, idx, cut = link
    if math.isinf(cut):
        return 1.0, 1.0, 1.0
    if cut == 0.0:
        return 0.0, 0.0, 0.0
    relay = relay_outage(cfg, cut) if cfg.has_relay else 1.0
    return ordered_cdf(params, idx, cut), ordered_cdf_small_arg(params, idx, cut), relay


def link_outage(cfg: ScenarioConfig, link: Link) -> tuple[float, float]:
    """Exact and high-SNR outage of one :func:`point_links` entry of ``cfg``.

    The exact outage is the ordered CDF of the user's direct gain at its
    decode cut times the relay factor, since the user is served by
    selection over two independent branches.  The high-SNR form replaces
    the ordered CDF by its leading small-argument term, which decays with
    exponent mu times the user's sort rank; the relay factor decays like
    rho**-mu * ln(rho) and is kept exact, since no closed form of its
    leading term is implemented yet.  The high-SNR form is clamped to 1
    where the expansion exceeds unity (low SNR, outside its regime).
    Returns (1, 1) when the power split cannot support the user's rates.
    """
    direct, lead, relay = _link_factors(cfg, link)
    return direct * relay, min(1.0, lead * relay)


def point_outages(cfg: ScenarioConfig, rho: float) -> list[tuple[float, float]]:
    """(exact, high-SNR) outage of every served user at ``rho``, in
    :func:`served_users` order (see :func:`link_outage`)."""
    return [link_outage(cfg, link) for link in point_links(cfg, rho)]


def _user_link(cfg: ScenarioConfig, rho: float, user: str | int) -> Link:
    """The :func:`point_links` entry of a served user (see :func:`decode_depth`)."""
    depth = decode_depth(cfg, user)
    return point_links(cfg, rho)[depth - 1]


def user_outage(cfg: ScenarioConfig, rho: float,
                user: str | int) -> tuple[float, float]:
    """Exact and high-SNR outage of one served user at transmit SNR ``rho``.

    ``user`` is one of :func:`served_users`, equal in type and value:
    ``'far'``/``'near'`` with a relay, the 1-based served index (an
    ``int``) without; anything else raises ``ValueError``.  See
    :func:`link_outage` for the two forms.
    """
    return link_outage(cfg, _user_link(cfg, rho, user))


def far_outage_parts(cfg: ScenarioConfig, rho: float) -> tuple[float, float]:
    """(direct, relay) branch outage factors of the far user."""
    return _link_factors(cfg, _user_link(cfg, rho, "far"))[::2]


def near_outage_parts(cfg: ScenarioConfig, rho: float) -> tuple[float, float]:
    """(direct, relay) branch outage factors of the near user."""
    return _link_factors(cfg, _user_link(cfg, rho, "near"))[::2]


def outage_far_exact(cfg: ScenarioConfig, rho: float) -> float:
    """Exact outage probability of the far user at transmit SNR ``rho``."""
    return user_outage(cfg, rho, "far")[0]


def outage_near_exact(cfg: ScenarioConfig, rho: float) -> float:
    """Exact outage probability of the near user at transmit SNR ``rho``."""
    return user_outage(cfg, rho, "near")[0]


def outage_direct_exact(cfg: ScenarioConfig, rho: float, user: int) -> float:
    """Exact outage of served user ``user`` (1-based) in the single-slot system."""
    return user_outage(cfg, rho, user)[0]


def outage_far_asymptotic(cfg: ScenarioConfig, rho: float) -> float:
    """High-SNR outage of the far user at transmit SNR ``rho``."""
    return user_outage(cfg, rho, "far")[1]


def outage_near_asymptotic(cfg: ScenarioConfig, rho: float) -> float:
    """High-SNR outage of the near user at transmit SNR ``rho``."""
    return user_outage(cfg, rho, "near")[1]


def outage_direct_asymptotic(cfg: ScenarioConfig, rho: float, user: int) -> float:
    """High-SNR outage of served user ``user`` (1-based) in the single-slot system."""
    return user_outage(cfg, rho, user)[1]


def diversity_order_fit(curve: Iterable[tuple[float, float]]) -> float:
    """Least-squares decay exponent of an outage curve P(rho).

    ``curve`` holds (rho, P) pairs with linear-scale rho.  Fits log10 P
    against log10 rho and returns the negated slope, the empirical
    diversity order.  Points with P below 1e-300 (including exact zeros
    from underflow) carry no usable information and are dropped with a
    warning; negative probabilities raise.
    """
    rhos: list[float] = []
    probs: list[float] = []
    dropped = 0
    for rho, p in curve:
        rho = float(rho)
        p = float(p)
        if not (math.isfinite(rho) and rho > 0):
            raise ValueError(f"curve points need rho > 0, got {rho}")
        if math.isnan(p) or p < 0:
            raise ValueError(f"curve points need P >= 0, got {p}")
        if p < 1e-300:
            dropped += 1
            continue
        rhos.append(rho)
        probs.append(p)
    if dropped:
        warnings.warn(
            f"diversity_order_fit dropped {dropped} point(s) with P below 1e-300",
            stacklevel=2,
        )
    if len(rhos) < 2:
        raise ValueError("diversity_order_fit needs at least two usable points")
    slope = np.polyfit(np.log10(rhos), np.log10(probs), 1)[0]
    return float(-slope) + 0.0


# =====================================================================
# Throughput and orthogonal-access baseline
# =====================================================================

def throughput(cfg: ScenarioConfig, exact: Sequence[float]) -> float:
    """Delay-limited throughput in bit/s/Hz from the served users' exact outages.

    ``exact`` holds the exact outage of each user of :func:`served_users`,
    in that order.  Each user contributes its target rate scaled by its
    success probability, so the ceiling is the sum of the target rates.
    """
    return math.fsum((1.0 - p) * rate for p, rate in zip(exact, cfg.rates, strict=True))


def throughput_coop(cfg: ScenarioConfig, rho: float) -> float:
    """Delay-limited throughput of the cooperative pair in bit/s/Hz."""
    return throughput(cfg, [exact for exact, _ in point_outages(cfg, rho)])


def throughput_direct(cfg: ScenarioConfig, rho: float) -> float:
    """Delay-limited throughput of the single-slot system in bit/s/Hz."""
    return throughput(cfg, [exact for exact, _ in point_outages(cfg, rho)])


def outage_oma(cfg: ScenarioConfig, rho: float) -> float:
    """Outage of an orthogonal-access baseline carrying the same total rate.

    The strongest served user, the last of :func:`served_users` (the
    near user, or single-slot user M), is scheduled alone at the sum of
    the target rates, with its direct-link law and sort index as in
    :func:`point_links`.  With a relay, the relay still serves that user in
    the second slot (selection over both branches, each with the two-slot
    threshold cut); without one, the baseline keeps one slot and one
    user.  A zero total rate gives a zero cut and
    an outage of exactly 0.
    """
    rho = _check_rho(rho)
    cut = threshold_snr(math.fsum(cfg.rates), 2 if cfg.has_relay else 1) / rho
    params, idx = FadingParams(cfg.mu, cfg.omega[-1]), OrderedIndex(cfg.ranks[-1], cfg.pool)
    direct = ordered_cdf(params, idx, cut)
    return direct * relay_outage(cfg, cut) if cfg.has_relay else direct
