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
gamma function.  At mu <= 6 the deep series also serves the band
[1e-5, 1e-3), where the sum has already lost 3 to 5 digits.  A call
that can only land below the band's top runs the deep series first and
skips the Bessel sum when the series lands in the band or clearly below
the switch; below the switch that is the result evaluating the sum
first gives.

Without a relay, the outage of user m is the ordered CDF of its gain at
its decode cut.

High-SNR behaviour replaces the ordered CDF of the direct link by its
leading small-argument term, which exposes the decay exponents directly;
for the cooperative users the relay factor, which decays like
rho**-mu * ln(rho), is kept exact, since no closed form of its leading
term is implemented yet.

:func:`point_links` is the one map from a config's SNR grid to every
served user's direct-link law, sort index and decode cuts over it, from
one evaluation of :func:`stage_cuts`; the quadrature oracle in
``validation`` reads the same links.  :func:`link_outage` evaluates both
forms for one link from one ordered-CDF call over its cuts and one relay
evaluation per cut, :func:`link_exact` the exact form alone, and
:func:`point_outages` both forms for every served user.  Every SNR that
crosses these functions is a 1-D grid and every cut and outage an
ndarray over it, each element computed independently of the others.
:func:`user_outage` is the checked one-user, one-point view, on a
one-element grid, and the throughput is a sum over the served users'
exact outages.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Iterable, Sequence

import numpy as np

from .configs import ScenarioConfig
from .fading import (
    FadingParams,
    OrderedIndex,
    ordered_cdf,
    ordered_cdf_small_arg,
)
from .numerics import _EULER_GAMMA, bessel_k_scaled, gamma_p, log_binomial

__all__ = [
    "decode_depth",
    "diversity_order_fit",
    "link_exact",
    "link_outage",
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
    "user_outage",
]

COOP_USERS = ("far", "near")

#: one served user's (direct-link law, sort index, decode cuts), the cuts an
#: ndarray over a config's SNR grid
Link = tuple[FadingParams, OrderedIndex, np.ndarray]

# exp(-x) underflows past this, so the relay-branch bracket is an exact
# double-precision zero and the outage saturates at 1
_EXP_UNDERFLOW = 745.0


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"transmit SNR rho must be finite and > 0, got {rho}")
    return rho


def _rho_grid(rho) -> np.ndarray:
    """``rho``, a 1-D sequence of SNRs (a config's grid), as a float array of checked entries."""
    rhos = np.asarray(rho, dtype=float)
    if rhos.ndim != 1:
        raise ValueError(f"transmit SNR rho must be a 1-D grid of SNR points, got shape "
                         f"{rhos.shape}; a single SNR is the grid [rho]")
    return np.array([_check_rho(r) for r in rhos.tolist()], dtype=float)


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
    (``montecarlo.user_failures``) evaluates it on sampled gains.
    """
    powers, slots = cfg.power, 2 if cfg.has_relay else 1
    return tuple([(powers[i], math.fsum(powers[i + 1:]), threshold_snr(rate, slots))
                  for i, rate in enumerate(cfg.rates)])


def stage_cuts(cfg: ScenarioConfig, rho) -> tuple[np.ndarray, ...]:
    """Per-stage gain cuts of the SIC chain over the transmit SNR grid ``rho``.

    Entry i (0-based) is the least gain that clears stage i of
    :func:`sic_stages`, threshold / (rho * (power - threshold *
    residual)); it is infinite where that headroom is not positive, as
    no gain then meets the rate.  A served user's decode cut is the
    largest of the first :func:`decode_depth` entries.

    ``rho`` is a 1-D sequence of SNRs (a config's whole grid), and each
    entry an ndarray over it, one IEEE quotient per point.
    """
    rhos = _rho_grid(rho)
    cuts = []
    # a quotient past the double range, or over an SNR so small that
    # rho * headroom underflows to 0, is an infinite cut
    with np.errstate(over="ignore", divide="ignore"):
        for power, residual, gamma in sic_stages(cfg):
            # gamma = 0 keeps headroom = power > 0, so the cut is 0 there
            headroom = power - gamma * residual
            cuts.append(gamma / (rhos * headroom) if headroom > 0
                        else np.full(rhos.shape, math.inf))
    return tuple(cuts)


# =====================================================================
# Relay branch closed form
# =====================================================================

@functools.lru_cache(maxsize=None, typed=True)
def _check_relay_law(mu: int, omega_sr: float, omega_rd: float, noise_scale: float) -> None:
    """Raise ``ValueError`` unless the relay law of :func:`relay_outage_closed` is valid.

    Cached per law, with argument types kept apart (1 and 1.0 or True
    are different keys), so each law is checked once however many cuts
    it serves; a law that fails raises on every call, as nothing is cached
    for it.
    """
    if not isinstance(mu, int) or mu < 1:
        raise ValueError(f"mu must be an integer >= 1, got {mu!r}")
    for name, v in (("omega_sr", omega_sr), ("omega_rd", omega_rd),
                    ("noise_scale", noise_scale)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


@functools.cache
def _bessel_law(mu: int, omega_sr: float, omega_rd: float) -> tuple:
    """Constants of :func:`_relay_outage_f64` that depend on the law alone.

    Each is the same double that sum computed inline per call:
    log 2 + mu log mu, mu log omega_sr, lgamma(mu), log omega_sr, log
    omega_rd, log mu, the log C(mu - 1, i) row and lgamma(k + 1) for k < mu.
    """
    log_sr, log_rd, log_mu = math.log(omega_sr), math.log(omega_rd), math.log(mu)
    return (math.log(2.0) + mu * log_mu, mu * log_sr, math.lgamma(mu), log_sr, log_rd, log_mu,
            [log_binomial(mu - 1, i) for i in range(mu)],
            [math.lgamma(k + 1) for k in range(mu)])


def _relay_outage_f64(cut: float, mu: int, omega_sr: float, omega_rd: float,
                      noise_scale: float) -> float:
    """Double-precision evaluation of the relay-branch outage at gain cut ``cut``."""
    (log_2_mu, mu_log_sr, lgamma_mu, log_sr, log_rd, log_mu, log_binom,
     lgamma_k1) = _bessel_law(mu, omega_sr, omega_rd)
    zc = cut * noise_scale
    arg = 2.0 * mu * math.sqrt(zc / omega_sr / omega_rd)
    log_pref = log_2_mu - mu * cut / omega_sr - mu_log_sr - lgamma_mu
    log_zc = math.log(zc)
    half_log = 0.5 * (log_zc + log_sr - log_rd)
    log_cut = math.log(cut)
    log_zc_term = log_zc + log_mu - log_rd
    # each K depends only on the order |i - k + 1| (1..mu, and 0 from mu = 2)
    # and each binomial only on i, so one recurrence gives every order
    log_bessel = [math.log(v) for v in bessel_k_scaled(mu, arg)]
    terms = []
    for k in range(mu):
        log_k = k * log_zc_term - lgamma_k1[k]
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
_EULER_GAMMA_PRECISION = len(_EULER_GAMMA_DIGITS) - 2

#: the Bessel sum cancels against 1 below this value; the deep branch takes over
_DEEP_SWITCH = 1e-6
#: near the switch the Bessel sum is off by at most 2e-9 relative at
#: mu <= 6 (against a 20-digit reference) and the deep series by 1e-11, so
#: a series value this far below the switch is one the sum puts below it too
_DEEP_FIRST_MARGIN = 1e-4
#: at mu <= 6 the deep series, in double precision, also serves the values
#: in this band, where the Bessel sum keeps only 11 to 13 of its 16 digits
#: and the series cancels by at most 860 (mu = 6, at the top); between the
#: switch and the band the sum stays, since the series would move those
#: values by up to the sum's own 2e-9 error, past the 1e-9 at which
#: perfbench/reference.json holds them
_DEEP_BAND = (1e-5, 1e-3)
#: at mu = 1..6, the s at which the outage reaches the top of the band as
#: t -> 0 (1.117943e-4, 2.539424e-2, ... rounded up); the outage grows
#: with t and s, so no value below the band's top has a larger s
_DEEP_S_MAX = (1.12e-4, 2.54e-2, 0.219, 0.771, 1.85, 3.57)


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


class _DeepRows(dict):
    """Rows q >= 1 of :func:`_deep_coefficients` for one mu, built on first
    use: ``rows[q]`` is the tuple of (p, alpha, beta, |alpha|, |beta|) of
    power q, each coefficient converted by ``convert``."""

    def __init__(self, mu: int, convert):
        super().__init__()
        self.mu, self.convert = mu, convert

    def __missing__(self, q: int) -> tuple:
        row = self[q] = tuple((p, a, b, abs(a), abs(b)) for p, a, b in (
            (p, self.convert(a), self.convert(b))
            for p, (a, b) in _deep_coefficients(self.mu, q).items()))
        return row


@functools.cache
def _deep_rows(mu: int) -> _DeepRows:
    """The rows of ``mu`` as floats, kept for the process."""
    return _DeepRows(mu, float)


def _deep_sum(mu: int, rows, t, s, lam, tol):
    """R = sum_{q>=1} s**q sum_p t**p (alpha + beta * lam), and the sum of
    its terms' magnitudes.

    Runs on floats or on Decimals alike: ``rows[q]`` gives the (p, alpha,
    beta, |alpha|, |beta|) of power q in the type of ``t``, ``s`` and
    ``lam``, and the sum stops once a row's magnitude falls below ``tol``
    of R.
    """
    t_pow = [t ** p for p in range(mu)]
    lam_size = abs(lam)
    rest = size_sum = 0
    s_pow = 1
    q = 0
    while True:
        q += 1
        s_pow *= s
        term = size = 0
        for p, alpha, beta, alpha_size, beta_size in rows[q]:
            tp = t_pow[p]
            term += tp * (alpha + beta * lam)
            # |beta| |lam| is |beta lam| exactly: rounding ignores signs
            size += tp * (alpha_size + beta_size * lam_size)
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
        rows = _DeepRows(mu, lambda c: Decimal(c.numerator) / c.denominator)
        rest, size_sum = _deep_sum(mu, rows, Decimal(t), Decimal(s), lam,
                                   Decimal(10) ** -(digits + 1))
        return float(rest), float(size_sum)


def _relay_outage_deep(cut: float, mu: int, omega_sr: float, omega_rd: float,
                       noise_scale: float, *, first_hop: float | None = None) -> float:
    """Relay-branch outage from the small-argument series, without cancellation.

    The q = 0 row of :func:`_deep_coefficients` is sum_{p<mu} t**p / p!,
    whose product with exp(-t) is the regularized upper incomplete gamma
    function, so the outage is P(mu, t) - exp(-t) * R with P the
    regularized lower incomplete gamma function (``numerics.gamma_p``)
    and R the rows q >= 1.  Both parts are non-negative (R <= 0: the first hop
    failing alone is part of the outage), so nothing cancels against 1.

    R itself is an alternating series whose terms grow with s, as
    I_n(2 sqrt(s)) does: near the switch at mu = 12 its terms are 1e6
    times R, at mu = 20 1e14 times.  Where that ratio times the
    rounding unit of the working precision exceeds 1e-11 (a ratio above
    1e5 in double precision), R is summed again in decimal arithmetic
    at 32, 64 and then 111 digits, the digits of the stored
    Euler-Mascheroni constant.  ``first_hop`` is P(mu, t) where the
    caller has it already.
    """
    t = mu * cut / omega_sr
    # the quotient under the Bessel sum's square root, so s > 0 wherever that sum ran
    s = mu * mu * (cut * noise_scale / omega_sr / omega_rd)
    lam = math.log(s) + 2.0 * _EULER_GAMMA
    rest, size_sum = _deep_sum(mu, _deep_rows(mu), t, s, lam, 1e-17)
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
    if first_hop is None:
        first_hop = gamma_p(mu, t)
    return first_hop - math.exp(-t) * rest


def relay_outage_closed(cut: float, *, mu: int, omega_sr: float, omega_rd: float,
                        noise_scale: float) -> float:
    """Outage of the fixed-gain relay branch at gain cut ``cut``.

    Probability that the cascaded first-hop gain y and second-hop gain w
    fail the decode condition ``y > cut and w >= cut * noise_scale /
    (y - cut)``.  Integrating the first-hop density against the
    second-hop CDF gives, by Gradshteyn-Ryzhik 3.471.9, a double sum of
    K_nu(2 sqrt(s)) with s = (mu / omega_sr) (mu / omega_rd) noise_scale
    cut, evaluated in double precision as 1 minus the sum, with every
    e^x K_n(x) of a call from one ``numerics.bessel_k_scaled`` recurrence.

    Once that bracket drops below 1e-6 it cancels against 1, and the
    deep branch (:func:`_relay_outage_deep`) takes over: every K_n is
    expanded by DLMF 10.31.1, the terms that cancel are combined exactly
    in rational arithmetic, and the outage is P(mu, t) - exp(-t) R with
    P the regularized lower incomplete gamma function
    (``numerics.gamma_p``), t = (mu / omega_sr) cut and R <= 0 a power
    series in t, s and ln s, all in double precision.  The switch keeps s below
    about 6.1e-8, 5.4e-4, 0.015, 0.096, 0.32 and 0.79 at mu = 1..6 (the
    s at which the bracket reaches 1e-6 as t -> 0; the outage grows
    with t and s), where the series stays within about 2e-14 relative
    of a 20-digit reference; at larger mu, where s reaches further, the
    series is summed again in decimal arithmetic once it cancels by more
    than 1e5.  Results at or above 1e-6 come from the Bessel sum, except
    at mu <= 6 in the band [1e-5, 1e-3): there the sum keeps only 11 to
    13 of its 16 digits, and the deep series in double precision, which
    cancels by at most 860 up to 1e-3, serves the value instead (within
    about 2e-14 of mpmath, where the sum is off by up to 2.4e-10).

    Which branch serves a call is decided as follows.  Where the call
    may land below the band's top (mu <= 6, s below the s at which the
    outage of its mu reaches 1e-3 as t -> 0, and the first-hop CDF
    P(mu, t), a lower bound of the outage, below 1e-3), the deep series
    runs first in double precision.  A value in the band is returned,
    and so is one below 1e-6 * (1 - 1e-4), since the Bessel sum, within
    about 2e-9 relative of the series there, would fall below the switch
    too.  Every other call evaluates the Bessel sum, keeps it at or above
    1e-6 and otherwise takes the deep branch, reusing the series value
    where it ran.  Outside the band each result is bit for bit the one the
    Bessel sum's own switch gives.

    Returns exactly 0.0 at ``cut = 0``, exactly 1.0 once the bracket
    underflows to zero (deep outage), and the first-hop CDF where s
    underflows to zero.  ``mu``, the hop means and ``noise_scale`` are
    checked once per law (:func:`_check_relay_law`), ``cut`` on every
    call; a bad value raises ``ValueError``.
    """
    _check_relay_law(mu, omega_sr, omega_rd, noise_scale)
    cut = float(cut)
    if math.isnan(cut) or cut < 0:
        raise ValueError(f"cut must be >= 0, got {cut}")
    if cut == 0.0:
        return 0.0
    # the hop means divide one at a time, so their product cannot overflow
    s = mu * mu * (cut * noise_scale / omega_sr / omega_rd)
    # the relay succeeds with probability at most 4**mu exp(-sqrt(s))
    # (Chernoff bound on (y - cut) w >= cut noise_scale at half the hop
    # rates), so past the second test every term of the Bessel sum underflows
    t = mu * cut / omega_sr
    if t > _EXP_UNDERFLOW or math.sqrt(s) - mu * math.log(4.0) > _EXP_UNDERFLOW:
        return 1.0
    if s == 0.0:  # no forwarded noise at double precision: only the first hop fails
        return gamma_p(mu, t)
    args = (cut, mu, omega_sr, omega_rd, noise_scale)
    deep = None
    # the outage is at least the first-hop CDF P(mu, t), so these
    # tests only let through calls that may land below the band's top;
    # there the double-precision series cancels by at most about 864
    # (mu = 6), far from the 1e5 at which it is summed again in decimal
    if (mu <= len(_DEEP_S_MAX) and s < _DEEP_S_MAX[mu - 1]
            and (first_hop := gamma_p(mu, t)) < _DEEP_BAND[1]):
        deep = _relay_outage_deep(*args, first_hop=first_hop)
        if (deep < _DEEP_SWITCH * (1.0 - _DEEP_FIRST_MARGIN)
                or _DEEP_BAND[0] <= deep < _DEEP_BAND[1]):
            return deep
    value = _relay_outage_f64(*args)
    if value >= _DEEP_SWITCH:
        return value
    return _relay_outage_deep(*args) if deep is None else deep


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

def point_links(cfg: ScenarioConfig, rho) -> tuple[Link, ...]:
    """Direct-link law, sort index and decode cuts of every served user over ``rho``.

    One entry per user of :func:`served_users`, in decode order, all from
    one :func:`stage_cuts` evaluation.  A user's decode cut is the running
    maximum of the stage cuts up to its :func:`decode_depth`: the
    far-message cut for ``'far'``, the larger of that cut (SIC stage) and
    the near-message cut for ``'near'``, the largest of the first m cuts
    for single-slot user m.

    ``rho`` is a 1-D sequence of SNRs (a config's whole grid): each
    user's law and index are built once and its cuts are an ndarray over
    the grid.
    """
    cuts = itertools.accumulate(stage_cuts(cfg, rho), np.maximum)
    return tuple((FadingParams(cfg.mu, omega), OrderedIndex(rank, cfg.pool), cut)
                 for omega, rank, cut in zip(cfg.omega, cfg.ranks, cuts, strict=True))


def _relay_factors(cfg: ScenarioConfig, cuts: list[float]) -> list[float]:
    """Relay factor of each cut: the relay outage with a relay, 1.0 without."""
    if not cfg.has_relay:
        return [1.0] * len(cuts)
    return [relay_outage(cfg, cut) for cut in cuts]


def _exact(link: Link, relay: list[float]) -> np.ndarray:
    """Exact outage of ``link`` over its cuts, given their relay factors."""
    params, idx, cuts = link
    # an infinite cut reads 1 from the ordered CDF, a zero cut 0
    return ordered_cdf(params, idx, cuts) * relay


def link_exact(cfg: ScenarioConfig, link: Link) -> np.ndarray:
    """Exact outage of one :func:`point_links` entry of ``cfg`` over its
    cuts: the ordered CDF times the relay factor, the first of the two
    forms of :func:`link_outage`, value for value."""
    return _exact(link, _relay_factors(cfg, link[2].tolist()))


def link_outage(cfg: ScenarioConfig, link: Link) -> tuple:
    """Exact and high-SNR outage of one :func:`point_links` entry of ``cfg``.

    The exact outage is the ordered CDF of the user's direct gain at its
    decode cut times the relay factor, since the user is served by
    selection over two independent branches.  The high-SNR form replaces
    the ordered CDF by its leading small-argument term, which decays with
    exponent mu times the user's sort rank; the relay factor decays like
    rho**-mu * ln(rho) and is kept exact, since no closed form of its
    leading term is implemented yet.  The high-SNR form is clamped to 1
    where the expansion exceeds unity (low SNR, outside its regime).
    Both are (1, 1) where the power split cannot support the user's rates
    (infinite cut) and (0, 0) at a zero cut (zero rates).

    Returns two ndarrays over the link's cuts, from one
    :func:`~noma_perf.fading.ordered_cdf` call and, with a relay, one
    relay evaluation per cut.
    """
    params, idx, cuts = link
    relay = _relay_factors(cfg, cuts.tolist())
    asym = np.array([min(1.0, lead * factor) for lead, factor in
                     zip(ordered_cdf_small_arg(params, idx, cuts).tolist(), relay)])
    return _exact(link, relay), asym


def point_outages(cfg: ScenarioConfig, rho) -> list[tuple]:
    """(exact, high-SNR) outage of every served user over the SNR grid
    ``rho``, in :func:`served_users` order, each form an ndarray over the
    grid (see :func:`link_outage`)."""
    return [link_outage(cfg, link) for link in point_links(cfg, rho)]


def _user_link(cfg: ScenarioConfig, rho: float, user: str | int) -> Link:
    """The :func:`point_links` entry of a served user (see :func:`decode_depth`)
    over the one-element grid ``[rho]``."""
    depth = decode_depth(cfg, user)
    return point_links(cfg, [rho])[depth - 1]


def user_outage(cfg: ScenarioConfig, rho: float,
                user: str | int) -> tuple[float, float]:
    """Exact and high-SNR outage of one served user at transmit SNR ``rho``.

    ``user`` is one of :func:`served_users`, equal in type and value:
    ``'far'``/``'near'`` with a relay, the 1-based served index (an
    ``int``) without; anything else raises ``ValueError``.  See
    :func:`link_outage` for the two forms, evaluated here on the
    one-element grid ``[rho]`` and returned as floats.
    """
    exact, asym = link_outage(cfg, _user_link(cfg, rho, user))
    return exact.item(), asym.item()


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


def outage_oma(cfg: ScenarioConfig, rho):
    """Outage of an orthogonal-access baseline carrying the same total rate.

    The strongest served user, the last of :func:`served_users` (the
    near user, or single-slot user M), is scheduled alone at the sum of
    the target rates, with its direct-link law and sort index as in
    :func:`point_links`.  With a relay, the relay still serves that user in
    the second slot (selection over both branches, each with the two-slot
    threshold cut); without one, the baseline keeps one slot and one
    user.  A zero total rate gives a zero cut and an outage of exactly 0.
    ``rho`` is a 1-D sequence of SNRs, and the outage an ndarray over it:
    :func:`link_exact` of that user's OMA link.
    """
    rhos = _rho_grid(rho)
    with np.errstate(over="ignore"):  # a quotient past the double range is inf
        cuts = threshold_snr(math.fsum(cfg.rates), 2 if cfg.has_relay else 1) / rhos
    return link_exact(cfg, (FadingParams(cfg.mu, cfg.omega[-1]),
                            OrderedIndex(cfg.ranks[-1], cfg.pool), cuts))


# =====================================================================
# Names that perfbench/tracing.py:TRACED pins, bound to the functions
# whose spans they name
# =====================================================================

coop_cuts = direct_cuts = stage_cuts
far_outage_parts = near_outage_parts = link_outage
outage_far_exact = outage_near_exact = outage_direct_exact = link_outage
outage_far_asymptotic = outage_near_asymptotic = outage_direct_asymptotic = link_outage
throughput_coop = throughput_direct = throughput
