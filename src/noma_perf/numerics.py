"""Special-function, combinatorial and quadrature primitives.

Everything in this module is generic numerics.  The integer-shape
special functions serve the closed forms: the regularized lower
incomplete gamma function P(mu, x), exponentially scaled modified
Bessel functions e^x K_n(x) and the binomial tail, each at integer
shapes and orders, in double precision from committed constant tables
(``tests/make_kernel_tables.py``).  The rest is the log-domain binomial
coefficient and double-exponential quadrature, the exp-sinh rule over
(lower, infinity) and the tanh-sinh rule over (0, upper).  Both rules
integrate a batch of rows, one integral per row, in one level loop: each
refinement level evaluates the new nodes of every row not yet converged
as one (rows, nodes) array in a single call of the integrand, and a row
stops refining once its own two levels agree, so it gets exactly the
value a one-row run gives it.  The closed-form outage layer and the
quadrature oracles build on these; nothing here knows about channels or
SNR.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "bessel_k_scaled",
    "binomial_tail",
    "gamma_p",
    "gamma_p_grid",
    "integrate_from_zero",
    "integrate_semi_infinite",
    "log_binomial",
]


# =====================================================================
# Log-domain binomial coefficient
# =====================================================================

#: binomial coefficients with at most this many terms on their short side
#: are taken as exact integers where a double cannot carry the log-gamma
#: values (C(1000, 500) = 2.7e299 still fits a double)
_EXACT_COMB_MAX = 1000

def log_binomial(n: int, k: int) -> float:
    """Log of the binomial coefficient C(n, k) for 0 <= k <= n.

    A difference of log-gamma values up to n = 1000; past that, where
    those values grow so large that their difference loses its digits,
    the log of the exact integer C(n, min(k, n - k)) while that side
    has at most 1000 terms.
    """
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    if n > _EXACT_COMB_MAX and min(k, n - k) <= _EXACT_COMB_MAX:
        return math.log(math.comb(n, min(k, n - k)))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# =====================================================================
# Integer-shape special functions
# =====================================================================

# Constant tables, written by tests/make_kernel_tables.py from mpmath:
# Chebyshev coefficients of sqrt(x) e^x K_0(x) and K_1(x) for
# x > 2 in T_k(4/x - 1), the x <= 2 power-series coefficients of I_0,
# the K_0 harmonic sum, I_1 / (x/2) and the K_1 harmonic sum in
# q = x**2 / 4, and Stirling's-series remainders log(k!) - ((k + 1/2)
# log k - k + log sqrt(2 pi)) for k <= 15.
_K0_CHEB = (
    2.4403030820659555,
    -0.0314481013119645,
    0.0015698838857300533,
    -0.00012849549581627802,
    1.39498137188765e-05,
    -1.8317555227191195e-06,
    2.766813639445015e-07,
    -4.660489897687948e-08,
    8.574034017414225e-09,
    -1.6975345093890614e-09,
    3.5773972814003283e-10,
    -7.957489244477396e-11,
    1.8559491149549264e-11,
    -4.514597883374519e-12,
    1.1403405882073441e-12,
    -2.9800969231481784e-13,
    8.032890775068375e-14,
    -2.2275133267462965e-14,
    6.340076476276646e-15,
    -1.848593377920907e-15,
    5.5120559994043335e-16,
    -1.6782311257549006e-16,
    5.2103917776435543e-17,
    -1.6475805939842632e-17,
)
_K1_CHEB = (
    2.7206261904844427,
    0.10392373657681724,
    -0.002857816859622779,
    0.00019521551847135162,
    -1.936197974166083e-05,
    2.406484947837217e-06,
    -3.5019606030878126e-07,
    5.7410841254500495e-08,
    -1.0345762465678097e-08,
    2.0150497551970347e-09,
    -4.1903547593419254e-10,
    9.218315187605315e-11,
    -2.129967838427791e-11,
    5.139639673482343e-12,
    -1.2891739609498229e-12,
    3.348419666052243e-13,
    -8.976705182010146e-14,
    2.4771544242195988e-14,
    -7.0198370892147685e-15,
    2.038703166239861e-15,
    -6.057047270643018e-16,
    1.8380935752430455e-16,
    -5.689462849193648e-17,
    1.7940510478863572e-17,
)
_K_SERIES = (
    (1.0, 0.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 1.25),
    (0.25, 0.375, 0.08333333333333333, 0.2777777777777778),
    (0.027777777777777776, 0.05092592592592592, 0.006944444444444444, 0.027199074074074073),
    (0.001736111111111111, 0.003616898148148148, 0.00034722222222222224, 0.0015162037037037036),
    (6.944444444444444e-05, 0.0001585648148148148, 1.1574074074074073e-05, 5.4783950617283953e-05),
    (1.9290123456790124e-06, 4.72608024691358e-06, 2.755731922398589e-07, 1.3896762408667172e-06),
    (3.936759889140842e-08, 1.0207455998272325e-07, 4.920949861426052e-09, 2.613375872835907e-08),
    (6.151187326782565e-10, 1.6718048413148328e-09, 6.834652585313961e-11, 3.791062453869784e-10),
    (7.594058428126624e-12, 2.1483350211950277e-11, 7.594058428126623e-13, 4.3726106266713215e-12),
    (7.594058428126623e-14, 2.224275605476294e-13, 6.903689480115112e-15, 4.106898277957945e-14),
    (6.276081345559193e-16, 1.895299587006153e-15, 5.230067787965994e-17, 3.202416543243305e-16),
    (4.358389823304995e-18, 1.3525001839484812e-17, 3.352607556388458e-19, 2.1065588026621898e-18),
    (2.5789288895295828e-20, 8.201338813682637e-20, 1.842092063949702e-21, 1.1847776309828747e-20),
)
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)

#: Euler-Mascheroni constant
_EULER_GAMMA = 0.5772156649015329
_LOG_SQRT_2PI = 0.9189385332046728
#: the smallest positive normal double and its log; the binomial tail clamps below it
_TINY = 2.2250738585072014e-308
_LOG_TINY = math.log(_TINY)
#: largest shape whose P(mu, x) powers and factorials are taken directly;
#: larger shapes assemble the Poisson prefactor in logs
_DIRECT_MU = 40
#: P(mu, x) sums its series and its complement until the first omitted
#: term is below this fraction of the sum
_SERIES_TOL = 2.0 ** -56


class _GammaLaw:
    """Fixed per-shape constants of P(mu, x) for mu >= 2.

    Below ``switch`` = mu - sqrt(mu) (where P is about 0.12..0.16, so the
    complement loses at most a few bits) P is the Poisson weight
    e^-x x^mu / mu! times the series sum_k x^k / (mu+1)_k, and at or
    above it 1 minus e^-x sum_{k<mu} x^k / k!.  ``series`` holds that
    series' Horner coefficients, highest power first, as many as it
    needs at the switch (``series_tail`` without the first two);
    ``upper`` and ``upper_tail`` those of the complement, and ``one``
    the x past which the complement is below 2**-60, so P rounds to 1.
    Shapes above ``_DIRECT_MU`` keep instead the normalized factors
    1 / (mu + k) and (mu - 1 - k), so no coefficient or power leaves the
    double range, and take the Poisson weights e^-x x^a / a! (a = mu and
    mu - 1) in Loader's form exp(-stirlerr(a) - a (r - log(1 + r))) /
    sqrt(2 pi a) with r = (x - a) / a, whose error grows with |x - a|
    rather than with a log x (log(1 + r) is log1p(r) from r = -1/2 on,
    log x - log a below).
    """

    def __init__(self, mu: int):
        self.mu = mu
        self.switch = mu - math.sqrt(mu)
        terms, term, total = 0, 1.0, 1.0
        while term > _SERIES_TOL * total * (1.0 - self.switch / (mu + terms + 1)):
            terms += 1
            term *= self.switch / (mu + terms)
            total += term
        one = float(mu)
        while math.fsum(math.exp(k * math.log(one) - one - math.lgamma(k + 1))
                        for k in range(mu)) > 2.0 ** -60:
            one *= 1.125
        self.one = one
        self.direct = mu <= _DIRECT_MU
        if self.direct:
            # 1 / (mu+1)_k and 1 / k!, each rounded once from the exact integer
            rising = [math.prod(range(mu + 1, mu + k + 1)) for k in range(terms + 1)]
            series = [1.0 / r for r in reversed(rising)]
            upper = [1.0 / math.factorial(k) for k in reversed(range(mu))]
            self.inv_factorial = 1.0 / math.factorial(mu)
        else:
            series = [1.0 / (mu + k) for k in reversed(range(1, terms + 1))]
            upper = [float(mu - 1 - k) for k in reversed(range(mu - 1))]
            self.weights = {a: (-_stirlerr(a) - _LOG_SQRT_2PI - 0.5 * math.log(a), math.log(a))
                            for a in (mu, mu - 1)}
        # the first two coefficients open each Horner loop, over the tail
        self.series, self.series_tail = tuple(series), tuple(series[2:])
        self.upper, self.upper_tail = tuple(upper), tuple(upper[2:])


@functools.cache
def _gamma_law(mu: int) -> _GammaLaw:
    return _GammaLaw(mu)


def _gamma_p_lower(law: _GammaLaw, x, exp):
    """P(mu, x) below the switch, at a float ``x`` > 0 (``exp`` = math.exp)
    or elementwise over an ndarray (``exp`` = np.exp, updated in place)."""
    if law.direct:
        acc = x * law.series[0]
        acc += law.series[1]
        for c in law.series_tail:
            acc *= x
            acc += c
        power = x * x
        for _ in range(law.mu - 2):
            power *= x
        acc *= power
        weight = exp(-x)
        weight *= law.inv_factorial
        acc *= weight
        return acc
    acc = x * law.series[0]
    acc += 1.0
    acc *= x * law.series[1]
    acc += 1.0
    for c in law.series_tail:
        acc *= x * c
        acc += 1.0
    acc *= exp(_log_poisson(law, law.mu, x))
    return acc


def _gamma_p_upper(law: _GammaLaw, x, exp):
    """P(mu, x) at or above the switch, for ``x`` at most ``law.one``, as
    :func:`_gamma_p_lower` takes it."""
    if law.direct:
        acc = x * law.upper[0]
        acc += law.upper[1]
        for c in law.upper_tail:
            acc *= x
            acc += c
        acc *= exp(-x)
    else:
        w = 1.0 / x
        acc = w * law.upper[0]
        acc += 1.0
        acc *= law.upper[1] * w
        acc += 1.0
        for f in law.upper_tail:
            acc *= f * w
            acc += 1.0
        acc *= exp(_log_poisson(law, law.mu - 1, x))
    return 1.0 - acc


def _log_poisson(law: _GammaLaw, a: int, x):
    """log(e^-x x^a / a!) in Loader's form (see :class:`_GammaLaw`), at a
    float ``x`` > 0 or elementwise over an ndarray ``x`` >= 0."""
    log_norm, log_a = law.weights[a]
    r = (x - a) / a
    if isinstance(x, float):
        log_x = math.log1p(r) if r >= -0.5 else math.log(x) - log_a
    else:
        with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0, where P is 0
            log_x = np.where(r >= -0.5, np.log1p(np.maximum(r, -0.5)), np.log(x) - log_a)
    return log_norm - a * (r - log_x)


def gamma_p(mu: int, x: float) -> float:
    """Regularized lower incomplete gamma function P(mu, x) at integer mu >= 1.

    The CDF at ``x`` of a unit-rate gamma variate of shape ``mu``: at
    mu = 1 it is -expm1(-x); above, see :class:`_GammaLaw` for the
    series below the shape's switch and the complement at or above it
    (DLMF 8.7.1 and 8.4.10).  The term counts depend on mu alone.
    ``x`` is a float >= 0 (inf gives 1); :func:`gamma_p_grid` is the same
    function over an ndarray, with the same operations in the same order.
    """
    if mu == 1:
        return -math.expm1(-x)
    law = _gamma_law(mu)
    if x < law.switch:
        return _gamma_p_lower(law, x, math.exp) if x > 0.0 else 0.0
    return _gamma_p_upper(law, min(x, law.one), math.exp)


def gamma_p_grid(mu: int, x) -> np.ndarray:
    """:func:`gamma_p` over the ndarray ``x`` (values >= 0), elementwise.

    Each element takes the same operations as a one-element array holding
    it, whatever its neighbours: the series and the complement run over
    the whole array when one of them covers it, and over the masked
    elements otherwise.
    """
    x = np.asarray(x, dtype=float)
    if mu == 1:
        return -np.expm1(-x)
    law = _gamma_law(mu)
    low = x < law.switch
    count = np.count_nonzero(low)
    if count == x.size:
        return _gamma_p_lower(law, x, np.exp)
    if count == 0:
        return _gamma_p_upper(law, np.minimum(x, law.one), np.exp)
    out = np.empty(x.shape)
    out[low] = _gamma_p_lower(law, x[low], np.exp)
    high = ~low
    out[high] = _gamma_p_upper(law, np.minimum(x[high], law.one), np.exp)
    return out


# Horner rows of the x <= 2 series, highest power first, by number of
# terms: q up to _K_SERIES_REACH[K - 1] needs only the first K, as every
# series' first omitted term is then below 2**-60 (the sums are >= 1 and
# K_0 loses at most 4 bits to cancellation there)
_K_SERIES_HORNER = tuple(tuple(reversed(_K_SERIES[:k])) for k in range(len(_K_SERIES) + 1))
_K_SERIES_REACH = tuple(min((2.0 ** -60 / c) ** (1.0 / k) for c in _K_SERIES[k] if c)
                        for k in range(1, len(_K_SERIES)))
# Clenshaw pairs of the x > 2 expansions, highest order first, without a_0
_K_CHEB_CLENSHAW = tuple(zip(reversed(_K0_CHEB[1:]), reversed(_K1_CHEB[1:])))


def bessel_k_scaled(n: int, x: float) -> list[float]:
    """[e^x K_0(x), ..., e^x K_n(x)] at a float ``x`` > 0.

    For x <= 2, K_0 and K_1 come from their power series in q = x**2/4
    (DLMF 10.31.1-2), with as many of 14 terms as q needs; for x > 2
    from 24-term Chebyshev expansions of sqrt(x) e^x K_nu(x) in 8/x - 2,
    summed by Clenshaw's recurrence.  Higher orders follow from
    K_{j+1} = K_{j-1} + (2j/x) K_j (DLMF 10.29.1), which only adds
    positive terms and so is stable upwards.  Orders whose value passes
    the double range are inf.
    """
    if x <= 2.0:
        q = 0.25 * x * x
        i0 = h0 = i1 = h1 = 0.0
        for c_i0, c_h0, c_i1, c_h1 in _K_SERIES_HORNER[bisect.bisect_left(_K_SERIES_REACH, q) + 1]:
            i0 = i0 * q + c_i0
            h0 = h0 * q + c_h0
            i1 = i1 * q + c_i1
            h1 = h1 * q + c_h1
        log_half = math.log(0.5 * x) + _EULER_GAMMA
        # e^x = 1 + expm1(x) keeps the leading 1/x of K_1 to one rounding
        grow = math.expm1(x)
        k0 = h0 - log_half * i0
        k0 += k0 * grow
        inv, rest = 1.0 / x, 0.5 * x * (log_half * i1 - 0.5 * h1)
        k1 = inv + (rest + (inv + rest) * grow)
    else:
        # b_k = a_k + y b_{k+1} - b_{k+2}, and the sum is (b_0 - b_2) / 2
        y = 8.0 / x - 2.0
        b1 = b2 = d1 = d2 = 0.0
        for a0, a1 in _K_CHEB_CLENSHAW:
            b1, b2 = y * b1 - b2 + a0, b1
            d1, d2 = y * d1 - d2 + a1, d1
        root, y = math.sqrt(x), 0.5 * y
        k0 = (0.5 * _K0_CHEB[0] + y * b1 - b2) / root
        k1 = (0.5 * _K1_CHEB[0] + y * d1 - d2) / root
    out = [k0, k1]
    for j in range(1, n):
        out.append(out[j - 1] + 2.0 * j * out[j] / x)
    return out if n else [k0]


def _stirlerr(k: float) -> float:
    """log(k!) minus its Stirling approximation (k + 1/2) log k - k + log sqrt(2 pi)."""
    if k <= 15:
        return _STIRLERR[int(k)]
    k2 = 1.0 / (k * k)
    return (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - k2 / 1188) * k2) * k2) * k2) / k


def _bd0(x: float, mean: float, diff: float) -> float:
    """x log(x / mean) + mean - x, with ``diff`` = x - mean given exactly (Loader)."""
    total = x + mean
    if abs(diff) < 0.1 * total:
        v = diff / total
        s = diff * v
        ej = 2.0 * x * v
        v *= v
        j = 1
        while True:
            ej *= v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mean) - diff


def _log_binomial_term(j: int, n: int, mean: float, rest: float, diff: float) -> float:
    """log C(n, j) f**j (1 - f)**(n - j) for 1 <= j < n and 0 < f < 1,
    given the means ``mean`` = n f and ``rest`` = n (1 - f) and the
    deviation ``diff`` = j - n f.

    Loader's saddle-point form: Stirling remainders and two deviance
    terms bd0 (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000), so no large logs cancel even for pools far
    beyond 2**53; both deviances see the one difference ``diff``.
    """
    return (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
            - _bd0(float(j), mean, diff) - _bd0(float(n - j), rest, -diff)
            + 0.5 * math.log(n / (j * (n - j))) - _LOG_SQRT_2PI)


def _binomial_term(j: int, n: int, f: float) -> tuple[float, float]:
    """C(n, j) f**j (1 - f)**(n - j) and its log, for 1 <= j < n and 0 < f < 1.

    The log is Loader's form, whose error grows with its own magnitude.
    Where the exact coefficient fits a double and f**j is normal, the
    product C(n, j) * f**j * exp((n - j) log1p(-f)) is taken instead when
    its exponent is the smaller of the two: ``pow`` rounds f**j once
    however small it is.
    """
    nf = n * f
    log_term = _log_binomial_term(j, n, nf, n * (1.0 - f), j - nf)
    if n <= _EXACT_COMB_MAX:
        power = f ** j
        if power >= _TINY:
            exponent = (n - j) * math.log1p(-f)
            if abs(exponent) < abs(log_term):
                return math.comb(n, j) * power * math.exp(exponent), log_term
    return (math.exp(log_term) if log_term >= _LOG_TINY else 0.0), log_term


#: terms the summed binomial tail takes at most; a tail that needs more
#: (a spread sqrt(total f (1 - f)) above about 100) is integrated instead
_TAIL_TERMS = 1000
#: the tail integral stops where its integrand is below e**-45 of its
#: value at the cut, 2e-20 of it
_TAIL_LOG_REACH = -45.0


def binomial_tail(rank: int, total: int, f: float) -> float:
    """sum_{j >= rank} C(total, j) f**j (1 - f)**(total - j), for 0 < f < 1.

    This is the regularized incomplete beta function I_f(rank, total -
    rank + 1), the probability that at least ``rank`` of ``total``
    independent events of probability ``f`` occur.  rank = total is
    f**total and rank = 1 is -expm1(total log1p(-f)).  Otherwise the sum
    runs from the side away from the mode (total + 1) f: where rank lies
    at or above it, upwards from the term at ``rank``; below it, as 1
    minus the sum downwards from the term at rank - 1.  Either way the
    terms fall from the first one (:func:`_binomial_term`), and the sum
    stops once the rest is below 2**-54 of it.  A sum that would need
    more than 1000 terms, whose count grows like the spread sqrt(total f
    (1 - f)), is taken as the same side's integral of the beta density
    instead (:func:`_binomial_tail_integral`), so the work is bounded
    for any pool.  A result below the smallest normal double is 0.0.
    """
    if rank == total:
        power = f ** total
        return power if power >= _TINY else 0.0
    if rank == 1:
        return -math.expm1(total * math.log1p(-f))
    upward = rank >= (total + 1) * f
    odds = f / (1.0 - f)
    steps = range(rank, total) if upward else range(rank - 1, 0, -1)
    term = acc = 1.0
    for j in steps[:_TAIL_TERMS]:
        # next term over this one: below 1 and falling from the first term on
        ratio = (total - j) / (j + 1) * odds if upward else j / (total - j + 1) / odds
        term *= ratio
        acc += term
        if term * ratio <= (1.0 - ratio) * acc * 2.0 ** -54:
            break
    else:
        if (total - rank if upward else rank - 1) > _TAIL_TERMS:
            log_tail = _binomial_tail_integral(rank, total, f, upward)
            tail = math.exp(log_tail) if log_tail >= _LOG_TINY else 0.0
            return tail if upward else 1.0 - tail
    first, log_first = _binomial_term(rank if upward else rank - 1, total, f)
    if first >= _TINY:
        tail = first * acc
    else:
        log_tail = log_first + math.log(acc)
        tail = math.exp(log_tail) if log_tail >= _LOG_TINY else 0.0
    return tail if upward else 1.0 - tail


def _binomial_tail_integral(rank: int, total: int, f: float, upward: bool) -> float:
    """Log of the side of :func:`binomial_tail` away from the mode, as an integral.

    With j = rank - 1 and m = total - 1, the tail is the integral over t
    from 0 to f of the beta density total * C(m, j) t**j (1 - t)**(m - j)
    (DLMF 8.17.1), and 1 minus the tail the integral from f to 1.  Each
    runs over the offset w = |t - f| from the cut, where the density
    peaks within 1 / total of w = 0 and falls off log-concavely, so it is
    integrated by :func:`integrate_from_zero` up to the offset where it
    drops below e**-45 of its value at w = 0, doubled or halved from the
    spread sqrt(f (1 - f) / total) until it does.  The density is
    Loader's saddle-point form (:func:`_log_binomial_term`) with its
    deviation d = j - m t taken as the exactly rounded j - m f plus or
    minus m w, and its means as j - d and m - j + d, so no rounding of t
    or of m f, whose ulp passes the spread once m f passes 2**53, shifts
    the density.  The search for the offset stays within half the way to
    t = 0 or 1.  Returns the log of the integral (on the side
    ``upward`` says), -inf if it underflows.
    """
    j, m = rank - 1, total - 1
    # j - m f with f as the exact binary fraction it is, rounded once
    num, den = f.as_integer_ratio()
    d0 = (j * den - m * num) / den
    step = m if upward else -m
    log_total = math.log(total)

    def log_density(w: float) -> float:
        d = d0 + step * w
        return log_total + _log_binomial_term(j, m, j - d, m - j + d, d)

    peak = log_density(0.0)
    # the density there is far below e**-45 of its peak whenever the
    # sum would pass 1000 terms
    limit = 0.5 * (f if upward else 1.0 - f)
    reach = min(limit, math.sqrt(f * (1.0 - f) / total))
    while reach < limit and log_density(reach) - peak > _TAIL_LOG_REACH:
        reach = min(limit, 2.0 * reach)
    while log_density(0.5 * reach) - peak <= _TAIL_LOG_REACH:
        reach *= 0.5
    result = integrate_from_zero(
        lambda w, rows: np.array([[math.exp(log_density(v) - peak) for v in row]
                                  for row in w.tolist()]), reach)
    value = float(result.value[0])
    return peak + math.log(value) if value > 0.0 else -math.inf


# =====================================================================
# Double-exponential quadrature
# =====================================================================

#: the exp-sinh rule keeps |t| < 4.5, so its nodes reach from 2e-31 to
#: 5e30 past the lower limit
EXP_SINH_HALF_WIDTH = 4.5
#: the tanh-sinh rule keeps |t| < 3.5, so its outermost nodes sit 2.7e-23
#: of the interval from either end
TANH_SINH_HALF_WIDTH = 3.5
#: halvings of the unit step before a rule reports non-convergence
MAX_LEVELS = 10
#: a rule converges once two successive levels agree to this relative error
REL_TOL = 1e-12

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a double-exponential quadrature run over a batch of rows.

    Attributes
    ----------
    value : ndarray
        Estimated integral of each row, from the finest level that row
        evaluated.
    error : ndarray
        Absolute difference between the last two levels of each row.
    converged : bool
        True when every row's last two levels agreed to the relative
        tolerance; a rule with a row that does not converge raises
        instead of returning.
    """

    value: np.ndarray
    error: np.ndarray
    converged: bool


class QuadratureError(RuntimeError):
    """Raised when a row of a quadrature rule fails to converge.

    Carries the index ``row`` of the first row that failed and that
    row's best available estimate and error, so diagnostics can still
    report a number alongside the failure.
    """

    def __init__(self, message: str, estimate: float, error: float, row: int = 0):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.row = row


def _double_exponential(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    transform: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    rows: int,
    half_width: float,
    what: str,
) -> QuadratureResult:
    """Per-row trapezoid sums in t of fn(y(t)) * y'(t) over |t| < half_width.

    ``transform(t, active)`` maps an ndarray of t to the nodes y of the
    rows ``active``, shape (rows, nodes), and the weights y', of the same
    shape or (nodes,) when they do not depend on the row.  Level 0
    steps t by 1; each further level halves the step and evaluates only
    the new odd multiples of it, in one call ``fn(y, active)`` for every
    row still refining, so no node is evaluated twice.  A row stops once
    its two successive levels agree to ``REL_TOL`` relative, or as soon
    as its level sum is not finite; the others go on, up to
    ``MAX_LEVELS`` halvings.  Each row's level sum is its own dot
    product, so a row sees exactly the levels, and gets exactly the
    value, of a one-row run.
    """
    step = 1.0
    t = np.arange(-math.floor(half_width), math.floor(half_width) + 1.0)
    total = np.zeros(rows)
    value = np.full(rows, math.nan)
    error = np.full(rows, math.nan)
    active = np.arange(rows)
    for _ in range(MAX_LEVELS + 1):
        if not active.size:
            break
        y, weight = transform(t, active)
        values = fn(y, active)
        # one dot kernel call per row, as np.dot of two vectors makes; a
        # matrix product would sum each row in another order
        total[active] += np.vecdot(weight, values)
        previous, level = value[active], step * total[active]
        value[active] = level
        error[active] = diff = np.abs(level - previous)
        active = active[~((diff <= REL_TOL * np.abs(level)) | ~np.isfinite(level))]
        step *= 0.5
        t = np.arange(step, half_width, 2.0 * step)
        t = np.concatenate((-t[::-1], t))
    failed = np.flatnonzero(~(error <= REL_TOL * np.abs(value)))
    if failed.size:
        row = int(failed[0])
        raise QuadratureError(
            f"{what} quadrature did not converge: levels differ by {error[row]:.3g}"
            f" at value {value[row]:.6g}", float(value[row]), float(error[row]), row
        )
    return QuadratureResult(value=value, error=error, converged=True)


def _row_limits(limit, name: str) -> np.ndarray:
    """``limit`` as a 1-D float array of per-row limits; a scalar is one row."""
    limit = np.atleast_1d(np.asarray(limit, dtype=float))
    if limit.ndim != 1:
        raise ValueError(f"{name} takes a scalar or 1-D limit, got shape {limit.shape}")
    return limit


def integrate_semi_infinite(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower,
) -> QuadratureResult:
    """Integrate ``fn`` over (lower, infinity) with the exp-sinh rule, row by row.

    The nodes are y = lower + exp(pi/2 sinh t) (Takahasi & Mori 1974),
    which crowd double-exponentially towards ``lower`` and thin out
    towards infinity, so features many decades apart in scale are all
    resolved by one trapezoid sum in t.  ``lower`` holds one limit per
    row (a scalar is one row).  ``fn(y, rows)`` receives one level's
    nodes of the rows still refining, shape (len(rows), nodes), with
    ``rows`` their indices into ``lower``, and returns the integrand
    values there.  An integrand that decays at both ends is resolved to
    ``REL_TOL`` relative accuracy however small the integral is.

    Raises
    ------
    QuadratureError
        If two successive levels of some row never agree to ``REL_TOL``.
    """
    lower = _row_limits(lower, "integrate_semi_infinite")
    if not np.isfinite(lower).all():
        raise ValueError(f"integrate_semi_infinite requires finite lower limits, got {lower}")

    def transform(t, active):
        offset = np.exp(_HALF_PI * np.sinh(t))
        return lower[active, None] + offset, _HALF_PI * np.cosh(t) * offset

    return _double_exponential(fn, transform, lower.size, EXP_SINH_HALF_WIDTH, "semi-infinite")


def integrate_from_zero(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    upper,
) -> QuadratureResult:
    """Integrate ``fn`` over (0, upper) with the tanh-sinh rule, row by row.

    The nodes are y = upper / (1 + exp(-pi sinh t)), the tanh-sinh map
    written so that near 0 they equal upper * exp(pi sinh t) to full
    relative precision; a density vanishing like a power of y at 0
    therefore keeps its relative accuracy however small the integral.
    ``upper`` holds one limit per row; ``fn``, the rows and the stopping
    rule are as for :func:`integrate_semi_infinite`.

    Raises
    ------
    QuadratureError
        If two successive levels of some row never agree to ``REL_TOL``.
    """
    upper = _row_limits(upper, "integrate_from_zero")
    if not (np.isfinite(upper) & (upper > 0)).all():
        raise ValueError(f"integrate_from_zero requires finite upper limits > 0, got {upper}")

    def transform(t, active):
        decay = np.exp(-math.pi * np.sinh(t))
        top = upper[active, None]
        return top / (1.0 + decay), top * math.pi * np.cosh(t) * decay / (1.0 + decay) ** 2

    return _double_exponential(fn, transform, upper.size, TANH_SINH_HALF_WIDTH, "finite")
