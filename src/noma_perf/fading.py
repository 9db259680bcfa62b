"""Nakagami-m channel statistics in the power-gain domain.

A Nakagami-m amplitude with integer shape ``mu`` and mean square ``omega``
has a squared envelope (the channel power gain) that is gamma distributed
with shape ``mu`` and mean ``omega``.  All distribution work here runs in
that power-gain domain: density, CDF, the CDF/PDF of the m-th smallest of
M i.i.d. gains, small-argument leading terms for high-SNR analysis, and
reproducible sampling.

The ordered CDF is the binomial tail of the plain CDF
(``numerics.binomial_tail``, the regularized incomplete beta function),
summed in positive terms from the side away from its mode, so no pool
makes it cancel; the alternating binomial sum in the plain CDF that it
equals cancels as the pool grows (relative errors of 4e-9 at a pool of
20, 0.16 at 40 and 1 at 60 in a sample).  Its independent check is the
tanh-sinh quadrature of the order-statistic density in
``validation.ordered_cdf_quadrature``.  Every density and CDF here takes
an ndarray and returns one: the plain and order-statistic densities and
the plain CDF a batch of quadrature nodes, the ordered CDF and its
leading term the 1-D array of one user's cuts over a config's SNR grid,
each element computed independently of the others.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .numerics import binomial_tail, gamma_p_grid, log_binomial

logger = logging.getLogger(__name__)

__all__ = [
    "FadingParams",
    "OrderedIndex",
    "gamma_cdf",
    "gamma_pdf",
    "ordered_cdf",
    "ordered_cdf_small_arg",
    "ordered_pdf",
    "sample_gain",
    "sample_sorted_gains",
]


# =====================================================================
# Parameter containers
# =====================================================================

@dataclass(frozen=True)
class FadingParams:
    """Shape and mean of one gamma-distributed channel power gain.

    Attributes
    ----------
    mu : int
        Integer fading severity (shape); 1 recovers Rayleigh power fading.
    omega : float
        Mean power gain, strictly positive.
    """

    mu: int
    omega: float

    def __post_init__(self) -> None:
        if not isinstance(self.mu, (int, np.integer)) or isinstance(self.mu, bool):
            raise ValueError(f"mu must be an integer, got {self.mu!r}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if not (isinstance(self.omega, (int, float, np.floating, np.integer))
                and math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega!r}")

    @property
    def rate(self) -> float:
        """Exponential rate mu / omega of each gamma summand."""
        return self.mu / self.omega


@dataclass(frozen=True)
class OrderedIndex:
    """Position of one user in an ascending sort of i.i.d. gains.

    Attributes
    ----------
    rank : int
        1-based position after sorting ascending (1 = weakest).
    total : int
        Number of i.i.d. gains sorted.
    """

    rank: int
    total: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, (int, np.integer)) or isinstance(self.rank, bool):
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        if not isinstance(self.total, (int, np.integer)) or isinstance(self.total, bool):
            raise ValueError(f"total must be an integer, got {self.total!r}")
        if self.total < 1 or not 1 <= self.rank <= self.total:
            raise ValueError(
                f"need 1 <= rank <= total with total >= 1, got rank={self.rank}, total={self.total}"
            )


# =====================================================================
# Single-gain density and CDF
# =====================================================================

def _gamma_log_pdf_inside(p: FadingParams, xs: np.ndarray) -> np.ndarray:
    """Log density of the power gain at nodes ``xs`` already inside (0, inf)."""
    rate = p.rate
    if rate == math.inf:
        # a mean below mu / DBL_MAX puts all mass at 0: no density inside
        return np.full(np.shape(xs), -math.inf)
    # log-domain assembly keeps mu**mu / omega**mu from overflowing first
    # rate * xs may pass the double range: inf there, where the density is 0
    with np.errstate(over="ignore"):
        decay = rate * xs
    return p.mu * math.log(rate) - math.lgamma(p.mu) + (p.mu - 1) * np.log(xs) - decay


def gamma_pdf(p: FadingParams, x):
    """Density of the power gain at the ndarray ``x``, zero for x <= 0 and x = inf.

    A mean so small that ``mu / omega`` overflows puts all mass at 0, so
    the density is zero everywhere.
    """
    x = np.asarray(x, dtype=float)
    pos = (x > 0) & (x < math.inf)
    return np.where(pos, np.exp(_gamma_log_pdf_inside(p, np.where(pos, x, 1.0))), 0.0)


def gamma_cdf(p: FadingParams, x):
    """CDF of the power gain at the ndarray ``x``, zero for x <= 0.

    Evaluated as the regularized lower incomplete gamma function
    P(mu, mu * x / omega) (``numerics.gamma_p_grid``), which for integer
    ``mu`` equals one minus the truncated exponential series of that
    argument.  A mean so small that ``mu / omega`` overflows puts all
    mass at 0, where the CDF steps to 1.
    """
    x = np.asarray(x, dtype=float)
    if p.rate == math.inf:
        return np.where(x > 0, 1.0, 0.0)
    # a product past the double range is inf, where the CDF is exactly 1
    with np.errstate(over="ignore"):
        arg = np.maximum(x, 0.0) * p.rate
    return gamma_p_grid(p.mu, arg)


# =====================================================================
# Order statistics of M i.i.d. gains
# =====================================================================

def ordered_cdf(p: FadingParams, idx: OrderedIndex, x):
    """CDF of the rank-th smallest of ``total`` i.i.d. gains at ``x``.

    The rank-th smallest gain is below x exactly when at least ``rank``
    of the ``total`` gains are: the binomial tail sum_{j >= rank}
    C(total, j) F^j (1 - F)^(total - j) in the plain CDF F(x), the
    regularized incomplete beta function I_F(rank, total - rank + 1).
    ``numerics.binomial_tail`` sums it in positive terms from the side
    away from its mode, with Loader's saddle-point form for the first
    term, and integrates the beta density on that side where the sum
    would take more than 1000 terms, so its work is bounded for any
    pool; results below the double range clamp to 0.0 with a debug log
    entry.

    ``x`` is a 1-D array of cuts, such as one user's cuts over a config's
    SNR grid, and the result an ndarray over it: one ``gamma_cdf`` call
    gives every F, and the tail is summed per element, so each value is
    independent of the others.
    """
    xs = np.asarray(x, dtype=float)
    m, total = idx.rank, idx.total
    tails = []
    for v, f in zip(xs.tolist(), gamma_cdf(p, xs).tolist()):
        # F is 0 or 1 exactly at the edges (x <= 0, x = inf), where the
        # tail equals it, and NaN at a NaN cut
        tail = binomial_tail(m, total, f) if 0.0 < f < 1.0 else f
        if tail == 0.0 < f:
            logger.debug("ordered_cdf underflow: rank=%d total=%d x=%.3e, clamping to 0",
                         m, total, v)
        tails.append(tail)
    return np.array(tails)


def ordered_pdf(p: FadingParams, idx: OrderedIndex, x):
    """Density of the rank-th smallest of ``total`` i.i.d. gains at ``x``.

    ``x`` is an ndarray (the quadrature oracle passes one level of nodes
    at a time); the density is zero outside (0, inf).
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & np.isfinite(x)
    xs = np.where(inside, x, 1.0)
    big_f = gamma_cdf(p, xs)
    m, total = idx.rank, idx.total
    # one exponent, so F**(rank-1) cannot underflow before the prefactor
    # applies; the boundary ranks drop their power, which is 1 at F in {0, 1}
    log_pdf = (math.log(total) + log_binomial(total - 1, m - 1)
               + _gamma_log_pdf_inside(p, xs))
    with np.errstate(divide="ignore"):  # log 0 = -inf, where the density is 0
        if m > 1:
            log_pdf += (m - 1) * np.log(big_f)
        if total > m:
            log_pdf += (total - m) * np.log1p(-big_f)
    return np.where(inside, np.exp(log_pdf), 0.0)


def ordered_cdf_small_arg(p: FadingParams, idx: OrderedIndex, x):
    """Leading small-argument term of the ordered CDF.

    Equals C(total, rank) * [(mu*x/omega)^mu / mu!]^rank, the dominant
    behaviour as x -> 0; decays with exponent mu * rank.  Not clamped:
    past the double range (large x, mu or rank) it returns ``math.inf``.
    ``x`` is a 1-D array of cuts, and the result an ndarray over it.
    """
    log_c, rate, lgamma_mu1 = log_binomial(idx.total, idx.rank), p.rate, math.lgamma(p.mu + 1)
    out = []
    for v in np.asarray(x, dtype=float).tolist():
        if v <= 0:
            out.append(0.0)
            continue
        try:
            out.append(math.exp(log_c + idx.rank * (p.mu * math.log(v * rate) - lgamma_mu1)))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


# =====================================================================
# Sampling
# =====================================================================

def _shape(size) -> tuple[int, ...]:
    return () if size is None else (tuple(size) if isinstance(size, (tuple, list)) else (size,))


def sample_gain(p: FadingParams, rng: np.random.Generator, size=None, *, out=None):
    """Draw power gains as gamma(mu, omega / mu) variates, one generator call a draw.

    ``rng.standard_gamma(mu)`` draws each gain (Marsaglia & Tsang's
    squeeze-and-reject method), then the draw is scaled by
    ``omega / mu``.  At mu = 1 the gains come from
    ``rng.standard_exponential`` instead: that ziggurat sampler is the
    branch ``standard_gamma`` itself takes at shape 1, so the values and
    the generator's final state are the same bit for bit, without the
    shape dispatch (4.8 against 6.3 ns a gain on a 2-core Xeon, numpy
    2.4).  Returns shape ``size`` (a float for None).  With ``out``, a
    C-contiguous float64 array, the gains are drawn in place into it and
    ``out`` is returned (``size`` is then ignored); both paths give the
    same gains bit for bit for a generator in the same state.  Draws are
    bit-identical for the same numpy on the same platform; the rejection
    steps call the C library's ``log``, so in principle another platform
    could differ.
    """
    gains = np.empty(_shape(size)) if out is None else out
    if p.mu == 1:
        rng.standard_exponential(out=gains)
    else:
        rng.standard_gamma(p.mu, out=gains)
    scale = p.omega / p.mu
    if scale != 1.0:  # a unit-scale draw (omega == mu) skips an exact no-op
        gains *= scale
    return float(gains) if out is None and size is None else gains


# Compare-exchange networks (i, j) that sort 1..5 values ascending, with
# the fewest comparators known for each size (Knuth, TAOCP vol. 3,
# section 5.3.4); larger pools go to np.sort.
_SORT_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)),
}


# Pools per pass of a compare-exchange network.  A chunk's columns and
# its scratch column stay in a core's cache across the comparators, and
# each chunk costs three numpy calls a comparator.  Pools of 3 of a
# 262144-pool block (2-core Xeon), median ns a pool: 14.4 run at once,
# 7.7 in chunks of 8192, 7.1 of 32768, 8.5 of 65536.
_SORT_ROWS = 1 << 15


def _sort_pools(gains: np.ndarray) -> np.ndarray:
    """Sort ``gains`` ascending along its last axis, in place, and return it.

    Pools of at most 5 run a compare-exchange network of ``np.minimum``
    and ``np.maximum`` over the columns, ``_SORT_ROWS`` pools at a time
    (row chunks of each 2-D slice, so any strided view sorts in place),
    larger pools ``ndarray.sort``.  Every pool goes through the same
    comparators whatever its chunk, and both ways return elements of the
    input, so every pool comes out as the same values bit for bit as
    ``np.sort`` gives, ties included (the gains are never -0.0 or NaN,
    the only values a sort could reorder differently).
    """
    network = _SORT_NETWORKS.get(gains.shape[-1])
    if network is None:
        gains.sort(axis=-1)
        return gains
    table = gains[np.newaxis] if gains.ndim == 1 else gains
    scratch = np.empty(min(table.shape[-2], _SORT_ROWS))
    for lead in np.ndindex(table.shape[:-2]):
        rows = table[lead]
        for start in range(0, len(rows), _SORT_ROWS):
            chunk = rows[start:start + _SORT_ROWS]
            low = scratch[:len(chunk)]
            for i, j in network:
                a, b = chunk[:, i], chunk[:, j]
                np.minimum(a, b, out=low)
                np.maximum(a, b, out=b)
                a[...] = low
    return gains


def sample_sorted_gains(p: FadingParams, total: int, rng: np.random.Generator, size=None,
                        *, out=None) -> np.ndarray:
    """Draw ``total`` i.i.d. gains and sort ascending along the last axis.

    Element ``rank - 1`` of the result realizes the rank-th order
    statistic.  Returns shape ``(total,)`` or ``size + (total,)``; with
    ``out`` (C-contiguous float64 whose last axis is ``total``) the gains
    are drawn by :func:`sample_gain` into it and sorted in place by
    ``_sort_pools``, and ``out`` is returned.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if out is None:
        out = np.empty(_shape(size) + (total,))
    elif out.shape[-1:] != (total,):
        raise ValueError(f"out must end in an axis of {total} gains, got shape {out.shape}")
    return _sort_pools(sample_gain(p, rng, out=out))
