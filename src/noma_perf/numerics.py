"""Combinatorial and quadrature primitives.

Everything in this module is generic numerics: the log-domain binomial
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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate_from_zero",
    "integrate_semi_infinite",
    "log_binomial",
]


# =====================================================================
# Log-domain binomial coefficient
# =====================================================================

def log_binomial(n: int, k: int) -> float:
    """Log of the binomial coefficient C(n, k) for 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


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
        # a matrix product would sum each row in another order
        total[active] += [np.dot(w, v) for w, v in zip(np.broadcast_to(weight, values.shape),
                                                       values)]
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
