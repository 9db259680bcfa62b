"""Special-function and combinatorial primitives.

Everything in this module is generic numerics: log-domain gamma/Bessel
evaluation and double-exponential quadrature, the exp-sinh rule over
(lower, infinity) and the tanh-sinh rule over (0, upper).  Both rules
evaluate every node of a refinement level in one vectorized call of the
integrand.  The closed-form outage layer and the quadrature oracles
build on these; nothing here knows about channels or SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "bessel_k_scaled",
    "integrate_from_zero",
    "integrate_semi_infinite",
    "log_binomial",
    "log_gamma",
]


# =====================================================================
# Log-domain special functions
# =====================================================================

def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Thin wrapper over ``math.lgamma`` with a strict domain check, so that
    callers never silently evaluate at the poles of gamma.
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_binomial(n: int, k: int) -> float:
    """Log of the binomial coefficient C(n, k) for 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return log_gamma(n + 1) - log_gamma(k + 1) - log_gamma(n - k + 1)


def bessel_k_scaled(order: int, x: float) -> float:
    """Exponentially scaled K_order(x) * exp(x), usable in log-domain sums.

    Avoids the underflow of plain K_v for large arguments: the scaled
    value decays only algebraically, so ``log(bessel_k_scaled(v, x)) - x``
    recovers log K_v(x) across the whole double range.
    """
    if order < 0 or order != int(order):
        raise ValueError(f"bessel_k_scaled requires an integer order >= 0, got {order}")
    if not x > 0:
        raise ValueError(f"bessel_k_scaled requires x > 0, got {x}")
    return float(special.kve(order, x))


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
    """Outcome of a double-exponential quadrature run.

    Attributes
    ----------
    value : float
        Estimated integral, from the finest level evaluated.
    error : float
        Absolute difference between the last two levels.
    converged : bool
        True when the last two levels agreed to the relative tolerance;
        a rule that does not converge raises instead of returning.
    """

    value: float
    error: float
    converged: bool


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails to converge.

    Carries the best available estimate so diagnostics can still report
    a number alongside the failure.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _double_exponential(
    fn: Callable[[np.ndarray], np.ndarray],
    transform: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    half_width: float,
    what: str,
) -> QuadratureResult:
    """Trapezoid sums in t of fn(y(t)) * y'(t) over |t| < half_width.

    ``transform`` maps an ndarray of t to the nodes y and weights y'.
    Level 0 steps t by 1; each further level halves the step and
    evaluates only the new odd multiples of it, in one call of ``fn``,
    so no node is evaluated twice.  The rule stops once two successive
    levels agree to ``REL_TOL`` relative, or after ``MAX_LEVELS``
    halvings, or as soon as a level sum is not finite.
    """
    step = 1.0
    t = np.arange(-math.floor(half_width), math.floor(half_width) + 1.0)
    total = 0.0
    value = error = math.nan
    for _ in range(MAX_LEVELS + 1):
        y, weight = transform(t)
        total += float(np.dot(weight, fn(y)))
        previous, value = value, step * total
        error = abs(value - previous)
        if error <= REL_TOL * abs(value) or not math.isfinite(value):
            break
        step *= 0.5
        t = np.arange(step, half_width, 2.0 * step)
        t = np.concatenate((-t[::-1], t))
    if not error <= REL_TOL * abs(value):
        raise QuadratureError(
            f"{what} quadrature did not converge: levels differ by {error:.3g}"
            f" at value {value:.6g}", value, error
        )
    return QuadratureResult(value=value, error=error, converged=True)


def integrate_semi_infinite(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float,
) -> QuadratureResult:
    """Integrate ``fn`` over (lower, infinity) with the exp-sinh rule.

    The nodes are y = lower + exp(pi/2 sinh t) (Takahasi & Mori 1974),
    which crowd double-exponentially towards ``lower`` and thin out
    towards infinity, so features many decades apart in scale are all
    resolved by one trapezoid sum in t.  ``fn`` receives each level's
    nodes as one ndarray and returns the integrand values there.  An
    integrand that decays at both ends is resolved to ``REL_TOL``
    relative accuracy however small the integral is.

    Raises
    ------
    QuadratureError
        If two successive levels never agree to ``REL_TOL``.
    """
    if not math.isfinite(lower):
        raise ValueError(f"integrate_semi_infinite requires a finite lower limit, got {lower}")

    def transform(t):
        offset = np.exp(_HALF_PI * np.sinh(t))
        return lower + offset, _HALF_PI * np.cosh(t) * offset

    return _double_exponential(fn, transform, EXP_SINH_HALF_WIDTH, "semi-infinite")


def integrate_from_zero(
    fn: Callable[[np.ndarray], np.ndarray],
    upper: float,
) -> QuadratureResult:
    """Integrate ``fn`` over (0, upper) with the tanh-sinh rule.

    The nodes are y = upper / (1 + exp(-pi sinh t)), the tanh-sinh map
    written so that near 0 they equal upper * exp(pi sinh t) to full
    relative precision; a density vanishing like a power of y at 0
    therefore keeps its relative accuracy however small the integral.
    ``fn`` and the stopping rule are as for
    :func:`integrate_semi_infinite`.

    Raises
    ------
    QuadratureError
        If two successive levels never agree to ``REL_TOL``.
    """
    if not (math.isfinite(upper) and upper > 0):
        raise ValueError(f"integrate_from_zero requires a finite upper limit > 0, got {upper}")

    def transform(t):
        decay = np.exp(-math.pi * np.sinh(t))
        return upper / (1.0 + decay), upper * math.pi * np.cosh(t) * decay / (1.0 + decay) ** 2

    return _double_exponential(fn, transform, TANH_SINH_HALF_WIDTH, "finite")
