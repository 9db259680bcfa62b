"""Special-function and combinatorial primitives.

Everything in this module is generic numerics: log-domain gamma/Bessel
evaluation, adaptive quadrature over semi-infinite intervals, and the
integer compositions / multinomial weights that show up when a truncated
exponential series is raised to an integer power.  The closed-form outage
layer builds on these; nothing here knows about channels or SNR.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from scipy import integrate, special

logger = logging.getLogger(__name__)

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "bessel_k_scaled",
    "compositions",
    "integrate_semi_infinite",
    "log_binomial",
    "log_gamma",
    "log_multinomial",
    "sum_signed_exp",
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
# Semi-infinite quadrature
# =====================================================================

@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    Attributes
    ----------
    value : float
        Estimated integral.
    error : float
        Reported absolute error estimate.
    converged : bool
        True when the integrator met its tolerance targets.
    """

    value: float
    error: float
    converged: bool


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to converge.

    Carries the best available estimate so diagnostics can still report
    a number alongside the failure.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def integrate_semi_infinite(
    fn: Callable[[float], float],
    lower: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-300,
    max_subdivisions: int = 200,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Integrate ``fn`` over (lower, infinity) with adaptive quadrature.

    Uses QUADPACK's semi-infinite rule, which maps the tail onto a finite
    interval before subdividing adaptively.  ``abs_tol`` defaults to a
    near-zero floor so that tiny tail integrals are still resolved to
    ``rel_tol`` relative accuracy rather than accepted as "small enough".

    Raises
    ------
    QuadratureError
        If the error estimate exceeds both tolerances and
        ``raise_on_failure`` is set.  With ``raise_on_failure=False`` a
        non-converged ``QuadratureResult`` is returned instead.
    """
    if not math.isfinite(lower):
        raise ValueError(f"integrate_semi_infinite requires a finite lower limit, got {lower}")
    value, err, info, *tail = integrate.quad(
        fn,
        lower,
        math.inf,
        epsabs=abs_tol,
        epsrel=rel_tol,
        limit=max_subdivisions,
        full_output=1,
    )
    ok = not tail and err <= max(abs_tol, rel_tol * abs(value))
    if not ok and raise_on_failure:
        message = tail[0] if tail else "error estimate above tolerance"
        raise QuadratureError(
            f"semi-infinite quadrature did not converge: {message}", value, err
        )
    return QuadratureResult(value=value, error=err, converged=ok)


# =====================================================================
# Compositions and multinomial weights
# =====================================================================

def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all length-``parts`` tuples of non-negative ints summing to ``total``.

    Deterministic lexicographic order (first slot slowest).  The number of
    tuples is C(total + parts - 1, parts - 1); callers expanding powers of a
    truncated series iterate this to enumerate cross terms.
    """
    if total < 0 or parts < 1:
        raise ValueError(f"compositions requires total >= 0 and parts >= 1, got {total}, {parts}")
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def log_multinomial(total: int, parts: Sequence[int]) -> float:
    """Log multinomial coefficient total! / prod(parts!), validating the sum.

    ``parts`` must be non-negative and sum exactly to ``total``.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"log_multinomial requires non-negative parts, got {tuple(parts)}")
    if sum(parts) != total:
        raise ValueError(
            f"log_multinomial parts must sum to total: sum{tuple(parts)} != {total}"
        )
    return log_gamma(total + 1) - math.fsum(log_gamma(p + 1) for p in parts)


def sum_signed_exp(log_terms: Sequence[float], signs: Sequence[int]) -> float:
    """Compensated evaluation of sum_i signs[i] * exp(log_terms[i]).

    Terms are rescaled by the largest magnitude before exponentiation so
    the mantissa sum runs near unit scale, then accumulated with exact
    (fsum) summation.  Intended for alternating series whose terms are
    much larger than their sum; the result is still limited by the
    cancellation inherent to the input, which callers must budget for.
    """
    if len(log_terms) != len(signs):
        raise ValueError("log_terms and signs must have equal length")
    if not log_terms:
        return 0.0
    peak = max(log_terms)
    if peak == -math.inf:
        return 0.0
    mantissa = math.fsum(
        s * math.exp(l - peak) for l, s in zip(log_terms, signs) if l > -math.inf
    )
    return math.exp(peak) * mantissa
