"""Special-function and combinatorial primitives.

Everything in this module is generic numerics: log-domain gamma/Bessel
evaluation and adaptive quadrature over semi-infinite intervals.  The
closed-form outage layer and the quadrature oracles build on these;
nothing here knows about channels or SNR.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate, special

logger = logging.getLogger(__name__)

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "bessel_k_scaled",
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
