"""Outage and throughput analysis for NOMA downlinks over Nakagami-m fading.

Two deployments are covered, both described by one ``ScenarioConfig``: a
two-user system assisted by a fixed-gain amplify-and-forward relay (the
config's three relay fields set), and a single-slot M-user system with
successive interference cancellation only (no relay fields).  The package
provides exact closed-form outage probabilities, their high-SNR
asymptotics, delay-limited throughput, an independent Monte Carlo
simulator, and quadrature oracles for validating the closed forms, plus
a CSV-emitting command line (``noma-perf``).
"""

from .configs import (
    ConfigError,
    ScenarioConfig,
    coop_preset,
    direct_preset,
    load_config_file,
    preset_configs,
    with_mu,
)
from .fading import FadingParams, OrderedIndex
from .analytic import (
    coop_cuts,
    direct_cuts,
    diversity_order_fit,
    outage_direct_asymptotic,
    outage_direct_exact,
    outage_far_asymptotic,
    outage_far_exact,
    outage_near_asymptotic,
    outage_near_exact,
    outage_oma,
    relay_outage,
    relay_outage_closed,
    sic_stages,
    stage_cuts,
    threshold_snr,
    throughput_coop,
    throughput_direct,
    user_outage,
)
from .montecarlo import (
    Estimate,
    TrialBatch,
    estimate_outage,
    estimate_outage_coop,
    estimate_outage_direct,
)
from .validation import (
    ComparisonRow,
    outage_oracle,
    relay_outage_quadrature,
    run_validation_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonRow",
    "ConfigError",
    "Estimate",
    "FadingParams",
    "OrderedIndex",
    "ScenarioConfig",
    "TrialBatch",
    "__version__",
    "coop_cuts",
    "coop_preset",
    "direct_cuts",
    "direct_preset",
    "diversity_order_fit",
    "estimate_outage",
    "estimate_outage_coop",
    "estimate_outage_direct",
    "load_config_file",
    "outage_direct_asymptotic",
    "outage_direct_exact",
    "outage_far_asymptotic",
    "outage_far_exact",
    "outage_near_asymptotic",
    "outage_near_exact",
    "outage_oma",
    "outage_oracle",
    "preset_configs",
    "relay_outage",
    "relay_outage_closed",
    "relay_outage_quadrature",
    "run_validation_suite",
    "sic_stages",
    "stage_cuts",
    "threshold_snr",
    "throughput_coop",
    "throughput_direct",
    "user_outage",
    "with_mu",
]
