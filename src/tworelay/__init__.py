"""Rate analysis of two-relay reception with an unknown Gaussian interferer.

The package evaluates the closed-form achievable rates of a dithered
modulo-lattice compress-and-forward scheme and the matching outer bounds
(cut-set everywhere, plus a tighter modulo bound when both relays hear the
signal), certifies the constant-bit gaps between them, estimates pre-log
scaling laws and link-capacity regions, and cross-checks the scheme's
algebra by Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .achievable import (
    AchievableReport,
    Scheme,
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_achievable,
    lattice_cf_report,
    local_decode_baseline,
)
from .bounds import (
    MODULO_BOUND_CONSTANT,
    BoundReport,
    cutset_case_a,
    cutset_case_b,
    cutset_case_c,
    full_cooperation_capacity,
    modulo_bound_case_c,
    outer_bounds,
)
from .lattice_sim import (
    CoverageConfig,
    CoverageResult,
    CryptoLemmaStats,
    SimConfig,
    SimStats,
    coverage_experiment,
    crypto_lemma_check,
    run_lattice_sim,
    sw_rate_check,
)
from .model import (
    INFINITE_CAPACITY,
    ChannelConfig,
    ScenarioCase,
    gaussian_mi,
    make_preset,
)
from .scaling import (
    GapCertificate,
    RegionPolygon,
    ScalingEstimate,
    certify_gaps,
    cutset_looseness_demo,
    estimate_prelog,
    interference_info_lower_bound,
    coupled_capacity_rate_fn,
    required_region_case_c,
    sweep_sum_capacity,
)

__all__ = [
    "__version__",
    "INFINITE_CAPACITY",
    "ChannelConfig",
    "ScenarioCase",
    "gaussian_mi",
    "make_preset",
    "BoundReport",
    "MODULO_BOUND_CONSTANT",
    "cutset_case_a",
    "cutset_case_b",
    "cutset_case_c",
    "modulo_bound_case_c",
    "full_cooperation_capacity",
    "outer_bounds",
    "AchievableReport",
    "Scheme",
    "achievable_case_a",
    "achievable_case_b",
    "achievable_case_c",
    "best_achievable",
    "lattice_cf_report",
    "local_decode_baseline",
    "ScalingEstimate",
    "RegionPolygon",
    "GapCertificate",
    "estimate_prelog",
    "coupled_capacity_rate_fn",
    "interference_info_lower_bound",
    "required_region_case_c",
    "certify_gaps",
    "cutset_looseness_demo",
    "sweep_sum_capacity",
    "SimConfig",
    "SimStats",
    "CoverageConfig",
    "CoverageResult",
    "CryptoLemmaStats",
    "run_lattice_sim",
    "crypto_lemma_check",
    "sw_rate_check",
    "coverage_experiment",
]
