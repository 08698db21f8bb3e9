"""Rate analysis of two-relay reception with an unknown Gaussian interferer.

The package evaluates the closed-form achievable rates of a dithered
modulo-lattice compress-and-forward scheme and the matching outer bounds
(cut-set everywhere, plus a tighter modulo bound when both relays hear the
signal), certifies the constant-bit gaps between them, estimates pre-log
scaling laws and link-capacity regions, and cross-checks the scheme's
algebra by Monte Carlo simulation.

The closed forms (`model`, `achievable`, `bounds`) load with the package;
the grid layer (`scaling`) and the simulator (`lattice_sim`) load on first
access to one of their exports, so a caller of the closed forms alone pays
for neither.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys
from importlib import import_module as _import_module

if "numpy" not in _sys.modules and "NPY_ENABLE_CPU_FEATURES" not in _os.environ:
    # numpy reads it as it loads, and refuses it next to the ENABLE one (see `model`)
    _os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4")

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
    cutset_case_c,
    full_cooperation_capacity,
    modulo_bound_case_c,
    outer_bounds,
)
from .model import (
    INFINITE_CAPACITY,
    ChannelConfig,
    ScenarioCase,
    gaussian_mi,
    make_preset,
)

#: The exports of the layers that load on first use, by defining module.
_LAZY = {
    "scaling": (
        "GapCertificate",
        "RegionPolygon",
        "ScalingEstimate",
        "certify_gaps",
        "cutset_looseness_demo",
        "estimate_prelog",
        "interference_info_lower_bound",
        "coupled_capacity_rate_fn",
        "required_region_case_c",
        "sweep_sum_capacity",
    ),
    "lattice_sim": (
        "CoverageConfig",
        "CoverageResult",
        "CryptoLemmaStats",
        "SimConfig",
        "SimStats",
        "coverage_experiment",
        "crypto_lemma_check",
        "run_lattice_sim",
        "sw_rate_check",
    ),
}


__all__ = [
    "__version__",
    "INFINITE_CAPACITY",
    "ChannelConfig",
    "ScenarioCase",
    "gaussian_mi",
    "make_preset",
    "BoundReport",
    "MODULO_BOUND_CONSTANT",
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
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))
