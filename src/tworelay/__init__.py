"""Rate analysis of two-relay reception with an unknown Gaussian interferer.

The package evaluates the closed-form achievable rates of a dithered
modulo-lattice compress-and-forward scheme and the matching outer bounds
(cut-set everywhere, plus a tighter modulo bound when both relays hear the
signal), certifies the constant-bit gaps between them, estimates pre-log
scaling laws and link-capacity regions, and cross-checks the scheme's
algebra by Monte Carlo simulation.

Every layer (`model`, `bounds`, `achievable`, `scaling`, `lattice_sim`)
loads on first use of one of its names or of the layer by its own name, so
`import tworelay` alone imports no numpy, and a caller of the closed forms
pays for neither the grid layer nor the simulator.  Only `lattice_sim`
imports numpy as it loads: the closed forms evaluate a single point on
Python floats, and numpy loads, through `libm`, with the first array of a
grid, of a closed form's caller or of the simulator.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys
from importlib import import_module as _import_module

if "numpy" not in _sys.modules and "NPY_ENABLE_CPU_FEATURES" not in _os.environ:
    # numpy reads it as it loads, and refuses it next to the ENABLE one; `libm` runs
    # numpy's ufuncs only where the loops left are libm's (see `libm._UFUNC_PATH`)
    _os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4")

#: Every export, by defining module; `__all__` lists them in this order.
_LAZY = {
    "model": (
        "INFINITE_CAPACITY",
        "ChannelConfig",
        "RegionPolygon",
        "ScenarioCase",
        "gaussian_mi",
        "make_preset",
        "required_region_case_c",
    ),
    "bounds": (
        "BoundReport",
        "MODULO_BOUND_CONSTANT",
        "cutset_case_c",
        "modulo_bound_case_c",
        "outer_bounds",
    ),
    "achievable": (
        "AchievableReport",
        "Scheme",
        "achievable_case_a",
        "achievable_case_b",
        "achievable_case_c",
        "best_achievable",
        "local_decode_baseline",
    ),
    "scaling": (
        "GapCertificate",
        "ScalingEstimate",
        "certify_gaps",
        "cutset_looseness_demo",
        "estimate_prelog",
        "interference_info_lower_bound",
        "coupled_capacity_rate_fn",
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
    ),
}

__all__ = ["__version__", *(name for names in _LAZY.values() for name in names)]


def __getattr__(name: str):
    if name in _LAZY:  # importing a layer binds it here as well
        return _import_module(f".{name}", __name__)
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))
