"""Channel configurations for the two-relay reception setup.

A single transmitter with average power ``p_x`` is heard by two relays
through fixed real gains ``a`` and ``b``.  Both relays also receive a common
unknown Gaussian interferer of power ``p_j`` plus local Gaussian noise, and
forward their observations to the destination over error-free links of
``c1`` and ``c2`` bits per channel use:

    y1 = a*x + j + n1        y2 = b*x + j + n2

Three canonical scenarios are used throughout the package:

* Case A: a=1, b=0, p_n1=1, p_n2=0 and c1 unlimited (the destination sees
  y1 directly; relay 2 observes the interferer alone).
* Case B: same channel as Case A but with a finite c1.
* Case C: a=1, b=-1, p_n1=p_n2=1 (both relays receive interfered signals
  in anti-phase).

Powers are linear, rates are in bits per channel use, and an unlimited
link is represented by the sentinel ``INFINITE_CAPACITY`` (``math.inf``),
never by a large finite number.  ``p_j = inf`` is an accepted limit (every
rate and bound stays finite); an unlimited ``p_x`` is rejected.  Each public
entry point checks a config against its case once; the closed forms
``achievable.best_report`` and ``bounds.cutset_terms`` take the case explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INFINITE_CAPACITY = math.inf

_LN2 = math.log(2.0)


class ScenarioCase(enum.Enum):
    """The canonical link/gain scenarios."""

    CASE_A = "a"
    CASE_B = "b"
    CASE_C = "c"
    FULL_COOPERATION = "full"


def _nonnegative(name: str, value: float) -> float:
    value = float(value)
    # NaN fails the comparison and is rejected alongside negatives
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class ChannelConfig:
    """Full parameterization of the two-relay channel and its links.

    Attributes:
        a, b: real channel gains toward relay 1 and relay 2.
        p_x: transmitter power (linear, finite).
        p_j: interferer power (linear; ``math.inf`` is accepted as a limit).
        p_n1, p_n2: noise powers at the two relays (linear).
        c1, c2: relay-to-destination link capacities in bits per channel
            use; ``INFINITE_CAPACITY`` marks an unlimited link.
    """

    a: float
    b: float
    p_x: float
    p_j: float
    p_n1: float
    p_n2: float
    c1: float
    c2: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        for name in ("p_x", "p_j", "p_n1", "p_n2", "c1", "c2"):
            object.__setattr__(self, name, _nonnegative(name, getattr(self, name)))
        if math.isinf(self.p_x):
            raise ValueError("p_x must be finite, got inf")


_CASE_FIXED = {
    ScenarioCase.CASE_A: dict(a=1.0, b=0.0, p_n1=1.0, p_n2=0.0),
    ScenarioCase.CASE_B: dict(a=1.0, b=0.0, p_n1=1.0, p_n2=0.0),
    ScenarioCase.CASE_C: dict(a=1.0, b=-1.0, p_n1=1.0, p_n2=1.0),
    ScenarioCase.FULL_COOPERATION: dict(a=1.0, b=-1.0, p_n1=1.0, p_n2=1.0),
}


def make_preset(
    tag: ScenarioCase,
    p_x: float,
    p_j: float,
    c1: float | None = None,
    c2: float | None = None,
) -> ChannelConfig:
    """Build a validated ChannelConfig for one of the canonical cases.

    Case A fixes c1 = INFINITE_CAPACITY; passing any finite c1 is rejected
    rather than silently overridden.  Case B requires a finite c1.  Full
    cooperation fixes both links to INFINITE_CAPACITY.  The result meets
    `case_constraints_hold(cfg, tag)` by construction.

    Raises:
        ValueError: on negative powers/capacities or a capacity override
            that contradicts the case definition.
    """
    fixed = _CASE_FIXED[tag]
    if tag is ScenarioCase.CASE_A:
        if c1 is not None and not math.isinf(c1):
            raise ValueError("Case A has an unlimited relay-1 link; finite c1 override rejected")
        c1 = INFINITE_CAPACITY
        if c2 is None:
            raise ValueError("Case A requires c2")
    elif tag is ScenarioCase.CASE_B:
        if c1 is None or math.isinf(c1):
            raise ValueError("Case B requires a finite c1")
        if c2 is None:
            raise ValueError("Case B requires c2")
    elif tag is ScenarioCase.CASE_C:
        if c1 is None or c2 is None:
            raise ValueError("Case C requires both c1 and c2")
    else:  # full cooperation
        for name, value in (("c1", c1), ("c2", c2)):
            if value is not None and not math.isinf(value):
                raise ValueError(f"full cooperation has unlimited links; finite {name} rejected")
        c1 = c2 = INFINITE_CAPACITY
    return ChannelConfig(p_x=p_x, p_j=p_j, c1=c1, c2=c2, **fixed)


def case_constraints_hold(cfg: ChannelConfig, tag: ScenarioCase) -> bool:
    """True iff cfg satisfies the defining constraints of the given case."""
    fixed = _CASE_FIXED[tag]
    if any(getattr(cfg, k) != v for k, v in fixed.items()):
        return False
    if tag is ScenarioCase.CASE_A:
        return math.isinf(cfg.c1)
    if tag is ScenarioCase.CASE_B:
        return math.isfinite(cfg.c1)
    if tag is ScenarioCase.FULL_COOPERATION:
        return math.isinf(cfg.c1) and math.isinf(cfg.c2)
    return True


def gaussian_mi(signal_power: float, noise_plus_interference_power: float) -> float:
    """Gaussian mutual information 0.5*log2(1 + S/N) in bits per channel use.

    Stable over S/N from ~1e-12 to ~1e15 (log1p keeps full relative
    precision when the ratio is tiny).  An unlimited signal power yields
    INFINITE_CAPACITY.

    Raises:
        ValueError: on negative signal power or nonpositive noise power.
    """
    s, n = check_mi_powers(signal_power, noise_plus_interference_power)
    if math.isinf(s):
        return INFINITE_CAPACITY
    return float(mutual_info(s, n))


def check_mi_powers(signal_power: float, noise_power: float) -> tuple[float, float]:
    """The powers as floats, checked as `gaussian_mi` takes them (the array forms
    do not check; their per-point entries do, through here)."""
    s, n = float(signal_power), float(noise_power)
    if s < 0.0 or math.isnan(s):
        raise ValueError(f"signal power must be >= 0, got {s!r}")
    if not n > 0.0:
        raise ValueError(f"noise-plus-interference power must be > 0, got {n!r}")
    return s, n


@np.errstate(all="ignore")
def mutual_info(signal_power, noise_power) -> np.ndarray:
    """`gaussian_mi` as a broadcast over arrays, without its input checks."""
    mi = 0.5 * math_map(math.log1p, np.divide(signal_power, noise_power)) / _LN2
    return np.where(signal_power == 0.0, 0.0, mi)  # +0.0, also for a signal power of -0.0


def math_map(fn: Callable[[float], float], x) -> np.ndarray:
    """The `math` function `fn` applied to each element of x.

    The closed forms take every transcendental through here: numpy's own
    log1p, log2, expm1, exp and x**2 differ from libm's in the last bit on a
    share of inputs, and the CLI prints floats with repr.  libm reads the
    elements straight from the flat buffer, not from a list of their copies.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def square(x) -> np.ndarray:
    """x**2 elementwise as Python's float ** computes it: libm pow, not x*x."""
    return math_map(lambda v: v**2, x)


def as_arrays(*values) -> list[np.ndarray]:
    """The values as float arrays of at least one dimension, each keeping its own
    shape: a quantity of p_x alone is computed once per p_x, not once per point."""
    return [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
