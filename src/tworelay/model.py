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
rate and bound stays finite); an unlimited ``p_x`` is rejected.  The array
core takes the case explicitly and its input as given; each per-point entry
checks its input once, a config against its case or raw powers and links
with `_check_fields`, and raises ValueError on input outside the model.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import itertools
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


def _check_fields(**fields: float) -> list[float]:
    """The powers and links as floats, each checked as `ChannelConfig` checks
    the field of its name: >= 0 (NaN fails), and p_x finite as well."""
    checked = {name: float(value) for name, value in fields.items()}
    for name, value in checked.items():
        if not value >= 0.0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    if math.isinf(checked.get("p_x", 0.0)):
        raise ValueError("p_x must be finite, got inf")
    return list(checked.values())


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
        names = ("p_x", "p_j", "p_n1", "p_n2", "c1", "c2")
        for name, value in zip(names, _check_fields(**{n: getattr(self, n) for n in names})):
            object.__setattr__(self, name, value)


_CASE_FIXED = {
    ScenarioCase.CASE_A: dict(a=1.0, b=0.0, p_n1=1.0, p_n2=0.0),
    ScenarioCase.CASE_B: dict(a=1.0, b=0.0, p_n1=1.0, p_n2=0.0),
    ScenarioCase.CASE_C: dict(a=1.0, b=-1.0, p_n1=1.0, p_n2=1.0),
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
    rather than silently overridden.  Case B requires a finite c1.  The
    result meets `case_constraints_hold(cfg, tag)` by construction.

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
    elif c1 is None or c2 is None:
        raise ValueError("Case C requires both c1 and c2")
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
    return True


def gaussian_mi(signal_power: float, noise_plus_interference_power: float) -> float:
    """Gaussian mutual information 0.5*log2(1 + S/N) in bits per channel use.

    Stable over S/N from ~1e-12 to ~1e15 (log1p keeps full relative
    precision when the ratio is tiny).  An unlimited signal power yields
    INFINITE_CAPACITY.

    Raises:
        ValueError: on negative signal power or nonpositive noise power.
    """
    s, n = float(signal_power), float(noise_plus_interference_power)
    if not s >= 0.0:
        raise ValueError(f"signal power must be >= 0, got {s!r}")
    if not n > 0.0:
        raise ValueError(f"noise-plus-interference power must be > 0, got {n!r}")
    if math.isinf(s):
        return INFINITE_CAPACITY
    return float(mutual_info(s, n))


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
    Inside `_screening` the numpy ufunc of `fn` runs instead.
    """
    x = np.asarray(x, dtype=float)
    if _SCREEN.get():
        return _UFUNCS[fn](x)
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def square(x) -> np.ndarray:
    """x**2 elementwise as Python's float ** computes it: libm pow, not x*x.

    `pow(v, 2.0)` is what `v**2` runs for a float v, called here from the
    buffer without a Python frame per element.  Inside `_screening`, x*x.
    """
    x = np.asarray(x, dtype=float)
    if _SCREEN.get():
        return x * x
    squares = map(pow, memoryview(x.ravel()), itertools.repeat(2.0))
    return np.fromiter(squares, float, x.size).reshape(x.shape)


def _expm1(x: float) -> float:
    """math.expm1, with inf past the largest float in place of OverflowError."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


#: Set inside `_screening`: `math_map` and `square` run numpy's ufuncs.
_SCREEN = contextvars.ContextVar("tworelay_screen", default=False)
_UFUNCS = {math.log1p: np.log1p, math.log2: np.log2, math.expm1: np.expm1,
           _expm1: np.expm1, math.exp: np.exp}


@contextlib.contextmanager
def _screening():
    """Evaluate the closed forms with numpy's ufuncs in place of libm.

    Inside, `math_map` and `square` run numpy's log1p, log2, expm1, exp and
    x*x, with numpy's floating-point warnings off (np.expm1 warns where
    `_expm1` returns inf).  A value computed inside may differ from the
    exact one in the last bits of its terms: it ranks grid points and is
    never printed.
    """
    token = _SCREEN.set(True)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _SCREEN.reset(token)


def as_arrays(*values) -> list[np.ndarray]:
    """The values as float arrays of at least one dimension, each keeping its own
    shape: a quantity of p_x alone is computed once per p_x, not once per point."""
    return [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
