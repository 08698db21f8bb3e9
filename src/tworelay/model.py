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
Every transcendental goes through `math_map` or `square`, which give libm's
bits: through numpy's ufuncs where their loops do (`_UFUNC_PATH`), else per element.
Every 0.5*log2(a/b) goes through `half_log2_ratio`, finite past the largest float.
"""

from __future__ import annotations

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
    precision when the ratio is tiny), and finite past it (`half_log2_ratio`).
    An unlimited signal power over a finite N yields INFINITE_CAPACITY.

    Raises:
        ValueError: on negative signal power, nonpositive noise power, or both unlimited.
    """
    s, n = float(signal_power), float(noise_plus_interference_power)
    if not s >= 0.0:
        raise ValueError(f"signal power must be >= 0, got {s!r}")
    if not n > 0.0 or math.isinf(s) and math.isinf(n):
        raise ValueError(f"noise-plus-interference power must be > 0 (finite over inf), got {n!r}")
    return float(mutual_info(s, n))


@np.errstate(all="ignore")
def mutual_info(signal_power, noise_power) -> np.ndarray:
    """`gaussian_mi` as a broadcast over arrays, without its input checks."""
    ratio = np.divide(signal_power, noise_power)
    mi = half_log2_ratio(signal_power, noise_power, 0.5 * math_map(math.log1p, ratio) / _LN2)
    return np.where(signal_power == 0.0, 0.0, mi)  # +0.0, also for a signal power of -0.0


def half_log2_ratio(a, b, value) -> np.ndarray:
    """`value`, 0.5*log2 of a/b or of 1 + a/b formed from the float a/b; where a/b passed the
    largest float (value inf, b > 0), 0.5*(log2 a - log2 b), within a part in 1e308 of both."""
    past = value == math.inf
    if past.any():
        past &= b > 0.0  # libm's log2 sees a and b only here, never 0; a = inf stays inf
        log2_a, log2_b = (math_map(math.log2, np.where(past, v, 1.0)) for v in (a, b))
        value = np.where(past, 0.5 * (log2_a - log2_b), value)
    return value


def math_map(fn: Callable[[float], float], x) -> np.ndarray:
    """The `math` function `fn` applied to each element of x, with libm's bits.

    The CLI prints floats with repr, and numpy's AVX-512 loops differ from
    libm in the last bit.  On the ufunc path numpy's ufunc of `fn` runs, its
    warnings off (np.expm1 warns where `_expm1` returns inf); else libm reads
    the elements straight from the flat buffer.
    """
    x = np.asarray(x, dtype=float)
    if _UFUNC_PATH:
        with np.errstate(all="ignore"):
            return _UFUNCS[fn](x)
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def square(x) -> np.ndarray:
    """x**2 elementwise as Python's float ** computes it: libm pow, not x*x.

    For two or more elements on the ufunc path, np.power with an exponent array
    (one of stride 0, as a scalar or 0-d one has, takes x*x); else `pow(v, 2.0)`."""
    x = np.asarray(x, dtype=float)
    if _UFUNC_PATH and x.size > 1:
        with np.errstate(all="ignore"):
            return np.power(x, np.full(x.shape, 2.0))
    squares = map(pow, memoryview(x.ravel()), itertools.repeat(2.0))
    return np.fromiter(squares, float, x.size).reshape(x.shape)


def _expm1(x: float) -> float:
    """math.expm1, with inf past the largest float in place of OverflowError."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


_UFUNCS = {math.log1p: np.log1p, math.log2: np.log2, math.expm1: np.expm1,
           _expm1: np.expm1, math.exp: np.exp}

#: (ufunc, loop, targets giving libm's bits: baseline calls libm, exp's X86_V3 matched it)
_LIBM_TARGETS = (("log1p", "dd", ("baseline",)), ("log2", "dd", ("baseline",)),
                 ("expm1", "dd", ("baseline",)), ("power", "ddd", ("baseline",)),
                 ("exp", "dd", ("baseline", "X86_V3")))


def _ufuncs_give_libm_bits() -> bool:
    """Whether numpy, as loaded, runs a loop of `_LIBM_TARGETS` for each ufunc
    (see `tworelay/__init__.py`); numpy before 2.0 cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return False
    info = opt_func_info()
    return all(info.get(name, {}).get(signature, {}).get("current", "").startswith(targets)
               for name, signature, targets in _LIBM_TARGETS)


#: Whether `math_map` and `square` run numpy's ufuncs; else libm per element.
_UFUNC_PATH = _ufuncs_give_libm_bits()


def as_arrays(*values) -> list[np.ndarray]:
    """The values as float arrays of at least one dimension, each keeping its own
    shape: a quantity of p_x alone is computed once per p_x, not once per point."""
    return [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
