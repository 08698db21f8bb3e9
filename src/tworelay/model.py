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

This module imports no numpy: `gaussian_mi` checks its powers and returns
`libm.mutual_info` at them, on Python floats, and the Case C link region
(`required_region_case_c`) is scalar geometry on it alone.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .libm import _LN2, mutual_info  # noqa: F401 (`lattice_sim` takes _LN2 from here)

INFINITE_CAPACITY = math.inf


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


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count or seed that is a bool, not an integer (an int or numpy
    integer: anything `operator.index` takes), or < `least`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


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
    precision when the ratio is tiny), and finite past it: where S/N passes
    the largest float, 0.5*(log2 S - log2 N), as `libm.half_log2_ratio` forms it.
    An unlimited signal power over a finite N yields INFINITE_CAPACITY.

    Raises:
        ValueError: on negative signal power, nonpositive noise power, or both unlimited.
    """
    s, n = float(signal_power), float(noise_plus_interference_power)
    if not s >= 0.0:
        raise ValueError(f"signal power must be >= 0, got {s!r}")
    if not n > 0.0 or math.isinf(s) and math.isinf(n):
        raise ValueError(f"noise-plus-interference power must be > 0 (finite over inf), got {n!r}")
    return mutual_info(s, n)


# ---------------------------------------------------------------------------
# Case C capacity region

#: Slack of `RegionPolygon.contains` in bits, so a point on a constraint line counts as inside.
_REGION_TOL = 1e-12


class RegionPolygon(NamedTuple):
    """The set of (c1, c2) pairs that can sustain `target_rate` in Case C.

    The region is the intersection of three half-planes (closed under
    componentwise increase, hence convex):

        c1 + c2 >= max(2R - g, R)      with g = 0.5*log2(1 + p_x/p_j)
        c1      >= R - g
        c2      >= R - g

    `vertices` lists the finite corner points of its boundary; `p1` is the
    corner with the larger c1 (c1 = max(R, g), c2 = R - g when R >= g) and
    `p2` its mirror image.
    """

    vertices: tuple[tuple[float, float], ...]
    target_rate: float
    constraints: tuple[tuple[str, float, float, float], ...]
    p1: tuple[float, float]
    p2: tuple[float, float]

    def contains(self, c1: float, c2: float) -> bool:
        """Whether (c1, c2) satisfies every half-plane constraint, to within `_REGION_TOL`."""
        return all(
            coef1 * c1 + coef2 * c2 >= rhs - _REGION_TOL
            for _, coef1, coef2, rhs in self.constraints
        )


def required_region_case_c(target_rate: float, p_x: float, p_j: float) -> RegionPolygon:
    """Half-plane description and corner points of the Case C region.

    Negative right-hand sides clamp to zero, so a zero target yields the
    whole nonnegative quadrant, and a target below 0.5*log2(1 + p_x/p_j)
    leaves only the sum constraint c1 + c2 >= target active.  A target whose
    sum constraint 2*target - 0.5*log2(1 + p_x/p_j) overflows is refused.
    The powers are checked as `ChannelConfig` checks its fields, and p_j must be > 0.
    """
    p_x, p_j = _check_fields(p_x=p_x, p_j=p_j)
    if not p_j > 0.0:
        raise ValueError("the region needs p_j > 0")
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError(f"target rate must be finite and >= 0, got {target_rate!r}")
    g = gaussian_mi(p_x, p_j)
    sum_rhs = max(2.0 * target_rate - g, target_rate, 0.0)
    if not math.isfinite(sum_rhs):
        raise ValueError(f"target rate {target_rate!r} is too large: its sum constraint "
                         f"2*rate - {g!r} overflows")
    link_rhs = max(target_rate - g, 0.0)
    constraints = (
        ("b1: c1 + c2", 1.0, 1.0, sum_rhs),
        ("b2: c1", 1.0, 0.0, link_rhs),
        ("b2: c2", 0.0, 1.0, link_rhs),
    )
    if 2.0 * link_rhs >= sum_rhs:
        corner = (link_rhs, link_rhs)
        vertices = (corner,)
        p1 = p2 = corner
    else:
        p1 = (sum_rhs - link_rhs, link_rhs)
        p2 = (link_rhs, sum_rhs - link_rhs)
        vertices = (p2, p1)
    return RegionPolygon(
        vertices=vertices,
        target_rate=float(target_rate),
        constraints=constraints,
        p1=p1,
        p2=p2,
    )
