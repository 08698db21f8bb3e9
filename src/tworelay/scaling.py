"""Pre-log scaling laws, capacity regions and gap certificates.

The pre-log (scaling) of a rate curve is the limit of R / log2(p_x) as the
transmit power grows; at desk scale it is estimated from a ladder of
exponents, by default through successive finite differences, which converge
much faster than the raw ratio.

This module also builds the (c1, c2) region needed to sustain a target rate
in Case C, certifies the constant-bit gaps between achievable rates and
outer bounds over power grids, demonstrates that the cut-set bound is
strictly loose in Case C, and produces the rate-versus-sum-capacity sweep
data (best link split per sum) behind the composite rate curves.  The sweep
checks its powers once; it and the gap certificates call the rates alone of
the array core (`achievable.best_rate`, `bounds.cutset_min_array`, ...) in
blocks of at most `_BLOCK` grid points: all splits of as many sums as fit
(a longer sum in chunks of `_LONG_SUM_BLOCK` splits), or the points of one
regime, gathered from the p_x rows as they are walked once.

Of each sum's splits and each regime's points only the first argmax in grid
order is reported (the lowest c1 of a sum, the first worst point of a
regime).  `_first_max` folds the blocks into it one by one, as np.argmax
over the whole grid would pick it, and nothing else of a block is kept but
a regime's point count and a sum's largest cut-set bound, so the memory of
a grid follows the block, not the grid.  `model.math_map` gives every value
libm's bits, so the pick is the one a per-point evaluation makes.  A
certificate carries its regime's point count and that worst point, not the
points themselves, and reports the largest gap as the config-checked
per-point path (`_point_certificate`) gives it at that point.  The pre-log
ladders and the looseness demo build one config per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .achievable import Scheme, achievable_case_c, best_achievable, best_rate, lattice_rate
from .bounds import cutset_case_c, cutset_min_array, modulo_bound_array
from .bounds import modulo_bound_case_c, outer_bounds
from .model import ScenarioCase, gaussian_mi, make_preset, math_map

PRELOG_METHODS = ("finite_difference", "ratio")

#: Grid points per array-core call of the sweeps and gap grids.  The grids are
#: folded block by block into running counts and first maxima, so their peak
#: memory follows the block, not the size of the grid.
_BLOCK = 2048

#: Splits per array-core call of a sum with more than `_BLOCK` splits (such a
#: sum is a block of its own).  The core costs about 0.2 ms a call besides its
#: work per point: chunks of `_BLOCK` splits made `--split-samples 200001`
#: half again as slow as one call per sum, chunks of this size keep its time
#: for about 0.5 MB more peak RSS than the default sweep.
_LONG_SUM_BLOCK = 4 * _BLOCK

#: Default exponent ladder (log2 of transmit power) for pre-log estimation.
DEFAULT_EXPONENTS = tuple(range(10, 41))


@dataclass(frozen=True)
class ScalingEstimate:
    """A pre-log slope estimate along an exponent ladder."""

    prelog: float
    exponent_grid: tuple[float, ...]
    rate_samples: tuple[float, ...]
    method: str


def estimate_prelog(
    rate_fn: Callable[[float], float],
    exponent_range: Sequence[float] = DEFAULT_EXPONENTS,
    method: str = "finite_difference",
) -> ScalingEstimate:
    """Estimate the pre-log of rate_fn(p_x) over p_x = 2**k, k in the grid.

    `rate_fn` must map a transmit power to a rate under whatever coupling
    of the remaining parameters to p_x the caller wants.  The
    finite-difference estimate is the slope between the two largest
    exponents; the ratio estimate is rate / log2(p_x) at the largest one.

    Raises:
        ValueError: on an empty grid, an exponent past the largest float, a
            non-finite rate sample, or an unknown method (finite differences
            need at least two points).
    """
    if method not in PRELOG_METHODS:
        raise ValueError(f"method must be one of {PRELOG_METHODS}, got {method!r}")
    exponents = tuple(float(k) for k in exponent_range)
    if not exponents:
        raise ValueError("exponent range must be nonempty")
    rates = []
    for k in exponents:
        try:
            p_x = 2.0**k
        except OverflowError:
            raise ValueError(f"p_x = 2**{k:g} overflows a float") from None
        r = float(rate_fn(p_x))
        if not math.isfinite(r):
            raise ValueError(f"rate_fn(2**{k}) = {r!r} is not finite")
        rates.append(r)
    if method == "finite_difference" and len(exponents) < 2:
        raise ValueError("finite differences need at least two exponents")
    if method == "ratio" and exponents[-1] == 0.0:
        raise ValueError("ratio method needs a nonzero top exponent")
    return ScalingEstimate(
        prelog=_slope(exponents, rates, method),
        exponent_grid=exponents,
        rate_samples=tuple(rates),
        method=method,
    )


def _slope(exponents: Sequence[float], rates: Sequence[float], method: str) -> float:
    """Pre-log of `rates` over log2 powers `exponents`: the finite difference
    between the two largest, or the ratio rate / exponent at the largest."""
    if method == "finite_difference":
        return (rates[-1] - rates[-2]) / (exponents[-1] - exponents[-2])
    return rates[-1] / exponents[-1]


def _parse_coupling(coupling: str) -> Callable[[float], float]:
    """Interferer-power coupling: 'pj=px', 'pj=sqrt(px)' or 'pj=<value>'."""
    key = coupling.replace(" ", "").lower()
    if key == "pj=px":
        return lambda p_x: p_x
    if key == "pj=sqrt(px)":
        return math.sqrt
    if key.startswith("pj="):
        value = float(key[3:])
        if value < 0.0:
            raise ValueError(f"constant interferer power must be >= 0, got {value}")
        return lambda p_x: value
    raise ValueError(f"unrecognized coupling {coupling!r}")


def coupled_capacity_rate_fn(
    case: ScenarioCase,
    coupling: str = "pj=px",
    capacity_scale: float = 1.0,
) -> Callable[[float], float]:
    """Rate-vs-power function with link capacities tied to the power.

    Capacities grow with p_x exactly as the sufficiency side of each
    case's scaling law prescribes, times `capacity_scale`:

    * Case A: c2 = 0.5*log2(p_x*p_j/(p_x+p_j))
    * Case B: c1 = 0.5*log2(p_x), c2 as in Case A
    * Case C: the region corner c1 = max(R, g), c2 = R - g with
      R = 0.5*log2(p_x) and g = 0.5*log2(1 + p_x/p_j)

    At scale 1.0 the resulting pre-log is 1/2; scaling the capacities down
    (e.g. by 0.8) drags the pre-log below 1/2, witnessing necessity.
    """
    pj_of = _parse_coupling(coupling)

    def rate(p_x: float) -> float:
        p_j = pj_of(p_x)
        c1 = None  # Case A: relay 1 stays unlimited
        if case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B):
            if case is ScenarioCase.CASE_B:
                c1 = capacity_scale * max(0.5 * math.log2(p_x), 0.0)
            c2 = capacity_scale * max(interference_info_lower_bound(p_x, p_j), 0.0)
        elif case is ScenarioCase.CASE_C:
            target = max(0.5 * math.log2(p_x), 0.0)
            g = gaussian_mi(p_x, p_j)
            c1 = capacity_scale * max(target, g)
            c2 = capacity_scale * max(target - g, 0.0)
        else:
            raise ValueError(f"no capacity coupling defined for {case!r}")
        return best_achievable(make_preset(case, p_x, p_j, c1=c1, c2=c2)).rate

    return rate


def interference_info_lower_bound(p_x: float, p_j: float) -> float:
    """Information about the interferer the destination must receive.

    0.5*log2(p_x*p_j/(p_x+p_j)) bits per channel use, the floor on the
    rate of relay 2's description when the overall rate scales like
    0.5*log2(p_x); behaves like 0.5*log2(min(p_x, p_j)) for unbalanced
    powers.
    """
    if not (p_x > 0.0 and p_j > 0.0):
        raise ValueError("interference information bound needs p_x > 0 and p_j > 0")
    return 0.5 * (math.log2(p_x) + math.log2(p_j) - math.log2(p_x + p_j))


# ---------------------------------------------------------------------------
# Case C capacity region


@dataclass(frozen=True)
class RegionPolygon:
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

    def contains(self, c1: float, c2: float, tol: float = 1e-12) -> bool:
        """Whether (c1, c2) satisfies every half-plane constraint."""
        return all(
            coef1 * c1 + coef2 * c2 >= rhs - tol
            for _, coef1, coef2, rhs in self.constraints
        )


def required_region_case_c(target_rate: float, p_x: float, p_j: float) -> RegionPolygon:
    """Half-plane description and corner points of the Case C region.

    Negative right-hand sides clamp to zero, so a zero target yields the
    whole nonnegative quadrant, and a target below 0.5*log2(1 + p_x/p_j)
    leaves only the sum constraint c1 + c2 >= target active.
    """
    if math.isinf(p_x):
        raise ValueError("the region needs a finite p_x")
    if not p_j > 0.0:
        raise ValueError("the region needs p_j > 0")
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError(f"target rate must be finite and >= 0, got {target_rate!r}")
    g = gaussian_mi(p_x, p_j)
    sum_rhs = max(2.0 * target_rate - g, target_rate, 0.0)
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


# ---------------------------------------------------------------------------
# Gap certificates


@dataclass(frozen=True)
class GapCertificate:
    """Outer bound minus achievable rate, certified over a parameter grid.

    `grid_points` counts the grid points inside the regime, and `max_gap` is
    the largest difference among them, attained first (in grid order: p_x
    rows, then p_j) at `worst_point` = (p_x, p_j).  `bound_used` names the
    outer bound it was measured against, and `claimed_bound` is the
    constant the gap is asserted to stay below.
    """

    case: ScenarioCase
    regime: str
    grid_points: int
    worst_point: tuple[float, float]
    max_gap: float
    bound_used: str
    claimed_bound: float

    @property
    def satisfied(self) -> bool:
        return self.max_gap <= self.claimed_bound


class _Regime(NamedTuple):
    """A gap regime at one p_x: the outer bound it is measured against, the
    claimed gap, the p_j inside it, and its link pins (c2 None: 0.5*log2(p_j))."""

    name: str
    bound: str
    claim: float
    mask: np.ndarray
    c1: float
    c2: float | None


def _gap_regimes(case: ScenarioCase, p_x: float, p_j: np.ndarray) -> tuple[_Regime, ...]:
    """The gap regimes of `case` at one p_x over the p_j array.

    With h = 0.5*log2(1+p_x), each covers some powers and pins the links:
        A  high_interference  p_j >= p_x            c2 = h
        A  low_interference   1 <= p_j < p_x        c2 = 0.5*log2(p_j)
        B  standard           p_x > 1, p_j >= 1     c1 = h, c2 = 0.5*log2(p_j)
        C  modulo             1 < p_j < p_x         c1 = h, c2 = 0.5*log2(p_j)
        C  cutset             p_j > (1+p_x)^2/p_x   c1 = c2 = h
    Cases A and B measure the best scheme, Case C the lattice scheme alone; the
    narrow band between the Case C regimes belongs to neither.
    """
    h = 0.5 * math.log2(1.0 + p_x)
    if case is ScenarioCase.CASE_A:
        high = p_j >= p_x
        return (_Regime("high_interference", "cut-set", 0.7925, high, math.inf, h),
                _Regime("low_interference", "cut-set", 1.0, ~high & (p_j >= 1.0), math.inf, None))
    if case is ScenarioCase.CASE_B:
        return (_Regime("standard", "cut-set", 1.29, (p_j >= 1.0) & (p_x > 1.0), h, None),)
    modulo = (1.0 < p_j) & (p_j < p_x)
    threshold = _cutset_threshold(p_x)
    return (_Regime("modulo", "modulo", 2.816, modulo, h, None),
            _Regime("cutset", "cut-set", 1.5, ~modulo & (p_j > threshold), h, h))


def _cutset_threshold(p_x: float) -> float:
    """(1+p_x)^2/p_x, the p_j above which Case C's cut-set regime starts."""
    if not p_x > 0.0:
        return math.inf
    try:
        return (1.0 + p_x) ** 2 / p_x
    except OverflowError:  # (1+p_x)^2 passes the largest float from p_x ~ 1.3e154 on
        return (1.0 + p_x) * ((1.0 + p_x) / p_x)


def _regime_blocks(case: ScenarioCase, px_grid: Sequence[float], pj_grid: Sequence[float]):
    """(regime, columns) per block of at most `_BLOCK` points of one regime: the
    (p_x, p_j, c1, c2) of the points, as `_gaps` takes them.

    The p_x rows are walked once.  Each regime gathers its points of the rows
    into a block of its own and hands the block on when it is full, the
    partly filled ones at the end, so its blocks come in grid order (p_x rows,
    then p_j) and only the blocks being filled are held.  A block comes with
    the regime of its last row (the name, bound and claim of every row).
    """
    p_j = np.array(pj_grid, dtype=float)
    filling = {}  # regime name: (regime, block columns, points in them)
    for p_x in px_grid:
        for regime in _gap_regimes(case, p_x, p_j):
            inside = p_j[regime.mask]
            while inside.size:
                _, block, n = filling.get(regime.name) or (None, np.empty((4, _BLOCK)), 0)
                take = min(inside.size, _BLOCK - n)
                piece, inside = inside[:take], inside[take:]
                block[0, n:n + take] = p_x
                block[1, n:n + take] = piece
                block[2, n:n + take] = regime.c1
                block[3, n:n + take] = (0.5 * math_map(math.log2, piece) if regime.c2 is None
                                        else regime.c2)
                n += take
                filling[regime.name] = regime, block, n
                if n == _BLOCK:
                    del filling[regime.name]
                    yield regime, block
    for regime, block, n in filling.values():
        yield regime, block[:, :n]


def _gaps(case: ScenarioCase, regime: _Regime, px, pj, c1, c2) -> np.ndarray:
    """Outer bound minus rate of `regime` at the points, in one array-core call."""
    rate = (lattice_rate(case, px, pj, c1, c2) if case is ScenarioCase.CASE_C
            else best_rate(case, px, pj, c1, c2)[0])
    bound = (modulo_bound_array(px, pj, c1, c2) if regime.bound == "modulo"
             else cutset_min_array(case, px, pj, c1, c2))
    return bound - rate


def _first_max(best: list | None, values: np.ndarray, *columns: np.ndarray) -> list:
    """Fold the next block into a running first maximum along the last axis.

    `best` is [value, *columns at it] of the blocks before, or None for the
    first block; `values` and `columns` hold the block, one row per running
    maximum.  The result is what np.argmax over the rows of all the blocks
    so far picks: a NaN beats every number and of equal values the earlier
    wins, across block boundaries too.
    """
    at = np.argmax(values, axis=-1)
    first = (*np.indices(at.shape, sparse=True), at)  # per row, the index of its first maximum
    picked = [v[first] for v in (values, *columns)]
    if best is None:
        return picked
    later = ((picked[0] > best[0]) | np.isnan(picked[0])) & ~np.isnan(best[0])
    return [np.where(later, new, old) for new, old in zip(picked, best)]


def _point_certificate(case: ScenarioCase, p_x: float, p_j: float) -> GapCertificate:
    """The gap at the one point (p_x, p_j), in its regime, through the
    config-checked per-point functions (the path of a single `ChannelConfig`)."""
    p_x, p_j = float(p_x), float(p_j)
    inside = [r for r in _gap_regimes(case, p_x, np.array([p_j])) if r.mask[0]]
    if not inside:
        raise ValueError(f"(p_x={p_x}, p_j={p_j}) lies outside every {case.name} gap regime")
    (regime,) = inside
    c2 = 0.5 * math.log2(p_j) if regime.c2 is None else regime.c2
    cfg = make_preset(case, p_x, p_j, c1=regime.c1, c2=c2)
    if case is not ScenarioCase.CASE_C:
        gap = outer_bounds(cfg, case).binding - best_achievable(cfg).rate
    elif regime.bound == "modulo":
        gap = modulo_bound_case_c(cfg) - achievable_case_c(p_x, p_j, cfg.c1, cfg.c2).rate
    else:
        gap = cutset_case_c(cfg).cutset_min - achievable_case_c(p_x, p_j, cfg.c1, cfg.c2).rate
    return GapCertificate(case, regime.name, 1, (p_x, p_j), gap, regime.bound, regime.claim)


def default_power_grid() -> tuple[float, ...]:
    """Decade-spaced grid, 5 points per decade, over [10, 1e9]."""
    return tuple(10.0**e for e in np.arange(1.0, 9.0 + 1e-9, 0.2))


def certify_gaps(
    case: ScenarioCase,
    px_grid: Sequence[float] | None = None,
    pj_grid: Sequence[float] | None = None,
) -> tuple[GapCertificate, ...]:
    """Sweep the gap over a power grid, one aggregated certificate per regime.

    Each regime of the case pins the link capacities to its prescribed
    values (see `_gap_regimes`).  Each regime's points, in grid order, go to
    the array core in blocks of `_BLOCK` (`_regime_blocks`), which are
    folded into its point count and first worst point as they come; its
    largest gap is then evaluated again at that point through the
    config-checked per-point functions, so a one-point grid gives the gap of
    that point.  Points outside every regime of the case are skipped.  A
    certificate counts its regime's points (`grid_points`) and names the
    first worst one (`worst_point`).

    Raises:
        ValueError: on a non-finite p_x, a NaN or negative power in either
            grid (p_j = inf is accepted), or if no point lies in a regime.
    """
    px_grid = default_power_grid() if px_grid is None else tuple(px_grid)
    pj_grid = default_power_grid() if pj_grid is None else tuple(pj_grid)
    if not all(0.0 <= p_x < math.inf for p_x in px_grid):
        raise ValueError("every p_x of the grid must be finite and >= 0")
    if not np.all(np.array(pj_grid, dtype=float) >= 0.0):
        raise ValueError("every p_j of the grid must be >= 0 (inf is accepted)")
    counts, worst = {}, {}  # per regime name: its points, and [gap, p_x, p_j] at the first worst
    for regime, (px, pj, c1, c2) in _regime_blocks(case, px_grid, pj_grid):
        counts[regime.name] = counts.get(regime.name, 0) + px.size
        worst[regime.name] = _first_max(worst.get(regime.name),
                                        _gaps(case, regime, px, pj, c1, c2), px, pj)
    if not counts:
        raise ValueError(f"no grid point lies inside a {case.name} gap regime")
    return tuple(replace(_point_certificate(case, float(worst[name][1]), float(worst[name][2])),
                         grid_points=counts[name])
                 for name in sorted(counts))


# ---------------------------------------------------------------------------
# Cut-set looseness demonstration


class LoosenessPrelogs(NamedTuple):
    cutset_prelog: float
    modulo_prelog: float


def cutset_looseness_demo(p_x: float) -> LoosenessPrelogs:
    """Pre-logs of the two Case C outer bounds along a decade ladder.

    With the interferer power tied to sqrt(p_x) and both link capacities
    to 0.25*log2(p_x), the cut-set bound keeps pre-log 1/2 while the
    modulo bound's pre-log sits strictly below it, so the cut-set bound
    cannot be tight.  Evaluated on powers 10, 100, ... up to p_x; the
    returned slopes are finite differences at the top of the ladder
    (plain ratios if p_x < 100 leaves a single rung).
    """
    if not p_x > 1.0:
        raise ValueError("looseness demo needs p_x > 1")
    ladder = [10.0**e for e in range(1, int(math.floor(math.log10(p_x))) + 1)]
    if not ladder or ladder[-1] != p_x:
        ladder.append(p_x)

    def both(power: float) -> tuple[float, float]:
        cap = 0.25 * math.log2(power)
        cfg = make_preset(ScenarioCase.CASE_C, power, math.sqrt(power), c1=cap, c2=cap)
        return cutset_case_c(cfg).cutset_min, modulo_bound_case_c(cfg)

    exponents = [math.log2(p) for p in ladder]
    method = "finite_difference" if len(ladder) >= 2 else "ratio"
    cut, mod = (_slope(exponents, bound, method) for bound in zip(*map(both, ladder)))
    return LoosenessPrelogs(cutset_prelog=cut, modulo_prelog=mod)


# ---------------------------------------------------------------------------
# Rate versus sum capacity (composite curve data)


@dataclass(frozen=True)
class SweepPoint:
    """One point of the rate-versus-sum-capacity sweep."""

    sum_capacity: float
    best_rate: float
    winning_scheme: Scheme
    c1: float
    c2: float
    cutset: float
    modulo: float | None


def sweep_sum_capacity(
    case: ScenarioCase,
    p_x: float,
    p_j: float,
    sum_capacities: Sequence[float],
    split_samples: int = 1001,
) -> list[SweepPoint]:
    """Best achievable rate per total link budget, optimizing the split.

    For every sum c1 + c2 in `sum_capacities` the split is chosen by a
    uniform search with `split_samples` points (the objective is unimodal
    on the grids of interest); the reported cut-set value is likewise the
    best (largest) cut-set bound over splits, i.e. the outer envelope a
    genie split could reach.  Applies to Cases B and C; Case C points also
    carry the (split-independent) modulo bound.  The powers are checked once.
    """
    if case not in (ScenarioCase.CASE_B, ScenarioCase.CASE_C):
        raise ValueError("the sum-capacity sweep applies to Cases B and C")
    if split_samples < 2:
        raise ValueError("need at least two split samples")
    cfg = make_preset(case, p_x, p_j, c1=0.0, c2=0.0)  # the links vary per split below
    p_x, p_j = cfg.p_x, cfg.p_j
    totals = np.array([float(total) for total in sum_capacities])
    for total in totals.tolist():
        if not 0.0 <= total < math.inf:
            raise ValueError(f"sum capacity must be finite and >= 0, got {total}")
    columns = []  # per block of sums: rate, c1, c2, local-decoding win at the best split; cut-set
    per_block = max(1, _BLOCK // split_samples)
    chunk = split_samples if split_samples <= _BLOCK else _LONG_SUM_BLOCK
    for k in range(0, totals.size, per_block):
        block = totals[k:k + per_block]
        best, cutset = None, np.full(block.size, -math.inf)
        for start in range(0, split_samples, chunk):
            c1 = _splits(block, split_samples, start, start + chunk)
            c2 = block[:, None] - c1
            rate, wins = best_rate(case, p_x, p_j, c1, c2)
            best = _first_max(best, rate, c1, c2, wins)  # the lowest c1 wins a tie
            cutset = np.maximum(cutset, cutset_min_array(case, p_x, p_j, c1, c2).max(axis=1))
        columns.append(best + [cutset])
    if not columns:
        return []
    rate, c1, c2, local, cutset = (np.concatenate(column).tolist() for column in zip(*columns))
    lattice = Scheme.CASE_C_PROP if case is ScenarioCase.CASE_C else Scheme.CASE_B_EQ
    schemes = [Scheme.LOCAL_DECODE if won else lattice for won in local]
    modulo = (modulo_bound_array(p_x, p_j, totals / 2.0, totals / 2.0).tolist()  # half splits
              if case is ScenarioCase.CASE_C and p_j > 0.0 else [None] * totals.size)
    return list(map(SweepPoint, totals.tolist(), rate, schemes, c1, c2, cutset, modulo))


def _splits(totals: np.ndarray, n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Row k is np.linspace(0.0, totals[k], n)[start:stop], bit for bit, subnormal
    steps included."""
    stop = n if stop is None else min(stop, n)
    i, step = np.arange(start, stop, dtype=float), totals[:, None] / (n - 1)
    c1 = np.where(step == 0.0, i / (n - 1) * totals[:, None], i * step)
    if stop == n:
        c1[:, -1] = totals
    return c1
