"""Pre-log scaling laws, capacity regions and gap certificates.

The pre-log (scaling) of a rate curve is the limit of R / log2(p_x) as the
transmit power grows; at desk scale it is estimated from a ladder of
exponents, by default through successive finite differences, which converge
much faster than the raw ratio.

This module also certifies the constant-bit gaps between achievable rates
and outer bounds over power grids, demonstrates that the cut-set bound is
strictly loose in Case C, and produces the rate-versus-sum-capacity sweep
data (best link split per sum) behind the composite rate curves.  The (c1,
c2) region needed to sustain a target rate in Case C is scalar geometry
that `model` builds without numpy (`required_region_case_c`,
`RegionPolygon`); it is served here under the same names as well.  The sweep
checks its powers once and calls the rates alone of the closed-form core
(`achievable.best_rate`, `bounds.cutset_min`, ...) with the powers as floats,
in blocks of all splits of as many sums as fit in `_SWEEP_BLOCK` (8 192)
points, or 8 192 splits of a longer sum.  The gap certificates call the same
functions in tiles: a grid of at most `_GAP_BLOCK` (4 096) points, the
default 41 x 41 among them, is one tile of Python floats, taken point by
point, and loads no numpy; a larger grid's tile holds as many whole p_x rows
as fit in 4 096 points, or, where one row has more p_j, 4 096 p_j of one
row.  A tile is one rate evaluation for all the regimes of its case, with
p_x as a column and p_j as a row, so a quantity of p_x alone is formed once
per row; each regime masks the gaps of the others' points to -inf.

Of each sum's splits and each regime's points only the first argmax in grid
order is reported (the lowest c1 of a sum, the first worst point of a
regime).  `_first_max` folds the blocks and tiles into it one by one, as
np.argmax over the whole grid would pick it, and nothing else of them is
kept but a regime's point count and a sum's largest cut-set bound, so the
memory of a grid follows the block, not the grid.  `libm` gives every value
libm's bits, on floats and on arrays, so the pick is the one a per-point
evaluation makes.  A certificate carries its regime's point count and that
worst point, not the points themselves, and reports the largest gap as the
config-checked per-point path (`_point_certificate`) gives it at that point.
The sweep imports numpy with its first array, and the sweep and the tiles
switch numpy's warnings off around their array calls (`libm.quiet`).  A
pre-log ladder is one `rate_fn` call with all its powers as Python floats;
the coupled rate function and the looseness demo's two ladders evaluate each
rung on floats, with no config built and no numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from .achievable import Scheme, achievable_case_c, best_achievable, best_rate, lattice_rate
from .bounds import cutset_case_c, cutset_min, modulo_bound, modulo_bound_case_c, outer_bounds
from .libm import _LN2, any_true, apply, count_true, divide, flat, isinf, logical_not, math_map
from .libm import mutual_info, quiet, square, where
from .model import ScenarioCase, _check_count, _check_fields, make_preset
from .model import RegionPolygon, required_region_case_c  # served here as well

PRELOG_METHODS = ("finite_difference", "ratio")

#: Splits per array-core call of the sweep (all of as many sums as fit, or 8 192 of a longer
#: sum): the core's 0.2 ms a call was about half of a default sweep's time in blocks of 2 048.
_SWEEP_BLOCK = 8192

#: Points per array-core call of the gap certificates: whole p_x rows, or slices of one
#: row (8 192 raised peak RSS).
_GAP_BLOCK = 4096

#: Default exponent ladder (log2 of transmit power) for pre-log estimation.
DEFAULT_EXPONENTS = tuple(range(10, 41))


class ScalingEstimate(NamedTuple):
    """A pre-log slope estimate along an exponent ladder."""

    prelog: float
    exponent_grid: tuple[float, ...]
    rate_samples: tuple[float, ...]
    method: str


def estimate_prelog(
    rate_fn: Callable[[tuple[float, ...]], Sequence[float]],
    exponent_range: Sequence[float] = DEFAULT_EXPONENTS,
    method: str = "finite_difference",
) -> ScalingEstimate:
    """Estimate the pre-log of rate_fn over p_x = 2**k, k in the grid.

    `rate_fn` is called once, with the tuple of all the powers (Python
    floats, which numpy's functions take as an array), and must give a
    sequence of their rates, one per power, under whatever coupling of the
    remaining parameters to p_x the caller wants.  The finite-difference
    estimate is the slope between the two largest exponents; the ratio
    estimate is rate / log2(p_x) at the largest one.

    Raises:
        ValueError: on an empty, not strictly increasing or not finite grid, a power
            past the float range (inf or 0.0), not one rate per power, a non-finite
            rate, or an unknown method (finite differences need at least two points).
    """
    if method not in PRELOG_METHODS:
        raise ValueError(f"method must be one of {PRELOG_METHODS}, got {method!r}")
    exponents = tuple(float(k) for k in exponent_range)
    if not exponents:
        raise ValueError("exponent range must be nonempty")
    if any(not high > low for low, high in zip(exponents, exponents[1:])):
        raise ValueError(f"exponents must be strictly increasing, got {exponents}")
    if exponents[-1] >= 1024.0:  # 2.0**k is finite below
        raise ValueError(f"p_x = 2**{exponents[-1]:g} overflows a float")
    if not all(map(math.isfinite, exponents)):
        raise ValueError(f"exponents must be finite, got {exponents}")
    if exponents[0] < -1074.0:  # 2.0**k is 0.0 below
        raise ValueError(f"p_x = 2**{exponents[0]:g} underflows to 0.0")
    powers = tuple(2.0**k for k in exponents)
    rates = rate_fn(powers)
    try:
        rates = [float(r) for r in rates]
    except TypeError:  # not a sequence of numbers
        raise ValueError(f"rate_fn gave {rates!r}, not rates for {len(powers)} powers") from None
    if len(rates) != len(powers):
        raise ValueError(f"rate_fn gave {len(rates)} rates for {len(powers)} powers")
    for k, r in zip(exponents, rates):
        if not math.isfinite(r):
            raise ValueError(f"rate_fn(2**{k}) = {r!r} is not finite")
    if method == "finite_difference" and len(exponents) < 2:
        raise ValueError("finite differences need at least two exponents")
    if method == "ratio" and exponents[-1] == 0.0:
        raise ValueError("ratio method needs a nonzero top exponent")
    prelog = ((rates[-1] - rates[-2]) / (exponents[-1] - exponents[-2])
              if method == "finite_difference" else rates[-1] / exponents[-1])
    return ScalingEstimate(prelog, exponents, tuple(rates), method)


def _parse_coupling(coupling: str) -> Callable[[float], float]:
    """Interferer power of a p_x: 'pj=px', 'pj=sqrt(px)' or 'pj=<value>'."""
    key = coupling.replace(" ", "").lower()
    if key == "pj=px":
        return lambda p_x: p_x
    if key == "pj=sqrt(px)":
        return math.sqrt
    try:
        if not key.startswith("pj="):
            raise ValueError
        value = float(key[3:])
    except ValueError:
        raise ValueError("coupling must be 'pj=px', 'pj=sqrt(px)' or 'pj=<value>', "
                         f"got {coupling!r}") from None
    if not value > 0.0:
        raise ValueError(f"constant interferer power must be > 0, got {value}")
    return lambda p_x: value


def coupled_capacity_rate_fn(
    case: ScenarioCase,
    coupling: str = "pj=px",
    capacity_scale: float = 1.0,
) -> Callable[[Sequence[float]], list[float]]:
    """Rate-vs-power function with link capacities tied to the power.

    Capacities grow with p_x exactly as the sufficiency side of each
    case's scaling law prescribes, times `capacity_scale`:

    * Case A: c2 = 0.5*log2(p_x*p_j/(p_x+p_j))
    * Case B: c1 = 0.5*log2(p_x), c2 as in Case A
    * Case C: the region corner c1 = max(R, g), c2 = R - g with
      R = 0.5*log2(p_x) and g = 0.5*log2(1 + p_x/p_j)

    At scale 1.0 the resulting pre-log is 1/2; scaling the capacities down
    (e.g. by 0.8) drags the pre-log below 1/2, witnessing necessity.  A
    coupling constant must be > 0 and the scale finite and >= 0, so that the
    function maps a sequence of finite powers > 0 to finite links >= 0 (Case
    A's c1 is inf) and to the list of their best rates (`achievable.best_rate`),
    each evaluated on Python floats, with no numpy.
    """
    pj_of = _parse_coupling(coupling)
    if not 0.0 <= capacity_scale < math.inf:
        raise ValueError(f"capacity scale must be finite and >= 0, got {capacity_scale!r}")

    def rung(p_x: float) -> float:
        if not 0.0 < p_x < math.inf:
            raise ValueError(f"every p_x must be finite and > 0 ({coupling})")
        p_j = pj_of(p_x)
        target = max(0.5 * math.log2(p_x), 0.0)
        if case is ScenarioCase.CASE_C:
            g = mutual_info(p_x, p_j)
            c1 = capacity_scale * max(target, g)
            c2 = capacity_scale * max(target - g, 0.0)
        else:  # Case A: relay 1 stays unlimited
            c1 = capacity_scale * target if case is ScenarioCase.CASE_B else math.inf
            c2 = capacity_scale * max(interference_info_lower_bound(p_x, p_j), 0.0)
        return best_rate(case, p_x, p_j, c1, c2)[0]

    return lambda p_x: [rung(float(p)) for p in p_x]


def interference_info_lower_bound(p_x: float, p_j: float) -> float:
    """Information about the interferer the destination must receive.

    0.5*log2(p_x*p_j/(p_x+p_j)) bits per channel use, the floor on the
    rate of relay 2's description when the overall rate scales like
    0.5*log2(p_x); behaves like 0.5*log2(min(p_x, p_j)) for unbalanced
    powers, and takes its limit 0.5*log2(p_x) at p_j = inf.  Where p_x + p_j
    passes the largest float, log2 of the sum is log2(larger) + log1p(smaller/larger)/ln 2.
    """
    if not (0.0 < p_x < math.inf and p_j > 0.0):
        raise ValueError("interference information bound needs 0 < p_x < inf and p_j > 0")
    p_x, p_j = float(p_x), float(p_j)
    if math.isinf(p_j):
        return 0.5 * math.log2(p_x)
    total = p_x + p_j
    if math.isinf(total):
        larger, smaller = max(p_x, p_j), min(p_x, p_j)
        log_sum = math.log2(larger) + math.log1p(smaller / larger) / _LN2
    else:
        log_sum = math.log2(total)
    return 0.5 * (math.log2(p_x) + math.log2(p_j) - log_sum)


# ---------------------------------------------------------------------------
# Gap certificates


class GapCertificate(NamedTuple):
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
    """A gap regime over p_x rows: the outer bound it is measured against, the claimed
    gap, its mask of p_x rows by p_j, and its c2 pin per row (None: 0.5*log2(p_j))."""

    name: str
    bound: str
    claim: float
    mask: object
    c2: object


def _gap_regimes(case: ScenarioCase, p_x, p_j) -> tuple[object, tuple[_Regime, ...]]:
    """The c1 pin of `case` and its gap regimes at a point of floats, or over a column of
    p_x rows and a row of p_j, broadcast against each other: a mask has one row per p_x.

    With h = 0.5*log2(1+p_x), a case's regimes share one c1 pin (inf in Case A, h in
    Cases B and C); each covers some powers and pins c2:
        A  high_interference  p_j >= p_x            c2 = h
        A  low_interference   1 <= p_j < p_x        c2 = 0.5*log2(p_j)
        B  standard           p_x > 1, p_j >= 1     c2 = 0.5*log2(p_j)
        C  modulo             1 < p_j < p_x         c2 = 0.5*log2(p_j)
        C  cutset             p_j > (1+p_x)^2/p_x   c2 = h
    Cases A and B measure the best scheme, Case C the lattice scheme alone; the
    narrow band between the Case C regimes belongs to neither.
    """
    h = 0.5 * apply(math.log2, 1.0 + p_x)
    if case is ScenarioCase.CASE_A:
        high = p_j >= p_x
        low = logical_not(high) & (p_j >= 1.0)
        return math.inf, (_Regime("high_interference", "cut-set", 0.7925, high, h),
                          _Regime("low_interference", "cut-set", 1.0, low, None))
    if case is ScenarioCase.CASE_B:
        return h, (_Regime("standard", "cut-set", 1.29, (p_j >= 1.0) & (p_x > 1.0), None),)
    modulo = (1.0 < p_j) & (p_j < p_x)
    square_sum = square(1.0 + p_x)  # inf from p_x ~ 1.34e154 on: the product form there
    threshold = where(isinf(square_sum), (1.0 + p_x) * divide(1.0 + p_x, p_x),
                      divide(square_sum, p_x))  # p_x = +-0 is in no cutset regime
    return h, (_Regime("modulo", "modulo", 2.816, modulo, None),
               _Regime("cutset", "cut-set", 1.5,
                       logical_not(modulo) & (p_x > 0.0) & (p_j > threshold), h))


def _gap_tiles(case: ScenarioCase, px_grid: Sequence[float], pj_grid: Sequence[float]):
    """(regimes, (p_x, p_j, c1, c2)) per tile of the grid, in grid order: the tile's
    p_x and p_j, the c1 pin and regimes `_gap_regimes` gives over them, and c2 per
    point from the regime masks (0.5*log2(p_j) outside a c2 pin, p_j < 1 as 1); a p_j of
    -0.0 is taken as 0.0, whose p_x/p_j in the modulo bound is inf, not -inf.

    A grid of at most `_GAP_BLOCK` points is one tile of Python floats, taken point by
    point (no numpy); a larger grid's tile is as many whole p_x rows as fit in `_GAP_BLOCK`
    points, or `_GAP_BLOCK` p_j of a longer row; its points in row order are in grid order.
    """
    if len(px_grid) * len(pj_grid) <= _GAP_BLOCK:
        row = [(p_j + 0.0, 0.5 * math.log2(max(p_j, 1.0))) for p_j in map(float, pj_grid)]
        tiles = ((p_x, p_j, c2) for p_x in map(float, px_grid) for p_j, c2 in row)
    else:
        import numpy as np
        p_x, p_j = np.asarray(px_grid, dtype=float), np.asarray(pj_grid, dtype=float) + 0.0
        half_log_pj = math_map(math.log2, np.maximum(p_j, 1.0))  # no c2 pin reads p_j < 1
        half_log_pj *= 0.5
        columns = min(p_j.size, _GAP_BLOCK) or 1
        rows = _GAP_BLOCK // columns
        tiles = ((p_x[k:k + rows, None], p_j[s:s + columns], half_log_pj[s:s + columns])
                 for k in range(0, p_x.size, rows) for s in range(0, p_j.size, columns))
    for px, pj, c2 in tiles:
        c1, regimes = _gap_regimes(case, px, pj)
        for regime in regimes:
            if regime.c2 is not None:
                c2 = where(regime.mask, regime.c2, c2)
        yield regimes, (px, pj, c1, c2)


def _gaps(case: ScenarioCase, regimes, px, pj, c1, c2) -> list:
    """Outer bound minus rate of each regime at a point of floats or at its points of a tile,
    -inf at the others: one rate evaluation for all the regimes (the lattice scheme's in Case
    C, the best in A and B), and one per kind of bound that a regime with points there needs."""
    with quiet(px):
        rate = (lattice_rate(case, px, pj, c1, c2) if case is ScenarioCase.CASE_C
                else best_rate(case, px, pj, c1, c2)[0])
        bounds = {}
        for regime in regimes:
            if regime.bound not in bounds and any_true(regime.mask):
                bounds[regime.bound] = (modulo_bound(px, pj, c1, c2) if regime.bound == "modulo"
                                        else cutset_min(case, px, pj, c1, c2))
        return [where(regime.mask, bounds.get(regime.bound, rate) - rate, -math.inf)
                for regime in regimes]  # a regime with no point here: -inf throughout


def _first_max(best: list | None, values, *columns) -> list:
    """Fold the next block into a running first maximum along the last axis.

    `best` is [value, *columns at it] of the blocks before, or None for the
    first block; `values` and `columns` hold the block, one row per running
    maximum, or the Python floats of one point.  The result is what np.argmax
    over the rows of all the blocks so far picks: a NaN beats every number and
    of equal values the earlier wins, across block boundaries too.
    """
    picked, point = [values, *columns], isinstance(values, float)
    if not point:
        import numpy as np
        at = np.argmax(values, axis=-1)
        first = (*np.indices(at.shape, sparse=True), at)  # per row, the index of its first maximum
        picked = [v[first] for v in picked]
    if best is None:
        return picked
    later = ((picked[0] > best[0]) | (picked[0] != picked[0])) & (best[0] == best[0])  # NaN: x != x
    if point:
        return picked if later else best
    return [where(later, new, old) for new, old in zip(picked, best)]


def _point_certificate(case: ScenarioCase, p_x: float, p_j: float) -> GapCertificate:
    """The gap at the one point (p_x, p_j), in its regime, through the
    config-checked per-point functions (the path of a single `ChannelConfig`)."""
    p_x, p_j = float(p_x), float(p_j)
    c1, regimes = _gap_regimes(case, p_x, p_j)
    inside = [r for r in regimes if r.mask]
    if not inside:
        raise ValueError(f"(p_x={p_x}, p_j={p_j}) lies outside every {case.name} gap regime")
    (regime,) = inside
    c2 = 0.5 * math.log2(p_j) if regime.c2 is None else regime.c2
    cfg = make_preset(case, p_x, p_j, c1=c1, c2=c2)
    if case is not ScenarioCase.CASE_C:
        gap = outer_bounds(cfg, case).binding - best_achievable(cfg).rate
    elif regime.bound == "modulo":
        gap = modulo_bound_case_c(cfg) - achievable_case_c(p_x, p_j, cfg.c1, cfg.c2).rate
    else:
        gap = cutset_case_c(cfg).cutset_min - achievable_case_c(p_x, p_j, cfg.c1, cfg.c2).rate
    return GapCertificate(case, regime.name, 1, (p_x, p_j), gap, regime.bound, regime.claim)


def default_power_grid() -> tuple[float, ...]:
    """Decade-spaced grid, 5 points per decade, over [10, 1e9]."""
    return tuple(_decade_grid(1.0, 9.0, 5))


def _decade_grid(lo: float, hi: float, per_decade: int) -> list[float]:
    """10**e for e = lo + k/per_decade up to hi, by libm's pow, so every whole decade past
    an integer lo is an exact power of ten; ValueError where a power passes the largest
    float (numpy's 10.0**e would give inf) or no array holds them.  Up to `_GAP_BLOCK`
    exponents are formed on Python floats, with np.arange's bits, and more with numpy."""
    count = (hi + 1e-9 - lo) / (1.0 / per_decade)  # the length of arange(lo, hi + 1e-9, step)
    try:
        if count > sys.maxsize:  # longer than any numpy array
            raise MemoryError
        if count <= _GAP_BLOCK:
            exps = [lo + k / per_decade for k in range(math.ceil(count))]
        else:
            import numpy as np
            exps = (lo + np.arange(math.ceil(count)) / per_decade).tolist()
        return [10.0**e for e in exps]
    except OverflowError:
        raise ValueError(f"grid powers up to 10**{exps[-1]:g} overflow a float") from None
    except MemoryError:
        raise ValueError(f"{count:.0f} powers do not fit in memory") from None


def certify_gaps(
    case: ScenarioCase,
    px_grid: Sequence[float] | None = None,
    pj_grid: Sequence[float] | None = None,
) -> tuple[GapCertificate, ...]:
    """Sweep the gap over a power grid, one aggregated certificate per regime.

    Each regime of the case pins the link capacities to its prescribed
    values (see `_gap_regimes`).  A grid of at most `_GAP_BLOCK` (4 096)
    points, the default 41 x 41 among them, is evaluated point by point on
    Python floats and loads no numpy, a larger one in tiles of numpy arrays
    (`_gap_tiles`), with the same bits.  Each regime's gaps, -inf at the
    points outside it, are folded into its point count and first worst point
    as they come; its largest gap is then evaluated again at that point
    through the config-checked per-point functions, so a one-point grid gives
    the gap of that point.  Points outside every regime of the case are
    evaluated but reach no certificate.

    Raises:
        ValueError: on a grid that is not flat, a non-finite p_x, a NaN or negative
            power in either grid (p_j = inf is accepted), or if no point lies in a regime.
    """
    px_grid, pj_grid = grids = [default_power_grid() if grid is None else grid
                                for grid in (px_grid, pj_grid)]
    try:  # a number, a string, an array of another rank or a sequence of sequences fails
        if any(isinstance(g, (str, bytes)) or getattr(g, "ndim", 1) != 1 for g in grids):
            raise TypeError
        finite = all([0.0 <= float(p) < math.inf for p in px_grid])  # every power is read
        signed = all([float(p) >= 0.0 for p in pj_grid])
    except TypeError:
        raise ValueError("each grid must be a flat sequence of powers") from None
    if not finite:
        raise ValueError("every p_x of the grid must be finite and >= 0")
    if not signed:
        raise ValueError("every p_j of the grid must be >= 0 (inf is accepted)")
    counts, worst = {}, {}  # per regime name: its points, and [gap, p_x, p_j] at the first worst
    for regimes, point in _gap_tiles(case, px_grid, pj_grid):
        px, pj = flat(*point[:2])
        for regime, gaps in zip(regimes, _gaps(case, regimes, *point)):
            counts[regime.name] = counts.get(regime.name, 0) + count_true(regime.mask)
            worst[regime.name] = _first_max(worst.get(regime.name), *flat(gaps), px, pj)
    names = sorted(name for name, count in counts.items() if count)
    if not names:
        raise ValueError(f"no grid point lies inside a {case.name} gap regime")
    return tuple(_point_certificate(case, *worst[name][1:])._replace(grid_points=counts[name])
                 for name in names)


# ---------------------------------------------------------------------------
# Cut-set looseness demonstration


def cutset_looseness_demo(
    exponent_range: Sequence[float] = DEFAULT_EXPONENTS,
) -> tuple[ScalingEstimate, ScalingEstimate]:
    """Pre-logs of the two Case C outer bounds: the cut-set estimate, then the modulo one.

    With p_j = sqrt(p_x) and both link capacities 0.25*log2(p_x), the cut-set bound keeps
    pre-log 1/2 while the modulo bound's tends to 3/8, so the cut-set bound cannot be
    tight.  Each bound is one `estimate_prelog` ladder over p_x = 2**k, k in
    `exponent_range`, which must hold no k < 0 (the links would be negative).
    """
    exponents = tuple(float(k) for k in exponent_range)
    if any(k < 0.0 for k in exponents):
        raise ValueError(f"looseness demo needs exponents >= 0, got {exponents}")

    def point(p_x: float) -> tuple[float, float, float, float]:
        cap = 0.25 * math.log2(p_x)
        return p_x, math.sqrt(p_x), cap, cap

    return (estimate_prelog(lambda powers: [cutset_min(ScenarioCase.CASE_C, *point(p_x))
                                            for p_x in powers], exponents),
            estimate_prelog(lambda powers: [modulo_bound(*point(p_x)) for p_x in powers],
                            exponents))


# ---------------------------------------------------------------------------
# Rate versus sum capacity (composite curve data)


class SweepPoint(NamedTuple):
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

    For every sum c1 + c2 in `sum_capacities` the reported rate is the best
    over `split_samples` evenly spaced splits c1 = 0 ... sum, the lowest c1 on
    a tie.  It is the best over these samples alone: the rate need not be
    unimodal in the split (Case C can have two interior maxima), and a split
    between the samples may do better.  The cut-set column is likewise the
    largest cut-set bound over the same sampled splits, which can fall short
    of its supremum over all splits.  Applies to Cases B and C; Case C points
    also carry the (split-independent) modulo bound.  The powers are checked once.
    """
    import numpy as np
    if case not in (ScenarioCase.CASE_B, ScenarioCase.CASE_C):
        raise ValueError("the sum-capacity sweep applies to Cases B and C")
    _check_count("split_samples", split_samples, 2)
    p_x, p_j = _check_fields(p_x=p_x, p_j=p_j)  # the links vary per split below
    totals = np.array([float(total) for total in sum_capacities])
    for total in totals.tolist():
        if not 0.0 <= total < math.inf:
            raise ValueError(f"sum capacity must be finite and >= 0, got {total}")
    columns = []  # per block of sums: rate, c1, c2, local-decoding win at the best split; cut-set
    per_block = max(1, _SWEEP_BLOCK // split_samples)  # sums per call
    chunk = min(split_samples, _SWEEP_BLOCK)  # splits per call
    with quiet(totals):
        for k in range(0, totals.size, per_block):
            block = totals[k:k + per_block]
            best, cutset = None, np.full(block.size, -math.inf)
            for start in range(0, split_samples, chunk):
                c1 = _splits(block, split_samples, start, start + chunk)
                c2 = block[:, None] - c1
                rate, wins = best_rate(case, p_x, p_j, c1, c2)
                best = _first_max(best, rate, c1, c2, wins)  # the lowest c1 wins a tie
                cutset = np.maximum(cutset, cutset_min(case, p_x, p_j, c1, c2).max(axis=1))
            columns.append(best + [cutset])
        if not columns:
            return []
        modulo = (modulo_bound(p_x, p_j, totals / 2.0, totals / 2.0).tolist()  # half splits
                  if case is ScenarioCase.CASE_C and p_j > 0.0 else [None] * totals.size)
    rate, c1, c2, local, cutset = (np.concatenate(column).tolist() for column in zip(*columns))
    lattice = Scheme.CASE_C_PROP if case is ScenarioCase.CASE_C else Scheme.CASE_B_EQ
    schemes = [Scheme.LOCAL_DECODE if won else lattice for won in local]
    return list(map(SweepPoint, totals.tolist(), rate, schemes, c1, c2, cutset, modulo))


def _splits(totals, n: int, start: int, stop: int):
    """Row k is np.linspace(0.0, totals[k], n)[start:stop], bit for bit, subnormal
    steps included."""
    import numpy as np
    stop = min(stop, n)
    i, step = np.arange(start, stop, dtype=float), totals[:, None] / (n - 1)
    c1 = np.where(step == 0.0, i / (n - 1) * totals[:, None], i * step)
    if stop == n:
        c1[:, -1] = totals
    return c1
