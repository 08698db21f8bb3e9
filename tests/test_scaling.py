import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from test_libm_paths import _near
from tworelay import libm, scaling
from tworelay.achievable import Scheme, best_achievable, best_rate
from tworelay.bounds import cutset_min_array, cutset_term_arrays, modulo_bound_array
from tworelay.bounds import modulo_bound_case_c, outer_bounds
from tworelay.cli import _parse_grid
from tworelay.model import INFINITE_CAPACITY, ChannelConfig, ScenarioCase, gaussian_mi
from tworelay.model import make_preset
from tworelay.scaling import (
    SweepPoint,
    _first_max,
    _gap_regimes,
    _gap_tiles,
    certify_gaps,
    cutset_looseness_demo,
    default_power_grid,
    estimate_prelog,
    interference_info_lower_bound,
    coupled_capacity_rate_fn,
    required_region_case_c,
    sweep_sum_capacity,
)


def constant(value):
    """An array rate_fn that gives `value` at every power."""
    return lambda p: np.full(p.shape, value)


class TestEstimatePrelog:
    def test_pure_half_log(self):
        est = estimate_prelog(lambda p: 0.5 * np.log2(p), range(10, 21))
        assert est.prelog == pytest.approx(0.5, abs=1e-12)
        assert est.method == "finite_difference"
        assert len(est.rate_samples) == 11

    def test_constant_rate(self):
        assert estimate_prelog(constant(3.25), range(5, 10)).prelog == 0.0

    def test_ratio_method(self):
        est = estimate_prelog(lambda p: 0.5 * np.log2(p) + 7.0, [40], method="ratio")
        # the offset decays only like 1/log2(p), hence the slow convergence
        assert est.prelog == pytest.approx(0.5 + 7.0 / 40.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_prelog(constant(0.0), [])
        with pytest.raises(ValueError):
            estimate_prelog(constant(math.nan), [10, 11])
        with pytest.raises(ValueError):
            estimate_prelog(constant(1.0), [10, 11], method="slope")
        with pytest.raises(ValueError):
            estimate_prelog(constant(1.0), [10])
        with pytest.raises(ValueError, match="ratio method needs a nonzero top exponent"):
            estimate_prelog(constant(1.0), [0], method="ratio")
        with pytest.raises(ValueError, match=r"p_x = 2\*\*1024 overflows a float"):
            estimate_prelog(constant(1.0), [1023, 1024])
        with pytest.raises(ValueError, match=r"p_x = 2\*\*inf overflows a float"):
            estimate_prelog(constant(1.0), [1023, math.inf])
        # 2.0**k is 0.0 below -1074, so a rung there would be computed at p_x = 0
        for ladder in ([-1100.0, 3.0], [-1100.0, -1080.0]):
            with pytest.raises(ValueError, match=r"^p_x = 2\*\*-1100 underflows to 0.0$"):
                estimate_prelog(lambda p: np.log2(1 + p), ladder)

    @pytest.mark.parametrize("method", ["finite_difference", "ratio"])
    @pytest.mark.parametrize("ladder", [
        [40, 10, 39],  # the last two are not the two largest
        [40, 10],
        [10, 10],  # a zero-width finite difference
        [10, math.nan, 11],
    ])
    def test_the_ladder_must_increase(self, ladder, method):
        rate_fn = coupled_capacity_rate_fn(ScenarioCase.CASE_C, "pj=px", 0.8)
        with pytest.raises(ValueError) as refused:
            estimate_prelog(rate_fn, ladder, method=method)
        assert str(refused.value) == (
            f"exponents must be strictly increasing, got {tuple(map(float, ladder))}")

    @pytest.mark.parametrize("rate_fn, ladder, method", [
        (np.ones_like, [math.nan], "ratio"),  # gave prelog nan
        (lambda p: np.log2(1 + p), [-math.inf, 3.0], "finite_difference"),  # gave 0.0
    ], ids=["nan-ratio", "minus-inf-finite-difference"])
    def test_an_exponent_that_is_not_finite_is_refused(self, rate_fn, ladder, method):
        with pytest.raises(ValueError) as refused:
            estimate_prelog(rate_fn, ladder, method=method)
        assert str(refused.value) == f"exponents must be finite, got {tuple(ladder)}"

    def test_the_smallest_subnormal_power_is_accepted(self):
        est = estimate_prelog(lambda p: np.log2(1 + p), [-1074.0, 3.0])
        assert est.rate_samples == (0.0, math.log2(9.0))
        assert est.prelog == math.log2(9.0) / 1077.0

    def test_rate_fn_gives_one_rate_per_power(self):
        # the whole ladder goes to rate_fn at once; a scalar is not taken as every rung's rate
        with pytest.raises(ValueError, match="rates for 2 powers"):
            estimate_prelog(lambda p: 1.0, [10, 11])

    def test_case_a_coupling_reaches_half(self):
        est = estimate_prelog(coupled_capacity_rate_fn(ScenarioCase.CASE_A))
        assert est.prelog == pytest.approx(0.5, abs=0.02)

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ValueError):
            coupled_capacity_rate_fn(ScenarioCase.CASE_A, coupling="pj=px^2")


def per_rung_rate(case, coupling, scale, p_x):
    """One rung as a single config gives it: the couplings of
    `coupled_capacity_rate_fn` in scalar Python, then `best_achievable`."""
    p_j = {"pj=px": p_x, "pj=sqrt(px)": math.sqrt(p_x), "pj=1000": 1000.0}[coupling]
    target = max(0.5 * math.log2(p_x), 0.0)
    c1 = None
    if case is ScenarioCase.CASE_C:
        g = gaussian_mi(p_x, p_j)
        c1, c2 = scale * max(target, g), scale * max(target - g, 0.0)
    else:
        if case is ScenarioCase.CASE_B:
            c1 = scale * target
        info = 0.5 * (math.log2(p_x) + math.log2(p_j) - math.log2(p_x + p_j))
        c2 = scale * max(info, 0.0)
    return best_achievable(make_preset(case, p_x, p_j, c1=c1, c2=c2)).rate


@pytest.fixture
def no_config(monkeypatch):
    """Every ChannelConfig built during the test fails it."""
    def refuse(self):
        raise AssertionError("a ladder builds no ChannelConfig")

    monkeypatch.setattr(ChannelConfig, "__post_init__", refuse)


class TestArrayLadders:
    @pytest.mark.parametrize("case", list(ScenarioCase))
    @pytest.mark.parametrize("coupling", ["pj=px", "pj=sqrt(px)", "pj=1000"])
    @pytest.mark.parametrize("scale", [1.0, 0.8])
    def test_ladder_equals_one_config_per_rung(self, case, coupling, scale):
        rate_fn = coupled_capacity_rate_fn(case, coupling, scale)
        for lo, hi in ((10, 1000), (-30, 5)):
            powers = [2.0**k for k in range(lo, hi + 1)]
            rates = rate_fn(np.array(powers))
            assert bit_patterns(rates) == bit_patterns(
                [per_rung_rate(case, coupling, scale, p) for p in powers])

    @pytest.mark.usefixtures("no_config")
    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_a_ladder_is_one_call_and_builds_no_config(self, case, monkeypatch):
        calls = []
        core, rate_fn = scaling.best_rate, coupled_capacity_rate_fn(case, "pj=sqrt(px)", 0.8)
        monkeypatch.setattr(scaling, "best_rate", lambda *a: calls.append("core") or core(*a))
        est = estimate_prelog(lambda p: calls.append(p.size) or rate_fn(p), range(10, 1001))
        assert calls == [991, "core"]
        assert len(est.rate_samples) == 991

    @pytest.mark.usefixtures("no_config")
    def test_the_looseness_demo_is_one_call_per_bound(self, monkeypatch):
        calls = []
        for name in ("cutset_min_array", "modulo_bound_array"):
            bound = getattr(scaling, name)
            monkeypatch.setattr(scaling, name,
                                lambda *a, _n=name, _f=bound: calls.append(_n) or _f(*a))
        cutset_looseness_demo()
        assert calls == ["cutset_min_array", "modulo_bound_array"]

    @pytest.mark.parametrize("coupling, scale, ladder, refused", [
        ("pj=px", 1.0, [-1100, 10], "underflows to 0.0"),  # refused by the ladder itself
        ("pj=0", 1.0, [10, 11], "constant interferer power must be > 0, got 0.0"),
        ("pj=nan", 1.0, [10, 11], "constant interferer power must be > 0, got nan"),
        ("pj=px", -1.0, [10, 11], "capacity scale must be finite and >= 0, got -1.0"),
        ("pj=px", math.nan, [10, 11], "capacity scale must be finite and >= 0, got nan"),
        # Case B's c1 would be unlimited, and inf * 0 bits at p_x = 1 is NaN
        ("pj=px", math.inf, [10, 11], "capacity scale must be finite and >= 0, got inf"),
    ])
    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_the_ladder_refuses_what_a_config_refuses(self, case, coupling, scale, ladder,
                                                      refused):
        with pytest.raises(ValueError, match=refused):
            estimate_prelog(coupled_capacity_rate_fn(case, coupling, scale), ladder)

    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_the_rate_function_refuses_a_zero_power(self, case):
        with pytest.raises(ValueError, match="every p_x"):
            coupled_capacity_rate_fn(case)(np.array([0.0, 1024.0]))


class TestRegion:
    def test_symmetric_power_reference(self):
        # pj = px makes 0.5*log2(1 + px/pj) exactly half a bit
        p_x = 2.0**20
        target = 0.5 * math.log2(p_x)  # 10 bits
        region = required_region_case_c(target, p_x, p_x)
        rhs = {label: rhs for label, _, _, rhs in region.constraints}
        assert rhs["b1: c1 + c2"] == pytest.approx(2 * target - 0.5, rel=1e-14)
        assert rhs["b2: c1"] == pytest.approx(target - 0.5, rel=1e-14)
        assert region.p1[0] > region.p1[1]
        assert region.p1 == pytest.approx((target, target - 0.5), rel=1e-14)
        assert region.p2 == (region.p1[1], region.p1[0])

    def test_zero_target_is_the_quadrant(self):
        region = required_region_case_c(0.0, 100.0, 10.0)
        assert region.vertices == ((0.0, 0.0),)
        assert all(rhs == 0.0 for _, _, _, rhs in region.constraints)
        assert region.contains(0.0, 0.0)

    def test_small_target_leaves_only_sum_constraint(self):
        # below 0.5*log2(1+px/pj) the per-link constraints clamp to zero
        region = required_region_case_c(0.3, 100.0, 100.0)
        rhs = {label: rhs for label, _, _, rhs in region.constraints}
        assert rhs["b2: c1"] == 0.0 and rhs["b2: c2"] == 0.0
        assert rhs["b1: c1 + c2"] == pytest.approx(0.3)
        assert region.vertices == ((0.0, 0.3), (0.3, 0.0))

    def test_convexity_and_upward_closure(self):
        rng = np.random.default_rng(53)
        region = required_region_case_c(8.0, 1e6, 1e3)
        span = 3.0 * max(v for vertex in region.vertices for v in vertex)
        inside = []
        while len(inside) < 40:
            c1, c2 = rng.uniform(0.0, span, 2)
            if region.contains(c1, c2):
                inside.append((c1, c2))
        for (a1, a2), (b1, b2) in zip(inside[::2], inside[1::2]):
            assert region.contains((a1 + b1) / 2, (a2 + b2) / 2)
        for c1, c2 in inside[:10]:
            assert region.contains(c1 + 1.0, c2 + 2.0)

    def test_vertices_lie_on_the_boundary(self):
        region = required_region_case_c(8.0, 1e6, 1e3)
        for c1, c2 in region.vertices:
            assert region.contains(c1, c2)
            assert not region.contains(c1 - 1e-6, c2 - 1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            required_region_case_c(1.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            required_region_case_c(-1.0, 10.0, 1.0)


class TestCornerPointAchievability:
    def test_prelog_at_both_corners(self):
        # capacities pinned to the region corners sustain the target pre-log
        def corner_rate(p_x, swap):
            target = 0.5 * np.log2(p_x)
            g = 0.5 * math.log2(1.0 + 1.0)  # pj = px coupling
            c1, c2 = np.maximum(target, g), np.maximum(target - g, 0.0)
            if swap:
                c1, c2 = c2, c1
            return best_rate(ScenarioCase.CASE_C, p_x, p_x, c1, c2)[0]

        for swap in (False, True):
            est = estimate_prelog(lambda p: corner_rate(p, swap), range(10, 41))
            assert est.prelog == pytest.approx(0.5, abs=0.02)


def gap_at(case, p_x, p_j):
    """The certificate of the one-point grid (p_x, p_j)."""
    (cert,) = certify_gaps(case, [p_x], [p_j])
    return cert


class TestGapCertificates:
    def test_case_a_high_interference_point(self):
        cert = gap_at(ScenarioCase.CASE_A, 100.0, 1000.0)
        assert cert.regime == "high_interference"
        assert cert.claimed_bound == 0.7925
        assert cert.max_gap <= 0.7925
        assert cert.satisfied

    def test_case_a_low_interference_point(self):
        cert = gap_at(ScenarioCase.CASE_A, 1000.0, 100.0)
        assert cert.regime == "low_interference"
        assert cert.max_gap <= 1.0

    def test_case_a_outside_regimes(self):
        with pytest.raises(ValueError):
            gap_at(ScenarioCase.CASE_A, 10.0, 0.5)

    def test_case_a_equal_powers_grid(self):
        gaps = [gap_at(ScenarioCase.CASE_A, p, p).max_gap for p in default_power_grid()]
        assert max(gaps) <= 1.0

    def test_case_b_points(self):
        assert gap_at(ScenarioCase.CASE_B, 1e4, 1e3).max_gap <= 1.29
        assert gap_at(ScenarioCase.CASE_B, 1.0001, 1.0).max_gap <= 1.29
        assert gap_at(ScenarioCase.CASE_B, 1e8, 1e8).max_gap <= 1.29

    def test_case_b_regime_bounds(self):
        with pytest.raises(ValueError):
            gap_at(ScenarioCase.CASE_B, 1.0, 10.0)
        with pytest.raises(ValueError):
            gap_at(ScenarioCase.CASE_B, 100.0, 0.5)

    def test_case_c_modulo_regime(self):
        cert = gap_at(ScenarioCase.CASE_C, 1e6, 1e3)
        assert cert.regime == "modulo"
        assert cert.bound_used == "modulo"
        assert cert.max_gap <= 2.816
        assert gap_at(ScenarioCase.CASE_C, 4.0, 2.0).max_gap <= 2.816

    def test_case_c_cutset_regime(self):
        cert = gap_at(ScenarioCase.CASE_C, 1e3, 1e7)
        assert cert.regime == "cutset"
        assert cert.max_gap <= 1.5

    def test_case_c_between_regimes(self):
        with pytest.raises(ValueError):
            gap_at(ScenarioCase.CASE_C, 100.0, 100.0)
        with pytest.raises(ValueError):
            gap_at(ScenarioCase.CASE_C, 100.0, 1.0)
        # the per-point path refuses such a point itself
        with pytest.raises(ValueError, match="lies outside every CASE_C gap regime"):
            scaling._point_certificate(ScenarioCase.CASE_C, 10.0, 10.0)

    def test_grid_certification(self):
        for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
            certs = certify_gaps(case)
            assert all(c.satisfied for c in certs)
            assert all(c.grid_points > 0 for c in certs)
        regimes = {c.regime for c in certify_gaps(ScenarioCase.CASE_A)}
        assert regimes == {"high_interference", "low_interference"}

    @pytest.mark.parametrize("px_grid, pj_grid", [
        ([-5.0, 10.0, 100.0], [10.0, 100.0]),
        ([10.0, math.inf], [10.0]),
        ([10.0, math.nan], [10.0]),
        ([10.0, 100.0], [10.0, math.nan]),
        ([10.0, 100.0], [-1.0, 10.0]),
        ([[10.0, 100.0], [1e3, 1e4]], [10.0, 100.0]),  # a grid is a flat sequence
        ([10.0, 100.0], [[10.0, 100.0], [1e3, 1e4]]),
        (10.0, [10.0]),
    ])
    def test_grid_outside_the_model_is_rejected_not_dropped(self, px_grid, pj_grid):
        # a power outside the model is refused, never dropped from the certificate
        for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
            with pytest.raises(ValueError):
                certify_gaps(case, px_grid, pj_grid)

    def test_numpy_powers_certify_as_python_floats(self):
        # (1 + p_x)**2 of a numpy float warns and gives inf past p_x ~ 1.3e154,
        # which would empty the cut-set regime of those rows
        powers = [10.0 ** (150.0 + k / 2.0) for k in range(21)]
        certs = certify_gaps(ScenarioCase.CASE_C, powers, powers)
        assert certify_gaps(ScenarioCase.CASE_C, np.array(powers), np.array(powers)) == certs
        assert {c.regime: c.grid_points for c in certs}["cutset"] == 210

    @pytest.mark.parametrize("ufunc_path", [True, False])
    def test_the_default_grid_is_the_cli_grid_1_9_5(self, ufunc_path, monkeypatch):
        monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
        bits = [float.hex(p) for p in default_power_grid()]
        assert bits == [float.hex(p) for p in _parse_grid("1:9:5")[0]]
        assert bits == [float.hex(10.0 ** (1.0 + k / 5)) for k in range(41)]

    @pytest.mark.parametrize("per_decade", [3, 5, 20, 150])
    def test_grid_decades_are_exact_powers_of_ten(self, per_decade):
        # steps of a rounded 1/per_decade drift off them: 1:9:20 would end at 1000000000.0000163
        grid = scaling._decade_grid(1.0, 9.0, per_decade)
        assert len(grid) == 8 * per_decade + 1
        assert grid[::per_decade] == [10.0 ** (1 + k) for k in range(9)]

    EXTREME_PX = [-0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 1.3e154, 1e300, sys.float_info.max]
    EXTREME_PJ = [0.0, 5e-324, 0.5, 1.0, 1.5, 1e154, 1e300, sys.float_info.max, math.inf]
    #: (regime, points, worst point, max_gap bits) per certificate of the extreme grid
    EXTREME_CERTIFICATES = {
        ScenarioCase.CASE_A: [("high_interference", 51, (1.0, 1e154), "0x1.0000000000000p-1"),
                              ("low_interference", 12, (1.3e154, 1e154), "0x1.0000000000100p-1")],
        ScenarioCase.CASE_B: [("standard", 24, (1.3e154, 1e154), "0x1.95c01a39fbe00p-1")],
        ScenarioCase.CASE_C: [("cutset", 18, (1e300, sys.float_info.max), "0x1.95c01a5c73c00p-1"),
                              ("modulo", 8, (1.3e154, 1e154), "0x1.42caa83496680p+1")],
    }

    @pytest.mark.parametrize("ufunc_path", [True, False])
    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_extreme_grid_gives_the_pinned_certificates(self, case, ufunc_path, monkeypatch):
        # a tile evaluates every point of its rows, zero, subnormal and p_j < 1 powers and
        # the Case C band included: none of them warns, raises or reaches a certificate
        monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certs = certify_gaps(case, self.EXTREME_PX, self.EXTREME_PJ)
        assert [(c.regime, c.grid_points, c.worst_point, c.max_gap.hex())
                for c in certs] == self.EXTREME_CERTIFICATES[case]

    def test_unlimited_interferer_stays_on_the_grid(self):
        (cert,) = certify_gaps(ScenarioCase.CASE_B, [10.0, 100.0], [10.0, math.inf])
        assert cert.grid_points == 4 and cert.satisfied

    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_grid_memory_does_not_grow_with_the_points(self, case):
        # `gaps --grid 1:9:20`: 25 921 points, of which a certificate keeps a
        # count and one point; a tuple per point would peak at 2.3-2.8 MiB
        grid, _ = _parse_grid("1:9:20")
        certify_gaps(case, grid, grid)  # warm-up: first-call caches are not the grid's
        tracemalloc.start()
        try:
            certify_gaps(case, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20

    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_grid_memory_does_not_grow_with_the_grid(self, case):
        # `gaps --grid 1:9:60`: 231 361 points, nine times those of 1:9:20,
        # under the same bound; whole-regime columns would peak at 7-9 MiB
        grid, _ = _parse_grid("1:9:60")
        certify_gaps(case, grid, grid)
        tracemalloc.start()
        try:
            certify_gaps(case, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20

    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_grid_memory_does_not_grow_with_the_columns(self, case, monkeypatch):
        # rows of 10 and of 100 tiles of 256 p_j: a tile's memory stays that of 256 points,
        # and the peak grows only by the p_j grid itself (its array, 0.5*log2 of it and one
        # temporary: 3 floats a column); whole rows took 12-15 floats a column
        monkeypatch.setattr(scaling, "_GAP_BLOCK", 256)
        peaks, sizes = [], (2560, 25600)
        for columns in sizes:
            p_j = (10.0 ** np.linspace(-1.0, 9.0, columns)).tolist()
            certify_gaps(case, [1e3, 1e6], p_j)
            tracemalloc.start()
            try:
                certify_gaps(case, [1e3, 1e6], p_j)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 3.5 * 8 * (sizes[1] - sizes[0]), peaks


def bit_patterns(values):
    return [struct.pack("<d", v) for v in np.asarray(values, dtype=float).tolist()]


def fold_in_blocks(values, cuts, *columns):
    """`_first_max` over the blocks that the cuts split the last axis into."""
    best = None
    for block in zip(*(np.split(v, cuts, axis=-1) for v in (values, *columns))):
        best = _first_max(best, *block)
    return best


class TestFirstMaxFold:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_argmax_over_the_concatenation(self, seed):
        # few distinct values, so ties span block boundaries, and some NaNs
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        values = rng.choice([0.0, 1.0, 2.0, math.nan], size=(rows, n),
                            p=[0.3, 0.3, 0.35, 0.05] if seed % 2 else [0.3, 0.3, 0.4, 0.0])
        position = np.broadcast_to(np.arange(n), values.shape)
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        value, at = fold_in_blocks(values, cuts, position)
        assert at.tolist() == np.argmax(values, axis=-1).tolist()
        assert bit_patterns(value) == bit_patterns(values.max(axis=-1))
        # one row folds as a 1-d block stream
        value, at = fold_in_blocks(values[0], cuts, position[0])
        assert int(at) == int(np.argmax(values[0]))

    @pytest.mark.parametrize("values, expected", [
        ([[0.0, 2.0], [2.0, 1.0]], 1),  # the tie across the boundary keeps the first
        ([[0.0, 1.0], [2.0, math.nan]], 3),  # a NaN beats every number
        ([[math.nan, 1.0], [2.0, math.nan]], 0),  # the first NaN wins
        ([[-math.inf], [-math.inf]], 0),
    ])
    def test_block_boundaries(self, values, expected):
        blocks = [np.array(v) for v in values]
        best = None
        for k, block in enumerate(blocks):
            best = _first_max(best, block, np.arange(block.size) + 2 * k)
        assert int(best[1]) == expected == int(np.argmax(np.concatenate(blocks)))


#: The block size the sweep tests below patch in (the sweep's before it grew), so
#: that their small grids still span several blocks.
_BLOCK = 2048


class TestTileFold:
    """`certify_gaps` folds each regime's gaps tile by tile exactly as np.argmax over
    the whole regime in grid order picks its worst point, with tiles of whole rows
    (2 048 points: 34 rows of 60) and tiles that cut rows (25 points: 25, 25 and 10)."""

    CASE = ScenarioCase.CASE_B
    GRID = (10.0 ** np.linspace(0.5, 9.0, 60)).tolist()  # 3 600 standard points

    @pytest.fixture(autouse=True, params=[2048, 25])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(scaling, "_GAP_BLOCK", request.param)
        return request.param

    def regime_points(self, block):
        """The regime's points in grid order, and the points of the first tile."""
        tiles = []
        for (regime,), (px, pj, _, _) in _gap_tiles(self.CASE, self.GRID, self.GRID):
            px, pj = (v[regime.mask].tolist() for v in np.broadcast_arrays(px, pj))
            tiles.append(list(zip(px, pj)))
        sizes = [len(tile) for tile in tiles]
        assert sizes == ([34 * 60, 26 * 60] if block == 2048 else [25, 25, 10] * 60)
        return [point for tile in tiles for point in tile], sizes[0]

    def certify_with_gaps(self, monkeypatch, gap_at):
        def gaps(case, regimes, px, pj, c1, c2):
            marks = [gap_at.get(point, 0.0)
                     for point in zip(*(v.ravel().tolist() for v in np.broadcast_arrays(px, pj)))]
            marks = np.reshape(marks, np.broadcast(px, pj).shape)
            return [np.where(regime.mask, marks, -math.inf) for regime in regimes]

        monkeypatch.setattr(scaling, "_gaps", gaps)
        (cert,) = certify_gaps(self.CASE, self.GRID, self.GRID)
        return cert

    @pytest.mark.parametrize("marked", [
        lambda edge: {edge - 1: 1.0, edge: 1.0},  # a tie on either side of the tile boundary
        lambda edge: {edge - 1: 1.0, edge + 5: math.nan},  # a NaN in the later tile wins
        lambda edge: {edge + 5: math.nan, edge + 9: math.nan, 7: 3.0},  # of two NaNs the first
        lambda edge: {0: math.nan, edge: math.nan},
        lambda edge: {},  # every gap ties: the regime's first point
    ])
    def test_worst_point_is_the_argmax_of_the_concatenation(self, monkeypatch, block, marked):
        points, edge = self.regime_points(block)
        gap_at = {points[k]: gap for k, gap in marked(edge).items()}
        cert = self.certify_with_gaps(monkeypatch, gap_at)
        concatenated = [gap_at.get(point, 0.0) for point in points]
        assert cert.worst_point == points[int(np.argmax(concatenated))]
        assert cert.grid_points == len(points)


def per_row_regimes(case, p_x, p_j):
    """[(name, mask, c1, c2)] of the gap regimes at the one p_x, formed from Python
    floats row by row (c2 None: 0.5*log2(p_j))."""
    h = 0.5 * math.log2(1.0 + p_x)
    if case is ScenarioCase.CASE_A:
        high = [q >= p_x for q in p_j]
        return [("high_interference", high, math.inf, h),
                ("low_interference", [not a and q >= 1.0 for a, q in zip(high, p_j)],
                 math.inf, None)]
    if case is ScenarioCase.CASE_B:
        return [("standard", [q >= 1.0 and p_x > 1.0 for q in p_j], h, None)]
    modulo = [1.0 < q < p_x for q in p_j]
    return [("modulo", modulo, h, None),
            ("cutset", [not m and q > threshold(p_x) for m, q in zip(modulo, p_j)], h, h)]


def threshold(p_x):
    """(1+p_x)^2/p_x by Python's float **, and its form past the overflow of the square."""
    if not p_x > 0.0:
        return math.inf
    try:
        return (1.0 + p_x) ** 2 / p_x
    except OverflowError:
        return (1.0 + p_x) * ((1.0 + p_x) / p_x)


class TestGapRegimeRows:
    """`_gap_regimes` over a column of p_x rows, and the blocks `_regime_blocks`
    gathers from it, equal the regimes formed row by row, bit for bit."""

    # the square (1+p_x)^2 overflows from sqrt of the largest float on
    PX = [0.0, 1.0, 2.0, 1e154, 1.3e154, *_near(math.sqrt(sys.float_info.max), 2), 1e300]
    PJ = [0.0, 0.5, 1.0, 1.5, 1e154, 1.2e154, 1e300, math.inf,
          *(q for p_x in PX[1:] for q in (threshold(p_x), math.nextafter(threshold(p_x), 0.0),
                                          math.nextafter(threshold(p_x), math.inf)))]

    def test_the_edge_rows_take_the_overflow_form(self):
        overflowing = []
        for p_x in self.PX:
            try:
                (1.0 + p_x) ** 2
            except OverflowError:
                overflowing.append(p_x)
        assert overflowing == self.PX[-3:]

    @pytest.mark.parametrize("ufunc_path", [True, False])
    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_rows_equal_the_per_row_regimes(self, case, ufunc_path, monkeypatch):
        # `libm.square` gives inf on both paths where the square overflows; the
        # threshold takes its product form there
        monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
        pin, regimes = _gap_regimes(case, np.array(self.PX)[:, None], np.array(self.PJ))
        pins = np.broadcast_to(pin, (len(self.PX), 1))  # the c1 pin all regimes share
        for row, p_x in enumerate(self.PX):
            expected = per_row_regimes(case, p_x, self.PJ)
            assert [regime.name for regime in regimes] == [name for name, *_ in expected]
            for regime, (_, mask, c1, c2) in zip(regimes, expected):
                assert regime.mask[row].tolist() == mask
                assert bit_patterns(pins[row]) == bit_patterns([c1])
                assert (regime.c2 is None) == (c2 is None)
                if c2 is not None:
                    assert bit_patterns(regime.c2[row]) == bit_patterns([c2])

    def test_a_zero_row_of_either_sign_has_no_cutset_regime(self):
        _, regimes = _gap_regimes(ScenarioCase.CASE_C, np.array([[-0.0], [0.0]]),
                                  np.array(self.PJ))
        assert regimes[1].name == "cutset" and not regimes[1].mask.any()
        for p_x in (-0.0, 0.0):  # a Python float, as the per-point path passes it
            with pytest.raises(ValueError, match="lies outside every CASE_C gap regime"):
                scaling._point_certificate(ScenarioCase.CASE_C, p_x, 1e300)

    @pytest.mark.parametrize("ufunc_path", [True, False])
    @pytest.mark.parametrize("block", [7, 2 * len(PJ) + 1])  # a slice of a row, two whole rows
    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_tiles_carry_the_per_row_pins(self, case, block, ufunc_path, monkeypatch):
        monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
        monkeypatch.setattr(scaling, "_GAP_BLOCK", block)
        expected = {}
        for p_x in self.PX:
            for name, mask, c1, c2 in per_row_regimes(case, p_x, self.PJ):
                expected.setdefault(name, []).extend(
                    (p_x, q, c1, 0.5 * math.log2(q) if c2 is None else c2)
                    for q, inside in zip(self.PJ, mask) if inside)
        tiles = {}
        for regimes, point in _gap_tiles(case, self.PX, self.PJ):
            columns = np.broadcast_arrays(*point)  # (p_x, p_j, c1, c2) at every point
            assert columns[0].size <= block
            for regime in regimes:
                tiles.setdefault(regime.name, []).extend(
                    zip(*(v[regime.mask].tolist() for v in columns)))
        assert sorted(tiles) == sorted(expected)
        for name, points in tiles.items():
            assert bit_patterns(np.ravel(points)) == bit_patterns(np.ravel(expected[name]))


class TestCutsetLooseness:
    def test_separation_at_the_default_ladder(self):
        cutset, modulo = cutset_looseness_demo()
        assert cutset.prelog == pytest.approx(0.5, abs=0.02)
        assert modulo.prelog < cutset.prelog - 0.05

    def test_one_prelog_ladder_per_bound(self):
        cutset, modulo = cutset_looseness_demo(range(0, 11))
        assert cutset.exponent_grid == modulo.exponent_grid == tuple(map(float, range(11)))
        assert cutset.method == modulo.method == "finite_difference"
        p_x = np.array([2.0**k for k in range(11)])  # p_j = sqrt(p_x), c1 = c2 = k/4
        point, cap = (p_x, np.sqrt(p_x)), np.arange(11) / 4.0
        assert cutset.rate_samples == tuple(
            cutset_min_array(ScenarioCase.CASE_C, *point, cap, cap).tolist())
        assert modulo.rate_samples == tuple(modulo_bound_array(*point, cap, cap).tolist())

    @pytest.mark.parametrize("ladder, refused", [
        ([-1, 2], r"needs exponents >= 0, got \(-1\.0, 2\.0\)"),  # the links would be < 0
        ([-1e-300, 3], "needs exponents >= 0"),
        ([-math.inf, 3], "needs exponents >= 0"),
        ([], "exponent range must be nonempty"),  # refused by the ladders themselves
        ([0], "at least two exponents"),
        ([3, 2], "strictly increasing"),
        ([0, 1024], "overflows a float"),
    ])
    def test_refuses_a_ladder(self, ladder, refused):
        with pytest.raises(ValueError, match=refused):
            cutset_looseness_demo(ladder)

    @pytest.mark.parametrize("ladder, cutset, modulo", [
        (scaling.DEFAULT_EXPONENTS, "0x1.0000000000000p-1", "0x1.7ffff6704ca40p-2"),
        (range(0, 2), "0x1.0000000000000p-1", "0x1.4584846c355f4p-2"),
        (range(1000, 1024), "0x1.0000000000000p-1", "0x1.8000000000000p-2"),
    ])
    def test_slopes_keep_their_bits(self, ladder, cutset, modulo):
        estimates = cutset_looseness_demo(ladder)
        assert tuple(estimate.prelog for estimate in estimates) == (
            float.fromhex(cutset), float.fromhex(modulo))


class TestInterferenceInformationBound:
    def test_equal_powers(self):
        p = 13.7
        assert interference_info_lower_bound(p, p) == pytest.approx(
            0.5 * math.log2(p / 2.0), rel=1e-14
        )

    def test_large_signal_limit(self):
        assert interference_info_lower_bound(1e15, 9.0) == pytest.approx(
            0.5 * math.log2(9.0), abs=1e-9
        )

    def test_reference_point(self):
        assert interference_info_lower_bound(15, 15) == pytest.approx(
            1.4534452978042594, rel=1e-14
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            interference_info_lower_bound(0.0, 1.0)

    def test_unlimited_interferer_takes_the_limit(self):
        assert interference_info_lower_bound(15, math.inf) == 0.5 * math.log2(15.0)
        info = scaling._interference_info(np.array([15.0, 1e300]), math.inf)
        assert info.tolist() == [0.5 * math.log2(15.0), 0.5 * math.log2(1e300)]

    def test_rejects_unlimited_transmit_power(self):
        with pytest.raises(ValueError):
            interference_info_lower_bound(math.inf, 15.0)

    def test_powers_whose_sum_overflows(self):
        # 0.5*log2(p_x*p_j/(p_x + p_j)) with p_x + p_j past the largest float
        top = 2.0**1023
        assert interference_info_lower_bound(top, top) == 511.0
        assert interference_info_lower_bound(top, 1.0) == 0.0
        assert interference_info_lower_bound(1e308, 1e308) == pytest.approx(
            0.5 * math.log2(1e308 / 2.0), rel=1e-15)
        info = scaling._interference_info(np.array([2.0**1022, top]), np.array([2.0**1022, top]))
        assert info.tolist() == [510.5, 511.0]


class TestSweep:
    def test_empty_range(self):
        assert sweep_sum_capacity(ScenarioCase.CASE_B, 1e8, 1e4, []) == []

    def test_case_b_has_no_modulo_column(self):
        points = sweep_sum_capacity(ScenarioCase.CASE_B, 1e8, 1e4, [2.0], split_samples=51)
        assert points[0].modulo is None

    def test_case_c_below_breakpoint_local_decoding_wins(self):
        points = sweep_sum_capacity(ScenarioCase.CASE_C, 1e8, 1e4, [3.0], split_samples=51)
        (pt,) = points
        assert pt.winning_scheme is Scheme.LOCAL_DECODE
        assert pt.best_rate == pytest.approx(3.0)
        assert pt.modulo is not None and pt.best_rate <= pt.modulo

    def test_rate_below_cutset_envelope(self):
        points = sweep_sum_capacity(
            ScenarioCase.CASE_C, 1e8, 1e4, np.arange(0.0, 25.0, 2.5), split_samples=101
        )
        for pt in points:
            assert pt.best_rate <= pt.cutset + 1e-9
        assert points[-1].winning_scheme in (Scheme.CASE_C_PROP,)

    def test_rejects_case_a_and_bad_sums(self):
        with pytest.raises(ValueError):
            sweep_sum_capacity(ScenarioCase.CASE_A, 1.0, 1.0, [1.0])
        with pytest.raises(ValueError):
            sweep_sum_capacity(ScenarioCase.CASE_B, 1.0, 1.0, [-1.0])


def reference_sweep(case, p_x, p_j, sum_capacities, split_samples):
    """The per-split loop: one validated config per split, evaluated through
    the config-taking entry points."""
    points = []
    for total in sum_capacities:
        best_report_, best_split, best_cut = None, (0.0, 0.0), -math.inf
        for c1 in np.linspace(0.0, total, split_samples):
            cfg = make_preset(case, p_x, p_j, c1=float(c1), c2=float(total - c1))
            report = best_achievable(cfg)
            if best_report_ is None or report.rate > best_report_.rate:
                best_report_, best_split = report, (cfg.c1, cfg.c2)
            best_cut = max(best_cut, outer_bounds(cfg, case).cutset_min)
        modulo = None
        if case is ScenarioCase.CASE_C and p_j > 0.0:
            half = total / 2.0
            modulo = modulo_bound_case_c(make_preset(case, p_x, p_j, c1=half, c2=half))
        points.append(SweepPoint(float(total), best_report_.rate, best_report_.scheme,
                                 *best_split, best_cut, modulo))
    return points


class TestSweepMatchesReference:
    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    @pytest.mark.parametrize("p_x, p_j", [(1e8, 1e4), (1e3, 0.0), (37.5, 2.5e5), (2.0, math.inf)])
    def test_equal_points(self, case, p_x, p_j):
        sums = np.arange(0.0, 24.0, 1.75)
        assert sweep_sum_capacity(case, p_x, p_j, sums, split_samples=61) == reference_sweep(
            case, p_x, p_j, sums, 61
        )

    @pytest.mark.parametrize("case, p_x, p_j", [(ScenarioCase.CASE_B, 1e8, 1e4),
                                                (ScenarioCase.CASE_C, 37.5, 2.5e5)])
    def test_sums_span_blocks(self, case, p_x, p_j, monkeypatch):
        # a block holds two sums of 1 001 splits, so five sums take three blocks
        monkeypatch.setattr(scaling, "_SWEEP_BLOCK", _BLOCK)
        sums = [0.0, 3.5, 7.0, 10.5, 14.0]
        assert len(sums) * 1001 > 2 * _BLOCK
        assert sweep_sum_capacity(case, p_x, p_j, sums) == reference_sweep(
            case, p_x, p_j, sums, 1001)

    def test_splits_exceed_a_block(self, monkeypatch):
        monkeypatch.setattr(scaling, "_SWEEP_BLOCK", _BLOCK)
        sums, splits = [2.0, 9.0], _BLOCK + 52
        assert sweep_sum_capacity(ScenarioCase.CASE_C, 1e8, 1e4, sums, splits) == (
            reference_sweep(ScenarioCase.CASE_C, 1e8, 1e4, sums, splits))

    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    def test_long_sums_fold_their_chunks(self, case, monkeypatch):
        # chunks of 7 splits put the local-decoding plateau (a tie of every
        # split below the breakpoint) and each best split across chunk boundaries
        sums, splits = [0.0, 1.0, 3.0, 9.0, 20.0], _BLOCK + 52
        assert splits < scaling._SWEEP_BLOCK
        whole = sweep_sum_capacity(case, 1e8, 1e4, sums, splits)
        monkeypatch.setattr(scaling, "_SWEEP_BLOCK", 7)
        assert sweep_sum_capacity(case, 1e8, 1e4, sums, splits) == whole

    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    def test_splits_past_a_long_sum_block_equal_the_whole_row(self, case):
        n, totals = 2 * scaling._SWEEP_BLOCK + 37, [0.0, 2.5, 13.0]
        points = sweep_sum_capacity(case, 1e6, 1e3, totals, n)
        for point, total in zip(points, totals):
            c1 = np.linspace(0.0, total, n)
            c2 = total - c1
            rate, wins = best_rate(case, 1e6, 1e3, c1, c2)
            k = int(np.argmax(rate))
            assert (point.best_rate, point.c1, point.c2) == (rate[k], c1[k], c2[k])
            assert (point.winning_scheme is Scheme.LOCAL_DECODE) == wins[k]
            assert point.cutset == cutset_min_array(case, 1e6, 1e3, c1, c2).max()

    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    def test_memory_does_not_grow_with_the_splits(self, case):
        # one call over the whole row of 98 305 splits peaks at 7.5 (B) and 17 MiB (C)
        peaks = []
        for n in (2 * scaling._SWEEP_BLOCK + 1, 12 * scaling._SWEEP_BLOCK + 1):
            sweep_sum_capacity(case, 1e6, 1e3, [6.0], n)
            tracemalloc.start()
            try:
                sweep_sum_capacity(case, 1e6, 1e3, [6.0], n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.5 * 2**20
        assert abs(peaks[1] - peaks[0]) < 0.1 * 2**20

    @pytest.mark.parametrize("total", [math.inf, math.nan])
    def test_rejects_non_finite_sums(self, total):
        with pytest.raises(ValueError):
            sweep_sum_capacity(ScenarioCase.CASE_C, 10.0, 10.0, [1.0, total])

    @pytest.mark.parametrize("p_x, p_j", [(-1.0, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_bad_powers_without_sums(self, p_x, p_j):
        with pytest.raises(ValueError):
            sweep_sum_capacity(ScenarioCase.CASE_B, p_x, p_j, [])


class TestCaseExplicitCore:
    def test_equals_config_entry_points(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p_x, p_j = 10.0 ** rng.uniform(-3, 9, 2)
            p_j = rng.choice([p_j, 0.0, math.inf], p=[0.8, 0.1, 0.1])
            c1, c2 = 10.0 ** rng.uniform(-2, 2.5, 2)
            if rng.uniform() < 0.1:
                c2 = INFINITE_CAPACITY
            for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
                cfg = make_preset(case, p_x, p_j, c1=None if case is ScenarioCase.CASE_A else c1,
                                  c2=c2)
                point = (cfg.p_x, cfg.p_j, cfg.c1, cfg.c2)
                rate, local_wins = best_rate(case, *point)
                report = best_achievable(cfg)
                assert (report.rate, report.scheme is Scheme.LOCAL_DECODE) == (
                    rate.item(), local_wins.item())
                assert report == ref.best_report(case, *point)
                bound = outer_bounds(cfg, case)
                terms = cutset_term_arrays(case, *point)
                assert tuple((label, value.item()) for label, value in terms) == bound.terms
                if case is ScenarioCase.CASE_C:
                    modulo = modulo_bound_array(*point).item() if p_j > 0.0 else None
                    assert modulo == bound.modulo_bound
