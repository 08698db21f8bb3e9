import math
import struct
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from tworelay import scaling
from tworelay.achievable import Scheme, best_achievable, best_rate
from tworelay.bounds import cutset_min_array, cutset_term_arrays, modulo_bound_array
from tworelay.bounds import modulo_bound_case_c, outer_bounds
from tworelay.cli import _parse_grid
from tworelay.model import INFINITE_CAPACITY, ScenarioCase, make_preset
from tworelay.scaling import (
    _BLOCK,
    _LONG_SUM_BLOCK,
    SweepPoint,
    _first_max,
    _regime_blocks,
    certify_gaps,
    cutset_looseness_demo,
    default_power_grid,
    estimate_prelog,
    interference_info_lower_bound,
    coupled_capacity_rate_fn,
    required_region_case_c,
    sweep_sum_capacity,
)


class TestEstimatePrelog:
    def test_pure_half_log(self):
        est = estimate_prelog(lambda p: 0.5 * math.log2(p), range(10, 21))
        assert est.prelog == pytest.approx(0.5, abs=1e-12)
        assert est.method == "finite_difference"
        assert len(est.rate_samples) == 11

    def test_constant_rate(self):
        assert estimate_prelog(lambda p: 3.25, range(5, 10)).prelog == 0.0

    def test_ratio_method(self):
        est = estimate_prelog(lambda p: 0.5 * math.log2(p) + 7.0, [40], method="ratio")
        # the offset decays only like 1/log2(p), hence the slow convergence
        assert est.prelog == pytest.approx(0.5 + 7.0 / 40.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_prelog(lambda p: 0.0, [])
        with pytest.raises(ValueError):
            estimate_prelog(lambda p: math.nan, [10, 11])
        with pytest.raises(ValueError):
            estimate_prelog(lambda p: 1.0, [10, 11], method="slope")
        with pytest.raises(ValueError):
            estimate_prelog(lambda p: 1.0, [10])

    def test_case_a_coupling_reaches_half(self):
        est = estimate_prelog(coupled_capacity_rate_fn(ScenarioCase.CASE_A))
        assert est.prelog == pytest.approx(0.5, abs=0.02)

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ValueError):
            coupled_capacity_rate_fn(ScenarioCase.CASE_A, coupling="pj=px^2")


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
        from tworelay.achievable import best_achievable
        from tworelay.model import make_preset

        def corner_rate(p_x, swap):
            target = 0.5 * math.log2(p_x)
            g = 0.5 * math.log2(1.0 + 1.0)  # pj = px coupling
            c1, c2 = max(target, g), max(target - g, 0.0)
            if swap:
                c1, c2 = c2, c1
            cfg = make_preset(ScenarioCase.CASE_C, p_x, p_x, c1=c1, c2=c2)
            return best_achievable(cfg).rate

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
    ])
    def test_grid_outside_the_model_is_rejected_not_dropped(self, px_grid, pj_grid):
        # a power outside the model is refused, never dropped from the certificate
        for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
            with pytest.raises(ValueError):
                certify_gaps(case, px_grid, pj_grid)

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


class TestRegimeBlocks:
    """`certify_gaps` folds each regime's blocks exactly as np.argmax over the
    whole regime in grid order picks its worst point."""

    CASE = ScenarioCase.CASE_B
    GRID = (10.0 ** np.linspace(0.5, 9.0, 60)).tolist()  # 3 600 standard points: two blocks

    def regime_points(self):
        points = [list(zip(px.tolist(), pj.tolist()))
                  for _, (px, pj, _, _) in _regime_blocks(self.CASE, self.GRID, self.GRID)]
        assert [len(block) for block in points] == [_BLOCK, 60 * 60 - _BLOCK]
        return [point for block in points for point in block]

    def certify_with_gaps(self, monkeypatch, gap_at):
        def gaps(case, regime, px, pj, c1, c2):
            return np.array([gap_at.get(point, 0.0) for point in zip(px.tolist(), pj.tolist())])

        monkeypatch.setattr(scaling, "_gaps", gaps)
        (cert,) = certify_gaps(self.CASE, self.GRID, self.GRID)
        return cert

    @pytest.mark.parametrize("marked", [
        {_BLOCK - 1: 1.0, _BLOCK: 1.0},  # a tie on either side of the block boundary
        {_BLOCK - 1: 1.0, _BLOCK + 5: math.nan},  # a NaN in the later block wins
        {_BLOCK + 5: math.nan, _BLOCK + 9: math.nan, 7: 3.0},  # of two NaNs the first
        {0: math.nan, _BLOCK: math.nan},
        {},  # every gap ties: the regime's first point
    ])
    def test_worst_point_is_the_argmax_of_the_concatenation(self, monkeypatch, marked):
        points = self.regime_points()
        gap_at = {points[k]: gap for k, gap in marked.items()}
        cert = self.certify_with_gaps(monkeypatch, gap_at)
        concatenated = [gap_at.get(point, 0.0) for point in points]
        assert cert.worst_point == points[int(np.argmax(concatenated))]
        assert cert.grid_points == len(points)


class TestCutsetLooseness:
    def test_separation_at_1e9(self):
        demo = cutset_looseness_demo(1e9)
        assert demo.cutset_prelog == pytest.approx(0.5, abs=0.02)
        assert demo.modulo_prelog < demo.cutset_prelog - 0.05

    def test_smoke_at_small_power(self):
        demo = cutset_looseness_demo(2.0)
        assert math.isfinite(demo.cutset_prelog)
        assert math.isfinite(demo.modulo_prelog)

    @pytest.mark.parametrize("p_x, cutset, modulo", [
        (2.0, "0x1.0000000000000p-1", "0x1.0bb42dc10f6ddp+1"),  # one rung: plain ratios
        (10.0, "0x1.0000000000000p-1", "0x1.ba1842d6ad9cap-1"),
        (1e9, "0x1.0000000000000p-1", "0x1.7ffe0dd1af632p-2"),
    ])
    def test_slopes_keep_their_bits(self, p_x, cutset, modulo):
        demo = cutset_looseness_demo(p_x)
        assert (demo.cutset_prelog, demo.modulo_prelog) == (
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
    def test_sums_span_blocks(self, case, p_x, p_j):
        # a block holds two sums of 1 001 splits, so five sums take three blocks
        sums = [0.0, 3.5, 7.0, 10.5, 14.0]
        assert len(sums) * 1001 > 2 * _BLOCK
        assert sweep_sum_capacity(case, p_x, p_j, sums) == reference_sweep(
            case, p_x, p_j, sums, 1001)

    def test_splits_exceed_a_block(self):
        sums, splits = [2.0, 9.0], _BLOCK + 52
        assert sweep_sum_capacity(ScenarioCase.CASE_C, 1e8, 1e4, sums, splits) == (
            reference_sweep(ScenarioCase.CASE_C, 1e8, 1e4, sums, splits))

    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    def test_long_sums_fold_their_chunks(self, case, monkeypatch):
        # chunks of 7 splits put the local-decoding plateau (a tie of every
        # split below the breakpoint) and each best split across chunk boundaries
        sums, splits = [0.0, 1.0, 3.0, 9.0, 20.0], _BLOCK + 52
        assert splits < _LONG_SUM_BLOCK
        whole = sweep_sum_capacity(case, 1e8, 1e4, sums, splits)
        monkeypatch.setattr(scaling, "_LONG_SUM_BLOCK", 7)
        assert sweep_sum_capacity(case, 1e8, 1e4, sums, splits) == whole

    @pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
    def test_splits_past_a_long_sum_block_equal_the_whole_row(self, case):
        n, totals = 2 * _LONG_SUM_BLOCK + 37, [0.0, 2.5, 13.0]
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
        for n in (2 * _LONG_SUM_BLOCK + 1, 12 * _LONG_SUM_BLOCK + 1):
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
