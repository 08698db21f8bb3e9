"""The grids pick the exact argmax: the first best split, the first worst point.

`sweep_sum_capacity` and `certify_gaps` evaluate every point once, on the
path `model.math_map` takes (numpy's ufuncs where they give libm's bits,
else libm per element), and take each row's first maximum.  These tests
check the picks against the per-point references, on plateaus, and on
inputs where numpy's AVX-512 ufuncs, which differ from libm in the last bit,
would rank another point first.  The draws are derandomized, as in
test_properties.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from test_scaling import reference_sweep
from tworelay.model import ScenarioCase
from tworelay.scaling import _gap_regimes, _point_certificate
from tworelay.scaling import certify_gaps, sweep_sum_capacity

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))
FEW = settings(EXAMPLES, max_examples=15)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def axis(values):
    return st.lists(values, min_size=1, max_size=5, unique=True).map(np.array)


def reference_certificates(case, px_grid, pj_grid):
    """One certificate per regime from the per-point path: the first largest gap
    in grid order, at its point, with the count of the regime's points."""
    by_regime = {}
    for p_x in px_grid:
        for p_j in pj_grid:
            if any(regime.mask[0] for regime in _gap_regimes(case, p_x, np.array([p_j]))):
                cert = _point_certificate(case, p_x, p_j)
                assert (cert.grid_points, cert.worst_point) == (1, (p_x, p_j))
                by_regime.setdefault(cert.regime, []).append(cert)
    return tuple(replace(certs[int(np.argmax([c.max_gap for c in certs]))],
                         grid_points=len(certs))
                 for _, certs in sorted(by_regime.items()))


sums = st.lists(st.integers(0, 112).map(lambda k: k / 4.0), min_size=1, max_size=4)


@FEW
@given(st.sampled_from([B, C]), log_uniform(-2.0, 9.0),
       st.one_of(log_uniform(-2.0, 7.0), st.sampled_from([0.0, math.inf])), sums)
def test_sweep_picks_the_exact_best_split(case, p_x, p_j, totals):
    assert sweep_sum_capacity(case, p_x, p_j, totals, 41) == reference_sweep(
        case, p_x, p_j, totals, 41)


@FEW
@given(st.sampled_from([A, B, C]), axis(log_uniform(0.0, 9.0)), axis(log_uniform(0.0, 9.0)))
def test_gap_grid_picks_the_exact_worst_point(case, p_x, p_j):
    expected = reference_certificates(case, p_x.tolist(), p_j.tolist())
    if not expected:
        with pytest.raises(ValueError, match="no grid point"):
            certify_gaps(case, p_x.tolist(), p_j.tolist())
    else:
        assert certify_gaps(case, p_x.tolist(), p_j.tolist()) == expected


@pytest.mark.parametrize("case", [B, C])
def test_sum_zero_takes_the_first_split(case):
    (point,) = sweep_sum_capacity(case, 1e8, 1e4, [0.0], 61)
    assert (point.c1, point.c2) == (0.0, 0.0)
    assert [point] == reference_sweep(case, 1e8, 1e4, [0.0], 61)


def test_local_decoding_plateau_takes_its_first_split():
    # below the breakpoint local decoding gives the sum at every split: a flat row
    points = sweep_sum_capacity(C, 1e8, 1e4, [1.0, 3.0], 1001)
    assert [p.best_rate for p in points] == [1.0, 3.0]
    assert [p.c1 for p in points] == [0.0, 0.0]
    assert points == reference_sweep(C, 1e8, 1e4, [1.0, 3.0], 1001)


def test_case_a_high_interference_plateau():
    # the gap sits near 0.5 bit across the regime, so most of its points are candidates
    grid = [10.0 ** (k / 4.0) for k in range(4, 37)]
    (high,) = [c for c in certify_gaps(A, grid, grid) if c.regime == "high_interference"]
    assert high.max_gap == pytest.approx(0.5, abs=1e-3)
    assert certify_gaps(A, grid, grid) == reference_certificates(A, grid, grid)


# Found by search with numpy 2.4.6 on an AVX-512 host: there numpy's ufuncs
# rank another point first, and the exact first maximum is not among the
# points that tie at their maximum, so a grid on those loops picks wrong.


def test_sweep_where_the_numpy_argmax_is_not_exact():
    # Case C, sum 2.0 over 41 splits: AVX-512 loops prefer split 23, while the
    # exact rate ties at splits 17 and 23, and the first one wins
    (point,) = sweep_sum_capacity(C, 10.0, 100.0, [2.0], 41)
    assert point.c1 == np.linspace(0.0, 2.0, 41)[17]
    assert [point] == reference_sweep(C, 10.0, 100.0, [2.0], 41)


def test_gap_grid_where_the_numpy_argmax_is_not_exact():
    # Case A on --grid 2:4:2: AVX-512 loops put the worst high-interference gap
    # at (100, 10**2.5), the exact one, larger by an ulp, at (10**3.5, 10**4)
    grid = [10.0 ** (2.0 + k / 2.0) for k in range(5)]
    certificates = certify_gaps(A, grid, grid)
    (high,) = [c for c in certificates if c.regime == "high_interference"]
    assert high.worst_point == (grid[3], grid[4])
    assert certificates == reference_certificates(A, grid, grid)
