"""Screen and confirm: the grids pick the exact argmax from a numpy-ufunc screen.

`model._screening` evaluates the closed forms with numpy's ufuncs in place of
libm; the sweeps and gap grids screen every point that way and confirm
exactly only the points within tau = 1e-9*max(1, |row max|) of a row's
screened maximum (`scaling._near_max`).  That picks the first exact maximum
when the screened and exact values differ by at most tau/2, which the first
test checks on random points of every case.  The others check the picks
against the per-point references, including inputs where numpy's own argmax
is not the exact one.  The draws are derandomized, as in test_properties.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from test_scaling import reference_sweep
from tworelay.achievable import best_arrays, lattice_arrays
from tworelay.bounds import cutset_min_array, modulo_bound_array
from tworelay.model import ScenarioCase, _screening
from tworelay.scaling import _gap_regimes, _gaps, _near_max, _point_certificate
from tworelay.scaling import certify_gaps, sweep_sum_capacity

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))
FEW = settings(EXAMPLES, max_examples=15)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


signals = st.one_of(st.floats(1e-300, 1e308), log_uniform(-300.0, 308.0))
interferers = st.one_of(signals, st.sampled_from([0.0, math.inf]))
links = st.one_of(st.floats(0.0, 40.0), st.floats(512.0, 2000.0),
                  st.sampled_from([0.0, math.inf, 5e-324]))


def axis(values):
    return st.lists(values, min_size=1, max_size=5, unique=True).map(np.array)


def assert_within_half_tau(name, screened, exact):
    """|screened - exact| <= tau/2 with tau = 1e-9*max(1, |exact|), and the same
    infinities and NaNs.  A value's own magnitude gives a tau no larger than
    its row's, whose maximum is at least as large for these non-negative values."""
    finite = np.isfinite(exact)
    assert np.array_equal(np.isfinite(screened), finite), name
    assert np.array_equal(screened[~finite], exact[~finite], equal_nan=True), name
    error = np.abs(screened[finite] - exact[finite])
    assert np.all(error <= 0.5e-9 * np.maximum(1.0, np.abs(exact[finite]))), name


def quantities(grid):
    """Every screened quantity: the rates of the sweeps and gap grids, the cut-set
    minimum and the modulo bound."""
    values = {}
    for case in (A, B, C):
        values[f"rate {case.value}"] = best_arrays(case, *grid)[0].rate
        values[f"cutset {case.value}"] = cutset_min_array(case, *grid)
    values["lattice c"] = lattice_arrays(C, *grid).rate
    values["modulo"] = modulo_bound_array(*grid)
    return values


@EXAMPLES
@given(axis(signals), axis(interferers), axis(links), axis(links))
def test_screened_values_are_within_half_tau(p_x, p_j, c1, c2):
    grid = np.ix_(p_x, p_j, c1, c2)
    with _screening():
        screened = quantities(grid)
    exact = quantities(grid)
    for name, values in exact.items():
        assert_within_half_tau(name, screened[name], values)


@EXAMPLES
@given(st.sampled_from([A, B, C]), axis(log_uniform(0.0, 308.0)),
       axis(st.one_of(log_uniform(0.0, 308.0), st.just(math.inf))))
def test_screened_gaps_are_within_half_tau(case, p_x, p_j):
    for p in p_x.tolist():
        for regime in _gap_regimes(case, p, p_j):
            pj = p_j[regime.mask]
            px, c1 = np.full(pj.size, p), np.full(pj.size, regime.c1)
            c2 = None if regime.c2 is None else np.full(pj.size, regime.c2)
            with _screening():
                screened = _gaps(case, regime, px, pj, c1, c2)
            assert_within_half_tau(regime.name, screened, _gaps(case, regime, px, pj, c1, c2))


def test_near_max_keeps_a_row_with_a_non_finite_value_whole():
    # tau is 2e-9 at a row maximum of 2
    screened = np.array([[1.0, 2.0, 2.0 - 1e-9, 2.0 - 3e-9],
                         [1.0, math.nan, 0.0, 1.0],
                         [0.0, math.inf, 1.0, 2.0]])
    assert _near_max(screened).tolist() == [[False, True, True, False], [True] * 4, [True] * 4]


def reference_certificates(case, px_grid, pj_grid):
    """One certificate per regime from the per-point path: the first largest gap
    in grid order, with the regime's points as its grid."""
    by_regime = {}
    for p_x in px_grid:
        for p_j in pj_grid:
            if any(regime.mask[0] for regime in _gap_regimes(case, p_x, np.array([p_j]))):
                cert = _point_certificate(case, p_x, p_j)
                by_regime.setdefault(cert.regime, []).append(cert)
    return tuple(replace(certs[int(np.argmax([c.max_gap for c in certs]))],
                         grid=tuple(c.grid[0] for c in certs))
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


# Found by search with numpy 2.4.6 on an AVX-512 host: numpy's ufuncs rank
# another point first, and the exact first maximum is not among the points
# that tie at the screened maximum, so a candidate set without tolerance fails.


def test_sweep_where_the_numpy_argmax_is_not_exact():
    # Case C, sum 2.0 over 41 splits: the screen prefers split 23, while the
    # exact rate ties at splits 17 and 23, and the first one wins
    (point,) = sweep_sum_capacity(C, 10.0, 100.0, [2.0], 41)
    assert point.c1 == np.linspace(0.0, 2.0, 41)[17]
    assert [point] == reference_sweep(C, 10.0, 100.0, [2.0], 41)


def test_gap_grid_where_the_numpy_argmax_is_not_exact():
    # Case A on --grid 2:4:2: the screen puts the worst high-interference gap
    # at (100, 10**2.5), the exact one, larger by an ulp, at (10**3.5, 10**4)
    grid = [10.0 ** (2.0 + k / 2.0) for k in range(5)]
    assert certify_gaps(A, grid, grid) == reference_certificates(A, grid, grid)
