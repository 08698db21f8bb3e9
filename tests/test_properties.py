"""Invariants of the model as property tests over whole grids of the array core.

Each example is a random grid of up to 6 values per axis of
(p_x, p_j, c1, c2), with p_x = 0, p_j in {0, inf} and unlimited links among
the values drawn.  The tolerances are those of the fixed-point tests in
test_achievable.py.  The draws are derandomized, so the suite sees the same
examples on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tworelay.achievable import best_arrays, lattice_arrays
from tworelay.bounds import cutset_min_array, modulo_bound_array
from tworelay.model import ScenarioCase

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
TOL = 1e-12
#: No shrink phase: a failing grid is reported as drawn, and a known failure
#: costs no search for a smaller one.
GRIDS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                 phases=(Phase.explicit, Phase.generate))
#: A known defect these properties find: with p_j = inf and a p_x so small that
#: alpha**2 underflows to 0, alpha**2 * p_j is 0 * inf and the rate is NaN (the
#: per-point closed forms give the same NaN).  Strict, so mending it shows.
UNLIMITED_INTERFERER_NAN = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="NaN rate where p_j = inf and alpha**2 underflows to 0")

powers = st.floats(min_value=0.0, max_value=1e9)
interferers = st.one_of(powers, st.just(math.inf))
links = st.one_of(st.floats(min_value=0.0, max_value=300.0), st.just(math.inf))


def axis(values, min_size=1):
    return st.lists(values, min_size=min_size, max_size=6, unique=True).map(
        lambda v: np.array(sorted(v)))


def rates_on(grid):
    """The rates that carry each invariant: every case's best scheme, and
    Case C's lattice scheme in both closed forms."""
    return {
        "a": best_arrays(A, *grid)[0].rate,
        "b": best_arrays(B, *grid)[0].rate,
        "c": best_arrays(C, *grid)[0].rate,
        "c prop": lattice_arrays(C, *grid, "prop").rate,
        "c derived": lattice_arrays(C, *grid, "derived").rate,
    }


@UNLIMITED_INTERFERER_NAN
@GRIDS
@given(axis(powers), axis(interferers), axis(links), axis(links))
def test_best_rate_is_at_most_the_binding_bound(p_x, p_j, c1, c2):
    grid = np.ix_(p_x, p_j, c1, c2)
    for case in (A, B, C):
        bound = cutset_min_array(case, *grid)
        if case is C:
            with np.errstate(divide="ignore", invalid="ignore"):
                modulo = modulo_bound_array(*grid)
            bound = np.where((grid[1] > 0.0) & (modulo < bound), modulo, bound)
        assert np.all(best_arrays(case, *grid)[0].rate <= bound + TOL), case


@UNLIMITED_INTERFERER_NAN
@GRIDS
@given(axis(powers), axis(interferers), axis(links, 2), axis(links, 2))
def test_rate_does_not_decrease_in_either_link(p_x, p_j, c1, c2):
    for name, rate in rates_on(np.ix_(p_x, p_j, c1, c2)).items():
        assert np.all(np.diff(rate, axis=2) >= -TOL), (name, "c1")
        assert np.all(np.diff(rate, axis=3) >= -TOL), (name, "c2")


@GRIDS
@given(axis(powers), axis(interferers), axis(links))
def test_case_c_is_symmetric_under_swapping_the_links(p_x, p_j, c):
    rates = rates_on(np.ix_(p_x, p_j, c, c))
    for name in ("c", "c prop", "c derived"):
        assert np.array_equal(rates[name], rates[name].swapaxes(2, 3)), name


@UNLIMITED_INTERFERER_NAN
@GRIDS
@given(axis(powers), axis(interferers), axis(links), st.floats(0.0, 60.0))
def test_case_b_tends_to_case_a_as_c1_grows(p_x, p_j, c2, excess):
    p_x, p_j, c2 = np.ix_(p_x, p_j, c2)
    case_a = lattice_arrays(A, p_x, p_j, math.inf, c2).rate
    assert np.array_equal(lattice_arrays(B, p_x, p_j, math.inf, c2).rate, case_a)
    # c1 = 0.5*log2(1+p_x) + excess leaves a relay-1 distortion of about
    # 2**(-2*excess), so Case B approaches Case A from below as excess grows
    c1 = 0.5 * np.log2(1.0 + p_x) + excess
    case_b = lattice_arrays(B, p_x, p_j, c1, c2).rate
    assert np.all(case_b <= case_a + TOL)
    far = lattice_arrays(B, p_x, p_j, c1 + 40.0, c2).rate
    assert np.all(case_a - far <= 1e-9)
    assert np.all(far >= case_b - TOL)
