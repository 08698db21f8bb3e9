"""Invariants of the model as property tests over whole grids of the array core.

Each example is a random grid of up to 6 values per axis of
(p_x, p_j, c1, c2), with p_x = 0, p_j in {0, inf} and unlimited links among
the values drawn.  The tolerances are those of the fixed-point tests in
test_achievable.py.  The last property runs the Monte Carlo simulator on
random configs instead.  The draws are derandomized, so the suite sees the
same examples on every run.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import tworelay.lattice_sim as lattice_sim
from tworelay.achievable import best_rate, lattice_rate, local_decode_rates
from tworelay.bounds import cutset_min_array, modulo_bound_array
from tworelay.model import ScenarioCase

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
TOL = 1e-12
#: No shrink phase: a failing grid is reported as drawn, and a known failure
#: costs no search for a smaller one.
GRIDS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                 phases=(Phase.explicit, Phase.generate))

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
        "a": best_rate(A, *grid)[0],
        "b": best_rate(B, *grid)[0],
        "c": best_rate(C, *grid)[0],
        "c prop": lattice_rate(C, *grid, "prop"),
        "c derived": lattice_rate(C, *grid, "derived"),
    }


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
        assert np.all(best_rate(case, *grid)[0] <= bound + TOL), case


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


@GRIDS
@given(axis(powers), axis(interferers), axis(links), st.floats(0.0, 60.0))
def test_case_b_tends_to_case_a_as_c1_grows(p_x, p_j, c2, excess):
    p_x, p_j, c2 = np.ix_(p_x, p_j, c2)
    case_a = lattice_rate(A, p_x, p_j, math.inf, c2)
    assert np.array_equal(lattice_rate(B, p_x, p_j, math.inf, c2), case_a)
    # c1 = 0.5*log2(1+p_x) + excess leaves a relay-1 distortion of about
    # 2**(-2*excess), so Case B approaches Case A from below as excess grows
    c1 = 0.5 * np.log2(1.0 + p_x) + excess
    case_b = lattice_rate(B, p_x, p_j, c1, c2)
    assert np.all(case_b <= case_a + TOL)
    far = lattice_rate(B, p_x, p_j, c1 + 40.0, c2)
    assert np.all(case_a - far <= 1e-9)
    assert np.all(far >= case_b - TOL)


@GRIDS
@given(axis(powers), axis(interferers), axis(links), axis(links))
def test_local_decoding_is_at_most_its_sinr_rate(p_x, p_j, c1, c2):
    p_x, p_j, c1, c2 = np.ix_(p_x, p_j, c1, c2)
    # 0.5*log2(1 + p_x/(p_j+1)), here through numpy's log1p, not the core's libm path
    sinr_rate = 0.5 * np.log1p(p_x / (p_j + 1.0)) / math.log(2.0)
    for case, links in ((B, c1), (C, c1 + c2)):
        local = local_decode_rates(case, p_x, p_j, c1, c2)
        assert np.all(local <= sinr_rate + TOL), case
        assert np.all(local <= links), case


@st.composite
def sim_configs(draw):
    """A Case B, Case C or general-gains run of 4 to 16 batches."""
    case = draw(st.sampled_from(("b", "c", "general")))
    link = st.one_of(st.floats(0.5, 6.0), st.just(math.inf))
    fields = dict(case=case, p_x=draw(st.floats(0.5, 1e3)), p_j=draw(st.floats(0.0, 1e3)),
                  c1=draw(link), c2=draw(link),
                  samples=draw(st.integers(4, 16)) * lattice_sim.BATCH_SIZE
                  - draw(st.integers(0, 1000)),
                  seed=draw(st.integers(0, 2**31)),
                  interferer=draw(st.sampled_from(("gaussian", "uniform", "bpsk"))))
    if case == "general":
        fields.update(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(-2.0, 2.0)),
                      p_n1=draw(st.floats(0.1, 2.0)), p_n2=draw(st.floats(0.1, 2.0)))
    return lattice_sim.SimConfig(**fields)


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(sim_configs())
def test_simulated_noise_power_is_within_its_batch_means_error(cfg):
    # each batch's own unbiased variance of n_eq; their spread over the
    # batches is the batch-means standard error of the run's estimate
    batch_vars = {}
    real_batch = lattice_sim._sim_batch

    def recording_batch(cfg, scheme, edges, batch, m):
        result = real_batch(cfg, scheme, edges, batch, m)
        s1, s2 = result.sums["neq"], result.sums["neq2"]
        batch_vars[batch] = (s2 - s1 * s1 / m) / (m - 1)
        return result

    runs = []
    with mock.patch.object(lattice_sim, "_sim_batch", recording_batch):
        for workers in (1, 3):
            with mock.patch.object(lattice_sim, "_usable_cpus", lambda: workers):
                runs.append(lattice_sim.run_lattice_sim(cfg))
    assert astuple(runs[0]) == astuple(runs[1])
    stats = runs[0]
    per_batch = np.array([batch_vars[k] for k in sorted(batch_vars)])
    std_error = per_batch.std(ddof=1) / math.sqrt(per_batch.size)
    assert abs(stats.empirical_var_neq - stats.analytic_var_neq) <= 6.0 * std_error
