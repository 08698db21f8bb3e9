"""The array core equals the frozen scalar closed forms, bit for bit.

`scalar_reference` keeps the per-point implementations the core replaced.
Every test draws at least 10**4 random points per case, with the edge
values mixed in: links of 0 and inf bits, p_j of 0 and inf, p_x = 0, and
small links that put p_x/p_neq inside (0.5, 2), where the rate is taken
through log1p.  Floats are compared by their bit patterns, so a sign of
zero or a last-bit difference fails.
"""

import math

import numpy as np
import pytest

import scalar_reference as ref
from tworelay.achievable import (
    Scheme,
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_arrays,
    best_report,
    lattice_arrays,
    local_decode_baseline,
    local_decode_rates,
)
from tworelay.bounds import (
    cutset_min_array,
    cutset_term_arrays,
    cutset_terms,
    modulo_bound,
    modulo_bound_array,
)
from tworelay.model import ScenarioCase
from tworelay.scaling import _gap_row

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
N = 10_000


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_bits_equal(array, reference):
    assert np.array_equal(bits(array), bits(reference))


def random_points(seed: int, n: int = N):
    """(p_x, p_j, c1, c2) with the edge values mixed in."""
    rng = np.random.default_rng(seed)
    p_x = 10.0 ** rng.uniform(-3, 9, n)
    p_j = 10.0 ** rng.uniform(-3, 9, n)
    c1 = 10.0 ** rng.uniform(-2, math.log10(500.0), n)
    c2 = 10.0 ** rng.uniform(-2, math.log10(500.0), n)
    near = rng.uniform(size=n) < 0.2  # links of a fraction of a bit: p_x/p_neq near 1
    c1[near] = rng.uniform(0.2, 1.0, near.sum())
    c2[near] = rng.uniform(0.0, 1.0, near.sum())
    for values, specials in ((p_x, [0.0]), (p_j, [0.0, math.inf]),
                             (c1, [0.0, math.inf]), (c2, [0.0, math.inf])):
        hit = rng.uniform(size=n) < 0.05
        values[hit] = rng.choice(specials, hit.sum())
    return p_x, p_j, c1, c2


def as_lists(*arrays):
    return [a.tolist() for a in arrays]


def assert_report_arrays(arrays, reports):
    assert all(r.scheme is arrays.scheme for r in reports)
    for field in ("rate", "alpha", "p_d1", "p_d2", "p_neq"):
        assert_bits_equal(getattr(arrays, field), [getattr(r, field) for r in reports])
    assert arrays.min_branch.tolist() == [r.min_branch for r in reports]


@pytest.mark.parametrize("case, variant, seed", [
    (A, "prop", 1), (B, "prop", 2), (C, "prop", 3), (C, "derived", 4),
])
def test_lattice_rates_equal_reference(case, variant, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    if case is A:
        reports = [ref.achievable_case_a(*point) for point in zip(*as_lists(p_x, p_j, c2))]
    elif case is B:
        reports = [ref.achievable_case_b(*point) for point in zip(*as_lists(p_x, p_j, c1, c2))]
    else:
        reports = [ref.achievable_case_c(*point, variant)
                   for point in zip(*as_lists(p_x, p_j, c1, c2))]
    assert_report_arrays(lattice_arrays(case, p_x, p_j, c1, c2, variant), reports)
    if case is not C:
        # the draw reaches the log1p branch of the clamped rate
        live = p_x > 0.0
        ratio = p_x[live] / np.array([r.p_neq for r in reports])[live]
        assert np.count_nonzero((0.5 < ratio) & (ratio < 2.0)) > 100


@pytest.mark.parametrize("case, seed", [(B, 5), (C, 6)])
def test_local_decoding_and_best_scheme_equal_reference(case, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    points = list(zip(*as_lists(p_x, p_j, c1, c2)))
    local = [ref.local_decode_baseline(case, *point).rate for point in points]
    assert_bits_equal(local_decode_rates(case, p_x, p_j, c1, c2), local)
    best = [ref.best_report(case, *point) for point in points]
    arrays, local_wins = best_arrays(case, p_x, p_j, c1, c2)
    assert_bits_equal(arrays.rate, [r.rate for r in best])
    assert local_wins.tolist() == [r.scheme is Scheme.LOCAL_DECODE for r in best]
    assert 0 < local_wins.sum() < N


@pytest.mark.parametrize("case, seed", [(A, 7), (B, 8), (C, 9)])
def test_bounds_equal_reference(case, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    if case is A:
        c1 = np.full(N, math.inf)
    points = list(zip(*as_lists(p_x, p_j, c1, c2)))
    terms = [ref.cutset_terms(case, *point) for point in points]
    arrays = cutset_term_arrays(case, p_x, p_j, c1, c2)
    assert [label for label, _ in arrays] == [label for label, _ in terms[0]]
    for k, (_, values) in enumerate(arrays):
        assert_bits_equal(values, [t[k][1] for t in terms])
    assert_bits_equal(cutset_min_array(case, p_x, p_j, c1, c2),
                      [ref.cutset_min(case, *point) for point in points])
    if case is C:
        positive = p_j > 0.0
        modulo = [ref.modulo_bound(*point) for point in points]
        assert [m is None for m in modulo] == (~positive).tolist()
        inside = (v[positive] for v in (p_x, p_j, c1, c2))
        assert_bits_equal(modulo_bound_array(*inside), [m for m in modulo if m is not None])


@pytest.mark.parametrize("case, seed", [(A, 10), (B, 11), (C, 12)])
def test_gaps_equal_reference(case, seed):
    rng = np.random.default_rng(seed)
    p_x = 10.0 ** rng.uniform(-1, 9, 100)
    p_x[:3] = (0.0, 1.0, 4.0)
    p_j = 10.0 ** rng.uniform(-1, 9, 100)
    p_j[:4] = (0.0, 1.0, 4.0, math.inf)  # regime edges
    for px in p_x.tolist():
        expected = [ref.GAP_FUNCTIONS[case](px, pj) for pj in p_j.tolist()]
        covered = np.zeros(p_j.size, dtype=bool)
        for regime, gaps in _gap_row(case, px, p_j):
            covered |= regime.mask
            inside = [e for e, m in zip(expected, regime.mask) if m]
            assert all(e[0] == regime.name for e in inside)
            assert_bits_equal(gaps, [e[1] for e in inside])
        assert covered.tolist() == [e is not None for e in expected]


def test_point_wrappers_equal_reference():
    p_x, p_j, c1, c2 = random_points(13, n=300)
    for point in zip(*as_lists(p_x, p_j, c1, c2)):
        px, pj, l1, l2 = point
        assert achievable_case_a(px, pj, l2) == ref.achievable_case_a(px, pj, l2)
        assert achievable_case_b(*point) == ref.achievable_case_b(*point)
        for variant in ("prop", "derived"):
            assert achievable_case_c(*point, variant) == ref.achievable_case_c(*point, variant)
        for case in (B, C):
            assert local_decode_baseline(case, *point) == ref.local_decode_baseline(case, *point)
            assert best_report(case, *point) == ref.best_report(case, *point)
            assert cutset_terms(case, *point) == ref.cutset_terms(case, *point)
        assert modulo_bound(*point) == ref.modulo_bound(*point)


def test_core_departs_from_reference_only_where_it_raised():
    # Past about 512 bits 2**(2c) - 1 overflows: the reference's expm1 raises,
    # the core saturates at inf, as for an unlimited link.
    with pytest.raises(OverflowError):
        ref.achievable_case_b(15.0, 15.0, 600.0, 1.0)
    assert achievable_case_b(15.0, 15.0, 600.0, 1.0) == achievable_case_b(15.0, 15.0, math.inf, 1.0)


@pytest.mark.parametrize("p_x, p_j", [(-1.0, 1.0), (math.nan, 1.0), (1.0, -2.0), (1.0, math.nan)])
def test_point_entries_reject_powers_outside_the_model(p_x, p_j):
    # the array forms take their input as given; the per-point entries check it
    for call in (lambda: local_decode_baseline(B, p_x, p_j, 1.0, 1.0),
                 lambda: local_decode_baseline(C, p_x, p_j, 1.0, 1.0),
                 lambda: cutset_terms(A, p_x, p_j, math.inf, 1.0),
                 lambda: cutset_terms(C, p_x, p_j, 1.0, 1.0)):
        with pytest.raises(ValueError):
            call()
    if p_j > 0.0:  # modulo_bound gives None unless p_j > 0
        with pytest.raises(ValueError):
            modulo_bound(p_x, p_j, 1.0, 1.0)
