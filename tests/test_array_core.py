"""The closed forms equal the frozen scalar closed forms, bit for bit.

`scalar_reference` keeps the per-point implementations the core replaced.
The core is one function per closed form: it runs over numpy arrays, on
either libm path, with numpy's warnings switched off by its caller, and at a
point of Python floats, as the per-point entries run it.
Every test draws at least 10**4 random points per case, with the edge
values mixed in: links of 0 and inf bits, p_j of 0 and inf, p_x = 0, and
small links that put p_x/p_neq inside (0.5, 2), where the rate is taken
through log1p.  Floats are compared by their bit patterns, so a sign of
zero or a last-bit difference fails.
"""

import math
import struct

import numpy as np
import pytest

import scalar_reference as ref
from tworelay import libm, scaling
from tworelay.achievable import (
    Scheme,
    _case_b,
    _case_c,
    _case_c_fields,
    _case_point,
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_achievable,
    best_rate,
    lattice_rate,
    local_decode_baseline,
    local_decode_rates,
)
from tworelay.bounds import cutset_min, cutset_terms, modulo_bound, modulo_bound_case_c
from tworelay.bounds import outer_bounds
from tworelay.libm import math_map
from tworelay.model import ScenarioCase, make_preset
from tworelay.scaling import _gap_tiles, _gaps, _splits, certify_gaps

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C
N = 10_000
#: Gap tiles of this size, patched in, hold whole rows of the grids below, so each
#: grid spans several tiles.
_BLOCK = 2048


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


def point_bits(values) -> list:
    """Floats by their bit patterns, anything else (a scheme, a branch, None) as it is."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


@pytest.fixture(params=[True, False], ids=["ufunc-path", "per-element-path"])
def libm_path(request, monkeypatch):
    """Each libm path of the array core in turn (the ufunc path only where numpy's loops
    give libm's bits)."""
    monkeypatch.setattr(libm, "_UFUNC_PATH", request.param and libm._UFUNC_PATH)


POINT_ENTRIES = {
    A: lambda p_x, p_j, c1, c2, variant: achievable_case_a(p_x, p_j, c2),
    B: lambda p_x, p_j, c1, c2, variant: achievable_case_b(p_x, p_j, c1, c2),
    C: achievable_case_c,
}


def lattice_fields(case, variant, p_x, p_j, c1, c2):
    """The (alpha, p_d1, p_d2, p_neq, at_ceiling) arrays the core forms the
    rate from, broadcast over the draw."""
    point = _case_point(case, p_x, p_j, c1, c2)
    with np.errstate(all="ignore"):
        if case is C:
            fields = _case_c_fields(*point, *_case_c(*point, variant)[1])
        else:
            fields = _case_b(*point)[1]
    return np.broadcast_arrays(*fields)


def assert_reports_equal(case, variant, points, reports):
    """The core's rates and fields against the reference reports; the zero
    fields at p_x = 0 through the per-point entries."""
    p_x, p_j, c1, c2 = points
    with np.errstate(all="ignore"):
        rates = lattice_rate(case, p_x, p_j, c1, c2, variant)
    assert_bits_equal(rates, [r.rate for r in reports])
    live = p_x > 0.0
    kept = [r for r, on in zip(reports, live.tolist()) if on]
    *values, at_ceiling = lattice_fields(case, variant, *points)
    for field, value in zip(("alpha", "p_d1", "p_d2", "p_neq"), values):
        assert_bits_equal(value[live], [getattr(r, field) for r in kept])
    labels = np.where(at_ceiling[live], "signal_ceiling", "interference").tolist()
    assert labels == [r.min_branch for r in kept]
    zero = [(point, r) for point, r, on in zip(zip(*as_lists(*points)), reports, live.tolist())
            if not on]
    assert len(zero) > 100
    for point, expected in zero:
        assert POINT_ENTRIES[case](*point, variant) == expected


@pytest.mark.parametrize("case, variant, seed", [
    (A, "prop", 1), (B, "prop", 2), (C, "prop", 3), (C, "derived", 4),
])
@pytest.mark.usefixtures("libm_path")
def test_lattice_rates_equal_reference(case, variant, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    if case is A:
        reports = [ref.achievable_case_a(*point) for point in zip(*as_lists(p_x, p_j, c2))]
    elif case is B:
        reports = [ref.achievable_case_b(*point) for point in zip(*as_lists(p_x, p_j, c1, c2))]
    else:
        reports = [ref.achievable_case_c(*point, variant)
                   for point in zip(*as_lists(p_x, p_j, c1, c2))]
    assert_reports_equal(case, variant, (p_x, p_j, c1, c2), reports)
    if case is not C:
        # the draw reaches the log1p branch of the clamped rate
        live = p_x > 0.0
        ratio = p_x[live] / np.array([r.p_neq for r in reports])[live]
        assert np.count_nonzero((0.5 < ratio) & (ratio < 2.0)) > 100


@pytest.mark.parametrize("case, seed", [(B, 5), (C, 6)])
@pytest.mark.usefixtures("libm_path")
def test_local_decoding_and_best_scheme_equal_reference(case, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    points = list(zip(*as_lists(p_x, p_j, c1, c2)))
    local = [ref.local_decode_baseline(case, *point).rate for point in points]
    best = [ref.best_report(case, *point) for point in points]
    with np.errstate(all="ignore"):
        assert_bits_equal(local_decode_rates(case, p_x, p_j, c1, c2), local)
        rate, local_wins = best_rate(case, p_x, p_j, c1, c2)
    assert_bits_equal(rate, [r.rate for r in best])
    assert local_wins.tolist() == [r.scheme is Scheme.LOCAL_DECODE for r in best]
    assert 0 < local_wins.sum() < N


@pytest.mark.parametrize("case, seed", [(A, 14), (B, 15), (C, 16)])
@pytest.mark.usefixtures("libm_path")
def test_rates_on_broadcasts_equal_reference(case, seed):
    # the grids take the rates alone; p_x = 0 is mixed in
    p_x, p_j, c1, c2 = random_points(seed)
    best = [ref.best_report(case, *point) for point in zip(*as_lists(p_x, p_j, c1, c2))]
    lattice = best if case is A else [
        ref.achievable_case_b(*point) if case is B else ref.achievable_case_c(*point)
        for point in zip(*as_lists(p_x, p_j, c1, c2))]
    with np.errstate(all="ignore"):
        assert_bits_equal(lattice_rate(case, p_x, p_j, c1, c2), [r.rate for r in lattice])
        rate, local_wins = best_rate(case, p_x, p_j, c1, c2)
    assert_bits_equal(rate, [r.rate for r in best])
    # Case A's mask is False: it has the lattice scheme alone
    assert np.broadcast_to(local_wins, rate.shape).tolist() == [
        r.scheme is Scheme.LOCAL_DECODE for r in best]
    # a sweep's broadcast: scalar powers against rows of splits
    c1 = np.linspace(0.0, 9.0, 41)[None, :] * np.array([[0.5], [1.0]])
    with np.errstate(all="ignore"):
        rows = best_rate(case, 1e6, 1e3, c1, 9.0 - c1)[0]
    assert_bits_equal(rows.ravel(), [ref.best_report(case, 1e6, 1e3, l1, 9.0 - l1).rate
                                     for l1 in c1.ravel().tolist()])


def closed_forms(case, p_x, p_j, c1, c2) -> list:
    """Every value the six closed forms give for `case`, at a point or over the arrays:
    the lattice rate (both Case C forms), the best rate and its mask, local decoding,
    the cut-set terms and bound, and the modulo bound."""
    values = [lattice_rate(case, p_x, p_j, c1, c2), *best_rate(case, p_x, p_j, c1, c2),
              *(v for _, v in cutset_terms(case, p_x, p_j, c1, c2)),
              cutset_min(case, p_x, p_j, c1, c2)]
    if case is not A:
        values.append(local_decode_rates(case, p_x, p_j, c1, c2))
    if case is C:
        values += [lattice_rate(case, p_x, p_j, c1, c2, "derived"), modulo_bound(p_x, p_j, c1, c2)]
    return values


@pytest.mark.parametrize("case, seed", [(A, 20), (B, 21), (C, 22)])
@pytest.mark.usefixtures("libm_path")
def test_a_point_of_floats_gives_python_floats_equal_to_the_array_call(case, seed):
    # each closed form at a point gives Python floats (and a bool mask), bit for bit the
    # point's element of the same call over arrays
    points = random_points(seed, n=600)
    with np.errstate(all="ignore"):
        arrays = [np.broadcast_to(v, points[0].shape) for v in closed_forms(case, *points)]
    for k, point in enumerate(zip(*as_lists(*points))):
        values = closed_forms(case, *point)
        elements = [a[k].item() for a in arrays]
        assert [type(v) for v in values] == [type(e) for e in elements], point
        assert point_bits(values) == point_bits(elements), point


@pytest.mark.parametrize("case, seed", [(A, 7), (B, 8), (C, 9)])
@pytest.mark.usefixtures("libm_path")
def test_bounds_equal_reference(case, seed):
    p_x, p_j, c1, c2 = random_points(seed)
    if case is A:
        c1 = np.full(N, math.inf)
    points = list(zip(*as_lists(p_x, p_j, c1, c2)))
    terms = [ref.cutset_terms(case, *point) for point in points]
    with np.errstate(all="ignore"):
        arrays = cutset_terms(case, p_x, p_j, c1, c2)
        bound = cutset_min(case, p_x, p_j, c1, c2)
    assert [label for label, _ in arrays] == [label for label, _ in terms[0]]
    for k, (_, values) in enumerate(arrays):
        assert_bits_equal(values, [t[k][1] for t in terms])
    assert_bits_equal(bound, [ref.cutset_min(case, *point) for point in points])
    if case is C:
        positive = p_j > 0.0
        modulo = [ref.modulo_bound(*point) for point in points]
        assert [m is None for m in modulo] == (~positive).tolist()
        inside = (v[positive] for v in (p_x, p_j, c1, c2))
        assert_bits_equal(modulo_bound(*inside), [m for m in modulo if m is not None])


@pytest.mark.parametrize("case, seed", [(A, 10), (B, 11), (C, 12)])
def test_gaps_equal_reference(case, seed, monkeypatch):
    monkeypatch.setattr(scaling, "_GAP_BLOCK", _BLOCK)
    rng = np.random.default_rng(seed)
    p_x = 10.0 ** rng.uniform(-1, 9, 100)
    p_x[:3] = (0.0, 1.0, 4.0)
    p_j = 10.0 ** rng.uniform(-1, 9, 100)
    p_j[:4] = (0.0, 1.0, 4.0, math.inf)  # regime edges
    expected = {(px, pj): ref.GAP_FUNCTIONS[case](px, pj)
                for px in p_x.tolist() for pj in p_j.tolist()}
    covered = []
    for regimes, point in _gap_tiles(case, p_x.tolist(), p_j.tolist()):
        px, pj = (v.ravel().tolist() for v in np.broadcast_arrays(*point[:2]))
        assert len(px) <= _BLOCK
        for regime, gaps in zip(regimes, _gaps(case, regimes, *point)):
            inside = regime.mask.ravel()
            points = [(x, y) for x, y, k in zip(px, pj, inside.tolist()) if k]
            found = [expected[point] for point in points]
            assert all(e[0] == regime.name for e in found)
            assert_bits_equal(gaps.ravel()[inside], [e[1] for e in found])
            assert (gaps.ravel()[~inside] == -math.inf).all()  # no other point competes
            covered.extend(points)
    assert len(covered) > _BLOCK  # the regimes' points span tiles
    assert sorted(covered) == sorted(point for point, e in expected.items() if e is not None)


def assert_certificates_equal_reference(case, px_grid, pj_grid):
    """`certify_gaps` over the grid against `ref.GAP_FUNCTIONS` at every point: a
    certificate per regime with its point count and first largest gap, bit for bit."""
    expected = {}
    for point in ((px, pj) for px in px_grid for pj in pj_grid):
        found = ref.GAP_FUNCTIONS[case](*point)
        if found is not None:
            expected.setdefault(found[0], []).append((point, found[1]))
    certificates = certify_gaps(case, px_grid, pj_grid)
    assert [cert.regime for cert in certificates] == sorted(expected)
    for cert in certificates:
        points, gaps = zip(*expected[cert.regime])
        assert cert.grid_points == len(points)
        assert cert.worst_point == points[int(np.argmax(gaps))]  # the first largest gap
        assert_bits_equal(cert.max_gap, max(gaps))
    return expected


@pytest.mark.parametrize("case", [A, B, C])
def test_gap_certificates_equal_reference_across_blocks(case, gap_driver, monkeypatch):
    # on tiles of 2 048 points, or on Python floats point by point
    if gap_driver == "tiles":
        monkeypatch.setattr(scaling, "_GAP_BLOCK", _BLOCK)
    grid = (10.0 ** np.linspace(-1.0, 9.0, 101)).tolist()
    assert len(grid) % (_BLOCK // len(grid)) != 0  # the last tile holds fewer rows
    assert (len(grid) ** 2 <= scaling._GAP_BLOCK) == (gap_driver == "floats")
    expected = assert_certificates_equal_reference(case, grid, grid)
    assert all(len(points) > _BLOCK for points in expected.values())


@pytest.mark.parametrize("ufunc_path", [True, False])
@pytest.mark.parametrize("case", [A, B, C])
def test_rows_wider_than_a_tile_equal_reference(case, ufunc_path, monkeypatch):
    # rows of 20 p_j in tiles of 7: each row is cut into slices of 7, 7 and 6 p_j
    monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
    monkeypatch.setattr(scaling, "_GAP_BLOCK", 7)
    p_x = (10.0 ** np.linspace(-1.0, 9.0, 31)).tolist()
    p_j = (10.0 ** np.linspace(-1.0, 9.0, 20)).tolist()
    sizes = [np.broadcast(px, pj).size for _, (px, pj, _, _) in _gap_tiles(case, p_x, p_j)]
    assert sizes == [7, 7, 6] * len(p_x)
    assert_certificates_equal_reference(case, p_x, p_j)


def test_splits_equal_linspace():
    # the subnormal totals take linspace's (i/(n-1))*total form
    totals = np.array([0.0, 5e-324, 1e-320, 2.2e-308, 0.25, 1.75, 27.75, 600.0, 1e300])
    for n in (2, 3, 61, 1001):
        assert_bits_equal(_splits(totals, n, 0, n), [np.linspace(0.0, t, n) for t in totals])
        for start, stop in ((0, 1), (1, n - 1), (n // 2, n), (n - 1, n + 5)):
            assert_bits_equal(_splits(totals, n, start, stop),
                              [np.linspace(0.0, t, n)[start:stop] for t in totals])


@pytest.mark.parametrize("x", [
    np.float64(2.5), np.array(0.75), 1.25, [0.5, 1.5],
    np.arange(12.0).reshape(3, 4) / 7.0,
    (np.arange(48.0).reshape(6, 8) / 7.0)[::2, 1::3],  # not contiguous
    np.arange(6.0)[::-1], np.empty((0, 3)),
])
def test_math_map_keeps_shape_and_bits(x):
    # a 0-d input stays 0-d, so float() of a per-point result works
    out = math_map(math.expm1, x)
    values = np.asarray(x, dtype=float)
    assert out.shape == values.shape
    assert_bits_equal(out.ravel(), [math.expm1(v) for v in values.ravel().tolist()])


@pytest.mark.parametrize("case, seed", [(A, 17), (B, 18), (C, 19)])
def test_point_entries_equal_reference(case, seed):
    # the per-point entries evaluate on Python floats, with no array
    for point in zip(*as_lists(*random_points(seed))):
        p_x, p_j, c1, c2 = point
        if case is A:
            point = (p_x, p_j, math.inf, c2)
            entries = [(achievable_case_a(p_x, p_j, c2), ref.achievable_case_a(p_x, p_j, c2))]
        elif case is B:
            entries = [(achievable_case_b(*point), ref.achievable_case_b(*point))]
        else:
            entries = [(achievable_case_c(*point, v), ref.achievable_case_c(*point, v))
                       for v in ("prop", "derived")]
        if case is not A:
            entries.append((local_decode_baseline(case, *point),
                            ref.local_decode_baseline(case, *point)))
        if case is not B or math.isfinite(c1):  # a config with c1 = inf is Case A
            cfg = make_preset(case, p_x, p_j, c1=None if case is A else c1, c2=c2)
            entries.append((best_achievable(cfg), ref.best_report(case, *point)))
            bound = outer_bounds(cfg, case)
            entries.append(([v for term in bound.terms for v in term],
                            [v for term in ref.cutset_terms(case, *point) for v in term]))
            if case is C:
                entries.append(([bound.modulo_bound], [ref.modulo_bound(*point)]))
        for entry, expected in entries:
            assert point_bits(entry) == point_bits(expected), (point, expected)


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
            expected = ref.best_report(case, *point)
            if case is B and math.isinf(l1):
                # a config with c1 = inf is Case A and labels its rate case_a_eq
                assert best_rate(case, *point) == (
                    expected.rate, expected.scheme is Scheme.LOCAL_DECODE)
                cfg = make_preset(A, px, pj, c2=l2)
            else:
                cfg = make_preset(case, *point[:2], c1=l1, c2=l2)
                assert best_achievable(cfg) == expected
            assert list(outer_bounds(cfg, case).terms) == ref.cutset_terms(case, *point)
        cfg = make_preset(C, *point[:2], c1=l1, c2=l2)
        if pj > 0.0:
            assert modulo_bound_case_c(cfg) == ref.modulo_bound(*point)
        assert outer_bounds(cfg, C).modulo_bound == ref.modulo_bound(*point)


def test_core_departs_from_reference_only_where_it_raised():
    # Past about 512 bits 2**(2c) - 1 overflows: the reference's expm1 raises,
    # the core saturates at inf, as for an unlimited link.
    with pytest.raises(OverflowError):
        ref.achievable_case_b(15.0, 15.0, 600.0, 1.0)
    assert achievable_case_b(15.0, 15.0, 600.0, 1.0) == achievable_case_b(15.0, 15.0, math.inf, 1.0)


@pytest.mark.parametrize("p_x, p_j", [(-1.0, 1.0), (math.nan, 1.0), (1.0, -2.0), (1.0, math.nan)])
def test_point_entries_reject_powers_outside_the_model(p_x, p_j):
    # the array forms take their input as given; the per-point entries check it,
    # the config-taking ones through the config
    for call in (lambda: local_decode_baseline(B, p_x, p_j, 1.0, 1.0),
                 lambda: local_decode_baseline(C, p_x, p_j, 1.0, 1.0),
                 lambda: achievable_case_a(p_x, p_j, 1.0),
                 lambda: achievable_case_b(p_x, p_j, 1.0, 1.0),
                 lambda: achievable_case_c(p_x, p_j, 1.0, 1.0),
                 lambda: make_preset(A, p_x, p_j, c2=1.0),
                 lambda: make_preset(C, p_x, p_j, c1=1.0, c2=1.0)):
        with pytest.raises(ValueError):
            call()
