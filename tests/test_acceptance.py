"""Acceptance suite.

Each test certifies one numbered acceptance criterion at its pinned
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``
or on failure).  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from tworelay.achievable import (
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    local_decode_baseline,
)
from tworelay.bounds import (
    cutset_case_c,
    modulo_bound_case_c,
    outer_bounds,
)
from tworelay.lattice_sim import (
    CoverageConfig,
    SimConfig,
    coverage_experiment,
    run_lattice_sim,
)
from tworelay.model import ScenarioCase, gaussian_mi, make_preset
from tworelay.scaling import (
    certify_gaps,
    cutset_looseness_demo,
    estimate_prelog,
    interference_info_lower_bound,
    coupled_capacity_rate_fn,
    sweep_sum_capacity,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def cfg_a(p_x, p_j, c2):
    return make_preset(ScenarioCase.CASE_A, p_x, p_j, c2=c2)


def cfg_b(p_x, p_j, c1, c2):
    return make_preset(ScenarioCase.CASE_B, p_x, p_j, c1=c1, c2=c2)


def cfg_c(p_x, p_j, c1, c2):
    return make_preset(ScenarioCase.CASE_C, p_x, p_j, c1=c1, c2=c2)


def test_criterion_1_formula_fidelity():
    """1000 random log-grid points vs 50-digit reference, <= 1e-12 relative.

    Comparison uses relative error 1e-12 with a 1e-13 absolute floor: within
    ~1e-4 bits of the clamp at zero no float64 evaluation can hold 1e-12
    relative precision, and such points are still held to 1e-13 absolute.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    n = 1000
    pxs = 10.0 ** rng.uniform(-3, 9, n)
    pjs = 10.0 ** rng.uniform(-3, 9, n)
    c1s = 10.0 ** rng.uniform(-2, math.log10(500.0), n)
    c2s = 10.0 ** rng.uniform(-2, math.log10(500.0), n)
    failures = []
    for px, pj, c1, c2 in zip(pxs, pjs, c1s, c2s):
        checks = {
            "gaussian_mi": (gaussian_mi(px, pj + 1.0), oracles.mi(px, pj + 1)),
            "cutset_a": (outer_bounds(cfg_a(px, pj, c2), ScenarioCase.CASE_A).cutset_min,
                         oracles.cutset_a(px, pj, c2)),
            "cutset_b": (outer_bounds(cfg_b(px, pj, c1, c2), ScenarioCase.CASE_B).cutset_min,
                         oracles.cutset_b(px, pj, c1, c2)),
            "cutset_c": (cutset_case_c(cfg_c(px, pj, c1, c2)).cutset_min,
                         oracles.cutset_c(px, pj, c1, c2)),
            "modulo": (modulo_bound_case_c(cfg_c(px, pj, c1, c2)),
                       oracles.modulo_c(px, pj, c1, c2)),
            "full_coop": (cutset_case_c(cfg_c(px, pj, c1, c2)).term("i(x;y1,y2)"),
                          oracles.full_cooperation(px)),
            "ach_a": (achievable_case_a(px, pj, c2).rate, oracles.ach_a(px, pj, c2)),
            "ach_b": (achievable_case_b(px, pj, c1, c2).rate,
                      oracles.ach_b(px, pj, c1, c2)),
            "ach_c_prop": (achievable_case_c(px, pj, c1, c2, "prop").rate,
                           oracles.ach_c_prop(px, pj, c1, c2)),
            "ach_c_derived": (achievable_case_c(px, pj, c1, c2, "derived").rate,
                              oracles.ach_c_derived(px, pj, c1, c2)),
            "local_b": (local_decode_baseline(ScenarioCase.CASE_B, px, pj, c1).rate,
                        oracles.local_b(px, pj, c1)),
            "local_c": (local_decode_baseline(ScenarioCase.CASE_C, px, pj, c1, c2).rate,
                        oracles.local_c(px, pj, c1, c2)),
            "interference_info": (interference_info_lower_bound(px, pj),
                                  oracles.interference_info(px, pj)),
        }
        for name, (impl, oracle) in checks.items():
            if not oracles.within(impl, oracle):
                failures.append((name, px, pj, c1, c2))
    elapsed = time.perf_counter() - start
    report(
        1,
        "formula fidelity on 1000-point random log-grid",
        not failures and elapsed < 10.0,
        f"{len(failures)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_gap_certificates():
    start = time.perf_counter()
    claims = {
        ScenarioCase.CASE_A: {"high_interference": 0.7925, "low_interference": 1.0},
        ScenarioCase.CASE_B: {"standard": 1.29},
        ScenarioCase.CASE_C: {"modulo": 2.816, "cutset": 1.5},
    }
    results = []
    ok = True
    for case, regimes in claims.items():
        certs = {c.regime: c for c in certify_gaps(case)}
        for regime, claimed in regimes.items():
            cert = certs[regime]
            ok &= cert.claimed_bound == claimed and cert.max_gap <= claimed
            results.append(f"{case.value}/{regime}: {cert.max_gap:.3f}<={claimed}")
    # Case A overall claim is 1 bit across both regimes
    ok &= max(c.max_gap for c in certify_gaps(ScenarioCase.CASE_A)) <= 1.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(2, "gap certificates on decade grids", ok, "; ".join(results))


def test_criterion_3_scaling_laws():
    start = time.perf_counter()
    exponents = range(10, 41)
    ok = True
    details = []
    for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
        full = estimate_prelog(coupled_capacity_rate_fn(case), exponents).prelog
        reduced = estimate_prelog(
            coupled_capacity_rate_fn(case, capacity_scale=0.8), exponents
        ).prelog
        ok &= abs(full - 0.5) <= 0.02
        ok &= reduced < 0.45
        details.append(f"{case.value}: {full:.3f}/{reduced:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(3, "pre-log 0.5 +- 0.02 with coupled capacities; < 0.45 at 0.8x", ok,
           "; ".join(details))


def test_criterion_4_cutset_looseness():
    cutset, modulo = (estimate.prelog for estimate in cutset_looseness_demo())
    ok = abs(cutset - 0.5) <= 0.02 and modulo <= cutset - 0.05
    report(4, "modulo bound pre-log sits >= 0.05 below cut-set pre-log", ok,
           f"cutset {cutset:.3f}, modulo {modulo:.3f}")


def _fit_slope(points, lo, hi):
    xs = [p.sum_capacity for p in points if lo <= p.sum_capacity <= hi]
    ys = [p.best_rate for p in points if lo <= p.sum_capacity <= hi]
    return float(np.polyfit(xs, ys, 1)[0])


@pytest.mark.parametrize("case", [ScenarioCase.CASE_B, ScenarioCase.CASE_C])
def test_criterion_5_sum_capacity_sweep(case):
    p_x, p_j = 1e8, 1e4
    bp1 = 0.5 * math.log2(p_x / p_j)
    bp2 = 0.5 * math.log2(p_x * p_j)
    ceiling = gaussian_mi(p_x, 1.0)
    sums = np.arange(0.0, 28.0 + 1e-9, 0.25)
    points = sweep_sum_capacity(case, p_x, p_j, sums)
    slope_low = _fit_slope(points, 0.25, bp1 - 0.25)
    slope_mid = _fit_slope(points, bp1 + 1.5, bp2 - 1.5)
    saturated = [p.sum_capacity for p in points if p.best_rate >= ceiling - 0.1]
    ok = (
        abs(slope_low - 1.0) <= 0.05
        and abs(slope_mid - 0.5) <= 0.05
        and len(saturated) > 0
        and min(saturated) >= bp2
        and points[-1].best_rate >= ceiling - 0.1
    )
    if case is ScenarioCase.CASE_C:
        ok &= all(p.best_rate <= p.modulo + 1e-9 for p in points)
    report(5, f"sum-capacity sweep shape (case {case.value})", ok,
           f"slopes {slope_low:.3f}/{slope_mid:.3f}, saturates at {min(saturated):.2f}")


@pytest.mark.parametrize("case", ["b", "c"])
def test_criterion_6_simulator_vs_theory(case):
    start = time.perf_counter()
    cfg = SimConfig(case=case, p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1)
    stats = run_lattice_sim(cfg)
    elapsed = time.perf_counter() - start
    var_ok = abs(stats.empirical_var_neq - stats.analytic_var_neq) <= (
        0.02 * stats.analytic_var_neq
    )
    ok = (
        var_ok
        and stats.identity_max_residual <= 1e-9 * stats.cell_length
        and stats.dither_uniformity_pvalue > 0.001
        and abs(stats.x_v_correlation) < 3.0 / math.sqrt(stats.samples)
        and elapsed < 30.0
    )
    report(
        6,
        f"1e6-sample simulation matches closed-form bookkeeping (case {case})",
        ok,
        f"var ratio {stats.empirical_var_neq / stats.analytic_var_neq:.4f}, "
        f"residual {stats.identity_max_residual / stats.cell_length:.1e}*L, "
        f"p {stats.dither_uniformity_pvalue:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_interferer_robustness():
    base_cfg = SimConfig(case="b", p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1)
    base = run_lattice_sim(base_cfg)
    deltas = []
    ok = True
    for kind in ("uniform", "bpsk"):
        swapped = run_lattice_sim(replace(base_cfg, interferer=kind))
        delta = abs(swapped.empirical_var_neq - base.empirical_var_neq)
        deltas.append(f"{kind}: {delta / base.empirical_var_neq:.2e}")
        ok &= delta < 0.02 * base.empirical_var_neq
        ok &= swapped.identity_max_residual <= 1e-9 * swapped.cell_length
    report(7, "equivalent noise blind to interferer statistics", ok, "; ".join(deltas))


def test_criterion_8_coverage_experiment():
    start = time.perf_counter()
    mutual = CoverageConfig(codebook_rate=0.0).mutual_information_bits
    hi = coverage_experiment(
        CoverageConfig(codebook_rate=mutual + 0.25, block_length=16, trials=500,
                       seed=20260810)
    )
    lo = coverage_experiment(
        CoverageConfig(codebook_rate=mutual - 0.25, block_length=16, trials=500,
                       seed=20260810)
    )
    elapsed = time.perf_counter() - start
    ok = hi.coverage >= 0.9 and lo.coverage <= 0.5 and elapsed < 60.0
    report(8, "codebook coverage above/below the description rate", ok,
           f"hi {hi.coverage:.3f} >= 0.9, lo {lo.coverage:.3f} <= 0.5, {elapsed:.1f}s")


def test_criterion_9_constants_inventory():
    """No further reported figures exist to reproduce; the certified
    constants above are the complete set of quoted values."""
    certified = {
        cert.claimed_bound
        for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C)
        for cert in certify_gaps(case)
    }
    quoted = {0.7925, 1.0, 1.29, 2.816, 1.5}
    constant_ok = abs(
        float(oracles.modulo_constant()) - 1.5235477925903205
    ) < 1e-12
    ok = quoted == certified and constant_ok
    report(9, "quoted constants fully covered by certificates", ok,
           f"certified bounds {sorted(certified)}")
