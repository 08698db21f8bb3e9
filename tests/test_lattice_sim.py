import math
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest

from tworelay.achievable import lattice_cf_report
import tworelay.lattice_sim as lattice_sim
from tworelay.lattice_sim import (
    BATCH_SIZE,
    CoverageConfig,
    SimConfig,
    coverage_experiment,
    centered_mod,
    crypto_lemma_check,
    run_lattice_sim,
    sw_rate_check,
)

CASE_B = SimConfig(case="b", p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1)
CASE_C = SimConfig(case="c", p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1)


class TestCenteredMod:
    def test_interval_and_tie(self):
        assert centered_mod(0.5, 1.0) == -0.5
        assert centered_mod(-0.5, 1.0) == -0.5
        assert centered_mod(0.49, 1.0) == pytest.approx(0.49)
        assert centered_mod(1.51, 1.0) == pytest.approx(0.51 - 1.0)


class TestSimConfig:
    def test_presets_fill_channel(self):
        assert (CASE_B.a, CASE_B.b, CASE_B.p_n1, CASE_B.p_n2) == (1.0, 0.0, 1.0, 0.0)
        assert (CASE_C.a, CASE_C.b, CASE_C.p_n1, CASE_C.p_n2) == (1.0, -1.0, 1.0, 1.0)

    def test_zero_capacity_with_active_quantizer_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(case="b", p_x=1, p_j=1, c1=0, c2=1, samples=10, seed=0)

    def test_general_needs_gains_and_noises(self):
        with pytest.raises(ValueError):
            SimConfig(case="general", p_x=1, p_j=1, c1=1, c2=1, samples=10, seed=0)

    def test_preset_gain_override_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(case="b", p_x=1, p_j=1, c1=1, c2=1, samples=10, seed=0, a=2.0)

    def test_misc_validation(self):
        with pytest.raises(ValueError):
            SimConfig(case="b", p_x=0, p_j=1, c1=1, c2=1, samples=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(case="b", p_x=1, p_j=1, c1=1, c2=1, samples=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(case="q", p_x=1, p_j=1, c1=1, c2=1, samples=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(case="b", p_x=1, p_j=1, c1=1, c2=1, samples=10, seed=0,
                      interferer="laplace")

    def test_cell_second_moment_matches_power(self):
        assert CASE_B.cell_length == pytest.approx(math.sqrt(12.0 * 15.0))


class TestRunLatticeSim:
    def test_case_b_matches_analytic_variance(self):
        stats = run_lattice_sim(CASE_B)
        assert stats.empirical_var_neq == pytest.approx(stats.analytic_var_neq, rel=0.02)
        assert stats.identity_max_residual <= 1e-9 * stats.cell_length
        assert stats.dither_uniformity_pvalue > 0.001
        assert abs(stats.x_v_correlation) < 3.0 / math.sqrt(stats.samples)

    def test_case_c_matches_analytic_variance(self):
        stats = run_lattice_sim(CASE_C)
        assert stats.empirical_var_neq == pytest.approx(stats.analytic_var_neq, rel=0.02)
        assert stats.identity_max_residual <= 1e-9 * stats.cell_length

    def test_bit_identical_reruns(self):
        assert run_lattice_sim(CASE_B) == run_lattice_sim(CASE_B)
        small = replace(CASE_C, samples=BATCH_SIZE + 17)
        assert run_lattice_sim(small) == run_lattice_sim(small)

    def test_degenerate_scheme_is_exact(self):
        # no distortion, no interferer, alpha = 1: output is (v + n1) mod cell
        cfg = SimConfig(case="b", p_x=15, p_j=0, c1=math.inf, c2=math.inf,
                        samples=10**5, seed=3, alpha_override=1.0)
        stats = run_lattice_sim(cfg)
        assert stats.identity_max_residual <= 1e-12 * stats.cell_length
        assert stats.empirical_var_neq == pytest.approx(1.0, rel=0.05)

    def test_identity_holds_for_any_alpha(self):
        for alpha in (0.3, 0.9375, 1.0, 1.7):
            cfg = replace(CASE_B, samples=10**5, alpha_override=alpha)
            stats = run_lattice_sim(cfg)
            assert stats.identity_max_residual <= 1e-9 * stats.cell_length
            assert stats.empirical_var_neq == pytest.approx(stats.analytic_var_neq, rel=0.05)

    def test_identity_holds_for_general_gains(self):
        cfg = SimConfig(case="general", p_x=8, p_j=3, c1=2, c2=1.5, samples=10**5,
                        seed=9, a=0.7, b=-1.3, p_n1=0.4, p_n2=1.1)
        stats = run_lattice_sim(cfg)
        assert stats.identity_max_residual <= 1e-9 * stats.cell_length
        assert stats.empirical_var_neq == pytest.approx(stats.analytic_var_neq, rel=0.05)

    def test_interferer_statistics_do_not_matter(self):
        base = run_lattice_sim(CASE_B)
        for kind in ("uniform", "bpsk"):
            swapped = run_lattice_sim(replace(CASE_B, interferer=kind))
            delta = abs(swapped.empirical_var_neq - base.empirical_var_neq)
            assert delta < 0.02 * base.empirical_var_neq
            assert swapped.identity_max_residual <= 1e-9 * swapped.cell_length

    def test_rate_estimate_tracks_lattice_form(self):
        for cfg in (CASE_B, CASE_C):
            stats = run_lattice_sim(cfg)
            alpha, p_d1, p_d2 = cfg.scheme_parameters()
            analytic = lattice_cf_report(
                cfg.p_x, cfg.p_n1, cfg.p_n2, alpha, p_d1, p_d2, cfg.a - cfg.b
            )
            assert abs(stats.rate_estimate - analytic.rate) < 0.05

    def test_nonfinite_samples_abort(self):
        cfg = replace(CASE_B, samples=10**4, alpha_override=math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            run_lattice_sim(cfg)


def reference_run_lattice_sim(cfg):
    """The serial batch loop the thread pool replaced, with its helpers as
    they were: every batch in turn, whole-array expressions, moments
    appended per batch and reduced by the shared summary."""
    def reference_mod(x, cell):
        return x - cell * np.floor(x / cell + 0.5)

    def normal(rng, power, m):
        return np.zeros(m) if power == 0.0 else rng.standard_normal(m) * math.sqrt(power)

    def interferer(rng, kind, p_j, m):
        if p_j == 0.0:
            return np.zeros(m)
        if kind == "gaussian":
            return rng.standard_normal(m) * math.sqrt(p_j)
        if kind == "uniform":
            half_width = math.sqrt(3.0 * p_j)
            return rng.uniform(-half_width, half_width, m)
        return (2.0 * rng.integers(0, 2, m) - 1.0) * math.sqrt(p_j)

    alpha, p_d1, p_d2 = cfg.scheme_parameters()
    L = cfg.cell_length
    delta = cfg.a - cfg.b
    edges = np.linspace(-L / 2.0, L / 2.0, lattice_sim.UNIFORMITY_BINS + 1)
    max_residual = 0.0
    hist = np.zeros(lattice_sim.UNIFORMITY_BINS, dtype=np.int64)
    sums = {k: [] for k in ("neq", "neq2", "x", "v", "xv", "x2", "v2")}
    stream = lattice_sim._stream
    for batch, m in lattice_sim._batches(cfg.samples):
        v = stream(cfg.seed, batch, 0).uniform(-L / 2.0, L / 2.0, m)
        u = stream(cfg.seed, batch, 1).uniform(-L / 2.0, L / 2.0, m)
        x = reference_mod(v - u, L)
        j = interferer(stream(cfg.seed, batch, 2), cfg.interferer, cfg.p_j, m)
        n1 = normal(stream(cfg.seed, batch, 3), cfg.p_n1, m)
        n2 = normal(stream(cfg.seed, batch, 4), cfg.p_n2, m)
        d1 = normal(stream(cfg.seed, batch, 5), p_d1, m)
        d2 = normal(stream(cfg.seed, batch, 6), p_d2, m)
        y1 = cfg.a * x + j + n1
        y2 = cfg.b * x + j + n2
        w1 = reference_mod(alpha * y1, L) + d1
        w2 = reference_mod(alpha * y2, L) + d2
        combined = reference_mod(w1 - w2 + u, L)
        neq = alpha * (n1 - n2) + d1 - d2 - (1.0 - alpha * delta) * x
        predicted = reference_mod(v + neq, L)
        if not (np.all(np.isfinite(combined)) and np.all(np.isfinite(neq))):
            raise ValueError(f"non-finite samples in batch {batch}; aborting")
        gap = np.abs(combined - predicted)
        max_residual = max(max_residual, float(np.minimum(gap, L - gap).max()))
        hist += np.histogram(x, bins=edges)[0]
        for key, arr in (("x", x), ("v", v), ("xv", x * v), ("x2", x * x), ("v2", v * v),
                         ("neq", neq), ("neq2", neq * neq)):
            sums[key].append(float(arr.sum()))
    n = cfg.samples
    neq_sum, neq2_sum = math.fsum(sums["neq"]), math.fsum(sums["neq2"])
    var_neq = (neq2_sum - neq_sum**2 / n) / max(n - 1, 1)
    pvalue, corr = lattice_sim._dither_summary(hist, {k: math.fsum(v) for k, v in sums.items()}, n)
    rate = 0.5 * math.log2(cfg.p_x / var_neq) if var_neq > 0.0 else math.inf
    return lattice_sim.SimStats(var_neq, cfg.analytic_var_neq(), max_residual, pvalue, corr,
                                rate, n, cfg.seed, L)


def bit_patterns(stats):
    """Every field, floats as their 8 bytes (so NaN == NaN and -0.0 != 0.0)."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in astuple(stats)]


SMALL_C = replace(CASE_C, samples=3 * BATCH_SIZE + 17)
BIT_IDENTITY_CONFIGS = [
    *(replace(CASE_B, samples=n) for n in (1, BATCH_SIZE, BATCH_SIZE + 1, 3 * BATCH_SIZE + 17)),
    replace(SMALL_C, interferer="uniform"),
    replace(SMALL_C, interferer="bpsk"),
    replace(SMALL_C, p_j=0.0, seed=4),
    replace(SMALL_C, c1=math.inf, seed=5),
    SimConfig(case="general", p_x=8, p_j=3, c1=2, c2=1.5, samples=2 * BATCH_SIZE + 5,
              seed=9, a=0.7, b=-1.3, p_n1=0.4, p_n2=1.1),
]


class TestThreadedBatches:
    @pytest.mark.parametrize("cfg", BIT_IDENTITY_CONFIGS,
                             ids=lambda c: f"{c.case}-{c.interferer}-pj{c.p_j}-c1{c.c1}-n{c.samples}")
    def test_equals_the_serial_loop_at_any_worker_count(self, cfg, monkeypatch):
        expected = bit_patterns(reference_run_lattice_sim(cfg))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers as finely as possible
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: workers)
                assert bit_patterns(run_lattice_sim(cfg)) == expected, workers
        finally:
            sys.setswitchinterval(switch)

    def test_crypto_lemma_check_at_any_worker_count(self, monkeypatch):
        runs = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: workers)
            runs.append([bit_patterns(crypto_lemma_check(3.0, 200_000, 5, **flags))
                         for flags in ({}, {"hold_message_constant": True},
                                       {"disable_dither": True})])
        assert runs[0] == runs[1] == runs[2]

    def test_pool_size_follows_usable_cpus(self, monkeypatch):
        threads = set()
        real_batch = lattice_sim._sim_batch

        def recording_batch(*args):
            threads.add(threading.current_thread().name)
            return real_batch(*args)

        monkeypatch.setattr(lattice_sim, "_sim_batch", recording_batch)
        for workers, samples, most in ((1, 4 * BATCH_SIZE, 1), (5, 3 * BATCH_SIZE, 3)):
            threads.clear()
            monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: workers)
            run_lattice_sim(replace(CASE_B, samples=samples))
            assert 1 <= len(threads) <= most
            assert all(name.startswith("tworelay-batch") for name in threads)

    def test_lowest_non_finite_batch_raises_and_stops_the_workers(self, monkeypatch):
        bad = {2, 4}
        started, threads = [], []
        hist = np.zeros(lattice_sim.UNIFORMITY_BINS, dtype=np.int64)

        def fake_batch(cfg, scheme, edges, batch, m):
            started.append(batch)
            threads.append(threading.current_thread())
            if batch == 2:
                time.sleep(0.05)  # batch 4 fails first, batch 2 is still reported
            return lattice_sim._Batch(batch not in bad, 0.0, hist, {})

        monkeypatch.setattr(lattice_sim, "_sim_batch", fake_batch)
        monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: 3)
        with pytest.raises(ValueError, match=r"non-finite samples in batch 2;"):
            run_lattice_sim(replace(CASE_B, samples=40 * BATCH_SIZE))
        assert len(started) < 40  # the batches not yet started were cancelled
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert not [t for t in threading.enumerate() if t.name.startswith("tworelay-batch")]


class TestWorkerBuffers:
    """Each pool worker draws and reduces its batches in one reused set of
    buffers; nothing of one run may reach the next."""

    def test_back_to_back_runs_equal_the_serial_loop(self, monkeypatch):
        monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: 2)
        aborts = replace(CASE_B, samples=10**4, alpha_override=math.nan)
        runs = [
            replace(CASE_C, samples=5 * BATCH_SIZE + 3, interferer="bpsk"),
            replace(CASE_B, p_x=1e4, samples=BATCH_SIZE - 1, interferer="uniform"),
            aborts,
            replace(CASE_C, p_x=0.3, p_j=0.0, samples=2 * BATCH_SIZE, seed=3),
            SimConfig(case="general", p_x=8, p_j=3, c1=2, c2=1.5, samples=3 * BATCH_SIZE + 17,
                      seed=9, a=0.7, b=-1.3, p_n1=0.4, p_n2=1.1, interferer="uniform"),
            replace(CASE_B, samples=1),
        ]
        for cfg in runs:
            if cfg is aborts:
                with pytest.raises(ValueError, match="non-finite"):
                    run_lattice_sim(cfg)
            else:
                assert bit_patterns(run_lattice_sim(cfg)) == bit_patterns(
                    reference_run_lattice_sim(cfg)), cfg

    def test_peak_memory_stays_below_eight_batch_arrays(self, monkeypatch):
        # the serial loop held eight batch-sized arrays at its peak; the seven
        # buffers of a single worker, and its histogram, stay below that, the
        # same at any batch count, and are gone when the run returns
        monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: 1)
        run_lattice_sim(replace(CASE_C, samples=BATCH_SIZE))  # first-call allocations
        peaks = []
        for batches in (6, 12):
            tracemalloc.start()
            try:
                run_lattice_sim(replace(CASE_C, samples=batches * BATCH_SIZE))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * BATCH_SIZE * 8
            assert current < BATCH_SIZE
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < BATCH_SIZE

    def test_histogram_counts_equal_numpys(self):
        # values on every edge, one ulp either side of each, outside the cell and
        # random, for a plain cell and those of p_x 1e-320 and 1e300
        rng = np.random.default_rng(3)
        for half in (1.5, math.sqrt(12.0 * 1e-320) / 2.0, math.sqrt(12.0 * 1e300) / 2.0):
            edges = np.linspace(-half, half, lattice_sim.UNIFORMITY_BINS + 1)
            x = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                [-2.0 * half, 2.0 * half, -0.0, -1e300, 1e300],
                                rng.uniform(-half, half, 5000)))
            scratch, index = np.empty_like(x), np.empty(x.size, np.intp)
            hist, _ = lattice_sim._dither_moments(x, x, edges, scratch, index)
            expected = np.histogram(x, bins=edges)[0]
            assert hist.dtype == expected.dtype
            assert hist.tolist() == expected.tolist()
            assert expected.sum() == x.size - 6  # four points outside the cell, two ulps past it

    def test_no_worker_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(lattice_sim, "_usable_cpus", lambda: 3)
        run_lattice_sim(replace(CASE_B, samples=4 * BATCH_SIZE))
        assert not [t for t in threading.enumerate() if t.name.startswith("tworelay-batch")]


class TestCryptoLemma:
    def test_unit_cell_uniformity(self):
        stats = crypto_lemma_check(1.0 / 12.0, 2 * 10**5, seed=5)
        assert stats.uniformity_pvalue > 0.001
        assert abs(stats.x_v_correlation) < 3.0 / math.sqrt(stats.samples)

    def test_constant_message_still_uniform(self):
        stats = crypto_lemma_check(1.0 / 12.0, 2 * 10**5, seed=5, hold_message_constant=True)
        assert stats.uniformity_pvalue > 0.001
        assert math.isnan(stats.x_v_correlation)

    def test_disabled_dither_breaks_independence(self):
        stats = crypto_lemma_check(1.0 / 12.0, 2 * 10**5, seed=5, disable_dither=True)
        assert stats.uniformity_pvalue > 0.001  # message itself is uniform
        assert stats.x_v_correlation == pytest.approx(1.0, abs=1e-12)

    def test_statistics_frozen_at_a_seed(self):
        # exact values: the shared moment and p-value reduction must stay bit-identical
        base = crypto_lemma_check(3.0, 200_000, 5)
        assert (base.uniformity_pvalue, base.x_v_correlation) == (
            0.5368814530311797, -0.000936892357877265)
        const = crypto_lemma_check(3.0, 200_000, 5, hold_message_constant=True)
        assert const.uniformity_pvalue == 0.5051722213362239
        assert math.isnan(const.x_v_correlation)
        bare = crypto_lemma_check(3.0, 200_000, 5, disable_dither=True)
        assert (bare.uniformity_pvalue, bare.x_v_correlation) == (0.22668498348408825, 1.0)
        # the same p-values from scipy.stats.chi2.sf, which computed them before
        # the stdlib tail replaced it
        for stats, scipy_value in ((base, 0.5368814530311801), (const, 0.505172221336224),
                                   (bare, 0.22668498348408833)):
            assert stats.uniformity_pvalue == pytest.approx(scipy_value, rel=1e-14, abs=0.0)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            crypto_lemma_check(1.0, 10**4, seed=0)

    def test_correlation_does_not_depend_on_the_scale_of_p_x(self):
        # var_x * var_v underflows (1e-200), is subnormal (1e-160) or overflows
        # (1e154 on) where each variance is a normal float; a constant message's
        # variance is rounding alone, so its correlation is undefined at every scale
        reference = crypto_lemma_check(1e150, 10**5, 1).x_v_correlation
        for p_x in (1e-200, 1e-160, 1e154, 1e160, 1e300):
            assert crypto_lemma_check(p_x, 10**5, 1).x_v_correlation == pytest.approx(
                reference, rel=1e-12, abs=0.0)
            constant = crypto_lemma_check(p_x, 10**5, 1, hold_message_constant=True)
            assert math.isnan(constant.x_v_correlation)

    def test_constant_message_at_a_huge_cell(self):
        # the message sums to samples * L/4, whose square passes the largest float;
        # its variance is zero up to rounding, so the correlation is undefined
        stats = crypto_lemma_check(1e300, 10**5, 1, hold_message_constant=True)
        assert math.isnan(stats.x_v_correlation)
        reference = crypto_lemma_check(1.0, 10**5, 1, hold_message_constant=True)
        assert stats.uniformity_pvalue == pytest.approx(reference.uniformity_pvalue, rel=1e-6)

    def test_cell_past_the_largest_float_is_refused(self):
        with pytest.raises(ValueError, match="cell length"):
            crypto_lemma_check(1e308, 10**5, 1)
        with pytest.raises(ValueError, match="cell length"):
            replace(CASE_B, p_x=1e308)

    def test_moment_sums_past_the_largest_float_are_refused(self):
        # 1 000 samples of x**2 ~ 1e306 sum past the largest float
        with pytest.raises(ValueError, match=r"p_x = 1e\+306"):
            run_lattice_sim(replace(CASE_B, p_x=1e306, p_j=1.0, c1=1.0, samples=1000))

    def test_centered_moments_whose_product_overflows(self):
        # the plain form where the product is finite; a*(b/n) where it is not
        centered = lattice_sim._centered
        assert centered(10.0, 4.0, 8) == 10.0 - 4.0**2 / 8
        assert centered(10.0, 4.0, 8, 3.0) == 10.0 - 4.0 * 3.0 / 8
        assert centered(3e304, 1e156, 10**5) == 3e304 - 1e156 * (1e156 / 10**5)
        assert centered(3e304, 1e156, 10**5, -2e153) == 3e304 - 1e156 * (-2e153 / 10**5)

    def test_correlation_norm(self):
        root = lattice_sim._root_product
        assert root(4.0, 9.0) == 6.0
        assert root(1e-200, 1e-200) == 1e-200  # the product underflows to 0
        assert root(1e-160, 1e-160) == 1e-160  # the product is subnormal
        assert root(1e200, 1e200) == 1e200  # the product overflows
        for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (0.0, 1.0), (1.0, -1.0)):
            assert math.isnan(root(a, b))


def mp_chi2_sf(x, k):
    """P(chi2_k > x) as the regularized upper incomplete gamma at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                               regularized=True)


class TestChiSquareTail:
    @pytest.mark.parametrize("k", [1, 3, 7, 63])
    def test_matches_mpmath(self, k):
        xs = np.concatenate([np.geomspace(0.1, 1000.0, 150),
                             np.random.default_rng(k).uniform(0.1, 1000.0, 150)])
        for x in xs.tolist():
            ref = mp_chi2_sf(x, k)
            assert abs(lattice_sim._chi2_sf_odd(x, k) - ref) <= 1e-13 * ref, x

    def test_log_domain_tail_matches_mpmath(self):
        # beyond x = 1400 each term takes its e^(-x/2) inside one exp; the
        # range stops where the tail leaves the normal floats
        for x in np.geomspace(1400.0, 1550.0, 40).tolist():
            ref = mp_chi2_sf(x, 63)
            assert ref > 1e-300
            assert abs(lattice_sim._chi2_sf_odd(x, 63) - ref) <= 1e-12 * ref, x

    @pytest.mark.parametrize("k", [1, 63])
    def test_limits(self, k):
        assert lattice_sim._chi2_sf_odd(0.0, k) == 1.0
        for x in (1e4, 1e6, 1e300, math.inf):
            assert lattice_sim._chi2_sf_odd(x, k) == 0.0


class TestSlepianWolfCheck:
    def test_allocation_meets_constraint_with_equality(self):
        chk = sw_rate_check(CASE_C)
        assert chk.satisfied
        assert chk.required_rate == pytest.approx(chk.link_capacity, rel=1e-12)

    def test_halved_distortion_violates(self):
        chk = sw_rate_check(CASE_C)
        assert not sw_rate_check(CASE_C, p_d2_override=chk.p_d2 / 2.0).satisfied

    def test_no_interference_is_weakest(self):
        cfg = SimConfig(case="c", p_x=15, p_j=0, c1=2, c2=1, samples=10, seed=1)
        assert sw_rate_check(cfg).satisfied

    def test_required_rate_frozen(self):
        cfg = SimConfig(case="c", p_x=37.0, p_j=3.5, c1=1.3, c2=2.2, samples=10, seed=1)
        check = sw_rate_check(cfg)
        assert (check.required_rate, check.p_d2) == (2.2, 0.5569852420068092)
        assert sw_rate_check(CASE_C, p_d2_override=0.7).required_rate == 2.2436329134170117

    def test_case_b_rejected(self):
        with pytest.raises(ValueError):
            sw_rate_check(CASE_B)


class TestCoverage:
    def test_codebook_cap(self):
        with pytest.raises(ValueError):
            CoverageConfig(codebook_rate=2.0, block_length=16)

    def test_non_finite_rate_rejected(self):
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                CoverageConfig(codebook_rate=rate)

    def test_rate_offsets_separate(self):
        mutual = CoverageConfig(codebook_rate=0.0).mutual_information_bits
        assert mutual == pytest.approx(0.25, rel=1e-12)
        hi = coverage_experiment(CoverageConfig(codebook_rate=mutual + 0.25, seed=20260810))
        lo = coverage_experiment(CoverageConfig(codebook_rate=mutual - 0.25, seed=20260810))
        assert hi.coverage >= 0.9
        assert lo.coverage <= 0.5
        assert hi.codewords == 256 and lo.codewords == 1

    def test_zero_rate_tight_epsilon_rarely_covers(self):
        result = coverage_experiment(
            CoverageConfig(codebook_rate=0.0, typicality_epsilon=0.1, seed=20260810)
        )
        assert result.coverage <= 0.05

    def test_huge_epsilon_always_covers(self):
        result = coverage_experiment(
            CoverageConfig(codebook_rate=0.0, typicality_epsilon=50.0, seed=20260810)
        )
        assert result.coverage == 1.0

    def test_deterministic(self):
        cfg = CoverageConfig(codebook_rate=0.5, trials=60, seed=11)
        assert coverage_experiment(cfg) == coverage_experiment(cfg)


def reference_coverage_outcomes(cfg):
    """The fixed-chunk loop: each trial draws its codebook in chunks of 65536
    rows until one holds a typical codeword.  Per trial: True for a hit,
    False when the whole codebook was drawn without one, None when the
    source draw itself is atypical."""
    n, s2, d2 = cfg.block_length, cfg.source_variance, cfg.test_channel_distortion
    u_var, det, eps, ln2 = s2 + d2, s2 * d2, cfg.typicality_epsilon, math.log(2.0)
    outcomes = []
    for trial in range(cfg.trials):
        y = lattice_sim._stream(cfg.seed, trial, 0).standard_normal(n) * math.sqrt(s2)
        sy2 = float(y @ y)
        if abs((sy2 / n - s2) / (2.0 * s2 * ln2)) >= eps:
            outcomes.append(None)
            continue
        code_rng = lattice_sim._stream(cfg.seed, trial, 1)
        remaining, found = cfg.codewords, False
        while remaining > 0 and not found:
            m = min(remaining, 1 << 16)
            remaining -= m
            U = code_rng.standard_normal((m, n)) * math.sqrt(u_var)
            su2 = np.einsum("ij,ij->i", U, U)
            dev_u = (su2 / n - u_var) / (2.0 * u_var * ln2)
            quad = ((s2 + d2) * sy2 - 2.0 * s2 * (U @ y) + s2 * su2) / det
            dev_joint = (quad / n - 2.0) / (2.0 * ln2)
            found = bool(np.any((np.abs(dev_u) < eps) & (np.abs(dev_joint) < eps)))
        outcomes.append(found)
    return outcomes


def per_trial_hits(cfg):
    """Per-trial hits of coverage_experiment, from the hit counts of its
    prefixes (trial t always draws from the streams keyed by t)."""
    counts = [coverage_experiment(replace(cfg, trials=t)).hits
              for t in range(1, cfg.trials + 1)]
    return [b - a for a, b in zip([0] + counts, counts)]


class TestCoverageMatchesReference:
    @pytest.mark.parametrize(
        "rate, eps, seed",
        [(0.5, 0.46, 1), (1.0, 0.46, 3), (0.0, 0.3, 2), (0.25, 0.2, 4), (0.5, 0.1, 4)],
    )
    def test_equal_hits_per_trial(self, rate, eps, seed):
        cfg = CoverageConfig(codebook_rate=rate, typicality_epsilon=eps, trials=30, seed=seed)
        outcomes = reference_coverage_outcomes(cfg)
        assert per_trial_hits(cfg) == [int(o is True) for o in outcomes]
        if eps < 0.46:  # miss-heavy: some trials draw the whole codebook in vain
            assert False in outcomes

    def test_chunk_cap(self, monkeypatch):
        # with a 64-row cap, a 256-word codebook is drawn 16, 32, 64, 64, 64, 16
        cfg = CoverageConfig(codebook_rate=0.5, typicality_epsilon=0.1, trials=30, seed=4)
        monkeypatch.setattr(lattice_sim, "_CODEBOOK_CHUNK", 64)
        assert per_trial_hits(cfg) == [int(o is True) for o in reference_coverage_outcomes(cfg)]
