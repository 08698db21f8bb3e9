import math
from dataclasses import replace

import pytest

from tworelay.achievable import lattice_cf_report
from tworelay.lattice_sim import (
    BATCH_SIZE,
    CoverageConfig,
    SimConfig,
    coverage_experiment,
    centered_mod,
    crypto_lemma_check,
    run_lattice_sim,
    sw_rate_check,
    with_interferer,
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
            swapped = run_lattice_sim(with_interferer(CASE_B, kind))
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
            0.5368814530311801, -0.000936892357877265)
        const = crypto_lemma_check(3.0, 200_000, 5, hold_message_constant=True)
        assert const.uniformity_pvalue == 0.505172221336224
        assert math.isnan(const.x_v_correlation)
        bare = crypto_lemma_check(3.0, 200_000, 5, disable_dither=True)
        assert (bare.uniformity_pvalue, bare.x_v_correlation) == (0.22668498348408833, 1.0)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            crypto_lemma_check(1.0, 10**4, seed=0)


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
