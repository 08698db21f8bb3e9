import math

import numpy as np
import pytest

import oracles
from tworelay.achievable import (
    Scheme,
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_achievable,
    equivalent_noise_power,
    lattice_cf_report,
    local_decode_baseline,
    mmse_alpha,
)
from tworelay.bounds import cutset_case_c, modulo_bound_case_c, outer_bounds
from tworelay.model import INFINITE_CAPACITY, ScenarioCase, make_preset

INF = INFINITE_CAPACITY


class TestCaseA:
    def test_reference_point(self):
        report = achievable_case_a(15, 15, 1)
        assert report.rate == pytest.approx(0.9125371587496606, rel=1e-13)
        assert report.scheme is Scheme.CASE_A_EQ
        assert report.alpha == pytest.approx(15.0 / 16.0)
        assert report.min_branch == "interference"

    def test_unlimited_c2_reaches_ceiling(self):
        assert achievable_case_a(15, 7, INF).rate == pytest.approx(2.0, abs=1e-15)

    def test_huge_interferer_zero_c2_clamps(self):
        report = achievable_case_a(15, 1e15, 0)
        assert report.rate == 0.0
        assert report.min_branch == "signal_ceiling"

    def test_zero_power(self):
        assert achievable_case_a(0, 5, 1).rate == 0.0


class TestCaseB:
    def test_reference_point(self):
        report = achievable_case_b(15, 15, 2, 1)
        assert report.rate == pytest.approx(0.7595712474486127, rel=1e-13)
        assert report.scheme is Scheme.CASE_B_EQ
        assert report.p_d1 == pytest.approx(1.0, rel=1e-14)
        assert report.p_d2 == pytest.approx(3.2958984375, rel=1e-14)

    def test_zero_c1_clamps(self):
        assert achievable_case_b(15, 15, 0, 1).rate == 0.0

    def test_limit_to_case_a(self):
        # log-domain evaluation keeps the c1 -> inf limit exact well below 1e-9
        a = achievable_case_a(15, 15, 1).rate
        assert abs(achievable_case_b(15, 15, 400, 1).rate - a) < 1e-9
        assert achievable_case_b(15, 15, INF, 1).rate == pytest.approx(a, rel=1e-15)

    def test_500_bit_capacities_do_not_overflow(self):
        rate = achievable_case_b(1e9, 1e9, 500, 500)
        assert math.isfinite(rate.rate)
        assert oracles.within(rate.rate, oracles.ach_b(1e9, 1e9, 500, 500))


class TestCaseC:
    def test_prop_reference_point(self):
        report = achievable_case_c(15, 15, 2, 1, "prop")
        assert report.rate == pytest.approx(0.7595712474486127, rel=1e-13)
        assert report.scheme is Scheme.CASE_C_PROP
        assert report.alpha == pytest.approx(30.0 / 62.0)

    def test_derived_reference_point(self):
        report = achievable_case_c(15, 15, 2, 1, "derived")
        assert report.rate == pytest.approx(0.6032254387337131, rel=1e-13)
        assert report.scheme is Scheme.CASE_C_DERIVED

    def test_orientation_swap_is_symmetric(self):
        assert achievable_case_c(15, 15, 1, 2).rate == achievable_case_c(15, 15, 2, 1).rate
        assert (
            achievable_case_c(20, 5, 0.3, 3, "derived").rate
            == achievable_case_c(20, 5, 3, 0.3, "derived").rate
        )

    def test_zero_link_clamps(self):
        assert achievable_case_c(15, 15, 0, 0).rate == 0.0

    def test_no_interference_unlimited_links(self):
        assert achievable_case_c(15, 0, INF, INF).rate == pytest.approx(2.0, abs=1e-14)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            achievable_case_c(15, 15, 1, 1, "other")


class TestLocalDecode:
    def test_case_b_reference(self):
        report = local_decode_baseline(ScenarioCase.CASE_B, 15, 15, 2)
        assert report.rate == pytest.approx(0.4770981551934376, rel=1e-14)
        assert report.scheme is Scheme.LOCAL_DECODE

    def test_zero_c1(self):
        assert local_decode_baseline(ScenarioCase.CASE_B, 123, 4, 0).rate == 0.0

    def test_case_c_no_interference(self):
        report = local_decode_baseline(ScenarioCase.CASE_C, 15, 0, 1, 1)
        assert report.rate == pytest.approx(2.0, abs=1e-15)

    def test_rejects_case_a(self):
        with pytest.raises(ValueError):
            local_decode_baseline(ScenarioCase.CASE_A, 1, 1, 1)


B, C = ScenarioCase.CASE_B, ScenarioCase.CASE_C


class TestPointEntriesCheckTheirInput:
    """The raw-float entries check powers and links as ChannelConfig does."""

    @pytest.mark.parametrize("entry, args", [
        (local_decode_baseline, (B, 5, 3, -1)),
        (achievable_case_b, (5, -3, 1, 1)),
        (achievable_case_a, (math.inf, 3, 1)),
        (achievable_case_b, (5, math.nan, 1, 1)),
        (achievable_case_c, (-5, 3, 1, 1)),
        (achievable_case_c, (math.nan, 3, 1, 1)),
        (achievable_case_c, (5, -3, 1, 1)),
        (achievable_case_c, (5, math.nan, 1, 1)),
        (achievable_case_c, (5, 3, -1, 1)),
        (achievable_case_c, (5, 3, 1, math.nan)),
        (local_decode_baseline, (C, 5, 3, 1, -1)),
        (local_decode_baseline, (C, 5, -0.5, 1, 1)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_input_outside_the_model_raises(self, entry, args):
        with pytest.raises(ValueError):
            entry(*args)

    @pytest.mark.parametrize("p_j", [0.0, 15.0, INF])
    @pytest.mark.parametrize("link", [0.0, 1.0, INF])
    def test_edges_of_the_model_evaluate(self, p_j, link):
        reports = [achievable_case_a(15, p_j, link), achievable_case_b(15, p_j, link, 1),
                   achievable_case_b(15, p_j, INF, link), achievable_case_c(15, p_j, link, 1),
                   local_decode_baseline(B, 15, p_j, link),
                   local_decode_baseline(C, 15, p_j, 1, link)]
        assert all(0.0 <= r.rate <= 2.0 for r in reports)
        # Case B with an unlimited relay-1 link is Case A under its own label
        assert achievable_case_b(15, p_j, INF, link).rate == achievable_case_a(15, p_j, link).rate


class TestBestAchievable:
    def test_local_decoding_wins_at_tiny_links(self):
        cfg = make_preset(ScenarioCase.CASE_B, 15, 15, c1=0.4, c2=0)
        report = best_achievable(cfg)
        assert report.scheme is Scheme.LOCAL_DECODE
        assert report.rate == pytest.approx(0.4)

    def test_case_c_zero_links(self):
        cfg = make_preset(ScenarioCase.CASE_C, 15, 15, c1=0, c2=0)
        assert best_achievable(cfg).rate == 0.0

    def test_case_a_single_scheme(self):
        cfg = make_preset(ScenarioCase.CASE_A, 15, 15, c2=1)
        assert best_achievable(cfg).scheme is Scheme.CASE_A_EQ

    def test_lattice_wins_at_large_links(self):
        cfg = make_preset(ScenarioCase.CASE_B, 1e6, 10, c1=12, c2=8)
        assert best_achievable(cfg).scheme is Scheme.CASE_B_EQ


class TestSchemeInternals:
    def test_p_neq_matches_part_combination(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2, 2)
            rb = achievable_case_b(p_x, p_j, c1, c2)
            combo = equivalent_noise_power(p_x, 1.0, 0.0, rb.alpha, rb.p_d1, rb.p_d2, 1.0)
            assert rb.p_neq == pytest.approx(combo, rel=1e-12)
            rc = achievable_case_c(p_x, p_j, c1, c2)
            combo = equivalent_noise_power(p_x, 1.0, 1.0, rc.alpha, rc.p_d1, rc.p_d2, 2.0)
            assert rc.p_neq == pytest.approx(combo, rel=1e-12)

    def test_rate_is_half_log2_px_over_pneq_for_lattice_forms(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-1.5, 2, 2)
            for rep in (
                achievable_case_a(p_x, p_j, c2),
                achievable_case_b(p_x, p_j, c1, c2),
            ):
                reconstructed = max(0.5 * math.log2(p_x / rep.p_neq), 0.0)
                assert rep.rate == pytest.approx(reconstructed, rel=1e-12, abs=1e-13)

    def test_lattice_cf_report_uses_its_parts(self):
        rep = lattice_cf_report(15.0, 1.0, 1.0, 0.4, 0.7, 1.3, 2.0)
        assert rep.scheme is Scheme.LATTICE_CF
        assert rep.p_neq == pytest.approx(
            0.4**2 * 2 + (1 - 0.8) ** 2 * 15 + 0.7 + 1.3, rel=1e-15
        )
        assert rep.rate == pytest.approx(max(0.5 * math.log2(15 / rep.p_neq), 0.0), rel=1e-14)

    def test_derived_rate_never_exceeds_its_lattice_form(self):
        # the derived closed form bounds the combiner leakage and the
        # binned distortion from above, so it lower-bounds the exact rate
        rng = np.random.default_rng(37)
        for _ in range(200):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-1, 2, 2)
            rep = achievable_case_c(p_x, p_j, c1, c2, "derived")
            exact = lattice_cf_report(p_x, 1.0, 1.0, rep.alpha, rep.p_d1, rep.p_d2, 2.0)
            assert rep.rate <= exact.rate + 1e-12

    def test_mmse_alpha_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for p_x in 10.0 ** rng.uniform(-6, 9, 100):
            assert 0.0 < achievable_case_a(p_x, 1.0, 1.0).alpha <= 1.0
            assert 0.0 < achievable_case_c(p_x, 1.0, 1.0, 1.0).alpha <= 0.5

    def test_mmse_alpha_limits(self):
        # equal gains leave the combiner nothing to weigh; past the largest
        # float, 2*p_x/(4*p_x+2) takes its limit 1/2 instead of inf/inf
        assert mmse_alpha(5.0, 1.0, 1.0, 0.0) == 0.0
        with np.errstate(invalid="ignore", over="ignore"):  # replaced by the limit
            assert mmse_alpha(1e308, 1.0, 1.0, 2.0) == 0.5
            assert mmse_alpha(1e308, 1.0, 1.0, -2.0) == -0.5
            # 4*p_x + 2 overflows while 2*p_x does not: finite/inf would give 0
            assert mmse_alpha(5e307, 1.0, 1.0, 2.0) == 0.5
        below = 4.4e307  # 4*p_x + 2 stays finite, and the quotient rounds to 1/2
        assert mmse_alpha(below, 1.0, 1.0, 2.0) == (2.0 * below) / (4.0 * below + 2.0) == 0.5


class TestOrderingProperties:
    def test_achievable_below_binding_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p_x, p_j = 10.0 ** rng.uniform(-2, 9, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2.5, 2)
            cfg_a = make_preset(ScenarioCase.CASE_A, p_x, p_j, c2=c2)
            assert (
                best_achievable(cfg_a).rate
                <= outer_bounds(cfg_a, ScenarioCase.CASE_A).binding + 1e-12
            )
            cfg_b = make_preset(ScenarioCase.CASE_B, p_x, p_j, c1=c1, c2=c2)
            assert (
                best_achievable(cfg_b).rate
                <= outer_bounds(cfg_b, ScenarioCase.CASE_B).binding + 1e-12
            )
            cfg_c = make_preset(ScenarioCase.CASE_C, p_x, p_j, c1=c1, c2=c2)
            rate_c = best_achievable(cfg_c).rate
            assert rate_c <= cutset_case_c(cfg_c).cutset_min + 1e-12
            assert rate_c <= modulo_bound_case_c(cfg_c) + 1e-12

    def test_monotone_in_parameters(self):
        rng = np.random.default_rng(47)
        up = 1.9
        for _ in range(150):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2, 2)
            base_a = achievable_case_a(p_x, p_j, c2).rate
            assert achievable_case_a(p_x * up, p_j, c2).rate >= base_a - 1e-12
            assert achievable_case_a(p_x, p_j * up, c2).rate <= base_a + 1e-12
            assert achievable_case_a(p_x, p_j, c2 * up).rate >= base_a - 1e-12
            base_b = achievable_case_b(p_x, p_j, c1, c2).rate
            assert achievable_case_b(p_x * up, p_j, c1, c2).rate >= base_b - 1e-12
            assert achievable_case_b(p_x, p_j * up, c1, c2).rate <= base_b + 1e-12
            assert achievable_case_b(p_x, p_j, c1 * up, c2).rate >= base_b - 1e-12
            assert achievable_case_b(p_x, p_j, c1, c2 * up).rate >= base_b - 1e-12
            base_c = achievable_case_c(p_x, p_j, c1, c2).rate
            assert achievable_case_c(p_x * up, p_j, c1, c2).rate >= base_c - 1e-12
            assert achievable_case_c(p_x, p_j * up, c1, c2).rate <= base_c + 1e-12
            assert achievable_case_c(p_x, p_j, c1 * up, c2).rate >= base_c - 1e-12
            assert achievable_case_c(p_x, p_j, c1, c2 * up).rate >= base_c - 1e-12

    def test_unlimited_links_reach_interference_free_ceiling(self):
        for p_x in (0.3, 15.0, 1e7):
            ceiling = 0.5 * math.log2(1 + p_x)
            assert achievable_case_a(p_x, 1e5, INF).rate == pytest.approx(ceiling, rel=1e-12)
            assert achievable_case_b(p_x, 1e5, INF, INF).rate == pytest.approx(
                ceiling, rel=1e-12
            )
            assert achievable_case_c(p_x, 1e5, INF, INF).rate == pytest.approx(
                ceiling, rel=1e-12
            )
