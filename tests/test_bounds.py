import math

import numpy as np
import pytest

import oracles
from tworelay.bounds import (
    MODULO_BOUND_CONSTANT,
    cutset_case_c,
    full_cooperation_capacity,
    modulo_bound_case_c,
    outer_bounds,
)
from tworelay.model import INFINITE_CAPACITY, ScenarioCase, gaussian_mi, make_preset

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C


def cfg_a(p_x, p_j, c2):
    return make_preset(ScenarioCase.CASE_A, p_x, p_j, c2=c2)


def cfg_b(p_x, p_j, c1, c2):
    return make_preset(ScenarioCase.CASE_B, p_x, p_j, c1=c1, c2=c2)


def cfg_c(p_x, p_j, c1, c2):
    return make_preset(ScenarioCase.CASE_C, p_x, p_j, c1=c1, c2=c2)


class TestCutsetCaseA:
    def test_reference_point(self):
        report = outer_bounds(cfg_a(15, 15, 1), A)
        assert report.cutset_min == pytest.approx(1.4770981551934377, rel=1e-14)
        assert report.term("c2 + i(x;y1)") == pytest.approx(1.4770981551934377, rel=1e-14)
        assert report.term("i(x;y1|j)") == pytest.approx(2.0, abs=1e-15)
        with pytest.raises(KeyError, match="nope"):
            report.term("nope")

    def test_zero_signal_power(self):
        assert outer_bounds(cfg_a(0, 3, 2), A).cutset_min == 0.0

    def test_unlimited_c2_leaves_ceiling(self):
        report = outer_bounds(cfg_a(15, 15, INFINITE_CAPACITY), A)
        assert report.cutset_min == pytest.approx(2.0, abs=1e-15)

    def test_rejects_wrong_case(self):
        with pytest.raises(ValueError):
            outer_bounds(cfg_b(15, 15, 2, 1), A)


class TestCutsetCaseB:
    def test_reference_point(self):
        report = outer_bounds(cfg_b(15, 15, 2, 1), B)
        assert report.cutset_min == pytest.approx(1.4770981551934377, rel=1e-14)
        assert report.term("c1") == 2.0

    def test_c1_cut_binds_at_zero(self):
        assert outer_bounds(cfg_b(15, 15, 0, 1), B).cutset_min == 0.0

    def test_infinite_c1_sentinel_recovers_case_a(self):
        point = outer_bounds(cfg_a(15, 15, 1), B)
        assert point.cutset_min == pytest.approx(1.4770981551934377, rel=1e-14)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c2 = 10.0 ** rng.uniform(-2, 2)
            cfg = cfg_a(p_x, p_j, c2)  # carries the c1 = inf sentinel
            assert outer_bounds(cfg, B).cutset_min == outer_bounds(cfg, A).cutset_min


class TestCutsetCaseC:
    def test_reference_point(self):
        report = cutset_case_c(cfg_c(15, 15, 1, 1))
        assert report.cutset_min == pytest.approx(1.4770981551934377, rel=1e-14)
        assert report.term("c1 + c2") == 2.0
        assert report.term("i(x;y1,y2)") == pytest.approx(2.4770981551934375, rel=1e-14)

    def test_sum_cut_binds_at_zero(self):
        assert cutset_case_c(cfg_c(15, 15, 0, 0)).cutset_min == 0.0

    def test_no_interference_unlimited_links(self):
        report = cutset_case_c(cfg_c(15, 0, INFINITE_CAPACITY, INFINITE_CAPACITY))
        assert report.cutset_min == pytest.approx(2.4770981551934375, rel=1e-14)


class TestModuloBound:
    def test_constant_from_first_principles(self):
        assert MODULO_BOUND_CONSTANT == pytest.approx(
            float(oracles.modulo_constant()), rel=1e-15
        )
        assert MODULO_BOUND_CONSTANT == pytest.approx(1.5235477925903205, rel=1e-14)

    def test_reference_point(self):
        assert modulo_bound_case_c(cfg_c(15, 15, 1, 1)) == pytest.approx(
            2.7735477925903207, rel=1e-14
        )

    def test_zero_capacity_equal_powers(self):
        assert modulo_bound_case_c(cfg_c(15, 15, 0, 0)) == pytest.approx(
            1.7735477925903205, rel=1e-14
        )

    def test_huge_interferer_leaves_only_constant(self):
        value = modulo_bound_case_c(cfg_c(15, 1e18, 0, 0))
        assert value == pytest.approx(MODULO_BOUND_CONSTANT, abs=1e-14)

    def test_rejects_zero_interference(self):
        with pytest.raises(ValueError):
            modulo_bound_case_c(cfg_c(15, 0, 1, 1))

    def test_can_sit_below_the_cutset(self):
        # at the looseness demonstration's operating point the modulo bound is
        # the smaller one, so no ordering between the two bounds holds
        p_x = 1e9
        cap = 0.25 * math.log2(p_x)
        cfg = cfg_c(p_x, math.sqrt(p_x), cap, cap)
        assert modulo_bound_case_c(cfg) < cutset_case_c(cfg).cutset_min


class TestFullCooperation:
    def test_values(self):
        assert full_cooperation_capacity(0) == 0.0
        assert full_cooperation_capacity(1.5) == pytest.approx(1.0, abs=1e-15)
        assert full_cooperation_capacity(15) == pytest.approx(
            2.4770981551934375, rel=1e-14
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            full_cooperation_capacity(-1)

    @pytest.mark.parametrize("p_x", [9e307, 1e308, 1.7976931348623157e308])
    def test_past_the_doubling_overflow(self, p_x):
        # 2*p_x overflows; the capacity is still about 512 bits
        expected = oracles.full_cooperation(p_x)
        assert oracles.within(full_cooperation_capacity(p_x), expected)
        report = outer_bounds(cfg_c(p_x, 15, INFINITE_CAPACITY, INFINITE_CAPACITY), C)
        assert oracles.within(report.term("i(x;y1,y2)"), expected)
        assert report.cutset_min == report.term("i(x;y1,y2)")

    def test_bits_unchanged_where_doubling_is_finite(self):
        largest = 8.988465674311579e307  # 2 * largest is the largest float
        for p_x in (0.0, 1e-300, 1.5, 15.0, 1e154, 1e300, 4.5e307, largest):
            expected = gaussian_mi(2.0 * p_x, 1.0)
            assert full_cooperation_capacity(p_x) == expected
            assert outer_bounds(cfg_c(p_x, 15, 1, 1), C).term("i(x;y1,y2)") == expected


class TestBoundProperties:
    def test_monotone_in_parameters(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2, 2)
            base_a = outer_bounds(cfg_a(p_x, p_j, c2), A).cutset_min
            base_b = outer_bounds(cfg_b(p_x, p_j, c1, c2), B).cutset_min
            base_c = cutset_case_c(cfg_c(p_x, p_j, c1, c2)).cutset_min
            base_m = modulo_bound_case_c(cfg_c(p_x, p_j, c1, c2))
            up = 1.7
            assert outer_bounds(cfg_a(p_x * up, p_j, c2), A).cutset_min >= base_a
            assert outer_bounds(cfg_a(p_x, p_j * up, c2), A).cutset_min <= base_a
            assert outer_bounds(cfg_a(p_x, p_j, c2 * up), A).cutset_min >= base_a
            assert outer_bounds(cfg_b(p_x, p_j, c1 * up, c2), B).cutset_min >= base_b
            assert cutset_case_c(cfg_c(p_x, p_j, c1, c2 * up)).cutset_min >= base_c
            assert modulo_bound_case_c(cfg_c(p_x * up, p_j, c1, c2)) >= base_m
            assert modulo_bound_case_c(cfg_c(p_x, p_j * up, c1, c2)) <= base_m

    def test_binding_below_every_term(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p_x, p_j = 10.0 ** rng.uniform(-2, 8, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2, 2)
            report = outer_bounds(cfg_c(p_x, p_j, c1, c2), ScenarioCase.CASE_C)
            assert all(report.binding <= v for _, v in report.terms)
            assert report.modulo_bound is not None
            assert report.binding <= report.modulo_bound

    def test_modulo_only_reported_for_case_c(self):
        assert outer_bounds(cfg_a(15, 15, 1), A).modulo_bound is None
        assert outer_bounds(cfg_b(15, 15, 2, 1), B).modulo_bound is None
        assert (
            outer_bounds(cfg_c(15, 15, 1, 1), ScenarioCase.CASE_C).modulo_bound
            is not None
        )

    def test_infinite_link_terms_never_bind(self):
        report = outer_bounds(cfg_a(15, 1e12, INFINITE_CAPACITY), A)
        assert math.isinf(report.term("c2 + i(x;y1)"))
        assert report.cutset_min == pytest.approx(2.0, abs=1e-15)
