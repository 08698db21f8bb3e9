import math

import numpy as np
import pytest

import oracles
from tworelay import model
from tworelay.model import (
    INFINITE_CAPACITY,
    ChannelConfig,
    ScenarioCase,
    case_constraints_hold,
    gaussian_mi,
    make_preset,
    mutual_info,
)


class TestGaussianMi:
    def test_half_log2_sixteen(self):
        assert gaussian_mi(15, 1) == pytest.approx(2.0, abs=1e-15)

    def test_zero_signal(self):
        assert gaussian_mi(0, 7) == 0.0

    def test_fifteen_over_sixteen(self):
        # frozen from the 50-digit oracle
        assert gaussian_mi(15, 16) == pytest.approx(0.4770981551934376, rel=1e-14)

    @pytest.mark.parametrize("ratio", [1e-12, 1e-9, 1e-3, 1.0, 1e6, 1e15])
    def test_stable_over_wide_ratio_range(self, ratio):
        impl = gaussian_mi(ratio * 3.0, 3.0)
        assert oracles.within(impl, oracles.mi(ratio * 3.0, 3.0), rel=1e-13)

    @pytest.mark.parametrize("s, n", [(1e308, 1e-300), (1.0, 5e-324), (1.7e308, 0.5),
                                      (5e-324, 5e-324)])
    def test_ratio_past_the_largest_float_is_finite(self, s, n):
        assert oracles.within(gaussian_mi(s, n), oracles.mi(s, n))

    def test_unlimited_signal(self):
        assert gaussian_mi(math.inf, 1.0) == INFINITE_CAPACITY
        assert gaussian_mi(1.0, math.inf) == 0.0
        with pytest.raises(ValueError):
            gaussian_mi(math.inf, math.inf)

    @pytest.mark.parametrize("ufunc_path", [True, False])
    def test_array_form_on_both_libm_paths(self, ufunc_path, monkeypatch):
        # libm's log2 raises on 0 per element: the log-domain form must not hand it one
        monkeypatch.setattr(model, "_UFUNC_PATH", ufunc_path and model._UFUNC_PATH)
        s = np.array([[1e308], [1.0], [0.0], [math.inf], [15.0]])
        n = np.array([1e-300, 0.0, 5e-324, 1.0])
        mi = mutual_info(s, n)
        expected = [[0.0 if a == 0.0 else gaussian_mi(a, b) if b > 0.0 else math.inf for b in n]
                    for a in s[:, 0]]
        np.testing.assert_array_equal(mi, expected)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            gaussian_mi(1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_mi(1.0, -2.0)

    def test_rejects_negative_signal(self):
        with pytest.raises(ValueError):
            gaussian_mi(-1.0, 1.0)

    def test_monotone_in_signal_and_noise(self):
        rng = np.random.default_rng(7)
        s = 10.0 ** rng.uniform(-6, 9, 200)
        n = 10.0 ** rng.uniform(-6, 9, 200)
        for si, ni in zip(s, n):
            base = gaussian_mi(si, ni)
            assert gaussian_mi(si * 1.5, ni) >= base
            assert gaussian_mi(si, ni * 1.5) <= base


class TestPresets:
    def test_case_a_fixes_channel(self):
        cfg = make_preset(ScenarioCase.CASE_A, p_x=15, p_j=15, c2=1)
        assert (cfg.a, cfg.b) == (1.0, 0.0)
        assert (cfg.p_n1, cfg.p_n2) == (1.0, 0.0)
        assert math.isinf(cfg.c1)
        assert cfg.c2 == 1.0

    def test_case_a_rejects_finite_c1(self):
        with pytest.raises(ValueError):
            make_preset(ScenarioCase.CASE_A, 15, 15, c1=3, c2=1)

    def test_case_b_requires_finite_c1(self):
        with pytest.raises(ValueError):
            make_preset(ScenarioCase.CASE_B, 15, 15, c1=INFINITE_CAPACITY, c2=1)

    def test_case_c_all_zero_edge(self):
        cfg = make_preset(ScenarioCase.CASE_C, p_x=0, p_j=0, c1=0, c2=0)
        assert (cfg.a, cfg.b) == (1.0, -1.0)
        assert (cfg.p_n1, cfg.p_n2) == (1.0, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            make_preset(ScenarioCase.CASE_B, p_x=-1, p_j=15, c1=1, c2=1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_preset(ScenarioCase.CASE_C, 1, 1, c1=-0.5, c2=1)

    def test_preset_round_trip_validates(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p_x, p_j = 10.0 ** rng.uniform(-3, 9, 2)
            c1, c2 = 10.0 ** rng.uniform(-2, 2, 2)
            for tag in ScenarioCase:
                kwargs = {"c1": c1, "c2": c2}
                if tag is ScenarioCase.CASE_A:
                    kwargs = {"c2": c2}
                cfg = make_preset(tag, p_x, p_j, **kwargs)
                assert case_constraints_hold(cfg, tag)

    def test_infinite_capacity_is_the_float_inf_sentinel(self):
        assert INFINITE_CAPACITY == math.inf
        cfg = make_preset(ScenarioCase.CASE_A, 1, 1, c2=2)
        assert cfg.c1 is not None and math.isinf(cfg.c1)

    def test_config_is_immutable(self):
        cfg = ChannelConfig(a=1, b=0, p_x=1, p_j=1, p_n1=1, p_n2=0, c1=1, c2=1)
        with pytest.raises(AttributeError):
            cfg.p_x = 2.0

    def test_nan_power_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(a=1, b=0, p_x=math.nan, p_j=1, p_n1=1, p_n2=0, c1=1, c2=1)

    def test_infinite_transmit_power_rejected_interferer_accepted(self):
        with pytest.raises(ValueError):
            make_preset(ScenarioCase.CASE_C, p_x=math.inf, p_j=1, c1=1, c2=1)
        cfg = make_preset(ScenarioCase.CASE_C, p_x=1, p_j=math.inf, c1=1, c2=1)
        assert math.isinf(cfg.p_j)
