"""Frozen scalar closed forms: the reference the array core is held to.

These are the per-point Python implementations of the achievable rates,
the local-decoding baseline, the outer bounds and the gap of each regime,
as they stood before the closed forms became numpy broadcasts.  They take
Python floats, call `math` for every transcendental, and return Python
floats; the array core must reproduce every returned bit.  They do not
validate their input: callers pass points inside the model.
"""

import math

from tworelay.achievable import AchievableReport, Scheme
from tworelay.bounds import MODULO_BOUND_CONSTANT
from tworelay.model import ScenarioCase

_LN2 = math.log(2.0)
INF = math.inf


def gaussian_mi(s, n):
    if s == 0.0:
        return 0.0
    if math.isinf(s):
        return INF
    return 0.5 * math.log1p(s / n) / _LN2


def _pow2m1(c):
    if c == 0.0:
        return 0.0
    if math.isinf(c):
        return math.inf
    return math.expm1(2.0 * c * _LN2)


def _pow2neg(c):
    if math.isinf(c):
        return 0.0
    return math.exp(-2.0 * c * _LN2)


def _clamped_rate(p_x, p_neq):
    if p_x <= 0.0 or math.isinf(p_neq):
        return 0.0
    ratio = p_x / p_neq
    if 0.5 < ratio < 2.0:
        return max(0.5 * math.log1p((p_x - p_neq) / p_neq) / _LN2, 0.0)
    return max(0.5 * math.log2(ratio), 0.0)


def mmse_alpha(p_x, p_n1, p_n2, gain_difference):
    denom = gain_difference**2 * p_x + p_n1 + p_n2
    if denom == 0.0:
        return 0.0
    return gain_difference * p_x / denom


def distortion_relay1(p_x, c1):
    den = _pow2m1(c1)
    if den == 0.0:
        return math.inf if p_x > 0.0 else 0.0
    return p_x / den


def distortion_relay2_case_b(p_x, p_j, c2, alpha):
    ceiling = p_x
    interference = alpha**2 * p_j
    if ceiling <= interference:
        return ceiling * _pow2neg(c2), "signal_ceiling"
    return interference * _pow2neg(c2), "interference"


def side_information_power(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum):
    return alpha**2 * (gain_sum**2 * p_x + 4.0 * p_j + p_n1 + p_n2) + p_d1


def distortion_relay2_case_c(p_x, p_j, c2, alpha, p_d1, p_n1=1.0, p_n2=1.0, gain_sum=0.0):
    s = side_information_power(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum)
    if p_x <= s:
        numer, branch = p_x, "signal_ceiling"
    else:
        numer, branch = s, "interference"
    den = _pow2m1(c2)
    if den == 0.0:
        return (math.inf if numer > 0.0 else 0.0), branch
    return numer / den, branch


def equivalent_noise_power(p_x, p_n1, p_n2, alpha, p_d1, p_d2, gain_difference):
    return (
        alpha**2 * (p_n1 + p_n2)
        + (1.0 - alpha * gain_difference) ** 2 * p_x
        + p_d1
        + p_d2
    )


def achievable_case_b(p_x, p_j, c1, c2, scheme=Scheme.CASE_B_EQ):
    if p_x == 0.0:
        return AchievableReport(rate=0.0, scheme=scheme, alpha=0.0, p_d1=0.0, p_d2=0.0,
                                p_neq=0.0)
    alpha = mmse_alpha(p_x, 1.0, 0.0, 1.0)
    p_d1 = distortion_relay1(p_x, c1)
    p_d2, branch = distortion_relay2_case_b(p_x, p_j, c2, alpha)
    p_neq = p_x / (p_x + 1.0) + p_d1 + p_d2
    return AchievableReport(rate=_clamped_rate(p_x, p_neq), scheme=scheme, alpha=alpha,
                            p_d1=p_d1, p_d2=p_d2, p_neq=p_neq, min_branch=branch)


def achievable_case_a(p_x, p_j, c2):
    return achievable_case_b(p_x, p_j, math.inf, c2, Scheme.CASE_A_EQ)


def _case_c_prop_rate(p_x, p_j, link_primary, link_binned):
    p_d1 = distortion_relay1(p_x, link_primary)
    m = min(p_x, p_j * (p_x / (p_x + 1.0)) ** 2)
    den = p_x / (p_x + 1.0) + p_d1 + m * _pow2neg(link_binned)
    return _clamped_rate(p_x, den)


def _case_c_derived_rate(p_x, p_j, link_primary, link_binned):
    p_d1 = distortion_relay1(p_x, link_primary)
    if math.isinf(p_d1):
        return 0.0
    m = min(p_x, 4.0 * p_j + 2.0 + p_d1)
    den2 = _pow2m1(link_binned)
    if den2 == 0.0:
        return 0.0
    den = 0.5 + p_d1 + m / den2
    return _clamped_rate(p_x, den)


def achievable_case_c(p_x, p_j, c1, c2, variant="prop"):
    rate_fn = _case_c_prop_rate if variant == "prop" else _case_c_derived_rate
    scheme = Scheme.CASE_C_PROP if variant == "prop" else Scheme.CASE_C_DERIVED
    if p_x == 0.0:
        return AchievableReport(rate=0.0, scheme=scheme, alpha=0.0, p_d1=0.0, p_d2=0.0,
                                p_neq=0.0)
    forward = rate_fn(p_x, p_j, c1, c2)
    swapped = rate_fn(p_x, p_j, c2, c1)
    link_primary, link_binned, swap = (c1, c2, False) if forward >= swapped else (c2, c1, True)
    alpha = mmse_alpha(p_x, 1.0, 1.0, 2.0)
    pd_primary = distortion_relay1(p_x, link_primary)
    pd_binned, branch = distortion_relay2_case_c(p_x, p_j, link_binned, alpha, pd_primary)
    p_d1, p_d2 = (pd_binned, pd_primary) if swap else (pd_primary, pd_binned)
    p_neq = equivalent_noise_power(p_x, 1.0, 1.0, alpha, p_d1, p_d2, 2.0)
    return AchievableReport(rate=max(forward, swapped), scheme=scheme, alpha=alpha,
                            p_d1=p_d1, p_d2=p_d2, p_neq=p_neq, min_branch=branch)


def local_decode_baseline(case, p_x, p_j, c1, c2):
    sinr_rate = gaussian_mi(p_x, p_j + 1.0)
    if case is ScenarioCase.CASE_B:
        rate = min(c1, sinr_rate)
    else:
        rate = min(c1 + c2, sinr_rate)
    return AchievableReport(rate=rate, scheme=Scheme.LOCAL_DECODE)


def best_report(case, p_x, p_j, c1, c2):
    if case is ScenarioCase.CASE_A:
        return achievable_case_a(p_x, p_j, c2)
    if case is ScenarioCase.CASE_B:
        lattice = achievable_case_b(p_x, p_j, c1, c2)
    else:
        lattice = achievable_case_c(p_x, p_j, c1, c2)
    return max(lattice, local_decode_baseline(case, p_x, p_j, c1, c2), key=lambda r: r.rate)


def cutset_terms(case, p_x, p_j, c1, c2):
    interfered = gaussian_mi(p_x, p_j + 1.0)
    if case is ScenarioCase.CASE_A:
        return [("c2 + i(x;y1)", c2 + interfered), ("i(x;y1|j)", gaussian_mi(p_x, 1.0))]
    if case is ScenarioCase.CASE_B:
        return [
            ("c1", c1),
            ("c2 + i(x;y1)", c2 + interfered),
            ("i(x;y1|y2)", gaussian_mi(p_x, 1.0)),
        ]
    return [
        ("c1 + c2", c1 + c2),
        ("c1 + i(x;y2)", c1 + interfered),
        ("c2 + i(x;y1)", c2 + interfered),
        ("i(x;y1,y2)", gaussian_mi(2.0 * p_x, 1.0)),
    ]


def cutset_min(case, p_x, p_j, c1, c2):
    return min(v for _, v in cutset_terms(case, p_x, p_j, c1, c2))


def modulo_bound(p_x, p_j, c1, c2):
    if not p_j > 0.0:
        return None
    return 0.5 * (c1 + c2 + gaussian_mi(p_x, p_j)) + MODULO_BOUND_CONSTANT


def gap_case_a(p_x, p_j):
    """(regime, gap), or None outside both regimes."""
    if p_j >= p_x:
        regime, c2 = "high_interference", 0.5 * math.log2(1.0 + p_x)
    elif p_j >= 1.0:
        regime, c2 = "low_interference", 0.5 * math.log2(p_j)
    else:
        return None
    case = ScenarioCase.CASE_A
    return regime, cutset_min(case, p_x, p_j, INF, c2) - best_report(case, p_x, p_j, INF, c2).rate


def gap_case_b(p_x, p_j):
    if not (p_x > 1.0 and p_j >= 1.0):
        return None
    c1, c2 = 0.5 * math.log2(1.0 + p_x), 0.5 * math.log2(p_j)
    case = ScenarioCase.CASE_B
    return "standard", cutset_min(case, p_x, p_j, c1, c2) - best_report(case, p_x, p_j, c1, c2).rate


def gap_case_c(p_x, p_j):
    half_log_1px = 0.5 * math.log2(1.0 + p_x)
    if 1.0 < p_j < p_x:
        c2 = 0.5 * math.log2(p_j)
        return "modulo", (modulo_bound(p_x, p_j, half_log_1px, c2)
                          - achievable_case_c(p_x, p_j, half_log_1px, c2).rate)
    if p_x > 0.0 and p_j > (1.0 + p_x) ** 2 / p_x:
        return "cutset", (cutset_min(ScenarioCase.CASE_C, p_x, p_j, half_log_1px, half_log_1px)
                          - achievable_case_c(p_x, p_j, half_log_1px, half_log_1px).rate)
    return None


GAP_FUNCTIONS = {
    ScenarioCase.CASE_A: gap_case_a,
    ScenarioCase.CASE_B: gap_case_b,
    ScenarioCase.CASE_C: gap_case_c,
}
