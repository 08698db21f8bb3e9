"""Achievable rates of the lattice compress-and-forward scheme.

The scheme: the transmitter maps its codeword V into the Voronoi cell of a
lattice through a uniform dither (X = V - U mod cell).  Each relay scales
its observation by a common coefficient alpha, reduces it into the cell,
and quantizes the result; the destination subtracts the two descriptions,
adds the dither back and reduces modulo the cell once more.  The combiner
output equals V plus an equivalent noise

    n_eq = alpha*(n1 - n2) + d1 - d2 - (1 - alpha*(a-b))*x

whose power determines the rate 0.5*log2(p_x / p_neq).  Quantization is
modeled by its forward test channel: independent Gaussian distortions d1,
d2 whose variances follow from the link rates c1, c2.

Closed forms are provided for the canonical cases:

* Case A (relay 1 unlimited): only d2 survives.
* Case B: alpha = p_x/(p_x+1), d1 from the plain rate-distortion tradeoff
  at rate c1, d2 from describing the scaled interference at rate c2.
* Case C: two closed forms of the same scheme are in circulation and they
  do not coincide; both are kept behind `variant` ("prop", the default,
  and "derived") rather than silently reconciled.  Either orientation of
  the relay roles is allowed and the better one is taken.

A local-decoding baseline (a relay decodes the message treating the
interferer as noise and forwards information bits) complements the lattice
scheme at small link capacities.  `best_report` evaluates an explicitly
given case; `best_achievable` infers a config's case once and calls it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .model import ChannelConfig, ScenarioCase, case_constraints_hold, gaussian_mi

_LN2 = math.log(2.0)


class Scheme(enum.Enum):
    """Which transmission/relaying strategy produced a rate."""

    LATTICE_CF = "lattice_cf"
    LOCAL_DECODE = "local_decode"
    CASE_A_EQ = "case_a_eq"
    CASE_B_EQ = "case_b_eq"
    CASE_C_PROP = "case_c_prop"
    CASE_C_DERIVED = "case_c_derived"


@dataclass(frozen=True)
class AchievableReport:
    """An achievable rate together with the scheme internals behind it.

    `alpha`, `p_d1`, `p_d2` and `p_neq` are the combiner coefficient, the
    two quantization-distortion powers and the equivalent-noise power; they
    are None for schemes that have no such parameters (local decoding).
    `min_branch` records which argument of the relay-2 distortion min was
    active ("signal_ceiling" when the cell power p_x capped it,
    "interference" otherwise).
    """

    rate: float
    scheme: Scheme
    alpha: float | None = None
    p_d1: float | None = None
    p_d2: float | None = None
    p_neq: float | None = None
    min_branch: str | None = None


def _pow2m1(c: float) -> float:
    """2**(2c) - 1, stable for small c and saturating cleanly at c = inf."""
    if c == 0.0:
        return 0.0
    if math.isinf(c):
        return math.inf
    return math.expm1(2.0 * c * _LN2)


def _pow2neg(c: float) -> float:
    """2**(-2c); 0.0 at c = inf."""
    if math.isinf(c):
        return 0.0
    return math.exp(-2.0 * c * _LN2)


def _clamped_rate(p_x: float, p_neq: float) -> float:
    if p_x <= 0.0 or math.isinf(p_neq):
        return 0.0
    ratio = p_x / p_neq
    if 0.5 < ratio < 2.0:
        # near the clamp boundary log1p of the excess keeps full precision
        return max(0.5 * math.log1p((p_x - p_neq) / p_neq) / _LN2, 0.0)
    return max(0.5 * math.log2(ratio), 0.0)


def mmse_alpha(p_x: float, p_n1: float, p_n2: float, gain_difference: float) -> float:
    """Combiner coefficient minimizing the equivalent-noise power.

    For the destination combiner with signal coefficient
    1 - alpha*gain_difference the optimum is
    alpha = gd*p_x / (gd^2*p_x + p_n1 + p_n2): p_x/(p_x+1) in Case B
    (gd=1, unit noise at relay 1 only) and 2*p_x/(4*p_x+2) in Case C
    (gd=2, unit noise at both relays).
    """
    denom = gain_difference**2 * p_x + p_n1 + p_n2
    if denom == 0.0:
        return 0.0
    return gain_difference * p_x / denom


def distortion_relay1(p_x: float, c1: float) -> float:
    """Distortion of describing a power-p_x signal at rate c1 bits.

    From 0.5*log2((p_x + d)/d) = c1, i.e. d = p_x / (2**(2*c1) - 1).
    Zero rate gives infinite distortion (nothing useful is forwarded);
    unlimited rate gives zero distortion.
    """
    den = _pow2m1(c1)
    if den == 0.0:
        return math.inf if p_x > 0.0 else 0.0
    return p_x / den


def distortion_relay2_case_b(p_x: float, p_j: float, c2: float, alpha: float) -> tuple[float, str]:
    """Relay-2 distortion for Case B and the active min branch.

    The scaled, cell-reduced relay-2 signal has power at most
    min(p_x, alpha^2*p_j); describing it at rate c2 leaves distortion
    min(p_x, alpha^2*p_j) * 2**(-2*c2).
    """
    ceiling = p_x
    interference = alpha**2 * p_j
    if ceiling <= interference:
        return ceiling * _pow2neg(c2), "signal_ceiling"
    return interference * _pow2neg(c2), "interference"


def side_information_power(
    p_x: float, p_j: float, alpha: float, p_d1: float, p_n1: float, p_n2: float, gain_sum: float
) -> float:
    """Power s of the sum signal relay 2's binned description is resolved against."""
    return alpha**2 * (gain_sum**2 * p_x + 4.0 * p_j + p_n1 + p_n2) + p_d1


def distortion_relay2_case_c(
    p_x: float,
    p_j: float,
    c2: float,
    alpha: float,
    p_d1: float,
    p_n1: float = 1.0,
    p_n2: float = 1.0,
    gain_sum: float = 0.0,
) -> tuple[float, str]:
    """Relay-2 distortion for Case C via binned (side-information) coding.

    Relay 2's description is recovered from relay 1's, so its rate
    constraint reads 0.5*log2(1 + min(p_x, s)/d2) <= c2 with
    s = alpha^2*(gain_sum^2*p_x + 4*p_j + p_n1 + p_n2) + p_d1 the power of
    the sum signal it must be resolved against.  The allocation takes the
    constraint with equality.
    """
    s = side_information_power(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum)
    if p_x <= s:
        numer, branch = p_x, "signal_ceiling"
    else:
        numer, branch = s, "interference"
    den = _pow2m1(c2)
    if den == 0.0:
        return (math.inf if numer > 0.0 else 0.0), branch
    return numer / den, branch


def equivalent_noise_power(
    p_x: float,
    p_n1: float,
    p_n2: float,
    alpha: float,
    p_d1: float,
    p_d2: float,
    gain_difference: float,
) -> float:
    """Power of n_eq = alpha*(n1-n2) + d1 - d2 - (1 - alpha*(a-b))*x."""
    return (
        alpha**2 * (p_n1 + p_n2)
        + (1.0 - alpha * gain_difference) ** 2 * p_x
        + p_d1
        + p_d2
    )


def lattice_cf_report(
    p_x: float,
    p_n1: float,
    p_n2: float,
    alpha: float,
    p_d1: float,
    p_d2: float,
    gain_difference: float,
) -> AchievableReport:
    """Rate of the lattice scheme for explicit combiner/distortion values.

    rate = max(0.5*log2(p_x / p_neq), 0); this is the form the Monte Carlo
    simulator is compared against.
    """
    p_neq = equivalent_noise_power(p_x, p_n1, p_n2, alpha, p_d1, p_d2, gain_difference)
    return AchievableReport(
        rate=_clamped_rate(p_x, p_neq),
        scheme=Scheme.LATTICE_CF,
        alpha=alpha,
        p_d1=p_d1,
        p_d2=p_d2,
        p_neq=p_neq,
    )


def achievable_case_a(p_x: float, p_j: float, c2: float) -> AchievableReport:
    """Case A rate of the lattice scheme.

    rate = max(0.5*log2((1+p_x) / (1 + min(1+p_x, p_j*p_x/(p_x+1)) * 2**(-2*c2))), 0)

    evaluated as Case B with an unlimited relay-1 link (p_d1 = 0), i.e. in
    the equivalent-noise normalization 0.5*log2(p_x / (p_x/(p_x+1) + p_d2)),
    which is the same quantity and stays accurate for capacities of
    hundreds of bits.
    """
    report = achievable_case_b(p_x, p_j, math.inf, c2)
    return replace(report, scheme=Scheme.CASE_A_EQ)


def achievable_case_b(p_x: float, p_j: float, c1: float, c2: float) -> AchievableReport:
    """Case B rate of the lattice scheme.

    rate = max(0.5*log2((1+p_x)*(2**(2*c1)-1) /
                        (p_x + 2**(2*c1)
                         + min(1+p_x, p_j*p_x/(p_x+1)) * 2**(-2*c2) * (2**(2*c1)-1))), 0)

    evaluated as 0.5*log2(p_x / (p_x/(p_x+1) + p_d1 + p_d2)) with
    p_d1 = p_x/(2**(2*c1)-1) and p_d2 = min(p_x, alpha^2*p_j)*2**(-2*c2),
    an algebraically identical normalization that never materializes
    2**(2*c1) products.  Reduces to Case A as c1 -> inf.
    """
    if p_x == 0.0:
        return AchievableReport(
            rate=0.0, scheme=Scheme.CASE_B_EQ, alpha=0.0, p_d1=0.0, p_d2=0.0, p_neq=0.0
        )
    alpha = mmse_alpha(p_x, 1.0, 0.0, 1.0)
    p_d1 = distortion_relay1(p_x, c1)
    p_d2, branch = distortion_relay2_case_b(p_x, p_j, c2, alpha)
    p_neq = p_x / (p_x + 1.0) + p_d1 + p_d2
    return AchievableReport(
        rate=_clamped_rate(p_x, p_neq),
        scheme=Scheme.CASE_B_EQ,
        alpha=alpha,
        p_d1=p_d1,
        p_d2=p_d2,
        p_neq=p_neq,
        min_branch=branch,
    )


def _case_c_prop_rate(p_x: float, p_j: float, link_primary: float, link_binned: float) -> float:
    """One orientation of the Case C 'prop' closed form.

    rate = max(0.5*log2(p_x / (p_x/(p_x+1) + p_x/(2**(2*c1)-1)
                               + min(p_x, p_j*p_x^2/(p_x+1)^2) * 2**(-2*c2))), 0)
    """
    p_d1 = distortion_relay1(p_x, link_primary)
    m = min(p_x, p_j * (p_x / (p_x + 1.0)) ** 2)
    den = p_x / (p_x + 1.0) + p_d1 + m * _pow2neg(link_binned)
    return _clamped_rate(p_x, den)


def _case_c_derived_rate(p_x: float, p_j: float, link_primary: float, link_binned: float) -> float:
    """One orientation of the Case C 'derived' closed form.

    rate = max(0.5*log2(p_x / (1/2 + p_x/(2**(2*c1)-1)
                               + min(p_x, 4*p_j+2+p_x/(2**(2*c1)-1)) / (2**(2*c2)-1))), 0)
    """
    p_d1 = distortion_relay1(p_x, link_primary)
    if math.isinf(p_d1):
        return 0.0
    m = min(p_x, 4.0 * p_j + 2.0 + p_d1)
    den2 = _pow2m1(link_binned)
    if den2 == 0.0:
        return 0.0
    den = 0.5 + p_d1 + m / den2
    return _clamped_rate(p_x, den)


def achievable_case_c(
    p_x: float, p_j: float, c1: float, c2: float, variant: str = "prop"
) -> AchievableReport:
    """Case C rate of the lattice scheme, better relay orientation taken.

    `variant` selects between the two closed forms ("prop" is the default;
    "derived" accounts relay 2's rate through the conditional-binning
    constraint and bounds the combiner leakage by 1/2).  The reported
    alpha/p_d1/p_d2/p_neq are the scheme parameters of the winning
    orientation with alpha = 2*p_x/(4*p_x+2); for the "prop" variant the
    rate is the closed form above, which is not the same expression as
    0.5*log2(p_x/p_neq).
    """
    if variant not in ("prop", "derived"):
        raise ValueError(f"variant must be 'prop' or 'derived', got {variant!r}")
    rate_fn = _case_c_prop_rate if variant == "prop" else _case_c_derived_rate
    scheme = Scheme.CASE_C_PROP if variant == "prop" else Scheme.CASE_C_DERIVED
    if p_x == 0.0:
        return AchievableReport(
            rate=0.0, scheme=scheme, alpha=0.0, p_d1=0.0, p_d2=0.0, p_neq=0.0
        )
    forward = rate_fn(p_x, p_j, c1, c2)
    swapped = rate_fn(p_x, p_j, c2, c1)
    link_primary, link_binned, swap = (c1, c2, False) if forward >= swapped else (c2, c1, True)
    alpha = mmse_alpha(p_x, 1.0, 1.0, 2.0)
    pd_primary = distortion_relay1(p_x, link_primary)
    pd_binned, branch = distortion_relay2_case_c(p_x, p_j, link_binned, alpha, pd_primary)
    p_d1, p_d2 = (pd_binned, pd_primary) if swap else (pd_primary, pd_binned)
    p_neq = equivalent_noise_power(p_x, 1.0, 1.0, alpha, p_d1, p_d2, 2.0)
    return AchievableReport(
        rate=max(forward, swapped),
        scheme=scheme,
        alpha=alpha,
        p_d1=p_d1,
        p_d2=p_d2,
        p_neq=p_neq,
        min_branch=branch,
    )


def local_decode_baseline(
    case: ScenarioCase, p_x: float, p_j: float, c1: float, c2: float | None = None
) -> AchievableReport:
    """Rate of plain local decoding, treating the interferer as noise.

    A relay can decode the message itself whenever
    R <= 0.5*log2(1 + p_x/(p_j+1)) and then forwards information bits, so
    Case B achieves min(c1, that SINR rate) and Case C (where either relay
    may decode, sharing the work) min(c1+c2, that SINR rate).
    """
    sinr_rate = gaussian_mi(p_x, p_j + 1.0)
    if case is ScenarioCase.CASE_B:
        rate = min(c1, sinr_rate)
    elif case is ScenarioCase.CASE_C:
        if c2 is None:
            raise ValueError("Case C local decoding needs c2")
        rate = min(c1 + c2, sinr_rate)
    else:
        raise ValueError("local decoding baseline applies to Cases B and C only")
    return AchievableReport(rate=rate, scheme=Scheme.LOCAL_DECODE)


def best_report(
    case: ScenarioCase, p_x: float, p_j: float, c1: float, c2: float
) -> AchievableReport:
    """Best rate over the schemes of `case` at one operating point.

    Case A has the single closed form; Cases B and C take the max of the
    lattice scheme (both relay orientations for C) and the local-decoding
    baseline.  The returned report records the winning scheme.  The case is
    taken as given; callers check their inputs against it once.
    """
    if case is ScenarioCase.CASE_A:
        return achievable_case_a(p_x, p_j, c2)
    if case is ScenarioCase.CASE_B:
        lattice = achievable_case_b(p_x, p_j, c1, c2)
    elif case is ScenarioCase.CASE_C:
        lattice = achievable_case_c(p_x, p_j, c1, c2)
    else:
        raise ValueError(f"no achievable-rate schemes for {case!r}")
    return max(lattice, local_decode_baseline(case, p_x, p_j, c1, c2), key=lambda r: r.rate)


def best_achievable(cfg: ChannelConfig) -> AchievableReport:
    """Best rate over the schemes of cfg's case, inferred once (see `best_report`).

    The relay-2 gain singles out Case C (as which full cooperation reads) and
    an unlimited c1 Case A; one constraint check confirms the pick.
    """
    if cfg.b != 0.0:
        case = ScenarioCase.CASE_C
    else:
        case = ScenarioCase.CASE_A if math.isinf(cfg.c1) else ScenarioCase.CASE_B
    if not case_constraints_hold(cfg, case):
        raise ValueError("config does not match any canonical case preset")
    return best_report(case, cfg.p_x, cfg.p_j, cfg.c1, cfg.c2)
