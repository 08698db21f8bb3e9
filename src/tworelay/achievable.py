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
  the relay roles is allowed and the better one is taken; "prop" is the
  Case B closed form in the better orientation.

A local-decoding baseline (a relay decodes the message treating the
interferer as noise and forwards information bits) complements the lattice
scheme at small link capacities.

The closed forms are one array core: `lattice_rate`, `local_decode_rates`
and `best_rate` broadcast the rates over (p_x, p_j, c1, c2) for an
explicitly given case, so a sweep evaluates all splits of several sums in
one call.  Arithmetic runs in numpy in the order of the formulas; every
transcendental goes through `model.math_map` or `model.square` (libm's
bits), which keeps each element equal, bit for bit, to a per-point
evaluation.  The core takes its input as given.  The per-point entries
build the full report (combiner coefficient, distortions, equivalent-noise
power, active branch of the relay-2 min) from the same closed forms after
one input check: `achievable_case_*` and `local_decode_baseline` check
their powers and links as `ChannelConfig` checks its fields
(`model._check_fields`), and `best_achievable` infers a config's case once
and checks the config against it.  Input outside the model raises
ValueError.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ChannelConfig, ScenarioCase, _check_fields, case_constraints_hold
from .model import _LN2, _expm1, as_arrays, half_log2_ratio, math_map, mutual_info, square


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


def _pow2m1(c) -> np.ndarray:
    """2**(2c) - 1, stable for small c: 0.0 at c = 0 and inf from c ~ 512 bits on."""
    x = 2.0 * c * _LN2
    return math_map(_expm1 if np.any(x > 709.0) else math.expm1, x)  # guard near overflow only


def _pow2neg(c) -> np.ndarray:
    """2**(-2c); 0.0 at c = inf."""
    return math_map(math.exp, -2.0 * c * _LN2)


def _clamped_rate(p_x, p_neq) -> np.ndarray:
    """max(0.5*log2(p_x/p_neq), 0); 0 where p_x <= 0, p_neq = inf or p_x/p_neq
    underflows to 0, and finite where the ratio overflows (see `half_log2_ratio`)."""
    p_x, p_neq = np.broadcast_arrays(*as_arrays(p_x, p_neq))
    ratio = p_x / p_neq
    rate = np.zeros(ratio.shape)
    live = ~(p_x <= 0.0) & ~np.isinf(p_neq) & ~(ratio == 0.0)
    # near the clamp boundary log1p of the excess keeps full precision
    near = live & (0.5 < ratio) & (ratio < 2.0)
    far = live & ~near
    excess = (p_x[near] - p_neq[near]) / p_neq[near]
    rate[near] = 0.5 * math_map(math.log1p, excess) / _LN2
    rate[far] = 0.5 * math_map(math.log2, ratio[far])
    return np.where(rate < 0.0, 0.0, half_log2_ratio(p_x, p_neq, rate))


def mmse_alpha(p_x, p_n1, p_n2, gain_difference: float) -> np.ndarray:
    """Combiner coefficient minimizing the equivalent-noise power.

    For the destination combiner with signal coefficient
    1 - alpha*gain_difference the optimum is
    alpha = gd*p_x / (gd^2*p_x + p_n1 + p_n2): p_x/(p_x+1) in Case B
    (gd=1, unit noise at relay 1 only) and 2*p_x/(4*p_x+2) in Case C
    (gd=2, unit noise at both relays).  Like the other helpers below, it
    broadcasts over array arguments.
    """
    num = gain_difference * p_x
    denom = gain_difference**2 * p_x + p_n1 + p_n2
    alpha = np.where(denom == 0.0, 0.0, np.divide(num, denom))
    overflowed = np.isinf(denom)
    if overflowed.any():  # there alpha rounds to its limit 1/gain_difference
        alpha = np.where(overflowed, 1.0 / gain_difference, alpha)
    return alpha


def distortion_relay1(p_x, c1) -> np.ndarray:
    """Distortion of describing a power-p_x signal at rate c1 bits.

    From 0.5*log2((p_x + d)/d) = c1, i.e. d = p_x / (2**(2*c1) - 1).
    Zero rate gives infinite distortion (nothing useful is forwarded);
    unlimited rate gives zero distortion (no distortion either at p_x = 0).
    """
    return _distortion(p_x, _pow2m1(c1))


def _distortion(p_x, den, signal=None) -> np.ndarray:
    """signal / den with den = 2**(2c) - 1, the signal power p_x unless given (see
    `distortion_relay1`).  A zero-rate link takes its limit inf wherever p_x > 0,
    also where a given signal power, positive for p_x > 0, has underflowed to 0."""
    signal = p_x if signal is None else signal
    return np.where(den == 0.0, np.where(p_x > 0.0, math.inf, 0.0), np.divide(signal, den))


def distortion_relay2_case_b(p_x, p_j, c2, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Relay-2 distortion for Case B, and where the signal ceiling is active.

    The scaled, cell-reduced relay-2 signal has power at most
    min(p_x, alpha^2*p_j); describing it at rate c2 leaves distortion
    min(p_x, alpha^2*p_j) * 2**(-2*c2).  The second array is True where the
    min takes p_x (the "signal_ceiling" branch, else "interference").  Where
    alpha^2 is subnormal or underflows to 0, alpha scales p_j twice, so a
    representable alpha^2*p_j keeps its digits and is not lost as 0; an
    unlimited p_j takes its limit, so that underflow gives no NaN either.
    """
    alpha2 = square(alpha)
    interference = alpha2 * p_j
    lost = (alpha2 < sys.float_info.min) & np.isfinite(p_j)
    if lost.any():
        interference = np.where(lost, alpha * (alpha * p_j), interference)
    interference = _unless_unlimited(p_j, interference)
    at_ceiling = p_x <= interference
    return np.where(at_ceiling, p_x, interference) * _pow2neg(c2), at_ceiling


def _unless_unlimited(p_j, power) -> np.ndarray:
    """`power`, or its p_j -> inf limit inf where p_j is unlimited (so an
    alpha^2 that underflowed to 0 does not meet p_j as 0 * inf = NaN)."""
    return np.where(np.isinf(p_j), math.inf, power)


def side_information_power(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum: float) -> np.ndarray:
    """Power s of the sum signal relay 2's binned description is resolved against
    (unlimited where p_j is).  Where the bracket overflows or alpha^2 is subnormal
    or 0, alpha scales a quarter of the bracket twice: no 0 * inf, no term lost
    as 0 and no digits lost to a subnormal alpha^2."""
    bracket = gain_sum**2 * p_x + 4.0 * p_j + p_n1 + p_n2
    alpha2 = square(alpha)
    s = alpha2 * bracket + p_d1
    lost = (np.isinf(bracket) | (alpha2 < sys.float_info.min)) & np.isfinite(p_j)
    if lost.any():
        quarter = _quarter_bracket(p_x, p_j, p_n1, p_n2, gain_sum)
        s = np.where(lost, 4.0 * (alpha * (alpha * quarter)) + p_d1, s)
    return _unless_unlimited(p_j, s)


def _quarter_bracket(p_x, p_j, p_n1, p_n2, gain_sum: float) -> np.ndarray:
    """A quarter of the side-information bracket, finite wherever p_j is."""
    return 0.25 * (gain_sum**2 * p_x + p_n1 + p_n2) + p_j


def _binned_distortion(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum: float,
                       den, plain_den) -> tuple[np.ndarray, np.ndarray]:
    """min(p_x, s)/den with den = 2**(2*c2) - 1 and p_d1 = p_x/plain_den, and where
    the min takes p_x (see `distortion_relay2_case_c`).  A subnormal s kept only a
    few digits, which a den below 1 would carry into a larger value; there s/den is
    alpha*(4*(alpha*quarter)/den) + p_x/(plain_den*den), subnormal only in its last product."""
    s = side_information_power(p_x, p_j, alpha, p_d1, p_n1, p_n2, gain_sum)
    at_ceiling = p_x <= s
    p_d2 = _distortion(p_x, den, np.where(at_ceiling, p_x, s))
    tiny = (s < sys.float_info.min) & ~at_ceiling & (den > 0.0)
    if tiny.any():
        scaled = alpha * _quarter_bracket(p_x, p_j, p_n1, p_n2, gain_sum)
        p_d2 = np.where(tiny, alpha * (4.0 * scaled / den) + p_x / (plain_den * den), p_d2)
    return p_d2, at_ceiling


def distortion_relay2_case_c(
    p_x, p_j, c1, c2, alpha, p_n1=1.0, p_n2=1.0, gain_sum: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Relay-2 distortion for Case C via binned (side-information) coding.

    Relay 2's description is recovered from relay 1's, so its rate
    constraint reads 0.5*log2(1 + min(p_x, s)/d2) <= c2 with
    s = alpha^2*(gain_sum^2*p_x + 4*p_j + p_n1 + p_n2) + p_d1 the power of
    the sum signal it must be resolved against (p_d1 = `distortion_relay1`
    at rate c1).  The allocation takes the constraint with equality.  The
    second array marks where min(p_x, s) takes p_x, as in `distortion_relay2_case_b`.
    """
    m1, m2 = _pow2m1(c1), _pow2m1(c2)
    return _binned_distortion(p_x, p_j, alpha, _distortion(p_x, m1), p_n1, p_n2, gain_sum, m2, m1)


def equivalent_noise_power(p_x, p_n1, p_n2, alpha, p_d1, p_d2, gain_difference: float):
    """Power of n_eq = alpha*(n1-n2) + d1 - d2 - (1 - alpha*(a-b))*x."""
    leak = square(1.0 - alpha * gain_difference)
    return square(alpha) * (p_n1 + p_n2) + leak * p_x + p_d1 + p_d2


def lattice_cf_report(
    p_x: float, p_n1: float, p_n2: float, alpha: float, p_d1: float, p_d2: float,
    gain_difference: float,
) -> AchievableReport:
    """Rate of the lattice scheme for explicit combiner/distortion values.

    rate = max(0.5*log2(p_x / p_neq), 0); this is the form the Monte Carlo
    simulator is compared against.
    """
    p_neq = equivalent_noise_power(p_x, p_n1, p_n2, alpha, p_d1, p_d2, gain_difference)
    rate = _clamped_rate(p_x, p_neq).item()
    return AchievableReport(rate, Scheme.LATTICE_CF, alpha, p_d1, p_d2, float(p_neq))


def _case_b(p_x, p_j, c1, c2) -> tuple[np.ndarray, tuple]:
    """Case B rate of the lattice scheme, and the (alpha, p_d1, p_d2, p_neq,
    at_ceiling) it is formed from.

    rate = max(0.5*log2((1+p_x)*(2**(2*c1)-1) /
                        (p_x + 2**(2*c1)
                         + min(1+p_x, p_j*p_x/(p_x+1)) * 2**(-2*c2) * (2**(2*c1)-1))), 0)

    evaluated as 0.5*log2(p_x / (p_x/(p_x+1) + p_d1 + p_d2)) with
    p_d1 = p_x/(2**(2*c1)-1) and p_d2 = min(p_x, alpha^2*p_j)*2**(-2*c2),
    an algebraically identical normalization that never materializes
    2**(2*c1) products.  Reduces to Case A as c1 -> inf.
    """
    alpha = mmse_alpha(p_x, 1.0, 0.0, 1.0)
    p_d1 = distortion_relay1(p_x, c1)
    p_d2, at_ceiling = distortion_relay2_case_b(p_x, p_j, c2, alpha)
    p_neq = p_x / (p_x + 1.0) + p_d1 + p_d2
    return _clamped_rate(p_x, p_neq), (alpha, p_d1, p_d2, p_neq, at_ceiling)


def _case_c_derived_rate(p_x, p_j, p_d1, binned_pow2m1) -> np.ndarray:
    """One orientation of the Case C 'derived' closed form, given p_d1 and 2**(2*c2)-1.

    rate = max(0.5*log2(p_x / (1/2 + p_x/(2**(2*c1)-1)
                               + min(p_x, 4*p_j+2+p_x/(2**(2*c1)-1)) / (2**(2*c2)-1))), 0)

    A zero-rate link (an infinite p_x/(2**(2*c1)-1) or a zero 2**(2*c2)-1)
    makes the denominator infinite, hence the rate 0.
    """
    m = 4.0 * p_j + 2.0 + p_d1
    den = 0.5 + p_d1 + np.where(m < p_x, m, p_x) / binned_pow2m1
    return _clamped_rate(p_x, den)


def _case_c(p_x, p_j, c1, c2, variant: str) -> tuple[np.ndarray, tuple]:
    """Case C rate of the lattice scheme, better relay orientation taken, and
    the two orientation rates `_case_c_fields` takes.

    `variant` selects between the two closed forms: "prop", the default, is
    the Case B closed form (`_case_b`) with either relay as relay 1;
    "derived" accounts relay 2's rate through the conditional-binning
    constraint and bounds the combiner leakage by 1/2.
    """
    if variant not in ("prop", "derived"):
        raise ValueError(f"variant must be 'prop' or 'derived', got {variant!r}")
    if variant == "prop":
        forward, swapped = _case_b(p_x, p_j, c1, c2)[0], _case_b(p_x, p_j, c2, c1)[0]
    else:
        m1, m2 = _pow2m1(c1), _pow2m1(c2)  # each link's libm values serve both orientations
        forward = _case_c_derived_rate(p_x, p_j, _distortion(p_x, m1), m2)
        swapped = _case_c_derived_rate(p_x, p_j, _distortion(p_x, m2), m1)
    return np.where(swapped > forward, swapped, forward), (forward, swapped)


def _case_c_fields(p_x, p_j, c1, c2, forward, swapped) -> tuple:
    """(alpha, p_d1, p_d2, p_neq, at_ceiling) of the winning Case C orientation.

    These are the scheme parameters with alpha = 2*p_x/(4*p_x+2); for the
    "prop" variant the rate is the Case B closed form (see `_case_c`), which
    is not the same expression as 0.5*log2(p_x/p_neq).
    """
    swap = ~(forward >= swapped)
    primary, binned = np.where(swap, c2, c1), np.where(swap, c1, c2)
    alpha = mmse_alpha(p_x, 1.0, 1.0, 2.0)
    pd_primary = distortion_relay1(p_x, primary)
    pd_binned, at_ceiling = distortion_relay2_case_c(p_x, p_j, primary, binned, alpha)
    p_d1, p_d2 = np.where(swap, pd_binned, pd_primary), np.where(swap, pd_primary, pd_binned)
    p_neq = equivalent_noise_power(p_x, 1.0, 1.0, alpha, p_d1, p_d2, 2.0)
    return alpha, p_d1, p_d2, p_neq, at_ceiling


def _case_point(case: ScenarioCase, p_x, p_j, c1, c2) -> list[np.ndarray]:
    """The point as arrays; Case A is Case B with an unlimited relay-1 link."""
    if case not in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
        raise ValueError(f"no achievable-rate schemes for {case!r}")
    return as_arrays(p_x, p_j, math.inf if case is ScenarioCase.CASE_A else c1, c2)


@np.errstate(all="ignore")
def lattice_rate(case: ScenarioCase, p_x, p_j, c1, c2, variant: str = "prop") -> np.ndarray:
    """Rate of the lattice scheme of `case` over the broadcast of (p_x, p_j, c1, c2).

    Case A is Case B with an unlimited relay-1 link (its c1 is ignored);
    Case C takes the closed form `variant`.  The case is taken as given.
    """
    point = _case_point(case, p_x, p_j, c1, c2)
    return (_case_c(*point, variant) if case is ScenarioCase.CASE_C else _case_b(*point))[0]


@np.errstate(all="ignore")
def _lattice_report(case: ScenarioCase, p_x: float, p_j: float, c1: float, c2: float,
                    variant: str = "prop") -> AchievableReport:
    """The lattice scheme of `case` at one point with its internals; every field
    is 0 (and there is no min branch) at p_x = 0."""
    point = _case_point(case, p_x, p_j, c1, c2)
    if case is ScenarioCase.CASE_C:
        rate, values = _case_c(*point, variant)
        fields = _case_c_fields(*point, *values)
        scheme = Scheme.CASE_C_PROP if variant == "prop" else Scheme.CASE_C_DERIVED
    else:
        rate, fields = _case_b(*point)
        scheme = Scheme.CASE_A_EQ if case is ScenarioCase.CASE_A else Scheme.CASE_B_EQ
    if p_x == 0.0:
        return AchievableReport(0.0, scheme, 0.0, 0.0, 0.0, 0.0)
    rate, alpha, p_d1, p_d2, p_neq, at_ceiling = (v.item() for v in (rate, *fields))
    return AchievableReport(rate, scheme, alpha, p_d1, p_d2, p_neq,
                            "signal_ceiling" if at_ceiling else "interference")


def local_decode_rates(case: ScenarioCase, p_x, p_j, c1, c2) -> np.ndarray:
    """Rates of plain local decoding over the broadcast grid (see `local_decode_baseline`)."""
    if case not in (ScenarioCase.CASE_B, ScenarioCase.CASE_C):
        raise ValueError("local decoding baseline applies to Cases B and C only")
    with np.errstate(over="ignore"):  # two links past the largest float sum to inf
        links = c1 if case is ScenarioCase.CASE_B else np.add(c1, c2)
    sinr_rate = mutual_info(p_x, np.add(p_j, 1.0))
    return np.where(sinr_rate < links, sinr_rate, links)


def best_rate(case: ScenarioCase, p_x, p_j, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """The best rate of `case` over the broadcast grid, and where local decoding wins.

    The lattice rate (Case C's "prop" form) is compared with local decoding;
    the mask marks the points where local decoding is strictly better, so a
    tie goes to the lattice scheme.  Case A has the lattice scheme alone.
    """
    return _with_local_decoding(case, lattice_rate(case, p_x, p_j, c1, c2), p_x, p_j, c1, c2)


def _with_local_decoding(case: ScenarioCase, rate, p_x, p_j, c1, c2):
    """The better of the lattice `rate` and local decoding, and where local decoding wins."""
    if case is ScenarioCase.CASE_A:
        return rate, np.zeros(rate.shape, dtype=bool)
    local = local_decode_rates(case, p_x, p_j, c1, c2)
    wins = local > rate
    return np.where(wins, local, rate), wins


def achievable_case_a(p_x: float, p_j: float, c2: float) -> AchievableReport:
    """Case A rate of the lattice scheme.

    rate = max(0.5*log2((1+p_x) / (1 + min(1+p_x, p_j*p_x/(p_x+1)) * 2**(-2*c2))), 0)

    evaluated as Case B with an unlimited relay-1 link (p_d1 = 0), i.e. in
    the equivalent-noise normalization 0.5*log2(p_x / (p_x/(p_x+1) + p_d2)),
    which is the same quantity and stays accurate for capacities of
    hundreds of bits.
    """
    p_x, p_j, c2 = _check_fields(p_x=p_x, p_j=p_j, c2=c2)
    return _lattice_report(ScenarioCase.CASE_A, p_x, p_j, math.inf, c2)


def achievable_case_b(p_x: float, p_j: float, c1: float, c2: float) -> AchievableReport:
    """Case B rate of the lattice scheme at one point (closed form in `_case_b`)."""
    point = _check_fields(p_x=p_x, p_j=p_j, c1=c1, c2=c2)
    return _lattice_report(ScenarioCase.CASE_B, *point)


def achievable_case_c(
    p_x: float, p_j: float, c1: float, c2: float, variant: str = "prop"
) -> AchievableReport:
    """Case C rate of the lattice scheme at one point (see `_case_c`)."""
    point = _check_fields(p_x=p_x, p_j=p_j, c1=c1, c2=c2)
    return _lattice_report(ScenarioCase.CASE_C, *point, variant)


def local_decode_baseline(
    case: ScenarioCase, p_x: float, p_j: float, c1: float, c2: float | None = None
) -> AchievableReport:
    """Rate of plain local decoding, treating the interferer as noise.

    A relay can decode the message itself whenever
    R <= 0.5*log2(1 + p_x/(p_j+1)) and then forwards information bits, so
    Case B achieves min(c1, that SINR rate) and Case C (where either relay
    may decode, sharing the work) min(c1+c2, that SINR rate); Case B ignores c2.
    """
    if case is ScenarioCase.CASE_C and c2 is None:
        raise ValueError("Case C local decoding needs c2")
    point = _check_fields(p_x=p_x, p_j=p_j, c1=c1, c2=math.inf if c2 is None else c2)
    return AchievableReport(local_decode_rates(case, *point).item(), Scheme.LOCAL_DECODE)


def best_achievable(cfg: ChannelConfig) -> AchievableReport:
    """Best rate over the schemes of cfg's case at its operating point.

    Case A has the single closed form; Cases B and C take the max of the
    lattice scheme (both relay orientations for C) and the local-decoding
    baseline, and the report records the winner.  The case is inferred once:
    the relay-2 gain singles out Case C and an unlimited c1 Case A; one
    constraint check confirms the pick.
    """
    if cfg.b != 0.0:
        case = ScenarioCase.CASE_C
    else:
        case = ScenarioCase.CASE_A if math.isinf(cfg.c1) else ScenarioCase.CASE_B
    if not case_constraints_hold(cfg, case):
        raise ValueError("config does not match any canonical case preset")
    point = (cfg.p_x, cfg.p_j, cfg.c1, cfg.c2)
    lattice = _lattice_report(case, *point)
    rate, local = _with_local_decoding(case, np.asarray(lattice.rate), *point)
    return AchievableReport(rate.item(), Scheme.LOCAL_DECODE) if local.item() else lattice
