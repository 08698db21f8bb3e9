"""Outer bounds on the reliable rate of the two-relay reception setup.

Each canonical case has a cut-set bound (minimum over network cuts of the
cut's information rate).  Case C additionally has a modulo bound, a
strictly tighter outer bound in part of the parameter space, obtained from
a multi-letter argument; it carries an additive constant 0.25*log2(8*pi*e)
which is evaluated exactly here (~1.5235 bits), never as a rounded figure.

All bound terms are formed in the log domain, so an unlimited link
(`INFINITE_CAPACITY`) simply makes its cut term infinite and never binding.
The config-taking functions check a config against its case once, then call
`cutset_terms` and `modulo_bound`, which take the case explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChannelConfig, ScenarioCase, case_constraints_hold, gaussian_mi

#: Additive constant of the Case C modulo bound: 0.25 * log2(8*pi*e).
MODULO_BOUND_CONSTANT = 0.25 * math.log2(8.0 * math.pi * math.e)


@dataclass(frozen=True)
class BoundReport:
    """All outer bounds that apply to one channel configuration.

    Attributes:
        terms: labeled cut-set terms, one per network cut.
        cutset_min: minimum over the cut-set terms.
        modulo_bound: the Case C modulo bound, None for other cases.
        binding: minimum over every applicable bound.
    """

    terms: tuple[tuple[str, float], ...]
    cutset_min: float
    modulo_bound: float | None
    binding: float

    def term(self, label: str) -> float:
        for name, value in self.terms:
            if name == label:
                return value
        raise KeyError(label)


def _report(terms: list[tuple[str, float]], modulo: float | None = None) -> BoundReport:
    cutset = min(v for _, v in terms)
    binding = cutset if modulo is None else min(cutset, modulo)
    return BoundReport(
        terms=tuple(terms), cutset_min=cutset, modulo_bound=modulo, binding=binding
    )


def cutset_terms(
    case: ScenarioCase, p_x: float, p_j: float, c1: float, c2: float
) -> list[tuple[str, float]]:
    """Labelled cut-set terms of `case` at one operating point; the case is
    taken as given (callers check their config against it once)."""
    if case is ScenarioCase.FULL_COOPERATION:
        return [("i(x;y1,y2)", full_cooperation_capacity(p_x))]
    interfered = gaussian_mi(p_x, p_j + 1.0)
    if case is ScenarioCase.CASE_A:
        return [("c2 + i(x;y1)", c2 + interfered), ("i(x;y1|j)", gaussian_mi(p_x, 1.0))]
    if case is ScenarioCase.CASE_B:
        return [
            ("c1", c1),
            ("c2 + i(x;y1)", c2 + interfered),
            ("i(x;y1|y2)", gaussian_mi(p_x, 1.0)),
        ]
    if case is ScenarioCase.CASE_C:
        return [
            ("c1 + c2", c1 + c2),
            ("c1 + i(x;y2)", c1 + interfered),
            ("c2 + i(x;y1)", c2 + interfered),
            ("i(x;y1,y2)", gaussian_mi(2.0 * p_x, 1.0)),
        ]
    raise ValueError(f"unknown case {case!r}")


def modulo_bound(p_x: float, p_j: float, c1: float, c2: float) -> float | None:
    """The Case C modulo bound at one operating point; None unless p_j > 0."""
    if not p_j > 0.0:
        return None
    return 0.5 * (c1 + c2 + gaussian_mi(p_x, p_j)) + MODULO_BOUND_CONSTANT


def _validate(cfg: ChannelConfig, case: ScenarioCase) -> None:
    """Check cfg against `case` once; Case B also accepts c1 = INFINITE_CAPACITY."""
    checked = ScenarioCase.CASE_A if case is ScenarioCase.CASE_B and math.isinf(cfg.c1) else case
    if not case_constraints_hold(cfg, checked):
        raise ValueError(f"config {cfg} does not satisfy the {case.name} constraints")


def _cutset(cfg: ChannelConfig, case: ScenarioCase) -> BoundReport:
    _validate(cfg, case)
    return _report(cutset_terms(case, cfg.p_x, cfg.p_j, cfg.c1, cfg.c2))


def cutset_case_a(cfg: ChannelConfig) -> BoundReport:
    """Case A cut-set bound.

    R <= min{ c2 + 0.5*log2(1 + px/(pj+1)),  0.5*log2(1 + px) }

    The first term cuts the relay-2 link together with the interfered
    direct observation; the second is the interference-free ceiling.
    """
    return _cutset(cfg, ScenarioCase.CASE_A)


def cutset_case_b(cfg: ChannelConfig) -> BoundReport:
    """Case B cut-set bound: Case A's terms plus the relay-1 link cut c1.

    Accepts the c1 = INFINITE_CAPACITY sentinel, for which the c1 cut never
    binds and the bound collapses to the Case A bound.
    """
    return _cutset(cfg, ScenarioCase.CASE_B)


def cutset_case_c(cfg: ChannelConfig) -> BoundReport:
    """Case C cut-set bound.

    R <= min{ c1+c2,  c1 + 0.5*log2(1+px/(pj+1)),  c2 + 0.5*log2(1+px/(pj+1)),
              0.5*log2(1+2*px) }
    """
    return _cutset(cfg, ScenarioCase.CASE_C)


def modulo_bound_case_c(cfg: ChannelConfig) -> float:
    """Case C modulo bound.

    R <= 0.5*(c1 + c2 + 0.5*log2(1 + px/pj)) + 0.25*log2(8*pi*e)

    Requires pj > 0 (the signal-to-interferer ratio px/pj is undefined
    otherwise).
    """
    _validate(cfg, ScenarioCase.CASE_C)
    if not cfg.p_j > 0.0:
        raise ValueError("modulo bound requires interferer power p_j > 0")
    return modulo_bound(cfg.p_x, cfg.p_j, cfg.c1, cfg.c2)


def full_cooperation_capacity(p_x: float) -> float:
    """Capacity with both links unlimited: 0.5*log2(1 + 2*px).

    Joint processing can subtract the two receptions, which removes the
    interferer entirely and leaves maximal-ratio combining of the signal.
    """
    if not p_x >= 0.0:
        raise ValueError(f"p_x must be >= 0, got {p_x!r}")
    return gaussian_mi(2.0 * p_x, 1.0)


def outer_bounds(cfg: ChannelConfig, case: ScenarioCase) -> BoundReport:
    """Assemble every outer bound applicable to `case`.

    cfg is checked against `case` once (full cooperation takes any config).
    For Case C the modulo bound is included (when pj > 0) and `binding`
    is the minimum of the cut-set and modulo bounds; the two are not
    ordered, and either may be the smaller one.
    """
    if case is not ScenarioCase.FULL_COOPERATION:
        _validate(cfg, case)
    modulo = modulo_bound(cfg.p_x, cfg.p_j, cfg.c1, cfg.c2) if case is ScenarioCase.CASE_C else None
    return _report(cutset_terms(case, cfg.p_x, cfg.p_j, cfg.c1, cfg.c2), modulo)
