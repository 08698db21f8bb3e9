"""Outer bounds on the reliable rate of the two-relay reception setup.

Each canonical case has a cut-set bound (minimum over network cuts of the
cut's information rate).  Case C additionally has a modulo bound, a
strictly tighter outer bound in part of the parameter space, obtained from
a multi-letter argument; it carries an additive constant 0.25*log2(8*pi*e)
which is evaluated exactly here (~1.5235 bits), never as a rounded figure.

All bound terms are formed in the log domain, so an unlimited link
(`INFINITE_CAPACITY`) simply makes its cut term infinite and never binding.
Each term is written once, on `libm`'s helpers, and takes every logarithm
through `libm.mutual_info` (libm's bits; finite where a ratio passes the
largest float).  `cutset_terms`, `cutset_min` and `modulo_bound` take their
input as given: a point of Python floats gives floats, and numpy arrays
broadcast over (p_x, p_j, c1, c2), their warnings the caller's.  The
per-point entries (`outer_bounds`, `cutset_case_c`, `modulo_bound_case_c`)
check a config against its case once, which raises ValueError on a
mismatch, and evaluate the same terms on its floats, with no numpy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .libm import mutual_info, where
from .model import ChannelConfig, ScenarioCase, case_constraints_hold

#: Additive constant of the Case C modulo bound: 0.25 * log2(8*pi*e).
MODULO_BOUND_CONSTANT = 0.25 * math.log2(8.0 * math.pi * math.e)


class BoundReport(NamedTuple):
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
    return BoundReport(tuple(terms), cutset, modulo, binding)


def cutset_terms(case: ScenarioCase, p_x, p_j, c1, c2) -> list[tuple[str, object]]:
    """The labelled cut-set terms of `case` at a point of floats, or over numpy arrays that
    broadcast, as given (callers check their inputs against the case once)."""
    interfered = mutual_info(p_x, p_j + 1.0)
    if case is ScenarioCase.CASE_A:
        return [("c2 + i(x;y1)", c2 + interfered), ("i(x;y1|j)", mutual_info(p_x, 1.0))]
    if case is ScenarioCase.CASE_B:
        return [
            ("c1", c1),
            ("c2 + i(x;y1)", c2 + interfered),
            ("i(x;y1|y2)", mutual_info(p_x, 1.0)),
        ]
    if case is ScenarioCase.CASE_C:
        return [
            ("c1 + c2", c1 + c2),
            ("c1 + i(x;y2)", c1 + interfered),
            ("c2 + i(x;y1)", c2 + interfered),
            ("i(x;y1,y2)", mutual_info(p_x, 0.5)),  # = 2*p_x over 1, finite past its overflow
        ]
    raise ValueError(f"unknown case {case!r}")


def cutset_min(case: ScenarioCase, p_x, p_j, c1, c2):
    """The cut-set bound of `case`, the first smallest of its terms as min() takes it."""
    terms = (v for _, v in cutset_terms(case, p_x, p_j, c1, c2))
    return functools.reduce(lambda low, v: where(v < low, v, low), terms)


def modulo_bound(p_x, p_j, c1, c2):
    """The Case C modulo bound at a point of floats, or over numpy arrays that broadcast, as
    given; it needs p_j > 0.  Each term is halved before the sum (exact for normal floats),
    so c1 + c2 may overflow."""
    return 0.5 * c1 + 0.5 * c2 + 0.5 * mutual_info(p_x, p_j) + MODULO_BOUND_CONSTANT


def _validate(cfg: ChannelConfig, case: ScenarioCase) -> None:
    """Check cfg against `case` once; Case B also accepts c1 = INFINITE_CAPACITY."""
    checked = ScenarioCase.CASE_A if case is ScenarioCase.CASE_B and math.isinf(cfg.c1) else case
    if not case_constraints_hold(cfg, checked):
        raise ValueError(f"config {cfg} does not satisfy the {case.name} constraints")


def _point_terms(cfg: ChannelConfig, case: ScenarioCase) -> list[tuple[str, float]]:
    """The cut-set terms of `case` at cfg's point, cfg checked against `case` once."""
    _validate(cfg, case)
    return cutset_terms(case, cfg.p_x, cfg.p_j, cfg.c1, cfg.c2)


def cutset_case_c(cfg: ChannelConfig) -> BoundReport:
    """Case C cut-set bound.

    R <= min{ c1+c2,  c1 + 0.5*log2(1+px/(pj+1)),  c2 + 0.5*log2(1+px/(pj+1)),
              0.5*log2(1+2*px) }
    """
    return _report(_point_terms(cfg, ScenarioCase.CASE_C))


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


def outer_bounds(cfg: ChannelConfig, case: ScenarioCase) -> BoundReport:
    """Assemble every outer bound applicable to `case`.

    cfg is checked against `case` once; Case B also takes a Case A config
    (c1 = INFINITE_CAPACITY), whose c1 cut never binds.  For Case C the
    modulo bound is included (when pj > 0) and `binding` is the minimum of
    the cut-set and modulo bounds; the two are not ordered, and either may
    be the smaller one.
    """
    terms = _point_terms(cfg, case)
    positive = case is ScenarioCase.CASE_C and cfg.p_j > 0.0
    modulo = modulo_bound(cfg.p_x, cfg.p_j, cfg.c1, cfg.c2) if positive else None
    return _report(terms, modulo)
