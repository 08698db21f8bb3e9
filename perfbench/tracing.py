"""Span tracing of the tworelay layers, from outside the package.

`Tracer.patch()` replaces public functions of `src/tworelay/` with timing
wrappers at the names where the calling modules imported them (for example
`tworelay.scaling.best_achievable`), so the package itself is unchanged.
Each call of a wrapped function records a span `{name, start, end, parent}`
in columnar arrays; `case_constraints_hold` only increments a counter,
because it runs several times per evaluated config.  Spans stay in memory
until `save()` writes them at the end of the run.

A layer is a module of the package; a span's name is `<layer>.<function>`,
with the scenario case appended as `[a]`, `[b]` or `[c]` where a metric is
split by case.  A span's self time is its duration minus that of its child
spans; `layer_metrics()` turns spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("model", "achievable", "bounds", "scaling", "lattice_sim", "cli")


def _cfg_case(cfg, *_args, **_kwargs) -> str:
    if cfg.b == -1.0:
        return "c"
    return "a" if math.isinf(cfg.c1) else "b"


def _second_case(_cfg, case, *_args, **_kwargs) -> str:
    return case.value


def _first_case(case, *_args, **_kwargs) -> str:
    return case.value


def _emit_target(_text, args, *_rest, **_kwargs) -> str:
    return "out" if getattr(args, "out", None) else "stdout"


def _sweep_configs(result, case, p_x, p_j, sums, split_samples=1001):
    return len(sums) * split_samples


def _gap_points(result, case, px_grid=None, pj_grid=None):
    from tworelay.scaling import default_power_grid

    default = len(default_power_grid())
    return (default if px_grid is None else len(px_grid)) * (
        default if pj_grid is None else len(pj_grid))


def _sim_samples(result, cfg):
    return cfg.samples


def _mod_samples(result, x, cell):
    return np.size(x)


def _cover_trials(result, cfg):
    return result.trials


#: (span name, modules whose imported name is replaced, case label, work count).
#: Module-internal calls are not traced, except `centered_mod`, whose callers
#: live in its own module.
SPANS = (
    ("model.make_preset", ("cli", "scaling"), None, None),
    ("achievable.best_achievable", ("cli", "scaling"), _cfg_case, None),
    ("achievable.achievable_case_a", ("cli",), None, None),
    ("achievable.achievable_case_b", ("cli",), None, None),
    ("achievable.achievable_case_c", ("cli", "scaling"), None, None),
    ("achievable.local_decode_baseline", ("cli",), None, None),
    ("bounds.outer_bounds", ("cli", "scaling"), _second_case, None),
    ("bounds.cutset_case_c", ("scaling",), None, None),
    ("bounds.modulo_bound_case_c", ("scaling",), None, None),
    ("scaling.sweep_sum_capacity", ("cli",), _first_case, _sweep_configs),
    ("scaling.certify_gaps", ("cli",), None, _gap_points),
    ("scaling.estimate_prelog", ("cli",), None, None),
    ("scaling.coupled_capacity_rate_fn", ("cli",), None, None),
    ("scaling.required_region_case_c", ("cli",), None, None),
    ("lattice_sim.run_lattice_sim", ("cli",), None, _sim_samples),
    ("lattice_sim.coverage_experiment", ("cli",), None, _cover_trials),
    ("lattice_sim.centered_mod", ("lattice_sim",), None, _mod_samples),
    ("cli._emit_text", ("cli",), _emit_target, None),
)

#: Modules whose `case_constraints_hold` name is replaced by a counter.
COUNTED = ("model", "achievable", "bounds")


class Tracer:
    """Spans in columnar arrays, plus the constraint-check counter."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.checks_start = array("q")
        self.checks_end = array("q")
        self.cover_hits: dict[int, int] = {}
        self.checks = 0
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, key: str) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def wrap(self, name, fn, label=None, work=None):
        """`fn` recording one span per call."""
        perf = time.perf_counter
        stack = self._stack
        plain_id = self._intern(name)
        record_hits = name == "lattice_sim.coverage_experiment"

        def traced(*args, **kwargs):
            nid = plain_id if label is None else self._intern(
                f"{name}[{label(*args, **kwargs)}]")
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.checks_start.append(self.checks)
            self.checks_end.append(0)
            self.work.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
                self.checks_end[idx] = self.checks
            if work is not None:
                self.work[idx] = work(result, *args, **kwargs)
            if record_hits:
                self.cover_hits[idx] = result.hits
            return result

        return traced

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.checks += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for span, modules, label, work in SPANS:
                attr = span.split(".", 1)[1]
                for module_name in modules:
                    module = importlib.import_module(f"tworelay.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span, original, label, work))
            for module_name in COUNTED:
                module = importlib.import_module(f"tworelay.{module_name}")
                original = module.case_constraints_hold
                saved.append((module, "case_constraints_hold", original))
                module.case_constraints_hold = self._counter(original)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def save(self, path: Path) -> None:
        """Write every span as columns of a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), work=np.asarray(self.work))


def _mean(values: np.ndarray) -> float | None:
    return float(values.mean()) if values.size else None


def layer_metrics(tracer: Tracer, lo: int, hi: int, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics from the spans with index in [lo, hi), which cover
    `passes` passes over a workload; self times are per pass.

    A metric whose spans do not occur in the range is left out; every
    `<layer>.self_s` is present (0.0 for a layer with no spans).
    """
    name = np.asarray(tracer.name)[lo:hi]
    parent = np.asarray(tracer.parent)[lo:hi] - lo
    dur = np.asarray(tracer.end)[lo:hi] - np.asarray(tracer.start)[lo:hi]
    work = np.asarray(tracer.work)[lo:hi]
    checks = (np.asarray(tracer.checks_end) - np.asarray(tracer.checks_start))[lo:hi]
    names = tracer.names
    layer_of = np.array([names[i].split(".", 1)[0] for i in range(len(names))] or [""])
    layer = layer_of[name] if name.size else np.array([], dtype=str)
    has_parent = parent >= 0
    child_time = np.zeros(name.size)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    library_child = has_parent & (layer != "cli")
    library_time = np.zeros(name.size)
    np.add.at(library_time, parent[library_child], dur[library_child])
    self_time = dur - child_time

    def sel(key: str) -> np.ndarray:
        nid = tracer._ids.get(key)
        return np.zeros(name.size, dtype=bool) if nid is None else name == nid

    def rate(mask: np.ndarray) -> float | None:
        return float(work[mask].sum() / dur[mask].sum()) if mask.any() else None

    metrics: dict[str, float | None] = {
        f"{lay}.self_s": float(self_time[layer == lay].sum()) / passes for lay in LAYERS}
    metrics["model.make_preset_us"] = _mean(dur[sel("model.make_preset")] * 1e6)
    grids = sel("scaling.certify_gaps") | sel("scaling.sweep_sum_capacity[b]") \
        | sel("scaling.sweep_sum_capacity[c]")
    if grids.any():
        metrics["model.constraint_checks_per_config"] = float(
            checks[grids].sum() / work[grids].sum())
    for case in "abc":
        metrics[f"achievable.best_us.{case}"] = _mean(
            dur[sel(f"achievable.best_achievable[{case}]")] * 1e6)
        metrics[f"bounds.outer_us.{case}"] = _mean(
            dur[sel(f"bounds.outer_bounds[{case}]")] * 1e6)
    for case in "bc":
        metrics[f"scaling.sweep_configs_per_s.{case}"] = rate(
            sel(f"scaling.sweep_sum_capacity[{case}]"))
    sweeps = sel("scaling.sweep_sum_capacity[b]") | sel("scaling.sweep_sum_capacity[c]")
    metrics["scaling.sweep_self_s"] = (
        float(self_time[sweeps].sum()) / passes if sweeps.any() else None)
    metrics["scaling.gaps_points_per_s"] = rate(sel("scaling.certify_gaps"))
    metrics["scaling.prelog_s"] = _mean(dur[sel("scaling.estimate_prelog")])
    metrics["lattice_sim.sim_samples_per_s"] = rate(sel("lattice_sim.run_lattice_sim"))
    metrics["lattice_sim.crypto_samples_per_s"] = rate(sel("lattice_sim.crypto_lemma_check"))
    metrics["lattice_sim.centered_mod_samples_per_s"] = rate(sel("lattice_sim.centered_mod"))
    cover = sel("lattice_sim.coverage_experiment")
    metrics["lattice_sim.cover_trials_per_s"] = rate(cover)
    if cover.any():
        hits = sum(h for i, h in tracer.cover_hits.items() if lo <= i < hi)
        metrics["lattice_sim.cover_hit_frac"] = hits / float(work[cover].sum())
    main = sel("cli.main")
    metrics["cli.main_overhead_us"] = _mean((dur - library_time)[main] * 1e6)
    metrics["cli.emit_out_us"] = _mean(dur[sel("cli._emit_text[out]")] * 1e6)
    return {k: v for k, v in metrics.items() if v is not None}
