"""Command-line front end.

Subcommands map one-to-one onto the library:

* ``bounds``    single-point outer bounds and achievable rates (CSV/JSON)
* ``sweep``     rate versus total link budget with the best split (CSV)
* ``region``    (c1, c2) region sustaining a target Case C rate (CSV/SVG)
* ``gaps``      gap certification over a power grid (JSON, exit 3 on violation)
* ``scaling``   pre-log estimation under a capacity coupling (JSON)
* ``simulate``  Monte Carlo run of the lattice scheme (JSON)
* ``cover``     random-codebook coverage experiment (JSON)

Each subcommand checks its input against the chosen case once, through the
library entry points; input outside the model exits 2.

Exit codes: 0 success, 2 invalid usage/parameters, 3 certificate violation.
Deterministic commands are byte-reproducible; stochastic ones are
byte-reproducible given --seed (one is generated and recorded otherwise).
Every output file is accompanied by a ``<name>.manifest.json`` sidecar
(JSON documents embed the manifest instead), and the environment variable
``TWORELAY_OUTDIR`` supplies the directory for relative --out paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from importlib import import_module
from pathlib import Path

import numpy as np

from . import _LAZY, __version__
from .achievable import (
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_achievable,
    local_decode_baseline,
)
from .bounds import outer_bounds
from .model import ScenarioCase, make_preset


def _bind(layer: str) -> None:
    """Import `layer` and bind its exports (the package's `_LAZY`) in this
    module's namespace, so a process imports only the layers its subcommand runs.

    A name already set here (say, a wrapper that replaced it) is kept, and
    each subcommand looks its names up here at call time, so it calls
    whatever the namespace holds.
    """
    module = import_module(f".{layer}", __package__)
    namespace = globals()
    for name in _LAZY[layer]:
        namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for layer, names in _LAZY.items():
        if name in names:
            _bind(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve_out(path_text: str) -> Path:
    path = Path(path_text)
    outdir = os.environ.get("TWORELAY_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(command: str, args: argparse.Namespace, outputs: list[str], seed=None) -> dict:
    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out") and v is not None
    }
    return {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "seed": seed,
        "outputs": outputs,
    }


def _emit_text(text: str, args: argparse.Namespace, manifest: dict) -> None:
    if getattr(args, "out", None):
        path = _resolve_out(args.out)
        manifest["outputs"] = [str(path)]
        path.write_text(text, encoding="utf-8", newline="")
        sidecar = path.with_name(path.name + ".manifest.json")
        sidecar.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    else:
        sys.stdout.write(text)


def _emit_json(document: dict, args: argparse.Namespace, manifest: dict) -> None:
    document = {"manifest": manifest, **document}
    _emit_text(json.dumps(document, indent=2, sort_keys=True) + "\n", args, manifest)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _report_row(kind: str, label: str, report, schema: str) -> list:
    return [kind, label, report.rate, report.alpha, report.p_d1, report.p_d2,
            report.p_neq, schema]


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args: argparse.Namespace) -> int:
    case = ScenarioCase(args.case)
    cfg = make_preset(case, args.px, args.pj, c1=args.c1, c2=args.c2)
    point = (args.px, args.pj, args.c1, args.c2)
    if case is ScenarioCase.CASE_A:
        reports = [("case_a_eq", achievable_case_a(args.px, args.pj, args.c2))]
    elif case is ScenarioCase.CASE_B:
        reports = [("case_b_eq", achievable_case_b(*point))]
    else:
        reports = [
            ("case_c_prop", achievable_case_c(*point, "prop")),
            ("case_c_derived", achievable_case_c(*point, "derived")),
        ]
    if case is not ScenarioCase.CASE_A:
        reports.append(("local_decode", local_decode_baseline(case, *point)))
    bound = outer_bounds(cfg, case)
    best = best_achievable(cfg)
    manifest = _manifest("bounds", args, [])

    if args.format == "json":
        document = {
            "case": args.case,
            "bounds": {
                "terms": {label: value for label, value in bound.terms},
                "cutset_min": bound.cutset_min,
                "modulo_bound": bound.modulo_bound,
                "binding": bound.binding,
            },
            "achievable": {label: asdict(rep) | {"scheme": rep.scheme.value}
                           for label, rep in reports},
            "best": asdict(best) | {"scheme": best.scheme.value},
        }
        _emit_json(document, args, manifest)
        return 0

    schema = "bounds.v1"
    rows = [["bound", label, value, None, None, None, None, schema] for label, value in bound.terms]
    rows.append(["bound", "cutset_min", bound.cutset_min, None, None, None, None, schema])
    if bound.modulo_bound is not None:
        rows.append(["bound", "modulo", bound.modulo_bound, None, None, None, None, schema])
    rows.append(["bound", "binding", bound.binding, None, None, None, None, schema])
    rows.extend(_report_row("achievable", label, rep, schema) for label, rep in reports)
    rows.append(_report_row("best", best.scheme.value, best, schema))
    header = ["row_type", "label", "rate_bits", "alpha", "p_d1", "p_d2", "p_neq", "schema"]
    _emit_text(_csv_text(header, rows), args, manifest)
    return 0


def _parse_range(spec: str) -> list[float]:
    if not spec:
        return []
    start_s, stop_s, step_s = spec.split(":")
    start, stop, step = float(start_s), float(stop_s), float(step_s)
    if step <= 0:
        raise ValueError("range step must be > 0")
    if stop < start:
        return []
    return [float(v) for v in np.arange(start, stop + step / 2.0, step)]


def cmd_sweep(args: argparse.Namespace) -> int:
    _bind("scaling")
    case = ScenarioCase(args.case)
    sums = _parse_range(args.sum_range)
    points = sweep_sum_capacity(case, args.px, args.pj, sums, split_samples=args.split_samples)
    schema = "sweep.v1"
    rows = [
        [p.sum_capacity, p.best_rate, p.winning_scheme.value, p.c1, p.c2, p.cutset,
         p.modulo, schema]
        for p in points
    ]
    header = ["sum_capacity", "best_rate", "winning_scheme", "best_c1", "best_c2",
              "cutset", "modulo", "schema"]
    _emit_text(_csv_text(header, rows), args, _manifest("sweep", args, []))
    return 0


def _region_boundary(region, vmax: float) -> list[tuple[float, float]]:
    pts = [(region.vertices[0][0], vmax)]
    pts.extend(region.vertices)
    pts.append((vmax, region.vertices[-1][1]))
    return pts


def _region_svg(region) -> str:
    vmax = max(1.0, 1.25 * max(v for vertex in region.vertices for v in vertex))
    pts = _region_boundary(region, vmax)
    size = 480.0
    pad = 40.0
    scale = (size - 2 * pad) / vmax
    points_attr = " ".join(f"{c1},{c2}" for c1, c2 in pts)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'  <g transform="translate({pad:g},{size - pad:g}) scale({scale!r},{-scale!r})" '
        'fill="none" stroke-width="0.02">',
        f'    <polyline stroke="black" points="0,{vmax!r} 0,0 {vmax!r},0" />',
        f'    <polyline stroke="crimson" points="{points_attr}" />',
    ]
    for label, (c1, c2) in (("P2", region.p2), ("P1", region.p1)):
        lines.append(
            f'    <circle cx="{c1!r}" cy="{c2!r}" r="0.05" fill="crimson"><title>{label}'
            "</title></circle>"
        )
    lines.extend(["  </g>", "</svg>", ""])
    return "\n".join(lines)


def cmd_region(args: argparse.Namespace) -> int:
    _bind("scaling")
    region = required_region_case_c(args.rate, args.px, args.pj)
    manifest = _manifest("region", args, [])
    if args.format == "svg":
        _emit_text(_region_svg(region), args, manifest)
        return 0
    schema = "region.v1"
    rows = []
    labels = ["P2", "P1"] if len(region.vertices) == 2 else ["P1=P2"]
    for label, (c1, c2) in zip(labels, region.vertices):
        rows.append(["vertex", label, c1, c2, None, None, None, schema])
    for label, coef1, coef2, rhs in region.constraints:
        rows.append(["constraint", label, None, None, coef1, coef2, rhs, schema])
    header = ["row_type", "label", "c1", "c2", "coef_c1", "coef_c2", "rhs", "schema"]
    _emit_text(_csv_text(header, rows), args, manifest)
    return 0


def _parse_grid(spec: str) -> tuple[list[float], list[float]] | tuple[None, None]:
    if spec == "default":
        return None, None
    lo_s, hi_s, per_decade_s = spec.split(":")
    lo, hi, per_decade = float(lo_s), float(hi_s), int(per_decade_s)
    if per_decade < 1 or hi < lo:
        raise ValueError("grid spec must be 'default' or 'exp_lo:exp_hi:points_per_decade'")
    exps = np.arange(lo, hi + 1e-9, 1.0 / per_decade)
    try:  # libm's pow as numpy's 10.0**e, which would warn and give inf on overflow
        values = [10.0**e for e in exps.tolist()]
    except OverflowError:
        raise ValueError(f"grid powers up to 10**{exps[-1]:g} overflow a float") from None
    return values, values


def cmd_gaps(args: argparse.Namespace) -> int:
    _bind("scaling")
    case = ScenarioCase(args.case)
    px_grid, pj_grid = _parse_grid(args.grid)
    certificates = certify_gaps(case, px_grid, pj_grid)
    document = {
        "case": args.case,
        "certificates": [
            {
                "regime": cert.regime,
                "bound_used": cert.bound_used,
                "claimed_bound": cert.claimed_bound,
                "max_gap": cert.max_gap,
                "grid_points": cert.grid_points,
                "satisfied": cert.satisfied,
            }
            for cert in certificates
        ],
    }
    _emit_json(document, args, _manifest("gaps", args, []))
    return 0 if all(cert.satisfied for cert in certificates) else 3


def cmd_scaling(args: argparse.Namespace) -> int:
    _bind("scaling")
    case = ScenarioCase(args.case)
    lo_s, hi_s = args.exponents.split(":")
    exponents = list(range(int(lo_s), int(hi_s) + 1))
    rate_fn = coupled_capacity_rate_fn(case, coupling=args.coupling, capacity_scale=args.capacity_scale)
    estimate = estimate_prelog(rate_fn, exponents, method=args.method)
    document = {
        "case": args.case,
        "coupling": args.coupling,
        "capacity_scale": args.capacity_scale,
        "method": estimate.method,
        "prelog": estimate.prelog,
        "exponent_grid": list(estimate.exponent_grid),
        "rate_samples": list(estimate.rate_samples),
    }
    _emit_json(document, args, _manifest("scaling", args, []))
    return 0


def _ensure_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        import secrets  # here, off the start-up path of every call
        args.seed = secrets.randbits(63)
    return args.seed


def cmd_simulate(args: argparse.Namespace) -> int:
    _bind("lattice_sim")
    seed = _ensure_seed(args)
    cfg = SimConfig(
        case=args.case,
        p_x=args.px,
        p_j=args.pj,
        c1=args.c1,
        c2=args.c2,
        samples=args.samples,
        seed=seed,
        p_n1=args.pn1,
        p_n2=args.pn2,
        a=args.a,
        b=args.b,
        alpha_override=args.alpha,
        interferer=args.interferer,
    )
    stats = run_lattice_sim(cfg)
    alpha, p_d1, p_d2 = cfg.scheme_parameters()
    document = {
        "config": {k: v for k, v in asdict(cfg).items() if v is not None},
        "scheme": {"alpha": alpha, "p_d1": p_d1, "p_d2": p_d2},
        "stats": asdict(stats),
    }
    _emit_json(document, args, _manifest("simulate", args, [], seed=seed))
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    _bind("lattice_sim")
    seed = _ensure_seed(args)
    cfg = CoverageConfig(
        codebook_rate=args.rate,
        block_length=args.n,
        source_variance=args.source_var,
        test_channel_distortion=args.distortion,
        typicality_epsilon=args.eps,
        trials=args.trials,
        seed=seed,
    )
    result = coverage_experiment(cfg)
    document = {"config": asdict(cfg), "result": asdict(result)}
    _emit_json(document, args, _manifest("cover", args, [], seed=seed))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworelay",
        description="Rate bounds and lattice-scheme analysis of two-relay "
        "reception with an unknown interferer.",
    )
    parser.add_argument("--version", action="version", version=f"tworelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(p, with_c1=True):
        p.add_argument("--px", type=float, required=True, help="transmit power (linear)")
        p.add_argument("--pj", type=float, required=True, help="interferer power (linear)")
        if with_c1:
            p.add_argument("--c1", type=float, help="relay-1 link capacity (bits; 'inf' ok)")
        p.add_argument("--c2", type=float, help="relay-2 link capacity (bits; 'inf' ok)")

    p = sub.add_parser("bounds", help="outer bounds and achievable rates at one point")
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    add_channel_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="rate vs. total link budget, best split per sum")
    p.add_argument("--case", choices=("b", "c"), required=True)
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--pj", type=float, required=True)
    p.add_argument("--sum-range", default="0:28:0.25", help="start:stop:step in bits")
    p.add_argument("--split-samples", type=int, default=1001)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("region", help="(c1,c2) region sustaining a Case C rate")
    p.add_argument("--rate", type=float, required=True, help="target rate (bits/channel use)")
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--pj", type=float, required=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("gaps", help="certify achievable-vs-bound gaps over a power grid")
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    p.add_argument("--grid", default="default",
                   help="'default' or exp_lo:exp_hi:points_per_decade (powers of ten)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("scaling", help="pre-log estimate under a capacity coupling")
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    p.add_argument("--coupling", default="pj=px",
                   help="'pj=px', 'pj=sqrt(px)' or 'pj=<value>'")
    p.add_argument("--exponents", default="10:40", help="log2(p_x) range 'lo:hi'")
    p.add_argument("--capacity-scale", type=float, default=1.0,
                   help="multiply the coupled capacities (0.8 shows necessity)")
    p.add_argument("--method", choices=("finite_difference", "ratio"),
                   default="finite_difference")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("simulate", help="Monte Carlo run of the lattice scheme")
    p.add_argument("--case", choices=("b", "c", "general"), required=True)
    add_channel_flags(p)
    p.add_argument("--pn1", type=float, help="relay-1 noise power (preset default)")
    p.add_argument("--pn2", type=float, help="relay-2 noise power (preset default)")
    p.add_argument("--a", type=float, help="relay-1 gain (general case)")
    p.add_argument("--b", type=float, help="relay-2 gain (general case)")
    p.add_argument("--alpha", type=float, help="override the combiner coefficient")
    p.add_argument("--interferer", choices=("gaussian", "uniform", "bpsk"),
                   default="gaussian")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cover", help="random-codebook joint-typicality coverage")
    p.add_argument("--rate", type=float, required=True, help="codebook rate (bits/symbol)")
    p.add_argument("--n", type=int, default=16, help="block length")
    p.add_argument("--source-var", type=float, default=2.0**0.5 - 1.0)
    p.add_argument("--distortion", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.46, help="typicality tolerance (bits)")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_cover)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"tworelay: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
