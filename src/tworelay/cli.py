"""Command-line front end.

Subcommands map one-to-one onto the library:

* ``bounds``    single-point outer bounds and achievable rates (CSV/JSON)
* ``sweep``     rate versus total link budget with the best split (CSV)
* ``region``    (c1, c2) region sustaining a target Case C rate (CSV/SVG)
* ``gaps``      gap certification over a power grid (JSON, exit 3 on violation)
* ``scaling``   pre-log estimation under a capacity coupling (JSON)
* ``simulate``  Monte Carlo run of the lattice scheme (JSON)
* ``cover``     random-codebook coverage experiment (JSON)

Input is checked by the library entry points, and input outside the model
exits 2.  The grid commands check each input once; ``bounds`` checks its
point in `make_preset`, again in each `achievable_case_*` and
`local_decode_baseline`, in `outer_bounds` and in `best_achievable`, which
infers the case once more (ROADMAP item 2 makes these one check).

A process imports only what its subcommand runs (`_bind`): ``region`` the
channel model alone, ``bounds`` the closed forms, ``scaling`` and the grid
commands `scaling` as well, ``simulate`` and ``cover`` the simulator.  A
single point is evaluated on Python floats, so ``region``, ``bounds``,
``scaling`` (a pre-log ladder, rung by rung) and ``gaps`` on a grid of at
most 4 096 points (the default 41 x 41 among them, point by point) load no
numpy; ``sweep``, ``simulate``, ``cover`` and larger gap grids load it with
their first array.  ``json``, ``csv`` and ``dataclasses.asdict`` are imported
where an output is written with them, so a bare import, ``--help`` and
``--version`` load none of them.

Exit codes: 0 success, 2 invalid usage/parameters, 3 certificate violation.
Deterministic commands are byte-reproducible; stochastic ones are
byte-reproducible given --seed (one is generated and recorded otherwise).
A manifest records the command, parameters, version, seed and outputs.
JSON documents embed it with empty ``outputs``; a file written with --out
gets a ``<name>.manifest.json`` sidecar whose ``outputs`` names the file.
``TWORELAY_OUTDIR`` supplies the directory for relative --out paths.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import os
import sys
from importlib import import_module
from pathlib import Path

from . import _LAZY, __version__


def _bind(*layers: str) -> None:
    """Import each of `layers` and bind its exports (the package's `_LAZY`) in
    this module's namespace, so a process imports only the layers its subcommand runs.

    A name already set here (say, a wrapper that replaced it) is kept, and
    each subcommand looks its names up here at call time, so it calls
    whatever the namespace holds.
    """
    namespace = globals()
    for layer in layers:
        module = import_module(f".{layer}", __package__)
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


def _manifest(args: argparse.Namespace, outputs: list[str]) -> dict:
    return {
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "out") and v is not None},
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
    }


def _emit_text(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        import json  # here, off the start-up path of every call
        try:
            path = _resolve_out(args.out)
            path.write_text(text, encoding="utf-8", newline="")
            sidecar = path.with_name(path.name + ".manifest.json")
            sidecar.write_text(
                json.dumps(_manifest(args, [str(path)]), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(document: dict, args: argparse.Namespace) -> None:
    import json
    document = {"manifest": _manifest(args, []), **document}
    _emit_text(json.dumps(document, indent=2, sort_keys=True) + "\n", args)


def _emit_csv(header: list[str], rows: list[list], schema: str,
              args: argparse.Namespace) -> None:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([*header, "schema"])
    for row in rows:
        writer.writerow([*map(_fmt, row), schema])
    _emit_text(buf.getvalue(), args)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args: argparse.Namespace) -> int:
    _bind("model", "achievable", "bounds")
    case = ScenarioCase(args.case)
    cfg = make_preset(case, args.px, args.pj, c1=args.c1, c2=args.c2)
    point = (args.px, args.pj, args.c1, args.c2)
    if case is ScenarioCase.CASE_A:
        reports = [achievable_case_a(args.px, args.pj, args.c2)]
    elif case is ScenarioCase.CASE_B:
        reports = [achievable_case_b(*point), local_decode_baseline(case, *point)]
    else:
        reports = [achievable_case_c(*point, "prop"), achievable_case_c(*point, "derived"),
                   local_decode_baseline(case, *point)]
    bound = outer_bounds(cfg, case)
    best = best_achievable(cfg)

    if args.format == "json":
        document = {
            "case": args.case,
            "bounds": bound._asdict() | {"terms": dict(bound.terms)},
            "achievable": {rep.scheme.value: rep._asdict() | {"scheme": rep.scheme.value}
                           for rep in reports},
            "best": best._asdict() | {"scheme": best.scheme.value},
        }
        _emit_json(document, args)
        return 0

    rows = [["bound", label, value, None, None, None, None] for label, value in bound.terms]
    rows.append(["bound", "cutset_min", bound.cutset_min, None, None, None, None])
    if bound.modulo_bound is not None:
        rows.append(["bound", "modulo", bound.modulo_bound, None, None, None, None])
    rows.append(["bound", "binding", bound.binding, None, None, None, None])
    for kind, rep in zip(["achievable"] * len(reports) + ["best"], [*reports, best]):
        rows.append([kind, rep.scheme.value, rep.rate, rep.alpha, rep.p_d1, rep.p_d2, rep.p_neq])
    header = ["row_type", "label", "rate_bits", "alpha", "p_d1", "p_d2", "p_neq"]
    _emit_csv(header, rows, "bounds.v1", args)
    return 0


def _split_spec(spec: str, flag: str, form: str, *kinds: type) -> list:
    """The colon-separated fields of `spec`, one finite value of each of `kinds`;
    any other spec is refused as not of `form`."""
    fields = spec.split(":")
    try:
        values = [kind(field) for kind, field in zip(kinds, fields, strict=True)]
        if all(map(math.isfinite, values)):
            return values
    except (ValueError, OverflowError):  # OverflowError: an int past the largest float
        pass
    raise ValueError(f"{flag} must be {form}, got {spec!r}")


def _parse_range(spec: str) -> list[float]:
    if not spec:
        return []
    start, stop, step = _split_spec(spec, "--sum-range", "start:stop:step", float, float, float)
    if step <= 0:
        raise ValueError("range step must be > 0")
    if stop < start:
        return []
    end = stop + step / 2.0
    if math.isinf(end):
        raise ValueError(f"--sum-range stop + step/2 passes the largest float, got {spec!r}")
    count = (stop - start) / step + 1
    import numpy as np  # loaded by the sweep's layers already; a bare CLI import skips it
    try:
        if count > sys.maxsize:  # longer than any numpy array
            raise MemoryError
        return [float(v) for v in np.arange(start, end, step)]
    except MemoryError:
        raise ValueError(f"{count:.0f} sums do not fit in memory") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    _bind("model", "scaling")
    case = ScenarioCase(args.case)
    sums = _parse_range(args.sum_range)
    points = sweep_sum_capacity(case, args.px, args.pj, sums, split_samples=args.split_samples)
    rows = [list(p._replace(winning_scheme=p.winning_scheme.value)) for p in points]
    header = ["sum_capacity", "best_rate", "winning_scheme", "best_c1", "best_c2",
              "cutset", "modulo"]
    _emit_csv(header, rows, "sweep.v1", args)
    return 0


def _region_svg(region) -> str:
    vmax = max(1.0, 1.25 * max(v for vertex in region.vertices for v in vertex))
    pts = [(region.vertices[0][0], vmax), *region.vertices, (vmax, region.vertices[-1][1])]
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
    _bind("model")
    region = required_region_case_c(args.rate, args.px, args.pj)
    if args.format == "svg":
        _emit_text(_region_svg(region), args)
        return 0
    rows = []
    labels = ["P2", "P1"] if len(region.vertices) == 2 else ["P1=P2"]
    for label, (c1, c2) in zip(labels, region.vertices):
        rows.append(["vertex", label, c1, c2, None, None, None])
    for label, coef1, coef2, rhs in region.constraints:
        rows.append(["constraint", label, None, None, coef1, coef2, rhs])
    header = ["row_type", "label", "c1", "c2", "coef_c1", "coef_c2", "rhs"]
    _emit_csv(header, rows, "region.v1", args)
    return 0


def _parse_grid(spec: str) -> tuple[list[float], list[float]] | tuple[None, None]:
    if spec == "default":
        return None, None
    lo, hi, per_decade = _split_spec(spec, "--grid", "exp_lo:exp_hi:points_per_decade",
                                     float, float, int)
    if per_decade < 1 or hi < lo:
        raise ValueError("grid spec must be 'default' or 'exp_lo:exp_hi:points_per_decade'")
    from .scaling import _decade_grid
    values = _decade_grid(lo, hi, per_decade)
    return values, values


def cmd_gaps(args: argparse.Namespace) -> int:
    _bind("model", "scaling")
    case = ScenarioCase(args.case)
    px_grid, pj_grid = _parse_grid(args.grid)
    certificates = certify_gaps(case, px_grid, pj_grid)
    document = {
        "case": args.case,
        "certificates": [{k: v for k, v in cert._asdict().items()
                          if k not in ("case", "worst_point")} | {"satisfied": cert.satisfied}
                         for cert in certificates],
    }
    _emit_json(document, args)
    return 0 if all(cert.satisfied for cert in certificates) else 3


def cmd_scaling(args: argparse.Namespace) -> int:
    _bind("model", "scaling")
    case = ScenarioCase(args.case)
    lo, hi = _split_spec(args.exponents, "--exponents", "lo:hi", int, int)
    if lo < -1074 or hi > 1023:  # p_x = 2**k: 0 below -1074, past the largest float above 1023
        raise ValueError(f"--exponents must lie within -1074:1023, got {args.exponents!r}")
    exponents = list(range(lo, hi + 1))
    rate_fn = coupled_capacity_rate_fn(case, coupling=args.coupling, capacity_scale=args.capacity_scale)
    estimate = estimate_prelog(rate_fn, exponents, method=args.method)
    document = {"case": args.case, "coupling": args.coupling,
                "capacity_scale": args.capacity_scale, **estimate._asdict()}
    _emit_json(document, args)
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
    alpha, p_d1, p_d2, _ = cfg.scheme()
    from dataclasses import asdict  # loaded with the simulator's configs already
    document = {
        "config": {k: v for k, v in asdict(cfg).items() if v is not None},
        "scheme": {"alpha": alpha, "p_d1": p_d1, "p_d2": p_d2},
        "stats": stats._asdict(),
    }
    _emit_json(document, args)
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
    from dataclasses import asdict
    document = {"config": asdict(cfg), "result": result._asdict()}
    _emit_json(document, args)
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

    def add_channel_flags(p):
        p.add_argument("--px", type=float, required=True, help="transmit power (linear)")
        p.add_argument("--pj", type=float, required=True, help="interferer power (linear)")
        p.add_argument("--c1", type=float, help="relay-1 link capacity (bits; 'inf' ok)")
        p.add_argument("--c2", type=float, help="relay-2 link capacity (bits; 'inf' ok)")

    p = sub.add_parser("bounds", help="outer bounds and achievable rates at one point")
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    add_channel_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="rate vs. total link budget, best split per sum")
    p.add_argument("--case", choices=("b", "c"), required=True)
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--pj", type=float, required=True)
    p.add_argument("--sum-range", default="0:28:0.25", help="start:stop:step in bits")
    p.add_argument("--split-samples", type=int, default=1001)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("region", help="(c1,c2) region sustaining a Case C rate")
    p.add_argument("--rate", type=float, required=True, help="target rate (bits/channel use)")
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--pj", type=float, required=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("gaps", help="certify achievable-vs-bound gaps over a power grid")
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    p.add_argument("--grid", default="default",
                   help="'default' (1:9:5: 41 powers of ten per axis over [10, 1e9]) or "
                        "exp_lo:exp_hi:points_per_decade (powers of ten)")
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cover", help="random-codebook joint-typicality coverage")
    p.add_argument("--rate", type=float, required=True, help="codebook rate (bits/symbol)")
    p.add_argument("--n", type=int, default=16, help="block length")
    p.add_argument("--source-var", type=float, default=2.0**0.5 - 1.0)
    p.add_argument("--distortion", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.46, help="typicality tolerance (bits)")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    p.set_defaults(func=cmd_cover)

    for p in sub.choices.values():
        p.add_argument("--out", help="output file (default stdout)")
    return parser


def _join_range_values(argv: list[str]) -> list[str]:
    """argv with a range flag (or its abbreviation) and a value after it that
    starts with '-' and holds a ':' joined as in `--exponents=-5:3`, which
    argparse reads as the flag's value; apart, it takes `-5:3` for an option."""
    joined: list[str] = []
    for token in argv:
        if token[:1] == "-" and ":" in token and joined and len(joined[-1]) > 2 and any(
                flag.startswith(joined[-1]) for flag in ("--sum-range", "--grid", "--exponents")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_range_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.out == "":  # a path of no file; refused before any work
            raise ValueError("--out must name a file, got ''")
        return args.func(args)
    except ValueError as exc:
        print(f"tworelay: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's message names its internals, not the flags
        print(f"tworelay: error: {args.command} does not fit in memory at these parameters",
              file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of `python -m tworelay.cli` and the `tworelay` script:
    `main()`, then `gc.freeze()`, whatever the exit.

    The freeze moves every live object, the numpy and tworelay imports
    included, into the permanent generation, so the interpreter's final
    collections have nothing to scan.  atexit handlers, the stdio flush, the
    thread-pool joins and refcount deallocation still run.  An in-process
    caller of `main()` keeps a working collector.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
