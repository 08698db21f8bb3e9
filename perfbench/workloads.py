"""Workload definitions: seed-drawn CLI calls and the checks on their outputs.

A workload is an ordered list of `tworelay` CLI calls.  Every input is drawn
from the workload seed with `random.Random`, and every stochastic call
(`simulate`, `cover`) gets an explicit `--seed` derived from it, so the same
seed always gives the same argument vectors and the same output bytes.

Each call's output is checked by `check_output`, which returns a list of
problems (empty when the output is correct).  A call fails when its exit
code is wrong or any check fails; failures feed `failed_frac`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

#: Seed at which outputs are compared with the golden digests.
DEFAULT_SEED = 1

#: Directory (relative to a call's working directory) given as TWORELAY_OUTDIR.
OUTDIR = "out"

_REL_TOL = 1e-9
_SVG = "http://www.w3.org/2000/svg"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a stable name, its argv after `tworelay`, and how
    to check it.  `out` is the --out file name, None when writing to stdout."""

    name: str
    argv: tuple[str, ...]
    out: str | None = None


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _num(value: float) -> str:
    return repr(float(value))


def _call(name: str, argv: list[str], out: str | None = None) -> Call:
    if out is not None:
        argv = [*argv, "--out", out]
    return Call(name, tuple(argv), out)


def _cli_points(rng: random.Random, smoke: bool) -> list[Call]:
    calls = []
    for case, fmt, out in (("a", "csv", None), ("b", "json", None),
                           ("c", "csv", "bounds_c.csv"), ("c", "json", "bounds_c.json")):
        px, pj = _log_uniform(rng, 0.0, 9.0), _log_uniform(rng, 0.0, 9.0)
        argv = ["bounds", "--case", case, "--px", _num(px), "--pj", _num(pj),
                "--format", fmt]
        if case != "a":
            argv += ["--c1", _num(rng.uniform(0.5, 12.0))]
        argv += ["--c2", _num(rng.uniform(0.0, 10.0))]
        calls.append(_call(f"bounds_{case}_{fmt}", argv, out))
    for fmt, out in (("csv", None), ("svg", "region.svg")):
        argv = ["region", "--rate", _num(rng.uniform(0.5, 10.0)),
                "--px", _num(_log_uniform(rng, 1.0, 9.0)),
                "--pj", _num(_log_uniform(rng, 0.0, 9.0)), "--format", fmt]
        calls.append(_call(f"region_{fmt}", argv, out))
    for case, out in (("a", None), ("b", "gaps_b.json"), ("c", None)):
        calls.append(_call(f"gaps_{case}_default", ["gaps", "--case", case], out))
    constant = f"pj={_num(_log_uniform(rng, 1.0, 6.0))}"
    for label, coupling, out in (("px", "pj=px", None), ("sqrt", "pj=sqrt(px)", "scaling.json"),
                                 ("const", constant, None)):
        case = rng.choice("abc")
        calls.append(_call(f"scaling_{label}",
                           ["scaling", "--case", case, "--coupling", coupling], out))
    calls.append(_call("simulate_1e5", _simulate_argv(rng, rng.choice("bc"), 10**5, "gaussian"),
                       "simulate.json"))
    calls.append(_call("cover_0.5", ["cover", "--rate", "0.5",
                                     "--seed", str(rng.randrange(1, 2**31))]))
    return calls


def _simulate_argv(rng: random.Random, case: str, samples: int, interferer: str) -> list[str]:
    return ["simulate", "--case", case,
            "--px", _num(rng.uniform(5.0, 50.0)), "--pj", _num(rng.uniform(1.0, 50.0)),
            "--c1", _num(rng.uniform(1.0, 4.0)), "--c2", _num(rng.uniform(0.5, 3.0)),
            "--samples", str(samples), "--interferer", interferer,
            "--seed", str(rng.randrange(1, 2**31))]


def _grid_sweeps(rng: random.Random, smoke: bool) -> list[Call]:
    sweep_size = ["--sum-range", "0:28:4", "--split-samples", "11"] if smoke else []
    grid = "1:9:2" if smoke else "1:9:20"
    calls = []
    for case, out in (("b", None), ("c", "sweep_c.csv")):
        argv = ["sweep", "--case", case, "--px", _num(_log_uniform(rng, 4.0, 9.0)),
                "--pj", _num(_log_uniform(rng, 2.0, 6.0)), *sweep_size]
        calls.append(_call(f"sweep_{case}", argv, out))
    for case, out in (("a", None), ("b", "gaps_b_grid.json"), ("c", None)):
        calls.append(_call(f"gaps_{case}_grid", ["gaps", "--case", case, "--grid", grid], out))
    return calls


def _monte_carlo(rng: random.Random, smoke: bool) -> list[Call]:
    samples = 10**5 if smoke else 10**7
    return [
        _call("simulate_b", _simulate_argv(rng, "b", samples, "gaussian")),
        _call("simulate_c", _simulate_argv(rng, "c", samples, rng.choice(("uniform", "bpsk"))),
              "simulate_c.json"),
        _call("cover_full_chunk", ["cover", "--rate", "0.5" if smoke else "1.0",
                            "--seed", str(rng.randrange(1, 2**31))]),
    ]


_BUILDERS = {"cli_points": _cli_points, "grid_sweeps": _grid_sweeps,
             "monte_carlo": _monte_carlo}

#: Workload names; why each exists is recorded in BENCHMARK.json.
WORKLOADS = tuple(_BUILDERS)


def build_calls(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The workload's calls for this seed; `smoke` shrinks the grid and
    sample sizes for a quick check of the benchmark itself."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), smoke)


# ---------------------------------------------------------------------------
# output checks


def _arg(call: Call, flag: str, default: str | None = None) -> str | None:
    argv = call.argv
    return argv[argv.index(flag) + 1] if flag in argv else default


def _le(value: float, limit: float) -> bool:
    return value <= limit + _REL_TOL * max(1.0, abs(limit))


def _csv_rows(text: str, family: str, problems: list[str]) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if not rows:
        problems.append("empty CSV")
    pattern = re.compile(rf"{family}\.v\d+")
    if any(not pattern.fullmatch(row.get("schema") or "") for row in rows):
        problems.append(f"schema tag is not {family}.v<n>")
    return rows


def _check_bounds(call, text, problems):
    if _arg(call, "--format") == "json":
        doc = json.loads(text)
        best, binding = float(doc["best"]["rate"]), float(doc["bounds"]["binding"])
    else:
        rows = _csv_rows(text, "bounds", problems)
        binding = next(float(r["rate_bits"]) for r in rows
                       if r["row_type"] == "bound" and r["label"] == "binding")
        best = next(float(r["rate_bits"]) for r in rows if r["row_type"] == "best")
    if not _le(best, binding):
        problems.append(f"best rate {best!r} exceeds binding bound {binding!r}")


def _check_region(call, text, problems):
    if _arg(call, "--format") == "svg":
        root = ET.fromstring(text)
        if root.tag != f"{{{_SVG}}}svg" or root.find(f".//{{{_SVG}}}polyline") is None:
            problems.append("not an SVG drawing")
        return
    rows = _csv_rows(text, "region", problems)
    constraints = [(float(r["coef_c1"]), float(r["coef_c2"]), float(r["rhs"]))
                   for r in rows if r["row_type"] == "constraint"]
    vertices = [(float(r["c1"]), float(r["c2"])) for r in rows if r["row_type"] == "vertex"]
    if not constraints or not vertices:
        problems.append("region has no vertices or constraints")
    for c1, c2 in vertices:
        if any(not _le(rhs, k1 * c1 + k2 * c2) for k1, k2, rhs in constraints):
            problems.append(f"vertex ({c1!r}, {c2!r}) violates a constraint")


def _check_gaps(call, text, problems):
    certs = json.loads(text)["certificates"]
    if not certs:
        problems.append("no certificates")
    for cert in certs:
        if not (cert["satisfied"] and cert["grid_points"] > 0
                and _le(float(cert["max_gap"]), float(cert["claimed_bound"]))):
            problems.append(f"certificate {cert['regime']} not satisfied")


def _check_scaling(call, text, problems):
    doc = json.loads(text)
    samples = [float(v) for v in doc["rate_samples"]]
    if not (math.isfinite(float(doc["prelog"])) and len(samples) == 31
            and all(math.isfinite(v) for v in samples)):
        problems.append("pre-log or rate samples not finite")


def _check_simulate(call, text, problems):
    doc = json.loads(text)
    stats = doc["stats"]
    if float(stats["identity_max_residual"]) > 1e-9 * float(stats["cell_length"]):
        problems.append("lattice identity residual above 1e-9 cell lengths")
    emp, ana = float(stats["empirical_var_neq"]), float(stats["analytic_var_neq"])
    if not abs(emp - ana) <= 0.02 * ana:
        problems.append(f"empirical var(n_eq) {emp!r} not within 2 % of {ana!r}")
    if stats["samples"] != int(_arg(call, "--samples")) or stats["seed"] != int(_arg(call, "--seed")):
        problems.append("samples or seed differ from the request")


def _check_cover(call, text, problems):
    result = json.loads(text)["result"]
    rate = float(_arg(call, "--rate"))
    # the rate is at least 0.25 bit above the test channel's mutual information
    # (0.25 bit), where the acceptance suite requires coverage >= 0.9
    if not (0.9 <= result["coverage"] <= 1.0 and result["hits"] <= result["trials"]
            and result["codewords"] == round(2.0 ** (16 * rate))):
        problems.append(f"coverage {result['coverage']!r} out of range")


def _check_sweep(call, text, problems):
    rows = _csv_rows(text, "sweep", problems)
    lo, hi, step = (float(v) for v in _arg(call, "--sum-range", "0:28:0.25").split(":"))
    if len(rows) != int(round((hi - lo) / step)) + 1:
        problems.append(f"{len(rows)} sweep rows")
    for row in rows:
        best, total = float(row["best_rate"]), float(row["sum_capacity"])
        if not _le(best, float(row["cutset"])):
            problems.append(f"best rate above cut-set at sum {total!r}")
        if row["modulo"] and not _le(best, float(row["modulo"])):
            problems.append(f"best rate above modulo bound at sum {total!r}")
        if not _le(abs(float(row["best_c1"]) + float(row["best_c2"]) - total), 0.0):
            problems.append(f"split does not add up to sum {total!r}")


_CHECKS = {"bounds": _check_bounds, "region": _check_region, "gaps": _check_gaps,
           "scaling": _check_scaling, "simulate": _check_simulate, "cover": _check_cover,
           "sweep": _check_sweep}


def check_output(call: Call, exit_code: int, stdout: bytes, out_bytes: bytes | None,
                 sidecar: bytes | None) -> list[str]:
    """Problems with one call's result; empty when it is correct."""
    command = call.argv[0]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems: list[str] = []
    payload = stdout if call.out is None else out_bytes or b""
    try:
        if call.out is not None:
            if stdout:
                problems.append("--out call also wrote to stdout")
            if sidecar is None:
                return problems + ["missing output file or sidecar manifest"]
            manifest = json.loads(sidecar)
            if manifest["command"] != command or manifest["outputs"] != [f"{OUTDIR}/{call.out}"]:
                problems.append("sidecar manifest does not describe the output")
        text = payload.decode("utf-8")
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            schema = doc.get("schema")
            if doc["manifest"]["command"] != command or (
                    schema is not None and not re.fullmatch(rf"{command}\.v\d+", schema)):
                problems.append("JSON manifest or schema tag does not match the command")
        _CHECKS[command](call, text, problems)
    except (ValueError, KeyError, TypeError, StopIteration, ET.ParseError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
