"""Benchmark of the `tworelay` CLI, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli_points --seed 3 --seconds 20 --trace 0

With `--trace 0` a single closed-loop client runs the workload's CLI calls
(see `workloads.py`) as fresh `python -m tworelay.cli` processes, one at a
time.  It runs whole passes over the call list: the first always, another
only while it is expected to end within `--seconds`.  The package is taken
from `src/` of the checkout through PYTHONPATH; nothing is installed.
Every output is checked.

On a shared host, machine speed can drift by tens of percent over tens of
seconds.  So after every call the benchmark runs REFERENCE, a fixed
job that uses no tworelay code, and also reports each call's wall time in
units of the mean of the reference runs just before and after it (unit
`ref`).  A change to tworelay moves these; a slower or faster machine
mostly does not.  The metrics printed:

    wall_s, wall_ref          median over passes of the summed wall time of
                              a pass's calls
    call_p50_s, call_p50_ref  median wall time per call
    call_tail_s, call_tail_ref
                              the highest percentile with at least 10 calls
                              beyond it (the maximum when the run made fewer
                              than 21 calls); the percentile and the call
                              count go into the result file
    setup_s                   median wall time of a fresh interpreter running
                              `import tworelay.cli` (5 timed runs spread over
                              the first pass, after one warm-up)
    peak_rss_mb               largest ru_maxrss of any CLI child, from os.wait4
    reference_s               median wall time of the reference job
    failed_frac               failed calls over attempted calls (not in
                              BENCHMARK.json, since it is 0 on a correct
                              program; the result line carries `failed`)

With `--trace 1` the calls run in this process through `tworelay.cli.main`.
One untraced pass at the default seed gives the outputs compared with
`golden.json`.  Then, by the same rule for `--seconds`, passes at `--seed`
run each call untraced and traced back to back, in alternating order; the
traced calls give the per-layer metrics, and the median over calls of the
traced over the untraced time, minus 1, gives `trace.overhead_frac`.  Small probe calls fill any per-layer
metric the workload does not exercise.  `python -X importtime` gives the
import layer.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full record (every call,
the environment, golden mismatches) goes to `perfbench/results/`.

`python3 perfbench/run.py --write-golden` rewrites `golden.json` from the
outputs at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, OUTDIR, WORKLOADS, Call, build_calls, check_output  # noqa: E402

#: Per-call time limit, so a run ends well within three minutes.
CALL_TIMEOUT_S = 150.0
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
#: A fixed job that uses no tworelay code: interpreter start, numpy import, a
#: pure-Python loop and array work, like the three workloads.  Timed in the
#: same run as the calls, it tracks how fast the host is running.
REFERENCE = (
    "import numpy as np\n"
    "s = 0\n"
    "for i in range(10**6):\n"
    "    s += i * i % 7\n"
    "np.sort(np.random.default_rng(1).standard_normal(4 * 10**6))\n"
)

#: Units of the untraced metrics that BENCHMARK.json does not list: the raw
#: seconds behind the *_ref metrics, and the reference job's own time.
E2E_EXTRA_UNITS = {"wall_s": "s", "call_p50_s": "s", "call_tail_s": "s", "reference_s": "s"}

#: Per-layer metric: (end-to-end metric it should move, workload it moves it on).
LAYER_MOVES = {
    "import.total_s": ("setup_s, call_p50_ref", "cli_points"),
    "import.scipy_s": ("setup_s, call_p50_ref", "cli_points"),
    "import.numpy_s": ("setup_s, call_p50_ref", "cli_points"),
    "model.make_preset_us": ("wall_ref", "grid_sweeps"),
    "model.constraint_checks_per_config": ("wall_ref", "grid_sweeps"),
    "model.self_s": ("wall_ref", "grid_sweeps"),
    "achievable.best_us.a": ("wall_ref", "grid_sweeps"),
    "achievable.best_us.b": ("wall_ref", "grid_sweeps"),
    "achievable.best_us.c": ("wall_ref", "grid_sweeps"),
    "achievable.self_s": ("wall_ref", "grid_sweeps"),
    "bounds.outer_us.a": ("wall_ref", "grid_sweeps"),
    "bounds.outer_us.b": ("wall_ref", "grid_sweeps"),
    "bounds.outer_us.c": ("wall_ref", "grid_sweeps"),
    "bounds.self_s": ("wall_ref", "grid_sweeps"),
    "scaling.sweep_configs_per_s.b": ("wall_ref", "grid_sweeps"),
    "scaling.sweep_configs_per_s.c": ("wall_ref", "grid_sweeps"),
    "scaling.sweep_self_s": ("wall_ref", "grid_sweeps"),
    "scaling.gaps_points_per_s": ("wall_ref", "grid_sweeps"),
    "scaling.prelog_s": ("call_p50_ref", "cli_points"),
    "scaling.self_s": ("wall_ref", "grid_sweeps"),
    "lattice_sim.sim_samples_per_s": ("wall_ref", "monte_carlo"),
    "lattice_sim.crypto_samples_per_s": ("none: crypto_lemma_check has no CLI path", "all"),
    "lattice_sim.centered_mod_samples_per_s": ("wall_ref", "monte_carlo"),
    "lattice_sim.cover_trials_per_s": ("wall_ref", "monte_carlo"),
    "lattice_sim.cover_hit_frac": ("wall_ref", "monte_carlo"),
    "lattice_sim.self_s": ("wall_ref", "monte_carlo"),
    "cli.main_overhead_us": ("call_p50_ref", "cli_points"),
    "cli.emit_out_us": ("call_p50_ref", "cli_points"),
    "cli.golden_mismatch": ("none: counts calls whose output bytes changed", "all"),
    "cli.self_s": ("call_p50_ref", "cli_points"),
    "trace.overhead_frac": ("none: the cost of tracing itself", "all"),
}

#: Every traced run reports every per-layer metric.  Small calls fill those a
#: workload does not exercise; the result file lists them under `from_probe`,
#: and only the workload named in LAYER_MOVES gives a metric its meaning:
#: (argv after `tworelay`, --out file, metrics it provides).
PROBES = (
    (("sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:28:2",
      "--split-samples", "101"), None,
     {"scaling.sweep_configs_per_s.b", "scaling.sweep_self_s"}),
    (("sweep", "--case", "c", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:28:2",
      "--split-samples", "101"), None, {"scaling.sweep_configs_per_s.c"}),
    (("gaps", "--case", "a"), None,
     {"scaling.gaps_points_per_s", "model.constraint_checks_per_config",
      "model.make_preset_us", "achievable.best_us.a", "bounds.outer_us.a"}),
    (("bounds", "--case", "b", "--px", "1e6", "--pj", "1e3", "--c1", "5", "--c2", "4"), None,
     {"achievable.best_us.b", "bounds.outer_us.b"}),
    (("bounds", "--case", "c", "--px", "1e6", "--pj", "1e3", "--c1", "5", "--c2", "4"),
     "probe_bounds_c.csv", {"achievable.best_us.c", "bounds.outer_us.c", "cli.emit_out_us"}),
    (("scaling", "--case", "c"), None, {"scaling.prelog_s"}),
    (("simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1",
      "--samples", "200000", "--seed", "1"), None,
     {"lattice_sim.sim_samples_per_s", "lattice_sim.centered_mod_samples_per_s"}),
    (("cover", "--rate", "0.5", "--seed", "1"), None,
     {"lattice_sim.cover_trials_per_s", "lattice_sim.cover_hit_frac"}),
)
CRYPTO_PROBE = {"p_x": 15.0, "samples": 10**6, "seed": 1}


def _environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (the benchmark does not
    look outside its checkout); None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TWORELAY_OUTDIR"] = OUTDIR
    return env


def _spawn(argv: list[str], cwd: Path, env: dict) -> tuple[int, float, float, bytes]:
    """Run one child to completion: (exit code, wall s, ru_maxrss MB, stdout)."""
    stdout_path = cwd / "stdout.bin"
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout_path.read_bytes()


def _read_outputs(call: Call, cwd: Path) -> tuple[bytes | None, bytes | None]:
    if call.out is None:
        return None, None
    path = cwd / OUTDIR / call.out
    sidecar = path.with_name(path.name + ".manifest.json")
    if not (path.is_file() and sidecar.is_file()):
        return None, None
    return path.read_bytes(), sidecar.read_bytes()


def _clear_outputs(cwd: Path) -> None:
    shutil.rmtree(cwd / OUTDIR, ignore_errors=True)


def digest(stdout: bytes, out_bytes: bytes | None, sidecar: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (stdout, out_bytes or b"", sidecar or b""):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _load_golden() -> dict:
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _golden_mismatches(workload: str, digests: dict[str, str]) -> list[str]:
    expected = _load_golden().get(workload, {})
    return sorted(name for name, value in digests.items() if expected.get(name) != value)


def _another_pass(start: float, elapsed: list[float], seconds: float) -> bool:
    """Whole passes only, so every run has the same mix of calls: the first
    always, another only if it is expected to end within `seconds`, judged by
    the elapsed time of the last pass (reference runs and checks included)."""
    return not elapsed or time.perf_counter() - start + elapsed[-1] <= seconds


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls
    beyond it, or of the maximum when there are too few calls for one above
    the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------
# untraced end-to-end run


def _child_wall(argv: list[str], work: Path, env: dict) -> float:
    code, wall, _, _ = _spawn(argv, work, env)
    if code != 0:
        raise RuntimeError(f"{argv[1:]} failed")
    return wall


def _spread(runs: int, calls: int) -> list[int]:
    """Indices of the calls before which `runs` samples are taken, spread
    over the pass so that they see the same machine load as the calls."""
    return [round(j * calls / runs) for j in range(runs)]


def run_e2e(workload: str, seed: int, seconds: float, smoke: bool, work: Path) -> dict:
    env = _child_env()
    calls = build_calls(workload, seed, smoke)
    setup_argv = [sys.executable, "-c", "import tworelay.cli"]
    reference_argv = [sys.executable, "-c", REFERENCE]
    setup_before = _spread(1 if smoke else SETUP_RUNS, len(calls))
    _child_wall(setup_argv, work, env)  # warm-up, untimed
    setup: list[float] = []
    reference = [_child_wall(reference_argv, work, env)]
    records = []
    digests: dict[str, str] = {}
    passes: list[float] = []
    passes_ref: list[float] = []
    elapsed: list[float] = []
    start = time.perf_counter()
    while _another_pass(start, elapsed, seconds):
        pass_start = time.perf_counter()
        pass_wall = pass_ref = 0.0
        for index, call in enumerate(calls):
            if not passes:
                setup += [_child_wall(setup_argv, work, env)
                          for _ in range(setup_before.count(index))]
            _clear_outputs(work)
            code, wall, rss, stdout = _spawn(
                [sys.executable, "-m", "tworelay.cli", *call.argv], work, env)
            reference.append(_child_wall(reference_argv, work, env))
            # the call in units of the reference job run just before and after it
            wall_ref = wall / (0.5 * (reference[-2] + reference[-1]))
            out_bytes, sidecar = _read_outputs(call, work)
            problems = check_output(call, code, stdout, out_bytes, sidecar)
            if not passes:
                digests[call.name] = digest(stdout, out_bytes, sidecar)
            records.append({"call": call.name, "wall_s": wall, "wall_ref": wall_ref,
                            "rss_mb": rss, "exit_code": code, "problems": problems})
            pass_wall += wall
            pass_ref += wall_ref
        passes.append(pass_wall)
        passes_ref.append(pass_ref)
        elapsed.append(time.perf_counter() - pass_start)
    failed = sum(1 for r in records if r["problems"])
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": max(r["rss_mb"] for r in records),
               "reference_s": statistics.median(reference)}
    for unit, pass_walls in (("s", passes), ("ref", passes_ref)):
        walls = [r[f"wall_{unit}"] for r in records]
        tail, tail_pct = _tail(walls)
        metrics.update({f"wall_{unit}": statistics.median(pass_walls),
                        f"call_p50_{unit}": statistics.median(walls),
                        f"call_tail_{unit}": tail})
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "call_tail": {"percentile": tail_pct, "samples": len(records)},
        "setup_samples_s": setup,
        "reference_samples_s": reference,
        "golden_mismatch": (_golden_mismatches(workload, digests)
                            if seed == DEFAULT_SEED and not smoke else None),
        "calls": records,
        "argv": {c.name: list(c.argv) for c in calls},
    }


# ---------------------------------------------------------------------------
# traced in-process run


def import_times(work: Path, env: dict) -> dict[str, float]:
    """import.* metrics from `python -X importtime -c "import tworelay.cli"`:
    the cumulative time of the top-level tworelay imports, and of the
    outermost numpy and scipy modules within them."""
    argv = [sys.executable, "-X", "importtime", "-c", "import tworelay.cli"]
    samples: dict[str, list[float]] = {"import.total_s": [], "import.scipy_s": [],
                                       "import.numpy_s": []}
    for _ in range(IMPORTTIME_RUNS):
        code, _, _, _ = _spawn(argv, work, env)
        if code != 0:
            raise RuntimeError("import tworelay.cli failed")
        entries = []
        for line in (work / "stderr.txt").read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
            if m:
                entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
        totals = dict.fromkeys(samples, 0.0)
        ancestors: list[tuple[int, str]] = []
        # importtime prints children before their parent; reversed, every
        # entry follows its ancestors
        for depth, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            top = name.split(".")[0]
            if depth == 0 and top == "tworelay":
                totals["import.total_s"] += cumulative
            if top in ("numpy", "scipy") and all(a[1].split(".")[0] != top for a in ancestors):
                totals[f"import.{top}_s"] += cumulative
            ancestors.append((depth, name))
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def _run_in_process(call: Call, work: Path, main) -> tuple[int, float, bytes, bytes | None,
                                                             bytes | None]:
    _clear_outputs(work)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    return (code, wall, buf.getvalue().encode("utf-8"), *_read_outputs(call, work))


def run_traced(workload: str, seed: int, seconds: float, smoke: bool, work: Path) -> dict:
    env = _child_env()
    metrics = import_times(work, env)
    os.environ["TWORELAY_OUTDIR"] = OUTDIR
    sys.path.insert(0, str(SRC))
    import tworelay.cli
    import tworelay.lattice_sim
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", tworelay.cli.main)
    calls = build_calls(workload, seed, smoke)
    records = []
    overheads = []
    old_cwd = os.getcwd()
    os.chdir(work)
    try:
        # untraced outputs at the default seed, for the golden digests; this
        # pass also pays the in-process first-call costs before any timing
        digests = {}
        for call in build_calls(workload, DEFAULT_SEED, smoke):
            code, _, stdout, out_bytes, sidecar = _run_in_process(call, work, tworelay.cli.main)
            digests[call.name] = digest(stdout, out_bytes, sidecar)
            records.append({"call": call.name, "traced": False, "golden": True,
                            "problems": check_output(call, code, stdout, out_bytes, sidecar)})
        golden = [] if smoke else _golden_mismatches(workload, digests)
        # each call at --seed runs untraced and traced back to back, the order
        # alternating from call to call, so both see the same inputs and load
        start = time.perf_counter()
        elapsed: list[float] = []
        while _another_pass(start, elapsed, seconds):
            pass_start = time.perf_counter()
            for index, call in enumerate(calls):
                traced_first = (seed + len(elapsed) + index) % 2 == 0
                walls = {}
                for traced in (traced_first, not traced_first):
                    with tracer.patch() if traced else contextlib.nullcontext():
                        code, wall, stdout, out_bytes, sidecar = _run_in_process(
                            call, work, traced_main if traced else tworelay.cli.main)
                    walls[traced] = wall
                    records.append({"call": call.name, "traced": traced, "wall_s": wall,
                                    "problems": check_output(call, code, stdout, out_bytes,
                                                             sidecar)})
                overheads.append(walls[True] / walls[False] - 1.0)
            elapsed.append(time.perf_counter() - pass_start)
        workload_spans = len(tracer)
        metrics.update(layer_metrics(tracer, 0, workload_spans, len(elapsed)))
        probe_metrics = {}
        with tracer.patch():
            for argv, out, provides in PROBES:
                if not provides <= metrics.keys() | probe_metrics.keys():
                    probe = Call("probe_" + argv[0], argv + (("--out", out) if out else ()), out)
                    code, _, stdout, out_bytes, sidecar = _run_in_process(probe, work, traced_main)
                    records.append({"call": probe.name, "traced": True, "probe": True,
                                    "problems": check_output(probe, code, stdout, out_bytes,
                                                             sidecar)})
                    probe_metrics = layer_metrics(tracer, workload_spans, len(tracer))
            crypto = tracer.wrap("lattice_sim.crypto_lemma_check",
                                 tworelay.lattice_sim.crypto_lemma_check,
                                 work=lambda result, **kw: kw["samples"])
            crypto(**CRYPTO_PROBE)
        probe_metrics = layer_metrics(tracer, workload_spans, len(tracer))
        from_probe = sorted(probe_metrics.keys() - metrics.keys())
        for key in from_probe:
            metrics[key] = probe_metrics[key]
        tracer.save(work / "spans.npz")
    finally:
        os.chdir(old_cwd)
    metrics["cli.golden_mismatch"] = float(len(golden))
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    failed = sum(1 for r in records if r["problems"])
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "golden_mismatch": golden,
        "trace_overhead_samples": overheads,
        "from_probe": from_probe,
        "calls": records,
    }


# ---------------------------------------------------------------------------


def write_golden(work: Path) -> None:
    env = _child_env()
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for call in build_calls(workload, DEFAULT_SEED):
            _clear_outputs(work)
            code, _, _, stdout = _spawn([sys.executable, "-m", "tworelay.cli", *call.argv],
                                        work, env)
            out_bytes, sidecar = _read_outputs(call, work)
            problems = check_output(call, code, stdout, out_bytes, sidecar)
            if problems:
                raise RuntimeError(f"{workload}/{call.name}: {problems}")
            golden[workload][call.name] = digest(stdout, out_bytes, sidecar)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    # a terminated benchmark still stops its child and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes, to check the benchmark itself")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden.json from the outputs at the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "tworelay" / "cli.py").is_file():
        print(f"perfbench: no tworelay sources under {SRC}", file=sys.stderr)
        return 2
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / "_work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        run = run_traced if args.trace else run_e2e
        result = run(args.workload, args.seed, args.seconds, args.smoke, work)
        if args.trace:
            shutil.copy(work / "spans.npz", results / f"{stem}.spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in specs}
    units = {m["name"]: m["unit"] for m in specs} | E2E_EXTRA_UNITS
    why = next(w["why"] for w in benchmark["workloads"] if w["name"] == args.workload)
    record = {"workload": args.workload, "why": why, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "environment": _environment(args.seed), **result,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}
    if args.trace:
        record["layer_moves"] = {k: {"moves": m, "on": w} for k, (m, w) in LAYER_MOVES.items()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in result["metrics"].items():
        print(f"{args.workload} {key} = {value!r} {units[key]}")
    print(f"{args.workload} failed_frac = {result['failed_frac']!r} "
          f"({result['failed']}/{result['attempted']} calls)")
    if "call_tail" in result:
        tail = result["call_tail"]
        print(f"{args.workload} call_tail_s is p{tail['percentile']:.1f} "
              f"of {tail['samples']} calls")
    if result.get("golden_mismatch"):
        print(f"{args.workload} golden mismatches: {', '.join(result['golden_mismatch'])}")
    for r in result["calls"]:
        if r["problems"]:
            print(f"{args.workload} FAILED {r['call']}: {'; '.join(r['problems'])}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
