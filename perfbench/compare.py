"""Paired comparison of two sets of benchmark result files.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `perfbench/results/*.json` files of one commit,
run with the same benchmark code and settings.  Runs of the two sides are
paired by workload and seed.  For every workload and end-to-end metric the
helper prints each side's median and quartiles, the change/parent ratio of
the medians, the fraction of pairs the change wins (ties count for
neither) and a verdict:

    gain          the change wins at least 9/10 of the pairs and the
                  medians differ by more than the parent's quartile spread
    regression    the change's median is worse than the parent's by more
                  than the metric's bound in BENCHMARK.json
    unresolved    the parent's own quartile spread is wider than the bound,
                  and not every change run beats every parent run
    no change     none of the above

Traced runs (`--trace 1`) are summarised per layer metric as medians with
their ratio; layer metrics carry no bound and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict[str, float]]]:
    """{(workload, trace): {seed: {metric: value}}} of the non-smoke runs."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("smoke") or "metrics" not in record:
            continue
        seed = record["environment"]["workload_seed"]
        runs[(record["workload"], record["trace"])][seed] = {
            k: m["value"] for k, m in record["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pairs and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "regression"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return "unresolved"
    return "no change"


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> list[str]:
    parent, change = load(parent_dir), load(change_dir)
    lines = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        p_runs, c_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        lines.append(f"## {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
                     f"{len(p_runs.keys() & c_runs.keys())} pairs")
        for spec in benchmark["end_to_end"]:
            name, lower = spec["name"], spec["better"] == "lower"
            pv = [r[name] for r in p_runs.values() if name in r]
            cv = [r[name] for r in c_runs.values() if name in r]
            if not pv or not cv:
                lines.append(f"{name}: no data")
                continue
            seeds = [s for s in p_runs.keys() & c_runs.keys()
                     if name in p_runs[s] and name in c_runs[s]]
            wins = sum(1 for s in seeds
                       if (c_runs[s][name] < p_runs[s][name]) == lower
                       and c_runs[s][name] != p_runs[s][name])
            pq, cq = quartiles(pv), quartiles(cv)
            lines.append(
                f"{name} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']}): "
                f"parent {_fmt(pq)}, change {_fmt(cq)}, "
                f"change/parent {cq[1] / pq[1]:.4f} (base: parent median {pq[1]:.6g}), "
                f"wins {wins}/{len(seeds)}, "
                f"{verdict(pv, cv, wins, len(seeds), spec['bound'], lower)}")
        p_layer, c_layer = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if p_layer and c_layer:
            lines.append(f"### {workload} per layer ({len(p_layer)} parent, "
                         f"{len(c_layer)} change traced runs)")
            for spec in benchmark["per_layer"]:
                name = spec["name"]
                pv = [r[name] for r in p_layer.values() if name in r]
                cv = [r[name] for r in c_layer.values() if name in r]
                if pv and cv:
                    pm, cm = statistics.median(pv), statistics.median(cv)
                    ratio = f"{cm / pm:.4f}" if pm else "n/a"
                    lines.append(f"{name} ({spec['unit']}): parent {pm:.6g}, change {cm:.6g}, "
                                 f"change/parent {ratio}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="result files of the parent commit")
    parser.add_argument("change", type=Path, help="result files of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(args.parent, args.change, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
