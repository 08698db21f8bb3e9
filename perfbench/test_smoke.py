"""Smoke test of the benchmark itself.

Runs each workload once at minimal size, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import Call, check_output  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    for spec in specs:
        value = result["metrics"][spec["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.startswith(f"{workload} {spec['name']} = ")
                   and line.endswith(f" {spec['unit']}") for line in lines[:-1])


def test_refuses_to_run_without_the_program():
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = _run(root, "--workload", "cli_points", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_wrong_outputs():
    header = "row_type,label,rate_bits,alpha,p_d1,p_d2,p_neq,schema\r\n"
    bounds = Call("bounds", ("bounds", "--case", "a", "--format", "csv"))
    ok = header + "bound,binding,2.0,,,,,bounds.v1\r\nbest,case_a_eq,1.5,,,,,bounds.v1\r\n"
    assert check_output(bounds, 0, ok.encode(), None, None) == []
    above = ok.replace("1.5", "2.5")
    assert check_output(bounds, 0, above.encode(), None, None)
    assert check_output(bounds, 0, ok.replace("bounds.v1", "sweep.v1").encode(), None, None)
    assert check_output(bounds, 2, ok.encode(), None, None) == ["exit code 2"]
    gaps = Call("gaps", ("gaps", "--case", "b"))
    cert = {"regime": "standard", "bound_used": "cut-set", "claimed_bound": 1.29,
            "max_gap": 1.3, "grid_points": 10, "satisfied": False}
    doc = {"manifest": {"command": "gaps"}, "case": "b", "certificates": [cert]}
    assert check_output(gaps, 0, json.dumps(doc).encode(), None, None)
