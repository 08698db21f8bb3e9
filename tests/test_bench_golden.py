"""The benchmark's own grid and point calls still write the bytes its golden digests record.

`perfbench/workloads.py` builds the `grid_sweeps` calls (two full sum-capacity
sweeps and three `gaps --grid 1:9:20` grids) and the `bounds` and `scaling`
calls of `cli_points`, which evaluate on Python floats, and
`perfbench/golden.json` holds the digest of each call's output at the default seed.  Each call runs here in
a fresh interpreter from a temporary directory, as the benchmark runs it.
The benchmark's files are read, not changed; `digest` restates the one in
`perfbench/run.py`, which is not imported because it edits `sys.path`.
`MOVED` holds the digest of a call whose bytes changed on purpose after
`golden.json` was written; the next rewrite of `golden.json` takes it over.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


def digest(stdout: bytes, out_bytes: bytes | None, sidecar: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (stdout, out_bytes or b"", sidecar or b""):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


workloads = _workloads()
CALLS = workloads.build_calls("grid_sweeps", workloads.DEFAULT_SEED)
POINT_CALLS = [call for call in workloads.build_calls("cli_points", workloads.DEFAULT_SEED)
               if call.name.startswith(("bounds_", "scaling_"))]
DIGESTS = json.loads((PERFBENCH / "golden.json").read_text())
GOLDEN = DIGESTS["grid_sweeps"]
#: `gaps --case c --grid 1:9:20`: its grid lands on the exact decades, and one
#: `max_gap` moved from 2.5458642421089337 to 2.545864242108932.
MOVED = {"gaps_c_grid": "425351bc2c75c9102618a0e21270e1dd691159fc7c524e893bba76c239a0ba1f"}


def test_every_call_has_a_golden_digest():
    assert sorted(call.name for call in CALLS) == sorted(GOLDEN)


@pytest.mark.parametrize("call", CALLS + POINT_CALLS, ids=lambda call: call.name)
def test_output_bytes_match_the_golden_digest(call, tmp_path):
    env = dict(os.environ, TWORELAY_OUTDIR=workloads.OUTDIR,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "tworelay.cli", *call.argv], cwd=tmp_path,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out_bytes = sidecar = None
    if call.out is not None:
        path = tmp_path / workloads.OUTDIR / call.out
        out_bytes = path.read_bytes()
        sidecar = path.with_name(path.name + ".manifest.json").read_bytes()
    expected = GOLDEN.get(call.name) or DIGESTS["cli_points"][call.name]
    assert digest(done.stdout, out_bytes, sidecar) == MOVED.get(call.name, expected)
