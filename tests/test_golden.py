"""Golden outputs: the exact stdout bytes of every subcommand.

Each call's stdout is compared byte for byte with `tests/golden/<name>`.
A change that alters an output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so (with the bumped schema tag) in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import tworelay.cli as cli

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden file name -> CLI arguments.
CALLS = {
    "bounds_a.csv": ["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2", "1"],
    "bounds_a_c2_inf.csv": ["bounds", "--case", "a", "--px", "1e8", "--pj", "1e4",
                            "--c2", "inf"],
    "bounds_a.json": ["bounds", "--case", "a", "--px", "1e8", "--pj", "1e4", "--c2", "2.5",
                      "--format", "json"],
    "bounds_b.csv": ["bounds", "--case", "b", "--px", "1e2", "--pj", "1", "--c1", "2",
                     "--c2", "1"],
    "bounds_b.json": ["bounds", "--case", "b", "--px", "1e8", "--pj", "1e4", "--c1", "3",
                      "--c2", "2", "--format", "json"],
    "bounds_c.csv": ["bounds", "--case", "c", "--px", "1e8", "--pj", "1e4", "--c1", "3",
                     "--c2", "2"],
    "bounds_c.json": ["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1",
                      "--c2", "1", "--format", "json"],
    "bounds_c_pj0.csv": ["bounds", "--case", "c", "--px", "15", "--pj", "0", "--c1", "inf",
                         "--c2", "inf"],
    "bounds_c_pj_inf.csv": ["bounds", "--case", "c", "--px", "100", "--pj", "inf",
                            "--c1", "1", "--c2", "2"],
    "sweep_b.csv": ["sweep", "--case", "b", "--px", "1e8", "--pj", "1e4",
                    "--sum-range", "0:28:2", "--split-samples", "101"],
    "sweep_c.csv": ["sweep", "--case", "c", "--px", "1e8", "--pj", "1e4",
                    "--sum-range", "0:28:2", "--split-samples", "101"],
    "sweep_c_pj0.csv": ["sweep", "--case", "c", "--px", "1e6", "--pj", "0",
                        "--sum-range", "0:12:3", "--split-samples", "21"],
    "region.csv": ["region", "--rate", "10", "--px", "1048576", "--pj", "1048576"],
    "region_quadrant.csv": ["region", "--rate", "0", "--px", "10", "--pj", "5"],
    "region.svg": ["region", "--rate", "2", "--px", "15", "--pj", "15", "--format", "svg"],
    "gaps_a.json": ["gaps", "--case", "a", "--grid", "1:9:2"],
    "gaps_b.json": ["gaps", "--case", "b", "--grid", "1:9:2"],
    "gaps_c.json": ["gaps", "--case", "c", "--grid", "1:9:2"],
    "scaling_a.json": ["scaling", "--case", "a"],
    "scaling_b.json": ["scaling", "--case", "b", "--coupling", "pj=sqrt(px)",
                       "--method", "ratio"],
    "scaling_c.json": ["scaling", "--case", "c", "--coupling", "pj=1000",
                       "--capacity-scale", "0.8"],
    "simulate_c.json": ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2",
                        "--c2", "1", "--samples", "100000", "--seed", "7",
                        "--interferer", "uniform"],
    # three full batches and a partial one of 17 samples
    "simulate_b.json": ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2",
                        "--c2", "1", "--samples", "196625", "--seed", "11"],
    "simulate_c_bpsk.json": ["simulate", "--case", "c", "--px", "100", "--pj", "30",
                             "--c1", "3", "--c2", "1.5", "--samples", "196625", "--seed", "12",
                             "--interferer", "bpsk"],
    "cover.json": ["cover", "--rate", "0.5", "--trials", "100", "--seed", "3"],
}


def stdout_bytes(argv: list[str]) -> bytes:
    """Exit code 0 and the stdout of one in-process CLI call, as UTF-8 bytes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("TWORELAY_OUTDIR", raising=False)
    assert stdout_bytes(CALLS[name]) == (GOLDEN_DIR / name).read_bytes()


def write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CALLS.items():
        (GOLDEN_DIR / name).write_bytes(stdout_bytes(argv))


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
