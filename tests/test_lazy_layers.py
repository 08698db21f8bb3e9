"""The grid layer (`scaling`) and the simulator (`lattice_sim`) load on first use.

`import tworelay` and `import tworelay.cli` load neither; the package serves
their exports, and the CLI binds the names its subcommands call, on first
access.  The test session itself imports every module, so the module sets
are checked in fresh interpreters.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tworelay
import tworelay.cli as cli

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("tworelay.lattice_sim", "tworelay.scaling", "numpy.random")

#: Exports that are neither a class nor a function, by defining module.
CONSTANTS = {
    "__version__": "tworelay",
    "INFINITE_CAPACITY": "tworelay.model",
    "MODULO_BOUND_CONSTANT": "tworelay.bounds",
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


@pytest.mark.parametrize("name", tworelay.__all__)
def test_export_is_listed_and_resolves_to_its_definition(name):
    assert name in dir(tworelay)
    namespace = {}
    exec(f"from tworelay import {name}", namespace)
    value = namespace[name]
    home = CONSTANTS.get(name) or value.__module__
    assert value is getattr(importlib.import_module(home), name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tworelay.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    with pytest.raises(ImportError):
        exec("from tworelay import no_such_name", {})


FOOTPRINT = """
    import contextlib, io, json, sys
    import tworelay, tworelay.cli
    listed = set(tworelay.__all__) <= set(dir(tworelay))
    code = 0
    if sys.argv[1:]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tworelay.cli.main(sys.argv[1:])
    watched = {watched}
    print(json.dumps([listed, code, [m for m in watched if m in sys.modules]]))
""".format(watched=WATCHED)

NEITHER = []
SCALING = ["tworelay.scaling"]
SIMULATOR = ["tworelay.lattice_sim", "numpy.random"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param([], NEITHER, id="import"),
        pytest.param(["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1",
                      "--c2", "1"], NEITHER, id="bounds"),
        pytest.param(["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2", "1",
                      "--format", "json"], NEITHER, id="bounds-json"),
        pytest.param(["gaps", "--case", "c", "--grid", "1:2:1"], SCALING, id="gaps"),
        pytest.param(["sweep", "--case", "b", "--px", "10", "--pj", "1",
                      "--sum-range", "0:2:1"], SCALING, id="sweep"),
        pytest.param(["region", "--rate", "1", "--px", "4", "--pj", "2"], SCALING,
                     id="region"),
        pytest.param(["scaling", "--case", "a", "--exponents", "10:12"], SCALING,
                     id="scaling"),
        pytest.param(["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2",
                      "--c2", "1", "--samples", "1000", "--seed", "3"], SIMULATOR,
                     id="simulate"),
        pytest.param(["cover", "--rate", "0.5", "--trials", "4", "--seed", "3"], SIMULATOR,
                     id="cover"),
    ],
)
def test_a_process_imports_only_the_layers_its_subcommand_runs(argv, loaded):
    listed, code, modules = json.loads(_python(FOOTPRINT, *argv).stdout)
    assert listed
    assert code == 0
    assert modules == loaded


PATCHED_RUN = """
    import sys
    import tworelay.cli as cli
    from tworelay import lattice_sim

    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    if sys.argv[1] == "patched":
        # the tracer's way: read the name at the cli, then replace it there
        cli.certify_gaps = recording("certify_gaps", cli.certify_gaps)
        # set before the cli has bound the simulator's names at all
        assert "run_lattice_sim" not in vars(cli)
        cli.run_lattice_sim = recording("run_lattice_sim", lattice_sim.run_lattice_sim)
    for argv in (["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2",
                  "--c2", "1", "--samples", "2000", "--seed", "5"],
                 ["gaps", "--case", "b", "--grid", "1:2:2"],
                 ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2",
                  "--c2", "1", "--samples", "2000", "--seed", "5"]):
        assert cli.main(argv) == 0
    print(calls, file=sys.stderr)
"""


def test_replaced_cli_names_are_the_ones_called():
    plain = _python(PATCHED_RUN, "plain")
    patched = _python(PATCHED_RUN, "patched")
    assert plain.stderr.strip() == "[]"
    assert patched.stderr.strip() == str(["run_lattice_sim", "certify_gaps", "run_lattice_sim"])
    assert patched.stdout == plain.stdout
    assert patched.stdout.count("\n}\n") == 3  # one JSON document per call
