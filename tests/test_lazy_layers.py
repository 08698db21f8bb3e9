"""Every layer loads on first use.

`import tworelay` and `import tworelay.cli` load no layer and no numpy, nor
do `--help`, `--version` or a usage error; each subcommand loads only the
layers it runs.  `model` and `libm` (the channel model and the Case C
region, all that `region` runs), `achievable`, `bounds` and `scaling` load no
numpy: `bounds` and `scaling` evaluate their points on Python floats, and only
the grid commands and the simulator load numpy.  The CLI imports `json`, `csv` and
`dataclasses` only for an output it writes with them.  The package serves
every export, and the CLI binds the names its subcommands call, on first
access.  Each layer defines as few dataclasses as it can, since a process
compiles their generated methods on import.  The test session itself imports every module, so the
module sets and the dataclasses are checked in fresh interpreters.
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
WATCHED = ("numpy", "tworelay.model", "tworelay.libm", "tworelay.achievable", "tworelay.bounds",
           "tworelay.scaling", "tworelay.lattice_sim", "numpy.random", "json", "csv",
           "dataclasses")

#: Exports that are neither a class nor a function, by defining module.
CONSTANTS = {
    "__version__": "tworelay",
    "INFINITE_CAPACITY": "tworelay.model",
    "MODULO_BOUND_CONSTANT": "tworelay.bounds",
}


def _python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TWORELAY_OUTDIR", None)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120, check=True)


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
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("tworelay.libm").no_such_name
    with pytest.raises(ImportError):
        exec("from tworelay import no_such_name", {})


@pytest.mark.parametrize("layer", tworelay._LAZY)
def test_a_layer_name_gives_the_layer(layer):
    # once imported, a layer is an attribute of the package; ask the hook itself
    assert tworelay.__getattr__(layer) is importlib.import_module(f"tworelay.{layer}")


def test_a_lazy_cli_name_is_bound_on_first_access(monkeypatch):
    monkeypatch.delitem(vars(cli), "certify_gaps", raising=False)
    value = cli.__getattr__("certify_gaps")
    assert value is importlib.import_module("tworelay.scaling").certify_gaps
    assert vars(cli)["certify_gaps"] is value


BARE_IMPORT = """
    import json, sys
    import tworelay
    loaded = [m for m in sys.modules if m == "numpy" or m.startswith("tworelay.")]
    layers = [getattr(tworelay, layer) is sys.modules[f"tworelay.{layer}"]
              for layer in ("model", "achievable", "bounds")]
    print(json.dumps([loaded, layers]))
"""


def test_a_bare_import_loads_no_layer_and_no_numpy():
    loaded, layers = json.loads(_python(BARE_IMPORT).stdout)
    assert loaded == []
    assert layers == [True, True, True]


#: `json` is imported only once the watched modules are listed.
FOOTPRINT = """
    import contextlib, io, sys
    import tworelay, tworelay.cli
    listed = set(tworelay.__all__) <= set(dir(tworelay))
    code = 0
    if sys.argv[1:]:
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            try:
                code = tworelay.cli.main(sys.argv[1:])
            except SystemExit as exc:  # --help, --version and usage errors
                code = exc.code
    loaded = [m for m in {watched} if m in sys.modules]
    import json
    print(json.dumps([listed, code, loaded]))
""".format(watched=WATCHED)

NONE = []
MODEL = ["tworelay.model", "tworelay.libm"]
CLOSED_FORMS = [*MODEL, "tworelay.achievable", "tworelay.bounds"]
SCALING = [*CLOSED_FORMS, "tworelay.scaling"]
GRIDS = ["numpy", *SCALING]
SIMULATOR = ["numpy", *MODEL, "tworelay.achievable", "tworelay.lattice_sim", "numpy.random"]
#: What an output is written with (a file's sidecar is JSON), and the dataclasses
#: of `model`'s config.
JSON, CSV = ["json", "dataclasses"], ["csv", "dataclasses"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param([], NONE, id="import"),
        pytest.param(["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1",
                      "--c2", "1"], CLOSED_FORMS + CSV, id="bounds"),
        pytest.param(["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2", "1",
                      "--format", "json"], CLOSED_FORMS + JSON, id="bounds-json"),
        pytest.param(["gaps", "--case", "c", "--grid", "1:2:1"], SCALING + JSON, id="gaps"),
        pytest.param(["gaps", "--case", "a", "--grid", "1:9:20"], GRIDS + JSON,
                     id="gaps-tiles"),
        pytest.param(["sweep", "--case", "b", "--px", "10", "--pj", "1",
                      "--sum-range", "0:2:1"], GRIDS + CSV, id="sweep"),
        pytest.param(["region", "--rate", "1", "--px", "4", "--pj", "2"], MODEL + CSV,
                     id="region"),
        pytest.param(["region", "--rate", "1", "--px", "4", "--pj", "2", "--format", "svg",
                      "--out", "region.svg"], MODEL + JSON, id="region-svg-out"),
        pytest.param(["scaling", "--case", "a", "--exponents", "10:12"], SCALING + JSON,
                     id="scaling"),
        pytest.param(["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2",
                      "--c2", "1", "--samples", "1000", "--seed", "3"], SIMULATOR + JSON,
                     id="simulate"),
        pytest.param(["cover", "--rate", "0.5", "--trials", "4", "--seed", "3"],
                     SIMULATOR + JSON, id="cover"),
    ],
)
def test_a_process_imports_only_the_layers_its_subcommand_runs(argv, loaded, tmp_path):
    listed, code, modules = json.loads(_python(FOOTPRINT, *argv, cwd=tmp_path).stdout)
    assert listed
    assert code == 0
    assert modules == loaded


MODEL_ALONE = """
    import sys
    {statement}
    loaded = [m for m in {watched} if m in sys.modules]
    import json
    print(json.dumps(loaded))
"""


@pytest.mark.parametrize("statement", [
    "import tworelay.model",
    "from tworelay import gaussian_mi, make_preset, required_region_case_c",
])
def test_the_channel_model_and_its_region_load_no_numpy(statement):
    code = MODEL_ALONE.format(statement=statement, watched=WATCHED)
    assert json.loads(_python(code).stdout) == [*MODEL, "dataclasses"]


CORE_ALONE = """
    import sys
    import tworelay.achievable, tworelay.bounds, tworelay.scaling
    loaded = [m for m in {watched} if m in sys.modules]
    import json
    import numpy as np
    from tworelay.achievable import best_rate
    from tworelay.model import ScenarioCase
    with np.errstate(all="ignore"):
        rate, wins = best_rate(ScenarioCase.CASE_C, np.array([15.0, 1e8]),
                               np.array([15.0, 1e4]), np.array([1.0, 3.0]), np.array([1.0, 2.0]))
    print(json.dumps([loaded, rate.tolist(), wins.tolist()]))
"""


def test_the_closed_forms_load_no_numpy_and_their_array_entries_load_it():
    loaded, rate, wins = json.loads(_python(CORE_ALONE.format(watched=WATCHED)).stdout)
    assert loaded == SCALING + ["dataclasses"]
    # the `best` rows of tests/golden/bounds_c.json and bounds_c.csv: local decoding
    assert rate == [0.4770981551934376, 5.0]
    assert wins == [True, True]


DEMO_WITHOUT_NUMPY = """
    import sys
    sys.modules["numpy"] = None  # `import numpy` raises ImportError
    from tworelay.scaling import cutset_looseness_demo
    print(*(estimate.prelog.hex() for estimate in cutset_looseness_demo()))
"""


def test_the_looseness_demo_runs_without_numpy():
    # its ladders run rung by rung on Python floats: the cut-set pre-log, then the modulo one
    prelogs = _python(DEMO_WITHOUT_NUMPY).stdout.split()
    assert prelogs == ["0x1.0000000000000p-1", "0x1.7ffff6704ca40p-2"]


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["--version"], 0), (["bounds", "--case", "z"], 2)],
    ids=["help", "version", "usage-error"],
)
def test_a_process_that_runs_no_subcommand_loads_no_layer_and_no_numpy(argv, code):
    listed, exit_code, modules = json.loads(_python(FOOTPRINT, *argv).stdout)
    assert listed
    assert exit_code == code
    assert modules == NONE


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


DATACLASSES = """
    import dataclasses, importlib, json, sys
    import tworelay.cli

    def defined():
        return sorted(name for module in list(sys.modules) if module.startswith("tworelay")
                      for name, value in vars(sys.modules[module]).items()
                      if isinstance(value, type) and value.__module__ == module
                      and dataclasses.is_dataclass(value))

    steps = [defined()]
    for layer in ("scaling", "lattice_sim"):
        importlib.import_module(f"tworelay.{layer}")
        steps.append(defined())
    print(json.dumps(steps))
"""


def test_only_the_three_configs_are_dataclasses():
    # dataclass() compiles its generated methods in every process, with or
    # without a bytecode cache; the result records are NamedTuples
    steps = json.loads(_python(DATACLASSES).stdout)
    assert steps == [[], ["ChannelConfig"], ["ChannelConfig", "CoverageConfig", "SimConfig"]]
