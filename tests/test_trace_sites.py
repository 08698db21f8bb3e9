"""The span tracer in `perfbench/tracing.py` finds its patch sites.

The tracer replaces package functions by name at the modules that import
them (`SPANS`), and counts `case_constraints_hold` at the modules in
`COUNTED`.  The runner's crypto probe calls `crypto_lemma_check` with the
keywords of `CRYPTO_PROBE`, and its `centered_mod` span counts the samples.
A deleted or renamed site, or a probe that no longer binds or reaches its
span, would otherwise surface only in a traced benchmark run.  The tracer
module is loaded from its file and the runner's source only parsed; neither
is changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RUN = TRACING.with_name("run.py")


def _patch_sites() -> list[tuple[str, str, str]]:
    """(importing module, function name, defining module) for every site."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(module, *span.split(".", 1)[::-1]) for span, modules, _, _ in tracing.SPANS
             for module in modules]
    return sites + [(module, "case_constraints_hold", "model") for module in tracing.COUNTED]


SITES = _patch_sites()


def test_the_tables_name_25_sites():
    assert len(SITES) == 25


@pytest.mark.parametrize("site, name, layer", SITES, ids=lambda v: v)
def test_site_holds_its_layer_function(site, name, layer):
    function = getattr(importlib.import_module(f"tworelay.{site}"), name, None)
    assert callable(function)
    assert function is getattr(importlib.import_module(f"tworelay.{layer}"), name)


def test_emit_text_takes_text_and_args_first():
    # the tracer labels `_emit_text` spans by its second positional argument
    cli = importlib.import_module("tworelay.cli")
    assert list(inspect.signature(cli._emit_text).parameters)[:2] == ["text", "args"]


def _crypto_probe() -> dict:
    """The runner's `CRYPTO_PROBE`, evaluated from its assignment alone (`10**6` is no
    literal, so `ast.literal_eval` does not take it)."""
    (value,) = [node.value for node in ast.parse(RUN.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["CRYPTO_PROBE"]]
    return eval(compile(ast.Expression(value), str(RUN), "eval"), {"__builtins__": {}})


def test_the_crypto_probe_binds_and_reduces_through_centered_mod(monkeypatch):
    lattice_sim = importlib.import_module("tworelay.lattice_sim")
    probe = _crypto_probe()
    signature = inspect.signature(lattice_sim.crypto_lemma_check)
    assert list(signature.parameters) == ["p_x", "samples", "seed"]
    signature.bind(**probe)
    reduced, centered_mod = [], lattice_sim.centered_mod
    monkeypatch.setattr(lattice_sim, "centered_mod",
                        lambda x, cell: reduced.append(x.size) or centered_mod(x, cell))
    lattice_sim.crypto_lemma_check(**probe)
    assert sum(reduced) == probe["samples"]
