"""The span tracer in `perfbench/tracing.py` finds its patch sites.

The tracer replaces package functions by name at the modules that import
them (`SPANS`), and counts `case_constraints_hold` at the modules in
`COUNTED`.  A deleted or renamed site would otherwise surface only in a
traced benchmark run.  The tracer module is read here, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
