"""numpy's ufuncs stand in for libm only where their loops give libm's bits.

`tworelay` asks numpy, before numpy loads, to leave out its AVX-512 loops,
and `model` runs the ufuncs (`model._UFUNC_PATH`) only where
`numpy.lib.introspect.opt_func_info` reports loops whose bits are libm's
(`model._LIBM_TARGETS`); elsewhere `math_map` and `square` call libm per
element.  These tests check that a fresh CLI process takes the path the suite
takes, that each accepted loop equals libm bit for bit at the extremes, for
an array and for the 0-d and one-element input of a per-point call, that
the per-element path writes the golden bytes, and that both paths give inf
where libm overflows, at every input size.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tworelay import model
from tworelay.achievable import lattice_cf_report

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

def _python(code: str, env: dict) -> str:
    """The last stdout line of `code` run in a fresh interpreter."""
    env = {k: v for k, v in env.items() if k != "TWORELAY_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout.splitlines()[-1]


def _without_cpu_features() -> dict:
    return {k: v for k, v in os.environ.items()
            if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}


FRESH_CLI = """
    import json, runpy, sys
    sys.argv = ["tworelay", "bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2", "1"]
    try:
        runpy.run_module("tworelay.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        code = exit.code
    import os
    from numpy.lib.introspect import opt_func_info
    from tworelay import model
    current = {name: opt_func_info()[name][sig]["current"] for name, sig, _ in model._LIBM_TARGETS}
    print(json.dumps([code, os.environ.get("NPY_DISABLE_CPU_FEATURES"), current,
                      model._UFUNC_PATH]))
"""


def test_fresh_cli_takes_the_path_the_suite_takes():
    pytest.importorskip("numpy.lib.introspect")
    code, disabled, current, ufunc_path = json.loads(_python(FRESH_CLI, _without_cpu_features()))
    assert code == 0
    assert disabled == "X86_V4"  # set before the CLI's numpy loaded
    assert model._UFUNC_PATH == ufunc_path
    if not ufunc_path:
        pytest.skip(f"numpy dispatches to loops not verified against libm: {current}")


PER_ELEMENT_GOLDEN = """
    import json
    {preamble}
    import test_golden
    from tworelay import model
    calls, golden = test_golden.CALLS, test_golden.GOLDEN_DIR
    differ = [name for name in sorted(calls)
              if test_golden.stdout_bytes(calls[name]) != (golden / name).read_bytes()]
    print(json.dumps([model._UFUNC_PATH, differ]))
"""


@pytest.mark.parametrize("preset, preamble", [
    pytest.param("", "", id="avx512-kept"),
    pytest.param(None, "import numpy", id="numpy-loaded-first"),
])
def test_per_element_path_writes_the_golden_bytes(preset, preamble):
    env = _without_cpu_features()
    if preset is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = preset
    ufunc_path, differ = json.loads(_python(PER_ELEMENT_GOLDEN.format(preamble=preamble), env))
    assert differ == []
    if ufunc_path:
        pytest.skip("numpy has no AVX-512 loops here, so the ufunc path ran")


def _near(x: float, steps: int = 40) -> list[float]:
    """x and the `steps` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]
SUBNORMAL = [5e-324, -5e-324, 1e-320, 3e-310, -3e-310, 2.225073858507201e-308,
             2.2250738585072014e-308]
LOG_UNIFORM = (10.0 ** np.random.default_rng(5).uniform(-308.0, 308.0, 4000)).tolist()

EXTREMES = {
    math.exp: (_near(709.782712893384) + _near(-745.1332191019411) + _near(-744.4400719213812)
               + _near(-708.3964185322641) + np.linspace(-746.0, -700.0, 2001).tolist()
               + SUBNORMAL + SPECIAL + [-v for v in LOG_UNIFORM[:2000]]),
    math.expm1: (_near(709.782712893384) + _near(-745.1332191019411) + _near(-37.42994775023705)
                 + SUBNORMAL + SPECIAL + np.linspace(-1.0, 1.0, 2001).tolist()),
    math.log1p: (_near(-1.0)[41:] + [-1.0 + 2.0**-k for k in range(1, 53)]
                 + SUBNORMAL + SPECIAL + LOG_UNIFORM),
    math.log2: (_near(1.0) + SUBNORMAL[::2] + SPECIAL[:3] + LOG_UNIFORM),
}
SQUARES = (_near(1.3407807929942596e154) + _near(-1.3407807929942596e154)
           + _near(1.4916681462400413e-154) + _near(2.2227587494850775e-162)
           + _near(1.0) + SUBNORMAL + SPECIAL + LOG_UNIFORM)


def _libm(fn, *args):
    """fn's value, inf where it overflows (as `model.math_map` gives it), None
    where libm reports a domain error that the closed forms never reach."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf
    except ValueError:
        return None


def _assert_libm_bits(name, op, inputs, reference):
    """op's values equal the reference bit for bit, on the inputs as one array
    and on each input alone, as a 0-d and as a one-element array (which can
    take libm per element)."""
    for shape, got in (("array", op(inputs).tolist()),
                       ("0-d", [op(np.float64(x)).item() for x in inputs]),
                       ("1-element", [op([x])[0].item() for x in inputs])):
        mismatches = [(x, g, r) for x, g, r in zip(inputs, got, reference)
                      if r is not None and not (math.isnan(g) and math.isnan(r))
                      and np.float64(g).view(np.uint64) != np.float64(r).view(np.uint64)]
        assert mismatches == [], (name, shape)


@pytest.mark.skipif(not model._UFUNC_PATH, reason="the per-element path calls libm itself")
@pytest.mark.parametrize("fn", list(EXTREMES), ids=lambda fn: fn.__name__)
def test_accepted_loop_equals_libm_at_the_extremes(fn):
    inputs = EXTREMES[fn]
    reference = [_libm(fn, x) for x in inputs]
    assert sum(r is not None for r in reference) > 0.9 * len(inputs)
    _assert_libm_bits(fn.__name__, lambda x: model.math_map(fn, x), inputs, reference)


@pytest.mark.skipif(not model._UFUNC_PATH, reason="the per-element path calls libm itself")
def test_accepted_power_loop_equals_libm_pow_at_the_extremes():
    reference = [_libm(pow, x, 2.0) for x in SQUARES]
    _assert_libm_bits("square", model.square, SQUARES, reference)


def test_every_ufunc_of_the_table_is_checked_at_the_extremes():
    assert set(model._UFUNCS) == set(EXTREMES)


OVERFLOWS = {model.square: [1.3407807929942597e154, 1e200, 1.7e308, -1e300],
             math.expm1: [709.79, 710.0, 1e300], math.exp: [709.79, 710.0, 1e300]}


@pytest.mark.parametrize("ufunc_path", [True, False])
@pytest.mark.parametrize("fn", list(OVERFLOWS), ids=lambda fn: fn.__name__)
def test_overflow_gives_inf_on_both_paths_at_every_size(fn, ufunc_path, monkeypatch):
    # libm raises OverflowError per element where numpy's loops give inf
    monkeypatch.setattr(model, "_UFUNC_PATH", ufunc_path and model._UFUNC_PATH)
    op = fn if fn is model.square else lambda x: model.math_map(fn, x)
    for x in OVERFLOWS[fn]:
        assert op(np.float64(x)).shape == ()
        assert op(np.float64(x)).item() == math.inf
        assert op([x]).tolist() == [math.inf]
        assert op([[2.0, x], [x, 0.5]]).tolist() == [[op(2.0).item(), math.inf],
                                                     [math.inf, op(0.5).item()]]


@pytest.mark.parametrize("size", [1, 2])
def test_domain_errors_raise_per_element(size, monkeypatch):
    # a NaN would hide a defect: the closed forms never hand libm such an input
    monkeypatch.setattr(model, "_UFUNC_PATH", False)
    for fn, x in ((math.log2, -1.0), (math.log1p, -2.0)):
        with pytest.raises(ValueError):
            model.math_map(fn, [1.0, x][-size:])


@pytest.mark.parametrize("ufunc_path", [True, False])
def test_lattice_report_of_an_overflowing_alpha_has_rate_zero(ufunc_path, monkeypatch):
    monkeypatch.setattr(model, "_UFUNC_PATH", ufunc_path and model._UFUNC_PATH)
    report = lattice_cf_report(1.0, 1.0, 1.0, 1e200, 0.0, 0.0, 1.0)
    assert (report.rate, report.p_neq) == (0.0, math.inf)
