"""numpy's ufuncs stand in for libm only where their loops give libm's bits.

`tworelay` asks numpy, before numpy loads, to leave out its AVX-512 loops,
and `libm` runs the ufuncs (`libm._UFUNC_PATH`) only where
`numpy.lib.introspect.opt_func_info` reports loops whose bits are libm's
(`libm._LIBM_TARGETS`); elsewhere `math_map` and `square` call libm per
element.  These tests check that a fresh CLI process that loads numpy takes
the path the suite takes, that each accepted loop equals libm bit for bit at
the extremes, for an array and for 0-d and one-element inputs, that
the per-element path writes the golden bytes, that the ufunc path never
calls libm per element, and that both paths give inf where libm overflows
and raise libm's ValueError where it reports a domain error, at every input
size.
"""

import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tworelay import libm
from tworelay.achievable import _clamped_rate, equivalent_noise_power

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
    sys.argv = ["tworelay", "gaps", "--case", "a", "--grid", "1:2:1"]
    try:
        runpy.run_module("tworelay.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        code = exit.code
    import os
    from numpy.lib.introspect import opt_func_info
    from tworelay import libm
    current = {name: opt_func_info()[name][sig]["current"] for name, sig, _ in libm._LIBM_TARGETS}
    print(json.dumps([code, os.environ.get("NPY_DISABLE_CPU_FEATURES"), current,
                      libm._UFUNC_PATH]))
"""


def test_fresh_cli_takes_the_path_the_suite_takes():
    code, disabled, current, ufunc_path = json.loads(_python(FRESH_CLI, _without_cpu_features()))
    assert code == 0
    assert disabled == "X86_V4"  # set before the CLI's numpy loaded
    assert libm._UFUNC_PATH == ufunc_path
    if not ufunc_path:
        pytest.skip(f"numpy dispatches to loops not verified against libm: {current}")


PER_ELEMENT_GOLDEN = """
    import json
    {preamble}
    import test_golden
    from tworelay import libm
    calls, golden = test_golden.CALLS, test_golden.GOLDEN_DIR
    differ = [name for name in sorted(calls)
              if test_golden.stdout_bytes(calls[name]) != (golden / name).read_bytes()]
    print(json.dumps([libm._UFUNC_PATH, differ]))
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
    math.log1p: (_near(-1.0) + [-1.0 + 2.0**-k for k in range(1, 53)]
                 + SUBNORMAL + SPECIAL + LOG_UNIFORM),
    math.log2: (_near(1.0) + SUBNORMAL + SPECIAL + LOG_UNIFORM),
}
SQUARES = (_near(1.3407807929942596e154) + _near(-1.3407807929942596e154)
           + _near(1.4916681462400413e-154) + _near(2.2227587494850775e-162)
           + _near(1.0) + SUBNORMAL + SPECIAL + LOG_UNIFORM)


def _libm(fn, *args):
    """fn's value, inf where it overflows (as `libm.math_map` gives it), or
    the text of the ValueError libm raises at a domain error."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf
    except ValueError as error:
        return str(error)


def _key(value):
    """A float's 8 bytes, every NaN alike; a domain error's text as it is."""
    if isinstance(value, str):
        return value
    return b"nan" if math.isnan(value) else struct.pack("<d", value)


def _outcome(op, x) -> list:
    """The keys of op(x)'s values in flat order, or [the text of its ValueError]."""
    try:
        return [_key(v) for v in np.ravel(op(x)).tolist()]
    except ValueError as error:
        return [str(error)]


def _assert_libm_bits(name, op, inputs, reference):
    """op gives libm's bits where libm gives a value and raises libm's ValueError
    where libm raises one: on each input alone, as a 0-d and as a one-element
    array, on the inputs with a value as one array, and on all of them as one
    array, which raises at the first domain error if there is one."""
    expected = [_key(r) for r in reference]
    valued = [(x, e) for x, e in zip(inputs, expected) if not isinstance(e, str)]
    errors = [e for e in expected if isinstance(e, str)]
    assert _outcome(op, [x for x, _ in valued]) == [e for _, e in valued], (name, "array")
    assert _outcome(op, inputs) == (errors[:1] or expected), (name, "array of all")
    for shape, wrap in (("0-d", np.float64), ("1-element", lambda x: [x])):
        mismatches = [(x, e) for x, e in zip(inputs, expected) if _outcome(op, wrap(x)) != [e]]
        assert mismatches == [], (name, shape)


@pytest.mark.skipif(not libm._UFUNC_PATH, reason="the per-element path calls libm itself")
@pytest.mark.parametrize("fn", list(EXTREMES), ids=lambda fn: fn.__name__)
def test_accepted_loop_equals_libm_at_the_extremes(fn):
    inputs = EXTREMES[fn]
    reference = [_libm(fn, x) for x in inputs]
    _assert_libm_bits(fn.__name__, lambda x: libm.math_map(fn, x), inputs, reference)


@pytest.mark.skipif(not libm._UFUNC_PATH, reason="the per-element path calls libm itself")
def test_accepted_power_loop_equals_libm_pow_at_the_extremes():
    reference = [_libm(pow, x, 2.0) for x in SQUARES]
    _assert_libm_bits("square", libm.square, SQUARES, reference)


def test_every_ufunc_of_the_table_is_checked_at_the_extremes():
    assert set(libm._UFUNCS) == set(EXTREMES)


OVERFLOWS = {libm.square: [1.3407807929942597e154, 1e200, 1.7e308, -1e300],
             math.expm1: [709.79, 710.0, 1e300], math.exp: [709.79, 710.0, 1e300]}


@pytest.mark.parametrize("ufunc_path", [True, False])
@pytest.mark.parametrize("fn", list(OVERFLOWS), ids=lambda fn: fn.__name__)
def test_overflow_gives_inf_on_both_paths_at_every_size(fn, ufunc_path, monkeypatch):
    # libm raises OverflowError per element where numpy's loops give inf
    monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
    op = fn if fn is libm.square else lambda x: libm.math_map(fn, x)
    for x in OVERFLOWS[fn]:
        assert op(np.float64(x)).shape == ()
        assert op(np.float64(x)).item() == math.inf
        assert op([x]).tolist() == [math.inf]
        assert op([[2.0, x], [x, 0.5]]).tolist() == [[float(op(2.0)), math.inf],
                                                     [math.inf, float(op(0.5))]]
        if fn is libm.square:  # a point's square: pow(x, 2.0), inf where it raises
            assert op(x) == math.inf


DOMAIN_ERRORS = {math.log2: [-1.0, -0.0, 0.0, -math.inf, -5e-324],
                 math.log1p: [-1.0, -2.0, -math.inf, -1.0000000000000002]}


@pytest.mark.parametrize("ufunc_path", [True, False])
@pytest.mark.parametrize("fn", list(DOMAIN_ERRORS), ids=lambda fn: fn.__name__)
def test_domain_errors_raise_on_both_paths_at_every_size(fn, ufunc_path, monkeypatch):
    # a NaN or -inf would hide a defect: the closed forms never hand libm such an input
    monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
    for x in DOMAIN_ERRORS[fn]:
        for shaped in (np.float64(x), [x], [[2.0, 0.5], [x, math.nan]]):
            with pytest.raises(ValueError) as error:
                libm.math_map(fn, shaped)
            assert str(error.value) == _libm(fn, x)
    assert math.isnan(libm.math_map(fn, np.float64(math.nan)))
    values = libm.math_map(fn, [math.nan, 0.5]).tolist()
    assert math.isnan(values[0]) and values[1] == fn(0.5)


def test_the_ufunc_path_never_calls_libm_per_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("libm called per element on the ufunc path")

    monkeypatch.setattr(libm, "_UFUNC_PATH", True)
    monkeypatch.setattr(libm, "_per_element", refuse)
    for x in (np.float64(0.5), [0.5], [[0.5, 2.0], [3.0, 4.0]]):
        assert np.shape(libm.square(x)) == np.shape(x)
        for fn in libm._UFUNCS:
            assert np.shape(libm.math_map(fn, x)) == np.shape(x)


@pytest.mark.parametrize("ufunc_path", [True, False])
def test_lattice_rate_of_an_overflowing_alpha_is_zero(ufunc_path, monkeypatch):
    # at a point of floats, and over one-element arrays
    monkeypatch.setattr(libm, "_UFUNC_PATH", ufunc_path and libm._UFUNC_PATH)
    p_neq = equivalent_noise_power(1.0, 1.0, 1.0, 1e200, 0.0, 0.0, 1.0)
    assert (_clamped_rate(1.0, p_neq), p_neq) == (0.0, math.inf)
    with np.errstate(all="ignore"):
        point = [np.array([v]) for v in (1.0, 1.0, 1.0, 1e200, 0.0, 0.0)]
        p_neq = equivalent_noise_power(*point, 1.0)
        assert (_clamped_rate(point[0], p_neq).tolist(), p_neq.tolist()) == ([0.0], [math.inf])
