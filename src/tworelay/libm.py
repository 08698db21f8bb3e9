"""libm's bits at a point of Python floats and over numpy arrays.

The closed forms are written once, on helpers that take a point of Python
floats or numpy arrays alike (`where`, `isinf`, `isfinite`, `logical_not`,
`any_true`, `count_true`, `divide`, `square`, `apply`, `flat`, `quiet`).  At
a point they run the `math` module and give IEEE results where Python
raises: inf or NaN at a zero divisor, inf where libm overflows.  Both
operands of a point's `where` are formed before the call, so neither may
raise; `apply` takes a mask of the points where libm is to run.  Over arrays
the helpers run numpy, imported with the first array (`_numpy`); numpy's
warnings belong to the caller, which switches them off with `quiet`.
numpy's float64 takes the array path, so a 0-d input stays 0-d.

Over arrays every transcendental goes through `math_map` or `square`, which
give libm's bits: through numpy's ufuncs where their loops do
(`_UFUNC_PATH`), else per element.  Both give inf where libm overflows and
raise libm's ValueError at a domain error, at every size.  Every closed-form
0.5*log2(a/b) goes through `half_log2_ratio`, finite past the largest float,
and every Gaussian mutual information through `mutual_info`, which gives
`model.gaussian_mi`'s bits without its checks.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from typing import Callable

_LN2 = math.log(2.0)

#: numpy, once `_numpy` has imported it.
np = None

#: The exact types of a point's values: numpy's float64 subclasses float but takes the array path.
_POINT = (float, int, bool)


def _numpy():
    """numpy, imported with the first array; the import settles `_UFUNC_PATH`."""
    global np, _UFUNC_PATH
    if np is None:
        import numpy
        _UFUNC_PATH = _ufuncs_give_libm_bits()
        np = numpy
    return np


def __getattr__(name: str):
    if name == "_UFUNC_PATH":  # settled with numpy's import
        _numpy()
        return _UFUNC_PATH
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def where(cond, a, b):
    """a where cond holds, else b: at a point (cond a bool) the operand picked, as it is."""
    return (a if cond else b) if type(cond) is bool else _numpy().where(cond, a, b)


def _pointwise(at_point: Callable, name: str) -> Callable:
    """`at_point` at a point, numpy's function `name` over arrays."""
    return lambda x: at_point(x) if type(x) in _POINT else getattr(_numpy(), name)(x)


isinf, isfinite = _pointwise(math.isinf, "isinf"), _pointwise(math.isfinite, "isfinite")
logical_not, any_true = _pointwise(operator.not_, "logical_not"), _pointwise(bool, "any")


def count_true(x) -> int:
    """The number of points where x holds: 0 or 1 at a point."""
    return int(x if type(x) in _POINT else _numpy().count_nonzero(x))


def flat(*values) -> tuple:
    """The values broadcast and raveled, or as they are at a point of floats (the first's)."""
    if type(values[0]) in _POINT:
        return values
    return tuple(v.ravel() for v in _numpy().broadcast_arrays(*values))


def quiet(x):
    """A context with numpy's warnings off over arrays; a point of floats raises none."""
    return contextlib.nullcontext() if type(x) in _POINT else _numpy().errstate(all="ignore")


def divide(a, b):
    """a / b, IEEE at b = 0 as well (inf of the quotient's sign, NaN for a = 0 or NaN),
    with numpy's warnings off."""
    if type(a) in _POINT and type(b) in _POINT:
        return a / b if b else a * math.copysign(math.inf, b)
    with _numpy().errstate(all="ignore"):
        return np.divide(a, b)


def apply(fn: Callable[[float], float], x, mask=True):
    """The `math` function `fn` at a point, inf where it overflows, or `math_map` over
    arrays, evaluated only where `mask` holds (0.0 elsewhere)."""
    if type(x) in _POINT and type(mask) is bool:
        try:
            return fn(x) if mask else 0.0
        except OverflowError:  # upward: no function mapped here overflows toward -inf
            return math.inf
    if mask is True:
        return math_map(fn, x)
    x, mask = _numpy().broadcast_arrays(x, mask)
    values = np.zeros(x.shape)
    values[mask] = math_map(fn, x[mask])
    return values


def mutual_info(signal_power, noise_power):
    """`model.gaussian_mi` at a point or broadcast over arrays, without its input checks."""
    ratio = divide(signal_power, noise_power)
    mi = half_log2_ratio(signal_power, noise_power, 0.5 * apply(math.log1p, ratio) / _LN2)
    return where(signal_power == 0.0, 0.0, mi)  # +0.0, also for a signal power of -0.0


def half_log2_ratio(a, b, value):
    """`value`, 0.5*log2 of a/b or of 1 + a/b formed from the float a/b; where a/b passed the
    largest float (value inf, b > 0), 0.5*(log2 a - log2 b), within a part in 1e308 of both."""
    past = value == math.inf
    if any_true(past):
        past = past & (b > 0.0)  # libm's log2 sees a and b only here, never 0; a = inf stays inf
        log2_a, log2_b = (apply(math.log2, v, past) for v in (a, b))
        value = where(past, 0.5 * (log2_a - log2_b), value)
    return value


def math_map(fn: Callable[[float], float], x):
    """The `math` function `fn` applied to each element of x, with libm's bits.

    The CLI prints floats with repr, and numpy's AVX-512 loops differ from
    libm in the last bit.  On the ufunc path numpy's ufunc of `fn` runs, its
    warnings off; else libm reads the elements straight from the flat buffer
    (`_per_element`).  Both give inf where the value passes the largest float,
    and both raise libm's ValueError at the first element outside `fn`'s domain.
    """
    x = _numpy().asarray(x, dtype=float)
    if not _UFUNC_PATH:
        return _per_element(fn, x)
    if (x <= _DOMAIN_EDGES.get(fn, math.nan)).any():  # no edge: nothing is <= NaN
        _per_element(fn, x)  # raises libm's ValueError at the first element outside
    with np.errstate(all="ignore"):
        return getattr(np, _UFUNCS[fn])(x)


def square(x):
    """x**2 as Python's float ** computes it: libm pow, not x*x, and inf where it overflows.

    At a point `x**2.0`; over arrays, on the ufunc path, np.power of the flat x with an
    exponent array, at every size (one of stride 0, as a scalar or 0-d one has, takes x*x);
    else `pow(v, 2.0)` per element."""
    if type(x) in _POINT:
        try:
            return x**2.0
        except OverflowError:
            return math.inf
    x = _numpy().asarray(x, dtype=float)
    if not _UFUNC_PATH:
        return _per_element(functools.partial(pow, exp=2.0), x)
    with np.errstate(all="ignore"):
        return np.power(x.ravel(), np.full(x.size, 2.0)).reshape(x.shape)


def _per_element(fn: Callable[[float], float], x):
    """fn(v) for each element v of x, from its flat buffer; where libm overflows
    (OverflowError, where numpy's loops give inf), formed again with inf there."""
    elements = memoryview(x.ravel())
    try:
        values = np.fromiter(map(fn, elements), float, x.size)
    except OverflowError:
        values = np.fromiter((apply(fn, v) for v in elements), float, x.size)
    return values.reshape(x.shape)


#: numpy's ufunc, by name, of each `math` function `math_map` takes.
_UFUNCS = {math.log1p: "log1p", math.log2: "log2", math.expm1: "expm1", math.exp: "exp"}

#: libm raises a domain error at and below each edge; the other functions of `_UFUNCS` have none.
_DOMAIN_EDGES = {math.log2: 0.0, math.log1p: -1.0}

#: (ufunc, loop, targets giving libm's bits: baseline calls libm, exp's X86_V3 matched it)
_LIBM_TARGETS = (("log1p", "dd", ("baseline",)), ("log2", "dd", ("baseline",)),
                 ("expm1", "dd", ("baseline",)), ("power", "ddd", ("baseline",)),
                 ("exp", "dd", ("baseline", "X86_V3")))


def _ufuncs_give_libm_bits() -> bool:
    """Whether numpy, as loaded, runs a loop of `_LIBM_TARGETS` for each ufunc
    (see `tworelay/__init__.py`)."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info()
    return all(info.get(name, {}).get(signature, {}).get("current", "").startswith(targets)
               for name, signature, targets in _LIBM_TARGETS)

