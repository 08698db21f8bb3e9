"""libm's bits over numpy arrays: the numpy half of the channel model.

The array core (`achievable`, `bounds`, `scaling`) and the simulator
(`lattice_sim`) take every transcendental through `math_map` or `square`,
which give libm's bits: through numpy's ufuncs where their loops do
(`_UFUNC_PATH`), else per element.  Both give inf where libm overflows and
raise libm's ValueError at a domain error, at every size.  Every closed-form
0.5*log2(a/b) goes through `half_log2_ratio`, finite past the largest float,
and every Gaussian mutual information of arrays through `mutual_info`, which
gives `model.gaussian_mi`'s bits without its checks.  `model` itself imports
no numpy, so the channel model and the Case C region load without it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .model import _LN2


@np.errstate(all="ignore")
def mutual_info(signal_power, noise_power) -> np.ndarray:
    """`model.gaussian_mi` as a broadcast over arrays, without its input checks."""
    ratio = np.divide(signal_power, noise_power)
    mi = half_log2_ratio(signal_power, noise_power, 0.5 * math_map(math.log1p, ratio) / _LN2)
    return np.where(signal_power == 0.0, 0.0, mi)  # +0.0, also for a signal power of -0.0


def half_log2_ratio(a, b, value) -> np.ndarray:
    """`value`, 0.5*log2 of a/b or of 1 + a/b formed from the float a/b; where a/b passed the
    largest float (value inf, b > 0), 0.5*(log2 a - log2 b), within a part in 1e308 of both."""
    past = value == math.inf
    if past.any():
        past &= b > 0.0  # libm's log2 sees a and b only here, never 0; a = inf stays inf
        log2_a, log2_b = (math_map(math.log2, np.where(past, v, 1.0)) for v in (a, b))
        value = np.where(past, 0.5 * (log2_a - log2_b), value)
    return value


def math_map(fn: Callable[[float], float], x) -> np.ndarray:
    """The `math` function `fn` applied to each element of x, with libm's bits.

    The CLI prints floats with repr, and numpy's AVX-512 loops differ from
    libm in the last bit.  On the ufunc path numpy's ufunc of `fn` runs, its
    warnings off; else libm reads the elements straight from the flat buffer
    (`_per_element`).  Both give inf where the value passes the largest float,
    and both raise libm's ValueError at the first element outside `fn`'s domain.
    """
    x = np.asarray(x, dtype=float)
    if not _UFUNC_PATH:
        return _per_element(fn, x)
    if (x <= _DOMAIN_EDGES.get(fn, math.nan)).any():  # no edge: nothing is <= NaN
        _per_element(fn, x)  # raises libm's ValueError at the first element outside
    with np.errstate(all="ignore"):
        return _UFUNCS[fn](x)


def square(x) -> np.ndarray:
    """x**2 elementwise as Python's float ** computes it: libm pow, not x*x.

    On the ufunc path np.power of the flat x with an exponent array, at every size
    (one of stride 0, as a scalar or 0-d one has, takes x*x); else `pow(v, 2.0)`."""
    x = np.asarray(x, dtype=float)
    if not _UFUNC_PATH:
        return _per_element(pow, x, 2.0)
    with np.errstate(all="ignore"):
        return np.power(x.ravel(), np.full(x.size, 2.0)).reshape(x.shape)


def _per_element(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """fn(v, *args) for each element v of x, from its flat buffer; where libm overflows
    (OverflowError, where numpy's loops give inf), formed again with inf there."""
    elements = memoryview(x.ravel())
    try:
        values = np.fromiter(map(fn, elements, *map(itertools.repeat, args)), float, x.size)
    except OverflowError:
        values = np.fromiter((_or_inf(fn, v, *args) for v in elements), float, x.size)
    return values.reshape(x.shape)


def _or_inf(fn: Callable[..., float], *args: float) -> float:
    try:
        return fn(*args)
    except OverflowError:  # upward: no function mapped here overflows toward -inf
        return math.inf


_UFUNCS = {math.log1p: np.log1p, math.log2: np.log2, math.expm1: np.expm1, math.exp: np.exp}

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


#: Whether `math_map` and `square` run numpy's ufuncs; else libm per element.
_UFUNC_PATH = _ufuncs_give_libm_bits()


def as_arrays(*values) -> list[np.ndarray]:
    """The values as float arrays of at least one dimension, each keeping its own
    shape: a quantity of p_x alone is computed once per p_x, not once per point."""
    return [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
