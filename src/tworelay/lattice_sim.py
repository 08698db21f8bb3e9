"""Monte Carlo verification of the dithered modulo-lattice relay scheme.

A scalar lattice stands in for the high-dimensional one: the Voronoi cell
is the interval [-L/2, L/2) with L = sqrt(12*p_x), whose uniform second
moment is exactly p_x.  That preserves every algebraic identity and every
variance bookkeeping of the scheme; only the (untested) shaping gain is
lost.  Quantization at the relays is simulated by its forward test channel,
adding independent Gaussian distortions of the analytically allocated
variances.

Per sample the simulator draws message point V and dither U uniform on the
cell, forms X = (V - U) mod cell, passes it through the two relay channels,
builds the relay descriptions W_i = (alpha*Y_i mod cell) + D_i, and checks
that the destination combiner output

    (W1 - W2 + U) mod cell  ==  (V + n_eq) mod cell

holds to floating-point accuracy with n_eq assembled from the latent draws,
for any alpha.  It records the empirical power of n_eq against the closed
form, the dither statistics of the crypto lemma (X uniform on the cell and
uncorrelated with V; `crypto_lemma_check` computes them alone) and the
variance-based rate estimate 0.5*log2(p_x / var(n_eq)).

Reproducibility contract: every random variable of every fixed-size batch
draws from its own counter-based Philox stream keyed by
(seed, batch_index, variable), and moments are reduced with exact
summation, so results are bit-identical regardless of evaluation order and
the interferer's distribution can be swapped without disturbing any other
draw.  Batches therefore run concurrently: `run_lattice_sim` and
`crypto_lemma_check` hand them to a pool of min(usable CPUs, batches)
threads (numpy's draws and large ufuncs release the interpreter lock) and
reduce the per-batch results, or raise a batch's error, in batch order.
The output is identical for every worker count; the pool size follows the
CPUs the process may run on, not a setting.  Each simulator worker computes a
batch in one piece, or in two cut once where numpy's pairwise summation cuts
the batch, so that their moment sums add up to the batch's bit for bit; it
draws and reduces both in place in seven buffers that the batch allocates and
frees, so a piece allocates no piece-sized array but a BPSK interferer's
integer draw, and nothing of a batch outlives it.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .achievable import (
    distortion_relay1,
    distortion_relay2_case_b,
    distortion_relay2_case_c,
    equivalent_noise_power,
    mmse_alpha,
)
from .libm import square
from .model import _CASE_FIXED, _LN2, ScenarioCase, _check_count

#: Fixed batch size; part of the determinism contract (changing it changes
#: the streams, so it is a module constant rather than a config knob).
BATCH_SIZE = 1 << 16

#: Number of histogram bins for the dither-uniformity test.
UNIFORMITY_BINS = 64

_INTERFERERS = ("gaussian", "uniform", "bpsk")

#: Bound on a relay's observation y_i = a_i*x + j + n_i in units of
#: |a_i|*cell/2 + sqrt(p_j) + sqrt(p_ni): numpy's standard normals stay below
#: 14 in size (a uniform interferer below sqrt(3)), and alpha*(n1 - n2) adds
#: at most the other relay's term, so 2*14 < 2**5.
_OBSERVATION_HEADROOM = 2.0**5

# stream indices per random variable
_VAR_V, _VAR_U, _VAR_J, _VAR_N1, _VAR_N2, _VAR_D1, _VAR_D2 = range(7)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one lattice-scheme simulation run.

    `case` is "b", "c" or "general"; the canonical cases fix the gains and
    default the noise powers `p_n1` and `p_n2` (a given one is kept), while
    "general" takes explicit gains and noise powers.  A link with
    INFINITE_CAPACITY disables the corresponding quantizer (zero
    distortion); a finite link must have positive capacity.  `interferer`
    switches the interferer's distribution ("gaussian", "uniform", "bpsk")
    at fixed power, leaving all other draws untouched.  A config is refused
    with a count or seed that is not an integer, with fewer than two samples
    (the unbiased variance of n_eq needs two), where the scheme's alpha,
    distortions or analytic var(n_eq) is not finite, and where a relay's
    observation y_i, alpha*y_i or alpha*y_i over the cell length could pass
    the largest float.
    """

    case: str
    p_x: float
    p_j: float
    c1: float
    c2: float
    samples: int
    seed: int
    p_n1: float | None = None
    p_n2: float | None = None
    a: float | None = None
    b: float | None = None
    alpha_override: float | None = None
    interferer: str = "gaussian"

    def __post_init__(self):
        if self.case not in ("b", "c", "general"):
            raise ValueError(f"case must be 'b', 'c' or 'general', got {self.case!r}")
        if self.case == "general":
            if self.a is None or self.b is None:
                raise ValueError("general case needs explicit gains a and b")
            if self.p_n1 is None or self.p_n2 is None:
                raise ValueError("general case needs explicit noise powers")
        else:
            fixed = _CASE_FIXED[ScenarioCase(self.case)]
            ga, gb = fixed["a"], fixed["b"]
            if self.a is not None and self.a != ga or self.b is not None and self.b != gb:
                raise ValueError(f"case {self.case!r} fixes gains ({ga}, {gb})")
            object.__setattr__(self, "a", ga)
            object.__setattr__(self, "b", gb)
            for name in ("p_n1", "p_n2"):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, fixed[name])
        if not 0.0 < 12.0 * self.p_x < math.inf:
            raise ValueError("simulation needs a p_x > 0 whose cell length sqrt(12*p_x) "
                             f"is finite (the cell scales with it), got {self.p_x!r}")
        for name in ("p_j", "p_n1", "p_n2"):
            v = getattr(self, name)
            if not v >= 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("c1", "c2"):
            c = getattr(self, name)
            if c is None:
                raise ValueError(f"case {self.case!r} needs {name}")
            if math.isinf(c) and c > 0:
                continue  # quantizer disabled
            if not c > 0.0:
                raise ValueError(f"{name} must be > 0 when its quantizer is active, got {c!r}")
        _check_count("samples", self.samples, 2)
        _check_count("seed", self.seed, 0)
        if self.interferer not in _INTERFERERS:
            raise ValueError(f"interferer must be one of {_INTERFERERS}")
        scheme = self.scheme()
        if not all(map(math.isfinite, scheme)):
            raise ValueError("the scheme's alpha, distortions and var(n_eq) must be finite "
                             f"at this config, got {scheme}")
        alpha, L = abs(scheme[0]), self.cell_length
        for relay, gain, p_n in ((1, self.a, self.p_n1), (2, self.b, self.p_n2)):
            y = _OBSERVATION_HEADROOM * (abs(gain) * L / 2.0 + math.sqrt(self.p_j)
                                         + math.sqrt(p_n))
            if not all(map(math.isfinite, (y, alpha * y, alpha * y / L))):
                raise ValueError(f"relay {relay}'s observation y{relay}, scaled by alpha = "
                                 f"{scheme[0]!r} and over the cell length, could pass the "
                                 "largest float")

    @property
    def cell_length(self) -> float:
        return math.sqrt(12.0 * self.p_x)

    def scheme(self) -> tuple[float, float, float, float]:
        """(alpha, p_d1, p_d2) used by the relays in this run, and their analytic var(n_eq),
        on the closed forms' float path (a config with a non-finite result is refused)."""
        delta = self.a - self.b
        alpha = (
            self.alpha_override
            if self.alpha_override is not None
            else mmse_alpha(self.p_x, self.p_n1, self.p_n2, delta)
        )
        p_d1 = distortion_relay1(self.p_x, self.c1)
        if self.case == "b":
            p_d2, _ = distortion_relay2_case_b(self.p_x, self.p_j, self.c2, alpha)
        else:
            p_d2, _ = distortion_relay2_case_c(
                self.p_x, self.p_j, self.c1, self.c2, alpha,
                self.p_n1, self.p_n2, gain_sum=self.a + self.b,
            )
        var_neq = equivalent_noise_power(self.p_x, self.p_n1, self.p_n2, alpha, p_d1, p_d2, delta)
        return alpha, p_d1, p_d2, var_neq


class SimStats(NamedTuple):
    """Empirical statistics of one simulation run."""

    empirical_var_neq: float
    analytic_var_neq: float
    identity_max_residual: float
    dither_uniformity_pvalue: float
    x_v_correlation: float
    rate_estimate: float
    samples: int
    seed: int
    cell_length: float


def centered_mod(x: np.ndarray, cell: float) -> np.ndarray:
    """Reduce an array into [-cell/2, cell/2), a tie at +cell/2 to -cell/2:
    x - cell*floor(x/cell + 0.5), built in one new buffer."""
    return _reduce(x, cell)


def _reduce(x: np.ndarray, cell: float, scratch: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """`centered_mod` of an array, x/cell formed in `scratch` and the result
    written to `out` (which may be x); without them, into one new buffer."""
    q = np.divide(x, cell, out=scratch)
    q += 0.5
    np.floor(q, out=q)
    q *= cell
    return np.subtract(x, q, out=q if out is None else out)


def _stream(seed: int, batch: int, var: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch, var))
    return np.random.Generator(np.random.Philox(seq))


def _draw_interferer(rng: np.random.Generator, kind: str, p_j: float,
                     out: np.ndarray) -> np.ndarray:
    if kind == "gaussian":
        return _scaled_normal(rng, p_j, out)
    if p_j == 0.0:
        out.fill(0.0)
        return out
    if kind == "uniform":
        half_width = math.sqrt(3.0 * p_j)
        return _uniform(rng, -half_width, half_width, out)
    np.copyto(out, rng.integers(0, 2, out.size))  # unlike 2.0*ints, casts with no buffer
    out *= 2.0
    out -= 1.0
    out *= math.sqrt(p_j)
    return out


def _scaled_normal(rng: np.random.Generator, power: float, out: np.ndarray) -> np.ndarray:
    if power == 0.0:
        out.fill(0.0)
        return out
    rng.standard_normal(out=out)
    if power != 1.0:  # x*1.0 == x
        out *= math.sqrt(power)
    return out


def _uniform(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> np.ndarray:
    """`rng.uniform(low, high, out.size)` drawn into `out`: numpy forms
    low + (high - low)*u from the same doubles u that `random` yields."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


#: The largest piece of a batch that `_sim_batch` computes at once: the larger
#: part of numpy's top-level pairwise cut of 65 535 samples.
_PIECE = BATCH_SIZE // 2 + 7

class _Batch(NamedTuple):
    """What one batch hands back to the reduction: its largest identity residual, its
    histogram counts of x and its moment sums (as in `_dither_summary`, plus "neq", "neq2")."""

    max_residual: float
    hist: np.ndarray
    sums: dict[str, float]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_batches(
    samples: int, p_x: float, batch_fn: Callable[[np.ndarray, int, int], _Batch]
) -> tuple[float, dict[str, float], float, float]:
    """Run `batch_fn(edges, batch, m)` over every batch and reduce in batch order.

    `edges` are the dither histogram's, evenly spaced over the cell of p_x.
    The batches run on min(usable CPUs, batches) threads, at most two per
    worker submitted ahead, so memory does not grow with `samples`.  The
    reduction takes the results in batch order, as a serial loop would, and
    returns the largest residual, the moment totals (`_moment_totals`) and
    the dither p-value and x-v correlation (`_dither_summary`).

    Raises:
        ValueError: the lowest raising batch's own, such as a non-finite
            sample's (once the batches not yet started are cancelled and
            every worker has stopped), or where a moment total overflows.
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy.random  # here: a worker's first draw would load it in its own malloc arena

    L = math.sqrt(12.0 * p_x)
    edges = np.linspace(-L / 2.0, L / 2.0, UNIFORMITY_BINS + 1)
    batches = -(-samples // BATCH_SIZE)
    todo = ((b, min(BATCH_SIZE, samples - b * BATCH_SIZE)) for b in range(batches))
    workers = min(_usable_cpus(), batches)
    max_residual = 0.0
    hist = np.zeros(UNIFORMITY_BINS, dtype=np.int64)
    sums: dict[str, list[float]] = {}
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="tworelay-batch")
    submit = partial(pool.submit, batch_fn, edges)
    try:
        in_flight = deque(submit(b, m) for b, m in islice(todo, 2 * workers))
        while in_flight:
            result = in_flight.popleft().result()
            in_flight.extend(submit(b, m) for b, m in islice(todo, 1))
            hist += result.hist
            max_residual = max(max_residual, result.max_residual)
            for key, value in result.sums.items():
                sums.setdefault(key, []).append(value)
    finally:
        pool.shutdown(cancel_futures=True)
    totals = _moment_totals(sums, p_x)
    return max_residual, totals, *_dither_summary(hist, totals, samples)


@np.errstate(over="ignore")  # a sum past the largest float is refused in `_moment_totals`
def _dither_moments(
    x: np.ndarray, v: np.ndarray, edges: np.ndarray, scratch: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, dict[str, float]]:
    """One batch's histogram counts of x and its x/v moment sums.

    `scratch`, an array like x, holds each product and then the bin
    coordinates of x; `index`, an intp array like x, its bins.  The counts
    are those of `np.histogram(x, bins=edges)` (every bin half-open, the
    last one closed) for evenly spaced edges.
    """
    sums = {"x": float(x.sum()), "v": float(v.sum())}
    for key, left, right in (("xv", x, v), ("x2", x, x), ("v2", v, v)):
        sums[key] = float(np.multiply(left, right, out=scratch).sum())
    return _histogram(x, edges, scratch, index), sums


#: Half-width, in bins, of the band around each edge in which `_histogram`
#: bins a point again by comparison with the edges.
_EDGE_BAND = 1e-6


def _histogram(x: np.ndarray, edges: np.ndarray, scratch: np.ndarray,
               index: np.ndarray) -> np.ndarray:
    """`np.histogram(x, bins=edges)[0]` of finite x for evenly spaced edges, in O(n).

    The bin of a point is the floor of its coordinate (x - lo)*bins/(hi - lo),
    clipped to [0, bins].  That coordinate is off by a few ulps at most, so
    only the points within `_EDGE_BAND` of a bin edge and those outside the
    cell (clipped onto its ends) are binned again, by searchsorted on the
    edges; the ones outside the cell go to an extra bin that is dropped.
    `scratch` (float) and `index` (intp) are x-sized work buffers; the floors
    are formed in index's bytes and cast in place, so nothing x-sized is
    allocated.
    """
    bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    t = np.subtract(x, lo, out=scratch)
    t *= bins / (hi - lo)
    np.clip(t, 0.0, bins, out=t)
    floors = np.floor(t, out=index.view(np.float64))
    t -= floors  # the position in the bin, in [0, 1)
    t -= 0.5
    np.abs(t, out=t)
    t -= 0.5 - _EDGE_BAND
    np.maximum(t, 0.0, out=t)  # nonzero within the band of an edge
    np.copyto(index, floors, casting="unsafe")
    again = np.flatnonzero(t)
    if again.size:
        near = x[again]
        redo = np.searchsorted(edges, near, "right") - 1
        redo[near == hi] = bins - 1  # the last bin is closed
        redo[(redo < 0) | (redo >= bins)] = bins  # outside the cell
        index[again] = redo
    return np.bincount(index, minlength=bins + 1)[:bins]


def _chi2_sf_odd(x: float, k: int) -> float:
    """Chi-square survival function P(chi2_k > x) at an odd number k of dof.

    With y = x/2, Q(k/2, y) = erfc(sqrt(y)) + e^-y * sum_{i=1}^{(k-1)/2}
    y^(i-1/2) / Gamma(i+1/2).  The terms follow t <- t*y/(i+1/2) from
    t = 2*sqrt(y/pi) and are added exactly.  Past y = 700, where e^-y
    leaves the normal floats, each term carries its e^-y inside one exp.
    erfc(sqrt(y)) has relative condition number about 2y, so the rounding
    of sqrt(y) is undone to first order with the exact residual y - root^2.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    root = math.sqrt(y)
    (yn, yd), (rn, rd) = y.as_integer_ratio(), root.as_integer_ratio()
    head = math.erfc(root) * (1.0 - (yn * rd * rd - rn * rn * yd) / (yd * rd * rd))
    if y > 700.0:
        return head + math.fsum(
            math.exp((i - 0.5) * math.log(y) - y - math.lgamma(i + 0.5))
            for i in range(1, (k + 1) // 2)
        )
    terms, t = [], 2.0 * math.sqrt(y / math.pi)
    for i in range(1, (k + 1) // 2):
        terms.append(t)
        t *= y / (i + 0.5)
    return head + math.exp(-y) * math.fsum(terms)


def _root_product(a: float, b: float) -> float:
    """sqrt(a * b) for positive variances, NaN unless both are positive and finite.

    The product is kept where it is a normal float, so those values keep their
    bits; where it underflows or overflows, the roots are taken apart.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        return math.nan
    product = a * b
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(a) * math.sqrt(b)


def _moment_totals(sums: dict[str, list[float]], p_x: float) -> dict[str, float]:
    """The exact total of each moment's batch sums.

    Raises:
        ValueError: naming p_x, where a batch sum or a total passes the
            largest float (the moments grow like p_x times the samples).
    """
    totals = {}
    for key, values in sums.items():
        try:
            totals[key] = math.fsum(values)
        except (OverflowError, ValueError):  # an exact total past the largest float, inf - inf
            totals[key] = math.inf
        if not math.isfinite(totals[key]):
            raise ValueError(f"the sample moments at p_x = {p_x!r} pass the largest float; "
                             "take a smaller p_x or fewer samples")
    return totals


def _centered(second: float, a: float, n: int, b: float | None = None) -> float:
    """second - a*b/n from moment sums, a**2/n where b is None.

    Where the product passes the largest float, the centred moment is finite
    all the same (|a*b|/n is at most the larger sum of squares), and
    a*(b/n) forms it; elsewhere the plain form keeps its bits.
    """
    product = float(square(a)) if b is None else a * b
    if math.isinf(product):
        return second - a * ((a if b is None else b) / n)
    return second - product / n


def _variance(second: float, a: float, n: int) -> float:
    """The centred moment `_centered(second, a, n)`, or 0.0 where it lies within
    the rounding of summing n terms (n * eps of the raw moment `second`): the n
    samples are constant, and what is left of their variance is rounding."""
    var = _centered(second, a, n)
    return 0.0 if var <= n * sys.float_info.epsilon * second else var


def _dither_summary(hist: np.ndarray, total: dict[str, float], n: int) -> tuple[float, float]:
    """Chi-square uniformity p-value of the histogram and the x-v correlation
    (NaN where x or v is constant)."""
    cov_xv = _centered(total["xv"], total["x"], n, total["v"])
    var_x = _variance(total["x2"], total["x"], n)
    var_v = _variance(total["v2"], total["v"], n)
    corr = cov_xv / _root_product(var_x, var_v)
    expected = n / UNIFORMITY_BINS
    chi2_stat = float(((hist - expected) ** 2 / expected).sum())
    return _chi2_sf_odd(chi2_stat, UNIFORMITY_BINS - 1), corr


def _sim_batch(cfg: SimConfig, scheme: tuple[float, float, float], edges: np.ndarray,
               batch: int, m: int) -> _Batch:
    """One batch of the scheme, in one piece of up to `_PIECE` samples or in two.

    numpy sums m > 128 elements as the sum of the first n2 and that of the
    rest, n2 being m//2 less its remainder mod 8; a larger batch is cut there
    once.  `_sim_piece` computes the pieces in turn, each drawing the next
    samples of the batch's streams, in seven buffers the size of the larger
    one that the batch allocates and frees on return.  Their moment sums are
    added as numpy adds the parts, so they keep the bits of numpy's sum over
    the batch.  A piece that raises ends the batch.
    """
    streams = [_stream(cfg.seed, batch, var) for var in range(_VAR_D2 + 1)]
    buffers = [np.empty(min(m, _PIECE)) for _ in range(7)]
    n2 = m if m <= _PIECE else m // 2 - m // 2 % 8
    left = _sim_piece(cfg, scheme, edges, streams, [b[:n2] for b in buffers], batch)
    if n2 == m:
        return left
    right = _sim_piece(cfg, scheme, edges, streams, [b[:m - n2] for b in buffers], batch)
    return _Batch(max(left.max_residual, right.max_residual), left.hist + right.hist,
                  {key: value + right.sums[key] for key, value in left.sums.items()})


def _sim_piece(cfg: SimConfig, scheme: tuple[float, float, float], edges: np.ndarray,
               streams: list[np.random.Generator], buffers: list[np.ndarray],
               batch: int) -> _Batch:
    """One piece of `batch`, computed in place in the order of the formulas
    (see the module docstring); ValueError where a sample is not finite.

    Every variable is drawn into, and every step written to, the seven
    `buffers` of the batch, cut to the piece; the last one is the scratch of
    the cell reductions and holds the draws used once (n2, d1, d2), and j's
    holds the histogram's bin indices before the interferer is drawn.  Only a
    BPSK interferer's integer draw allocates a piece-sized array.
    """
    alpha, p_d1, p_d2 = scheme
    L = cfg.cell_length
    v, u, x, j, y1, y2, scratch = buffers
    _uniform(streams[_VAR_V], -L / 2.0, L / 2.0, v)
    _uniform(streams[_VAR_U], -L / 2.0, L / 2.0, u)
    _reduce(np.subtract(v, u, out=x), L, scratch, x)
    hist, sums = _dither_moments(x, v, edges, scratch, j.view(np.intp))  # j is drawn below

    # y_i = a_i*x + j + n_i, the two relay observations
    _draw_interferer(streams[_VAR_J], cfg.interferer, cfg.p_j, j)
    np.multiply(x, cfg.a, out=y1)
    y1 += j
    np.multiply(x, cfg.b, out=y2)
    y2 += j
    leak = x
    leak *= 1.0 - alpha * (cfg.a - cfg.b)
    neq = _scaled_normal(streams[_VAR_N1], cfg.p_n1, j)  # n1, in j's buffer
    y1 += neq
    n2 = _scaled_normal(streams[_VAR_N2], cfg.p_n2, scratch)
    y2 += n2
    neq -= n2

    # w_i = (alpha*y_i mod cell) + d_i, and n_eq = alpha*(n1 - n2) + d1 - d2 - leak
    neq *= alpha
    y1 *= alpha
    w1 = _reduce(y1, L, scratch, y1)
    y2 *= alpha
    w2 = _reduce(y2, L, scratch, y2)
    d = _scaled_normal(streams[_VAR_D1], p_d1, scratch)
    w1 += d
    neq += d
    _scaled_normal(streams[_VAR_D2], p_d2, d)
    w2 += d
    neq -= d
    neq -= leak

    w1 -= w2
    w1 += u
    combined = _reduce(w1, L, scratch, w1)
    v += neq
    predicted = _reduce(v, L, scratch, v)
    flags = u.view(np.bool_)[:u.size]  # u is spent; its bytes hold the finiteness flags
    if not (np.isfinite(combined, out=flags).all() and np.isfinite(neq, out=flags).all()):
        raise ValueError(f"non-finite samples in batch {batch}; aborting")
    gap = combined
    gap -= predicted
    np.abs(gap, out=gap)
    other = np.subtract(L, gap, out=predicted)
    residual = np.minimum(gap, other, out=gap)  # distance on the cell circle
    with np.errstate(over="ignore"):  # a sum past the largest float is refused in `_moment_totals`
        sums["neq"] = float(neq.sum())
        sums["neq2"] = float(np.multiply(neq, neq, out=other).sum())
    return _Batch(float(residual.max()), hist, sums)


def run_lattice_sim(cfg: SimConfig) -> SimStats:
    """Run the dithered modulo-lattice scheme and verify its bookkeeping.

    Raises:
        ValueError: if any simulated sample is non-finite (the run aborts
            rather than report corrupted statistics).
    """
    alpha, p_d1, p_d2, analytic = cfg.scheme()
    n = cfg.samples
    max_residual, total, pvalue, corr = _run_batches(
        n, cfg.p_x, partial(_sim_batch, cfg, (alpha, p_d1, p_d2)))
    var_neq = _centered(total["neq2"], total["neq"], n) / (n - 1)
    rate = math.inf
    if var_neq > 0.0:
        ratio = cfg.p_x / var_neq
        if sys.float_info.min <= ratio < math.inf:
            rate = 0.5 * math.log2(ratio)
        else:  # the ratio kept few digits below the smallest normal float, or none past the largest
            rate = 0.5 * (math.log2(cfg.p_x) - math.log2(var_neq))
    return SimStats(
        empirical_var_neq=var_neq,
        analytic_var_neq=analytic,
        identity_max_residual=max_residual,
        dither_uniformity_pvalue=pvalue,
        x_v_correlation=corr,
        rate_estimate=rate,
        samples=n,
        seed=cfg.seed,
        cell_length=cfg.cell_length,
    )


# ---------------------------------------------------------------------------
# Dither (crypto lemma) statistics


class CryptoLemmaStats(NamedTuple):
    """Uniformity and independence statistics of X = (V - U) mod cell."""

    uniformity_pvalue: float
    x_v_correlation: float
    samples: int
    seed: int


def crypto_lemma_check(p_x: float, samples: int, seed: int) -> CryptoLemmaStats:
    """Check that the dither makes the channel input uniform and message-blind.

    X = (V - U) mod cell must be uniform over the cell and uncorrelated with
    the message V (the crypto lemma).  V and U are drawn from the streams
    `run_lattice_sim` draws them from, so its dither statistics at the same
    seed and samples are these.

    Requires samples >= 1e5 so the chi-square bins are well populated.
    """
    _check_count("samples", samples, 10**5)
    _check_count("seed", seed, 0)
    if not 0.0 < 12.0 * p_x < math.inf:
        raise ValueError(f"p_x must be > 0 with a finite cell length sqrt(12*p_x), got {p_x!r}")
    L = math.sqrt(12.0 * p_x)

    def dither_batch(edges: np.ndarray, batch: int, m: int) -> _Batch:
        v, u = (_stream(seed, batch, var).uniform(-L / 2.0, L / 2.0, m) for var in (_VAR_V, _VAR_U))
        x = centered_mod(v - u, L)
        return _Batch(0.0, *_dither_moments(x, v, edges, np.empty(m), u.view(np.intp)))

    _, _, pvalue, corr = _run_batches(samples, p_x, dither_batch)
    return CryptoLemmaStats(
        uniformity_pvalue=pvalue, x_v_correlation=corr, samples=samples, seed=seed
    )


# ---------------------------------------------------------------------------
# Random-codebook coverage experiment

#: Bound on the experiment's terms in units of block_length*(s2 + d2) times
#: 1, s2 or 1/d2 (the sums of squares, the joint quadratic form and its
#: ratio to s2*d2): each adds at most four sums of products of two of numpy's
#: standard normals, which stay below 14 in size, and 4*14**2 < 2**10.
_COVERAGE_HEADROOM = 2.0**10


@dataclass(frozen=True)
class CoverageConfig:
    """Joint-typicality coverage experiment for the relay quantizer.

    The source Y ~ N(0, source_variance) is described through the forward
    test channel U = Y + D, D ~ N(0, test_channel_distortion); the
    codebook holds 2**(block_length*codebook_rate) codewords drawn i.i.d.
    from U's marginal.  The defaults put the test-channel mutual
    information at exactly 0.25 bits/symbol, which keeps the +-0.25-bit
    rate offsets resolvable at block length 16.
    """

    codebook_rate: float
    block_length: int = 16
    source_variance: float = 2.0**0.5 - 1.0
    test_channel_distortion: float = 1.0
    typicality_epsilon: float = 0.46
    trials: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_count("block_length", self.block_length, 1)
        _check_count("trials", self.trials, 1)
        _check_count("seed", self.seed, 0)
        if not math.isfinite(self.codebook_rate):
            raise ValueError(f"codebook_rate must be finite, got {self.codebook_rate!r}")
        if self.codebook_rate < 0.0:
            raise ValueError("codebook_rate must be >= 0")
        if self.block_length * self.codebook_rate > 24.0 + 1e-9:
            raise ValueError("codebook would exceed the 2**24-entry cap")
        s2, d2 = self.source_variance, self.test_channel_distortion
        if not (0.0 < s2 < math.inf and 0.0 < d2 < math.inf):
            raise ValueError(f"source variance and distortion must be finite and > 0, "
                             f"got {s2!r} and {d2!r}")
        largest = _COVERAGE_HEADROOM * self.block_length * (s2 + d2)
        if not (math.isfinite(largest * max(1.0, s2, 1.0 / d2))
                and s2 * d2 >= sys.float_info.min):
            raise ValueError(f"the typicality statistics at source variance {s2!r} and "
                             f"distortion {d2!r} leave the range of normal floats")
        if not 0.0 < self.typicality_epsilon < math.inf:
            raise ValueError("typicality_epsilon must be finite and > 0, "
                             f"got {self.typicality_epsilon!r}")

    @property
    def mutual_information_bits(self) -> float:
        """I(Y;U) of the test channel, per symbol."""
        return 0.5 * math.log2(1.0 + self.source_variance / self.test_channel_distortion)

    @property
    def codewords(self) -> int:
        return max(1, round(2.0 ** (self.block_length * self.codebook_rate)))


class CoverageResult(NamedTuple):
    coverage: float
    hits: int
    trials: int
    codewords: int
    mutual_information_bits: float


_CODEBOOK_CHUNK = 1 << 16
_FIRST_CODEBOOK_CHUNK = 16


def coverage_experiment(cfg: CoverageConfig) -> CoverageResult:
    """Fraction of source draws covered by a jointly typical codeword.

    A pair (y, u) is epsilon-typical when the per-symbol empirical
    log-densities of y, of u, and of the pair under the test channel's
    joint law each sit within epsilon bits of the corresponding
    differential entropy.  A fresh codebook is drawn per trial in chunks of
    16, 32, 64, ... rows (capped at _CODEBOOK_CHUNK and at the codewords
    left), and drawing stops at the first chunk holding a typical
    codeword.  Philox yields the rows in sequence whatever the chunking, so
    the hits equal those of a full draw while a covered trial draws only
    a few rows and large codebooks never fully materialize.
    """
    n = cfg.block_length
    s2 = cfg.source_variance
    d2 = cfg.test_channel_distortion
    u_var = s2 + d2
    det = s2 * d2
    eps = cfg.typicality_epsilon
    M = cfg.codewords

    hits = 0
    for trial in range(cfg.trials):
        y = _stream(cfg.seed, trial, 0).standard_normal(n) * math.sqrt(s2)
        sy2 = float(y @ y)
        dev_y = (sy2 / n - s2) / (2.0 * s2 * _LN2)
        if abs(dev_y) >= eps:
            continue
        code_rng = _stream(cfg.seed, trial, 1)
        remaining = M
        chunk = _FIRST_CODEBOOK_CHUNK
        found = False
        while remaining > 0 and not found:
            m = min(remaining, chunk)
            remaining -= m
            chunk = min(2 * chunk, _CODEBOOK_CHUNK)
            U = code_rng.standard_normal((m, n)) * math.sqrt(u_var)
            su2 = np.einsum("ij,ij->i", U, U)
            dev_u = (su2 / n - u_var) / (2.0 * u_var * _LN2)
            quad = ((s2 + d2) * sy2 - 2.0 * s2 * (U @ y) + s2 * su2) / det
            dev_joint = (quad / n - 2.0) / (2.0 * _LN2)
            found = bool(np.any((np.abs(dev_u) < eps) & (np.abs(dev_joint) < eps)))
        if found:
            hits += 1
    return CoverageResult(
        coverage=hits / cfg.trials,
        hits=hits,
        trials=cfg.trials,
        codewords=M,
        mutual_information_bits=cfg.mutual_information_bits,
    )
