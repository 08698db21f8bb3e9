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
form, dither statistics (X uniform on the cell and uncorrelated with V),
and the variance-based rate estimate 0.5*log2(p_x / var(n_eq)).

Reproducibility contract: every random variable of every fixed-size batch
draws from its own counter-based Philox stream keyed by
(seed, batch_index, variable), and moments are reduced with exact
summation, so results are bit-identical regardless of evaluation order and
the interferer's distribution can be swapped without disturbing any other
draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy import stats

from .achievable import (
    distortion_relay1,
    distortion_relay2_case_b,
    distortion_relay2_case_c,
    equivalent_noise_power,
    mmse_alpha,
    side_information_power,
)
from .model import _CASE_FIXED, ScenarioCase

#: Fixed batch size; part of the determinism contract (changing it changes
#: the streams, so it is a module constant rather than a config knob).
BATCH_SIZE = 1 << 16

#: Number of histogram bins for the dither-uniformity test.
UNIFORMITY_BINS = 64

_INTERFERERS = ("gaussian", "uniform", "bpsk")

# stream indices per random variable
_VAR_V, _VAR_U, _VAR_J, _VAR_N1, _VAR_N2, _VAR_D1, _VAR_D2 = range(7)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one lattice-scheme simulation run.

    `case` is "b", "c" or "general"; the canonical cases fix the gains and
    noise powers, while "general" takes explicit `a` and `b`.  A link with
    INFINITE_CAPACITY disables the corresponding quantizer (zero
    distortion); a finite link must have positive capacity.  `interferer`
    switches the interferer's distribution ("gaussian", "uniform", "bpsk")
    at fixed power, leaving all other draws untouched.
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
        if not self.p_x > 0.0 or not math.isfinite(self.p_x):
            raise ValueError("simulation needs a finite p_x > 0 (the cell scales with it)")
        for name in ("p_j", "p_n1", "p_n2"):
            v = getattr(self, name)
            if not v >= 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("c1", "c2"):
            c = getattr(self, name)
            if math.isinf(c) and c > 0:
                continue  # quantizer disabled
            if not c > 0.0:
                raise ValueError(f"{name} must be > 0 when its quantizer is active, got {c!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.interferer not in _INTERFERERS:
            raise ValueError(f"interferer must be one of {_INTERFERERS}")

    @property
    def cell_length(self) -> float:
        return math.sqrt(12.0 * self.p_x)

    def scheme_parameters(self) -> tuple[float, float, float]:
        """(alpha, p_d1, p_d2) used by the relays in this run."""
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
                self.p_x, self.p_j, self.c2, alpha, p_d1,
                self.p_n1, self.p_n2, gain_sum=self.a + self.b,
            )
        return alpha, p_d1, p_d2

    def analytic_var_neq(self) -> float:
        alpha, p_d1, p_d2 = self.scheme_parameters()
        return equivalent_noise_power(
            self.p_x, self.p_n1, self.p_n2, alpha, p_d1, p_d2, self.a - self.b
        )


@dataclass(frozen=True)
class SimStats:
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


def centered_mod(x: np.ndarray | float, cell: float) -> np.ndarray | float:
    """Reduce into [-cell/2, cell/2); a tie at +cell/2 maps to -cell/2."""
    return x - cell * np.floor(x / cell + 0.5)


def _stream(seed: int, batch: int, var: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch, var))
    return np.random.Generator(np.random.Philox(seq))


def _batches(samples: int) -> Iterator[tuple[int, int]]:
    start = 0
    batch = 0
    while start < samples:
        yield batch, min(BATCH_SIZE, samples - start)
        start += BATCH_SIZE
        batch += 1


def _draw_interferer(rng: np.random.Generator, kind: str, p_j: float, m: int) -> np.ndarray:
    if p_j == 0.0:
        return np.zeros(m)
    if kind == "gaussian":
        return rng.standard_normal(m) * math.sqrt(p_j)
    if kind == "uniform":
        half_width = math.sqrt(3.0 * p_j)
        return rng.uniform(-half_width, half_width, m)
    return (2.0 * rng.integers(0, 2, m) - 1.0) * math.sqrt(p_j)


def _scaled_normal(rng: np.random.Generator, power: float, m: int) -> np.ndarray:
    if power == 0.0:
        return np.zeros(m)
    return rng.standard_normal(m) * math.sqrt(power)


def _accumulate_dither(x, v, edges, hist, sums) -> None:
    """Add one batch's histogram counts of x and its x/v moment sums."""
    hist += np.histogram(x, bins=edges)[0]
    for key, arr in (("x", x), ("v", v), ("xv", x * v), ("x2", x * x), ("v2", v * v)):
        sums[key].append(float(arr.sum()))


def _dither_summary(hist: np.ndarray, sums: dict, n: int) -> tuple[float, float]:
    """Chi-square uniformity p-value of the histogram and the x-v correlation."""
    total = {k: math.fsum(sums[k]) for k in ("x", "v", "xv", "x2", "v2")}
    cov_xv = total["xv"] - total["x"] * total["v"] / n
    var_x = total["x2"] - total["x"] ** 2 / n
    var_v = total["v2"] - total["v"] ** 2 / n
    corr = cov_xv / math.sqrt(var_x * var_v) if var_x > 0.0 and var_v > 0.0 else math.nan
    expected = n / UNIFORMITY_BINS
    chi2_stat = float(((hist - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi2_stat, UNIFORMITY_BINS - 1)), corr


def run_lattice_sim(cfg: SimConfig) -> SimStats:
    """Run the dithered modulo-lattice scheme and verify its bookkeeping.

    Raises:
        ValueError: if any simulated sample is non-finite (the run aborts
            rather than report corrupted statistics).
    """
    alpha, p_d1, p_d2 = cfg.scheme_parameters()
    analytic = cfg.analytic_var_neq()
    L = cfg.cell_length
    delta = cfg.a - cfg.b
    edges = np.linspace(-L / 2.0, L / 2.0, UNIFORMITY_BINS + 1)

    max_residual = 0.0
    hist = np.zeros(UNIFORMITY_BINS, dtype=np.int64)
    sums: dict[str, list[float]] = {k: [] for k in ("neq", "neq2", "x", "v", "xv", "x2", "v2")}

    for batch, m in _batches(cfg.samples):
        v = _stream(cfg.seed, batch, _VAR_V).uniform(-L / 2.0, L / 2.0, m)
        u = _stream(cfg.seed, batch, _VAR_U).uniform(-L / 2.0, L / 2.0, m)
        x = centered_mod(v - u, L)
        j = _draw_interferer(_stream(cfg.seed, batch, _VAR_J), cfg.interferer, cfg.p_j, m)
        n1 = _scaled_normal(_stream(cfg.seed, batch, _VAR_N1), cfg.p_n1, m)
        n2 = _scaled_normal(_stream(cfg.seed, batch, _VAR_N2), cfg.p_n2, m)
        d1 = _scaled_normal(_stream(cfg.seed, batch, _VAR_D1), p_d1, m)
        d2 = _scaled_normal(_stream(cfg.seed, batch, _VAR_D2), p_d2, m)

        y1 = cfg.a * x + j + n1
        y2 = cfg.b * x + j + n2
        w1 = centered_mod(alpha * y1, L) + d1
        w2 = centered_mod(alpha * y2, L) + d2
        combined = centered_mod(w1 - w2 + u, L)

        neq = alpha * (n1 - n2) + d1 - d2 - (1.0 - alpha * delta) * x
        predicted = centered_mod(v + neq, L)
        if not (np.all(np.isfinite(combined)) and np.all(np.isfinite(neq))):
            raise ValueError(f"non-finite samples in batch {batch}; aborting")
        gap = np.abs(combined - predicted)
        residual = np.minimum(gap, L - gap)  # distance on the cell circle
        max_residual = max(max_residual, float(residual.max()))

        _accumulate_dither(x, v, edges, hist, sums)
        for key, arr in (("neq", neq), ("neq2", neq * neq)):
            sums[key].append(float(arr.sum()))

    n = cfg.samples
    neq_sum, neq2_sum = math.fsum(sums["neq"]), math.fsum(sums["neq2"])
    var_neq = (neq2_sum - neq_sum**2 / n) / max(n - 1, 1)
    pvalue, corr = _dither_summary(hist, sums, n)
    rate = 0.5 * math.log2(cfg.p_x / var_neq) if var_neq > 0.0 else math.inf
    return SimStats(
        empirical_var_neq=var_neq,
        analytic_var_neq=analytic,
        identity_max_residual=max_residual,
        dither_uniformity_pvalue=pvalue,
        x_v_correlation=corr,
        rate_estimate=rate,
        samples=n,
        seed=cfg.seed,
        cell_length=L,
    )


# ---------------------------------------------------------------------------
# Dither (crypto lemma) statistics


@dataclass(frozen=True)
class CryptoLemmaStats:
    """Uniformity and independence statistics of X = (V - U) mod cell."""

    uniformity_pvalue: float
    x_v_correlation: float
    samples: int
    seed: int


def crypto_lemma_check(
    p_x: float,
    samples: int,
    seed: int,
    hold_message_constant: bool = False,
    disable_dither: bool = False,
) -> CryptoLemmaStats:
    """Check that the dither makes the channel input uniform and message-blind.

    X = (V - U) mod cell must be uniform over the cell whatever the
    message distribution (even a constant V), and uncorrelated with V.
    Disabling the dither (U = 0) is the negative control: X = V stays
    uniform for a uniform message but becomes fully correlated with it.

    Requires samples >= 1e5 so the chi-square bins are well populated.
    """
    if samples < 10**5:
        raise ValueError("crypto-lemma statistics need at least 1e5 samples")
    if not p_x > 0.0:
        raise ValueError("p_x must be > 0")
    L = math.sqrt(12.0 * p_x)
    edges = np.linspace(-L / 2.0, L / 2.0, UNIFORMITY_BINS + 1)
    hist = np.zeros(UNIFORMITY_BINS, dtype=np.int64)
    sums = {k: [] for k in ("x", "v", "xv", "x2", "v2")}
    for batch, m in _batches(samples):
        if hold_message_constant:
            v = np.full(m, L / 4.0)
        else:
            v = _stream(seed, batch, _VAR_V).uniform(-L / 2.0, L / 2.0, m)
        if disable_dither:
            u = np.zeros(m)
        else:
            u = _stream(seed, batch, _VAR_U).uniform(-L / 2.0, L / 2.0, m)
        x = centered_mod(v - u, L)
        _accumulate_dither(x, v, edges, hist, sums)
    pvalue, corr = _dither_summary(hist, sums, samples)
    return CryptoLemmaStats(
        uniformity_pvalue=pvalue, x_v_correlation=corr, samples=samples, seed=seed
    )


# ---------------------------------------------------------------------------
# Slepian-Wolf rate accounting


@dataclass(frozen=True)
class SlepianWolfCheck:
    """Self-consistency of the Case C relay-2 description-rate budget."""

    required_rate: float
    link_capacity: float
    satisfied: bool
    p_d2: float


def sw_rate_check(cfg: SimConfig, p_d2_override: float | None = None) -> SlepianWolfCheck:
    """Verify the binned description of relay 2 fits into its link.

    Checks 0.5*log2(1 + min(p_x, s) / p_d2) <= c2 for the allocated (or
    overridden) p_d2, with s the `side_information_power` that the
    allocation in `distortion_relay2_case_c` uses.  The allocation itself
    meets the constraint with equality; halving p_d2 must violate it.
    Binning codes are not simulated, only their rate budget is checked.
    """
    if cfg.case != "c":
        raise ValueError("the description-rate check applies to Case C configs")
    alpha, p_d1, p_d2 = cfg.scheme_parameters()
    if p_d2_override is not None:
        p_d2 = p_d2_override
    if not p_d2 > 0.0:
        raise ValueError("p_d2 must be > 0")
    side_power = side_information_power(
        cfg.p_x, cfg.p_j, alpha, p_d1, cfg.p_n1, cfg.p_n2, cfg.a + cfg.b
    )
    required = 0.5 * math.log1p(min(cfg.p_x, side_power) / p_d2) / math.log(2.0)
    return SlepianWolfCheck(
        required_rate=required,
        link_capacity=cfg.c2,
        satisfied=required <= cfg.c2 + 1e-9,
        p_d2=p_d2,
    )


# ---------------------------------------------------------------------------
# Random-codebook coverage experiment


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
        if self.block_length < 1 or self.trials < 1:
            raise ValueError("block_length and trials must be >= 1")
        if self.codebook_rate < 0.0:
            raise ValueError("codebook_rate must be >= 0")
        if self.block_length * self.codebook_rate > 24.0 + 1e-9:
            raise ValueError("codebook would exceed the 2**24-entry cap")
        if not (self.source_variance > 0.0 and self.test_channel_distortion > 0.0):
            raise ValueError("source variance and distortion must be > 0")
        if not self.typicality_epsilon > 0.0:
            raise ValueError("typicality_epsilon must be > 0")

    @property
    def mutual_information_bits(self) -> float:
        """I(Y;U) of the test channel, per symbol."""
        return 0.5 * math.log2(1.0 + self.source_variance / self.test_channel_distortion)

    @property
    def codewords(self) -> int:
        return max(1, round(2.0 ** (self.block_length * self.codebook_rate)))


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    hits: int
    trials: int
    codewords: int
    mutual_information_bits: float


_CODEBOOK_CHUNK = 1 << 16


def coverage_experiment(cfg: CoverageConfig) -> CoverageResult:
    """Fraction of source draws covered by a jointly typical codeword.

    A pair (y, u) is epsilon-typical when the per-symbol empirical
    log-densities of y, of u, and of the pair under the test channel's
    joint law each sit within epsilon bits of the corresponding
    differential entropy.  A fresh codebook is drawn per trial; generation
    is chunked so large codebooks never fully materialize.
    """
    n = cfg.block_length
    s2 = cfg.source_variance
    d2 = cfg.test_channel_distortion
    u_var = s2 + d2
    det = s2 * d2
    eps = cfg.typicality_epsilon
    ln2 = math.log(2.0)
    M = cfg.codewords

    hits = 0
    for trial in range(cfg.trials):
        y = _stream(cfg.seed, trial, 0).standard_normal(n) * math.sqrt(s2)
        sy2 = float(y @ y)
        dev_y = (sy2 / n - s2) / (2.0 * s2 * ln2)
        if abs(dev_y) >= eps:
            continue
        code_rng = _stream(cfg.seed, trial, 1)
        remaining = M
        found = False
        while remaining > 0 and not found:
            m = min(remaining, _CODEBOOK_CHUNK)
            remaining -= m
            U = code_rng.standard_normal((m, n)) * math.sqrt(u_var)
            su2 = np.einsum("ij,ij->i", U, U)
            dev_u = (su2 / n - u_var) / (2.0 * u_var * ln2)
            quad = ((s2 + d2) * sy2 - 2.0 * s2 * (U @ y) + s2 * su2) / det
            dev_joint = (quad / n - 2.0) / (2.0 * ln2)
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


def with_interferer(cfg: SimConfig, kind: str) -> SimConfig:
    """Same run with the interferer distribution swapped at equal power."""
    return replace(cfg, interferer=kind)
