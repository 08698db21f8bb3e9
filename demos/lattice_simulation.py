"""Monte Carlo check of the dithered modulo-lattice relay scheme.

One million samples through the actual scalar-lattice pipeline confirm
the three facts the closed forms rely on:

  1. the destination's combiner output equals (message + equivalent
     noise) mod cell, sample by sample, to floating-point accuracy;
  2. the equivalent-noise power matches its closed form, and does not
     move when the interferer switches distribution at equal power;
  3. the dither makes the channel input uniform over the cell and
     statistically blind to the message.

Equivalent CLI:  tworelay simulate --case b --px 15 --pj 15 --c1 2 --c2 1 \
                     --samples 1000000 --seed 1
"""

import math
from dataclasses import replace

from tworelay import SimConfig, crypto_lemma_check, gaussian_mi, run_lattice_sim
from tworelay.achievable import side_information_power

for case in ("b", "c"):
    cfg = SimConfig(case=case, p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1)
    alpha, p_d1, p_d2, _ = cfg.scheme()
    stats = run_lattice_sim(cfg)
    print(f"=== case {case.upper()}  (alpha={alpha:.4f}, p_d1={p_d1:.4g}, p_d2={p_d2:.4g}) ===")
    print(f"  var(n_eq) empirical / analytic : {stats.empirical_var_neq:.4f} / "
          f"{stats.analytic_var_neq:.4f}")
    print(f"  modulo identity max residual   : {stats.identity_max_residual:.2e}"
          f"  ({stats.identity_max_residual / stats.cell_length:.1e} cells)")
    print(f"  dither uniformity p-value      : {stats.dither_uniformity_pvalue:.3f}")
    print(f"  corr(channel input, message)   : {stats.x_v_correlation:+.5f}"
          f"  (3-sigma band {3 / math.sqrt(stats.samples):.5f})")
    print(f"  rate estimate from variance    : {stats.rate_estimate:.4f} bits\n")

print("interferer robustness (case B, same seed, equal power):")
base = run_lattice_sim(SimConfig(case="b", p_x=15, p_j=15, c1=2, c2=1,
                                 samples=10**6, seed=1))
for kind in ("gaussian", "uniform", "bpsk"):
    stats = run_lattice_sim(
        replace(SimConfig(case="b", p_x=15, p_j=15, c1=2, c2=1, samples=10**6, seed=1),
                interferer=kind)
    )
    print(f"  {kind:9s} var(n_eq) = {stats.empirical_var_neq:.6f}")

print("\ndither statistics on the unit cell (p_x = 1/12):")
plain = crypto_lemma_check(1 / 12, 2 * 10**5, seed=5)
frozen = crypto_lemma_check(1 / 12, 2 * 10**5, seed=5, hold_message_constant=True)
naked = crypto_lemma_check(1 / 12, 2 * 10**5, seed=5, disable_dither=True)
print(f"  dithered          : p = {plain.uniformity_pvalue:.3f}, "
      f"corr = {plain.x_v_correlation:+.4f}")
print(f"  constant message  : p = {frozen.uniformity_pvalue:.3f} (still uniform)")
print(f"  dither disabled   : corr = {naked.x_v_correlation:+.4f} (input leaks message)")

# Relay 2's binned description is resolved against the sum signal of power s, so
# it needs 0.5*log2(1 + min(p_x, s)/p_d2) bits; the allocation spends c2 exactly.
cfg_c = SimConfig(case="c", p_x=15, p_j=15, c1=2, c2=1, samples=10, seed=1)
alpha, p_d1, p_d2, _ = cfg_c.scheme()
side_power = float(side_information_power(cfg_c.p_x, cfg_c.p_j, alpha, p_d1, cfg_c.p_n1,
                                          cfg_c.p_n2, cfg_c.a + cfg_c.b))
print("\nrelay-2 description-rate budget (case C):")
for label, distortion in (("allocated p_d2", p_d2), ("p_d2 halved", p_d2 / 2)):
    required = gaussian_mi(min(cfg_c.p_x, side_power), distortion)
    print(f"  {label:14s}: required {required:.4f} bits <= link {cfg_c.c2} : "
          f"{required <= cfg_c.c2 + 1e-9}")
