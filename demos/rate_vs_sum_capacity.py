"""Composite rate curve versus the total link budget c1 + c2.

With p_x = 1e8 and p_j = 1e4 the curve has three regimes separated by the
breakpoints 0.5*log2(p_x/p_j) and 0.5*log2(p_x*p_j):

  * below the first breakpoint local decoding forwards information bits
    only, one per link bit (slope 1);
  * between the breakpoints every extra message bit must be paired with a
    bit describing the interferer, so the slope halves;
  * past the second breakpoint the interference-free ceiling
    0.5*log2(1+p_x) takes over.

Equivalent CLI:  tworelay sweep --case c --px 1e8 --pj 1e4 --out sweep.csv
"""

import math

# tworelay first: loaded before numpy, it gets numpy's libm-exact loops, and the
# sweep one ufunc pass per grid; after numpy, libm runs once per element.
from tworelay import ScenarioCase, gaussian_mi, sweep_sum_capacity

import numpy as np

P_X, P_J = 1e8, 1e4
BP1 = 0.5 * math.log2(P_X / P_J)
BP2 = 0.5 * math.log2(P_X * P_J)
CEILING = gaussian_mi(P_X, 1.0)

print(f"breakpoints: {BP1:.3f} and {BP2:.3f} bits; ceiling {CEILING:.3f} bits")

for case in (ScenarioCase.CASE_B, ScenarioCase.CASE_C):
    points = sweep_sum_capacity(case, P_X, P_J, np.arange(0.0, 28.1, 0.5))
    print(f"\n--- case {case.value.upper()} ---")
    print("  sum    rate    scheme          split (c1, c2)    cutset   modulo")
    for pt in points[::4]:
        modulo = f"{pt.modulo:7.3f}" if pt.modulo is not None else "      -"
        print(
            f"  {pt.sum_capacity:5.1f} {pt.best_rate:7.3f}  {pt.winning_scheme.value:15s}"
            f" ({pt.c1:6.2f},{pt.c2:6.2f})   {pt.cutset:7.3f}  {modulo}"
        )

    sums = np.array([p.sum_capacity for p in points])
    rates = np.array([p.best_rate for p in points])
    low = (sums > 0.2) & (sums < BP1 - 0.2)
    mid = (sums > BP1 + 1.5) & (sums < BP2 - 1.5)
    slope_low = np.polyfit(sums[low], rates[low], 1)[0]
    slope_mid = np.polyfit(sums[mid], rates[mid], 1)[0]
    print(f"  fitted slopes: {slope_low:.3f} below the first breakpoint, "
          f"{slope_mid:.3f} between them")
    print(f"  final point sits {CEILING - rates[-1]:.3f} bits below the ceiling")
