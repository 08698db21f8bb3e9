"""Pre-log scaling laws: how fast the rate grows with log2(p_x).

Tying the link capacities to the transmit power the way each scenario
demands keeps the rate growing like 0.5*log2(p_x), exactly as if there
were no interferer.  Cutting those capacities by 20% visibly drags the
pre-log below one half: the couplings are necessary, not just convenient.

Two corollaries close the story: the destination must learn
~0.5*log2(min(p_x, p_j)) bits' worth about the interferer, and in Case C
the cut-set bound alone is strictly loose (the modulo bound has the
smaller pre-log at that operating point).

Equivalent CLI:  tworelay scaling --case b --coupling pj=px --exponents 10:40
"""

from tworelay import (
    ScenarioCase,
    cutset_looseness_demo,
    estimate_prelog,
    interference_info_lower_bound,
    coupled_capacity_rate_fn,
)

print("pre-log of the best achievable rate, p_j tied to p_x, exponents 10..40:\n")
print("  case   coupled capacities   capacities x0.8")
for case in (ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C):
    full = estimate_prelog(coupled_capacity_rate_fn(case)).prelog
    reduced = estimate_prelog(coupled_capacity_rate_fn(case, capacity_scale=0.8)).prelog
    print(f"  {case.value:4s}   {full:8.4f}             {reduced:8.4f}")

print("\nratio vs finite differences (Case A): the raw ratio converges slowly")
for method in ("finite_difference", "ratio"):
    est = estimate_prelog(coupled_capacity_rate_fn(ScenarioCase.CASE_A), method=method)
    print(f"  {method:18s} -> {est.prelog:.4f}")

print("\ninterferer information floor 0.5*log2(px*pj/(px+pj)):")
for p_x, p_j in ((15, 15), (1e6, 100), (100, 1e6)):
    print(f"  px={p_x:<8g} pj={p_j:<8g} -> {interference_info_lower_bound(p_x, p_j):.4f} bits")

cutset, modulo = cutset_looseness_demo()
print("\ncut-set looseness at p_j = sqrt(p_x), c1 = c2 = 0.25*log2(p_x), exponents 10..40:")
print(f"  cut-set bound pre-log  {cutset.prelog:.4f}")
print(f"  modulo bound pre-log   {modulo.prelog:.4f}   (strictly smaller)")
