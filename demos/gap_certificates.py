"""Certify the constant-bit gaps between achievable rates and outer bounds.

The inner and outer bounds are generally loose, but with the link
capacities pinned to each scenario's natural coupling the gap stays below
a small constant at every power, which is what pins down the scaling laws.
We sweep decade grids over p_x, p_j in [10, 1e9] and report the observed
maxima next to the certified constants.

Equivalent CLI:  tworelay gaps --case c   (exit code 3 would flag a violation)
"""

from tworelay import ScenarioCase, certify_gaps

A, B, C = ScenarioCase.CASE_A, ScenarioCase.CASE_B, ScenarioCase.CASE_C

print("grid certification over p_x, p_j in [10, 1e9], 5 points/decade:\n")
print("  case  regime               points   max gap   certified")
for case in (A, B, C):
    for cert in certify_gaps(case):
        flag = "ok" if cert.satisfied else "VIOLATED"
        print(
            f"  {case.value:4s}  {cert.regime:18s} {len(cert.grid):7d}"
            f"   {cert.max_gap:7.4f}   <= {cert.claimed_bound:<6g} {flag}"
        )

print("\nspot checks at single operating points:")
for label, cert in (
    ("A, strong interferer  ", certify_gaps(A, [100.0], [1000.0])[0]),
    ("A, weak interferer    ", certify_gaps(A, [1000.0], [100.0])[0]),
    ("B                     ", certify_gaps(B, [1e4], [1e3])[0]),
    ("C vs modulo bound     ", certify_gaps(C, [1e6], [1e3])[0]),
    ("C vs cut-set bound    ", certify_gaps(C, [1e3], [1e7])[0]),
):
    print(f"  {label} gap {cert.max_gap:.4f} <= {cert.claimed_bound} ({cert.bound_used})")
