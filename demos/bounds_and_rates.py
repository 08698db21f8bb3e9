"""Walk through the three canonical scenarios at one operating point.

A transmitter at 11.8 dB (p_x = 15) is received by two relays together
with an equally strong unknown interferer (p_j = 15).  We print, for each
scenario, every outer bound and every achievable rate the package knows,
and watch how much of the gap the lattice scheme closes.

Equivalent CLI:  tworelay bounds --case b --px 15 --pj 15 --c1 2 --c2 1
"""

from tworelay import (
    ScenarioCase,
    achievable_case_a,
    achievable_case_b,
    achievable_case_c,
    best_achievable,
    local_decode_baseline,
    make_preset,
    outer_bounds,
)

P_X, P_J = 15.0, 15.0
C1, C2 = 2.0, 1.0


def show(title, bound_report, reports):
    print(f"\n=== {title} ===")
    for label, value in bound_report.terms:
        print(f"  bound   {label:18s} {value:8.5f}")
    if bound_report.modulo_bound is not None:
        print(f"  bound   {'modulo':18s} {bound_report.modulo_bound:8.5f}")
    print(f"  bound   {'binding':18s} {bound_report.binding:8.5f}")
    for label, rep in reports:
        extra = ""
        if rep.alpha is not None:
            extra = f"  (alpha={rep.alpha:.4f}, p_d1={rep.p_d1:.4g}, p_d2={rep.p_d2:.4g})"
        print(f"  rate    {label:18s} {rep.rate:8.5f}{extra}")


# Case A: the destination observes the interfered signal directly and the
# second relay forwards a description of the interferer alone.
cfg = make_preset(ScenarioCase.CASE_A, P_X, P_J, c2=C2)
show(
    "Case A (interferer relayed over c2=1)",
    outer_bounds(cfg, ScenarioCase.CASE_A),
    [("lattice scheme", achievable_case_a(P_X, P_J, C2))],
)

# Case B: the interfered observation now also crosses a finite link.
cfg = make_preset(ScenarioCase.CASE_B, P_X, P_J, c1=C1, c2=C2)
show(
    "Case B (both links finite)",
    outer_bounds(cfg, ScenarioCase.CASE_B),
    [
        ("lattice scheme", achievable_case_b(P_X, P_J, C1, C2)),
        ("local decoding", local_decode_baseline(ScenarioCase.CASE_B, P_X, P_J, C1)),
        ("best", best_achievable(cfg)),
    ],
)

# Case C: both relays hear signal plus interferer in anti-phase; the
# destination subtracts their descriptions to cancel the interferer, and a
# modulo bound tightens the cut-set bound.
cfg = make_preset(ScenarioCase.CASE_C, P_X, P_J, c1=C1, c2=C2)
bounds_c = outer_bounds(cfg, ScenarioCase.CASE_C)
show(
    "Case C (two interfered receptions)",
    bounds_c,
    [
        ("closed form", achievable_case_c(P_X, P_J, C1, C2, "prop")),
        ("derived form", achievable_case_c(P_X, P_J, C1, C2, "derived")),
        ("local decoding", local_decode_baseline(ScenarioCase.CASE_C, P_X, P_J, C1, C2)),
        ("best", best_achievable(cfg)),
    ],
)

# The joint-processing cut i(x;y1,y2) is what full cooperation (both links
# unlimited) would reach: subtracting the receptions removes the interferer.
print("\nFull cooperation (both links unlimited) would reach "
      f"{bounds_c.term('i(x;y1,y2)'):.5f} bits per channel use.")
