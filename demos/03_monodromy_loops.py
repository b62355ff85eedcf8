"""Continuation along paths and loop monodromy.

continue_along transports a branch triple along a piecewise path by
counting signed crossings of the positive real axis for z1, z2 and
z1 - z2, and certifies the result against an internal continuous-phase
evaluation.  Closed loops therefore act on the sheet indices; this script
shows a single-turn loop, two homotopic loops agreeing, and the loop
effect matching the composed automorphism of a scenario family.
"""

import math

from twistlab import (
    Arc,
    BranchTriple,
    LogFunction,
    LogMonomial,
    PathSpec,
    continue_along,
    eval_branch2,
    make_random,
    monodromy_loops,
    oracle_continue,
    winding_profile,
)

f = LogFunction([LogMonomial(1.0, t=1.0 / 3.0)])
loop = PathSpec(2.5, 1.0, [Arc("z1", turns=1.0, about="other")])

print("z1 circles z2 once counterclockwise; start (z1, z2) = (2.5, 1.0)")
res = continue_along(f, BranchTriple(0, 0, 0), loop)
print(f"  windings (z1, z2, z1-z2): {winding_profile(loop)}")
print(f"  branch triple: (0, 0, 0) -> {tuple(res.end_triple)}")
start_value = eval_branch2(f, BranchTriple(0, 0, 0), loop.z1, loop.z2)
print(f"  value: {start_value:.9f} -> {res.end_value:.9f}")
print(f"  certificate {res.certificate:.2e} over {res.samples} samples")
print(f"  cube root of 1.5 times a third turn: "
      f"{1.5 ** (1 / 3) * math.cos(2 * math.pi / 3):+.9f}"
      f"{1.5 ** (1 / 3) * math.sin(2 * math.pi / 3):+.9f}j")
print()

print("two homotopic clockwise loops transport every function identically")
loop_a, loop_b = monodromy_loops()
print(f"  loop A: {len(loop_a.moves)} move, loop B: {len(loop_b.moves)} moves, "
      f"both wind {winding_profile(loop_a)}")
g = LogFunction([
    LogMonomial(1.0, r=0.5, t=1.0 / 3.0, n=1),
    LogMonomial(0.25j, s=-0.5, m=1),
])
bt = BranchTriple(0, 0, 0)
res_a = continue_along(g, bt, loop_a)
res_b = continue_along(g, bt, loop_b)
gap = abs(res_a.end_value - res_b.end_value) / max(1.0, abs(res_a.end_value))
print(f"  end triples {tuple(res_a.end_triple)} and {tuple(res_b.end_triple)}, "
      f"value gap {gap:.2e}")
ora = oracle_continue(g, bt, loop_a)
print(f"  independent phase-unwrapping oracle gap "
      f"{abs(ora - res_a.end_value) / max(1.0, abs(ora)):.2e}")
print()

print("the loop acts like the composed automorphism g3 = g1 * g2")
sc = make_random(7)
print(f"  scenario {sc.name}: {sc.dim} labels, branch triple {tuple(sc.bt)}")
start = (complex(loop_a.z1), complex(loop_a.z2))
for i, fn in enumerate(sc.fam.functions):
    res = continue_along(fn, sc.bt, loop_a)
    lowered = eval_branch2(fn, res.end_triple, *start)
    via_g3 = eval_branch2(sc.fam.apply(sc.fam.action.g3, i), sc.bt, *start)
    gap = abs(lowered - via_g3) / max(1.0, abs(lowered), abs(via_g3))
    print(f"  label {i + 1}: lowered-triple value vs g3-moved value, gap {gap:.2e}")
print(f"  |g3 - g1 g2| = {sc.fam.action.composition_defect():.1e}")
