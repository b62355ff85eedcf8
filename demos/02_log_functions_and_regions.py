"""Two-variable log functions: evaluation on branch triples and region series.

A LogFunction is a finite sum of monomials

    a * z1^r * z2^s * (z1-z2)^t * (log z1)^l * (log z2)^m * (log(z1-z2))^n

with a branch triple (p1, p2, p12) choosing a sheet for each log.  In
each of three overlapping regions the function has a convergent series
whose sum lands on a specific "designated" triple; this script prints the
convergence trend at one point per region.
"""

import cmath

from twistlab import (
    BranchTriple,
    LogFunction,
    LogMonomial,
    REGIONS,
    designated_triple,
    eval_branch2,
    expand_region,
    in_region,
)

f = LogFunction([
    LogMonomial(1.0, r=0.5, s=0.3, t=1.0 / 3.0, n=1),
    LogMonomial(0.5j, r=-0.5, t=1.5),
])

print("one function, several sheets at (z1, z2) = (2.5, 1.0):")
for bt in (BranchTriple(0, 0, 0), BranchTriple(1, 0, 0), BranchTriple(0, 0, 1)):
    v = eval_branch2(f, bt, 2.5, 1.0)
    print(f"  {tuple(bt)}  ->  {v:.9f}")
print()

points = {
    "product": (2.5 + 0.0j, 0.8 + 0.0j),
    "reversed": (0.5 * cmath.exp(0.2j), 1.7 * cmath.exp(3.3j)),
    "iterate": (2.0 + 0.5 * cmath.exp(0.4j), 2.0 + 0.0j),
}

bt = BranchTriple(1, 0, -1)
print(f"region series around the branch triple {tuple(bt)}:")
for region in REGIONS:
    z1, z2 = points[region]
    assert in_region(region, z1, z2, margin=0.05)
    target_bt = designated_triple(region, bt)
    target = eval_branch2(f, target_bt, z1, z2)
    small = {"product": z2, "reversed": z1, "iterate": z1 - z2}[region]
    large = {"product": z1, "reversed": z2, "iterate": z2}[region]
    print(f"  {region:<9} designated {tuple(target_bt)}  "
          f"point ratio {abs(small) / abs(large):.2f}")
    for order in (4, 12, 30, 60):
        approx = expand_region(f, region, bt, order).eval(z1, z2)
        rel = abs(approx - target) / max(1.0, abs(target))
        print(f"    order {order:>2}:  relative defect {rel:.3e}")
print()

exp_f = expand_region(f, "product", bt, 12)
keys = exp_f.keys
print(f"group structure of the product series (order 12): {len(keys)} groups")
print("  first keys:", ", ".join(f"{k.real:+.3f}{k.imag:+.3f}j" for k in keys[:5]))
