"""Exchange and contragredient transforms on formal log functions.

omega_transform trades the two insertion slots: the transformed function
at (z1, z2) equals the original at (z1 - z2, -z2) with the outer branch
indices swapped, for a sign matching the side of the cut z2 sits on.
a_transform inverts the variables: combined with the quasi-primary weight
factors it relates values at (z1, z2) to values at (1/z1, 1/z2) on a
reflected branch triple.  Both transforms are exact rewrites of the term
list, and the opposite sign undoes them term for term.
"""

import cmath
from fractions import Fraction

from twistlab import (
    BranchTriple,
    LogFunction,
    LogMonomial,
    QuasiPrimaryData,
    a_eval_relations,
    a_transform,
    eval_branch2,
    inv_branch,
    omega_transform,
    q_offset_product,
    quasi_primary_modify,
    quasi_primary_unmodify,
    term_distance,
)

f = LogFunction([
    LogMonomial(1.0, r=0.5, s=0.3, t=1.0 / 3.0, n=1),
    LogMonomial(0.5 - 0.25j, r=1.5, s=-0.7, t=4.0 / 3.0),
])
qp = QuasiPrimaryData(1, Fraction(3, 4))

print("exchange: g = omega_transform(f, +1)")
g = omega_transform(f, +1)
print(f"  f has {len(f.terms)} terms, g has {len(g.terms)} terms")
for term in g.terms:
    print(f"    coeff {term.coeff:+.6f}  exps ({term.r}, {term.s}, {term.t})"
          f"  logs ({term.l}, {term.m}, {term.n})")

P = BranchTriple(1, 0, -1)
z1 = 1.6 * cmath.exp(0.9j)
z2 = 0.8 * cmath.exp(1.4j)
lhs = eval_branch2(g, P, z1, z2)
rhs = eval_branch2(f, BranchTriple(P.p12, P.p2, P.p1), z1 - z2, -z2)
print(f"  relocation law at generic (z1, z2) with arg z2 below pi:")
print(f"    g on (P1, P2, P12)      = {lhs:.9f}")
print(f"    f on (P12, P2, P1) at (z1 - z2, -z2) = {rhs:.9f}")
print(f"    relative gap {abs(lhs - rhs) / max(1.0, abs(lhs)):.2e}")
back = omega_transform(g, -1)
print(f"  involution: term distance back to f = {term_distance(back, f):.2e}")
print()

print("contragredient: h = a_transform(weighted f, +1)")
fmod = quasi_primary_modify(f, qp, +1)
h = a_transform(fmod, +1)
print(f"  weighted f has {len(fmod.terms)} terms, h has {len(h.terms)} terms")
z1 = 1.5 * cmath.exp(1.2j)
z2 = 0.7 * cmath.exp(5.0j)
q = q_offset_product(z1, z2)
p12 = P.p12 - P.p1 - P.p2 - q
inv_bt = BranchTriple(inv_branch(P.p1, z1), inv_branch(P.p2, z2), p12)
lhs = eval_branch2(h, P, z1, z2)
rhs = eval_branch2(fmod, inv_bt, 1.0 / z1, 1.0 / z2)
print(f"  inversion law with product offset q = {q}:")
print(f"    h at (z1, z2) on {tuple(P)}        = {lhs:.9f}")
print(f"    weighted f at (1/z1, 1/z2) on {tuple(inv_bt)} = {rhs:.9f}")
print(f"    relative gap {abs(lhs - rhs) / max(1.0, abs(lhs)):.2e}")
back = quasi_primary_unmodify(a_transform(h, -1), qp, +1)
print(f"  full pipeline back to f: term distance {term_distance(back, f):.2e}")
print()

print("one-variable shadow relation, both signs, on and off the cut")
for sign in (+1, -1):
    for z in (1.3 + 0.0j, 0.9 * cmath.exp(2.2j)):
        d = a_eval_relations(f, qp, [(1, z)], sign)[0]
        tag = "on axis" if z.imag == 0 else "generic"
        print(f"  sign {sign:+d}, {tag} z = {z:.3f}: defect {d:.2e}")
