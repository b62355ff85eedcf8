"""Exchange and contragredient transforms of logarithmic functions.

A correlation family packages one LogFunction per basis label of a probe
space together with three automorphism matrices (g1, g2, g3 = g1*g2).
The two shift identities tie branch-index moves to automorphism action:

    eval(f(g1 u), (p1, p2, p12+1), z1, z2) = eval(f(u), (p1, p2, p12), z1, z2)
    eval(f(g2 u), (p1+1, p2, p12), z1, z2) = eval(f(u), (p1, p2, p12), z1, z2)

Families built by the models module satisfy both by construction; check_shifts
measures both defects for any family in one kernel call (check_g1_shift and
check_g2_shift each return one of them).

omega_transform is the exchange rewrite: it swaps the roles of the two
insertions, sending a monomial

    a z1^r z2^s (z1-z2)^t (log z1)^l (log z2)^m (log(z1-z2))^n

to  e^{+-s*pi*i} a (z1-z2)^r z2^s z1^t (log(z1-z2))^l (log z2 +- pi*i)^m (log z1)^n,

expanded back into canonical monomials.  a_transform is the contragredient
rewrite z -> 1/z on both variables:

    e^{+-t*pi*i} a z1^{-(r+t)} z2^{-(s+t)} (z1-z2)^t
        (-log z1)^l (-log z2)^m (log(z1-z2) - log z1 - log z2 +- pi*i)^n.

quasi_primary_modify inserts the weight factors that accompany the
contragredient construction for a quasi-primary probe of weight wt_u and a
first module of weight h1.  The two rewrites are exact involutions
(opposite signs compose to the identity on canonical forms).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .branchcalc import inv_branch, lp
from .logfun import (
    BranchTriple,
    LogFunction,
    LogMonomial,
    SERIES_BUDGET,
    eval_branch2,
    eval_parts,
    normalize,
    point_logs,
    relative_gap,
)

PI_I = complex(0.0, math.pi)


def _sign_value(sign) -> int:
    if sign in (1, -1):
        return 1 if sign == 1 else -1
    raise ValueError(f"sign must be 1 or -1, got {sign!r}")


@dataclass(eq=False)
class AutomorphismAction:
    """Automorphism matrices acting on the probe labels, with g3 = g1*g2.

    phases1/2, when present, give exact diagonal phases: g_k is the
    diagonal matrix with entries exp(2*pi*i*phases_k[j]), each phase a
    Fraction taken mod 1.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    phases1: tuple[Fraction, ...] | None = None
    phases2: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        self.g1 = np.asarray(self.g1, dtype=complex)
        self.g2 = np.asarray(self.g2, dtype=complex)
        self.g3 = np.asarray(self.g3, dtype=complex)

    @property
    def dim(self) -> int:
        return self.g1.shape[0]

    def composition_defect(self) -> float:
        """Max entry gap between g3 and g1 @ g2."""
        return float(np.max(np.abs(self.g3 - self.g1 @ self.g2)))


def diagonal_action(phases1: Sequence[Fraction], phases2: Sequence[Fraction]) -> AutomorphismAction:
    """Diagonal action with exact phases; g3 composed exactly."""
    p1 = tuple(Fraction(x) % 1 for x in phases1)
    p2 = tuple(Fraction(x) % 1 for x in phases2)
    p3 = tuple((a + b) % 1 for a, b in zip(p1, p2))
    mk = lambda ps: np.diag([cmath.exp(2j * math.pi * float(x)) for x in ps])
    return AutomorphismAction(mk(p1), mk(p2), mk(p3), p1, p2)


@dataclass(eq=False)
class CorrelationFamily:
    """One LogFunction per probe basis label, plus the automorphism action."""

    functions: tuple[LogFunction, ...]
    action: AutomorphismAction

    def __post_init__(self):
        self.functions = tuple(self.functions)
        if len(self.functions) != self.action.dim:
            raise ValueError("functions and action dimension disagree")

    @property
    def dim(self) -> int:
        return len(self.functions)

    def apply(self, g: np.ndarray, label: int) -> LogFunction:
        """f(g e_label) by linearity: sum_j g[j, label] * f_j."""
        g = np.asarray(g, dtype=complex)
        out = LogFunction()
        for j in range(self.dim):
            c = complex(g[j, label])
            if c != 0:
                out = out + c * self.functions[j]
        return out

    def map_functions(self, fn, action: AutomorphismAction | None = None) -> "CorrelationFamily":
        return CorrelationFamily(
            functions=tuple(fn(f) for f in self.functions),
            action=self.action if action is None else action,
        )


@dataclass(frozen=True)
class QuasiPrimaryData:
    """Weights entering the contragredient construction.

    wt_u is the probe weight (an integer in the graded settings used by
    the scenario generators; the round trip is exact only then) and h1 the
    weight of the first inserted module element.
    """

    wt_u: complex = 0.0
    h1: complex = 0.0


def phi_precompose(fam: CorrelationFamily, h: np.ndarray) -> CorrelationFamily:
    """Precompose the probe with h^{-1} and conjugate the action by h.

    The new family g |-> f(h^{-1} g) has automorphisms h g_k h^{-1}; a
    relabeling of the same data that leaves all shift identities intact.
    """
    h = np.asarray(h, dtype=complex)
    hinv = np.linalg.inv(h)
    functions = tuple(
        fam.apply(hinv, i) for i in range(fam.dim)
    )
    act = fam.action
    diag = np.allclose(h, np.diag(np.diagonal(h)))
    action = AutomorphismAction(
        h @ act.g1 @ hinv, h @ act.g2 @ hinv, h @ act.g3 @ hinv,
        act.phases1 if diag else None,
        act.phases2 if diag else None,
    )
    return CorrelationFamily(functions, action)


def _check_budget(rewrite: str, terms: int) -> None:
    """Refuse a rewrite that would make more than SERIES_BUDGET terms."""
    if terms > SERIES_BUDGET:
        raise ValueError(f"{rewrite} rewrite needs {terms} terms, over the series budget "
                         f"(SERIES_BUDGET = {SERIES_BUDGET})")


def omega_transform(f: LogFunction, sign) -> LogFunction:
    """Exchange rewrite of a LogFunction (sign +1 or -1), canonicalized; a
    term with log z2 power m makes m + 1 terms.  Raises ValueError, before
    making any, when that is more than SERIES_BUDGET in all."""
    sgn = _sign_value(sign)
    _check_budget("exchange", sum(u.m + 1 for u in f.terms))
    out = []
    for u in f.terms:
        base = complex(u.coeff) * cmath.exp(sgn * u.s * PI_I)
        # (log z2 + sgn*pi*i)^m expands binomially over the new log z2 power.
        for j in range(u.m + 1):
            c = base * math.comb(u.m, j) * (sgn * PI_I) ** (u.m - j)
            out.append(LogMonomial(c, r=u.t, s=u.s, t=u.r, l=u.n, m=j, n=u.l))
    return normalize(LogFunction(out))


def _compositions(n: int, parts: int):
    """All tuples of `parts` non-negative ints summing to n."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest


def a_transform(f: LogFunction, sign) -> LogFunction:
    """Contragredient rewrite of a LogFunction (sign +1 or -1), canonicalized;
    a term with log(z1 - z2) power n makes C(n + 3, 3) terms.  Raises
    ValueError, before making any, when that is more than SERIES_BUDGET in
    all."""
    sgn = _sign_value(sign)
    # One term per composition of n into four parts.
    _check_budget("contragredient", sum(math.comb(u.n + 3, 3) for u in f.terms))
    out = []
    for u in f.terms:
        base = complex(u.coeff) * cmath.exp(sgn * u.t * PI_I)
        base *= (-1.0) ** (u.l + u.m)
        # (log(z1-z2) - log z1 - log z2 + sgn*pi*i)^n, multinomial over the
        # four summands; the minus signs on log z1/log z2 fold into the
        # coefficient.
        for n12, n1, n2, nc in _compositions(u.n, 4):
            c = base * (math.factorial(u.n)
                        // (math.factorial(n12) * math.factorial(n1)
                            * math.factorial(n2) * math.factorial(nc)))
            c *= (-1.0) ** (n1 + n2) * (sgn * PI_I) ** nc
            out.append(LogMonomial(
                c,
                r=-(u.r + u.t), s=-(u.s + u.t), t=u.t,
                l=u.l + n1, m=u.m + n2, n=n12,
            ))
    return normalize(LogFunction(out))


def _weight_factors(f: LogFunction, qp: QuasiPrimaryData, sign, d: int) -> LogFunction:
    """f times e^{d*pi*i*wt_u} e^{+-d*pi*i*h1}, with r shifted by d*2*wt_u and
    s by d*2*h1, for d = 1 or -1.  A shift is subtracted, not added times -1,
    which for a real shift could flip the sign of a zero imaginary part."""
    sgn = _sign_value(sign)
    shift = operator.add if d > 0 else operator.sub
    scale = cmath.exp(d * PI_I * qp.wt_u) * cmath.exp(d * sgn * PI_I * qp.h1)
    return normalize(LogFunction(
        LogMonomial(scale * u.coeff, shift(u.r, 2 * qp.wt_u), shift(u.s, 2 * qp.h1),
                    u.t, u.l, u.m, u.n)
        for u in f.terms
    ))


def quasi_primary_modify(f: LogFunction, qp: QuasiPrimaryData, sign) -> LogFunction:
    """Insert the quasi-primary weight factors ahead of a contragredient rewrite.

    Multiplies by e^{pi*i*wt_u} e^{+-pi*i*h1} and shifts r by 2*wt_u and s
    by 2*h1 (the branch of (-z1^2)^{wt_u} is fixed as e^{pi*i*wt_u} z1^{2 wt_u}).
    """
    return _weight_factors(f, qp, sign, 1)


def quasi_primary_unmodify(f: LogFunction, qp: QuasiPrimaryData, sign) -> LogFunction:
    """Exact inverse of quasi_primary_modify with the same qp and sign."""
    return _weight_factors(f, qp, sign, -1)


def omega_action(action: AutomorphismAction, sign) -> AutomorphismAction:
    """Automorphism action of the exchanged family.

    The exchange swaps which insertion sits in each slot, so the first two
    automorphisms trade places (conjugated to keep g3 = g1*g2 exact):
    sign +1 gives (g2, g2^{-1} g1 g2, g3), sign -1 gives (g1 g2 g1^{-1}, g1, g3).
    For diagonal actions both reduce to a plain swap.
    """
    sgn = _sign_value(sign)
    g1, g2, g3 = action.g1, action.g2, action.g3
    if sgn == 1:
        new1 = g2
        new2 = np.linalg.inv(g2) @ g1 @ g2
    else:
        new1 = g1 @ g2 @ np.linalg.inv(g1)
        new2 = g1
    return AutomorphismAction(
        new1, new2, g3,
        phases1=action.phases2, phases2=action.phases1,
    )


def a_action(action: AutomorphismAction) -> AutomorphismAction:
    """Automorphism action of the contragredient family.

    The rewritten exponents are t' = t and r' = -(r + t) (weight shifts are
    integral in the graded scenarios), so the p12-shift automorphism stays
    g1 and the p1-shift automorphism becomes g3^{-1}; g3' = g1 g3^{-1}.
    Both rewrite signs induce the same bookkeeping.
    """
    g3inv = np.linalg.inv(action.g3)
    p1, p2 = action.phases1, action.phases2
    p3inv = None if p1 is None or p2 is None else tuple(-(a + b) % 1 for a, b in zip(p1, p2))
    return AutomorphismAction(action.g1, g3inv, action.g1 @ g3inv, p1, p3inv)


def omega_family(fam: CorrelationFamily, sign) -> CorrelationFamily:
    """Exchange transform applied label by label, with the swapped action."""
    return fam.map_functions(lambda f: omega_transform(f, sign),
                             omega_action(fam.action, sign))


def contragredient_family(fam: CorrelationFamily, qp: QuasiPrimaryData, sign) -> CorrelationFamily:
    """Weight modification followed by the contragredient rewrite, per label."""
    return _contragredient_rewrite(fam.map_functions(lambda f: quasi_primary_modify(f, qp, sign)),
                                   sign)


def _contragredient_rewrite(modified: CorrelationFamily, sign) -> CorrelationFamily:
    """contragredient_family's second step, for a family whose functions
    are weight-modified already: the rewrite of each, with the induced
    action."""
    return modified.map_functions(lambda f: a_transform(f, sign), a_action(modified.action))


def shift_stage(fam: CorrelationFamily, bt: BranchTriple,
                points: Sequence[tuple[complex, complex]]) -> tuple[list, list]:
    """The parts and logs for eval_parts whose values shift_defects reads:
    f(u) on bt once per label, then f(g1 u) on (p1, p2, p12 + 1) and f(g2 u)
    on (p1 + 1, p2, p12), all at points.  A caller may evaluate them in a
    larger batch."""
    p1, p2, p12 = bt
    parts, logs = list(fam.functions), [point_logs((bt, z1, z2) for z1, z2 in points)] * fam.dim
    for shifted, g in ((BranchTriple(p1, p2, p12 + 1), fam.action.g1),
                       (BranchTriple(p1 + 1, p2, p12), fam.action.g2)):
        parts += [fam.apply(g, i) for i in range(fam.dim)]
        logs += [point_logs((shifted, z1, z2) for z1, z2 in points)] * fam.dim
    return parts, logs


def shift_defects(values: list, dim: int) -> list[float]:
    """Max defect of eval(f(g u), shifted) = eval(f(u), bt) over points and
    labels, for each shift of shift_stage, from its parts' values (one row
    per part, as eval_parts(...).tolist() gives them).

    Each pointwise gap is measured relative to the larger of 1 and the two
    compared magnitudes, so the figure stays meaningful at any value scale.
    """
    references = values[:dim]
    return [max([0.0, *(relative_gap(a, b)
                        for moved_f, reference in zip(values[j:j + dim], references)
                        for a, b in zip(moved_f, reference))])
            for j in range(dim, len(values), dim)]


def check_shifts(fam: CorrelationFamily, bt: BranchTriple,
                 points: Sequence[tuple[complex, complex]]) -> tuple[float, float]:
    """Max relative defects of the g1 and the g2 identity on the same points,
    in one kernel call, with each reference value eval(f(u), bt) computed
    once for both."""
    d1, d2 = shift_defects(eval_parts(*shift_stage(fam, bt, points)).tolist(), fam.dim)
    return d1, d2


def check_g1_shift(fam: CorrelationFamily, bt: BranchTriple,
                   points: Sequence[tuple[complex, complex]]) -> float:
    """Max relative defect of eval(f(g1 u), p12+1) = eval(f(u), p12)."""
    return check_shifts(fam, bt, points)[0]


def check_g2_shift(fam: CorrelationFamily, bt: BranchTriple,
                   points: Sequence[tuple[complex, complex]]) -> float:
    """Max relative defect of eval(f(g2 u), p1+1) = eval(f(u), p1)."""
    return check_shifts(fam, bt, points)[1]


def one_var_shadow(f: LogFunction) -> LogFunction:
    """Single-variable shadow keeping the (s, m) data of each term.

    Collapsing the probe and difference content of a monomial (the r, t, l,
    n parts, which a vacuum probe kills) leaves a function of z2 alone;
    coefficients of coinciding (s, m) merge, in normalize's order.
    """
    acc: dict[tuple, complex] = {}
    for u in normalize(f).terms:
        s = complex(u.s)
        k = (s.real + 0.0, s.imag + 0.0, u.m)
        acc[k] = acc.get(k, 0.0) + complex(u.coeff)
    return LogFunction(LogMonomial(a, s=complex(k[0], k[1]), m=k[2])
                       for k, a in sorted(acc.items()) if abs(a) > 0.0)


def a_eval_relations(f: LogFunction, qp: QuasiPrimaryData,
                     probes: Sequence[tuple[int, complex]], sign) -> list[float]:
    """Defects of the one-variable contragredient evaluation identity, one
    per (p, z) of probes.

    Let X be the one-variable shadow of f.  The contragredient rewrite of
    X evaluated on branch p at z must equal

        e^{+-pi*i*h1} * exp(2*h1*lp(p', 1/z)) * X evaluated on branch p' at 1/z

    with p' = inv_branch(p, z) (-p on the positive real axis, -p - 1 off
    it, as the snapped arguments of z and 1/z say).  The left side never
    consults inv_branch, making the comparison a two-route test of the
    index arithmetic.  Both sides are functions of z2 alone: one on branch
    q at x is eval_branch2 of it on (0, q, 0) at z1 = -x, z2 = x, where z1
    and z1 - z2 are nonzero.  Each gap is relative to the larger of 1 and
    the two compared magnitudes.

    X and the rewritten left side are made once for all probes.  Raises
    ValueError, before evaluating any probe, when a z is zero.
    """
    sgn = _sign_value(sign)
    probes = [(p, complex(z)) for p, z in probes]
    if any(z == 0 for _, z in probes):
        raise ValueError("z must be nonzero")
    X = one_var_shadow(f)
    h1 = complex(qp.h1)
    phase = cmath.exp(sgn * PI_I * h1)

    # Left: substitute x -> x^{-1}, log x -> -log x, prefactor x^{-2 h1}.
    left_series = LogFunction(
        LogMonomial(phase * u.coeff * (-1.0) ** u.m, s=-2.0 * h1 - u.s, m=u.m)
        for u in X.terms
    )
    defects = []
    for p, z in probes:
        left = eval_branch2(left_series, BranchTriple(0, p, 0), -z, z)
        pp = inv_branch(p, z)
        zinv = 1.0 / z
        right = (phase * cmath.exp(2.0 * h1 * lp(pp, zinv))
                 * eval_branch2(X, BranchTriple(0, pp, 0), -zinv, zinv))
        defects.append(relative_gap(left, right))
    return defects

