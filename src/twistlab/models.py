"""Scenarios: the Scenario record, the abelian model, random scenarios and
loops, the shipped set.

A Scenario is what the checks run on, whether generated here or read from
a scenario file by the CLI: a correlation family with any automorphism
action, its default branch triple, weight data and named paths.

The scalar ("abelian") model realizes a correlation family from exponent
data alone: a label with exponents (r, s, t) carries the diagonal
automorphism phases g1 = e^{-2*pi*i*t} and g2 = e^{-2*pi*i*r}, which is
exactly what the two shift identities demand of a one-dimensional family
(abelian_action is that rule).  Terms sharing a label must keep r and t in fixed congruence classes mod 1;
the log z2 power is free, while powers of log z1 or log(z1 - z2) are
rejected because no scalar matches the extra 2*pi*i such a power picks up
under an index shift.

Rational exponents get an exact phase side channel (Fractions, multiples
of a full turn).  It feeds the diagonal g3, composed from the summed
phases rather than by a matrix product, and the phases field that
serialize_scenario writes.

make_random and make_random_loop draw a family and a closed test path
from a seed, within fixed ranges.  The independent continuation
oracle, oracle_continue, lives in paths (so that continue_along can use
it for its certificate) and stays importable from here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .logfun import BranchTriple, LogFunction, LogMonomial
from .paths import SAMPLE_BUDGET, Arc, PathSpec, Segment, _base_samples, _walk
from .paths import oracle_continue  # noqa: F401  (bench/tracing.py times it under this name)
from .transforms import (
    AutomorphismAction,
    CorrelationFamily,
    QuasiPrimaryData,
    diagonal_action,
)

TWO_PI = 2.0 * math.pi


@dataclass(eq=False)
class Scenario:
    """A family with its default branch triple, weight data and named paths.

    control marks intentionally broken variants used as negative controls:
    "shift" (g1 perturbed), "composition" (g3 perturbed) or
    "duality-branch" (duality check must run against an off-by-one triple).
    paths holds the named paths of a scenario file; generators leave it
    empty.
    """

    name: str
    fam: CorrelationFamily
    qp: QuasiPrimaryData
    bt: BranchTriple
    seed: int = 0
    control: str | None = None
    paths: dict[str, PathSpec] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.fam.dim


# make_random's ranges, which keep exponents tame (|Re| <= ~2): labels,
# terms per label, log z2 power, denominator of r and t, |Im s|, |wt_u| and
# |branch index| are at most these.  A make_random_loop path makes at most
# _LOOP_MOVES moves (an out-and-back pair counts once).
_DIM_MAX, _TERMS_MAX, _MAX_M, _MAX_DEN = 3, 3, 2, 8
_IMAG_SCALE, _WT_RANGE, _BRANCH_RANGE = 0.25, 2, 1
_LOOP_MOVES = 3


def abelian_action(leading) -> AutomorphismAction:
    """Diagonal action g1 = e^{-2*pi*i*t}, g2 = e^{-2*pi*i*r}, g3 = g1 g2,
    one entry per (r, t) pair of leading.

    Exact phases (-t, -r) when every r and t is a Fraction; otherwise
    floating-point matrices.
    """
    leading = list(leading)
    if all(isinstance(x, Fraction) for pair in leading for x in pair):
        return diagonal_action([-t for _, t in leading], [-r for r, _ in leading])
    g1 = np.diag([cmath.exp(-2j * math.pi * complex(t)) for _, t in leading])
    g2 = np.diag([cmath.exp(-2j * math.pi * complex(r)) for r, _ in leading])
    return AutomorphismAction(g1, g2, g1 @ g2)


def _exact_real(x):
    """Exact rational value of x, or x itself when it has an imaginary part.

    Every real float is an exact dyadic rational, so the exact phase
    channel stays available for plain float exponents.
    """
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, complex) and x.imag == 0.0:
        return Fraction(x.real)
    return x


def make_abelian(r, s, t, log_powers=(0, 0, 0), qp: QuasiPrimaryData | None = None,
                 bt: BranchTriple = BranchTriple(0, 0, 0),
                 name: str | None = None) -> Scenario:
    """One-dimensional scalar family for a single monomial of coefficient 1.

    r, s, t may be ints, Fractions, or complex numbers; rational r and t
    feed the exact phase channel.  log_powers is (l, m, n); only m (the
    log z2 power) may be nonzero, since a p1 or p12 index shift adds
    2*pi*i inside log z1 or log(z1 - z2) and no scalar automorphism can
    absorb that.
    """
    l, m, n = (int(x) for x in log_powers)
    if l != 0 or n != 0:
        raise ValueError(
            "scalar automorphisms cannot absorb log z1 or log(z1 - z2) powers; "
            "only the log z2 power may be nonzero in the abelian model")
    f = LogFunction([LogMonomial(1.0 + 0.0j, complex(r), complex(s), complex(t), 0, m, 0)])
    action = abelian_action([(_exact_real(r), _exact_real(t))])
    fam = CorrelationFamily((f,), action)
    if name is None:
        name = f"abelian(r={r}, s={s}, t={t}, m={m})"
    return Scenario(name=name, fam=fam,
                    qp=qp if qp is not None else QuasiPrimaryData(),
                    bt=BranchTriple(*bt))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """float(rng.uniform(lo, hi)), bit for bit: numpy's own formula on the
    same draw, without the overhead of the general call."""
    return lo + (hi - lo) * rng.random()


def _rand_fraction(rng: np.random.Generator, max_den: int) -> Fraction:
    den = int(rng.integers(1, max_den + 1))
    num = int(rng.integers(-2 * den, 2 * den + 1))
    return Fraction(num, den)


def make_random(seed: int) -> Scenario:
    """Deterministic random multi-label scalar family.

    Labels are independent; within a label all terms keep r and t in the
    same congruence class mod 1 (integer offsets only), so the diagonal
    action satisfies the shift identities by construction.  Weights are
    integral for the probe (wt_u) and rational for h1.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, _DIM_MAX + 1))
    functions = []
    leading = []
    for _ in range(dim):
        r0 = _rand_fraction(rng, _MAX_DEN)
        t0 = _rand_fraction(rng, _MAX_DEN)
        s0 = complex(_uniform(rng, -2.0, 2.0),
                     _uniform(rng, -_IMAG_SCALE, _IMAG_SCALE))
        terms = []
        for _ in range(int(rng.integers(1, _TERMS_MAX + 1))):
            dr = int(rng.integers(-1, 2))
            dt = int(rng.integers(-1, 2))
            ds = int(rng.integers(-1, 2))
            m = int(rng.integers(0, _MAX_M + 1))
            coeff = complex(_uniform(rng, 0.4, 1.5), 0.0) * cmath.exp(
                2j * math.pi * rng.random())
            terms.append(LogMonomial(coeff, float(r0) + dr, s0 + ds,
                                     float(t0) + dt, 0, m, 0))
        functions.append(LogFunction(terms))
        leading.append((r0, t0))
    action = abelian_action(leading)
    qp = QuasiPrimaryData(
        wt_u=int(rng.integers(-_WT_RANGE, _WT_RANGE + 1)),
        h1=float(_rand_fraction(rng, 4)),
    )
    p = _BRANCH_RANGE
    bt = BranchTriple(int(rng.integers(-p, p + 1)), int(rng.integers(-p, p + 1)),
                      int(rng.integers(-p, p + 1)))
    return Scenario(name=f"random-{seed}", fam=CorrelationFamily(tuple(functions), action),
                    qp=qp, bt=bt, seed=seed)


# ---------------------------------------------------------------------------
# Random closed loops and the shipped scenario set
# ---------------------------------------------------------------------------


def make_random_loop(seed: int) -> PathSpec:
    """Closed path (both variables return to their start) from a seed.

    Mixes full arcs about the origin or the other variable (which wind)
    with out-and-back segment pairs (which do not).  A draw is retried
    until validate_path accepts it and the oracle's first refinement
    (scale 2) samples it within SAMPLE_BUDGET points, so that every loop
    drawn can be continued: an arc grazing a singular point needs more.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        z1 = _random_point(rng)
        z2 = _random_point(rng)
        if abs(z1 - z2) < 0.2 or abs(abs(z1) - abs(z2)) < 0.1:
            continue
        moves: list = []
        for _ in range(int(rng.integers(1, _LOOP_MOVES + 1))):
            var = "z1" if rng.random() < 0.7 else "z2"
            kind = rng.random()
            turns = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
            if kind < 0.45:
                moves.append(Arc(var, turns=turns, about="origin"))
            elif kind < 0.75 and var == "z1":
                moves.append(Arc(var, turns=turns, about="other"))
            else:
                delta = 0.3 * cmath.exp(2j * math.pi * rng.random())
                base = z1 if var == "z1" else z2
                moves.append(Segment(var, base + delta))
                moves.append(Segment(var, base))
        path = PathSpec(z1, z2, moves)
        try:
            walk = _walk(path)
        except ValueError:
            continue
        if 1 + 2 * sum(_base_samples(step, clearance) for step, clearance in walk) > SAMPLE_BUDGET:
            continue
        return path
    raise RuntimeError(f"no valid random loop found for seed {seed}")


def _random_point(rng: np.random.Generator) -> complex:
    radius = _uniform(rng, 0.4, 2.0)
    angle = _uniform(rng, 0.0, TWO_PI)
    return radius * cmath.exp(1j * angle)


def default_scenarios() -> list[Scenario]:
    """The shipped scenario set: curated + random families + 3 controls."""
    curated = [
        make_abelian(Fraction(1, 2), 0.75 + 0.1j, Fraction(1, 3),
                     qp=QuasiPrimaryData(1, Fraction(3, 4)), name="half-third"),
        make_abelian(Fraction(-2, 3), -0.5 + 0.25j, Fraction(5, 4), (0, 1, 0),
                     qp=QuasiPrimaryData(0, Fraction(1, 2)), name="log-once"),
        make_abelian(Fraction(1, 4), 1.2, Fraction(-1, 2), (0, 2, 0),
                     qp=QuasiPrimaryData(-1, Fraction(2, 3)), name="log-twice"),
        make_abelian(2, 0.3 - 0.2j, Fraction(1, 6),
                     qp=QuasiPrimaryData(2, 0), bt=BranchTriple(1, -1, 0),
                     name="integer-r"),
        make_abelian(Fraction(3, 5), -1.1, Fraction(7, 8), (0, 1, 0),
                     qp=QuasiPrimaryData(-2, Fraction(1, 4)),
                     bt=BranchTriple(-1, 0, 1), name="deep-branch"),
        make_abelian(Fraction(0), 0.9 + 0.3j, Fraction(1, 2),
                     qp=QuasiPrimaryData(0, Fraction(5, 6)), name="untwisted-probe"),
    ]
    randoms = [make_random(seed) for seed in range(1, 15)]
    controls = [
        _control_shift(make_random(101)),
        _control_composition(make_random(102)),
        _control_duality(make_abelian(
            Fraction(1, 3), 0.4 - 0.15j, Fraction(1, 2),
            qp=QuasiPrimaryData(0, 0), name="third-half")),
    ]
    return curated + randoms + controls


def _control_shift(sc: Scenario) -> Scenario:
    """Perturb g1 so the p12-shift identity fails."""
    act = sc.fam.action
    bad = AutomorphismAction(act.g1 * cmath.exp(0.37j), act.g2, act.g3)
    fam = CorrelationFamily(sc.fam.functions, bad)
    return replace(sc, name=sc.name + "-control-shift", fam=fam, control="shift")


def _control_composition(sc: Scenario) -> Scenario:
    """Perturb g3 away from g1 @ g2 so composition checks fail."""
    act = sc.fam.action
    bad = AutomorphismAction(act.g1, act.g2, act.g3 * cmath.exp(0.29j))
    fam = CorrelationFamily(sc.fam.functions, bad)
    return replace(sc, name=sc.name + "-control-composition", fam=fam,
                   control="composition")


def _control_duality(sc: Scenario) -> Scenario:
    """Mark the scenario so duality runs against an off-by-one triple."""
    return replace(sc, name=sc.name + "-control-duality", control="duality-branch")
