"""Scenario generators: the abelian model, random scenarios and loops, the shipped set.

The scalar ("abelian") model realizes a correlation family from exponent
data alone: a label with exponents (r, s, t) carries the diagonal
automorphism phases g1 = e^{-2*pi*i*t} and g2 = e^{-2*pi*i*r}, which is
exactly what the two shift identities demand of a one-dimensional family.
Terms sharing a label must keep r and t in fixed congruence classes mod 1;
the log z2 power is free, while powers of log z1 or log(z1 - z2) are
rejected because no scalar matches the extra 2*pi*i such a power picks up
under an index shift.

Rational exponents get an exact phase side channel (Fractions, multiples
of a full turn), making composition checks exact where possible.

make_random_loop draws closed test paths.  The independent continuation
oracle, oracle_continue, lives in paths (so that continue_along can use
it for its certificate) and stays importable from here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .logfun import BranchTriple, LogFunction, LogMonomial
from .paths import (  # noqa: F401  (the oracle stays importable from models)
    Arc, PathSpec, Segment, oracle_continue, sample_path, validate_path)
from .transforms import (
    AutomorphismAction,
    CorrelationFamily,
    QuasiPrimaryData,
    diagonal_action,
)

TWO_PI = 2.0 * math.pi


@dataclass(eq=False)
class AbelianScenario:
    """A generated family with its default branch triple and weight data.

    control marks intentionally broken variants used as negative controls:
    "shift" (g1 perturbed), "composition" (g3 perturbed) or
    "duality-branch" (duality check must run against an off-by-one triple).
    """

    name: str
    fam: CorrelationFamily
    qp: QuasiPrimaryData
    bt: BranchTriple
    seed: int = 0
    control: str | None = None

    @property
    def dim(self) -> int:
        return self.fam.dim


@dataclass(frozen=True)
class RandomBounds:
    """Knobs for make_random; defaults keep exponents tame (|Re| <= ~2)."""

    dim_max: int = 3
    terms_max: int = 3
    max_m: int = 2
    max_den: int = 8
    imag_scale: float = 0.25
    wt_range: int = 2
    branch_range: int = 1


def _exact_real(x) -> Fraction | None:
    """Exact rational value of x, or None when x has an imaginary part.

    Every real float is an exact dyadic rational, so the exact phase
    channel stays available for plain float exponents.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, complex) and x.imag == 0.0:
        return Fraction(x.real)
    return None


def _to_complex(x) -> complex:
    if isinstance(x, Fraction):
        return complex(float(x), 0.0)
    return complex(x)


def make_abelian(r, s, t, log_powers=(0, 0, 0), qp: QuasiPrimaryData | None = None,
                 coeff: complex = 1.0, bt: BranchTriple = BranchTriple(0, 0, 0),
                 name: str | None = None) -> AbelianScenario:
    """One-dimensional scalar family for a single monomial.

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
    rc, sc, tc = _to_complex(r), _to_complex(s), _to_complex(t)
    f = LogFunction([LogMonomial(complex(coeff), rc, sc, tc, 0, m, 0)])
    rf, tf = _exact_real(r), _exact_real(t)
    if rf is not None and tf is not None:
        action = diagonal_action([-tf], [-rf])
    else:
        g1 = np.array([[cmath.exp(-2j * math.pi * tc)]])
        g2 = np.array([[cmath.exp(-2j * math.pi * rc)]])
        action = AutomorphismAction(g1, g2, g1 @ g2)
    fam = CorrelationFamily((f,), action)
    if name is None:
        name = f"abelian(r={r}, s={s}, t={t}, m={m})"
    return AbelianScenario(name=name, fam=fam,
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


def make_random(seed: int, bounds: RandomBounds | None = None) -> AbelianScenario:
    """Deterministic random multi-label scalar family.

    Labels are independent; within a label all terms keep r and t in the
    same congruence class mod 1 (integer offsets only), so the diagonal
    action satisfies the shift identities by construction.  Weights are
    integral for the probe (wt_u) and rational for h1.
    """
    b = bounds if bounds is not None else RandomBounds()
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, b.dim_max + 1))
    functions = []
    phases_t = []
    phases_r = []
    for _ in range(dim):
        r0 = _rand_fraction(rng, b.max_den)
        t0 = _rand_fraction(rng, b.max_den)
        s0 = complex(_uniform(rng, -2.0, 2.0),
                     _uniform(rng, -b.imag_scale, b.imag_scale))
        terms = []
        for _ in range(int(rng.integers(1, b.terms_max + 1))):
            dr = int(rng.integers(-1, 2))
            dt = int(rng.integers(-1, 2))
            ds = int(rng.integers(-1, 2))
            m = int(rng.integers(0, b.max_m + 1))
            coeff = complex(_uniform(rng, 0.4, 1.5), 0.0) * cmath.exp(
                2j * math.pi * rng.random())
            terms.append(LogMonomial(coeff, float(r0) + dr, s0 + ds,
                                     float(t0) + dt, 0, m, 0))
        functions.append(LogFunction(terms))
        phases_t.append(-t0)
        phases_r.append(-r0)
    action = diagonal_action(phases_t, phases_r)
    qp = QuasiPrimaryData(
        wt_u=int(rng.integers(-b.wt_range, b.wt_range + 1)),
        h1=float(_rand_fraction(rng, 4)),
    )
    p = b.branch_range
    bt = BranchTriple(int(rng.integers(-p, p + 1)), int(rng.integers(-p, p + 1)),
                      int(rng.integers(-p, p + 1)))
    return AbelianScenario(name=f"random-{seed}", fam=CorrelationFamily(tuple(functions), action),
                           qp=qp, bt=bt, seed=seed)


# ---------------------------------------------------------------------------
# Random closed loops and the shipped scenario set
# ---------------------------------------------------------------------------


def make_random_loop(seed: int, max_moves: int = 3) -> PathSpec:
    """Closed path (both variables return to their start) from a seed.

    Mixes full arcs about the origin or the other variable (which wind)
    with out-and-back segment pairs (which do not), then validates; draws
    are retried until a valid path appears.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        z1 = _random_point(rng)
        z2 = _random_point(rng)
        if abs(z1 - z2) < 0.2 or abs(abs(z1) - abs(z2)) < 0.1:
            continue
        moves: list = []
        for _ in range(int(rng.integers(1, max_moves + 1))):
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
            validate_path(path)
        except ValueError:
            continue
        return path
    raise RuntimeError(f"no valid random loop found for seed {seed}")


def _random_point(rng: np.random.Generator) -> complex:
    radius = _uniform(rng, 0.4, 2.0)
    angle = _uniform(rng, 0.0, TWO_PI)
    return radius * cmath.exp(1j * angle)


def default_scenarios() -> list[AbelianScenario]:
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


def _control_shift(sc: AbelianScenario) -> AbelianScenario:
    """Perturb g1 so the p12-shift identity fails."""
    act = sc.fam.action
    bad = AutomorphismAction(act.g1 * cmath.exp(0.37j), act.g2, act.g3)
    fam = CorrelationFamily(sc.fam.functions, bad)
    return replace(sc, name=sc.name + "-control-shift", fam=fam, control="shift")


def _control_composition(sc: AbelianScenario) -> AbelianScenario:
    """Perturb g3 away from g1 @ g2 so composition checks fail."""
    act = sc.fam.action
    bad = AutomorphismAction(act.g1, act.g2, act.g3 * cmath.exp(0.29j))
    fam = CorrelationFamily(sc.fam.functions, bad)
    return replace(sc, name=sc.name + "-control-composition", fam=fam,
                   control="composition")


def _control_duality(sc: AbelianScenario) -> AbelianScenario:
    """Mark the scenario so duality runs against an off-by-one triple."""
    return replace(sc, name=sc.name + "-control-duality", control="duality-branch")
