"""Verification checks and the standard suite.

Each check returns a CheckReport with the worst defect it saw.  Defects
are absolute gaps between two independently computed complex numbers:
exact index/coefficient arithmetic is held to tol_branch (1e-12 default)
and anything involving truncated series or sampled paths to tol_series
(1e-9 default).  Scenario generators keep exponents and branch indices
small enough that these absolute bounds are meaningful.

The checks, by name:

  branch-identities        randomized identities of the indexed logarithm
  shift-identities         automorphism action vs branch-index shifts
  duality-regions          region series converge to the designated triples
  region-swap              continuation across the cut of z1 - z2 lands on
                           the index-lowered triple (and the same series
                           represents it in the complementary window)
  monodromy-composition    two homotopic loops transport branches equally,
                           and the loop effect is the composed automorphism
  omega-duality            exchange transform: pointwise relocation law,
                           swapped action, involution
  contragredient-duality   contragredient transform: inverted-variable law,
                           induced action, one-variable relation, involution

run_suite runs everything over a scenario list (the shipped set by
default), turning scenarios marked as controls into expected failures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .branchcalc import (
    TWO_PI,
    diff_inv_branch,
    inv_branch,
    lp,
    neg_branch,
    principal_arg,
    q_offset_product,
    ratio_arg_decomposition,
)
from .logfun import (
    Arc,
    BranchTriple,
    PathSpec,
    REGIONS,
    Segment,
    continue_along,
    designated_triple,
    eval_branch2,
    expand_region,
    in_region,
    normalize,
    term_distance,
)
from .models import AbelianScenario, _uniform, default_scenarios
from .paths import path_end
from .transforms import (
    a_transform,
    a_eval_relation,
    check_shifts,
    contragredient_family,
    omega_action,
    omega_family,
    omega_transform,
    quasi_primary_modify,
    quasi_primary_unmodify,
)

PI_I = complex(0.0, math.pi)


@dataclass
class VerifyConfig:
    """Tolerances and sample counts for the checks."""

    tol_branch: float = 1e-12
    tol_series: float = 1e-9
    order: int = 60
    seed: int = 0
    margin: float = 0.05
    ratio_lo: float = 0.3
    ratio_hi: float = 0.6
    branch_samples: int = 2000
    shift_points: int = 6
    duality_points: int = 4
    swap_paths: int = 2
    pointwise_points: int = 6
    loop_radii: tuple[float, float, float] = (1.8, 1.0, 0.5)


@dataclass
class CheckReport:
    """Outcome of one check.

    expect_fail and extras are in-process conveniences; the serialized
    report carries only the stable keys (name, pass, maxDefect, tol,
    samples, seed, worstPoint).
    """

    name: str
    passed: bool
    max_defect: float
    tol: float
    samples: int
    seed: int
    worst_point: tuple[complex, complex] | None = None
    expect_fail: bool = False
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "pass": bool(self.passed),
            "maxDefect": float(self.max_defect),
            "tol": float(self.tol),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }
        if self.worst_point is not None:
            z1, z2 = self.worst_point
            out["worstPoint"] = [[z1.real, z1.imag], [z2.real, z2.imag]]
        return out


class _Tracker:
    """Running maximum defect with the point that produced it."""

    def __init__(self):
        self.max_defect = 0.0
        self.worst = None
        self.samples = 0

    def add(self, defect: float, point=None):
        self.samples += 1
        if defect > self.max_defect:
            self.max_defect = float(defect)
            self.worst = point


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _rel(a: complex, b: complex) -> float:
    """Gap between two values, relative to the larger of 1 and their sizes."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _rng(config: VerifyConfig, scenario_seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, scenario_seed, salt])


def _annulus(rng, lo=0.3, hi=2.2) -> complex:
    return _uniform(rng, lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _generic_pair(rng) -> tuple[complex, complex]:
    """Any (z1, z2) with z1, z2, z1 - z2 all bounded away from zero."""
    for _ in range(256):
        z1 = _annulus(rng)
        z2 = _annulus(rng)
        if abs(z1 - z2) > 0.15:
            return z1, z2
    raise RuntimeError("pair sampling failed")


def _region_pair(rng, region: str, config: VerifyConfig) -> tuple[complex, complex]:
    """Rejection-sample a pair inside a region with the configured margins."""
    for _ in range(4096):
        ratio = _uniform(rng, config.ratio_lo, config.ratio_hi)
        phi = 2j * math.pi * rng.random()
        if region == "product":
            z1 = _annulus(rng, 0.8, 2.0)
            z2 = z1 * ratio * cmath.exp(phi)
        elif region == "reversed":
            z2 = _annulus(rng, 0.8, 2.0)
            z1 = z2 * ratio * cmath.exp(phi)
        else:
            z2 = _annulus(rng, 0.8, 2.0)
            z1 = z2 + z2 * ratio * cmath.exp(phi)
        if in_region(region, z1, z2, config.margin):
            return z1, z2
    raise RuntimeError(f"region sampling failed for {region}")


def _small_triple(rng, base: BranchTriple, spread: int = 1) -> BranchTriple:
    return BranchTriple(
        base.p1 + int(rng.integers(-spread, spread + 1)),
        base.p2 + int(rng.integers(-spread, spread + 1)),
        base.p12 + int(rng.integers(-spread, spread + 1)),
    )


# ---------------------------------------------------------------------------
# branch-identities
# ---------------------------------------------------------------------------


def check_branch_identities(sc: AbelianScenario | None, config: VerifyConfig,
                            n: int | None = None) -> CheckReport:
    """Randomized identities of lp, neg/inv branches and the offset laws."""
    rng = _rng(config, 0 if sc is None else sc.seed, 11)
    count = config.branch_samples if n is None else n
    tr = _Tracker()
    q_seen = set()
    for i in range(count):
        if i % 8 == 7:
            z = complex(_uniform(rng, 0.2, 2.5), 0.0)  # exactly on the axis
        else:
            z = _annulus(rng, 0.2, 2.5)
        p = int(rng.integers(-3, 4))

        d = abs(cmath.exp(lp(p, z)) - z) / max(1.0, abs(z))
        d = max(d, abs(lp(p + 1, z) - lp(p, z) - 2j * math.pi))
        _, sigma = neg_branch(p, z)
        d = max(d, abs(lp(p, -z) - lp(p, z) - sigma * PI_I))
        d = max(d, abs(lp(inv_branch(p, z), 1.0 / z) + lp(p, z)))
        tr.add(d, (z, z))

        z1, z2 = _generic_pair(rng)
        q = q_offset_product(z1, z2)
        q_seen.add(q)
        lhs = principal_arg((z1 - z2) / (z1 * (-z2)))
        rhs = (principal_arg(z1 - z2) - principal_arg(z1) - principal_arg(z2)
               + (2 * q + 1) * math.pi)
        d2 = abs(lhs - rhs)
        if not (0.0 <= lhs < TWO_PI) or q not in (-1, 0, 1, 2):
            d2 = math.inf
        p1 = int(rng.integers(-2, 3))
        p2 = int(rng.integers(-2, 3))
        k, residual = diff_inv_branch(p1, p2, z1, z2)
        d2 = max(d2, residual)
        if k != -p2:
            d2 = math.inf
        tr.add(d2, (z1, z2))

        # ratio decomposition needs its preconditions; build a valid pair.
        z2r = _annulus(rng, 0.8, 2.0)
        z1r = z2r + z2r * _uniform(rng, 0.05, 0.6) * cmath.exp(
            2j * math.pi * rng.random())
        try:
            qr, dr = ratio_arg_decomposition(z1r, z2r)
        except (ValueError, ArithmeticError):
            continue
        if qr not in (0, -1):
            dr = math.inf
        tr.add(dr, (z1r, z2r))
    passed = tr.max_defect < config.tol_branch
    return CheckReport("branch-identities", passed, tr.max_defect,
                       config.tol_branch, tr.samples, config.seed, tr.worst,
                       extras={"qValues": sorted(q_seen)})


# ---------------------------------------------------------------------------
# shift-identities
# ---------------------------------------------------------------------------


def check_shift_identities(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """The two automorphism/branch-shift identities on generic points."""
    rng = _rng(config, sc.seed, 23)
    points = [_generic_pair(rng) for _ in range(config.shift_points)]
    d1, d2 = check_shifts(sc.fam, sc.bt, points)
    defect = max(d1, d2)
    passed = defect < config.tol_branch
    return CheckReport("shift-identities", passed, defect, config.tol_branch,
                       2 * len(points) * sc.fam.dim, config.seed,
                       extras={"g1Defect": d1, "g2Defect": d2})


# ---------------------------------------------------------------------------
# duality-regions
# ---------------------------------------------------------------------------


def _duality_defect(functions, bt: BranchTriple, config: VerifyConfig, rng,
                    points_per_region: int, p12_bump: int = 0,
                    order: int | None = None):
    """Worst expansion-vs-designated-eval defect over regions and labels."""
    tr = _Tracker()
    if order is None:
        order = config.order
    for region in REGIONS:
        pts = [_region_pair(rng, region, config) for _ in range(points_per_region)]
        for f in functions:
            exp_f = expand_region(f, region, bt, order)
            target_bt = exp_f.designated
            if p12_bump:
                target_bt = BranchTriple(target_bt.p1, target_bt.p2,
                                         target_bt.p12 + p12_bump)
            for z1, z2 in pts:
                approx = exp_f.eval(z1, z2)
                exact = eval_branch2(f, target_bt, z1, z2)
                tr.add(_rel(approx, exact), (z1, z2))
    return tr


def check_duality_regions(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """Region series vs designated-triple evaluation, all three regions.

    A scenario marked control="duality-branch" is judged against an
    off-by-one p12, which must fail for non-integer difference exponents.
    """
    rng = _rng(config, sc.seed, 37)
    bump = 1 if sc.control == "duality-branch" else 0
    tr = _duality_defect(sc.fam.functions, sc.bt, config, rng,
                         config.duality_points, p12_bump=bump)
    passed = tr.max_defect < config.tol_series
    return CheckReport("duality-regions", passed, tr.max_defect,
                       config.tol_series, tr.samples, config.seed, tr.worst)


# ---------------------------------------------------------------------------
# region-swap (continuation across the difference cut)
# ---------------------------------------------------------------------------


def _swap_path(rng) -> tuple[PathSpec, float]:
    """Clockwise arc of z1 about z2 crossing the z1 - z2 cut exactly once.

    The start sits in the reversed window, the end in its complement; the
    whole arc keeps |z1| < |z2| and z1 clear of its own cut.  Returns the
    path and the start argument of z2.
    """
    a2 = _uniform(rng, 2.95, 3.45)
    z2 = _uniform(rng, 1.0, 2.0) * cmath.exp(1j * a2)
    wfrac = _uniform(rng, 0.52, 0.62)
    s0 = _uniform(rng, 0.15, 0.35)
    s1 = _uniform(rng, 0.15, 0.35)
    w0 = wfrac * abs(z2) * cmath.exp(1j * s0)
    z1 = z2 + w0
    turns = -(s0 + s1) / TWO_PI
    return PathSpec(z1, z2, [Arc("z1", turns=turns, about="other")]), a2


def check_region_swap(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """Continuation across arg(z1 - z2) = 0 lands on the p12-lowered triple.

    For each sampled arc: the tracked end triple must be
    (p1, p2, p2 - 1); the oracle end value must match the formula there;
    the reversed-region series (built in the start window) must evaluate
    at the end point to the lowered-triple value; and the unshifted triple
    must disagree (negative control) wherever the difference exponent
    makes the two branches distinct.
    """
    rng = _rng(config, sc.seed, 41)
    tr = _Tracker()
    neg_gap = math.inf
    neg_applicable = 0
    start_bt = designated_triple("reversed", sc.bt)
    lowered = BranchTriple(start_bt.p1, start_bt.p2, start_bt.p12 - 1)
    series = [expand_region(f, "reversed", sc.bt, max(config.order, 100))
              for f in sc.fam.functions]
    for _ in range(config.swap_paths):
        path, _ = _swap_path(rng)
        if not in_region("reversed", path.z1, path.z2, 0.04):
            tr.add(math.inf, (path.z1, path.z2))
            continue
        a1_end, _ = path_end(path)
        for f, f_series in zip(sc.fam.functions, series):
            res = continue_along(f, start_bt, path, tol=config.tol_series)
            if res.end_triple != lowered:
                tr.add(math.inf, (path.z1, path.z2))
                continue
            # The certificate is the gap between the oracle and f on the
            # lowered triple at the end point.
            target = res.end_value
            tr.add(res.certificate, (a1_end, path.z2))
            tr.add(_rel(f_series.eval(a1_end, path.z2), target), (a1_end, path.z2))
            wrong = eval_branch2(f, start_bt, a1_end, path.z2)
            gap = _rel(res.oracle_value, wrong)
            expected = _rel(target, wrong)
            if expected > 10.0 * config.tol_series:
                neg_applicable += 1
                neg_gap = min(neg_gap, gap)
    passed = tr.max_defect < config.tol_series
    if neg_applicable:
        passed = passed and neg_gap > 10.0 * config.tol_series
    return CheckReport("region-swap", passed, tr.max_defect, config.tol_series,
                       tr.samples, config.seed, tr.worst,
                       extras={"negativeGap": neg_gap,
                               "negativeApplicable": neg_applicable})


# ---------------------------------------------------------------------------
# monodromy-composition
# ---------------------------------------------------------------------------


def monodromy_loops(config: VerifyConfig) -> tuple[PathSpec, PathSpec]:
    """The two homotopic clockwise loops used by the composition check.

    Loop A: z1 = -a1 makes one full clockwise turn about the origin on a
    circle enclosing both 0 and z2 = -a2.  Loop B walks z1 inward (detouring
    over z2), circles the origin clockwise on the small radius a3, walks
    back out, then circles z2 clockwise.  Both wind (z1, z2, z1 - z2) by
    (-1, 0, -1).
    """
    a1, a2, a3 = config.loop_radii
    if not a1 > a2 > a3 > 0:
        raise ValueError("loop radii must satisfy a1 > a2 > a3 > 0")
    rho = 0.5 * (a2 - a3)
    loop_a = PathSpec(-a1, -a2, [Arc("z1", turns=-1, about="origin")])
    loop_b = PathSpec(-a1, -a2, [
        Segment("z1", -a2 - rho),
        Arc("z1", turns=-0.5, about="other"),   # over the top of z2
        Segment("z1", -a3),
        Arc("z1", turns=-1, about="origin"),
        Segment("z1", -a2 + rho),
        Arc("z1", turns=0.5, about="other"),    # back over the top
        Segment("z1", -a1),
        Arc("z1", turns=-1, about="other"),
    ])
    return loop_a, loop_b


def check_monodromy_composition(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """Homotopic loops agree, and the loop monodromy is g3 = g1 * g2.

    Three layers: (1) both loops transport the start triple to
    (p1-1, p2, p12-1) with matching continued values (tracker vs oracle);
    (2) the index-lowered evaluation equals the original family evaluated
    on g1*g2-moved labels (shift identities composed); (3) g3 equals
    g1 @ g2, numerically and in exact phases when available.
    """
    loop_a, loop_b = monodromy_loops(config)
    start = (complex(loop_a.z1), complex(loop_a.z2))
    expected = BranchTriple(sc.bt.p1 - 1, sc.bt.p2, sc.bt.p12 - 1)
    tr = _Tracker()
    act = sc.fam.action
    comp_defect = act.composition_defect()
    for i, f in enumerate(sc.fam.functions):
        res_a = continue_along(f, sc.bt, loop_a, tol=config.tol_series)
        res_b = continue_along(f, sc.bt, loop_b, tol=config.tol_series)
        if res_a.end_triple != expected or res_b.end_triple != expected:
            tr.add(math.inf, start)
            continue
        # Each certificate is the gap between the tracked end value and the
        # oracle on that loop.
        tr.add(_rel(res_a.oracle_value, res_b.oracle_value), start)
        tr.add(max(res_a.certificate, res_b.certificate), start)
        # Loop effect = composed automorphism on the probe label.
        lowered_val = eval_branch2(f, expected, *start)
        g12 = sc.fam.action.g1 @ sc.fam.action.g2
        via_g12 = eval_branch2(sc.fam.apply(g12, i), sc.bt, *start)
        via_g3 = eval_branch2(sc.fam.apply(sc.fam.action.g3, i), sc.bt, *start)
        tr.add(_rel(lowered_val, via_g12), start)
        tr.add(_rel(via_g3, via_g12), start)
    exact_ok = act.exact_composition_ok()
    if exact_ok is False:
        tr.add(math.inf, start)
    passed = tr.max_defect < config.tol_series and comp_defect < config.tol_branch
    tr.add(comp_defect, start)
    return CheckReport("monodromy-composition", passed, tr.max_defect,
                       config.tol_series, tr.samples, config.seed, tr.worst,
                       extras={"compositionDefect": comp_defect,
                               "windings": (-1, 0, -1)})


# ---------------------------------------------------------------------------
# omega-duality
# ---------------------------------------------------------------------------


def check_omega_duality(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """Exchange transform: relocation law, swapped action, involution."""
    rng = _rng(config, sc.seed, 53)
    tr = _Tracker()
    invol = 0.0
    for sign in (1, -1):
        gfam = omega_family(sc.fam, sign)
        # (i) pointwise relocation: the exchanged function at (z1, z2) is
        # the original at (z1 - z2, -z2) with the outer indices traded.
        for _ in range(config.pointwise_points):
            z1, z2 = _exchange_pair(rng, sign)
            P = _small_triple(rng, sc.bt)
            for g, f in zip(gfam.functions, sc.fam.functions):
                lhs = eval_branch2(g, P, z1, z2)
                rhs = eval_branch2(f, BranchTriple(P.p12, P.p2, P.p1),
                                   z1 - z2, -z2)
                tr.add(_rel(lhs, rhs), (z1, z2))
        # (ii) shift identities with the swapped action.
        pts = [_generic_pair(rng) for _ in range(config.shift_points)]
        for defect in check_shifts(gfam, sc.bt, pts):
            tr.add(defect)
        # (iii) region series of the exchanged family (deeper order: the
        # exchange can enlarge exponents, slowing the tail).
        sub = _duality_defect(gfam.functions, sc.bt, config, rng, 2,
                              order=max(config.order, 100))
        tr.add(sub.max_defect, sub.worst)
        tr.samples += sub.samples - 1
        # (iv) involution: the opposite sign undoes the transform exactly.
        for f in sc.fam.functions:
            back = omega_transform(omega_transform(f, sign), -sign)
            invol = max(invol, term_distance(back, f))
        act2 = omega_action(omega_action(sc.fam.action, sign), -sign)
        for a, b in ((act2.g1, sc.fam.action.g1), (act2.g2, sc.fam.action.g2),
                     (act2.g3, sc.fam.action.g3)):
            invol = max(invol, float(np.max(np.abs(a - b))))
    passed = tr.max_defect < config.tol_series and invol < config.tol_branch
    return CheckReport("omega-duality", passed, max(tr.max_defect, invol),
                       config.tol_series, tr.samples, config.seed, tr.worst,
                       extras={"involutionDefect": invol})


def _exchange_pair(rng, sign: int) -> tuple[complex, complex]:
    """Pair with arg z2 on the sign's side of pi (strictly inside)."""
    for _ in range(256):
        if sign > 0:
            a2 = _uniform(rng, 0.05, math.pi - 0.05)
        else:
            a2 = _uniform(rng, math.pi + 0.05, TWO_PI - 0.05)
        z2 = _uniform(rng, 0.4, 1.8) * cmath.exp(1j * a2)
        z1 = _annulus(rng, 0.4, 2.2)
        if abs(z1 - z2) > 0.15 and abs(z1) > 0.1:
            return z1, z2
    raise RuntimeError("exchange pair sampling failed")


# ---------------------------------------------------------------------------
# contragredient-duality
# ---------------------------------------------------------------------------


def check_contragredient_duality(sc: AbelianScenario, config: VerifyConfig) -> CheckReport:
    """Contragredient transform: inversion law, induced action, involution.

    The inversion law evaluated here: the transformed function at
    (z1, z2) on (P1, P2, P12) equals the weight-modified original at
    (1/z1, 1/z2) on (inv P1, inv P2, P12 - P1 - P2 - q [- 1 for sign -])
    with q the product branch offset of (z1, z2).
    """
    rng = _rng(config, sc.seed, 67)
    tr = _Tracker()
    invol = 0.0
    relation = 0.0
    for sign in (1, -1):
        hfam = contragredient_family(sc.fam, sc.qp, sign)
        fmods = [quasi_primary_modify(f, sc.qp, sign) for f in sc.fam.functions]
        # (i) inverted-variable pointwise law.
        for _ in range(config.pointwise_points):
            z1, z2 = _generic_pair(rng)
            P = _small_triple(rng, sc.bt)
            q = q_offset_product(z1, z2)
            p12 = P.p12 - P.p1 - P.p2 - q - (0 if sign > 0 else 1)
            inv_bt = BranchTriple(inv_branch(P.p1, z1), inv_branch(P.p2, z2), p12)
            for h, fmod in zip(hfam.functions, fmods):
                lhs = eval_branch2(h, P, z1, z2)
                rhs = eval_branch2(fmod, inv_bt, 1.0 / z1, 1.0 / z2)
                tr.add(_rel(lhs, rhs), (z1, z2))
        # (ii) shift identities with the induced action (integral wt_u).
        pts = [_generic_pair(rng) for _ in range(config.shift_points)]
        for defect in check_shifts(hfam, sc.bt, pts):
            tr.add(defect)
        # (iii) one-variable relation, on and off the positive real axis.
        zs = [complex(_uniform(rng, 0.4, 2.0), 0.0), _annulus(rng, 0.4, 2.0),
              _annulus(rng, 0.4, 2.0)]
        for f in sc.fam.functions:
            for z in zs:
                p = sc.bt.p2 + int(rng.integers(-1, 2))
                relation = max(relation, a_eval_relation(f, sc.qp, p, z, sign))
                tr.samples += 1
        # (iv) region series of the transformed family (deeper order: the
        # contragredient exponents grow with the weights).
        sub = _duality_defect(hfam.functions, sc.bt, config, rng, 2,
                              order=max(config.order, 100))
        tr.add(sub.max_defect, sub.worst)
        tr.samples += sub.samples - 1
        # (v) involutions: plain rewrite, then the full weighted pipeline.
        for f, fmod in zip(sc.fam.functions, fmods):
            invol = max(invol, term_distance(
                a_transform(a_transform(fmod, sign), -sign), fmod))
            back = quasi_primary_unmodify(
                a_transform(a_transform(quasi_primary_modify(f, sc.qp, sign),
                                        sign), -sign),
                sc.qp, sign)
            invol = max(invol, term_distance(back, normalize(f)))
    tr.add(relation)
    passed = (tr.max_defect < config.tol_series
              and invol < config.tol_branch
              and relation < config.tol_series)
    return CheckReport("contragredient-duality", passed,
                       max(tr.max_defect, invol), config.tol_series,
                       tr.samples, config.seed, tr.worst,
                       extras={"involutionDefect": invol,
                               "relationDefect": relation})


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


CHECKS = {
    "branch-identities": check_branch_identities,
    "shift-identities": check_shift_identities,
    "duality-regions": check_duality_regions,
    "region-swap": check_region_swap,
    "monodromy-composition": check_monodromy_composition,
    "omega-duality": check_omega_duality,
    "contragredient-duality": check_contragredient_duality,
}

_SCENARIO_CHECKS = ("shift-identities", "duality-regions", "region-swap",
                    "monodromy-composition", "omega-duality",
                    "contragredient-duality")

_CONTROL_TARGET = {
    "shift": "shift-identities",
    "composition": "monodromy-composition",
    "duality-branch": "duality-regions",
}


def run_suite(scenarios: list[AbelianScenario] | None = None,
              config: VerifyConfig | None = None,
              check: str | None = None) -> list[CheckReport]:
    """Run every check over the scenario set (shipped set by default).

    Control scenarios run only their targeted check, with expect_fail set;
    suite_ok() then requires normal checks to pass and controls to fail.
    With check, a name in CHECKS, only that check runs, and only the
    controls that target it: the reports are the full run's reports of
    that check, in the same order.
    """
    if check is not None and check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if scenarios is None:
        scenarios = default_scenarios()
    if config is None:
        config = VerifyConfig()
    reports = []
    if check in (None, "branch-identities"):
        reports.append(check_branch_identities(None, config))
    for sc in scenarios:
        if sc.control is not None:
            target = _CONTROL_TARGET.get(sc.control)
            if target is None:
                raise ValueError(f"unknown control kind {sc.control!r}")
            if check not in (None, target):
                continue
            rep = CHECKS[target](sc, config)
            rep.name = f"{sc.name}/{rep.name}"
            rep.expect_fail = True
            reports.append(rep)
            continue
        for check_name in _SCENARIO_CHECKS:
            if check not in (None, check_name):
                continue
            rep = CHECKS[check_name](sc, config)
            rep.name = f"{sc.name}/{rep.name}"
            reports.append(rep)
    return reports


def suite_ok(reports: list[CheckReport]) -> bool:
    """True iff every report met its expectation (controls must fail)."""
    return all(r.passed != r.expect_fail for r in reports)
