"""Verification checks and the standard suite.

Each check returns a CheckReport with the worst defect it saw.  Defects
are absolute gaps between two independently computed complex numbers:
exact index/coefficient arithmetic is held to TOL_BRANCH (1e-12) and
anything involving truncated series or sampled paths to the configured
tol_series (1e-9 default).  Scenario generators keep exponents and branch
indices small enough that these absolute bounds are meaningful.

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
    _AXIS_SNAP,
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
    BranchTriple,
    REGIONS,
    _expand_regions,
    _region_point,
    continue_family,
    designated_triple,
    eval_branch2,
    eval_parts,
    expand_family,
    in_region,
    normalize,
    point_logs,
    relative_gap,
    term_distance,
)
from .models import Scenario, _uniform, default_scenarios
from .paths import Arc, PathSpec, Segment, path_end
from .transforms import (
    _contragredient_rewrite,
    a_transform,
    a_eval_relations,
    check_shifts,
    shift_defects,
    shift_stage,
    omega_action,
    omega_family,
    omega_transform,
    quasi_primary_modify,
    quasi_primary_unmodify,
)

PI_I = complex(0.0, math.pi)
TOL_BRANCH = 1e-12  # bound on the defects of exact index and coefficient arithmetic

# Region samples: the range of their inner/outer modulus ratio, and the
# in_region margin they must clear.
_RATIO_LO, _RATIO_HI, _REGION_MARGIN = 0.3, 0.6, 0.05

# Each check's sample count, read when it runs: it passes on these or fails.
_BRANCH_SAMPLES = 2000  # branch-identities
_SHIFT_POINTS = 6  # shift-identities, and each sign's shift stage of the transform checks
_DUALITY_POINTS = 4  # duality-regions, per region
_SWAP_PATHS = 2  # region-swap
_POINTWISE_POINTS = 6  # the transform checks' pointwise laws, per sign


@dataclass
class VerifyConfig:
    """Series tolerance, series order and seed for the checks."""

    tol_series: float = 1e-9
    order: int = 60
    seed: int = 0


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

    def add(self, defect: float, point=None, samples: int = 1):
        """Count samples samples, all with this defect at this point."""
        self.samples += samples
        if defect > self.max_defect:
            self.max_defect = float(defect)
            self.worst = point


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


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


def _region_pair(rng, region: str) -> tuple[complex, complex]:
    """Rejection-sample a pair inside a region, clear of its boundaries."""
    for _ in range(4096):
        ratio = _uniform(rng, _RATIO_LO, _RATIO_HI)
        phi = 2j * math.pi * rng.random()
        outer = _annulus(rng, 0.8, 2.0)
        z1, z2 = _region_point(region, outer, outer * ratio * cmath.exp(phi))
        if in_region(region, z1, z2, _REGION_MARGIN):
            return z1, z2
    raise RuntimeError(f"region sampling failed for {region}")


def _small_triple(rng, base: BranchTriple) -> BranchTriple:
    """base with each index moved by a draw from {-1, 0, 1}, in order."""
    return BranchTriple(*(p + int(rng.integers(-1, 2)) for p in base))


# ---------------------------------------------------------------------------
# branch-identities
# ---------------------------------------------------------------------------


def _annuli(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n points drawn as _annulus draws one, as arrays: the moduli, then
    the angles."""
    return (lo + (hi - lo) * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _redrawn_pairs(n: int, draw, refused) -> tuple[np.ndarray, np.ndarray]:
    """n pairs a, b = draw(n), the pairs that refused(a, b) marks drawn
    again, at most 256 rounds."""
    a, b = draw(n)
    todo = np.arange(n)
    for _ in range(256):
        todo = todo[refused(a[todo], b[todo])]
        if not todo.size:
            return a, b
        a[todo], b[todo] = draw(todo.size)
    raise RuntimeError("pair sampling failed")


def _branch_samples(rng, n: int) -> tuple[list, ...]:
    """branch-identities' n samples, each quantity drawn as one array:

      z, p      a point of modulus in [0.2, 2.5], and an index in [-3, 3];
                of every eight, the fourth and sixth at the snap band's edge
                by the positive and the negative half-axis, the eighth
                exactly on the positive axis;
      z1, z2    a generic pair, drawn as _generic_pair draws one (the pairs
                with |z1 - z2| <= 0.15 drawn again), and indices p1, p2 in
                [-2, 2];
      z1r, z2r  a pair with 0.05 |z2r| <= |z1r - z2r| <= 0.6 |z2r| and
                principal arguments less than pi/2 apart (the pairs farther
                apart drawn again), inside ratio_arg_decomposition's
                hypotheses.

    Returns (z, p, z1, z2, p1, p2, z1r, z2r), each a list of Python
    numbers."""
    modulus = 0.2 + 2.3 * rng.random(n)
    z = modulus * np.exp(2j * np.pi * rng.random(n))
    # |Im| = _AXIS_SNAP |Re| moved by -2 to 2 ulps, above and below in turn
    k, edge = np.arange(n) // 8, _AXIS_SNAP * modulus
    band = modulus + 1j * np.where(k % 2, -1.0, 1.0) * (edge + (k % 5 - 2) * np.spacing(edge))
    z[3::8], z[5::8] = band[3::8], -band[5::8]
    z[7::8] = modulus[7::8]  # exactly on the axis
    p = rng.integers(-3, 4, n)
    z1, z2 = _redrawn_pairs(n, lambda m: (_annuli(rng, m, 0.3, 2.2), _annuli(rng, m, 0.3, 2.2)),
                            lambda z1, z2: np.abs(z1 - z2) <= 0.15)
    p1, p2 = rng.integers(-2, 3, n), rng.integers(-2, 3, n)

    def ratio_pairs(m):
        z2r = _annuli(rng, m, 0.8, 2.0)
        return z2r + z2r * _annuli(rng, m, 0.05, 0.6), z2r

    def too_wide(z1r, z2r):  # fails the decomposition's own argument-gap hypothesis
        return np.array([not abs(principal_arg(a) - principal_arg(b)) < math.pi / 2.0
                         for a, b in zip(z1r.tolist(), z2r.tolist())], dtype=bool)

    z1r, z2r = _redrawn_pairs(n, ratio_pairs, too_wide)
    return tuple(a.tolist() for a in (z, p, z1, z2, p1, p2, z1r, z2r))


def check_branch_identities(sc: Scenario | None, config: VerifyConfig) -> CheckReport:
    """Randomized identities of lp, neg/inv branches and the offset laws."""
    tr = _Tracker()
    q_seen = set()
    samples = _branch_samples(_rng(config, 0 if sc is None else sc.seed, 11), _BRANCH_SAMPLES)
    for z, p, z1, z2, p1, p2, z1r, z2r in zip(*samples):
        log_z = lp(p, z)
        d = abs(cmath.exp(log_z) - z) / max(1.0, abs(z))
        d = max(d, abs(lp(p + 1, z) - log_z - 2j * math.pi))
        _, sigma = neg_branch(p, z)
        d = max(d, abs(lp(p, -z) - log_z - sigma * PI_I))
        d = max(d, abs(lp(inv_branch(p, z), 1.0 / z) + log_z))
        tr.add(d, (z, z))

        q = q_offset_product(z1, z2)
        q_seen.add(q)
        lhs = principal_arg((z1 - z2) / (z1 * (-z2)))
        rhs = (principal_arg(z1 - z2) - principal_arg(z1) - principal_arg(z2)
               + (2 * q + 1) * math.pi)
        d2 = abs(lhs - rhs)
        if not (0.0 <= lhs < TWO_PI) or q not in (-1, 0, 1, 2):
            d2 = math.inf
        k, residual = diff_inv_branch(p1, p2, z1, z2)
        d2 = max(d2, residual)
        if k != -p2:
            d2 = math.inf
        tr.add(d2, (z1, z2))

        try:
            qr, dr = ratio_arg_decomposition(z1r, z2r)
            if qr not in (0, -1):
                dr = math.inf
        except (ValueError, ArithmeticError):
            dr = math.inf  # every pair is drawn inside the hypotheses
        tr.add(dr, (z1r, z2r))
    passed = tr.max_defect < TOL_BRANCH
    return CheckReport("branch-identities", passed, tr.max_defect,
                       TOL_BRANCH, tr.samples, config.seed, tr.worst,
                       extras={"qValues": sorted(q_seen)})


# ---------------------------------------------------------------------------
# shift-identities
# ---------------------------------------------------------------------------


def check_shift_identities(sc: Scenario, config: VerifyConfig) -> CheckReport:
    """The two automorphism/branch-shift identities on generic points."""
    rng = _rng(config, sc.seed, 23)
    points = [_generic_pair(rng) for _ in range(_SHIFT_POINTS)]
    d1, d2 = check_shifts(sc.fam, sc.bt, points)
    defect = max(d1, d2)
    passed = defect < TOL_BRANCH
    return CheckReport("shift-identities", passed, defect, TOL_BRANCH,
                       2 * len(points) * sc.fam.dim, config.seed,
                       extras={"g1Defect": d1, "g2Defect": d2})


# ---------------------------------------------------------------------------
# duality-regions
# ---------------------------------------------------------------------------


def _run_stages(tr: _Tracker, stages) -> None:
    """Evaluate the parts of every stage, a (parts, logs, read) triple, in
    one eval_parts call per point count, then add into tr, stage by stage,
    the (defect, point) pairs that read yields from the stage's values (a
    row per part)."""
    values = [None] * len(stages)
    for count in dict.fromkeys(len(logs[0]) for _, logs, _ in stages):
        batch = [k for k, (_, logs, _) in enumerate(stages) if len(logs[0]) == count]
        rows = eval_parts([p for k in batch for p in stages[k][0]],
                          [a for k in batch for a in stages[k][1]]).tolist()
        for k in batch:
            values[k], rows = rows[:len(stages[k][0])], rows[len(stages[k][0]):]
    for (_, _, read), rows in zip(stages, values):
        for defect, point in read(rows):
            tr.add(defect, point)


def _pointwise_stage(lhs_functions, lhs_logs, rhs_functions, rhs_logs, samples):
    """The stage of a pointwise law: at each (bt, z1, z2) of samples in
    turn, the gap between each left function on lhs_logs and its right
    partner on rhs_logs."""
    n = len(lhs_functions)

    def read(values):
        for (_, z1, z2), row in zip(samples, zip(*values)):
            for lhs, rhs in zip(row, row[n:]):
                yield relative_gap(lhs, rhs), (z1, z2)
    return ([*lhs_functions, *rhs_functions],
            [lhs_logs] * n + [rhs_logs] * len(rhs_functions), read)


def _shift_stage(fam, bt: BranchTriple, points):
    """The stage of both shift identities at points, defects without a point."""
    parts, logs = shift_stage(fam, bt, points)
    return parts, logs, lambda values: ((d, None) for d in shift_defects(values, fam.dim))


def _region_stage(series, functions, logs, exact_logs, points):
    """The stage of one region: function by function, the gap at each of
    points between its series on logs and itself on exact_logs."""
    n = len(series)

    def read(values):
        for approx_f, exact_f in zip(values, values[n:]):
            for point, approx, exact in zip(points, approx_f, exact_f):
                yield relative_gap(approx, exact), point
    return [*series, *functions], [logs] * n + [exact_logs] * n, read


def _region_samples(rng, points_per_region: int) -> list[list[tuple[complex, complex]]]:
    return [[_region_pair(rng, region) for _ in range(points_per_region)]
            for region in REGIONS]


def _duality_stages(families, bt: BranchTriple, order: int, samples,
                    p12_bump: int = 0) -> list[list]:
    """For each family (a list of functions), the stages of its region
    series against its designated-triple values, one per region at that
    region's points of the family's samples (_region_samples).  Every
    family's series of all three regions come from one _expand_regions
    call, and the stages share one kernel call under _run_stages.  Both
    sides share the designated triple's logs, unless p12_bump moves the
    exact side's."""
    built = dict(zip(REGIONS, _expand_regions([f for functions in families for f in functions],
                                              REGIONS, bt, order)))
    out, at = [], 0
    for functions, per_region in zip(families, samples):
        stages = []
        for region, pts in zip(REGIONS, per_region):
            designated = designated_triple(region, bt)
            logs = exact_logs = point_logs((designated, z1, z2) for z1, z2 in pts)
            if p12_bump:
                bumped = designated._replace(p12=designated.p12 + p12_bump)
                exact_logs = point_logs((bumped, z1, z2) for z1, z2 in pts)
            stages.append(_region_stage(built[region][at:at + len(functions)], functions,
                                        logs, exact_logs, pts))
        out.append(stages)
        at += len(functions)
    return out


def check_duality_regions(sc: Scenario, config: VerifyConfig) -> CheckReport:
    """Region series vs designated-triple evaluation, all three regions.

    A scenario marked control="duality-branch" is judged against an
    off-by-one p12, which must fail for non-integer difference exponents.
    """
    rng = _rng(config, sc.seed, 37)
    bump = 1 if sc.control == "duality-branch" else 0
    tr = _Tracker()
    samples = _region_samples(rng, _DUALITY_POINTS)
    _run_stages(tr, _duality_stages([sc.fam.functions], sc.bt, config.order, [samples],
                                    bump)[0])
    passed = tr.max_defect < config.tol_series
    return CheckReport("duality-regions", passed, tr.max_defect,
                       config.tol_series, tr.samples, config.seed, tr.worst)


# ---------------------------------------------------------------------------
# region-swap (continuation across the difference cut)
# ---------------------------------------------------------------------------


def _swap_path(rng) -> PathSpec:
    """Clockwise arc of z1 about z2 crossing the z1 - z2 cut exactly once.

    The start sits in the reversed window, the end in its complement; the
    whole arc keeps |z1| < |z2| and z1 clear of its own cut.
    """
    a2 = _uniform(rng, 2.95, 3.45)
    z2 = _uniform(rng, 1.0, 2.0) * cmath.exp(1j * a2)
    wfrac = _uniform(rng, 0.52, 0.62)
    s0 = _uniform(rng, 0.15, 0.35)
    s1 = _uniform(rng, 0.15, 0.35)
    w0 = wfrac * abs(z2) * cmath.exp(1j * s0)
    z1 = z2 + w0
    turns = -(s0 + s1) / TWO_PI
    return PathSpec(z1, z2, [Arc("z1", turns=turns, about="other")])


def check_region_swap(sc: Scenario, config: VerifyConfig) -> CheckReport:
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
    paths = [_swap_path(rng) for _ in range(_SWAP_PATHS)]
    ends = {i: (path_end(path)[0], path.z2) for i, path in enumerate(paths)
            if in_region("reversed", path.z1, path.z2, 0.04)}
    # The family's series, built once, and the family itself on the
    # unshifted triple (the negative control), at every arc's end in one
    # kernel call.
    functions = sc.fam.functions
    series = expand_family(functions, "reversed", sc.bt, max(config.order, 100))
    logs = point_logs((start_bt, z1, z2) for z1, z2 in ends.values())
    at_ends = [dict(zip(ends, values)) for values in
               eval_parts([*series, *functions], [logs] * (2 * len(series))).tolist()]
    for i, path in enumerate(paths):
        if i not in ends:  # each function's two samples, at defect inf
            tr.add(math.inf, (path.z1, path.z2), 2 * len(functions))
            continue
        a1_end, _ = ends[i]
        # tol=inf: a finite certificate over tol_series fails the report below.
        continued = continue_family(functions, start_bt, path, tol=math.inf)
        for res, f_ends, f_unshifted in zip(continued, at_ends, at_ends[len(series):]):
            if res.end_triple != lowered:  # its two samples, at defect inf
                tr.add(math.inf, (path.z1, path.z2), 2)
                continue
            # The certificate is the gap between the oracle and f on the
            # lowered triple at the end point.
            target = res.end_value
            tr.add(res.certificate, (a1_end, path.z2))
            tr.add(relative_gap(f_ends[i], target), (a1_end, path.z2))
            wrong = f_unshifted[i]
            gap = relative_gap(res.oracle_value, wrong)
            expected = relative_gap(target, wrong)
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


def monodromy_loops() -> tuple[PathSpec, PathSpec]:
    """The two homotopic clockwise loops used by the composition check.

    Loop A: z1 = -a1 makes one full clockwise turn about the origin on a
    circle enclosing both 0 and z2 = -a2.  Loop B walks z1 inward (detouring
    over z2), circles the origin clockwise on the small radius a3, walks
    back out, then circles z2 clockwise.  Both wind (z1, z2, z1 - z2) by
    (-1, 0, -1).
    """
    a1, a2, a3 = 1.8, 1.0, 0.5
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


def check_monodromy_composition(sc: Scenario, config: VerifyConfig) -> CheckReport:
    """Homotopic loops agree, and the loop monodromy is g3 = g1 * g2.

    Three layers: (1) both loops transport the start triple to
    (p1-1, p2, p12-1) with matching continued values (tracker vs oracle);
    (2) the index-lowered evaluation equals the original family evaluated
    on g1*g2-moved labels (shift identities composed); (3) g3 equals
    g1 @ g2.
    """
    loop_a, loop_b = monodromy_loops()
    start = (complex(loop_a.z1), complex(loop_a.z2))
    expected = BranchTriple(sc.bt.p1 - 1, sc.bt.p2, sc.bt.p12 - 1)
    tr = _Tracker()
    act = sc.fam.action
    comp_defect = act.composition_defect()
    windings = None
    functions = sc.fam.functions
    # tol=inf: a finite certificate over tol_series fails the report below.
    continued_a = continue_family(functions, sc.bt, loop_a, tol=math.inf)
    continued_b = continue_family(functions, sc.bt, loop_b, tol=math.inf)
    for i, (f, res_a, res_b) in enumerate(zip(functions, continued_a, continued_b)):
        windings = res_a.crossings
        if res_a.end_triple != expected or res_b.end_triple != expected:
            tr.add(math.inf, start, 4)  # its four samples, at defect inf
            continue
        # Each certificate is the gap between the tracked end value and the
        # oracle on that loop.
        tr.add(relative_gap(res_a.oracle_value, res_b.oracle_value), start)
        tr.add(max(res_a.certificate, res_b.certificate), start)
        # Loop effect = composed automorphism on the probe label.
        lowered_val = eval_branch2(f, expected, *start)
        g12 = sc.fam.action.g1 @ sc.fam.action.g2
        via_g12 = eval_branch2(sc.fam.apply(g12, i), sc.bt, *start)
        via_g3 = eval_branch2(sc.fam.apply(sc.fam.action.g3, i), sc.bt, *start)
        tr.add(relative_gap(lowered_val, via_g12), start)
        tr.add(relative_gap(via_g3, via_g12), start)
    passed = tr.max_defect < config.tol_series and comp_defect < TOL_BRANCH
    tr.add(comp_defect, start)
    return CheckReport("monodromy-composition", passed, tr.max_defect,
                       config.tol_series, tr.samples, config.seed, tr.worst,
                       extras={"compositionDefect": comp_defect,
                               "windings": windings})


# ---------------------------------------------------------------------------
# omega-duality
# ---------------------------------------------------------------------------


def check_omega_duality(sc: Scenario, config: VerifyConfig) -> CheckReport:
    """Exchange transform: relocation law, swapped action, involution.

    For each sign: (i) the exchanged family at (z1, z2) against the original
    at (z1 - z2, -z2) with the outer indices traded; (ii) the shift
    identities with the swapped action; (iii) the exchanged family's region
    series; (iv) the involution: the opposite sign's rewrite of each
    exchanged function, the one the family already holds, gives back the
    original, and the opposite sign's action undoes the swap.

    Both signs draw their samples first; then each region's series of both
    exchanged families come from one build, and every value from one kernel
    call per point count.
    """
    rng = _rng(config, sc.seed, 53)
    tr = _Tracker()
    invol = 0.0
    families, stages, region_points = [], [], []
    for sign in (1, -1):
        gfam = omega_family(sc.fam, sign)
        # (i) pointwise relocation: the exchanged function at (z1, z2) is
        # the original at (z1 - z2, -z2) with the outer indices traded.
        samples = []
        for _ in range(_POINTWISE_POINTS):
            z1, z2 = _exchange_pair(rng, sign)
            samples.append((_small_triple(rng, sc.bt), z1, z2))
        lhs = point_logs(samples)
        rhs = point_logs((BranchTriple(P.p12, P.p2, P.p1), z1 - z2, -z2)
                         for P, z1, z2 in samples)
        # (ii) shift identities with the swapped action.
        pts = [_generic_pair(rng) for _ in range(_SHIFT_POINTS)]
        stages.append([_pointwise_stage(gfam.functions, lhs, sc.fam.functions, rhs, samples),
                       _shift_stage(gfam, sc.bt, pts)])
        # (iii) region series of the exchanged family (deeper order: the
        # exchange can enlarge exponents, slowing the tail).
        families.append(gfam.functions)
        region_points.append(_region_samples(rng, 2))
        # (iv) involution: the opposite sign undoes the transform of each
        # exchanged function exactly.
        for f, g in zip(sc.fam.functions, gfam.functions):
            invol = max(invol, term_distance(omega_transform(g, -sign), f))
        act2 = omega_action(omega_action(sc.fam.action, sign), -sign)
        for a, b in ((act2.g1, sc.fam.action.g1), (act2.g2, sc.fam.action.g2),
                     (act2.g3, sc.fam.action.g3)):
            invol = max(invol, float(np.max(np.abs(a - b))))
    regions = _duality_stages(families, sc.bt, max(config.order, 100), region_points)
    _run_stages(tr, [s for own, more in zip(stages, regions) for s in own + more])
    passed = tr.max_defect < config.tol_series and invol < TOL_BRANCH
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


def check_contragredient_duality(sc: Scenario, config: VerifyConfig) -> CheckReport:
    """Contragredient transform: inversion law, induced action, one-variable
    relation, involution.

    For each sign: (i) the inversion law: the transformed function at
    (z1, z2) on (P1, P2, P12) equals the weight-modified original at
    (1/z1, 1/z2) on (inv P1, inv P2, P12 - P1 - P2 - q [- 1 for sign -])
    with q the product branch offset of (z1, z2); (ii) the shift identities
    with the induced action; (iii) the one-variable relation of each
    function (a_eval_relations, one shadow per function) at three probes
    (p, z), z on and off the positive real axis and p within one of the
    scenario's p2; (iv) the transformed family's region series; (v) the
    involutions: the opposite sign's rewrite of each transformed function,
    the one the family already holds, gives back the weight-modified
    original, and with the weight factors taken off, the original.

    Both signs draw their samples first; then each region's series of both
    transformed families come from one build, and every value from one
    kernel call per point count.
    """
    rng = _rng(config, sc.seed, 67)
    tr = _Tracker()
    invol = 0.0
    relation = 0.0
    families, stages, region_points = [], [], []
    for sign in (1, -1):
        # contragredient_family, keeping the weight-modified functions
        modified = sc.fam.map_functions(lambda f: quasi_primary_modify(f, sc.qp, sign))
        fmods = modified.functions
        hfam = _contragredient_rewrite(modified, sign)
        # (i) inverted-variable pointwise law.
        samples, inverted = [], []
        for _ in range(_POINTWISE_POINTS):
            z1, z2 = _generic_pair(rng)
            P = _small_triple(rng, sc.bt)
            q = q_offset_product(z1, z2)
            p12 = P.p12 - P.p1 - P.p2 - q - (0 if sign > 0 else 1)
            inv_bt = BranchTriple(inv_branch(P.p1, z1), inv_branch(P.p2, z2), p12)
            samples.append((P, z1, z2))
            inverted.append((inv_bt, 1.0 / z1, 1.0 / z2))
        # (ii) shift identities with the induced action (integral wt_u).
        pts = [_generic_pair(rng) for _ in range(_SHIFT_POINTS)]
        stages.append([_pointwise_stage(hfam.functions, point_logs(samples), fmods,
                                        point_logs(inverted), samples),
                       _shift_stage(hfam, sc.bt, pts)])
        # (iii) one-variable relation, on and off the positive real axis.
        zs = [complex(_uniform(rng, 0.4, 2.0), 0.0), _annulus(rng, 0.4, 2.0),
              _annulus(rng, 0.4, 2.0)]
        for f in sc.fam.functions:
            probes = [(sc.bt.p2 + int(rng.integers(-1, 2)), z) for z in zs]
            relation = max([relation, *a_eval_relations(f, sc.qp, probes, sign)])
            tr.samples += len(probes)
        # (iv) region series of the transformed family (deeper order: the
        # contragredient exponents grow with the weights).
        families.append(hfam.functions)
        region_points.append(_region_samples(rng, 2))
        # (v) involutions: the opposite sign undoes the rewrite of each
        # transformed function, and the weight factors come off again.
        for f, fmod, h in zip(sc.fam.functions, fmods, hfam.functions):
            round_trip = a_transform(h, -sign)
            invol = max(invol, term_distance(round_trip, fmod))
            back = quasi_primary_unmodify(round_trip, sc.qp, sign)
            invol = max(invol, term_distance(back, normalize(f)))
    regions = _duality_stages(families, sc.bt, max(config.order, 100), region_points)
    _run_stages(tr, [s for own, more in zip(stages, regions) for s in own + more])
    tr.add(relation)
    passed = (tr.max_defect < config.tol_series
              and invol < TOL_BRANCH
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


def run_suite(scenarios: list[Scenario] | None = None,
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
        names = _SCENARIO_CHECKS
        if sc.control is not None:
            if sc.control not in _CONTROL_TARGET:
                raise ValueError(f"unknown control kind {sc.control!r}")
            names = (_CONTROL_TARGET[sc.control],)
        for name in names:
            if check in (None, name):
                rep = CHECKS[name](sc, config)
                rep.name = f"{sc.name}/{rep.name}"
                rep.expect_fail = sc.control is not None
                reports.append(rep)
    return reports


def suite_ok(reports: list[CheckReport]) -> bool:
    """True iff every report met its expectation (controls must fail)."""
    return all(r.passed != r.expect_fail for r in reports)
