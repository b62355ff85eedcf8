"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and budget, and prints a single summary line (visible with
pytest -s, and in the captured output on failure).
"""

import cmath
import hashlib
import inspect
import json
import math
import time
from pathlib import Path

import numpy as np

from twistlab import (
    BranchTriple,
    LogFunction,
    LogMonomial,
    REGIONS,
    VerifyConfig,
    check_branch_identities,
    check_contragredient_duality,
    check_monodromy_composition,
    check_omega_duality,
    check_region_swap,
    continue_along,
    default_scenarios,
    eval_branch2,
    expand_region,
    in_region,
    make_random,
    make_random_loop,
    oracle_continue,
    run_suite,
    suite_ok,
)
from twistlab import models as _models
from twistlab.cli import load_scenario
from twistlab import logfun as _logfun
from twistlab import verify


def report(name: str, passed: bool, detail: str):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _annulus(rng, lo, hi) -> complex:
    return float(rng.uniform(lo, hi)) * cmath.exp(2j * math.pi * float(rng.uniform()))


def _region_point(rng, region):
    for _ in range(4096):
        ratio = float(rng.uniform(0.3, 0.6))
        phi = cmath.exp(2j * math.pi * float(rng.uniform()))
        if region == "product":
            z1 = _annulus(rng, 0.8, 2.0)
            z2 = z1 * ratio * phi
        elif region == "reversed":
            z2 = _annulus(rng, 0.8, 2.0)
            z1 = z2 * ratio * phi
        else:
            z2 = _annulus(rng, 0.8, 2.0)
            z1 = z2 + z2 * ratio * phi
        if in_region(region, z1, z2, 0.05):
            return z1, z2
    raise RuntimeError(f"no point found in {region}")


def test_branch_calculus_identities(monkeypatch):
    """10^4 randomized checks of the branch index identities, < 1e-12, < 5 s."""
    monkeypatch.setattr(verify, "_BRANCH_SAMPLES", 10_000)
    t0 = time.perf_counter()
    rep = check_branch_identities(None, VerifyConfig())
    dt = time.perf_counter() - t0
    report("branch calculus identities",
           rep.passed and rep.max_defect < 1e-12 and dt < 5.0,
           f"max defect {rep.max_defect:.2e} over {rep.samples} samples in {dt:.1f}s")


def test_region_expansion_convergence():
    """100 random log functions, order-60 series in all three regions, < 1e-9, < 60 s."""

    def sample_function(rng):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            coeff = complex(float(rng.uniform(-1.5, 1.5)),
                            float(rng.uniform(-1.5, 1.5)))
            exps = [complex(float(rng.uniform(-2.0, 2.0)),
                            float(rng.uniform(-0.25, 0.25))) for _ in range(3)]
            l, m, n = (int(rng.integers(0, 3)) for _ in range(3))
            terms.append(LogMonomial(coeff, exps[0], exps[1], exps[2], l, m, n))
        return LogFunction(terms)

    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = sample_function(rng)
        bt = BranchTriple(*(int(rng.integers(-1, 2)) for _ in range(3)))
        for region in REGIONS:
            z1, z2 = _region_point(rng, region)
            exp_f = expand_region(f, region, bt, 60)
            got = exp_f.eval(z1, z2)
            want = eval_branch2(f, exp_f.designated, z1, z2)
            worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
    dt = time.perf_counter() - t0
    report("region expansion convergence",
           worst < 1e-9 and dt < 60.0,
           f"worst relative defect {worst:.2e} over 300 expansions in {dt:.1f}s")


def test_cut_crossing_lowers_difference_index():
    """50 scenarios: crossing the difference cut lands on p12 - 1; controls split."""
    cfg = VerifyConfig()
    worst = 0.0
    neg_applicable = 0
    neg_gap = math.inf
    ok = True
    for seed in range(1, 51):
        rep = check_region_swap(make_random(seed), cfg)
        ok = ok and rep.passed
        worst = max(worst, rep.max_defect)
        neg_applicable += rep.extras["negativeApplicable"]
        if rep.extras["negativeApplicable"]:
            neg_gap = min(neg_gap, rep.extras["negativeGap"])
    report("cut crossing lowers the difference index",
           ok and worst < 1e-9 and neg_applicable >= 10
           and neg_gap > 10.0 * cfg.tol_series,
           f"worst defect {worst:.2e}, unshifted-triple gap >= {neg_gap:.2e} "
           f"on {neg_applicable} applicable paths")


def test_homotopic_loops_and_exact_composition():
    """20 scenarios: both loops agree and the loop monodromy composes exactly."""
    cfg = VerifyConfig()
    worst = 0.0
    ok = True
    composition = 0.0
    for seed in range(1, 21):
        sc = make_random(seed)
        rep = check_monodromy_composition(sc, cfg)
        ok = ok and rep.passed
        worst = max(worst, rep.max_defect)
        composition = max(composition, sc.fam.action.composition_defect())
    controls = [s for s in default_scenarios() if s.control == "composition"]
    control_rep = check_monodromy_composition(controls[0], cfg)
    report("homotopic loops and exact composition",
           ok and worst < 1e-9 and composition < 1e-15 and not control_rep.passed,
           f"worst defect {worst:.2e}; g3 = g1 g2 to {composition:.1e} on all 20; "
           f"perturbed-composition control fails")


def test_exchange_duality_and_involution():
    """20 scenarios, both signs: exchanged families pass region duality; involution exact."""
    cfg = VerifyConfig()
    worst = 0.0
    invol = 0.0
    ok = True
    for seed in range(1, 21):
        rep = check_omega_duality(make_random(seed), cfg)
        ok = ok and rep.passed
        worst = max(worst, rep.max_defect)
        invol = max(invol, rep.extras["involutionDefect"])
    report("exchange duality and involution",
           ok and worst < 1e-9 and invol < 1e-12,
           f"worst defect {worst:.2e}, involution defect {invol:.2e}")


def test_contragredient_duality_and_inversion_relation():
    """Quasi-primary scenarios: contragredient duality, the one-variable
    inversion relation on and off the positive real axis, and involutions."""
    cfg = VerifyConfig()
    worst = 0.0
    invol = 0.0
    relation = 0.0
    ok = True
    scenarios = [s for s in default_scenarios() if s.control is None]
    assert len(scenarios) == 20
    for sc in scenarios:
        rep = check_contragredient_duality(sc, cfg)
        ok = ok and rep.passed
        worst = max(worst, rep.max_defect)
        invol = max(invol, rep.extras["involutionDefect"])
        relation = max(relation, rep.extras["relationDefect"])
    report("contragredient duality and inversion relation",
           ok and worst < 1e-9 and invol < 1e-12 and relation < 1e-9,
           f"worst defect {worst:.2e}, relation defect {relation:.2e}, "
           f"involution defect {invol:.2e}")


def test_contragredient_duality_sums_without_magnified_rounding():
    """random-3's contragredient duality, whose order-100 series summed each
    term's exp((a - k) L) to 3.0e-12, stays below 1e-13."""
    sc = next(s for s in default_scenarios() if s.name == "random-3")
    [rep] = run_suite([sc], VerifyConfig(), "contragredient-duality")
    report("contragredient duality without magnified rounding",
           rep.passed and rep.max_defect < 1e-13, f"max defect {rep.max_defect:.2e}")


def test_duality_regions_at_an_order_whose_powers_overflow_apart():
    """log-pair's duality regions at order 5000: each term's powers of the
    outer and inner quantities overflow apart, the term itself is tiny."""
    sc = load_scenario(str(Path(__file__).resolve().parent.parent / "scenarios" / "log_pair.json"))
    t0 = time.perf_counter()
    [rep] = run_suite([sc], VerifyConfig(order=5000), "duality-regions")
    dt = time.perf_counter() - t0
    report("duality regions at order 5000", rep.passed,
           f"max defect {rep.max_defect:.2e} over {rep.samples} samples in {dt:.2f}s")


def test_oracle_agreement_on_random_loops():
    """200 random loops: branch-formula tracking vs phase unwrapping, < 1e-9.

    The two routes are independent implementations: continue_along counts
    signed cut crossings to form integer branch indices, while
    oracle_continue accumulates continuous phases and never builds an
    index.  Their agreement on random loops is therefore a two-sided
    consistency check, asserted structurally below by source inspection.
    """
    oracle_src = inspect.getsource(_models.oracle_continue)
    assert "_crossings_and_reps" not in oracle_src
    for helper in ("_level_logs", "_move_samples"):
        assert helper not in inspect.getsource(_logfun.continue_along)
        assert helper not in inspect.getsource(_logfun.continue_family)
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(200):
        sc = make_random(seed + 1)
        f = sc.fam.functions[0]
        loop = make_random_loop(seed)
        res = continue_along(f, sc.bt, loop)
        ora = oracle_continue(f, sc.bt, loop)
        worst = max(worst, abs(res.end_value - ora)
                    / max(1.0, abs(ora), abs(res.end_value)))
    dt = time.perf_counter() - t0
    report("oracle agreement on random loops",
           worst < 1e-9,
           f"worst relative gap {worst:.2e} over 200 loops in {dt:.1f}s")


def test_full_suite_with_negative_controls():
    """The shipped suite: zero unexpected failures, controls fail, < 5 min."""
    t0 = time.perf_counter()
    reports = run_suite()
    dt = time.perf_counter() - t0
    controls = [r for r in reports if r.expect_fail]
    normals = [r for r in reports if not r.expect_fail]
    report("full suite with negative controls",
           suite_ok(reports) and dt < 300.0 and len(controls) >= 3
           and all(not r.passed for r in controls)
           and all(r.passed for r in normals),
           f"{len(normals)} checks pass, {len(controls)} controls correctly "
           f"fail, {dt:.1f}s")


def _bits(x):
    """x with every float as its hex form, containers and complex numbers as lists."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


# A 16-hex sha256 prefix of each run_suite() report in bits, by name, in
# suite order: its name, pass, maxDefect, samples, worstPoint and extras,
# less region-swap's negativeGap, the smallest gap of a negative control,
# which only has to stay large.
SUITE_FINGERPRINTS = Path(__file__).with_name("suite_fingerprints.json")


def _report_digest(r) -> str:
    return hashlib.sha256(repr(
        [r.name, r.passed, _bits(r.max_defect), r.samples, _bits(r.worst_point),
         sorted((k, _bits(v)) for k, v in r.extras.items() if k != "negativeGap")]
    ).encode()).hexdigest()[:16]


def test_full_suite_fingerprint():
    """Every shipped-suite report keeps its bits; a change that moves some
    must re-pin them in suite_fingerprints.json and say which moved."""
    pinned = json.loads(SUITE_FINGERPRINTS.read_text())
    digests = {r.name: _report_digest(r) for r in run_suite()}
    moved = [name for name in dict.fromkeys([*pinned, *digests])
             if pinned.get(name) != digests.get(name)]
    report("full suite fingerprint", not moved and list(digests) == list(pinned),
           f"{len(digests)} reports; moved: {', '.join(moved) or 'none'}")
