"""Tests for the verification checks, controls and the suite runner."""

import math
from dataclasses import fields, replace
from fractions import Fraction
from functools import cached_property

import pytest

from twistlab import (
    CHECKS,
    Arc,
    CheckReport,
    PathSpec,
    QuasiPrimaryData,
    RegionExpansion,
    VerifyConfig,
    check_branch_identities,
    check_duality_regions,
    check_monodromy_composition,
    check_region_swap,
    check_shift_identities,
    default_scenarios,
    eval_parts,
    expand_family,
    make_abelian,
    make_random,
    monodromy_loops,
    REGIONS,
    run_suite,
    suite_ok,
    validate_path,
    winding_profile,
)
from twistlab import logfun, verify
from twistlab.branchcalc import principal_arg, ratio_arg_decomposition
from twistlab.verify import TOL_BRANCH

CONTROL_TARGET = {
    "shift": "shift-identities",
    "composition": "monodromy-composition",
    "duality-branch": "duality-regions",
}


def curated_scenario():
    return make_abelian(Fraction(1, 2), 0.75 + 0.1j, Fraction(1, 3),
                        qp=QuasiPrimaryData(1, Fraction(3, 4)),
                        name="half-third")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_check_report_serialized_keys():
    rep = CheckReport("demo", True, 1e-13, 1e-9, 42, 0)
    d = rep.to_dict()
    assert set(d) == {"name", "pass", "maxDefect", "tol", "samples", "seed"}
    assert d["pass"] is True and d["samples"] == 42
    rep2 = CheckReport("demo", False, 0.5, 1e-9, 1, 7,
                       worst_point=(1 + 2j, 3 - 4j))
    d2 = rep2.to_dict()
    assert d2["worstPoint"] == [[1.0, 2.0], [3.0, -4.0]]
    # extras and expect_fail stay out of the serialized form.
    rep3 = CheckReport("demo", True, 0.0, 1e-9, 1, 0, expect_fail=True,
                       extras={"note": 1})
    assert "extras" not in rep3.to_dict()
    assert "expectFail" not in rep3.to_dict()


def test_verify_config_defaults():
    cfg = VerifyConfig()
    assert TOL_BRANCH == 1e-12
    assert cfg.tol_series == 1e-9
    assert cfg.order == 60
    assert [f.name for f in fields(VerifyConfig)] == ["tol_series", "order", "seed"]
    assert set(CHECKS) == {
        "branch-identities", "shift-identities", "duality-regions",
        "region-swap", "monodromy-composition", "omega-duality",
        "contragredient-duality"}


# ---------------------------------------------------------------------------
# individual checks on healthy data
# ---------------------------------------------------------------------------


def test_branch_identities_check():
    rep = check_branch_identities(None, VerifyConfig())
    assert rep.name == "branch-identities"
    assert rep.passed
    assert rep.max_defect < TOL_BRANCH
    assert rep.samples == 3 * verify._BRANCH_SAMPLES  # no sample of any identity dropped
    assert set(rep.extras["qValues"]) <= {-1, 0, 1, 2}


class _CountingGenerator:
    """A numpy Generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_branch_identities_draws_its_samples_as_arrays(monkeypatch):
    generators, rng_of = [], verify._rng

    def counting_rng(*args):
        generators.append(_CountingGenerator(rng_of(*args)))
        return generators[-1]

    monkeypatch.setattr(verify, "_rng", counting_rng)
    rep = check_branch_identities(None, VerifyConfig())
    assert rep.passed
    (rng,) = generators
    # a call per quantity and per redraw round, not a call per sample
    assert 0 < rng.calls <= 40


def test_branch_samples_keep_their_contract():
    config = VerifyConfig()
    z, p, z1, z2, p1, p2, z1r, z2r = verify._branch_samples(verify._rng(config, 0, 11),
                                                            verify._BRANCH_SAMPLES)
    assert all(len(q) == 2000 for q in (z, p, z1, z2, p1, p2, z1r, z2r))
    assert all(isinstance(zi, complex) for q in (z, z1, z2, z1r, z2r) for zi in q)
    assert all(isinstance(pi, int) for q in (p, p1, p2) for pi in q)
    axis = [i for i, zi in enumerate(z) if zi.imag == 0.0]
    assert axis == list(range(7, 2000, 8)) and all(z[i].real > 0.0 for i in axis)
    # by each half-axis, at the snap band's edge |Im| = 1e-14 |Re| to within
    # 2 ulps, every offset on both sides of the axis
    for start, half in ((3, 1.0), (5, -1.0)):
        band = [half * zi for zi in z[start::8]]
        assert all(zi.real > 0.0 for zi in band)
        edges = [1e-14 * zi.real for zi in band]
        offsets = [(zi.imag > 0.0, round((abs(zi.imag) - e) / math.ulp(e)))
                   for zi, e in zip(band, edges)]
        assert set(offsets) == {(above, k) for above in (True, False) for k in range(-2, 3)}
    assert all(0.2 <= abs(zi) <= 2.5 + 1e-12 for zi in z)
    assert set(p) == set(range(-3, 4)) and set(p1) == set(p2) == set(range(-2, 3))
    assert all(abs(a - b) > 0.15 for a, b in zip(z1, z2))
    assert all(0.3 <= abs(zi) <= 2.2 + 1e-12 for zi in (*z1, *z2))
    for a, b in zip(z1r, z2r):
        # inside ratio_arg_decomposition's hypotheses: |z2r| > |z1r - z2r| > 0
        # and principal arguments less than pi/2 apart, so none is refused
        assert 0.0 < abs(a - b) < abs(b)
        assert abs(principal_arg(a) - principal_arg(b)) < math.pi / 2
        assert ratio_arg_decomposition(a, b)[0] in (0, -1)
    assert check_branch_identities(None, config) == check_branch_identities(None, config)


@pytest.mark.parametrize("check_name", [
    "shift-identities", "duality-regions", "region-swap",
    "monodromy-composition", "omega-duality", "contragredient-duality"])
@pytest.mark.parametrize("maker", [curated_scenario, lambda: make_random(7)],
                         ids=["curated", "random"])
def test_scenario_checks_pass(check_name, maker):
    sc = maker()
    rep = CHECKS[check_name](sc, VerifyConfig())
    assert rep.name == check_name
    assert rep.passed, f"{check_name} defect {rep.max_defect}"


def test_region_swap_negative_control_engages():
    rep = check_region_swap(curated_scenario(), VerifyConfig())
    assert rep.passed
    assert rep.extras["negativeApplicable"] >= 1
    assert rep.extras["negativeGap"] > 10.0 * VerifyConfig().tol_series


def test_region_swap_builds_one_series_per_function(monkeypatch):
    from twistlab import verify
    built = []

    def counting_expand(functions, *args):
        built.append(list(functions))
        return expand_family(functions, *args)

    monkeypatch.setattr(verify, "expand_family", counting_expand)
    monkeypatch.setattr(verify, "_SWAP_PATHS", 3)
    sc = curated_scenario()
    rep = check_region_swap(sc, VerifyConfig())
    assert rep.passed
    assert built == [list(sc.fam.functions)]  # one build of the whole family


def test_monodromy_composition_details():
    rep = check_monodromy_composition(make_random(7), VerifyConfig())
    assert rep.passed
    assert rep.extras["windings"] == (-1, 0, -1)
    assert rep.extras["compositionDefect"] < TOL_BRANCH


def test_monodromy_composition_reports_measured_windings(monkeypatch):
    from twistlab import verify
    loop_a, loop_b = monodromy_loops()
    twice = PathSpec(loop_a.z1, loop_a.z2, [Arc("z1", turns=-2, about="origin")])
    monkeypatch.setattr(verify, "monodromy_loops", lambda: (twice, loop_b))
    rep = check_monodromy_composition(make_random(7), VerifyConfig())
    assert rep.extras["windings"] == winding_profile(twice) == (-2, 0, -2)
    assert not rep.passed  # loop A no longer ends on the expected triple


# ---------------------------------------------------------------------------
# a check that cannot take a sample counts it at defect inf
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error", [ValueError, ArithmeticError])
def test_branch_identities_counts_a_refused_decomposition(monkeypatch, error):
    def refuse(z1, z2):
        raise error("refused")

    healthy = check_branch_identities(None, VerifyConfig())
    monkeypatch.setattr(verify, "ratio_arg_decomposition", refuse)
    rep = check_branch_identities(None, VerifyConfig())
    assert rep.max_defect == math.inf and not rep.passed
    assert rep.samples == healthy.samples == 3 * verify._BRANCH_SAMPLES


def test_region_swap_counts_an_arc_that_starts_outside_its_window(monkeypatch):
    sc, config = curated_scenario(), VerifyConfig()
    healthy = check_region_swap(sc, config)
    monkeypatch.setattr(verify, "in_region", lambda *args: False)
    rep = check_region_swap(sc, config)
    assert rep.max_defect == math.inf and not rep.passed
    assert rep.samples == healthy.samples == 2 * 2 * sc.fam.dim


def _p12_crossing_off_by_one(monkeypatch):
    winding_profile = logfun.winding_profile
    monkeypatch.setattr(logfun, "winding_profile",
                        lambda path: (*winding_profile(path)[:2], winding_profile(path)[2] + 1))


def test_region_swap_counts_an_arc_that_ends_on_another_triple(monkeypatch):
    sc, config = curated_scenario(), VerifyConfig()
    healthy = check_region_swap(sc, config)
    _p12_crossing_off_by_one(monkeypatch)
    rep = check_region_swap(sc, config)
    assert rep.max_defect == math.inf and not rep.passed
    assert rep.samples == healthy.samples == 2 * 2 * sc.fam.dim


def test_monodromy_composition_counts_a_loop_that_ends_on_another_triple(monkeypatch):
    sc = make_random(7)
    healthy = check_monodromy_composition(sc, VerifyConfig())
    _p12_crossing_off_by_one(monkeypatch)
    rep = check_monodromy_composition(sc, VerifyConfig())
    assert rep.max_defect == math.inf and not rep.passed
    assert rep.samples == healthy.samples == 4 * sc.fam.dim + 1


# ---------------------------------------------------------------------------
# controls must fail their targeted checks
# ---------------------------------------------------------------------------


def test_controls_fail_targeted_checks():
    controls = [s for s in default_scenarios() if s.control]
    assert len(controls) == 3
    for sc in controls:
        rep = CHECKS[CONTROL_TARGET[sc.control]](sc, VerifyConfig())
        assert not rep.passed, sc.name
        assert rep.max_defect > 10.0 * rep.tol


def test_duality_branch_bump_only_with_marker():
    sc = curated_scenario()
    healthy = check_duality_regions(sc, VerifyConfig())
    assert healthy.passed
    bad = check_duality_regions(replace(sc, control="duality-branch"), VerifyConfig())
    assert not bad.passed
    assert bad.max_defect > 10.0 * VerifyConfig().tol_series


def test_shift_check_flags_perturbed_action():
    sc = make_random(101)
    rep0 = check_shift_identities(sc, VerifyConfig())
    assert rep0.passed
    sc.fam.action.g1 = sc.fam.action.g1 * 1.05
    rep1 = check_shift_identities(sc, VerifyConfig())
    assert not rep1.passed


# ---------------------------------------------------------------------------
# monodromy loops
# ---------------------------------------------------------------------------


def test_monodromy_loops_are_homotopic_windings():
    loop_a, loop_b = monodromy_loops()
    assert (loop_a.z1, loop_a.z2) == (loop_b.z1, loop_b.z2)
    for loop in (loop_a, loop_b):
        assert validate_path(loop) >= 1e-9
        assert winding_profile(loop) == (-1, 0, -1)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_run_suite_and_suite_ok():
    scenarios = [make_random(7)] + [s for s in default_scenarios() if s.control]
    reports = run_suite(scenarios, VerifyConfig())
    # one global check + six scenario checks + three controls
    assert len(reports) == 1 + 6 + 3
    assert suite_ok(reports)
    by_name = {r.name: r for r in reports}
    assert "branch-identities" in by_name
    assert "random-7/region-swap" in by_name
    controls = [r for r in reports if r.expect_fail]
    assert len(controls) == 3
    assert all(not r.passed for r in controls)


def test_run_suite_makes_one_kernel_call_per_check_and_point_count(monkeypatch):
    from twistlab import logfun, transforms, verify
    verify_calls, shift_calls, builds, passes, pointwise = [], [], [], [], []
    series_reads = []  # RegionExpansion.eval calls and .groups reads
    make_groups, eval_one = RegionExpansion.groups.func, RegionExpansion.eval
    groups = cached_property(lambda self: series_reads.append(self) or make_groups(self))
    groups.__set_name__(RegionExpansion, "groups")
    monkeypatch.setattr(RegionExpansion, "groups", groups)
    monkeypatch.setattr(RegionExpansion, "eval",
                        lambda *args: series_reads.append(args[0]) or eval_one(*args))

    def counting(seen, fn):
        return lambda *args: seen.append(args[0]) or fn(*args)

    monkeypatch.setattr(verify, "eval_parts", counting(verify_calls, eval_parts))
    monkeypatch.setattr(transforms, "eval_parts", counting(shift_calls, eval_parts))
    build_pass = logfun._build_pass
    monkeypatch.setattr(logfun, "_build_pass", lambda *args: builds.append(
        (tuple(args[2]), args[4])) or build_pass(*args))
    counted = counting(pointwise, logfun.eval_branch2)
    for module in (logfun, verify):
        monkeypatch.setattr(module, "eval_branch2", counted)
    passes_of = logfun._passes
    monkeypatch.setattr(logfun, "_passes", lambda *args: passes.append(list(passes_of(*args)))
                        or passes[-1])
    reports = run_suite()
    assert len(reports) == 124 and suite_ok(reports)
    assert series_reads == []
    # Every series the suite expands, evaluated in the check's batch.
    assert sum(isinstance(p, RegionExpansion) for parts in verify_calls for p in parts) == 643
    # One call per check and point count: duality-regions on 21 scenarios
    # and region-swap on 20 make one, omega- and contragredient-duality on
    # 20 two each (their 6-point and their 2-point stages, both signs), and
    # shift-identities on 21 one through check_shifts.
    assert len(verify_calls) == 21 + 20 + 2 * 20 + 2 * 20
    assert len(shift_calls) == 21
    # Build passes, each of at most _PASS_CANDIDATES candidates or one region
    # alone: duality-regions makes one per check, its three regions at order
    # 60 together; region-swap one; omega- and contragredient-duality,
    # both signs' families together, 62 over their 40 checks, one to three
    # regions each.
    assert builds.count((REGIONS, 60)) == 21
    assert len(builds) == 21 + 20 + 62
    # Point by point: monodromy-composition's three values per function
    # and continue_along's end values; region-swap's control is batched.
    assert len(pointwise) == 290
    # Kernel passes of at most 16,384 term-points: one per call.
    assert sum(map(len, passes)) == 142
    assert sum(map(len, passes)) == len(verify_calls) + len(shift_calls)


def test_run_suite_refuses_an_unknown_check():
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        run_suite([], VerifyConfig(), check="no-such-check")
    with pytest.raises(ValueError, match="unknown control kind 'bogus'"):
        run_suite([replace(make_random(7), control="bogus")], VerifyConfig())


def test_suite_ok_requires_expectations():
    scenarios = [s for s in default_scenarios() if s.control][:1]
    reports = run_suite(scenarios, VerifyConfig())
    assert suite_ok(reports)
    reports[0].passed = not reports[0].passed
    assert not suite_ok(reports)
