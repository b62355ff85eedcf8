"""Tests for the verification checks, controls and the suite runner."""

from dataclasses import replace
from fractions import Fraction

import pytest

from twistlab import (
    CHECKS,
    BranchTriple,
    CheckReport,
    QuasiPrimaryData,
    VerifyConfig,
    check_branch_identities,
    check_duality_regions,
    check_monodromy_composition,
    check_region_swap,
    check_shift_identities,
    default_scenarios,
    expand_region,
    make_abelian,
    make_random,
    monodromy_loops,
    run_suite,
    suite_ok,
    validate_path,
    winding_profile,
)

LIGHT = VerifyConfig(branch_samples=300, shift_points=3, duality_points=2,
                     swap_paths=1, pointwise_points=3)

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
    assert cfg.tol_branch == 1e-12
    assert cfg.tol_series == 1e-9
    assert cfg.order == 60
    assert set(CHECKS) == {
        "branch-identities", "shift-identities", "duality-regions",
        "region-swap", "monodromy-composition", "omega-duality",
        "contragredient-duality"}


# ---------------------------------------------------------------------------
# individual checks on healthy data
# ---------------------------------------------------------------------------


def test_branch_identities_check():
    rep = check_branch_identities(None, LIGHT)
    assert rep.name == "branch-identities"
    assert rep.passed
    assert rep.max_defect < LIGHT.tol_branch
    assert rep.samples > 0
    assert set(rep.extras["qValues"]) <= {-1, 0, 1, 2}


@pytest.mark.parametrize("check_name", [
    "shift-identities", "duality-regions", "region-swap",
    "monodromy-composition", "omega-duality", "contragredient-duality"])
@pytest.mark.parametrize("maker", [curated_scenario, lambda: make_random(7)],
                         ids=["curated", "random"])
def test_scenario_checks_pass(check_name, maker):
    sc = maker()
    rep = CHECKS[check_name](sc, LIGHT)
    assert rep.name == check_name
    assert rep.passed, f"{check_name} defect {rep.max_defect}"


def test_region_swap_negative_control_engages():
    rep = check_region_swap(curated_scenario(), LIGHT)
    assert rep.passed
    assert rep.extras["negativeApplicable"] >= 1
    assert rep.extras["negativeGap"] > 10.0 * LIGHT.tol_series


def test_region_swap_builds_one_series_per_function(monkeypatch):
    from twistlab import verify
    built = []

    def counting_expand(f, *args):
        built.append(f)
        return expand_region(f, *args)

    monkeypatch.setattr(verify, "expand_region", counting_expand)
    sc = curated_scenario()
    rep = check_region_swap(sc, replace(LIGHT, swap_paths=3))
    assert rep.passed
    assert built == list(sc.fam.functions)


def test_monodromy_composition_details():
    rep = check_monodromy_composition(make_random(7), LIGHT)
    assert rep.passed
    assert rep.extras["windings"] == (-1, 0, -1)
    assert rep.extras["compositionDefect"] < LIGHT.tol_branch


# ---------------------------------------------------------------------------
# controls must fail their targeted checks
# ---------------------------------------------------------------------------


def test_controls_fail_targeted_checks():
    controls = [s for s in default_scenarios() if s.control]
    assert len(controls) == 3
    for sc in controls:
        rep = CHECKS[CONTROL_TARGET[sc.control]](sc, LIGHT)
        assert not rep.passed, sc.name
        assert rep.max_defect > 10.0 * rep.tol


def test_duality_branch_bump_only_with_marker():
    sc = curated_scenario()
    healthy = check_duality_regions(sc, LIGHT)
    assert healthy.passed
    bad = check_duality_regions(replace(sc, control="duality-branch"), LIGHT)
    assert not bad.passed
    assert bad.max_defect > 10.0 * LIGHT.tol_series


def test_shift_check_flags_perturbed_action():
    sc = make_random(101)
    rep0 = check_shift_identities(sc, LIGHT)
    assert rep0.passed
    sc.fam.action.g1 = sc.fam.action.g1 * 1.05
    rep1 = check_shift_identities(sc, LIGHT)
    assert not rep1.passed


# ---------------------------------------------------------------------------
# monodromy loops
# ---------------------------------------------------------------------------


def test_monodromy_loops_are_homotopic_windings():
    loop_a, loop_b = monodromy_loops(VerifyConfig())
    assert (loop_a.z1, loop_a.z2) == (loop_b.z1, loop_b.z2)
    for loop in (loop_a, loop_b):
        assert validate_path(loop) >= 1e-9
        assert winding_profile(loop) == (-1, 0, -1)


def test_monodromy_loops_reject_bad_radii():
    with pytest.raises(ValueError):
        monodromy_loops(VerifyConfig(loop_radii=(0.5, 1.0, 1.8)))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_run_suite_and_suite_ok():
    scenarios = [make_random(7)] + [s for s in default_scenarios() if s.control]
    reports = run_suite(scenarios, LIGHT)
    # one global check + six scenario checks + three controls
    assert len(reports) == 1 + 6 + 3
    assert suite_ok(reports)
    by_name = {r.name: r for r in reports}
    assert "branch-identities" in by_name
    assert "random-7/region-swap" in by_name
    controls = [r for r in reports if r.expect_fail]
    assert len(controls) == 3
    assert all(not r.passed for r in controls)


def test_run_suite_refuses_an_unknown_check():
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        run_suite([], LIGHT, check="no-such-check")


def test_suite_ok_requires_expectations():
    scenarios = [s for s in default_scenarios() if s.control][:1]
    reports = run_suite(scenarios, LIGHT)
    assert suite_ok(reports)
    reports[0].passed = not reports[0].passed
    assert not suite_ok(reports)
