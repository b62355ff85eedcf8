"""Tests for the command line interface and scenario files."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from twistlab import (
    VerifyConfig, check_monodromy_composition, cli, default_scenarios, make_random,
    run_suite, suite_ok, term_distance, verify)
from twistlab.cli import ScenarioError, load_scenario, main, parse_scenario, serialize_scenario

ROOT = Path(__file__).resolve().parent.parent
SQRT = str(ROOT / "scenarios" / "sqrt_difference.json")
LOG_PAIR = str(ROOT / "scenarios" / "log_pair.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_frozen_value(capsys):
    doc = run_json(capsys, "eval", "--scenario", SQRT,
                   "--z1", "2.5,0", "--z2", "1,0")
    assert doc["command"] == "eval"
    assert doc["scenario"] == "sqrt-difference"
    assert doc["branch"] == [0, 0, 0]
    re, im = doc["value"]
    assert abs(re - math.sqrt(1.5)) < 1e-12 and im == 0.0


def test_eval_branch_override_flips_sign(capsys):
    doc = run_json(capsys, "eval", "--scenario", SQRT,
                   "--z1", "2.5,0", "--z2", "1,0", "--p12", "1")
    assert doc["branch"] == [0, 0, 1]
    re, im = doc["value"]
    assert abs(re + math.sqrt(1.5)) < 1e-12 and abs(im) < 1e-12


def test_eval_output_is_deterministic(capsys):
    argv = ("eval", "--scenario", LOG_PAIR, "--label", "2",
            "--z1", "1.3,0.4", "--z2", "0.5,-0.2")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("z1, message", [
    ("1e155,0", "function value at z1 = (1e+155+0j), z2 = (1+0j) is not finite"),
    ("1e300,0", "function value at z1 = (1e+300+0j), z2 = (1+0j) is not finite"),
    # finite parts, but a modulus past the float range
    ("1.5e308,1.5e308",
     "log of (1.5e+308+1.5e+308j) is undefined: its modulus is past the float range"),
], ids=["sum-overflows", "power-overflows", "modulus-overflows"])
def test_eval_non_finite_value_names_the_point(capsys, z1, message):
    code, out, err = run_cli(capsys, "eval", "--scenario", LOG_PAIR, "--z1", z1, "--z2", "1,0")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_reports_designated_and_defect(capsys):
    doc = run_json(capsys, "expand", "--scenario", SQRT, "--region", "product",
                   "--order", "40", "--z1", "2.5,0", "--z2", "0.8,0")
    assert doc["region"] == "product"
    assert doc["designated"] == [0, 0, 0]
    assert doc["order"] == 40
    assert doc["groups"] == len(doc["groupKeys"])
    assert doc["defect"] < 1e-9


def test_expand_without_point_skips_value(capsys):
    doc = run_json(capsys, "expand", "--scenario", SQRT, "--region", "iterate")
    assert "value" not in doc and "defect" not in doc
    assert doc["groups"] >= 1


def test_expand_frozen_group_keys(capsys):
    doc = run_json(capsys, "expand", "--scenario", LOG_PAIR, "--region", "product",
                   "--order", "5", "--z1", "2.5,0", "--z2", "0.8,0")
    assert doc["groupKeys"] == [[k + 0.75, 0.1] for k in range(6)]


@pytest.mark.parametrize("given, missing", [("z1", "z2"), ("z2", "z1")])
def test_expand_half_point_is_usage_error(capsys, given, missing):
    code, out, err = run_cli(capsys, "expand", "--scenario", SQRT, "--region", "product",
                             f"--{given}", "2,0")
    assert (code, out) == (2, "")
    assert f"--{missing}" in err


def test_expand_outside_region_is_error(capsys):
    code, out, err = run_cli(capsys, "expand", "--scenario", LOG_PAIR,
                             "--region", "product", "--order", "5",
                             "--z1", "0.5,0", "--z2", "2.0,0")
    assert code == 2 and out == ""
    assert "outside the product region" in err


def test_expand_over_series_budget_is_error(capsys):
    code, out, err = run_cli(capsys, "expand", "--scenario", LOG_PAIR,
                             "--region", "product", "--order", "100000000",
                             "--z1", "2,0", "--z2", "0.5,0")
    assert code == 2 and out == ""
    assert "SERIES_BUDGET" in err


@pytest.mark.parametrize("z1, z2", [("1e-6,0", "5e-7,0"), ("1e6,0", "5e5,0")])
def test_expand_sums_far_from_unit_scale(capsys, z1, z2):
    # At ratio 0.5 every term is small, but its powers of z1 and z2 apart
    # overflow from k = 53 (1e-6) or k = 54 (1e6) on.
    doc = run_json(capsys, "expand", "--scenario", LOG_PAIR, "--region", "product",
                   "--order", "60", "--z1", z1, "--z2", z2)
    p1, p2, p12 = (str(p) for p in doc["designated"])
    exact = run_json(capsys, "eval", "--scenario", LOG_PAIR, "--z1", z1, "--z2", z2,
                     "--p1", p1, "--p2", p2, "--p12", p12)
    assert doc["defect"] <= 1e-13 * abs(complex(*exact["value"]))


# ---------------------------------------------------------------------------
# continue
# ---------------------------------------------------------------------------


def test_continue_difference_loop_frozen(capsys):
    doc = run_json(capsys, "continue", "--scenario", SQRT,
                   "--path", "difference-loop")
    assert doc["start"] == [0, 0, 0]
    assert doc["end"] == [-1, 0, -1]
    assert doc["windings"] == [-1, 0, -1]
    re, im = doc["value"]
    assert abs(re + math.sqrt(1.5)) < 1e-12 and abs(im) < 1e-12
    assert doc["certificate"] < 1e-9
    assert doc["oracleGap"] < 1e-9


def test_continue_from_the_snap_band_exits_zero(capsys, tmp_path):
    # z1 = 0.5 - 7e-15i is outside lp's snap band, |Im z| <= 1e-14 Re z,
    # but inside 1e-14 max(1, Re z): the oracle has to start on lp's sheets.
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0].update({"r": [0.5, 0.0], "t": [0.0, 0.0],
                               "rExact": {"num": 1, "den": 2}, "tExact": {"num": 0, "den": 1}})
    doc["paths"] = {"band-start": {"z1": [0.5, -7e-15], "z2": [-3.0, 0.0], "moves": [
        {"var": "z1", "kind": "segment", "to": [0.5, -0.5]}]}}
    scenario = tmp_path / "band_start.json"
    scenario.write_text(json.dumps(doc))
    out = run_json(capsys, "continue", "--scenario", str(scenario), "--path", "band-start")
    assert out["certificate"] < 1e-12


_FAR_MOVES = {
    # 2*pi*1e308 is not finite: refused, naming the move, not nan downstream.
    "non-finite-sweep": [{"var": "z2", "kind": "segment", "to": [-2.0, 0.0]},
                         {"var": "z1", "kind": "arc", "about": "origin", "turns": 1e308}],
    # A segment past 1.3e154 long, 0.141 clear of 0: a valid path.
    "far-segment": [{"var": "z1", "kind": "segment", "to": [1e200, 1e200]}],
    # z2 moves to a point of finite parts past the float range in modulus,
    # so z1's segment ends farther from it than a float holds.
    "far-other": [{"var": "z2", "kind": "segment", "to": [1.5e308, 1.5e308]},
                  {"var": "z1", "kind": "segment", "to": [2.0, 0.0]}],
    # An arc from 2.2 - 5e-324i, whose angle underflows: cmath.phase raised
    # a bare OverflowError there.
    "subnormal-arc": [{"var": "z1", "kind": "segment", "to": [2.2, -5e-324]},
                      {"var": "z1", "kind": "arc", "about": "origin", "turns": 1.0}],
}


@pytest.mark.parametrize("name", _FAR_MOVES)
def test_continue_at_the_ends_of_the_float_range(capsys, tmp_path, name):
    doc = json.loads(Path(SQRT).read_text())
    doc["paths"] = {name: {"z1": [-1.8, -1.0], "z2": [-1.0, 0.0], "moves": _FAR_MOVES[name]}}
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "continue", "--scenario", str(scenario), "--path", name)
    if name == "non-finite-sweep":
        assert (code, out) == (2, "")
        assert err == "error: move 1: arc of 1e+308 turns sweeps a non-finite angle\n"
    elif name == "far-other":
        assert (code, out) == (2, "")
        assert err == ("error: z1 move from (-1.8-1j) to (2+0j): its distance to 0 or to "
                       "(1.5e+308+1.5e+308j) is past the float range\n")
    else:
        assert code == 0, err
        assert json.loads(out, parse_constant=_refuse_constant)["certificate"] < 1e-12


def test_continue_unknown_path_is_input_error(capsys):
    code, _, err = run_cli(capsys, "continue", "--scenario", SQRT,
                           "--path", "no-such-path")
    assert code == 2
    assert "difference-loop" in err


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_round_trip_through_files(capsys, tmp_path):
    doc_plus = run_json(capsys, "transform", "--scenario", LOG_PAIR,
                        "--op", "omega+")
    staged = tmp_path / "omega_plus.json"
    staged.write_text(json.dumps(doc_plus))
    doc_back = run_json(capsys, "transform", "--scenario", str(staged),
                        "--op", "omega-")
    original = load_scenario(LOG_PAIR)
    restored = parse_scenario(doc_back, "restored")
    assert restored.fam.dim == original.fam.dim
    for a, b in zip(restored.fam.functions, original.fam.functions):
        assert term_distance(a, b) < 1e-12


# The first label holds the raised term and one more, which makes one term
# of its own.
@pytest.mark.parametrize("power, op, check, terms", [
    ("m", "omega+", "omega-duality", 2 ** 62 + 2),
    ("n", "a+", "contragredient-duality", 1055240 + 1),  # C(183 + 3, 3) + 1
])
def test_transform_over_series_budget_is_error(capsys, tmp_path, power, op, check, terms):
    doc = json.loads(Path(LOG_PAIR).read_text())
    # The file's own action, given explicitly: a log(z1 - z2) power needs one.
    doc["phases"] = serialize_scenario(load_scenario(LOG_PAIR))["phases"]
    doc["terms"][0][0][power] = 2 ** 62 if power == "m" else 183
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    for argv in (("transform", "--op", op), ("verify", "--check", check)):
        code, out, err = run_cli(capsys, argv[0], "--scenario", str(big), *argv[1:])
        assert (code, out) == (2, "")
        assert f"needs {terms} terms, over the series budget (SERIES_BUDGET = 1048576)" in err


def test_transform_omega_swaps_exact_phases(capsys):
    doc = run_json(capsys, "transform", "--scenario", LOG_PAIR,
                   "--op", "omega+")
    # The shipped file derives its diagonal phases from the exact exponent
    # side channels; serializing makes them explicit for comparison.
    original = serialize_scenario(load_scenario(LOG_PAIR))
    assert doc["phases"]["g1"] == original["phases"]["g2"]
    assert doc["phases"]["g2"] == original["phases"]["g1"]


def test_transform_bare_op_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "transform", "--scenario", SQRT,
                             "--op", "omega")
    assert (code, out) == (2, "")
    assert "argument --op:" in err


# sha256 of the JSON output of `transform --scenario <file> --op <op>`.
TRANSFORM_SHA256 = {
    (SQRT, "omega+"): "f024bb628146791f72bc0324aa5b4f601e7906be70de70e833b3d3382bf28b8c",
    (SQRT, "omega-"): "66bd02aaa315bce52ea5957ecbfe8aa09d18b9b678d2679d64d33d423303b9e2",
    (SQRT, "a+"): "520065944f29918a207c716b1b8da829eff8c9cceee4cac1924a695de0677462",
    (SQRT, "a-"): "f98d795a5c21df180179e9433cc9072222e0ca2b1c7ea58d6ac07c3cc4a47523",
    (LOG_PAIR, "omega+"): "6c302fe9b9cefb106a1ccdf9dde3515015c53addff5160f7ad06b1cce3ba40c3",
    (LOG_PAIR, "omega-"): "e599b88508356e48cb09f1464e7bf22b33d7bd65588020eae0170c4a0f6ba030",
    (LOG_PAIR, "a+"): "2a202bd2fa70e9685d4d54fc90e68d9f9953c699635d92fac6c62bcce99a24e4",
    (LOG_PAIR, "a-"): "c281120d6d92334136d286b8d5e17f475ba33c9ed20ad186cf543601e932ba65",
}


@pytest.mark.parametrize("src, op", TRANSFORM_SHA256, ids=lambda v: Path(v).stem)
def test_transform_output_is_frozen(capsys, src, op):
    code, out, _ = run_cli(capsys, "transform", "--scenario", src, "--op", op)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFORM_SHA256[src, op]


# sha256 of the JSON output of each command line: every check on both
# shipped files, a region series summed at one point, one value, and the
# continuation along every named path.
CLI_SHA256 = {
    ("verify", "--scenario", SQRT):
        "1fb1c4e466c867e04d02842111ac8685c8646cbb17fbb07f95f91cc712be95d0",
    ("verify", "--scenario", LOG_PAIR):
        "7a26bf8bb19df1161e326b04025eac5da50f6492ba770abbcbad830da792d9ae",
    ("expand", "--scenario", LOG_PAIR, "--label", "2", "--region", "product", "--order", "40",
     "--z1", "2.5,0.3", "--z2", "0.8,-0.2"):
        "42cfdf6d3ad7a72524e3ecc65f2f5b100cf6a7a3e26941d56856057565ec3aaa",
    ("eval", "--scenario", LOG_PAIR, "--label", "2", "--z1", "1.3,0.4", "--z2", "0.5,-0.2"):
        "1a83e1a0f3891f785bb3e743ffa83d5d3de473470e5a36d8787decb748e8bd4b",
    ("continue", "--scenario", SQRT, "--path", "difference-loop"):
        "3de001f433874c1171e8f8189f81ff53262b6a43729b26b1dab1b017a29104c3",
    ("continue", "--scenario", SQRT, "--path", "outer-loop"):
        "aef0bda5c75d69285dc006fadbaa8b8afa3b2deb26d504424d673a3861205661",
    ("continue", "--scenario", LOG_PAIR, "--path", "outer-loop"):
        "b93a95aff3fc1302d44638b8c6c6ccb9175598bdb5303e2b59d1796ad3287de3",
    ("continue", "--scenario", LOG_PAIR, "--path", "there-and-back"):
        "2c39bd7cbf74a61fc75e27257fff8ffcc393dcd1fd7bc30f4423d4b011e9b8b7",
}


@pytest.mark.parametrize("argv", CLI_SHA256,
                         ids=lambda argv: "-".join(Path(a).stem for a in argv[:5]))
def test_cli_output_is_frozen(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[argv]


def test_transform_contragredient_executes(capsys):
    doc = run_json(capsys, "transform", "--scenario", LOG_PAIR, "--op", "a-")
    assert doc["labels"] == 2
    assert doc["version"] == "twistlab/1"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_scenario_single_check(capsys):
    doc = run_json(capsys, "verify", "--scenario", SQRT,
                   "--check", "shift-identities")
    assert doc["pass"] is True
    (rep,) = doc["reports"]
    assert rep["name"] == "sqrt-difference/shift-identities"
    assert rep["pass"] is True
    assert rep["maxDefect"] < rep["tol"]


def test_verify_scenario_output_is_deterministic(capsys):
    argv = ("verify", "--scenario", SQRT, "--check", "duality-regions")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_verify_unknown_check_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "no-such-check")
    assert code == 2
    assert "no-such-check" in err or "--check" in err


@pytest.mark.parametrize("src", [SQRT, LOG_PAIR], ids=lambda v: Path(v).stem)
def test_verify_scenario_reports_are_run_suites(capsys, src):
    sc = load_scenario(src)
    reports = run_suite([sc], VerifyConfig())
    doc = {"command": "verify", "pass": suite_ok(reports),
           "reports": [r.to_dict() for r in reports]}
    code, out, _ = run_cli(capsys, "verify", "--scenario", src)
    assert code == 0
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    # The scenario-independent check is named as in the shipped suite.
    assert [r.name for r in reports] == ["branch-identities"] + [
        f"{sc.name}/{c}" for c in verify.CHECKS if c != "branch-identities"]


def test_verify_flags_set_every_config_field(capsys, monkeypatch):
    # A VerifyConfig field that no verify flag sets is a setting nothing
    # varies: it fails here, so it is made a constant instead.
    configs = []
    monkeypatch.setattr(cli, "run_suite", lambda scenarios, config, check: configs.append(config)
                        or [])
    code, _, err = run_cli(capsys, "verify", "--check", "branch-identities", "--seed", "3",
                           "--order", "7", "--tol", "1e-8")
    assert (code, err) == (0, "")
    [config] = configs
    default = VerifyConfig()
    assert [f.name for f in fields(VerifyConfig)
            if getattr(config, f.name) == getattr(default, f.name)] == []


def test_parsed_scenario_goes_straight_into_a_check():
    rep = check_monodromy_composition(load_scenario(SQRT), VerifyConfig())
    assert rep.passed and rep.max_defect < rep.tol


def test_verify_broken_scenario_exits_one(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    del doc["paths"]
    # A perturbed automorphism breaks the shift identity by a visible margin.
    doc.pop("phases", None)
    doc["automorphisms"] = {"g1": [[[0.9, 0.1]]], "g2": [[[1.0, 0.0]]]}
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(bad),
                           "--check", "shift-identities")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["reports"][0]["maxDefect"] > 1e-3


@pytest.mark.parametrize("check", ["region-swap", "monodromy-composition"])
def test_verify_failing_certificate_fails_its_report(capsys, check):
    # Continuation certificates sit at rounding level, above this tolerance:
    # each fails its report, and nothing raises.
    code, out, err = run_cli(capsys, "verify", "--check", check, "--tol", "1e-17")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(not r["pass"] and r["maxDefect"] >= 1e-17 for r in doc["reports"])


def test_verify_check_without_scenario_runs_only_that_check(capsys, monkeypatch):
    # A small scenario set: one family and the three controls.
    scenarios = [make_random(7)] + [sc for sc in default_scenarios() if sc.control]
    monkeypatch.setattr(verify, "default_scenarios", lambda: scenarios)
    full = verify.run_suite(config=verify.VerifyConfig())
    ran = []

    def counted(name, fn):
        return lambda *args: ran.append(name) or fn(*args)

    monkeypatch.setattr(verify, "check_branch_identities",
                        counted("branch-identities", verify.check_branch_identities))
    for name, fn in list(verify.CHECKS.items()):
        monkeypatch.setitem(verify.CHECKS, name, counted(name, fn))
    for name in verify.CHECKS:
        want = [r for r in full if r.name == name or r.name.endswith("/" + name)]
        doc = {"command": "verify", "pass": verify.suite_ok(want),
               "reports": [r.to_dict() for r in want]}
        ran.clear()
        code, out, _ = run_cli(capsys, "verify", "--check", name)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert code == 0
        assert ran == [name] * len(want)


def test_verify_negative_order_is_usage_error_before_any_check(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "check_branch_identities", lambda *args: ran.append(args))
    code, out, err = run_cli(capsys, "verify", "--order", "-3")
    assert (code, out, ran) == (2, "", [])
    assert "argument --order:" in err


def test_expand_negative_order_is_usage_error(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "load_scenario", lambda path: ran.append(path))
    code, out, err = run_cli(capsys, "expand", "--scenario", SQRT, "--region", "product",
                             "--order", "-3")
    assert (code, out, ran) == (2, "", [])
    assert "argument --order:" in err


# ---------------------------------------------------------------------------
# scenario file validation
# ---------------------------------------------------------------------------


def test_unknown_top_level_field_rejected(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["comment"] = "not allowed"
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "eval", "--scenario", str(bad),
                           "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2
    assert "comment: unknown field" in err


def test_unknown_term_field_has_path(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0]["weight"] = 3
    bad = tmp_path / "term.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "eval", "--scenario", str(bad),
                           "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2
    assert "terms[0][0].weight: unknown field" in err


def test_non_finite_numbers_rejected_with_path(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0]["coeff"] = [math.nan, 0.0]
    doc["paths"]["difference-loop"]["moves"][0]["turns"] = math.inf
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # writes the NaN and Infinity literals
    code, out, err = run_cli(capsys, "eval", "--scenario", str(bad),
                             "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2 and out == ""
    assert "terms[0][0].coeff" in err
    doc["terms"][0][0]["coeff"] = [1.0, 0.0]
    with pytest.raises(ScenarioError, match=r"moves\[0\]\.turns"):
        parse_scenario(doc)


def test_log_power_past_int64_rejected_with_path(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0]["l"] = 2 ** 63
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps(doc))
    assert '"l": 9223372036854775808' in bad.read_text()
    code, out, err = run_cli(capsys, "eval", "--scenario", str(bad),
                             "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2 and out == ""
    assert err == "error: power.json.terms[0][0].l: must be below 2**63\n"
    doc["terms"][0][0]["l"] = 2 ** 63 - 1
    # The file's own action, given explicitly: a log z1 power needs one.
    doc["phases"] = serialize_scenario(load_scenario(SQRT))["phases"]
    assert parse_scenario(doc).fam.functions[0].terms[0].l == 2 ** 63 - 1


@pytest.mark.parametrize("power, log", [("l", "log z1"), ("n", "log(z1 - z2)")])
def test_log_power_without_an_action_is_refused(capsys, tmp_path, power, log):
    # One label, no phases and no automorphisms: the leading term's scalar
    # action cannot absorb the 2*pi*i a shift adds to the log.
    doc = {"version": "twistlab/1", "labels": 1,
           "terms": [[{"coeff": [1.0, 0.0], "r": [0.5, 0], "s": [0.25, 0], "t": [0.5, 0],
                       power: 1}]]}
    bad = tmp_path / "logs.json"
    bad.write_text(json.dumps(doc))
    for argv in (("eval", "--z1", "2.5,0", "--z2", "1,0"),
                 ("verify", "--check", "shift-identities")):
        code, out, err = run_cli(capsys, argv[0], "--scenario", str(bad), *argv[1:])
        assert (code, out) == (2, "")
        assert err == (f"error: logs.json.terms[0][0].{power}: no scalar action absorbs "
                       f"a {log} power; give automorphisms\n")
    doc["automorphisms"] = {"g1": [[1.0]], "g2": [[1.0]]}
    assert getattr(parse_scenario(doc).fam.functions[0].terms[0], power) == 1


HUGE = 10 ** 400  # past the float range


@pytest.mark.parametrize("field, edit", [
    ("terms[0][0].coeff", lambda doc: doc["terms"][0][0].update(coeff=HUGE)),
    ("paths.outer-loop.moves[0].turns",
     lambda doc: doc["paths"]["outer-loop"]["moves"][0].update(turns=HUGE)),
    ("terms[0][0].rExact", lambda doc: doc["terms"][0][0].update(rExact={"num": HUGE, "den": 1})),
], ids=["number", "turns", "exact"])
def test_integer_past_float_range_rejected_with_path(capsys, tmp_path, field, edit):
    doc = json.loads(Path(SQRT).read_text())
    edit(doc)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "transform", "--scenario", str(bad), "--op", "a+")
    assert code == 2 and out == ""
    assert err.startswith(f"error: huge.json.{field}: expected") and "finite" in err


def test_overflowing_value_is_not_printed(capsys, tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0]["coeff"] = [1e308, 0.0]
    doc["terms"][0][0]["r"] = [2.0, 0.0]
    del doc["terms"][0][0]["rExact"]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", "--scenario", str(big),
                             "--z1", "1e10,0", "--z2", "1,0")
    assert code == 2 and out == ""
    assert err == "error: function value at z1 = (10000000000+0j), z2 = (1+0j) is not finite\n"


def test_wrong_version_rejected(tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["version"] = "twistlab/2"
    with pytest.raises(ScenarioError, match="version"):
        parse_scenario(doc)


def test_phases_and_automorphisms_conflict(tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["phases"] = {"g1": [{"num": 1, "den": 2}], "g2": [{"num": 0, "den": 1}]}
    doc["automorphisms"] = {"g1": [[[1.0, 0.0]]], "g2": [[[1.0, 0.0]]]}
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(doc)


def test_exact_channel_must_match_float(tmp_path):
    doc = json.loads(Path(SQRT).read_text())
    doc["terms"][0][0]["t"] = [0.4, 0.0]  # disagrees with tExact = 1/2
    with pytest.raises(ScenarioError, match="tExact"):
        parse_scenario(doc)


def test_serialization_round_trip():
    for src in (SQRT, LOG_PAIR):
        sf = load_scenario(src)
        doc = serialize_scenario(sf)
        sf2 = parse_scenario(doc, "round")
        assert sf2.fam.dim == sf.fam.dim
        assert sf2.bt == sf.bt
        assert sf2.qp == sf.qp
        assert set(sf2.paths) == set(sf.paths)
        for a, b in zip(sf2.fam.functions, sf.fam.functions):
            assert term_distance(a, b) < 1e-15
        assert sf2.fam.action.phases1 == sf.fam.action.phases1


def test_shipped_scenarios_parse_and_validate():
    for src in (SQRT, LOG_PAIR):
        sf = load_scenario(src)
        assert sf.fam.dim >= 1
        assert sf.paths
        # Exact phases should be derivable for both shipped files.
        act = sf.fam.action
        assert act.phases1 is not None and act.phases2 is not None
        assert act.composition_defect() < 1e-15


# ---------------------------------------------------------------------------
# flag errors and entry points
# ---------------------------------------------------------------------------


def test_bad_complex_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "eval", "--scenario", SQRT,
                         "--z1", "nope", "--z2", "1,0")
    assert code == 2


def test_non_finite_complex_flag_is_usage_error(capsys):
    for z1 in ("nan,0", "2.5,inf"):
        code, out, _ = run_cli(capsys, "eval", "--scenario", SQRT,
                               "--z1", z1, "--z2", "1,0")
        assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    *(["verify", "--check", "duality-regions", "--tol", v] for v in ("nan", "inf", "-inf", "-1", "0")),
    *(["continue", "--path", "difference-loop", "--tol", v] for v in ("nan", "inf", "-inf", "-1", "0")),
    *(["verify", "--seed", v] for v in ("-1", "1.5")),
], ids=" ".join)
def test_out_of_range_flag_is_usage_error_before_any_check(capsys, monkeypatch, argv):
    ran = []
    for name in ("cmd_verify", "cmd_continue"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    code, out, err = run_cli(capsys, *argv, "--scenario", SQRT)
    assert (code, out, ran) == (2, "", [])
    assert f"argument {argv[-2]}:" in err


@pytest.mark.parametrize("argv", [
    *(["transform", "--op", "omega+", *flag] for flag in (
        ("--label", "2"), ("--p1", "5"), ("--p2", "1"), ("--p12", "1"), ("--sign", "plus"))),
    *(["verify", "--check", "shift-identities", flag, "1"]
      for flag in ("--label", "--p1", "--p2", "--p12")),
], ids=" ".join)
def test_removed_flag_is_usage_error_before_any_check(capsys, monkeypatch, argv):
    ran = []
    for name in ("cmd_transform", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    code, out, err = run_cli(capsys, *argv, "--scenario", SQRT)
    assert (code, out, ran) == (2, "", [])
    assert "unrecognized arguments" in err


def test_continue_has_no_steps_flag(capsys):
    code, out, _ = run_cli(capsys, "continue", "--scenario", SQRT,
                           "--path", "difference-loop", "--steps", "5")
    assert code == 2 and out == ""


@pytest.mark.parametrize("flag", ["--json", "--no-json"])
def test_output_is_always_json(capsys, flag):
    code, out, err = run_cli(capsys, "eval", "--scenario", SQRT, "--z1", "2.5,0", "--z2", "1,0",
                             flag)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_label_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eval", "--scenario", SQRT,
                           "--label", "4", "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2
    assert "label" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_module_entry_point():
    # The child imports the twistlab this test imported, installed or not.
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "twistlab", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "eval" in proc.stdout
