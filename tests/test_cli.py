"""Tests for the command line interface and scenario files."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from twistlab import cli, default_scenarios, make_random, term_distance, verify
from twistlab.cli import ScenarioError, load_scenario, main, parse_scenario, serialize_scenario

ROOT = Path(__file__).resolve().parent.parent
SQRT = str(ROOT / "scenarios" / "sqrt_difference.json")
LOG_PAIR = str(ROOT / "scenarios" / "log_pair.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_eval_plain_output(capsys):
    code, out, _ = run_cli(capsys, "eval", "--scenario", SQRT,
                           "--z1", "2.5,0", "--z2", "1,0", "--no-json")
    assert code == 0
    assert "value:" in out and "{" not in out


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


def test_transform_omega_swaps_exact_phases(capsys):
    doc = run_json(capsys, "transform", "--scenario", LOG_PAIR,
                   "--op", "omega+")
    # The shipped file derives its diagonal phases from the exact exponent
    # side channels; serializing makes them explicit for comparison.
    original = serialize_scenario(load_scenario(LOG_PAIR))
    assert doc["phases"]["g1"] == original["phases"]["g2"]
    assert doc["phases"]["g2"] == original["phases"]["g1"]


def test_transform_bare_op_needs_sign(capsys):
    code, _, err = run_cli(capsys, "transform", "--scenario", SQRT,
                           "--op", "omega")
    assert code == 2 and "--sign" in err
    doc = run_json(capsys, "transform", "--scenario", SQRT,
                   "--op", "omega", "--sign", "plus")
    doc2 = run_json(capsys, "transform", "--scenario", SQRT, "--op", "omega+")
    doc["name"] = doc2["name"]
    assert doc == doc2


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
    assert "JSON" in err


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
        assert sf.fam.action.exact_composition_ok() is True


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


def test_continue_has_no_steps_flag(capsys):
    code, out, _ = run_cli(capsys, "continue", "--scenario", SQRT,
                           "--path", "difference-loop", "--steps", "5")
    assert code == 2 and out == ""


def test_label_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eval", "--scenario", SQRT,
                           "--label", "4", "--z1", "2.5,0", "--z2", "1,0")
    assert code == 2
    assert "label" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "twistlab", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eval" in proc.stdout
