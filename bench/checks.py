"""Correctness checks of the benchmark, run after the timed passes.

Every check compares an output with the mpmath reference or the
benchmark's own geometry, or tests a property the method must have.
``check(inputs, outputs)`` returns one ``None`` (correct) or message per
item, for one pass of outputs.
"""

from __future__ import annotations

import json

import geometry as geo
import reference as ref
from workloads import doc_terms, moves_of, terms_of

# Plain evaluation is a handful of floating-point operations per term.
EVAL_TOL = 1e-10
# Continuation evaluates at phases up to 2*pi*60 and the oracle sums
# thousands of phase steps.
CONT_TOL = 1e-10


def check_suite(scenarios, outputs):
    """124 reports over 23 scenarios; normal checks pass, the 3 controls fail."""
    msgs = [None if passed != expect_fail else
            f"{name}: passed={passed} with expect_fail={expect_fail}"
            for name, passed, expect_fail, _ in outputs]
    names = [o[0] for o in outputs]
    scen = {n.split("/", 1)[0] for n in names if "/" in n}
    controls = [o for o in outputs if o[2]]
    problem = None
    if len(outputs) != 124:
        problem = f"{len(outputs)} reports, expected 124"
    elif len(scen) != 23:
        problem = f"{len(scen)} scenarios, expected 23"
    elif len(controls) != 3:
        problem = f"{len(controls)} controls, expected 3"
    if problem:
        msgs = [m or problem for m in msgs]
    return msgs


def _series_tol(terms, region: str, order: int, z1: complex, z2: complex) -> float:
    """series_tol for the exponent and log power the region expands: those
    of z1 in the iterate region, of z1 - z2 in the other two."""
    iterate = region == "iterate"
    expo = min((t[1] if iterate else t[3]).real for t in terms)
    power = max(t[4] if iterate else t[6] for t in terms)
    return ref.series_tol(geo.region_ratio(region, z1, z2), order, expo, power)


def check_series(cases, outputs):
    msgs = []
    for c, values in zip(cases, outputs):
        terms = terms_of(c.f)
        target = geo.designated(c.region, tuple(c.bt))
        bad = None
        for (z1, z2), v in zip(c.points, values):
            tol = _series_tol(terms, c.region, c.order, z1, z2)
            want = ref.eval_terms(terms, target, z1, z2)
            if not ref.close(v, want, tol, ref.term_scale(terms, target, z1, z2)):
                bad = f"{c.region} order {c.order} at {z1:.3f},{z2:.3f}: {v} != {want}"
                break
        msgs.append(bad)
    return msgs


def _cont_message(terms, start, z1, z2, moves, end_triple, value, oracle_gap, windings):
    e1, e2, shift = geo.walk(z1, z2, moves)
    want_triple = tuple(p + d for p, d in zip(start, shift))
    if tuple(end_triple) != want_triple:
        return f"end triple {tuple(end_triple)} != {want_triple}"
    if tuple(windings) != shift:
        return f"windings {tuple(windings)} != {shift}"
    want = ref.eval_terms(terms, want_triple, e1, e2)
    if not ref.close(value, want, CONT_TOL):
        return f"end value {value} != {want}"
    if not oracle_gap <= CONT_TOL * max(1.0, abs(value)):
        return f"oracle differs from the end value by {oracle_gap}"
    return None


def check_continuation(cases, outputs):
    return [_cont_message(terms_of(c.f), tuple(c.bt), c.path.z1, c.path.z2,
                          moves_of(c.path), end, value, abs(oracle - value), windings)
            for c, (end, value, oracle, windings) in zip(cases, outputs)]


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite number {name} in output")
    return json.loads(text, parse_constant=reject)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _cli_message(call, code, stdout, stderr):
    e = call.expect
    if call.kind == "reject":
        if code != 2:
            return f"exit {code}, expected 2"
        if stdout.strip():
            return "printed a result on bad input"
        if e["field"] not in stderr:
            return f"stderr does not name {e['field']}"
        return None
    want_code = e.get("code", 0)
    if code != want_code:
        return f"exit {code}, expected {want_code}: {stderr.strip()[-200:]}"
    try:
        doc = _strict_json(stdout)
    except ValueError as err:
        return f"stdout is not strict JSON: {err}"
    if call.kind == "eval":
        if tuple(doc["branch"]) != tuple(e["triple"]):
            return f"branch {doc['branch']} != {e['triple']}"
        want = ref.eval_terms(e["terms"], e["triple"], e["z1"], e["z2"])
        if not ref.close(_complex(doc["value"]), want, EVAL_TOL):
            return f"value {doc['value']} != {want}"
    elif call.kind == "expand":
        target = geo.designated(e["region"], e["triple"])
        if tuple(doc["designated"]) != target:
            return f"designated {doc['designated']} != {target}"
        tol = _series_tol(e["terms"], e["region"], e["order"], e["z1"], e["z2"])
        want = ref.eval_terms(e["terms"], target, e["z1"], e["z2"])
        scale = ref.term_scale(e["terms"], target, e["z1"], e["z2"])
        if not ref.close(_complex(doc["value"]), want, tol, scale):
            return f"series value {doc['value']} != {want}"
    elif call.kind == "continue":
        return _cont_message(e["terms"], e["triple"], e["z1"], e["z2"], e["moves"],
                             doc["end"], _complex(doc["value"]), doc["oracleGap"],
                             doc["windings"])
    elif call.kind == "transform":
        if doc.get("version") != "twistlab/1" or not doc.get("terms"):
            return "transform output is not a scenario"
    elif call.kind == "roundtrip":
        for label, want in enumerate(e["terms"], start=1):
            if not ref.same_terms(doc_terms(doc, label), want):
                return f"label {label} does not come back to its input terms"
    elif call.kind == "verify":
        if doc["pass"] != (want_code == 0):
            return f"pass={doc['pass']}"
    return None


def check_cli(inputs, outputs):
    messages = []
    for call, out in zip(inputs.calls, outputs):
        msg = _cli_message(call, *out)
        messages.append(msg and f"{call.name}: {msg}")
    return messages


CHECKS = {"suite": check_suite, "series": check_series,
          "continuation": check_continuation, "cli": check_cli}
