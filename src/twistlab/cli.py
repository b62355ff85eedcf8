"""Command line interface and scenario (de)serialization.

Scenario files are JSON documents versioned "twistlab/1".  Complex numbers
serialize as two-element arrays [re, im]; exponents may carry an exact
rational side channel ({"num": .., "den": ..} for the real part), from
which the automorphism action takes exact phases, feeding its diagonal g3
and the phases field of a serialized scenario.  Unknown fields anywhere
in the document are rejected with a field-path diagnostic.

Exit codes: 0 success, 1 verification failure, 2 input error (parse or
flag problems; diagnostics go to stderr only in that case).

Subcommands:
  eval       evaluate one label at a point on a branch triple
  expand     region series: group structure and optional value/defect
  continue   transport a branch triple along a named path
  transform  exchange (omega+/omega-) or contragredient (a+/a-) rewrite
  verify     run checks; without --scenario, the shipped suite
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .logfun import (
    BranchTriple,
    LogFunction,
    LogMonomial,
    POWER_LIMIT,
    REGIONS,
    continue_along,
    eval_branch2,
    expand_region,
    normalize,
)
from .models import Scenario, abelian_action
from .paths import Arc, PathSpec, Segment
from .transforms import (
    AutomorphismAction,
    CorrelationFamily,
    QuasiPrimaryData,
    contragredient_family,
    diagonal_action,
    omega_family,
)
from .verify import (
    CHECKS,
    VerifyConfig,
    run_suite,
    suite_ok,
)

VERSION_TAG = "twistlab/1"


class ScenarioError(ValueError):
    """Structured input problem; message carries the field path."""


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise ScenarioError(f"{path}.{k}: unknown field")
    for k in required:
        if k not in obj:
            raise ScenarioError(f"{path}.{k}: missing required field")


def _as_complex(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = [v, 0.0]
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        raise ScenarioError(f"{path}: expected a number or [re, im]")
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError:  # an int past the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ScenarioError(f"{path}: expected finite numbers")
    return z


def _as_fraction(v, path: str) -> Fraction:
    _require_keys(v, {"num", "den"}, {"num", "den"}, path)
    num, den = v["num"], v["den"]
    if not isinstance(num, int) or not isinstance(den, int) or den == 0:
        raise ScenarioError(f"{path}: num/den must be integers, den nonzero")
    return Fraction(num, den)


def _as_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ScenarioError(f"{path}: expected an integer")
    return v


def _parse_term(obj, path: str) -> tuple[LogMonomial, dict[str, Fraction]]:
    _require_keys(obj, {"coeff", "r", "s", "t", "l", "m", "n",
                        "rExact", "sExact", "tExact"}, {"coeff"}, path)
    coeff = _as_complex(obj["coeff"], f"{path}.coeff")
    exps = {}
    exacts: dict[str, Fraction] = {}
    for name in ("r", "s", "t"):
        val = _as_complex(obj[name], f"{path}.{name}") if name in obj else 0j
        key = f"{name}Exact"
        if key in obj:
            frac = _as_fraction(obj[key], f"{path}.{key}")
            try:
                exact = complex(float(frac), 0.0)
            except OverflowError:
                raise ScenarioError(f"{path}.{key}: expected a finite number") from None
            if name in obj and abs(val - exact) > 1e-9:
                raise ScenarioError(f"{path}.{key}: disagrees with {name}")
            val = exact
            exacts[name] = frac
        exps[name] = val
    powers = {}
    for name in ("l", "m", "n"):
        p = _as_int(obj.get(name, 0), f"{path}.{name}")
        if p < 0:
            raise ScenarioError(f"{path}.{name}: must be non-negative")
        if p >= POWER_LIMIT:
            raise ScenarioError(f"{path}.{name}: must be below 2**63")
        powers[name] = p
    mono = LogMonomial(coeff, exps["r"], exps["s"], exps["t"],
                       powers["l"], powers["m"], powers["n"])
    return mono, exacts


def _parse_matrix(v, dim: int, path: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != dim:
        raise ScenarioError(f"{path}: expected a {dim}x{dim} matrix")
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{path}[{i}]: expected {dim} entries")
        rows.append([_as_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_move(obj, path: str):
    _require_keys(obj, {"var", "kind", "to", "turns", "about", "center"},
                  {"var", "kind"}, path)
    var = obj["var"]
    if var not in ("z1", "z2"):
        raise ScenarioError(f"{path}.var: must be 'z1' or 'z2'")
    kind = obj["kind"]
    if kind == "segment":
        if "to" not in obj:
            raise ScenarioError(f"{path}.to: missing required field")
        for bad in ("turns", "about", "center"):
            if bad in obj:
                raise ScenarioError(f"{path}.{bad}: not valid for a segment")
        return Segment(var, _as_complex(obj["to"], f"{path}.to"))
    if kind == "arc":
        if "turns" not in obj:
            raise ScenarioError(f"{path}.turns: missing required field")
        if "to" in obj:
            raise ScenarioError(f"{path}.to: not valid for an arc")
        turns = obj["turns"]
        if isinstance(turns, bool) or not isinstance(turns, (int, float)):
            raise ScenarioError(f"{path}.turns: expected a number")
        try:
            turns = float(turns)
        except OverflowError:  # an int past the float range
            turns = math.inf
        if not math.isfinite(turns):
            raise ScenarioError(f"{path}.turns: expected a finite number")
        about = obj.get("about", "origin")
        if about not in ("origin", "other", "point"):
            raise ScenarioError(f"{path}.about: must be origin, other or point")
        center = 0j
        if about == "point":
            if "center" not in obj:
                raise ScenarioError(f"{path}.center: required when about='point'")
            center = _as_complex(obj["center"], f"{path}.center")
        elif "center" in obj:
            raise ScenarioError(f"{path}.center: only valid when about='point'")
        return Arc(var, turns=turns, about=about, center=center)
    raise ScenarioError(f"{path}.kind: must be 'segment' or 'arc'")


_TOP_KEYS = {"version", "name", "labels", "terms", "phases", "automorphisms",
             "quasiPrimary", "branch", "paths"}


def parse_scenario(doc, source: str = "scenario") -> Scenario:
    """Parse and validate a scenario document (dict) into live objects."""
    _require_keys(doc, _TOP_KEYS, {"version", "labels", "terms"}, source)
    if doc["version"] != VERSION_TAG:
        raise ScenarioError(
            f"{source}.version: expected {VERSION_TAG!r}, got {doc['version']!r}")
    dim = _as_int(doc["labels"], f"{source}.labels")
    if dim < 1:
        raise ScenarioError(f"{source}.labels: must be at least 1")
    terms = doc["terms"]
    if not isinstance(terms, list) or len(terms) != dim:
        raise ScenarioError(f"{source}.terms: expected {dim} label term lists")
    functions = []
    leading = []  # (r, t) of each label's first term, exact where given
    for i, row in enumerate(terms):
        if not isinstance(row, list) or not row:
            raise ScenarioError(f"{source}.terms[{i}]: expected a nonempty list")
        monos = []
        for j, t in enumerate(row):
            mono, exacts = _parse_term(t, f"{source}.terms[{i}][{j}]")
            monos.append(mono)
            if j == 0:
                leading.append((exacts.get("r", mono.r), exacts.get("t", mono.t)))
        functions.append(LogFunction(monos))

    if "phases" in doc and "automorphisms" in doc:
        raise ScenarioError(
            f"{source}: give either phases or automorphisms, not both")
    if "phases" in doc:
        ph = doc["phases"]
        _require_keys(ph, {"g1", "g2"}, {"g1", "g2"}, f"{source}.phases")
        lists = {}
        for g in ("g1", "g2"):
            v = ph[g]
            if not isinstance(v, list) or len(v) != dim:
                raise ScenarioError(f"{source}.phases.{g}: expected {dim} entries")
            lists[g] = [_as_fraction(x, f"{source}.phases.{g}[{k}]")
                        for k, x in enumerate(v)]
        action = diagonal_action(lists["g1"], lists["g2"])
    elif "automorphisms" in doc:
        au = doc["automorphisms"]
        _require_keys(au, {"g1", "g2", "g3"}, {"g1", "g2"}, f"{source}.automorphisms")
        g1 = _parse_matrix(au["g1"], dim, f"{source}.automorphisms.g1")
        g2 = _parse_matrix(au["g2"], dim, f"{source}.automorphisms.g2")
        g3 = (_parse_matrix(au["g3"], dim, f"{source}.automorphisms.g3")
              if "g3" in au else g1 @ g2)
        action = AutomorphismAction(g1, g2, g3)
    else:
        # The abelian action of each label's leading term; exact when the
        # side channel covers r and t of every label.  A branch shift adds
        # 2*pi*i to log z1 or log(z1 - z2), which no scalar absorbs.
        for i, row in enumerate(terms):
            for j, t in enumerate(row):
                for name, log in (("l", "log z1"), ("n", "log(z1 - z2)")):
                    if t.get(name, 0):
                        raise ScenarioError(
                            f"{source}.terms[{i}][{j}].{name}: no scalar action absorbs "
                            f"a {log} power; give automorphisms")
        action = abelian_action(leading)

    qp = QuasiPrimaryData()
    if "quasiPrimary" in doc:
        qpo = doc["quasiPrimary"]
        _require_keys(qpo, {"wtU", "h1"}, set(), f"{source}.quasiPrimary")
        qp = QuasiPrimaryData(
            wt_u=_as_complex(qpo.get("wtU", 0), f"{source}.quasiPrimary.wtU"),
            h1=_as_complex(qpo.get("h1", 0), f"{source}.quasiPrimary.h1"),
        )

    bt = BranchTriple(0, 0, 0)
    if "branch" in doc:
        br = doc["branch"]
        _require_keys(br, {"p1", "p2", "p12"}, set(), f"{source}.branch")
        bt = BranchTriple(_as_int(br.get("p1", 0), f"{source}.branch.p1"),
                          _as_int(br.get("p2", 0), f"{source}.branch.p2"),
                          _as_int(br.get("p12", 0), f"{source}.branch.p12"))

    paths: dict[str, PathSpec] = {}
    if "paths" in doc:
        po = doc["paths"]
        if not isinstance(po, dict):
            raise ScenarioError(f"{source}.paths: expected an object")
        for pname, pv in po.items():
            ppath = f"{source}.paths.{pname}"
            _require_keys(pv, {"z1", "z2", "moves"}, {"z1", "z2", "moves"}, ppath)
            if not isinstance(pv["moves"], list):
                raise ScenarioError(f"{ppath}.moves: expected a list")
            moves = [_parse_move(mv, f"{ppath}.moves[{k}]")
                     for k, mv in enumerate(pv["moves"])]
            paths[pname] = PathSpec(_as_complex(pv["z1"], f"{ppath}.z1"),
                                    _as_complex(pv["z2"], f"{ppath}.z2"),
                                    moves)

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"{source}.name: expected a string")
    fam = CorrelationFamily(tuple(functions), action)
    return Scenario(name=name, fam=fam, qp=qp, bt=bt, paths=paths)


def load_scenario(path: str) -> Scenario:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON: {e}") from e
    return parse_scenario(doc, source=p.name)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _c(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def serialize_scenario(sf: Scenario) -> dict:
    """Scenario document for the parsed (possibly transformed) state."""
    terms = []
    for f in sf.fam.functions:
        row = []
        for u in normalize(f).terms:
            entry = {"coeff": _c(u.coeff), "r": _c(u.r), "s": _c(u.s),
                     "t": _c(u.t)}
            for name, p in (("l", u.l), ("m", u.m), ("n", u.n)):
                if p:
                    entry[name] = p
            row.append(entry)
        terms.append(row)
    doc: dict = {"version": VERSION_TAG, "name": sf.name,
                 "labels": sf.fam.dim, "terms": terms}
    act = sf.fam.action
    if act.phases1 is not None and act.phases2 is not None:
        doc["phases"] = {
            "g1": [{"num": x.numerator, "den": x.denominator} for x in act.phases1],
            "g2": [{"num": x.numerator, "den": x.denominator} for x in act.phases2],
        }
    else:
        doc["automorphisms"] = {
            "g1": [[_c(x) for x in row] for row in act.g1],
            "g2": [[_c(x) for x in row] for row in act.g2],
            "g3": [[_c(x) for x in row] for row in act.g3],
        }
    if sf.qp.wt_u != 0 or sf.qp.h1 != 0:
        doc["quasiPrimary"] = {"wtU": _c(sf.qp.wt_u), "h1": _c(sf.qp.h1)}
    if sf.bt != BranchTriple(0, 0, 0):
        doc["branch"] = {"p1": sf.bt.p1, "p2": sf.bt.p2, "p12": sf.bt.p12}
    if sf.paths:
        pdoc = {}
        for pname, ps in sf.paths.items():
            moves = []
            for mv in ps.moves:
                if isinstance(mv, Segment):
                    moves.append({"var": mv.var, "kind": "segment",
                                  "to": _c(mv.to)})
                else:
                    m = {"var": mv.var, "kind": "arc", "turns": mv.turns,
                         "about": mv.about}
                    if mv.about == "point":
                        m["center"] = _c(mv.center)
                    moves.append(m)
            pdoc[pname] = {"z1": _c(ps.z1), "z2": _c(ps.z2), "moves": moves}
        doc["paths"] = pdoc
    return doc


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------


def _parse_complex_flag(s: str) -> complex:
    parts = s.split(",")
    try:
        if len(parts) in (1, 2):
            z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
            if cmath.isfinite(z):
                return z
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite RE or RE,IM, got {s!r}")


def _positive_tol(s: str) -> float:
    try:
        tol = float(s)
    except ValueError:
        tol = math.nan
    if math.isfinite(tol) and tol > 0.0:
        return tol
    raise argparse.ArgumentTypeError(f"expected a finite number above 0, got {s!r}")


def _non_negative(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        n = -1
    if n >= 0:
        return n
    raise argparse.ArgumentTypeError(f"expected an integer 0 or more, got {s!r}")


def _triple_from_args(args, default: BranchTriple) -> BranchTriple:
    return BranchTriple(
        default.p1 if args.p1 is None else args.p1,
        default.p2 if args.p2 is None else args.p2,
        default.p12 if args.p12 is None else args.p12,
    )


def _label_index(args, dim: int) -> int:
    label = args.label
    if not 1 <= label <= dim:
        raise ScenarioError(f"--label must be in 1..{dim}")
    return label - 1


def _emit(doc: dict):
    sys.stdout.write(json.dumps(doc, sort_keys=True, allow_nan=False,
                                separators=(",", ":")) + "\n")


def _add_common(p: argparse.ArgumentParser, scenario_required=True):
    p.add_argument("--scenario", required=scenario_required,
                   help="scenario JSON file (twistlab/1)")


def _add_probe(p: argparse.ArgumentParser):
    """--scenario, and the label and branch triple to probe."""
    _add_common(p)
    p.add_argument("--label", type=int, default=1,
                   help="1-based probe label (default 1)")
    p.add_argument("--p1", type=int, default=None)
    p.add_argument("--p2", type=int, default=None)
    p.add_argument("--p12", type=int, default=None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    sf = load_scenario(args.scenario)
    bt = _triple_from_args(args, sf.bt)
    i = _label_index(args, sf.fam.dim)
    value = eval_branch2(sf.fam.functions[i], bt, args.z1, args.z2)
    _emit({"command": "eval", "scenario": sf.name, "label": args.label,
           "branch": list(bt), "z1": _c(args.z1), "z2": _c(args.z2),
           "value": _c(value)})
    return 0


def cmd_expand(args) -> int:
    if (args.z1 is None) != (args.z2 is None):
        given, missing = ("z1", "z2") if args.z2 is None else ("z2", "z1")
        raise ScenarioError(f"--{given} needs --{missing}")
    sf = load_scenario(args.scenario)
    bt = _triple_from_args(args, sf.bt)
    i = _label_index(args, sf.fam.dim)
    exp_f = expand_region(sf.fam.functions[i], args.region, bt, args.order)
    doc = {"command": "expand", "scenario": sf.name, "label": args.label,
           "region": args.region, "order": args.order, "branch": list(bt),
           "designated": list(exp_f.designated),
           "groups": len(exp_f.keys),
           "groupKeys": [_c(k) for k in exp_f.keys]}
    if args.z1 is not None:
        value = exp_f.eval(args.z1, args.z2)
        exact = eval_branch2(sf.fam.functions[i], exp_f.designated,
                             args.z1, args.z2)
        doc.update({"z1": _c(args.z1), "z2": _c(args.z2), "value": _c(value),
                    "defect": abs(value - exact)})
    _emit(doc)
    return 0


def cmd_continue(args) -> int:
    sf = load_scenario(args.scenario)
    if args.path not in sf.paths:
        raise ScenarioError(
            f"--path {args.path!r} not in scenario (has: {sorted(sf.paths)})")
    path = sf.paths[args.path]
    bt = _triple_from_args(args, sf.bt)
    i = _label_index(args, sf.fam.dim)
    f = sf.fam.functions[i]
    res = continue_along(f, bt, path, tol=args.tol)
    doc = {"command": "continue", "scenario": sf.name, "label": args.label,
           "path": args.path, "start": list(bt), "end": list(res.end_triple),
           "value": _c(res.end_value), "certificate": res.certificate,
           "samples": res.samples, "windings": list(res.crossings),
           "oracleGap": abs(res.oracle_value - res.end_value)}
    _emit(doc)
    return 0


_OPS = {"omega+": ("omega", 1), "omega-": ("omega", -1),
        "a+": ("a", 1), "a-": ("a", -1)}


def cmd_transform(args) -> int:
    sc = load_scenario(args.scenario)
    kind, sign = _OPS[args.op]
    if kind == "omega":
        fam = omega_family(sc.fam, sign)
    else:
        fam = contragredient_family(sc.fam, sc.qp, sign)
    out = replace(sc, name=f"{sc.name}:{args.op}", fam=fam)
    _emit(serialize_scenario(out))
    return 0


def cmd_verify(args) -> int:
    config = VerifyConfig(seed=args.seed, order=args.order)
    if args.tol is not None:
        config.tol_series = args.tol
    scenarios = None if args.scenario is None else [load_scenario(args.scenario)]
    reports = run_suite(scenarios, config,
                        None if args.check == "all" else args.check)
    ok = suite_ok(reports)
    _emit({"command": "verify", "pass": ok,
           "reports": [r.to_dict() for r in reports]})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistlab",
        description="branch calculus and verification for two-variable "
                    "logarithmic functions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a label on a branch triple")
    _add_probe(p)
    p.add_argument("--z1", type=_parse_complex_flag, required=True,
                   metavar="RE,IM")
    p.add_argument("--z2", type=_parse_complex_flag, required=True,
                   metavar="RE,IM")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("expand", help="region series of a label")
    _add_probe(p)
    p.add_argument("--region", choices=REGIONS, required=True)
    p.add_argument("--order", type=_non_negative, default=60)
    p.add_argument("--z1", type=_parse_complex_flag, default=None,
                   metavar="RE,IM")
    p.add_argument("--z2", type=_parse_complex_flag, default=None,
                   metavar="RE,IM")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("continue", help="continue a branch triple along a path")
    _add_probe(p)
    p.add_argument("--path", required=True, help="path name from the scenario")
    p.add_argument("--tol", type=_positive_tol, default=1e-9)
    p.set_defaults(fn=cmd_continue)

    p = sub.add_parser("transform", help="exchange or contragredient rewrite")
    _add_common(p)
    p.add_argument("--op", required=True, choices=list(_OPS))
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("verify", help="run verification checks")
    _add_common(p, scenario_required=False)
    p.add_argument("--check", default="all", choices=[*CHECKS, "all"],
                   help="check name or 'all' (default)")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--tol", type=_positive_tol, default=None,
                   help="override the series tolerance")
    p.add_argument("--order", type=_non_negative, default=60)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse already printed to stderr; normalize its exit code.
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
