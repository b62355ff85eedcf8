"""Inputs and timed passes of the four benchmark workloads.

Each workload has a ``build(seed, root)`` that makes its inputs (this is
the set-up that ``setup_s`` times, together with ``import twistlab``) and
a ``run_pass(inputs, settle)`` that runs every item once and returns one
``(settle(seconds), output)`` pair per item.  ``settle`` is called right
after each item, outside its timed interval.  Outputs are checked
afterwards by ``checks.py``; nothing here compares values.

Inputs depend on the seed only through values (exponents, coefficients,
points, path geometry), never through their structure: item counts, log
powers, orders and turn counts are fixed, so every seed does the same
kind and nearly the same amount of work.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import twistlab
from twistlab import (
    Arc,
    BranchTriple,
    LogFunction,
    LogMonomial,
    PathSpec,
    Segment,
    VerifyConfig,
    continue_along,
    default_scenarios,
    expand_region,
    make_random,
    make_random_loop,
    oracle_continue,
    run_suite,
    verify,
    winding_profile,
)
from twistlab import cli

import geometry as geo

clock = time.perf_counter


def terms_of(f: LogFunction) -> list[tuple]:
    """The benchmark's plain term tuples for a twistlab LogFunction."""
    return [(complex(u.coeff), complex(u.r), complex(u.s), complex(u.t), u.l, u.m, u.n)
            for u in f.terms]


def moves_of(path: PathSpec) -> list[tuple]:
    """The benchmark's plain move tuples for a twistlab PathSpec."""
    out = []
    for mv in path.moves:
        if isinstance(mv, Segment):
            out.append(("segment", mv.var, complex(mv.to)))
        else:
            out.append(("arc", mv.var, mv.turns, mv.about, complex(mv.center)))
    return out


def path_of(z1: complex, z2: complex, moves) -> PathSpec:
    out = []
    for mv in moves:
        if mv[0] == "segment":
            out.append(Segment(mv[1], mv[2]))
        else:
            out.append(Arc(mv[1], turns=mv[2], about=mv[3], center=mv[4]))
    return PathSpec(z1, z2, out)


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _small_triple(rng: random.Random) -> tuple[int, int, int]:
    return tuple(rng.randint(-1, 1) for _ in range(3))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


class Suite:
    """run_suite() over the shipped scenarios; one item is one check call.

    The shipped scenario set is fixed, so the seed does not change the
    inputs of this workload.
    """

    name = "suite"

    @staticmethod
    def build(seed: int, root: Path):
        return default_scenarios()

    @staticmethod
    def run_pass(scenarios, settle):
        times: list[float] = []
        originals = dict(verify.CHECKS)
        original_bi = verify.check_branch_identities

        def timed(fn):
            def call(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times.append(settle(clock() - t0))
            return call

        # run_suite looks checks up in CHECKS and calls branch-identities by
        # its module-level name, both at call time.
        verify.CHECKS.update({k: timed(v) for k, v in originals.items()})
        verify.check_branch_identities = timed(original_bi)
        try:
            reports = run_suite(scenarios, VerifyConfig())
        finally:
            verify.CHECKS.update(originals)
            verify.check_branch_identities = original_bi
        outputs = [(r.name, bool(r.passed), bool(r.expect_fail), float(r.max_defect))
                   for r in reports]
        if len(times) != len(outputs):
            raise RuntimeError(f"{len(times)} timed checks for {len(outputs)} reports")
        return list(zip(times, outputs))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

SERIES_ORDERS = (20, 60, 100, 200)
SERIES_POINTS = 32
SERIES_RATIO = (0.15, 0.4)
SERIES_WINDOW_MARGIN = 0.1
# (l, m, n) of each term of each function: every log power from 0 to 2
# occurs in each slot.
SERIES_LOG_POWERS = (
    ((0, 0, 0), (1, 0, 2)),
    ((2, 1, 0), (0, 2, 1)),
    ((1, 1, 1), (0, 0, 2)),
    ((2, 2, 2), (0, 1, 0)),
)


@dataclass
class SeriesCase:
    f: LogFunction
    bt: BranchTriple
    region: str
    order: int
    points: list[tuple[complex, complex]]


def _region_points(rng: random.Random, region: str, count: int) -> list[tuple[complex, complex]]:
    pts = []
    while len(pts) < count:
        big = _polar(rng, 0.8, 2.0)
        small = big * rng.uniform(*SERIES_RATIO) * cmath.exp(2j * math.pi * rng.random())
        z1, z2 = {"product": (big, small), "reversed": (small, big),
                  "iterate": (big + small, big)}[region]
        if geo.region_window(region, z1, z2) > SERIES_WINDOW_MARGIN:
            pts.append((z1, z2))
    return pts


class Series:
    """Region series built and evaluated at orders up to 200.

    One item is expand_region for one function, region and order, plus
    evaluation of that expansion at a fixed batch of in-region points.
    """

    name = "series"

    @staticmethod
    def build(seed: int, root: Path):
        rng = random.Random(f"series-{seed}")
        cases = []
        for powers in SERIES_LOG_POWERS:
            terms = []
            for l, m, n in powers:
                coeff = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
                r, s, t = (complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3))
                           for _ in range(3))
                terms.append(LogMonomial(coeff, r, s, t, l, m, n))
            f = LogFunction(terms)
            bt = BranchTriple(*_small_triple(rng))
            for region in twistlab.REGIONS:
                pts = _region_points(rng, region, SERIES_POINTS)
                for order in SERIES_ORDERS:
                    cases.append(SeriesCase(f, bt, region, order, pts))
        return cases

    @staticmethod
    def run_pass(cases, settle):
        out = []
        for c in cases:
            t0 = clock()
            exp_f = expand_region(c.f, c.region, c.bt, c.order)
            values = [exp_f.eval(z1, z2) for z1, z2 in c.points]
            out.append((settle(clock() - t0), values))
        return out


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

CONT_LOOPS = 24
# Signed turn counts of the multi-turn arcs, each run about the origin,
# about the other variable and about a third point.  The arcs' sample
# counts do not depend on the seed; they make up two thirds of the items
# and cost more than most loops, so the median item is an arc.
CONT_TURNS = (12.0, -14.5, 16.0, -18.25, 20.5, -23.0, 25.75, -29.0, 32.0, -36.5, 40.0,
              -45.0, 50.0, -60.5, 75.0, 100.0)
CONT_ABOUT = ("origin", "other", "point")
# Arcs keep at least half their radius between the circle and 0 or the
# other variable, so the sampler's density is 64 points per turn.
CONT_CLEARANCE = 0.5


@dataclass
class ContCase:
    f: LogFunction
    bt: BranchTriple
    path: PathSpec


def _clear_arc(rng: random.Random, turns: float, about: str):
    """Start point and move of an arc whose circle stays clear of 0 and the
    other variable."""
    while True:
        var = "z1" if rng.random() < 0.7 else "z2"
        moving = _polar(rng, 0.5, 2.0)
        other = _polar(rng, 0.5, 2.0)
        center = {"origin": 0j, "other": other,
                  "point": moving + _polar(rng, 0.3, 1.5)}[about]
        radius = abs(moving - center)
        clear = min(abs(abs(center) - radius), abs(abs(other - center) - radius))
        if clear >= CONT_CLEARANCE * radius:
            move = ("arc", var, turns, about, center)
            z1, z2 = (moving, other) if var == "z1" else (other, moving)
            return z1, z2, [move]


def _two_term_functions(base: int, count: int) -> list[tuple[LogFunction, BranchTriple]]:
    """Labels of make_random(base), make_random(base + 1), ... that have two
    terms, so that every seed evaluates the same number of terms."""
    out = []
    k = base
    while len(out) < count:
        sc = make_random(k)
        out.extend((f, sc.bt) for f in sc.fam.functions if len(f.terms) == 2)
        k += 1
    return out[:count]


def _family(base: int, dim: int):
    """The first of make_random(base), make_random(base + 1), ... with `dim`
    labels, so that every seed checks families of one size."""
    k = base
    while make_random(k).dim != dim:
        k += 1
    return k


class Continuation:
    """continue_along + oracle_continue + winding_profile per (path, function).

    Paths are closed loops from make_random_loop and multi-turn arcs of up
    to a hundred turns; functions are two-term labels of make_random
    families, whose terms carry powers of log z2.
    """

    name = "continuation"

    @staticmethod
    def build(seed: int, root: Path):
        rng = random.Random(f"continuation-{seed}")
        base = 1_000_000 * (seed % 1000)
        functions = _two_term_functions(base, CONT_LOOPS + len(CONT_TURNS) * len(CONT_ABOUT))
        cases = [ContCase(f, bt, make_random_loop(base + k))
                 for k, (f, bt) in enumerate(functions[:CONT_LOOPS])]
        arcs = [(turns, about) for turns in CONT_TURNS for about in CONT_ABOUT]
        for (turns, about), (f, bt) in zip(arcs, functions[CONT_LOOPS:]):
            z1, z2, moves = _clear_arc(rng, turns, about)
            cases.append(ContCase(f, bt, path_of(z1, z2, moves)))
        return cases

    @staticmethod
    def run_pass(cases, settle):
        out = []
        for c in cases:
            t0 = clock()
            res = continue_along(c.f, c.bt, c.path)
            oracle = oracle_continue(c.f, c.bt, c.path)
            windings = winding_profile(c.path)
            out.append((settle(clock() - t0), (tuple(res.end_triple), complex(res.end_value),
                                               complex(oracle), tuple(windings))))
        return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One `python -m twistlab` call and what its output must satisfy.

    kind selects the check; expect carries the independent data the check
    needs; save_as names a file that receives this call's stdout, which a
    later call reads; known_fault marks a call that fails today because of
    a named fault in the program.
    """

    name: str
    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    save_as: str | None = None
    known_fault: bool = False


@dataclass
class CliInputs:
    workdir: Path
    docs: dict[str, dict]
    calls: list[Invocation]
    env: dict[str, str]
    child_peak_kb: int = 0


def doc_terms(doc: dict, label: int) -> list[tuple]:
    """Term tuples of one label of a scenario document."""
    def c(v):
        return complex(v[0], v[1]) if isinstance(v, list) else complex(v)
    out = []
    for t in doc["terms"][label - 1]:
        out.append((c(t["coeff"]), c(t.get("r", 0)), c(t.get("s", 0)), c(t.get("t", 0)),
                    t.get("l", 0), t.get("m", 0), t.get("n", 0)))
    return out


def doc_triple(doc: dict) -> tuple[int, int, int]:
    br = doc.get("branch", {})
    return (br.get("p1", 0), br.get("p2", 0), br.get("p12", 0))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _flag(name: str, z: complex) -> str:
    # One token, so that a leading minus sign is not read as an option.
    return f"--{name}={z.real!r},{z.imag!r}"


def _scenario_doc(name: str, seed: int, rng: random.Random) -> dict:
    """Scenario document for a make_random family, with a closed loop and a
    multi-turn arc among its paths."""
    sc = make_random(seed)
    terms = [[{"coeff": _pair(u.coeff), "r": _pair(complex(u.r)), "s": _pair(complex(u.s)),
               "t": _pair(complex(u.t)), "m": u.m} for u in f.terms]
             for f in sc.fam.functions]
    act = sc.fam.action
    frac = lambda xs: [{"num": x.numerator, "den": x.denominator} for x in xs]
    loop = make_random_loop(seed)
    z1, z2, arc = _clear_arc(rng, 5.5, "other")
    paths = {}
    for pname, (a, b, moves) in {"loop": (loop.z1, loop.z2, moves_of(loop)),
                                 "arc": (z1, z2, arc)}.items():
        mv = []
        for m in moves:
            if m[0] == "segment":
                mv.append({"var": m[1], "kind": "segment", "to": _pair(m[2])})
            else:
                d = {"var": m[1], "kind": "arc", "turns": m[2], "about": m[3]}
                if m[3] == "point":
                    d["center"] = _pair(m[4])
                mv.append(d)
        paths[pname] = {"z1": _pair(a), "z2": _pair(b), "moves": mv}
    return {
        "version": "twistlab/1", "name": name, "labels": sc.dim, "terms": terms,
        "phases": {"g1": frac(act.phases1), "g2": frac(act.phases2)},
        "quasiPrimary": {"wtU": _pair(complex(sc.qp.wt_u)), "h1": _pair(complex(sc.qp.h1))},
        "branch": {"p1": sc.bt.p1, "p2": sc.bt.p2, "p12": sc.bt.p12},
        "paths": paths,
    }


def _generic_point(rng: random.Random) -> tuple[complex, complex]:
    """(z1, z2) with z1, z2 and z1 - z2 all at least 0.1 rad from the cut."""
    while True:
        z1, z2 = _polar(rng, 0.4, 2.2), _polar(rng, 0.4, 2.2)
        if abs(z1 - z2) > 0.2 and all(
                0.1 < geo.parg(q) < 2 * math.pi - 0.1 for q in (z1, z2, z1 - z2)):
            return z1, z2


def _branch_flags(triple) -> list[str]:
    return [f"--p1={triple[0]}", f"--p2={triple[1]}", f"--p12={triple[2]}"]


class Cli:
    """Sequential `python -m twistlab` subprocesses, one item per invocation."""

    name = "cli"

    @staticmethod
    def build(seed: int, root: Path):
        rng = random.Random(f"cli-{seed}")
        docs = {
            "sqrt.json": json.loads((root / "scenarios" / "sqrt_difference.json").read_text()),
            "pair.json": json.loads((root / "scenarios" / "log_pair.json").read_text()),
        }
        family = 1_000_000 * (seed % 1000)
        for k in range(3):
            family = _family(family + 1, 2)
            docs[f"rand{k}.json"] = _scenario_doc(f"random-{k}", family, rng)
        control = json.loads(json.dumps(docs["rand2.json"]))
        control["name"] = "random-2-control-shift"
        g1 = control["phases"]["g1"]
        g1[0] = {"num": 2 * g1[0]["num"] + g1[0]["den"], "den": 2 * g1[0]["den"]}
        docs["control.json"] = control
        # Fixed inputs, independent of the seed.
        docs["nan.json"] = {"version": "twistlab/1", "name": "nan-coefficient", "labels": 1,
                            "terms": [[{"coeff": [math.nan, 0.0], "t": [0.5, 0.0]}]]}
        docs["badfield.json"] = {"version": "twistlab/1", "labels": 1,
                                 "terms": [[{"coeff": [1.0, 0.0], "weight": 2}]]}

        calls: list[Invocation] = []

        def ev(fname, label, z1, z2, triple, **kw):
            doc = docs[fname]
            calls.append(Invocation(
                f"eval {fname} label {label}",
                ["eval", "--scenario", fname, "--label", str(label),
                 _flag("z1", z1), _flag("z2", z2)] + _branch_flags(triple),
                "eval", {"terms": doc_terms(doc, label), "triple": triple,
                         "z1": z1, "z2": z2}, **kw))

        ev("sqrt.json", 1, 2.5 + 0j, 1 + 0j, (0, 0, 0))
        ev("sqrt.json", 1, 2.5 + 0j, 1 + 0j, (0, 0, 1))
        ev("sqrt.json", 1, *_generic_point(rng), _small_triple(rng))
        for label in (1, 2, 2):
            ev("pair.json", label, *_generic_point(rng), _small_triple(rng))
        for k in range(3):
            doc = docs[f"rand{k}.json"]
            for _ in range(2):
                ev(f"rand{k}.json", rng.randint(1, doc["labels"]), *_generic_point(rng),
                   _small_triple(rng))
        calls.append(Invocation(
            "eval nan coefficient", ["eval", "--scenario", "nan.json", "--z1", "2.5,0",
                                     "--z2", "1,0"],
            "reject", {"field": "terms[0][0].coeff"}, known_fault=True))
        ev("sqrt.json", 1, 2.5 + 0j, 1 + 0j, (0, 0, 10 ** 20), known_fault=True)

        for fname, label, region, order in (
                ("pair.json", 1, "product", 40), ("pair.json", 2, "reversed", 60),
                ("pair.json", 1, "iterate", 80), ("rand0.json", 1, "product", 60),
                ("rand1.json", 1, "iterate", 100), ("rand2.json", 1, "reversed", 30)):
            z1, z2 = _region_points(rng, region, 1)[0]
            triple = _small_triple(rng)
            calls.append(Invocation(
                f"expand {fname} {region} {order}",
                ["expand", "--scenario", fname, "--label", str(label), "--region", region,
                 "--order", str(order), _flag("z1", z1), _flag("z2", z2)]
                + _branch_flags(triple),
                "expand", {"terms": doc_terms(docs[fname], label), "triple": triple,
                           "region": region, "order": order, "z1": z1, "z2": z2}))

        for fname, label, pname in (
                ("sqrt.json", 1, "difference-loop"), ("sqrt.json", 1, "outer-loop"),
                ("pair.json", 2, "outer-loop"), ("pair.json", 1, "there-and-back"),
                ("rand0.json", 1, "loop"), ("rand1.json", 1, "arc")):
            doc = docs[fname]
            p = doc["paths"][pname]
            moves = []
            for m in p["moves"]:
                if m["kind"] == "segment":
                    moves.append(("segment", m["var"], complex(*m["to"])))
                else:
                    moves.append(("arc", m["var"], m["turns"], m.get("about", "origin"),
                                  complex(*m.get("center", [0.0, 0.0]))))
            calls.append(Invocation(
                f"continue {fname} {pname}",
                ["continue", "--scenario", fname, "--label", str(label), "--path", pname],
                "continue", {"terms": doc_terms(doc, label), "triple": doc_triple(doc),
                             "z1": complex(*p["z1"]), "z2": complex(*p["z2"]),
                             "moves": moves}))

        for fname, op, back in (("pair.json", "omega+", "omega-"), ("pair.json", "a+", "a-"),
                                ("rand0.json", "omega-", "omega+"), ("rand1.json", "a+", "a-")):
            mid = f"{Path(fname).stem}-{op}.json"
            calls.append(Invocation(f"transform {fname} {op}",
                                    ["transform", "--scenario", fname, "--op", op],
                                    "transform", save_as=mid))
            calls.append(Invocation(
                f"transform {mid} {back}", ["transform", "--scenario", mid, "--op", back],
                "roundtrip", {"terms": [doc_terms(docs[fname], i + 1)
                                        for i in range(docs[fname]["labels"])]}))

        for fname, check, code in (
                ("sqrt.json", "shift-identities", 0), ("pair.json", "duality-regions", 0),
                ("pair.json", "region-swap", 0), ("rand0.json", "omega-duality", 0),
                ("rand1.json", "contragredient-duality", 0),
                ("rand2.json", "monodromy-composition", 0),
                ("control.json", "shift-identities", 1)):
            calls.append(Invocation(f"verify {fname} {check}",
                                    ["verify", "--scenario", fname, "--check", check],
                                    "verify", {"code": code}))

        calls.append(Invocation("eval unknown field",
                                ["eval", "--scenario", "badfield.json", "--z1", "2,0",
                                 "--z2", "1,0"],
                                "reject", {"field": "terms[0][0].weight"}))
        return CliInputs(workdir=root / "bench" / "_work" / f"cli-{seed}-{os.getpid()}",
                         docs=docs, calls=calls,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))

    @staticmethod
    def write_files(inputs: CliInputs):
        inputs.workdir.mkdir(parents=True, exist_ok=True)
        for fname, doc in inputs.docs.items():
            (inputs.workdir / fname).write_text(json.dumps(doc))

    @staticmethod
    def run_pass(inputs: CliInputs, settle):
        """Each call in a child process; output is (code, stdout, stderr).

        The largest peak resident size of any child is kept in
        inputs.child_peak_kb.
        """
        out = []
        for call in inputs.calls:
            t0 = clock()
            proc = subprocess.Popen([sys.executable, "-m", "twistlab", *call.argv],
                                    cwd=inputs.workdir, env=inputs.env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            # Outputs stay far below a pipe buffer, so reading one stream to
            # its end before the other cannot block the child.
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = settle(clock() - t0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
            if call.save_as:
                (inputs.workdir / call.save_as).write_bytes(stdout)
            inputs.child_peak_kb = max(inputs.child_peak_kb, usage.ru_maxrss)
            out.append((dt, (proc.returncode, stdout.decode(), stderr.decode())))
        return out

    @staticmethod
    def replay_pass(inputs: CliInputs, settle):
        """The same calls in this process through cli.main (traced runs)."""
        out = []
        here = os.getcwd()
        os.chdir(inputs.workdir)
        try:
            for call in inputs.calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = clock()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(call.argv))
                dt = settle(clock() - t0)
                if call.save_as:
                    (inputs.workdir / call.save_as).write_text(stdout.getvalue())
                out.append((dt, (code, stdout.getvalue(), stderr.getvalue())))
        finally:
            os.chdir(here)
        return out


WORKLOADS = {w.name: w for w in (Suite, Series, Continuation, Cli)}
