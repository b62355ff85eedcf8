"""The region table: each row pinned by the identity it encodes, and no
region decision made anywhere else in the library."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from twistlab import REGIONS, BranchTriple, designated_triple, in_region, logfun
from twistlab.branchcalc import lp, principal_arg

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "twistlab"

# Each region's (outer, inner, expanded, sign, const), columns 0, 1 and 2
# standing for z1, z2 and z1 - z2: expanded = e^const outer (1 + sign x),
# x = inner / outer.
ROWS = {
    "product": (0, 1, 2, -1.0, 0j),
    "reversed": (1, 0, 2, -1.0, complex(0.0, -math.pi)),
    "iterate": (1, 2, 0, 1.0, 0j),
}


def test_the_table_holds_the_three_rows_in_order():
    assert REGIONS == tuple(ROWS) == tuple(logfun._REGIONS)
    for region, row in ROWS.items():
        assert tuple(logfun._REGIONS[region]) == row


@pytest.mark.parametrize("region", REGIONS)
def test_each_row_is_the_identity_it_encodes(region):
    # Inside the modulus ordering, on the designated triple, log expanded
    # is const + log outer + Log(1 + sign x) exactly where in_region holds,
    # and one turn off everywhere else; and arg expanded - arg outer - Im const
    # never falls in the band pi/2 < |.| < 3pi/2, so a window widened by less
    # than pi would admit no new point.
    outer, inner, expanded, sign, const = ROWS[region]
    rng = np.random.default_rng(24)
    zs1 = rng.uniform(0.2, 2.0, 4000) * np.exp(2j * np.pi * rng.random(4000))
    zs2 = rng.uniform(0.2, 2.0, 4000) * np.exp(2j * np.pi * rng.random(4000))
    triples = rng.integers(-3, 4, (4000, 3)).tolist()
    counts = {True: 0, False: 0}
    for z1, z2, bt in zip(zs1.tolist(), zs2.tolist(), triples):
        zs = (z1, z2, z1 - z2)
        if not abs(zs[inner]) < abs(zs[outer]):
            continue
        d = designated_triple(region, BranchTriple(*bt))
        x = zs[inner] / zs[outer]
        gap = (lp(d[expanded], zs[expanded])
               - (const + lp(d[outer], zs[outer]) + cmath.log(1.0 + sign * x)))
        inside = in_region(region, z1, z2)
        counts[inside] += 1
        turns = 0 if inside else (1 if gap.imag > 0 else -1)
        assert abs(gap - turns * 2j * math.pi) < 1e-12, (z1, z2, bt)
        off = abs(principal_arg(zs[expanded]) - principal_arg(zs[outer]) - const.imag)
        assert not math.pi / 2 < off < 3 * math.pi / 2, (z1, z2)
    assert min(counts.values()) > 50, counts


def region_decisions(source: str) -> list[str]:
    """Where source compares against a region name, matches one, or keys a
    dict by one, outside the assignment of _REGIONS: one line each."""
    names = set(ROWS)

    def named(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    tree = ast.parse(source)
    table = {id(node) for stmt in tree.body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             and "_REGIONS" in [getattr(t, "id", None) for t in
                                (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])]
             for node in ast.walk(stmt)}
    found = []
    for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0)):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare) and any(map(named, [node.left, *node.comparators])):
            found.append(f"line {node.lineno}: comparison {ast.unparse(node)}")
        elif isinstance(node, ast.Dict) and any(key is not None and named(key)
                                                for key in node.keys):
            found.append(f"line {node.lineno}: dict keyed by region names")
        elif isinstance(node, ast.MatchValue) and named(node.value):
            found.append(f"line {node.lineno}: match case {ast.unparse(node)}")
    return found


def test_no_region_decision_outside_the_table():
    found = {path.name: region_decisions(path.read_text())
             for path in sorted(SOURCE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_kind_of_region_decision():
    source = '''
_REGIONS = {"product": 0, "reversed": 1}
if region == "iterate":
    pass
ok = region in ("product", "reversed")
_OTHER = {"product": 1}
match region:
    case "reversed":
        pass
'''
    assert [line.split(":")[0] for line in region_decisions(source)] == [
        "line 3", "line 5", "line 6", "line 8"]
