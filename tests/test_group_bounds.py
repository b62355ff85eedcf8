"""A series' group bounds (RegionExpansion.starts) stay one int64 array from
the build to the kernel: no code in logfun but RegionExpansion.groups turns
them into a list or iterates over them, and logfun does not import bisect."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "twistlab" / "logfun.py"

# Calls that make a list of, or iterate over, their arguments.
ITERATING_CALLS = {"list", "tuple", "set", "sorted", "iter", "enumerate", "reversed", "map",
                   "zip", "filter", "sum", "min", "max", "any", "all"}


def _roots(node) -> set[str]:
    """The names whose arrays node slices or shifts: x of x[...], x + 1 and
    [s for s in x[1:]]."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _roots(node.value)
    if isinstance(node, ast.BinOp):
        return _roots(node.left) | _roots(node.right)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return set().union(*(_roots(gen.iter) for gen in node.generators))
    return set()


def _bound_conversions(func: ast.FunctionDef) -> list[str]:
    """Where func turns group bounds into a list or iterates over them.

    Group bounds are any .starts attribute, the names whose arrays a
    starts= keyword is made from, and names assigned from either, sliced
    or shifted."""
    bounds = set().union(*(_roots(kw.value) for node in ast.walk(func)
                           if isinstance(node, ast.Call)
                           for kw in node.keywords if kw.arg == "starts"))

    def is_bounds(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in bounds
        if isinstance(node, ast.Attribute):
            return node.attr == "starts"
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return is_bounds(node.value)
        if isinstance(node, ast.BinOp):
            return is_bounds(node.left) or is_bounds(node.right)
        if isinstance(node, ast.IfExp):
            return is_bounds(node.body) or is_bounds(node.orelse)
        return False

    assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
    while True:
        new = {target.id for node in assigns if is_bounds(node.value)
               for target in node.targets if isinstance(target, ast.Name)} - bounds
        if not new:
            break
        bounds |= new
    found = []
    for node in ast.walk(func):
        what = None
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (isinstance(node.func, ast.Attribute) and name == "tolist"
                    and is_bounds(node.func.value)):
                what = "converts them to a list"
            elif name in ITERATING_CALLS and any(map(is_bounds, node.args)):
                what = f"passes them to {name}()"
            elif any(kw.arg == "starts" and isinstance(
                    kw.value, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp))
                    for kw in node.keywords):
                what = "makes a series' starts a list"
        elif isinstance(node, (ast.For, ast.comprehension)) and is_bounds(node.iter):
            what, node = "iterates over them", node.iter
        elif isinstance(node, ast.Starred) and is_bounds(node.value):
            what = "unpacks them"
        if what:
            found.append((node.lineno, f"{func.name}, line {node.lineno}: {what}: "
                                       f"{ast.unparse(node)}"))
    return [line for _, line in sorted(found, key=lambda found: found[0])]


def group_bound_conversions(source: str) -> list[str]:
    """Each place where source imports bisect, or a function other than
    RegionExpansion.groups turns a series' group bounds into a list or
    iterates over them: one line each."""
    tree = ast.parse(source)
    found = [f"line {node.lineno}: imports bisect" for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "bisect" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "bisect"]
    allowed = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "RegionExpansion"
               for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "groups"}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and id(func) not in allowed:
            found += _bound_conversions(func)
    return found


def test_logfun_keeps_group_bounds_an_array():
    assert group_bound_conversions(SOURCE.read_text()) == []


def test_the_kernel_and_the_build_are_checked():
    tree = ast.parse(SOURCE.read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"_passes", "_sum_series", "_build_pass", "groups"} <= names


def test_the_guard_sees_each_kind_of_conversion():
    source = '''
import bisect
from bisect import bisect_right
class RegionExpansion:
    def groups(self):
        return [0, *self.starts.tolist()]
def _passes(parts):
    starts = parts[0].starts if parts else []
    j = bisect.bisect_right(starts, 3)
    return list(starts)
def eval_parts(part, lo, hi, offset):
    inner = part.starts[lo:hi]
    group_starts = [offset]
    group_starts += map((offset - lo).__add__, inner)
    j0, j1 = part.starts.searchsorted((lo + 1, hi))
    shifted = part.starts[j0:j1] + (offset - lo)
    return [s for s in shifted], [*inner]
def _build_pass(firsts, keys, groups, lo):
    keys, firsts = keys[firsts].tolist(), firsts.tolist()
    a = RegionExpansion(starts=[s - lo for s in firsts[groups][1:]])
    for s in a.starts:
        pass
    return RegionExpansion(starts=firsts[groups][1:])
'''
    assert [line.split(":")[0] for line in group_bound_conversions(source)] == [
        "line 2", "line 3",
        "_passes, line 10",
        "eval_parts, line 14", "eval_parts, line 17", "eval_parts, line 17",
        "_build_pass, line 19", "_build_pass, line 20", "_build_pass, line 20",
        "_build_pass, line 21"]
