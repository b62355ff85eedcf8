"""Per-layer counts and times, recorded by wrapping twistlab's functions.

Nothing inside twistlab changes: ``Tracer.install`` replaces each listed
function, wherever a twistlab module or the check registry refers to it,
by a wrapper that counts calls and work and times the call.  Self time is
a call's duration minus the time spent in wrapped calls it made.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

clock = time.perf_counter


def _expansion_terms(args, result) -> int:
    return sum(len(g.terms) for g in result.groups.values())


def _groups(args, result) -> int:
    return len(args[0].groups)


def _samples(args, result) -> int:
    return int(result.samples)


def _points(args, result) -> int:
    return len(result[0])


# (module, function, what to report, work counter).  Every metric name is
# "<module>.<function>.<what>"; the work counter's result is reported under
# the last name in `what` that is not calls, self_ms or total_ms.
LAYERS = (
    ("branchcalc", "lp", ("calls", "self_ms"), None),
    ("branchcalc", "principal_arg", ("calls", "self_ms"), None),
    ("logfun", "normalize", ("calls", "self_ms"), None),
    ("logfun", "term_distance", ("calls", "self_ms"), None),
    ("logfun", "eval_branch2", ("calls", "self_ms"), None),
    ("logfun", "expand_region", ("calls", "self_ms", "terms"), _expansion_terms),
    ("logfun", "RegionExpansion.eval", ("calls", "self_ms", "groups"), _groups),
    ("logfun", "validate_path", ("calls", "self_ms"), None),
    ("logfun", "sample_path", ("calls", "self_ms", "points"), _points),
    ("logfun", "continue_along", ("calls", "self_ms", "samples"), _samples),
    ("logfun", "winding_profile", ("calls", "self_ms"), None),
    ("models", "oracle_continue", ("calls", "self_ms"), None),
    ("models", "default_scenarios", ("self_ms",), None),
    ("transforms", "omega_transform", ("calls", "self_ms"), None),
    ("transforms", "a_transform", ("calls", "self_ms"), None),
    ("transforms", "quasi_primary_modify", ("calls", "self_ms"), None),
    ("transforms", "check_g1_shift", ("calls", "self_ms"), None),
    ("transforms", "check_g2_shift", ("calls", "self_ms"), None),
    *(("verify", f"check_{c}", ("self_ms", "total_ms"), None)
      for c in ("branch_identities", "shift_identities", "duality_regions", "region_swap",
                "monodromy_composition", "omega_duality", "contragredient_duality")),
    ("cli", "load_scenario", ("self_ms",), None),
    ("cli", "serialize_scenario", ("self_ms",), None),
    *(("cli", f"cmd_{c}", ("total_ms",), None)
      for c in ("eval", "expand", "continue", "transform", "verify")),
)

# Measured apart from the wrappers: `import twistlab` in a fresh interpreter.
IMPORT_METRIC = "cli.import_ms"


def metric_names() -> list[str]:
    names = [f"{mod}.{fn}.{what}" for mod, fn, whats, _ in LAYERS for what in whats]
    return names + [IMPORT_METRIC]


def metric_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"


class Tracer:
    """Call counts, work counts and self/total times per wrapped function."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}
        self._stack: list[float] = []

    def snapshot(self) -> dict[str, list[float]]:
        """Stats so far, and a fresh start."""
        out, self.stats = self.stats, {}
        return out

    def _wrap(self, key: str, fn, work):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += total
                s = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
                s[0] += 1
                s[1] += total - nested
                s[2] += total
            if work is not None:
                s[3] += work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function wherever twistlab's modules or the
        benchmark's workloads module hold it."""
        modules = [m for name, m in sys.modules.items()
                   if name in ("twistlab", "workloads") or name.startswith("twistlab.")]
        verify = importlib.import_module("twistlab.verify")
        for mod, fn, _, work in LAYERS:
            module = importlib.import_module(f"twistlab.{mod}")
            key = f"{mod}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(key, getattr(cls, meth), work))
                continue
            original = getattr(module, fn)
            wrapper = self._wrap(key, original, work)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
            for name, check in verify.CHECKS.items():
                if check is original:
                    verify.CHECKS[name] = wrapper


def report(setup: dict[str, list[float]], passes: list[dict[str, list[float]]],
           import_ms: float) -> dict[str, float]:
    """Set-up figures plus one pass: counts of the first pass (every pass
    does the same work) and the median over passes of each time."""
    out = {}
    for mod, fn, whats, _ in LAYERS:
        key = f"{mod}.{fn}"
        base = setup.get(key, [0, 0.0, 0.0, 0])
        per_pass = [p.get(key, [0, 0.0, 0.0, 0]) for p in passes]
        for what in whats:
            if what == "calls":
                value = base[0] + per_pass[0][0]
            elif what == "self_ms":
                value = 1e3 * (base[1] + statistics.median(p[1] for p in per_pass))
            elif what == "total_ms":
                value = 1e3 * (base[2] + statistics.median(p[2] for p in per_pass))
            else:
                value = base[3] + per_pass[0][3]
            out[f"{key}.{what}"] = value
    out[IMPORT_METRIC] = import_ms
    return out


def counts_of(stats: dict[str, list[float]]) -> dict[str, tuple[int, int]]:
    """The integer part of one pass's stats, which must repeat exactly."""
    return {k: (int(v[0]), int(v[3])) for k, v in stats.items()}
