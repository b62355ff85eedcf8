"""The names the benchmark's tracer looks up all resolve.

bench/tracing.py wraps each function of its LAYERS table by name, as
twistlab.<module>.<function> or, for a dotted name, as a method of a class
there, and its work counters read RegionExpansion.groups.  A name deleted
from the library would make every traced benchmark run die with
AttributeError; here it fails a test instead.  The tracer is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from twistlab import BranchTriple, LogFunction, LogMonomial, expand_region


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("mod, fn", [(mod, fn) for mod, fn, _, _ in tracing.LAYERS],
                         ids=lambda v: v)
def test_traced_name_resolves(mod, fn):
    owner = importlib.import_module(f"twistlab.{mod}")
    *classes, name = fn.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, name))


def test_work_counters_read_region_groups():
    f = LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0), LogMonomial(0.5j, s=0.25, m=1)])
    series = expand_region(f, "product", BranchTriple(0, 0, 0), 6)
    assert tracing._expansion_terms((f,), series) == len(series.coeffs)
    assert tracing._groups((series,), None) == len(series.keys)
