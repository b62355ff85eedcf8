"""Tests of the benchmark's independent reference, against values worked out
by hand.  Run with:  python3 -m pytest bench/test_reference.py
"""

import cmath
import json
import math
from pathlib import Path

import geometry as geo
import reference as ref
import tracing

SQRT_15 = math.sqrt(1.5)


def term(coeff=1.0, r=0.0, s=0.0, t=0.0, l=0, m=0, n=0):
    return (complex(coeff), complex(r), complex(s), complex(t), l, m, n)


def near(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(b))


def test_sqrt_difference_on_sheets_0_and_1():
    f = [term(t=0.5)]
    # z1 - z2 = 1.5 on the cut: arg 0, and sheet 1 adds pi to the half-angle.
    assert near(ref.eval_terms(f, (0, 0, 0), 2.5, 1.0), SQRT_15)
    assert near(ref.eval_terms(f, (0, 0, 1), 2.5, 1.0), -SQRT_15)
    # z1 - z2 = -4: arg pi, so sqrt = 2 e^{i pi/2} and 2 e^{i 3pi/2}.
    assert near(ref.eval_terms(f, (0, 0, 0), 1.0, 5.0), 2j)
    assert near(ref.eval_terms(f, (0, 0, 1), 1.0, 5.0), -2j)


def test_cube_root_on_sheet_2():
    f = [term(r=1 / 3)]
    # 8^(1/3) on sheet 2: 2 e^{i 4pi/3}; (-8)^(1/3): 2 e^{i (pi + 4pi)/3}.
    assert near(ref.eval_terms(f, (2, 0, 0), 8.0, 1.0), -1 - 1j * math.sqrt(3))
    assert near(ref.eval_terms(f, (2, 0, 0), -8.0, 1.0), 1 - 1j * math.sqrt(3))


def test_log_power_terms():
    # (log z2)^2 at z2 = i on sheet 1: (i (pi/2 + 2 pi))^2 = -25 pi^2 / 4.
    assert near(ref.eval_terms([term(m=2)], (0, 1, 0), 3.0, 1j), -25 * math.pi ** 2 / 4)
    # z1^(1/2) log(z1 - z2) at z1 = 4, z1 - z2 = e on sheet 1: 2 (1 + 2 pi i).
    value = ref.eval_terms([term(r=0.5, n=1)], (0, 0, 1), 4.0, 4.0 - math.e)
    assert near(value, 2 * (1 + 2j * math.pi), 1e-12)
    # 3 log z1 at z1 = -1 on sheet -1: 3 i (pi - 2 pi).
    assert near(ref.eval_terms([term(3.0, l=1)], (-1, 0, 0), -1.0, 2.0), -3j * math.pi)


def test_p12_off_by_one_is_caught():
    f = [term(t=0.5)]
    good = ref.eval_terms(f, (0, 0, 0), 2.5, 1.0)
    wrong = ref.eval_terms(f, (0, 0, 1), 2.5, 1.0)
    assert ref.close(SQRT_15, good, 1e-10)
    assert not ref.close(SQRT_15, wrong, 1e-10)


def test_large_sheet_index_keeps_its_phase():
    # 2 pi p with p = 10^20 is a whole number of turns of sqrt's half-angle
    # when p is even: the value is +sqrt(1.5) again.
    assert near(ref.eval_terms([term(t=0.5)], (0, 0, 10 ** 20), 2.5, 1.0), SQRT_15)
    assert near(ref.eval_terms([term(t=0.5)], (0, 0, 10 ** 20 + 1), 2.5, 1.0), -SQRT_15)


def test_close_rejects_non_finite():
    assert not ref.close(complex(math.nan, 0.0), 1.0, 1.0)


def test_walk_counts_windings():
    # z1 circles z2 once clockwise on a circle that also encloses 0.
    _, _, shift = geo.walk(2.5, 1.0, [("arc", "z1", -1.0, "other", 0j)])
    assert shift == (-1, 0, -1)
    # z1 circles the origin on a circle that encloses z2: z1 - z2 winds too.
    _, _, shift = geo.walk(-1.8, -1.0, [("arc", "z1", -1.0, "origin", 0j)])
    assert shift == (-1, 0, -1)
    # z2 circles a point away from z1 and 0: nothing winds.
    _, _, shift = geo.walk(2.0, 0.5j, [("arc", "z2", 3.0, "point", 0.5 + 1j)])
    assert shift == (0, 0, 0)


def test_walk_half_turns_from_the_cut():
    # From arg 0, half a turn up stays on the sheet; half a turn down crosses
    # the cut and lowers the index.
    z1, _, shift = geo.walk(2.0, 0.5j, [("arc", "z1", 0.5, "origin", 0j)])
    assert near(z1, -2.0) and shift[0] == 0
    _, _, shift = geo.walk(2.0, 0.5j, [("arc", "z1", -0.5, "origin", 0j)])
    assert shift[0] == -1


def test_walk_segments_across_the_cut():
    # z1 and z1 - z2 move down across the positive real axis: both drop a sheet.
    down = [("segment", "z1", 1.0 - 0.5j)]
    _, _, shift = geo.walk(1.0 + 0.5j, -1.0, down)
    assert shift == (-1, 0, -1)
    # Out and back again leaves every index where it was.
    _, _, shift = geo.walk(1.0 + 0.5j, -1.0, down + [("segment", "z1", 1.0 + 0.5j)])
    assert shift == (0, 0, 0)


def test_regions_follow_their_definitions():
    big, small = 2.0 * cmath.exp(0.3j), 0.5 * cmath.exp(0.3j)
    assert geo.region_window("product", big, small) > 0
    # Reversed needs arg(z1 - z2) - arg z2 near -pi, which arg z2 = 0.3 rules out.
    assert geo.region_window("reversed", small, big) < 0
    assert geo.region_window("reversed", small * cmath.exp(3.7j), big * cmath.exp(3.7j)) > 0
    assert geo.designated("product", (1, 2, 3)) == (1, 2, 1)
    assert geo.designated("reversed", (1, 2, 3)) == (1, 2, 2)
    assert geo.designated("iterate", (1, 2, 3)) == (2, 2, 3)


def test_same_terms_merges_and_matches():
    a = [term(1.0, r=0.5), term(2.0, r=0.5 + 1e-13), term(1e-16, s=1.0)]
    assert ref.same_terms(a, [term(3.0, r=0.5)])
    assert not ref.same_terms(a, [term(3.0, r=0.5, m=1)])


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "pass_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"}
