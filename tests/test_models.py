"""Tests for scenario generators and the independent continuation oracle."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    Arc,
    BranchTriple,
    LogFunction,
    LogMonomial,
    PathSpec,
    QuasiPrimaryData,
    Segment,
    abelian_action,
    check_g1_shift,
    continue_along,
    default_scenarios,
    eval_branch2,
    make_abelian,
    make_random,
    make_random_loop,
    oracle_continue,
    sample_path,
    validate_path,
    winding_profile,
)
from twistlab import models, verify
from twistlab.models import _uniform

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# make_abelian
# ---------------------------------------------------------------------------


def test_make_abelian_basic_structure():
    sc = make_abelian(Fraction(1, 2), 0.75 + 0.1j, Fraction(1, 3))
    assert sc.dim == 1
    assert len(sc.fam.functions[0].terms) == 1
    u = sc.fam.functions[0].terms[0]
    assert (u.r, u.s, u.t) == (0.5 + 0j, 0.75 + 0.1j, complex(1.0 / 3.0))
    act = sc.fam.action
    assert act.phases1 == (Fraction(-1, 3) % 1,)
    assert act.phases2 == (Fraction(-1, 2) % 1,)
    assert act.composition_defect() < 1e-15


def test_make_abelian_float_exponents_stay_exact():
    # Plain floats are exact dyadic rationals, so the exact phase channel
    # still engages.
    sc = make_abelian(0.5, 1.2, 1.0 / 3.0)
    assert sc.fam.action.phases1 == (-Fraction(1.0 / 3.0) % 1,)
    assert sc.fam.action.phases2 == (Fraction(1, 2),)
    assert sc.fam.action.composition_defect() < 1e-15


def test_make_abelian_complex_exponent_falls_back():
    sc = make_abelian(0.5 + 0.1j, 1.2, Fraction(1, 3))
    act = sc.fam.action
    assert act.phases1 is None
    assert act.composition_defect() < 1e-14


def test_make_abelian_rejects_unabsorbable_logs():
    with pytest.raises(ValueError):
        make_abelian(Fraction(1, 2), 0.0, Fraction(1, 3), log_powers=(1, 0, 0))
    with pytest.raises(ValueError):
        make_abelian(Fraction(1, 2), 0.0, Fraction(1, 3), log_powers=(0, 0, 1))


def test_make_abelian_log_z2_allowed():
    sc = make_abelian(Fraction(1, 2), 0.4, Fraction(1, 3), log_powers=(0, 2, 0))
    assert sc.fam.functions[0].terms[0].m == 2


# ---------------------------------------------------------------------------
# abelian_action
# ---------------------------------------------------------------------------


def _diag_bits(leading):
    """The float action written out term by term: g1 = e^{-2 pi i t},
    g2 = e^{-2 pi i r}, g3 = g1 g2, each exponent taken as a complex."""
    g1 = np.diag([cmath.exp(-2j * math.pi * complex(t)) for _, t in leading])
    g2 = np.diag([cmath.exp(-2j * math.pi * complex(r)) for r, _ in leading])
    return g1.tobytes(), g2.tobytes(), (g1 @ g2).tobytes()


def _bits(act):
    return act.g1.tobytes(), act.g2.tobytes(), act.g3.tobytes()


def test_abelian_action_exact_only_when_all_fractions():
    exact = abelian_action([(Fraction(1, 3), Fraction(-5, 4)), (Fraction(2), Fraction(1, 2))])
    assert exact.phases1 == (Fraction(1, 4), Fraction(1, 2))
    assert exact.phases2 == (Fraction(2, 3), Fraction(0))
    mixed = abelian_action([(Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2), 0.25 + 0j)])
    assert mixed.phases1 is None
    assert _bits(mixed) == _diag_bits([(1 / 3, 0.25), (0.5, 0.25)])


def test_make_abelian_complex_t_beside_rational_r_is_bit_exact():
    # A Fraction r enters the float action as complex(float(r), 0.0).
    r, t = Fraction(2, 7), 0.3 - 0.45j
    act = make_abelian(r, 0.5, t).fam.action
    assert act.phases1 is None
    g1 = np.array([[cmath.exp(-2j * math.pi * t)]])
    g2 = np.array([[cmath.exp(-2j * math.pi * complex(float(r), 0.0))]])
    assert _bits(act) == (g1.tobytes(), g2.tobytes(), (g1 @ g2).tobytes())


def test_scenario_file_without_side_channel_gets_float_action():
    from twistlab.cli import parse_scenario
    doc = {"version": "twistlab/1", "labels": 2,
           "terms": [[{"coeff": 1, "r": [0.3, 0.1], "t": 0.7},
                      {"coeff": 2, "r": [1.3, 0.1], "t": 1.7}],
                     [{"coeff": 1, "r": 0.25, "t": [0.5, -0.2]}]]}
    act = parse_scenario(doc).fam.action
    assert act.phases1 is None
    assert _bits(act) == _diag_bits([(0.3 + 0.1j, 0.7), (0.25, 0.5 - 0.2j)])
    # With both side channels on every label the phases are exact again.
    for row in doc["terms"]:
        row[0].update(r=0.5, t=0.25, rExact={"num": 1, "den": 2},
                      tExact={"num": 1, "den": 4})
    assert parse_scenario(doc).fam.action.phases1 == (Fraction(3, 4),) * 2


# ---------------------------------------------------------------------------
# make_random
# ---------------------------------------------------------------------------


def test_make_random_is_deterministic():
    a = make_random(42)
    b = make_random(42)
    assert a.dim == b.dim
    assert a.bt == b.bt
    assert a.qp == b.qp
    for fa, fb in zip(a.fam.functions, b.fam.functions):
        assert fa.terms == fb.terms
    assert a.fam.action.phases1 == b.fam.action.phases1
    c = make_random(43)
    assert (a.bt, a.qp) != (c.bt, c.qp) or a.fam.functions != c.fam.functions


def test_make_random_respects_bounds():
    assert (models._IMAG_SCALE, models._BRANCH_RANGE) == (0.25, 1)
    for seed in range(1, 16):
        sc = make_random(seed)
        assert 1 <= sc.dim <= models._DIM_MAX
        assert all(abs(p) <= models._BRANCH_RANGE for p in sc.bt)
        assert float(sc.qp.wt_u).is_integer()
        assert abs(complex(sc.qp.wt_u)) <= models._WT_RANGE


def test_make_random_terms_share_congruence_class():
    # Within a label, r and t differ from the lead term by integers only,
    # which is what makes one diagonal phase serve every term.
    for seed in (3, 7, 19):
        sc = make_random(seed)
        for fn in sc.fam.functions:
            u0 = fn.terms[0]
            for u in fn.terms:
                for a, b in ((u.r, u0.r), (u.t, u0.t)):
                    d = complex(a) - complex(b)
                    assert abs(d.imag) < 1e-12
                    assert abs(d.real - round(d.real)) < 1e-12


# ---------------------------------------------------------------------------
# independent continuation oracle
# ---------------------------------------------------------------------------


def test_oracle_frozen_loop_value():
    f = LogFunction([LogMonomial(1.0, t=1.0 / 3.0)])
    loop = PathSpec(2.5, 1.0, [Arc("z1", turns=1.0, about="other")])
    got = oracle_continue(f, BranchTriple(0, 0, 0), loop)
    want = cmath.exp((math.log(1.5) + TWO_PI * 1j) / 3.0)
    assert abs(got - want) < 1e-9


def test_oracle_open_path_matches_direct_eval():
    f = LogFunction([LogMonomial(1.0, t=1.0 / 3.0)])
    path = PathSpec(2.5, 1.0, [Segment("z1", 2.0)])
    got = oracle_continue(f, BranchTriple(0, 0, 0), path)
    assert abs(got - eval_branch2(f, BranchTriple(0, 0, 0), 2.0, 1.0)) < 1e-9


def test_oracle_agrees_with_formula_route():
    f = LogFunction([
        LogMonomial(1.0, r=0.5, t=1.0 / 3.0, n=1),
        LogMonomial(0.25j, s=-0.5, m=1),
    ])
    bt = BranchTriple(1, 0, -1)
    for seed in (0, 4, 9):
        path = make_random_loop(seed)
        res = continue_along(f, bt, path)
        ora = oracle_continue(f, bt, path)
        gap = abs(res.end_value - ora) / max(1.0, abs(ora), abs(res.end_value))
        assert gap < 1e-9


def test_oracle_rejects_invalid_path():
    f = LogFunction([LogMonomial(1.0, t=0.5)])
    with pytest.raises(ValueError):
        oracle_continue(f, BranchTriple(0, 0, 0),
                        PathSpec(2.5, 1.0, [Segment("z1", -0.5)]))


# ---------------------------------------------------------------------------
# random loops
# ---------------------------------------------------------------------------


def test_make_random_loop_valid_and_closed():
    for seed in range(21):
        path = make_random_loop(seed)
        assert validate_path(path) >= 1e-9
        z1s, z2s = sample_path(path)
        assert abs(z1s[-1] - z1s[0]) < 1e-9
        assert abs(z2s[-1] - z2s[0]) < 1e-9


def test_make_random_loop_windings_resolve():
    for seed in range(8):
        w = winding_profile(make_random_loop(seed))
        assert len(w) == 3
        assert all(isinstance(x, int) for x in w)


@pytest.mark.parametrize("seed", [190_000_023, 908_000_017])
def test_make_random_loop_redraws_a_loop_the_oracle_cannot_sample(seed):
    # The first draws of these seeds pass 4.1e-5 and 1.3e-4 from a singular
    # point: validate_path accepts them, but the oracle's first refinement
    # would need 2,540,129 and 1,480,657 samples, over SAMPLE_BUDGET.
    path = make_random_loop(seed)
    res = continue_along(LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0)]),
                         BranchTriple(0, 0, 0), path)
    assert res.certificate < 1e-9


def test_random_loop_end_triple_matches_windings():
    f = LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0)])
    bt = BranchTriple(0, 0, 0)
    for seed in (2, 5, 11):
        path = make_random_loop(seed)
        res = continue_along(f, bt, path)
        assert res.crossings == winding_profile(path)
        assert res.end_triple == BranchTriple(*(p + c for p, c in zip(bt, res.crossings)))


# ---------------------------------------------------------------------------
# shipped scenario set
# ---------------------------------------------------------------------------


def test_default_scenarios_structure():
    scs = default_scenarios()
    assert len(scs) == 23
    names = [s.name for s in scs]
    assert len(set(names)) == len(names)
    for wanted in ("half-third", "log-once", "log-twice", "integer-r",
                   "deep-branch", "untwisted-probe"):
        assert wanted in names
    controls = [s for s in scs if s.control]
    assert sorted(s.control for s in controls) == [
        "composition", "duality-branch", "shift"]
    for s in scs:
        assert s.dim == len(s.fam.functions)
        assert isinstance(s.bt, BranchTriple)
        assert isinstance(s.qp, QuasiPrimaryData)


def test_control_defects_are_detectable():
    scs = {s.control: s for s in default_scenarios() if s.control}
    points = [(1.3 * cmath.exp(0.7j), 0.9 * cmath.exp(2.1j)),
              (2.0 * cmath.exp(3.9j), 0.6 * cmath.exp(1.1j))]
    assert check_g1_shift(scs["shift"].fam, scs["shift"].bt, points) > 1e-3
    assert scs["composition"].fam.action.composition_defect() > 0.1
    # The duality control carries unbroken data; only its marker differs.
    assert scs["duality-branch"].fam.action.composition_defect() < 1e-12
    assert scs["duality-branch"].control == "duality-branch"


# ---------------------------------------------------------------------------
# uniform draws
# ---------------------------------------------------------------------------

# Every (lo, hi) that verify and models draw from.
UNIFORM_RANGES = [
    (0.3, 2.2), (0.8, 2.0), (0.2, 2.5), (0.4, 2.2), (0.4, 2.0), (0.05, 0.6),
    (verify._RATIO_LO, verify._RATIO_HI), (2.95, 3.45), (1.0, 2.0), (0.52, 0.62),
    (0.15, 0.35), (0.05, math.pi - 0.05), (math.pi + 0.05, TWO_PI - 0.05), (0.4, 1.8),
    (-2.0, 2.0), (-models._IMAG_SCALE, models._IMAG_SCALE), (0.4, 1.5), (0.0, TWO_PI),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, [3, 5, 23]])
def test_uniform_matches_generator_uniform_bit_for_bit(seed):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for lo, hi in UNIFORM_RANGES:
        got = [_uniform(ours, lo, hi) for _ in range(1000)]
        want = [float(numpys.uniform(lo, hi)) for _ in range(1000)]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert all(type(x) is float for x in got)
    got = [ours.random() for _ in range(1000)]
    want = [float(numpys.uniform()) for _ in range(1000)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # Both consumed the same stream.
    assert ours.integers(0, 2 ** 62) == numpys.integers(0, 2 ** 62)
