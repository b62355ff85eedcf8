"""Tests for two-variable log functions: evaluation, series, continuation."""

import cmath
import copy
import dataclasses
import hashlib
import math
import pickle
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistlab import (
    Arc,
    BranchTriple,
    ContinuationResult,
    LogFunction,
    LogMonomial,
    PathSpec,
    REGIONS,
    RegionExpansion,
    Segment,
    continue_along,
    continue_family,
    default_scenarios,
    designated_triple,
    eval_branch2,
    eval_parts,
    expand_family,
    expand_region,
    in_region,
    lp,
    make_random_loop,
    monodromy_loops,
    normalize,
    omega_family,
    point_logs,
    sample_path,
    term_distance,
    validate_path,
    winding_profile,
)

from twistlab import logfun, paths
from twistlab.cli import load_scenario
from twistlab.transforms import contragredient_family

TWO_PI = 2.0 * math.pi
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def rel_gap(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# normalization and term distance
# ---------------------------------------------------------------------------


def test_normalize_merges_and_drops():
    f = LogFunction([
        LogMonomial(1.0, r=0.5, t=1.0),
        LogMonomial(2.0, r=0.5, t=1.0),
        LogMonomial(1e-20, s=3.0),
        LogMonomial(0.5, r=0.5, t=1.0, l=1),
    ])
    g = normalize(f)
    assert len(g.terms) == 2
    merged = {(u.r, u.t, u.l): u.coeff for u in g.terms}
    assert merged[(0.5, 1.0, 0)] == 3.0
    assert merged[(0.5, 1.0, 1)] == 0.5


def test_normalize_cancels_to_empty():
    f = LogFunction([
        LogMonomial(1.5j, r=2.0, m=1),
        LogMonomial(-1.5j, r=2.0, m=1),
    ])
    assert normalize(f).terms == ()


def test_normalize_idempotent():
    f = LogFunction([
        LogMonomial(0.3 - 0.7j, r=1.5, s=-0.5, n=2),
        LogMonomial(2.0, t=1.0 / 3.0),
        LogMonomial(-0.3 + 0.7j, r=1.5, s=-0.5, n=2),
    ])
    g = normalize(f)
    assert normalize(g).terms == g.terms


def test_monomial_rejects_negative_log_powers():
    with pytest.raises(ValueError):
        LogMonomial(1.0, l=-1)
    with pytest.raises(ValueError):
        LogMonomial(1.0, n=-2)


def test_monomial_rejects_non_integer_log_powers():
    for powers in ({"l": 1.5}, {"m": 2.0}, {"n": 0.5 + 0j}):
        with pytest.raises(ValueError):
            LogMonomial(1.0, **powers)


def test_monomial_rejects_non_finite_numbers():
    nan, inf = math.nan, math.inf
    for kwargs in ({"coeff": complex(nan, 0.0)}, {"coeff": 1.0, "r": inf},
                   {"coeff": 1.0, "s": complex(0.5, nan)}, {"coeff": 1.0, "t": -inf}):
        with pytest.raises(ValueError, match="finite"):
            LogMonomial(**kwargs)


def test_monomial_is_an_immutable_tuple():
    u = LogMonomial(1.0 - 0.5j, r=0.5, s=0.25 + 0.1j, t=complex(-0.0, -0.0), l=1, n=2)
    assert len(u) == 7 and u == (1.0 - 0.5j, 0.5, 0.25 + 0.1j, 0j, 1, 0, 2)
    with pytest.raises(AttributeError):
        u.l = 3
    v = LogMonomial(1.0 - 0.5j, 0.5, 0.25 + 0.1j, -0.0, 1, 0, 2)
    assert v == u and hash(v) == hash(u)
    for w in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
        assert type(w) is LogMonomial and w == u
    key = u.key()
    assert key == (0.5, 0.0, 0.25, 0.1, 0.0, 0.0, 1, 0, 2)
    assert all(math.copysign(1.0, x) == 1.0 for x in key[4:6])


@pytest.mark.parametrize("bad", [{"l": 1.5}, {"l": -1}, {"l": 2 ** 63},
                                 {"coeff": complex(math.nan, 0.0)}],
                         ids=["fractional-power", "negative-power", "power-past-int64",
                              "nan-coeff"])
def test_every_monomial_construction_route_validates(bad):
    good = LogMonomial(1.0, r=0.5, l=1, m=2 ** 63 - 1)  # the largest log power is valid
    fields = dict(good._asdict(), **bad)
    routes = {
        "positional": lambda: LogMonomial(*fields.values()),
        "keyword": lambda: LogMonomial(**fields),
        "_make": lambda: LogMonomial._make(fields.values()),
        "_replace": lambda: good._replace(**bad),
    }
    for route, make in routes.items():
        with pytest.raises(ValueError):
            make()
            pytest.fail(f"{route} construction accepted {bad}")


def test_term_distance_detects_changes():
    f = LogFunction([LogMonomial(1.0, r=0.5), LogMonomial(2.0j, t=1.5, n=1)])
    assert term_distance(f, f) == 0.0
    g = LogFunction([LogMonomial(1.0, r=0.5), LogMonomial(2.5j, t=1.5, n=1)])
    assert abs(term_distance(f, g) - 0.5) < 1e-15
    h = LogFunction([LogMonomial(1.0, r=0.5)])
    assert abs(term_distance(f, h) - 2.0) < 1e-15


def test_term_distance_tolerates_exponent_rounding():
    # One float rounding step in an exponent must not decouple the terms.
    r = 0.1 + 0.2  # 0.30000000000000004
    f = LogFunction([LogMonomial(1.0, r=r)])
    g = LogFunction([LogMonomial(1.0, r=0.3)])
    assert term_distance(f, g) < 1e-15
    # A genuinely different exponent still counts as a missing pair.
    k = LogFunction([LogMonomial(1.0, r=0.31)])
    assert term_distance(f, k) == 1.0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_frozen_square_root():
    f = LogFunction([LogMonomial(1.0, t=0.5)])
    v0 = eval_branch2(f, BranchTriple(0, 0, 0), 2.5, 1.0)
    assert abs(v0 - math.sqrt(1.5)) < 1e-15
    # Raising the difference branch by one flips the sign of a square root.
    v1 = eval_branch2(f, BranchTriple(0, 0, 1), 2.5, 1.0)
    assert abs(v1 + math.sqrt(1.5)) < 1e-14


def test_eval_frozen_log_term():
    f = LogFunction([LogMonomial(1.0, r=1.0 / 3.0, m=1)])
    got = eval_branch2(f, BranchTriple(1, 2, 0), 2.0, 3.0)
    want = cmath.exp((math.log(2.0) + TWO_PI * 1j) / 3.0) * (math.log(3.0) + 2 * TWO_PI * 1j)
    assert abs(got - want) < 1e-13


def test_eval_integer_exponents_branch_free():
    # Integer powers are single valued, so the branch indices are inert and
    # the result is exact on the real axis.
    f = LogFunction([LogMonomial(1.0, r=2.0)])
    assert eval_branch2(f, BranchTriple(5, -3, 2), 2.0, 1.0) == 4.0 + 0.0j
    g = LogFunction([LogMonomial(1.0, r=3.0, t=-2.0)])
    assert eval_branch2(g, BranchTriple(0, 0, 7), 2.0, 1.5) == 32.0 + 0.0j


def test_eval_rejects_singular_points():
    f = LogFunction([LogMonomial(1.0, t=0.5)])
    with pytest.raises(ValueError):
        eval_branch2(f, BranchTriple(0, 0, 0), 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_branch2(f, BranchTriple(0, 0, 0), 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_branch2(f, BranchTriple(0, 0, 0), 1.0, 0.0)


def test_eval_branch2_rejects_non_finite_points():
    f = LogFunction([LogMonomial(1.0, t=0.5)])
    for z1, z2 in ((complex(math.nan, 0.0), 1.0), (2.0, complex(0.0, math.inf))):
        with pytest.raises(ValueError, match="finite"):
            eval_branch2(f, BranchTriple(0, 0, 0), z1, z2)


def test_eval_respects_sum_and_product():
    f = LogFunction([
        LogMonomial(1.0, r=0.5, n=1),
        LogMonomial(0.25j, s=-1.5, t=1.0 / 3.0),
    ])
    g = LogFunction([
        LogMonomial(2.0, r=-0.5, l=1),
        LogMonomial(1.0 - 1.0j, t=0.75, m=2),
    ])
    bt = BranchTriple(1, -1, 0)
    z1, z2 = 2.0 * cmath.exp(1.0j), cmath.exp(2.0j)
    vf = eval_branch2(f, bt, z1, z2)
    vg = eval_branch2(g, bt, z1, z2)
    assert rel_gap(eval_branch2(f + g, bt, z1, z2), vf + vg) < 1e-13
    assert rel_gap(eval_branch2(3.0j * f, bt, z1, z2), 3.0j * vf) < 1e-13


# Two integer and four complex exponents, so both kinds of row entry occur.
PREPARED = LogFunction([
    LogMonomial(1.0, r=0.5, s=2.0, n=1),
    LogMonomial(0.25j, r=1.0, s=-1.5, t=1.0 / 3.0),
])
PREPARED_POINTS = [(2.0 * cmath.exp(1.0j), cmath.exp(2.0j)), (0.5 + 0.3j, -1.2 + 0.1j),
                   (3.0 + 0.0j, 1.0 + 0.0j)]


def test_eval_branch2_classifies_exponents_once(monkeypatch):
    calls = []
    exponent = logfun._exponent
    monkeypatch.setattr(logfun, "_exponent", lambda c: calls.append(c) or exponent(c))
    f = LogFunction(PREPARED.terms)
    bt = BranchTriple(1, -1, 0)
    first = [eval_branch2(f, bt, z1, z2) for z1, z2 in PREPARED_POINTS]
    assert len(calls) == 3 * len(f.terms)
    again = [eval_branch2(f, bt, z1, z2) for z1, z2 in PREPARED_POINTS]
    assert len(calls) == 3 * len(f.terms)
    assert [_bits(v) for v in again] == [_bits(v) for v in first]


def test_derived_functions_classify_their_own_terms():
    f = LogFunction(PREPARED.terms)
    g = LogFunction([LogMonomial(2.0, r=-0.5, l=1), LogMonomial(1.0 - 1.0j, s=3.0, t=0.75, m=2)])
    bt = BranchTriple(1, -1, 0)
    for h in (f, g):
        for z1, z2 in PREPARED_POINTS:
            eval_branch2(h, bt, z1, z2)
    group = next(iter(expand_region(f, "product", bt, 5).groups.values()))
    for h in (2 * f, f + g, normalize(f + g), group):
        assert "rows" not in vars(h)
        fresh = LogFunction(h.terms)
        for z1, z2 in PREPARED_POINTS:
            assert _bits(eval_branch2(h, bt, z1, z2)) == _bits(eval_branch2(fresh, bt, z1, z2))
        assert h.rows == fresh.rows and len(h.rows) == len(h.terms)


def test_evaluation_keeps_equality_hash_and_pickle():
    f = LogFunction(PREPARED.terms)
    digest, pickled = hash(f), pickle.dumps(f)
    eval_branch2(f, BranchTriple(0, 0, 0), *PREPARED_POINTS[0])
    assert "rows" in vars(f)
    assert f == LogFunction(f.terms) and hash(f) == digest
    assert pickle.dumps(f) == pickled
    for g in (pickle.loads(pickled), copy.copy(f), copy.deepcopy(f)):
        assert g == f and hash(g) == digest and "rows" not in vars(g)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_designated_triples():
    bt = BranchTriple(3, -2, 7)
    assert designated_triple("product", bt) == BranchTriple(3, -2, 3)
    assert designated_triple("reversed", bt) == BranchTriple(3, -2, -2)
    assert designated_triple("iterate", bt) == BranchTriple(-2, -2, 7)
    assert REGIONS == ("product", "reversed", "iterate")


@pytest.mark.parametrize("call", [
    lambda: designated_triple("x", BranchTriple(0, 0, 0)),
    lambda: in_region("x", 2.5, 1.0),
    lambda: in_region("x", 0.0, 1.0),
    lambda: expand_region(MIXED, "x", BranchTriple(0, 0, 0), 5),
    lambda: expand_family([MIXED], "x", BranchTriple(0, 0, 0), 5),
    lambda: logfun._expand_regions([MIXED], ["product", "x"], BranchTriple(0, 0, 0), 5),
], ids=["designated_triple", "in_region", "in_region-singular", "expand_region",
        "expand_family", "_expand_regions"])
def test_unknown_region_is_refused(call):
    with pytest.raises(ValueError, match=r"^unknown region 'x'$"):
        call()


def test_in_region_frozen_points():
    assert in_region("product", 2.5, 1.0)
    assert not in_region("product", 1.0, 2.5)
    # The reversed window sits a half turn below the product one, so it
    # needs the difference argument well under the z2 argument.
    z2 = 1.7 * cmath.exp(3.3j)
    assert in_region("reversed", 0.5 * cmath.exp(0.2j), z2)
    assert not in_region("reversed", 0.5, 2.0)
    assert in_region("iterate", 2.0 + 0.5 * cmath.exp(0.4j), 2.0)
    assert not in_region("iterate", 4.5, 2.0)


def test_in_region_margin_strictifies():
    assert in_region("product", 2.5, 2.4)
    assert not in_region("product", 2.5, 2.4, margin=0.05)


def test_in_region_singular_is_false():
    assert not in_region("product", 2.5, 2.5)
    assert not in_region("iterate", 0.0, 1.0)


# ---------------------------------------------------------------------------
# region expansions
# ---------------------------------------------------------------------------


MIXED = LogFunction([
    LogMonomial(1.0, r=0.5, s=0.3, t=1.0 / 3.0, n=1),
    LogMonomial(0.5j, r=-0.5, t=1.5),
])

EXP_POINTS = {
    "product": (2.5 + 0.0j, 0.8 + 0.0j),
    "reversed": (0.5 * cmath.exp(0.2j), 1.7 * cmath.exp(3.3j)),
    "iterate": (2.0 + 0.5 * cmath.exp(0.4j), 2.0 + 0.0j),
}


@pytest.mark.parametrize("region", REGIONS)
def test_expand_region_converges(region):
    bt = BranchTriple(1, 0, -1)
    z1, z2 = EXP_POINTS[region]
    assert in_region(region, z1, z2, margin=0.05)
    target = eval_branch2(MIXED, designated_triple(region, bt), z1, z2)
    coarse = rel_gap(expand_region(MIXED, region, bt, 2).eval(z1, z2), target)
    fine = rel_gap(expand_region(MIXED, region, bt, 20).eval(z1, z2), target)
    assert fine < coarse / 100.0
    best = rel_gap(expand_region(MIXED, region, bt, 60).eval(z1, z2), target)
    assert best < 1e-9


@pytest.mark.parametrize("region", REGIONS)
def test_expand_region_metadata(region):
    bt = BranchTriple(2, -1, 0)
    exp = expand_region(MIXED, region, bt, 12)
    assert exp.region == region
    assert exp.bt == bt
    assert exp.designated == designated_triple(region, bt)
    keys = exp.keys
    assert keys == sorted(keys, key=lambda c: (c.real, c.imag))
    assert all(exp.groups[k].terms for k in keys)


def test_expand_region_validation():
    with pytest.raises(ValueError):
        expand_region(MIXED, "product", BranchTriple(0, 0, 0), -1)


def test_expand_region_polynomial_is_exact():
    # A plain polynomial has a finite expansion in every region.
    f = LogFunction([LogMonomial(1.0, r=2.0, t=1.0)])
    bt = BranchTriple(0, 0, 0)
    for region, (z1, z2) in EXP_POINTS.items():
        got = expand_region(f, region, bt, 6).eval(z1, z2)
        want = z1 ** 2 * (z1 - z2)
        assert rel_gap(got, want) < 1e-13


@pytest.mark.parametrize("region", REGIONS)
def test_region_series_refuses_points_outside_modulus_ordering(region):
    exp = expand_region(MIXED, region, BranchTriple(0, 0, 0), 5)
    z1, z2 = EXP_POINTS[region]
    exp.eval(z1, z2)
    # Make the inner quantity the larger one in modulus.
    outside = {"product": (z2, z1), "reversed": (z2, z1),
               "iterate": (z2 + 5.0 * (z1 - z2), z2)}[region]
    ordering = {"product": "|z2| < |z1|", "reversed": "|z1| < |z2|",
                "iterate": "|z1 - z2| < |z2|"}[region]
    message = (f"z1 = {outside[0]}, z2 = {outside[1]} is outside the {region} region: "
               f"its series needs {ordering}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exp.eval(*outside)


@pytest.mark.parametrize("c, terminates", [
    (Fraction(1, 2), False), (Fraction(-1, 3), False), (Fraction(2), True)])
def test_binom_coeffs_match_exact_products(c, terminates):
    order = 30
    for sign in (1, -1):
        got = logfun._binom_coeffs(complex(c), order, float(sign))
        want, cur = [], Fraction(1)
        for k in range(order + 1):
            want.append(cur)
            cur = cur * (c - k) / (k + 1) * sign
        for g, w in zip(got, want):
            assert abs(g - float(w)) <= 1e-15 * max(1.0, abs(float(w)))
        if terminates:
            assert not got[3:].any()


def test_binom_coeffs_rows_match_scalar_calls():
    cs = [0.5, -1.0 / 3.0, 2.0, -0.0, complex(3.0, -0.0), 0.25 + 0.1j, -1.5 - 0.3j, 1e20]
    with np.errstate(all="ignore"):
        for order in (0, 1, 30, 200):
            k = np.arange(1, order + 1)
            for sign in (1.0, -1.0):
                got = logfun._binom_coeffs(np.array(cs, dtype=complex), order, sign)
                assert got.shape == (len(cs), order + 1)
                for row, c in zip(got, cs):
                    assert row.tobytes() == logfun._binom_coeffs(c, order, sign).tobytes()
                    # The one-row cumulative product the table replaced.
                    want = np.ones(order + 1, dtype=complex)
                    want[1:] = np.cumprod((complex(c) - (k - 1)) / k * sign)
                    assert row.tobytes() == want.tobytes()


def test_unit_log_row_blocks_keep_the_convolution_bits():
    # A j = 0 block skips convolving its binomial row with the unit row;
    # with coefficient -1 - 0j the zero signs of the product show.
    order = 6
    binom = logfun._binom_coeffs(-0.5, order, -1.0)
    unit = np.zeros(order + 1, dtype=complex)
    unit[0] = 1.0
    want = (complex(-1.0, -0.0) * 1) * np.convolve(binom, unit)[:order + 1]
    f = LogFunction([LogMonomial(complex(-1.0, -0.0), r=0.5, t=-0.5)])
    coeffs = expand_region(f, "product", BranchTriple(0, 0, 0), order).coeffs
    assert [_bits(a) for a in coeffs.tolist()] == [_bits(w) for w in want.tolist()]


def _naive_poly_mul(a, b, order):
    out = [0j] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return out


def test_poly_powers_match_repeated_multiplication():
    order, max_pow = 12, 4
    base = logfun._log1_series(order, -1.0)
    got = logfun._poly_powers(base, max_pow, order)
    assert got.shape == (max_pow + 1, order + 1)
    want = [1.0 + 0j] + [0j] * order
    for p in range(max_pow + 1):
        np.testing.assert_allclose(got[p], want, rtol=1e-14, atol=1e-16)
        want = _naive_poly_mul(want, list(base), order)


def _reference_expand(f, region, order):
    """The loop construction the numpy one replaced: every monomial put in
    its group, then each group normalized.  Also returns, per exponent
    signature, the sum of the moduli of every product that went into its
    coefficient, which bounds the rounding error of any summation order."""
    def binom(c, sign):
        out, cur = [1.0 + 0j], 1.0 + 0j
        for k in range(1, order + 1):
            cur = cur * (c - (k - 1)) / k * sign
            out.append(cur)
        return out

    def log1(sign):
        return [0j] + [complex(sign ** k * (-1.0) ** (k + 1) / k) for k in range(1, order + 1)]

    def powers(base, n):
        out = [[1.0 + 0j] + [0j] * order]
        for _ in range(n):
            out.append(_naive_poly_mul(out[-1], base, order))
        return out

    groups, sizes = {}, {}

    def put(key, scale, b, logs, absb, abslogs, *exps):
        ser = _naive_poly_mul(b, logs, order)
        size = _naive_poly_mul(absb, abslogs, order)
        for k in range(order + 1):
            mono = LogMonomial(scale * ser[k], *(e(k) if callable(e) else e for e in exps))
            groups.setdefault(key(k), []).append(mono)
            sizes[mono.key()] = sizes.get(mono.key(), 0.0) + abs(scale) * size[k].real

    minus_pi_i = complex(0.0, -math.pi)
    for u in f.terms:
        a, r, s, t, l, m, n = (complex(u.coeff), complex(u.r), complex(u.s),
                               complex(u.t), u.l, u.m, u.n)
        c, sign, p = {"product": (t, -1.0, n), "reversed": (t, -1.0, n),
                      "iterate": (r, 1.0, l)}[region]
        b, logs = binom(c, sign), powers(log1(sign), p)
        absb = [abs(x) + 0j for x in b]
        abslogs = powers([abs(x) + 0j for x in log1(sign)], p)
        for j in range(p + 1):
            if region == "product":
                put(lambda k: s + k, a * math.comb(n, j), b, logs[j], absb, abslogs[j],
                    lambda k: r + t - k, lambda k: s + k, 0.0, l + n - j, m, 0)
            elif region == "reversed":
                for i in range(n - j + 1):
                    const = (math.comb(n, j) * math.comb(n - j, i) * minus_pi_i ** (n - j - i)
                             * cmath.exp(t * minus_pi_i))
                    put(lambda k: r + k, a * const, b, logs[j], absb, abslogs[j],
                        lambda k: r + k, lambda k: s + t - k, 0.0, l, m + i, 0)
            else:
                put(lambda k: t + k, a * math.comb(l, j), b, logs[j], absb, abslogs[j],
                    0.0, lambda k: r + s - k, lambda k: t + k, 0, m + l - j, n)
    out = {}
    for key, terms in groups.items():
        g = normalize(LogFunction(terms))
        if g.terms:
            out[complex(key.real + 0.0, key.imag + 0.0)] = g
    return out, sizes


# The first and last terms merge.  The two plain terms share groups with
# the second term in every region, in an order that sorting by log powers
# first would reverse.
LOG_HEAVY = LogFunction([
    LogMonomial(1.0 - 0.5j, r=0.5 + 0.1j, s=-0.25, t=2.0, l=1, m=0, n=2),
    LogMonomial(0.75, r=-1.0, s=0.5, t=1.0 / 3.0, l=2, m=1, n=1),
    LogMonomial(0.3, r=1.25, s=0.5, t=0.5),
    LogMonomial(0.2j, r=-1.0, s=2.0, t=1.0 / 3.0),
    LogMonomial(-0.5j, r=0.5 + 0.1j, s=-0.25, t=2.0, l=1, m=0, n=2),
])


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("f", [MIXED, LOG_HEAVY], ids=["mixed", "log-heavy"])
def test_expand_region_matches_loop_construction(f, region):
    order = 25
    got = expand_region(f, region, BranchTriple(0, 0, 0), order).groups
    want, sizes = _reference_expand(f, region, order)
    assert list(sorted(got, key=lambda c: (c.real, c.imag))) == \
        list(sorted(want, key=lambda c: (c.real, c.imag)))
    for key, g in want.items():
        assert [u.key() for u in got[key].terms] == [u.key() for u in g.terms]
        for u, v in zip(got[key].terms, g.terms):
            # Either summation order rounds by at most a few ulps per
            # product summed, relative to the sum of their moduli.
            assert abs(u.coeff - v.coeff) <= 4 * (order + 1) * 2.0 ** -53 * sizes[v.key()]


# Integer exponents take the exact z ** k power.
INTEGER_EXPONENTS = LogFunction([
    LogMonomial(0.5 - 1.0j, r=2.0, s=-1.0, t=1.0, m=1),
    LogMonomial(2.0, r=-1.0, t=3.0, n=1),
    LogMonomial(0.25j, s=2.0, l=2),
])

# Every log power at once: the reversed region splits log(z1 - z2) into
# log z2, -pi*i and a series, so its blocks multiply.
ALL_LOG_POWERS = LogFunction([
    LogMonomial(0.8 - 0.3j, r=0.25 + 0.05j, s=-0.5, t=0.75, l=1, m=2, n=1),
    LogMonomial(0.4, r=-0.5, s=1.25, t=1.0 / 3.0, l=2, m=1, n=2),
])


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("f", [MIXED, LOG_HEAVY, INTEGER_EXPONENTS, ALL_LOG_POWERS],
                         ids=["mixed", "log-heavy", "integer-exponents", "all-log-powers"])
def test_region_series_eval_matches_groupwise_eval_branch2(f, region):
    # The group-by-group evaluation RegionExpansion.eval used to run, by
    # eval_branch2 on each group, agrees with the kernel's sum up to rounding.
    for order in (30, 60, 200):
        exp = expand_region(f, region, BranchTriple(1, -1, 0), order)
        rows = _series_rows(exp)
        rng = np.random.default_rng(REGIONS.index(region))
        checked = 0
        while checked < 8:
            z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
            if not in_region(region, z1, z2, margin=0.05):
                continue
            want = sum(eval_branch2(exp.groups[k], exp.designated, z1, z2)
                       for k in exp.keys)
            bound = _rounding_bound(rows, logfun._point_logs(exp.designated, z1, z2))
            [value] = exp.eval_many([(z1, z2)])
            assert abs(value - want) <= bound
            assert abs(exp.eval(z1, z2) - want) <= bound
            checked += 1


def test_region_series_builds_no_monomial_until_groups_is_read(monkeypatch):
    made = []
    new = LogMonomial.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(LogMonomial, "__new__", counting_new)
    exp = expand_region(LOG_HEAVY, "product", BranchTriple(0, 0, 0), 60)
    rng = np.random.default_rng(3)
    points = 0
    while points < 32:
        z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
        if in_region("product", z1, z2, margin=0.05):
            exp.eval(z1, z2)
            points += 1
    assert len(exp.keys) > 1
    assert made == []
    groups = exp.groups
    assert len(made) == exp.coeffs.size == sum(len(g.terms) for g in groups.values())
    assert exp.groups is groups
    assert len(made) == exp.coeffs.size  # the second read built nothing
    assert list(groups) != exp.keys  # met in normalize's order, not key order
    assert sorted(groups, key=lambda c: (c.real, c.imag)) == exp.keys


@pytest.mark.parametrize("f, region", [
    (LogFunction([LogMonomial(1.0, r=1e308, t=1e308)]), "product"),  # r + t overflows
    (LogFunction([LogMonomial(1e308, r=0.5, t=-60.5)]), "product"),  # coefficients do
    (LogFunction([LogMonomial(1e308, r=0.5, t=-60.5, n=2)]), "reversed"),
])
def test_expand_region_refuses_non_finite_series_terms(f, region):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
        expand_region(f, region, BranchTriple(0, 0, 0), 200)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _outcome(fn):
    try:
        return _bits(fn())
    except Exception as exc:  # the exception's type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("c", [-0.0, complex(3.0, -0.0), 1e20], ids=["-0.0", "3-0j", "1e20"])
@pytest.mark.parametrize("z", [1.5 - 0.5j, 0.3 + 0.4j, -2.0 + 0.0j])
def test_integer_exponent_classification_edges(c, z):
    k = logfun._exponent(c)
    assert type(k) is int and k == int(complex(c).real)
    want = _outcome(lambda: complex(z) ** int(complex(c).real))
    assert _outcome(lambda: z ** k) == want
    # Through eval_branch2, whose sum starts at 0j, and which names the
    # point where z ** k overflows.
    want = _outcome(lambda: complex(z) ** int(complex(c).real) + 0j)
    if want[0] is OverflowError:
        want = (OverflowError, f"function value at z1 = {complex(z)}, z2 = (7+0j) is not finite")
    f = LogFunction([LogMonomial(1.0, r=c)])
    assert _outcome(lambda: eval_branch2(f, BranchTriple(0, 0, 0), z, 7.0) + 0j) == want
    # Through expand_region: the exponent rising with k (s, r or t) is
    # c + k, so an order-0 series carries c + 0, which classifies as c does.
    for region, slot in (("product", "s"), ("reversed", "r"), ("iterate", "t")):
        g = LogFunction([LogMonomial(1.0, **{slot: c})])
        [exps] = expand_region(g, region, BranchTriple(0, 0, 0), 0).exps.tolist()
        got = logfun._exponent(exps["rst".index(slot)])
        assert type(got) is int and got == k


def test_expand_region_keeps_huge_log_powers_apart():
    # 2**53 and 2**53 + 1 are one float, but two int64s.
    powers = (2 ** 53, 2 ** 53 + 1)
    f = LogFunction([LogMonomial(1.0, r=0.5, t=0.5, l=l) for l in powers])
    exp = expand_region(f, "product", BranchTriple(0, 0, 0), 2)
    assert exp.lmn.dtype == np.int64
    assert sorted(set(exp.lmn[:, 0].tolist())) == list(powers)
    assert exp.coeffs.size == 2 * 3  # no terms merged: one per power and k
    # Nor do exponents one ulp apart merge beside the largest log power.
    near = np.nextafter(0.5, 1.0)
    f = LogFunction([LogMonomial(1.0, s=s, l=2 ** 63 - 1) for s in (0.5, near)])
    exps = expand_region(f, "product", BranchTriple(0, 0, 0), 0).exps
    assert exps[:, 1].tolist() == [0.5, near]


@pytest.mark.parametrize("region, powers", [("product", {"l": 2 ** 63 - 1, "n": 1}),
                                            ("reversed", {"m": 2 ** 63 - 1, "n": 1}),
                                            ("iterate", {"l": 1, "m": 2 ** 63 - 1})])
def test_expand_region_refuses_expanded_log_powers_past_int64(region, powers):
    # Each input power fits int64, but the expanded l + n - j, m + h or
    # m + l - j reaches 2**63.
    f = LogFunction([LogMonomial(1.0, r=0.5, t=0.5, **powers)])
    with pytest.raises(ValueError, match=f"{region} series has a log power past int64"):
        expand_region(f, region, BranchTriple(0, 0, 0), 3)


def _reference_sum_terms(rows, starts, z1, z2, w, L1, L2, L12):
    """The term loop RegionExpansion.eval ran before the kernel: every row's
    powers made afresh, each group's subtotal added to the total in turn.
    starts lists where each group but the first begins."""
    total = sub = 0.0 + 0.0j
    starts = iter(starts)
    start = next(starts, None)
    for i, (a, r, s, t, l, m, n) in enumerate(rows):
        if i == start:
            total += sub
            sub = 0.0 + 0.0j
            start = next(starts, None)
        v = a
        v *= z1 ** r if r.__class__ is int else cmath.exp(r * L1)
        v *= z2 ** s if s.__class__ is int else cmath.exp(s * L2)
        v *= w ** t if t.__class__ is int else cmath.exp(t * L12)
        if l:
            v *= L1 ** l
        if m:
            v *= L2 ** m
        if n:
            v *= L12 ** n
        sub += v
    return total + sub


def _series_rows(exp: RegionExpansion) -> list[tuple]:
    """exp's terms as rows (a, r, s, t, l, m, n) for _reference_sum_terms,
    built from its packed arrays with r, s, t classified by _exponent."""
    return [(a, *map(logfun._exponent, rst), *lmn)
            for a, rst, lmn in zip(exp.coeffs.tolist(), exp.exps.tolist(), exp.lmn.tolist())]


def _rounding_bound(rows, logs) -> float:
    """Bound on the gap between two sums of rows at a point whose logs are
    logs (_point_logs): (terms + 16) rounding units of the terms' moduli."""
    return (len(rows) + 16) * 2.0 ** -53 * _moduli_sum(rows, *logs)


# Points on the positive real axis and the unit circle give logs with zero
# parts, where a signed zero in an exponent can reach a power's bits.
SIGNED_ZERO_POINTS = [(2.0 + 0.0j, 0.5 + 0.0j), (1j, 0.5 + 0.0j), (-1.0 + 0.0j, 1.5 + 0.0j),
                      (1.3 * cmath.exp(0.7j), 0.4 * cmath.exp(-2.0j))]


def test_rows_differing_in_a_zero_sign_match_the_reference_loop():
    minus, plus = complex(-0.5, -0.0), complex(-0.5, 0.0)
    shared = complex(0.0, -0.25)
    f = LogFunction([LogMonomial(complex(1.0, -0.0), minus, shared, 2),
                     LogMonomial(complex(1.0, 0.0), plus, shared, 2, 1),
                     LogMonomial(complex(-1.0, -0.0), minus, complex(-0.0, -0.25), 0, 0, 1),
                     LogMonomial(complex(0.0, 1.0), minus, complex(0.0, -0.25), 0, 0, 0, 1),
                     LogMonomial(complex(-0.0, -1.0), complex(-0.5, -0.0), plus, -1, 2)])
    for bt in (BranchTriple(0, 0, 0), BranchTriple(-1, 1, 0)):
        for z1, z2 in SIGNED_ZERO_POINTS:
            logs = logfun._point_logs(bt, z1, z2)
            assert _bits(eval_branch2(f, bt, z1, z2)) == _bits(
                _reference_sum_terms(f.rows, [], *logs))
    # Through expand_region: r + t is 0.75 - 0j for the first term and
    # 0.75 + 0j for the second, so each group holds a term of each, side by side.
    f = LogFunction([LogMonomial(1.0, r=complex(0.5, -0.0), t=complex(0.25, -0.0)),
                     LogMonomial(complex(0.5, -0.0), r=0.5, t=0.25, l=1)])
    exp = expand_region(f, "product", BranchTriple(0, 0, 0), 8)
    r = exp.exps[:, 0].tolist()
    pairs = [(a, b) for a, b in zip(r, r[1:]) if a == b]
    assert len(pairs) == 9
    assert all(_bits(a) != _bits(b) for a, b in pairs)
    rows = _series_rows(exp)
    for z1, z2 in [(2.0 + 0.0j, 0.5 + 0.0j), (1j, 0.5 + 0.0j), (1.3 + 0.2j, 0.4 - 0.3j)]:
        logs = logfun._point_logs(exp.designated, z1, z2)
        want = _reference_sum_terms(rows, exp.starts, *logs)
        [value] = exp.eval_many([(z1, z2)])
        assert abs(value - want) <= _rounding_bound(rows, logs)
        assert _bits(exp.eval(z1, z2)) == _bits(value)


def test_expand_region_whose_every_coefficient_drops_is_empty():
    f = LogFunction([LogMonomial(1e-16, r=0.5, t=-0.5)])
    for region in REGIONS:
        exp = expand_region(f, region, BranchTriple(0, 0, 0), 10)
        assert (exp.coeffs.size, exp.starts, exp.keys, exp.groups) == (0, [], [], {})
        z1, z2 = {"product": (2.0, 0.5j), "reversed": (0.5j, 2.0),
                  "iterate": (2.0 + 0.3j, 1.8)}[region]
        assert exp.eval(z1, z2) == 0j
        assert exp.eval_many([(z1, z2)] * 2) == [0j, 0j]


@pytest.mark.parametrize("region, blocks", [("product", 4 + 1), ("reversed", 10 + 1),
                                            ("iterate", 2 + 1)])
def test_expand_region_counts_candidates_against_budget(region, blocks, monkeypatch):
    # Per order: n + 1 blocks a term (product), (n + 1)(n + 2) / 2
    # (reversed) or l + 1 (iterate); the plain term adds one.
    f = LogFunction([LogMonomial(1.0, r=0.5, t=0.5, l=1, n=3), LogMonomial(1.0, s=0.5)])
    monkeypatch.setattr(logfun, "SERIES_BUDGET", 10 * blocks)
    expand_region(f, region, BranchTriple(0, 0, 0), 9)
    with pytest.raises(ValueError, match=f"needs {11 * blocks} candidate"):
        expand_region(f, region, BranchTriple(0, 0, 0), 10)


@pytest.mark.parametrize("region", REGIONS)
def test_expand_region_refuses_hostile_sizes_before_allocating(region):
    budget = f"SERIES_BUDGET = {1 << 20}"
    with pytest.raises(ValueError, match=budget):
        expand_region(MIXED, region, BranchTriple(0, 0, 0), 10 ** 8)
    huge_power = LogFunction([LogMonomial(1.0, r=0.5, l=10 ** 7, n=10 ** 7)])
    with pytest.raises(ValueError, match=budget):
        expand_region(huge_power, region, BranchTriple(0, 0, 0), 1)


# Whole exponents -0.0 (falling in every region), 3 - 0j and 150 to 153,
# past the 100 where z ** k changes method; complex ones; and log powers up
# to 2 in each slot.
EDGE_EXPONENTS = LogFunction([
    LogMonomial(0.9, r=-0.0, s=-0.0, t=-0.0),
    LogMonomial(0.7 + 0.2j, r=complex(3.0, -0.0), s=150.0, t=complex(-0.0, -0.0), l=2),
    LogMonomial(0.3 - 0.6j, r=0.25 + 0.4j, s=-0.5 - 0.1j, t=1.0 / 3.0 + 0.2j, l=2, m=2, n=2),
])

SERIES_FUNCTIONS = {"mixed": MIXED, "log-heavy": LOG_HEAVY, "integer-exponents": INTEGER_EXPONENTS,
                    "all-log-powers": ALL_LOG_POWERS, "edge-exponents": EDGE_EXPONENTS}


def _region_points(region: str, count: int, seed: int) -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
        if in_region(region, z1, z2, margin=0.05):
            points.append((z1, z2))
    return points


def _moduli_sum(rows, z1, z2, w, L1, L2, L12) -> float:
    """Sum of the terms' moduli at a point, which bounds any summation's
    rounding error."""
    total = 0.0
    for a, r, s, t, l, m, n in rows:
        v = (a * (z1 ** r if r.__class__ is int else cmath.exp(r * L1))
             * (z2 ** s if s.__class__ is int else cmath.exp(s * L2))
             * (w ** t if t.__class__ is int else cmath.exp(t * L12)))
        total += abs(v * L1 ** l * L2 ** m * L12 ** n)
    return total


@pytest.mark.parametrize("order", [0, 20, 100, 200])
@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("f", SERIES_FUNCTIONS.values(), ids=SERIES_FUNCTIONS.keys())
def test_eval_many_matches_the_row_loop(f, region, order):
    exp = expand_region(f, region, BranchTriple(1, -1, 0), order)
    rows = _series_rows(exp)
    points = _region_points(region, 4, order + REGIONS.index(region))
    got = exp.eval_many(points)
    assert [type(v) for v in got] == [complex] * len(points)
    for (z1, z2), value in zip(points, got):
        logs = logfun._point_logs(exp.designated, z1, z2)
        want = _reference_sum_terms(rows, exp.starts, *logs)
        assert abs(value - want) <= _rounding_bound(rows, logs)
        assert abs(exp.eval(z1, z2) - want) <= _rounding_bound(rows, logs)


@pytest.mark.parametrize("order", [0, 20, 100, 200])
@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("f", SERIES_FUNCTIONS.values(), ids=SERIES_FUNCTIONS.keys())
def test_series_eval_is_eval_many_at_one_point(f, region, order):
    # The same bits, or the same error, at points inside the region,
    # outside its modulus ordering and where a log is undefined.
    exp = expand_region(f, region, BranchTriple(1, -1, 0), order)
    z1, z2 = EXP_POINTS[region]
    outside = {"product": (z2, z1), "reversed": (z2, z1),
               "iterate": (z2 + 5.0 * (z1 - z2), z2)}[region]
    singular = {"product": (z1, 0j), "reversed": (0j, z2), "iterate": (z2, z2)}[region]
    for point in (*_region_points(region, 4, order), outside, singular, (math.nan, z2)):
        assert _outcome(lambda: exp.eval(*point)) == _outcome(lambda: exp.eval_many([point])[0])


@pytest.mark.parametrize("region", REGIONS)
def test_edge_series_reach_every_power_path(region):
    exp = expand_region(EDGE_EXPONENTS, region, BranchTriple(1, -1, 0), 20)
    classified = [logfun._exponent(c) for c in exp.exps.ravel().tolist()]
    assert {0, 3, 150} <= {v for v in classified if v.__class__ is int}
    assert any(v.__class__ is complex for v in classified)
    re_parts = exp.exps.real
    assert (np.signbit(re_parts) & (re_parts == 0.0)).any()  # a -0.0 exponent
    assert 1 in np.diff([0, *exp.starts, exp.coeffs.size])  # a one-term group


def test_eval_many_whole_exponents_are_single_valued():
    # z ** k for whole k is the same on every sheet; |z2| = 1 keeps
    # z2 ** 1e20 finite.
    point = (1.5 * cmath.exp(0.3j), 1j)
    for k in (-0.0, 150.0, 1e20):
        f = LogFunction([LogMonomial(1.0, s=k)])
        series = [expand_region(f, "product", BranchTriple(0, p2, 0), 0) for p2 in (-3, 0, 2)]
        values = [exp.eval_many([point])[0] for exp in series]
        assert values[0] == values[1] == values[2]
        assert abs(values[0] - series[0].eval(*point)) <= 1e-15 * abs(values[0])
        if k == 0:
            assert _bits(values[0]) == _bits(1.0 + 0.0j)


@pytest.mark.parametrize("region", REGIONS)
def test_eval_many_refuses_a_batch_with_one_bad_point(region):
    exp = expand_region(MIXED, region, BranchTriple(0, 0, 0), 5)
    z1, z2 = EXP_POINTS[region]
    assert exp.eval_many([]) == []
    outside = {"product": (z2, z1), "reversed": (z2, z1),
               "iterate": (z2 + 5.0 * (z1 - z2), z2)}[region]
    singular = {"product": (z1, 0j), "reversed": (0j, z2), "iterate": (z2, z2)}[region]
    for bad in (outside, (math.nan, z2), (z1, complex(0.0, math.nan)), (math.inf, z2),
                (z1, math.inf), singular):
        name = f"z1 = {complex(bad[0])}, z2 = {complex(bad[1])}"
        with pytest.raises(ValueError, match=re.escape(name)):
            exp.eval_many([(z1, z2), bad, (z1, z2)])


def test_eval_many_raises_where_a_value_overflows():
    exp = expand_region(LogFunction([LogMonomial(1.0, r=800.5)]), "product",
                        BranchTriple(0, 0, 0), 0)
    point = (2.5 + 0.0j, 0.8 + 0.0j)  # 2.5 ** 800.5 overflows
    with pytest.raises(OverflowError):
        exp.eval(*point)
    with pytest.raises(OverflowError, match=re.escape("z1 = (2.5+0j), z2 = (0.8+0j)")):
        exp.eval_many([(1.1 + 0.0j, 0.5 + 0.0j), point])


def _not_finite(kind: str, z1: complex, z2: complex) -> str:
    return re.escape(f"{kind} value at z1 = {complex(z1)}, z2 = {complex(z2)} is not finite")


LOG_PAIR = load_scenario(str(SCENARIO_DIR / "log_pair.json")).fam.functions
HUGE_COEFF = LogFunction([LogMonomial(1e300, r=1)])


@pytest.mark.parametrize("f, z1", [(LOG_PAIR[0], 1e155), (HUGE_COEFF, 1e155), (LOG_PAIR[0], 1e300)],
                         ids=["sum-is-inf", "sum-is-nan", "exp-overflows"])
def test_eval_branch2_names_a_point_whose_value_is_not_finite(f, z1):
    with pytest.raises(OverflowError, match=_not_finite("function", z1, 1.0)):
        eval_branch2(f, BranchTriple(0, 0, 0), z1, 1.0)


@pytest.mark.parametrize("f, order, z1, z2", [
    (HUGE_COEFF, 0, 1e155, 1.0),
    # z1 ** 2.83 z2 ** 0.75 overflows, and so does the value itself.
    (LOG_PAIR[0], 400, 1e200 + 0.0j, 3e199 - 1e199j),
], ids=["sum-is-nan", "power-overflows"])
def test_series_eval_names_a_point_whose_value_is_not_finite(f, order, z1, z2):
    series = expand_region(f, "product", BranchTriple(0, 0, 0), order)
    with pytest.raises(OverflowError, match=_not_finite("function", z1, z2)):
        eval_branch2(f, series.designated, z1, z2)
    with pytest.raises(OverflowError, match=_not_finite("series", z1, z2)):
        series.eval(z1, z2)


@pytest.mark.parametrize("order", [400, 1000, 3000])
def test_kernel_sums_high_orders_in_ratio_form(order):
    # A term loop's powers of z1 and z2 overflow apart at these orders,
    # from k = 269 on; the kernel's terms are each a power of the ratio
    # z2 / z1 times their block's k = 0 monomial, and eval is the kernel.
    f = LOG_PAIR[0]
    series = expand_region(f, "product", BranchTriple(0, 0, 0), order)
    z1, z2 = 0.05 + 0.05j, 0.03 - 0.01j
    [value] = series.eval_many([(z1, z2)])
    assert _bits(series.eval(z1, z2)) == _bits(value)
    exact = eval_branch2(f, series.designated, z1, z2)
    assert abs(value - exact) <= 1e-13 * abs(exact)


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="ROADMAP item 2: a block's k = 0 monomial overflows where the "
                          "series does not; scaling each block by a power of two will fix it")
def test_kernel_is_finite_near_the_top_of_the_float_range():
    f = LOG_PAIR[0]
    series = expand_region(f, "product", BranchTriple(0, 0, 0), 100)
    z1, z2 = 10.0 ** 86.2 * cmath.exp(0.3j), 0.45 * cmath.exp(-0.4j) * 10.0 ** 86.2
    exact = eval_branch2(f, series.designated, z1, z2)
    assert cmath.isfinite(exact)
    [value] = series.eval_many([(z1, z2)])
    assert abs(value - exact) <= 1e-13 * abs(exact)


# A ratio of 0.45 inside each region, at unit scale.
SCALE_POINTS = {"product": (cmath.exp(0.3j), 0.45 * cmath.exp(-0.4j)),
                "reversed": (0.45 * cmath.exp(0.2j), cmath.exp(3.3j)),
                "iterate": (1.0 + 0.45 * cmath.exp(0.4j), 1.0 + 0.0j)}


@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize("region", REGIONS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.floats(-100.0, 100.0))
@example(scale=-100.0)
@example(scale=100.0)
def test_kernel_is_finite_at_any_scale_where_the_function_is(region, label, scale):
    # Scaling both points by s keeps every argument, so the ratio and the
    # window stay put while the powers of z1 and z2 sweep the float range.
    u, v = SCALE_POINTS[region]
    assert in_region(region, u, v, margin=0.05)
    series = expand_region(LOG_PAIR[label], region, BranchTriple(0, 0, 0), 60)
    z1, z2 = 10.0 ** scale * u, 10.0 ** scale * v
    try:
        exact = eval_branch2(LOG_PAIR[label], series.designated, z1, z2)
    except OverflowError:
        return
    # Near the top of the float range the kernel may overflow where the
    # value does not: a block's k = 0 monomial exceeds its series' value by
    # the factor 1 / |sum of c_k x^k|, up to about 4 here.  Values within
    # 2**-10 of the range are left out.
    assume(max(abs(exact.real), abs(exact.imag)) < 2.0 ** 1014)
    [value] = series.eval_many([(z1, z2)])
    assert abs(value - exact) <= 1e-13 * abs(exact)


def test_ratio_powers_have_the_same_bits_from_the_table_and_alone():
    # The kernel takes a table of every power up to the largest k where it
    # is no larger than the result, else makes each power alone; which one
    # depends on the pass, so both must give the same bits.
    rng = np.random.default_rng(16)
    x = (rng.uniform(0.2, 0.9, (3, 2)) * np.exp(1j * rng.uniform(0.0, TWO_PI, (3, 2))))
    ratio = np.repeat([0, 1], 300)
    k = np.concatenate([np.arange(300), rng.integers(0, 300, 300)])
    table = logfun._ratio_powers(x, ratio, k)
    alone = logfun._ratio_powers(x, np.append(ratio, 0), np.append(k, 5000))[:, :-1]
    assert table.tobytes() == alone.tobytes()
    assert np.all(table[:, k == 0] == 1.0)
    # Against products taken one factor at a time, whose rounding grows with k.
    steps = np.ones((3, 2, 300), dtype=complex)
    steps[..., 1:] = np.cumprod(np.repeat(x[..., None], 299, axis=2), axis=2)
    stepped = steps[:, ratio, k]
    assert np.all(np.abs(table - stepped) <= (k + 8) * 2.0 ** -52 * np.abs(stepped))


# ---------------------------------------------------------------------------
# family builds and the evaluation kernel
# ---------------------------------------------------------------------------


def _series_bits(exp: RegionExpansion) -> tuple:
    return (exp.region, exp.bt, exp.designated, exp.order, exp.coeffs.tobytes(),
            exp.exps.tobytes(), exp.lmn.dtype, exp.lmn.tolist(), exp.starts,
            [_bits(k) for k in exp.keys])


# An empty function, a one-term one, one whose every coefficient drops and
# one with the largest log power (m, which adds no blocks in any region).
EDGE_FAMILY = [LogFunction(), LogFunction([LogMonomial(0.5j, r=0.25, s=-0.5, t=1.5)]),
               LogFunction([LogMonomial(1e-16, r=0.5, t=-0.5)]),
               LogFunction([LogMonomial(1.0, r=0.5, t=0.5, m=2 ** 63 - 1),
                            LogMonomial(0.25, s=1.0 / 3.0, n=1)])]

SHIPPED = [*default_scenarios(),
           *(load_scenario(str(path)) for path in sorted(SCENARIO_DIR.glob("*.json")))]


@pytest.mark.parametrize("edges", [False, True], ids=["shipped", "with-edge-functions"])
@pytest.mark.parametrize("order", [0, 5, 60, 100])
def test_family_build_equals_each_function_expanded_alone(order, edges):
    for sc in SHIPPED:
        functions = list(sc.fam.functions)
        if edges:
            functions = [*EDGE_FAMILY[:2], *functions, *EDGE_FAMILY[2:]]
        for region in REGIONS:
            family = expand_family(functions, region, sc.bt, order)
            assert len(family) == len(functions)
            for f, series in zip(functions, family):
                assert _series_bits(series) == _series_bits(expand_region(f, region, sc.bt, order))


def test_family_build_counts_every_function_against_the_budget(monkeypatch):
    f = LogFunction([LogMonomial(1.0, r=0.5, t=0.5)])
    monkeypatch.setattr(logfun, "SERIES_BUDGET", 3 * 11)
    assert len(expand_family([f] * 3, "product", BranchTriple(0, 0, 0), 10)) == 3
    with pytest.raises(ValueError, match="needs 44 candidate"):
        expand_family([f] * 4, "product", BranchTriple(0, 0, 0), 10)


def _stored_bits(exp: RegionExpansion) -> tuple:
    return (exp.region, exp.bt, exp.designated, exp.order, exp.coeffs.tobytes(),
            exp.k.tobytes(), exp.block.tobytes(), exp.block_exps.tobytes(),
            exp.block_lmn.tobytes(), exp.starts, [_bits(k) for k in exp.keys])


def _checked_families():
    """Each default scenario's family, and both signs' exchanged and
    contragredient families together, as the duality checks build them; then
    a family with l, m and n powers, which splits blocks in every region,
    among the edge functions; then one whose every coefficient drops."""
    for sc in default_scenarios():
        yield list(sc.fam.functions), sc.bt
        yield [f for sign in (1, -1) for f in omega_family(sc.fam, sign).functions], sc.bt
        yield [f for sign in (1, -1)
               for f in contragredient_family(sc.fam, sc.qp, sign).functions], sc.bt
    yield [*EDGE_FAMILY[:2], LOG_HEAVY, ALL_LOG_POWERS, MIXED, *EDGE_FAMILY[2:]], BranchTriple(1, -1, 0)
    yield [EDGE_FAMILY[2]], BranchTriple(0, 0, 0)


def _candidates(functions, region: str, order: int) -> int:
    # order + 1 per block, a block per term and log-power split
    return (order + 1) * sum(u.n + 1 if region == "product"
                             else (u.n + 1) * (u.n + 2) // 2 if region == "reversed"
                             else u.l + 1
                             for f in functions for u in f.terms)


@pytest.mark.parametrize("bound", [None, 1, 1 << 30],
                         ids=["default-bound", "a-region-a-pass", "one-pass"])
def test_multi_region_build_has_the_bits_of_each_region_built_alone(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(logfun, "_PASS_CANDIDATES", bound)
    passes, build_pass = [], logfun._build_pass
    monkeypatch.setattr(logfun, "_build_pass",
                        lambda *args: passes.append(args[2]) or build_pass(*args))
    for functions, bt in _checked_families():
        built = logfun._expand_regions(functions, REGIONS, bt, 100)
        assert len(built) == len(REGIONS)
        for region, family in zip(REGIONS, built):
            alone = expand_family(functions, region, bt, 100)
            assert [_stored_bits(s) for s in family] == [_stored_bits(s) for s in alone]
    shared = [regions for regions in passes if len(regions) > 1]
    assert bool(shared) == (bound != 1)
    if bound == 1 << 30:
        assert shared == [list(REGIONS)] * len(shared)


@pytest.mark.parametrize("bound", [None, 1500], ids=["default-bound", "bound-1500"])
def test_build_pass_holds_at_most_the_bound_unless_one_region_alone(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(logfun, "_PASS_CANDIDATES", bound)
    passes, build_pass = [], logfun._build_pass
    monkeypatch.setattr(logfun, "_build_pass",
                        lambda *args: passes.append(args[2]) or build_pass(*args))
    alone = shared = 0
    for functions, bt in _checked_families():
        for order in (60, 100):
            passes.clear()
            logfun._expand_regions(functions, REGIONS, bt, order)
            assert [region for regions in passes for region in regions] == list(REGIONS)
            for regions in passes:
                size = sum(_candidates(functions, region, order) for region in regions)
                if len(regions) > 1:
                    assert size <= logfun._PASS_CANDIDATES
                    shared += 1
                elif size > logfun._PASS_CANDIDATES:
                    alone += 1
    # Both kinds of pass occur, except that at the default bound no region
    # here is over it alone.
    assert shared and (alone or bound is None)


@pytest.mark.parametrize("count", [3, 20], ids=["3-points", "20-points"])
@pytest.mark.parametrize("region", REGIONS)
def test_kernel_batches_series_and_functions_with_the_bits_of_each_alone(monkeypatch, region,
                                                                         count):
    if count == 3:  # at 2,048 term-points a pass, series split at 3 points too
        monkeypatch.setattr(logfun, "_PASS_TERM_POINTS", 2048)
    bt = BranchTriple(1, -1, 0)
    functions = list(SERIES_FUNCTIONS.values())
    series = expand_family(functions, region, bt, 60)
    points = _region_points(region, count, 7)
    logs = point_logs((series[0].designated, z1, z2) for z1, z2 in points)
    other = point_logs((bt, z1, z2) for z1, z2 in points)
    parts = [*series, *functions, *functions]
    tables = [logs] * (2 * len(functions)) + [other] * len(functions)
    # The batch takes several passes of at most the bound each (two at
    # either count), and series end up split between passes.
    passes = list(logfun._passes(parts, count))
    spans = [sum(hi - lo for _, lo, hi in pieces) * count for pieces in passes]
    assert max(spans) <= logfun._PASS_TERM_POINTS
    assert sum(spans) == count * sum(part.coeffs.size for part in parts)
    assert len(passes) >= sum(spans) // logfun._PASS_TERM_POINTS
    assert any(hi - lo < parts[i].coeffs.size for pieces in passes for i, lo, hi in pieces)
    batch = eval_parts(parts, tables)
    assert batch.shape == (len(parts), len(points)) and batch.dtype == complex
    for part, table, values in zip(parts, tables, batch):
        assert values.tobytes() == eval_parts([part], [table])[0].tobytes()
    for exp, values in zip(series, batch):
        assert [_bits(v) for v in exp.eval_many(points)] == [_bits(v) for v in values]


def test_kernel_sums_series_pieces_shorter_than_their_block_table(monkeypatch):
    # Passes of at most five terms: MIXED's two and the series' first two
    # groups, 3 of its 124 terms; then pieces of the series alone; then its
    # last term and INTEGER_EXPONENTS.  Every series piece has fewer terms
    # than its 7 blocks, yet takes the whole block table as its units, after
    # the units of the piece before it in its pass.
    bt = BranchTriple(1, -1, 0)
    series = expand_region(LOG_HEAVY, "product", bt, 20)
    points = _region_points("product", 3, 5)
    logs = point_logs((series.designated, z1, z2) for z1, z2 in points)
    other = point_logs((bt, z1, z2) for z1, z2 in points)
    parts, tables = [MIXED, series, INTEGER_EXPONENTS], [other, logs, other]
    alone = [eval_parts([part], [table])[0] for part, table in zip(parts, tables)]
    expected = series.eval_many(points)
    monkeypatch.setattr(logfun, "_PASS_TERM_POINTS", 5 * len(points))
    passes = list(logfun._passes(parts, len(points)))
    assert passes[0] == [(0, 0, 2), (1, 0, 3)]
    assert passes[-1] == [(1, 123, 124), (2, 0, 3)]
    assert len(series.block_lmn) == 7
    assert all(hi - lo < 7 for pieces in passes for i, lo, hi in pieces if i == 1)
    batch = eval_parts(parts, tables)
    for values, own in zip(batch, alone):
        assert values.tobytes() == own.tobytes()
    assert [_bits(v) for v in batch[1]] == [_bits(v) for v in expected]


def test_kernel_passes_keep_groups_whole(monkeypatch):
    # A function is one group: over the bound it takes a pass alone, and
    # whatever follows starts a new pass.  At 10 points a bound of 2,048
    # term-points holds 204 terms.
    monkeypatch.setattr(logfun, "_PASS_TERM_POINTS", 2048)
    big = LogFunction([LogMonomial(1.0, r=0.5 * k) for k in range(1, 300)])
    series = expand_region(LOG_HEAVY, "product", BranchTriple(0, 0, 0), 40)
    passes = list(logfun._passes([MIXED, big, series, LogFunction(), MIXED], 10))
    assert passes[:2] == [[(0, 0, 2)], [(1, 0, 299)]]
    assert all(hi - lo <= 204 for pieces in passes[2:] for _, lo, hi in pieces)
    ends = {0, *series.starts, series.coeffs.size}
    assert all(lo in ends and hi in ends for pieces in passes[2:] for i, lo, hi in pieces
               if i == 2)
    assert passes[-1][-1] == (4, 0, 2)


def test_kernel_memory_does_not_grow_with_its_batch():
    series = expand_family(list(SERIES_FUNCTIONS.values()), "product", BranchTriple(0, 0, 0), 60)
    logs = point_logs((series[0].designated, z1, z2) for z1, z2 in _region_points("product", 6, 3))

    def peak(parts):
        eval_parts(parts, [logs] * len(parts))
        tracemalloc.start()
        try:
            eval_parts(parts, [logs] * len(parts))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(series * 8)  # about 52,000 term-points, several passes
    assert peak(series * 32) <= 1.25 * one


def test_kernel_memory_does_not_grow_with_the_order():
    # Each pass makes the powers of the ratio its terms use, not every
    # power up to the largest k (2.6 MB at order 20,000), and a series
    # split between passes carries its running sum, not every group's
    # subtotal (2.5 MB).
    points = [(z1, 0.6 * z1) for z1 in (1.5, 1.5j, -1.5, 2.0 + 1.0j, -1.0 - 1.0j, 0.5 - 2.0j,
                                        1.0 + 1.0j, -2.0j)]

    def peak(order):
        series = expand_region(LOG_PAIR[0], "product", BranchTriple(0, 0, 0), order)
        series.eval_many(points)
        tracemalloc.start()
        try:
            series.eval_many(points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) <= 1.25 * peak(2_000)


def test_family_build_memory_stays_near_its_result():
    # The order-100 reversed series of random-4's exchanged families of
    # both signs, as omega-duality builds them: 2,626 candidates, 2,240
    # survivors.  The peak was 2.5 times the result while every
    # candidate's complex exponents lived through the sort; it is 1.8.
    sc = next(sc for sc in default_scenarios() if sc.name == "random-4")
    functions = [f for sign in (1, -1) for f in omega_family(sc.fam, sign).functions]
    expand_family(functions, "reversed", sc.bt, 100)
    tracemalloc.start()
    try:
        series = expand_family(functions, "reversed", sc.bt, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(s.coeffs.nbytes + s.exps.nbytes + s.lmn.nbytes for s in series)
    assert peak <= 2.0 * result


# sha256 prefixes of LOG_HEAVY's eval_many bits at order 40, recorded from
# the kernel that sums a series as powers of its region's ratio.
EVAL_MANY_FINGERPRINTS = {"product": "46963d5ca35e4f04", "reversed": "f66e5d88793a6fe5",
                          "iterate": "764e1c068ae2b9c6"}


@pytest.mark.parametrize("region", REGIONS)
def test_eval_many_keeps_its_bits(region):
    exp = expand_region(LOG_HEAVY, region, BranchTriple(1, -1, 0), 40)
    values = exp.eval_many(_region_points(region, 4, 11))
    digest = hashlib.sha256(repr([_bits(v) for v in values]).encode()).hexdigest()[:16]
    assert digest == EVAL_MANY_FINGERPRINTS[region]


def test_kernel_keeps_equal_exponents_on_different_logs_apart():
    # One-term parts side by side share every exponent, so only their logs
    # tell their powers apart.
    f = LogFunction([LogMonomial(1.0, r=0.5 + 0.25j, s=-1.5, t=1.0 / 3.0, l=1)])
    points = [(1.5 + 0.5j, -0.5 + 0.2j), (-1.0 - 0.3j, 0.8j)]
    tables = [point_logs((bt, z1, z2) for z1, z2 in points)
              for bt in (BranchTriple(0, 0, 0), BranchTriple(1, 0, 0), BranchTriple(0, -1, 2))]
    batch = eval_parts([f] * 3, tables)
    for table, values in zip(tables, batch):
        assert values.tobytes() == eval_parts([f], [table])[0].tobytes()
    assert len({values.tobytes() for values in batch}) == 3


def test_kernel_takes_no_points_and_no_parts():
    logs = point_logs([])
    assert logs.shape == (0, 6)
    assert eval_parts([MIXED, expand_region(MIXED, "product", BranchTriple(0, 0, 0), 5)],
                      [logs, logs]).shape == (2, 0)
    assert eval_parts([], []).shape == (0, 0)


def test_function_columns_are_packed_once_and_leave_equality_alone():
    f = LogFunction([LogMonomial(1.0 - 2.0j, r=Fraction(1, 2), s=-0.0, t=3, l=1),
                     LogMonomial(0.5j, r=complex(0.25, -0.0), m=2, n=3)])
    digest, pickled = hash(f), pickle.dumps(f)
    logs = point_logs([(BranchTriple(0, 1, -1), 1.5 + 0.2j, -0.4 + 0.3j)])
    eval_parts([f], [logs])
    assert f.coeffs.tolist() == [1.0 - 2.0j, 0.5j]
    assert [_bits(v) for v in f.exps.ravel()] == [
        _bits(complex(v)) for v in (0.5, -0.0, 3.0, complex(0.25, -0.0), 0.0, 0.0)]
    assert f.lmn.dtype == np.int64 and f.lmn.tolist() == [[1, 0, 0], [0, 2, 3]]
    assert {"coeffs", "exps", "lmn"} <= set(vars(f))
    assert f == LogFunction(f.terms) and hash(f) == digest and pickle.dumps(f) == pickled
    assert LogFunction().exps.shape == LogFunction().lmn.shape == (0, 3)


# Exponents: complex, whole and small, whole past the 100 where z ** k
# changes method, and -0.0.
kernel_exponent = st.one_of(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-0.5, 0.5)),
    st.integers(-150, 150).map(float),
    st.sampled_from([-0.0, 100.0, -100.0, 150.0]),
)
kernel_term = st.builds(
    LogMonomial, st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    kernel_exponent, kernel_exponent, kernel_exponent,
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
kernel_function = st.lists(kernel_term, max_size=6).map(LogFunction)
kernel_triple = st.builds(BranchTriple, *[st.integers(-3, 3)] * 3)
kernel_point = st.tuples(st.floats(0.5, 2.0), st.floats(0.0, TWO_PI),
                         st.floats(0.5, 2.0), st.floats(0.0, TWO_PI)).map(
    lambda p: (p[0] * cmath.exp(1j * p[1]), p[2] * cmath.exp(1j * p[3]))).filter(
    lambda p: abs(p[0] - p[1]) > 0.2)


@settings(max_examples=60, deadline=None)
@given(st.lists(kernel_function, min_size=1, max_size=4),
       st.lists(st.lists(st.tuples(kernel_triple, kernel_point), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.data())
def test_kernel_on_functions_matches_eval_branch2(functions, samples, data):
    # Each logs array holds 3 points, each on its own triple; parts may share one.
    tables = [point_logs((bt, z1, z2) for bt, (z1, z2) in points) for points in samples]
    which = [data.draw(st.integers(0, len(tables) - 1)) for _ in functions]
    batch = eval_parts(functions, [tables[u] for u in which])
    for f, u, values in zip(functions, which, batch):
        assert values.tobytes() == eval_parts([f], [tables[u]])[0].tobytes()
        for (bt, (z1, z2)), value in zip(samples[u], values.tolist()):
            logs = logfun._point_logs(bt, z1, z2)
            assert abs(value - eval_branch2(f, bt, z1, z2)) <= _rounding_bound(f.rows, logs)


def test_point_logs_names_the_first_bad_point():
    bt = BranchTriple(0, 0, 0)
    good = (bt, 1.5 + 0.5j, 0.5)
    for bad, why in (((bt, 1.0 + 0.0j, 1.0 + 0.0j), "must all be nonzero"),
                     ((bt, complex(math.nan, 0.0), 1.0), "must be finite"),
                     ((bt, 2.0, math.inf), "must be finite"),
                     ((bt, 1.5e308 + 1.5e308j, 1.0), "modulus is past the float range")):
        name = f"z1 = {complex(bad[1])}, z2 = {complex(bad[2])}: "
        with pytest.raises(ValueError, match=re.escape(name) + ".*" + why):
            point_logs([good, bad, (bt, 0.0, 1.0)])


def test_kernel_raises_where_a_function_value_overflows():
    f = LogFunction([LogMonomial(1.0, r=800.5)])  # 2.5 ** 800.5 overflows
    bt = BranchTriple(0, 0, 0)
    logs = point_logs([(bt, 1.1 + 0.0j, 0.5 + 0.0j), (bt, 2.5 + 0.0j, 0.8 + 0.0j)])
    with pytest.raises(OverflowError):
        eval_branch2(f, bt, 2.5, 0.8)
    match = re.escape("function value at z1 = (2.5+0j), z2 = (0.8+0j) is not finite")
    with pytest.raises(OverflowError, match=match):
        eval_parts([MIXED, f], [logs, logs])


def test_region_expansion_equality_and_repr():
    bt = BranchTriple(1, -1, 0)
    a, b = (expand_region(LOG_HEAVY, "reversed", bt, 12) for _ in range(2))
    assert a.exps.size and a.groups  # built on one side only
    assert a == b and not a != b and _packed_digest(a) == _packed_digest(b)
    assert a != expand_region(LOG_HEAVY, "reversed", bt, 13)
    for name in ("coeffs", "k", "block", "block_exps", "block_lmn"):
        changed = dataclasses.replace(a, **{name: getattr(a, name).copy()})
        assert changed == a
        changed.__dict__[name].flat[-1] += 1
        assert changed != a
    assert a != "reversed"
    assert RegionExpansion.__hash__ is None
    assert repr(a) == f"RegionExpansion(region='reversed', bt={bt!r}, order=12, keys={a.keys!r})"


def _packed_digest(exp: RegionExpansion) -> str:
    arrays = [(a.dtype.str, a.shape, a.tobytes())
              for a in (exp.coeffs, exp.k, exp.block, exp.block_exps, exp.block_lmn)]
    keys = [_bits(k) for k in exp.keys]
    return hashlib.sha256(repr((arrays, exp.starts, keys)).encode()).hexdigest()[:16]


# sha256 prefixes of LOG_HEAVY's packed arrays (dtype, shape and bytes of
# coeffs, k, block, block_exps and block_lmn), starts and key bits at order
# 40, recorded from the build that an earlier digest of its term rows
# pinned, so no series bit moved when the rows went.
PACKED_FINGERPRINTS = {"product": "1ff04cdfa1dd0ce9", "reversed": "ba6d64d6e25e23cc",
                       "iterate": "a1496f70e28f2494"}


@pytest.mark.parametrize("region", REGIONS)
def test_packed_series_rows_keep_their_bits(region):
    exp = expand_region(LOG_HEAVY, region, BranchTriple(1, -1, 0), 40)
    assert _packed_digest(exp) == PACKED_FINGERPRINTS[region]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_validate_path_rejections():
    with pytest.raises(ValueError):
        validate_path(PathSpec(1.0, 1.0, []))
    with pytest.raises(ValueError):
        validate_path(PathSpec(2.5, 1.0, [Segment("z1", -0.5)]))
    with pytest.raises(ValueError):
        validate_path(PathSpec(2.0, 5.0, [Arc("z1", turns=1.0, about="point", center=1.0)]))
    with pytest.raises(ValueError):
        validate_path(PathSpec(2.0, 1.0, [Segment("z3", 5.0)]))


def test_validate_path_clearance():
    clearance = validate_path(PathSpec(2.5, 1.0, [Arc("z1", turns=1.0, about="other")]))
    assert abs(clearance - 0.5) < 1e-12


@pytest.mark.parametrize("path, message", [
    # 1e308 turns is a finite float, but 2*pi times it is not.
    (PathSpec(2.0, 0.5, [Segment("z2", 0.25), Arc("z1", turns=1e308)]),
     r"move 1: arc of 1e\+308 turns sweeps a non-finite angle"),
    # The span b - a overflows, so the samples between the ends are nan,
    # where a wrap count (nan compares false) would see no step at all.
    (PathSpec(-1e308 - 1e308j, -1.0, [Segment("z1", 1e308 + 1e307j)]),
     r"move 0: segment from .* leaves the float range"),
    (PathSpec(1e308, -1.0, [Arc("z1", turns=0.5, about="point", center=-1e308)]),
     r"move 0: arc from .* leaves the float range"),
    # Finite parts, but a radius |z1| past the float range, where abs overflows.
    (PathSpec(1.5e308 + 1.5e308j, 1.0, [Arc("z1", turns=1)]),
     r"move 0: arc from .* leaves the float range"),
], ids=["sweep", "segment", "arc", "arc-modulus"])
def test_move_leaving_the_float_range_is_refused_naming_it(path, message):
    for call in (validate_path, paths.path_end, sample_path, winding_profile,
                 lambda p: continue_along(LogFunction([LogMonomial(1.0, r=0.5)]),
                                          BranchTriple(0, 0, 0), p)):
        with pytest.raises(ValueError, match="^" + message):
            call(path)


def test_modulus_past_the_float_range_is_refused_naming_it():
    # Finite parts, modulus about 2.1e308: complex abs raises OverflowError.
    far, bt = 1.5e308 + 1.5e308j, BranchTriple(0, 0, 0)
    point = re.escape(f"z1 = {far}, z2 = (1+0j): |z2| or |z1| is past the float range")
    with pytest.raises(ValueError, match=point):
        in_region("product", far, 1.0)
    with pytest.raises(ValueError, match=point):
        expand_region(MIXED, "product", bt, 5).eval(far, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"log of {far} is undefined: its modulus is past the float range")):
        lp(0, far)
    # z1's segment ends 2.1e308 from z2.
    path = PathSpec(1.0, far, [Segment("z1", 2.0)])
    move = re.escape(f"z1 move from (1+0j) to (2+0j): its distance to 0 or to {far} "
                     "is past the float range")
    for call in (validate_path, winding_profile, lambda p: continue_along(MIXED, bt, p)):
        with pytest.raises(ValueError, match=move):
            call(path)


def test_segment_far_past_the_square_root_of_the_float_range():
    # |b - a| ** 2 would overflow for this segment; it passes 0.141 from 0
    # (at -0.1 - 0.1i), and its path continues.
    path = PathSpec(-1.8 - 1j, -1.0, [Segment("z1", 1e200 + 1e200j)])
    assert abs(validate_path(path) - 0.1 * math.sqrt(2.0)) < 1e-12
    assert winding_profile(path) == (0, 0, 1)
    f = LogFunction([LogMonomial(1.0, r=0.5, s=0.25, t=1.0 / 3.0)])
    assert continue_along(f, BranchTriple(0, 0, 0), path).certificate < 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_arc_from_a_subnormal_angle_continues(sign):
    # cmath.phase(2.2 - 5e-324j) raises OverflowError: its angle underflows.
    # The arc's start angle and the crossing counts read atan2 instead.
    path = PathSpec(complex(2.2, sign * 5e-324), 0.5j, [Arc("z1", turns=1.0)])
    res = continue_along(LogFunction([LogMonomial(1.0, r=0.5)]), BranchTriple(0, 0, 0), path)
    assert res.end_triple == (1, 0, 1)
    assert res.certificate < 1e-12


def _squared_seg_point_dist(a, b, c):
    """The segment distance projected through |b - a| ** 2."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(c - a)
    u = min(1.0, max(0.0, ((c - a) * ab.conjugate()).real / denom))
    return abs(c - (a + u * ab))


def test_random_loops_do_not_move_with_the_segment_projection(monkeypatch):
    # The continuation benchmark's inputs are built from these loops.
    loops = [make_random_loop(seed) for seed in range(3000)]
    monkeypatch.setattr(paths, "_seg_point_dist", _squared_seg_point_dist)
    assert [make_random_loop(seed) for seed in range(3000)] == loops


def test_sample_path_endpoints_and_scale():
    path = PathSpec(2.5, 1.0, [Arc("z1", turns=1.0, about="other")])
    z1s, z2s = sample_path(path)
    assert z1s[0] == 2.5 and z2s[0] == 1.0
    assert abs(z1s[-1] - 2.5) < 1e-12
    assert (z2s == 1.0).all()
    z1d, _ = sample_path(path, scale=2)
    assert len(z1d) > 1.5 * len(z1s)


def test_sample_path_segment_endpoint_exact():
    path = PathSpec(2.5, 1.0, [Segment("z2", 0.5 + 0.5j)])
    z1s, z2s = sample_path(path)
    assert z2s[-1] == 0.5 + 0.5j
    assert (z1s == 2.5).all()


_PATH_POINTS = st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                                  allow_nan=False, allow_infinity=False)
_VARS = st.sampled_from(["z1", "z2"])
_MOVES = st.one_of(
    st.builds(Segment, _VARS, _PATH_POINTS),
    st.builds(Arc, _VARS, st.floats(-3.0, 3.0, allow_nan=False),
              st.sampled_from(["origin", "other", "point"]), _PATH_POINTS),
)


@given(z1=_PATH_POINTS, z2=_PATH_POINTS, moves=st.lists(_MOVES, min_size=1, max_size=3),
       scale=st.integers(1, 8))
@example(z1=2.5, z2=1.0, moves=[Arc("z1", turns=-1.37, about="other")], scale=1)
@example(z1=1.5j, z2=-0.5, moves=[Segment("z2", 0.3 - 1j),
                                  Arc("z1", turns=0.61, about="point", center=0.2 + 0.1j),
                                  Arc("z2", turns=-2.25, about="origin")], scale=3)
@settings(max_examples=150, deadline=None)
def test_sample_path_grid_is_dyadic(z1, z2, moves, scale):
    # The oracle reads the samples at scale s as every other sample at
    # scale 2s: linspace's step 1/(2n) is exactly (1/n)/2, and each move's
    # forced-exact end falls on an even index.
    path = PathSpec(z1, z2, moves)
    try:
        coarse = sample_path(path, scale)
        fine = sample_path(path, 2 * scale)
    except (ValueError, ArithmeticError):  # an arc of zero radius, or over the budget
        assume(False)
    for c, f in zip(coarse, fine):
        assert f[::2].tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def test_continue_counterclockwise_raises_indices():
    f = LogFunction([LogMonomial(1.0, t=1.0 / 3.0)])
    path = PathSpec(2.5, 1.0, [Arc("z1", turns=1.0, about="other")])
    res = continue_along(f, BranchTriple(0, 0, 0), path)
    assert isinstance(res, ContinuationResult)
    # Circling z1 about z2 also encircles the origin here, so both the z1
    # and the difference indices rise by one.
    assert res.end_triple == BranchTriple(1, 0, 1)
    assert res.crossings == (1, 0, 1)
    want = cmath.exp((math.log(1.5) + TWO_PI * 1j) / 3.0)
    assert abs(res.end_value - want) < 1e-12
    assert abs(eval_branch2(f, BranchTriple(0, 0, 0), 2.5, 1.0) - 1.5 ** (1.0 / 3.0)) < 1e-14
    assert res.certificate < 1e-9
    assert res.samples >= 64


def test_continue_clockwise_lowers_indices():
    f = LogFunction([LogMonomial(1.0, t=1.0 / 3.0)])
    path = PathSpec(2.5, 1.0, [Arc("z1", turns=-1.0, about="origin")])
    res = continue_along(f, BranchTriple(0, 0, 0), path)
    assert res.end_triple == BranchTriple(-1, 0, -1)


def test_continue_round_trip_restores_value():
    f = LogFunction([
        LogMonomial(1.0, r=0.5, t=1.0 / 3.0, n=1),
        LogMonomial(0.25j, s=-0.5),
    ])
    path = PathSpec(2.5, 1.0, [
        Arc("z1", turns=1.0, about="other"),
        Arc("z1", turns=-1.0, about="other"),
    ])
    res = continue_along(f, BranchTriple(0, 0, 0), path)
    assert res.end_triple == BranchTriple(0, 0, 0)
    assert rel_gap(res.end_value, eval_branch2(f, BranchTriple(0, 0, 0), 2.5, 1.0)) < 1e-12


def test_continue_rejects_invalid_path():
    f = LogFunction([LogMonomial(1.0, t=0.5)])
    with pytest.raises(ValueError):
        continue_along(f, BranchTriple(0, 0, 0), PathSpec(2.5, 1.0, [Segment("z1", -0.5)]))


def test_winding_profile_frozen():
    loop = PathSpec(-1.8, -1.0, [Arc("z1", turns=-1.0, about="origin")])
    assert winding_profile(loop) == (-1, 0, -1)
    there_and_back = PathSpec(2.5, 1.0, [
        Segment("z2", 0.5),
        Arc("z1", turns=1.0, about="other"),
        Arc("z1", turns=-1.0, about="other"),
        Segment("z2", 1.0),
    ])
    assert winding_profile(there_and_back) == (0, 0, 0)


# Hand-worked index changes of (z1, z2, z1 - z2).  Principal arguments lie
# in [0, 2*pi), so a point on the positive real axis has argument 0 and
# leaving it clockwise drops the index at once.
@pytest.mark.parametrize("path, want", [
    # Quarter turns of z1 about 0 with z2 = -0.5, starting on the axis:
    # counterclockwise stays on the sheet, clockwise crosses the cut.
    (PathSpec(2.0, -0.5, [Arc("z1", turns=0.25)]), (0, 0, 0)),
    (PathSpec(2.0, -0.5, [Arc("z1", turns=-0.25)]), (-1, 0, -1)),
    # Quarter turns ending on the axis: from above nothing changes, from
    # below (argument 3*pi/2 rising to 2*pi) the index rises.
    (PathSpec(2j, -0.5, [Arc("z1", turns=-0.25)]), (0, 0, 0)),
    (PathSpec(-2j, -0.5, [Arc("z1", turns=0.25)]), (1, 0, 1)),
    # Three full turns, the count a coarse sampling gets wrong.
    (PathSpec(2.0, -0.5, [Arc("z1", turns=3.0)]), (3, 0, 3)),
    # z2 circles z1 = 1 on radius 2, which encloses 0; z1 - z2 = -2e^{i phi}.
    # A full turn winds both; half a turn takes z1 - z2 from -2 up through
    # -2i to the axis at 2 (+1) and z2 from 3 over the top to -1 (0); the
    # other way z2 passes below 0 (-1) and z1 - z2 comes down to 2 (0).
    (PathSpec(1.0, 3.0, [Arc("z2", turns=1.0, about="other")]), (0, 1, 1)),
    (PathSpec(1.0, 3.0, [Arc("z2", turns=0.5, about="other")]), (0, 0, 1)),
    (PathSpec(1.0, 3.0, [Arc("z2", turns=-0.5, about="other")]), (0, -1, 0)),
    # z1 about the point 2.5 on radius 0.5 from the axis at 3: the circle
    # excludes 0 (and z2 = -1), and it crosses the axis at 2 downwards and
    # at 3 upwards.  After 1.75 turns it ends below the axis: one more
    # downward crossing than upward.
    (PathSpec(3.0, -1.0, [Arc("z1", turns=1.75, about="point", center=2.5)]), (-1, 0, -1)),
    (PathSpec(3.0, -1.0, [Arc("z1", turns=2.0, about="point", center=2.5)]), (0, 0, 0)),
    # z1 about 0.5 on radius 1.5 encloses 0 but not z2 = 5.
    (PathSpec(2.0, 5.0, [Arc("z1", turns=1.0, about="point", center=0.5)]), (1, 0, 0)),
    # Segments ending on or leaving the axis.
    (PathSpec(1 - 1j, -1.0, [Segment("z1", 2.0)]), (1, 0, 1)),
    (PathSpec(1 + 1j, -1.0, [Segment("z1", 2.0)]), (0, 0, 0)),
    (PathSpec(2.0, -1.0, [Segment("z1", 1 - 1j)]), (-1, 0, -1)),
    (PathSpec(3.0, 1 - 1j, [Segment("z2", 2.0)]), (0, 1, 0)),
])
def test_winding_profile_hand_worked(path, want):
    assert winding_profile(path) == want
    assert continue_along(LogFunction([LogMonomial(1.0, r=0.5, s=0.25, t=1 / 3)]),
                          BranchTriple(0, 0, 0), path).crossings == want


@pytest.mark.parametrize("var, about", [("z1", "origin"), ("z1", "other"), ("z1", "point"),
                                        ("z2", "origin"), ("z2", "other"), ("z2", "point")])
def test_arg_change_matches_dense_unwrap(var, about):
    # Circles chosen so that a + b e^{i phi} has |a| < |b| for some of the
    # three quantities and |a| > |b| for others, including b = -R (z2 moves).
    path = PathSpec(1.7 + 0.4j, -0.6 + 0.9j,
                    [Arc(var, turns=-1.6, about=about, center=0.9 + 0.2j)])
    step = next(paths._walk_moves(path))
    c, o = step.center, step.other
    phi = step.theta0 + step.sweep * np.linspace(0.0, 1.0, 20001)
    track = c + step.radius * np.exp(1j * phi)
    if var == "z1":
        diff = (c - o, step.radius, track - o)
    else:
        diff = (o - c, -step.radius, o - track)
    for a, b, q in ((c, step.radius, track), diff):
        want = np.unwrap(np.angle(q))
        assert abs(logfun._arg_change(step, a, b) - (want[-1] - want[0])) < 1e-9


def test_winding_profile_samples_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("winding_profile sampled the path")
    monkeypatch.setattr(paths, "sample_path", refuse)
    path = PathSpec(2.0, 0.5, [Arc("z1", turns=1e7)])
    assert winding_profile(path) == (10 ** 7, 0, 10 ** 7)


def test_continue_beyond_sample_budget_raises():
    path = PathSpec(2.0, 0.5, [Arc("z1", turns=1e7)])
    with pytest.raises(ArithmeticError, match="budget"):
        continue_along(LogFunction([LogMonomial(1.0, t=0.5)]), BranchTriple(0, 0, 0), path)


def test_continue_certificate_is_gap_to_oracle():
    f = LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0, n=1), LogMonomial(0.25j, s=-0.5)])
    path = PathSpec(2.5, 1.0, [Segment("z2", 0.5 + 0.2j), Arc("z1", turns=-2.0, about="other")])
    bt = BranchTriple(1, 0, -1)
    res = continue_along(f, bt, path)
    assert res.oracle_value == paths.oracle_continue(f, bt, path)
    assert res.certificate == rel_gap(res.end_value, res.oracle_value)
    assert res.certificate < 1e-12
    with pytest.raises(ArithmeticError, match="oracle"):
        continue_along(f, bt, path, tol=res.certificate)


@pytest.mark.parametrize("moves", [[Segment("z1", 0.5 - 0.5j)], [Arc("z1", turns=-1.25)]],
                         ids=["segment", "arc"])
@pytest.mark.parametrize("re", [1e-3, 0.5, 0.9, 1.0, 2.0, 30.0])
def test_continue_from_the_snap_band(re, moves):
    # Starts within 3e-14 of the positive axis, inside the snap band for
    # |Im z1| <= 1e-14 Re z1 and outside it beyond.  The oracle has to
    # start on lp's sheets: a band of 1e-14 max(1, Re z) would put it on
    # another for 0 < Re z1 < 1 (a gap of 1.68 from 0.5 - 7e-15i).
    f = LogFunction([LogMonomial(1.0, r=0.5)])
    for k in range(-300, 301, 2):
        path = PathSpec(complex(re, k * 1e-16), -3.0, moves)
        assert continue_along(f, BranchTriple(0, 0, 0), path).certificate < 1e-12, k


# Starts whose z2 or z1 - z2 (or z1, for moves of z2) lies at the band
# point b, the other variable at -3.  The quantity then moves along a
# segment to 0.5 - 0.5i or round a -1.25-turn arc, or stays where it
# started while the other variable moves (or nothing does), so that the
# oracle's exact start log is what the certificate checks.
_BAND_STARTS = {"z1": lambda b: (b, -3.0), "z2": lambda b: (-3.0, b),
                "z1 - z2": lambda b: (b - 3.0, -3.0)}
_BAND_MOVES = {
    "z2-segment": ("z2", [Segment("z2", 0.5 - 0.5j)]),
    "z2-arc": ("z2", [Arc("z2", turns=-1.25)]),
    "z2-stays-segment": ("z2", [Segment("z1", 0.5 - 0.5j)]),
    "z2-stays-arc": ("z2", [Arc("z1", turns=-1.25)]),
    "z1-stays-segment": ("z1", [Segment("z2", 0.5 - 0.5j)]),
    "z1-stays-arc": ("z1", [Arc("z2", turns=-1.25)]),
    "z1-z2-segment": ("z1 - z2", [Segment("z1", -2.5 - 0.5j)]),
    "z1-z2-arc": ("z1 - z2", [Arc("z1", turns=-1.25, about="other")]),
    "z1-z2-stays": ("z1 - z2", []),
}


@pytest.mark.parametrize("case", _BAND_MOVES)
@pytest.mark.parametrize("re", [1e-3, 0.5, 0.9, 1.0, 2.0, 30.0])
def test_continue_from_the_snap_band_of_each_quantity(re, case):
    quantity, moves = _BAND_MOVES[case]
    f = LogFunction([LogMonomial(1.0, r=0.5), LogMonomial(1.0, s=0.5), LogMonomial(1.0, t=0.5)])
    for k in range(-300, 301, 4):
        path = PathSpec(*_BAND_STARTS[quantity](complex(re, k * 1e-16)), moves)
        assert continue_along(f, BranchTriple(0, 0, 0), path).certificate < 1e-12, k


def _benchmark_like_paths():
    """Closed loops of make_random_loop and arcs of 12 to 100 turns about 0,
    the other variable and a third point, each circle clear of 0 and of the
    other variable by half its radius: the paths the continuation
    benchmark runs, drawn anew."""
    rng = np.random.default_rng(1)

    def polar(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, TWO_PI))

    out = [make_random_loop(1_000_000 + k) for k in range(24)]
    for turns in (12.0, -14.5, 16.0, -18.25, 20.5, -23.0, 25.75, -29.0, 32.0, -36.5, 40.0,
                  -45.0, 50.0, -60.5, 75.0, 100.0):
        for about in ("origin", "other", "point"):
            while True:
                var = "z1" if rng.random() < 0.7 else "z2"
                moving, other = polar(0.5, 2.0), polar(0.5, 2.0)
                center = {"origin": 0j, "other": other, "point": moving + polar(0.3, 1.5)}[about]
                radius = abs(moving - center)
                if min(abs(abs(center) - radius), abs(abs(other - center) - radius)) >= radius / 2:
                    break
            z1, z2 = (moving, other) if var == "z1" else (other, moving)
            out.append(PathSpec(z1, z2, [Arc(var, turns=turns, about=about, center=center)]))
    return out


def test_oracle_keeps_the_log_of_an_unmoved_variable():
    # Unwrapping a variable that no move names would add the rounding of
    # x/x at every sample, up to about 1e-12 rad over a 100-turn arc.  The
    # oracle keeps lp at the start instead, so a function of that variable
    # alone continues to exactly its value on the end triple.
    bt = BranchTriple(1, -2, 0)
    of_fixed = {"z2": LogFunction([LogMonomial(1.0, s=0.75 + 0.1j, m=2)]),
                "z1": LogFunction([LogMonomial(1.0, r=0.75 + 0.1j, l=1)])}
    checked = 0
    for path in _benchmark_like_paths():
        movers = {move.var for move in path.moves}
        end_triple = BranchTriple(*(p + k for p, k in zip(bt, winding_profile(path))))
        for var, f in of_fixed.items():
            if var not in movers:
                want = eval_branch2(f, end_triple, *paths.path_end(path))
                assert rel_gap(paths.oracle_continue(f, bt, path), want) == 0.0, (path, var)
                checked += 1
    assert checked == 63


def test_oracle_unwraps_every_log_of_a_path_moving_both():
    # The control: z1 winds once about 0, then z2 once the other way inside
    # it, so the end triple is the start's plus (1, -1, 1), and each value
    # is right only if the oracle unwraps all three logs.
    bt = BranchTriple(1, -2, 0)
    path = PathSpec(2.0, 0.5j, [Arc("z1", turns=1.0), Arc("z2", turns=-1.0)])
    functions = [LogFunction([LogMonomial(1.0, r=0.75 + 0.1j, l=1)]),
                 LogFunction([LogMonomial(1.0, s=0.75 + 0.1j, m=2)]),
                 LogFunction([LogMonomial(1.0, t=1.0 / 3.0, n=1)])]
    for f, res in zip(functions, continue_family(functions, bt, path)):
        assert res.end_triple == (2, -3, 1)
        assert res.certificate < 1e-12
        # Kept on its start sheet, any one of the three would be far off.
        assert rel_gap(eval_branch2(f, bt, *paths.path_end(path)), res.oracle_value) > 0.1


def test_oracle_anchors_on_the_sheets_of_lp():
    # In the band and at its edge, for real parts on both sides of 1, the
    # oracle's start logs are lp's bit for bit, unwrapped or kept: one cut
    # rule.  With no moves, the end logs are the start logs.
    for re in (1e-3, 0.5, 0.9, 1.0, 2.0, 30.0):
        for im in (1e-16, 7e-15, 1e-14 * re, 2e-14 * re, 3e-14):
            for z in (complex(re, im), complex(re, -im), complex(-re, im)):
                want = (lp(2, z), lp(-1, -3.0), lp(0, z + 3.0))
                assert paths._level_logs((2, -1, 0), z, -3.0 + 0.0j, []) == (want, want), z


def _per_label_oracle(f, bt, path):
    """The family oracle's reference: one function at a time, every level
    sampled anew at scales 1, 2, 4, ..., as the oracle was before it
    served families."""
    validate_path(path)
    prev = None
    scale = 1
    for _ in range(paths._MAX_REFINE + 1):
        a1, a2 = paths.sample_path(path, scale)
        logs = []
        for a, p in zip((a1, a2, a1 - a2), bt):
            # lp at the start, then the change of the sampled angles, with
            # 2 pi for each step down past -pi and -2 pi for each step up
            theta = np.angle(a)
            steps = theta[1:] - theta[:-1]
            wraps = int(np.sum(steps < -math.pi)) - int(np.sum(steps > math.pi))
            logs.append(complex(math.log(abs(complex(a[-1]))),
                                lp(p, complex(a[0])).imag + float(theta[-1] - theta[0])
                                + TWO_PI * wraps))
        L1, L2, L12 = logs
        total = 0.0 + 0.0j
        for u in f.terms:
            v = complex(u.coeff) * cmath.exp(u.r * L1 + u.s * L2 + u.t * L12)
            if u.l:
                v *= L1 ** u.l
            if u.m:
                v *= L2 ** u.m
            if u.n:
                v *= L12 ** u.n
            total += v
        if prev is not None and abs(total - prev) < paths._ORACLE_TOL * max(1.0, abs(total)):
            return total, len(a1)
        prev = total
        scale *= 2
    raise ArithmeticError("oracle continuation did not settle")


def _per_label_continue(f, bt, path):
    crossings = winding_profile(path)
    end_triple = BranchTriple(*(p + k for p, k in zip(bt, crossings)))
    end_value = eval_branch2(f, end_triple, *paths.path_end(path))
    oracle, samples = _per_label_oracle(f, bt, path)
    return ContinuationResult(end_triple, end_value, rel_gap(end_value, oracle), samples,
                              crossings, oracle)


def _result_bits(res):
    return (res.end_triple, res.crossings, res.samples, _bits(res.end_value),
            res.certificate.hex(), _bits(res.oracle_value))


def _settle_level(res, path):
    """The refinement level at which the oracle accepted res: its samples
    are those of scale 2**level."""
    per_scale = len(sample_path(path)[0]) - 1
    return int(math.log2((res.samples - 1) // per_scale))


# Paths sampled at 2 points a move at scale 1 (paths._base_samples
# patched), far too few: the oracle's wrap counts come right at different
# refinement levels for the quantities the moves wind, so the functions
# below settle at different levels.  z1**1 cannot see a miscounted wrap
# and settles at the first.
_STAGGERED = [
    (PathSpec(1.0, 3.0, [Arc("z1", turns=-1.0, about="point", center=0.4),
                         Arc("z2", turns=-3.0)]), [1, 2, 3, 3, 3]),
    (PathSpec(1.0, -2.0, [Arc("z1", turns=-5.0, about="point", center=0.4)]),
     [1, 5, 1, 1, 2]),
]

_STAGGERED_FUNCTIONS = [
    LogFunction([LogMonomial(1.0, r=1.0)]),
    LogFunction([LogMonomial(1.0, r=0.3)]),
    LogFunction([LogMonomial(1.0, s=0.3)]),
    LogFunction([LogMonomial(1.0, t=0.3)]),
    LogFunction([LogMonomial(0.5 - 1j, r=0.5, t=1.0 / 3.0, n=2),
                 LogMonomial(0.25j, s=-0.5, m=1)]),
]

_STAGGERED_BT = BranchTriple(2, -1, 1)


@pytest.fixture
def under_sampled(monkeypatch):
    monkeypatch.setattr(paths, "_base_samples", lambda step: 2)


@pytest.mark.parametrize("path, levels", _STAGGERED)
def test_continue_family_keeps_the_bits_of_each_label_alone(under_sampled, path, levels):
    functions, bt = _STAGGERED_FUNCTIONS, _STAGGERED_BT
    got = continue_family(functions, bt, path, tol=math.inf)
    want = [_per_label_continue(f, bt, path) for f in functions]
    assert [_result_bits(r) for r in got] == [_result_bits(r) for r in want]
    assert [_settle_level(r, path) for r in got] == levels
    for f, res in zip(functions, got):
        assert res.certificate < 1e-12
        assert _result_bits(continue_along(f, bt, path, tol=math.inf)) == _result_bits(res)
        assert _bits(paths.oracle_continue(f, bt, path)) == _bits(res.oracle_value)


# The oracle samples a path one move at a time; _per_label_oracle reads
# whole-path arrays of sample_path.  They must agree bit for bit on paths
# of one long arc of either variable and on paths whose moves alternate,
# where a quantity's angles run on from one move that changes it to the
# next.
_BITS_PATHS = {
    "benchmark-like": _benchmark_like_paths,
    "staggered": lambda: [path for path, _ in _STAGGERED],
    "z2-arcs": lambda: [
        PathSpec(1.5, 0.5 + 0.3j, [Arc("z2", turns=3.25)]),
        PathSpec(1.5, 0.5 + 0.3j, [Arc("z2", turns=-7.5, about="other")]),
        PathSpec(-1.2j, 2.0 - 0.5j, [Arc("z2", turns=12.0, about="point", center=1.5 + 1j)]),
        PathSpec(1.5, 0.5 + 0.3j, [Segment("z2", -0.4 - 0.6j), Arc("z2", turns=-2.75)]),
    ],
    "z1-z2-z1": lambda: [
        PathSpec(2.0, 0.5j, [Arc("z1", turns=1.0), Arc("z2", turns=-2.0),
                             Segment("z1", -1.5 - 0.5j), Arc("z1", turns=2.5, about="other")]),
        PathSpec(2.0, 0.5j, [Segment("z1", -2.0 + 0.1j), Segment("z2", 0.5 - 0.5j),
                             Arc("z1", turns=-3.0, about="other")]),
    ],
}


@pytest.mark.parametrize("group", _BITS_PATHS)
def test_continue_family_keeps_the_bits_of_whole_path_sampling(group):
    functions, bt = _STAGGERED_FUNCTIONS, _STAGGERED_BT
    for path in _BITS_PATHS[group]():
        got = continue_family(functions, bt, path)
        want = [_per_label_continue(f, bt, path) for f in functions]
        assert [_result_bits(r) for r in got] == [_result_bits(r) for r in want], path


def test_oracle_memory_per_sample_is_bounded():
    # A 1,000-turn arc of z1, 128,001 samples a level.  The oracle holds
    # one move's samples at a time and never samples the fixed variable;
    # whole-path arrays of both variables peaked at 72 bytes a sample.
    f = LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0)])
    bt = BranchTriple(0, 0, 0)
    path = PathSpec(2.0, 0.5j, [Arc("z1", turns=1000.0)])
    samples = continue_along(f, bt, path).samples
    tracemalloc.start()
    try:
        paths.oracle_continue(f, bt, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * samples, peak / samples


def test_oracle_phase_error_does_not_grow_with_the_power():
    # z1 = 1 circles -0.3i once, so |z1**1e6| stays 1 and a phase error e
    # shows as a gap of about 1e6 e.  The counted wraps give the same end
    # phase at every scale, and the oracle settles at the first level.  A
    # float sum of the step angles read it 1.8e-15 low at scales 2, 8 and 16
    # and exact at 1 and 4, so it settled only at scale 16, 2.3e-9 off.
    path = PathSpec(1.0, -2.0, [Arc("z1", turns=-1.0, about="point", center=-0.3j)])
    res = continue_along(LogFunction([LogMonomial(1.0, r=1e6)]), _STAGGERED_BT, path)
    assert res.samples == len(sample_path(path, 2)[0])
    assert res.certificate < 5e-10


def test_continue_family_keeps_the_bits_on_the_suite_loops():
    for sc in default_scenarios()[:6]:
        for path in (*monodromy_loops(), make_random_loop(sc.seed)):
            got = continue_family(sc.fam.functions, sc.bt, path, tol=math.inf)
            want = [_per_label_continue(f, sc.bt, path) for f in sc.fam.functions]
            assert [_result_bits(r) for r in got] == [_result_bits(r) for r in want]


def _counting_samples(monkeypatch):
    """Record the scale of each sample_path call and, as (step, scale),
    each _move_samples call; under under_sampled a move's base count is 2,
    so its scale is its sample count over 2."""
    scales, moves = [], []
    real_path, real_move = paths.sample_path, paths._move_samples

    def counting_path(path, scale=1):
        scales.append(scale)
        return real_path(path, scale)

    def counting_move(step, n):
        moves.append((step, n // 2))
        return real_move(step, n)
    monkeypatch.setattr(paths, "sample_path", counting_path)
    monkeypatch.setattr(paths, "_move_samples", counting_move)
    return scales, moves


def test_continue_family_samples_the_path_once_per_level(under_sampled, monkeypatch):
    path, levels = _STAGGERED[0]
    steps = list(paths._walk_moves(path))
    scales, moves = _counting_samples(monkeypatch)
    results = continue_family(_STAGGERED_FUNCTIONS, _STAGGERED_BT, path, tol=math.inf)
    # Each level samples each move once, in order, and builds no path.
    assert (scales, moves) == ([], [(step, scale) for scale in (2, 4, 8) for step in steps])
    assert [_settle_level(r, path) for r in results] == levels == [1, 2, 3, 3, 3]
    # Before families, every label sampled every level again: two for a
    # label that settles at the first comparison.
    scales.clear()
    _per_label_oracle(_STAGGERED_FUNCTIONS[0], _STAGGERED_BT, path)
    assert scales == [1, 2]
    scales.clear()
    moves.clear()
    continue_along(_STAGGERED_FUNCTIONS[0], _STAGGERED_BT, path, tol=math.inf)
    assert (scales, moves) == ([], [(step, 2) for step in steps])


def test_continue_family_beyond_sample_budget_raises():
    path = PathSpec(2.0, 0.5, [Arc("z1", turns=1e7)])
    functions = [LogFunction([LogMonomial(1.0, t=0.5)]), LogFunction([LogMonomial(1.0, r=2.0)])]
    # The first sampling is at scale 2, so that is the scale the message names.
    with pytest.raises(ArithmeticError, match=r"at scale 2, over the sample budget"):
        continue_family(functions, BranchTriple(0, 0, 0), path)
