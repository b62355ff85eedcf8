"""Tests for two-variable log functions: evaluation, series, continuation."""

import cmath
import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    Arc,
    BranchTriple,
    ContinuationResult,
    LogFunction,
    LogMonomial,
    OneVarLogSeries,
    PathSpec,
    REGIONS,
    Segment,
    continue_along,
    designated_triple,
    differentiate,
    eval_branch1,
    eval_branch2,
    expand_region,
    in_region,
    normalize,
    sample_path,
    term_distance,
    validate_path,
    winding_profile,
)

from twistlab import logfun, paths

TWO_PI = 2.0 * math.pi


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


@pytest.mark.parametrize("bad", [{"l": 1.5}, {"l": -1}, {"coeff": complex(math.nan, 0.0)}],
                         ids=["fractional-power", "negative-power", "nan-coeff"])
def test_every_monomial_construction_route_validates(bad):
    good = LogMonomial(1.0, r=0.5, l=1)
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


def test_eval_branch1_rejects_non_finite_points():
    series = OneVarLogSeries([(1.0, 0.5, 1)])
    for z in (math.nan, complex(-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            eval_branch1(series, 0, z)


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
    assert rel_gap(eval_branch2(f * g, bt, z1, z2), vf * vg) < 1e-13
    assert rel_gap(eval_branch2(3.0j * f, bt, z1, z2), 3.0j * vf) < 1e-13


def test_eval_branch1_frozen():
    series = OneVarLogSeries([(1.0, 0.5, 0)])
    assert abs(eval_branch1(series, 1, 4.0) + 2.0) < 1e-14
    logs = OneVarLogSeries([(1.0, 0.0, 1)])
    assert abs(eval_branch1(logs, 2, 1.0) - 2 * TWO_PI * 1j) < 1e-14
    with pytest.raises(ValueError):
        eval_branch1(series, 0, 0.0)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_differentiate_structure():
    f = LogFunction([LogMonomial(1.0, r=0.5, l=2)])
    want = LogFunction([
        LogMonomial(0.5, r=-0.5, l=2),
        LogMonomial(2.0, r=-0.5, l=1),
    ])
    assert term_distance(differentiate(f, "z1"), want) < 1e-15
    # z2 does not appear, so the z2 derivative vanishes.
    assert differentiate(f, "z2").terms == ()
    with pytest.raises(ValueError):
        differentiate(f, "w")


def test_differentiate_matches_finite_differences():
    f = LogFunction([
        LogMonomial(1.0, r=0.5, s=0.3, t=1.0 / 3.0, n=1),
        LogMonomial(0.5j, r=-0.5, t=1.5, m=1),
        LogMonomial(-0.25, s=1.25, l=1),
    ])
    bt = BranchTriple(0, 0, 0)
    z1, z2 = 2.0 * cmath.exp(1.0j), cmath.exp(2.0j)
    h = 1e-5
    for var in ("z1", "z2"):
        df = differentiate(f, var)
        exact = eval_branch2(df, bt, z1, z2)
        if var == "z1":
            num = (eval_branch2(f, bt, z1 + h, z2)
                   - eval_branch2(f, bt, z1 - h, z2)) / (2 * h)
        else:
            num = (eval_branch2(f, bt, z1, z2 + h)
                   - eval_branch2(f, bt, z1, z2 - h)) / (2 * h)
        assert rel_gap(exact, num) < 1e-8


def test_differentiate_commutes():
    f = LogFunction([LogMonomial(1.0, r=0.5, t=1.0 / 3.0, l=1, n=2)])
    ab = differentiate(differentiate(f, "z1"), "z2")
    ba = differentiate(differentiate(f, "z2"), "z1")
    assert term_distance(ab, ba) < 1e-14


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_designated_triples():
    bt = BranchTriple(3, -2, 7)
    assert designated_triple("product", bt) == BranchTriple(3, -2, 3)
    assert designated_triple("reversed", bt) == BranchTriple(3, -2, -2)
    assert designated_triple("iterate", bt) == BranchTriple(-2, -2, 7)
    with pytest.raises(ValueError):
        designated_triple("inner", bt)
    assert REGIONS == ("product", "reversed", "iterate")


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
    with pytest.raises(ValueError):
        in_region("outer", 2.5, 1.0)


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
    keys = exp.group_keys()
    assert keys == sorted(keys, key=lambda c: (c.real, c.imag))
    assert all(exp.groups[k].terms for k in keys)


def test_expand_region_validation():
    with pytest.raises(ValueError):
        expand_region(MIXED, "spiral", BranchTriple(0, 0, 0), 10)
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
    with pytest.raises(ValueError, match="outside the " + region):
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


# Integer exponents take _power's repeated-multiplication path.
INTEGER_EXPONENTS = LogFunction([
    LogMonomial(0.5 - 1.0j, r=2.0, s=-1.0, t=1.0, m=1),
    LogMonomial(2.0, r=-1.0, t=3.0, n=1),
    LogMonomial(0.25j, s=2.0, l=2),
])


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("f", [MIXED, LOG_HEAVY, INTEGER_EXPONENTS],
                         ids=["mixed", "log-heavy", "integer-exponents"])
def test_region_series_eval_matches_groupwise_eval_branch2(f, region):
    # The group-by-group evaluation RegionExpansion.eval used to run: the
    # shared term loop must give the same bits.
    exp = expand_region(f, region, BranchTriple(1, -1, 0), 30)
    rng = np.random.default_rng(REGIONS.index(region))
    checked = 0
    while checked < 8:
        z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
        if not in_region(region, z1, z2, margin=0.05):
            continue
        want = sum(eval_branch2(exp.groups[k], exp.designated, z1, z2)
                   for k in exp.group_keys())
        assert exp.eval(z1, z2) == want
        checked += 1


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
    assert abs(res.start_value - 1.5 ** (1.0 / 3.0)) < 1e-14
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
    assert rel_gap(res.end_value, res.start_value) < 1e-12


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
