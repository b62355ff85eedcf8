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
    for h in (2 * f, f + g, f * g, normalize(f * g), group):
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
    rows = expand_region(f, "product", BranchTriple(0, 0, 0), order).rows
    assert [_bits(row[0]) for row in rows] == [_bits(w) for w in want.tolist()]


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
    # The group-by-group evaluation RegionExpansion.eval used to run: the
    # packed rows must give the same bits.
    for order in (30, 60, 200):
        exp = expand_region(f, region, BranchTriple(1, -1, 0), order)
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
    assert len(exp.group_keys()) > 1
    assert made == []
    groups = exp.groups
    assert len(made) == len(exp.rows) == sum(len(g.terms) for g in groups.values())
    assert exp.groups is groups
    assert len(made) == len(exp.rows)  # the second read built nothing
    assert list(groups) != exp.group_keys()  # met in normalize's order, not key order
    assert sorted(groups, key=lambda c: (c.real, c.imag)) == exp.group_keys()


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
    [packed] = logfun._exponents(np.array([c], dtype=complex))
    assert type(packed) is int and packed == k
    want = _outcome(lambda: complex(z) ** int(complex(c).real))
    assert _outcome(lambda: z ** k) == want
    # Through eval_branch2 and eval_branch1, whose sums start at 0j.
    want = _outcome(lambda: complex(z) ** int(complex(c).real) + 0j)
    f = LogFunction([LogMonomial(1.0, r=c)])
    assert _outcome(lambda: eval_branch2(f, BranchTriple(0, 0, 0), z, 7.0) + 0j) == want
    assert _outcome(lambda: eval_branch1(OneVarLogSeries([(1.0, c, 0)]), 0, z) + 0j) == want
    # Through expand_region rows: the exponent rising with k (s, r or t) is
    # c + k, so an order-0 series carries c + 0.
    for region, slot in (("product", "s"), ("reversed", "r"), ("iterate", "t")):
        g = LogFunction([LogMonomial(1.0, **{slot: c})])
        [row] = expand_region(g, region, BranchTriple(0, 0, 0), 0).rows
        got = row[1 + "rst".index(slot)]
        assert type(got) is int and got == k


def test_expand_region_keeps_huge_log_powers_apart():
    # 2**53 and 2**53 + 1 are one float; 2**63 and 2**63 + 1 do not fit
    # int64; 10**30 fits no fixed-width int.
    for powers in ((2 ** 53, 2 ** 53 + 1), (2 ** 63, 2 ** 63 + 1), (2 ** 53, 10 ** 30)):
        f = LogFunction([LogMonomial(1.0, r=0.5, t=0.5, l=l) for l in powers])
        rows = expand_region(f, "product", BranchTriple(0, 0, 0), 2).rows
        assert sorted({row[4] for row in rows}) == list(powers)
        assert {type(row[4]) for row in rows} == {int}
        assert len(rows) == 2 * 3  # no terms merged: one per power and k
    # Nor do exponents one ulp apart merge beside a log power past int64.
    near = np.nextafter(0.5, 1.0)
    f = LogFunction([LogMonomial(1.0, s=s, l=2 ** 63) for s in (0.5, near)])
    rows = expand_region(f, "product", BranchTriple(0, 0, 0), 0).rows
    assert [row[2] for row in rows] == [0.5, near]


def _reference_sum_terms(rows, starts, z1, z2, w, L1, L2, L12):
    """The term loop that made every row's powers afresh (no reuse)."""
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


def _complex_runs(rows) -> int:
    """Runs of equal bits among the complex exponents of rows, column by column."""
    runs = 0
    for col in (1, 2, 3):
        for prev, row in zip([None, *rows], rows):
            here = row[col]
            if here.__class__ is complex:
                before = prev[col] if prev else None
                runs += before.__class__ is not complex or _bits(before) != _bits(here)
    return runs


def _counted_sum_terms(rows, starts, logs, monkeypatch) -> int:
    """cmath.exp calls of one _sum_terms, after checking its bits against
    the reference loop."""
    want = _reference_sum_terms(rows, starts, *logs)
    calls = []
    exp_fn = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda c: calls.append(c) or exp_fn(c))
    got = logfun._sum_terms(rows, starts, *logs)
    monkeypatch.setattr(cmath, "exp", exp_fn)
    assert _bits(got) == _bits(want)
    return len(calls)


# Points on the positive real axis and the unit circle give logs with zero
# parts, where a signed zero in an exponent can reach a power's bits.
SIGNED_ZERO_POINTS = [(2.0 + 0.0j, 0.5 + 0.0j), (1j, 0.5 + 0.0j), (-1.0 + 0.0j, 1.5 + 0.0j),
                      (1.3 * cmath.exp(0.7j), 0.4 * cmath.exp(-2.0j))]


def test_rows_differing_in_a_zero_sign_match_the_reference_loop(monkeypatch):
    minus, plus = complex(-0.5, -0.0), complex(-0.5, 0.0)
    shared = complex(0.0, -0.25)
    rows = [(complex(1.0, -0.0), minus, shared, 2, 0, 0, 0),
            (complex(1.0, 0.0), plus, shared, 2, 1, 0, 0),
            (complex(-1.0, -0.0), minus, complex(-0.0, -0.25), 0, 0, 1, 0),
            (complex(0.0, 1.0), minus, complex(0.0, -0.25), 0, 0, 0, 1),
            (complex(-0.0, -1.0), complex(-0.5, -0.0), plus, -1, 2, 0, 0)]
    for bt in (BranchTriple(0, 0, 0), BranchTriple(-1, 1, 0)):
        for z1, z2 in SIGNED_ZERO_POINTS:
            logs = logfun._point_logs(bt, z1, z2)
            for starts in ([], [2], [1, 3, 4]):
                # One power per run of one object: r runs minus | plus |
                # minus, minus | an equal copy of minus, and s runs shared,
                # shared | -0 - 0.25j | +0 - 0.25j | plus.  Reuse on == would
                # make 3 + 2.
                assert _counted_sum_terms(rows, starts, logs, monkeypatch) == 4 + 4
    # Through expand_region: r + t is 0.75 - 0j for the first term and
    # 0.75 + 0j for the second, so each group holds a row of each, side by side.
    f = LogFunction([LogMonomial(1.0, r=complex(0.5, -0.0), t=complex(0.25, -0.0)),
                     LogMonomial(complex(0.5, -0.0), r=0.5, t=0.25, l=1)])
    exp = expand_region(f, "product", BranchTriple(0, 0, 0), 8)
    pairs = [(u[1], v[1]) for u, v in zip(exp.rows, exp.rows[1:]) if u[1] == v[1]]
    assert len(pairs) == 9
    assert all(_bits(a) != _bits(b) and a is not b for a, b in pairs)
    for z1, z2 in [(2.0 + 0.0j, 0.5 + 0.0j), (1j, 0.5 + 0.0j), (1.3 + 0.2j, 0.4 - 0.3j)]:
        logs = logfun._point_logs(exp.designated, z1, z2)
        assert _bits(exp.eval(z1, z2)) == _bits(
            _reference_sum_terms(exp.rows, exp.starts, *logs))


@pytest.mark.parametrize("region", REGIONS)
def test_region_series_makes_one_power_per_run_of_equal_exponents(region, monkeypatch):
    exp = expand_region(ALL_LOG_POWERS, region, BranchTriple(1, -1, 0), 60)
    runs = _complex_runs(exp.rows)
    complex_entries = sum(row[col].__class__ is complex for row in exp.rows for col in (1, 2, 3))
    assert runs < complex_entries / 2  # rows do share powers
    rng = np.random.default_rng(5)
    points = 0
    while points < 3:
        z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
        if in_region(region, z1, z2, margin=0.05):
            logs = logfun._point_logs(exp.designated, z1, z2)
            assert _counted_sum_terms(exp.rows, exp.starts, logs, monkeypatch) == runs
            points += 1


def test_expand_region_whose_every_coefficient_drops_is_empty():
    f = LogFunction([LogMonomial(1e-16, r=0.5, t=-0.5)])
    for region in REGIONS:
        exp = expand_region(f, region, BranchTriple(0, 0, 0), 10)
        assert (exp.rows, exp.starts, exp.keys, exp.groups) == ([], [], [], {})
        z1, z2 = {"product": (2.0, 0.5j), "reversed": (0.5j, 2.0),
                  "iterate": (2.0 + 0.3j, 1.8)}[region]
        assert exp.eval(z1, z2) == 0j


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
