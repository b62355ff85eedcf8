"""Tests for exchange and contragredient transforms and automorphism actions."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    AutomorphismAction,
    BranchTriple,
    CorrelationFamily,
    LogFunction,
    LogMonomial,
    QuasiPrimaryData,
    a_action,
    a_eval_relations,
    a_transform,
    check_g1_shift,
    check_g2_shift,
    check_shifts,
    contragredient_family,
    diagonal_action,
    eval_branch2,
    inv_branch,
    lp,
    make_random,
    omega_action,
    omega_family,
    omega_transform,
    one_var_shadow,
    phi_precompose,
    point_logs,
    q_offset_product,
    quasi_primary_modify,
    quasi_primary_unmodify,
    term_distance,
)
from twistlab import transforms

PI_I = 1j * math.pi


def rel_gap(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


MIXED = LogFunction([
    LogMonomial(1.0, r=0.5, s=0.3 + 0.1j, t=1.0 / 3.0, m=1),
    LogMonomial(0.5 - 0.25j, r=1.5, s=-0.7 + 0.1j, t=4.0 / 3.0),
])

LOGGY = LogFunction([
    LogMonomial(1.0, r=0.5, t=1.0 / 3.0, l=1, n=1),
    LogMonomial(0.25j, s=-0.5, m=2),
])

TRIPLES = [BranchTriple(0, 0, 0), BranchTriple(1, -1, 0), BranchTriple(-1, 1, 1)]

POINTS = [
    (1.3 * cmath.exp(0.7j), 0.9 * cmath.exp(2.1j)),
    (2.0 * cmath.exp(3.9j), 0.6 * cmath.exp(1.1j)),
    (1.1 * cmath.exp(5.5j), 1.6 * cmath.exp(0.3j)),
]


# ---------------------------------------------------------------------------
# sign handling
# ---------------------------------------------------------------------------


def test_sign_spellings_agree():
    # A sign is the number 1 or -1, int or float; no string spells one.
    f = LogFunction([LogMonomial(1.0, s=0.25)])
    assert term_distance(omega_transform(f, 1.0), omega_transform(f, 1)) == 0.0
    assert term_distance(omega_transform(f, -1.0), omega_transform(f, -1)) == 0.0
    for sign in (2, 0, "+", "plus", "-", "minus"):
        for transform in (omega_transform, a_transform):
            with pytest.raises(ValueError, match="^sign must be 1 or -1, got "):
                transform(f, sign)


# ---------------------------------------------------------------------------
# exchange rewrite
# ---------------------------------------------------------------------------


def test_omega_frozen_single_term():
    f = LogFunction([LogMonomial(2.0, r=0.5, s=1.0 / 3.0, t=1.5)])
    want = LogFunction([
        LogMonomial(2.0 * cmath.exp(PI_I / 3.0), r=1.5, s=1.0 / 3.0, t=0.5),
    ])
    assert term_distance(omega_transform(f, 1), want) < 1e-15


def test_omega_frozen_log_binomial():
    # The log z2 power expands binomially against the sign's half-turn shift.
    f = LogFunction([LogMonomial(1.0, s=0.25, m=1)])
    ph = cmath.exp(-0.25 * PI_I)
    want = LogFunction([
        LogMonomial(ph, s=0.25, m=1),
        LogMonomial(-PI_I * ph, s=0.25),
    ])
    assert term_distance(omega_transform(f, -1), want) < 1e-15


def test_omega_swaps_outer_log_slots():
    f = LogFunction([LogMonomial(1.0, l=2, n=1)])
    g = omega_transform(f, 1)
    assert len(g.terms) == 1
    u = g.terms[0]
    assert (u.l, u.m, u.n) == (1, 0, 2)


def test_omega_involution_opposite_signs():
    for seed in (1, 5, 9, 23):
        f = make_random(seed).fam.functions[0]
        for sign in (1, -1):
            back = omega_transform(omega_transform(f, sign), -sign)
            assert term_distance(back, f) < 1e-12


def test_omega_same_sign_twice_is_phase_not_identity():
    f = LogFunction([LogMonomial(1.0, s=1.0 / 3.0)])
    twice = omega_transform(omega_transform(f, 1), 1)
    assert term_distance(twice, f) > 0.5
    want = LogFunction([LogMonomial(cmath.exp(2.0 * PI_I / 3.0), s=1.0 / 3.0)])
    assert term_distance(twice, want) < 1e-15


@pytest.mark.parametrize("sign,a2", [(1, 0.8), (-1, 4.0)])
def test_omega_pointwise_relocation(sign, a2):
    # The exchanged function at (z1, z2) equals the original at
    # (z1 - z2, -z2) with the outer branch indices traded; each sign's law
    # holds on its side of arg z2 = pi.
    g = omega_transform(MIXED, sign)
    z1 = 1.7 * cmath.exp(2.0j)
    z2 = 1.2 * cmath.exp(1j * a2)
    for P in TRIPLES:
        lhs = eval_branch2(g, P, z1, z2)
        rhs = eval_branch2(MIXED, BranchTriple(P.p12, P.p2, P.p1), z1 - z2, -z2)
        assert rel_gap(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# contragredient rewrite
# ---------------------------------------------------------------------------


def test_a_frozen_single_term():
    f = LogFunction([LogMonomial(1.0, r=0.5, s=1.0 / 3.0, t=1.5)])
    want = LogFunction([
        LogMonomial(cmath.exp(1.5 * PI_I), r=-2.0, s=-(1.0 / 3.0 + 1.5), t=1.5),
    ])
    assert term_distance(a_transform(f, 1), want) < 1e-15


def test_a_frozen_difference_log_multinomial():
    # log(z1-z2) opens into log(z1-z2) - log z1 - log z2 + pi*i, so one
    # power produces four terms.
    f = LogFunction([LogMonomial(1.0, t=0.5, n=1)])
    want = LogFunction([
        LogMonomial(1j, r=-0.5, s=-0.5, t=0.5, n=1),
        LogMonomial(-1j, r=-0.5, s=-0.5, t=0.5, l=1),
        LogMonomial(-1j, r=-0.5, s=-0.5, t=0.5, m=1),
        LogMonomial(-math.pi, r=-0.5, s=-0.5, t=0.5),
    ])
    assert term_distance(a_transform(f, 1), want) < 1e-15


def test_a_frozen_log_parity():
    # Plain outer logs only flip sign with the parity of l + m.
    f = LogFunction([LogMonomial(1.0, r=0.5, l=1)])
    want = LogFunction([LogMonomial(-1.0, r=-0.5, l=1)])
    assert term_distance(a_transform(f, -1), want) < 1e-15


def test_a_involution_opposite_signs():
    for seed in (1, 5, 9, 23):
        f = make_random(seed).fam.functions[0]
        for sign in (1, -1):
            back = a_transform(a_transform(f, sign), -sign)
            assert term_distance(back, f) < 1e-12
    # Log-bearing terms exercise the multinomial cancellation.
    for sign in (1, -1):
        back = a_transform(a_transform(LOGGY, sign), -sign)
        assert term_distance(back, LOGGY) < 1e-12


@pytest.mark.parametrize("rewrite, term, fits", [
    (omega_transform, lambda m: LogMonomial(1.0, m=m), 19),  # m + 1 terms
    (a_transform, lambda n: LogMonomial(1.0, n=n), 3),  # C(n + 3, 3) terms
], ids=["omega", "a"])
def test_transforms_refuse_more_terms_than_the_series_budget(monkeypatch, rewrite, term, fits):
    monkeypatch.setattr(transforms, "SERIES_BUDGET", 20)
    assert rewrite(LogFunction([term(fits)]), 1).terms
    made = []
    monkeypatch.setattr(transforms, "LogMonomial", lambda *args, **kwargs: made.append(args))
    for f in (LogFunction([term(fits + 1)]), LogFunction([term(fits), term(0)]),
              LogFunction([term(2 ** 62)])):
        with pytest.raises(ValueError, match=r"needs \d+ terms, over the series budget "
                                             r"\(SERIES_BUDGET = 20\)"):
            rewrite(f, -1)
    assert made == []  # refused before making any term


@pytest.mark.parametrize("sign", [1, -1])
def test_a_pointwise_inversion(sign):
    # The transformed function at (z1, z2) equals the weight-modified
    # original at (1/z1, 1/z2) on inverted indices, with the difference
    # index corrected by the product branch offset (and one more for -).
    qp = QuasiPrimaryData(wt_u=1, h1=0.75)
    fmod = quasi_primary_modify(MIXED, qp, sign)
    h = a_transform(fmod, sign)
    z1, z2 = 1.5 * cmath.exp(1.2j), 0.7 * cmath.exp(5.0j)
    q = q_offset_product(z1, z2)
    assert q == 1
    for P in TRIPLES:
        p12 = P.p12 - P.p1 - P.p2 - q - (0 if sign > 0 else 1)
        inv_bt = BranchTriple(inv_branch(P.p1, z1), inv_branch(P.p2, z2), p12)
        lhs = eval_branch2(h, P, z1, z2)
        rhs = eval_branch2(fmod, inv_bt, 1.0 / z1, 1.0 / z2)
        assert rel_gap(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# quasi-primary weight factors
# ---------------------------------------------------------------------------


def test_quasi_primary_modify_frozen():
    qp = QuasiPrimaryData(wt_u=1, h1=0.75)
    f = LogFunction([LogMonomial(1.0, r=0.5)])
    got = quasi_primary_modify(f, qp, 1)
    scale = cmath.exp(PI_I) * cmath.exp(0.75 * PI_I)
    want = LogFunction([LogMonomial(scale, r=2.5, s=1.5)])
    assert term_distance(got, want) < 1e-15


def test_quasi_primary_round_trip():
    qp = QuasiPrimaryData(wt_u=-2, h1=1.0 / 3.0)
    for sign in (1, -1):
        back = quasi_primary_unmodify(
            quasi_primary_modify(LOGGY, qp, sign), qp, sign)
        assert term_distance(back, LOGGY) < 1e-13


def test_full_contragredient_pipeline_round_trip():
    qp = QuasiPrimaryData(wt_u=1, h1=0.75)
    for seed in (5, 23):
        f = make_random(seed).fam.functions[0]
        for sign in (1, -1):
            back = quasi_primary_unmodify(
                a_transform(
                    a_transform(quasi_primary_modify(f, qp, sign), sign),
                    -sign),
                qp, sign)
            assert term_distance(back, f) < 1e-12


# ---------------------------------------------------------------------------
# automorphism actions
# ---------------------------------------------------------------------------


def test_diagonal_action_exact_channel():
    act = diagonal_action([Fraction(1, 3), Fraction(2, 3)],
                          [Fraction(1, 2), Fraction(1, 4)])
    assert act.dim == 2
    assert act.composition_defect() < 1e-14
    assert (act.phases1, act.phases2) == ((Fraction(1, 3), Fraction(2, 3)),
                                          (Fraction(1, 2), Fraction(1, 4)))
    # g3 is diagonal in the summed phases, 5/6 and 11/12.
    assert np.allclose(np.diagonal(act.g3), np.exp(2j * np.pi * np.array([5 / 6, 11 / 12])),
                       rtol=0.0, atol=1e-15)


def test_action_without_phases_keeps_none():
    g = np.eye(2, dtype=complex)
    act = AutomorphismAction(g, g, g)
    assert act.phases1 is None and act.phases2 is None
    assert act.composition_defect() == 0.0
    assert a_action(act).phases2 is None


@pytest.mark.parametrize("sign", [1, -1])
def test_omega_action_swaps_diagonal_phases(sign):
    act = diagonal_action([Fraction(1, 3), Fraction(2, 3)],
                          [Fraction(1, 2), Fraction(1, 4)])
    swapped = omega_action(act, sign)
    assert swapped.phases1 == act.phases2
    assert swapped.phases2 == act.phases1
    assert swapped.composition_defect() < 1e-14
    assert float(np.max(np.abs(swapped.g3 - act.g3))) == 0.0


def test_omega_action_involution():
    act = diagonal_action([Fraction(1, 3)], [Fraction(1, 2)])
    for sign in (1, -1):
        back = omega_action(omega_action(act, sign), -sign)
        for a, b in ((back.g1, act.g1), (back.g2, act.g2), (back.g3, act.g3)):
            assert float(np.max(np.abs(a - b))) < 1e-14


def test_a_action_frozen_phases():
    act = diagonal_action([Fraction(1, 3)], [Fraction(1, 2)])
    got = a_action(act)
    assert got.phases1 == (Fraction(1, 3),)
    assert got.phases2 == (Fraction(1, 6),)
    assert got.composition_defect() < 1e-14
    # g2' = g3^{-1}, diagonal in -(1/3 + 1/2) = 1/6 mod 1.
    assert abs(got.g2[0, 0] - cmath.exp(2j * math.pi / 6)) < 1e-15


# ---------------------------------------------------------------------------
# families and shift identities
# ---------------------------------------------------------------------------


def test_family_dimension_must_match_action():
    act = diagonal_action([Fraction(0)], [Fraction(0)])
    with pytest.raises(ValueError):
        CorrelationFamily((MIXED, LOGGY), act)


def test_generated_families_satisfy_shifts():
    for seed in (3, 7, 11, 19):
        sc = make_random(seed)
        assert check_g1_shift(sc.fam, sc.bt, POINTS) < 1e-12
        assert check_g2_shift(sc.fam, sc.bt, POINTS) < 1e-12


def test_shift_check_detects_perturbed_action():
    sc = make_random(19)
    sc.fam.action.g1 = sc.fam.action.g1 * 1.01
    assert check_g1_shift(sc.fam, sc.bt, POINTS) > 1e-3


def test_transformed_families_satisfy_shifts():
    sc = make_random(7)
    qp = QuasiPrimaryData(wt_u=1, h1=0.5)
    for sign in (1, -1):
        assert check_g1_shift(omega_family(sc.fam, sign), sc.bt, POINTS) < 1e-12
        hfam = contragredient_family(sc.fam, qp, sign)
        assert check_g1_shift(hfam, sc.bt, POINTS) < 1e-12
        assert check_g2_shift(hfam, sc.bt, POINTS) < 1e-12


def test_check_shifts_equals_the_two_separate_defects():
    sc = make_random(19)
    qp = QuasiPrimaryData(wt_u=1, h1=0.5)
    broken = CorrelationFamily(sc.fam.functions, AutomorphismAction(
        sc.fam.action.g1 * 1.01, sc.fam.action.g2 * cmath.exp(0.2j), sc.fam.action.g3))
    families = [sc.fam, broken, omega_family(sc.fam, -1), contragredient_family(sc.fam, qp, 1)]
    for fam in families:
        for bt in TRIPLES:
            both = check_shifts(fam, bt, POINTS)
            assert both == (check_g1_shift(fam, bt, POINTS), check_g2_shift(fam, bt, POINTS))
    assert min(check_shifts(broken, sc.bt, POINTS)) > 1e-3


def test_check_shifts_evaluates_each_reference_once(monkeypatch):
    sc = make_random(19)
    calls = []
    eval_parts = transforms.eval_parts
    monkeypatch.setattr(transforms, "eval_parts",
                        lambda parts, logs: calls.append((parts, logs)) or eval_parts(parts, logs))
    check_shifts(sc.fam, sc.bt, POINTS)
    # One kernel call: each label's reference on bt, then the g1- and the
    # g2-moved labels on their shifted triples.
    [(parts, logs)] = calls
    assert len(parts) == len(logs) == 3 * sc.dim
    references = [i for i, part in enumerate(parts)
                  if any(part is f for f in sc.fam.functions)]
    assert references == list(range(sc.dim))
    triples = [sc.bt, BranchTriple(sc.bt.p1, sc.bt.p2, sc.bt.p12 + 1),
               BranchTriple(sc.bt.p1 + 1, sc.bt.p2, sc.bt.p12)]
    for k, bt in enumerate(triples):
        block = logs[k * sc.dim:(k + 1) * sc.dim]
        assert all(table is block[0] for table in block)  # one logs array per triple
        assert np.array_equal(block[0], point_logs((bt, z1, z2) for z1, z2 in POINTS))


def test_phi_precompose_preserves_shifts():
    sc = make_random(19)
    assert sc.dim == 2
    h = np.array([[1.0, 1.0], [0.0, 1.0]])
    fam2 = phi_precompose(sc.fam, h)
    assert check_g1_shift(fam2, sc.bt, POINTS) < 1e-12
    assert check_g2_shift(fam2, sc.bt, POINTS) < 1e-12
    # A non-diagonal relabeling invalidates the exact phase data.
    assert fam2.action.phases1 is None
    fam3 = phi_precompose(sc.fam, np.diag([1.0, 2.0]))
    assert fam3.action.phases1 == sc.fam.action.phases1


def test_omega_family_wiring():
    sc = make_random(7)
    for sign in (1, -1):
        gfam = omega_family(sc.fam, sign)
        assert gfam.dim == sc.dim
        assert gfam.action.phases1 == sc.fam.action.phases2
        for g, f in zip(gfam.functions, sc.fam.functions):
            assert term_distance(g, omega_transform(f, sign)) == 0.0


# ---------------------------------------------------------------------------
# one-variable shadow and relation
# ---------------------------------------------------------------------------


def test_one_var_shadow_merges():
    f = LogFunction([
        LogMonomial(2.0, r=0.5, s=0.3, m=1, n=1),
        LogMonomial(1.0j, t=1.5, s=0.3, m=1),
    ])
    assert one_var_shadow(f) == LogFunction([LogMonomial(2 + 1j, s=0.3 + 0j, m=1)])


def test_one_var_shadow_frozen():
    # The shadow is a function of z2 alone, so eval_branch2 on (0, p, 0)
    # at z1 = -z, z2 = z is its value on branch p at z.
    root = one_var_shadow(LogFunction([LogMonomial(1.0, r=0.25, s=0.5, t=1.5, l=1)]))
    assert root == LogFunction([LogMonomial(1.0, s=0.5)])
    assert abs(eval_branch2(root, BranchTriple(0, 1, 0), -4.0, 4.0) + 2.0) < 1e-14
    log = one_var_shadow(LogFunction([LogMonomial(1.0, t=2.0, m=1, n=3)]))
    assert abs(eval_branch2(log, BranchTriple(0, 2, 0), -1.0, 1.0) - 2 * 2 * math.pi * 1j) < 1e-14
    with pytest.raises(ValueError):
        eval_branch2(root, BranchTriple(0, 0, 0), -0.0, 0.0)


Z2_ONLY = LogFunction([
    LogMonomial(1.0, s=0.5),
    LogMonomial(0.3 - 0.2j, s=-1.5 + 0.25j, m=1),
    LogMonomial(-2.0, s=2.0, m=2),
    LogMonomial(0.7j, m=3),
])


@pytest.mark.parametrize("p", [-1, 0, 2])
@pytest.mark.parametrize("z", [1.7 + 0.0j, 0.4 + 0.0j, 1.3 * cmath.exp(2.2j),
                               0.6 * cmath.exp(-2.9j), -0.8 + 0.0j],
                         ids=["axis", "axis-small", "upper", "lower", "cut"])
def test_eval_branch2_of_a_z2_only_function(z, p):
    # Sum a * z^s * lp(p, z)^m term by term, z^s single valued for whole s.
    L = lp(p, z)
    terms = []
    for u in Z2_ONLY.terms:
        s = complex(u.s)
        power = z ** int(s.real) if s == int(s.real) else cmath.exp(s * L)
        terms.append(complex(u.coeff) * power * L ** u.m)
    bound = (len(terms) + 16) * 2.0 ** -53 * sum(map(abs, terms))
    assert abs(eval_branch2(Z2_ONLY, BranchTriple(0, p, 0), -z, z) - sum(terms)) <= bound


def test_a_eval_relation_on_and_off_axis():
    qp = QuasiPrimaryData(wt_u=1, h1=0.75)
    for sign in (1, -1):
        for z in (2.0, 1.3 * cmath.exp(2.2j)):
            for p in (-1, 0, 1):
                assert a_eval_relations(MIXED, qp, [(p, z)], sign)[0] < 1e-9


def test_a_eval_relation_rejects_zero():
    with pytest.raises(ValueError):
        a_eval_relations(MIXED, QuasiPrimaryData(), [(0, 0.0)], 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_eval_relations_equal_the_one_probe_function(sign):
    qp = QuasiPrimaryData(wt_u=1, h1=0.75)
    p2 = 2
    probes = [(p, z) for z in (0.9, 2.0 + 0.0j, 1.3 * cmath.exp(2.2j), 0.6 * cmath.exp(-2.9j))
              for p in (p2 - 1, p2, p2 + 1)]
    defects = a_eval_relations(MIXED, qp, probes, sign)
    assert [d.hex() for d in defects] == [a_eval_relations(MIXED, qp, [(p, z)], sign)[0].hex()
                                          for p, z in probes]
    assert max(defects) < 1e-9


def test_a_eval_relations_reject_a_zero_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(transforms, "eval_branch2", lambda *args: calls.append(args) or 0j)
    with pytest.raises(ValueError, match="z must be nonzero"):
        a_eval_relations(MIXED, QuasiPrimaryData(), [(0, 2.0), (1, 1j), (0, 0.0)], 1)
    assert calls == []
    assert a_eval_relations(MIXED, QuasiPrimaryData(), [], 1) == []
