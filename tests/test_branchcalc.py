"""Branch index arithmetic: identities, frozen corner cases, error paths."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistlab import (
    diff_inv_branch,
    inv_branch,
    lp,
    neg_branch,
    principal_arg,
    q_offset_product,
    ratio_arg_decomposition,
)

TWO_PI = 2.0 * math.pi


def polar(rad, ang):
    return rad * cmath.exp(1j * ang)


# principal_arg snaps directions within ~1e-14 of the positive real axis
# onto it, so an argument is only trustworthy when the point is exactly
# real or clear of that band.  Generated angles are exactly 0 or bounded
# away from 0, pi and 2*pi, which keeps z, -z and 1/z all clear at once.
angle_clear = st.floats(min_value=1e-6, max_value=TWO_PI - 1e-6).filter(
    lambda a: abs(a - math.pi) > 1e-6)
nonzero = st.builds(
    polar,
    st.floats(min_value=0.05, max_value=20.0),
    st.one_of(st.just(0.0), angle_clear),
)
branch_index = st.integers(min_value=-5, max_value=5)


def near_axis(rad, side, slope):
    """A point of modulus about rad by the positive (side 1) or negative
    (side -1) real half-axis, its direction slope * 1e-14 from the axis:
    inside the snap band for |slope| <= 1, just outside it above."""
    return side * complex(rad, slope * 1e-14 * rad)


def band_edge(re, ulps):
    """Re z * 1e-14, the snap band's edge at Re z, moved by ulps ulps."""
    y = 1e-14 * re
    for _ in range(abs(ulps)):
        y = math.nextafter(y, math.copysign(math.inf, ulps))
    return y


# Points in and just beyond the snap band of either half-axis, and at its
# edge to within 2 ulps, on both sides.  The snap moves an argument by up
# to 1e-14, so there the identities hold to that plus rounding.
band = st.one_of(
    st.builds(near_axis, st.floats(min_value=0.05, max_value=20.0), st.sampled_from([1, -1]),
              st.floats(min_value=-3.0, max_value=3.0)),
    st.builds(lambda re, ulps, side, below: side * complex(re, below * band_edge(re, ulps)),
              st.floats(min_value=0.05, max_value=20.0), st.integers(-2, 2),
              st.sampled_from([1, -1]), st.sampled_from([1, -1])))
BAND_TOL = 2e-14


def off_axis(u, margin=1e-3):
    """True when u is exactly real or its direction clears the snap band."""
    return u.imag == 0.0 or abs(math.atan2(u.imag, u.real)) > margin


# ---------------------------------------------------------------------------
# principal_arg and lp
# ---------------------------------------------------------------------------


def test_principal_arg_frozen_values():
    assert principal_arg(1.0) == 0.0
    assert principal_arg(-1.0) == pytest.approx(math.pi)
    assert principal_arg(1j) == pytest.approx(math.pi / 2)
    assert principal_arg(-1j) == pytest.approx(3 * math.pi / 2)


def test_principal_arg_snaps_to_axis():
    # Tiny imaginary parts next to a positive real part count as "on the
    # cut's 0 side", from either direction.
    assert principal_arg(complex(2.0, 1e-15)) == 0.0
    assert principal_arg(complex(2.0, -1e-15)) == 0.0
    # Well off the snap band the argument is genuinely nonzero.
    assert principal_arg(complex(2.0, 1e-9)) > 0.0


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e-14, 1.0, 1e20, 1e300])
def test_principal_arg_snap_band_is_relative_at_any_scale(scale):
    # The band is 1e-14 of the real part: a point's argument, and so its
    # log, does not depend on how far it is from 0.
    z = scale * cmath.exp(0.3j)
    assert principal_arg(z) == pytest.approx(0.3, rel=1e-12)
    assert principal_arg(complex(scale, scale * 1e-15)) == 0.0
    assert principal_arg(complex(scale, scale * 1e-13)) > 0.0
    assert cmath.exp(lp(0, z) - lp(0, scale)) == pytest.approx(cmath.exp(0.3j), rel=1e-12)


def test_principal_arg_rejects_zero():
    with pytest.raises(ValueError):
        principal_arg(0.0)
    with pytest.raises(ValueError):
        lp(0, 0.0)


# NaN and inf each, in the real part and in the imaginary part.
NON_FINITE = [complex(math.nan, 0.0), complex(0.5, math.nan),
              complex(math.inf, 0.0), complex(0.5, -math.inf)]

# Each public function, with the non-finite value in each complex argument.
PUBLIC_CALLS = {
    "principal_arg": lambda z: principal_arg(z),
    "lp": lambda z: lp(2, z),
    "neg_branch": lambda z: neg_branch(0, z),
    "inv_branch": lambda z: inv_branch(0, z),
    "q_offset_product-z1": lambda z: q_offset_product(z, 1j),
    "q_offset_product-z2": lambda z: q_offset_product(1j, z),
    "diff_inv_branch-z1": lambda z: diff_inv_branch(0, 1, z, 1j),
    "diff_inv_branch-z2": lambda z: diff_inv_branch(0, 1, 1j, z),
    "ratio_arg_decomposition-z1": lambda z: ratio_arg_decomposition(z, 2.0),
    "ratio_arg_decomposition-z2": lambda z: ratio_arg_decomposition(2.0, z),
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "nan-imag", "inf", "inf-imag"])
@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS.keys())
def test_public_functions_reject_non_finite_input(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "nan-imag", "inf", "inf-imag"])
def test_lp_and_principal_arg_name_the_non_finite_input(bad):
    with pytest.raises(ValueError, match="argument of non-finite"):
        principal_arg(bad)
    with pytest.raises(ValueError, match="log of non-finite"):
        lp(0, bad)


def test_lp_frozen_values():
    assert lp(0, 1.0) == 0.0
    assert lp(0, 2.0) == pytest.approx(math.log(2.0))
    assert lp(0, -1.0) == pytest.approx(1j * math.pi)
    assert lp(1, 1j) == pytest.approx(1j * (math.pi / 2 + TWO_PI))
    assert lp(-2, 1.0) == pytest.approx(-2j * TWO_PI)


@given(nonzero, branch_index)
def test_lp_exponentiates_back(z, p):
    assert cmath.exp(lp(p, z)) == pytest.approx(z, rel=1e-12)


@given(nonzero, branch_index)
def test_lp_index_step_is_full_turn(z, p):
    assert lp(p + 1, z) - lp(p, z) == pytest.approx(2j * math.pi)


@given(nonzero, branch_index)
def test_lp_imag_window(z, p):
    im = lp(p, z).imag
    assert TWO_PI * p <= im < TWO_PI * (p + 1)


# ---------------------------------------------------------------------------
# negation and inversion
# ---------------------------------------------------------------------------


@given(st.one_of(nonzero, band), branch_index)
def test_neg_branch_identity(z, p):
    pn, sigma = neg_branch(p, z)
    assert sigma in (-1, 1)
    assert abs(lp(pn, -z) - lp(p, z) - sigma * 1j * math.pi) < BAND_TOL


@pytest.mark.parametrize("p", [-3, 0, 5])
@pytest.mark.parametrize("re, side", [(1.0, 1), (1.0, -1), (-1.0, 1), (-1.0, -1)])
def test_neg_branch_identity_across_the_band(re, side, p):
    # z = -1 + 1e-15i is not snapped, but -z is: no test of arg z alone
    # decides sigma there.
    for k in range(1, 201):
        z = complex(re, side * k * 1e-16)
        pn, sigma = neg_branch(p, z)
        assert abs(lp(pn, -z) - lp(p, z) - sigma * 1j * math.pi) < BAND_TOL, z


def test_neg_branch_sides():
    assert neg_branch(0, 1.0) == (0, 1)         # arg 0 < pi
    assert neg_branch(0, 1j) == (0, 1)          # arg pi/2 < pi
    assert neg_branch(3, -1.0) == (3, -1)       # arg pi
    assert neg_branch(0, -1j) == (0, -1)        # arg 3*pi/2


@given(st.one_of(nonzero, band), branch_index)
def test_inv_branch_identity(z, p):
    q = inv_branch(p, z)
    assert abs(lp(q, 1.0 / z) + lp(p, z)) < BAND_TOL


@pytest.mark.parametrize("below", [1, -1], ids=["above", "below"])
def test_inv_branch_identity_at_the_band_edge(below):
    # At the edge |Im z| = 1e-14 Re z rounding can snap 1/z and not z (or
    # the other way), so no test of z alone decides the index.
    res = np.random.default_rng(26).uniform(0.05, 40.0, 400).tolist()
    points = [complex(re, below * band_edge(re, ulps)) for re in res for ulps in range(-2, 3)]
    points.append(complex(1.5161307659532586, below * 1.5161307659532587e-14))
    for z in points:
        for p in (-2, 0, 3):
            assert abs(lp(inv_branch(p, z), 1.0 / z) + lp(p, z)) < BAND_TOL, z


@pytest.mark.parametrize("z", [complex(1e308, 1e308), complex(1e-310, 1e-310),
                               complex(-1e-310, 1e-320), complex(5e-324, 0.0)])
def test_inv_branch_where_the_inverse_leaves_the_float_range(z):
    # 1/z rounds to 0 or overflows: the index is that of the exact 1/z,
    # the same as at a point of ordinary size with z's direction.
    assert 1.0 / z == 0 or not cmath.isfinite(1.0 / z)
    assert inv_branch(2, z) == inv_branch(2, z / abs(z))


def test_inv_branch_frozen_values():
    assert inv_branch(0, 2.0) == 0
    assert inv_branch(3, 2.0) == -3
    assert inv_branch(0, 1j) == -1
    assert inv_branch(2, -1.0) == -3
    assert inv_branch(-1, -1j) == 0


# ---------------------------------------------------------------------------
# product offset q
# ---------------------------------------------------------------------------


@given(nonzero, nonzero)
def test_q_offset_window(z1, z2):
    w = z1 - z2
    assume(abs(w) > 1e-6)
    assume(off_axis(w) and off_axis(w / (z1 * (-z2))))
    q = q_offset_product(z1, z2)
    assert q in (-1, 0, 1, 2)
    lhs = principal_arg((z1 - z2) / (z1 * (-z2)))
    rhs = (principal_arg(z1 - z2) - principal_arg(z1) - principal_arg(z2)
           + (2 * q + 1) * math.pi)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_q_offset_frozen_values():
    assert q_offset_product(1j, 1.0) == 0
    assert q_offset_product(2.0, complex(2.0, 0.3)) == -1
    # Three principal arguments piled near the top of [0, 2*pi) push the
    # offset to its extreme value 2.
    z1 = cmath.exp(5.5j)
    z2 = z1 - 0.5 * cmath.exp(0.2j)
    assert q_offset_product(z1, z2) == 2
    # Unit vectors with large arguments: their difference points near the
    # positive axis, so the sum of arguments overshoots by two whole turns.
    assert q_offset_product(cmath.exp(5.0j), cmath.exp(4.5j)) == 2
    # Arguments around 2.5 with a difference pointing at angle 1 land on the
    # intermediate offset 1.
    z2 = cmath.exp(2.5j)
    assert q_offset_product(z2 + 0.5 * cmath.exp(1.0j), z2) == 1


def test_q_offset_rejects_degenerate():
    with pytest.raises(ValueError):
        q_offset_product(1.0, 1.0)
    with pytest.raises(ValueError):
        q_offset_product(0.0, 1.0)


# ---------------------------------------------------------------------------
# difference-of-inverses branch
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(st.one_of(st.tuples(st.just(False), nonzero, nonzero), st.tuples(st.just(True), band, band)),
       branch_index, branch_index)
def test_diff_inv_branch_is_minus_p2(pair, p1, p2):
    # Band pairs put z1, z2, z1 - z2 and w / (z1 (-z2)) in or by the snap
    # band (the quotient when z1 and z2 lie by opposite half-axes).
    in_band, z1, z2 = pair
    w = z1 - z2
    assume(abs(w) > 1e-6 * max(abs(z1), abs(z2)))
    assume(in_band or off_axis(w) and off_axis(w / (z1 * (-z2)))
           and off_axis(1.0 / z1 - 1.0 / z2))
    k, residual = diff_inv_branch(p1, p2, z1, z2)
    assert residual < 1e-9
    assert k == -p2


def test_diff_inv_branch_at_the_snap_band():
    # Here 1/z1 - 1/z2 rounds to argument 2 pi - 1e-14 and the quotient
    # w / (z1 (-z2)) that q reads into the snap band: k reads the quotient
    # too, or it comes out as -p2 - 1.
    z1 = 1.276517333851333 + 1.2765173338513332e-14j
    z2 = -1.9747314429842797 - 1.97473144298428e-14j
    for p1 in (-1, 0, 3):
        for p2 in (-1, 0, 2):
            k, residual = diff_inv_branch(p1, p2, z1, z2)
            assert (k, residual < BAND_TOL) == (-p2, True), (p1, p2)


def test_diff_inv_branch_frozen():
    k, residual = diff_inv_branch(0, 0, 3.0, 1.0)
    assert (k, residual < 1e-12) == (0, True)
    k, residual = diff_inv_branch(2, -1, 1j, -2.0)
    assert residual < 1e-12
    assert k == 1


# ---------------------------------------------------------------------------
# ratio argument decomposition
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)
def test_ratio_arg_two_arcs(frac, wang, r2, a2):
    z2 = polar(r2, a2)
    z1 = z2 + polar(frac * r2, wang)
    if abs(principal_arg(z1) - principal_arg(z2)) >= math.pi / 2 - 1e-9:
        return
    q, defect = ratio_arg_decomposition(z1, z2)
    assert q in (0, -1)
    assert defect < 1e-9


def test_ratio_arg_frozen():
    assert ratio_arg_decomposition(2.0, 1.9) == (0, 0.0)
    # Both points just below the positive axis, with the difference dipping
    # slightly lower still, force the wrapped arc.
    z2 = 2.0 * cmath.exp(6.0j)
    q, defect = ratio_arg_decomposition(z2 + 0.3 * cmath.exp(5.9j), z2)
    assert q == -1
    assert defect < 1e-12


def test_ratio_arg_preconditions():
    with pytest.raises(ValueError):
        ratio_arg_decomposition(4.0, 1.0)     # |z2| too small
    with pytest.raises(ValueError):
        ratio_arg_decomposition(2.0, 2.0)     # zero difference
    with pytest.raises(ValueError):
        ratio_arg_decomposition(-1.9j, 2.0)   # argument gap too wide
