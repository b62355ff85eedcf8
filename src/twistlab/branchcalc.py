"""Arithmetic of indexed logarithm branches.

Every multivalued quantity in this package is resolved through a single
convention, stated here alone: the principal argument of a nonzero
complex number lies in [0, 2*pi), so the branch cut sits on the positive
real axis and points on the axis itself belong to the 0 side.  The
indexed logarithm

    lp(p, z) = log|z| + i*(arg z + 2*pi*p),        p any integer,

then enumerates all values of log z.  Raising p by one adds 2*pi*i.

The convention includes a snap band: Re z > 0 and |Im z| <= 1e-14 * Re z
put z on the axis, argument exactly 0.  A sheet index means something
only against that rule, so each rule below relating two sheets rounds a
sum or difference of snapped arguments to whole turns.

The helper functions below track how the index transforms under negation,
inversion, and the two-variable difference z1 - z2.  These rules are the
whole content of branch bookkeeping: once an index is assigned to each of
z1, z2 and z1 - z2, every product of powers and logs is single valued.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi

# The snap band's width: it makes the "arg z = 0" cases of the transform
# formulas hold for inputs like complex(2.0, 0.0) with rounding noise.
_AXIS_SNAP = 1e-14


def _arg(z: complex) -> float:
    """principal_arg of a nonzero complex z, with the axis snap."""
    if z.real > 0.0 and abs(z.imag) <= _AXIS_SNAP * z.real:
        return 0.0
    a = cmath.phase(z)  # (-pi, pi]
    if a < 0.0:
        a += TWO_PI
    # Guard against a + 2*pi rounding back up to 2*pi itself.
    if a >= TWO_PI:
        a = 0.0
    return a


def _checked(z: complex, what: str) -> complex:
    """complex(z), or a ValueError naming what when z is zero or not finite."""
    z = complex(z)
    if z == 0:
        raise ValueError(f"{what} of zero is undefined")
    if not cmath.isfinite(z):
        raise ValueError(f"{what} of non-finite {z} is undefined")
    return z


def principal_arg(z: complex) -> float:
    """Principal argument of z in [0, 2*pi).

    Raises ValueError for z = 0 and for a non-finite z.  Points within
    1e-14 (relative) of the positive real axis are snapped to argument
    exactly 0.0.
    """
    return _arg(_checked(z, "argument"))


def lp(p: int, z: complex) -> complex:
    """Value of the p-th branch of log at z.

    lp(p, z) = log|z| + i*(principal_arg(z) + 2*pi*p).  Satisfies
    exp(lp(p, z)) = z for every integer p.  Raises ValueError for z = 0,
    for a non-finite z and for a z whose modulus is past the float range.
    """
    return _lp(p, _checked(z, "log"))


def _lp(p: int, z: complex) -> complex:
    """lp of a finite, nonzero complex z; a ValueError where |z| overflows."""
    try:
        modulus = abs(z)
    except OverflowError:
        raise ValueError(f"log of {z} is undefined: its modulus is past the float range") from None
    return complex(math.log(modulus), _arg(z) + TWO_PI * p)


def neg_branch(p: int, z: complex) -> tuple[int, int]:
    """Branch data for -z in terms of the branch of z.

    Returns (p, sigma) with sigma = +1 or -1 such that

        lp(p, -z) = lp(p, z) + sigma * pi * i.

    sigma is the sign of arg(-z) - arg z: the snapped arguments differ by
    pi up to the snap, so the identity holds to the snap band's width in
    argument, about 1e-14.
    """
    z = _checked(z, "argument")
    return p, 1 if _arg(-z) > _arg(z) else -1


def inv_branch(p: int, z: complex) -> int:
    """Branch index q such that lp(q, 1/z) = -lp(p, z).

    The identity asks that the snapped arguments sum to -2*pi*(p + q).
    Their sum is 0 or one turn up to rounding and the snap, so
    q = -p - round((arg(1/z) + arg z) / (2*pi)).
    """
    z = _checked(z, "argument")
    u = 1.0 / z
    u = u if u and cmath.isfinite(u) else z.conjugate()  # conj z where 1/z is out of range
    return -p - round((_arg(u) + _arg(z)) / TWO_PI)


def q_offset_product(z1: complex, z2: complex) -> int:
    """Integer offset q relating arg values of (z1 - z2)/(z1 * (-z2)).

    Returns the unique integer q with

        principal_arg((z1 - z2) / (z1 * (-z2)))
            = principal_arg(z1 - z2) - principal_arg(z1)
              - principal_arg(z2) + (2*q + 1)*pi

    where the left side lies in [0, 2*pi).  Both sides are congruent mod
    2*pi for any q (negating z2 shifts its argument by an odd multiple of
    pi), so q is found by rounding and then checked exactly against the
    window.  Over all admissible (z1, z2) the value ranges over
    {-1, 0, 1, 2}; the extremes occur only when the three principal
    arguments pile up near the ends of [0, 2*pi).
    """
    return _q_offset(*_pair(z1, z2))


def _pair(z1: complex, z2: complex) -> tuple[complex, complex, complex]:
    """(z1, z2, z1 - z2) as complex numbers, or a ValueError if one is 0."""
    z1 = complex(z1)
    z2 = complex(z2)
    w = z1 - z2
    if z1 == 0 or z2 == 0 or w == 0:
        raise ValueError("z1, z2 and z1 - z2 must all be nonzero")
    return z1, z2, w


def _q_offset(z1: complex, z2: complex, w: complex) -> int:
    """q_offset_product of complex z1, z2 and w = z1 - z2, all nonzero.

    Only the quotient's principal_arg checks its value: where the quotient
    is finite and nonzero, so are w, z1 and z2 (a non-finite one makes it
    nan, inf or 0), so their arguments need no check.
    """
    lhs = principal_arg(w / (z1 * (-z2)))
    base = _arg(w) - _arg(z1) - _arg(z2)
    q = round((lhs - base - math.pi) / TWO_PI)
    # The rounded q must reproduce lhs up to float noise; anything larger
    # signals an argument inconsistency upstream.
    defect = abs(base + (2 * q + 1) * math.pi - lhs)
    if defect > 1e-9:
        raise ArithmeticError(
            f"no integer offset matches: defect {defect:.3e} for z1={z1}, z2={z2}"
        )
    return q


def diff_inv_branch(p1: int, p2: int, z1: complex, z2: complex) -> tuple[int, float]:
    """Branch index for 1/z1 - 1/z2 induced by branches of z1, z2, z1 - z2.

    With q = q_offset_product(z1, z2), the combination

        lp(p1 + q, z1 - z2) - lp(p1, z1) - lp(p2, z2) + pi*i

    is a value of log(1/z1 - 1/z2) because 1/z1 - 1/z2 = (z2 - z1)/(z1*z2)
    = (z1 - z2) / (z1 * (-z2)).  Returns (k, residual) where k is the
    branch index recovered numerically from that value and residual is the
    distance |combination - lp(k, 1/z1 - 1/z2)|, which sits at float noise
    or, where the snap band moves an argument, at its width.  1/z1 - 1/z2 is computed as that quotient, the one q reads, so
    that q and k read one snapped argument: the recovered index then equals
    -p2 at every float, the snap band included (an identity exercised by
    the test suite rather than assumed here).
    """
    z1, z2, w = _pair(z1, z2)
    q = _q_offset(z1, z2, w)  # which leaves w, z1, z2 and the quotient checked
    value = _lp(p1 + q, w) - _lp(p1, z1) - _lp(p2, z2) + complex(0.0, math.pi)
    target = w / (z1 * (-z2))
    k = round((value.imag - _arg(target)) / TWO_PI)
    residual = abs(value - _lp(k, target))
    return k, residual


def ratio_arg_decomposition(z1: complex, z2: complex) -> tuple[int, float]:
    """Split arg z1 into arg z2 plus the argument of 1 + (z1 - z2)/z2.

    Requires |z2| > |z1 - z2| > 0 and a principal-argument gap
    |arg z1 - arg z2| < pi/2.  Under those constraints

        principal_arg(z1) = principal_arg(z2) + rho + 2*pi*q

    with rho = principal_arg(1 + (z1 - z2)/z2) and q = 0 when rho < pi/2
    or q = -1 when rho > 3*pi/2 (rho is confined to those two arcs by the
    hypotheses).  Returns (q, defect) with defect the float error of the
    reconstruction.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    w = z1 - z2
    if w == 0 or z2 == 0:
        raise ValueError("z2 and z1 - z2 must be nonzero")
    if not abs(z2) > abs(w):
        raise ValueError("requires |z2| > |z1 - z2|")
    a1 = principal_arg(z1)
    a2 = principal_arg(z2)
    if not abs(a1 - a2) < math.pi / 2.0:
        raise ValueError("requires |arg z1 - arg z2| < pi/2")
    rho = principal_arg(1.0 + w / z2)
    # |w/z2| < 1 keeps 1 + w/z2 in the open right half plane shifted off
    # zero, so rho is in [0, pi/2) or (3*pi/2, 2*pi); the argument gap
    # hypothesis rules nothing more in.
    if rho < math.pi / 2.0:
        q = 0
    elif rho > 3.0 * math.pi / 2.0:
        q = -1
    else:
        raise ArithmeticError(f"rho = {rho:.6f} outside both admissible arcs")
    defect = abs(a1 - (a2 + rho + TWO_PI * q))
    return q, defect
