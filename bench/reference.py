"""mpmath reference for the benchmark's correctness checks.

Written from the definitions and sharing no code with twistlab:

* the indexed logarithm lp(p, z) = log|z| + i*(arg z + 2*pi*p) with
  arg z in [0, 2*pi);
* a sum of monomials a * z1^r z2^s (z1-z2)^t (log z1)^l (log z2)^m
  (log(z1-z2))^n on a branch triple (p1, p2, p12), every power taken as
  exp(exponent * indexed log);
* the truncation tolerance of a region series;
* comparison of two term lists up to rounding.

A term is a tuple (coeff, r, s, t, l, m, n).
"""

from __future__ import annotations

import math

import mpmath

# Working precision.  Sheet indices add their own digits (see _dps) so that
# 2*pi*p keeps its fractional part however large p is.
BASE_DPS = 30


def _dps(triple) -> int:
    return BASE_DPS + max(len(str(abs(int(p)))) for p in triple)


def arg0(z) -> mpmath.mpf:
    """Argument of z in [0, 2*pi), at the working precision."""
    a = mpmath.arg(z)
    if a < 0:
        a += 2 * mpmath.pi
    return a


def log_on_sheet(p: int, z) -> mpmath.mpc:
    """lp(p, z) = log|z| + i*(arg z + 2*pi*p)."""
    z = mpmath.mpc(z)
    if z == 0:
        raise ValueError("log of zero")
    return mpmath.mpc(mpmath.log(abs(z)), arg0(z) + 2 * mpmath.pi * int(p))


def _monomials(terms, triple, z1, z2):
    p1, p2, p12 = (int(p) for p in triple)
    z1 = mpmath.mpc(complex(z1))
    z2 = mpmath.mpc(complex(z2))
    L1 = log_on_sheet(p1, z1)
    L2 = log_on_sheet(p2, z2)
    L12 = log_on_sheet(p12, z1 - z2)
    for a, r, s, t, l, m, n in terms:
        v = mpmath.mpc(complex(a)) * mpmath.exp(
            mpmath.mpc(complex(r)) * L1 + mpmath.mpc(complex(s)) * L2
            + mpmath.mpc(complex(t)) * L12)
        yield v * L1 ** int(l) * L2 ** int(m) * L12 ** int(n)


def eval_terms(terms, triple, z1, z2) -> complex:
    """Value of the monomial sum at (z1, z2) on the branch triple."""
    with mpmath.workdps(_dps(triple)):
        return complex(mpmath.fsum(_monomials(terms, triple, z1, z2)))


def term_scale(terms, triple, z1, z2) -> float:
    """Sum of the moduli of the monomials, the size rounding is measured against."""
    with mpmath.workdps(_dps(triple)):
        return float(mpmath.fsum(abs(v) for v in _monomials(terms, triple, z1, z2)))


def close(value: complex, ref: complex, tol: float, scale: float = 1.0) -> bool:
    """|value - ref| <= tol * max(1, scale, |ref|); False for non-finite values."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    return abs(value - ref) <= tol * max(1.0, scale, abs(ref))


def series_tol(ratio: float, order: int, exponent_re: float, log_power: int) -> float:
    """Relative tolerance for a region series truncated at `order`.

    The series multiplies (1 - x)^c by powers of log(1 - x), |x| = ratio.
    The k-th coefficient of (1 - x)^c grows at most like
    (k + 1)^max(0, -Re c - 1), and each power of log(1 - x) adds a factor
    log(k + 1) at most, so the tail past `order` is bounded by that growth
    times ratio^(order + 1) / (1 - ratio), up to a constant.  A floor of
    1e-12 covers rounding in the summed groups.
    """
    k = order + 2
    growth = k ** max(0.0, -exponent_re - 1.0) * (1.0 + math.log(k)) ** log_power
    return 1e-12 + 100.0 * growth * ratio ** (order + 1) / (1.0 - ratio)


def canonical(terms, tol: float = 1e-9) -> list[tuple]:
    """Merge terms whose exponents agree within tol; drop vanishing ones."""
    out: list[list] = []
    for a, r, s, t, l, m, n in terms:
        for e in out:
            if (e[4:] == [l, m, n] and abs(e[1] - r) <= tol and abs(e[2] - s) <= tol
                    and abs(e[3] - t) <= tol):
                e[0] += complex(a)
                break
        else:
            out.append([complex(a), complex(r), complex(s), complex(t), l, m, n])
    return [tuple(e) for e in out if abs(e[0]) > 1e-13]


def same_terms(a, b, tol: float = 1e-9) -> bool:
    """Whether two term lists describe the same sum, up to rounding."""
    ca, cb = canonical(a, tol), canonical(b, tol)
    if len(ca) != len(cb):
        return False
    rest = list(cb)
    for u in ca:
        for j, v in enumerate(rest):
            if (u[4:] == v[4:] and all(abs(u[i] - v[i]) <= tol for i in (1, 2, 3))
                    and abs(u[0] - v[0]) <= tol * max(1.0, abs(u[0]))):
                del rest[j]
                break
        else:
            return False
    return True
