"""Two-variable logarithmic functions with indexed branches.

The objects here are finite sums of monomials

    a * z1^r * z2^s * (z1 - z2)^t * (log z1)^l * (log z2)^m * (log(z1 - z2))^n

with complex coefficients and exponents and integer log powers in
[0, 2**63), so that they pack as int64.
Such a sum is multivalued; a branch triple (p1, p2, p12) makes it single
valued by substituting the indexed logarithms lp(p1, z1), lp(p2, z2),
lp(p12, z1 - z2) for the three logs (powers are exp of exponent times log).

Three expansion regions, each a modulus ordering plus an argument window,
admit convergent series whose sum is the evaluation at a *designated*
branch triple built from the input triple:

    product:  |z1| > |z2| > 0,  arg(z1-z2) - arg z1 in (-pi/2, pi/2),
              designated triple (p1, p2, p1);
    reversed: |z2| > |z1| > 0,  arg(z1-z2) - arg z2 in (-3pi/2, -pi/2),
              designated triple (p1, p2, p2);
    iterate:  |z2| > |z1-z2| > 0,  arg z1 - arg z2 in (-pi/2, pi/2),
              designated triple (p2, p2, p12).

The windows are exactly the conditions under which the auxiliary ratio
(z2/z1, z1/z2 or (z1-z2)/z2) has its principal log consistent with the
indexed logs above, so each group series converges to the right branch.
expand_family builds the series of several functions in one pass, and
expand_region is its one-function case.

A function packs its terms as columns (coeffs, exps, lmn).  A series term
is coeff * x^k * B, x = inner / outer being its region's ratio and B the
k = 0 monomial of its block (the input term and log-power split it came
from), so a series packs coeffs, k and block, and a table of its blocks'
exponents and log powers.  One evaluation kernel, eval_parts, sums a batch
of functions and series at their points (point_logs rows, each point on
its own triple) in numpy passes of bounded size, making each block's
powers once per point and x^k as a product of squares, so that a
convergent series stays finite where its terms' powers of z1 and z2
overflow apart.  A single point goes through the scalar row loop
_sum_terms instead (eval_branch2 and RegionExpansion.eval), term by term
with each power made apart, which at one point costs a small share of the
kernel's fixed numpy overhead, and which is also the kernel's test
reference.  Both raise OverflowError naming the point where a value is not
finite.

winding_profile counts how the sheet indices of z1, z2 and z1 - z2 change
along a path (paths.PathSpec), in closed form for each segment and arc.
continue_family adds the counts to a branch triple and certifies each
function's end value against the sampled oracle (paths.oracle_continue,
which it runs once for the whole family) by relative_gap, the gap measure
the checks use as well; continue_along is its one-function case.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, NamedTuple

import numpy as np

from .branchcalc import TWO_PI, lp, principal_arg
from .paths import (  # noqa: F401  (the path names stay importable from logfun)
    Arc, Move, PathSpec, Segment, _oracle, _Step, _walk_moves, path_end, sample_path,
    validate_path)

_COEFF_DROP = 1e-15

POWER_LIMIT = 1 << 63  # log powers are packed as int64
_KEY_TOL = 1e-12  # relative tolerance to which term_distance matches exponents

# Most candidate monomials expand_region builds before merging (order + 1
# per block), so a hostile order or log power cannot exhaust memory.
SERIES_BUDGET = 1 << 20

# Most term-points (one term at one point) one numpy pass of eval_parts
# evaluates, so the kernel's memory does not grow with its batch: 256 KiB
# per complex array of one value per term-point.  Each suite check's kernel
# call fits in one pass.
_PASS_TERM_POINTS = 1 << 14

Region = Literal["product", "reversed", "iterate"]

REGIONS: tuple[str, ...] = ("product", "reversed", "iterate")


class BranchTriple(NamedTuple):
    """Branch indices for z1, z2 and z1 - z2 (arbitrary precision ints)."""

    p1: int
    p2: int
    p12: int


class _MonomialFields(NamedTuple):
    # LogMonomial's fields; a NamedTuple body may not define __new__ or _make.
    coeff: complex
    r: complex = 0.0
    s: complex = 0.0
    t: complex = 0.0
    l: int = 0
    m: int = 0
    n: int = 0


class LogMonomial(_MonomialFields):
    """One monomial a * z1^r z2^s (z1-z2)^t (log z1)^l (log z2)^m (log(z1-z2))^n.

    An immutable tuple (coeff, r, s, t, l, m, n).  Every way of making one
    (the constructor, _make, _replace, unpickling) checks that the log
    powers are integers in [0, 2**63) and the coefficient and exponents are
    finite, raising ValueError otherwise.
    """

    __slots__ = ()

    def __new__(cls, coeff: complex, r: complex = 0.0, s: complex = 0.0, t: complex = 0.0,
                l: int = 0, m: int = 0, n: int = 0):
        try:  # operator.index refuses floats, 1.5 and 2.0 alike
            bad = not (0 <= operator.index(l) < POWER_LIMIT
                       and 0 <= operator.index(m) < POWER_LIMIT
                       and 0 <= operator.index(n) < POWER_LIMIT)
        except TypeError:
            bad = True
        if bad:
            raise ValueError("log powers must be integers in [0, 2**63)")
        if not (cmath.isfinite(coeff) and cmath.isfinite(r)
                and cmath.isfinite(s) and cmath.isfinite(t)):
            raise ValueError("coefficient and exponents must be finite")
        return tuple.__new__(cls, (coeff, r, s, t, l, m, n))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LogMonomial":
        # The inherited _make (and _replace, which calls it) would skip __new__.
        return cls(*iterable)

    def key(self) -> tuple:
        """Exponent signature used for merging and ordering."""
        r, s, t = complex(self.r), complex(self.s), complex(self.t)
        return (
            r.real + 0.0, r.imag + 0.0,
            s.real + 0.0, s.imag + 0.0,
            t.real + 0.0, t.imag + 0.0,
            self.l, self.m, self.n,
        )


@dataclass(frozen=True)
class LogFunction:
    """Finite sum of LogMonomial terms (not automatically normalized).

    Its terms are also kept packed, as a one-group series is: coeffs, exps
    (columns r, s, t) and lmn (int64 columns l, m, n), in term order, for
    eval_parts; and rows, the terms as tuples for _sum_terms.  Each is made
    on first use and kept; equality, hashing, copies and pickles see only
    terms.
    """

    terms: tuple[LogMonomial, ...]

    def __init__(self, terms: Iterable[LogMonomial] = ()):
        object.__setattr__(self, "terms", tuple(terms))

    def __getstate__(self) -> dict:
        return {"terms": self.terms}

    @cached_property
    def rows(self) -> list[tuple]:
        return [(complex(a), _exponent(r), _exponent(s), _exponent(t), l, m, n)
                for a, r, s, t, l, m, n in self.terms]

    @cached_property
    def coeffs(self) -> np.ndarray:
        return np.array([complex(u.coeff) for u in self.terms], dtype=complex)

    @cached_property
    def exps(self) -> np.ndarray:
        return np.array([(complex(u.r), complex(u.s), complex(u.t)) for u in self.terms],
                        dtype=complex).reshape(-1, 3)

    @cached_property
    def lmn(self) -> np.ndarray:
        return np.array([(u.l, u.m, u.n) for u in self.terms], dtype=np.int64).reshape(-1, 3)

    def __add__(self, other: "LogFunction") -> "LogFunction":
        return LogFunction(self.terms + other.terms)

    def __rmul__(self, scalar: complex) -> "LogFunction":
        return LogFunction(
            LogMonomial(scalar * u.coeff, u.r, u.s, u.t, u.l, u.m, u.n)
            for u in self.terms
        )

    def __mul__(self, other):
        if isinstance(other, LogFunction):
            out = []
            for u in self.terms:
                for v in other.terms:
                    out.append(LogMonomial(
                        u.coeff * v.coeff,
                        u.r + v.r, u.s + v.s, u.t + v.t,
                        u.l + v.l, u.m + v.m, u.n + v.n,
                    ))
            return LogFunction(out)
        return self.__rmul__(other)


def normalize(f: LogFunction) -> LogFunction:
    """Canonical form: merge equal-exponent terms, drop tiny coefficients.

    Terms with identical (r, s, t, l, m, n) are summed; coefficients with
    modulus below 1e-15 are dropped; the survivors are sorted
    lexicographically by exponent signature.
    """
    acc: dict[tuple, complex] = {}
    sig: dict[tuple, LogMonomial] = {}
    for u in f.terms:
        k = u.key()
        acc[k] = acc.get(k, 0.0) + complex(u.coeff)
        sig.setdefault(k, u)
    out = []
    for k in sorted(acc):
        a = acc[k]
        if abs(a) < _COEFF_DROP:
            continue
        u = sig[k]
        out.append(LogMonomial(a, u.r, u.s, u.t, u.l, u.m, u.n))
    return LogFunction(out)


def _keys_close(u: LogMonomial, v: LogMonomial) -> bool:
    if (u.l, u.m, u.n) != (v.l, v.m, v.n):
        return False
    for a, b in ((u.r, v.r), (u.s, v.s), (u.t, v.t)):
        if abs(complex(a) - complex(b)) > _KEY_TOL * (1.0 + abs(complex(a))):
            return False
    return True


def term_distance(f: LogFunction, g: LogFunction) -> float:
    """Max coefficient gap between the canonical forms of f and g.

    Exponents are matched up to a relative 1e-12, so algebraically equal
    functions whose exponents drifted by rounding still compare as close.
    """
    fs = list(normalize(f).terms)
    gs = list(normalize(g).terms)
    worst = 0.0
    for u in fs:
        match = None
        for j, v in enumerate(gs):
            if _keys_close(u, v):
                match = j
                break
        if match is None:
            worst = max(worst, abs(complex(u.coeff)))
        else:
            worst = max(worst, abs(complex(u.coeff) - complex(gs[match].coeff)))
            del gs[match]
    for v in gs:
        worst = max(worst, abs(complex(v.coeff)))
    return worst


def _exponent(c) -> int | complex:
    """c as an int where it is a real integer, for the exact z ** k (single
    valued, and exactly 1 + 0j for k = 0); as a complex otherwise."""
    c = complex(c)
    return int(c.real) if c.imag == 0.0 and c.real == int(c.real) else c


def _exponents(x: np.ndarray) -> np.ndarray:
    """_exponent of each entry of a complex array of finite numbers, as an
    object array; an int exponent is exact at any size, as int(float) is."""
    out = x.astype(object)
    whole = (x.imag == 0.0) & (x.real == np.trunc(x.real))
    out[whole] = [int(v) for v in x.real[whole].tolist()]
    return out


def _point_logs(bt: BranchTriple, z1: complex, z2: complex) -> tuple[complex, ...]:
    """(z1, z2, z1 - z2) and their logs on bt, for _sum_terms; raises
    ValueError unless all three are finite and nonzero."""
    p1, p2, p12 = bt
    z1 = complex(z1)
    z2 = complex(z2)
    w = z1 - z2
    if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
        raise ValueError("z1 and z2 must be finite")
    if z1 == 0 or z2 == 0 or w == 0:
        raise ValueError("z1, z2 and z1 - z2 must all be nonzero")
    return z1, z2, w, lp(p1, z1), lp(p2, z2), lp(p12, w)


def point_logs(samples: Iterable[tuple[BranchTriple, complex, complex]]) -> np.ndarray:
    """_point_logs of each (bt, z1, z2) of samples, one row each, as the
    (samples, 6) array eval_parts takes; a ValueError names the first bad
    point."""
    rows = []
    for bt, z1, z2 in samples:
        try:
            rows.append(_point_logs(bt, z1, z2))
        except ValueError as exc:
            raise ValueError(f"z1 = {complex(z1)}, z2 = {complex(z2)}: {exc}") from None
    return np.array(rows, dtype=complex).reshape(-1, 6)


def _sum_terms(rows: list, starts: Iterable[int], z1: complex, z2: complex,
               w: complex, L1: complex, L2: complex, L12: complex) -> complex:
    """Sum at a point, given its logs (_point_logs), of rows (a, r, s, t, l, m, n)
    with r, s, t classified by _exponent: each row adds to its group's subtotal and
    each subtotal to the total.  starts lists where each group but the first begins.
    A column's power is made again only where the row's exponent is another object
    than the row before's, so rows sharing an exponent object share its power."""
    total = sub = 0.0 + 0.0j
    starts = iter(starts)
    start = next(starts, None)
    r0 = s0 = t0 = None
    for i, (a, r, s, t, l, m, n) in enumerate(rows):
        if i == start:
            total += sub
            sub = 0.0 + 0.0j
            start = next(starts, None)
        if r is not r0:
            r0 = r
            pr = z1 ** r if r.__class__ is int else cmath.exp(r * L1)
        if s is not s0:
            s0 = s
            ps = z2 ** s if s.__class__ is int else cmath.exp(s * L2)
        if t is not t0:
            t0 = t
            pt = w ** t if t.__class__ is int else cmath.exp(t * L12)
        v = a * pr * ps * pt
        if l:
            v *= L1 ** l
        if m:
            v *= L2 ** m
        if n:
            v *= L12 ** n
        sub += v
    return total + sub


def _cpython_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b rounded as CPython rounds a complex product.  numpy's may fuse
    a multiply and an add, and exp magnifies its argument's rounding by the
    argument's size."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    np.multiply(a.real, b.real, out=out.real)
    out.real -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=out.imag)
    out.imag += a.imag * b.real
    return out


def _not_finite(kind: str, z1: complex, z2: complex) -> OverflowError:
    return OverflowError(f"{kind} value at z1 = {z1}, z2 = {z2} is not finite")


def _sum_at(kind: str, rows: list, starts: Iterable[int], logs: tuple) -> complex:
    """_sum_terms at a point given its logs (_point_logs); raises OverflowError
    naming the point where the sum is not finite, or a power on the way
    overflows."""
    try:
        value = _sum_terms(rows, starts, *logs)
        if cmath.isfinite(value):
            return value
    except OverflowError:  # cmath.exp or ** past the float range
        pass
    raise _not_finite(kind, *logs[:2])


def eval_branch2(f: LogFunction, bt: BranchTriple, z1: complex, z2: complex) -> complex:
    """Evaluate f at (z1, z2) on the branch triple bt; raises OverflowError
    naming the point where the value is not finite."""
    return _sum_at("function", f.rows, (), _point_logs(bt, z1, z2))


def differentiate(f: LogFunction, var: str) -> LogFunction:
    """Partial derivative with respect to "z1" or "z2", in canonical form.

    Uses d log z1 / d z1 = 1/z1 and d log(z1-z2)/d z1 = 1/(z1-z2)
    (= -1/(z1-z2) for z2), which hold for every branch simultaneously.
    """
    if var not in ("z1", "z2"):
        raise ValueError("var must be 'z1' or 'z2'")
    out = []
    for u in f.terms:
        a, r, s, t, l, m, n = u.coeff, u.r, u.s, u.t, u.l, u.m, u.n
        if var == "z1":
            if r != 0:
                out.append(LogMonomial(a * r, r - 1, s, t, l, m, n))
            if t != 0:
                out.append(LogMonomial(a * t, r, s, t - 1, l, m, n))
            if l:
                out.append(LogMonomial(a * l, r - 1, s, t, l - 1, m, n))
            if n:
                out.append(LogMonomial(a * n, r, s, t - 1, l, m, n - 1))
        else:
            if s != 0:
                out.append(LogMonomial(a * s, r, s - 1, t, l, m, n))
            if t != 0:
                out.append(LogMonomial(-a * t, r, s, t - 1, l, m, n))
            if m:
                out.append(LogMonomial(a * m, r, s - 1, t, l, m - 1, n))
            if n:
                out.append(LogMonomial(-a * n, r, s, t - 1, l, m, n - 1))
    return normalize(LogFunction(out))


# ---------------------------------------------------------------------------
# Region expansions
# ---------------------------------------------------------------------------


def designated_triple(region: str, bt: BranchTriple) -> BranchTriple:
    """Branch triple to which the region series converges."""
    p1, p2, p12 = bt
    if region == "product":
        return BranchTriple(p1, p2, p1)
    if region == "reversed":
        return BranchTriple(p1, p2, p2)
    if region == "iterate":
        return BranchTriple(p2, p2, p12)
    raise ValueError(f"unknown region {region!r}")


# The columns (of r, s, t, and of z1, z2, z1 - z2) of each region's outer
# and inner quantities: its series' ratio is inner / outer, and a term's
# outer exponent falls by k as its inner one rises.
_OUTER_INNER = {"product": (0, 1), "reversed": (1, 0), "iterate": (1, 2)}

_MODULUS_ORDERING = {"product": "|z2| < |z1|", "reversed": "|z1| < |z2|",
                     "iterate": "|z1 - z2| < |z2|"}


def _inner_outer(region: str, z1: complex, z2: complex) -> tuple[complex, complex]:
    """The region's inner and outer quantities: its modulus ordering is
    |inner| < |outer|, and its series diverge where that fails."""
    if region not in _OUTER_INNER:
        raise ValueError(f"unknown region {region!r}")
    outer, inner = _OUTER_INNER[region]
    zs = (z1, z2, z1 - z2)
    return zs[inner], zs[outer]


def in_region(region: str, z1: complex, z2: complex, margin: float = 0.0) -> bool:
    """Membership in a region's modulus ordering and argument window.

    margin shrinks the window and strictifies the modulus inequalities,
    which sampling code uses to stay away from boundaries.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    w = z1 - z2
    if z1 == 0 or z2 == 0 or w == 0:
        return False
    inner, outer = _inner_outer(region, z1, z2)
    if not abs(outer) * (1.0 - margin) > abs(inner):
        return False
    half_pi = math.pi / 2.0
    if region == "product":
        d = principal_arg(w) - principal_arg(z1)
        return -half_pi + margin < d < half_pi - margin
    if region == "reversed":
        d = principal_arg(w) - principal_arg(z2)
        return -3.0 * half_pi + margin < d < -half_pi - margin
    d = principal_arg(z1) - principal_arg(z2)
    return -half_pi + margin < d < half_pi - margin


def _binom_coeffs(c, order: int, sign: float) -> np.ndarray:
    """Coefficients of (1 + sign*x)^c up to x^order, as a cumulative product.
    For an array of exponents c, one row of coefficients per exponent."""
    c = np.asarray(c, dtype=complex)[..., None]
    k = np.arange(1, order + 1)
    out = np.ones(c.shape[:-1] + (order + 1,), dtype=complex)
    out[..., 1:] = np.cumprod((c - (k - 1)) / k * sign, axis=-1)
    return out


def _log1_series(order: int, sign: float) -> np.ndarray:
    """Coefficients of log(1 + sign*x) up to x^order (zero constant term)."""
    k = np.arange(1, order + 1)
    out = np.zeros(order + 1, dtype=complex)
    out[1:] = sign ** k * (-1.0) ** (k + 1) / k
    return out


def _poly_powers(base: np.ndarray, max_pow: int, order: int) -> np.ndarray:
    """Rows base^0, base^1, ..., base^max_pow, truncated at order."""
    powers = np.zeros((max_pow + 1, order + 1), dtype=complex)
    powers[0, 0] = 1.0
    for p in range(1, max_pow + 1):
        powers[p] = np.convolve(powers[p - 1], base)[:order + 1]
    return powers


@dataclass(eq=False)
class RegionExpansion:
    """Truncated region series, grouped by inner-variable total exponent.

    A group's key is the total exponent of the region's inner quantity (z2
    for product, z1 for reversed, z1 - z2 for iterate).  Every term is
    coeff * x^k * B, x = inner / outer being the region's ratio
    (_inner_outer) and B the k = 0 monomial of the term's block, the input
    term and log-power split it came from.  The terms are packed one entry
    each, group by group in (real, imag) key order and each group in
    normalize's order: coeffs, k (int64) and block (int64, a row of the
    block table).  The block table holds each block's k = 0 exponents,
    block_exps (columns r, s, t), and its log powers, block_lmn (int64
    columns l, m, n).  keys lists the group keys, starts the term where
    each group but the first begins.  These are what eval_parts reads,
    with a series' points on its designated triple.

    exps and lmn, each term's exponents and log powers, follow from them
    exactly: the outer quantity's exponent falls by k and the inner one's
    rises by k.  They, rows, the terms as tuples (a, r, s, t, l, m, n) for
    _sum_terms, and groups, each key's LogFunction in the order
    expand_region met them, are built on first use and kept.  eval adds
    each group's subtotal, what eval_branch2 gives for it, in key order;
    eval_many is eval_parts of this series alone.
    """

    region: str
    bt: BranchTriple
    designated: BranchTriple
    order: int
    starts: list[int] = field(default_factory=list, repr=False)
    keys: list[complex] = field(default_factory=list)
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, complex), repr=False)
    k: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64), repr=False)
    block: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64), repr=False)
    block_exps: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), complex),
                                   repr=False)
    block_lmn: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.int64),
                                  repr=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.region, self.bt, self.designated, self.order, self.starts, self.keys)
                == (other.region, other.bt, other.designated, other.order, other.starts,
                    other.keys)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("coeffs", "k", "block", "block_exps", "block_lmn")))

    @cached_property
    def exps(self) -> np.ndarray:
        down, up = _OUTER_INNER[self.region]
        exps = self.block_exps[self.block]
        exps[:, down] -= self.k
        exps[:, up] += self.k
        return exps

    @cached_property
    def lmn(self) -> np.ndarray:
        return self.block_lmn[self.block]

    def group_keys(self) -> list[complex]:
        return list(self.keys)

    @cached_property
    def rows(self) -> list[tuple]:
        # A run of rows shares one exponent object per column, so _sum_terms
        # makes the run's power once.
        col, first, runs = _exponent_runs(self.exps)
        rst = _exponents(self.exps[first, col])[runs].tolist()
        return list(zip(self.coeffs.tolist(), *rst, *self.lmn.T.tolist()))

    @cached_property
    def groups(self) -> dict[complex, LogFunction]:
        groups = [(key, LogFunction(LogMonomial(a, complex(r), complex(s), complex(t), *lmn)
                                    for a, r, s, t, *lmn in self.rows[lo:hi]))
                  for key, lo, hi in zip(self.keys, [0, *self.starts],
                                         [*self.starts, len(self.rows)])]
        # expand_region met each group at its first term, the least by key().
        return dict(sorted(groups, key=lambda kg: kg[1].terms[0].key()))

    def _checked(self, z1: complex, z2: complex) -> tuple[BranchTriple, complex, complex]:
        """(designated, z1, z2), once the region's modulus ordering holds."""
        inner, outer = _inner_outer(self.region, complex(z1), complex(z2))
        if not abs(inner) < abs(outer):
            raise ValueError(
                f"z1 = {z1}, z2 = {z2} is outside the {self.region} region: its series "
                f"needs {_MODULUS_ORDERING[self.region]}")
        return self.designated, z1, z2

    def eval(self, z1: complex, z2: complex) -> complex:
        """Sum of the series at (z1, z2) on the designated triple.

        Raises ValueError where the region's modulus ordering fails, since
        the series diverges there, and OverflowError naming the point where
        the sum is not finite.  The argument window is not checked: a
        series may be evaluated past it on purpose, to show it then sums
        to another branch.
        """
        return _sum_at("series", self.rows, self.starts, _point_logs(*self._checked(z1, z2)))

    def eval_many(self, points: Iterable[tuple[complex, complex]]) -> list[complex]:
        """eval at each (z1, z2) of points: eval_parts of this series alone,
        every term at every point in one numpy pass.  The values agree with
        eval's up to rounding.

        Each point is checked as eval checks it, and a ValueError names the
        first bad one; an OverflowError names the first point whose value is
        not finite.
        """
        points = [(complex(z1), complex(z2)) for z1, z2 in points]
        logs = point_logs(self._checked(z1, z2) for z1, z2 in points)
        return eval_parts([self], [logs])[0].tolist()


def _exponent_runs(exps: np.ndarray):
    """Column by column, the runs of consecutive terms whose exponents have
    equal bits (-0.0 and +0.0 differ): each run's column and first term, in
    column order, and each term's run, shape (3, terms).  RegionExpansion.rows
    shares one exponent object per run."""
    bits = exps.view(np.int64)  # (terms, 6): each exponent's real and imaginary bits
    changed = bits[1:] != bits[:-1]
    new_run = np.ones(exps.shape, dtype=bool)
    new_run[1:] = changed[:, 0::2] | changed[:, 1::2]
    col, first = np.nonzero(new_run.T)
    return col, first, np.cumsum(new_run.T).reshape(3, -1) - 1


def _passes(parts: list, points: int):
    """eval_parts' numpy passes over parts, in order: lists of pieces (part,
    first term, end term), a piece being whole groups of one part, each list
    at most _PASS_TERM_POINTS term-points (a term at a point) unless it is
    one group alone."""
    per = room = max(1, _PASS_TERM_POINTS // points)
    pieces = []
    for i, part in enumerate(parts):
        starts = part.starts if isinstance(part, RegionExpansion) else []
        lo, size = 0, part.coeffs.size
        while lo < size:
            if size - lo <= room:
                hi = size
            else:  # the last group that fits ends where the next begins
                j = bisect.bisect_right(starts, lo + room)
                hi = starts[j - 1] if j and starts[j - 1] > lo else lo
            if hi == lo:  # not even the group at lo fits
                if pieces:
                    yield pieces
                    pieces, room = [], per
                    continue
                j = bisect.bisect_right(starts, lo)  # a group over the bound goes alone
                hi = starts[j] if j < len(starts) else size
            pieces.append((i, lo, hi))
            room -= hi - lo
            lo = hi
    if pieces:
        yield pieces


def _ratio_powers(x: np.ndarray, ratio: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x[:, ratio[t]] ** k[t] for each t, as a (points, t) array.

    x^k is 1 times the squares x^(2^j) of the set bits j of k, in rising
    order of j, each square made from the one before; so its bits depend on
    its x and k alone, and its rounding grows with the bit count of k, not
    with k.  Where a table of every power up to the largest k is no larger
    than the result, it is made by doubling, x^(2^j + i) = x^i x^(2^j) for
    i < 2^j, which is that same product; else each power is made alone.
    """
    points, ratios = x.shape
    span = int(k.max()) + 1
    if ratios * span <= k.size:
        table = np.empty((points, ratios, span), dtype=complex)
        table[..., 0] = 1.0
        square, n = x, 1
        while n < span:
            if n > 1:
                square = square * square
            m = min(n, span - n)
            np.multiply(table[..., :m], square[..., None], out=table[..., n:n + m])
            n *= 2
        return table.reshape(points, -1)[:, ratio * span + k]
    out = np.ones((points, k.size), dtype=complex)
    square = x
    for j in range(span.bit_length()):
        if j:
            square = square * square
        cols = np.flatnonzero((k >> j) & 1)
        out[:, cols] *= square[:, ratio[cols]]
    return out


def eval_parts(parts: list[RegionExpansion | LogFunction],
               logs: list[np.ndarray]) -> np.ndarray:
    """Each part's value at each of its points, as a (parts, points) array.

    A part is a RegionExpansion or a LogFunction; its points are logs[i],
    point_logs rows made on the triple it is to be summed on (a series'
    designated triple; any triple, or one per point, for a function), the
    same number of points for every part.  The batch is evaluated in
    consecutive numpy passes, each over whole groups of at most
    _PASS_TERM_POINTS term-points (one term at one point; a larger group
    goes alone), so its memory does not grow with the batch; a part's
    values have the same bits whatever other parts are in the batch.

    Every term is coeff * x^k * unit.  A series' units are its whole block
    table, each at coefficient 1, and x = inner / outer is the ratio of its
    region at the point; a function is a series whose terms are their own
    units, with the terms' coefficients, each term at coeff 1 and k = 0.  A
    pass first evaluates its units at every point: a unit multiplies its
    coefficient and its own three powers, each made as _sum_terms makes it
    (so equal exponents on the same logs give equal bits): a whole
    exponent k (as _exponent has it) takes the single-valued z ** k (below
    100 in size numpy's repeated squaring, else CPython's), any other c
    takes exp(c L).  It then multiplies the log powers of each column in
    which any unit of its part has one.  Each term is then its coeff times
    its unit, times x^k (a product of squares, _ratio_powers) where the
    pass holds a series; x^0 is exactly 1.  So a series makes its powers
    once per block and point, not once per term, and a term whose powers
    of z1 and z2 would overflow apart stays as small as it is.  A part
    adds its groups' subtotals in order, carrying the sum from one pass to
    the next; a part of one group takes its subtotal.  The values agree
    with _sum_terms' up to rounding, which for a series is less:
    _sum_terms' exp((a - k) L) magnifies the rounding of its argument up
    to k times.

    Raises OverflowError where a value is not finite, naming the first
    such part's first such point.  Nothing checks a series' modulus
    ordering here: eval_many does, and callers with their own points
    sample them inside the region.
    """
    points = logs[0].shape[0] if parts else 0
    values = np.zeros((len(parts), points), dtype=complex)
    for pieces in _passes(parts, points) if points else ():
        # The logs arrays side by side, (point, 6 * arrays); each unit's
        # own columns z1, z2, w and their logs begin at its base.
        tables = {id(logs[i]): logs[i] for i, _, _ in pieces}
        base_of = {key: 6 * u for u, key in enumerate(tables)}
        table = np.concatenate(list(tables.values()), axis=1)
        sizes = [hi - lo for _, lo, hi in pieces]
        offsets = [0, *itertools.accumulate(sizes)]
        # Each piece's units: a function's terms, with their coefficients,
        # or a series' whole block table, with coefficient 1.
        coeffs, exps, lmn = [], [], []
        for i, lo, hi in pieces:
            part = parts[i]
            if isinstance(part, RegionExpansion):
                exps.append(part.block_exps)
                lmn.append(part.block_lmn)
                coeffs.append(np.ones(len(part.block_lmn), dtype=complex))
            else:
                exps.append(part.exps[lo:hi])
                lmn.append(part.lmn[lo:hi])
                coeffs.append(part.coeffs[lo:hi])
        unit_sizes = [len(u) for u in lmn]
        unit_offsets = [0, *itertools.accumulate(unit_sizes)]
        # Each term's coefficient, unit, ratio and power k of it, and the
        # term where each group begins: a function's term is its own unit, at
        # coefficient 1 and k = 0, and a function is one group.
        tcoef = np.ones(offsets[-1], dtype=complex)
        unit_of = np.arange(offsets[-1]) + np.repeat(
            np.subtract(unit_offsets[:-1], offsets[:-1]), sizes)
        ratio = np.zeros(offsets[-1], dtype=np.int64)
        k = np.zeros(offsets[-1], dtype=np.int64)
        ratio_of = {}  # (logs array, region) -> ratio
        group_starts, groups = [], [0]
        for (i, lo, hi), offset, unit_offset in zip(pieces, offsets, unit_offsets):
            part = parts[i]
            group_starts.append(offset)
            if isinstance(part, RegionExpansion):
                inner = part.starts[bisect.bisect_right(part.starts, lo):
                                    bisect.bisect_left(part.starts, hi)]
                group_starts += map((offset - lo).__add__, inner)
                here = slice(offset, offset + hi - lo)
                tcoef[here] = part.coeffs[lo:hi]
                unit_of[here] = part.block[lo:hi] + unit_offset
                ratio[here] = ratio_of.setdefault((id(logs[i]), part.region), len(ratio_of))
                k[here] = part.k[lo:hi]
            groups.append(len(group_starts))
        coeffs, exps, lmn = (np.concatenate(a) for a in (coeffs, exps, lmn))
        base = np.repeat([base_of[id(logs[i])] for i, _, _ in pieces], unit_sizes)
        c = exps.T.ravel()  # column by column, each unit's exponent
        at = (base + np.arange(3)[:, None]).ravel()  # its z column, its log 3 columns on
        re = c.real
        whole = (c.imag == 0.0) & (re == np.trunc(re))
        small = whole & (np.abs(re) < 100.0)
        large = whole & ~small
        with np.errstate(all="ignore"):
            powers = np.empty((points, c.size), dtype=complex)
            powers[:, ~whole] = np.exp(_cpython_product(c[~whole], table[:, at[~whole] + 3]))
            powers[:, small] = np.power(table[:, at[small]], c[small])
            if large.any():
                # CPython's own z ** k: past 100 it is |z| ** k at angle
                # k arg z, so an arg z rounded otherwise, as numpy's atan2
                # may round it, would be off by k times as much.
                ns = [int(n) for n in re[large].tolist()]
                powers[:, large] = [[zj ** n for zj, n in zip(zs, ns)]
                                    for zs in table[:, at[large]].tolist()]
            # coeffs * pr * ps * pt, each power (point, unit) in turn
            size = len(coeffs)
            units = coeffs * powers[:, :size]
            units *= powers[:, size:2 * size]
            units *= powers[:, 2 * size:]
            del powers
            # The log columns in which each piece has a unit with a power.
            has_log = np.logical_or.reduceat(lmn != 0, unit_offsets[:-1], axis=0)
            for j in np.flatnonzero(has_log.any(axis=0)):  # log powers l, m, n
                cols = (slice(None) if has_log[:, j].all()
                        else np.flatnonzero(np.repeat(has_log[:, j], unit_sizes)))
                units[:, cols] *= np.power(table[:, base[cols] + 3 + j], lmn[cols, j])
            terms = tcoef * units[:, unit_of]
            del units
            if ratio_of:  # times x^k, x = inner / outer per ratio
                outer_col, inner_col = np.array([[base_of[key] + u for u in _OUTER_INNER[region]]
                                                 for key, region in ratio_of]).T
                x = table[:, inner_col] / table[:, outer_col]
                terms *= _ratio_powers(x, ratio, k)
            sub = np.add.reduceat(terms, group_starts, axis=1)
        for (i, lo, hi), g0, g1 in zip(pieces, groups, groups[1:]):
            chunk = sub[:, g0:g1]
            if lo:  # the rest of a part split between passes
                chunk = np.concatenate([values[i][:, None], chunk], axis=1)
            values[i] = chunk[:, 0] if chunk.shape[1] == 1 else np.cumsum(chunk, axis=1)[:, -1]
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        kind = "series" if isinstance(parts[i], RegionExpansion) else "function"
        raise _not_finite(kind, *logs[i][j, :2].tolist())
    return values


def expand_region(f: LogFunction, region: str, bt: BranchTriple, order: int) -> RegionExpansion:
    """Series expansion of f in the given region, truncated at `order`:
    expand_family of f alone.

    Within the region the partial sums converge (as order grows) to
    eval_branch2(f, designated_triple(region, bt), z1, z2).  Group keys
    follow the inner variable: z2-exponent (product), z1-exponent
    (reversed), (z1-z2)-exponent (iterate).
    """
    return expand_family([f], region, bt, order)[0]


def expand_family(functions: Iterable[LogFunction], region: str, bt: BranchTriple,
                  order: int) -> list[RegionExpansion]:
    """expand_region of each function, built together in one pass; each
    series has the same bits as when its function is expanded alone.

    Each input term and log-power split contributes one block of
    order + 1 candidate monomials, one per power k of the auxiliary ratio.
    The blocks are built together, from one table of binomial series (a
    row per term) and one of log powers; a block with no log power takes
    its binomial row as it is.  All blocks are merged at once, function by
    function: exact zeros of the series are dropped, equal exponent
    signatures summed in order of appearance, coefficients below 1e-15
    dropped, and the survivors kept in normalize's order.  A survivor
    keeps the k and block of the first candidate of its signature, and
    each series the table of the blocks its survivors keep.
    Raises ValueError, before allocating, when that makes more than
    SERIES_BUDGET candidate monomials in all or an expanded log power
    reaches 2**63.
    """
    functions = list(functions)
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    if order < 0:
        raise ValueError("order must be non-negative")
    terms = [u for f in functions for u in f.terms]
    # Blocks per term: one per log-power split of the expanded log.
    blocks_per_order = sum(
        u.n + 1 if region == "product"
        else (u.n + 1) * (u.n + 2) // 2 if region == "reversed"
        else u.l + 1
        for u in terms)
    candidates = (order + 1) * blocks_per_order
    if candidates > SERIES_BUDGET:
        raise ValueError(
            f"{region} series of order {order} needs {candidates} candidate monomials, "
            f"over the series budget (SERIES_BUDGET = {SERIES_BUDGET})")
    bt = BranchTriple(*bt)
    designated = designated_triple(region, bt)
    expansions = [RegionExpansion(region, bt, designated, order) for _ in functions]
    if not terms:
        return expansions
    # Per term: the binomial exponent, and the exponents that fall
    # (falling - k) and rise (rising + k) with the power k of the auxiliary
    # ratio, in Python's association, (r + t) - k and so on, so signatures
    # match bit for bit.  Per block: (term, log power j, scale, (l, m, n));
    # the block's coefficients are scale * (binomial row * j-th log power).
    binom_exps, falling, rising, blocks = [], [], [], []
    minus_pi_i = complex(0.0, -math.pi)
    for i, u in enumerate(terms):
        a, r, s, t, l, m, n = (complex(u.coeff), complex(u.r), complex(u.s),
                               complex(u.t), u.l, u.m, u.n)
        if region == "product":
            # (z1-z2)^t = z1^t (1-w)^t and log(z1-z2) = log z1 + log(1-w),
            # w = z2/z1; within the window the principal log(1-w) is the
            # consistent choice, so the branch constant vanishes.
            c, fall, rise = t, r + t, s
            blocks += [(i, j, a * math.comb(n, j), (l + n - j, m, 0)) for j in range(n + 1)]
        elif region == "reversed":
            # (z1-z2)^t = exp(t (lp(p2,z2) - pi*i)) (1-u)^t, u = z1/z2; the
            # window is exactly where negation lands past the cut, so the
            # constant -pi*i (not +pi*i) matches the designated branch.
            c, fall, rise = t, s + t, r
            phase = cmath.exp(t * minus_pi_i)
            blocks += [(i, j, a * ((math.comb(n, j) * math.comb(n - j, h)
                                    * minus_pi_i ** (n - j - h)) * phase), (l, m + h, 0))
                       for j in range(n + 1) for h in range(n - j + 1)]
        else:  # iterate
            # z1^r = z2^r (1+v)^r and log z1 = log z2 + log(1+v),
            # v = (z1-z2)/z2.
            c, fall, rise = r, r + s, t
            blocks += [(i, j, a * math.comb(l, j), (0, m + l - j, n)) for j in range(l + 1)]
        binom_exps.append(c)
        falling.append(fall)
        rising.append(rise)

    term, power, scale, lmn = zip(*blocks)
    try:
        lmn = np.array(lmn, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{region} series has a log power past int64 "
                         "(expanded powers must be below 2**63)") from None
    sign = 1.0 if region == "iterate" else -1.0
    binom = _binom_coeffs(binom_exps, order, sign)
    # Convolving a row with the unit row (j = 0) gives it back exactly, but
    # with its zero parts +0.0; adding 0.0 does the same.
    ser = (binom + 0.0)[list(term)]
    if max(power):
        logs = _poly_powers(_log1_series(order, sign), max(power), order)
        conv = {}
        for b, (i, j) in enumerate(zip(term, power)):
            if j:
                if (i, j) not in conv:
                    conv[i, j] = np.convolve(binom[i], logs[j])[:order + 1]
                ser[b] = conv[i, j]
    live = ser != 0  # never empty: each term's k = 0 coefficient is 1
    block, k = np.nonzero(live)
    coeff = np.array(scale)[block] * ser[live]
    term = np.array(term)
    term_fn = np.repeat(np.arange(len(functions)), [len(f.terms) for f in functions])
    of_term = term[block]
    fn = term_fn[of_term]
    # Columns r, s, t: the outer quantity's exponent falls with k, the
    # inner one's rises, the third is 0, as is its log power column.
    down, up = _OUTER_INNER[region]
    zero = 3 - down - up
    live_cols = [c for c in range(3) if c != zero]
    # A candidate is held as (block, k), and its signature as one
    # contiguous row per part, so that sorting copies none of it; complex
    # exponents are kept only per block.  Each array here holds one entry
    # per candidate: drop every one as soon as it is used, as all
    # functions' candidates are alive at once.
    lmn_rows = lmn.T[live_cols][:, block]
    del ser, live, binom
    falling, rising = np.array(falling), np.array(rising)
    # The signature of LogMonomial.key: exponent parts with -0.0 made +0.0,
    # then log powers, leaving out the zero columns, which order nothing.
    # The two blocks of rows are compared apart: a shared float dtype
    # would round log powers past 2**53.  Adding the integer k to a complex
    # exponent moves only its real part.
    parts = np.empty((2 * len(live_cols), k.size))
    for j, c in enumerate(live_cols):
        base, shift = (falling, np.subtract) if c == down else (rising, np.add)
        shift(base.real[of_term], k, out=parts[2 * j])
        parts[2 * j + 1] = base.imag[of_term]
    del of_term
    parts += 0.0
    key_part = 2 * live_cols.index(up)
    # One stable sort by function, group key (the inner column's parts),
    # then signature: equal signatures meet with their order kept, and
    # each group comes out in normalize's order.
    perm = np.lexsort((*lmn_rows[::-1], *parts[::-1], parts[key_part + 1], parts[key_part], fn))
    fn = fn[perm]
    new_sig = fn[1:] != fn[:-1]
    for row in (*parts, *lmn_rows):
        row = row[perm]
        new_sig |= row[1:] != row[:-1]
    del parts, row, lmn_rows
    starts = np.flatnonzero(np.concatenate(([True], new_sig)))
    del new_sig
    total = np.add.reduceat(coeff[perm], starts)
    del coeff
    keep = ~(np.abs(total) < _COEFF_DROP)
    # Exponents come from each signature's first term, as in normalize:
    # its block's k = 0 exponents, moved by its k.
    rep = perm[starts[keep]]
    del perm
    total, fn = total[keep], fn[starts[keep]]
    block, k = block[rep], k[rep]
    del starts, keep, rep
    # The blocks some term survives in, function by function (block numbers
    # rise with the function), as tables of k = 0 exponents and log powers.
    used = np.zeros(term.size, dtype=bool)
    used[block] = True
    block = (np.cumsum(used) - 1)[block]
    used = np.flatnonzero(used)
    block_exps = np.zeros((used.size, 3), dtype=complex)
    block_exps[:, down] = falling[term[used]]
    block_exps[:, up] = rising[term[used]] + 0.0
    block_lmn = lmn[used]
    if not (np.isfinite(total).all() and np.isfinite(block_exps).all()):
        raise ValueError("coefficient and exponents must be finite")
    if not total.size:
        return expansions
    key = block_exps[block, up] + k + 0.0
    # Where each group begins, and each function's first term, group and block.
    new_group = (key[1:] != key[:-1]) | (fn[1:] != fn[:-1])
    firsts = np.flatnonzero(np.concatenate(([True], new_group)))
    bounds = np.searchsorted(fn, np.arange(len(functions) + 1))
    first_group = np.searchsorted(firsts, bounds).tolist()
    first_block = np.searchsorted(term_fn[term[used]], np.arange(len(functions) + 1)).tolist()
    keys, firsts, bounds = key[firsts].tolist(), firsts.tolist(), bounds.tolist()
    for i, expansion in enumerate(expansions):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        b0, b1 = first_block[i], first_block[i + 1]
        expansion.coeffs, expansion.k = total[lo:hi], k[lo:hi]
        expansion.block = block[lo:hi] - b0
        expansion.block_exps, expansion.block_lmn = block_exps[b0:b1], block_lmn[b0:b1]
        groups = slice(first_group[i], first_group[i + 1])
        expansion.starts = [s - lo for s in firsts[groups][1:]]
        expansion.keys = keys[groups]
    return expansions


# ---------------------------------------------------------------------------
# Continuation by closed-form crossing counts
# ---------------------------------------------------------------------------


def _arg_change(step: _Step, a: complex, b: complex) -> float:
    """Continuous change of arg(a + b e^{i phi}) over the arc of step.

    Factoring out the larger of a and b e^{i phi} leaves 1 + k e^{+-i phi}
    with |k| <= 1, which stays in the right half plane wherever the arc
    misses 0, so its principal argument is continuous along the arc.
    """
    phi0 = step.theta0
    phi1 = step.theta0 + step.sweep
    if abs(a) < abs(b):
        k = a / b
        return (step.sweep + cmath.phase(1.0 + k * cmath.exp(-1j * phi1))
                - cmath.phase(1.0 + k * cmath.exp(-1j * phi0)))
    k = b / a
    return cmath.phase(1.0 + k * cmath.exp(1j * phi1)) - cmath.phase(1.0 + k * cmath.exp(1j * phi0))


def _index_change(q0: complex, q1: complex, delta: float) -> int:
    """Sheet index change of q from q0 to q1 when arg q moves continuously
    by delta (which need only be right to well within pi)."""
    return round((principal_arg(q0) + delta - principal_arg(q1)) / TWO_PI)


def _move_crossings(step: _Step) -> tuple[int, int, int]:
    """Sheet index changes of (z1, z2, z1 - z2) over one move."""
    s, e, o = step.start, step.end, step.other
    if step.var == "z1":
        w0, w1 = s - o, e - o
    else:
        w0, w1 = o - s, o - e
    if step.center is None:
        # A segment that misses 0 turns by less than pi.
        dv = cmath.phase(e / s)
        dw = cmath.phase(w1 / w0)
    else:
        c, radius = step.center, step.radius
        dv = _arg_change(step, c, radius)
        if step.var == "z1":
            dw = _arg_change(step, c - o, radius)
        else:
            dw = _arg_change(step, o - c, -radius)
    kv = _index_change(s, e, dv)
    kw = _index_change(w0, w1, dw)
    return (kv, 0, kw) if step.var == "z1" else (0, kv, kw)


def winding_profile(path: PathSpec) -> tuple[int, int, int]:
    """Net sheet index changes of (z1, z2, z1 - z2) along the path.

    For a closed loop these are the winding numbers of the three
    quantities around 0.  Each move's change is counted in closed form
    from its geometry, so the cost is O(moves) and nothing is sampled.
    """
    validate_path(path)
    k1 = k2 = k12 = 0
    for step in _walk_moves(path):
        d1, d2, d12 = _move_crossings(step)
        k1, k2, k12 = k1 + d1, k2 + d2, k12 + d12
    return k1, k2, k12


@dataclass(frozen=True)
class ContinuationResult:
    """One function's outcome of continue_along or continue_family."""

    end_triple: BranchTriple
    end_value: complex
    certificate: float
    samples: int
    crossings: tuple[int, int, int]
    oracle_value: complex


def relative_gap(a: complex, b: complex) -> float:
    """Gap between two values, relative to the larger of 1 and their sizes."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def continue_along(f: LogFunction, bt: BranchTriple, path: PathSpec,
                   tol: float = 1e-9) -> ContinuationResult:
    """Transport the branch triple along the path and certify the result:
    continue_family of f alone.

    The end triple is the start triple plus winding_profile(path), an
    exact count.  The certificate is the gap between f on that triple at
    the path's end and the independent oracle_continue value, relative to
    the larger of 1 and their sizes; samples is the number of points the
    oracle accepted.  Raises ArithmeticError when the certificate is not
    below tol.
    """
    return continue_family([f], bt, path, tol)[0]


def continue_family(functions: Iterable[LogFunction], bt: BranchTriple, path: PathSpec,
                    tol: float = 1e-9) -> list[ContinuationResult]:
    """continue_along of each function, with one winding count, one end
    triple and one oracle walk for them all; each result has the same bits
    as when its function is continued alone.

    The oracle samples the path once per refinement level and unwraps the
    three logs once per level for the whole family; each function settles
    at the level it would settle at alone.  Raises ArithmeticError when a
    certificate is not below tol.
    """
    functions = list(functions)
    bt = BranchTriple(*bt)
    crossings = winding_profile(path)
    end_triple = BranchTriple(*(p + k for p, k in zip(bt, crossings)))
    end = path_end(path)
    end_values = [eval_branch2(f, end_triple, *end) for f in functions]
    results = []
    for end_value, (oracle, samples) in zip(end_values, _oracle(functions, bt, path)):
        certificate = relative_gap(end_value, oracle)
        if not certificate < tol:
            raise ArithmeticError(
                f"continuation end value differs from the oracle by {certificate:.3e} "
                f"(relative), not below {tol:g}")
        results.append(ContinuationResult(
            end_triple=end_triple,
            end_value=end_value,
            certificate=certificate,
            samples=samples,
            crossings=crossings,
            oracle_value=oracle,
        ))
    return results
