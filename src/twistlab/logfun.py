"""Two-variable logarithmic functions with indexed branches.

The objects here are finite sums of monomials

    a * z1^r * z2^s * (z1 - z2)^t * (log z1)^l * (log z2)^m * (log(z1 - z2))^n

with complex coefficients and exponents and integer log powers in
[0, 2**63), so that they pack as int64.
Such a sum is multivalued; a branch triple (p1, p2, p12) makes it single
valued by substituting the indexed logarithms lp(p1, z1), lp(p2, z2),
lp(p12, z1 - z2) for the three logs (powers are exp of exponent times log).

Three expansion regions admit convergent series.  Every region rule
derives from one table, _REGIONS, a row per region:

    region    outer  inner    expanded  sign  const
    product   z1     z2       z1 - z2   -1    0
    reversed  z2     z1       z1 - z2   -1    -pi i
    iterate   z2     z1 - z2  z1        +1    0

A row means expanded = e^const outer (1 + sign x), x = inner / outer.  The
series in powers of x converges where |inner| < |outer| (the modulus
ordering) to the value on the *designated* triple, the input triple with
expanded's index made outer's, inside the argument window, where
arg expanded - arg outer is within pi/2 of Im const: exactly where
log expanded = const + log outer + Log(1 + sign x) there, Log principal.
expand_family builds the series of several functions in one region in one
numpy pass, and expand_region is its one-function case.  _expand_regions
builds them in several regions at once: one pass sorts and merges the
candidate monomials of consecutive regions while they number at most
_PASS_CANDIDATES in all (a region over it is built alone), so the memory of
a pass stays bounded; every series has the same bits however it is built.

A function keeps its terms as rows for _sum_terms, the one function
evaluator: a scalar loop over its terms, each power made apart.
eval_branch2 is _sum_terms at one point, and eval_parts sums each function
it is given point by point through it, so a function's value has the same
bits from either.  A series term is coeff * x^k * B, x = inner / outer
being its region's ratio and B the k = 0 monomial of its block (the input
term and log-power split it came from), so a series packs coeffs, k and
block, and a table of its blocks' exponents and log powers.  One numpy
kernel, _sum_series behind eval_parts, sums a batch of series at their
points (point_logs rows, each point on its own triple) in passes of
bounded size, making each block's powers once per point and x^k as a
product of squares, so that a convergent series stays finite where its
terms' powers of z1 and z2 overflow apart.  It is the one series
evaluator: RegionExpansion.eval is eval_many at one point.  Both
evaluators raise OverflowError naming the point where a value is not
finite.

winding_profile counts how the sheet indices of z1, z2 and z1 - z2 change
along a path (paths.PathSpec), in closed form for each segment and arc.
continue_family validates and walks the path once (paths._walk); from
that walk it takes the counts, which it adds to a branch triple, the end
point, and the moves of the sampled oracle (paths.oracle_continue, which
it runs once for the whole family), against which it certifies each
function's end value by relative_gap, the gap measure the checks use as
well; continue_along is its one-function case.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .branchcalc import TWO_PI, _lp, principal_arg
from .paths import PathSpec, _end_point, _oracle, _phase, _Step, _walk
from .paths import sample_path  # noqa: F401  (bench/tracing.py times it under this name)
from .paths import validate_path  # noqa: F401  (bench/tracing.py times it under this name)

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

# Most candidate monomials one build pass of _expand_regions sorts and
# merges, so that building several regions at once does not raise the
# build's memory: a region's build over it goes alone.
_PASS_CANDIDATES = 1 << 12


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

    Its terms are also kept as rows, tuples with r, s, t classified by
    _exponent, for _sum_terms, the one function evaluator (eval_branch2 and
    eval_parts).  They are made on first use and kept; equality, hashing,
    copies and pickles see only terms.
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

    def __add__(self, other: "LogFunction") -> "LogFunction":
        return LogFunction(self.terms + other.terms)

    def __rmul__(self, scalar: complex) -> "LogFunction":
        return LogFunction(
            LogMonomial(scalar * u.coeff, u.r, u.s, u.t, u.l, u.m, u.n)
            for u in self.terms
        )


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


def _point_logs(bt: BranchTriple, z1: complex, z2: complex) -> tuple[complex, ...]:
    """(z1, z2, z1 - z2) and their logs on bt, for _sum_terms; raises
    ValueError, as lp would, unless all three are finite and nonzero."""
    p1, p2, p12 = bt
    z1 = complex(z1)
    z2 = complex(z2)
    w = z1 - z2
    if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
        raise ValueError("z1 and z2 must be finite")
    if z1 == 0 or z2 == 0 or w == 0:
        raise ValueError("z1, z2 and z1 - z2 must all be nonzero")
    logs = _lp(p1, z1), _lp(p2, z2)
    if not cmath.isfinite(w):
        raise ValueError(f"log of non-finite {w} is undefined")
    return z1, z2, w, *logs, _lp(p12, w)


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


def _sum_terms(rows: list, z1: complex, z2: complex, w: complex,
               L1: complex, L2: complex, L12: complex) -> complex:
    """Sum at a point, given its logs (_point_logs), of a function's rows
    (a, r, s, t, l, m, n) with r, s, t classified by _exponent, term by
    term; nan where a power leaves the float range."""
    total = 0.0 + 0.0j
    try:
        for a, r, s, t, l, m, n in rows:
            v = (a * (z1 ** r if r.__class__ is int else cmath.exp(r * L1))
                 * (z2 ** s if s.__class__ is int else cmath.exp(s * L2))
                 * (w ** t if t.__class__ is int else cmath.exp(t * L12)))
            if l:
                v *= L1 ** l
            if m:
                v *= L2 ** m
            if n:
                v *= L12 ** n
            total += v
    except OverflowError:  # cmath.exp or ** past the float range
        return cmath.nan
    return total


def _cpython_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, a broadcasting against b's shape, rounded as CPython rounds a
    complex product.  numpy's may fuse a multiply and an add, and exp
    magnifies its argument's rounding by the argument's size."""
    out = np.empty(b.shape, dtype=complex)
    np.multiply(a.real, b.real, out=out.real)
    out.real -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=out.imag)
    out.imag += a.imag * b.real
    return out


def _not_finite(kind: str, z1: complex, z2: complex) -> OverflowError:
    return OverflowError(f"{kind} value at z1 = {z1}, z2 = {z2} is not finite")


def eval_branch2(f: LogFunction, bt: BranchTriple, z1: complex, z2: complex) -> complex:
    """Evaluate f at (z1, z2) on the branch triple bt; raises OverflowError
    naming the point where the value is not finite."""
    logs = _point_logs(bt, z1, z2)
    value = _sum_terms(f.rows, *logs)
    if cmath.isfinite(value):
        return value
    raise _not_finite("function", *logs[:2])


# ---------------------------------------------------------------------------
# Region expansions
# ---------------------------------------------------------------------------


class _Region(NamedTuple):
    outer: int
    inner: int
    expanded: int
    sign: float
    const: complex

    @property
    def log_columns(self) -> tuple[int, int]:
        """The log columns a series block keeps: all but expanded's."""
        return ((1, 2), (0, 2), (0, 1))[self.expanded]


# The region table of the module docstring.  The columns 0, 1 and 2 stand
# for z1, z2 and z1 - z2 alike in (z1, z2, z1 - z2), in the exponents
# (r, s, t) and in the log powers (l, m, n).  reversed's window is exactly
# where negation lands past the cut, so its constant is -pi i, not +pi i.
_REGIONS = {
    "product": _Region(outer=0, inner=1, expanded=2, sign=-1.0, const=0j),
    "reversed": _Region(outer=1, inner=0, expanded=2, sign=-1.0, const=complex(0.0, -math.pi)),
    "iterate": _Region(outer=1, inner=2, expanded=0, sign=1.0, const=0j),
}

REGIONS: tuple[str, ...] = tuple(_REGIONS)

_QUANTITIES = ("z1", "z2", "z1 - z2")  # the columns' names, for messages


def _region(region: str) -> _Region:
    """region's row of _REGIONS; ValueError for an unknown region."""
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    return _REGIONS[region]


def _region_point(region: str, outer: complex, inner: complex) -> tuple[complex, complex]:
    """The (z1, z2) at which region's outer and inner quantities are outer
    and inner, the third of z1, z2 and z1 - z2 following from the two."""
    row = _region(region)
    zs = [None] * 3
    zs[row.outer], zs[row.inner] = outer, inner
    z1, z2, w = zs
    return (z2 + w if z1 is None else z1), (z1 - w if z2 is None else z2)


def designated_triple(region: str, bt: BranchTriple) -> BranchTriple:
    """Branch triple to which the region series converges: bt with the
    expanded quantity's index made the outer one's."""
    row = _region(region)
    triple = list(bt)
    triple[row.expanded] = triple[row.outer]
    return BranchTriple(*triple)


def in_region(region: str, z1: complex, z2: complex, margin: float = 0.0) -> bool:
    """Membership in a region's modulus ordering, |inner| < |outer|, and
    argument window, arg expanded - arg outer within pi/2 of Im const.

    margin shrinks the window and strictifies the modulus inequalities,
    which sampling code uses to stay away from boundaries.
    """
    row = _region(region)
    z1, z2 = complex(z1), complex(z2)
    zs = (z1, z2, z1 - z2)
    if z1 == 0 or z2 == 0 or zs[2] == 0:
        return False
    if not _moduli_ordered(row, zs, margin):
        return False
    centre, half_pi = row.const.imag, math.pi / 2.0
    d = principal_arg(zs[row.expanded]) - principal_arg(zs[row.outer])
    return centre - half_pi + margin < d < centre + half_pi - margin


def _moduli_ordered(row: _Region, zs: tuple, margin: float = 0.0) -> bool:
    """|inner| < |outer| (1 - margin) among zs = (z1, z2, z1 - z2); a
    ValueError naming the point where either modulus is past the float range."""
    try:
        return abs(zs[row.outer]) * (1.0 - margin) > abs(zs[row.inner])
    except OverflowError:
        raise ValueError(f"z1 = {zs[0]}, z2 = {zs[1]}: |{_QUANTITIES[row.inner]}| or "
                         f"|{_QUANTITIES[row.outer]}| is past the float range") from None


def _binom_coeffs(c, order: int, sign) -> np.ndarray:
    """Coefficients of (1 + sign*x)^c up to x^order, as a cumulative product.
    For an array of exponents c, one row of coefficients per exponent, with
    sign one number or one per exponent."""
    c = np.asarray(c, dtype=complex)[..., None]
    k = np.arange(1, order + 1)
    out = np.ones(c.shape[:-1] + (order + 1,), dtype=complex)
    out[..., 1:] = np.cumprod((c - (k - 1)) / k * np.asarray(sign)[..., None], axis=-1)
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

    A group's key is the total exponent of the region's inner quantity
    (_REGIONS).  Every term is coeff * x^k * B, x = inner / outer being the
    region's ratio and B the k = 0 monomial of the term's block, the input
    term and log-power split it came from, in which the expanded quantity
    has exponent and log power 0.  The terms are packed one entry each,
    group by group in (real, imag) key order and each group in normalize's
    order: coeffs, k (int64) and block (int64, a row of the block table).
    The block table holds each block's k = 0 exponents, block_exps
    (columns r, s, t), and its log powers, block_lmn (int64 columns l, m,
    n).  keys lists the group keys, starts (int64) the term where each
    group but the first begins.  eval_parts reads these, at points on the
    designated triple, designated_triple of region and bt, and never turns
    starts into Python ints: only groups does.

    exps and lmn, each term's exponents and log powers, follow from them
    exactly: the outer quantity's exponent falls by k and the inner one's
    rises by k.  They, designated and groups, each key's LogFunction in
    the order expand_region met them, are built on first use and kept.  eval_many
    is eval_parts of this series alone, and eval is eval_many at one point.
    """

    region: str
    bt: BranchTriple
    order: int
    starts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64), repr=False)
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
        return ((self.region, self.bt, self.order, self.keys)
                == (other.region, other.bt, other.order, other.keys)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("starts", "coeffs", "k", "block", "block_exps",
                                     "block_lmn")))

    @cached_property
    def designated(self) -> BranchTriple:
        return designated_triple(self.region, self.bt)

    @cached_property
    def exps(self) -> np.ndarray:
        row = _region(self.region)
        exps = self.block_exps[self.block]
        exps[:, row.outer] -= self.k
        exps[:, row.inner] += self.k
        return exps

    @cached_property
    def lmn(self) -> np.ndarray:
        return self.block_lmn[self.block]

    @cached_property
    def groups(self) -> dict[complex, LogFunction]:
        terms = [LogMonomial(a, r, s, t, *lmn) for a, (r, s, t), lmn
                 in zip(self.coeffs.tolist(), self.exps.tolist(), self.lmn.tolist())]
        bounds = [0, *self.starts.tolist(), len(terms)]
        groups = [(key, LogFunction(terms[lo:hi]))
                  for key, lo, hi in zip(self.keys, bounds, bounds[1:])]
        # expand_region met each group at its first term, the least by key().
        return dict(sorted(groups, key=lambda kg: kg[1].terms[0].key()))

    def _checked(self, z1: complex, z2: complex) -> tuple[BranchTriple, complex, complex]:
        """(designated, z1, z2), once the region's modulus ordering holds."""
        row = _region(self.region)
        if not _moduli_ordered(row, (complex(z1), complex(z2), complex(z1) - complex(z2))):
            raise ValueError(
                f"z1 = {z1}, z2 = {z2} is outside the {self.region} region: its series "
                f"needs |{_QUANTITIES[row.inner]}| < |{_QUANTITIES[row.outer]}|")
        return self.designated, z1, z2

    def eval(self, z1: complex, z2: complex) -> complex:
        """Sum of the series at (z1, z2) on the designated triple: eval_many
        at that one point, with its checks and its bits."""
        return self.eval_many([(z1, z2)])[0]

    def eval_many(self, points: Iterable[tuple[complex, complex]]) -> list[complex]:
        """Sum of the series at each (z1, z2) of points on the designated
        triple: eval_parts of this series alone.

        Raises ValueError naming the first point where the region's modulus
        ordering fails, since the series diverges there, or a log is
        undefined, and OverflowError naming the first point whose value is
        not finite.  The argument window is not checked: a series may be
        evaluated past it on purpose, to show it then sums to another
        branch.
        """
        points = [(complex(z1), complex(z2)) for z1, z2 in points]
        logs = point_logs(self._checked(z1, z2) for z1, z2 in points)
        return eval_parts([self], [logs])[0].tolist()


def _passes(series: list, points: int):
    """eval_parts' numpy passes over series, in order: lists of pieces
    (series, first term, end term), a piece being whole groups of one
    series, each list at most _PASS_TERM_POINTS term-points (a term at a
    point) unless it is one group alone."""
    per = room = max(1, _PASS_TERM_POINTS // points)
    pieces = []
    for i, part in enumerate(series):
        starts, lo, size = part.starts, 0, part.coeffs.size
        while lo < size:
            if size - lo <= room:
                hi = size
            else:  # the last group that fits ends where the next begins
                j = starts.searchsorted(lo + room, "right")
                hi = int(starts[j - 1]) if j and starts[j - 1] > lo else lo
            if hi == lo:  # not even the group at lo fits
                if pieces:
                    yield pieces
                    pieces, room = [], per
                    continue
                j = starts.searchsorted(lo, "right")  # a group over the bound goes alone
                hi = int(starts[j]) if j < starts.size else size
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
        return table.reshape(points, -1).take(ratio * span + k, axis=1)
    out = np.ones((points, k.size), dtype=complex)
    square = x
    for j in range(span.bit_length()):
        if j:
            square = square * square
        cols = np.flatnonzero((k >> j) & 1)
        out[:, cols] *= square.take(ratio[cols], axis=1)
    return out


def _check_logs(parts: list, logs: list) -> None:
    """Raise ValueError naming the part, unless logs holds one point_logs
    array, (points, 6) complex, per part, each with the same points."""
    if len(logs) != len(parts):
        n = min(len(logs), len(parts))
        raise ValueError(f"eval_parts got {len(logs)} logs arrays for {len(parts)} parts: "
                         + (f"part {n} has none" if n < len(parts) else f"logs[{n}] has no part"))
    for i, table in enumerate(logs):
        if not (isinstance(table, np.ndarray) and table.dtype == np.complex128
                and table.shape[1:] == (6,)):
            got = (f"shape {table.shape} and dtype {table.dtype}"
                   if isinstance(table, np.ndarray) else type(table).__name__)
            raise ValueError(f"part {i}'s logs must be a (points, 6) complex array, as "
                             f"point_logs makes, not {got}")
        if len(table) != len(logs[0]):
            raise ValueError(f"part {i} has {len(table)} points where part 0 has {len(logs[0])}")


def eval_parts(parts: list[RegionExpansion | LogFunction],
               logs: list[np.ndarray]) -> np.ndarray:
    """Each part's value at each of its points, as a (parts, points) array.

    A part is a RegionExpansion or a LogFunction; its points are logs[i],
    point_logs rows made on the triple it is to be summed on (a series'
    designated triple; any triple, or one per point, for a function), the
    same number of points for every part.  A function is summed at each
    point by eval_branch2's term loop, _sum_terms, each logs array turned
    into rows once, so its values are eval_branch2's bit for bit.  The
    series are summed together by _sum_series, the one series evaluator
    (RegionExpansion.eval and eval_many call it).  A part's values have the
    same bits whatever other parts are in the batch.

    Raises ValueError naming the part unless logs holds one (points, 6)
    complex array, as point_logs makes, per part, each with the same
    points, and OverflowError where a value is not finite, naming the first
    such part's first such point.  Nothing checks a series' modulus
    ordering here: eval_many does, and callers with their own points
    sample them inside the region.
    """
    _check_logs(parts, logs)
    points = logs[0].shape[0] if parts else 0
    values = np.empty((len(parts), points), dtype=complex)
    at, rows_of = [], {}  # the series' places in parts; each logs array's rows
    for i, (part, table) in enumerate(zip(parts, logs)):
        if isinstance(part, RegionExpansion):
            at.append(i)
            continue
        if id(table) not in rows_of:
            rows_of[id(table)] = table.tolist()
        values[i] = [_sum_terms(part.rows, *row) for row in rows_of[id(table)]]
    values[at] = _sum_series([parts[i] for i in at], [logs[i] for i in at], points)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        kind = "series" if isinstance(parts[i], RegionExpansion) else "function"
        raise _not_finite(kind, *logs[i][j, :2].tolist())
    return values


def _sum_series(series: list[RegionExpansion], logs: list[np.ndarray],
                points: int) -> np.ndarray:
    """Each series' sum at each of its points, logs[i], as a (series,
    points) array, in consecutive numpy passes (_passes), each over whole
    groups of at most _PASS_TERM_POINTS term-points (one term at one point;
    a larger group goes alone), so its memory does not grow with the batch.

    Every term is coeff * x^k * B, B the k = 0 monomial of its block and x
    = inner / outer the ratio of its region at the point.  A pass first
    evaluates the whole block table of each of its pieces at every point:
    a block multiplies 1 and its own three powers, each made as _sum_terms
    makes it (so equal exponents on the same logs give equal bits): a whole
    exponent k (as _exponent has it) takes the single-valued z ** k (below
    100 in size numpy's repeated squaring, else CPython's), any other c
    takes exp(c L).  It then multiplies the log powers of each column in
    which any block of its piece has one.  Each term is then its coeff
    times its block's value times x^k (a product of squares,
    _ratio_powers); x^0 is exactly 1.  So a series makes its powers once
    per block and point, not once per term, and a term whose powers of z1
    and z2 would overflow apart stays as small as it is.  A series adds its
    groups' subtotals in order, carrying the sum from one pass to the next;
    a series of one group takes its subtotal.  A term loop making each
    term's powers of z1 and z2 apart would round worse, its exp((a - k) L)
    magnifying the rounding of its argument up to k times, and would
    overflow at high orders where the series does not.
    """
    values = np.zeros((len(series), points), dtype=complex)
    for pieces in _passes(series, points) if points else ():
        # The logs arrays side by side, (point, 6 * arrays); each block's
        # own columns z1, z2, w and their logs begin at its base.
        tables = {id(logs[i]): logs[i] for i, _, _ in pieces}
        base_of = {key: 6 * u for u, key in enumerate(tables)}
        arrays = list(tables.values())
        table = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)
        sizes = [hi - lo for _, lo, hi in pieces]
        offsets = [0, *itertools.accumulate(sizes)]
        block_sizes = [len(series[i].block_lmn) for i, _, _ in pieces]
        block_offsets = [0, *itertools.accumulate(block_sizes)]
        # Each term's coefficient, block, ratio and power k of it, and the
        # term where each group begins: a piece's groups begin at its offset
        # and at its series' bounds inside it, shifted there; groups[p]
        # counts the groups before piece p.
        coeffs, block_of, k, ratios, bounds, groups = [], [], [], [], [], [0]
        ratio_of = {}  # (logs array, region) -> ratio
        for (i, lo, hi), offset, block_offset in zip(pieces, offsets, block_offsets):
            part = series[i]
            j0, j1 = part.starts.searchsorted((lo + 1, hi))
            bounds += [[offset], part.starts[j0:j1] + (offset - lo)]
            groups.append(groups[-1] + 1 + j1 - j0)
            coeffs.append(part.coeffs[lo:hi])
            block_of.append(part.block[lo:hi] + block_offset)
            k.append(part.k[lo:hi])
            ratios.append(ratio_of.setdefault((id(logs[i]), part.region), len(ratio_of)))
        group_starts = np.concatenate(bounds)
        exps = np.concatenate([series[i].block_exps for i, _, _ in pieces])
        lmn = np.concatenate([series[i].block_lmn for i, _, _ in pieces])
        base = np.repeat([base_of[id(logs[i])] for i, _, _ in pieces], block_sizes)
        c = exps.T.ravel()  # column by column, each block's exponent
        at = (base + np.arange(3)[:, None]).ravel()  # its z column, its log 3 columns on
        re = c.real
        whole = (c.imag == 0.0) & (re == np.trunc(re))
        small = whole & (np.abs(re) < 100.0)
        large = whole & ~small
        with np.errstate(all="ignore"):
            powers = np.empty((points, c.size), dtype=complex)
            powers[:, ~whole] = np.exp(_cpython_product(
                c[~whole], table.take(at[~whole] + 3, axis=1)))
            powers[:, small] = np.power(table.take(at[small], axis=1), c[small])
            if large.any():
                # CPython's own z ** k: past 100 it is |z| ** k at angle
                # k arg z, so an arg z rounded otherwise, as numpy's atan2
                # may round it, would be off by k times as much.
                ns = [int(n) for n in re[large].tolist()]
                powers[:, large] = [[zj ** n for zj, n in zip(zs, ns)]
                                    for zs in table.take(at[large], axis=1).tolist()]
            # 1 * pr * ps * pt, each power (point, block) in turn, as
            # _sum_terms makes a term of coefficient 1: the product with 1
            # turns some -0.0 parts of pr into +0.0.
            size = len(lmn)
            blocks = 1.0 * powers[:, :size]
            blocks *= powers[:, size:2 * size]
            blocks *= powers[:, 2 * size:]
            del powers
            # The log columns in which each piece has a block with a power.
            has_log = np.logical_or.reduceat(lmn != 0, block_offsets[:-1], axis=0)
            for j in np.flatnonzero(has_log.any(axis=0)):  # log powers l, m, n
                cols = (slice(None) if has_log[:, j].all()
                        else np.flatnonzero(np.repeat(has_log[:, j], block_sizes)))
                blocks[:, cols] *= np.power(table.take(base[cols] + 3 + j, axis=1),
                                            lmn[cols, j])
            terms = np.concatenate(coeffs) * blocks.take(np.concatenate(block_of), axis=1)
            del blocks
            # times x^k, x = inner / outer per ratio
            rows = [(base_of[key], _REGIONS[region]) for key, region in ratio_of]
            x = (table.take([first + row.inner for first, row in rows], axis=1)
                 / table.take([first + row.outer for first, row in rows], axis=1))
            terms *= _ratio_powers(x, np.repeat(ratios, sizes), np.concatenate(k))
            sub = np.add.reduceat(terms, group_starts, axis=1)
        for (i, lo, hi), g0, g1 in zip(pieces, groups, groups[1:]):
            chunk = sub[:, g0:g1]
            if lo:  # the rest of a series split between passes
                chunk = np.concatenate([values[i][:, None], chunk], axis=1)
            values[i] = chunk[:, 0] if chunk.shape[1] == 1 else np.cumsum(chunk, axis=1)[:, -1]
    return values


def expand_region(f: LogFunction, region: str, bt: BranchTriple, order: int) -> RegionExpansion:
    """Series expansion of f in the given region, truncated at `order`:
    expand_family of f alone.

    Within the region the partial sums converge (as order grows) to
    eval_branch2(f, designated_triple(region, bt), z1, z2).  Group keys
    are exponents of the region's inner quantity (_REGIONS).
    """
    return expand_family([f], region, bt, order)[0]


def expand_family(functions: Iterable[LogFunction], region: str, bt: BranchTriple,
                  order: int) -> list[RegionExpansion]:
    """expand_region of each function, built together in one pass; each
    series has the same bits as when its function is expanded alone.  It is
    _expand_regions in one region.

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
    return _expand_regions(functions, (region,), bt, order)[0]


def _expand_regions(functions: Iterable[LogFunction], regions: Iterable[str],
                    bt: BranchTriple, order: int) -> list[list[RegionExpansion]]:
    """expand_family of the functions in each of regions, as one list per
    region, each series with the same bits as when built alone.

    Consecutive regions share a build pass while their candidates number at
    most _PASS_CANDIDATES in all, and a region over it is built alone, so a
    pass sorts and merges several regions' candidates at once and its
    memory stays that of one bounded build.  Raises ValueError, before
    building any, for an unknown region, a negative order or a region of
    more than SERIES_BUDGET candidates.
    """
    functions, regions = list(functions), list(regions)
    rows = [_region(region) for region in regions]
    if order < 0:
        raise ValueError("order must be non-negative")
    terms = [u for f in functions for u in f.terms]
    counts = []
    for region, row in zip(regions, rows):
        # Blocks per term: one per split of its expanded log power (u[at]),
        # as _build_pass splits it.
        at, const = 4 + row.expanded, row.const
        candidates = (order + 1) * sum(
            (u[at] + 1) * (u[at] + 2) // 2 if const else u[at] + 1 for u in terms)
        if candidates > SERIES_BUDGET:
            raise ValueError(
                f"{region} series of order {order} needs {candidates} candidate monomials, "
                f"over the series budget (SERIES_BUDGET = {SERIES_BUDGET})")
        counts.append(candidates)
    bt = BranchTriple(*bt)
    out, batch, size = [], [], 0
    for region, count in zip(regions, counts):
        if batch and size + count > _PASS_CANDIDATES:
            out += _build_pass(functions, terms, batch, bt, order)
            batch, size = [], 0
        batch.append(region)
        size += count
    if batch:
        out += _build_pass(functions, terms, batch, bt, order)
    return out


def _build_pass(functions: list[LogFunction], terms: list[LogMonomial], regions: list[str],
                bt: BranchTriple, order: int) -> list[list[RegionExpansion]]:
    """One build pass of _expand_regions: the series of the functions, whose
    terms are terms, in each of regions, all candidates sorted and merged
    together.  A series is one function in one region, numbered region by
    region, and its number ranks first in the sort."""
    if not terms:
        return [[RegionExpansion(region, bt, order) for _ in functions] for region in regions]
    # Per row, one per region and term, region by region: the binomial
    # exponent c (expanded's) and the exponents that fall (outer's + c,
    # falling - k) and rise (inner's, rising + k) with the power k of x, so
    # that signatures match bit for bit.  Per block: (row, log power j,
    # scale, log powers).  As log expanded = const + log outer + Log(1 +
    # sign x), a term's power e of it (u[4 + col]: column col's log power)
    # splits into j (to the log series), h (to log outer) and e - j - h (to
    # const), weighted by the multinomial and e^(c const); with const = 0, h
    # is e - j.  A block's coefficients are scale * (binomial row * j-th log
    # power), its log powers its term's in log_columns, h added to outer's.
    binom_exps, falling, rising, blocks = [], [], [], []
    coeffs = [complex(u.coeff) for u in terms]
    exps = [(complex(u.r), complex(u.s), complex(u.t)) for u in terms]
    for q, region in enumerate(regions):
        outer, inner, expanded, _, const = spec = _REGIONS[region]
        col0, col1 = spec.log_columns
        first = col0 == outer  # whether h goes to the first log power
        for i, (u, a, zs) in enumerate(zip(terms, coeffs, exps), q * len(terms)):
            c, e, pow0, pow1 = zs[expanded], u[4 + expanded], u[4 + col0], u[4 + col1]
            if const:
                phase = cmath.exp(c * const)
                blocks += [(i, j, a * ((math.comb(e, j) * math.comb(e - j, h)
                                        * const ** (e - j - h)) * phase),
                            (pow0 + h, pow1) if first else (pow0, pow1 + h))
                           for j in range(e + 1) for h in range(e - j + 1)]
            else:
                blocks += [(i, j, a * math.comb(e, j),
                            (pow0 + e - j, pow1) if first else (pow0, pow1 + e - j))
                           for j in range(e + 1)]
            binom_exps.append(c)
            falling.append(zs[outer] + c)
            rising.append(zs[inner])

    row, power, scale, lmn = zip(*blocks)
    try:
        lmn = np.array(lmn, dtype=np.int64)
    except OverflowError:
        region = next(regions[i // len(terms)] for i, _, _, powers in blocks
                      if max(powers) >= POWER_LIMIT)
        raise ValueError(f"{region} series has a log power past int64 "
                         "(expanded powers must be below 2**63)") from None
    signs = [_REGIONS[region].sign for region in regions]
    binom = _binom_coeffs(binom_exps, order,
                          [sign for sign in signs for _ in range(len(terms))])
    # Convolving a row with the unit row (j = 0) gives it back exactly, but
    # with its zero parts +0.0; adding 0.0 does the same.
    ser = (binom + 0.0)[list(row)]
    if max(power):
        top = {}  # the largest log power of each sign's log series
        for i, j in zip(row, power):
            sign = signs[i // len(terms)]
            top[sign] = max(top.get(sign, 0), j)
        logs = {sign: _poly_powers(_log1_series(order, sign), j, order)
                for sign, j in top.items()}
        conv = {}
        for b, (i, j) in enumerate(zip(row, power)):
            if j:
                if (i, j) not in conv:
                    conv[i, j] = np.convolve(binom[i], logs[signs[i // len(terms)]][j])[:order + 1]
                ser[b] = conv[i, j]
    live = ser != 0  # never empty: each term's k = 0 coefficient is 1
    block, k = np.nonzero(live)
    coeff = np.array(scale)[block] * ser[live]
    row = np.array(row)
    of_row = row[block]
    # Each row's series: its region's number times the function count, plus
    # its function's number.
    fn_of_term = [j for j, f in enumerate(functions) for _ in f.terms]
    row_series = np.array([q * len(functions) + j
                           for q in range(len(regions)) for j in fn_of_term])
    series = row_series[of_row]
    # A candidate is held as (block, k), and its signature as one
    # contiguous row per part, so that sorting copies none of it; complex
    # exponents are kept only per block.  Each array here holds one entry
    # per candidate: drop every one as soon as it is used, as all series'
    # candidates are alive at once.  The signature of LogMonomial.key,
    # with -0.0 made +0.0 and leaving out the region's zero column, which
    # orders nothing: the inner column's exponent (the group key, ranked
    # first in its series), the outer one's, then the block's log powers.
    # The exponents and the log powers are compared apart: a shared float
    # dtype would round log powers past 2**53.  Adding the integer k to a
    # complex exponent moves only its real part.
    lmn_rows = lmn.T.take(block, axis=1)
    del ser, live, binom
    falling, rising = np.array(falling), np.array(rising)
    parts = np.empty((4, k.size))
    np.add(rising.real[of_row], k, out=parts[0])
    parts[1] = rising.imag[of_row]
    np.subtract(falling.real[of_row], k, out=parts[2])
    parts[3] = falling.imag[of_row]
    del of_row
    parts += 0.0
    # One stable sort by series, then signature: equal signatures meet
    # with their order kept, and each group comes out in normalize's order.
    perm = np.lexsort((*lmn_rows[::-1], *parts[::-1], series))
    series = series[perm]
    new_sig = series[1:] != series[:-1]
    for part in (*parts, *lmn_rows):
        part = part[perm]
        new_sig |= part[1:] != part[:-1]
    del parts, part, lmn_rows
    starts = np.flatnonzero(np.concatenate(([True], new_sig)))
    del new_sig
    total = np.add.reduceat(coeff[perm], starts)
    del coeff
    keep = ~(np.abs(total) < _COEFF_DROP)
    # Exponents come from each signature's first term, as in normalize:
    # its block's k = 0 exponents, moved by its k.
    rep = perm[starts[keep]]
    del perm
    total, series = total[keep], series[starts[keep]]
    block, k = block[rep], k[rep]
    del starts, keep, rep
    # The blocks some term survives in, series by series (block numbers
    # rise with the series), as tables of k = 0 exponents and log powers,
    # and each series' first block.
    used = np.zeros(row.size, dtype=bool)
    used[block] = True
    block = (np.cumsum(used) - 1)[block]
    used = np.flatnonzero(used)
    used_row = row[used]
    numbers = np.arange(len(regions) * len(functions) + 1)
    first_block = np.searchsorted(row_series[used_row], numbers).tolist()
    rise = rising[used_row] + 0.0
    block_exps = np.zeros((used.size, 3), dtype=complex)
    block_lmn = np.zeros((used.size, 3), dtype=np.int64)
    for q, region in enumerate(regions):
        spec = _REGIONS[region]
        at = slice(first_block[q * len(functions)], first_block[(q + 1) * len(functions)])
        block_exps[at, spec.outer] = falling[used_row[at]]
        block_exps[at, spec.inner] = rise[at]
        col0, col1 = spec.log_columns  # as a slice, which numpy assigns fastest
        block_lmn[at, col0:col1 + 1:col1 - col0] = lmn[used[at]]
    if not (np.isfinite(total).all() and np.isfinite(block_exps).all()):
        raise ValueError("coefficient and exponents must be finite")
    key = rise[block] + k + 0.0
    # Where each group begins, and each series' first term and group; then
    # each group's first term within its series, so that a series' starts
    # are a slice of firsts.
    new_group = np.ones(key.size, dtype=bool)
    new_group[1:] = (key[1:] != key[:-1]) | (series[1:] != series[:-1])
    firsts = np.flatnonzero(new_group)
    bounds = np.searchsorted(series, numbers)
    first_group = np.searchsorted(firsts, bounds).tolist()
    keys = key[firsts].tolist()
    firsts -= bounds[series[firsts]]
    bounds = bounds.tolist()
    expansions = []
    for q, region in enumerate(regions):
        family = []
        for i in range(q * len(functions), (q + 1) * len(functions)):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:  # every term dropped
                family.append(RegionExpansion(region, bt, order))
                continue
            b0, b1 = first_block[i], first_block[i + 1]
            groups = slice(first_group[i], first_group[i + 1])
            family.append(RegionExpansion(
                region, bt, order, starts=firsts[groups][1:],
                keys=keys[groups], coeffs=total[lo:hi], k=k[lo:hi], block=block[lo:hi] - b0,
                block_exps=block_exps[b0:b1], block_lmn=block_lmn[b0:b1]))
        expansions.append(family)
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
        return (step.sweep + _phase(1.0 + k * cmath.exp(-1j * phi1))
                - _phase(1.0 + k * cmath.exp(-1j * phi0)))
    k = b / a
    return _phase(1.0 + k * cmath.exp(1j * phi1)) - _phase(1.0 + k * cmath.exp(1j * phi0))


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
        dv = _phase(e / s)
        dw = _phase(w1 / w0)
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


def _crossings(walk: list[tuple[_Step, float]]) -> tuple[int, int, int]:
    """Net sheet index changes of (z1, z2, z1 - z2) over the moves of a
    validated walk (paths._walk)."""
    k1 = k2 = k12 = 0
    for step, _ in walk:
        d1, d2, d12 = _move_crossings(step)
        k1, k2, k12 = k1 + d1, k2 + d2, k12 + d12
    return k1, k2, k12


def winding_profile(path: PathSpec) -> tuple[int, int, int]:
    """Net sheet index changes of (z1, z2, z1 - z2) along the path.

    For a closed loop these are the winding numbers of the three
    quantities around 0.  Each move's change is counted in closed form
    from its geometry, so the cost is O(moves) and nothing is sampled.
    """
    return _crossings(_walk(path))


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
    triple and one oracle run for them all; each result has the same bits
    as when its function is continued alone.

    The path is validated and walked once (paths._walk), and that walk
    gives the crossing count, the end point and the oracle's moves.  The
    oracle samples the path once per refinement level and reads the three
    logs once per level for the whole family; each function settles at
    the level it would settle at alone.  Raises validate_path's
    ValueError for a path that touches a singular point, and
    ArithmeticError when a certificate is not below tol.
    """
    functions = list(functions)
    bt = BranchTriple(*bt)
    walk = _walk(path)
    crossings = _crossings(walk)
    end_triple = BranchTriple(*(p + k for p, k in zip(bt, crossings)))
    end = _end_point(path, (step for step, _ in walk))
    end_values = [eval_branch2(f, end_triple, *end) for f in functions]
    results = []
    for end_value, (oracle, samples) in zip(end_values, _oracle(functions, bt, path, walk)):
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
