"""Two-variable logarithmic functions with indexed branches.

The objects here are finite sums of monomials

    a * z1^r * z2^s * (z1 - z2)^t * (log z1)^l * (log z2)^m * (log(z1 - z2))^n

with complex coefficients and exponents and non-negative integer log powers.
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

winding_profile counts how the sheet indices of z1, z2 and z1 - z2 change
along a path (paths.PathSpec), in closed form for each segment and arc.
continue_along adds the counts to a branch triple and certifies the end
value against the sampled oracle, paths.oracle_continue.
"""

from __future__ import annotations

import cmath
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

# Most candidate monomials expand_region builds before merging (order + 1
# per block), so a hostile order or log power cannot exhaust memory.
SERIES_BUDGET = 1 << 20

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
    powers are non-negative integers and the coefficient and exponents are
    finite, raising ValueError otherwise.
    """

    __slots__ = ()

    def __new__(cls, coeff: complex, r: complex = 0.0, s: complex = 0.0, t: complex = 0.0,
                l: int = 0, m: int = 0, n: int = 0):
        try:  # operator.index refuses floats, 1.5 and 2.0 alike
            bad = operator.index(l) < 0 or operator.index(m) < 0 or operator.index(n) < 0
        except TypeError:
            bad = True
        if bad:
            raise ValueError("log powers must be non-negative integers")
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

    rows, the terms packed for _sum_terms, is made on first evaluation and
    kept; equality, hashing, copies and pickles see only terms.
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


@dataclass(frozen=True)
class OneVarLogSeries:
    """Finite sum of a * x^s (log x)^m terms in a single variable."""

    terms: tuple[tuple[complex, complex, int], ...]

    def __init__(self, terms: Iterable[tuple[complex, complex, int]] = ()):
        object.__setattr__(self, "terms", tuple(
            (complex(a), complex(s), int(m)) for a, s, m in terms
        ))


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


def _keys_close(u: LogMonomial, v: LogMonomial, tol: float) -> bool:
    if (u.l, u.m, u.n) != (v.l, v.m, v.n):
        return False
    for a, b in ((u.r, v.r), (u.s, v.s), (u.t, v.t)):
        if abs(complex(a) - complex(b)) > tol * (1.0 + abs(complex(a))):
            return False
    return True


def term_distance(f: LogFunction, g: LogFunction, key_tol: float = 1e-12) -> float:
    """Max coefficient gap between the canonical forms of f and g.

    Exponents are matched up to a relative key_tol, so algebraically equal
    functions whose exponents drifted by rounding still compare as close.
    """
    fs = list(normalize(f).terms)
    gs = list(normalize(g).terms)
    worst = 0.0
    for u in fs:
        match = None
        for j, v in enumerate(gs):
            if _keys_close(u, v, key_tol):
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


def _int_array(rows) -> np.ndarray:
    """rows of Python ints as int64, or as objects where one does not fit,
    so that every entry stays exact (np.array would make 2**63 beside 0 a
    float64)."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


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


def eval_branch2(f: LogFunction, bt: BranchTriple, z1: complex, z2: complex) -> complex:
    """Evaluate f at (z1, z2) on the branch triple bt."""
    return _sum_terms(f.rows, (), *_point_logs(bt, z1, z2))


def eval_branch1(series: OneVarLogSeries, p: int, z: complex) -> complex:
    """Evaluate a one-variable log series at z on branch p."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    if z == 0:
        raise ValueError("z must be nonzero")
    L = lp(p, z)
    # Rows (a, s, 0, 0, m, 0, 0): their z ** 0 = 1 + 0j factors change at most a zero's sign.
    rows = [(a, _exponent(s), 0, 0, m, 0, 0) for a, s, m in series.terms]
    return _sum_terms(rows, (), z, z, z, L, L, L)


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


_MODULUS_ORDERING = {"product": "|z2| < |z1|", "reversed": "|z1| < |z2|",
                     "iterate": "|z1 - z2| < |z2|"}


def _inner_outer(region: str, z1: complex, z2: complex) -> tuple[complex, complex]:
    """The region's inner and outer quantities: its modulus ordering is
    |inner| < |outer|, and its series diverge where that fails."""
    if region == "product":
        return z2, z1
    if region == "reversed":
        return z1, z2
    if region == "iterate":
        return z1 - z2, z2
    raise ValueError(f"unknown region {region!r}")


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


@dataclass
class RegionExpansion:
    """Truncated region series, grouped by inner-variable total exponent.

    A group's key is the total exponent of the region's inner quantity (z2
    for product, z1 for reversed, z1 - z2 for iterate).  rows packs the
    terms for _sum_terms as tuples (a, r, s, t, l, m, n), group by group in
    (real, imag) key order and each group in normalize's order; keys lists
    the keys, starts the row where each group but the first begins.  eval
    adds each group's subtotal, what eval_branch2 gives for it, in that
    order.  groups, each key's LogFunction in the order expand_region met
    them, is built on first use and kept.
    """

    region: str
    bt: BranchTriple
    designated: BranchTriple
    order: int
    rows: list[tuple] = field(default_factory=list, repr=False)
    starts: list[int] = field(default_factory=list, repr=False)
    keys: list[complex] = field(default_factory=list)

    def group_keys(self) -> list[complex]:
        return list(self.keys)

    @cached_property
    def groups(self) -> dict[complex, LogFunction]:
        groups = [(key, LogFunction(LogMonomial(a, complex(r), complex(s), complex(t), *lmn)
                                    for a, r, s, t, *lmn in self.rows[lo:hi]))
                  for key, lo, hi in zip(self.keys, [0, *self.starts],
                                         [*self.starts, len(self.rows)])]
        # expand_region met each group at its first term, the least by key().
        return dict(sorted(groups, key=lambda kg: kg[1].terms[0].key()))

    def eval(self, z1: complex, z2: complex) -> complex:
        """Sum of the series at (z1, z2) on the designated triple.

        Raises ValueError where the region's modulus ordering fails, since
        the series diverges there.  The argument window is not checked: a
        series may be evaluated past it on purpose, to show it then sums
        to another branch.
        """
        inner, outer = _inner_outer(self.region, complex(z1), complex(z2))
        if not abs(inner) < abs(outer):
            raise ValueError(
                f"z1 = {z1}, z2 = {z2} is outside the {self.region} region: its series "
                f"needs {_MODULUS_ORDERING[self.region]}")
        return _sum_terms(self.rows, self.starts, *_point_logs(self.designated, z1, z2))


def expand_region(f: LogFunction, region: str, bt: BranchTriple, order: int) -> RegionExpansion:
    """Series expansion of f in the given region, truncated at `order`.

    Within the region the partial sums converge (as order grows) to
    eval_branch2(f, designated_triple(region, bt), z1, z2).  Group keys
    follow the inner variable: z2-exponent (product), z1-exponent
    (reversed), (z1-z2)-exponent (iterate).

    Each input term and log-power split contributes one block of
    order + 1 candidate monomials, one per power k of the auxiliary ratio.
    The blocks are built together, from one table of binomial series (a
    row per term) and one of log powers; a block with no log power takes
    its binomial row as it is.  All blocks are merged at once: exact zeros
    of the series are dropped, equal exponent signatures summed in order of
    appearance, coefficients below 1e-15 dropped, and the survivors kept in
    normalize's order.
    Raises ValueError, before allocating, when that makes more than
    SERIES_BUDGET candidate monomials.
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    if order < 0:
        raise ValueError("order must be non-negative")
    # Blocks per term: one per log-power split of the expanded log.
    blocks_per_order = sum(
        u.n + 1 if region == "product"
        else (u.n + 1) * (u.n + 2) // 2 if region == "reversed"
        else u.l + 1
        for u in f.terms)
    candidates = (order + 1) * blocks_per_order
    if candidates > SERIES_BUDGET:
        raise ValueError(
            f"{region} series of order {order} needs {candidates} candidate monomials, "
            f"over the series budget (SERIES_BUDGET = {SERIES_BUDGET})")
    bt = BranchTriple(*bt)
    expansion = RegionExpansion(region, bt, designated_triple(region, bt), order)
    if not f.terms:
        return expansion
    # Per term: the binomial exponent, and the exponents that fall
    # (falling - k) and rise (rising + k) with the power k of the auxiliary
    # ratio, in Python's association, (r + t) - k and so on, so signatures
    # match bit for bit.  Per block: (term, log power j, scale, (l, m, n));
    # the block's coefficients are scale * (binomial row * j-th log power).
    binom_exps, falling, rising, blocks = [], [], [], []
    minus_pi_i = complex(0.0, -math.pi)
    for i, u in enumerate(f.terms):
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
    of_term = np.array(term)[block]
    # Columns r, s, t: one exponent falls with k, one rises, one is 0.
    down, up, key_col = {"product": (0, 1, 1), "reversed": (1, 0, 0),
                         "iterate": (1, 2, 2)}[region]
    exps = np.zeros((k.size, 3), dtype=complex)
    exps[:, down] = np.array(falling)[of_term] - k
    exps[:, up] = np.array(rising)[of_term] + k
    lmn = _int_array(lmn)[block]
    # The signature of LogMonomial.key: exponent parts with -0.0 made +0.0,
    # then log powers.  The two blocks of columns are compared apart, as
    # the log powers may be objects, which a shared dtype would round.
    parts = exps.view(float) + 0.0
    # One stable sort by group key (the key column's parts), then signature:
    # equal signatures meet with their order kept, and each group comes out
    # in normalize's order.
    perm = np.lexsort((*lmn.T[::-1], *parts.T[::-1],
                       parts[:, 2 * key_col + 1], parts[:, 2 * key_col]))
    parts, lmn_sorted = parts[perm], lmn[perm]
    new_sig = ((parts[1:] != parts[:-1]).any(axis=1)
               | (lmn_sorted[1:] != lmn_sorted[:-1]).any(axis=1))
    starts = np.flatnonzero(np.concatenate(([True], new_sig)))
    total = np.add.reduceat(coeff[perm], starts)
    keep = ~(np.abs(total) < _COEFF_DROP)
    # Exponents come from each signature's first term, as in normalize.
    rep = perm[starts[keep]]
    total, exps, lmn = total[keep], exps[rep], lmn[rep]
    if not (np.isfinite(total).all() and np.isfinite(exps).all()):
        raise ValueError("coefficient and exponents must be finite")
    if not total.size:
        return expansion
    key = exps[:, key_col] + 0.0
    group_starts = np.flatnonzero(key[1:] != key[:-1]) + 1
    # Within each column, a run of rows whose exponents have equal bits
    # shares one object, so _sum_terms makes the run's power once; -0.0
    # and +0.0 do not share.
    bits = exps.view(np.int64).reshape(-1, 3, 2)
    new_run = np.ones(exps.shape, dtype=bool)
    new_run[1:] = (bits[1:] != bits[:-1]).any(axis=2)
    runs = np.cumsum(new_run.T).reshape(3, -1) - 1
    rst = _exponents(exps.T[new_run.T])[runs].tolist()
    expansion.rows = list(zip(total.tolist(), *rst, *lmn.T.tolist()))
    expansion.starts = group_starts.tolist()
    expansion.keys = key[np.concatenate(([0], group_starts))].tolist()
    return expansion


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
    """Outcome of continue_along."""

    end_triple: BranchTriple
    end_value: complex
    start_value: complex
    certificate: float
    samples: int
    crossings: tuple[int, int, int]
    oracle_value: complex


def continue_along(f: LogFunction, bt: BranchTriple, path: PathSpec,
                   tol: float = 1e-9) -> ContinuationResult:
    """Transport the branch triple along the path and certify the result.

    The end triple is the start triple plus winding_profile(path), an
    exact count.  The certificate is the gap between f on that triple at
    the path's end and the independent oracle_continue value, relative to
    the larger of 1 and their sizes; samples is the number of points the
    oracle accepted.  Raises ArithmeticError when the certificate is not
    below tol.
    """
    bt = BranchTriple(*bt)
    crossings = winding_profile(path)
    end_triple = BranchTriple(*(p + k for p, k in zip(bt, crossings)))
    end_value = eval_branch2(f, end_triple, *path_end(path))
    oracle, samples = _oracle(f, bt, path)
    certificate = abs(end_value - oracle) / max(1.0, abs(end_value), abs(oracle))
    if not certificate < tol:
        raise ArithmeticError(
            f"continuation end value differs from the oracle by {certificate:.3e} "
            f"(relative), not below {tol:g}")
    return ContinuationResult(
        end_triple=end_triple,
        end_value=end_value,
        start_value=eval_branch2(f, bt, path.z1, path.z2),
        certificate=certificate,
        samples=samples,
        crossings=crossings,
        oracle_value=oracle,
    )
