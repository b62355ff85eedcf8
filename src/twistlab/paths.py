"""Piecewise paths of (z1, z2) and the sampled continuation oracle.

A PathSpec moves one variable at a time along segments and arcs.  One
walker, _walk_moves, resolves the geometry of each move; validate_path,
path_end, sample_path and the closed-form crossing count in logfun are
built on it.

oracle_continue re-derives analytic continuation with none of the branch
index machinery: from branchcalc's lp at the start, the one cut rule, it
unwraps phases stepwise along the sampled path as plain floats and
evaluates the monomials from those accumulated logs.  Only the quantities
a move moves are unwrapped: z1 or z2 when some move names it, z1 - z2
when any move does.  An unmoved one keeps its start log exactly, since
its stepwise increments would be only the rounding of x/x.  It shares
only the path geometry and lp with the crossing count it checks, so
agreement between the two is evidence, not tautology.  The oracle serves a
whole family at once (_oracle, behind logfun.continue_family): each
refinement level samples the path and unwraps its logs once for every
function, its coarse side being every other point of the same sampling.
This module imports nothing from logfun, which calls the oracle for its
certificate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .branchcalc import TWO_PI, _lp

# Most points sample_path gives one variable of one path: a path that needs
# more (a huge turn count, or an arc grazing a singular point) is refused.
SAMPLE_BUDGET = 1 << 20

# The oracle doubles its sampling until two refinements agree within
# _ORACLE_TOL relative, at most _MAX_REFINE times.
_ORACLE_TOL = 1e-10
_MAX_REFINE = 12

_MIN_CLEARANCE = 1e-9


@dataclass(frozen=True)
class Segment:
    """Straight move of one variable to the point `to`."""

    var: str
    to: complex


@dataclass(frozen=True)
class Arc:
    """Circular move of one variable about a center.

    about selects the center: "origin" (0), "other" (the current position
    of the non-moving variable), or "point" (the explicit `center` value).
    turns is the signed number of full revolutions; positive is
    counterclockwise.  The radius is the distance from the variable's
    current position to the resolved center.
    """

    var: str
    turns: float
    about: str = "origin"
    center: complex = 0.0


Move = Union[Segment, Arc]


@dataclass(frozen=True)
class PathSpec:
    """Piecewise path of both variables: a start point and a move list.

    Moves execute in order; during each move the other variable stays
    fixed.  The path is valid if neither variable ever reaches 0 and the
    two variables never collide (so z1 - z2 stays nonzero).
    """

    z1: complex
    z2: complex
    moves: tuple[Move, ...]

    def __init__(self, z1: complex, z2: complex, moves: Iterable[Move] = ()):
        object.__setattr__(self, "z1", complex(z1))
        object.__setattr__(self, "z2", complex(z2))
        object.__setattr__(self, "moves", tuple(moves))


class _Step(NamedTuple):
    """One move resolved against the positions before it.

    start and end are the moving variable's positions, other the fixed
    variable's.  An arc runs over center + radius * e^{i phi} for phi from
    theta0 to theta0 + sweep = theta0 + 2*pi*turns; a segment has center
    None and zeros for the rest.
    """

    var: str
    start: complex
    end: complex
    other: complex
    center: complex | None
    radius: float
    theta0: float
    turns: float
    sweep: float


def _resolve_center(move: Arc, other: complex) -> complex:
    if move.about == "origin":
        return 0.0 + 0.0j
    if move.about == "other":
        return other
    if move.about == "point":
        return complex(move.center)
    raise ValueError(f"unknown arc center kind {move.about!r}")


def _walk_moves(path: PathSpec) -> Iterator[_Step]:
    """The geometry of each move of the path, in order.

    Raises ValueError for an unknown variable or move type and for an arc
    of zero radius that turns.
    """
    pos = {"z1": path.z1, "z2": path.z2}
    for idx, move in enumerate(path.moves):
        if move.var not in pos:
            raise ValueError(f"move {idx}: var must be 'z1' or 'z2'")
        start, other = pos[move.var], pos["z2" if move.var == "z1" else "z1"]
        if isinstance(move, Segment):
            step = _Step(move.var, start, complex(move.to), other, None, 0.0, 0.0, 0.0, 0.0)
        elif isinstance(move, Arc):
            center = _resolve_center(move, other)
            radius = abs(start - center)
            if radius == 0.0 and move.turns != 0.0:
                raise ValueError(f"move {idx}: arc of zero radius")
            theta0 = cmath.phase(start - center)
            sweep = TWO_PI * move.turns
            end = center + radius * cmath.exp(1j * (theta0 + sweep))
            step = _Step(move.var, start, end, other, center, radius, theta0, move.turns, sweep)
        else:
            raise ValueError(f"move {idx}: unknown move type {type(move).__name__}")
        yield step
        pos[move.var] = step.end


def path_end(path: PathSpec) -> tuple[complex, complex]:
    """Positions (z1, z2) at the end of the path."""
    pos = {"z1": path.z1, "z2": path.z2}
    for step in _walk_moves(path):
        pos[step.var] = step.end
    return pos["z1"], pos["z2"]


def _seg_point_dist(a: complex, b: complex, c: complex) -> float:
    """Distance from point c to segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(c - a)
    u = ((c - a) * ab.conjugate()).real / denom
    u = min(1.0, max(0.0, u))
    return abs(c - (a + u * ab))


def _arc_point_dist(center: complex, radius: float, theta0: float,
                    sweep: float, c: complex) -> float:
    """Distance from point c to the arc center+radius*e^{i theta}, theta
    from theta0 through theta0+sweep."""
    d = c - center
    if abs(d) == 0.0:
        return radius
    if abs(sweep) >= TWO_PI:
        return abs(abs(d) - radius)
    phi = cmath.phase(d)
    rel = math.fmod((phi - theta0) * math.copysign(1.0, sweep), TWO_PI)
    if rel < 0.0:
        rel += TWO_PI
    if rel <= abs(sweep):
        return abs(abs(d) - radius)
    e0 = center + radius * cmath.exp(1j * theta0)
    e1 = center + radius * cmath.exp(1j * (theta0 + sweep))
    return min(abs(c - e0), abs(c - e1))


def _clearance(step: _Step) -> float:
    """Distance from the move's track to 0 and to the fixed variable
    (infinite for an arc of zero turns, which does not move)."""
    if step.center is None:
        return min(_seg_point_dist(step.start, step.end, c) for c in (0j, step.other))
    if step.sweep == 0.0:
        return math.inf
    return min(_arc_point_dist(step.center, step.radius, step.theta0, step.sweep, c)
               for c in (0j, step.other))


def validate_path(path: PathSpec) -> float:
    """Check the path avoids all singular points; return the min clearance.

    Raises ValueError if any move touches (within 1e-9) a point where z1,
    z2 or z1 - z2 vanishes.
    """
    if path.z1 == 0 or path.z2 == 0 or path.z1 == path.z2:
        raise ValueError("path start must have z1, z2, z1 - z2 nonzero")
    clearance = math.inf
    for idx, step in enumerate(_walk_moves(path)):
        clearance = min(clearance, _clearance(step))
        if clearance < _MIN_CLEARANCE:
            raise ValueError(f"move {idx} passes within {clearance:.3e} of a singular point")
    return clearance


def _base_samples(step: _Step) -> int:
    """Points per move at scale 1: 64 per segment; per arc at least 64 per
    turn, and more the closer the circle comes to a singular point."""
    if step.center is None:
        return 64
    clear = _clearance(step)
    quality = step.radius / clear if clear > 0 else 1.0
    turns = abs(step.turns)
    return max(64, math.ceil(64 * turns), math.ceil(32 * turns * quality))


def sample_path(path: PathSpec, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sampled positions (z1 array, z2 array) along the path.

    Each move adds scale times its base count of points after its start,
    the last of them exactly the move's end.  Raises ArithmeticError,
    before allocating, when the path needs more than SAMPLE_BUDGET points.
    """
    steps = list(_walk_moves(path))
    counts = [_base_samples(step) * scale for step in steps]
    total = 1 + sum(counts)
    if total > SAMPLE_BUDGET:
        raise ArithmeticError(
            f"path needs {total} samples at scale {scale}, over the sample "
            f"budget (SAMPLE_BUDGET = {SAMPLE_BUDGET})")
    zs1: list[np.ndarray] = [np.array([path.z1])]
    zs2: list[np.ndarray] = [np.array([path.z2])]
    for step, n in zip(steps, counts):
        ts = np.linspace(0.0, 1.0, n + 1)[1:]
        if step.center is None:
            pos = step.start + ts * (step.end - step.start)
        else:
            pos = step.center + step.radius * np.exp(1j * (step.theta0 + step.sweep * ts))
        pos[-1] = step.end  # exact endpoint, no rounding
        fixed = np.full(n, step.other)
        zs1.append(pos if step.var == "z1" else fixed)
        zs2.append(fixed if step.var == "z1" else pos)
    return np.concatenate(zs1), np.concatenate(zs2)


# ---------------------------------------------------------------------------
# Independent continuation oracle
# ---------------------------------------------------------------------------


def _end_logs(bt, a1: np.ndarray, a2: np.ndarray,
              moved: tuple[bool, bool, bool]) -> tuple[complex, complex, complex]:
    """The three logs at the end of the sampled path: lp on bt's sheets at
    its start, each moved quantity's phase then accumulated step by step
    along the path.  An unmoved quantity keeps its start log exactly: its
    steps would add only the rounding of x/x."""
    return tuple((complex(math.log(abs(complex(a[-1]))),
                          _lp(p, complex(a[0])).imag + float(np.sum(np.angle(a[1:] / a[:-1]))))
                  if m else _lp(p, complex(a[0])))
                 for a, p, m in zip((a1, a2, a1 - a2), bt, moved))


def _end_value(f, logs: tuple[complex, complex, complex]) -> complex:
    """f's monomials summed from the three end logs."""
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
    return total


def _oracle(functions, bt, path: PathSpec) -> list[tuple[complex, int]]:
    """oracle_continue's end value of each function and the number of
    samples it accepted.

    Which of z1, z2 and z1 - z2 the path moves is read once from the move
    list; an unmoved quantity keeps its start log on both sides of every
    level.  Refinement level i samples the path once, at scale 2**i.  The
    level's coarse side, scale 2**(i - 1), is every other point of it, bit
    for bit (sample_path's grid is dyadic), and was the fine side of level
    i - 1; only level 1 reads it from its own sampling.  Each function
    leaves at the first level where its two sides agree, as it would alone.
    """
    validate_path(path)
    named = {move.var for move in path.moves}
    moved = ("z1" in named, "z2" in named, bool(named))
    functions = list(functions)
    out: list = [None] * len(functions)
    prev = None
    scale = 2
    for _ in range(_MAX_REFINE):
        a1, a2 = sample_path(path, scale)
        if prev is None:
            # Contiguous copies, like sample_path's own arrays, so that
            # numpy takes the same loops over them.
            coarse = _end_logs(bt, a1[::2].copy(), a2[::2].copy(), moved)
            prev = {i: _end_value(f, coarse) for i, f in enumerate(functions)}
        logs = _end_logs(bt, a1, a2, moved)
        for i in list(prev):
            total = _end_value(functions[i], logs)
            if abs(total - prev[i]) < _ORACLE_TOL * max(1.0, abs(total)):
                out[i] = (total, len(a1))
                del prev[i]
            else:
                prev[i] = total
        if not prev:
            return out
        scale *= 2
    raise ArithmeticError(
        f"oracle continuation did not settle below {_ORACLE_TOL:g} after {_MAX_REFINE} "
        "doublings")


def oracle_continue(f, bt, path: PathSpec) -> complex:
    """End value of f continued along the path, by stepwise phase unwrapping.

    No branch indices are formed along the way: the three logs are carried
    as accumulated floats and the monomials are evaluated from them at the
    endpoint.  A log whose quantity no move moves (z2 on a path of z1
    moves, say) stays lp on bt's sheet at the start, exactly: its stepwise
    increments would be only the rounding of x/x.  Sampling is doubled until two successive refinements agree
    within 1e-10 relative to the larger of 1 and the end magnitude
    (step-doubling acceptance), at most 12 times; a path that would need
    more than SAMPLE_BUDGET points raises ArithmeticError.  This is the
    one-function case of the family oracle behind continue_family, which
    samples the path once per refinement level for all its functions.
    """
    return _oracle([f], bt, path)[0][0]
