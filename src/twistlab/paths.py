"""Piecewise paths of (z1, z2) and the sampled continuation oracle.

A PathSpec moves one variable at a time along segments and arcs.  One
walker, _walk_moves, resolves the geometry of each move; validate_path,
path_end, sample_path, the oracle and the closed-form crossing count in
logfun are built on it.  One sampling rule, _move_samples, places the
points of a move, for sample_path and for the oracle.

oracle_continue re-derives analytic continuation with none of the branch
index machinery: from branchcalc's lp at the start, the one cut rule, it
follows each of z1, z2 and z1 - z2 along the sampled path by the angles
of its samples, counting exactly the steps that wrap past the cut at -pi,
and evaluates the monomials from the end logs.  A quantity no move
touches keeps its start log exactly, since its angles never change.  It
shares only the path geometry and lp with the crossing count it checks,
so agreement between the two is evidence, not tautology.  The oracle
serves a whole family at once (_oracle, behind logfun.continue_family):
it walks the path once, and each refinement level samples each move once
and takes the angles of only the moving variable and of z1 - z2 along it
for every function, its coarse side being every other point of the same
sampling.  The samples of one move are held at a time; only the angles
of a quantity the moves change span the path.  This module imports
nothing from logfun, which calls the oracle for its certificate.
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


def _phase(z: complex) -> float:
    """arg z in [-pi, pi], cmath.phase's value; also where cmath.phase
    raises OverflowError because the angle underflows (2.2 - 5e-324j)."""
    return math.atan2(z.imag, z.real)


def _walk_moves(path: PathSpec) -> Iterator[_Step]:
    """The geometry of each move of the path, in order.

    Raises ValueError for an unknown variable or move type, for a move
    whose track leaves the float range (a segment whose span overflows, an
    arc whose sweep 2*pi*turns or whose reach |center| + radius does), so
    that no sample of it is inf or nan, and for an arc of zero radius that
    turns.
    """
    pos = {"z1": path.z1, "z2": path.z2}
    for idx, move in enumerate(path.moves):
        if move.var not in pos:
            raise ValueError(f"move {idx}: var must be 'z1' or 'z2'")
        start, other = pos[move.var], pos["z2" if move.var == "z1" else "z1"]
        if isinstance(move, Segment):
            end = complex(move.to)
            if not cmath.isfinite(end - start):
                raise ValueError(
                    f"move {idx}: segment from {start} to {end} leaves the float range")
            step = _Step(move.var, start, end, other, None, 0.0, 0.0, 0.0, 0.0)
        elif isinstance(move, Arc):
            sweep = TWO_PI * move.turns
            if not math.isfinite(sweep):
                raise ValueError(
                    f"move {idx}: arc of {move.turns} turns sweeps a non-finite angle")
            center = _resolve_center(move, other)
            try:
                radius = abs(start - center)
                reach = abs(center) + radius
            except OverflowError:  # a modulus past the float range
                reach = math.inf
            if not math.isfinite(reach):
                raise ValueError(
                    f"move {idx}: arc from {start} about {center} leaves the float range")
            if radius == 0.0 and move.turns != 0.0:
                raise ValueError(f"move {idx}: arc of zero radius")
            theta0 = _phase(start - center)
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
    """Distance from point c to segment [a, b]; projects by a quotient, not
    a squared length, so a segment far past the square root of the float
    range does not overflow."""
    ab = b - a
    if ab == 0:
        return abs(c - a)
    u = min(1.0, max(0.0, ((c - a) / ab).real))
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
    phi = _phase(d)
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
    (infinite for an arc of zero turns, which does not move); a ValueError
    naming the move where a distance is past the float range."""
    try:
        if step.center is None:
            return min(_seg_point_dist(step.start, step.end, c) for c in (0j, step.other))
        if step.sweep == 0.0:
            return math.inf
        return min(_arc_point_dist(step.center, step.radius, step.theta0, step.sweep, c)
                   for c in (0j, step.other))
    except OverflowError:
        raise ValueError(f"{step.var} move from {step.start} to {step.end}: its distance "
                         f"to 0 or to {step.other} is past the float range") from None


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


def _move_samples(step: _Step, n: int) -> np.ndarray:
    """The n samples of the moving variable after the move's start, evenly
    spaced in the segment's parameter or the arc's angle, the last of them
    exactly the move's end."""
    # np.linspace(0.0, 1.0, n + 1)[1:] but for its last point, which step.end
    # replaces; linspace's own overhead is most of a short move's sampling.
    ts = np.arange(1, n + 1) * (1.0 / n)
    if step.center is None:
        pos = ts * (step.end - step.start)
        pos += step.start
    else:
        ts *= step.sweep
        ts += step.theta0
        pos = ts * 1j
        np.exp(pos, out=pos)
        pos *= step.radius
        pos += step.center
    pos[-1] = step.end  # exact endpoint, no rounding
    return pos


def _check_budget(total: int, scale: int) -> None:
    """Refuse a sampling of total points at scale before allocating it."""
    if total > SAMPLE_BUDGET:
        raise ArithmeticError(
            f"path needs {total} samples at scale {scale}, over the sample "
            f"budget (SAMPLE_BUDGET = {SAMPLE_BUDGET})")


def sample_path(path: PathSpec, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sampled positions (z1 array, z2 array) along the path.

    Each move adds scale times its base count of points after its start,
    _move_samples of the moving variable and the fixed one's position.
    Raises ArithmeticError, before allocating, when the path needs more
    than SAMPLE_BUDGET points.
    """
    steps = list(_walk_moves(path))
    counts = [_base_samples(step) * scale for step in steps]
    _check_budget(1 + sum(counts), scale)
    zs1: list[np.ndarray] = [np.array([path.z1])]
    zs2: list[np.ndarray] = [np.array([path.z2])]
    for step, n in zip(steps, counts):
        pos = _move_samples(step, n)
        fixed = np.full(n, step.other)
        zs1.append(pos if step.var == "z1" else fixed)
        zs2.append(fixed if step.var == "z1" else pos)
    return np.concatenate(zs1), np.concatenate(zs2)


# ---------------------------------------------------------------------------
# Independent continuation oracle
# ---------------------------------------------------------------------------


def _level_logs(bt, z1: complex, z2: complex, moves) -> tuple[tuple, tuple]:
    """The three logs at the end of the path from (z1, z2) sampled move by
    move, (step, n) for each move taking n samples of it, read on the fine
    grid (every sample) and on the coarse grid (every other one).  Each n
    is even, so every move ends on the coarse grid.

    Each log is lp on bt's sheet at the start plus its quantity's angle
    change, end minus start: 2*pi more for each step between successive
    angles that falls by over pi (a counterclockwise pass of the cut at
    -pi), 2*pi less for each that rises by over pi.  Each quantity's track
    holds its start angle and then its angles along each move that changes
    it: a move samples its variable, takes the angles of those samples and
    of z1 - z2 along them, and drops the samples.  The fixed variable's
    angle does not change, so it is not sampled, and a quantity no move
    touches keeps its start log exactly.
    """
    start = (z1, z2, z1 - z2)
    end = list(start)
    tracks = [np.empty(1 + sum(n for step, n in moves if step.var == var)) for var in ("z1", "z2")]
    tracks.append(np.empty(1 + sum(n for _, n in moves)))
    for track, theta in zip(tracks, np.angle(np.array(start))):
        track[0] = theta
    filled = [1, 1, 1]

    def record(k: int, z: np.ndarray) -> None:
        """np.angle(z), written into track k after the angles before it."""
        np.arctan2(z.imag, z.real, out=tracks[k][filled[k]:filled[k] + len(z)])
        filled[k] += len(z)

    for step, n in moves:
        q = 0 if step.var == "z1" else 1
        pos = _move_samples(step, n)
        record(q, pos)
        if q == 0:
            np.subtract(pos, step.other, out=pos)
        else:
            np.subtract(step.other, pos, out=pos)
        record(2, pos)
        end[q], end[2] = step.end, complex(pos[-1])
    sides: tuple[list, list] = ([], [])
    for p, s, e, theta in zip(bt, start, end, tracks):
        re, im = _lp(p, e).real, _lp(p, s).imag
        for logs, th in zip(sides, (theta, theta[::2])):
            steps = th[1:] - th[:-1]
            wraps = np.count_nonzero(steps < -math.pi) - np.count_nonzero(steps > math.pi)
            logs.append(complex(re, im + float(th[-1] - th[0]) + TWO_PI * wraps))
    return tuple(sides[0]), tuple(sides[1])


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

    The path is walked once; refinement level i then samples each move
    once, at scale 2**i, and its coarse side, scale 2**(i - 1), is every
    other point of that sampling, bit for bit (_move_samples' grid is
    dyadic).  The samples are those of sample_path at the same scale.
    Each function leaves at the first level where its two sides agree, as
    it would alone.
    """
    validate_path(path)
    functions = list(functions)
    steps = list(_walk_moves(path))
    base = [_base_samples(step) for step in steps]
    per_scale = sum(base)
    out: list = [None] * len(functions)
    left = range(len(functions))
    scale = 2
    for _ in range(_MAX_REFINE):
        total = 1 + scale * per_scale
        _check_budget(total, scale)
        fine, coarse = _level_logs(bt, path.z1, path.z2,
                                   [(step, scale * n) for step, n in zip(steps, base)])
        for i in left:
            value = _end_value(functions[i], fine)
            if abs(value - _end_value(functions[i], coarse)) < _ORACLE_TOL * max(1.0, abs(value)):
                out[i] = (value, total)
        left = [i for i in left if out[i] is None]
        if not left:
            return out
        scale *= 2
    raise ArithmeticError(
        f"oracle continuation did not settle below {_ORACLE_TOL:g} after {_MAX_REFINE} "
        "doublings")


def oracle_continue(f, bt, path: PathSpec) -> complex:
    """End value of f continued along the path, by counting phase wraps.

    No branch indices are formed along the way: each log's imaginary part
    is lp on bt's sheet at the start plus the change of its quantity's
    sampled angle, end minus start, with 2*pi for each step that wraps past
    the cut at -pi counterclockwise less 2*pi for each clockwise one; the
    monomials are evaluated from those logs at the endpoint.  A quantity no
    move touches (z2 on a path of z1 moves, say) keeps its start log
    exactly.  Sampling is doubled until two successive refinements agree
    within 1e-10 relative to the larger of 1 and the end magnitude
    (step-doubling acceptance), at most 12 times; a path that would need
    more than SAMPLE_BUDGET points raises ArithmeticError.  This is the
    one-function case of the family oracle behind continue_family, which
    samples each move once per refinement level for all its functions,
    holding the samples of one move at a time.
    """
    return _oracle([f], bt, path)[0][0]
