"""Region and path geometry for the benchmark, written apart from twistlab.

Arguments are taken in [0, 2*pi), the convention of the indexed logarithm.
The three expansion regions are a modulus ordering plus an argument window:

    product:  |z1| > |z2|,      arg(z1-z2) - arg z1 in (-pi/2, pi/2)
    reversed: |z2| > |z1|,      arg(z1-z2) - arg z2 in (-3pi/2, -pi/2)
    iterate:  |z2| > |z1-z2|,   arg z1 - arg z2 in (-pi/2, pi/2)

A move is ("segment", var, to) or ("arc", var, turns, about, center), with
about one of "origin", "other" and "point".
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def parg(z: complex) -> float:
    """Argument of z in [0, 2*pi)."""
    a = cmath.phase(z)
    return a + TWO_PI if a < 0.0 else a


def region_ratio(region: str, z1: complex, z2: complex) -> float:
    """Modulus of the region's small quantity: z2/z1, z1/z2 or (z1-z2)/z2."""
    if region == "product":
        return abs(z2) / abs(z1)
    if region == "reversed":
        return abs(z1) / abs(z2)
    if region == "iterate":
        return abs(z1 - z2) / abs(z2)
    raise ValueError(region)


def region_window(region: str, z1: complex, z2: complex) -> float:
    """Distance in radians of the argument difference from the nearer edge
    of the region's window; positive inside."""
    if region == "product":
        return HALF_PI - abs(parg(z1 - z2) - parg(z1))
    if region == "reversed":
        return HALF_PI - abs(parg(z1 - z2) - parg(z2) + math.pi)
    if region == "iterate":
        return HALF_PI - abs(parg(z1) - parg(z2))
    raise ValueError(region)


def designated(region: str, triple) -> tuple[int, int, int]:
    """Branch triple the region series converges to."""
    p1, p2, p12 = triple
    if region == "product":
        return (p1, p2, p1)
    if region == "reversed":
        return (p1, p2, p2)
    if region == "iterate":
        return (p2, p2, p12)
    raise ValueError(region)


def _wrap_pi(x: float) -> float:
    y = math.fmod(x, TWO_PI)
    if y > math.pi:
        y -= TWO_PI
    elif y <= -math.pi:
        y += TWO_PI
    return y


def _arc_arg_change(q_center: complex, q_start: complex, sweep: float) -> float:
    """Continuous change of arg q while q runs along a circle about q_center.

    Each whole turn adds 2*pi when the circle encloses 0 and nothing when it
    does not.  The remaining sweep is cut into steps over which arg q moves
    by less than pi/2 (the circle's clearance from 0 bounds its speed), and
    the wrapped steps are summed.
    """
    radius = abs(q_start - q_center)
    clearance = abs(radius - abs(q_center))
    if clearance == 0.0:
        raise ValueError("arc passes through a singular point")
    sign = 1.0 if sweep > 0 else -1.0
    whole = int(abs(sweep) / TWO_PI)
    total = sign * whole * TWO_PI if abs(q_center) < radius else 0.0
    rest = sweep - sign * whole * TWO_PI
    steps = max(1, math.ceil(abs(rest) * radius / clearance / HALF_PI))
    theta0 = cmath.phase(q_start - q_center)
    prev = q_start
    for k in range(1, steps + 1):
        cur = q_center + radius * cmath.exp(1j * (theta0 + rest * k / steps))
        total += _wrap_pi(cmath.phase(cur) - cmath.phase(prev))
        prev = cur
    return total


def _center(move, other: complex) -> complex:
    return {"origin": 0j, "other": other, "point": complex(move[4])}[move[3]]


def walk(z1: complex, z2: complex, moves) -> tuple[complex, complex, tuple[int, int, int]]:
    """End point of a path and the net change of (p1, p2, p12) along it.

    A quantity's sheet index changes by (arg at the start + continuous
    change of arg - arg at the end) / (2*pi), an integer.
    """
    z1, z2 = complex(z1), complex(z2)
    start = (z1, z2, z1 - z2)
    change = [0.0, 0.0, 0.0]
    for move in moves:
        var = move[1]
        moving, other = (z1, z2) if var == "z1" else (z2, z1)
        if move[0] == "segment":
            end = complex(move[2])
        else:
            c = _center(move, other)
            sweep = TWO_PI * move[2]
            end = c + abs(moving - c) * cmath.exp(1j * (cmath.phase(moving - c) + sweep))
        # The moving variable (anchor 0) and its difference with the fixed
        # one (anchor `other`); arg(z2 - z1) and arg(z1 - z2) change alike.
        for idx, anchor in ((0 if var == "z1" else 1, 0j), (2, other)):
            q0, q1 = moving - anchor, end - anchor
            if move[0] == "segment":
                change[idx] += _wrap_pi(cmath.phase(q1) - cmath.phase(q0))
            else:
                change[idx] += _arc_arg_change(c - anchor, q0, sweep)
        if var == "z1":
            z1 = end
        else:
            z2 = end
    finish = (z1, z2, z1 - z2)
    shift = tuple(round((parg(a) + d - parg(b)) / TWO_PI)
                  for a, d, b in zip(start, change, finish))
    return z1, z2, shift
