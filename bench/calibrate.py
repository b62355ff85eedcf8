"""Rescaling of wall times to a fixed machine speed.

The host this benchmark was set up on shares its cores with other
machines' work, and the speed left to a process drifts by tens of percent
within minutes: run_suite() took anywhere from 3.7 to 6.4 s in fresh
processes, and CPU time, the fastest of several passes and the median of
many passes all drifted with it.  So every timed item is followed, outside
its timed interval, by a calibration sample, and each item's wall time is
multiplied by a reference over the median of the samples taken around it.
The figures then read as seconds on a machine that takes the reference
time for a sample.

In process the sample is a fixed kernel of the benchmark's own (no
twistlab code): complex logarithms and powers, a dict of partial sums and
numpy phase arithmetic, the kinds of operation twistlab spends its time
in.  The median is over the samples of the item and of the five items on
either side.

A `cli` item is a child process, whose cost is mostly starting an
interpreter and importing, which the kernel does not follow.  There the
sample is a bare interpreter start (`python -c pass`), and the median is
over the whole run.

The README records raw and rescaled spreads for the same runs.
"""

from __future__ import annotations

import cmath
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

clock = time.perf_counter

# Share of an item's time spent on kernel runs after it, and the fewest runs.
KERNEL_SHARE = 0.05
KERNEL_MIN_RUNS = 4

_POINTS = [complex(0.3 + 0.01 * k, 0.7 - 0.02 * k) for k in range(24)]
_PATH = np.exp(1j * np.linspace(0.0, 40.0, 1500)) * 1.7


def kernel() -> float:
    acc: dict[float, complex] = {}
    for z in _POINTS:
        log = cmath.log(z)
        v = cmath.exp((0.5 + 0.1j) * log) * log * log
        key = round(v.real, 3)
        acc[key] = acc.get(key, 0j) + v
    steps = np.angle(_PATH[1:] / _PATH[:-1])
    return float(np.sum(steps)) + len(acc)


@dataclass(frozen=True)
class Calibration:
    """How to take a sample after an item, and what the samples refer to.

    sample(item_seconds) returns one sample in seconds; reference_s is the
    sample time that rescaled figures refer to (about the uncontended time
    on the machine in the README); half_window is how many items on either
    side share in an item's median, or None for the whole run.
    """

    sample: Callable[[float], float]
    reference_s: float
    half_window: int | None


def _kernel_sample(item_seconds: float) -> float:
    """Mean seconds per kernel run over a share of the item's time."""
    runs = max(KERNEL_MIN_RUNS, round(KERNEL_SHARE * item_seconds / KERNEL.reference_s))
    t0 = clock()
    for _ in range(runs):
        kernel()
    return (clock() - t0) / runs


def _start_sample(item_seconds: float) -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return clock() - t0


KERNEL = Calibration(_kernel_sample, 5.0e-5, 5)
START = Calibration(_start_sample, 0.05, None)


def rescale(times: list[float], samples: list[float], cal: Calibration) -> list[float]:
    """Each item's time times reference_s over the median of its window."""
    if cal.half_window is None:
        factor = cal.reference_s / statistics.median(samples)
        return [t * factor for t in times]
    h = cal.half_window
    return [t * cal.reference_s / statistics.median(samples[max(0, i - h):i + h + 1])
            for i, t in enumerate(times)]
