"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU a process gets can run 30 % faster or slower
from one minute to the next, with CPU time moving as much as wall time, so
a median over one run cannot remove it.  The benchmark therefore runs a
fixed reference slice -- interpreter work shaped like a trial's (small
objects, method calls, tuples, dicts, an enum lookup and scalar numpy
random draws) but independent of qpcsim -- before and after every stretch
of timed work, a fraction of a second apart.  Each stretch is scaled by
the reference's nominal time over the mean of the two slices around it,
which expresses its time at the machine speed where one slice takes its
nominal time.  A change to qpcsim cannot move the slice, so it moves the
scaled time exactly as it moves the raw time.

Work spread over a forked two-worker pool follows the machine differently
from work in one process, so the ``--jobs 2`` workload's reference slice
runs the same work in such a pool.  Starting a process (exec, imports,
page faults) slows down less than interpreter work does, so set-up time is
instead scaled by a reference process that only imports numpy, run just
before each set-up sample.

The nominal values are about the medians measured on the 2-vCPU Intel
Xeon (2.1 GHz) machine the benchmark was written on.  They only set the
unit, and must stay fixed so that results remain comparable.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from enum import IntEnum
from typing import Callable, List, NamedTuple

import numpy as np

NOMINAL_SLICE_S = 0.002
NOMINAL_STARTUP_S = 0.2
NOMINAL_POOL_SLICE_S = 0.045
POOL_REPEATS = 12


class _Side(IntEnum):
    LEFT = 0
    RIGHT = 1


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def bit(self, x: int) -> int:
        return (self.a ^ x) & 1


def _reference_work(rng: np.random.Generator) -> float:
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(400):
        item = _Item(i, i >> 1)
        bits = tuple(item.bit(j) for j in range(4))
        table[i & 63] = bits
        acc ^= sum(bits) + int(_Side(i & 1))
        acc += int(rng.integers(0, 2))
        if i % 50 == 0:
            acc += int(rng.integers(0, 4, size=16).sum())
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed


def reference_slice() -> float:
    """Run the fixed reference work three times; returns the fastest wall
    time in seconds, so a preemption, a collection or caches left cold by
    another process do not count."""
    rng = np.random.default_rng(12345)
    return min(_reference_work(rng) for _ in range(3))


def _pool_work(repeats: int) -> float:
    rng = np.random.default_rng(12345)
    return sum(_reference_work(rng) for _ in range(repeats))


def pool_reference_slice() -> float:
    """Start a two-worker pool, run the reference work in both workers and
    shut the pool down; returns the wall seconds.  It uses the fork start
    method on purpose: that is how ``harness.run_scenario`` starts its own
    pool, whose start-up, forking and two-CPU work this slice mirrors."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("fork")) as pool:
        list(pool.map(_pool_work, [POOL_REPEATS] * 2))
    return time.perf_counter() - start


def startup_reference() -> float:
    """Wall seconds of a fresh interpreter that only imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - start


class Reference(NamedTuple):
    run: Callable[[], float]
    nominal_s: float
    # Longest stretch between two slices.
    interval_s: float


IN_PROCESS = Reference(reference_slice, NOMINAL_SLICE_S, 0.1)
POOL = Reference(pool_reference_slice, NOMINAL_POOL_SLICE_S, 0.5)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Clock:
    """Reference slices between stretches of timed work.

    Stretch k runs between slice k and slice k+1; ``factor(k)`` converts
    its raw seconds to nominal-speed seconds.
    """

    def __init__(self, reference: Reference = IN_PROCESS) -> None:
        self.reference = reference
        self.slices: List[float] = []
        self.stretches: List[float] = []
        self.slice_cpu = 0.0
        self._stretch_start = None

    @property
    def stretch(self) -> int:
        """Index of the stretch running now."""
        return len(self.slices) - 1

    def slice(self) -> None:
        now = time.perf_counter()
        if self._stretch_start is not None:
            self.stretches.append(now - self._stretch_start)
        cpu = _cpu_seconds()
        self.slices.append(self.reference.run())
        self.slice_cpu += _cpu_seconds() - cpu
        self._stretch_start = time.perf_counter()

    def tick(self) -> None:
        """Take a slice if the current stretch has run its interval."""
        if time.perf_counter() - self._stretch_start >= self.reference.interval_s:
            self.slice()

    def factor(self, k: int) -> float:
        return self.reference.nominal_s / ((self.slices[k] + self.slices[k + 1]) / 2.0)

    def raw_seconds(self) -> float:
        return sum(self.stretches)

    def scaled_seconds(self) -> float:
        return sum(s * self.factor(k) for k, s in enumerate(self.stretches))
