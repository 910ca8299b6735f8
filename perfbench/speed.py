"""Machine-speed calibration: timings scaled to a fixed reference speed.

The benchmark machine shares its cores with other machines, and its speed
for single-threaded Python shifts by up to half over seconds to minutes;
process CPU time shifts as much as wall time. The worker therefore runs a
fixed calibration kernel every tenth of a second of the timed phase, and
scales each stretch of program time between two kernel runs by
``REFERENCE_S`` over the mean of those two kernel times: that is the
stretch's time on a machine where the kernel takes ``REFERENCE_S``. A change to the program moves the scaled time as it
moves the raw time; a shift of machine speed that slows the kernel and the
program alike cancels out.

The kernel is the kind of work the program's hot loops do: the full normal
form of a sparse dict polynomial in three variables over F_31 modulo three
polynomials, with tuple monomials and a graded reverse lexicographic key. It
uses nothing from fpicheck, so no change to the program changes it.

Set-up time (starting an interpreter and importing modules) tracks the
kernel poorly, so it has its own reference: a fresh interpreter that imports
a fixed set of standard-library modules, timed right before and right after
the set-up it scales, against ``REFERENCE_START_S``.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time

REFERENCE_S = 0.005  # kernel time of the reference machine
REFERENCE_START_S = 0.1  # start-up time of the reference machine
SAMPLE_EVERY_S = 0.1  # interval of the sampling timer

_P = 31


def _key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


_BASIS = [
    {(2, 0, 0): 1, (0, 1, 1): 3, (0, 0, 1): 5},
    {(0, 2, 0): 1, (1, 0, 1): 2, (1, 0, 0): 7},
    {(0, 0, 3): 1, (1, 1, 0): 4, (0, 1, 0): 11},
]
_LEADS = [(max(g, key=_key), g) for g in _BASIS]
_F = {(i, j, k): (i + 2 * j + 3 * k) % _P + 1 for i in range(4) for j in range(4) for k in range(4)}


def _normal_form() -> dict:
    work = dict(_F)
    out = {}
    while work:
        m = max(work, key=_key)
        c = work.pop(m)
        for lm, g in _LEADS:
            if all(a <= b for a, b in zip(lm, m)):
                break
        else:
            out[m] = c
            continue
        factor = c * pow(g[lm], _P - 2, _P) % _P
        shift = tuple(a - b for a, b in zip(m, lm))
        for mm, cc in g.items():
            if mm == lm:
                continue
            mmm = tuple(a + b for a, b in zip(mm, shift))
            v = (work.get(mmm, 0) - factor * cc) % _P
            if v:
                work[mmm] = v
            else:
                work.pop(mmm, None)
    return out


_EXPECTED = _normal_form()


def kernel_s() -> float:
    """Time one run of the calibration kernel.

    The cyclic garbage collector is off while it runs: a collection the
    kernel's allocations would trigger scans every object the program left
    behind, and would time the program's heap instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = _normal_form()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if out != _EXPECTED:
        raise AssertionError("calibration kernel gave a different normal form")
    return elapsed


_START = "import argparse, csv, dataclasses, decimal, fractions, json, statistics, tempfile"


def start_s(env: dict) -> float:
    """Time a fresh interpreter that imports a fixed set of standard modules."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", _START], env=env, check=True)
    return time.monotonic() - t0


class SpeedClock:
    """Samples the kernel every ``SAMPLE_EVERY_S`` of the timed phase.

    After ``start()``, an interval timer interrupts the program between two
    bytecodes; the handler closes the running segment, runs the kernel and
    opens the next segment after it, so kernel time falls in no segment. The
    caller ends each ring with ``mark()``, which closes the running segment
    too and returns the number of closed segments; ``pauses`` holds the
    stretches the timer took, for the tracer to cut out. After ``stop()``,
    ``scaled(a, b)`` is the time of segments a to b - 1 at the reference
    speed: each segment's raw time times ``REFERENCE_S`` over the mean of the
    kernel samples on either side of it.
    """

    def __init__(self):
        kernel_s()  # warm-up: the first run in a fresh interpreter is cold
        self.samples = [kernel_s()]
        self.segments = []  # (raw seconds, index of the sample before it)
        self.pauses = []  # (start, end) of each timer-driven kernel run
        self._busy = False

    def start(self) -> None:
        self._mark = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()
        self.samples.append(kernel_s())

    def mark(self) -> int:
        self._busy = True  # a tick inside _close would close the segment twice
        self._close()
        self._busy = False
        return len(self.segments)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self._close()
        paused = self._mark
        self.samples.append(kernel_s())
        self._mark = time.perf_counter()
        self.pauses.append((paused, self._mark))
        self._busy = False

    def _close(self) -> None:
        now = time.perf_counter()
        self.segments.append((now - self._mark, len(self.samples) - 1))
        self._mark = now

    def scaled(self, a: int = 0, b: int = None) -> float:
        total = 0.0
        for raw, k in self.segments[a:b]:
            total += raw * REFERENCE_S / ((self.samples[k] + self.samples[k + 1]) / 2)
        return total

    def raw(self) -> float:
        return sum(raw for raw, _ in self.segments)
