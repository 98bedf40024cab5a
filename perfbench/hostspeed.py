"""Host-speed reference: scales timed CPU work to a nominal host speed.

On a shared virtual machine a vCPU's speed changes by up to half for
seconds at a time: a fixed loop reads 18 ms, then 27 ms a second later,
and the thread's own CPU time moves the same way, so it is not time spent
descheduled.  A longer window does not average it out, because slow
spells last seconds and come and go between runs.  So the benchmark times
a fixed reference loop right before and right after each timed piece of
work and scales the piece by ``NOMINAL_S / reference``: its time on a host
whose reference loop takes ``NOMINAL_S``.  A change to the program under
test moves the scaled time; a slow spell slows the reference as well and
cancels.  On 16 Table IV compiles repeated four times, this cut the
largest-to-smallest ratio of a unit's time from 1.79 to 1.16 (median over
units).

The loop is the benchmark's own code, independent of the program under
test, with the program's mix of dict work, float arithmetic and small
NumPy calls.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: reference-loop time of the nominal host (about 0.75-1.2 ms on the
#: 2-vCPU virtual machine the benchmark was set up on).
NOMINAL_S = 1e-3

_clock = time.perf_counter


def _loop() -> None:
    table: dict = {}
    acc = 0
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += (i * i) % 7
    a = np.arange(2000.0)
    for _ in range(20):
        a = np.sqrt(a + 1.0)


def reference_s() -> float:
    """The reference loop's time now: the fastest of three calls."""
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        _loop()
        best = min(best, _clock() - t0)
    return best


class Scaler:
    """Times consecutive pieces of work, each scaled by the reference around it.

    A piece's "after" reading is the next piece's "before", so a run of
    pieces costs one reference reading per piece.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        #: wall spent in the reference loop itself.
        self.overhead_s = 0.0
        self.raw_s = 0.0
        self._last: float | None = None

    def _read(self) -> float:
        t0 = _clock()
        reading = reference_s()
        self.overhead_s += _clock() - t0
        self.readings.append(reading)
        return reading

    def run(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``; returns (its result, scaled seconds)."""
        before = self._last if self._last is not None else self._read()
        t0 = _clock()
        result = fn(*args, **kwargs)
        raw = _clock() - t0
        after = self._last = self._read()
        self.raw_s += raw
        return result, raw * NOMINAL_S / ((before + after) / 2)


class SpeedLog:
    """Reference readings over a window, for work that cannot be bracketed.

    Open-loop requests overlap and run on other threads or processes, so
    the serving workloads read the reference every ``every_s`` from the
    otherwise idle main thread and scale each latency by the reading
    nearest its completion.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        self.times: list[float] = []
        self.readings: list[float] = []

    def sample(self) -> None:
        self.readings.append(reference_s())
        self.times.append(_clock())

    def factor_at(self, t: float) -> float:
        """``NOMINAL_S`` over the reading nearest ``t``."""
        i = bisect.bisect_left(self.times, t)
        near = min(
            (j for j in (i - 1, i) if 0 <= j < len(self.times)),
            key=lambda j: abs(self.times[j] - t),
        )
        return NOMINAL_S / self.readings[near]
