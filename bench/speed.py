"""Times work in units of a fixed calibration loop, so that host load cancels.

The benchmark machine is a guest on a shared host; while other guests run,
the same pure-Python work takes up to about 1.8 times as long, in phases of
seconds to minutes, and none of it shows as steal time.  A wall-clock time
then measures the neighbours as much as the program.  `Probe.measure` runs a
fixed calibration slice just before and just after the work, and after every
`PERIOD_S` of process CPU time while the work runs (from a SIGPROF handler,
in the same thread).  The work's wall time is its elapsed time minus the
slices run inside it; its time at reference speed is that wall time times
`REF_SLICE_S` over the mean slice time.

The timer counts CPU time, not wall time: a wall-clock signal that falls due
while the process waits for a CPU is delivered when it runs again, so its
slices would tend to start on a fresh time slice and see less of the waiting
than the work does.

Only the standard library's `signal` and `time` are used, so a set-up probe
can import this module without importing anything the package imports.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.12
SLICE_ITERATIONS = 32_000
# Median slice time on the reference machine (2-vCPU KVM guest on an Intel Xeon,
# family 6 model 143, Python 3.11.7), over 1000 slices at a quiet moment.
REF_SLICE_S = 0.0115


def _step(a, b):
    return (a * 31 + b) & 0xFFFFF


def calibration_slice(n=SLICE_ITERATIONS):
    """Fixed interpreter work of the kinds the package does: calls, int and bit
    arithmetic, tuple keys, dict and list updates."""
    s, bits = 1, 0
    table, counts = {}, [0] * 64
    for i in range(n):
        s = _step(s, i)
        bits ^= 1 << (s & 63)
        table[(i & 127, s & 7)] = s
        counts[i & 63] += bits.bit_count()
        if s in table:
            s += 1
    return s + len(table) + sum(counts)


class Probe:
    """Measures callables against calibration slices; owns SIGPROF while alive."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.slices = []
        self._armed = False
        signal.signal(signal.SIGPROF, self._on_tick)

    def _slice(self):
        t0 = time.perf_counter()
        calibration_slice()
        self.slices.append(time.perf_counter() - t0)

    def _on_tick(self, signum, frame):
        if self._armed:
            self._slice()
            signal.setitimer(signal.ITIMER_PROF, self.period)

    def measure(self, fn):
        """Run `fn()`; return (its result, wall seconds, seconds at reference speed).

        Exceptions from `fn` propagate, with the timer stopped.
        """
        self.slices = []
        self._slice()
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, self.period)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            # Disarm before reading the clock: a slice that starts after this
            # point is neither inside `elapsed` nor subtracted from it.
            self._armed = False
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
        inner = self.slices[1:]
        self._slice()
        wall = elapsed - sum(inner)
        # The slices, evenly spread over the work, took on average
        # mean/REF_SLICE_S times their reference time; so did the work.
        mean_slice = sum(self.slices) / len(self.slices)
        return result, wall, wall * REF_SLICE_S / mean_slice
