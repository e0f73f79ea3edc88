"""Timing that cancels the host's speed drift.

Other tenants of a shared host slow a vCPU by 10-30% for seconds to
minutes at a time.  Averaging inside a run does not remove that: raw
phase times of identical runs spread by 15-25% (interquartile range over
median).  While a timed call runs, a SIGALRM timer interrupts it every
``PROBE_INTERVAL_S`` and times a short fixed loop on the same vCPU.  The
call's own time is then scaled by the loop's nominal time over its mean
measured time, which keeps mostly the program's own cost.  A loop next
to the call, or on the other vCPU, tracks the drift far worse.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 8000
# the loop's typical time on a 2.1 GHz Xeon vCPU with Python 3.11
PROBE_NOMINAL_S = 0.0015


class SpeedProbe:
    """Context manager sampling the loop time before, during and after."""

    def __init__(self):
        self.loops: list[tuple[float, float]] = []  # (start, seconds)

    def _loop(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(PROBE_LOOPS):
            key = (i * 7919) & 4095
            table[key] = table.get(key, 0) + i
        self.loops.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._loop()
        self._previous = signal.signal(signal.SIGALRM, self._loop)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._loop()
        return False


def timed(fn, span=None):
    """Runs ``fn()`` inside ``span``; returns its output, its own wall
    seconds (probe loops excluded) and those seconds scaled to the
    nominal speed."""
    probe = SpeedProbe()
    with probe, span or contextlib.nullcontext():
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
    own = (t1 - t0) - sum(secs for start, secs in probe.loops if t0 <= start < t1)
    speed = statistics.mean(secs for _, secs in probe.loops) / PROBE_NOMINAL_S
    return out, own, own / speed
