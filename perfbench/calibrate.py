"""A reference load that measures how fast the host is, while it runs.

The benchmark's host metrics should change when this program's code
changes, not when the shared host it runs on speeds up or slows down.
On a 2-core VM the same simulation takes from 1.1 to 1.9 CPU seconds
within a minute, and the speed flips faster than one simulation lasts.
So while a measured run goes on, :class:`Speedometer` interrupts it
every ``PERIOD_S`` CPU seconds and times one short pass of a fixed
loop.  The loop imports nothing from ``repro`` and never changes with
it.  A stretch of the program's CPU time is then reported as the seconds
it would have taken on a host that runs the pass in ``REFERENCE_S``
(README.md, "Host metrics").

The loop does what the simulator spends its host time on: generator
resumes, a heap of timestamped events, small-object allocation and dict
traffic.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "PERIOD_S", "reference_pass", "Speedometer"]

# CPU seconds one :func:`reference_pass` takes on the 2-core 2.1 GHz VM
# the bounds were set on; host metrics are reported as if measured there.
REFERENCE_S = 0.0022
# CPU seconds of the program between two passes.
PERIOD_S = 0.05

_PROCESSES = 64
_EVENTS = 1_000


class _Event:
    __slots__ = ("when", "proc", "value")

    def __init__(self, when: int, proc: int, value: int) -> None:
        self.when = when
        self.proc = proc
        self.value = value


def _process(k: int):
    state = k
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state & 0xFF


def _loop() -> int:
    procs = [_process(k) for k in range(_PROCESSES)]
    heap = [(0, k) for k in range(_PROCESSES)]
    table = {}
    checksum = 0
    for _ in range(_EVENTS):
        when, k = heapq.heappop(heap)
        delay = next(procs[k])
        event = _Event(when, k, delay)
        table[(k, delay & 15)] = event
        checksum ^= table.get((k ^ 1, delay & 15), event).value
        heapq.heappush(heap, (when + delay + 1, k))
    return checksum


def reference_pass() -> float:
    """CPU seconds one pass of the loop takes.

    Times are this thread's CPU clock, which is the process's: the
    benchmark runs one thread.  The process clock would not do, because
    Linux updates it only once a tick while a CPU timer is armed."""
    start = time.thread_time()
    _loop()
    return time.thread_time() - start


class Speedometer:
    """Samples the host's speed on the reference loop while active.

    A ``SIGPROF`` timer runs one :func:`reference_pass` every
    ``PERIOD_S`` CPU seconds.  :meth:`clock` is the CPU time spent
    less what the passes took, so the program's own time is measured
    without them, and :meth:`reference_s` converts a stretch of that
    clock into seconds on the reference host.  Linux and other POSIX
    hosts only; use it as a context manager, which removes the timer on
    every way out."""

    def __init__(self) -> None:
        # (clock() when the pass ended, CPU seconds of the pass)
        self.samples: List[Tuple[float, float]] = []
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """CPU seconds of this thread, not counting the passes."""
        return time.thread_time() - self._spent

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a pass slower than PERIOD_S: never nest them
            return
        self._busy = True
        seconds = reference_pass()
        self._spent += seconds
        self.samples.append((self.clock(), seconds))
        self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def reference_s(self, start: float, end: float) -> float:
        """Seconds on the reference host of the stretch ``[start, end)``
        of :meth:`clock`, at the mean speed of the passes inside it (or,
        for a stretch shorter than ``PERIOD_S``, of the next pass)."""
        inside = [s for t, s in self.samples if start <= t < end]
        if not inside:
            later = [s for t, s in self.samples if t >= end]
            inside = later[:1] or [s for _t, s in self.samples[-1:]]
        if not inside:
            return end - start
        speed = sum(1.0 / max(s, 1e-9) for s in inside) / len(inside)
        return (end - start) * REFERENCE_S * speed
