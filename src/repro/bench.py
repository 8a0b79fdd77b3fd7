"""The seed-style reference event engine.

:class:`ReferenceSimulator` keeps the pre-overhaul calendar-queue design:
Event objects *in* the heap, a Python ``__lt__`` per sift, and a separate
peek and pop per fired event.  It has two users:

* ``tests/sim/test_engine_equivalence.py`` fires the same workload on it
  and on :class:`repro.sim.simulator.Simulator`; the fired ``(time, seq)``
  sequences must be bit-identical.
* ``perfbench/run.py`` times it on a fixed timer mix as the host
  calibration score, so that host drift can be told apart from a change
  in the program.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List


class _RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time, seq, callback, args=()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _RefQueue:
    def __init__(self):
        self._heap: List[_RefEvent] = []
        self._counter = itertools.count()

    def push(self, time, callback, args=()):
        event = _RefEvent(time, next(self._counter), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def pop(self):
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self):
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None


class ReferenceSimulator:
    """Minimal seed-style simulator: peek, then pop, one event at a time."""

    def __init__(self):
        self.now = 0.0
        self._queue = _RefQueue()
        self.events_fired = 0

    def schedule(self, delay, callback, *args):
        return self._queue.push(self.now + delay, callback, args)

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            event = self._queue.pop()
            self.now = event.time
            event.fired = True
            fired += 1
            self.events_fired += 1
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until
