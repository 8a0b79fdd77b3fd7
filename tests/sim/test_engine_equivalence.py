"""Golden determinism: the overhauled engine fires the seed's event order.

The tuple-heap engine, the fused run loop and ``schedule_batch`` are pure
re-plumbings of the calendar queue: the fired ``(time, seq)`` sequence must
be bit-identical to the seed-style reference engine (Event objects in the
heap, Python ``__lt__``, separate peek+pop) that ships as
:class:`repro.bench.ReferenceSimulator` for exactly this comparison.
"""

import hashlib

from repro.bench import ReferenceSimulator
from repro.sim.simulator import Simulator
from tests.conftest import expected_determinism

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _timer_wheel_workload(sim, n_events, fanout=4, on_fire=None):
    """Self-rescheduling callbacks with LCG-derived delays, plus cancels.

    Mirrors the real event mix: mostly rescheduling timers, a fraction of
    scheduled-then-cancelled events (preempted quanta, rearmed timers).
    ``on_fire(now)`` is invoked at every firing, for sequence tracing.
    """
    state = {"lcg": 12345, "fired": 0, "budget": n_events}
    pending_cancel = []

    def next_delay():
        state["lcg"] = (state["lcg"] * _LCG_MULT + _LCG_INC) & _MASK64
        return ((state["lcg"] >> 16) % 10_000 + 1) * 1e-7

    def tick():
        if on_fire is not None:
            on_fire(sim.now)
        state["fired"] += 1
        if state["fired"] >= state["budget"]:
            return
        sim.schedule(next_delay(), tick)
        # every 8th firing schedules a victim and cancels an older one
        if state["fired"] % 8 == 0:
            pending_cancel.append(sim.schedule(next_delay() * 3, tick))
            if len(pending_cancel) > 2:
                pending_cancel.pop(0).cancel()

    for _ in range(fanout):
        sim.schedule(next_delay(), tick)
    sim.run(max_events=n_events)


def engine_equivalence(sim_cls, n_events=30_000):
    """SHA-256 over every firing time of the timer-wheel workload."""
    sim = sim_cls()
    trace = hashlib.sha256()
    count = [0]

    def on_fire(now):
        # float.hex() is exact: any bit-level divergence changes the digest.
        count[0] += 1
        trace.update(now.hex().encode())
        trace.update(b"|")

    _timer_wheel_workload(sim, n_events, on_fire=on_fire)
    trace.update(str(count[0]).encode())
    return trace.hexdigest()


def test_fired_sequence_checksum_matches_seed_reference():
    # The pinned checksum covers every one of the 30k firings.
    pinned = expected_determinism()
    assert pinned["engine_sequences_match"] is True
    optimized = engine_equivalence(Simulator)
    assert optimized == engine_equivalence(ReferenceSimulator)
    assert optimized == pinned["engine_sequence_checksum"]


def _trace(sim, schedule):
    """Run a mixed rescheduling/cancelling workload; hash every firing."""
    trace = hashlib.sha256()
    state = {"i": 0}
    victims = []

    def tick():
        trace.update(sim.now.hex().encode())
        i = state["i"] = state["i"] + 1
        if i >= 400:
            return
        schedule(sim, ((i * 37) % 101 + 1) * 1e-6, tick)
        if i % 5 == 0:
            victims.append(sim.schedule(((i * 53) % 89 + 2) * 1e-6, tick))
            if len(victims) > 3:
                victims.pop(0).cancel()

    schedule(sim, 1e-6, tick)
    sim.run()
    return trace.hexdigest()


def test_schedule_batch_preserves_event_order():
    def via_schedule(sim, delay, callback):
        sim.schedule(delay, callback)

    def via_batch(sim, delay, callback):
        sim.schedule_batch([(delay, callback, ())])

    assert _trace(Simulator(), via_schedule) == _trace(Simulator(), via_batch)
    assert _trace(Simulator(), via_schedule) == _trace(ReferenceSimulator(), via_schedule)
