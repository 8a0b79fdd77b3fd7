"""Fused (coalesced) scans: equivalence, gating, and the write guard.

A coalesced scan replaces one event per 4 KiB chunk with a single
:class:`~repro.sim.events.SpanEvent`, on the claim that nothing can
interleave.  These tests pin the three load-bearing properties: the fused
timeline is bit-identical to the per-chunk one, the checker refuses to
fuse while any registered interference source is armed, and a write that
does sneak into a fused span is detected loudly rather than silently
hashed at the wrong time.
"""

import hashlib

import pytest

from repro.attacks.rootkit import PersistentRootkit
from repro.core.satin import install_satin
from repro.errors import SimulationError
from repro.hw.platform import build_machine
from repro.hw.world import World
from repro.kernel.os import boot_rich_os
from repro.secure.introspect import scan_area
from repro.experiments.common import build_stack
from tests.conftest import expected_determinism, small_config


def _satin_stack(coalesce):
    machine = build_machine(small_config(seed=7))
    rich_os = boot_rich_os(machine)
    satin = install_satin(machine, rich_os)
    satin.checker.coalesce_scans = coalesce
    return machine, satin


def _run_rounds(machine, satin, rounds):
    guard = 0
    while satin.checker.round_count < rounds and guard < rounds * 50:
        machine.run_for(satin.policy.tp)
        guard += 1
    return satin.checker.results[:rounds]


def test_fused_rounds_match_per_chunk_rounds_exactly():
    rounds = 25
    fused_machine, fused_satin = _satin_stack(coalesce=True)
    chunk_machine, chunk_satin = _satin_stack(coalesce=False)
    fused = _run_rounds(fused_machine, fused_satin, rounds)
    chunked = _run_rounds(chunk_machine, chunk_satin, rounds)
    assert len(fused) == len(chunked) == rounds
    for f, c in zip(fused, chunked):
        assert (f.area_index, f.start_time, f.end_time, f.digest, f.expected) == (
            c.area_index, c.start_time, c.end_time, c.digest, c.expected
        )
    # Span accounting makes the fused engine charge one logical event per
    # chunk, so even the event counters agree...
    assert fused_machine.sim.events_fired == chunk_machine.sim.events_fired
    # ...while the heap saw far less traffic.
    assert fused_machine.sim._queue._seq < chunk_machine.sim._queue._seq


def _pinned_scan(coalesce, seed=2019, passes=2):
    """Two full passes on the paper's juno_r1 stack, uncontended."""
    stack = build_stack(seed=seed, with_satin=True)
    satin = stack.satin
    satin.checker.coalesce_scans = coalesce
    target = passes * len(satin.areas)
    results = _run_rounds(stack.machine, satin, target)
    signature = hashlib.sha256(
        "".join(
            f"{r.area_index}:{r.start_time.hex()}:{r.end_time.hex()}:{r.digest}"
            for r in results
        ).encode()
    ).hexdigest()
    return {
        "rounds_per_pass": satin.checker.round_count // passes,
        "events_fired": stack.machine.sim.events_fired,
        "events_scheduled": stack.machine.sim._queue._seq,
        "signature": signature,
    }


def test_juno_scan_timeline_matches_pinned_values():
    pinned = expected_determinism()
    fused = _pinned_scan(coalesce=True)
    chunked = _pinned_scan(coalesce=False)
    assert fused["rounds_per_pass"] == pinned["scan_rounds_per_pass"]
    assert fused["events_fired"] == pinned["scan_events_fired"]
    assert chunked["events_fired"] == pinned["scan_events_fired_chunked"]
    assert pinned["scan_timeline_identical"] is True
    assert fused["signature"] == chunked["signature"]
    assert fused["signature"] == pinned["scan_timeline_signature"]
    # The whole point of coalescing: far fewer heap entries for the same
    # logical timeline.  A 2x guard catches the optimization silently
    # disabling itself without being sensitive to exact event counts.
    assert fused["events_scheduled"] * 2 < chunked["events_scheduled"]


def test_interference_registry_gates_coalescing():
    machine, satin = _satin_stack(coalesce=True)
    assert not machine.scan_interference()
    probes = []
    machine.register_interference(lambda: bool(probes))
    assert not machine.scan_interference()
    probes.append("armed")
    assert machine.scan_interference()
    probes.clear()
    assert not machine.scan_interference()


def test_installed_rootkit_arms_interference():
    machine, satin = _satin_stack(coalesce=True)
    assert not machine.scan_interference()
    rootkit = PersistentRootkit(machine, satin.rich_os)
    rootkit.install()
    # An installed attacker can race any scan, so fusion must stay off.
    assert machine.scan_interference()
    rootkit.installed = False
    assert not machine.scan_interference()


def test_write_during_fused_span_raises():
    machine = build_machine(small_config(seed=11))
    rich_os = boot_rich_os(machine)
    sim = machine.sim
    failures = []

    def payload(core):
        try:
            yield from scan_area(rich_os.image, core, 0, 64 * 1024, coalesce=True)
        except SimulationError as exc:
            failures.append(exc)

    # A writer that keeps poking the image; at least one poke lands inside
    # the fused span's window.
    def poke():
        rich_os.image.write(512, b"\xAA", World.NORMAL)
        sim.schedule(5e-5, poke)

    sim.schedule(5e-5, poke)
    machine.monitor.request_secure_entry(machine.core(0), payload)
    sim.run(until=1.0, max_events=200_000)
    assert failures, "interleaved write went undetected in a coalesced scan"
    assert "interleaved" in str(failures[0])
