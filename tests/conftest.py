"""Shared fixtures for the SATIN reproduction test suite.

Most tests use a *scaled* machine: the kernel image is 1/20th of the
paper's size (same 19-section shape), which keeps boot hashing and area
scans fast while preserving every structural invariant.  Tests that check
paper-calibrated absolute numbers use the full-size ``juno`` fixtures.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import (
    KernelConfig,
    MachineConfig,
    PAPER_KERNEL_SIZE,
    SatinConfig,
    juno_r1_config,
)
from repro.hw.platform import Machine, build_machine
from repro.kernel.os import RichOS, boot_rich_os

#: 1/20th-size kernel used by the fast fixtures.
SMALL_KERNEL_SIZE = PAPER_KERNEL_SIZE // 20

#: Pinned host-independent values (event-order checksum, fused-scan
#: timeline, seed-2019 E1/E9 table hashes); the repo benchmark reads the
#: table hashes from the same file.
EXPECTED_DETERMINISM = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "perf", "expected_determinism.json",
)


def expected_determinism() -> dict:
    """The pinned values of :data:`EXPECTED_DETERMINISM`."""
    with open(EXPECTED_DETERMINISM, "r", encoding="utf-8") as handle:
        return json.load(handle)


def small_config(seed: int = 1234, **satin_kwargs) -> MachineConfig:
    """A Juno-shaped machine with a scaled-down kernel."""
    config = juno_r1_config(seed)
    config.kernel = KernelConfig(image_size=SMALL_KERNEL_SIZE)
    # Scale tgoal down so rounds still happen within short simulations.
    config.satin = SatinConfig(tgoal=19.0 * 0.5, **satin_kwargs)
    return config


@pytest.fixture
def machine() -> Machine:
    """A small fast machine (no OS booted)."""
    return build_machine(small_config())


@pytest.fixture
def stack(machine: Machine):
    """(machine, rich_os) tuple on the small machine."""
    return machine, boot_rich_os(machine)


@pytest.fixture
def rich_os(stack) -> RichOS:
    return stack[1]


def fast_juno_config(seed: int = 77) -> MachineConfig:
    """Full-size kernel (so SATIN rounds have realistic multi-ms
    durations) but a short base period, for attack/defence integration
    tests that need many rounds quickly."""
    config = juno_r1_config(seed)
    config.satin = SatinConfig(tgoal=19.0 * 0.5)
    return config


@pytest.fixture
def fast_juno_stack():
    machine = build_machine(fast_juno_config())
    return machine, boot_rich_os(machine)


@pytest.fixture
def juno_machine() -> Machine:
    """The paper's full-size platform."""
    return build_machine(juno_r1_config(seed=99))


@pytest.fixture
def juno_stack(juno_machine: Machine):
    return juno_machine, boot_rich_os(juno_machine)
