"""Trusted boot / authorized hash store tests."""

import pytest

from repro.errors import IntrospectionError, SecureAccessError
from repro.hw.platform import SECURE_SRAM_BASE, build_machine
from repro.hw.world import World
from repro.kernel import image as image_module
from repro.kernel.os import boot_rich_os
from repro.secure import boot as boot_module
from repro.secure.boot import DIGEST_CACHE_STATS, AuthorizedHashStore
from repro.secure.hashes import djb2
from tests.conftest import small_config


@pytest.fixture
def store_and_image(stack):
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE)
    areas = [(s.offset, s.size) for s in rich_os.image.system_map]
    store.compute_at_boot(rich_os.image, areas)
    return machine, rich_os, store, areas


def test_digests_match_djb2_of_pristine_areas(store_and_image):
    machine, rich_os, store, areas = store_and_image
    offset, length = areas[0]
    expected = djb2(rich_os.image.read(offset, length, World.SECURE))
    assert store.expected_digest((offset, length)) == expected


def test_digest_unchanged_after_normal_world_mutation(store_and_image):
    machine, rich_os, store, areas = store_and_image
    offset, length = areas[3]
    recorded = store.expected_digest((offset, length))
    rich_os.image.write(offset + 10, b"evil", World.NORMAL)
    assert store.expected_digest((offset, length)) == recorded
    live = djb2(rich_os.image.read(offset, length, World.SECURE))
    assert live != recorded  # the mutation is detectable


def test_normal_world_cannot_read_store(store_and_image):
    machine, rich_os, store, areas = store_and_image
    with pytest.raises(SecureAccessError):
        store.expected_digest(areas[0], world=World.NORMAL)


def test_unknown_span_raises(store_and_image):
    _, _, store, _ = store_and_image
    with pytest.raises(IntrospectionError):
        store.expected_digest((123, 456))


def test_store_must_live_in_secure_memory(stack):
    machine, _ = stack
    with pytest.raises(IntrospectionError):
        AuthorizedHashStore(machine.memory, machine.dram.base)


def test_capacity_enforced(stack):
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE, capacity_entries=2)
    areas = [(s.offset, s.size) for s in rich_os.image.system_map]
    with pytest.raises(IntrospectionError):
        store.compute_at_boot(rich_os.image, areas)


def test_spans_enumeration(store_and_image):
    _, _, store, areas = store_and_image
    assert store.spans == areas
    assert len(store) == len(areas)


def test_warm_build_reuses_digest_cache(monkeypatch):
    # Empty process caches, so the first build is genuinely cold.
    monkeypatch.setattr(boot_module, "_DIGEST_CACHE", {})
    monkeypatch.setattr(image_module, "_CONTENT_CACHE", {})

    def build_table():
        machine = build_machine(small_config())
        rich_os = boot_rich_os(machine)
        store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE)
        areas = [(s.offset, s.size) for s in rich_os.image.system_map]
        store.compute_at_boot(rich_os.image, areas)
        return [store.expected_digest(span) for span in areas]

    before = dict(DIGEST_CACHE_STATS)
    cold = build_table()
    assert DIGEST_CACHE_STATS["misses"] - before["misses"] == 1
    assert DIGEST_CACHE_STATS["hits"] == before["hits"]
    warm = build_table()
    assert warm == cold, "cached boot digests diverged from the cold build"
    assert DIGEST_CACHE_STATS["hits"] - before["hits"] == 1
    assert DIGEST_CACHE_STATS["misses"] - before["misses"] == 1
    assert DIGEST_CACHE_STATS["rejected"] == before["rejected"]
