"""Trusted boot: the authorized hash table.

During the (trusted) boot stage, before any normal-world code runs, the
secure world hashes each introspection area of the pristine kernel image
and stores the digests in secure SRAM.  The table is physically backed by
bytes in the secure region — the normal world cannot even read them, which
a test asserts directly.
"""

from __future__ import annotations

import struct
import threading
from typing import Dict, List, Sequence, Tuple

from repro.errors import IntrospectionError
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World
from repro.kernel.image import KernelImage
from repro.secure.hashes import djb2

#: (offset, length) pair describing one introspection area.
AreaSpan = Tuple[int, int]

#: Process-scoped cache of trusted-boot digest tables, keyed by the image
#: identity (seed, size, a strided content fingerprint) and the exact area
#: partition.  Fork-pool campaign workers rebuild an identical pristine
#: image every trial; re-deriving ~12 MB of djb2 per build is pure waste.
#: Hits are verified by re-hashing the first and last spans against the
#: live image, so a stale or colliding entry can never go unnoticed —
#: a mismatch falls back to the full recompute.  The cache is invisible to
#: simulated state (table bytes are still written to secure SRAM) and is
#: never metered into a trial's MetricsRegistry, keeping campaign
#: manifests byte-identical with or without it.
_DIGEST_CACHE: Dict[tuple, Tuple[int, ...]] = {}

_DIGEST_CACHE_MAX = 64

#: Guards cache mutation when one process runs trials concurrently (the
#: job threads of ``repro serve`` running inline jobs); lookups stay
#: lock-free.
_DIGEST_CACHE_LOCK = threading.Lock()

#: module-level (not per-registry) counters, read by the repo benchmark
#: (``perfbench/``) for its boot-cache hit ratio.
DIGEST_CACHE_STATS = {"hits": 0, "misses": 0, "rejected": 0}

#: stride of the content fingerprint sample; 64 KiB over a ~12 MB image
#: touches ~182 bytes.
_FINGERPRINT_STRIDE = 1 << 16


def _image_fingerprint(image: KernelImage) -> Tuple[int, int, int]:
    """Cheap identity of the pristine image content.

    Seed and size fully determine generated content, but runtime writes
    (symbol tables at boot, down-sized test images) also shape what the
    trusted boot stage hashes — the strided sample catches those.
    """
    view = image.view(0, image.size, World.SECURE)
    sample = bytes(view[::_FINGERPRINT_STRIDE])
    return (image.config.image_seed, image.size, djb2(sample))


class AuthorizedHashStore:
    """Per-area benign digests, resident in secure SRAM."""

    ENTRY_SIZE = 8

    def __init__(
        self,
        memory: PhysicalMemory,
        table_base: int,
        capacity_entries: int = 64,
    ) -> None:
        region = memory.region_at(table_base)
        if region is None or not region.secure:
            raise IntrospectionError("hash table must live in secure memory")
        if not region.contains(table_base, capacity_entries * self.ENTRY_SIZE):
            raise IntrospectionError("hash table exceeds its secure region")
        self.memory = memory
        self.table_base = table_base
        self.capacity_entries = capacity_entries
        self._spans: List[AreaSpan] = []
        self._index_of: Dict[AreaSpan, int] = {}

    # ------------------------------------------------------------------
    def compute_at_boot(self, image: KernelImage, areas: Sequence[AreaSpan]) -> None:
        """Hash the pristine image per area and persist the digests."""
        if len(areas) > self.capacity_entries:
            raise IntrospectionError(
                f"{len(areas)} areas exceed table capacity {self.capacity_entries}"
            )
        self._spans = list(areas)
        self._index_of = {span: i for i, span in enumerate(self._spans)}
        key = (_image_fingerprint(image), tuple(self._spans))
        digests = _DIGEST_CACHE.get(key)
        if digests is not None and self._spans:
            # Trust but verify: re-hash the first and last spans live.
            for probe in {0, len(self._spans) - 1}:
                offset, length = self._spans[probe]
                if djb2(image.view(offset, length, World.SECURE)) != digests[probe]:
                    DIGEST_CACHE_STATS["rejected"] += 1
                    digests = None
                    break
        if digests is None:
            digests = tuple(
                djb2(image.view(offset, length, World.SECURE))
                for offset, length in self._spans
            )
            DIGEST_CACHE_STATS["misses"] += 1
            with _DIGEST_CACHE_LOCK:
                _DIGEST_CACHE.pop(key, None)
                if len(_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
                    _DIGEST_CACHE.pop(next(iter(_DIGEST_CACHE)))
                _DIGEST_CACHE[key] = digests
        else:
            DIGEST_CACHE_STATS["hits"] += 1
        # The table bytes always land in secure SRAM: the simulated state is
        # identical whether or not the host-side cache was consulted.
        for i, digest in enumerate(digests):
            self.memory.write(
                self.table_base + i * self.ENTRY_SIZE,
                struct.pack("<Q", digest),
                World.SECURE,
            )

    # ------------------------------------------------------------------
    def expected_digest(self, span: AreaSpan, world: World = World.SECURE) -> int:
        """Authorized digest of an area (secure-world access only)."""
        index = self._index_of.get(span)
        if index is None:
            raise IntrospectionError(f"no authorized digest for area {span}")
        raw = self.memory.read(
            self.table_base + index * self.ENTRY_SIZE, self.ENTRY_SIZE, world
        )
        return struct.unpack("<Q", raw)[0]

    @property
    def spans(self) -> List[AreaSpan]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)
