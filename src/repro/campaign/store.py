"""Content-addressed result store: JSONL shards under ``.repro-cache/``.

Layout::

    <root>/<campaign_id>/
        shard-00.jsonl .. shard-0f.jsonl   completed trial records
        quarantine.jsonl                    trials that failed every attempt
        index.json                          key -> (shard, offset, length)
        pins.json                           keys gc must never touch

A record is one JSON object per line carrying at least ``key`` (the trial's
content address from :mod:`repro.campaign.digest`).  Records are routed to
a shard by the first hex character of their key, so warm-cache loads can
stream 16 small files instead of one monolith and shard merging is easy to
exercise in tests.

Only the campaign supervisor writes (workers hand results back over a
queue), so appends need no cross-process locking; each line is flushed as
it is written, which makes the cache crash-consistent at line granularity.
Corrupt trailing lines (a run killed mid-write) are skipped with a warning
— counted once per file on :attr:`ResultStore.truncated_records` so the
supervisor can surface cache decay in the manifest's store-health section.

The **index** makes ``--resume`` O(1) per key: ``index.json`` maps every
live record key to its byte extent inside a shard, so a warm resume seeks
straight to the records it needs instead of streaming every shard.  The
index is derived state — if it is missing (a store written before indexes
existed), stale (shards grew since the last save) or corrupt, the store
rebuilds it transparently: grown shards are tail-scanned from the last
indexed offset, everything else triggers a full rebuild.  Counters
(:attr:`full_scans`, :attr:`tail_scans`, :attr:`index_rebuilds`,
:attr:`lazy_reindexed`, :attr:`record_reads`) expose which path served a
run, and tests pin "warm resume performs no full shard scan" on them.

:meth:`gc` compacts the store in place: superseded duplicate records and
torn lines are dropped from shards, and quarantine entries that have since
succeeded are removed — except for **pinned** keys (``pins.json``), whose
lines are preserved byte-for-byte so golden runs survive any compaction.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Shard fan-out: one shard per first hex digit of the key.
SHARD_COUNT = 16

_QUARANTINE = "quarantine.jsonl"

#: Name of the per-campaign key index file.
INDEX_NAME = "index.json"

#: Bumped when the index layout changes shape.
INDEX_SCHEMA = "satin-store-index/v1"

#: Name of the pinned-keys file honoured by :meth:`ResultStore.gc`.
PINS_NAME = "pins.json"


def _parse_record(line: str) -> Optional[Dict[str, Any]]:
    """One JSONL line -> record dict, or None for a torn/foreign line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None  # torn write from a killed run
    if isinstance(record, dict) and "key" in record:
        return record
    return None


class ResultStore:
    """Append-only JSONL store for one campaign's trial records."""

    def __init__(self, root: str, campaign_id: str) -> None:
        self.root = root
        self.campaign_id = campaign_id
        self.directory = os.path.join(root, campaign_id)
        os.makedirs(self.directory, exist_ok=True)
        #: in-memory record cache (filled lazily or by :meth:`load`).
        self._records: Dict[str, Dict[str, Any]] = {}
        #: key -> (shard basename, byte offset, byte length).
        self._entries: Dict[str, Tuple[str, int, int]] = {}
        #: shard basename -> byte size covered by the index.
        self._indexed_sizes: Dict[str, int] = {}
        self._index_ready = False
        self._fully_loaded = False
        #: torn/truncated JSONL lines per file path, counted once per path
        #: (re-iterating a file overwrites its count instead of adding).
        self._truncated_by_path: Dict[str, int] = {}
        self._warned_paths: Dict[str, int] = {}
        # --- observability counters (surfaced in the manifest) ----------
        #: full streaming scans of every shard (the pre-index slow path).
        self.full_scans = 0
        #: incremental scans of shard tails that grew past the saved index.
        self.tail_scans = 0
        #: index rebuilt from scratch (corrupt/stale/shrunk shards).
        self.index_rebuilds = 0
        #: migration shim: a pre-index store was indexed on first open.
        self.lazy_reindexed = 0
        #: targeted single-record reads served straight from the index.
        self.record_reads = 0

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------

    def shard_path(self, key: str) -> str:
        digit = key[0] if key and key[0] in "0123456789abcdef" else "0"
        return os.path.join(self.directory, f"shard-0{digit}.jsonl")

    def shard_paths(self) -> List[str]:
        """Every existing shard file, in name order (deterministic)."""
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.directory, n)
            for n in names
            if n.startswith("shard-") and n.endswith(".jsonl")
        ]

    @property
    def truncated_records(self) -> int:
        """Torn JSONL lines seen across every file, counted once per path."""
        return sum(self._truncated_by_path.values())

    #: Back-compat alias: older callers/tests read ``corrupt_lines_skipped``.
    @property
    def corrupt_lines_skipped(self) -> int:
        return self.truncated_records

    def _note_truncated(self, path: str, count: int, where: str) -> None:
        self._truncated_by_path[path] = count
        if count > self._warned_paths.get(path, 0):
            self._warned_paths[path] = count
            warnings.warn(
                f"skipping corrupt record at {where} "
                "(truncated write from an interrupted run?)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _iter_records(self, path: str) -> Iterator[Dict[str, Any]]:
        try:
            # errors="replace": a torn multi-byte sequence at the tail must
            # not abort the whole shard.
            handle = open(path, "r", encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        truncated = 0
        with handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                record = _parse_record(line)
                if record is not None:
                    yield record
                else:
                    truncated += 1
                    self._note_truncated(path, truncated, f"{path}:{number}")
        if path in self._truncated_by_path or truncated:
            self._truncated_by_path[path] = truncated

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------

    def index_path(self) -> str:
        return os.path.join(self.directory, INDEX_NAME)

    def _scan_shard(
        self, path: str, start: int = 0, keep_records: bool = False
    ) -> None:
        """Index records in ``path`` from byte offset ``start`` onward."""
        name = os.path.basename(path)
        truncated = 0 if start == 0 else self._truncated_by_path.get(path, 0)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(start)
            offset = start
            for raw in handle:
                length = len(raw)
                record = _parse_record(raw.decode("utf-8", errors="replace"))
                if record is not None:
                    self._entries[record["key"]] = (name, offset, length)
                    if keep_records:
                        self._records[record["key"]] = record
                else:
                    truncated += 1
                    self._note_truncated(
                        path, truncated, f"{path} @ byte {offset}"
                    )
                offset += length
            self._indexed_sizes[name] = offset

    def _reindex(self) -> None:
        """Rebuild the whole index from the shards on disk."""
        self._entries = {}
        self._indexed_sizes = {}
        for path in self.shard_paths():
            self._scan_shard(path)
        self._index_ready = True

    def ensure_index(self) -> None:
        """Load or (re)build the key index; cheap once ready.

        A store written before indexes existed is lazily re-indexed on
        first open (:attr:`lazy_reindexed`) and the index is saved, so old
        ``.repro-cache/`` dirs keep working and get fast on first touch.
        """
        if self._index_ready:
            return
        saved: Optional[Dict[str, Any]] = None
        try:
            with open(self.index_path(), "r", encoding="utf-8") as handle:
                candidate = json.load(handle)
            if (
                isinstance(candidate, dict)
                and candidate.get("schema") == INDEX_SCHEMA
                and isinstance(candidate.get("entries"), dict)
                and isinstance(candidate.get("shards"), dict)
            ):
                saved = candidate
        except FileNotFoundError:
            saved = None
        except (ValueError, OSError):
            saved = None

        shard_files = self.shard_paths()
        if saved is None:
            if os.path.isfile(self.index_path()):
                # present but unreadable/corrupt -> rebuild
                self.index_rebuilds += 1
                self._reindex()
                self.save_index()
            elif shard_files:
                # pre-index store: migrate on first open
                self.lazy_reindexed += 1
                self.index_rebuilds += 1
                self._reindex()
                self.save_index()
            else:
                self._entries = {}
                self._indexed_sizes = {}
                self._index_ready = True
            return

        entries = {
            key: (value[0], int(value[1]), int(value[2]))
            for key, value in saved["entries"].items()
        }
        indexed = {name: int(size) for name, size in saved["shards"].items()}
        on_disk = {os.path.basename(p): p for p in shard_files}
        stale = False
        grown: List[Tuple[str, int]] = []
        for name, size in indexed.items():
            if name not in on_disk:
                stale = True  # indexed shard vanished
                break
        if not stale:
            for name, path in on_disk.items():
                actual = os.path.getsize(path)
                recorded = indexed.get(name, 0)
                if actual < recorded:
                    stale = True  # shard shrank (external rewrite)
                    break
                if actual > recorded:
                    grown.append((path, recorded))
        if stale:
            self.index_rebuilds += 1
            self._reindex()
            self.save_index()
            return
        self._entries = entries
        self._indexed_sizes = indexed
        self._index_ready = True
        if grown:
            self.tail_scans += len(grown)
            for path, recorded in grown:
                self._scan_shard(path, start=recorded)
            self.save_index()

    def save_index(self) -> str:
        """Persist the index atomically; returns the index path."""
        from repro.campaign.digest import CODE_VERSION

        self.ensure_index()
        body = {
            "schema": INDEX_SCHEMA,
            "code_version": CODE_VERSION,
            "entries": {
                key: list(value) for key, value in sorted(self._entries.items())
            },
            "shards": dict(sorted(self._indexed_sizes.items())),
        }
        path = self.index_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(body, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp, path)
        return path

    def _read_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Seek-read one record by its index entry; None on any mismatch."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        name, offset, length = entry
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                raw = handle.read(length)
        except (FileNotFoundError, OSError):
            return None
        record = _parse_record(raw.decode("utf-8", errors="replace"))
        if record is None or record.get("key") != key:
            return None  # index out of step with the shard
        self.record_reads += 1
        return record

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def load(self) -> int:
        """Read every shard into the in-memory index; returns record count.

        Later lines win, so a re-run record supersedes an older one.  This
        is the full-scan slow path — indexed lookups (:meth:`get` /
        :meth:`ok_record`) avoid it on warm stores.
        """
        self.full_scans += 1
        self._records = {}
        self._truncated_by_path = {}
        self._entries = {}
        self._indexed_sizes = {}
        for path in self.shard_paths():
            self._scan_shard(path, keep_records=True)
        self._index_ready = True
        self._fully_loaded = True
        return len(self._records)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        if key in self._records:
            return self._records[key]
        if self._fully_loaded:
            return None
        self.ensure_index()
        if key not in self._entries:
            return None
        record = self._read_entry(key)
        if record is None:
            # Index pointed somewhere wrong — fall back to a full scan so
            # correctness never depends on the derived state.
            self.load()
            return self._records.get(key)
        self._records[key] = record
        return record

    def ok_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key`` iff it is a servable completion.

        Quarantine entries and records without a payload (written by an
        older code version, or torn) are not cache hits.
        """
        record = self.get(key)
        if record is not None and record.get("status") == "ok" and "payload" in record:
            return record
        return None

    def hits(self, keys) -> int:
        """How many of ``keys`` the store can serve without re-running.

        The service polls this to answer "would this job be a pure cache
        hit?" and to report progress for jobs draining a shared queue.
        """
        return sum(1 for key in keys if self.ok_record(key) is not None)

    def put(self, record: Dict[str, Any]) -> None:
        """Append one completed-trial record to its shard (flushed)."""
        self.ensure_index()
        key = record["key"]
        path = self.shard_path(key)
        name = os.path.basename(path)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            offset = os.path.getsize(path)
        except OSError:
            offset = 0
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self._entries[key] = (name, offset, len(data))
        self._indexed_sizes[name] = offset + len(data)
        self._records[key] = record

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        self.ensure_index()
        return len(self._entries)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def quarantine_path(self) -> str:
        return os.path.join(self.directory, _QUARANTINE)

    def quarantine(self, record: Dict[str, Any]) -> None:
        """Record a trial that failed every attempt.

        Quarantined records are *not* served as cache hits: a later
        ``--resume`` run will retry the trial (the failure may have been
        environmental).
        """
        with open(self.quarantine_path(), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def quarantined(self) -> List[Dict[str, Any]]:
        return list(self._iter_records(self.quarantine_path()))

    # ------------------------------------------------------------------
    # Pins and garbage collection
    # ------------------------------------------------------------------

    def pins_path(self) -> str:
        return os.path.join(self.directory, PINS_NAME)

    def pinned_keys(self) -> Set[str]:
        try:
            with open(self.pins_path(), "r", encoding="utf-8") as handle:
                pins = json.load(handle)
        except (FileNotFoundError, ValueError, OSError):
            return set()
        if isinstance(pins, list):
            return {str(key) for key in pins}
        return set()

    def pin(self, key: str) -> None:
        """Mark ``key`` as a golden run gc must never touch."""
        pins = self.pinned_keys()
        pins.add(key)
        tmp = self.pins_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(sorted(pins), handle, indent=1)
            handle.write("\n")
        os.replace(tmp, self.pins_path())

    def gc(self, dry_run: bool = False) -> Dict[str, Any]:
        """Compact shards and the quarantine file; returns a report.

        * shard records superseded by a later record for the same key are
          dropped (the latest one survives);
        * torn/corrupt lines are dropped;
        * quarantine entries whose key has since completed ok are dropped
          (the failure resolved itself on retry/resume);
        * every line belonging to a **pinned** key is preserved verbatim —
          gc never touches pinned golden runs.

        The index is rebuilt and saved afterwards unless ``dry_run``.
        """
        pinned = self.pinned_keys()
        report: Dict[str, Any] = {
            "dry_run": dry_run,
            "shards_compacted": 0,
            "records_kept": 0,
            "superseded_dropped": 0,
            "truncated_dropped": 0,
            "quarantine_kept": 0,
            "quarantine_resolved": 0,
            "pinned": len(pinned),
            "bytes_before": 0,
            "bytes_after": 0,
        }

        ok_keys: Set[str] = set()
        for path in self.shard_paths():
            report["bytes_before"] += os.path.getsize(path)
            lines: List[bytes] = []
            keys: List[Optional[str]] = []
            with open(path, "rb") as handle:
                for raw in handle:
                    record = _parse_record(raw.decode("utf-8", errors="replace"))
                    if record is None:
                        report["truncated_dropped"] += 1
                        continue
                    lines.append(raw)
                    keys.append(record["key"])
                    ok_keys.add(record["key"])
            last_for_key = {key: i for i, key in enumerate(keys)}
            keep: List[bytes] = []
            for i, (raw, key) in enumerate(zip(lines, keys)):
                if key in pinned or last_for_key[key] == i:
                    keep.append(raw)
                else:
                    report["superseded_dropped"] += 1
            report["records_kept"] += len(keep)
            new_blob = b"".join(keep)
            report["bytes_after"] += len(new_blob)
            if not dry_run:
                tmp = path + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(new_blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                report["shards_compacted"] += 1

        qpath = self.quarantine_path()
        if os.path.isfile(qpath):
            report["bytes_before"] += os.path.getsize(qpath)
            keep_q: List[bytes] = []
            with open(qpath, "rb") as handle:
                for raw in handle:
                    record = _parse_record(raw.decode("utf-8", errors="replace"))
                    if record is None:
                        report["truncated_dropped"] += 1
                        continue
                    key = record["key"]
                    if key in ok_keys and key not in pinned:
                        report["quarantine_resolved"] += 1
                        continue
                    keep_q.append(raw)
            report["quarantine_kept"] = len(keep_q)
            blob = b"".join(keep_q)
            report["bytes_after"] += len(blob)
            if not dry_run:
                tmp = qpath + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, qpath)

        if not dry_run:
            # Offsets moved: rebuild the derived index from the new truth.
            self._records = {}
            self._fully_loaded = False
            self._truncated_by_path = {}
            self.index_rebuilds += 1
            self._reindex()
            self.save_index()
        return report

    # ------------------------------------------------------------------
    # Store health (manifest / dashboard section)
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Deterministic store-health summary for manifests/dashboards.

        Everything here is derived from record *contents and counts*, never
        wall-clock or byte sizes, so a ``--jobs N`` and a serial run over
        the same grid report identical health.
        """
        self.ensure_index()
        per_shard: Dict[str, int] = {}
        for name, _offset, _length in self._entries.values():
            per_shard[name] = per_shard.get(name, 0) + 1
        return {
            "records": len(self._entries),
            "shards": dict(sorted(per_shard.items())),
            "quarantined": len(self.quarantined()),
            "truncated_records": self.truncated_records,
            "pinned": len(self.pinned_keys()),
            "index": {
                "full_scans": self.full_scans,
                "tail_scans": self.tail_scans,
                "rebuilds": self.index_rebuilds,
                "lazy_reindexed": self.lazy_reindexed,
                "record_reads": self.record_reads,
            },
        }


# ---------------------------------------------------------------------------
# Job-scoped artifact prefixes
# ---------------------------------------------------------------------------
#
# Trial records are shared across every job that maps to the same campaign
# grid (that is the whole point of content addressing), but each service
# job also owns artifacts that must NOT be shared — the manifest it
# rendered and its result summary.  Those live under a job-scoped prefix
# beside the campaign directories:
#
#     <root>/jobs/<job_id>/manifest.json
#     <root>/jobs/<job_id>/result.txt
#
# The job's state itself lives in the service journal (``<root>/journal/``).

JOBS_PREFIX = "jobs"


def job_artifact_dir(root: str, job_id: str, create: bool = True) -> str:
    """The job-scoped artifact directory for ``job_id`` under ``root``."""
    path = os.path.join(root, JOBS_PREFIX, job_id)
    if create:
        os.makedirs(path, exist_ok=True)
    return path


def campaign_dirs(root: str) -> List[str]:
    """Campaign directories under a cache root, in name order.

    A campaign directory is any direct child that holds shard files, a
    quarantine file, or a manifest — the ``jobs/`` artifact prefix is
    excluded.
    """
    try:
        names = sorted(os.listdir(root))
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        if name == JOBS_PREFIX:
            continue
        path = os.path.join(root, name)
        if not os.path.isdir(path):
            continue
        children = os.listdir(path)
        if any(
            child.startswith("shard-") and child.endswith(".jsonl")
            for child in children
        ) or _QUARANTINE in children or "manifest.json" in children:
            found.append(path)
    return found
