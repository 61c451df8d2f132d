"""The ingestion cache behind the cache-scan access path.

The paper's default discards mounted data as soon as the query finishes
("the chosen approach inherently ensures up-to-date data"), and leaves cache
management as an open challenge (§5). This module implements the design
space that challenge spans:

* **policies** — DISCARD (paper default), UNBOUNDED, and LRU with a byte
  budget,
* **granularities** — FILE (cache whole files) and TUPLE (cache only the
  tuples inside the requested time interval; §3: "combined selections with
  cache-scans even lets the cache storage be tuple-granular").

Every entry records the closed time interval it *covers* (whole-file for a
full mount, the pruning interval for a selective one); a request is served
only when some entry's interval is a superset of the requested one —
otherwise the file must be mounted again, exactly the trade-off §3 points
out. Re-mounting with wider coverage replaces the entries it subsumes
(widen-on-remount), so coverage only ever grows until invalidation.

Interval entries are reachable two ways: the LRU-ordered entry table, and a
per-URI secondary index (``_by_uri``) that makes TUPLE-granularity lookups,
widen-on-remount subsumption and invalidation proportional to *one file's*
entries instead of the whole cache — the index is maintained by the same
locked mutations that touch the entry table, so the two can never disagree.

The cache is shared by every worker of a :class:`~repro.core.scheduler.MountScheduler`,
so all public operations take an internal lock: lookups (which move LRU
entries), stores (insertion + byte accounting + eviction) and invalidation
are each atomic. File-level double mounting is prevented one layer up (the
pool single-flights per URI); re-storing an existing key is an idempotent
no-op either way.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Optional

from .. import _sync
from ..db.interval import INF, WHOLE_FILE, Interval, covers
from ..db.table import ColumnBatch

__all__ = [
    "INF",
    "Interval",
    "WHOLE_FILE",
    "covers",
    "CachePolicy",
    "CacheGranularity",
    "CacheStats",
    "FileSignature",
    "IngestionCache",
]

# What the ingestion cache records about the file behind an entry at store
# time: (st_mtime_ns, st_size). A lookup presenting a different signature
# proves the file changed on disk, so the entry is invalidated — closing the
# staleness gap behind the paper's "inherently up-to-date" claim for every
# retention policy, not just DISCARD.
FileSignature = tuple[int, int]


class CachePolicy(enum.Enum):
    DISCARD = "discard"  # the paper's default: never retain
    UNBOUNDED = "unbounded"  # retain everything
    LRU = "lru"  # retain within a byte budget, evict least recently used


class CacheGranularity(enum.Enum):
    FILE = "file"
    TUPLE = "tuple"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0  # entries dropped by invalidate()/clear()/staleness
    rejected: int = 0  # batches refused admission (larger than the budget)
    duplicate_stores: int = 0  # no-op stores: a covering entry already existed
    current_bytes: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """All counters plus the derived hit rate, for reports and JSON."""
        payload: dict[str, object] = asdict(self)
        payload["hit_rate"] = self.hit_rate()
        return payload


@dataclass
class _Entry:
    interval: Interval
    batch: ColumnBatch
    signature: Optional[FileSignature] = None
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = self.batch.nbytes()


def _uri_of(key: object) -> str:
    """The URI behind a cache key (plain for FILE, first slot for TUPLE)."""
    return key[0] if isinstance(key, tuple) else key  # type: ignore[return-value]


@_sync.guarded
class IngestionCache:
    """Cache of previously mounted file data (the set ``C`` of rule (1))."""

    def __init__(
        self,
        policy: CachePolicy = CachePolicy.DISCARD,
        granularity: CacheGranularity = CacheGranularity.FILE,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if policy is CachePolicy.LRU and capacity_bytes is None:
            raise ValueError(f"{policy.value} policy requires capacity_bytes")
        self.policy = policy
        self.granularity = granularity
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()  # guarded-by: _lock
        # Key: uri for FILE granularity, (uri, interval) for TUPLE.
        self._entries: OrderedDict[object, _Entry] = OrderedDict()  # guarded-by: _lock
        # Per-URI secondary index over _entries' keys: lookups, subsumption
        # and invalidation scan one file's entries, not the whole table.
        self._by_uri: dict[str, set[object]] = {}  # guarded-by: _lock
        # Reentrant: a locked public method may call another (e.g. store →
        # eviction); reentrancy also keeps single-threaded callers cheap.
        self._lock = _sync.create_rlock("IngestionCache._lock")

    # -- lookup -------------------------------------------------------------

    def _matching_key_locked(self, uri: str, request: Interval) -> Optional[object]:
        """Find a covering entry. The ``_locked`` suffix is the contract:
        the caller holds ``self._lock`` — the scan over one URI's interval
        entries is a read of state another thread may be rewriting (the
        read-modify-write this lock exists for)."""
        if self.granularity is CacheGranularity.FILE:
            entry = self._entries.get(uri)
            if entry is not None and covers(entry.interval, request):
                return uri
            return None
        for key in self._by_uri.get(uri, ()):
            if covers(self._entries[key].interval, request):
                return key
        return None

    def contains(self, uri: str, request: Interval = WHOLE_FILE) -> bool:
        """Whether rule (1) should emit cache-scan(f) instead of mount(f)."""
        with self._lock:
            return self._matching_key_locked(uri, request) is not None

    def lookup(
        self,
        uri: str,
        request: Interval = WHOLE_FILE,
        signature: Optional[FileSignature] = None,
    ) -> Optional[ColumnBatch]:
        """The cached batch covering ``request``, or None (counts a miss).

        When the caller supplies the file's current ``signature`` and it
        disagrees with the signature recorded at store time, every entry of
        that file is stale: all are invalidated and the lookup misses, so
        the caller re-mounts the rewritten file instead of serving old rows.
        """
        with self._lock:
            key = self._matching_key_locked(uri, request)
            if key is None:
                self.stats.misses += 1
                return None
            entry = self._entries[key]
            if (
                signature is not None
                and entry.signature is not None
                and entry.signature != signature
            ):
                self._invalidate_locked(uri)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry.batch

    def cached_uris(self) -> set[str]:
        with self._lock:
            return set(self._by_uri)

    # -- store ---------------------------------------------------------------

    def store(
        self,
        uri: str,
        batch: ColumnBatch,
        interval: Interval = WHOLE_FILE,
        signature: Optional[FileSignature] = None,
    ) -> None:
        """Retain one mount's data, subject to policy and granularity.

        ``interval`` is the *coverage* the batch guarantees: every tuple of
        the file whose time falls inside it is present (selective mounts pass
        their pruning interval, full mounts the default whole-file). The
        batch must never contain rows filtered by non-time predicates, or
        later requests inside the coverage would see missing tuples.

        Re-storing a file widens on remount: an entry already covering
        ``interval`` is kept (the store is a no-op), otherwise the new entry
        replaces every entry of the file it subsumes — FILE granularity keeps
        exactly one entry per URI, TUPLE granularity drops the now-redundant
        narrower intervals. ``signature`` records the file's on-disk state
        for staleness checks.
        """
        if self.policy is CachePolicy.DISCARD:
            return
        entry = _Entry(interval, batch, signature)  # sized outside the lock
        if (
            self.policy is CachePolicy.LRU
            and self.capacity_bytes is not None
            and entry.nbytes > self.capacity_bytes
        ):
            # Admission check: an entry larger than the whole budget could
            # never be retained honestly — admitting it would either evict
            # everything else and *still* overflow, or (the old bug) sit
            # above capacity forever behind a last-entry guard.
            with self._lock:
                self.stats.rejected += 1
            return
        key: object = uri if self.granularity is CacheGranularity.FILE else (
            uri, interval
        )
        with self._lock:
            existing = self._matching_key_locked(uri, interval)
            if existing is not None:
                # First store wins; later stores of covered data are no-ops.
                # This is the cache's whole concurrent-ownership story: N
                # sessions may extract and store one file simultaneously
                # (the scheduler single-flights *scheduled* mounts, but
                # inline fallbacks and independent sessions can still race)
                # and the loser's store costs one counter bump, never a
                # torn entry or double-counted bytes. ``duplicate_stores``
                # makes the dedup observable.
                self.stats.duplicate_stores += 1
                self._entries.move_to_end(existing)
                return
            # Widen-on-remount: drop every entry of this file the new
            # coverage subsumes before inserting the wider one.
            doomed = [
                k
                for k in self._by_uri.get(uri, ())
                if covers(interval, self._entries[k].interval)
            ]
            for k in doomed:
                self._remove_entry_locked(k)
            # A same-key entry the new coverage does *not* subsume (disjoint
            # FILE-granularity re-store) is still replaced below — account
            # for it, or current_bytes drifts upward forever.
            if key in self._entries:
                self._remove_entry_locked(key)
            self._entries[key] = entry
            self._by_uri.setdefault(uri, set()).add(key)
            self.stats.insertions += 1
            self.stats.current_bytes += entry.nbytes
            self._evict_if_needed_locked()

    def _remove_entry_locked(self, key: object) -> None:
        """Drop one entry and its index slot, adjusting byte accounting."""
        entry = self._entries.pop(key)
        self.stats.current_bytes -= entry.nbytes
        uri = _uri_of(key)
        keys = self._by_uri.get(uri)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_uri[uri]

    def _evict_if_needed_locked(self) -> None:
        if self.policy is not CachePolicy.LRU:
            return
        assert self.capacity_bytes is not None
        while self.stats.current_bytes > self.capacity_bytes and self._entries:
            # The least recently used entry: the front of the ordered table.
            self._remove_entry_locked(next(iter(self._entries)))
            self.stats.evictions += 1

    # -- maintenance -----------------------------------------------------------

    def invalidate(self, uri: str) -> int:
        """Drop all entries of one file (e.g. the file changed on disk).

        Returns the number of entries dropped; each is counted in
        ``stats.invalidations`` so hit/miss/eviction/invalidation accounting
        stays exact under the staleness path.
        """
        with self._lock:
            return self._invalidate_locked(uri)

    def _invalidate_locked(self, uri: str) -> int:
        doomed = list(self._by_uri.get(uri, ()))
        for key in doomed:
            self._remove_entry_locked(key)
            self.stats.invalidations += 1
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._by_uri.clear()
            self.stats.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
