"""Buffer manager with an explicit disk model for cold/hot experiments.

The paper reports "cold" runs (server restarted, all buffers flushed) and
"hot" runs (buffers pre-loaded). A portable reproduction cannot drop the OS
page cache, so residency is modeled explicitly: every base table column and
index is a *buffer object*; the first touch of an object in a connection
charges simulated disk time (seek latency + size/bandwidth) to an I/O clock,
later touches are free. A cold connection starts with nothing resident; a hot
one is pre-warmed.

Reported experiment times are ``wall-clock CPU + simulated I/O`` and the two
components are kept separate in :class:`IoStats` so results stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import _sync


@dataclass
class DiskModel:
    """A simple rotational-disk cost model (the paper used a 7200rpm HDD)."""

    seek_seconds: float = 0.008
    bandwidth_bytes_per_s: float = 120e6

    def read_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.bandwidth_bytes_per_s


@dataclass
class IoStats:
    """Accumulated I/O accounting for one connection."""

    objects_read: int = 0
    bytes_read: int = 0
    simulated_seconds: float = 0.0
    touched: set[str] = field(default_factory=set)

    def copy(self) -> "IoStats":
        return IoStats(
            self.objects_read,
            self.bytes_read,
            self.simulated_seconds,
            set(self.touched),
        )

    def since(self, before: "IoStats") -> "IoStats":
        """What accrued after ``before`` (an earlier :meth:`copy`)."""
        return IoStats(
            self.objects_read - before.objects_read,
            self.bytes_read - before.bytes_read,
            self.simulated_seconds - before.simulated_seconds,
            self.touched - before.touched,
        )


@_sync.guarded
class BufferManager:
    """Tracks which buffer objects are resident and charges disk reads.

    Buffer objects are named ``table:<name>:<column>`` and
    ``index:<table>:<col,col>``; sizes are supplied by the caller at touch
    time so the manager stays decoupled from storage layout.
    """

    def __init__(self, disk: DiskModel | None = None) -> None:
        self.disk = disk or DiskModel()
        self._resident: set[str] = set()  # guarded-by: _lock
        self.stats = IoStats()  # guarded-by: _lock
        # touch() is a read-modify-write of residency + stats and is called
        # concurrently by mount-pool workers; it locks itself so callers
        # (e.g. MountService._extract) need not serialize around it. The
        # residency-control methods below take the same lock: a flush() or
        # warm() racing a worker's touch must not corrupt the set or lose
        # a charge.
        self._lock = _sync.create_lock("BufferManager._lock")

    # -- residency control (cold/hot switch) ---------------------------------

    def flush(self) -> None:
        """Evict everything — the 'restart the server' of the paper."""
        with self._lock:
            self._resident.clear()

    def is_resident(self, name: str) -> bool:
        with self._lock:
            return name in self._resident

    def warm(self, name: str, nbytes: int) -> None:
        """Mark an object resident without charging I/O (hot-run setup)."""
        with self._lock:
            self._resident.add(name)

    def resident_objects(self) -> set[str]:
        with self._lock:
            return set(self._resident)

    # -- the read path ---------------------------------------------------------

    def touch(self, name: str, nbytes: int) -> float:
        """Record an access; returns the simulated seconds charged (0 if hot)."""
        return self.touch_bytes(name, nbytes, full=True)

    def touch_bytes(self, name: str, nbytes: int, full: bool = True) -> float:
        """Record an access of ``nbytes`` of object ``name``.

        ``full=False`` models a partial (record-granular) read: the bytes
        are charged against the disk model unless the whole object is
        already resident, but the object is *not* marked resident — a later
        full read still pays. Residency stays object-granular (no byte-range
        tracking), which can only overcharge repeated partial reads of one
        file, never undercharge.
        """
        with self._lock:
            self.stats.touched.add(name)
            if name in self._resident:
                return 0.0
            if full:
                self._resident.add(name)
            seconds = self.disk.read_seconds(nbytes)
            self.stats.objects_read += 1
            self.stats.bytes_read += int(nbytes)
            self.stats.simulated_seconds += seconds
            return seconds


def table_object_name(table: str, column: str) -> str:
    return f"table:{table.lower()}:{column.lower()}"


def index_object_name(table: str, columns: tuple[str, ...]) -> str:
    return f"index:{table.lower()}:{','.join(c.lower() for c in columns)}"
