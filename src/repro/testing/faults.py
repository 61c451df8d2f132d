"""Seeded, replayable fault injection on the volume I/O path.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers installed as
the :mod:`repro.mseed.iohooks` hook. Each spec names a URI (by suffix), a
fault kind, and *which read* of that URI it fires on — reads are counted
per URI across the whole plan lifetime, so a retry's re-reads see fresh
indices and a ``times=1`` transient fault recovers on the retry, exactly
the shape the retry ladder exists for.

Kinds
-----
``transient-oserror``
    The read raises ``OSError`` (the extraction guard maps it to a
    *transient* ``FileIngestError``, so the retry ladder absorbs it).
``read-latency``
    The read stalls ``delay_seconds`` first. The wait runs on
    ``plan.interrupt`` (an Event, e.g. a cancellation token's) when one is
    wired, so a deadline cuts injected latency short exactly like it cuts
    retry backoff short.
``short-read``
    The read returns fewer bytes than asked (``short_by`` fewer) — the
    classic torn read. Surfaces as a corrupt/truncated file downstream.
``stale-flip``
    The read succeeds, then the file's mtime is bumped — a mid-extraction
    rewrite. The post-extraction signature check turns it into a transient
    ``StaleFileError``, and the retry re-reads a now-stable file.
``connection-refused`` / ``mid-stream-disconnect`` / ``stall``
    Network-shaped kinds for the remote backend: the first two raise
    ``ConnectionRefusedError`` / ``ConnectionResetError`` (OSError
    subclasses, hence transient downstream), a stall hangs the read for
    ``stall_seconds`` before serving — the shape per-request timeouts
    exist to bound (the store notices its deadline at the wait after the
    stalled read).

Determinism
-----------
:meth:`FaultPlan.seeded` derives the spec list from ``(seed, uris)`` alone,
and every injected fault is appended to :attr:`FaultPlan.log` under the
plan lock with its per-URI read index. :meth:`signature` is the
order-independent digest (sorted tuples) that must be identical across
same-seed runs regardless of mount-worker interleaving.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Sequence

from ..mseed.iohooks import set_volume_io_hook

TRANSIENT_OSERROR = "transient-oserror"
READ_LATENCY = "read-latency"
SHORT_READ = "short-read"
STALE_FLIP = "stale-flip"

# Network-shaped kinds, for the remote backend (the simulated object store
# reads its objects through this same hook, so one plan chaoses both tiers):
CONNECTION_REFUSED = "connection-refused"  # raises ConnectionRefusedError
MID_STREAM_DISCONNECT = "mid-stream-disconnect"  # raises ConnectionResetError
STALL = "stall"  # the read hangs `stall_seconds`, then serves

NETWORK_KINDS = (CONNECTION_REFUSED, MID_STREAM_DISCONNECT, STALL)

FAULT_KINDS = (
    TRANSIENT_OSERROR,
    READ_LATENCY,
    SHORT_READ,
    STALE_FLIP,
) + NETWORK_KINDS

# The fault kinds the resilience machinery fully absorbs: a run injecting
# only these must produce byte-identical answers to a fault-free run (the
# chaos grid's core assertion). Short reads are excluded — they surface as
# corrupt/truncated files, i.e. as *failures*, not as absorbed noise.
RECOVERABLE_KINDS = (TRANSIENT_OSERROR, READ_LATENCY, STALE_FLIP)

# Likewise for the network kinds: refusals and resets are OSError subclasses
# (transient through the extraction guard / transport wrap), stalls are pure
# latency — the remote chaos grid injects exactly these and asserts
# byte-identical answers against the fault-free local baseline.
RECOVERABLE_NETWORK_KINDS = NETWORK_KINDS

# Waits fall back to this never-set event when no interrupt is wired: same
# timing as a sleep, but the code path stays identical either way.
_NEVER = threading.Event()


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire ``kind`` on reads [at_read, at_read+times) of a URI.

    ``uri_suffix`` matches ``uri.endswith(...)`` so tests can name files
    without caring about repository roots. ``times=-1`` means every read
    from ``at_read`` on (a persistently bad file). Read indices are global
    per URI — attempt 2's first read continues the count, so consecutive
    indices model "fails N times, then recovers".
    """

    uri_suffix: str
    kind: str
    at_read: int = 0
    times: int = 1
    delay_seconds: float = 0.01  # read-latency only
    short_by: int = 32  # short-read only: bytes withheld
    stall_seconds: float = 0.05  # stall only: how long the read hangs

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_read < 0:
            raise ValueError("at_read must be >= 0")
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (forever)")
        if self.short_by < 1:
            raise ValueError("short_by must be >= 1")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")

    def fires_at(self, index: int) -> bool:
        if index < self.at_read:
            return False
        return self.times == -1 or index < self.at_read + self.times


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired (the replay/determinism record)."""

    uri: str
    kind: str
    read_index: int


class FaultPlan:
    """A set of specs plus the live injection state and log."""

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        interrupt: Optional[threading.Event] = None,
    ) -> None:
        self.specs = list(specs)
        # Wire a cancellation token's event here so injected latency is
        # interruptible exactly like production waits.
        self.interrupt = interrupt
        self.log: list[InjectedFault] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        self._read_counts: dict[str, int] = {}  # guarded-by: _lock

    @classmethod
    def seeded(
        cls,
        seed: int,
        uris: Sequence[str],
        kinds: Sequence[str] = RECOVERABLE_KINDS,
        fault_rate: float = 0.5,
        max_read: int = 4,
        times: int = 1,
        delay_seconds: float = 0.002,
        short_by: int = 32,
        stall_seconds: float = 0.02,
    ) -> "FaultPlan":
        """A plan derived entirely from ``(seed, sorted(uris))``.

        Each URI independently gets a fault with probability ``fault_rate``;
        kind and trigger read are drawn from the same stream. Two plans
        seeded identically over the same URI set are equal spec-for-spec.
        """
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for uri in sorted(uris):
            roll = rng.random()
            kind = rng.choice(list(kinds))
            at_read = rng.randrange(max_read)
            if roll >= fault_rate:
                continue  # draws above keep the stream position uniform
            specs.append(
                FaultSpec(
                    uri_suffix=uri,
                    kind=kind,
                    at_read=at_read,
                    times=times,
                    delay_seconds=delay_seconds,
                    short_by=short_by,
                    stall_seconds=stall_seconds,
                )
            )
        return cls(specs)

    # -- hook protocol -------------------------------------------------------

    def wrap(self, path: Path, uri: str, handle: BinaryIO) -> BinaryIO:
        return _FaultyHandle(self, path, uri, handle)

    @contextmanager
    def install(self) -> Iterator["FaultPlan"]:
        """Install as the volume I/O hook for the duration of the block."""
        previous = set_volume_io_hook(self)
        try:
            yield self
        finally:
            set_volume_io_hook(previous)

    # -- injection internals -------------------------------------------------

    def _before_read(self, uri: str) -> Optional[tuple[FaultSpec, int]]:
        """Advance the URI's read counter; return the spec to fire, if any."""
        with self._lock:
            index = self._read_counts.get(uri, 0)
            self._read_counts[uri] = index + 1
            for spec in self.specs:
                if uri.endswith(spec.uri_suffix) and spec.fires_at(index):
                    self.log.append(InjectedFault(uri, spec.kind, index))
                    return spec, index
        return None

    def _wait(self, seconds: float) -> None:
        event = self.interrupt if self.interrupt is not None else _NEVER
        event.wait(seconds)

    @staticmethod
    def _flip_mtime(path: Path) -> None:
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))

    # -- determinism ---------------------------------------------------------

    def signature(self) -> tuple[tuple[str, str, int], ...]:
        """Order-independent digest of every fault that fired.

        Worker interleaving may reorder the log across runs; the sorted
        digest must still be identical for identical ``(seed, workload)``.
        """
        with self._lock:
            return tuple(
                sorted((f.uri, f.kind, f.read_index) for f in self.log)
            )


class _FaultyHandle:
    """A binary file handle that consults the plan before every read."""

    def __init__(
        self, plan: FaultPlan, path: Path, uri: str, handle: BinaryIO
    ) -> None:
        self._plan = plan
        self._path = path
        self._uri = uri
        self._handle = handle

    def read(self, n: int = -1) -> bytes:
        fired = self._plan._before_read(self._uri)
        if fired is None:
            return self._handle.read(n)
        spec, index = fired
        if spec.kind == TRANSIENT_OSERROR:
            raise OSError(
                f"injected transient I/O error "
                f"({self._uri}, read #{index})"
            )
        if spec.kind == READ_LATENCY:
            self._plan._wait(spec.delay_seconds)
            return self._handle.read(n)
        if spec.kind == SHORT_READ:
            data = self._handle.read(n)
            return data[: max(0, len(data) - spec.short_by)]
        if spec.kind == CONNECTION_REFUSED:
            raise ConnectionRefusedError(
                f"injected connection refused ({self._uri}, read #{index})"
            )
        if spec.kind == MID_STREAM_DISCONNECT:
            raise ConnectionResetError(
                f"injected mid-stream disconnect "
                f"({self._uri}, read #{index})"
            )
        if spec.kind == STALL:
            # A hung connection: the read eventually serves, but only after
            # a wait long enough for a request timeout to matter. The wait
            # runs on the plan's interrupt event, so cancellation cuts it.
            self._plan._wait(spec.stall_seconds)
            return self._handle.read(n)
        # stale-flip: serve the bytes, then mutate the file's signature so
        # the post-extraction re-stat sees a different (mtime, size).
        data = self._handle.read(n)
        self._plan._flip_mtime(self._path)
        return data

    # Everything else passes straight through to the real handle.

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._handle.seek(offset, whence)

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "_FaultyHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "CONNECTION_REFUSED",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "MID_STREAM_DISCONNECT",
    "NETWORK_KINDS",
    "READ_LATENCY",
    "RECOVERABLE_KINDS",
    "RECOVERABLE_NETWORK_KINDS",
    "SHORT_READ",
    "STALE_FLIP",
    "STALL",
    "TRANSIENT_OSERROR",
]
