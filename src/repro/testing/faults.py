"""Seeded, replayable fault injection on the volume I/O path.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers installed as
the :mod:`repro.mseed.iohooks` hook. Each spec names a URI (by suffix), a
fault kind, and *which bytes* of that URI it fires on: a read fires it when
the byte range the read covers holds the spec's ``at_byte`` (``None``: any
read). ``times`` counts firings per URI across the whole plan lifetime, so
a ``times=1`` transient fault fires once and the retry's re-read passes,
exactly the shape the retry ladder exists for — however many reads a mount
makes, and in whatever order it makes them.

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
    ``StaleFileError``, and the retry re-reads a now-stable file. Bytes
    held in memory (a remote object's, once fetched) have no file to bump:
    the read just succeeds.
``connection-refused`` / ``mid-stream-disconnect`` / ``stall``
    Network-shaped kinds for the remote backend: the first two raise
    ``ConnectionRefusedError`` / ``ConnectionResetError`` (OSError
    subclasses, hence transient downstream), a stall hangs the read for
    ``stall_seconds`` before serving — the shape per-request timeouts
    exist to bound (the store notices its deadline at the wait after the
    stalled read).

Determinism
-----------
:meth:`FaultPlan.seeded` derives the spec list from ``(seed, files)``
alone, each fault keyed by a record start of its file, and every injected
fault is appended to :attr:`FaultPlan.log` under the plan lock with the
byte offset its read started at. :meth:`signature` is the order-independent
digest (sorted tuples) that must be identical across same-seed runs
regardless of mount-worker interleaving.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, Optional, Sequence

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
    """One trigger: fire ``kind`` on the first ``times`` reads of a URI
    whose byte range covers ``at_byte``.

    ``uri_suffix`` matches ``uri.endswith(...)`` so tests can name files
    without caring about repository roots. ``at_byte=None`` matches every
    read; ``times=-1`` fires on every matching read (a persistently bad
    file). Firings are counted per URI across the plan's lifetime — attempt
    2's reads continue the count, so ``times=N`` models "fails N times,
    then recovers".
    """

    uri_suffix: str
    kind: str
    at_byte: Optional[int] = None
    times: int = 1
    delay_seconds: float = 0.01  # read-latency only
    short_by: int = 32  # short-read only: bytes withheld
    stall_seconds: float = 0.05  # stall only: how long the read hangs

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_byte is not None and self.at_byte < 0:
            raise ValueError("at_byte must be >= 0")
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (forever)")
        if self.short_by < 1:
            raise ValueError("short_by must be >= 1")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")

    def covers(self, start: int, end: Optional[int]) -> bool:
        """Whether a read of bytes ``[start, end)`` (``end=None``: to the
        end of the file) touches this spec's byte."""
        if self.at_byte is None:
            return True
        return start <= self.at_byte and (end is None or self.at_byte < end)


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired (the replay/determinism record)."""

    uri: str
    kind: str
    offset: int  # where the read it fired on started


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
        # Firings so far, by (spec index, URI).
        self._fired: dict[tuple[int, str], int] = {}  # guarded-by: _lock

    @classmethod
    def seeded(
        cls,
        seed: int,
        files: Mapping[str, Sequence[int]],
        kinds: Sequence[str] = RECOVERABLE_KINDS,
        fault_rate: float = 0.5,
        times: int = 1,
        delay_seconds: float = 0.002,
        short_by: int = 32,
        stall_seconds: float = 0.02,
    ) -> "FaultPlan":
        """A plan derived entirely from ``(seed, files)``.

        ``files`` maps each URI to its record starts (byte offsets). Each
        URI independently gets a fault with probability ``fault_rate``;
        kind and the record start it is keyed by are drawn from the same
        stream. Two plans seeded identically over the same files are equal
        spec-for-spec, whatever order the mapping lists them in.
        """
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for uri in sorted(files):
            roll = rng.random()
            kind = rng.choice(list(kinds))
            at_byte = rng.choice(sorted(files[uri]) or [0])
            if roll >= fault_rate:
                continue  # draws above keep the stream position uniform
            specs.append(
                FaultSpec(
                    uri_suffix=uri,
                    kind=kind,
                    at_byte=at_byte,
                    times=times,
                    delay_seconds=delay_seconds,
                    short_by=short_by,
                    stall_seconds=stall_seconds,
                )
            )
        return cls(specs)

    # -- hook protocol -------------------------------------------------------

    def wrap(self, path: Optional[Path], uri: str, handle: BinaryIO) -> BinaryIO:
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

    def _before_read(
        self, uri: str, start: int, end: Optional[int]
    ) -> Optional[FaultSpec]:
        """The spec a read of ``[start, end)`` fires, if any; counts it."""
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not (uri.endswith(spec.uri_suffix) and spec.covers(start, end)):
                    continue
                fired = self._fired.get((index, uri), 0)
                if spec.times != -1 and fired >= spec.times:
                    continue
                self._fired[(index, uri)] = fired + 1
                self.log.append(InjectedFault(uri, spec.kind, start))
                return spec
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
                sorted((f.uri, f.kind, f.offset) for f in self.log)
            )


class _FaultyHandle:
    """A binary file handle that consults the plan before every read."""

    def __init__(
        self, plan: FaultPlan, path: Optional[Path], uri: str, handle: BinaryIO
    ) -> None:
        self._plan = plan
        self._path = path
        self._uri = uri
        self._handle = handle

    def read(self, n: int = -1) -> bytes:
        start = self._handle.tell()
        end = start + n if n is not None and n >= 0 else None
        spec = self._plan._before_read(self._uri, start, end)
        if spec is None:
            return self._handle.read(n)
        if spec.kind == TRANSIENT_OSERROR:
            raise OSError(
                f"injected transient I/O error ({self._uri}, byte {start})"
            )
        if spec.kind == READ_LATENCY:
            self._plan._wait(spec.delay_seconds)
            return self._handle.read(n)
        if spec.kind == SHORT_READ:
            data = self._handle.read(n)
            return data[: max(0, len(data) - spec.short_by)]
        if spec.kind == CONNECTION_REFUSED:
            raise ConnectionRefusedError(
                f"injected connection refused ({self._uri}, byte {start})"
            )
        if spec.kind == MID_STREAM_DISCONNECT:
            raise ConnectionResetError(
                f"injected mid-stream disconnect ({self._uri}, byte {start})"
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
        if self._path is not None:
            self._plan._flip_mtime(self._path)
        return data

    # Everything else passes straight through to the real handle.

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._handle.seek(offset, whence)

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
