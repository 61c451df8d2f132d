"""A deterministic simulated object store.

One :class:`SimulatedObjectStore` plays the role of a remote endpoint: it
serves the files under a local directory through an object-store-shaped API
(``list_keys`` in pages / ``head`` / ``get`` with byte ranges and
``if_match``) while charging
every request against a seeded :class:`~repro.remote.netmodel.NetworkModel` —
per-request latency (with jitter and an optional heavy tail), per-byte
bandwidth, and seeded request loss.

Two properties make it the right test double for the transport layer:

* **Determinism** — latency/loss draws are pure functions of
  ``(seed, request-key, access-index)``, so a chaos run replays.
* **Fault-harness composition** — object payloads are read through
  :func:`repro.mseed.iohooks.open_volume` with the object's ``remote://``
  URI, so a :class:`~repro.testing.faults.FaultPlan` injects its network
  kinds (connection-refused, mid-stream disconnect, stall) *inside* the
  store's reads, exactly where a real socket would fail.

Every request takes an optional absolute ``deadline`` on
``time.monotonic``'s clock. Each modeled wait checks it, and a request that
reaches it raises ``TimeoutError`` — what a socket timeout does. It is
checked at the waits only: a read that hangs is noticed at the wait after
its chunk, not inside the read.

The store itself raises raw OS-level errors (``ConnectionRefusedError``,
``ConnectionResetError``, ``TimeoutError``, ``FileNotFoundError``) and,
for a conditional GET of an object that is no longer the version asked
for, its own :class:`PreconditionFailed` — the resilient transport owns
wrapping them into the typed taxonomy.
"""

from __future__ import annotations

import os
import stat
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import _sync
from ..mseed.iohooks import open_volume
from .netmodel import NetworkModel, NetworkProfile, interruptible_wait
from .uris import remote_uri

# Payload streaming granularity: bandwidth waits and fault-plan read
# counters both advance per chunk.
CHUNK_BYTES = 64 * 1024

# One LIST response holds at most this many entries (S3's page size); a
# longer listing is continued with one more request per page.
LIST_PAGE_ENTRIES = 1000
# What one entry of a LIST response weighs on a link with a bandwidth: key,
# size, last-modified and their markup.
LIST_ENTRY_BYTES = 256


@dataclass(frozen=True)
class ObjectStat:
    """What a HEAD answers, and what a LIST answers per object: identity
    plus the staleness signature parts."""

    key: str
    size: int
    mtime_ns: int

    @property
    def signature(self) -> tuple[int, int]:
        """The ``(mtime_ns, size)`` signature, same shape as a local stat."""
        return (self.mtime_ns, self.size)


class PreconditionFailed(Exception):
    """A GET's ``if_match`` is not the object's signature (HTTP 412).

    Deliberately not an ``OSError``: the endpoint answered, and what it said
    is a fact about the object — nothing a retry of the same request cures.
    """

    def __init__(self, if_match: tuple[int, int], current: ObjectStat) -> None:
        super().__init__(
            f"asked for version {if_match}, the object is {current.signature}"
        )


@dataclass(frozen=True)
class ListPage:
    """One LIST response: up to :data:`LIST_PAGE_ENTRIES` objects in key
    order and, when keys remain beyond them, the key to continue after."""

    entries: tuple[ObjectStat, ...]
    next_after: Optional[str] = None  # None: the listing is complete


@dataclass
class SimStoreStats:
    requests: int = 0
    lists: int = 0  # LIST requests answered: one per page
    heads: int = 0
    gets: int = 0
    ranged_gets: int = 0  # gets that asked for a proper sub-range
    bytes_served: int = 0
    refused: int = 0  # connection refused (endpoint down)
    lost: int = 0  # requests reset by the loss model
    precondition_failed: int = 0  # conditional GETs refused (412), no body
    torn: int = 0  # GETs reset: the object changed while being served


@_sync.guarded
class SimulatedObjectStore:
    """Objects under ``root`` served as endpoint ``endpoint``.

    ``down`` simulates a hard outage: every request is refused outright
    (after the connection-setup latency — refusal is not free). Toggle it
    mid-test to model a flapping endpoint.
    """

    def __init__(
        self,
        endpoint: str,
        root: str | Path,
        profile: NetworkProfile = NetworkProfile(),
        seed: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.root = Path(root)
        if not self.root.exists():
            raise FileNotFoundError(f"object store root {self.root} does not exist")
        # Containment is checked against this on every key resolution; the
        # root itself does not move, so its realpath walk happens once.
        self._resolved_root = os.path.realpath(self.root)
        self._inside_root = os.path.join(self._resolved_root, "")
        self.model = NetworkModel(profile, seed=seed)
        self.stats = SimStoreStats()  # guarded-by: _lock
        self._lock = _sync.create_lock("SimulatedObjectStore._lock")
        self._down = False  # guarded-by: _lock

    # -- outage control ------------------------------------------------------

    @property
    def down(self) -> bool:
        with self._lock:
            return self._down

    def set_down(self, down: bool = True) -> None:
        with self._lock:
            self._down = down

    # -- request plumbing ----------------------------------------------------

    def _path_of(self, key: str) -> str:
        path = os.path.realpath(os.path.join(self._resolved_root, key))
        if not (path + os.sep).startswith(self._inside_root):
            raise FileNotFoundError(f"key {key!r} escapes the store root")
        return path

    def _wait(
        self,
        seconds: float,
        op_key: str,
        deadline: Optional[float],
        token: Optional[object],
    ) -> None:
        """Wait out modeled link time, unless the query is cancelled first;
        a wait that reaches ``deadline`` stops there with ``TimeoutError``
        (so does a zero wait that starts past it)."""
        timed_out = False
        if deadline is not None:
            left = deadline - time.monotonic()
            timed_out = seconds >= left
            seconds = min(seconds, max(0.0, left))
        if seconds > 0 and interruptible_wait(seconds, token):
            raise token.interruption()  # type: ignore[union-attr]
        if timed_out:
            raise TimeoutError(f"{op_key} timed out on {self.endpoint!r}")

    def _request(
        self,
        op_key: str,
        deadline: Optional[float],
        token: Optional[object],
    ) -> None:
        """Charge one request's setup: latency, outage refusal, loss.

        Raises the token's typed interruption when the query is cancelled,
        ``TimeoutError`` at the deadline, ``ConnectionRefusedError`` on
        outage, ``ConnectionResetError`` on a modeled loss.
        """
        with self._lock:
            self.stats.requests += 1
            down = self._down
        draw = self.model.draw(op_key)
        self._wait(draw.latency_seconds, op_key, deadline, token)
        if down:
            with self._lock:
                self.stats.refused += 1
            raise ConnectionRefusedError(
                f"endpoint {self.endpoint!r} refused the connection"
            )
        if draw.lost:
            with self._lock:
                self.stats.lost += 1
            raise ConnectionResetError(
                f"connection to {self.endpoint!r} reset ({op_key})"
            )

    # -- object API ----------------------------------------------------------

    def list_keys(
        self,
        after: Optional[str] = None,
        deadline: Optional[float] = None,
        token: Optional[object] = None,
        prefix: str = "",
    ) -> ListPage:
        """One page of the listing (one LIST request): the objects whose
        keys start with ``prefix`` and sort after ``after`` (None: from the
        first), in key order. A prefix no key starts with answers an empty
        page, as S3 does. The walk starts at the prefix's directory.

        Each entry is what a HEAD of that object would answer now, so one
        listing observes every signature. The response body is charged to
        a link with a bandwidth at :data:`LIST_ENTRY_BYTES` per entry.
        """
        self._request("LIST", deadline, token)
        with self._lock:
            self.stats.lists += 1
        # Keys are named from where the walk found them, so a directory the
        # root's walk would not enter (a link's target) names none with the
        # prefix; a way out of the store names none either.
        top = os.path.join(self._resolved_root, prefix.rpartition("/")[0])
        top = os.path.realpath(top)
        if not (top + os.sep).startswith(self._inside_root):
            top = self._resolved_root
        keys: list[str] = []
        for directory, _, names in os.walk(top):
            base = directory[len(self._inside_root) :].replace(os.sep, "/")
            keys.extend(f"{base}/{name}" if base else name for name in names)
        keys = sorted(key for key in keys if key.startswith(prefix))
        first = 0 if after is None else bisect_right(keys, after)
        page = keys[first : first + LIST_PAGE_ENTRIES]
        entries = []
        for key in page:
            try:
                st = os.stat(os.path.join(self._resolved_root, key))
            except FileNotFoundError:
                continue  # deleted since the walk, or a dangling link
            if stat.S_ISREG(st.st_mode):
                entries.append(
                    ObjectStat(key=key, size=st.st_size, mtime_ns=st.st_mtime_ns)
                )
        self._wait(
            self.model.transfer_seconds(len(entries) * LIST_ENTRY_BYTES),
            "LIST",
            deadline,
            token,
        )
        return ListPage(
            entries=tuple(entries),
            next_after=page[-1] if first + len(page) < len(keys) else None,
        )

    def _stat(self, key: str, path: str) -> ObjectStat:
        st = os.stat(path)  # FileNotFoundError when absent
        return ObjectStat(key=key, size=st.st_size, mtime_ns=st.st_mtime_ns)

    def head(
        self,
        key: str,
        deadline: Optional[float] = None,
        token: Optional[object] = None,
    ) -> ObjectStat:
        """Size and mtime of one object (one HEAD request)."""
        self._request(f"HEAD:{key}", deadline, token)
        with self._lock:
            self.stats.heads += 1
        return self._stat(key, self._path_of(key))

    def get(
        self,
        key: str,
        start: int = 0,
        length: Optional[int] = None,
        if_match: Optional[tuple[int, int]] = None,
        deadline: Optional[float] = None,
        token: Optional[object] = None,
    ) -> tuple[ObjectStat, bytes]:
        """One (ranged) GET: what a HEAD answers, and bytes
        ``[start, start+length)`` of that version of the object.

        ``length=None`` reads to the end. The payload streams in
        :data:`CHUNK_BYTES` chunks, each paying the bandwidth model and
        each passing through the fault-plan hook, so mid-stream disconnects
        and stalls land mid-payload like they would on a socket; a stalled
        chunk meets the deadline at the wait that follows it.

        The response is of one version or it is no response: the object is
        observed before the first chunk and again after the last, and one
        that changed in between resets the connection (a transient failure
        like any other reset) instead of returning a torn body. With
        ``if_match``, an object whose signature is anything else is refused
        before any body byte (:class:`PreconditionFailed`).
        """
        if start < 0 or (length is not None and length < 0):
            raise ValueError("start/length must be non-negative")
        self._request(f"GET:{key}", deadline, token)
        path = self._path_of(key)
        served = self._stat(key, path)
        if if_match is not None and served.signature != if_match:
            with self._lock:
                self.stats.precondition_failed += 1
            raise PreconditionFailed(if_match, served)
        size = served.size
        ranged = start > 0 or (length is not None and start + length < size)
        with self._lock:
            self.stats.gets += 1
            if ranged:
                self.stats.ranged_gets += 1
        uri = remote_uri(self.endpoint, key)
        remaining = (
            max(0, size - start) if length is None else min(length, max(0, size - start))
        )
        chunks: list[bytes] = []
        with open_volume(path, uri) as handle:
            handle.seek(start)
            while remaining > 0:
                chunk = handle.read(min(CHUNK_BYTES, remaining))
                if not chunk:
                    break
                chunks.append(chunk)
                remaining -= len(chunk)
                self._wait(
                    self.model.transfer_seconds(len(chunk)),
                    f"GET:{key}",
                    deadline,
                    token,
                )
        try:
            unchanged = self._stat(key, path) == served
        except FileNotFoundError:
            unchanged = False
        if not unchanged:
            with self._lock:
                self.stats.torn += 1
            raise ConnectionResetError(
                f"connection to {self.endpoint!r} reset: {key} changed "
                f"while it was being served"
            )
        data = b"".join(chunks)
        with self._lock:
            self.stats.bytes_served += len(data)
        return served, data


__all__ = [
    "CHUNK_BYTES",
    "LIST_ENTRY_BYTES",
    "LIST_PAGE_ENTRIES",
    "ListPage",
    "ObjectStat",
    "PreconditionFailed",
    "SimStoreStats",
    "SimulatedObjectStore",
]
