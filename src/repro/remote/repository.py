"""The remote repository: ranged GETs whose bodies stay in memory.

A :class:`RemoteRepository` makes an endpoint's object store look like a
:class:`~repro.mseed.repository.FileRepository` to the rest of the engine.
The translation happens through the repository protocol hooks:

``source_for`` / ``locate``
    A remote URI answers a :class:`RemoteObject` — a byte source whose
    ``open()`` GETs the whole object into a buffer nothing keeps, which is
    what a metadata walk reads — and the registry's per-suffix extractor
    wrapped in :class:`RemoteExtractor`, which maps a mount's byte map onto
    **ranged GETs**: wanted record spans are coalesced (gaps smaller than
    one request's worth of bandwidth are cheaper to read through than to
    re-negotiate) and fetched into memory, and the inner extractor then
    reads an immutable snapshot of what is held exactly as it would read a
    local volume. Whole-file mounts (non-addressable byte maps, formats
    without selective mounting) fetch the whole object once. What is held
    is reused until the remote signature changes. The wrapper observes the
    object for itself (``observing``): it reports the one version all the
    bytes it read came from, so the mount layer brackets it with no HEADs.
``signature_of``
    Answered by a HEAD: ``(mtime_ns, size)`` of the remote object, which
    the mount layer's cache-scan staleness check compares against. A cache
    scan asks it only for a file the breakpoint did not observe
    (``signatures_of``). An extraction needs none: every GET answers the
    object's signature with its bytes (see *the bytes held* below).
``signatures``
    Answered by one LIST (a request per page of 1 000 objects): every
    object's URI and the signature a HEAD of it would have answered. The
    metadata pass gates sidecar reuse on it, so a session over N objects
    starts in ⌈N/1000⌉ requests, not N + 1.
``signatures_of``
    Answered at the breakpoint for a query's cache scans: one LIST per
    directory holding two or more of them, bounded by their common key
    prefix and cut at its first page, instead of one HEAD per scan. Each
    scan compares its cached rows against that observation, so the
    freshness window opens at the breakpoint, not at the scan: a rewrite
    landing during stage 2 is seen by the next query. A lone file in its
    directory, or one past the page, keeps its HEAD at the scan; so does a
    group whose LIST body would stream longer, on a link with a bandwidth,
    than the round trips its HEADs cost.

All requests go through the :class:`~repro.remote.transport.ResilientTransport`
(per-endpoint circuit breaker, retry budget, deadlines), so every
failure surfaces as a typed error naming the endpoint. ``uris``,
``signatures``, ``signature_of``, ``signatures_of`` and ``source_for``
take the calling query's ``scope`` (its
:class:`~repro.core.mounting.MountContext`) and hand it down to every
request they cause, so the query's token interrupts them and they spend
from the query's retry budget for this endpoint; the repository keeps no
"current query". ``uris()`` keeps the
last successful listing: an endpoint that dies *between* queries still
resolves its file set, and the failures then surface per-file at mount
time — where skip-and-report can degrade gracefully — instead of killing
metadata resolution outright. The remembered listing is names only: a
signature is always an observation the call itself made, so
``signatures()`` raises where ``uris()`` falls back.

Nothing is written to disk: the repository holds each fetched object's GET
bodies, keyed by object and tagged with the version they are of, and a mount
reads a snapshot of them taken under the repository's lock.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Iterator, NamedTuple, Optional, Sequence

from .. import _sync
from ..db.errors import (
    FileIngestError,
    IngestError,
    RemoteObjectMissingError,
    StaleFileError,
)
from ..ingest.formats import (
    FormatExtractor,
    FormatRegistry,
    MountOutcome,
    MountRequest,
    SelectiveFormatExtractor,
)
from ..mseed.iohooks import BufferSource, ByteSource
from ..mseed.volume import coalesce_spans
from . import simstore
from .simstore import SimulatedObjectStore
from .transport import RequestScope, ResilientTransport, TransportPolicy
from .uris import endpoint_of, parse_remote_uri, remote_uri

# Fallback coalescing gap when the profile gives no latency×bandwidth
# product to derive one from.
DEFAULT_COALESCE_GAP_BYTES = 64 * 1024


def _subtract_ranges(
    wanted: list[tuple[int, int]], covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The parts of ``wanted`` not covered by ``covered`` (both merged/sorted)."""
    missing: list[tuple[int, int]] = []
    for start, end in wanted:
        cursor = start
        for cov_start, cov_end in covered:
            if cov_end <= cursor or cov_start >= end:
                continue
            if cov_start > cursor:
                missing.append((cursor, cov_start))
            cursor = max(cursor, cov_end)
            if cursor >= end:
                break
        if cursor < end:
            missing.append((cursor, end))
    return missing


@dataclass
class _StagedFile:
    """What of one object is held in memory, and for which remote version:
    its GET bodies as ``(offset, bytes)`` pieces, sorted, with any that
    overlap or touch joined."""

    signature: tuple[int, int]
    pieces: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return [(start, start + len(data)) for start, data in self.pieces]

    @property
    def whole(self) -> bool:
        return self.ranges == [(0, self.signature[1])]

    def snapshot(self, uri: str) -> BufferSource:
        """What is held now, as a byte source no later fetch changes: an
        object of the version's size, whose holes read as zeros."""
        data = bytearray(self.signature[1])
        for start, piece in self.pieces:
            data[start : start + len(piece)] = piece
        return BufferSource(uri, data)


def _placed(
    pieces: list[tuple[int, bytes]], start: int, data: bytes
) -> list[tuple[int, bytes]]:
    """``pieces`` with ``data`` laid at ``start``: any piece it overlaps or
    touches is joined into it (both are bytes of one version)."""
    end = start + len(data)
    kept = []
    for offset, held in pieces:
        if offset + len(held) < start or offset > end:
            kept.append((offset, held))
            continue
        if offset < start:
            data, start = held[: start - offset] + data, offset
        if offset + len(held) > end:
            data, end = data + held[end - offset :], offset + len(held)
    kept.append((start, data))
    return sorted(kept)  # by offset: pieces never share one


def _missing(
    wanted: list[tuple[int, int]],
    version: Optional[tuple[int, int]],
    entry: Optional[_StagedFile],
) -> list[tuple[int, int]]:
    """The parts of ``wanted`` (merged/sorted) that ``entry`` does not hold,
    clamped to the object's size once a ``version`` says what that is."""
    if entry is None:
        covered: list[tuple[int, int]] = []
    elif entry.whole:
        return []
    else:
        covered = entry.ranges
    if version is not None:
        size = version[1]
        wanted = [(s, min(e, size)) for s, e in wanted if s < size]
    return _subtract_ranges(wanted, covered)


class Staged(NamedTuple):
    """What a fetch answers: the remote version every held byte of the
    object is of, the remote bytes this call moved to get the wanted ones
    (0: they were held already), and a snapshot of what is held."""

    signature: tuple[int, int]
    moved: int
    source: BufferSource


@dataclass
class RemoteRepositoryStats:
    remote_bytes: int = 0  # bytes actually moved off the endpoint
    ranged_gets: int = 0  # coalesced ranged GETs issued
    whole_fetches: int = 0  # whole-object GETs issued
    staged_reuses: int = 0  # calls fully served from the bytes held
    invalidations: int = 0  # staged state dropped: remote signature changed
    listing_fallbacks: int = 0  # uris() served from the last-known listing


@_sync.guarded
class RemoteRepository:
    """One endpoint's objects, presented as a repository of remote URIs."""

    def __init__(
        self,
        store: SimulatedObjectStore,
        staging_dir: object = None,
        policy: TransportPolicy = TransportPolicy(),
        suffix: str | tuple[str, ...] = (".xseed", ".tscsv"),
    ) -> None:
        # ``staging_dir`` is accepted and ignored: some callers still pass
        # one, and nothing is written to disk.
        self.endpoint = store.endpoint
        self.transport = ResilientTransport(store, policy)
        self.suffixes = (suffix,) if isinstance(suffix, str) else tuple(suffix)
        # Gaps that stream faster than one request round-trips are cheaper to
        # read through than to split.
        profile = store.model.profile
        self.coalesce_gap_bytes = (
            DEFAULT_COALESCE_GAP_BYTES
            if profile.bandwidth_bytes_per_second is None
            else max(
                1, int(profile.latency_seconds * profile.bandwidth_bytes_per_second)
            )
        )
        self.stats = RemoteRepositoryStats()  # guarded-by: _lock
        self._lock = _sync.create_lock("RemoteRepository._lock")
        self._staged: dict[str, _StagedFile] = {}  # guarded-by: _lock
        self._key_locks: dict[str, threading.Lock] = {}  # guarded-by: _lock
        self._last_listing: Optional[list[str]] = None  # guarded-by: _lock

    # -- repository protocol -------------------------------------------------

    def signatures(
        self, scope: Optional[RequestScope] = None
    ) -> dict[str, tuple[int, int]]:
        """Every object's URI and ``(mtime_ns, size)`` signature, in key
        order, as one listing just observed them."""
        listed = {
            remote_uri(self.endpoint, stat.key): stat.signature
            for stat in self.transport.list_keys(scope)
            if stat.key.endswith(self.suffixes)
        }
        with self._lock:
            self._last_listing = list(listed)
        return listed

    def uris(self, scope: Optional[RequestScope] = None) -> list[str]:
        try:
            return list(self.signatures(scope))
        except FileIngestError:
            with self._lock:
                cached = self._last_listing
                if cached is None:
                    raise
                # Stale-but-available: the endpoint is unreachable, but we
                # know what it held. Per-file mount failures then degrade
                # per the query's on_mount_error policy instead of the
                # whole federation losing metadata resolution.
                self.stats.listing_fallbacks += 1
                return list(cached)

    def __len__(self) -> int:
        return len(self.uris())

    def owns_uri(self, uri: str) -> bool:
        return endpoint_of(uri) == self.endpoint

    def locate(
        self, registry: FormatRegistry, scope: Optional[RequestScope] = None
    ) -> Iterator[tuple["RemoteObject", "RemoteExtractor"]]:
        """Every object's source and extractor, in listing order."""
        return (self.source_for(uri, registry, scope) for uri in self.uris(scope))

    def _key(self, uri: str) -> str:
        try:
            endpoint, key = parse_remote_uri(uri)
        except ValueError as exc:
            raise IngestError(str(exc)) from exc
        if endpoint != self.endpoint:
            raise IngestError(
                f"URI {uri!r} belongs to endpoint {endpoint!r}, "
                f"not {self.endpoint!r}"
            )
        return key

    def signature_of(
        self, uri: str, scope: Optional[RequestScope] = None
    ) -> tuple[int, int]:
        return self.transport.head(
            self._key(uri), uri=uri, scope=scope
        ).signature

    def signatures_of(
        self, uris: Sequence[str], scope: Optional[RequestScope] = None
    ) -> dict[str, tuple[int, int] | IngestError]:
        """What a HEAD of each URI would answer now, its signature or its
        typed error, for the URIs that a LIST per directory observes.

        The keys are grouped by directory. A group of two or more is one
        LIST bounded by the group's common key prefix, first page only: a
        key it lists answers its signature, a key it passes over is gone
        (the 404 a HEAD would get), and a LIST that fails answers its error
        for the whole group. A lone key, and a key past the page, are left
        out: the scan's own HEAD observes it for the same one request. So
        is a group whose LIST would cost more link time than its HEADs
        (:meth:`_listing_pays`).
        """
        groups: dict[str, dict[str, str]] = {}
        for uri in uris:
            key = self._key(uri)
            groups.setdefault(key.rpartition("/")[0], {})[key] = uri
        observed: dict[str, tuple[int, int] | IngestError] = {}
        for group in (keys for keys in groups.values() if len(keys) > 1):
            prefix = os.path.commonprefix(list(group))
            if not self._listing_pays(prefix, len(group)):
                continue
            try:
                page = self.transport.list_page(prefix, None, scope)
            except IngestError as exc:
                observed.update(dict.fromkeys(group.values(), exc))
                continue
            listed = {stat.key: stat.signature for stat in page.entries}
            for key, uri in group.items():
                if key in listed:
                    observed[uri] = listed[key]
                elif page.next_after is None or key <= page.next_after:
                    observed[uri] = RemoteObjectMissingError(
                        "LIST: no such object", uri=uri, endpoint=self.endpoint
                    )
        return observed

    def _listing_pays(self, prefix: str, heads: int) -> bool:
        """Whether one LIST of the keys under ``prefix`` costs less link
        time than ``heads`` HEADs: each request pays the link's latency, and
        the LIST's body also streams at its bandwidth, so the body must
        stream in less than the ``heads - 1`` round trips it saves. How many
        keys it holds is read from the last listing (a full page before
        there is one)."""
        profile = self.transport.store.model.profile
        if profile.bandwidth_bytes_per_second is None:
            return True
        with self._lock:
            listing = self._last_listing
        entries = simstore.LIST_PAGE_ENTRIES
        if listing is not None:
            under = remote_uri(self.endpoint, prefix)
            entries = min(entries, sum(uri.startswith(under) for uri in listing))
        return entries * simstore.LIST_ENTRY_BYTES < (heads - 1) * (
            profile.latency_seconds * profile.bandwidth_bytes_per_second
        )

    def total_bytes(self) -> int:
        return sum(size for _, size in self.signatures().values())

    def source_for(
        self,
        uri: str,
        registry: FormatRegistry,
        scope: Optional[RequestScope] = None,
    ) -> tuple["RemoteObject", "RemoteExtractor"]:
        """The object ``uri`` names, and the registry's extractor for it in
        the ranged-GET adapter; every request either makes runs under
        ``scope``."""
        source = RemoteObject(self, uri, self._key(uri), scope)
        extractor = RemoteExtractor(self, registry.for_path(uri), scope=scope)
        return source, extractor

    def close(self) -> None:
        """Nothing to release: every request runs on its caller's thread."""

    # -- the bytes held ------------------------------------------------------
    #
    # Every GET answers the object's signature with its bytes, so the
    # repository needs no HEAD to know which version it holds: the first
    # response of a call says, and each later GET of the call is conditional
    # (``if_match``) on it. Whatever happens to the object meanwhile, what is
    # held under one signature is bytes of that one version. Fetches of one
    # object are serialised by its lock, and each answers a snapshot taken
    # under it, so a reader never sees another fetch's bytes.

    def _lock_for(self, key: str) -> threading.Lock:
        with self._lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = _sync.create_lock(f"RemoteRepository.key:{key}")
                self._key_locks[key] = lock
            return lock

    def _drop_locked(self, key: str) -> None:
        if self._staged.pop(key, None) is not None:
            self.stats.invalidations += 1

    def _staged_of(
        self, key: str, observed: Optional[tuple[int, int]]
    ) -> Optional[_StagedFile]:
        """What is held for ``key`` — dropped, if ``observed`` (the
        object's current signature, when something has observed it) says it
        is of another version."""
        with self._lock:
            entry = self._staged.get(key)
            if entry is not None and observed not in (None, entry.signature):
                self._drop_locked(key)
                entry = None
            return entry

    def ensure_whole(
        self,
        uri: str,
        signature: Optional[tuple[int, int]] = None,
        scope: Optional[RequestScope] = None,
    ) -> Staged:
        """Fetch the whole object into memory; answers the version held, the
        remote bytes moved (0 on reuse) and a snapshot.

        ``signature`` is the caller's own fresh observation of the object
        (see :meth:`fetch_spans`): a whole copy of that version is reused
        without a request, and the GET is conditional on it. Without one, a
        whole copy costs the one HEAD that says whether it is current, and
        the GET takes — and answers — whatever version is there.
        """
        key = self._key(uri)
        with self._lock_for(key):
            entry = self._staged_of(key, signature)
            if entry is not None and entry.whole and signature is None:
                entry = self._staged_of(
                    key, self.transport.head(key, uri=uri, scope=scope).signature
                )
            if entry is not None and entry.whole:
                with self._lock:
                    self.stats.staged_reuses += 1
                return Staged(entry.signature, 0, entry.snapshot(uri))
            stat, data = self.transport.get(
                key, 0, None, signature, uri=uri, scope=scope
            )
            held = _StagedFile(stat.signature, [(0, data)])
            with self._lock:
                if entry is not None and entry.signature != stat.signature:
                    self._drop_locked(key)
                self._staged[key] = held
                self.stats.whole_fetches += 1
                self.stats.remote_bytes += len(data)
            return Staged(stat.signature, len(data), held.snapshot(uri))

    def fetch_spans(
        self,
        uri: str,
        spans: Sequence[tuple[int, int]],
        signature: Optional[tuple[int, int]] = None,
        scope: Optional[RequestScope] = None,
    ) -> Staged:
        """Fetch the ``(byte_offset, byte_length)`` spans into memory;
        answers the version they are held under, the remote bytes moved (0
        when they were all held already) and a snapshot of what is held.

        Missing ranges are coalesced under the bandwidth model and fetched
        as ranged GETs. The snapshot reads as an object of the real size, so
        the inner extractor's seeks and its truncation checks see that size,
        while what was never fetched costs nothing.

        ``signature`` is the ``(mtime_ns, size)`` the caller has just
        observed, when it has: held ranges of any other version are
        dropped and every GET is conditional on it. Without one the GETs
        observe for themselves — the first takes whatever version is there
        (or, when ranges are already held, is conditional on theirs: they
        are only *presumed* current, and are dropped and fetched again when
        the response says otherwise), and every later one is conditional on
        what the first answered. A conditional GET refused once a version
        has been observed is the object changing under this call: a
        transient :class:`StaleFileError`, with nothing of the dead version
        left held. A request with nothing to fetch has no response to
        observe by and costs exactly one HEAD instead. Every request issued
        here runs under ``scope``.
        """
        key = self._key(uri)
        wanted = coalesce_spans(
            [(offset, offset + length) for offset, length in spans],
            gap_bytes=0,
        )
        with self._lock_for(key):
            return self._stage_ranges(uri, key, wanted, signature, scope)

    def _stage_ranges(
        self,
        uri: str,
        key: str,
        wanted: list[tuple[int, int]],
        observed: Optional[tuple[int, int]],
        scope: Optional[RequestScope],
    ) -> Staged:
        """:meth:`fetch_spans` under the key's lock. ``observed`` is the
        version something — the caller, then a response here — has actually
        observed the object to be; None until something has."""
        entry = self._staged_of(key, observed)
        # What the next GET is conditional on: an observation, else the
        # version of what is held, else (None) nothing.
        version = observed if entry is None else entry.signature
        missing = _missing(wanted, version, entry)
        if not missing and observed is None:
            observed = version = self.transport.head(
                key, uri=uri, scope=scope
            ).signature
            entry = self._staged_of(key, observed)
            missing = _missing(wanted, version, entry)
        fetchable = coalesce_spans(missing, self.coalesce_gap_bytes)
        if not fetchable:
            assert version is not None  # handed down, held, or the HEAD's
            with self._lock:
                self.stats.staged_reuses += 1
                if entry is None:
                    entry = self._staged[key] = _StagedFile(signature=version)
            return Staged(version, 0, entry.snapshot(uri))
        moved = 0
        for start, end in fetchable:
            try:
                stat, data = self.transport.get(
                    key, start, end - start, version, uri=uri, scope=scope
                )
            except StaleFileError:
                with self._lock:
                    self._drop_locked(key)
                if observed is not None:
                    raise
                # Only the presumption was wrong: start over, cold.
                return self._stage_ranges(uri, key, wanted, None, scope)
            observed = version = stat.signature
            if entry is None:
                entry = _StagedFile(signature=version)
                with self._lock:
                    self._staged[key] = entry
            moved += len(data)
            with self._lock:
                entry.pieces = _placed(entry.pieces, start, data)
                self.stats.ranged_gets += 1
                self.stats.remote_bytes += len(data)
        return Staged(version, moved, entry.snapshot(uri))


@dataclass
class RemoteObject:
    """One remote object as a byte source. Each ``open()`` is one GET of the
    whole object, whatever version is there, into a buffer nothing keeps —
    what a metadata walk reads — and ``size`` is the size that GET read."""

    repository: RemoteRepository
    uri: str
    key: str
    scope: Optional[RequestScope] = None
    size: Optional[int] = None

    def open(self) -> BinaryIO:
        repository = self.repository
        _, data = repository.transport.get(
            self.key, 0, None, None, uri=self.uri, scope=self.scope
        )
        with repository._lock:
            repository.stats.whole_fetches += 1
            repository.stats.remote_bytes += len(data)
        self.size = len(data)
        return BufferSource(self.uri, data).open()


class RemoteExtractor:
    """Wraps a format extractor so its mounts read a remote object's bytes
    from memory.

    ``bytes_read`` in the returned outcomes is redefined as *remote bytes
    moved by this call* — the number the bandwidth model, the governor's
    byte budget, and the ranged-GET benchmark all care about. A mount fully
    served from the bytes held reports 0, exactly like a page-cache hit.

    A mount through it needs no signature taken before or after: the
    responses that carry the bytes say which version they are of
    (:meth:`observing`, :attr:`observed`), and the inner extractor reads a
    snapshot of exactly those bytes.
    """

    def __init__(
        self,
        repository: RemoteRepository,
        inner: FormatExtractor,
        signature: Optional[tuple[int, int]] = None,
        scope: Optional[RequestScope] = None,
    ) -> None:
        self.repository = repository
        self.inner = inner
        # The caller's own observation of the object, when it has one and
        # this extractor serves one extraction attempt (see `observing`).
        self.signature = signature
        # The query whose mount this is; every request runs under it.
        self.scope = scope
        # The version the last mount through this extractor read: every
        # byte of it, and nothing of any other.
        self.observed: Optional[tuple[int, int]] = None

    def observing(
        self, signature: Optional[tuple[int, int]]
    ) -> "RemoteExtractor":
        """This extractor for one extraction attempt. ``signature`` is what
        the caller has just observed the object to be (the shared cache
        lookup's HEAD), or None: with one, every GET is conditional on it;
        without, the first response says which version this is and every
        later GET is conditional on that. Either way the mount reads one
        version or raises :class:`~repro.db.errors.StaleFileError`, and
        :attr:`observed` names it afterwards."""
        return RemoteExtractor(
            self.repository, self.inner, signature, self.scope
        )

    @property
    def format_name(self) -> str:
        return self.inner.format_name

    @property
    def suffix(self) -> str:
        return self.inner.suffix

    def extract_metadata(self, source: ByteSource):
        """The inner format's header-only read of ``source`` (of a
        :class:`RemoteObject`: one whole GET, nothing kept)."""
        return self.inner.extract_metadata(source)

    def mount(self, source: ByteSource):
        staged = self.repository.ensure_whole(
            source.uri, self.signature, self.scope
        )
        mounted = self.inner.mount(staged.source)
        self.observed = staged.signature
        return mounted

    def mount_selective(
        self, source: ByteSource, request: MountRequest
    ) -> MountOutcome:
        inner, spans = self.inner, request.records
        selective_inner = isinstance(inner, SelectiveFormatExtractor)
        if (
            selective_inner
            and not request.selects_all
            and spans is not None
            and all(span.addressable for span in spans)
        ):
            staged = self.repository.fetch_spans(
                source.uri,
                [
                    (span.byte_offset, span.byte_length)
                    for span in spans
                    if request.wants(span.start_time, span.end_time)
                ],
                self.signature,
                self.scope,
            )
        else:
            # No trustworthy byte map (or the request wants everything):
            # fetch the whole object — a header walk over a partly fetched
            # object would parse its holes' zeros as corruption.
            staged = self.repository.ensure_whole(
                source.uri, self.signature, self.scope
            )
        if selective_inner:
            outcome = inner.mount_selective(staged.source, request)
        else:
            outcome = MountOutcome(inner.mount(staged.source), 0, 0, 0)
        self.observed = staged.signature
        return replace(outcome, bytes_read=staged.moved)


__all__ = [
    "DEFAULT_COALESCE_GAP_BYTES",
    "RemoteExtractor",
    "RemoteObject",
    "RemoteRepository",
    "RemoteRepositoryStats",
    "Staged",
]
