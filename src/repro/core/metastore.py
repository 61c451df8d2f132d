"""Persistent metadata store: derived state that survives the session.

The paper's stage-1/stage-2 split makes the metadata pass the price of
admission — every fresh session walks every file's headers before the first
query can plan. DiNoDB's observation (PAPERS.md) is that the products of
that walk (positional maps, time hulls, statistics) *are metadata* and can
be persisted as such, in the engine's own form. This module is the
persistence half: one sidecar file next to the repository holding a
:class:`~repro.mseed.volume.MetadataBlock` — ``F``'s ten columns and ``R``'s
six, **including the record byte map** that selective mounting seeks by —
plus two signature columns, each file's ``(st_mtime_ns, st_size)`` when its
rows were read.

The sidecar is a magic and version, a small JSON header (the URIs, ``F``'s
four string columns, and each array's dtype, offset and count), a CRC32 of
everything after the fixed prefix, and then the raw little-endian arrays.
:meth:`MetadataStore.load` reads it in one ``read`` through
:func:`~repro.mseed.iohooks.open_volume` with a ``metastore:`` URI — so the
deterministic fault harness can short-read it as it does repository files —
and takes the arrays with ``np.frombuffer``.

Correctness is signature-gated: :meth:`MetadataStore.match` hands back a
stored file only where the caller's freshly observed signature (a ``stat``,
or the file's entry in a listing the caller just made) equals the stored
one. Any drift — or a missing, corrupt, truncated, CRC-failing or
version-skewed sidecar — degrades to live ingest: the store can make a cold
open cheaper, never wronger.

Writes go to a temp file renamed into place, so a failed save leaves the
previous sidecar intact. The in-memory image is lock-guarded; file I/O
happens outside the lock.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import _sync
from ..mseed.iohooks import open_volume
from ..mseed.volume import FILE_COLUMNS, RECORD_COLUMNS, MetadataBlock

__all__ = [
    "METASTORE_BASENAME",
    "METASTORE_VERSION",
    "MetadataStore",
    "MetastoreStats",
]

#: Bump on any incompatible change to the sidecar layout. A mismatched
#: version is treated exactly like a corrupt sidecar: discard and re-ingest.
METASTORE_VERSION = 2

#: Default sidecar name inside the repository root. The leading dot keeps it
#: out of suffix-filtered repository walks (``*.xseed`` etc. never match).
METASTORE_BASENAME = ".repro-metastore.json"

# Magic, version, header length, CRC32 of the header and the arrays.
_PREFIX = struct.Struct("<8sIII")
_MAGIC = b"REPROMS\x00"
# How version 1, a JSON object with its version first, begins.
_JSON_LAYOUT = b'{"version":'

_STRINGS = FILE_COLUMNS[:5]  # the URIs and F's four string columns
# Every array, in file order: (table, column, dtype). "R" arrays have one
# entry per record, the others one per file.
_ARRAYS = (
    ("signature", "mtime_ns", "<i8"),
    ("signature", "size", "<i8"),
    *(("F", name, "<i8") for name in FILE_COLUMNS[5:]),
    *(
        ("R", name, "<f8" if name == "sample_rate" else "<i8")
        for name in RECORD_COLUMNS
    ),
)

_EMPTY = MetadataBlock.stack([])
_UNSIGNED = np.empty((0, 2), np.int64)


@dataclass
class MetastoreStats:
    hits: int = 0  # files matched with their stored rows
    misses: int = 0  # URIs the store had never seen
    stale: int = 0  # URIs whose signature drifted since extraction
    corrupt_loads: int = 0  # sidecar unreadable/unparsable → clean reset
    version_mismatches: int = 0  # sidecar from another layout version
    saved_files: int = 0  # files written by the last save
    saved_bytes: int = 0  # sidecar size written by the last save


def _encode(block: MetadataBlock, signatures: np.ndarray) -> bytes:
    tables = {
        "signature": {"mtime_ns": signatures[:, 0], "size": signatures[:, 1]},
        "F": block.files,
        "R": block.records,
    }
    columns, body, at = {}, [], 0
    for table, name, dtype in _ARRAYS:
        values = tables[table][name]
        raw = np.ascontiguousarray(values, dtype).tobytes()
        columns[f"{table}.{name}"] = [dtype, at, len(values)]
        body.append(raw)
        at += len(raw)
    header = json.dumps(
        {**{name: list(block.files[name]) for name in _STRINGS},
         "nrecords": len(block.records["start_time"]), "columns": columns},
        separators=(",", ":"),
    ).encode("utf-8")
    header += b" " * (-(_PREFIX.size + len(header)) % 8)  # align the arrays
    payload = header + b"".join(body)
    prefix = _PREFIX.pack(
        _MAGIC, METASTORE_VERSION, len(header), zlib.crc32(payload)
    )
    return prefix + payload


def _decode(raw: bytes) -> tuple[MetadataBlock, np.ndarray]:
    """The block and signatures a sidecar holds; ValueError (and kin) on
    anything short, inconsistent or failing its CRC."""
    _, _, header_len, crc = _PREFIX.unpack_from(raw)
    arrays_at = _PREFIX.size + header_len
    if len(raw) < arrays_at or zlib.crc32(memoryview(raw)[_PREFIX.size :]) != crc:
        raise ValueError("sidecar truncated or its CRC fails")
    header = json.loads(raw[_PREFIX.size : arrays_at])
    strings = {name: header[name] for name in _STRINGS}
    nfiles, nrecords = len(strings["uri"]), header["nrecords"]
    for column in strings.values():
        if not isinstance(column, list) or len(column) != nfiles:
            raise ValueError("sidecar string column is malformed")
        "".join(column)  # a TypeError unless every value is a str
    if not isinstance(nrecords, int) or nrecords < 0:
        raise ValueError("sidecar record count is malformed")
    tables: dict[str, dict[str, np.ndarray]] = {"signature": {}, "F": {}, "R": {}}
    for table, name, dtype in _ARRAYS:
        declared, offset, count = header["columns"][f"{table}.{name}"]
        expected = nrecords if table == "R" else nfiles
        if (declared, count) != (dtype, expected) or not (
            isinstance(offset, int)
            and 0 <= offset <= len(raw) - arrays_at - 8 * count
        ):
            raise ValueError(f"sidecar column {table}.{name} is malformed")
        tables[table][name] = np.frombuffer(raw, dtype, count, arrays_at + offset)
    per_file = tables["F"]["nrecords"]
    if (per_file < 0).any() or sum(per_file.tolist()) != nrecords:
        raise ValueError("sidecar record counts do not add up")
    signature = tables["signature"]
    return (
        MetadataBlock(strings | tables["F"], tables["R"]),
        np.column_stack([signature["mtime_ns"], signature["size"]]),
    )


@_sync.guarded
class MetadataStore:
    """The on-disk sidecar plus its in-memory image: a block of files and
    each file's signature.

    Lifecycle: :meth:`load` at open (tolerant of every failure mode),
    :meth:`match` during the metadata pass (signature-gated), :meth:`keep`
    with what the pass ended with, and :meth:`save` if that left the store
    :attr:`dirty`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.stats = MetastoreStats()  # guarded-by: _lock
        self._block = _EMPTY  # guarded-by: _lock
        self._signatures = _UNSIGNED  # guarded-by: _lock
        # Does the in-memory image differ from what load() read or save()
        # last wrote?
        self._dirty = False  # guarded-by: _lock
        self._lock = _sync.create_rlock("MetadataStore._lock")

    @classmethod
    def for_repository(cls, root: str | Path) -> "MetadataStore":
        """The store at the conventional sidecar path inside ``root``."""
        return cls(Path(root) / METASTORE_BASENAME)

    # -- persistence -----------------------------------------------------------

    def load(self) -> int:
        """Read the sidecar; returns the number of files loaded.

        Every failure mode is absorbed: a missing sidecar is a clean cold
        start, a corrupt/truncated/short-read sidecar or a version mismatch
        resets to empty (counted separately) — the caller always proceeds,
        at worst with live ingest for everything.
        """
        try:
            with open_volume(self.path, f"metastore:{self.path.name}") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return self._install()
        if raw.startswith(_JSON_LAYOUT) or (
            raw.startswith(_MAGIC) and len(raw) >= _PREFIX.size
            and _PREFIX.unpack_from(raw)[1] != METASTORE_VERSION
        ):
            with self._lock:
                self.stats.version_mismatches += 1
            return self._install()
        try:
            if not raw.startswith(_MAGIC):
                raise ValueError("not a metastore sidecar")
            return self._install(*_decode(raw))
        except (ValueError, KeyError, TypeError, struct.error):
            with self._lock:
                self.stats.corrupt_loads += 1
            return self._install()

    def _install(
        self, block: MetadataBlock = _EMPTY, signatures: np.ndarray = _UNSIGNED
    ) -> int:
        """Make a load's outcome the in-memory image."""
        with self._lock:
            self._block, self._signatures = block, signatures
            self._dirty = False
        return len(block)

    @property
    def dirty(self) -> bool:
        """Has the image changed since the last :meth:`load` or
        :meth:`save`? A pass that reused every file in order leaves nothing
        to write."""
        with self._lock:
            return self._dirty

    def save(self) -> int:
        """Write the sidecar atomically; returns the byte count written.

        The write goes to ``<path>.tmp`` and is renamed into place. Should
        either fail, the temp file is removed, the previous sidecar stays,
        the store stays dirty, and the error propagates.
        """
        with self._lock:
            block, signatures = self._block, self._signatures
            self._dirty = False
        # Encode + write outside the lock: the image is never mutated.
        encoded = _encode(block, signatures)
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(encoded)
            os.replace(tmp, self.path)
        except OSError:
            tmp.unlink(missing_ok=True)
            with self._lock:
                self._dirty = True
            raise
        with self._lock:
            self.stats.saved_files = len(block)
            self.stats.saved_bytes = len(encoded)
        return len(encoded)

    # -- the image -------------------------------------------------------------

    def image(self) -> tuple[MetadataBlock, np.ndarray]:
        """The stored block and its ``(n, 2)`` signatures, in file order."""
        with self._lock:
            return self._block, self._signatures

    def match(
        self, uris: Sequence[str], signatures: np.ndarray
    ) -> tuple[MetadataBlock, np.ndarray]:
        """The stored block, and per observed file its index there when its
        stored signature equals the observed one (row of ``signatures``),
        -1 when it must be read live: never stored (a miss) or changed
        since (stale)."""
        with self._lock:
            block, stored = self._block, self._signatures
            where = {uri: k for k, uri in enumerate(block.files["uri"])}
            at = np.fromiter(
                (where.get(uri, -1) for uri in uris), np.int64, len(uris)
            )
            known = at >= 0
            same = known.copy()
            if len(stored):
                same &= (stored[np.where(known, at, 0)] == signatures).all(1)
            self.stats.hits += int(same.sum())
            self.stats.stale += int((known & ~same).sum())
            self.stats.misses += int((~known).sum())
        return block, np.where(same, at, -1)

    def keep(self, block: MetadataBlock, signatures: np.ndarray) -> None:
        """Make ``block`` and its files' ``signatures`` the image: the
        repository as a complete listing just showed it. Dirty unless the
        image already held those files, in that order, under those
        signatures — and so the same rows."""
        with self._lock:
            if not (
                np.array_equal(signatures, self._signatures)
                and list(block.files["uri"]) == list(self._block.files["uri"])
            ):
                self._dirty = True
            self._block, self._signatures = block, signatures

    def __len__(self) -> int:
        with self._lock:
            return len(self._block)
