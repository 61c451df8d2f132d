"""Persistent metadata store: derived state that survives the session.

The paper's stage-1/stage-2 split makes the metadata pass the price of
admission — every fresh session walks every file's headers before the first
query can plan. DiNoDB's observation (PAPERS.md) is that the products of
that walk (positional maps, time hulls, statistics) *are metadata* and can
be persisted as such; NoDB adds that such structures should be refined by
the queries that use them, not rebuilt from scratch. This module is the
persistence half: a versioned JSON sidecar stored next to the repository
holding, per URI,

* the file's ``(st_mtime_ns, st_size)`` signature at extraction time,
* its ``F`` metadata row (time hull, record/sample counts, byte size),
* its ``R`` record rows **including the record byte map** — the offsets and
  lengths that make PR 4's selective mounting possible without re-walking
  headers,

plus the table row-counts that seed the cost-based planner's
:class:`~repro.db.stats.StatisticsCatalog`.

Correctness is signature-gated: :meth:`MetadataStore.lookup` returns stored
rows only when the caller's freshly-observed signature (a ``stat``, or the
file's entry in a listing the caller just made) matches the one
recorded at extraction time; any drift (or a corrupt, truncated or
version-skewed sidecar) degrades to live ingest — the store can make a cold
open cheaper, never wronger.

The sidecar is read through :func:`~repro.mseed.iohooks.open_volume` with a
``metastore:`` URI, so the deterministic fault harness can inject short
reads and I/O errors into loads exactly as it does for repository files.
Writes go to a temp file renamed into place, so a crashed save leaves the
previous sidecar intact. All in-memory state is lock-guarded (sessions may
save from one thread while another records); file I/O happens outside the
lock — serialization snapshots under the lock, the write itself does not
block other threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .. import _sync
from ..db.stats import FileStatistics, StatisticsCatalog
from ..ingest.formats import FileMetaRow, RecordColumns
from ..mseed.iohooks import open_volume

__all__ = [
    "METASTORE_BASENAME",
    "METASTORE_VERSION",
    "MetadataStore",
    "MetastoreStats",
    "StoredFileState",
]

#: Bump on any incompatible change to the sidecar layout. A mismatched
#: version is treated exactly like a corrupt sidecar: discard and re-ingest.
METASTORE_VERSION = 1

#: Default sidecar name inside the repository root. The leading dot keeps it
#: out of suffix-filtered repository walks (``*.xseed`` etc. never match).
METASTORE_BASENAME = ".repro-metastore.json"


@dataclass
class MetastoreStats:
    hits: int = 0  # lookups served from stored state
    misses: int = 0  # URIs the store had never seen
    stale: int = 0  # URIs whose on-disk signature drifted since extraction
    corrupt_loads: int = 0  # sidecar unreadable/unparsable → clean reset
    version_mismatches: int = 0  # sidecar from another layout version
    loaded_files: int = 0  # per-URI states read by the last successful load
    saved_files: int = 0  # per-URI states written by the last save
    saved_bytes: int = 0  # sidecar size written by the last save


@dataclass(frozen=True)
class StoredFileState:
    """Everything the metadata pass learned about one file, signed."""

    signature: tuple[int, int]  # (st_mtime_ns, st_size) at extraction time
    file_row: FileMetaRow
    records: RecordColumns


# Sidecar record row: record_id, then the RecordColumns fields in this order.
_RECORD_FIELDS = (
    ("start_time", np.int64), ("end_time", np.int64),
    ("sample_rate", np.float64), ("nsamples", np.int64),
    ("byte_offset", np.int64), ("byte_length", np.int64),
)


def _encode_file(state: StoredFileState) -> dict[str, object]:
    f = state.file_row
    return {
        "signature": list(state.signature),
        # Positional arrays, not objects: the record list dominates sidecar
        # size (one entry per record), so field names are paid once here in
        # code rather than once per record on disk.
        "file": [
            f.network,
            f.station,
            f.location,
            f.channel,
            f.start_time,
            f.end_time,
            f.nrecords,
            f.nsamples,
            f.size_bytes,
        ],
        "records": list(
            zip(
                range(len(state.records)),
                *(getattr(state.records, name).tolist()
                  for name, _ in _RECORD_FIELDS),
            )
        ),
    }


def _decode_file(uri: str, payload: dict[str, object]) -> StoredFileState:
    """Rebuild one URI's state; any malformed field raises (caught by load)."""
    sig_raw = payload["signature"]
    if not isinstance(sig_raw, list) or len(sig_raw) != 2:
        raise ValueError(f"bad signature for {uri}")
    signature = (int(sig_raw[0]), int(sig_raw[1]))
    f = payload["file"]
    if not isinstance(f, list) or len(f) != 9:
        raise ValueError(f"bad file row for {uri}")
    file_row = FileMetaRow(
        uri=uri,
        network=str(f[0]),
        station=str(f[1]),
        location=str(f[2]),
        channel=str(f[3]),
        start_time=int(f[4]),
        end_time=int(f[5]),
        nrecords=int(f[6]),
        nsamples=int(f[7]),
        size_bytes=int(f[8]),
    )
    records_raw = payload["records"]
    if not isinstance(records_raw, list) or not all(
        isinstance(r, list) and len(r) == 7 for r in records_raw
    ):
        raise ValueError(f"bad record rows for {uri}")
    n = len(records_raw)
    record_id, *fields = zip(*records_raw) if n else [()] * 7
    if record_id != tuple(range(n)):
        raise ValueError(f"record ids of {uri} are not 0..{n - 1}")
    records = RecordColumns(
        *(
            np.fromiter(values, dtype, n)
            for values, (_, dtype) in zip(fields, _RECORD_FIELDS)
        )
    )
    return StoredFileState(
        signature=signature, file_row=file_row, records=records
    )


@_sync.guarded
class MetadataStore:
    """The on-disk sidecar plus its in-memory image.

    Lifecycle: :meth:`load` at open (tolerant of every failure mode),
    :meth:`lookup` during the metadata pass (signature-gated),
    :meth:`record` for every freshly-extracted file, :meth:`retain` with
    the URIs the pass listed, and :meth:`save` once the pass completes if
    any of that left the store :attr:`dirty`. :meth:`statistics` rebuilds
    the planner's catalog from stored state alone, so a warm session costs
    one listing of the repository's signatures.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.stats = MetastoreStats()  # guarded-by: _lock
        self._files: dict[str, StoredFileState] = {}  # guarded-by: _lock
        self._table_rows: dict[str, int] = {}  # guarded-by: _lock
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
        """Read the sidecar; returns the number of per-URI states loaded.

        Every failure mode is absorbed: a missing sidecar is a clean cold
        start, a corrupt/truncated/short-read sidecar or a version mismatch
        resets to empty (counted separately) — the caller always proceeds,
        at worst with live ingest for everything.
        """
        # File I/O deliberately happens outside the lock (reads can be slow
        # and faulted); only the final state swap is locked.
        raw: Optional[bytes] = None
        try:
            with open_volume(self.path, f"metastore:{self.path.name}") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return self._install({}, {})
        files: dict[str, StoredFileState] = {}
        table_rows: dict[str, int] = {}
        version_skew = False
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("sidecar root is not an object")
            if payload.get("version") != METASTORE_VERSION:
                version_skew = True
            else:
                files_raw = payload.get("files", {})
                if not isinstance(files_raw, dict):
                    raise ValueError("files section is not an object")
                for uri, state_raw in files_raw.items():
                    if not isinstance(state_raw, dict):
                        raise ValueError(f"bad state for {uri}")
                    files[str(uri)] = _decode_file(str(uri), state_raw)
                rows_raw = payload.get("table_rows", {})
                if not isinstance(rows_raw, dict):
                    raise ValueError("table_rows section is not an object")
                table_rows = {str(k): int(v) for k, v in rows_raw.items()}
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            with self._lock:
                self.stats.corrupt_loads += 1
            return self._install({}, {})
        if version_skew:
            with self._lock:
                self.stats.version_mismatches += 1
            return self._install({}, {})
        return self._install(files, table_rows)

    def _install(
        self, files: dict[str, StoredFileState], table_rows: dict[str, int]
    ) -> int:
        """Make a load's outcome the in-memory image."""
        with self._lock:
            self._files = files
            self._table_rows = table_rows
            self._dirty = False
            self.stats.loaded_files = len(files)
        return len(files)

    @property
    def dirty(self) -> bool:
        """Has anything been recorded, dropped or re-counted since the
        last :meth:`load` or :meth:`save`? A pass that reused every file
        leaves nothing to write."""
        with self._lock:
            return self._dirty

    def save(self) -> int:
        """Write the sidecar atomically; returns the byte count written.

        Serialization snapshots the state under the lock; the actual write
        goes to ``<path>.tmp`` and is renamed into place, so a crash mid-save
        leaves the previous sidecar readable.
        """
        with self._lock:
            payload = {
                "version": METASTORE_VERSION,
                "files": {
                    uri: _encode_file(state)
                    for uri, state in self._files.items()
                },
                "table_rows": dict(self._table_rows),
            }
            saved_files = len(self._files)
            self._dirty = False
        # Encode + write outside the lock: the snapshot above is immutable.
        encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(encoded)
        os.replace(tmp, self.path)
        with self._lock:
            self.stats.saved_files = saved_files
            self.stats.saved_bytes = len(encoded)
        return len(encoded)

    # -- per-file state --------------------------------------------------------

    def lookup(
        self, uri: str, signature: tuple[int, int]
    ) -> Optional[StoredFileState]:
        """Stored state for ``uri`` iff its signature still matches.

        ``signature`` is the caller's *fresh* stat of the file; a mismatch
        means the file changed since extraction, so the stored rows are
        wrong and the caller must ingest live (counted as ``stale``).
        """
        with self._lock:
            state = self._files.get(uri)
            if state is None:
                self.stats.misses += 1
                return None
            if state.signature != signature:
                self.stats.stale += 1
                return None
            self.stats.hits += 1
            return state

    def record(
        self,
        uri: str,
        signature: tuple[int, int],
        file_row: FileMetaRow,
        records: RecordColumns,
    ) -> None:
        """Remember one freshly-extracted file's metadata, signed."""
        state = StoredFileState(
            signature=signature, file_row=file_row, records=records
        )
        with self._lock:
            self._files[uri] = state
            self._dirty = True

    def record_table_rows(self, table_rows: dict[str, int]) -> None:
        """Remember table cardinalities for the planner's statistics."""
        with self._lock:
            if any(self._table_rows.get(k) != v for k, v in table_rows.items()):
                self._table_rows.update(table_rows)
                self._dirty = True

    def retain(self, uris: Iterable[str]) -> int:
        """Drop every URI not in ``uris`` — the repository as a *complete*
        listing just showed it — and return how many went. A file that has
        left the repository must stop being persisted and counted by
        :meth:`statistics`."""
        listed = set(uris)
        with self._lock:
            gone = self._files.keys() - listed
            for uri in gone:
                del self._files[uri]
            if gone:
                self._dirty = True
            return len(gone)

    # -- derived state ---------------------------------------------------------

    def statistics(self) -> StatisticsCatalog:
        """A planner statistics catalog rebuilt purely from stored state."""
        with self._lock:
            files = {
                uri: FileStatistics(
                    uri=uri,
                    start_time=state.file_row.start_time,
                    end_time=state.file_row.end_time,
                    nrecords=state.file_row.nrecords,
                    nsamples=state.file_row.nsamples,
                    size_bytes=state.file_row.size_bytes,
                )
                for uri, state in self._files.items()
            }
            return StatisticsCatalog(
                table_rows=dict(self._table_rows), files=files
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._files)
