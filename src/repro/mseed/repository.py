"""The file-repository abstraction.

A repository is a directory tree of standard-format files addressed by
*URIs* (their repository-relative paths). This is the paper's unit of
ingestion: eager ingestion walks every URI, lazy ingestion walks headers
only, and the mount access path resolves one URI at a time.

:class:`Repository` states the protocol every backend implements —
:class:`FileRepository` here, the remote backend
(:mod:`repro.remote.repository`) and the federated dispatcher
(:mod:`repro.remote.federation`). Ingestion and mounting resolve everything
source-specific through its hooks: :meth:`~Repository.source_for` (URI →
the :class:`~repro.mseed.iohooks.ByteSource` its bytes are read through and
the format extractor that reads them, possibly wrapped),
:meth:`~Repository.locate` (every file's source and extractor, from one
listing), :meth:`~Repository.signature_of` (URI → staleness signature),
:meth:`~Repository.signatures` (every URI and its signature, observed in
bulk), :meth:`~Repository.signatures_of` (some URIs' signatures, observed
ahead where that saves requests — what a query's cache scans compare
against) and :meth:`~Repository.owns_uri` (federation dispatch). Those that
can read, and :meth:`~Repository.uris`, also receive the calling query's
``scope`` (its
:class:`~repro.core.mounting.MountContext`, or None outside a query): a
backend whose reads can wait or retry runs them under that query's
cancellation token and retry budget; a local directory has no use for it.
Everything above the hooks is source-agnostic.
"""

from __future__ import annotations

import os
from operator import itemgetter
from pathlib import Path
from stat import S_ISLNK
from typing import TYPE_CHECKING, Any, Iterator, Optional, Protocol, Sequence

from ..db.errors import FileIngestError, IngestError
from .iohooks import ByteSource, FileSource

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycles)
    from ..ingest.formats import FormatExtractor, FormatRegistry


# URI components that make a URI something other than a path below the root.
_NOT_PLAIN = frozenset(("", ".", ".."))


class Repository(Protocol):
    """What ingestion and mounting ask of a file repository."""

    suffixes: tuple[str, ...]

    def uris(self, scope: Any = None) -> list[str]: ...

    def locate(
        self, registry: "FormatRegistry", scope: Any = None
    ) -> Iterator[tuple[ByteSource, "FormatExtractor"]]: ...

    def source_for(
        self, uri: str, registry: "FormatRegistry", scope: Any = None
    ) -> tuple[ByteSource, "FormatExtractor"]: ...

    def signature_of(self, uri: str, scope: Any = None) -> tuple[int, int]: ...

    def signatures(self, scope: Any = None) -> dict[str, tuple[int, int]]: ...

    def signatures_of(
        self, uris: Sequence[str], scope: Any = None
    ) -> dict[str, tuple[int, int] | IngestError]: ...

    def owns_uri(self, uri: str) -> bool: ...


class FileRepository:
    """A directory of scientific data files, addressed by relative URI.

    ``suffix`` may be a single extension or a tuple of extensions — a real
    scientific archive mixes formats, and the format registry dispatches per
    file, so one repository (and one schema) can span them all.
    """

    def __init__(
        self, root: str | Path, suffix: str | tuple[str, ...] = ".xseed"
    ) -> None:
        self.root = Path(root)
        self.suffixes = (suffix,) if isinstance(suffix, str) else tuple(suffix)
        if not self.root.exists():
            raise IngestError(f"repository root {self.root} does not exist")
        # Containment is checked against this on every URI resolution; the
        # root itself does not move, so its realpath walk happens once.
        self._resolved_root = os.path.realpath(self.root)
        self._inside_root = os.path.join(self._resolved_root, "")

    def _listing(self) -> list[tuple[str, os.DirEntry]]:
        """Every file with one of the suffixes, as (URI, directory entry),
        sorted by URI: one ``scandir`` walk from the resolved root. Plain
        directories are entered and symlinked ones are not; a link counts as
        a file when what it points at is one."""
        found: list[tuple[str, os.DirEntry]] = []
        pending = [(self._resolved_root, "")]
        while pending:
            directory, prefix = pending.pop()
            try:
                with os.scandir(directory) as scan:
                    entries = list(scan)
            except PermissionError:
                continue
            for entry in entries:
                name = entry.name
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, f"{prefix}{name}/"))
                elif name.endswith(self.suffixes):
                    try:
                        if entry.is_file():
                            found.append((prefix + name, entry))
                    except OSError:
                        pass  # a link that cannot be followed is no file
        found.sort(key=itemgetter(0))
        return found

    def uris(self, scope: object = None) -> list[str]:
        """All file URIs, sorted for deterministic iteration order."""
        return [uri for uri, _ in self._listing()]

    def __len__(self) -> int:
        return len(self.uris())

    def __iter__(self) -> Iterator[str]:
        return iter(self.uris())

    def locate(
        self, registry: "FormatRegistry", scope: object = None
    ) -> Iterator[tuple[FileSource, "FormatExtractor"]]:
        """Every file's source and extractor, in listing order: the
        repository located in one go. The listing's own walk answers for a
        plain entry (where it found it); a symlinked one goes through
        :meth:`path_of` and its containment check when its turn comes, so a
        link that escapes the root raises after the URIs listed before it."""
        for uri, entry in self._listing():
            path = self.path_of(uri) if entry.is_symlink() else entry.path
            yield FileSource(path, uri), registry.for_path(path)

    def _resolve(self, uri: str) -> tuple[str, Optional[os.stat_result]]:
        """The real path of ``uri``, which must lie inside the root, and what
        an ``lstat`` of it answered on the way (None after the full walk).

        A plain relative URI none of whose components is a link *is* its real
        path below the root resolved at construction, so only those components
        are looked at. Anything else — a link anywhere, ``..``, an absolute
        URI, an empty or ``.`` component, a missing component, a platform
        whose separator is not the URI's — takes the ``realpath`` comparison.
        """
        if os.sep == "/":
            path = self._inside_root[:-1]
            for part in uri.split("/"):
                if part in _NOT_PLAIN:
                    break
                path = f"{path}/{part}"
                try:
                    seen = os.lstat(path)
                except OSError:
                    break
                if S_ISLNK(seen.st_mode):
                    break
            else:
                return path, seen
        resolved = os.path.realpath(os.path.join(self._resolved_root, uri))
        if not (resolved + os.sep).startswith(self._inside_root):
            raise IngestError(f"URI {uri!r} escapes the repository root")
        return resolved, None

    def path_of(self, uri: str) -> Path:
        """The file ``uri`` names, which must lie inside the root."""
        resolved, seen = self._resolve(uri)
        if seen is None and not os.path.exists(resolved):
            raise FileIngestError(
                f"no file for URI {uri!r} in {self.root}", uri=uri
            )
        return Path(resolved)

    def total_bytes(self) -> int:
        """Size of the repository — the "mSEED" column of Table 1."""
        return sum(size for _, size in self.signatures().values())

    # -- repository protocol hooks -------------------------------------------
    #
    # Everything below is the overridable surface a non-local backend
    # replaces. Callers (lazy/eager ingestion, the mount service) must go
    # through these instead of stat()/registry.for_path directly.

    def signature_of(self, uri: str, scope: object = None) -> tuple[int, int]:
        """The ``(mtime_ns, size)`` staleness signature of a URI.

        Raises ``FileNotFoundError`` (not :meth:`path_of`'s typed error) on
        a missing file: the mount layer maps that to disappeared-before /
        deleted-during-extraction staleness, which must keep working when a
        file vanishes *between* resolution and the post-extract re-check.
        """
        resolved, seen = self._resolve(uri)
        st = seen if seen is not None else os.stat(resolved)
        return (st.st_mtime_ns, st.st_size)

    def signatures(self, scope: object = None) -> dict[str, tuple[int, int]]:
        """Every URI and its signature, in listing order: the repository
        observed in bulk. The listing's own walk answers for a plain entry
        (one ``stat`` of the directory entry); a symlinked one goes through
        :meth:`signature_of` and its containment check. A backend whose
        listing already carries size and mtime answers it without a request
        per file."""
        observed: dict[str, tuple[int, int]] = {}
        for uri, entry in self._listing():
            try:
                if entry.is_symlink():
                    observed[uri] = self.signature_of(uri, scope)
                else:
                    st = entry.stat()
                    observed[uri] = (st.st_mtime_ns, st.st_size)
            except FileNotFoundError:
                pass  # deleted since the listing
        return observed

    def signatures_of(
        self, uris: Sequence[str], scope: object = None
    ) -> dict[str, tuple[int, int] | IngestError]:
        """Nothing observed ahead: a ``stat`` costs the same at the scan
        as it would here, so each scan keeps its own."""
        return {}

    def source_for(
        self, uri: str, registry: "FormatRegistry", scope: object = None
    ) -> tuple[FileSource, "FormatExtractor"]:
        """The file ``uri`` names as a byte source, and the extractor the
        registry's per-suffix dispatch picks for it. The remote backend
        answers an object and wraps the registry's choice in its
        ranged-GET adapter."""
        path = self.path_of(uri)
        return FileSource(path, uri), registry.for_path(path)

    def owns_uri(self, uri: str) -> bool:
        """Does this repository serve ``uri``? (Federation dispatch.)"""
        return not uri.startswith("remote://")
