"""The file-repository abstraction.

A repository is a directory tree of standard-format files addressed by
*URIs* (their repository-relative paths). This is the paper's unit of
ingestion: eager ingestion walks every URI, lazy ingestion walks headers
only, and the mount access path resolves one URI at a time.

:class:`FileRepository` is also the *repository protocol* other backends
implement by duck type: ingestion and mounting resolve everything source-
specific through four overridable hooks — :meth:`~FileRepository.path_of`
(URI → readable local path), :meth:`~FileRepository.signature_of` (URI →
staleness signature), :meth:`~FileRepository.signatures` (every URI and its
signature, observed in bulk) and :meth:`~FileRepository.extractor_for` (path →
format extractor, possibly wrapped). The last three, and :meth:`uris`, also
receive the calling query's ``scope`` (its
:class:`~repro.core.mounting.MountContext`, or None outside a query): a
backend whose reads can wait or retry runs them under that query's
cancellation token and retry budget; a local directory has no use for it.
The remote backend (:mod:`repro.remote.repository`) and the federated dispatcher
(:mod:`repro.remote.federation`) override them; everything above the hooks
is source-agnostic.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..db.errors import FileIngestError, IngestError

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycles)
    from ..ingest.formats import FormatExtractor, FormatRegistry


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

    @property
    def suffix(self) -> str:
        """The first suffix (kept for single-format callers)."""
        return self.suffixes[0]

    def uris(self, scope: object = None) -> list[str]:
        """All file URIs, sorted for deterministic iteration order."""
        found: set[str] = set()
        for suffix in self.suffixes:
            found.update(
                p.relative_to(self.root).as_posix()
                for p in self.root.rglob(f"*{suffix}")
                if p.is_file()
            )
        return sorted(found)

    def __len__(self) -> int:
        return len(self.uris())

    def __iter__(self) -> Iterator[str]:
        return iter(self.uris())

    def _resolve(self, uri: str) -> str:
        """The real path of ``uri``, which must lie inside the root."""
        resolved = os.path.realpath(os.path.join(self._resolved_root, uri))
        if not (resolved + os.sep).startswith(self._inside_root):
            raise IngestError(f"URI {uri!r} escapes the repository root")
        return resolved

    def path_of(self, uri: str) -> Path:
        resolved = self._resolve(uri)
        if not os.path.exists(resolved):
            raise FileIngestError(
                f"no file for URI {uri!r} in {self.root}", uri=uri
            )
        return Path(resolved)

    def size_of(self, uri: str) -> int:
        return self.path_of(uri).stat().st_size

    def total_bytes(self) -> int:
        """Size of the repository — the "mSEED" column of Table 1."""
        return sum(self.size_of(uri) for uri in self.uris())

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
        st = os.stat(self._resolve(uri))
        return (st.st_mtime_ns, st.st_size)

    def signatures(self, scope: object = None) -> dict[str, tuple[int, int]]:
        """Every URI and its signature, in listing order: the repository
        observed in bulk. Here it is :meth:`uris` plus one ``stat`` per
        file; a backend whose listing already carries size and mtime
        answers it without a request per file."""
        observed: dict[str, tuple[int, int]] = {}
        for uri in self.uris(scope):
            try:
                observed[uri] = self.signature_of(uri, scope)
            except FileNotFoundError:
                pass  # deleted since the listing
        return observed

    def extractor_for(
        self,
        path: Path,
        uri: str,
        registry: "FormatRegistry",
        scope: object = None,
    ) -> "FormatExtractor":
        """The format extractor to use for ``uri`` resolved at ``path``.

        The remote backend wraps the registry's choice in a staging adapter;
        locally the registry's per-suffix dispatch is the whole story.
        """
        return registry.for_path(path)

    def owns_uri(self, uri: str) -> bool:
        """Does this repository serve ``uri``? (Federation dispatch.)"""
        return not uri.startswith("remote://")
