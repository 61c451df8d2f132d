"""Byte sources, and the pluggable I/O hook every one of them reads through.

A format reads a file through a :class:`ByteSource`: its ``uri``, its
``size`` and ``open()``, a binary handle. A local file is a
:class:`FileSource`, which opens through :func:`open_volume`; bytes held in
memory (a remote object's GET bodies) are a :class:`BufferSource`. The
handle is a plain ``open(path, "rb")`` or an in-memory reader; when a hook
is installed (the deterministic fault-injection harness,
:mod:`repro.testing.faults`, or a byte counter), it is wrapped so the hook
can count reads or inject transient ``OSError``\\ s, read latency, short
reads, and between-reads file mutations at chosen URIs — the faults the
resilient-mounting machinery (retry, skip-and-report, staleness
re-validation) exists to absorb.

The hook is intentionally a single module-level slot, not a per-service
field: the whole point of chaos testing is to fault the *real* access path
that production code uses, with zero plumbing through the extraction layers
and zero overhead (one ``None`` check) when no hook is installed.
"""

from __future__ import annotations

import io
import os
import threading
from pathlib import Path
from typing import BinaryIO, Optional, Protocol


class VolumeIoHook(Protocol):
    """Wraps every handle a byte source opens."""

    def wrap(self, path: Optional[Path], uri: str, handle: BinaryIO) -> BinaryIO:
        """Return the handle to hand to the reader (possibly ``handle``).
        ``path`` is the file read, None for bytes held in memory."""
        ...


_lock = threading.Lock()
_active: Optional[VolumeIoHook] = None


def set_volume_io_hook(hook: Optional[VolumeIoHook]) -> Optional[VolumeIoHook]:
    """Install ``hook`` (None to clear); returns the previous hook."""
    global _active
    with _lock:
        previous = _active
        _active = hook
        return previous


def get_volume_io_hook() -> Optional[VolumeIoHook]:
    return _active


def open_volume(path: str | Path, uri: Optional[str] = None) -> BinaryIO:
    """Open one repository file for reading, through the active hook."""
    handle = open(path, "rb")
    hook = _active
    if hook is None:
        return handle
    try:
        return hook.wrap(
            Path(path), uri if uri is not None else str(path), handle
        )
    except BaseException:
        handle.close()
        raise


class ByteSource(Protocol):
    """What a format reads one file through.

    ``open()`` answers a binary handle (``read``, ``seek``, ``tell``,
    ``close``, a context manager) wrapped by the active hook. ``size`` is
    the size of what ``open()`` serves; a reader asks for it once the source
    is open.
    """

    uri: str

    @property
    def size(self) -> int: ...

    def open(self) -> BinaryIO: ...


class FileSource:
    """A local file as a byte source: every ``open()`` is one
    :func:`open_volume` of ``path`` under ``uri``, and ``size`` a ``stat``
    of it now."""

    __slots__ = ("path", "uri")

    def __init__(self, path: str | Path, uri: Optional[str] = None) -> None:
        self.path = path
        self.uri = uri if uri is not None else str(path)

    @property
    def size(self) -> int:
        return os.stat(self.path).st_size

    def open(self) -> BinaryIO:
        return open_volume(self.path, self.uri)


class BufferSource:
    """Bytes held in memory as a byte source. They are never changed, so
    every ``open()`` reads the same bytes."""

    __slots__ = ("uri", "data", "size")

    def __init__(self, uri: str, data: bytes | bytearray) -> None:
        self.uri = uri
        self.data = data
        self.size = len(data)

    def open(self) -> BinaryIO:
        handle = io.BytesIO(self.data)
        hook = _active
        return handle if hook is None else hook.wrap(None, self.uri, handle)


__all__ = [
    "BufferSource",
    "ByteSource",
    "FileSource",
    "VolumeIoHook",
    "get_volume_io_hook",
    "open_volume",
    "set_volume_io_hook",
]
