"""Internal helpers turning extracted rows into column batches."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..db.column import Column, StringDictionary
from ..db.table import ColumnBatch
from ..db.types import DataType
from .formats import FileMetaRow, MountedFile, RecordColumns


def _string_column(values: Sequence[str]) -> Column:
    dictionary = StringDictionary()
    codes = dictionary.encode(values)
    return Column(DataType.STRING, codes, dictionary)


def file_rows_batch(rows: Sequence[FileMetaRow]) -> ColumnBatch:
    return ColumnBatch(
        [
            "uri", "network", "station", "location", "channel",
            "start_time", "end_time", "nrecords", "nsamples", "size_bytes",
        ],
        [
            _string_column([r.uri for r in rows]),
            _string_column([r.network for r in rows]),
            _string_column([r.station for r in rows]),
            _string_column([r.location for r in rows]),
            _string_column([r.channel for r in rows]),
            Column(DataType.TIMESTAMP,
                   np.asarray([r.start_time for r in rows], dtype=np.int64)),
            Column(DataType.TIMESTAMP,
                   np.asarray([r.end_time for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.nrecords for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.nsamples for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.size_bytes for r in rows], dtype=np.int64)),
        ],
    )


def record_rows_batch(
    uris: Sequence[str], parts: Sequence[RecordColumns]
) -> ColumnBatch:
    """``R`` from per-file column sets, ``parts[i]`` describing ``uris[i]``:
    one dictionary code per file, repeated over its records, and a
    ``record_id`` counting from zero within each file."""
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    dictionary = StringDictionary()
    codes = np.repeat(dictionary.encode(uris), counts)
    first_row = np.repeat(np.cumsum(counts) - counts, counts)

    def stacked(name: str, dtype: type) -> np.ndarray:
        arrays = [getattr(part, name) for part in parts]
        return np.concatenate(arrays) if arrays else np.empty(0, dtype)

    return ColumnBatch(
        ["uri", "record_id", "start_time", "end_time", "sample_rate",
         "nsamples", "byte_offset", "byte_length"],
        [
            Column(DataType.STRING, codes, dictionary),
            Column(DataType.INT64, np.arange(len(codes)) - first_row),
            Column(DataType.TIMESTAMP, stacked("start_time", np.int64)),
            Column(DataType.TIMESTAMP, stacked("end_time", np.int64)),
            Column(DataType.FLOAT64, stacked("sample_rate", np.float64)),
            Column(DataType.INT64, stacked("nsamples", np.int64)),
            Column(DataType.INT64, stacked("byte_offset", np.int64)),
            Column(DataType.INT64, stacked("byte_length", np.int64)),
        ],
    )


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """Per-file arrays as one column; a lone file's array is wrapped, not
    copied — an extractor builds it for the mount and nobody else holds it."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def mounted_files_batch(mounted: Sequence[MountedFile]) -> ColumnBatch:
    """Stack mounted files into one D-layout batch (Ei's bulk load path)."""
    dictionary = StringDictionary()
    code_parts = []
    for part in mounted:
        code = dictionary.encode_one(part.uri)
        code_parts.append(np.full(part.num_rows, code, dtype=np.int32))
    if mounted:
        codes = _stack(code_parts)
        record_id = _stack([p.record_id for p in mounted])
        sample_time = _stack([p.sample_time for p in mounted])
        sample_value = _stack([p.sample_value for p in mounted])
    else:
        codes = np.empty(0, dtype=np.int32)
        record_id = np.empty(0, dtype=np.int64)
        sample_time = np.empty(0, dtype=np.int64)
        sample_value = np.empty(0, dtype=np.float64)
    return ColumnBatch(
        ["uri", "record_id", "sample_time", "sample_value"],
        [
            Column(DataType.STRING, codes, dictionary),
            Column(DataType.INT64, record_id),
            Column(DataType.TIMESTAMP, sample_time),
            Column(DataType.FLOAT64, sample_value),
        ],
    )


def mounted_file_batch(part: MountedFile) -> ColumnBatch:
    """One mounted file as a D-layout batch (the ALi mount path)."""
    return mounted_files_batch([part])
