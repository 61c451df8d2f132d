"""`repro.mseed` — the scientific file repository substrate.

The paper evaluates on mini-SEED seismic waveform files from the ORFEUS
repository. This package provides the synthetic equivalent: "xSEED", an
mSEED-style binary record format with fixed 64-byte headers and Steim1-style
delta-compressed int32 payloads, a deterministic waveform synthesizer, and a
file-repository abstraction. The properties the experiments rely on hold by
construction: headers (metadata) are tiny and readable without touching the
payload; payloads (actual data) are large and compressed.
"""

from .iohooks import VolumeIoHook, open_volume, set_volume_io_hook
from .record import RecordHeader, XSeedRecord, HEADER_SIZE
from .repository import FileRepository
from .steim import steim_decode, steim_encode, SteimError
from .synthesize import RepositorySpec, WaveformSpec, generate_repository, synthesize_waveform
from .volume import (
    SelectiveRead,
    read_file_metadata,
    read_files_metadata,
    read_records,
    read_selected_records,
    read_volume,
    scan_headers,
    write_volume,
)

__all__ = [
    "RecordHeader",
    "XSeedRecord",
    "HEADER_SIZE",
    "FileRepository",
    "steim_encode",
    "steim_decode",
    "SteimError",
    "RepositorySpec",
    "WaveformSpec",
    "generate_repository",
    "synthesize_waveform",
    "write_volume",
    "read_volume",
    "read_records",
    "read_selected_records",
    "read_file_metadata",
    "read_files_metadata",
    "scan_headers",
    "SelectiveRead",
    "VolumeIoHook",
    "open_volume",
    "set_volume_io_hook",
]
