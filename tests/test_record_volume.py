"""Tests for xSEED records, volumes, and header-only scanning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mseed.iohooks import FileSource
from repro.db import Database
from repro.db.errors import (
    CorruptFileError,
    IngestError,
    StaleFileError,
    TruncatedFileError,
)
from repro.db.interval import WHOLE_FILE, overlaps
from repro.ingest import eager_ingest, lazy_ingest_metadata
from repro.ingest.formats import MountRequest, extraction_guard
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed import (
    HEADER_SIZE,
    FileRepository,
    RecordHeader,
    XSeedRecord,
    open_volume,
    read_file_metadata,
    read_files_metadata,
    read_records,
    read_selected_records,
    scan_headers,
    set_volume_io_hook,
    write_volume,
)
from repro.mseed.record import last_sample_offset, sample_time_offsets
from repro.mseed.steim import SteimError, steim_decode
from repro.mseed import volume as volume_module
from repro.mseed.volume import decode_volume, iter_records


def sample_times(record):
    """Per-sample timestamps (µs), materialized the way Ei does."""
    header = record.header
    return header.start_time + sample_time_offsets(header.nsamples, header.sample_rate)


def make_record(seq=0, station="ISK", channel="BHE", start=0, n=100, rate=20.0):
    samples = np.cumsum(np.random.default_rng(seq).integers(-5, 5, n))
    return XSeedRecord.create(
        sequence=seq,
        network="KO",
        station=station,
        location="",
        channel=channel,
        start_time=start,
        sample_rate=rate,
        samples=samples.astype(np.int32),
    )


class TestHeader:
    def test_pack_size(self):
        record = make_record()
        assert len(record.header.pack()) == HEADER_SIZE

    def test_pack_unpack_roundtrip(self):
        header = make_record().header
        assert RecordHeader.unpack(header.pack()) == header

    def test_bad_magic(self):
        raw = bytearray(make_record().header.pack())
        raw[0] = ord("Z")
        with pytest.raises(CorruptFileError):
            RecordHeader.unpack(bytes(raw))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFileError):
            RecordHeader.unpack(b"\x00" * 10)

    def test_bad_magic_carries_context(self):
        raw = bytearray(make_record().header.pack())
        raw[0] = ord("Z")
        with pytest.raises(CorruptFileError) as excinfo:
            RecordHeader.unpack(bytes(raw), uri="a/b.xseed", offset=128)
        assert excinfo.value.uri == "a/b.xseed"
        assert excinfo.value.offset == 128
        assert isinstance(excinfo.value, IngestError)

    @pytest.mark.parametrize("rate", [0.0, float("nan"), -1.0, float("inf")])
    def test_unusable_sample_rate_is_corrupt(self, rate):
        """A rate no timestamp can be derived from is rejected at the header
        — not as a ZeroDivisionError (0.0), int64-min times (NaN, inf) or
        times running backwards (negative) when the file is mounted."""
        header = make_record().header
        raw = RecordHeader(**{**header.__dict__, "sample_rate": rate}).pack()
        with pytest.raises(CorruptFileError) as excinfo:
            RecordHeader.unpack(raw, uri="a/b.xseed", offset=192)
        assert excinfo.value.uri == "a/b.xseed"
        assert excinfo.value.offset == 192

    def test_end_time(self):
        header = make_record(start=1_000_000, n=21, rate=20.0).header
        assert header.end_time == 1_000_000 + 1_000_000  # 20 steps at 20 Hz

    def test_end_time_single_sample(self):
        header = make_record(start=5, n=1).header
        assert header.end_time == 5

    def test_end_time_matches_sample_times(self):
        record = make_record(start=123, n=777, rate=7.3)
        assert record.header.end_time == sample_times(record)[-1]

    @given(
        st.integers(1, 100_000),
        st.floats(0.001, 10_000.0, allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_end_time_boundary_property(self, n, rate):
        """The header's O(1) end-time must agree with the last element of
        the full sample-time grid for every (nsamples, rate) — the two used
        to disagree by 1 µs when the float products rounded differently."""
        offsets = sample_time_offsets(n, rate)
        assert last_sample_offset(n, rate) == offsets[-1]

    def test_identifier_too_long(self):
        with pytest.raises(SteimError):
            make_record(station="TOOLONGNAME").header.pack()

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(["ISK", "AB", "XYZZY"]),
        st.floats(0.01, 1000.0),
        st.integers(0, 10**15),
    )
    @settings(deadline=None, max_examples=40)
    def test_header_roundtrip_property(self, seq, station, rate, start):
        header = RecordHeader(
            sequence=seq,
            network="KO",
            station=station,
            location="00",
            channel="BHZ",
            start_time=start,
            sample_rate=rate,
            nsamples=7,
            encoding=1,
            payload_len=64,
        )
        assert RecordHeader.unpack(header.pack()) == header


class TestRecord:
    def test_roundtrip(self):
        record = make_record(n=250)
        restored = XSeedRecord.unpack(record.pack())
        assert restored.header == record.header
        assert np.array_equal(restored.samples, record.samples)

    def test_sample_times_spacing(self):
        record = make_record(start=0, n=5, rate=2.0)
        assert list(sample_times(record)) == [0, 500000, 1000000, 1500000, 2000000]

    def test_truncated_payload(self):
        raw = make_record().pack()
        with pytest.raises(TruncatedFileError):
            XSeedRecord.unpack(raw[: HEADER_SIZE + 10])

    def test_unknown_encoding(self):
        record = make_record()
        bad_header = RecordHeader(
            **{**record.header.__dict__, "encoding": 99}
        )
        raw = bad_header.pack() + record.payload
        with pytest.raises(CorruptFileError):
            XSeedRecord.unpack(raw)

    def test_corrupt_payload_is_steim_and_ingest_error(self):
        """Payload corruption keeps its historical SteimError class while
        also being catchable as an IngestError (the taxonomy the mount
        service's fail-fast relies on)."""
        record = make_record(n=200)
        raw = bytearray(record.pack())
        raw[HEADER_SIZE + 36] ^= 0xFF
        with pytest.raises(SteimError) as excinfo:
            XSeedRecord.unpack(bytes(raw), uri="x.xseed", offset=0)
        assert isinstance(excinfo.value, IngestError)
        assert isinstance(excinfo.value, CorruptFileError)
        assert excinfo.value.uri == "x.xseed"
        assert excinfo.value.offset == HEADER_SIZE


class TestVolume:
    def volume(self, tmp_path, nrecords=4):
        records = [
            make_record(seq=i, start=i * 5_000_000, n=100)
            for i in range(nrecords)
        ]
        path = tmp_path / "vol.xseed"
        write_volume(path, records)
        return path, records

    def test_write_read_roundtrip(self, tmp_path):
        path, records = self.volume(tmp_path)
        restored = read_records(path)
        assert len(restored) == len(records)
        for a, b in zip(restored, records):
            assert a.header == b.header
            assert np.array_equal(a.samples, b.samples)

    def test_scan_headers_matches_full_read(self, tmp_path):
        path, records = self.volume(tmp_path)
        headers = scan_headers(path)
        assert headers == [r.header for r in records]

    def test_scan_headers_reads_less(self, tmp_path):
        """Header-only scanning must not decode payloads — verified by cost:
        the scan touches 64 bytes per record."""
        records = [
            make_record(seq=i, start=i * 5_000_000, n=2000) for i in range(8)
        ]
        path = tmp_path / "big.xseed"
        write_volume(path, records)
        headers = scan_headers(path)
        header_bytes = len(headers) * HEADER_SIZE
        assert path.stat().st_size > 3 * header_bytes

    def test_iter_records_lazy(self, tmp_path):
        path, _ = self.volume(tmp_path)
        iterator = iter_records(path)
        first = next(iterator)
        assert first.header.sequence == 0

    def test_truncated_volume(self, tmp_path):
        path, _ = self.volume(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedFileError):
            read_records(path)

    def test_truncated_volume_detected_by_header_scan(self, tmp_path):
        """scan_headers seeks over payloads, but still must notice the last
        record's payload runs past end-of-file."""
        path, _ = self.volume(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedFileError):
            scan_headers(path)

    def test_file_metadata_aggregates(self, tmp_path):
        path, records = self.volume(tmp_path)
        meta, headers = read_file_metadata(path)
        assert meta.nrecords == len(records)
        assert meta.nsamples == sum(r.header.nsamples for r in records)
        assert meta.start_time == records[0].header.start_time
        assert meta.end_time == records[-1].header.end_time
        assert meta.station == "ISK"
        assert meta.size_bytes == path.stat().st_size

    def test_empty_volume_metadata_raises(self, tmp_path):
        path = tmp_path / "empty.xseed"
        path.write_bytes(b"")
        with pytest.raises(CorruptFileError):
            read_file_metadata(path)

    def test_write_returns_bytes(self, tmp_path):
        path = tmp_path / "v.xseed"
        written = write_volume(path, [make_record()])
        assert written == path.stat().st_size


def _flip_payload_bit(raw, offset):
    raw[offset + HEADER_SIZE + 20] ^= 0x10


def _unknown_encoding(raw, offset):
    raw[offset + 40:offset + 42] = (9).to_bytes(2, "big")


def _bad_magic(raw, offset):
    raw[offset] = ord("Z")


def _zeroed_sample_rate(raw, offset):
    raw[offset + 28:offset + 36] = bytes(8)


def _cut_mid_payload(raw, offset):
    del raw[offset + HEADER_SIZE + 30:]


class TestFileAtATimeMount:
    """Mounting decodes a file in one kernel call and fills whole columns;
    the record-at-a-time API (``read_records``) is the oracle for both the
    columns and the error a defective record raises."""

    URI = "KO/ISK/vol.xseed"

    def volume(self, tmp_path, shapes):
        records, start = [], 1_000_000
        for seq, (n, rate) in enumerate(shapes):
            records.append(make_record(seq=seq, start=start, n=n, rate=rate))
            start += 60_000_000
        path = tmp_path / "vol.xseed"
        write_volume(path, records)
        return path

    def mounts(self, path):
        """The three extraction paths, each selecting every record (the
        byte map is taken now, so later damage to the file is not in it)."""
        extractor = XSeedExtractor()
        byte_map = extractor.extract_metadata(FileSource(path, self.URI)).records.spans()

        def selective(records):
            request = MountRequest(interval=WHOLE_FILE, records=records)
            return extractor.mount_selective(FileSource(path, self.URI), request).mounted

        return {
            "mount": lambda: extractor.mount(FileSource(path, self.URI)),
            "byte map": lambda: selective(byte_map),
            "header walk": lambda: selective(None),
        }

    def test_columns_equal_record_api(self, tmp_path):
        # Repeated and distinct (nsamples, rate) shapes, lengths that leave
        # pad deltas, and a record with no samples at all.
        shapes = [(100, 20.0), (37, 20.0), (100, 20.0), (0, 20.0), (5, 7.3)]
        path = self.volume(tmp_path, shapes)
        records = read_records(path)
        for name, mount in self.mounts(path).items():
            mounted = mount()
            assert mounted.record_id.tolist() == [
                i for i, r in enumerate(records) for _ in r.samples
            ], name
            assert mounted.sample_time.tolist() == [
                t for r in records for t in sample_times(r).tolist()
            ], name
            assert mounted.sample_value.tolist() == [
                float(v) for r in records for v in r.samples
            ], name
            assert mounted.record_id.dtype == np.int64
            assert mounted.sample_time.dtype == np.int64
            assert mounted.sample_value.dtype == np.float64

    @pytest.mark.parametrize(
        "damage",
        [_flip_payload_bit, _unknown_encoding, _bad_magic,
         _zeroed_sample_rate, _cut_mid_payload],
    )
    def test_one_defect_raises_what_the_record_api_raises(
        self, tmp_path, damage
    ):
        path = self.volume(tmp_path, [(100, 20.0)] * 5)
        mounts = self.mounts(path)
        records = XSeedExtractor().extract_metadata(FileSource(path, self.URI)).records
        raw = bytearray(path.read_bytes())
        damage(raw, int(records.byte_offset[3]))
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestError) as expected:
            read_records(path, self.URI)
        for name, mount in mounts.items():
            if name == "byte map" and damage is _cut_mid_payload:
                continue  # checked against the file size before any read
            with pytest.raises(IngestError) as excinfo:
                mount()
            assert type(excinfo.value) is type(expected.value), name
            assert excinfo.value.uri == expected.value.uri == self.URI
            assert excinfo.value.offset == expected.value.offset, name

    def test_whole_file_is_one_kernel_call(self, tmp_path, monkeypatch):
        path = self.volume(tmp_path, [(100, 20.0)] * 24)
        calls = []

        def counting(data, counts, *args, **kwargs):
            calls.append(len(counts))
            return steim_decode(data, counts, *args, **kwargs)

        monkeypatch.setattr(volume_module, "steim_decode", counting)
        for name, mount in self.mounts(path).items():
            del calls[:]
            assert mount().num_rows == 2400
            assert calls == [24], name

    def test_a_sound_mount_builds_no_record_header(self, tmp_path, monkeypatch):
        """The scalar parser is the error oracle only: a mount that finds
        nothing wrong parses every header in one vector pass."""
        path = self.volume(tmp_path, [(100, 20.0), (0, 20.0), (37, 7.3)] * 4)
        mounts = self.mounts(path)
        expected = {name: mount().sample_value.tolist() for name, mount in mounts.items()}

        def refused(*args, **kwargs):
            raise AssertionError("RecordHeader.unpack on a sound mount")

        monkeypatch.setattr(RecordHeader, "unpack", refused)
        for name, mount in mounts.items():
            assert mount().sample_value.tolist() == expected[name], name
        extracted = XSeedExtractor().extract_metadata(FileSource(path, self.URI))
        spans = extracted.records.spans()
        window = (spans[5].start_time, spans[7].end_time)
        for byte_map in (spans, None):
            read = read_selected_records(
                FileSource(path, self.URI), window, byte_map
            )
            assert read.record_id.tolist() == [5, 6, 7]


def _non_ascii_identifier(raw, offset):
    raw[offset + 11] = 0xE9  # inside the station field


def _overflowing_rate(raw, offset):
    # 1e-13 Hz: a usable rate whose second sample is already past int64 µs.
    raw[offset + 28:offset + 36] = np.float64(1e-13).tobytes()[::-1]


def _short_final_header(raw, offset):
    del raw[offset + 20:]


def reference_scan(path, uri):
    """The record-at-a-time header walk the metadata pass used to be — one
    scalar ``RecordHeader.unpack`` per record as it is read. The oracle for
    what the walk reads and for what a defective file raises."""
    size = path.stat().st_size
    headers, offset = [], 0
    with open_volume(path, uri) as handle:
        while True:
            raw = handle.read(HEADER_SIZE)
            if not raw:
                return headers
            header = RecordHeader.unpack(raw, uri=uri, offset=offset)
            record_end = offset + HEADER_SIZE + header.payload_len
            if record_end > size:
                raise TruncatedFileError(
                    f"record payload truncated: file ends at byte {size}, "
                    f"record needs {record_end}",
                    uri=uri,
                    offset=offset + HEADER_SIZE,
                )
            headers.append(header)
            handle.seek(header.payload_len, 1)
            offset = record_end


_IDENTIFIER_BYTES = st.binary(min_size=12, max_size=12).map(
    lambda raw: bytes(b % 128 for b in raw)
) | st.lists(
    st.sampled_from(b"AZ09 \x00"), min_size=12, max_size=12
).map(bytes)

_RATES = st.sampled_from(
    # 2e6 and 4e6 Hz put (n-1) * step on .5 and .25 µs: half-to-even cases.
    [20.0, 0.02, 7.3, 2e6, 4e6, 1e6 / 1.5, 1e6 / 2.5]
) | st.floats(min_value=1e-3, max_value=1e7)

_HEADER_FIELDS = st.tuples(
    _IDENTIFIER_BYTES,
    st.integers(-(2**40), 2**40),  # start_time
    _RATES,
    st.sampled_from([0, 1]) | st.integers(0, 5000),  # nsamples
    st.integers(0, 200),  # payload_len
)


class TestColumnarMetadataPass:
    """``read_file_metadata`` parses a file's headers in one vectorised pass;
    the scalar parser is its oracle, for values and for errors."""

    URI = "KO/ISK/vol.xseed"

    @settings(max_examples=120, deadline=None)
    @given(fields=st.lists(_HEADER_FIELDS, min_size=1, max_size=12))
    def test_columns_equal_scalar_unpack(self, tmp_path_factory, fields):
        raw = bytearray()
        for seq, (identifiers, start, rate, n, payload_len) in enumerate(fields):
            header = bytearray(
                RecordHeader(
                    seq, "", "", "", "", start, rate, n, 1, payload_len
                ).pack()
            )
            header[8:20] = identifiers
            raw += header + bytes(payload_len)
        path = tmp_path_factory.mktemp("columnar") / "vol.xseed"
        path.write_bytes(bytes(raw))

        headers = reference_scan(path, self.URI)
        meta, columns = read_file_metadata(path, self.URI)
        assert scan_headers(path, self.URI) == headers
        assert columns["start_time"].tolist() == [h.start_time for h in headers]
        assert columns["end_time"].tolist() == [h.end_time for h in headers]
        assert columns["sample_rate"].tolist() == [h.sample_rate for h in headers]
        assert columns["nsamples"].tolist() == [h.nsamples for h in headers]
        lengths = [HEADER_SIZE + h.payload_len for h in headers]
        assert columns["byte_length"].tolist() == lengths
        assert columns["byte_offset"].tolist() == [
            sum(lengths[:i]) for i in range(len(lengths))
        ]
        assert {name: c.dtype for name, c in columns.items()} == {
            "start_time": np.int64, "end_time": np.int64,
            "sample_rate": np.float64, "nsamples": np.int64,
            "byte_offset": np.int64, "byte_length": np.int64,
        }
        first = headers[0]
        assert (meta.network, meta.station, meta.location, meta.channel) == (
            first.network, first.station, first.location, first.channel
        )
        assert meta.start_time == min(h.start_time for h in headers)
        assert meta.end_time == max(h.end_time for h in headers)
        assert meta.nrecords == len(headers)
        assert meta.nsamples == sum(h.nsamples for h in headers)
        assert meta.size_bytes == len(raw)

    @settings(max_examples=80, deadline=None)
    @given(
        defects=st.lists(
            st.tuples(
                st.sampled_from(
                    [_bad_magic, _zeroed_sample_rate, _non_ascii_identifier,
                     _overflowing_rate, _cut_mid_payload, _short_final_header]
                ),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=2,
        )
    )
    def test_first_defect_raises_what_the_scalar_walk_raises(
        self, tmp_path_factory, defects
    ):
        path = tmp_path_factory.mktemp("defects") / "vol.xseed"
        write_volume(
            path,
            [make_record(seq=i, start=i * 60_000_000) for i in range(6)],
        )
        offsets = [0]
        for header in scan_headers(path)[:-1]:
            offsets.append(offsets[-1] + HEADER_SIZE + header.payload_len)
        raw = bytearray(path.read_bytes())
        # Overwrites first, then cuts from the far end of the file inwards,
        # so every defect lands on bytes that are still there.
        cuts = (_cut_mid_payload, _short_final_header)
        for damage, k in sorted(
            defects, key=lambda d: (d[0] in cuts, -d[1])
        ):
            if offsets[k] < len(raw):
                damage(raw, offsets[k])
        path.write_bytes(bytes(raw))

        with pytest.raises(IngestError) as expected:
            reference_scan(path, self.URI)
        for scan in (read_file_metadata, scan_headers):
            with pytest.raises(IngestError) as excinfo:
                scan(path, self.URI)
            assert type(excinfo.value) is type(expected.value)
            assert str(excinfo.value) == str(expected.value)
            assert excinfo.value.offset == expected.value.offset
            assert excinfo.value.uri == self.URI

    @pytest.mark.parametrize(
        "start, n, rate, sound",
        [
            (0, 2, 1e-13, False),  # step 1e19 µs
            (0, 1, 1e-13, True),  # ...but a lone sample has no reach
            (0, 1, 5e-324, True),  # step overflows to inf; still no reach
            (0, 2, 5e-324, False),
            (2**63 - 2 - 3_000_000, 4, 1.0, True),
            (2**63 - 1 - 3_000_000, 4, 1.0, False),  # lands on int64 max
            (-(2**63), 2, 1e-12, True),  # the room is not start-relative
        ],
    )
    def test_last_sample_must_fit_the_timestamp_range(
        self, tmp_path, start, n, rate, sound
    ):
        """A rate can be usable and still put the last sample past int64 µs
        (this used to escape as a raw OverflowError while building ``R``);
        the scalar parser owns the rule and the columnar parse agrees on
        both sides of the boundary."""
        raw = RecordHeader(0, "KO", "ISK", "", "BHE", start, rate, n, 1, 0).pack()
        path = tmp_path / "vol.xseed"
        path.write_bytes(make_record().pack() + raw)
        offset = len(make_record().pack())
        if sound:
            header = RecordHeader.unpack(raw)
            _, columns = read_file_metadata(path, self.URI)
            assert columns["end_time"][1] == header.end_time
            return
        for scan in (read_file_metadata, scan_headers):
            with pytest.raises(CorruptFileError) as excinfo:
                scan(path, self.URI)
            assert excinfo.value.offset == offset
            assert "timestamp range" in str(excinfo.value)

    def test_same_reads_and_seeks_as_the_scalar_walk(self, tmp_path):
        """Seeded fault plans address a file's reads by index, so the
        metadata pass must issue exactly the calls it always did."""
        path = tmp_path / "vol.xseed"
        write_volume(
            path,
            [make_record(seq=i, start=i * 60_000_000, n=50 + 30 * i)
             for i in range(7)],
        )

        class Recorder:
            def wrap(self, path, uri, handle):
                calls.append(("open", uri))
                return _RecordingHandle(handle, calls)

        logs = []
        previous = set_volume_io_hook(Recorder())
        try:
            for scan in (reference_scan, scan_headers, read_file_metadata):
                calls = []
                scan(path, self.URI)
                logs.append(calls)
        finally:
            set_volume_io_hook(previous)
        assert logs[0] == logs[1] == logs[2]
        reads = [call[2] for call in logs[0] if call[0] == "read"]
        assert sum(reads) == 7 * HEADER_SIZE
        assert len(reads) == 8  # the last one finds end-of-file

    def test_size_recorded_is_the_size_the_walk_checked(self, tmp_path):
        """One stat per file: a file that grows right after the walk must
        not get a ``size_bytes`` its recorded records do not add up to."""
        path = tmp_path / "vol.xseed"
        write_volume(path, [make_record(seq=i) for i in range(3)])
        size = path.stat().st_size

        class GrowsOnClose:
            def wrap(self, path, uri, handle):
                return _RecordingHandle(
                    handle, [], on_close=lambda: path.write_bytes(
                        path.read_bytes() + make_record(seq=9).pack()
                    )
                )

        previous = set_volume_io_hook(GrowsOnClose())
        try:
            meta, columns = read_file_metadata(path, self.URI)
        finally:
            set_volume_io_hook(previous)
        assert path.stat().st_size > size
        assert meta.size_bytes == size == int(columns["byte_length"].sum())


class _RecordingHandle:
    """A volume handle that logs every read and seek made through it."""

    def __init__(self, handle, calls, on_close=None):
        self.handle, self.calls, self.on_close = handle, calls, on_close

    def read(self, n=-1):
        data = self.handle.read(n)
        self.calls.append(("read", n, len(data)))
        return data

    def seek(self, offset, whence=0):
        self.calls.append(("seek", offset, whence))
        return self.handle.seek(offset, whence)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()
        if self.on_close is not None:
            self.on_close()


def _nan_rate(raw, offset):
    raw[offset + 28:offset + 36] = np.float64("nan").tobytes()[::-1]


class _FailsToOpen:
    """A volume hook under which one URI's open is an I/O error."""

    def __init__(self, uri):
        self.uri = uri

    def wrap(self, path, uri, handle):
        if uri == self.uri:
            raise OSError(5, "injected I/O error")
        return handle


class TestOneParsePerPass:
    """The metadata pass walks file by file and parses block by block. What
    it reads of each file, and what a defective repository raises, are still
    what a file-at-a-time scalar pass reads and raises."""

    RECORDS = 6

    def repository(self, root, files=5):
        for k in range(files):
            write_volume(
                root / f"f{k}.xseed",
                [make_record(seq=i, start=i * 60_000_000, n=40 + 10 * k)
                 for i in range(self.RECORDS)],
            )
        return FileRepository(root)

    def passes(self, repo):
        """Every way into the pass-wide kernel, outermost first."""
        files = [FileSource(repo.path_of(uri), uri) for uri in repo.uris()]
        return {
            "lazy_ingest_metadata": lambda: lazy_ingest_metadata(Database(), repo),
            "eager_ingest": lambda: eager_ingest(Database(), repo),
            "extract_metadata_many": (
                lambda: XSeedExtractor().extract_metadata_many(files)
            ),
            "read_files_metadata": (
                lambda: read_files_metadata(files, extraction_guard)
            ),
        }

    @staticmethod
    def file_by_file(repo):
        """The oracle: one guarded scalar walk per file, in listing order."""
        for uri in repo.uris():
            path = repo.path_of(uri)
            with extraction_guard(FileSource(path, uri)):
                reference_scan(path, uri)

    @staticmethod
    def damage(repo, uri, defect, record):
        path = repo.path_of(uri)
        extracted = XSeedExtractor().extract_metadata(FileSource(path, uri))
        offsets = extracted.records.byte_offset
        raw = bytearray(path.read_bytes())
        defect(raw, int(offsets[record]))
        path.write_bytes(bytes(raw))

    def test_same_reads_and_seeks_as_the_scalar_walk(self, tmp_path):
        """Per URI the pass issues the calls the scalar walk issues — seeded
        fault plans address a file's reads by index — and opens each file
        once."""
        repo = self.repository(tmp_path)

        class Recorder:
            def wrap(self, path, uri, handle):
                calls = logs.setdefault(uri, [])
                calls.append(("open",))
                return _RecordingHandle(handle, calls)

        previous = set_volume_io_hook(Recorder())
        try:
            logs = {}
            self.file_by_file(repo)
            expected = logs
            for name, run in self.passes(repo).items():
                if name == "eager_ingest":
                    continue  # goes on to mount what it walked
                logs = {}
                run()
                assert logs == expected, name
        finally:
            set_volume_io_hook(previous)
        assert list(expected) == repo.uris()
        for calls in expected.values():
            assert calls.count(("open",)) == 1
            assert len(calls) == 1 + (self.RECORDS + 1) + self.RECORDS

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("parse_first", [True, False])
    @pytest.mark.parametrize(
        "walk_defect",
        [_bad_magic, _cut_mid_payload, _short_final_header, OSError],
    )
    @pytest.mark.parametrize(
        "parse_defect", [_nan_rate, _non_ascii_identifier, _overflowing_rate]
    )
    def test_first_defective_file_decides_the_error(
        self, tmp_path, parse_defect, walk_defect, parse_first
    ):
        """One file fails a check only the parse makes, another one the walk
        itself trips over: whichever comes first in listing order raises, as
        the scalar parser words it."""
        repo = self.repository(tmp_path)
        earlier, later = "f1.xseed", "f3.xseed"
        parsed, walked = (earlier, later) if parse_first else (later, earlier)
        self.damage(repo, parsed, parse_defect, 4)
        hook = None
        if walk_defect is OSError:
            hook = _FailsToOpen(walked)
        else:
            self.damage(repo, walked, walk_defect, 2)

        previous = set_volume_io_hook(hook)
        try:
            with pytest.raises(IngestError) as expected:
                self.file_by_file(repo)
            assert expected.value.uri == earlier
            for name, run in self.passes(repo).items():
                with pytest.raises(IngestError) as excinfo:
                    run()
                self.assert_same_error(excinfo.value, expected.value, name)
        finally:
            set_volume_io_hook(previous)

    @staticmethod
    def assert_same_error(error, expected, name):
        assert type(error) is type(expected), name
        assert str(error) == str(expected), name
        assert (error.uri, error.offset) == (expected.uri, expected.offset), name
        assert error.transient == expected.transient, name
        assert type(error.cause) is type(expected.cause), name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("defective", range(5))
    @pytest.mark.parametrize("defect", [_nan_rate, _bad_magic])
    def test_blocks_parse_in_listing_order(
        self, tmp_path, monkeypatch, defect, defective
    ):
        """Two files fill a block here: a defect in the last file of one
        block, the first of the next or the short block at the end raises
        for that file, and sound blocks come out whole."""
        monkeypatch.setattr(
            volume_module, "_PARSE_BLOCK_HEADERS", 2 * self.RECORDS
        )
        repo = self.repository(tmp_path)
        files = [FileSource(repo.path_of(uri), uri) for uri in repo.uris()]
        parses = []
        parse_walked = volume_module._parse_walked

        def logging_parse(walked, guard):
            parses.append([source.uri for source, *_ in walked])
            return parse_walked(walked, guard)

        monkeypatch.setattr(volume_module, "_parse_walked", logging_parse)

        sound = read_files_metadata(files)
        assert parses == [
            ["f0.xseed", "f1.xseed"], ["f2.xseed", "f3.xseed"], ["f4.xseed"]
        ]
        for source, (meta, columns) in zip(files, sound):
            alone, alone_columns = read_file_metadata(source.path, source.uri)
            assert meta == alone
            for name, column in alone_columns.items():
                assert columns[name].tolist() == column.tolist(), (uri, name)

        self.damage(repo, f"f{defective}.xseed", defect, 3)
        with pytest.raises(IngestError) as expected:
            self.file_by_file(repo)
        assert expected.value.uri == f"f{defective}.xseed"
        for name, run in self.passes(repo).items():
            with pytest.raises(IngestError) as excinfo:
                run()
            self.assert_same_error(excinfo.value, expected.value, name)

    @pytest.mark.parametrize("ingest", [lazy_ingest_metadata, eager_ingest])
    def test_a_uri_that_does_not_resolve_waits_its_turn(self, tmp_path, ingest):
        """URIs are resolved before anything is read, but a file no extractor
        is registered for still fails after the defective file before it."""
        self.repository(tmp_path)
        (tmp_path / "f2.hdf5").write_bytes(b"")
        repo = FileRepository(tmp_path, suffix=(".xseed", ".hdf5"))
        with pytest.raises(IngestError, match="no format extractor"):
            ingest(Database(), repo)
        self.damage(repo, "f1.xseed", _nan_rate, 0)
        with pytest.raises(CorruptFileError, match="sample rate") as excinfo:
            ingest(Database(), repo)
        assert excinfo.value.uri == "f1.xseed"

    def test_an_empty_file_among_many(self, tmp_path):
        repo = self.repository(tmp_path)
        repo.path_of("f2.xseed").write_bytes(b"")
        for name, run in self.passes(repo).items():
            with pytest.raises(CorruptFileError, match="empty volume") as excinfo:
                run()
            assert (excinfo.value.uri, excinfo.value.offset) == ("f2.xseed", 0)


def reference_mount(path, uri, interval=WHOLE_FILE, spans=None):
    """The record-at-a-time mount loops the buffer path replaced: per
    record a header read, a scalar ``RecordHeader.unpack`` and a payload
    read (by byte map, or walking the headers and seeking over the
    payloads a window skips), then one decode. The oracle for the samples a
    mount yields and for the error a defective file raises."""
    size = path.stat().st_size
    chosen = []

    def add(offset, header, payload):
        if len(payload) != header.payload_len:
            raise TruncatedFileError("payload", uri=uri, offset=offset + HEADER_SIZE)
        if header.encoding != 1:
            raise CorruptFileError("encoding", uri=uri, offset=offset)
        chosen.append((offset, header, payload))

    with open(path, "rb") as handle:
        for span in spans or ():
            if not overlaps(interval, span.start_time, span.end_time):
                continue
            if span.byte_offset + span.byte_length > size:
                raise TruncatedFileError("span", uri=uri, offset=span.byte_offset)
            handle.seek(span.byte_offset)
            raw = handle.read(span.byte_length)
            header = RecordHeader.unpack(raw, uri=uri, offset=span.byte_offset)
            if (
                header.start_time != span.start_time
                or HEADER_SIZE + header.payload_len != span.byte_length
            ):
                raise StaleFileError("stale", uri=uri, offset=span.byte_offset)
            add(span.byte_offset, header, raw[HEADER_SIZE:])
        offset = 0
        while spans is None and (header_raw := handle.read(HEADER_SIZE)):
            header = RecordHeader.unpack(header_raw, uri=uri, offset=offset)
            end = offset + HEADER_SIZE + header.payload_len
            if overlaps(interval, header.start_time, header.end_time):
                add(offset, header, handle.read(header.payload_len))
            elif end > size:
                raise TruncatedFileError("skipped", uri=uri, offset=offset + HEADER_SIZE)
            else:
                handle.seek(header.payload_len, 1)
            offset = end
    try:
        return steim_decode(
            [payload for _, _, payload in chosen],
            [header.nsamples for _, header, _ in chosen],
        )
    except SteimError as exc:
        offset = chosen[exc.record][0] + HEADER_SIZE
        raise SteimError(exc.message, uri=uri, offset=offset) from exc


def _frames_not_whole(raw, offset):
    """Ten payload bytes fewer, and a payload length that says so."""
    length = int.from_bytes(raw[offset + 42:offset + 46], "big")
    raw[offset + 42:offset + 46] = (length - 10).to_bytes(4, "big")
    del raw[offset + HEADER_SIZE + length - 10:offset + HEADER_SIZE + length]


def _xn_mismatch(raw, offset):
    raw[offset + HEADER_SIZE + 11] ^= 0x01  # the last sample's low bit


HUMP = 50  # the records' samples climb 0 … HUMP - 1 and come back to 0


def _int32_overflow(raw, offset):
    """x0 and xn lifted together so the hump in the middle of the record
    passes the int32 limit while both constants still match."""
    for at in (offset + HEADER_SIZE + 4, offset + HEADER_SIZE + 8):
        word = int.from_bytes(raw[at:at + 4], "big", signed=True)
        raw[at:at + 4] = (word + 2**31 - HUMP + 1).to_bytes(4, "big", signed=True)


def _start_time_drifted(raw, offset):
    """A sound record whose start moved: only a byte map notices."""
    start = int.from_bytes(raw[offset + 20:offset + 28], "big", signed=True)
    raw[offset + 20:offset + 28] = (start + 1).to_bytes(8, "big", signed=True)


MOUNT_DEFECTS = {
    "bad magic": _bad_magic,
    "short header": _short_final_header,
    "truncated payload": _cut_mid_payload,
    "frames not whole": _frames_not_whole,
    "unknown encoding": _unknown_encoding,
    "NaN rate": _nan_rate,
    "xn mismatch": _xn_mismatch,
    "int32 overflow": _int32_overflow,
    "stale byte map": _start_time_drifted,
}


def damaged_volume(path, defects, records=6):
    """``records`` records of one hump each; ``defects`` maps a record index
    to a defect kind. Damage goes in from the far end of the file, so every
    defect lands where the pristine record was. Returns the pristine byte
    map."""
    hump = np.concatenate([np.arange(HUMP), np.arange(HUMP)[::-1]])
    write_volume(path, [
        XSeedRecord.create(i, "KO", "ISK", "", "BHE", i * 60_000_000, 20.0, hump)
        for i in range(records)
    ])
    spans = XSeedExtractor().extract_metadata(FileSource(path, "v")).records.spans()
    raw = bytearray(path.read_bytes())
    for k, kind in sorted(defects.items(), reverse=True):
        if spans[k].byte_offset < len(raw):
            MOUNT_DEFECTS[kind](raw, spans[k].byte_offset)
    path.write_bytes(bytes(raw))
    return spans


def outcome(call):
    try:
        return call()
    except IngestError as exc:
        return exc


def assert_same_outcome(got, expected, label):
    if isinstance(expected, IngestError):
        assert isinstance(got, IngestError), (label, got)
        assert type(got) is type(expected), (label, got, expected)
        assert (got.uri, got.offset) == (expected.uri, expected.offset), (
            label, got, expected,
        )
    else:
        assert not isinstance(got, IngestError), (label, got)
        assert got.samples.tolist() == expected.tolist(), label


class TestBufferMountErrors:
    """Whole-file, byte-map and header-walk mounts raise, for a defect in
    record ``k`` and another one after it, the type, URI and offset the
    record-at-a-time loops raised (:func:`reference_mount`)."""

    URI = "KO/ISK/vol.xseed"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        first=st.sampled_from(sorted(MOUNT_DEFECTS)),
        second=st.sampled_from(sorted(MOUNT_DEFECTS)),
        k=st.integers(0, 4),
        gap=st.integers(1, 5),
        window=st.sampled_from([None, (0, 5), (1, 2), (3, 5)]),
    )
    def test_first_defect_raises_what_the_record_loop_raises(
        self, tmp_path_factory, first, second, k, gap, window
    ):
        path = tmp_path_factory.mktemp("mount") / "vol.xseed"
        defects = {k: first}
        if k + gap < 6:
            defects[k + gap] = second
        spans = damaged_volume(path, defects)
        interval = WHOLE_FILE if window is None else (
            spans[window[0]].start_time, spans[window[1]].end_time
        )
        for label, byte_map in (("byte map", spans), ("header walk", None)):
            expected = outcome(
                lambda: reference_mount(path, self.URI, interval, byte_map)
            )
            got = outcome(lambda: read_selected_records(
                FileSource(path, self.URI), interval, byte_map
            ))
            assert_same_outcome(got, expected, label)
        if window is None:
            expected = outcome(lambda: reference_mount(path, self.URI))
            got = outcome(lambda: decode_volume(FileSource(path, self.URI)))
            assert_same_outcome(got, expected, "whole file")

    @pytest.mark.parametrize("kind", sorted(MOUNT_DEFECTS))
    def test_every_kind_fails_a_byte_map_mount(self, tmp_path, kind):
        """Each defect alone fails the record loop's byte-map mount, so the
        pairs above compare errors, not two clean reads."""
        path = tmp_path / "vol.xseed"
        spans = damaged_volume(path, {2: kind})
        with pytest.raises(IngestError) as expected:
            reference_mount(path, self.URI, WHOLE_FILE, spans)
        with pytest.raises(IngestError) as excinfo:
            read_selected_records(FileSource(path, self.URI), WHOLE_FILE, spans)
        assert_same_outcome(excinfo.value, expected.value, kind)
