"""Tests for xSEED records, volumes, and header-only scanning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.errors import CorruptFileError, IngestError, TruncatedFileError
from repro.db.interval import WHOLE_FILE
from repro.ingest.formats import MountRequest, spans_from_record_rows
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed import (
    HEADER_SIZE,
    RecordHeader,
    XSeedRecord,
    read_file_metadata,
    read_records,
    scan_headers,
    write_volume,
)
from repro.mseed.record import last_sample_offset, sample_time_offsets
from repro.mseed.steim import SteimError, steim_decode
from repro.mseed import volume as volume_module
from repro.mseed.volume import iter_records


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
        assert record.header.end_time == record.sample_times()[-1]

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
        assert list(record.sample_times()) == [0, 500000, 1000000, 1500000, 2000000]

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
        rows = extractor.extract_metadata(path, self.URI).record_rows
        byte_map = spans_from_record_rows(rows)

        def selective(records):
            request = MountRequest(interval=WHOLE_FILE, records=records)
            return extractor.mount_selective(path, self.URI, request).mounted

        return {
            "mount": lambda: extractor.mount(path, self.URI),
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
                t for r in records for t in r.sample_times().tolist()
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
        rows = XSeedExtractor().extract_metadata(path, self.URI).record_rows
        raw = bytearray(path.read_bytes())
        damage(raw, rows[3].byte_offset)
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

        def counting(payloads, counts):
            calls.append(len(payloads))
            return steim_decode(payloads, counts)

        monkeypatch.setattr(volume_module, "steim_decode", counting)
        for name, mount in self.mounts(path).items():
            del calls[:]
            assert mount().num_rows == 2400
            assert calls == [24], name
