"""Corrupt-corpus fuzzing for the resilient mount path.

Systematically damages repository files — truncation around every record
boundary, bit flips in headers vs payloads, bad magic, oversized
payload_len — and checks both degradation policies:

* ``fail`` (fail-fast): the query raises a typed
  :class:`~repro.db.errors.FileIngestError` subclass naming the offending
  URI;
* ``skip`` (skip-and-report): the query completes with exactly the answer
  the intact files give, byte-identical whether a standalone executor
  mounts inline or a query service's 4 workers extract (``workers`` 1 and
  4), and the :class:`~repro.core.MountFailureReport` lists every damaged file.
"""

from __future__ import annotations

import pytest

from repro.mseed.iohooks import FileSource
from repro.core import TwoStageExecutor
from repro.db import Database
from repro.db.errors import (
    CorruptFileError,
    FileIngestError,
    IngestError,
    TruncatedFileError,
)
from repro.db.types import format_timestamp
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed import (
    HEADER_SIZE,
    FileRepository,
    RecordHeader,
    RepositorySpec,
    generate_repository,
    read_file_metadata,
)

from test_record_volume import MOUNT_DEFECTS, reference_mount

SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE",),
    days=2,
    sample_rate=0.05,
    samples_per_record=400,
)

# Where the big-endian float64 sample rate sits in a record header.
SAMPLE_RATE_FIELD = slice(28, 36)

SQL = (
    "SELECT COUNT(*), SUM(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri"
)


@pytest.fixture()
def repo(tmp_path):
    generate_repository(tmp_path, SPEC)
    return FileRepository(tmp_path)


def make_executor(repo, on_error="fail"):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(
        db, RepositoryBinding(repo), on_mount_error=on_error
    )


def record_offsets(raw: bytes) -> list[int]:
    """Byte offset of every record in a pristine volume."""
    offsets, pos = [], 0
    while pos < len(raw):
        header = RecordHeader.unpack(raw[pos: pos + HEADER_SIZE])
        offsets.append(pos)
        pos += HEADER_SIZE + header.payload_len
    return offsets


def expected_over(repo, intact_uris):
    """COUNT(*) the query should yield over just the intact files (the
    corrupted ones can no longer be statted through read_file_metadata)."""
    return sum(
        read_file_metadata(repo.path_of(uri))[0].nsamples
        for uri in intact_uris
    )


class TestTruncationFuzzing:
    def test_truncation_inside_every_record_fails_fast_with_uri(self, repo):
        """Cut the file mid-header and mid-payload of each record: every
        cut must surface as TruncatedFileError naming the file."""
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        pristine = path.read_bytes()
        cut_points = []
        for offset in record_offsets(pristine):
            cut_points.append(offset + 10)  # mid-header
            cut_points.append(offset + HEADER_SIZE + 3)  # mid-payload
        assert len(cut_points) >= 6  # the spec yields multi-record files
        for cut in cut_points:
            # Ingest metadata while the file is healthy; the damage lands
            # between stage 1 and stage 2, where mounting must catch it.
            executor = make_executor(repo)
            path.write_bytes(pristine[:cut])
            with pytest.raises(TruncatedFileError) as excinfo:
                executor.execute(SQL)
            assert excinfo.value.mount_uri == victim
            assert victim in str(excinfo.value)
            path.write_bytes(pristine)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_truncation_skip_and_report(self, repo, workers, engine):
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        pristine = path.read_bytes()
        executor = engine(repo, workers, "skip")
        boundary = record_offsets(pristine)[2]
        path.write_bytes(pristine[: boundary + HEADER_SIZE + 3])

        intact = [u for u in repo.uris() if u != victim]
        outcome = executor.execute(SQL)
        count, total = outcome.rows[0]
        assert count == expected_over(repo, intact)
        report = outcome.mount_failures
        assert report.uris() == [victim]
        assert report.failures[0].error == "TruncatedFileError"
        assert report.failures[0].offset is not None


class TestBitFlips:
    def flip(self, path, offset):
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_header_flip_fails_fast_typed(self, repo):
        """Flip the magic of the second record: CorruptFileError, with the
        record's byte offset."""
        victim = repo.uris()[1]
        path = repo.path_of(victim)
        executor = make_executor(repo)
        second = record_offsets(path.read_bytes())[1]
        self.flip(path, second)
        with pytest.raises(CorruptFileError) as excinfo:
            executor.execute(SQL)
        assert excinfo.value.mount_uri == victim
        assert excinfo.value.offset == second

    def test_payload_flip_fails_fast_typed(self, repo):
        victim = repo.uris()[1]
        path = repo.path_of(victim)
        executor = make_executor(repo)
        self.flip(path, HEADER_SIZE + 36)
        with pytest.raises(IngestError) as excinfo:
            executor.execute(SQL)
        assert isinstance(excinfo.value, FileIngestError)
        assert excinfo.value.mount_uri == victim

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("region", ["header", "payload"])
    def test_bit_flip_skip_and_report(self, repo, workers, region, engine):
        victim = repo.uris()[1]
        path = repo.path_of(victim)
        executor = engine(repo, workers, "skip")
        offset = (
            record_offsets(path.read_bytes())[1]
            if region == "header"
            else HEADER_SIZE + 36
        )
        self.flip(path, offset)
        intact = [u for u in repo.uris() if u != victim]
        outcome = executor.execute(SQL)
        assert outcome.rows[0][0] == expected_over(repo, intact)
        assert outcome.mount_failures.uris() == [victim]


class TestStructuralDamage:
    def oversize_payload_len(self, path):
        """Claim a payload far past end-of-file in the first header."""
        raw = path.read_bytes()
        header = RecordHeader.unpack(raw[:HEADER_SIZE])
        bad = RecordHeader(
            **{**header.__dict__, "payload_len": 1_000_000}
        )
        path.write_bytes(bad.pack() + raw[HEADER_SIZE:])

    def test_oversized_payload_len_fails_fast(self, repo):
        victim = repo.uris()[0]
        executor = make_executor(repo)
        self.oversize_payload_len(repo.path_of(victim))
        with pytest.raises(TruncatedFileError) as excinfo:
            executor.execute(SQL)
        assert excinfo.value.mount_uri == victim

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_corruption_skip_reports_every_victim(self, repo, workers, engine):
        """k corrupt files of N: the answer is exact over the N-k intact
        files and the report lists all k, whatever the worker count."""
        uris = repo.uris()
        truncated, rateless, oversized = uris[0], uris[1], uris[2]
        executor = engine(repo, workers, "skip")
        path = repo.path_of(truncated)
        path.write_bytes(path.read_bytes()[:-16])
        self.oversize_payload_len(repo.path_of(oversized))
        # A zeroed sample rate used to escape as a ZeroDivisionError, which
        # skip mode cannot absorb; it is header corruption like any other.
        path = repo.path_of(rateless)
        raw = bytearray(path.read_bytes())
        raw[SAMPLE_RATE_FIELD] = bytes(8)
        path.write_bytes(bytes(raw))

        victims = (truncated, rateless, oversized)
        intact = [u for u in uris if u not in victims]
        outcome = executor.execute(SQL)
        count, total = outcome.rows[0]
        assert count == expected_over(repo, intact)
        report = outcome.mount_failures
        assert sorted(report.uris()) == sorted(victims)
        assert {f.uri: f.error for f in report.failures} == {
            truncated: "TruncatedFileError",
            rateless: "CorruptFileError",
            oversized: "TruncatedFileError",
        }


# A window inside the first record only: with SPEC above each record spans
# ~2.2 hours, so this selects record 0 and skips every later record of every
# file of interest.
NARROW_SQL = (
    "SELECT COUNT(*), SUM(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time >= '2010-01-10T00:10:00.000' "
    "AND D.sample_time < '2010-01-10T01:10:00.000'"
)


class TestSelectiveMountingUnderDamage:
    """Selective mounting must not *weaken* corruption detection for the
    records a query touches — and damage inside records it skips must not
    fail a query that never reads them."""

    def test_damage_in_skipped_record_does_not_fail_narrow_query(self, repo):
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        executor = make_executor(repo)
        expected = executor.execute(NARROW_SQL).rows

        # Flip a payload byte deep in the file — inside a record the narrow
        # window skips. Selective extraction never reads those bytes.
        raw = bytearray(path.read_bytes())
        last_offset = record_offsets(bytes(raw))[-1]
        raw[last_offset + HEADER_SIZE + 5] ^= 0xFF
        path.write_bytes(bytes(raw))

        damaged = make_executor(repo)
        result = damaged.execute(NARROW_SQL)
        assert result.rows == expected
        assert result.trace.counters["records_skipped"] > 0

    def test_truncated_tail_record_does_not_fail_narrow_query(self, repo):
        """Truncation confined to the (skipped) last record: the byte map
        seeks only to overlapping records, so the query still answers."""
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        executor = make_executor(repo)
        expected = executor.execute(NARROW_SQL).rows

        # Metadata was ingested while the file was healthy; the truncation
        # lands after stage 1, confined to a record the window never reads.
        pristine = path.read_bytes()
        last_offset = record_offsets(pristine)[-1]
        path.write_bytes(pristine[: last_offset + HEADER_SIZE + 3])

        assert executor.execute(NARROW_SQL).rows == expected

    def test_damage_in_touched_record_still_detected(self, repo):
        """Selectivity must not skip validation of what it does read."""
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 8] ^= 0xFF  # first record's payload: it IS read
        path.write_bytes(bytes(raw))

        executor = make_executor(repo)
        with pytest.raises(FileIngestError) as excinfo:
            executor.execute(NARROW_SQL)
        assert excinfo.value.mount_uri == victim

    @pytest.mark.parametrize("workers", [1, 4])
    def test_skip_mode_answers_from_intact_records(self, repo, workers, engine):
        """skip-and-report with selective mounting: a file damaged in its
        touched record is quarantined, the rest still answer."""
        victim = repo.uris()[0]
        path = repo.path_of(victim)
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 8] ^= 0xFF
        path.write_bytes(bytes(raw))

        executor = engine(repo, workers, "skip")
        result = executor.execute(NARROW_SQL)
        assert result.mount_failures.uris() == [victim]
        assert result.rows[0][0] > 0  # intact files still contributed


class TestWorkerEquivalence:
    def test_skip_results_identical_across_worker_counts(self, repo, engine):
        """The degraded answer must be byte-identical for inline and
        service-parallel mounting — skipped branches do not perturb plan
        order."""
        victim = repo.uris()[1]
        path = repo.path_of(victim)
        serial_executor = make_executor(repo, "skip")
        parallel_executor = engine(repo, 4, "skip")
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 36] ^= 0xFF
        path.write_bytes(bytes(raw))

        serial = serial_executor.execute(SQL)
        parallel = parallel_executor.execute(SQL)
        assert serial.rows == parallel.rows
        assert (
            serial.mount_failures.uris()
            == parallel.mount_failures.uris()
        )


class TestFirstDefectThroughTheMountPath:
    """Two defects in one file, the second in a later record: a fail-fast
    query raises the type, URI and offset the record-at-a-time mount loop
    raises (``reference_mount``), mounting the file whole or selecting its
    records by byte map. (``int32 overflow`` needs records shaped for it:
    ``tests/test_record_volume.py`` covers it with the rest.)"""

    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize(
        "first", sorted(set(MOUNT_DEFECTS) - {"int32 overflow"})
    )
    def test_first_defect_decides_the_error(self, repo, selective, first):
        victim = repo.uris()[1]
        path = repo.path_of(victim)
        extracted = XSeedExtractor().extract_metadata(FileSource(path, victim))
        spans = extracted.records.spans()
        window = (spans[1].start_time, spans[5].end_time)
        sql = SQL + (
            f" WHERE D.sample_time >= '{format_timestamp(window[0])}'"
            f" AND D.sample_time <= '{format_timestamp(window[1])}'"
            if selective else ""
        )
        executor = make_executor(repo)  # metadata of the sound file
        raw = bytearray(path.read_bytes())
        MOUNT_DEFECTS["bad magic"](raw, spans[4].byte_offset)
        MOUNT_DEFECTS[first](raw, spans[2].byte_offset)
        path.write_bytes(bytes(raw))

        with pytest.raises(IngestError) as expected:
            if selective:
                reference_mount(path, victim, window, spans)
            else:
                reference_mount(path, victim)
        with pytest.raises(FileIngestError) as excinfo:
            executor.execute(sql)
        assert type(excinfo.value) is type(expected.value)
        assert excinfo.value.mount_uri == victim
        assert excinfo.value.offset == expected.value.offset
        assert (executor.totals()["selective_mounts"] > 0) == selective
