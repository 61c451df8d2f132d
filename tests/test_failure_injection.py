"""Failure injection: corrupt files, missing files, stale caches.

A system whose second stage reads external files must fail loudly and
cleanly when the repository misbehaves — and the paper's discard-by-default
cache exists precisely because files change underneath the database.
"""

import pytest

from repro.core import PER_FILE, CachePolicy, IngestionCache, TwoStageExecutor
from repro.db import Database
from repro.db.errors import IngestError, TruncatedFileError
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    XSeedRecord,
    generate_repository,
    write_volume,
)
from repro.mseed.steim import SteimError
from repro.testing.oracle import ConfigPoint, FaultScript, run, verdicts

SPEC = RepositorySpec(
    stations=("ISK",),
    channels=("BHE",),
    days=2,
    sample_rate=0.02,
    samples_per_record=500,
)

COUNT_SQL = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'"


@pytest.fixture()
def repo(tmp_path):
    generate_repository(tmp_path, SPEC)
    return FileRepository(tmp_path)


@pytest.fixture()
def executor(repo):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(db, RepositoryBinding(repo))


class TestCorruptFiles:
    def test_truncated_file_fails_cleanly(self, repo, executor):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        path.write_bytes(path.read_bytes()[:-32])
        with pytest.raises(TruncatedFileError) as excinfo:
            executor.execute(COUNT_SQL)
        assert excinfo.value.uri == uri

    def test_flipped_payload_detected(self, repo, executor):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF  # inside the first payload
        path.write_bytes(bytes(raw))
        with pytest.raises(SteimError):
            executor.execute(COUNT_SQL)

    def test_deleted_file_raises_ingest_error(self, repo, executor):
        uri = repo.uris()[0]
        repo.path_of(uri).unlink()
        with pytest.raises(IngestError):
            executor.execute(COUNT_SQL)

    def test_metadata_queries_survive_corruption(self, repo, executor):
        """Stage 1 never touches payloads, so metadata queries still work
        even when every payload is garbage."""
        for uri in repo.uris():
            path = repo.path_of(uri)
            raw = bytearray(path.read_bytes())
            for i in range(64, len(raw)):
                raw[i] = 0xAA
            path.write_bytes(bytes(raw))
        result = executor.execute("SELECT COUNT(*) FROM F")
        assert result.rows[0][0] == len(repo.uris())


class TestParallelMountFailures:
    """Worker failures must match serial diagnostics: the first error
    cancels outstanding mounts and surfaces with the offending file URI."""

    PAR_SPEC = RepositorySpec(
        stations=("ISK", "ANK"),
        channels=("BHE", "BHN"),
        days=2,
        sample_rate=0.02,
        samples_per_record=500,
    )

    ALL_SQL = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"

    @pytest.fixture()
    def par_repo(self, tmp_path):
        generate_repository(tmp_path, self.PAR_SPEC)
        return FileRepository(tmp_path)

    def _executor(self, repo, workers=4):
        db = Database()
        lazy_ingest_metadata(db, repo)
        return TwoStageExecutor(
            db, RepositoryBinding(repo), mount_workers=workers
        )

    def test_deleted_file_mid_query_cancels_and_names_uri(
        self, reference, tmp_path
    ):
        # The file goes after the metadata load; the engine works after.
        count = "SELECT COUNT(*) FROM F"
        reached = run(
            reference, [count, self.ALL_SQL, count], tmp_path,
            ConfigPoint(mount_workers=4), FaultScript(events=(("delete", 3),)),
        )
        assert verdicts(reached) == ["rows", "typed error", "rows"]

    def test_corrupt_payload_raises_same_error_as_serial(self, par_repo):
        victim = par_repo.uris()[2]
        path = par_repo.path_of(victim)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SteimError) as serial_exc:
            self._executor(par_repo, workers=1).execute(self.ALL_SQL)
        with pytest.raises(SteimError) as parallel_exc:
            self._executor(par_repo, workers=4).execute(self.ALL_SQL)
        assert type(parallel_exc.value) is type(serial_exc.value)
        assert parallel_exc.value.mount_uri == victim
        assert serial_exc.value.mount_uri == victim

    def test_failure_in_per_file_strategy(self, reference, tmp_path):
        reached = run(
            reference, ["SELECT COUNT(*) FROM F", self.ALL_SQL], tmp_path,
            ConfigPoint(mount_workers=4, strategy=PER_FILE),
            FaultScript(events=(("delete", 1),)),
        )
        assert verdicts(reached) == ["rows", "typed error"]


class TestFreshness:
    def test_discard_policy_sees_updated_file(self, repo, tmp_path):
        """The paper: "the chosen approach inherently ensures up-to-date
        data". Rewrite a file between queries; without caching the second
        query reflects the new contents."""
        db = Database()
        lazy_ingest_metadata(db, repo)
        executor = TwoStageExecutor(
            db, RepositoryBinding(repo),
            cache=IngestionCache(CachePolicy.DISCARD),
        )
        sql = (
            "SELECT MAX(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'"
        )
        before = executor.execute(sql).rows[0][0]

        # Replace one file's samples with a huge spike (same metadata shape).
        uri = repo.uris()[0]
        from repro.mseed.volume import read_records

        records = read_records(repo.path_of(uri))
        spiked = []
        for record in records:
            samples = record.samples.copy()
            samples[0] = 10**9
            spiked.append(
                XSeedRecord.create(
                    sequence=record.header.sequence,
                    network=record.header.network,
                    station=record.header.station,
                    location=record.header.location,
                    channel=record.header.channel,
                    start_time=record.header.start_time,
                    sample_rate=record.header.sample_rate,
                    samples=samples,
                )
            )
        write_volume(repo.path_of(uri), spiked)

        after = executor.execute(sql).rows[0][0]
        assert after == 10**9
        assert after != before

    @staticmethod
    def _spike_first_sample(repo, uri):
        """Rewrite one file with its first sample replaced by a huge spike."""
        from repro.mseed.volume import read_records

        records = read_records(repo.path_of(uri))
        samples = records[0].samples.copy()
        samples[0] = 10**9
        records[0] = XSeedRecord.create(
            sequence=0,
            network=records[0].header.network,
            station=records[0].header.station,
            location=records[0].header.location,
            channel=records[0].header.channel,
            start_time=records[0].header.start_time,
            sample_rate=records[0].header.sample_rate,
            samples=samples,
        )
        write_volume(repo.path_of(uri), records)

    def test_rewritten_file_invalidates_cache_and_remounts(self, repo):
        """A retained cache entry must not hide an on-disk rewrite: the
        cache-scan compares the stored (mtime_ns, size) signature and falls
        back to a fresh mount when the file changed."""
        db = Database()
        lazy_ingest_metadata(db, repo)
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        executor = TwoStageExecutor(db, RepositoryBinding(repo), cache=cache)
        sql = (
            "SELECT MAX(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'"
        )
        before = executor.execute(sql).rows[0][0]
        assert before != 10**9

        uri = repo.uris()[0]
        self._spike_first_sample(repo, uri)

        fresh = executor.execute(sql).rows[0][0]
        assert fresh == 10**9  # no stale rows served
        assert executor.mounts.stats.stale_remounts >= 1
        assert cache.stats.invalidations >= 1

        # The remount re-populated the cache with the new contents.
        again = executor.execute(sql).rows[0][0]
        assert again == 10**9

    def test_stale_cache_serves_old_data_with_validation_off(self, repo):
        """Disabling staleness validation restores the historical trade-off:
        the unbounded cache serves stale rows until invalidated by hand."""
        db = Database()
        lazy_ingest_metadata(db, repo)
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        executor = TwoStageExecutor(db, RepositoryBinding(repo), cache=cache)
        executor.mounts.validate_staleness = False
        sql = (
            "SELECT MAX(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'"
        )
        before = executor.execute(sql).rows[0][0]

        uri = repo.uris()[0]
        self._spike_first_sample(repo, uri)

        stale = executor.execute(sql).rows[0][0]
        assert stale == before  # cache hid the update

        cache.invalidate(uri)
        fresh = executor.execute(sql).rows[0][0]
        assert fresh == 10**9
