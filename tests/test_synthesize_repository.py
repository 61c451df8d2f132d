"""Tests for waveform synthesis and the repository abstraction."""

import numpy as np
import pytest

from repro.db.errors import IngestError
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    WaveformSpec,
    generate_repository,
    read_file_metadata,
    synthesize_waveform,
)
from repro.mseed.synthesize import build_records, day_of_year, file_relpath


SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE",),
    days=2,
    sample_rate=0.02,
    samples_per_record=600,
)


class TestSynthesizeWaveform:
    def test_deterministic_under_rng_seed(self):
        spec = WaveformSpec()
        a = synthesize_waveform(np.random.default_rng(5), 2000, 1.0, spec)
        b = synthesize_waveform(np.random.default_rng(5), 2000, 1.0, spec)
        assert np.array_equal(a, b)

    def test_int32_and_bounded(self):
        wave = synthesize_waveform(
            np.random.default_rng(0), 5000, 1.0, WaveformSpec()
        )
        assert wave.dtype == np.int32
        assert np.abs(wave.astype(np.int64)).max() <= 2**30

    def test_events_add_energy(self):
        quiet = WaveformSpec(events_per_hour=0.0)
        busy = WaveformSpec(events_per_hour=50.0)
        rng_q = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        wave_q = synthesize_waveform(rng_q, 7200, 1.0, quiet)
        wave_b = synthesize_waveform(rng_b, 7200, 1.0, busy)
        assert wave_b.astype(np.float64).std() > 2 * wave_q.astype(np.float64).std()


class TestBuildRecords:
    def test_deterministic_per_identity(self):
        a = build_records(SPEC, "ISK", "BHE", 0)
        b = build_records(SPEC, "ISK", "BHE", 0)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.header == rb.header
            assert np.array_equal(ra.samples, rb.samples)

    def test_different_identities_differ(self):
        a = build_records(SPEC, "ISK", "BHE", 0)
        b = build_records(SPEC, "ANK", "BHE", 0)
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_record_chunking(self):
        records = build_records(SPEC, "ISK", "BHE", 0)
        total = int(86_400 * SPEC.sample_rate)
        assert sum(r.header.nsamples for r in records) == total
        assert all(
            r.header.nsamples == SPEC.samples_per_record for r in records[:-1]
        )

    def test_record_times_contiguous(self):
        records = build_records(SPEC, "ISK", "BHE", 0)
        step = 1_000_000 / SPEC.sample_rate
        for prev, nxt in zip(records, records[1:]):
            assert nxt.header.start_time == prev.header.end_time + step

    def test_day_of_year(self):
        assert day_of_year("2010-01-10", 0) == (2010, 10)
        assert day_of_year("2010-12-31", 1) == (2011, 1)

    def test_file_relpath_layout(self):
        rel = file_relpath(SPEC, "ISK", "BHE", 0)
        assert rel == "2010/KO.ISK/KO.ISK..BHE.2010.010.xseed"


class TestRepository:
    @pytest.fixture(scope="class")
    def repo(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("repo")
        generate_repository(root, SPEC)
        return FileRepository(root)

    def test_file_count(self, repo):
        assert len(repo) == SPEC.file_count == 4

    def test_uris_sorted_and_relative(self, repo):
        uris = repo.uris()
        assert uris == sorted(uris)
        assert all(not u.startswith("/") for u in uris)

    def test_path_of_roundtrip(self, repo):
        uri = repo.uris()[0]
        meta, _ = read_file_metadata(repo.path_of(uri))
        assert meta.station in SPEC.stations

    def test_unknown_uri(self, repo):
        with pytest.raises(IngestError):
            repo.path_of("2010/XX.YY/nothing.xseed")

    def test_escaping_uri_rejected(self, repo):
        """Containment is checked per URI against the root resolved once at
        construction: neither ``..`` nor a symlink inside the root reaches a
        file outside it, through either resolving method."""
        outside = repo.root.parent / "outside.xseed"
        outside.write_bytes(b"not yours")
        link = repo.root / "2010" / "link.xseed"
        link.symlink_to(outside)
        try:
            for uri in ("../outside.xseed", "2010/link.xseed"):
                for resolve in (repo.path_of, repo.signature_of):
                    with pytest.raises(IngestError, match="escapes"):
                        resolve(uri)
        finally:
            link.unlink()
            outside.unlink()

    def test_symlinked_root_still_contains_its_files(self, repo, tmp_path):
        alias = tmp_path / "alias"
        alias.symlink_to(repo.root, target_is_directory=True)
        aliased = FileRepository(alias)
        uri = aliased.uris()[0]
        assert aliased.path_of(uri) == repo.path_of(uri)
        assert aliased.signature_of(uri) == repo.signature_of(uri)

    def test_total_bytes(self, repo):
        total = repo.total_bytes()
        assert total == sum(repo.size_of(u) for u in repo.uris())
        assert total > 0

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            FileRepository(tmp_path / "missing")

    def test_iteration(self, repo):
        assert list(iter(repo)) == repo.uris()
