"""Persistent metastore durability: round-trip, staleness, corruption.

The contract under test is §5's "cheaper, never wronger": a warm session
that loads the sidecar must produce exactly the rows a live header walk
would, and *every* failure mode of the sidecar — missing, corrupt,
truncated mid-read, version-skewed, or stale against the files on disk —
must degrade to live ingest, not to wrong answers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import MetadataStore, TwoStageExecutor
from repro.core.metastore import METASTORE_VERSION
from repro.db import Database
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import (
    HEADER_SIZE,
    FileRepository,
    RepositorySpec,
    generate_repository,
    scan_headers,
)
from repro.testing.faults import SHORT_READ, FaultPlan, FaultSpec

SPEC = RepositorySpec(
    stations=("ISK",),
    channels=("BHE", "BHZ"),
    days=1,
    sample_rate=0.05,
    samples_per_record=500,
)

QUERY = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time >= '2010-01-10T06:00:00.000' "
    "AND D.sample_time < '2010-01-10T09:00:00.000'"
)


@pytest.fixture()
def repo(tmp_path) -> FileRepository:
    """A private two-file repository (the sidecar mutates the root)."""
    generate_repository(tmp_path, SPEC)
    return FileRepository(tmp_path)


def _ingest(repo, metastore=None):
    db = Database()
    report = lazy_ingest_metadata(db, repo, metastore=metastore)
    return db, report


def _signature(repo, uri):
    st = os.stat(repo.path_of(uri))
    return (st.st_mtime_ns, st.st_size)


def _table_rows(db, name):
    return db.catalog.table(name).batch.rows()


def _answer(db, repo):
    executor = TwoStageExecutor(
        db, RepositoryBinding(repo), selective_mounts=True
    )
    return executor.execute(QUERY).rows


class TestRoundTrip:
    def test_warm_session_rows_identical(self, repo):
        store = MetadataStore.for_repository(repo.root)
        cold_db, cold_report = _ingest(repo, store)
        assert cold_report.files_reused == 0
        assert store.stats.saved_files == SPEC.file_count

        warm_store = MetadataStore.for_repository(repo.root)
        assert warm_store.load() == SPEC.file_count
        warm_db, warm_report = _ingest(repo, warm_store)
        assert warm_report.files_reused == SPEC.file_count
        assert warm_store.stats.hits == SPEC.file_count

        for table in ("F", "R"):
            assert _table_rows(warm_db, table) == _table_rows(cold_db, table)
        assert _answer(warm_db, repo) == _answer(cold_db, repo)

    def test_record_byte_map_survives(self, repo):
        """Selective mounting depends on the persisted offsets/lengths."""
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        warm = MetadataStore.for_repository(repo.root)
        warm.load()
        for uri in repo.uris():
            st = os.stat(repo.path_of(uri))
            state = warm.lookup(uri, (st.st_mtime_ns, st.st_size))
            assert state is not None
            assert len(state.records) == state.file_row.nrecords
            assert (state.records.byte_offset >= 0).all()
            assert (state.records.byte_length > 0).all()

    def test_sidecar_layout_unchanged_by_columnar_records(self, repo):
        """A sidecar written before record metadata went columnar — one
        positional row per record, assembled here from ``scan_headers`` the
        way the old store did — is what this store writes, byte for byte,
        and loads to the ``R`` a live header walk builds."""
        files = {}
        for uri in repo.uris():
            path = repo.path_of(uri)
            headers = scan_headers(path)
            st = os.stat(path)
            records, offset = [], 0
            for i, h in enumerate(headers):
                length = HEADER_SIZE + h.payload_len
                records.append([i, h.start_time, h.end_time, h.sample_rate,
                                h.nsamples, offset, length])
                offset += length
            first = headers[0]
            files[uri] = {
                "signature": [st.st_mtime_ns, st.st_size],
                "file": [first.network, first.station, first.location,
                         first.channel, min(r[1] for r in records),
                         max(r[2] for r in records), len(records),
                         sum(h.nsamples for h in headers), st.st_size],
                "records": records,
            }
        legacy = json.dumps(
            {
                "version": METASTORE_VERSION,
                "files": files,
                "table_rows": {"f": len(files), "r": sum(
                    len(f["records"]) for f in files.values()
                )},
            },
            separators=(",", ":"),
        ).encode("utf-8")

        store = MetadataStore.for_repository(repo.root)
        live_db, _ = _ingest(repo, store)
        assert store.path.read_bytes() == legacy

        store.path.write_bytes(legacy)
        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == SPEC.file_count
        warm_db, report = _ingest(repo, warm)
        assert report.files_reused == SPEC.file_count
        live, loaded = (
            db.catalog.table("R").batch for db in (live_db, warm_db)
        )
        for name in live.names:
            assert loaded.column(name).values.dtype == live.column(name).values.dtype
            assert loaded.column(name).values.tolist() == live.column(name).values.tolist()
        assert (
            loaded.column("uri").dictionary.entries
            == live.column("uri").dictionary.entries
        )

    def test_save_leaves_no_tmp_file(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        assert store.path.exists()
        assert not store.path.with_name(store.path.name + ".tmp").exists()

    def test_statistics_rebuilt_from_stored_state(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _, report = _ingest(repo, store)
        warm = MetadataStore.for_repository(repo.root)
        warm.load()
        catalog = warm.statistics()
        assert sorted(catalog.files) == repo.uris()
        assert catalog.table_rows["f"] == report.files
        assert catalog.table_rows["r"] == report.records
        for uri, stats in catalog.files.items():
            assert stats.start_time < stats.end_time
            assert stats.size_bytes > 0


class TestStaleness:
    def test_signature_mismatch_returns_none(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        uri = repo.uris()[0]
        st = os.stat(repo.path_of(uri))
        assert store.lookup(uri, (st.st_mtime_ns, st.st_size)) is not None
        assert store.lookup(uri, (st.st_mtime_ns + 1, st.st_size)) is None
        assert store.stats.stale == 1

    def test_changed_file_falls_back_to_live_ingest(self, repo):
        store = MetadataStore.for_repository(repo.root)
        cold_db, _ = _ingest(repo, store)

        touched = repo.path_of(repo.uris()[0])
        st = touched.stat()
        os.utime(touched, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))

        warm_store = MetadataStore.for_repository(repo.root)
        warm_store.load()
        warm_db, report = _ingest(repo, warm_store)
        assert report.files_reused == SPEC.file_count - 1
        assert warm_store.stats.stale == 1
        # The touched file re-ingested live; rows and answers are unchanged
        # because only the mtime moved, not the bytes.
        for table in ("F", "R"):
            assert _table_rows(warm_db, table) == _table_rows(cold_db, table)
        assert _answer(warm_db, repo) == _answer(cold_db, repo)
        # The re-save re-signed the touched file: next session reuses all.
        third = MetadataStore.for_repository(repo.root)
        third.load()
        _, report3 = _ingest(repo, third)
        assert report3.files_reused == SPEC.file_count


class TestRepositoryDrift:
    """The store follows the repository: what left it is dropped, and a
    pass that changed nothing writes nothing."""

    def test_deleted_file_is_dropped_from_store_and_statistics(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        gone, *kept = repo.uris()
        repo.path_of(gone).unlink()

        warm = MetadataStore.for_repository(repo.root)
        warm.load()
        db, report = _ingest(repo, warm)
        assert report.files == report.files_reused == len(kept)
        assert len(warm) == len(kept)
        assert sorted(warm.statistics().files) == kept
        assert warm.statistics().table_rows["f"] == len(kept)
        # Dropping is a change: the sidecar was re-saved without the file.
        assert warm.stats.saved_files == len(kept)
        assert sorted(json.loads(store.path.read_text())["files"]) == kept
        assert gone not in {row[0] for row in _table_rows(db, "F")}

    def test_all_reused_pass_does_not_rewrite_the_sidecar(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        written = store.path.stat()

        warm = MetadataStore.for_repository(repo.root)
        warm.load()
        _, report = _ingest(repo, warm)
        assert report.files_reused == SPEC.file_count
        assert not warm.dirty
        assert (warm.stats.saved_files, warm.stats.saved_bytes) == (0, 0)
        after = store.path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            written.st_ino,
            written.st_mtime_ns,
        )
        # The same store reused for a second pass in one process, too.
        _ingest(repo, store)
        assert store.path.stat().st_ino == written.st_ino

    def test_dirty_is_what_a_save_would_change(self, repo):
        store = MetadataStore.for_repository(repo.root)
        assert not store.dirty
        _, report = _ingest(repo, store)  # recorded, re-counted — and saved
        assert not store.dirty
        store.record_table_rows({"f": report.files})
        assert store.retain(repo.uris()) == 0
        assert not store.dirty  # the same counts, nothing dropped
        store.record_table_rows({"f": report.files + 1})
        assert store.dirty
        store.save()
        assert not store.dirty
        state = store.lookup(repo.uris()[0], _signature(repo, repo.uris()[0]))
        store.record(
            repo.uris()[0], state.signature, state.file_row, state.records
        )
        assert store.dirty
        store.load()
        assert not store.dirty


class TestSidecarFailureModes:
    def test_missing_sidecar_is_clean_cold_start(self, tmp_path):
        store = MetadataStore(tmp_path / "absent.json")
        assert store.load() == 0
        assert store.stats.corrupt_loads == 0
        assert len(store) == 0

    def test_corrupt_sidecar_resets_and_reingests(self, repo):
        store = MetadataStore.for_repository(repo.root)
        cold_db, _ = _ingest(repo, store)
        store.path.write_text("{ this is not json")

        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == 0
        assert warm.stats.corrupt_loads == 1
        warm_db, report = _ingest(repo, warm)
        assert report.files_reused == 0
        assert _table_rows(warm_db, "R") == _table_rows(cold_db, "R")

    def test_truncated_sidecar_resets(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        raw = store.path.read_bytes()
        store.path.write_bytes(raw[: len(raw) // 2])

        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == 0
        assert warm.stats.corrupt_loads == 1

    def test_short_read_fault_on_load_resets(self, repo):
        """The sidecar read goes through the volume I/O hook, so the fault
        harness can tear it mid-read; the load degrades to a cold start."""
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)

        plan = FaultPlan(
            [
                FaultSpec(
                    uri_suffix=store.path.name,
                    kind=SHORT_READ,
                    times=-1,
                    short_by=16,
                )
            ]
        )
        warm = MetadataStore.for_repository(repo.root)
        with plan.install():
            assert warm.load() == 0
        assert warm.stats.corrupt_loads == 1
        assert [f.uri for f in plan.log] == [f"metastore:{store.path.name}"]
        # Hook removed: the same sidecar loads fine.
        assert warm.load() == SPEC.file_count

    def test_version_mismatch_resets(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        payload = json.loads(store.path.read_text())
        assert payload["version"] == METASTORE_VERSION
        payload["version"] = METASTORE_VERSION + 1
        store.path.write_text(json.dumps(payload))

        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == 0
        assert warm.stats.version_mismatches == 1
        assert warm.stats.corrupt_loads == 0

    @pytest.mark.parametrize(
        "row",
        [
            [0, 1, 2, 0.5, "many", 0, 64],  # a field of the wrong type
            [0, 1, 2, 0.5, 2**70, 0, 64],  # beyond int64
            [5, 1, 2, 0.5, 10, 0, 64],  # record ids must count from zero
            "0123456",  # seven of something, but not a row
        ],
    )
    def test_unusable_record_row_is_corrupt_not_fatal(self, repo, row):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        payload = json.loads(store.path.read_text())
        uri = next(iter(payload["files"]))
        payload["files"][uri]["records"][0] = row
        store.path.write_text(json.dumps(payload))

        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == 0
        assert warm.stats.corrupt_loads == 1
        db, report = _ingest(repo, warm)
        assert report.files_reused == 0

    def test_malformed_record_row_is_corrupt_not_fatal(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        payload = json.loads(store.path.read_text())
        uri = next(iter(payload["files"]))
        payload["files"][uri]["records"][0] = [1, 2]  # wrong arity
        store.path.write_text(json.dumps(payload))

        warm = MetadataStore.for_repository(repo.root)
        assert warm.load() == 0
        assert warm.stats.corrupt_loads == 1


class TestApi:
    def test_retain_drops_the_unlisted(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        uri, *kept = repo.uris()
        assert store.retain(kept) == 1 and store.dirty
        assert len(store) == SPEC.file_count - 1
        st = os.stat(repo.path_of(uri))
        assert store.lookup(uri, (st.st_mtime_ns, st.st_size)) is None
        assert store.retain(kept) == 0
