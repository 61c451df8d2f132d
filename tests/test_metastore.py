"""Persistent metastore durability: round-trip, staleness, corruption.

The contract under test is §5's "cheaper, never wronger": a warm session
that loads the sidecar must produce exactly the rows a live header walk
would, and *every* failure mode of the sidecar — missing, corrupt,
truncated mid-read, version-skewed, or stale against the files on disk —
must degrade to live ingest, not to wrong answers. So must a sidecar
whose CRC holds but whose header lies, and a sidecar that cannot be
written.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import struct
import warnings
import zlib

import numpy as np
import pytest

from repro.core import MetadataStore, TwoStageExecutor
from repro.core import metastore as metastore_module
from repro.core.metastore import METASTORE_BASENAME, METASTORE_VERSION
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
THREE_FILES = RepositorySpec(
    stations=("ISK",),
    channels=("BHE", "BHN", "BHZ"),
    days=1,
    sample_rate=0.05,
    samples_per_record=500,
)
# The sidecar's fixed prefix: magic, version, header length, CRC32.
PREFIX = struct.Struct("<8sIII")
STRINGS = ("uri", "network", "station", "location", "channel")

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
        block, signatures = warm.image()
        assert list(block.files["uri"]) == repo.uris()
        for k, uri in enumerate(repo.uris()):
            assert tuple(signatures[k]) == _signature(repo, uri)
            meta, records = block[k]
            assert len(records["byte_offset"]) == meta.nrecords
            assert (records["byte_offset"] >= 0).all()
            assert (records["byte_length"] > 0).all()

    def test_sidecar_layout(self, repo):
        """The sidecar is the layout the module docstring describes —
        assembled here from ``scan_headers`` and a ``stat`` per file, byte
        for byte — and loads to the ``R`` a live header walk builds."""
        strings = {name: [] for name in STRINGS}
        files = {name: [] for name in ("mtime_ns", "size", "start_time",
                                       "end_time", "nrecords", "nsamples",
                                       "size_bytes")}
        records = {name: [] for name in ("start_time", "end_time",
                                         "sample_rate", "nsamples",
                                         "byte_offset", "byte_length")}
        for uri in repo.uris():
            path = repo.path_of(uri)
            headers = scan_headers(path)
            st = os.stat(path)
            offset = 0
            for h in headers:
                length = HEADER_SIZE + h.payload_len
                for name, value in zip(records, (
                    h.start_time, h.end_time, h.sample_rate, h.nsamples,
                    offset, length,
                )):
                    records[name].append(value)
                offset += length
            first = headers[0]
            for name, value in zip(strings, (
                uri, first.network, first.station, first.location,
                first.channel,
            )):
                strings[name].append(value)
            for name, value in zip(files, (
                st.st_mtime_ns, st.st_size,
                min(h.start_time for h in headers),
                max(h.end_time for h in headers), len(headers),
                sum(h.nsamples for h in headers), st.st_size,
            )):
                files[name].append(value)
        arrays = [
            (f"{'signature' if k < 2 else 'F'}.{name}", "<i8", values)
            for k, (name, values) in enumerate(files.items())
        ] + [
            (f"R.{name}", "<f8" if name == "sample_rate" else "<i8", values)
            for name, values in records.items()
        ]
        columns, body = {}, b""
        for key, dtype, values in arrays:
            columns[key] = [dtype, len(body), len(values)]
            body += np.array(values, dtype).tobytes()
        header = json.dumps(
            {**strings, "nrecords": len(records["start_time"]),
             "columns": columns},
            separators=(",", ":"),
        ).encode()
        header += b" " * (-(PREFIX.size + len(header)) % 8)
        expected = PREFIX.pack(
            b"REPROMS\x00", METASTORE_VERSION, len(header),
            zlib.crc32(header + body),
        ) + header + body

        store = MetadataStore.for_repository(repo.root)
        live_db, _ = _ingest(repo, store)
        assert store.path.read_bytes() == expected

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

    def test_a_failed_save_keeps_the_rows_and_the_store_dirty(
        self, repo, monkeypatch
    ):
        """Cheaper, never wronger: a sidecar that cannot be written costs
        the next session a header walk, not this one its rows."""
        plain_db, _ = _ingest(repo)
        store = MetadataStore.for_repository(repo.root)
        replace = os.replace

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(metastore_module.os, "replace", disk_full)
        db, report = _ingest(repo, store)
        tmp = store.path.with_name(store.path.name + ".tmp")
        assert report.files == SPEC.file_count
        for table in ("F", "R"):
            assert _table_rows(db, table) == _table_rows(plain_db, table)
        assert store.dirty and not tmp.exists() and not store.path.exists()
        assert store.stats.saved_files == 0
        # The next pass retries the save, and succeeds.
        monkeypatch.setattr(metastore_module.os, "replace", replace)
        _, again = _ingest(repo, store)
        assert again.files_reused == SPEC.file_count
        assert not store.dirty and store.stats.saved_files == SPEC.file_count
        # A failed re-save leaves the previous sidecar as it was.
        written = store.path.read_bytes()
        touched = repo.path_of(repo.uris()[0])
        st = touched.stat()
        os.utime(touched, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        monkeypatch.setattr(metastore_module.os, "replace", disk_full)
        _ingest(repo, store)
        assert store.dirty and not tmp.exists()
        assert store.path.read_bytes() == written


class TestStaleness:
    def test_signature_mismatch_is_stale(self, repo):
        _ingest(repo, MetadataStore.for_repository(repo.root))
        store = MetadataStore.for_repository(repo.root)
        store.load()
        uris = repo.uris()
        signatures = np.array([_signature(repo, uri) for uri in uris])
        _, at = store.match(uris, signatures)
        assert at.tolist() == list(range(len(uris)))
        drifted = signatures.copy()
        drifted[0, 0] += 1  # mtime
        drifted[1, 1] += 1  # size
        _, at = store.match([*uris, "unknown.xseed"], np.vstack([drifted, [0, 0]]))
        assert at.tolist() == [-1, -1, -1]
        assert (store.stats.hits, store.stats.stale, store.stats.misses) == (
            len(uris), 2, 1
        )

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
        # Dropping is a change: the sidecar was re-saved without the file.
        assert warm.stats.saved_files == len(kept)
        reloaded = MetadataStore.for_repository(repo.root)
        assert reloaded.load() == len(kept)
        assert list(reloaded.image()[0].files["uri"]) == kept
        assert gone not in {row[0] for row in _table_rows(db, "F")}
        executor = TwoStageExecutor(db, RepositoryBinding(repo))
        assert sorted(executor.statistics().files) == kept

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
        _ingest(repo, store)  # kept — and saved
        assert not store.dirty
        block, signatures = store.image()
        store.keep(block, signatures.copy())
        assert not store.dirty  # the same files under the same signatures
        drifted = signatures.copy()
        drifted[0, 0] += 1
        store.keep(block, drifted)
        assert store.dirty
        store.save()
        assert not store.dirty
        store.keep(block[1:], drifted[1:])  # a file left the repository
        assert store.dirty
        store.load()
        assert not store.dirty

    def test_a_warm_resave_is_byte_identical_to_a_cold_harvest(
        self, repo, tmp_path
    ):
        """After a change, an addition and a deletion, the warm pass's
        re-save is what a cold harvest of the tree as it is now writes:
        the canonical listing order, whichever way each file came."""
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        changed, deleted = repo.uris()
        st = repo.path_of(changed).stat()
        os.utime(repo.path_of(changed), ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        added = repo.path_of(deleted).with_name("AA.added.xseed")
        shutil.copyfile(repo.path_of(deleted), added)
        repo.path_of(deleted).unlink()

        warm = MetadataStore.for_repository(repo.root)
        warm.load()
        warm_db, report = _ingest(repo, warm)
        assert (report.files, report.files_reused) == (2, 0)
        assert (warm.stats.stale, warm.stats.misses) == (1, 1)
        cold = MetadataStore(tmp_path / "cold.json")
        cold_db, _ = _ingest(repo, cold)
        assert warm.path.read_bytes() == cold.path.read_bytes()
        for table in ("F", "R"):
            assert _table_rows(warm_db, table) == _table_rows(cold_db, table)


def _reframe(path, edit):
    """Rewrite the sidecar at ``path`` after ``edit(header, body)`` — the
    JSON header as a dict, the arrays as a bytearray — under a CRC that
    holds: a hostile sidecar, not a damaged one."""
    raw = path.read_bytes()
    magic, version, header_len, _ = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size : PREFIX.size + header_len])
    body = bytearray(raw[PREFIX.size + header_len :])
    edit(header, body)
    encoded = json.dumps(header, separators=(",", ":")).encode()
    encoded += b" " * (-(PREFIX.size + len(encoded)) % 8)
    payload = bytes(encoded + body)
    path.write_bytes(
        PREFIX.pack(magic, version, len(encoded), zlib.crc32(payload))
        + payload
    )


def _column(header, body, key):
    """A writable view of one array of a sidecar's body."""
    dtype, offset, count = header["columns"][key]
    return np.frombuffer(body, dtype, count, offset)


def _record_columns(header):
    return [key for key in header["columns"] if key.startswith("R.")]


def _set_records(header, count):
    header["nrecords"] = count
    for key in _record_columns(header):
        header["columns"][key][2] = count


def _assert_reset_to_live_ingest(repo, counter="corrupt_loads"):
    warm = MetadataStore.for_repository(repo.root)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert warm.load() == 0
    assert getattr(warm.stats, counter) == 1
    assert warm.stats.corrupt_loads + warm.stats.version_mismatches == 1
    plain_db, _ = _ingest(repo)
    db, report = _ingest(repo, warm)
    assert report.files_reused == 0
    for table in ("F", "R"):
        assert _table_rows(db, table) == _table_rows(plain_db, table)
    return warm


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
        """Every prefix of a sidecar, the empty one included."""
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        raw = store.path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for end in range(len(raw)):
                store.path.write_bytes(raw[:end])
                warm = MetadataStore.for_repository(repo.root)
                assert warm.load() == 0, end
                assert warm.stats.corrupt_loads == 1, end
        _assert_reset_to_live_ingest(repo)

    @pytest.mark.parametrize("where", ["header", "arrays", "last byte"])
    def test_a_flipped_byte_fails_the_crc(self, repo, where):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        raw = bytearray(store.path.read_bytes())
        header_len = PREFIX.unpack_from(raw)[2]
        at = {"header": PREFIX.size + 3,
              "arrays": PREFIX.size + header_len + 5,
              "last byte": len(raw) - 1}[where]
        raw[at] ^= 0x01
        store.path.write_bytes(bytes(raw))
        _assert_reset_to_live_ingest(repo)

    def test_a_reframed_sidecar_still_loads(self, repo):
        """The hostile cases below rewrite through ``_reframe``: unedited,
        what it writes loads whole."""
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        _reframe(store.path, lambda header, body: None)
        assert MetadataStore.for_repository(repo.root).load() == SPEC.file_count

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h, b: _set_records(h, -1),
            lambda h, b: _set_records(h, h["nrecords"] + 2**64),
            lambda h, b: _column(h, b, "F.nrecords").__setitem__(
                slice(None), [2**63 - 1, 2**63 - 1, h["nrecords"] + 2]
            ),
            lambda h, b: _column(h, b, "F.nrecords").__setitem__(
                slice(None), [-1, 0, h["nrecords"] + 1]
            ),
            lambda h, b: h["station"].__setitem__(0, 7),
            lambda h, b: h["uri"].pop(),
            lambda h, b: h.__setitem__("columns", []),
        ],
        ids=[
            "negative nrecords", "record total beyond int64",
            "per-file counts overflowing to the total", "a negative count",
            "a string column holding a number", "one URI short",
            "columns not a mapping",
        ],
    )
    def test_a_hostile_header_resets(self, tmp_path, edit):
        generate_repository(tmp_path, THREE_FILES)
        repo = FileRepository(tmp_path)
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        _reframe(store.path, edit)
        _assert_reset_to_live_ingest(repo)

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
        raw = bytearray(store.path.read_bytes())
        magic, version, header_len, crc = PREFIX.unpack_from(raw)
        assert version == METASTORE_VERSION
        PREFIX.pack_into(raw, 0, magic, version + 1, header_len, crc)
        store.path.write_bytes(bytes(raw))
        _assert_reset_to_live_ingest(repo, "version_mismatches")

    def test_a_json_sidecar_is_another_version(self, repo):
        """Version 1 was one JSON object: a version mismatch, not a corrupt
        load; the pass ingests live and re-saves in the column layout."""
        files = {}
        for uri in repo.uris():
            st = os.stat(repo.path_of(uri))
            files[uri] = {"signature": [st.st_mtime_ns, st.st_size],
                          "file": [], "records": []}
        repo.root.joinpath(METASTORE_BASENAME).write_text(json.dumps(
            {"version": 1, "files": files, "table_rows": {}},
            separators=(",", ":"),
        ))
        warm = _assert_reset_to_live_ingest(repo, "version_mismatches")
        assert warm.stats.saved_files == SPEC.file_count
        assert warm.path.read_bytes().startswith(b"REPROMS\x00")
        assert MetadataStore.for_repository(repo.root).load() == SPEC.file_count

    @pytest.mark.parametrize(
        "row",
        [
            {"R.byte_offset": (0, "<f8")},  # a record column of the wrong type
            {"R.byte_length": (1, 10**6)},  # running past the end
            {"R.nsamples": (2, 1)},  # fewer entries than records
            {"R.end_time": (1, -8)},  # before the arrays
        ],
    )
    def test_unusable_record_row_is_corrupt_not_fatal(self, repo, row):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)

        def edit(header, body):
            for key, (field, value) in row.items():
                header["columns"][key][field] = value

        _reframe(store.path, edit)
        _assert_reset_to_live_ingest(repo)

    def test_malformed_record_row_is_corrupt_not_fatal(self, repo):
        store = MetadataStore.for_repository(repo.root)
        _ingest(repo, store)
        # Five of R's six columns: the wrong arity.
        _reframe(
            store.path, lambda header, body: header["columns"].pop("R.sample_rate")
        )
        _assert_reset_to_live_ingest(repo)
