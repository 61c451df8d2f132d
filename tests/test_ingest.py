"""Tests for format extractors, the registry, and the two ingestion paths."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.mseed.iohooks import FileSource
from repro.core.metastore import MetadataStore
from repro.db import Database
from repro.db.errors import CorruptFileError, IngestError
from repro.ingest import (
    CsvExtractor,
    FormatRegistry,
    XSeedExtractor,
    default_registry,
    eager_ingest,
    lazy_ingest_metadata,
    write_csv_timeseries,
)
from repro.ingest.formats import MountRequest
from repro.db.column import StringDictionary
from repro.ingest.schema import ACTUAL_TABLE, FILE_TABLE, RECORD_TABLE, ensure_schema
from repro.mseed import (
    HEADER_SIZE,
    FileRepository,
    RepositorySpec,
    XSeedRecord,
    generate_repository,
    read_file_metadata,
    read_records,
    scan_headers,
    write_volume,
)
from repro.mseed import volume as volume_module
from repro.mseed.volume import RECORD_COLUMNS


class TestRegistry:
    def test_dispatch_by_suffix(self):
        registry = default_registry()
        assert isinstance(registry.for_path("a/b/file.xseed"), XSeedExtractor)
        assert isinstance(registry.for_path("w.tscsv"), CsvExtractor)

    def test_unknown_suffix(self):
        with pytest.raises(IngestError):
            default_registry().for_path("file.hdf5")

    def test_suffix_validation(self):
        registry = FormatRegistry()

        class Bad:
            format_name = "bad"
            suffix = "noleadingdot"

            def extract_metadata(self, path, uri):
                raise NotImplementedError

            def mount(self, path, uri):
                raise NotImplementedError

        with pytest.raises(IngestError):
            registry.register(Bad())


class TestXSeedExtractor:
    def test_metadata_matches_mount(self, tiny_repo):
        extractor = XSeedExtractor()
        uri = tiny_repo.uris()[0]
        path = tiny_repo.path_of(uri)
        extracted = extractor.extract_metadata(FileSource(path, uri))
        mounted = extractor.mount(FileSource(path, uri))
        assert extracted.file_row.nsamples == mounted.num_rows
        assert extracted.file_row.uri == uri
        assert len(extracted.records) == extracted.file_row.nrecords

    def test_mount_matches_direct_decode(self, tiny_repo):
        extractor = XSeedExtractor()
        uri = tiny_repo.uris()[0]
        path = tiny_repo.path_of(uri)
        mounted = extractor.mount(FileSource(path, uri))
        records = read_records(path)
        direct = np.concatenate([r.samples for r in records]).astype(np.float64)
        assert np.array_equal(mounted.sample_value, direct)
        assert mounted.record_id[0] == 0
        assert mounted.record_id[-1] == len(records) - 1

    def test_sample_times_monotonic_within_record(self, tiny_repo):
        extractor = XSeedExtractor()
        uri = tiny_repo.uris()[0]
        mounted = extractor.mount(FileSource(tiny_repo.path_of(uri), uri))
        first = mounted.record_id == 0
        times = mounted.sample_time[first]
        assert np.all(np.diff(times) > 0)


class TestCsvExtractor:
    def write(self, tmp_path, n=10, rate=0.5):
        path = tmp_path / "w.tscsv"
        values = np.linspace(0.0, 1.0, n)
        write_csv_timeseries(
            path, "WX", "AMS", "", "TMP", rate, 1_000_000, values
        )
        return path, values

    def test_metadata_only(self, tmp_path):
        path, values = self.write(tmp_path)
        extracted = CsvExtractor().extract_metadata(FileSource(path, "w.tscsv"))
        assert extracted.file_row.station == "AMS"
        assert extracted.file_row.nsamples == len(values)
        assert len(extracted.records) == 1
        assert extracted.records.sample_rate.tolist() == [0.5]

    def test_mount_roundtrip(self, tmp_path):
        path, values = self.write(tmp_path)
        mounted = CsvExtractor().mount(FileSource(path, "w.tscsv"))
        assert np.allclose(mounted.sample_value, values)
        assert mounted.sample_time[0] == 1_000_000
        assert np.all(np.diff(mounted.sample_time) == 2_000_000)

    def test_missing_header_fields(self, tmp_path):
        path = tmp_path / "bad.tscsv"
        path.write_text("# station=A\nt_us,value\n1,2\n")
        with pytest.raises(IngestError):
            CsvExtractor().extract_metadata(FileSource(path, "bad.tscsv"))

    def test_sample_count_mismatch(self, tmp_path):
        path, _ = self.write(tmp_path, n=5)
        text = path.read_text().rstrip().rsplit("\n", 1)[0] + "\n"
        path.write_text(text)  # drop one body row
        with pytest.raises(IngestError):
            CsvExtractor().mount(FileSource(path, "w.tscsv"))

    def test_body_longer_than_header_claims(self, tmp_path):
        path, _ = self.write(tmp_path, n=5)
        path.write_text(path.read_text() + "99000000,1.5\n")
        with pytest.raises(CorruptFileError, match="claims 5 samples"):
            CsvExtractor().mount(FileSource(path, "w.tscsv"))

    def test_empty_file_mounts_one_empty_record(self, tmp_path):
        path, _ = self.write(tmp_path, n=0)
        mounted = CsvExtractor().mount(FileSource(path, "w.tscsv"))
        assert len(mounted.sample_value) == 0 and mounted.records == 1

    def test_selective_mount_without_byte_map(self, tmp_path):
        """With no byte map the header says the record's span; a request
        outside it reads only the comment prefix and decodes nothing."""
        path, values = self.write(tmp_path, n=10, rate=0.5)
        prefix = len(path.read_text().split("t_us")[0])
        extractor = CsvExtractor()
        miss = extractor.mount_selective(
            FileSource(path, "w.tscsv"), MountRequest(interval=(50_000_000, 60_000_000))
        )
        assert (miss.bytes_read, miss.records_decoded) == (prefix, 0)
        assert miss.records_skipped == 1 and len(miss.mounted.sample_value) == 0
        hit = extractor.mount_selective(
            FileSource(path, "w.tscsv"), MountRequest(interval=(0, 3_000_000))
        )
        assert (hit.bytes_read, hit.records_decoded) == (path.stat().st_size, 1)
        assert np.allclose(hit.mounted.sample_value, values)


class TestEagerIngest:
    def test_counts(self, tiny_repo, ei_db):
        f = ei_db.catalog.table(FILE_TABLE)
        r = ei_db.catalog.table(RECORD_TABLE)
        d = ei_db.catalog.table(ACTUAL_TABLE)
        assert f.num_rows == len(tiny_repo)
        assert r.num_rows == sum(
            row for row in f.batch.column("nrecords").to_pylist()
        )
        assert d.num_rows == sum(f.batch.column("nsamples").to_pylist())

    def test_indexes_built(self, ei_db):
        assert ei_db.index_nbytes() > 0
        assert ei_db.catalog.index_for(FILE_TABLE, ("uri",)) is not None
        assert (
            ei_db.catalog.index_for(RECORD_TABLE, ("uri", "record_id"))
            is not None
        )

    def test_d_contents_match_files(self, tiny_repo, ei_db):
        uri = tiny_repo.uris()[0]
        records = read_records(tiny_repo.path_of(uri))
        expected = np.concatenate([r.samples for r in records])
        got = ei_db.execute(
            f"SELECT sample_value FROM D WHERE uri = '{uri}' "
            "ORDER BY record_id, sample_time"
        )
        assert np.allclose(got.batch.column("sample_value").values, expected)

    def test_report_consistency(self, tiny_repo):
        db = Database()
        report = eager_ingest(db, tiny_repo, build_indexes=False)
        assert report.index_seconds == 0.0
        assert report.index_bytes == 0
        assert report.files == len(tiny_repo)
        assert report.total_bytes == report.data_bytes


class TestLazyIngest:
    def test_metadata_equal_to_eager(self, ei_db, ali_db):
        for table in (FILE_TABLE, RECORD_TABLE):
            assert sorted(ali_db.catalog.table(table).batch.rows()) == sorted(
                ei_db.catalog.table(table).batch.rows()
            )

    def test_actual_table_empty(self, ali_db):
        assert ali_db.catalog.table(ACTUAL_TABLE).num_rows == 0

    def test_no_indexes(self, ali_db):
        assert ali_db.index_nbytes() == 0

    def test_metadata_much_smaller(self, tiny_repo, ali_db, ei_db):
        meta_bytes = (
            ali_db.catalog.table(FILE_TABLE).nbytes()
            + ali_db.catalog.table(RECORD_TABLE).nbytes()
        )
        assert meta_bytes * 10 < ei_db.data_nbytes()

    def test_report(self, tiny_repo):
        db = Database()
        report = lazy_ingest_metadata(db, tiny_repo)
        assert report.files == len(tiny_repo)
        assert report.samples > 0
        assert report.metadata_bytes > 0

    def test_ensure_schema_idempotent(self, tiny_repo):
        db = Database()
        ensure_schema(db)
        ensure_schema(db)
        lazy_ingest_metadata(db, tiny_repo)
        assert db.catalog.table(FILE_TABLE).num_rows == len(tiny_repo)


def _row_wise_tables(repo):
    """``F`` and ``R`` assembled a row per record from ``scan_headers`` and
    per-row Python lists — how the metadata pass built them before it went
    columnar. ``{table: {column: (values, dictionary entries or None)}}``."""
    f_rows, r_rows = [], []
    for uri in repo.uris():
        path = repo.path_of(uri)
        if uri.endswith(".tscsv"):
            meta = dict(
                token.split("=")
                for line in path.read_text().splitlines()[:2]
                for token in line[1:].split()
            )
            start, n = int(meta["start_time"]), int(meta["nsamples"])
            rate = float(meta["sample_rate"])
            end = start + int(round((n - 1) * (1_000_000 / rate)))
            size = path.stat().st_size
            f_rows.append((uri, meta["network"], meta["station"],
                           meta.get("location", ""), meta["channel"],
                           start, end, 1, n, size))
            r_rows.append((uri, 0, start, end, rate, n, 0, size))
            continue
        headers = scan_headers(path)
        first = headers[0]
        f_rows.append((
            uri, first.network, first.station, first.location, first.channel,
            min(h.start_time for h in headers),
            max(h.end_time for h in headers),
            len(headers), sum(h.nsamples for h in headers),
            path.stat().st_size,
        ))
        offset = 0
        for i, h in enumerate(headers):
            length = HEADER_SIZE + h.payload_len
            r_rows.append((uri, i, h.start_time, h.end_time, h.sample_rate,
                           h.nsamples, offset, length))
            offset += length

    def columns(rows, names, strings, floats=()):
        table = {}
        for position, name in enumerate(names):
            values = [row[position] for row in rows]
            if name in strings:
                dictionary = StringDictionary()
                codes = dictionary.encode(values)
                table[name] = (codes, list(dictionary.entries))
            else:
                dtype = np.float64 if name in floats else np.int64
                table[name] = (np.asarray(values, dtype=dtype), None)
        return table

    return {
        FILE_TABLE: columns(
            f_rows,
            ["uri", "network", "station", "location", "channel", "start_time",
             "end_time", "nrecords", "nsamples", "size_bytes"],
            strings={"uri", "network", "station", "location", "channel"},
        ),
        RECORD_TABLE: columns(
            r_rows,
            ["uri", "record_id", "start_time", "end_time", "sample_rate",
             "nsamples", "byte_offset", "byte_length"],
            strings={"uri"},
            floats={"sample_rate"},
        ),
    }


def _write_xseed(path, station, record_sizes, start=1_263_081_600_000_000):
    """One xSEED file of ``len(record_sizes)`` records, that many samples
    each, back to back in time."""
    records = []
    for seq, n in enumerate(record_sizes):
        samples = np.cumsum(np.random.default_rng(seq).integers(-9, 9, n))
        records.append(XSeedRecord.create(
            seq, "KO", station, "", "BHZ", start, 0.5, samples.astype(np.int32)
        ))
        start = records[-1].header.end_time + 2_000_000
    write_volume(path, records)


def _write_csv(path, station):
    write_csv_timeseries(
        path, "WX", station, "", "TMP", 0.5,
        1_263_254_400_000_000, np.linspace(0.0, 1.0, 9),
    )


def _one_record(root):
    _write_xseed(root / "lone.xseed", "ISK", [40])


def _ragged(root):
    # Different record counts, a one-record file in the middle and last, a
    # one-sample record: nothing about one file's shape leaks into the next.
    for name, sizes in [("a", [30, 30, 7]), ("b", [1]), ("c", [5] * 9),
                        ("d/e", [12, 1, 12, 1]), ("f", [64])]:
        _write_xseed(root / f"{name}.xseed", name[-1].upper(), sizes)


def _interleaved(root):
    # In listing order: a run of three xSEED files, one CSV, a run of one, two
    # CSVs, a run of two.
    for name, sizes in [("a1", [8, 8]), ("a2", [3]), ("a3", [5, 6, 7]),
                        ("c", [20]), ("f1", [2, 2, 2, 2]), ("f2", [9])]:
        _write_xseed(root / f"{name}.xseed", name.upper(), sizes)
    for name in ("b", "d", "e"):
        _write_csv(root / f"{name}.tscsv", name.upper())


def _empty(root):
    pass


class TestMetadataTablesEqualRowWiseAssembly:
    """The columnar metadata pass changes how ``F`` and ``R`` are built,
    never what they hold: dtype, values and dictionary order."""

    @pytest.fixture(scope="class")
    def mixed_repo(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mixed_repo")
        generate_repository(
            root,
            RepositorySpec(
                stations=("ISK", "ANK", "KDZ"), channels=("BHE", "BHZ"),
                days=2, sample_rate=0.05, samples_per_record=700,
            ),
        )
        write_csv_timeseries(
            root / "2010" / "wx.tscsv", "WX", "AMS", "", "TMP", 0.5,
            1_263_254_400_000_000, np.linspace(0.0, 1.0, 9),
        )
        return FileRepository(root, suffix=(".xseed", ".tscsv"))

    @staticmethod
    def assert_column_for_column(db, repo):
        for table, expected in _row_wise_tables(repo).items():
            batch = db.catalog.table(table).batch
            assert batch.names == list(expected)
            for name, (values, entries) in expected.items():
                column = batch.column(name)
                assert column.values.dtype == values.dtype, (table, name)
                assert column.values.tolist() == values.tolist(), (table, name)
                if entries is not None:
                    assert list(column.dictionary.entries) == entries

    @pytest.mark.parametrize("ingest", [lazy_ingest_metadata, eager_ingest])
    def test_column_for_column(self, mixed_repo, ingest):
        db = Database()
        ingest(db, mixed_repo)
        self.assert_column_for_column(db, mixed_repo)

    @pytest.mark.parametrize("ingest", [lazy_ingest_metadata, eager_ingest])
    @pytest.mark.parametrize("shape", [_one_record, _ragged, _interleaved, _empty])
    def test_column_for_column_whatever_the_shape(self, tmp_path, shape, ingest):
        shape(tmp_path)
        repo = FileRepository(tmp_path, suffix=(".xseed", ".tscsv"))
        db = Database()
        report = ingest(db, repo)
        assert report.files == len(repo)
        self.assert_column_for_column(db, repo)

    def test_empty_repository(self, tmp_path):
        db = Database()
        report = lazy_ingest_metadata(db, FileRepository(tmp_path))
        assert report.records == 0
        assert db.catalog.table(RECORD_TABLE).num_rows == 0

    def test_part_reused_pass(self, tmp_path):
        """Rows reused from the metastore and rows extracted in this pass
        land in listing order, whichever way each file came."""
        _interleaved(tmp_path)
        repo = FileRepository(tmp_path, suffix=(".xseed", ".tscsv"))
        store = MetadataStore(tmp_path / "sidecar.json")
        lazy_ingest_metadata(Database(), repo, metastore=store)
        # Since that pass: two files rewritten (one inside a run, one a run
        # of its own), one new in the middle of the listing, one gone.
        _write_xseed(tmp_path / "a2.xseed", "A2", [4, 4, 4, 4, 4])
        _write_xseed(tmp_path / "c.xseed", "C", [1])
        _write_xseed(tmp_path / "a9.xseed", "A9", [6, 6])
        (tmp_path / "d.tscsv").unlink()

        db = Database()
        report = lazy_ingest_metadata(db, repo, metastore=store)
        assert (report.files, report.files_reused) == (9, 6)
        self.assert_column_for_column(db, repo)


def _file_by_file_tables(repo):
    """``F`` and ``R`` as decoded rows, assembled one file at a time from
    that file's own per-file view: ``read_file_metadata`` for an xSEED file,
    the extractor's ``extract_metadata`` for a CSV one. The reference the
    block path must reproduce. ``{table: [row, ...]}``."""
    f_rows, r_rows = [], []
    for uri in repo.uris():
        path = repo.path_of(uri)
        if uri.endswith(".xseed"):
            meta, records = read_file_metadata(path, uri)
            f_rows.append((uri, *dataclasses.astuple(meta)))
        else:
            extracted = CsvExtractor().extract_metadata(FileSource(path, uri))
            f_rows.append(dataclasses.astuple(extracted.file_row))
            records = vars(extracted.records)
        r_rows += [
            (uri, k, *row)
            for k, row in enumerate(
                zip(*(records[name].tolist() for name in RECORD_COLUMNS))
            )
        ]
    return {FILE_TABLE: f_rows, RECORD_TABLE: r_rows}


def _decoded_tables(db):
    """What ``F`` and ``R`` hold, decoded, as rows."""
    tables = {}
    for table in (FILE_TABLE, RECORD_TABLE):
        batch = db.catalog.table(table).batch
        tables[table] = list(
            zip(*(batch.column(name).to_pylist() for name in batch.names))
        )
    return tables


class TestBlockPathEqualsFileByFile:
    """``F`` and ``R`` stacked from block columns hold, column for column,
    what the files' per-file views hold, whichever way each file came."""

    @staticmethod
    def loads(repo):
        for ingest in (lazy_ingest_metadata, eager_ingest):
            db = Database()
            ingest(db, repo)
            yield ingest.__name__, db

    @pytest.mark.parametrize("block_headers", [1, 7, 12])
    def test_headers_across_parse_blocks(
        self, tiny_repo, monkeypatch, block_headers
    ):
        expected = _file_by_file_tables(tiny_repo)
        monkeypatch.setattr(
            volume_module, "_PARSE_BLOCK_HEADERS", block_headers
        )
        for name, db in self.loads(tiny_repo):
            assert _decoded_tables(db) == expected, name

    def test_mixed_xseed_and_csv(self, tmp_path, monkeypatch):
        _interleaved(tmp_path)
        repo = FileRepository(tmp_path, suffix=(".xseed", ".tscsv"))
        expected = _file_by_file_tables(repo)
        monkeypatch.setattr(volume_module, "_PARSE_BLOCK_HEADERS", 5)
        for name, db in self.loads(repo):
            assert _decoded_tables(db) == expected, name

    def test_half_warm_metastore(self, tmp_path):
        _interleaved(tmp_path)
        repo = FileRepository(tmp_path, suffix=(".xseed", ".tscsv"))
        store = MetadataStore(tmp_path / "sidecar.json")
        lazy_ingest_metadata(Database(), repo, metastore=store)
        # Every other file changes since: half reused, half extracted again.
        for uri in repo.uris()[::2]:
            path = repo.path_of(uri)
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        expected = _file_by_file_tables(repo)
        db = Database()
        report = lazy_ingest_metadata(db, repo, metastore=store)
        assert (report.files, report.files_reused) == (9, 4)
        assert _decoded_tables(db) == expected
        # The store keeps the same per-file rows: a warm pass reproduces them.
        warm = Database()
        report = lazy_ingest_metadata(warm, repo, metastore=store)
        assert report.files_reused == 9
        assert _decoded_tables(warm) == expected
        for name, db in self.loads(repo):
            assert _decoded_tables(db) == expected, name

    # sha256 of the sidecar a cold pass wrote over the repository below
    # when the sidecar became one file of raw columns (version 2).
    SIDECAR_SHA256 = (
        "6b7581fa7ad36836001f93a923bbbde567d7d1b822afcf0f162daffa90affa4c"
    )

    def test_a_cold_pass_writes_the_same_sidecar(self, tmp_path):
        root = tmp_path / "repo"
        _interleaved(root)
        generate_repository(
            root / "gen",
            RepositorySpec(stations=("ISK",), channels=("BHE", "BHZ"), days=1,
                           sample_rate=0.05, samples_per_record=700),
        )
        files = sorted(p for p in root.rglob("*") if p.is_file())
        for k, path in enumerate(files):
            os.utime(path, ns=(1_700_000_000_000_000_000 + k,) * 2)
        sidecar = tmp_path / "sidecar.json"
        lazy_ingest_metadata(
            Database(),
            FileRepository(root, suffix=(".xseed", ".tscsv")),
            metastore=MetadataStore(sidecar),
        )
        digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
        assert digest == self.SIDECAR_SHA256
