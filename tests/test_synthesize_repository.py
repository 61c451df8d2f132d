"""Tests for waveform synthesis and the repository abstraction."""

import os
from pathlib import Path, PurePath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.errors import FileIngestError, IngestError
from repro.ingest import FILE_TABLE, default_registry, lazy_ingest_metadata
from repro.ingest.formats import path_suffix
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


def _rglob_listing(root, suffixes):
    """How ``FileRepository.uris`` listed before it walked with ``scandir``:
    the reference for what counts as a file of the repository."""
    found = set()
    for suffix in suffixes:
        found.update(
            p.relative_to(root).as_posix()
            for p in root.rglob(f"*{suffix}")
            if p.is_file()
        )
    return sorted(found)


@pytest.fixture(scope="module")
def linked_tree(tmp_path_factory):
    """A small repository tree with every kind of entry a listing or a URI
    can meet, and a directory beside it that nothing may reach."""
    base = tmp_path_factory.mktemp("linked")
    root, outside = base / "root", base / "outside"
    (root / "a" / "b").mkdir(parents=True)
    outside.mkdir()
    (outside / "secret.xseed").write_bytes(b"not yours")
    (root / "top.xseed").write_bytes(b"1")
    (root / "a" / "plain.xseed").write_bytes(b"22")
    (root / "a" / "b" / "deep.xseed").write_bytes(b"333")
    (root / "a" / "old.v2.xseed").write_bytes(b"4444")  # both suffixes below
    (root / "a" / ".hidden.xseed").write_bytes(b"55555")
    (root / "a" / "notes.txt").write_bytes(b"no")
    (root / "x.xseed").mkdir()  # a directory that looks like a file
    (root / "x.xseed" / "inner.xseed").write_bytes(b"666666")
    (root / "a" / "inside.xseed").symlink_to(root / "a" / "b" / "deep.xseed")
    (root / "a" / "escaping.xseed").symlink_to(outside / "secret.xseed")
    (root / "dangling.xseed").symlink_to(root / "nowhere.xseed")
    (root / "loop.xseed").symlink_to(root / "loop.xseed")
    (root / "ldir").symlink_to(root / "a", target_is_directory=True)
    (root / "lout").symlink_to(outside, target_is_directory=True)
    return root


SUFFIXES = (".xseed", ".v2.xseed")


class TestListing:
    def test_lists_what_rglob_listed(self, linked_tree):
        repo = FileRepository(linked_tree, suffix=SUFFIXES)
        uris = repo.uris()
        assert uris == _rglob_listing(linked_tree, SUFFIXES)
        # ...which is: nested and dot files, links to files wherever they
        # lead, each file once; no directory, nothing under a linked one.
        assert uris == [
            "a/.hidden.xseed", "a/b/deep.xseed", "a/escaping.xseed",
            "a/inside.xseed", "a/old.v2.xseed", "a/plain.xseed",
            "top.xseed", "x.xseed/inner.xseed",
        ]
        assert len(repo) == 8
        assert FileRepository(linked_tree, suffix=".txt").uris() == [
            "a/notes.txt"
        ]

    def test_signatures_are_the_listing_walks_observation(self, linked_tree):
        """A plain entry is signed by the walk that listed it, a link through
        ``signature_of`` and its containment check: the same dict either way."""
        (linked_tree / "a" / "escaping.xseed").rename(linked_tree / "a" / "esc")
        try:
            repo = FileRepository(linked_tree, suffix=SUFFIXES)
            observed = repo.signatures()
            assert list(observed) == repo.uris()
            assert "a/inside.xseed" in observed
            assert observed == {
                uri: repo.signature_of(uri) for uri in repo.uris()
            }
            assert repo.total_bytes() == sum(
                repo.size_of(uri) for uri in repo.uris()
            )
        finally:
            (linked_tree / "a" / "esc").rename(
                linked_tree / "a" / "escaping.xseed"
            )

    def test_an_escaping_link_fails_the_bulk_observation(self, linked_tree):
        repo = FileRepository(linked_tree, suffix=SUFFIXES)
        with pytest.raises(IngestError, match="escapes"):
            repo.signatures()
        with pytest.raises(IngestError, match="escapes"):
            repo.total_bytes()

    def test_a_file_deleted_since_the_listing_is_skipped(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "stays.xseed").write_bytes(b"1")
        (tmp_path / "goes.xseed").write_bytes(b"2")
        (tmp_path / "link.xseed").symlink_to(tmp_path / "goes.xseed")
        repo = FileRepository(tmp_path)
        listed = repo._listing()
        (tmp_path / "goes.xseed").unlink()
        monkeypatch.setattr(repo, "_listing", lambda: listed)
        assert list(repo.signatures()) == ["stays.xseed"]


_COMPONENTS = st.sampled_from(
    ["a", "b", "plain.xseed", "deep.xseed", "inside.xseed", "escaping.xseed",
     "dangling.xseed", "loop.xseed", "ldir", "lout", "secret.xseed", "x.xseed",
     "missing", "..", ".", ""]
)


class TestContainment:
    """``_resolve`` looks only at a plain URI's own components; whatever it
    answers, the full ``realpath`` comparison would have answered."""

    @settings(max_examples=400, deadline=None)
    @given(
        parts=st.lists(_COMPONENTS, min_size=0, max_size=5),
        absolute=st.sampled_from(["", "/", "root"]),
    )
    def test_resolves_to_the_realpath_or_rejects_the_uri(
        self, linked_tree, parts, absolute
    ):
        repo = FileRepository(linked_tree)
        root = os.path.realpath(linked_tree)
        uri = "/".join(parts)
        if absolute:
            uri = (root if absolute == "root" else "") + "/" + uri
        expected = os.path.realpath(os.path.join(root, uri))
        if not (expected + os.sep).startswith(os.path.join(root, "")):
            for resolve in (repo._resolve, repo.path_of, repo.signature_of):
                with pytest.raises(IngestError, match="escapes"):
                    resolve(uri)
            return
        resolved, seen = repo._resolve(uri)
        assert resolved == expected
        assert seen is None or seen == os.lstat(expected)
        if os.path.exists(expected):
            assert repo.path_of(uri) == Path(expected)
            st_ = os.stat(expected)
            assert repo.signature_of(uri) == (st_.st_mtime_ns, st_.st_size)
        else:
            with pytest.raises(IngestError, match="no file for URI"):
                repo.path_of(uri)
            with pytest.raises(OSError):  # not there, or a link in a loop
                repo.signature_of(uri)

    def test_a_plain_uri_is_not_walked_from_the_filesystem_root(
        self, linked_tree, monkeypatch
    ):
        """One ``lstat`` per component of the URI, none for the root's."""
        repo = FileRepository(linked_tree)
        seen = []
        lstat = os.lstat

        def logging_lstat(path):
            seen.append(path)
            return lstat(path)

        monkeypatch.setattr(os, "lstat", logging_lstat)
        path = repo.path_of("a/b/deep.xseed")
        monkeypatch.undo()
        root = os.path.realpath(linked_tree)
        assert seen == [f"{root}/a", f"{root}/a/b", f"{root}/a/b/deep.xseed"]
        assert path == Path(root, "a", "b", "deep.xseed")


class TestListingHandOff:
    """The metadata pass reads each file at the path the listing found it,
    one listing in all: a plain entry as the walk saw it, a link through
    ``path_of`` and its containment check."""

    @pytest.fixture()
    def tree(self, tmp_path):
        """A generated repository, with one more file at each kind of name
        suffix dispatch must get right, and a directory beside it."""
        root, outside = tmp_path / "root", tmp_path / "outside"
        generate_repository(root, SPEC)
        outside.mkdir()
        volume = next(root.rglob("*.xseed")).read_bytes()
        for name in (".hidden.xseed", "old.v2.xseed", "x.xseed/inner.xseed"):
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes(volume)
        (outside / "secret.xseed").write_bytes(volume)
        return root, outside

    @staticmethod
    def resolved_while_loading(repo, monkeypatch):
        resolved = []
        path_of = repo.path_of

        def logging_path_of(uri):
            resolved.append(uri)
            return path_of(uri)

        monkeypatch.setattr(repo, "path_of", logging_path_of)
        db = Database()
        lazy_ingest_metadata(db, repo)
        return db, resolved

    def test_a_link_inside_the_root_is_read_through_path_of(
        self, tree, monkeypatch
    ):
        root, _ = tree
        (root / "link.xseed").symlink_to(root / "old.v2.xseed")
        repo = FileRepository(root)
        db, resolved = self.resolved_while_loading(repo, monkeypatch)
        assert resolved == ["link.xseed"]
        files = db.catalog.table(FILE_TABLE).batch
        rows = dict(zip(files.column("uri").to_pylist(),
                        files.column("nsamples").to_pylist()))
        assert list(rows) == repo.uris()
        assert rows["link.xseed"] == rows["old.v2.xseed"]

    def test_an_escaping_link_raises(self, tree):
        root, outside = tree
        (root / "link.xseed").symlink_to(outside / "secret.xseed")
        with pytest.raises(IngestError, match="escapes"):
            lazy_ingest_metadata(Database(), FileRepository(root))

    def test_a_file_removed_since_the_listing(self, tree, monkeypatch):
        """Typed as it was when the pass resolved every URI again: a
        ``FileIngestError`` naming the URI, not transient."""
        root, _ = tree
        repo = FileRepository(root)
        listed = repo._listing()
        gone = repo.uris()[3]
        (root / gone).unlink()
        monkeypatch.setattr(repo, "_listing", lambda: listed)
        with pytest.raises(IngestError) as excinfo:
            lazy_ingest_metadata(Database(), repo)
        assert type(excinfo.value) is FileIngestError
        assert excinfo.value.uri == gone
        assert excinfo.value.transient is False

    def test_suffix_dispatch_is_the_pure_path_suffix(self, tree, monkeypatch):
        root, _ = tree
        repo = FileRepository(root, suffix=(".xseed", ".v2.xseed"))
        db, resolved = self.resolved_while_loading(repo, monkeypatch)
        assert resolved == []
        assert db.catalog.table(FILE_TABLE).batch.num_rows == len(repo) == 7
        registry = default_registry()
        for path in [
            *(str(root / uri) for uri in repo.uris()),
            str(root / "x.xseed"), str(root / "x.xseed") + "/", ".xseed",
            "a/.xseed", "a.b/c", "noext", "a/b.TSCSV", "a/.hidden.tscsv",
        ]:
            assert path_suffix(path) == PurePath(path).suffix, path
            if PurePath(path).suffix.lower() in (".xseed", ".tscsv"):
                assert registry.for_path(path).suffix == (
                    PurePath(path).suffix.lower()
                )
            else:
                with pytest.raises(IngestError, match="no format extractor"):
                    registry.for_path(path)
