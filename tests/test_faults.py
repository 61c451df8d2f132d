"""The deterministic fault-injection harness.

Two layers of guarantee: the plan itself (specs fire on exactly the reads
that cover their byte, as many times as they say, and a seed reproduces
them exactly) and the engine's
response (transient faults are absorbed by the retry ladder; persistent
faults surface through the failure taxonomy with identical reports across
same-seed runs).
"""

from __future__ import annotations

import collections
import io
import threading
import time

import pytest

from repro.core import TwoStageExecutor
from repro.db import Database
from repro.db.errors import FileIngestError
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    generate_repository,
    read_file_metadata,
    read_records,
)
from repro.mseed.iohooks import get_volume_io_hook, set_volume_io_hook
from repro.testing import (
    FAULT_KINDS,
    READ_LATENCY,
    RECOVERABLE_KINDS,
    SHORT_READ,
    STALE_FLIP,
    TRANSIENT_OSERROR,
    FaultPlan,
    FaultSpec,
)

SPEC = RepositorySpec(
    stations=("ISK",),
    channels=("BHE",),
    days=2,
    sample_rate=0.02,
    samples_per_record=500,
)


@pytest.fixture()
def repo(tmp_path):
    generate_repository(tmp_path, SPEC)
    return FileRepository(tmp_path)


def _executor(repo, **kwargs):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(db, RepositoryBinding(repo), **kwargs)


COUNT_SQL = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"


def record_starts(repo):
    return {
        uri: read_file_metadata(repo.path_of(uri))[1]["byte_offset"].tolist()
        for uri in repo.uris()
    }


# -- spec validation and trigger windows ----------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(uri_suffix="a", kind="lightning-strike")

    def test_zero_times_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(uri_suffix="a", kind=TRANSIENT_OSERROR, times=0)

    def test_negative_at_byte_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(uri_suffix="a", kind=TRANSIENT_OSERROR, at_byte=-1)

    def test_fires_on_reads_covering_its_byte(self):
        spec = FaultSpec(uri_suffix="a", kind=TRANSIENT_OSERROR, at_byte=100)
        assert spec.covers(0, None)  # a read to the end of the file
        assert spec.covers(100, 101) and spec.covers(36, 164)
        assert not spec.covers(0, 100) and not spec.covers(101, 200)

    def test_no_byte_covers_every_read(self):
        spec = FaultSpec(uri_suffix="a", kind=TRANSIENT_OSERROR)
        assert all(spec.covers(start, start + 64) for start in (0, 64, 10**9))

    def test_forever_fires_on_every_covering_read(self, repo):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        plan = FaultPlan([
            FaultSpec(uri_suffix=uri, kind=READ_LATENCY, at_byte=0,
                      times=-1, delay_seconds=0.0)
        ])
        with plan.install():
            for _ in range(3):
                read_records(path, uri)
        assert [f.offset for f in plan.log] == [0, 0, 0]

    def test_times_counts_firings_per_uri(self, repo):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        second = read_file_metadata(path)[1]["byte_offset"].tolist()[1]
        plan = FaultPlan([
            FaultSpec(uri_suffix=uri, kind=READ_LATENCY, at_byte=second,
                      times=2, delay_seconds=0.0)
        ])
        with plan.install():
            for _ in range(3):
                read_records(path, uri)
        # One read of each pass covers the second record's header.
        assert [f.offset for f in plan.log] == [second, second]


# -- seed determinism ------------------------------------------------------------


class TestSeeding:
    FILES = {
        "x/a.xseed": [0, 512, 1024], "x/b.xseed": [0, 640],
        "y/c.xseed": [0], "y/d.xseed": [0, 704, 1408], "y/e.xseed": [0, 576],
    }

    def test_same_seed_same_specs(self):
        one = FaultPlan.seeded(7, self.FILES)
        two = FaultPlan.seeded(7, dict(reversed(self.FILES.items())))
        assert one.specs == two.specs

    def test_different_seeds_eventually_differ(self):
        base = FaultPlan.seeded(0, self.FILES).specs
        assert any(
            FaultPlan.seeded(seed, self.FILES).specs != base
            for seed in range(1, 10)
        )

    def test_seeded_draws_from_requested_kinds(self):
        plan = FaultPlan.seeded(
            3, self.FILES, kinds=(READ_LATENCY,), fault_rate=1.0
        )
        assert len(plan.specs) == len(self.FILES)
        assert all(spec.kind == READ_LATENCY for spec in plan.specs)

    def test_seeded_faults_sit_at_record_starts(self):
        plan = FaultPlan.seeded(5, self.FILES, fault_rate=1.0)
        assert all(
            spec.at_byte in self.FILES[spec.uri_suffix] for spec in plan.specs
        )

    def test_recoverable_kinds_exclude_short_read(self):
        assert SHORT_READ not in RECOVERABLE_KINDS
        assert set(RECOVERABLE_KINDS) < set(FAULT_KINDS)


# -- injection mechanics at the volume layer -------------------------------------


class TestInjection:
    def test_transient_oserror_fires_once_then_recovers(self, repo):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        plan = FaultPlan(
            [FaultSpec(uri_suffix=uri, kind=TRANSIENT_OSERROR, times=1)]
        )
        with plan.install():
            with pytest.raises(OSError):
                read_records(path, uri)
            # Firings are counted per URI: the spec has fired its one time,
            # so the same call now succeeds.
            assert read_records(path, uri)
        assert [f.kind for f in plan.log] == [TRANSIENT_OSERROR]
        assert plan.log[0].offset == 0

    def test_short_read_surfaces_as_parse_failure(self, repo):
        uri = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=uri, kind=SHORT_READ, at_byte=0)]
        )
        with plan.install():
            with pytest.raises(Exception) as excinfo:
                read_records(repo.path_of(uri), uri)
        assert excinfo.value is not None

    def test_stale_flip_bumps_mtime_after_read(self, repo):
        uri = repo.uris()[0]
        path = repo.path_of(uri)
        before = path.stat().st_mtime_ns
        plan = FaultPlan(
            [FaultSpec(uri_suffix=uri, kind=STALE_FLIP, at_byte=0)]
        )
        with plan.install():
            read_records(path, uri)
        assert path.stat().st_mtime_ns > before

    def test_latency_wait_is_interruptible(self, repo):
        uri = repo.uris()[0]
        interrupt = threading.Event()
        interrupt.set()  # already fired: waits must return immediately
        plan = FaultPlan(
            [
                FaultSpec(
                    uri_suffix=uri,
                    kind=READ_LATENCY,
                    times=-1,
                    delay_seconds=30.0,
                )
            ],
            interrupt=interrupt,
        )
        started = time.perf_counter()
        with plan.install():
            read_records(repo.path_of(uri), uri)
        assert time.perf_counter() - started < 1.0

    def test_install_restores_previous_hook(self, repo):
        plan = FaultPlan([])
        assert get_volume_io_hook() is None
        with plan.install():
            assert get_volume_io_hook() is plan
        assert get_volume_io_hook() is None

    def test_unmatched_uris_untouched(self, repo):
        uri = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix="no-such-file", kind=TRANSIENT_OSERROR)]
        )
        with plan.install():
            assert read_records(repo.path_of(uri), uri)
        assert plan.log == []


# -- engine response: absorb or surface, identically across runs -----------------


class TestEngineDeterminism:
    def _run_with_seed(self, repo, seed, executor=None):
        """A skip-mode query under the seeded plan, on ``executor`` (a
        fresh standalone one when None)."""
        executor = executor or _executor(repo, on_mount_error="skip")
        plan = FaultPlan.seeded(
            seed,
            record_starts(repo),
            kinds=(TRANSIENT_OSERROR,),
            fault_rate=0.6,
            times=-1,  # persistent: the retry ladder cannot absorb these
        )
        with plan.install():
            outcome = executor.execute(COUNT_SQL)
        return plan, outcome

    def test_same_seed_identical_failure_report(self, repo):
        plan_a, out_a = self._run_with_seed(repo, seed=11)
        plan_b, out_b = self._run_with_seed(repo, seed=11)
        assert plan_a.signature() == plan_b.signature()
        report_a = out_a.mount_failures
        report_b = out_b.mount_failures
        assert report_a.uris() == report_b.uris()
        assert [f.error for f in report_a.failures] == [
            f.error for f in report_b.failures
        ]
        assert out_a.rows == out_b.rows

    def test_signature_stable_across_worker_counts(self, repo, engine):
        # Faults are keyed by byte and counted per URI, so a query service's
        # worker interleaving cannot change which fire — only the log
        # *order*, which signature() sorts.
        plan_serial, _ = self._run_with_seed(repo, seed=11)
        plan_parallel, _ = self._run_with_seed(
            repo, seed=11, executor=engine(repo, 4, "skip")
        )
        assert plan_serial.signature() == plan_parallel.signature()

    def test_transient_fault_absorbed_by_retry(self, repo):
        baseline = _executor(repo).execute(COUNT_SQL).rows
        executor = _executor(repo)
        victim = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim, kind=TRANSIENT_OSERROR, times=1)]
        )
        with plan.install():
            outcome = executor.execute(COUNT_SQL)
        assert outcome.rows == baseline
        assert outcome.trace.counters["restarts"] >= 1

    def test_persistent_fault_surfaces_uri_fail_fast(self, repo):
        executor = _executor(repo)
        victim = repo.uris()[1]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim, kind=TRANSIENT_OSERROR, times=-1)]
        )
        with plan.install():
            with pytest.raises(FileIngestError) as excinfo:
                executor.execute(COUNT_SQL)
        assert excinfo.value.mount_uri == victim


# -- a CSV file reads through the hook like a volume --------------------------------


class _ByteCounter(collections.Counter):
    """A volume I/O hook: the bytes read of each URI."""

    def wrap(self, path, uri, handle):
        with handle:
            data = handle.read()
        self[uri] += len(data)
        return io.BytesIO(data)


class TestCsvReadsThroughTheHook:
    SQL = "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri"

    @pytest.fixture()
    def mixed(self, mixed_reference):
        """The mixed repository, and the URI of its one CSV file."""
        repo = FileRepository(mixed_reference.root, (".xseed", ".tscsv"))
        [csv] = [uri for uri in repo.uris() if uri.endswith(".tscsv")]
        return repo, csv

    def test_a_transient_csv_fault_is_retried_to_the_same_answer(self, mixed):
        repo, csv = mixed
        clean = _executor(repo).execute(self.SQL).rows
        executor = _executor(repo)
        plan = FaultPlan([FaultSpec(uri_suffix=csv, kind=TRANSIENT_OSERROR)])
        with plan.install():
            outcome = executor.execute(self.SQL)
        assert outcome.rows == clean
        assert [(f.uri, f.kind) for f in plan.log] == [(csv, TRANSIENT_OSERROR)]
        assert outcome.trace.counters["restarts"] == 1

    def test_a_counting_hook_sees_the_csv_files_bytes(self, mixed):
        repo, csv = mixed
        executor = _executor(repo)
        counter = _ByteCounter()
        previous = set_volume_io_hook(counter)
        try:
            executor.execute(self.SQL)
        finally:
            set_volume_io_hook(previous)
        assert counter[csv] == repo.path_of(csv).stat().st_size
