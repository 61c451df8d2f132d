"""The query service's mount scheduler with one client (serve/scheduler.py).

Each cell drives a :class:`MountScheduler` (batch window 0) through one
query's client against a synthetic extract function — ordering,
single-flight, backpressure, work stealing, error propagation — without
standing up a repository; ``workers=1`` cells start no thread, so every
take steals inline. End-to-end equivalence under a service's
``mount_workers=4`` lives in test_equivalence_property.py; failure
injection through a real service in test_failure_injection.py.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.mounting import ExtractResult
from repro.db import Column, ColumnBatch, DataType
from repro.db.errors import IngestError
from repro.obs import MountSpan, QueryTrace, worker_busy_seconds
from repro.serve.scheduler import WORKER_THREAD_PREFIX, MountScheduler


def tagged_result(uri, io_seconds=0.0):
    """A one-row batch whose value identifies the uri it came from."""
    tag = Column.from_pylist(DataType.INT64, [hash(uri) % 10**9])
    return ExtractResult(ColumnBatch(["tag"], [tag]), io_seconds)


class RecordingExtract:
    """An ExtractFn that records call order, threads, and concurrency."""

    def __init__(self, delay=0.0, fail_uris=(), block_uris=()):
        self.delay = delay
        self.fail_uris = set(fail_uris)
        self.block_uris = set(block_uris)
        self.unblock = threading.Event()
        self.calls = []
        self.threads = {}
        self._lock = threading.Lock()

    def __call__(self, uri, table_name, request=None):
        with self._lock:
            self.calls.append(uri)
            self.threads[uri] = threading.get_ident()
        if uri in self.block_uris:
            assert self.unblock.wait(timeout=10), "extract left blocked"
        if self.delay:
            time.sleep(self.delay)
        if uri in self.fail_uris:
            raise IngestError(f"injected failure for {uri}")
        return tagged_result(uri, 0.008)  # pretend one simulated seek


def mount_spans(pool):
    """The files ``pool``'s query consumed, as recorded in its trace."""
    return [s for s in pool.trace.spans if isinstance(s, MountSpan)]


def keys(n):
    return [("D", f"file-{i:03}.xseed") for i in range(n)]


def live_workers():
    """The mount scheduler threads alive in this process."""
    return [
        t for t in threading.enumerate()
        if t.name.startswith(WORKER_THREAD_PREFIX)
    ]


@contextmanager
def one_tenant(extract, workers):
    """The one client of a scheduler with ``workers`` threads (none for 1),
    closed on exit."""
    with MountScheduler(extract, 0 if workers == 1 else workers) as s:
        yield s.client()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_results_match_keys_in_plan_order(workers):
    tasks = keys(20)
    extract = RecordingExtract()
    with one_tenant(extract, workers) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            batch = pool.take(uri, table_name).batch
            assert batch.column("tag").values[0] == hash(uri) % 10**9
    assert sorted(extract.calls) == sorted(uri for _, uri in tasks)
    assert len(mount_spans(pool)) == 20


def test_serial_fallback_stays_on_consumer_thread():
    tasks = keys(6)
    extract = RecordingExtract()
    with one_tenant(extract, 1) as pool:
        pool.prefetch(tasks)
        assert not live_workers()  # no threads were started
        for table_name, uri in tasks:
            pool.take(uri, table_name)
    me = threading.get_ident()
    assert all(ident == me for ident in extract.threads.values())
    # Inline extraction still extracts lazily, in take order.
    assert extract.calls == [uri for _, uri in tasks]


def test_single_flight_extracts_once_serves_every_take():
    (key,) = keys(1)
    table_name, uri = key
    other = ("D", "other.xseed")  # a self-join takes `key` twice
    extract = RecordingExtract()
    with one_tenant(extract, 2) as pool:
        pool.prefetch([key, other, key])
        first = pool.take(uri, table_name).batch
        second = pool.take(other[1], other[0]).batch
        third = pool.take(uri, table_name).batch
    assert extract.calls.count(uri) == 1
    assert first.column("tag").values[0] == third.column("tag").values[0]
    assert second.column("tag").values[0] == hash(other[1]) % 10**9


def test_unprefetched_take_extracts_inline():
    extract = RecordingExtract()
    with one_tenant(extract, 4) as pool:
        batch = pool.take("surprise.xseed", "D").batch
    assert batch.num_rows == 1
    assert extract.threads["surprise.xseed"] == threading.get_ident()


def test_backpressure_bounds_unconsumed_batches():
    """At most 2 × workers batches are running-or-unconsumed at once."""
    workers = 4
    produced = []
    high_water = [0]

    def extract(uri, table_name, request=None):
        produced.append(uri)
        # A grant is counted before its task stops counting against the
        # bound, so this is the claimed-and-unconsumed count, race-free.
        high_water[0] = max(
            high_water[0], len(produced) - pool._scheduler.stats.grants
        )
        return tagged_result(uri)

    tasks = keys(24)
    with one_tenant(extract, workers) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            time.sleep(0.002)  # slow consumer: producers must wait
            pool.take(uri, table_name)
    assert high_water[0] <= 2 * workers
    assert len(produced) == len(tasks)


def test_slow_consumer_never_deadlocks():
    """Regression: workers once claimed tasks before backpressure slots, so
    a consumer waiting on a claimed-but-slotless task deadlocked against
    completed batches for later branches holding every slot."""
    tasks = keys(40)
    extract = RecordingExtract()
    with one_tenant(extract, 4) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            time.sleep(0.001)
            pool.take(uri, table_name)
    assert len(mount_spans(pool)) == len(tasks)


def test_consumer_steals_when_workers_are_busy():
    """Work conservation: a branch whose task no worker has claimed yet is
    extracted inline instead of waiting behind the blocked workers."""
    blocked = [("D", "slow-a.xseed"), ("D", "slow-b.xseed")]
    wanted = ("D", "wanted.xseed")
    extract = RecordingExtract(block_uris={uri for _, uri in blocked})
    with one_tenant(extract, 2) as pool:
        try:
            pool.prefetch(blocked + [wanted])
            # Both workers are stuck inside the blocking extracts; the third
            # task is still pending, so the consumer takes it inline.
            deadline = time.monotonic() + 5
            while len(extract.calls) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            batch = pool.take(wanted[1], wanted[0]).batch
            assert extract.threads[wanted[1]] == threading.get_ident()
            assert batch.num_rows == 1
            extract.unblock.set()
            for table_name, uri in blocked:
                pool.take(uri, table_name)
        finally:
            extract.unblock.set()


def test_worker_failure_cancels_and_surfaces_uri():
    """The failed file's branch raises its error, named; the fail-fast query
    then closes its client, withdrawing what no worker had claimed."""
    tasks = keys(24)
    bad_uri = tasks[3][1]
    extract = RecordingExtract(delay=0.002, fail_uris={bad_uri})
    with one_tenant(extract, 4) as pool:
        pool.prefetch(tasks)
        with pytest.raises(IngestError) as excinfo:
            for table_name, uri in tasks:
                pool.take(uri, table_name)
        pool.close()
    assert excinfo.value.mount_uri == bad_uri
    # Backpressure and the withdrawal kept it from extracting everything.
    assert len(extract.calls) < len(tasks)
    assert pool._scheduler.pending_tasks() == 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_skip_mode_poisons_only_the_failed_key(workers):
    """One bad file must not cancel the rest: every other branch completes,
    and only takes of the failed key raise."""
    tasks = keys(12)
    bad_uri = tasks[3][1]
    extract = RecordingExtract(delay=0.002, fail_uris={bad_uri})
    with one_tenant(extract, workers) as pool:
        pool.prefetch(tasks)
        failures = []
        for table_name, uri in tasks:
            try:
                batch = pool.take(uri, table_name).batch
            except IngestError as exc:
                failures.append((uri, exc))
                continue
            assert batch.column("tag").values[0] == hash(uri) % 10**9
    assert [uri for uri, _ in failures] == [bad_uri]
    assert failures[0][1].mount_uri == bad_uri
    # Every file was attempted — nothing was cancelled.
    assert sorted(extract.calls) == sorted(uri for _, uri in tasks)


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        MountScheduler(lambda u, t, r=None: tagged_result(u), workers=-1)


def test_timings_critical_path_math():
    trace = QueryTrace()
    for uri, worker, extract in (("a", 0, 0.1), ("b", 0, 0.1), ("c", 1, 0.2)):
        trace.record(MountSpan(
            "mount", uri, worker=worker, extract_seconds=extract,
            io_seconds=0.1,
        ))
    busy = worker_busy_seconds(trace)
    assert len(trace.spans) == 3
    assert sum(busy.values()) == pytest.approx(0.7)  # serialized
    assert busy == {0: pytest.approx(0.4), 1: pytest.approx(0.3)}
    assert max(busy.values()) == pytest.approx(0.4)  # busiest chain
    assert sum(busy.values()) / max(busy.values()) == pytest.approx(0.7 / 0.4)
    assert worker_busy_seconds(QueryTrace()) == {}
