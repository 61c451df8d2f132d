"""The remote-repository backend and its resilient transport.

Unit-level coverage of every layer the ``remote://`` scheme stacks up:
URI helpers, the ranged-GET span planner, the deterministic network
model, the simulated object store, the resilient transport (retries,
budgets, breakers, deadlines), the remote repository, and the
federated dispatcher. End-to-end fault grids live in
``test_remote_chaos.py``.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core import TwoStageExecutor
from repro.core.cache import CachePolicy, IngestionCache
from repro.core.governor import QueryBudget, QueryGovernor
from repro.core.metastore import MetadataStore
from repro.core.mounting import MountContext, MountService
from repro.core.recordmap import RecordMapIndex
from repro.db import Database
from repro.db.errors import (
    CircuitOpenError,
    FileIngestError,
    IngestError,
    QueryBudgetExceeded,
    QueryCancelledError,
    RemoteObjectMissingError,
    RemoteTransportError,
    StaleFileError,
)
from repro.db.expr import BoolOp, ColumnRef, Comparison, Literal
from repro.db.types import DataType
from repro.ingest import RepositoryBinding, XSeedExtractor, lazy_ingest_metadata
from repro.ingest.formats import MountRequest, default_registry
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    XSeedRecord,
    generate_repository,
    read_records,
    write_volume,
)
from repro.mseed.iohooks import FileSource
from repro.mseed.volume import coalesce_spans
from repro.remote import simstore as simstore_module
from repro.remote.simstore import ObjectStat, PreconditionFailed
from repro.remote.transport import CIRCUIT_CLOSED, CIRCUIT_OPEN
from repro.serve import QueryService
from repro.testing.faults import STALE_FLIP, STALL, FaultPlan, FaultSpec
from repro.remote import transport as transport_module
from repro.remote import (
    FederatedRepository,
    NetworkModel,
    NetworkProfile,
    RemoteExtractor,
    RemoteRepository,
    ResilientTransport,
    SimulatedObjectStore,
    TransportPolicy,
    endpoint_of,
    is_remote_uri,
    parse_remote_uri,
    remote_uri,
)
from repro.remote.repository import RemoteObject

SPEC = RepositorySpec(
    stations=("ISK",),
    channels=("BHE",),
    days=1,
    sample_rate=0.02,
    samples_per_record=100,
)


@pytest.fixture(scope="module")
def objects_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("remote_objects")
    generate_repository(root, SPEC)
    return root


def _store(objects_dir, **profile_kwargs):
    return SimulatedObjectStore(
        "seis-eu", objects_dir, profile=NetworkProfile(**profile_kwargs)
    )


def _read(staged):
    """The bytes of a fetch's snapshot, read as a reader reads them."""
    with staged.source.open() as handle:
        return handle.read()


class TestRemoteUris:
    def test_round_trip(self):
        uri = remote_uri("seis-eu", "2010/day1.xseed")
        assert uri == "remote://seis-eu/2010/day1.xseed"
        assert is_remote_uri(uri)
        assert parse_remote_uri(uri) == ("seis-eu", "2010/day1.xseed")
        assert endpoint_of(uri) == "seis-eu"

    def test_local_uris_have_no_endpoint(self):
        assert not is_remote_uri("2010/day1.xseed")
        assert endpoint_of("2010/day1.xseed") is None
        assert endpoint_of("/abs/path.xseed") is None

    def test_malformed_uris_rejected(self):
        with pytest.raises(ValueError):
            remote_uri("", "key")
        with pytest.raises(ValueError):
            remote_uri("host/extra", "key")
        for bad in ("remote://", "remote://host", "remote://host/", "file.x"):
            with pytest.raises(ValueError):
                parse_remote_uri(bad)

    def test_endpoint_of_never_raises(self):
        # Malformed remote URIs still group under their host-ish prefix.
        assert endpoint_of("remote://host") == "host"
        assert endpoint_of("remote://") is None


class TestCoalesceSpans:
    def test_empty_and_degenerate(self):
        assert coalesce_spans([], 10) == []
        assert coalesce_spans([(5, 5), (7, 3)], 10) == []

    def test_small_gaps_absorbed_large_gaps_kept(self):
        spans = [(0, 10), (12, 20), (100, 110)]
        assert coalesce_spans(spans, 2) == [(0, 20), (100, 110)]
        assert coalesce_spans(spans, 1) == [(0, 10), (12, 20), (100, 110)]
        assert coalesce_spans(spans, 80) == [(0, 110)]

    def test_overlaps_and_unordered_input(self):
        spans = [(50, 60), (0, 30), (20, 40)]
        assert coalesce_spans(spans, 0) == [(0, 40), (50, 60)]

    def test_contained_span_does_not_shrink_the_union(self):
        assert coalesce_spans([(0, 100), (10, 20)], 0) == [(0, 100)]


class TestNetworkModel:
    def test_same_seed_same_key_replays_exactly(self):
        profile = NetworkProfile(
            latency_seconds=0.001,
            jitter=0.5,
            loss_probability=0.3,
            heavy_tail_probability=0.2,
        )
        a = NetworkModel(profile, seed=7)
        b = NetworkModel(profile, seed=7)
        # Interleaving per-key draws differently must not change any
        # key's own sequence — that is what makes chaos runs replayable
        # under arbitrary thread schedules.
        seq_a = [a.draw("GET:x") for _ in range(5)] + [a.draw("GET:y")]
        b.draw("GET:y")
        seq_b = [b.draw("GET:x") for _ in range(5)]
        assert [d.latency_seconds for d in seq_a[:5]] == [
            d.latency_seconds for d in seq_b
        ]
        assert [d.lost for d in seq_a[:5]] == [d.lost for d in seq_b]

    def test_distinct_seeds_diverge(self):
        profile = NetworkProfile(latency_seconds=0.001, jitter=1.0)
        a = [NetworkModel(profile, seed=1).draw("k") for _ in range(1)]
        b = [NetworkModel(profile, seed=2).draw("k") for _ in range(1)]
        assert a[0].latency_seconds != b[0].latency_seconds

    def test_loss_extremes(self):
        lossy = NetworkModel(NetworkProfile(loss_probability=0.999), seed=0)
        never = NetworkModel(NetworkProfile(loss_probability=0.0), seed=0)
        assert sum(lossy.draw("k").lost for _ in range(8)) >= 7
        assert not any(never.draw("k").lost for _ in range(8))
        with pytest.raises(ValueError):
            NetworkProfile(loss_probability=1.0)  # a dead link is set_down()

    def test_transfer_seconds(self):
        model = NetworkModel(
            NetworkProfile(bandwidth_bytes_per_second=1000), seed=0
        )
        assert model.transfer_seconds(500) == pytest.approx(0.5)
        unmetered = NetworkModel(NetworkProfile(), seed=0)
        assert unmetered.transfer_seconds(10**9) == 0.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(latency_seconds=-1)
        with pytest.raises(ValueError):
            NetworkProfile(loss_probability=1.5)
        with pytest.raises(ValueError):
            NetworkProfile(bandwidth_bytes_per_second=0)

    @pytest.mark.parametrize("name", [
        "latency_seconds",
        "bandwidth_bytes_per_second",
        "heavy_tail_multiplier",
    ])
    def test_non_finite_profile_rejected(self, name):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                NetworkProfile(**{name: value})


class TestSimulatedObjectStore:
    def test_list_head_get_mirror_the_directory(self, objects_dir):
        store = _store(objects_dir)
        page = store.list_keys()
        assert page.next_after is None
        assert [entry.key for entry in page.entries] == sorted(
            p.relative_to(objects_dir).as_posix()
            for p in objects_dir.rglob("*")
            if p.is_file()
        )
        key = page.entries[0].key
        stat = store.head(key)
        assert stat == page.entries[0]  # a LIST entry is what a HEAD answers
        raw = (objects_dir / key).read_bytes()
        assert stat.size == len(raw)
        assert store.get(key) == (stat, raw)  # what a HEAD answers, and the bytes
        assert store.stats.lists == 1
        assert store.stats.heads == 1
        assert store.stats.gets == 1

    def test_ranged_get_returns_the_exact_slice(self, objects_dir):
        store = _store(objects_dir)
        key = store.list_keys().entries[0].key
        raw = (objects_dir / key).read_bytes()
        stat = store.head(key)
        assert store.get(key, 10, 50) == (stat, raw[10:60])
        assert store.stats.ranged_gets == 1
        # Tail reads clamp at end-of-object, like HTTP range semantics.
        assert store.get(key, len(raw) - 5, 100) == (stat, raw[-5:])

    def test_conditional_get_is_refused_before_any_body_byte(self, tmp_path):
        (tmp_path / "a.xseed").write_bytes(b"A" * 256)
        store = SimulatedObjectStore("seis-eu", tmp_path)
        stat = store.head("a.xseed")
        assert store.get("a.xseed", 0, 16, stat.signature) == (stat, b"A" * 16)
        (tmp_path / "a.xseed").write_bytes(b"B" * 300)
        with pytest.raises(PreconditionFailed):
            store.get("a.xseed", 0, 16, stat.signature)
        # The request was made and answered; no GET was served.
        stats = store.stats
        assert (stats.requests, stats.heads, stats.gets) == (3, 1, 1)
        assert (stats.precondition_failed, stats.bytes_served) == (1, 16)
        now = store.head("a.xseed")
        assert store.get("a.xseed", 0, 16, now.signature) == (now, b"B" * 16)

    def test_object_changed_while_served_resets_the_response(
        self, objects_dir, tmp_path
    ):
        shutil.copytree(objects_dir, tmp_path / "objects")
        store = SimulatedObjectStore("seis-eu", tmp_path / "objects")
        key = store.list_keys().entries[0].key
        before = store.head(key)
        # The first chunk is read, then the object's mtime moves.
        plan = FaultPlan([FaultSpec(uri_suffix=key, kind=STALE_FLIP)])
        with plan.install():
            with pytest.raises(ConnectionResetError, match="changed"):
                store.get(key)
            assert (store.stats.torn, store.stats.bytes_served) == (1, 0)
            stat, data = store.get(key)  # the fault is spent: a stable object
        assert stat.signature != before.signature
        assert data == (tmp_path / "objects" / key).read_bytes()
        (tmp_path / "objects" / key).unlink()
        with pytest.raises(FileNotFoundError):
            store.get(key)

    def test_down_endpoint_refuses_every_request(self, objects_dir):
        store = _store(objects_dir)
        key = store.list_keys().entries[0].key
        store.set_down()
        with pytest.raises(ConnectionRefusedError):
            store.get(key)
        with pytest.raises(ConnectionRefusedError):
            store.head(key)
        assert store.stats.refused == 2
        store.set_down(False)
        assert store.get(key)  # recovered

    def test_missing_object_is_not_found(self, objects_dir):
        store = _store(objects_dir)
        with pytest.raises(FileNotFoundError):
            store.head("no/such.xseed")
        with pytest.raises(FileNotFoundError):
            store.get("no/such.xseed")

    def test_listing_pages_in_key_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 2)
        for key in ("b/2.xseed", "a.xseed", "b/1.xseed", "c.xseed", "a/0.xseed"):
            (tmp_path / key).parent.mkdir(exist_ok=True)
            (tmp_path / key).write_bytes(key.encode())
        store = SimulatedObjectStore("seis-eu", tmp_path)
        pages, after = [], None
        while True:
            page = store.list_keys(after)
            pages.append([entry.key for entry in page.entries])
            after = page.next_after
            if after is None:
                break
        assert pages == [
            ["a.xseed", "a/0.xseed"],
            ["b/1.xseed", "b/2.xseed"],
            ["c.xseed"],
        ]
        assert (store.stats.requests, store.stats.lists) == (3, 3)
        # The continuation is a position in key order, not an object: it
        # need not exist (any more) for the listing to go on from there.
        assert [e.key for e in store.list_keys("b/1").entries] == [
            "b/1.xseed",
            "b/2.xseed",
        ]
        for entry in store.list_keys("b/2.xseed").entries:
            assert entry == store.head(entry.key)

    @pytest.mark.parametrize("page_entries", [2, 3])
    def test_a_prefixed_listing_is_the_full_one_filtered(
        self, tmp_path, monkeypatch, page_entries
    ):
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", page_entries)
        root = tmp_path / "root"
        keys = (
            "a.xseed", "a/0.xseed", "b/1.xseed", "b/2.xseed", "b/c/3.xseed",
            "bb/4.xseed", "c.xseed",
        )
        for key in keys:
            (root / key).parent.mkdir(parents=True, exist_ok=True)
            (root / key).write_bytes(key.encode())
        os.symlink(root / "b", root / "up")  # the full walk does not enter it
        store = SimulatedObjectStore("seis-eu", root)

        def paged(prefix=None):
            listed, after = [], None
            while True:
                if prefix is None:
                    page = store.list_keys(after)
                else:
                    page = store.list_keys(after, prefix=prefix)
                listed.extend(entry.key for entry in page.entries)
                after = page.next_after
                if after is None:
                    return listed

        full = paged()
        assert full == list(keys)
        assert paged("") == full
        for prefix in (
            "a", "a/", "b", "b/", "b/1", "b/c/", "bb/", "c.x", "a.xseed",
            "up/", "up/1", "../", "b/../a", "zz", "no/such/dir/",
        ):
            expected = [key for key in full if key.startswith(prefix)]
            assert paged(prefix) == expected, prefix
        empty = store.list_keys(prefix="no/such/dir/")
        assert (empty.entries, empty.next_after) == ((), None)
        page = ResilientTransport(store).list_page("b/", None, None)
        assert [stat.key for stat in page.entries] == paged("b/")[:page_entries]

    def test_list_body_is_charged_to_a_link_with_a_bandwidth(self, objects_dir):
        entries = len(_store(objects_dir).list_keys().entries)
        body = entries * simstore_module.LIST_ENTRY_BYTES
        store = _store(objects_dir, bandwidth_bytes_per_second=body / 0.05)
        started = time.monotonic()
        store.list_keys()
        assert time.monotonic() - started >= 0.05

    def test_a_key_escaping_the_root_is_not_found(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (tmp_path / "outside.xseed").write_bytes(b"secret")
        os.symlink(tmp_path, root / "up")
        store = SimulatedObjectStore("seis-eu", root)
        for key in ("../outside.xseed", "up/outside.xseed"):
            with pytest.raises(FileNotFoundError):
                store.head(key)
            with pytest.raises(FileNotFoundError):
                store.get(key)

    def test_modeled_loss_resets_the_connection(self, objects_dir):
        store = SimulatedObjectStore(
            "flaky",
            objects_dir,
            profile=NetworkProfile(loss_probability=0.999),
            seed=3,
        )
        with pytest.raises(ConnectionResetError):
            store.list_keys()
        assert store.stats.lost == 1

    def test_a_request_stops_at_its_deadline(self, objects_dir):
        store = _store(objects_dir, latency_seconds=5.0)
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            store.list_keys(deadline=time.monotonic() + 0.02)
        assert time.monotonic() - started < 1.0  # not the 5 s of latency
        with pytest.raises(TimeoutError):  # a zero wait past it, too
            _store(objects_dir).list_keys(deadline=time.monotonic() - 1.0)

    def test_a_stalled_chunk_meets_the_deadline_at_the_next_wait(
        self, objects_dir
    ):
        store = _store(objects_dir)
        key = store.list_keys().entries[0].key
        plan = FaultPlan([FaultSpec(key, STALL, stall_seconds=0.1)])
        started = time.monotonic()
        with plan.install(), pytest.raises(TimeoutError):
            store.get(key, deadline=time.monotonic() + 0.02)
        # The read is not cut: the stall is served, then the wait after it
        # finds the deadline passed.
        assert time.monotonic() - started >= 0.1
        assert store.stats.bytes_served == 0


class _ScriptedStore:
    """A stub endpoint whose per-key behavior is scripted for transport
    tests: fail N times, stall until the deadline, or answer instantly."""

    def __init__(self, endpoint="stub-ep", fail_times=0, payload=b"payload"):
        self.endpoint = endpoint
        self.payload = payload
        self.mtime_ns = 1  # bump to script a rewrite
        self.fail_times = fail_times
        self.calls = 0
        self.stall_keys = set()
        self._stalled_once = set()
        self._lock = threading.Lock()

    def answer(self, key):
        """What a GET of ``key`` answers now."""
        return ObjectStat(key, len(self.payload), self.mtime_ns), self.payload

    def get(
        self, key, start=0, length=None, if_match=None, deadline=None, token=None
    ):
        with self._lock:
            self.calls += 1
            remaining = self.fail_times
            if remaining > 0:
                self.fail_times -= 1
            stall = key in self.stall_keys and key not in self._stalled_once
            if stall:
                self._stalled_once.add(key)
        if remaining > 0:
            raise ConnectionResetError("scripted reset")
        if stall:
            # Hang until the attempt's deadline, as the simulated store's
            # waits do (or give up after 2 s so a transport that passes no
            # deadline cannot hang the test suite).
            wait = 2.0 if deadline is None else deadline - time.monotonic()
            time.sleep(max(0.0, wait))
            raise TimeoutError("scripted stall timed out")
        if key == "missing":
            raise FileNotFoundError(key)
        stat, payload = self.answer(key)
        if if_match not in (None, stat.signature):
            raise PreconditionFailed(if_match, stat)
        return stat, payload

    def head(self, key, deadline=None, token=None):
        raise NotImplementedError

    def list_keys(self, after=None, deadline=None, token=None):
        raise NotImplementedError


class _GatedStore(_ScriptedStore):
    """``get("probe")`` parks until released, then answers or fails."""

    def __init__(self):
        super().__init__(fail_times=1)  # the failure that opens the circuit
        self.entered = threading.Event()
        self.release = threading.Event()
        self.probe_fails = False
        self.probe_cancelled = False

    def get(
        self, key, start=0, length=None, if_match=None, deadline=None, token=None
    ):
        if key == "probe":
            self.entered.set()
            assert self.release.wait(5.0)
            if self.probe_fails:
                raise ConnectionResetError("probe failed")
            if self.probe_cancelled:
                # What a store raises when the query's token fires mid-read.
                raise QueryCancelledError("probe's query cancelled")
        return super().get(key, start, length, if_match, deadline, token)


class TestHalfOpenProbeInFlight:
    """Mount workers reach a recovering endpoint together: the request
    that is second waits for the probe's verdict."""

    def _second_request_during_probe(self, cooldown=5.0):
        skipped = [0.0]
        store = _GatedStore()
        transport = ResilientTransport(
            store,
            TransportPolicy(
                max_attempts=1,
                backoff_seconds=0.0,
                breaker_failures=1,
                breaker_cooldown_seconds=cooldown,
            ),
            clock=lambda: time.monotonic() + skipped[0],
        )
        with pytest.raises(RemoteTransportError):
            transport.get("k")
        skipped[0] = cooldown + 1.0  # past the cooldown: next request probes
        results = {}

        def call(name, key):
            try:
                results[name] = transport.get(key)
            except (
                CircuitOpenError,
                RemoteTransportError,
                QueryCancelledError,
            ) as exc:
                results[name] = exc

        probe = threading.Thread(target=call, args=("probe", "probe"))
        probe.start()
        assert store.entered.wait(5.0)
        waiter = threading.Thread(target=call, args=("waiter", "k"))
        waiter.start()
        return store, transport, probe, waiter, results

    def _finish(self, store, *threads):
        store.release.set()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()

    def test_probe_success_admits_the_waiter(self):
        store, transport, probe, waiter, results = (
            self._second_request_during_probe()
        )
        waiter.join(0.05)
        assert waiter.is_alive() and "waiter" not in results
        self._finish(store, probe, waiter)
        assert results == {
            "probe": store.answer("probe"),
            "waiter": store.answer("k"),
        }
        assert transport.stats.breaker_refusals == 0
        assert transport.breaker.state == CIRCUIT_CLOSED

    def test_probe_failure_refuses_the_waiter(self):
        store, transport, probe, waiter, results = (
            self._second_request_during_probe()
        )
        store.probe_fails = True
        self._finish(store, probe, waiter)
        assert isinstance(results["probe"], RemoteTransportError)
        assert isinstance(results["waiter"], CircuitOpenError)
        assert transport.stats.breaker_refusals == 1
        assert store.calls == 1  # only the request that opened the circuit

    def test_cancelled_probe_hands_its_slot_to_the_waiter(self):
        store, transport, probe, waiter, results = (
            self._second_request_during_probe()
        )
        store.probe_cancelled = True
        self._finish(store, probe, waiter)
        assert isinstance(results["probe"], QueryCancelledError)
        assert results["waiter"] == store.answer("k")  # it probed in turn
        assert transport.stats.breaker_refusals == 0
        assert transport.breaker.state == CIRCUIT_CLOSED

    def test_wait_is_bounded_without_a_request_timeout(self, monkeypatch):
        monkeypatch.setattr(transport_module, "_PROBE_WAIT_SECONDS", 0.05)
        store, transport, probe, waiter, results = (
            self._second_request_during_probe(cooldown=30.0)
        )
        waiter.join(5.0)  # the probe is still parked in the store
        assert not waiter.is_alive()
        assert isinstance(results["waiter"], CircuitOpenError)
        self._finish(store, probe)

    def test_wait_is_bounded_by_the_cooldown(self):
        store, transport, probe, waiter, results = (
            self._second_request_during_probe(cooldown=0.05)
        )
        waiter.join(5.0)  # the probe is still parked in the store
        assert not waiter.is_alive()
        assert isinstance(results["waiter"], CircuitOpenError)
        assert transport.stats.breaker_refusals == 1
        self._finish(store, probe)


class TestResilientTransport:
    def test_transient_failures_retried_to_success(self):
        store = _ScriptedStore(fail_times=2)
        transport = ResilientTransport(
            store, TransportPolicy(max_attempts=3, backoff_seconds=0.0)
        )
        assert transport.get("k") == store.answer("k")
        assert store.calls == 3
        assert transport.stats.retries == 2
        assert transport.stats.failures == 2
        assert transport.breaker.state == CIRCUIT_CLOSED

    def test_attempts_exhausted_surface_the_transport_error(self):
        store = _ScriptedStore(fail_times=100)
        transport = ResilientTransport(
            store, TransportPolicy(max_attempts=2, backoff_seconds=0.0)
        )
        with pytest.raises(RemoteTransportError) as excinfo:
            transport.get("k")
        assert excinfo.value.endpoint == "stub-ep"
        assert excinfo.value.transient
        assert store.calls == 2

    def test_missing_object_no_retry_no_breaker_trip(self):
        store = _ScriptedStore()
        transport = ResilientTransport(
            store, TransportPolicy(max_attempts=3, backoff_seconds=0.0)
        )
        with pytest.raises(RemoteObjectMissingError) as excinfo:
            transport.get("missing")
        assert not excinfo.value.transient  # not worth any retry ladder
        assert store.calls == 1
        assert transport.stats.retries == 0
        assert transport.breaker.state == CIRCUIT_CLOSED

    def test_breaker_opens_and_refuses_with_the_endpoint_named(self):
        store = _ScriptedStore(fail_times=10**6)
        transport = ResilientTransport(
            store,
            TransportPolicy(
                max_attempts=1,
                backoff_seconds=0.0,
                breaker_failures=3,
                breaker_cooldown_seconds=60.0,
            ),
        )
        breaker = transport.breaker
        for _ in range(3):
            with pytest.raises(RemoteTransportError):
                transport.get("k")
        assert breaker.state == CIRCUIT_OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            transport.get("k")
        assert excinfo.value.endpoint == "stub-ep"
        assert transport.stats.breaker_refusals == 1
        assert store.calls == 3  # the refusal never reached the store

    def test_retry_budget_is_shared_across_requests(self):
        store = _ScriptedStore(fail_times=10**6)
        transport = ResilientTransport(
            store,
            TransportPolicy(
                max_attempts=3,
                backoff_seconds=0.0,
                retry_budget_attempts=1,
                breaker_failures=100,
            ),
        )
        scope = MountContext()  # one query: both requests spend from it
        with pytest.raises(RemoteTransportError):
            transport.get("a", scope=scope)  # spends the whole budget on its retry
        with pytest.raises(RemoteTransportError):
            transport.get("b", scope=scope)  # gets zero retries
        assert transport.stats.retries == 1
        assert transport.stats.retries_denied == 2  # "a"'s 2nd retry + "b"'s
        assert store.calls == 3  # 2 attempts for "a", 1 for "b"

    def test_new_query_scope_starts_with_a_full_budget(self):
        store = _ScriptedStore(fail_times=10**6)
        transport = ResilientTransport(
            store,
            TransportPolicy(
                max_attempts=2,
                backoff_seconds=0.0,
                retry_budget_attempts=1,
                breaker_failures=100,
            ),
        )
        first = MountContext()
        with pytest.raises(RemoteTransportError):
            transport.get("a", scope=first)
        assert first.retry_budget(store.endpoint, 1).remaining() == 0
        # The next query brings its own scope; nothing is refilled, and the
        # first query's budget stays spent.
        second = MountContext()
        with pytest.raises(RemoteTransportError):
            transport.get("a", scope=second)
        assert transport.stats.retries == 2
        assert transport.stats.retries_denied == 0
        assert first.retry_budget(store.endpoint, 1).remaining() == 0

    def test_request_timeout_fires_and_counts(self):
        store = _ScriptedStore()
        store.stall_keys.add("slow")
        transport = ResilientTransport(
            store,
            TransportPolicy(
                request_timeout_seconds=0.05,
                max_attempts=1,
                backoff_seconds=0.0,
            ),
        )
        threads = threading.active_count()
        started = time.monotonic()
        with pytest.raises(RemoteTransportError) as excinfo:
            transport.get("slow")
        assert time.monotonic() - started < 1.0  # nowhere near the 2 s stall
        assert "timed out" in str(excinfo.value)
        assert excinfo.value.transient
        assert transport.stats.timeouts == 1
        # The attempt ran on this thread: nothing is left running behind it.
        assert threading.active_count() == threads

    def test_a_timed_out_attempt_is_retried(self):
        store = _ScriptedStore()
        store.stall_keys.add("slow")  # stalls once, then answers
        transport = ResilientTransport(
            store,
            TransportPolicy(
                request_timeout_seconds=0.05,
                max_attempts=2,
                backoff_seconds=0.0,
            ),
        )
        assert transport.get("slow") == store.answer("slow")
        stats = transport.stats
        assert (stats.timeouts, stats.retries, store.calls) == (1, 1, 2)

    def test_a_refused_condition_is_stale_not_a_transport_failure(self):
        store = _ScriptedStore()
        transport = ResilientTransport(
            store,
            TransportPolicy(
                max_attempts=3,
                backoff_seconds=0.0,
                retry_budget_attempts=4,
                breaker_failures=1,
            ),
        )
        scope = MountContext()
        held = store.answer("k")[0].signature
        assert transport.get("k", if_match=held, scope=scope) == store.answer("k")
        store.mtime_ns += 1  # rewritten
        with pytest.raises(StaleFileError) as excinfo:
            transport.get("k", if_match=held, uri="remote://stub-ep/k", scope=scope)
        # The mount layer's transient error, naming the file; the endpoint
        # answered, so: one call, no retry, nothing spent, no breaker
        # failure (a threshold of one would have opened the circuit).
        assert excinfo.value.transient
        assert excinfo.value.uri == "remote://stub-ep/k"
        assert not isinstance(excinfo.value, RemoteTransportError)
        assert store.calls == 2
        stats = transport.stats
        assert (stats.failures, stats.retries, stats.retries_denied) == (0, 0, 0)
        assert scope.retry_budget(store.endpoint, 4).spent() == 0
        assert transport.breaker.state == CIRCUIT_CLOSED
        assert transport.get("k", scope=scope) == store.answer("k")


class TestRemoteRepository:
    def test_uris_are_remote_and_owned(self, objects_dir):
        repo = RemoteRepository(_store(objects_dir))
        uris = repo.uris()
        assert uris and all(u.startswith("remote://seis-eu/") for u in uris)
        assert all(repo.owns_uri(u) for u in uris)
        assert not repo.owns_uri("2010/local.xseed")
        assert len(repo) == len(uris)

    @pytest.mark.parametrize("uri", [
        "2010/local.xseed", "remote://seis-us/2010/x.xseed",
    ])
    def test_foreign_uri_refused(self, objects_dir, tmp_path, uri):
        repo = RemoteRepository(_store(objects_dir))
        with pytest.raises(IngestError):
            repo.source_for(uri, default_registry())

    def test_request_without_byte_map_stages_the_whole_object(self, objects_dir):
        """No record map to trust: the whole object is fetched and the inner
        extractor selects from the bytes held."""
        repo = RemoteRepository(_store(objects_dir))
        uri = repo.uris()[0]
        path = objects_dir / parse_remote_uri(uri)[1]
        source, extractor = repo.source_for(uri, default_registry())
        lo, hi = XSeedExtractor().extract_metadata(
            FileSource(path, uri)
        ).records.start_time[:2]
        outcome = extractor.mount_selective(
            source, MountRequest(interval=(int(lo), int(hi) - 1))
        )
        assert outcome.bytes_read == path.stat().st_size
        assert outcome.records_decoded == 1 and outcome.records_skipped > 0

    def test_ensure_whole_stages_exact_bytes_then_reuses(self, objects_dir):
        repo = RemoteRepository(_store(objects_dir))
        uri = repo.uris()[0]
        key = parse_remote_uri(uri)[1]
        raw = (objects_dir / key).read_bytes()
        store = repo.transport.store
        staged = repo.ensure_whole(uri)
        assert staged[:2] == (repo.signature_of(uri), len(raw))
        assert _read(staged) == raw
        heads = store.stats.heads
        # Reuse costs the one HEAD that says the copy is current…
        assert repo.ensure_whole(uri)[:2] == (staged.signature, 0)
        assert (store.stats.heads, store.stats.gets) == (heads + 1, 1)
        # …or nothing, under the caller's own observation.
        assert repo.ensure_whole(uri, staged.signature).moved == 0
        assert (store.stats.heads, store.stats.gets) == (heads + 1, 1)
        assert repo.stats.staged_reuses == 2
        assert repo.stats.whole_fetches == 1
        assert repo.stats.remote_bytes == len(raw)

    def test_fetch_spans_moves_only_missing_coalesced_bytes(self, objects_dir):
        repo = RemoteRepository(_store(objects_dir))
        repo.coalesce_gap_bytes = 8
        uri = repo.uris()[0]
        key = parse_remote_uri(uri)[1]
        raw = (objects_dir / key).read_bytes()
        # Spans are (byte_offset, byte_length), like RecordSpan.
        fetched = repo.fetch_spans(uri, [(0, 64), (128, 128)])
        assert fetched[:2] == (repo.signature_of(uri), 64 + 128)
        assert repo.stats.ranged_gets == 2  # 64-byte gap > coalesce gap
        assert fetched.source.size == len(raw)  # reads as the whole object
        data = _read(fetched)
        assert data[0:64] == raw[0:64]
        assert data[128:256] == raw[128:256]
        assert data[64:128] == bytes(64)  # never fetched: a hole
        # Overlapping re-request only moves the genuinely missing bytes:
        # [64, 128) and [256, 300) of the wanted [32, 300).
        again = repo.fetch_spans(uri, [(32, 268)])
        assert again.moved == 64 + 44
        assert _read(again)[0:300] == raw[0:300]
        assert _read(fetched) == data  # a snapshot no later fetch changes
        assert repo.fetch_spans(uri, [(0, 300)]).moved == 0  # fully covered now
        assert repo.stats.staged_reuses == 1

    def test_adjacent_spans_coalesce_into_one_get(self, objects_dir):
        repo = RemoteRepository(_store(objects_dir))
        repo.coalesce_gap_bytes = 64
        uri = repo.uris()[0]
        assert repo.fetch_spans(uri, [(0, 32), (48, 48)]).moved == 96
        assert repo.stats.ranged_gets == 1  # 16-byte gap read through

    def test_remote_rewrite_invalidates_staged_state(
        self, objects_dir, tmp_path
    ):
        work = tmp_path / "mutable_objects"
        work.mkdir()
        (work / "a.xseed").write_bytes(b"A" * 256)
        repo = RemoteRepository(SimulatedObjectStore("seis-eu", work))
        uri = repo.uris()[0]
        assert repo.ensure_whole(uri).moved == 256
        (work / "a.xseed").write_bytes(b"B" * 300)
        # Stale bytes dropped, and counted: one whole GET, nothing reused.
        staged = repo.ensure_whole(uri)
        assert staged[:2] == (repo.signature_of(uri), 300)
        assert _read(staged) == b"B" * 300
        stats = repo.stats
        assert (stats.invalidations, stats.whole_fetches) == (1, 2)
        assert (stats.staged_reuses, stats.remote_bytes) == (0, 556)
        assert repo.transport.store.stats.gets == 2
        # Held ranges track the rewrite too: ranges held for the
        # old version must not satisfy reads against the new one.
        (work / "a.xseed").write_bytes(b"C" * 300)
        staged = repo.fetch_spans(uri, [(0, 10)])
        assert staged.moved == 10
        assert repo.stats.invalidations == 2
        assert _read(staged)[0:10] == b"C" * 10

    def test_whole_restaging_over_ranges_of_another_version_is_counted(
        self, tmp_path
    ):
        work = tmp_path / "mutable_objects"
        work.mkdir()
        (work / "a.xseed").write_bytes(b"A" * 256)
        repo = RemoteRepository(SimulatedObjectStore("seis-eu", work))
        uri = repo.uris()[0]
        repo.fetch_spans(uri, [(0, 10)])
        (work / "a.xseed").write_bytes(b"B" * 300)
        # Ranges are no whole copy: nothing to ask a HEAD about, the GET
        # says what it replaced.
        heads = repo.transport.store.stats.heads
        staged = repo.ensure_whole(uri)
        assert staged.moved == 300
        assert repo.transport.store.stats.heads == heads
        assert repo.stats.invalidations == 1
        assert _read(staged) == b"B" * 300

    def test_signature_of_reflects_the_remote_object(self, objects_dir):
        repo = RemoteRepository(_store(objects_dir))
        uri = repo.uris()[0]
        key = parse_remote_uri(uri)[1]
        st = (objects_dir / key).stat()
        assert repo.signature_of(uri) == (st.st_mtime_ns, st.st_size)
        assert repo.signatures() == {uri: repo.signature_of(uri)}

    def test_total_bytes_is_one_listing(self, objects_dir):
        store = _store(objects_dir)
        repo = RemoteRepository(store)
        assert repo.total_bytes() == sum(
            p.stat().st_size for p in objects_dir.rglob("*.xseed")
        )
        assert (store.stats.requests, store.stats.lists) == (1, 1)

    def test_listing_fallback_when_the_endpoint_drops(self, objects_dir):
        store = _store(objects_dir)
        repo = RemoteRepository(store)
        live = repo.uris()
        store.set_down()
        assert repo.uris() == live  # stale-but-available beats an error
        assert repo.stats.listing_fallbacks >= 1

    def test_a_remembered_listing_never_supplies_a_signature(self, objects_dir):
        store = _store(objects_dir)
        repo = RemoteRepository(store)
        live = repo.uris()
        store.set_down()
        assert repo.uris() == live  # names may be remembered…
        with pytest.raises(FileIngestError) as excinfo:
            repo.signatures()  # …a signature is observed, or there is none
        assert excinfo.value.endpoint == "seis-eu"

    def test_cold_listing_with_endpoint_down_still_fails(self, objects_dir):
        store = _store(objects_dir)
        store.set_down()
        repo = RemoteRepository(store)
        with pytest.raises(FileIngestError):
            repo.uris()  # no last-known listing to fall back on


class _FileByFile:
    """A repository whose bulk observation asks file by file: what a backend
    without a listing that carries signatures answers from its per-file
    hook."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def signatures(self, scope=None):
        return {
            uri: self._inner.signature_of(uri, scope)
            for uri in self._inner.uris(scope)
        }


class TestFederatedRepository:
    @pytest.fixture()
    def members(self, objects_dir, tmp_path):
        local_root = tmp_path / "local"
        local_root.mkdir()
        (local_root / "station.tscsv").write_text(
            "sample_time,sample_value\n2010-01-10T00:00:00.000,1.0\n"
        )
        local = FileRepository(local_root, suffix=(".tscsv",))
        remote = RemoteRepository(_store(objects_dir))
        return local, remote

    def test_uris_union_in_member_order(self, members):
        local, remote = members
        fed = FederatedRepository([local, remote])
        assert fed.uris() == local.uris() + remote.uris()
        assert len(fed) == len(local) + len(remote)

    def test_dispatch_by_ownership(self, members, objects_dir):
        local, remote = members
        fed = FederatedRepository([local, remote])
        local_uri = local.uris()[0]
        remote_uri_ = remote.uris()[0]
        registry = default_registry()
        local_source, _ = fed.source_for(local_uri, registry)
        assert local_source.path == local.path_of(local_uri)
        remote_source, extractor = fed.source_for(remote_uri_, registry)
        assert isinstance(remote_source, RemoteObject)
        assert isinstance(extractor, RemoteExtractor)
        assert fed.signature_of(remote_uri_) == remote.signature_of(
            remote_uri_
        )
        with pytest.raises(IngestError):
            fed.source_for("remote://unknown-endpoint/x.xseed", registry)

    def test_signatures_concatenate_and_a_hookless_member_falls_back(
        self, members
    ):
        local, remote = members
        fed = FederatedRepository([local, remote])
        assert fed.signatures() == {**local.signatures(), **remote.signatures()}
        assert list(fed.signatures()) == fed.uris()
        heads = remote.transport.store.stats.heads
        # Members that observe file by file: a HEAD per remote object.
        hookless = FederatedRepository(
            [_FileByFile(local), _FileByFile(remote)]
        )
        assert hookless.signatures() == fed.signatures()
        assert remote.transport.store.stats.heads == heads + len(remote.uris())

    def test_ownership_is_any_members(self, members):
        local, remote = members
        fed = FederatedRepository([remote])
        assert fed.owns_uri(remote.uris()[0])
        assert not fed.owns_uri(local.uris()[0])

    def test_total_bytes_sums_members(self, members):
        local, remote = members
        fed = FederatedRepository([local, remote])
        assert fed.total_bytes() == local.total_bytes() + remote.total_bytes()

    def test_suffixes_are_the_ordered_union(self, members):
        local, remote = members
        fed = FederatedRepository([local, remote])
        assert fed.suffixes[0] == ".tscsv"
        assert set(remote.suffixes) <= set(fed.suffixes)

    def test_empty_federation_rejected(self):
        with pytest.raises(IngestError):
            FederatedRepository([])


# -- the listing is the metadata pass's one observation of the repository ------

LISTED_SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=1,
    sample_rate=0.02,
    samples_per_record=100,
)


def _change_add_delete(objects):
    """Rewrite the first object (half its records, a later mtime), add a
    new one, delete the last; returns their keys."""
    paths = sorted(objects.rglob("*.xseed"))
    changed, deleted = paths[0], paths[-1]
    before = changed.stat()
    records = read_records(changed)
    write_volume(changed, records[: len(records) // 2])
    os.utime(changed, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    added = paths[1].with_name("added.xseed")
    shutil.copyfile(paths[1], added)
    deleted.unlink()
    return tuple(
        p.relative_to(objects).as_posix() for p in (changed, added, deleted)
    )


def _metadata(db):
    return {name: db.catalog.table(name).batch.rows() for name in ("F", "R")}


class _MetadataSession:
    """One session's metadata pass over ``repository``, from the sidecar
    at ``sidecar`` (loaded when it exists, re-saved by the pass)."""

    def __init__(self, repository, sidecar):
        self.metastore = MetadataStore(sidecar)
        self.metastore.load()
        self.db = Database()
        self.report = lazy_ingest_metadata(
            self.db, repository, metastore=self.metastore
        )
        self.metadata = _metadata(self.db)


class _Endpoint:
    """``objects`` served as a fresh endpoint — request counters at zero —
    through a repository that holds nothing yet."""

    def __init__(self, objects, policy=TransportPolicy()):
        self.store = SimulatedObjectStore("seis-eu", objects)
        self.repo = RemoteRepository(self.store, policy=policy)

    def requests(self):
        stats = self.store.stats
        assert stats.requests == stats.lists + stats.heads + stats.gets
        return {"LIST": stats.lists, "HEAD": stats.heads, "GET": stats.gets}


class TestListingCarriesSignatures:
    """With a metastore, the pass asks the repository for every signature
    at once — one LIST per 1 000 remote objects — and touches only the
    files whose signature the sidecar does not already hold."""

    FILES = LISTED_SPEC.file_count

    @pytest.fixture()
    def objects(self, tmp_path):
        generate_repository(tmp_path / "objects", LISTED_SPEC)
        return tmp_path / "objects"

    def test_a_warm_pass_is_one_request(self, objects, tmp_path):
        sidecar = tmp_path / "sidecar.json"
        harvest = _Endpoint(objects)
        cold = _MetadataSession(harvest.repo, sidecar)
        # Cold: the listing's signature stages each object, no HEAD.
        assert harvest.requests() == {"LIST": 1, "HEAD": 0, "GET": self.FILES}
        assert cold.metastore.stats.saved_files == self.FILES
        written = sidecar.stat()

        endpoint = _Endpoint(objects)
        warm = _MetadataSession(endpoint.repo, sidecar)
        assert endpoint.requests() == {"LIST": 1, "HEAD": 0, "GET": 0}
        assert warm.report.files_reused == warm.report.files == self.FILES
        assert warm.metadata == cold.metadata
        # Nothing recorded, dropped or re-counted: the sidecar another
        # session may be loading is not replaced by an identical one.
        assert not warm.metastore.dirty
        assert warm.metastore.stats.saved_files == 0
        after = sidecar.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            written.st_ino,
            written.st_mtime_ns,
        )

    def test_a_reused_file_is_first_fetched_by_its_first_mount(
        self, objects, tmp_path
    ):
        sidecar = tmp_path / "sidecar.json"
        harvest = _Endpoint(objects)
        cold = _MetadataSession(harvest.repo, sidecar)
        endpoint = _Endpoint(objects)
        warm = _MetadataSession(endpoint.repo, sidecar)
        # Nothing was fetched of a file nobody read.
        assert endpoint.requests()["GET"] == 0
        sql = (
            "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D "
            "ON F.uri = D.uri WHERE F.station = 'ISK'"
        )
        answers = [
            TwoStageExecutor(session.db, RepositoryBinding(ep.repo))
            .execute(sql)
            .rows
            for session, ep in ((warm, endpoint), (cold, harvest))
        ]
        assert answers[0] == answers[1] and answers[0][0][0] > 0
        # ISK's files only, one whole GET each.
        assert endpoint.requests()["GET"] == len(LISTED_SPEC.channels)

    def test_changed_added_and_deleted_objects(self, objects, tmp_path):
        sidecar = tmp_path / "sidecar.json"
        _MetadataSession(_Endpoint(objects).repo, sidecar)
        per_file_sidecar = tmp_path / "sidecar-per-file.json"
        shutil.copyfile(sidecar, per_file_sidecar)
        changed, added, deleted = (
            remote_uri("seis-eu", key) for key in _change_add_delete(objects)
        )

        endpoint = _Endpoint(objects)
        warm = _MetadataSession(endpoint.repo, sidecar)
        assert endpoint.requests() == {"LIST": 1, "HEAD": 0, "GET": 2}
        assert warm.report.files == self.FILES
        assert warm.report.files_reused == self.FILES - 2
        stats = warm.metastore.stats
        assert (stats.hits, stats.stale, stats.misses) == (self.FILES - 2, 1, 1)

        # The deleted object is gone from F, R and the re-saved sidecar.
        for table in ("F", "R"):
            uris = {row[0] for row in warm.metadata[table]}
            assert {changed, added} <= uris and deleted not in uris
        reloaded = MetadataStore(sidecar)
        assert reloaded.load() == self.FILES
        assert list(reloaded.image()[0].files["uri"]) == endpoint.repo.uris()

        # Same rows as a cold harvest of the tree as it is now…
        cold = _MetadataSession(
            _Endpoint(objects).repo, tmp_path / "cold.json"
        )
        assert cold.report.files_reused == 0
        assert warm.metadata == cold.metadata
        # …and as the pass that asks file by file, which also leaves the
        # same sidecar behind, at a HEAD per object.
        asked = _Endpoint(objects)
        per_file = _MetadataSession(
            _FileByFile(asked.repo), per_file_sidecar
        )
        assert asked.requests() == {"LIST": 1, "HEAD": self.FILES, "GET": 2}
        assert per_file.metadata == warm.metadata
        assert per_file_sidecar.read_bytes() == sidecar.read_bytes()
        assert sidecar.read_bytes() == (tmp_path / "cold.json").read_bytes()

    @pytest.mark.parametrize("shape", ["local", "federated"])
    def test_listing_gated_pass_matches_the_per_file_pass(
        self, objects, tmp_path, shape
    ):
        def repository():
            local = FileRepository(objects)
            if shape == "local":
                return local
            return FederatedRepository([local, _Endpoint(tmp_path / "remote").repo])

        generate_repository(
            tmp_path / "remote",
            RepositorySpec(
                stations=("IZM",),
                channels=("BHE", "BHN", "BHZ"),
                days=1,
                sample_rate=0.02,
                samples_per_record=100,
            ),
        )
        sidecar = tmp_path / "sidecar.json"
        _MetadataSession(repository(), sidecar)
        per_file_sidecar = tmp_path / "sidecar-per-file.json"
        shutil.copyfile(sidecar, per_file_sidecar)
        gone = [_change_add_delete(objects)[2]]
        if shape == "federated":
            gone.append(
                remote_uri("seis-eu", _change_add_delete(tmp_path / "remote")[2])
            )

        warm = _MetadataSession(repository(), sidecar)
        changes = 1 if shape == "local" else 2
        assert warm.report.files_reused == warm.report.files - 2 * changes
        assert not {row[0] for row in warm.metadata["F"]} & set(gone)
        cold = _MetadataSession(repository(), tmp_path / "cold.json")
        per_file = _MetadataSession(
            _FileByFile(repository()), per_file_sidecar
        )
        assert warm.metadata == cold.metadata == per_file.metadata
        assert sidecar.read_bytes() == per_file_sidecar.read_bytes()
        assert sidecar.read_bytes() == (tmp_path / "cold.json").read_bytes()

    def test_object_rewritten_between_the_list_and_its_get(
        self, objects, tmp_path
    ):
        sidecar = tmp_path / "sidecar.json"
        endpoint = _Endpoint(objects)
        victim = sorted(objects.rglob("*.xseed"))[0]
        key = victim.relative_to(objects).as_posix()
        get = endpoint.store.get

        def rewritten_just_before(requested, *args, **kwargs):
            if requested == key and victim.stat().st_size == listed_size:
                records = read_records(victim)
                write_volume(victim, records[: len(records) // 2])
            return get(requested, *args, **kwargs)

        listed_size = victim.stat().st_size
        endpoint.store.get = rewritten_just_before
        first = _MetadataSession(endpoint.repo, sidecar)
        assert endpoint.requests() == {"LIST": 1, "HEAD": 0, "GET": self.FILES}
        # The rows are the newer bytes', signed with the listed signature…
        now = _MetadataSession(
            _Endpoint(objects).repo, tmp_path / "cold.json"
        )
        assert first.metadata == now.metadata
        stored = MetadataStore(sidecar)
        stored.load()
        block, signatures = stored.image()
        at = block.files["uri"].index(remote_uri("seis-eu", key))
        assert signatures[at, 1] == listed_size
        # …which the next session's listing contradicts: extracted again,
        # and only then reusable.
        again = _Endpoint(objects)
        second = _MetadataSession(again.repo, sidecar)
        assert again.requests() == {"LIST": 1, "HEAD": 0, "GET": 1}
        assert second.metastore.stats.stale == 1
        assert second.metadata == now.metadata
        assert sidecar.read_bytes() == (tmp_path / "cold.json").read_bytes()
        third = _Endpoint(objects)
        assert _MetadataSession(third.repo, sidecar).report.files_reused == self.FILES
        assert third.requests() == {"LIST": 1, "HEAD": 0, "GET": 0}

    def _paged(self, monkeypatch, objects, tmp_path, policy=TransportPolicy()):
        """The endpoint listing two objects a page, and the log of
        continuation keys its LIST requests carried."""
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 2)
        endpoint = _Endpoint(objects, policy)
        asked = []
        list_keys = endpoint.store.list_keys

        def logged(after=None, **kwargs):
            asked.append(after)
            return list_keys(after, **kwargs)

        endpoint.store.list_keys = logged
        return endpoint, asked

    def test_a_long_listing_is_one_request_per_page(
        self, monkeypatch, objects, tmp_path
    ):
        (objects / "readme.txt").write_text("not a data file")  # 5 keys
        endpoint, asked = self._paged(monkeypatch, objects, tmp_path)
        keys = sorted(
            p.relative_to(objects).as_posix() for p in objects.rglob("*.xseed")
        )
        signatures = endpoint.repo.signatures()
        assert endpoint.requests() == {"LIST": 3, "HEAD": 0, "GET": 0}
        assert asked[0] is None and asked[1:] == sorted(asked[1:])
        # Key order, nothing lost or doubled across the page boundaries,
        # each signature what a HEAD of the object answers.
        assert list(signatures) == [remote_uri("seis-eu", k) for k in keys]
        for uri, signature in signatures.items():
            assert signature == endpoint.repo.signature_of(uri)
        # The metadata pass over the paged listing: still no HEAD.
        heads = endpoint.store.stats.heads
        _MetadataSession(endpoint.repo, tmp_path / "sidecar.json")
        assert endpoint.store.stats.heads == heads

    def test_a_page_that_resets_is_retried_alone(
        self, monkeypatch, objects, tmp_path
    ):
        policy = TransportPolicy(backoff_seconds=0.0, retry_budget_attempts=4)
        endpoint, asked = self._paged(monkeypatch, objects, tmp_path, policy)
        whole = endpoint.repo.signatures()
        second_page = asked[1]
        del asked[:]
        paged = endpoint.store.list_keys
        resets = [ConnectionResetError("scripted reset")]

        def second_page_resets_once(after=None, **kwargs):
            if after == second_page and resets:
                asked.append(after)
                raise resets.pop()
            return paged(after, **kwargs)

        endpoint.store.list_keys = second_page_resets_once
        context = MountContext()
        assert endpoint.repo.signatures(context) == whole
        # The first page was not asked for again; the retry was the
        # query's to spend.
        assert asked == [None, second_page, second_page]
        assert context.retry_budget("seis-eu", 4).spent() == 1
        assert endpoint.repo.transport.stats.retries == 1

    def test_an_exhausted_budget_fails_the_whole_listing(
        self, monkeypatch, objects, tmp_path
    ):
        policy = TransportPolicy(backoff_seconds=0.0, retry_budget_attempts=0)
        endpoint, asked = self._paged(monkeypatch, objects, tmp_path, policy)
        paged = endpoint.store.list_keys

        def later_pages_reset(after=None, **kwargs):
            if after is not None:
                raise ConnectionResetError("scripted reset")
            return paged(after, **kwargs)

        endpoint.store.list_keys = later_pages_reset
        for listing in (endpoint.repo.signatures, endpoint.repo.uris):
            with pytest.raises(RemoteTransportError) as excinfo:
                listing(MountContext())
            assert excinfo.value.endpoint == "seis-eu"
        assert endpoint.repo.transport.stats.retries_denied == 2
        # The page that did arrive was neither returned nor remembered:
        # there is no listing to fall back on.
        assert endpoint.repo.stats.listing_fallbacks == 0
        with pytest.raises(RemoteTransportError):
            _MetadataSession(endpoint.repo, tmp_path / "sidecar.json")
        assert not (tmp_path / "sidecar.json").exists()


# -- one observation of the remote version per extraction ---------------------


def _rewrite(path):
    """Replace the object at ``path``: every sample one count higher, the
    record layout (and so the harvested byte map) unchanged, mtime later."""
    records = read_records(path)
    bumped = [
        XSeedRecord.create(
            sequence=r.header.sequence,
            network=r.header.network,
            station=r.header.station,
            location=r.header.location,
            channel=r.header.channel,
            start_time=r.header.start_time,
            sample_rate=r.header.sample_rate,
            samples=r.samples + 1,
        )
        for r in records
    ]
    assert [len(r.pack()) for r in bumped] == [len(r.pack()) for r in records]
    before = path.stat()
    write_volume(path, bumped)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))


class _ColdMount:
    """A :class:`MountService` over a cold-staged remote copy of one
    rewritable object; ``R`` was harvested by an earlier session's
    repository, so selective mounts have a byte map and move ranged GETs."""

    FIRST, LAST = 3, 5  # the records a selective mount here asks for

    def __init__(self, tmp_path, **service_kwargs):
        self.objects = tmp_path / "objects"
        generate_repository(self.objects, SPEC)
        self.db = db = Database()
        lazy_ingest_metadata(
            db, RemoteRepository(SimulatedObjectStore("seis-eu", self.objects))
        )
        self.store = SimulatedObjectStore("seis-eu", self.objects)
        self.repo = RemoteRepository(self.store)
        self.mounts = MountService(
            RepositoryBinding(self.repo),
            **service_kwargs,
        )
        self.mounts.record_map_provider = RecordMapIndex(db)
        [self.uri] = self.repo.uris()
        self.path = self.objects / parse_remote_uri(self.uri)[1]
        self.spans = self.mounts.record_map_provider(self.uri, "D")
        self.interval = (
            self.spans[self.FIRST].start_time,
            self.spans[self.LAST].end_time,
        )

    def request(self, *records):
        """The selective request for records FIRST..LAST — through a byte
        map of only ``records`` of them, when given."""
        spans = tuple(self.spans[i] for i in records) or self.spans
        return MountRequest(interval=self.interval, records=spans)

    def two_ranges(self, monkeypatch):
        """The request for FIRST and LAST alone, with coalescing cut down so
        that the record between them is a gap: two ranged GETs."""
        monkeypatch.setattr(self.repo, "coalesce_gap_bytes", 8)
        return self.request(self.FIRST, self.LAST)

    def requests(self):
        """(HEADs, GETs served) at the endpoint so far."""
        return self.store.stats.heads, self.store.stats.gets

    def predicate(self):
        time_ref = ColumnRef("d.sample_time", DataType.TIMESTAMP)
        lo, hi = (Literal(t, DataType.TIMESTAMP) for t in self.interval)
        return BoolOp(
            "and",
            [Comparison(">=", time_ref, lo), Comparison("<=", time_ref, hi)],
        )

    def wanted_bytes(self):
        return sum(
            span.byte_length
            for span in self.spans[self.FIRST : self.LAST + 1]
        )

    def rewrite(self):
        _rewrite(self.path)

    def samples(self, selective=True, only=None):
        """What is in the object now (every record, the wanted ones, or
        ``only`` those)."""
        records = read_records(self.path)
        if only is not None:
            records = [records[i] for i in only]
        elif selective:
            records = records[self.FIRST : self.LAST + 1]
        return np.concatenate([r.samples for r in records]).astype(float)

    def after_get(self, number=None, action=None):
        """The log of every GET's ``if_match`` from now on; with ``number``
        (one count or several), ``action`` runs once the endpoint has
        answered that many, before the caller sees the response."""
        conditions = []
        get = self.store.get
        numbers = {number} if isinstance(number, int) else set(number or ())

        def logged(key, start=0, length=None, if_match=None, **kwargs):
            conditions.append(if_match)
            response = get(key, start, length, if_match, **kwargs)
            if len(conditions) in numbers:
                action()
            return response

        self.store.get = logged
        return conditions


def _values(result):
    return result.batch.column("sample_value").values


class TestTheGetIsTheObservation:
    """An extraction of a remote object is bracketed by no HEADs: each GET
    answers the signature of the version its bytes are of, and every GET
    after the first is conditional on it."""

    def test_first_touch_selective_mount_is_its_one_get(self, tmp_path):
        cold = _ColdMount(tmp_path)
        batch = cold.mounts.mount_file(cold.uri, "D", "d", cold.predicate())
        assert batch.num_rows > 0
        stats = cold.store.stats
        # The three wanted records are adjacent: one ranged GET, and (the
        # fixture's listing apart) nothing else.
        assert (stats.requests - stats.lists, stats.heads, stats.gets) == (1, 0, 1)
        assert stats.ranged_gets == 1
        assert stats.bytes_served == cold.wanted_bytes()
        assert cold.repo.stats.remote_bytes == cold.wanted_bytes()

    def test_first_touch_whole_file_mount_is_its_one_get(self, tmp_path):
        cold = _ColdMount(tmp_path)
        context = MountContext()
        batch = cold.mounts.mount_file(cold.uri, "D", "d", None, context)
        assert np.array_equal(
            batch.column("d.sample_value").values, cold.samples(selective=False)
        )
        stats = cold.store.stats
        assert (stats.requests - stats.lists, stats.heads, stats.gets) == (1, 0, 1)
        assert stats.ranged_gets == 0
        assert stats.bytes_served == cold.path.stat().st_size
        assert context.trace.counters["bytes_read"] == cold.path.stat().st_size

    def test_the_extraction_reports_the_version_its_bytes_came_from(
        self, tmp_path
    ):
        cold = _ColdMount(tmp_path)
        for request in (cold.request(), None):
            result = cold.mounts._extract(cold.uri, "D", request)
            assert result.signature == cold.repo.signature_of(cold.uri)
        source, extractor = cold.repo.source_for(cold.uri, default_registry())
        attempt = extractor.observing(None)
        assert attempt is not extractor and attempt.observed is None
        attempt.mount(source)
        assert attempt.observed == cold.repo.signature_of(cold.uri)

    def test_later_gets_are_conditional_on_what_the_first_answered(
        self, tmp_path, monkeypatch
    ):
        cold = _ColdMount(tmp_path)
        conditions = cold.after_get()
        result = cold.mounts._extract(
            cold.uri, "D", cold.two_ranges(monkeypatch)
        )
        assert cold.requests() == (0, 2)
        assert conditions == [None, result.signature]
        assert np.array_equal(
            _values(result), cold.samples(only=(cold.FIRST, cold.LAST))
        )

    def test_a_request_staging_covers_entirely_is_exactly_one_head(
        self, tmp_path
    ):
        cold = _ColdMount(tmp_path)
        first = cold.mounts._extract(cold.uri, "D", cold.request())
        assert cold.requests() == (0, 1)
        # No response to observe the version by: the HEAD does.
        again = cold.mounts._extract(cold.uri, "D", cold.request())
        assert cold.requests() == (1, 1)
        assert (again.bytes_read, again.signature) == (0, first.signature)
        assert np.array_equal(_values(again), _values(first))
        assert cold.repo.stats.staged_reuses == 1
        # Under the caller's own observation, not even that.
        cold.mounts._extract(
            cold.uri, "D", cold.request(), observed=first.signature
        )
        assert cold.requests() == (1, 1)

    def test_rewrite_between_two_gets_is_retried_to_the_new_content(
        self, tmp_path, monkeypatch
    ):
        cold = _ColdMount(tmp_path)
        request = cold.two_ranges(monkeypatch)
        conditions = cold.after_get(1, cold.rewrite)
        result = cold.mounts._extract(cold.uri, "D", request)
        # GET 1 answered the old version, GET 2 was conditional on it and
        # refused; the retry began again, from whatever is there now.
        old = conditions[1]
        assert conditions == [None, old, None, result.signature]
        assert result.signature == cold.repo.signature_of(cold.uri) != old
        assert np.array_equal(
            _values(result), cold.samples(only=(cold.FIRST, cold.LAST))
        )
        assert result.restarts == 1
        assert cold.repo.stats.invalidations == 1  # GET 1's range, dropped
        assert cold.store.stats.precondition_failed == 1
        assert cold.repo.transport.stats.retries == 0

    def test_mid_get_change_is_a_reset_response_the_transport_retries(
        self, tmp_path
    ):
        cold = _ColdMount(tmp_path)
        attempts = cold.repo.transport.policy.retry_budget_attempts
        context = MountContext()
        before = cold.repo.signature_of(cold.uri)
        # The object's mtime moves after the first chunk is read: inside
        # the GET, which therefore answers nothing.
        plan = FaultPlan([FaultSpec(uri_suffix=cold.uri, kind=STALE_FLIP)])
        with plan.install():
            result = cold.mounts._extract(
                cold.uri, "D", cold.request(), context=context
            )
        assert result.signature == cold.repo.signature_of(cold.uri) != before
        assert np.array_equal(_values(result), cold.samples())
        stats = cold.store.stats
        assert (stats.torn, stats.gets) == (1, 2)
        assert stats.bytes_served == cold.wanted_bytes()  # one body, whole
        # Retried where a reset is retried, on the query's budget; the
        # mount layer never saw it.
        assert cold.repo.transport.stats.retries == 1
        assert context.retry_budget("seis-eu", attempts).spent() == 1
        assert result.restarts == 0

    def test_mid_get_rewrite_never_returns_a_body(self, tmp_path, monkeypatch):
        cold = _ColdMount(tmp_path)
        open_volume = simstore_module.open_volume
        pending = [cold.rewrite]

        @contextlib.contextmanager
        def rewritten_while_open(path, uri):
            with open_volume(path, uri) as handle:
                yield handle
                if pending:  # the body is read; the store has yet to look again
                    pending.pop()()

        monkeypatch.setattr(simstore_module, "open_volume", rewritten_while_open)
        result = cold.mounts._extract(cold.uri, "D", None)
        assert np.array_equal(_values(result), cold.samples(selective=False))
        assert result.signature == cold.repo.signature_of(cold.uri)
        assert (cold.store.stats.torn, cold.store.stats.gets) == (1, 2)
        assert cold.store.stats.bytes_served == cold.path.stat().st_size

    def test_presumed_current_staging_is_dropped_not_mixed(
        self, tmp_path, monkeypatch
    ):
        cold = _ColdMount(tmp_path)
        monkeypatch.setattr(cold.repo, "coalesce_gap_bytes", 8)
        middle = cold.spans[cold.FIRST + 1]
        cold.mounts._extract(
            cold.uri,
            "D",
            MountRequest(
                interval=(middle.start_time, middle.end_time),
                records=cold.spans,
            ),
        )
        cold.rewrite()
        conditions = cold.after_get()
        result = cold.mounts._extract(cold.uri, "D", cold.request())
        # The middle record is staged, of a version only presumed current:
        # the GET for the record before it says otherwise, and all three
        # are fetched from the version there is — none kept from the old.
        assert conditions[1:] == [None] and conditions[0] != result.signature
        assert np.array_equal(_values(result), cold.samples())
        assert result.signature == cold.repo.signature_of(cold.uri)
        assert cold.store.stats.precondition_failed == 1
        assert cold.repo.stats.invalidations == 1
        assert cold.repo.stats.staged_reuses == 0
        assert result.restarts == 0  # the fetch's affair, not a failure

    def test_rewrite_after_the_last_response_is_the_next_cache_scans_to_see(
        self, tmp_path, monkeypatch
    ):
        cold = _ColdMount(
            tmp_path, cache=IngestionCache(CachePolicy.UNBOUNDED)
        )
        old_signature = cold.repo.signature_of(cold.uri)
        old_samples = cold.samples()
        cold.after_get(1, cold.rewrite)  # the response is complete
        mount = MountContext()
        batch = cold.mounts.mount_file(
            cold.uri, "D", "d", cold.predicate(), mount
        )
        # Wholly the old version, cached under the old signature.
        assert np.array_equal(batch.column("d.sample_value").values, old_samples)
        assert cold.mounts.cache.lookup(
            cold.uri, cold.interval, signature=old_signature
        ) is not None
        assert mount.trace.counters["restarts"] == 0
        scan = MountContext()
        again = cold.mounts.cache_scan(
            cold.uri, "D", "d", cold.predicate(), scan
        )
        assert np.array_equal(
            again.column("d.sample_value").values, cold.samples()
        )
        assert np.array_equal(cold.samples(), old_samples + 1)
        assert scan.trace.counters["stale_remounts"] == 1
        assert scan.trace.counters["cache_scans"] == 0

    @pytest.mark.parametrize("refetched_again", [0, 2])
    def test_a_copy_refetched_under_a_reader_keeps_its_read(
        self, tmp_path, monkeypatch, refetched_again
    ):
        """Replaced and fetched again between a mount's fetch and its read,
        once or several times over, the object's new bytes never reach that
        read: it decodes its own snapshot, wholly the version its GETs
        answered."""
        from repro.ingest.xseed_format import XSeedExtractor

        cold = _ColdMount(tmp_path)
        old = cold.repo.signature_of(cold.uri), cold.samples()
        wanted = [
            (span.byte_offset, span.byte_length)
            for span in cold.spans[cold.FIRST : cold.LAST + 1]
        ]
        mount_selective = XSeedExtractor.mount_selective
        pending = [cold.rewrite] * (1 + refetched_again)

        def another_extraction_first(self, source, request):
            while pending:  # fetched, not yet read: the object is replaced,
                pending.pop()()  # and someone else fetches the new version
                cold.repo.fetch_spans(cold.uri, wanted)
            return mount_selective(self, source, request)

        monkeypatch.setattr(
            XSeedExtractor, "mount_selective", another_extraction_first
        )
        result = cold.mounts._extract(cold.uri, "D", cold.request())
        assert (result.restarts, result.signature) == (0, old[0])
        assert np.array_equal(_values(result), old[1])
        fresh = cold.mounts._extract(cold.uri, "D", cold.request())
        assert fresh.signature == cold.repo.signature_of(cold.uri) != old[0]
        assert np.array_equal(_values(fresh), cold.samples())

    def test_a_served_first_touch_is_its_get_and_a_cached_one_its_head(
        self, tmp_path
    ):
        cold = _ColdMount(tmp_path)
        sql = "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri"
        with QueryService(cold.repo, db=cold.db) as service:
            first = service.execute(sql, tenant="a").rows
            # Nothing cached, nothing to compare: the late-bound lookup
            # asks for no HEAD, and the extraction is its GET.
            assert cold.requests() == (0, 1)
            assert service.execute(sql, tenant="b").rows == first
            assert cold.requests() == (1, 1)  # the cache scan's comparison
            # Late-bound with the batch cached: compared, then served.
            served = service._shared_extract(cold.uri, "D", None)
            assert (served.bytes_read, cold.requests()) == (0, (2, 1))
            # …and compared means a rewritten object is never served from it.
            cold.rewrite()
            conditions = cold.after_get()
            fresh = service._shared_extract(cold.uri, "D", None)
            assert cold.requests() == (3, 2)
            assert conditions == [fresh.signature]  # the HEAD's, handed down
            assert np.array_equal(_values(fresh), cold.samples(selective=False))


class TestObservationHandDown:
    def test_handed_down_observation_is_the_if_match_of_every_get(
        self, tmp_path, monkeypatch
    ):
        cold = _ColdMount(tmp_path)
        observed = cold.repo.signature_of(cold.uri)
        conditions = cold.after_get()
        result = cold.mounts._extract(
            cold.uri, "D", cold.two_ranges(monkeypatch), observed=observed
        )
        assert np.array_equal(
            _values(result), cold.samples(only=(cold.FIRST, cold.LAST))
        )
        assert result.signature == observed
        assert conditions == [observed, observed]
        assert cold.requests() == (1, 2)  # the HEAD is ours, above
        assert result.restarts == 0
        # The whole-file GET too.
        del conditions[:]
        whole = cold.mounts._extract(cold.uri, "D", None, observed=observed)
        assert (conditions, whole.signature) == ([observed], observed)
        assert cold.requests() == (1, 3)

    @pytest.mark.parametrize("selective", [True, False])
    def test_rewrite_after_the_hand_down_is_retried_to_the_new_content(
        self, tmp_path, selective
    ):
        cold = _ColdMount(tmp_path)
        observed = cold.repo.signature_of(cold.uri)
        cold.rewrite()
        result = cold.mounts._extract(
            cold.uri,
            "D",
            cold.request() if selective else None,
            observed=observed,
        )
        # Attempt 0's GET was conditional on the stale observation and was
        # refused (a transient StaleFileError) before any body byte; the
        # retry observed afresh and staged the new version.
        assert result.restarts == 1
        assert cold.store.stats.precondition_failed == 1
        assert result.signature == cold.repo.signature_of(cold.uri) != observed
        assert np.array_equal(_values(result), cold.samples(selective))

    def test_rewrite_after_the_hand_down_surfaces_as_stale(
        self, tmp_path, monkeypatch
    ):
        """…when the object keeps changing: each restart's second GET is
        refused too, and the last refusal surfaces."""
        cold = _ColdMount(tmp_path)
        request = cold.two_ranges(monkeypatch)
        observed = cold.repo.signature_of(cold.uri)
        cold.rewrite()
        # GET 1 is refused at once; each restart's first GET answers, and
        # the object is rewritten before its second.
        cold.after_get((2, 4), cold.rewrite)
        with pytest.raises(StaleFileError) as excinfo:
            cold.mounts._extract(cold.uri, "D", request, observed=observed)
        assert excinfo.value.transient
        assert excinfo.value.retries == 2
        assert cold.store.stats.precondition_failed == 3

    @pytest.mark.parametrize("hand_down", [True, False])
    def test_rewrite_mid_extract_is_still_detected(
        self, tmp_path, monkeypatch, hand_down
    ):
        cold = _ColdMount(tmp_path)
        request = cold.two_ranges(monkeypatch)
        observed = cold.repo.signature_of(cold.uri) if hand_down else None
        # Between each attempt's two GETs, on all three attempts.
        cold.after_get((1, 3, 5), cold.rewrite)
        with pytest.raises(StaleFileError) as excinfo:
            cold.mounts._extract(cold.uri, "D", request, observed=observed)
        assert excinfo.value.transient
        assert excinfo.value.retries == 2
        assert cold.store.stats.precondition_failed == 3
        # Nothing of a dead version is left staged for the next attempt.
        assert cold.repo.stats.invalidations == 3
        cold.repo.coalesce_gap_bytes = 64 * 1024
        result = cold.mounts._extract(cold.uri, "D", cold.request())
        assert np.array_equal(_values(result), cold.samples())
        assert cold.repo.stats.staged_reuses == 0

    def test_staged_ranges_of_the_old_version_are_not_reused(self, tmp_path):
        cold = _ColdMount(tmp_path)
        old = _values(cold.mounts._extract(cold.uri, "D", cold.request()))
        cold.rewrite()
        new = _values(cold.mounts._extract(cold.uri, "D", cold.request()))
        assert np.array_equal(new, old + 1)
        assert np.array_equal(new, cold.samples())
        assert cold.repo.stats.invalidations == 1
        assert cold.repo.stats.staged_reuses == 0
        assert cold.store.stats.ranged_gets == 2  # fetched again, not reused
        assert cold.repo.stats.remote_bytes == 2 * cold.wanted_bytes()


class TestOneLadderOneKey:
    """A failed request is retried by its transport alone, and scored under
    its endpoint alone: an outage costs each file one ladder of requests,
    and once the endpoint is back and cooled down every file behind it
    answers — none is refused for the endpoint's own refusals."""

    SQL = "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri"
    COOLDOWN = 0.2  # also bounds how long a request waits on the probe

    def _endpoint(self, tmp_path, failure_threshold=3):
        objects = tmp_path / "objects"
        generate_repository(objects, replace(SPEC, stations=("ISK", "ANK")))
        store = SimulatedObjectStore("seis-eu", objects)
        repo = RemoteRepository(
            store,
            policy=TransportPolicy(
                backoff_seconds=0.0,
                breaker_failures=failure_threshold,
                breaker_cooldown_seconds=self.COOLDOWN,
            ),
        )
        db = Database()
        lazy_ingest_metadata(db, repo)
        return store, repo, db

    def _recover(self, store):
        store.set_down(False)
        time.sleep(self.COOLDOWN)  # the endpoint's circuit cools down

    def test_one_files_mount_against_a_down_endpoint_is_one_ladder(
        self, tmp_path
    ):
        store, repo, _ = self._endpoint(tmp_path, failure_threshold=100)
        mounts = MountService(RepositoryBinding(repo))
        uri = repo.uris()[0]
        store.set_down()
        before = store.stats.requests
        with pytest.raises(RemoteTransportError) as excinfo:
            mounts.mount_file(uri, "D", "d", None)
        # The transport's three attempts, not three mount attempts of three.
        assert store.stats.requests - before == 3
        assert excinfo.value.retries == 2

    def test_skip_mode_outages_leave_no_file_refused(self, tmp_path):
        store, repo, db = self._endpoint(tmp_path)
        executor = TwoStageExecutor(
            db, RepositoryBinding(repo), cache=IngestionCache(CachePolicy.DISCARD)
        )
        healthy = executor.execute(self.SQL).rows
        store.set_down()
        for _ in range(3):
            degraded = executor.execute(
                self.SQL, context=executor.open_context(on_mount_error="skip")
            )
            assert degraded.mount_failures.endpoints() == ["seis-eu"]
        self._recover(store)
        assert executor.execute(self.SQL).rows == healthy

    def test_a_tenant_over_a_discard_cache_answers_after_outages(
        self, tmp_path
    ):
        store, repo, db = self._endpoint(tmp_path)
        with QueryService(
            repo, db=db, cache=IngestionCache(CachePolicy.DISCARD)
        ) as service:
            healthy = service.execute(self.SQL, tenant="a").rows
            store.set_down()
            for _ in range(3):
                with pytest.raises(FileIngestError) as excinfo:
                    service.execute(self.SQL, tenant="a")
                assert excinfo.value.endpoint == "seis-eu"
            self._recover(store)
            assert service.execute(self.SQL, tenant="a").rows == healthy


class TestCacheScanOfAVanishedFile:
    """Cached rows are served only against a signature the file has now. A
    file that has none — it is gone — is the mount's error to raise or
    report, not a hit; an endpoint that merely cannot be asked is."""

    @pytest.fixture(params=["local", "remote"])
    def cached(self, request, tmp_path):
        """A mount service with one file's rows cached, and that file."""
        cold = _ColdMount(tmp_path, cache=IngestionCache(CachePolicy.UNBOUNDED))
        if request.param == "local":
            cold.repo = FileRepository(cold.objects)
            cold.mounts.binding = RepositoryBinding(cold.repo)
            cold.mounts.record_map_provider = None
            [cold.uri] = cold.repo.uris()
        cold.rows = cold.mounts.mount_file(cold.uri, "D", "d", None).num_rows
        assert cold.rows > 0 and cold.mounts.cache.contains(cold.uri)
        return cold

    def test_fail_fast_raises_the_typed_error(self, cached):
        cached.path.unlink()
        context = MountContext()
        with pytest.raises(FileIngestError) as excinfo:
            cached.mounts.cache_scan(cached.uri, "D", "d", None, context)
        assert excinfo.value.uri == cached.uri
        if isinstance(cached.repo, RemoteRepository):
            assert isinstance(excinfo.value, RemoteObjectMissingError)
        assert context.trace.counters == {
            "fallback_mounts": 1, "stale_remounts": 1,
        }
        assert not cached.mounts.cache.contains(cached.uri)

    def test_skip_quarantines_and_reports(self, cached):
        cached.path.unlink()
        context = MountContext(on_error="skip")
        batch = cached.mounts.cache_scan(cached.uri, "D", "d", None, context)
        assert batch.num_rows == 0
        assert context.failure_report.uris() == [cached.uri]
        assert context.is_quarantined(cached.uri)
        counters = context.trace.counters
        assert (counters["cache_scans"], counters["skipped_mounts"]) == (0, 1)
        assert not cached.mounts.cache.contains(cached.uri)

    def test_a_second_run_of_the_query_does_not_answer_from_the_cache(
        self, tmp_path
    ):
        cold = _ColdMount(tmp_path)
        sql = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"
        executor = TwoStageExecutor(
            cold.db,
            RepositoryBinding(cold.repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED),
        )
        assert executor.execute(sql).rows[0][0] > 0
        cold.path.unlink()
        with pytest.raises(RemoteObjectMissingError):
            executor.execute(sql)
        degraded = executor.execute(
            sql, context=executor.open_context(on_mount_error="skip")
        )
        assert degraded.rows == [(0,)]
        assert degraded.mount_failures.uris() == [cold.uri]

    def test_an_unreachable_endpoint_serves_what_is_cached(self, tmp_path):
        cold = _ColdMount(tmp_path, cache=IngestionCache(CachePolicy.UNBOUNDED))
        rows = cold.mounts.mount_file(cold.uri, "D", "d", None).num_rows
        cold.store.set_down()
        # Nothing says the rows are stale and nothing can: stale-but-
        # available, as with the remembered listing.
        context = MountContext()
        batch = cold.mounts.cache_scan(cold.uri, "D", "d", None, context)
        assert batch.num_rows == rows
        assert context.trace.counters == {"cache_scans": 1}
        assert cold.mounts.cache.contains(cold.uri)


# Two directories (one per station) of three objects each (one per channel).
BREAKPOINT_SPEC = replace(
    SPEC, stations=("ISK", "ANK"), channels=("BHE", "BHN", "BHZ")
)


class _CachedQuery:
    """A query whose files an executor with an unbounded cache holds, over
    a cold-staged endpoint of :data:`BREAKPOINT_SPEC` whose metadata an
    earlier session harvested; ``warm=False`` leaves the query unrun."""

    ONE_STATION = (
        "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK'"
    )
    BOTH_STATIONS = (
        "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri"
    )

    def __init__(self, tmp_path, sql=ONE_STATION, warm=True):
        self.objects = tmp_path / "objects"
        generate_repository(self.objects, BREAKPOINT_SPEC)
        self.db = Database()
        lazy_ingest_metadata(self.db, self._repository())
        self.repo = self._repository()
        self.store = self.repo.transport.store
        self.executor = TwoStageExecutor(
            self.db,
            RepositoryBinding(self.repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED),
        )
        self.sql = sql
        if warm:
            self.warm = self.executor.execute(sql).rows
            self.uris = sorted(self.executor.cache.cached_uris())
        self.before = replace(self.store.stats)

    def _repository(self):
        return RemoteRepository(SimulatedObjectStore("seis-eu", self.objects))

    def path(self, uri):
        return self.objects / parse_remote_uri(uri)[1]

    def requests(self):
        """(LISTs, HEADs, GETs) answered since the query was first run."""
        now, before = self.store.stats, self.before
        return (
            now.lists - before.lists,
            now.heads - before.heads,
            now.gets - before.gets,
        )

    def fresh(self):
        """The query's answer over the objects as they are now, from a
        session that has nothing cached or held."""
        repo = self._repository()
        return TwoStageExecutor(self.db, RepositoryBinding(repo)).execute(
            self.sql
        ).rows


class TestOneListPerBreakpoint:
    """A query's cache scans compare against what one LIST per directory
    observed at the breakpoint, instead of a HEAD each; a file whose
    directory holds no other scan keeps its HEAD, and whatever a HEAD could
    meet — a 404, an endpoint down, a cancelled query — ends the same."""

    def test_three_cached_files_are_one_list_and_no_head(self, tmp_path):
        query = _CachedQuery(tmp_path)
        served = query.executor.execute(query.sql)
        assert served.rows == query.warm
        assert served.result.trace.counters["cache_scans"] == 3
        assert query.requests() == (1, 0, 0)

    @pytest.mark.parametrize(
        "listed, round_trips, requests",
        [(True, 1.5, (1, 0, 0)), (True, 2.5, (0, 3, 0)), (False, 1.5, (0, 3, 0))],
    )
    def test_a_list_whose_body_outlasts_the_heads_it_saves_is_left_to_them(
        self, tmp_path, listed, round_trips, requests
    ):
        """On a link with a bandwidth the LIST's body streams too: it is
        sent only if that takes less than the two round trips it saves. The
        keys under its prefix are counted in the last listing, and taken
        for a full page before there is one."""
        query = _CachedQuery(tmp_path)
        keys = [parse_remote_uri(uri)[1] for uri in query.uris]
        prefix = os.path.commonprefix(keys)
        listing = SimulatedObjectStore("seis-eu", query.objects).list_keys
        body = len(listing(prefix=prefix).entries) * (
            simstore_module.LIST_ENTRY_BYTES
        )
        if listed:
            query.repo.signatures()
        latency = 0.002
        query.store.model = NetworkModel(
            NetworkProfile(
                latency_seconds=latency,
                bandwidth_bytes_per_second=body / (round_trips * latency),
            )
        )
        query.before = replace(query.store.stats)
        assert query.executor.execute(query.sql).rows == query.warm
        assert query.requests() == requests

    def test_cached_files_in_two_directories_are_two_lists(self, tmp_path):
        query = _CachedQuery(tmp_path, _CachedQuery.BOTH_STATIONS)
        served = query.executor.execute(query.sql)
        assert served.rows == query.warm
        assert served.result.trace.counters["cache_scans"] == 6
        assert query.requests() == (2, 0, 0)

    def test_a_lone_cached_file_is_its_head(self, tmp_path):
        query = _CachedQuery(
            tmp_path, _CachedQuery.ONE_STATION + " AND F.channel = 'BHZ'"
        )
        assert query.executor.execute(query.sql).rows == query.warm
        assert query.requests() == (0, 1, 0)

    def test_a_group_longer_than_a_page_heads_the_rest(
        self, tmp_path, monkeypatch
    ):
        query = _CachedQuery(tmp_path)
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 2)
        served = query.executor.execute(query.sql)
        assert served.rows == query.warm
        assert served.result.trace.counters["cache_scans"] == 3
        assert query.requests() == (1, 1, 0)  # the page held two of three
        # The third was left to its HEAD, not taken for gone.
        assert served.trace.counters["fallback_mounts"] == 0

    @pytest.mark.parametrize("observed_by", ["LIST", "HEAD"])
    def test_an_object_deleted_before_the_list_is_a_404(
        self, tmp_path, monkeypatch, observed_by
    ):
        """The last key in the group is gone: passed over by the LIST, or —
        past a page of one — answered 404 by its own HEAD. Both end alike."""
        query = _CachedQuery(tmp_path)
        if observed_by == "HEAD":
            monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 1)
        gone = query.uris[-1]
        samples = sum(len(r.samples) for r in read_records(query.path(gone)))
        query.path(gone).unlink()
        with pytest.raises(RemoteObjectMissingError) as excinfo:
            query.executor.execute(query.sql)
        assert excinfo.value.uri == gone
        assert not excinfo.value.transient
        # The scans' HEADs, if any, and the fallback mount's: the repository
        # holds a whole copy and asks whether it is current.
        assert query.requests()[:2] == (1, 1 if observed_by == "LIST" else 3)
        assert query.executor.cache.cached_uris() == set(query.uris[:-1])
        assert query.executor.totals()["stale_remounts"] == 1
        degraded = query.executor.execute(
            query.sql, context=query.executor.open_context(on_mount_error="skip")
        )
        [failure] = degraded.mount_failures.failures
        assert (failure.uri, failure.error, failure.endpoint) == (
            gone, "RemoteObjectMissingError", "seis-eu",
        )
        assert degraded.rows[0][0] == query.warm[0][0] - samples

    def test_an_endpoint_down_at_the_list_serves_the_cached_rows_unobserved(
        self, tmp_path
    ):
        query = _CachedQuery(tmp_path)
        query.store.set_down()
        served = query.executor.execute(query.sql)
        assert served.rows == query.warm
        assert served.result.trace.counters["cache_scans"] == 3
        assert served.mount_failures.failures == []
        # Every request was an attempt at the one LIST, refused; no scan
        # asked again.
        stats = query.store.stats
        assert stats.refused == stats.requests - query.before.requests > 0
        assert query.requests() == (0, 0, 0)
        assert query.executor.cache.cached_uris() == set(query.uris)

    def test_a_token_cancelled_during_the_list_raises_the_interruption(
        self, tmp_path
    ):
        query = _CachedQuery(tmp_path)
        context = query.executor.open_context()
        list_keys = query.store.list_keys

        def cancelled_in_flight(*args, **kwargs):
            context.token.cancel("ctrl-c during the breakpoint's LIST")
            query.store.model = NetworkModel(NetworkProfile(latency_seconds=5.0))
            return list_keys(*args, **kwargs)

        query.store.list_keys = cancelled_in_flight
        started = time.monotonic()
        with pytest.raises(QueryCancelledError, match="breakpoint's LIST"):
            query.executor.execute(query.sql, context=context)
        assert time.monotonic() - started < 2.0
        # The LIST was begun and never answered; nothing was asked after it.
        assert query.store.stats.requests == query.before.requests + 1
        assert query.requests() == (0, 0, 0)
        assert query.executor.cache.cached_uris() == set(query.uris)

    def test_a_rewrite_after_the_list_is_the_next_querys_to_see(
        self, tmp_path
    ):
        """The comparison is as fresh as the breakpoint: a rewrite landing
        between the LIST and the scan leaves this query's rows wholly of the
        version listed, and the next query's LIST replaces them."""
        query = _CachedQuery(tmp_path)
        rewritten = query.uris[0]
        list_keys = query.store.list_keys

        def rewritten_once_listed(*args, **kwargs):
            page = list_keys(*args, **kwargs)
            query.store.list_keys = list_keys
            _rewrite(query.path(rewritten))
            return page

        query.store.list_keys = rewritten_once_listed
        served = query.executor.execute(query.sql)
        assert served.rows == query.warm
        assert (
            served.trace.counters["cache_scans"],
            served.trace.counters["stale_remounts"],
        ) == (3, 0)
        again = query.executor.execute(query.sql)
        assert (
            again.trace.counters["cache_scans"],
            again.trace.counters["stale_remounts"],
        ) == (2, 1)
        assert again.rows == query.fresh() != query.warm
        assert again.rows[0][0] == query.warm[0][0]
        # The remount's GET is conditional on what the LIST observed: no
        # HEAD asks whether the whole copy held is current.
        assert query.requests() == (2, 0, 1)


def _record_tokens(store):
    """Wrap ``store``'s LIST, HEAD and GET; returns the (op, token) log."""
    seen = []
    for op in ("list_keys", "head", "get"):

        def recording(*args, _op=op, _request=getattr(store, op), **kwargs):
            seen.append((_op, kwargs["token"]))
            return _request(*args, **kwargs)

        setattr(store, op, recording)
    return seen


class _UnlinkedRemoteQuery:
    """An executor over a warm-metadata remote repository, and the query
    with no metadata constraint — the one that LISTs on the query path."""

    SQL = "SELECT COUNT(*) FROM D"

    def __init__(self, tmp_path, objects_dir, policy=TransportPolicy()):
        self.store = _store(objects_dir)
        self.repo = RemoteRepository(self.store, policy=policy)
        db = Database()
        lazy_ingest_metadata(db, self.repo)
        self.executor = TwoStageExecutor(db, RepositoryBinding(self.repo))
        self.lists_before = self.store.stats.lists

    def stall(self, seconds=5.0):
        """Every request from here on waits ``seconds`` on the link."""
        self.store.model = NetworkModel(NetworkProfile(latency_seconds=seconds))
        self.requests_before = self.store.stats.requests

    def assert_stopped_inside_the_list(self, started):
        # One request was begun and none completed: the interruption landed
        # in the LIST's own wait, not at a checkpoint around it.
        assert time.monotonic() - started < 2.0
        assert self.store.stats.requests == self.requests_before + 1
        assert self.store.stats.lists == self.lists_before


class TestScopeHandDown:
    """The query's token and retry budget travel with each request — down
    ``uris`` / ``signature_of`` / ``source_for`` → ``RemoteExtractor`` →
    its fetch → transport — instead of being left on the transport for
    whoever asks next."""

    def test_a_stalled_list_is_stopped_by_its_querys_token(
        self, tmp_path, objects_dir
    ):
        query = _UnlinkedRemoteQuery(tmp_path, objects_dir)
        query.stall()
        context = query.executor.open_context()

        def cancel_once_listing():
            while query.store.stats.requests == query.requests_before:
                time.sleep(0.001)
            context.token.cancel("ctrl-c during LIST")

        watcher = threading.Thread(target=cancel_once_listing, daemon=True)
        watcher.start()
        started = time.monotonic()
        with pytest.raises(QueryCancelledError, match="ctrl-c during LIST"):
            query.executor.execute(query.SQL, context=context)
        watcher.join(5.0)
        query.assert_stopped_inside_the_list(started)

    def test_a_stalled_list_is_stopped_by_its_querys_deadline(
        self, tmp_path, objects_dir
    ):
        query = _UnlinkedRemoteQuery(tmp_path, objects_dir)
        query.stall()
        started = time.monotonic()
        with pytest.raises(QueryBudgetExceeded):
            query.executor.execute(
                query.SQL, budget=QueryBudget(deadline_seconds=0.3)
            )
        query.assert_stopped_inside_the_list(started)

    def test_a_failing_list_spends_its_querys_retry_budget(
        self, tmp_path, objects_dir
    ):
        query = _UnlinkedRemoteQuery(
            tmp_path,
            objects_dir,
            TransportPolicy(backoff_seconds=0.0, retry_budget_attempts=4),
        )
        eager = query.executor.execute(query.SQL).rows
        resets = [ConnectionResetError("scripted reset")] * 2
        list_keys = query.store.list_keys

        def flaky(*args, **kwargs):
            if resets:
                raise resets.pop()
            return list_keys(*args, **kwargs)

        query.store.list_keys = flaky
        context = query.executor.open_context()
        assert query.executor.execute(query.SQL, context=context).rows == eager
        assert context.retry_budget("seis-eu", 4).spent() == 2
        assert query.repo.transport.stats.retries == 2
        assert query.repo.stats.listing_fallbacks == 0
        # The next query's budget is its own: full, whatever this one spent.
        later = query.executor.open_context()
        assert later.retry_budget("seis-eu", 4).spent() == 0

    def test_every_page_of_a_listing_carries_the_contexts_token(
        self, tmp_path, monkeypatch
    ):
        generate_repository(tmp_path / "objects", LISTED_SPEC)
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 1)
        endpoint = _Endpoint(tmp_path / "objects")
        seen = _record_tokens(endpoint.store)
        context = MountContext()
        assert len(endpoint.repo.signatures(context)) == LISTED_SPEC.file_count
        assert seen == [("list_keys", context.token)] * LISTED_SPEC.file_count

    def test_a_fired_token_stops_the_listing_inside_the_page_in_flight(
        self, tmp_path, monkeypatch
    ):
        generate_repository(tmp_path / "objects", LISTED_SPEC)
        monkeypatch.setattr(simstore_module, "LIST_PAGE_ENTRIES", 1)
        endpoint = _Endpoint(tmp_path / "objects")
        store = endpoint.store
        list_keys = store.list_keys

        def stall_after_the_first_page(*args, **kwargs):
            page = list_keys(*args, **kwargs)
            store.model = NetworkModel(NetworkProfile(latency_seconds=5.0))
            return page

        store.list_keys = stall_after_the_first_page
        context = MountContext()

        def cancel_inside_the_second_page():
            while store.stats.requests < 2:
                time.sleep(0.001)
            context.token.cancel("ctrl-c during page 2")

        watcher = threading.Thread(
            target=cancel_inside_the_second_page, daemon=True
        )
        watcher.start()
        started = time.monotonic()
        with pytest.raises(QueryCancelledError, match="ctrl-c during page 2"):
            endpoint.repo.signatures(context)
        watcher.join(5.0)
        assert not watcher.is_alive()
        # Begun and not completed: the interruption landed in the second
        # page's own wait, and no third page was asked for.
        assert time.monotonic() - started < 2.0
        assert (store.stats.requests, store.stats.lists) == (2, 1)
        # The page that did arrive is no listing to fall back on. The link
        # stops stalling first: a refusal pays the latency, per attempt.
        store.model = NetworkModel(NetworkProfile())
        store.set_down()
        with pytest.raises(FileIngestError):
            endpoint.repo.uris()
        assert endpoint.repo.stats.listing_fallbacks == 0

    @pytest.mark.parametrize("selective", [True, False])
    def test_every_request_of_a_mount_carries_the_mounts_context(
        self, tmp_path, selective
    ):
        cold = _ColdMount(
            tmp_path, cache=IngestionCache(CachePolicy.UNBOUNDED)
        )
        seen = _record_tokens(cold.store)
        context = MountContext(governor=QueryGovernor())
        predicate = cold.predicate() if selective else None
        cold.mounts.mount_file(cold.uri, "D", "d", predicate, context)
        assert [op for op, _ in seen] == ["get"]
        assert all(token is context.token for _, token in seen)
        # The cache scan's staleness HEAD too.
        del seen[:]
        cold.mounts.cache_scan(cold.uri, "D", "d", predicate, context)
        assert seen == [("head", context.token)]
        assert context.trace.counters["cache_scans"] == 1

    def test_a_fired_token_stops_its_own_mount_and_no_other(self, tmp_path):
        cold = _ColdMount(tmp_path)
        cancelled = MountContext(governor=QueryGovernor())
        cancelled.token.cancel("this query only")
        with pytest.raises(QueryCancelledError, match="this query only"):
            cold.mounts._extract(
                cold.uri, "D", cold.request(), context=cancelled
            )
        assert (cold.store.stats.heads, cold.store.stats.gets) == (0, 0)
        other = MountContext(governor=QueryGovernor())
        for context in (other, None):
            result = cold.mounts._extract(
                cold.uri, "D", cold.request(), context=context
            )
            assert np.array_equal(_values(result), cold.samples())

    def test_one_retry_budget_per_query_and_endpoint(self, tmp_path):
        cold = _ColdMount(tmp_path)
        attempts = cold.repo.transport.policy.retry_budget_attempts
        context = MountContext()
        cold.mounts._extract(cold.uri, "D", cold.request(), context=context)
        budget = context.retry_budget("seis-eu", attempts)
        assert budget.attempts == attempts and budget.spent() == 0
        assert context.retry_budget("seis-eu", attempts) is budget
        # Sized by whichever transport asks first, per endpoint.
        assert context.retry_budget("seis-us", 3).attempts == 3
        assert MountContext().retry_budget("seis-eu", attempts) is not budget

    def test_federation_passes_the_scope_to_the_owning_member(self, tmp_path):
        cold = _ColdMount(tmp_path)
        seen = _record_tokens(cold.store)
        fed = FederatedRepository([cold.repo])
        context = MountContext()
        assert fed.uris(context) == [cold.uri]
        assert seen.pop() == ("list_keys", context.token)
        assert fed.signature_of(cold.uri, context) == cold.repo.signature_of(
            cold.uri
        )
        scoped, unscoped = (token for _, token in seen)
        assert scoped is context.token and unscoped is not context.token
        source, extractor = fed.source_for(
            cold.uri, default_registry(), context
        )
        assert source.scope is extractor.scope is context
        assert extractor.observing((0, 0)).scope is context


class TestNoQueryWritesAFile:
    """A remote object's bytes stay in memory: no query writes a file, under
    the staging directory a caller still passes or under the temporary
    directory."""

    WINDOW = (
        "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time > '2010-01-10T10:00:00.000' "
        "AND D.sample_time < '2010-01-10T12:00:00.000'"
    )

    def test_remote_federated_served_and_cli_queries_write_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        objects = tmp_path / "objects"
        generate_repository(objects, BREAKPOINT_SPEC)
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        staging = tmp_path / "staging"

        def remote(root):
            return RemoteRepository(SimulatedObjectStore("seis-eu", root), staging)

        def answer(repository, workers=1):
            db = Database()
            lazy_ingest_metadata(db, repository)
            if workers == 1:
                binding = RepositoryBinding(repository)
                return TwoStageExecutor(db, binding).execute(self.WINDOW).rows
            with QueryService(repository, db=db, mount_workers=workers) as service:
                return service.execute(self.WINDOW).rows

        stations = sorted((objects / "2010").iterdir())
        answers = [
            answer(remote(objects)),
            answer(FederatedRepository(
                [FileRepository(stations[0]), remote(stations[1])]
            )),
            answer(remote(objects), workers=2),
        ]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0][0][0] > 0
        assert main(["query", "--remote", f"seis={objects}", self.WINDOW]) == 0
        assert "(endpoint seis:" in capsys.readouterr().err
        assert not staging.exists()
        assert list(temp.iterdir()) == []
