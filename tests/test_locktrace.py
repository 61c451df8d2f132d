"""Runtime lock tracing: order-graph cycle detection, traced primitives,
per-lock stats, and guarded-attribute enforcement.

The static analyzer (``tools/lint/concurrency.py``) proves properties of the
source; this suite proves the *runtime* half (:mod:`repro.testing.locktrace`)
catches what only an execution can show — and that the :mod:`repro._sync`
seam hands traced primitives to the real engine classes when tracing is on.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import _sync
from repro.db.buffer import BufferManager
from repro.testing.locktrace import (
    GuardViolation,
    LockOrderError,
    TracedCondition,
    TracedLock,
    TracedRLock,
    current_held,
    guard_class,
    registry,
    tracing,
)

pytestmark = pytest.mark.locktrace


# -- the seeded inversion: A->B on one thread, B->A on another ----------------


def test_lock_order_error_fires_deterministically_on_inversion():
    """The acceptance scenario: establish A->B, then attempt B->A.

    The graph check fires on the *second ordering itself*, not on an
    unlucky interleaving — so the error is deterministic: thread 1 fully
    finishes (join) before thread 2 starts, yet thread 2 still raises.
    """
    with tracing():
        a = TracedLock("A")
        b = TracedLock("B")
        errors: list[BaseException] = []

        def forward() -> None:
            with a:
                with b:
                    pass

        def backward() -> None:
            try:
                with b:
                    with a:  # pragma: no cover - must raise before entering
                        pass
            except LockOrderError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=forward)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backward)
        t2.start()
        t2.join()

        assert len(errors) == 1
        cycle = errors[0].cycle
        assert cycle[0] == "A" and cycle[-1] == "A" and "B" in cycle
        # The failed acquisition must not leak: B was released by the
        # `with` unwinding, so the thread state is clean.
        assert current_held() == []


def test_consistent_order_never_raises():
    with tracing():
        a = TracedLock("A")
        b = TracedLock("B")
        for _ in range(3):
            with a:
                with b:
                    pass


def test_self_deadlock_detected_instead_of_hanging():
    with tracing():
        lock = TracedLock("L")
        with lock:
            with pytest.raises(LockOrderError, match="self-deadlock"):
                lock.acquire()


def test_three_lock_cycle_reports_path():
    with tracing():
        a, b, c = TracedLock("A"), TracedLock("B"), TracedLock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderError) as exc_info:
                a.acquire()
        assert exc_info.value.cycle == ["A", "B", "C", "A"]


# -- traced primitives --------------------------------------------------------


def test_rlock_reentrancy_counts_outermost_only():
    with tracing() as reg:
        lock = TracedRLock("R")
        with lock:
            with lock:  # reentrant: no order check, no second acquisition
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()
        assert reg.snapshot()["R"].acquisitions == 1


def test_two_instances_of_one_class_do_not_false_positive():
    # Class-level naming: two instances of one class share the name; nesting
    # one inside the other is outside the hierarchy model and must not
    # raise (check_order skips same-name holders).
    with tracing():
        first = TracedLock("Pool._lock")
        second = TracedLock("Pool._lock")
        with first:
            with second:
                pass


def test_contention_and_hold_time_recorded():
    with tracing() as reg:
        lock = TracedLock("L")
        entered = threading.Event()
        release = threading.Event()

        def holder() -> None:
            with lock:
                entered.set()
                release.wait(2.0)

        def taker() -> None:
            with lock:
                pass

        t1 = threading.Thread(target=holder)
        t1.start()
        entered.wait(2.0)
        t2 = threading.Thread(target=taker)
        t2.start()
        time.sleep(0.05)  # let the taker block on the held lock
        release.set()
        t1.join()
        t2.join()

        stats = reg.snapshot()["L"]
        assert stats.acquisitions == 2
        assert stats.contended == 1
        assert stats.wait_seconds > 0.0
        assert stats.hold_seconds > 0.0
        assert stats.max_hold_seconds <= stats.hold_seconds


def test_condition_wait_notify_keeps_bookkeeping_truthful():
    with tracing():
        cond = TracedCondition("C")
        ready: list[bool] = []
        flag = {"set": False}
        parked = threading.Event()

        def waiter() -> None:
            with cond:
                while not flag["set"]:
                    parked.set()
                    cond.wait(2.0)
                # Woken with the lock held again.
                ready.append(cond._lock.held_by_current_thread())

        t = threading.Thread(target=waiter)
        t.start()
        parked.wait(2.0)
        with cond:
            flag["set"] = True
            cond.notify_all()
        t.join(2.0)
        assert ready == [True]
        assert current_held() == []


def test_condition_requires_lock_held():
    with tracing():
        cond = TracedCondition("C")
        with pytest.raises(RuntimeError, match="without its lock held"):
            cond.wait(0.01)
        with pytest.raises(RuntimeError, match="without its lock held"):
            cond.notify()


def test_condition_wait_for_predicate():
    with tracing():
        cond = TracedCondition("C")
        with cond:
            assert cond.wait_for(lambda: True) is True
            assert cond.wait_for(lambda: False, timeout=0.01) is False


def test_release_by_non_owner_raises():
    with tracing():
        lock = TracedLock("L")
        with pytest.raises(RuntimeError, match="does not hold"):
            lock.release()


# -- the _sync seam -----------------------------------------------------------


def test_sync_factories_switch_on_tracing():
    # Force the untraced baseline: CI runs this file under
    # REPRO_LOCK_TRACE=1, where the import-time default is already traced.
    previous = _sync.set_tracing(False)
    try:
        plain = _sync.create_lock("X")
        assert isinstance(plain, type(threading.Lock()))
        assert _sync.lock_snapshot() == {}
        with tracing():
            traced = _sync.create_lock("X")
            assert isinstance(traced, TracedLock)
            traced_cond = _sync.create_condition("C", _sync.create_lock("Y"))
            assert isinstance(traced_cond, TracedCondition)
        after = _sync.create_lock("X")
        assert isinstance(after, type(threading.Lock()))
    finally:
        _sync.set_tracing(previous)


def test_lock_snapshot_delta_windows_activity():
    with tracing():
        lock = _sync.create_lock("Window._lock")
        with lock:
            pass
        before = _sync.lock_snapshot()
        with lock:
            pass
        with lock:
            pass
        delta = _sync.lock_snapshot_delta(before)
        assert delta["Window._lock"].acquisitions == 2


def test_buffer_manager_locks_are_traced_end_to_end():
    """The engine-facing proof: a real BufferManager built under tracing
    routes every residency operation through its named traced lock —
    including flush()/is_resident(), the methods that historically skipped
    the lock entirely."""
    with tracing() as reg:
        buffers = BufferManager()
        buffers.touch("table:e:m", 1024)
        assert buffers.is_resident("table:e:m")
        buffers.flush()
        assert not buffers.is_resident("table:e:m")
        stats = reg.snapshot()["BufferManager._lock"]
        # touch + 2x is_resident + flush, at least.
        assert stats.acquisitions >= 4


def test_buffer_manager_residency_hammer_is_consistent():
    """Regression for the unlocked flush()/warm()/is_resident() races:
    concurrent touch/flush/warm must never corrupt the residency set (a
    torn set raised RuntimeError mid-iteration before the fix)."""
    buffers = BufferManager()
    stop = threading.Event()
    failures: list[BaseException] = []

    def toucher(worker: int) -> None:
        try:
            i = 0
            while not stop.is_set():
                buffers.touch(f"obj:{worker}:{i % 17}", 100)
                buffers.is_resident(f"obj:{worker}:{i % 17}")
                i += 1
        except BaseException as exc:  # pragma: no cover - the regression
            failures.append(exc)

    def flusher() -> None:
        try:
            while not stop.is_set():
                buffers.flush()
                buffers.resident_objects()
                buffers.warm("warm:x", 10)
        except BaseException as exc:  # pragma: no cover - the regression
            failures.append(exc)

    threads = [threading.Thread(target=toucher, args=(w,)) for w in range(3)]
    threads.append(threading.Thread(target=flusher))
    for t in threads:
        t.start()
    time.sleep(0.2)
    stop.set()
    for t in threads:
        t.join(2.0)
    assert failures == []
    assert buffers.stats.objects_read > 0


# -- guarded-attribute enforcement -------------------------------------------


class _Box:
    def __init__(self) -> None:
        self._lock = TracedLock("_Box._lock")
        self._value = 0  # guarded-by: _lock
        self.free = "anything"

    def set_value(self, value: int) -> None:
        with self._lock:
            self._value = value


def test_guard_class_enforces_declarations():
    with tracing():
        guarded = guard_class(_Box)
        box = guarded()
        box.set_value(7)  # under the lock: fine
        box.free = "still fine"  # undeclared attribute: unrestricted
        with pytest.raises(GuardViolation, match="_Box._value"):
            box._value = 13


def test_guard_class_allows_init_and_plain_locks():
    class Plain:
        def __init__(self) -> None:
            self._lock = threading.Lock()  # cannot answer "who holds me"
            self._value = 0  # guarded-by: _lock

    guarded = guard_class(Plain)
    instance = guarded()  # __init__ rebinds freely
    instance._value = 5  # plain lock: enforcement passes through


def test_executor_exports_lock_stats_when_tracing(tiny_repo):
    """QueryTrace.lock_stats carries the per-lock counters of one
    execution when tracing is armed, and stays empty otherwise — and a
    traced run answers exactly like an untraced one."""
    from repro.core import TwoStageExecutor
    from repro.db import Database
    from repro.ingest import RepositoryBinding, lazy_ingest_metadata

    sql = (
        "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
    )

    def run():
        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        executor = TwoStageExecutor(db, RepositoryBinding(tiny_repo))
        return executor.execute(sql)

    previous = _sync.set_tracing(False)
    try:
        cold = run()
        assert cold.trace.lock_stats == {}
    finally:
        _sync.set_tracing(previous)

    with tracing():
        traced = run()
    assert traced.rows == cold.rows
    assert traced.trace.lock_stats, "tracing produced no lock stats"
    assert any(
        name.startswith(("BufferManager", "IngestionCache", "MountScheduler",
                         "CancellationToken", "QueryGovernor"))
        for name in traced.trace.lock_stats
    )
    assert all(
        stats.acquisitions > 0 for stats in traced.trace.lock_stats.values()
    )


def test_registry_reset_between_tracing_blocks():
    with tracing() as reg:
        with TracedLock("Ephemeral"):
            pass
        assert "Ephemeral" in reg.snapshot()
    with tracing() as reg:
        assert "Ephemeral" not in reg.snapshot()
        assert registry.edges() == {}
