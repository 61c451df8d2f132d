"""Lock-construction seam for the concurrency-tracing harness.

Every lock, reentrant lock, and condition variable in the concurrent core
(:mod:`repro.serve.scheduler`, :mod:`repro.core.cache`, :mod:`repro.db.buffer`,
:mod:`repro.core.governor`, :mod:`repro.serve.service`) is created through this module instead of
calling ``threading.Lock()`` directly. Normally the factories return the
plain :mod:`threading` primitives — zero wrappers, zero overhead. With
``REPRO_LOCK_TRACE=1`` (or :func:`set_tracing`) they return the traced
wrappers from :mod:`repro.testing.locktrace`, which record the global
lock-acquisition-order graph, raise a typed
:class:`~repro.testing.locktrace.LockOrderError` on a cycle-forming
acquisition, and export per-lock hold-time/contention counters.

This mirrors the :mod:`repro.mseed.iohooks` seam: production code sees one
flag check at *lock construction time* (locks are created per pool/cache/
service, never per operation), and the heavyweight machinery lives in
``repro.testing``, imported only when tracing is on. The module is
deliberately dependency-free so any layer (``db``, ``core``, ``serve``) can
import it without cycles.

Guarded-attribute declarations
------------------------------
The :func:`guarded` class decorator is the runtime half of the project's
``# guarded-by:`` convention (see ``docs/architecture.md`` §Concurrency
discipline): the same source annotations the static analyzer
(``tools/lint/concurrency.py``) enforces are parsed at runtime when tracing
is enabled, and rebinding a guarded attribute without holding its declared
lock raises :class:`~repro.testing.locktrace.GuardViolation`. When tracing
is off the decorator returns the class untouched.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

# Master switch, initialized from the environment once at import. Tests flip
# it through set_tracing() (see locktrace.tracing()); CI exports
# REPRO_LOCK_TRACE=1 before the process starts so import-time reads suffice.
_tracing: bool = os.environ.get("REPRO_LOCK_TRACE", "") == "1"


def set_tracing(enabled: bool) -> bool:
    """Flip the tracing switch; returns the previous value.

    Only locks created *after* the flip are traced — existing plain locks
    stay plain — so tests enable tracing before constructing the objects
    under test (the :func:`repro.testing.locktrace.tracing` context manager
    wraps this).
    """
    global _tracing
    previous = _tracing
    _tracing = enabled
    return previous


@dataclass
class LockStats:
    """Per-lock observability counters exported by the tracing layer.

    Attached to the query's :class:`~repro.obs.QueryTrace` (``lock_stats``)
    when tracing is active, so a traced run's result carries the lock
    hold-time/contention story next to its spans.
    """

    acquisitions: int = 0
    contended: int = 0  # acquisitions that found the lock already held
    wait_seconds: float = 0.0  # time spent blocked on contended acquires
    hold_seconds: float = 0.0  # total time the lock was held
    max_hold_seconds: float = 0.0


def create_lock(name: str) -> "threading.Lock":
    """A mutex named for diagnostics: ``ClassName._attr`` by convention."""
    if _tracing:
        from .testing.locktrace import TracedLock

        return TracedLock(name)  # type: ignore[return-value]
    return threading.Lock()


def create_rlock(name: str) -> "threading.RLock":
    if _tracing:
        from .testing.locktrace import TracedRLock

        return TracedRLock(name)  # type: ignore[return-value]
    return threading.RLock()


def create_condition(name: str, lock: Optional[object] = None) -> object:
    """A condition variable, sharing ``lock`` when given (the scheduler's
    wakeup condition wraps its own ``_lock`` so waiters and mutators
    serialize on one mutex)."""
    if _tracing:
        from .testing.locktrace import TracedCondition, TracedLock, TracedRLock

        if lock is None or isinstance(lock, (TracedLock, TracedRLock)):
            return TracedCondition(name, lock)
    return threading.Condition(lock)  # type: ignore[arg-type]


def lock_snapshot() -> dict[str, LockStats]:
    """Current per-lock counters ({} when tracing is off — the zero-cost
    path the executor takes every query)."""
    if not _tracing:
        return {}
    from .testing.locktrace import registry

    return registry.snapshot()


def lock_snapshot_delta(
    before: dict[str, LockStats],
) -> dict[str, LockStats]:
    """Counters accrued since ``before`` (a previous :func:`lock_snapshot`).

    The registry is process-global, so under a concurrent service the delta
    attributes *service-wide* lock activity to the window of one execution —
    an observability approximation, disclosed in the docs.
    """
    if not _tracing:
        return {}
    after = lock_snapshot()
    delta: dict[str, LockStats] = {}
    for name, stats in after.items():
        prior = before.get(name)
        if prior is None:
            delta[name] = stats
            continue
        changed = LockStats(
            acquisitions=stats.acquisitions - prior.acquisitions,
            contended=stats.contended - prior.contended,
            wait_seconds=stats.wait_seconds - prior.wait_seconds,
            hold_seconds=stats.hold_seconds - prior.hold_seconds,
            max_hold_seconds=stats.max_hold_seconds,
        )
        if changed.acquisitions > 0:
            delta[name] = changed
    return delta


def guarded(cls: type) -> type:
    """Enforce this class's ``# guarded-by:`` declarations at runtime.

    Identity when tracing is off (the production path: no wrapper, no
    per-setattr cost). When tracing is on at class-creation time, the
    class's source is parsed for declaration-site annotations and attribute
    *rebinds* are checked against the declared lock — container mutations
    are out of scope (the static analyzer covers those lexically).

    Tests that want enforcement without the environment flag use
    :func:`repro.testing.locktrace.guard_class`, which wraps a subclass on
    demand instead of mutating the shared class.
    """
    if not _tracing:
        return cls
    from .testing.locktrace import install_guards

    return install_guards(cls)


__all__ = [
    "LockStats",
    "create_condition",
    "create_lock",
    "create_rlock",
    "guarded",
    "lock_snapshot",
    "lock_snapshot_delta",
    "set_tracing",
]
