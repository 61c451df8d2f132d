"""Runtime lock-order and guarded-attribute tracing.

The dynamic half of the concurrency toolchain (the static half is
``tools/lint/concurrency.py``). When ``REPRO_LOCK_TRACE=1`` — or inside the
:func:`tracing` context manager — the :mod:`repro._sync` factories hand out
:class:`TracedLock` / :class:`TracedRLock` / :class:`TracedCondition`
instead of the plain :mod:`threading` primitives. The wrappers:

* maintain a per-thread stack of held locks and a process-global
  acquisition-order graph keyed by lock *name* (``ClassName._attr``), so
  ordering discipline is checked at the class level — exactly the lock
  hierarchy documented in ``docs/architecture.md``;
* raise :class:`LockOrderError` *before* blocking on an acquisition that
  would close a cycle in that graph (A-then-B on one thread, B-then-A on
  another deadlocks only under an unlucky interleaving; the graph check
  fires deterministically on the second ordering no matter the timing);
* detect non-reentrant self-deadlock (a thread re-acquiring a plain
  ``Lock`` it already holds) instead of hanging;
* accumulate per-lock-name :class:`~repro._sync.LockStats`
  (acquisitions, contended acquisitions, wait time, hold time) that
  :func:`repro._sync.lock_snapshot` exports onto ``QueryTrace.lock_stats``;
* optionally enforce ``# guarded-by:`` declarations: rebinding an
  annotated attribute without holding its declared lock raises
  :class:`GuardViolation` (see :func:`guard_class`).

Like everything in ``repro.testing`` this module is never imported by the
engine itself — ``repro._sync`` lazy-imports it only when tracing is on.
"""

from __future__ import annotations

import inspect
import re
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from .. import _sync
from .._sync import LockStats


class LockOrderError(RuntimeError):
    """A lock acquisition that would close a cycle in the global
    acquisition-order graph (or re-acquire a non-reentrant lock).

    ``cycle`` is the established path ``[attempted, ..., held]`` whose
    reversal the offending acquisition attempted.
    """

    def __init__(self, message: str, cycle: list[str]):
        super().__init__(message)
        self.cycle = cycle


class GuardViolation(RuntimeError):
    """A ``# guarded-by:`` annotated attribute was rebound without the
    declared lock held."""


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[object] = []  # TracedLock/TracedRLock, outermost first


_thread_state = _ThreadState()


class LockRegistry:
    """Process-global acquisition-order graph + per-lock-name counters.

    Edges mean "was held while acquiring": ``A -> B`` records that some
    thread acquired B with A held. A path ``B -> ... -> A`` existing when a
    thread holding A asks for B is a lock-order inversion.
    """

    def __init__(self) -> None:
        # Deliberately a *plain* lock: the registry must never trace itself.
        self._mutex = threading.Lock()
        self._edges: dict[str, set[str]] = {}  # guarded-by: _mutex
        self._stats: dict[str, LockStats] = {}  # guarded-by: _mutex

    # -- order graph ----------------------------------------------------

    def check_order(self, acquiring: str, held: list[str]) -> None:
        """Raise :class:`LockOrderError` if acquiring ``acquiring`` with
        ``held`` held would close a cycle; otherwise record the new edges."""
        with self._mutex:
            for holder in held:
                if holder == acquiring:
                    # Same class-level name on a *different* instance (the
                    # instance-level self-deadlock case is caught by the
                    # lock itself before calling here). Two instances of
                    # one class nested is outside the class-level
                    # hierarchy model; skip rather than false-positive.
                    continue
                path = self._find_path_locked(acquiring, holder)
                if path is not None:
                    cycle = path + [acquiring]
                    raise LockOrderError(
                        "lock-order inversion: acquiring "
                        f"'{acquiring}' while holding '{holder}', but the "
                        "established acquisition order is "
                        + " -> ".join(path)
                        + f" (so '{holder}' must never be held when taking "
                        f"'{acquiring}')",
                        cycle,
                    )
            for holder in held:
                if holder != acquiring:
                    self._edges.setdefault(holder, set()).add(acquiring)

    def _find_path_locked(self, start: str, goal: str) -> Optional[list[str]]:
        """BFS for an established path ``start -> ... -> goal``."""
        if start == goal:
            return None
        parents: dict[str, str] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for succ in self._edges.get(node, ()):
                    if succ in seen:
                        continue
                    parents[succ] = node
                    if succ == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    seen.add(succ)
                    nxt.append(succ)
            frontier = nxt
        return None

    # -- counters -------------------------------------------------------

    def note_acquired(self, name: str, contended: bool, waited: float) -> None:
        with self._mutex:
            stats = self._stats.setdefault(name, LockStats())
            stats.acquisitions += 1
            if contended:
                stats.contended += 1
                stats.wait_seconds += waited
    def note_released(self, name: str, held_for: float) -> None:
        with self._mutex:
            stats = self._stats.setdefault(name, LockStats())
            stats.hold_seconds += held_for
            if held_for > stats.max_hold_seconds:
                stats.max_hold_seconds = held_for

    def snapshot(self) -> dict[str, LockStats]:
        with self._mutex:
            return {
                name: LockStats(
                    acquisitions=s.acquisitions,
                    contended=s.contended,
                    wait_seconds=s.wait_seconds,
                    hold_seconds=s.hold_seconds,
                    max_hold_seconds=s.max_hold_seconds,
                )
                for name, s in self._stats.items()
            }

    def edges(self) -> dict[str, set[str]]:
        with self._mutex:
            return {a: set(bs) for a, bs in self._edges.items()}

    def reset(self) -> None:
        """Clear the graph and counters (between tests, with no locks held)."""
        with self._mutex:
            self._edges.clear()
            self._stats.clear()


registry = LockRegistry()


def current_held() -> list[str]:
    """Names of traced locks held by the calling thread, outermost first."""
    return [lock.name for lock in _thread_state.stack]  # type: ignore[attr-defined]


class TracedLock:
    """A named, order-checked ``threading.Lock``."""

    reentrant = False

    def __init__(self, name: str):
        self.name = name
        self._inner = threading.Lock()
        self._owner: Optional[int] = None
        self._acquired_at = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            raise LockOrderError(
                f"self-deadlock: thread already holds non-reentrant lock "
                f"'{self.name}' and tried to acquire it again",
                [self.name, self.name],
            )
        registry.check_order(self.name, current_held())
        start = perf_counter()
        got = self._inner.acquire(False)
        contended = not got
        if not got:
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
            if not got:
                return False
        self._note_acquired(contended, perf_counter() - start)
        return True

    def release(self) -> None:
        self._note_released()
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    # Bookkeeping split out so TracedCondition.wait() can bracket the
    # release/reacquire that happens inside threading.Condition.
    def _note_acquired(self, contended: bool, waited: float) -> None:
        self._owner = threading.get_ident()
        self._acquired_at = perf_counter()
        _thread_state.stack.append(self)
        registry.note_acquired(self.name, contended, waited)

    def _note_released(self) -> object:
        if self._owner != threading.get_ident():
            raise RuntimeError(
                f"release of '{self.name}' by a thread that does not hold it"
            )
        registry.note_released(self.name, perf_counter() - self._acquired_at)
        self._owner = None
        stack = _thread_state.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self._inner.locked() else "unlocked"
        return f"<TracedLock {self.name!r} {state}>"


class TracedRLock:
    """A named, order-checked ``threading.RLock``.

    Re-entrant acquisitions by the owning thread skip the order check and
    the held-stack push (depth is tracked in ``_count``), matching RLock
    semantics: only the outermost acquire/release pair participates in the
    ordering graph and the hold-time accounting.
    """

    reentrant = True

    def __init__(self, name: str):
        self.name = name
        self._inner = threading.RLock()
        self._owner: Optional[int] = None
        self._count = 0
        self._acquired_at = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            self._inner.acquire()
            self._count += 1
            return True
        registry.check_order(self.name, current_held())
        start = perf_counter()
        got = self._inner.acquire(False)
        contended = not got
        if not got:
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
            if not got:
                return False
        self._note_acquired(contended, perf_counter() - start)
        return True

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError(
                f"release of '{self.name}' by a thread that does not hold it"
            )
        self._count -= 1
        if self._count == 0:
            self._note_released()
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc: object) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def _note_acquired(self, contended: bool, waited: float) -> None:
        self._owner = threading.get_ident()
        self._count = 1
        self._acquired_at = perf_counter()
        _thread_state.stack.append(self)
        registry.note_acquired(self.name, contended, waited)

    def _note_released(self) -> object:
        registry.note_released(self.name, perf_counter() - self._acquired_at)
        self._owner = None
        stack = _thread_state.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TracedRLock {self.name!r} count={self._count}>"


class TracedCondition:
    """A condition variable over a :class:`TracedLock` (or its own).

    The real waiting machinery is an inner ``threading.Condition`` bound to
    the traced lock's *raw* primitive, so wait/notify semantics are exactly
    stdlib. ``wait()`` brackets the inner release/reacquire with the traced
    lock's bookkeeping so hold times and the held-stack stay truthful while
    the thread is parked.
    """

    def __init__(self, name: str, lock: Optional[TracedLock] = None):
        self.name = name
        self._lock = lock if lock is not None else TracedLock(name + ".lock")
        self._inner = threading.Condition(self._lock._inner)  # type: ignore[arg-type]

    # Context-manager / lock surface delegates to the traced lock so every
    # `with condition:` participates in order checking and stats.
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self._lock.acquire()

    def __exit__(self, *exc: object) -> None:
        self._lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not self._lock.held_by_current_thread():
            raise RuntimeError(f"wait on '{self.name}' without its lock held")
        self._lock._note_released()
        try:
            # The predicate loop is the *caller's* obligation — this is the
            # wrapper primitive itself.
            return self._inner.wait(timeout)  # lint: allow-wait-outside-loop
        finally:
            # The inner condition has already reacquired the raw lock;
            # restore bookkeeping. Wakeup latency is not lock contention,
            # so it is not counted as a contended acquisition.
            self._lock._note_acquired(contended=False, waited=0.0)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        # Mirror threading.Condition.wait_for, but through our wait() so
        # every park/unpark keeps the traced bookkeeping consistent.
        endtime = None
        result = predicate()
        while not result:
            if timeout is not None:
                if endtime is None:
                    endtime = perf_counter() + timeout
                remaining = endtime - perf_counter()
                if remaining <= 0:
                    break
                self.wait(remaining)
            else:
                self.wait()
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        if not self._lock.held_by_current_thread():
            raise RuntimeError(f"notify on '{self.name}' without its lock held")
        self._inner.notify(n)

    def notify_all(self) -> None:
        if not self._lock.held_by_current_thread():
            raise RuntimeError(
                f"notify_all on '{self.name}' without its lock held"
            )
        self._inner.notify_all()


@contextmanager
def tracing(reset: bool = True) -> Iterator[LockRegistry]:
    """Enable traced-lock construction for the enclosed block.

    Objects built inside the block get traced locks; the registry is
    yielded for assertions. With ``reset`` (default) the global graph and
    counters are cleared on entry so tests start from a clean slate.
    """
    previous = _sync.set_tracing(True)
    if reset:
        registry.reset()
    try:
        yield registry
    finally:
        _sync.set_tracing(previous)


# --------------------------------------------------------------------------
# Guarded-attribute enforcement
# --------------------------------------------------------------------------

# Declaration-site annotation on a self-assignment, e.g.
#   self._entries = {}  # guarded-by: _lock
_DECL_RE = re.compile(
    r"^\s*self\.(?P<attr>\w+)\s*(?::[^=]+)?=.*#\s*guarded-by:\s*(?P<lock>[\w.]+)"
)


def parse_guard_declarations(cls: type) -> dict[str, str]:
    """Map attribute name -> lock attribute name from ``# guarded-by:``
    comments in ``cls``'s source.

    Cross-class declarations (``# guarded-by: OtherClass._lock``) document
    fields mutated under *another* object's lock; they cannot be enforced
    from inside this object's ``__setattr__`` and are skipped. A qualified
    name matching this class (``ThisClass._lock``) is accepted.
    """
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):  # no source (REPL, frozen) — nothing to do
        return {}
    guards: dict[str, str] = {}
    for line in source.splitlines():
        match = _DECL_RE.match(line)
        if not match:
            continue
        lock = match.group("lock")
        if "." in lock:
            owner, _, lock_attr = lock.partition(".")
            if owner != cls.__name__:
                continue
            lock = lock_attr
        guards[match.group("attr")] = lock
    return guards


def install_guards(cls: type) -> type:
    """Return a subclass of ``cls`` whose ``__setattr__`` enforces the
    class's ``# guarded-by:`` declarations.

    Enforcement covers attribute *rebinds* after ``__init__`` completes
    (in-place container mutation is the static analyzer's job) and only
    when the declared lock is a traced lock — plain locks cannot answer
    "does this thread hold me", so plain-lock objects pass through.
    """
    guards = parse_guard_declarations(cls)
    if not guards:
        return cls

    init = cls.__init__

    def guarded_init(self, *args: object, **kwargs: object) -> None:
        init(self, *args, **kwargs)
        object.__setattr__(self, "_guards_armed", True)

    def guarded_setattr(self, name: str, value: object) -> None:
        if name in guards and getattr(self, "_guards_armed", False):
            lock = getattr(self, guards[name], None)
            held = getattr(lock, "held_by_current_thread", None)
            if held is not None and not held():
                raise GuardViolation(
                    f"{cls.__name__}.{name} is declared "
                    f"'# guarded-by: {guards[name]}' but was rebound "
                    f"without that lock held"
                )
        object.__setattr__(self, name, value)

    namespace = {
        "__init__": guarded_init,
        "__setattr__": guarded_setattr,
        "__doc__": cls.__doc__,
        "_guard_declarations": dict(guards),
    }
    wrapped = type(cls.__name__, (cls,), namespace)
    wrapped.__module__ = cls.__module__
    wrapped.__qualname__ = cls.__qualname__
    return wrapped


def guard_class(cls: type) -> type:
    """Explicitly guarded variant of ``cls`` for tests, independent of the
    ``REPRO_LOCK_TRACE`` switch (the production classes use
    :func:`repro._sync.guarded`, which is identity unless tracing was on at
    import)."""
    return install_guards(cls)


__all__ = [
    "GuardViolation",
    "LockOrderError",
    "LockRegistry",
    "TracedCondition",
    "TracedLock",
    "TracedRLock",
    "current_held",
    "guard_class",
    "install_guards",
    "parse_guard_declarations",
    "registry",
    "tracing",
]
