"""Stage-2 mount scheduling — one scheduler, whether one query runs or many.

Rule (1) turns each actual-data ``scan(a)`` into a union over the files of
interest, one ``mount(f)`` per uncached file. Those mounts are independent of
one another, which makes the second stage embarrassingly parallel (OLA-RAW
and DiNoDB reach interactive in-situ speeds exactly this way) and, across
concurrent queries, shareable: sessions pausing at the stage-1/stage-2
breakpoint with overlapping files of interest should extract each file once
and feed the :class:`~repro.core.mounting.ExtractResult` to **every** waiting
query. That is LifeRaft's data-driven batching — group queries by the data
they wait on, serve the group with one pass — and a one-query run is a batch
of one.

Two classes implement it:

* :class:`MountScheduler` — keeps one ``(table, uri)`` → :class:`_FileTask`
  table; each task accumulates waiters (one per query touching the file) and
  a hull-merged :class:`~repro.ingest.formats.MountRequest`
  (:func:`merge_requests`), so one extraction covers every waiter's
  interval. Worker threads repeatedly pick the highest-priority pending
  task, extract it, and publish the result to all waiters at once. The
  query service shares one scheduler among all its queries; a standalone
  execution is a one-tenant scheduler that
  :meth:`~repro.core.executor.TwoStageExecutor.open_context` builds (batch
  window 0, ``mount_workers`` threads — none when serial) and that is
  closed when the execution ends.
* :class:`SharedPoolClient` — one query's view (``prefetch`` / ``take`` /
  ``release`` / ``close`` / ``trace``), carried as the ``pool`` of the
  query's :class:`~repro.core.mounting.MountContext`.

Division of labour and guarantees
---------------------------------
Only the *extraction* (file read, decode, transform to a batch) runs on
workers. Everything stateful — cache stores, mount callbacks, budget
charges, statistics, predicate delivery — stays on the consuming thread, in
plan order, so answers are byte-identical to serial execution.

* **Deterministic order** — a consumer takes results in the order its union
  branches execute. With one tenant every task has one waiter and the same
  age, so workers also pick in registration order (ties break by arrival).
* **Backpressure** — a worker claims a task only while fewer than
  ``2 × workers`` claimed tasks are running or finished-but-unconsumed; a
  task stops counting once its last waiter consumed or withdrew it, so
  mounting a 5,000-file repository never materializes 5,000 batches.
* **Work conservation** — a consumer whose task is still pending claims and
  extracts it inline instead of idling, exempt from the bound. A claimed
  task never waits on the scheduler, so a consumer only ever waits on an
  extraction in progress: a starved or worker-less scheduler degrades to
  serial execution, never to a deadlock. With zero workers every take
  extracts inline on the consumer thread, in take order.
* **Errors** — a failed extraction reaches every waiter as the same
  exception, naming the file (``exc.mount_uri``); each query applies its
  own policy (fail-fast or skip).

Scheduling policy
-----------------
:class:`SchedulerPolicy` is the LifeRaft-style throughput ↔ fairness knob.
A pending task's priority is::

    priority = throughput_bias * waiters + age_seconds / aging_seconds

``throughput_bias`` near 1.0 favours *popular* files — one extraction
retires many queries, maximizing aggregate throughput but starving
low-overlap queries while popular work keeps arriving. Bias near 0.0
degenerates to FIFO by age. The additive age term is the starvation-aging
guarantee: it grows without bound regardless of the bias, so every task's
priority eventually exceeds any fixed popularity — a lone low-overlap query
waits at most ``aging_seconds × (bias × max_waiters)`` behind the crowd,
never forever.

Task states
-----------
``pending → running → done | failed``. A task is *pending* from first
registration until a worker (or a stealing consumer) claims it, *running*
during extraction, then *done* (result published) or *failed* (exception
published). Completed tasks are retained only until their last registered
waiter consumes them; failed tasks are likewise drained and dropped, so the
next query registering the same file gets a fresh attempt (mirroring the
per-query quarantine's "fresh chance next query" semantics). A query that
arrives while the file's task is running or done under a request too narrow
for it likewise opens a fresh *successor* task, which later arrivals merge
into, instead of re-extracting on its own thread. Every waiter
of a failed task receives the same typed exception and applies its own
session policy — skip or fail stays query-side.

Timing model
------------
Each file a query consumes becomes one :class:`MountSpan` in the query's
trace, recorded on the consuming thread: the worker that ran it (a
consumer's inline steal counts as worker ``workers``), its real extraction
seconds, and the simulated disk seconds the buffer manager charged
(``db/buffer.py``). :func:`worker_busy_seconds` folds them per worker: the
sum is the serialized cost, the maximum the critical path (the busiest
worker's chain) — what ``benchmarks/bench_parallel_mount.py`` reports as
the speedup.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Sequence

from .. import _sync
from ..obs import QueryTrace, Span
from ..db.interval import covers, hull
from ..ingest.formats import MountRequest
from .governor import CancellationToken

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import cycle)
    from .mounting import ExtractResult

# extract(uri, table_name, request) -> ExtractResult. A None request means
# "mount the whole file"; a request narrows extraction to the records
# overlapping its interval (selective mounting).
ExtractFn = Callable[[str, str, Optional[MountRequest]], "ExtractResult"]

MountKey = tuple[str, str]  # (table_name, uri)

# Task lifecycle states (see module docstring).
TASK_PENDING = "pending"
TASK_RUNNING = "running"
TASK_DONE = "done"
TASK_FAILED = "failed"

WORKER_THREAD_PREFIX = "mount-worker"  # every scheduler thread's name

_WAIT_POLL_SECONDS = 0.05  # waiter wake-up interval for cancellation checks
_IDLE_WAIT_SECONDS = 0.1  # an idle worker's sleep when no batch window is open


def merge_requests(
    a: Optional[MountRequest], b: Optional[MountRequest]
) -> Optional[MountRequest]:
    """The single request serving two takers of one key (single-flight).

    ``None`` (whole file) absorbs everything; otherwise the merged request
    covers both intervals, so each taker's coverage check passes.
    """
    if a is None or b is None:
        return None
    return MountRequest(
        interval=hull(a.interval, b.interval),
        records=a.records if a.records is not None else b.records,
    )


def _interleave_endpoints(keys: Sequence[MountKey]) -> list[MountKey]:
    """Round-robin keys across their sources' endpoints.

    A federated plan lists each repository's files contiguously; queueing
    them in that order would park every worker on the first (possibly slow
    or dying) endpoint while the other sources sit idle. Consumption order —
    and therefore the answer — is untouched.
    """
    from ..remote.uris import endpoint_of  # deferred: pulls in repro.remote

    groups: dict[Optional[str], list[MountKey]] = {}
    for key in keys:
        groups.setdefault(endpoint_of(key[1]), []).append(key)
    if len(groups) < 2:
        return list(keys)
    return [
        key
        for batch in itertools.zip_longest(*groups.values())
        for key in batch
        if key is not None
    ]


@dataclass(slots=True)
class MountSpan(Span):
    """One consumed file: ``detail`` is its uri, ``seconds`` the consumer's
    wait for it; its cost is the extraction wherever it ran."""

    worker: int = 0  # worker index; a consumer's inline steal is `workers`
    extract_seconds: float = 0.0  # real wall time spent extracting/decoding
    io_seconds: float = 0.0  # simulated disk seconds charged by the buffers

    def describe(self) -> str:
        return (
            f"mount {self.detail} on worker {self.worker}  [{self.rows} rows, "
            f"extract {self.extract_seconds * 1000:.2f} ms + "
            f"io {self.io_seconds * 1000:.2f} ms]"
        )


def worker_busy_seconds(trace: QueryTrace) -> dict[int, float]:
    """worker index → that worker's busy time (extraction plus simulated
    disk) over the files the traced query consumed. The sum is what the
    mounts would cost end-to-end on one worker; the maximum is the critical
    path — concurrent mounts overlap their simulated reads, so the phase's
    modeled wall time is the longest per-worker chain."""
    busy: dict[int, float] = {}
    for span in trace.spans:
        if isinstance(span, MountSpan):
            cost = span.extract_seconds + span.io_seconds
            busy[span.worker] = busy.get(span.worker, 0.0) + cost
    return busy


def _request_covers(
    have: Optional[MountRequest], want: Optional[MountRequest]
) -> bool:
    """Whether an extraction under ``have`` serves a query asking ``want``
    (``None`` is the whole file)."""
    if have is None:
        return True
    return want is not None and covers(have.interval, want.interval)


@dataclass(frozen=True)
class SchedulerPolicy:
    """The throughput ↔ fairness knob, with starvation aging.

    ``throughput_bias`` ∈ [0, 1] weights a task's waiter count; the age
    term ``age / aging_seconds`` is always added, so aging is unconditional
    (the starvation guarantee) and ``aging_seconds`` sets how long a wait
    counts as much as one extra waiter. ``starvation_threshold_seconds``
    only classifies grants for the ops counters: a grant whose waiter
    waited longer counts as *starved* in :class:`SchedulerStats`.

    ``batch_window_seconds`` is LifeRaft's batching delay, as an upper
    bound: a pending task is not eligible to run (by a worker *or* a
    stealing consumer) until every query that could still join it has —
    the scheduler's *crowd*, see :meth:`MountScheduler.query_started` — or,
    failing that, until it has aged past the window. Queries arriving
    within a few milliseconds of each other so hull-merge into one
    extraction instead of the first arriver racing off with its own narrow
    interval, while a query that is alone does not wait for anybody. A
    scheduler nobody reports queries to has no crowd to count, and every
    cold file then costs the full window (a one-tenant scheduler has 0).
    The window is measured on the scheduler's injected clock, like the
    priorities.
    """

    throughput_bias: float = 0.7
    aging_seconds: float = 0.25
    starvation_threshold_seconds: float = 2.0
    batch_window_seconds: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.throughput_bias <= 1.0:
            raise ValueError(
                f"throughput_bias must be in [0, 1], got {self.throughput_bias!r}"
            )
        if self.aging_seconds <= 0:
            raise ValueError(
                f"aging_seconds must be positive, got {self.aging_seconds!r}"
            )
        if self.starvation_threshold_seconds <= 0:
            raise ValueError(
                "starvation_threshold_seconds must be positive, "
                f"got {self.starvation_threshold_seconds!r}"
            )
        if self.batch_window_seconds < 0:
            raise ValueError(
                "batch_window_seconds must be >= 0, "
                f"got {self.batch_window_seconds!r}"
            )


@dataclass
class SchedulerStats:
    """Shared-work accounting for one scheduler lifetime.

    ``grants`` counts results delivered to waiting queries;
    ``shared_grants`` the grants beyond the first per extraction — the
    work-sharing win. ``bytes_read`` is what the scheduler's extractions
    read, each counted once however many queries it served;
    ``bytes_shared`` is the byte volume the re-grants would have
    re-extracted in independent sessions. ``starved_grants``
    and ``max_wait_seconds`` are the fairness side of the ops story: a
    rising starved count under a high ``throughput_bias`` is the signal to
    turn the knob down.
    """

    tasks_created: int = 0
    tasks_extracted: int = 0
    tasks_failed: int = 0
    grants: int = 0
    shared_grants: int = 0
    inline_steals: int = 0
    withdrawn: int = 0  # interests dropped by cancelled/closed queries
    starved_grants: int = 0
    bytes_read: int = 0
    bytes_shared: int = 0
    max_wait_seconds: float = 0.0


@dataclass
class _FileTask:
    """One file's shared extraction: waiters, merged request, outcome."""

    key: MountKey
    request: Optional[MountRequest]
    seq: int  # arrival order, the deterministic tie-break
    enqueued_at: float  # injected-clock time: priority aging, batch window
    state: str = TASK_PENDING
    waiters: dict[int, float] = field(default_factory=dict)  # client → t
    # Claimed and not yet retired: counts against the backpressure bound.
    claimed: bool = False
    worker: int = 0  # index of the worker that ran it
    consumers: int = 0
    result: Optional["ExtractResult"] = None
    error: Optional[BaseException] = None
    extract_seconds: float = 0.0
    event: threading.Event = field(default_factory=threading.Event)


@_sync.guarded
class MountScheduler:
    """The files-of-interest scheduler behind a query or a query service.

    ``extract`` is the extraction function: the service's shared
    cache-then-disk path, or a standalone execution's mount service
    ``_extract`` under that execution's context. It never charges a budget:
    each query is charged at consume time, once per file, by its own
    :class:`~repro.core.mounting.MountContext`, so every query pays for the
    bytes it uses exactly as it would alone, even when the extraction ran
    once for eight of them. ``clock`` is injectable so the aging math is
    testable without sleeping.
    """

    def __init__(
        self,
        extract: ExtractFn,
        policy: Optional[SchedulerPolicy] = None,
        workers: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self._extract = extract
        self.policy = policy or SchedulerPolicy()
        self.workers = workers
        self._clock = clock
        self._lock = _sync.create_lock("MountScheduler._lock")
        # The wakeup condition *shares* _lock: waiters and mutators
        # serialize on one mutex, so `with self._wakeup:` is `with
        # self._lock:` plus the ability to park.
        self._wakeup = _sync.create_condition(
            "MountScheduler._wakeup", self._lock
        )
        self._tasks: dict[MountKey, _FileTask] = {}  # guarded-by: _lock
        self._seq = itertools.count()  # guarded-by: _lock
        # unguarded-ok: itertools.count.__next__ is atomic in CPython; the
        # id handed out only needs uniqueness, not ordering.
        self._client_ids = itertools.count(1)
        self._threads: list[threading.Thread] = []  # guarded-by: _lock
        self._stop = False  # guarded-by: _lock
        self._claimed = 0  # guarded-by: _lock
        self.stats = SchedulerStats()  # guarded-by: _lock
        # The crowd (see query_started): queries in flight per tenant, when
        # each tenant with none in flight last finished one, and when the
        # first query was reported — None for a scheduler nobody reports to.
        self._running: dict[str, int] = {}  # guarded-by: _lock
        self._departed: dict[str, float] = {}  # guarded-by: _lock
        self._watching_since: Optional[float] = None  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent). ``workers=0`` is legal:
        consumers then run every extraction through the steal path.

        The thread list is created *and registered* under the lock before
        anything starts, so two concurrent ``start()`` calls cannot both
        see an empty ``_threads`` and double-spawn the worker fleet.
        """
        with self._lock:
            if self._threads or self.workers == 0:
                return
            self._stop = False
            spawned = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"{WORKER_THREAD_PREFIX}-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
            self._threads.extend(spawned)
        for thread in spawned:
            thread.start()

    def close(self) -> None:
        """Stop the workers. Pending tasks stay pending; clients still
        blocked on them complete through the steal path, so closing the
        scheduler can slow queries down but never wedge them."""
        with self._wakeup:
            self._stop = True
            self._wakeup.notify_all()
            # Snapshot + clear under the lock; joining happens outside it
            # (a worker may need the lock to observe _stop and exit).
            stopping = list(self._threads)
            self._threads.clear()
        for thread in stopping:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MountScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def client(
        self,
        token: Optional[CancellationToken] = None,
        trace: Optional[QueryTrace] = None,
    ) -> "SharedPoolClient":
        """A fresh per-query facade over this scheduler, recording the
        query's mounts into ``trace`` (a fresh one when None)."""
        return SharedPoolClient(
            self, next(self._client_ids), token=token,
            trace=trace if trace is not None else QueryTrace(),
        )

    # -- the crowd (service-facing) ------------------------------------------

    def query_started(self, tenant: str) -> None:
        """One of ``tenant``'s queries began executing.

        The *crowd* is everyone who could still join a pending task: the
        queries now running, plus the tenants with none running whose last
        query finished less than ``batch_window_seconds`` ago (a closed-loop
        tenant is about to be back). A task whose waiters have reached the
        crowd has nobody left to wait for and closes its window at once.
        Pair with :meth:`query_finished` in a ``finally``.
        """
        now = self._clock()
        with self._lock:
            if self._watching_since is None:
                self._watching_since = now
            self._running[tenant] = self._running.get(tenant, 0) + 1
            self._departed.pop(tenant, None)

    def query_finished(self, tenant: str) -> None:
        now = self._clock()
        window = self.policy.batch_window_seconds
        with self._wakeup:
            remaining = self._running[tenant] - 1
            if remaining:
                self._running[tenant] = remaining
                # The crowd just shrank, maybe to a parked task's waiters.
                self._wakeup.notify_all()
            else:
                # From running to recently departed: the crowd is unchanged.
                del self._running[tenant]
                self._departed = {
                    name: at
                    for name, at in self._departed.items()
                    if now - at < window
                }
                self._departed[tenant] = now

    def _crowd_locked(self, now: float) -> Optional[int]:
        """How many queries could still join a pending task; None while that
        is unknown — no query was ever reported, or the first one less than
        a window ago (a cold burst has not finished arriving)."""
        window = self.policy.batch_window_seconds
        if self._watching_since is None or now - self._watching_since < window:
            return None
        return sum(self._running.values()) + sum(
            1 for at in self._departed.values() if now - at < window
        )

    def _window_left_locked(
        self, task: _FileTask, now: float, crowd: Optional[int]
    ) -> float:
        """Seconds until ``task`` may run; <= 0 once its window has closed."""
        if crowd is not None and len(task.waiters) >= crowd:
            return 0.0
        return task.enqueued_at + self.policy.batch_window_seconds - now

    # -- registration / consumption (client-facing) --------------------------

    def register(
        self, client_id: int, tasks: Sequence
    ) -> dict[MountKey, _FileTask]:
        """Register one query's ``(table_name, uri[, request])`` mount
        branches; returns key → task.

        A key listed twice (a self-join) asks once, under the hull of both
        requests. Joins the live task for the key when it can still serve
        this query: a *pending* one (widening its request by hull-merge), or
        a running or finished one whose request covers this query's and
        that some query still waits on. Otherwise a fresh task replaces it
        in the table — after a *failed* one, so a new query never inherits a
        stale failure; after one every waiter left while it ran (a Top-N
        release, a query that ended), whose read may predate a change this
        query must see; and after one too narrow to widen any more, so
        every late arrival merges into one successor extraction instead of
        each re-extracting inline on its own thread. Fresh tasks are queued
        round-robin across endpoints.
        """
        wanted: dict[MountKey, Optional[MountRequest]] = {}
        for spec in tasks:
            key: MountKey = (spec[0], spec[1])
            request = spec[2] if len(spec) > 2 else None
            wanted[key] = (
                merge_requests(wanted[key], request) if key in wanted else request
            )
        joined: dict[MountKey, _FileTask] = {}
        now = self._clock()
        with self._wakeup:
            for key in _interleave_endpoints(list(wanted)):
                request = wanted[key]
                task = self._tasks.get(key)
                if task is not None and task.state == TASK_PENDING:
                    task.request = merge_requests(task.request, request)
                elif (
                    task is None
                    or task.state == TASK_FAILED
                    or not task.waiters
                    or not _request_covers(task.request, request)
                ):
                    task = _FileTask(key, request, next(self._seq), now)
                    self._tasks[key] = task
                    self.stats.tasks_created += 1
                task.waiters[client_id] = now
                joined[key] = task
            self._wakeup.notify_all()
        return joined

    def withdraw(self, client_id: int, tasks: Sequence[_FileTask]) -> int:
        """Drop a client's remaining interest (query done or cancelled, or a
        branch released); returns how many extractions that avoided.

        A pending task nobody waits for any more is removed outright — no
        worker will waste an extraction on it; a completed one is freed as
        soon as its last interested waiter is gone.
        """
        avoided = 0
        with self._wakeup:
            for task in tasks:
                if task.waiters.pop(client_id, None) is not None:
                    self.stats.withdrawn += 1
                if task.state == TASK_PENDING and not task.waiters:
                    avoided += 1
                self._reap_locked(task)
        return avoided

    def take(
        self,
        client_id: int,
        task: _FileTask,
        token: Optional[CancellationToken] = None,
    ) -> tuple["ExtractResult", int, float]:
        """Block until ``task`` completes; return its result, the worker
        that ran it and its extraction seconds.

        Work conservation: a still-pending task is claimed and extracted
        inline on the consuming thread. The wait is cancellation-aware —
        a fired token withdraws this waiter and raises its typed
        interruption, leaving the task to its other waiters.
        """
        claimed = False
        while True:
            with self._wakeup:
                if task.state != TASK_PENDING:
                    break
                now = self._clock()
                window_left = self._window_left_locked(
                    task, now, self._crowd_locked(now)
                )
                if window_left <= 0:
                    # Exempt from backpressure: this query waits on exactly
                    # this file.
                    self._claim_locked(task, self.workers)
                    claimed = True
                    self.stats.inline_steals += 1
                    break
                # Inside the batch window: park until the join that
                # completes the crowd (register notifies), a worker's claim,
                # or the window's end — whichever comes first.
                if token is None or not token.fired:
                    self._wakeup.wait(
                        min(_WAIT_POLL_SECONDS, max(window_left, 0.001))
                    )
                    continue
            assert token is not None
            self._withdraw_interrupted(client_id, task, token)
        if claimed:
            self._run_task(task)
        while not task.event.wait(_WAIT_POLL_SECONDS):
            if token is not None and token.fired:
                self._withdraw_interrupted(client_id, task, token)
        return self._grant(client_id, task)

    def _withdraw_interrupted(
        self, client_id: int, task: _FileTask, token: CancellationToken
    ) -> NoReturn:
        """A fired token: leave ``task`` to its other waiters and raise the
        token's typed interruption."""
        self.withdraw(client_id, [task])
        interruption = token.interruption()
        assert interruption is not None
        raise interruption

    def extract_now(
        self, uri: str, table_name: str, request: Optional[MountRequest]
    ) -> tuple["ExtractResult", int, float]:
        """One unscheduled extraction, on the caller's thread: the client's
        fallback for keys it never prefetched (cache-scan misses that fell
        back to mounting, branches a Top-N re-run needs after a release)."""
        started = time.perf_counter()
        try:
            result = self._extract(uri, table_name, request)
        except BaseException as exc:
            _annotate(exc, uri)
            raise
        elapsed = time.perf_counter() - started
        with self._lock:
            self.stats.tasks_extracted += 1
            self.stats.bytes_read += result.bytes_read
        return result, self.workers, elapsed

    # -- scheduling core -----------------------------------------------------

    def _priority(self, task: _FileTask, now: float) -> float:
        """LifeRaft knob: popularity weighted by the bias, plus raw age."""
        age = max(0.0, now - task.enqueued_at)
        return (
            self.policy.throughput_bias * len(task.waiters)
            + age / self.policy.aging_seconds
        )

    def peek_next(self) -> Optional[MountKey]:
        """The key the scheduler would run next (None when nothing pends).

        Exposed for tests and operators: deterministic given the injected
        clock — highest priority wins, earliest arrival breaks ties.
        """
        with self._lock:
            task, _ = self._pick_locked()
            return task.key if task is not None else None

    def _pick_locked(self) -> tuple[Optional[_FileTask], float]:
        """The task to run next, if any, and how long an idle worker may
        sleep before a pending task's batch window ends unannounced."""
        now = self._clock()
        crowd = self._crowd_locked(now)
        idle_wait = _IDLE_WAIT_SECONDS
        best: Optional[_FileTask] = None
        best_rank: tuple[float, float] = (0.0, 0.0)
        for task in self._tasks.values():
            if task.state != TASK_PENDING:
                continue
            window_left = self._window_left_locked(task, now, crowd)
            if window_left > 0:
                idle_wait = min(idle_wait, max(window_left, 0.001))
                continue  # still inside its batch window
            rank = (self._priority(task, now), -task.seq)
            if best is None or rank > best_rank:
                best, best_rank = task, rank
        return best, idle_wait

    def _claim_locked(self, task: _FileTask, worker: int) -> None:
        task.state = TASK_RUNNING
        task.worker = worker
        task.claimed = True
        self._claimed += 1

    def _worker_loop(self, index: int) -> None:
        """Claim and run tasks until :meth:`close`.

        Backpressure: claim only while fewer than ``2 × workers`` claimed
        tasks are running or unconsumed, else park until a consumer retires
        one (:meth:`_reap_locked` notifies). A worker parked here holds
        nothing, and a claimed task runs to completion without waiting on
        the scheduler again — so a consumer never waits on a worker that
        waits on it.
        """
        while True:
            with self._wakeup:
                while True:
                    if self._stop:
                        return
                    idle_wait = _IDLE_WAIT_SECONDS
                    if self._claimed < 2 * self.workers:
                        task, idle_wait = self._pick_locked()
                        if task is not None:
                            self._claim_locked(task, index)
                            break
                    self._wakeup.wait(idle_wait)
            self._run_task(task)

    def _run_task(self, task: _FileTask) -> None:
        """Extract one claimed task and publish the outcome to all waiters."""
        table_name, uri = task.key
        started = time.perf_counter()
        try:
            result = self._extract(uri, table_name, task.request)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            _annotate(exc, uri)
            with self._wakeup:
                task.error = exc
                task.state = TASK_FAILED
                task.extract_seconds = time.perf_counter() - started
                self.stats.tasks_failed += 1
                self._reap_locked(task)
                self._wakeup.notify_all()
            task.event.set()
            return
        with self._wakeup:
            task.result = result
            task.state = TASK_DONE
            task.extract_seconds = time.perf_counter() - started
            self.stats.tasks_extracted += 1
            self.stats.bytes_read += result.bytes_read
            self._reap_locked(task)
            self._wakeup.notify_all()
        task.event.set()

    def _grant(
        self, client_id: int, task: _FileTask
    ) -> tuple["ExtractResult", int, float]:
        with self._wakeup:
            registered_at = task.waiters.pop(client_id, None)
            waited = (
                self._clock() - registered_at
                if registered_at is not None
                else 0.0
            )
            self.stats.grants += 1
            if task.consumers >= 1:
                self.stats.shared_grants += 1
                if task.result is not None:
                    self.stats.bytes_shared += task.result.bytes_read
            task.consumers += 1
            if waited > self.policy.starvation_threshold_seconds:
                self.stats.starved_grants += 1
            if waited > self.stats.max_wait_seconds:
                self.stats.max_wait_seconds = waited
            self._reap_locked(task)
        if task.error is not None:
            raise task.error
        assert task.result is not None
        return task.result, task.worker, task.extract_seconds

    def _reap_locked(self, task: _FileTask) -> None:
        """Drop a finished (or abandoned-pending) task once nobody waits,
        and retire its backpressure claim."""
        if task.waiters or task.state == TASK_RUNNING:
            return
        if self._tasks.get(task.key) is task:
            del self._tasks[task.key]
        if task.claimed:
            task.claimed = False
            self._claimed -= 1
            self._wakeup.notify_all()  # a parked worker may claim again

    # -- introspection -------------------------------------------------------

    def pending_tasks(self) -> int:
        with self._lock:
            return sum(
                1 for t in self._tasks.values() if t.state == TASK_PENDING
            )


def _annotate(exc: BaseException, uri: str) -> None:
    """Name the failed file on the exception (``exc.mount_uri``) unless it
    already names one (getattr-None, so a None placeholder is filled)."""
    if getattr(exc, "mount_uri", None) is None:
        try:
            exc.mount_uri = uri  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - slotted exception
            pass


@_sync.guarded
class SharedPoolClient:
    """One query's view of a :class:`MountScheduler`.

    Created per execution as the ``pool`` of the query's
    :class:`~repro.core.mounting.MountContext`; the executor and
    :class:`~repro.core.mounting.MountService` drive it:

    * :meth:`prefetch` registers the query's mount branches with the
      scheduler (this is the query "entering the scheduler" at the
      stage-1/stage-2 breakpoint — registration is the pause; the plan's
      first :meth:`take` is the resume).
    * :meth:`take` blocks on the task and retains the batch for duplicate
      takes of one key (self-joins).
    * :meth:`release` renounces a branch the plan proved it will not take.
    * :meth:`close` withdraws whatever the plan never consumed; so does the
      query's cancellation token firing.

    Each extraction a :meth:`take` consumes becomes a :class:`MountSpan` in
    ``trace``: what this query's mounts cost wherever they ran, which is
    what a per-query speedup or billing report wants; the scheduler's own
    stats carry the shared-work (bytes-saved) view.
    """

    def __init__(
        self,
        scheduler: MountScheduler,
        client_id: int,
        token: Optional[CancellationToken],
        trace: QueryTrace,
    ) -> None:
        self._scheduler = scheduler
        self._client_id = client_id
        self._token = token
        # unguarded-ok: written by take() only, on the query's own thread.
        self.trace = trace
        self._tasks: dict[MountKey, _FileTask] = {}  # guarded-by: _lock
        self._pending_takes: dict[MountKey, int] = {}  # guarded-by: _lock
        self._held: dict[MountKey, "ExtractResult"] = {}  # guarded-by: _lock
        self._lock = _sync.create_lock("SharedPoolClient._lock")
        if token is not None:
            token.on_cancel(self.cancel_outstanding)

    def prefetch(self, tasks: Sequence) -> None:
        """Register the plan's ``(table_name, uri[, request])`` mount
        branches, in plan order, with the scheduler."""
        fresh = []
        with self._lock:
            for task in tasks:
                key: MountKey = (task[0], task[1])
                self._pending_takes[key] = self._pending_takes.get(key, 0) + 1
                if key not in self._tasks:
                    fresh.append(task)
        if fresh:
            joined = self._scheduler.register(self._client_id, fresh)
            with self._lock:
                self._tasks.update(joined)

    def take(
        self,
        uri: str,
        table_name: str,
        request: Optional[MountRequest] = None,
    ) -> "ExtractResult":
        """This branch's extraction result: held for a duplicate take,
        scheduled, or — never prefetched — extracted inline under
        ``request``."""
        key: MountKey = (table_name, uri)
        with self._lock:
            result = self._held.get(key)
            task = self._tasks.get(key)
        if result is None:
            started = time.perf_counter()
            result, worker, extract_seconds = (
                self._scheduler.extract_now(uri, table_name, request)
                if task is None
                else self._scheduler.take(
                    self._client_id, task, token=self._token
                )
            )
            self.trace.record(MountSpan(
                "mount", uri, start=started,
                seconds=time.perf_counter() - started,
                rows=result.batch.num_rows, worker=worker,
                extract_seconds=extract_seconds, io_seconds=result.io_seconds,
            ))
        with self._lock:
            remaining = self._pending_takes.get(key, 1) - 1
            if remaining > 0:
                self._pending_takes[key] = remaining
                self._held[key] = result
            else:
                # Drop the task too: it holds the batch, which must not
                # outlive the plan's use of it.
                self._pending_takes.pop(key, None)
                self._held.pop(key, None)
                self._tasks.pop(key, None)
        return result

    def release(self, table_name: str, uri: str) -> bool:
        """Renounce one expected take of a key (Top-N early termination).

        The plan proved this branch cannot contribute, so one pending take
        is dropped; at zero this query's interest is withdrawn from the
        task. Returns True only when that avoided the extraction — the task
        was still pending and nobody else waits on it; False when the work
        already happened or is under way, or other takers still want it.
        """
        key: MountKey = (table_name, uri)
        with self._lock:
            if key not in self._pending_takes:
                return False
            remaining = self._pending_takes[key] - 1
            if remaining > 0:
                self._pending_takes[key] = remaining
                return False
            self._pending_takes.pop(key, None)
            held = self._held.pop(key, None) is not None
            task = self._tasks.pop(key, None)
        if held or task is None:
            return False  # already extracted and consumed for this query
        return self._scheduler.withdraw(self._client_id, [task]) > 0

    def close(self) -> None:
        """Withdraw un-consumed interest; the scheduler drops orphan tasks."""
        self.cancel_outstanding()

    def cancel_outstanding(self) -> None:
        with self._lock:
            leftovers = [
                task
                for key, task in self._tasks.items()
                if self._pending_takes.get(key, 0) > 0
                and key not in self._held
            ]
        if leftovers:
            self._scheduler.withdraw(self._client_id, leftovers)
