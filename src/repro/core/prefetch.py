"""Predictive prefetch: window prediction and speculative cache warming.

The paper leaves cache management at the stage-1/stage-2 breakpoint as an
open challenge (§5); NoDB's answer is to let the *workload* drive the
auxiliary structures. Two cooperating pieces implement that here:

* :class:`WorkloadPredictor` — recognizes the sliding-window / zoom shapes
  :mod:`repro.explore.workload` generates and extrapolates the next window.
* :class:`SessionPrefetcher` — turns predictions into speculative
  cache-warming extractions between queries, via
  :meth:`~repro.core.mounting.MountService.prefetch_into_cache`. Wrong
  predictions waste bytes, never answers: the cache's coverage checks mean
  a prefetch can only *add* covering entries, so results stay
  byte-identical with prefetch on or off.

Thread-safety: the predictor is consulted from whichever thread ran the
query and from the prefetch worker, so both carry their own locks, and
neither calls out to other locked components while holding its lock.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .. import _sync
from ..db.interval import Interval, is_empty, overlaps
from .mounting import MountContext, MountService

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..db.stats import StatisticsCatalog
    from .governor import CircuitBreaker

__all__ = [
    "PredictedWindow",
    "PrefetchStats",
    "SessionPrefetcher",
    "WorkloadPredictor",
]


# -- prediction ---------------------------------------------------------------


@dataclass(frozen=True)
class PredictedWindow:
    """One extrapolated next-query window, hull-widened for robustness."""

    interval: Interval
    kind: str  # "slide" | "zoom-in" | "zoom-out"


class WorkloadPredictor:
    """Next-window extrapolation over the session's realized query windows.

    The exploration verbs in :mod:`repro.explore.workload` produce three
    recognizable shapes: *sliding* (similar width, shifted center), *zoom
    in* (shrinking width, contained center) and *zoom out* (growing width,
    similar center). Anything else — the MOVE_ON jump to a fresh random
    focus — is deliberately unpredictable and yields no prediction, so the
    prefetcher stays idle instead of guessing.

    ``widen_fraction`` hull-widens each prediction by that fraction of its
    width on both sides, so a slightly-off extrapolation still covers the
    real next window (coverage is all-or-nothing for the cache).
    """

    def __init__(
        self,
        widen_fraction: float = 0.25,
        width_tolerance: float = 0.3,
        max_history: int = 8,
    ) -> None:
        if widen_fraction < 0:
            raise ValueError("widen_fraction must be >= 0")
        if not 0 < width_tolerance < 1:
            raise ValueError("width_tolerance must be in (0, 1)")
        self.widen_fraction = widen_fraction
        self.width_tolerance = width_tolerance
        self._lock = _sync.create_lock("WorkloadPredictor._lock")
        self._windows: deque[Interval] = deque(  # guarded-by: _lock
            maxlen=max_history
        )

    def observe(self, interval: Optional[Interval]) -> None:
        """Record one query's realized time window (None/empty are ignored)."""
        if interval is None or is_empty(interval):
            return
        with self._lock:
            self._windows.append((int(interval[0]), int(interval[1])))

    def predict(self) -> Optional[PredictedWindow]:
        """The extrapolated next window, or None when the trail is cold."""
        with self._lock:
            if len(self._windows) < 2:
                return None
            prev, last = self._windows[-2], self._windows[-1]
        width_prev = prev[1] - prev[0]
        width_last = last[1] - last[0]
        if width_prev <= 0 or width_last <= 0:
            return None
        center_prev = (prev[0] + prev[1]) // 2
        center_last = (last[0] + last[1]) // 2
        delta = center_last - center_prev
        ratio = width_last / width_prev
        tol = self.width_tolerance
        if 1 - tol <= ratio <= 1 + tol:
            # Similar widths: a slide (or a repeat, delta 0). A jump much
            # larger than the window itself is a MOVE_ON, not a slide.
            if abs(delta) > 2 * width_last:
                return None
            return self._widened(
                last[0] + delta, last[1] + delta, width_last, "slide"
            )
        if ratio < 1 - tol and prev[0] <= center_last <= prev[1]:
            # Zoom in: continue the contraction around the current center.
            next_width = max(1, int(width_last * ratio))
            half = next_width // 2
            return self._widened(
                center_last - half, center_last + half, next_width, "zoom-in"
            )
        if ratio > 1 + tol and last[0] <= center_prev <= last[1]:
            # Zoom out: continue the expansion around the current center.
            next_width = int(width_last * ratio)
            half = next_width // 2
            return self._widened(
                center_last - half, center_last + half, next_width, "zoom-out"
            )
        return None

    def observe_and_predict(
        self, interval: Optional[Interval]
    ) -> Optional[PredictedWindow]:
        self.observe(interval)
        return self.predict()

    def _widened(
        self, lo: int, hi: int, width: int, kind: str
    ) -> PredictedWindow:
        margin = int(width * self.widen_fraction)
        return PredictedWindow(interval=(lo - margin, hi + margin), kind=kind)


# -- prefetch -----------------------------------------------------------------


@dataclass
class PrefetchStats:
    observed: int = 0  # query windows fed to the predictor
    predictions: int = 0  # windows the predictor extrapolated
    rounds: int = 0  # prefetch rounds actually executed
    files_considered: int = 0  # files overlapping a predicted window
    files_prefetched: int = 0  # speculative extractions stored in the cache
    bytes_prefetched: int = 0  # bytes those extractions read off disk
    skipped_covered: int = 0  # already satisfied by a cache entry
    skipped_blocked: int = 0  # refused by the breaker / cache policy
    skipped_budget: int = 0  # dropped by the per-round byte budget
    errors: int = 0  # failed extractions and failed rounds (absorbed)


@_sync.guarded
class SessionPrefetcher:
    """Speculatively warms the ingestion cache between a session's queries.

    ``mounts`` is the session's :class:`~repro.core.mounting.MountService`
    (its ``_extract`` is thread-safe; the cache locks itself), and
    ``statistics`` a callable returning the current
    :class:`~repro.db.stats.StatisticsCatalog` — file time spans map a
    predicted window to the files overlapping it.

    Each round extracts under a :class:`~repro.core.mounting.MountContext`
    of its own — the session's ``breaker``, no governor, no pool — so
    speculative bytes land on no query's ledger and a query's cancellation
    or deadline neither reaches a round nor is caused by one.

    By default one daemon worker drains a round queue so prefetching never
    blocks the explorer's next query; ``synchronous=True`` runs each round
    inline on the observing thread — the deterministic mode tests use.
    ``max_bytes_per_round`` bounds each round's speculative disk work.
    """

    def __init__(
        self,
        mounts: MountService,
        statistics: Callable[[], "StatisticsCatalog"],
        table_name: str = "D",
        predictor: Optional[WorkloadPredictor] = None,
        max_bytes_per_round: int = 32 * 1024 * 1024,
        synchronous: bool = False,
        breaker: Optional["CircuitBreaker"] = None,
    ) -> None:
        if max_bytes_per_round < 1:
            raise ValueError("max_bytes_per_round must be >= 1")
        self.mounts = mounts
        self.breaker = breaker
        self.statistics = statistics
        self.table_name = table_name
        self.predictor = predictor or WorkloadPredictor()
        self.max_bytes_per_round = max_bytes_per_round
        self.synchronous = synchronous
        self.stats = PrefetchStats()  # guarded-by: _lock
        self._lock = _sync.create_lock("SessionPrefetcher._lock")
        # The wakeup condition shares _lock (same idiom as the scheduler).
        self._wakeup = _sync.create_condition(
            "SessionPrefetcher._wakeup", self._lock
        )
        self._pending: deque[PredictedWindow] = deque()  # guarded-by: _lock
        self._stop = False  # guarded-by: _lock
        self._active_rounds = 0  # guarded-by: _lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock

    # -- session-facing -------------------------------------------------------

    def observe(self, interval: Optional[Interval]) -> None:
        """Feed one query's realized window; maybe kick off a prefetch round."""
        with self._lock:
            self.stats.observed += 1
        predicted = self.predictor.observe_and_predict(interval)
        if predicted is None:
            return
        with self._lock:
            self.stats.predictions += 1
        if self.synchronous:
            self._run_round(predicted)
            return
        with self._wakeup:
            if self._stop:
                return
            self._pending.append(predicted)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._worker_loop,
                    name="session-prefetch",
                    daemon=True,
                )
                self._thread.start()
            self._wakeup.notify_all()

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until every queued round has run (True if drained in time)."""
        deadline = threading.Event()  # used purely as a timed sleeper
        waited = 0.0
        while waited < timeout:
            with self._lock:
                if not self._pending and self._active_rounds == 0:
                    return True
            deadline.wait(0.01)
            waited += 0.01
        return False

    def close(self) -> None:
        """Stop the worker; queued-but-unrun rounds are dropped."""
        with self._wakeup:
            self._stop = True
            self._pending.clear()
            thread = self._thread
            self._thread = None
            self._wakeup.notify_all()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SessionPrefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._stop and not self._pending:
                    self._wakeup.wait(0.1)
                if self._stop:
                    return
                predicted = self._pending.popleft()
                self._active_rounds += 1
            try:
                self._run_round(predicted)
            except Exception:  # noqa: BLE001 - speculative: absorbed, counted
                # A failed round must not take the worker with it: `_thread`
                # would stay set and every later round queue up unrun.
                with self._lock:
                    self.stats.errors += 1
            finally:
                with self._lock:
                    self._active_rounds -= 1

    def _run_round(self, predicted: PredictedWindow) -> None:
        """One speculative pass: warm every file overlapping the prediction.

        Every skip/outcome is counted; per-file failures are absorbed by
        :meth:`~repro.core.mounting.MountService.prefetch_into_cache` — a
        speculative miss must never surface as a session error.
        """
        with self._lock:
            self.stats.rounds += 1
        spent = 0
        context = MountContext(breaker=self.breaker)
        catalog = self.statistics()
        for uri in sorted(catalog.files):
            span = catalog.files[uri].span
            if not overlaps(predicted.interval, span[0], span[1]):
                continue
            with self._lock:
                self.stats.files_considered += 1
                if self._stop:
                    return
            if spent >= self.max_bytes_per_round:
                with self._lock:
                    self.stats.skipped_budget += 1
                continue
            outcome, nbytes = self.mounts.prefetch_into_cache(
                uri, self.table_name, predicted.interval, context
            )
            spent += nbytes
            with self._lock:
                if outcome == "stored":
                    self.stats.files_prefetched += 1
                    self.stats.bytes_prefetched += nbytes
                elif outcome == "covered":
                    self.stats.skipped_covered += 1
                elif outcome == "error":
                    self.stats.errors += 1
                else:  # "blocked" / "disabled"
                    self.stats.skipped_blocked += 1
