"""Predictive prefetch: window prediction and speculative hint planning.

The paper leaves cache management at the stage-1/stage-2 breakpoint as an
open challenge (§5); NoDB's answer is to let the *workload* drive the
auxiliary structures. Two pieces implement that here:

* :class:`WorkloadPredictor` — recognizes the sliding-window / zoom shapes
  :mod:`repro.explore.workload` generates and extrapolates the next window.
* :func:`speculative_tasks` — the one planner: turns the predictor's next
  window into scheduler hints (:meth:`~repro.core.scheduler.MountScheduler.hint`)
  for the files it overlaps.

Both a prefetching :class:`~repro.explore.session.ExplorationSession` and a
prefetching :class:`~repro.serve.service.QueryService` run the planner the
same way: the query's thread only records its window
(:meth:`WorkloadPredictor.observe`) and defers the plan
(:meth:`~repro.core.scheduler.MountScheduler.defer`); an idle scheduler
worker predicts, plans and registers the hints, which extract through
:meth:`~repro.core.mounting.MountService.extract_shared` and land in the
cache through :meth:`~repro.core.mounting.MountService.store_hint`. Wrong
predictions waste bytes, never answers: the cache's coverage checks mean a
hint can only *add* covering entries, so results stay byte-identical with
prefetch on or off.

Thread-safety: the predictor is fed from the query's thread and read from
a scheduler worker, so it carries its own lock, and does not call out to
other locked components while holding it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .. import _sync
from ..db.interval import Interval, is_empty, overlaps
from ..ingest.formats import MountRequest
from ..ingest.schema import ACTUAL_TABLE

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .executor import TwoStageExecutor
    from .governor import CircuitBreaker

__all__ = [
    "PredictedWindow",
    "WorkloadPredictor",
    "speculative_tasks",
]


# Each prediction is hull-widened by this fraction of its width on both
# sides, so a slightly-off extrapolation still covers the real next window
# (coverage is all-or-nothing for the cache).
WIDEN_FRACTION = 0.25
# Two windows whose widths differ by at most this fraction are a slide.
WIDTH_TOLERANCE = 0.3
# Query windows the predictor remembers.
MAX_HISTORY = 8
# Bound on one plan's speculative disk work, in the planned files' sizes.
MAX_BYTES_PER_ROUND = 32 * 1024 * 1024


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
    focus — is deliberately unpredictable and yields no prediction, so no
    hint is planned instead of a guess.
    """

    def __init__(self) -> None:
        self._lock = _sync.create_lock("WorkloadPredictor._lock")
        self._windows: deque[Interval] = deque(  # guarded-by: _lock
            maxlen=MAX_HISTORY
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
        tol = WIDTH_TOLERANCE
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

    def _widened(
        self, lo: int, hi: int, width: int, kind: str
    ) -> PredictedWindow:
        margin = int(width * WIDEN_FRACTION)
        return PredictedWindow(interval=(lo - margin, hi + margin), kind=kind)




# -- planning -----------------------------------------------------------------


def speculative_tasks(
    executor: "TwoStageExecutor",
    predictor: WorkloadPredictor,
    breaker: "CircuitBreaker",
) -> list[tuple[str, str, Optional[MountRequest]]]:
    """The hints for ``predictor``'s next window: ``(table, uri, request)``
    specs of :meth:`~repro.core.scheduler.MountScheduler.hint`.

    Takes the files whose span overlaps the predicted window, skipping a
    file ``breaker`` (the session's or the tenant's) expects to refuse and
    one whose window the cache already holds; a selective executor asks for
    the window through the file's record map. Stops once the planned files'
    sizes reach :data:`MAX_BYTES_PER_ROUND`. Runs on a scheduler worker,
    inside a deferred plan: never on a query's thread.
    """
    predicted = predictor.predict()
    if predicted is None:
        return []
    window = predicted.interval
    mounts = executor.mounts
    tasks: list[tuple[str, str, Optional[MountRequest]]] = []
    planned = 0
    for uri, file in executor.statistics().files.items():
        if planned >= MAX_BYTES_PER_ROUND:
            break
        if not overlaps(window, *file.span):
            continue
        if breaker.likely_blocked(uri) or mounts.cache.contains(uri, window):
            continue
        request = (
            MountRequest(
                interval=window,
                records=mounts.record_map_provider(uri, ACTUAL_TABLE),
            )
            if mounts.selective
            else None
        )
        tasks.append((ACTUAL_TABLE, uri, request))
        planned += file.size_bytes
    return tasks
