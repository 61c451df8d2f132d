"""Multi-stage query execution (§5).

"Ideally, we can even go for a 'multi-stage query execution' paradigm where
the system tries to anticipate the query informativeness in more than one
place during query execution. It even tries to ingest in more than one place
during execution."

:class:`MultiStageExecutor` generalizes the two-stage breakpoint: the
executor's own stage 1 and breakpoint run once, then its per-file stage 2
(strategy (b)) ingests the files of interest one union branch at a time,
and this module is the hook it calls between branches. Every
``batch_files`` files the hook records a running partial answer; a time
budget, batch limit, user callback or partial query budget can stop
ingestion early, yielding an approximate answer over the processed prefix —
the "queries as answers" direction the paper cites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..db.database import QueryResult
from ..db.errors import PlanError
from ..db.plan.logical import Aggregate
from .decompose import Decomposition
from .executor import TwoStageExecutor
from .governor import CancellationToken, QueryBudget, TruncationReport
from .mounting import MountFailureReport
from .partial import PartialMerger, is_decomposable


@dataclass
class BatchSnapshot:
    """What the system knows after one ingestion batch."""

    batch_index: int
    files_processed: int
    total_files: int
    running_rows: Optional[list[tuple]]
    elapsed_seconds: float

    @property
    def fraction(self) -> float:
        return self.files_processed / self.total_files if self.total_files else 1.0


@dataclass
class MultiStageResult:
    """An (possibly approximate) answer plus the per-batch trajectory."""

    result: QueryResult
    files_processed: int
    total_files: int
    snapshots: list[BatchSnapshot] = field(default_factory=list)
    converged: bool = True
    mount_failures: MountFailureReport = field(default_factory=MountFailureReport)
    # Non-None when an on_budget="partial" budget stopped ingestion early.
    truncation: Optional[TruncationReport] = None

    @property
    def approximate(self) -> bool:
        return not self.converged


StopCondition = Callable[[BatchSnapshot], bool]


class MultiStageExecutor:
    """Batched lazy ingestion with re-estimation between batches.

    Requires an ungrouped-or-grouped *decomposable* aggregate query (AVG,
    SUM, COUNT, MIN, MAX without DISTINCT) over a single actual table —
    partial answers are only meaningful when higher operators distribute
    over the ingestion batches.
    """

    def __init__(
        self,
        executor: TwoStageExecutor,
        batch_files: int = 4,
        time_budget_seconds: Optional[float] = None,
        max_batches: Optional[int] = None,
        stop_condition: Optional[StopCondition] = None,
    ) -> None:
        if batch_files < 1:
            raise ValueError("batch_files must be >= 1")
        self.executor = executor
        self.batch_files = batch_files
        self.time_budget_seconds = time_budget_seconds
        self.max_batches = max_batches
        self.stop_condition = stop_condition

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> MultiStageResult:
        context = self.executor.open_context(budget, cancellation)
        snapshots: list[BatchSnapshot] = []
        processed, total, stopped, started = 0, 0, False, 0.0

        def on_branch(done: int, branches: int, merger: PartialMerger) -> bool:
            """Called before each file and after the last: True stops."""
            nonlocal processed, total, started, stopped
            processed, total = done, branches
            if done == 0:
                started = time.perf_counter()
            if done < total:
                # Budget safe point between files: raise-mode trips and
                # cancellation abort here; a tripped partial budget keeps
                # the prefix already merged and stops ingesting.
                context.governor.checkpoint()
                stopped = context.governor.should_truncate
            if done and (stopped or done == total or done % self.batch_files == 0):
                snapshots.append(BatchSnapshot(
                    (done - 1) // self.batch_files, done, total,
                    merger.snapshot(), time.perf_counter() - started,
                ))
                if not stopped:
                    stopped = self._should_stop(snapshots[-1]) and done < total
            return stopped

        with self.executor.running(context):
            with context.trace.span("compile"):
                decomposition = self.executor.prepare(sql)
            if not decomposition.metadata_only:
                _check_shape(decomposition)
            outcome = self.executor._execute(decomposition, context, on_branch)
        return MultiStageResult(
            result=outcome.result,
            files_processed=processed,
            total_files=total,
            snapshots=snapshots,
            converged=not stopped and not outcome.approximate,
            mount_failures=context.failure_report,
            truncation=context.governor.truncation_report(),
        )

    def _should_stop(self, snapshot: BatchSnapshot) -> bool:
        budget, limit = self.time_budget_seconds, self.max_batches
        return (
            (budget is not None and snapshot.elapsed_seconds >= budget)
            or (limit is not None and snapshot.batch_index + 1 >= limit)
            or (self.stop_condition is not None and self.stop_condition(snapshot))
        )


def _check_shape(decomposition: Decomposition) -> None:
    """One actual scan below a decomposable aggregate, or a PlanError."""
    scans, qs = decomposition.actual_scans, decomposition.qs
    if len(scans) != 1:
        raise PlanError("multi-stage execution supports one actual table")
    aggregate = next((n for n in qs.walk() if isinstance(n, Aggregate)), None)
    if aggregate is None or not is_decomposable(aggregate) or not any(
        node is scans[0].scan for node in aggregate.child.walk()
    ):
        raise PlanError(
            "multi-stage execution requires a decomposable aggregate "
            "(AVG/SUM/COUNT/MIN/MAX without DISTINCT)"
        )
