"""Multi-stage query execution (§5).

"Ideally, we can even go for a 'multi-stage query execution' paradigm where
the system tries to anticipate the query informativeness in more than one
place during query execution. It even tries to ingest in more than one place
during execution."

:class:`MultiStageExecutor` generalizes the two-stage breakpoint: after
stage 1, files of interest are ingested in *batches*, with a running partial
answer and cost re-estimate after every batch. A time budget, batch limit,
or user callback can stop ingestion early, yielding an approximate answer
over the processed prefix — the "queries as answers" direction the paper
cites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..db.database import QueryResult
from ..db.errors import PlanError
from ..db.plan.logical import Aggregate, ResultScan, UnionAll
from .decompose import _replace_subtree
from .executor import TwoStageExecutor, _actual_scan_predicates
from .executor_util import batch_from_rows
from .governor import CancellationToken, QueryBudget, TruncationReport
from .mounting import MountContext, MountFailureReport
from .partial import PartialMerger, is_decomposable
from .rules import apply_ali_rewrite
from .verify import verify_ali_rewrite

_TAG = "multistage_agg"


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
    mount_failures: MountFailureReport = field(
        default_factory=MountFailureReport
    )
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
        with self.executor.running(context):
            return self._execute(sql, context)

    def _execute(self, sql: str, context: MountContext) -> MultiStageResult:
        db = self.executor.db
        governor, pool = context.governor, context.pool
        assert governor is not None and pool is not None
        decomposition = self.executor.prepare(sql)
        ctx = db.make_context(
            mounter=self.executor.mounts,
            governor=governor,
            mount_context=context,
        )

        if decomposition.metadata_only:
            result = db.execute_plan(decomposition.plan, ctx)
            return MultiStageResult(result, 0, 0)

        if len(decomposition.actual_scans) != 1:
            raise PlanError("multi-stage execution supports one actual table")
        if decomposition.qf is not None:
            stage1 = db.execute_plan(decomposition.qf, ctx)
            ctx.results[decomposition.result_tag] = stage1.batch
        files_by_alias = self.executor._files_of_interest(decomposition, ctx)
        files_by_alias, _ = self.executor._prune_by_time(
            decomposition, files_by_alias
        )
        info = decomposition.actual_scans[0]
        files = files_by_alias[info.alias]

        assert decomposition.qs is not None
        aggregate = next(
            (n for n in decomposition.qs.walk() if isinstance(n, Aggregate)), None
        )
        if aggregate is None or not is_decomposable(aggregate):
            raise PlanError(
                "multi-stage execution requires a decomposable aggregate "
                "(AVG/SUM/COUNT/MIN/MAX without DISTINCT)"
            )

        merger = PartialMerger(aggregate)
        snapshots: list[BatchSnapshot] = []
        started = time.perf_counter()
        processed = 0
        stopped = False
        batches = [
            files[i: i + self.batch_files]
            for i in range(0, len(files), self.batch_files)
        ]
        # Every ingestion stage shares the context's scheduler client:
        # uncached files are prefetched up front (bounded in flight, so
        # early stopping leaves at most 2 × mount_workers wasted extractions
        # to withdraw) and each stage's per-file plans consume them in file
        # order.
        table_name = info.table_name
        cache = self.executor.cache
        # The per-file rewrites below fuse this alias's predicate into every
        # branch, so prefetch under the same mount request (same interval,
        # per-file byte map) the branch will ask for.
        predicate = _actual_scan_predicates(decomposition.qs).get(info.alias)
        try:
            pool.prefetch(
                [
                    (
                        table_name,
                        uri,
                        self.executor.mounts.request_for(
                            uri, table_name, info.alias, predicate
                        ),
                    )
                    for uri in files
                    if not cache.contains(uri)
                ]
            )
            for batch_index, batch in enumerate(batches):
                for uri in batch:
                    # Budget safe point between files: raise-mode trips and
                    # cancellation abort here; a tripped partial budget
                    # keeps the prefix already merged and stops ingesting.
                    governor.checkpoint()
                    if governor.should_truncate:
                        stopped = True
                        break
                    child = apply_ali_rewrite(
                        aggregate.child, {info.alias: [uri]}, cache
                    )
                    if db.verify_plans:
                        verify_ali_rewrite(aggregate.child, child)
                    partial_plan = merger.partial_aggregate_node(child)
                    partial = db.execute_plan(partial_plan, ctx)
                    merger.merge(partial.rows(), partial.names)
                    processed += 1
                snapshot = BatchSnapshot(
                    batch_index=batch_index,
                    files_processed=processed,
                    total_files=len(files),
                    running_rows=merger.snapshot(),
                    elapsed_seconds=time.perf_counter() - started,
                )
                snapshots.append(snapshot)
                if stopped:
                    break  # budget tripped mid-batch: keep the prefix
                if self._should_stop(snapshot, batch_index):
                    stopped = processed < len(files)
                    break
        finally:
            pool.close()

        final_batch = batch_from_rows(aggregate.output, merger.finalized_rows())
        ctx.results[_TAG] = final_batch
        remainder = _replace_subtree(
            decomposition.qs, aggregate, ResultScan(_TAG, list(aggregate.output))
        )
        # Any remaining (un-ingested) actual scans would be unreachable: the
        # aggregate subtree contained the only actual scan.
        remainder = _strip_unreachable_unions(remainder)
        result = db.execute_plan(remainder, ctx)
        return MultiStageResult(
            result=result,
            files_processed=processed,
            total_files=len(files),
            snapshots=snapshots,
            converged=not stopped,
            mount_failures=context.failure_report,
            truncation=governor.truncation_report(),
        )

    def _should_stop(self, snapshot: BatchSnapshot, batch_index: int) -> bool:
        if (
            self.time_budget_seconds is not None
            and snapshot.elapsed_seconds >= self.time_budget_seconds
        ):
            return True
        if self.max_batches is not None and batch_index + 1 >= self.max_batches:
            return True
        if self.stop_condition is not None and self.stop_condition(snapshot):
            return True
        return False


def _strip_unreachable_unions(plan):
    """Defensive: the remainder plan should contain no access-path unions."""
    for node in plan.walk():
        if isinstance(node, UnionAll):
            raise PlanError(
                "multi-stage remainder still contains an actual-data union; "
                "the query shape is unsupported"
            )
    return plan
