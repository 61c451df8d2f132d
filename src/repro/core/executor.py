"""The two-stage query executor — the paper's §3 "Physical Query Execution".

One query runs through four physical steps:

1. **compile-time optimization** — the classic pipeline plus metadata-first
   join reordering, then decomposition into ``Qf`` and ``Qs``;
2. **first stage** — execute ``Qf`` (metadata only) and collect the files of
   interest;
3. **run-time optimization** — estimate informativeness, consult the destiny
   policy, and apply rewrite rule (1), turning each actual scan into a union
   of mount / cache-scan access paths;
4. **second stage** — execute the rewritten ``Qs``; mounting happens here,
   transparently to the querying front-end.

The executor also implements the strategy choice §3 raises — bulk execution
(a) versus per-file partial aggregation then merge (b) — and the derived-
metadata fast path of §5.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, Optional, Union

from ..db.database import Database, QueryResult
from ..db.errors import DatabaseError, PlanError, QueryAbortedError
from ..db.plan.logical import (
    Aggregate,
    CacheScan,
    LogicalPlan,
    Mount,
    ResultScan,
    UnionAll,
)
from ..db.sql.lexer import Token, shape_key, tokenize
from ..db.stats import StatisticsCatalog
from .. import _sync
from ..obs import QueryTrace
from ..ingest.schema import TIME_COLUMN, RepositoryBinding
from .breakpoint import BreakpointInfo
from .cache import INF, IngestionCache
from .decompose import Decomposition, decompose, _replace_subtree
from .executor_util import batch_from_rows
from .governor import (
    CancellationToken,
    QueryBudget,
    QueryGovernor,
    TruncationReport,
)
from .informativeness import (
    DestinyAction,
    DestinyPolicy,
    ProceedAlways,
    estimate_informativeness,
)
from .mounting import (
    FAIL_FAST,
    MountContext,
    MountFailureReport,
    MountService,
    check_on_error,
    interval_from_predicate,
)
from .partial import PartialMerger, is_decomposable
from .recordmap import RecordMapIndex
from .rules import RewriteReport, apply_ali_rewrite
from .scheduler import MountScheduler, SchedulerPolicy, SharedPoolClient
from .statsindex import StatisticsIndex
from .templates import Template, describe_difference
from .topn import TopNBranchMonitor, branch_hulls, find_top_n_target
from .verify import verify_ali_rewrite, verify_decomposition

BULK = "bulk"  # strategy (a): union everything, operate once
PER_FILE = "per_file"  # strategy (b): operate per file, merge results

# A standalone execution is a batch of one: nobody else can join its tasks,
# so there is no batch window to wait out.
_ONE_TENANT = SchedulerPolicy(batch_window_seconds=0.0)

_PARTIAL_TAG = "partial_agg"

# Query shapes one executor keeps; the least recently used goes.
TEMPLATE_CAPACITY = 64

# Strategy (b)'s per-branch hook: called with (branches merged, branches in
# the union, the merger) before each branch and once after the last; True
# stops the loop, keeping what is merged. Multi-stage execution is one.
_BranchHook = Callable[[int, int, PartialMerger], bool]


@dataclass
class TwoStageResult:
    """A query answer plus everything the breakpoint learned.

    ``trace`` is the answer's :class:`~repro.obs.QueryTrace`: the spans
    ``compile`` / ``stage1`` / ``breakpoint`` / ``stage2`` with the plans'
    operators and the consumed mounts under them, and the counters.

    ``mount_failures`` is the degraded-answer disclosure: under the
    ``SKIP_AND_REPORT`` policy it lists every file the query was answered
    *without* (empty under ``FAIL_FAST``, which raises instead).
    ``truncation`` is non-None when an ``on_budget="partial"`` budget
    tripped mid-execution: the rows are the tuples produced before the
    trip, and the report says how much was left on the table.
    """

    result: QueryResult
    breakpoint: BreakpointInfo
    decomposition: Decomposition
    mount_failures: MountFailureReport = field(
        default_factory=MountFailureReport
    )
    approximate: bool = False
    truncation: Optional[TruncationReport] = None

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        return self.result.rows()

    @property
    def trace(self) -> QueryTrace:
        return self.result.trace


@_sync.guarded
class TwoStageExecutor:
    """Runs SQL with two-stage execution and automated lazy ingestion.

    The executor holds session settings and shared machinery only; what
    belongs to one query lives in the
    :class:`~repro.core.mounting.MountContext` its :meth:`execute` runs
    under, so one executor may run several queries at once. What it counts
    across queries is the sum of their traces' counters (:meth:`totals`).
    """

    def __init__(
        self,
        db: Database,
        binding: RepositoryBinding,
        cache: Optional[IngestionCache] = None,
        destiny: Optional[DestinyPolicy] = None,
        strategy: str = BULK,
        derived=None,  # Optional[DerivedMetadataStore]
        mount_workers: int = 1,
        on_mount_error: str = FAIL_FAST,
        selective_mounts: bool = True,
        budget: Optional[QueryBudget] = None,
        top_n_pushdown: bool = True,
    ) -> None:
        if strategy not in (BULK, PER_FILE):
            raise ValueError(f"unknown strategy {strategy!r}")
        if mount_workers < 1:
            raise ValueError("mount_workers must be >= 1")
        self.db = db
        self.binding = binding
        # `cache or ...` would discard an *empty* cache (len() == 0 is falsy).
        self.cache = cache if cache is not None else IngestionCache()
        self.mounts = MountService(
            binding,
            self.cache,
            buffers=db.buffers,
            selective=selective_mounts,
            # Selective mounts seek by the record byte map the metadata pass
            # recorded in R; the provider serves it per file, rebuilt only
            # when the R table's batch object changes (metadata loads
            # replace it).
            record_map_provider=RecordMapIndex(db),
            file_span_provider=lambda uri: self.statistics().file_span(uri),
        )
        # Top-N/LIMIT pushdown: fuse Sort+Limit into TopN at compile time and
        # early-terminate provably non-contributing union branches at run
        # time. Off reproduces the exhaustive sort-then-slice pipeline (the
        # benchmark baseline).
        self.top_n_pushdown = top_n_pushdown
        # Statistics catalog (cost-based join orientation, branch hulls, the
        # mount access-path choice), rebuilt when the F batch it was
        # collected from is replaced by a metadata load; `statistics()` is
        # the current snapshot.
        self.statistics = StatisticsIndex(db)
        self.destiny = destiny or ProceedAlways()
        self.strategy = strategy
        self.derived = derived
        self.mount_workers = mount_workers
        # Session defaults every execute() opens its context from: `budget`
        # and the degradation policy apply unless that call brings its own.
        self.budget = budget
        self.on_mount_error = check_on_error(on_mount_error)
        self._lock = _sync.create_lock("TwoStageExecutor._lock")
        self._in_flight: list[MountContext] = []  # guarded-by: _lock
        self._totals: Counter = Counter()  # guarded-by: _lock
        # Query shapes, least recently used first — a template once a shape
        # came twice, None after its first query — and what they were
        # compiled against: (statistics snapshot, catalog, its generation).
        # Nothing compiles while the lock is held.
        self._compile_lock = _sync.create_lock("TwoStageExecutor._compile_lock")
        self._templates: OrderedDict[  # guarded-by: _compile_lock
            tuple, Optional[Template]
        ] = OrderedDict()
        self._templates_basis: tuple = (None, None, -1)  # guarded-by: _compile_lock
        if derived is not None:
            self.mounts.add_mount_callback(derived.on_mount)

    # -- compile-time ------------------------------------------------------------

    def prepare(
        self, sql: str, trace: Optional[QueryTrace] = None
    ) -> Decomposition:
        """Step 1: parse, bind, optimize metadata-first, decompose — once
        per query shape. A query whose shape (its tokens, literal values
        set aside; :func:`~repro.db.sql.lexer.shape_key`) was kept gets a
        copy of that compile with its own literal values re-derived
        (:mod:`repro.core.templates`); ``trace`` counts which it was, under
        ``template_hits`` / ``template_misses``. A shape is kept from its
        second query on: its first keeps only the key, so a query asked
        once — a cold start's first answer — costs one compile and nothing
        more. The kept shapes go when the statistics snapshot or the
        catalog's tables change."""
        tokens = tokenize(sql)
        key = (shape_key(tokens), self.top_n_pushdown)
        stats, catalog = self.statistics(), self.db.catalog
        with self._compile_lock:
            basis = self._templates_basis
            if not (
                basis[0] is stats
                and basis[1] is catalog
                and basis[2] == catalog.generation
            ):
                basis = (stats, catalog, catalog.generation)
                self._templates_basis = basis
                self._templates.clear()
            seen = key in self._templates
            template = self._templates.get(key)
            if seen:
                self._templates.move_to_end(key)
        decomposition = None
        if template is not None:
            try:
                decomposition = template.bind(tokens)
            except DatabaseError:
                pass  # a literal binding refuses: compile in full, for its error
        if decomposition is None:
            decomposition = self._compile(sql, tokens, stats)
            template = Template(decomposition) if seen else None
            with self._compile_lock:
                # Unless a new snapshot or table arrived meanwhile.
                if self._templates_basis is basis:
                    self._templates[key] = template
                    if len(self._templates) > TEMPLATE_CAPACITY:
                        self._templates.popitem(last=False)
            counter = "template_misses"
        else:
            counter = "template_hits"
            if self.db.verify_plans:
                difference = describe_difference(
                    decomposition, self._compile(sql, tokens, stats)
                )
                if difference is not None:
                    raise PlanError(
                        f"a kept compile disagrees with a fresh one for "
                        f"{sql!r}: {difference}"
                    )
        if trace is not None:
            trace.counters[counter] += 1
        # The database's one switch verifies its own passes, the
        # decomposition and rule (1) alike.
        if self.db.verify_plans:
            verify_decomposition(
                decomposition, self.db.catalog.is_metadata_table
            )
        return decomposition

    def _compile(
        self, sql: str, tokens: list[Token], stats: StatisticsCatalog
    ) -> Decomposition:
        """Parse, bind, optimize metadata-first and decompose ``sql``."""
        plan = self.db.bind_sql(sql, tokens)
        plan = self.db.optimize(
            plan,
            metadata_first=True,
            stats=stats,
            fuse_topn=self.top_n_pushdown,
        )
        return decompose(plan, self.db.catalog.is_metadata_table)

    def explain(self, sql: str) -> str:
        """The single optimized plan with the ``Qf`` branch marked."""
        return self.prepare(sql).explain()

    # -- execution ------------------------------------------------------------------

    def open_context(
        self,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
        on_mount_error: Optional[str] = None,
    ) -> MountContext:
        """One execution's context, from this executor's session defaults
        (each overridable for this one execution): an armed governor, the
        degradation policy, and the execution as a one-tenant
        service — a mount scheduler of its own, extracting under this
        context, with ``mount_workers`` threads (none when serial: every
        take then extracts inline on the consuming thread, in plan order).

        Shared by :meth:`execute` and the multi-stage executor; run the
        execution inside :meth:`running`, which closes the scheduler.
        """
        governor = QueryGovernor(
            budget if budget is not None else self.budget, token=cancellation
        )
        context = MountContext(
            governor=governor,
            on_error=on_mount_error or self.on_mount_error,
        )
        context.scheduler = MountScheduler(
            partial(self.mounts._extract, context=context),
            policy=_ONE_TENANT,
            workers=0 if self.mount_workers == 1 else self.mount_workers,
        )
        context.scheduler.start()
        context.pool = context.scheduler.client(
            token=governor.token, trace=context.trace
        )
        return context

    @contextmanager
    def running(self, context: MountContext) -> Iterator[None]:
        """One execution's span: :meth:`cancel` reaches ``context`` while
        it lasts; after it the trace's counters join :meth:`totals` (a
        query that raised too), the governor's deadline timer is disarmed
        and a scheduler the context owns is closed, so no worker outlives
        it."""
        assert context.governor is not None
        with self._lock:
            self._in_flight.append(context)
        try:
            yield
        finally:
            with self._lock:
                self._in_flight.remove(context)
                self._totals += context.trace.counters
            context.governor.close()
            if context.scheduler is not None:
                context.scheduler.close()

    def totals(self) -> Counter:
        """Every finished execution's trace counters, summed: the
        executor-lifetime count of each mount event (``files_mounted``,
        ``bytes_read``, ``stale_remounts``, …), queries that raised
        included."""
        with self._lock:
            return Counter(self._totals)

    def cancel(self, reason: str = "query cancelled by caller") -> bool:
        """Cancel every in-flight execution; True when any was live.

        Thread-safe: meant to be called from another thread (a UI, a
        watchdog) while :meth:`execute` runs.
        """
        with self._lock:
            running = list(self._in_flight)
        for context in running:
            context.token.cancel(reason)
        return bool(running)

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
        context: Optional[MountContext] = None,
    ) -> TwoStageResult:
        """Run one query under the governor.

        ``budget`` overrides the session default for this call;
        ``cancellation`` lets the caller hold the token (to cancel from
        another thread). Exceeding the budget raises
        :class:`~repro.db.errors.QueryBudgetExceeded`, or truncates with a
        report under ``on_budget="partial"``. A caller with its own idea of
        what a query is (the query service: tenant policy, tenant ledger,
        shared scheduler) hands in the whole ``context`` instead — governor
        and pool included — and with it nothing else.
        """
        if context is None:
            context = self.open_context(budget, cancellation)
        elif budget is not None or cancellation is not None:
            raise ValueError(
                "a context brings its own budget and token: pass either "
                "`context` or `budget` / `cancellation`, not both"
            )
        elif context.governor is None or context.pool is None:
            raise ValueError(
                "an execution's context needs a governor and a pool "
                "(see open_context)"
            )
        lock_before = _sync.lock_snapshot()
        with self.running(context):
            outcome = self._execute(sql, context)
        context.trace.lock_stats = _sync.lock_snapshot_delta(lock_before)
        return outcome

    def _execute(
        self,
        query: Union[str, Decomposition],
        context: MountContext,
        on_branch: Optional[_BranchHook] = None,
    ) -> TwoStageResult:
        """Run ``query`` (SQL, or a decomposition already prepared) under
        ``context``. ``on_branch`` runs stage 2 per file whatever the
        strategy, calling it around every branch (see ``_BranchHook``)."""
        governor, pool = context.governor, context.pool
        assert governor is not None and pool is not None
        trace = context.trace
        io_before = self.db.buffers.stats.copy()
        if isinstance(query, str):
            with trace.span("compile"):
                decomposition = self.prepare(query, trace)
        else:
            decomposition = query

        ctx = self.db.make_context(
            mounter=self.mounts, governor=governor, mount_context=context,
            trace=trace,
        )
        breakpoint_info = BreakpointInfo(
            query_interval=self._query_interval(decomposition)
        )

        def answer(
            result: QueryResult, approximate: bool = False
        ) -> TwoStageResult:
            """``result``'s rows under the whole execution's accounting: the
            trace's top-level time and every buffer read since it began."""
            combined = QueryResult(
                names=result.names,
                batch=result.batch,
                elapsed_cpu=trace.total_seconds,
                io=self.db.buffers.stats.since(io_before),
                trace=trace,
            )
            return TwoStageResult(
                combined, breakpoint_info, decomposition,
                context.failure_report, approximate,
                governor.truncation_report(),
            )

        # A metadata-only query is answered entirely by stage 1 — "the first
        # stage of execution is naturally enough" (§3).
        if decomposition.metadata_only:
            with trace.span("stage1"):
                result = self.db.execute_plan(decomposition.plan, ctx)
            breakpoint_info.stage1_rows = result.num_rows
            return answer(result)

        # Stage 1: the metadata branch.
        if decomposition.qf is not None:
            with trace.span("stage1"):
                stage1 = self.db.execute_plan(decomposition.qf, ctx)
            ctx.results[decomposition.result_tag] = stage1.batch
            breakpoint_info.stage1_rows = stage1.num_rows

        with trace.span("breakpoint"):
            # Files of interest, per actual-table alias.
            files_by_alias = self._files_of_interest(decomposition, ctx)
            files_by_alias, pruned_by_time = self._prune_by_time(
                decomposition, files_by_alias
            )
            breakpoint_info.files_by_alias = files_by_alias
            breakpoint_info.pruned_by_time = pruned_by_time

            breakpoint_info.estimate = estimate_informativeness(
                self.statistics(),
                breakpoint_info.files_of_interest,
                self.cache.cached_uris(),
                interval=breakpoint_info.query_interval,
            )
            decision = self.destiny.decide(breakpoint_info.estimate)
            breakpoint_info.decision = decision
            if decision.action is DestinyAction.ABORT:
                raise QueryAbortedError(
                    f"query aborted at breakpoint: {decision.reason}",
                    breakpoint_info,
                )
            approximate = False
            if decision.action is DestinyAction.LIMIT:
                assert decision.max_files is not None
                files_by_alias = {
                    alias: files[: decision.max_files]
                    for alias, files in files_by_alias.items()
                }
                breakpoint_info.files_by_alias = files_by_alias
                approximate = True

            # Derived-metadata fast path (§5): answer summaries without
            # mounting.
            derived_result = None
            if self.derived is not None:
                derived_result = self.derived.try_answer(
                    decomposition, files_by_alias, ctx, self.db
                )
            if derived_result is None:
                # Run-time optimization: rewrite rule (1).
                report = RewriteReport()
                assert decomposition.qs is not None
                rewritten = apply_ali_rewrite(
                    decomposition.qs, files_by_alias, self.cache, report=report
                )
                if self.db.verify_plans:
                    verify_ali_rewrite(decomposition.qs, rewritten)
                breakpoint_info.rewrite = report
        if derived_result is not None:
            breakpoint_info.answered_from_derived = True
            return answer(derived_result, approximate)

        # Stage 2: mounts happen here, inside the plan. Both strategies
        # dispatch their mount branches through the context's scheduler.
        per_file = on_branch is not None or self.strategy == PER_FILE
        termination = None
        if self.top_n_pushdown and not per_file:
            termination = self._top_n_termination(rewritten, pool)
        stage2_span = trace.open("stage2")
        try:
            if termination is not None:
                monitor, prefetch_mounts = termination
                ctx.branch_monitor = monitor
            else:
                monitor = None
                prefetch_mounts = [
                    node for node in rewritten.walk() if isinstance(node, Mount)
                ]
            pool.prefetch(
                [
                    (
                        node.table_name,
                        node.uri,
                        self.mounts.request_for(
                            node.uri, node.table_name, node.alias,
                            node.predicate,
                        ),
                    )
                    for node in prefetch_mounts
                ]
            )
            # The cache scans' files observed at once, while the workers'
            # GETs run: one LIST per directory where a scan would HEAD.
            context.observed = self.mounts.binding.repository.signatures_of(
                [n.uri for n in rewritten.walk() if isinstance(n, CacheScan)],
                context,
            )
            if per_file:
                stage2 = self._execute_per_file(rewritten, ctx, on_branch)
            else:
                stage2 = self.db.execute_plan(rewritten, ctx)
                if monitor is not None and not monitor.safe():
                    # A skip the emitted rows do not justify (operators
                    # between the union and the TopN dropped part of the
                    # answer). Correctness wins: re-run exhaustively —
                    # released branches extract inline on this thread.
                    ctx.branch_monitor = None
                    stage2 = self.db.execute_plan(rewritten, ctx)
        finally:
            ctx.branch_monitor = None
            pool.close()
            # One span over every plan stage 2 ran: a Top-N re-run's first
            # pass and strategy (b)'s partials count with the final plan.
            trace.close(stage2_span)
        return answer(stage2, approximate)

    # -- Top-N early termination -------------------------------------------------

    def _top_n_termination(
        self, rewritten: LogicalPlan, pool: SharedPoolClient
    ) -> Optional[tuple[TopNBranchMonitor, list[Mount]]]:
        """Arm branch skipping for one stage-2 execution, when sound.

        Returns the monitor (installed as the context's ``branch_monitor``)
        and the union's Mount branches in consumption-priority order — the
        prefetch order, so workers extract the most promising hulls first
        and the threshold tightens before the losers reach the front of the
        queue. None when the rewritten plan is not the recognized shape.
        """
        target = find_top_n_target(rewritten)
        if target is None:
            return None
        hulls = branch_hulls(target.union, self.statistics().file_span)
        branches = list(target.union.inputs)

        def on_skip(index: int) -> None:
            branch = branches[index]
            counters = pool.trace.counters
            counters["early_terminated_branches"] += 1
            if isinstance(branch, Mount) and pool.release(
                branch.table_name, branch.uri
            ):
                counters["early_cancelled_mounts"] += 1

        monitor = TopNBranchMonitor(
            count=target.topn.count,
            ascending=target.ascending,
            key=target.key,
            hulls=hulls,
            on_skip=on_skip,
        )
        order = monitor.schedule(len(branches))
        prefetch_mounts = [
            branches[i] for i in order if isinstance(branches[i], Mount)
        ]
        return monitor, prefetch_mounts

    # -- breakpoint helpers ----------------------------------------------------------

    def _prune_by_time(
        self,
        decomposition: Decomposition,
        files_by_alias: dict[str, list[str]],
    ) -> tuple[dict[str, list[str]], int]:
        """Drop files whose metadata time span cannot satisfy the query's
        sample-time interval.

        A file's samples lie within ``[F.start_time, F.end_time]`` — that is
        what the metadata *means* — so when the actual-data predicate bounds
        ``sample_time`` to an interval disjoint from a file's span, that file
        contributes no rows and need not be mounted. This is metadata
        exploitation beyond the join structure (§5 "extending metadata"),
        and it is what keeps queries that constrain *only* D's time cheap.
        On with the binding's ``prune_by_time``.
        """
        assert decomposition.qs is not None
        pruned_total = 0
        predicates = _actual_scan_predicates(decomposition.qs)
        result: dict[str, list[str]] = {}
        for info in decomposition.actual_scans:
            files = files_by_alias.get(info.alias, [])
            predicate = predicates.get(info.alias)
            if not self.binding.prune_by_time or predicate is None or not files:
                result[info.alias] = files
                continue
            time_key = f"{info.alias}.{TIME_COLUMN}"
            lo, hi = interval_from_predicate(predicate, time_key)
            if lo == -INF and hi == INF:
                result[info.alias] = files
                continue
            file_span = self.statistics().file_span
            kept = []
            for uri in files:
                span = file_span(uri)
                if span is None or (span[0] <= hi and span[1] >= lo):
                    kept.append(uri)
            pruned_total += len(files) - len(kept)
            result[info.alias] = kept
        return result, pruned_total

    def _query_interval(
        self, decomposition: Decomposition
    ) -> Optional[tuple[int, int]]:
        """The sample-time interval the query's actual-data predicate
        implies (None when unbounded, or when no actual data is read)."""
        if decomposition.qs is None:
            return None
        predicates = _actual_scan_predicates(decomposition.qs)
        for info in decomposition.actual_scans:
            predicate = predicates.get(info.alias)
            if predicate is None:
                continue
            interval = interval_from_predicate(
                predicate, f"{info.alias}.{TIME_COLUMN}"
            )
            if interval != (-INF, INF):
                return interval
        return None

    def _files_of_interest(self, decomposition: Decomposition, ctx) -> dict[str, list[str]]:
        files_by_alias: dict[str, list[str]] = {}
        qf_batch = ctx.results.get(decomposition.result_tag)
        for info in decomposition.actual_scans:
            if info.link_key is not None and qf_batch is not None:
                values = qf_batch.column(info.link_key).to_pylist()
                files_by_alias[info.alias] = list(dict.fromkeys(values))
            else:
                # No metadata constraint: every file is of interest (§4's
                # worst case). A remote listing is a request of this query.
                binding = self.mounts.binding_for(info.table_name)
                files_by_alias[info.alias] = binding.repository.uris(
                    ctx.mount_context
                )
        return files_by_alias

    # -- strategy (b): per-file partials --------------------------------------------

    def _execute_per_file(
        self,
        rewritten: LogicalPlan,
        ctx,
        on_branch: Optional[_BranchHook] = None,
    ) -> QueryResult:
        """Run higher operators per sub-table and merge (§3 choice (b)).

        Falls back to bulk execution when the plan shape does not decompose
        (no aggregate, non-decomposable aggregate, or several unions). A
        branch ``on_branch`` stops before is never taken; closing the pool
        withdraws its mount.
        """
        aggregate = next(
            (n for n in rewritten.walk() if isinstance(n, Aggregate)), None
        )
        unions = [n for n in rewritten.walk() if isinstance(n, UnionAll)]
        if (
            aggregate is None
            or len(unions) != 1
            or not is_decomposable(aggregate)
            or not _union_below(aggregate, unions[0])
            or not all(
                isinstance(b, (Mount, CacheScan)) for b in unions[0].inputs
            )
        ):
            return self.db.execute_plan(rewritten, ctx)

        union = unions[0]
        merger = PartialMerger(aggregate)
        total = len(union.inputs)
        for done, branch in enumerate(union.inputs):
            if on_branch is not None and on_branch(done, total, merger):
                break
            child = _replace_subtree(
                aggregate.child, union, UnionAll([branch])
            )
            partial_plan = merger.partial_aggregate_node(child)
            partial = self.db.execute_plan(partial_plan, ctx)
            merger.merge(partial.rows(), partial.names)
        else:
            if on_branch is not None:
                on_branch(total, total, merger)

        final_batch = batch_from_rows(aggregate.output, merger.finalized_rows())
        ctx.results[_PARTIAL_TAG] = final_batch
        remainder = _replace_subtree(
            rewritten, aggregate, ResultScan(_PARTIAL_TAG, list(aggregate.output))
        )
        return self.db.execute_plan(remainder, ctx)


def _union_below(root: LogicalPlan, union: UnionAll) -> bool:
    return any(node is union for node in root.walk())


def _actual_scan_predicates(qs: LogicalPlan) -> dict[str, object]:
    """alias → the selection predicate sitting directly on its scan.

    Only the fused ``Select(Scan)`` shape matters: that is the predicate
    rule (1) will push into every mount branch, and the one whose time
    bounds can prune files via metadata.
    """
    from ..db.plan.logical import Scan, Select

    predicates: dict[str, object] = {}
    for node in qs.walk():
        if isinstance(node, Select) and isinstance(node.child, Scan):
            predicates[node.child.alias] = node.predicate
    return predicates
