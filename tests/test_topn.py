"""Top-N/LIMIT pushdown with early-terminating mounts (cost tentpole).

Covers the whole stack: the ORDER BY pushdown regression (selections must
commute with Sort/Distinct), LIMIT validation, the ``fuse-top-n`` and
``cost-based-join-order`` optimizer passes, the statistics catalog, the
bounded-memory ``top_n_indices`` kernel (property-tested against the full
sort), the :func:`find_top_n_target` static gate, the
:class:`TopNBranchMonitor` threshold/audit machinery, mount release on the
pool and the shared scheduler, and end-to-end equivalence plus the
early-termination accounting the benchmark asserts on.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MountScheduler,
    SchedulerPolicy,
    TopNBranchMonitor,
    TwoStageExecutor,
    apply_ali_rewrite,
    branch_hulls,
    decompose,
    find_top_n_target,
)
from repro.db import (
    BindError,
    Column,
    ColumnBatch,
    ColumnDef,
    Database,
    DataType,
    SqlSyntaxError,
    StatisticsCatalog,
    TableKind,
    TableSchema,
    collect_statistics,
)
from repro.db.errors import PlanInvariantError
from repro.db.expr import ColumnRef, Comparison, Literal
from repro.db.plan.binder import Binder
from repro.db.plan.kernels import sort_indices, top_n_indices
from repro.db.plan.logical import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    Mount,
    Project,
    Scan,
    Select,
    Sort,
    TopN,
    UnionAll,
)
from repro.db.plan.rewrite import (
    cost_based_join_order,
    fuse_top_n,
    push_down_selections,
)
from repro.db.plan.verify import verify_plan
from repro.db.sql.parser import parse_sql
from repro.ingest import RepositoryBinding, lazy_ingest_metadata

from test_mountpool import RecordingExtract, keys, one_tenant

# Descending latest-K over the tiny repository: the day-011 files bound the
# answer, so every day-010 branch is provably skippable once the heap fills.
LATEST_SQL = (
    "SELECT D.sample_time, D.sample_value FROM F "
    "JOIN D ON F.uri = D.uri "
    "ORDER BY D.sample_time DESC LIMIT 5"
)


def make_executor(repo, **kwargs):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(db, RepositoryBinding(repo), **kwargs)


@pytest.fixture()
def plain_db():
    db = Database()
    for name, kind in (
        ("M1", TableKind.METADATA),
        ("M2", TableKind.METADATA),
        ("A1", TableKind.ACTUAL),
    ):
        db.create_table(
            TableSchema(
                name,
                [
                    ColumnDef("k", DataType.INT64),
                    ColumnDef("v", DataType.FLOAT64),
                    ColumnDef("s", DataType.STRING),
                ],
                kind=kind,
            )
        )
    return db


def _eq_pred(key: str, value: str) -> Comparison:
    return Comparison(
        "=",
        ColumnRef(key, DataType.STRING),
        Literal(value, DataType.STRING),
    )


class TestPushdownThroughSortAndDistinct:
    """Regression: ``_push`` once treated Sort (and Distinct) as barriers, so
    a selection sitting above an ORDER BY never reached the scan — and the
    run-time rewrite then produced unfused whole-file mounts."""

    def _scan(self):
        return Scan(
            "M1",
            "m1",
            [("m1.k", DataType.INT64), ("m1.s", DataType.STRING)],
        )

    def test_selection_commutes_with_sort(self):
        scan = self._scan()
        sort = Sort(scan, [(ColumnRef("m1.k", DataType.INT64), True)])
        plan = Select(sort, _eq_pred("m1.s", "x"))
        pushed = push_down_selections(plan)
        assert isinstance(pushed, Sort)
        assert isinstance(pushed.child, Select)
        assert isinstance(pushed.child.child, Scan)

    def test_selection_commutes_with_distinct(self):
        scan = self._scan()
        plan = Select(Distinct(scan), _eq_pred("m1.s", "x"))
        pushed = push_down_selections(plan)
        assert isinstance(pushed, Distinct)
        assert isinstance(pushed.child, Select)

    def test_limit_stays_a_barrier(self):
        """σ over LIMIT is not the same query as LIMIT over σ."""
        scan = self._scan()
        plan = Select(Limit(scan, 3), _eq_pred("m1.s", "x"))
        pushed = push_down_selections(plan)
        assert isinstance(pushed, Select)
        assert isinstance(pushed.child, Limit)

    def test_order_by_results_unchanged(self, plain_db):
        plain_db.insert_rows(
            "M1", [(3, 1.0, "x"), (1, 2.0, "y"), (2, 3.0, "x")]
        )
        sql = "SELECT k FROM M1 WHERE s = 'x' ORDER BY k"
        assert plain_db.execute(sql).batch.column("k").to_pylist() == [2, 3]

    def test_order_by_mounts_carry_fused_predicate(self, executor):
        """End to end: an ORDER BY query's rewritten stage-2 plan must fuse
        the time predicate (and its pruning interval) into every Mount."""
        sql = (
            "SELECT D.sample_time FROM F JOIN D ON F.uri = D.uri "
            "WHERE D.sample_time >= '2010-01-10T10:00:00.000' "
            "AND D.sample_time < '2010-01-10T11:00:00.000' "
            "ORDER BY D.sample_time DESC LIMIT 3"
        )
        db = executor.db
        plan = db.optimize(
            db.bind_sql(sql), metadata_first=True, stats=executor.statistics()
        )
        decomposition = decompose(
            plan, db.catalog.is_metadata_table, executor._uri_column_of
        )
        ctx = db.make_context(mounter=executor.mounts)
        if decomposition.qf is not None:
            stage1 = db.execute_plan(decomposition.qf, ctx)
            ctx.results[decomposition.result_tag] = stage1.batch
        files_by_alias = executor._files_of_interest(decomposition, ctx)
        rewritten = apply_ali_rewrite(
            decomposition.qs,
            files_by_alias,
            executor.cache,
            time_column=executor.mounts.time_column,
        )
        mounts = [n for n in rewritten.walk() if isinstance(n, Mount)]
        assert mounts, "rewrite produced no mount branches"
        for mount in mounts:
            assert mount.predicate is not None
            assert mount.interval is not None


class TestLimitValidation:
    def test_negative_limit_rejected_at_parse(self, plain_db):
        with pytest.raises(SqlSyntaxError, match="non-negative"):
            plain_db.bind_sql("SELECT v FROM M1 LIMIT -1")

    def test_negative_limit_rejected_at_bind(self, plain_db):
        stmt = parse_sql("SELECT v FROM M1 LIMIT 1")
        stmt.limit = -1  # a front end bypassing the parser
        with pytest.raises(BindError, match="non-negative"):
            Binder(plain_db.catalog).bind(stmt)

    def test_negative_limit_rejected_by_verifier(self):
        scan = Scan("M1", "m1", [("m1.k", DataType.INT64)])
        with pytest.raises(PlanInvariantError):
            verify_plan(Limit(scan, -2), "test")

    def test_limit_zero_is_legal_and_empty(self, plain_db):
        plain_db.insert_rows("M1", [(1, 1.0, "x")])
        result = plain_db.execute("SELECT k, s FROM M1 LIMIT 0")
        assert result.names == ["k", "s"]
        assert result.batch.num_rows == 0

    def test_limit_zero_never_mounts(self, executor):
        """PLimit count==0 short-circuits without pulling its child, so the
        serial pool's lazy extraction never touches a file."""
        result = executor.execute(
            "SELECT D.sample_time FROM F JOIN D ON F.uri = D.uri LIMIT 0"
        )
        assert result.rows == []
        assert executor.mounts.stats.mounts == 0
        assert executor.mounts.stats.bytes_read == 0


class TestFuseTopN:
    def _sorted_scan(self):
        scan = Scan(
            "M1", "m1", [("m1.k", DataType.INT64), ("m1.v", DataType.FLOAT64)]
        )
        return Sort(scan, [(ColumnRef("m1.v", DataType.FLOAT64), True)])

    def test_limit_over_sort_fuses(self):
        fused = fuse_top_n(Limit(self._sorted_scan(), 3))
        assert isinstance(fused, TopN)
        assert fused.count == 3
        assert verify_plan(fused, "fuse-top-n") is fused

    def test_limit_over_project_over_sort_fuses(self):
        sort = self._sorted_scan()
        project = Project(
            sort, [("v", ColumnRef("m1.v", DataType.FLOAT64))]
        )
        fused = fuse_top_n(Limit(project, 2))
        assert isinstance(fused, Project)
        assert isinstance(fused.child, TopN)

    def test_distinct_between_blocks_fusion(self):
        """LIMIT k of DISTINCT rows ≠ DISTINCT of the top k rows."""
        plan = Limit(Distinct(self._sorted_scan()), 3)
        fused = fuse_top_n(plan)
        assert isinstance(fused, Limit)

    def test_limit_zero_not_fused(self):
        fused = fuse_top_n(Limit(self._sorted_scan(), 0))
        assert isinstance(fused, Limit)

    def test_sql_pipeline_produces_topn(self, plain_db):
        plan = plain_db.optimize(
            plain_db.bind_sql("SELECT v FROM M1 ORDER BY v LIMIT 3")
        )
        kinds = [type(n) for n in plan.walk()]
        assert TopN in kinds
        assert Sort not in kinds and Limit not in kinds

    def test_fused_results_match_sort_plus_slice(self, plain_db):
        plain_db.insert_rows(
            "M1",
            [(1, 3.0, "a"), (2, 1.0, "b"), (3, 2.0, "c"), (4, 1.0, "d")],
        )
        result = plain_db.execute(
            "SELECT s FROM M1 ORDER BY v, k LIMIT 3"
        )
        assert result.batch.column("s").to_pylist() == ["b", "d", "c"]


class TestCostBasedJoinOrder:
    def test_smaller_metadata_side_becomes_build_side(self, plain_db):
        """PHashJoin builds on the right child, so the pass must put the
        smaller estimated input there."""
        plan = push_down_selections(
            plain_db.bind_sql("SELECT M1.v FROM M1 JOIN M2 ON M1.k = M2.k")
        )
        stats = StatisticsCatalog(table_rows={"m1": 10, "m2": 10_000})
        ordered = cost_based_join_order(
            plan, stats, plain_db.catalog.is_metadata_table
        )
        join = next(n for n in ordered.walk() if isinstance(n, Join))
        assert isinstance(join.left, Scan) and join.left.table_name == "M2"
        assert isinstance(join.right, Scan) and join.right.table_name == "M1"

    def test_already_ordered_join_untouched(self, plain_db):
        plan = push_down_selections(
            plain_db.bind_sql("SELECT M1.v FROM M2 JOIN M1 ON M1.k = M2.k")
        )
        stats = StatisticsCatalog(table_rows={"m1": 10, "m2": 10_000})
        ordered = cost_based_join_order(
            plan, stats, plain_db.catalog.is_metadata_table
        )
        join = next(n for n in ordered.walk() if isinstance(n, Join))
        assert join.right.table_name == "M1"

    def test_actual_metadata_boundary_never_flipped(self, plain_db):
        """The metadata-first split that decompose cuts on must survive even
        when the actual side estimates smaller."""
        plan = push_down_selections(
            plain_db.bind_sql("SELECT A1.v FROM A1 JOIN M1 ON A1.k = M1.k")
        )
        stats = StatisticsCatalog(table_rows={"a1": 5, "m1": 10_000})
        ordered = cost_based_join_order(
            plan, stats, plain_db.catalog.is_metadata_table
        )
        join = next(n for n in ordered.walk() if isinstance(n, Join))
        assert join.left.table_name == "A1"

    def test_selectivity_shapes_the_estimate(self, plain_db):
        stats = StatisticsCatalog(table_rows={"m1": 1000})
        scan = push_down_selections(
            plain_db.bind_sql("SELECT v FROM M1 WHERE s = 'x'")
        )
        select = next(n for n in scan.walk() if isinstance(n, Select))
        assert stats.estimate_rows(select) == pytest.approx(100.0)
        ranged = plain_db.bind_sql("SELECT v FROM M1 WHERE v > 1.0")
        select = next(n for n in ranged.walk() if isinstance(n, Select))
        assert stats.estimate_rows(select) == pytest.approx(300.0)

    def test_reordered_results_identical(self, plain_db):
        plain_db.insert_rows("M1", [(1, 1.0, "x"), (2, 2.0, "y")])
        plain_db.insert_rows("M2", [(1, 5.0, "m"), (2, 6.0, "n")])
        sql = (
            "SELECT M1.s, M2.s FROM M1 JOIN M2 ON M1.k = M2.k "
            "ORDER BY M1.k"
        )
        plan = push_down_selections(plain_db.bind_sql(sql))
        stats = StatisticsCatalog(table_rows={"m1": 2, "m2": 2})
        ordered = cost_based_join_order(
            plan, stats, plain_db.catalog.is_metadata_table
        )
        assert (
            plain_db.execute_plan(plan).rows()
            == plain_db.execute_plan(ordered).rows()
        )


class TestStatisticsCatalog:
    def test_collects_row_counts_and_file_hulls(self, ali_db, tiny_repo):
        stats = collect_statistics(ali_db.catalog, file_table="F")
        assert stats.table_rows["f"] == len(tiny_repo.uris())
        assert set(stats.files) == set(tiny_repo.uris())
        for uri in tiny_repo.uris():
            lo, hi = stats.file_span(uri)
            assert lo < hi
            assert stats.file_bytes(uri) is not None

    def test_unknown_table_uses_default_rows(self):
        stats = StatisticsCatalog(table_rows={}, default_rows=42)
        scan = Scan("Nope", "n", [("n.k", DataType.INT64)])
        assert stats.estimate_rows(scan) == 42.0

    def test_missing_file_table_degrades_to_empty(self, plain_db):
        stats = collect_statistics(plain_db.catalog, file_table="F")
        assert stats.files == {}
        assert stats.file_span("anything") is None

    def test_executor_invalidates_on_metadata_reload(self, tiny_repo):
        executor = make_executor(tiny_repo)
        first = executor.statistics()
        assert executor.statistics() is first  # cached on batch identity
        table = executor.db.catalog.table("F")
        table.batch = table.batch.select(list(table.batch.names))
        assert executor.statistics() is not first


class TestFindTopNTarget:
    SCHEMA = [
        ("d.sample_time", DataType.TIMESTAMP),
        ("d.sample_value", DataType.FLOAT64),
    ]

    def _mount(self, uri, interval=None, interval_column=None, alias="d"):
        return Mount(
            uri=uri,
            table_name="D",
            alias=alias,
            output=list(self.SCHEMA),
            interval=interval,
            interval_column=interval_column,
        )

    def _key(self):
        return ColumnRef("d.sample_time", DataType.TIMESTAMP)

    def _target_plan(self, branches, count=5, ascending=False):
        union = UnionAll(branches, declared_output=list(self.SCHEMA))
        return TopN(union, [(self._key(), ascending)], count)

    def test_matches_canonical_shape(self):
        plan = self._target_plan([self._mount("a"), self._mount("b")])
        target = find_top_n_target(plan, "sample_time")
        assert target is not None
        assert target.key == "d.sample_time"
        assert target.ascending is False

    def test_transparent_nodes_allowed_between(self):
        union = UnionAll(
            [self._mount("a")], declared_output=list(self.SCHEMA)
        )
        inner = Select(
            union,
            Comparison(
                ">",
                self._key(),
                Literal(0, DataType.TIMESTAMP),
            ),
        )
        plan = TopN(inner, [(self._key(), True)], 3)
        assert find_top_n_target(plan, "sample_time") is not None

    def test_aggregate_between_rejected(self):
        union = UnionAll(
            [self._mount("a")], declared_output=list(self.SCHEMA)
        )
        agg = Aggregate(union, [("d.sample_time", self._key())], [])
        plan = TopN(agg, [(self._key(), True)], 3)
        assert find_top_n_target(plan, "sample_time") is None

    def test_wrong_primary_key_rejected(self):
        union = UnionAll(
            [self._mount("a")], declared_output=list(self.SCHEMA)
        )
        other = ColumnRef("d.sample_value", DataType.FLOAT64)
        plan = TopN(union, [(other, True)], 3)
        assert find_top_n_target(plan, "sample_time") is None

    def test_foreign_interval_column_rejected(self):
        plan = self._target_plan(
            [self._mount("a", interval=(0, 10), interval_column="other")]
        )
        assert find_top_n_target(plan, "sample_time") is None

    def test_zero_count_and_empty_union_rejected(self):
        assert (
            find_top_n_target(
                self._target_plan([self._mount("a")], count=0), "sample_time"
            )
            is None
        )
        assert (
            find_top_n_target(self._target_plan([]), "sample_time") is None
        )

    def test_branch_hulls_intersect_span_and_interval(self):
        union = UnionAll(
            [
                self._mount("a", interval=(5, 100), interval_column="sample_time"),
                self._mount("b"),
            ],
            declared_output=list(self.SCHEMA),
        )
        spans = {"a": (0, 50), "b": (10, 20)}
        assert branch_hulls(union, spans.get) == [(5, 50), (10, 20)]


class TestTopNBranchMonitor:
    def _monitor(self, hulls, count=2, ascending=False, **kwargs):
        return TopNBranchMonitor(
            count=count,
            ascending=ascending,
            key="d.t",
            hulls=hulls,
            **kwargs,
        )

    def _batch(self, values):
        return ColumnBatch(
            ["d.t"], [Column.from_pylist(DataType.TIMESTAMP, values)]
        )

    def test_schedule_most_promising_first(self):
        hulls = [(0, 10), (20, 30), (5, 40)]
        assert self._monitor(hulls, ascending=True).schedule(3) == [0, 2, 1]
        assert self._monitor(hulls, ascending=False).schedule(3) == [2, 1, 0]
        # Defensive identity when branch count mismatches the hulls.
        assert self._monitor(hulls).schedule(2) == [0, 1]

    def test_no_skip_before_heap_fills(self):
        monitor = self._monitor([(0, 10), (90, 99)], count=3, ascending=True)
        monitor.observe(0, self._batch([1, 2]))
        assert not monitor.should_skip(1)  # only 2 of 3 candidates seen

    def test_strictly_worse_hull_skipped_ties_kept(self):
        monitor = self._monitor(
            [(50, 90), (10, 40), (10, 41), (95, 99)], ascending=False
        )
        monitor.observe(0, self._batch([90, 41, 60]))  # threshold = 60
        assert monitor.should_skip(1)  # hi=40 < 60: provably worse
        assert not monitor.should_skip(2) or monitor.hulls[2][1] < 60
        assert not monitor.should_skip(3)  # hi=99 could beat 60
        # Tie with the threshold itself is never skipped.
        tied = self._monitor([(50, 90), (0, 60)], ascending=False)
        tied.observe(0, self._batch([90, 60]))
        assert not tied.should_skip(1)

    def test_empty_hull_always_skipped(self):
        monitor = self._monitor([(5, 90), (10, 4)], count=1, ascending=True)
        monitor.observe(0, self._batch([7]))
        assert monitor.should_skip(1)

    def test_on_skip_fires_once(self):
        fired = []
        monitor = self._monitor(
            [(50, 90), (10, 20)], ascending=False, on_skip=fired.append
        )
        monitor.observe(0, self._batch([90, 80]))
        assert monitor.should_skip(1) and monitor.should_skip(1)
        assert fired == [1]

    def test_safe_audit(self):
        monitor = self._monitor([(50, 90), (10, 20)], ascending=False)
        assert monitor.safe()  # no skips: trivially sound
        monitor.observe(0, self._batch([90, 80]))
        assert monitor.should_skip(1)
        key = ColumnRef("d.t", DataType.TIMESTAMP)
        # Full answer, skipped hull strictly below its worst row: sound.
        monitor.note_result(key, self._batch([90, 80]))
        assert monitor.safe()
        # Short answer: unsound, the skipped branch might have filled it.
        monitor.note_result(key, self._batch([90]))
        assert not monitor.safe()
        # Tied answer: unsound, tie order could have preferred the branch.
        monitor.note_result(key, self._batch([90, 20]))
        assert not monitor.safe()


class TestMountPoolRelease:
    """Release on the standalone query's mount pool: the one-tenant
    scheduler ``TwoStageExecutor.open_context`` builds, with its workers."""

    def test_release_serial_pool_never_extracts(self):
        tasks = keys(3)
        extract = RecordingExtract()
        with one_tenant(extract, 1) as pool:
            pool.prefetch(tasks)
            assert pool.release(*tasks[1]) is True
            for table_name, uri in (tasks[0], tasks[2]):
                pool.take(uri, table_name)
        assert extract.calls == [tasks[0][1], tasks[2][1]]

    def test_release_respects_single_flight_takers(self):
        """One of two takers renouncing must not cancel the other's take."""
        key = ("D", "shared.xseed")
        extract = RecordingExtract()
        with one_tenant(extract, 1) as pool:
            pool.prefetch([key, key])
            assert pool.release(*key) is False  # the other taker remains
            assert pool.take(key[1], key[0]).batch.num_rows == 1
        assert extract.calls == [key[1]]

    def test_release_unknown_key_is_noop(self):
        extract = RecordingExtract()
        with one_tenant(extract, 2) as pool:
            assert pool.release("D", "never-prefetched.xseed") is False
        assert extract.calls == []


class TestSharedPoolClientRelease:
    """``release`` is True only when it spared the extraction — the count
    ``MountStats.early_cancelled_mounts`` reports."""

    def _scheduler(self):
        return MountScheduler(
            lambda uri, table, request=None: (_ for _ in ()).throw(
                AssertionError(f"unexpected extraction of {uri}")
            ),
            policy=SchedulerPolicy(batch_window_seconds=0.0),
            workers=0,
        )

    def test_release_withdraws_interest(self):
        scheduler = self._scheduler()
        client = scheduler.client()
        client.prefetch([("D", "a.xseed", None)])
        assert client.release("D", "a.xseed") is True
        assert scheduler.stats.withdrawn == 1
        assert scheduler.peek_next() is None

    def test_release_keeps_interest_while_takes_remain(self):
        scheduler = self._scheduler()
        client = scheduler.client()
        client.prefetch([("D", "a.xseed", None), ("D", "a.xseed", None)])
        assert client.release("D", "a.xseed") is False
        assert scheduler.stats.withdrawn == 0
        assert scheduler.peek_next() == ("D", "a.xseed")

    def test_release_unknown_key_is_noop(self):
        client = self._scheduler().client()
        assert client.release("D", "never.xseed") is False

    def test_release_queued_task_cancels_extraction(self):
        blocked = [("D", "slow-a.xseed"), ("D", "slow-b.xseed")]
        doomed = ("D", "doomed.xseed")
        extract = RecordingExtract(block_uris={uri for _, uri in blocked})
        with one_tenant(extract, 2) as client:
            try:
                client.prefetch(blocked + [doomed])
                deadline = threading.Event()
                for _ in range(5000):
                    if len(extract.calls) >= 2:
                        break
                    deadline.wait(0.001)
                # Both workers are stuck; the third task is still pending.
                assert client.release(*doomed) is True
                extract.unblock.set()
                for table_name, uri in blocked:
                    client.take(uri, table_name)
            finally:
                extract.unblock.set()
        assert doomed[1] not in extract.calls

    def test_release_after_extraction_reports_false(self):
        tasks = keys(2)
        extract = RecordingExtract()
        with one_tenant(extract, 2) as client:
            client.prefetch(tasks)
            client.take(tasks[0][1], tasks[0][0])
            # Wait for the other worker to finish the second task too.
            for _ in range(5000):
                if len(extract.calls) == 2:
                    break
                threading.Event().wait(0.001)
            assert client.release(*tasks[1]) is False


class TestEndToEndEquivalence:
    def test_early_termination_skips_stale_branches(self, tiny_repo):
        """Latest-K descending: every day-010 file's hull is provably below
        the threshold once one day-011 file is in, so half the repository is
        never mounted — and the answer is unchanged."""
        executor = make_executor(tiny_repo)
        result = executor.execute(LATEST_SQL)
        stats = executor.mounts.stats
        assert stats.early_terminated_branches >= 1
        assert stats.early_cancelled_mounts >= 1
        assert stats.mounts < len(tiny_repo.uris())
        baseline = make_executor(tiny_repo, top_n_pushdown=False)
        assert result.rows == baseline.execute(LATEST_SQL).rows
        assert baseline.mounts.stats.early_terminated_branches == 0

    def test_early_termination_under_pooled_workers(self, tiny_repo):
        executor = make_executor(tiny_repo, mount_workers=4)
        result = executor.execute(LATEST_SQL)
        assert executor.mounts.stats.early_terminated_branches >= 1
        baseline = make_executor(tiny_repo, top_n_pushdown=False)
        assert result.rows == baseline.execute(LATEST_SQL).rows

    def test_ascending_limit_equivalence(self, tiny_repo):
        sql = LATEST_SQL.replace("DESC", "ASC")
        pushed = make_executor(tiny_repo).execute(sql).rows
        full = make_executor(tiny_repo, top_n_pushdown=False).execute(sql).rows
        assert pushed == full

    def test_covering_interval_mounts_whole_file(self, tiny_repo):
        """A pruning interval spanning a file's whole hull makes the seek
        ladder pure overhead: the span-aware service mounts it whole."""
        executor = make_executor(tiny_repo)
        sql = (
            "SELECT COUNT(*) AS n FROM F JOIN D ON F.uri = D.uri "
            "WHERE D.sample_time >= '2010-01-01T00:00:00.000' "
            "AND D.sample_time < '2010-02-01T00:00:00.000'"
        )
        result = executor.execute(sql)
        assert executor.mounts.stats.whole_file_requests > 0
        full = make_executor(tiny_repo, selective_mounts=False)
        assert result.rows == full.execute(sql).rows


@st.composite
def topn_case(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    primary = draw(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    )
    secondary = draw(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    ascending = [draw(st.booleans()), draw(st.booleans())]
    count = draw(st.integers(min_value=0, max_value=8))
    chunk_rows = draw(st.integers(min_value=1, max_value=7))
    return primary, secondary, ascending, count, chunk_rows


class TestTopNKernel:
    @settings(max_examples=200, deadline=None)
    @given(topn_case())
    def test_matches_full_sort_prefix(self, case):
        primary, secondary, ascending, count, chunk_rows = case
        columns = [
            Column.from_pylist(DataType.INT64, primary),
            Column.from_pylist(DataType.FLOAT64, secondary),
        ]
        expected = sort_indices(columns, ascending)[:count]
        actual = top_n_indices(
            columns, ascending, count, chunk_rows=chunk_rows
        )
        np.testing.assert_array_equal(actual, expected)

    def test_stable_ties_match_row_order(self):
        column = Column.from_pylist(DataType.INT64, [5, 1, 5, 1, 5])
        got = top_n_indices([column], [True], 3, chunk_rows=2)
        np.testing.assert_array_equal(got, [1, 3, 0])

    def test_count_beyond_input_returns_everything(self):
        column = Column.from_pylist(DataType.INT64, [3, 1, 2])
        got = top_n_indices([column], [True], 10)
        np.testing.assert_array_equal(got, [1, 2, 0])

    def test_invalid_arguments_rejected(self):
        column = Column.from_pylist(DataType.INT64, [1])
        with pytest.raises(ValueError):
            top_n_indices([], [True], 1)
        with pytest.raises(ValueError):
            top_n_indices([column], [True], -1)
        with pytest.raises(ValueError):
            top_n_indices([column], [True], 1, chunk_rows=0)
