"""The plan verifier: rejects hand-built invalid plans, passes real ones.

Covers the acceptance criteria of the static-analysis layer: unresolved
columns, type drift, union-branch schema mismatches, metadata-only
violations in ``Qf``, result-scan arity errors — each raising
:class:`PlanInvariantError` naming the offending pass — plus the
whole-pipeline checks (EXPERIMENTS workload queries verify cleanly, and
results are identical with verification on and off).
"""

from __future__ import annotations

import pytest

from repro.core import TwoStageExecutor
from repro.core.decompose import QF_TAG, Decomposition
from repro.core.verify import verify_ali_rewrite, verify_decomposition
from repro.db import Database, PlanInvariantError
from repro.db.expr import ColumnRef, Comparison, Literal
from repro.db.plan import verify as plan_verify
from repro.db.plan.logical import (
    Join,
    Mount,
    Project,
    ResultScan,
    Scan,
    Select,
    UnionAll,
)
from repro.db.plan.verify import (
    verify_enabled_default,
    verify_pass,
    verify_physical,
    verify_plan,
)
from repro.db.plan.physical import PResultScan, PTableScan
from repro.db.types import DataType
from repro.ingest import RepositoryBinding
from repro.testing.oracle import ConfigPoint, run, verdicts

from conftest import QUERY1, QUERY2

STR = DataType.STRING
I64 = DataType.INT64


def _scan(alias: str = "f", cols: list | None = None) -> Scan:
    cols = cols or [(f"{alias}.uri", STR), (f"{alias}.station", STR)]
    return Scan("F", alias, cols)


def _eq(key: str, value: str, dtype: DataType = STR) -> Comparison:
    return Comparison("=", ColumnRef(key, dtype), Literal(value, dtype))


# -- hand-built invalid plans --------------------------------------------------


def test_unresolved_column_rejected():
    plan = Select(_scan(), _eq("f.channel", "BHE"))
    with pytest.raises(PlanInvariantError) as err:
        verify_plan(plan, "push-down-selections")
    assert err.value.pass_name == "push-down-selections"
    assert "f.channel" in str(err.value)
    assert "push-down-selections" in str(err.value)


def test_column_type_drift_rejected():
    # The predicate believes f.station is INT64; the schema says STRING.
    plan = Select(
        _scan(),
        Comparison("=", ColumnRef("f.station", I64), Literal(1, I64)),
    )
    with pytest.raises(PlanInvariantError, match="int64"):
        verify_plan(plan, "bind")


def test_union_branch_schema_mismatch_rejected():
    narrow = Scan("F", "f", [("f.uri", STR)])
    wide = Scan("F", "f", [("f.uri", STR), ("f.station", STR)])
    union = UnionAll([narrow, wide], declared_output=[("f.uri", STR)])
    with pytest.raises(PlanInvariantError, match="union branch 1"):
        verify_plan(union, "ali-rewrite")


def test_union_branch_dtype_mismatch_rejected():
    a = Scan("F", "f", [("f.uri", STR)])
    b = Scan("F", "f", [("f.uri", I64)])
    union = UnionAll([a, b], declared_output=[("f.uri", STR)])
    with pytest.raises(PlanInvariantError, match="drifted"):
        verify_plan(union, "ali-rewrite")


def test_duplicate_join_keys_rejected():
    left = _scan("f")
    right = _scan("f")  # same alias on both sides → duplicate keys
    with pytest.raises(PlanInvariantError, match="duplicate output key"):
        verify_plan(Join(left, right, None), "bind")


def test_mount_predicate_outside_alias_rejected():
    mount = Mount(
        uri="2010/x.xseed",
        table_name="D",
        alias="d",
        output=[("d.sample_value", DataType.FLOAT64)],
        predicate=_eq("r.uri", "2010/x.xseed"),
    )
    with pytest.raises(PlanInvariantError, match="outside"):
        verify_plan(mount, "ali-rewrite")


def _timed_mount(interval, interval_column="sample_time"):
    """A Mount whose fused predicate bounds d.sample_time to [100, 500]."""
    time_ref = ColumnRef("d.sample_time", DataType.TIMESTAMP)
    predicate = Comparison(
        ">=", time_ref, Literal(100, DataType.TIMESTAMP)
    )
    upper = Comparison("<=", time_ref, Literal(500, DataType.TIMESTAMP))
    from repro.db.expr import BoolOp

    return Mount(
        uri="2010/x.xseed",
        table_name="D",
        alias="d",
        output=[
            ("d.sample_time", DataType.TIMESTAMP),
            ("d.sample_value", DataType.FLOAT64),
        ],
        predicate=BoolOp("and", [predicate, upper]),
        interval=interval,
        interval_column=interval_column,
    )


def test_mount_interval_narrower_than_hull_rejected():
    """The pruning interval must cover the fused predicate's hull: a
    narrower one would let extraction skip records the predicate selects."""
    with pytest.raises(PlanInvariantError, match="narrower"):
        verify_plan(_timed_mount((200, 500)), "ali-rewrite")
    with pytest.raises(PlanInvariantError, match="narrower"):
        verify_plan(_timed_mount((100, 400)), "ali-rewrite")


def test_mount_interval_covering_hull_accepted():
    verify_plan(_timed_mount((100, 500)), "ali-rewrite")
    verify_plan(_timed_mount((0, 1000)), "ali-rewrite")  # wider is safe


def test_mount_interval_without_column_rejected():
    with pytest.raises(PlanInvariantError, match="interval_column"):
        verify_plan(_timed_mount((100, 500), interval_column=None),
                    "ali-rewrite")


def test_pass_schema_change_rejected():
    before = _scan("f")
    after = Scan("F", "f", [("f.uri", STR)])  # dropped a column
    with pytest.raises(PlanInvariantError, match="output schema"):
        verify_pass(before, after, "prune-columns")


def test_verify_pass_allows_reordered_columns():
    before = _scan("f")
    after = Scan("F", "f", [("f.station", STR), ("f.uri", STR)])
    assert verify_pass(before, after, "metadata-first-join-order") is after


def test_physical_output_mismatch_rejected():
    logical = _scan("f")
    physical = PTableScan("F", "f", [("uri", "f.uri", STR)])
    with pytest.raises(PlanInvariantError, match="physical plan produces"):
        verify_physical(physical, logical)


def test_physical_matching_output_accepted():
    logical = Scan("F", "f", [("f.uri", STR)])
    physical = PTableScan("F", "f", [("uri", "f.uri", STR)])
    assert verify_physical(physical, logical) is physical


# -- decomposition invariants --------------------------------------------------


def _classify(table_name: str) -> bool:
    return table_name.upper() in ("F", "R")


def test_qf_with_actual_scan_rejected():
    qf = Scan("D", "d", [("d.uri", STR)])  # D is actual data
    qs = ResultScan(QF_TAG, [("d.uri", STR)])
    decomposition = Decomposition(
        plan=qs, qf=qf, qs=qs, metadata_only=False
    )
    with pytest.raises(PlanInvariantError) as err:
        verify_decomposition(decomposition, _classify)
    assert err.value.pass_name == "decompose"
    assert "metadata" in str(err.value)


def test_result_scan_arity_mismatch_rejected():
    qf = _scan("f")  # produces 2 columns
    qs = ResultScan(QF_TAG, [("f.uri", STR)])  # expects only 1
    decomposition = Decomposition(
        plan=qs, qf=qf, qs=qs, metadata_only=False
    )
    with pytest.raises(PlanInvariantError, match="result-scan arity"):
        verify_decomposition(decomposition, _classify)


def test_qs_ignoring_stage1_result_rejected():
    qf = _scan("f")
    qs = Scan("D", "d", [("d.uri", STR)])  # never reads the qf result
    decomposition = Decomposition(
        plan=qs, qf=qf, qs=qs, metadata_only=False
    )
    with pytest.raises(PlanInvariantError, match="never reads"):
        verify_decomposition(decomposition, _classify)


def test_metadata_only_with_stage2_rejected():
    qf = _scan("f")
    decomposition = Decomposition(
        plan=qf, qf=qf, qs=qf, metadata_only=True
    )
    with pytest.raises(PlanInvariantError, match="metadata-only"):
        verify_decomposition(decomposition, _classify)


def test_valid_decomposition_accepted(executor):
    decomposition = executor.prepare(QUERY1)
    assert (
        verify_decomposition(
            decomposition, executor.db.catalog.is_metadata_table
        )
        is decomposition
    )


def test_ali_rewrite_schema_change_rejected():
    scan = Scan("D", "d", [("d.uri", STR), ("d.sample_value", DataType.FLOAT64)])
    rewritten = UnionAll([], declared_output=[("d.uri", STR)])
    with pytest.raises(PlanInvariantError, match="rule"):
        verify_ali_rewrite(scan, rewritten)


def test_empty_union_with_declared_output_accepted():
    scan = Scan("D", "d", [("d.uri", STR)])
    rewritten = UnionAll([], declared_output=[("d.uri", STR)])
    assert verify_ali_rewrite(scan, rewritten) is rewritten


# -- env flag plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [("1", True), ("true", True), ("on", True),
     ("", False), ("0", False), ("false", False), ("off", False)],
)
def test_env_flag_parsing(monkeypatch, value, expected):
    monkeypatch.setenv(plan_verify.ENV_FLAG, value)
    assert verify_enabled_default() is expected


def test_env_flag_sets_database_default(monkeypatch):
    monkeypatch.setenv(plan_verify.ENV_FLAG, "1")
    assert Database().verify_plans is True
    monkeypatch.delenv(plan_verify.ENV_FLAG)
    assert Database().verify_plans is False
    assert Database(verify_plans=True).verify_plans is True


def test_executor_inherits_database_setting(ali_db, tiny_repo):
    db = Database(verify_plans=True)
    # fresh db has no metadata; only checking flag plumbing here
    executor = TwoStageExecutor(db, RepositoryBinding(tiny_repo))
    assert executor.verify_plans is True
    executor_off = TwoStageExecutor(
        db, RepositoryBinding(tiny_repo), verify_plans=False
    )
    assert executor_off.verify_plans is False


# -- whole-pipeline checks -----------------------------------------------------


METADATA_QUERY = (
    "SELECT F.station, COUNT(*) AS files FROM F "
    "GROUP BY F.station ORDER BY F.station"
)


@pytest.mark.parametrize("sql", [QUERY1, QUERY2, METADATA_QUERY])
def test_workload_verifies_cleanly(ali_db, tiny_repo, sql):
    executor = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo), verify_plans=True
    )
    outcome = executor.execute(sql)
    assert outcome.result.num_rows >= 1


@pytest.mark.parametrize("sql", [QUERY1, QUERY2, METADATA_QUERY])
def test_results_identical_with_verification(reference, tmp_path, sql):
    point = ConfigPoint(verify_plans=True)
    assert verdicts(run(reference, [sql], tmp_path, point)) == ["rows"]


def test_ei_pipeline_verifies_cleanly(tiny_repo):
    from repro.ingest import eager_ingest

    db = Database(verify_plans=True)
    eager_ingest(db, tiny_repo)
    result = db.execute(QUERY1)
    assert result.num_rows == 1


def test_binder_output_verifies(ali_db):
    plan = ali_db.bind_sql(QUERY2)
    assert verify_plan(plan, "bind") is plan
    assert isinstance(plan, (Project, type(plan)))


# -- property test: random workload queries are verifier-clean ----------------


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_HOUR_US = 3_600 * 1_000_000
_DAY0 = "2010-01-10T00:00:00.000"


def _window(day: int, start_hour: int, length_hours: int) -> tuple[str, str]:
    from repro.db.types import format_timestamp, parse_timestamp

    base = parse_timestamp(_DAY0) + day * 24 * _HOUR_US
    lo = base + start_hour * _HOUR_US
    hi = lo + length_hours * _HOUR_US
    return format_timestamp(lo), format_timestamp(hi)


@st.composite
def random_queries(draw):
    station = draw(st.sampled_from(["ISK", "ANK"]))
    channel = draw(st.sampled_from(["BHE", "BHZ", None]))
    agg = draw(st.sampled_from(["AVG", "SUM", "COUNT", "MIN", "MAX", None]))
    day = draw(st.integers(min_value=0, max_value=1))
    start_hour = draw(st.integers(min_value=0, max_value=20))
    length = draw(st.integers(min_value=1, max_value=3))
    lo, hi = _window(day, start_hour, length)
    channel_pred = f"AND F.channel = '{channel}' " if channel else ""
    select = (
        f"{agg}(D.sample_value) AS v" if agg else "D.sample_time, D.sample_value"
    )
    return (
        f"SELECT {select} "
        "FROM F JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
        f"WHERE F.station = '{station}' {channel_pred}"
        f"AND D.sample_time > '{lo}' AND D.sample_time < '{hi}'"
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sql=random_queries())
def test_random_join_queries_verify_and_agree(ali_db, tiny_repo, sql):
    """Random metadata/actual joins: verifier-clean at every pass, and the
    answer does not depend on whether verification runs."""
    on = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo), verify_plans=True
    ).execute(sql)
    off = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo), verify_plans=False
    ).execute(sql)
    assert on.result.rows() == off.result.rows()
    assert on.result.names == off.result.names
