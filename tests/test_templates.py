"""Compiled query templates: a query of a shape the executor compiled before
re-derives its literals in a copy of that compile, and gets exactly what a
fresh compile gives — the same decomposition, or the same error."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core import TwoStageExecutor
from repro.core.decompose import ActualScanInfo, Decomposition
from repro.core.templates import describe_difference
from repro.db import Database
from repro.db.errors import BindError, PlanError, TypeError_
from repro.db.expr import Expr, Literal
from repro.db.types import DataType
from repro.db.plan.logical import AggSpec, LogicalPlan
from repro.db.sql.lexer import shape_key, tokenize
from repro.explore.workload import make_query1, make_query2
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.obs import QueryTrace
from repro.serve import QueryService
from repro.testing.oracle import same_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import workloads  # noqa: E402

STATIONS = ["ISK", "ANK", "NOSUCH"]
CHANNELS = ["BHE", "BHZ"]
DAYS = ["2010-01-10", "2010-01-11", "2010-01-12"]
TIMES = [
    "2010-01-10T06:00:00",
    "2010-01-10T18:00:00.000",
    "2010-01-11T03:00:00.500000",
    "2010-01-11",
]
NOT_TIMES = ["not a time", "2010-13-45T00:00:00", ""]
INTS = [0, 1, 2, 7, 100, 9223372036854775807, 9223372036854775808]
FLOATS = [0.0, 0.5, 2.0, 1e300]


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - compared below
        return exc


def _fresh(db, tiny_repo, sql):
    """A fresh compile: a new executor keeps no template."""
    return _outcome(TwoStageExecutor(db, RepositoryBinding(tiny_repo)).prepare, sql)


def _keep(executor, sql):
    """Prepare ``sql`` twice: a shape is kept from its second query on."""
    _outcome(executor.prepare, sql)
    return _outcome(executor.prepare, sql)


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    assert describe_difference(got, want) is None


# -- the shapes the property draws ----------------------------------------------


def _number():
    return st.sampled_from(INTS) | st.sampled_from(FLOATS)


@st.composite
def query1(draw):
    return make_query1(
        draw(st.sampled_from(STATIONS)), draw(st.sampled_from(CHANNELS)),
        draw(st.sampled_from(DAYS)),
        draw(st.sampled_from(TIMES)), draw(st.sampled_from(TIMES)),
    )


@st.composite
def query2(draw):
    return make_query2(
        draw(st.sampled_from(STATIONS)), draw(st.sampled_from(DAYS)),
        draw(st.sampled_from(TIMES)), draw(st.sampled_from(TIMES)),
    )


@st.composite
def limit(draw):
    return (
        "SELECT D.sample_time, D.sample_value FROM F JOIN D ON F.uri = D.uri "
        f"WHERE F.station = '{draw(st.sampled_from(STATIONS))}' "
        f"ORDER BY D.sample_time LIMIT {draw(st.sampled_from([0, 1, 5]))}"
    )


@st.composite
def negative(draw):
    minus = draw(st.sampled_from(["-", "- -", ""]))
    return (
        f"SELECT COUNT(*) FROM R WHERE R.nsamples > -{draw(_number())} "
        f"AND R.record_id < {minus}{draw(_number())}"
    )


@st.composite
def int_against_float(draw):
    return (
        f"SELECT abs(F.size_bytes * {draw(_number())}) AS s FROM F "
        f"WHERE F.nrecords >= {draw(_number())}"
    )


@st.composite
def timestamps(draw):
    strings = st.sampled_from(TIMES) | st.sampled_from(NOT_TIMES)
    return (
        f"SELECT COUNT(*) FROM R WHERE R.start_time > '{draw(strings)}' "
        f"AND R.start_time < '{draw(strings)}'"
    )


@st.composite
def in_and_between(draw):
    stations = ", ".join(
        f"'{s}'" for s in draw(st.lists(st.sampled_from(STATIONS),
                                        min_size=2, max_size=2))
    )
    return (
        f"SELECT COUNT(*) FROM F WHERE F.station IN ({stations}) AND "
        f"F.start_time BETWEEN '{draw(st.sampled_from(TIMES))}' "
        f"AND '{draw(st.sampled_from(TIMES))}'"
    )


@st.composite
def group_by(draw):
    return (
        f"SELECT F.size_bytes + {draw(st.sampled_from([1, 2, 1.0]))} AS s, "
        f"COUNT(*) AS n FROM F GROUP BY F.size_bytes + "
        f"{draw(st.sampled_from([1, 2, 1.0]))}"
    )


@st.composite
def duplicate_aggregates(draw):
    signs = [draw(st.sampled_from(["", "-"])) for _ in range(2)]
    a, b = (draw(st.sampled_from([0, 2, 3, 2.0])) for _ in range(2))
    return (
        f"SELECT SUM(R.nsamples * {signs[0]}{a}), "
        f"SUM(R.nsamples * {signs[1]}{b}) FROM R"
    )


SHAPES = [
    query1(), query2(), limit(), negative(), int_against_float(),
    timestamps(), in_and_between(), group_by(), duplicate_aggregates(),
]


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_hit_is_what_a_fresh_compile_is(data, ali_db, tiny_repo):
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    first, second = data.draw(shape, label="first"), data.draw(shape, label="second")
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    kept = not isinstance(_keep(executor, first), Exception)
    trace = QueryTrace()
    got = _outcome(executor.prepare, second, trace)
    want = _fresh(ali_db, tiny_repo, second)
    _assert_same(got, want)
    same = shape_key(tokenize(first)) == shape_key(tokenize(second))
    if kept and same and not isinstance(want, Exception):
        assert trace.counters["template_hits"] == 1
        event("a hit")
    elif kept and same:
        event("a hit whose literals raise: compiled in full")
    else:
        assert trace.counters["template_hits"] == 0
        event("a miss")


NODES = (LogicalPlan, Expr, AggSpec, Decomposition, ActualScanInfo)


def _objects(decomposition):
    """Every node, expression and list of a decomposition, by id."""
    found = {}

    def walk(value):
        if isinstance(value, (list, tuple)):
            if isinstance(value, list):
                found[id(value)] = value
            for item in value:
                walk(item)
        elif isinstance(value, NODES) and id(value) not in found:
            found[id(value)] = value
            for item in vars(value).values():
                walk(item)

    walk(decomposition)
    return found


def test_queries_of_one_shape_share_nothing_mutable(ali_db, tiny_repo, query1):
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    trace = QueryTrace()
    # A first sight, the compile that is kept, two hits.
    queries = [executor.prepare(query1, trace) for _ in range(4)]
    assert trace.counters == {"template_misses": 2, "template_hits": 2}
    seen = [_objects(d) for d in queries]
    for a in range(4):
        for b in range(a + 1, 4):
            shared = seen[a].keys() & seen[b].keys()
            assert not shared, [type(seen[a][k]).__name__ for k in shared]
    # What the query whose compile was kept does to its plan reaches no hit.
    kept = queries[1]
    kept.plan.output.append(("x.y", kept.plan.output[0][1]))
    kept.actual_scans[0].scan.alias = "mutated"
    later = executor.prepare(query1)
    assert describe_difference(later, queries[2]) is None
    for decomposition in (*queries[2:], later):
        # Qf is the marked subtree of the plan, actual scans nodes of Qs.
        assert any(node is decomposition.qf for node in decomposition.plan.walk())
        qs_nodes = list(decomposition.qs.walk())
        assert all(
            any(node is info.scan for node in qs_nodes)
            for info in decomposition.actual_scans
        )


def test_true_and_false_join_the_equality_classes():
    """``ELiteral(True) == ELiteral(1)``: whether a 1 equals a TRUE elsewhere
    in the query is part of its shape."""

    def key(value):
        return shape_key(tokenize(f"SELECT x FROM F WHERE y = TRUE AND z = {value}"))

    assert key(1) != key(2) == key(3)


def test_a_plan_value_of_an_unknown_type_is_not_kept(ali_db, tiny_repo, query1):
    from repro.core.templates import Template

    decomposition = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo)
    ).prepare(query1)
    decomposition.plan.hints = {"mutable": "shared"}
    with pytest.raises(TypeError, match="dict cannot be kept"):
        Template(decomposition)


def test_describe_difference_names_what_differs(ali_db, tiny_repo, query1, query2):
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    want = executor.prepare(query1)
    assert describe_difference(executor.prepare(query1), want) is None
    assert describe_difference(executor.prepare(query2), want).startswith(
        "plans differ"
    )
    flipped = executor.prepare(query1)
    flipped.metadata_only = not flipped.metadata_only
    assert describe_difference(flipped, want) == "metadata_only differs"
    unlinked = executor.prepare(query1)
    unlinked.actual_scans[0].link_key = None
    assert describe_difference(unlinked, want).startswith("actual scans differ")
    retyped = executor.prepare(query1)
    [literal, *_] = [
        n for n in _objects(retyped).values()
        if isinstance(n, Literal) and n.dtype is DataType.TIMESTAMP
    ]
    object.__setattr__(literal, "dtype", DataType.INT64)  # prints alike
    assert describe_difference(retyped, want).startswith("literals differ")


def test_verification_refuses_a_hit_that_is_not_a_fresh_compile(
    monkeypatch, tiny_repo, query1
):
    from repro.core import templates

    db = Database(verify_plans=True)
    lazy_ingest_metadata(db, tiny_repo)
    executor = TwoStageExecutor(db, RepositoryBinding(tiny_repo))
    _keep(executor, query1)
    rebind = templates.rebind_literal

    def off_by_one_day(source, value):
        literal = rebind(source, value)
        if literal.dtype is not DataType.TIMESTAMP:
            return literal
        return Literal(literal.value + 86_400_000_000, literal.dtype, source)

    monkeypatch.setattr(templates, "rebind_literal", off_by_one_day)
    with pytest.raises(PlanError, match="disagrees with a fresh one"):
        executor.prepare(query1)


# -- the errors a hit raises ----------------------------------------------------

BIG = "SELECT COUNT(*) FROM F WHERE F.size_bytes > {}"


@pytest.mark.parametrize("value", ["9223372036854775808", "- - 9223372036854775808"])
def test_an_integer_outside_int64_is_a_type_error(
    value, ei_db, ali_db, tiny_repo
):
    with pytest.raises(TypeError_, match="outside the int64 range"):
        ei_db.execute(BIG.format(value))
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    with pytest.raises(TypeError_, match="outside the int64 range"):
        executor.execute(BIG.format(value))
    # A hit raises what the fresh compile above raised.
    _keep(executor, BIG.format("5" if value[0] == "9" else "- - 5"))
    with pytest.raises(TypeError_, match="outside the int64 range") as raised:
        executor.prepare(BIG.format(value))
    fresh = _fresh(ali_db, tiny_repo, BIG.format(value))
    assert str(raised.value) == str(fresh)


def test_the_int64_bounds_bind(ei_db):
    low = ei_db.execute(BIG.format("-9223372036854775808")).scalar()
    high = ei_db.execute(BIG.format("9223372036854775807")).scalar()
    assert (low, high) == (ei_db.execute("SELECT COUNT(*) FROM F").scalar(), 0)


def test_a_group_by_that_stops_matching_raises_on_a_hit(ali_db, tiny_repo):
    sql = (
        "SELECT F.size_bytes + {} AS s, COUNT(*) AS n FROM F "
        "GROUP BY F.size_bytes + {}"
    )
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    _keep(executor, sql.format(1, 1))
    trace = QueryTrace()
    executor.prepare(sql.format(2, 2), trace)
    assert trace.counters["template_hits"] == 1
    with pytest.raises(BindError):
        executor.prepare(sql.format(1, 2))


@pytest.mark.parametrize("first, second, aggregates", [
    (("2", "2"), ("3", "3"), 1),
    (("2", "3"), ("3", "2"), 2),
    # -0 and 0 bind to equal literals, -2 and 2 do not: the ASTs differ, so
    # the aggregates stay apart whatever the values.
    (("-0", "0"), ("-2", "2"), 2),
])
def test_aggregates_merge_as_their_literals_compare(
    first, second, aggregates, ali_db, tiny_repo
):
    sql = "SELECT SUM(R.nsamples * {}), SUM(R.nsamples * {}) FROM R"
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    _keep(executor, sql.format(*first))
    trace = QueryTrace()
    got = executor.prepare(sql.format(*second), trace)
    assert trace.counters["template_hits"] == 1
    _assert_same(got, _fresh(ali_db, tiny_repo, sql.format(*second)))
    [aggregate] = [n for n in got.plan.walk() if type(n).__name__ == "Aggregate"]
    assert len(aggregate.aggs) == aggregates


# -- the four workloads' ops ------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 43])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_op_compiles_as_fresh(name, seed, ali_db, tiny_repo):
    """Every op of a workload through one engine equals a fresh compile;
    after the first two ops of a shape every op is a hit."""
    workload = workloads.WORKLOADS[name]
    ops = workload.make_ops(seed, sum(workload.op_counts(15, False)))
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    trace = QueryTrace()
    for sql in ops:
        _assert_same(executor.prepare(sql, trace), _fresh(ali_db, tiny_repo, sql))
    shapes = Counter(shape_key(tokenize(sql)) for sql in ops)
    misses = sum(min(2, n) for n in shapes.values())
    assert len(shapes) <= 2
    assert trace.counters["template_misses"] == misses
    assert trace.counters["template_hits"] == len(ops) - misses


# -- when the kept compiles go ----------------------------------------------------


def test_a_metadata_reload_empties_the_templates(fresh_ali_db, tiny_repo, query1):
    executor = TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo))
    _keep(executor, query1)
    files = fresh_ali_db.catalog.table("F")
    files.replace(files.batch.slice(0, files.num_rows))  # a new F batch
    trace = QueryTrace()
    for _ in range(3):
        executor.prepare(query1, trace)
    assert trace.counters == {"template_misses": 2, "template_hits": 1}


def test_a_new_table_empties_the_templates(fresh_ali_db, tiny_repo, query1):
    from repro.db import ColumnDef, DataType, TableSchema

    executor = TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo))
    _keep(executor, query1)
    fresh_ali_db.create_table(TableSchema("X", [ColumnDef("a", DataType.INT64)]))
    trace = QueryTrace()
    executor.prepare(query1, trace)
    assert trace.counters == {"template_misses": 1}


def test_the_least_recently_used_shape_goes(
    monkeypatch, ali_db, tiny_repo, query1, query2
):
    from repro.core import executor as executor_module

    monkeypatch.setattr(executor_module, "TEMPLATE_CAPACITY", 1)
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    trace = QueryTrace()
    for sql in (query1, query1, query1, query2, query1):
        executor.prepare(sql, trace)
    # query2's first sight pushed query1's template out.
    assert trace.counters == {"template_misses": 4, "template_hits": 1}
    assert len(executor._templates) == 1


def test_a_new_executor_starts_empty(ali_db, tiny_repo, query1):
    """Each of first_answer's ops builds a new executor: every one a miss."""
    for _ in range(2):
        trace = QueryTrace()
        TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo)).prepare(query1, trace)
        assert trace.counters == {"template_misses": 1}


def test_the_reference_path_compiles_every_query(ei_db, query1):
    """Database.execute, what eager ingestion answers with, keeps nothing."""
    from repro.db.plan import binder

    calls = []
    original = binder.Binder.bind

    def counted(self, stmt):
        calls.append(stmt)
        return original(self, stmt)

    binder.Binder.bind = counted
    try:
        ei_db.execute(query1)
        ei_db.execute(query1)
    finally:
        binder.Binder.bind = original
    assert len(calls) == 2


# -- two tenants compile one shape at once ------------------------------------------


@pytest.mark.locktrace
def test_two_tenants_compile_one_shape_at_once(tiny_repo, ei_db):
    """Both tenants of one service miss on the same shape together — both
    compile, neither under the cache's lock — and both answer right; the
    next query of the shape is kept, and the one after is a hit."""
    db = Database()
    lazy_ingest_metadata(db, tiny_repo)
    queries = [
        make_query1("ISK", "BHZ", "2010-01-10",
                    "2010-01-10T06:00:00", "2010-01-10T07:00:00"),
        make_query1("ANK", "BHE", "2010-01-11",
                    "2010-01-11T03:00:00", "2010-01-11T03:30:00"),
    ]
    with QueryService(tiny_repo, db=db, mount_workers=2) as service:
        service.start()
        executor = service._executor
        together = threading.Barrier(2, timeout=10)
        compile_ = executor._compile

        def compile_together(*args):
            together.wait()
            return compile_(*args)

        executor._compile = compile_together
        futures = [
            service.client(f"t{i}").submit(sql) for i, sql in enumerate(queries)
        ]
        outcomes = [future.result(timeout=60) for future in futures]
        executor._compile = compile_
        for outcome, sql in zip(outcomes, queries):
            assert outcome.trace.counters["template_misses"] == 1
            want = ei_db.execute(sql)
            same_rows(outcome.rows, want.rows(), want.names, ordered=False)
        kept = service.execute(queries[0], tenant="t0")
        assert kept.trace.counters["template_misses"] == 1
        again = service.execute(queries[0], tenant="t1")
        assert again.trace.counters["template_hits"] == 1
        assert again.rows == kept.rows == outcomes[0].rows
