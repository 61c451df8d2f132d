"""The reproduction's central invariant, as a property-based test.

For *any* query in the supported surface, two-stage execution with automated
lazy ingestion must return exactly the same answer as a conventional
database that eagerly loaded the whole repository — under every cache policy
and execution strategy. Hypothesis generates queries from a constrained
grammar over the seismic schema.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    CacheGranularity,
    CachePolicy,
    IngestionCache,
    PER_FILE,
    TwoStageExecutor,
)
from repro.ingest import RepositoryBinding


STATIONS = ["ISK", "ANK", "NOSUCH"]
CHANNELS = ["BHE", "BHZ"]
# Time anchors inside (and slightly outside) the tiny repository's 2 days.
TIMES = [
    "2010-01-09T00:00:00",
    "2010-01-10T06:00:00",
    "2010-01-10T18:00:00",
    "2010-01-11T03:00:00",
    "2010-01-11T21:00:00",
    "2010-01-13T00:00:00",
]

aggregates = st.sampled_from([
    "AVG(D.sample_value)",
    "SUM(D.sample_value)",
    "COUNT(*)",
    "MIN(D.sample_value)",
    "MAX(D.sample_value)",
])


@st.composite
def seismic_queries(draw):
    """A random query over F ⋈ (R ⋈)? D with optional predicates."""
    use_r = draw(st.booleans())
    predicates = []
    station = draw(st.sampled_from(STATIONS + [None]))
    if station:
        predicates.append(f"F.station = '{station}'")
    channel = draw(st.sampled_from(CHANNELS + [None]))
    if channel:
        predicates.append(f"F.channel = '{channel}'")
    t0, t1 = sorted(draw(st.tuples(st.sampled_from(TIMES), st.sampled_from(TIMES))))
    if draw(st.booleans()):
        predicates.append(f"D.sample_time > '{t0}'")
        predicates.append(f"D.sample_time < '{t1}'")
    if draw(st.booleans()):
        predicates.append(
            f"D.sample_value > {draw(st.sampled_from([-1000.0, 0.0, 500.0]))}"
        )
    if use_r and draw(st.booleans()):
        predicates.append(f"R.record_id = {draw(st.integers(0, 5))}")

    joins = "F JOIN D ON F.uri = D.uri"
    if use_r:
        joins = (
            "F JOIN R ON F.uri = R.uri "
            "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id"
        )

    grouped = draw(st.booleans())
    if grouped:
        agg = draw(aggregates)
        select = f"F.channel, {agg} AS a"
        tail = " GROUP BY F.channel ORDER BY F.channel"
    elif draw(st.booleans()):
        select = draw(aggregates)
        tail = ""
    else:
        select = "D.sample_time, D.sample_value"
        limit = draw(st.integers(1, 50))
        tail = f" ORDER BY D.sample_value DESC, D.sample_time LIMIT {limit}"

    where = f" WHERE {' AND '.join(predicates)}" if predicates else ""
    return f"SELECT {select} FROM {joins}{where}{tail}"


def normalize(rows):
    out = []
    for row in rows:
        canon = []
        for value in row:
            if isinstance(value, float):
                canon.append("nan" if math.isnan(value) else round(value, 6))
            else:
                canon.append(value)
        out.append(tuple(canon))
    return sorted(out)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=seismic_queries(), data=st.data())
def test_two_stage_equals_eager(sql, data, ei_db, ali_db, tiny_repo):
    cache = data.draw(
        st.sampled_from([
            IngestionCache(CachePolicy.DISCARD),
            IngestionCache(CachePolicy.UNBOUNDED),
            IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
        ])
    )
    strategy = data.draw(st.sampled_from(["bulk", PER_FILE]))
    executor = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo), cache=cache, strategy=strategy
    )
    expected = ei_db.execute(sql).rows()
    got = executor.execute(sql).rows
    assert normalize(got) == normalize(expected), sql


@settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=seismic_queries())
def test_no_dangling_state_after_queries(sql, ali_db, tiny_repo):
    """Mount transparency: with the paper's discard policy, executing any
    query leaves the database exactly as it was (D empty, no cache), and
    no mount thread behind."""
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    executor.execute(sql)
    assert ali_db.catalog.table("D").num_rows == 0
    assert len(executor.cache) == 0
