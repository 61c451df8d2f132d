"""The differential oracle's two legs (see :mod:`repro.testing.oracle`).

* Engine leg — a sequence of 3–5 queries (7 in the outage region) × a
  ``ConfigPoint`` × a ``FaultScript``, every answer judged against eager
  ingestion; an answer from a kept compile (a template hit) is judged
  against sqlite too.
* Engine-independent leg — ``repro.db.Database`` against stdlib ``sqlite3``
  over the seismic tables and two wide-key tables.

Both run derandomized with one fixed example budget; run with
``--hypothesis-show-statistics`` to see which verdict clauses and rare paths
the examples reached. A new configuration axis is a field of
``ConfigPoint`` plus a line in :func:`config_points` — never a new grid.
"""

from __future__ import annotations

import re
import tempfile
from dataclasses import replace

import pytest
from hypothesis import (
    HealthCheck, Phase, assume, event, given, settings, strategies as st,
)

from repro.core import BULK, FAIL_FAST, PER_FILE, SKIP_AND_REPORT
from repro.db.types import format_timestamp, parse_timestamp
from repro.testing.faults import (
    CONNECTION_REFUSED,
    NETWORK_KINDS,
    SHORT_READ,
    TRANSIENT_OSERROR,
)
from repro.testing.oracle import (
    CACHES,
    METASTORES,
    SOURCES,
    WIDE_KEYS,
    ConfigPoint,
    FaultScript,
    fault_plan,
    run,
    sqlite_agrees,
    verdicts,
)

from conftest import CSV_RATE, CSV_SAMPLES, CSV_START, TINY_SPEC

pytestmark = pytest.mark.locktrace

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
AGGREGATES = [
    "MIN(D.sample_time)",
    "COUNT(*)",
    "MAX(D.record_id)",
    "AVG(D.sample_value)",
    "MIN(D.record_id)",
    "SUM(D.sample_value)",
    "MAX(D.sample_time)",
    "SUM(D.record_id)",
    "MIN(D.sample_value)",
    "MAX(D.sample_value)",
    "SUM(D.sample_time)",
]
JOINS = {
    "D": "D",
    "F D": "F JOIN D ON F.uri = D.uri",
    "F R D": (
        "F JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id"
    ),
    "R D": "R JOIN D ON R.uri = D.uri AND R.record_id = D.record_id",
}
SUBQUERIES = [
    "D.record_id IN (SELECT R.record_id FROM R WHERE R.nsamples < 1000)",
    "D.uri IN (SELECT F.uri FROM F WHERE F.channel = 'BHE')",
    "D.record_id NOT IN (SELECT R.record_id FROM R "
    "WHERE R.start_time < '2010-01-10T06:00:00')",
]


def _where(predicates):
    return f" WHERE {' AND '.join(predicates)}" if predicates else ""


def _order(draw, columns, first=0):
    """ORDER BY over every projected column, in a drawn order (the leading
    ``first`` ones kept in place) and direction: ties are then
    indistinguishable rows."""
    keys = columns[:first] + draw(st.permutations(columns[first:]))
    return " ORDER BY " + ", ".join(
        key + draw(st.sampled_from(["", " DESC"])) for key in keys
    )


def _limit(draw):
    return draw(st.sampled_from(["", f" LIMIT {draw(st.integers(1, 50))}"]))


@st.composite
def window(draw, column):
    """A time window on ``column``; one in four contradicts itself."""
    t0, t1 = sorted(draw(st.sampled_from(TIMES)) for _ in range(2))
    if draw(st.integers(0, 3)) == 3:
        t0, t1 = t1, t0
    return [f"{column} > '{t0}'", f"{column} < '{t1}'"]


@st.composite
def sample_instant(draw):
    """Exactly on, or 1 µs either side of, a sample: of the tiny
    repository's xSEED grid or of the mixed repository's CSV member."""
    if draw(st.booleans()):
        day = parse_timestamp(draw(st.sampled_from(TIMES[1:5]))[:10])
        step = 1_000_000 / TINY_SPEC.sample_rate
        index = draw(st.integers(0, int(86_400 * TINY_SPEC.sample_rate) - 1))
    else:
        day, step = CSV_START, 1_000_000 / CSV_RATE
        index = draw(st.integers(0, CSV_SAMPLES - 1))
    instant = day + round(index * step) + draw(st.sampled_from([0, 0, -1, 1]))
    return format_timestamp(instant)


@st.composite
def sample_window(draw):
    """Bounds on D.sample_time drawn from sample times: strict or closed on
    either side, one instant, or an OR of two ranges; one in four
    contradicts itself."""
    column = "D.sample_time"
    shape = draw(st.sampled_from(["range", "range", "instant", "or"]))
    if shape == "instant":
        return [f"{column} = '{draw(sample_instant())}'"]
    t0, t1, t2, t3 = sorted(
        draw(sample_instant()) for _ in range(4)
    )
    if shape == "or":
        return [
            f"(({column} >= '{t0}' AND {column} <= '{t1}') "
            f"OR ({column} > '{t2}' AND {column} < '{t3}'))"
        ]
    if draw(st.integers(0, 3)) == 3:
        t0, t3 = t3, t0
    lower = draw(st.sampled_from([">", ">="]))
    upper = draw(st.sampled_from(["<", "<="]))
    return [f"{column} {lower} '{t0}'", f"{column} {upper} '{t3}'"]


@st.composite
def metadata_queries(draw):
    channel = draw(st.sampled_from(CHANNELS + [None]))
    where = _where([f"F.channel = '{channel}'"] if channel else [])
    return draw(st.sampled_from([
        f"SELECT F.station, COUNT(*) AS n FROM F{where} "
        "GROUP BY F.station ORDER BY F.station",
        "SELECT F.station, F.channel, R.nsamples FROM F JOIN R ON "
        f"F.uri = R.uri WHERE R.record_id = {draw(st.integers(0, 5))} "
        "ORDER BY F.station, F.channel, R.nsamples",
        "SELECT COUNT(*), MIN(R.start_time), MAX(F.end_time) "
        f"FROM F JOIN R ON F.uri = R.uri{where}",
    ]))


@st.composite
def seismic_queries(draw, focus="any"):
    """A query over the seismic schema that projects and orders by no URI:
    F ⋈ (R ⋈)? D, R ⋈ D or D alone with predicates on every table named,
    then rows under ORDER BY … LIMIT, an aggregate, GROUP BY / HAVING,
    DISTINCT, or an IN subquery; or a metadata-only query. The ``"top-n"``
    focus draws the Top-N pushdown's shape: time-ordered rows of F ⋈ R ⋈ D
    whose R and value predicates thin out what the union's branches emit;
    ``"per-file"`` draws the aggregates strategy (b) merges per file;
    ``"mixed"`` keeps the mixed repository's CSV member (ISK/BHZ, record 0)
    among the files of interest, beside xSEED ones."""
    top_n, mixed = focus == "top-n", focus == "mixed"
    shape = "rows" if top_n else draw(st.sampled_from(
        ["aggregate", "grouped", "subquery"] if focus == "per-file" else
        ["rows", "aggregate", "grouped", "distinct", "subquery"]
        + ["metadata"] * (not mixed)
    ))
    if shape == "metadata":
        return draw(metadata_queries())
    tables = "F R D" if top_n else draw(st.sampled_from(
        ["F R D", "F D", "R D"] + ["D"] * (shape == "subquery")
    ))
    predicates = []
    if "F" in tables:
        for column, values in (("station", STATIONS), ("channel", CHANNELS)):
            kept = ["ISK" if column == "station" else "BHZ"]
            value = draw(st.sampled_from((kept if mixed else values) + [None]))
            if value:
                predicates.append(f"F.{column} = '{value}'")
    if "R" in tables and (top_n or draw(st.integers(0, 3))):
        predicates += draw(st.sampled_from([
            [f"R.record_id = {draw(st.integers(0, 0 if mixed else 5))}"],
            draw(window("R.start_time")),
        ]))
    if draw(st.integers(0, 3)) or focus == "remote":
        # The remote region moves this window between queries.
        moving = window("D.sample_time")
        if focus != "remote":
            moving = moving | sample_window()
        predicates += draw(moving)
    if top_n or draw(st.booleans()):
        value = draw(st.sampled_from([500.0, 5000.0, -1000.0]))
        predicates.append(f"D.sample_value > {value}")
    if shape == "subquery":
        predicates.append(draw(st.sampled_from(SUBQUERIES)))
    source = JOINS[tables] + _where(predicates)
    if shape in ("aggregate", "subquery"):
        aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                                   max_size=3, unique=True))
        return f"SELECT {', '.join(aggregates)} FROM {source}"
    if shape == "rows":
        columns = ["D.sample_time"] + draw(st.lists(
            st.sampled_from(["D.sample_value", "D.record_id", "scaled"]),
            max_size=2, unique=True,
        ))
        select = ", ".join(
            "D.sample_value * 2.0 + 1.0 AS scaled" if c == "scaled" else c
            for c in columns
        )
        first = 1 if top_n else draw(st.integers(0, 1))
        return (
            f"SELECT {select} FROM {source}{_order(draw, columns, first)}"
            f" LIMIT {draw(st.integers(1, 50))}"
        )
    keys = [k for k in ("F.channel", "F.station") if "F" in tables]
    keys = draw(st.lists(st.sampled_from(keys + ["D.record_id"]),
                         min_size=1, max_size=3, unique=True))
    if shape == "distinct":
        return (
            f"SELECT DISTINCT {', '.join(keys)} FROM {source}"
            f"{_order(draw, keys)}{_limit(draw)}"
        )
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                               max_size=2, unique=True))
    having = draw(st.sampled_from(
        ["", " HAVING COUNT(*) > 100", " HAVING MAX(D.sample_value) > 0.0"]
    ))
    return (
        f"SELECT {', '.join(keys + aggregates)} FROM {source} "
        f"GROUP BY {', '.join(keys)}{having}{_order(draw, keys)}{_limit(draw)}"
    )


def _rarely(draw, value):
    """``value`` one time in four; None otherwise (and when shrunk)."""
    return value if draw(st.integers(0, 3)) == 3 else None


# The lattice's regions, one example budget each, so that the rare paths
# every region holds are reached; whatever a focus does not pin is drawn
# from the whole lattice.
FOCI = ["any", "top-n", "per-file", "remote", "outage", "tenants",
        "setup", "cache", "mixed"]


@st.composite
def config_points(draw, focus="any"):
    tenants = draw(st.sampled_from({
        "top-n": [0], "per-file": [0], "tenants": [2, 3],
    }.get(focus, [0, 0, 0, 1, 2, 3])))
    standalone = tenants == 0
    remote = focus in ("remote", "outage")
    # The mixed region's CSV member is served from a local directory.
    source = "local" if focus == "mixed" else draw(
        st.sampled_from(SOURCES[remote:])
    )
    # A remote source's mounts stage cold after a warm metadata session:
    # every byte they move then crosses the link under the fault plan.
    metastores = METASTORES[2:] if remote or focus == "setup" else METASTORES
    # Nothing cached: every query of a tenants run extracts.
    caches = {"cache": CACHES[1:], "tenants": CACHES[:1]}.get(focus, CACHES)
    strategy = {"top-n": BULK, "per-file": PER_FILE}.get(focus) or (
        draw(st.sampled_from([BULK, PER_FILE])) if standalone else BULK
    )
    # The service's scheduler threads; a standalone point mounts inline.
    workers = draw(st.integers(1, 4))
    return ConfigPoint(
        strategy=strategy,
        mount_workers=1 if standalone else workers,
        selective=remote or draw(st.booleans()),
        cache=draw(st.sampled_from(caches)),
        metastore=draw(st.sampled_from(metastores)),
        top_n=focus == "top-n" or not standalone or draw(st.booleans()),
        source=source,
        tenants=tenants,
        on_mount_error=draw(st.sampled_from([FAIL_FAST, SKIP_AND_REPORT])),
        verify_plans=draw(st.booleans()),
    )


def refused_endpoint(point, script):
    """Whether the script's victim refuses the network on a source with an
    endpoint: its refusals can open the endpoint's circuit, which is an
    outage of the whole endpoint."""
    return (
        point.source != "local"
        and script.victim is not None
        and script.setup != "header"
        and script.victim_kind in NETWORK_KINDS
    )


@st.composite
def fault_scripts(draw, point, queries, focus="any"):
    setups = ["header"] + ["sidecar"] * (point.metastore in ("warm", "stale"))
    setup = draw(st.sampled_from(setups)) if focus == "setup" else None
    setup = setup or _rarely(draw, draw(st.sampled_from(setups)))
    victim = draw(st.integers(0, 7))
    script = FaultScript(
        seed=draw(st.integers(0, 2**16)),
        rate=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0][focus == "remote":])),
        network=focus == "remote" or draw(st.booleans()),
        victim=victim if setup == "header" else _rarely(draw, victim),
        victim_kind=draw(st.sampled_from(
            [TRANSIENT_OSERROR, CONNECTION_REFUSED, SHORT_READ]
        )),
        setup=setup,
    )
    actions = {
        "remote": ["touch", "rewrite"],
        "outage": ["outage"],
        "tenants": ["cancel"],
        "cache": ["delete", "touch", "rewrite"],
    }.get(focus)
    if actions is None:
        actions = [None, "touch", "rewrite", "delete"]
        actions += ["outage"] * (point.source != "local")
        actions += ["cancel"] * (point.tenants >= 2)
    # One deletion or one outage per run: a cached file deleted behind a
    # down endpoint is served stale by design (nothing can tell it is
    # gone), and an outage ends, within three queries, for good. A victim
    # refusing the endpoint's connections is the run's outage.
    once = ("delete", "outage")
    if refused_endpoint(point, script):
        actions = [a for a in actions if a not in once] or [None]
    events = []
    for _ in range(queries - 1):
        action = draw(st.sampled_from(actions))
        # A file's index, or an outage's length in queries.
        target = st.integers(1, 3) if action == "outage" else st.integers(0, 7)
        events.append(action and (action, draw(target)))
        if action in once:
            actions = [a for a in actions if a not in once] or [None]
    return replace(script, events=tuple(events))


_WINDOW = re.compile(r"D\.sample_time > '[^']*' AND D\.sample_time < '[^']*'")
# A literal of a query: a string, or a number that is not a LIMIT count.
_LITERAL = re.compile(r"'([^']*)'|(?<!LIMIT )(?<![\w.])(\d+(?:\.\d+)?)(?![\w.])")
# What a query's literals are redrawn from: timestamps, other strings,
# numbers (integral, so that an int and a float that were equal stay so).
FRESH_TIMES = TIMES + [
    "2010-01-10T00:00:00", "2010-01-10T12:00:00.250", "2010-01-10T23:59:59",
    "2010-01-11T00:00:00", "2010-01-11T09:30:00", "2010-01-12T00:00:00",
]
FRESH_NAMES = STATIONS + CHANNELS + ["IZM", "BHN", "EDC"]
FRESH_NUMBERS = [0, 1, 2, 3, 4, 5, 7, 100, 500, 1000, 5000, 20000]


@st.composite
def fresh_literals(draw, sql):
    """``sql`` with every literal but a LIMIT count redrawn, equal ones
    alike and unequal ones apart: the same shape with fresh literals."""
    pools = {
        "time": iter(draw(st.permutations(FRESH_TIMES))),
        "name": iter(draw(st.permutations(FRESH_NAMES))),
        "number": iter(draw(st.permutations(FRESH_NUMBERS))),
    }
    fresh: dict = {}

    def redraw(match):
        text, number = match.groups()
        if number is None:
            kind = "time" if re.match(r"\d{4}-", text) else "name"
            value = fresh.setdefault((kind, text), next(pools[kind]))
            return f"'{value}'"
        value = float(number) if "." in number else int(number)
        new = fresh.setdefault(("number", value), next(pools["number"]))
        return f"{float(new)}" if "." in number else f"{new}"

    return _LITERAL.sub(redraw, sql)


@st.composite
def examples(draw, focus):
    """(queries, ConfigPoint, FaultScript). A later query repeats the one
    before it, moves its time window (an exploration step), or is new, so
    caches, staging and remounts matter between queries; the last two
    repeat a drawn one's shape with fresh literals."""
    queries = [draw(seismic_queries(focus))]
    longer = focus in ("remote", "outage", "tenants", "cache")
    # An outage after the first query lasts up to three: the fifth query is
    # the one after the longest.
    more = 4 if focus == "outage" else 2 if longer else draw(
        st.sampled_from([0, 1, 2])
    )
    for _ in range(more):
        step = " AND ".join(draw(window("D.sample_time")))
        moved = _WINDOW.sub(lambda _: step, queries[-1])
        # Staging re-fetches what a moved window needs.
        forced = moved if focus == "remote" else None
        queries.append(forced or draw(
            st.sampled_from([moved, queries[-1]]) | seismic_queries(focus)
        ))
    # One shape twice more with fresh literals: an executor keeps a shape
    # from its second query on, so the last is answered from a kept
    # compile (when the shape compiles at all).
    shape = draw(st.sampled_from(queries))
    queries += [draw(fresh_literals(shape)) for _ in range(2)]
    point = draw(config_points(focus))
    return queries, point, draw(fault_scripts(point, len(queries), focus))


@pytest.mark.parametrize("focus", FOCI)
@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    database=None,
    # A failing example fails as drawn: shrinking a timing-dependent
    # failure re-runs whole engines for minutes.
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_configuration_answers_what_eager_ingestion_answers(
    focus, data, reference, request, tmp_path
):
    if focus == "mixed":  # a CSV member in the repository: mixed unions
        reference = request.getfixturevalue("mixed_reference")
    queries, point, script = data.draw(examples(focus), label="example")
    with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
        for reached in set(run(reference, queries, workdir, point, script)):
            event(reached)


@settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_no_script_deletes_a_file_behind_a_refused_endpoint(data, reference):
    """A remote file whose every read fails on the network can open its
    endpoint's circuit; a file deleted later would then be served
    stale-but-available by design, which the verdict cannot tell from a
    wrong answer. So a run whose fault plan holds such a fault draws no
    deletion and no outage."""
    # Any region's scripts over a source with an endpoint (the mixed
    # region's repository is served from a local directory).
    focus = data.draw(st.sampled_from([f for f in FOCI if f != "mixed"]))
    point = replace(
        data.draw(config_points(focus)),
        source=data.draw(st.sampled_from(SOURCES[1:])),
    )
    script = data.draw(fault_scripts(point, 5, focus))
    assume(any(
        spec.times == -1 and spec.kind in NETWORK_KINDS
        for spec in fault_plan(script, reference).specs
    ))
    assert not {e[0] for e in script.events if e} & {"delete", "outage"}


@pytest.mark.parametrize("strategy", [BULK, PER_FILE])
def test_a_sum_of_mounted_sample_times_overflows_as_eis_does(
    strategy, reference, tmp_path
):
    """The windows the strategy draws are mostly too narrow for a SUM of
    sample times to leave int64; this lattice point is one that does, over
    sample times materialized from mounted records' runs."""
    sql = (
        "SELECT SUM(D.sample_time) FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time >= '2010-01-09T00:00:00' "
        "AND D.sample_time <= '2010-01-13T00:00:00'"
    )
    point = ConfigPoint(strategy=strategy, selective=False, top_n=False)
    assert verdicts(run(reference, [sql], tmp_path, point)) == ["Ei's error"]


@pytest.mark.parametrize("policy", [FAIL_FAST, SKIP_AND_REPORT])
def test_a_remote_endpoint_back_from_an_outage_is_probed_half_open(
    policy, reference, tmp_path
):
    """The ``[remote]`` region reached the breaker's half-open probe by one
    drawn example of 21 or by none; this lattice point reaches it every
    run. The endpoint is down for the second query, whose requests open its
    circuit; the third, once the cooldown has passed, is the probe, and it
    answers what eager ingestion answers."""
    sql = (
        "SELECT F.station, COUNT(*) AS n, SUM(D.sample_value) AS s "
        "FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time > '2010-01-10T06:00:00.000' "
        "AND D.sample_time < '2010-01-11T18:00:00.000' "
        "GROUP BY F.station ORDER BY F.station"
    )
    point = ConfigPoint(source="remote", metastore="warm", on_mount_error=policy)
    reached = run(
        reference, [sql] * 3, tmp_path, point,
        FaultScript(events=(("outage", 1),)),
    )
    down = "typed error" if policy == FAIL_FAST else "degradation"
    assert verdicts(reached) == ["rows", down, "rows"]
    assert "breaker half-open probe" in reached


@st.composite
def wide_queries(draw):
    """Queries over W and V: DISTINCT / GROUP BY over up to all six wide
    keys, integer extremes and sums near ±2**53 and both int64 bounds,
    joins and IN subqueries on INT64, STRING and NaN-bearing FLOAT keys."""
    shape = draw(st.sampled_from(["keys", "distinct", "extremes", "join", "in"]))
    where = draw(st.sampled_from(
        ["", " WHERE W.g = 3", "", " WHERE W.y > 0.0", " WHERE W.k4 < 1024"]
    ))
    if shape in ("keys", "distinct"):
        keys = draw(st.permutations(WIDE_KEYS))
        keys = keys[: draw(st.sampled_from([6, 1, 2]))]
        if len(keys) < 6:
            keys += draw(st.sampled_from([[], ["g"], ["s"], ["x"], ["s", "x"]]))
        keys = [f"W.{k}" for k in keys]
        if shape == "distinct":
            return f"SELECT DISTINCT {', '.join(keys)} FROM W{where}"
        return (
            f"SELECT {', '.join(keys)}, COUNT(*), SUM(W.y) FROM W{where} "
            f"GROUP BY {', '.join(keys)}"
        )
    column = draw(st.sampled_from(WIDE_KEYS))
    if shape == "extremes":
        aggregates = f"MIN(W.{column}), MAX(W.{column}), SUM(W.{column})"
        if draw(st.booleans()):
            return f"SELECT {aggregates}, AVG(W.y) FROM W{where}"
        return (
            f"SELECT W.g, {aggregates} FROM W{where} "
            f"GROUP BY W.g{_order(draw, ['W.g'])}"
        )
    if shape == "join":
        on = " AND ".join(f"W.{k} = V.{k}" for k in draw(st.lists(
            st.sampled_from(["x", "s", "k1", "k2", "k4", "g"]),
            min_size=1, max_size=3, unique=True,
        )))
        return (
            f"SELECT COUNT(*), MIN(W.{column}), MAX(V.k1), SUM(V.k4) "
            f"FROM W JOIN V ON {on}{where}"
        )
    key = draw(st.sampled_from(["x", "s", "k1", "k2", "k4"]))
    negated = " NOT" if key != "x" and draw(st.booleans()) else ""
    subquery = f"SELECT V.{key} FROM V WHERE V.g < {draw(st.integers(1, 5))}"
    return (
        f"SELECT COUNT(*), MAX(W.{column}), SUM(W.k4) FROM W "
        f"WHERE W.{key}{negated} IN ({subquery})"
    )


@pytest.fixture(scope="module")
def sqlite_conn(reference):
    conn = reference.sqlite()
    yield conn
    conn.close()


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=seismic_queries() | wide_queries())
def test_database_agrees_with_sqlite(sql, reference, sqlite_conn):
    event(f"sqlite leg: {sqlite_agrees(reference.db, sqlite_conn, sql)}")
