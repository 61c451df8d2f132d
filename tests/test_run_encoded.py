"""Run-encoded mount batches: an xSEED branch is ``sample_value`` plus one
run per decoded record.

The per-row layout the mount path built before runs lives on here as the
reference: :func:`reference_mounted` (every sample's id and time filled in),
:func:`reference_narrowed` (a tuple-granular cache entry's row mask) and
:func:`reference_deliver` (the fused predicate as one row mask). Whatever the
run-encoded path delivers must, once materialized, equal what they build,
row for row; unions and key joins over runs must equal the same operators
over the materialized rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MountService, TwoStageExecutor
from repro.core.governor import QueryBudget
from repro.db import Database
from repro.db.catalog import Catalog
from repro.db.column import (
    Blocks,
    Column,
    RecordRuns,
    RunColumn,
    _first_sample_from,
    sample_offset,
)
from repro.db.errors import QueryBudgetExceeded
from repro.db.expr import BoolOp, ColumnRef, Comparison, Expr, Literal, conjoin
from repro.db.interval import WHOLE_FILE, interval_from_predicate
from repro.db.plan.physical import ExecutionContext, PHashJoin, PResultScan
from repro.db.table import ColumnBatch, concat_batches
from repro.db.types import DataType
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.ingest._batches import explicit_mount
from repro.ingest.formats import MountRequest
from repro.ingest.xseed_format import _mounted
from repro.mseed import FileRepository
from repro.mseed.record import INT64_MAX, RecordHeader, XSeedRecord
from repro.mseed.volume import SelectiveRead, write_volume

D_COLUMNS = ["uri", "record_id", "sample_time", "sample_value"]
TIME_KEY = "d.sample_time"
EPOCH_2010 = 1_263_081_600_000_000
# Rates whose sample step is not a whole number of µs (0.3 Hz: 3 333 333.3).
RATES = [0.3, 40.0, 100.0]


# -- the references: the per-row layout before runs ----------------------------


def selective_read(record_ids, headers, samples) -> SelectiveRead:
    """What a mount decodes from ``headers`` (one per selected record)."""
    return SelectiveRead(
        np.asarray(record_ids, dtype=np.int64),
        np.array([h.start_time for h in headers], dtype=np.int64),
        np.array([h.sample_rate for h in headers], dtype=np.float64),
        np.array([h.nsamples for h in headers], dtype=np.int64),
        np.asarray(samples, dtype=np.float64),
        0, 0,
    )


def reference_mounted(uri: str, read: SelectiveRead) -> ColumnBatch:
    """Every sample's ``record_id`` and ``sample_time`` filled in, record by
    record: ``start_time + round(i * (10**6 / rate))``."""
    sample_time = np.empty(len(read.samples), dtype=np.int64)
    position = 0
    for start, rate, count in zip(
        read.start_time.tolist(), read.sample_rate.tolist(),
        read.nsamples.tolist(),
    ):
        step = 1_000_000 / rate
        offsets = np.round(np.arange(count) * step).astype(np.int64)
        np.add(offsets, start, out=sample_time[position:position + count])
        position += count
    record_id = np.repeat(read.record_id, read.nsamples)
    return ColumnBatch(D_COLUMNS, [
        Column.constant(DataType.STRING, uri, len(read.samples)),
        Column(DataType.INT64, record_id),
        Column(DataType.TIMESTAMP, sample_time),
        Column(DataType.FLOAT64, read.samples),
    ])


def reference_narrowed(batch: ColumnBatch, interval) -> ColumnBatch:
    """A tuple-granular cache entry: the rows timed in the closed hull."""
    if interval == WHOLE_FILE:
        return batch
    values = batch.column("sample_time").values
    return batch.filter((values >= interval[0]) & (values <= interval[1]))


def reference_deliver(batch: ColumnBatch, alias: str, predicate) -> ColumnBatch:
    """Qualified names, the whole fused predicate as one row mask."""
    qualified = ColumnBatch(
        [f"{alias}.{name}" for name in batch.names], batch.columns
    )
    if predicate is not None:
        qualified = qualified.filter(predicate.evaluate(qualified).values)
    return qualified


def rows(batch: ColumnBatch) -> list[tuple]:
    return batch.rows()


def dtypes(batch: ColumnBatch) -> list:
    return [column.materialize().values.dtype for column in batch.columns]


# -- strategies ----------------------------------------------------------------


@st.composite
def reads(draw, max_records: int = 4) -> SelectiveRead:
    """Records of 0, 1 or many samples at non-integer-µs rates, with gaps in
    their ids (records a selective read skipped); each starts in 2010 or so
    close to the int64 limit that its last sample is the largest time a
    header allows. Record times need not increase from record to record."""
    headers, record_ids = [], []
    record_id = draw(st.integers(0, 2))
    for sequence in range(draw(st.integers(1, max_records))):
        nsamples = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
        rate = draw(st.sampled_from(RATES))
        reach = round((nsamples - 1) * (1_000_000 / rate)) if nsamples > 1 else 0
        if draw(st.booleans()):
            start = INT64_MAX - reach - draw(st.integers(0, 3))
        else:
            start = EPOCH_2010 + draw(st.integers(0, 400)) * 1_000_000
        headers.append(RecordHeader(
            sequence, "KO", "ZZZ", "", "BHE", start, rate, nsamples, 1, 0
        ))
        record_ids.append(record_id)
        record_id += draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    total = sum(h.nsamples for h in headers)
    samples = rng.integers(-1000, 1000, total).astype(np.int32)
    return selective_read(record_ids, headers, samples)


def sample_times(read: SelectiveRead) -> list[int]:
    return reference_mounted("x", read).column("sample_time").to_pylist()


def _time(op: str, value: int, mirrored: bool) -> Expr:
    column = ColumnRef(TIME_KEY, DataType.TIMESTAMP)
    literal = Literal(value, DataType.TIMESTAMP)
    if mirrored:  # value op' time, the same comparison
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        return Comparison(op, literal, column)
    return Comparison(op, column, literal)


@st.composite
def predicates(draw, times: list[int]):
    """Conjunctions of strict, non-strict and ``=`` bounds (sometimes
    contradictory) on the time, each exactly on, just before or just after
    a sample time or far outside; plus, sometimes, an OR of two ranges and a
    ``sample_value`` conjunct."""
    anchors = sorted(set(times)) or [EPOCH_2010]

    def anchor() -> int:
        value = draw(st.sampled_from(anchors)) + draw(st.sampled_from([-1, 0, 1]))
        far = draw(st.sampled_from([None, -(2**63), EPOCH_2010 - 1, INT64_MAX]))
        return min(max(far if far is not None else value, -(2**63)), INT64_MAX)

    ops = st.sampled_from(["<", "<=", ">", ">=", "="])
    conjuncts: list[Expr] = [
        _time(draw(ops), anchor(), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if draw(st.integers(0, 3)) == 0:
        a, b, c, e = sorted(anchor() for _ in range(4))
        conjuncts.append(BoolOp("or", [
            BoolOp("and", [_time(">=", a, False), _time("<=", b, False)]),
            BoolOp("and", [_time(">", c, False), _time("<", e, True)]),
        ]))
    if draw(st.integers(0, 3)) == 0:
        conjuncts.append(Comparison(
            ">",
            ColumnRef("d.sample_value", DataType.FLOAT64),
            Literal(float(draw(st.integers(-500, 500))), DataType.FLOAT64),
        ))
    return conjoin(conjuncts)


# -- delivery ------------------------------------------------------------------


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_delivery_equals_the_per_row_reference(data):
    read = data.draw(reads(), label="read")
    predicate = data.draw(predicates(sample_times(read)), label="predicate")
    mounted = _mounted("a.xseed", read)
    reference = reference_mounted("a.xseed", read)
    stored = mounted.batch.nbytes()

    assert mounted.records == read.records_decoded
    assert rows(mounted.batch) == rows(reference)
    assert dtypes(mounted.batch) == dtypes(reference)

    delivered = MountService._deliver(mounted.batch, "d", predicate)
    expected = reference_deliver(reference, "d", predicate)
    assert delivered.names == expected.names
    assert rows(delivered) == rows(expected)

    # A tuple-granular cache entry, and a later delivery from it.
    interval = interval_from_predicate(predicate, TIME_KEY)
    narrowed = MountService._narrowed(mounted.batch, interval)
    narrowed_reference = reference_narrowed(reference, interval)
    assert rows(narrowed) == rows(narrowed_reference)
    assert rows(MountService._deliver(narrowed, "d", predicate)) == rows(
        reference_deliver(narrowed_reference, "d", predicate)
    )
    # Reading an entry materializes new arrays and never grows it.
    assert mounted.batch.nbytes() == stored


def test_time_bounds_slice_runs_instead_of_materializing():
    read = selective_read(
        [0, 1],
        [RecordHeader(i, "KO", "ZZZ", "", "BHE", EPOCH_2010 + i * 10**7,
                      0.3, 4, 1, 0) for i in range(2)],
        np.arange(8),
    )
    batch = _mounted("a.xseed", read).batch
    # Sample 1 of record 0 sits at +3 333 333 µs: a strict bound on it.
    predicate = BoolOp("and", [
        _time(">", EPOCH_2010 + 3_333_333, False),
        _time("<=", EPOCH_2010 + 10**7, False),
    ])
    delivered = MountService._deliver(batch, "d", predicate)
    # The three derived columns still share one (cut) run table.
    assert len({id(c.runs) for c in delivered.columns
                if isinstance(c, RunColumn)}) == 1
    time_column = delivered.column(TIME_KEY)
    assert isinstance(time_column, RunColumn)
    assert list(time_column.runs.first) == [2, 0]
    assert list(time_column.runs.length) == [2, 1]
    assert delivered.column("d.sample_value").to_pylist() == [2.0, 3.0, 4.0]


# -- cutting runs to a time window ------------------------------------------------


def reference_within(runs: RecordRuns, lo: int, hi: int):
    """``RecordRuns.within`` as it was: a loop over every run, each run's
    first and last times computed one at a time. The reference for the
    form that computes them all with one ``sample_offsets`` call."""
    begins, kept, cut = [], [], False
    starts: list[int] = []
    lengths: list[int] = []
    for offset, start, rate, first, count in zip(
        runs.offset.tolist(), runs.start_time.tolist(),
        runs.sample_rate.tolist(), runs.first.tolist(), runs.length.tolist(),
    ):
        begin, end = 0, count
        if count:
            head = start + sample_offset(first, rate)
            tail = start + sample_offset(first + count - 1, rate)
            if tail < lo or head > hi:
                end = 0
            else:
                run = (start, rate, first, count)
                if head < lo:
                    begin = _first_sample_from(lo, *run)
                if tail > hi:
                    end = max(begin, _first_sample_from(hi + 1, *run))
            cut = cut or begin > 0 or end < count
        begins.append(begin)
        kept.append(end - begin)
        if end > begin:
            if starts and starts[-1] + lengths[-1] == offset + begin:
                lengths[-1] += end - begin
            else:
                starts.append(offset + begin)
                lengths.append(end - begin)
    if not cut:
        return runs, None
    length = np.array(kept, dtype=np.int64)
    cut_runs = RecordRuns(
        runs.uri, runs.record_id, np.cumsum(length) - length, length,
        runs.first + np.array(begins, dtype=np.int64),
        runs.start_time, runs.sample_rate,
    )
    return cut_runs, Blocks(
        np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)
    )


@st.composite
def run_tables(draw):
    """Runs of 0, 1 or many samples from a record index ``first`` on, at
    non-integer-µs rates — or, for a one-sample record or what a cut left
    of it, a rate whose step is past int64 µs — starting in 2010 or so
    close to the int64 limit that the last sample is the largest time a
    header allows."""
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        count = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
        first = draw(st.integers(0, 3))
        rate = draw(st.sampled_from(RATES + [1e-13]))
        if rate == 1e-13:  # legal for a record of one sample at most
            count, first = min(count, 1), draw(st.integers(0, 1 - min(count, 1)))
        reach = sample_offset(first + count - 1, rate) if count else 0
        if draw(st.booleans()):
            start = INT64_MAX - reach - draw(st.integers(0, 2))
        else:
            start = EPOCH_2010 + draw(st.integers(0, 120)) * 1_000_000
        runs.append((count, first, start, rate))
    count, first, start, rate = (np.array(c) for c in zip(*runs))
    length = count.astype(np.int64)
    return RecordRuns(
        Column.constant(DataType.STRING, "a.xseed", len(runs)),
        np.arange(len(runs), dtype=np.int64), np.cumsum(length) - length,
        length, first.astype(np.int64), start.astype(np.int64),
        rate.astype(np.float64),
    )


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_within_equals_the_run_by_run_loop(data):
    runs = data.draw(run_tables(), label="runs")
    times = sorted({
        start + sample_offset(index, rate)
        for start, rate, first, count in zip(
            runs.start_time.tolist(), runs.sample_rate.tolist(),
            runs.first.tolist(), runs.length.tolist(),
        )
        for index in range(first, first + count)
    }) or [EPOCH_2010]

    def bound():
        # On a sample time, one µs either side (a strict bound), or far out.
        far = data.draw(st.sampled_from([None, None, -(2**63), INT64_MAX]))
        if far is not None:
            return far
        value = data.draw(st.sampled_from(times)) + data.draw(
            st.sampled_from([-1, 0, 1])
        )
        return min(max(value, -(2**63)), INT64_MAX)

    lo, hi = bound(), bound()
    got_runs, got_rows = runs.within(lo, hi)
    want_runs, want_rows = reference_within(runs, lo, hi)
    if want_rows is None:
        assert got_rows is None and got_runs is runs
        return
    for name in ("offset", "length", "first", "record_id", "start_time"):
        got, want = getattr(got_runs, name), getattr(want_runs, name)
        assert got.tolist() == want.tolist(), name
    assert got_rows.start.tolist() == want_rows.start.tolist()
    assert got_rows.length.tolist() == want_rows.length.tolist()


# -- unions and joins over runs --------------------------------------------------


def _mounts(data, count: int) -> list:
    return [
        (_mounted(f"f{i}.xseed", read), reference_mounted(f"f{i}.xseed", read))
        for i, read in enumerate(
            data.draw(reads(max_records=3), label=f"read {i}")
            for i in range(count)
        )
    ]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_union_and_key_join_over_runs_equal_the_rows(data):
    mounts = _mounts(data, data.draw(st.integers(1, 3)))
    union = concat_batches([
        MountService._deliver(m.batch, "d", None) for m, _ in mounts
    ])
    reference = concat_batches([
        reference_deliver(r, "d", None) for _, r in mounts
    ])
    assert rows(union) == rows(reference)
    assert all(
        isinstance(union.column(f"d.{name}"), RunColumn)
        for name in D_COLUMNS[:3]
    )

    # R-like rows: some of the mounted (uri, record_id) pairs, some absent
    # ones, some twice — a key join then matches 0, 1 or 2 rows per run.
    pairs = sorted(set(zip(reference.column("d.uri").to_pylist(),
                           reference.column("d.record_id").to_pylist())))
    pairs += [("f0.xseed", 99), ("nowhere", 0)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=12))
    r = ColumnBatch(["r.uri", "r.record_id", "r.tag"], [
        Column.from_pylist(DataType.STRING, [u for u, _ in chosen]),
        Column(DataType.INT64, np.array([k for _, k in chosen], dtype=np.int64)),
        Column(DataType.INT64, np.arange(len(chosen), dtype=np.int64)),
    ])
    keys = data.draw(st.sampled_from([
        (["d.uri", "d.record_id"], ["r.uri", "r.record_id"]),
        (["d.uri"], ["r.uri"]),
    ]))
    runs_left = data.draw(st.booleans())
    outputs = data.draw(st.lists(
        st.sampled_from(["d.sample_time", "d.sample_value", "d.record_id",
                         "d.uri", "r.tag"]),
        min_size=1, max_size=3, unique=True,
    ))

    def join(d_batch: ColumnBatch) -> ColumnBatch:
        sides = [("d", d_batch, keys[0]), ("r", r, keys[1])]
        if not runs_left:
            sides.reverse()
        (lt, lb, lk), (rt, rb, rk) = sides
        ctx = ExecutionContext(catalog=Catalog(), results={lt: lb, rt: rb})
        op = PHashJoin(PResultScan(lt, lb.names), PResultScan(rt, rb.names),
                       lk, rk, outputs)
        return op.execute(ctx)

    assert rows(join(union)) == rows(join(reference))
    mixed = concat_batches([union, reference])
    assert rows(mixed) == rows(reference) * 2
    assert not any(isinstance(c, RunColumn) for c in mixed.columns)


def test_a_union_with_an_explicit_time_branch_materializes():
    read = selective_read(
        [0], [RecordHeader(0, "KO", "ZZZ", "", "BHE", EPOCH_2010, 40.0, 3, 1, 0)],
        [1, 2, 3],
    )
    xseed = _mounted("a.xseed", read).batch
    csv = explicit_mount(
        "b.tscsv", np.zeros(2, dtype=np.int64),
        np.array([5, 9], dtype=np.int64), np.array([0.5, 0.25]), 1,
    ).batch
    union = concat_batches([xseed, csv])
    assert not any(isinstance(c, RunColumn) for c in union.columns)
    assert rows(union) == rows(reference_mounted("a.xseed", read)) + [
        ("b.tscsv", 0, 5, 0.5), ("b.tscsv", 0, 9, 0.25)
    ]


# -- a record holding no samples --------------------------------------------------


class TestZeroSampleRecords:
    """Three records, the last holding no samples (legal: the header's
    end time is its start time). Both mount paths decode three records and
    charge the budget three."""

    URI = "2010/KO.ZZZ..BHE.xseed"
    START = EPOCH_2010
    SQL = (
        "SELECT COUNT(*) FROM D "
        "WHERE D.sample_time >= '2010-01-10T00:00:00.000001'"
    )

    @pytest.fixture
    def repo(self, tmp_path) -> FileRepository:
        path = tmp_path / self.URI
        path.parent.mkdir(parents=True)
        write_volume(path, [
            XSeedRecord.create(i, "KO", "ZZZ", "", "BHE",
                               self.START + i * 10**7, 1.0,
                               np.arange(n, dtype=np.int32))
            for i, n in enumerate([5, 5, 0])
        ])
        return FileRepository(tmp_path)

    def _executor(self, repo, selective: bool = True) -> TwoStageExecutor:
        db = Database()
        lazy_ingest_metadata(db, repo)
        return TwoStageExecutor(
            db, RepositoryBinding(repo), selective_mounts=selective
        )

    def test_both_paths_count_every_decoded_record(self, repo):
        mounts = self._executor(repo).mounts
        whole = mounts._extract(self.URI, "D")
        request = MountRequest(interval=(self.START + 1, self.START + 10**8))
        selective = mounts._extract(self.URI, "D", request)
        assert (whole.selective, selective.selective) == (False, True)
        assert whole.records_decoded == selective.records_decoded == 3

    @pytest.mark.parametrize("selective", [False, True])
    def test_a_budget_of_two_records_trips(self, repo, selective):
        executor = self._executor(repo, selective)
        assert executor.execute(self.SQL).rows == [(9,)]
        with pytest.raises(QueryBudgetExceeded, match="record"):
            executor.execute(
                self.SQL, budget=QueryBudget(max_decoded_records=2)
            )
        assert executor.totals()["selective_mounts"] == 2 * selective
