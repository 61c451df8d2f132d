"""Tests for the sorted key index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Column, DataType, HashIndex


def build(columns, names=None):
    names = names or [f"c{i}" for i in range(len(columns))]
    return HashIndex.build("t", names, columns)


class TestSingleColumn:
    def test_int_lookup(self):
        col = Column.from_pylist(DataType.INT64, [5, 3, 5, 7])
        index = build([col])
        assert sorted(index.lookup(5)) == [0, 2]
        assert list(index.lookup(3)) == [1]
        assert len(index.lookup(99)) == 0

    def test_string_lookup(self):
        col = Column.from_pylist(DataType.STRING, ["x", "y", "x"])
        index = build([col])
        assert sorted(index.lookup("x")) == [0, 2]
        assert len(index.lookup("absent")) == 0

    def test_float_lookup(self):
        col = Column.from_pylist(DataType.FLOAT64, [1.5, 2.5])
        index = build([col])
        assert list(index.lookup(2.5)) == [1]

    def test_unique_flag(self):
        assert build([Column.from_pylist(DataType.INT64, [1, 2, 3])]).unique
        assert not build([Column.from_pylist(DataType.INT64, [1, 1])]).unique

    def test_empty_column(self):
        index = build([Column.from_pylist(DataType.INT64, [])])
        assert len(index.lookup(1)) == 0

    def test_numpy_scalar_probe(self):
        col = Column.from_pylist(DataType.INT64, [10, 20])
        index = build([col])
        assert list(index.lookup(np.int64(20))) == [1]

    def test_wrong_type_probe_misses(self):
        col = Column.from_pylist(DataType.STRING, ["x"])
        index = build([col])
        assert len(index.lookup(42)) == 0


class TestCompositeKeys:
    def test_tuple_lookup(self):
        uri = Column.from_pylist(DataType.STRING, ["a", "a", "b", "b"])
        rid = Column.from_pylist(DataType.INT64, [0, 1, 0, 0])
        index = build([uri, rid], ["uri", "record_id"])
        assert list(index.lookup(("a", 1))) == [1]
        assert sorted(index.lookup(("b", 0))) == [2, 3]
        assert len(index.lookup(("a", 9))) == 0

    def test_arity_mismatch_misses(self):
        uri = Column.from_pylist(DataType.STRING, ["a"])
        rid = Column.from_pylist(DataType.INT64, [0])
        index = build([uri, rid])
        assert len(index.lookup("a")) == 0

    def test_lookup_many(self):
        k = Column.from_pylist(DataType.INT64, [1, 2, 2, 3])
        index = build([k])
        probe_idx, rowids = index.lookup_many([np.array([2, 9, 1])])
        pairs = sorted(zip(probe_idx.tolist(), rowids.tolist()))
        assert pairs == [(0, 1), (0, 2), (2, 0)]

    def test_lookup_many_no_matches(self):
        k = Column.from_pylist(DataType.INT64, [1])
        index = build([k])
        probe_idx, rowids = index.lookup_many([np.array([5, 6])])
        assert len(probe_idx) == 0 and len(rowids) == 0

    def test_lookup_many_encodes_another_type_as_lookup_does(self):
        index = build([Column.from_pylist(DataType.INT64, [10, 20, 20])])
        for probe in (
            np.array([20.0, 10.5, float("nan")]),
            np.array(["20", "x", 20], dtype=object),
        ):
            probe_idx, rowids = index.lookup_many([probe])
            expected = [
                (i, int(r)) for i, key in enumerate(probe.tolist())
                for r in index.lookup(key)
            ]
            assert list(zip(probe_idx.tolist(), rowids.tolist())) == expected

    def test_lookup_many_matches_every_equal_composite_key(self):
        """Three levels (string, int, float), duplicates, absent strings
        and NaN (which the sorted index matches to NaN): each probe pairs
        with exactly the rows whose key equals it, probes in order."""
        rng = np.random.default_rng(7)
        n, m = 300, 400
        names = [f"f{i}" for i in range(8)]
        floats = [0.5, 1.5, float("nan")]
        stored = [
            Column.from_pylist(DataType.STRING, list(rng.choice(names, n))),
            Column.from_pylist(DataType.INT64, rng.integers(0, 6, n).tolist()),
            Column.from_pylist(DataType.FLOAT64, list(rng.choice(floats, n))),
        ]
        probe = [
            rng.choice(names + ["absent"], m).astype(object),
            rng.integers(-1, 7, m),
            rng.choice(floats + [2.5], m),
        ]
        probe_idx, rowids = build(stored).lookup_many(probe)

        def same(a, b):
            return a == b or (a != a and b != b)

        rows = list(zip(*(column.to_pylist() for column in stored)))
        expected = [
            (i, r)
            for i, key in enumerate(zip(*(p.tolist() for p in probe)))
            for r, row in enumerate(rows)
            if all(map(same, row, key))
        ]
        assert np.all(np.diff(probe_idx) >= 0)
        assert sorted(zip(probe_idx.tolist(), rowids.tolist())) == expected
        assert len(expected) > m


class TestAccounting:
    def test_nbytes_scales_with_rows(self):
        small = build([Column.from_pylist(DataType.INT64, list(range(10)))])
        large = build([Column.from_pylist(DataType.INT64, list(range(1000)))])
        assert large.nbytes() > small.nbytes() * 50

    def test_requires_key_columns(self):
        with pytest.raises(ValueError):
            HashIndex.build("t", [], [])


@settings(deadline=None, max_examples=30)
@given(
    values=st.lists(st.integers(-5, 5), min_size=1, max_size=60),
    probes=st.lists(st.integers(-7, 7), min_size=1, max_size=10),
)
def test_lookup_matches_linear_scan(values, probes):
    col = Column.from_pylist(DataType.INT64, values)
    index = build([col])
    for probe in probes:
        expected = [i for i, v in enumerate(values) if v == probe]
        assert sorted(index.lookup(probe)) == expected


@settings(deadline=None, max_examples=30)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
        min_size=1,
        max_size=60,
    )
)
def test_composite_lookup_matches_linear_scan(rows):
    uri = Column.from_pylist(DataType.STRING, [u for u, _ in rows])
    rid = Column.from_pylist(DataType.INT64, [r for _, r in rows])
    index = build([uri, rid], ["uri", "rid"])
    for probe in {("a", 0), ("b", 1), ("c", 3), ("a", 2)}:
        expected = [i for i, row in enumerate(rows) if row == probe]
        assert sorted(index.lookup(probe)) == expected
