"""Unit and property tests for columnar vectors and string dictionaries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import Column, DataType, StringDictionary
from repro.db.column import concat_columns
from repro.db.errors import TypeError_


class TestStringDictionary:
    def test_encode_assigns_dense_codes(self):
        d = StringDictionary()
        assert d.encode_one("a") == 0
        assert d.encode_one("b") == 1
        assert d.encode_one("a") == 0
        assert len(d) == 2

    def test_lookup_absent(self):
        d = StringDictionary(["x"])
        assert d.lookup("x") == 0
        assert d.lookup("y") is None

    def test_decode_roundtrip(self):
        d = StringDictionary()
        codes = d.encode(["p", "q", "p", "r"])
        assert list(d.decode(codes)) == ["p", "q", "p", "r"]

    def test_decode_empty_dictionary(self):
        d = StringDictionary()
        assert len(d.decode(np.empty(0, dtype=np.int32))) == 0

    @given(
        st.lists(st.text(max_size=4), max_size=12),
        st.lists(st.text(max_size=4), max_size=12),
    )
    def test_derived_state_follows_appends(self, first, later):
        # Byte total, decode table and sort ranks are cached; each must be
        # right both before and after the dictionary grows.
        d = StringDictionary()
        for batch in (first, later):
            codes = d.encode(batch)
            assert list(d.decode(codes)) == batch
            assert d.nbytes == sum(len(s) + 8 for s in d.values)
            ranks = d.sort_ranks()
            assert sorted(d.values) == [
                d.values[code] for code in np.argsort(ranks)
            ]

    def test_entries_is_not_a_copy(self):
        d = StringDictionary(["a", "b"])
        assert d.entries is d.entries
        assert list(d.entries) == d.values == ["a", "b"]

    def test_translate_to(self):
        ours = StringDictionary(["a", "b", "c"])
        theirs = StringDictionary(["c", "x", "a"])
        assert ours.translate_to(theirs).tolist() == [2, 3, 0]
        assert StringDictionary().translate_to(theirs).tolist() == []


class TestColumnConstruction:
    def test_from_pylist_int(self):
        col = Column.from_pylist(DataType.INT64, [1, 2, 3])
        assert col.to_pylist() == [1, 2, 3]
        assert col.values.dtype == np.int64

    def test_from_pylist_string(self):
        col = Column.from_pylist(DataType.STRING, ["a", "b", "a"])
        assert col.to_pylist() == ["a", "b", "a"]
        assert len(col.dictionary) == 2

    def test_from_pylist_timestamp_accepts_strings(self):
        col = Column.from_pylist(
            DataType.TIMESTAMP, ["1970-01-01T00:00:01", 5]
        )
        assert col.to_pylist() == [1_000_000, 5]

    def test_string_column_requires_dictionary(self):
        with pytest.raises(TypeError_):
            Column(DataType.STRING, np.zeros(2, dtype=np.int32))

    def test_constant(self):
        col = Column.constant(DataType.STRING, "x", 4)
        assert col.to_pylist() == ["x"] * 4

    def test_constant_timestamp_string(self):
        col = Column.constant(DataType.TIMESTAMP, "1970-01-01T00:00:01", 2)
        assert col.to_pylist() == [1_000_000, 1_000_000]

    def test_empty(self):
        assert len(Column.empty(DataType.FLOAT64)) == 0
        assert len(Column.empty(DataType.STRING)) == 0

    def test_dtype_coercion_on_init(self):
        col = Column(DataType.FLOAT64, np.array([1, 2, 3]))
        assert col.values.dtype == np.float64


class TestColumnOps:
    def test_take(self):
        col = Column.from_pylist(DataType.INT64, [10, 20, 30])
        assert col.take(np.array([2, 0])).to_pylist() == [30, 10]

    def test_filter(self):
        col = Column.from_pylist(DataType.STRING, ["a", "b", "c"])
        mask = np.array([True, False, True])
        assert col.filter(mask).to_pylist() == ["a", "c"]

    def test_slice(self):
        col = Column.from_pylist(DataType.INT64, [1, 2, 3, 4])
        assert col.slice(1, 3).to_pylist() == [2, 3]

    def test_render_timestamps(self):
        col = Column.from_pylist(DataType.TIMESTAMP, [0])
        assert col.render() == ["1970-01-01T00:00:00"]

    def test_nbytes_accounts_for_dictionary(self):
        plain = Column.from_pylist(DataType.INT64, [1, 2])
        stringy = Column.from_pylist(DataType.STRING, ["abcdef", "ghijkl"])
        assert stringy.nbytes() > stringy.values.nbytes
        assert plain.nbytes() == plain.values.nbytes

    def test_bool_to_pylist(self):
        col = Column(DataType.BOOL, np.array([True, False]))
        values = col.to_pylist()
        assert values == [True, False]
        assert all(isinstance(v, bool) for v in values)


class TestConcatColumns:
    def test_int_concat(self):
        a = Column.from_pylist(DataType.INT64, [1, 2])
        b = Column.from_pylist(DataType.INT64, [3])
        assert concat_columns([a, b]).to_pylist() == [1, 2, 3]

    def test_string_concat_remaps_codes(self):
        a = Column.from_pylist(DataType.STRING, ["x", "y"])
        b = Column.from_pylist(DataType.STRING, ["y", "z"])
        merged = concat_columns([a, b])
        assert merged.to_pylist() == ["x", "y", "y", "z"]
        assert len(merged.dictionary) == 3

    def test_type_mismatch_raises(self):
        a = Column.from_pylist(DataType.INT64, [1])
        b = Column.from_pylist(DataType.FLOAT64, [1.0])
        with pytest.raises(TypeError_):
            concat_columns([a, b])

    def test_empty_input_raises(self):
        with pytest.raises(TypeError_):
            concat_columns([])

    @given(
        st.lists(
            st.lists(st.text(alphabet="abc", max_size=3), max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    def test_string_concat_preserves_values(self, chunks):
        columns = [
            Column.from_pylist(DataType.STRING, chunk) for chunk in chunks
        ]
        merged = concat_columns(columns)
        expected = [v for chunk in chunks for v in chunk]
        assert merged.to_pylist() == expected


@given(st.lists(st.integers(-(2**40), 2**40), max_size=50))
def test_int_roundtrip_property(values):
    col = Column.from_pylist(DataType.INT64, values)
    assert col.to_pylist() == values


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_float_roundtrip_property(values):
    col = Column.from_pylist(DataType.FLOAT64, values)
    assert col.to_pylist() == pytest.approx(values)
