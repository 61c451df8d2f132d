"""Property tests for the shared columnar kernels.

The kernels work on dictionary codes and sorted distinct values; the
references here work on the decoded Python values, row by row.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import Column, DataType, StringDictionary
from repro.db.errors import TypeError_
from repro.db.plan.kernels import (
    combined_codes,
    factorize,
    first_occurrence_indices,
    group_by_codes,
    join_codes,
    sort_indices,
    top_n_indices,
)
from repro.db.plan.physical import _match_codes


def int_col(values):
    return Column.from_pylist(DataType.INT64, values)


def str_col(values):
    return Column.from_pylist(DataType.STRING, values)


class TestFactorize:
    def test_codes_preserve_order(self):
        codes, card = factorize(int_col([30, 10, 20, 10]))
        assert card == 3
        assert codes[1] < codes[2] < codes[0]
        assert codes[1] == codes[3]

    def test_string_codes_follow_lexicographic_order(self):
        codes, _ = factorize(str_col(["b", "a", "c"]))
        assert codes[1] < codes[0] < codes[2]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=80))
    def test_equality_preserved(self, values):
        codes, _ = factorize(int_col(values))
        for i in range(len(values)):
            for j in range(i + 1, min(i + 5, len(values))):
                assert (codes[i] == codes[j]) == (values[i] == values[j])


class TestCombinedCodes:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from("xyz")),
            min_size=1,
            max_size=60,
        )
    )
    def test_tuple_equality(self, rows):
        codes = combined_codes(
            [int_col([a for a, _ in rows]), str_col([b for _, b in rows])]
        )
        for i in range(len(rows)):
            for j in range(i + 1, min(i + 6, len(rows))):
                assert (codes[i] == codes[j]) == (rows[i] == rows[j])

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            combined_codes([])


class TestGroupByCodes:
    def test_groups_and_representatives(self):
        codes = np.array([5, 5, 2, 5, 2])
        group_ids, representatives, n = group_by_codes(codes)
        assert n == 2
        assert group_ids[0] == group_ids[1] == group_ids[3]
        assert group_ids[2] == group_ids[4]
        assert set(representatives.tolist()) == {0, 2}


class TestFirstOccurrence:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    def test_matches_python_dedupe(self, values):
        codes = np.asarray(values, dtype=np.int64)
        keep = first_occurrence_indices(codes)
        expected = sorted({v: i for i, v in reversed(list(enumerate(values)))}.values())
        assert keep.tolist() == expected


class TestJoinCodes:
    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=30),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=30),
    )
    def test_cross_side_equality(self, left, right):
        left_codes, right_codes = join_codes([str_col(left)], [str_col(right)])
        for i, lv in enumerate(left):
            for j, rv in enumerate(right):
                assert (left_codes[i] == right_codes[j]) == (lv == rv)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            join_codes([int_col([1])], [])


class TestSortIndices:
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.sampled_from("pq")),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_python_sort(self, rows):
        a = int_col([x for x, _ in rows])
        b = str_col([y for _, y in rows])
        order = sort_indices([a, b], [True, False])
        got = [rows[i] for i in order]
        expected = sorted(rows, key=lambda r: (r[0], tuple(-ord(c) for c in r[1])))
        assert got == expected

    def test_stability(self):
        rows = [(1, "x"), (1, "y"), (1, "z")]
        order = sort_indices([int_col([r[0] for r in rows])], [True])
        assert order.tolist() == [0, 1, 2]

    def test_requires_keys(self):
        with pytest.raises(ValueError):
            sort_indices([], [])


# -- decoded-value references --------------------------------------------------

KEY_VALUES = {
    DataType.STRING: st.sampled_from(["", "a", "b", "ab", "ba", "B", "é"]),
    DataType.INT64: st.integers(-3, 3),
    DataType.TIMESTAMP: st.integers(0, 4).map(
        lambda step: 1_263_081_600_000_000 + step * 50_000
    ),
    DataType.FLOAT64: st.sampled_from([-1.5, -0.0, 0.0, 2.25, 1e300]),
}
# NaN, the engine's stand-in for NULL, equals nothing in a join. Only the join
# properties draw it: the sort and group references have no place for it.
JOIN_KEY_VALUES = {
    **KEY_VALUES,
    DataType.FLOAT64: st.sampled_from([-1.5, -0.0, 0.0, 2.25, float("nan")]),
}


def padded_column(dtype, values, padding):
    """``values`` as a column whose dictionary also holds ``padding`` —
    entries no row uses, as a filter or take leaves behind."""
    column = Column.from_pylist(dtype, list(padding) + list(values))
    return column.slice(len(padding), len(column))


@st.composite
def keyed_rows(draw, sides=1, values=KEY_VALUES, max_keys=3, max_rows=25):
    """Key dtypes, ``sides`` row lists of key tuples, and per-side padding."""
    dtypes = draw(
        st.lists(st.sampled_from(list(values)), min_size=1, max_size=max_keys)
    )
    row = st.tuples(*[values[dtype] for dtype in dtypes])
    rows = [draw(st.lists(row, max_size=max_rows)) for _ in range(sides)]
    padding = [draw(st.lists(row, max_size=4)) for _ in range(sides)]
    return dtypes, rows, padding


def key_columns(dtypes, rows, padding):
    return [
        padded_column(dtype, [r[k] for r in rows], [r[k] for r in padding])
        for k, dtype in enumerate(dtypes)
    ]


def nested_loop_pairs(left_rows, right_rows):
    # Field by field: tuple equality would let one NaN object equal itself.
    def equal(left, right):
        if not isinstance(left, tuple):
            return left == right
        return all(a == b for a, b in zip(left, right))

    return [
        (i, j)
        for i, left in enumerate(left_rows)
        for j, right in enumerate(right_rows)
        if equal(left, right)
    ]


def joined_pairs(left_columns, right_columns):
    left_idx, right_idx = _match_codes(*join_codes(left_columns, right_columns))
    return list(zip(left_idx.tolist(), right_idx.tolist()))


def stable_order(rows, ascending):
    """Multi-key stable sort by successive single-key stable sorts."""
    order = list(range(len(rows)))
    for k in reversed(range(len(ascending))):
        order.sort(key=lambda i: rows[i][k], reverse=not ascending[k])
    return order


class TestJoinAgainstNestedLoop:
    @given(keyed_rows(sides=2, values=JOIN_KEY_VALUES))
    def test_pairs_and_their_order(self, drawn):
        dtypes, (left, right), (left_pad, right_pad) = drawn
        got = joined_pairs(
            key_columns(dtypes, left, left_pad),
            key_columns(dtypes, right, right_pad),
        )
        assert got == nested_loop_pairs(left, right)

    @given(
        st.lists(st.sampled_from("abc"), max_size=20),
        st.lists(st.sampled_from("xyz"), max_size=20),
    )
    def test_disjoint_dictionaries_match_nothing(self, left, right):
        assert joined_pairs([str_col(left)], [str_col(right)]) == []

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=30))
    def test_shared_dictionary(self, values):
        column = str_col(values)
        half = len(values) // 2
        left, right = column.slice(0, half), column.slice(half, len(values))
        assert left.dictionary is right.dictionary
        assert joined_pairs([left], [right]) == nested_loop_pairs(
            values[:half], values[half:]
        )

    def test_int_probes_float_build(self):
        left = int_col([1, 2, 3])
        right = Column.from_pylist(DataType.FLOAT64, [2.0, 2.5, 1.0])
        assert joined_pairs([left], [right]) == [(0, 2), (1, 0)]

    def test_nan_never_joins(self):
        nan = float("nan")
        left = Column.from_pylist(DataType.FLOAT64, [1.0, nan, 2.0])
        right = Column.from_pylist(DataType.FLOAT64, [nan, 2.0, nan, nan])
        assert joined_pairs([left], [right]) == [(2, 1)]
        assert joined_pairs([right], [left]) == [(1, 2)]
        probe_codes, member_codes = join_codes([left], [right])
        assert np.isin(probe_codes, member_codes).tolist() == [False, False, True]

    def test_string_never_joins_non_string(self):
        with pytest.raises(TypeError_):
            join_codes([str_col(["1"])], [int_col([1])])

    def test_large_side_is_never_decoded(self, monkeypatch):
        decoded_lengths = []
        original = StringDictionary.decode

        def counting_decode(self, codes):
            decoded_lengths.append(len(codes))
            return original(self, codes)

        monkeypatch.setattr(StringDictionary, "decode", counting_decode)
        names = [f"file-{i:02d}" for i in range(40)]
        rng = np.random.default_rng(0)
        large_codes = rng.integers(0, len(names), 200_000).astype(np.int32)
        large = Column(DataType.STRING, large_codes, StringDictionary(names))
        small = str_col(names[5:15])
        left_idx, right_idx = _match_codes(*join_codes([large], [small]))
        assert decoded_lengths == []
        expected = np.flatnonzero((large_codes >= 5) & (large_codes < 15))
        assert left_idx.tolist() == expected.tolist()
        assert right_idx.tolist() == (large_codes[expected] - 5).tolist()


class TestStringKernelsAgainstDecodedValues:
    @given(
        st.lists(KEY_VALUES[DataType.STRING], max_size=30),
        st.lists(KEY_VALUES[DataType.STRING], max_size=4),
    )
    def test_factorize_preserves_order_and_equality(self, values, padding):
        codes, card = factorize(padded_column(DataType.STRING, values, padding))
        assert all(0 <= code < card for code in codes)
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (codes[i] < codes[j]) == (a < b)
                assert (codes[i] == codes[j]) == (a == b)

    @given(keyed_rows(), st.data())
    def test_sort_and_top_n(self, drawn, data):
        dtypes, (rows,), (padding,) = drawn
        ascending = [data.draw(st.booleans()) for _ in dtypes]
        columns = key_columns(dtypes, rows, padding)
        expected = stable_order(rows, ascending)
        assert sort_indices(columns, ascending).tolist() == expected
        count = data.draw(st.integers(0, len(rows) + 2))
        got = top_n_indices(columns, ascending, count, chunk_rows=7)
        assert got.tolist() == expected[:count]

    @given(keyed_rows())
    def test_distinct_and_group_by(self, drawn):
        dtypes, (rows,), (padding,) = drawn
        codes = combined_codes(key_columns(dtypes, rows, padding))
        first_seen = {}
        for i, row in enumerate(rows):
            first_seen.setdefault(row, i)
        assert first_occurrence_indices(codes).tolist() == list(
            first_seen.values()
        )
        group_ids, representatives, ngroups = group_by_codes(codes)
        in_key_order = sorted(first_seen)
        assert ngroups == len(in_key_order)
        assert representatives.tolist() == [first_seen[k] for k in in_key_order]
        assert group_ids.tolist() == [in_key_order.index(row) for row in rows]


# -- dense join codes ------------------------------------------------------------

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# Few values (duplicates on both sides), many values (products of per-key
# cardinalities that outgrow the rows, forcing re-factorization), negative
# keys and keys at both int64 bounds (a lookup table offset must not wrap).
WIDE_INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-400, 400),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, INT64_MAX - 1, INT64_MAX]),
)
DENSE_JOIN_KEY_VALUES = {
    DataType.INT64: WIDE_INTS,
    DataType.TIMESTAMP: WIDE_INTS,
    DataType.FLOAT64: st.sampled_from([-1.5, -0.0, 0.0, 2.25, float("nan")]),
    DataType.STRING: st.text(alphabet="abé", max_size=3),
}


class TestDenseJoinCodes:
    @given(
        keyed_rows(
            sides=2, values=DENSE_JOIN_KEY_VALUES, max_keys=5, max_rows=30
        )
    )
    def test_pairs_order_and_density(self, drawn):
        dtypes, (left, right), (left_pad, right_pad) = drawn
        left_codes, right_codes = join_codes(
            key_columns(dtypes, left, left_pad),
            key_columns(dtypes, right, right_pad),
        )
        bound = len(left) + len(right) + 1
        assert all(0 <= code < bound for code in left_codes.tolist())
        assert all(0 <= code < bound for code in right_codes.tolist())
        left_idx, right_idx = _match_codes(left_codes, right_codes)
        got = list(zip(left_idx.tolist(), right_idx.tolist()))
        assert got == nested_loop_pairs(left, right)

    def test_products_past_the_rows_are_refactorized(self):
        # Five keys of 12 distinct values each: 13^5 codes before density.
        rows = [tuple(i * (k + 1) for k in range(5)) for i in range(12)]
        probes = rows[::-1] + [(0, 0, 0, 0, 1), (11, 22, 33, 44, 0)]
        columns = [int_col([r[k] for r in probes]) for k in range(5)]
        builds = [int_col([r[k] for r in rows]) for k in range(5)]
        left_codes, right_codes = join_codes(columns, builds)
        assert max(left_codes.max(), right_codes.max()) < len(probes) + 13
        assert joined_pairs(columns, builds) == nested_loop_pairs(probes, rows)

    def test_repeated_build_codes_keep_right_row_order(self):
        left = int_col([2, 1, 2, 9])
        right = int_col([1, 2, 2, 1, 2])
        assert joined_pairs([left], [right]) == [
            (0, 1), (0, 2), (0, 4), (1, 0), (1, 3), (2, 1), (2, 2), (2, 4),
        ]

    def test_lookup_table_misses_keys_outside_the_build_range(self):
        left = int_col([INT64_MIN, -1, 0, 5, 6, INT64_MAX])
        right = int_col([5, 0, 3])
        assert joined_pairs([left], [right]) == [(2, 1), (3, 0)]


class TestCodeOverflow:
    """Five keys of 65 536 values each: a product of cardinalities is 2^80,
    which wraps int64 onto other tuples unless the codes are re-factorized."""

    WIDTH = 5
    CARD = 1 << 16

    def _diagonal(self, count):
        return [(i,) * self.WIDTH for i in range(count)]

    def _columns(self, rows):
        return [int_col([r[k] for r in rows]) for k in range(self.WIDTH)]

    def test_distinct_and_group_by_keep_every_tuple(self):
        # (1, 0, 0, 0, 0) and (2, 0, 0, 0, 0) wrap onto (0, 0, 0, 0, 0).
        rows = self._diagonal(self.CARD) + [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]
        codes = combined_codes(self._columns(rows))
        assert len(first_occurrence_indices(codes)) == len(rows)
        group_ids, _, ngroups = group_by_codes(codes)
        assert ngroups == len(rows)
        # Code order is still tuple order after re-factorization.
        order = np.argsort(codes, kind="stable")
        assert [rows[i] for i in order] == sorted(rows)

    def test_absent_probe_matches_nothing(self):
        build = self._diagonal(self.CARD - 1)
        probe = build + [(1, 0, 0, 0, 0)]
        left_idx, right_idx = _match_codes(
            *join_codes(self._columns(probe), self._columns(build))
        )
        assert len(left_idx) == len(build)
        assert left_idx.tolist() == right_idx.tolist() == list(range(len(build)))
