"""Shared columnar kernels: factorization, grouping, stable distinct.

These helpers reduce heterogeneous key columns to int64 codes whose sort
order matches the value order, which lets group-by, sort, and distinct all
run on plain numpy integer arrays. Dictionary-encoded strings are never
decoded per row: their codes are derived from the (small) dictionary and
gathered through the physical code vector.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..column import Column
from ..errors import TypeError_


_INT64_MAX = int(np.iinfo(np.int64).max)


def factorize(column: Column) -> tuple[np.ndarray, int]:
    """Map a column to int64 codes preserving value order.

    Returns ``(codes, cardinality)`` with every code in ``[0, cardinality)``;
    equal values share a code and ``value_a < value_b`` implies
    ``code_a < code_b``. String codes are the dictionary's sort ranks, so
    their cardinality is the dictionary size — an upper bound when the column
    (after a filter or take) no longer uses every entry.
    """
    if column.dictionary is not None:
        ranks = column.dictionary.sort_ranks()
        return ranks[column.values], len(ranks)
    return _ordered_codes(column.values)


def _ordered_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``np.unique``'s inverse: dense codes in value order."""
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64), len(uniques)


def combined_codes(columns: Sequence[Column]) -> np.ndarray:
    """Collapse several key columns into one int64 code per row.

    Row equality on the combined code is equivalent to tuple equality on the
    original keys; ordering follows the left-to-right tuple order. Codes are
    a product of per-column cardinalities; when the next product would pass
    int64, the codes built so far are re-factorized first (at most one code
    per row, still in tuple order), so no key tuple ever wraps onto another.
    """
    if not columns:
        raise ValueError("combined_codes requires at least one column")
    codes, space = factorize(columns[0])
    for column in columns[1:]:
        next_codes, next_card = factorize(column)
        if next_card == 0:
            return codes
        if space * next_card > _INT64_MAX:
            codes, space = _ordered_codes(codes)
        codes = codes * np.int64(next_card) + next_codes
        space *= next_card
    return codes


def group_by_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Group rows by code.

    Returns ``(group_ids, representatives, num_groups)`` where ``group_ids``
    assigns each row its group (dense, ordered by first key order) and
    ``representatives`` holds the first row index of each group.
    """
    uniques, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    return inverse.astype(np.int64), first_pos.astype(np.int64), len(uniques)


def first_occurrence_indices(codes: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct code, in row order
    (the kernel behind a *stable* DISTINCT)."""
    _, first_pos = np.unique(codes, return_index=True)
    return np.sort(first_pos)


def join_codes(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Codes under which the two sides of an equi-join are comparable.

    Per-column factorization is local to a column, so codes from two columns
    are not comparable; this puts each key position of both sides into one
    shared code space, then combines positions. Equal key tuples on the two
    sides receive equal combined codes; codes carry no order. A FLOAT64 NaN
    (the engine's stand-in for NULL) equals nothing, itself included, so it
    never joins and never satisfies ``IN`` — unlike :func:`factorize`, which
    gives all NaNs one code so they group and sort together.

    The code space is dense: every code is below ``len(left) + len(right) +
    1``, so a matcher can address codes directly. Positions combine as a
    product of their cardinalities; when the next product would exceed that
    bound, the codes built so far are re-factorized first — onto the
    shorter side's distinct tuples plus one no-match code — and once more
    at the end if the last product did.
    """
    if len(left_columns) != len(right_columns):
        raise ValueError("join key arity mismatch")
    if not left_columns:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    positions = [
        _shared_codes(left_col, right_col)
        for left_col, right_col in zip(left_columns, right_columns)
    ]
    bound = len(left_columns[0]) + len(right_columns[0]) + 1
    left_codes, right_codes, space = positions[0]
    for left_part, right_part, card in positions[1:]:
        # Python ints: the bound check itself cannot wrap.
        if space * card > bound:
            left_codes, right_codes, space = _probe_shorter(
                left_codes, right_codes
            )
        left_codes = left_codes * np.int64(card) + left_part
        right_codes = right_codes * np.int64(card) + right_part
        space *= card
    if space > bound:
        left_codes, right_codes, space = _probe_shorter(left_codes, right_codes)
    return left_codes, right_codes


def _shared_codes(
    left: Column, right: Column
) -> tuple[np.ndarray, np.ndarray, int]:
    """One key position of :func:`join_codes`: ``(left, right, cardinality)``.

    Only the side with fewer distinct candidates is ever enumerated: the
    smaller dictionary for strings, the shorter column otherwise. A value the
    enumerated side lacks gets the one extra *no-match* code.
    """
    left_dict, right_dict = left.dictionary, right.dictionary
    if (left_dict is None) != (right_dict is None):
        raise TypeError_(
            f"cannot join {left.dtype.value} with {right.dtype.value} keys"
        )
    if left_dict is not None and right_dict is not None:
        if left_dict is right_dict:
            return left.values, right.values, len(left_dict)
        if len(right_dict) <= len(left_dict):
            table = right_dict.translate_to(left_dict)
            return left.values, table[right.values], len(left_dict) + 1
        table = left_dict.translate_to(right_dict)
        return table[left.values], right.values, len(right_dict) + 1
    return _probe_shorter(left.values, right.values)


def _probe_shorter(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes for one key of raw values: build on the shorter side, probe
    the other (also how :func:`join_codes` re-factorizes its codes)."""
    if len(right) <= len(left):
        right_codes, left_codes, card = _build_and_probe(right, left)
        return left_codes, right_codes, card
    return _build_and_probe(left, right)


def _build_and_probe(
    build: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorize ``build``; give each ``probe`` value its build code.

    Integers whose build side spans a value range no larger than the two
    inputs together are looked up in a table indexed by the offset from the
    build minimum. Anything else goes through the build side's sorted
    distinct values, each hit confirmed with ``==``, which is what keeps NaN
    from matching NaN. A probe value the build side lacks gets the one
    extra no-match code.
    """
    if len(build) and build.dtype.kind == "i" and probe.dtype.kind == "i":
        low, high = build.min(), build.max()
        # Python ints: the span of keys near both int64 bounds cannot wrap.
        if int(high) - int(low) < len(build) + len(probe):
            return _table_lookup(build, probe, low, high)
    uniques, build_codes = np.unique(build, return_inverse=True)
    miss = len(uniques)
    if miss == 0:
        return build_codes, np.zeros(len(probe), dtype=np.int64), 1
    position = np.searchsorted(uniques, probe)
    position[position == miss] = 0
    probe_codes = np.where(uniques[position] == probe, position, miss)
    return build_codes, probe_codes, miss + 1


def _table_lookup(
    build: np.ndarray, probe: np.ndarray, low: np.integer, high: np.integer
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`_build_and_probe` through a table over ``[low, high]``.

    Only values inside that range are ever offset from ``low``, so every
    offset is a valid table index: a probe value outside the range is a
    miss, never a wrapped neighbour.
    """
    origin = np.int64(low)
    build_offsets = build - origin
    present = np.zeros(int(high) - int(low) + 1, dtype=bool)
    present[build_offsets] = True
    table = np.cumsum(present) - 1
    miss = int(table[-1]) + 1
    table[~present] = miss
    inside = (probe >= low) & (probe <= high)
    if inside.all():
        probe_codes = table[probe - origin]
    else:
        probe_codes = np.full(len(probe), miss, dtype=np.int64)
        probe_codes[inside] = table[probe[inside] - origin]
    return table[build_offsets], probe_codes, miss + 1


def sort_indices(
    key_columns: Sequence[Column], ascending: Sequence[bool]
) -> np.ndarray:
    """Stable multi-key sort; per-key direction via code negation."""
    if not key_columns:
        raise ValueError("sort_indices requires at least one key")
    arrays = []
    for column, asc in zip(key_columns, ascending):
        codes, _ = factorize(column)
        arrays.append(codes if asc else -codes)
    # np.lexsort sorts by the last key first; our first key is primary.
    return np.lexsort(arrays[::-1])


def top_n_indices(
    key_columns: Sequence[Column],
    ascending: Sequence[bool],
    count: int,
    chunk_rows: int = 4096,
) -> np.ndarray:
    """The first ``count`` indices of the stable multi-key sort order.

    Equivalent to ``sort_indices(key_columns, ascending)[:count]`` — stable
    tie-breaking by row position included — but computed as a heap-style
    selection: rows stream through in chunks, and only the current best
    ``count`` candidates are ever re-sorted, so per-step work is bounded by
    ``count + chunk_rows`` rather than the input size.
    """
    if not key_columns:
        raise ValueError("top_n_indices requires at least one key")
    if count < 0:
        raise ValueError(f"top_n_indices requires count >= 0, got {count}")
    if chunk_rows < 1:
        raise ValueError(f"top_n_indices requires chunk_rows >= 1, got {chunk_rows}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    arrays = []
    for column, asc in zip(key_columns, ascending):
        codes, _ = factorize(column)
        arrays.append(codes if asc else -codes)
    n = len(key_columns[0])
    # Invariant: ``kept`` holds the best <= count row indices seen so far,
    # already in stable sort order. Appending the next chunk (whose indices
    # all exceed kept's ties, in row order) and re-sorting stably preserves
    # global stability by induction.
    kept = np.empty(0, dtype=np.int64)
    for start in range(0, n, chunk_rows):
        candidates = np.concatenate(
            [kept, np.arange(start, min(start + chunk_rows, n), dtype=np.int64)]
        )
        keys = [codes[candidates] for codes in arrays]
        order = np.lexsort(keys[::-1])
        kept = candidates[order[:count]]
    return kept
