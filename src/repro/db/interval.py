"""Closed time intervals — the unit of record-granular pruning.

A query's fused predicate implies a closed interval on the sample-time
column (:func:`interval_from_predicate`); rule (1) attaches that interval to
every ``Mount``/``CacheScan`` branch as the branch's *pruning interval*, the
ingestion cache keys tuple-granular entries by it, and selective extraction
uses it to skip whole records. The algebra lives here — below both the plan
layer and the mounting layer — so the plan verifier can check the covering
invariant without importing :mod:`repro.core`.

Conventions: intervals are closed ``[lo, hi]`` pairs of µs timestamps;
``(-INF, INF)`` means "the whole file"; ``lo > hi`` is the empty interval
(contradictory conjuncts), which prunes *everything*.
"""

from __future__ import annotations

from typing import Optional

from .expr import ColumnRef, Comparison, Expr, Literal, conjoin, conjuncts
from .types import DataType

INF = 2**62
Interval = tuple[int, int]  # closed [lo, hi] in µs; (-INF, INF) = whole file

WHOLE_FILE: Interval = (-INF, INF)


def covers(entry: Interval, request: Interval) -> bool:
    """Whether ``entry`` is a superset of ``request`` (closed semantics)."""
    return entry[0] <= request[0] and entry[1] >= request[1]


def is_empty(interval: Interval) -> bool:
    """An inverted interval selects nothing (contradictory conjuncts)."""
    return interval[0] > interval[1]


def overlaps(interval: Interval, lo: int, hi: int) -> bool:
    """Whether the closed span ``[lo, hi]`` intersects ``interval``."""
    return lo <= interval[1] and hi >= interval[0]


def hull(a: Interval, b: Interval) -> Interval:
    """The smallest interval covering both ``a`` and ``b``."""
    return (min(a[0], b[0]), max(a[1], b[1]))


def intersect(a: Interval, b: Interval) -> Interval:
    """The overlap of ``a`` and ``b``; inverted (empty) when disjoint."""
    return (max(a[0], b[0]), min(a[1], b[1]))


def _time_bound(conj: Expr, time_key: str) -> Optional[tuple[str, int]]:
    """``(op, value)`` when ``conj`` reads ``time_key op value`` for a
    TIMESTAMP literal ``value`` (either side, mirrored) and ``op`` is one of
    ``=``, ``<``, ``<=``, ``>``, ``>=``; None for any other conjunct."""
    if not isinstance(conj, Comparison):
        return None
    column, literal, op = None, None, conj.op
    if isinstance(conj.left, ColumnRef) and isinstance(conj.right, Literal):
        column, literal = conj.left, conj.right
    elif isinstance(conj.right, ColumnRef) and isinstance(conj.left, Literal):
        column, literal = conj.right, conj.left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if column is None or column.key != time_key:
        return None
    if literal.dtype is not DataType.TIMESTAMP or op == "<>":
        return None
    return op, int(literal.value)


def interval_from_predicate(
    predicate: Optional[Expr], time_key: str
) -> Interval:
    """The closed time interval implied by range conjuncts on ``time_key``.

    Only conjuncts of the form ``time <op> literal`` (or mirrored) narrow the
    interval; anything else — OR-of-ranges, non-TIMESTAMP literals,
    comparisons on other columns — leaves it unbounded on that side. The
    hull is closed even for strict comparisons: serving a superset and
    re-filtering is always correct. Contradictory conjuncts yield an empty
    (inverted) interval, the signal that the branch cannot produce rows.
    """
    lo, hi = -INF, INF
    if predicate is None:
        return lo, hi
    for conj in conjuncts(predicate):
        bound = _time_bound(conj, time_key)
        if bound is None:
            continue
        op, value = bound
        if op in (">", ">=", "="):
            lo = max(lo, value)
        if op in ("<", "<=", "="):
            hi = min(hi, value)
    return lo, hi


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def time_slice(
    predicate: Optional[Expr], time_key: str
) -> tuple[Optional[Interval], Optional[Expr]]:
    """Split ``predicate`` into the exact closed interval its conjuncts on
    ``time_key`` admit and the conjuncts left over.

    Unlike :func:`interval_from_predicate`'s hull, the interval is exact on
    integer µs: ``time > v`` admits ``v + 1`` onwards, ``time < v`` up to
    ``v - 1``. A row satisfies ``predicate`` exactly when its time lies in
    the interval and it satisfies the rest. The interval is None when no
    conjunct bounds the time, inverted when they contradict each other.
    """
    lo, hi = _INT64_MIN, _INT64_MAX
    bounded, rest = False, []
    for conj in conjuncts(predicate) if predicate is not None else ():
        bound = _time_bound(conj, time_key)
        if bound is None:
            rest.append(conj)
            continue
        op, value = bound
        bounded = True
        if op in (">", ">=", "="):
            lo = max(lo, value + (op == ">"))
        if op in ("<", "<=", "="):
            hi = min(hi, value - (op == "<"))
    interval: Optional[Interval] = None
    if bounded:
        # Past either end of int64 nothing qualifies: the empty interval.
        fits = lo <= _INT64_MAX and hi >= _INT64_MIN
        interval = (lo, hi) if fits else (1, 0)
    return interval, conjoin(rest)
