"""Top-N early termination over rule-(1) union branches.

After the run-time rewrite turns an actual scan into a union of per-file
access paths, an ``ORDER BY sample_time … LIMIT k`` query does not need every
branch: each file's metadata time hull bounds the sort keys its rows can
produce, so once *k* candidates at least as good as a remaining branch's best
possible row are in hand, that branch provably cannot change the answer and
its mount can be cancelled before a byte is read.

:func:`find_top_n_target` is the static gate — it recognizes the exact plan
shapes where skipping a branch is sound — and :class:`TopNBranchMonitor` is
the run-time half, plugged into
:class:`~repro.db.plan.physical.ExecutionContext` as its ``branch_monitor``:

* ``schedule`` orders branches most-promising-hull first, so the threshold
  tightens as early as possible;
* ``should_skip`` compares a branch's hull against the current threshold (the
  *k*-th best primary key seen so far) and fires the executor's ``on_skip``
  callback, which releases the branch's pending mount from the pool /
  scheduler and counts it in the mount accounting;
* ``observe`` folds each produced branch's primary-key column into the
  threshold;
* ``note_result`` records the Top-N operator's emitted rows, and ``safe()``
  audits every skip against them: a skip is sound only if the full *k* rows
  were emitted and the skipped hull is *strictly* worse than the worst
  emitted key. Strictness matters — a tied row may not be skipped, because
  secondary sort keys or stable tie order could prefer it.

The audit makes correctness unconditional: the executor re-runs the plan
exhaustively if ``safe()`` is ever False (operators between the union and the
TopN could in principle drop rows in ways the hull argument does not cover),
so an unsound skip costs time, never answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..db.expr import ColumnRef, Expr
from ..db.interval import WHOLE_FILE, intersect, is_empty
from ..db.plan.logical import (
    CacheScan,
    Distinct,
    Join,
    LogicalPlan,
    Mount,
    Project,
    Select,
    SemiJoin,
    TopN,
    UnionAll,
)
from ..db.table import ColumnBatch

#: Operators through which a Top-N threshold argument survives: each may
#: drop or reorder rows, but never *creates* a row whose primary key is not
#: present below it, so a branch whose entire hull sorts strictly after the
#: k-th emitted key still cannot contribute. Aggregate is excluded (a skipped
#: row changes aggregated values), as are Sort/Limit/TopN (positional).
_TRANSPARENT = (Project, Select, Join, SemiJoin, Distinct)


@dataclass(frozen=True)
class TopNPushdownTarget:
    """A plan shape where branch skipping is sound: one TopN over one
    all-access-path union, primary-sorted on the union's time column."""

    topn: TopN
    union: UnionAll
    key: str  # qualified primary sort key, e.g. "d.sample_time"
    ascending: bool


def _nodes_between(root: LogicalPlan, target: LogicalPlan) -> Optional[list]:
    """Nodes from ``root`` down to ``target``, inclusive of ``root`` and
    exclusive of ``target``; None when ``target`` is not under ``root``."""
    if root is target:
        return []
    for child in root.children():
        below = _nodes_between(child, target)
        if below is not None:
            return [root] + below
    return None


def find_top_n_target(
    plan: LogicalPlan, time_column: str
) -> Optional[TopNPushdownTarget]:
    """The static gate: match the rewritten stage-2 plan against the shape
    Top-N early termination can serve, or None."""
    unions = [n for n in plan.walk() if isinstance(n, UnionAll)]
    topns = [n for n in plan.walk() if isinstance(n, TopN)]
    if len(unions) != 1 or len(topns) != 1:
        return None
    union, topn = unions[0], topns[0]
    if not union.inputs or topn.count <= 0:
        return None
    if not all(isinstance(b, (Mount, CacheScan)) for b in union.inputs):
        return None
    aliases = {b.alias for b in union.inputs}
    if len(aliases) != 1:
        return None
    # A branch pruning interval on some *other* column would make the file
    # span a wrong bound for what the branch can produce.
    if any(
        b.interval is not None and b.interval_column != time_column
        for b in union.inputs
    ):
        return None
    (alias,) = aliases
    key = f"{alias}.{time_column}"
    primary = topn.keys[0][0]
    if not isinstance(primary, ColumnRef) or primary.key != key:
        return None
    if key not in union.output_keys():
        return None
    between = _nodes_between(topn.children()[0], union)
    if between is None:  # union not under the TopN
        return None
    if not all(isinstance(node, _TRANSPARENT) for node in between):
        return None
    return TopNPushdownTarget(topn=topn, union=union, key=key,
                              ascending=topn.keys[0][1])


def branch_hulls(
    union: UnionAll,
    file_span: Callable[[str], Optional[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """Per-branch bounds on the primary key values a branch can produce.

    Each branch is a per-file access path; its hull is the file's metadata
    time span intersected with the branch's pruning interval. Unknown spans
    degrade to the pruning interval alone (or the whole line), which only
    widens the hull — never unsound, just less opportunity to skip.
    """
    hulls: list[tuple[int, int]] = []
    for branch in union.inputs:
        span = file_span(branch.uri) or WHOLE_FILE
        if branch.interval is not None:
            span = intersect(span, branch.interval)
        hulls.append(span)
    return hulls


@dataclass
class TopNBranchMonitor:
    """Run-time branch skipping for one Top-N query execution.

    ``count``/``ascending``/``key`` come from the matched
    :class:`TopNPushdownTarget`; ``hulls`` from :func:`branch_hulls`.
    ``on_skip(index)`` fires exactly once per skipped branch (release the
    pending mount, bump accounting).
    """

    count: int
    ascending: bool
    key: str
    hulls: list[tuple[int, int]]
    on_skip: Optional[Callable[[int], None]] = None
    skipped: dict[int, tuple[int, int]] = field(default_factory=dict)
    _kept: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    _result_rows: Optional[int] = None
    _worst_emitted: Optional[int] = None

    # -- scheduling -------------------------------------------------------------

    def schedule(self, n: int) -> list[int]:
        """Branch consumption order, most promising hull first.

        Promising = smallest lower bound for ascending, largest upper bound
        for descending: those branches tighten the threshold fastest. Ties
        keep original order. Defensive identity when the union the physical
        operator asks about is not the one the hulls describe.
        """
        if n != len(self.hulls):
            return list(range(n))
        if self.ascending:
            return sorted(range(n), key=lambda i: (self.hulls[i][0], i))
        return sorted(range(n), key=lambda i: (-self.hulls[i][1], i))

    # -- the running threshold --------------------------------------------------

    def _threshold(self) -> Optional[int]:
        """The k-th best primary key seen, once k candidates exist."""
        if len(self._kept) < self.count:
            return None
        # _kept is sorted ascending: the k-th smallest for ASC is its last
        # entry, the k-th largest for DESC its first.
        return int(self._kept[-1]) if self.ascending else int(self._kept[0])

    def should_skip(self, index: int) -> bool:
        threshold = self._threshold()
        if threshold is None:
            return False
        lo, hi = self.hulls[index]
        if is_empty((lo, hi)):
            skip = True
        elif self.ascending:
            skip = lo > threshold  # strictly: ties may not be skipped
        else:
            skip = hi < threshold
        if skip and index not in self.skipped:
            self.skipped[index] = (lo, hi)
            if self.on_skip is not None:
                self.on_skip(index)
        return skip

    def observe(self, index: int, batch: ColumnBatch) -> None:
        if batch.num_rows == 0:
            return
        # The monitor reads the primary key: a run-encoded time column is
        # materialized for it.
        values = np.asarray(
            batch.column(self.key).materialize().values, dtype=np.int64
        )
        merged = np.sort(np.concatenate([self._kept, values]))
        if self.ascending:
            self._kept = merged[: self.count]
        else:
            self._kept = merged[-self.count:]

    # -- the audit ---------------------------------------------------------------

    def note_result(self, primary: Expr, batch: ColumnBatch) -> None:
        """Called by the Top-N operator with its emitted rows."""
        self._result_rows = batch.num_rows
        if batch.num_rows == 0:
            self._worst_emitted = None
            return
        values = np.asarray(primary.evaluate(batch).values, dtype=np.int64)
        # Worst = last in sort order: max for ascending, min for descending.
        self._worst_emitted = int(values.max() if self.ascending else values.min())

    def safe(self) -> bool:
        """True when every skip is provably sound against the emitted rows.

        No skips is trivially safe. Otherwise the answer must be full (k
        rows) and every skipped hull strictly worse than the worst emitted
        key: any row a skipped branch could have produced then sorts strictly
        after all k answer rows — on the primary key alone, so secondary keys
        and tie order cannot rescue it — and the answer is unchanged.
        """
        if not self.skipped:
            return True
        if self._result_rows != self.count or self._worst_emitted is None:
            return False
        for lo, hi in self.skipped.values():
            if is_empty((lo, hi)):
                continue
            if self.ascending:
                if not lo > self._worst_emitted:
                    return False
            else:
                if not hi < self._worst_emitted:
                    return False
        return True
