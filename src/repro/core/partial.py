"""Decomposable aggregation over per-file partial results.

§3 leaves a run-time strategy choice open: "(a) merge the actual data taken
from each file into comprehensive table(s) and then apply the higher
operators in bulk fashion or (b) run higher operators on sub-tables and then
merge the results". This module is the algebra behind (b): aggregates are
expanded into partial specs that distribute over union (AVG → SUM+COUNT),
computed per file, and merged.

The same machinery powers multi-stage execution (§5), where files are
ingested in batches with a running estimate available after every batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..db.errors import ExecutionError, PlanError
from ..db.plan.logical import Aggregate, AggSpec, LogicalPlan
from ..db.types import DataType

DECOMPOSABLE_FUNCS = {"sum", "count", "min", "max", "avg"}


def is_decomposable(aggregate: Aggregate) -> bool:
    """Whether strategy (b) applies: every aggregate distributes over union."""
    return all(
        spec.func in DECOMPOSABLE_FUNCS and not spec.distinct
        for spec in aggregate.aggs
    )


@dataclass(frozen=True)
class _PartialPlanEntry:
    """How one final aggregate maps onto partial columns."""

    func: str
    partial_names: tuple[str, ...]  # columns of the partial aggregate
    dtype: DataType


def expand_partial_specs(
    aggs: Sequence[AggSpec],
) -> tuple[list[AggSpec], list[_PartialPlanEntry]]:
    """Expand final aggregates into per-file partial aggregates.

    AVG(x) becomes SUM(x) and COUNT(x), MIN/MAX(x) carry COUNT(x) beside
    the extremum; everything else keeps its function. Duplicate partials
    are shared (AVG(x) + SUM(x) compute SUM(x) once).
    """
    partials: list[AggSpec] = []
    keys: dict[tuple, str] = {}

    def partial_for(func: str, spec: AggSpec) -> str:
        signature = (func, "*" if spec.arg is None else repr(spec.arg))
        name = keys.get(signature)
        if name is None:
            name = f"partial_{len(partials)}"
            if func == "count":
                dtype = DataType.INT64
            elif func == "sum":
                dtype = (
                    DataType.FLOAT64
                    if spec.arg is not None and spec.arg.dtype is DataType.FLOAT64
                    else DataType.INT64
                )
            else:
                dtype = spec.arg.dtype if spec.arg is not None else DataType.INT64
            partials.append(AggSpec(func, spec.arg, name, False, dtype))
            keys[signature] = name
        return name

    plan: list[_PartialPlanEntry] = []
    for spec in aggs:
        if spec.func not in DECOMPOSABLE_FUNCS or spec.distinct:
            raise PlanError(f"aggregate {spec.label()} is not decomposable")
        if spec.func in ("avg", "min", "max"):
            first = "sum" if spec.func == "avg" else spec.func
            names = (partial_for(first, spec), partial_for("count", spec))
        else:
            names = (partial_for(spec.func, spec),)
        plan.append(_PartialPlanEntry(spec.func, names, spec.dtype))
    return partials, plan


def _fits_int64(value: Any) -> bool:
    return not isinstance(value, int) or -(1 << 63) <= value < 1 << 63


def _merge_extremum(func: str, current: Any, value: Any) -> Any:
    """Fold one non-empty MIN/MAX partial into a non-empty running extremum.

    A NaN value wins either way, as it does in the bulk aggregate; Python's
    ``min``/``max`` would keep or drop it depending on the argument order.
    """
    if value != value or current != current:
        return float("nan")
    return min(current, value) if func == "min" else max(current, value)


class PartialMerger:
    """Accumulates per-file partial aggregate rows and finalizes them."""

    def __init__(self, aggregate: Aggregate) -> None:
        self.aggregate = aggregate
        self.partial_specs, self._plan = expand_partial_specs(aggregate.aggs)
        self.group_names = [name for name, _ in aggregate.groups]
        # group key tuple -> list of per-partial accumulated values
        self._state: dict[tuple, list[Any]] = {}
        self.files_merged = 0
        # A MIN/MAX partial's position -> its row count's. A file whose rows
        # were all filtered away contributes the engine's empty-input marker
        # (0 or NaN) as its extremum: not a value, and its count says so.
        position = {s.out_name: i for i, s in enumerate(self.partial_specs)}
        self._rows_of = {
            position[entry.partial_names[0]]: position[entry.partial_names[1]]
            for entry in self._plan
            if entry.func in ("min", "max")
        }

    def partial_aggregate_node(self, child: LogicalPlan) -> Aggregate:
        """The Aggregate node to run over one file's sub-plan."""
        return Aggregate(child, self.aggregate.groups, self.partial_specs)

    def merge(self, rows: Sequence[tuple], names: Sequence[str]) -> None:
        """Fold one partial result (rows from the partial aggregate)."""
        name_idx = {n: i for i, n in enumerate(names)}
        group_idx = [name_idx[g] for g in self.group_names]
        partial_idx = [name_idx[s.out_name] for s in self.partial_specs]
        for row in rows:
            key = tuple(row[i] for i in group_idx)
            values = [row[i] for i in partial_idx]
            state = self._state.get(key)
            if state is None:
                self._state[key] = list(values)
                continue
            before = list(state)
            for i, (spec, value) in enumerate(zip(self.partial_specs, values)):
                if spec.func in ("sum", "count"):
                    state[i] = before[i] + value
                elif values[self._rows_of[i]]:  # a min / max over some rows
                    state[i] = (
                        _merge_extremum(spec.func, before[i], value)
                        if before[self._rows_of[i]]
                        else value
                    )
        self.files_merged += 1

    def finalized_rows(self) -> list[tuple]:
        """Rows in the final Aggregate's output layout (groups then aggs)."""
        partial_pos = {
            spec.out_name: i for i, spec in enumerate(self.partial_specs)
        }
        out: list[tuple] = []
        for key in self._state:
            state = self._state[key]
            finals: list[Any] = []
            for entry in self._plan:
                values = [state[partial_pos[name]] for name in entry.partial_names]
                if entry.func == "avg":
                    total, count = values
                    finals.append(total / count if count else float("nan"))
                elif entry.func == "sum" and not _fits_int64(values[0]):
                    # Per-file sums fit; their exact total does not.
                    raise ExecutionError("integer SUM overflows int64")
                else:
                    finals.append(values[0])
            out.append(tuple(key) + tuple(finals))
        if not self.aggregate.groups and not out:
            # Scalar aggregation over zero files still yields one row, with
            # the engine's documented empty-input convention: COUNT and SUM
            # are 0, AVG is NaN, MIN/MAX are NaN for floats and 0 for ints.
            finals = []
            for entry in self._plan:
                if entry.func in ("count", "sum"):
                    finals.append(
                        0.0 if entry.dtype is DataType.FLOAT64 else 0
                    )
                elif entry.func == "avg":
                    finals.append(float("nan"))
                elif entry.dtype is DataType.FLOAT64:
                    finals.append(float("nan"))
                else:
                    finals.append(0)
            out.append(tuple(finals))
        return out

    def snapshot(self) -> Optional[list[tuple]]:
        """The current running answer (multi-stage's per-batch estimate)."""
        if not self._state and self.aggregate.groups:
            return None
        return self.finalized_rows()
