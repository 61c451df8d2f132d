"""Run-time query optimization: rewrite rule (1) of the paper.

Between the two stages, each actual-data scan is rewritten into a union of
per-file access paths::

    scan(a) → ∪_{f ∈ result-scan(Qf)}  cache-scan(f)   if f ∈ C
                                       mount(f)        otherwise

Selections sitting on the scan are pushed into every union branch and fused
with the mount/cache-scan ("combined selections with mounts and/or
cache-scans, creating two more access paths"). These rewrites can only run
once the files of interest are known, i.e. *after* stage 1 — which is what
makes this phase run-time optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..db.expr import ColumnRef, Comparison, Expr, Literal, conjuncts
from ..db.plan.logical import (
    CacheScan,
    LogicalPlan,
    Mount,
    Scan,
    Select,
    UnionAll,
)
from ..db.interval import is_empty
from ..db.plan.rewrite import prune_columns
from ..db.types import DataType
from ..ingest.schema import TIME_COLUMN, URI_COLUMN
from .cache import IngestionCache, Interval, WHOLE_FILE
from .mounting import interval_from_predicate


@dataclass
class RewriteReport:
    """What rule (1) did to one plan — surfaced at the breakpoint."""

    mounts: int = 0
    cache_scans: int = 0
    pruned_by_uri_predicate: int = 0
    # Branches never created because the fused predicate's time conjuncts
    # contradict each other: the empty interval proves the branch yields no
    # rows, so no mount (and no disk access) ever happens.
    pruned_by_empty_interval: int = 0


def uris_from_uri_predicate(
    predicate: Optional[Expr], uri_key: str, candidates: Sequence[str]
) -> list[str]:
    """Statically prune files using equality conjuncts on the uri column.

    A predicate like ``d.uri = 'x'`` restricts the files of interest without
    mounting anything; non-equality predicates leave the set unchanged.
    """
    if predicate is None:
        return list(candidates)
    allowed: Optional[set[str]] = None
    for conj in conjuncts(predicate):
        if (
            isinstance(conj, Comparison)
            and conj.op == "="
        ):
            column, literal = None, None
            if isinstance(conj.left, ColumnRef) and isinstance(conj.right, Literal):
                column, literal = conj.left, conj.right
            elif isinstance(conj.right, ColumnRef) and isinstance(conj.left, Literal):
                column, literal = conj.right, conj.left
            if (
                column is not None
                and column.key == uri_key
                and literal.dtype is DataType.STRING
            ):
                value = str(literal.value)
                allowed = {value} if allowed is None else allowed & {value}
    if allowed is None:
        return list(candidates)
    return [uri for uri in candidates if uri in allowed]


def rewrite_actual_scan(
    scan: Scan,
    predicate: Optional[Expr],
    files_of_interest: Sequence[str],
    cache: IngestionCache,
    report: Optional[RewriteReport] = None,
) -> UnionAll:
    """Apply rule (1) to one actual scan, fusing ``predicate`` into every
    branch. Returns the union access plan (possibly with zero branches)."""
    interval: Interval = WHOLE_FILE
    if predicate is not None:
        interval = interval_from_predicate(
            predicate, f"{scan.alias}.{TIME_COLUMN}"
        )
    if is_empty(interval):
        # Contradictory time conjuncts: no tuple can satisfy the predicate,
        # so rule (1) drops every branch — the paper's best case, nothing is
        # ever ingested.
        if report is not None:
            report.pruned_by_empty_interval += len(files_of_interest)
        return UnionAll([], declared_output=list(scan.output))
    # The node's pruning interval: whole-file predicates carry None (mount
    # everything); a bounded interval licenses record-granular skipping.
    node_interval = None if interval == WHOLE_FILE else interval
    node_interval_column = None if node_interval is None else TIME_COLUMN
    branches: list[LogicalPlan] = []
    for uri in files_of_interest:
        if cache.contains(uri, interval):
            branches.append(
                CacheScan(
                    uri=uri,
                    table_name=scan.table_name,
                    alias=scan.alias,
                    output=list(scan.output),
                    predicate=predicate,
                    interval=node_interval,
                    interval_column=node_interval_column,
                )
            )
            if report is not None:
                report.cache_scans += 1
        else:
            branches.append(
                Mount(
                    uri=uri,
                    table_name=scan.table_name,
                    alias=scan.alias,
                    output=list(scan.output),
                    predicate=predicate,
                    interval=node_interval,
                    interval_column=node_interval_column,
                )
            )
            if report is not None:
                report.mounts += 1
    return UnionAll(branches, declared_output=list(scan.output))


def apply_ali_rewrite(
    qs: LogicalPlan,
    files_by_alias: dict[str, list[str]],
    cache: IngestionCache,
    report: Optional[RewriteReport] = None,
) -> LogicalPlan:
    """Rewrite every actual scan in ``Qs`` whose alias has a files-of-interest
    entry. ``Select(Scan)`` shapes fuse their selection into the branches.

    Column pruning then runs once more: a column only the fused selection
    read (``d.sample_time`` under a time window) leaves every branch's
    output — the mounter still filters, and caches, the whole extracted
    batch before the branch selects its columns.
    """

    def rewrite(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Select) and isinstance(node.child, Scan):
            scan = node.child
            if scan.alias in files_by_alias:
                uri_key = f"{scan.alias}.{URI_COLUMN}"
                files = uris_from_uri_predicate(
                    node.predicate, uri_key, files_by_alias[scan.alias]
                )
                if report is not None:
                    report.pruned_by_uri_predicate += (
                        len(files_by_alias[scan.alias]) - len(files)
                    )
                return rewrite_actual_scan(
                    scan, node.predicate, files, cache, report
                )
        if isinstance(node, Scan) and node.alias in files_by_alias:
            return rewrite_actual_scan(
                node, None, files_by_alias[node.alias], cache, report
            )
        children = node.children()
        if not children:
            return node
        return node.with_children([rewrite(child) for child in children])

    return prune_columns(rewrite(qs))
