"""Plan decomposition: ``Q = Qf ▷ Qs`` (§3 "Relational Query Plan").

``Qf`` is the highest branch of the relational algebra tree whose leaves are
only metadata table scans; ``Qs`` is the rest of the plan. The compile-time
metadata-first join reordering (in :mod:`repro.db.plan.rewrite`) maximizes
that branch before decomposition runs.

``Qs`` accesses the stage-1 result through the result-scan access path, so
shared work is never re-executed ("the sub-plan is not replicated — we
enable Qs to access the result of the sub-plan").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..db.errors import PlanError
from ..db.expr import ColumnRef, Comparison, conjuncts
from ..db.plan.logical import Join, LogicalPlan, ResultScan, Scan
from ..ingest.schema import URI_COLUMN

ClassifyFn = Callable[[str], bool]

QF_TAG = "qf"


@dataclass
class ActualScanInfo:
    """One actual-data scan in ``Qs`` and how it links to ``Qf``.

    ``link_key`` is the stage-1 output column whose distinct values identify
    this scan's files of interest (e.g. ``r.uri``); None means the query
    gives no metadata constraint for this table, so every repository file is
    of interest — the paper's worst case.
    """

    scan: Scan
    alias: str
    table_name: str
    uri_key: str  # e.g. "d.uri"
    link_key: Optional[str] = None


@dataclass
class Decomposition:
    """The two stages of one query plan."""

    plan: LogicalPlan  # the optimized single plan Q
    qf: Optional[LogicalPlan]  # metadata branch (stage 1); None if no metadata
    qs: Optional[LogicalPlan]  # the rest (stage 2); None if metadata-only
    metadata_only: bool
    actual_scans: list[ActualScanInfo] = field(default_factory=list)
    result_tag: str = QF_TAG

    def explain(self) -> str:
        """The full plan with the ``Qf`` branch marked (the paper's bold)."""
        return self.plan.explain(mark=self.qf)


def _is_metadata_subtree(node: LogicalPlan, classify: ClassifyFn) -> bool:
    """True when every leaf under ``node`` is a metadata-table scan."""
    has_scan = False
    for descendant in node.walk():
        if descendant.children():
            continue
        if not isinstance(descendant, Scan):
            return False
        if not classify(descendant.table_name):
            return False
        has_scan = True
    return has_scan


def _maximal_metadata_subtrees(
    node: LogicalPlan, classify: ClassifyFn
) -> list[LogicalPlan]:
    if _is_metadata_subtree(node, classify):
        return [node]
    found: list[LogicalPlan] = []
    for child in node.children():
        found.extend(_maximal_metadata_subtrees(child, classify))
    return found


def _scan_count(node: LogicalPlan) -> int:
    return sum(1 for n in node.walk() if isinstance(n, Scan))


def _replace_subtree(
    node: LogicalPlan, target: LogicalPlan, replacement: LogicalPlan
) -> LogicalPlan:
    if node is target:
        return replacement
    children = node.children()
    if not children:
        return node
    rebuilt = [_replace_subtree(child, target, replacement) for child in children]
    return node.with_children(rebuilt)


def _find_actual_scans(
    qs: LogicalPlan,
    qf: Optional[LogicalPlan],
    classify: ClassifyFn,
) -> list[ActualScanInfo]:
    qf_keys = set(qf.output_keys()) if qf is not None else set()
    join_pairs: list[tuple[str, str]] = []
    for node in qs.walk():
        if isinstance(node, Join) and node.condition is not None:
            for conj in conjuncts(node.condition):
                if (
                    isinstance(conj, Comparison)
                    and conj.op == "="
                    and isinstance(conj.left, ColumnRef)
                    and isinstance(conj.right, ColumnRef)
                ):
                    join_pairs.append((conj.left.key, conj.right.key))
                    join_pairs.append((conj.right.key, conj.left.key))

    infos: list[ActualScanInfo] = []
    for node in qs.walk():
        if not isinstance(node, Scan) or classify(node.table_name):
            continue
        uri_key = f"{node.alias}.{URI_COLUMN}"
        link = None
        for left, right in join_pairs:
            if left == uri_key and right in qf_keys:
                link = right
                break
        infos.append(
            ActualScanInfo(
                scan=node,
                alias=node.alias,
                table_name=node.table_name,
                uri_key=uri_key,
                link_key=link,
            )
        )
    return infos


def decompose(plan: LogicalPlan, classify: ClassifyFn) -> Decomposition:
    """Split an optimized plan into ``Qf`` and ``Qs``.

    "It is not needed to form Qf and Qs unless the query refers to both
    metadata and actual data": a metadata-only plan comes back with
    ``metadata_only=True`` (the whole query runs as stage 1) and a plan with
    no metadata at all comes back with ``qf=None`` (stage 1 is empty and
    every repository file is of interest).
    """
    if _is_metadata_subtree(plan, classify):
        return Decomposition(plan=plan, qf=plan, qs=None, metadata_only=True)

    candidates = _maximal_metadata_subtrees(plan, classify)
    qf: Optional[LogicalPlan] = None
    if candidates:
        qf = max(candidates, key=_scan_count)

    if qf is None:
        qs = plan
    else:
        if not qf.output:
            raise PlanError("metadata branch produces no columns")
        qs = _replace_subtree(plan, qf, ResultScan(QF_TAG, list(qf.output)))

    actual_scans = _find_actual_scans(qs, qf, classify)
    return Decomposition(
        plan=plan,
        qf=qf,
        qs=qs,
        metadata_only=False,
        actual_scans=actual_scans,
    )
