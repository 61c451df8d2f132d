"""The inter-stage breakpoint.

Two-stage execution "creates breakpoints within the queries" — this module
is what the system knows at that point: the files of interest computed by
``Qf``, what is already cached, the informativeness estimate, and the destiny
decision that was taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .informativeness import DestinyDecision, InformativenessReport
from .rules import RewriteReport


@dataclass
class BreakpointInfo:
    """Everything known between stage 1 and stage 2 of one query."""

    files_by_alias: dict[str, list[str]] = field(default_factory=dict)
    pruned_by_time: int = 0  # files dropped via metadata time spans
    stage1_rows: int = 0
    estimate: Optional[InformativenessReport] = None
    decision: Optional[DestinyDecision] = None
    rewrite: Optional[RewriteReport] = None
    answered_from_derived: bool = False
    # The query's fused actual-data time interval (None when unbounded or
    # metadata-only): sizes the estimate, feeds the workload predictor.
    query_interval: Optional[tuple[int, int]] = None

    @property
    def files_of_interest(self) -> list[str]:
        """Union of per-alias files, deterministic order."""
        seen: dict[str, None] = {}
        for files in self.files_by_alias.values():
            for uri in files:
                seen.setdefault(uri)
        return list(seen)

    @property
    def n_files(self) -> int:
        return len(self.files_of_interest)

    def summary(self) -> str:
        lines = [
            f"stage 1: {self.stage1_rows} metadata rows; "
            f"{self.n_files} file(s) of interest"
        ]
        if self.pruned_by_time:
            lines.append(
                f"{self.pruned_by_time} file(s) pruned via metadata time spans"
            )
        if self.estimate is not None:
            lines.append(self.estimate.summary())
        if self.decision is not None and self.decision.reason:
            lines.append(
                f"destiny: {self.decision.action.value} ({self.decision.reason})"
            )
        if self.answered_from_derived:
            lines.append("answered from derived metadata — no files mounted")
        if self.rewrite is not None:
            lines.append(
                f"rule (1): {self.rewrite.mounts} mount(s), "
                f"{self.rewrite.cache_scans} cache-scan(s)"
            )
        return "\n".join(lines)
