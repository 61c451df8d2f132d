"""Query informativeness and query-destiny control (§5).

"Since we have a two-stage query execution paradigm and we gain some
knowledge in the first stage, we can also anticipate the query's
informativeness … let the explorer learn expected time and resource
consumption of his query at the breakpoint and let him even change the
destiny of his query."

The estimate needs no actual data: files of interest (stage-1 output) joined
with the file-level metadata already in ``F`` give tuple and byte counts,
and a calibrated cost model turns those into expected stage-2 seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..db.buffer import DiskModel
from ..db.stats import FileStatistics, StatisticsCatalog


@dataclass
class CostModel:
    """Calibrated constants translating metadata into expected seconds."""

    disk: DiskModel = field(default_factory=DiskModel)
    extract_tuples_per_second: float = 4e6  # mount: decompress + transform
    process_tuples_per_second: float = 2e7  # stage-2 joins and aggregates

    def mount_seconds(self, nbytes: int, tuples: int) -> float:
        return self.disk.read_seconds(nbytes) + tuples / self.extract_tuples_per_second

    def stage2_seconds(self, nbytes: int, tuples: int) -> float:
        return self.mount_seconds(nbytes, tuples) + (
            tuples / self.process_tuples_per_second
        )


@dataclass
class InformativenessReport:
    """What the system can tell the explorer at the breakpoint."""

    files: int
    repository_files: int  # rows of F: the repository as the engine sees it
    cached_files: int
    est_tuples: int
    est_bytes: int
    est_mount_seconds: float
    est_stage2_seconds: float
    selectivity: float  # fraction of the repository's files touched
    score: float  # in [0, 1]; higher = more informative per unit cost
    est_result_rows: Optional[int] = None  # retrieval-size estimate

    def summary(self) -> str:
        text = (
            f"{self.files}/{self.repository_files} files of interest "
            f"({self.selectivity:.1%} of repository, {self.cached_files} cached); "
            f"~{self.est_tuples:,} tuples / {self.est_bytes:,} bytes to ingest; "
            f"expected stage-2 time ~{self.est_stage2_seconds:.2f}s; "
            f"informativeness score {self.score:.3f}"
        )
        if self.est_result_rows is not None:
            text += f"; ~{self.est_result_rows:,} rows in the time window"
        return text


def _window_rows(
    known: Sequence[FileStatistics], interval: tuple[int, int]
) -> int:
    """Estimated tuples inside the requested time window, by assuming each
    file's samples are uniform over its metadata span (§5's "anticipate the
    query's informativeness" — here, the expected answer size)."""
    lo, hi = interval
    total = 0.0
    for stats in known:
        start, end = stats.span
        span = max(end - start, 1)
        overlap = max(0, min(end, hi) - max(start, lo))
        total += stats.nsamples * min(overlap / span, 1.0)
    return int(round(total))


def estimate_informativeness(
    stats: StatisticsCatalog,
    files_of_interest: Sequence[str],
    cached_uris: set[str],
    cost_model: Optional[CostModel] = None,
    interval: Optional[tuple[int, int]] = None,
) -> InformativenessReport:
    """Estimate stage-2 cost and informativeness from metadata alone.

    ``stats`` is the per-file statistics snapshot of ``F``; only the files of
    interest are looked up in it, so the estimate costs O(files of interest).
    The repository, for this purpose, is the files ``F`` describes: a file
    absent from ``F`` can never be a file of interest.

    The score is a documented heuristic: a query is informative when it
    narrows the data space (low selectivity) and is cheap to run —
    ``score = (1 - selectivity) / (1 + est_stage2_seconds)``, with an empty
    files-of-interest set scoring a full 1.0 (instant, decisive answer).
    ``interval`` (the sample-time bounds of the actual-data predicate)
    additionally yields an expected answer size, assuming samples uniform
    over each file's metadata time span.
    """
    cost_model = cost_model or CostModel()
    repository_files = len(stats.files)
    known = [stats.files[u] for u in files_of_interest if u in stats.files]
    to_mount = [f for f in known if f.uri not in cached_uris]
    cached = sum(1 for u in files_of_interest if u in cached_uris)
    est_tuples = sum(f.nsamples for f in known)
    est_bytes = sum(f.size_bytes for f in to_mount)
    mount_tuples = sum(f.nsamples for f in to_mount)
    est_mount = cost_model.mount_seconds(est_bytes, mount_tuples)
    est_stage2 = cost_model.stage2_seconds(est_bytes, est_tuples)
    selectivity = (
        len(files_of_interest) / repository_files if repository_files else 0.0
    )
    if not files_of_interest:
        score = 1.0
    else:
        score = max(0.0, (1.0 - selectivity) / (1.0 + est_stage2))
    est_result_rows = None
    if interval is not None:
        est_result_rows = _window_rows(known, interval)
    return InformativenessReport(
        files=len(files_of_interest),
        repository_files=repository_files,
        cached_files=cached,
        est_tuples=est_tuples,
        est_bytes=est_bytes,
        est_mount_seconds=est_mount,
        est_stage2_seconds=est_stage2,
        selectivity=selectivity,
        score=score,
        est_result_rows=est_result_rows,
    )


# -- query destiny -------------------------------------------------------------


class DestinyAction(enum.Enum):
    """What happens to the query at the breakpoint."""

    PROCEED = "proceed"
    ABORT = "abort"
    LIMIT = "limit"  # proceed, but over at most ``max_files`` files


@dataclass(frozen=True)
class DestinyDecision:
    action: DestinyAction
    max_files: Optional[int] = None
    reason: str = ""


class DestinyPolicy:
    """Decides a query's destiny from the breakpoint report."""

    def decide(self, report: InformativenessReport) -> DestinyDecision:
        raise NotImplementedError


class ProceedAlways(DestinyPolicy):
    """The default: never interfere (plain ALi behaviour)."""

    def decide(self, report: InformativenessReport) -> DestinyDecision:
        return DestinyDecision(DestinyAction.PROCEED)


@dataclass
class AbortAboveCost(DestinyPolicy):
    """Abort queries whose anticipated stage-2 cost exceeds a budget —
    the guard against "the worst case of ALi" (§5)."""

    max_seconds: Optional[float] = None
    max_files: Optional[int] = None
    max_tuples: Optional[int] = None

    def decide(self, report: InformativenessReport) -> DestinyDecision:
        if self.max_seconds is not None and report.est_stage2_seconds > self.max_seconds:
            return DestinyDecision(
                DestinyAction.ABORT,
                reason=(
                    f"expected stage-2 time {report.est_stage2_seconds:.2f}s "
                    f"exceeds budget {self.max_seconds:.2f}s"
                ),
            )
        if self.max_files is not None and report.files > self.max_files:
            return DestinyDecision(
                DestinyAction.ABORT,
                reason=f"{report.files} files of interest exceed budget "
                f"{self.max_files}",
            )
        if self.max_tuples is not None and report.est_tuples > self.max_tuples:
            return DestinyDecision(
                DestinyAction.ABORT,
                reason=f"~{report.est_tuples} tuples exceed budget "
                f"{self.max_tuples}",
            )
        return DestinyDecision(DestinyAction.PROCEED)


@dataclass
class LimitFilesAboveCost(DestinyPolicy):
    """Degrade to an approximate answer over the first ``keep_files`` files
    instead of aborting (queries-as-answers flavour)."""

    max_files: int
    keep_files: int

    def decide(self, report: InformativenessReport) -> DestinyDecision:
        if report.files > self.max_files:
            return DestinyDecision(
                DestinyAction.LIMIT,
                max_files=self.keep_files,
                reason=f"limited to first {self.keep_files} of "
                f"{report.files} files",
            )
        return DestinyDecision(DestinyAction.PROCEED)


@dataclass
class CallbackPolicy(DestinyPolicy):
    """Delegate the decision to user code — the interactive explorer hook."""

    callback: Callable[[InformativenessReport], DestinyDecision]

    def decide(self, report: InformativenessReport) -> DestinyDecision:
        return self.callback(report)
