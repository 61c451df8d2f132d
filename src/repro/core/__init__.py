"""`repro.core` — the paper's primary contribution.

Two-stage query execution with Automated Lazy ingestion (ALi): plan
decomposition ``Q = Qf ▷ Qs``, the inter-stage breakpoint with
informativeness estimation and query-destiny policies, run-time rewrite
rule (1) onto mount/cache-scan access paths, the ingestion cache design
space, derived metadata, and multi-stage execution.
"""

from .breakpoint import BreakpointInfo
from .cache import (
    CacheGranularity,
    CachePolicy,
    CacheStats,
    IngestionCache,
    WHOLE_FILE,
)
from .decompose import ActualScanInfo, Decomposition, decompose
from .derived import DERIVED_TABLE, DerivedMetadataStore, derived_table_schema
from .executor import BULK, PER_FILE, TwoStageExecutor, TwoStageResult
from .governor import (
    CancellationToken,
    ON_BUDGET_PARTIAL,
    ON_BUDGET_POLICIES,
    ON_BUDGET_RAISE,
    QueryBudget,
    QueryGovernor,
    TruncationReport,
)
from .informativeness import (
    AbortAboveCost,
    CallbackPolicy,
    CostModel,
    DestinyAction,
    DestinyDecision,
    DestinyPolicy,
    InformativenessReport,
    LimitFilesAboveCost,
    ProceedAlways,
    estimate_informativeness,
)
from .mounting import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    ExtractResult,
    MountContext,
    MountFailure,
    MountFailureReport,
    MountService,
    interval_from_predicate,
)
from .metastore import MetadataStore, MetastoreStats
from .multistage import BatchSnapshot, MultiStageExecutor, MultiStageResult
from .partial import PartialMerger, is_decomposable
from .rules import RewriteReport, apply_ali_rewrite, rewrite_actual_scan
from .topn import (
    TopNBranchMonitor,
    TopNPushdownTarget,
    branch_hulls,
    find_top_n_target,
)
from .verify import verify_ali_rewrite, verify_decomposition

__all__ = [
    "BreakpointInfo",
    "MetadataStore",
    "MetastoreStats",
    "CachePolicy",
    "CacheGranularity",
    "CacheStats",
    "IngestionCache",
    "WHOLE_FILE",
    "ActualScanInfo",
    "Decomposition",
    "decompose",
    "DERIVED_TABLE",
    "DerivedMetadataStore",
    "derived_table_schema",
    "TwoStageExecutor",
    "TwoStageResult",
    "BULK",
    "PER_FILE",
    "CostModel",
    "InformativenessReport",
    "estimate_informativeness",
    "DestinyPolicy",
    "DestinyAction",
    "DestinyDecision",
    "ProceedAlways",
    "AbortAboveCost",
    "LimitFilesAboveCost",
    "CallbackPolicy",
    "CancellationToken",
    "ON_BUDGET_PARTIAL",
    "ON_BUDGET_POLICIES",
    "ON_BUDGET_RAISE",
    "QueryBudget",
    "QueryGovernor",
    "TruncationReport",
    "MountContext",
    "MountService",
    "MountFailure",
    "MountFailureReport",
    "ExtractResult",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "interval_from_predicate",
    "MultiStageExecutor",
    "MultiStageResult",
    "BatchSnapshot",
    "PartialMerger",
    "is_decomposable",
    "RewriteReport",
    "apply_ali_rewrite",
    "rewrite_actual_scan",
    "TopNBranchMonitor",
    "TopNPushdownTarget",
    "branch_hulls",
    "find_top_n_target",
    "verify_ali_rewrite",
    "verify_decomposition",
]
