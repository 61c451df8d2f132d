"""`repro.serve` — the multi-query service layer.

One shared Database + IngestionCache + MountScheduler serving many
concurrent sessions — the engine's one parallel-extraction path (a
standalone query mounts inline): queries pause at the stage-1/stage-2 breakpoint,
register their files of interest with a cross-query scheduler
(LifeRaft-style data-driven batching: popular files first, with
starvation aging), and every completed extraction feeds every waiting
query. Per-tenant admission control — queue-depth shedding, tenant byte
ledgers — and per-query budgets turn the single-user governor machinery
into a multi-user story.
"""

from .driver import (
    ComparisonReport,
    LoadResult,
    QueryOutcome,
    build_workload,
    run_comparison,
    run_service_load,
    run_standalone_baseline,
)
from .scheduler import (
    MountScheduler,
    SchedulerStats,
    SharedPoolClient,
)
from .service import (
    QueryService,
    ServiceStats,
    TenantClient,
    TenantPolicy,
    TenantState,
)

__all__ = [
    "MountScheduler",
    "SchedulerStats",
    "SharedPoolClient",
    "QueryService",
    "ServiceStats",
    "TenantClient",
    "TenantPolicy",
    "TenantState",
    "ComparisonReport",
    "LoadResult",
    "QueryOutcome",
    "build_workload",
    "run_comparison",
    "run_service_load",
    "run_standalone_baseline",
]
