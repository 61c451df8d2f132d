"""`repro.serve` — the multi-query service layer.

One shared Database + IngestionCache + MountScheduler serving many
concurrent sessions: queries pause at the stage-1/stage-2 breakpoint,
register their files of interest with a cross-query scheduler
(LifeRaft-style data-driven batching with a throughput ↔ fairness knob and
starvation aging), and every completed extraction feeds every waiting
query. Per-tenant admission control — queue-depth shedding, per-query
budgets, tenant byte ledgers — turns the single-user governor machinery
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
    SchedulerPolicy,
    SchedulerStats,
    SharedPoolClient,
)
from .service import (
    QueryService,
    ServiceStats,
    TenantClient,
    TenantPolicy,
    TenantSnapshot,
    TenantState,
)

__all__ = [
    "MountScheduler",
    "SchedulerPolicy",
    "SchedulerStats",
    "SharedPoolClient",
    "QueryService",
    "ServiceStats",
    "TenantClient",
    "TenantPolicy",
    "TenantSnapshot",
    "TenantState",
    "ComparisonReport",
    "LoadResult",
    "QueryOutcome",
    "build_workload",
    "run_comparison",
    "run_service_load",
    "run_standalone_baseline",
]
