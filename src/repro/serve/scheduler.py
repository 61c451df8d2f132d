"""The mount scheduler under its service-layer name.

:mod:`repro.core.scheduler` holds it: a standalone execution runs as a
one-tenant batch of the same scheduler, and ``repro.core`` must not import
``repro.serve``. These re-exports keep ``repro.serve.scheduler`` working.
"""

from ..core.scheduler import (
    MountScheduler,
    SchedulerPolicy,
    SchedulerStats,
    SharedPoolClient,
)

__all__ = [
    "MountScheduler",
    "SchedulerPolicy",
    "SchedulerStats",
    "SharedPoolClient",
]
