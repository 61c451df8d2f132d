"""The mount scheduler under its service-layer name.

:mod:`repro.core.scheduler` holds it: a standalone execution runs as a
one-tenant batch of the same scheduler, and ``repro.core`` must not import
``repro.serve``. These re-exports keep ``repro.serve.scheduler`` working,
and the module stays because the end-to-end benchmark's span table
(``benchmarks/e2e/spans.py``) wraps ``SharedPoolClient.take`` through this
name: its ``serve.scheduler.take`` span resolves the class here.
"""

from ..core.scheduler import (
    MountScheduler,
    SchedulerStats,
    SharedPoolClient,
)

__all__ = [
    "MountScheduler",
    "SchedulerStats",
    "SharedPoolClient",
]
