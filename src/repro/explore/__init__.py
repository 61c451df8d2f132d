"""`repro.explore` — the explorer-facing layer.

Data exploration is "not a one-query task. It involves exploration of the
data space by a lengthy sequence of queries" (§1). This package provides the
session abstraction for such sequences (with per-query breakpoint feedback
and data-to-insight accounting), SQL templates for the paper's Query 1 and
Query 2, explorative workload generators, and the STA/LTA event detector
seismologists run over query results.
"""

from .detect import detect_events, sta_lta
from .session import ExplorationSession, QueryEngine, SessionEntry
from .visualize import downsample, sparkline, waveform_panel
from .workload import (
    ExplorationStep,
    make_query1,
    make_query2,
    random_exploration,
    sweep_queries,
)

__all__ = [
    "ExplorationSession",
    "QueryEngine",
    "SessionEntry",
    "sta_lta",
    "detect_events",
    "make_query1",
    "make_query2",
    "random_exploration",
    "sweep_queries",
    "ExplorationStep",
    "downsample",
    "sparkline",
    "waveform_panel",
]
