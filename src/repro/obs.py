"""One query's trace: where its time went, as nested spans and counters.

Each execution owns exactly one :class:`QueryTrace` (its
:class:`~repro.core.mounting.MountContext` creates it; a plain
:meth:`~repro.db.database.Database.execute` makes a fresh one). The
two-stage executor records ``compile`` / ``stage1`` / ``breakpoint`` /
``stage2``; every physical operator records an ``op`` span with its rows;
the mount path records one ``mount`` span per file the query consumed
(:class:`MountSpan`), wherever it was extracted. Counters carry
what is counted rather than timed — each mount-path event once, under one
name (``files_mounted``, ``cache_scans``, ``bytes_read``,
``stale_remounts``, …; the mount service counts them) — and
``lock_stats`` the lock-tracing layer's per-lock counters for the
execution's window. An executor's lifetime numbers are the sum of its
executions' counters
(:meth:`~repro.core.executor.TwoStageExecutor.totals`).

Only the query's own thread writes its trace, so it needs no lock: spans
nest by a plain depth counter, and ``spans`` is the tree in pre-order.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ._sync import LockStats

# Query ids are unique per process; next() on a count is atomic in CPython.
_query_ids = itertools.count(1)


@dataclass(slots=True)
class Span:
    """One timed step: ``seconds`` includes its children (the spans after
    it in pre-order with a greater ``depth``)."""

    name: str
    detail: str = ""
    depth: int = 0
    start: float = 0.0
    seconds: float = 0.0
    rows: Optional[int] = None

    def describe(self) -> str:
        rows = "" if self.rows is None else f"{self.rows} rows, "
        return f"{self.detail or self.name}  [{rows}{self.seconds * 1000:.2f} ms]"


@dataclass(slots=True)
class MountSpan(Span):
    """One consumed file: ``detail`` is its uri, ``seconds`` the consumer's
    wait for it; its cost is the extraction wherever it ran."""

    # The service worker that ran it (a consumer's steal is `workers`); 0
    # for a standalone query, which mounts on its own thread.
    worker: int = 0
    extract_seconds: float = 0.0  # real wall time spent extracting/decoding
    io_seconds: float = 0.0  # simulated disk seconds charged by the buffers

    def describe(self) -> str:
        return (
            f"mount {self.detail} on worker {self.worker}  [{self.rows} rows, "
            f"extract {self.extract_seconds * 1000:.2f} ms + "
            f"io {self.io_seconds * 1000:.2f} ms]"
        )


@dataclass
class QueryTrace:
    """The spans, counters and lock statistics of one execution."""

    tenant: str = ""
    query_id: int = field(default_factory=lambda: next(_query_ids))
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    lock_stats: dict[str, LockStats] = field(default_factory=dict)
    _depth: int = field(default=0, init=False, repr=False)

    def open(self, name: str, detail: str = "") -> Span:
        """Start a span under whichever span is open; end it with
        :meth:`close`."""
        span = Span(name, detail, self._depth, time.perf_counter())
        self.spans.append(span)
        self._depth += 1
        return span

    def close(self, span: Span) -> None:
        self._depth -= 1
        span.seconds = time.perf_counter() - span.start

    @contextmanager
    def span(self, name: str, detail: str = "") -> Iterator[Span]:
        span = self.open(name, detail)
        try:
            yield span
        finally:
            self.close(span)

    def record(self, span: Span) -> None:
        """Add a span timed elsewhere, under whichever span is open."""
        span.depth = self._depth
        self.spans.append(span)

    def seconds(self, name: str) -> float:
        """The summed seconds of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    @property
    def total_seconds(self) -> float:
        """The top-level spans' seconds: the execution's wall time."""
        return sum(s.seconds for s in self.spans if s.depth == 0)

    def render(self) -> str:
        """The span tree, one indented line per span, then the counters."""
        lines = [f"{'  ' * s.depth}{s.describe()}" for s in self.spans]
        if self.counters:
            lines.append(
                "counters: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            )
        return "\n".join(lines)


def worker_busy_seconds(trace: QueryTrace) -> dict[int, float]:
    """worker index → that worker's busy time (extraction plus simulated
    disk) over the files the traced query consumed. The sum is what the
    mounts would cost end-to-end on one worker; the maximum is the critical
    path — concurrent mounts overlap their simulated reads, so the phase's
    modeled wall time is the longest per-worker chain."""
    busy: dict[int, float] = {}
    for span in trace.spans:
        if isinstance(span, MountSpan):
            cost = span.extract_seconds + span.io_seconds
            busy[span.worker] = busy.get(span.worker, 0.0) + cost
    return busy
