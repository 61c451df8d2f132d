"""Deterministic network modeling for the simulated object store.

A :class:`NetworkProfile` declares the link's shape — base request latency
with jitter, an optional heavy tail, a bandwidth cap, and a per-request
loss probability. A :class:`NetworkModel` turns it into *deterministic*
per-request draws: every ``(key, access-index)`` pair gets its own
``random.Random`` seeded from the model seed, so the n-th request for a key
sees the same latency and the same loss verdict no matter how mount-worker
threads interleave. That is what makes the remote chaos grid replayable.

Waits are interruptible: :func:`interruptible_wait` waits on the query's
cancellation token, so a cancelled query stops paying modeled latency at
once.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, fields
from typing import Optional

from .. import _sync

# Fallback event for waits with no token wired — same code path, never set.
_NEVER = threading.Event()


def interruptible_wait(seconds: float, token: Optional[object] = None) -> bool:
    """Wait up to ``seconds``; True when ``token`` fired first.

    ``token`` is a :class:`~repro.core.governor.CancellationToken` duck type
    (``wait(timeout)`` answers whether it fired); without one the wait runs
    to completion.
    """
    if token is None:
        _NEVER.wait(seconds)
        return False
    return bool(token.wait(seconds))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class NetworkProfile:
    """The link shape between the engine and one endpoint.

    ``latency_seconds`` is the per-request setup cost (the thing ranged-GET
    coalescing amortizes); ``bandwidth_bytes_per_second`` streams the
    payload (None = infinite); ``jitter`` spreads latency uniformly in
    ``[1-jitter, 1+jitter]``; the heavy tail turns a ``heavy_tail_probability``
    fraction of requests into ``heavy_tail_multiplier``× stragglers;
    ``loss_probability`` resets that fraction of requests mid-flight.
    """

    latency_seconds: float = 0.0
    jitter: float = 0.0
    bandwidth_bytes_per_second: Optional[float] = None
    loss_probability: float = 0.0
    heavy_tail_probability: float = 0.0
    heavy_tail_multiplier: float = 10.0

    def __post_init__(self) -> None:
        for field in fields(self):  # every field is a float
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if (
            self.bandwidth_bytes_per_second is not None
            and self.bandwidth_bytes_per_second <= 0
        ):
            raise ValueError("bandwidth_bytes_per_second must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if not 0.0 <= self.heavy_tail_probability < 1.0:
            raise ValueError("heavy_tail_probability must be in [0, 1)")
        if self.heavy_tail_multiplier < 1.0:
            raise ValueError("heavy_tail_multiplier must be >= 1")


@dataclass(frozen=True)
class RequestDraw:
    """One request's modeled fate: its setup latency and whether it is lost."""

    latency_seconds: float
    lost: bool
    heavy_tailed: bool


@_sync.guarded
class NetworkModel:
    """Per-``(key, access-index)`` deterministic draws over a profile.

    The per-key access counter lives behind a lock, but the draw itself is
    a pure function of ``(seed, key, index)`` — thread interleaving can
    reorder *which* request gets index n, never what index n costs.
    """

    def __init__(self, profile: NetworkProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._lock = _sync.create_lock("NetworkModel._lock")
        self._accesses: dict[str, int] = {}  # guarded-by: _lock

    def draw(self, key: str) -> RequestDraw:
        with self._lock:
            index = self._accesses.get(key, 0)
            self._accesses[key] = index + 1
        rng = random.Random(f"{self.seed}:{key}:{index}")
        profile = self.profile
        latency = profile.latency_seconds
        if profile.jitter > 0:
            latency *= 1.0 + profile.jitter * (2.0 * rng.random() - 1.0)
        heavy = (
            profile.heavy_tail_probability > 0
            and rng.random() < profile.heavy_tail_probability
        )
        if heavy:
            latency *= profile.heavy_tail_multiplier
        lost = (
            profile.loss_probability > 0
            and rng.random() < profile.loss_probability
        )
        return RequestDraw(latency_seconds=latency, lost=lost, heavy_tailed=heavy)

    def transfer_seconds(self, nbytes: int) -> float:
        """Streaming time for ``nbytes`` under the bandwidth cap."""
        bandwidth = self.profile.bandwidth_bytes_per_second
        if bandwidth is None or nbytes <= 0:
            return 0.0
        return nbytes / bandwidth


__all__ = [
    "NetworkModel",
    "NetworkProfile",
    "RequestDraw",
    "interruptible_wait",
]
