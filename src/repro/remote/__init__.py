"""Remote repositories over a resilient transport.

The remote subsystem makes ``remote://endpoint/key`` URIs first-class
sources: a :class:`SimulatedObjectStore` serves objects under a seeded
network model (latency, jitter, heavy tails, bandwidth, loss), a
:class:`ResilientTransport` wraps every request in a per-endpoint circuit
breaker, a per-query retry budget with jittered backoff, and a per-attempt
deadline, and a :class:`RemoteRepository` maps the
engine's selective-mount byte spans onto coalesced **ranged GETs** whose
bodies it holds in memory. :class:`FederatedRepository` lets one query span
local and remote sources with per-endpoint failure isolation.
"""

from .federation import FederatedRepository
from .netmodel import NetworkModel, NetworkProfile, interruptible_wait
from .repository import RemoteRepository, RemoteRepositoryStats
from .simstore import ObjectStat, SimStoreStats, SimulatedObjectStore
from .transport import ResilientTransport, TransportPolicy, TransportStats
from .uris import (
    REMOTE_SCHEME,
    endpoint_of,
    is_remote_uri,
    parse_remote_uri,
    remote_uri,
)

__all__ = [
    "FederatedRepository",
    "NetworkModel",
    "NetworkProfile",
    "ObjectStat",
    "REMOTE_SCHEME",
    "RemoteRepository",
    "RemoteRepositoryStats",
    "ResilientTransport",
    "SimStoreStats",
    "SimulatedObjectStore",
    "TransportPolicy",
    "TransportStats",
    "endpoint_of",
    "interruptible_wait",
    "is_remote_uri",
    "parse_remote_uri",
    "remote_uri",
]
