"""The engine's settings, pinned by name.

Each setting has one home: the executor's, the service's and the mount
scheduler's keywords, the tenant policy's, the session's and the binding's
fields, the mount service's fields. A new option — or a second home for an
existing one — fails here, so it arrives as a conscious edit of this list
rather than as one more keyword.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro.core import TwoStageExecutor
from repro.core.mounting import MountService
from repro.db.errors import IngestError
from repro.explore import ExplorationSession
from repro.ingest import RepositoryBinding
from repro.mseed import FileRepository
from repro.remote import (
    FederatedRepository,
    RemoteRepository,
    ResilientTransport,
    TransportPolicy,
)
from repro.serve import QueryService, TenantPolicy
from repro.serve.scheduler import MountScheduler


def _parameters(function) -> list[str]:
    return [
        name for name in inspect.signature(function).parameters
        if name != "self"
    ]


def _fields(cls) -> list[str]:
    return [field.name for field in fields(cls)]


def test_executor_parameters():
    assert _parameters(TwoStageExecutor.__init__) == [
        "db",
        "binding",
        "cache",
        "destiny",
        "strategy",
        "derived",
        "mount_workers",
        "on_mount_error",
        "selective_mounts",
        "budget",
        "top_n_pushdown",
    ]


def test_service_parameters():
    assert _parameters(QueryService.__init__) == [
        "repository",
        "db",
        "cache",
        "default_policy",
        "batch_window_seconds",
        "mount_workers",
        "max_concurrent_queries",
        "selective_mounts",
    ]


def test_scheduler_parameters():
    assert _parameters(MountScheduler.__init__) == [
        "extract",
        "workers",
        "batch_window_seconds",
        "clock",
    ]


def test_tenant_policy_fields():
    assert _fields(TenantPolicy) == [
        "max_queue_depth",
        "max_total_mount_bytes",
        "on_mount_error",
    ]


def test_remote_parameters():
    assert _parameters(RemoteRepository.__init__) == [
        "store",
        "staging_dir",
        "policy",
        "suffix",
    ]
    assert _parameters(ResilientTransport.__init__) == [
        "store",
        "policy",
        "clock",
    ]


# A repository hands over bytes; the format registry is not its business.
@pytest.mark.parametrize(
    "backend", [FileRepository, RemoteRepository, FederatedRepository]
)
@pytest.mark.parametrize("hook, parameters", [
    ("hold", ["uri", "request", "observed", "scope"]),
    ("source_for", ["uri", "scope"]),
    ("locate", ["scope"]),
])
def test_repository_hook_parameters(backend, hook, parameters):
    assert _parameters(getattr(backend, hook)) == parameters


def test_transport_policy_fields():
    assert _fields(TransportPolicy) == [
        "max_attempts",
        "backoff_seconds",
        "backoff_multiplier",
        "backoff_jitter",
        "retry_budget_attempts",
        "jitter_seed",
        "request_timeout_seconds",
        "breaker_failures",
        "breaker_cooldown_seconds",
    ]


def test_session_fields():
    assert _fields(ExplorationSession) == [
        "engine",
        "setup_seconds",
        "history",
    ]


def test_binding_fields():
    assert _fields(RepositoryBinding) == [
        "repository",
        "prune_by_time",
        "registry",
    ]


def test_mount_service_fields():
    assert _fields(MountService) == [
        "binding",
        "cache",
        "buffers",
        "selective",
        "record_map_provider",
        "file_span_provider",
        "_callbacks",
    ]


def test_an_actual_table_the_binding_does_not_serve_is_refused(tiny_repo):
    mounts = MountService(RepositoryBinding(tiny_repo))
    with pytest.raises(IngestError, match="has no repository binding"):
        mounts.mount_file(tiny_repo.uris()[0], "A1", "a", None)
