"""Golden plan snapshots for the EXPERIMENTS workload queries.

Each golden file records the logical plan after every compile-time pass,
the two-stage decomposition with ``Qf`` marked, and the stage-2 plan after
the run-time ALi rewrite (rule (1)). A diff here means a rewrite pass
changed behavior — which must be deliberate.

Regenerate with ``REPRO_UPDATE_GOLDENS=1 pytest tests/test_plan_snapshots.py``
and review the diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import TwoStageExecutor, apply_ali_rewrite, decompose
from repro.db.plan.rewrite import (
    cost_based_join_order,
    fuse_top_n,
    metadata_first_join_order,
    prune_columns,
    push_down_selections,
)
from repro.ingest import RepositoryBinding

from conftest import QUERY1, QUERY2

GOLDEN_DIR = Path(__file__).parent / "golden_plans"


def render_snapshot(executor: TwoStageExecutor, sql: str) -> str:
    """The full pass-by-pass plan trajectory of one query, as stable text."""
    db = executor.db
    classify = db.catalog.is_metadata_table
    sections: list[tuple[str, str]] = []

    plan = db.bind_sql(sql)
    sections.append(("bind", plan.explain()))
    plan = push_down_selections(plan)
    sections.append(("push-down-selections", plan.explain()))
    plan = metadata_first_join_order(plan, classify)
    sections.append(("metadata-first-join-order", plan.explain()))
    plan = push_down_selections(plan)
    sections.append(("push-down-selections (2)", plan.explain()))
    plan = fuse_top_n(plan)
    sections.append(("fuse-top-n", plan.explain()))
    plan = cost_based_join_order(plan, executor.statistics(), classify)
    sections.append(("cost-based-join-order", plan.explain()))
    plan = prune_columns(plan)
    sections.append(("prune-columns", plan.explain()))

    decomposition = decompose(plan, classify)
    sections.append(("decomposition (Qf marked *)", decomposition.explain()))

    if not decomposition.metadata_only:
        ctx = db.make_context(mounter=executor.mounts)
        if decomposition.qf is not None:
            stage1 = db.execute_plan(decomposition.qf, ctx)
            ctx.results[decomposition.result_tag] = stage1.batch
        files_by_alias = executor._files_of_interest(decomposition, ctx)
        files_by_alias, _ = executor._prune_by_time(
            decomposition, files_by_alias
        )
        assert decomposition.qs is not None
        rewritten = apply_ali_rewrite(
            decomposition.qs, files_by_alias, executor.cache
        )
        sections.append(("stage-2 after ALi rewrite (rule 1)", rewritten.explain()))

    blocks = [f"== {title} ==\n{body}" for title, body in sections]
    return "\n\n".join(blocks) + "\n"


def _check_golden(name: str, actual: str) -> None:
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(actual, encoding="utf-8")
        return
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; run with REPRO_UPDATE_GOLDENS=1 "
        "to create it"
    )
    expected = golden_path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"plan snapshot for {name!r} changed; if intentional, regenerate "
        f"with REPRO_UPDATE_GOLDENS=1 and review the diff\n--- actual ---\n"
        f"{actual}"
    )


@pytest.mark.parametrize(
    "name,sql",
    [("query1", QUERY1), ("query2", QUERY2)],
    ids=["query1", "query2"],
)
def test_workload_plan_snapshots(ali_db, tiny_repo, name, sql):
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    _check_golden(name, render_snapshot(executor, sql))


def test_metadata_only_snapshot(ali_db, tiny_repo):
    sql = (
        "SELECT F.station, COUNT(*) AS files FROM F "
        "GROUP BY F.station ORDER BY F.station"
    )
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    _check_golden("metadata_only", render_snapshot(executor, sql))


def test_top_n_snapshot(ali_db, tiny_repo):
    """Pins the fuse-top-n and cost-based-join-order passes end to end."""
    sql = (
        "SELECT D.sample_time, D.sample_value FROM F "
        "JOIN R ON F.uri = R.uri "
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE F.station = 'ISK' "
        "ORDER BY D.sample_time DESC LIMIT 5"
    )
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    _check_golden("topn", render_snapshot(executor, sql))


def test_snapshot_is_deterministic(ali_db, tiny_repo):
    executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
    first = render_snapshot(executor, QUERY1)
    second = render_snapshot(executor, QUERY1)
    assert first == second
