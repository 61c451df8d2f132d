"""Seeded chaos cells: one fixed fault plan at fixed points of the lattice.

Each cell is a point of the differential oracle's configuration lattice
(:mod:`repro.testing.oracle`) judged by its one verdict — ``mount_workers``
(1: a standalone executor; 4: a one-tenant query service's scheduler) ×
``on_mount_error`` × ``selective``. Recoverable faults (transient I/O
errors, read latency, mid-extraction rewrites) must leave the answer equal
to eager ingestion; an unrecoverable one must surface naming its file
(fail-fast) or be disclosed while the rest stays exact (skip).
"""

from __future__ import annotations

import itertools
import shutil

import pytest

from repro.testing import RECOVERABLE_KINDS, FaultPlan
from repro.testing import oracle
from repro.testing.oracle import ConfigPoint, Engine, FaultScript, run, verdicts

CHAOS_SEED = 20130610  # fixed: CI replays exactly this fault plan

# Both stages, grouping, and (when enabled) the record-granular selective
# path via the sample-time interval.
CHAOS_SQL = (
    "SELECT F.station, COUNT(*) AS n, SUM(D.sample_value) AS s "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time > '2010-01-10T06:00:00.000' "
    "AND D.sample_time < '2010-01-11T18:00:00.000' "
    "GROUP BY F.station ORDER BY F.station"
)

GRID = list(itertools.product((1, 4), ("fail", "skip"), (True, False)))
CELLS = [(w, s) for w in (1, 4) for s in (True, False)]
POLICIES = list(itertools.product((1, 4), ("fail", "skip")))
VICTIM = FaultScript(victim=2)  # every read of the third file fails


def _cell(reference, tmp_path, script, mount_workers=1, **point):
    point = ConfigPoint(
        mount_workers=mount_workers, tenants=int(mount_workers > 1), **point
    )
    return verdicts(run(reference, [CHAOS_SQL], tmp_path, point, script))


class TestChaosGrid:
    @pytest.mark.parametrize("workers,policy,selective", GRID)
    def test_recoverable_faults_byte_identical(
        self, reference, tmp_path, workers, policy, selective
    ):
        script = FaultScript(seed=CHAOS_SEED, rate=1.0)  # every file hit
        assert _cell(
            reference, tmp_path, script, mount_workers=workers,
            on_mount_error=policy, selective=selective,
        ) == ["rows"]

    @pytest.mark.parametrize("workers,policy", POLICIES)
    def test_every_seeded_fault_fires_in_a_whole_file_cell(
        self, reference, tmp_path, monkeypatch, workers, policy
    ):
        """A whole-file mount reads every record, so each file's fault —
        keyed by one of its record starts — fires, however few reads the
        mount makes."""
        plans, planned = [], oracle.fault_plan

        def kept(*args):
            plans.append(planned(*args))
            return plans[-1]

        monkeypatch.setattr(oracle, "fault_plan", kept)
        script = FaultScript(seed=CHAOS_SEED, rate=1.0)
        assert _cell(
            reference, tmp_path, script, mount_workers=workers,
            on_mount_error=policy, selective=False,
        ) == ["rows"]
        (plan,) = plans
        assert len(plan.specs) == len(reference.names)
        for spec in plan.specs:
            assert any(
                fault.uri.endswith(spec.uri_suffix) and fault.kind == spec.kind
                for fault in plan.log
            ), spec

    @pytest.mark.parametrize("workers,selective", CELLS)
    def test_unrecoverable_fault_surfaces_uri_fail_fast(
        self, reference, tmp_path, workers, selective
    ):
        assert _cell(
            reference, tmp_path, VICTIM, mount_workers=workers,
            selective=selective,
        ) == ["typed error"]

    @pytest.mark.parametrize("workers,selective", CELLS)
    def test_unrecoverable_fault_skipped_and_reported(
        self, reference, tmp_path, workers, selective
    ):
        assert _cell(
            reference, tmp_path, VICTIM, mount_workers=workers,
            on_mount_error="skip", selective=selective,
        ) == ["degradation"]

    def test_same_seed_same_grid_cell_same_log(self, reference, tmp_path):
        def log(name):
            shutil.copytree(reference.root, tmp_path / name)
            engine = Engine(
                ConfigPoint(on_mount_error="skip"),
                tmp_path / name, tmp_path / f"{name}-scratch",
            )
            plan = FaultPlan.seeded(
                CHAOS_SEED, reference.record_starts(),
                kinds=RECOVERABLE_KINDS, fault_rate=1.0,
            )
            with plan.install():
                engine.executor.execute(CHAOS_SQL)
            return plan.signature()

        assert log("first") == log("second")
