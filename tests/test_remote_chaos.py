"""Seeded network chaos cells: remote answers must not depend on the weather.

Points of the differential oracle's lattice (:mod:`repro.testing.oracle`)
behind the simulated endpoint, judged by its one verdict. Metadata comes
from a warm metastore, so every mount stages cold and every byte it moves
crosses the link under the fault plan: recoverable network faults
(refusals, mid-stream disconnects, stalls, objects changed mid-GET) must
leave the answer equal to eager ingestion for every ``mount_workers`` (1: a
standalone executor; 4: a one-tenant query service's scheduler) ×
``selective`` cell. A federation of a local member and a remote one keeps
its local answer exact while the endpoint is down, names the endpoint
under fail-fast, and recovers once the endpoint is back.
"""

from __future__ import annotations

import itertools
import shutil

import pytest

from repro.testing import RECOVERABLE_NETWORK_KINDS, FaultPlan
from repro.testing.oracle import ConfigPoint, Engine, FaultScript, run, verdicts

CHAOS_SEED = 20130610  # fixed: CI replays exactly this fault plan

# Station/count/sum over a sample-time window: both stages, grouping, and
# (when enabled) the record-granular ranged-GET path. It selects no ``uri``:
# remote URIs differ from local ones by construction, the data must not.
CHAOS_SQL = (
    "SELECT F.station, COUNT(*) AS n, SUM(D.sample_value) AS s "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time > '2010-01-10T06:00:00.000' "
    "AND D.sample_time < '2010-01-11T18:00:00.000' "
    "GROUP BY F.station ORDER BY F.station"
)

GRID = list(itertools.product((1, 4), (True, False)))  # workers × selective
REMOTE = dict(source="remote", metastore="warm")


class TestRemoteChaosGrid:
    @pytest.mark.parametrize("workers,selective", GRID)
    def test_recoverable_network_faults_byte_identical(
        self, reference, tmp_path, workers, selective
    ):
        point = ConfigPoint(
            mount_workers=workers, tenants=int(workers > 1),
            selective=selective, **REMOTE,
        )
        script = FaultScript(seed=CHAOS_SEED, rate=1.0, network=True)
        reached = run(reference, [CHAOS_SQL], tmp_path, point, script)
        assert verdicts(reached) == ["rows"]

    def test_same_seed_same_cell_same_fault_log(self, reference, tmp_path):
        def log(name):
            shutil.copytree(reference.root, tmp_path / name)
            engine = Engine(
                ConfigPoint(**REMOTE),
                tmp_path / name, tmp_path / f"{name}-scratch",
            )
            plan = FaultPlan.seeded(
                CHAOS_SEED, reference.record_starts(),
                kinds=RECOVERABLE_NETWORK_KINDS, fault_rate=1.0,
            )
            with plan.install():
                engine.executor.execute(CHAOS_SQL)
            engine.close()
            return plan.signature()

        assert log("first") == log("second")


class TestFederatedDegradation:
    """One query spanning a local xSEED member and a remote endpoint; the
    endpoint goes down after the first query (an ``outage``)."""

    def _federation(self, reference, tmp_path, policy, queries=2):
        point = ConfigPoint(source="federated", on_mount_error=policy)
        script = FaultScript(events=(("outage", 0),))
        return run(reference, [CHAOS_SQL] * queries, tmp_path, point, script)

    def test_both_sources_answer_when_healthy(self, reference, tmp_path):
        reached = run(
            reference, [CHAOS_SQL], tmp_path, ConfigPoint(source="federated")
        )
        assert verdicts(reached) == ["rows"]

    def test_dead_endpoint_skip_keeps_surviving_sources_exact(
        self, reference, tmp_path
    ):
        reached = self._federation(reference, tmp_path, "skip")
        assert verdicts(reached) == ["rows", "degradation"]

    def test_dead_endpoint_fail_fast_names_the_endpoint(
        self, reference, tmp_path
    ):
        reached = self._federation(reference, tmp_path, "fail")
        assert verdicts(reached) == ["rows", "typed error"]

    def test_flapping_endpoint_recovers_after_cooldown(
        self, reference, tmp_path
    ):
        reached = self._federation(reference, tmp_path, "skip", queries=3)
        assert verdicts(reached) == ["rows", "degradation", "rows"]
        assert "breaker half-open probe" in reached
