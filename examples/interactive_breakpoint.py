"""Interactive query execution: the explorer controls the query's destiny.

§5: "why can't he have a way to interfere with his own query's destiny,
when he sees that his query is running longer than he expected?" The
breakpoint between stages makes that possible:

* a cost budget aborts a would-be runaway query before any file is mounted,
* a limit policy degrades it to an approximate answer instead,
* a callback lets interactive code (here: a simulated explorer) decide,
* multi-stage execution streams a converging estimate batch by batch.

Run: ``python examples/interactive_breakpoint.py``
"""

import tempfile

from repro.core import (
    AbortAboveCost,
    CallbackPolicy,
    DestinyAction,
    DestinyDecision,
    LimitFilesAboveCost,
    MultiStageExecutor,
    TwoStageExecutor,
)
from repro.db import Database, QueryAbortedError
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec, generate_repository

SPEC = RepositorySpec(
    stations=("ISK", "ANK", "IZM"),
    channels=("BHE", "BHZ"),
    days=3,
    sample_rate=0.1,
    samples_per_record=1800,
)

# A poorly phrased explorative query: no metadata constraint at all, so its
# data of interest is the whole repository — the paper's worst case.
RUNAWAY = "SELECT AVG(sample_value) FROM D"


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        generate_repository(root, SPEC)
        repository = FileRepository(root)
        db = Database()
        lazy_ingest_metadata(db, repository)
        binding = RepositoryBinding(repository)

        # 1. Abort policy: the breakpoint stops the runaway before stage 2.
        guarded = TwoStageExecutor(
            db, binding, destiny=AbortAboveCost(max_files=6)
        )
        print("1) AbortAboveCost(max_files=6):")
        try:
            guarded.execute(RUNAWAY)
        except QueryAbortedError as err:
            info = err.breakpoint_info
            print(f"   aborted: {err}")
            print(f"   (estimate said: {info.estimate.summary()})")

        # 2. Limit policy: approximate instead of aborting.
        limited = TwoStageExecutor(
            db, binding, destiny=LimitFilesAboveCost(max_files=6, keep_files=4)
        )
        outcome = limited.execute(RUNAWAY)
        print("\n2) LimitFilesAboveCost(keep_files=4):")
        print(
            f"   approximate answer {outcome.rows[0][0]:.4f} from "
            f"{outcome.result.trace.counters['files_mounted']} of "
            f"{len(repository)} files (approximate={outcome.approximate})"
        )

        # 3. Callback policy: a (simulated) explorer reads the estimate and
        # decides live.
        def explorer_decides(report):
            print(f"   explorer sees: {report.summary()}")
            if report.est_stage2_seconds > 60:
                return DestinyDecision(DestinyAction.ABORT, reason="too slow")
            return DestinyDecision(
                DestinyAction.PROCEED, reason="looks worth the wait"
            )

        interactive = TwoStageExecutor(
            db, binding, destiny=CallbackPolicy(explorer_decides)
        )
        print("\n3) CallbackPolicy (interactive decision):")
        outcome = interactive.execute(RUNAWAY)
        print(f"   exact answer {outcome.rows[0][0]:.4f}")

        # 4. Multi-stage execution: ingest in batches, watch convergence.
        print("\n4) Multi-stage execution (batches of 4 files):")
        multi = MultiStageExecutor(
            TwoStageExecutor(db, binding), batch_files=4
        )
        result = multi.execute(RUNAWAY)
        for snap in result.snapshots:
            estimate = snap.running_rows[0][0]
            print(
                f"   after {snap.files_processed:2d}/{snap.total_files} files: "
                f"running AVG = {estimate:10.4f} "
                f"({snap.elapsed_seconds * 1000:6.1f} ms)"
            )
        print(f"   converged: {result.converged}")


if __name__ == "__main__":
    main()
