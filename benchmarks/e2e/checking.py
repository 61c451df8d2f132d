"""Answer checking: every op's rows against an answer computed another way.

For seed 7 the expectation is committed (``expected/seed7.json``): the
eager-ingestion answer (the paper's Ei - ``eager_ingest`` + plain
``Database.execute``), keyed by a digest of the SQL. For any other seed every
tenth op is re-answered by a reference two-stage executor (whole-file mounts,
DISCARD cache, local repository). Answers are summarized and compared outside
every timed interval.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.db.types import DataType

EXPECTED_SEED = 7
EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / f"seed{EXPECTED_SEED}.json"
REFERENCE_EVERY = 10
FLOAT_RELATIVE_TOLERANCE = 1e-9


def sql_key(sql: str) -> str:
    return hashlib.sha1(sql.encode()).hexdigest()[:16]


def summarize(result: Any) -> dict[str, Any]:
    """An order-independent summary of a ``QueryResult``'s rows.

    Int-like columns (ints, timestamps, bools, strings) go into one exact
    digest, each column sorted on its own; float columns are kept as their
    sums (NaN when any value is NaN, e.g. AVG over nothing) and compared
    with a relative tolerance.
    """
    digest = hashlib.sha1()
    floats: list[float] = []
    for column in result.batch.columns:
        if column.dtype is DataType.FLOAT64:
            floats.append(float(np.sum(column.values)))
            continue
        values = column.decoded()
        if column.dtype is DataType.STRING:
            payload = "\x00".join(sorted(str(v) for v in values)).encode()
        else:
            payload = np.sort(values.astype(np.int64)).tobytes()
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)
    return {
        "rows": int(result.num_rows),
        "ints": digest.hexdigest()[:16],
        "floats": [None if math.isnan(v) else v for v in floats],
    }


def matches(got: dict[str, Any], want: dict[str, Any]) -> bool:
    if got["rows"] != want["rows"] or got["ints"] != want["ints"]:
        return False
    if len(got["floats"]) != len(want["floats"]):
        return False
    for a, b in zip(got["floats"], want["floats"]):
        if a is None or b is None:
            if a is not b:
                return False
        elif not math.isclose(
            a, b, rel_tol=FLOAT_RELATIVE_TOLERANCE, abs_tol=0.0
        ):
            return False
    return True


def load_expected() -> dict[str, dict[str, Any]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["answers"]


class Checker:
    """Decides, per op, what the right answer is and whether we got it."""

    def __init__(self, fixture: Any, seed: int) -> None:
        self._fixture = fixture
        self._expected = (
            load_expected()
            if seed == EXPECTED_SEED and EXPECTED_PATH.exists()
            else {}
        )
        self._reference: Any = None
        self._reference_answers: dict[str, dict[str, Any]] = {}
        self.checked = 0
        self.by_expectation = 0

    def _reference_answer(self, sql: str) -> dict[str, Any]:
        """Computed once per distinct op: the passes repeat the same ops."""
        if sql not in self._reference_answers:
            if self._reference is None:
                from workloads import reference_executor

                self._reference = reference_executor(self._fixture)
            self._reference_answers[sql] = summarize(
                self._reference.execute(sql).result
            )
        return self._reference_answers[sql]

    def wrong(self, index: int, sql: str, got: dict[str, Any]) -> Optional[str]:
        """None when the answer is right (or not sampled), else why not."""
        want = self._expected.get(sql_key(sql))
        if want is not None:
            self.by_expectation += 1
        elif index % REFERENCE_EVERY == 0:
            want = self._reference_answer(sql)
        else:
            return None
        self.checked += 1
        if matches(got, want):
            return None
        return f"op {index}: got {got}, want {want}"
