"""``tools/reach.py``: which lines a run reaches, and what the report counts."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.reach import Collector, file_reach, main  # noqa: E402

SOURCE = '''"""A module docstring."""
from typing import Protocol


class Source(Protocol):
    def read(self) -> bytes:
        """A protocol stub."""
        ...


def called(x):
    if x > 0:
        return 1
    total = (x +
             2)
    return total


def uncalled(x):
    return (x *
            2)
'''


def _run_fixture(tmp_path: Path) -> tuple[Path, set[int]]:
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE)
    collector = Collector(tmp_path)
    collector.start()
    try:
        spec = importlib.util.spec_from_file_location("reach_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.called(-1) == 1
    finally:
        collector.stop()
    return path, collector.hits["fixture.py"]


def test_the_report_counts_what_the_run_missed(tmp_path):
    path, hits = _run_fixture(tmp_path)
    report = file_reach(path, "fixture.py", hits)
    assert report.code_lines == 13
    # The untaken branch and both lines of the uncalled multi-line return;
    # the reached multi-line statement counts whole.
    assert report.unreached == [13, 20, 21]
    assert report.stub_lines == [8]
    assert report.never_called == ["uncalled"]


def test_the_collector_restores_the_tracer_it_found(tmp_path):
    before = sys.gettrace()
    _run_fixture(tmp_path)
    assert sys.gettrace() is before


def test_main_reports_files_under_the_package(tmp_path, capsys):
    hits = tmp_path / "reach.json"
    hits.write_text(json.dumps({}))
    assert main([str(hits)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("src/repro: ")
    assert "  cli.py: " in out and ", main\n" in out
