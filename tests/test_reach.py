"""``tools/reach.py``: which lines a run reaches, and what the report counts."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.reach import (  # noqa: E402
    Collector,
    by_caller,
    file_reach,
    load,
    main,
)

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


# A synthetic package, two fake test files and one entry point for the
# by-caller report.
PACKAGE = {
    "reachpkg/__init__.py": "",
    "reachpkg/core.py": '''CONSTANT = 3


def product(x):
    return helper(x) + 1


def helper(x):
    return x * 2


def guarded(x):
    if x < 0:
        return fallback(x)
    return x


def fallback(x):
    return -x


def only_its_test(x):
    return x + CONSTANT


def never(x):
    return x


class Widget:
    def used(self):
        return 1

    def test_only(self):
        return 2
''',
    "test_core.py": '''from reachpkg import core


def run():
    assert core.only_its_test(1) == 4
    assert core.guarded(-2) == 2
''',
    "test_widget.py": '''from reachpkg.core import Widget


def run():
    assert Widget().test_only() == 2
''',
    "entry.py": '''from reachpkg import core


def run():
    assert core.product(1) == 3
    assert core.guarded(1) == 1
    assert core.Widget().used() == 1
''',
}


def _traced(tmp_path: Path, modules: list[str], out: str) -> dict:
    collector = Collector(tmp_path / "reachpkg")
    collector.start()
    try:
        for name in modules:
            collector.attribute_to(f"{name}.py")
            importlib.import_module(name).run()
    finally:
        collector.stop()
    (tmp_path / out).write_text(json.dumps(collector.to_json()))
    return load([tmp_path / out])


def test_the_by_caller_report_sorts_code_by_who_reaches_it(tmp_path, monkeypatch):
    for name, source in PACKAGE.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("reachpkg", "reachpkg.core", "test_core", "test_widget", "entry"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tests = _traced(tmp_path, ["test_core", "test_widget"], "tests.json")
    entry = _traced(tmp_path, ["entry"], "entry.json")
    result = by_caller(tmp_path / "reachpkg", tests, entry)

    candidates = {row.label: row.owners for row in result.candidates}
    # Only its own test reaches it.
    assert candidates["core.py::only_its_test"] == ["test_core.py"]
    assert candidates["core.py::Widget.test_only"] == ["test_widget.py"]
    # Import-time lines are not reach: the module was imported under
    # test_core.py, and its def lines ran then.
    assert candidates["core.py::never"] == []
    assert "test_core.py" in tests["owners"]
    assert set(candidates) == {
        "core.py::only_its_test", "core.py::Widget.test_only", "core.py::never",
    }
    # A product caller (``guarded``, which the entry point reaches), and only
    # a test reaches it: a tests-only path, never a candidate.
    assert [(r.label, r.owners) for r in result.tests_only] == [
        ("core.py::fallback", ["test_core.py"])
    ]
    assert result.test_support == [] and result.unreached == []
