"""Which ``src/repro`` code lines a pytest run never reaches.

    PYTHONPATH=src python -m pytest -p tools.reach -q   # writes reach.json
    python -m tools.reach [reach.json]                  # per-file report

As a pytest plugin (``-p tools.reach``) the module traces every line run
under ``src/repro`` from before the first conftest is imported until the
session ends: ``sys.settrace`` on the main thread, ``threading.settrace`` on
every thread started after it. It writes the lines it saw to ``reach.json``
in the rootdir and prints the total. As a script it reads that file back and
reports, per file, the code lines nothing ran, counted by
``tools.code_lines``' rule. A logical line is reached when any of its lines
ran; one without bytecode of its own (``else:``, ``try:``) shares the fate of
the line after it. Unreached lines in the body of a protocol stub (a function
whose body is only a docstring and ``...``) are listed apart and left out of
the count. Lines run in a subprocess are not seen.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
import types
from dataclasses import dataclass
from pathlib import Path

from tools.code_lines import statements

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
OUTPUT = "reach.json"


class Collector:
    """Records ``(file, line)`` hits for every ``.py`` file under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, object] = {}
        self._saved: tuple = (None, None)

    def _tracer_for(self, filename: str):
        path = Path(filename).resolve()
        if path.suffix != ".py" or not path.is_relative_to(self.root):
            return None
        name = path.relative_to(self.root).as_posix()
        lines = self.hits.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            tracer = self._tracers[filename] = self._tracer_for(filename)
            return tracer

    def start(self) -> None:
        self._saved = (sys.gettrace(), threading.gettrace())
        sys.settrace(self._global)
        threading.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


_collector: Collector | None = None


def pytest_load_initial_conftests(early_config, parser, args):
    global _collector
    if _collector is None:
        _collector = Collector(PACKAGE)
        _collector.start()


def pytest_sessionfinish(session, exitstatus):
    if _collector is None:
        return
    _collector.stop()
    # Threads that outlive the session may still add files: copy first.
    hits = {
        name: sorted(lines) for name, lines in list(_collector.hits.items())
    }
    Path(session.config.rootpath, OUTPUT).write_text(json.dumps(hits))


def pytest_terminal_summary(terminalreporter):
    if _collector is not None:
        reports = reach(PACKAGE, _collector.hits)
        terminalreporter.write_line(
            f"reach: {_summary(reports)} "
            f"(per file: python -m tools.reach {OUTPUT})"
        )


@dataclass
class FileReach:
    name: str
    code_lines: int
    unreached: list[int]
    stub_lines: list[int]  # unreached lines inside protocol stubs
    never_called: list[str]


def _executable_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable_lines(const)
    return lines


def _functions(tree: ast.AST):
    """``(qualified name, node)`` for every function, nested ones included."""
    pending: list[tuple[str, ast.AST]] = [("", tree)]
    while pending:
        prefix, node = pending.pop()
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
            pending.append((f"{prefix}{name}." if name else prefix, child))


def _is_stub(function: ast.AST) -> bool:
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in function.body
    )


def file_reach(path: Path, name: str, hit: set[int]) -> FileReach:
    source = path.read_text()
    executable = _executable_lines(compile(source, str(path), "exec"))
    logical = statements(path)
    missed: set[int] = set()
    reached = True
    for lines in reversed(logical):
        if hit.intersection(lines):
            reached = True
        elif executable.intersection(lines):
            reached = False
        if not reached:
            missed.update(lines)
    stub_lines: set[int] = set()
    code = set().union(*logical)
    never_called = []
    for qualname, function in _functions(ast.parse(source)):
        body = range(function.body[0].lineno, function.end_lineno + 1)
        if _is_stub(function):
            stub_lines.update(body)
        elif missed.issuperset(code.intersection(body)):
            never_called.append(qualname)
    return FileReach(
        name,
        len(code),
        sorted(missed - stub_lines),
        sorted(missed & stub_lines),
        sorted(never_called),
    )


def reach(root: Path, hits: dict[str, set[int]]) -> list[FileReach]:
    reports = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        reports.append(file_reach(path, name, set(hits.get(name, ()))))
    return reports


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _summary(reports: list[FileReach]) -> str:
    unreached = sum(len(r.unreached) for r in reports)
    stubs = sum(len(r.stub_lines) for r in reports)
    code = sum(r.code_lines for r in reports)
    functions = sum(len(r.never_called) for r in reports)
    return (
        f"{unreached} of {code} code lines unreached, {functions} "
        f"function(s) never called; {stubs} protocol stub line(s) not counted"
    )


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__)
        return 2
    data = json.loads(Path(argv[0] if argv else OUTPUT).read_text())
    reports = reach(PACKAGE, data)
    print(f"{PACKAGE.relative_to(REPO_ROOT)}: {_summary(reports)}")
    for report in sorted(reports, key=lambda r: (-len(r.unreached), r.name)):
        if not report.unreached:
            continue
        print(
            f"  {report.name}: {len(report.unreached)} of "
            f"{report.code_lines} unreached: {_ranges(report.unreached)}"
        )
        if report.never_called:
            print(f"    never called: {', '.join(report.never_called)}")
    stubs = [r for r in reports if r.stub_lines]
    if stubs:
        print("protocol stubs (not counted):")
        for report in stubs:
            print(f"  {report.name}: {_ranges(report.stub_lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
