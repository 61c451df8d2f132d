"""Which ``src/repro`` code lines a run never reaches, and who reaches the rest.

    PYTHONPATH=src python -m pytest -p tools.reach -q    # writes reach.json
    python -m tools.reach [reach.json ...]               # per-file report
    PYTHONPATH=src python -m tools.reach --entry [OUT]   # reach-entry.json
    python -m tools.reach --by-caller [TESTS.json [ENTRY.json]]

As a pytest plugin (``-p tools.reach``) the module traces every line run
under ``src/repro`` from before the first conftest is imported until the
session ends: ``sys.settrace`` on the main thread, ``threading.settrace`` on
every thread started after it. Each line is filed under its *owner*: the
test file whose item was running (a ``pytest_runtest_setup`` hook names it),
or ``<import>`` for what ran while modules were imported and tests
collected. Each call into the package is filed with its caller. The plugin
writes both to ``reach.json`` in the rootdir (``--reach-out`` names another
file) and prints the total.

As a script it reads one or more such files back (their hits merged) and
reports, per file, the code lines nothing ran, counted by
``tools.code_lines``' rule. A logical line is reached when any of its lines
ran; one without bytecode of its own (``else:``, ``try:``) shares the fate of
the line after it. Unreached lines in the body of a protocol stub (a function
whose body is only a docstring and ``...``) are listed apart and left out of
the count. Lines run in a subprocess are not seen.

``--entry`` runs the product's entry points (``tools/reach_entry.py``) in
one process under the same tracer, one owner per entry point.
``--by-caller`` joins the two files into the deletion-candidate table:
functions and classes that no entry point reaches and that only tests call.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
import types
from dataclasses import dataclass, field
from pathlib import Path

from tools.code_lines import statements

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
OUTPUT = "reach.json"
ENTRY_OUTPUT = "reach-entry.json"
IMPORT_OWNER = "<import>"
# Code under these package paths is test support: listed apart, never a
# deletion candidate, and a call from it is not a product call.
TEST_SUPPORT = ("testing/",)


class Collector:
    """Records ``(file, line)`` hits per owner, and the calls into them, for
    every ``.py`` file under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.owners: dict[str, dict[str, set[int]]] = {}
        # (callee file, callee first line, caller file or None, caller first
        # line); a caller outside ``root`` is None.
        self.calls: set[tuple] = set()
        self.notes: list[str] = []
        self._names: dict[str, str | None] = {}
        self._tracers: dict[str, object] = {}
        self._current: dict[str, set[int]] = {}
        self._saved: tuple = (None, None)
        self.attribute_to(IMPORT_OWNER)

    @property
    def hits(self) -> dict[str, set[int]]:
        """Every owner's hits, merged."""
        return _merge(self.owners.values())

    def attribute_to(self, owner: str) -> None:
        """File the lines of frames entered from now on under ``owner``."""
        self._current = self.owners.setdefault(owner, {})
        self._tracers = {}

    def _name(self, filename: str) -> str | None:
        try:
            return self._names[filename]
        except KeyError:
            path = Path(filename).resolve()
            inside = path.suffix == ".py" and path.is_relative_to(self.root)
            name = path.relative_to(self.root).as_posix() if inside else None
            self._names[filename] = name
            return name

    def _tracer_for(self, name: str):
        lines = self._current.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        try:
            tracer = self._tracers[filename]
        except KeyError:
            name = self._name(filename)
            tracer = self._tracers[filename] = (
                None if name is None else self._tracer_for(name)
            )
        if tracer is not None:
            caller = frame.f_back
            if caller is not None:
                back = caller.f_code
                self.calls.add((
                    filename, code.co_firstlineno,
                    back.co_filename, back.co_firstlineno,
                ))
        return tracer

    def start(self) -> None:
        self._saved = (sys.gettrace(), threading.gettrace())
        sys.settrace(self._global)
        threading.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])

    def to_json(self) -> dict:
        # Threads that outlive a run may still add files: copy first.
        owners = {
            owner: {name: sorted(lines) for name, lines in list(files.items())}
            for owner, files in list(self.owners.items())
        }
        calls = set()
        for callee, first, caller, caller_first in list(self.calls):
            callee_name = self._name(callee)
            caller_name = self._name(caller)
            calls.add((callee_name, first, caller_name,
                       caller_first if caller_name else 0))
        return {"owners": owners, "calls": sorted(calls, key=str),
                "notes": self.notes}


def _merge(owners) -> dict[str, set[int]]:
    merged: dict[str, set[int]] = {}
    for files in owners:
        _merge_into(merged, files)
    return merged


def load(paths) -> dict:
    """One or more ``reach.json`` files as one: owners' hits unioned, calls
    and notes concatenated. A file of the older flat ``{file: lines}`` shape
    is one owner, ``<all>``."""
    owners: dict[str, dict[str, set[int]]] = {}
    calls: set[tuple] = set()
    notes: list[str] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        if "owners" not in data:
            data = {"owners": {"<all>": data}}
        for owner, files in data["owners"].items():
            _merge_into(owners.setdefault(owner, {}), files)
        calls.update(tuple(call) for call in data.get("calls", ()))
        notes.extend(data.get("notes", ()))
    return {"owners": owners, "calls": calls, "notes": notes}


def _merge_into(target: dict[str, set[int]], files: dict) -> None:
    for name, lines in files.items():
        target.setdefault(name, set()).update(lines)


# -- the pytest plugin ---------------------------------------------------------

_collector: Collector | None = None


def pytest_addoption(parser):
    parser.addoption(
        "--reach-out", default=OUTPUT, metavar="FILE",
        help="where -p tools.reach writes its hits (default reach.json)",
    )


def pytest_load_initial_conftests(early_config, parser, args):
    global _collector
    if _collector is None:
        _collector = Collector(PACKAGE)
        _collector.start()


def pytest_runtest_setup(item):
    if _collector is not None:
        _collector.attribute_to(item.nodeid.split("::")[0])


def pytest_sessionfinish(session, exitstatus):
    if _collector is None:
        return
    _collector.stop()
    out = Path(session.config.rootpath, session.config.getoption("reach_out"))
    out.write_text(json.dumps(_collector.to_json()))


def pytest_terminal_summary(terminalreporter):
    if _collector is not None:
        reports = reach(PACKAGE, _collector.hits)
        out = terminalreporter.config.getoption("reach_out")
        terminalreporter.write_line(
            f"reach: {_summary(reports)} (per file: python -m tools.reach {out})"
        )


# -- the per-file report -------------------------------------------------------


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


def per_file_report(hits: dict[str, set[int]]) -> None:
    reports = reach(PACKAGE, hits)
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


# -- the by-caller report ------------------------------------------------------


@dataclass(eq=False)
class Unit:
    """A class, or a function that is not nested in another function."""

    file: str
    qualname: str
    kind: str  # "class" or "function"
    start: int  # first decorator line
    body: range  # the lines whose run counts as reach
    code: set[int]  # code lines of the whole definition
    stub: bool = False
    parent: "Unit | None" = None
    members: list["Unit"] = field(default_factory=list)

    @property
    def runs(self) -> set[int]:
        """The code lines whose run is this function's reach."""
        if self.kind == "class" or self.stub:
            return set()
        return self.code.intersection(self.body)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def label(self) -> str:
        return f"{self.file}::{self.qualname}"

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.body.stop - 1


def _units(path: Path, name: str) -> list[Unit]:
    tree = ast.parse(path.read_text())
    code = set().union(*statements(path))
    units: list[Unit] = []

    def visit(node: ast.AST, prefix: str, parent: Unit | None) -> None:
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if not (is_function or isinstance(child, ast.ClassDef)):
                continue
            start = min([child.lineno] + [d.lineno for d in child.decorator_list])
            span = range(start, child.end_lineno + 1)
            unit = Unit(
                name, prefix + child.name,
                "function" if is_function else "class", start,
                range(child.body[0].lineno if is_function else start,
                      child.end_lineno + 1),
                code.intersection(span),
                stub=is_function and _is_stub(child),
                parent=parent,
            )
            units.append(unit)
            if parent is not None:
                parent.members.append(unit)
            if not is_function:
                visit(child, unit.qualname + ".", unit)

    visit(tree, "", None)
    return units


def _references(path: Path) -> list[tuple[str, int, bool]]:
    """``(name, line, through self)`` for every name a file loads: bare names
    and attributes. Imports and string constants are not references."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            through_self = (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            )
            found.append((node.attr, node.lineno, through_self))
    return found


@dataclass
class Row:
    label: str
    code_lines: int
    owners: list[str]  # the test files that reach it


@dataclass
class ByCaller:
    candidates: list[Row]
    tests_only: list[Row]  # a product caller, but only tests reach it
    test_support: list[Row]
    unreached: list[Row]  # a product caller, and nothing reaches it
    notes: list[str]


def by_caller(root: Path, tests: dict, entry: dict) -> ByCaller:
    """Joins a test run's and an entry-point run's hits (``load`` shapes).

    A unit no entry point reaches is a *deletion candidate* unless package
    code outside the candidates and outside test support calls or names it:
    a dynamic call seen in either run, a load of a class or module-level
    function's name, or ``self.name`` inside its own class. With such a
    caller it is a *tests-only path* (fault handling, mostly) when tests
    reach it. Test support is code under ``TEST_SUPPORT`` and code that
    would be a candidate but that test support calls.
    """
    root = root.resolve()
    units: list[Unit] = []
    by_file: dict[str, list[Unit]] = {}
    references: dict[str, list[tuple[str, int, bool]]] = {}
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        by_file[name] = _units(path, name)
        units.extend(by_file[name])
        references[name] = _references(path)

    def unit_at(file: str, line: int) -> Unit | str:
        inner = None
        for unit in by_file.get(file, ()):
            if unit.contains(line) and (inner is None or unit.start > inner.start):
                inner = unit
        return inner if inner is not None else f"module:{file}"

    def reached_by(owners: dict) -> dict[Unit, set[str]]:
        found: dict[Unit, set[str]] = {}
        for owner, files in owners.items():
            for unit in units:
                if unit.runs.intersection(files.get(unit.file, ())):
                    found.setdefault(unit, set()).add(owner)
        return found

    # Who refers to what: dynamic calls, then static loads.
    referrers: dict[Unit, set] = {unit: set() for unit in units}
    starts = {(u.file, u.start): u for u in units if u.kind == "function"}
    for callee, first, caller, caller_first in (
            tests["calls"] | entry["calls"]):
        unit = starts.get((callee, first))
        if unit is not None and caller is not None:
            referrers[unit].add(unit_at(caller, caller_first))
    named: dict[str, list[Unit]] = {}
    for unit in units:
        if unit.kind == "class" or unit.parent is None:
            named.setdefault(unit.name, []).append(unit)
    for file, loads in references.items():
        for name, line, through_self in loads:
            if through_self:
                holder = unit_at(file, line)
                while isinstance(holder, Unit) and holder.kind == "function":
                    holder = holder.parent
                if isinstance(holder, Unit):
                    for member in holder.members:
                        if member.name == name:
                            referrers[member].add(unit_at(file, line))
            for unit in named.get(name, ()):
                referrers[unit].add(unit_at(file, line))
    for unit, found in referrers.items():
        found.discard(unit)
        for other in list(found):
            if isinstance(other, Unit) and _inside(other, unit):
                found.discard(other)

    def lift(reached: dict[Unit, set[str]]) -> dict[Unit, set[str]]:
        # A class is reached by whoever reaches a method or a referrer.
        for unit in reversed(units):
            if unit.kind != "class":
                continue
            owners = set()
            for member in unit.members:
                owners |= reached.get(member, set())
            for other in referrers[unit]:
                if isinstance(other, Unit):
                    owners |= reached.get(other, set())
            if owners:
                reached[unit] = owners
        return reached

    entry_reach = lift(reached_by(entry["owners"]))
    test_owners = {o: f for o, f in tests["owners"].items() if o != IMPORT_OWNER}
    test_reach = lift(reached_by(test_owners))

    def support(thing) -> bool:
        file = thing.file if isinstance(thing, Unit) else thing[len("module:"):]
        return file.startswith(TEST_SUPPORT)

    open_units = [u for u in units if u not in entry_reach and not u.stub]
    candidates = {u for u in open_units if not support(u)}
    while True:
        modules_out = {f"module:{f}" for f, us in by_file.items()
                       if not all(u in candidates for u in us)}

        def product_caller(unit: Unit) -> bool:
            for other in referrers[unit]:
                if support(other):
                    continue
                if other in modules_out or (
                        isinstance(other, Unit) and other not in candidates):
                    return True
            return False

        dropped = {u for u in candidates if product_caller(u)}
        if not dropped:
            break
        candidates -= dropped
    # What test support calls is test support, and so is what that calls.
    supported: set[Unit] = set()
    while True:
        found = {u for u in candidates - supported
                 if any(support(r) or r in supported for r in referrers[u])}
        if not found:
            break
        supported |= found
    candidates -= supported
    # A class is one row only when all of it is a candidate.
    candidates -= {u for u in candidates if u.kind == "class"
                   and not candidates.issuperset(u.members)}

    def row(label: str, code_lines: int, reachers: list[Unit]) -> Row:
        owners = set()
        for unit in reachers:
            owners |= test_reach.get(unit, set())
        return Row(label, code_lines, sorted(owners))

    result = ByCaller([], [], [], [], list(entry["notes"]))
    for file, file_units in by_file.items():
        if file_units and all(u in candidates for u in file_units):
            path = root / file
            result.candidates.append(row(
                f"{file} (module)", len(set().union(*statements(path))),
                file_units))
            continue
        for unit in file_units:
            if unit in candidates:
                if unit.parent is None or unit.parent not in candidates:
                    result.candidates.append(
                        row(unit.label(), len(unit.code), [unit]))
            elif unit in open_units and unit.kind == "function":
                target = (
                    result.test_support if support(unit) or unit in supported
                    else result.tests_only if unit in test_reach
                    else result.unreached
                )
                target.append(row(unit.label(), len(unit.code), [unit]))
    return result


def _inside(inner: Unit, outer: Unit) -> bool:
    parent = inner.parent
    while parent is not None:
        if parent is outer:
            return True
        parent = parent.parent
    return False


def by_caller_report(result: ByCaller) -> None:
    def section(title: str, rows: list[Row]) -> None:
        total = sum(r.code_lines for r in rows)
        print(f"{title}: {len(rows)} row(s), {total} code line(s)")
        for r in sorted(rows, key=lambda r: r.label):
            reached = ", ".join(r.owners) if r.owners else "nothing"
            print(f"  {r.label}: {r.code_lines} (reached by {reached})")

    section("deletion candidates (no entry point reaches it, only tests "
            "call it)", result.candidates)
    section("tests-only paths (a product caller, e.g. fault handling; only "
            "tests reach it)", result.tests_only)
    section("test support (only src/repro/testing calls it)",
            result.test_support)
    section("unreached (a product caller; nothing reaches it)",
            result.unreached)
    if result.notes:
        print("entry-point trips (lines still recorded):")
        for note in result.notes:
            print(f"  {note}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--entry"] and len(argv) <= 2:
        from tools.reach_entry import run

        return run(Path(argv[1] if len(argv) > 1 else ENTRY_OUTPUT))
    if argv[:1] == ["--by-caller"] and len(argv) <= 3:
        tests = load([argv[1] if len(argv) > 1 else OUTPUT])
        entry = load([argv[2] if len(argv) > 2 else ENTRY_OUTPUT])
        by_caller_report(by_caller(PACKAGE, tests, entry))
        return 0
    if any(arg.startswith("-") for arg in argv):
        print(__doc__)
        return 2
    per_file_report(_merge(load(argv or [OUTPUT])["owners"].values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
