"""A small AST-walking lint framework.

Rules subclass :class:`Rule` and implement ``check(ctx)``, yielding
:class:`Violation` entries. :func:`run_lint` walks the given files/directories,
parses each Python file once into a :class:`FileContext` (AST plus parent
links), and runs every registered rule over it.

This is deliberately not a general-purpose linter: each rule encodes one
piece of project discipline that has already cost a debugging session (see
``tools/lint/rules.py``), and the whole thing runs from a checkout with no
third-party dependencies: ``python -m tools.lint src tests``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class FileContext:
    """One parsed source file, shared by every rule.

    ``parents`` maps each AST node to its parent so rules can look outward
    (e.g. "is this call lexically inside a ``with self._lock:`` body?").
    """

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ancestors from the immediate parent up to the module."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def relative_to(self, root: Path) -> str:
        try:
            return str(self.path.relative_to(root))
        except ValueError:
            return str(self.path)


class Rule:
    """Base class for lint rules. ``name`` is the tag shown in findings."""

    name = "rule"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=str(ctx.path),
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            message=message,
        )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand the given files/directories into ``.py`` files, sorted.

    Deduplicated by resolved path: a file named both directly and via a
    parent directory (``tools.lint src src/repro/core/cache.py``) is
    yielded — and therefore parsed and reported — exactly once.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            yield candidate


def parse_file(path: Path) -> Optional[FileContext]:
    """Parse one file; None (not a crash) when it fails to parse — a syntax
    error is the test suite's problem, not the linter's."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError):
        return None
    return FileContext(path, source, tree)


def run_lint(
    paths: Sequence[str], rules: Sequence[Rule]
) -> list[Violation]:
    """Run every rule over every Python file under ``paths``."""
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        ctx = parse_file(file_path)
        if ctx is None:
            continue
        for rule in rules:
            violations.extend(rule.check(ctx))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
