"""Count code lines: non-blank, non-comment, non-docstring, via ``tokenize``.

    python -m tools.code_lines src/repro [OTHER_TREE]

Prints one total per tree; with two trees, also the per-file differences. A
tree may be a single ``.py`` file, counted as a one-file tree.
This is the counter behind the "less code" acceptance lines in ISSUE.md /
CHANGES.md: a line counts when it carries at least one token that is not a
comment, not layout, and not a string standing alone as a statement (a
docstring). Reformatting a signature over more lines therefore counts as
more code, and a longer docstring does not.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def statements(path: Path) -> list[list[int]]:
    """The code lines of each logical line that has any, in file order."""
    found: list[list[int]] = []
    lines: set[int] = set()
    with open(path, "rb") as handle:
        at_statement_start = True
        pending = None  # a string that may turn out to be a docstring
        for token in tokenize.tokenize(handle.readline):
            if token.type in _LAYOUT:
                if token.type == tokenize.NEWLINE:
                    at_statement_start, pending = True, None
                    if lines:
                        found.append(sorted(lines))
                        lines = set()
                continue
            if token.type == tokenize.STRING and at_statement_start:
                at_statement_start, pending = False, token
                continue
            at_statement_start = False
            for counted in (pending, token):
                if counted is not None:
                    lines.update(range(counted.start[0], counted.end[0] + 1))
            pending = None
    return found


def code_lines(path: Path) -> int:
    return sum(len(statement) for statement in statements(path))


def count_tree(root: Path) -> dict[str, int]:
    if root.is_file():
        return {root.name: code_lines(root)}
    return {
        str(path.relative_to(root)): code_lines(path)
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    trees = [count_tree(Path(arg)) for arg in argv]
    for arg, tree in zip(argv, trees):
        print(f"{arg}: {sum(tree.values())}")
    if len(trees) == 2:
        before, after = trees
        for name in sorted(set(before) | set(after)):
            old, new = before.get(name, 0), after.get(name, 0)
            if old != new:
                print(f"  {name}: {old} -> {new} ({new - old:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
