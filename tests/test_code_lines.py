"""``tools/code_lines.py``: what counts as a code line, and what is a tree."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.code_lines import count_tree, main  # noqa: E402

SOURCE = '''"""A module docstring."""

# a comment
def f(x):
    """A docstring."""
    return (x +
            1)
'''


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    (tmp_path / "m.py").write_text(SOURCE)
    assert count_tree(tmp_path) == {"m.py": 3}


def test_a_file_is_a_one_file_tree(tmp_path, capsys):
    path = tmp_path / "pkg" / "m.py"
    path.parent.mkdir()
    path.write_text(SOURCE)
    assert count_tree(path) == {"m.py": 3}
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: 3\n"
