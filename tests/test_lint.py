"""The project linter: every rule fires on a seeded violation, the real
tree is clean, and the ``python -m tools.lint`` entry point exits 0/1
accordingly."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.lint import DEFAULT_RULES, run_lint  # noqa: E402
from tools.lint.framework import iter_python_files, parse_file  # noqa: E402


def _lint_source(
    tmp_path: Path,
    source: str,
    relpath: str = "repro/core/mod.py",
) -> list:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([str(tmp_path)], DEFAULT_RULES)


def _rules_fired(violations: list) -> set[str]:
    return {v.rule for v in violations}


# -- each rule fires on a seeded violation -------------------------------------


def test_bare_except_fires(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def f():
            try:
                return 1
            except:
                return 2
        """,
        relpath="anywhere.py",
    )
    assert _rules_fired(violations) == {"bare-except"}


def test_extraction_error_wrap_fires_in_ingest(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        import struct

        def read_header(buf: bytes) -> int:
            if len(buf) < 4:
                raise ValueError("short header")
            raise struct.error("bad")
        """,
        relpath="ingest/formats.py",
    )
    fired = [v for v in violations if v.rule == "extraction-error-wrap"]
    assert len(fired) == 2
    assert "FileIngestError" in fired[0].message


def test_extraction_error_wrap_silent_outside_extraction_paths(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def f(x: int) -> int:
            if x < 0:
                raise ValueError("negative")
            return x
        """,
        relpath="other/module.py",
    )
    assert "extraction-error-wrap" not in _rules_fired(violations)


def test_mutable_default_arg_fires(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def f(items=[]):
            return items

        def g(*, mapping=dict()):
            return mapping
        """,
        relpath="anywhere.py",
    )
    fired = [v for v in violations if v.rule == "mutable-default-arg"]
    assert len(fired) == 2


def test_missing_annotations_fires_in_core(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def exported(a, b):
            return a

        def _private(c, d):
            return c
        """,
        relpath="repro/core/mod.py",
    )
    fired = [v for v in violations if v.rule == "missing-annotations"]
    # a, b, and the return — the private function is exempt.
    assert len(fired) == 3
    assert all("exported" in v.message for v in fired)


def test_missing_annotations_skips_self(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        class Thing:
            def method(self, x: int) -> int:
                return x

            @staticmethod
            def helper(y: int) -> int:
                return y
        """,
        relpath="repro/db/plan/mod.py",
    )
    assert violations == []


def test_missing_annotations_silent_outside_core_packages(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def loose(a, b):
            return a
        """,
        relpath="repro/harness/mod.py",
    )
    assert violations == []


def test_uninterruptible_sleep_fires_in_core(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        import time

        def backoff(seconds: float) -> None:
            time.sleep(seconds)
        """,
        relpath="repro/core/mod.py",
    )
    fired = [v for v in violations if v.rule == "uninterruptible-sleep"]
    assert len(fired) == 1
    assert "CancellationToken" in fired[0].message


def test_uninterruptible_sleep_fires_in_ingest(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        from time import sleep

        def poll() -> None:
            sleep(1.0)
        """,
        relpath="repro/ingest/mod.py",
    )
    assert "uninterruptible-sleep" in _rules_fired(violations)


def test_uninterruptible_sleep_fires_in_serve(tmp_path):
    # The service layer holds queries for other tenants; an uninterruptible
    # sleep there is as bad as one in core, so repro/serve is governed too.
    violations = _lint_source(
        tmp_path,
        """
        import time

        def drain() -> None:
            time.sleep(0.5)
        """,
        relpath="repro/serve/mod.py",
    )
    fired = [v for v in violations if v.rule == "uninterruptible-sleep"]
    assert len(fired) == 1


def test_uninterruptible_sleep_silent_outside_governed_packages(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        import time

        def wait() -> None:
            time.sleep(0.1)
        """,
        relpath="repro/harness/mod.py",
    )
    assert "uninterruptible-sleep" not in _rules_fired(violations)


def test_uninterruptible_sleep_allowlist_comment(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        import time

        def settle() -> None:
            time.sleep(0.1)  # lint: allow-uninterruptible-sleep
        """,
        relpath="repro/core/mod.py",
    )
    assert "uninterruptible-sleep" not in _rules_fired(violations)


# -- framework behavior ---------------------------------------------------------


def test_iter_python_files_expands_directories(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("y = 2\n")
    (tmp_path / "c.txt").write_text("not python\n")
    files = list(iter_python_files([str(tmp_path)]))
    assert [f.name for f in files] == ["a.py", "b.py"]


def test_iter_python_files_dedupes_overlapping_paths(tmp_path):
    # A file named both directly and through its directory must lint (and
    # therefore report) once, not twice.
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    files = list(iter_python_files([str(tmp_path), str(target)]))
    assert len(files) == 1
    # Same via a non-normalized spelling of the directory.
    files = list(
        iter_python_files([str(tmp_path), str(tmp_path / "." / "mod.py")])
    )
    assert len(files) == 1


def test_duplicate_path_args_report_each_violation_once(tmp_path):
    seeded = tmp_path / "seeded.py"
    seeded.write_text(
        "def f():\n    try:\n        pass\n    except:\n        pass\n"
    )
    violations = run_lint([str(tmp_path), str(seeded)], DEFAULT_RULES)
    assert len([v for v in violations if v.rule == "bare-except"]) == 1


def test_parse_file_tolerates_syntax_errors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert parse_file(bad) is None


def test_parent_chain_orders_inner_to_module(tmp_path):
    import ast

    target = tmp_path / "mod.py"
    target.write_text(
        "class C:\n    def m(self):\n        with self._lock:\n"
        "            return 1\n"
    )
    ctx = parse_file(target)
    assert ctx is not None
    ret = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Return))
    chain = [type(n).__name__ for n in ctx.parent_chain(ret)]
    assert chain == ["With", "FunctionDef", "ClassDef", "Module"]


def test_violation_sort_is_total_and_stable(tmp_path):
    # run_lint orders by (path, line, col, rule): two findings on one line
    # tie-break by rule name, so output order never depends on rule
    # registration order.
    violations = _lint_source(
        tmp_path,
        """
        import time

        def f(items=[]) -> None:
            time.sleep(0.1)
        """,
        relpath="repro/core/mod.py",
    )
    keys = [(v.path, v.line, v.col, v.rule) for v in violations]
    assert keys == sorted(keys)
    assert len(violations) >= 2


def test_violations_sorted_and_rendered(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def z(items=[]):
            try:
                return items
            except:
                return None
        """,
        relpath="anywhere.py",
    )
    assert [v.line for v in violations] == sorted(v.line for v in violations)
    rendered = violations[0].render()
    assert "anywhere.py" in rendered and "[" in rendered


# -- the real tree and the CLI --------------------------------------------------


def test_repo_tree_is_clean():
    violations = run_lint(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")], DEFAULT_RULES
    )
    assert violations == [], "\n".join(v.render() for v in violations)


def test_cli_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_exits_one_on_seeded_violation(tmp_path):
    seeded = tmp_path / "seeded.py"
    seeded.write_text("def f():\n    try:\n        pass\n    except:\n        pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", str(seeded)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "bare-except" in proc.stdout


def test_cli_json_emits_benchmark_envelope(tmp_path):
    import json

    seeded = tmp_path / "seeded.py"
    seeded.write_text("def f():\n    try:\n        pass\n    except:\n        pass\n")
    out = tmp_path / "lint.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "tools.lint", str(seeded),
            "--json", str(out),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(out.read_text())
    # The same envelope every benchmarks/*.py --json emits.
    assert payload["benchmark"] == "lint"
    assert payload["params"]["mode"] == "rules"
    assert len(payload["results"]) == 1
    assert payload["results"][0]["rule"] == "bare-except"


def test_cli_concurrency_mode_clean_on_src(tmp_path):
    out = tmp_path / "conc.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "tools.lint", "--concurrency", "src",
            "--json", str(out),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    import json

    payload = json.loads(out.read_text())
    assert payload["params"]["mode"] == "concurrency"
    assert payload["results"] == []
