"""Project lint rules — each one encodes discipline this repo already paid
to learn.

* ``extraction-error-wrap`` — extraction code paths (``ingest/``, ``mseed/``)
  must not raise raw ``struct.error``/``OSError``/``ValueError``-family
  exceptions; they must wrap into the :class:`FileIngestError` taxonomy so
  the resilient-mounting layer can attribute, retry, and quarantine per file.
* ``bare-except`` — no ``except:`` anywhere; it swallows KeyboardInterrupt
  and hides the taxonomy the previous rule builds.
* ``mutable-default-arg`` — no ``def f(x=[])``-style defaults; shared
  mutable state across calls.
* ``missing-annotations`` — public functions in ``repro/core`` and
  ``repro/db/plan`` must annotate every named parameter and the return
  type; these two packages are the plan-correctness core the verifier
  leans on.
* ``uninterruptible-sleep`` — no ``time.sleep`` anywhere in ``repro/core``,
  ``repro/ingest``, or ``repro/serve``: those layers run under a query governor whose
  deadlines and cancellations wake threads through events, and a plain
  sleep is a wait the governor cannot interrupt (the retry-backoff bug:
  a cancelled query used to sleep out its whole ladder). Wait on
  ``CancellationToken.wait``/an ``Event`` instead; genuinely unmanaged
  waits can carry ``# lint: allow-uninterruptible-sleep``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .framework import FileContext, Rule, Violation

# Paths (directory components) considered extraction code paths.
EXTRACTION_DIRS = ("ingest", "mseed")

# Exception constructors extraction code must not raise directly.
RAW_EXTRACTION_EXCEPTIONS = {
    "ValueError",
    "OSError",
    "IOError",
    "EOFError",
    "RuntimeError",
    "struct.error",
}

# Packages whose public functions must be fully annotated.
ANNOTATED_PACKAGES = ("repro/core", "repro/db/plan")

# Packages whose waits must be governor-interruptible (no time.sleep).
# repro/serve joined the list when the scheduler's batch-window and aging
# loops landed: every wait there must honor CancellationToken/Condition
# timeouts, or a shed/cancelled tenant blocks the whole scheduler.
# repro/remote joined with the resilient transport: modeled network
# latency and retry backoff are exactly the waits a cancelled query must
# be able to cut short.
GOVERNED_PACKAGES = ("repro/core", "repro/ingest", "repro/serve", "repro/remote")

# Same-line escape hatch for waits that genuinely run outside any query.
SLEEP_ALLOW_COMMENT = "lint: allow-uninterruptible-sleep"


def _dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` call targets; '' for anything fancier."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _in_extraction_path(ctx: FileContext) -> bool:
    parts = {p.name for p in ctx.path.parents} | {ctx.path.parent.name}
    return any(d in parts for d in EXTRACTION_DIRS)


class BareExceptRule(Rule):
    name = "bare-except"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx, node,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "catch a concrete exception type",
                )


class ExtractionErrorWrapRule(Rule):
    """Extraction paths raise the FileIngestError taxonomy, nothing rawer."""

    name = "extraction-error-wrap"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if not _in_extraction_path(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _dotted_name(target)
            if name in RAW_EXTRACTION_EXCEPTIONS:
                yield self.violation(
                    ctx, node,
                    f"extraction code raises raw {name}; wrap it in a "
                    "FileIngestError subclass (CorruptFileError/"
                    "TruncatedFileError/StaleFileError) so the mount layer "
                    "can attribute and quarantine the file",
                )


class MutableDefaultArgRule(Rule):
    name = "mutable-default-arg"

    _MUTABLE_CALLS = {"list", "dict", "set"}

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx, default,
                        f"mutable default argument in {node.name}(); the "
                        "object is shared across calls — default to None "
                        "(or use dataclasses.field(default_factory=...))",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return _dotted_name(node.func) in self._MUTABLE_CALLS
        return False


class MissingAnnotationsRule(Rule):
    """Public core/db.plan functions carry full signatures."""

    name = "missing-annotations"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        posix = ctx.path.as_posix()
        if not any(f"{pkg}/" in posix or posix.endswith(pkg) for pkg in ANNOTATED_PACKAGES):
            return
        yield from self._check_scope(ctx, ctx.tree, in_class=False)

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, in_class: bool
    ) -> Iterator[Violation]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                yield from self._check_scope(ctx, node, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                yield from self._check_function(ctx, node, in_class)
                # Nested defs are implementation details — not checked.

    def _check_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Violation]:
        is_static = any(
            _dotted_name(d) == "staticmethod" for d in node.decorator_list
        )
        named = list(node.args.posonlyargs) + list(node.args.args)
        if in_class and not is_static and named:
            named = named[1:]  # self / cls
        named += list(node.args.kwonlyargs)
        for arg in named:
            if arg.annotation is None:
                yield self.violation(
                    ctx, arg,
                    f"public function {node.name}() leaves parameter "
                    f"{arg.arg!r} unannotated",
                )
        if node.returns is None:
            yield self.violation(
                ctx, node,
                f"public function {node.name}() has no return annotation",
            )


class UninterruptibleSleepRule(Rule):
    """Governed packages wait on events, never ``time.sleep``."""

    name = "uninterruptible-sleep"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        posix = ctx.path.as_posix()
        if not any(f"{pkg}/" in posix for pkg in GOVERNED_PACKAGES):
            return
        lines = ctx.source.splitlines()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _dotted_name(node.func) not in ("time.sleep", "sleep"):
                continue
            line_index = getattr(node, "lineno", 0) - 1
            if 0 <= line_index < len(lines) and (
                SLEEP_ALLOW_COMMENT in lines[line_index]
            ):
                continue
            yield self.violation(
                ctx, node,
                "time.sleep() in a governed package cannot be interrupted "
                "by query cancellation or a deadline; wait on the "
                "cancellation token's event (CancellationToken.wait) "
                f"instead, or annotate '# {SLEEP_ALLOW_COMMENT}'",
            )


DEFAULT_RULES: list[Rule] = [
    BareExceptRule(),
    ExtractionErrorWrapRule(),
    MutableDefaultArgRule(),
    MissingAnnotationsRule(),
    UninterruptibleSleepRule(),
]
