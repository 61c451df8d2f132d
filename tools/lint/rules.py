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
* ``unused-import`` — every imported name is read somewhere in its file
  (an ``__all__`` entry or a quoted annotation counts). An import kept for
  its side effect or as a re-export carries ``# noqa`` on its line.
* ``read-through-volume-hook`` — no builtin ``open()`` in a read mode and
  no ``Path.read_bytes`` / ``read_text`` in ``repro/mseed``,
  ``repro/ingest``, ``repro/remote`` or ``repro/core``: those packages read
  repository bytes through a byte source, whose ``open()`` the volume I/O
  hook wraps. A read past the hook is one no fault plan can fault and no
  benchmark byte counter counts.
  Writers are exempt, and so is :func:`repro.mseed.iohooks.open_volume`,
  the one place the hooked read path opens a file.
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

# Packages that read repository bytes only through the volume I/O hook.
HOOKED_READ_PACKAGES = ("repro/mseed", "repro/ingest", "repro/remote", "repro/core")

# Path methods that read a whole file past the hook.
UNHOOKED_READ_METHODS = {"read_bytes", "read_text"}


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


class UnusedImportRule(Rule):
    """Every imported name is read somewhere in its file."""

    name = "unused-import"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        imported: dict[str, ast.AST] = {}
        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, node)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.setdefault(alias.asname or alias.name, node)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            used.update(_quoted_names(node))
        lines = ctx.source.splitlines()
        for bound, node in imported.items():
            if bound in used or "noqa" in lines[node.lineno - 1]:
                continue
            yield self.violation(
                ctx, node, f"{bound!r} is imported and never used; delete it"
            )


def _quoted_names(node: ast.AST) -> set[str]:
    """The names ``node`` reads in quotes: a quoted annotation (or a quoted
    type argument, ``Optional["MountKey"]``) and the ``__all__`` entries."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = node.args
        quoted = [
            a.annotation
            for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            + [arguments.vararg, arguments.kwarg]
            if a is not None and a.annotation is not None
        ] + [node.returns]
    elif isinstance(node, ast.AnnAssign):
        quoted = [node.annotation]
    elif isinstance(node, ast.Subscript):
        quoted = [node.slice]
    elif isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        quoted = [node.value]
    else:
        return set()
    names: set[str] = set()
    for expression in filter(None, quoted):
        for part in ast.walk(expression):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value.strip(), mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return names


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether a builtin ``open()`` call may read: its mode (second
    positional argument or ``mode=``) is absent, is no string literal, or
    holds ``r`` or ``+``."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None
    )
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return "r" in mode.value or "+" in mode.value
    return True


class ReadThroughVolumeHookRule(Rule):
    """Repository reads go through the volume I/O hook."""

    name = "read-through-volume-hook"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        posix = ctx.path.as_posix()
        if not any(f"{pkg}/" in posix for pkg in HOOKED_READ_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and (
                func.attr in UNHOOKED_READ_METHODS
            ):
                yield self.violation(
                    ctx, node,
                    f".{func.attr}() reads past the volume I/O hook; read "
                    "through a byte source's open() (repro.mseed.iohooks)",
                )
            elif (
                isinstance(func, ast.Name)
                and func.id == "open"
                and _opens_for_reading(node)
                and not self._in_open_volume(ctx, node)
            ):
                yield self.violation(
                    ctx, node,
                    "builtin open() for reading bypasses the volume I/O "
                    "hook; read through a byte source's open() "
                    "(repro.mseed.iohooks)",
                )

    @staticmethod
    def _in_open_volume(ctx: FileContext, node: ast.AST) -> bool:
        return ctx.path.name == "iohooks.py" and any(
            isinstance(parent, ast.FunctionDef) and parent.name == "open_volume"
            for parent in ctx.parent_chain(node)
        )


DEFAULT_RULES: list[Rule] = [
    BareExceptRule(),
    ExtractionErrorWrapRule(),
    MutableDefaultArgRule(),
    MissingAnnotationsRule(),
    UninterruptibleSleepRule(),
    UnusedImportRule(),
    ReadThroughVolumeHookRule(),
]
