"""Compiled query templates: a query shape compiles once per executor.

An exploration session is a stream of a few query shapes whose instances
differ in their literal values only — the paper's Query 1 and Query 2 over
another station, day or time window. A :class:`Template` keeps the steps
that rebuild one instance's compiled
:class:`~repro.core.decompose.Decomposition`, with the literals in it that
came from SQL tokens left as holes; :meth:`Template.bind` builds another
instance's decomposition from them, filling each hole with the literal
re-derived from the new instance's token, without parsing, binding,
optimizing or decomposing again.

What makes this sound is the key the executor files a template under,
:func:`~repro.db.sql.lexer.shape_key`: two queries with one key parse to
ASTs that differ in their literal values only, and the binder's and the
optimizer's choices follow from the AST's structure, the literals' kinds and
which literals are equal — all in the key — except for three steps that read
a value, which :func:`~repro.db.plan.binder.rebind_literal` repeats per
literal. The query whose compile made a template runs that compile; the
template holds its own copies of every node's attributes, and every later
query runs a new object graph built from them, so no two queries share a
mutable object.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..db.expr import Expr, Literal, LiteralSource
from ..db.plan.binder import rebind_literal
from ..db.plan.logical import AggSpec, LogicalPlan
from ..db.sql.lexer import Token
from ..db.types import DataType
from .decompose import ActualScanInfo, Decomposition

# Objects a decomposition is made of, rebuilt attribute by attribute; lists
# and tuples are walked. Besides these, a plan holds only immutable values:
# atoms, kept without a look, and a scalar function's numpy kernel.
_NODES = (LogicalPlan, Expr, AggSpec, Decomposition, ActualScanInfo)
_ATOMS = frozenset({str, int, float, bool, type(None), DataType})
_KEPT = np.ufunc
_NODE, _LIST, _TUPLE, _HOLE = range(4)


def _atomic(value: Any) -> bool:
    """An atom, or a pair of atoms (an output schema's entries)."""
    kind = type(value)
    return kind in _ATOMS or (
        kind is tuple
        and len(value) == 2
        and type(value[0]) in _ATOMS
        and type(value[1]) in _ATOMS
    )


class _Rebuild:
    """An object graph as the steps that build a copy of it, children
    first: one step per node and list (and per tuple that holds either),
    each with its own copy of the original's attributes or items, minus the
    references to other steps. A literal that came from a token is a hole,
    filled per copy (:attr:`holes` lists their sources in step order).
    Nothing here refers to the original, which may be handed out once this
    is built, and copies share no node and no list; each object reached
    twice is built once per copy, so identities within a copy hold (``Qf``
    is a subtree of the plan, an actual scan a node of ``Qs``)."""

    def __init__(self, root: Any) -> None:
        self.steps: list[tuple] = []
        self.holes: list[LiteralSource] = []
        # id -> its step, or -1 when the object is kept as it is.
        built: dict[int, int] = {}

        def visit(value: Any) -> int:
            step = built.get(id(value))
            if step is not None:
                return step
            kind = type(value)
            if kind is list or kind is tuple:
                refs = [
                    (k, i) for k, item in enumerate(value)
                    if not _atomic(item) and (i := visit(item)) >= 0
                ]
                if kind is tuple and not refs:
                    built[id(value)] = -1
                    return -1
                items = list(value)
                for k, _ in refs:
                    items[k] = None  # filled per copy
                recipe: tuple = (_LIST if kind is list else _TUPLE, items, refs)
            elif kind is Literal and value.source is not None:
                recipe = (_HOLE, len(self.holes))
                self.holes.append(value.source)
            elif isinstance(value, _NODES):
                refs = [
                    (name, i) for name, item in value.__dict__.items()
                    if type(item) not in _ATOMS and (i := visit(item)) >= 0
                ]
                attributes = dict(value.__dict__)
                for name, _ in refs:
                    attributes[name] = None  # filled per copy
                recipe = (_NODE, kind, attributes, refs)
            elif isinstance(value, _KEPT):
                built[id(value)] = -1
                return -1
            else:
                raise TypeError(f"a plan holding a {kind.__name__} cannot be kept")
            built[id(value)] = len(self.steps)
            self.steps.append(recipe)
            return built[id(value)]

        visit(root)
        del visit  # its closure refers to itself: free it without the GC

    def __call__(self, fills: list[Any]) -> Any:
        """A copy of the graph with ``fills[k]`` in the place of hole ``k``."""
        made: list[Any] = []
        append = made.append
        for step in self.steps:
            op = step[0]
            if op is _NODE:
                _, kind, attributes, refs = step
                value = object.__new__(kind)
                fields = value.__dict__
                fields.update(attributes)
                for name, i in refs:
                    fields[name] = made[i]
            elif op is _HOLE:
                value = fills[step[1]]
            else:
                _, items, refs = step
                value = items.copy()
                for k, i in refs:
                    value[k] = made[i]
                if op is _TUPLE:
                    value = tuple(value)
            append(value)
        return made[-1]


def _nodes(value: Any, found: dict[int, Any]) -> None:
    """Every node reachable from ``value`` into ``found``, by id, in a walk
    order fixed by the graph's shape."""
    kind = type(value)
    if kind is list or kind is tuple:
        for item in value:
            _nodes(item, found)
    elif isinstance(value, _NODES) and id(value) not in found:
        found[id(value)] = value
        for item in value.__dict__.values():
            _nodes(item, found)


def plan_literals(decomposition: Decomposition) -> list[Literal]:
    """The literals of ``decomposition``'s plan, in a fixed walk order
    (``Qf`` and ``Qs`` hold no others)."""
    found: dict[int, Any] = {}
    _nodes(decomposition.plan, found)
    return [v for v in found.values() if isinstance(v, Literal)]


class Template:
    """One compiled query shape: the steps that rebuild its decomposition,
    and the literals in it that came from tokens (re-derived per query)."""

    def __init__(self, decomposition: Decomposition) -> None:
        """Keep ``decomposition``'s shape; the decomposition itself is not
        kept, and may run as the query that compiled it."""
        self._rebuild = _Rebuild(decomposition)

    def bind(self, tokens: list[Token]) -> Decomposition:
        """The decomposition of the query ``tokens`` spell (a query of this
        template's shape): the kept one with each token-born literal
        re-derived from its token in ``tokens``. Raises what re-deriving
        raises; the caller then compiles in full."""
        return self._rebuild([
            rebind_literal(source, tokens[source.token].value)
            for source in self._rebuild.holes
        ])


def describe_difference(
    got: Decomposition, want: Decomposition
) -> Optional[str]:
    """Where ``got`` differs from ``want`` (None when they agree): the plan
    with its ``Qf`` mark, the actual scans, and every literal's value and
    type."""
    if got.explain() != want.explain():
        return f"plans differ:\n{got.explain()}\n--- fresh compile:\n{want.explain()}"
    if got.metadata_only != want.metadata_only:
        return "metadata_only differs"

    def scans(d: Decomposition) -> list[tuple]:
        nodes = list(d.qs.walk()) if d.qs is not None else []
        return [
            (
                info.alias, info.table_name, info.uri_key, info.link_key,
                info.scan.output,
                next((k for k, n in enumerate(nodes) if n is info.scan), None),
            )
            for info in d.actual_scans
        ]

    if scans(got) != scans(want):
        return f"actual scans differ: {scans(got)} != {scans(want)}"

    def values(d: Decomposition) -> list[tuple]:
        return [
            (lit.dtype, type(lit.value), repr(lit.value))
            for lit in plan_literals(d)
        ]

    if values(got) != values(want):
        return f"literals differ: {values(got)} != {values(want)}"
    return None
