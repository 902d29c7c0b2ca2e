"""Authorization views compiled once per catalog version (paper §5.6).

Validity inference matches a query against the user's *instantiated*
authorization views (Section 4.1).  Instantiation changes nothing but
the ``$param`` values, so translating and blockifying every granted
view on every check is waste.  Instead each view body is compiled once,
with its context parameters kept symbolic, and every check *binds* the
session's values into the compiled block — the way a prepared template
binds literals into its plan (:mod:`repro.prepared.template`):

* compile: every ``$p`` becomes the access-pattern placeholder
  ``$$ctx:p`` (the lexer never puts ``:`` in a name, so it cannot clash
  with a signature's ``_litN`` or a user's ``$$`` parameter); the body
  is translated and blockified once by :func:`blockify_view`, where
  ``$$`` parameters stay symbolic;
* bind: the session's values replace the placeholders in the block's
  conjuncts, outputs, group expressions, aggregates, HAVING, semijoin
  operands and subplans; conjuncts that changed are re-normalized, so
  the bound block equals the one a fresh instantiation would build.
  Like :class:`~repro.prepared.template.PlanBinder`, the compile records
  which objects lead to a placeholder, and a bind copies only those.

Binding happens before matching: the matcher, the witness and
``\\explain`` only ever see literals.

**Staleness.** :class:`CompiledViewCache` keeps one entry per view,
stamped with the ``catalog.schema_version`` read *before* compiling and
holding the :class:`~repro.catalog.catalog.ViewDef` it compiled (a
lookup checks both, the definition by identity).  Every view DDL, table
DDL, declared participation constraint and Truman remap moves the
version, so a compile that overlaps one is stale on arrival.  Grants
only decide *which* views are candidates and are read per check; they
compile nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ReproError
from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.algebra.normalize import normalize_predicate
from repro.algebra.translate import Translator
from repro.authviews.views import query_params
from repro.catalog.catalog import Catalog, ViewDef
from repro.instrument import COUNTERS
from repro.nontruman.blocks import AggBlock, BlockBuilder, SPJBlock
from repro.nontruman.matching import CandidateView
from repro.nontruman.pruning import relation_names


PLACEHOLDER_PREFIX = "ctx:"


def placeholder(param: str) -> str:
    """The ``$$`` placeholder name standing for context parameter ``$param``."""
    return PLACEHOLDER_PREFIX + param


class _SymbolicTranslator(Translator):
    """The translator of authorization-view bodies — ``$$`` parameters
    survive, ordinary views are inlined, authorization views do not nest
    — that turns every ``$p`` it binds, in the view body and in ordinary
    views inlined into it, into the placeholder ``$$ctx:p``, recording
    ``p``."""

    def __init__(self, catalog: Catalog):
        super().__init__(
            catalog,
            view_filter=lambda view: not view.authorization,
            allow_access_params=True,
        )
        self.params: set[str] = set()

    def _instantiate_expr(self, expr: ast.Expr) -> ast.Expr:
        def visit(node: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(node, ast.Param):
                self.params.add(node.name)
                return ast.AccessParam(placeholder(node.name))
            return None

        return exprs.transform(expr, visit)


def blockify_view(
    translator: Translator, definition: ViewDef, query: ast.QueryExpr
) -> Optional[CandidateView]:
    """Translate and blockify one authorization-view body; None when the
    body does not translate or is not a matchable block."""
    try:
        plan = translator.translate(query)
    except ReproError:
        return None
    column_names = definition.column_names
    if column_names:
        if len(column_names) != len(plan.columns):
            return None
        plan = ops.Project(
            plan,
            tuple(
                (col.ref(), name) for col, name in zip(plan.columns, column_names)
            ),
        )
    block = BlockBuilder().to_query_form(plan)
    if block is None:
        return None
    if isinstance(block, SPJBlock) and any(t.kind != "table" for t in block.tables):
        return None
    output_names = tuple(c.name for c in plan.columns)
    if isinstance(block, SPJBlock) and len(block.outputs) != len(output_names):
        return None
    return CandidateView(
        name=definition.name, block=block, output_names=output_names
    )


@dataclass(frozen=True)
class CompiledView:
    """One authorization view, compiled with symbolic ``$params``."""

    definition: ViewDef
    schema_version: int
    #: context parameters a session must supply for the view to apply
    params: frozenset[str]
    #: lower-cased relations the body reads (relevance pruning)
    relations: frozenset[str]
    #: the block with ``$$ctx:p`` placeholders; None: never matchable
    compiled: Optional[CandidateView]
    #: ids of the objects in ``compiled.block`` on a path to a placeholder
    #: (alive as long as the block is): binding copies only those
    dirty: frozenset[int]

    @property
    def name(self) -> str:
        return self.definition.name

    def bind(self, values: Mapping[str, object]) -> Optional[CandidateView]:
        """The view instantiated for a session with parameter ``values``;
        None when the session lacks one of its parameters or the view
        is not matchable."""
        if self.compiled is None or not self.params <= values.keys():
            return None
        if not self.params:
            return self.compiled
        bound = {placeholder(name): values[name] for name in self.params}
        return CandidateView(
            name=self.compiled.name,
            block=_bind_block(self.compiled.block, bound, self.dirty),
            output_names=self.compiled.output_names,
        )


def compile_view(
    catalog: Catalog, definition: ViewDef, schema_version: int
) -> CompiledView:
    COUNTERS.bump("validity.view_compile")
    translator = _SymbolicTranslator(catalog)
    compiled = blockify_view(translator, definition, definition.query)
    dirty: set[int] = set()
    if compiled is not None:
        _find_dirty(compiled.block, dirty)
    return CompiledView(
        definition=definition,
        schema_version=schema_version,
        params=frozenset(query_params(definition.query) | translator.params),
        relations=frozenset(relation_names(definition.query)),
        compiled=compiled,
        dirty=frozenset(dirty),
    )


class CompiledViewCache:
    """The database's authorization views, each compiled once per
    ``(view name, catalog.schema_version)``; one entry per view."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._entries: dict[str, CompiledView] = {}
        #: (schema version, [(lower-cased name, ViewDef)]) of the catalog's
        #: authorization views, re-read when the version moves
        self._listing: tuple = (None, [])

    def granted(self, names: set[str]) -> list[CompiledView]:
        """Compiled forms of the authorization views named in ``names``
        (lower-cased), in catalog order; compiles the stale ones."""
        # read before compiling: a DDL racing a compile leaves its entry
        # stale on arrival, never accidentally fresh
        version = self.catalog.schema_version
        listed_at, listing = self._listing
        if listed_at != version:
            listing = [
                (d.name.lower(), d) for d in self.catalog.views() if d.authorization
            ]
            self._listing = (version, listing)
            # forget dropped views; copy() is atomic, so a compile stored
            # concurrently cannot break the iteration
            live = {key for key, _ in listing}
            entries = self._entries.copy()
            self._entries = {k: e for k, e in entries.items() if k in live}
        result = []
        for key, definition in listing:
            if key not in names:
                continue
            entry = self._entries.get(key)
            if (
                entry is None
                or entry.schema_version != version
                or entry.definition is not definition
            ):
                entry = compile_view(self.catalog, definition, version)
                self._entries[key] = entry
            result.append(entry)
        return result


# -- binding ------------------------------------------------------------------


def _bind_block(block, values: Mapping[str, object], dirty: frozenset):
    def bind(value):
        return _bind(value, values, dirty)

    if isinstance(block, AggBlock):
        return AggBlock(
            inner=_bind_block(block.inner, values, dirty),
            group_exprs=bind(block.group_exprs),
            aggregates=bind(block.aggregates),
            having=_renormalize(bind(block.having), block.having),
            outputs=bind(block.outputs),
            distinct=block.distinct,
        )
    return SPJBlock(
        tables=bind(block.tables),
        conjuncts=_renormalize(bind(block.conjuncts), block.conjuncts),
        outputs=bind(block.outputs),
        distinct=block.distinct,
        semijoins=bind(block.semijoins),
    )


def _renormalize(bound: tuple, symbolic: tuple) -> tuple:
    """Re-normalize the conjuncts binding changed: a bound conjunct may
    orient, sort or deduplicate differently than its symbolic form
    (``x in ($$a, 3)``; ``x = $$a and x = 3``)."""
    if bound is symbolic:
        return bound
    out: list[ast.Expr] = []
    for new, old in zip(bound, symbolic):
        out.extend((new,) if new is old else normalize_predicate(new))
    return tuple(dict.fromkeys(out))


def _find_dirty(value, into: set[int]) -> bool:
    """Record in ``into`` the id of every object under ``value`` — a
    block, its table instances and semijoins, their subplans, tuples and
    expressions — that contains a ``$$ctx:`` placeholder."""
    if isinstance(value, ast.Expr):
        dirty = any(
            isinstance(node, ast.AccessParam)
            and node.name.startswith(PLACEHOLDER_PREFIX)
            for node in ast.walk_expr(value)
        )
    elif isinstance(value, tuple):
        dirty = any([_find_dirty(v, into) for v in value])
    elif dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        dirty = any([_find_dirty(getattr(value, f.name), into) for f in fields])
    else:
        dirty = False
    if dirty:
        into.add(id(value))
    return dirty


def _bind(value, values, dirty: frozenset):
    """``value`` with the placeholders under it bound; only the objects
    :func:`_find_dirty` recorded are copied, the rest is shared."""
    if id(value) not in dirty:
        return value
    if isinstance(value, ast.Expr):
        return exprs.substitute_access_params(value, values)
    if isinstance(value, tuple):
        return tuple(_bind(v, values, dirty) for v in value)
    changes = {
        f.name: _bind(getattr(value, f.name), values, dirty)
        for f in dataclasses.fields(value)
        if id(getattr(value, f.name)) in dirty
    }
    return dataclasses.replace(value, **changes)
