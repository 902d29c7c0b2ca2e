"""The system catalog: tables, views, and constraints.

The catalog is purely metadata; row storage lives in
:mod:`repro.storage` and is owned by the :class:`~repro.db.Database`
facade.  View definitions (including authorization views) are stored
here generically as parsed queries so that the binder can expand them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import DuplicateNameError, UnknownTableError
from repro.sql import ast
from repro.catalog.constraints import (
    CheckConstraint,
    ForeignKey,
    NotNull,
    PrimaryKey,
    TotalParticipation,
    Unique,
    foreign_key_participation,
)
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import DataType


@dataclass(frozen=True)
class ViewDef:
    """A stored (possibly authorization) view definition."""

    name: str
    query: ast.QueryExpr
    authorization: bool = False
    column_names: tuple[str, ...] = ()


class Catalog:
    """Named collection of table schemas, view definitions, and constraints."""

    def __init__(self):
        self._tables: dict[str, TableSchema] = {}
        self._views: dict[str, ViewDef] = {}
        self._primary_keys: dict[str, PrimaryKey] = {}
        self._uniques: list[Unique] = []
        self._not_nulls: list[NotNull] = []
        self._foreign_keys: list[ForeignKey] = []
        self._checks: list[CheckConstraint] = []
        self._participations: list[TotalParticipation] = []
        #: participations declared directly (not derived from foreign
        #: keys); these need explicit persistence — FK-derived ones are
        #: rebuilt when the CREATE TABLE DDL replays
        self._manual_participations: list[TotalParticipation] = []
        #: bumped on every DDL change (table or view), every declared
        #: participation constraint (rule U3 consumes those) and every
        #: Truman remap; cached validity decisions and prepared templates
        #: are stamped with it
        self._schema_version = 0

    @property
    def schema_version(self) -> int:
        return self._schema_version

    def bump_schema_version(self) -> None:
        self._schema_version += 1

    # -- registration ---------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables or key in self._views:
            raise DuplicateNameError(schema.name)
        self._tables[key] = schema
        self.bump_schema_version()
        for col in schema.columns:
            if col.not_null:
                self._not_nulls.append(NotNull(schema.name, col.name))

    def create_table_from_ast(self, stmt: ast.CreateTable) -> TableSchema:
        """Register a table from a parsed CREATE TABLE statement."""
        pk_cols = set(stmt.primary_key)
        for col in stmt.columns:
            if col.primary_key:
                pk_cols.add(col.name)
        columns = tuple(
            Column(
                name=col.name,
                dtype=DataType.from_sql_name(col.type_name),
                not_null=col.not_null or col.name in pk_cols,
            )
            for col in stmt.columns
        )
        schema = TableSchema(stmt.name, columns)
        self.create_table(schema)

        if stmt.primary_key:
            self.set_primary_key(stmt.name, stmt.primary_key)
        else:
            inline_pk = tuple(c.name for c in stmt.columns if c.primary_key)
            if inline_pk:
                self.set_primary_key(stmt.name, inline_pk)
        for col in stmt.columns:
            if col.unique and not col.primary_key:
                self.add_unique(Unique(stmt.name, (col.name,)))
        for unique in stmt.uniques:
            self.add_unique(Unique(stmt.name, unique))
        for fk in stmt.foreign_keys:
            ref_columns = fk.ref_columns
            if not ref_columns:
                ref_pk = self._primary_keys.get(fk.ref_table.lower())
                if ref_pk is None:
                    raise UnknownTableError(fk.ref_table)
                ref_columns = ref_pk.columns
            self.add_foreign_key(
                ForeignKey(stmt.name, fk.columns, fk.ref_table, ref_columns)
            )
        for check in stmt.checks:
            self.add_check(CheckConstraint(stmt.name, check.predicate))
        return schema

    def create_view(self, view: ViewDef) -> None:
        key = view.name.lower()
        if key in self._tables or key in self._views:
            raise DuplicateNameError(view.name)
        self._views[key] = view
        self.bump_schema_version()

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise UnknownTableError(name)
        del self._tables[key]
        self.bump_schema_version()
        self._primary_keys.pop(key, None)
        self._uniques = [u for u in self._uniques if u.table.lower() != key]
        self._not_nulls = [n for n in self._not_nulls if n.table.lower() != key]
        self._foreign_keys = [
            f
            for f in self._foreign_keys
            if f.table.lower() != key and f.ref_table.lower() != key
        ]
        self._checks = [c for c in self._checks if c.table.lower() != key]
        self._participations = [
            p
            for p in self._participations
            if p.core_table.lower() != key and p.remainder_table.lower() != key
        ]
        self._manual_participations = [
            p
            for p in self._manual_participations
            if p.core_table.lower() != key and p.remainder_table.lower() != key
        ]

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            raise UnknownTableError(name)
        del self._views[key]
        self.bump_schema_version()

    # -- constraints ------------------------------------------------------

    def set_primary_key(self, table: str, columns: Iterable[str]) -> None:
        self._primary_keys[table.lower()] = PrimaryKey(table, tuple(columns))

    def add_unique(self, unique: Unique) -> None:
        self._uniques.append(unique)

    def add_foreign_key(self, fk: ForeignKey) -> None:
        self._foreign_keys.append(fk)
        self._participations.append(foreign_key_participation(fk))

    def add_check(self, check: CheckConstraint) -> None:
        self._checks.append(check)

    def add_participation(self, constraint: TotalParticipation) -> None:
        self._participations.append(constraint)
        self._manual_participations.append(constraint)
        self.bump_schema_version()

    def manual_participations(self) -> list[TotalParticipation]:
        return list(self._manual_participations)

    # -- lookups -----------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def has_relation(self, name: str) -> bool:
        return self.has_table(name) or self.has_view(name)

    def table(self, name: str) -> TableSchema:
        schema = self._tables.get(name.lower())
        if schema is None:
            raise UnknownTableError(name)
        return schema

    def view(self, name: str) -> ViewDef:
        view = self._views.get(name.lower())
        if view is None:
            raise UnknownTableError(name)
        return view

    def tables(self) -> list[TableSchema]:
        return list(self._tables.values())

    def views(self) -> list[ViewDef]:
        return list(self._views.values())

    def primary_key(self, table: str) -> Optional[PrimaryKey]:
        return self._primary_keys.get(table.lower())

    def uniques_for(self, table: str) -> list[Unique]:
        key = table.lower()
        return [u for u in self._uniques if u.table.lower() == key]

    def keys_for(self, table: str) -> list[tuple[str, ...]]:
        """All declared keys (PK + uniques) of ``table`` as column tuples."""
        keys: list[tuple[str, ...]] = []
        pk = self.primary_key(table)
        if pk is not None:
            keys.append(pk.columns)
        keys.extend(u.columns for u in self.uniques_for(table))
        return keys

    def not_nulls_for(self, table: str) -> list[NotNull]:
        key = table.lower()
        return [n for n in self._not_nulls if n.table.lower() == key]

    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys)

    def foreign_keys_for(self, table: str) -> list[ForeignKey]:
        key = table.lower()
        return [f for f in self._foreign_keys if f.table.lower() == key]

    def checks_for(self, table: str) -> list[CheckConstraint]:
        key = table.lower()
        return [c for c in self._checks if c.table.lower() == key]

    def participations(self, user: Optional[str] = None) -> list[TotalParticipation]:
        """All total-participation constraints visible to ``user``."""
        return [p for p in self._participations if p.is_visible_to(user)]

    def participations_for_core(
        self, core_table: str, user: Optional[str] = None
    ) -> list[TotalParticipation]:
        key = core_table.lower()
        return [
            p
            for p in self.participations(user)
            if p.core_table.lower() == key
        ]
