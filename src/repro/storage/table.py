"""In-memory multiset table storage.

Rows are Python tuples keyed by a monotonically increasing row id; a
table is a *multiset* (SQL bag semantics) — the same tuple value may
appear under many row ids.  Hash indexes are maintained incrementally
on insert/delete.

Mutations are **atomic across all indexes**: if applying a change to a
later index raises (e.g. a unique violation that slipped past the
pre-check under concurrent mutation), every already-applied index entry
is rolled back and the row map is left untouched, so storage can never
end half-mutated.

Each table carries an optional ``on_mutate`` hook, set by the
durability layer (:mod:`repro.durability`): after a mutation fully
succeeds the hook receives ``("insert", row_id, row)``,
``("update", row_id, new_row, old_row)``, ``("delete", row_id, row)``,
or ``("index", column_names, unique)`` and appends the matching WAL
record.  In-memory databases leave the hook ``None``; the cost on that
path is one attribute check per mutation and nothing on reads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import ExecutionError, IntegrityError
from repro.catalog.schema import TableSchema
from repro.catalog.types import coerce_value
from repro.storage.index import HashIndex


class Table:
    """Row storage for one base table."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, tuple] = {}
        self._next_id = 0
        #: False once a row is restored below the newest id (see _ordered)
        self._in_id_order = True
        self._indexes: list[HashIndex] = []
        #: durability hook; see module docstring
        self.on_mutate: Optional[Callable[..., None]] = None
        self._data_version = 0

    @property
    def data_version(self) -> int:
        """Monotonic count of successful mutations on this relation.

        Exposed through ``\\stats`` so clients can compare a replica's
        applied state against the primary without diffing rows.
        """
        return self._data_version

    # -- index management -------------------------------------------------

    def create_index(self, columns: Iterable[str], unique: bool = False) -> HashIndex:
        """Index ``columns``; an index on exactly these columns with the
        same uniqueness is returned as it is, and nothing is logged."""
        names = tuple(columns)
        ordinals = tuple(self.schema.column_index(c) for c in names)
        for index in self._indexes:
            if index.columns == ordinals and index.unique == unique:
                return index
        index = HashIndex(self.schema.name, ordinals, names, unique=unique)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._indexes.append(index)
        if self.on_mutate is not None:
            self.on_mutate("index", names, unique)
        return index

    def find_index(self, columns: Iterable[str]) -> Optional[HashIndex]:
        wanted = tuple(self.schema.column_index(c) for c in columns)
        for index in self._indexes:
            if index.columns == wanted:
                return index
        return None

    def has_index(self, columns: Iterable[str], unique: bool) -> bool:
        """True when an index on exactly these columns + uniqueness exists."""
        wanted = tuple(self.schema.column_index(c) for c in columns)
        return any(
            index.columns == wanted and index.unique == unique
            for index in self._indexes
        )

    def index_defs(self) -> list[tuple[tuple[str, ...], bool]]:
        """(column names, unique) for every index, in creation order."""
        return [(index.column_names, index.unique) for index in self._indexes]

    # -- row access ---------------------------------------------------------

    def _ordered(self) -> dict[int, tuple]:
        """The row map, re-sorted into id order first if needed."""
        if not self._in_id_order:
            self._rows = dict(sorted(self._rows.items()))
            self._in_id_order = True
        return self._rows

    def rows(self) -> list[tuple]:
        """A snapshot of the current rows (bag semantics), in id order."""
        return list(self._ordered().values())

    def rows_with_ids(self) -> list[tuple[int, tuple]]:
        return list(self._ordered().items())

    def get_row(self, row_id: int) -> tuple:
        try:
            return self._rows[row_id]
        except KeyError as exc:
            raise ExecutionError(f"no row with id {row_id}") from exc

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def next_row_id(self) -> int:
        return self._next_id

    def set_next_row_id(self, next_id: int) -> None:
        """Restore the id counter (snapshot load; ids must stay stable)."""
        self._next_id = max(self._next_id, next_id)

    # -- mutation -------------------------------------------------------------

    def _coerce(self, values: tuple) -> tuple:
        if len(values) != len(self.schema.columns):
            raise ExecutionError(
                f"{self.schema.name}: expected {len(self.schema.columns)} values, "
                f"got {len(values)}"
            )
        coerced = []
        for value, col in zip(values, self.schema.columns):
            if value is None and col.not_null:
                raise IntegrityError(
                    f"NULL in NOT NULL column {self.schema.name}.{col.name}"
                )
            coerced.append(coerce_value(value, col.dtype))
        return tuple(coerced)

    def insert(self, values: tuple, row_id: Optional[int] = None) -> int:
        """Insert a row; returns its id.

        ``row_id`` pins the id during WAL replay / snapshot load, where
        ids recorded before the crash must keep addressing the same
        rows, and when an undo restores a deleted row.  Iteration stays
        in id order either way.
        """
        row = self._coerce(values)
        for index in self._indexes:
            if index.would_violate(row):
                raise IntegrityError(
                    f"unique violation on {self.schema.name}"
                    f"({', '.join(index.column_names)}): {index.key_of(row)!r}"
                )
        if row_id is None:
            rid = self._next_id
        else:
            if row_id in self._rows:
                raise ExecutionError(
                    f"{self.schema.name}: row id {row_id} already exists"
                )
            rid = row_id
        applied: list[HashIndex] = []
        try:
            for index in self._indexes:
                index.insert(rid, row)
                applied.append(index)
        except BaseException:
            # atomicity across indexes: undo the entries already applied
            for index in applied:
                index.delete(rid, row)
            raise
        self._rows[rid] = row
        if rid < self._next_id:
            self._in_id_order = False
        self._next_id = max(self._next_id, rid + 1)
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("insert", rid, row)
        return rid

    def delete_row(self, row_id: int) -> tuple:
        row = self.get_row(row_id)
        del self._rows[row_id]
        for index in self._indexes:
            index.delete(row_id, row)
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("delete", row_id, row)
        return row

    def update_row(self, row_id: int, values: tuple) -> tuple:
        """Replace the row under ``row_id``; returns the old row."""
        old = self.get_row(row_id)
        new = self._coerce(values)
        for index in self._indexes:
            if index.would_violate(new, ignore_row_id=row_id):
                raise IntegrityError(
                    f"unique violation on {self.schema.name}"
                    f"({', '.join(index.column_names)}): {index.key_of(new)!r}"
                )
        for index in self._indexes:
            index.delete(row_id, old)
        applied: list[HashIndex] = []
        try:
            for index in self._indexes:
                index.insert(row_id, new)
                applied.append(index)
        except BaseException:
            # roll the indexes back to the pre-update image
            for index in applied:
                index.delete(row_id, new)
            for index in self._indexes:
                index.insert(row_id, old)
            raise
        self._rows[row_id] = new
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("update", row_id, new, old)
        return old

    def truncate(self) -> None:
        for rid in list(self._ordered()):
            self.delete_row(rid)

    # -- statistics (for the cost model) ------------------------------------

    def distinct_count(self, column: str) -> int:
        ordinal = self.schema.column_index(column)
        return len({row[ordinal] for row in self._rows.values()})
