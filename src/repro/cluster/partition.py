"""Hash partitioning: routing rows to shards and the table facade.

A :class:`PartitionedTable` presents the exact :class:`~repro.storage.table.Table`
surface over N per-shard tables, so every layer above storage — DML,
constraint checks, both executors, the optimizer's statistics, the
prepared-statement binder — runs unchanged against a sharded cluster.

Invariants that make the cluster byte-identical to a single node:

* **Global row ids.**  The facade allocates row ids from one monotonic
  counter and *pins* them into the owning shard
  (``Table.insert(row, row_id=...)``).  A single-node table's iteration
  order is row-id-ascending (inserts append, updates keep their slot),
  so merging shard fragments by row id reproduces the single-node row
  order exactly.
* **Routing on coerced values.**  Rows are routed after the schema's
  type coercion, and :meth:`PartitionedTable.prune_for` coerces query
  literals through the same path, so a literal and the stored value it
  matches always hash to the same shard.
* **Deterministic hashing.**  The partitioner hashes ``repr()`` through
  CRC32 — Python's builtin ``hash()`` is per-process salted and would
  route the same key to different shards across runs.
* **Global uniqueness.**  A unique index whose columns cover the
  partition key is globally unique when each shard enforces it locally
  (equal keys land on one shard).  For any other unique index the
  facade pre-checks every shard before mutating, using the same error
  message the single-node path produces.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ExecutionError, IntegrityError, ReproError
from repro.catalog.schema import TableSchema
from repro.catalog.types import coerce_value
from repro.storage.index import HashIndex
from repro.storage.table import Table


class HashPartitioner:
    """Deterministic hash routing of rows to ``n_shards`` buckets."""

    def __init__(self, schema: TableSchema, key_columns: Iterable[str], n_shards: int):
        self.schema = schema
        self.key_columns = tuple(c.lower() for c in key_columns)
        if not self.key_columns:
            raise ExecutionError(
                f"{schema.name}: partition key needs at least one column"
            )
        self.ordinals = tuple(schema.column_index(c) for c in self.key_columns)
        self.n_shards = n_shards

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.ordinals)

    def shard_of_key(self, key: tuple) -> int:
        digest = zlib.crc32(repr(key).encode("utf-8")) & 0xFFFFFFFF
        return digest % self.n_shards

    def shard_of(self, row: tuple) -> int:
        return self.shard_of_key(self.key_of(row))


class ShardFragment:
    """Read-only view of one shard's fragment, in global row-id order.

    What the executors need from a pruned scan: rows (ordered like the
    single-node table so answers stay byte-identical), the shard's hash
    indexes for probe pushdown, and point row access.  The shard's
    ``Table`` holds the global row ids and reads in id order, so the
    fragment needs no sort of its own.
    """

    def __init__(self, table: Table):
        self._table = table
        self.schema = table.schema

    def rows(self) -> list[tuple]:
        return self._table.rows()

    def rows_with_ids(self) -> list[tuple[int, tuple]]:
        return self._table.rows_with_ids()

    def get_row(self, row_id: int) -> tuple:
        return self._table.get_row(row_id)

    def find_index(self, columns: Iterable[str]) -> Optional[HashIndex]:
        return self._table.find_index(columns)

    def has_index(self, columns: Iterable[str], unique: bool) -> bool:
        return self._table.has_index(columns, unique)

    @property
    def row_count(self) -> int:
        return self._table.row_count

    def __len__(self) -> int:
        return len(self._table)


class PartitionedIndex:
    """One logical hash index fanned out across the shards.

    Lookups union the per-shard buckets (row ids are global, so the
    union is already in the table's id space); uniqueness questions ask
    every shard, which is what makes cross-shard unique enforcement
    possible for indexes that do not cover the partition key.
    """

    def __init__(self, shard_indexes: list[HashIndex]):
        self._shards = shard_indexes
        first = shard_indexes[0]
        self.table_name = first.table_name
        self.columns = first.columns
        self.column_names = first.column_names
        self.unique = first.unique

    def key_of(self, row: tuple) -> tuple:
        return self._shards[0].key_of(row)

    def lookup(self, key: tuple) -> frozenset[int]:
        out: set[int] = set()
        for index in self._shards:
            out.update(index.lookup(key))
        return frozenset(out)

    def would_violate(self, row: tuple, ignore_row_id: Optional[int] = None) -> bool:
        return any(
            index.would_violate(row, ignore_row_id=ignore_row_id)
            for index in self._shards
        )

    def __len__(self) -> int:
        return sum(len(index) for index in self._shards)


class PartitionedTable:
    """``Table``-shaped facade over hash-partitioned shard fragments."""

    def __init__(self, schema: TableSchema, shard_tables: list[Table],
                 partitioner: HashPartitioner):
        self.schema = schema
        self._shards = shard_tables
        self.partitioner = partitioner
        self._next_id = 0
        #: global row id -> owning shard ordinal
        self._rid_to_shard: dict[int, int] = {}
        #: log hook (set by the durability manager); fired once per
        #: *logical* mutation, even when a partition-key update moves a
        #: row between shards
        self.on_mutate: Optional[Callable[..., None]] = None
        self._data_version = 0

    # -- shard access -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_table(self, shard: int) -> Table:
        return self._shards[shard]

    def fragment(self, shard: int) -> ShardFragment:
        return ShardFragment(self._shards[shard])

    def shard_of_row_id(self, row_id: int) -> Optional[int]:
        return self._rid_to_shard.get(row_id)

    def prune_for(self, equalities: Mapping[str, object]) -> Optional[ShardFragment]:
        """The only fragment that can satisfy ``col = literal``
        conjuncts covering the full partition key, or None when the
        conjuncts do not pin the key (the caller falls back to a full
        scan — pruning is an optimization, never a semantic change)."""
        key_values = []
        for column in self.partitioner.key_columns:
            if column not in equalities:
                return None
            dtype = self.schema.columns[self.schema.column_index(column)].dtype
            try:
                key_values.append(coerce_value(equalities[column], dtype))
            except (ReproError, ValueError, TypeError):
                return None
        shard = self.partitioner.shard_of_key(tuple(key_values))
        return self.fragment(shard)

    # -- index management -------------------------------------------------

    def create_index(self, columns: Iterable[str], unique: bool = False) -> PartitionedIndex:
        """Index ``columns`` on every shard; an index on exactly these
        columns with the same uniqueness is returned as it is, and
        nothing is logged."""
        names = tuple(columns)
        if self.has_index(names, unique):
            return PartitionedIndex(
                [shard.create_index(names, unique=unique) for shard in self._shards]
            )
        if unique and not self._covers_partition_key(names):
            # per-shard builds cannot see cross-shard duplicates; check
            # globally first with the storage layer's error message
            ordinals = tuple(self.schema.column_index(c) for c in names)
            seen: set[tuple] = set()
            for shard in self._shards:
                for row in shard.rows():
                    key = tuple(row[i] for i in ordinals)
                    if any(v is None for v in key):
                        continue
                    if key in seen:
                        cols = ", ".join(names)
                        raise IntegrityError(
                            f"duplicate key {key!r} for unique index on "
                            f"{self.schema.name}({cols})"
                        )
                    seen.add(key)
        shard_indexes = [shard.create_index(names, unique=unique) for shard in self._shards]
        if self.on_mutate is not None:
            self.on_mutate("index", names, unique)
        return PartitionedIndex(shard_indexes)

    def find_index(self, columns: Iterable[str]) -> Optional[PartitionedIndex]:
        if self._shards[0].find_index(columns) is None:
            return None
        wanted = tuple(self.schema.column_index(c) for c in columns)
        shard_indexes = []
        for shard in self._shards:
            for index in shard._indexes:
                if index.columns == wanted:
                    shard_indexes.append(index)
                    break
        return PartitionedIndex(shard_indexes)

    def has_index(self, columns: Iterable[str], unique: bool) -> bool:
        return self._shards[0].has_index(columns, unique)

    def index_defs(self) -> list[tuple[tuple[str, ...], bool]]:
        return self._shards[0].index_defs()

    def _covers_partition_key(self, columns: tuple[str, ...]) -> bool:
        lowered = {c.lower() for c in columns}
        return set(self.partitioner.key_columns) <= lowered

    # -- row access -------------------------------------------------------

    def rows(self) -> list[tuple]:
        return [row for _, row in self.rows_with_ids()]

    def rows_with_ids(self) -> list[tuple[int, tuple]]:
        merged: list[tuple[int, tuple]] = []
        for shard in self._shards:
            merged.extend(shard.rows_with_ids())
        merged.sort()
        return merged

    def get_row(self, row_id: int) -> tuple:
        shard = self._rid_to_shard.get(row_id)
        if shard is None:
            raise ExecutionError(f"no row with id {row_id}")
        return self._shards[shard].get_row(row_id)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    @property
    def row_count(self) -> int:
        return len(self)

    @property
    def next_row_id(self) -> int:
        return self._next_id

    def set_next_row_id(self, next_id: int) -> None:
        self._next_id = max(self._next_id, next_id)

    @property
    def data_version(self) -> int:
        """Monotonic per-relation mutation counter (one bump per
        logical insert/update/delete, shard moves included)."""
        return self._data_version

    # -- mutation ---------------------------------------------------------

    def _check_unique_everywhere(
        self, row: tuple, ignore_row_id: Optional[int] = None
    ) -> None:
        for position, (names, unique) in enumerate(self.index_defs()):
            if not unique:
                continue
            for shard in self._shards:
                index = shard._indexes[position]
                if index.would_violate(row, ignore_row_id=ignore_row_id):
                    raise IntegrityError(
                        f"unique violation on {self.schema.name}"
                        f"({', '.join(names)}): {index.key_of(row)!r}"
                    )

    def insert(self, values: tuple, row_id: Optional[int] = None) -> int:
        row = self._shards[0]._coerce(values)
        self._check_unique_everywhere(row)
        if row_id is None:
            rid = self._next_id
        else:
            if row_id in self._rid_to_shard:
                raise ExecutionError(
                    f"{self.schema.name}: row id {row_id} already exists"
                )
            rid = row_id
        shard = self.partitioner.shard_of(row)
        self._shards[shard].insert(row, row_id=rid)
        self._rid_to_shard[rid] = shard
        self._next_id = max(self._next_id, rid + 1)
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("insert", rid, row)
        return rid

    def delete_row(self, row_id: int) -> tuple:
        shard = self._rid_to_shard.get(row_id)
        if shard is None:
            raise ExecutionError(f"no row with id {row_id}")
        row = self._shards[shard].delete_row(row_id)
        del self._rid_to_shard[row_id]
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("delete", row_id, row)
        return row

    def update_row(self, row_id: int, values: tuple) -> tuple:
        shard = self._rid_to_shard.get(row_id)
        if shard is None:
            raise ExecutionError(f"no row with id {row_id}")
        new = self._shards[shard]._coerce(values)
        self._check_unique_everywhere(new, ignore_row_id=row_id)
        new_shard = self.partitioner.shard_of(new)
        if new_shard == shard:
            old = self._shards[shard].update_row(row_id, new)
        else:
            # the partition key changed: move the row, keeping its id
            old = self._shards[shard].delete_row(row_id)
            try:
                self._shards[new_shard].insert(new, row_id=row_id)
            except BaseException:
                self._shards[shard].insert(old, row_id=row_id)
                raise
            self._rid_to_shard[row_id] = new_shard
        self._data_version += 1
        if self.on_mutate is not None:
            self.on_mutate("update", row_id, new, old)
        return old

    def truncate(self) -> None:
        for rid in list(self._rid_to_shard):
            self.delete_row(rid)

    # -- statistics -------------------------------------------------------

    def distinct_count(self, column: str) -> int:
        ordinal = self.schema.column_index(column)
        values: set = set()
        for shard in self._shards:
            values.update(row[ordinal] for row in shard.rows())
        return len(values)
