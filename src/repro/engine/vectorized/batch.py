"""Column-vector batches.

A :class:`ColumnBatch` holds ``width`` parallel Python lists, one per
output column, all of the same ``length``.  NULL is ``None`` inside a
column vector, exactly as in row tuples, so converting between the two
representations is lossless.

The batch is the unit of work of the vectorized executor: operators
consume and produce lists of batches of at most
:data:`~repro.engine.vectorized.BATCH_SIZE` rows, and compiled
expressions evaluate over whole column vectors at a time.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence


class ColumnBatch:
    """A fixed-width batch of rows in columnar layout.

    A batch built :meth:`from_rows` keeps the row tuples and transposes
    a column only when :meth:`column` first reads it.  A scan whose
    consumers read two of five columns (or none, as ``count(*)``)
    never builds the other vectors, and a batch that reaches the output
    unchanged hands back the very tuples it was built from.  Reading
    :attr:`columns` (every column, as a mutable list) turns the batch
    columnar for good.
    """

    __slots__ = ("_columns", "length", "_rows")

    def __init__(self, columns: list[list], length: int):
        self._columns = columns
        self.length = length
        #: source row tuples while some column is still untransposed
        self._rows: Optional[list[tuple]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        if not rows:
            return cls.empty(width)
        batch = cls([None] * width, len(rows))
        batch._rows = list(rows)
        return batch

    @classmethod
    def empty(cls, width: int) -> "ColumnBatch":
        return cls([[] for _ in range(width)], 0)

    # -- access -----------------------------------------------------------

    def column(self, ordinal: int) -> list:
        """The value vector of one column (shared: do not mutate)."""
        vector = self._columns[ordinal]
        if vector is None:
            vector = self._columns[ordinal] = list(
                map(itemgetter(ordinal), self._rows)
            )
        return vector

    @property
    def columns(self) -> list[list]:
        if self._rows is not None:
            for ordinal in range(len(self._columns)):
                self.column(ordinal)
            self._rows = None
        return self._columns

    @property
    def width(self) -> int:
        return len(self._columns)

    def to_rows(self) -> list[tuple]:
        """The batch's rows (the source tuples when it has them)."""
        if self._rows is not None:
            return self._rows
        if not self._columns:
            return [()] * self.length
        return list(zip(*self._columns))

    # -- transformation ---------------------------------------------------

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the rows at ``indices`` (a selection vector)."""
        if self._rows is not None:
            rows = self._rows
            return ColumnBatch.from_rows([rows[i] for i in indices], self.width)
        return ColumnBatch(
            [[col[i] for i in indices] for col in self._columns], len(indices)
        )

    def concat_columns(self, other: "ColumnBatch") -> "ColumnBatch":
        """Widen: same length, columns of ``other`` appended."""
        assert self.length == other.length
        return ColumnBatch(self.columns + other.columns, self.length)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnBatch(width={self.width}, length={self.length})"


def batches_from_rows(
    rows: Sequence[tuple], width: int, batch_size: int
) -> Iterator[ColumnBatch]:
    """Chunk ``rows`` into column batches of at most ``batch_size``."""
    for start in range(0, len(rows), batch_size):
        yield ColumnBatch.from_rows(rows[start : start + batch_size], width)


def rows_from_batches(batches: Iterable[ColumnBatch]) -> list[tuple]:
    result: list[tuple] = []
    for batch in batches:
        result.extend(batch.to_rows())
    return result
