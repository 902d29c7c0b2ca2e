"""Aggregate function accumulators (SQL semantics).

* ``count(*)`` counts rows; ``count(expr)`` counts non-NULL values.
* ``sum``/``avg``/``min``/``max`` ignore NULLs and return NULL over an
  empty (or all-NULL) input; ``count`` returns 0.
* ``DISTINCT`` variants deduplicate non-NULL values first.

Each accumulator folds one value with ``add`` (the row engine) or a
whole vector with ``add_all`` (the vectorized engine and shard
partials).  ``add_all(values)`` leaves the accumulator exactly as
``add`` on each value in order would, raises the same errors, and runs
builtins over the vector instead of a Python call per value.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Optional, Sequence

from repro.errors import ExecutionError, TypeError_


class Accumulator:
    """Base accumulator: feed values with add(), read with result()."""

    def add(self, value: object) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def add_all(self, values: Sequence) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def result(self) -> object:  # pragma: no cover - abstract
        raise NotImplementedError


class CountStar(Accumulator):
    def __init__(self):
        self.count = 0

    def add(self, value: object) -> None:
        self.count += 1

    def add_all(self, values: Sequence) -> None:
        self.count += len(values)

    def result(self) -> int:
        return self.count


class Count(Accumulator):
    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self.count = 0
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1

    def add_all(self, values: Sequence) -> None:
        values = _non_null(values)
        if self.distinct:
            values = _unseen(values, self.seen)
        self.count += len(values)

    def result(self) -> int:
        return self.count


class Sum(Accumulator):
    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self.total: Optional[float] = None
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"sum() on non-numeric value {value!r}")
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.total = value if self.total is None else self.total + value

    def add_all(self, values: Sequence) -> None:
        values = _numbers(values, "sum")
        if self.distinct:
            values = _unseen(values, self.seen)
        if not values:
            return
        # left to right, as add() would: a compensated sum (math.fsum)
        # would change float results
        if self.total is None:
            self.total = reduce(add, values)
        else:
            self.total = reduce(add, values, self.total)

    def result(self) -> Optional[float]:
        return self.total


class Avg(Accumulator):
    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self.total = 0.0
        self.count = 0
        self.seen: set = set()

    def add(self, value: object) -> None:
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"avg() on non-numeric value {value!r}")
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.total += value
        self.count += 1

    def add_all(self, values: Sequence) -> None:
        values = _numbers(values, "avg")
        if self.distinct:
            values = _unseen(values, self.seen)
        self.total = reduce(add, values, self.total)
        self.count += len(values)

    def result(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count


class MinMax(Accumulator):
    def __init__(self, is_min: bool):
        self.is_min = is_min
        self.best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.best is None:
            self.best = value
            return
        try:
            smaller = value < self.best
        except TypeError as exc:
            raise TypeError_(
                f"min/max on incomparable values {value!r}, {self.best!r}"
            ) from exc
        if smaller == self.is_min:
            self.best = value

    def add_all(self, values: Sequence) -> None:
        try:
            self.best = self._fold(values)
        except TypeError:
            # a NULL among the values, or values that do not compare
            values = _non_null(values)
            try:
                self.best = self._fold(values)
            except TypeError:
                for value in values:  # add() raises its error and message
                    self.add(value)

    def _fold(self, values: Sequence) -> object:
        """The state add() reaches over ``values`` (raises TypeError
        where some pair does not compare)."""
        if self.best is not None:
            values = [self.best, *values]
        if not values:
            return None
        if self.is_min:
            # min() replaces only on a smaller value, as add() does
            return min(values)
        if float in map(type, values):
            # a NaN is neither smaller nor larger than anything: fold
            # with add()'s own test
            best = values[0]
            for value in values:
                if not value < best:
                    best = value
            return best
        # without NaN, the last largest value is the one add() keeps
        return max(reversed(values))

    def result(self) -> object:
        return self.best


def _non_null(values: Sequence) -> list:
    return [v for v in values if v is not None]


def _unseen(values: Sequence, seen: set) -> list:
    """The values not in ``seen``, first occurrences only, in order;
    records them in ``seen``."""
    fresh = []
    for value in values:
        if value not in seen:
            seen.add(value)
            fresh.append(value)
    return fresh


_NUMBER_TYPES = {int, float}


def _numbers(values: Sequence, name: str) -> Sequence:
    """The non-NULL ``values``, each a number; else add()'s error for
    the first non-number."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        return values
    values = _non_null(values)
    if not set(map(type, values)) <= _NUMBER_TYPES:
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError_(f"{name}() on non-numeric value {value!r}")
    return values


def make_accumulator(name: str, distinct: bool, star: bool) -> Accumulator:
    """Factory keyed on aggregate function name."""
    lowered = name.lower()
    if lowered == "count":
        return CountStar() if star else Count(distinct)
    if lowered == "sum":
        return Sum(distinct)
    if lowered == "avg":
        return Avg(distinct)
    if lowered == "min":
        return MinMax(is_min=True)
    if lowered == "max":
        return MinMax(is_min=False)
    raise ExecutionError(f"unknown aggregate function {name!r}")
