"""Unit tests for aggregate accumulators (SQL semantics)."""

import pytest

from repro.errors import TypeError_
from repro.engine.aggregates import make_accumulator


def run(name, values, distinct=False, star=False):
    acc = make_accumulator(name, distinct, star)
    for v in values:
        acc.add(v)
    return acc.result()


class TestCount:
    def test_count_star_counts_everything(self):
        assert run("count", [1, None, 2], star=True) == 3

    def test_count_ignores_nulls(self):
        assert run("count", [1, None, 2]) == 2

    def test_count_distinct(self):
        assert run("count", [1, 1, 2, None], distinct=True) == 2

    def test_count_empty_is_zero(self):
        assert run("count", []) == 0


class TestSum:
    def test_sum(self):
        assert run("sum", [1, 2, 3]) == 6

    def test_sum_ignores_nulls(self):
        assert run("sum", [1, None, 2]) == 3

    def test_sum_empty_is_null(self):
        assert run("sum", []) is None

    def test_sum_all_nulls_is_null(self):
        assert run("sum", [None, None]) is None

    def test_sum_distinct(self):
        assert run("sum", [2, 2, 3], distinct=True) == 5

    def test_sum_non_numeric_raises(self):
        with pytest.raises(TypeError_):
            run("sum", ["a"])


class TestAvg:
    def test_avg(self):
        assert run("avg", [1, 2, 3]) == 2.0

    def test_avg_ignores_nulls(self):
        assert run("avg", [2, None, 4]) == 3.0

    def test_avg_empty_is_null(self):
        assert run("avg", []) is None

    def test_avg_distinct(self):
        assert run("avg", [2, 2, 4], distinct=True) == 3.0


class TestMinMax:
    def test_min_max(self):
        assert run("min", [3, 1, 2]) == 1
        assert run("max", [3, 1, 2]) == 3

    def test_strings(self):
        assert run("min", ["b", "a"]) == "a"

    def test_nulls_ignored(self):
        assert run("min", [None, 5, None]) == 5

    def test_empty_is_null(self):
        assert run("min", []) is None
        assert run("max", []) is None


def test_unknown_aggregate():
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError):
        make_accumulator("median", False, False)


# -- add_all: a vector at a time, exactly as add() one value at a time ---

#: value vectors where a fold's order, NULLs, ties between equal values
#: of different types, or DISTINCT's first occurrence would show
VECTORS = [
    [],
    [None, None],
    [3, None, 1, 2],
    [0.3, 0.2, 0.1],  # 0.6 left to right, 0.6000000000000001 sorted
    [1e16, 1.0, -1e16],  # 0.0 left to right, 1.0 compensated
    [1, 1.0, True, 2, 2.0],
    [1.0, 1, 2.0, 2],
    ["b", "a", None, "c", "a"],
    [None, 2.5, 2.5, -0.0, 0.0],
    [2.0, float("nan"), 1.0],  # a NaN neither smaller nor larger
    [1.0, 3.0, float("nan"), 0.0, 2.0],
    [1, 2, "b", "a"],  # incomparable values across a chunk boundary
]

FUNCTIONS = [
    ("count", False, True),
    ("count", False, False),
    ("count", True, False),
    ("sum", False, False),
    ("sum", True, False),
    ("avg", False, False),
    ("avg", True, False),
    ("min", False, False),
    ("max", False, False),
]


def fold(name, distinct, star, values, chunk=None):
    """(result, its type) or (error type, message) of one accumulator
    fed ``values`` by add(), or by add_all() in ``chunk``-sized vectors."""
    acc = make_accumulator(name, distinct, star)
    try:
        if chunk is None:
            for value in values:
                acc.add(value)
        else:
            for start in range(0, len(values), chunk):
                acc.add_all(values[start : start + chunk])
    except TypeError_ as exc:
        return TypeError_, str(exc)
    return repr(acc.result()), type(acc.result())


#: (function, vector) pairs; sum and avg of text are the error cases
CASES = [
    (function, values)
    for function in FUNCTIONS
    for values in VECTORS
    if function[0] not in ("sum", "avg") or "a" not in values
]


class TestAddAll:
    @pytest.mark.parametrize("function,values", CASES, ids=range(len(CASES)))
    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    def test_matches_add(self, function, values, chunk):
        assert fold(*function, values, chunk) == fold(*function, values)

    @pytest.mark.parametrize(
        "name,values",
        [
            ("sum", [1, None, "x", 2]),
            ("avg", [None, True]),
            ("min", [None, 1, "a"]),
            ("max", ["a", None, 2, 3]),
        ],
    )
    def test_same_error_as_add(self, name, values):
        expected = fold(name, False, False, values)
        assert expected[0] is TypeError_
        assert fold(name, False, False, values, chunk=1024) == expected
