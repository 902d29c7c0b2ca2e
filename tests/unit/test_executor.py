"""Unit tests for the executor, run through the Database facade."""

import pytest

from repro.algebra import ops
from repro.db import Database
from repro.engine.executor import Executor
from repro.errors import ExecutionError
from repro.sql import ast


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table T(id int primary key, grp varchar(5), val float);
        create table U(id int primary key, t_id int, tag varchar(5));
        insert into T values (1,'a',10.0),(2,'a',20.0),(3,'b',30.0),(4,'b',null);
        insert into U values (1,1,'x'),(2,1,'y'),(3,3,'x');
        """
    )
    return database


class TestScanSelectProject:
    def test_full_scan(self, db):
        assert len(db.execute("select * from T")) == 4

    def test_where_filters_unknown(self, db):
        # val = NULL rows are dropped (UNKNOWN, not TRUE)
        result = db.execute("select id from T where val > 5")
        assert sorted(result.column("id")) == [1, 2, 3]

    def test_projection_expressions(self, db):
        result = db.execute("select id * 10 as x from T where id = 2")
        assert result.scalar() == 20

    def test_distinct(self, db):
        result = db.execute("select distinct grp from T")
        assert sorted(result.column("grp")) == ["a", "b"]


class TestJoins:
    def test_hash_equi_join(self, db):
        result = db.execute(
            "select T.id, U.tag from T, U where T.id = U.t_id"
        )
        assert sorted(result.rows) == [(1, "x"), (1, "y"), (3, "x")]

    def test_join_with_residual(self, db):
        result = db.execute(
            "select T.id from T join U on T.id = U.t_id and U.tag = 'x'"
        )
        assert sorted(result.column("id")) == [1, 3]

    def test_nested_loop_inequality_join(self, db):
        result = db.execute(
            "select T.id, U.id from T join U on T.id < U.t_id"
        )
        # t_id values: 1,1,3 ; T.id < t_id: (1<3),(2<3)
        assert sorted(result.rows) == [(1, 3), (2, 3)]

    def test_left_join_null_padding(self, db):
        result = db.execute(
            "select T.id, U.tag from T left join U on T.id = U.t_id order by T.id"
        )
        assert (2, None) in result.rows and (4, None) in result.rows

    def test_cross_join_cardinality(self, db):
        assert len(db.execute("select 1 from T, U")) == 12

    def test_join_null_keys_never_match(self, db):
        db.execute("insert into U values (4, null, 'z')")
        result = db.execute("select U.id from T, U where T.id = U.t_id")
        assert 4 not in result.column("id")


class TestAggregation:
    def test_group_by(self, db):
        result = db.execute(
            "select grp, count(*) as n, sum(val) as s from T group by grp order by grp"
        )
        assert result.rows == [("a", 2, 30.0), ("b", 2, 30.0)]

    def test_scalar_aggregate_on_empty_input(self, db):
        result = db.execute("select count(*), avg(val) from T where id > 99")
        assert result.rows == [(0, None)]

    def test_group_by_empty_input_no_rows(self, db):
        result = db.execute("select grp, count(*) from T where id > 99 group by grp")
        assert result.rows == []

    def test_having(self, db):
        result = db.execute(
            "select grp from T group by grp having sum(val) > 25 and count(*) = 2"
        )
        assert sorted(result.column("grp")) == ["a", "b"]

    def test_avg_ignores_nulls(self, db):
        result = db.execute("select avg(val) from T where grp = 'b'")
        assert result.scalar() == 30.0

    def test_count_distinct(self, db):
        result = db.execute("select count(distinct grp) from T")
        assert result.scalar() == 2

    def test_group_by_expression(self, db):
        result = db.execute("select id % 2 as parity, count(*) from T group by id % 2")
        assert sorted(result.rows) == [(0, 2), (1, 2)]


class TestSetOperations:
    def test_union_all_keeps_duplicates(self, db):
        result = db.execute(
            "select grp from T union all select grp from T"
        )
        assert len(result) == 8

    def test_union_distinct(self, db):
        result = db.execute("select grp from T union select grp from T")
        assert sorted(result.column("grp")) == ["a", "b"]

    def test_intersect(self, db):
        result = db.execute(
            "select tag from U intersect select grp from T"
        )
        assert result.rows == []  # tags x,y vs groups a,b

    def test_intersect_all_multiplicity(self, db):
        result = db.execute(
            "select grp from T intersect all "
            "select grp from T where id in (1, 3)"
        )
        assert sorted(r[0] for r in result.rows) == ["a", "b"]

    def test_except(self, db):
        result = db.execute(
            "select grp from T except select grp from T where grp = 'a'"
        )
        assert result.column("grp") == ["b"]

    def test_except_all_subtracts_counts(self, db):
        result = db.execute(
            "select grp from T except all select grp from T where id = 1"
        )
        counts = sorted(r[0] for r in result.rows)
        assert counts == ["a", "b", "b"]


class TestSortLimit:
    def test_order_desc(self, db):
        result = db.execute("select id from T order by id desc")
        assert result.column("id") == [4, 3, 2, 1]

    def test_nulls_last_ascending(self, db):
        result = db.execute("select val from T order by val")
        assert result.column("val") == [10.0, 20.0, 30.0, None]

    def test_nulls_first_descending(self, db):
        result = db.execute("select val from T order by val desc")
        assert result.column("val") == [None, 30.0, 20.0, 10.0]

    def test_multi_key_sort(self, db):
        result = db.execute("select grp, id from T order by grp desc, id")
        assert result.rows == [("b", 3), ("b", 4), ("a", 1), ("a", 2)]

    def test_limit_offset(self, db):
        result = db.execute("select id from T order by id limit 2 offset 1")
        assert result.column("id") == [2, 3]


class TestFromlessSelect:
    def test_constant_select(self, db):
        assert db.execute("select 1 + 1 as two").scalar() == 2


class TestViewScanArity:
    """Regression: the ViewRel arity check must fire even when the view
    produces zero rows.  It used to be validated against the first
    result row, so a stale plan over an *empty* authorization view
    silently returned mis-shaped (empty) output instead of failing."""

    @pytest.fixture
    def secured(self, db):
        db.execute(
            "create authorization view EmptyView as "
            "select id, grp from T where val > 1000.0"
        )
        db.grant_public("EmptyView")
        return db

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_empty_view_arity_mismatch_raises(self, secured, engine):
        from repro.algebra import ops
        from repro.errors import ExecutionError

        # plan claims three columns; the stored definition produces two
        stale = ops.ViewRel("EmptyView", "v", ("id", "grp", "val"))
        with pytest.raises(ExecutionError, match="produces 2 columns, expected 3"):
            secured.run_plan(stale, engine=engine)

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_empty_view_matching_arity_is_fine(self, secured, engine):
        from repro.algebra import ops

        plan = ops.ViewRel("EmptyView", "v", ("id", "grp"))
        result = secured.run_plan(plan, engine=engine)
        assert result.rows == []
        assert result.columns == ("id", "grp")

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_nonempty_view_arity_mismatch_raises(self, db, engine):
        from repro.algebra import ops
        from repro.errors import ExecutionError

        db.execute(
            "create authorization view SomeRows as select id, grp from T"
        )
        db.grant_public("SomeRows")
        stale = ops.ViewRel("SomeRows", "v", ("id",))
        with pytest.raises(ExecutionError, match="expected 1"):
            db.run_plan(stale, engine=engine)


# -- lazy column resolution ----------------------------------------------

LAZY_COLUMNS = ("id", "grp")
LAZY_TABLES = {"Full": [(1, "a"), (2, "b")], "Empty": []}
UNRESOLVABLE = ast.ColumnRef("t", "zz")


class LazyContext:
    """Row-only host: two tables and one view that scans the full one."""

    def table_rows(self, name):
        return LAZY_TABLES[name]

    def view_plan(self, name, access_args=()):
        return ops.Rel("Full", "v", LAZY_COLUMNS)


def lazy_plans(table: str) -> dict:
    """One plan per expression-evaluating operator, each reading the
    unresolvable ``t.zz`` over a scan of ``table`` bound as ``t``."""
    child = ops.Rel(table, "t", LAZY_COLUMNS)
    right = ops.Rel("Full", "u", LAZY_COLUMNS)
    bad, good, other = UNRESOLVABLE, ast.ColumnRef("t", "id"), ast.ColumnRef("u", "id")
    is_one = ast.BinaryOp("=", bad, ast.Literal(1))
    count = ast.FuncCall("count", (ast.Star(),))
    return {
        "select": ops.Select(child, is_one),
        "project columns": ops.Project(child, ((good, "id"), (bad, "zz"))),
        "project one column": ops.Project(child, ((bad, "zz"),)),
        "project expression": ops.Project(
            child, ((ast.BinaryOp("+", bad, ast.Literal(1)), "zz"),)
        ),
        "join residual": ops.Join(
            child, right, "inner",
            ast.BinaryOp("and", ast.BinaryOp("=", good, other), is_one),
        ),
        "nested-loop join": ops.Join(
            child, right, "inner", ast.BinaryOp("<", bad, other)
        ),
        "aggregate group": ops.Aggregate(child, ((bad, "g"),), ((count, "n"),)),
        "aggregate argument": ops.Aggregate(
            child, ((good, "id"),), ((ast.FuncCall("sum", (bad,)), "s"),)
        ),
        "sort": ops.Sort(child, ((bad, False),)),
        "semi-join operand": ops.SemiJoin(
            child, ops.Project(right, ((other, "id"),)), operand=bad
        ),
        "dependent-join key": ops.DependentJoin(
            child, "V", "v", LAZY_COLUMNS, "p", key_expr=bad
        ),
        "dependent-join predicate": ops.DependentJoin(
            child, "V", "v", LAZY_COLUMNS, "p", key_expr=good, predicate=is_one
        ),
    }


class TestLazyColumnResolution:
    """Every row-engine operator that evaluates expressions binds a column
    reference to its row ordinal lazily: an unresolvable reference
    answers ``[]`` over an empty input and raises the resolver's error on
    the first row of a non-empty one."""

    @pytest.mark.parametrize("operator", list(lazy_plans("Empty")))
    def test_empty_input_answers_nothing(self, operator):
        plan = lazy_plans("Empty")[operator]
        assert Executor(LazyContext()).execute(plan) == []

    @pytest.mark.parametrize("operator", list(lazy_plans("Full")))
    def test_first_row_raises_the_resolver_error(self, operator):
        plan = lazy_plans("Full")[operator]
        with pytest.raises(ExecutionError) as raised:
            Executor(LazyContext()).execute(plan)
        assert str(raised.value) == "cannot resolve column t.zz at runtime"
