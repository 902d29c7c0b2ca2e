"""Unit tests for selection pushdown (repro.algebra.rewrite)."""

from collections import Counter

import pytest

from repro.db import Database
from repro.errors import ExecutionError
from repro.sql import parse_query
from repro.algebra import ops
from repro.algebra.rewrite import push_selections


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table T(id int primary key, grp varchar(2), v int);
        create table U(id int primary key, t_id int, w int);
        insert into T values (1,'a',10),(2,'a',20),(3,'b',30);
        insert into U values (1,1,100),(2,1,200),(3,3,300);
        """
    )
    return database


def plan_of(db, sql):
    # plan_query already applies push_selections; build unpushed by hand
    from repro.algebra.translate import Translator

    return Translator(db.catalog).translate(parse_query(sql))


def count_ops(plan, kind):
    return sum(1 for node in ops.walk(plan) if isinstance(node, kind))


class TestPushdownShapes:
    def test_cross_join_becomes_inner(self, db):
        raw = plan_of(db, "select T.id from T, U where T.id = U.t_id")
        pushed = push_selections(raw)
        joins = [n for n in ops.walk(pushed) if isinstance(n, ops.Join)]
        assert joins and joins[0].kind == "inner"
        assert joins[0].predicate is not None

    def test_single_side_conjuncts_pushed_below(self, db):
        raw = plan_of(
            db, "select T.id from T, U where T.id = U.t_id and T.grp = 'a'"
        )
        pushed = push_selections(raw)
        join = next(n for n in ops.walk(pushed) if isinstance(n, ops.Join))
        # the grp filter must sit below the join, on the T side
        left_selects = [
            n for n in ops.walk(join.left) if isinstance(n, ops.Select)
        ]
        assert left_selects, pushed.pretty()
        assert "grp" in str(left_selects[0].predicate)

    def test_select_merge_through_nested_selects(self, db):
        raw = plan_of(
            db,
            "select id from (select * from T where v > 5) s where s.grp = 'a'",
        )
        pushed = push_selections(raw)
        # both conjuncts end up in (possibly one) select over the scan
        selects = [n for n in ops.walk(pushed) if isinstance(n, ops.Select)]
        assert selects

    def test_left_join_predicate_untouched(self, db):
        raw = plan_of(
            db, "select T.id from T left join U on T.id = U.t_id"
        )
        pushed = push_selections(raw)
        join = next(n for n in ops.walk(pushed) if isinstance(n, ops.Join))
        assert join.kind == "left"
        assert join.predicate is not None


class TestPushdownSemantics:
    QUERIES = [
        "select T.id, U.w from T, U where T.id = U.t_id",
        "select T.id from T, U where T.id = U.t_id and T.grp = 'a' and U.w > 150",
        "select T.grp, count(*) from T, U where T.id = U.t_id group by T.grp",
        "select t1.id, t2.id from T t1, T t2 where t1.v < t2.v",
        "select T.id from T, U where T.id = U.t_id and T.v + U.w > 100",
        "select distinct grp from T where v > 5",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_pushed_plan_equivalent(self, db, sql):
        session = db.connect().session
        raw = plan_of(db, sql)
        pushed = push_selections(raw)
        raw_rows = Counter(db.run_plan(raw, session).rows)
        pushed_rows = Counter(db.run_plan(pushed, session).rows)
        assert raw_rows == pushed_rows

    def test_pushdown_reduces_join_work(self, db):
        from repro.db import _QueryContext
        from repro.engine.executor import Executor

        session = db.connect().session
        sql = "select T.id from T, U where T.id = U.t_id and T.grp = 'b'"
        raw = plan_of(db, sql)
        pushed = push_selections(raw)

        def pairs(plan):
            executor = Executor(_QueryContext(db, session))
            executor.execute(plan)
            return executor.join_pairs_examined

        assert pairs(pushed) <= pairs(raw)


@pytest.fixture
def view_db(db):
    db.execute_script(
        """
        create view TU as
            select T.id, T.grp, T.v, U.w from T, U where T.id = U.t_id;
        create view TUPositive as select * from TU where w > 0;
        create view Groups as select grp, sum(v) as total from T group by grp;
        create view Grp as select distinct grp, v from T, U where T.id = U.t_id;
        create view Top as select T.id, U.w from T, U where T.id = U.t_id limit 2;
        create view LeftTU as
            select T.id, T.grp, U.w from T left join U on T.id = U.t_id;
        """
    )
    return db


def planned(db, sql):
    return db.plan_query(parse_query(sql), db.connect().session)


def prefilters(plan):
    return [n for n in ops.walk(plan) if isinstance(n, ops.Prefilter)]


def beneath_joins(plan):
    """Prefilters found under some Join of ``plan``."""
    return [
        p
        for join in ops.walk(plan)
        if isinstance(join, ops.Join)
        for p in prefilters(join.left) + prefilters(join.right)
    ]


class TestPrefilterCopies:
    def test_copy_lands_below_the_views_join(self, view_db):
        plan = planned(view_db, "select id from TU where grp = 'a'")
        (copy,) = prefilters(plan)
        assert beneath_joins(plan) == [copy]
        assert str(copy.predicate) == "(T.grp = 'a')"
        assert isinstance(copy.child, ops.Rel) and copy.child.name == "T"
        # the conjunct itself stays above the view, as a strict Select
        selects = [n for n in ops.walk(plan) if isinstance(n, ops.Select)]
        assert [str(s.predicate) for s in selects] == ["(TU.grp = 'a')"]

    def test_copy_lands_below_regstudents_join(self):
        from repro.workloads.university import build_university

        university = build_university()
        plan = planned(
            university,
            "select course_id, student_id, name from RegStudents "
            "where type = 'PartTime'",
        )
        (copy,) = beneath_joins(plan)
        assert str(copy.predicate) == "(Students.type = 'PartTime')"
        assert copy.child == ops.Rel(
            "Students", "Students", ("student_id", "name", "type")
        )

    def test_copy_is_rewritten_through_the_projection(self, view_db):
        view_db.execute(
            "create view Doubled as select T.id, T.v * 2 as dv, U.w "
            "from T, U where T.id = U.t_id"
        )
        plan = planned(view_db, "select id from Doubled where dv > 30")
        (copy,) = prefilters(plan)
        assert str(copy.predicate) == "((T.v * 2) > 30)"

    def test_copy_sinks_through_nested_views(self, view_db):
        plan = planned(view_db, "select id from TUPositive where grp = 'b'")
        # TUPositive's own filter is a conjunct over TU, copied as well
        copies = beneath_joins(plan)
        assert sorted(str(c.predicate) for c in copies) == [
            "(T.grp = 'b')",
            "(U.w > 0)",
        ]

    def test_copy_over_both_sides_is_dropped(self, view_db):
        plan = planned(view_db, "select id from TU where v + w > 100")
        assert prefilters(plan) == []

    def test_copy_without_a_join_is_dropped(self, view_db):
        view_db.execute("create view Ta as select * from T where grp = 'a'")
        assert prefilters(planned(view_db, "select id from Ta where v > 5")) == []

    @pytest.mark.parametrize(
        "sql",
        [
            "select grp from Groups where total > 10",  # Aggregate
            "select grp from Grp where v > 10",  # Distinct
            "select id from Top where w > 150",  # Limit
            "select id from LeftTU where grp = 'a'",  # outer join
            # a subquery conjunct
            "select id from TU where id in (select t_id from U where w > 150)",
            "select id from TU where grp = 'a' and "
            "exists (select * from U where w > 150)",
        ],
    )
    def test_no_copy_goes_through(self, view_db, sql):
        assert prefilters(planned(view_db, sql)) == [], planned(view_db, sql).pretty()

    def test_rerunning_never_turns_a_copy_strict(self, view_db):
        plan = planned(view_db, "select id from TUPositive where grp = 'b'")
        again = push_selections(push_selections(plan))
        assert again == plan
        # a prefilter placed above a join by hand only sinks, leniently
        join = next(n for n in ops.walk(plan) if isinstance(n, ops.Join))
        bare = ops.Join(
            ops.Rel("T", "T", ("id", "grp", "v")),
            ops.Rel("U", "U", ("id", "t_id", "w")),
            "inner",
            join.predicate,
        )
        copy = ops.Prefilter(bare, parse_query("select 1 where T.v > 15").where)
        pushed = push_selections(copy)
        (sunk,) = prefilters(pushed)
        assert isinstance(sunk.child, ops.Rel) and sunk.child.name == "T"
        assert not any(isinstance(n, ops.Select) for n in ops.walk(pushed))

    @pytest.mark.parametrize(
        "sql",
        [
            "select id, w from TU where grp = 'a'",
            "select id from TUPositive where grp = 'b' and w > 150",
            # T row 2 (v = 20) joins no U row: only the view hides it
            "select id from TU where 10 / (v - 20) > 0",
        ],
    )
    def test_same_rows_as_unpushed(self, view_db, sql):
        session = view_db.connect().session
        raw = plan_of(view_db, sql)
        for engine in ("row", "vectorized"):
            assert Counter(
                view_db.run_plan(raw, session, engine=engine, optimize=False).rows
            ) == Counter(view_db.run_plan(raw, session, engine=engine).rows)

    def test_a_copy_can_drop_an_error_a_visible_row_raises(self, view_db):
        # T row 3 (v = 30, w = 300) is visible in TU and divides by zero.
        # The first conjunct reads both join sides, so only a copy of
        # grp = 'a' lands on T, drops row 3, and the query answers.
        sql = "select id from TU where 100000 / (v + 270 - w) > 0 and grp = 'a'"
        session = view_db.connect().session
        raw = plan_of(view_db, sql)
        for engine in ("row", "vectorized"):
            with pytest.raises(ExecutionError, match="division by zero"):
                view_db.run_plan(raw, session, engine=engine, optimize=False)
            assert view_db.run_plan(raw, session, engine=engine).rows == [
                (1,),
                (1,),
            ]

    def test_copies_landing_together_keep_the_error(self, view_db):
        # both conjuncts read T alone: one prefilter holds them together,
        # keeps row 3 where the division raises, and the query raises
        sql = "select id from TU where 10 / (v - 30) < 0 and grp = 'a'"
        (copy,) = prefilters(planned(view_db, sql))
        assert str(copy.predicate) == (
            "(((10 / (T.v - 30)) < 0) and (T.grp = 'a'))"
        )
        session = view_db.connect().session
        raw = plan_of(view_db, sql)
        for engine in ("row", "vectorized"):
            with pytest.raises(ExecutionError, match="division by zero"):
                view_db.run_plan(raw, session, engine=engine)
