"""Differential testing: vectorized engine vs the row-engine oracle.

Every query here runs through both engines and must produce bag-equal
results (same multiset of rows, compared with a Counter) and identical
column headers.  The row engine is the semantic oracle — any mismatch
is a vectorized-engine bug by definition.

Coverage: an open-mode catalog of SQL shapes, every workload query of
``student_query_mix`` (open + Truman-rewritten), the paper's worked
examples, Truman rewrites over the bank views, the witnesses of the
access-pattern (§6) queries, whose dependent joins only a witness
runs, and the empty-result / all-NULL corners where three-valued logic
bugs hide.
"""

from collections import Counter

import pytest

from repro.db import Database
from repro.workloads.bank import build_bank, BankConfig, grant_teller
from repro.workloads.queries import student_query_mix
from repro.workloads.university import build_university, UniversityConfig

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA
from tests.integration.test_access_pattern import build_access_pattern_db


def assert_engines_agree(db, sql, session=None, mode="open", access_params=None):
    row = db.execute_query(
        sql, session=session, mode=mode, access_params=access_params, engine="row"
    )
    vec = db.execute_query(
        sql, session=session, mode=mode, access_params=access_params,
        engine="vectorized",
    )
    assert row.columns == vec.columns, sql
    assert Counter(row.rows) == Counter(vec.rows), (
        f"engines disagree on {sql!r}:\n  row: {sorted(map(repr, row.rows))}"
        f"\n  vec: {sorted(map(repr, vec.rows))}"
    )
    return row


def connection_agreement(conn, sql):
    row = conn.query(sql, engine="row")
    vec = conn.query(sql, engine="vectorized")
    assert row.columns == vec.columns, sql
    assert Counter(row.rows) == Counter(vec.rows), sql
    return row


# -- open-mode catalog over the Section 2 schema ------------------------

#: one query per executor feature; ordering-sensitive queries compare
#: bag-equal like everything else (ORDER BY ties are nondeterministic)
CATALOG = [
    "select * from Students",
    "select name from Students where type = 'FullTime'",
    "select * from Grades where grade > 3.0",
    "select * from Grades where grade > 3.0 and course_id = 'CS102'",
    "select student_id from Grades where grade >= 2.5 or course_id = 'CS101'",
    "select * from Students where not (type = 'FullTime')",
    "select * from Students where name like 'A%'",
    "select name || ' (' || type || ')' from Students",
    "select student_id, grade + 1.0, grade * 2.0, grade - 0.5 from Grades",
    "select * from Grades where grade between 2.0 and 3.5",
    "select * from Grades where grade not between 2.0 and 3.5",
    "select * from Students where student_id in ('11', '13', '99')",
    "select * from Students where student_id not in ('11', '13')",
    "select * from Students where type is null",
    "select * from Students where type is not null",
    "select case when grade >= 3.5 then 'high' when grade >= 2.5 then 'mid' "
    "else 'low' end from Grades",
    "select coalesce(type, 'Unknown') from Students",
    "select lower(name), upper(name), length(name) from Students",
    "select abs(0.0 - grade) from Grades",
    "select distinct course_id from Grades",
    "select distinct type from Students",
    # joins
    "select s.name, g.grade from Students s, Grades g "
    "where s.student_id = g.student_id",
    "select s.name, g.grade from Students s, Grades g "
    "where s.student_id = g.student_id and g.grade > 3.0",
    "select s.name, c.name from Students s, Registered r, Courses c "
    "where s.student_id = r.student_id and r.course_id = c.course_id",
    "select s.name, g.grade from Students s left join Grades g "
    "on s.student_id = g.student_id",
    "select s.name, g.grade from Students s left join Grades g "
    "on s.student_id = g.student_id and g.grade > 3.9",
    "select s.name, c.name from Students s, Courses c",  # cross product
    "select a.student_id, b.student_id from Grades a, Grades b "
    "where a.course_id = b.course_id and a.grade < b.grade",  # non-equi residual
    # aggregation
    "select count(*) from Grades",
    "select count(*), sum(grade), avg(grade), min(grade), max(grade) from Grades",
    "select course_id, count(*), avg(grade) from Grades group by course_id",
    "select course_id, count(*) from Grades group by course_id "
    "having count(*) >= 2",
    "select type, count(distinct name) from Students group by type",
    "select count(*) from Grades where grade > 100.0",  # empty input aggregate
    # subqueries
    "select * from Students where student_id in "
    "(select student_id from Grades where grade >= 3.5)",
    "select * from Students where student_id not in "
    "(select student_id from FeesPaid)",
    "select count(*) from Students where exists "
    "(select 1 from Grades where grade > 3.9)",
    "select count(*) from Students where not exists "
    "(select 1 from Grades where grade > 4.5)",
    # set operations
    "select student_id from Grades union select student_id from FeesPaid",
    "select student_id from Grades union all select student_id from FeesPaid",
    "select student_id from Registered intersect select student_id from Grades",
    "select student_id from Students except select student_id from FeesPaid",
    # sort / limit
    "select name from Students order by name",
    "select * from Grades order by grade desc, student_id",
    "select name from Students order by name limit 2",
    "select name from Students order by name limit 2 offset 1",
    # empty results
    "select * from Students where student_id = 'nope'",
    "select * from Grades where grade < 0.0",
    "select s.name from Students s, Grades g "
    "where s.student_id = g.student_id and g.grade > 9.0",
]


class TestOpenModeCatalog:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.execute_script(UNIVERSITY_SCHEMA)
        db.execute_script(UNIVERSITY_DATA)
        return db

    @pytest.mark.parametrize("sql", CATALOG, ids=range(len(CATALOG)))
    def test_engines_agree(self, db, sql):
        assert_engines_agree(db, sql)


# -- workload query mixes ----------------------------------------------


class TestWorkloadQueries:
    @pytest.fixture(scope="class")
    def university(self):
        return build_university(UniversityConfig(students=40, courses=6, seed=11))

    def test_student_mix_open_mode(self, university):
        for query in student_query_mix(university, "15", count=40, seed=2):
            assert_engines_agree(university, query.sql)

    def test_student_mix_truman_rewritten(self, university):
        """The Truman-modified plans (view substitution, $user_id bound)
        must evaluate identically under both engines — including the
        'misleading' queries, whose *modified* answer is still a fixed
        multiset both engines must reproduce."""
        conn = university.connect(user_id="15", mode="truman")
        for query in student_query_mix(university, "15", count=40, seed=2):
            connection_agreement(conn, query.sql)

    def test_bank_teller_truman(self):
        bank = build_bank(BankConfig(customers=25, seed=9))
        grant_teller(bank, "teller1")
        conn = bank.connect(user_id="teller1", mode="truman")
        for sql in [
            "select acct_id, balance from Accounts where balance > 25000.0",
            "select branch, sum(balance) from Accounts group by branch",
            "select c.name, a.balance from Accounts a, Customers c "
            "where a.cust_id = c.cust_id",
        ]:
            connection_agreement(conn, sql)

    def test_bank_customer_truman(self):
        bank = build_bank(BankConfig(customers=25, seed=9))
        conn = bank.connect(user_id="C105", mode="truman")
        for sql in [
            "select * from Accounts",
            "select sum(balance) from Accounts",
            "select branch, count(*) from Accounts group by branch",
        ]:
            connection_agreement(conn, sql)


# -- the paper's worked examples ---------------------------------------

PAPER_QUERIES = [
    # §1 / §5.2 MyGrades shapes
    "select * from Grades where student_id = '11'",
    "select grade from Grades where student_id = '11'",
    "select course_id from Grades where student_id = '11' and grade >= 3.9",
    # Example 4.1 aggregates
    "select avg(grade) from Grades where student_id = '11'",
    "select avg(grade) from Grades where course_id = 'CS101'",
    "select avg(grade) from Grades where course_id = 'CS103'",  # empty group
    "select course_id, avg(grade) from Grades group by course_id",
    # Examples 5.1-5.4 distinct projections and joins
    "select distinct name, type from Students",
    "select distinct name from Students where Students.type = 'FullTime'",
    "select distinct name from Students, FeesPaid "
    "where Students.student_id = FeesPaid.student_id",
    # Example 4.4 probe
    "select 1 from Registered where student_id = '11' and course_id = 'CS101'",
    # §6 access-pattern shapes
    "select grade from Grades where student_id = '12'",
    "select s.name, g.grade from Students s, Grades g "
    "where s.student_id = g.student_id",
]


class TestPaperExamples:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.execute_script(UNIVERSITY_SCHEMA)
        db.execute_script(UNIVERSITY_DATA)
        return db

    @pytest.mark.parametrize("sql", PAPER_QUERIES, ids=range(len(PAPER_QUERIES)))
    def test_open_mode(self, db, sql):
        assert_engines_agree(db, sql)

    @pytest.mark.parametrize("sql", PAPER_QUERIES, ids=range(len(PAPER_QUERIES)))
    def test_truman_rewritten(self, sql):
        """Same examples through the Truman rewriter: the modified query
        references instantiated authorization views, exercising the
        vectorized ViewRel scan / dependent-join paths."""
        db = Database()
        db.execute_script(UNIVERSITY_SCHEMA)
        db.execute_script(UNIVERSITY_DATA)
        db.execute_script(
            """
            create authorization view MyGrades as
                select * from Grades where student_id = $user_id;
            create authorization view MyRegistrations as
                select * from Registered where student_id = $user_id;
            create authorization view AvgGrades as
                select course_id, avg(grade) as avg_grade from Grades
                group by course_id;
            create authorization view AllStudents as
                select * from Students;
            create authorization view FeesPaidView as
                select * from FeesPaid;
            """
        )
        for view in ("MyGrades", "MyRegistrations", "AvgGrades",
                     "AllStudents", "FeesPaidView"):
            db.grant_public(view)
        conn = db.connect(user_id="11", mode="truman")
        connection_agreement(conn, sql)


# -- access-pattern witnesses (dependent joins, §6) ---------------------

#: (fixture, user, query) whose witnesses read ``$$`` views through
#: dependent joins: the three chains of test_access_pattern.py and the
#: paper's §6 examples over SingleGrade
WITNESS_QUERIES = [
    ("chain", "analyst",
     "select r.rname, sa.amount from Regions r, Stores st, Sales sa "
     "where st.region_id = r.region_id and sa.store_id = st.store_id"),
    ("chain", "analyst",
     "select st.store_id, sa.amount from Stores st, Sales sa "
     "where st.region_id = 1 and sa.store_id = st.store_id"),
    ("chain", "analyst",
     "select r.rname, sum(sa.amount) as total "
     "from Regions r, Stores st, Sales sa "
     "where st.region_id = r.region_id and sa.store_id = st.store_id "
     "group by r.rname"),
    ("section6", "secretary", "select grade from Grades where student_id = '12'"),
    ("section6", "secretary",
     "select s.name, g.grade from Students s, Grades g "
     "where s.student_id = g.student_id"),
]


def section6_db():
    db = Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute_script(
        """
        create authorization view SingleGrade as
            select * from Grades where student_id = $$1;
        create authorization view AllStudents as select * from Students;
        """
    )
    db.grant_public("SingleGrade")
    db.grant_public("AllStudents")
    return db


class TestAccessPatternWitnesses:
    @pytest.mark.parametrize(
        "fixture,user,sql", WITNESS_QUERIES, ids=range(len(WITNESS_QUERIES))
    )
    def test_witness_engines_agree(self, fixture, user, sql):
        db = build_access_pattern_db() if fixture == "chain" else section6_db()
        conn = db.connect(user_id=user, mode="non-truman")
        decision = conn.check_validity(sql)
        assert decision.valid, decision.describe()
        row = db.run_plan(decision.witness, conn.session, engine="row")
        vec = db.run_plan(decision.witness, conn.session, engine="vectorized")
        assert row.columns == vec.columns
        assert Counter(row.rows) == Counter(vec.rows)
        assert Counter(row.rows) == Counter(db.execute(sql).rows)
        # the query itself, run unmodified once it is accepted
        connection_agreement(conn, sql)


# -- empty-result and all-NULL corners ---------------------------------


class TestNullAndEmptyCorners:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.execute("create table T(k int, v float, tag varchar(8))")
        db.execute("create table Empty(k int, v float)")
        db.execute("create table N(k int, v float)")
        db.execute_script(
            """
            insert into T values (1, 1.5, 'a');
            insert into T values (2, null, 'b');
            insert into T values (3, 2.5, null);
            insert into T values (null, null, 'c');
            insert into N values (null, null);
            insert into N values (null, null);
            create table P(a varchar(8), b varchar(8));
            insert into P values ('abc', 'a%');
            insert into P values ('abc', '_b_');
            insert into P values ('abc', 'x%');
            insert into P values ('abc', null);
            insert into P values (null, 'a%');
            insert into P values (null, null);
            create table D(a int, b int);
            insert into D values (1, 0);
            insert into D values (4, 2);
            insert into D values (6, 3);
            insert into D values (null, 0);
            insert into D values (5, null);
            """
        )
        return db

    QUERIES = [
        # scans over NULLs; predicates evaluating to UNKNOWN drop rows
        "select * from T where v > 2.0",
        "select * from T where not (v > 2.0)",
        "select * from T where v > 2.0 or tag = 'b'",
        "select * from T where v > 2.0 and tag = 'b'",
        "select * from T where v is null",
        "select * from T where k in (1, null)",
        "select * from T where k not in (1, null)",  # NULL blocks NOT IN
        "select * from N",  # every value NULL
        "select * from N where k = k",  # NULL = NULL is UNKNOWN -> empty
        "select k, v from N union select k, v from N",  # NULL dedup
        "select * from Empty",
        "select * from Empty where k > 0",
        # aggregates over empty / NULL-only input
        "select count(*), count(v), sum(v), avg(v), min(v), max(v) from Empty",
        "select count(*), count(v), sum(v), avg(v), min(v), max(v) from N",
        "select count(*), sum(v) from T where v is null",
        "select k, count(*) from N group by k",  # NULL group key
        "select tag, sum(v) from T group by tag",
        # joins with NULL keys and empty sides
        "select a.tag, b.tag from T a, T b where a.k = b.k",
        "select t.tag, e.k from T t left join Empty e on t.k = e.k",
        "select t.tag, n.v from T t left join N n on t.k = n.k",
        "select * from T t, Empty e where t.k = e.k",
        "select t.tag from T t, N n where t.v < n.v",  # non-equi vs NULLs
        # subqueries against empty / NULL-producing inners
        "select * from T where k in (select k from Empty)",
        "select * from T where k not in (select k from Empty)",
        "select * from T where k in (select k from N)",
        "select * from T where k not in (select k from N)",
        "select count(*) from T where exists (select 1 from Empty)",
        # LIKE with a column pattern, NULL on either side
        "select * from P where a like b",
        "select * from P where a not like b",
        "select a, b, a like b from P",
        # sort with NULLs first/last and expressions over NULLs
        "select k, v from T order by v desc, k",
        "select coalesce(v, 0.0 - 1.0), case when v > 2.0 then 'x' end from T",
        # guards: the row engine never divides on the rows where b = 0
        "select case when b <> 0 then a / b end from D",
        "select * from D where b <> 0 and a / b > 1",
        "select * from D where b = 0 or a / b > 1",
        "select * from D where a in (1, 10 / b)",
        "select case when b = 0 then 0 when a / b > 1 then a / b"
        " else a % b end from D",
        "select sum(case when b <> 0 then a / b else 0 end) from D",
    ]

    @pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
    def test_engines_agree(self, db, sql):
        assert_engines_agree(db, sql)

    def test_unsatisfiable_query_witness(self):
        """The witness of an unsatisfiable selection projects Grades
        columns over an empty zero-column relation: no row ever
        resolves them, so neither engine may raise."""
        db = build_university()
        conn = db.connect(user_id="11", mode="non-truman")
        witness = conn.check_validity(
            "select * from Grades where grade > 5 and grade < 1"
        ).witness
        for engine in ("row", "vectorized"):
            assert db.run_plan(witness, conn.session, engine=engine).rows == []


# -- instrumentation parity --------------------------------------------


class TestInstrumentationParity:
    """``join_pairs_examined`` must match the row engine exactly; index
    pushdown may only *reduce* ``rows_scanned``, never change results."""

    def _counters(self, db, sql, engine):
        from repro.sql.parser import parse_statement
        from repro.db import SessionContext
        from repro.engine import make_executor
        from repro.db import _QueryContext

        session = SessionContext()
        plan = db.plan_query(parse_statement(sql), session, None)
        executor = make_executor(engine, _QueryContext(db, session, None))
        rows = executor.execute(plan)
        return rows, executor

    @pytest.mark.parametrize(
        "sql",
        [
            "select s.name, g.grade from Students s, Grades g "
            "where s.student_id = g.student_id",
            "select s.name, c.name from Students s, Courses c",
            "select a.student_id, b.student_id from Grades a, Grades b "
            "where a.course_id = b.course_id and a.grade < b.grade",
            "select s.name, g.grade from Students s left join Grades g "
            "on s.student_id = g.student_id",
        ],
    )
    def test_join_pairs_match(self, tiny_db, sql):
        rows_r, row_exec = self._counters(tiny_db, sql, "row")
        rows_v, vec_exec = self._counters(tiny_db, sql, "vectorized")
        assert Counter(rows_r) == Counter(rows_v)
        assert row_exec.join_pairs_examined == vec_exec.join_pairs_examined

    def test_index_probe_reduces_rows_scanned(self, tiny_db):
        sql = "select * from Students where student_id = '11'"
        rows_r, row_exec = self._counters(tiny_db, sql, "row")
        rows_v, vec_exec = self._counters(tiny_db, sql, "vectorized")
        assert Counter(rows_r) == Counter(rows_v)
        assert vec_exec.index_probes == 1
        assert vec_exec.rows_scanned < row_exec.rows_scanned
