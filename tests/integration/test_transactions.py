"""Transaction support (substrate feature): BEGIN / COMMIT / ROLLBACK."""

import pytest

from repro.db import Database
from repro.errors import ExecutionError, IntegrityError, UpdateRejectedError


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table T(id int primary key, v varchar(10));
        insert into T values (1, 'a'), (2, 'b');
        """
    )
    return database


class TestBasicTransactions:
    def test_commit_keeps_changes(self, db):
        db.execute("begin")
        db.execute("insert into T values (3, 'c')")
        db.execute("commit")
        assert db.execute("select count(*) from T").scalar() == 3

    def test_rollback_undoes_insert(self, db):
        db.execute("begin")
        db.execute("insert into T values (3, 'c')")
        db.execute("rollback")
        assert db.execute("select count(*) from T").scalar() == 2

    def test_rollback_undoes_delete(self, db):
        db.execute("begin transaction")
        db.execute("delete from T where id = 1")
        assert db.execute("select count(*) from T").scalar() == 1
        db.execute("rollback transaction")
        assert sorted(db.execute("select id from T").column("id")) == [1, 2]

    def test_rollback_undoes_update(self, db):
        db.execute("begin")
        db.execute("update T set v = 'zzz' where id = 1")
        db.execute("rollback")
        assert db.execute("select v from T where id = 1").scalar() == "a"

    def test_rollback_mixed_sequence_in_reverse(self, db):
        db.execute("begin")
        db.execute("insert into T values (3, 'c')")
        db.execute("update T set v = 'B' where id = 2")
        db.execute("delete from T where id = 1")
        db.execute("rollback")
        rows = sorted(db.execute("select id, v from T").rows)
        assert rows == [(1, "a"), (2, "b")]

    def test_unique_index_restored_after_rollback(self, db):
        db.execute("begin")
        db.execute("delete from T where id = 1")
        db.execute("insert into T values (1, 'replacement')")
        db.execute("rollback")
        # original row is back; the replacement is gone; PK still enforced
        assert db.execute("select v from T where id = 1").scalar() == "a"
        with pytest.raises(IntegrityError):
            db.execute("insert into T values (1, 'dup')")


class TestTransactionErrors:
    def test_nested_begin_rejected(self, db):
        db.execute("begin")
        with pytest.raises(ExecutionError):
            db.execute("begin")
        db.execute("rollback")

    def test_commit_without_begin(self, db):
        with pytest.raises(ExecutionError):
            db.execute("commit")

    def test_rollback_without_begin(self, db):
        with pytest.raises(ExecutionError):
            db.execute("rollback")

    def test_autocommit_outside_transaction(self, db):
        db.execute("insert into T values (9, 'x')")
        assert db.execute("select count(*) from T").scalar() == 3


class TestTransactionsAndValidity:
    def test_rollback_invalidates_conditional_cache(self, db):
        """A conditional decision made mid-transaction must not survive
        the rollback of the data it depended on."""
        db.execute_script(
            """
            create table Registered(student_id varchar(5), course_id varchar(6),
                primary key (student_id, course_id));
            create table Grades(student_id varchar(5), course_id varchar(6),
                grade float, primary key (student_id, course_id));
            insert into Grades values ('11','CS1',3.0), ('12','CS1',4.0);
            create authorization view CoGrades as
                select Grades.student_id, Grades.course_id, Grades.grade
                from Grades, Registered
                where Registered.student_id = $user_id
                  and Grades.course_id = Registered.course_id;
            create authorization view MyRegs as
                select * from Registered where student_id = $user_id;
            """
        )
        db.grant_public("CoGrades")
        db.grant_public("MyRegs")
        from repro.prepared import context_key, decide
        from repro.sql import parse_query

        session = db.connect(user_id="11").session
        query = parse_query("select * from Grades where course_id = 'CS1'")

        def check():
            return decide(db, session, query, context=context_key(session))

        db.execute("begin")
        db.execute("insert into Registered values ('11', 'CS1')")
        assert check().conditional
        db.execute("rollback")
        refreshed = check()
        assert not refreshed.from_cache or not refreshed.valid
        assert not refreshed.valid


def test_round_trip_parse_render():
    from repro.sql import parse_statement, render

    for sql in ("begin", "commit", "rollback"):
        stmt = parse_statement(sql)
        assert parse_statement(render(stmt)) == stmt


class TestStatementAtomicity:
    """A failed INSERT, UPDATE or DELETE leaves nothing behind: its
    changes are undone before the error propagates, and a restored row
    keeps its old row id."""

    TABLES = ("Registered", "Courses")
    #: the first row inserts, the second fails its foreign key
    HALF_DONE = "insert into Registered values ('10', 'CS999'), ('10', 'NOPE')"

    @staticmethod
    def university(data_dir=None):
        from repro.workloads.university import build_university

        db = build_university()
        db.execute(
            "authorize delete on Registered "
            "where Registered.student_id = $user_id"
        )
        db.execute("insert into Courses values ('CS999', 'Spare')")
        # free the first course by row id, so deleting every course
        # removes one row before a reference stops it
        db.execute("delete from Registered where course_id = 'CS100'")
        db.execute("delete from Grades where course_id = 'CS100'")
        if data_dir is not None:
            db.save(data_dir)
        return db

    @classmethod
    def state(cls, db):
        return {name: list(db.table(name).rows_with_ids()) for name in cls.TABLES}

    def run_failures(self, db):
        # user '10' holds the first CS104 registration by row id, so a
        # row-at-a-time delete would remove it before being rejected
        first = next(
            row for _, row in db.table("Registered").rows_with_ids()
            if row[1] == "CS104"
        )
        assert first[0] == "10"
        conn = db.connect(user_id="10", mode="non-truman")
        with pytest.raises(UpdateRejectedError):
            conn.execute("delete from Registered where course_id = 'CS104'")
        with pytest.raises(IntegrityError, match="foreign key violation"):
            db.execute(self.HALF_DONE)
        # '10' holds CS104 and CS103: the second row collides
        with pytest.raises(IntegrityError, match="unique violation"):
            db.execute("update Registered set course_id = 'CS101' "
                       "where student_id = '10'")
        with pytest.raises(IntegrityError, match="row referenced by"):
            db.execute("delete from Courses")

    def test_in_memory(self):
        db = self.university()
        before = self.state(db)
        self.run_failures(db)
        assert self.state(db) == before

    def test_durable_reopened(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = self.university(data_dir)
        before = self.state(db)
        self.run_failures(db)
        db.close(checkpoint=False)
        reopened = Database.open(data_dir)
        assert self.state(reopened) == before
        reopened.close()

    def test_inside_transaction_only_the_statement_is_undone(self):
        db = self.university()
        before = self.state(db)
        db.execute("begin")
        db.execute("insert into Registered values ('10', 'CS999')")
        with pytest.raises(IntegrityError):
            db.execute(self.HALF_DONE.replace("CS999", "CS102"))
        assert len(db.table("Registered")) == len(before["Registered"]) + 1
        db.execute("delete from Registered where course_id = 'CS104'")
        db.execute("rollback")
        assert self.state(db) == before
