"""Integration tests for the Database facade: DDL, DML, constraints,
grants, and update authorization (§4.4)."""

import pytest

from repro.db import Database
from repro.errors import (
    GrantError,
    IntegrityError,
    QueryRejectedError,
    UnknownTableError,
    UpdateRejectedError,
)

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA


@pytest.fixture
def db():
    database = Database()
    database.execute_script(UNIVERSITY_SCHEMA)
    database.execute_script(UNIVERSITY_DATA)
    return database


class TestDDL:
    def test_create_and_drop_table(self):
        db = Database()
        db.execute("create table T(a int primary key)")
        db.execute("insert into T values (1)")
        db.execute("drop table T")
        with pytest.raises(UnknownTableError):
            db.execute("select * from T")

    def test_create_view_and_query(self, db):
        db.execute("create view GoodGrades as select * from Grades where grade >= 3.0")
        result = db.execute("select count(*) from GoodGrades")
        assert result.scalar() == 3

    def test_view_with_column_renames(self, db):
        db.execute(
            "create view Renamed (sid, cid) as "
            "select student_id, course_id from Registered"
        )
        result = db.execute("select sid from Renamed where cid = 'CS101'")
        assert sorted(result.column("sid")) == ["11", "12"]

    def test_grant_unknown_view(self, db):
        with pytest.raises(GrantError):
            db.grant("Nope", to_user="alice")


class TestConstraints:
    def test_pk_uniqueness(self, db):
        with pytest.raises(IntegrityError):
            db.execute("insert into Students values ('11','Dup','FullTime')")

    def test_fk_on_insert(self, db):
        with pytest.raises(IntegrityError):
            db.execute("insert into Registered values ('999','CS101')")

    def test_fk_restrict_on_delete(self, db):
        with pytest.raises(IntegrityError):
            db.execute("delete from Students where student_id = '11'")

    def test_delete_unreferenced_ok(self, db):
        db.execute("insert into Students values ('99','Zoe','PartTime')")
        assert db.execute("delete from Students where student_id = '99'") == 1

    def test_not_null(self, db):
        with pytest.raises(IntegrityError):
            db.execute("insert into Students values ('98', null, 'FullTime')")

    def test_check_constraint(self):
        db = Database()
        db.execute("create table T(a int primary key, check (a > 0))")
        db.execute("insert into T values (1)")
        with pytest.raises(IntegrityError):
            db.execute("insert into T values (-1)")

    def test_check_with_null_is_not_violation(self):
        db = Database()
        db.execute("create table T(a int primary key, b int, check (b > 0))")
        db.execute("insert into T values (1, null)")  # UNKNOWN passes

    def test_fk_checked_on_update(self, db):
        with pytest.raises(IntegrityError):
            db.execute(
                "update Registered set course_id = 'NOPE' where student_id = '11'"
            )


class TestDML:
    def test_insert_select(self, db):
        db.execute("create table Archive(student_id varchar(10), course_id varchar(10))")
        count = db.execute(
            "insert into Archive select student_id, course_id from Registered"
        )
        assert count == 5

    def test_insert_partial_columns(self, db):
        db.execute("insert into Students (student_id, name) values ('77','Pat')")
        row = db.execute(
            "select type from Students where student_id = '77'"
        ).scalar()
        assert row is None

    def test_update_with_expression(self, db):
        db.execute("update Grades set grade = grade + 0.5 where student_id = '12'")
        assert db.execute(
            "select grade from Grades where student_id = '12'"
        ).scalar() == 3.0

    def test_update_count(self, db):
        assert db.execute("update Students set type = 'X'") == 4

    def test_delete_with_predicate(self, db):
        assert db.execute("delete from FeesPaid where student_id = '11'") == 1
        assert db.execute("select count(*) from FeesPaid").scalar() == 1


class TestUpdateAuthorization:
    """Paper §4.4: AUTHORIZE predicates on DML."""

    def setup_policies(self, db):
        db.execute(
            "authorize insert on Registered "
            "where Registered.student_id = $user_id"
        )
        db.execute(
            "authorize update on Students(name) "
            "where old(Students.student_id) = $user_id"
        )
        db.execute(
            "authorize delete on Registered "
            "where Registered.student_id = $user_id"
        )

    def test_insert_own_registration(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        assert conn.execute("insert into Registered values ('11','CS103')") == 1

    def test_insert_other_rejected(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        with pytest.raises(UpdateRejectedError):
            conn.execute("insert into Registered values ('12','CS103')")

    def test_update_own_name(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        assert conn.execute(
            "update Students set name = 'Alicia' where student_id = '11'"
        ) == 1

    def test_update_uncovered_column_rejected(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        with pytest.raises(UpdateRejectedError):
            conn.execute("update Students set type = 'X' where student_id = '11'")

    def test_update_other_row_rejected(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        with pytest.raises(UpdateRejectedError):
            conn.execute("update Students set name = 'X' where student_id = '12'")

    def test_delete_own_registration(self, db):
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        assert conn.execute(
            "delete from Registered where student_id = '11' and course_id = 'CS102'"
        ) == 1

    def test_no_policy_means_deny(self, db):
        conn = db.connect(user_id="11", mode="non-truman")
        with pytest.raises(UpdateRejectedError):
            conn.execute("insert into FeesPaid values ('12')")

    def test_open_mode_skips_policies(self, db):
        self.setup_policies(db)
        # open mode: no enforcement
        assert db.execute("insert into Registered values ('12','CS103')") == 1

    def test_statement_rejected_midway_changes_nothing(self, db):
        """A statement is allowed only if every tuple it touches is: an
        UPDATE touching both an authorized and an unauthorized row is
        rejected, and the authorized row keeps its old value."""
        self.setup_policies(db)
        conn = db.connect(user_id="11", mode="non-truman")
        before = list(db.table("Students").rows_with_ids())
        with pytest.raises(UpdateRejectedError):
            conn.execute("update Students set name = 'X'")
        assert list(db.table("Students").rows_with_ids()) == before


class TestCheckOrder:
    """Update authorization runs before constraint checks, so a
    constraint message never describes a row the user may not change."""

    @pytest.fixture
    def university(self):
        from repro.workloads.university import build_university

        db = build_university()
        db.execute(
            "authorize delete on Students where Students.student_id = $user_id"
        )
        db.execute(
            "authorize insert on Registered "
            "where Registered.student_id = $user_id"
        )
        return db

    def test_restrict_on_unauthorized_row_is_rejected(self, university):
        conn = university.connect(user_id="10", mode="non-truman")
        with pytest.raises(
            UpdateRejectedError,
            match=r"^delete from Students not authorized for user '10'$",
        ):
            conn.execute("delete from Students where student_id = '11'")

    def test_restrict_on_authorized_row_names_the_reference(self, university):
        conn = university.connect(user_id="10", mode="non-truman")
        with pytest.raises(
            IntegrityError,
            match=r"^cannot delete from Students: row referenced by Registered$",
        ):
            conn.execute("delete from Students where student_id = '10'")

    def test_foreign_key_on_unauthorized_insert_is_rejected(self, university):
        conn = university.connect(user_id="10", mode="non-truman")
        with pytest.raises(
            UpdateRejectedError,
            match=r"^insert into Registered not authorized for user '10'$",
        ):
            conn.execute("insert into Registered values ('11', 'NOPE')")

    def test_foreign_key_on_authorized_insert_names_the_key(self, university):
        conn = university.connect(user_id="10", mode="non-truman")
        with pytest.raises(
            IntegrityError,
            match=(
                r"^foreign key violation: Registered\(course_id\) = "
                r"\('NOPE',\) has no match in Courses$"
            ),
        ):
            conn.execute("insert into Registered values ('10', 'NOPE')")


class TestGrantsAndSessions:
    def test_grants_scope_view_visibility(self, db):
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        db.grant("MyGrades", to_user="11")
        granted = db.connect(user_id="11", mode="non-truman")
        ungranted = db.connect(user_id="12", mode="non-truman")
        sql = "select * from MyGrades"
        assert len(granted.query(sql)) == 2
        with pytest.raises(QueryRejectedError):
            ungranted.query(sql)

    def test_available_views_reflect_grants(self, db):
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        db.grant("MyGrades", to_user="11")
        assert [
            v.name for v in db.available_views(db.connect(user_id="11").session)
        ] == ["MyGrades"]
        assert db.available_views(db.connect(user_id="12").session) == []

    def test_grant_via_sql(self, db):
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        db.execute("grant select on MyGrades to u11")
        assert db.grants.is_granted("MyGrades", "u11")

    def test_session_extra_params(self, db):
        db.execute(
            "create authorization view RoleView as "
            "select * from Students where type = $role"
        )
        db.grant_public("RoleView")
        conn = db.connect(user_id="x", role="FullTime")
        assert len(conn.query("select * from RoleView")) == 3
