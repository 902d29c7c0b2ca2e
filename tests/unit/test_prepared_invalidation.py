"""Stamp invalidation of the prepared-template cache.

The invariants under test (see ``repro/prepared/cache.py``):

* one stamp decides staleness: a template is retired at its next
  lookup once ``PreparedStatementCache.stamp(user)`` moves, and nothing
  is evicted eagerly;
* a grant to user A retires A's templates only; any DDL retires every
  template;
* revocation goes straight to the grant registry, and the lookup-time
  stamp check alone keeps a revoked user's cached acceptance from being
  served;
* redefining a granted authorization view (drop + create) flips the
  decisions of every template whose user holds that grant;
* a Truman remap retires templates built under the old mapping, even
  one whose build overlapped the remap;
* templates are keyed by user: overlapping signatures for different
  users never share an artifact.
"""

import pytest

from repro.db import Database
from repro.errors import QueryRejectedError
from repro.prepared.pipeline import get_or_build_template, resolve_signature
from repro.workloads.university import build_university


def grades_db():
    db = Database()
    db.execute("create table Grades(student_id varchar(8), grade float)")
    db.execute("create table Other(x int)")
    db.execute("insert into Grades values ('11', 3.5)")
    db.execute("insert into Grades values ('12', 2.0)")
    db.execute("insert into Other values (1)")
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.execute(
        "create authorization view OtherView as select * from Other"
    )
    return db


def run(db, sql, user, mode="non-truman"):
    session = db.connect(user_id=user, mode=mode).session
    return db.execute_query(sql, session=session, mode=mode, prepared=True)


OK_SQL = "select grade from Grades where student_id = '11'"
OTHER_SQL = "select x from Other where x > 0"


def lookup_delta(db, sql, user, mode="non-truman"):
    """Run ``sql`` once and return how the template lookup went:
    ``(hits, builds, invalidations)`` added by that one request."""
    base = db.prepared.stats()
    try:
        run(db, sql, user, mode=mode)
    except QueryRejectedError:
        pass
    after = db.prepared.stats()
    return tuple(
        after[k] - base[k]
        for k in ("prepared_hits", "prepared_builds", "prepared_invalidations")
    )


HIT = (1, 0, 0)
RETIRED = (0, 1, 1)


class TestStampInvalidation:
    def test_ddl_retires_templates_at_next_lookup(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        db.grant("OtherView", "11")
        run(db, OK_SQL, "11")
        run(db, OTHER_SQL, "11")
        assert lookup_delta(db, OTHER_SQL, "11") == HIT
        db.execute("drop table Other")
        db.execute("create table Other(x int)")
        # nothing is evicted eagerly; the next lookup retires and rebuilds
        assert db.prepared.stats()["prepared_templates"] == 2
        assert lookup_delta(db, OTHER_SQL, "11") == RETIRED
        assert lookup_delta(db, OK_SQL, "11") == RETIRED
        assert lookup_delta(db, OTHER_SQL, "11") == HIT

    def test_ddl_on_unrelated_relation_retires_at_next_lookup(self):
        db = grades_db()
        run(db, OK_SQL, None, mode="open")
        run(db, OTHER_SQL, None, mode="open")
        assert db.prepared.stats()["prepared_templates"] == 2
        db.execute("create table Unrelated(y int)")
        db.execute("drop table Unrelated")
        # any DDL moves the schema version every template is stamped with
        assert db.prepared.stats()["prepared_templates"] == 2
        assert lookup_delta(db, OK_SQL, None, mode="open") == RETIRED
        assert lookup_delta(db, OK_SQL, None, mode="open") == HIT

    def test_grant_retires_only_that_users_templates(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        db.grant("MyGrades", "12")
        run(db, OK_SQL, "11")
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "12")  # 12 may not see 11's grades
        assert db.prepared.stats()["prepared_templates"] == 2
        db.grant("OtherView", "12")  # policy change for 12 only
        assert lookup_delta(db, OK_SQL, "11") == HIT  # 11's survives
        assert lookup_delta(db, OK_SQL, "12") == RETIRED
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "12")  # rebuilt, still rejected

    def test_public_grant_retires_everyones_templates(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        db.grant("MyGrades", "12")
        run(db, OK_SQL, "11")
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "12")
        db.grant_public("OtherView")  # PUBLIC changes every user's views
        assert lookup_delta(db, OK_SQL, "11") == RETIRED
        assert lookup_delta(db, OK_SQL, "12") == RETIRED

    def test_revoke_detected_at_lookup_without_eager_hook(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        assert run(db, OK_SQL, "11").rows == [(3.5,)]
        assert run(db, OK_SQL, "11").rows == [(3.5,)]  # cached accept
        # revoke goes straight to the registry — no Database facade;
        # only the stamp check at lookup protects us
        db.grants.revoke("MyGrades", "11")
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "11")
        # the stale template was evicted, not served
        assert db.prepared.stats()["prepared_invalidations"] >= 1
        # and re-granting restores acceptance (fresh build again)
        db.grant("MyGrades", "11")
        assert run(db, OK_SQL, "11").rows == [(3.5,)]

    def test_auth_view_redefinition_flips_cached_decision(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        assert run(db, OK_SQL, "11").rows == [(3.5,)]
        assert run(db, OK_SQL, "11").rows == [(3.5,)]
        # redefine the granted view to cover nothing relevant
        db.execute("drop view MyGrades")
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = 'nobody'"
        )
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "11")
        # redefine it back; acceptance returns
        db.execute("drop view MyGrades")
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        assert run(db, OK_SQL, "11").rows == [(3.5,)]


class TestTrumanRemap:
    def test_template_built_across_a_remap_is_not_served_after_it(
        self, monkeypatch
    ):
        """A build that overlaps ``set_truman_view`` stores a template
        compiled under the old mapping.  Its stamp predates the remap,
        so the next lookup retires it instead of answering from the
        view the table no longer maps to."""
        db = build_university()
        db.execute(
            "create authorization view NoGrades as "
            "select * from Grades where 1 = 0"
        )
        db.grant_public("NoGrades")
        db.set_truman_view("Grades", "MyGrades")
        sql = "select count(*) from Grades"
        session = db.connect(user_id="11", mode="truman").session
        skeleton, literals, text = resolve_signature(db, sql)

        store = db.prepared.store

        def store_after_remap(key, template):
            db.set_truman_view("Grades", "NoGrades")
            store(key, template)

        monkeypatch.setattr(db.prepared, "store", store_after_remap)
        get_or_build_template(db, skeleton, literals, session, "truman", text)
        monkeypatch.undo()

        prepared = db.execute_query(sql, session=session, mode="truman", prepared=True)
        fresh = db.execute_query(sql, session=session, mode="truman", prepared=False)
        assert fresh.rows == [(0,)]
        assert prepared.rows == [(0,)]


class TestUserIsolation:
    def test_template_never_crosses_users(self):
        """Same SQL text, same signature, different users: the Truman
        substitution bakes the *session* into the plan, so serving user
        A's template to user B would leak A's rows.  The cache key
        carries the user; prove the answers stay per-user."""
        db = grades_db()
        db.set_truman_view("Grades", "MyGrades")
        sql = "select grade from Grades where grade > 0.5"
        first_11 = run(db, sql, "11", mode="truman").rows
        first_12 = run(db, sql, "12", mode="truman").rows
        assert first_11 == [(3.5,)]
        assert first_12 == [(2.0,)]
        # hot hits — each user must keep getting their own rows
        assert run(db, sql, "11", mode="truman").rows == [(3.5,)]
        assert run(db, sql, "12", mode="truman").rows == [(2.0,)]
        assert db.prepared.stats()["prepared_templates"] == 2

    def test_non_truman_decision_is_per_user(self):
        db = grades_db()
        db.grant("MyGrades", "11")
        assert run(db, OK_SQL, "11").rows == [(3.5,)]
        # same text, same signature — user 12 must be decided on their
        # own grants, not served 11's cached acceptance
        with pytest.raises(QueryRejectedError):
            run(db, OK_SQL, "12")


class TestNegativeCacheInvalidation:
    def test_unpreparable_retried_after_policy_change(self):
        """The negative cache must not outlive the state it was derived
        from: templates that failed to build are retried after any
        grant/DDL change (stale stamp drops the negative entry)."""
        db = grades_db()
        session = db.connect(user_id="11", mode="open").session
        from repro.prepared import PreparedFallback
        from repro.prepared.pipeline import resolve_signature

        skeleton, literals, _ = resolve_signature(
            db, "select grade from Missing where grade > 1.0"
        )
        key = (skeleton, "11", "open", ())
        db.prepared.note_unpreparable(key, "11")
        with pytest.raises(PreparedFallback):
            db.prepared.check_unpreparable(key, "11")
        db.execute("create table Missing(grade float)")
        db.prepared.check_unpreparable(key, "11")  # no longer negative
