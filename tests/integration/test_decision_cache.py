"""The one decision cache: ``Database.validity_cache`` behind
``repro.prepared.decide`` (paper §5.6).

Three pinned regressions — each a decision served after something it was
derived from had changed (a session parameter, a grant or view, a
declared integrity constraint) — the per-user stamp that retires
decisions, and one seeded coherence storm that interleaves every kind of
change with every entry point and holds each served decision against a
fresh, uncached check.
"""

import random
import threading
from time import sleep

import pytest

from repro.authviews.session import SessionContext
from repro.catalog.constraints import TotalParticipation
from repro.cluster import ClusterCoordinator
from repro.db import Database
from repro.errors import QueryRejectedError
from repro.net import NetworkService, ReproClient
from repro.nontruman.checker import ValidityChecker
from repro.nontruman.decision import Validity
from repro.prepared import context_key, decide
from repro.service import EnforcementGateway, QueryRequest
from repro.sql import parse_query
from repro.workloads.university import (
    UniversityConfig,
    build_university,
    declare_university_constraints,
)

from tests.integration.test_rebac_system import mini_db

SMALL = UniversityConfig(students=6, courses=3, registrations_per_student=2)


def fresh(db, sql, session):
    decision = ValidityChecker(db).check(parse_query(sql), session)
    return decision.validity, decision.reason


def cached_decide(db, sql, session):
    """The cached decision, the way every serving path takes it."""
    return decide(db, session, parse_query(sql), context=context_key(session))


# -- (a) a decision is keyed on every session parameter -----------------------

TIMED_SQL = "select title from Documents where doc_id = 'd'"


def timed_db():
    """alice may view document d until ``$time`` 500."""
    db = mini_db()
    db.rebac.write_tuple("document:d", "viewer", "user:alice", expires_at=500.0)
    return db


@pytest.mark.parametrize("prepared", [True, False])
def test_no_disclosure_across_time_through_the_gateway(prepared):
    with EnforcementGateway(
        timed_db(), workers=1, prepared_statements=prepared
    ) as gateway:

        def ask(time):
            return gateway.execute(
                QueryRequest(user="alice", sql=TIMED_SQL, params={"time": time})
            )

        assert ask(499).rows == [("doc",)]
        late = ask(501)
        assert late.status.value == "rejected" and not late.cache_hit
        assert late.rows == []
        again = ask(499)
        assert again.rows == [("doc",)] and again.cache_hit


def test_no_disclosure_across_time_in_process():
    db = timed_db()

    def ask(time):
        return db.execute_query(
            TIMED_SQL,
            session=SessionContext(user_id="alice", time=time),
            mode="non-truman",
            prepared=True,
        )

    assert ask(499).rows == [("doc",)]
    with pytest.raises(QueryRejectedError):
        ask(501)
    assert ask(499).rows == [("doc",)]


def test_no_disclosure_across_time_over_the_wire():
    gateway = EnforcementGateway(timed_db(), workers=1)
    network = NetworkService(gateway)
    host, port = network.start()
    try:
        with ReproClient(host, port, user="alice", params={"time": 499}) as client:
            assert client.query(TIMED_SQL).rows == [("doc",)]
            client.hello(user="alice", params={"time": 501})
            with pytest.raises(QueryRejectedError):
                client.query(TIMED_SQL)
            client.hello(user="alice", params={"time": 499})
            again = client.query(TIMED_SQL)
            assert again.rows == [("doc",)] and again.cache_hit
    finally:
        network.stop()
        gateway.shutdown(drain=False)


# -- (b) a cached decision does not survive REVOKE or view DDL ----------------

OWN_GRADES = "select * from Grades where student_id = '11'"
MYGRADES = (
    "create authorization view MyGrades as "
    "select * from Grades where student_id = $user_id"
)


def cached_check(db, sql):
    return cached_decide(db, sql, SessionContext(user_id="11"))


def test_session_cache_does_not_survive_revoke():
    db = build_university(SMALL)
    assert cached_check(db, OWN_GRADES).validity is Validity.UNCONDITIONAL
    assert cached_check(db, OWN_GRADES).from_cache
    db.grants.revoke("mygrades", "public")
    after = cached_check(db, OWN_GRADES)
    assert after.validity is Validity.INVALID and not after.from_cache
    db.grant_public("MyGrades")
    back = cached_check(db, OWN_GRADES)
    assert back.validity is Validity.UNCONDITIONAL and not back.from_cache


def test_session_cache_does_not_survive_view_redefinition():
    db = build_university(SMALL)
    assert cached_check(db, OWN_GRADES).validity is Validity.UNCONDITIONAL
    db.execute("drop view MyGrades")
    dropped = cached_check(db, OWN_GRADES)
    assert dropped.validity is Validity.INVALID and not dropped.from_cache
    db.execute(MYGRADES)
    created = cached_check(db, OWN_GRADES)
    assert created.validity is Validity.UNCONDITIONAL and not created.from_cache
    assert cached_check(db, OWN_GRADES).from_cache


# -- (c) a declared constraint retires cached rejections -----------------------

ALL_STUDENTS = "select distinct name, type from Students"


def test_declared_constraints_retire_cached_rejections():
    db = build_university(SMALL, declare_constraints=False)
    with EnforcementGateway(db, workers=1) as gateway:

        def ask():
            return gateway.execute(QueryRequest(user="11", sql=ALL_STUDENTS))

        assert ask().status.value == "rejected"
        assert ask().cache_hit
        misses = gateway.stats()["cache_misses"]
        declare_university_constraints(db)  # one batch of three
        accepted = ask()
        assert accepted.ok and not accepted.cache_hit
        assert gateway.stats()["cache_misses"] == misses + 1
        assert accepted.decision.validity is Validity.UNCONDITIONAL
        assert (accepted.decision.validity, accepted.decision.reason) == fresh(
            db, ALL_STUDENTS, SessionContext(user_id="11")
        )
        assert ask().cache_hit


def test_constraint_declaration_reaches_a_replica_and_a_replayed_log(tmp_path):
    db = build_university(
        SMALL,
        declare_constraints=False,
        db=ClusterCoordinator(shards=2, replicas=1),
    )
    db.sync_replicas()
    replica = db.replicas[0].database
    assert cached_check(replica, ALL_STUDENTS).validity is Validity.INVALID
    assert cached_check(replica, ALL_STUDENTS).from_cache
    before = db.catalog.schema_version, replica.catalog.schema_version
    declare_university_constraints(db)
    db.sync_replicas()
    assert db.catalog.schema_version == before[0] + 3
    assert replica.catalog.schema_version == before[1] + 3
    applied = cached_check(replica, ALL_STUDENTS)
    assert applied.validity is Validity.UNCONDITIONAL and not applied.from_cache

    durable = build_university(
        SMALL, declare_constraints=False, db=Database(data_dir=str(tmp_path))
    )
    declare_university_constraints(durable)
    durable.close(checkpoint=False)
    replayed = Database.open(str(tmp_path))
    assert replayed.catalog.schema_version == durable.catalog.schema_version
    assert cached_check(replayed, ALL_STUDENTS).validity is Validity.UNCONDITIONAL
    replayed.close()


# -- (d) one per-user stamp retires decisions ----------------------------------

ALL_GRADES_VIEW = "create authorization view AllGrades as select * from Grades"
GRADES = "select * from Grades"


def assert_retired(db, sql, session):
    """The next lookup misses and serves what a fresh check decides."""
    misses = db.validity_cache.misses
    decision = cached_decide(db, sql, session)
    assert not decision.from_cache
    assert db.validity_cache.misses == misses + 1
    assert (decision.validity, decision.reason) == fresh(db, sql, session)
    return decision


def test_a_grant_to_one_user_leaves_another_users_decisions_hot():
    """Another user's policy change must not show in this user's
    latency: the grant to user 12 moves only user 12's stamp."""
    db = build_university(SMALL)
    db.execute(ALL_GRADES_VIEW)
    with EnforcementGateway(db, workers=1) as gateway:

        def ask(user, sql):
            return gateway.execute(QueryRequest(user=user, sql=sql))

        assert ask("11", OWN_GRADES).ok
        assert ask("11", OWN_GRADES).cache_hit
        assert ask("12", GRADES).status.value == "rejected"
        grants = db.grants.version
        db.grants.grant("AllGrades", "12")
        assert db.grants.version == grants + 1
        warm = ask("11", OWN_GRADES)
        assert warm.ok and warm.cache_hit
        granted = ask("12", GRADES)
        assert granted.ok and not granted.cache_hit
        assert ask("11", GRADES).status.value == "rejected"


def test_a_public_grant_and_a_vpd_policy_retire_every_users_decisions():
    db = build_university(SMALL)
    db.execute(ALL_GRADES_VIEW)
    sessions = [SessionContext(user_id=user) for user in ("11", "12")]
    for change in (
        lambda: db.grant_public("AllGrades"),
        lambda: db.vpd_policies.add_policy("Grades", "1 = 1"),
    ):
        for session in sessions:
            for sql in (OWN_GRADES, GRADES):
                cached_decide(db, sql, session)
                assert cached_decide(db, sql, session).from_cache
        change()
        for session in sessions:
            for sql in (OWN_GRADES, GRADES):
                assert_retired(db, sql, session)
    assert cached_decide(db, GRADES, sessions[0]).valid


def test_a_revoke_racing_a_check_never_serves_the_stale_entry(monkeypatch):
    """The check decides under the old grants, a revoke lands while it
    still runs, and the entry is stored under the stamp read before the
    check: it is stale on arrival and the next lookup re-derives."""
    db = build_university(SMALL)
    session = SessionContext(user_id="11")
    check = db.check_validity
    revoked = threading.Event()

    def revoke():
        db.grants.revoke("MyGrades", "public")
        revoked.set()

    def slow_check(query, session, ctx=None):
        decision = check(query, session, ctx=ctx)
        threading.Thread(target=revoke).start()
        sleep(0.002)
        assert revoked.wait(5)
        return decision

    monkeypatch.setattr(db, "check_validity", slow_check)
    raced = cached_decide(db, OWN_GRADES, session)
    monkeypatch.undo()
    assert raced.validity is Validity.UNCONDITIONAL and not raced.from_cache
    assert db.validity_cache.size == 1
    after = assert_retired(db, OWN_GRADES, session)
    assert after.validity is Validity.INVALID


# -- coherence: every entry point, every kind of change ------------------------

STEPS = 300
USERS = ("10", "11", "12")
TIMES = (5, 6)
QUERIES = (
    "select grade from Grades where student_id = '{user}'",  # §5.6 carry-over
    "select grade from Grades where student_id = '10'",
    "select * from Grades where course_id = 'CS100'",  # C3: needs a registration
    ALL_STUDENTS,  # U3a: needs every_student_registered
    "select note from Shifts where slot = 5",  # needs $time = 5
)
SHIFT_VIEWS = (
    "create authorization view CurrentShift as "
    "select * from Shifts where slot = $time",
    "create authorization view CurrentShift as "
    "select * from Shifts where slot = -1",
)


def storm_db():
    db = build_university(SMALL, declare_constraints=False)
    db.execute_script(
        "create table Shifts(shift_id int primary key, slot int, note varchar(20));"
        "insert into Shifts values (1, 5, 'early');"
        "insert into Shifts values (2, 6, 'late');"
        "create table Ledger(id int primary key);"
    )
    db.execute(SHIFT_VIEWS[0])
    db.grant_public("CurrentShift")
    return db


def mutate(db, rng, state):
    """One random change to something decisions are derived from."""
    kind = rng.choice(
        ("insert", "delete", "grant", "revoke", "create view", "drop view", "declare")
    )
    user = rng.choice(USERS)
    if kind == "insert":
        if (user, "CS100") not in state["registered"]:
            db.execute(f"insert into Registered values ('{user}', 'CS100')")
            state["registered"].add((user, "CS100"))
    elif kind == "delete":
        db.execute(
            f"delete from Registered where student_id = '{user}' "
            "and course_id = 'CS100'"
        )
        state["registered"].discard((user, "CS100"))
    elif kind == "grant":
        db.grant_public(rng.choice(("MyGrades", "CoStudentGrades", "RegStudents")))
    elif kind == "revoke":
        view = rng.choice(("MyGrades", "CoStudentGrades", "RegStudents"))
        if db.grants.is_granted(view, "nobody"):  # i.e. PUBLIC holds it
            db.grants.revoke(view, "public")
    elif kind == "create view":
        if not db.catalog.has_view("CurrentShift"):
            db.execute(rng.choice(SHIFT_VIEWS))
    elif kind == "drop view":
        if db.catalog.has_view("CurrentShift"):
            db.execute("drop view CurrentShift")
    elif state["undeclared"]:
        db.add_participation_constraint(state["undeclared"].pop())


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_served_decision_equals_a_fresh_check(seed):
    """Entry points in one step share an entry still current."""
    coherence_storm(seed, write_between_entry_points=False)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_served_decision_equals_a_fresh_check_across_writes(seed):
    """Every entry point meets an entry a write left stale."""
    coherence_storm(seed, write_between_entry_points=True)


def coherence_storm(seed, write_between_entry_points):
    rng = random.Random(seed)
    db = storm_db()
    state = {
        "registered": {
            (row[0], row[1]) for row in db.execute("select * from Registered").rows
        },
        "undeclared": [
            TotalParticipation(
                core_table="Students",
                remainder_table="Registered",
                join_pairs=(("student_id", "student_id"),),
                name=name,
            )
            for name in ("every_student_registered", "declared_again")
        ],
    }
    cache = db.validity_cache
    with EnforcementGateway(db, workers=1) as prepared, EnforcementGateway(
        db, workers=1, prepared_statements=False
    ) as unprepared:

        def through_gateway(gateway, sql, user, time):
            response = gateway.execute(
                QueryRequest(user=user, sql=sql, params={"time": time})
            )
            return response.decision.validity, response.decision.reason

        def in_process(sql, user, time, expected):
            session = SessionContext(user_id=user, time=time)
            try:
                db.execute_query(sql, session=session, mode="non-truman", prepared=True)
            except QueryRejectedError as exc:
                return exc.decision.validity, exc.decision.reason
            # an accepted query carries no decision out of execute_query
            assert expected[0] is not Validity.INVALID
            return expected

        #: (sql, user, time) -> the user's stamp when decide last took it
        decided_at = {}
        retired = 0

        def through_decide(sql, user, time):
            """Runs first in each step, so it meets an entry the other
            entry points have not re-stored at the current stamp."""
            nonlocal retired
            decision = cached_decide(db, sql, SessionContext(user_id=user, time=time))
            stamp = db.prepared.stamp(user)
            if decided_at.get((sql, user, time), stamp) != stamp:
                # a grant, revoke, DDL or declared constraint that moved
                # this user's stamp retires the entry at this lookup
                assert not decision.from_cache, (seed, sql, user, time)
                retired += 1
            decided_at[sql, user, time] = stamp
            return decision.validity, decision.reason

        for step in range(STEPS):
            if rng.random() < 0.5:
                mutate(db, rng, state)
            user, time = rng.choice(USERS), rng.choice(TIMES)
            sql = rng.choice(QUERIES).format(user=user)
            expected = fresh(db, sql, SessionContext(user_id=user, time=time))
            served = {}
            for entry_point, serve in (
                ("decide", lambda: through_decide(sql, user, time)),
                ("execute_query", lambda: in_process(sql, user, time, expected)),
                ("gateway prepared", lambda: through_gateway(prepared, sql, user, time)),
                ("gateway unprepared", lambda: through_gateway(unprepared, sql, user, time)),
            ):
                served[entry_point] = serve()
                if not write_between_entry_points:
                    continue
                # a write no decision reads: the next entry point meets
                # an entry whose data version is stale
                ledger = db.table("Ledger")
                if len(ledger):
                    db.execute("delete from Ledger")
                else:
                    db.execute(f"insert into Ledger values ({step})")
            for entry_point, decision in served.items():
                assert decision == expected, (seed, step, entry_point, sql, user, time)
        # the storm exercised the cache, not just the checker: the four
        # entry points share one entry per key, policy changes retired
        # entries at their next lookup, and (with the writes between
        # entry points) writes left entries stale that their guards
        # re-validated
        assert cache.hits > 2 * STEPS
        assert retired > 10
        if write_between_entry_points:
            assert cache.revalidations > 0
        assert prepared.cache is unprepared.cache is cache


def test_lru_bound_and_eviction_order_on_the_one_cache():
    db = build_university(SMALL)
    cache = db.validity_cache
    cache.max_entries = 3
    sqls = [
        f"select {column} from Grades where student_id = '11'"
        for column in ("grade", "course_id", "student_id", "grade, course_id")
    ]
    with EnforcementGateway(db, workers=1) as gateway:

        def hit(sql):
            return gateway.execute(QueryRequest(user="11", sql=sql)).cache_hit

        assert [hit(sql) for sql in sqls[:3]] == [False, False, False]
        assert hit(sqls[0])  # refresh the oldest
        assert not hit(sqls[3])  # evicts sqls[1], the least recently used
        assert cache.size == 3 and cache.evictions == 1
        assert hit(sqls[0]) and hit(sqls[2]) and hit(sqls[3])
        assert not hit(sqls[1])  # re-derived; evicts sqls[0]
        assert cache.size == 3 and cache.evictions == 2
        assert gateway.stats()["cache_evictions"] == 2
