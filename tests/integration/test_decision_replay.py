"""Replayed decisions: paper §5.6's "cheap test that is used each time
the query is executed".

A write moves ``data_version``, and a CONDITIONAL or INVALID decision
stamped before it is stale.  ``repro.prepared.decide`` then re-runs the
probes the decision's check read (its guard), in order, and serves the
decision when every probe answers as it did.  The checker reads table
data only through those probes, so the replay is exact: a fresh check
at the same state takes the same decision.  Here every decision served
from the cache is held against a fresh check across the coherence storm
and a storm that flips probe outcomes both ways, and the premise —
no table read outside ``probe_exists`` during a check — is pinned.
"""

import random
import threading

import pytest

import repro.db
import repro.service.gateway
from repro.authviews.session import SessionContext
from repro.db import Database
from repro.instrument import COUNTERS
from repro.nontruman.cache import ValidityCache, query_signature
from repro.nontruman.checker import ValidityChecker
from repro.nontruman.decision import Validity
from repro.prepared import bind_skeleton, context_key
from repro.prepared import pipeline
from repro.service import EnforcementGateway, QueryRequest
from repro.service.context import QueryContext
from repro.errors import QueryCancelled
from repro.sql import parse_query, render
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.workloads.university import UniversityConfig, build_university

from tests.integration import test_decision_cache
from tests.integration.test_differential_engines import PAPER_QUERIES

SMALL = UniversityConfig(students=6, courses=3, registrations_per_student=2)

#: user 11 is registered for CS100 in ``SMALL``, not for CS101
COSTUDENT = "select * from Grades where course_id = '{course}'"
#: C3a over AvgGrades: the pinned group's existence is the probe
AGGREGATE = "select avg(grade) from Grades where course_id = 'CS103'"
REJECTED = "select * from Grades"
WRITE_SETUP = (
    "authorize insert on Registered where Registered.student_id = $user_id;"
    "authorize delete on Registered where Registered.student_id = $user_id;"
)


def fresh(db, query, session):
    decision = ValidityChecker(db).check(query, session)
    return decision.validity, decision.reason


def cached(db, sql, session, ctx=None):
    query = parse_query(sql)
    return pipeline.decide(db, session, query, context=context_key(session), ctx=ctx)


def university():
    db = build_university(SMALL)
    db.execute_script(WRITE_SETUP)
    return db


@pytest.fixture
def replay_shadowed(monkeypatch):
    """Every decision served from the cache is held against a fresh
    check at the same state; yields the databases whose caches served."""
    decide = pipeline.decide
    caches: dict[int, ValidityCache] = {}

    def shadow(db, session, query=None, resolved=None, context=None, ctx=None):
        decision = decide(db, session, query, resolved, context, ctx)
        if decision.from_cache:
            if query is None:
                query = bind_skeleton(resolved[0], resolved[1])
            expected = fresh(db, query, session)
            assert (decision.validity, decision.reason) == expected, render(query)
            caches[id(db.validity_cache)] = db.validity_cache
        return decision

    for module in (repro.service.gateway, repro.db, pipeline, test_decision_cache):
        monkeypatch.setattr(module, "decide", shadow)
    yield caches


def replayed(caches) -> int:
    return sum(cache.revalidations for cache in caches.values())


# -- exactness ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_replayed_decisions_equal_fresh_checks_in_the_coherence_storm(
    seed, replay_shadowed
):
    """The storm's registration inserts and deletes, and a write between
    every two entry points, land between hits."""
    test_decision_cache.coherence_storm(seed, write_between_entry_points=True)
    assert replayed(replay_shadowed) > 0


def flip(db, rng, state):
    """One write: flips a probe's outcome or leaves every probe alone."""
    kind = rng.choice(("registration", "group", "foreign"))
    if kind == "registration":
        # the costudent probe: is user 11 registered for CS100?
        if state["registered"]:
            db.execute(
                "delete from Registered where student_id = '11' "
                "and course_id = 'CS100'"
            )
        else:
            db.execute("insert into Registered values ('11', 'CS100')")
        state["registered"] = not state["registered"]
    elif kind == "group":
        # the C3a probe: does AvgGrades have a CS103 group?
        if state["group"]:
            db.execute("delete from Grades where course_id = 'CS103'")
        else:
            db.execute("insert into Grades values ('10', 'CS103', 3.0)")
        state["group"] = not state["group"]
    else:
        # another user's registration: no probe of user 11 reads it
        if state["foreign"]:
            db.execute(
                "delete from Registered where student_id = '12' "
                "and course_id = 'CS102'"
            )
        else:
            db.execute("insert into Registered values ('12', 'CS102')")
        state["foreign"] = not state["foreign"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_probe_flips_both_ways_replay_exactly(seed, replay_shadowed):
    rng = random.Random(seed)
    db = university()
    db.execute("insert into Courses values ('CS103', 'Compilers')")
    state = {"registered": True, "group": False, "foreign": False}
    queries = (
        COSTUDENT.format(course="CS100"),
        COSTUDENT.format(course="CS101"),
        AGGREGATE,
        REJECTED,
    )
    cache = db.validity_cache
    with EnforcementGateway(db, workers=1) as gateway:
        for step in range(120):
            flip(db, rng, state)
            sql = rng.choice(queries)
            session = SessionContext(user_id="11")
            expected = fresh(db, parse_query(sql), session)
            served = cached(db, sql, session)
            assert (served.validity, served.reason) == expected, (seed, step, sql)
            response = gateway.execute(QueryRequest(user="11", sql=sql))
            assert response.cache_hit
            assert (response.decision.validity, response.decision.reason) == expected
    assert cache.revalidations > 0 and cache.revalidation_failures > 0
    # each lookup is a hit or a miss, replays included
    assert cache.hits + cache.misses == cache.lookups


def test_a_flipped_probe_re_derives_and_an_unread_write_does_not():
    db = university()
    session = SessionContext(user_id="11")
    sql = COSTUDENT.format(course="CS101")
    first = cached(db, sql, session)
    assert first.validity is Validity.INVALID and first.guard
    # a write no probe of this decision reads: replayed, served
    db.execute("insert into Registered values ('12', 'CS102')")
    before = COUNTERS.snapshot()
    again = cached(db, sql, session)
    delta = COUNTERS.delta_since(before)
    assert again.from_cache and again.validity is Validity.INVALID
    assert delta.get("validity.check", 0) == 0
    assert delta["validity.replay"] == 1
    assert delta["validity.replay_probe"] == len(first.guard)
    # registering flips the probe: the replay stops there and re-checks
    db.execute("insert into Registered values ('11', 'CS101')")
    before = COUNTERS.snapshot()
    flipped = cached(db, sql, session)
    delta = COUNTERS.delta_since(before)
    assert not flipped.from_cache and flipped.validity is Validity.CONDITIONAL
    assert delta["validity.check"] == 1
    assert delta["validity.replay_probe"] == 1
    assert db.validity_cache.revalidations == 1
    assert db.validity_cache.revalidation_failures == 1


def test_a_data_independent_rejection_is_served_across_writes_without_a_probe():
    db = university()
    session = SessionContext(user_id="11")
    first = cached(db, REJECTED, session)
    assert first.validity is Validity.INVALID and first.guard == ()
    db.execute("insert into Registered values ('12', 'CS102')")
    before = COUNTERS.snapshot()
    again = cached(db, REJECTED, session)
    delta = COUNTERS.delta_since(before)
    assert again.from_cache
    assert delta.get("validity.replay", 0) == delta.get("validity.check", 0) == 0


def test_a_cancel_mid_replay_raises_and_re_stamps_nothing(monkeypatch):
    db = university()
    session = SessionContext(user_id="11")
    sql = COSTUDENT.format(course="CS100")
    assert cached(db, sql, session).conditional
    db.execute("insert into Registered values ('12', 'CS102')")
    ctx = QueryContext(check_interval=1)
    probe = Database.probe_exists

    def cancelled(self, plan, session, ctx=None):
        ctx.cancel()
        return probe(self, plan, session, ctx)

    monkeypatch.setattr(Database, "probe_exists", cancelled)
    cache = db.validity_cache
    misses = cache.misses
    with pytest.raises(QueryCancelled):
        cached(db, sql, session, ctx=ctx)
    monkeypatch.undo()
    assert cache.misses == misses + 1 and cache.revalidations == 0
    # still stale: the next lookup replays again, and serves
    before = COUNTERS.snapshot()
    assert cached(db, sql, session).from_cache
    assert COUNTERS.delta_since(before)["validity.replay"] == 1
    assert cache.hits + cache.misses == cache.lookups


def test_a_decision_taken_mid_write_is_stale_once_the_write_lands(monkeypatch):
    """A write outside the gateway's lock can run beside a check: the
    check reads the state before the row lands.  The write moves the
    version once the row is in, so the entry is stale from then on."""
    db = university()
    session = SessionContext(user_id="11")
    sql = COSTUDENT.format(course="CS101")
    insert = Table.insert
    during = []

    def insert_beside_a_check(self, values, row_id=None):
        if self.schema.name == "Registered" and not during:
            during.append(cached(db, sql, session))
        return insert(self, values, row_id)

    monkeypatch.setattr(Table, "insert", insert_beside_a_check)
    db.execute("insert into Registered values ('11', 'CS101')")
    monkeypatch.undo()
    assert during[0].validity is Validity.INVALID  # the state before the row
    after = cached(db, sql, session)
    assert not after.from_cache and after.conditional


def test_a_foreign_write_costs_the_next_request_no_inference():
    """The timing channel: user 10's write must not show in user 11's
    next costudent request as a fresh inference."""
    db = university()
    with EnforcementGateway(db, workers=1) as gateway:
        sql = COSTUDENT.format(course="CS100")
        assert not gateway.execute(QueryRequest(user="11", sql=sql)).cache_hit
        write = gateway.execute(
            QueryRequest(user="10", sql="insert into Registered values ('10', 'CS102')")
        )
        assert write.ok, write.error
        before = COUNTERS.snapshot()
        response = gateway.execute(QueryRequest(user="11", sql=sql))
        delta = COUNTERS.delta_since(before)
        assert response.ok and response.cache_hit
        assert delta.get("validity.check", 0) == 0
        assert delta["validity.replay"] == 1
        stats = gateway.stats()
        assert stats["cache_revalidations"] == 1
        assert stats["cache_revalidation_failures"] == 0


# -- the premise: a check reads tables only through its probes -----------------


def test_the_checker_reads_table_data_only_through_probe_exists(monkeypatch):
    reads = {"outside": 0, "inside": 0}
    where = ["outside"]

    def counting(original):
        def read(*args, **kwargs):
            reads[where[-1]] += 1
            return original(*args, **kwargs)

        return read

    for name in ("rows", "rows_with_ids", "get_row", "__len__", "distinct_count"):
        monkeypatch.setattr(Table, name, counting(getattr(Table, name)))
    monkeypatch.setattr(
        Table, "row_count", property(counting(Table.row_count.fget))
    )
    monkeypatch.setattr(HashIndex, "lookup", counting(HashIndex.lookup))
    probe = Database.probe_exists

    def probing(self, plan, session, ctx=None):
        where.append("inside")
        try:
            return probe(self, plan, session, ctx)
        finally:
            where.pop()

    monkeypatch.setattr(Database, "probe_exists", probing)
    db = university()
    db.execute("insert into Courses values ('CS103', 'Compilers')")
    queries = PAPER_QUERIES + [
        COSTUDENT.format(course="CS100"),
        COSTUDENT.format(course="CS101"),
        AGGREGATE,
        REJECTED,
    ]
    reads.update(outside=0, inside=0)
    decisions = [
        ValidityChecker(db).check(parse_query(sql), SessionContext(user_id=user))
        for sql in queries
        for user in ("11", "12")
    ]
    assert reads["outside"] == 0
    assert reads["inside"] > 0
    assert any(d.conditional for d in decisions)
    # the guard is exactly the probes the check consulted
    assert all(d.guard == () for d in decisions if d.unconditional)
    assert all(d.guard for d in decisions if d.conditional)


# -- the cache's side ------------------------------------------------------------


STAMP = (0, ((0, 0), 0, 0))
WRITTEN = (1, STAMP[1])


def never(guard):
    pytest.fail("replayed")


def stored(cache, sql, validity, guard, user_value="u"):
    skeleton, literals = query_signature(parse_query(sql))
    key = ("u", (), skeleton)
    cache.store(key, literals, user_value, validity, "r", STAMP, guard)
    return key, literals


def test_no_probe_runs_under_the_cache_lock():
    cache = ValidityCache()
    key, literals = stored(cache, "select x from T", Validity.CONDITIONAL, (("p", True),))

    def replay(guard):
        # another thread takes the lock while the replay runs
        other = threading.Thread(target=cache.stats)
        other.start()
        other.join(5)
        assert not other.is_alive(), "replay ran under the cache lock"
        return True

    assert cache.lookup(key, literals, "u", WRITTEN, replay=replay) is not None
    assert cache.revalidations == 1
    # re-stamped: the next lookup at that stamp is a plain hit
    assert cache.lookup(key, literals, "u", WRITTEN, replay=never) is not None


def test_a_guard_replays_only_for_its_own_literals():
    """``entry_matches`` carries a decision over to another user id in a
    user position; the guard's probes hold the old one."""
    cache = ValidityCache()
    skeleton, literals = query_signature(parse_query("select x from T where o = 'u'"))
    cache.store(("k",), literals, "u", Validity.CONDITIONAL, "r", STAMP, (("p", True),))
    calls = []

    def replay(guard):
        calls.append(guard)
        return True

    assert cache.lookup(("k",), ("v",), "v", STAMP, replay=never)  # carried over
    assert cache.lookup(("k",), ("v",), "v", WRITTEN, replay=replay) is None
    assert calls == []
    assert cache.lookup(("k",), literals, "u", WRITTEN, replay=replay) is not None
    assert len(calls) == 1


def test_an_empty_guard_is_served_across_writes_and_a_failed_replay_misses():
    cache = ValidityCache()
    # an UNCONDITIONAL decision's guard is empty: no replay
    key, literals = stored(cache, "select b from T", Validity.UNCONDITIONAL, ())
    assert cache.lookup(key, literals, "u", WRITTEN, replay=never) is not None
    # a failed replay is a miss
    key, literals = stored(cache, "select c from T", Validity.INVALID, (("p", False),))
    assert cache.lookup(key, literals, "u", WRITTEN, replay=lambda g: False) is None
    assert cache.revalidation_failures == 1
    assert cache.hits + cache.misses == cache.lookups == 2


def test_a_decision_without_its_guard_is_refused():
    """A cache-served decision carries no guard; storing one would read
    as data-independent."""
    cache = ValidityCache()
    with pytest.raises(TypeError):
        stored(cache, "select a from T", Validity.CONDITIONAL, None)
    assert cache.size == 0
