"""Integration tests for the enforcement gateway (repro.service)."""

import threading
import time

import pytest

from repro.db import Database
from repro.errors import QueryRejectedError, ServiceOverloaded, ServiceShutdown
from repro.service import (
    EnforcementGateway,
    QueryRequest,
    RequestStatus,
)

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA


@pytest.fixture
def db():
    database = Database()
    database.execute_script(UNIVERSITY_SCHEMA)
    database.execute_script(UNIVERSITY_DATA)
    database.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    database.execute(
        "create authorization view MyRegistrations as "
        "select * from Registered where student_id = $user_id"
    )
    database.execute(
        "create authorization view CoStudentGrades as "
        "select Grades.student_id, Grades.course_id, Grades.grade "
        "from Grades, Registered "
        "where Registered.student_id = $user_id "
        "  and Grades.course_id = Registered.course_id"
    )
    database.grant_public("MyGrades")
    database.grant_public("MyRegistrations")
    database.grant_public("CoStudentGrades")
    return database


@pytest.fixture
def gateway(db):
    gw = EnforcementGateway(db, workers=4, queue_size=32)
    yield gw
    gw.shutdown(drain=False)


def serial_outcome(db, request: QueryRequest):
    """(status, multiset of rows) of running a request serially."""
    session = db.connect(user_id=request.user, mode=request.mode).session
    try:
        result = db.execute_query(
            request.sql, session=session, mode=request.mode
        )
    except QueryRejectedError:
        return ("rejected", None)
    return ("ok", result.as_multiset())


class TestConcurrentCorrectness:
    def test_decisions_match_serial_execution(self, db, gateway):
        requests = []
        for user in ("11", "12", "13"):
            requests += [
                QueryRequest(
                    user=user,
                    sql=f"select grade from Grades where student_id = '{user}'",
                ),
                QueryRequest(user=user, sql="select * from Grades"),
                QueryRequest(
                    user=user,
                    sql=f"select course_id from Registered "
                    f"where student_id = '{user}'",
                ),
                QueryRequest(
                    user=user, sql="select count(*) from Courses", mode="open"
                ),
            ]
        expected = [serial_outcome(db, r) for r in requests]
        responses = gateway.execute_many(requests)
        for request, response, (status, rows) in zip(
            requests, responses, expected
        ):
            assert response.status.value == status, request.sql
            if rows is not None:
                assert response.result.as_multiset() == rows, request.sql

    def test_many_threads_submitting(self, gateway):
        """Closed-loop clients on top of the gateway's own worker pool."""
        errors = []

        def client(user):
            try:
                for _ in range(10):
                    response = gateway.execute(
                        QueryRequest(
                            user=user,
                            sql=f"select grade from Grades "
                            f"where student_id = '{user}'",
                        )
                    )
                    assert response.ok, response.error
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(user,))
            for user in ("11", "12", "13", "11", "12")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # repeats of the same (user, skeleton) must hit the shared cache
        assert gateway.cache.hits > 0


class TestDecisionsAndAudit:
    def test_rejected_query_carries_decision(self, gateway):
        response = gateway.execute(
            QueryRequest(user="11", sql="select * from Grades")
        )
        assert response.status is RequestStatus.REJECTED
        assert response.decision is not None
        assert not response.decision.valid
        assert "rejected" in response.error

    def test_accepted_query_records_rules_in_audit(self, gateway):
        response = gateway.execute(
            QueryRequest(
                user="11",
                sql="select grade from Grades where student_id = '11'",
            )
        )
        assert response.ok
        assert response.decision is not None and response.decision.valid
        record = gateway.audit.tail(1)[0]
        assert record.user == "11"
        assert record.status == "ok"
        assert record.decision in ("unconditional", "conditional")
        assert record.rules  # at least one inference rule fired
        assert record.latency_ms > 0
        # the audit signature is literal-stripped: the user id constant
        # must not appear verbatim
        assert "'11'" not in record.signature

    def test_timing_breakdown_reported(self, gateway):
        response = gateway.execute(
            QueryRequest(
                user="11",
                sql="select grade from Grades where student_id = '11'",
            )
        )
        timing = response.timing
        assert timing.total_s > 0
        assert timing.check_s > 0
        assert timing.execute_s > 0
        assert timing.total_s >= timing.check_s + timing.execute_s

    def test_stats_merge_all_layers(self, gateway):
        gateway.execute(
            QueryRequest(
                user="11",
                sql="select grade from Grades where student_id = '11'",
            )
        )
        stats = gateway.stats()
        for key in (
            "requests_ok",
            "cache_hit_rate",
            "queue_depth",
            "breaker_transitions",
            "latency_ms_p95",
            "queue_capacity",
        ):
            assert key in stats
        assert "latency_ms_p95" in gateway.render_stats() or "latency_ms" in gateway.render_stats()


class TestCacheInvalidation:
    def test_conditional_decision_rechecked_after_dml(self, db, gateway):
        """Service-level version of the §5.6 safety property: a cached
        conditional decision must be re-checked once DML moves the data
        version — through the gateway's own DML path."""
        course = db.execute(
            "select course_id from Registered where student_id = '11' "
            "order by course_id limit 1"
        ).scalar()
        query = f"select * from Grades where course_id = '{course}'"

        first = gateway.execute(QueryRequest(user="11", sql=query))
        assert first.ok and first.decision.conditional

        # the registration that justified the decision disappears
        dml = gateway.execute(
            QueryRequest(
                user=None,
                mode="open",
                sql=f"delete from Registered where student_id = '11' "
                f"and course_id = '{course}'",
            )
        )
        assert dml.ok

        second = gateway.execute(QueryRequest(user="11", sql=query))
        assert second.status is RequestStatus.REJECTED
        assert not second.cache_hit  # stale entry was not served

        # restoring the registration restores (conditional) validity
        gateway.execute(
            QueryRequest(
                user=None,
                mode="open",
                sql=f"insert into Registered values ('11', '{course}')",
            )
        )
        third = gateway.execute(QueryRequest(user="11", sql=query))
        assert third.ok and third.decision.conditional

    def test_unconditional_decision_survives_dml(self, gateway):
        query = "select grade from Grades where student_id = '11'"
        first = gateway.execute(QueryRequest(user="11", sql=query))
        assert first.ok and first.decision.unconditional
        gateway.execute(
            QueryRequest(
                user=None,
                mode="open",
                sql="insert into Students values ('99', 'Zed', 'PartTime')",
            )
        )
        again = gateway.execute(QueryRequest(user="11", sql=query))
        assert again.ok and again.cache_hit

    def test_policy_change_invalidates_even_unconditional(self, db, gateway):
        """A \\grant (or CREATE VIEW) moves the user's stamp: decisions
        cached before it — including rejections — must be re-derived."""
        query = "select name from Students where student_id = '12'"
        before = gateway.execute(QueryRequest(user="11", sql=query))
        assert before.status is RequestStatus.REJECTED

        db.execute(
            "create authorization view AllStudents as select * from Students"
        )
        db.grant_public("AllStudents")

        misses = gateway.cache.misses
        after = gateway.execute(QueryRequest(user="11", sql=query))
        assert after.ok, after.error
        assert not after.cache_hit
        assert gateway.cache.misses == misses + 1
        fresh = db.check_validity(query, db.connect(user_id="11").session)
        assert (after.decision.validity, after.decision.reason) == (
            fresh.validity,
            fresh.reason,
        )

    def test_revoke_invalidates_cached_acceptance(self, db, gateway):
        db.execute(
            "create authorization view AllCourses as select * from Courses"
        )
        db.grants.grant("AllCourses", "11")
        query = "select * from Courses"
        assert gateway.execute(QueryRequest(user="11", sql=query)).ok

        db.grants.revoke("AllCourses", "11")
        response = gateway.execute(QueryRequest(user="11", sql=query))
        assert response.status is RequestStatus.REJECTED


class TestRobustness:
    def test_overload_raises_structured_rejection(self, db):
        gw = EnforcementGateway(db, workers=1, queue_size=2)
        # hold the gateway's read lock so a DML request pins the only
        # worker in acquire_write — deterministic head-of-line blocking
        gw._rwlock.acquire_read()
        try:
            blocker = gw.submit(
                QueryRequest(
                    user=None, mode="open",
                    sql="insert into Courses values ('CS999', 'Blocking')",
                )
            )
            deadline = time.time() + 5
            while gw.metrics.get("workers_busy") < 1:
                assert time.time() < deadline, "worker never became busy"
                time.sleep(0.001)
            # fill the admission queue, then overflow it
            queued = []
            with pytest.raises(ServiceOverloaded):
                for _ in range(gw.queue_size + 1):
                    queued.append(
                        gw.submit(
                            QueryRequest(
                                user=None, mode="open",
                                sql="select count(*) from Courses",
                            )
                        )
                    )
            assert len(queued) == gw.queue_size
            assert gw.metrics.get("requests_overloaded") >= 1
        finally:
            gw._rwlock.release_read()
        # previously admitted requests still complete
        assert blocker.result(timeout=30).ok
        for pending in queued:
            assert pending.result(timeout=30).ok
        gw.shutdown(drain=True)

    def test_deadline_exceeded_is_structured_not_blocking(self, gateway):
        response = gateway.execute(
            QueryRequest(user="11", sql="select * from MyGrades", deadline=0.0)
        )
        assert response.status is RequestStatus.TIMEOUT
        assert "deadline" in response.error
        assert response.result is None
        # the pool is alive and serves the next request normally
        ok = gateway.execute(
            QueryRequest(user="11", sql="select * from MyGrades")
        )
        assert ok.ok

    def test_graceful_shutdown_drains_inflight(self, db):
        gw = EnforcementGateway(db, workers=2, queue_size=32)
        pendings = [
            gw.submit(
                QueryRequest(
                    user="11",
                    sql="select grade from Grades where student_id = '11'",
                )
            )
            for _ in range(10)
        ]
        gw.shutdown(drain=True)
        assert all(p.done() for p in pendings)
        assert all(p.result().ok for p in pendings)
        with pytest.raises(ServiceShutdown):
            gw.submit(QueryRequest(user="11", sql="select 1"))

    def test_hard_shutdown_cancels_queued(self, db):
        gw = EnforcementGateway(db, workers=1, queue_size=32)
        gw._rwlock.acquire_read()
        try:
            # head-of-line DML blocker so later requests stay queued
            blocker = gw.submit(
                QueryRequest(
                    user=None, mode="open",
                    sql="insert into Courses values ('CS998', 'Blocking')",
                )
            )
            deadline = time.time() + 5
            while gw.metrics.get("workers_busy") < 1:
                assert time.time() < deadline, "worker never became busy"
                time.sleep(0.001)
            pendings = [
                gw.submit(QueryRequest(user="11", sql="select * from MyGrades"))
                for _ in range(5)
            ]
            cancel = threading.Thread(
                target=gw.shutdown, kwargs={"drain": False}
            )
            cancel.start()
            # queued requests are answered CANCELLED while the worker is
            # still stuck on the blocker
            for pending in pendings:
                assert pending.result(timeout=30).status is RequestStatus.CANCELLED
        finally:
            gw._rwlock.release_read()
        cancel.join(timeout=30)
        assert blocker.result(timeout=30).ok

    def test_worker_survives_internal_errors(self, gateway):
        bad = gateway.execute(QueryRequest(user="11", sql="selekt nonsense"))
        assert bad.status is RequestStatus.ERROR
        ok = gateway.execute(
            QueryRequest(user="11", sql="select * from MyGrades")
        )
        assert ok.ok


class TestServeHelper:
    def test_database_serve_helper(self, db):
        with db.serve(workers=2) as gw:
            assert gw.execute(
                QueryRequest(user="11", sql="select * from MyGrades")
            ).ok


class TestDurableGateway:
    """Group commit and drain-then-checkpoint on a durable database."""

    def make_durable(self, tmp_path):
        db = Database.open(str(tmp_path / "gw-data"))
        db.execute("create table Ledger(id int primary key, v int)")
        return db

    def test_concurrent_dml_group_commits(self, tmp_path):
        db = self.make_durable(tmp_path)
        gateway = EnforcementGateway(db, workers=8, queue_size=256)
        try:
            requests = [
                QueryRequest(
                    user=None,
                    sql=f"insert into Ledger values ({i}, {i})",
                    mode="open",
                )
                for i in range(64)
            ]
            responses = gateway.execute_many(requests)
            assert all(r.status is RequestStatus.OK for r in responses)
            stats = gateway.stats()
            assert stats["wal_records"] >= 64 + 1  # +1 for the CREATE
            # group commit: concurrent workers share fsyncs, so flushes
            # stay below one-per-record even with per-request commits
            assert stats["wal_fsyncs"] <= stats["wal_commits"]
            assert stats["wal_synced_lsn"] == stats["wal_last_lsn"]
        finally:
            gateway.shutdown(drain=True)
        assert len(db.table("Ledger")) == 64

    def test_drain_shutdown_checkpoints(self, tmp_path):
        db = self.make_durable(tmp_path)
        gateway = EnforcementGateway(db, workers=4)
        gateway.execute(
            QueryRequest(user=None, sql="insert into Ledger values (1, 1)",
                         mode="open")
        )
        gateway.shutdown(drain=True)
        assert db.durability.checkpoints >= 1
        db.close(checkpoint=False)
        # the restart replays nothing: shutdown folded the WAL tail
        recovered = Database.open(str(tmp_path / "gw-data"))
        assert recovered.durability.recovery_info["wal_records_replayed"] == 0
        assert len(recovered.table("Ledger")) == 1
        recovered.close()

    def test_rejected_dml_still_commits_cleanly(self, tmp_path):
        db = self.make_durable(tmp_path)
        gateway = EnforcementGateway(db, workers=2)
        try:
            ok = gateway.execute(
                QueryRequest(user=None, sql="insert into Ledger values (1, 1)",
                             mode="open")
            )
            dup = gateway.execute(
                QueryRequest(user=None, sql="insert into Ledger values (1, 2)",
                             mode="open")
            )
            assert ok.status is RequestStatus.OK
            assert dup.status is RequestStatus.ERROR
        finally:
            gateway.shutdown(drain=True)
        db.close(checkpoint=False)
        recovered = Database.open(str(tmp_path / "gw-data"))
        assert dict(recovered.table("Ledger").rows_with_ids()) == {0: (1, 1)}
        recovered.close()

    def test_stats_merge_includes_wal_counters(self, tmp_path):
        db = self.make_durable(tmp_path)
        gateway = EnforcementGateway(db, workers=2)
        try:
            stats = gateway.stats()
            for key in ("wal_records", "wal_fsyncs", "snapshot_lsn",
                        "sync_policy"):
                assert key in stats
            assert "wal_records" in gateway.render_stats()
        finally:
            gateway.shutdown(drain=True)

    def test_in_memory_gateway_has_no_wal_stats(self, gateway):
        assert "wal_records" not in gateway.stats()
