"""Cross-node differential: cluster answers byte-identical to single-node.

The cluster's contract is that sharding + replication are *invisible*:
for every query, mode, and engine, a 4-shard coordinator (with a read
replica serving what it can) produces exactly the rows, rejection
messages, and audit records a single-node database would — while the
checker and prepared pipeline run once per query on the coordinator,
never once per shard.
"""

import pytest

from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.db import Database, _QueryContext
from repro.engine import make_executor
from repro.errors import ReproError
from repro.instrument import COUNTERS
from repro.service import EnforcementGateway, QueryRequest
from repro.sql.parser import parse_query
from repro.workloads.university import (
    UniversityConfig,
    build_university,
    student_ids,
)

CONFIG = UniversityConfig(students=30, courses=8, seed=77)


def build_pair(replicas=1):
    single = build_university(CONFIG)
    cluster = build_university(
        CONFIG, db=ClusterCoordinator(shards=4, replicas=replicas)
    )
    cluster.sync_replicas()
    return single, cluster


@pytest.fixture(scope="module")
def pair():
    return build_pair()


def corpus(db):
    """Queries spanning scans, point reads, aggregates, joins, groups,
    auth views — accepted and rejected alike."""
    users = student_ids(db)[:4]
    queries = [
        ("select * from Students", None, "open"),
        ("select * from Grades", None, "open"),
        (
            f"select name from Students where student_id = '{users[0]}'",
            None,
            "open",
        ),
        ("select count(*) from Registered", None, "open"),
        (
            "select count(*), min(grade), max(grade) from Grades",
            None,
            "open",
        ),
        ("select avg(grade), sum(grade) from Grades", None, "open"),
        (
            "select course_id, count(*) from Registered group by course_id",
            None,
            "open",
        ),
        (
            "select s.name, r.course_id from Students s, Registered r "
            "where s.student_id = r.student_id and s.type = 'FullTime'",
            None,
            "open",
        ),
        ("select distinct type from Students", None, "open"),
    ]
    for user in users[:2]:
        queries.append(
            (
                f"select grade from Grades where student_id = '{user}'",
                user,
                "non-truman",
            )
        )
        queries.append(("select * from Grades", user, "non-truman"))
        queries.append(
            (
                "select course_id, grade from Grades "
                f"where student_id = '{user}' and grade > 2.0",
                user,
                "non-truman",
            )
        )
    return queries


def run_one(db, sql, user, mode, engine):
    try:
        result = db.execute_query(
            sql,
            session=SessionContext(user_id=user),
            mode=mode,
            engine=engine,
        )
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))
    return ("ok", tuple(result.columns), tuple(result.rows))


class TestLibraryDifferential:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_every_query_byte_identical(self, pair, engine):
        single, cluster = pair
        mismatches = []
        for sql, user, mode in corpus(single):
            expected = run_one(single, sql, user, mode, engine)
            actual = run_one(cluster, sql, user, mode, engine)
            if expected != actual:
                mismatches.append((engine, sql, expected, actual))
        assert mismatches == []

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_replica_byte_identical(self, pair, engine):
        single, cluster = pair
        replica = cluster.replicas[0]
        mismatches = []
        for sql, user, mode in corpus(single):
            expected = run_one(single, sql, user, mode, engine)
            actual = run_one(replica.database, sql, user, mode, engine)
            if expected != actual:
                mismatches.append((engine, sql, expected, actual))
        assert mismatches == []

    def test_plan_built_once_not_per_shard(self, pair):
        _, cluster = pair
        session = SessionContext(user_id=None)
        before = COUNTERS.snapshot().get("plan.build", 0)
        cluster.execute_query(
            "select count(*) from Grades", session=session, mode="open"
        )
        after = COUNTERS.snapshot().get("plan.build", 0)
        assert after - before == 1  # one plan for 4 shards

    def test_scatter_aggregate_engaged_for_count(self, pair):
        _, cluster = pair
        session = SessionContext(user_id=None)
        before = COUNTERS.snapshot().get("cluster.scatter", 0)
        result = cluster.execute_query(
            "select count(*) from Registered", session=session, mode="open"
        )
        after = COUNTERS.snapshot().get("cluster.scatter", 0)
        assert after == before + 1
        single_count = sum(
            node.tables["registered"].row_count for node in cluster.nodes
        )
        assert result.rows == [(single_count,)]

    def test_float_aggregate_bypasses_scatter(self, pair):
        """Float sums are order-sensitive; they must use the merged
        rid-ordered scan, not per-shard partials."""
        _, cluster = pair
        session = SessionContext(user_id=None)
        before = COUNTERS.snapshot().get("cluster.scatter", 0)
        cluster.execute_query(
            "select sum(grade) from Grades", session=session, mode="open"
        )
        assert COUNTERS.snapshot().get("cluster.scatter", 0) == before

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_point_read_prunes_to_one_shard(self, pair, engine):
        _, cluster = pair
        user = student_ids(cluster)[0]
        plan = cluster.plan_query(
            parse_query(
                f"select name from Students where student_id = '{user}'"
            ),
            SessionContext(user_id=None),
        )
        executor = make_executor(
            engine, _QueryContext(cluster, SessionContext(), None)
        )
        rows = executor.execute(plan)
        assert len(rows) == 1
        assert executor.pruned_scans >= 1


class TestGatewayDifferential:
    def test_gateway_responses_and_audit_match(self):
        single, cluster = build_pair()
        gw_single = EnforcementGateway(single, workers=1, name="single")
        gw_cluster = EnforcementGateway(cluster, workers=1, name="cluster")
        try:
            replica_served = 0
            for sql, user, mode in corpus(single):
                a = gw_single.execute(
                    QueryRequest(user=user, sql=sql, mode=mode)
                )
                b = gw_cluster.execute(
                    QueryRequest(user=user, sql=sql, mode=mode)
                )
                assert a.status == b.status, (sql, a.error, b.error)
                assert a.rows == b.rows, sql
                assert a.error == b.error, sql
                if b.replica is not None:
                    replica_served += 1
            # reads were actually routed, not silently all-primary
            assert replica_served > 0
            audit_single = [
                (r.user, r.mode, r.signature, r.status, r.decision)
                for r in gw_single.audit.tail(10**6)
            ]
            audit_cluster = [
                (r.user, r.mode, r.signature, r.status, r.decision)
                for r in gw_cluster.audit.tail(10**6)
            ]
            assert audit_single == audit_cluster
        finally:
            gw_single.shutdown()
            gw_cluster.shutdown()

    def test_writes_apply_once_and_ship(self):
        single, cluster = build_pair()
        gw_single = EnforcementGateway(single, workers=1)
        gw_cluster = EnforcementGateway(cluster, workers=1)
        try:
            stmt = "insert into Students values ('999', 'Zo', 'FullTime')"
            a = gw_single.execute(QueryRequest(user=None, sql=stmt, mode="open"))
            b = gw_cluster.execute(QueryRequest(user=None, sql=stmt, mode="open"))
            assert a.status == b.status and a.rowcount == b.rowcount
            cluster.sync_replicas()
            probe = "select * from Students where student_id = '999'"
            expected = run_one(single, probe, None, "open", "row")
            assert run_one(cluster, probe, None, "open", "row") == expected
            assert (
                run_one(
                    cluster.replicas[0].database, probe, None, "open", "row"
                )
                == expected
            )
        finally:
            gw_single.shutdown()
            gw_cluster.shutdown()

    def test_revoke_never_served_stale_through_gateway(self):
        single, cluster = build_pair()
        # pin a user-specific grant we can revoke (public views are
        # granted to everyone in the workload; add a private one)
        for db in (single, cluster):
            db.execute(
                "create authorization view AuditGrades as "
                "select * from Grades"
            )
            db.grant("AuditGrades", "auditor")
        cluster.sync_replicas()
        gw = EnforcementGateway(cluster, workers=1)
        try:
            ok = gw.execute(
                QueryRequest(
                    user="auditor",
                    sql="select * from AuditGrades",
                    mode="non-truman",
                )
            )
            assert ok.ok
            # pause shipping so the replica is provably behind, then
            # revoke: the epoch gate must force primary-side rejection
            for shipper in cluster.shippers:
                shipper.paused = True
            cluster.grants.revoke("AuditGrades", "auditor")
            denied = gw.execute(
                QueryRequest(
                    user="auditor",
                    sql="select * from AuditGrades",
                    mode="non-truman",
                )
            )
            assert denied.status.name == "REJECTED"
            assert denied.replica is None  # not served by the stale replica
        finally:
            for shipper in cluster.shippers:
                shipper.paused = False
            gw.shutdown()
