"""WAL shipping, replica apply idempotence, and epoch routing.

Satellite of the cluster PR: re-applying an already-seen epoch-stamped
record must be a byte-for-byte no-op — no double storage apply, no
second cache invalidation, no duplicate audit — and the policy-epoch
routing gate must close the instant a policy record is appended.
"""

import pytest

from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.errors import DurabilityError, QueryRejectedError
from repro.service import EnforcementGateway, QueryRequest


def S(user):
    return SessionContext(user_id=user)


def cluster_db(replicas=1):
    db = ClusterCoordinator(shards=2, replicas=replicas, ship_batch=1)
    db.execute(
        "create table Grades (student_id varchar(10), course varchar(10), "
        "grade float)"
    )
    db.execute("insert into Grades values ('11', 'CS101', 3.5)")
    db.execute("insert into Grades values ('12', 'CS101', 2.0)")
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.grant("MyGrades", "11")
    db.sync_replicas()
    return db


class TestReplayIdempotence:
    def test_duplicate_record_is_skipped(self):
        db = cluster_db()
        replica = db.replicas[0]
        applied = replica.records_applied
        rows_before = list(replica.database.table("Grades").rows_with_ids())
        for record in db.log.records:
            assert replica.apply(dict(record)) is False
        assert replica.records_applied == applied
        assert replica.duplicates_skipped == len(db.log.records)
        assert (
            list(replica.database.table("Grades").rows_with_ids())
            == rows_before
        )

    def test_duplicate_policy_record_no_double_invalidation(self):
        db = cluster_db()
        replica = db.replicas[0]
        grant_record = next(
            r for r in db.log.records if r["kind"] == "grant"
        )
        gv = replica.database.grants.version
        assert replica.apply(dict(grant_record)) is False
        # an unchanged grants version leaves every template's stamp intact
        assert replica.database.grants.version == gv

    def test_duplicate_apply_no_duplicate_audit(self):
        """A re-shipped batch must not re-run reads or re-audit them."""
        db = cluster_db()
        gateway = EnforcementGateway(db, workers=1)
        try:
            response = gateway.execute(
                QueryRequest(user="11", sql="select grade from MyGrades")
            )
            assert response.ok and response.replica is not None
            audited = gateway.audit.total_recorded
            replica = db.replicas[0]
            for record in db.log.records:
                replica.apply(dict(record))
            assert gateway.audit.total_recorded == audited
        finally:
            gateway.shutdown()

    def test_reshipping_after_partial_failure_converges(self):
        db = cluster_db()
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into Grades values ('13', 'CS102', 3.0)")
        shipper.paused = False
        shipper.fail_next_ships = 1
        with pytest.raises(DurabilityError):
            db.sync_replicas()
        shipped = db.sync_replicas()  # retry ships the same range again
        assert shipped >= 1
        replica = db.replicas[0]
        assert replica.applied_lsn == db.log.last_lsn
        result = replica.database.execute_query(
            "select count(*) from Grades", session=S(None), mode="open"
        )
        assert result.rows == [(3,)]


class TestEpochRouting:
    def test_revoke_closes_routing_before_shipping(self):
        db = cluster_db()
        replica = db.replicas[0]
        assert db.route_read() is replica
        shipper = db.shippers[0]
        shipper.paused = True
        db.grants.revoke("MyGrades", "11")
        # the epoch bump happens at append time: the replica is
        # ineligible even though the revoke has not shipped yet
        assert db.route_read() is None
        shipper.paused = False
        db.sync_replicas()
        assert db.route_read() is replica
        with pytest.raises(QueryRejectedError):
            replica.database.execute_query(
                "select grade from MyGrades",
                session=S("11"),
                mode="non-truman",
            )

    def test_lagging_replica_not_routed(self):
        db = ClusterCoordinator(
            shards=2, replicas=1, replica_max_lag=0, ship_batch=1
        )
        db.execute("create table T (a int primary key)")
        db.sync_replicas()
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into T values (1)")  # data lag, no policy change
        assert db.route_read() is None
        shipper.paused = False
        db.sync_replicas()
        assert db.route_read() is db.replicas[0]

    def test_replica_max_lag_tolerates_bounded_staleness(self):
        db = ClusterCoordinator(
            shards=2, replicas=1, replica_max_lag=5, ship_batch=100
        )
        db.execute("create table T (a int primary key)")
        db.sync_replicas()
        for i in range(3):
            db.execute(f"insert into T values ({i})")
        # within the lag budget: still routable without shipping
        assert db.replica_lag() <= 5
        assert db.route_read() is db.replicas[0]

    def test_epoch_stamped_on_policy_kinds_only(self):
        db = ClusterCoordinator(shards=2, replicas=0)
        db.execute("create table T (a int primary key)")
        epoch_after_ddl = db.policy_epoch
        db.execute("insert into T values (1)")
        assert db.policy_epoch == epoch_after_ddl  # rows are not policy
        db.execute("create view V as select a from T")
        assert db.policy_epoch == epoch_after_ddl + 1  # DDL is

    def test_late_replica_bootstraps_from_full_log(self):
        db = cluster_db(replicas=0)
        db.execute("insert into Grades values ('14', 'CS103', 1.0)")
        replica = db.add_replica("late")
        assert replica.applied_lsn == db.log.last_lsn
        result = replica.database.execute_query(
            "select grade from MyGrades", session=S("11"), mode="non-truman"
        )
        assert result.rows == [(3.5,)]
