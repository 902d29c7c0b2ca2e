"""Cluster chaos: revoke storms, replication faults, degraded failover.

The guarantees under fire:

* **0 stale-policy answers** — a revoke-during-read storm never lets a
  revoked user read through a replica (or the primary), no matter how
  shipping is delayed;
* replication commit failures trip the gateway's circuit breaker into
  degraded read-only mode — the cluster's failover posture: writes are
  refused *before* any shard mutates, reads keep serving;
* ship faults (pauses, injected failures) delay replicas but never
  corrupt them: re-shipping converges to the primary's exact state.
"""

import threading
import time

import pytest

from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.errors import DurabilityError
from repro.service import EnforcementGateway, QueryRequest
from repro.service.request import RequestStatus


def cluster_db(replicas=2, ship_batch=1):
    db = ClusterCoordinator(shards=4, replicas=replicas, ship_batch=ship_batch)
    db.execute(
        "create table Grades (student_id varchar(10), course varchar(10), "
        "grade float)"
    )
    for i in range(20):
        db.execute(
            f"insert into Grades values ('{10 + i}', 'CS10{i % 4}', "
            f"{round(1.0 + (i % 30) * 0.1, 1)})"
        )
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.sync_replicas()
    return db


class TestRevokeStorm:
    def test_revoke_during_read_storm_zero_stale(self):
        """Grant/revoke churn racing reads: every OK answer for the
        churned user must have been legitimate at serving time."""
        db = cluster_db(replicas=2)
        db.grant("MyGrades", "11")
        db.sync_replicas()
        gateway = EnforcementGateway(db, workers=4)
        state_lock = threading.Lock()
        #: (flip counter, currently granted) — every grant/revoke flips
        state = [0, True]
        stale = []
        stop = threading.Event()

        def snapshot():
            with state_lock:
                return state[0], state[1]

        def churn():
            while not stop.is_set():
                with state_lock:
                    db.grants.revoke("MyGrades", "11")
                    state[0] += 1
                    state[1] = False
                time.sleep(0.0005)
                with state_lock:
                    db.grant("MyGrades", "11")
                    state[0] += 1
                    state[1] = True
                time.sleep(0.0005)

        def pause_wiggle():
            # stall shipping at random to widen staleness windows
            while not stop.is_set():
                for shipper in db.shippers:
                    shipper.paused = not shipper.paused
                time.sleep(0.002)

        churner = threading.Thread(target=churn, daemon=True)
        wiggler = threading.Thread(target=pause_wiggle, daemon=True)
        try:
            churner.start()
            wiggler.start()
            for i in range(200):
                flips_before, granted_before = snapshot()
                response = gateway.execute(
                    QueryRequest(
                        user="11",
                        sql="select grade from MyGrades",
                        mode="non-truman",
                        tag=f"storm-{i}",
                    )
                )
                flips_after, _ = snapshot()
                # sound staleness witness: the user was revoked for the
                # *entire* request (revoked before it started, and no
                # grant/revoke flip happened until after it finished) —
                # an OK can then only come from stale policy state
                if (
                    response.ok
                    and not granted_before
                    and flips_after == flips_before
                ):
                    stale.append((i, response.replica))
        finally:
            stop.set()
            churner.join(timeout=10)
            wiggler.join(timeout=10)
            for shipper in db.shippers:
                shipper.paused = False
            gateway.shutdown(drain=False)
        assert stale == []

    def test_revoked_user_rejected_while_replicas_stale(self):
        db = cluster_db(replicas=2)
        db.grant("MyGrades", "11")
        db.sync_replicas()
        gateway = EnforcementGateway(db, workers=2)
        try:
            for shipper in db.shippers:
                shipper.paused = True
            db.grants.revoke("MyGrades", "11")
            for i in range(20):
                response = gateway.execute(
                    QueryRequest(
                        user="11",
                        sql="select grade from MyGrades",
                        mode="non-truman",
                    )
                )
                assert response.status is RequestStatus.REJECTED
                assert response.replica is None
        finally:
            for shipper in db.shippers:
                shipper.paused = False
            gateway.shutdown(drain=False)


class TestReplicationFailover:
    def test_commit_faults_trip_breaker_reads_keep_serving(self):
        db = cluster_db(replicas=1)
        db.grant("MyGrades", "11")
        db.sync_replicas()
        gateway = EnforcementGateway(
            db, workers=2, breaker_threshold=2, breaker_cooldown=30.0
        )
        try:
            db.fail_next_commits = 2
            for i in range(2):
                response = gateway.execute(
                    QueryRequest(
                        user=None,
                        sql=f"insert into Grades values ('9{i}', 'CS1', 1.0)",
                        mode="open",
                    )
                )
                assert response.status is RequestStatus.DEGRADED
            assert gateway.breaker.state == "open"
            # degraded read-only mode: writes refused up front...
            refused = gateway.execute(
                QueryRequest(
                    user=None,
                    sql="insert into Grades values ('99', 'CS1', 1.0)",
                    mode="open",
                )
            )
            assert refused.status is RequestStatus.DEGRADED
            # ...reads (including replica-served) keep answering
            read = gateway.execute(
                QueryRequest(
                    user="11", sql="select grade from MyGrades",
                    mode="non-truman",
                )
            )
            assert read.ok
        finally:
            gateway.shutdown(drain=False)

    def test_ship_fault_surfaces_as_durability_error_then_converges(self):
        db = cluster_db(replicas=1, ship_batch=1)
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into Grades values ('77', 'CS9', 4.0)")
        shipper.paused = False
        shipper.fail_next_ships = 1
        with pytest.raises(DurabilityError):
            db.sync_replicas()
        db.sync_replicas()
        replica = db.replicas[0]
        assert replica.applied_lsn == db.log.last_lsn
        primary = db.execute_query(
            "select * from Grades", session=SessionContext(), mode="open"
        )
        shipped = replica.database.execute_query(
            "select * from Grades", session=SessionContext(), mode="open"
        )
        assert primary.rows == shipped.rows

    def test_one_dead_replica_does_not_block_the_other(self):
        db = cluster_db(replicas=2, ship_batch=1)
        dead, live = db.shippers
        dead.paused = True  # silent forever
        db.execute("insert into Grades values ('88', 'CS9', 3.0)")
        assert live.lag() == 0
        assert dead.lag() > 0
        # routing only offers the caught-up replica
        routed = {db.route_read().name for _ in range(10)}
        assert routed == {live.replica.name}

    def test_bounded_staleness_under_write_load(self):
        db = cluster_db(replicas=1, ship_batch=4)
        for i in range(25):
            db.execute(
                f"insert into Grades values ('s{i}', 'CS0', 2.0)"
            )
            # eager batch shipping keeps lag below the batch size
            assert db.replica_lag() < 4 + 1
