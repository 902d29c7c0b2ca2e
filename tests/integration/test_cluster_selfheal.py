"""Self-healing replication: quarantine, catch-up, anti-entropy, restart.

The contract under test:

* a replica that stops responding is **quarantined** and instantly
  removed from read routing — the gateway falls back to the primary
  with a typed :class:`~repro.errors.ReplicaUnavailable`, never a stale
  answer;
* **catch-up streaming** rejoins a killed replica without any manual
  ``sync_replicas``: bootstrap from a snapshot when the log has moved
  on, then stream the WAL tail in bounded chunks with retry/backoff,
  rejoining routing only once lag, epoch, and digests all clear;
* the **anti-entropy** pass detects silent divergence (corrupted rows,
  digest faults) and heals it by automatic re-bootstrap, with the
  ``replica_divergence`` metric returning to 0;
* ``ClusterCoordinator.open`` restores a crashed durable cluster —
  under a matrix of injected crash points — byte-identical to a
  never-crashed oracle, on both execution engines.
"""

import io
import threading
import time

import pytest

from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.cluster.health import (
    CATCHING_UP,
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    content_digests,
)
from repro.db import Database
from repro.durability.faults import InjectedCrash
from repro.errors import ReplicaUnavailable, ReproError
from repro.service import ChaosInjector, EnforcementGateway, QueryRequest
from repro.service.clock import ManualClock


def S(user):
    return SessionContext(user_id=user)


def cluster_db(replicas=1, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("ship_batch", 1)
    db = ClusterCoordinator(replicas=replicas, **kwargs)
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
    db.grant("MyGrades", "11")
    db.sync_replicas()
    return db


def manual_cluster(replicas=1, **kwargs):
    """A cluster whose failure detector runs on a ManualClock."""
    clock = ManualClock()
    kwargs.setdefault("suspect_after", 5.0)
    kwargs.setdefault("quarantine_after", 15.0)
    db = cluster_db(replicas=replicas, clock=clock, **kwargs)
    return db, clock


def run_one(db, sql, user, mode, engine):
    try:
        result = db.execute_query(
            sql, session=S(user), mode=mode, engine=engine
        )
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))
    return ("ok", tuple(result.columns), tuple(sorted(result.rows)))


class TestFailureDetection:
    def test_partitioned_replica_quarantined_and_unrouted(self):
        db, clock = manual_cluster(replicas=1)
        shipper = db.shippers[0]
        assert db.route_read() is db.replicas[0]
        shipper.paused = True  # partition: no liveness evidence
        clock.advance(6.0)
        db.tick()
        assert db.health.state_of("r0") == SUSPECT
        assert db.route_read() is None  # suspects are not routable
        clock.advance(10.0)
        db.tick()
        assert db.health.state_of("r0") == QUARANTINED
        assert db.route_read() is None

    def test_healthy_idle_cluster_never_drifts(self):
        """An un-paused shipper is positive evidence: silence alone
        (no writes for a long time) must not quarantine anything."""
        db, clock = manual_cluster(replicas=2)
        for _ in range(10):
            clock.advance(60.0)
            db.tick()
        assert db.health.state_of("r0") == HEALTHY
        assert db.health.state_of("r1") == HEALTHY

    def test_consecutive_ship_failures_quarantine(self):
        db, _ = manual_cluster(replicas=1, failure_threshold=3)
        shipper = db.shippers[0]
        shipper.fail_next_ships = 3
        for i in range(3):
            # each commit's ship fails; the write itself succeeds
            db.execute(f"insert into Grades values ('9{i}', 'CS1', 1.0)")
        assert db.health.state_of("r0") == QUARANTINED
        assert db.table("Grades") is not None  # primary kept accepting

    def test_quarantined_replica_not_shipped_at_commit(self):
        """Commit-time shipping skips quarantined replicas — the
        catch-up path owns their cursor exclusively."""
        db, _ = manual_cluster(replicas=1)
        shipper = db.shippers[0]
        db.health.quarantine("r0", "test")
        ships_before = shipper.ships
        db.execute("insert into Grades values ('95', 'CS1', 1.0)")
        assert shipper.ships == ships_before
        assert shipper.lag() > 0

    def test_gateway_falls_back_to_primary_on_unavailable(self):
        """Routing picked a replica, the detector quarantined it before
        execution: the read answers from the primary (typed fallback),
        and the fallback is counted."""
        db, _ = manual_cluster(replicas=1)
        replica = db.replicas[0]
        db.route_read = lambda: replica  # pin routing to the replica
        db.health.quarantine("r0", "raced")
        gateway = EnforcementGateway(db, workers=1)
        try:
            response = gateway.execute(
                QueryRequest(
                    user="11", sql="select grade from MyGrades",
                    mode="non-truman",
                )
            )
            assert response.ok
            assert response.replica is None  # served by the primary
            assert sorted(response.result.rows) == [(1.1,)]
            stats = gateway.stats()
            assert stats["replica_fallbacks"] == 1
            assert stats["replica_reads"] == 0
        finally:
            gateway.shutdown(drain=False)

    def test_verify_replica_serving_is_typed(self):
        db, _ = manual_cluster(replicas=1)
        replica = db.replicas[0]
        db.verify_replica_serving(replica)  # healthy: no raise
        db.health.quarantine("r0", "test")
        with pytest.raises(ReplicaUnavailable):
            db.verify_replica_serving(replica)


class TestCatchUpStreaming:
    def test_rejoins_killed_replica_without_sync_replicas(self):
        """The acceptance path: a replica killed mid-ship is streamed
        back through catch_up alone — no manual sync_replicas."""
        db, clock = manual_cluster(replicas=1, catchup_chunk=4)
        shipper = db.shippers[0]
        shipper.paused = True
        for i in range(10):
            db.execute(f"insert into Grades values ('8{i}', 'CS2', 2.0)")
        clock.advance(20.0)
        db.tick()
        assert db.health.state_of("r0") == QUARANTINED
        shipper.paused = False  # the "process" came back
        (report,) = db.catch_up("r0")
        assert report["records_streamed"] == 10
        assert report["chunks"] >= 3  # bounded chunks, not one blast
        assert report["divergences"] == 0
        assert db.health.state_of("r0") == HEALTHY
        assert shipper.lag() == 0
        assert db.route_read() is db.replicas[0]
        assert content_digests(db) == content_digests(
            db.replicas[0].database
        )

    def test_truncated_ship_stream_retries_and_converges(self):
        db, _ = manual_cluster(
            replicas=1, catchup_backoff=0.0001, catchup_backoff_cap=0.001
        )
        shipper = db.shippers[0]
        shipper.paused = True
        for i in range(6):
            db.execute(f"insert into Grades values ('7{i}', 'CS3', 3.0)")
        shipper.paused = False
        shipper.truncate_next_ships = 2  # first two chunks cut in half
        (report,) = db.catch_up("r0")
        assert report["retries"] >= 1
        assert db.health.state_of("r0") == HEALTHY
        assert shipper.lag() == 0
        assert content_digests(db) == content_digests(
            db.replicas[0].database
        )

    def test_retry_exhaustion_requarantines(self):
        db, _ = manual_cluster(
            replicas=1, catchup_retries=2,
            catchup_backoff=0.0001, catchup_backoff_cap=0.001,
        )
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into Grades values ('70', 'CS3', 3.0)")
        shipper.paused = False
        shipper.truncate_next_ships = 10**6  # every attempt truncates
        with pytest.raises(ReplicaUnavailable):
            db.catch_up("r0")
        shipper.truncate_next_ships = 0
        assert db.health.state_of("r0") == QUARANTINED
        assert db.route_read() is None
        # the replica heals once the fault clears
        (report,) = db.catch_up("r0")
        assert db.health.state_of("r0") == HEALTHY
        assert report["retries"] == 0

    def test_paused_replica_catch_up_aborts(self):
        db, _ = manual_cluster(replicas=1)
        shipper = db.shippers[0]
        shipper.paused = True
        with pytest.raises(ReplicaUnavailable):
            db.catch_up("r0")
        assert db.health.state_of("r0") == QUARANTINED

    def test_new_replica_bootstraps_over_truncated_history(self, tmp_path):
        """After a checkpoint truncated the replication log, a new
        replica cannot stream from LSN 0 — it must snapshot-bootstrap,
        then serve the exact same rows."""
        db = cluster_db(replicas=0, shards=2, data_dir=str(tmp_path))
        db.checkpoint()
        assert db.log.base_lsn > 0
        replica = db.add_replica("late")
        assert replica.bootstraps == 1
        assert db.health.state_of("late") == HEALTHY
        assert content_digests(db) == content_digests(replica.database)
        result = replica.database.execute_query(
            "select grade from MyGrades", session=S("11"), mode="non-truman"
        )
        assert result.rows == [(1.1,)]
        db.close()

    def test_auto_catchup_heals_on_tick(self):
        db, clock = manual_cluster(replicas=1, auto_catchup=True)
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into Grades values ('60', 'CS0', 2.5)")
        clock.advance(20.0)
        db.tick()
        assert db.health.state_of("r0") == QUARANTINED
        shipper.paused = False
        clock.advance(1.0)
        db.tick()  # the detector pass itself triggers catch-up
        assert db.health.state_of("r0") == HEALTHY
        assert shipper.lag() == 0


class TestAntiEntropy:
    def test_clean_pass(self):
        db, _ = manual_cluster(replicas=2)
        assert db.run_anti_entropy() == {"r0": "clean", "r1": "clean"}
        assert db.cluster_health()["replica_divergence"] == 0

    def test_corrupted_replica_detected_and_healed(self):
        db, _ = manual_cluster(replicas=2)
        replica = db.replicas[0]
        # silent corruption: flip a row on the replica behind the WAL's back
        rid, row = next(iter(replica.database.table("Grades").rows_with_ids()))
        replica.database.table("Grades").update_row(rid, (row[0], row[1], 99.9))
        outcomes = db.run_anti_entropy()
        assert outcomes == {"r0": "rebootstrapped", "r1": "clean"}
        health = db.cluster_health()
        assert health["replica_divergence"] == 0  # resolved by re-bootstrap
        r0 = next(r for r in health["replicas"] if r["name"] == "r0")
        assert r0["divergences"] == 1  # but the event is on the record
        assert r0["state"] == HEALTHY
        assert content_digests(db) == content_digests(replica.database)

    def test_lost_revoke_on_replica_detected(self):
        """A replica that silently resurrects a revoked grant can never
        digest clean — the policy digest covers the grant registry."""
        db, _ = manual_cluster(replicas=1)
        db.grants.revoke("MyGrades", "11")
        db.sync_replicas()
        replica = db.replicas[0]
        replica.database.grants.grant("MyGrades", "11", grantor=None)
        outcomes = db.run_anti_entropy()
        assert outcomes == {"r0": "rebootstrapped"}
        with pytest.raises(ReproError):
            replica.database.execute_query(
                "select grade from MyGrades", session=S("11"),
                mode="non-truman",
            )

    def test_digest_fault_reads_as_divergence(self):
        """Corruption of the digest channel itself must fail safe: the
        replica re-bootstraps rather than trusting an unverifiable state."""
        chaos = ChaosInjector(seed=5)
        db, _ = manual_cluster(replicas=1, chaos=chaos)
        chaos.inject("cluster.digest", "io-error", times=1)
        outcomes = db.run_anti_entropy()
        assert outcomes == {"r0": "rebootstrapped"}
        assert db.health.state_of("r0") == HEALTHY
        assert db.cluster_health()["replica_divergence"] == 0

    def test_rejoin_verifies_digests(self):
        """Catch-up's rejoin gate runs the same digest comparison: a
        replica corrupted while quarantined re-bootstraps on rejoin."""
        db, clock = manual_cluster(replicas=1)
        shipper = db.shippers[0]
        shipper.paused = True
        db.execute("insert into Grades values ('50', 'CS1', 1.5)")
        clock.advance(20.0)
        db.tick()
        replica = db.replicas[0]
        rid, row = next(iter(replica.database.table("Grades").rows_with_ids()))
        replica.database.table("Grades").update_row(rid, (row[0], row[1], 0.0))
        shipper.paused = False
        (report,) = db.catch_up("r0")
        assert report["divergences"] == 1
        assert report["bootstrapped"] is True
        assert db.health.state_of("r0") == HEALTHY
        assert content_digests(db) == content_digests(replica.database)


class TestFlappingStorm:
    def test_seeded_flapping_storm_holds_all_invariants(self):
        """Replicas cycling HEALTHY → SUSPECT/QUARANTINED → CATCHING_UP
        → HEALTHY under grant/revoke churn, pause flaps, and truncated
        ship streams: 0 stale-policy answers, 0 unauthorized rows,
        0 hangs, 0 unresolved divergences."""
        db = cluster_db(
            replicas=2,
            suspect_after=0.01,
            quarantine_after=0.03,
            health_tick_interval=0.001,
            failure_threshold=2,
            catchup_backoff=0.0005,
            catchup_backoff_cap=0.005,
            catchup_seed=42,
        )
        gateway = EnforcementGateway(db, workers=4)
        state_lock = threading.Lock()
        state = [0, True]  # (flip counter, currently granted)
        stale, unauthorized = [], []
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

        def flap():
            # partitions long enough to quarantine, plus stream faults
            n = 0
            while not stop.is_set():
                shipper = db.shippers[n % 2]
                shipper.paused = True
                time.sleep(0.001 + (n % 5) * 0.012)
                shipper.paused = False
                if n % 3 == 0:
                    shipper.truncate_next_ships = 1
                n += 1

        def heal():
            while not stop.is_set():
                try:
                    db.catch_up()
                except ReplicaUnavailable:
                    pass  # still partitioned; a later pass retries
                time.sleep(0.002)

        threads = [
            threading.Thread(target=fn, daemon=True)
            for fn in (churn, flap, heal)
        ]

        def quarantines_seen():
            return sum(
                h["quarantines"] + h["suspects"]
                for h in db.health.snapshot().values()
            )

        try:
            for thread in threads:
                thread.start()
            deadline = time.time() + 8.0
            i = 0
            while i < 150 or (
                time.time() < deadline and quarantines_seen() == 0
            ):
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
                if response.ok:
                    # authorization leak: '11' may only ever see 1.1
                    if any(row != (1.1,) for row in response.result.rows):
                        unauthorized.append((i, response.result.rows))
                    # sound staleness witness: revoked for the entire
                    # request, yet the answer came back OK
                    if not granted_before and flips_after == flips_before:
                        stale.append((i, response.replica))
                i += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            hung = [t for t in threads if t.is_alive()]
            for shipper in db.shippers:
                shipper.paused = False
                shipper.truncate_next_ships = 0
            gateway.shutdown(drain=False)
        assert stale == []
        assert unauthorized == []
        assert hung == []  # 0 hangs
        assert quarantines_seen() > 0  # the storm actually flapped
        # convergence: every replica heals and digests clean
        db.catch_up()
        assert db.run_anti_entropy() == {"r0": "clean", "r1": "clean"}
        health = db.cluster_health()
        assert health["replica_divergence"] == 0
        for rep in health["replicas"]:
            assert rep["state"] == HEALTHY and rep["lag"] == 0
        for replica in db.replicas:
            assert content_digests(db) == content_digests(replica.database)


# -- cluster-wide crash recovery ---------------------------------------------

SEED_OPS = [
    lambda db: db.execute(
        "create table Grades (student_id varchar(10), course varchar(10), "
        "grade float)"
    ),
    lambda db: db.execute("insert into Grades values ('11', 'CS101', 3.5)"),
    lambda db: db.execute("insert into Grades values ('12', 'CS101', 2.0)"),
    lambda db: db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    ),
    lambda db: db.grant("MyGrades", "11"),
    lambda db: db.grant("MyGrades", "12"),
]

TAIL_OPS = [
    lambda db: db.execute("insert into Grades values ('13', 'CS102', 3.0)"),
    lambda db: db.grants.revoke("MyGrades", "12"),
    lambda db: db.execute("insert into Grades values ('14', 'CS102', 1.5)"),
]

DIFF_QUERIES = [
    ("select * from Grades", None, "open"),
    ("select count(*), min(grade), max(grade) from Grades", None, "open"),
    ("select grade from MyGrades", "11", "non-truman"),
    ("select grade from MyGrades", "12", "non-truman"),  # revoked
    ("select course, grade from Grades where grade > 2.0", None, "open"),
]


def oracle_cluster():
    """The never-crashed reference: same ops, no durability, no faults."""
    db = ClusterCoordinator(shards=2, replicas=1, ship_batch=1)
    for op in SEED_OPS + TAIL_OPS:
        op(db)
    db.sync_replicas()
    return db


def assert_identical(oracle, recovered):
    assert recovered.policy_epoch == oracle.policy_epoch
    assert content_digests(recovered) == content_digests(oracle)
    mismatches = []
    for engine in ("row", "vectorized"):
        for sql, user, mode in DIFF_QUERIES:
            expected = run_one(oracle, sql, user, mode, engine)
            actual = run_one(recovered, sql, user, mode, engine)
            if expected != actual:
                mismatches.append(("primary", engine, sql, expected, actual))
            for replica in recovered.replicas:
                on_replica = run_one(
                    replica.database, sql, user, mode, engine
                )
                if expected != on_replica:
                    mismatches.append(
                        (replica.name, engine, sql, expected, on_replica)
                    )
    assert mismatches == []


class TestClusterRestart:
    def test_clean_restart_resurrects_replicas(self, tmp_path):
        db = ClusterCoordinator(
            shards=2, replicas=1, ship_batch=1, data_dir=str(tmp_path)
        )
        for op in SEED_OPS + TAIL_OPS:
            op(db)
        db.sync_replicas()
        db.close()
        reopened = ClusterCoordinator.open(str(tmp_path), shards=2, replicas=1)
        assert reopened.recovery_report is not None
        assert_identical(oracle_cluster(), reopened)
        health = reopened.cluster_health()
        assert all(r["state"] == HEALTHY for r in health["replicas"])
        assert all(r["lag"] == 0 for r in health["replicas"])
        assert all(r["bootstraps"] == 1 for r in health["replicas"])
        reopened.close()

    @pytest.mark.parametrize(
        "point",
        [
            "wal.torn_append",
            "checkpoint.mid_snapshot",
            "cluster.catchup",
            "cluster.ship_stream",
            "cluster.bootstrap",
        ],
    )
    def test_crash_matrix_differential(self, tmp_path, point):
        """Kill the cluster at each fire point (append, checkpoint,
        catch-up start, mid-stream, mid-bootstrap); reopen; the
        recovered cluster must be byte-identical to the oracle."""
        chaos = ChaosInjector(seed=3)
        db = ClusterCoordinator(
            shards=2, replicas=1, ship_batch=1,
            data_dir=str(tmp_path), chaos=chaos,
        )
        for op in SEED_OPS:
            op(db)
        db.sync_replicas()
        shipper = db.shippers[0]
        if point == "wal.torn_append":
            for op in TAIL_OPS[:-1]:
                op(db)
            chaos.arm(point)
            with pytest.raises(InjectedCrash):
                TAIL_OPS[-1](db)
            # the torn record was not durably committed: re-run it on
            # the oracle side by reopening *then* applying the lost op
        elif point == "checkpoint.mid_snapshot":
            for op in TAIL_OPS:
                op(db)
            chaos.arm(point)
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        else:
            # crash somewhere inside catch-up streaming of the tail
            shipper.paused = True
            for op in TAIL_OPS:
                op(db)
            shipper.paused = False
            chaos.arm(point)
            with pytest.raises(InjectedCrash):
                if point == "cluster.bootstrap":
                    db.catch_up("r0", force_bootstrap=True)
                else:
                    db.catch_up("r0")
        # simulated process death: the object is abandoned un-closed
        reopened = ClusterCoordinator.open(str(tmp_path), shards=2, replicas=1)
        assert reopened.recovery_report is not None
        if point == "wal.torn_append":
            assert reopened.recovery_report["torn_truncated"] is True
            TAIL_OPS[-1](reopened)  # the op the crash swallowed
            reopened.sync_replicas()
        assert_identical(oracle_cluster(), reopened)
        reopened.close()

    def test_double_crash_then_recover(self, tmp_path):
        """Crash during recovery-era catch-up, then crash at the next
        checkpoint, then finally recover clean."""
        chaos = ChaosInjector(seed=9)
        db = ClusterCoordinator(
            shards=2, replicas=1, ship_batch=1,
            data_dir=str(tmp_path), chaos=chaos,
        )
        for op in SEED_OPS + TAIL_OPS:
            op(db)
        chaos.arm("checkpoint.mid_snapshot")
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        second = ClusterCoordinator.open(
            str(tmp_path), shards=2, replicas=1, chaos=chaos
        )
        chaos.arm("cluster.catchup")
        with pytest.raises(InjectedCrash):
            second.catch_up("r0", force_bootstrap=True)
        final = ClusterCoordinator.open(str(tmp_path), shards=2, replicas=1)
        assert_identical(oracle_cluster(), final)
        final.close()


class TestWireHealth:
    @pytest.fixture
    def service(self):
        from repro.net import NetworkService

        db = cluster_db(replicas=2, shards=2)
        gateway = EnforcementGateway(db, workers=2, name="selfheal-net")
        network = NetworkService(gateway)
        host, port = network.start()
        yield db, gateway, host, port
        network.stop()
        gateway.shutdown(drain=False)

    def test_welcome_topology_and_health_frame(self, service):
        from repro.net import ReproClient

        db, _, host, port = service
        with ReproClient(host, port, user="11") as client:
            topology = client.server_info.get("topology")
            assert topology is not None and len(topology) == 2
            assert {t["name"] for t in topology} == {"r0", "r1"}
            assert all(t["quarantined"] is False for t in topology)
            health = client.health()
            assert health["shards"] == 2
            assert health["replica_divergence"] == 0
            assert {r["name"] for r in health["replicas"]} == {"r0", "r1"}

    def test_quarantine_visible_over_the_wire(self, service):
        from repro.net import ReproClient

        db, _, host, port = service
        db.health.quarantine("r0", "wire test")
        with ReproClient(host, port, user="11") as client:
            flagged = {
                t["name"]: t["quarantined"]
                for t in client.server_info["topology"]
            }
            assert flagged == {"r0": True, "r1": False}
            health = client.health()
            states = {r["name"]: r["state"] for r in health["replicas"]}
            assert states["r0"] == QUARANTINED
            assert states["r1"] == HEALTHY

    def test_health_none_on_single_node_server(self):
        from repro.net import NetworkService, ReproClient

        db = Database()
        db.execute("create table T (a int primary key)")
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway)
        host, port = network.start()
        try:
            with ReproClient(host, port) as client:
                assert "topology" not in client.server_info
                assert client.health() is None
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_async_client_health(self, service):
        import asyncio

        from repro.net import AsyncReproClient

        _, _, host, port = service

        async def check():
            client = await AsyncReproClient.connect(host, port, user="11")
            try:
                health = await client.health()
                assert health["shards"] == 2
            finally:
                await client.close()

        asyncio.run(check())

    def test_remote_shell_replicas_command(self, service):
        from repro.cli import RemoteShell
        from repro.net import ReproClient

        db, _, host, port = service
        db.health.quarantine("r1", "shell test")
        client = ReproClient(host, port, user="11")
        out = io.StringIO()
        shell = RemoteShell(client, out=out)
        try:
            shell._meta("\\replicas")
        finally:
            client.close()
        text = out.getvalue()
        assert "policy epoch" in text
        assert "r0: state=healthy" in text
        assert "r1: state=quarantined" in text
        assert "QUARANTINED" in text


class TestLocalShellReplicas:
    def test_replicas_meta_command(self):
        from repro.cli import Shell

        db = cluster_db(replicas=1, shards=2)
        out = io.StringIO()
        shell = Shell(db, out=out)
        try:
            shell._meta("\\replicas")
        finally:
            shell.close()
        text = out.getvalue()
        assert "r0: state=healthy" in text
        assert "unresolved divergences 0" in text

    def test_replicas_on_single_node(self):
        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(Database(), out=out)
        try:
            shell._meta("\\replicas")
        finally:
            shell.close()
        assert "not a sharded cluster" in out.getvalue()

    def test_stats_includes_replica_health(self):
        from repro.cli import Shell

        db = cluster_db(replicas=1, shards=2)
        out = io.StringIO()
        shell = Shell(db, out=out)
        try:
            shell._meta("\\stats")
        finally:
            shell.close()
        text = out.getvalue()
        assert "replica_divergence" in text
        assert "replica_r0_state" in text
