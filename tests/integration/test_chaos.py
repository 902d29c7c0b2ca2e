"""Serving-layer chaos harness (robustness tentpole).

Randomized fault-injection sweeps over the enforcement gateway assert
the end-to-end resilience contract:

* every admitted request ends in **exactly one** terminal state —
  a correct full answer or a clean typed error — never a hang, a
  partial result, or an unauthorized row;
* every request (including overload rejections and worker crashes) is
  audited **exactly once**;
* cooperative cancellation interrupts work *mid-inference* (the
  Non-Truman matcher's enumeration loops) and *mid-scan* (both
  engines), not just between phases;
* WAL commit faults trip the circuit breaker into degraded read-only
  mode — reads keep serving, writes get a typed error — and the
  half-open probe recovers automatically.
"""

import asyncio
import collections
import io
import threading
import time

import pytest

from repro.cli import Shell
from repro.db import Database
from repro.errors import (
    PendingTimeout,
    QueryRejectedError,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
)
from repro.service import (
    ChaosInjector,
    EnforcementGateway,
    QueryRequest,
    RequestStatus,
)

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA, build_big_join_db

TERMINAL = {
    RequestStatus.OK,
    RequestStatus.REJECTED,
    RequestStatus.TIMEOUT,
    RequestStatus.ERROR,
    RequestStatus.CANCELLED,
    RequestStatus.DEGRADED,
}

#: generous reap bound — any individual request exceeding this counts
#: as a hang and fails the sweep
REAP_TIMEOUT_S = 60.0


def install_university(db: Database) -> None:
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.execute(
        "create authorization view MyRegistrations as "
        "select * from Registered where student_id = $user_id"
    )
    db.grant_public("MyGrades")
    db.grant_public("MyRegistrations")


def assert_reconciled(gateway: EnforcementGateway) -> None:
    """The gateway's counters and its audit log agree exactly."""
    records = gateway.audit.tail(gateway.audit.total_recorded)
    assert len(records) == gateway.audit.total_recorded, "audit ring wrapped"
    metrics = gateway.metrics
    audited = collections.Counter(record.status for record in records)
    statuses = {status.value for status in TERMINAL} | {"overloaded"}
    assert set(audited) <= statuses, audited
    for status in statuses:
        assert metrics.get(f"requests_{status}") == audited[status], status
    completed = metrics.get("requests_completed")
    assert completed + metrics.get("requests_overloaded") == len(records)
    assert gateway.stats().get("latency_ms_count", 0) == completed
    assert metrics.get("decision_cache_hits") == sum(
        record.cache_hit for record in records
    )


def serial_outcome(db: Database, request: QueryRequest):
    """(status, row multiset) of running one request with no service."""
    session = db.connect(user_id=request.user, mode=request.mode).session
    try:
        result = db.execute_query(request.sql, session=session, mode=request.mode)
    except QueryRejectedError:
        return ("rejected", None)
    except ReproError:
        return ("error", None)
    return ("ok", result.as_multiset())


class TestChaosSweep:
    """The randomized sweep of the acceptance criteria: 200+ requests,
    faults at every serving-path point, full-invariant checking."""

    SEED = 20260806

    # read templates (mode, sql builder) — oracle answers are stable
    # because the sweep's writes only touch the separate Ledger table
    READ_TEMPLATES = [
        ("non-truman", lambda u: f"select grade from Grades where student_id = '{u}'"),
        ("non-truman", lambda u: "select * from MyGrades"),
        ("non-truman", lambda u: "select * from Grades"),  # rejected
        ("non-truman", lambda u: f"select course_id from Registered where student_id = '{u}'"),
        ("open", lambda u: "select count(*) from Courses"),
        ("open", lambda u: "select s.name, g.grade from Students s, Grades g "
                           "where s.student_id = g.student_id"),
        ("truman", lambda u: "select * from Grades"),
        ("open", lambda u: "selekt broken syntax"),  # parse error
    ]

    def build(self, tmp_path):
        chaos = ChaosInjector(seed=self.SEED)
        db = Database.open(str(tmp_path / "chaos-data"), injector=chaos)
        install_university(db)
        db.execute("create table Ledger(id int primary key, v int)")
        # Truman mode needs a policy for Grades
        db.truman_policy["grades"] = "MyGrades"
        return db, chaos

    def make_requests(self, rng, count):
        import random

        assert isinstance(rng, random.Random)
        users = ("11", "12", "13", "14")
        requests = []
        for i in range(count):
            tag = f"sweep-{i}"
            if rng.random() < 0.2:  # write to the isolated Ledger table
                requests.append(
                    QueryRequest(
                        user=None, mode="open", tag=tag,
                        sql=f"insert into Ledger values ({i}, {i})",
                    )
                )
                continue
            mode, build = self.READ_TEMPLATES[
                rng.randrange(len(self.READ_TEMPLATES))
            ]
            user = users[rng.randrange(len(users))]
            deadline = None
            row_budget = None
            roll = rng.random()
            if roll < 0.10:
                deadline = 0.001  # deadline storm: expires while queued
            elif roll < 0.15:
                row_budget = 3  # budget storm
            requests.append(
                QueryRequest(
                    user=user, mode=mode, sql=build(user), tag=tag,
                    deadline=deadline, row_budget=row_budget,
                )
            )
        return requests

    def test_randomized_sweep_no_hangs_no_partials_all_audited(self, tmp_path):
        import random

        db, chaos = self.build(tmp_path)
        rng = random.Random(self.SEED)
        requests = self.make_requests(rng, 220)

        # oracle outcomes for the reads, before any chaos is armed
        oracle = {}
        for request in requests:
            if request.sql.lstrip().lower().startswith("insert"):
                continue
            oracle[request.tag] = serial_outcome(db, request)

        gateway = EnforcementGateway(
            db,
            workers=4,
            queue_size=256,
            audit_capacity=4096,
            default_deadline=REAP_TIMEOUT_S / 2,
            retry_attempts=2,
            retry_backoff=0.001,
            breaker_threshold=3,
            breaker_cooldown=0.05,
            chaos=chaos,
            retry_seed=self.SEED,
        )
        # six serving-path fault points (plus the deadline/budget storms
        # and client-driven cancellation below)
        chaos.inject("gateway.dequeue", "delay", probability=0.2, delay_s=0.002)
        chaos.inject("gateway.before_check", "transient", probability=0.15)
        chaos.inject("gateway.before_execute", "worker-crash", probability=0.05)
        chaos.inject("gateway.before_commit", "io-error", probability=0.25)
        chaos.inject("wal.before_fsync", "io-error", probability=0.15)
        chaos.inject("wal.before_append", "delay", probability=0.1, delay_s=0.001)

        submitted = []
        overloaded = 0
        cancellers = []
        try:
            for request in requests:
                try:
                    pending = gateway.submit(request)
                except ServiceOverloaded:
                    overloaded += 1
                    continue
                submitted.append((request, pending))
                if rng.random() < 0.08:  # client-driven cancellation
                    canceller = threading.Timer(
                        rng.random() * 0.01, pending.cancel
                    )
                    canceller.daemon = True
                    canceller.start()
                    cancellers.append(canceller)

            responses = []
            for request, pending in submitted:
                try:
                    response = pending.result(timeout=REAP_TIMEOUT_S)
                except PendingTimeout:
                    pytest.fail(f"request {request.tag} hung: {request.sql}")
                responses.append((request, response))
        finally:
            for canceller in cancellers:
                canceller.cancel()
            gateway.shutdown(drain=False)

        assert len(responses) == len(submitted)
        assert chaos.stats(), "the sweep injected no faults at all"
        assert len(chaos.stats()) >= 4, chaos.stats()

        # -- invariant 1: exactly one clean terminal state each ----------
        for request, response in responses:
            assert response.status in TERMINAL, (request.tag, response.status)
            if response.status is not RequestStatus.OK:
                assert response.error, (request.tag, response.status)

        # -- invariant 2: answers are full and authorized ----------------
        for request, response in responses:
            if request.tag not in oracle:
                continue
            status, rows = oracle[request.tag]
            if response.status is RequestStatus.OK:
                assert status == "ok", (
                    f"{request.tag}: oracle says {status} but gateway "
                    f"answered OK — unauthorized or spurious answer"
                )
                assert response.result.as_multiset() == rows, (
                    f"{request.tag}: partial or wrong result"
                )
            elif response.status is RequestStatus.REJECTED:
                assert status == "rejected", request.tag

        # -- invariant 3: no partial DML state ---------------------------
        ledger = {row[0] for row in db.table("Ledger").rows()}
        for request, response in responses:
            if not request.sql.lstrip().lower().startswith("insert"):
                continue
            key = int(request.sql.split("(")[1].split(",")[0])
            if response.status is RequestStatus.OK:
                assert key in ledger, f"{request.tag}: lost acknowledged write"
            elif response.status is RequestStatus.DEGRADED:
                if "writes are refused" in (response.error or ""):
                    # refused up front by the open breaker: no state at all
                    assert key not in ledger, (
                        f"{request.tag}: refused write left partial state"
                    )
                else:
                    # commit fault: applied in memory, flagged as volatile
                    assert "durable commit failed" in response.error
                    assert key in ledger, request.tag

        # -- invariant 4: every request audited exactly once -------------
        seen = {}
        for record in gateway.audit.tail(4096):
            if record.tag and record.tag.startswith("sweep-"):
                seen[record.tag] = seen.get(record.tag, 0) + 1
        expected_tags = {r.tag for r, _ in responses} | {
            r.tag
            for r in requests
            if r.tag not in {req.tag for req, _ in responses}
        }
        assert set(seen) == expected_tags
        assert all(count == 1 for count in seen.values()), {
            tag: count for tag, count in seen.items() if count != 1
        }
        assert len(seen) == len(requests)
        assert (
            gateway.metrics.get("requests_overloaded") == overloaded
        )
        assert_reconciled(gateway)

    def test_sweep_is_reproducible(self):
        import random

        first = self.make_requests(random.Random(self.SEED), 50)
        second = self.make_requests(random.Random(self.SEED), 50)
        assert [(r.sql, r.deadline, r.row_budget) for r in first] == [
            (r.sql, r.deadline, r.row_budget) for r in second
        ]


@pytest.fixture
def big_join_db():
    """In-memory db with a join large enough to take seconds."""
    return build_big_join_db()


BIG_JOIN_SQL = "select count(*) from L, R where L.a < R.b"  # 9.8M pairs


class TestMidScanCancellation:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_deadline_kills_query_mid_scan(self, big_join_db, engine):
        gateway = EnforcementGateway(big_join_db, workers=2)
        try:
            start = time.perf_counter()
            response = gateway.execute(
                QueryRequest(
                    user=None, mode="open", sql=BIG_JOIN_SQL,
                    engine=engine, deadline=0.15,
                )
            )
            elapsed = time.perf_counter() - start
            assert response.status is RequestStatus.TIMEOUT
            assert "deadline" in response.error
            assert response.result is None
            # killed cooperatively mid-join, far before completion
            assert elapsed < 5.0
            # worker is immediately reusable
            ok = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="select count(*) from L", engine=engine)
            )
            assert ok.ok and ok.rows == [(700,)]
        finally:
            gateway.shutdown(drain=False)

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_client_cancel_interrupts_inflight_scan(self, big_join_db, engine):
        gateway = EnforcementGateway(big_join_db, workers=2)
        try:
            pending = gateway.submit(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL,
                             engine=engine)
            )
            deadline = time.time() + 10
            while gateway.metrics.get("workers_busy") < 1:
                assert time.time() < deadline, "worker never picked it up"
                time.sleep(0.001)
            time.sleep(0.05)  # let it get deep into the join
            assert pending.cancel()
            response = pending.result(timeout=REAP_TIMEOUT_S)
            assert response.status is RequestStatus.CANCELLED
            assert response.result is None
            assert (
                gateway.metrics.get("requests_cancelled_inflight")
                >= 1
            )
        finally:
            gateway.shutdown(drain=False)

    def test_row_budget_kills_scan(self, big_join_db):
        gateway = EnforcementGateway(big_join_db, workers=1)
        try:
            response = gateway.execute(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL,
                             row_budget=10_000)
            )
            assert response.status is RequestStatus.ERROR
            assert "row budget" in response.error
            assert (
                gateway.metrics.get("requests_budget_exceeded") == 1
            )
        finally:
            gateway.shutdown(drain=False)

    def test_memory_budget_kills_materialization(self, big_join_db):
        gateway = EnforcementGateway(big_join_db, workers=1)
        try:
            response = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="select * from L, R",  # 9.8M wide rows
                             memory_budget=64 * 1024)
            )
            assert response.status is RequestStatus.ERROR
            assert "memory budget" in response.error
        finally:
            gateway.shutdown(drain=False)


def build_pathological_db() -> Database:
    """Granted views that self-join Grades six ways: the Non-Truman
    matcher's application enumeration is a cartesian product over
    (query instances + 1) per view table, so an eight-instance query
    explodes combinatorially.  With the node budget effectively
    disabled, only the cooperative deadline can stop the inference."""
    db = Database()
    db.execute(
        "create table Grades(student_id varchar(10), course_id varchar(10), "
        "grade float, primary key (student_id, course_id))"
    )
    db.execute("insert into Grades values ('11','CS101',3.5)")
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.grant_public("MyGrades")
    for i in range(4):
        tables = ", ".join(f"Grades g{j}" for j in range(1, 7))
        joins = " and ".join(
            f"g{j}.student_id = g{j + 1}.student_id" for j in range(1, 6)
        )
        db.execute(
            f"create authorization view Deep{i} as "
            f"select g1.student_id, g1.course_id, g1.grade from {tables} "
            f"where {joins} and g1.grade >= {i}"
        )
        db.grant_public(f"Deep{i}")
    db.checker_options = {"max_cover_nodes": 10**9}
    return db


PATHOLOGICAL_SQL = (
    "select q1.grade from "
    + ", ".join(f"Grades q{j}" for j in range(1, 9))
    + " where "
    + " and ".join(f"q{j}.student_id = q{j + 1}.student_id" for j in range(1, 8))
)


class TestPathologicalInference:
    def test_deadline_kills_validity_check_mid_inference(self):
        db = build_pathological_db()
        gateway = EnforcementGateway(db, workers=2)
        try:
            start = time.perf_counter()
            response = gateway.execute(
                QueryRequest(user="11", sql=PATHOLOGICAL_SQL, deadline=0.4)
            )
            elapsed = time.perf_counter() - start
            assert response.status is RequestStatus.TIMEOUT
            assert "deadline" in response.error
            assert elapsed < 10.0  # killed mid-inference, not at the end
            # the aborted check cached nothing: hits stay at zero
            assert gateway.cache.hits == 0
        finally:
            gateway.shutdown(drain=False)

    def test_other_sessions_keep_serving_during_pathological_check(self):
        db = build_pathological_db()
        gateway = EnforcementGateway(db, workers=3)
        try:
            poison = gateway.submit(
                QueryRequest(user="11", sql=PATHOLOGICAL_SQL, deadline=1.5)
            )
            deadline = time.time() + 10
            while gateway.metrics.get("workers_busy") < 1:
                assert time.time() < deadline
                time.sleep(0.001)
            # healthy traffic on the remaining workers while the poison
            # query burns its deadline on another
            served = 0
            while not poison.done():
                response = gateway.execute(
                    QueryRequest(user="11", sql="select * from MyGrades",
                                 deadline=5.0)
                )
                assert response.ok, response.error
                served += 1
            assert served >= 3, "healthy sessions starved by poison query"
            assert poison.result(timeout=1).status is RequestStatus.TIMEOUT
        finally:
            gateway.shutdown(drain=False)

    def test_wire_explain_dies_at_gateway_deadline(self):
        """``explain`` takes its decision in the gateway: the check that
        kills a query at its deadline kills an explain at the gateway's
        default deadline, answered as a ``timeout`` error."""
        from repro.net import AsyncReproClient, NetworkService

        gateway = EnforcementGateway(
            build_pathological_db(), workers=1, default_deadline=0.4
        )
        network = NetworkService(gateway)
        host, port = network.start()

        async def scenario():
            client = await AsyncReproClient.connect(host, port, user="11")
            try:
                with pytest.raises(QueryTimeout, match="deadline"):
                    await asyncio.wait_for(
                        client.explain(PATHOLOGICAL_SQL), timeout=10.0
                    )
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            network.stop()
            gateway.shutdown(drain=False)


    def test_shell_check_dies_at_gateway_deadline(self):
        """The shell's ``\\check`` takes its decision in the gateway too:
        the pathological check stops at the shell's query deadline."""
        out = io.StringIO()
        shell = Shell(build_pathological_db(), out=out, query_timeout=0.4)
        script = io.StringIO(f"\\user 11\n\\check {PATHOLOGICAL_SQL}\n")
        runner = threading.Thread(target=shell.run, args=(script,), daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        try:
            assert not runner.is_alive(), "\\check ran past its deadline"
            assert "error: deadline" in out.getvalue()
        finally:
            shell.close()


class TestBreakerDegradedMode:
    def build(self, tmp_path):
        chaos = ChaosInjector(seed=3)
        db = Database.open(str(tmp_path / "breaker-data"), injector=chaos)
        db.execute("create table Ledger(id int primary key, v int)")
        gateway = EnforcementGateway(
            db, workers=2, breaker_threshold=2, breaker_cooldown=0.05,
            chaos=chaos,
        )
        return db, chaos, gateway

    def test_wal_faults_trip_breaker_reads_keep_serving(self, tmp_path):
        db, chaos, gateway = self.build(tmp_path)
        try:
            assert gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (1, 1)")
            ).ok
            chaos.inject("gateway.before_commit", "io-error", probability=1.0)

            first = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (2, 2)")
            )
            assert first.status is RequestStatus.DEGRADED
            assert "durable commit failed" in first.error
            second = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (3, 3)")
            )
            assert second.status is RequestStatus.DEGRADED
            assert gateway.breaker.state == "open"
            assert gateway.degraded

            # writes now refused up front: no partial state
            refused = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (4, 4)")
            )
            assert refused.status is RequestStatus.DEGRADED
            assert "read-only" in refused.error
            assert 4 not in {row[0] for row in db.table("Ledger").rows()}

            # reads keep serving while degraded
            read = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="select count(*) from Ledger")
            )
            assert read.ok

            stats = gateway.stats()
            assert stats["breaker_state"] == "open"
            assert stats["breaker_trips"] == 1
            assert gateway.metrics.get("requests_degraded") >= 3
        finally:
            gateway.shutdown(drain=False)

    def test_half_open_probe_recovers(self, tmp_path):
        db, chaos, gateway = self.build(tmp_path)
        try:
            chaos.inject("gateway.before_commit", "io-error", probability=1.0)
            for key in (1, 2):
                gateway.execute(
                    QueryRequest(user=None, mode="open",
                                 sql=f"insert into Ledger values ({key}, 0)")
                )
            assert gateway.breaker.state == "open"

            chaos.clear("gateway.before_commit")  # the disk heals
            time.sleep(0.06)  # past the cooldown: next write is the probe

            probe = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (10, 10)")
            )
            assert probe.ok
            assert gateway.breaker.state == "closed"
            assert not gateway.degraded
            stats = gateway.stats()
            assert stats["breaker_recoveries"] == 1
            # the breaker counted the full closed→open→half-open→closed arc
            assert stats["breaker_state"] == "closed"
            assert stats["breaker_transitions"] >= 3

            follow_up = gateway.execute(
                QueryRequest(user=None, mode="open",
                             sql="insert into Ledger values (11, 11)")
            )
            assert follow_up.ok
        finally:
            gateway.shutdown(drain=False)


class TestRetries:
    def test_transient_fault_retried_to_success(self):
        db = Database()
        install_university(db)
        chaos = ChaosInjector(seed=5)
        gateway = EnforcementGateway(
            db, workers=1, retry_attempts=2, retry_backoff=0.001, chaos=chaos,
        )
        try:
            chaos.inject("gateway.before_check", "transient", times=1)
            response = gateway.execute(
                QueryRequest(user="11", sql="select * from MyGrades")
            )
            assert response.ok, response.error
            assert response.retries == 1
            assert gateway.metrics.get("requests_retried") == 1
            assert gateway.metrics.get("retries_total") >= 1
        finally:
            gateway.shutdown(drain=False)

    def test_persistent_transient_fault_becomes_typed_error(self):
        db = Database()
        install_university(db)
        chaos = ChaosInjector(seed=5)
        gateway = EnforcementGateway(
            db, workers=1, retry_attempts=2, retry_backoff=0.001, chaos=chaos,
        )
        try:
            chaos.inject("gateway.before_check", "transient", probability=1.0)
            response = gateway.execute(
                QueryRequest(user="11", sql="select * from MyGrades")
            )
            assert response.status is RequestStatus.ERROR
            assert "transient fault persisted" in response.error
            assert response.retries == 2
        finally:
            gateway.shutdown(drain=False)


class TestWorkerCrashAccounting:
    def test_crash_is_typed_audited_and_survivable(self):
        db = Database()
        install_university(db)
        chaos = ChaosInjector(seed=7)
        gateway = EnforcementGateway(db, workers=1, chaos=chaos)
        try:
            chaos.inject("gateway.dequeue", "worker-crash", times=1)
            crashed = gateway.execute(
                QueryRequest(user="11", sql="select * from MyGrades",
                             tag="crash-1")
            )
            assert crashed.status is RequestStatus.ERROR
            assert "internal gateway error" in crashed.error
            assert gateway.metrics.get("worker_faults") == 1
            # audited exactly once despite the crash
            records = [
                r for r in gateway.audit.tail(100) if r.tag == "crash-1"
            ]
            assert len(records) == 1
            # the (single) worker survived and serves the next request
            assert gateway.execute(
                QueryRequest(user="11", sql="select * from MyGrades")
            ).ok
        finally:
            gateway.shutdown(drain=False)


class TestOverloadProperty:
    """Property: under random load, chaos, and cancellation, every
    submitted request is eventually resolved (answered, overloaded,
    timed out, or cancelled) and audited exactly once."""

    def test_every_request_resolved_and_audited_once(self):
        import random

        db = Database()
        install_university(db)
        chaos = ChaosInjector(seed=11)
        gateway = EnforcementGateway(
            db, workers=2, queue_size=8, audit_capacity=4096,
            default_deadline=REAP_TIMEOUT_S / 2, retry_backoff=0.001,
            chaos=chaos,
        )
        chaos.inject("gateway.dequeue", "delay", probability=0.3,
                     delay_s=0.002)
        chaos.inject("gateway.before_check", "transient", probability=0.1)
        rng = random.Random(11)
        total = 120
        outcomes = {}
        lock = threading.Lock()

        def client(worker_id, count):
            local_rng = random.Random(worker_id)
            for i in range(count):
                tag = f"load-{worker_id}-{i}"
                request = QueryRequest(
                    user="11", sql="select * from MyGrades", tag=tag,
                    deadline=None if local_rng.random() < 0.8 else 0.001,
                )
                try:
                    pending = gateway.submit(request)
                except ServiceOverloaded:
                    with lock:
                        outcomes[tag] = "overloaded"
                    continue
                if local_rng.random() < 0.15:
                    pending.cancel()
                response = pending.result(timeout=REAP_TIMEOUT_S)
                with lock:
                    outcomes[tag] = response.status.value

        threads = [
            threading.Thread(target=client, args=(w, total // 4))
            for w in range(4)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=REAP_TIMEOUT_S * 2)
                assert not t.is_alive(), "client thread hung"
        finally:
            gateway.shutdown(drain=False)

        assert len(outcomes) == total  # every request resolved
        allowed = {s.value for s in TERMINAL} | {"overloaded"}
        assert set(outcomes.values()) <= allowed

        audited = {}
        for record in gateway.audit.tail(4096):
            if record.tag and record.tag.startswith("load-"):
                audited[record.tag] = audited.get(record.tag, 0) + 1
        assert set(audited) == set(outcomes)
        assert all(count == 1 for count in audited.values())
        assert_reconciled(gateway)

    def test_hard_shutdown_accounts_cancelled_requests(self):
        """Requests ``shutdown(drain=False)`` cancels in the queue are
        counted and audited like every other terminal response."""
        db = Database()
        install_university(db)
        gateway = EnforcementGateway(db, workers=1, queue_size=8)
        # hold the read lock so a DML request pins the only worker in
        # acquire_write while the reads stay queued behind it
        gateway._rwlock.acquire_read()
        try:
            blocker = gateway.submit(
                QueryRequest(user=None, mode="open",
                             sql="insert into Courses values ('CS998', 'X')")
            )
            deadline = time.time() + 10
            while gateway.metrics.get("workers_busy") < 1:
                assert time.time() < deadline, "worker never became busy"
                time.sleep(0.001)
            queued = [
                gateway.submit(QueryRequest(user="11", sql="select * from MyGrades"))
                for _ in range(5)
            ]
            stopper = threading.Thread(
                target=gateway.shutdown, kwargs={"drain": False}
            )
            stopper.start()
            for pending in queued:
                response = pending.result(timeout=REAP_TIMEOUT_S)
                assert response.status is RequestStatus.CANCELLED
        finally:
            gateway._rwlock.release_read()
        stopper.join(timeout=REAP_TIMEOUT_S)
        assert not stopper.is_alive()
        assert blocker.result(timeout=REAP_TIMEOUT_S).ok
        assert gateway.metrics.get("requests_submitted") == 6
        assert gateway.metrics.get("requests_completed") == 6
        assert gateway.metrics.get("requests_cancelled") == 5
        assert_reconciled(gateway)


class TestPendingHandleContract:
    """Satellite regressions: execute() can never hang, and a timed-out
    result() leaves a cancellable handle, not an orphaned request."""

    def test_result_timeout_carries_handle_and_reaps(self, big_join_db):
        gateway = EnforcementGateway(big_join_db, workers=1)
        try:
            pending = gateway.submit(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL)
            )
            with pytest.raises(PendingTimeout) as excinfo:
                pending.result(timeout=0.02)
            assert excinfo.value.pending is pending
            # PendingTimeout is still a TimeoutError for legacy callers
            assert isinstance(excinfo.value, TimeoutError)
            assert pending.cancel()
            response = pending.result(timeout=REAP_TIMEOUT_S)
            assert response.status is RequestStatus.CANCELLED
            assert not pending.cancel()  # already terminal
        finally:
            gateway.shutdown(drain=False)

    def test_execute_applies_gateway_default_deadline(self, big_join_db):
        gateway = EnforcementGateway(
            big_join_db, workers=1, default_deadline=0.15
        )
        try:
            start = time.perf_counter()
            response = gateway.execute(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL)
            )
            assert time.perf_counter() - start < 10.0
            assert response.status is RequestStatus.TIMEOUT
            assert "deadline" in response.error
        finally:
            gateway.shutdown(drain=False)

    def test_execute_reaps_after_cancelling_on_wait_timeout(self, big_join_db):
        gateway = EnforcementGateway(big_join_db, workers=1)
        gateway.result_grace = 0.0
        try:
            # explicit wait shorter than the query: execute() cancels the
            # in-flight work and reaps the CANCELLED response
            response = gateway.execute(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL),
                timeout=0.05,
            )
            assert response.status is RequestStatus.CANCELLED
        finally:
            gateway.shutdown(drain=False)


class TestResilienceMetrics:
    def test_stats_expose_resilience_instruments(self):
        db = Database()
        install_university(db)
        gateway = EnforcementGateway(db, workers=1)
        try:
            stats = gateway.stats()
            for key in (
                "requests_cancelled_inflight",
                "requests_degraded",
                "requests_retried",
                "retries_total",
                "requests_budget_exceeded",
                "worker_faults",
                "breaker_state",
                "breaker_transitions",
                "breaker_trips",
                "breaker_recoveries",
                "default_deadline_s",
            ):
                assert key in stats, key
            assert stats["breaker_state"] == "closed"
            rendered = gateway.render_stats()
            assert "breaker_state" in rendered
            assert "requests_cancelled_inflight" in rendered
        finally:
            gateway.shutdown(drain=False)


class TestPreparedChaosStorm:
    """Faults at the prepared-statement fire points while the grant
    registry churns underneath.  A ``delay`` at ``prepared.bind``
    stretches the window between template lookup and execution — the
    window where a stale plan would be served — and a ``transient`` at
    ``prepared.hit`` forces retries through a cache whose entries are
    being invalidated mid-flight.  Zero stale-plan answers are allowed:

    * every OK answer carries exactly the requester's own rows;
    * a foreign user's probe (literal pinned to someone else's id)
      never answers, no matter which template is hot;
    * every rejection is the genuine Non-Truman message, and the only
      other legal outcome is the typed persisted-transient error.
    """

    SEED = 20260807
    SQL_11 = "select grade from Grades where student_id = '11'"
    ROWS_11 = {(3.5,), (4.0,)}
    SQL_12_OWN = "select grade from Grades where student_id = '12'"
    ROWS_12 = {(2.5,)}

    def test_storm_no_stale_plans_no_cross_user_rows(self):
        db = Database()
        db.execute_script(UNIVERSITY_SCHEMA)
        db.execute_script(UNIVERSITY_DATA)
        db.execute(
            "create authorization view MyGrades as "
            "select * from Grades where student_id = $user_id"
        )
        db.grant("MyGrades", "11")
        db.grant("MyGrades", "12")
        chaos = ChaosInjector(seed=self.SEED)
        gateway = EnforcementGateway(
            db, workers=4, queue_size=512, audit_capacity=8192,
            retry_attempts=3, retry_backoff=0.001, chaos=chaos,
            retry_seed=self.SEED,
        )
        chaos.inject("prepared.hit", "transient", probability=0.15)
        chaos.inject("prepared.bind", "delay", probability=0.4,
                     delay_s=0.002)

        stop = threading.Event()

        def churn():
            # revoke/grant user 11's only view as fast as possible;
            # each loop iteration ends re-granted
            while not stop.is_set():
                db.grants.revoke("MyGrades", "11")
                time.sleep(0.0005)
                db.grant("MyGrades", "11")
                time.sleep(0.0005)

        churner = threading.Thread(target=churn, daemon=True)
        responses = []
        try:
            churner.start()
            for i in range(150):
                responses.append(("11-own", gateway.execute(
                    QueryRequest(user="11", sql=self.SQL_11,
                                 tag=f"own-{i}")
                )))
                responses.append(("12-own", gateway.execute(
                    QueryRequest(user="12", sql=self.SQL_12_OWN,
                                 tag=f"other-{i}")
                )))
                responses.append(("12-probe", gateway.execute(
                    QueryRequest(user="12", sql=self.SQL_11,
                                 tag=f"probe-{i}")
                )))
        finally:
            stop.set()
            churner.join(timeout=10)
            gateway.shutdown(drain=False)
        assert not churner.is_alive()

        # the storm actually exercised the prepared path and its faults
        assert gateway.metrics.get("prepared_requests") > 0
        assert "prepared.bind:delay" in chaos.stats(), chaos.stats()
        assert "prepared.hit:transient" in chaos.stats(), chaos.stats()

        for kind, response in responses:
            assert response.status in TERMINAL, (kind, response.status)
            if response.status is RequestStatus.OK:
                assert kind != "12-probe", (
                    "cross-user answer: user 12 was served a template "
                    "pinned to user 11's literal"
                )
                expected = self.ROWS_11 if kind == "11-own" else self.ROWS_12
                assert set(response.rows) == expected, (kind, response.rows)
                assert len(response.rows) == len(expected), (
                    f"{kind}: duplicate/partial rows {response.rows}"
                )
            elif response.status is RequestStatus.REJECTED:
                # user 12's own query is always answerable: a rejection
                # there would mean a foreign decision was served
                assert kind in ("11-own", "12-probe"), (kind, response.error)
                assert "rejected by Non-Truman model" in response.error
            else:
                assert response.status is RequestStatus.ERROR, (
                    kind, response.status, response.error,
                )
                assert "transient fault persisted" in response.error

        # quiescent: with the grant held, the answer must come back
        if not db.grants.is_granted("MyGrades", "11"):
            db.grant("MyGrades", "11")
        session = db.connect(user_id="11", mode="non-truman").session
        result = db.execute_query(
            self.SQL_11, session=session, mode="non-truman", prepared=True
        )
        assert set(result.rows) == self.ROWS_11

    def test_truman_storm_remap_never_outlives_its_mapping(self, monkeypatch):
        """A thread alternates Grades between MyGrades and an empty view
        while Truman requests run through the gateway.  Mid-storm every
        answer is one mapping's answer; once the churn stops, every
        answer is the fresh answer under the final mapping — a template
        built across a remap must not survive it."""
        db = Database()
        install_university(db)
        db.execute(
            "create authorization view NoGrades as "
            "select * from Grades where 1 = 0"
        )
        db.grant_public("NoGrades")
        db.set_truman_view("Grades", "MyGrades")
        chaos = ChaosInjector(seed=self.SEED)
        gateway = EnforcementGateway(
            db, workers=4, queue_size=512, audit_capacity=8192,
            retry_attempts=3, retry_backoff=0.001, chaos=chaos,
            retry_seed=self.SEED,
        )
        chaos.inject("prepared.bind", "delay", probability=0.4,
                     delay_s=0.002)
        plan_template = db.plan_template

        def slow_plan_template(*args, **kwargs):
            # a slow build straddles the remaps, the last one included
            time.sleep(0.002)
            return plan_template(*args, **kwargs)

        monkeypatch.setattr(db, "plan_template", slow_plan_template)
        sql = "select count(*) from Grades"
        legal = {(len(self.ROWS_11),), (0,)}

        def ask(tag):
            return gateway.execute(
                QueryRequest(user="11", sql=sql, mode="truman", tag=tag)
            )

        churning = threading.Event()
        churning.set()
        storm = []

        def churn():
            # the last remap lands while clients are still building
            for _ in range(200):
                db.set_truman_view("Grades", "NoGrades")
                time.sleep(0.0005)
                db.set_truman_view("Grades", "MyGrades")
                time.sleep(0.0005)
            churning.clear()

        def client(n):
            i = 0
            while churning.is_set() or i < 20:
                storm.append(ask(f"storm-{n}-{i}"))
                i += 1

        threads = [threading.Thread(target=churn, daemon=True)] + [
            threading.Thread(target=client, args=(n,), daemon=True)
            for n in range(3)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            settled = [ask(f"settled-{i}") for i in range(20)]
        finally:
            churning.clear()
            gateway.shutdown(drain=False)

        assert gateway.metrics.get("prepared_requests") > 0
        for response in storm:
            assert response.status is RequestStatus.OK, response.error
            assert len(response.rows) == 1 and response.rows[0] in legal
        session = db.connect(user_id="11", mode="truman").session
        fresh = db.execute_query(sql, session=session, mode="truman",
                                 prepared=False).rows
        for response in settled:
            assert response.status is RequestStatus.OK, response.error
            assert response.rows == fresh


class TestNetworkChaos:
    """Connection-drop fire points in the network front end: the server
    must survive injected drops at any ``net.*`` point, cancel the
    affected session's work, and keep serving everyone else."""

    def make_service(self, chaos=None, workers=1):
        from repro.net import NetworkService

        db = Database()
        install_university(db)
        gateway = EnforcementGateway(db, workers=workers, name="net-chaos")
        network = NetworkService(gateway, chaos=chaos)
        host, port = network.start()
        return gateway, network, host, port

    def test_disconnect_at_accept(self):
        from repro.errors import ConnectionDropped
        from repro.net import ReproClient
        from repro.service import ChaosInjector

        chaos = ChaosInjector(seed=7)
        chaos.inject("net.accept", "disconnect", times=1)
        gateway, network, host, port = self.make_service(chaos)
        try:
            with pytest.raises(ConnectionDropped):
                ReproClient(host, port, user="11")
            # the very next connection is served normally
            with ReproClient(host, port, user="11") as client:
                result = client.query(
                    "select * from Grades where student_id = '11'"
                )
                assert len(result.rows) == 2
            assert chaos.injected == [("net.accept", "disconnect")]
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_disconnect_before_send_drops_only_that_session(self):
        from repro.errors import ConnectionDropped
        from repro.net import ReproClient
        from repro.service import ChaosInjector

        chaos = ChaosInjector(seed=7)
        gateway, network, host, port = self.make_service(chaos)
        try:
            victim = ReproClient(host, port, user="11")
            bystander = ReproClient(host, port, user="12")
            # armed only now, so both hellos went through; the victim's
            # next response frame hits the drop
            chaos.inject("net.before_send", "disconnect", times=1)
            with pytest.raises(ConnectionDropped):
                victim.query("select * from Grades where student_id = '11'")
            victim.drop()
            # the bystander's session is untouched
            result = bystander.query(
                "select * from Grades where student_id = '12'"
            )
            assert result.rows == [("12", "CS101", 2.5)]
            bystander.close()
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_delay_before_send_answers_are_still_correct(self):
        from repro.net import ReproClient
        from repro.service import ChaosInjector

        chaos = ChaosInjector(seed=7)
        chaos.inject("net.before_send", "delay", delay_s=0.02)
        gateway, network, host, port = self.make_service(chaos)
        try:
            with ReproClient(host, port, user="11") as client:
                result = client.query(
                    "select * from Grades where student_id = '11'"
                )
            assert sorted(result.rows) == [
                ("11", "CS101", 3.5), ("11", "CS102", 4.0),
            ]
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_transient_fault_retries_travel_over_wire(self):
        from repro.net import ReproClient
        from repro.service import ChaosInjector

        chaos = ChaosInjector(seed=7)
        chaos.inject("gateway.before_execute", "transient", times=1)
        db = Database()
        install_university(db)
        gateway = EnforcementGateway(db, workers=1, chaos=chaos)
        from repro.net import NetworkService

        network = NetworkService(gateway)
        host, port = network.start()
        try:
            with ReproClient(host, port, user="11") as client:
                result = client.query(
                    "select * from Grades where student_id = '11'"
                )
            assert len(result.rows) == 2
            assert result.retries >= 1  # the retry count is reported
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_probabilistic_disconnect_sweep(self):
        """Mini-sweep: with a 30% drop chance on every outgoing frame,
        every query either answers correctly or fails with a clean
        ``ConnectionDropped`` — and the server ends with no connection
        or in-flight request leaked."""
        from repro.errors import ConnectionDropped
        from repro.net import ReproClient
        from repro.service import ChaosInjector

        chaos = ChaosInjector(seed=1234)
        gateway, network, host, port = self.make_service(chaos, workers=2)
        sql = "select * from Grades where student_id = '11'"
        expected = [("11", "CS101", 3.5), ("11", "CS102", 4.0)]
        served = dropped = 0
        try:
            chaos.inject("net.before_send", "disconnect", probability=0.3)
            for _ in range(40):
                try:
                    client = ReproClient(host, port, user="11")
                except ConnectionDropped:
                    dropped += 1  # welcome frame hit the drop
                    continue
                try:
                    result = client.query(sql)
                    assert sorted(result.rows) == expected
                    served += 1
                except ConnectionDropped:
                    dropped += 1
                finally:
                    client.drop()
            assert served and dropped, (served, dropped)
            chaos.clear()
            # quiesce: sessions unwind, nothing is left open or in flight
            deadline = time.time() + 10
            while time.time() < deadline:
                if gateway.metrics.get("connections_open") == 0:
                    break
                time.sleep(0.02)
            assert gateway.metrics.get("connections_open") == 0
            with ReproClient(host, port, user="11") as client:
                assert sorted(client.query(sql).rows) == expected
        finally:
            network.stop()
            gateway.shutdown(drain=False)
