"""E16 — robustness: cancellation latency, chaos sweep, degraded mode.

The resilience controls (repro.service.context / breaker / chaos) only
matter if they hold under measurement:

* **cancellation latency** — how far past its deadline a runaway query
  actually runs before the cooperative check kills it, for a pure
  scan/join (both engines) and for the Non-Truman checker's inference
  loops; the gate requires the overshoot to stay well under the
  query's own runtime (killing is cheap and timely);
* **chaos sweep** — randomized requests against a gateway with faults
  armed at every serving-path point; the gate requires 0 hangs,
  0 partial answers, and every request audited exactly once;
* **degraded mode** — WAL commit faults must trip the breaker into
  read-only serving and the half-open probe must recover it, while
  reads keep answering throughout.
"""

import threading
import time

from repro.db import Database
from repro.errors import PendingTimeout, ServiceOverloaded
from repro.service import ChaosInjector, EnforcementGateway, QueryRequest, RequestStatus
from repro.bench import Experiment

from benchmarks.conftest import register_experiment
from tests.conftest import build_big_join_db
from tests.integration.test_chaos import (
    BIG_JOIN_SQL,
    PATHOLOGICAL_SQL,
    TERMINAL,
    build_pathological_db,
    install_university,
    serial_outcome,
)

EXPERIMENT = register_experiment(
    Experiment(
        id="E16",
        title="robustness: cancellation, chaos sweep, degraded mode",
        claim="deadlines kill runaway work promptly; under injected faults every request ends cleanly and audited",
    )
)

SWEEP_REQUESTS = 200
DEADLINE_S = 0.15


def test_cancellation_latency_mid_scan():
    """Gate: a deadline kills the 9.8M-pair join soon after expiring —
    the overshoot (extra time past the deadline) must be a small
    fraction of the uncancelled runtime."""
    db = build_big_join_db()
    gateway = EnforcementGateway(db, workers=1)
    try:
        # uncancelled baseline per engine
        for engine in ("row", "vectorized"):
            full = gateway.execute(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL,
                             engine=engine)
            )
            assert full.ok
            baseline_s = full.timing.total_s

            start = time.perf_counter()
            killed = gateway.execute(
                QueryRequest(user=None, mode="open", sql=BIG_JOIN_SQL,
                             engine=engine, deadline=DEADLINE_S)
            )
            elapsed = time.perf_counter() - start
            assert killed.status is RequestStatus.TIMEOUT, killed.status
            overshoot = max(0.0, elapsed - DEADLINE_S)
            EXPERIMENT.add(
                f"mid-scan kill, {engine} engine",
                uncancelled_ms=f"{baseline_s * 1000:.0f}",
                deadline_ms=f"{DEADLINE_S * 1000:.0f}",
                overshoot_ms=f"{overshoot * 1000:.1f}",
            )
            # the kill must not cost anywhere near a full execution
            assert elapsed < max(1.0, baseline_s * 3)
    finally:
        gateway.shutdown(drain=False)


def test_cancellation_latency_mid_inference():
    """Gate: the pathological validity check dies at its deadline while
    concurrent healthy sessions keep serving."""
    db = build_pathological_db()
    gateway = EnforcementGateway(db, workers=3)
    try:
        poison = gateway.submit(
            QueryRequest(user="11", sql=PATHOLOGICAL_SQL, deadline=1.0)
        )
        wait_until = time.time() + 10
        while gateway.metrics.get("workers_busy") < 1:
            assert time.time() < wait_until
            time.sleep(0.001)
        served = 0
        start = time.perf_counter()
        while not poison.done():
            response = gateway.execute(
                QueryRequest(user="11", sql="select * from MyGrades",
                             deadline=5.0)
            )
            assert response.ok, response.error
            served += 1
        elapsed = time.perf_counter() - start
        response = poison.result(timeout=5)
        assert response.status is RequestStatus.TIMEOUT
        assert served >= 3
        EXPERIMENT.add(
            "mid-inference kill (self-join blowup, deadline 1.0s)",
            healthy_served_meanwhile=served,
            healthy_rate_per_s=f"{served / max(elapsed, 1e-9):.0f}",
        )
    finally:
        gateway.shutdown(drain=False)


def test_chaos_sweep_gate(tmp_path):
    """Acceptance gate: >=200 randomized requests with faults armed at
    six serving-path points — 0 hangs, 0 partial or unauthorized
    answers, every request audited exactly once."""
    import random

    chaos = ChaosInjector(seed=16)
    db = Database.open(str(tmp_path / "e16-data"), injector=chaos)
    install_university(db)
    db.execute("create table Ledger(id int primary key, v int)")

    rng = random.Random(16)
    users = ("11", "12", "13", "14")
    reads = [
        lambda u: f"select grade from Grades where student_id = '{u}'",
        lambda u: "select * from MyGrades",
        lambda u: "select * from Grades",  # rejected by the checker
    ]
    requests = []
    for i in range(SWEEP_REQUESTS):
        if rng.random() < 0.25:
            requests.append(QueryRequest(
                user=None, mode="open", tag=f"e16-{i}",
                sql=f"insert into Ledger values ({i}, {i})",
            ))
        else:
            user = users[rng.randrange(len(users))]
            requests.append(QueryRequest(
                user=user, sql=reads[rng.randrange(len(reads))](user),
                tag=f"e16-{i}",
                deadline=0.001 if rng.random() < 0.1 else None,
            ))
    oracle = {
        r.tag: serial_outcome(db, r)
        for r in requests
        if not r.sql.lstrip().lower().startswith("insert")
    }

    gateway = EnforcementGateway(
        db, workers=4, queue_size=SWEEP_REQUESTS + 8, audit_capacity=4096,
        default_deadline=30.0, retry_backoff=0.001,
        breaker_cooldown=0.05, chaos=chaos, retry_seed=16,
    )
    chaos.inject("gateway.dequeue", "delay", probability=0.2, delay_s=0.002)
    chaos.inject("gateway.before_check", "transient", probability=0.15)
    chaos.inject("gateway.before_execute", "worker-crash", probability=0.05)
    chaos.inject("gateway.before_commit", "io-error", probability=0.25)
    chaos.inject("wal.before_fsync", "io-error", probability=0.15)
    chaos.inject("wal.before_append", "delay", probability=0.1, delay_s=0.001)

    hangs = partials = unauthorized = 0
    responses = []
    start = time.perf_counter()
    try:
        pendings = []
        for request in requests:
            try:
                pendings.append((request, gateway.submit(request)))
            except ServiceOverloaded:
                continue
            if rng.random() < 0.08:
                timer = threading.Timer(rng.random() * 0.01,
                                        pendings[-1][1].cancel)
                timer.daemon = True
                timer.start()
        for request, pending in pendings:
            try:
                responses.append((request, pending.result(timeout=60)))
            except PendingTimeout:
                hangs += 1
        elapsed = time.perf_counter() - start
    finally:
        gateway.shutdown(drain=False)

    for request, response in responses:
        assert response.status in TERMINAL
        expected = oracle.get(request.tag)
        if expected is None:
            continue
        status, rows = expected
        if response.status is RequestStatus.OK:
            if status != "ok":
                unauthorized += 1
            elif response.result.as_multiset() != rows:
                partials += 1

    audited = {}
    for record in gateway.audit.tail(4096):
        if record.tag and record.tag.startswith("e16-"):
            audited[record.tag] = audited.get(record.tag, 0) + 1
    audit_dups = sum(1 for count in audited.values() if count != 1)
    audit_missing = SWEEP_REQUESTS - len(audited)

    EXPERIMENT.add(
        f"chaos sweep, {SWEEP_REQUESTS} requests, 6 fault points "
        f"(gate: 0 hangs / 0 partials / audit exactly-once)",
        fault_firings=sum(chaos.stats().values()),
        hangs=hangs,
        partial_answers=partials,
        unauthorized_answers=unauthorized,
        audit_anomalies=audit_dups + audit_missing,
        throughput_rps=f"{len(responses) / elapsed:.0f}",
    )
    assert hangs == 0
    assert partials == 0
    assert unauthorized == 0
    assert audit_dups == 0 and audit_missing == 0


def test_degraded_mode_trip_and_recovery(tmp_path):
    """Gate: WAL commit faults trip the breaker to read-only; reads
    keep serving while open; the half-open probe recovers writes."""
    chaos = ChaosInjector(seed=9)
    db = Database.open(str(tmp_path / "e16-breaker"), injector=chaos)
    db.execute("create table Ledger(id int primary key, v int)")
    gateway = EnforcementGateway(
        db, workers=2, breaker_threshold=2, breaker_cooldown=0.05,
        chaos=chaos,
    )
    try:
        chaos.inject("gateway.before_commit", "io-error", probability=1.0)
        writes_to_trip = 0
        while gateway.breaker.state != "open":
            response = gateway.execute(QueryRequest(
                user=None, mode="open",
                sql=f"insert into Ledger values ({writes_to_trip}, 0)",
            ))
            assert response.status is RequestStatus.DEGRADED
            writes_to_trip += 1
            assert writes_to_trip < 10

        reads_while_open = 0
        for _ in range(20):
            response = gateway.execute(QueryRequest(
                user=None, mode="open", sql="select count(*) from Ledger",
            ))
            assert response.ok
            reads_while_open += 1

        chaos.clear("gateway.before_commit")
        time.sleep(0.06)
        recover_start = time.perf_counter()
        probe = gateway.execute(QueryRequest(
            user=None, mode="open", sql="insert into Ledger values (100, 1)",
        ))
        recovery_s = time.perf_counter() - recover_start
        assert probe.ok
        assert gateway.breaker.state == "closed"

        stats = gateway.stats()
        EXPERIMENT.add(
            "WAL-fault degraded mode (gate: reads serve while open; probe recovers)",
            writes_to_trip=writes_to_trip,
            reads_served_while_open=reads_while_open,
            breaker_trips=stats["breaker_trips"],
            breaker_recoveries=stats["breaker_recoveries"],
            probe_recovery_ms=f"{recovery_s * 1000:.1f}",
        )
        assert stats["breaker_trips"] == 1
        assert stats["breaker_recoveries"] == 1
    finally:
        gateway.shutdown(drain=False)
