"""E13 — concurrent enforcement gateway (repro.service).

The paper (§2) places enforcement *inside* the database server, which
serves many user sessions at once; §5.6 motivates decision caching by
"queries [that] are repeatedly executed".  E13 measures the
reproduction's gateway under that regime: a closed-loop, multi-user,
mixed Truman/Non-Truman workload dispatched over a worker pool.

Measured here:

* correctness — every concurrent decision (accept/reject) and every
  result multiset matches serial execution of the same requests;
* shared validity-cache hit rate and latency percentiles under load;
* backpressure — admission beyond the bounded queue is rejected with a
  structured ``ServiceOverloaded``, and admitted work still completes;
* deadlines — an expired request yields a structured TIMEOUT response
  without wedging a worker.
"""

import pytest

from repro.errors import QueryRejectedError, ServiceOverloaded
from repro.service import EnforcementGateway, QueryRequest, RequestStatus
from repro.workloads.university import (
    UniversityConfig,
    build_university,
    student_ids,
)
from repro.bench import Experiment, time_callable

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E13",
        title="concurrent enforcement gateway (service layer)",
        claim="parallel enforcement preserves serial decisions; the shared cache amortizes checks",
    )
)

WORKERS = 4


@pytest.fixture(scope="module")
def db():
    return build_university(UniversityConfig(students=40, courses=8, seed=13))


def mixed_workload(db, per_user: int = 4) -> list[QueryRequest]:
    """≥100 requests mixing modes and accept/reject outcomes."""
    requests: list[QueryRequest] = []
    for user in student_ids(db)[:30]:
        requests += [
            # non-truman, unconditionally valid (U2), cacheable skeleton
            QueryRequest(
                user=user,
                sql=f"select grade from Grades where student_id = '{user}'",
            ),
            # non-truman, invalid — must be rejected, also cacheable
            QueryRequest(user=user, sql="select * from Grades"),
            # truman: silently rewritten against the user's views
            QueryRequest(
                user=user, sql="select grade from Grades", mode="truman"
            ),
            # open-mode control query
            QueryRequest(
                user=user, sql="select count(*) from Courses", mode="open"
            ),
        ][:per_user]
    return requests


def serial_outcome(db, request: QueryRequest):
    """(status, multiset of rows) of running one request on its own."""
    session = db.connect(user_id=request.user, mode=request.mode).session
    try:
        result = db.execute_query(
            request.sql, session=session, mode=request.mode
        )
    except QueryRejectedError:
        return ("rejected", None)
    return ("ok", result.as_multiset())


def test_mixed_workload_matches_serial(benchmark, db):
    """The acceptance run: ≥4 workers, ≥100 mixed requests, decisions
    and result multisets identical to serial execution."""
    requests = mixed_workload(db)
    assert len(requests) >= 100
    expected = [serial_outcome(db, r) for r in requests]
    serial_s, _ = time_callable(
        lambda: [serial_outcome(db, r) for r in requests], repeat=3
    )

    gateway = EnforcementGateway(db, workers=WORKERS, queue_size=len(requests))
    try:
        responses = gateway.execute_many(requests)  # warm + correctness run
        mismatches = 0
        for request, response, (status, rows) in zip(
            requests, responses, expected
        ):
            if response.status.value != status:
                mismatches += 1
            elif rows is not None and response.result.as_multiset() != rows:
                mismatches += 1
        assert mismatches == 0

        concurrent_s, _ = time_callable(
            lambda: gateway.execute_many(requests), repeat=3
        )
        benchmark(lambda: gateway.execute_many(requests))

        snap = gateway.stats()
        assert snap["cache_hit_rate"] > 0  # repeats hit the shared cache
        EXPERIMENT.add(
            f"{len(requests)}-request mixed workload, {WORKERS} workers",
            mismatches_vs_serial=mismatches,
            serial_ms=serial_s * 1000,
            gateway_ms=concurrent_s * 1000,
            throughput_rps=f"{len(requests) / concurrent_s:.0f}",
            cache_hit_rate=f"{snap['cache_hit_rate']:.2f}",
        )
        EXPERIMENT.add(
            "latency percentiles under load",
            p50_ms=f"{snap['latency_ms_p50']:.2f}",
            p95_ms=f"{snap['latency_ms_p95']:.2f}",
            p99_ms=f"{snap['latency_ms_p99']:.2f}",
        )
    finally:
        gateway.shutdown(drain=False)


def test_backpressure_bounds_admission(db):
    """Past the admission queue the gateway says no instead of hanging."""
    gateway = EnforcementGateway(db, workers=1, queue_size=4)
    blocker_released = False
    try:
        # Pin the only worker: DML needs the write lock, which we hold.
        gateway._rwlock.acquire_read()
        pinned = gateway.submit(
            QueryRequest(
                user=None,
                sql="insert into Courses values ('CS999', 'Overload')",
                mode="open",
            )
        )
        while gateway.metrics.get("workers_busy") < 1:
            pass

        admitted = []
        rejected = 0
        probe = QueryRequest(
            user="11", sql="select count(*) from Courses", mode="open"
        )
        for _ in range(32):
            try:
                admitted.append(gateway.submit(probe))
            except ServiceOverloaded:
                rejected += 1
        assert rejected > 0  # bounded queue pushed back
        assert len(admitted) <= 4

        gateway._rwlock.release_read()
        blocker_released = True
        assert pinned.result(timeout=10).ok
        for pending in admitted:
            assert pending.result(timeout=10).ok  # admitted work completes
        db.execute("delete from Courses where course_id = 'CS999'")
        EXPERIMENT.add(
            "overload (1 worker pinned, queue=4, 32 offered)",
            admitted=len(admitted),
            rejected_with_ServiceOverloaded=rejected,
            admitted_completed="all",
        )
    finally:
        if not blocker_released:
            gateway._rwlock.release_read()
        gateway.shutdown(drain=False)


def test_deadline_exceeded_is_structured(benchmark, db):
    """An expired deadline produces a TIMEOUT response; the pool keeps
    serving afterwards (no wedged worker, no leaked connection)."""
    gateway = EnforcementGateway(db, workers=WORKERS, queue_size=16)
    try:
        expired = gateway.execute(
            QueryRequest(
                user="11",
                sql="select grade from Grades where student_id = '11'",
                deadline=0.0,
            )
        )
        assert expired.status is RequestStatus.TIMEOUT
        assert "deadline" in expired.error

        follow_up = QueryRequest(
            user="11", sql="select grade from Grades where student_id = '11'"
        )
        response = benchmark(lambda: gateway.execute(follow_up))
        assert response.ok
        EXPERIMENT.add(
            "deadline=0 request",
            response_status=expired.status.value,
            pool_blocked="no",
            follow_up=response.status.value,
        )
    finally:
        gateway.shutdown(drain=False)
