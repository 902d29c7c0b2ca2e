"""E19 — scale-out serving (repro.cluster, DESIGN.md §10).

The cluster's pitch is that sharding + WAL-shipping replication buy
read throughput *without* weakening enforcement: the checker and
prepared pipeline still run once per query on the coordinator, policy
changes propagate as epoch-stamped WAL records, and the routing gate
refuses any replica whose policy epoch lags the primary.  E19 measures
the throughput side and stress-tests the enforcement side:

Gates:

* every partition-key point read on a 4-shard coordinator reads the
  rows and indexes of exactly one shard, the one that owns the key,
  with zero row mismatches against the 1-shard baseline; the speed-up
  over that baseline is reported, not gated, since it divides by a
  path (an indexed single-node read) that other changes make faster;
* replica staleness stays bounded by the shipping batch size under a
  sustained write storm, and drains to zero on sync;
* a revoke-during-read storm with a mid-storm replica failover serves
  **zero** stale-policy answers and zero wrong rows.
"""

import threading
import time

import pytest

from repro.authviews.session import SessionContext
from repro.bench import Experiment, time_callable
from repro.cluster import ClusterCoordinator
from repro.service import EnforcementGateway, QueryRequest

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E19",
        title="cluster: sharded + replicated serving, epoch-consistent policy",
        claim="§10 — scatter-gather sharding scales reads; epoch-gated WAL shipping keeps every answer policy-current",
    )
)

STUDENTS = 600
GRADES_PER = 10
POINT_READS = 240


def build_topology(shards):
    db = ClusterCoordinator(
        shards=shards, partition_keys={"Grades": ("student_id",)}
    )
    db.execute(
        "create table Grades (student_id varchar(10), course varchar(10), "
        "grade float)"
    )
    grades = db.table("Grades")
    for s in range(STUDENTS):
        for g in range(GRADES_PER):
            grades.insert((f"s{s}", f"CS{g}", round(1.0 + (g % 7) * 0.5, 1)))
    return db


@pytest.fixture(scope="module")
def topologies():
    return build_topology(1), build_topology(4)


def point_students():
    return [f"s{s}" for s in range(0, STUDENTS, STUDENTS // POINT_READS)]


def point_read(db, session, student):
    result = db.execute_query(
        f"select course, grade from Grades where student_id = '{student}'",
        session=session,
        mode="open",
    )
    return tuple(result.rows)


def point_reads(db, session):
    return [point_read(db, session, student) for student in point_students()]


#: the shard ``Table`` methods a read of its rows or indexes goes through
SHARD_READS = ("rows", "rows_with_ids", "get_row", "find_index")


def shards_read(db, run, monkeypatch) -> set:
    """Ordinals of the ``Grades`` shards whose rows or indexes ``run()``
    reads."""
    table = db.table("Grades")
    visited = set()

    def recording(ordinal, method):
        def read(*args, **kwargs):
            visited.add(ordinal)
            return method(*args, **kwargs)

        return read

    with monkeypatch.context() as patch:
        for ordinal in range(table.n_shards):
            shard = table.shard_table(ordinal)
            for name in SHARD_READS:
                patch.setattr(shard, name, recording(ordinal, getattr(shard, name)))
        run()
    return visited


def test_sharded_point_read_speedup(topologies, monkeypatch):
    """The acceptance gate: partition pruning turns a point read into a
    1-of-4-shards read — each read visits exactly the shard that owns
    its key — and answers byte-identically to the 1-shard baseline.
    The throughput ratio between the two is reported."""
    one, four = topologies
    session = SessionContext()
    baseline = point_reads(one, session)
    sharded = point_reads(four, session)
    mismatches = sum(1 for a, b in zip(baseline, sharded) if a != b)
    assert mismatches == 0

    partitioner = four.table("Grades").partitioner
    visits = {
        student: shards_read(
            four, lambda: point_read(four, session, student), monkeypatch
        )
        for student in point_students()
    }
    off_target = sum(
        1
        for student, visited in visits.items()
        if visited != {partitioner.shard_of_key((student,))}
    )

    one_s, _ = time_callable(lambda: point_reads(one, session), repeat=3)
    four_s, _ = time_callable(lambda: point_reads(four, session), repeat=3)
    speedup = one_s / four_s
    n = len(visits)
    EXPERIMENT.add(
        f"point reads, {STUDENTS * GRADES_PER} rows, {n} queries",
        queries=n,
        mismatches=mismatches,
        shards_per_read=round(
            sum(len(v) for v in visits.values()) / len(visits), 2
        ),
        off_target_reads=off_target,
        one_shard_ms=round(one_s * 1000, 2),
        four_shard_ms=round(four_s * 1000, 2),
        speedup=round(speedup, 1),
        one_shard_qps=round(n / one_s),
        four_shard_qps=round(n / four_s),
    )
    assert off_target == 0, {s: v for s, v in visits.items() if len(v) != 1}
    # the reads spread over every shard, so each shard was checked
    assert set().union(*visits.values()) == set(range(4))


def test_replica_staleness_bounded_under_write_storm():
    """Replica lag never exceeds the shipping batch while writes pour
    in, and drains to zero on sync — staleness is bounded, not best
    effort."""
    ship_batch = 8
    db = ClusterCoordinator(shards=2, replicas=1, ship_batch=ship_batch)
    db.execute("create table T (a int primary key, b float)")
    db.sync_replicas()
    max_lag = 0
    writes = 120
    for i in range(writes):
        db.execute(f"insert into T values ({i}, {i}.5)")
        max_lag = max(max_lag, db.replica_lag())
    lag_before_sync = db.replica_lag()
    db.sync_replicas()
    EXPERIMENT.add(
        f"write storm, {writes} inserts, ship_batch={ship_batch}",
        writes=writes,
        ship_batch=ship_batch,
        max_lag=max_lag,
        lag_after_sync=db.replica_lag(),
    )
    assert max_lag <= ship_batch
    assert lag_before_sync <= ship_batch
    assert db.replica_lag() == 0


def test_revoke_storm_with_failover_zero_stale():
    """Grant/revoke churn racing gateway reads, one replica dying
    mid-storm: every OK answer is policy-current and row-exact."""
    db = ClusterCoordinator(shards=4, replicas=2, ship_batch=1)
    db.execute(
        "create table Grades (student_id varchar(10), course varchar(10), "
        "grade float)"
    )
    for i in range(40):
        db.execute(
            f"insert into Grades values ('{10 + i % 20}', 'CS{i % 5}', "
            f"{round(1.0 + (i % 6) * 0.5, 1)})"
        )
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.grant("MyGrades", "11")
    db.sync_replicas()
    expected_rows = tuple(
        db.execute_query(
            "select grade from MyGrades",
            session=SessionContext(user_id="11"),
            mode="non-truman",
        ).rows
    )
    gateway = EnforcementGateway(db, workers=4)
    state_lock = threading.Lock()
    state = [0, True]  # (flip counter, currently granted)
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

    reads = 300
    stale = wrong = served_ok = replica_served = 0
    churner = threading.Thread(target=churn, daemon=True)
    try:
        churner.start()
        for i in range(reads):
            if i == reads // 2:  # failover: one replica goes silent
                db.shippers[0].paused = True
            flips_before, granted_before = snapshot()
            response = gateway.execute(
                QueryRequest(
                    user="11",
                    sql="select grade from MyGrades",
                    mode="non-truman",
                    tag=f"e19-{i}",
                )
            )
            flips_after, _ = snapshot()
            if response.ok:
                served_ok += 1
                if response.replica is not None:
                    replica_served += 1
                if tuple(response.rows) != expected_rows:
                    wrong += 1
                # the user was revoked for the *entire* request, yet
                # got an answer: only stale policy state can do that
                if not granted_before and flips_after == flips_before:
                    stale += 1
    finally:
        stop.set()
        churner.join(timeout=10)
        gateway.shutdown(drain=False)
    # while the dead replica is still silent, routing only offers the
    # survivor (a paused shipper never ships, even on sync)
    live = db.shippers[1].replica
    db.grant("MyGrades", "11")
    db.sync_replicas()
    routed = {db.route_read().name for _ in range(10)}
    db.shippers[0].paused = False
    EXPERIMENT.add(
        f"revoke storm, {reads} reads, failover at {reads // 2}",
        reads=reads,
        served_ok=served_ok,
        replica_served=replica_served,
        stale_policy_answers=stale,
        wrong_rows=wrong,
        surviving_replicas=len(routed),
    )
    assert stale == 0
    assert wrong == 0
    assert served_ok > 0 and replica_served > 0
    assert routed == {live.name}
