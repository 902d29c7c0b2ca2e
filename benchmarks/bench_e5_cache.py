"""E5 — validity-decision caching and prepared statements (§5.6).

Paper claims: "If the same query is reissued multiple times in a
session, we can cache the results of the validity check" and "for
ODBC/JDBC prepared statements, we can analyze the query without the
actual parameters ... and come up with a cheap test that is used each
time the query is executed".

We measure cold vs cached check latency, and the amortized per-query
cost of a prepared-statement-style workload (same skeleton, per-user
constants) with the cache on and off.  The cold path is the bare
checker; the cached path is :func:`repro.prepared.decide`, the one
entrance to the database's decision cache.
"""

import pytest

from repro.sql import parse_query
from repro.nontruman.checker import ValidityChecker
from repro.prepared import context_key, decide
from repro.workloads.university import UniversityConfig, build_university, student_ids
from repro.bench import Experiment, time_callable

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E5",
        title="validity-check caching / prepared statements",
        claim="repeat checks are near-free from the cache; skeleton reuse amortizes",
    )
)


@pytest.fixture(scope="module")
def db():
    return build_university(UniversityConfig(students=100, courses=10, seed=4))


def cached_check(db, query, session):
    return decide(db, session, query, context=context_key(session))


def test_cold_vs_cached(benchmark, db):
    session = db.connect(user_id="11").session
    query = parse_query("select grade from Grades where student_id = '11'")

    cold_checker = ValidityChecker(db)
    cold_s, _ = time_callable(lambda: cold_checker.check(query, session), repeat=5)

    cached_check(db, query, session)  # populate
    warm_s, _ = time_callable(lambda: cached_check(db, query, session), repeat=5)

    benchmark(lambda: cached_check(db, query, session))

    assert cached_check(db, query, session).from_cache
    EXPERIMENT.add(
        "repeat same query",
        cold_us=cold_s * 1e6,
        cached_us=warm_s * 1e6,
        speedup=f"{cold_s / warm_s:.0f}x",
    )
    assert warm_s < cold_s


def test_prepared_statement_workload(benchmark, db):
    """Each user issues the same application query with her own id —
    the §5.6 prepared-statement scenario."""
    users = student_ids(db)[:40]

    def run_workload(use_cache: bool) -> float:
        db.validity_cache.clear()
        db.validity_cache.hits = db.validity_cache.misses = 0
        checker = ValidityChecker(db)

        def check(query, session):
            if use_cache:
                return cached_check(db, query, session)
            return checker.check(query, session)

        def body():
            for user in users:
                session = db.connect(user_id=user).session
                query = parse_query(
                    f"select grade from Grades where student_id = '{user}'"
                )
                decision = check(query, session)
                assert decision.valid
        seconds, _ = time_callable(body, repeat=3)
        return seconds

    uncached_s = run_workload(False)
    cached_s = run_workload(True)

    benchmark(lambda: run_workload(True))

    EXPERIMENT.add(
        f"{len(users)}-user prepared workload",
        uncached_ms=uncached_s * 1000,
        cached_ms=cached_s * 1000,
        speedup=f"{uncached_s / cached_s:.1f}x",
        cache_entries=db.validity_cache.size,
    )
    # each user gets her own (user, skeleton) entry; repeats hit
    assert db.validity_cache.hits > 0


def test_conditional_decisions_respect_data_changes(benchmark, db):
    """Caching must not serve stale conditional decisions (E5 safety)."""
    session = db.connect(user_id="11").session
    my_course = db.execute(
        "select course_id from Registered where student_id = '11' "
        "order by course_id limit 1"
    ).scalar()
    query = parse_query(f"select * from Grades where course_id = '{my_course}'")

    first = cached_check(db, query, session)
    assert first.conditional

    def checked_roundtrip():
        db.execute(
            f"delete from Registered where student_id = '11' "
            f"and course_id = '{my_course}'"
        )
        after_delete = cached_check(db, query, session)
        db.execute(f"insert into Registered values ('11', '{my_course}')")
        after_restore = cached_check(db, query, session)
        return after_delete, after_restore

    after_delete, after_restore = benchmark(checked_roundtrip)
    assert not after_delete.valid
    assert after_restore.valid
    EXPERIMENT.add(
        "conditional decision after DML",
        stale_served="no",
        revalidated="yes",
    )
