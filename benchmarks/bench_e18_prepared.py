"""E18 — prepared statements (repro.prepared, paper §5.6).

The paper motivates decision caching with "queries [that] are
repeatedly executed, often with different values for some constants"
and suggests treating them "almost like prepared statements".  E18
measures exactly that regime on the E13 hot-query workload: the same
per-user grade lookup, re-executed with rotating literals, through the
full template cache (signature → cached decision → pre-built plan with
per-request literal binding) versus the fresh parse → check → plan
pipeline.

Gates:

* a prepared sweep of the hot workload performs *zero*
  parse/check/plan/pushdown/compile work — one literal bind per
  accepted request and nothing else, checked against the stage
  instrumentation counters; the speed-up over the fresh path is
  reported, not gated, since it divides by a path that other changes
  make faster;
* zero result mismatches between the two paths, accept and reject alike;
* a single hot hit performs the same zero work.
"""

import pytest

from repro.db import Database
from repro.errors import QueryRejectedError
from repro.instrument import COUNTERS
from repro.service import EnforcementGateway, QueryRequest
from repro.workloads.university import (
    UniversityConfig,
    build_university,
    student_ids,
)
from repro.bench import Experiment, time_callable

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E18",
        title="prepared statements: template cache for hot queries",
        claim="§5.6 — repeated queries differing only in constants skip parse/check/plan via cached templates",
    )
)

#: the stage counters a hot hit must leave untouched
PIPELINE_STAGES = (
    "sql.parse", "validity.check", "plan.build", "plan.push", "engine.compile",
)

USERS = 10
ROUNDS = 20


@pytest.fixture(scope="module")
def db():
    return build_university(UniversityConfig(students=40, courses=8, seed=18))


def hot_pairs(db):
    """The E13 hot queries: one per-user grade lookup (accepted, rule
    U2) and one blanket scan (rejected) — same two skeletons for every
    user, literals rotating with the user id."""
    pairs = []
    for user in student_ids(db)[:USERS]:
        pairs.append(
            (user, f"select grade from Grades where student_id = '{user}'")
        )
        pairs.append((user, "select * from Grades"))
    return pairs


def outcome(db, sql, session, prepared):
    try:
        result = db.execute_query(
            sql, session=session, mode="non-truman", prepared=prepared
        )
    except QueryRejectedError as exc:
        return ("rejected", str(exc))
    return ("ok", result.as_multiset())


def test_prepared_speedup_hot_queries(db):
    """The acceptance gate: a prepared sweep of the hot workload does
    no pipeline stage work — only ``prepared.bind``, once per accepted
    request — with zero mismatches against the fresh pipeline.  The
    wall-clock speed-up is reported alongside."""
    pairs = hot_pairs(db)
    sessions = {
        user: db.connect(user_id=user, mode="non-truman").session
        for user, _ in pairs
    }

    def sweep(prepared):
        return [
            outcome(db, sql, sessions[user], prepared)
            for _ in range(ROUNDS)
            for user, sql in pairs
        ]

    fresh_outcomes = sweep(False)
    prepared_outcomes = sweep(True)  # cold templates built here
    mismatches = sum(
        1 for a, b in zip(fresh_outcomes, prepared_outcomes) if a != b
    )
    assert mismatches == 0

    snapshot = COUNTERS.snapshot()
    sweep(True)
    hot = COUNTERS.delta_since(snapshot)
    stage_work = {stage: hot.get(stage, 0) for stage in PIPELINE_STAGES}
    accepted = sum(1 for status, _ in prepared_outcomes if status == "ok")

    fresh_s, _ = time_callable(lambda: sweep(False), repeat=3)
    prepared_s, _ = time_callable(lambda: sweep(True), repeat=3)
    speedup = fresh_s / prepared_s
    n = ROUNDS * len(pairs)
    stats = db.prepared.stats()
    EXPERIMENT.add(
        f"hot workload: {len(pairs)} queries x {ROUNDS} rounds, {USERS} users",
        requests=n,
        mismatches=mismatches,
        stage_work=sum(stage_work.values()),
        binds=hot.get("prepared.bind", 0),
        fresh_ms=round(fresh_s * 1000, 2),
        prepared_ms=round(prepared_s * 1000, 2),
        speedup=round(speedup, 1),
        fresh_qps=round(n / fresh_s),
        prepared_qps=round(n / prepared_s),
        template_hit_rate=round(stats["prepared_hit_rate"], 3),
    )
    assert stage_work == dict.fromkeys(PIPELINE_STAGES, 0), stage_work
    assert hot.get("prepared.bind", 0) == accepted > 0


def test_hot_hit_does_zero_pipeline_work(db):
    """The claim behind the speedup, asserted structurally: a hot hit
    bumps only ``prepared.bind`` — no parse, no validity check, no plan
    build, no pushdown, no kernel compilation."""
    session = db.connect(user_id="11", mode="non-truman").session
    sql = "select grade from Grades where student_id = '11'"
    db.execute_query(sql, session=session, mode="non-truman", prepared=True)
    snapshot = COUNTERS.snapshot()
    db.execute_query(sql, session=session, mode="non-truman", prepared=True)
    delta = COUNTERS.delta_since(snapshot)
    EXPERIMENT.add(
        "hot-hit stage counters (one request)",
        **{stage: delta.get(stage, 0)
           for stage in PIPELINE_STAGES + ("prepared.bind",)},
    )
    assert delta.get("sql.parse", 0) == 0
    assert delta.get("validity.check", 0) == 0
    assert delta.get("plan.build", 0) == 0
    assert delta.get("plan.push", 0) == 0
    assert delta.get("engine.compile", 0) == 0
    assert delta.get("prepared.bind") == 1


def test_gateway_prepared_throughput(db):
    """The same hot workload through the enforcement gateway, prepared
    templating on vs off: identical responses, throughput reported
    (the Database-level gate above is the hard one — worker-pool
    dispatch overhead dilutes the per-query win here)."""
    requests = [
        QueryRequest(user=user, sql=sql, mode="non-truman")
        for _ in range(5)
        for user, sql in hot_pairs(db)
    ]
    prep_gw = EnforcementGateway(
        db, workers=4, queue_size=len(requests), prepared_statements=True
    )
    fresh_gw = EnforcementGateway(
        db, workers=4, queue_size=len(requests), prepared_statements=False
    )
    try:
        prep = prep_gw.execute_many(requests)  # warm + correctness
        fresh = fresh_gw.execute_many(requests)
        mismatches = sum(
            1
            for a, b in zip(prep, fresh)
            if (a.status, a.error, a.rows) != (b.status, b.error, b.rows)
        )
        assert mismatches == 0

        prep_s, _ = time_callable(
            lambda: prep_gw.execute_many(requests), repeat=3
        )
        fresh_s, _ = time_callable(
            lambda: fresh_gw.execute_many(requests), repeat=3
        )
        snap = prep_gw.stats()
        EXPERIMENT.add(
            f"gateway, 4 workers, {len(requests)} hot requests",
            requests=len(requests),
            mismatches=mismatches,
            fresh_ms=round(fresh_s * 1000, 2),
            prepared_ms=round(prep_s * 1000, 2),
            speedup=round(fresh_s / prep_s, 1),
            fresh_qps=round(len(requests) / fresh_s),
            prepared_qps=round(len(requests) / prep_s),
            prepared_requests=snap["prepared_requests"],
            prepared_fallbacks=snap["prepared_fallbacks"],
        )
        # the gateway path must at least not regress
        assert prep_s <= fresh_s * 1.1
    finally:
        prep_gw.shutdown(drain=False)
        fresh_gw.shutdown(drain=False)
