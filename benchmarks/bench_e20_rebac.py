"""E20 — relationship-tuple policies compiled to views (repro.rebac).

The ReBAC subsystem's pitch is that tuple-graph policies cost nothing
at query time: the closure compiler materializes who-can-what into the
``RebacGrants`` relation up front, so the Non-Truman checker sees
ordinary authorization views and a deep delegation chain prices the
same as a direct grant.  E20 measures the compile side and stress-tests
the consistency side:

Gates:

* the closure fixpoint over the collab graph — and a 4x larger one —
  compiles within the budget, and recompiles are *incremental* (one
  recompile per tuple write, never a from-scratch policy redeploy);
* checking a query justified by a 10-link tuple chain is as cheap as a
  1-link check (same views, same probes), and the decision cache
  serves repeats without re-probing;
* a revoke-tuple storm racing gateway reads over a replicated cluster
  serves **zero** stale answers — the epoch gate holds for tuple
  writes exactly as it does for grant/revoke DDL.
"""

import os
import threading
import time

import pytest

from repro.authviews.session import SessionContext
from repro.bench import Experiment, time_callable
from repro.cluster import ClusterCoordinator
from repro.errors import QueryRejectedError
from repro.prepared import context_key, decide
from repro.rebac.compiler import compute_closure
from repro.rebac.trace import explain_query
from repro.service import EnforcementGateway, QueryRequest
from repro.sql import parse_statement
from repro.workloads.collab import (
    CollabConfig,
    build_collab,
    collab_namespace,
    user_name,
)

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E20",
        title="rebac: tuple policies compiled to authorization views",
        claim="§3.3/§6 — policy as data: closure compilation moves graph traversal out of the query path; epoch gating keeps tuple revokes stale-free",
    )
)

#: compile budget for the scaled-up graph (seconds); CI runners get slack
CLOSURE_BUDGET_S = 5.0 if os.environ.get("REPRO_BENCH_CI") else 2.0

SMALL = CollabConfig()
LARGE = CollabConfig(
    teams=8, users_per_team=8, folder_depth=12, documents=96, seed=11
)
TIME = SMALL.base_time


@pytest.fixture(scope="module")
def collab_db():
    return build_collab(SMALL)


def test_compile_cost(collab_db):
    """Closure compilation cost at two graph scales.  The fixpoint over
    the 4x graph must clear the budget, and attaching the policy must
    have materialized exactly the closure's grant rows."""
    namespace = collab_namespace()
    rows = []
    for label, config in (("collab 4x4x8", SMALL), ("collab 8x8x12", LARGE)):
        db = build_collab(config) if config is not SMALL else collab_db
        snapshot = db.rebac.store.snapshot()
        closure_s, _ = time_callable(
            lambda: compute_closure(namespace, snapshot), repeat=3
        )
        stats = db.rebac.stats()
        (grant_rows,) = db.execute(
            "select count(*) from RebacGrants", sync=False
        ).rows[0]
        EXPERIMENT.add(
            label,
            tuples=stats["rebac_tuples"],
            grant_rows=grant_rows,
            views=stats["rebac_views"],
            closure_ms=round(closure_s * 1000, 2),
        )
        rows.append((closure_s, grant_rows, stats["rebac_grant_rows"]))
    for closure_s, materialized, tracked in rows:
        assert materialized == tracked
    assert rows[-1][0] <= CLOSURE_BUDGET_S, (
        f"closure over the scaled graph took {rows[-1][0]:.2f}s, over the "
        f"{CLOSURE_BUDGET_S:.1f}s budget"
    )


def test_deep_chain_check_latency(collab_db):
    """A 10-link delegation chain prices like a direct grant: both
    compile to the same one-view rewriting, so probe counts match and
    the decision cache covers repeats of either."""
    deep_user = user_name(0, 0)  # reaches d0 through 10 tuple links
    direct_user = "bench_direct"
    collab_db.rebac.write_tuple(
        "document:d0", "viewer", f"user:{direct_user}"
    )
    sql = "select title from Documents where doc_id = 'd0'"
    query = parse_statement(sql)

    def explain(user):
        return explain_query(
            collab_db, sql, SessionContext(user_id=user, time=TIME)
        )

    def check(user):
        session = SessionContext(user_id=user, time=TIME)
        return decide(collab_db, session, query, context=context_key(session))

    try:
        deep = explain(deep_user)
        direct = explain(direct_user)
        assert deep.valid and direct.valid
        assert len(deep.chains[0].chain) == 10
        assert len(direct.chains[0].chain) == 1
        assert deep.views_used == direct.views_used
        assert deep.probes_executed == direct.probes_executed
        check(deep_user), check(direct_user)  # populate
        assert check(deep_user).from_cache and check(direct_user).from_cache

        deep_s, _ = time_callable(lambda: check(deep_user), repeat=5)
        direct_s, _ = time_callable(lambda: check(direct_user), repeat=5)
    finally:
        collab_db.rebac.delete_tuple(
            "document:d0", "viewer", f"user:{direct_user}"
        )
    EXPERIMENT.add(
        "validity check, 10-link chain vs direct grant",
        chain_links=10,
        probes=deep.probes_executed,
        deep_check_ms=round(deep_s * 1000, 3),
        direct_check_ms=round(direct_s * 1000, 3),
    )


def test_epoch_churn_invalidation_storm():
    """Tuple churn recompiles incrementally: one recompile per write,
    the cluster's policy epoch bumps in lockstep, and the post-storm
    answers are exact."""
    db = build_collab(SMALL, db=ClusterCoordinator(shards=2, replicas=1))
    db.sync_replicas()
    user = "bench_churn"
    subject = f"user:{user}"
    sql = "select title from Documents where doc_id = 'd0'"
    session = SessionContext(user_id=user, time=TIME)
    cycles = 40
    recompiles_before = db.rebac.recompiles
    epoch_before = db.policy_epoch

    start = time.perf_counter()
    for _ in range(cycles):
        db.rebac.write_tuple("document:d0", "viewer", subject)
        db.rebac.delete_tuple("document:d0", "viewer", subject)
    elapsed = time.perf_counter() - start

    writes = 2 * cycles
    recompiles = db.rebac.recompiles - recompiles_before
    epochs = db.policy_epoch - epoch_before
    EXPERIMENT.add(
        f"tuple churn, {writes} writes",
        tuple_writes=writes,
        recompiles=recompiles,
        epoch_bumps=epochs,
        writes_per_s=round(writes / elapsed),
    )
    assert recompiles == writes
    assert epochs == writes
    # churned user ends revoked; the standing 10-link chain still holds
    with pytest.raises(QueryRejectedError):
        db.execute_query(sql, session=session, mode="non-truman")
    assert db.execute_query(
        sql,
        session=SessionContext(user_id=user_name(0, 0), time=TIME),
        mode="non-truman",
    ).rows == [("plan 0",)]


def test_revoke_tuple_storm_zero_stale():
    """The acceptance gate: tuple grant/revoke churn racing routed
    reads on a sharded, replicated cluster — with replication shippers
    flapping — serves zero stale answers."""
    db = build_collab(SMALL, db=ClusterCoordinator(shards=2, replicas=2))
    db.sync_replicas()
    user = "bench_storm"
    subject = f"user:{user}"
    gateway = EnforcementGateway(db, workers=4)
    state_lock = threading.Lock()
    state = [0, False]  # (flip counter, currently granted)
    stop = threading.Event()

    def snapshot():
        with state_lock:
            return state[0], state[1]

    def churn():
        while not stop.is_set():
            with state_lock:
                db.rebac.write_tuple("document:d0", "viewer", subject)
                state[0] += 1
                state[1] = True
            time.sleep(0.0005)
            with state_lock:
                db.rebac.delete_tuple("document:d0", "viewer", subject)
                state[0] += 1
                state[1] = False
            time.sleep(0.0005)

    def pause_wiggle():
        while not stop.is_set():
            for shipper in db.shippers:
                shipper.paused = not shipper.paused
            time.sleep(0.002)

    reads = 200
    stale = served_ok = replica_served = 0
    churner = threading.Thread(target=churn, daemon=True)
    wiggler = threading.Thread(target=pause_wiggle, daemon=True)
    try:
        churner.start()
        wiggler.start()
        for i in range(reads):
            flips_before, granted_before = snapshot()
            response = gateway.execute(
                QueryRequest(
                    user=user,
                    sql="select title from Documents where doc_id = 'd0'",
                    mode="non-truman",
                    params={"time": TIME},
                    tag=f"e20-{i}",
                )
            )
            flips_after, _ = snapshot()
            if response.ok:
                served_ok += 1
                if response.replica is not None:
                    replica_served += 1
                if not granted_before and flips_after == flips_before:
                    stale += 1
    finally:
        stop.set()
        churner.join(timeout=10)
        wiggler.join(timeout=10)
        for shipper in db.shippers:
            shipper.paused = False
        gateway.shutdown(drain=False)
    EXPERIMENT.add(
        f"revoke-tuple storm, {reads} reads",
        reads=reads,
        served_ok=served_ok,
        replica_served=replica_served,
        stale_answers=stale,
    )
    assert stale == 0
