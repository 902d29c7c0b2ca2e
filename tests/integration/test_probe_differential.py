"""C3 probes on the indexed executor, held against the row-engine oracle.

Rule C3 (paper §5.4, Example 4.4) accepts a query conditionally once a
probe on the remainder is non-empty in the current state.
``Database.probe_exists`` answers a probe on the vectorized executor,
whose scans probe hash indexes; the checker runs each distinct probe
plan once per check.  Here every probe a check runs is also run on the
row engine, and the two must agree on emptiness or raise the same error
type.  The probes come from the paper's queries, from the soundness
property's random states and from the C3 requests of the E22
``portal_cold`` and ``mixed_rw`` rounds.

The second half pins that nothing observable moved: every decision,
including its ``\\explain`` fields, equals the one taken with the row
engine and no memo; a cancelled probe caches nothing; a failing probe
fails the check closed.
"""

import copy
import importlib.util
import pathlib
import sys

import pytest
from hypothesis import given, settings

import repro.db
from repro.algebra import ops
from repro.algebra.rewrite import push_selections
from repro.cluster import ClusterCoordinator
from repro.db import Database, _QueryContext
from repro.engine import make_executor
from repro.engine.vectorized import VectorizedExecutor
from repro.errors import ExecutionError, QueryCancelled, ReproError
from repro.instrument import COUNTERS
from repro.nontruman.checker import ValidityChecker
from repro.prepared.pipeline import context_key, decide
from repro.service.context import QueryContext
from repro.sql import ast, parse_query

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA
from tests.integration import test_chaos, test_decision_cache
from tests.integration import test_paper_examples
from tests.integration.test_differential_engines import PAPER_QUERIES
from tests.integration.test_prepared_differential import AUTH_VIEWS
from tests.property.test_prop_soundness import build_db, database_state, query_text


def _load_e2e_workloads():
    """``benchmarks/e2e/workloads.py``, imported read-only by path."""
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/e2e/workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


e2e = _load_e2e_workloads()

COSTUDENT_VIEW = (
    "create authorization view CoStudentGrades as "
    "select Grades.student_id, Grades.course_id, Grades.grade "
    "from Grades, Registered "
    "where Registered.student_id = $user_id "
    "and Grades.course_id = Registered.course_id"
)
#: Example 4.4: conditionally valid once the registration probe is non-empty
COSTUDENT_SQL = "select * from Grades where course_id = 'CS101'"


def row_oracle(db, plan, session) -> bool:
    return len(db.run_plan(plan, session, engine="row").rows) > 0


@pytest.fixture
def probe_log(monkeypatch):
    """Every probe answered by ``probe_exists`` is re-run on the row
    engine; the log records (plan, answer or error) per executed probe."""
    log = []
    indexed = Database.probe_exists

    def differential(self, plan, session, ctx=None):
        try:
            expected = row_oracle(self, plan, session)
        except ReproError as oracle_error:
            with pytest.raises(ReproError) as raised:
                indexed(self, plan, session, ctx)
            assert type(raised.value) is type(oracle_error), plan
            log.append((plan, oracle_error))
            raise
        answer = indexed(self, plan, session, ctx)
        assert answer == expected, plan
        log.append((plan, answer))
        return answer

    monkeypatch.setattr(Database, "probe_exists", differential)
    return log


def probed_relations(log) -> set:
    names = set()
    for plan, _ in log:
        node = plan
        while not isinstance(node, (ops.Rel, ops.ViewRel)):
            node = node.child
        names.add(node.name)
    return names


def university(db=None):
    db = db if db is not None else Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute_script(AUTH_VIEWS)
    db.execute(COSTUDENT_VIEW)
    for view in ("MyGrades", "MyRegistrations", "AvgGrades", "AllStudents",
                 "FeesPaidView", "CoStudentGrades"):
        db.grant_public(view)
    return db


def _costudent_db():
    db = university()
    db.table("Registered").create_index(("student_id",))
    return db


# -- the 13 paper queries ----------------------------------------------------


@pytest.fixture(scope="module")
def paper_db():
    return _costudent_db()


@pytest.mark.parametrize("sql", PAPER_QUERIES, ids=range(len(PAPER_QUERIES)))
def test_paper_query_as_a_probe(paper_db, sql):
    """Each paper query's plan, bare and under a probe's constant
    projection, answers non-emptiness as the row engine does."""
    session = paper_db.connect(user_id="11").session
    plan = paper_db.plan_query(parse_query(sql), session)
    probe = ops.Project(plan, ((ast.Literal(1), "one"),))
    expected = row_oracle(paper_db, plan, session)
    assert paper_db.probe_exists(plan, session) is expected
    assert paper_db.probe_exists(probe, session) is expected


def test_paper_queries_checked(paper_db, probe_log):
    conn = paper_db.connect(user_id="11", mode="non-truman")
    decisions = [conn.check_validity(sql) for sql in PAPER_QUERIES + [COSTUDENT_SQL]]
    assert decisions[-1].conditional, decisions[-1].describe()
    # Example 4.4's registration probe and Example 4.1's group-existence
    # probe over the aggregate view both ran through the differential
    assert {"Registered", "AvgGrades"} <= probed_relations(probe_log)
    assert any(answer is False for _, answer in probe_log)  # CS103: empty group


def test_probes_on_a_sharded_table(probe_log):
    """Partition pruning and the partitioned index answer the probe."""
    db = university(ClusterCoordinator(shards=2, replicas=0))
    db.table("Registered").create_index(("student_id",))
    conn = db.connect(user_id="11", mode="non-truman")
    assert conn.check_validity(COSTUDENT_SQL).conditional
    assert not conn.check_validity(
        "select * from Grades where course_id = 'CS103'"
    ).valid
    assert "Registered" in probed_relations(probe_log)


# -- the soundness property's states (seeded slice) ----------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=database_state(), sql=query_text())
def test_random_states(state, sql):
    db = build_db(*state)
    for table in ("Grades", "Registered"):
        db.table(table).create_index(("student_id",))
    session = db.connect(user_id="11", mode="non-truman").session
    checker = ValidityChecker(db)
    indexed = db.probe_exists

    def differential(plan, session, ctx=None):
        answer = indexed(plan, session, ctx)
        assert answer == row_oracle(db, plan, session), (sql, plan)
        return answer

    db.probe_exists = differential
    checker.check(parse_query(sql), session)


# -- the E22 C3 requests ------------------------------------------------------


@pytest.mark.parametrize("name", ["portal_cold", "mixed_rw"])
def test_e22_costudent_and_rejected_requests(name, probe_log):
    """Warm-up and first measured round of seed 1, replayed in order:
    writes apply, costudent/rejected reads are checked."""
    workload = e2e.WORKLOADS[name]
    db = e2e.build_database(workload)
    rounds = e2e.plan_rounds(workload, db, seed=1)
    checked = 0
    for request in rounds[0] + rounds[1]:
        conn = db.connect(user_id=request.user, mode=request.mode)
        if request.write:
            conn.execute(request.sql)
        elif request.cls in ("costudent", "rejected"):
            decision = conn.check_validity(request.sql)
            assert decision.valid is (request.expect == "ok"), request
            checked += 1
    assert checked > 40
    assert probe_log and all(isinstance(a, bool) for _, a in probe_log)


def test_one_mixed_rw_costudent_check():
    """A costudent re-check derives three probes; ``Registered`` twice.
    The memo runs it once, and its ``student_id`` index fetches the
    user's 4 registrations instead of scanning all 800.  The
    ``Grades.course_id`` probe has no index to use and still scans the
    whole 654-row table."""
    workload = e2e.WORKLOADS["mixed_rw"]
    db = e2e.build_database(workload)
    request = next(
        r for r in e2e.plan_rounds(workload, db, seed=1)[1] if r.cls == "costudent"
    )
    session = db.connect(user_id=request.user, mode="non-truman").session

    derived = []
    run_probe = ValidityChecker._run_probe
    executors = []
    build = repro.db.make_executor

    def recording_run_probe(self, plan, *args):
        derived.append(plan)
        return run_probe(self, plan, *args)

    def recording_build(*args, **kwargs):
        executors.append(build(*args, **kwargs))
        return executors[-1]

    before = COUNTERS.snapshot()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ValidityChecker, "_run_probe", recording_run_probe)
        patch.setattr(repro.db, "make_executor", recording_build)
        decision = ValidityChecker(db).check(parse_query(request.sql), session)
    assert decision.conditional
    assert decision.probes_executed == 1  # derivation count: unchanged
    assert len(derived) == 3
    assert COUNTERS.delta_since(before)["validity.probe"] == 2

    def row_engine_scan(plan):
        executor = make_executor("row", _QueryContext(db, session))
        executor.execute(push_selections(plan))
        return executor.rows_scanned

    assert [row_engine_scan(p) for p in derived] == [800, 654, 800]
    assert [e.rows_scanned for e in executors] == [4, 654]


# -- decisions unchanged ------------------------------------------------------


class _RowEngineProbes(ValidityChecker):
    """The reference: every derivation probe runs in full on the row
    engine, no memo."""

    def _run_probe(self, plan, session, ctx, memo):
        return row_oracle(self.db, plan, session)


def _observable(decision):
    return (
        decision.validity,
        decision.reason,
        decision.views_used,
        decision.probes_executed,
        decision.describe(),
    )


@pytest.fixture
def shadowed(monkeypatch):
    """Every fresh check is repeated with :class:`_RowEngineProbes` and
    must take the identical decision.  A check that raced a write or a
    policy change (the chaos storm churns grants) is not compared."""
    check_fresh = ValidityChecker.check
    compared = []

    def stamp(db):
        return (db.validity_cache.data_version, db.grants.version,
                db.catalog.schema_version)

    def shadow(self, query, session, ctx=None):
        before = stamp(self.db)
        decision = check_fresh(self, query, session, ctx)
        reference_checker = copy.copy(self)
        reference_checker.__class__ = _RowEngineProbes
        reference = check_fresh(reference_checker, query, session)
        if stamp(self.db) == before:
            assert _observable(decision) == _observable(reference), str(query)
            compared.append(decision)
        return decision

    monkeypatch.setattr(ValidityChecker, "check", shadow)
    return compared


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_decisions_unchanged_across_the_coherence_storm(seed, shadowed):
    test_decision_cache.test_every_served_decision_equals_a_fresh_check(seed)
    assert any(d.conditional for d in shadowed)


def test_decisions_unchanged_across_the_prepared_chaos_storm(shadowed):
    test_chaos.TestPreparedChaosStorm().test_storm_no_stale_plans_no_cross_user_rows()
    assert shadowed


def test_decisions_unchanged_across_the_paper_examples(shadowed):
    for cls in vars(test_paper_examples).values():
        if not (isinstance(cls, type) and cls.__name__.startswith("Test")):
            continue
        for name in sorted(vars(cls)):
            if name.startswith("test_"):
                instance = cls()
                if hasattr(instance, "setup_method"):
                    instance.setup_method()
                getattr(instance, name)()
    assert sum(d.probes_executed for d in shadowed) >= 3


# -- failures -------------------------------------------------------------


def test_cancelled_probe_caches_nothing(monkeypatch):
    db = _costudent_db()
    session = db.connect(user_id="11", mode="non-truman").session
    request_ctx = QueryContext(check_interval=1)
    indexed = Database.probe_exists
    finished = []

    def cancelled_mid_probe(self, plan, session, ctx=None):
        assert ctx is request_ctx
        ctx.cancel()  # the executor's next tick observes it
        finished.append(indexed(self, plan, session, ctx))
        return finished[-1]

    monkeypatch.setattr(Database, "probe_exists", cancelled_mid_probe)
    query = parse_query(COSTUDENT_SQL)
    with pytest.raises(QueryCancelled):
        decide(db, session, query, context=context_key(session), ctx=request_ctx)
    assert finished == []  # the probe itself raised
    monkeypatch.undo()
    again = decide(db, session, query, context=context_key(session))
    assert not again.from_cache and again.conditional
    assert db.validity_cache.hits == 0


def test_failing_probe_fails_closed(monkeypatch):
    db = _costudent_db()
    session = db.connect(user_id="11", mode="non-truman").session

    def broken(self, plan):
        raise ExecutionError("probe failed")

    monkeypatch.setattr(VectorizedExecutor, "execute", broken)
    query = parse_query(COSTUDENT_SQL)
    with pytest.raises(ExecutionError, match="probe failed"):
        decide(db, session, query, context=context_key(session))
    monkeypatch.undo()
    assert not decide(db, session, query, context=context_key(session)).from_cache


def test_identical_probes_run_once_per_check():
    """The memo lives for one check: a second check probes again."""
    db = _costudent_db()
    session = db.connect(user_id="11", mode="non-truman").session
    checker = ValidityChecker(db)
    before = COUNTERS.snapshot()
    first = checker.check(parse_query(COSTUDENT_SQL), session)
    second = checker.check(parse_query(COSTUDENT_SQL), session)
    assert first.probes_executed == second.probes_executed == 1
    assert COUNTERS.delta_since(before)["validity.probe"] == 4
