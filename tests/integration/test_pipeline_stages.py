"""The request pipeline, pinned from outside.

Two contracts of ``EnforcementGateway._serve`` (authorize -> phase
boundary -> execute; DESIGN.md "Request pipeline"):

* **the tracing surface** — ``benchmarks/e2e/tracing.py`` measures each
  layer by wrapping named attributes (``tracing.PATCHES``).  The file is
  frozen by the benchmark contract, so the names it patches, and the
  fact that the serving path calls *through* them, are an interface of
  ``src/``.  ``SPANS`` is the exact multiset of spans one request emits
  per request kind; a refactor that bypasses a patched name (an early
  ``from x import y`` binding, a renamed module global) or adds a stage
  invocation shows up as a changed count.
* **parity** — the in-process API, a fresh gateway, a prepared gateway
  (cold build and hot hit) and a replica-served read answer every paper
  query under every mode with the same status, rows, columns, error
  text and decision.
"""

import collections
import importlib
import pathlib
import sys

import pytest

from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.db import Database
from repro.errors import QueryRejectedError, ReproError
from repro.service import EnforcementGateway, QueryRequest

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA
from tests.integration.test_differential_engines import PAPER_QUERIES
from tests.integration.test_prepared_differential import AUTH_VIEWS

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))  # tracing.py imports its siblings by bare name
try:
    tracing = importlib.import_module("tracing")
finally:
    sys.path.remove(str(E2E))

VIEWS = ("MyGrades", "MyRegistrations", "AvgGrades", "AllStudents", "FeesPaidView")


def university(db=None):
    db = db if db is not None else Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute_script(AUTH_VIEWS)
    for view in VIEWS:
        db.grant_public(view)
    db.set_truman_view("Grades", "MyGrades")
    db.set_truman_view("Registered", "MyRegistrations")
    return db


def cluster():
    """2 shards, 1 caught-up replica: every replica-eligible read is
    served there."""
    db = university(ClusterCoordinator(shards=2, replicas=1))
    db.sync_replicas()
    return db


# -- the tracing surface ---------------------------------------------------


def test_every_patched_name_resolves():
    for owner, attribute, _span, _note in tracing.PATCHES:
        assert callable(getattr(owner, attribute)), (owner, attribute)


def spans_of(gateway, sql, mode="non-truman", user="11"):
    """Span names -> counts for one request through ``gateway.execute``."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        response = gateway.execute(QueryRequest(user=user, sql=sql, mode=mode))
    return response, dict(collections.Counter(span[0] for span in tracer.spans))


ACCEPT = "select grade from Grades where student_id = '11'"
REJECT = "select grade from Grades where student_id = '12'"
INSERT = "insert into FeesPaid values ('12')"

#: request kind -> (sql, mode, status, exact span counts), recorded at
#: the parent of the PR that introduced ``_serve``.  The only values
#: that moved with it are the ``sql.parse`` counts marked "was 2": the
#: audit record used to re-parse every statement whose response carried
#: no signature.
SPANS = {
    "nontruman_accept_cold": (ACCEPT, "non-truman", "ok", {
        "sql.parse": 1, "prepared.signature": 1, "prepared.template": 1,
        "algebra.plan": 1, "nontruman.check": 1, "prepared.bind": 1,
        "engine.run_plan": 1, "service.audit": 1,
    }),
    "nontruman_accept_hot": (ACCEPT, "non-truman", "ok", {
        "prepared.template": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "nontruman_reject_cold": (REJECT, "non-truman", "rejected", {
        "sql.parse": 1, "prepared.signature": 1, "prepared.template": 1,
        "algebra.plan": 1, "nontruman.check": 1, "service.audit": 1,
    }),
    "truman_cold": (ACCEPT, "truman", "ok", {
        "sql.parse": 1, "prepared.signature": 1, "prepared.template": 1,
        "truman.rewrite": 1, "algebra.plan": 1, "prepared.bind": 1,
        "engine.run_plan": 1, "service.audit": 1,
    }),
    "truman_hot": (ACCEPT, "truman", "ok", {
        "prepared.template": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "open_cold": (ACCEPT, "open", "ok", {
        "sql.parse": 1, "prepared.signature": 1, "prepared.template": 1,
        "algebra.plan": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "motro_cold": (ACCEPT, "motro", "ok", {
        "sql.parse": 1,  # was 2
        "algebra.plan": 1, "engine.run_plan": 1, "service.audit": 1,
    }),
    "dml_cold": (INSERT, "open", "ok", {
        "sql.parse": 1,  # was 2
        "updates.write": 1, "service.audit": 1,
    }),
    "parse_error_cold": ("selec nothing", "non-truman", "error", {
        "sql.parse": 1,  # was 2
        "service.audit": 1,
    }),
    # prepared_statements=False, the differential reference: parse ->
    # check -> plan every time; a repeat is answered from the decision
    # cache but still parses and plans
    "unprepared_cold": (ACCEPT, "non-truman", "ok", {
        "sql.parse": 1,  # was 2
        "nontruman.check": 1, "algebra.plan": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "unprepared_hot": (ACCEPT, "non-truman", "ok", {
        "sql.parse": 1,  # was 2
        "algebra.plan": 1, "engine.run_plan": 1, "service.audit": 1,
    }),
    # a 2-shard/1-replica cluster: the replica decides and executes on
    # its own Database, whose in-process API templates the authorized
    # query under open mode; the gateway's template and decision caches
    # are not consulted, so the check repeats
    "replica_nontruman_cold": (ACCEPT, "non-truman", "ok", {
        "sql.parse": 1, "prepared.signature": 1, "nontruman.check": 1,
        "algebra.plan": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "replica_nontruman_hot": (ACCEPT, "non-truman", "ok", {
        "nontruman.check": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
    "replica_truman_hot": (ACCEPT, "truman", "ok", {
        "truman.rewrite": 1, "prepared.bind": 1, "engine.run_plan": 1,
        "service.audit": 1,
    }),
}


@pytest.mark.parametrize("kind", SPANS)
def test_spans_of_one_request(kind):
    sql, mode, status, expected = SPANS[kind]
    db = cluster() if kind.startswith("replica") else university()
    prepared = not kind.startswith("unprepared")
    with EnforcementGateway(db, workers=1, prepared_statements=prepared) as gateway:
        if kind.endswith("_hot"):
            assert gateway.execute(QueryRequest(user="11", sql=sql, mode=mode)).ok
        before = gateway.stats()
        response, spans = spans_of(gateway, sql, mode)
        after = gateway.stats()
    assert response.status.value == status, response.error
    assert spans == expected
    assert (response.replica is not None) == kind.startswith("replica")
    # the flags say which tiers answered: a template (the gateway's own,
    # so never on a replica) and the gateway's decision cache, which a
    # Non-Truman request on the primary looks up exactly once
    assert response.prepared == ("prepared.template" in expected)
    hits, misses = (after[key] - before[key] for key in ("cache_hits", "cache_misses"))
    assert response.cache_hit == bool(hits)
    assert (hits, misses) == {
        "nontruman_accept_cold": (0, 1),
        "nontruman_accept_hot": (1, 0),
        "nontruman_reject_cold": (0, 1),
        "unprepared_cold": (0, 1),
        "unprepared_hot": (1, 0),
    }.get(kind, (0, 0))


# -- one parity matrix -------------------------------------------------------


def observe_api(db, sql, mode):
    """``Database.execute_query`` in the shape of a gateway response."""
    try:
        result = db.execute_query(sql, session=SessionContext(user_id="11"), mode=mode)
    except QueryRejectedError as exc:
        return ("rejected", (), [], str(exc), exc.decision.validity, exc.decision.reason)
    except ReproError as exc:
        return ("error", (), [], str(exc), None, None)
    decision = db.check_validity(sql, SessionContext(user_id="11")) if mode == "non-truman" else None
    return (
        "ok", tuple(result.columns), list(result.rows), None,
        decision and decision.validity, decision and decision.reason,
    )


def observe(gateway, sql, mode):
    response = gateway.execute(QueryRequest(user="11", sql=sql, mode=mode))
    decision = response.decision
    return response, (
        response.status.value, tuple(response.columns), list(response.rows),
        response.error, decision and decision.validity, decision and decision.reason,
    )


@pytest.fixture(scope="module")
def paths():
    gateways = {
        "fresh": EnforcementGateway(university(), workers=1, prepared_statements=False),
        "prepared": EnforcementGateway(university(), workers=1),
        "replica": EnforcementGateway(cluster(), workers=1),
    }
    yield university(), gateways
    for gateway in gateways.values():
        gateway.shutdown(drain=True)


@pytest.mark.parametrize("mode", ["non-truman", "truman", "open"])
@pytest.mark.parametrize("sql", PAPER_QUERIES, ids=range(len(PAPER_QUERIES)))
def test_every_path_answers_alike(paths, sql, mode):
    db, gateways = paths
    expected = observe_api(db, sql, mode)
    for name, gateway in gateways.items():
        for attempt in ("cold", "hot"):
            response, observed = observe(gateway, sql, mode)
            assert observed == expected, (name, attempt)
            assert (response.replica is not None) == (name == "replica")
            assert response.prepared == (name == "prepared")
