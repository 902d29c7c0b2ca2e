"""Differential testing: prepared execution vs the fresh pipeline.

Every query of the engine-differential case tables (the open-mode
catalog, the paper's worked examples, and the NULL/empty corners) runs
twice through the prepared-template path (cold build, then hot hit) and
once through the standard parse → check → plan path, under each
access-control mode.  The fresh path is the oracle: the prepared path
must be observationally identical — same rows *in the same order*, same
columns, same validity decisions, same rejection messages, and (at the
gateway) identical audit records.

Rejections matter as much as answers here: most catalog queries are
unanswerable from the Non-Truman auth views, and a cached template must
reject with byte-for-byte the same error as a fresh check.
"""

import pytest

from repro.db import Database
from repro.errors import QueryRejectedError, ReproError
from repro.instrument import COUNTERS
from repro.prepared import PREPARABLE_MODES

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA
from tests.integration.test_differential_engines import (
    CATALOG,
    PAPER_QUERIES,
    TestNullAndEmptyCorners,
)

NULL_CORNERS = TestNullAndEmptyCorners.QUERIES

AUTH_VIEWS = """
create authorization view MyGrades as
    select * from Grades where student_id = $user_id;
create authorization view MyRegistrations as
    select * from Registered where student_id = $user_id;
create authorization view AvgGrades as
    select course_id, avg(grade) as avg_grade from Grades
    group by course_id;
create authorization view AllStudents as
    select * from Students;
create authorization view FeesPaidView as
    select * from FeesPaid;
"""


def outcome(db, sql, session, mode, engine, prepared):
    """Terminal observable of one execution: rows or typed failure."""
    try:
        result = db.execute_query(
            sql, session=session, mode=mode, engine=engine, prepared=prepared
        )
    except QueryRejectedError as exc:
        return ("rejected", str(exc))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # pre-existing escapes (e.g. MatchError on
        # outer joins) must still be *identical* escapes on both paths
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", result.columns, list(result.rows))


def assert_prepared_matches_fresh(db, sql, session, mode, engine="row"):
    fresh = outcome(db, sql, session, mode, engine, prepared=False)
    cold = outcome(db, sql, session, mode, engine, prepared=True)
    hot = outcome(db, sql, session, mode, engine, prepared=True)
    assert cold == fresh, (
        f"cold prepared diverges on {sql!r} [{mode}/{engine}]:\n"
        f"  fresh: {fresh}\n  prep:  {cold}"
    )
    assert hot == fresh, (
        f"hot prepared diverges on {sql!r} [{mode}/{engine}]:\n"
        f"  fresh: {fresh}\n  prep:  {hot}"
    )
    return fresh


@pytest.fixture(scope="module")
def university():
    db = Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute_script(AUTH_VIEWS)
    for view in ("MyGrades", "MyRegistrations", "AvgGrades",
                 "AllStudents", "FeesPaidView"):
        db.grant_public(view)
    return db


@pytest.fixture(scope="module")
def corners_db():
    db = Database()
    db.execute("create table T(k int, v float, tag varchar(8))")
    db.execute("create table Empty(k int, v float)")
    db.execute("create table N(k int, v float)")
    db.execute_script(
        """
        insert into T values (1, 1.5, 'a');
        insert into T values (2, null, 'b');
        insert into T values (3, 2.5, null);
        insert into T values (null, null, 'c');
        insert into N values (null, null);
        insert into N values (null, null);
        """
    )
    return db


class TestCatalogDifferential:
    @pytest.mark.parametrize("sql", CATALOG, ids=range(len(CATALOG)))
    @pytest.mark.parametrize("mode", PREPARABLE_MODES)
    def test_modes(self, university, sql, mode):
        session = university.connect(user_id="11", mode=mode).session
        assert_prepared_matches_fresh(university, sql, session, mode)

    @pytest.mark.parametrize("sql", CATALOG, ids=range(len(CATALOG)))
    def test_vectorized_open(self, university, sql):
        session = university.connect(user_id="11", mode="open").session
        assert_prepared_matches_fresh(
            university, sql, session, "open", engine="vectorized"
        )


class TestPaperExamplesDifferential:
    @pytest.mark.parametrize(
        "sql", PAPER_QUERIES, ids=range(len(PAPER_QUERIES))
    )
    @pytest.mark.parametrize("mode", PREPARABLE_MODES)
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_modes(self, university, sql, mode, engine):
        session = university.connect(user_id="11", mode=mode).session
        assert_prepared_matches_fresh(
            university, sql, session, mode, engine=engine
        )

    def test_decisions_match_fresh(self, university):
        """The decision object a cached template serves must agree with
        a fresh check: same validity, same reason."""
        from repro.prepared.pipeline import (
            decide,
            get_or_build_template,
            resolve_signature,
        )

        session = university.connect(user_id="11", mode="non-truman").session
        for sql in PAPER_QUERIES:
            skeleton, literals, text = resolve_signature(university, sql)
            template, _ = get_or_build_template(
                university, skeleton, literals, session, "non-truman", text
            )
            first, again = (
                decide(
                    university,
                    session,
                    resolved=(skeleton, literals),
                    context=template.params_key[1],
                )
                for _ in range(2)
            )
            fresh = university.check_validity(sql, session)
            assert again.from_cache
            assert (first.validity, first.reason) == (
                fresh.validity,
                fresh.reason,
            )
            assert (again.validity, again.reason) == (
                fresh.validity,
                fresh.reason,
            )


class TestNullCornersDifferential:
    @pytest.mark.parametrize(
        "sql", NULL_CORNERS, ids=range(len(NULL_CORNERS))
    )
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_open(self, corners_db, sql, engine):
        session = corners_db.connect(mode="open").session
        assert_prepared_matches_fresh(
            corners_db, sql, session, "open", engine=engine
        )


class TestZeroWorkHit:
    """A hot template hit must do *no* parse, check, plan, or pushdown
    work — verified with the stage instrumentation counters."""

    def test_database_hot_hit(self, university):
        session = university.connect(user_id="11", mode="non-truman").session
        sql = "select grade from Grades where student_id = '11'"
        university.execute_query(
            sql, session=session, mode="non-truman", prepared=True
        )
        snapshot = COUNTERS.snapshot()
        result = university.execute_query(
            sql, session=session, mode="non-truman", prepared=True
        )
        delta = COUNTERS.delta_since(snapshot)
        assert result.rows
        assert delta.get("sql.parse", 0) == 0
        assert delta.get("validity.check", 0) == 0
        assert delta.get("plan.build", 0) == 0
        assert delta.get("plan.push", 0) == 0
        assert delta.get("prepared.bind") == 1


class TestGatewayAuditParity:
    """Two gateways over identical databases — one with prepared
    statements, one without — must write identical audit records."""

    AUDIT_FIELDS = ("user", "mode", "signature", "status", "decision",
                    "error")

    def _make_gateway(self, prepared):
        from repro.service import EnforcementGateway

        db = Database()
        db.execute_script(UNIVERSITY_SCHEMA)
        db.execute_script(UNIVERSITY_DATA)
        db.execute_script(AUTH_VIEWS)
        for view in ("MyGrades", "MyRegistrations", "AvgGrades",
                     "AllStudents", "FeesPaidView"):
            db.grant_public(view)
        return EnforcementGateway(
            db, workers=2, prepared_statements=prepared
        )

    def _record_key(self, record):
        return tuple(getattr(record, f) for f in self.AUDIT_FIELDS)

    def test_audit_records_identical(self):
        from repro.service import QueryRequest

        queries = PAPER_QUERIES + CATALOG[:10]
        with self._make_gateway(True) as prep_gw, \
                self._make_gateway(False) as fresh_gw:
            for sql in queries:
                for _ in range(2):  # cold + hot
                    for mode in PREPARABLE_MODES:
                        request = QueryRequest(
                            user="11", sql=sql, mode=mode
                        )
                        rp = prep_gw.execute(request)
                        rf = fresh_gw.execute(request)
                        assert rp.status == rf.status, (sql, mode)
                        assert rp.error == rf.error, (sql, mode)
                        assert rp.rows == rf.rows, (sql, mode)
            prep_records = [
                self._record_key(r) for r in prep_gw.audit.tail(10_000)
            ]
            fresh_records = [
                self._record_key(r) for r in fresh_gw.audit.tail(10_000)
            ]
            assert prep_records == fresh_records
