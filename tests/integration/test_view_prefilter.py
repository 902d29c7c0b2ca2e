"""A prefilter copied into a view body discloses nothing through errors.

Selection pushdown copies a WHERE conjunct over a view's columns into
the view body (``ops.Prefilter``), where the copy also meets the rows
the view hides.  The copy must be lenient: it drops rows it finds FALSE
or UNKNOWN and keeps rows it raises on, and the conjunct itself still
runs above the view.  So for

    select * from CoStudentGrades where 1 / (grade - g) > 0

user ``'10'`` sees ``division by zero`` exactly when some grade equal to
``g`` is visible to them.  A strict copy would also raise for the grade
values only hidden rows hold, on every path below.
"""

import pytest

from repro.algebra import ops
from repro.cluster import ClusterCoordinator
from repro.errors import ExecutionError, QueryTimeout
from repro.service import EnforcementGateway, QueryRequest
from repro.service.request import RequestStatus
from repro.sql import parse_query
from repro.workloads.university import build_university

USER = "10"
MODES = ("non-truman", "truman")
ENGINES = ("row", "vectorized")


def probe_sql(grade: float) -> str:
    return f"select * from CoStudentGrades where 1 / (grade - {grade}) > 0"


def grade_split(db):
    """(every grade value, the values user 10 sees through the view)."""
    everything = {
        row[0] for row in db.execute_query("select grade from Grades").rows
    } - {None}
    conn = db.connect(USER, mode="non-truman")
    visible = {row[0] for row in conn.query("select grade from CoStudentGrades").rows}
    return sorted(everything), visible


@pytest.fixture(scope="module")
def university():
    db = build_university()
    grades, visible = grade_split(db)
    # the disclosure needs grade values only hidden rows hold
    assert set(grades) - visible, "fixture hides no grade value"
    return db, grades, visible


def raises(run) -> bool:
    try:
        run()
    except ExecutionError as exc:
        assert "division by zero" in str(exc)
        return True
    return False


def test_the_copy_is_a_prefilter_below_the_join(university):
    db, grades, _ = university
    session = db.connect(USER).session
    plan = db.plan_query(parse_query(probe_sql(grades[0])), session)
    (join,) = [node for node in ops.walk(plan) if isinstance(node, ops.Join)]
    prefilters = [node for node in ops.walk(join) if isinstance(node, ops.Prefilter)]
    assert len(prefilters) == 1, plan.pretty()
    assert "Grades.grade" in str(prefilters[0].predicate)
    # the conjunct itself still runs above the view, strictly
    above = [
        node
        for node in ops.walk(plan)
        if isinstance(node, ops.Select) and "CoStudentGrades" in str(node.predicate)
    ]
    assert above, plan.pretty()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("prepared", [False, True])
def test_database_raises_only_for_visible_grades(university, mode, engine, prepared):
    db, grades, visible = university
    session = db.connect(USER).session
    raised = {
        grade
        for grade in grades
        if raises(
            lambda: db.execute_query(
                probe_sql(grade), session, mode=mode, engine=engine,
                prepared=prepared,
            )
        )
    }
    assert raised == set(grades) & visible


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_gateway_raises_only_for_visible_grades(university, mode, engine):
    """The first request builds the template, the second hits it and
    runs the plan with the literal bound into the copy."""
    db, grades, visible = university
    gateway = EnforcementGateway(db, workers=1)
    try:
        for attempt in ("build", "hit"):
            before = db.prepared.stats()["prepared_hits"]
            raised = set()
            for grade in grades:
                response = gateway.execute(
                    QueryRequest(user=USER, sql=probe_sql(grade), mode=mode,
                                 engine=engine)
                )
                if response.status is RequestStatus.ERROR:
                    assert "division by zero" in response.error
                    raised.add(grade)
                else:
                    assert response.status is RequestStatus.OK, response.error
            assert raised == set(grades) & visible, attempt
            hits = db.prepared.stats()["prepared_hits"] - before
            assert hits >= (len(grades) if attempt == "hit" else len(grades) - 1)
    finally:
        gateway.shutdown(drain=False)


@pytest.fixture(scope="module")
def cluster():
    db = build_university(db=ClusterCoordinator(shards=4))
    grades, visible = grade_split(db)
    return db, grades, visible


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_cluster_raises_only_for_visible_grades(cluster, mode, engine):
    db, grades, visible = cluster
    session = db.connect(USER).session
    raised = {
        grade
        for grade in grades
        if raises(
            lambda: db.execute_query(
                probe_sql(grade), session, mode=mode, engine=engine
            )
        )
    }
    assert raised == set(grades) & visible


class TestLeniency:
    """What a prefilter does with an error, on both engines: a row it
    raises on is kept, and only a query abort propagates."""

    PLAN = ops.Prefilter(
        ops.Rel("Students", "Students", ("student_id", "name", "type")),
        parse_query("select 1 where Students.type = 'PartTime'").where,
    )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drops_false_keeps_true(self, university, engine):
        db = university[0]
        rows = db.run_plan(self.PLAN, db.connect().session, engine=engine).rows
        assert rows and all(row[2] == "PartTime" for row in rows)
        assert len(rows) < len(db.execute_query("select * from Students").rows)

    @pytest.mark.parametrize(
        "error", [ExecutionError("boom"), ZeroDivisionError()]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_keeps_rows_it_raises_on(self, university, monkeypatch, engine, error):
        db = university[0]
        raise_on_evaluation(monkeypatch, engine, error)
        rows = db.run_plan(self.PLAN, db.connect().session, engine=engine).rows
        assert len(rows) == len(db.execute_query("select * from Students").rows)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_abort_propagates(self, university, monkeypatch, engine):
        db = university[0]
        raise_on_evaluation(monkeypatch, engine, QueryTimeout("late"))
        with pytest.raises(QueryTimeout):
            db.run_plan(self.PLAN, db.connect().session, engine=engine)


def raise_on_evaluation(monkeypatch, engine, error):
    """Make every predicate evaluation of ``engine`` raise ``error``:
    the vectorized kernels, and the row evaluator both engines decide
    single rows with."""
    from repro.engine.evaluator import Evaluator
    from repro.engine.vectorized.executor import VectorizedExecutor

    def raising(*args):
        raise error

    monkeypatch.setattr(Evaluator, "evaluate", raising)
    if engine == "vectorized":
        monkeypatch.setattr(
            VectorizedExecutor, "_compile", lambda self, expr, columns: raising
        )
