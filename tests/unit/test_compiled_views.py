"""Compiled authorization views (``repro.nontruman.compiled``).

A view compiled once with symbolic ``$params`` and bound to a session per
check must be *the same block* a fresh instantiation builds: blocks are
frozen dataclasses, so the test compares them directly (and the
subplans their equality skips, by rendering).  Every authorization view
of every fixture the project ships is covered, under sessions that
supply different values and one that lacks a parameter.
"""

import importlib.util
import pathlib
import sys
import threading
from dataclasses import replace
from time import sleep

import pytest

from repro.algebra.translate import Translator
from repro.authviews.session import SessionContext
from repro.authviews.views import AuthorizationView
from repro.catalog.constraints import TotalParticipation
from repro.db import Database
from repro.errors import ParameterError
from repro.instrument import COUNTERS
from repro.nontruman import compiled
from repro.nontruman.blocks import AggBlock
from repro.nontruman.checker import ValidityChecker
from repro.nontruman.compiled import blockify_view, compile_view
from repro.sql import parse_query
from repro.workloads.university import UniversityConfig, build_university

from benchmarks.bench_e3_views import build_db as build_e3_db
from tests.integration.test_decision_cache import SHIFT_VIEWS, storm_db
from tests.integration.test_rebac_system import mini_db

ROOT = pathlib.Path(__file__).resolve().parents[2]

SESSIONS = (
    SessionContext(user_id="11", time=5, location="lab"),
    SessionContext(user_id="alice", time=499.5, extra={"region": 2}),
    SessionContext(user_id="12"),  # no $time
    SessionContext(time=6),  # no $user_id
    SessionContext(),
)


def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, imported read-only by path."""
    name = "e2e_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmarks/e2e/workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name]


def access_pattern_db():
    db = Database()
    db.execute_script(
        """
        create table Regions(region_id int primary key, rname varchar(20));
        create table Stores(store_id int primary key, region_id int not null,
            owner varchar(20), foreign key (region_id) references Regions);
        create table Sales(sale_id int primary key, store_id int not null,
            amount float, day int, foreign key (store_id) references Stores);
        create authorization view AllRegions as select * from Regions;
        create authorization view StoresByRegion as
            select * from Stores where region_id = $$r;
        create authorization view MySalesByStore as
            select Sales.* from Sales, Stores
            where Sales.store_id = $$s and Stores.store_id = Sales.store_id
              and Stores.owner = $user_id and Sales.day <= $time;
        create authorization view RecentInRegion as
            select sale_id, amount from Sales
            where day between $time and $$until and store_id in
              (select store_id from Stores where region_id = $region);
        """
    )
    return db


def normalization_db():
    """Views whose bound conjuncts orient, sort or collapse differently
    than their symbolic forms."""
    db = build_university(UniversityConfig(students=6, courses=3))
    db.execute_script(
        """
        create authorization view InList as
            select * from Grades where student_id in ('9', $user_id, '10');
        create authorization view Dup as
            select * from Grades where student_id = $user_id
              and student_id = '11' and $user_id = student_id;
        create authorization view Flipped as
            select * from Grades where $user_id = student_id and $time < grade;
        create authorization view Ranged as
            select course_id, avg(grade) as g from Grades
            where grade between $time and 4.0 and not (student_id <> $user_id)
            group by course_id having avg(grade) > $time and count(*) >= $time;
        create authorization view Semi as
            select * from Grades where course_id in
              (select course_id from Registered where student_id = $user_id)
              and exists (select * from Registered where student_id = $user_id);
        create authorization view Opaque as
            select count(*) as n from
              (select distinct course_id from Registered
               where student_id = $user_id) r;
        create authorization view Both as
            select * from Grades where student_id = $user_id and grade > $$g;
        create view Mine as select * from Registered where student_id = $user_id;
        create authorization view ThroughOrdinary as
            select course_id from Mine where course_id <> $location;
        """
    )
    return db


def fixtures():
    yield "university", build_university(UniversityConfig(students=6, courses=3))
    e2e = e2e_workloads()
    for name, workload in e2e.WORKLOADS.items():
        # the views are what matters: a small instance of each fixture
        small = replace(workload, students=12)
        yield f"e2e-{name}", e2e.build_database(small)
    yield "rebac", mini_db()
    yield "time-views", storm_db()
    other_shift = storm_db()
    other_shift.execute("drop view CurrentShift")
    other_shift.execute(SHIFT_VIEWS[1])
    yield "time-views-alt", other_shift
    yield "access-pattern", access_pattern_db()
    yield "normalization", normalization_db()
    yield "e3", build_e3_db(12)


FIXTURES = dict(fixtures())


def fresh_candidate(db, view_def, session):
    """The per-check path compilation replaces: instantiate the view for
    the session, then translate and blockify it."""
    try:
        instantiated = AuthorizationView.from_def(view_def).instantiate(session)
    except ParameterError:
        return None
    translator = Translator(
        db.catalog,
        param_values=session.param_values(),
        view_filter=lambda v: not v.authorization,
        allow_access_params=True,
    )
    return blockify_view(translator, view_def, instantiated.query)


def subplans(candidate):
    block = candidate.block
    spj = block.inner if isinstance(block, AggBlock) else block
    return [repr(t.subplan) for t in spj.tables] + [
        repr(s.subplan) for s in spj.semijoins
    ]


@pytest.mark.parametrize("fixture", list(FIXTURES))
def test_bound_block_equals_fresh_instantiation(fixture):
    db = FIXTURES[fixture]
    views = [v for v in db.catalog.views() if v.authorization]
    assert views
    skipped = matched = 0
    for view_def in views:
        view = compile_view(db.catalog, view_def, db.catalog.schema_version)
        for session in SESSIONS:
            bound = view.bind(session.param_values())
            fresh = fresh_candidate(db, view_def, session)
            assert bound == fresh, (view_def.name, session)
            if fresh is None:
                skipped += 1
                continue
            matched += 1
            assert subplans(bound) == subplans(fresh), (view_def.name, session)
            assert "ctx:" not in repr(bound)
    assert matched
    if any(AuthorizationView.from_def(v).params for v in views):
        assert skipped  # a session lacking a parameter skips the view


def test_placeholders_stay_symbolic_until_bound():
    db = FIXTURES["normalization"]
    view_def = db.catalog.view("Both")
    view = compile_view(db.catalog, view_def, db.catalog.schema_version)
    assert view.params == {"user_id"}
    assert "$$ctx:user_id" in view.compiled.block.describe()
    bound = view.bind({"user_id": "11"})
    # the user's own $$ parameter survives binding; ours does not
    assert "$$g" in bound.block.describe()
    assert "ctx:" not in bound.block.describe()


def test_ordinary_view_parameters_are_compiled_too():
    db = FIXTURES["normalization"]
    view = compile_view(
        db.catalog, db.catalog.view("ThroughOrdinary"), db.catalog.schema_version
    )
    assert view.params == {"user_id", "location"}
    assert view.relations == {"mine"}


# -- staleness: one catalog version per compile --------------------------------

SMALL = UniversityConfig(students=6, courses=3, registrations_per_student=2)
OWN_GRADES = "select grade from Grades where student_id = '11'"
ALL_GRADES = "select * from Grades"


def compiles(action):
    """``validity.view_compile`` bumps while ``action`` runs, and its result."""
    before = COUNTERS.get("validity.view_compile")
    result = action()
    return COUNTERS.get("validity.view_compile") - before, result


def check(db, sql=OWN_GRADES, **session):
    return db.check_validity(sql, SessionContext(**{"user_id": "11", **session}))


def candidate_names(db, user):
    checker = ValidityChecker(db, use_pruning=False)
    views = checker._candidate_views(
        parse_query(ALL_GRADES), SessionContext(user_id=user)
    )
    return {view.name for view in views}


def granted_to(db, user):
    return [
        v
        for v in db.catalog.views()
        if v.authorization and db.grants.is_granted(v.name, user)
    ]


def test_views_compile_once_for_every_user():
    db = build_university(SMALL)
    first, decision = compiles(lambda: check(db))
    assert decision.valid and first == len(granted_to(db, "11")) > 0
    assert compiles(lambda: check(db))[0] == 0
    assert compiles(lambda: check(db, user_id="12"))[0] == 0


def test_granted_views_follows_is_granted():
    db = build_university(SMALL)
    db.execute("create authorization view AllGrades as select * from Grades")
    db.grant("allgrades", "Alice")
    for user in ("alice", "ALICE", "bob", None):
        expected = {
            v.name.lower()
            for v in db.catalog.views()
            if db.grants.is_granted(v.name, user)
        }
        assert db.grants.granted_views(user) == expected


CATALOG_CHANGES = {
    "create view": lambda db: db.execute(
        "create authorization view Extra as select * from Courses"
    ),
    "drop view": lambda db: db.execute("drop view AllCourses"),
    "create table": lambda db: db.execute("create table Extra(id int primary key)"),
    "truman remap": lambda db: db.set_truman_view("Grades", "MyGrades"),
    "participation": lambda db: db.add_participation_constraint(
        TotalParticipation(
            core_table="Students",
            remainder_table="Registered",
            join_pairs=(("student_id", "student_id"),),
            name="every_student_registered",
        )
    ),
}


@pytest.mark.parametrize("change", list(CATALOG_CHANGES))
def test_a_catalog_change_retires_every_compiled_view(change):
    db = build_university(SMALL)
    check(db)
    CATALOG_CHANGES[change](db)
    recompiled, decision = compiles(lambda: check(db))
    assert decision.valid
    assert recompiled == len(granted_to(db, "11"))
    assert compiles(lambda: check(db))[0] == 0
    live = {v.name.lower() for v in db.catalog.views()}
    assert {e.definition.name.lower() for e in db.compiled_views.granted(live)} <= live


def test_grants_and_revokes_compile_nothing():
    db = build_university(SMALL)
    db.execute("create authorization view AllGrades as select * from Grades")
    db.grant("AllGrades", "12")
    check(db, ALL_GRADES, user_id="12")  # compiles AllGrades with the rest
    assert not check(db, ALL_GRADES).valid

    granted, _ = compiles(lambda: db.grant("AllGrades", "11"))
    rechecked, decision = compiles(lambda: check(db, ALL_GRADES))
    assert granted == rechecked == 0 and decision.valid
    assert "AllGrades" in candidate_names(db, "11")

    revoked, _ = compiles(lambda: db.grants.revoke("AllGrades", "11"))
    rechecked, decision = compiles(lambda: check(db, ALL_GRADES))
    assert revoked == rechecked == 0 and not decision.valid
    assert "AllGrades" not in candidate_names(db, "11")
    assert "AllGrades" in candidate_names(db, "12")


def test_rebac_tuple_writes_compile_nothing():
    db = mini_db()
    sql = "select title from Documents where doc_id = 'd'"
    session = {"user_id": "alice", "time": 100.0}
    assert not check(db, sql, **session).valid
    wrote, _ = compiles(
        lambda: db.rebac.write_tuple("document:d", "viewer", "user:alice")
    )
    rechecked, decision = compiles(lambda: check(db, sql, **session))
    assert wrote == rechecked == 0 and decision.valid
    deleted, _ = compiles(
        lambda: db.rebac.delete_tuple("document:d", "viewer", "user:alice")
    )
    rechecked, decision = compiles(lambda: check(db, sql, **session))
    assert deleted == rechecked == 0 and not decision.valid


RACING_DDL = {
    # a new body under the same view name: a new ViewDef
    "view": (
        "drop view V",
        "create authorization view V as select * from T where owner = 'nobody'",
    ),
    # the same ViewDef over a re-created table: only the version tells
    "table": (
        "drop table T",
        "create table T(id int primary key, owner varchar(10), note varchar(5))",
    ),
}


@pytest.mark.parametrize("ddl", list(RACING_DDL))
def test_a_compile_overlapping_ddl_is_never_served(monkeypatch, ddl):
    """The compile reads the catalog version first; DDL lands while it
    runs, so the entry it stores is stale on arrival and the next check
    compiles against the new catalog."""
    db = Database()
    db.execute_script(
        "create table T(id int primary key, owner varchar(10));"
        "insert into T values (1, 'u');"
        "create authorization view V as select * from T where owner = $user_id;"
    )
    db.grant_public("V")
    sql = "select id from T where owner = 'u'"
    blockify = compiled.blockify_view
    swapped = threading.Event()

    def swap():
        for statement in RACING_DDL[ddl]:
            db.execute(statement)
        swapped.set()

    def slow_blockify(translator, definition, query):
        candidate = blockify(translator, definition, query)
        if not swapped.is_set():
            threading.Thread(target=swap).start()
            sleep(0.002)
            assert swapped.wait(5)
        return candidate

    monkeypatch.setattr(compiled, "blockify_view", slow_blockify)
    raced = check(db, sql, user_id="u")
    monkeypatch.undo()
    assert raced.valid  # decided on the catalog the check read
    recompiled, after = compiles(lambda: check(db, sql, user_id="u"))
    assert recompiled == 1
    (entry,) = db.compiled_views.granted({"v"})
    assert entry.definition is db.catalog.view("V")
    if ddl == "view":
        assert not after.valid
    else:
        assert entry.compiled.output_names == ("id", "owner", "note")
