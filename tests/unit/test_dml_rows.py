"""The write path's row finder against the row-at-a-time code it replaced.

``Database._rows_where`` answers every "which rows of T satisfy P"
question on the write path: UPDATE and DELETE targets, the foreign-key
check when no index covers the referenced columns, RESTRICT, and total
participation.  It takes the vectorized scan's index decision
(:func:`repro.optimizer.pushdown.probe_row_ids`), so it reads only the
rows an index probe fetches.

The oracle is the earlier code: a qualifier pass over the WHERE, then
one evaluation per stored row, and the nested constraint loops.  With
seeded random predicates (AND/OR/NOT, NULLs, ``$user_id``, qualified
and bare columns) over the university tables, the finder must return
the oracle's exact ``(row_id, row)`` list, and the constraint checks
must reach the oracle's outcomes, with and without extra indexes and
on a four-shard cluster.  A work count shows the ``mixed_rw`` DELETE
reads a handful of rows instead of the whole table.
"""

import random

import pytest

from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.authviews.session import SessionContext
from repro.cluster import ClusterCoordinator
from repro.engine.evaluator import Evaluator, RowResolver
from repro.errors import IntegrityError
from repro.sql import ast
from repro.sql.parser import Parser
from repro.workloads.university import UniversityConfig, build_university

#: a foreign key on a column no index covers, so the check falls back
#: from the exact-columns index lookup to the finder
NOTES_SQL = (
    "create table Notes(note_id int primary key, author varchar(40), "
    "foreign key (author) references Students(name))"
)

#: single-column indexes the plain fixture lacks
EXTRA_INDEXES = (
    ("Registered", "student_id"),
    ("Registered", "course_id"),
    ("Grades", "student_id"),
    ("Grades", "grade"),
    ("Students", "type"),
    ("Students", "name"),
    ("Notes", "author"),
)

TABLES = ("Students", "Courses", "Registered", "Grades", "FeesPaid", "Notes")


def university(db=None, indexed=False):
    db = build_university(UniversityConfig(students=60), db=db)
    db.execute(NOTES_SQL)
    names = sorted({row[1] for row in db.table("Students").rows()})
    for note_id, name in enumerate(names[:6]):
        db.execute(f"insert into Notes values ({note_id}, '{name}')")
    db.execute("insert into Notes values (99, NULL)")
    # NULL grades, so NULL semantics meet both matchers
    db.execute("update Grades set grade = NULL where course_id = 'CS103'")
    if indexed:
        for table, column in EXTRA_INDEXES:
            db.table(table).create_index((column,))
    return db


@pytest.fixture(
    params=["plain", "indexed", "cluster"],
)
def db(request):
    if request.param == "cluster":
        return university(ClusterCoordinator(shards=4, replicas=0), indexed=True)
    return university(indexed=request.param == "indexed")


# -- the oracle: the write path before the finder -------------------------


def oracle_rows(db, table_name, where, session):
    """The old ``_update``/``_delete`` matcher: qualify bare columns,
    then test every stored row."""
    table = db.table(table_name)
    schema = table.schema
    binding = schema.name
    evaluator = Evaluator(
        RowResolver(tuple(ops.OutCol(binding, c) for c in schema.column_names))
    )
    if where is not None:
        where = exprs.substitute_params(where, session.param_values())

        def visit(node):
            if isinstance(node, ast.ColumnRef) and node.table is None:
                return ast.ColumnRef(binding, node.name)
            return None

        where = exprs.transform(where, visit)
    return [
        (row_id, row)
        for row_id, row in list(table.rows_with_ids())
        if where is None or evaluator.matches(where, row)
    ]


def oracle_foreign_keys(db, table_name, row):
    """The old insert/update-side foreign-key check."""
    schema = db.catalog.table(table_name)
    for fk in db.catalog.foreign_keys_for(table_name):
        key = tuple(row[schema.column_index(c)] for c in fk.columns)
        if any(v is None for v in key):
            continue
        ref_table = db.table(fk.ref_table)
        index = ref_table.find_index(fk.ref_columns)
        if index is not None:
            if index.lookup(key):
                continue
        else:
            ref_schema = ref_table.schema
            ordinals = [ref_schema.column_index(c) for c in fk.ref_columns]
            if any(tuple(r[o] for o in ordinals) == key for r in ref_table.rows()):
                continue
        raise IntegrityError(
            f"foreign key violation: {table_name}({', '.join(fk.columns)}) = "
            f"{key!r} has no match in {fk.ref_table}"
        )


def oracle_restrict(db, table_name, row):
    """The old RESTRICT check: scan every referencing table."""
    schema = db.catalog.table(table_name)
    for fk in db.catalog.foreign_keys():
        if fk.ref_table.lower() != table_name.lower():
            continue
        key = tuple(row[schema.column_index(c)] for c in fk.ref_columns)
        referencing = db.table(fk.table)
        ordinals = [referencing.schema.column_index(c) for c in fk.columns]
        for other in referencing.rows():
            if tuple(other[o] for o in ordinals) == key:
                raise IntegrityError(
                    f"cannot delete from {table_name}: row referenced by {fk.table}"
                )


def oracle_participations(db):
    """The old ``validate_participations``: two resolvers and a key set."""
    violations = []
    for constraint in db.catalog.participations():
        core = db.table(constraint.core_table)
        remainder = db.table(constraint.remainder_table)
        core_eval = Evaluator(
            RowResolver(tuple(ops.OutCol(None, c) for c in core.schema.column_names))
        )
        rem_eval = Evaluator(
            RowResolver(
                tuple(ops.OutCol(None, c) for c in remainder.schema.column_names)
            )
        )
        rem_ordinals = [
            remainder.schema.column_index(rc) for _, rc in constraint.join_pairs
        ]
        rem_keys = {
            tuple(r[o] for o in rem_ordinals)
            for r in remainder.rows()
            if constraint.remainder_pred is None
            or rem_eval.matches(constraint.remainder_pred, r)
        }
        core_ordinals = [
            core.schema.column_index(cc) for cc, _ in constraint.join_pairs
        ]
        for row in core.rows():
            if constraint.core_pred is not None and not core_eval.matches(
                constraint.core_pred, row
            ):
                continue
            if tuple(row[o] for o in core_ordinals) not in rem_keys:
                violations.append(f"{constraint}: core row {row!r} unmatched")
    return violations


def outcome(check, *args):
    """The IntegrityError message a check raises, or None."""
    try:
        check(*args)
    except IntegrityError as exc:
        return str(exc)
    return None


# -- seeded random predicates ---------------------------------------------


def literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class PredicateGen:
    """Random well-typed WHERE predicates over one table's stored values."""

    def __init__(self, db, table_name, rng):
        self.rng = rng
        self.table = db.table(table_name).schema.name
        self.columns = db.table(table_name).schema.column_names
        self.values = {c: set() for c in self.columns}
        for row in db.table(table_name).rows():
            for column, value in zip(self.columns, row):
                if value is not None:
                    self.values[column].add(value)

    def column(self, name):
        return f"{self.table}.{name}" if self.rng.random() < 0.5 else name

    def value(self, name):
        pool = sorted(self.values[name], key=repr)
        if not pool or self.rng.random() < 0.15:
            sample = pool[0] if pool else "x"
            return 7.25 if isinstance(sample, float) else (
                99999 if isinstance(sample, int) else "ZZ-missing")
        return self.rng.choice(pool)

    def atom(self):
        rng = self.rng
        name = rng.choice(self.columns)
        col = self.column(name)
        kind = rng.random()
        if kind < 0.08:
            return f"{col} is {rng.choice(['', 'not '])}null"
        if kind < 0.13:
            return f"{col} = NULL"
        if kind < 0.25 and "student_id" in self.columns:
            return f"{self.column('student_id')} = $user_id"
        value = literal(self.value(name))
        op = rng.choice(["=", "=", "=", "<>", "<", ">="])
        if op == "=" and rng.random() < 0.3:
            return f"{value} = {col}"
        return f"{col} {op} {value}"

    def predicate(self, depth=2):
        rng = self.rng
        if depth == 0 or rng.random() < 0.3:
            return self.atom()
        roll = rng.random()
        if roll < 0.1:
            return f"not ({self.predicate(depth - 1)})"
        op = "and" if roll < 0.7 else "or"
        parts = [self.predicate(depth - 1) for _ in range(rng.randint(2, 3))]
        return "(" + f" {op} ".join(parts) + ")"


SESSIONS = (
    SessionContext(user_id="11"),
    SessionContext(user_id="10"),
    SessionContext(user_id="999"),  # no such student
)


@pytest.mark.parametrize("table_name", TABLES)
def test_finder_returns_the_oracle_rows(db, table_name):
    rng = random.Random(f"rows-{table_name}")
    gen = PredicateGen(db, table_name, rng)
    table = db.table(table_name)
    assert db._rows_where(table, None, SESSIONS[0]) == oracle_rows(
        db, table_name, None, SESSIONS[0]
    )
    nonempty = 0
    for _ in range(60):
        text = gen.predicate()
        where = Parser(text).parse_expr()
        session = rng.choice(SESSIONS)
        expected = oracle_rows(db, table_name, where, session)
        assert db._rows_where(table, where, session) == expected, text
        nonempty += bool(expected)
    assert nonempty >= 10


@pytest.mark.parametrize("table_name", ("Registered", "Grades", "Notes"))
def test_foreign_key_outcomes_match(db, table_name):
    rng = random.Random(f"fk-{table_name}")
    schema = db.table(table_name).schema
    stored = list(db.table(table_name).rows())
    pools = {
        fk_col: sorted(
            {row[schema.column_index(fk_col)] for row in stored}, key=repr
        )
        for fk in db.catalog.foreign_keys_for(table_name)
        for fk_col in fk.columns
    }
    seen = set()
    for _ in range(80):
        row = list(rng.choice(stored))
        for column, pool in pools.items():
            roll = rng.random()
            ordinal = schema.column_index(column)
            if roll < 0.2:
                row[ordinal] = "ZZ-missing"
            elif roll < 0.25 and not schema.columns[ordinal].not_null:
                row[ordinal] = None
            else:
                row[ordinal] = rng.choice(pool)
        row = tuple(row)
        expected = outcome(oracle_foreign_keys, db, table_name, row)
        assert outcome(db._check_row_constraints, table_name, row) == expected, row
        seen.add(expected is None)
    assert seen == {True, False}


@pytest.mark.parametrize("table_name", ("Students", "Courses"))
def test_restrict_outcomes_match(db, table_name):
    # free one student and one course, so both outcomes occur
    for name in ("Registered", "Grades", "FeesPaid"):
        db.execute(f"delete from {name} where student_id = '12'")
    for name in ("Registered", "Grades"):
        db.execute(f"delete from {name} where course_id = 'CS100'")
    name = db.execute("select name from Students where student_id = '12'").scalar()
    db.execute(f"delete from Notes where author = {literal(name)}")
    outcomes = set()
    for _, row in db.table(table_name).rows_with_ids():
        expected = outcome(oracle_restrict, db, table_name, row)
        assert outcome(
            db._check_no_referencing_rows, table_name, row
        ) == expected, row
        outcomes.add(expected)
    assert None in outcomes and len(outcomes) >= 2


def test_participation_outcomes_match(db):
    rng = random.Random("participation")
    assert db.validate_participations() == oracle_participations(db)
    for _ in range(4):
        # remove rows from storage directly, constraints unchecked, so
        # foreign-key participations break too
        for name in ("Registered", "Students", "FeesPaid"):
            table = db.table(name)
            row_ids = [row_id for row_id, _ in table.rows_with_ids()]
            for row_id in rng.sample(row_ids, 3):
                table.delete_row(row_id)
        expected = oracle_participations(db)
        assert expected
        assert db.validate_participations() == expected


@pytest.mark.parametrize("table_name", ("Registered", "Grades", "Students"))
def test_delete_and_update_touch_the_oracle_rows(db, table_name):
    """Statement outcomes: rowcount, the rows left, and a rollback that
    restores every row under its old id."""
    rng = random.Random(f"dml-{table_name}")
    gen = PredicateGen(db, table_name, rng)
    table = db.table(table_name)
    session = SESSIONS[0]
    before = list(table.rows_with_ids())
    for _ in range(12):
        text = gen.predicate()
        where = Parser(text).parse_expr()
        targets = oracle_rows(db, table_name, where, session)
        referenced = any(
            outcome(oracle_restrict, db, table_name, row) for _, row in targets
        )
        db.execute("begin")
        if referenced:
            with pytest.raises(IntegrityError):
                db.execute(f"delete from {table_name} where {text}", session)
            assert list(table.rows_with_ids()) == before
        else:
            deleted = db.execute(f"delete from {table_name} where {text}", session)
            assert deleted == len(targets)
            gone = {row_id for row_id, _ in targets}
            assert list(table.rows_with_ids()) == [
                pair for pair in before if pair[0] not in gone
            ]
        db.execute("rollback")
        assert list(table.rows_with_ids()) == before

        column = table.schema.column_names[-1]
        db.execute("begin")
        count = db.execute(
            f"update {table_name} set {column} = {column} where {text}", session
        )
        assert count == len(targets)
        db.execute("rollback")
        assert list(table.rows_with_ids()) == before


# -- work count -------------------------------------------------------------


class RowReads:
    """Counts rows a table's ``get_row`` and ``rows_with_ids`` hand out.

    Only the facade class is wrapped, so a cluster's shard reads are not
    counted twice."""

    def __init__(self, monkeypatch, table):
        self.count = 0
        cls = type(table)
        get_row, rows_with_ids = cls.get_row, cls.rows_with_ids

        def counted_get_row(table, row_id):
            self.count += 1
            return get_row(table, row_id)

        def counted_rows_with_ids(table):
            pairs = list(rows_with_ids(table))
            self.count += len(pairs)
            return iter(pairs)

        monkeypatch.setattr(cls, "get_row", counted_get_row)
        monkeypatch.setattr(cls, "rows_with_ids", counted_rows_with_ids)


def mixed_rw_fixture(db=None):
    """The E22 ``mixed_rw`` fixture: 200 students, 800 registrations,
    an index on ``Registered(student_id)``, own-row DML policies."""
    db = build_university(
        UniversityConfig(
            students=200, courses=24, registrations_per_student=4, seed=22
        ),
        db=db,
    )
    db.execute_script(
        "authorize insert on Registered where Registered.student_id = $user_id;"
        "authorize delete on Registered where Registered.student_id = $user_id;"
    )
    db.table("Grades").create_index(("student_id",))
    db.table("Registered").create_index(("student_id",))
    return db


@pytest.mark.parametrize("shards", [None, 4])
def test_mixed_rw_delete_reads_a_handful_of_rows(monkeypatch, shards):
    db = mixed_rw_fixture(
        None if shards is None else ClusterCoordinator(shards=shards, replicas=0)
    )
    registered = len(db.table("Registered"))
    assert registered == 800
    user = "10"
    mine = {row[1] for row in db.table("Registered").rows() if row[0] == user}
    course = min(
        row[0] for row in db.table("Courses").rows() if row[0] not in mine
    )
    conn = db.connect(user_id=user, mode="non-truman")
    conn.execute(f"insert into Registered values ('{user}', '{course}')")
    delete = (
        f"delete from Registered where student_id = '{user}' "
        f"and course_id = '{course}'"
    )
    where = Parser(delete.split(" where ", 1)[1]).parse_expr()

    reads = RowReads(monkeypatch, db.table("Registered"))
    oracle = oracle_rows(db, "Registered", where, conn.session)
    assert reads.count == registered + 1

    reads.count = 0
    assert conn.execute(delete) == 1
    assert len(oracle) == 1
    assert reads.count <= 8
