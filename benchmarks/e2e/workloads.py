"""The five E22 workloads: database fixtures and seeded request lists.

A workload is a database fixture (built identically by the server
subprocess and by the oracle in the benchmark process) plus a *round*:
a fixed multiset of requests whose order, users and literals come from
``--seed``.  The fixture itself is **not** seeded by ``--seed`` — table
sizes decide scan cost, so a per-seed database would put ±2 % of data
noise on every timing metric; the seed instead picks which students log
in, which literals they use and the order of the round, all of which are
cost-neutral by construction (class counts are exact, not sampled).

The validity cache keeps ONE literal tuple per (user, skeleton), so on
the hot workloads every (user, skeleton) pair is always issued with the
same literals and an accepted and a rejected query never share a
skeleton — otherwise they would evict each other and the workload would
silently leave the all-hit regime it exists to measure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster import ClusterCoordinator
from repro.db import Database
from repro.workloads.university import UniversityConfig, build_university

#: seed of the generated university data (fixed: see module docstring)
DATA_SEED = 22

REGISTRAR = "registrar"
THRESHOLDS = (2.0, 2.5, 3.0, 3.5)


@dataclass(frozen=True)
class Request:
    """One wire request and what the benchmark expects back."""

    user: str
    mode: str
    sql: str
    #: query class: the unit of the percentile-placement rule and of the
    #: ``client.class.<cls>.p50_ms`` diagnostics
    cls: str
    #: "ok" or "rejected" (an expected rejection that is rejected is a
    #: success; one that returns rows is a policy violation)
    expect: str = "ok"
    write: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    students: int
    shards: int = 0
    #: serve from a durable data_dir (WAL appended, sync="none")
    durable: bool = False
    #: statements run after build_university (views, AUTHORIZE policies)
    setup_sql: str = ""
    #: (view, user) grants issued after setup_sql
    grants: tuple = ()
    #: (table, view) Truman substitutions
    truman: tuple = ()
    #: every measured round is the same list (False: portal_cold, where a
    #: round is the next slice of never-repeated keys)
    repeats: bool = True
    #: cache regime the workload exists to measure, self-checked per round:
    #: "hot" (every template and decision hits), "cold" (none does) or None
    regime: Optional[str] = None
    #: Callable[[Database, random.Random], list[list[Request]]]: warm-up
    #: round first, then the measured round(s)
    plan: Optional[Callable] = None

    def config(self) -> UniversityConfig:
        return UniversityConfig(
            students=self.students,
            courses=24,
            registrations_per_student=4,
            seed=DATA_SEED,
        )


def build_database(workload: Workload, data_dir: Optional[str] = None) -> Database:
    """The workload's fixture, composed the way ``repro serve`` does."""
    if workload.shards:
        db = ClusterCoordinator(shards=workload.shards, replicas=0)
        build_university(workload.config(), db=db)
    else:
        db = build_university(workload.config())
    if workload.setup_sql:
        db.execute_script(workload.setup_sql)
    for view, user in workload.grants:
        db.grant(view, user)
    for table, view in workload.truman:
        db.set_truman_view(table, view)
    db.table("Grades").create_index(("student_id",))
    db.table("Registered").create_index(("student_id",))
    if data_dir is not None:
        # flush policy fixed and stated: WAL encode + append are part of
        # a write, fsync is not (the sandbox disk says nothing about a
        # device, and its variance is what sank PR 11's mixed_rw)
        db.save(data_dir, sync="none")
    return db


# -- fixture facts the generators need ---------------------------------


class _Facts:
    """Per-student registrations read once from the oracle database."""

    def __init__(self, db: Database):
        self.students = [
            row[0]
            for row in db.execute(
                "select student_id from Students order by student_id"
            ).rows
        ]
        self.courses = [
            row[0]
            for row in db.execute(
                "select course_id from Courses order by course_id"
            ).rows
        ]
        self.registered: dict[str, list[str]] = {s: [] for s in self.students}
        for student, course in db.execute(
            "select student_id, course_id from Registered "
            "order by student_id, course_id"
        ).rows:
            self.registered[student].append(course)
        self.graded: dict[str, list[str]] = {s: [] for s in self.students}
        for student, course in db.execute(
            "select student_id, course_id from Grades "
            "order by student_id, course_id"
        ).rows:
            self.graded[student].append(course)

    def other(self, rng: random.Random, student: str) -> str:
        while True:
            pick = rng.choice(self.students)
            if pick != student:
                return pick


def _lit(value: str) -> str:
    return f"'{value}'"


def _warm_up(round_: list[Request]) -> list[Request]:
    """Two passes over the round's distinct requests, in first-seen
    order (so an insert still precedes its delete): every key is built
    and cached before the first measured round."""
    distinct = list(dict.fromkeys(round_))
    return distinct + distinct


# -- portal_hot / mixed_rw ---------------------------------------------

#: per session and round: class -> repetitions (20 per user; 15 % rejected)
PORTAL_MIX = {
    "own_grades": 4,
    "own_above": 3,
    "own_avg": 3,
    "own_regs": 3,
    "courses": 2,
    "costudent": 2,
    "rejected": 3,
}
PORTAL_SESSIONS = 8


def _portal_reads(
    facts: _Facts, rng: random.Random, users: list[str], mix: dict[str, int]
) -> list[Request]:
    reads = []
    for user in users:
        threshold = rng.choice(THRESHOLDS)
        course = rng.choice(facts.registered[user])
        other = facts.other(rng, user)
        me = _lit(user)
        sql = {
            "own_grades": f"select * from Grades where student_id = {me}",
            "own_above": "select course_id, grade from Grades "
            f"where student_id = {me} and grade >= {threshold}",
            "own_avg": f"select avg(grade) from Grades where student_id = {me}",
            "own_regs": f"select * from Registered where student_id = {me}",
            "courses": "select * from Courses",
            # conditionally valid (rule C3): the user is registered for it
            "costudent": f"select * from Grades where course_id = {_lit(course)}",
            # another projection than own_grades: one skeleton, one
            # cached decision (see module docstring)
            "rejected": "select student_id, grade from Grades "
            f"where student_id = {_lit(other)}",
        }
        for cls, count in mix.items():
            request = Request(
                user,
                "non-truman",
                sql[cls],
                cls,
                "rejected" if cls == "rejected" else "ok",
            )
            reads.extend([request] * count)
    return reads


def _pick_sessions(facts: _Facts, rng: random.Random) -> list[str]:
    return sorted(rng.sample(facts.students, PORTAL_SESSIONS))


def plan_portal_hot(db: Database, rng: random.Random) -> list[list[Request]]:
    facts = _Facts(db)
    reads = _portal_reads(facts, rng, _pick_sessions(facts, rng), PORTAL_MIX)
    rng.shuffle(reads)
    return [_warm_up(reads), reads]


WRITE_SETUP = (
    "authorize insert on Registered where Registered.student_id = $user_id;"
    "authorize delete on Registered where Registered.student_id = $user_id;"
)
#: mixed_rw per session and round (25 requests): 6 writes (3 insert-delete
#: pairs, 24 %) and portal_hot's reads with costudent raised to 24 %.
#: Measured: a write is no slower than a read; what a write makes slow is
#: the next costudent (C3) read, whose conditional decision it retired
#: (8 ms re-check against 1.5 ms).  With 24 % of the mix in that class,
#: p90 sits 14 points inside it and prices invalidation; p50 sits in the
#: own_* reads, 30 points above the fast courses/insert classes.
MIXED_READS = {
    "own_grades": 3,
    "own_above": 2,
    "own_avg": 2,
    "own_regs": 2,
    "courses": 2,
    "costudent": 6,
    "rejected": 2,
}
WRITES_PER_SESSION = 6


def plan_mixed_rw(db: Database, rng: random.Random) -> list[list[Request]]:
    facts = _Facts(db)
    users = _pick_sessions(facts, rng)
    reads = _portal_reads(facts, rng, users, MIXED_READS)
    slots: list[Optional[Request]] = list(reads)
    slots.extend([None] * (WRITES_PER_SESSION * len(users)))
    rng.shuffle(slots)
    # write slot k belongs to session k mod 8; a session alternates
    # insert / delete of the same row, so every round ends where it began
    free = {
        user: [c for c in facts.courses if c not in facts.registered[user]]
        for user in users
    }
    issued = dict.fromkeys(users, 0)
    writers = itertools.cycle(users)
    round_: list[Request] = []
    for slot in slots:
        if slot is not None:
            round_.append(slot)
            continue
        user = next(writers)
        pair, second = divmod(issued[user], 2)
        issued[user] += 1
        course = free[user][pair % len(free[user])]
        if second:
            sql = (
                f"delete from Registered where student_id = {_lit(user)} "
                f"and course_id = {_lit(course)}"
            )
            cls = "write_delete"
        else:
            sql = f"insert into Registered values ({_lit(user)}, {_lit(course)})"
            cls = "write_insert"
        round_.append(Request(user, "non-truman", sql, cls, "ok", write=True))
    return [_warm_up(round_), round_]


# -- portal_cold --------------------------------------------------------

_GRADE_PROJECTIONS = (
    "*",
    "course_id, grade",
    "grade, course_id",
    "student_id, course_id, grade",
)
_OWN_SHAPES = (
    "student_id = {me}",
    "student_id = {me} and grade >= {t}",
    "student_id = {me} and grade < {t}",
    "grade >= {t} and student_id = {me}",
)
_COSTUDENT_PROJECTIONS = ("*", "student_id, grade", "grade, student_id")
_COSTUDENT_SHAPES = (
    "course_id = {c} and student_id <> {me}",
    "course_id = {c} and student_id <> {me} and grade >= {t}",
    "student_id <> {me} and course_id = {c}",
)
_TRUMAN_PROJECTIONS = ("*", "course_id, grade", "grade")
_TRUMAN_SHAPES = (
    "student_id = {me} and grade > {t}",
    "student_id = {me} and grade <= {t}",
    "grade > {t} and student_id = {me}",
)
_REJECTED_PROJECTIONS = (
    "student_id",
    "student_id, course_id",
    "course_id, student_id",
    "grade, course_id, student_id",
    "grade, student_id",
    "course_id",
)


def cold_variants() -> list[tuple[str, str, str, str]]:
    """The 40 skeleton variants: (class, mode, template, expectation).

    Every template carries the user's own id as a literal, so no two
    users ever send the same text and the prepared text tier cannot hit
    either.  Shares: own 40 %, costudent (C3) 22.5 %, truman 22.5 %,
    rejected 15 % — truman+rejected (fast) end at the 37.5th percentile
    and costudent (slow) starts at the 77.5th, so p50 and p90 each sit
    12.5 points inside a class.
    """
    variants = []
    for projection, shape in itertools.product(_GRADE_PROJECTIONS, _OWN_SHAPES):
        variants.append(
            ("own", "non-truman", f"select {projection} from Grades where {shape}", "ok")
        )
    for projection, shape in itertools.product(
        _COSTUDENT_PROJECTIONS, _COSTUDENT_SHAPES
    ):
        variants.append(
            (
                "costudent",
                "non-truman",
                f"select {projection} from Grades where {shape}",
                "ok",
            )
        )
    for projection, shape in itertools.product(_TRUMAN_PROJECTIONS, _TRUMAN_SHAPES):
        variants.append(
            ("truman", "truman", f"select {projection} from Grades where {shape}", "ok")
        )
    for projection in _REJECTED_PROJECTIONS:
        variants.append(
            (
                "rejected",
                "non-truman",
                f"select {projection} from Grades where student_id = {{other}}",
                "rejected",
            )
        )
    assert len(variants) == 40
    return variants


#: requests per variant in one portal_cold round (round = 40 x this)
COLD_PER_VARIANT = 2
COLD_WARMUP_PER_VARIANT = 2


def plan_portal_cold(db: Database, rng: random.Random) -> list[list[Request]]:
    """200 users x 40 variants = 8000 keys, each issued at most once."""
    facts = _Facts(db)
    variants = cold_variants()
    # variant v walks the students from its own random offset, so round r
    # pairs every variant with COLD_PER_VARIANT students it never saw
    order = list(facts.students)
    rng.shuffle(order)
    offsets = [rng.randrange(len(order)) for _ in variants]

    def request(v: int, position: int) -> Request:
        cls, mode, template, expect = variants[v]
        user = order[(offsets[v] + position) % len(order)]
        sql = template.format(
            me=_lit(user),
            other=_lit(facts.other(rng, user)),
            c=_lit(rng.choice(facts.registered[user])),
            t=rng.choice(THRESHOLDS),
        )
        return Request(user, mode, sql, cls, expect)

    def round_(start: int, per_variant: int) -> list[Request]:
        out = [
            request(v, start + i)
            for v in range(len(variants))
            for i in range(per_variant)
        ]
        rng.shuffle(out)
        return out

    rounds = [round_(0, COLD_WARMUP_PER_VARIANT)]
    position = COLD_WARMUP_PER_VARIANT
    while position + COLD_PER_VARIANT <= len(order):
        rounds.append(round_(position, COLD_PER_VARIANT))
        position += COLD_PER_VARIANT
    return rounds


# -- report_stream ------------------------------------------------------

REPORT_SETUP = "create authorization view AllGrades as select * from Grades;"

REPORT_SQL = {
    "report_top": "select student_id, course_id, grade from Grades where grade >= 3.9",
    "report_join": "select course_id, student_id, name from RegStudents "
    "where type = 'PartTime'",
    "report_full": "select * from Grades",
}
#: (class, mode, repetitions per round): 24 requests of 24-60 ms each, a
#: 1.1 s round, so that the 10 s window holds enough rounds to pick quiet
#: ones from; 12 truman + 12 non-truman.  report_top (318 rows, 29 %) is
#: the only class more than 1.5x away from the others, so p50 and p90
#: both sit in the 2400-row join / 6426-row full-table pair.
REPORT_MIX = (
    ("report_top", "truman", 4),
    ("report_top", "non-truman", 3),
    ("report_join", "truman", 5),
    ("report_join", "non-truman", 5),
    ("report_full", "truman", 3),
    ("report_full", "non-truman", 4),
)


def plan_report_stream(db: Database, rng: random.Random) -> list[list[Request]]:
    round_ = []
    for cls, mode, count in REPORT_MIX:
        round_.extend([Request(REGISTRAR, mode, REPORT_SQL[cls], cls)] * count)
    rng.shuffle(round_)
    return [_warm_up(round_), round_]


# -- cluster_reads ------------------------------------------------------

#: per session and round: 13 point reads, 3 scatter aggregates, 4 merge
#: scans of 20 (65 % / 15 % / 20 %).  Measured p50: 3.5 / 8.2 / 9.3 ms, so
#: the one boundary that matters is at the 65th percentile.
CLUSTER_POINT = (
    ("select * from Grades where student_id = {me} and course_id = {g}", 4),
    ("select grade from Grades where student_id = {me} and course_id = {g}", 3),
    ("select * from Registered where student_id = {me} and course_id = {c}", 3),
    ("select course_id from Registered where student_id = {me} and course_id = {c}", 3),
)
CLUSTER_SCATTER = (
    ("select count(*) from Grades", 1),
    ("select min(student_id), max(student_id) from Students", 1),
    ("select count(*), min(grade), max(grade) from Grades where student_id = {me}", 1),
)
CLUSTER_MERGE = (
    # float avg is not merged exactly, so it scans the merged facade
    ("select avg(grade) from Grades where student_id = {me}", 2),
    ("select * from Grades where student_id = {me}", 2),
)


def plan_cluster_reads(db: Database, rng: random.Random) -> list[list[Request]]:
    facts = _Facts(db)
    eligible = [s for s in facts.students if facts.graded[s]]
    users = sorted(rng.sample(eligible, PORTAL_SESSIONS))
    round_ = []
    for user in users:
        literals = {
            "me": _lit(user),
            "g": _lit(rng.choice(facts.graded[user])),
            "c": _lit(rng.choice(facts.registered[user])),
        }
        for cls, group in (
            ("point_read", CLUSTER_POINT),
            ("scatter_agg", CLUSTER_SCATTER),
            ("merge_scan", CLUSTER_MERGE),
        ):
            for template, count in group:
                request = Request(
                    user, "non-truman", template.format(**literals), cls
                )
                round_.extend([request] * count)
    rng.shuffle(round_)
    return [_warm_up(round_), round_]


# -- registry -----------------------------------------------------------

#: every workload is driven the same way; BENCHMARK.json has no other
#: place to say so than the ``why`` lines
PROTOCOL = "Closed loop, 1 client, 1 request in flight. "

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="portal_hot",
            why=PROTOCOL + "Every request is a template hit plus a validity-cache "
            "hit, so the fixed per-request cost (net, protocol, gateway, bind, "
            "audit) is most of the work.",
            students=200,
            regime="hot",
            plan=plan_portal_hot,
        ),
        Workload(
            name="portal_cold",
            why=PROTOCOL + "8000 never-repeated (user, skeleton) keys: every request "
            "pays parse, signature, template build, Non-Truman inference or Truman "
            "rewrite, and planning.",
            students=200,
            truman=(("Grades", "MyGrades"),),
            repeats=False,
            regime="cold",
            plan=plan_portal_cold,
        ),
        Workload(
            name="report_stream",
            why=PROTOCOL + "Hot skeletons returning 300-6400 rows: engine scan/join, "
            "result-frame encoding, socket writes and client decode dominate; "
            "check and parse are cached away.",
            students=2000,
            setup_sql=REPORT_SETUP,
            grants=(("AllGrades", REGISTRAR),),
            truman=(("Grades", "AllGrades"),),
            plan=plan_report_stream,
        ),
        Workload(
            name="mixed_rw",
            why=PROTOCOL + "portal_hot's reads plus 24 % authorised insert-delete "
            "pairs on a WAL-backed server (sync=none): write lock, data_version "
            "bumps, retired C3 decisions.",
            students=200,
            durable=True,
            setup_sql=WRITE_SETUP,
            plan=plan_mixed_rw,
        ),
        Workload(
            name="cluster_reads",
            why=PROTOCOL + "4 shards, 0 replicas, read-only: pruned point reads, "
            "scatter aggregates and rid-ordered merge scans do the work; all else "
            "matches portal_hot.",
            students=2000,
            shards=4,
            plan=plan_cluster_reads,
        ),
    )
}


def plan_rounds(workload: Workload, db: Database, seed: int) -> list[list[Request]]:
    """``[warm-up round, measured round, ...]`` for ``seed``."""
    return workload.plan(db, random.Random(seed))
