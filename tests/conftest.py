"""Shared fixtures: small hand-built databases and the paper workloads.

Also installs a whole-run watchdog: the chaos/concurrency suites assert
"no request ever hangs", and a regression there would otherwise hang
the test run itself.  When the ``pytest-timeout`` plugin is installed
(CI passes ``--timeout`` on the command line) it owns per-test limits;
as a fallback for environments without the plugin, a session-scoped
timer dumps every thread's stack and aborts the run hard if it exceeds
``REPRO_TEST_WATCHDOG_S`` (default 1200 s, 0 disables).
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading

import pytest

from repro.db import Database
from repro.workloads.bank import BankConfig, build_bank
from repro.workloads.university import UniversityConfig, build_university

WATCHDOG_DEFAULT_S = 1200.0


def _watchdog_fire(limit: float) -> None:
    sys.stderr.write(
        f"\n*** test-run watchdog: exceeded {limit:.0f}s — a test is "
        "hanging; dumping thread stacks and aborting ***\n"
    )
    faulthandler.dump_traceback(file=sys.stderr)
    sys.stderr.flush()
    os._exit(2)


@pytest.fixture(scope="session", autouse=True)
def _test_run_watchdog():
    try:
        limit = float(os.environ.get("REPRO_TEST_WATCHDOG_S", WATCHDOG_DEFAULT_S))
    except ValueError:
        limit = WATCHDOG_DEFAULT_S
    if limit <= 0:
        yield
        return
    timer = threading.Timer(limit, _watchdog_fire, args=(limit,))
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()

#: the running-example schema of paper Section 2 (plus FeesPaid, Ex. 5.4)
UNIVERSITY_SCHEMA = """
create table Students(student_id varchar(10) primary key,
    name varchar(40) not null, type varchar(10));
create table Courses(course_id varchar(10) primary key, name varchar(40));
create table Registered(student_id varchar(10), course_id varchar(10),
    primary key (student_id, course_id),
    foreign key (student_id) references Students,
    foreign key (course_id) references Courses);
create table Grades(student_id varchar(10), course_id varchar(10), grade float,
    primary key (student_id, course_id),
    foreign key (student_id) references Students,
    foreign key (course_id) references Courses);
create table FeesPaid(student_id varchar(10) primary key,
    foreign key (student_id) references Students);
"""

UNIVERSITY_DATA = """
insert into Students values
    ('11','Alice','FullTime'), ('12','Bob','PartTime'),
    ('13','Carol','FullTime'), ('14','Dave','FullTime');
insert into Courses values
    ('CS101','Intro'), ('CS102','Data Structures'), ('CS103','Algorithms');
insert into Registered values
    ('11','CS101'), ('12','CS101'), ('13','CS102'),
    ('11','CS102'), ('14','CS103');
insert into Grades values
    ('11','CS101',3.5), ('12','CS101',2.5),
    ('11','CS102',4.0), ('13','CS102',3.0);
insert into FeesPaid values ('11'), ('13');
"""


@pytest.fixture
def tiny_db() -> Database:
    """The hand-sized Section 2 schema with a few rows, no views."""
    db = Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    return db


@pytest.fixture
def university_db() -> Database:
    """Generated university workload (100 students, views deployed)."""
    return build_university(UniversityConfig(students=60, courses=8, seed=3))


@pytest.fixture
def bank_db() -> Database:
    return build_bank(BankConfig(customers=30, seed=5))


def build_big_join_db() -> Database:
    """``L`` (700 rows) and ``R`` (14,000 rows) whose ``L.a < R.b``
    join takes seconds on either engine: it examines 9.8M pairs, yet
    only the 244,650 with both keys in 0..699 match (every other ``b``
    is negative), so a cancelled join never holds much memory."""
    db = Database()
    db.execute("create table L(a int primary key)")
    db.execute("create table R(b int primary key)")
    values = ", ".join(f"({i})" for i in range(700))
    db.execute(f"insert into L values {values}")
    right = db.table("R")
    for b in range(700 - 14_000, 700):
        right.insert((b,))
    return db
