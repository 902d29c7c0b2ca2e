"""E14 — vectorized batch executor vs the row engine.

The paper's enforcement models rewrite queries and then *execute* them;
every measured overhead sits on top of executor cost.  E14 quantifies
the columnar batch executor (:mod:`repro.engine.vectorized`) against
the row-at-a-time oracle on the bank and university workloads:

* executor throughput — plans are built once, then executed repeatedly
  through ``Database.run_plan`` under each engine, so the comparison
  isolates execution (parse/bind/rewrite cost is identical for both);
* differential correctness — every benchmarked query is bag-compared
  between the engines; the acceptance bar is **zero** mismatches;
* acceptance bar — ≥3× speedup on index-pushable point scans and on
  the bank scan/join basket, ≥2× on the university basket (the row
  engine's joins there no longer resolve column names per cell);
  aggregation-heavy queries are reported (hash aggregation is
  accumulator-bound) but not gated;
* gateway parity — the same requests through the concurrent
  enforcement gateway with ``QueryRequest.engine`` switching engines,
  again with zero result mismatches.
"""

from collections import Counter

import pytest

from repro.bench import Experiment, time_callable
from repro.db import SessionContext
from repro.service import EnforcementGateway, QueryRequest
from repro.sql.parser import parse_statement
from repro.workloads.bank import BankConfig, build_bank, grant_teller
from repro.workloads.university import UniversityConfig, build_university

from benchmarks.conftest import register_experiment

EXPERIMENT = register_experiment(
    Experiment(
        id="E14",
        title="vectorized batch executor vs row engine",
        claim="batch execution with compiled predicates and index pushdown beats tuple-at-a-time by >=3x on bank and >=2x on university scan/join workloads, with identical results",
    )
)

#: repetitions of each plan inside one timed sample
INNER_RUNS = 5

#: minimum vectorized/row speedup on the university scan/join basket.
#: The row engine binds column ordinals once per operator, not once per
#: cell, which took about 30 % off its time on this basket while the
#: vectorized time stayed put (2.1-2.9x, median 2.5x, over ten runs on a
#: 2-vCPU host); the bank basket and every index-pushable point scan
#: keep 3x.
UNIVERSITY_BASKET_GATE = 2.0

#: (label, sql, category); category "gated" queries participate in the
#: scan/join basket gate, "reported" ones are informational
BANK_QUERIES = [
    (
        "point scan via pk index",
        "select cust_id, balance from Accounts where acct_id = 'A10807'",
        "pushable",
    ),
    (
        "filter scan (range + <>)",
        "select acct_id from Accounts where balance > 20000.0 and branch <> 'Harbor'",
        "gated",
    ),
    (
        "equi-join accounts x customers",
        "select c.name, a.balance from Accounts a, Customers c "
        "where a.cust_id = c.cust_id and a.branch = 'Downtown'",
        "gated",
    ),
    (
        "3-way predicate scan",
        "select acct_id, balance from Accounts "
        "where branch = 'Campus' and balance between 5000.0 and 45000.0",
        "gated",
    ),
    (
        "group-by aggregation",
        "select branch, count(*), sum(balance), avg(balance) "
        "from Accounts group by branch",
        "reported",
    ),
]

UNIVERSITY_QUERIES = [
    (
        "point scan via pk index",
        "select name, type from Students where student_id = '57'",
        "pushable",
    ),
    (
        "grades filter scan",
        "select student_id, grade from Grades where grade >= 3.0",
        "gated",
    ),
    (
        "students x grades join",
        "select s.name, g.grade from Students s, Grades g "
        "where s.student_id = g.student_id and g.grade > 2.0",
        "gated",
    ),
    (
        "3-way join with filter",
        "select s.name, c.name from Students s, Registered r, Courses c "
        "where s.student_id = r.student_id and r.course_id = c.course_id "
        "and s.type = 'FullTime'",
        "gated",
    ),
    (
        "per-course aggregation",
        "select course_id, count(*), avg(grade) from Grades group by course_id",
        "reported",
    ),
]


@pytest.fixture(scope="module")
def bank():
    return build_bank(BankConfig(customers=400, accounts_per_customer=4, seed=7))


@pytest.fixture(scope="module")
def university():
    return build_university(UniversityConfig(students=150, courses=10, seed=21))


def measure_engines(db, sql):
    """(row_s, vec_s, mismatch) for one query, plan built once."""
    session = SessionContext()
    plan = db.plan_query(parse_statement(sql), session, None)
    row_result = db.run_plan(plan, session, engine="row")
    vec_result = db.run_plan(plan, session, engine="vectorized")
    mismatch = Counter(row_result.rows) != Counter(vec_result.rows)
    row_s, _ = time_callable(
        lambda: [db.run_plan(plan, session, engine="row") for _ in range(INNER_RUNS)]
    )
    vec_s, _ = time_callable(
        lambda: [
            db.run_plan(plan, session, engine="vectorized")
            for _ in range(INNER_RUNS)
        ]
    )
    return row_s / INNER_RUNS, vec_s / INNER_RUNS, mismatch


def run_workload(db, queries, workload_name):
    mismatches = 0
    basket_row = basket_vec = 0.0
    pushable_speedups = []
    for label, sql, category in queries:
        row_s, vec_s, mismatch = measure_engines(db, sql)
        mismatches += mismatch
        speedup = row_s / vec_s if vec_s else float("inf")
        if category in ("pushable", "gated"):
            basket_row += row_s
            basket_vec += vec_s
        if category == "pushable":
            pushable_speedups.append(speedup)
        EXPERIMENT.add(
            f"{workload_name}: {label}",
            row_ms=f"{row_s * 1000:.2f}",
            vectorized_ms=f"{vec_s * 1000:.2f}",
            speedup=f"{speedup:.1f}x",
            gated="yes" if category != "reported" else "no",
            mismatch=mismatch,
        )
    basket_speedup = basket_row / basket_vec
    EXPERIMENT.add(
        f"{workload_name}: scan/join basket",
        row_ms=f"{basket_row * 1000:.2f}",
        vectorized_ms=f"{basket_vec * 1000:.2f}",
        speedup=f"{basket_speedup:.1f}x",
        gated="yes",
        mismatch=0,
    )
    return mismatches, basket_speedup, pushable_speedups


def test_bank_standalone(benchmark, bank):
    mismatches, basket, pushable = run_workload(bank, BANK_QUERIES, "bank")
    assert mismatches == 0
    assert basket >= 3.0, f"bank scan/join basket speedup {basket:.1f}x < 3x"
    assert all(s >= 3.0 for s in pushable), pushable

    session = SessionContext()
    plan = bank.plan_query(parse_statement(BANK_QUERIES[2][1]), session, None)
    benchmark(lambda: bank.run_plan(plan, session, engine="vectorized"))


def test_university_standalone(benchmark, university):
    mismatches, basket, pushable = run_workload(
        university, UNIVERSITY_QUERIES, "university"
    )
    assert mismatches == 0
    assert basket >= UNIVERSITY_BASKET_GATE, (
        f"university basket speedup {basket:.1f}x < {UNIVERSITY_BASKET_GATE}x"
    )
    assert all(s >= 3.0 for s in pushable), pushable

    session = SessionContext()
    plan = university.plan_query(
        parse_statement(UNIVERSITY_QUERIES[2][1]), session, None
    )
    benchmark(lambda: university.run_plan(plan, session, engine="vectorized"))


def test_index_pushdown_scans_fewer_rows(bank):
    """The pushable point scan touches only the probed rows."""
    from repro.db import _QueryContext
    from repro.engine import make_executor

    session = SessionContext()
    sql = BANK_QUERIES[0][1]
    plan = bank.plan_query(parse_statement(sql), session, None)

    row_exec = make_executor("row", _QueryContext(bank, session, None))
    vec_exec = make_executor("vectorized", _QueryContext(bank, session, None))
    row_rows = row_exec.execute(plan)
    vec_rows = vec_exec.execute(plan)

    assert Counter(row_rows) == Counter(vec_rows)
    assert vec_exec.index_probes == 1
    assert vec_exec.rows_scanned <= 1
    assert row_exec.rows_scanned >= 1000
    EXPERIMENT.add(
        "bank: point-scan instrumentation",
        row_ms=None,
        vectorized_ms=None,
        speedup=None,
        gated="no",
        mismatch=0,
        rows_scanned_row=row_exec.rows_scanned,
        rows_scanned_vectorized=vec_exec.rows_scanned,
        index_probes=vec_exec.index_probes,
    )


def test_gateway_engine_switch(benchmark, bank):
    """The same requests through the enforcement gateway under both
    engines: identical status and result multisets, zero mismatches."""
    grant_teller(bank, "teller1")
    open_sqls = [sql for _, sql, _ in BANK_QUERIES]
    truman_sqls = [
        "select acct_id, balance from Accounts where balance > 30000.0",
        "select branch, count(*) from Accounts group by branch",
    ]

    def requests(engine):
        reqs = [
            QueryRequest(user=None, sql=sql, mode="open", engine=engine)
            for sql in open_sqls
        ]
        reqs += [
            QueryRequest(user="teller1", sql=sql, mode="truman", engine=engine)
            for sql in truman_sqls
        ]
        return reqs

    gateway = EnforcementGateway(bank, workers=4, queue_size=64)
    try:
        row_responses = gateway.execute_many(requests("row"))
        vec_responses = gateway.execute_many(requests("vectorized"))
        mismatches = 0
        for row_resp, vec_resp in zip(row_responses, vec_responses):
            if row_resp.status is not vec_resp.status:
                mismatches += 1
            elif Counter(row_resp.rows) != Counter(vec_resp.rows):
                mismatches += 1
        assert mismatches == 0

        row_s, _ = time_callable(lambda: gateway.execute_many(requests("row")))
        vec_s, _ = time_callable(
            lambda: gateway.execute_many(requests("vectorized"))
        )
        count = len(requests("row"))
        EXPERIMENT.add(
            "gateway: mixed open/truman requests",
            row_ms=f"{row_s * 1000:.2f}",
            vectorized_ms=f"{vec_s * 1000:.2f}",
            speedup=f"{row_s / vec_s:.1f}x",
            gated="no",
            mismatch=mismatches,
            throughput_rps=f"{count / vec_s:.0f}",
        )
        benchmark(lambda: gateway.execute_many(requests("vectorized")))
    finally:
        gateway.shutdown(drain=False)
