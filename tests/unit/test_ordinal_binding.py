"""Work count: the row engine binds column references to row ordinals
once per operator execution, not once per cell.

``RowResolver.ordinal`` is wrapped with a counter here, in the test
only.  Its calls must not grow with the input: a plan makes the same
number over 10 rows as over 1,000, and each request of the E22
``report_stream`` workload (318-6,396 result rows) makes at most 11:
``report_join``'s plan holds one predicate more than its query, the
prefilter copy of ``type = 'PartTime'`` inside ``RegStudents``.
"""

import pytest

from repro.db import Database
from repro.engine.evaluator import RowResolver
from repro.service import EnforcementGateway, QueryRequest

from tests.integration.test_probe_differential import e2e


@pytest.fixture
def ordinal_calls(monkeypatch):
    """Number of ``RowResolver.ordinal`` calls so far, as ``calls[0]``."""
    calls = [0]
    ordinal = RowResolver.ordinal

    def counted(self, ref):
        calls[0] += 1
        return ordinal(self, ref)

    monkeypatch.setattr(RowResolver, "ordinal", counted)
    return calls


@pytest.fixture(scope="module")
def sized():
    """The same two tables at 10 and at 1,000 rows."""
    databases = {}
    for rows in (10, 1000):
        db = Database()
        db.execute_script(
            "create table T(id int primary key, grp varchar(5), val float);"
            "create table U(id int primary key, t_id int, tag varchar(5));"
        )
        db.execute("insert into T values " + ", ".join(
            f"({i}, 'g{i % 3}', {i * 1.5})" for i in range(rows)
        ))
        db.execute("insert into U values " + ", ".join(
            f"({i}, {i}, 't{i % 4}')" for i in range(rows)
        ))
        databases[rows] = db
    return databases


PLANS = {
    "select *": "select * from T",
    "filter": "select id, val from T where val > 3.0 and grp <> 'g1'",
    "equi-join": "select T.id, U.tag from T, U where T.id = U.t_id and U.tag = 't1'",
    "group by": "select grp, count(*), sum(val) from T group by grp",
    "order by": "select id, grp, val from T order by grp, val desc",
}


@pytest.mark.parametrize("sql", list(PLANS.values()), ids=list(PLANS))
def test_calls_do_not_grow_with_rows(sized, ordinal_calls, sql):
    counts = []
    for db in sized.values():
        ordinal_calls[0] = 0
        assert len(db.execute_query(sql, engine="row").rows) > 0
        counts.append(ordinal_calls[0])
    assert counts[0] == counts[1], counts
    assert counts[0] > 0


@pytest.fixture(scope="module")
def report_gateway():
    db = e2e.build_database(e2e.WORKLOADS["report_stream"])
    gateway = EnforcementGateway(db)
    yield gateway
    gateway.shutdown(drain=False)


@pytest.mark.parametrize("mode", ["truman", "non-truman"])
@pytest.mark.parametrize("cls", sorted(e2e.REPORT_SQL))
def test_report_stream_request_binds_at_most_eleven(
    report_gateway, ordinal_calls, cls, mode
):
    response = report_gateway.execute(
        QueryRequest(user=e2e.REGISTRAR, sql=e2e.REPORT_SQL[cls], mode=mode)
    )
    assert len(response.rows) >= 318, response
    assert ordinal_calls[0] <= 11
