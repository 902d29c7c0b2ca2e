"""Integration tests for access-pattern views (§6) beyond the paper
examples: chained dependent joins, executor behavior, helpers."""

import pytest

from repro.db import Database
from repro.errors import ParameterError, QueryRejectedError
from repro.accesspattern import access_pattern_views, describe_access_pattern


def build_access_pattern_db() -> Database:
    """Regions -> Stores -> Sales, reachable only through ``$$`` views."""
    database = Database()
    database.execute_script(
        """
        create table Regions(region_id int primary key, rname varchar(20));
        create table Stores(store_id int primary key, region_id int not null,
            foreign key (region_id) references Regions);
        create table Sales(sale_id int primary key, store_id int not null,
            amount float,
            foreign key (store_id) references Stores);
        insert into Regions values (1, 'north'), (2, 'south');
        insert into Stores values (10, 1), (11, 1), (12, 2);
        insert into Sales values (100, 10, 5.0), (101, 10, 7.0),
            (102, 11, 2.0), (103, 12, 9.0);
        create authorization view AllRegions as select * from Regions;
        create authorization view StoresByRegion as
            select * from Stores where region_id = $$r;
        create authorization view SalesByStore as
            select * from Sales where store_id = $$s;
        """
    )
    for name in ("AllRegions", "StoresByRegion", "SalesByStore"):
        database.grant_public(name)
    return database


@pytest.fixture
def db():
    return build_access_pattern_db()


class TestChainedDependentJoins:
    def test_two_level_chain(self, db):
        """Regions -> Stores (via $$r) -> Sales (via $$s): the second
        dependent join anchors on a column produced by the first."""
        conn = db.connect(user_id="analyst", mode="non-truman")
        sql = (
            "select r.rname, sa.amount "
            "from Regions r, Stores st, Sales sa "
            "where st.region_id = r.region_id and sa.store_id = st.store_id"
        )
        decision = conn.check_validity(sql)
        assert decision.unconditional, decision.describe()
        assert sum(1 for s in decision.trace if s.rule == "AP") == 2
        truth = db.execute(sql)
        witness = db.run_plan(decision.witness, conn.session)
        assert sorted(truth.rows) == sorted(witness.rows)

    def test_partial_chain_with_constant(self, db):
        conn = db.connect(user_id="analyst", mode="non-truman")
        sql = (
            "select st.store_id, sa.amount from Stores st, Sales sa "
            "where st.region_id = 1 and sa.store_id = st.store_id"
        )
        decision = conn.check_validity(sql)
        assert decision.unconditional, decision.describe()
        truth = db.execute(sql)
        witness = db.run_plan(decision.witness, conn.session)
        assert sorted(truth.rows) == sorted(witness.rows)

    def test_unanchored_table_rejected(self, db):
        conn = db.connect(user_id="analyst", mode="non-truman")
        with pytest.raises(QueryRejectedError):
            conn.query("select * from Sales")

    def test_aggregate_over_dependent_join(self, db):
        conn = db.connect(user_id="analyst", mode="non-truman")
        sql = (
            "select r.rname, sum(sa.amount) as total "
            "from Regions r, Stores st, Sales sa "
            "where st.region_id = r.region_id and sa.store_id = st.store_id "
            "group by r.rname"
        )
        decision = conn.check_validity(sql)
        assert decision.valid, decision.describe()
        truth = db.execute(sql)
        witness = db.run_plan(decision.witness, conn.session)
        assert sorted(truth.rows) == sorted(witness.rows)


class TestDirectAccessParamQueries:
    def test_query_on_view_requires_binding(self, db):
        conn = db.connect(user_id="analyst", mode="non-truman")
        with pytest.raises(ParameterError):
            conn.query("select * from SalesByStore")

    def test_query_on_view_with_binding(self, db):
        conn = db.connect(user_id="analyst", mode="non-truman")
        result = conn.query(
            "select amount from SalesByStore", access_params={"s": 10}
        )
        assert sorted(result.column("amount")) == [5.0, 7.0]

    def test_pin_via_in_list_not_supported(self, db):
        """A $$ pin requires a single pinned value; IN lists with more
        than one candidate must be rejected (no single instantiation)."""
        conn = db.connect(user_id="analyst", mode="non-truman")
        decision = conn.check_validity(
            "select amount from Sales where store_id in (10, 11)"
        )
        assert not decision.valid


class TestHelpers:
    def test_access_pattern_views_listing(self, db):
        names = {v.name for v in access_pattern_views(db)}
        assert names == {"StoresByRegion", "SalesByStore"}

    def test_describe(self, db):
        view = next(
            v for v in access_pattern_views(db) if v.name == "SalesByStore"
        )
        text = describe_access_pattern(view)
        assert "$$s" in text and "SalesByStore" in text
