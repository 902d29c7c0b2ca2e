"""Unit tests for the Volcano memo, expansion, marking, and cost model."""

import pytest

from repro.db import Database
from repro.sql import parse_query
from repro.algebra.translate import Translator
from repro.optimizer import CostModel, Memo, VolcanoOptimizer, best_plan
from repro.optimizer.dag import canonicalize_plan, insert_plan
from repro.optimizer.expand import expand_memo
from repro.optimizer.marking import mark_validity


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table A(id int primary key, x int);
        create table B(id int primary key, a_id int, y int);
        create table C(id int primary key, b_id int, z int);
        insert into A values (1,1),(2,2),(3,3),(4,4);
        insert into B values (1,1,0),(2,2,0);
        insert into C values (1,1,0);
        """
    )
    return database


def plan_for(db, sql):
    return db.plan_query(parse_query(sql), db.connect().session)


def _without_prefilters(plan):
    import dataclasses

    from repro.algebra import ops

    if isinstance(plan, ops.Prefilter):
        return _without_prefilters(plan.child)
    fields = {
        f.name: _without_prefilters(getattr(plan, f.name))
        for f in dataclasses.fields(plan)
        if isinstance(getattr(plan, f.name), ops.Operator)
    }
    return dataclasses.replace(plan, **fields) if fields else plan


class TestMemo:
    def test_hash_consing_shares_identical_subtrees(self, db):
        memo = Memo()
        p1 = plan_for(db, "select * from A where x > 1")
        p2 = plan_for(db, "select * from A where x > 1")
        r1 = insert_plan(memo, p1)
        r2 = insert_plan(memo, p2)
        assert memo.find(r1) == memo.find(r2)

    def test_different_predicates_distinct(self, db):
        memo = Memo()
        r1 = insert_plan(memo, plan_for(db, "select * from A where x > 1"))
        r2 = insert_plan(memo, plan_for(db, "select * from A where x > 2"))
        assert memo.find(r1) != memo.find(r2)

    def test_alpha_renaming_ignores_aliases(self, db):
        memo = Memo()
        r1 = insert_plan(memo, plan_for(db, "select q.x from A q where q.x = 1"))
        r2 = insert_plan(memo, plan_for(db, "select z.x from A z where z.x = 1"))
        assert memo.find(r1) == memo.find(r2)

    def test_prefilter_is_transparent(self, db):
        """A view query's plan carries a prefilter copy of its WHERE
        below the view's join; the memo sees the plan without it."""
        from repro.algebra import ops

        db.execute(
            "create view AB as select A.id, A.x, B.y from A, B "
            "where A.id = B.a_id"
        )
        plan = plan_for(db, "select id from AB where x > 1")
        assert any(isinstance(n, ops.Prefilter) for n in ops.walk(plan))
        memo = Memo()
        root = insert_plan(memo, plan)
        stripped = _without_prefilters(plan)
        assert stripped != plan
        assert memo.find(insert_plan(memo, stripped)) == memo.find(root)
        assert db.make_optimizer().optimize(plan).plan is not None

    def test_predicate_conjunct_order_canonical(self, db):
        memo = Memo()
        r1 = insert_plan(memo, plan_for(db, "select id from A where x = 1 and id = 2"))
        r2 = insert_plan(memo, plan_for(db, "select id from A where id = 2 and x = 1"))
        assert memo.find(r1) == memo.find(r2)

    def test_merge_unifies_operations(self):
        memo = Memo()
        a = memo.add_operation("scan", ("t", "t#0"), ())
        b = memo.add_operation("scan", ("u", "u#0"), ())
        merged = memo.merge(a, b)
        assert len(memo.node(merged).operations) == 2
        assert memo.merges == 1


class TestFigure1:
    """The paper's Figure 1: DAG for A ⋈ B ⋈ C."""

    def test_three_association_orders(self, db):
        plan = plan_for(
            db,
            "select * from A, B, C where A.id = B.a_id and B.id = C.b_id",
        )
        opt = VolcanoOptimizer(lambda t: db.table(t).row_count)
        memo, root, stats = opt.expand_only(plan, joins_only=True)
        # the root join class must contain (AB)C, A(BC) and (AC)B shapes
        # (with commutative variants): at least 6 join operations
        node = memo.node(root)
        for _ in range(4):
            if any(op.kind == "join" for op in node.operations):
                break
            wrappers = [
                op for op in node.operations if op.kind in ("project", "select")
            ]
            node = memo.node(wrappers[0].children[0])
        join_ops = [op for op in node.operations if op.kind == "join"]
        assert len(join_ops) >= 6
        assert stats.plans >= 3

    def test_expansion_terminates(self, db):
        plan = plan_for(
            db,
            "select * from A, B, C where A.id = B.a_id and B.id = C.b_id",
        )
        memo = Memo()
        insert_plan(memo, plan)
        passes = expand_memo(memo)
        assert passes < 20


class TestMarking:
    def make(self, db, view_sql, query_sql):
        view_plan = Translator(db.catalog).translate(parse_query(view_sql))
        query_plan = plan_for(db, query_sql)
        opt = VolcanoOptimizer(lambda t: db.table(t).row_count)
        return opt.check_validity(query_plan, [view_plan])

    def test_identity_match(self, db):
        assert self.make(db, "select * from A where x > 1",
                         "select * from A where x > 1").valid

    def test_base_scan_never_valid(self, db):
        result = self.make(db, "select * from A where x > 1", "select * from A")
        assert not result.valid

    def test_selection_subsumption(self, db):
        assert self.make(db, "select * from A where x > 1",
                         "select * from A where x > 1 and id = 2").valid

    def test_projection_subsumption(self, db):
        assert self.make(db, "select * from A where x > 1",
                         "select id from A where x > 1").valid

    def test_join_of_views(self, db):
        view_a = Translator(db.catalog).translate(parse_query("select * from A"))
        view_b = Translator(db.catalog).translate(parse_query("select * from B"))
        query = plan_for(db, "select A.id from A, B where A.id = B.a_id")
        opt = VolcanoOptimizer(lambda t: db.table(t).row_count)
        assert opt.check_validity(query, [view_a, view_b]).valid

    def test_disjoint_view_useless(self, db):
        assert not self.make(db, "select * from C", "select * from A").valid

    def test_marking_counts(self, db):
        result = self.make(db, "select * from A where x > 1",
                           "select * from A where x > 1")
        assert result.valid_eq_nodes >= 1
        assert result.marking_seconds >= 0


class TestCostModel:
    def test_best_plan_prefers_small_intermediate(self, db):
        # joining B⋈C (2x1) first beats A⋈B (4x2) first
        plan = plan_for(
            db, "select * from A, B, C where A.id = B.a_id and B.id = C.b_id"
        )
        opt = VolcanoOptimizer(lambda t: db.table(t).row_count)
        result = opt.optimize(plan)
        assert result.plan.cost < float("inf")

        def joins(choice):
            found = []
            if choice.op is not None and choice.op.kind == "join":
                found.append(choice)
            for child in choice.children:
                found.extend(joins(child))
            return found

        top_join = joins(result.plan)[0]
        # the deepest join should involve the two smallest tables (B, C)
        deepest = joins(result.plan)[-1]
        scan_names = set()
        def scans(c):
            if c.op is not None and c.op.kind == "scan":
                scan_names.add(c.op.params[0])
            for ch in c.children:
                scans(ch)
        scans(deepest)
        assert scan_names == {"b", "c"}

    def test_rows_estimated(self, db):
        memo = Memo()
        root = insert_plan(memo, plan_for(db, "select * from A"))
        model = CostModel(lambda t: db.table(t).row_count)
        assert model.estimate_rows(memo, root) == 4.0


class TestCanonicalization:
    def test_canonical_bindings(self, db):
        plan = plan_for(db, "select t1.x from A t1, A t2 where t1.id = t2.id")
        canonical = canonicalize_plan(plan)
        from repro.algebra import ops as alg_ops

        bindings = sorted(
            leaf.binding for leaf in alg_ops.base_relations(canonical)
        )
        assert bindings == ["a#0", "a#1"]
