"""Unit tests for row storage and hash indexes."""

import pytest

from repro.errors import ExecutionError, IntegrityError
from repro.catalog import Column, DataType, TableSchema
from repro.storage import HashIndex, Table


def make_table(unique_on=None):
    schema = TableSchema(
        "T",
        (
            Column("id", DataType.INT, not_null=True),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ),
    )
    table = Table(schema)
    if unique_on:
        table.create_index(unique_on, unique=True)
    return table


class TestTable:
    def test_insert_and_iterate(self):
        t = make_table()
        t.insert((1, "a", 1.5))
        t.insert((2, "b", None))
        assert sorted(t.rows()) == [(1, "a", 1.5), (2, "b", None)]
        assert len(t) == 2

    def test_bag_semantics_duplicates(self):
        t = make_table()
        t.insert((1, "a", 1.0))
        t.insert((1, "a", 1.0))
        assert len(t) == 2

    def test_coercion_on_insert(self):
        t = make_table()
        t.insert((1, "a", 2))  # int -> float column
        assert list(t.rows())[0][2] == 2.0

    def test_not_null_enforced(self):
        t = make_table()
        with pytest.raises(IntegrityError):
            t.insert((None, "a", 1.0))

    def test_arity_check(self):
        t = make_table()
        with pytest.raises(ExecutionError):
            t.insert((1, "a"))

    def test_unique_index_enforced(self):
        t = make_table(unique_on=("id",))
        t.insert((1, "a", 1.0))
        with pytest.raises(IntegrityError):
            t.insert((1, "b", 2.0))

    def test_unique_allows_null_keys(self):
        schema = TableSchema("T", (Column("id", DataType.INT), Column("x", DataType.INT)))
        t = Table(schema)
        t.create_index(("x",), unique=True)
        t.insert((1, None))
        t.insert((2, None))  # SQL UNIQUE permits multiple NULLs
        assert len(t) == 2

    def test_delete_row_updates_index(self):
        t = make_table(unique_on=("id",))
        rid = t.insert((1, "a", 1.0))
        t.delete_row(rid)
        t.insert((1, "again", 2.0))  # id reusable after delete
        assert len(t) == 1

    def test_update_row(self):
        t = make_table(unique_on=("id",))
        rid = t.insert((1, "a", 1.0))
        old = t.update_row(rid, (1, "z", 9.0))
        assert old == (1, "a", 1.0)
        assert list(t.rows()) == [(1, "z", 9.0)]

    def test_update_row_unique_violation(self):
        t = make_table(unique_on=("id",))
        t.insert((1, "a", 1.0))
        rid = t.insert((2, "b", 2.0))
        with pytest.raises(IntegrityError):
            t.update_row(rid, (1, "b", 2.0))

    def test_update_row_same_key_allowed(self):
        t = make_table(unique_on=("id",))
        rid = t.insert((1, "a", 1.0))
        t.update_row(rid, (1, "b", 1.0))  # key unchanged: no violation

    def test_truncate(self):
        t = make_table(unique_on=("id",))
        t.insert((1, "a", 1.0))
        t.truncate()
        assert len(t) == 0

    def test_distinct_count(self):
        t = make_table()
        t.insert((1, "a", 1.0))
        t.insert((2, "a", 2.0))
        assert t.distinct_count("name") == 1
        assert t.distinct_count("id") == 2


class TestHashIndex:
    def test_lookup(self):
        t = make_table()
        index = t.create_index(("name",))
        t.insert((1, "a", 1.0))
        t.insert((2, "a", 2.0))
        t.insert((3, "b", 3.0))
        assert len(index.lookup(("a",))) == 2
        assert index.lookup(("zzz",)) == frozenset()

    def test_lookup_null_key_empty(self):
        t = make_table()
        index = t.create_index(("name",))
        t.insert((1, None, 1.0))
        assert index.lookup((None,)) == frozenset()

    def test_index_backfills_existing_rows(self):
        t = make_table()
        t.insert((1, "a", 1.0))
        index = t.create_index(("name",))
        assert len(index.lookup(("a",))) == 1

    def test_composite_index(self):
        t = make_table()
        index = t.create_index(("id", "name"))
        t.insert((1, "a", 1.0))
        assert len(index.lookup((1, "a"))) == 1
        assert index.lookup((1, "b")) == frozenset()

    def test_find_index(self):
        t = make_table()
        t.create_index(("name",))
        assert t.find_index(("name",)) is not None
        assert t.find_index(("score",)) is None

    def test_would_violate(self):
        t = make_table(unique_on=("id",))
        rid = t.insert((1, "a", 1.0))
        index = t.find_index(("id",))
        assert index.would_violate((1, "x", 0.0))
        assert not index.would_violate((1, "x", 0.0), ignore_row_id=rid)
        assert not index.would_violate((2, "x", 0.0))


class TestIndexChurnOracle:
    """Randomized insert/delete/update churn: after every operation the
    index must answer exactly what a full scan answers, for every key
    ever seen.  Drives the same index the vectorized engine's pushdown
    scans probe, so divergence here would silently corrupt its results."""

    KEYS = ["a", "b", "c", "d", None]

    def _oracle(self, t, key):
        return {
            rid
            for rid, row in t.rows_with_ids()
            if row[1] == key
        }

    def _assert_consistent(self, t, index):
        for key in self.KEYS:
            if key is None:
                assert index.lookup((None,)) == frozenset()
                continue
            assert index.lookup((key,)) == self._oracle(t, key), key

    def test_churn_matches_full_scan(self):
        import random

        rng = random.Random(1234)
        t = make_table()
        index = t.create_index(("name",))
        live = []
        serial = 0
        for step in range(400):
            action = rng.random()
            if action < 0.5 or not live:
                serial += 1
                rid = t.insert((serial, rng.choice(self.KEYS), float(serial)))
                live.append(rid)
            elif action < 0.8:
                rid = live.pop(rng.randrange(len(live)))
                t.delete_row(rid)
            else:
                rid = rng.choice(live)
                old = t.get_row(rid)
                t.update_row(rid, (old[0], rng.choice(self.KEYS), old[2]))
            if step % 20 == 0:
                self._assert_consistent(t, index)
        self._assert_consistent(t, index)
        # every live row is indexed (NULL keys included in the buckets)
        assert len(index) == len(t)

    def test_unique_churn_never_admits_duplicates(self):
        import random

        rng = random.Random(99)
        t = make_table(unique_on=("id",))
        live = {}  # id -> row_id
        for _ in range(300):
            key = rng.randrange(12)
            action = rng.random()
            if action < 0.55:
                if key in live:
                    with pytest.raises(IntegrityError):
                        t.insert((key, "dup", 0.0))
                else:
                    live[key] = t.insert((key, "x", float(key)))
            elif action < 0.8 and live:
                victim = rng.choice(list(live))
                t.delete_row(live.pop(victim))
            elif live:
                victim = rng.choice(list(live))
                target = rng.randrange(12)
                rid = live[victim]
                if target != victim and target in live:
                    with pytest.raises(IntegrityError):
                        t.update_row(rid, (target, "y", 0.0))
                else:
                    t.update_row(rid, (target, "y", 0.0))
                    live[target] = live.pop(victim)
            # uniqueness invariant: one live row per id
            ids = [row[0] for _, row in t.rows_with_ids()]
            assert len(ids) == len(set(ids))
            assert sorted(ids) == sorted(live)

    def test_failed_insert_leaves_index_unchanged(self):
        t = make_table(unique_on=("id",))
        t.insert((1, "a", 1.0))
        index = t.find_index(("id",))
        before = index.lookup((1,))
        with pytest.raises(IntegrityError):
            t.insert((1, "b", 2.0))
        assert index.lookup((1,)) == before
        assert len(t) == 1

    def test_failed_update_preserves_old_key(self):
        t = make_table(unique_on=("id",))
        t.insert((1, "a", 1.0))
        rid = t.insert((2, "b", 2.0))
        with pytest.raises(IntegrityError):
            t.update_row(rid, (1, "b", 2.0))
        assert t.get_row(rid) == (2, "b", 2.0)
        assert index_rids(t, ("id",), (2,)) == {rid}


def index_rids(table, columns, key):
    return set(table.find_index(columns).lookup(key))


class TestMultiIndexAtomicity:
    """Satellite regression: a mutation that fails while applying a
    *later* index must roll back the entries already applied to earlier
    indexes — storage never ends half-mutated."""

    def two_unique_indexes(self):
        t = make_table(unique_on=("id",))
        t.create_index(("name",), unique=True)
        return t

    def test_insert_rolls_back_first_index_when_second_rejects(self):
        t = self.two_unique_indexes()
        t.insert((1, "a", 1.0))
        # id=2 is fresh (passes the id index) but name='a' collides in
        # the name index; defeat the pre-check on the name index so the
        # violation surfaces at *apply* time, after the id entry landed
        name_index = t.find_index(("name",))
        original = name_index.would_violate
        name_index.would_violate = lambda row, ignore_row_id=None: False
        try:
            with pytest.raises(IntegrityError):
                t.insert((2, "a", 2.0))
        finally:
            name_index.would_violate = original
        assert len(t) == 1
        assert index_rids(t, ("id",), (2,)) == set()
        assert index_rids(t, ("name",), ("a",)) == {0}

    def test_update_restores_both_indexes_when_second_rejects(self):
        t = self.two_unique_indexes()
        t.insert((1, "a", 1.0))
        rid = t.insert((2, "b", 2.0))
        name_index = t.find_index(("name",))
        original = name_index.would_violate
        name_index.would_violate = lambda row, ignore_row_id=None: False
        try:
            with pytest.raises(IntegrityError):
                # id 2 -> 3 is fine; name 'b' -> 'a' collides at apply time
                t.update_row(rid, (3, "a", 2.0))
        finally:
            name_index.would_violate = original
        # row and BOTH indexes must show the pre-update image
        assert t.get_row(rid) == (2, "b", 2.0)
        assert index_rids(t, ("id",), (2,)) == {rid}
        assert index_rids(t, ("id",), (3,)) == set()
        assert index_rids(t, ("name",), ("b",)) == {rid}
        assert index_rids(t, ("name",), ("a",)) == {0}

    def test_hook_does_not_fire_for_failed_mutation(self):
        t = self.two_unique_indexes()
        events = []
        t.on_mutate = lambda *args: events.append(args[0])
        t.insert((1, "a", 1.0))
        with pytest.raises(IntegrityError):
            t.insert((1, "z", 2.0))
        assert events == ["insert"]

    def test_index_creation_fires_hook(self):
        t = make_table()
        events = []
        t.on_mutate = lambda *args: events.append(args)
        t.create_index(("score",), unique=False)
        assert events == [("index", ("score",), False)]
        assert t.has_index(("score",), unique=False)
        assert not t.has_index(("score",), unique=True)

    def test_existing_index_is_returned_and_not_logged(self):
        t = make_table()
        first = t.create_index(("score",), unique=False)
        events = []
        t.on_mutate = lambda *args: events.append(args)
        assert t.create_index(("score",), unique=False) is first
        assert events == []
        assert t.index_defs() == [(("score",), False)]
        # other uniqueness: a second index, logged
        t.create_index(("score",), unique=True)
        assert events == [("index", ("score",), True)]
