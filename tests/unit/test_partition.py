"""Hash partitioner + partitioned-table facade (repro.cluster.partition).

Satellite of the cluster PR: property tests that the partitioner is a
total, stable, insertion-order-independent function of the partition
key, and unit coverage for the Table-shaped facade invariants the
differential harness depends on (rid-ordered iteration, cross-shard
uniques with single-node error messages, partition-key moves).
"""

import random

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import DataType
from repro.cluster import ClusterCoordinator
from repro.cluster.partition import HashPartitioner, PartitionedTable
from repro.errors import ExecutionError
from repro.storage.table import Table


def schema():
    return TableSchema(
        "T",
        (
            Column("id", DataType.INT),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ),
    )


def make_partitioned(n_shards, key=("id",)):
    s = schema()
    shards = [Table(s) for _ in range(n_shards)]
    return PartitionedTable(s, shards, HashPartitioner(s, key, n_shards))


class TestPartitionerProperties:
    def test_total_over_mixed_key_values(self):
        """Every representable key value maps to exactly one in-range
        shard — including None, negative ints, and unicode text."""
        rng = random.Random(41)
        part = HashPartitioner(schema(), ("id",), 5)
        values = [None, 0, -1, 2**40, -(2**40)] + [
            rng.randint(-(10**9), 10**9) for _ in range(500)
        ]
        for value in values:
            shard = part.shard_of((value, "x", 1.0))
            assert 0 <= shard < 5

    def test_stable_under_table_growth(self):
        """A key's shard never changes as the table grows: the mapping
        is a pure function of (key, n_shards), not of table contents."""
        part = HashPartitioner(schema(), ("id",), 4)
        table = make_partitioned(4)
        placements = {}
        for i in range(300):
            placements[i] = part.shard_of((i, f"n{i}", 0.5))
            table.insert((i, f"n{i}", 0.5))
            # growth did not move anything assigned earlier
            for key, shard in placements.items():
                assert part.shard_of((key, "other", 9.9)) == shard

    def test_insertion_order_independent(self):
        """Shuffled insertion orders land every row on the same shard."""
        rng = random.Random(1187)
        rows = [(i, f"n{i}", float(i)) for i in range(200)]
        reference = None
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            table = make_partitioned(4)
            for row in shuffled:
                table.insert(row)
            placement = {
                row[0]: table.shard_of_row_id(rid)
                for rid, row in table.rows_with_ids()
            }
            if reference is None:
                reference = placement
            assert placement == reference

    def test_key_column_subset(self):
        """Partitioning on a non-PK column routes by that column only."""
        part = HashPartitioner(schema(), ("name",), 3)
        a = part.shard_of((1, "alice", 0.1))
        b = part.shard_of((999, "alice", 9.9))
        assert a == b

    def test_stable_across_equivalent_coercions(self):
        """1 and 1.0 in an INT key column route identically (values are
        dtype-coerced before hashing)."""
        s = schema()
        shards = [Table(s) for _ in range(4)]
        table = PartitionedTable(s, shards, HashPartitioner(s, ("id",), 4))
        table.insert((7, "x", 1.0))
        pruned_int = table.prune_for({"id": 7})
        pruned_float = table.prune_for({"id": 7.0})
        assert pruned_int is not None and pruned_float is not None
        assert list(pruned_int.rows()) == list(pruned_float.rows())


class TestPartitionedTableFacade:
    def test_merged_iteration_is_rid_ordered(self):
        table = make_partitioned(4)
        for i in range(50):
            table.insert((i, f"n{i}", float(i)))
        rids = [rid for rid, _ in table.rows_with_ids()]
        assert rids == sorted(rids)
        # and matches what a single-node table would hold
        single = Table(schema())
        for i in range(50):
            single.insert((i, f"n{i}", float(i)))
        assert list(table.rows_with_ids()) == list(single.rows_with_ids())

    def test_fragment_reads_in_row_id_order_after_rollback(self):
        """A rolled-back delete restores its rows under their old ids,
        below the newest one.  Every shard's fragment still reads in
        row-id order, which scans over a fragment rely on unsorted."""
        db = ClusterCoordinator(shards=2, replicas=0)
        db.execute("create table T(id int primary key, v int)")
        for i in range(12):
            db.execute(f"insert into T values ({i}, {i})")
        db.execute("begin")
        db.execute("delete from T where id < 6")
        db.execute("rollback")
        table = db.table("T")
        seen = []
        for shard in range(table.n_shards):
            fragment = table.fragment(shard)
            ids = [rid for rid, _ in fragment.rows_with_ids()]
            assert ids and ids == sorted(ids)
            assert fragment.rows() == [table.get_row(rid) for rid in ids]
            seen.extend(ids)
        assert sorted(seen) == list(range(12))

    def test_existing_index_is_returned_and_not_logged(self):
        table = make_partitioned(3)
        table.insert((1, "a", 1.0))
        table.create_index(("name",))
        events = []
        table.on_mutate = lambda *args: events.append(args)
        again = table.create_index(("name",))
        assert events == []
        assert table.index_defs() == [(("name",), False)]
        assert again.lookup(("a",)) == frozenset({0})

    def test_cross_shard_unique_violation_single_node_message(self):
        table = make_partitioned(4, key=("name",))
        table.create_index(("id",), unique=True)
        table.insert((1, "a", 0.0))
        with pytest.raises(ExecutionError) as excinfo:
            table.insert((1, "b", 0.0))  # same id, different shard
        single = Table(schema())
        single.create_index(("id",), unique=True)
        single.insert((1, "a", 0.0))
        with pytest.raises(ExecutionError) as single_exc:
            single.insert((1, "b", 0.0))
        assert str(excinfo.value) == str(single_exc.value)

    def test_update_moving_partition_key_keeps_row_id(self):
        table = make_partitioned(4)
        rid = table.insert((3, "move-me", 1.5))
        old_shard = table.shard_of_row_id(rid)
        table.update_row(rid, (4003, "move-me", 1.5))
        assert table.get_row(rid) == (4003, "move-me", 1.5)
        new_shard = table.shard_of_row_id(rid)
        if old_shard != new_shard:
            # the fragment on the old shard no longer holds the row
            assert rid not in dict(table.fragment(old_shard).rows_with_ids())
        assert rid in dict(table.fragment(new_shard).rows_with_ids())

    def test_prune_requires_full_partition_key(self):
        s = schema()
        shards = [Table(s) for _ in range(4)]
        table = PartitionedTable(
            s, shards, HashPartitioner(s, ("id", "name"), 4)
        )
        table.insert((1, "a", 0.0))
        assert table.prune_for({"id": 1}) is None  # partial key
        assert table.prune_for({"id": 1, "name": "a"}) is not None

    def test_prune_uncoercible_literal_falls_back(self):
        table = make_partitioned(4)
        table.insert((1, "a", 0.0))
        assert table.prune_for({"id": "not-an-int"}) is None

    def test_data_version_bumps_on_mutation(self):
        table = make_partitioned(2)
        v0 = table.data_version
        rid = table.insert((1, "a", 0.0))
        v1 = table.data_version
        table.update_row(rid, (1, "b", 0.0))
        v2 = table.data_version
        table.delete_row(rid)
        v3 = table.data_version
        assert v0 < v1 < v2 < v3
