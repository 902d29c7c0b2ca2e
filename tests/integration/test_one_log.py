"""One write-ahead log for a single node and a cluster coordinator.

The same script of schema, row and policy changes runs on a durable
single-node :class:`~repro.db.Database` and on a durable one-shard
:class:`~repro.cluster.ClusterCoordinator`.  Both write through the one
:class:`~repro.durability.manager.DurabilityManager`, so:

* their WAL segments decode to the same records, apart from the
  ``epoch`` stamp the coordinator adds;
* reopening either directory restores the same content digests;
* the single node's segment is byte-identical to
  ``tests/data/one_log_segment.wal``.  Re-record that file with
  ``PYTHONPATH=src python -m tests.integration.test_one_log``, and only
  at a commit whose bytes you mean to pin.

The file also pins the rule that a logged database refuses a callable
VPD policy before attaching it, and the ``wal_*`` key set both kinds of
durable database report.
"""

import os
import sys

import pytest

from repro.catalog.constraints import TotalParticipation
from repro.cluster import ClusterCoordinator
from repro.cluster.health import content_digests
from repro.db import Database
from repro.durability import layout
from repro.durability.wal import read_wal
from repro.errors import DurabilityError
from repro.rebac import attach_rebac
from repro.service.clock import ManualClock
from repro.sql import Parser
from repro.workloads.collab import collab_namespace

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "one_log_segment.wal"
)

SCHEMA = [
    "create table T (id int primary key, owner varchar(10))",
    "create table P (id int primary key, note varchar(10))",
    "create table Folders (folder_id varchar(20) primary key, "
    "name varchar(40) not null)",
    "create table Documents (doc_id varchar(20) primary key, "
    "folder_id varchar(20) not null, title varchar(40) not null, "
    "content varchar(120) not null, "
    "foreign key (folder_id) references Folders)",
]

WAL_KEYS = {
    "wal_records", "wal_bytes", "wal_fsyncs", "wal_commits",
    "wal_last_lsn", "wal_synced_lsn", "snapshot_lsn", "checkpoints",
}


def run_script(db):
    """Every record kind the log knows, in one deterministic order."""
    for sql in SCHEMA:
        db.execute(sql)
    for sql in (
        "insert into T values (1, 'a')",
        "insert into T values (2, 'b')",
        "insert into T values (3, 'c')",
        "insert into P values (1, 'x')",
        "insert into P values (2, 'y')",
        "update T set owner = 'd' where id = 3",
        "delete from T where id = 3",
        "create authorization view MyT as "
        "select * from T where owner = $user_id",
        "create view AllT as select id, owner from T",
    ):
        db.execute(sql)
    db.grant("MyT", "a")
    db.grant("MyT", "b")
    db.grants.revoke("MyT", "b")
    db.vpd_policies.add_policy("P", "note = 'x'")
    db.set_truman_view("T", "MyT")
    db.table("T").create_index(("owner",))
    db.add_participation_constraint(
        TotalParticipation(
            core_table="T",
            remainder_table="P",
            join_pairs=(("id", "id"),),
            name="t_in_p",
        )
    )
    attach_rebac(
        db, collab_namespace(), clock=ManualClock(now=1000.0),
        create_schema=True,
    )
    db.execute("insert into Folders values ('f', 'shared')")
    db.execute("insert into Documents values ('d', 'f', 'doc', 'body')")
    db.rebac.write_tuple("document:d", "viewer", "user:alice")


def segment(data_dir):
    (_, path), = layout.list_segments(data_dir)
    return path


def build_single(data_dir):
    db = Database.open(data_dir)
    run_script(db)
    db.close(checkpoint=False)
    return segment(data_dir)


def build_cluster(data_dir):
    db = ClusterCoordinator(shards=1, data_dir=data_dir)
    run_script(db)
    db.close(checkpoint=False)
    return segment(data_dir)


def without_epoch(records):
    return [{k: v for k, v in r.items() if k != "epoch"} for r in records]


class TestOneLog:
    def test_records_match_apart_from_epoch(self, tmp_path):
        single, _, single_torn = read_wal(build_single(str(tmp_path / "n")))
        cluster, _, cluster_torn = read_wal(build_cluster(str(tmp_path / "c")))
        assert not single_torn and not cluster_torn
        assert all("epoch" not in r for r in single)
        assert all("epoch" in r for r in cluster)
        assert without_epoch(cluster) == single
        kinds = {r["kind"] for r in single}
        assert kinds == {
            "ddl", "row", "grant", "revoke", "vpd", "truman", "index",
            "participation", "rebac_namespace", "rebac_tuple",
        }

    def test_reopened_directories_hold_equal_content(self, tmp_path):
        single_dir, cluster_dir = str(tmp_path / "n"), str(tmp_path / "c")
        build_single(single_dir)
        build_cluster(cluster_dir)
        single = Database.open(single_dir)
        cluster = ClusterCoordinator.open(cluster_dir, shards=1)
        try:
            assert content_digests(single) == content_digests(cluster)
            assert single.rebac.state_dict() == cluster.rebac.state_dict()
        finally:
            single.close()
            cluster.close()

    def test_single_node_segment_is_byte_identical(self, tmp_path):
        path = build_single(str(tmp_path / "n"))
        with open(path, "rb") as handle, open(GOLDEN, "rb") as golden:
            assert handle.read() == golden.read()

    def test_same_wal_keys(self, tmp_path):
        single = Database.open(str(tmp_path / "n"))
        cluster = ClusterCoordinator(
            shards=2, replicas=1, data_dir=str(tmp_path / "c")
        )
        try:
            single_stats = single.durability.wal_stats()
            cluster_stats = cluster.durability.wal_stats()
            assert WAL_KEYS <= single_stats.keys()
            assert WAL_KEYS <= cluster_stats.keys()
            assert {k for k in cluster_stats if k.startswith("wal_")} == {
                k for k in single_stats if k.startswith("wal_")
            }
            assert not any(k.startswith("cluster_") for k in cluster_stats)
        finally:
            single.close()
            cluster.close()


def owner_a(session):
    return Parser("owner = 'a'").parse_expr()


class TestCallableVpdRefused:
    """A logged database cannot serialise a callable policy, so it
    refuses one before attaching anything."""

    def populated(self, db):
        db.execute("create table T (id int primary key, owner varchar(10))")
        db.execute("insert into T values (1, 'a')")
        db.execute("insert into T values (2, 'b')")
        return db

    def assert_refused(self, db):
        version = db.vpd_policies.version
        with pytest.raises(DurabilityError):
            db.vpd_policies.add_policy("T", owner_a)
        assert db.vpd_policies.tables() == []
        assert db.vpd_policies.version == version

    def test_durable_single_node(self, tmp_path):
        db = self.populated(Database.open(str(tmp_path)))
        self.assert_refused(db)
        db.close(checkpoint=False)
        reopened = Database.open(str(tmp_path))
        assert reopened.vpd_policies.tables() == []
        reopened.close()

    def test_cluster(self):
        self.assert_refused(self.populated(ClusterCoordinator(shards=2)))

    def test_in_memory_single_node_keeps_callables(self):
        db = self.populated(Database())
        db.vpd_policies.add_policy("T", owner_a)
        rows = db.connect("a", mode="truman").execute("select id from T").rows
        assert rows == [(1,)]


def record_golden() -> None:
    """Write ``tests/data/one_log_segment.wal`` from the current code."""
    import tempfile

    with tempfile.TemporaryDirectory() as data_dir:
        with open(build_single(data_dir), "rb") as handle:
            data = handle.read()
    with open(GOLDEN, "wb") as out:
        out.write(data)
    print(f"wrote {len(data)} bytes to {os.path.normpath(GOLDEN)}",
          file=sys.stderr)


if __name__ == "__main__":
    record_golden()
