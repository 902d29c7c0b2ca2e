"""Durable storage round trips: save/open, checkpoint, log truncation.

Crash-point fault injection lives in test_recovery.py; this file covers
the sunny-day lifecycle — every piece of authorization state must
survive a clean close/reopen bit-for-bit.
"""

import os

import pytest

from repro.catalog.constraints import TotalParticipation
from repro.db import Database
from repro.durability import has_durable_data
from repro.durability.layout import list_segments, list_snapshots
from repro.errors import DurabilityError

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA


def build_full_db(db: Database) -> Database:
    """Populate with every kind of state the snapshot must carry."""
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.execute(
        "create authorization view AllStudents as select * from Students"
    )
    db.execute("create view Honors as select * from Grades where grade > 3.5")
    db.grant_public("MyGrades")
    db.grant("AllStudents", "registrar")
    db.execute(
        "authorize update on Students(name) "
        "where old(Students.student_id) = $user_id"
    )
    db.set_truman_view("Grades", "MyGrades")
    db.add_participation_constraint(
        TotalParticipation(
            core_table="Students",
            remainder_table="Registered",
            join_pairs=(("student_id", "student_id"),),
            visible_to=frozenset({"11", "12"}),
            name="every_student_registered",
        )
    )
    return db


def fingerprint(db: Database) -> dict:
    """Everything recovery promises to restore, in comparable form."""
    tables = {}
    for schema in db.catalog.tables():
        table = db.table(schema.name)
        tables[schema.name.lower()] = {
            "rows": dict(table.rows_with_ids()),
            "next_id": table.next_row_id,
            "indexes": sorted(table.index_defs()),
        }
    return {
        "tables": tables,
        "views": sorted(
            (v.name, v.authorization, v.column_names)
            for v in db.catalog.views()
        ),
        "grants": sorted(
            (r.view, r.grantee, r.grantor, r.grant_option)
            for r in db.grants.grants()
        ),
        "grants_version": db.grants.version,
        "truman": dict(db.truman_policy),
        "authorize": [
            (p.action, p.table, p.columns)
            for p in db.update_authorizer.policies()
        ],
        "participations": sorted(
            str(p) for p in db.catalog.participations()
        ),
    }


class TestSaveOpenRoundTrip:
    def test_full_state_survives_reopen(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = build_full_db(Database())
        db.save(data_dir)
        # post-save mutations go through the WAL
        db.execute("insert into Students values ('15', 'Eve', 'PartTime')")
        db.execute("update Students set name = 'Robert' where student_id = '12'")
        db.execute("delete from FeesPaid where student_id = '13'")
        db.grant("AllStudents", "dean")
        expected = fingerprint(db)
        db.close(checkpoint=False)

        recovered = Database.open(data_dir)
        assert fingerprint(recovered) == expected
        assert recovered.durability.recovery_info["wal_records_replayed"] > 0
        # the recovered database keeps working and keeps logging
        recovered.execute("insert into Students values ('16', 'Frank', null)")
        recovered.close()

    def test_query_behavior_survives_reopen(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = build_full_db(Database())
        db.save(data_dir)
        conn = db.connect(user_id="11", mode="non-truman")
        before = conn.query(
            "select grade from Grades where student_id = '11'"
        ).as_multiset()
        db.close()

        recovered = Database.open(data_dir)
        conn = recovered.connect(user_id="11", mode="non-truman")
        after = conn.query(
            "select grade from Grades where student_id = '11'"
        ).as_multiset()
        assert after == before
        # Truman mode sees the policy mapping too
        truman = recovered.connect(user_id="11", mode="truman")
        rows = truman.query("select * from Grades").rows
        assert all(row[0] == "11" for row in rows)
        recovered.close()

    def test_open_on_fresh_directory_is_empty(self, tmp_path):
        data_dir = str(tmp_path / "fresh")
        db = Database.open(data_dir)
        assert db.catalog.tables() == []
        assert has_durable_data(data_dir)
        db.close()

    def test_save_over_existing_data_refused(self, tmp_path):
        data_dir = str(tmp_path / "data")
        Database.open(data_dir).close()
        with pytest.raises(DurabilityError):
            Database().save(data_dir)

    def test_double_attach_refused(self, tmp_path):
        db = Database.open(str(tmp_path / "a"))
        with pytest.raises(DurabilityError):
            db.save(str(tmp_path / "b"))
        db.close()

    def test_data_dir_constructor_matches_open(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(data_dir=data_dir)
        db.execute("create table t (id int primary key)")
        db.execute("insert into t values (1)")
        db.close(checkpoint=False)
        again = Database(data_dir=data_dir)
        assert again.execute("select * from t").rows == [(1,)]
        again.close()


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        db.execute("create table t (id int primary key, v int)")
        for i in range(20):
            db.execute(f"insert into t values ({i}, {i * 10})")
        lsn = db.checkpoint()
        assert lsn == db.durability.writer.last_appended_lsn
        snapshots = list_snapshots(data_dir)
        segments = list_segments(data_dir)
        assert [s[0] for s in snapshots] == [lsn]
        assert [s[0] for s in segments] == [lsn]
        assert os.path.getsize(segments[0][1]) == 0
        # replay after checkpoint starts from the snapshot alone
        db.close(checkpoint=False)
        recovered = Database.open(data_dir)
        assert recovered.durability.recovery_info["wal_records_replayed"] == 0
        assert len(recovered.table("t")) == 20
        recovered.close()

    def test_wal_grows_again_after_checkpoint(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        db.execute("create table t (id int primary key)")
        db.checkpoint()
        db.execute("insert into t values (1)")
        db.close(checkpoint=False)
        recovered = Database.open(data_dir)
        assert recovered.durability.recovery_info["wal_records_replayed"] == 1
        assert len(recovered.table("t")) == 1
        recovered.close()

    def test_checkpoint_requires_durability(self):
        with pytest.raises(DurabilityError):
            Database().checkpoint()

    def test_close_checkpoints_by_default(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        db.execute("create table t (id int primary key)")
        db.execute("insert into t values (1)")
        db.close()
        recovered = Database.open(data_dir)
        assert recovered.durability.recovery_info["wal_records_replayed"] == 0
        assert len(recovered.table("t")) == 1
        recovered.close()

    def test_mutation_after_close_refused(self, tmp_path):
        db = Database.open(str(tmp_path / "data"))
        db.execute("create table t (id int primary key)")
        db.close()
        with pytest.raises(DurabilityError):
            db.execute("insert into t values (1)")


class TestCounters:
    def test_policy_epoch_and_data_version_restored(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = build_full_db(Database())
        db.save(data_dir)
        db.execute("insert into Students values ('15', 'Eve', null)")
        db.grant("AllStudents", "dean")
        dv = db.validity_cache.data_version
        gv = db.grants.version
        db.close(checkpoint=False)

        recovered = Database.open(data_dir)
        assert recovered.validity_cache.data_version >= dv
        assert recovered.grants.version >= gv
        recovered.close()

    def test_wal_stats_shape(self, tmp_path):
        db = Database.open(str(tmp_path / "data"))
        db.execute("create table t (id int primary key)")
        db.execute("insert into t values (1)")
        stats = db.durability.wal_stats()
        assert stats["wal_records"] == 2
        assert stats["wal_last_lsn"] == 2
        assert stats["wal_synced_lsn"] == 2
        assert stats["sync_policy"] == "group"
        assert stats["wal_fsyncs"] >= 1
        db.close()


class TestInMemoryUnchanged:
    def test_no_data_dir_means_no_durability(self):
        db = build_full_db(Database())
        assert db.durability is None
        db.execute("insert into Students values ('15', 'Eve', null)")
        # close is a harmless no-op in memory
        db.close()
        for schema in db.catalog.tables():
            assert db.table(schema.name).on_mutate is None
        assert db.grants.on_change is None
