"""Tests for the interactive shell (repro.cli)."""

import io

import pytest

from repro.cli import Shell, build_database
from repro.db import Database

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA


def run_shell(db, script: str) -> str:
    out = io.StringIO()
    shell = Shell(db, out=out)
    shell.run(io.StringIO(script))
    return out.getvalue()


@pytest.fixture
def db():
    database = Database()
    database.execute_script(UNIVERSITY_SCHEMA)
    database.execute_script(UNIVERSITY_DATA)
    database.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    database.grant_public("MyGrades")
    return database


class TestMetaCommands:
    def test_user_switch_and_query(self, db):
        output = run_shell(db, "\\user 11\nselect grade from Grades where student_id = '11';\n")
        assert "connected as '11'" in output
        assert "2 row(s)" in output

    def test_mode_switch(self, db):
        output = run_shell(db, "\\mode open\nselect count(*) from Grades;\n")
        assert "access-control mode: open" in output
        assert "4" in output

    def test_invalid_mode(self, db):
        output = run_shell(db, "\\mode bogus\n")
        assert "modes:" in output

    def test_invalid_mode_keeps_session_consistent(self, db):
        """\\mode with an unknown mode errors cleanly and the session
        stays in the previous, working mode."""
        output = run_shell(
            db,
            "\\user 11\n\\mode bogus\n"
            "select grade from Grades where student_id = '11';\n",
        )
        assert "error: unknown mode 'bogus'" in output
        assert "staying in 'non-truman'" in output
        # the shell still enforces non-truman (query is valid → rows)
        assert "2 row(s)" in output
        # prompt still shows the old mode, not a broken one
        assert "11@non-truman>" in output

    def test_meta_command_mid_buffer_is_rejected_cleanly(self, db):
        """\\user typed mid-statement must not be swallowed into the SQL
        buffer (which silently corrupted both the statement and the
        session) — it errors and leaves the buffer intact."""
        output = run_shell(
            db,
            "\\mode open\nselect count(*)\n\\user 12\nfrom Grades;\n",
        )
        assert "error: cannot run meta-command \\user" in output
        assert "1 buffered line(s)" in output
        # the statement completes afterwards with the original session
        assert "4" in output
        assert "connected as" not in output

    def test_reset_discards_buffer(self, db):
        output = run_shell(
            db,
            "\\mode open\nselect count(*)\n\\reset\n"
            "select count(*) from Courses;\n",
        )
        assert "input buffer cleared (1 line(s) discarded)" in output
        assert "3" in output

    def test_stats_meta_command(self, db):
        output = run_shell(
            db,
            "\\user 11\nselect grade from Grades where student_id = '11';\n"
            "\\stats\n",
        )
        assert "shell-gateway" in output
        assert "requests_ok" in output
        assert "cache_hit_rate" in output

    def test_audit_meta_command(self, db):
        output = run_shell(
            db,
            "\\user 11\nselect grade from Grades where student_id = '11';\n"
            "select * from Grades;\n\\audit 5\n",
        )
        assert "status=ok" in output
        assert "status=rejected" in output
        # audit signatures are literal-stripped
        assert "$_lit" in output.lower() or "student_id =" in output

    def test_views_listing_marks_availability(self, db):
        output = run_shell(db, "\\user 11\n\\views\n")
        assert "* MyGrades" in output

    def test_check_prints_trace_and_witness(self, db):
        output = run_shell(
            db, "\\user 11\n\\check select grade from Grades where student_id = '11'\n"
        )
        assert "unconditional" in output
        assert "witness plan" in output
        assert "ViewRel(MyGrades" in output

    def test_check_invalid_query(self, db):
        output = run_shell(db, "\\user 11\n\\check select * from Grades\n")
        assert "invalid" in output

    def test_explain(self, db):
        output = run_shell(db, "\\mode open\n\\explain select grade from Grades\n")
        assert "Project" in output and "Rel(Grades" in output

    def test_grant(self, db):
        db.execute(
            "create authorization view V2 as select * from Courses"
        )
        output = run_shell(db, "\\grant V2 public\n")
        assert "granted V2 to public" in output
        assert db.grants.is_granted("V2", "anyone")

    def test_tables(self, db):
        output = run_shell(db, "\\tables\n")
        assert "Students" in output and "Grades" in output

    def test_help_and_quit(self, db):
        output = run_shell(db, "\\help\n\\quit\nselect 1;\n")
        assert "meta-commands" in output.lower() or "\\mode" in output
        # nothing executed after \quit
        assert "col1" not in output

    def test_unknown_meta(self, db):
        output = run_shell(db, "\\frobnicate\n")
        assert "unknown meta-command" in output


class TestSqlExecution:
    def test_multiline_statement(self, db):
        output = run_shell(
            db, "\\mode open\nselect count(*)\nfrom Grades\nwhere grade > 3;\n"
        )
        assert "2" in output

    def test_rejection_surfaces_as_error(self, db):
        output = run_shell(db, "\\user 11\nselect * from Grades;\n")
        assert "error:" in output and "rejected" in output

    def test_dml_row_count(self, db):
        output = run_shell(
            db,
            "\\mode open\ninsert into Students values ('99','Zed','PartTime');\n",
        )
        assert "1 row(s) affected" in output

    def test_parse_error_reported(self, db):
        output = run_shell(db, "selekt nonsense;\n")
        assert "error:" in output

    def test_motro_annotations_shown(self, db):
        output = run_shell(
            db, "\\user 11\n\\mode motro\nselect grade from Grades;\n"
        )
        assert "note:" in output and "student_id = '11'" in output


class TestDmlThroughTheGateway:
    """INSERT, UPDATE and DELETE take the gateway's write lock and are
    audited like SELECTs."""

    SCRIPT = (
        "\\user 11\n"
        "select * from Courses;\n"
        "insert into Registered values ('11', 'CS103');\n"
        "insert into Registered values ('12', 'CS103');\n"
        "delete from Registered where student_id = '13';\n"
        "update Registered set course_id = 'CS103' where student_id = '11' "
        "and course_id = 'CS101';\n"
    )

    @pytest.fixture
    def writable(self, db):
        db.execute_script(
            "create authorization view AllCourses as select * from Courses;"
            "authorize insert on Registered "
            "where Registered.student_id = $user_id;"
            "authorize delete on Registered "
            "where Registered.student_id = $user_id;"
        )
        db.grant_public("AllCourses")
        return db

    def test_each_statement_writes_one_audit_record(self, writable):
        output = run_shell(writable, self.SCRIPT + "\\audit 10\n")
        records = [line for line in output.splitlines() if " user='11' " in line]
        statuses = [line.split("status=")[1].split()[0] for line in records]
        assert statuses == ["ok", "ok", "rejected", "rejected", "rejected"]
        assert "insert into Registered values ('11', 'CS103')" in records[1]
        assert "delete from Registered" in records[3]
        assert "1 row(s) affected" in output
        assert output.count("error:") == 3

    def test_counters_reconcile_with_the_audit_after_a_mixed_session(self, writable):
        from tests.integration.test_chaos import assert_reconciled

        out = io.StringIO()
        shell = Shell(writable, out=out)
        for line in (self.SCRIPT + "select * from Grades;\n").splitlines():
            shell._feed(line)
        gateway = shell.gateway()
        try:
            assert gateway.metrics.get("dml_requests") == 4
            assert gateway.audit.total_recorded == 6
            assert_reconciled(gateway)
        finally:
            shell.close()
        assert writable.execute(
            "select count(*) from Registered where course_id = 'CS103'"
        ).rows == [(2,)]


class TestBuildDatabase:
    def test_university_workload(self):
        db = build_database("university", None)
        assert db.catalog.has_table("Students")

    def test_bank_workload(self):
        db = build_database("bank", None)
        assert db.catalog.has_table("Accounts")
        assert db.grants.is_granted("TellerBalances", "teller")

    def test_script_loading(self, tmp_path):
        script = tmp_path / "schema.sql"
        script.write_text("create table T(a int primary key); insert into T values (1);")
        db = build_database(None, str(script))
        assert db.execute("select count(*) from T").scalar() == 1


class TestDurabilityMetaCommands:
    def test_save_checkpoint_walstats_open(self, db, tmp_path):
        data_dir = str(tmp_path / "cli-data")
        output = run_shell(
            db,
            "\\mode open\n"
            f"\\save {data_dir}\n"
            "insert into Students values ('99', 'Zoe', null);\n"
            "\\wal-stats\n"
            "\\checkpoint\n",
        )
        assert f"durable at {data_dir!r}" in output
        assert "1 row(s) affected" in output
        assert "wal_records" in output
        assert "sync_policy" in output
        assert "checkpoint complete at LSN" in output

        # a fresh shell re-opens the directory and sees the insert
        out2 = run_shell(
            Database(),
            f"\\open {data_dir}\n"
            "\\mode open\n"
            "select name from Students where student_id = '99';\n",
        )
        assert f"opened {data_dir!r}" in out2
        assert "Zoe" in out2

    def test_save_requires_argument(self, db):
        output = run_shell(db, "\\save\n")
        assert "usage: \\save <directory>" in output

    def test_open_requires_argument(self, db):
        output = run_shell(db, "\\open\n")
        assert "usage: \\open <directory>" in output

    def test_checkpoint_in_memory_errors(self, db):
        output = run_shell(db, "\\checkpoint\n")
        assert "error:" in output

    def test_wal_stats_in_memory_hint(self, db):
        output = run_shell(db, "\\wal-stats\n")
        assert "in-memory" in output

    def test_save_over_existing_data_reports_error(self, db, tmp_path):
        data_dir = str(tmp_path / "occupied")
        Database.open(data_dir).close()
        output = run_shell(db, f"\\save {data_dir}\n")
        assert "error:" in output
        assert "already holds durable data" in output

    def test_open_replays_wal_tail(self, db, tmp_path):
        data_dir = str(tmp_path / "tail")
        durable = Database.open(data_dir)
        durable.execute("create table T(id int primary key)")
        durable.execute("insert into T values (7)")
        durable.close(checkpoint=False)  # leave records in the WAL
        output = run_shell(Database(), f"\\open {data_dir}\n")
        assert "WAL record(s) replayed" in output


class TestDataDirFlag:
    def test_build_database_initializes_then_reopens(self, tmp_path):
        data_dir = str(tmp_path / "flagged")
        first = build_database("bank", None, data_dir)
        accounts = len(first.table("Accounts"))
        assert first.durability is not None
        first.execute(
            "insert into Customers values ('C999', 'New', '1 Elm St')"
        )
        first.close()
        # second invocation ignores --workload and opens the saved state
        second = build_database(None, None, data_dir)
        assert len(second.table("Accounts")) == accounts
        result = second.execute(
            "select name from Customers where cust_id = 'C999'"
        )
        assert result.rows == [("New",)]
        second.close()

    def test_build_database_without_data_dir_is_in_memory(self):
        db = build_database(None, None)
        assert db.durability is None


class TestRemoteShell:
    """The shell's remote mode: a REPL over a live network service."""

    def run_remote(self, db, script: str) -> str:
        from repro.cli import RemoteShell
        from repro.net import NetworkService, ReproClient
        from repro.service import EnforcementGateway

        gateway = EnforcementGateway(db, workers=2, name="cli-remote")
        out = io.StringIO()
        try:
            with NetworkService(gateway, name="cli-remote") as network:
                host, port = network.address
                client = ReproClient(host, port)
                RemoteShell(client, out=out).run(io.StringIO(script))
        finally:
            gateway.shutdown(drain=False)
        return out.getvalue()

    def test_connect_banner_and_prompt(self, db):
        output = self.run_remote(db, "\\quit\n")
        assert "connected to 'cli-remote'" in output
        assert "remote>" in output
        assert "bye" in output

    def test_user_switch_and_query(self, db):
        output = self.run_remote(
            db,
            "\\user 11\n"
            "select grade from Grades where student_id = '11';\n",
        )
        assert "connected as '11'" in output
        assert "3.5" in output and "4" in output
        assert "2 row(s)" in output

    def test_access_denied_prints_like_in_process(self, db):
        output = self.run_remote(
            db,
            "\\user 11\nselect * from Grades;\n",
        )
        assert "error:" in output
        assert "rejected" in output

    def test_mode_switch(self, db):
        output = self.run_remote(
            db,
            "\\mode open\nselect count(*) from Grades;\n",
        )
        assert "connected as None in mode 'open'" in output
        assert "4" in output

    def test_bad_mode_keeps_session(self, db):
        output = self.run_remote(db, "\\mode sideways\n\\quit\n")
        assert "unknown mode 'sideways'" in output
        assert "bye" in output

    def test_stats_fetches_remote_snapshot(self, db):
        output = self.run_remote(
            db,
            "\\user 11\n"
            "select grade from Grades where student_id = '11';\n"
            "\\stats\n",
        )
        assert "-- remote gateway --" in output
        assert "net_queries" in output
        assert "connections_open" in output
        assert "requests_ok" in output

    def test_dml_rowcount(self, db):
        output = self.run_remote(
            db,
            "\\mode open\n"
            "insert into Students values ('77','Pat','PartTime');\n",
        )
        assert "1 row(s) affected" in output

    def test_local_only_meta_command_rejected(self, db):
        output = self.run_remote(db, "\\views\n\\quit\n")
        assert "not available in remote mode" in output

    def test_reset_discards_buffer(self, db):
        output = self.run_remote(
            db,
            "\\mode open\nselect grade\n\\reset\n"
            "select count(*) from Students;\n",
        )
        assert "input buffer cleared (1 line(s) discarded)" in output
        assert "4" in output
