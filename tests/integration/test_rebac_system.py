"""System tests for relationship-tuple policies (repro.rebac).

The differential gate: the collab workload served under *compiled*
ReBAC authorization views must be byte-identical — rows, rejection
messages, audit tuples — to the same workload under *hand-authored*
views (the DDL a DBA following the paper's idiom would write), across
both execution engines, on a sharded coordinator, and on its replicas.

Plus: the epoch-consistency guarantee under a revoke-tuple storm
(0 stale answers), bounded replica lag via auto-ship, durability
round-trips (WAL replay and snapshot restore), and the ``\\explain``
decision tracer naming tuple chains for accepted and denied queries.
"""

import io
import threading
import time

import pytest

from repro.authviews.session import SessionContext
from repro.cli import Shell, build_database
from repro.cluster import ClusterCoordinator
from repro.db import Database
from repro.errors import QueryRejectedError, ReproError
from repro.rebac import attach_rebac
from repro.rebac.trace import explain_query, render_report
from repro.service import EnforcementGateway, QueryRequest
from repro.service.clock import ManualClock
from repro.workloads.collab import (
    CollabConfig,
    build_collab,
    collab_namespace,
    user_name,
)

CONFIG = CollabConfig()
TIME = CONFIG.base_time

#: the DDL a DBA would write by hand for the collab policy — the
#: compiler must behave exactly like this (the differential gate)
HAND_SCHEMA = """
create table RebacGrants(
    object_type varchar(20),
    object_id varchar(40),
    relation varchar(20),
    user_id varchar(40),
    expires_at float,
    primary key (object_type, object_id, relation, user_id)
);
"""

HAND_VIEWS = [
    """create authorization view RebacDocumentViewer as
    select Documents.doc_id, Documents.folder_id, Documents.title, Documents.content
    from Documents, RebacGrants
    where RebacGrants.object_type = 'document'
      and RebacGrants.object_id = Documents.doc_id
      and RebacGrants.relation = 'viewer'
      and RebacGrants.user_id = $user_id
      and RebacGrants.expires_at > $time""",
    """create authorization view RebacDocumentEditor as
    select Documents.doc_id, Documents.folder_id, Documents.title, Documents.content
    from Documents, RebacGrants
    where RebacGrants.object_type = 'document'
      and RebacGrants.object_id = Documents.doc_id
      and RebacGrants.relation = 'editor'
      and RebacGrants.user_id = $user_id
      and RebacGrants.expires_at > $time""",
    """create authorization view RebacFolderViewer as
    select Folders.folder_id, Folders.name
    from Folders, RebacGrants
    where RebacGrants.object_type = 'folder'
      and RebacGrants.object_id = Folders.folder_id
      and RebacGrants.relation = 'viewer'
      and RebacGrants.user_id = $user_id
      and RebacGrants.expires_at > $time""",
    """create authorization view RebacFolderEditor as
    select Folders.folder_id, Folders.name
    from Folders, RebacGrants
    where RebacGrants.object_type = 'folder'
      and RebacGrants.object_id = Folders.folder_id
      and RebacGrants.relation = 'editor'
      and RebacGrants.user_id = $user_id
      and RebacGrants.expires_at > $time""",
    """create authorization view RebacMyGrants as
    select RebacGrants.object_type, RebacGrants.object_id,
           RebacGrants.relation, RebacGrants.expires_at
    from RebacGrants
    where RebacGrants.user_id = $user_id
      and RebacGrants.expires_at > $time""",
]


MINI_SCHEMA = """
create table Folders(
    folder_id varchar(20) primary key,
    name varchar(40) not null
);
create table Documents(
    doc_id varchar(20) primary key,
    folder_id varchar(20) not null,
    title varchar(40) not null,
    content varchar(120) not null,
    foreign key (folder_id) references Folders
);
"""


def mini_db(clock=None):
    """A tiny collab-shaped database with the compiled policy attached."""
    db = Database()
    db.execute_script(MINI_SCHEMA)
    attach_rebac(db, collab_namespace(), clock=clock)
    db.execute("insert into Folders values ('f', 'shared')")
    db.execute("insert into Documents values ('d', 'f', 'doc', 'body')")
    return db


def build_compiled(db=None):
    db = build_collab(CONFIG, db=db)
    if isinstance(db, ClusterCoordinator):
        db.sync_replicas()
    return db


def build_hand_authored(reference):
    """The same instance under hand-written policy DDL.

    Base tables from the workload generator (no compiled policy); the
    RebacGrants relation and the authorization views typed in by hand,
    with the grant rows inserted in the reference database's row order
    so scans are comparable row for row.
    """
    db = build_collab(CONFIG, deploy_policy=False)
    db.execute_script(HAND_SCHEMA)
    for _, row in reference.table("RebacGrants").rows_with_ids():
        object_type, object_id, relation, user_id, expires_at = row
        db.execute(
            f"insert into RebacGrants values ('{object_type}', "
            f"'{object_id}', '{relation}', '{user_id}', {expires_at!r})",
            sync=False,
        )
    for ddl in HAND_VIEWS:
        db.execute(ddl, sync=False)
        name = ddl.split()[3]
        db.grant_public(name)
    db._durable_commit()
    return db


def corpus():
    """Accepted and rejected queries across users, objects, and modes."""
    insiders = [user_name(0, 0), user_name(1, 0)]
    outsider = "nobody"
    queries = [
        ("select * from Documents", None, "open"),
        ("select * from Folders", None, "open"),
        ("select count(*) from RebacGrants", None, "open"),
        (
            "select d.title, f.name from Documents d, Folders f "
            "where d.folder_id = f.folder_id",
            None,
            "open",
        ),
    ]
    for user in insiders:
        queries.extend(
            [
                (
                    "select title from Documents where doc_id = 'd0'",
                    user,
                    "non-truman",
                ),
                (
                    "select doc_id, content from Documents "
                    "where doc_id = 'd1'",
                    user,
                    "non-truman",
                ),
                (
                    "select name from Folders where folder_id = 'f0_7'",
                    user,
                    "non-truman",
                ),
                ("select * from Documents", user, "non-truman"),
                (
                    "select object_id, relation from RebacMyGrants",
                    user,
                    "non-truman",
                ),
            ]
        )
    queries.extend(
        [
            (
                "select title from Documents where doc_id = 'd0'",
                outsider,
                "non-truman",
            ),
            ("select * from Folders", outsider, "non-truman"),
        ]
    )
    return queries


def run_one(db, sql, user, mode, engine):
    try:
        result = db.execute_query(
            sql,
            session=SessionContext(user_id=user, time=TIME),
            mode=mode,
            engine=engine,
        )
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))
    return ("ok", tuple(result.columns), tuple(result.rows))


@pytest.fixture(scope="module")
def compiled_db():
    return build_compiled()


@pytest.fixture(scope="module")
def hand_db(compiled_db):
    return build_hand_authored(compiled_db)


@pytest.fixture(scope="module")
def cluster_db():
    return build_compiled(db=ClusterCoordinator(shards=2, replicas=1))


class TestDifferentialGate:
    """Compiled ReBAC views ≡ hand-authored views, byte for byte."""

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_compiled_matches_hand_authored(
        self, compiled_db, hand_db, engine
    ):
        mismatches = []
        for sql, user, mode in corpus():
            expected = run_one(hand_db, sql, user, mode, engine)
            actual = run_one(compiled_db, sql, user, mode, engine)
            if expected != actual:
                mismatches.append((engine, sql, user, expected, actual))
        assert mismatches == []

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_cluster_matches_hand_authored(self, hand_db, cluster_db, engine):
        mismatches = []
        for sql, user, mode in corpus():
            expected = run_one(hand_db, sql, user, mode, engine)
            actual = run_one(cluster_db, sql, user, mode, engine)
            if expected != actual:
                mismatches.append((engine, sql, user, expected, actual))
        assert mismatches == []

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_replica_matches_hand_authored(self, hand_db, cluster_db, engine):
        replica = cluster_db.replicas[0]
        mismatches = []
        for sql, user, mode in corpus():
            expected = run_one(hand_db, sql, user, mode, engine)
            actual = run_one(replica.database, sql, user, mode, engine)
            if expected != actual:
                mismatches.append((engine, sql, user, expected, actual))
        assert mismatches == []

    def test_audit_tuples_identical(self, compiled_db, hand_db):
        """The gateway's audit trail — user, mode, status, decision,
        rules, signature — must not reveal which policy authored the
        views."""

        def audit_run(db):
            gateway = EnforcementGateway(db, workers=1, name="audit")
            try:
                for sql, user, mode in corpus():
                    gateway.execute(
                        QueryRequest(
                            user=user,
                            sql=sql,
                            mode=mode,
                            params={"time": TIME},
                        )
                    )
                return [
                    (
                        record.user,
                        record.mode,
                        record.status,
                        record.decision,
                        tuple(record.rules),
                        record.signature,
                    )
                    for record in gateway.audit.tail(len(corpus()))
                ]
            finally:
                gateway.shutdown(drain=True)

        assert audit_run(compiled_db) == audit_run(hand_db)

    def test_rejection_message_byte_identical(self, compiled_db, hand_db):
        sql = "select title from Documents where doc_id = 'd0'"
        session = SessionContext(user_id="nobody", time=TIME)
        messages = []
        for db in (hand_db, compiled_db):
            with pytest.raises(QueryRejectedError) as exc:
                db.execute_query(sql, session=session, mode="non-truman")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("query rejected by Non-Truman model:")


class TestExplainTracing:
    def test_accepted_query_names_the_tuple_chain(self, compiled_db):
        user = user_name(0, 0)
        report = explain_query(
            compiled_db,
            "select title from Documents where doc_id = 'd0'",
            SessionContext(user_id=user, time=TIME),
        )
        assert report.valid
        assert "RebacDocumentViewer" in report.views_used
        assert len(report.chains) == 1
        chain = report.chains[0]
        assert chain.object == "document:d0"
        assert chain.relation == "viewer"
        # the ~10-link chain: doc -> folders -> team userset -> user
        assert len(chain.chain) == 10
        assert chain.chain[0] == "(document:d0, parent, folder:f0_7)"
        assert chain.chain[-1] == "(team:eng, member, user:u0_0)"

    def test_rejected_query_names_the_missing_chain(self, compiled_db):
        report = explain_query(
            compiled_db,
            "select title from Documents where doc_id = 'd0'",
            SessionContext(user_id="nobody", time=TIME),
        )
        assert not report.valid
        assert (
            "no relationship-tuple chain grants 'viewer' on document:d0 "
            "to user 'nobody'" in report.denials
        )

    def test_render_report_round_trips_the_wire_shape(self, compiled_db):
        user = user_name(0, 0)
        report = explain_query(
            compiled_db,
            "select title from Documents where doc_id = 'd0'",
            SessionContext(user_id=user, time=TIME),
        )
        lines = render_report(report)
        assert any(line.startswith("tuple chain: document:d0") for line in lines)
        as_dict = report.as_dict()
        assert as_dict["validity"] == "conditional"
        assert as_dict["chains"][0]["chain"] == list(report.chains[0].chain)

    def test_cli_explain_transcript(self, compiled_db):
        out = io.StringIO()
        shell = Shell(compiled_db, out=out, query_timeout=None)
        script = (
            "\\user u0_0\n"
            "\\time 1000000\n"
            "\\explain select title from Documents where doc_id = 'd0'\n"
            "\\user nobody\n"
            "\\explain select title from Documents where doc_id = 'd0'\n"
            "\\quit\n"
        )
        shell.run(io.StringIO(script))
        text = out.getvalue()
        # the plan still prints (as before the tracer existed) ...
        assert "Project" in text and "Rel(Documents" in text
        # ... followed by the accepted decision with its chain ...
        assert "views used: RebacDocumentViewer" in text
        assert "tuple chain: document:d0 viewer for user 'u0_0'" in text
        assert "(team:eng, member, user:u0_0)" in text
        # ... and the denial for the outsider
        assert (
            "denied: no relationship-tuple chain grants 'viewer' on "
            "document:d0 to user 'nobody'" in text
        )

    def test_expired_chain_is_named(self):
        db = mini_db()
        db.rebac.write_tuple(
            "document:d", "viewer", "user:alice", expires_at=500.0
        )
        report = explain_query(
            db,
            "select title from Documents where doc_id = 'd'",
            SessionContext(user_id="alice", time=600.0),
        )
        assert not report.valid
        assert (
            "the tuple chain granting 'viewer' on document:d to user "
            "'alice' expired at 500.0" in report.denials
        )


class TestTupleWritePropagation:
    """Tuple writes are policy writes: epochs, replicas, invalidation."""

    def test_write_and_revoke_visible_on_replica(self):
        db = build_compiled(db=ClusterCoordinator(shards=2, replicas=1))
        user = "newcomer"
        sql = "select title from Documents where doc_id = 'd0'"
        session = SessionContext(user_id=user, time=TIME)
        replica = db.replicas[0].database
        with pytest.raises(QueryRejectedError):
            replica.execute_query(sql, session=session, mode="non-truman")
        db.rebac.write_tuple("document:d0", "viewer", f"user:{user}")
        db.sync_replicas()
        assert replica.execute_query(
            sql, session=session, mode="non-truman"
        ).rows == [("plan 0",)]
        db.rebac.delete_tuple("document:d0", "viewer", f"user:{user}")
        db.sync_replicas()
        with pytest.raises(QueryRejectedError):
            replica.execute_query(sql, session=session, mode="non-truman")

    def test_unshipped_revoke_disqualifies_replicas(self):
        """The epoch gate: a revoked tuple not yet shipped must pull
        every replica out of read routing immediately."""
        db = build_compiled(db=ClusterCoordinator(shards=2, replicas=1))
        user = "gated"
        db.rebac.write_tuple("document:d0", "viewer", f"user:{user}")
        db.sync_replicas()
        assert db.route_read() is not None
        for shipper in db.shippers:
            shipper.paused = True
        db.rebac.delete_tuple("document:d0", "viewer", f"user:{user}")
        # policy epoch bumped at append: no replica is fit to serve
        assert db.route_read() is None
        for shipper in db.shippers:
            shipper.paused = False
        db.sync_replicas()
        assert db.route_read() is not None

    def test_revoke_tuple_storm_zero_stale(self):
        """Tuple churn racing routed reads: an OK answer for the
        churned user is only legal if a granting state overlapped the
        request — the flip-counter witness from the grant/revoke storm,
        applied to relationship tuples."""
        db = build_compiled(db=ClusterCoordinator(shards=2, replicas=2))
        user = "stormy"
        subject = f"user:{user}"
        gateway = EnforcementGateway(db, workers=4)
        state_lock = threading.Lock()
        state = [0, False]  # (flip counter, currently granted)
        stale = []
        stop = threading.Event()

        def snapshot():
            with state_lock:
                return state[0], state[1]

        def churn():
            while not stop.is_set():
                with state_lock:
                    db.rebac.write_tuple("document:d0", "viewer", subject)
                    state[0] += 1
                    state[1] = True
                time.sleep(0.0005)
                with state_lock:
                    db.rebac.delete_tuple("document:d0", "viewer", subject)
                    state[0] += 1
                    state[1] = False
                time.sleep(0.0005)

        def pause_wiggle():
            while not stop.is_set():
                for shipper in db.shippers:
                    shipper.paused = not shipper.paused
                time.sleep(0.002)

        churner = threading.Thread(target=churn, daemon=True)
        wiggler = threading.Thread(target=pause_wiggle, daemon=True)
        try:
            churner.start()
            wiggler.start()
            for i in range(150):
                flips_before, granted_before = snapshot()
                response = gateway.execute(
                    QueryRequest(
                        user=user,
                        sql="select title from Documents where doc_id = 'd0'",
                        mode="non-truman",
                        params={"time": TIME},
                        tag=f"tuple-storm-{i}",
                    )
                )
                flips_after, _ = snapshot()
                if (
                    response.ok
                    and not granted_before
                    and flips_after == flips_before
                ):
                    stale.append((i, response.replica))
        finally:
            stop.set()
            churner.join(timeout=10)
            wiggler.join(timeout=10)
            for shipper in db.shippers:
                shipper.paused = False
            gateway.shutdown(drain=False)
        assert stale == []

    def test_tuple_write_invalidates_prepared_templates(self, compiled_db):
        """A tuple revoke must invalidate the affected user's cached
        prepared templates — served plans can never outlive the grant
        chain that justified them."""
        db = build_compiled()
        user = "template_user"
        sql = "select title from Documents where doc_id = 'd0'"
        session = SessionContext(user_id=user, time=TIME)
        db.rebac.write_tuple("document:d0", "viewer", f"user:{user}")
        assert db.execute_query(sql, session=session, mode="non-truman").rows
        db.rebac.delete_tuple("document:d0", "viewer", f"user:{user}")
        with pytest.raises(QueryRejectedError):
            db.execute_query(sql, session=session, mode="non-truman")


class TestAutoShip:
    def test_lag_stays_bounded_without_explicit_syncs(self):
        """Regression: with auto_ship_lag set, commits alone keep every
        replica within the bound — no sync_replicas() calls anywhere."""
        bound = 4
        db = ClusterCoordinator(
            shards=2, replicas=1, ship_batch=1000, auto_ship_lag=bound
        )
        db.execute(
            "create table Events(event_id varchar(10) primary key, "
            "payload varchar(40) not null)"
        )
        max_lag = 0
        for i in range(60):
            db.execute(f"insert into Events values ('e{i}', 'payload {i}')")
            max_lag = max(max_lag, db.replica_lag())
        shipper = db.shippers[0]
        assert max_lag <= bound
        assert shipper.auto_ships > 0
        # the replica trails by at most the bound (never full batches)
        replica = db.replicas[0].database
        (replica_count,) = replica.execute("select count(*) from Events").rows[0]
        assert replica_count >= 60 - bound

    def test_without_auto_ship_lag_grows_past_bound(self):
        """Control: the same write pattern with batch-only shipping
        exceeds the bound — proving the auto-ship path is load-bearing."""
        db = ClusterCoordinator(shards=2, replicas=1, ship_batch=1000)
        db.execute(
            "create table Events(event_id varchar(10) primary key, "
            "payload varchar(40) not null)"
        )
        for i in range(60):
            db.execute(f"insert into Events values ('e{i}', 'payload {i}')")
        assert db.replica_lag() > 4
        assert db.shippers[0].auto_ships == 0


class TestDurability:
    def test_wal_replay_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "collab")
        db = Database()
        db.save(data_dir)
        build_collab(CONFIG, db=db)
        db.rebac.write_tuple("document:d0", "viewer", "user:late_joiner")
        db.rebac.delete_tuple("document:d0", "viewer", "user:late_joiner")
        expected = run_one(
            db,
            "select title from Documents where doc_id = 'd0'",
            user_name(0, 0),
            "non-truman",
            "row",
        )
        tuples_before = db.rebac.state_dict()
        rows_before = db.execute(
            "select * from RebacGrants", sync=False
        ).rows
        db.close()

        recovered = Database.open(data_dir)
        assert recovered.rebac is not None
        assert recovered.rebac.state_dict() == tuples_before
        assert (
            recovered.execute("select * from RebacGrants", sync=False).rows
            == rows_before
        )
        assert (
            run_one(
                recovered,
                "select title from Documents where doc_id = 'd0'",
                user_name(0, 0),
                "non-truman",
                "row",
            )
            == expected
        )
        # the revoked late_joiner stays revoked after recovery
        with pytest.raises(QueryRejectedError):
            recovered.execute_query(
                "select title from Documents where doc_id = 'd0'",
                session=SessionContext(user_id="late_joiner", time=TIME),
                mode="non-truman",
            )
        recovered.close()

    def test_snapshot_restore_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "collab-snap")
        db = Database()
        db.save(data_dir)
        build_collab(CONFIG, db=db)
        db.checkpoint()  # snapshot carries namespace + tuples + rows
        db.rebac.write_tuple("document:d1", "editor", "user:post_snap")
        state_before = db.rebac.state_dict()
        db.close()

        recovered = Database.open(data_dir)
        assert recovered.rebac.state_dict() == state_before
        # post-snapshot WAL tail replayed: the editor grant exists and
        # implies viewer through the Computed rule
        assert recovered.execute_query(
            "select title from Documents where doc_id = 'd1'",
            session=SessionContext(user_id="post_snap", time=TIME),
            mode="non-truman",
        ).rows
        recovered.close()


class TestExpiryWithClock:
    def test_expiry_sweep_is_deterministic_and_durable(self, tmp_path):
        clock = ManualClock(now=CONFIG.base_time)
        data_dir = str(tmp_path / "collab-exp")
        db = Database()
        db.save(data_dir)
        db.execute_script(MINI_SCHEMA)
        manager = attach_rebac(db, collab_namespace(), clock=clock)
        db.execute("insert into Folders values ('f', 'shared')")
        db.execute("insert into Documents values ('d', 'f', 'doc', 'body')")
        manager.write_tuple(
            "document:d", "viewer", "user:temp",
            expires_at=CONFIG.base_time + 10.0,
        )
        manager.write_tuple("document:d", "viewer", "user:perm")
        assert manager.expire_tuples() == []
        clock.advance(11.0)
        expired = manager.expire_tuples()
        assert [t.subject for t in expired] == ["user:temp"]
        db.close()
        # the sweep's deletes were WAL-logged like any tuple delete
        recovered = Database.open(data_dir)
        assert [
            t["subject"] for t in recovered.rebac.state_dict()["tuples"]
        ] == ["user:perm"]
        recovered.close()

    def test_view_excludes_expired_rows_before_sweep(self):
        """Expiry is enforced by the compiled ``expires_at > $time``
        conjunct immediately — the sweep is only garbage collection."""
        db = mini_db()
        db.rebac.write_tuple(
            "document:d", "viewer", "user:alice", expires_at=500.0
        )
        sql = "select title from Documents where doc_id = 'd'"
        assert db.execute_query(
            sql,
            session=SessionContext(user_id="alice", time=499.0),
            mode="non-truman",
        ).rows == [("doc",)]
        with pytest.raises(QueryRejectedError):
            db.execute_query(
                sql,
                session=SessionContext(user_id="alice", time=501.0),
                mode="non-truman",
            )


class TestWorkloadCli:
    def test_build_database_collab_single_node(self):
        db = build_database("collab", None)
        assert db.rebac is not None
        assert len(db.rebac.store.snapshot()) > 0

    def test_build_database_collab_sharded(self):
        db = build_database("collab", None, shards=2, replicas=1)
        assert db.rebac is not None
        assert db.replicas[0].database.rebac is not None
        db.close()
