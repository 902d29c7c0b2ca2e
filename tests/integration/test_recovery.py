"""Crash-point fault-injection matrix for the durability layer.

A randomized single-row bank-style workload runs against a durable
database with a :class:`FaultInjector` armed at one crash point; the
simulated crash (:class:`InjectedCrash`) abandons the process state,
the directory is re-opened, and the recovered database is compared —
rows with ids, index definitions, grant registry, policy epoch, views,
Truman mappings — against a never-crashed in-memory oracle that applied
exactly the operations whose WAL records survived the crash.

Every op in the trace touches exactly one row, so one op is one WAL
record and the oracle prefix for each crash point is well-defined:

==========================  =============================================
``wal.before_append``       crashed op excluded (nothing reached the log)
``wal.torn_append``         crashed op excluded; CRC detects + truncates
``wal.after_append``        crashed op included (framed record flushed)
``wal.before_fsync``        included (append completed; fsync pending)
``wal.after_fsync``         included (fully durable)
``checkpoint.*``            all ops included (checkpoint loses nothing)
==========================  =============================================
"""

import random

import pytest

from repro.db import Database
from repro.durability import FaultInjector, InjectedCrash
from repro.durability.faults import CRASH_POINTS

SETUP_SQL = """
create table Accounts(
    acct_id int primary key,
    owner varchar(10) not null,
    balance float not null
);
create authorization view MyAccounts as
    select * from Accounts where owner = $user_id;
create authorization view AllAccounts as select * from Accounts;
"""

#: ops per generated trace; every op emits exactly one WAL record
TRACE_LEN = 20

#: 1-based op indices at which the matrix injects the crash
CRASH_POSITIONS = (1, 7, TRACE_LEN)

WAL_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("wal."))
CHECKPOINT_POINTS = tuple(
    p for p in CRASH_POINTS if p.startswith("checkpoint.")
)

#: ops excluded from the oracle when the crash hits before the record
#: is fully framed in the log
EXCLUDES_CRASHED_OP = {"wal.before_append", "wal.torn_append"}


def generate_trace(seed: int, length: int = TRACE_LEN) -> list[tuple]:
    """Deterministic single-row op list: DML plus grant/revoke."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    live: list[int] = []
    granted: list[str] = []
    next_id = 0
    next_user = 0
    while len(ops) < length:
        choice = rng.random()
        if choice < 0.40 or not live:
            ops.append(("insert", next_id, f"u{rng.randrange(5)}",
                        round(rng.uniform(1.0, 999.0), 2)))
            live.append(next_id)
            next_id += 1
        elif choice < 0.60:
            ops.append(("update", rng.choice(live),
                        round(rng.uniform(1.0, 999.0), 2)))
        elif choice < 0.75:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim))
        elif choice < 0.90 or not granted:
            user = f"user{next_user}"
            next_user += 1
            ops.append(("grant", "AllAccounts", user))
            granted.append(user)
        else:
            user = granted.pop(rng.randrange(len(granted)))
            ops.append(("revoke", "AllAccounts", user))
    return ops


def apply_op(db: Database, op: tuple) -> None:
    kind = op[0]
    if kind == "insert":
        _, acct, owner, balance = op
        db.execute(
            f"insert into Accounts values ({acct}, '{owner}', {balance})"
        )
    elif kind == "update":
        _, acct, balance = op
        db.execute(
            f"update Accounts set balance = {balance} where acct_id = {acct}"
        )
    elif kind == "delete":
        db.execute(f"delete from Accounts where acct_id = {op[1]}")
    elif kind == "grant":
        db.grant(op[1], to_user=op[2])
    elif kind == "revoke":
        db.grants.revoke(op[1], op[2])
        db._durable_commit()
    else:  # pragma: no cover
        raise AssertionError(f"unknown trace op {op!r}")


def setup_db(db: Database) -> Database:
    db.execute_script(SETUP_SQL)
    db.grant_public("MyAccounts")
    db.set_truman_view("Accounts", "MyAccounts")
    return db


def build_oracle(ops) -> Database:
    """Never-crashed reference: same setup + ops, purely in memory."""
    db = setup_db(Database())
    for op in ops:
        apply_op(db, op)
    return db


def fingerprint(db: Database) -> dict:
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
        "views": sorted(v.name for v in db.catalog.views()),
        "grants": sorted(
            (r.view, r.grantee, r.grantor, r.grant_option)
            for r in db.grants.grants()
        ),
        "grants_version": db.grants.version,
        "data_version": db.validity_cache.data_version,
        "truman": dict(db.truman_policy),
    }


def run_crash(tmp_path, point: str, position: int, seed: int):
    """Run the trace until the injected crash, then recover.

    Returns ``(recovered_db, oracle_db, crashed_at_op)`` where
    ``crashed_at_op`` is the 0-based index of the op that died (None if
    the whole trace survived).
    """
    data_dir = str(tmp_path / "data")
    injector = FaultInjector()
    db = Database.open(data_dir, injector=injector)
    setup_db(db)
    db.checkpoint()  # fold setup into the snapshot: 1 trace op = 1 record

    ops = generate_trace(seed)
    injector.arm(point, countdown=position)
    crashed_at = None
    for index, op in enumerate(ops):
        try:
            apply_op(db, op)
        except InjectedCrash as crash:
            assert crash.point == point
            crashed_at = index
            break
    assert crashed_at == position - 1, (
        f"crash point {point} expected at op {position - 1}, "
        f"got {crashed_at}"
    )
    # the crashed process is abandoned: no close(), no checkpoint

    included = ops[: crashed_at + (0 if point in EXCLUDES_CRASHED_OP else 1)]
    recovered = Database.open(data_dir)
    return recovered, build_oracle(included), crashed_at


class TestWalCrashMatrix:
    @pytest.mark.parametrize("position", CRASH_POSITIONS)
    @pytest.mark.parametrize("point", WAL_POINTS)
    def test_recovered_state_matches_oracle(self, tmp_path, point, position):
        recovered, oracle, _ = run_crash(
            tmp_path, point, position, seed=position * 101 + 7
        )
        assert fingerprint(recovered) == fingerprint(oracle)
        if point == "wal.torn_append":
            assert recovered.durability.recovery_info["torn_truncated"]
        else:
            assert not recovered.durability.recovery_info["torn_truncated"]
        # the recovered database accepts and logs new work
        recovered.execute(
            "insert into Accounts values (9999, 'u0', 1.0)"
        )
        recovered.close()
        oracle.close()

    def test_double_crash_same_point(self, tmp_path):
        """Crash, recover, crash again at the same point, recover again."""
        recovered, oracle, _ = run_crash(
            tmp_path, "wal.torn_append", 5, seed=42
        )
        assert fingerprint(recovered) == fingerprint(oracle)
        # second incarnation: more ops, another torn crash
        injector = FaultInjector()
        recovered.durability.injector = injector
        recovered.durability.writer.injector = injector
        extra = [
            ("insert", 500, "u1", 10.0),
            ("insert", 501, "u2", 20.0),
        ]
        apply_op(recovered, extra[0])
        apply_op(oracle, extra[0])
        injector.arm("wal.torn_append")
        with pytest.raises(InjectedCrash):
            apply_op(recovered, extra[1])
        twice = Database.open(str(tmp_path / "data"))
        assert twice.durability.recovery_info["torn_truncated"]
        assert fingerprint(twice) == fingerprint(oracle)
        twice.close()
        oracle.close()


class TestCheckpointCrashMatrix:
    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    def test_crashed_checkpoint_loses_nothing(self, tmp_path, point):
        data_dir = str(tmp_path / "data")
        injector = FaultInjector()
        db = Database.open(data_dir, injector=injector)
        setup_db(db)
        ops = generate_trace(seed=321)
        for op in ops:
            apply_op(db, op)
        injector.arm(point)
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        assert injector.fired == [point]

        recovered = Database.open(data_dir)
        assert fingerprint(recovered) == fingerprint(build_oracle(ops))
        recovered.close()

    def test_completed_checkpoint_then_crash_recovers(self, tmp_path):
        """Crash after the checkpoint fully finished: replay is empty."""
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        setup_db(db)
        ops = generate_trace(seed=555)
        for op in ops:
            apply_op(db, op)
        db.checkpoint()
        # abandoned without close: simulates dying right after
        recovered = Database.open(data_dir)
        info = recovered.durability.recovery_info
        assert info["wal_records_replayed"] == 0
        assert fingerprint(recovered) == fingerprint(build_oracle(ops))
        recovered.close()


class TestCorruptionHandling:
    def test_corrupt_only_snapshot_fails_loudly(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        setup_db(db)
        ops = generate_trace(seed=99)
        for op in ops[:10]:
            apply_op(db, op)
        db.checkpoint()
        for op in ops[10:]:
            apply_op(db, op)
        lsn = db.checkpoint()
        db.close(checkpoint=False)
        # corrupt the newest snapshot: recovery must fall back to the
        # older one... but truncation already deleted it, so recovery
        # must fail loudly instead of silently losing data
        from repro.durability.layout import snapshot_path

        path = snapshot_path(data_dir, lsn)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))

        from repro.errors import DurabilityError

        with pytest.raises(DurabilityError):
            Database.open(data_dir)

    def test_corrupt_snapshot_with_full_wal_replays_from_scratch(
        self, tmp_path
    ):
        data_dir = str(tmp_path / "data")
        db = Database.open(data_dir)
        setup_db(db)
        ops = generate_trace(seed=77)
        for op in ops:
            apply_op(db, op)
        db.close(checkpoint=False)
        # the only snapshot is the empty LSN-0 one; corrupting it forces
        # recovery to rebuild purely from the full WAL (base segment 0)
        from repro.durability.layout import snapshot_path

        path = snapshot_path(data_dir, 0)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x01
        open(path, "wb").write(bytes(data))

        recovered = Database.open(data_dir)
        assert recovered.durability.recovery_info[
            "corrupt_snapshots_skipped"
        ] == 1
        assert fingerprint(recovered) == fingerprint(build_oracle(ops))
        recovered.close()
