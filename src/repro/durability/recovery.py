"""Crash recovery: latest valid snapshot + WAL tail replay.

``Database.open(data_dir)`` and ``ClusterCoordinator.open(data_dir)``
funnel here, before the durability manager installs its logging hooks
(so replay never re-logs).  The algorithm:

1. **Choose a snapshot.**  Candidates are tried newest-first; a file
   whose CRC/length check fails is skipped (external corruption) and
   the next older one is used.  A half-written checkpoint can never be
   chosen because snapshots are published by atomic rename.
2. **Restore the snapshot** into a fresh in-memory database — DDL
   replayed through the normal CREATE path (rebuilding PK/unique
   indexes), rows re-inserted under their original ids, extra indexes,
   grants, policies, and the authorization-state counters.
3. **Replay the WAL tail**: every record with ``lsn`` greater than the
   snapshot's is re-applied in LSN order.  A torn/corrupt record is
   legal only at the very end of the newest segment (a crash mid-write)
   — it is truncated, not applied; anywhere else it is unrecoverable
   corruption and recovery raises :class:`DurabilityError` rather than
   silently dropping committed operations.
4. **Restore counters**: the validity-cache data version and the
   grant-registry version are advanced to the maxima recorded in the
   replayed records, so the service layer's shared validity cache is
   correctly cold-or-valid after the restart (a decision stamped before
   the crash can never validate against a recovered-but-different
   state).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import DurabilityError
from repro.durability import layout
from repro.durability.snapshot import (
    load_participation,
    load_snapshot,
    restore_state,
)
from repro.durability.wal import read_wal, truncate_torn

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


def apply_record(db: "Database", record: dict) -> None:
    """Re-apply one WAL record to a recovering database."""
    kind = record["kind"]
    if kind == "ddl":
        db.execute(record["sql"])
    elif kind == "row":
        table = db.table(record["table"])
        op = record["op"]
        if op == "insert":
            table.insert(tuple(record["row"]), row_id=record["rid"])
        elif op == "update":
            table.update_row(record["rid"], tuple(record["row"]))
        elif op == "delete":
            table.delete_row(record["rid"])
        else:
            raise DurabilityError(f"unknown row operation {op!r} in WAL")
    elif kind == "index":
        table = db.table(record["table"])
        columns = tuple(record["columns"])
        if not table.has_index(columns, record["unique"]):
            table.create_index(columns, unique=record["unique"])
    elif kind == "grant":
        grantor = record["grantor"]
        db.grants.grant(
            record["view"],
            record["grantee"],
            grantor=None if grantor == "_dba" else grantor,
            grant_option=record["option"],
        )
    elif kind == "revoke":
        db.grants.revoke(
            record["view"], record["grantee"], grantor=record["grantor"]
        )
    elif kind == "truman":
        db.set_truman_view(record["table"], record["view"])
    elif kind == "vpd":
        db.vpd_policies.add_policy(record["table"], record["predicate"])
    elif kind == "participation":
        db.add_participation_constraint(
            load_participation(record["constraint"])
        )
    elif kind == "rebac_namespace":
        from repro.rebac import NamespaceConfig, attach_rebac

        # the schema DDL precedes this record in the log; only the
        # manager itself needs (re-)attaching here
        attach_rebac(
            db,
            NamespaceConfig.from_state(record["namespace"]),
            create_schema=False,
        )
    elif kind == "rebac_tuple":
        if getattr(db, "rebac", None) is None:
            raise DurabilityError(
                "rebac_tuple WAL record with no preceding rebac_namespace"
            )
        db.rebac.apply_record(record)
    else:
        raise DurabilityError(f"unknown WAL record kind {kind!r}")


def recover(db: "Database", data_dir: str) -> dict:
    """Restore ``db`` (which must be empty) from ``data_dir``.

    Returns the recovery report: chosen snapshot LSN, records replayed,
    whether a torn tail was truncated, the last LSN seen (the writer
    resumes at ``last_lsn + 1``), and wall-clock recovery time.
    """
    started = time.perf_counter()
    snapshots = layout.list_snapshots(data_dir)
    segments = layout.list_segments(data_dir)

    state = None
    skipped_corrupt = 0
    for _, path in reversed(snapshots):
        state = load_snapshot(path)
        if state is not None:
            break
        skipped_corrupt += 1
    if state is None and not any(base == 0 for base, _ in segments):
        raise DurabilityError(
            f"no valid snapshot in {data_dir!r} and the WAL does not reach "
            "back to LSN 0; the data directory is unrecoverable"
        )

    snapshot_lsn = -1
    if state is not None:
        restore_state(db, state)
        snapshot_lsn = state["last_lsn"]

    replayed = 0
    torn_truncated = False
    last_lsn = max(snapshot_lsn, 0)
    max_data_version = None
    max_grants_version = None
    policy_epoch = ((state or {}).get("cluster") or {}).get("policy_epoch", 0)
    for position, (base, path) in enumerate(segments):
        records, valid_bytes, torn = read_wal(path)
        if torn:
            if position != len(segments) - 1:
                raise DurabilityError(
                    f"corrupt WAL record mid-stream in {path!r}; later "
                    "segments hold committed operations that would be lost"
                )
            truncate_torn(path, valid_bytes)
            torn_truncated = True
        for record in records:
            lsn = record["lsn"]
            if lsn <= snapshot_lsn:
                continue
            apply_record(db, record)
            replayed += 1
            last_lsn = max(last_lsn, lsn)
            if "dv" in record:
                dv = record["dv"]
                max_data_version = (
                    dv if max_data_version is None else max(max_data_version, dv)
                )
            if "gv" in record:
                gv = record["gv"]
                max_grants_version = (
                    gv
                    if max_grants_version is None
                    else max(max_grants_version, gv)
                )
            if "epoch" in record:
                policy_epoch = max(policy_epoch, record["epoch"])

    if max_data_version is not None:
        db.validity_cache.restore_data_version(max_data_version)
    if max_grants_version is not None:
        db.grants.restore_version(max_grants_version)

    return {
        "snapshot_lsn": max(snapshot_lsn, 0),
        "wal_records_replayed": replayed,
        "wal_segments": len(segments),
        "torn_truncated": torn_truncated,
        "corrupt_snapshots_skipped": skipped_corrupt,
        "last_lsn": last_lsn,
        "recover_s": time.perf_counter() - started,
        # a coordinator's policy epoch: the snapshot's cluster stamp,
        # advanced by the epoch stamps of the replayed records (always 0
        # on a single node, whose log carries neither)
        "policy_epoch": policy_epoch,
    }
