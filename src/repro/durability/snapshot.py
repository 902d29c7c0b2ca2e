"""Snapshot (checkpoint) files: full serialized database state.

A snapshot captures everything a recovered process needs in order to
continue as if it had never stopped: the catalog (tables, constraints,
views — re-rendered to canonical DDL and replayed through the normal
``CREATE`` path on load, which also rebuilds primary-key/unique
indexes), row storage with **stable row ids** (WAL records address rows
by id, so ids must survive), extra hash indexes, the grant registry
with its delegation records, Truman policy mappings, AUTHORIZE update
policies, manually declared participation constraints, and the three
counters that make up the authorization state's version — the validity
cache's data version and the policy epoch (grant-registry version,
catalog views version).  Chirkova & Yu's determinacy observation is the
design rule here: what a view reveals depends on the instance, so the
instance and the policy state are checkpointed *together* under one
LSN, never separately.

File format: a one-line header ``REPRO-SNAPSHOT 1 <crc32> <length>``
followed by a canonical JSON body.  Snapshots are published atomically
(write temp file, fsync, rename), so a crash mid-checkpoint leaves the
previous snapshot in force; a CRC or length mismatch marks the file
invalid and recovery falls back to the next older snapshot.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import TYPE_CHECKING, Optional

from repro.sql import ast, parse_statement, render
from repro.authviews.registry import GrantRecord
from repro.catalog.constraints import TotalParticipation
from repro.durability.faults import FaultInjector, InjectedCrash

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database

MAGIC = "REPRO-SNAPSHOT"
FORMAT = 1


# -- expression round-tripping ----------------------------------------------


def _render_pred(expr: Optional[ast.Expr]) -> Optional[str]:
    return None if expr is None else render(expr)


def _parse_pred(sql: Optional[str]) -> Optional[ast.Expr]:
    if sql is None:
        return None
    statement = parse_statement(f"select * from _snapshot_ where {sql}")
    return statement.where


# -- catalog -> canonical DDL ------------------------------------------------


def _table_ddl(db: "Database", schema) -> str:
    """Reconstruct a CREATE TABLE statement from catalog metadata."""
    catalog = db.catalog
    columns = tuple(
        ast.ColumnDef(
            name=col.name,
            type_name=col.dtype.value,
            not_null=col.not_null,
        )
        for col in schema.columns
    )
    pk = catalog.primary_key(schema.name)
    statement = ast.CreateTable(
        name=schema.name,
        columns=columns,
        primary_key=pk.columns if pk is not None else (),
        foreign_keys=tuple(
            ast.ForeignKeySpec(fk.columns, fk.ref_table, fk.ref_columns)
            for fk in catalog.foreign_keys_for(schema.name)
        ),
        uniques=tuple(u.columns for u in catalog.uniques_for(schema.name)),
        checks=tuple(
            ast.CheckSpec(c.predicate) for c in catalog.checks_for(schema.name)
        ),
    )
    return render(statement)


def _participation_state(constraint: TotalParticipation) -> dict:
    return {
        "core_table": constraint.core_table,
        "remainder_table": constraint.remainder_table,
        "join_pairs": [list(pair) for pair in constraint.join_pairs],
        "core_pred": _render_pred(constraint.core_pred),
        "remainder_pred": _render_pred(constraint.remainder_pred),
        "visible_to": (
            None
            if constraint.visible_to is None
            else sorted(constraint.visible_to)
        ),
        "name": constraint.name,
    }


def load_participation(state: dict) -> TotalParticipation:
    return TotalParticipation(
        core_table=state["core_table"],
        remainder_table=state["remainder_table"],
        join_pairs=tuple(tuple(pair) for pair in state["join_pairs"]),
        core_pred=_parse_pred(state["core_pred"]),
        remainder_pred=_parse_pred(state["remainder_pred"]),
        visible_to=(
            None
            if state["visible_to"] is None
            else frozenset(state["visible_to"])
        ),
        name=state["name"],
    )


# -- capture -----------------------------------------------------------------


def capture_state(db: "Database", last_lsn: int) -> dict:
    """Serialize the full database state as of WAL position ``last_lsn``.

    The caller must have quiesced the database (no concurrent DML).
    """
    tables: dict[str, dict] = {}
    for schema in db.catalog.tables():
        table = db.table(schema.name)
        tables[schema.name.lower()] = {
            "next_id": table.next_row_id,
            "rows": [[rid, list(row)] for rid, row in table.rows_with_ids()],
            "indexes": [
                {"columns": list(names), "unique": unique}
                for names, unique in table.index_defs()
            ],
        }
    views = [
        render(
            ast.CreateView(
                name=view.name,
                query=view.query,
                authorization=view.authorization,
                column_names=view.column_names,
            )
        )
        for view in db.catalog.views()
    ]
    state = {
        "format": FORMAT,
        "last_lsn": last_lsn,
        "ddl": [_table_ddl(db, schema) for schema in db.catalog.tables()],
        "views": views,
        "tables": tables,
        "grants": [
            [r.view, r.grantee, r.grantor, r.grant_option]
            for r in db.grants.grants()
        ],
        "truman": dict(db.truman_policy),
        "authorize": [
            render(policy.to_statement())
            for policy in db.update_authorizer.policies()
        ],
        "participations": [
            _participation_state(c) for c in db.catalog.manual_participations()
        ],
        "vpd": [[table, text] for table, text in db.vpd_policies.policy_texts()],
        "rebac": (
            None
            if getattr(db, "rebac", None) is None
            else db.rebac.state_dict()
        ),
        "counters": {
            "data_version": db.validity_cache.data_version,
            "grants_version": db.grants.version,
        },
    }
    epoch = getattr(db, "policy_epoch", None)
    if epoch is not None:
        # a cluster coordinator's replica-routing epoch; recovery
        # resumes it from here (a single node has none)
        state["cluster"] = {"policy_epoch": epoch}
    return state


def restore_state(db: "Database", state: dict) -> None:
    """Load a captured state into an empty, not-yet-durable Database."""
    for sql in state["ddl"]:
        db.execute(sql)
    for sql in state["views"]:
        db.execute(sql)
    for name, table_state in state["tables"].items():
        table = db.table(name)
        for rid, row in table_state["rows"]:
            table.insert(tuple(row), row_id=rid)
        table.set_next_row_id(table_state["next_id"])
        for index_def in table_state["indexes"]:
            columns = tuple(index_def["columns"])
            unique = index_def["unique"]
            if not table.has_index(columns, unique):
                table.create_index(columns, unique=unique)
    db.grants.restore(
        [
            GrantRecord(view, grantee, grantor, bool(option))
            for view, grantee, grantor, option in state["grants"]
        ],
        version=state["counters"]["grants_version"],
    )
    for table_name, view_name in state["truman"].items():
        db.set_truman_view(table_name, view_name)
    for sql in state["authorize"]:
        db.execute(sql)
    for participation in state["participations"]:
        db.add_participation_constraint(load_participation(participation))
    for table, text in state.get("vpd", ()):
        db.vpd_policies.add_policy(table, text)
    rebac_state = state.get("rebac")
    if rebac_state is not None:
        from repro.rebac import NamespaceConfig, attach_rebac

        # tables/views/grants above already restored the compiled
        # schema; re-attach the manager and its tuples without DML —
        # the materialized RebacGrants rows are part of table state
        manager = attach_rebac(
            db,
            NamespaceConfig.from_state(rebac_state["namespace"]),
            create_schema=False,
        )
        manager.restore_tuples(rebac_state["tuples"])
    db.validity_cache.restore_data_version(state["counters"]["data_version"])


# -- file I/O ----------------------------------------------------------------


def write_snapshot(
    path: str, state: dict, injector: Optional[FaultInjector] = None
) -> None:
    """Atomically publish ``state`` at ``path`` (temp + fsync + rename)."""
    body = json.dumps(state, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    header = f"{MAGIC} {FORMAT} {zlib.crc32(body) & 0xFFFFFFFF} {len(body)}\n"
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(header.encode("ascii"))
        if injector is not None and injector.consume("checkpoint.mid_snapshot"):
            # half the body reaches disk; the file is never renamed into
            # place, so recovery must ignore it
            handle.write(body[: len(body) // 2])
            handle.flush()
            raise InjectedCrash("checkpoint.mid_snapshot")
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(os.path.dirname(path) or ".")


def load_snapshot(path: str) -> Optional[dict]:
    """Parse and validate a snapshot file; None when invalid/corrupt."""
    try:
        with open(path, "rb") as handle:
            header = handle.readline()
            body = handle.read()
    except OSError:
        return None
    try:
        parts = header.decode("ascii").split()
        if len(parts) != 4 or parts[0] != MAGIC or int(parts[1]) != FORMAT:
            return None
        crc, length = int(parts[2]), int(parts[3])
    except (UnicodeDecodeError, ValueError):
        return None
    if len(body) != length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        return None
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
