"""The live ReBAC subsystem attached to a Database.

:func:`attach_rebac` installs a :class:`RebacManager` on a database (or
cluster coordinator): it creates the ``RebacGrants`` relation and the
compiled authorization views through the normal DDL path (so they are
WAL-logged and replicated like any other schema), grants the views
PUBLIC — row-level scoping lives in the ``$user_id`` join, exactly like
the paper's parameterized views — and logs a ``rebac_namespace`` record
so replicas and crash recovery can re-attach the manager.

Tuple writes are incremental recompilation:

1. validate against the namespace, cycle-check the *tentative* tuple
   set (a rejected write mutates nothing);
2. recompute the grant closure and diff it against the materialized
   rows;
3. apply the delta as ordinary DML — sorted deletes, then in-place
   expiry updates, then sorted inserts — through ``db.execute``, so
   the mutations flow through the standard WAL/replication hooks with
   the same row ids everywhere;
4. append the policy-bearing ``rebac_tuple`` record.  Appending it
   *last* is what closes the staleness window: the record bumps the
   cluster policy epoch the moment it is appended (before the write
   returns), and because it sits after every closure-delta row record
   in LSN order, a replica can only reach the new epoch — and become
   eligible for routing again — once it has applied every delta.  A
   revoked tuple is therefore never served stale, by construction
   rather than by shipping speed;
5. group-commit.  Prepared templates need no hook: they hold plans,
   not rows, and the decisions over ``RebacGrants`` are retired by its
   data version.

Replicas and recovery consume the same records in reverse: row records
rebuild ``RebacGrants`` (exact rids), and the ``rebac_tuple`` record
updates the tuple store and recomputes the in-memory closure that backs
``\\explain`` provenance — :meth:`RebacManager.apply_record` never
performs DML and never re-logs.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import RebacError
from repro.rebac.compiler import (
    GRANTS_SCHEMA_SQL,
    GRANTS_TABLE,
    Closure,
    Grant,
    closure_rows,
    compile_views,
    compute_closure,
    view_name,
)
from repro.rebac.namespace import NamespaceConfig
from repro.rebac.tuples import (
    NEVER_EXPIRES,
    RelationTuple,
    TupleStore,
    cycle_error,
    detect_cycle,
)
from repro.service.clock import SYSTEM_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database

#: materialized-row key: (object_type, object_id, relation, user_id)
RowKey = tuple[str, str, str, str]


def _sql_str(value: object) -> str:
    return "'" + str(value).replace("'", "''") + "'"


class RebacManager:
    """Relationship tuples + compiled views, live on one database."""

    def __init__(
        self,
        db: "Database",
        namespace: NamespaceConfig,
        clock: Optional[Clock] = None,
    ):
        self.db = db
        self.namespace = namespace
        self.clock = clock or SYSTEM_CLOCK
        self.store = TupleStore()
        self._closure: Closure = {}
        self._rows: dict[RowKey, float] = {}
        self._lock = threading.RLock()
        self.recompiles = 0
        #: compiled view name (lowered) -> (object_type, permission)
        self._views: dict[str, tuple[str, str]] = {}
        for otype_name in sorted(namespace.object_types):
            otype = namespace.object_types[otype_name]
            if otype.binding is None:
                continue
            for permission in otype.permissions:
                self._views[view_name(otype_name, permission).lower()] = (
                    otype_name,
                    permission,
                )

    # -- the write path ----------------------------------------------------

    def write_tuple(
        self,
        object: str,
        relation: str,
        subject: str,
        expires_at: Optional[float] = None,
    ) -> RelationTuple:
        """Write (or refresh the expiry of) one relation tuple.

        Raises :class:`~repro.errors.RebacCycleError` — with a
        deterministic message — if the write would create a cycle in
        the group graph; nothing is mutated in that case.
        """
        t = RelationTuple(
            object=object,
            relation=relation,
            subject=subject,
            expires_at=(
                NEVER_EXPIRES if expires_at is None else float(expires_at)
            ),
        )
        with self._lock:
            self.namespace.validate_tuple(t)
            tentative = self.store.with_write(t)
            cycle = detect_cycle(tentative, self.namespace.hierarchy_relations)
            if cycle is not None:
                raise cycle_error(cycle)
            self._commit(
                tentative,
                {"op": "write", "tuple": t.as_dict()},
                lambda: self.store.write(t),
            )
        return t

    def delete_tuple(
        self, object: str, relation: str, subject: str
    ) -> Optional[RelationTuple]:
        """Remove one tuple; returns it, or None when absent (no-op)."""
        key = (object, relation, subject)
        with self._lock:
            existing = self.store.get(key)
            if existing is None:
                return None
            tentative = [u for u in self.store.snapshot() if u.key() != key]
            self._commit(
                tentative,
                {"op": "delete", "tuple": existing.as_dict()},
                lambda: self.store.delete(key),
            )
        return existing

    def expire_tuples(self, now: Optional[float] = None) -> list[RelationTuple]:
        """Delete every tuple whose grant has expired as of ``now``
        (defaults to the injected clock).  The compiled views already
        exclude expired rows via ``expires_at > $time``; this sweep is
        garbage collection that also bumps the policy epoch."""
        if now is None:
            now = self.clock.now()
        expired = [t for t in self.store.snapshot() if t.expires_at <= now]
        for t in expired:
            self.delete_tuple(t.object, t.relation, t.subject)
        return expired

    def _commit(self, tentative, payload: dict, store_action) -> None:
        """Recompile against the tentative tuple set and commit."""
        new_closure = compute_closure(self.namespace, tentative)
        new_rows = {
            (ot, oid, rel, uid): exp
            for ot, oid, rel, uid, exp in closure_rows(
                self.namespace, new_closure
            )
        }
        # closure-delta DML first (ordinary row records) ...
        self._apply_delta(self._rows, new_rows)
        store_action()
        self._closure = new_closure
        self._rows = new_rows
        self.recompiles += 1
        # ... then the policy-bearing record: appended after every delta,
        # so reaching its epoch implies having applied all of them
        if self.db.durability is not None:
            record = {"kind": "rebac_tuple"}
            record.update(payload)
            record["dv"] = self.db.validity_cache.data_version
            self.db.durability.log_rebac(record)
        self.db._durable_commit()

    def _apply_delta(
        self, old_rows: dict[RowKey, float], new_rows: dict[RowKey, float]
    ) -> None:
        """Apply the closure diff as DML, in a deterministic order —
        sorted deletes, then updates, then inserts — shared by every
        engine/node."""
        deletes = sorted(k for k in old_rows if k not in new_rows)
        updates = sorted(
            k for k in new_rows if k in old_rows and old_rows[k] != new_rows[k]
        )
        inserts = sorted(k for k in new_rows if k not in old_rows)
        for key in deletes:
            self.db.execute(
                f"delete from {GRANTS_TABLE}{self._where(key)}", sync=False
            )
        for key in updates:
            self.db.execute(
                f"update {GRANTS_TABLE} set expires_at = {new_rows[key]!r}"
                f"{self._where(key)}",
                sync=False,
            )
        for key in inserts:
            ot, oid, rel, uid = key
            self.db.execute(
                f"insert into {GRANTS_TABLE} values ({_sql_str(ot)}, "
                f"{_sql_str(oid)}, {_sql_str(rel)}, {_sql_str(uid)}, "
                f"{new_rows[key]!r})",
                sync=False,
            )

    @staticmethod
    def _where(key: RowKey) -> str:
        ot, oid, rel, uid = key
        return (
            f" where object_type = {_sql_str(ot)}"
            f" and object_id = {_sql_str(oid)}"
            f" and relation = {_sql_str(rel)}"
            f" and user_id = {_sql_str(uid)}"
        )

    # -- replay (replicas + crash recovery) --------------------------------

    def apply_record(self, record: dict) -> None:
        """Apply a shipped/recovered ``rebac_tuple`` record.

        Updates the tuple store and the in-memory closure (explain
        provenance).  The ``RebacGrants`` rows themselves arrive through
        the ordinary row records that precede this one in LSN order — no
        DML, no re-logging here.
        """
        with self._lock:
            t = RelationTuple.from_dict(record["tuple"])
            op = record.get("op")
            if op == "write":
                self.store.write(t)
            elif op == "delete":
                self.store.delete(t.key())
            else:
                raise RebacError(f"unknown rebac_tuple op {op!r}")
            new_closure = compute_closure(self.namespace, self.store.snapshot())
            new_rows = {
                (ot, oid, rel, uid): exp
                for ot, oid, rel, uid, exp in closure_rows(
                    self.namespace, new_closure
                )
            }
            self._closure = new_closure
            self._rows = new_rows
            self.recompiles += 1

    # -- snapshot state ----------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable state for checkpoints (namespace + tuples; the
        materialized rows live in ordinary table state)."""
        with self._lock:
            return {
                "namespace": self.namespace.to_state(),
                "tuples": [t.as_dict() for t in self.store.snapshot()],
            }

    def restore_tuples(self, tuples_state: list[dict]) -> None:
        """Load snapshot tuples and rebuild provenance *without* DML —
        the restored ``RebacGrants`` rows already match the closure,
        which is a deterministic function of the tuple set."""
        with self._lock:
            for data in tuples_state:
                self.store.write(RelationTuple.from_dict(data))
            self._closure = compute_closure(
                self.namespace, self.store.snapshot()
            )
            self._rows = {
                (ot, oid, rel, uid): exp
                for ot, oid, rel, uid, exp in closure_rows(
                    self.namespace, self._closure
                )
            }

    # -- provenance (the \explain surface) ---------------------------------

    def grant_for(
        self, object: str, relation: str, user_id: object
    ) -> Optional[Grant]:
        """The kept grant (chain + expiry) for one (object, relation,
        user), or None when no tuple chain reaches the user."""
        with self._lock:
            return self._closure.get((object, relation), {}).get(str(user_id))

    def user_grants(self, user_id: object) -> list[tuple[str, str, Grant]]:
        """All permission grants held by a user, sorted."""
        uid = str(user_id)
        out: list[tuple[str, str, Grant]] = []
        with self._lock:
            for (object_, relation), users in sorted(self._closure.items()):
                otype = self.namespace.object_types.get(
                    object_.partition(":")[0]
                )
                if otype is None or relation not in otype.permissions:
                    continue
                grant = users.get(uid)
                if grant is not None:
                    out.append((object_, relation, grant))
        return out

    def denial_reason(
        self,
        object: str,
        relation: str,
        user_id: object,
        at_time: Optional[float] = None,
    ) -> Optional[str]:
        """Why a (object, relation, user) check fails — the missing or
        expired chain — or None when the grant actually holds."""
        grant = self.grant_for(object, relation, user_id)
        if grant is None:
            return (
                f"no relationship-tuple chain grants {relation!r} on "
                f"{object} to user {str(user_id)!r}"
            )
        if at_time is not None and grant.expires_at <= at_time:
            return (
                f"the tuple chain granting {relation!r} on {object} to "
                f"user {str(user_id)!r} expired at {grant.expires_at}"
            )
        return None

    def view_permission(self, name: str) -> Optional[tuple[str, str]]:
        """Map a compiled view name back to (object_type, permission)."""
        return self._views.get(name.lower())

    def compiled_view_names(self) -> list[str]:
        return sorted(
            view_name(ot, perm) for ot, perm in self._views.values()
        ) + ["RebacMyGrants"]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "rebac_tuples": len(self.store),
                "rebac_grant_rows": len(self._rows),
                "rebac_views": len(self._views) + 1,
                "rebac_recompiles": self.recompiles,
            }


def attach_rebac(
    db: "Database",
    namespace: NamespaceConfig,
    clock: Optional[Clock] = None,
    create_schema: bool = True,
) -> RebacManager:
    """Install a :class:`RebacManager` on ``db`` (sets ``db.rebac``).

    With ``create_schema`` (the normal path) the ``RebacGrants`` table,
    the compiled authorization views, and their PUBLIC grants are
    created through the standard DDL/grant paths — WAL-logged and
    replicated like any other schema — and a ``rebac_namespace`` record
    is appended so replicas and recovery re-attach automatically.
    Replay paths pass ``create_schema=False``: the schema records
    precede the namespace record in the log (or live in the snapshot).
    """
    if getattr(db, "rebac", None) is not None:
        raise RebacError("a ReBAC manager is already attached to this database")
    manager = RebacManager(db, namespace, clock=clock)
    if create_schema:
        db.execute(GRANTS_SCHEMA_SQL, sync=False)
        for ddl in compile_views(namespace):
            db.execute(ddl, sync=False)
        for name in manager.compiled_view_names():
            db.grant_public(name)
    db.rebac = manager
    if db.durability is not None:
        db.durability.log_rebac(
            {"kind": "rebac_namespace", "namespace": namespace.to_state()}
        )
        db._durable_commit()
    return manager
