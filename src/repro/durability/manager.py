"""The durability manager: the one write-ahead-log front end.

One :class:`DurabilityManager` turns a database's logical changes into
LSN-stamped log records, for a single node and for a cluster
coordinator alike.  It owns LSN assignment, the optional
:class:`~repro.durability.wal.WalWriter` (absent while the database has
no data directory), snapshots, checkpoint/rotation, ``close`` and
``wal_stats``.

Attaching a data directory has two shapes:

* **existing durable state** (``Database.open``): the target database
  must be empty and is recovered from it *before* any hook is
  installed, so replay never logs its own records again;
* **fresh directory** (``Database.open`` on an empty one,
  ``Database.save``): the current state is published as the first
  snapshot at the current LSN.

After attachment every table gets an ``on_mutate`` hook and the grant
registry and VPD policy set an ``on_change`` hook, so mutations are
logged no matter which API level performed them — including the
compensating writes a transaction ROLLBACK issues.

A cluster coordinator reuses this log through two extension points and
keeps no copy of it:

* ``on_append(record)`` runs under :attr:`lock` on every record, LSN
  already set, before the durable write — the coordinator stamps its
  policy epoch there and keeps its in-memory replication tail;
* ``on_commit()`` runs after each commit's sync — the coordinator
  ships to its replicas there.

A single node sets neither, so its records carry no ``epoch``.

Record kinds: ``ddl`` (CREATE TABLE / CREATE VIEW / DROP / AUTHORIZE,
replayed as SQL), ``row`` (insert/update/delete with stable row ids and
the validity-cache data version), ``index``, ``grant``/``revoke`` (with
the resulting registry version — the policy epoch), ``truman``,
``vpd``, ``participation``, and ``rebac_namespace``/``rebac_tuple``.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import DurabilityError
from repro.durability import layout
from repro.durability.faults import FaultInjector
from repro.durability.recovery import recover
from repro.durability.snapshot import (
    _participation_state,
    capture_state,
    write_snapshot,
)
from repro.durability.wal import WalWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.storage.table import Table


class DurabilityManager:
    """Write-ahead logging, checkpoints, and recovery for one Database."""

    def __init__(
        self,
        data_dir: Optional[str] = None,
        sync_policy: str = "group",
        injector: Optional[FaultInjector] = None,
    ):
        self.data_dir = data_dir
        self.sync_policy = sync_policy
        self.injector = injector
        self.db: Optional["Database"] = None
        self.writer: Optional[WalWriter] = None
        self.last_lsn = 0
        self.snapshot_lsn = 0
        self.recovery_info: dict = {}
        self.closed = False
        self.commits = 0
        self.checkpoints = 0
        #: ``on_append(record)``: see the module docstring
        self.on_append: Optional[Callable[[dict], None]] = None
        #: ``on_commit()``: see the module docstring
        self.on_commit: Optional[Callable[[], None]] = None
        #: serializes appends and checkpoints; a coordinator also holds
        #: it while it ships to or snapshots for a replica
        self.lock = threading.RLock()

    # -- attachment ------------------------------------------------------

    def attach(self, db: "Database") -> None:
        """Open ``data_dir`` (if any) for ``db``, then install the hooks."""
        self.db = db
        # recovery replays through the normal write paths: with no hook
        # installed yet, it logs nothing
        if self.data_dir is not None:
            self.open_dir(self.data_dir, self.sync_policy)
        db.durability = self
        for table in db._tables.values():
            self.register_table(table)
        db.grants.on_change = self._registry_change
        db.vpd_policies.on_change = self.log_vpd

    def open_dir(self, data_dir: str, sync_policy: str) -> None:
        """Back the log with ``data_dir``: recover it, or snapshot into it."""
        with self.lock:
            if self.writer is not None:
                raise DurabilityError(
                    f"database is already durable at {self.data_dir!r}"
                )
            os.makedirs(data_dir, exist_ok=True)
            if layout.has_durable_data(data_dir):
                db = self.db
                if db.catalog.tables() or db.catalog.views():
                    raise DurabilityError(
                        f"{data_dir!r} already holds durable state; it can "
                        "only be opened into an empty database "
                        "(use Database.open, not save)"
                    )
                self.recovery_info = recover(db, data_dir)
                self.snapshot_lsn = self.recovery_info["snapshot_lsn"]
                self.last_lsn = self.recovery_info["last_lsn"]
                segments = layout.list_segments(data_dir)
                tail_base = segments[-1][0] if segments else self.snapshot_lsn
            else:
                # the current state (empty for open(), populated for
                # save()) is the baseline recovery starts from
                write_snapshot(
                    layout.snapshot_path(data_dir, self.last_lsn),
                    capture_state(self.db, self.last_lsn),
                    self.injector,
                )
                self.snapshot_lsn = tail_base = self.last_lsn
            self.writer = WalWriter(
                layout.segment_path(data_dir, tail_base),
                start_lsn=self.last_lsn + 1,
                sync_policy=sync_policy,
                injector=self.injector,
            )
            self.data_dir = data_dir
            self.sync_policy = sync_policy

    # -- logging hooks ---------------------------------------------------

    def _append(self, payload: dict) -> int:
        with self.lock:
            if self.closed:
                raise DurabilityError("the database's log is closed")
            payload["lsn"] = lsn = self.last_lsn + 1
            if self.on_append is not None:
                self.on_append(payload)
            if self.writer is not None:
                self.writer.append(payload)
            self.last_lsn = lsn
            return lsn

    def log_ddl(self, sql: str) -> int:
        return self._append({"kind": "ddl", "sql": sql})

    def log_truman(self, table_name: str, view_name: str) -> int:
        return self._append(
            {"kind": "truman", "table": table_name, "view": view_name}
        )

    def log_participation(self, constraint) -> int:
        return self._append(
            {
                "kind": "participation",
                "constraint": _participation_state(constraint),
            }
        )

    def register_table(self, table: "Table") -> None:
        """Install the mutation hook emitting WAL records for one table."""
        name = table.schema.name.lower()

        def hook(event: str, *args) -> None:
            # the data version this change leaves: every row change runs
            # inside a write that moves the version once it is applied
            # (Database._dml, Database._undo), so a replica or a recovery
            # that restores it retires decisions taken before the change
            dv = self.db.validity_cache.data_version + 1
            if event == "insert":
                rid, row = args
                self._append(
                    {
                        "kind": "row",
                        "op": "insert",
                        "table": name,
                        "rid": rid,
                        "row": list(row),
                        "dv": dv,
                    }
                )
            elif event == "update":
                rid, row, _old = args
                self._append(
                    {
                        "kind": "row",
                        "op": "update",
                        "table": name,
                        "rid": rid,
                        "row": list(row),
                        "dv": dv,
                    }
                )
            elif event == "delete":
                rid, _row = args
                self._append(
                    {
                        "kind": "row",
                        "op": "delete",
                        "table": name,
                        "rid": rid,
                        "dv": dv,
                    }
                )
            elif event == "index":
                columns, unique = args
                self._append(
                    {
                        "kind": "index",
                        "table": name,
                        "columns": list(columns),
                        "unique": unique,
                    }
                )

        table.on_mutate = hook

    def _registry_change(self, event: str, info: dict) -> None:
        payload = {"kind": event}
        payload.update(info)
        self._append(payload)

    def log_vpd(self, table: str, predicate: str, version: int) -> int:
        return self._append(
            {"kind": "vpd", "table": table, "predicate": predicate,
             "vv": version}
        )

    def log_rebac(self, payload: dict) -> int:
        """Append a ReBAC policy record (``rebac_namespace`` attaches
        the compiled-policy manager on replay; ``rebac_tuple`` carries
        one relationship-tuple write/delete)."""
        return self._append(dict(payload))

    # -- commit / checkpoint ---------------------------------------------

    def commit(self) -> None:
        """Make everything appended so far durable (group commit), then
        run ``on_commit``."""
        if self.closed:
            return
        self.commits += 1
        if self.writer is not None:
            self.writer.sync()
        if self.on_commit is not None:
            self.on_commit()

    def checkpoint(self) -> int:
        """Snapshot the current state and truncate the log behind it.

        The caller must have quiesced DML (the gateway checkpoints after
        drain; the CLI and direct API are single-threaded).  Returns the
        checkpoint LSN; without a data directory there is nothing to
        snapshot and the LSN is just returned.
        """
        with self.lock:
            if self.closed:
                raise DurabilityError("the database's log is closed")
            last_lsn = self.last_lsn
            if self.writer is None:
                return last_lsn
            if self.injector is not None:
                self.injector.fire("checkpoint.before_snapshot")
            self.writer.fsync_now()
            write_snapshot(
                layout.snapshot_path(self.data_dir, last_lsn),
                capture_state(self.db, last_lsn),
                self.injector,
            )
            if self.injector is not None:
                self.injector.fire("checkpoint.after_snapshot")
            # rotate the log so replay after this snapshot starts empty
            self.writer.close()
            self.writer = WalWriter(
                layout.segment_path(self.data_dir, last_lsn),
                start_lsn=last_lsn + 1,
                sync_policy=self.sync_policy,
                injector=self.injector,
            )
            self.snapshot_lsn = last_lsn
            # truncate: drop snapshots and segments the new pair obsoletes
            for lsn, path in layout.list_snapshots(self.data_dir):
                if lsn < last_lsn:
                    os.remove(path)
            for base, path in layout.list_segments(self.data_dir):
                if base < last_lsn:
                    os.remove(path)
            if self.injector is not None:
                self.injector.fire("checkpoint.after_truncate")
            self.checkpoints += 1
            return last_lsn

    def close(self, checkpoint: bool = True) -> None:
        with self.lock:
            if self.closed:
                return
            if checkpoint:
                self.checkpoint()
            if self.writer is not None:
                self.writer.close()
            self.closed = True

    # -- observability ---------------------------------------------------

    def wal_stats(self) -> dict[str, object]:
        stats: dict[str, object] = {
            "data_dir": self.data_dir,
            "sync_policy": self.sync_policy,
            "wal_commits": self.commits,
            "wal_last_lsn": self.last_lsn,
            "snapshot_lsn": self.snapshot_lsn,
            "checkpoints": self.checkpoints,
        }
        if self.writer is not None:
            stats["wal_records"] = self.writer.records_appended
            stats["wal_bytes"] = self.writer.bytes_appended
            stats["wal_fsyncs"] = self.writer.fsync_count
            stats["wal_synced_lsn"] = self.writer.synced_lsn
        if self.recovery_info:
            stats["recovered_wal_records"] = self.recovery_info[
                "wal_records_replayed"
            ]
            stats["recovered_torn_tail"] = self.recovery_info["torn_truncated"]
            stats["recovery_s"] = round(self.recovery_info["recover_s"], 6)
        return stats
