"""Replication: the coordinator's in-memory log tail + shipping to replicas.

A coordinator logs through the same
:class:`~repro.durability.manager.DurabilityManager` a single node
uses; its append hook keeps every record in a :class:`ReplicationLog`
tail under the record's LSN, and its commit listener drives one
:class:`WalShipper` per replica.  So the gateway's write path (group
commit after the write lock, the commit circuit breaker, degraded
read-only failover, drain-time checkpoint) drives replication without
knowing the cluster exists.

Every shipped record carries two stamps:

* ``lsn`` — position in the log (idempotence: a replica re-applying an
  already-seen LSN is a no-op);
* ``epoch`` — the **policy epoch**, which the coordinator's append hook
  bumps for every policy-bearing record (:data:`POLICY_KINDS`: grant/
  revoke, DDL — view bodies change what a name means — Truman mappings,
  VPD predicates, participation constraints, ReBAC) before the durable
  write.  The coordinator routes reads only to replicas whose observed
  epoch has caught up to its own, so the instant a revoke is appended —
  before it even ships — every replica is ineligible until it has
  applied that revoke.  A revoke can therefore never be served stale:
  the race window is closed by construction, not by shipping speed.

Shipped records round-trip through the durable WAL's CRC framing
(:func:`repro.durability.wal.encode_record` /
:func:`~repro.durability.wal.decode_frames`): what a replica applies is
exactly what a follower reading a shipped segment file would decode.
Shipping is **chunked**: a ship call frames at most ``max_records``
records into one byte stream and applies whatever decodes intact, so a
truncated stream makes bounded progress and a retry (apply is
idempotent by LSN) finishes the job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import DurabilityError
from repro.durability.wal import decode_frames, encode_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.replica import ReadReplica

#: record kinds that change what some user is allowed to see
POLICY_KINDS = frozenset(
    {"grant", "revoke", "ddl", "truman", "vpd", "participation",
     "rebac_namespace", "rebac_tuple"}
)


class ReplicationLog:
    """In-memory tail of the log: consecutive epoch-stamped records.

    ``base_lsn`` is the LSN of the last record *not* held in memory: a
    fresh log has base 0 (everything since the beginning of time is in
    ``records``); a log re-opened over durable state, or truncated by a
    checkpoint, starts after the snapshot — a shipper whose cursor
    falls below the base cannot stream and must bootstrap its replica
    from a snapshot instead.
    """

    def __init__(self, base_lsn: int = 0):
        self.records: list[dict] = []
        self.base_lsn = base_lsn

    @property
    def last_lsn(self) -> int:
        return self.base_lsn + len(self.records)

    def append(self, record: dict) -> None:
        """Keep ``record``, whose ``lsn`` must be ``last_lsn + 1``."""
        self.records.append(record)

    def records_since(self, lsn: int) -> list[dict]:
        """Every in-memory record with an LSN greater than ``lsn``."""
        start = max(0, lsn - self.base_lsn)
        return self.records[start:]

    def truncate_to(self, lsn: int) -> int:
        """Drop records at or below ``lsn``; returns how many."""
        lsn = min(lsn, self.last_lsn)
        drop = lsn - self.base_lsn
        if drop <= 0:
            return 0
        del self.records[:drop]
        self.base_lsn = lsn
        return drop


class WalShipper:
    """Ships the replication log to one replica, tracking its cursor."""

    def __init__(self, log: ReplicationLog, replica: "ReadReplica",
                 ship_batch: int = 1,
                 auto_ship_lag: Optional[int] = None):
        self.log = log
        self.replica = replica
        #: ship eagerly once this many records are pending
        self.ship_batch = max(1, ship_batch)
        #: lag ceiling: a commit auto-ships whenever the replica's lag
        #: reaches this many records, even mid-batch (None = batch only)
        self.auto_ship_lag = auto_ship_lag
        #: chaos hooks: a paused shipper accumulates lag; failures raise;
        #: a truncated ship delivers half a chunk, then raises
        self.paused = False
        self.fail_next_ships = 0
        self.truncate_next_ships = 0
        #: LSN of the last record shipped to this replica
        self._cursor = log.base_lsn
        self.ships = 0
        self.records_shipped = 0
        self.auto_ships = 0

    def pending(self) -> int:
        return self.log.last_lsn - self._cursor

    def lag(self) -> int:
        """Records appended to the log but not yet applied here."""
        return self.log.last_lsn - self.replica.applied_lsn

    def maybe_ship(self) -> int:
        if self.paused:
            return 0
        if self.pending() < self.ship_batch:
            if (
                self.auto_ship_lag is None
                or self.lag() < self.auto_ship_lag
                or self.pending() == 0
            ):
                return 0
            # lag-bound breach: don't wait for the batch to fill
            self.auto_ships += 1
        return self.ship()

    def ship(self, max_records: Optional[int] = None) -> int:
        """Apply pending records to the replica in LSN order.

        ``max_records`` bounds the chunk (None = everything pending).
        The chunk is framed into one CRC byte stream and whatever
        decodes intact is applied — a truncated stream (chaos hook
        ``truncate_next_ships``) makes partial progress, advances the
        cursor past what landed, and raises; a retry resumes from the
        cursor and LSN-idempotent apply absorbs any overlap.
        """
        if self.paused:
            return 0
        if self.fail_next_ships > 0:
            self.fail_next_ships -= 1
            raise DurabilityError(
                f"injected ship failure to {self.replica.name}"
            )
        if self._cursor < self.log.base_lsn:
            raise DurabilityError(
                f"replication log was truncated past {self.replica.name}'s "
                f"cursor (needs records after LSN {self._cursor}, log now "
                f"starts after {self.log.base_lsn}); the replica must "
                "bootstrap from a snapshot"
            )
        batch = self.log.records_since(self._cursor)
        if max_records is not None:
            batch = batch[:max_records]
        if not batch:
            return 0
        # round-trip the whole chunk through the durable framing: the
        # replica sees exactly what a decoded shipped segment would
        data = b"".join(encode_record(record) for record in batch)
        truncated = False
        if self.truncate_next_ships > 0:
            self.truncate_next_ships -= 1
            data = data[: len(data) // 2]
            truncated = True
        frames, _, torn = decode_frames(data)
        if not truncated and (torn or len(frames) != len(batch)):
            raise DurabilityError(
                f"replication chunk after LSN {self._cursor} did not "
                "survive encoding"
            )
        shipped = 0
        for record in frames:
            self.replica.apply(record)
            self._cursor = record["lsn"]
            shipped += 1
        if shipped:
            self.ships += 1
            self.records_shipped += shipped
        if truncated:
            raise DurabilityError(
                f"ship stream to {self.replica.name} truncated mid-chunk "
                f"({shipped}/{len(batch)} records applied)"
            )
        return shipped

