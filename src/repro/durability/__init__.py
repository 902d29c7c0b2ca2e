"""repro.durability — crash-safe persistence for the database.

The subsystem gives the in-memory engine a durable form without
touching its query path:

* :mod:`repro.durability.wal` — append-only write-ahead log with
  per-record CRC32 framing and **group commit** (one fsync covers every
  concurrently committed record);
* :mod:`repro.durability.snapshot` — checkpoint files serializing
  tables (with stable row ids), indexes, the auth-view registry, update
  policies, and the policy-epoch / data-version counters, published by
  atomic rename;
* :mod:`repro.durability.recovery` — ``Database.open(data_dir)``: load
  the newest valid snapshot, replay the WAL tail in LSN order, truncate
  a torn final record instead of applying it;
* :mod:`repro.durability.manager` — the one log front end, for a single
  node and a cluster coordinator: mutation hooks, LSNs, commit,
  checkpoint + log truncation, ``\\wal-stats``;
* :mod:`repro.durability.faults` — crash-point injection used by the
  recovery test matrix and the E15 benchmark.

An in-memory single-node ``Database()`` never touches this package
(a cluster coordinator always logs, to feed its replicas): the hooks are
``None`` checks on mutation paths only, so read/query performance is
unchanged.
"""

from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.layout import has_durable_data
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WalWriter, read_wal

__all__ = [
    "CRASH_POINTS",
    "FaultInjector",
    "InjectedCrash",
    "DurabilityManager",
    "WalWriter",
    "read_wal",
    "has_durable_data",
]
