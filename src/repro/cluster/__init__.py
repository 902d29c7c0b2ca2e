"""repro.cluster: sharded + replicated serving with one enforcement brain.

The coordinator (:class:`ClusterCoordinator`) owns parse/check/plan and
the policy state; N :class:`StorageNode` shards hold hash-partitioned
fragments behind a Table-shaped facade; WAL shipping feeds
:class:`ReadReplica` instances that serve reads once their observed
policy epoch catches up with the coordinator's.
"""

from repro.cluster.coordinator import REPLICA_READ_MODES, ClusterCoordinator
from repro.cluster.health import (
    CATCHING_UP,
    HEALTHY,
    QUARANTINED,
    REPLICA_STATES,
    SUSPECT,
    HealthMonitor,
    ReplicaHealth,
    backoff_delays,
    content_digests,
)
from repro.cluster.partition import (
    HashPartitioner,
    PartitionedIndex,
    PartitionedTable,
    ShardFragment,
)
from repro.cluster.replica import ReadReplica
from repro.cluster.shipper import ReplicationLog, WalShipper
from repro.cluster.storage_node import (
    DECOMPOSABLE,
    StorageNode,
    decomposable_aggregate,
    exact_merge_aggregates,
    fragment_safe_subtree,
    merge_partials,
)

__all__ = [
    "CATCHING_UP",
    "ClusterCoordinator",
    "DECOMPOSABLE",
    "HEALTHY",
    "HashPartitioner",
    "HealthMonitor",
    "PartitionedIndex",
    "PartitionedTable",
    "QUARANTINED",
    "REPLICA_READ_MODES",
    "REPLICA_STATES",
    "ReadReplica",
    "ReplicaHealth",
    "ReplicationLog",
    "SUSPECT",
    "ShardFragment",
    "StorageNode",
    "WalShipper",
    "backoff_delays",
    "content_digests",
    "decomposable_aggregate",
    "exact_merge_aggregates",
    "fragment_safe_subtree",
    "merge_partials",
]
