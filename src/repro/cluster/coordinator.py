"""The cluster coordinator: one brain, N shards, M replicas.

:class:`ClusterCoordinator` *is a* :class:`~repro.db.Database` whose
storage layer is hash-partitioned: ``_make_table`` places one fragment
of every relation on each :class:`~repro.cluster.storage_node.
StorageNode` behind a :class:`~repro.cluster.partition.
PartitionedTable` facade.  Everything above storage — the parser, the
Non-Truman validity checker, Truman rewriting, planning, the prepared-
statement pipeline — runs **once per query on the coordinator**,
exactly as on a single node; only execution touches shards:

* point scans prune to the one shard the partition key hashes to (both
  engines — see ``Executor._select_input`` and
  ``VectorizedExecutor._scan``);
* decomposable scalar aggregates scatter to every node and gather
  merged partials (:meth:`run_plan`);
* everything else reads the facade's merged row-id-ordered view, which
  is byte-identical to a single node's iteration order.

Replication: the coordinator logs through the same
:class:`~repro.durability.manager.DurabilityManager` a single node
uses (with a WAL writer only when it has a ``data_dir``) and plugs in
two hooks.  The append hook stamps the policy epoch on every record —
bumping it for :data:`~repro.cluster.shipper.POLICY_KINDS` — before the
durable write, and keeps the record in the in-memory
:class:`~repro.cluster.shipper.ReplicationLog` tail (``log``) under the
same LSN.  The commit hook ships that tail to the
:class:`~repro.cluster.replica.ReadReplica` instances the failure
detector allows.  :meth:`route_read` offers a replica only when its
observed policy epoch has caught up with the coordinator's **and** its
data lag is within ``replica_max_lag`` — a freshly-appended revoke
makes every replica ineligible until it has applied that revoke.
"""

from __future__ import annotations

import random
import time
from typing import Mapping, Optional

from repro.errors import (
    ConnectionDropped,
    DurabilityError,
    ExecutionError,
    ReplicaUnavailable,
    TransientFault,
)
from repro.algebra import ops
from repro.authviews.session import SessionContext
from repro.db import Database, Result
from repro.engine import ENGINES, Evaluator, RowResolver
from repro.instrument import COUNTERS
from repro.service.clock import Clock
from repro.storage.table import Table
from repro.cluster.health import (
    HEALTHY,
    QUARANTINED,
    HealthMonitor,
    backoff_delays,
    content_digests,
)
from repro.cluster.partition import HashPartitioner, PartitionedTable
from repro.cluster.replica import ReadReplica
from repro.cluster.shipper import POLICY_KINDS, ReplicationLog, WalShipper
from repro.cluster.storage_node import (
    StorageNode,
    decomposable_aggregate,
    exact_merge_aggregates,
    fragment_safe_subtree,
    merge_partials,
)

#: modes whose reads may be served by a caught-up replica
REPLICA_READ_MODES = ("open", "truman", "non-truman")


class ClusterCoordinator(Database):
    """Sharded, replicated Database with single-point enforcement."""

    def __init__(
        self,
        shards: int = 4,
        replicas: int = 0,
        replica_max_lag: int = 0,
        ship_batch: int = 1,
        auto_ship_lag: Optional[int] = None,
        partition_keys: Optional[Mapping[str, tuple]] = None,
        data_dir: Optional[str] = None,
        durability_sync: str = "group",
        chaos=None,
        clock: Optional[Clock] = None,
        suspect_after: float = 5.0,
        quarantine_after: float = 15.0,
        failure_threshold: int = 3,
        health_tick_interval: float = 0.05,
        auto_catchup: bool = False,
        catchup_chunk: int = 64,
        catchup_retries: int = 5,
        catchup_backoff: float = 0.01,
        catchup_backoff_cap: float = 0.25,
        catchup_seed: int = 0,
    ):
        if shards < 1:
            raise ExecutionError(f"cluster needs at least 1 shard, got {shards}")
        self.nodes = [StorageNode(i) for i in range(int(shards))]
        #: optional per-table partition-key override (defaults to the
        #: primary key, else all columns)
        self.partition_keys = {
            name.lower(): tuple(cols)
            for name, cols in (partition_keys or {}).items()
        }
        self.replicas: list[ReadReplica] = []
        self.replica_max_lag = replica_max_lag
        self._route_cursor = 0
        #: failure detector over the replica set (injectable clock for
        #: deterministic tests; chaos fires cluster.* points)
        self.health = HealthMonitor(
            clock=clock,
            suspect_after=suspect_after,
            quarantine_after=quarantine_after,
            failure_threshold=failure_threshold,
        )
        self._clock = self.health.clock
        self._chaos = chaos
        self.health_tick_interval = health_tick_interval
        self._last_tick = self._clock.monotonic()
        #: when True, the failure-detector tick also attempts catch-up
        #: on quarantined (but reachable) replicas — self-healing with
        #: no operator in the loop
        self.auto_catchup = auto_catchup
        self.catchup_chunk = max(1, catchup_chunk)
        self.catchup_retries = catchup_retries
        self.catchup_backoff = catchup_backoff
        self.catchup_backoff_cap = catchup_backoff_cap
        self._catchup_rng = random.Random(catchup_seed)
        #: injectable sleep for deterministic backoff tests
        self._sleep = time.sleep
        self.ship_batch = ship_batch
        #: auto_ship_lag bounds replica lag without explicit syncs: a
        #: commit ships as soon as any replica trails by that many
        #: records, even when the ship batch has not filled
        self.auto_ship_lag = auto_ship_lag
        self.shippers: list[WalShipper] = []
        #: chaos hook mirroring a failing durable commit: trips the
        #: gateway's breaker into degraded read-only mode
        self.fail_next_commits = 0
        #: bumped by every policy-bearing record at append time
        self.policy_epoch = 0
        super().__init__()
        # over existing durable state, recovery runs here, before the
        # hooks below exist
        self._attach_durability(data_dir, durability_sync, injector=chaos)
        wal = self.durability
        #: recovery report when constructed over existing durable state
        self.recovery_report: Optional[dict] = wal.recovery_info or None
        self.policy_epoch = wal.recovery_info.get("policy_epoch", 0)
        #: in-memory tail of the log; history only on disk is not in it
        #: (a replica attached later bootstraps from a snapshot instead)
        self.log = ReplicationLog(base_lsn=wal.last_lsn)
        wal.on_append = self._stamp_and_keep
        wal.on_commit = self._ship_on_commit
        for _ in range(int(replicas)):
            self.add_replica()

    @classmethod
    def open(cls, data_dir: str, **kwargs) -> "ClusterCoordinator":
        """Restore a coordinator (and resurrect replicas) from disk.

        Shards are rebuilt by replaying the recovered DDL/rows through
        the normal partitioned-placement path; any ``replicas=N``
        requested come back through the same snapshot-bootstrap +
        tail-streaming pipeline a quarantined replica uses, so a
        restarted cluster and a never-crashed one converge on identical
        serving state.
        """
        return cls(data_dir=data_dir, **kwargs)

    # -- storage placement ------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.nodes)

    def _make_table(self, schema) -> PartitionedTable:
        pk = self.catalog.primary_key(schema.name)
        key = self.partition_keys.get(schema.name.lower())
        if key is None:
            key = (
                pk.columns
                if pk is not None
                else tuple(c.name for c in schema.columns)
            )
        partitioner = HashPartitioner(schema, key, len(self.nodes))
        shard_tables = [Table(schema) for _ in self.nodes]
        for node, shard_table in zip(self.nodes, shard_tables):
            node.add_table(schema.name, shard_table)
        return PartitionedTable(schema, shard_tables, partitioner)

    # -- the log's coordinator hooks ----------------------------------------

    def _stamp_and_keep(self, record: dict) -> None:
        """Append hook: stamp the policy epoch, keep the record in the
        tail (runs under the log lock, before the durable write)."""
        if record["kind"] in POLICY_KINDS:
            self.policy_epoch += 1
        record["epoch"] = self.policy_epoch
        self.log.append(record)

    def _ship_on_commit(self) -> None:
        """Commit hook: ship to every replica the detector allows.

        A failing replica is *reported and skipped*: the write succeeds,
        the other replicas ship, and the failure detector walks the
        flaky replica toward quarantine while the primary (and every
        healthy replica) keeps serving.
        """
        with self.durability.lock:
            if self.fail_next_commits > 0:
                self.fail_next_commits -= 1
                raise DurabilityError("injected cluster commit failure")
            for shipper in self.shippers:
                name = shipper.replica.name
                if not self.health.may_ship(name):
                    continue
                try:
                    shipper.maybe_ship()
                except (DurabilityError, OSError) as exc:
                    self.health.record_failure(name, exc)
                    continue
                if not shipper.paused:
                    self.health.heartbeat(name)

    def checkpoint(self) -> int:
        """Checkpoint the log, then drop the tail records every replica
        has been shipped (a durable log only: in memory the tail is the
        whole history, and late replicas stream it)."""
        with self.durability.lock:
            lsn = super().checkpoint()
            if self.durability.writer is not None:
                self.log.truncate_to(
                    min([lsn] + [s._cursor for s in self.shippers])
                )
            return lsn

    # -- replicas ---------------------------------------------------------

    def add_replica(self, name: Optional[str] = None) -> ReadReplica:
        """Attach a replica and stream it up to date.

        A fresh coordinator streams the full in-memory log in chunks;
        over durable/truncated history the replica bootstraps from a
        snapshot of the live state first — the same catch-up path a
        quarantined replica rejoins through.
        """
        replica = ReadReplica(name or f"r{len(self.replicas)}")
        shipper = WalShipper(
            self.log,
            replica,
            ship_batch=self.ship_batch,
            auto_ship_lag=self.auto_ship_lag,
        )
        # a brand-new replica starts before everything, even records the
        # log no longer holds (catch-up then bootstraps it)
        shipper._cursor = 0
        self.shippers.append(shipper)
        self.replicas.append(replica)
        self.health.register(replica.name)
        self._catch_up_one(shipper)
        return replica

    def sync_replicas(self) -> int:
        """Ship everything pending to every replica, whatever their
        health state; returns records shipped (manual hammer; raises on
        ship faults — see :meth:`catch_up` for the retry/bootstrap
        path)."""
        with self.durability.lock:
            return sum(shipper.ship() for shipper in self.shippers)

    def replica_lag(self) -> int:
        """Worst data lag (in log records) across the replicas."""
        return max((s.lag() for s in self.shippers), default=0)

    def route_read(self) -> Optional[ReadReplica]:
        """A replica fit to serve a read right now, or None for primary.

        Fit means: the failure detector considers it ``HEALTHY`` (a
        quarantined or catching-up replica is never offered, whatever
        its lag claims), observed policy epoch ≥ the coordinator's (no
        policy change it has not applied — stamped at append time, so
        even an unshipped revoke disqualifies every replica
        immediately), and data lag within ``replica_max_lag``.
        Eligible replicas are rotated round-robin.
        """
        if not self.replicas:
            return None
        self.maybe_tick()
        epoch = self.policy_epoch
        eligible = [
            shipper.replica
            for shipper in self.shippers
            if self.health.is_serving(shipper.replica.name)
            and shipper.replica.policy_epoch >= epoch
            and shipper.lag() <= self.replica_max_lag
        ]
        if not eligible:
            return None
        self._route_cursor += 1
        return eligible[self._route_cursor % len(eligible)]

    def verify_replica_serving(self, replica: ReadReplica) -> None:
        """Execution-time re-check of a routed replica (gateway hook).

        Routing and execution are separated by a queue hop; if the
        failure detector quarantined the replica — or a policy change
        landed — in between, the read must not run there.  Raises
        :class:`~repro.errors.ReplicaUnavailable`; the gateway falls
        back to the primary, so the caller still gets a policy-current
        answer.
        """
        state = self.health.state_of(replica.name)
        if state != HEALTHY:
            raise ReplicaUnavailable(
                f"replica {replica.name} is {state}; read falls back to "
                "the primary"
            )
        shipper = self._shipper_for(replica.name)
        if shipper is None:
            raise ReplicaUnavailable(f"replica {replica.name} is detached")
        if (
            replica.policy_epoch < self.policy_epoch
            or shipper.lag() > self.replica_max_lag
        ):
            raise ReplicaUnavailable(
                f"replica {replica.name} fell behind between routing and "
                "execution (epoch/lag gate)"
            )

    def _shipper_for(self, name: str) -> Optional[WalShipper]:
        for shipper in self.shippers:
            if shipper.replica.name == name:
                return shipper
        return None

    # -- failure detection -------------------------------------------------

    def maybe_tick(self) -> None:
        """Rate-limited failure-detector pass (cheap on the read path)."""
        now = self._clock.monotonic()
        if now - self._last_tick < self.health_tick_interval:
            return
        self._last_tick = now
        self.tick()

    def tick(self) -> None:
        """One failure-detector pass: gather evidence, then escalate.

        An un-paused shipper counts as positive liveness evidence (an
        idle healthy cluster never drifts toward quarantine); a paused
        one — the partition/crash chaos hook — produces none, so its
        heartbeat ages into ``SUSPECT`` and then ``QUARANTINED``.  The
        ``cluster.heartbeat`` chaos point simulates lost probes.
        """
        for shipper in self.shippers:
            name = shipper.replica.name
            if not self.health.may_ship(name):
                continue
            if self._chaos is not None:
                try:
                    self._chaos.fire("cluster.heartbeat")
                except Exception as exc:
                    self.health.record_failure(name, exc)
                    continue
            if not shipper.paused:
                self.health.heartbeat(name)
        self.health.tick()
        if self.auto_catchup:
            for shipper in self.shippers:
                name = shipper.replica.name
                if self.health.state_of(name) != QUARANTINED:
                    continue
                if shipper.paused:
                    continue  # still unreachable; don't spin
                try:
                    self._catch_up_one(shipper)
                except ReplicaUnavailable:
                    pass  # stays quarantined; a later tick retries

    # -- catch-up streaming ------------------------------------------------

    def catch_up(
        self,
        name: Optional[str] = None,
        force_bootstrap: bool = False,
    ) -> list[dict]:
        """Stream lagging/quarantined replicas back behind the gate.

        With ``name`` the one replica is caught up unconditionally;
        without, every replica that is not currently serving (or is
        lagging) is. Returns one report per replica processed.
        """
        reports = []
        matched = False
        for shipper in list(self.shippers):
            rname = shipper.replica.name
            if name is not None:
                if rname != name:
                    continue
                matched = True
            elif self.health.is_serving(rname) and shipper.lag() == 0:
                continue
            reports.append(
                self._catch_up_one(shipper, force_bootstrap=force_bootstrap)
            )
        if name is not None and not matched:
            raise ReplicaUnavailable(f"no replica named {name!r}")
        return reports

    def _catch_up_one(
        self, shipper: WalShipper, force_bootstrap: bool = False
    ) -> dict:
        """Bootstrap-if-needed, stream the WAL tail in bounded chunks
        with retry/backoff/jitter, verify digests, rejoin routing.

        The replica rejoins (``HEALTHY``) only once its lag is 0, its
        policy epoch matches the coordinator's, and the anti-entropy
        digests agree; any exhausted retry or unresolved divergence
        re-quarantines it and raises
        :class:`~repro.errors.ReplicaUnavailable`.
        """
        wal = self.durability
        replica = shipper.replica
        started = self._clock.monotonic()
        report = {
            "replica": replica.name,
            "bootstrapped": False,
            "chunks": 0,
            "records_streamed": 0,
            "retries": 0,
            "divergences": 0,
        }
        self.health.begin_catch_up(replica.name)
        if self._chaos is not None:
            # a hard-armed point (InjectedCrash, a BaseException) kills
            # the "process" mid-catch-up; a soft fault aborts this
            # attempt and re-quarantines
            try:
                self._chaos.fire("cluster.catchup")
            except Exception as exc:
                self.health.quarantine(replica.name, error=exc)
                raise ReplicaUnavailable(
                    f"catch-up for {replica.name} aborted by fault: {exc}"
                ) from exc
        if shipper.paused:
            self.health.quarantine(replica.name, error="shipper paused")
            raise ReplicaUnavailable(
                f"replica {replica.name} is unreachable (shipper paused); "
                "catch-up aborted"
            )
        if force_bootstrap or shipper._cursor < self.log.base_lsn:
            self._bootstrap_replica(shipper)
            report["bootstrapped"] = True
        attempt = 0
        while True:
            with wal.lock:
                if shipper.lag() <= 0 and shipper.pending() <= 0:
                    break
            try:
                with wal.lock:
                    if self._chaos is not None:
                        self._chaos.fire("cluster.ship_stream")
                    shipped = shipper.ship(max_records=self.catchup_chunk)
                report["chunks"] += 1
                report["records_streamed"] += shipped
                attempt = 0  # progress resets the retry budget
            except (
                DurabilityError,
                OSError,
                TransientFault,
                ConnectionDropped,
            ) as exc:
                attempt += 1
                report["retries"] += 1
                if attempt > self.catchup_retries:
                    self.health.quarantine(replica.name, error=exc)
                    raise ReplicaUnavailable(
                        f"catch-up for {replica.name} gave up after "
                        f"{self.catchup_retries} retries: {exc}"
                    ) from exc
                if shipper._cursor < self.log.base_lsn:
                    # the log moved past us mid-stream (checkpoint);
                    # fall back to a fresh bootstrap
                    self._bootstrap_replica(shipper)
                    report["bootstrapped"] = True
                    continue
                delay = backoff_delays(
                    1,
                    base=self.catchup_backoff * (2 ** (attempt - 1)),
                    cap=self.catchup_backoff_cap,
                    rng=self._catchup_rng,
                )[0]
                if delay > 0:
                    self._sleep(delay)
        self._verify_rejoin(shipper, report)
        self.health.mark_healthy(replica.name)
        report["duration_s"] = self._clock.monotonic() - started
        return report

    def _bootstrap_replica(self, shipper: WalShipper) -> None:
        """Rebuild the replica from a snapshot of the live primary."""
        from repro.durability.snapshot import capture_state

        with self.durability.lock:
            if self._chaos is not None:
                self._chaos.fire("cluster.bootstrap")
            last_lsn = self.log.last_lsn
            state = capture_state(self, last_lsn)
            epoch = self.policy_epoch
        shipper.replica.bootstrap(state, last_lsn=last_lsn, policy_epoch=epoch)
        shipper._cursor = max(shipper._cursor, last_lsn)

    # -- anti-entropy ------------------------------------------------------

    def _digest_mismatch(self, replica: ReadReplica) -> Optional[str]:
        """Compare primary-vs-replica content digests; None when clean.

        The ``cluster.digest`` chaos point simulates digest corruption:
        a fault there reads as a mismatch, driving the same automatic
        re-bootstrap a real divergence would.
        """
        if self._chaos is not None:
            try:
                self._chaos.fire("cluster.digest")
            except Exception as exc:
                return f"digest fault: {exc}"
        primary = content_digests(self)
        secondary = content_digests(replica.database)
        diffs = {
            key
            for key in primary.keys() | secondary.keys()
            if primary.get(key) != secondary.get(key)
        }
        if replica.policy_epoch != self.policy_epoch:
            diffs.add("policy_epoch")
        return ", ".join(sorted(diffs)) if diffs else None

    def _verify_rejoin(self, shipper: WalShipper, report: dict) -> None:
        """Anti-entropy gate: digests must match before rejoining.

        A mismatch counts a divergence and triggers one automatic
        re-bootstrap + re-verify; a replica that *still* diverges keeps
        its unresolved divergence, stays quarantined, and raises.
        """
        wal = self.durability
        replica = shipper.replica
        with wal.lock, replica.read_lock():
            mismatch = self._digest_mismatch(replica)
        if mismatch is None:
            return
        self.health.record_divergence(replica.name)
        report["divergences"] += 1
        self._bootstrap_replica(shipper)
        report["bootstrapped"] = True
        with wal.lock, replica.read_lock():
            mismatch = self._digest_mismatch(replica)
        if mismatch is not None:
            self.health.quarantine(replica.name, error=mismatch)
            raise ReplicaUnavailable(
                f"replica {replica.name} still diverges after re-bootstrap "
                f"({mismatch}); quarantined"
            )

    def run_anti_entropy(self) -> dict[str, str]:
        """Digest-compare every serving replica against the primary.

        Clean replicas stay untouched; a divergent one is counted,
        quarantined, and immediately healed through a forced
        re-bootstrap catch-up.  Returns per-replica outcomes
        (``clean`` / ``lagging`` / ``rebootstrapped``).
        """
        outcomes: dict[str, str] = {}
        for shipper in list(self.shippers):
            name = shipper.replica.name
            if not self.health.is_serving(name):
                outcomes[name] = self.health.state_of(name)
                continue
            if shipper.lag() > 0:
                outcomes[name] = "lagging"  # compare only at rest
                continue
            with self.durability.lock, shipper.replica.read_lock():
                mismatch = self._digest_mismatch(shipper.replica)
            if mismatch is None:
                outcomes[name] = "clean"
                continue
            self.health.record_divergence(name)
            self.health.quarantine(name, error=mismatch)
            self._catch_up_one(shipper, force_bootstrap=True)
            outcomes[name] = "rebootstrapped"
        return outcomes

    def cluster_health(self) -> dict:
        """Live topology/health view (``\\replicas``, ``health`` frame)."""
        snapshot = self.health.snapshot()
        replicas = []
        for shipper in self.shippers:
            replica = shipper.replica
            info = snapshot.get(replica.name, {})
            replicas.append(
                {
                    "name": replica.name,
                    "state": info.get("state", HEALTHY),
                    "serving": self.health.is_serving(replica.name),
                    "lag": shipper.lag(),
                    "applied_lsn": replica.applied_lsn,
                    "policy_epoch": replica.policy_epoch,
                    "heartbeat_age_s": round(
                        info.get("heartbeat_age_s", 0.0), 3
                    ),
                    "divergences": info.get("divergences", 0),
                    "unresolved_divergences": info.get(
                        "unresolved_divergences", 0
                    ),
                    "catchups": info.get("catchups", 0),
                    "bootstraps": replica.bootstraps,
                    "last_error": info.get("last_error"),
                }
            )
        return {
            "policy_epoch": self.policy_epoch,
            "shards": self.n_shards,
            "replica_divergence": self.health.unresolved_divergences(),
            "replicas": replicas,
        }

    # -- scatter-gather execution -----------------------------------------

    def run_plan(
        self,
        plan: ops.Operator,
        session: Optional[SessionContext] = None,
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
        optimize: bool = True,
        compile_cache=None,
    ) -> Result:
        session = session or SessionContext()
        engine = engine or self.default_engine
        if engine not in ENGINES:
            raise ExecutionError(
                f"unknown execution engine {engine!r} (expected one of {ENGINES})"
            )
        if optimize:
            from repro.algebra.rewrite import push_selections

            plan = push_selections(plan)
        scattered = self._scatter_aggregate(
            plan, session, access_params, engine, ctx, compile_cache
        )
        if scattered is not None:
            return scattered
        return super().run_plan(
            plan,
            session,
            access_params,
            engine,
            ctx,
            optimize=False,
            compile_cache=compile_cache,
        )

    def _scatter_aggregate(
        self, plan, session, access_params, engine, ctx, compile_cache
    ) -> Optional[Result]:
        """Per-shard partial aggregation with a coordinator merge.

        Handles plans of shape ``[Project/Alias]* → Aggregate(scalar,
        decomposable) → fragment-safe subtree over one partitioned
        relation``; returns None (→ merged-facade fallback) otherwise.
        """
        wrappers = []
        node = plan
        while isinstance(node, (ops.Project, ops.Alias)):
            wrappers.append(node)
            node = node.child
        if not isinstance(node, ops.Aggregate):
            return None
        if not decomposable_aggregate(node):
            return None
        if not fragment_safe_subtree(node.child):
            return None
        leaf = node.child
        while not isinstance(leaf, ops.Rel):
            leaf = leaf.child
        table = self._tables.get(leaf.name.lower())
        if not isinstance(table, PartitionedTable):
            return None
        if not exact_merge_aggregates(node, leaf, table.schema):
            return None

        per_node = [
            storage_node.partial_aggregate(
                self, node, session, access_params, engine, ctx, compile_cache
            )
            for storage_node in self.nodes
        ]
        COUNTERS.bump("cluster.scatter")
        row = tuple(
            merge_partials(call, [partials[i] for partials in per_node])
            for i, (call, _) in enumerate(node.aggregates)
        )

        # re-apply the wrapper chain (innermost first) on the merged row
        columns = node.columns
        for wrapper in reversed(wrappers):
            if isinstance(wrapper, ops.Alias):
                columns = wrapper.columns
                continue
            evaluator = Evaluator(RowResolver(columns))
            row = tuple(
                evaluator.evaluate(expr, row) for expr, _ in wrapper.exprs
            )
            columns = wrapper.columns
        return Result(tuple(c.name for c in plan.columns), [row])
