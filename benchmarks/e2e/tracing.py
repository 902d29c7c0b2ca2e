"""The per-layer traced run (``--trace 1``).

Two halves, both on the seed's first measured round:

* a **wire** phase against the server subprocess — wire latency, the
  ``client.*`` diagnostics and every count the server exports through
  ``client.stats()`` (frames, rows, hit ratios, evictions, WAL);
* an **in-process** replay of the same list through this process's own
  ``EnforcementGateway``: request codec -> ``gateway.execute`` -> result
  frames -> ``FrameDecoder``, first untraced, then with spans recorded
  *by this file* around the public calls of each layer (nothing in
  ``src/`` is edited; the wrappers are installed for the traced passes
  only).  A layer's self time is its spans minus their child spans.

Every ``*_us`` metric is microseconds per request of the replayed list
(span time / requests), so the values of one workload add up; counts are
per request or per write.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import shutil
import statistics
import sys
import time
from typing import Callable, Optional

import repro.db
import repro.prepared.pipeline
import repro.service.gateway
import repro.truman.rewrite
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import PartitionedTable
from repro.cluster.storage_node import StorageNode
from repro.db import Connection, Database
from repro.durability.wal import WalWriter
from repro.instrument import COUNTERS
from repro.net.protocol import (
    HEADER,
    FrameDecoder,
    code_for_status,
    decision_to_wire,
    decode_payload,
    encode_frame,
    encode_payload,
    iter_result_frames,
    rows_to_tuples,
)
from repro.prepared.template import PlanBinder
from repro.service import EnforcementGateway, QueryRequest
from repro.service.audit import AuditLog
from repro.service.request import QueryResponse, RequestStatus, Timing

import harness
from workloads import PROTOCOL, Request, Workload, build_database, plan_rounds

#: share of ``--seconds`` given to the wire phase and to the alternating
#: untraced / traced in-process replays
WIRE_SHARE = 0.3
REPLAY_SHARE = 0.3
#: wire rounds always run; the counts come from the last of them, by
#: which time portal_cold has filled the 256-template cache
WIRE_ROUNDS = 4
#: portal_cold rounds reserved per phase
PHASE_ROUNDS = 19
MAX_OVERHEAD = 0.15

CLASSES = (
    "own_grades", "own_above", "own_avg", "own_regs", "courses", "costudent",
    "rejected", "own", "truman", "write_insert", "write_delete", "report_top",
    "report_join", "report_full", "point_read", "scatter_agg", "merge_scan",
)  # fmt: skip

UNITS = {
    "host.calib_ms": "ms",
    "host.calib_spread": "ratio",
    "net.wire_overhead_us": "us",
    "net.request_codec_us": "us",
    "net.bytes_per_req": "B",
    "net.frames_per_req": "count",
    "net.rows_per_req": "count",
    "net.protocol.encode_result_us": "us",
    "net.protocol.decode_result_us": "us",
    "service.gateway.self_us": "us",
    "service.gateway.queue_us": "us",
    "service.gateway.validity_cache_hit_ratio": "ratio",
    "service.gateway.cache_invalidations_per_write": "count",
    "prepared.signature_us": "us",
    "prepared.bind_us": "us",
    "prepared.build_us": "us",
    "prepared.template_hit_ratio": "ratio",
    "prepared.evictions_per_req": "count",
    "prepared.invalidations_per_write": "count",
    "sql.parse_us": "us",
    "nontruman.check_us": "us",
    "nontruman.reject_us": "us",
    "nontruman.checks_per_req": "count",
    "truman.rewrite_us": "us",
    "algebra.plan_us": "us",
    "algebra.plans_per_req": "count",
    "engine.row.execute_us": "us",
    "engine.vectorized.execute_us": "us",
    "engine.rows_out_per_req": "count",
    "engine.compiles_per_req": "count",
    "updates.write_us": "us",
    "durability.wal_bytes_per_write": "B",
    "durability.wal_records_per_write": "count",
    "durability.wal_fsyncs_per_write": "count",
    "cluster.point_read_us": "us",
    "cluster.scatter_aggregate_us": "us",
    "cluster.merge_scan_us": "us",
    "cluster.scatters_per_req": "count",
    "cluster.pruned_share": "ratio",
    "cluster.vs_single_node_ratio": "ratio",
    "cluster.replica.route_us": "us",
    "cluster.replica.read_us": "us",
    "client.latency_p99_ms": "ms",
    **{f"client.class.{cls}.p50_ms": "ms" for cls in CLASSES},
    "trace.overhead_share": "ratio",
}


# -- spans ---------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    One request is in flight at a time and the caller blocks while a
    gateway worker runs it, so ONE stack serves both threads: a span
    opened on the worker nests under the ``gateway.execute`` span the
    caller holds open.
    """

    def __init__(self):
        #: [name, start, end, parent index, request index, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[5] = note(result)
                return result

        return traced

    def reset(self) -> None:
        self.spans = []
        self._stack = []


#: (owner, attribute, span name, note taken from the return value)
PATCHES = (
    (repro.service.gateway, "parse_statement", "sql.parse", None),
    (repro.db, "parse_statement", "sql.parse", None),
    (repro.prepared.pipeline, "parse_statement", "sql.parse", None),
    (repro.service.gateway, "resolve_signature", "prepared.signature", None),
    (repro.service.gateway, "get_or_build_template", "prepared.template", lambda r: r[1]),
    (PlanBinder, "bind", "prepared.bind", None),
    (Database, "check_validity", "nontruman.check", lambda d: d.valid),
    (repro.truman.rewrite, "truman_rewrite", "truman.rewrite", None),
    (Database, "plan_query", "algebra.plan", None),
    (Database, "plan_template", "algebra.plan", None),
    (Database, "run_plan", "engine.run_plan", None),
    (StorageNode, "partial_aggregate", "engine.partial_aggregate", None),
    (ClusterCoordinator, "run_plan", "cluster.run_plan", None),
    (PartitionedTable, "prune_for", "cluster.prune", lambda f: f is not None),
    (Connection, "execute", "updates.write", None),
    (WalWriter, "append", "durability.wal.append", None),
    (AuditLog, "record", "service.audit", None),
)  # fmt: skip


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public calls with spans; restore them on exit."""
    originals = []
    try:
        for owner, attribute, name, note in PATCHES:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, note))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def layer_of(span_name: str) -> str:
    """Module-level layer a span's self time is charged to."""
    if span_name.startswith("net.protocol."):
        return "net.protocol"
    if span_name.startswith("service."):
        return "service.gateway"
    return span_name.split(".")[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


# -- the in-process replay -------------------------------------------------


def encode_response(request_id: int, response: QueryResponse) -> list[bytes]:
    """The frames ``ReproServer`` sends for ``response`` (same protocol
    functions, same field set)."""
    tail = {
        "retries": response.retries,
        "timing": response.timing.as_dict(),
        "decision": decision_to_wire(response.decision),
    }
    if response.status is not RequestStatus.OK:
        return [
            encode_frame(
                {
                    "type": "error",
                    "id": request_id,
                    "code": code_for_status(response.status.value),
                    "message": response.error or response.status.value,
                    **tail,
                }
            )
        ]
    frames = []
    columns: list[str] = []
    if response.result is not None:
        columns = list(response.result.columns)
        frames = [
            encode_frame(frame)
            for frame in iter_result_frames(request_id, response.result.rows)
        ]
    frames.append(
        encode_frame(
            {
                "type": "result",
                "id": request_id,
                "status": "ok",
                "columns": columns,
                "row_frames": len(frames),
                "rowcount": response.rowcount,
                "cache_hit": response.cache_hit,
                **tail,
            }
        )
    )
    return frames


_ZERO_TIMING_BYTES = len(encode_payload(Timing().as_dict()))


@dataclasses.dataclass
class Pass:
    """One replay of a round through the in-process stack."""

    total_s: float = 0.0
    execute_s: float = 0.0
    #: execute wall minus Timing.parse_s/check_s/execute_s, and queue_s
    gateway_self_s: float = 0.0
    queue_s: float = 0.0
    bytes: int = 0
    rows_out: int = 0
    round_: list = dataclasses.field(default_factory=list)
    counters: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    statuses: list = dataclasses.field(default_factory=list)


def replay(
    gateway: EnforcementGateway,
    round_: list[Request],
    tracer: Optional[Tracer] = None,
    engine: Optional[str] = None,
) -> Pass:
    """client encode -> server decode -> gateway.execute -> result frames
    -> client decode, for every request of ``round_`` in order."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    if tracer is not None:
        tracer.reset()
    out = Pass(round_=round_)
    decoder = FrameDecoder()
    before = COUNTERS.snapshot()
    harness.quiesce_gc()
    for index, request in enumerate(round_):
        if tracer is not None:
            tracer.request = index
        started = time.perf_counter()
        with span("bench.request"):
            with span("net.request_codec"):
                message = {"type": "query", "id": index, "sql": request.sql}
                if request.mode != "non-truman":
                    message["mode"] = request.mode
                frame = encode_frame(message)
                message = decode_payload(frame[HEADER.size :])
            execute_started = time.perf_counter()
            with span("service.gateway.execute"):
                response = gateway.execute(
                    QueryRequest(
                        user=request.user,
                        sql=message["sql"],
                        mode=message.get("mode", "non-truman"),
                        engine=engine,
                    )
                )
            execute_s = time.perf_counter() - execute_started
            with span("net.protocol.encode_result"):
                frames = encode_response(index, response)
            with span("net.protocol.decode_result"):
                rows: list[tuple] = []
                for reply in decoder.feed(b"".join(frames)):
                    if reply["type"] == "row_batch":
                        rows.extend(rows_to_tuples(reply["rows"]))
        out.total_s += time.perf_counter() - started
        out.execute_s += execute_s
        timing = response.timing
        out.gateway_self_s += execute_s - timing.parse_s - timing.check_s - timing.execute_s
        out.queue_s += timing.queue_s
        # the five timing floats print at run-dependent lengths; count them
        # as 0.0 so that bytes per request repeats exactly
        out.bytes += len(frame) + sum(len(f) for f in frames) + _ZERO_TIMING_BYTES
        out.bytes -= len(encode_payload(timing.as_dict()))
        out.rows_out += len(rows)
        out.statuses.append(response.status.value)
    out.counters = COUNTERS.delta_since(before)
    if tracer is not None:
        out.spans = tracer.spans
    return out


def paired_passes(
    gateway: EnforcementGateway,
    plain_rounds,
    traced_rounds,
    tracer: Tracer,
    budget_s: float,
    calibrations: list,
) -> tuple[Pass, Pass, Pass]:
    """Alternate untraced and traced replays; returns ``(first untraced,
    fastest untraced, fastest traced)``.

    Counts come from the first pass (always the same round, so they
    repeat exactly); times from the fastest of each kind, because
    interference only ever slows a pass down — and alternating lets both
    kinds see the same host.  At least two pairs; pairs continue past
    ``budget_s`` (up to three times it) while the fastest traced pass is
    still more than MAX_OVERHEAD slower than the fastest untraced one.
    """
    first = plain = traced = None
    began = time.perf_counter()
    for pairs, (plain_round, traced_round) in enumerate(zip(plain_rounds, traced_rounds)):
        elapsed = time.perf_counter() - began
        settled = pairs >= 2 and traced.total_s <= plain.total_s * (1 + MAX_OVERHEAD)
        if pairs >= 2 and elapsed >= (budget_s if settled else 3 * budget_s):
            break
        calibrations.append(harness.calibrate())
        current = replay(gateway, plain_round)
        first = first or current
        plain = min(plain or current, current, key=lambda p: p.total_s)
        with installed(tracer):
            current = replay(gateway, traced_round, tracer)
        traced = min(traced or current, current, key=lambda p: p.total_s)
    return first, plain, traced


# -- the traced run --------------------------------------------------------


def wire_metrics(counted: list[Request], delta: dict, results: list) -> dict:
    """Counts from ``client.stats()`` deltas over one round (``counted``,
    always the same round, so they repeat exactly) and the ``client.*``
    diagnostics from the quiet rounds."""
    n = len(counted)
    writes = sum(1 for request in counted if request.write)
    out = {
        # the round's first stats() reply is itself one frame inside the delta
        "net.frames_per_req": (delta["frames_sent"] - 1) / n,
        "net.rows_per_req": delta["net_rows_streamed"] / n,
        "service.gateway.validity_cache_hit_ratio": harness.hit_ratio(
            delta, "cache_hits", "cache_misses"
        ),
        "prepared.template_hit_ratio": harness.hit_ratio(
            delta, "prepared_hits", "prepared_misses"
        ),
        "prepared.evictions_per_req": delta["prepared_evictions"] / n,
    }
    if writes:
        # after warm-up every validity miss is a decision a write retired
        out["service.gateway.cache_invalidations_per_write"] = delta["cache_misses"] / writes
        out["prepared.invalidations_per_write"] = delta["prepared_invalidations"] / writes
        out["durability.wal_bytes_per_write"] = delta["wal_bytes"] / writes
        out["durability.wal_records_per_write"] = delta["wal_records"] / writes
        out["durability.wal_fsyncs_per_write"] = delta["wal_fsyncs"] / writes
    quiet = harness.quiet_rounds(results)
    pooled = sorted(value for r in quiet for value in r.latencies_ms)
    out["client.latency_p99_ms"] = harness.percentile(pooled, 99)
    by_class: dict[str, list[float]] = {}
    for result in quiet:
        for cls, value in zip(result.classes, result.latencies_ms):
            by_class.setdefault(cls, []).append(value)
    for cls, values in by_class.items():
        out[f"client.class.{cls}.p50_ms"] = harness.percentile(sorted(values), 50)
    # net.wire_overhead_us is this minus the in-process gateway.execute time
    out["net.wire_overhead_us"] = sum(pooled) * 1000.0 / len(pooled)
    return out


def _span_us(spans, n, name, keep=lambda span: True) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name and keep(s)) * 1e6 / n


def replay_metrics(counts: Pass, untraced: Pass, traced: Pass, vectorized: Pass) -> dict:
    """Per-layer metrics of the in-process replay (see module docstring)."""
    n = len(counts.round_)
    spans = traced.spans
    out = {
        "net.bytes_per_req": counts.bytes / n,
        "service.gateway.self_us": untraced.gateway_self_s * 1e6 / n,
        "service.gateway.queue_us": untraced.queue_s * 1e6 / n,
        "nontruman.checks_per_req": counts.counters.get("validity.check", 0) / n,
        "algebra.plans_per_req": (
            counts.counters.get("plan.build", 0) + counts.counters.get("plan.push", 0)
        )
        / n,
        "engine.rows_out_per_req": counts.rows_out / n,
        "engine.compiles_per_req": vectorized.counters.get("engine.compile", 0) / n,
        "cluster.scatters_per_req": counts.counters.get("cluster.scatter", 0) / n,
        "trace.overhead_share": traced.total_s / untraced.total_s - 1.0,
        "prepared.build_us": _span_us(spans, n, "prepared.template", lambda s: s[5] is False),
        "nontruman.check_us": _span_us(spans, n, "nontruman.check", lambda s: s[5]),
        "nontruman.reject_us": _span_us(spans, n, "nontruman.check", lambda s: s[5] is False),
    }
    for metric, span_name in (
        ("net.request_codec_us", "net.request_codec"),
        ("net.protocol.encode_result_us", "net.protocol.encode_result"),
        ("net.protocol.decode_result_us", "net.protocol.decode_result"),
        ("prepared.signature_us", "prepared.signature"),
        ("prepared.bind_us", "prepared.bind"),
        ("sql.parse_us", "sql.parse"),
        ("truman.rewrite_us", "truman.rewrite"),
        ("algebra.plan_us", "algebra.plan"),
        ("updates.write_us", "updates.write"),
    ):
        out[metric] = _span_us(spans, n, span_name)
    for label, source in (("row", spans), ("vectorized", vectorized.spans)):
        out[f"engine.{label}.execute_us"] = _span_us(
            source, n, "engine.run_plan"
        ) + _span_us(source, n, "engine.partial_aggregate")
    cls_of = [request.cls for request in traced.round_]
    for cls, metric in (
        ("point_read", "cluster.point_read_us"),
        ("scatter_agg", "cluster.scatter_aggregate_us"),
        ("merge_scan", "cluster.merge_scan_us"),
    ):
        out[metric] = _span_us(
            spans, n, "cluster.run_plan", lambda s, cls=cls: cls_of[s[4]] == cls
        )
    pruned = {s[4] for s in spans if s[0] == "cluster.prune" and s[5]}
    out["cluster.pruned_share"] = len(pruned) / n
    return out


def cluster_extras(db, single: Database, rounds, untraced: Pass) -> dict:
    """Cluster-only comparisons: the same list on a plain Database, and the
    replica path that ``replicas=0`` keeps out of the measured run."""
    out = {}
    gateway = EnforcementGateway(single)
    try:
        replay(gateway, rounds[0])
        single_pass = replay(gateway, rounds[1])
    finally:
        gateway.shutdown(drain=True)
    out["cluster.vs_single_node_ratio"] = untraced.total_s / single_pass.total_s

    # last, because a coordinator with a replica routes every read to it
    replica = db.add_replica()
    started = time.perf_counter()
    routes = 2000
    for _ in range(routes):
        db.verify_replica_serving(db.route_read())
    out["cluster.replica.route_us"] = (time.perf_counter() - started) * 1e6 / routes
    reads = list(
        dict.fromkeys(request for request in rounds[1] if request.cls == "point_read")
    )
    sessions = {
        request.user: db.connect(user_id=request.user, mode="non-truman").session
        for request in reads
    }

    def read_all() -> float:
        began = time.perf_counter()
        for request in reads:
            with replica.read_lock():
                replica.database.execute_query(
                    request.sql, session=sessions[request.user], mode="non-truman"
                )
        return time.perf_counter() - began

    read_all()  # builds the replica's own templates
    out["cluster.replica.read_us"] = read_all() * 1e6 / len(reads)
    return out


def layer_self_us(spans: list[list], n: int) -> dict[str, float]:
    layers: dict[str, float] = {}
    for span, value in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        layers[layer] = layers.get(layer, 0.0) + value * 1e6 / n
    return layers


def write_trace(path, workload: Workload, seed: int, traced: Pass, layers: dict) -> None:
    origin = traced.spans[0][1]
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "requests": len(traced.round_),
                "layer_self_us_per_req": layers,
                "spans": [
                    {
                        "name": s[0],
                        "start_us": (s[1] - origin) * 1e6,
                        "end_us": (s[2] - origin) * 1e6,
                        "parent": s[3],
                        "request": s[4],
                    }
                    for s in traced.spans
                ],
            }
        )
    )


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    harness.WORK_DIR.mkdir(exist_ok=True)
    data_dir = None
    if workload.durable:
        data_dir = harness.WORK_DIR / f"trace-data-{time.monotonic_ns()}"
    db = build_database(workload, str(data_dir) if data_dir else None)
    single = db
    if workload.shards:
        single = build_database(dataclasses.replace(workload, shards=0))
    oracle = harness.Oracle(workload, db=single)
    rounds = plan_rounds(workload, single, seed)
    users = {request.user for round_ in rounds for request in round_}

    def rounds_from(start: int):
        """The first measured round again and again — or, on portal_cold,
        never-seen keys (same class counts) from a fixed offset, so that
        each phase replays the same rounds whatever the others consumed."""
        if workload.repeats:
            return itertools.repeat(rounds[1])
        return iter(rounds[start : start + PHASE_ROUNDS])

    calibrations: list[float] = []
    metrics = dict.fromkeys(UNITS, 0.0)

    # -- wire phase ------------------------------------------------------
    warm_expected = oracle.expectations(rounds[0])
    harness.check_expectations(rounds[0], warm_expected)
    server = harness.ServerProcess(workload)
    try:
        loop = harness.ClosedLoop(server, users)
        try:
            failures = loop.run_round(rounds[0], warm_expected).failures
            issued, results = harness.measure(
                loop,
                workload,
                oracle,
                rounds_from(1),
                seconds * WIRE_SHARE,
                WIRE_ROUNDS,
                calibrations,
            )
        finally:
            loop.close()
    finally:
        server.stop()
    for result in results:
        failures.extend(result.failures)
    counted = WIRE_ROUNDS - 1
    metrics.update(wire_metrics(issued[counted], results[counted].stats_delta, results))

    # -- in-process phase ------------------------------------------------
    tracer = Tracer()
    gateway = EnforcementGateway(db)
    try:
        replay(gateway, rounds[0])  # warm this process's caches
        counts, untraced, traced = paired_passes(
            gateway,
            rounds_from(1 + PHASE_ROUNDS),
            rounds_from(1 + 2 * PHASE_ROUNDS),
            tracer,
            seconds * REPLAY_SHARE,
            calibrations,
        )
        with installed(tracer):
            vector_rounds = rounds_from(1 + 3 * PHASE_ROUNDS)
            replay(gateway, next(vector_rounds), tracer, "vectorized")  # compiles kernels
            vectorized = replay(gateway, next(vector_rounds), tracer, "vectorized")
    finally:
        gateway.shutdown(drain=True)
    if set(counts.statuses) - {"ok", "rejected"}:
        failures.append(f"in-process replay statuses {set(counts.statuses)}")
    n = len(counts.round_)
    metrics.update(replay_metrics(counts, untraced, traced, vectorized))
    metrics["net.wire_overhead_us"] -= untraced.execute_s * 1e6 / n
    if workload.shards:
        metrics.update(cluster_extras(db, single, rounds, untraced))
    metrics["host.calib_ms"] = statistics.median(calibrations)
    q1, _, q3 = statistics.quantiles(calibrations, n=4)
    metrics["host.calib_spread"] = (q3 - q1) / metrics["host.calib_ms"]

    layers = layer_self_us(traced.spans, n)
    write_trace(
        harness.WORK_DIR / f"trace-{workload.name}.json", workload, seed, traced, layers
    )
    db.close(checkpoint=False)
    if data_dir is not None:
        shutil.rmtree(data_dir, ignore_errors=True)
    if metrics["trace.overhead_share"] > MAX_OVERHEAD:
        # reported, not fatal: on a shared host a noisy stretch can outlast
        # every retry, and a failed run would say nothing about the code
        print(
            f"warning: tracing cost {metrics['trace.overhead_share']:.1%} of the "
            f"untraced in-process latency (limit {MAX_OVERHEAD:.0%}); this run's "
            "layer self times are not trustworthy",
            file=sys.stderr,
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "protocol": PROTOCOL.strip(),
        "rounds": len(results),
        "requests_per_round": n,
        "attempted": sum(len(r.latencies_ms) for r in results),
        "failed": len(failures),
        "failures": failures[:10],
        "summaries": {name: {"value": value} for name, value in metrics.items()},
        "layer_self_us_per_req": layers,
        "untraced_us_per_req": untraced.total_s * 1e6 / n,
        "units": UNITS,
    }
