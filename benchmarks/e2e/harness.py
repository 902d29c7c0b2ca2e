"""Shared machinery of the E22 benchmark: the server subprocess, the
closed-loop client, the oracle, per-round statistics and regime checks.

Protocol (see README.md): one blocking ``ReproClient`` per user, ONE
request in flight at any time, rounds of a fixed request list, every
reported value computed on the pooled requests of the quietest rounds.
"""

from __future__ import annotations

import gc
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.db import Database
from repro.errors import QueryRejectedError, ReproError
from repro.net.client import ReproClient

from workloads import Request, Workload, build_database

HERE = pathlib.Path(__file__).resolve().parent
#: scratch space inside the checkout (durable data_dirs, trace.json)
WORK_DIR = HERE / ".work"

#: CPUs this process may use, read before anything pins itself
_CPUS = sorted(os.sched_getaffinity(0))


class RegimeError(Exception):
    """The run left the regime its workload exists to measure (or the
    server disclosed rows it must not): no numbers are reported."""


# -- statistics ---------------------------------------------------------


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = (len(sorted_values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def summary(values: Iterable[float]) -> dict:
    """Median and quartiles of per-round (or per-set-up) values."""
    ordered = sorted(values)
    return {
        "median": percentile(ordered, 50),
        "q1": percentile(ordered, 25),
        "q3": percentile(ordered, 75),
        "n": len(ordered),
    }


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python kernel: tells a slow host
    from a slow commit (moves with the host, never with ``src/``)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


# -- server subprocess --------------------------------------------------


def _pin_to_last_cpu() -> None:
    os.sched_setaffinity(0, {_CPUS[-1]})


class ServerProcess:
    """``server.py`` running the workload's fixture on a loopback port."""

    def __init__(self, workload: Workload):
        self.data_dir: Optional[pathlib.Path] = None
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--workload",
            workload.name,
            "--students",
            str(workload.students),
        ]
        if workload.durable:
            WORK_DIR.mkdir(exist_ok=True)
            self.data_dir = WORK_DIR / f"data-{os.getpid()}-{time.monotonic_ns()}"
            command += ["--data-dir", str(self.data_dir)]
        # generator on the first CPU, server (all its threads) on the last:
        # the scheduler migrating three busy threads over two cores was
        # worth 30 % of throughput and most of its run-to-run spread
        pin = None
        if len(_CPUS) > 1:
            os.sched_setaffinity(0, {_CPUS[0]})
            pin = _pin_to_last_cpu
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=pin,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server failed to start (said {line!r})")
        self.port = int(line.split()[1])
        self.pid = self.proc.pid

    def cpu_seconds(self) -> float:
        """CPU time of the server process (all its threads).

        Read from the pid's CPU-time clock (the id is the kernel's
        ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``): nanosecond
        resolution, where ``/proc/<pid>/stat`` counts 10 ms ticks — 3 % of
        a short round.
        """
        return time.clock_gettime(((~self.pid) << 3) | 2)

    def rss_high_water_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<pid>/status")

    def stop(self) -> None:
        """Close stdin (the server's stop signal) and wait for exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


# -- oracle --------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    status: str
    columns: tuple = ()
    rows: tuple = ()
    rowcount: Optional[int] = None


class Oracle:
    """An identical fixture in the benchmark process: every wire response
    is compared with ``Database.execute_query`` (``Connection.execute``
    for writes) under the same user and mode."""

    def __init__(self, workload: Workload, db: Optional[Database] = None):
        self.db = db if db is not None else build_database(workload)
        self._sessions: dict = {}
        self._memo: dict = {}

    def _connection(self, user: str, mode: str):
        key = (user, mode)
        if key not in self._sessions:
            self._sessions[key] = self.db.connect(user_id=user, mode=mode)
        return self._sessions[key]

    def _evaluate(self, request: Request) -> Expected:
        conn = self._connection(request.user, request.mode)
        try:
            if request.write:
                return Expected("ok", rowcount=conn.execute(request.sql))
            result = self.db.execute_query(
                request.sql, session=conn.session, mode=request.mode
            )
        except QueryRejectedError:
            return Expected("rejected")
        return Expected("ok", tuple(result.columns), tuple(result.rows))

    def expectations(self, round_: list[Request]) -> list[Expected]:
        """Expected outcome per position, replaying writes in order.

        Reads are memoised between writes: a hot round asks the same
        question hundreds of times.
        """
        out = []
        for request in round_:
            if request.write:
                self._memo.clear()
                out.append(self._evaluate(request))
                continue
            key = (request.user, request.mode, request.sql)
            if key not in self._memo:
                self._memo[key] = self._evaluate(request)
            out.append(self._memo[key])
        return out


def check_expectations(round_: list[Request], expected: list[Expected]) -> None:
    """The generator's own labels must agree with the oracle."""
    for request, want in zip(round_, expected):
        if request.expect != want.status:
            raise RegimeError(
                f"workload bug: {request.sql!r} as {request.user} is labelled "
                f"{request.expect} but the oracle says {want.status}"
            )


# -- the closed loop ------------------------------------------------------


@dataclass
class RoundResult:
    latencies_ms: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    stats_delta: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ms) / 1000.0


class ClosedLoop:
    """One connection per user, one request in flight."""

    def __init__(self, server: ServerProcess, users: Iterable[str]):
        self.server = server
        self.clients = {
            user: ReproClient("127.0.0.1", server.port, user=user, mode="non-truman")
            for user in sorted(set(users))
        }
        self._any = next(iter(self.clients.values()))

    def stats(self) -> dict:
        return self._any.stats()

    def close(self) -> None:
        for client in self.clients.values():
            client.close()

    def run_round(
        self, round_: list[Request], expected: list[Expected]
    ) -> RoundResult:
        """Issue the round; time each request from send to last frame;
        compare every response with the oracle (outside the timed span)."""
        out = RoundResult()
        before = self.stats()
        cpu_before = self.server.cpu_seconds()
        for request, want in zip(round_, expected):
            client = self.clients[request.user]
            options = {} if request.mode == client.mode else {"mode": request.mode}
            result = None
            start = time.perf_counter()
            try:
                result = client.query(request.sql, **options)
                status = "ok"
            except QueryRejectedError:
                status = "rejected"
            except ReproError as exc:
                status = f"error: {exc}"
            elapsed = time.perf_counter() - start
            out.latencies_ms.append(elapsed * 1000.0)
            out.classes.append(request.cls)
            problem = _compare(request, want, status, result)
            if problem is not None:
                out.failures.append(problem)
        out.cpu_s = self.server.cpu_seconds() - cpu_before
        after = self.stats()
        out.stats_delta = {
            key: after[key] - before.get(key, 0)
            for key, value in after.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        return out


def measure(
    loop: ClosedLoop,
    workload: Workload,
    oracle: Oracle,
    rounds: Iterable[list[Request]],
    seconds: float,
    min_rounds: int,
    calibrations: Optional[list[float]] = None,
) -> tuple[list[list[Request]], list[RoundResult]]:
    """Run whole rounds until ``seconds`` of wall time are used (at least
    ``min_rounds``), checking the regime after each; returns the rounds
    issued and their results."""
    issued: list[list[Request]] = []
    results: list[RoundResult] = []
    expected: Optional[list[Expected]] = None
    baseline = registered_counts(loop) if workload.durable else None
    began = time.perf_counter()
    for round_ in rounds:
        if len(results) >= min_rounds and time.perf_counter() - began >= seconds:
            break
        if expected is None or not workload.repeats:
            # a repeating round is state-neutral: one replay serves them all
            expected = oracle.expectations(round_)
            check_expectations(round_, expected)
        if calibrations is not None:
            calibrations.append(calibrate())
        quiesce_gc()
        result = loop.run_round(round_, expected)
        check_regime(workload, round_, result)
        if baseline is not None and registered_counts(loop) != baseline:
            raise RegimeError(f"{workload.name} round did not restore Registered")
        issued.append(round_)
        results.append(result)
    return issued, results


def _compare(request: Request, want: Expected, status: str, result) -> Optional[str]:
    where = f"{request.cls} as {request.user}/{request.mode}: {request.sql!r}"
    if want.status == "rejected" and status == "ok":
        raise RegimeError(
            f"POLICY VIOLATION: {where} must be rejected but returned "
            f"{len(result.rows)} row(s)"
        )
    if status != want.status:
        return f"{where}: status {status}, expected {want.status}"
    if status != "ok":
        return None
    if request.write:
        if result.rowcount != want.rowcount:
            return f"{where}: rowcount {result.rowcount}, expected {want.rowcount}"
        return None
    if tuple(result.columns) != want.columns:
        return f"{where}: columns {result.columns}, expected {want.columns}"
    if len(result.rows) != len(want.rows) or tuple(result.rows) != want.rows:
        return (
            f"{where}: {len(result.rows)} row(s) differ from the oracle's "
            f"{len(want.rows)}"
        )
    return None


#: share of the rounds (the fastest ones) the reported values pool
QUIET_SHARE = 0.1


def quiet_rounds(results: list[RoundResult]) -> list[RoundResult]:
    """The fastest tenth of the rounds (at least two).

    Every round has the same composition, so rounds differ only by what
    else the host was doing.  On a shared host that interference is
    one-sided (it only ever slows a round) and present most of the time,
    which makes the median of rounds drift with the neighbours; the
    fastest rounds do not.
    """
    ranked = sorted(results, key=lambda r: r.busy_s / len(r.latencies_ms))
    return ranked[: max(2, round(len(ranked) * QUIET_SHARE))]


def quiet_summaries(results: list[RoundResult]) -> dict:
    """The four per-request metrics, each computed on the pooled requests
    of the quiet rounds; quartiles over *all* rounds ride beside it."""
    quiet = quiet_rounds(results)
    pooled = sorted(value for r in quiet for value in r.latencies_ms)
    n = len(pooled)
    values = {
        "throughput_rps": n / sum(r.busy_s for r in quiet),
        "latency_p50_ms": percentile(pooled, 50),
        "latency_p90_ms": percentile(pooled, 90),
        "server_cpu_ms_per_req": sum(r.cpu_s for r in quiet) * 1000.0 / n,
    }
    ordered = [sorted(r.latencies_ms) for r in results]
    per_round = {
        "throughput_rps": [len(r.latencies_ms) / r.busy_s for r in results],
        "latency_p50_ms": [percentile(values, 50) for values in ordered],
        "latency_p90_ms": [percentile(values, 90) for values in ordered],
        "server_cpu_ms_per_req": [
            r.cpu_s * 1000.0 / len(r.latencies_ms) for r in results
        ],
    }
    out = {}
    for name, value in values.items():
        out[name] = summary(per_round[name])
        out[name]["value"] = value
        out[name]["pooled_requests"] = n
    return out


# -- regime self-checks ---------------------------------------------------


def hit_ratio(delta: dict, hits: str, misses: str) -> float:
    total = delta.get(hits, 0) + delta.get(misses, 0)
    return delta.get(hits, 0) / total if total else 0.0


def check_regime(workload: Workload, round_: list[Request], result: RoundResult) -> None:
    """Fail the run rather than report numbers from the wrong regime."""
    delta = result.stats_delta
    template = hit_ratio(delta, "prepared_hits", "prepared_misses")
    validity = hit_ratio(delta, "cache_hits", "cache_misses")
    if workload.regime == "hot" and (
        template < 0.99 or validity < 0.99 or delta.get("cache_misses", 0)
    ):
        raise RegimeError(
            f"{workload.name} is not hot: template {template:.3f}, validity "
            f"{validity:.3f}, validity misses {delta.get('cache_misses')}"
        )
    if workload.regime == "cold" and (template > 0.02 or validity > 0.02):
        raise RegimeError(
            f"{workload.name} is not cold: template {template:.3f}, "
            f"validity {validity:.3f}"
        )
    if workload.durable:
        writes = sum(1 for request in round_ if request.write)
        if delta.get("wal_fsyncs", 0) != 0:
            raise RegimeError(f"{workload.name} fsynced {delta['wal_fsyncs']} time(s)")
        if delta.get("data_version_registered") != writes:
            raise RegimeError(
                f"{workload.name} applied {delta.get('data_version_registered')} "
                f"row changes to Registered, expected {writes}"
            )
    if workload.shards and delta.get("replica_reads", 0) != 0:
        raise RegimeError(f"{workload.name} was served by a replica")


def check_placement(classes: list[str], latencies_ms: list[float]) -> dict:
    """The percentile-placement rule.

    Sort classes by their p50; neither the 50th nor the 90th percentile
    of the whole mix may lie within 10 points of a boundary between
    classes whose p50 differ by more than 1.5x — otherwise p50 / p90
    would flip between two populations from run to run (what made PR
    11's p95 on mixed_rw unrepeatable).  Returns the per-class p50s.
    """
    by_class: dict[str, list[float]] = {}
    for cls, value in zip(classes, latencies_ms):
        by_class.setdefault(cls, []).append(value)
    p50 = {cls: percentile(sorted(v), 50) for cls, v in by_class.items()}
    ordered = sorted(p50, key=p50.get)
    cumulative = 0.0
    for faster, slower in zip(ordered, ordered[1:]):
        cumulative += 100.0 * len(by_class[faster]) / len(classes)
        if p50[slower] <= 1.5 * p50[faster]:
            continue
        for pct in (50, 90):
            if abs(pct - cumulative) < 10 - 1e-9:
                table = ", ".join(
                    f"{c} {p50[c]:.3f} ms x{len(by_class[c])}" for c in ordered
                )
                raise RegimeError(
                    f"p{pct} lies {abs(pct - cumulative):.1f} points from the "
                    f"boundary between {faster} and {slower} at the "
                    f"{cumulative:.1f}th percentile ({table})"
                )
    return p50


def registered_counts(loop: ClosedLoop) -> dict[str, int]:
    """Each session's own row count in Registered, asked over the wire."""
    return {
        user: client.query(
            f"select count(*) from Registered where student_id = '{user}'"
        ).rows[0][0]
        for user, client in loop.clients.items()
    }


def quiesce_gc() -> None:
    """Collect now, then keep the collector out of the timed loop (the
    benchmark process only; the server runs as ``repro serve`` would)."""
    gc.enable()
    gc.collect()
    gc.disable()
