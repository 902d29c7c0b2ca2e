"""Interactive shell for exploring fine-grained access control.

Run with ``python -m repro`` (optionally ``--workload university`` or
``--workload bank``, and ``--script file.sql`` to preload a schema).
``python -m repro serve`` starts the network front end instead
(:mod:`repro.net`), and ``python -m repro --connect HOST:PORT`` runs
the shell as a remote client of such a server.

Statements ending in ``;`` are executed as SQL under the current
session and access-control mode.  SELECT statements are served through
the concurrent enforcement gateway (:mod:`repro.service`), so the shell
doubles as a single-user client of the same code path the service
exposes — ``\\stats`` shows the gateway's live metrics.  Meta-commands:

=================  ====================================================
``\\user ID``       reconnect as a different user
``\\mode M``        open | truman | non-truman | motro
``\\views``         list authorization views available to this session
``\\check SQL``     run only the validity check; print the decision,
                   rule trace, and witness plan
``\\explain SQL``   show the logical plan for a query; in non-truman
                   mode, also the decision trace — and, when a ReBAC
                   policy is attached, the relationship-tuple chains
                   that justify (or fail to justify) the access
``\\time T``        set the session's $time parameter (``\\time off``
                   clears it); compiled ReBAC views compare grant
                   expiry against it
``\\grant V U``     grant view V to user U (or PUBLIC)
``\\tables``        list base tables
``\\stats``         gateway metrics: requests, cache, breaker, latency
``\\replicas``      cluster replica health: state, lag, policy epoch,
                   heartbeat age, divergence counters (sharded
                   coordinators only)
``\\audit [N]``     last N audit-log records (default 10)
``\\save DIR``      attach durable storage: checkpoint this database
                   into DIR and WAL-log every later change
``\\open DIR``      switch to the durable database in DIR (recovers
                   from its latest snapshot + WAL tail)
``\\checkpoint``    snapshot all state and truncate the WAL
``\\wal-stats``     durability counters: records, fsyncs, LSNs
``\\reset``         discard the partially-entered statement buffer
``\\help``          this text
``\\quit``          exit
=================  ====================================================

``--data-dir DIR`` on the command line opens (or, combined with
``--workload``/``--script``, initializes) a durable database at DIR.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

from repro.db import Connection, Database, MODES
from repro.errors import ReproError
from repro.sql import parse_statement, ast


BANNER = """repro — fine-grained access control by query rewriting (SIGMOD 2004)
Type SQL terminated by ';', or \\help for meta-commands."""


class Shell:
    """A line-oriented REPL over one Database."""

    def __init__(self, db: Database, out: TextIO = sys.stdout,
                 gateway_workers: int = 2,
                 query_timeout: Optional[float] = 30.0):
        self.db = db
        self.out = out
        self.mode = "non-truman"
        self.user: Optional[str] = None
        #: session $time parameter (None = unset); see \time
        self.time: Optional[float] = None
        self.conn: Connection = db.connect(user_id=None, mode=self.mode)
        self.gateway_workers = gateway_workers
        #: default per-query deadline (seconds); None disables it
        self.query_timeout = query_timeout
        self._gateway = None
        self._buffer: list[str] = []

    # ------------------------------------------------------------------

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def reconnect(self) -> None:
        self.conn = self.db.connect(
            user_id=self.user, mode=self.mode, time=self.time
        )

    def session_params(self) -> dict:
        """The session-context parameters gateway requests carry."""
        return {} if self.time is None else {"time": self.time}

    def gateway(self):
        """The shell's enforcement gateway, started on first use."""
        if self._gateway is None:
            from repro.service import EnforcementGateway

            self._gateway = EnforcementGateway(
                self.db, workers=self.gateway_workers, name="shell-gateway",
                default_deadline=self.query_timeout,
            )
        return self._gateway

    def close(self) -> None:
        if self._gateway is not None:
            self._gateway.shutdown(drain=True)
            self._gateway = None

    # ------------------------------------------------------------------

    def run(self, lines) -> None:
        self.write(BANNER)
        self._prompt()
        try:
            for raw in lines:
                line = raw.rstrip("\n")
                if not self._feed(line):
                    break
                self._prompt()
        finally:
            self.close()

    def _prompt(self) -> None:
        user = self.user or "<anonymous>"
        self.out.write(f"{user}@{self.mode}> ")
        self.out.flush()

    def _feed(self, line: str) -> bool:
        """Process one input line; False means quit."""
        stripped = line.strip()
        if not stripped and not self._buffer:
            return True
        if stripped.startswith("\\"):
            if self._buffer and stripped.split(None, 1)[0].lower() != "\\reset":
                self.write(
                    f"error: cannot run meta-command {stripped.split()[0]} "
                    f"with a statement in progress ({len(self._buffer)} "
                    "buffered line(s)); finish it with ';' or discard it "
                    "with \\reset"
                )
                return True
            return self._meta(stripped)
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self._execute_sql(statement.rstrip("; \t\n"))
        return True

    # -- meta commands ------------------------------------------------------

    def _meta(self, command: str) -> bool:
        parts = command.split(None, 1)
        head = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if head in ("\\q", "\\quit", "\\exit"):
            self.write("bye")
            return False
        if head == "\\help":
            self.write(__doc__)
        elif head == "\\user":
            self.user = rest.strip() or None
            self.reconnect()
            self.write(f"connected as {self.user!r}")
        elif head == "\\mode":
            mode = rest.strip().lower()
            if mode not in MODES:
                self.write(
                    f"error: unknown mode {mode!r} "
                    f"(modes: {' | '.join(MODES)}); staying in {self.mode!r}"
                )
            else:
                self.mode = mode
                self.reconnect()
                self.write(f"access-control mode: {mode}")
        elif head == "\\views":
            self._list_views()
        elif head == "\\tables":
            for schema in self.db.catalog.tables():
                self.write(f"  {schema}")
        elif head == "\\grant":
            self._grant(rest)
        elif head == "\\check":
            self._check(rest)
        elif head == "\\explain":
            self._explain(rest)
        elif head == "\\time":
            self._set_time(rest)
        elif head == "\\stats":
            self.write(self.gateway().render_stats())
        elif head == "\\replicas":
            self._replicas()
        elif head == "\\audit":
            self._audit(rest)
        elif head == "\\save":
            self._save(rest)
        elif head == "\\open":
            self._open(rest)
        elif head == "\\checkpoint":
            self._checkpoint()
        elif head == "\\wal-stats":
            self._wal_stats()
        elif head == "\\reset":
            discarded = len(self._buffer)
            self._buffer = []
            self.write(f"input buffer cleared ({discarded} line(s) discarded)")
        else:
            self.write(f"unknown meta-command {head!r}; try \\help")
        return True

    def _list_views(self) -> None:
        available = {
            v.name for v in self.db.available_views(self.conn.session)
        }
        any_views = False
        for view in self.db.catalog.views():
            if not view.authorization:
                continue
            any_views = True
            mark = "*" if view.name in available else " "
            from repro.sql import render

            self.write(f" {mark} {view.name}: {render(view.query)}")
        if not any_views:
            self.write("  (no authorization views deployed)")
        self.write("  (* = available to this session)")

    def _grant(self, rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            self.write("usage: \\grant <view> <user|public>")
            return
        try:
            self.db.grant(parts[0], to_user=parts[1])
            self.write(f"granted {parts[0]} to {parts[1]}")
        except ReproError as exc:
            self.write(f"error: {exc}")

    def _check(self, sql: str) -> None:
        if not sql.strip():
            self.write("usage: \\check <select ...>")
            return
        try:
            # in the gateway, under its lock and deadline like a query
            decision = self.gateway().check(
                self.user, self.mode, self.session_params(), sql.rstrip(";")
            )
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        self.write(decision.describe())
        if decision.witness is not None:
            self.write("witness plan:")
            self.write(decision.witness.pretty(1))

    def _explain(self, sql: str) -> None:
        if not sql.strip():
            self.write("usage: \\explain <select ...>")
            return
        try:
            statement = parse_statement(sql.rstrip(";"))
            if not isinstance(statement, ast.QueryExpr):
                self.write("\\explain expects a SELECT statement")
                return
            plan = self.db.plan_query(statement, self.conn.session)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        self.write(plan.pretty())
        if self.mode != "non-truman":
            return
        # non-truman mode: trace the validity decision, and (with a
        # ReBAC policy attached) the tuple chains behind it — through
        # the gateway, under its lock and deadline like a query
        from repro.rebac.trace import render_report

        try:
            report = self.gateway().explain(
                self.user, self.mode, self.session_params(), statement
            )
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        self.write("decision:")
        for line in render_report(report):
            self.write(f"  {line}")

    def _set_time(self, rest: str) -> None:
        text = rest.strip()
        if not text:
            shown = "unset" if self.time is None else repr(self.time)
            self.write(f"session time: {shown}")
            return
        if text.lower() in ("off", "none"):
            self.time = None
            self.reconnect()
            self.write("session time cleared")
            return
        try:
            self.time = float(text)
        except ValueError:
            self.write("usage: \\time <seconds|off>")
            return
        self.reconnect()
        self.write(f"session time set to {self.time}")

    def _audit(self, rest: str) -> None:
        try:
            count = int(rest.strip()) if rest.strip() else 10
        except ValueError:
            self.write("usage: \\audit [N]")
            return
        records = self.gateway().audit.tail(count)
        if not records:
            self.write("  (audit log is empty)")
            return
        for record in records:
            rules = ",".join(record.rules) or "-"
            self.write(
                f"  #{record.seq} user={record.user!r} mode={record.mode} "
                f"status={record.status} decision={record.decision or '-'} "
                f"rules={rules} cache={'hit' if record.cache_hit else 'miss'} "
                f"{record.latency_ms:.2f}ms :: {record.signature}"
            )

    def _replicas(self) -> None:
        report = getattr(self.db, "cluster_health", None)
        if report is None:
            self.write("  (database is not a sharded cluster coordinator)")
            return
        render_health(self.write, report())

    # -- durability meta-commands --------------------------------------------

    def _save(self, rest: str) -> None:
        target = rest.strip()
        if not target:
            self.write("usage: \\save <directory>")
            return
        try:
            self.db.save(target)
            self.write(f"durable at {target!r} (snapshot written, WAL open)")
        except ReproError as exc:
            self.write(f"error: {exc}")

    def _open(self, rest: str) -> None:
        target = rest.strip()
        if not target:
            self.write("usage: \\open <directory>")
            return
        try:
            db = Database.open(target)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        # drain the gateway and flush the old database before switching
        self.close()
        self.db.close()
        self.db = db
        self.reconnect()
        info = db.durability.recovery_info
        if info:
            self.write(
                f"opened {target!r}: snapshot LSN {info['snapshot_lsn']}, "
                f"{info['wal_records_replayed']} WAL record(s) replayed"
                + (" (torn tail truncated)" if info["torn_truncated"] else "")
            )
        else:
            self.write(f"opened {target!r} (fresh durable database)")

    def _checkpoint(self) -> None:
        try:
            lsn = self.db.checkpoint()
            self.write(f"checkpoint complete at LSN {lsn}")
        except ReproError as exc:
            self.write(f"error: {exc}")

    def _wal_stats(self) -> None:
        if self.db.durability is None:
            self.write("  (database is in-memory; \\save or \\open first)")
            return
        stats = self.db.durability.wal_stats()
        width = max(len(name) for name in stats)
        for name, value in stats.items():
            self.write(f"  {name:<{width}}  {value}")

    # -- SQL execution -------------------------------------------------------

    def _execute_sql(self, sql: str) -> None:
        if not sql.strip():
            return
        try:
            statement = parse_statement(sql)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        if isinstance(statement, ast.QueryExpr):
            self._execute_query(sql)
            return
        try:
            outcome = self.conn.execute(statement)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        if isinstance(outcome, int):
            self.write(f"{outcome} row(s) affected")
        else:
            self.write("ok")

    def _execute_query(self, sql: str) -> None:
        """SELECTs go through the enforcement gateway (same path as the
        service's network clients would take)."""
        from repro.errors import ServiceError
        from repro.service import QueryRequest, RequestStatus

        try:
            response = self.gateway().execute(
                QueryRequest(
                    user=self.user, sql=sql, mode=self.mode,
                    params=self.session_params(),
                )
            )
        except ServiceError as exc:
            self.write(f"error: {exc}")
            return
        if response.status is RequestStatus.OK:
            self._print_result(response.result)
        else:
            self.write(f"error: {response.error}")

    def _print_result(self, result) -> None:
        print_result(self.write, result)


def print_result(write, result) -> None:
    """Render a result (library Result or wire ClientResult) to ``write``."""
    from repro.bench.reporting import format_table

    if result.columns:
        limited = result.rows[:50]
        write(format_table(list(result.columns), [list(r) for r in limited]))
        if len(result.rows) > len(limited):
            write(f"... ({len(result.rows)} rows total)")
        else:
            write(f"({len(result.rows)} row(s))")
    annotations = getattr(result, "annotations", None)
    if annotations:
        for note in annotations:
            write(f"  note: {note}")


def render_health(write, health: Optional[dict]) -> None:
    """Render a cluster-health report (``cluster_health()`` / the
    ``health`` wire frame) as the ``\\replicas`` table."""
    if not health:
        write("  (server is not a sharded cluster coordinator)")
        return
    write(
        f"cluster: {health.get('shards')} shard(s), policy epoch "
        f"{health.get('policy_epoch')}, unresolved divergences "
        f"{health.get('replica_divergence')}"
    )
    replicas = health.get("replicas") or []
    if not replicas:
        write("  (no read replicas attached)")
        return
    for rep in replicas:
        flags = []
        if rep.get("serving"):
            flags.append("serving")
        if rep.get("state") == "quarantined":
            flags.append("QUARANTINED")
        note = f" [{', '.join(flags)}]" if flags else ""
        write(
            f"  {rep.get('name')}: state={rep.get('state')} "
            f"lag={rep.get('lag')} epoch={rep.get('policy_epoch')} "
            f"heartbeat={rep.get('heartbeat_age_s')}s "
            f"divergences={rep.get('divergences')}"
            f"/{rep.get('unresolved_divergences')} unresolved "
            f"catchups={rep.get('catchups')} "
            f"bootstraps={rep.get('bootstraps')}{note}"
        )
        if rep.get("last_error"):
            write(f"      last error: {rep['last_error']}")


REMOTE_BANNER = """repro — remote shell over the wire protocol (repro.net)
Type SQL terminated by ';'.  Meta-commands: \\user ID, \\mode M,
\\explain SQL, \\stats, \\replicas, \\reset, \\help, \\quit."""


class RemoteShell:
    """The shell's remote mode: a thin REPL over one ReproClient.

    SQL goes over the framed protocol to a ``repro serve`` process and
    comes back as streamed row batches; typed errors (timeout,
    overload, access denied, degraded) print exactly like their
    in-process counterparts.  ``\\stats`` fetches the *server's*
    merged gateway/network snapshot.
    """

    def __init__(self, client, out: TextIO = sys.stdout):
        self.client = client
        self.out = out
        self.user = client.user
        self.mode = client.mode or "non-truman"
        self.time: Optional[float] = None
        self._buffer: list[str] = []

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def run(self, lines) -> None:
        info = self.client.server_info
        self.write(REMOTE_BANNER)
        self.write(
            f"connected to {info.get('server')!r} "
            f"(protocol {info.get('protocol')}, session {info.get('session')})"
        )
        self._prompt()
        try:
            for raw in lines:
                if not self._feed(raw.rstrip("\n")):
                    break
                self._prompt()
        finally:
            self.client.close()

    def _prompt(self) -> None:
        user = self.user or "<anonymous>"
        self.out.write(f"{user}@{self.mode}/remote> ")
        self.out.flush()

    def _feed(self, line: str) -> bool:
        stripped = line.strip()
        if not stripped and not self._buffer:
            return True
        if stripped.startswith("\\"):
            if self._buffer and stripped.split(None, 1)[0].lower() != "\\reset":
                self.write(
                    "error: finish the buffered statement with ';' or "
                    "discard it with \\reset"
                )
                return True
            return self._meta(stripped)
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self._execute_sql(statement.rstrip("; \t\n"))
        return True

    def _meta(self, command: str) -> bool:
        from repro.db import MODES
        from repro.errors import NetworkError, ReproError

        parts = command.split(None, 1)
        head = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if head in ("\\q", "\\quit", "\\exit"):
            self.write("bye")
            return False
        if head == "\\help":
            self.write(REMOTE_BANNER)
        elif head == "\\user":
            self.user = rest.strip() or None
            self._rehello()
        elif head == "\\mode":
            mode = rest.strip().lower()
            if mode not in MODES:
                self.write(
                    f"error: unknown mode {mode!r} "
                    f"(modes: {' | '.join(MODES)}); staying in {self.mode!r}"
                )
            else:
                self.mode = mode
                self._rehello()
        elif head == "\\time":
            text = rest.strip()
            if not text:
                shown = "unset" if self.time is None else repr(self.time)
                self.write(f"session time: {shown}")
            elif text.lower() in ("off", "none"):
                self.time = None
                self._rehello()
            else:
                try:
                    self.time = float(text)
                except ValueError:
                    self.write("usage: \\time <seconds|off>")
                    return True
                self._rehello()
        elif head == "\\explain":
            if not rest.strip():
                self.write("usage: \\explain <select ...>")
                return True
            try:
                explained = self.client.explain(rest.rstrip("; \t"))
            except (NetworkError, ReproError) as exc:
                self.write(f"error: {exc}")
                return True
            for line in explained.get("rendered", ()):
                self.write(f"  {line}")
        elif head == "\\stats":
            try:
                stats = self.client.stats()
            except (NetworkError, ReproError) as exc:
                self.write(f"error: {exc}")
                return True
            width = max(len(name) for name in stats) if stats else 0
            self.write("-- remote gateway --")
            for name, value in stats.items():
                if isinstance(value, float):
                    self.write(f"  {name:<{width}}  {value:.4f}")
                else:
                    self.write(f"  {name:<{width}}  {value}")
        elif head == "\\replicas":
            try:
                health = self.client.health()
            except (NetworkError, ReproError) as exc:
                self.write(f"error: {exc}")
                return True
            render_health(self.write, health)
        elif head == "\\reset":
            discarded = len(self._buffer)
            self._buffer = []
            self.write(f"input buffer cleared ({discarded} line(s) discarded)")
        else:
            self.write(
                f"meta-command {head!r} is not available in remote mode; "
                "try \\help"
            )
        return True

    def _rehello(self) -> None:
        from repro.errors import NetworkError, ReproError

        params = {} if self.time is None else {"time": self.time}
        try:
            self.client.hello(user=self.user, mode=self.mode, params=params)
            self.write(f"connected as {self.user!r} in mode {self.mode!r}")
        except (NetworkError, ReproError) as exc:
            self.write(f"error: {exc}")

    def _execute_sql(self, sql: str) -> None:
        from repro.errors import NetworkError, ReproError

        if not sql.strip():
            return
        try:
            result = self.client.query(sql)
        except (NetworkError, ReproError) as exc:
            self.write(f"error: {exc}")
            return
        if result.rowcount is not None:
            self.write(f"{result.rowcount} row(s) affected")
            return
        if not result.columns:
            self.write("ok")
            return
        print_result(self.write, result)


def build_database(
    workload: Optional[str],
    script: Optional[str],
    data_dir: Optional[str] = None,
    shards: int = 0,
    replicas: int = 0,
) -> Database:
    if shards > 0:
        from repro.cluster import ClusterCoordinator

        if data_dir is not None:
            db = ClusterCoordinator.open(
                data_dir, shards=shards, replicas=replicas
            )
            if db.recovery_report:
                # existing durable cluster state wins over
                # --workload/--script; replicas were resurrected by
                # catch-up during open()
                return db
        else:
            db = ClusterCoordinator(shards=shards, replicas=replicas)
        if workload == "university":
            from repro.workloads.university import build_university

            build_university(db=db)
        elif workload == "collab":
            from repro.workloads.collab import build_collab

            build_collab(db=db)
        elif workload == "bank":
            raise ValueError(
                "the bank workload builds its own single-node database; "
                "use --workload university or --script with --shards"
            )
        elif script:
            with open(script) as handle:
                db.execute_script(handle.read())
        db.sync_replicas()
        return db
    if data_dir is not None:
        from repro.durability import has_durable_data

        if has_durable_data(data_dir):
            # existing durable state wins over --workload/--script
            return Database.open(data_dir)
        db = build_database(workload, script)
        db.save(data_dir)
        return db
    if workload == "university":
        from repro.workloads.university import build_university

        return build_university()
    if workload == "collab":
        from repro.workloads.collab import build_collab

        return build_collab()
    if workload == "bank":
        from repro.workloads.bank import build_bank, grant_teller

        db = build_bank()
        grant_teller(db, "teller")
        return db
    db = Database()
    if script:
        with open(script) as handle:
            db.execute_script(handle.read())
    return db


def serve_main(argv: Optional[list[str]] = None) -> int:
    """``repro serve``: run the asyncio network front end."""
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve the enforcement gateway over the wire protocol",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=5433,
        help="TCP port to listen on (0 picks a free port)",
    )
    parser.add_argument(
        "--workload", choices=["university", "bank", "collab"],
        default=None,
        help="preload a generated demo workload",
    )
    parser.add_argument(
        "--script", default=None, help="SQL script to execute at startup"
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="durable data directory (opened if it holds state)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="gateway worker threads"
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded admission queue; beyond it requests are shed "
             "with a typed 'overloaded' error",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query deadline in seconds (0 disables it)",
    )
    parser.add_argument(
        "--max-frame-size", type=int, default=None,
        help="maximum wire frame size in bytes (default 1 MiB); "
             "larger results are streamed as multiple row_batch frames",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="serve a sharded cluster coordinator with this many "
             "storage nodes (0 = single-node; combine with --data-dir "
             "for a durable cluster that recovers on restart)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="WAL-shipping read replicas for the cluster (requires "
             "--shards)",
    )
    args = parser.parse_args(argv)
    if args.replicas and not args.shards:
        parser.error("--replicas requires --shards")

    from repro.net.protocol import DEFAULT_MAX_FRAME
    from repro.net.server import ReproServer
    from repro.service import EnforcementGateway

    try:
        db = build_database(
            args.workload, args.script, args.data_dir,
            shards=args.shards, replicas=args.replicas,
        )
    except ValueError as exc:
        parser.error(str(exc))
    gateway = EnforcementGateway(
        db,
        workers=args.workers,
        queue_size=args.queue_size,
        default_deadline=args.timeout if args.timeout > 0 else None,
        name="repro-serve",
    )
    server = ReproServer(
        gateway,
        host=args.host,
        port=args.port,
        max_frame_size=args.max_frame_size or DEFAULT_MAX_FRAME,
    )

    async def amain() -> None:
        host, port = await server.start()
        topology = (
            f", shards={args.shards}, replicas={args.replicas}"
            if args.shards else ""
        )
        print(f"repro-serve listening on {host}:{port} "
              f"(workers={args.workers}, queue={args.queue_size}"
              f"{topology})")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        gateway.shutdown(drain=True)
        db.close()
    return 0


def connect_main(target: str, args) -> int:
    """``repro --connect HOST:PORT``: the shell as a network client."""
    from repro.errors import NetworkError
    from repro.net.client import ReproClient

    host, _, port_text = target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --connect expects HOST:PORT, got {target!r}",
              file=sys.stderr)
        return 2
    try:
        client = ReproClient(
            host or "127.0.0.1", port, user=args.user, mode=args.mode,
            reconnect=True,
        )
    except (NetworkError, OSError) as exc:
        print(f"error: cannot connect to {target}: {exc}", file=sys.stderr)
        return 1
    shell = RemoteShell(client)
    try:
        shell.run(sys.stdin)
    except KeyboardInterrupt:
        shell.write("\nbye")
        client.close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="fine-grained access control shell"
    )
    parser.add_argument(
        "--workload", choices=["university", "bank", "collab"],
        default=None,
        help="preload a generated demo workload",
    )
    parser.add_argument(
        "--script", default=None, help="SQL script to execute at startup"
    )
    parser.add_argument(
        "--user", default=None, help="initial session user id"
    )
    parser.add_argument(
        "--mode", default="non-truman",
        choices=["open", "truman", "non-truman", "motro"],
        help="initial access-control mode",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="gateway worker threads serving the shell's queries",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query deadline in seconds (0 disables it); "
             "a runaway validity check or scan is cancelled "
             "cooperatively when it elapses",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="durable data directory (opened if it holds state, "
             "initialized from --workload/--script otherwise)",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="run as a remote client of a 'repro serve' process "
             "instead of embedding a database",
    )
    args = parser.parse_args(argv)

    if args.connect:
        return connect_main(args.connect, args)

    db = build_database(args.workload, args.script, args.data_dir)
    shell = Shell(
        db,
        gateway_workers=args.workers,
        query_timeout=args.timeout if args.timeout > 0 else None,
    )
    shell.mode = args.mode
    shell.user = args.user
    shell.reconnect()
    try:
        shell.run(sys.stdin)
    except KeyboardInterrupt:
        shell.write("\nbye")
    finally:
        shell.db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
