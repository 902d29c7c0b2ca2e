"""Network front-end demo: serve the gateway over TCP, talk to it.

Starts a :class:`~repro.net.server.NetworkService` over an in-process
university database, then drives it like a real deployment would:

1. authenticated sessions (one per student) issuing valid queries;
2. a denied query coming back as the same typed ``QueryRejectedError``
   the library raises in-process;
3. a result large enough to stream across several row_batch frames;
4. a client that drops mid-query — watch ``disconnect_cancels`` tick
   and the audit log record the cancelled request exactly once;
5. the merged gateway + network stats snapshot, fetched over the wire.

Run with ``PYTHONPATH=src python examples/network_demo.py``.
"""

import time

from repro.db import Database
from repro.errors import QueryRejectedError
from repro.net import NetworkService, ReproClient
from repro.service import EnforcementGateway
from repro.workloads.university import build_university


def main() -> None:
    db = build_university()
    gateway = EnforcementGateway(db, workers=4, name="demo-gateway")

    # a small max frame so the demo visibly streams in chunks
    with NetworkService(gateway, max_frame_size=4096) as service:
        host, port = service.address
        print(f"serving on {host}:{port}\n")

        with ReproClient(host, port, user="11") as client:
            print("-- a student reads her own grades over the wire --")
            result = client.query(
                "select course_id, grade from Grades where student_id = '11'"
            )
            for row in result.rows:
                print("  ", row)
            print(f"  decision: {result.decision['validity']} "
                  f"(rules {result.decision['rules']})\n")

            print("-- the same session tries everyone's grades --")
            try:
                client.query("select * from Grades")
            except QueryRejectedError as exc:
                print(f"  denied, as in-process: {exc}\n")

            print("-- a big result streams as multiple frames --")
            result = client.query("select * from Registered", mode="open")
            print(f"  {len(result.rows)} rows in "
                  f"{result.row_frames} row_batch frame(s)\n")

        print("-- a client drops mid-query --")
        dropper = ReproClient(host, port, mode="open")
        dropper.start_query(
            "select count(*) from Registered r1, Registered r2, Registered r3 "
            "where r1.student_id < r2.student_id "
            "and r2.course_id <> r3.course_id"
        )
        time.sleep(0.1)
        dropper.drop()  # no goodbye: the server must cancel the work
        time.sleep(0.5)
        print(f"  disconnect_cancels = "
              f"{gateway.metrics.get('disconnect_cancels')}")
        record = gateway.audit.tail(1)[0]
        print(f"  last audit record: status={record.status} "
              f"signature={record.signature[:60]}...\n")

        print("-- merged stats over the wire --")
        with ReproClient(host, port) as client:
            stats = client.stats()
            for key in ("requests_ok", "requests_rejected", "net_queries",
                        "frames_sent", "frames_received", "connections_open",
                        "sessions_authenticated", "disconnect_cancels",
                        "requests_cancelled_inflight"):
                print(f"  {key:<28} {stats.get(key)}")

    gateway.shutdown()
    print("\ndone")


if __name__ == "__main__":
    main()
