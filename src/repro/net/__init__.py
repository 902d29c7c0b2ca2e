"""repro.net — the asyncio wire protocol, thin clients, and load harness.

Turns the in-process enforcement gateway into a networked service: an
asyncio TCP server speaking a small length-prefixed JSON protocol
(:mod:`repro.net.protocol`), a session layer mapping connections onto
gateway users with deadline propagation and cancellation-on-disconnect
(:mod:`repro.net.server`), blocking and async client libraries
(:mod:`repro.net.client`), and an open-loop load generator for honest
p99-vs-offered-load measurement (:mod:`repro.net.loadgen`).

Quickstart::

    from repro.service import EnforcementGateway
    from repro.net import NetworkService, ReproClient

    gateway = EnforcementGateway(db, workers=4)
    with NetworkService(gateway) as service:
        host, port = service.address
        with ReproClient(host, port, user="11") as client:
            result = client.query("select * from Grades where student_id = '11'")
            print(result.rows)
"""

from repro.net.client import (
    AsyncReproClient,
    ClientResult,
    PreparedStatement,
    ReproClient,
)
from repro.net.loadgen import (
    LoadQuery,
    LoadReport,
    run_open_loop,
    run_open_loop_async,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    error_for_code,
    iter_result_frames,
)
from repro.net.server import NetworkService, ReproServer

__all__ = [
    "AsyncReproClient",
    "ClientResult",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "LoadQuery",
    "LoadReport",
    "NetworkService",
    "PROTOCOL_VERSION",
    "PreparedStatement",
    "ReproClient",
    "ReproServer",
    "decode_payload",
    "encode_frame",
    "error_for_code",
    "iter_result_frames",
    "run_open_loop",
    "run_open_loop_async",
]
