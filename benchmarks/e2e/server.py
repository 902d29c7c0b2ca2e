"""Server subprocess of the E22 benchmark.

Composes the stack exactly as ``repro serve`` does — fixture database,
``EnforcementGateway(db)`` with its default arguments, ``ReproServer``
on a loopback port — prints ``READY <port>`` and serves until its stdin
closes (so it can never outlive the benchmark process).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(pathlib.Path(__file__).resolve().parent)]

from repro.net.server import ReproServer  # noqa: E402
from repro.service import EnforcementGateway  # noqa: E402

from workloads import WORKLOADS, build_database  # noqa: E402


async def serve(gateway: EnforcementGateway) -> None:
    server = ReproServer(gateway, host="127.0.0.1", port=0)
    _, port = await server.start()
    print(f"READY {port}", flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)  # returns at EOF
    await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--students", type=int, required=True)
    args = parser.parse_args()
    # the fixture size travels with the command (the smoke test shrinks it)
    workload = dataclasses.replace(WORKLOADS[args.workload], students=args.students)
    db = build_database(workload, args.data_dir)
    gateway = EnforcementGateway(db)
    try:
        asyncio.run(serve(gateway))
    finally:
        gateway.shutdown(drain=True)
        db.close(checkpoint=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
