"""E22: the end-to-end benchmark command named by BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload portal_hot --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the six end-to-end metrics over loopback TCP
against a server subprocess; ``--trace 1`` is the per-layer traced run
(tracing.py).  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no repro package under {ROOT / 'src'}; run from a checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from harness import RegimeError  # noqa: E402
from workloads import PROTOCOL, WORKLOADS, Workload, plan_rounds  # noqa: E402

#: set-ups per run; setup_s is their median.  Each set-up is followed by
#: a third of the measurement, so that one noisy stretch of the host
#: (they last 5-30 s) cannot cover all of a run's rounds.
SETUPS = 3
#: rounds per measurement window, whatever --seconds says
MIN_ROUNDS = 1
#: a cycle (set-up + window) is padded with idle time to at least this
CYCLE_S = 7.0

UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}


def set_up(workload: Workload, users, warm, warm_expected):
    """Spawn the server, connect every session, run the warm-up round.

    Returns ``(server, loop, warm-up result, setup seconds)``; set-up time
    is spawn -> all sessions connected, plus the time the warm-up
    requests were in flight (oracle comparison excluded).
    """
    start = time.perf_counter()
    server = harness.ServerProcess(workload)
    try:
        loop = harness.ClosedLoop(server, users)
        ready_s = time.perf_counter() - start
        result = loop.run_round(warm, warm_expected)
    except BaseException:
        server.stop()
        raise
    return server, loop, result, ready_s + result.busy_s


def run_untraced(
    workload: Workload, seed: int, seconds: float, setups: int = SETUPS
) -> dict:
    """``setups`` cycles of set-up + measurement window (``seconds`` in
    all), each on a fresh server and started at least CYCLE_S apart."""
    oracle = harness.Oracle(workload)
    rounds = plan_rounds(workload, oracle.db, seed)
    warm = rounds[0]
    # a hot round repeats until time is up; portal_cold walks fresh keys
    measured = itertools.repeat(rounds[1]) if workload.repeats else iter(rounds[1:])
    users = {request.user for round_ in rounds for request in round_}
    warm_expected = oracle.expectations(warm)
    harness.check_expectations(warm, warm_expected)
    failures: list[str] = []
    setup_values = []
    results: list[harness.RoundResult] = []
    rss_mb = 0.0
    for cycle in range(setups):
        began = time.perf_counter()
        server, loop, warm_result, setup_s = set_up(workload, users, warm, warm_expected)
        try:
            setup_values.append(setup_s)
            failures.extend(warm_result.failures)
            _, window = harness.measure(
                loop, workload, oracle, measured, seconds / setups, MIN_ROUNDS
            )
            results.extend(window)
            rss_mb = max(rss_mb, server.rss_high_water_mb())
        finally:
            loop.close()
            server.stop()
        if cycle + 1 < setups:
            time.sleep(max(0.0, CYCLE_S - (time.perf_counter() - began)))
    for result in results:
        failures.extend(result.failures)
    class_p50 = harness.check_placement(
        [cls for result in results for cls in result.classes],
        [value for result in results for value in result.latencies_ms],
    )

    summaries = harness.quiet_summaries(results)
    summaries["setup_s"] = harness.summary(setup_values)
    summaries["setup_s"]["value"] = summaries["setup_s"]["median"]
    summaries["server_rss_mb"] = {"value": rss_mb}
    attempted = sum(len(result.latencies_ms) for result in results)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "protocol": PROTOCOL.strip(),
        "rounds": len(results),
        "requests_per_round": attempted // len(results),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "summaries": summaries,
        "class_p50_ms": class_p50,
        "per_round": [
            {"latencies_ms": r.latencies_ms, "cpu_s": r.cpu_s} for r in results
        ],
        "setup_values_s": setup_values,
        "units": UNITS,
    }


def print_table(report: dict) -> None:
    print(
        f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"{report.get('protocol', '')} rounds={report.get('rounds', '-')} "
        f"requests/round={report.get('requests_per_round', '-')} "
        f"attempted={report['attempted']} failed={report['failed']}"
    )
    for name, stats in report["summaries"].items():
        rounds = (
            f"[rounds: q1 {stats['q1']:.4f}, median {stats['median']:.4f}, "
            f"q3 {stats['q3']:.4f}, n={stats['n']}]"
            if "q1" in stats
            else ""
        )
        print(f"{name:<48} {stats['value']:>14.4f} {report['units'][name]:<6} {rounds}")
    for layer, value in sorted(
        report.get("layer_self_us_per_req", {}).items(), key=lambda kv: -kv[1]
    ):
        share = value / report["untraced_us_per_req"]
        print(f"layer self time  {layer:<20} {value:>12.2f} us/req  {share:6.1%} of untraced")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def result_line(report: dict) -> str:
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": stats["value"], "unit": report["units"][name]}
                for name, stats in report["summaries"].items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, help="also write the full report (quartiles) here"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            import tracing

            report = tracing.run_traced(workload, args.seed, args.seconds)
        else:
            report = run_untraced(workload, args.seed, args.seconds)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1))
    print_table(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
