"""Compare two sets of E22 result files (``run.py --out``).

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR

Per workload x end-to-end metric: each side's median and quartiles over
its runs, how much worse the new median is, the bound from
BENCHMARK.json and a verdict — ``regressed`` (worse by more than the
bound), ``unresolved`` (either side's quartile spread is wider than the
bound, so the sets cannot tell) or ``ok``.  Per-layer metrics of traced
runs are listed with their change and no verdict.  Exits 1 when any
pair regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_set(directory: str) -> dict:
    """``{(workload, trace): {metric: [value per run]}}`` for one set."""
    runs: dict = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        if "summaries" not in report:
            continue
        metrics = runs.setdefault((report["workload"], report["trace"]), {})
        for name, stats in report["summaries"].items():
            metrics.setdefault(name, []).append(stats["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(base: float, new: float, better: str) -> float:
    """Share of the base median by which ``new`` is worse (negative: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    base_set, new_set = load_set(args.base), load_set(args.new)
    regressed = 0

    print(
        f"{'workload':<14} {'metric':<22} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'worse by':>9} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        base, new = base_set.get((workload, 0)), new_set.get((workload, 0))
        if not base or not new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_q1, b_med, b_q3 = quartiles(base[name])
            n_q1, n_med, n_q3 = quartiles(new[name])
            worse = worse_by(b_med, n_med, metric["better"])
            spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
            if worse > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:<14} {name:<22} "
                f"{f'{b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}]':<34} "
                f"{f'{n_med:.4f} [{n_q1:.4f}, {n_q3:.4f}]':<34} "
                f"{worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}"
            )

    for workload in (w["name"] for w in spec["workloads"]):
        base, new = base_set.get((workload, 1)), new_set.get((workload, 1))
        if not base or not new:
            continue
        print(f"\nper-layer, {workload} (median of runs; no bound)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b_med, n_med = quartiles(base[name])[1], quartiles(new[name])[1]
            if b_med == 0 and n_med == 0:
                continue
            print(
                f"  {name:<48} {b_med:>14.4f} -> {n_med:>14.4f} {metric['unit']:<6}"
                f"{worse_by(b_med, n_med, metric['better']):>+9.1%} worse"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
