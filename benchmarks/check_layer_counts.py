"""Gate the count-valued per-layer metrics of traced E22 runs.

    python3 benchmarks/check_layer_counts.py tests/data/e2e_layer_counts.json OUT_DIR [--write]

OUT_DIR holds one ``run.py --seed 1 --trace 1 --out`` report per workload.
Counts (``*_per_req``, ``*_per_write``, ``*_hit_ratio``, ``cluster.pruned_share``)
are ratios of integers over a fixed request list: they repeat exactly, so any
difference from the committed reference fails.  Every other per-layer metric is
a time on a shared host (25 % noise): printed, never gated.  ``--write`` records
OUT_DIR as the reference (run it at the parent of a PR that means to move a
count, and say so in the PR).
"""

import json
import pathlib
import sys

COUNTED = ("_per_req", "_per_write", "_hit_ratio", "cluster.pruned_share")


def main(reference: str, out_dir: str, write: bool = False) -> int:
    reports = [json.loads(p.read_text()) for p in sorted(pathlib.Path(out_dir).glob("*.json"))]
    found = {r["workload"]: {n: s["value"] for n, s in r["summaries"].items()} for r in reports}
    counts = {w: {n: v for n, v in m.items() if n.endswith(COUNTED)} for w, m in found.items()}
    if write:
        pathlib.Path(reference).write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        return 0
    for workload, metrics in found.items():
        for name, value in metrics.items():
            print(f"{workload:<14} {name:<50} {value:>16.4f}")
    expected = json.loads(pathlib.Path(reference).read_text())
    differing = [
        f"{workload} {name}: {counts.get(workload, {}).get(name)!r} != reference {want!r}"
        for workload, metrics in expected.items()
        for name, want in metrics.items()
        if counts.get(workload, {}).get(name) != want
    ]
    print("\n".join(differing) if differing else "counts ok")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], "--write" in sys.argv[3:]))
