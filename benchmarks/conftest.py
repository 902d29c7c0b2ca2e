"""Benchmark-suite plumbing.

Each ``bench_e*.py`` module registers one :class:`repro.bench.Experiment`
here; rows are added while the benchmark tests run and the assembled
tables — the reproduction's counterpart of the paper's figures/claims —
are printed in the terminal summary after pytest-benchmark's own table.

Every experiment that recorded rows is additionally written out as
machine-readable ``BENCH_<id>.json`` (E13–E17 alike), so the perf
trajectory is diffable across PRs instead of living only in the
EXPERIMENTS.md prose.  The default output directory is ``bench-out/``
at the repository root (ignored by git), so a local run never rewrites
the committed reference results; ``REPRO_BENCH_JSON_DIR`` overrides it
(``REPRO_BENCH_JSON_DIR=.`` refreshes a committed ``BENCH_<id>.json``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Allow `from tests.conftest import ...`-style absolute imports if needed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

_EXPERIMENTS = []


def register_experiment(experiment):
    _EXPERIMENTS.append(experiment)
    return experiment


def pytest_terminal_summary(terminalreporter):
    if not _EXPERIMENTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("EXPERIMENT TABLES (see EXPERIMENTS.md for the paper mapping)")
    terminalreporter.write_line("=" * 72)
    for experiment in _EXPERIMENTS:
        if not experiment.rows:
            continue
        terminalreporter.write_line("")
        for line in experiment.report().splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    out_dir = Path(
        os.environ.get(
            "REPRO_BENCH_JSON_DIR",
            Path(__file__).resolve().parent.parent / "bench-out",
        )
    )
    for experiment in _EXPERIMENTS:
        if not experiment.rows:
            continue
        path = out_dir / f"BENCH_{experiment.id}.json"
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            experiment.write_json(path)
        except OSError as exc:
            terminalreporter.write_line(f"could not write {path}: {exc}")
        else:
            terminalreporter.write_line(f"wrote {path}")
