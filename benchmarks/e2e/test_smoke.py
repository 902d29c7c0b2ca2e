"""Smoke test of the E22 benchmark (not collected by tier-1; run with
``python -m pytest benchmarks/e2e``): one round of every workload plus
its traced run on a 200-student fixture, checking that every name
BENCHMARK.json promises is emitted and nothing fails."""

import dataclasses
import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ and this directory on sys.path)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small(name):
    return dataclasses.replace(WORKLOADS[name], students=200)


@pytest.fixture(autouse=True)
def one_round(monkeypatch):
    monkeypatch.setattr(run, "CYCLE_S", 0.0)
    monkeypatch.setattr(tracing, "WIRE_ROUNDS", 1)


def check(report, promised):
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 1
    emitted = json.loads(run.result_line(report))
    assert emitted["correct"] is True
    assert set(emitted["metrics"]) == {metric["name"] for metric in promised}
    for metric in promised:
        assert NAME.match(metric["name"])
        assert emitted["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(emitted["metrics"][metric["name"]]["value"], float)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(NAME.match(w["name"]) and w["why"] for w in SPEC["workloads"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    check(run.run_untraced(small(name), seed=7, seconds=0.0, setups=1), SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    report = tracing.run_traced(small(name), seed=7, seconds=0.0)
    check(report, SPEC["per_layer"])
    assert (HERE / ".work" / f"trace-{name}.json").is_file()
    # span accounting, not speed: a stray or double-counted span shows as a
    # gross mismatch (the 15 % overhead limit itself needs a quiet host)
    assert sum(report["layer_self_us_per_req"].values()) == pytest.approx(
        report["untraced_us_per_req"], rel=0.5
    )
