"""Fast smoke test of the benchmark itself, on tiny instance lists.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the result fingerprint repeats, and that failures are counted.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

_pkg, wl, _spans = bench._load()
from sinrbackbone import protocol, verify  # noqa: E402
from sinrbackbone.errors import TokenDeliveryError  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# tiny lists: two small instances over a small label space
TINY = {
    name: dataclasses.replace(w, n_labels=12, profile=((4, 3), (6, 4)), side=None)
    for name, w in wl.WORKLOADS.items()
}


def _measure(name, trace=0, seed=3, workloads=TINY):
    return bench.measure(name, seed, 0.01, trace, workloads=workloads, setup_reps=1)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_end_to_end_metrics_present(name):
    rec = _measure(name)
    assert rec["correct"] and rec["failed"] == 0
    assert _units(rec["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in rec["metrics"].values())


@pytest.mark.parametrize("index,name", enumerate(wl.WORKLOADS))
def test_per_layer_metrics_present(index, name):
    # a label space of its own, so that the set-up builds families afresh
    # although earlier tests filled the process's family cache
    fresh = {name: dataclasses.replace(TINY[name], n_labels=13 + index)}
    rec = _measure(name, trace=1, workloads=fresh)
    assert rec["correct"] and rec["failed"] == 0
    assert _units(rec["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert rec["metrics"]["protocol.leader_election.rounds"]["value"] > 0
    assert rec["metrics"]["selection.families"]["value"] > 0
    assert rec["not_traced"] == []


def test_fingerprint_repeats_and_tracing_leaves_it():
    first = _measure("battery")
    assert _measure("battery")["fingerprint"] == first["fingerprint"]
    assert _measure("battery", trace=1)["fingerprint"] == first["fingerprint"]
    assert _measure("battery", seed=4)["fingerprint"] != first["fingerprint"]


def test_simulation_error_is_counted(monkeypatch):
    def lost(*_args, **_kwargs):
        raise TokenDeliveryError("forced")

    monkeypatch.setattr(protocol, "token_passing", lost)
    for name in ("battery", "cli-trace"):
        rec = _measure(name)
        assert rec["failed"] == rec["attempted"] > 0
        assert rec["errors"] == ["token-delivery"]


def test_replay_mismatch_is_counted_and_incorrect(monkeypatch):
    monkeypatch.setattr(verify, "expected_two_hop", lambda adj, leaders: {(0, 0): 0})
    rec = _measure("battery")
    assert not rec["correct"]
    assert rec["failed"] == rec["attempted"] > 0
