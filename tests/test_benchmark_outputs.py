"""The benchmark's seed-1 outputs, pinned to the fingerprints in BENCH_18.json.

One untraced pass of each workload through perfbench/run.py's `measure`
(about 2 s in all). The dense workload runs n=150 instances at N=1024,
beyond what the golden run digests in test_cli.py reach (n <= 24), so a
change of any leader, helper, edge or round count there fails here.
BENCH_18.json's `fingerprints.change` holds seeds 1-10 of every workload
with leader election's selectors over prime-power fields.
perfbench/fingerprints.json is not the reference: it predates the
Reed-Solomon families.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402

PINNED = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))["fingerprints"]["change"]


@pytest.mark.parametrize("name", ["battery", "dense", "cli-trace"])
def test_seed_1_fingerprint_matches_the_pinned_record(name):
    record = bench.measure(name, 1, 0.01, 0, setup_reps=1)
    assert record["failed"] == 0 and record["correct"]
    assert record["fingerprint"] == PINNED[name]["1"]
