"""The benchmark's seed-1 outputs, pinned to the fingerprints in BENCH_18.json.

One untraced pass of each workload through perfbench/run.py's `measure`
(about 2 s in all). The dense workload runs n=150 instances at N=1024,
beyond what the golden run digests in test_cli.py reach (n <= 24), so a
change of any leader, helper, edge or round count there fails here.
BENCH_18.json's `fingerprints.change` holds seeds 1-10 of every workload
with leader election's selectors over prime-power fields.
perfbench/fingerprints.json is not the reference: it predates the
Reed-Solomon families.

`measure` imports the package from this checkout's src/ and exits if it
was imported from anywhere else, so it cannot check another copy of the
package (a mutated one, say). The second test builds the same seed-1
outcomes through perfbench/workloads.py directly, which imports whichever
sinrbackbone comes first on the path: the package under test.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from sinrbackbone import physical  # noqa: E402

PINNED = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))["fingerprints"]["change"]


@pytest.mark.parametrize("name", ["battery", "dense", "cli-trace"])
def test_seed_1_fingerprint_matches_the_pinned_record(name):
    record = bench.measure(name, 1, 0.01, 0, setup_reps=1)
    assert record["failed"] == 0 and record["correct"]
    assert record["fingerprint"] == PINNED[name]["1"]


@pytest.mark.parametrize("name", ["battery", "dense", "cli-trace"])
def test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record(name, tmp_path):
    # each instance once, as measure's first pass runs it: the run and its
    # checks (run_direct), or `sinr-backbone run --trace-mode full` with its
    # report and trace hashed (run_cli)
    w = workloads.WORKLOADS[name]
    outcomes = []
    for i, inst in enumerate(workloads.make_instances(w, 1)):
        if w.via_cli:
            path = str(tmp_path / f"instance-{i}.json")
            physical.save_instance(inst, path)
            graph = physical.build_graph(inst)
            outcomes.append(workloads.run_cli(path, graph, str(tmp_path / "out"))[1])
        else:
            outcomes.append(workloads.run_direct(inst)[1])
    assert [(o.error, o.problems) for o in outcomes] == [(None, [])] * len(outcomes)
    assert bench._fingerprint(outcomes) == PINNED[name]["1"]
