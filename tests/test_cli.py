import hashlib
import json
import os

import pytest

from sinrbackbone.cli import (
    DEFAULT_PARAMS,
    GeneratorSpec,
    RunConfig,
    generate,
    main,
    run,
    sweep,
)
from sinrbackbone.errors import RetryCapError
from sinrbackbone.physical import build_graph, make_instance, save_instance

from family_schedule import leader_buckets, scheduled_phase_rounds


def test_generate_single_node():
    inst = generate(GeneratorSpec(n=1, arena_side=2.0, seed=1))
    assert inst.n == 1


def test_generate_deterministic():
    spec = GeneratorSpec(n=30, arena_side=3.2, seed=12)
    a, b = generate(spec), generate(spec)
    assert a == b


def test_generate_connected_distinct_labels():
    inst = generate(GeneratorSpec(n=25, arena_side=3.0, seed=5))
    g = build_graph(inst)  # raises if disconnected
    assert len(set(inst.labels)) == 25
    assert all(1 <= lab <= 64 for lab in inst.labels)
    assert g.delta >= 1


def test_generate_retry_cap():
    with pytest.raises(RetryCapError):
        generate(GeneratorSpec(n=12, arena_side=60.0, seed=1, retry_cap=25))


def test_run_two_node_instance(tmp_path):
    cfg = RunConfig(
        generator=GeneratorSpec(n=2, arena_side=1.2, seed=3),
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["result"]["leaders"]) == 1
    assert report["result"]["helpers"] == []
    assert all(v["pass"] for v in report["verdicts"])


def test_run_exit_code_cli_paths(tmp_path, capsys):
    inst = make_instance([(1, 0, 0), (2, 30, 0)], DEFAULT_PARAMS, 4)
    bad = tmp_path / "disconnected.json"
    save_instance(inst, str(bad))
    code = main(["run", "--instance", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "disconnected-instance"


def test_run_forty_node_defaults(tmp_path):
    cfg = RunConfig(
        generator=GeneratorSpec(n=40, arena_side=3.4, seed=17),
        out_dir=str(tmp_path / "out"),
        trace_mode="off",
    )
    assert run(cfg) == 0


def test_run_nonzero_exit_when_a_check_fails(tmp_path):
    # exit status contract: 0 iff every verdict passes
    cfg = RunConfig(
        generator=GeneratorSpec(n=12, arena_side=1.9, seed=31),
        out_dir=str(tmp_path / "out"),
        trace_mode="off",
        degree_bound=0,  # forced negative
    )
    assert run(cfg) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = [v for v in report["verdicts"] if not v["pass"]]
    assert [v["check"] for v in failed] == ["constant-degree"]
    assert failed[0]["witness"] is not None


def test_full_pipeline_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        cfg = RunConfig(
            generator=GeneratorSpec(n=18, arena_side=2.6, seed=9),
            out_dir=out,
        )
        assert run(cfg) == 0
    for name in ("report.json", "trace.jsonl", "instance.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_trace_full_mode_counts_every_round(tmp_path):
    cfg = RunConfig(
        generator=GeneratorSpec(n=4, arena_side=1.2, seed=2),
        out_dir=str(tmp_path / "out"),
        trace_mode="full",
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert len(lines) == report["result"]["rounds_used"]
    rounds = [json.loads(line)["round"] for line in lines]
    assert rounds == list(range(len(lines)))  # one record per round, in order


# sha256 of report.json and of trace.jsonl in each trace mode, as written by
# the code these digests were first taken from; a change that alters rounds,
# deliveries, messages or the trace format changes them
GOLDEN = {
    "n64": (
        GeneratorSpec(n=12, arena_side=2.6, seed=1, n_labels=64),
        "7cc9f3b138c38acc1e044e4d365f5ea769a9e95a131134609b460224cae0fd0f",
        {
            "full": "b9b38426f87b2e23fc09ccc9bcaf0f86a19b057ab70ee84e0ec3e4abd967a6cb",
            "compact": "a09be9c49c5bf82ae735036a7ee7595470bbd3a9c50e4d31276f1743579f158b",
        },
    ),
    "n256": (
        GeneratorSpec(n=12, arena_side=2.6, seed=4, n_labels=256),
        "9c8b640e163411bdd1e77bbe6f384cd5e5b3b5cf9f6e96bf7d64278a8b9b951b",
        {
            "full": "b1567941212ada5963e9cf45994bb204cb6618c5bf464752403274a0eff2e142",
            "compact": "507ea7af0532fcd4338d7e2c126c5f96c0a92f62b82684ef4976915c5c11201a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("mode", ["full", "compact"])
def test_run_outputs_match_golden_digests(tmp_path, name, mode):
    spec, report_digest, trace_digests = GOLDEN[name]
    out = tmp_path / "out"
    assert run(RunConfig(generator=spec, out_dir=str(out), trace_mode=mode)) == 0
    digest = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("report.json", "trace.jsonl")
    }
    assert digest == {"report.json": report_digest, "trace.jsonl": trace_digests[mode]}


def test_cli_generate_subcommand(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(
        ["generate", "--n", "6", "--side", "1.6", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


def test_sweep_single_cell_matches_direct_run(tmp_path):
    cfg = RunConfig(out_dir=str(tmp_path / "s"))
    summary = sweep(cfg, n_labels_list=(64,), delta_targets=(8,), n=24)
    assert len(summary["rows"]) == 1
    row = summary["rows"][0]
    assert row["rounds"] > 0 and row["c_r"] > 0
    table = (tmp_path / "s" / "sweep.tsv").read_text().splitlines()
    assert len(table) == 2  # header + one row
    # the phases partition the run's rounds, each exactly as scheduled
    assert sum(row["phase_rounds"].values()) == row["rounds"]
    built = [(max(k, m), m) for k, m in leader_buckets(row["delta"])]
    assert [(sel["k"], sel["m"]) for sel in row["selectors"]] == built
    selectors = [sel["size"] for sel in row["selectors"]]
    assert row["phase_rounds"] == scheduled_phase_rounds(
        row["delta"], row["ssf_size"], row["pair_size"], selectors
    )
