import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrbackbone import cli, protocol, verify
from sinrbackbone.cli import (
    DEFAULT_PARAMS,
    FileSink,
    GeneratorSpec,
    RunConfig,
    generate,
    main,
    run,
    sweep,
)
from sinrbackbone.errors import InvalidArgumentError, RetryCapError, TokenDeliveryError
from sinrbackbone.physical import (
    MAX_LABELS,
    build_graph,
    make_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from sinrbackbone.protocol import (
    LEADER,
    Execution,
    Families,
    ProtocolConfig,
    Simulator,
    backbone_creation,
    leader_election,
    token_passing,
)
from sinrbackbone.selection import pair_index

from family_schedule import leader_buckets, scheduled_phase_rounds
from oracles import Sent, generate_by_full_scan, msg, transmitted
from trace_reference import RoundWriter


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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "n, side, spacing",
    [
        (30, 3.2, GeneratorSpec.min_spacing),  # the default
        (30, 3.2, 0.0),
        (30, 3.2, -1.0),
        (1, 3.2, 7.0),  # larger than the arena: one station fits
        (50, 3.0, 0.3),  # many draws rejected
        (200, 6.0, 0.2),
    ],
)
def test_generate_equals_the_full_scan_reference(seed, n, side, spacing):
    # the 3 x 3 box check accepts and rejects what a check against every
    # placed point does, so every draw and every instance is the same
    spec = GeneratorSpec(n=n, arena_side=side, min_spacing=spacing, seed=seed, n_labels=256)
    want = serialize_instance(generate_by_full_scan(spec, DEFAULT_PARAMS))
    assert serialize_instance(generate(spec)) == want


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(n=3, arena_side=2.0, min_spacing=7.0, seed=4, retry_cap=5),  # no room
        GeneratorSpec(n=12, arena_side=60.0, seed=1, retry_cap=25),  # never connected
    ],
)
def test_generate_fails_at_the_retry_cap_as_the_full_scan_does(spec):
    with pytest.raises(RetryCapError):
        generate_by_full_scan(spec, DEFAULT_PARAMS)
    with pytest.raises(RetryCapError):
        generate(spec)


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


def _error_code(capsys) -> str:
    return json.loads(capsys.readouterr().err.strip())["error"]


def test_run_zero_noise_fails_at_once_with_unbounded_range(tmp_path, capsys):
    # no redraw can bound the range, so generate must not retry to its cap
    code = main(["run", "--n", "5", "--noise", "0", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert _error_code(capsys) == "unbounded-range"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "70", "--n-labels", "64", "--out-dir"],
        ["run", "--n", "5", "--alpha", "2", "--out-dir"],
        ["generate", "--n", "0", "--side", "1", "--out"],
        ["run", "--n", "5", "--demo-c", "0", "--out-dir"],
        ["sweep", "--demo-c", "-1", "--out-dir"],
        ["run", "--n", "5", "--side", "1", "--power", "inf", "--out-dir"],
        ["run", "--n", "5", "--side", "1", "--alpha", "inf", "--out-dir"],
        ["run", "--n", "5", "--side", "1", "--noise", "inf", "--out-dir"],
        ["generate", "--n", "5", "--side", "nan", "--out"],
        ["generate", "--n", "5", "--side", "inf", "--out"],
        ["generate", "--n", "5", "--side", "1", "--spacing", "nan", "--out"],
        ["run", "--n", "5", "--side", "nan", "--out-dir"],
        ["generate", "--n", "5", "--side", "1", "--n-labels", "2147483648", "--out"],
    ],
    ids=[
        "run-n-above-labels",
        "run-alpha",
        "generate-n-zero",
        "run-demo-c-zero",
        "sweep-demo-c",
        "run-power-inf",
        "run-alpha-inf",
        "run-noise-inf",
        "generate-side-nan",
        "generate-side-inf",
        "generate-spacing-nan",
        "run-side-nan",
        "generate-labels-above-cap",
    ],
)
def test_bad_flag_values_exit_2_with_invalid_argument(tmp_path, capsys, argv):
    code = main(argv + [str(tmp_path / "o")])
    assert code == 2
    assert _error_code(capsys) == "invalid-argument"
    assert not (tmp_path / "o").exists()  # rejected before anything is written


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"n_labels": [4], "deltas": [4]}),
        json.dumps({"deltas": []}),
        json.dumps({"deltas": [4.5]}),
        json.dumps({"n_labels": 64}),
        json.dumps([64]),
        '{"deltas": [4,',
        None,
        json.dumps({"n_labels": [64, 2**31]}),  # MAX_LABELS + 1, after a valid cell
        json.dumps({"n_labels": [64, 7]}),  # below the smallest cell, after a valid one
        json.dumps({"deltas": [0, -3]}),
        json.dumps({"deltas": [4, 0]}),  # a degree target below 1, after a valid one
    ],
    ids=[
        "below-cell-size",
        "empty",
        "float",
        "not-a-list",
        "not-an-object",
        "bad-json",
        "missing",
        "labels-above-cap",
        "labels-below-cell-after-a-valid-cell",
        "degrees-below-1",
        "degree-below-1-after-a-valid-cell",
    ],
)
def test_sweep_grid_below_the_cell_size_exits_2(tmp_path, capsys, monkeypatch, text):
    def no_cell_runs(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was rejected")

    monkeypatch.setattr(cli, "backbone_creation", no_cell_runs)
    grid = tmp_path / "grid.json"
    if text is not None:
        grid.write_text(text)
    code = main(["sweep", "--grid-file", str(grid), "--out-dir", str(tmp_path / "s")])
    assert code == 2
    assert _error_code(capsys) == "invalid-argument"
    assert not (tmp_path / "s").exists()  # rejected before anything is written


def test_sweep_grid_at_the_smallest_cell_runs(tmp_path):
    # N = 8 holds the smallest cell (8 stations) and degree target 1 is the
    # least: both are accepted, and the one cell runs
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n_labels": [cli.SWEEP_MIN_N], "deltas": [1]}))
    assert main(["sweep", "--grid-file", str(grid), "--out-dir", str(tmp_path / "s")]) == 0
    rows = json.loads((tmp_path / "s" / "sweep.json").read_text())["rows"]
    assert [(r["n"], r["n_labels"], r["delta_target"]) for r in rows] == [(8, 8, 1)]


NO_STATIONS = ('"stations": [', '"stations": [], "unread": [')


@pytest.mark.parametrize(
    "edits",
    [
        None,
        [('"power": 1.5', '"power": Infinity')],
        [('"x": 0.5', '"x": Infinity')],
        [('"x": 0.5', '"x": NaN')],
        [('"x": 0.5', '"x": 1' + "0" * 400)],  # an integer beyond any float
        [NO_STATIONS],
        [NO_STATIONS, ('"n_labels": 4', '"n_labels": 0')],
        [('"n_labels": 4', '"n_labels": 2147483648')],  # MAX_LABELS + 1
    ],
    ids=[
        "missing",
        "infinite-power",
        "infinite-x",
        "nan-x",
        "huge-x",
        "no-stations",
        "no-labels",
        "labels-above-cap",
    ],
)
def test_unreadable_instance_exits_2_with_instance_format(tmp_path, capsys, edits):
    path = tmp_path / "instance.json"
    if edits is not None:
        save_instance(make_instance([(1, 0, 0), (2, 0.5, 0)], DEFAULT_PARAMS, 4), str(path))
        for old, new in edits:
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new))
    code = main(["run", "--instance", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert _error_code(capsys) == "instance-format"


@pytest.mark.parametrize(
    "edit",
    [
        ('"label": 2', '"label": 3.7'),
        ('"label": 2', '"label": "3"'),
        ('"label": 1', '"label": true'),
        ('"n_labels": 4', '"n_labels": 4.9'),
        ('"n_labels": 4', '"n_labels": "4"'),
        ('"x": 0.5', '"x": true'),
        ('"x": 0.5', '"x": "0.5"'),
        ('"beta": 1.0', '"beta": true'),
        ('"power": 1.5', '"power": "1.5"'),
    ],
    ids=[
        "float-label",
        "string-label",
        "bool-label",
        "float-n-labels",
        "string-n-labels",
        "bool-x",
        "string-x",
        "bool-beta",
        "string-power",
    ],
)
def test_instance_value_of_the_wrong_type_exits_2_with_instance_format(tmp_path, capsys, edit):
    # labels and n_labels are JSON integers, coordinates and params JSON
    # numbers; none of these files is read as some other instance
    path = tmp_path / "instance.json"
    save_instance(make_instance([(1, 0, 0), (2, 0.5, 0)], DEFAULT_PARAMS, 4), str(path))
    old, new = edit
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    code = main(["run", "--instance", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert _error_code(capsys) == "instance-format"


def test_a_path_at_the_largest_label_space_passes_every_check_and_both_replays(tmp_path):
    # labels N-4 .. N at N = MAX_LABELS: the records' int32 labels hold
    # every label, and the phases' int64 label-pair keys a * (N + 1) + b
    # stay below 2**62
    assert MAX_LABELS == np.iinfo(np.int32).max
    stations = [(MAX_LABELS - 4 + i, 0.9 * i, 0) for i in range(5)]
    inst = make_instance(stations, DEFAULT_PARAMS, MAX_LABELS)
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    assert main(["run", "--instance", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "trace.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    traced = {t["label"] for rec in records for t in rec.get("transmitters", [])}
    traced |= {lab for rec in records for pair in rec.get("deliveries", []) for lab in pair}
    assert traced == {lab for lab, _pos in inst.stations}  # none wrapped
    result, graph = backbone_creation(inst), build_graph(inst)
    assert result.two_hop and verify.expected_two_hop(graph, result.leaders) == result.two_hop
    assert verify.expected_three_hop(graph, result.leaders) == result.three_hop


def test_integer_coordinates_and_params_load_as_floats():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], DEFAULT_PARAMS, 4)
    text = serialize_instance(inst).replace('"alpha": 4.0', '"alpha": 4')
    loaded = parse_instance(text.replace('"y": 0.0', '"y": 0'))
    assert loaded == inst
    assert type(loaded.params.alpha) is float
    assert all(type(y) is float for _lab, (_x, y) in loaded.stations)


def test_run_forty_node_defaults(tmp_path):
    cfg = RunConfig(
        generator=GeneratorSpec(n=40, arena_side=3.4, seed=17),
        out_dir=str(tmp_path / "out"),
        trace_mode="off",
    )
    assert run(cfg) == 0


def test_run_nonzero_exit_when_a_check_fails(tmp_path, monkeypatch):
    # exit status contract: 0 iff every verdict passes
    monkeypatch.setattr(verify, "DEGREE_BOUND", 0)  # forced negative
    cfg = RunConfig(
        generator=GeneratorSpec(n=12, arena_side=1.9, seed=31),
        out_dir=str(tmp_path / "out"),
        trace_mode="off",
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
        with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
            a, b = fa.read(), fb.read()
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
        "220dbcd539f0b564236c57415165b3225e9fdac6ddd846bf1be46532964d9afb",
        {
            "full": "f221f87db2b47cdccbbae0bf16e65a84090584cee0ba9e7b84bc014404bd110e",
            "compact": "987ded9d1cbe7e14598ab4bd4241072202372b02342d33879e6333365b659b8a",
        },
    ),
    "n256": (
        GeneratorSpec(n=12, arena_side=2.6, seed=4, n_labels=256),
        "6a38147892b23687143d126a5b2d3a4855d0b7aa5fff0646ce17ec4cd6d5fd21",
        {
            "full": "d7dc59155c5caab4f0d78c245fb6e160f831475fb9703454ebb33cc4cd53b37c",
            "compact": "bbdaa0e707f9e85983a288d9b722e9547fa15b170e4dff6835716f5470a85f0f",
        },
    ),
    # n=24 is past the exact CDS cap and the graph diameter is 8, so the
    # report pins the greedy CDS size and both diameters
    "n24": (
        GeneratorSpec(n=24, arena_side=4.0, seed=1, n_labels=64),
        "c651be133f98f0a4bcc5cee1c32b1ca50c64f838b7b4d54765a4c82014cbfa2c",
        {
            "full": "a7a6ea525bc63a8c575e11b04701d0e8596442c0c8526293023d5f3957ee3840",
            "compact": "5ccad985438270326fbce042e2b4253c092e45e1481c4c8fb14780bb8f316827",
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


# the runs whose traces FileSink must write exactly as the round-by-round
# reference does, each with its maximum degree
REFERENCE_RUNS = {
    "n64": (GOLDEN["n64"][0], 4),
    "n256": (GOLDEN["n256"][0], 5),
    "n24": (GOLDEN["n24"][0], 7),
    "n40-N1024": (GeneratorSpec(n=40, arena_side=4.0, seed=1, n_labels=1024), 11),
    # labels of three to five digits, and every family reads Horner
    "n40-N16384": (GeneratorSpec(n=40, arena_side=4.0, seed=1, n_labels=16384), 11),
    # the benchmark's cli-trace profile: n=40, maximum degree 12, N=64
    "cli-trace": (GeneratorSpec(n=40, arena_side=4.0, seed=4), 12),
}
# a no-demo run (13,120 rounds): its 4,096-round two-hop execution has four
# full-mode chunks of cli._CHUNK rounds with no non-silent round, which no
# run above has
NO_DEMO = (GeneratorSpec(n=12, arena_side=2.6, seed=1), ProtocolConfig(demo=False))


def _silent_chunks(executions) -> int:
    """The chunks of cli._CHUNK rounds, counted from each non-silent
    execution's start, that hold no non-silent round."""
    chunks = 0
    for ex in executions:
        if ex.batch is not None:
            held = set((ex.rounds // cli._CHUNK).tolist())
            chunks += sum(c not in held for c in range(-(-ex.size // cli._CHUNK)))
    return chunks


def _lost_grant_executions(monkeypatch) -> list:
    """The executions of a run over 64 labels stopped by a lost token
    grant: every delivery of token passing's first grant execution is
    dropped."""
    sim = Simulator(generate(GeneratorSpec(n=16, arena_side=2.8, seed=5)))
    leader_election(sim)
    adjudicate = sim.engine.adjudicate

    def deaf(rounds, senders):
        dl_tx, dl_rx = adjudicate(rounds, senders)
        return dl_tx[:0], dl_rx[:0]

    monkeypatch.setattr(sim.engine, "adjudicate", deaf)
    msgs = Sent(
        {u: msg(sim, "hop3-report", (u,)) for u, s in sim.statuses().items() if s != LEADER}
    )
    with pytest.raises(TokenDeliveryError):
        token_passing(sim, msgs)
    assert sim.sink.executions[-1].phase == "token-passing/run=0/i=1/grant"
    return sim.sink.executions


@pytest.mark.parametrize("name", [*REFERENCE_RUNS, "lost-grant", "no-demo"])
def test_file_sink_writes_the_round_by_round_reference_bytes(name, monkeypatch):
    if name == "lost-grant":
        executions, n_labels = _lost_grant_executions(monkeypatch), 64
    elif name == "no-demo":
        inst = generate(NO_DEMO[0])
        executions, n_labels = backbone_creation(inst, NO_DEMO[1]).traces.executions, inst.n_labels
        assert _silent_chunks(executions) == 4
    else:
        spec, delta = REFERENCE_RUNS[name]
        inst = generate(spec)
        assert build_graph(inst).delta == delta
        executions, n_labels = backbone_creation(inst).traces.executions, inst.n_labels
    _assert_file_sink_writes_the_reference_bytes(executions, n_labels)


@given(
    n=st.integers(2, 24),
    density=st.floats(0.6, 1.0),
    seed=st.integers(0, 10**6),
    n_labels=st.sampled_from([16, 64, 1024]),
    demo=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_file_sink_writes_the_reference_bytes_on_generated_instances(n, density, seed, n_labels, demo):
    # beyond the fixed layouts above: any small run, in both modes; no-demo
    # runs only up to N = 64, where they take at most a few 10**4 rounds
    n = min(n, n_labels)
    side = density * min(4.0, max(1.2, 0.85 * n**0.5))
    inst = generate(GeneratorSpec(n=n, arena_side=side, seed=seed, n_labels=n_labels))
    proto = ProtocolConfig(demo=demo or n_labels > 64)
    _assert_file_sink_writes_the_reference_bytes(
        backbone_creation(inst, proto).traces.executions, n_labels
    )


def _assert_file_sink_writes_the_reference_bytes(executions, n_labels: int) -> dict:
    """FileSink writes the executions of a run over n_labels labels as
    RoundWriter does, in both modes; returns what it wrote, by mode, as
    text. Every payload decodes to ints and tuples only, the values
    RoundWriter's json.dumps is given."""
    for ex in executions:
        if ex.batch is not None:
            for m in transmitted(ex, n_labels):
                _assert_ints_and_tuples(m.payload)
    out = {}
    for mode in ("full", "compact"):
        written, expected = io.BytesIO(), io.StringIO()
        for sink in (FileSink(written, mode), RoundWriter(expected, mode, n_labels)):
            for ex in executions:
                sink.execution(ex)
        assert written.getvalue() == expected.getvalue().encode(), mode
        out[mode] = expected.getvalue()
    return out


def _assert_ints_and_tuples(value) -> None:
    if type(value) is tuple:
        for x in value:
            _assert_ints_and_tuples(x)
    else:
        assert type(value) is int, value


@pytest.fixture(scope="module")
def cli_trace_executions() -> list:
    return backbone_creation(generate(REFERENCE_RUNS["cli-trace"][0])).traces.executions


@pytest.mark.parametrize("k", range(1, 8))
def test_file_sink_writes_the_reference_bytes_across_a_power_of_ten(cli_trace_executions, k):
    # full mode writes silent rounds in chunks of one digit count, and
    # formats an execution's chunk that holds a non-silent round in bulk;
    # the reference runs never reach 10**6. All three records start 3
    # rounds before 10**k: a silent one of 30 executions, which also
    # crosses multiples of 1000 past 10**k, the run's non-silent execution
    # with the most non-silent rounds and the one with the fewest per round
    sent = [e for e in cli_trace_executions if e.batch is not None]
    dense = max(sent, key=lambda e: len(e.rounds))
    sparse = min(sent, key=lambda e: len(e.rounds) / e.size)
    assert dense.rounds[-1] > 3 and sparse.rounds[-1] > 3  # with records past 10**k
    start = 10**k - 3
    _assert_file_sink_writes_the_reference_bytes(
        [
            Execution.silent(dense.phase, start, 44, 30),
            dataclasses.replace(dense, start=start),
            dataclasses.replace(sparse, start=start),
        ],
        REFERENCE_RUNS["cli-trace"][0].n_labels,
    )


class _LineCounter:
    """A trace file that keeps only its line count."""

    lines = 0

    def write(self, text):
        self.lines += text.count(b"\n")


def _skip_peak(mode: str, *args) -> tuple[int, int]:
    """The lines a fresh sink writes for skip(*args), and the tracemalloc
    peak while it does."""
    fh = _LineCounter()
    sink = FileSink(fh, mode)
    tracemalloc.start()
    try:
        sink.skip(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fh.lines, peak


def test_a_long_silent_stretch_is_written_in_bounded_chunks():
    lines, peak = _skip_peak("full", "token-passing/run=0/i=1/grant", 0, 200_000)
    assert lines == 200_000
    assert peak < 1 << 20


def test_a_long_compact_silent_record_is_written_in_bounded_chunks():
    # one silent record of 2 * 10**5 executions of 44 rounds: one line each
    lines, peak = _skip_peak("compact", "token-passing/run=0/i=1/grant", 0, 44, 200_000)
    assert lines == 200_000
    assert peak < 1 << 20


# a label of each digit count from 1 to 10, and the labels around each
# power of ten, where the digit count changes
_POWERS_OF_TEN = [10**k for k in range(10)]
_LABELS = st.one_of(
    st.integers(0, 9).flatmap(lambda d: st.integers(10**d, min(10 ** (d + 1) - 1, MAX_LABELS))),
    st.sampled_from([x for p in _POWERS_OF_TEN for x in (p - 1, p) if x] + [MAX_LABELS]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(_LABELS, _LABELS), max_size=5), max_size=6))
@example([])
@example([[]])
@example([[], [(1, 2)], []])
@example([[(p, p - 1 or 1)] for p in _POWERS_OF_TEN] + [[(MAX_LABELS, p) for p in _POWERS_OF_TEN]])
def test_delivery_text_is_the_json_dumps_text(groups):
    # FileSink writes each row's deliveries from one %-format over the
    # batch's pairs, one line each, joined per row
    pairs = np.array([p for g in groups for p in g], np.int32).reshape(-1, 2)
    at = [0, *np.cumsum([len(g) for g in groups]).tolist()]
    assert cli._pairs_text(pairs, at) == [json.dumps(g).encode() for g in groups]


def test_cli_trace_reference_run_has_executions_that_share_a_plan():
    # FileSink formats what such executions have in common once per plan:
    # the byte-for-byte test above covers that reuse on this run
    executions = backbone_creation(generate(REFERENCE_RUNS["cli-trace"][0])).traces.executions
    plans = [(ex.batch, ex.index) for ex in executions if ex.batch is not None]
    assert len(set(plans)) < len(plans)


def _carried_keys(family, slots, owners) -> set:
    """Every (station, slot positions) key that one execution of the
    schedule transmits: in each set, a station carries each of its slots
    that the set contains."""
    carried = {}
    sets = family.rounds_for(np.asarray(slots)).tolist()
    for k, owner in enumerate(np.asarray(owners).tolist()):
        for s in sets[k]:
            carried.setdefault((s, owner), []).append(k)
    return {(owner, tuple(ks)) for (_s, owner), ks in carried.items()}


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_each_message_key_is_built_once_per_execution(name, monkeypatch):
    # every payload writer a phase hands to Simulator.execute is wrapped to
    # count the (sender, carried slot positions) keys it is asked to
    # format; a FileSink, then a second texts() call, read every message of
    # every execution
    writers = []
    execute = Simulator.execute

    def counted(write, calls):
        def counting_write(senders, carried):
            calls.update(zip(senders, map(tuple, carried)))
            texts = write(senders, carried)
            assert len(texts) == len(senders)
            return texts

        return counting_write

    def counting(self, family, executions):
        specs = []
        for slots, owners, phase, write in executions:
            calls = Counter()
            writers.append((family, slots, owners, calls))
            specs.append((slots, owners, phase, counted(write, calls)))
        return execute(self, family, specs)

    monkeypatch.setattr(Simulator, "execute", counting)
    inst = generate(REFERENCE_RUNS[name][0])
    executions = backbone_creation(inst).traces.executions
    sink = FileSink(io.BytesIO(), "full")
    for ex in executions:
        sink.execution(ex)
        ex.texts()
    # a speculated leader-election row that was dropped formats nothing
    written = [w for w in writers if w[3]]
    assert len(written) == sum(ex.batch is not None for ex in executions)
    for family, slots, owners, calls in written:
        assert set(calls.values()) == {1}
        assert set(calls) == _carried_keys(family, slots, owners)


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_file_sink_builds_no_message(name):
    # the trace is written from the writers' texts alone, as the run
    # streams its executions: a FileSink that is the run's own sink writes
    # the bytes the round-by-round reference writes from a collected run
    inst = generate(REFERENCE_RUNS[name][0])
    expected = {}
    for mode in ("full", "compact"):
        fh = io.StringIO()
        sink = RoundWriter(fh, mode, inst.n_labels)
        for ex in backbone_creation(inst).traces.executions:
            sink.execution(ex)
        expected[mode] = fh.getvalue().encode()

    for mode in ("full", "compact"):
        fh = io.BytesIO()
        backbone_creation(inst, sink=FileSink(fh, mode))
        assert fh.getvalue() == expected[mode], mode


def test_a_two_hop_helper_sends_in_each_round_the_claims_scheduled_there():
    # a helper's helper-claim message depends on the round: it carries the
    # helper's claims whose pair index the pair ssf schedules there, so a
    # message built once per sender would repeat one round's claims
    spec = REFERENCE_RUNS["cli-trace"][0]
    inst = generate(spec)
    result = backbone_creation(inst)
    pair_ssf = Families.for_run(inst, ProtocolConfig()).pair_ssf()
    (ex,) = [e for e in result.traces.executions if e.phase == "two-hop-connection"]
    claims = {}
    for (s, t), h in result.two_hop.items():
        pidx = pair_index(s, t, inst.n_labels)
        for j in pair_ssf.rounds_for(np.array([pidx]))[0].tolist():
            claims.setdefault((ex.start + j, h), []).append((h, s, t))
    sent = {}
    full = _assert_file_sink_writes_the_reference_bytes(
        result.traces.executions, inst.n_labels
    )["full"]
    for line in full.splitlines():
        record = json.loads(line)
        if record["phase"] == "two-hop-connection":
            for tx in record["transmitters"]:
                payload = tuple(map(tuple, tx["payload"]))
                assert payload == tuple(sorted(claims[(record["round"], tx["label"])]))
                sent.setdefault(tx["label"], set()).add(payload)
    assert sent.keys() == {h for _r, h in claims}
    # the run covers the case: some helper sends two different messages
    assert max(len(p) for p in sent.values()) >= 2


@pytest.mark.parametrize("mode", ["full", "compact"])
def test_every_trace_write_happens_inside_emit_or_skip(tmp_path, monkeypatch, mode):
    # the benchmark times FileSink.emit and skip as the trace writing, so
    # every byte of trace.jsonl must be written inside one of them
    calls = {"emit": 0, "skip": 0}
    inside: list[str] = []

    def counting(name):
        method = getattr(FileSink, name)

        def wrapper(self, *args):
            calls[name] += 1
            inside.append(name)
            try:
                return method(self, *args)
            finally:
                inside.pop()

        return wrapper

    for name in calls:
        monkeypatch.setattr(FileSink, name, counting(name))
    written, outside, buffers = [], [], []

    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.basename(path) == "trace.jsonl":
            buffers.append(kwargs.get("buffering"))
            write = fh.write

            def checked_write(data):
                (written if inside else outside).append(bytes(data))
                return write(data)

            fh.write = checked_write
        return fh

    monkeypatch.setattr(cli, "open", opener, raising=False)
    out = tmp_path / "out"
    assert main(["run", "--n", "12", "--side", "2.6", "--trace-mode", mode, "--out-dir", str(out)]) == 0
    assert calls["emit"] > 0 and calls["skip"] > 0
    assert outside == []
    assert b"".join(written) == (out / "trace.jsonl").read_bytes()
    # the file is opened once, with the trace write buffer
    assert buffers == [cli._TRACE_BUFFER]


def test_trace_mode_off_removes_an_earlier_trace(tmp_path):
    out = str(tmp_path / "d")
    first = ["run", "--n", "12", "--side", "2.6", "--seed", "1", "--trace-mode", "full"]
    assert main([*first, "--out-dir", out]) == 0
    assert (tmp_path / "d" / "trace.jsonl").exists()
    second = ["run", "--n", "16", "--side", "2.8", "--seed", "5", "--trace-mode", "off"]
    assert main([*second, "--out-dir", out]) == 0
    assert not (tmp_path / "d" / "trace.jsonl").exists()
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert (report["instance"]["n"], report["result"]["rounds_used"]) == (16, 9673)


def test_run_rejects_an_unknown_trace_mode_before_touching_the_out_dir(tmp_path):
    out = tmp_path / "d"
    assert main(["run", "--n", "12", "--side", "2.6", "--seed", "1", "--out-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["instance.json", "report.json", "trace.jsonl"]
    spec = GeneratorSpec(n=8, arena_side=2.0, seed=1)
    with pytest.raises(InvalidArgumentError, match="'Full'"):
        run(RunConfig(generator=spec, out_dir=str(out), trace_mode="Full"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    with pytest.raises(InvalidArgumentError, match="'none'"):
        run(RunConfig(generator=spec, out_dir=str(tmp_path / "new"), trace_mode="none"))
    assert not (tmp_path / "new").exists()


def test_failed_run_leaves_no_earlier_outputs(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert main(["run", "--n", "12", "--side", "2.6", "--seed", "1", "--out-dir", out]) == 0
    assert (tmp_path / "d" / "report.json").exists()
    assert (tmp_path / "d" / "trace.jsonl").exists()
    bad = tmp_path / "bad.json"
    save_instance(make_instance([(1, 0, 0), (2, 30, 0)], DEFAULT_PARAMS, 4), str(bad))
    assert main(["run", "--instance", str(bad), "--out-dir", out]) == 2
    assert _error_code(capsys) == "disconnected-instance"
    assert not (tmp_path / "d" / "report.json").exists()
    assert not (tmp_path / "d" / "trace.jsonl").exists()
    assert (tmp_path / "d" / "instance.json").exists()  # the first run's instance


@pytest.mark.parametrize("mode", ["full", "compact"])
def test_a_run_that_fails_mid_protocol_leaves_no_trace(tmp_path, capsys, monkeypatch, mode):
    # nothing is heard in the first token-passing sweep, so its first grant
    # is lost after leader election and two-hop connection have written
    # their rounds: the run writes no report and removes its trace
    sweep = protocol.token_passing

    def deaf_sweep(sim, msgs):
        execute = sim.execute

        def deaf(family, executions):
            for pos, heard in execute(family, executions):
                yield pos[:0], heard[:0]

        sim.execute = deaf
        return sweep(sim, msgs)

    monkeypatch.setattr(protocol, "token_passing", deaf_sweep)
    argv = ["run", "--n", "16", "--side", "2.8", "--seed", "5", "--trace-mode", mode]
    assert main([*argv, "--out-dir", str(tmp_path / "d")]) == 2
    assert _error_code(capsys) == "token-delivery"
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["instance.json"]


def test_module_entry_point_writes_the_golden_outputs(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["run", "--n", "12", "--side", "2.6", "--seed", "1", "--trace-mode", "full"]
    proc = subprocess.run(
        [sys.executable, "-m", "sinrbackbone", *argv, "--out-dir", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    _, report_digest, trace_digests = GOLDEN["n64"]
    digest = {
        f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
        for f in ("report.json", "trace.jsonl")
    }
    assert digest == {"report.json": report_digest, "trace.jsonl": trace_digests["full"]}


def _size_ratio(out) -> dict:
    report = json.loads((out / "report.json").read_text())
    return next(v["metrics"] for v in report["verdicts"] if v["check"] == "size-ratio")


def test_exact_cap_moves_the_exact_cds_branch(tmp_path, monkeypatch):
    base = ["run", "--n", "16", "--trace-mode", "off", "--out-dir"]
    assert main(base + [str(tmp_path / "greedy")]) == 0
    assert _size_ratio(tmp_path / "greedy")["exact"] == 0.0
    monkeypatch.setattr(verify, "EXACT_CAP", 16)
    assert main(base + [str(tmp_path / "exact")]) == 0
    metrics = _size_ratio(tmp_path / "exact")
    assert metrics["exact"] == 1.0 and metrics["min_cds"] >= 1


@pytest.mark.parametrize(
    "flag",
    [
        ["--force-exact-cds"],
        ["--degree-bound", "0"],
        ["--diameter-factor", "0"],
        ["--diameter-slack", "0"],
        ["--size-factor", "0"],
        ["--exact-cap", "16"],
        ["--demo"],
    ],
    ids=lambda flag: flag[0],
)
def test_force_exact_cds_flag_is_gone(tmp_path, flag):
    # every verification threshold, the exact branch's cap included, is a
    # constant of verify, not a run flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "20", *flag, "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "5", "--demo", "3", "--out-dir"],
        ["run", "--n", "5", "--no-d", "--out-dir"],
        ["sweep", "--demo", "3", "--out-dir"],
        ["generate", "--n", "5", "--side", "2", "--spac", "0.1", "--out"],
    ],
    ids=["run-demo", "run-no-d", "sweep-demo", "generate-spac"],
)
def test_flag_prefixes_exit_2(tmp_path, argv):
    # a flag is only its full name: argparse's prefix matching took --demo 3
    # for --demo-c 3 and --no-d for --no-demo
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_run_no_demo_end_to_end(tmp_path):
    # the certified regime: c = min(dilution c, C_CAP, N) = N, so the base
    # ssf is N singleton sets, a round robin
    out = tmp_path / "out"
    code = main(
        ["run", "--n", "12", "--side", "2.6", "--seed", "1", "--n-labels", "64",
         "--no-demo", "--out-dir", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["demo"] is False
    assert report["verdicts"] and all(v["pass"] for v in report["verdicts"])
    base = report["families"][0]
    assert (base["kind"], base["n_labels"], base["c"]) == ("ssf", 64, 64)
    assert (base["q"], base["K"], base["P"], base["size"]) == (64, 1, 1, 64)


def test_cli_generate_subcommand(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(
        ["generate", "--n", "6", "--side", "1.6", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


# sha256 of the default sweep's sweep.json and sweep.tsv, as written by the
# code these digests were first taken from (Python 3.11, NumPy 2.4)
SWEEP_DIGESTS = {
    "sweep.json": "21c36a955705edad9554034bf9aa18319acafb1c7929fea0ecb66fe879e66a2b",
    "sweep.tsv": "2b5e872de5d10800248ee40f1fa8a971022a1526fde0122a823086a0c7d7c683",
}


def test_default_sweep_outputs_match_golden_digests(tmp_path):
    sweep(RunConfig(out_dir=str(tmp_path)))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in SWEEP_DIGESTS}
    assert got == SWEEP_DIGESTS


def test_sweep_single_cell_matches_direct_run(tmp_path):
    cfg = RunConfig(out_dir=str(tmp_path / "s"))
    summary = sweep(cfg, n_labels_list=(64,), delta_targets=(8,))
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
