"""Workload inputs, family set-up and the checked operation of one instance.

Every call into the package goes through a module attribute at call time
(`protocol.backbone_creation`, not a name imported here), so the tracer's
wrappers see the calls the benchmark makes as well as the program's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from sinrbackbone import cli, physical, protocol, verify
from sinrbackbone.errors import SimulationError

MAX_DRAWS = 500  # generator draws per instance to meet its degree


@dataclass(frozen=True)
class Workload:
    name: str
    n_labels: int
    profile: tuple[tuple[int, int], ...]  # (n, maximum degree) of each instance
    setup_reps: int  # cold set-ups per untraced run; setup_s is their median
    side: Optional[float] = None  # arena side; None: the acceptance formula
    via_cli: bool = False  # run each instance through `sinr-backbone run`


# Why each workload exists is recorded in BENCHMARK.json. An instance's cost
# varies by up to 1.5x with its geometry at a fixed (n, degree), so profiles
# hold enough instances to average that out, while a 12 s run still makes
# two passes over the list on a 2-core x86 VM. Set-up repeats are chosen so
# that a run stays under a minute.
BATTERY_PROFILE = (
    (4, 3), (10, 5), (16, 6), (22, 6), (28, 7),
    (34, 9), (40, 10), (46, 12), (52, 14), (58, 15),
)
WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance battery's n range, each n at its most common degree
        Workload("battery", n_labels=64, setup_reps=2, profile=BATTERY_PROFILE * 2),
        Workload("dense", n_labels=1024, setup_reps=1, profile=((150, 20),) * 3, side=6.0),
        Workload("cli-trace", n_labels=64, setup_reps=2, profile=((40, 12),), via_cli=True),
    )
}


def arena_side(w: Workload, n: int) -> float:
    if w.side is not None:
        return w.side
    return min(4.0, max(1.2, 0.85 * math.sqrt(n)))


def make_instances(w: Workload, seed: int) -> list:
    """The run's instances, a pure function of the workload and seed.

    The seed draws placements and labels; the profile fixes each instance's
    n and maximum degree, which set the families and the round count, so
    that runs with different seeds measure comparable work. The first draw
    with the profile's degree is kept: only the graph is looked at, never
    a run, so no failing instance can be filtered out.
    """
    rng = random.Random(f"{w.name}/{seed}")
    out = []
    for n, delta in w.profile:
        for _ in range(MAX_DRAWS):
            spec = cli.GeneratorSpec(
                n=n, arena_side=arena_side(w, n), seed=rng.randrange(2**31),
                n_labels=w.n_labels,
            )
            inst = cli.generate(spec, cli.DEFAULT_PARAMS)
            if physical.build_graph(inst).delta == delta:
                out.append(inst)
                break
        else:
            raise RuntimeError(f"no {w.name} instance with n={n}, delta={delta}")
    return out


def bucket_selectors(delta: int) -> list[tuple[int, int]]:
    """(k, m) of leader election's selector in each degree bucket i."""
    out = []
    for i in range(max(0, delta - 1).bit_length() + 1):
        pw = 1 << i
        out.append((-(-delta // pw) + 1, -(-41 * delta // (42 * pw)) + 2))
    return out


def build_families(instances: list) -> int:
    """Build every family the instances' runs use; returns the number of
    sets across the distinct families."""
    sizes = {}
    for inst in instances:
        sim = protocol.Simulator(inst, protocol.ProtocolConfig())
        fams = [sim.base_ssf(), sim.pair_ssf()]
        fams += [sim.selector(k, m) for k, m in bucket_selectors(sim.graph.delta)]
        for fam in fams:
            sizes[id(fam)] = fam.size
    return sum(sizes.values())


@dataclass
class Outcome:
    """What one checked instance run produced."""

    digest: str  # result fingerprint: leaders, helpers, edges, rounds
    rounds: int
    problems: list  # failed verdicts and replay mismatches
    error: Optional[str] = None  # SimulationError code
    trace_bytes: int = 0


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("ascii")).hexdigest()


def _replays(graph, leaders, two_hop, three_hop) -> list:
    problems = []
    if verify.expected_two_hop(graph.adjacency, leaders) != two_hop:
        problems.append("two-hop-replay")
    if verify.expected_three_hop(graph.adjacency, leaders) != three_hop:
        problems.append("three-hop-replay")
    return problems


def run_direct(inst) -> tuple[float, Outcome]:
    """build_graph + backbone_creation + every check, as the battery does.
    Returns the seconds the program took and the outcome."""
    t0 = time.perf_counter()
    try:
        graph = physical.build_graph(inst)
        result = protocol.backbone_creation(inst, protocol.ProtocolConfig())
    except SimulationError as exc:
        return time.perf_counter() - t0, Outcome("", 0, [], error=exc.code)
    problems = [v.check for v in verify.run_all_checks(result, inst, graph) if not v.passed]
    problems += _replays(graph, set(result.leaders), result.two_hop, result.three_hop)
    seconds = time.perf_counter() - t0
    digest = _fingerprint(
        result.leaders, result.helpers, result.backbone_edges, result.rounds_used
    )
    return seconds, Outcome(digest, result.rounds_used, problems)


def run_cli(inst_path: str, graph, out_dir: str) -> tuple[float, Outcome]:
    """`sinr-backbone run --trace-mode full` in-process, then the replays
    against the written report. Returns the seconds the program took (the
    fingerprint's hashing excluded) and the outcome."""
    t0 = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(
            ["run", "--instance", inst_path, "--trace-mode", "full", "--out-dir", out_dir]
        )
    if status == 2:  # the CLI's exit status for a SimulationError
        error = json.loads(err.getvalue())["error"]
        return time.perf_counter() - t0, Outcome("", 0, [], error=error)
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        report_bytes = fh.read()
    res = json.loads(report_bytes)["result"]
    problems = [] if status == 0 else [f"exit-status-{status}"]
    two_hop = {tuple(map(int, k.split(","))): h for k, h in res["two_hop"].items()}
    three_hop = {
        tuple(map(int, k.split(","))): tuple(v) for k, v in res["three_hop"].items()
    }
    problems += _replays(graph, set(res["leaders"]), two_hop, three_hop)
    seconds = time.perf_counter() - t0
    trace_path = os.path.join(out_dir, "trace.jsonl")
    digest = hashlib.sha256()
    with open(trace_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    digest.update(report_bytes)
    fp = _fingerprint(
        res["leaders"], res["helpers"], res["edges"], res["rounds_used"], digest.hexdigest()
    )
    size = os.path.getsize(trace_path)
    return seconds, Outcome(fp, res["rounds_used"], problems, trace_bytes=size)
