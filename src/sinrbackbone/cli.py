"""Command-line interface: instance generation, runs, parameter sweeps."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import (
    DisconnectedInstanceError,
    InvalidArgumentError,
    RetryCapError,
    SimulationError,
)
from .physical import (
    MAX_LABELS,
    PhysicalInstance,
    PhysicsEngine,
    SinrParams,
    broadcast_range,
    build_graph,
    distance,
    grid_box,
    load_instance,
    make_instance,
    save_instance,
)
from .protocol import (
    Execution,
    Families,
    ProtocolConfig,
    backbone_creation,
)
from .verify import run_all_checks

DEFAULT_PARAMS = SinrParams(alpha=4.0, beta=1.0, noise=1.0, epsilon=0.5, power=1.5)
TRACE_MODES = ("compact", "full", "off")


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    arena_side: float
    min_spacing: float = 0.05
    seed: int = 1
    n_labels: int = 64
    retry_cap: int = 5000


@dataclass
class RunConfig:
    params: SinrParams = DEFAULT_PARAMS
    instance_path: Optional[str] = None
    generator: Optional[GeneratorSpec] = None
    protocol: ProtocolConfig = ProtocolConfig()
    out_dir: str = "out"
    trace_mode: str = "compact"  # one of TRACE_MODES


def generate(spec: GeneratorSpec, params: SinrParams = DEFAULT_PARAMS) -> PhysicalInstance:
    """Seeded uniform placement with distinct labels, rejected until the
    communication graph is connected and minimum spacing holds. Any error
    other than a disconnected draw propagates at once: no redraw can help.

    A drawn point's spacing is checked only against the placed points in
    the 3 x 3 grid boxes around its own (grid_box). The box side is over
    the spacing by a factor 1 + 2**-30, and at least arena_side / 4096 and
    2**-1000, so box indices stay below about 4096 and the side is a normal
    float. Two boxes apart, the exact coordinate difference is then over
    the spacing, despite the rounding of x / side, so distance() there is
    at least the spacing: the check accepts and rejects what a check
    against every placed point would.
    """
    if spec.n < 1:
        raise InvalidArgumentError(f"need n >= 1, got n={spec.n}")
    if not (math.isfinite(spec.arena_side) and spec.arena_side > 0):
        raise InvalidArgumentError(f"need a finite positive arena side, got {spec.arena_side}")
    if not math.isfinite(spec.min_spacing):
        raise InvalidArgumentError(f"need a finite minimum spacing, got {spec.min_spacing}")
    if spec.n > spec.n_labels:
        raise InvalidArgumentError(f"n={spec.n} exceeds label space {spec.n_labels}")
    if spec.n_labels > MAX_LABELS:
        raise InvalidArgumentError(f"label space {spec.n_labels} exceeds {MAX_LABELS}")
    side = max(spec.min_spacing * (1 + 2**-30), spec.arena_side / 4096, 2.0**-1000)
    rng = random.Random(spec.seed)
    for attempt in range(1, spec.retry_cap + 1):
        labels = sorted(rng.sample(range(1, spec.n_labels + 1), spec.n))
        points: list[tuple[float, float]] = []
        boxes: dict[tuple[int, int], list[tuple[float, float]]] = {}
        placed = True
        for _ in range(spec.n):
            for _try in range(200):
                q = (rng.uniform(0.0, spec.arena_side), rng.uniform(0.0, spec.arena_side))
                k, j = grid_box(q, side)
                if all(
                    distance(q, o) >= spec.min_spacing
                    for dk in (-1, 0, 1)
                    for dj in (-1, 0, 1)
                    for o in boxes.get((k + dk, j + dj), ())
                ):
                    points.append(q)
                    boxes.setdefault((k, j), []).append(q)
                    break
            else:
                placed = False
                break
        if not placed:
            continue
        inst = make_instance(
            [(lab, x, y) for lab, (x, y) in zip(labels, points)],
            params,
            spec.n_labels,
        )
        try:
            build_graph(inst)
        except DisconnectedInstanceError:
            continue
        return inst
    raise RetryCapError(
        f"no connected instance in {spec.retry_cap} attempts "
        f"(acceptance rate 0/{spec.retry_cap}); grow the arena density"
    )


# ---------------------------------------------------------------------------
# Trace streaming.


# the trace file's write buffer, in bytes
_TRACE_BUFFER = 1 << 18
# a full-mode chunk of silent lines holds the rounds of one digit count
# between two multiples of _CHUNK, so only its last three digits vary; a
# compact-mode chunk holds _CHUNK silent spans
_CHUNK = 1000
# the ones, tens and hundreds digits of the rounds 0 to 999, one column
# each: runs of 10**w equal digits, cycling 0-9
_COLUMNS = [b"".join((b"%d" % k) * 10**w for k in range(10)) * 10 ** (2 - w) for w in range(3)]


class FileSink:
    """Streams one JSON record per round (full), or one per non-silent round
    and one per span of silent rounds within an execution (compact). Keeps
    no records.

    Every write happens inside emit() or skip(), straight from the
    records' arrays: a record's sorted-key JSON is assembled from string
    templates, byte for byte what json.dumps(..., sort_keys=True) writes.
    What the executions of one batch have in common is formatted once per
    batch, from its table (protocol._Table), when the first of them is
    written: each non-silent row's round offset, its "deliveries" text
    and its transmitters' message keys (see _rows_text). Each key's
    transmitter text is formatted once per execution, from its one message
    (the table holds each key's first transmission and sender); emit then
    only stitches in the phase, the round numbers and those texts.

    In full mode, silent lines differ only in the round number. They are
    written in chunks, each of the rounds of one digit count between two
    multiples of _CHUNK: the line repeated, with the digits the chunk's
    rounds share in place and each other digit column set by one strided
    slice assignment (see _full), so a stretch of any length takes one
    chunk's memory. emit lays its whole execution out so and splices its
    non-silent records in. Compact mode writes each emit() call's records
    with one write, and a silent record in chunks of _CHUNK spans. A
    silent record of several executions is written by one skip() call, as
    the same bytes as that many silent executions."""

    def __init__(self, fh: TextIO, mode: str):
        self.fh = fh
        self.mode = mode
        self._rows: dict = {}  # each batch's row texts (see _rows_text), by batch
        self._kinds: dict[str, str] = {}  # each message kind's JSON text

    def execution(self, ex: Execution) -> None:
        if ex.message is None:
            self.skip(ex.phase, ex.start, ex.size, ex.repeats)
        else:
            self.emit(ex)

    def emit(self, ex: Execution) -> None:
        """Write a non-silent execution: one record per non-silent round,
        with its silent stretches in between as skip() writes them."""
        batch, e = ex.plan.batch, ex.plan.index
        table = batch.table
        rows = self._rows.get(batch)
        if rows is None:
            rows = self._rows[batch] = _rows_text(table)
        k0, k1 = table.key_at[e], table.key_at[e + 1]
        kinds = self._kinds
        sent = []  # each message key's transmitter text
        for u, m in zip(table.sender[k0:k1], map(ex.message, table.first[k0:k1])):
            kind = kinds.get(m.kind)
            if kind is None:
                kind = kinds[m.kind] = json.dumps(m.kind)
            sent.append(
                '{"kind": %s, "label": %d, "payload": %s}' % (kind, u, _payload_text(m.payload))
            )
        phase = json.dumps(ex.phase)
        start = ex.start
        records = [
            (
                start + j,
                f'{head}{phase}, "round": {start + j}, '
                f'"transmitters": [{", ".join(map(sent.__getitem__, keys))}]}}\n',
            )
            for j, head, keys in rows[table.row_at[e] : table.row_at[e + 1]]
        ]
        end = start + ex.size
        if self.mode == "full":
            self._full(phase, start, end, records)
            return
        parts = []
        cursor = start
        for r, record in records:
            if r > cursor:
                parts.append(_compact(phase, cursor, r - cursor))
            parts.append(record)
            cursor = r + 1
        if end > cursor:
            parts.append(_compact(phase, cursor, end - cursor))
        self.fh.write("".join(parts))

    def skip(self, phase: str, start_round: int, count: int, repeats: int = 1) -> None:
        """Write repeats consecutive spans of count silent rounds from
        start_round on."""
        if self.mode == "full":
            self._full(json.dumps(phase), start_round, start_round + count * repeats, ())
        else:
            phase = json.dumps(phase)
            for r in range(0, repeats, _CHUNK):
                n = min(_CHUNK, repeats - r)
                self.fh.write(_compact(phase, start_round + r * count, count, n))

    def _full(self, phase: str, start: int, end: int, records) -> None:
        """Write the full-mode records of the rounds start to end - 1:
        records' (round, text) pairs, in round order, and a silent record
        for every other round; phase is already JSON.

        Chunk by chunk, the silent line is repeated once per round, with
        the digits that all its rounds share already in place, and each
        of the other digit columns is written with one strided slice
        assignment. Within a chunk every line has one width, so a record
        replaces the silent line at (round - first round) * width."""
        head = b'{"deliveries": [], "phase": ' + phase.encode() + b', "round": '
        tail = b', "transmitters": []}\n'
        k = 0
        s = start
        while s < end:
            digits = str(s)
            d = len(digits)
            e = min(end, (s // _CHUNK + 1) * _CHUNK, 10**d)
            m = e - s
            low = min(d, len(_COLUMNS))  # the digits that vary within the chunk
            line = head + digits[: d - low].encode() + b"0" * low + tail
            width = len(line)
            buf = bytearray(line) * m
            ones = len(head) + d - 1  # the first line's ones digit
            o = s % _CHUNK
            for w in range(low):
                buf[ones - w :: width] = _COLUMNS[w][o : o + m]
            text = buf.decode()
            parts = []
            at = 0
            while k < len(records) and records[k][0] < e:
                r, record = records[k]
                off = (r - s) * width
                parts += (text[at:off], record)
                at = off + width
                k += 1
            parts.append(text[at:])
            self.fh.write("".join(parts))
            s = e


def _compact(phase: str, start_round: int, count: int, repeats: int = 1) -> str:
    """The compact records of repeats consecutive spans of count silent
    rounds; phase is already JSON."""
    head = f'{{"phase": {phase}, "round_start": '
    tail = f', "silent": {count}}}\n'
    end = start_round + count * repeats
    return f"{head}{(tail + head).join(map(str, range(start_round, end, count)))}{tail}"


def _payload_text(payload: tuple) -> str:
    """json.dumps(payload) for a tuple of ints and tuples: the tuple's str
    with the one-element tuples' trailing commas dropped and the
    parentheses turned into brackets."""
    return str(payload).replace(",)", ")").replace("(", "[").replace(")", "]")


def _rows_text(table) -> list[tuple[int, str, list[int]]]:
    """Each row of a batch's table (see protocol._Table), in order: its
    round offset, its record text up to the phase's value and its
    transmissions' message keys. A batch's deliveries repeat few (sender,
    receiver) pairs, so each distinct pair's text is formatted once."""
    row_tx, row_dl, key = table.row_tx, table.row_dl, table.key
    # labels are below 2**31: a pair is sender * 2**32 + receiver
    pair = table.dl[:, 1].astype(np.int64) << 32 | table.dl[:, 2]
    distinct, which = np.unique(pair, return_inverse=True)
    texts = ["[%d, %d]" % divmod(p, 1 << 32) for p in distinct.tolist()]
    pairs = list(map(texts.__getitem__, which.tolist()))
    heads = [
        f'{{"deliveries": [{", ".join(pairs[d0:d1])}], "phase": '
        for d0, d1 in zip(row_dl, row_dl[1:])
    ]
    keys = [key[t0:t1] for t0, t1 in zip(row_tx, row_tx[1:])]
    return list(zip(table.rounds.tolist(), heads, keys))


# ---------------------------------------------------------------------------
# Runs.


def _family_report(fams: Families, delta: int) -> list[dict]:
    return [
        {
            "kind": fam.kind,
            "n_labels": fam.n_labels,
            "c": fam.c,
            "k": fam.k,
            "m": fam.m,
            "size": fam.size,
            "q": fam.q,
            "K": fam.K,
            "P": fam.P,
        }
        for fam in [fams.base_ssf(), fams.pair_ssf(), *fams.leader_selectors(delta)]
    ]


def _c_r(rounds: int, delta: int, n_labels: int) -> float:
    """The fitted constant C_r in rounds <= C_r * Delta * lg(N)^2."""
    lg = max(1.0, math.log2(n_labels))
    return rounds / (max(1, delta) * lg * lg)


def run(config: RunConfig) -> int:
    """Execute the full pipeline; returns the process exit status.

    An earlier run's report and trace are removed first, so a run that
    fails leaves none of them behind. instance.json stays: it may be the
    instance this run loads. A trace mode outside TRACE_MODES is rejected
    before anything is removed or written."""
    if config.trace_mode not in TRACE_MODES:
        raise InvalidArgumentError(f"trace mode {config.trace_mode!r} not in {TRACE_MODES}")
    for name in ("report.json", "trace.jsonl"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(config.out_dir, name))
    if config.instance_path:
        inst = load_instance(config.instance_path)
        os.makedirs(config.out_dir, exist_ok=True)
    elif config.generator:
        inst = generate(config.generator, config.params)
        os.makedirs(config.out_dir, exist_ok=True)
        save_instance(inst, os.path.join(config.out_dir, "instance.json"))
    else:
        raise ValueError("config needs an instance path or a generator spec")

    engine = PhysicsEngine(inst)  # one engine for the graph and the run
    graph = engine.graph()
    proto = config.protocol
    trace_path = os.path.join(config.out_dir, "trace.jsonl")
    if config.trace_mode == "off":
        result = backbone_creation(inst, proto, engine=engine)
    else:
        with open(trace_path, "w", encoding="utf-8", buffering=_TRACE_BUFFER) as fh:
            result = backbone_creation(inst, proto, FileSink(fh, config.trace_mode), engine)

    verdicts = run_all_checks(result, inst, graph)
    report = {
        "version": __version__,
        "config": {**asdict(proto), "params": asdict(inst.params)},
        "instance": {"n": inst.n, "n_labels": inst.n_labels, "delta": graph.delta},
        "result": {
            "leaders": list(result.leaders),
            "helpers": list(result.helpers),
            "edges": [list(e) for e in result.backbone_edges],
            "rounds_used": result.rounds_used,
            "two_hop": {f"{s},{t}": h for (s, t), h in sorted(result.two_hop.items())},
            "three_hop": {
                f"{s},{t}": list(hs) for (s, t), hs in sorted(result.three_hop.items())
            },
        },
        "round_fit": {"c_r": _c_r(result.rounds_used, graph.delta, inst.n_labels)},
        "families": _family_report(Families.for_run(inst, proto), graph.delta),
        "verdicts": [v.as_dict() for v in verdicts],
    }
    with open(os.path.join(config.out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.check} {v.metrics}")
    print(f"rounds={result.rounds_used} leaders={len(result.leaders)} helpers={len(result.helpers)}")
    return 0 if all(v.passed for v in verdicts) else 1


# ---------------------------------------------------------------------------
# Sweeps.


DEFAULT_SWEEP_LABELS = (64, 256, 1024)
DEFAULT_SWEEP_DELTAS = (4, 8, 12, 16, 20, 24)
SWEEP_SEED = 7  # each cell's generator seeds derive from this one
SWEEP_MIN_N = 8  # the fewest stations a sweep cell places
SWEEP_PHASES = (
    "leader-election",
    "neighborhood-inform",
    "two-hop-connection",
    "token-passing",
    "three-hop-connection",
)


def _phase_rounds(executions: Sequence[Execution]) -> dict[str, int]:
    """Rounds of each protocol, keyed by the part of the phase name before
    its first '/' (e.g. "token-passing")."""
    out: dict[str, int] = {}
    for ex in executions:
        key = ex.phase.split("/", 1)[0]
        out[key] = out.get(key, 0) + ex.size * ex.repeats
    return out


def _selector_sizes(row: dict) -> str:
    return ",".join(str(sel["size"]) for sel in row["selectors"])


def sweep(
    config: RunConfig,
    n_labels_list: Sequence[int] = DEFAULT_SWEEP_LABELS,
    delta_targets: Sequence[int] = DEFAULT_SWEEP_DELTAS,
) -> dict:
    """Round-complexity sweep: per-cell rounds_used, Delta and the fitted
    constant in rounds <= C_r * Delta * lg(N)^2, plus a stability summary.

    Each row also holds the rounds of each protocol phase (`phase_rounds`,
    summed over the run's executions), the selection bound c, and the sizes
    of the families the run executed: the base ssf, the pair ssf and leader
    election's selector of each degree bucket. Nothing is written until
    every cell has run."""
    rows = []
    r = broadcast_range(config.params)
    for n_labels in n_labels_list:
        for target in delta_targets:
            # scale n with the degree target: sparse connected layouts need
            # few nodes, dense ones need enough to reach the target degree
            n_cell = max(SWEEP_MIN_N, min(56, 3 * target, n_labels - 4))
            side = math.sqrt(n_cell * math.pi / max(2.0, 0.75 * target)) * r
            best = None
            best_gap = 10**9
            for bump in range(14):
                spec = GeneratorSpec(
                    n=n_cell,
                    arena_side=side,
                    seed=SWEEP_SEED + 1000 * bump + 31 * target,
                    n_labels=n_labels,
                    retry_cap=400,
                )
                try:
                    cand = generate(spec, config.params)
                except RetryCapError:
                    side *= 0.88  # densify until connectivity is reachable
                    continue
                cand_engine = PhysicsEngine(cand)
                cand_graph = cand_engine.graph()
                gap = abs(cand_graph.delta - target)
                if gap < best_gap:
                    best, best_gap = (cand, cand_engine, cand_graph), gap
                if gap <= max(1, target // 8):
                    break  # within tolerance, so also the closest so far
                side *= 0.95 if cand_graph.delta < target else 1.05
            inst, engine, graph = best
            result = backbone_creation(inst, config.protocol, engine=engine)
            fams = Families.for_run(inst, config.protocol)
            ssf = fams.base_ssf()
            k_fit = ssf.size / (fams.c**2 * math.log2(n_labels))
            rows.append(
                {
                    "n": inst.n,
                    "n_labels": n_labels,
                    "delta_target": target,
                    "delta": graph.delta,
                    "rounds": result.rounds_used,
                    "c_r": _c_r(result.rounds_used, graph.delta, n_labels),
                    "c": fams.c,
                    "ssf_size": ssf.size,
                    "k_fit": k_fit,
                    "pair_size": fams.pair_ssf().size,
                    "selectors": [
                        {"k": fam.k, "m": fam.m, "size": fam.size}
                        for fam in fams.leader_selectors(graph.delta)
                    ],
                    "phase_rounds": _phase_rounds(result.traces.executions),
                }
            )
    c_rs = sorted(row["c_r"] for row in rows)
    median = c_rs[len(c_rs) // 2]
    spread = max(abs(x - median) / median for x in c_rs) if median else 0.0
    summary = {
        "rows": rows,
        "c_r_median": median,
        "c_r_max_rel_spread": spread,
        "stable_within_25pct": spread <= 0.25,
    }
    os.makedirs(config.out_dir, exist_ok=True)
    table_path = os.path.join(config.out_dir, "sweep.tsv")
    with open(table_path, "w", encoding="utf-8") as fh:
        cols = ["n", "n_labels", "delta_target", "delta", "rounds", "c_r", "ssf_size", "k_fit"]
        cols += ["pair_size", "selector_sizes", *SWEEP_PHASES]
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            cells = {**row, "selector_sizes": _selector_sizes(row), **row["phase_rounds"]}
            fh.write("\t".join(str(cells.get(c, 0)) for c in cols) + "\n")
    with open(os.path.join(config.out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for row in rows:
        phases = " ".join(
            f"{p}={row['phase_rounds'].get(p, 0)}" for p in SWEEP_PHASES
        )
        print(
            f"N={row['n_labels']:<5} delta={row['delta']:<3} rounds={row['rounds']:<9} "
            f"C_r={row['c_r']:.1f} ssf={row['ssf_size']} pair={row['pair_size']} "
            f"selectors={_selector_sizes(row)} {phases}"
        )
    print(f"C_r median={median:.1f} max spread={spread:.1%}")
    return summary


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(SinrParams):
        p.add_argument(f"--{f.name}", type=float, default=getattr(DEFAULT_PARAMS, f.name))


def _params_from(args: argparse.Namespace) -> SinrParams:
    try:
        return SinrParams(**{f.name: getattr(args, f.name) for f in fields(SinrParams)})
    except ValueError as exc:
        raise InvalidArgumentError(str(exc)) from exc


def _grid_from(path: str) -> tuple[Sequence[int], Sequence[int]]:
    """A sweep grid file's N and degree lists; a key it leaves out keeps
    its default. Each cell must be one the sweep can run (SWEEP_MIN_N)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            grid = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise InvalidArgumentError(f"cannot read grid file: {exc}") from exc
    if not isinstance(grid, dict):
        raise InvalidArgumentError(f"grid file must hold a JSON object, got {grid!r}")
    for key in sorted(grid.keys() & {"n_labels", "deltas"}):
        values = grid[key]
        if not (isinstance(values, list) and values and all(type(v) is int for v in values)):
            raise InvalidArgumentError(
                f"grid {key} must be a non-empty list of ints, got {values!r}"
            )
    labels = grid.get("n_labels", DEFAULT_SWEEP_LABELS)
    deltas = grid.get("deltas", DEFAULT_SWEEP_DELTAS)
    if not (SWEEP_MIN_N <= min(labels) and max(labels) <= MAX_LABELS and min(deltas) >= 1):
        raise InvalidArgumentError(
            f"grid n_labels {list(labels)} must lie in [{SWEEP_MIN_N}..{MAX_LABELS}]"
            f" and deltas {list(deltas)} be at least 1"
        )
    return labels, deltas


def _protocol_from(args: argparse.Namespace) -> ProtocolConfig:
    if args.demo_c < 1:
        raise InvalidArgumentError(f"need --demo-c >= 1, got {args.demo_c}")
    # sweep has no --no-demo: its runs keep ProtocolConfig's demo
    return ProtocolConfig(demo=getattr(args, "demo", ProtocolConfig.demo), demo_c=args.demo_c)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is only ever its full name, so a removed
    # flag that prefixes a kept one (--demo of --demo-c) is rejected
    parser = argparse.ArgumentParser(
        prog="sinr-backbone",
        description="Deterministic SINR backbone construction simulator",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a connected random instance", allow_abbrev=False)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--side", type=float, required=True, help="arena side in meters")
    g.add_argument("--spacing", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n-labels", type=int, default=64)
    g.add_argument("--out", default="instance.json")
    _add_param_flags(g)

    r = sub.add_parser("run", help="run backbone creation and verify", allow_abbrev=False)
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance file path")
    src.add_argument("--n", type=int, help="generate an instance of this size")
    r.add_argument("--side", type=float, default=4.0)
    r.add_argument("--spacing", type=float, default=0.05)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--n-labels", type=int, default=64)
    r.add_argument(
        "--no-demo",
        dest="demo",
        action="store_false",
        help="use the dilution-derived ssf parameter instead of the demo c",
    )
    r.add_argument("--demo-c", type=int, default=ProtocolConfig.demo_c)
    r.add_argument("--out-dir", default="out")
    r.add_argument("--trace-mode", choices=TRACE_MODES, default="compact")
    _add_param_flags(r)

    s = sub.add_parser("sweep", help="round-complexity sweep over a grid", allow_abbrev=False)
    s.add_argument("--grid-file", help="JSON file with n_labels and delta lists")
    s.add_argument("--demo-c", type=int, default=ProtocolConfig.demo_c)
    s.add_argument("--out-dir", default="out")
    _add_param_flags(s)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            spec = GeneratorSpec(
                n=args.n,
                arena_side=args.side,
                min_spacing=args.spacing,
                seed=args.seed,
                n_labels=args.n_labels,
            )
            inst = generate(spec, _params_from(args))
            save_instance(inst, args.out)
            print(f"wrote {args.out} (n={inst.n}, N={inst.n_labels})")
            return 0
        if args.command == "run":
            cfg = RunConfig(
                params=_params_from(args),
                instance_path=args.instance,
                generator=None
                if args.instance
                else GeneratorSpec(
                    n=args.n,
                    arena_side=args.side,
                    min_spacing=args.spacing,
                    seed=args.seed,
                    n_labels=args.n_labels,
                ),
                protocol=_protocol_from(args),
                out_dir=args.out_dir,
                trace_mode=args.trace_mode,
            )
            return run(cfg)
        if args.command == "sweep":
            cfg = RunConfig(
                params=_params_from(args),
                protocol=_protocol_from(args),
                out_dir=args.out_dir,
            )
            if args.grid_file:
                sweep(cfg, *_grid_from(args.grid_file))
            else:
                sweep(cfg)
            return 0
        raise AssertionError(args.command)
    except SimulationError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
