"""Command-line interface: instance generation, runs, parameter sweeps."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Optional, Sequence

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
# 10, 100, ..., 10**9: an int below 10**10 has one digit more than the
# powers it reaches, and every label is below 2**31
_POWERS = 10 ** np.arange(1, 10, dtype=np.int32)
# a round's record: the text up to the phase's value (see _rows), the
# phase, the round and its transmitters' texts; a silent round's starts
# with _SILENT_HEAD and has no transmitter
_RECORD = b'%s%s, "round": %d, "transmitters": [%s]}\n'
_SILENT_HEAD = b'{"deliveries": [], "phase": '
# full mode formats every round of a chunk in bulk when at least one round
# in _DENSE is non-silent, and otherwise splices the records into the
# silent chunk: a bulk-formatted round costs about 20 silent lines of the
# chunk and a spliced record about 3 bulk-formatted rounds, so in timings
# of chunks of 44 to 1,000 rounds bulk formatting paid from a fifth to a
# third of the rounds on
_DENSE = 4


class FileSink:
    """Streams one JSON record per round (full), or one per non-silent round
    and one per span of silent rounds within an execution (compact), as
    bytes to a binary file. Keeps no records.

    Every write happens inside emit() or skip(), straight from the
    records' arrays: a record's sorted-key JSON is assembled from byte
    templates, byte for byte what json.dumps(..., sort_keys=True) writes.
    What the executions of one batch have in common is formatted once per
    batch, from its table (protocol._Table), when the first of them is
    written: each non-silent row's round offset, its "deliveries" text
    and its transmitters' message keys (see _rows). The transmitter texts
    are the execution's own (Execution.texts()), rendered once per
    execution and message key by the writer its phase handed
    Simulator.execute. emit then only stitches in the phase, the round
    numbers and those texts; a row with one transmitter takes its key's
    text as it is.

    In full mode, silent lines differ only in the round number. They are
    written in chunks, each of the rounds of one digit count between two
    multiples of _CHUNK: the line repeated, with the digits the chunk's
    rounds share in place and each other digit column set by one strided
    slice assignment (see _full), so a stretch of any length takes one
    chunk's memory. emit writes its execution in the same chunks: a chunk
    with few non-silent rounds is laid out so, with their records spliced
    in; any other is one bulk format of all its rounds (see emit), which
    also takes one chunk's memory. Compact mode writes each emit() call's
    records with one write, and a silent record in chunks of _CHUNK spans. A
    silent record of several executions is written by one skip() call, as
    the same bytes as that many silent executions."""

    def __init__(self, fh: BinaryIO, mode: str):
        self.fh = fh
        self.mode = mode
        self._rows: dict = {}  # each batch's rows (see _rows), by batch
        self._phases: dict[str, bytes] = {}  # each phase's JSON text

    def execution(self, ex: Execution) -> None:
        if ex.batch is None:
            self.skip(ex.phase, ex.start, ex.size, ex.repeats)
        else:
            self.emit(ex)

    def _phase(self, phase: str) -> bytes:
        text = self._phases.get(phase)
        if text is None:  # json.dumps(phase), without its argument checks
            text = self._phases[phase] = encode_basestring_ascii(phase).encode()
        return text

    def emit(self, ex: Execution) -> None:
        """Write a non-silent execution: one record per non-silent round,
        with its silent stretches in between as skip() writes them.

        Records are formatted in bulk (see _records). Full mode writes
        the execution in the chunks _full writes silent rounds in. In a
        chunk where at least one round in _DENSE is non-silent, every
        round is formatted in bulk, a silent one with the silent head and
        no transmitter; in any other, the rows' records are formatted in
        bulk and spliced into the silent chunk (see _full). Compact mode
        joins the rows' records with the silent spans between them."""
        batch, e = ex.batch, ex.index
        table = batch.table
        rows = self._rows.get(batch)
        if rows is None:
            rows = self._rows[batch] = _rows(table)
        offsets, heads, first, several = rows
        r0, r1 = table.row_at[e], table.row_at[e + 1]
        offsets, heads = offsets[r0:r1], heads[r0:r1]
        sent = ex.texts()  # each message key's transmitter text
        transmitters = list(map(sent.__getitem__, first[r0:r1]))
        for r, keys in several[e]:
            transmitters[r] = b", ".join(map(sent.__getitem__, keys))
        phase = self._phase(ex.phase)
        start, end = ex.start, ex.start + ex.size
        if self.mode == "full":
            k = 0
            s = start
            while s < end:
                t = min(end, (s // _CHUNK + 1) * _CHUNK)  # the chunk's end, as _full's
                stop = bisect_left(offsets, t - start, k)  # its rows are k : stop
                rounds = [start + j for j in offsets[k:stop]]
                if _DENSE * len(rounds) < t - s:
                    records = _records(heads[k:stop], phase, rounds, transmitters[k:stop])
                    self._full(phase, s, t, rounds, records.splitlines(keepends=True))
                else:
                    chunk_heads, chunk_texts = [_SILENT_HEAD] * (t - s), [b""] * (t - s)
                    for r, head, text in zip(rounds, heads[k:stop], transmitters[k:stop]):
                        chunk_heads[r - s], chunk_texts[r - s] = head, text
                    self.fh.write(_records(chunk_heads, phase, range(s, t), chunk_texts))
                k, s = stop, t
            return
        rounds = list(map(start.__add__, offsets))
        records = _records(heads, phase, rounds, transmitters).splitlines(keepends=True)
        parts = []
        cursor = start
        for r, record in zip(rounds, records):
            if r > cursor:
                parts.append(_compact(phase, cursor, r - cursor))
            parts.append(record)
            cursor = r + 1
        if end > cursor:
            parts.append(_compact(phase, cursor, end - cursor))
        self.fh.write(b"".join(parts))

    def skip(self, phase: str, start_round: int, count: int, repeats: int = 1) -> None:
        """Write repeats consecutive spans of count silent rounds from
        start_round on."""
        phase = self._phase(phase)
        if self.mode == "full":
            self._full(phase, start_round, start_round + count * repeats)
        else:
            for r in range(0, repeats, _CHUNK):
                n = min(_CHUNK, repeats - r)
                self.fh.write(_compact(phase, start_round + r * count, count, n))

    def _full(self, phase: bytes, start: int, end: int, rounds=(), records=()) -> None:
        """Write the full-mode records of the rounds start to end - 1:
        records, those of rounds (in round order), and a silent record for
        every other round; phase is already JSON.

        Chunk by chunk, the silent line is repeated once per round, with
        the digits that all its rounds share already in place, and each
        of the other digit columns is written with one strided slice
        assignment. Within a chunk every line has one width, so a record
        replaces the silent line at (round - first round) * width; the
        chunk's other lines go to the file as views of it."""
        head = _SILENT_HEAD + phase + b', "round": '
        tail = b', "transmitters": []}\n'
        k = 0
        s = start
        while s < end:
            digits = b"%d" % s
            d = len(digits)
            e = min(end, (s // _CHUNK + 1) * _CHUNK, 10**d)
            m = e - s
            low = min(d, len(_COLUMNS))  # the digits that vary within the chunk
            line = head + digits[: d - low] + b"0" * low + tail
            width = len(line)
            buf = bytearray(line) * m
            ones = len(head) + d - 1  # the first line's ones digit
            o = s % _CHUNK
            for w in range(low):
                buf[ones - w :: width] = _COLUMNS[w][o : o + m]
            stop = bisect_left(rounds, e, k)  # the records of the chunk
            if stop > k:
                view = memoryview(buf)
                parts = []
                at = 0
                for r, record in zip(rounds[k:stop], records[k:stop]):
                    off = (r - s) * width
                    parts += (view[at:off], record)
                    at = off + width
                parts.append(view[at:])
                buf = b"".join(parts)
                k = stop
            self.fh.write(buf)
            s = e


def _compact(phase: bytes, start_round: int, count: int, repeats: int = 1) -> bytes:
    """The compact records of repeats consecutive spans of count silent
    rounds; phase is already JSON."""
    head = b'{"phase": %s, "round_start": ' % phase
    tail = b', "silent": %d}\n' % count
    end = start_round + count * repeats
    return head + (tail + head).join(map(b"%d".__mod__, range(start_round, end, count))) + tail


def _records(heads: Sequence[bytes], phase: bytes, rounds, transmitters) -> bytes:
    """The records of rounds, in order, each from its head, the phase, its
    round and its transmitters' text: one %-format of _RECORD repeated once
    per round, its four values per round laid into one list by strided
    slice assignments."""
    values = [phase] * (4 * len(heads))
    values[0::4] = heads
    values[2::4] = rounds
    values[3::4] = transmitters
    return _RECORD * len(heads) % tuple(values)


def _digits(x: np.ndarray) -> np.ndarray:
    """The decimal digits of each non-negative int in x, all below 10**10."""
    return _POWERS.searchsorted(x, side="right") + 1


def _pairs_text(pairs: np.ndarray, at: Sequence[int], template: bytes = b"[%s]") -> list[bytes]:
    """The JSON text of each group of (sender, receiver) rows of pairs,
    group g being rows at[g] : at[g + 1], filled into template: with the
    default one, json.dumps of its [sender, receiver] lists. Every pair is
    written by one %-format, each after ", ", and a group's text is sliced
    out at offsets summed from the pairs' digit widths."""
    text = b", [%d, %d]" * len(pairs) % tuple(pairs.ravel().tolist())
    width = _digits(pairs[:, 0]) + _digits(pairs[:, 1]) + 6  # and ", [", ", ", "]"
    ends = [0, *width.cumsum().tolist()]
    # a group's text starts after its first pair's ", "
    return [template % text[ends[a] + 2 : ends[b]] for a, b in zip(at, at[1:])]


def _rows(table) -> tuple[list[int], list[bytes], list[int], list[list[tuple[int, list[int]]]]]:
    """What the rows of a batch's table (see protocol._Table) hold for
    every execution of their schedules: each row's round offset, its
    record text up to the phase's value, and the message key of its first
    transmission; and, for each schedule, each of its rows that has
    several transmissions, as (row within the schedule, their keys)."""
    key, row_tx, row_at = table.key, table.row_tx, table.row_at
    heads = _pairs_text(table.dl[:, 1:], table.row_dl, b'{"deliveries": [%s], "phase": ')
    first = [key[a] for a in row_tx[:-1]]
    several: list[list[tuple[int, list[int]]]] = [[] for _ in row_at[1:]]
    many = (np.diff(row_tx) > 1).nonzero()[0]
    for r, e in zip(many.tolist(), (np.searchsorted(row_at, many, "right") - 1).tolist()):
        several[e].append((r - row_at[e], key[row_tx[r] : row_tx[r + 1]]))
    return table.rounds.tolist(), heads, first, several


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

    An earlier run's report and trace are removed first, and a run that
    fails while it writes its trace removes that trace, so a run that
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
        try:
            with open(trace_path, "wb", buffering=_TRACE_BUFFER) as fh:
                result = backbone_creation(inst, proto, FileSink(fh, config.trace_mode), engine)
        except BaseException:
            # a run that fails leaves no trace of the rounds before it failed
            with contextlib.suppress(FileNotFoundError):
                os.remove(trace_path)
            raise

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
