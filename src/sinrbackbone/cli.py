"""Command-line interface: instance generation, runs, parameter sweeps."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from . import __version__
from .errors import RetryCapError, SimulationError
from .physical import (
    PhysicalInstance,
    SinrParams,
    broadcast_range,
    build_graph,
    load_instance,
    make_instance,
    save_instance,
)
from .protocol import (
    CollectSink,
    Execution,
    Families,
    ProtocolConfig,
    RoundTrace,
    backbone_creation,
)
from .verify import run_all_checks

DEFAULT_PARAMS = SinrParams(alpha=4.0, beta=1.0, noise=1.0, epsilon=0.5, power=1.5)


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
    family_seed: int = 1
    demo: bool = True
    demo_c: int = 4
    degree_bound: Optional[int] = None
    diameter_factor: float = 3.0
    diameter_slack: int = 4
    size_factor: float = 6.0
    exact_cap: int = 14
    force_exact: bool = False
    out_dir: str = "out"
    trace_mode: str = "compact"  # compact | full | off


def generate(spec: GeneratorSpec, params: SinrParams = DEFAULT_PARAMS) -> PhysicalInstance:
    """Seeded uniform placement with distinct labels, rejected until the
    communication graph is connected and minimum spacing holds."""
    if spec.n < 1:
        raise ValueError("need n >= 1")
    if spec.arena_side <= 0:
        raise ValueError("need a positive arena side")
    if spec.n > spec.n_labels:
        raise ValueError(f"n={spec.n} exceeds label space {spec.n_labels}")
    rng = random.Random(spec.seed)
    for attempt in range(1, spec.retry_cap + 1):
        labels = sorted(rng.sample(range(1, spec.n_labels + 1), spec.n))
        points: list[tuple[float, float]] = []
        placed = True
        for _ in range(spec.n):
            for _try in range(200):
                x = rng.uniform(0.0, spec.arena_side)
                y = rng.uniform(0.0, spec.arena_side)
                if all(
                    math.hypot(x - a, y - b) >= spec.min_spacing for a, b in points
                ):
                    points.append((x, y))
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
        except SimulationError:
            continue
        return inst
    raise RetryCapError(
        f"no connected instance in {spec.retry_cap} attempts "
        f"(acceptance rate 0/{spec.retry_cap}); grow the arena density"
    )


# ---------------------------------------------------------------------------
# Trace streaming.


class FileSink(CollectSink):
    """Streams one JSON record per round (full) or silent-span records
    (compact) while keeping counters for the report. Keeps no records."""

    def __init__(self, fh: TextIO, mode: str):
        super().__init__()
        self.fh = fh
        self.mode = mode

    def execution(self, ex: Execution) -> None:
        ex.replay(self)

    def emit(self, trace: RoundTrace) -> None:
        if trace.transmitters:
            self.fh.write(
                json.dumps(
                    {
                        "round": trace.round,
                        "phase": trace.phase,
                        "transmitters": [
                            {"label": lab, "kind": m.kind, "payload": _payload_json(m.payload)}
                            for lab, m in trace.transmitters
                        ],
                        "deliveries": [[s, r] for s, r in trace.deliveries],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        elif self.mode == "full":
            self.fh.write(
                json.dumps(
                    {
                        "round": trace.round,
                        "phase": trace.phase,
                        "transmitters": [],
                        "deliveries": [],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        if not trace.transmitters:
            self.silent_rounds += 1

    def skip(self, phase: str, start_round: int, count: int) -> None:
        self.silent_rounds += count
        if self.mode == "full":
            # silent-round records differ only in the round number, so the
            # sorted-key JSON is built once around it
            head = f'{{"deliveries": [], "phase": {json.dumps(phase)}, "round": '
            tail = ', "transmitters": []}\n'
            self.fh.write(
                "".join(f"{head}{start_round + k}{tail}" for k in range(count))
            )
        else:
            self.fh.write(
                json.dumps(
                    {"phase": phase, "round_start": start_round, "silent": count},
                    sort_keys=True,
                )
                + "\n"
            )


class PhaseRoundSink(CollectSink):
    """Counts the rounds of each protocol, keyed by the part of the phase
    name before its first '/' (e.g. "token-passing")."""

    def __init__(self) -> None:
        super().__init__()
        self.phase_rounds: dict[str, int] = {}

    def _count(self, phase: str, count: int) -> None:
        key = phase.split("/", 1)[0]
        self.phase_rounds[key] = self.phase_rounds.get(key, 0) + count

    def execution(self, ex: Execution) -> None:
        super().execution(ex)
        self._count(ex.phase, ex.size)

    def skip(self, phase: str, start_round: int, count: int) -> None:
        super().skip(phase, start_round, count)
        self._count(phase, count)


def _payload_json(payload):
    return [list(x) if isinstance(x, tuple) else x for x in payload]


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
            "certified": fam.certified,
            "verification": fam.verification,
        }
        for fam in [fams.base_ssf(), fams.pair_ssf(), *fams.leader_selectors(delta)]
    ]


def run(config: RunConfig) -> int:
    """Execute the full pipeline; returns the process exit status."""
    os.makedirs(config.out_dir, exist_ok=True)
    if config.instance_path:
        inst = load_instance(config.instance_path)
    elif config.generator:
        inst = generate(config.generator, config.params)
        save_instance(inst, os.path.join(config.out_dir, "instance.json"))
    else:
        raise ValueError("config needs an instance path or a generator spec")

    graph = build_graph(inst)
    proto = ProtocolConfig(
        family_seed=config.family_seed, demo=config.demo, demo_c=config.demo_c
    )
    trace_path = os.path.join(config.out_dir, "trace.jsonl")
    if config.trace_mode == "off":
        sink: CollectSink = CollectSink()
        result = backbone_creation(inst, proto, sink)
    else:
        with open(trace_path, "w", encoding="utf-8") as fh:
            sink = FileSink(fh, config.trace_mode)
            result = backbone_creation(inst, proto, sink)

    verdicts = run_all_checks(
        result,
        inst,
        graph,
        degree_bound=config.degree_bound,
        diameter_factor=config.diameter_factor,
        diameter_slack=config.diameter_slack,
        size_factor=config.size_factor,
        exact_cap=config.exact_cap,
        force_exact=config.force_exact,
    )
    lg = max(1.0, math.log2(inst.n_labels))
    report = {
        "version": __version__,
        "config": {
            "demo": config.demo,
            "demo_c": config.demo_c,
            "family_seed": config.family_seed,
            "params": {
                "alpha": inst.params.alpha,
                "beta": inst.params.beta,
                "noise": inst.params.noise,
                "epsilon": inst.params.epsilon,
                "power": inst.params.power,
            },
        },
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
        "round_fit": {
            "c_r": result.rounds_used / (max(1, graph.delta) * lg * lg),
        },
        "families": _family_report(Families.for_run(inst, proto), graph.delta),
        "verdicts": [v.as_dict() for v in verdicts],
    }
    with open(os.path.join(config.out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.check} {v.metrics}")
    print(f"rounds={result.rounds_used} leaders={len(result.leaders)} helpers={len(result.helpers)}")
    return 0 if all(v.passed for v in verdicts) else 1


# ---------------------------------------------------------------------------
# Sweeps.


DEFAULT_SWEEP_LABELS = (64, 256, 1024)
DEFAULT_SWEEP_DELTAS = (4, 8, 12, 16, 20, 24)
SWEEP_PHASES = (
    "leader-election",
    "neighborhood-inform",
    "two-hop-connection",
    "token-passing",
    "three-hop-connection",
)


def _selector_sizes(row: dict) -> str:
    return ",".join(str(sel["size"]) for sel in row["selectors"])


def sweep(
    config: RunConfig,
    n_labels_list: Sequence[int] = DEFAULT_SWEEP_LABELS,
    delta_targets: Sequence[int] = DEFAULT_SWEEP_DELTAS,
    n: int = 36,
    base_seed: int = 7,
) -> dict:
    """Round-complexity sweep: per-cell rounds_used, Delta and the fitted
    constant in rounds <= C_r * Delta * lg(N)^2, plus a stability summary.

    Each row also holds the rounds of each protocol phase (`phase_rounds`,
    counted from the run's trace), the selection bound c, and the sizes of
    the families the run executed: the base ssf, the pair ssf and leader
    election's selector of each degree bucket."""
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    r = broadcast_range(config.params)
    for n_labels in n_labels_list:
        for target in delta_targets:
            # scale n with the degree target: sparse connected layouts need
            # few nodes, dense ones need enough to reach the target degree
            n_cell = max(8, min(56, 3 * target, n_labels - 4))
            side = math.sqrt(n_cell * math.pi / max(2.0, 0.75 * target)) * r
            inst = best = None
            best_gap = 10**9
            for bump in range(14):
                spec = GeneratorSpec(
                    n=n_cell,
                    arena_side=side,
                    seed=base_seed + 1000 * bump + 31 * target,
                    n_labels=n_labels,
                    retry_cap=400,
                )
                try:
                    cand = generate(spec, config.params)
                except RetryCapError:
                    side *= 0.88  # densify until connectivity is reachable
                    continue
                delta = build_graph(cand).delta
                gap = abs(delta - target)
                if gap < best_gap:
                    best, best_gap = cand, gap
                if gap <= max(1, target // 8):
                    inst = cand
                    break
                side *= 0.95 if delta < target else 1.05
            if inst is None:
                inst = best
            graph = build_graph(inst)
            proto = ProtocolConfig(
                family_seed=config.family_seed, demo=config.demo, demo_c=config.demo_c
            )
            sink = PhaseRoundSink()
            result = backbone_creation(inst, proto, sink)
            lg = math.log2(n_labels)
            c_r = result.rounds_used / (max(1, graph.delta) * lg * lg)
            fams = Families.for_run(inst, proto)  # the run's, from the cache
            ssf = fams.base_ssf()
            k_fit = ssf.size / (fams.c**2 * lg)
            rows.append(
                {
                    "n": inst.n,
                    "n_labels": n_labels,
                    "delta_target": target,
                    "delta": graph.delta,
                    "rounds": result.rounds_used,
                    "c_r": c_r,
                    "c": fams.c,
                    "ssf_size": ssf.size,
                    "k_fit": k_fit,
                    "pair_size": fams.pair_ssf().size,
                    "selectors": [
                        {"k": fam.k, "m": fam.m, "size": fam.size}
                        for fam in fams.leader_selectors(graph.delta)
                    ],
                    "phase_rounds": sink.phase_rounds,
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
    table_path = os.path.join(config.out_dir, "sweep.tsv")
    with open(table_path, "w", encoding="utf-8") as fh:
        cols = ["n", "n_labels", "delta_target", "delta", "rounds", "c_r", "ssf_size", "k_fit"]
        cols += ["pair_size", "selector_sizes", *SWEEP_PHASES]
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            cells = {**row, "selector_sizes": _selector_sizes(row), **row["phase_rounds"]}
            fh.write("\t".join(str(cells.get(c, 0)) for c in cols) + "\n")
    with open(os.path.join(config.out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    p.add_argument("--alpha", type=float, default=DEFAULT_PARAMS.alpha)
    p.add_argument("--beta", type=float, default=DEFAULT_PARAMS.beta)
    p.add_argument("--noise", type=float, default=DEFAULT_PARAMS.noise)
    p.add_argument("--epsilon", type=float, default=DEFAULT_PARAMS.epsilon)
    p.add_argument("--power", type=float, default=DEFAULT_PARAMS.power)


def _params_from(args: argparse.Namespace) -> SinrParams:
    return SinrParams(
        alpha=args.alpha,
        beta=args.beta,
        noise=args.noise,
        epsilon=args.epsilon,
        power=args.power,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinr-backbone",
        description="Deterministic SINR backbone construction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a connected random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--side", type=float, required=True, help="arena side in meters")
    g.add_argument("--spacing", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n-labels", type=int, default=64)
    g.add_argument("--out", default="instance.json")
    _add_param_flags(g)

    r = sub.add_parser("run", help="run backbone creation and verify")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance file path")
    src.add_argument("--n", type=int, help="generate an instance of this size")
    r.add_argument("--side", type=float, default=4.0)
    r.add_argument("--spacing", type=float, default=0.05)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--n-labels", type=int, default=64)
    r.add_argument("--family-seed", type=int, default=1)
    r.add_argument("--demo", dest="demo", action="store_true", default=True)
    r.add_argument(
        "--no-demo",
        dest="demo",
        action="store_false",
        help="use the dilution-derived ssf parameter instead of the demo c",
    )
    r.add_argument("--demo-c", type=int, default=4)
    r.add_argument("--out-dir", default="out")
    r.add_argument("--trace-mode", choices=("compact", "full", "off"), default="compact")
    r.add_argument("--degree-bound", type=int, default=None)
    r.add_argument("--diameter-factor", type=float, default=3.0)
    r.add_argument("--diameter-slack", type=int, default=4)
    r.add_argument("--size-factor", type=float, default=6.0)
    r.add_argument("--exact-cap", type=int, default=14)
    r.add_argument(
        "--force-exact-cds",
        action="store_true",
        help="force the exact minimum-CDS branch even past the size cap",
    )
    _add_param_flags(r)

    s = sub.add_parser("sweep", help="round-complexity sweep over a grid")
    s.add_argument("--grid-file", help="JSON file with n_labels and delta lists")
    s.add_argument("--n", type=int, default=36)
    s.add_argument("--family-seed", type=int, default=1)
    s.add_argument("--demo-c", type=int, default=4)
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
                family_seed=args.family_seed,
                demo=args.demo,
                demo_c=args.demo_c,
                degree_bound=args.degree_bound,
                diameter_factor=args.diameter_factor,
                diameter_slack=args.diameter_slack,
                size_factor=args.size_factor,
                exact_cap=args.exact_cap,
                force_exact=args.force_exact_cds,
                out_dir=args.out_dir,
                trace_mode=args.trace_mode,
            )
            return run(cfg)
        if args.command == "sweep":
            cfg = RunConfig(
                params=_params_from(args),
                family_seed=args.family_seed,
                demo_c=args.demo_c,
                out_dir=args.out_dir,
            )
            if args.grid_file:
                with open(args.grid_file, "r", encoding="utf-8") as fh:
                    grid = json.load(fh)
                summary = sweep(
                    cfg,
                    n_labels_list=grid.get("n_labels", DEFAULT_SWEEP_LABELS),
                    delta_targets=grid.get("deltas", DEFAULT_SWEEP_DELTAS),
                    n=grid.get("n", args.n),
                )
            else:
                summary = sweep(cfg, n=args.n)
            return 0
        raise AssertionError(args.command)
    except SimulationError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
