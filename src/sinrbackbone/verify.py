"""Ground-truth verification of protocol postconditions and backbone properties.

Checks here may read station positions (pivotal grid, dilution trials);
they run after a protocol completes and never feed information back into
node decisions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from . import physical
from .errors import ExactBranchTooLargeError
from .physical import (
    CommGraph,
    PhysicalInstance,
    PhysicsEngine,
    SinrParams,
    broadcast_range,
    components,
    distance,
    grid_box,
    grid_index,
    make_instance,
    pivotal_side,
)
from .protocol import BackboneResult

Adjacency = Mapping[int, Sequence[int]]

DIAMETER_FACTOR = 3.0  # backbone diameter <= factor * graph diameter + slack
DIAMETER_SLACK = 4
SIZE_FACTOR = 6.0  # c_s: backbone size <= c_s * minimum CDS size
EXACT_CAP = 14  # largest n whose size ratio is taken against the exact minimum CDS
TRIAL_BOXES = 16  # a dilution trial places stations in TRIAL_BOXES^2 pivotal boxes
LATTICE_SPAN = 100  # the adversarial lattice's cells run -LATTICE_SPAN..LATTICE_SPAN


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    witness: Optional[tuple] = None
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
            "metrics": dict(sorted(self.metrics.items())),
        }


# ---------------------------------------------------------------------------
# Graph helpers on plain adjacency mappings.


def bfs_distances(adj: Adjacency, src: int, radius: Optional[int] = None) -> dict[int, int]:
    """Hop distance from src of every node it reaches; with a radius, of
    every node within that many hops."""
    dist = {src: 0}
    frontier = [src]
    while frontier and (radius is None or dist[frontier[0]] < radius):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _arcs(adj: Adjacency) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The nodes in label order and every arc u -> v of adj as (source,
    target) arrays of indices into that order."""
    nodes = sorted(adj)
    index = {u: i for i, u in enumerate(nodes)}
    src = np.repeat(np.arange(len(nodes)), [len(adj[u]) for u in nodes])
    dst = np.fromiter((index[v] for u in nodes for v in adj[u]), np.intp, len(src))
    return nodes, src, dst


def _bit_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean rows (r, n) packed into rows of ceil(n/64) uint64 words."""
    r, n = rows.shape
    padded = np.zeros((r, -(-n // 64) * 64), bool)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def diameter(adj: Adjacency) -> int:
    """Largest hop distance from a node to another; -1 if some node does not
    reach every other, 0 for no nodes.

    One breadth-first search from all sources at once: row i of `reach` is
    a bit row of the nodes that reach node i within `levels` hops, and one
    level ORs, for every node, the rows of its closed in-neighbourhood (a
    CSR list) in one `np.bitwise_or.reduceat`, O(m n / 64) word operations.
    The diameter is the number of levels until every row is full.
    """
    nodes, src, dst = _arcs(adj)
    loops = np.arange(len(nodes))
    src, dst = np.concatenate([loops, src]), np.concatenate([loops, dst])
    order = np.argsort(dst, kind="stable")
    src, starts = src[order], np.searchsorted(dst[order], loops)
    full = _bit_rows(np.ones((1, len(nodes)), bool))
    reach = _bit_rows(np.eye(len(nodes), dtype=bool))
    levels = 0
    while not (reach == full).all():
        grown = np.bitwise_or.reduceat(reach[src], starts, axis=0)
        if np.array_equal(grown, reach):
            return -1  # no row grows any more, so some row stays short
        reach, levels = grown, levels + 1
    return levels


def induced(adj: Adjacency, nodes: set[int]) -> dict[int, list[int]]:
    return {u: [v for v in adj[u] if v in nodes] for u in adj if u in nodes}


def is_dominating(adj: Adjacency, dom: set[int]) -> bool:
    return all(u in dom or set(adj[u]) & dom for u in adj)


# ---------------------------------------------------------------------------
# Exact and surrogate minimum connected dominating sets.


def min_cds(adj: Adjacency) -> set[int]:
    """Exact minimum connected dominating set by subset enumeration, in
    label order, for at most EXACT_CAP nodes."""
    nodes = sorted(adj)
    if len(nodes) > EXACT_CAP:
        raise ExactBranchTooLargeError(
            f"exact CDS search capped at n={EXACT_CAP}, got n={len(nodes)}"
        )
    if len(nodes) == 1:
        return {nodes[0]}
    for size in range(1, len(nodes) + 1):
        for combo in combinations(nodes, size):
            cand = set(combo)
            if not is_dominating(adj, cand):
                continue
            if len(components(induced(adj, cand))) == 1:
                return cand
    raise AssertionError("connected input must admit a CDS")


def greedy_cds(adj: Adjacency) -> set[int]:
    """Greedy CDS surrogate for instances too large for the exact branch.

    Cover: repeatedly choose the node whose closed neighbourhood holds the
    most uncovered nodes, the smallest label on a tie. The gains are one
    product of the label-ordered closed adjacency matrix with the uncovered
    vector, and `argmax` returns the first, smallest-label, maximum.
    Connect: join the chosen set's components along shortest paths.
    """
    nodes, src, dst = _arcs(adj)
    if len(nodes) == 1:
        return {nodes[0]}
    closed = np.eye(len(nodes), dtype=np.float32)  # counts stay exact below 2^24
    closed[src, dst] = 1.0
    uncovered = np.ones(len(nodes), np.float32)
    chosen: set[int] = set()
    while uncovered.any():
        best = int(np.argmax(closed @ uncovered))
        chosen.add(nodes[best])
        uncovered[closed[best] > 0] = 0.0
    # connect components of the chosen set along shortest paths
    while len(comps := components(induced(adj, chosen))) > 1:
        a = comps[0]
        # BFS from the first component through the full graph to another one
        frontier = sorted(a)
        target = None
        parent: dict[int, Optional[int]] = {u: None for u in a}
        seen = set(a)
        while frontier and target is None:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in seen:
                        continue
                    seen.add(v)
                    parent[v] = u
                    if v in chosen:
                        target = v
                        break
                    nxt.append(v)
                if target:
                    break
            frontier = nxt
        assert target is not None
        u = parent[target]
        while u is not None and u not in a:
            chosen.add(u)
            u = parent[u]
    return chosen


# ---------------------------------------------------------------------------
# Ground-truth replays of the helper-assignment rules.


def expected_two_hop(adj: Adjacency, leaders: set[int]) -> dict[tuple[int, int], int]:
    """Minimum-label common neighbor for every leader pair at distance 2.

    A leader's partners are found in its 2-hop ball, not by a BFS of the
    whole graph."""
    out: dict[tuple[int, int], int] = {}
    for s in sorted(leaders):
        ball = bfs_distances(adj, s, 2)
        for t in sorted(t for t, d in ball.items() if d == 2 and t > s and t in leaders):
            out[(s, t)] = min(set(adj[s]) & set(adj[t]))
    return out


def expected_three_hop(
    adj: Adjacency, leaders: set[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Replay of the minimum-label choice rule for leader pairs at distance 3.

    Keyed by ordered pair (s, t); the value (x, y) has x adjacent to s and
    y adjacent to t, so the two orientations are mirror images. A leader's
    partners are found in its 3-hop ball, not by a BFS of the whole graph.
    """
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for s in sorted(leaders):
        ball = bfs_distances(adj, s, 3)
        for t in sorted(t for t, d in ball.items() if d == 3 and t in leaders):
            side_s = {x for x in adj[s] if set(adj[x]) & set(adj[t])}
            side_t = {x for x in adj[t] if set(adj[x]) & set(adj[s])}
            a = min(side_s | side_t)
            if a in side_s:
                b = min(set(adj[a]) & set(adj[t]))
                out[(s, t)] = (a, b)
            else:
                b = min(set(adj[a]) & set(adj[s]))
                out[(s, t)] = (b, a)
    return out


# ---------------------------------------------------------------------------
# The five backbone checks.


def _backbone_adjacency(result: BackboneResult, graph: CommGraph) -> dict[int, list[int]]:
    nodes = set(result.leaders) | set(result.helpers)
    sub = induced(graph.adjacency, nodes)
    for u, v in result.backbone_edges:
        if v not in sub.setdefault(u, []):
            sub[u].append(v)
        if u not in sub.setdefault(v, []):
            sub[v].append(u)
    return {u: sorted(set(vs)) for u, vs in sub.items()}


def check_dominating(result: BackboneResult, graph: CommGraph) -> Verdict:
    members = set(result.leaders) | set(result.helpers)
    leaders = set(result.leaders)
    for u in graph.adjacency:
        if u in members or set(graph.adjacency[u]) & leaders:
            continue
        return Verdict("dominating", False, witness=(u,))
    return Verdict("dominating", True, metrics={"backbone_size": len(members)})


def check_connected_backbone(result: BackboneResult, graph: CommGraph) -> Verdict:
    sub = _backbone_adjacency(result, graph)
    if not sub:
        return Verdict("connected-backbone", False, witness=())
    comps = components(sub)
    if len(comps) == 1:
        return Verdict("connected-backbone", True, metrics={"backbone_size": len(sub)})
    return Verdict("connected-backbone", False, witness=tuple(sorted(comps[0])))


def geometric_degree_bound() -> int:
    """Backbone-degree cap from the packing argument: the count of
    pivotal boxes reachable within 3 hops times the 2 helpers per pair.

    Pure geometry: range is sqrt(2) box sides on the pivotal grid, so the
    3-hop reach is 3*sqrt(2) sides regardless of the SINR parameters.
    """
    reach = 3.0 * math.sqrt(2.0)
    count = 0
    span = math.ceil(reach) + 1
    for di in range(-span, span + 1):
        for dj in range(-span, span + 1):
            gap_x = max(abs(di) - 1, 0)
            gap_y = max(abs(dj) - 1, 0)
            if math.hypot(gap_x, gap_y) <= reach:
                count += 1
    return count * 2


DEGREE_BOUND = geometric_degree_bound()  # backbone degree <= DEGREE_BOUND


def check_constant_degree(result: BackboneResult, graph: CommGraph) -> Verdict:
    bound = DEGREE_BOUND
    sub = _backbone_adjacency(result, graph)
    worst, worst_node = 0, None
    for u, vs in sub.items():
        if len(vs) > worst:
            worst, worst_node = len(vs), u
    passed = worst <= bound
    return Verdict(
        "constant-degree",
        passed,
        witness=None if passed else (worst_node,),
        metrics={"max_degree": worst, "bound": bound},
    )


def check_diameter(result: BackboneResult, graph: CommGraph) -> Verdict:
    factor, slack = DIAMETER_FACTOR, DIAMETER_SLACK
    d_graph = diameter(graph.adjacency)
    sub = _backbone_adjacency(result, graph)
    d_back = diameter(sub) if sub else -1
    passed = d_back >= 0 and d_back <= factor * d_graph + slack
    return Verdict(
        "diameter",
        passed,
        witness=None if passed else (d_back, d_graph),
        metrics={
            "backbone_diameter": d_back,
            "graph_diameter": d_graph,
            "factor": factor,
            "slack": slack,
        },
    )


def check_size_ratio(result: BackboneResult, graph: CommGraph) -> Verdict:
    c_s = SIZE_FACTOR
    members = set(result.leaders) | set(result.helpers)
    if len(graph.adjacency) <= EXACT_CAP:
        optimum = min_cds(graph.adjacency)
        ratio = len(members) / len(optimum)
        return Verdict(
            "size-ratio",
            ratio <= c_s,
            witness=None if ratio <= c_s else tuple(sorted(members)),
            metrics={"ratio": ratio, "min_cds": len(optimum), "exact": 1.0},
        )
    surrogate = greedy_cds(graph.adjacency)
    ratio = len(members) / max(1, len(surrogate))
    return Verdict(
        "size-ratio",
        True,  # surrogate branch reports only
        metrics={"ratio": ratio, "greedy_cds": len(surrogate), "exact": 0.0},
    )


def check_leader_grid(result: BackboneResult, inst: PhysicalInstance) -> Verdict:
    gi = grid_index(inst)
    seen: dict[tuple[int, int], int] = {}
    for lab in result.leaders:
        box = gi.boxes[lab]
        if box in seen:
            return Verdict("leader-grid", False, witness=(seen[box], lab))
        seen[box] = lab
    return Verdict("leader-grid", True, metrics={"leaders": len(result.leaders)})


def check_bucket_coverage(
    graph: CommGraph,
    snapshots: Sequence[tuple[int, Mapping[int, str]]],
    delta: int,
) -> Verdict:
    """Per-bucket induction: after selector phase i, every node of degree at
    least ceil(Delta / 2^(i+1)) is a leader or a neighbor of one."""
    adj = graph.adjacency
    for i, statuses in snapshots:
        threshold = -(-delta // (2 ** (i + 1))) if delta else 0
        leaders = {u for u, s in statuses.items() if s == "leader"}
        for u in adj:
            if len(adj[u]) >= threshold:
                if u in leaders or not leaders.isdisjoint(adj[u]):
                    continue
                return Verdict("bucket-coverage", False, witness=(i, u))
    return Verdict("bucket-coverage", True, metrics={"phases": len(snapshots)})


def run_all_checks(
    result: BackboneResult, inst: PhysicalInstance, graph: CommGraph
) -> list[Verdict]:
    return [
        check_dominating(result, graph),
        check_connected_backbone(result, graph),
        check_constant_degree(result, graph),
        check_diameter(result, graph),
        check_size_ratio(result, graph),
        check_leader_grid(result, inst),
        check_bucket_coverage(graph, result.phase_snapshots, result.delta),
    ]


# ---------------------------------------------------------------------------
# Empirical dilution soundness: the physical-layer guarantee that lets one
# family execution stand in for a collision-free schedule.


def _diluted_placement(
    params: SinrParams, d: int, seed: int
) -> tuple[list[tuple[int, float, float]], list[int]]:
    """One seeded trial placement: the (label, x, y) stations, labels 1..n,
    and the diluted active transmitters in the order they were chosen.

    Stations are placed in TRIAL_BOXES x TRIAL_BOXES pivotal boxes, with at
    most physical.DILUTION_K intended transmitters per box; the active set
    keeps one transmitter per sliding (2d+1)x(2d+1) box window (pairwise
    Chebyshev box distance >= 2d+1).
    """
    rng = random.Random(seed)
    side = pivotal_side(params)
    stations = []
    label = 1
    intended = []
    for bx in range(TRIAL_BOXES):
        for by in range(TRIAL_BOXES):
            count = rng.randint(0, 3)
            for _ in range(count):
                x = (bx + rng.uniform(0.02, 0.98)) * side
                y = (by + rng.uniform(0.02, 0.98)) * side
                stations.append((label, x, y))
                label += 1
    per_box: dict[tuple[int, int], int] = {}
    boxes: dict[int, tuple[int, int]] = {}
    for lab, x, y in stations:
        box = grid_box((x, y), side)
        boxes[lab] = box
        if per_box.get(box, 0) < physical.DILUTION_K and rng.random() < 0.8:
            per_box[box] = per_box.get(box, 0) + 1
            intended.append(lab)
    # dilute: greedy maximal subset with pairwise box-Chebyshev >= 2d+1
    actives: list[int] = []
    order = intended[:]
    rng.shuffle(order)
    for lab in order:
        bx, by = boxes[lab]
        if all(
            max(abs(bx - boxes[a][0]), abs(by - boxes[a][1])) >= 2 * d + 1
            for a in actives
        ):
            actives.append(lab)
    return stations, actives


def dilution_trial(params: SinrParams, d: int, *, seed: int = 0) -> list[tuple[int, int]]:
    """One random diluted placement; returns required receptions that failed.

    Every active transmitter must reach all non-transmitting stations
    within sqrt(2) * side, i.e. within range: the required (active,
    station) pairs, actives in the order chosen, stations in label order.
    The run's PhysicsEngine adjudicates one round in which every active
    transmits. It holds only the actives and the stations some active must
    reach: no other station transmits or is in range of a transmitter.
    """
    stations, actives = _diluted_placement(params, d, seed)
    r = broadcast_range(params)
    pos = {lab: (x, y) for lab, x, y in stations}
    active_set = set(actives)
    required = [
        (u, lab)
        for u in actives
        for lab in pos
        if lab not in active_set and distance(pos[u], pos[lab]) <= r
    ]
    kept = active_set | {lab for _, lab in required}
    engine = PhysicsEngine(
        make_instance([s for s in stations if s[0] in kept], params, len(stations))
    )
    delivered = set(engine.deliver(actives))
    return [pair for pair in required if pair not in delivered]


def adversarial_dilution_check(params: SinrParams, d: int) -> bool:
    """Worst-case certification of the dilution constant.

    Places one interferer per (2d+1)-spaced lattice cell at the corner
    nearest the receiver, the receiver at distance exactly range from the
    transmitter, and checks the SINR threshold directly.
    """
    side = pivotal_side(params)
    r = broadcast_range(params)
    p = params
    signal = p.power / r**p.alpha
    interference = 0.0
    step = (2 * d + 1) * side
    for i in range(-LATTICE_SPAN, LATTICE_SPAN + 1):
        for j in range(-LATTICE_SPAN, LATTICE_SPAN + 1):
            if i == 0 and j == 0:
                continue
            # nearest possible point of the (i,j) lattice cell to the receiver
            dx = max(abs(i) * step - side, 0.0)
            dy = max(abs(j) * step - side, 0.0)
            dist = math.hypot(dx, dy)
            dist = max(dist - r, side * 0.01)  # receiver may sit range toward them
            interference += p.power / dist**p.alpha
    return signal / (p.noise + interference) >= p.beta
