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

from .errors import ExactBranchTooLargeError
from .physical import (
    CommGraph,
    PhysicalInstance,
    SinrParams,
    broadcast_range,
    distance,
    grid_box,
    grid_index,
    make_instance,
    pivotal_side,
    receives,
)
from .protocol import BackboneResult

Adjacency = Mapping[int, Sequence[int]]


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


def bfs_distances(adj: Adjacency, src: int) -> dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(adj: Adjacency) -> int:
    best = 0
    for u in adj:
        d = bfs_distances(adj, u)
        if len(d) != len(adj):
            return -1  # disconnected
        best = max(best, max(d.values()))
    return best


def connected(adj: Adjacency) -> bool:
    nodes = list(adj)
    if not nodes:
        return True
    return len(bfs_distances(adj, nodes[0])) == len(nodes)


def induced(adj: Adjacency, nodes: set[int]) -> dict[int, list[int]]:
    return {u: [v for v in adj[u] if v in nodes] for u in adj if u in nodes}


def is_dominating(adj: Adjacency, dom: set[int]) -> bool:
    return all(u in dom or set(adj[u]) & dom for u in adj)


# ---------------------------------------------------------------------------
# Exact and surrogate minimum connected dominating sets.


def min_cds(adj: Adjacency, cap: int = 14, node_order: Optional[Sequence[int]] = None) -> set[int]:
    """Exact minimum connected dominating set by subset enumeration.

    node_order changes only the enumeration order (used to cross-check the
    oracle against itself); the minimum size found is order-independent.
    """
    nodes = list(node_order) if node_order is not None else sorted(adj)
    if len(nodes) > cap:
        raise ExactBranchTooLargeError(
            f"exact CDS search capped at n={cap}, got n={len(nodes)}"
        )
    if len(nodes) == 1:
        return {nodes[0]}
    for size in range(1, len(nodes) + 1):
        for combo in combinations(nodes, size):
            cand = set(combo)
            if not is_dominating(adj, cand):
                continue
            if connected(induced(adj, cand)):
                return cand
    raise AssertionError("connected input must admit a CDS")


def greedy_cds(adj: Adjacency) -> set[int]:
    """Greedy CDS surrogate for instances too large for the exact branch."""
    nodes = sorted(adj)
    if len(nodes) == 1:
        return {nodes[0]}
    covered: set[int] = set()
    chosen: set[int] = set()
    while covered != set(nodes):
        best = max(
            nodes,
            key=lambda u: (len((set(adj[u]) | {u}) - covered), -u),
        )
        chosen.add(best)
        covered |= set(adj[best]) | {best}
    # connect components of the chosen set along shortest paths
    while not connected(induced(adj, chosen)):
        comp = _components(induced(adj, chosen))
        a = comp[0]
        # BFS from the first component through the full graph to another one
        dist = {u: (0, None) for u in a}
        frontier = list(a)
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


def _components(adj: Adjacency) -> list[set[int]]:
    left = set(adj)
    out = []
    while left:
        src = min(left)
        comp = set(bfs_distances({u: [v for v in adj[u] if v in left] for u in left}, src))
        out.append(comp)
        left -= comp
    return out


# ---------------------------------------------------------------------------
# Ground-truth replays of the helper-assignment rules.


def expected_two_hop(adj: Adjacency, leaders: set[int]) -> dict[tuple[int, int], int]:
    """Minimum-label common neighbor for every leader pair at distance 2."""
    out: dict[tuple[int, int], int] = {}
    ls = sorted(leaders)
    for i, s in enumerate(ls):
        ds = bfs_distances(adj, s)
        for t in ls[i + 1 :]:
            if ds.get(t) == 2:
                out[(s, t)] = min(set(adj[s]) & set(adj[t]))
    return out


def expected_three_hop(
    adj: Adjacency, leaders: set[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Replay of the minimum-label choice rule for leader pairs at distance 3.

    Keyed by ordered pair (s, t); the value (x, y) has x adjacent to s and
    y adjacent to t, so the two orientations are mirror images.
    """
    out: dict[tuple[int, int], tuple[int, int]] = {}
    ls = sorted(leaders)
    for s in ls:
        ds = bfs_distances(adj, s)
        for t in ls:
            if t == s or ds.get(t) != 3:
                continue
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
    if connected(sub):
        return Verdict("connected-backbone", True, metrics={"backbone_size": len(sub)})
    comps = _components(sub)
    return Verdict(
        "connected-backbone", False, witness=tuple(sorted(comps[0]))
    )


def geometric_degree_bound() -> int:
    """Default backbone-degree cap from the packing argument: the count of
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


def check_constant_degree(
    result: BackboneResult, graph: CommGraph, bound: Optional[int] = None
) -> Verdict:
    if bound is None:
        bound = geometric_degree_bound()
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


def check_diameter(
    result: BackboneResult,
    graph: CommGraph,
    factor: float = 3.0,
    slack: int = 4,
) -> Verdict:
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


def check_size_ratio(
    result: BackboneResult,
    graph: CommGraph,
    c_s: float = 6.0,
    exact_cap: int = 14,
    force_exact: bool = False,
) -> Verdict:
    members = set(result.leaders) | set(result.helpers)
    n = len(graph.adjacency)
    if n <= exact_cap or force_exact:
        optimum = min_cds(graph.adjacency, cap=exact_cap)
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
                if u in leaders or set(adj[u]) & leaders:
                    continue
                return Verdict("bucket-coverage", False, witness=(i, u))
    return Verdict("bucket-coverage", True, metrics={"phases": len(snapshots)})


def run_all_checks(
    result: BackboneResult,
    inst: PhysicalInstance,
    graph: CommGraph,
    *,
    degree_bound: Optional[int] = None,
    diameter_factor: float = 3.0,
    diameter_slack: int = 4,
    size_factor: float = 6.0,
    exact_cap: int = 14,
    force_exact: bool = False,
) -> list[Verdict]:
    return [
        check_dominating(result, graph),
        check_connected_backbone(result, graph),
        check_constant_degree(result, graph, bound=degree_bound),
        check_diameter(result, graph, factor=diameter_factor, slack=diameter_slack),
        check_size_ratio(
            result, graph, c_s=size_factor, exact_cap=exact_cap, force_exact=force_exact
        ),
        check_leader_grid(result, inst),
        check_bucket_coverage(graph, result.phase_snapshots, result.delta),
    ]


# ---------------------------------------------------------------------------
# Empirical dilution soundness: the physical-layer guarantee that lets one
# family execution stand in for a collision-free schedule.


def dilution_trial(
    params: SinrParams,
    d: int,
    *,
    boxes_side: int = 12,
    max_per_box: int = 21,
    seed: int = 0,
    n_labels_base: int = 10_000,
) -> list[tuple[int, int]]:
    """One random diluted placement; returns required receptions that failed.

    Stations are placed with at most max_per_box intended transmitters per
    pivotal box; the active set keeps one transmitter per sliding
    (2d+1)x(2d+1) box window (pairwise Chebyshev box distance >= 2d+1).
    Every active transmitter must reach all non-transmitting stations
    within sqrt(2) * side, i.e. within range.
    """
    rng = random.Random(seed)
    side = pivotal_side(params)
    r = broadcast_range(params)
    stations = []
    label = 1
    intended = []
    for bx in range(boxes_side):
        for by in range(boxes_side):
            count = rng.randint(0, 3)
            for _ in range(count):
                x = (bx + rng.uniform(0.02, 0.98)) * side
                y = (by + rng.uniform(0.02, 0.98)) * side
                stations.append((label, x, y))
                label += 1
    if len(stations) < 2:
        return []
    per_box: dict[tuple[int, int], int] = {}
    boxes: dict[int, tuple[int, int]] = {}
    for lab, x, y in stations:
        box = grid_box((x, y), side)
        boxes[lab] = box
        if per_box.get(box, 0) < max_per_box and rng.random() < 0.8:
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
    if not actives:
        return []
    inst = make_instance(stations, params, n_labels_base)
    pos = inst.positions()
    failures = []
    active_set = set(actives)
    for u in actives:
        for lab, _, _ in stations:
            if lab == u or lab in active_set:
                continue
            if distance(pos[u], pos[lab]) <= r:
                if not receives(u, lab, active_set, inst):
                    failures.append((u, lab))
    return failures


def adversarial_dilution_check(
    params: SinrParams, d: int, *, blocks_span: int = 100
) -> bool:
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
    for i in range(-blocks_span, blocks_span + 1):
        for j in range(-blocks_span, blocks_span + 1):
            if i == 0 and j == 0:
                continue
            # nearest possible point of the (i,j) lattice cell to the receiver
            dx = max(abs(i) * step - side, 0.0)
            dy = max(abs(j) * step - side, 0.0)
            dist = math.hypot(dx, dy)
            dist = max(dist - r, side * 0.01)  # receiver may sit range toward them
            interference += p.power / dist**p.alpha
    return signal / (p.noise + interference) >= p.beta
