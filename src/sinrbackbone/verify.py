"""Ground-truth verification of protocol postconditions and backbone properties.

Checks here may read station positions (pivotal grid, dilution trials);
they run after a protocol completes and never feed information back into
node decisions.

Every check and CDS oracle takes the physical.CommGraphs it reads, the
run's graph and the backbone, and reads their open and closed CSR lists as
given, by array programs: scatters over rows, component_labels,
breadth-first search one frontier per NumPy step, and sorted joins (on
physical.least and in_sorted, as the phases are). Only the two helper-rule
replays also take a plain mapping of neighbour labels, through CommGraph.of.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import physical
from .errors import ExactBranchTooLargeError
from .physical import (
    CommGraph,
    PhysicalInstance,
    PhysicsEngine,
    SinrParams,
    broadcast_range,
    component_labels,
    distance,
    grid_box,
    grid_index,
    in_sorted,
    index_ranges,
    least,
    make_instance,
    pivotal_side,
    run_heads,
    sorted_distinct,
)
from .protocol import LEADER, BackboneResult

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


def diameter(g: CommGraph) -> int:
    """Largest hop distance from a node to another; -1 if some node does not
    reach every other, 0 for no nodes.

    One breadth-first search from all sources at once: word w of node i's
    reach row holds 64 bits of the nodes within `levels` hops of node i
    (bit b is node 64 w + b), packed at one level from the closed CSR list.
    A level ORs, for every node, the rows of its closed neighbourhood, one
    `np.bitwise_or.reduceat` per word, O(m n / 64) word operations, until
    no row grows; the diameter is the number of levels, if every row is full.
    """
    n = len(g.nodes)
    if n <= 1:
        return 0
    nbrs, nbr_at = g.closed_csr
    size = -(-n // 64)  # words per row
    # the (row, word) keys ascend in CSR order: one reduceat over their runs
    key = np.arange(n).repeat(nbr_at[1:] - nbr_at[:-1]) * size + (nbrs >> 6)
    run = run_heads(key).nonzero()[0]
    rows = np.zeros(n * size, np.uint64)
    rows[key[run]] = np.bitwise_or.reduceat(np.uint64(1) << (nbrs & 63).astype(np.uint64), run)
    words = list(rows.reshape(n, size).T.copy())  # one array per word
    levels = 1
    while True:
        grown = [np.bitwise_or.reduceat(word[nbrs], nbr_at[:-1]) for word in words]
        if not any(np.count_nonzero(new != old) for new, old in zip(grown, words)):
            # each node is in its own row: every row is full iff all are equal
            return levels if all((word == word[0]).all() for word in words) else -1
        words, levels = grown, levels + 1


# ---------------------------------------------------------------------------
# Exact and surrogate minimum connected dominating sets.


def min_cds(g: CommGraph) -> set[int]:
    """Exact minimum connected dominating set by subset enumeration, in
    label order, for at most EXACT_CAP nodes, on closed neighbourhoods as
    Python-int bitsets (bit i is node i) packed from the closed CSR list."""
    nodes = g.nodes
    n = len(nodes)
    if n > EXACT_CAP:
        raise ExactBranchTooLargeError(f"exact CDS search capped at n={EXACT_CAP}, got n={n}")
    if n == 1:
        return {nodes[0]}
    closed = np.bitwise_or.reduceat(1 << g.closed_csr[0], g.closed_csr[1][:-1]).tolist()
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cover = cand = 0
            for i in combo:
                cover |= closed[i]
                cand |= 1 << i
            if cover != (1 << n) - 1:
                continue
            reach = 1 << combo[0]  # grows over cand: size rounds reach all it can
            for _ in combo:
                for i in combo:
                    if reach >> i & 1:
                        reach |= closed[i] & cand
            if reach == cand:
                return {nodes[i] for i in combo}
    raise AssertionError("connected input must admit a CDS")


def greedy_cds(g: CommGraph) -> set[int]:
    """Greedy CDS surrogate for instances too large for the exact branch.

    Cover: repeatedly choose the node whose closed neighbourhood holds the
    most uncovered nodes, the smallest label on a tie, while one holds any:
    the first maximum of one `np.add.reduceat` of the uncovered flags over
    the closed CSR list. Connect: while the chosen set is not connected,
    search the graph breadth-first from the component of its smallest
    label, visiting each node's neighbours in ascending label order, to the
    first chosen node outside it, and add the path's inner nodes. The
    components are component_labels of the CSR list's entries within the
    cover; a path joins to the first component every component next to it.
    """
    n = len(g.nodes)
    if n <= 1:
        return set(g.nodes)
    nbrs, nbr_at = g.closed_csr
    uncovered = np.ones(n, np.intp)
    chosen = np.zeros(n, bool)
    while (gain := np.add.reduceat(uncovered[nbrs], nbr_at[:-1]))[best := gain.argmax()]:
        chosen[best] = True
        uncovered[nbrs[nbr_at[best] : nbr_at[best + 1]]] = 0
    keep = chosen[g.nbrs] & chosen.repeat(g.degree)  # the entries within the cover
    comp = component_labels(g.nbrs[keep], np.concatenate(([0], keep.cumsum()))[g.nbr_at])
    root = chosen.argmax()  # the smallest chosen label's position, and its component's label
    while (apart := chosen & (comp != root))[apart.argmax()]:
        path = _search_path(g, chosen & ~apart, apart)
        joined = np.zeros(n, bool)  # the labels next to the path
        for v in path:
            joined[comp[g.nbrs[g.nbr_at[v] : g.nbr_at[v + 1]]]] = True
        chosen[path] = True
        comp[joined[comp] & chosen] = root
        comp[path] = root
    return set(g.label_array[chosen].tolist())


def _search_path(g: CommGraph, start: np.ndarray, targets: np.ndarray) -> list[int]:
    """The inner nodes of the path a breadth-first search from the nodes
    start flags takes to the first node outside them that targets flags:
    its discoverer, the discoverer's, and so on, until start. The search
    visits start's nodes, and each node's neighbours, in ascending label
    order; a node's discoverer is its first visited neighbour. A level is
    one NumPy step: the frontier's rows in visiting order, less the nodes
    seen, each node at its first entry. AssertionError if none is reached.
    """
    nbrs, seen, levels = g.nbrs, start.copy(), []
    found = nbrs[start.repeat(g.degree)]  # start's rows, in CSR order
    while len(found := found[~seen[found]]):
        hit = targets[found]
        if hit[j := hit.argmax()]:
            v, path = found[j], []
            for level in reversed(levels):  # the first node of each level next to v
                near = np.zeros(len(seen), bool)
                near[nbrs[g.nbr_at[v] : g.nbr_at[v + 1]]] = True
                path.append(v := level[near[level].argmax()])
            return path
        index = np.arange(len(found))
        first = np.full(len(seen), len(found))
        np.minimum.at(first, found, index)  # each node's first entry
        levels.append(frontier := found[first[found] == index])
        seen[frontier] = True
        found = nbrs[index_ranges(g.nbr_at[frontier], g.degree[frontier])]
    raise AssertionError("no path joins the chosen set's components")


# ---------------------------------------------------------------------------
# Ground-truth replays of the helper-assignment rules.


def expected_two_hop(
    adj: Adjacency | CommGraph, leaders: Iterable[int]
) -> dict[tuple[int, int], int]:
    """Minimum-label common neighbor for every leader pair at distance 2.

    A sorted join, not a BFS: joined on the neighbour, the (leader,
    neighbour) pairs give every leader pair (s, t) with a common
    neighbour, at distance 2 if s < t are not neighbours."""
    g = CommGraph.of(adj)
    n = len(g.nodes)
    s, x = _leader_rows(g, leaders)
    table = x * n + s
    table.sort()  # each node's leaders
    u, w, at = _join(s, x, table, n)
    v = table[at] % n
    keep = (u < v) & ~in_sorted(u * n + v, s * n + x)
    pair, mid = least(u[keep] * n + v[keep], w[keep])
    labels = g.label_array
    keys = zip(labels[pair // n].tolist(), labels[pair % n].tolist())
    return dict(zip(keys, labels[mid].tolist()))


def expected_three_hop(
    adj: Adjacency | CommGraph, leaders: Iterable[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Replay of the minimum-label choice rule for leader pairs at distance 3.

    Keyed by ordered pair (s, t); the value (x, y) has x adjacent to s and
    y adjacent to t, so the two orientations are mirror images. Of s's and
    t's neighbours on some 3-hop path between them, the smallest label is
    a, and the other end of a's middle edge is the smallest label adjacent
    to both a and the far leader.

    Sorted joins, not a BFS: a table holds each (node z, leader t) with z
    next to a neighbour of t, and the least such neighbour. Joined with it
    on the node, the (leader u, neighbour w) pairs give every path u, w, y,
    v with the least y; v is at distance 3 if it is not within 2 hops of u.
    """
    g = CommGraph.of(adj)
    n = len(g.nodes)
    s, x = _leader_rows(g, leaders)
    near = s * n + x  # ascending
    span = g.degree[x]
    z = g.nbrs[index_ranges(g.nbr_at[x], span)]  # next to the neighbour x of the leader s
    table, mid = least(z * n + s.repeat(span), x.repeat(span))
    u, w, at = _join(s, x, table, n)
    v, y = table[at] % n, mid[at]
    # each pair once, s < t: a is on s's side if u is s, and b is the y
    lo, hi, side = np.minimum(u, v), np.maximum(u, v), u > v
    pair, cand = least(lo * n + hi, (2 * w + side) * n + y)  # keyed (2 a + side) n + b
    far = ~(in_sorted(pair, near) | in_sorted(pair % n * n + pair // n, table))  # not within 2 hops
    pair, cand = pair[far], cand[far]
    a, on_t, b = cand // (2 * n), cand // n & 1, cand % n
    labels = g.label_array
    s, t = labels[pair // n].tolist(), labels[pair % n].tolist()
    x, y = labels[np.where(on_t, b, a)].tolist(), labels[np.where(on_t, a, b)].tolist()
    return dict(zip(zip(s, t), zip(x, y))) | dict(zip(zip(t, s), zip(y, x)))


def _leader_rows(g: CommGraph, leaders: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every (leader, neighbour) pair as position arrays, ascending."""
    lead = _flags(g, leaders)
    return lead.nonzero()[0].repeat(g.degree[lead]), g.nbrs[lead.repeat(g.degree)]


def _join(u: np.ndarray, w: np.ndarray, table: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Every (u[i], w[i], j) with table[j] // n == w[i], for table ascending."""
    lo = table.searchsorted(w * n)
    span = table.searchsorted(w * n + n) - lo
    return u.repeat(span), w.repeat(span), index_ranges(lo, span)


# ---------------------------------------------------------------------------
# The five backbone checks.


def backbone_graph(result: BackboneResult, g: CommGraph) -> CommGraph:
    """The backbone: its members (leaders and helpers) with the graph's
    edges between them, plus the result's backbone edges and their ends.

    Its CSR list is built from the graph's: the entries that join two
    members, and each backbone edge both ways, keyed row * n + column over
    the graph's positions, so one sort and a neighbour mask order and
    dedup them; rows and columns are then renumbered over the backbone's
    nodes, in the same (ascending label) order."""
    n = len(g.nodes)
    member = _flags(g, [*result.leaders, *result.helpers])
    row = np.arange(n).repeat(g.degree)
    keep = member[row] & member[g.nbrs]
    ends = g.positions([end for edge in result.backbone_edges for end in edge])
    u, v = ends[0::2], ends[1::2]
    keys = sorted_distinct(np.concatenate((row[keep] * n + g.nbrs[keep], u * n + v, v * n + u)))
    member[ends] = True
    nodes = member.nonzero()[0]
    at = nodes.searchsorted(keys // n)
    return CommGraph(
        g.label_array[nodes].tolist(),
        nodes.searchsorted(keys % n),
        at.searchsorted(np.arange(len(nodes) + 1)),
    )


def _flags(g: CommGraph, labels: Iterable[int]) -> np.ndarray:
    """Each node's flag: labels holds its label."""
    flags = np.zeros(len(g.nodes), bool)
    flags[g.positions(labels)] = True
    return flags


def _covered(g: CommGraph, lead: np.ndarray) -> np.ndarray:
    """Each node's flag: lead flags it or one of its neighbours."""
    covered = lead.copy()
    covered[g.nbrs[lead.repeat(g.degree)]] = True
    return covered


def check_dominating(result: BackboneResult, g: CommGraph) -> Verdict:
    """The witness is the smallest label that is neither a member nor next
    to a leader."""
    covered = _covered(g, _flags(g, result.leaders)) | _flags(g, result.helpers)
    if np.count_nonzero(covered) < len(covered):
        return Verdict("dominating", False, witness=(g.nodes[int(covered.argmin())],))
    members = set(result.leaders) | set(result.helpers)
    return Verdict("dominating", True, metrics={"backbone_size": len(members)})


def check_connected_backbone(backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, graph). The witness is the
    component of the smallest label: the nodes of component label 0."""
    comp = component_labels(backbone.nbrs, backbone.nbr_at)
    if backbone.nodes and not np.count_nonzero(comp):
        return Verdict("connected-backbone", True, metrics={"backbone_size": len(backbone.nodes)})
    return Verdict("connected-backbone", False, tuple(backbone.label_array[comp == 0].tolist()))


def geometric_degree_bound() -> int:
    """Backbone-degree cap from the packing argument: the count of
    pivotal boxes reachable within 3 hops times the 2 helpers per pair.

    Pure geometry: range is sqrt(2) box sides on the pivotal grid, so the
    3-hop reach is 3*sqrt(2) sides regardless of the SINR parameters.
    """
    reach = 3.0 * math.sqrt(2.0)
    span = range(-math.ceil(reach) - 1, math.ceil(reach) + 2)
    gaps = [max(abs(d) - 1, 0) for d in span]  # box gap to a box d boxes away
    return 2 * sum(math.hypot(gx, gy) <= reach for gx in gaps for gy in gaps)


DEGREE_BOUND = geometric_degree_bound()  # backbone degree <= DEGREE_BOUND


def check_constant_degree(backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, graph). The witness is
    the smallest label of the largest degree."""
    worst, bound = backbone.delta, DEGREE_BOUND
    witness = None if worst <= bound else (backbone.nodes[int(backbone.degree.argmax())],)
    metrics = {"max_degree": worst, "bound": bound}
    return Verdict("constant-degree", worst <= bound, witness, metrics)


def check_diameter(g: CommGraph, backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, g)."""
    factor, slack = DIAMETER_FACTOR, DIAMETER_SLACK
    d_graph = diameter(g)
    d_back = diameter(backbone) if backbone.nodes else -1
    passed = d_back >= 0 and d_back <= factor * d_graph + slack
    metrics = dict(backbone_diameter=d_back, graph_diameter=d_graph, factor=factor, slack=slack)
    return Verdict("diameter", passed, None if passed else (d_back, d_graph), metrics)


def check_size_ratio(result: BackboneResult, g: CommGraph) -> Verdict:
    members = set(result.leaders) | set(result.helpers)
    if len(g.nodes) > EXACT_CAP:  # the surrogate branch reports only
        size = len(greedy_cds(g))
        metrics = {"ratio": len(members) / max(1, size), "greedy_cds": size, "exact": 0.0}
        return Verdict("size-ratio", True, metrics=metrics)
    size = len(min_cds(g))
    metrics = {"ratio": len(members) / size, "min_cds": size, "exact": 1.0}
    passed = metrics["ratio"] <= SIZE_FACTOR
    return Verdict("size-ratio", passed, None if passed else tuple(sorted(members)), metrics)


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
    g: CommGraph,
    snapshots: Sequence[tuple[int, Mapping[int, str]]],
    delta: int,
) -> Verdict:
    """Per-bucket induction: after selector phase i, every node of degree at
    least ceil(Delta / 2^(i+1)) is a leader or a neighbor of one. The
    witness is the smallest label that is not."""
    for i, statuses in snapshots:
        threshold = -(-delta // (2 ** (i + 1))) if delta else 0
        lead = _flags(g, [u for u, s in statuses.items() if s == LEADER])
        missed = (g.degree >= threshold) & ~_covered(g, lead)
        if np.count_nonzero(missed):
            return Verdict("bucket-coverage", False, witness=(i, g.nodes[int(missed.argmax())]))
    return Verdict("bucket-coverage", True, metrics={"phases": len(snapshots)})


def run_all_checks(
    result: BackboneResult, inst: PhysicalInstance, g: CommGraph
) -> list[Verdict]:
    """Every check, on the run's graph and one backbone built from it."""
    sub = backbone_graph(result, g)
    return [
        check_dominating(result, g),
        check_connected_backbone(sub),
        check_constant_degree(sub),
        check_diameter(g, sub),
        check_size_ratio(result, g),
        check_leader_grid(result, inst),
        check_bucket_coverage(g, result.phase_snapshots, result.delta),
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
