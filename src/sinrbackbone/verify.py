"""Ground-truth verification of protocol postconditions and backbone properties.

Checks here may read station positions (pivotal grid, dilution trials);
they run after a protocol completes and never feed information back into
node decisions.

Every check and CDS oracle takes the physical.CommGraphs it reads, the
run's graph and the backbone, and reads them as given: their label
bitsets and their closed CSR lists. Only the two helper-rule replays also
take a plain mapping of neighbour labels, through CommGraph.of.
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
    bits_of,
    broadcast_range,
    distance,
    grid_box,
    grid_index,
    make_instance,
    pivotal_side,
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


def _lowest(mask: int) -> int:
    """The position of mask's lowest set bit."""
    return (mask & -mask).bit_length() - 1


def diameter(g: CommGraph) -> int:
    """Largest hop distance from a node to another; -1 if some node does not
    reach every other, 0 for no nodes.

    One breadth-first search from all sources at once: word w of node i's
    reach row holds 64 bits of the nodes within `levels` hops of node i,
    starting from the closed rows at one level. A level ORs, for every
    node, the rows of its closed neighbourhood (the closed CSR list), one
    `np.bitwise_or.reduceat` per word, O(m n / 64) word operations. The
    diameter is the number of levels until every row is full.
    """
    if len(g.nodes) <= 1:
        return 0
    nbrs, nbr_at = g.closed_csr
    full = np.bitwise_or.reduce(g.closed_rows)  # each node is in its own row
    reach = list(np.ascontiguousarray(g.closed_rows.T))  # one array per word
    levels = 1
    while not all((word == f).all() for word, f in zip(reach, full)):
        grown = [np.bitwise_or.reduceat(word[nbrs], nbr_at[:-1]) for word in reach]
        if all((word == w).all() for word, w in zip(grown, reach)):
            return -1  # no row grows any more, so some row stays short
        reach, levels = grown, levels + 1
    return levels


# ---------------------------------------------------------------------------
# Exact and surrogate minimum connected dominating sets.


def min_cds(g: CommGraph) -> set[int]:
    """Exact minimum connected dominating set by subset enumeration, in
    label order, for at most EXACT_CAP nodes."""
    nodes = g.nodes
    if len(nodes) > EXACT_CAP:
        raise ExactBranchTooLargeError(
            f"exact CDS search capped at n={EXACT_CAP}, got n={len(nodes)}"
        )
    if len(nodes) == 1:
        return {nodes[0]}
    closed = [m | 1 << i for i, m in enumerate(g.masks)]
    for size in range(1, len(nodes) + 1):
        for combo in combinations(range(len(nodes)), size):
            cover = cand = 0
            for i in combo:
                cover |= closed[i]
                cand |= 1 << i
            if cover == g.every and g.reach(1 << combo[0], cand) == cand:
                return {nodes[i] for i in combo}
    raise AssertionError("connected input must admit a CDS")


def greedy_cds(g: CommGraph) -> set[int]:
    """Greedy CDS surrogate for instances too large for the exact branch.

    Cover: repeatedly choose the node whose closed neighbourhood holds the
    most uncovered nodes, the smallest label on a tie. The gains are one
    `np.add.reduceat` of the uncovered flags over the closed CSR list, and
    `argmax` returns the first, smallest-label, maximum.
    Connect: while the chosen set is not connected, search the graph
    breadth-first from the component of its smallest label, visiting each
    node's neighbours in ascending label order, to the first chosen node
    outside it, and add the path's inner nodes.
    """
    nodes = g.nodes
    if len(nodes) == 1:
        return {nodes[0]}
    nbrs, nbr_at = g.closed_csr
    uncovered = np.ones(len(nodes), np.intp)
    chosen = 0
    while uncovered.any():
        best = int(np.add.reduceat(uncovered[nbrs], nbr_at[:-1]).argmax())
        chosen |= 1 << best
        uncovered[nbrs[nbr_at[best] : nbr_at[best + 1]]] = 0
    while chosen and (a := g.reach(chosen & -chosen, chosen)) != chosen:
        for u in _search_path(g, a, chosen)[1:]:
            chosen |= 1 << u
    return set(g.labels(chosen))


def _search_path(g: CommGraph, start: int, targets: int) -> tuple[int, ...]:
    """The path a breadth-first search from the nodes of start takes to
    the first node of targets outside start, from a node of start to that
    node's discoverer (positions in g.nodes). The search visits start's
    nodes, and each node's neighbours, in ascending label order.

    The levels are searched as bitsets; the visiting order is worked out
    only where the answer depends on it. A node is discovered by the first
    visited of its neighbours one level nearer start, so its discovery
    chain, (a node of start, ..., its discoverer, itself), orders each
    level as the search visits it. Raises AssertionError if no node of
    targets outside start is reachable.
    """
    masks = g.masks
    levels, seen = [start], start
    while not (found := (nxt := g.near(levels[-1]) & ~seen) & targets):
        if not nxt:
            raise AssertionError("no path joins the chosen set's components")
        levels.append(nxt)
        seen |= nxt
    chains: dict[int, tuple[int, ...]] = {}

    def chain(v: int, level: int) -> tuple[int, ...]:
        if level == 0:
            return (v,)
        if v not in chains:
            nearer = masks[v] & levels[level - 1]
            chains[v] = min(chain(w, level - 1) for w in bits_of(nearer)) + (v,)
        return chains[v]

    last = len(levels) - 1
    return min(chain(u, last) for u in bits_of(levels[last] & g.near(found)))


# ---------------------------------------------------------------------------
# Ground-truth replays of the helper-assignment rules.


def expected_two_hop(
    adj: Adjacency | CommGraph, leaders: Iterable[int]
) -> dict[tuple[int, int], int]:
    """Minimum-label common neighbor for every leader pair at distance 2.

    A leader's partners are the leaders among its neighbours' neighbours,
    found by bitset unions, not by a BFS."""
    g = CommGraph.of(adj)
    nodes, masks = g.nodes, g.masks
    lead = g.mask(leaders)
    out: dict[tuple[int, int], int] = {}
    for s in bits_of(lead):
        near = masks[s]
        later = lead & ~near & -(2 << s)  # leaders after s that are not neighbours
        for t in bits_of(g.near(near) & later):
            out[(nodes[s], nodes[t])] = nodes[_lowest(near & masks[t])]
    return out


def expected_three_hop(
    adj: Adjacency | CommGraph, leaders: Iterable[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Replay of the minimum-label choice rule for leader pairs at distance 3.

    Keyed by ordered pair (s, t); the value (x, y) has x adjacent to s and
    y adjacent to t, so the two orientations are mirror images. Of s's and
    t's neighbours on some 3-hop path between them, the smallest label is
    a, and the other end of a's middle edge is the smallest label adjacent
    to both a and the far leader. Every set is a bitset: a leader's
    partners are the leaders next to its distance-2 nodes, not found by a
    BFS.
    """
    g = CommGraph.of(adj)
    nodes, masks = g.nodes, g.masks
    lead = g.mask(leaders)
    second = {s: g.near(masks[s]) for s in bits_of(lead)}  # the neighbours' neighbours
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for s in bits_of(lead):
        ns = masks[s]
        ball = ns | second[s] | 1 << s  # within 2 hops
        for t in bits_of(g.near(ball & ~ns & ~(1 << s)) & lead & ~ball):
            nt = masks[t]
            side_s, side_t = ns & second[t], nt & second[s]
            a = _lowest(side_s | side_t)
            if side_s >> a & 1:
                out[(nodes[s], nodes[t])] = (nodes[a], nodes[_lowest(masks[a] & nt)])
            else:
                out[(nodes[s], nodes[t])] = (nodes[_lowest(masks[a] & ns)], nodes[a])
    return out


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
    member = np.zeros(n, dtype=bool)
    member[_positions(g, [*result.leaders, *result.helpers])] = True
    row = np.arange(n).repeat(g.degree)
    keep = member[row] & member[g.nbrs]
    ends = _positions(g, [end for edge in result.backbone_edges for end in edge])
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


def _positions(g: CommGraph, labels: Iterable[int]) -> np.ndarray:
    """Each label's position in g.nodes; KeyError for a label not in g."""
    bit = g.bit
    return np.array([bit[u].bit_length() - 1 for u in labels], dtype=np.intp)


def check_dominating(result: BackboneResult, g: CommGraph) -> Verdict:
    leaders = g.mask(result.leaders)
    missed = g.every & ~(leaders | g.mask(result.helpers) | g.near(leaders))
    if missed:
        return Verdict("dominating", False, witness=(g.nodes[_lowest(missed)],))
    members = set(result.leaders) | set(result.helpers)
    return Verdict("dominating", True, metrics={"backbone_size": len(members)})


def check_connected_backbone(backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, graph)."""
    if not backbone.nodes:
        return Verdict("connected-backbone", False, witness=())
    first = backbone.reach(1, backbone.every)  # the component of the smallest label
    if first == backbone.every:
        return Verdict("connected-backbone", True, metrics={"backbone_size": len(backbone.nodes)})
    return Verdict("connected-backbone", False, witness=tuple(backbone.labels(first)))


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


def check_constant_degree(backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, graph). The witness is
    the smallest label of the largest degree."""
    bound = DEGREE_BOUND
    worst = backbone.delta
    passed = worst <= bound
    worst_node = backbone.nodes[int(backbone.degree.argmax())] if worst else None
    return Verdict(
        "constant-degree",
        passed,
        witness=None if passed else (worst_node,),
        metrics={"max_degree": worst, "bound": bound},
    )


def check_diameter(g: CommGraph, backbone: CommGraph) -> Verdict:
    """backbone is backbone_graph(result, g)."""
    factor, slack = DIAMETER_FACTOR, DIAMETER_SLACK
    d_graph = diameter(g)
    d_back = diameter(backbone) if backbone.nodes else -1
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


def check_size_ratio(result: BackboneResult, g: CommGraph) -> Verdict:
    c_s = SIZE_FACTOR
    members = set(result.leaders) | set(result.helpers)
    if len(g.nodes) <= EXACT_CAP:
        optimum = min_cds(g)
        ratio = len(members) / len(optimum)
        return Verdict(
            "size-ratio",
            ratio <= c_s,
            witness=None if ratio <= c_s else tuple(sorted(members)),
            metrics={"ratio": ratio, "min_cds": len(optimum), "exact": 1.0},
        )
    surrogate = greedy_cds(g)
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
    g: CommGraph,
    snapshots: Sequence[tuple[int, Mapping[int, str]]],
    delta: int,
) -> Verdict:
    """Per-bucket induction: after selector phase i, every node of degree at
    least ceil(Delta / 2^(i+1)) is a leader or a neighbor of one. The
    witness is the smallest label that is not."""
    for i, statuses in snapshots:
        threshold = -(-delta // (2 ** (i + 1))) if delta else 0
        leaders = g.mask(u for u, s in statuses.items() if s == LEADER)
        for u in bits_of(g.every & ~(leaders | g.near(leaders))):
            if g.masks[u].bit_count() >= threshold:
                return Verdict("bucket-coverage", False, witness=(i, g.nodes[u]))
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
