"""The set-based verifier, kept as the reference for sinrbackbone.verify.

The checks, the CDS oracles and the two helper-rule replays as they were
before verify moved to label bitsets and a CSR list: each backbone check
rebuilds the backbone as a dict of lists, the greedy CDS covers with a
dense float32 product and connects with a BFS over Python sets, the exact
CDS enumerates label sets, and the replays search each leader's 2-hop or
3-hop ball with a BFS and intersect neighbour sets per pair. Every
Verdict.as_dict() and both replays must equal the package's. The budgets
(DEGREE_BOUND, DIAMETER_FACTOR, DIAMETER_SLACK, SIZE_FACTOR and EXACT_CAP)
are read from verify when called, so a patched budget moves both; the
leader-grid check, which reads positions only, is verify's own.
"""

from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from sinrbackbone import verify
from sinrbackbone.errors import ExactBranchTooLargeError
from sinrbackbone.physical import CommGraph, PhysicalInstance
from sinrbackbone.protocol import BackboneResult
from sinrbackbone.verify import Adjacency, Verdict

from oracles import _arcs, bfs_distances, components, induced, is_dominating


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


def min_cds(adj: Adjacency) -> set[int]:
    """Exact minimum connected dominating set by subset enumeration, in
    label order, for at most EXACT_CAP nodes."""
    nodes = sorted(adj)
    if len(nodes) > verify.EXACT_CAP:
        raise ExactBranchTooLargeError(
            f"exact CDS search capped at n={verify.EXACT_CAP}, got n={len(nodes)}"
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


def check_constant_degree(result: BackboneResult, graph: CommGraph) -> Verdict:
    bound = verify.DEGREE_BOUND
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
    factor, slack = verify.DIAMETER_FACTOR, verify.DIAMETER_SLACK
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
    c_s = verify.SIZE_FACTOR
    members = set(result.leaders) | set(result.helpers)
    if len(graph.adjacency) <= verify.EXACT_CAP:
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
        verify.check_leader_grid(result, inst),
        check_bucket_coverage(graph, result.phase_snapshots, result.delta),
    ]
