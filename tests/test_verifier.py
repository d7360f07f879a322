import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrbackbone import verify
from sinrbackbone.cli import DEFAULT_PARAMS, GeneratorSpec, generate
from sinrbackbone.errors import ExactBranchTooLargeError
from sinrbackbone.physical import (
    CommGraph,
    build_graph,
    derive_dilution,
    grid_box,
    make_instance,
    pivotal_side,
)
from sinrbackbone.protocol import BackboneResult, CollectSink, backbone_creation
from sinrbackbone.verify import (
    adversarial_dilution_check,
    backbone_graph,
    check_connected_backbone,
    check_constant_degree,
    check_diameter,
    check_dominating,
    check_leader_grid,
    check_size_ratio,
    diameter,
    dilution_trial,
    expected_three_hop,
    expected_two_hop,
    geometric_degree_bound,
    greedy_cds,
    min_cds,
)

import verify_reference as ref
from oracles import bfs_distances, components, induced, is_dominating, scalar_dilution_trial

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

P = DEFAULT_PARAMS


def fake_result(leaders, helpers=(), edges=(), delta=1, snapshots=()):
    return BackboneResult(
        leaders=tuple(leaders),
        helpers=tuple(helpers),
        backbone_edges=tuple(edges),
        rounds_used=0,
        traces=CollectSink(),
        statuses={},
        two_hop={},
        three_hop={},
        phase_snapshots=list(snapshots),
        token_records=[],
        delta=delta,
    )


def path_instance(labels, spacing=0.9):
    return make_instance(
        [(lab, i * spacing, 0) for i, lab in enumerate(labels)], P, 64
    )


def test_check_dominating():
    inst = make_instance([(1, 0, 0)], P, 4)
    g = build_graph(inst)
    assert check_dominating(fake_result([1]), g).passed

    inst3 = path_instance([1, 2, 3])
    g3 = build_graph(inst3)
    assert check_dominating(fake_result([2]), g3).passed
    v = check_dominating(fake_result([1]), g3)  # 3 is two hops from the leader
    assert not v.passed and v.witness == (3,)


def test_check_connected_backbone():
    inst = path_instance([1, 2, 3, 4])
    g = build_graph(inst)
    assert check_connected_backbone(backbone_graph(fake_result([2]), g)).passed
    ok = fake_result([1, 4], helpers=[2, 3], edges=[(1, 2), (2, 3), (3, 4)])
    assert check_connected_backbone(backbone_graph(ok, g)).passed
    broken = fake_result([1, 4], helpers=[2], edges=[(1, 2)])
    assert not check_connected_backbone(backbone_graph(broken, g)).passed


def test_check_constant_degree(monkeypatch):
    inst = path_instance([1, 2, 3])
    g = build_graph(inst)
    assert check_constant_degree(backbone_graph(fake_result([2]), g)).passed
    assert verify.DEGREE_BOUND == geometric_degree_bound()
    monkeypatch.setattr(verify, "DEGREE_BOUND", 0)
    r = fake_result([1, 3], helpers=[2], edges=[(1, 2), (2, 3)])
    v = check_constant_degree(backbone_graph(r, g))
    assert not v.passed
    assert geometric_degree_bound() > 100  # 3-hop box count times two helpers


def test_check_diameter(monkeypatch):
    # complete triangle: diameter 1
    inst = make_instance([(1, 0, 0), (2, 0.4, 0), (3, 0.2, 0.3)], P, 8)
    g = build_graph(inst)
    assert check_diameter(g, backbone_graph(fake_result([1]), g)).passed
    # long path: backbone spanning all nodes keeps the diameter
    labs = list(range(1, 11))
    inst = path_instance(labs)
    g = build_graph(inst)
    r = fake_result([5], helpers=[x for x in labs if x != 5])
    v = check_diameter(g, backbone_graph(r, g))
    assert v.passed and v.metrics["backbone_diameter"] == v.metrics["graph_diameter"]
    monkeypatch.setattr(verify, "DIAMETER_FACTOR", 0)
    monkeypatch.setattr(verify, "DIAMETER_SLACK", 0)
    g = build_graph(path_instance([1, 2, 3, 4]))
    r = fake_result([1, 4], helpers=[2, 3], edges=[(1, 2), (2, 3), (3, 4)])
    assert not check_diameter(g, backbone_graph(r, g)).passed


def test_run_all_checks_passes_one_backbone_to_the_three_backbone_checks(monkeypatch):
    inst = path_instance([1, 2, 3, 4, 5, 6])
    g, result = build_graph(inst), backbone_creation(inst)
    built, read = [], {}
    real_backbone_graph = verify.backbone_graph

    def backbone_graph_spy(*args):
        built.append(real_backbone_graph(*args))
        return built[-1]

    monkeypatch.setattr(verify, "backbone_graph", backbone_graph_spy)
    for name in ("check_connected_backbone", "check_constant_degree", "check_diameter"):

        def check_spy(*args, real=getattr(verify, name), name=name):
            read[name] = args
            return real(*args)

        monkeypatch.setattr(verify, name, check_spy)
    assert all(v.passed for v in verify.run_all_checks(result, inst, g))
    assert len(built) == 1 and len(read) == 3
    assert all(args[-1] is built[0] for args in read.values())
    assert read["check_diameter"][0] is g


def test_check_size_ratio_exact_and_surrogate():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P, 4)
    g = build_graph(inst)
    v = check_size_ratio(fake_result([1]), g)
    assert v.passed and v.metrics["ratio"] == 1.0 and v.metrics["min_cds"] == 1

    labs = list(range(1, 8))
    g7 = build_graph(path_instance(labs))
    v = check_size_ratio(fake_result([2, 5], helpers=[3, 4]), g7)
    assert v.metrics["min_cds"] == 5  # interior nodes of a 7-path
    assert v.metrics["exact"] == 1.0

    big = list(range(1, 20))
    gbig = build_graph(path_instance(big))
    v = check_size_ratio(fake_result(big[:1], helpers=big[1:]), gbig)
    assert v.metrics["exact"] == 0.0  # surrogate branch reports only
    with pytest.raises(ExactBranchTooLargeError):
        min_cds(gbig)


def test_check_size_ratio_star():
    stations = [(8, 0, 0)] + [
        (i, 0.8 * dx, 0.8 * dy)
        for i, (dx, dy) in enumerate(
            [(1, 0), (-1, 0), (0, 1), (0, -1), (0.7, 0.7), (-0.7, 0.7), (0.7, -0.7)],
            start=1,
        )
    ]
    inst = make_instance(stations, P, 16)
    g = build_graph(inst)
    assert min_cds(g) == {8}
    v = check_size_ratio(fake_result([8]), g)
    assert v.passed and v.metrics["ratio"] == 1.0


def test_check_leader_grid():
    inst = make_instance([(1, 0, 0), (2, 0.05, 0.05), (3, 0.9, 0)], P, 8)
    assert check_leader_grid(fake_result([1]), inst).passed
    v = check_leader_grid(fake_result([1, 2]), inst)  # same pivotal box
    assert not v.passed and set(v.witness) == {1, 2}


def test_leader_grid_after_real_run():
    inst = generate(GeneratorSpec(n=35, arena_side=3.3, seed=3), P)
    result = backbone_creation(inst)
    assert check_leader_grid(result, inst).passed


# ---------------------------------------------------------------------------
# The exact CDS oracle itself.


def known_cds_sizes():
    # star: 1; clique: 1; path of p: max(1, p - 2) interior nodes
    cases = []
    star = {1: [2, 3, 4, 5], 2: [1], 3: [1], 4: [1], 5: [1]}
    cases.append((star, 1))
    clique = {u: [v for v in range(1, 6) if v != u] for u in range(1, 6)}
    cases.append((clique, 1))
    for p in (2, 3, 4, 7, 9):
        path = {
            u: [v for v in (u - 1, u + 1) if 1 <= v <= p] for u in range(1, p + 1)
        }
        cases.append((path, max(1, p - 2)))
    return cases


@pytest.mark.parametrize("adj,expected", known_cds_sizes())
def test_min_cds_known_structures(adj, expected):
    assert len(min_cds(CommGraph.of(adj))) == expected
    # a second, independent enumeration order must agree on the size: with
    # the labels mirrored, enumeration visits the nodes in reverse order
    top = max(adj) + 1
    mirrored = {top - u: [top - v for v in vs] for u, vs in adj.items()}
    assert len(min_cds(CommGraph.of(mirrored))) == expected


def test_min_cds_is_dominating_and_connected():
    inst = generate(GeneratorSpec(n=11, arena_side=1.8, seed=8), P)
    g = build_graph(inst)
    cds = min_cds(g)
    assert is_dominating(g.adjacency, cds)
    assert len(components(induced(g.adjacency, cds))) == 1


def test_greedy_cds_valid():
    inst = generate(GeneratorSpec(n=30, arena_side=3.0, seed=9), P)
    g = build_graph(inst)
    cds = greedy_cds(g)
    assert is_dominating(g.adjacency, cds)
    assert len(components(induced(g.adjacency, cds))) == 1


# ---------------------------------------------------------------------------
# The array oracles against whole-graph Python references.


def _bfs(adj, src):
    """Hop distance from src of every node it reaches, in BFS order."""
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


def _diameter_by_bfs(adj):
    """A BFS from every node; -1 when one of them misses a node."""
    best = 0
    for u in adj:
        dist = _bfs(adj, u)
        if len(dist) != len(adj):
            return -1
        best = max(best, max(dist.values()))
    return best


def _components_by_bfs(adj):
    """Each component as a set built from a BFS-ordered dict, in ascending
    order of its smallest label; the connection phase starts its BFS in
    ascending label order."""
    left = set(adj)
    out = []
    while left:
        comp = set(_bfs({u: [v for v in adj[u] if v in left] for u in left}, min(left)))
        out.append(comp)
        left -= comp
    return out


def _greedy_cds_by_max_key(adj):
    """The cover by a max over (gain, -label) keys, then the chosen set's
    components joined along BFS paths through the graph."""
    nodes = sorted(adj)
    if len(nodes) == 1:
        return {nodes[0]}
    covered, chosen = set(), set()
    while covered != set(nodes):
        best = max(nodes, key=lambda u: (len((set(adj[u]) | {u}) - covered), -u))
        chosen.add(best)
        covered |= set(adj[best]) | {best}
    while len(components(induced(adj, chosen))) > 1:
        a = _components_by_bfs(induced(adj, chosen))[0]
        frontier, target = sorted(a), None
        parent = {u: None for u in a}
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


@st.composite
def _graphs(draw):
    """Simple graphs on 0 to 80 random labels (so reach sets span one or two
    64-bit words), connected or not: a random tree over the first `tree`
    nodes, each parent at most `span` nodes back (a small span makes long
    paths), plus random extra edges."""
    n = draw(st.integers(0, 80))
    labels = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    tree = n if draw(st.booleans()) else draw(st.integers(0, n))
    span = draw(st.integers(1, max(1, n)))
    edges = {(labels[i - draw(st.integers(1, min(i, span)))], labels[i]) for i in range(1, tree)}
    if n:
        pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
        edges |= {(a, b) for a, b in draw(st.lists(pairs, max_size=n)) if a != b}
    adj = {u: set() for u in labels}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {u: tuple(sorted(vs)) for u, vs in adj.items()}


def _path(labels):
    ends = (None, *labels, None)
    return {u: tuple(v for v in (ends[i], ends[i + 2]) if v) for i, u in enumerate(labels)}


# 66 nodes whose two ends hold the largest labels: the farthest pair's reach
# bits both lie in the second 64-bit word
_LONG_PATH = _path([65, *range(1, 65), 66])


def _undirected(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return {u: tuple(sorted(vs)) for u, vs in sorted(adj.items())}


# a 9 x 9 grid (81 nodes: reach rows of two words, diameter 16), labels row
# by row; a 70-cycle (diameter 35) whose labels go round in steps of 3, so
# that each frontier lists its nodes out of label order; a star of 20 leaves
_GRID = _undirected(
    [(9 * i + j + 1, 9 * i + j + 2) for i in range(9) for j in range(8)]
    + [(9 * i + j + 1, 9 * i + j + 10) for i in range(8) for j in range(9)]
)
_CYCLE = _undirected([(3 * k % 70 + 1, 3 * (k + 1) % 70 + 1) for k in range(70)])
_STAR = _undirected([(50, leaf) for leaf in range(1, 21)])


@given(_graphs())
@example({})
@example({7: ()})
@example({1: (), 2: ()})
@example(_LONG_PATH)
@example(_GRID)
@example(_CYCLE)
@example(_STAR)
@settings(max_examples=300, deadline=None)
def test_array_oracles_match_the_python_references(adj):
    g = CommGraph.of(adj)
    assert diameter(g) == _diameter_by_bfs(adj)
    assert components(adj) == _components_by_bfs(adj)
    if len(components(adj)) <= 1:
        assert greedy_cds(g) == _greedy_cds_by_max_key(adj)
    else:  # no path joins the cover's components
        with pytest.raises(AssertionError):
            greedy_cds(g)
        with pytest.raises(AssertionError):
            _greedy_cds_by_max_key(adj)


@st.composite
def _backbones(draw):
    """A graph of _graphs and a backbone result on it: members are any
    nodes, and a backbone edge may join a non-member, a node to itself, or
    two nodes the graph does not join."""
    adj = draw(_graphs())
    labels = sorted(adj)
    nodes = st.lists(st.sampled_from(labels), unique=True) if labels else st.just([])
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    edges = st.lists(pair, max_size=6) if labels else st.just([])
    return adj, draw(nodes), draw(nodes), draw(edges)


@given(_backbones())
# a backbone whose member 5 has no backbone edge, and one with an
# isolated member of its own: leader 70, whose only neighbour is no member
@example((_path(range(1, 8)), [1, 3, 5], [2], [(1, 2), (2, 3)]))
@example((_CYCLE, [1, 4, 70], [7], [(1, 4), (4, 7)]))
@example((_GRID, [1, 21, 41, 61, 81], list(range(2, 10)), [(9, 18), (18, 27)]))
@example((_STAR, [50], [1, 2], [(1, 1)]))
@settings(max_examples=300, deadline=None)
def test_backbone_graph_is_the_reference_backbone(backbone):
    adj, leaders, helpers, edges = backbone
    result = fake_result(leaders, helpers, edges)
    g = CommGraph.of(adj)
    got, want = backbone_graph(result, g), CommGraph.of(ref._backbone_adjacency(result, g))
    assert got.nodes == want.nodes and got.delta == want.delta
    assert got.nbrs.tolist() == want.nbrs.tolist() and got.nbr_at.tolist() == want.nbr_at.tolist()
    # the checks that read it, on degree-0 rows too
    connected = ref.check_connected_backbone(result, g)
    assert check_connected_backbone(got).as_dict() == connected.as_dict()
    assert check_diameter(g, got).as_dict() == ref.check_diameter(result, g).as_dict()


# the 9-cycle 1-2-4-9-8-7-6-5-3-1: the cover's components hold labels that
# collide in a small set's hash table, so a component built as a set
# iterates in the order its members were inserted
_NINE_CYCLE = {
    1: (2, 3), 2: (1, 4), 3: (1, 5), 4: (2, 9), 5: (3, 6),
    6: (5, 7), 7: (6, 8), 8: (7, 9), 9: (4, 8),
}


def test_greedy_cds_does_not_depend_on_component_set_order():
    # the same graph with its nodes and each neighbour list in ascending
    # and in descending label order: the connection search visits nodes
    # by label, so the order a mapping or a set holds them in cannot move
    # the path it adds
    cds = []
    for rev in (False, True):
        order = sorted(_NINE_CYCLE, reverse=rev)
        adj = {u: tuple(sorted(_NINE_CYCLE[u], reverse=rev)) for u in order}
        cds.append(greedy_cds(CommGraph.of(adj)))
    assert cds[0] == cds[1] == _greedy_cds_by_max_key(_NINE_CYCLE)
    assert is_dominating(_NINE_CYCLE, cds[0]) and (
        len(components(induced(_NINE_CYCLE, cds[0]))) == 1
    )


def test_expected_two_hop_on_path():
    adj = {1: [2], 2: [1, 3], 3: [2, 4], 4: [3]}
    assert expected_two_hop(adj, {1, 3}) == {(1, 3): 2}
    assert expected_two_hop(adj, {1, 4}) == {}


def _two_hop_by_bfs(adj, leaders):
    """The two-hop rule read off a BFS of the whole graph per leader."""
    out = {}
    ls = sorted(leaders)
    for i, s in enumerate(ls):
        ds = bfs_distances(adj, s)
        for t in ls[i + 1 :]:
            if ds.get(t) == 2:
                out[(s, t)] = min(set(adj[s]) & set(adj[t]))
    return out


def _three_hop_by_bfs(adj, leaders):
    """The three-hop rule read off a BFS of the whole graph per leader."""
    out = {}
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
                out[(s, t)] = (a, min(set(adj[a]) & set(adj[t])))
            else:
                out[(s, t)] = (min(set(adj[a]) & set(adj[s])), a)
    return out


@st.composite
def _connected_graphs(draw):
    """A random spanning tree plus random extra edges, on random labels,
    and a random leader set."""
    n = draw(st.integers(1, 14))
    labels = draw(st.permutations(range(1, 33)))[:n]
    edges = {(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
        edges |= {(a, b) for a, b in draw(st.lists(pairs, max_size=2 * n)) if a != b}
    adj = {u: set() for u in labels}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    leaders = set(draw(st.lists(st.sampled_from(labels), max_size=n)))
    return {u: tuple(sorted(vs)) for u, vs in adj.items()}, leaders


@given(_connected_graphs())
# leaders every third node of the grid, of the 70-cycle (pairs at distance
# 3, in both orientations), and the star's leaves (every pair at distance 2)
@example((_GRID, set(range(1, 82, 3))))
@example((_CYCLE, {3 * k % 70 + 1 for k in range(0, 70, 3)}))
@example((_STAR, set(range(1, 21))))
@settings(max_examples=300, deadline=None)
def test_helper_replays_match_the_whole_graph_bfs(graph):
    adj, leaders = graph
    assert len(components(adj)) == 1
    assert expected_two_hop(adj, leaders) == _two_hop_by_bfs(adj, leaders)
    assert expected_three_hop(adj, leaders) == _three_hop_by_bfs(adj, leaders)


# ---------------------------------------------------------------------------
# The bitset verifier against the set-based reference (verify_reference.py).


def _assert_verifier_matches_the_reference(result, inst, graph):
    got = [v.as_dict() for v in verify.run_all_checks(result, inst, graph)]
    assert got == [v.as_dict() for v in ref.run_all_checks(result, inst, graph)]
    adj, leaders = graph.adjacency, set(result.leaders)
    assert expected_two_hop(adj, leaders) == ref.expected_two_hop(adj, leaders)
    assert expected_three_hop(adj, leaders) == ref.expected_three_hop(adj, leaders)
    return got


def test_verifier_matches_the_reference_on_battery_seed_1():
    # the benchmark's battery, seed 1: 20 instances, n = 4 to 58 at N=64;
    # n = 4 and 10 take the exact CDS branch, the rest the greedy one
    exact = 0
    for inst in workloads.make_instances(workloads.WORKLOADS["battery"], 1):
        got = _assert_verifier_matches_the_reference(
            backbone_creation(inst), inst, build_graph(inst)
        )
        exact += got[4]["metrics"]["exact"] == 1.0
    assert exact == 4


def test_verifier_matches_the_reference_on_n150_at_N1024():
    inst = generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P)
    result = backbone_creation(inst)
    got = _assert_verifier_matches_the_reference(result, inst, build_graph(inst))
    assert all(v["pass"] for v in got) and result.three_hop


# (leaders, helpers, edges, delta, snapshots) on the 7-path 1..7, spaced
# 0.9, with label 1 moved into label 2's pivotal box for "grid"
_FAILING = {
    # 5 to 7 are neither leaders nor next to one; the backbone falls apart
    "undominated": ([1, 3], [], [], 1, []),
    # no backbone at all: no component, diameter -1
    "empty": ([], [], [], 1, []),
    # two backbone components, one joined by an edge the graph lacks
    "split": ([1, 4, 7], [2, 5], [(1, 2), (5, 7)], 1, []),
    # bucket 0 leaves 7 (degree 1 >= ceil(2 / 2)) uncovered
    "bucket": ([2, 5], [1, 3, 4, 6, 7], [], 2, [(0, {2: "leader", 5: "leader"})]),
    # leaders 1 and 2 share a pivotal box
    "grid": ([1, 2, 4, 6], [3, 5, 7], [(2, 3), (3, 4), (5, 6)], 2, []),
}


def test_verifier_matches_the_reference_on_failing_results(monkeypatch):
    # with the degree, diameter and size budgets as they are and patched to
    # fail, every check fails on some case, so every witness is compared
    failed = set()
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(verify, "DEGREE_BOUND", 0)
            monkeypatch.setattr(verify, "DIAMETER_FACTOR", 0)
            monkeypatch.setattr(verify, "DIAMETER_SLACK", 0)
            monkeypatch.setattr(verify, "SIZE_FACTOR", 0.5)
        for case, (leaders, helpers, edges, delta, snapshots) in _FAILING.items():
            stations = [(lab, 0.9 * (lab - 1), 0) for lab in range(1, 8)]
            if case == "grid":
                stations[0] = (1, 0.85, 0.05)
            inst = make_instance(stations, P, 64)
            result = fake_result(leaders, helpers, edges, delta, snapshots)
            got = _assert_verifier_matches_the_reference(result, inst, build_graph(inst))
            assert not all(v["pass"] for v in got), case
            failed |= {v["check"] for v in got if not v["pass"]}
    assert len(failed) == 7


# ---------------------------------------------------------------------------
# Dilution soundness (physical layer).


def test_adversarial_dilution_certification():
    dil = derive_dilution(P)
    assert adversarial_dilution_check(P, dil.d)


def test_dilution_trials_clean():
    dil = derive_dilution(P)
    for seed in range(40):
        assert dilution_trial(P, dil.d, seed=seed) == []


def test_engine_dilution_trial_equals_the_scalar_oracle():
    # below the derived d the trial fails, so the engine and the scalar
    # check are compared on thousands of failed and delivered pairs
    for d, seeds, count in ((0, range(5), 3354), (1, range(20), 116)):
        failures = 0
        for seed in seeds:
            got = dilution_trial(P, d, seed=seed)
            assert got == scalar_dilution_trial(P, d, seed), (d, seed)
            failures += len(got)
        assert failures == count


def test_verification_budgets_are_pinned(monkeypatch):
    # the exact branch's cap, the trial's 16 x 16 boxes and the lattice's
    # span of 100 are the paper-scale budgets; a smaller one fails here
    assert verify.EXACT_CAP == 14
    assert (verify.TRIAL_BOXES, verify.LATTICE_SPAN) == (16, 100)
    # the trial's placement reads TRIAL_BOXES: its stations reach the 16th
    # box column and row, and no further
    stations, _ = verify._diluted_placement(P, derive_dilution(P).d, 0)
    boxes = {grid_box((x, y), pivotal_side(P)) for _, x, y in stations}
    assert max(max(b) for b in boxes) == 15 and min(min(b) for b in boxes) == 0
    # the lattice reads LATTICE_SPAN: without dilution its interferers
    # break the threshold, and with no cells there are none
    assert not adversarial_dilution_check(P, 0)
    monkeypatch.setattr(verify, "LATTICE_SPAN", 0)
    assert adversarial_dilution_check(P, 0)
