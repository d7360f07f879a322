import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sinrbackbone import physical, verify
from sinrbackbone.cli import GeneratorSpec, generate
from sinrbackbone.errors import (
    DegenerateDistanceError,
    DisconnectedInstanceError,
    NoDilutionError,
    UnboundedRangeError,
)
from sinrbackbone.physical import (
    SQRT2,
    CommGraph,
    PhysicsEngine,
    SinrParams,
    broadcast_range,
    build_graph,
    derive_dilution,
    distance,
    distance_matrix,
    grid_box,
    grid_index,
    make_instance,
    parse_instance,
    pivotal_side,
    serialize_instance,
)

from dense_engine import dense_adjudicate
from oracles import UndefinedRatioError, components, in_range, receives, sinr

P_UNIT = SinrParams(alpha=4.0, beta=1.0, noise=1.0, epsilon=0.5, power=1.5)  # range 1


def edges(graph):
    """The graph's edges (u, v), u < v, in label order."""
    return tuple((u, v) for u in sorted(graph.adjacency) for v in graph.adjacency[u] if u < v)


def test_distance_examples():
    assert distance((0, 0), (0, 0)) == 0
    assert distance((0, 0), (3, 4)) == 5
    assert distance((1, 1), (-2, 5)) == 5  # sqrt(9 + 16)


def test_params_validation():
    with pytest.raises(ValueError):
        SinrParams(alpha=2.0, beta=1, noise=1, epsilon=0.5, power=1)
    with pytest.raises(ValueError):
        SinrParams(alpha=3, beta=0.5, noise=1, epsilon=0.5, power=1)
    with pytest.raises(ValueError):
        SinrParams(alpha=3, beta=1, noise=1, epsilon=0.0, power=1)
    with pytest.raises(ValueError):
        SinrParams(alpha=3, beta=1, noise=-1, epsilon=0.5, power=1)


def test_sinr_single_transmitter_unit_distance():
    p = SinrParams(alpha=3, beta=1, noise=1.0, epsilon=0.5, power=2.0)
    inst = make_instance([(1, 0, 0), (2, 1, 0)], p, 4)
    assert sinr(1, 2, {1}, inst) == pytest.approx(2.0)


def test_sinr_with_interferer():
    p = SinrParams(alpha=3, beta=1, noise=0.1, epsilon=0.5, power=1.0)
    # receiver at origin, sender at distance 1, interferer at distance 2
    inst = make_instance([(1, 1, 0), (2, 0, 0), (3, 2, 0)], p, 4)
    assert sinr(1, 2, {1, 3}, inst) == pytest.approx(1 / (0.1 + 0.125))


def test_sinr_symmetric_pair():
    p = SinrParams(alpha=3, beta=1, noise=1.0, epsilon=0.5, power=1.0)
    inst = make_instance([(1, -1, 0), (2, 0, 0), (3, 1, 0)], p, 4)
    assert sinr(1, 2, {1, 3}, inst) == pytest.approx(0.5)


def test_sinr_preconditions_and_errors():
    p = SinrParams(alpha=3, beta=1, noise=0.0, epsilon=0.5, power=1.0)
    inst = make_instance([(1, 0, 0), (2, 1, 0)], p, 4)
    with pytest.raises(ValueError):
        sinr(1, 2, {2}, inst)  # sender not in transmitter set
    with pytest.raises(ValueError):
        sinr(1, 1, {1}, inst)
    with pytest.raises(UndefinedRatioError):
        sinr(1, 2, {1}, inst)  # zero noise, no interference
    inst2 = make_instance([(1, 0, 0), (2, 0, 0)], p, 4)
    with pytest.raises(DegenerateDistanceError):
        sinr(1, 2, {1}, inst2)


def test_range_closed_form():
    p = SinrParams(alpha=3, beta=1, noise=0.001, epsilon=0.5, power=1.0)
    assert broadcast_range(p) == pytest.approx((1 / 0.0015) ** (1 / 3))
    assert broadcast_range(p) == pytest.approx(8.7358, abs=1e-4)


def test_range_unit_normalization_and_scaling():
    p = SinrParams(alpha=3, beta=2, noise=0.25, epsilon=1.0, power=2 * 2 * 0.25)
    assert broadcast_range(p) == pytest.approx(1.0)
    doubled = SinrParams(alpha=3, beta=2, noise=0.25, epsilon=1.0, power=2.0)
    assert broadcast_range(doubled) == pytest.approx(2 ** (1 / 3))


def test_range_requires_noise():
    with pytest.raises(UnboundedRangeError):
        broadcast_range(SinrParams(alpha=3, beta=1, noise=0.0, epsilon=0.5, power=1))


def test_receives_at_range_boundary():
    r = broadcast_range(P_UNIT)
    at = make_instance([(1, 0, 0), (2, r, 0)], P_UNIT, 4)
    assert receives(1, 2, {1}, at)
    past = make_instance([(1, 0, 0), (2, r * 1.01, 0)], P_UNIT, 4)
    assert not receives(1, 2, {1}, past)


def test_receives_fails_under_interference():
    # power floor holds but an interferer close to the receiver kills SINR
    p = SinrParams(alpha=3, beta=1, noise=0.1, epsilon=0.5, power=1.0)
    inst = make_instance([(1, 1, 0), (2, 0, 0), (3, 0.5, 0)], p, 4)
    signal = 1.0  # d(sender, receiver) = 1
    assert signal >= (1 + p.epsilon) * p.beta * p.noise  # condition (2) holds
    assert sinr(1, 2, {1, 3}, inst) < p.beta
    assert not receives(1, 2, {1, 3}, inst)


@st.composite
def _layouts(draw):
    n = draw(st.integers(3, 7))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return [(i + 1, 0.63 * x, 0.63 * y) for i, (x, y) in enumerate(cells)]


@given(_layouts(), st.data())
@settings(max_examples=80, deadline=None)
def test_reception_monotonicity(stations, data):
    # removing a non-sender transmitter never turns reception off
    inst = make_instance(stations, P_UNIT, 16)
    labels = [lab for lab, _, _ in stations]
    sender, receiver = labels[0], labels[1]
    extras = labels[2:]
    tx = {sender} | set(
        data.draw(st.lists(st.sampled_from(extras), unique=True, min_size=1))
    )
    dropped = data.draw(st.sampled_from(sorted(tx - {sender})))
    before = receives(sender, receiver, tx, inst)
    after = receives(sender, receiver, tx - {dropped}, inst)
    assert after or not before


def test_range_consistency_single_transmitter():
    # receives(u,v,{u}) iff distance <= range, up to 1e-9 relative tolerance
    r = broadcast_range(P_UNIT)
    for scale in [0.1, 0.5, 0.999, 1.0, 1.001, 1.3, 2.0]:
        d = r * scale
        inst = make_instance([(1, 0, 0), (2, d, 0)], P_UNIT, 4)
        got = receives(1, 2, {1}, inst)
        if d <= r * (1 - 1e-9):
            assert got
        elif d > r * (1 + 1e-9):
            assert not got
        else:
            assert got  # exact tie is inclusive


def test_build_graph_small_cases():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P_UNIT, 4)
    assert edges(build_graph(inst)) == ((1, 2),)
    r = broadcast_range(P_UNIT)
    line = make_instance([(1, 0, 0), (2, r, 0), (3, 2 * r, 0)], P_UNIT, 4)
    g = build_graph(line)
    assert edges(g) == ((1, 2), (2, 3))  # boundary inclusive, path graph
    assert g.delta == 2


def test_build_graph_matches_bruteforce():
    import random

    rng = random.Random(7)
    stations = [(i + 1, rng.uniform(0, 3), rng.uniform(0, 3)) for i in range(20)]
    inst = make_instance(stations, P_UNIT, 32)
    r = broadcast_range(P_UNIT)
    expected = set()
    for i, (u, ux, uy) in enumerate(stations):
        for v, vx, vy in stations[i + 1 :]:
            if math.hypot(ux - vx, uy - vy) <= r:
                expected.add((min(u, v), max(u, v)))
    try:
        g = build_graph(inst)
        assert set(edges(g)) == expected
    except DisconnectedInstanceError:
        # brute-force connectivity check must agree with the rejection
        adj = {u: set() for u, _, _ in stations}
        for a, b in expected:
            adj[a].add(b)
            adj[b].add(a)
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert len(seen) != len(stations)


@given(
    points=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=30, unique=True
    )
)
@settings(max_examples=200, deadline=None)
@example(points=[(9 * k, 0) for k in range(30)])  # a path: 29 hops from end to end
@example(points=[(0, 0), (50, 50)])
def test_graph_is_rejected_exactly_when_the_csr_list_has_two_components(points):
    # the engine decides connectivity on its CSR list; the depth-first
    # components over the same neighbour lists must agree (stations on a
    # 0.1 grid, range 1)
    stations = [(i + 1, 0.1 * x, 0.1 * y) for i, (x, y) in enumerate(points)]
    inst = make_instance(stations, P_UNIT, 32)
    eng = PhysicsEngine(inst)
    labels = sorted(inst.labels)
    at = eng.nbr_at.tolist()
    nbrs = [labels[j] for j in eng.nbrs.tolist()]
    adj = {lab: nbrs[at[i] : at[i + 1]] for i, lab in enumerate(labels)}
    if len(components(adj)) > 1:
        with pytest.raises(DisconnectedInstanceError):
            eng.graph()
    else:
        assert eng.graph().adjacency == {u: tuple(vs) for u, vs in adj.items()}


def _plain_graph(adj):
    """A mapping's graph in plain Python: its nodes, its open and closed
    CSR lists (positions, ascending) and its largest degree."""
    nodes = sorted(adj)
    index = {u: i for i, u in enumerate(nodes)}
    rows = [sorted(index[v] for v in adj[u]) for u in nodes]
    closed = [sorted(row + [i]) for i, row in enumerate(rows)]

    def csr(rows):
        return [j for row in rows for j in row], list(itertools.accumulate(map(len, rows), initial=0))

    return nodes, csr(rows), csr(closed), max(map(len, rows), default=0)


def _graph_parts(g):
    """The same four parts, read from a CommGraph."""
    closed = tuple(a.tolist() for a in g.closed_csr)
    return g.nodes, (g.nbrs.tolist(), g.nbr_at.tolist()), closed, g.delta


@given(
    points=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=30, unique=True
    ),
    labels=st.permutations(range(1, 65)),
)
@settings(max_examples=200, deadline=None)
@example(points=[(0, 0)], labels=range(1, 65))  # one station: no edge, its closed row itself
def test_engine_graph_equals_the_graph_of_its_adjacency(points, labels):
    # stations on a 0.1 grid, range 1, labels drawn from 1..64 so that a
    # set of neighbour labels does not iterate in ascending order
    inst = make_instance(
        [(lab, 0.1 * x, 0.1 * y) for lab, (x, y) in zip(labels, points)], P_UNIT, 64
    )
    eng = PhysicsEngine(inst)
    try:
        g = eng.graph()
    except DisconnectedInstanceError:
        assume(False)
    want = _plain_graph(g.adjacency)
    assert _graph_parts(g) == want
    assert CommGraph.of(g) is g
    # the mapping's keys in descending order, its neighbours as sets
    as_sets = {u: set(g.adjacency[u]) for u in sorted(g.adjacency, reverse=True)}
    for adj in (g.adjacency, as_sets):
        h = CommGraph.of(adj)
        assert _graph_parts(h) == want
        assert h.adjacency == g.adjacency
        assert h.label_array.tolist() == g.label_array.tolist() == g.nodes
        assert h.nbrs.dtype == g.nbrs.dtype and h.nbr_at.dtype == g.nbr_at.dtype
    if len(points) == 1:
        assert g.delta == 0 and _graph_parts(g)[2] == ([0], [0, 1])


@pytest.mark.parametrize(
    "adj,message",
    [
        ({1: [2], 2: [1, 5]}, "neighbour label 5 is not a node"),
        ({1: [2], 2: [1, 0]}, "neighbour label 0 is not a node"),  # below every key
        ({1: [2], 2: []}, "labels 1 and 2 list each other unequally"),  # one way only
        ({1: [2, 2], 2: [1], 3: []}, "labels 1 and 2 list each other unequally"),  # twice
    ],
    ids=["unknown-label", "label-below-every-key", "one-way-edge", "listed-twice"],
)
def test_a_mapping_that_is_not_an_undirected_graph_is_rejected(adj, message):
    # it used to become some other graph: label 5 or 0 a neighbour of the
    # first node, or a one-way edge; the replays read the mapping as given
    with pytest.raises(ValueError, match=message):
        CommGraph.of(adj)
    with pytest.raises(ValueError, match=message):
        verify.expected_two_hop(adj, {1, 2})
    with pytest.raises(ValueError, match=message):
        verify.expected_three_hop(adj, {1, 2})


def test_engine_graph_is_one_object_over_the_engines_arrays():
    eng = PhysicsEngine(make_instance([(3, 0, 0), (1, 0.6, 0), (2, 1.2, 0)], P_UNIT, 4))
    g = eng.graph()
    assert eng.graph() is g
    assert g.nbrs is eng.nbrs and g.nbr_at is eng.nbr_at
    assert g.adjacency is g.adjacency == {1: (2, 3), 2: (1,), 3: (1,)}
    apart = PhysicsEngine(make_instance([(1, 0, 0), (2, 5, 0)], P_UNIT, 4))
    for _ in range(2):
        with pytest.raises(DisconnectedInstanceError):
            apart.graph()


def test_engine_gains_are_computed_on_first_adjudicate_with_the_same_floats():
    inst = make_instance([(3, 0, 0), (1, 0.6, 0), (2, 1.2, 0.1), (4, 0.3, 0.7)], P_UNIT, 4)
    eng = PhysicsEngine(inst)
    eng.graph()
    # an engine used only for its graph, as build_graph's, has no gains
    assert "gain" not in vars(eng) and "nbr_gain" not in vars(eng)
    delivered = eng.deliver([1, 2])
    assert "gain" in vars(eng) and "nbr_gain" in vars(eng)
    path_loss = distance_matrix(inst) ** P_UNIT.alpha
    np.fill_diagonal(path_loss, np.inf)
    gain = P_UNIT.power / path_loss
    assert eng.gain.tobytes() == gain.tobytes()
    rows, cols = np.nonzero(in_range(inst))
    assert eng.nbr_gain.tobytes() == gain[rows, cols].tobytes()
    assert delivered == eng.deliver([1, 2]) == PhysicsEngine(inst).deliver([1, 2])


def test_graph_engine_and_receives_agree_at_the_range_boundary():
    # math.hypot and np.hypot disagree in the last ulp on this pair: with
    # two distance formulas the graph had edge 1-2 while the engine
    # delivered nothing, and token passing failed on a valid instance
    p = SinrParams(alpha=3, beta=1, noise=1, epsilon=0.5, power=2)
    inst = make_instance(
        [(1, 4.968744130109189, 3.1825619087690398), (2, 6.030716215673527, 3.471748730800907)],
        p,
        4,
    )
    assert edges(build_graph(inst)) == ((1, 2),)
    assert PhysicsEngine(inst).deliver([1]) == [(1, 2)]
    assert receives(1, 2, [1], inst)


def test_lone_transmitter_reaches_exactly_its_graph_neighbors_at_range():
    # many neighbors at the range up to coordinate rounding, where two
    # distance formulas that differ in the last ulp disagree
    import random

    rng = random.Random(11)
    disagreements = []
    for params in (P_UNIT, SinrParams(alpha=3, beta=1, noise=1, epsilon=0.5, power=2)):
        r = broadcast_range(params)
        for _ in range(200):
            x0, y0 = rng.uniform(-20, 20), rng.uniform(-20, 20)
            points = [(x0, y0)]
            for _ in range(8):
                a = rng.uniform(0, 2 * math.pi)
                points.append((x0 + r * math.cos(a), y0 + r * math.sin(a)))
            inst = make_instance([(i + 1, x, y) for i, (x, y) in enumerate(points)], params, 16)
            eng = PhysicsEngine(inst)
            # the graph's edges at 1 (the points may not be connected)
            edges = [sorted(inst.labels)[j] for j in np.flatnonzero(in_range(inst)[0])]
            got = [v for _, v in eng.deliver([1])]
            expected = [v for v in range(2, 10) if receives(1, v, [1], inst)]
            if not (got == expected == list(edges)):
                disagreements.append((points, got, expected, edges))
    assert not disagreements, disagreements[:2]


def _params_with_range(exponent):
    """Parameters whose broadcast range is about 10**exponent, for exponents
    in -150..150: alpha just above 2 keeps power / noise finite."""
    return SinrParams(alpha=2.05, beta=1.0, noise=10.0 ** (-2.05 * exponent), epsilon=0.5, power=1.5)


@st.composite
def _sweep_layouts(draw):
    """Up to 12 stations around a centre, at the range on an axis or a
    diagonal, at the sweep's window w = range * (1 + 2**-30) in x or y, or
    anywhere within two ranges, each maybe one ulp off in x or y; at
    ranges 1e-150 .. 1e150, with coincident stations possible."""
    params = _params_with_range(draw(st.sampled_from([-150, -20, 0, 0, 3, 150])))
    r = broadcast_range(params)
    w = r * (1 + 2**-30)
    d = r / SQRT2
    x0, y0 = (r * draw(st.sampled_from([0, 0.5, -3, 1e6])) for _ in range(2))
    offsets = st.one_of(
        st.sampled_from([(0, 0), (r, 0), (-r, 0), (0, r), (0, -r), (d, d), (-d, d), (d, -d)]),
        st.sampled_from([(w, 0), (-w, 0), (0, w), (0, -w), (w, w), (w, 0.5 * r), (0.5 * r, -w)]),
        st.tuples(st.floats(-2 * r, 2 * r), st.floats(-2 * r, 2 * r)),
    )
    ulps = st.sampled_from([-1, 0, 0, 1])
    points = []
    for dx, dy in draw(st.lists(offsets, min_size=1, max_size=12)):
        x, y = x0 + dx, y0 + dy
        for _ in range(abs(step := draw(ulps))):
            x = math.nextafter(x, math.copysign(math.inf, step))
        for _ in range(abs(step := draw(ulps))):
            y = math.nextafter(y, math.copysign(math.inf, step))
        points.append((x, y))
    labels = draw(st.permutations(range(1, 33)))[: len(points)]
    return make_instance([(lab, x, y) for lab, (x, y) in zip(labels, points)], params, 32)


@given(_sweep_layouts(), st.sampled_from([1, 3, physical.NEAR_PAIRS_CHUNK]))
@settings(max_examples=400, deadline=None)
@example(make_instance([(5, 0.3, -0.2)], P_UNIT, 8), physical.NEAR_PAIRS_CHUNK)  # n = 1
@example(make_instance([(1, 0, 0), (2, 1, 1), (3, 0, 0)], P_UNIT, 8), 1)  # coincident
def test_engine_csr_list_is_the_in_range_matrix(inst, chunk):
    # the sweep finds every in-range pair however its windows are chunked
    dist = distance_matrix(inst)
    with mock.patch.object(physical, "NEAR_PAIRS_CHUNK", chunk):
        if np.count_nonzero(dist == 0.0) > inst.n:
            with pytest.raises(DegenerateDistanceError):
                PhysicsEngine(inst)
            return
        eng = PhysicsEngine(inst)
    rows, cols = np.nonzero(in_range(inst))
    assert eng.nbrs.dtype == cols.dtype and np.array_equal(eng.nbrs, cols)
    assert np.array_equal(eng.nbr_at, np.searchsorted(rows, np.arange(inst.n + 1)))


def test_build_graph_keeps_no_n_squared_state():
    # the in-range matrix alone was n**2 bytes
    n = 2000
    inst = generate(GeneratorSpec(n=n, arena_side=14.0, seed=1, n_labels=4096))
    tracemalloc.start()
    try:
        g = build_graph(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.delta > 0 and peak < n * n


def test_distance_matrix_is_distance():
    inst = make_instance([(5, 0, 0), (2, 3, 4), (9, -1, 2.5)], P_UNIT, 16)
    dist = distance_matrix(inst)
    pos = [p for _, p in sorted(inst.stations)]
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            assert dist[i, j] == distance(a, b)


_coords = st.floats(allow_nan=False, allow_infinity=False)


@given(st.tuples(_coords, _coords), st.tuples(_coords, _coords))
@example((1e308, -1e308), (-1e308, 1e308))  # the differences overflow
@example((5e-324, 0.0), (0.0, -5e-324))  # subnormal differences
@example((1e-300, 3e-300), (-1e-300, 0.0))
@example((1e16, 1.0), (1e16 + 2, -1.0))
@settings(max_examples=500, deadline=None)
def test_dist_is_bit_identical_to_hypot(a, b):
    # both reduce |a - b| with CPython's vector_norm, so distance() may
    # call either
    assert math.dist(a, b) == math.hypot(a[0] - b[0], a[1] - b[1])
    assert distance(a, b) == math.hypot(a[0] - b[0], a[1] - b[1])


def _distance_matrix_by_pairs(inst):
    """The per-pair loop distance_matrix replaced: math.hypot row by row."""
    pos = [p for _, p in sorted(inst.stations)]
    dist = np.zeros((len(pos), len(pos)))
    for i, a in enumerate(pos):
        row = [math.hypot(a[0] - b[0], a[1] - b[1]) for b in pos[i + 1 :]]
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return dist


def test_distance_matrix_equals_the_per_pair_loop():
    rng = np.random.default_rng(3)
    layouts = [[(1, 0.0, 0.0)], [(2, 0.5, 0.0), (1, 0.0, 0.0)]]
    for n, scale in ((40, 3.0), (150, 5.0), (60, 1e-150), (60, 1e150)):
        labels = rng.permutation(np.arange(1, 4 * n + 1))[:n]
        xy = rng.uniform(-scale, scale, (n, 2))
        layouts.append([(int(l), float(x), float(y)) for l, (x, y) in zip(labels, xy)])
    for stations in layouts:
        inst = make_instance(stations, P_UNIT, 4 * max(len(stations), 16))
        got, want = distance_matrix(inst), _distance_matrix_by_pairs(inst)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_build_graph_rejects_disconnected():
    inst = make_instance([(1, 0, 0), (2, 50, 0)], P_UNIT, 4)
    with pytest.raises(DisconnectedInstanceError):
        build_graph(inst)


def test_build_graph_rejects_coincident_stations():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (3, 0.5, 0)], P_UNIT, 4)
    with pytest.raises(DegenerateDistanceError):
        build_graph(inst)


def test_deliver_no_transmitters():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P_UNIT, 4)
    assert PhysicsEngine(inst).deliver([]) == []


def test_deliver_single_transmitter():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (3, 5, 0)], P_UNIT, 4)
    assert PhysicsEngine(inst).deliver([1]) == [(1, 2)]  # 3 is out of range


def test_deliver_counts_a_repeated_transmitter_once():
    # 1 and 3 interfere at 2; a transmitter listed twice must not add its
    # gain twice, nor come out of order
    inst = make_instance([(1, 0, 0), (2, 0.47, 0), (3, 1.0, 0), (4, 1.6, 0)], P_UNIT, 16)
    eng = PhysicsEngine(inst)
    assert eng.deliver([1, 3]) == [(1, 2), (3, 4)]
    assert eng.deliver([3, 1, 3]) == eng.deliver([1, 3])
    assert eng.deliver([]) == []
    none = np.zeros(0, dtype=np.intp)
    assert [a.tolist() for a in eng.adjudicate(none, none)] == [[], []]


def test_deliver_rejects_a_label_that_is_not_a_station():
    # 0 and 7 would land on stations 5 and 9, 13 past the last station
    eng = PhysicsEngine(make_instance([(5, 0, 0), (9, 0.5, 0), (12, 5, 0)], P_UNIT, 16))
    assert eng.deliver([5]) == [(5, 9)]
    for label in (0, 7, 13):
        with pytest.raises(KeyError, match=f"^{label}$"):
            eng.deliver([5, label])
    assert eng.deliver([]) == []


_KEY = st.integers(-4, 4) | st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 3),
    flat=st.lists(_KEY, max_size=60),
    table=st.lists(_KEY, max_size=20),
    values=st.lists(_KEY, min_size=60, max_size=60),
)
@example(width=1, flat=[], table=[1, 2], values=[0] * 60)  # no keys
@example(width=2, flat=[3, 1, 3, 2, 2, 0], table=[], values=[0] * 60)  # an empty table
@example(width=1, flat=[9, 2, 4, 2, 9], table=[0, 2, 4], values=list(range(60)))  # keys past it
def test_sorted_key_kernels_match_their_plain_definitions(width, flat, table, values):
    raw = np.array(flat[: len(flat) // width * width], dtype=np.int64).reshape(-1, width)
    rows = raw[np.lexsort(raw.T[::-1])]  # ascending rows
    heads = np.zeros(len(rows), dtype=bool)
    heads[np.unique(rows, axis=0, return_index=True)[1]] = True
    assert physical.run_heads(*rows.T).tolist() == heads.tolist()
    keys, tab = raw[:, 0], np.sort(np.array(table, dtype=np.int64))
    assert physical.in_sorted(keys, tab).tolist() == np.isin(keys, tab).tolist()
    minima: dict[int, int] = {}
    for k, v in zip(keys.tolist(), values):
        minima[k] = min(v, minima.get(k, v))
    distinct, least = physical.least(keys, np.array(values[: len(keys)], dtype=np.int64))
    assert distinct.tolist() == sorted(minima)
    assert least.tolist() == [minima[k] for k in sorted(minima)]


def test_deliver_diluted_pair_both_deliver():
    # transmitters far apart: each reaches its own nearby listener
    inst = make_instance([(1, 0, 0), (2, 0.9, 0), (3, 12, 0), (4, 11.1, 0)], P_UNIT, 16)
    got = PhysicsEngine(inst).deliver([1, 3])
    assert (1, 2) in got and (3, 4) in got


def test_grid_box_half_open():
    assert grid_box((0, 0), 1.0) == (0, 0)
    assert grid_box((2.5, -0.5), 1.0) == (2, -1)
    assert grid_box((3.0, 3.0), 1.0) == (3, 3)


def test_pivotal_grid_soundness():
    import random

    rng = random.Random(3)
    stations = [(i + 1, rng.uniform(0, 4), rng.uniform(0, 4)) for i in range(40)]
    inst = make_instance(stations, P_UNIT, 64)
    gi = grid_index(inst)
    assert gi.side == pytest.approx(pivotal_side(P_UNIT))
    assert gi.side == pytest.approx(broadcast_range(P_UNIT) / math.sqrt(2))
    pos = dict(inst.stations)
    for u, v in itertools.combinations(sorted(gi.boxes), 2):
        if gi.boxes[u] == gi.boxes[v]:
            assert distance(pos[u], pos[v]) <= broadcast_range(P_UNIT)


def test_derive_dilution_reference_case():
    dil = derive_dilution(P_UNIT)
    assert dil.d == 4  # smallest d passing the ring-interference bound
    assert dil.k == 21
    assert dil.c == 441 * (2 * dil.d + 1) ** 2


def test_derive_dilution_monotone_in_beta():
    base = derive_dilution(P_UNIT).d
    stricter = derive_dilution(
        SinrParams(alpha=4.0, beta=2.0, noise=1.0, epsilon=0.5, power=1.5)
    ).d
    assert stricter >= base


def test_derive_dilution_cap_error(monkeypatch):
    monkeypatch.setattr(physical, "DILUTION_D_CAP", 1)
    with pytest.raises(NoDilutionError):
        derive_dilution(P_UNIT)


def test_instance_roundtrip_is_identity():
    inst = make_instance(
        [(3, 0.1, 1e-7), (1, 2.30000000001, 5.5), (2, 1 / 3, 2 / 7)], P_UNIT, 16
    )
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again == inst


@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_instance_roundtrip_bit_exact_floats(coords):
    stations = [(i + 1, x, x * 0.5 + 1) for i, x in enumerate(coords)]
    inst = make_instance(stations, P_UNIT, 16)
    again = parse_instance(serialize_instance(inst))
    for (_, a), (_, b) in zip(inst.stations, again.stations):
        assert a[0] == b[0] and a[1] == b[1]  # bit-exact


def test_instance_label_validation():
    with pytest.raises(ValueError):
        make_instance([(1, 0, 0), (1, 1, 1)], P_UNIT, 4)
    with pytest.raises(ValueError):
        make_instance([(9, 0, 0)], P_UNIT, 4)


# ---------------------------------------------------------------------------
# Differential test of the round engine: one batch of rounds, one round at a
# time, and the scalar reception check.

P_REPRO = SinrParams(alpha=3, beta=1, noise=1, epsilon=0.5, power=2)


@st.composite
def _engine_layouts(draw):
    params = draw(st.sampled_from([P_UNIT, P_REPRO]))
    r = broadcast_range(params)
    kind = draw(st.sampled_from(["random", "at-range", "chain"]))
    x0 = draw(st.floats(-50, 50))
    y0 = draw(st.floats(-50, 50))
    if kind == "random":
        n = draw(st.integers(2, 8))
        offsets = draw(
            st.lists(
                st.tuples(st.floats(0, 3 * r), st.floats(0, 3 * r)), min_size=n, max_size=n
            )
        )
        points = [(x0 + dx, y0 + dy) for dx, dy in offsets]
    elif kind == "at-range":
        # neighbors of a center at exactly the range, up to the rounding of
        # the coordinates, in random directions
        angles = draw(st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=6))
        points = [(x0, y0)] + [(x0 + r * math.cos(a), y0 + r * math.sin(a)) for a in angles]
    else:
        # a collinear chain with every gap at the range
        n = draw(st.integers(2, 8))
        angle = draw(st.sampled_from([0.0, math.pi / 2, draw(st.floats(0, math.pi))]))
        dx, dy = r * math.cos(angle), r * math.sin(angle)
        points = [(x0 + i * dx, y0 + i * dy) for i in range(n)]
    labels = draw(st.permutations(range(1, 17)))[: len(points)]
    inst = make_instance([(lab, x, y) for lab, (x, y) in zip(labels, points)], params, 16)
    dist = distance_matrix(inst)
    assume(np.all(dist[~np.eye(len(points), dtype=bool)] > 1e-3))
    member = np.array(
        draw(
            st.lists(
                st.lists(st.booleans(), min_size=len(points), max_size=len(points)),
                min_size=1,
                max_size=6,
            )
        ),
        dtype=bool,
    )
    return inst, member


def _loop_deliver(eng, near, labels, transmitters):
    """The round engine's one-round loop before batching: the reference.
    near is the instance's in_range, labels its labels, ascending."""
    idx = np.array([labels.index(t) for t in transmitters], dtype=int)
    g = eng.gain[idx]
    total = g.sum(axis=0) + eng.noise
    listener = np.ones(len(labels), dtype=bool)
    listener[idx] = False
    out = []
    for row, t_lab, i in zip(g, transmitters, idx):
        ok = listener & near[i] & (row >= eng.beta * (total - row))
        out.extend((t_lab, labels[j]) for j in np.flatnonzero(ok))
    return sorted(out)


@given(_engine_layouts())
@settings(max_examples=300, deadline=None)
def test_engine_batch_matches_rounds_and_scalar_reference(layout):
    inst, member = layout
    eng = PhysicsEngine(inst)
    labels = sorted(inst.labels)
    pos = dict(inst.stations)
    rounds, senders = np.nonzero(member)
    t, rx = eng.adjudicate(rounds, senders)
    batch = list(zip(rounds[t].tolist(), senders[t].tolist(), rx.tolist()))
    assert batch == sorted(batch)
    for row, mask in enumerate(member):
        tx = [labels[i] for i in np.flatnonzero(mask)]
        got = [(labels[s], labels[j]) for r, s, j in batch if r == row]
        assert got == eng.deliver(tx) == _loop_deliver(eng, in_range(inst), labels, tx)
        for s in tx:
            for v in labels:
                if v in tx:
                    continue
                # SINR exactly at the threshold is a float tie that the two
                # summation orders may break differently
                if distance(pos[s], pos[v]) <= broadcast_range(inst.params):
                    margin = sinr(s, v, tx, inst) / inst.params.beta - 1
                    if abs(margin) < 1e-9:
                        continue
                assert ((s, v) in got) == receives(s, v, tx, inst), (s, v, tx)
    # a lone transmitter reaches exactly its graph neighbors
    try:
        adjacency = build_graph(inst).adjacency
    except DisconnectedInstanceError:
        adjacency = None
    if adjacency is not None:
        for u in labels:
            assert [v for _, v in eng.deliver([u])] == list(adjacency[u])


@st.composite
def _crowded_batches(draw):
    """Up to 30 stations within 1.5 ranges of each other and 0-6 rounds of up
    to 21 transmitters each (the token-holder box bound), so many in-range
    listeners transmit in the same round."""
    params = draw(st.sampled_from([P_UNIT, P_REPRO]))
    side = 1.5 * broadcast_range(params)
    n = draw(st.integers(1, 30))
    points = draw(
        st.lists(st.tuples(st.floats(0, side), st.floats(0, side)), min_size=n, max_size=n)
    )
    labels = draw(st.permutations(range(1, 33)))[:n]
    inst = make_instance([(lab, x, y) for lab, (x, y) in zip(labels, points)], params, 32)
    dist = distance_matrix(inst)
    assume(np.all(dist[~np.eye(n, dtype=bool)] > 1e-3))
    member = np.zeros((draw(st.integers(0, 6)), n), dtype=bool)
    cap = min(21, n)
    for row in member:
        k = draw(st.one_of(st.just(cap), st.integers(0, cap)))
        row[draw(st.permutations(range(n)))[:k]] = True
    return inst, member


@given(st.one_of(_engine_layouts(), _crowded_batches()))
@settings(max_examples=300, deadline=None)
def test_engine_matches_the_dense_reference_bit_for_bit(layout):
    inst, member = layout
    eng = PhysicsEngine(inst)
    rounds, senders, tx, rx = dense_adjudicate(eng, member)
    got_tx, got_rx = eng.adjudicate(rounds, senders)
    assert np.array_equal(got_tx, tx) and np.array_equal(got_rx, rx)


# The sender's x, bisected so that its signal at the listener sits midway
# between the SINR thresholds of the two summation orders of _edge_layout:
# about 15 ulps from each.
EDGE_SENDER_X = 0.9277741910336122


def _edge_layout(faint_first):
    """A listener at the origin, the sender on the x axis, one interferer
    of gain about 1 and 200 faint ones far away, each of gain below half an
    ulp of 1: added to a sum of 1 or more they vanish, added to each other
    first they do not. With faint_first their labels come before the other
    stations', else after. Returns the instance, the sender and the
    listener."""
    faint = [(11000.0 + 10.0 * i, 3000.0) for i in range(200)]
    if faint_first:
        labs, (near, sender, listener) = range(1, 201), (201, 202, 203)
    else:
        labs, (sender, near, listener) = range(4, 204), (1, 2, 3)
    stations = [(lab, x, y) for lab, (x, y) in zip(labs, faint)]
    stations += [(near, 0.0, 1.1), (sender, EDGE_SENDER_X, 0.0), (listener, 0.0, 0.0)]
    return make_instance(stations, P_UNIT, 203), sender, listener


def _verdict(eng, index, sender, listener, gains, noise_first=False):
    """The scalar SINR test with the round's gains summed in the given
    order: signal >= (sum + noise - signal) * beta, from 0.0 or noise.
    index maps each label to its station index."""
    signal = eng.gain[index[sender], index[listener]]
    total = eng.noise if noise_first else 0.0
    for g in gains:
        total += g
    if not noise_first:
        total += eng.noise
    return bool(signal >= (total - signal) * eng.beta)


@pytest.mark.parametrize("faint_first", [True, False], ids=["faint-first", "faint-last"])
def test_interference_is_summed_in_ascending_label_order(faint_first):
    inst, sender, listener = _edge_layout(faint_first)
    eng = PhysicsEngine(inst)
    labels = np.array(sorted(inst.labels))
    index = {lab: i for i, lab in enumerate(labels.tolist())}
    senders = np.flatnonzero(labels != listener)
    gains = eng.gain[senders, index[listener]].tolist()  # ascending labels
    ascending = _verdict(eng, index, sender, listener, gains)
    # the fixture sits where the order decides the verdict
    assert ascending != _verdict(eng, index, sender, listener, gains[::-1])
    if faint_first:
        assert ascending != _verdict(eng, index, sender, listener, gains, noise_first=True)
    tx, rx = eng.adjudicate(np.zeros_like(senders), senders)
    heard = set(zip(labels[senders[tx]].tolist(), labels[rx].tolist()))
    assert ((sender, listener) in heard) == ascending
