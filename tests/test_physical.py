import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinrbackbone.errors import (
    DegenerateDistanceError,
    DisconnectedInstanceError,
    NoDilutionError,
    UnboundedRangeError,
    UndefinedRatioError,
)
from sinrbackbone.physical import (
    PhysicsEngine,
    _adjacency,
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
    receives,
    serialize_instance,
    sinr,
)

P_UNIT = SinrParams(alpha=4.0, beta=1.0, noise=1.0, epsilon=0.5, power=1.5)  # range 1


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
    assert build_graph(inst).edges == ((1, 2),)
    r = broadcast_range(P_UNIT)
    line = make_instance([(1, 0, 0), (2, r, 0), (3, 2 * r, 0)], P_UNIT, 4)
    g = build_graph(line)
    assert g.edges == ((1, 2), (2, 3))  # boundary inclusive, path graph
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
        assert set(g.edges) == expected
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
    assert build_graph(inst).edges == ((1, 2),)
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
            edges = _adjacency(inst)[1]  # what build_graph connects
            got = [v for _, v in PhysicsEngine(inst).deliver([1])]
            expected = [v for v in range(2, 10) if receives(1, v, [1], inst)]
            if not (got == expected == list(edges)):
                disagreements.append((points, got, expected, edges))
    assert not disagreements, disagreements[:2]


def test_distance_matrix_is_distance():
    inst = make_instance([(5, 0, 0), (2, 3, 4), (9, -1, 2.5)], P_UNIT, 16)
    dist = distance_matrix(inst)
    pos = [p for _, p in sorted(inst.stations)]
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            assert dist[i, j] == distance(a, b)


def test_build_graph_rejects_disconnected():
    inst = make_instance([(1, 0, 0), (2, 50, 0)], P_UNIT, 4)
    with pytest.raises(DisconnectedInstanceError):
        build_graph(inst)


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
    pos = inst.positions()
    for box, labs in gi.occupants().items():
        for i, u in enumerate(labs):
            for v in labs[i + 1 :]:
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


def test_derive_dilution_cap_error():
    with pytest.raises(NoDilutionError):
        derive_dilution(P_UNIT, d_cap=1)


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


def _loop_deliver(eng, transmitters):
    """The round engine's one-round loop before batching: the reference."""
    idx = np.array([eng.index[t] for t in transmitters], dtype=int)
    g = eng.gain[idx]
    total = g.sum(axis=0) + eng.noise
    listener = np.ones(len(eng.labels), dtype=bool)
    listener[idx] = False
    out = []
    for row, t_lab, i in zip(g, transmitters, idx):
        ok = listener & eng.in_range[i] & (row >= eng.beta * (total - row))
        out.extend((t_lab, eng.labels[j]) for j in np.flatnonzero(ok))
    return sorted(out)


@given(_engine_layouts())
@settings(max_examples=300, deadline=None)
def test_engine_batch_matches_rounds_and_scalar_reference(layout):
    inst, member = layout
    eng = PhysicsEngine(inst)
    labels = eng.labels
    rounds, senders, heard = eng.adjudicate(member)
    t, rx = np.nonzero(heard)
    batch = list(zip(rounds[t].tolist(), senders[t].tolist(), rx.tolist()))
    assert batch == sorted(batch)
    for row, mask in enumerate(member):
        tx = [labels[i] for i in np.flatnonzero(mask)]
        got = [(labels[s], labels[j]) for r, s, j in batch if r == row]
        assert got == eng.deliver(tx) == _loop_deliver(eng, tx)
        for s in tx:
            for v in labels:
                if v in tx:
                    continue
                # SINR exactly at the threshold is a float tie that the two
                # summation orders may break differently
                if distance(inst.position(s), inst.position(v)) <= broadcast_range(inst.params):
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
