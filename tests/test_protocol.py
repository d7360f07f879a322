import math

import pytest

from sinrbackbone.cli import DEFAULT_PARAMS, GeneratorSpec, generate
from sinrbackbone.errors import DoubleRoleError, MessageSizeError
from sinrbackbone.physical import build_graph, make_instance
from sinrbackbone.protocol import (
    ACTIVE,
    INACTIVE,
    LEADER,
    CollectSink,
    Message,
    ProtocolConfig,
    Simulator,
    backbone_creation,
    leader_election,
    neighborhood_inform,
    run_round,
    three_hop_connection,
    token_passing,
    two_hop_connection,
)
from sinrbackbone.selection import pair_index
from sinrbackbone.verify import expected_three_hop, expected_two_hop, run_all_checks

P = DEFAULT_PARAMS  # alpha=4, beta=1, noise=1, eps=0.5, power=1.5 -> range 1


def force_leaders(sim, leaders):
    """Skip leader election: install its postcondition state directly."""
    for lab, v in sim.views.items():
        if lab in leaders:
            v.status = LEADER
        else:
            v.status = INACTIVE
            v.adjacent_leaders = set(v.neighbors) & set(leaders)


# ---------------------------------------------------------------------------
# Messages and the raw round primitive.


def test_message_size_budget():
    m = Message.make("leader-announce", (5,), n_labels=64, c_msg=128)
    assert m.size_bits <= 128 * math.log2(64)
    with pytest.raises(MessageSizeError):
        Message.make("hop3-report", tuple(range(1, 400)), n_labels=64, c_msg=16)


def test_run_round_no_transmitters():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P, 4)
    tr = run_round([(1, None), (2, None)], inst)
    assert tr.deliveries == () and tr.transmitters == ()


def test_run_round_single_transmitter():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (3, 5, 0)], P, 4)
    msg = Message.make("leader-announce", (1,), 4, 128)
    tr = run_round([(1, msg), (2, None), (3, None)], inst)
    assert tr.deliveries == ((1, 2),)  # 3 is out of range


def test_run_round_double_role():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P, 4)
    msg = Message.make("leader-announce", (1,), 4, 128)
    with pytest.raises(DoubleRoleError):
        run_round([(1, msg), (1, None), (2, None)], inst)


def test_run_round_diluted_pair_both_deliver():
    # transmitters far apart: each reaches its own nearby listener
    inst = make_instance([(1, 0, 0), (2, 0.9, 0), (3, 12, 0), (4, 11.1, 0)], P, 16)
    m1 = Message.make("leader-announce", (1,), 16, 128)
    m3 = Message.make("leader-announce", (3,), 16, 128)
    tr = run_round([(1, m1), (2, None), (3, m3), (4, None)], inst)
    assert (1, 2) in tr.deliveries and (3, 4) in tr.deliveries


def test_status_transitions_guarded():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P, 4)
    sim = Simulator(inst)
    sim.views[1].set_status(LEADER)
    with pytest.raises(ValueError):
        sim.views[1].set_status(INACTIVE)
    sim.views[2].set_status(INACTIVE)
    with pytest.raises(ValueError):
        sim.views[2].set_status(LEADER)


# ---------------------------------------------------------------------------
# Family executions.


def test_ssf_broadcast_hears_each_sender_once():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (3, 0.9, 0.3)], P, 16)
    sim = Simulator(inst)
    fam = sim.base_ssf()
    msg = sim.msg("leader-announce", (1,))
    assert len(fam.rounds_for(1)) > 1  # the lone sender is delivered in many rounds
    heard = sim.ssf_broadcast(fam, {1: msg}, "test")
    assert heard == {2: [(1, msg)], 3: [(1, msg)]}
    assert sim.round == fam.size
    rounds = [tr.round for tr in sim.sink.records]
    assert rounds == fam.rounds_for(1).tolist()
    assert all(tr.deliveries == ((1, 2), (1, 3)) for tr in sim.sink.records)


class _RoundSink(CollectSink):
    """Receives every execution round by round, as the trace file does."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def execution(self, ex):
        ex.replay(self)

    def emit(self, trace):
        self.calls.append(trace)

    def skip(self, phase, start_round, count):
        self.calls.append((phase, start_round, count))


def test_collected_records_match_the_round_by_round_stream():
    inst = generate(GeneratorSpec(n=16, arena_side=2.8, seed=5), P)
    collected = backbone_creation(inst)
    sink = _RoundSink()
    streamed = backbone_creation(inst, sink=sink)
    assert streamed.rounds_used == collected.rounds_used
    emitted = [c for c in sink.calls if not isinstance(c, tuple)]
    assert emitted == collected.traces.records
    # emit and skip calls cover every round once, in order
    cursor = 0
    for call in sink.calls:
        start, count = (call.round, 1) if not isinstance(call, tuple) else call[1:]
        assert start == cursor
        cursor += count
    assert cursor == collected.rounds_used
    silent = sum(c[2] for c in sink.calls if isinstance(c, tuple))
    assert collected.traces.silent_rounds == silent


def test_two_hop_checks_every_helper_claim_size_during_the_run():
    # helper 1 claims the three pairs of leaders 2, 3 and 4; a round that
    # carries two claims needs 8 + 2*3*5 = 38 bits against a 6*lg 16 = 24-bit
    # budget, one claim alone needs 23
    stations = [(1, 0, 0), (2, 0.9, 0), (3, -0.45, 0.78), (4, -0.45, -0.78)]
    inst = make_instance(stations, P, 16)
    for c_msg, fails in ((6, True), (128, False)):
        sim = Simulator(inst, ProtocolConfig(c_msg=c_msg))
        force_leaders(sim, {2, 3, 4})
        fam = sim.pair_ssf()
        claimed = [set(fam.rounds_for(pair_index(s, t, 16))) for s, t in ((2, 3), (2, 4))]
        assert claimed[0] & claimed[1]  # some round carries two claims
        if fails:
            with pytest.raises(MessageSizeError):
                two_hop_connection(sim)
        else:
            two_hop_connection(sim)
            assert sim.views[2].two_hop_helpers == {3: 1, 4: 1}


# ---------------------------------------------------------------------------
# Leader election.


def test_leader_election_single_node():
    inst = make_instance([(1, 0, 0)], P, 64)
    sim = Simulator(inst)
    leader_election(sim)
    assert sim.views[1].status == LEADER


def test_leader_election_two_nodes_first_sole_selected_wins():
    inst = make_instance([(3, 0, 0), (5, 0.5, 0)], P, 64)
    sim = Simulator(inst)
    fam = sim.selector(2, 3)  # delta=1: k=2, m=3
    winner = None
    for j in range(fam.size):
        sel = {lab for lab in (3, 5) if fam.contains(j, lab)}
        if len(sel) == 1:
            winner = sel.pop()
            break
    leader_election(sim)
    statuses = {lab: sim.views[lab].status for lab in (3, 5)}
    assert sorted(statuses.values()) == [INACTIVE, LEADER]
    assert statuses[winner] == LEADER


def test_leader_election_postconditions_random():
    inst = generate(GeneratorSpec(n=30, arena_side=3.2, seed=77), P)
    sim = Simulator(inst)
    leader_election(sim)
    adj = sim.graph.adjacency
    leaders = {lab for lab, v in sim.views.items() if v.status == LEADER}
    for u in adj:
        assert u in leaders or set(adj[u]) & leaders
    for u in leaders:
        assert not (set(adj[u]) & leaders)


# ---------------------------------------------------------------------------
# Neighborhood inform.


def test_neighborhood_inform_star():
    stations = [(9, 0, 0), (2, 0.8, 0), (4, -0.8, 0), (6, 0, 0.8)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {9})
    neighborhood_inform(sim)
    for lab in (2, 4, 6):
        assert sim.views[lab].learned_neighborhoods[9] == {2, 4, 6}


def test_neighborhood_inform_two_leaders_disjoint_tables():
    stations = [
        (1, 0, 0),
        (2, 0.8, 0),
        (3, 1.6, 0),
        (4, 2.4, 0),
        (5, 3.2, 0),
    ]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 4})
    neighborhood_inform(sim)
    assert sim.views[2].learned_neighborhoods[1] == {2}
    assert sim.views[3].learned_neighborhoods[4] == {3, 5}
    assert sim.views[5].learned_neighborhoods[4] == {3, 5}
    assert 4 not in sim.views[2].learned_neighborhoods  # out of range of 4


def test_neighborhood_inform_schedule_length_invariant():
    # rounds advance Delta full executions even when leaders run out of
    # neighbors early
    stations = [(1, 0, 0), (2, 0.8, 0), (3, 1.6, 0), (4, 1.6, 0.8)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 3})
    t = sim.base_ssf().size
    before = sim.round
    neighborhood_inform(sim)
    assert sim.round - before == sim.graph.delta * t


# ---------------------------------------------------------------------------
# Two-hop connection.


def test_two_hop_path():
    stations = [(8, 0, 0), (3, 0.9, 0), (6, 1.8, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {8, 6})
    two_hop_connection(sim)
    assert sim.views[8].two_hop_helpers == {6: 3}
    assert sim.views[6].two_hop_helpers == {8: 3}
    assert sim.views[3].status == "helper"


def test_two_hop_min_label_among_common_neighbors():
    stations = [(1, 0, 0), (2, 1.8, 0), (5, 0.9, 0.05), (9, 0.9, -0.05)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 2})
    two_hop_connection(sim)
    assert sim.views[1].two_hop_helpers == {2: 5}
    assert sim.views[2].two_hop_helpers == {1: 5}
    assert sim.views[9].status == INACTIVE  # not selected


def test_two_hop_ignores_three_hop_pairs():
    stations = [(1, 0, 0), (2, 0.9, 0), (3, 1.8, 0), (4, 2.7, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 4})
    two_hop_connection(sim)
    assert sim.views[1].two_hop_helpers == {}
    assert sim.views[4].two_hop_helpers == {}


# ---------------------------------------------------------------------------
# Token passing.


def test_token_passing_delivers_messages_to_all_neighbors():
    stations = [(7, 0, 0), (2, 0.8, 0), (4, -0.8, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {7})
    msgs = {
        lab: sim.msg("hop3-report", (lab,) + tuple(sorted(sim.views[lab].adjacent_leaders)))
        for lab in (2, 4)
    }
    heard = token_passing(sim, msgs)
    # the leader neighbors everyone, so it hears both messages
    senders_heard_by_7 = {s for s, _ in heard.get(7, [])}
    assert senders_heard_by_7 == {2, 4}
    for rec in sim.token_records:
        for sender, receivers in rec.transmissions:
            assert set(sim.graph.adjacency[sender]) <= set(receivers)


def test_token_passing_two_tokens_one_iteration():
    stations = [(5, 0, 0), (9, 1.8, 0), (3, 0.9, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {5, 9})
    sink = sim.sink
    msgs = {3: sim.msg("hop3-report", (3, 5, 9))}
    token_passing(sim, msgs)
    rec = sim.token_records[0]
    assert rec.holders == (3,)
    returns = [
        m
        for tr in sink.records
        for lab, m in tr.transmitters
        if m.kind == "token-return"
    ]
    assert (3, 5, 9) in {m.payload for m in returns}  # both tokens returned at once


def test_token_holder_box_bound():
    inst = generate(GeneratorSpec(n=40, arena_side=3.4, seed=13), P)
    result = backbone_creation(inst)
    from sinrbackbone.physical import grid_index

    gi = grid_index(inst)
    for rec in result.token_records:
        per_box: dict = {}
        for h in rec.holders:
            b = gi.boxes[h]
            per_box[b] = per_box.get(b, 0) + 1
        assert all(v <= 21 for v in per_box.values())


# ---------------------------------------------------------------------------
# Three-hop connection.


def test_three_hop_path():
    stations = [(8, 0, 0), (3, 0.9, 0), (5, 1.8, 0), (7, 2.7, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {8, 7})
    two_hop_connection(sim)
    three_hop_connection(sim)
    assert sim.views[8].three_hop_helpers == {7: (3, 5)}
    assert sim.views[7].three_hop_helpers == {8: (5, 3)}
    assert sim.views[3].status == "helper" and sim.views[5].status == "helper"


def test_three_hop_min_label_bridge_agreement():
    stations = [
        (10, 0, 0),
        (11, 2.7, 0),
        (2, 0.9, 0.35),
        (7, 1.8, 0.35),
        (3, 0.9, -0.35),
        (4, 1.8, -0.35),
    ]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {10, 11})
    two_hop_connection(sim)
    three_hop_connection(sim)
    # global minimum label 2 sits on the upper bridge; partner toward 11 is 7
    assert sim.views[10].three_hop_helpers == {11: (2, 7)}
    assert sim.views[11].three_hop_helpers == {10: (7, 2)}
    oracle = expected_three_hop(sim.graph.adjacency, {10, 11})
    assert oracle[(10, 11)] == (2, 7) and oracle[(11, 10)] == (7, 2)


def test_three_hop_guard_skips_two_hop_pairs():
    stations = [
        (1, 0, 0),
        (2, 1.8, 0),
        (9, 0.9, 0),
        (5, 0.55, 0.75),
        (6, 1.25, 0.75),
    ]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 2})
    two_hop_connection(sim)
    assert sim.views[1].two_hop_helpers == {2: 9}
    three_hop_connection(sim)
    assert sim.views[1].three_hop_helpers == {}
    assert sim.views[2].three_hop_helpers == {}


# ---------------------------------------------------------------------------
# Full pipeline.


def test_backbone_single_node():
    inst = make_instance([(1, 0, 0)], P, 64)
    r = backbone_creation(inst)
    assert r.leaders == (1,) and r.helpers == ()


def test_backbone_two_adjacent_nodes():
    inst = make_instance([(1, 0, 0), (2, 0.5, 0)], P, 64)
    r = backbone_creation(inst)
    assert len(r.leaders) == 1 and r.helpers == ()


def test_backbone_40_nodes_passes_all_checks():
    inst = generate(GeneratorSpec(n=40, arena_side=3.4, seed=21), P)
    r = backbone_creation(inst)
    graph = build_graph(inst)
    verdicts = run_all_checks(r, inst, graph)
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
    assert expected_two_hop(graph.adjacency, set(r.leaders)) == r.two_hop
    assert expected_three_hop(graph.adjacency, set(r.leaders)) == r.three_hop


def test_information_barrier_position_permutation():
    # swapping coordinates of structurally identical nodes leaves every
    # node's transmit decisions unchanged
    a = make_instance([(3, 0, 0), (5, 0.9, 0), (7, 1.8, 0)], P, 16)
    b = make_instance([(3, 1.8, 0), (5, 0.9, 0), (7, 0, 0)], P, 16)
    ra, rb = backbone_creation(a), backbone_creation(b)
    intents_a = [
        (tr.round, tr.phase, tuple((lab, m.kind, m.payload) for lab, m in tr.transmitters))
        for tr in ra.traces.records
    ]
    intents_b = [
        (tr.round, tr.phase, tuple((lab, m.kind, m.payload) for lab, m in tr.transmitters))
        for tr in rb.traces.records
    ]
    assert intents_a == intents_b


def test_backbone_determinism():
    inst = generate(GeneratorSpec(n=24, arena_side=3.0, seed=33), P)
    r1 = backbone_creation(inst)
    r2 = backbone_creation(inst)
    assert r1.leaders == r2.leaders
    assert r1.helpers == r2.helpers
    assert r1.backbone_edges == r2.backbone_edges
    assert r1.rounds_used == r2.rounds_used
    assert len(r1.traces.records) == len(r2.traces.records)
    for ta, tb in zip(r1.traces.records, r2.traces.records):
        assert ta == tb


def test_round_budget():
    # frozen budget: rounds <= C_r * Delta * lg(N)^2 with C_r = 2048
    inst = generate(GeneratorSpec(n=30, arena_side=3.2, seed=44), P)
    r = backbone_creation(inst)
    lg = math.log2(inst.n_labels)
    assert r.rounds_used <= 2048 * max(1, r.delta) * lg * lg


def test_all_statuses_resolved_and_messages_bounded():
    inst = generate(GeneratorSpec(n=20, arena_side=2.6, seed=55), P)
    r = backbone_creation(inst)
    assert all(s != ACTIVE for s in r.statuses.values())
    budget = 128 * math.log2(inst.n_labels)
    for tr in r.traces.records:
        for _, m in tr.transmitters:
            assert m.size_bits <= budget
