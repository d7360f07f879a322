import dataclasses
import inspect
import math
import random
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrbackbone
from sinrbackbone import protocol
from sinrbackbone.cli import DEFAULT_PARAMS, GeneratorSpec, generate
from sinrbackbone.errors import MessageSizeError, SimulationError, TokenDeliveryError
from sinrbackbone.physical import (
    PhysicsEngine,
    build_graph,
    load_instance,
    make_instance,
    serialize_instance,
)
from sinrbackbone.protocol import (
    ACTIVE,
    HELPER,
    INACTIVE,
    LEADER,
    STATUSES,
    BackboneResult,
    Families,
    ProtocolConfig,
    Simulator,
    TokenRecord,
    backbone_creation,
    leader_election,
    neighborhood_inform,
    three_hop_connection,
    token_passing,
    two_hop_connection,
)
from sinrbackbone.selection import SelectionFamily, pair_index
from sinrbackbone.verify import expected_three_hop, expected_two_hop, run_all_checks

from dense_engine import dense_adjudicate
from family_schedule import PHASES, leader_buckets, scheduled_phase_rounds
from inform_reference import reference_two_hop_connection
from leader_reference import reference_leader_election
from oracles import (
    NodeView,
    Sent,
    make_message,
    msg,
    sent_messages,
    ssf_broadcast,
    transmitted,
    views,
    writer,
)
from test_cli import REFERENCE_RUNS
from token_reference import reference_three_hop_connection, reference_token_passing
from trace_reference import each_execution, message_keys, records, replay

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's instance lists)

P = DEFAULT_PARAMS  # alpha=4, beta=1, noise=1, eps=0.5, power=1.5 -> range 1
FIXTURES = Path(__file__).resolve().parent / "fixtures"
DEMO_LOSS = GeneratorSpec(n=41, arena_side=2.3421980659599577, seed=30442)


def demo_loss():
    """The instance generated from DEMO_LOSS, committed as a fixture: in
    both token-passing sweeps, holder 35's message never reaches its
    neighbour 46."""
    return load_instance(str(FIXTURES / "demo_loss.json"))


def test_the_demo_loss_fixture_is_what_its_spec_generates():
    # generator drift fails here, instead of silently swapping the
    # instance the tests load
    generated = serialize_instance(generate(DEMO_LOSS, P)).encode()
    assert generated == (FIXTURES / "demo_loss.json").read_bytes()


def force_leaders(sim, leaders):
    """Skip leader election: install its postcondition state directly.
    Every non-leader heard each neighbouring leader announce."""
    g = sim.graph
    lead = np.isin(g.label_array, list(leaders))
    sim.status[:] = np.where(lead, STATUSES.index(LEADER), STATUSES.index(INACTIVE))
    listener = np.repeat(np.arange(len(g.nodes)), np.diff(g.nbr_at))
    heard = ~lead[listener] & lead[g.nbrs]
    sim.adjacent = g.label_array[np.column_stack([listener, g.nbrs])[heard]]


# ---------------------------------------------------------------------------
# Messages and node status.


def test_message_size_budget(monkeypatch):
    # at N = 64 a label is 7 bits after the 8-bit kind, and the budget is
    # C_MSG * lg 64 bits: 768 by default, 96 with C_MSG = 16
    assert protocol.C_MSG == 128
    for c_msg, fits in ((128, 108), (16, 12)):
        monkeypatch.setattr(protocol, "C_MSG", c_msg)
        m = make_message("hop3-report", tuple(range(1, fits + 1)), n_labels=64)
        assert m.size_bits == 8 + 7 * fits <= c_msg * math.log2(64)
        with pytest.raises(MessageSizeError):
            make_message("hop3-report", tuple(range(1, fits + 2)), n_labels=64)


LEGAL_TRANSITIONS = {
    (ACTIVE, LEADER),
    (ACTIVE, INACTIVE),
    (INACTIVE, HELPER),
    (HELPER, HELPER),
    (LEADER, LEADER),
}


def test_status_transitions_guarded():
    # every (old, new) pair, through Simulator.set_status and the tests'
    # NodeView: exactly the paper's five transitions pass, and an illegal
    # one changes nothing
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (4, 0.9, 0.3)], P, 4)
    sim = Simulator(inst)
    assert sim.statuses() == dict.fromkeys((1, 2, 4), ACTIVE)
    passed, viewed = set(), set()
    for old in STATUSES:
        for new in STATUSES:
            sim.status[:] = STATUSES.index(old)
            try:
                sim.set_status([2], new)
            except ValueError as err:
                assert str(err) == f"illegal status transition {old} -> {new} at station 2"
                assert sim.statuses() == dict.fromkeys((1, 2, 4), old)
            else:
                passed.add((old, new))
                assert sim.statuses() == {1: old, 2: new, 4: old}
            v = NodeView(2, 3, 4, 2, (1, 4), old)
            try:
                v.set_status(new)
            except ValueError:
                assert v.status == old
            else:
                viewed.add((old, new))
    assert passed == viewed == LEGAL_TRANSITIONS
    # a batch with one illegal station among legal ones: nothing moves
    sim.status[:] = [STATUSES.index(s) for s in (INACTIVE, HELPER, LEADER)]
    with pytest.raises(ValueError, match="illegal status transition leader -> helper at station 4"):
        sim.set_status([1, 2, 4], HELPER)
    assert sim.statuses() == {1: INACTIVE, 2: HELPER, 4: LEADER}
    sim.set_status([1, 2], HELPER)
    assert sim.statuses() == {1: HELPER, 2: HELPER, 4: LEADER}


# ---------------------------------------------------------------------------
# Family executions.


def test_ssf_broadcast_hears_each_sender_once():
    # over 64 labels the base ssf puts each label in several sets (over 16
    # it is one singleton per label)
    inst = make_instance([(1, 0, 0), (2, 0.5, 0), (3, 0.9, 0.3)], P, 64)
    sim = Simulator(inst)
    fam = sim.base_ssf()
    announce = msg(sim, "leader-announce", (1,))
    assert len(fam.rounds_for(1)) > 1  # the lone sender is delivered in many rounds
    (heard,) = ssf_broadcast(sim, fam, [({1: announce}, "test")])
    assert heard == [(1, 2), (1, 3)]
    assert sim.round == fam.size
    rounds = [tr.round for tr in records(sim.sink.executions, 64)]
    assert rounds == fam.rounds_for(1).tolist()
    assert all(tr.deliveries == ((1, 2), (1, 3)) for tr in records(sim.sink.executions, 64))


class _RoundSink:
    """Receives every execution of a run over n_labels labels round by
    round, as the trace file does."""

    def __init__(self, n_labels):
        self.n_labels = n_labels
        self.calls = []

    def execution(self, ex):
        replay(ex, self, self.n_labels)

    def emit(self, trace):
        self.calls.append(trace)

    def skip(self, phase, start_round, count):
        self.calls.append((phase, start_round, count))


def test_collected_records_match_the_round_by_round_stream():
    inst = generate(GeneratorSpec(n=16, arena_side=2.8, seed=5), P)
    collected = backbone_creation(inst)
    sink = _RoundSink(inst.n_labels)
    streamed = backbone_creation(inst, sink=sink)
    assert streamed.rounds_used == collected.rounds_used
    # emit and skip calls cover every round once, in order
    cursor = 0
    for call in sink.calls:
        start, count = (call.round, 1) if not isinstance(call, tuple) else call[1:]
        assert start == cursor
        cursor += count
    assert cursor == collected.rounds_used
    silent = sum(c[2] for c in sink.calls if isinstance(c, tuple))
    executions = each_execution(collected.traces.executions)
    assert sum(ex.size - len(ex.rounds) for ex in executions) == silent


def test_executions_tile_the_rounds_as_scheduled():
    # every round belongs to exactly one family execution, silent or not,
    # and each phase runs exactly the documented schedule of executions
    inst = generate(GeneratorSpec(n=16, arena_side=2.8, seed=5), P)
    r = backbone_creation(inst)
    executions = each_execution(r.traces.executions)
    cursor = 0
    for ex in executions:
        assert ex.start == cursor
        cursor += ex.size
    assert cursor == r.rounds_used
    assert any(len(ex.rounds) == 0 for ex in executions)  # silent ones too
    per_phase = dict.fromkeys(PHASES, 0)
    for ex in executions:
        per_phase[ex.phase.split("/", 1)[0]] += ex.size
    fams = Families.for_run(inst, ProtocolConfig())
    selectors = [fams.selector(k, m).size for k, m in leader_buckets(r.delta)]
    assert per_phase == scheduled_phase_rounds(
        r.delta, fams.base_ssf().size, fams.pair_ssf().size, selectors
    )


# station 1 neighbours 2, 3 and 4, which are two hops from each other: with
# 2, 3 and 4 as leaders, 1 is the helper that claims all three pairs
CLAIM_STATIONS = [(1, 0, 0), (2, 0.9, 0), (3, -0.45, 0.78), (4, -0.45, -0.78)]


def test_two_hop_checks_every_helper_claim_size_during_the_run(monkeypatch):
    # helper 1 claims the three pairs of leaders 2, 3 and 4; a round that
    # carries two claims needs 8 + 2*3*7 = 50 bits against a 6*lg 64 = 36-bit
    # budget, one claim alone needs 29. Over 64 labels the pair ssf puts the
    # claims of (2, 3) and (3, 4) in one set (over 16 it is all singletons).
    inst = make_instance(CLAIM_STATIONS, P, 64)
    for c_msg, fails in ((6, True), (128, False)):
        monkeypatch.setattr(protocol, "C_MSG", c_msg)
        sim = Simulator(inst)
        force_leaders(sim, {2, 3, 4})
        fam = sim.pair_ssf()
        claimed = [set(fam.rounds_for(pair_index(s, t, 64))) for s, t in ((2, 3), (3, 4))]
        assert claimed[0] & claimed[1]  # some round carries two claims
        if fails:
            with pytest.raises(MessageSizeError) as err:
                two_hop_connection(sim)
            assert str(err.value) == "helper-claim message of 50 bits exceeds 36-bit budget"
            # the run stops before the pair ssf execution is recorded
            phases = [ex.phase for ex in sim.sink.executions]
            assert phases[-1] == "neighborhood-inform/i=3"
            assert "two-hop-connection" not in phases
        else:
            two_hop_connection(sim)
            assert views(sim)[2].two_hop_helpers == {3: 1, 4: 1}


def _assert_key_table_matches_reference(batch) -> list:
    """batch's table holds the message keys that the per-transmission
    reference finds: each schedule's keys in order, with their senders,
    carried positions, and each transmission's key. Returns the
    reference."""
    table = batch.table
    reference = message_keys(batch)
    assert len(reference) == len(table.key_at) - 1 == len(table.tx_at) - 1
    for e, (keys, key_of) in enumerate(reference):
        k0, k1 = table.key_at[e], table.key_at[e + 1]
        assert [(table.sender[j], table.carried[j]) for j in range(k0, k1)] == keys
        assert table.key[table.tx_at[e] : table.tx_at[e + 1]] == key_of
    return reference


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_the_key_table_matches_the_per_transmission_reference(name, monkeypatch):
    # every batch the run plans, also a speculated leader-election batch
    # whose later rows were dropped
    batches = []
    plan = Simulator._plan

    def kept(self, family, schedules):
        batches.append(plan(self, family, schedules))
        return batches[-1]

    monkeypatch.setattr(Simulator, "_plan", kept)
    executions = backbone_creation(generate(REFERENCE_RUNS[name][0])).traces.executions
    reference = {batch: _assert_key_table_matches_reference(batch) for batch in batches}
    planned = [ex for ex in executions if ex.batch is not None]
    assert planned and {ex.batch for ex in planned} == reference.keys()
    for ex in planned:
        assert ex.message_keys == reference[ex.batch][ex.index][1]


def test_the_key_table_covers_a_transmission_that_carries_two_claims(monkeypatch):
    # the layout of the helper-claim size test, within the budget: one
    # round of the pair ssf carries helper 1's claims of (2, 3) and (3, 4)
    monkeypatch.setattr(protocol, "C_MSG", 128)
    sim = Simulator(make_instance(CLAIM_STATIONS, P, 64))
    force_leaders(sim, {2, 3, 4})
    two_hop_connection(sim)
    (ex,) = [e for e in sim.sink.executions if e.phase == "two-hop-connection"]
    keys, key_of = _assert_key_table_matches_reference(ex.batch)[ex.index]
    assert max(len(ks) for _u, ks in keys) == 2
    assert len(keys) < len(key_of)  # some key is sent more than once


def _kind_of_phase(phase: str) -> str:
    """The kind of message an execution of phase sends."""
    if phase.startswith("token-passing/"):
        run, step = phase.split("/")[1], phase.rsplit("/", 1)[1]
        report = "hop3-report" if run == "run=0" else "hop3-choice"
        return {"grant": "token-grant", "msg": report, "return": "token-return"}[step]
    return {
        "leader-election": "leader-announce",
        "neighborhood-inform": "neighbor-of-leader",
        "two-hop-connection": "helper-claim",
        "three-hop-connection": "hop3-choice",
    }[phase.split("/")[0]]


def test_executions_that_share_a_schedule_keep_their_own_texts():
    # the two token-passing sweeps run the same schedules, an iteration's
    # msg and return executions share one, and so do three-hop's announce
    # and neighborhood inform's first: each execution sends its own phase's
    # messages all the same
    inst = generate(REFERENCE_RUNS["cli-trace"][0])
    kinds = {}  # the kinds each schedule's executions send
    for ex in backbone_creation(inst).traces.executions:
        if ex.batch is not None:
            sent = {m.kind for m in transmitted(ex, inst.n_labels)}
            assert sent == {_kind_of_phase(ex.phase)}, ex.phase
            kinds.setdefault((ex.batch, ex.index), set()).update(sent)
    # the test can fail: a sweep's msg schedule sends three kinds
    assert max(map(len, kinds.values())) == 3


def test_a_collected_run_builds_no_message_that_a_sink_builds(monkeypatch):
    # every message is sized from its label count; only a sink that reads
    # an execution's messages has them rendered, so a collected run calls
    # no payload writer, and builds none of the records' arrays either
    calls = []
    execute = Simulator.execute

    def counting(self, family, executions):
        def counted(write):
            def counting_write(senders, carried):
                calls.append(write)
                return write(senders, carried)

            return counting_write

        specs = [(slots, owners, phase, counted(w)) for slots, owners, phase, w in executions]
        return execute(self, family, specs)

    monkeypatch.setattr(Simulator, "execute", counting)
    inst = generate(GeneratorSpec(n=40, arena_side=3.4, seed=13), P)
    r = backbone_creation(inst)
    assert r.two_hop and r.three_hop and r.token_records  # every phase sent messages
    assert calls == []
    batches = {id(ex.batch): ex.batch for ex in r.traces.executions if ex.batch}
    assert batches and not any("table" in vars(b) for b in batches.values())
    # a sink that reads them renders every kind
    trs = records(r.traces.executions, inst.n_labels)
    assert calls
    assert {m.kind for tr in trs for _lab, m in tr.transmitters} == {
        "leader-announce",
        "neighbor-of-leader",
        "helper-claim",
        "token-grant",
        "hop3-report",
        "token-return",
        "hop3-choice",
    }


# ---------------------------------------------------------------------------
# Leader election.


def test_leader_election_single_node():
    inst = make_instance([(1, 0, 0)], P, 64)
    sim = Simulator(inst)
    leader_election(sim)
    assert views(sim)[1].status == LEADER


def _pendant_below_bucket_0():
    """46 stations within 0.45 range of the origin (a sunflower spiral,
    label 1 nearest the bridge), a bridge at 1.2 range and a pendant at 2.1
    range: Delta = 46, so bucket 0 needs degree >= ceil(46/42) = 2, and the
    pendant (degree 1) stays active until bucket 1 elects it."""
    golden = math.pi * (3 - math.sqrt(5))
    radii = [0.45 * math.sqrt((k + 0.5) / 46) for k in range(46)]
    disc = sorted(
        ((r * math.cos(k * golden), r * math.sin(k * golden)) for k, r in enumerate(radii)),
        key=lambda p: -p[0],
    )
    stations = [(lab, x, y) for lab, (x, y) in enumerate(disc, 1)]
    return make_instance(stations + [(47, 1.2, 0.0), (48, 2.1, 0.0)], P, 64)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_instance([(3, 0, 0), (5, 0.5, 0)], P, 64),
        lambda: generate(GeneratorSpec(n=40, arena_side=3.4, seed=17), P),
        lambda: generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P),
        _pendant_below_bucket_0,
    ],
    ids=["two-nodes", "n40-N64", "n150-N1024", "pendant-below-bucket-0"],
)
def test_leader_election_follows_its_per_round_rule(make):
    # replay every selector round: the transmitters of its ssf execution are
    # exactly the active stations of the degree bucket that are selected
    # while no neighbor is; they become leaders, and every active station
    # that hears one becomes inactive
    inst = make()
    sim = Simulator(inst)
    leader_election(sim)
    adj = sim.graph.adjacency
    delta = sim.graph.delta
    status = dict.fromkeys(adj, ACTIVE)
    executions = iter(each_execution(sim.sink.executions))
    for i, (k, m) in enumerate(leader_buckets(delta)):
        lo, hi = -(-delta // (42 << i)), -(-delta // (1 << i))
        fam = sim.selector(k, m)
        for j in range(fam.size):
            ex = next(executions)
            assert ex.phase == f"leader-election/i={i}"
            members = set(fam.set_members(j))
            expected = {
                u
                for u in adj
                if status[u] == ACTIVE
                and lo <= len(adj[u]) <= hi
                and u in members
                and not members & set(adj[u])
            }
            assert set(ex.transmissions[:, 1].tolist()) == expected
            for u in expected:
                status[u] = LEADER
            for r in ex.deliveries[:, 2].tolist():
                if status[r] == ACTIVE:
                    status[r] = INACTIVE
    assert next(executions, None) is None
    assert status == {lab: v.status for lab, v in views(sim).items()}
    # every station decided; the leaders form a maximal independent set
    assert ACTIVE not in status.values()
    leaders = {u for u, s in status.items() if s == LEADER}
    assert all(u in leaders or set(adj[u]) & leaders for u in adj)
    assert not any(set(adj[u]) & leaders for u in leaders)


def test_leader_election_postconditions_random():
    inst = generate(GeneratorSpec(n=30, arena_side=3.2, seed=77), P)
    sim = Simulator(inst)
    leader_election(sim)
    adj = sim.graph.adjacency
    leaders = {lab for lab, v in views(sim).items() if v.status == LEADER}
    for u in adj:
        assert u in leaders or set(adj[u]) & leaders
    for u in leaders:
        assert not (set(adj[u]) & leaders)


def _elect_counting_plans(inst, elect, adjudicate=None):
    """A Simulator after elect(sim), and the number of _plan calls it made;
    adjudicate, if given, wraps the engine's: adjudicate(real, rounds,
    senders)."""
    sim = Simulator(inst)
    plans = []
    plan = sim._plan

    def counted(family, schedules):
        plans.append(len(schedules))
        return plan(family, schedules)

    sim._plan = counted
    if adjudicate is not None:
        real = sim.engine.adjudicate
        sim.engine.adjudicate = lambda rounds, senders: adjudicate(real, rounds, senders)
    elect(sim)
    return sim, len(plans)


def _assert_leader_election_equals_the_reference(inst, adjudicate=None):
    """The speculative election on inst gives the row-by-row reference's
    statuses, adjacent leaders, snapshots, rounds and executions, with
    each stretch of silent executions in one record; returns the number of
    _plan calls it made."""
    package, plans = _elect_counting_plans(inst, leader_election, adjudicate)
    reference, _ = _elect_counting_plans(inst, reference_leader_election, adjudicate)
    assert package.round == reference.round
    for lab, v in views(package).items():
        w = views(reference)[lab]
        assert (v.status, v.adjacent_leaders) == (w.status, w.adjacent_leaders), lab
    assert package.phase_snapshots == reference.phase_snapshots
    ours, theirs = each_execution(package.sink.executions), reference.sink.executions
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        _assert_same_execution(a, b, inst.n_labels)
    records = package.sink.executions
    for a, b in zip(records, records[1:]):
        assert a.batch is not None or b.batch is not None or a.phase != b.phase
    return plans


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_instance([(3, 0, 0), (5, 0.5, 0)], P, 64),
        lambda: generate(GeneratorSpec(n=40, arena_side=3.4, seed=17), P),
        lambda: generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P),
        _pendant_below_bucket_0,
        demo_loss,
    ],
    ids=["two-nodes", "n40-N64", "n150-N1024", "pendant-below-bucket-0", "demo-loss"],
)
def test_leader_election_equals_the_row_by_row_reference(make):
    assert _assert_leader_election_equals_the_reference(make()) == 1


@given(
    n=st.integers(1, 40),
    density=st.floats(0.6, 1.0),
    seed=st.integers(0, 10**6),
    n_labels=st.sampled_from([64, 256, 1024]),
)
@settings(max_examples=40, deadline=None)
def test_leader_election_equals_the_row_by_row_reference_on_generated_instances(
    n, density, seed, n_labels
):
    side = density * min(4.0, max(1.2, 0.85 * math.sqrt(n)))
    inst = generate(GeneratorSpec(n=n, arena_side=side, seed=seed, n_labels=n_labels), P)
    _assert_leader_election_equals_the_reference(inst)


def test_leader_election_redoes_a_failed_speculation():
    # the first leader's announcement never reaches one neighbour that is
    # still active, so the speculated row is wrong: the election plans
    # again from the next row, and still runs the reference's rounds
    inst = generate(GeneratorSpec(n=40, arena_side=3.4, seed=17), P)
    plain, _ = _elect_counting_plans(inst, reference_leader_election)
    first = next(ex for ex in plain.sink.executions if ex.batch is not None)
    heard = set(map(tuple, first.deliveries[:, 1:].tolist()))  # (sender, listener)
    # every station but the row's leaders was active; pick one that hears
    # no other leader there
    sender, deaf = next(
        (s, r) for s, r in sorted(heard) if [x for x, y in heard if y == r] == [s]
    )
    a, b = plain.graph.label_array.searchsorted([sender, deaf])

    def drop(real, rounds, senders):
        dl_tx, dl_rx = real(rounds, senders)
        keep = ~((senders[dl_tx] == a) & (dl_rx == b))
        return dl_tx[keep], dl_rx[keep]

    assert _assert_leader_election_equals_the_reference(inst, drop) == 2


@pytest.mark.parametrize("name", ["battery", "dense"])
def test_leader_election_plans_once_per_benchmark_instance(name):
    for inst in workloads.make_instances(workloads.WORKLOADS[name], 1):
        _sim, plans = _elect_counting_plans(inst, leader_election)
        assert plans == 1


# ---------------------------------------------------------------------------
# Neighborhood inform.


def learned(sim):
    """What each non-leader learned in neighborhood inform, as the
    reference keeps it: listener -> each leader it heard -> the members of
    that leader's neighborhood it heard."""
    out = {}
    for listener, leader, member in sim.learned.tolist():
        out.setdefault(listener, {}).setdefault(leader, set()).add(member)
    return out


def test_neighborhood_inform_star():
    stations = [(9, 0, 0), (2, 0.8, 0), (4, -0.8, 0), (6, 0, 0.8)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {9})
    neighborhood_inform(sim)
    for lab in (2, 4, 6):
        assert learned(sim)[lab][9] == {2, 4, 6}


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
    assert learned(sim)[2][1] == {2}
    assert learned(sim)[3][4] == {3, 5}
    assert learned(sim)[5][4] == {3, 5}
    assert 4 not in learned(sim)[2]  # out of range of 4


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
    assert views(sim)[8].two_hop_helpers == {6: 3}
    assert views(sim)[6].two_hop_helpers == {8: 3}
    assert views(sim)[3].status == "helper"


def test_two_hop_min_label_among_common_neighbors():
    stations = [(1, 0, 0), (2, 1.8, 0), (5, 0.9, 0.05), (9, 0.9, -0.05)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 2})
    two_hop_connection(sim)
    assert views(sim)[1].two_hop_helpers == {2: 5}
    assert views(sim)[2].two_hop_helpers == {1: 5}
    assert views(sim)[9].status == INACTIVE  # not selected


def test_two_hop_ignores_three_hop_pairs():
    stations = [(1, 0, 0), (2, 0.9, 0), (3, 1.8, 0), (4, 2.7, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 4})
    two_hop_connection(sim)
    assert views(sim)[1].two_hop_helpers == {}
    assert views(sim)[4].two_hop_helpers == {}


def _drop_delivery(sim, monkeypatch, phase, sender, listener):
    """Lose sender's delivery to listener in the execution of phase, in the
    heard pairs Simulator.execute yields to the protocol."""
    execute = sim.execute

    def lossy(family, executions):
        for (slots, _owners, ph, _message), (pos, heard) in zip(
            executions, execute(family, executions)
        ):
            if ph == phase:
                kept = (np.asarray(slots)[pos] != sender) | (heard != listener)
                pos, heard = pos[kept], heard[kept]
            yield pos, heard

    monkeypatch.setattr(sim, "execute", lossy)


def test_two_hop_pair_stays_connected_when_an_inform_message_is_lost(monkeypatch):
    # leader 1's first neighborhood-inform message, (1, 5), is lost at 9,
    # so 9 learns N(1) = {9} and claims the pair (1, 2) as 5 does; one
    # claim reaches both leaders, through a helper adjacent to both
    inst = make_instance([(1, 0, 0), (2, 1.8, 0), (5, 0.9, 0.05), (9, 0.9, -0.05)], P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {1, 2})
    _drop_delivery(sim, monkeypatch, "neighborhood-inform/i=1", 1, 9)
    two_hop_connection(sim)
    assert learned(sim)[9][1] == {9}
    h = views(sim)[1].two_hop_helpers[2]
    assert views(sim)[2].two_hop_helpers == {1: h}
    assert views(sim)[h].status == "helper"
    assert {1, 2} <= set(sim.graph.adjacency[h])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="two-hop claims are kept one per leader pair: 9's claim of the pair "
    "(1, 2) overwrites 5's, so 5 never becomes a helper and both leaders "
    "record 9 instead of the minimum common neighbour 5",
)
def test_every_two_hop_claimant_becomes_a_helper_when_an_inform_message_is_lost(monkeypatch):
    # the layout above, committed: with leader 1's (1, 5) lost at 9, both 5
    # and 9 find themselves the minimum common neighbour of leaders 1 and 2
    inst = load_instance(str(FIXTURES / "two_hop_claims.json"))
    sim = Simulator(inst)
    force_leaders(sim, {1, 2})
    _drop_delivery(sim, monkeypatch, "neighborhood-inform/i=1", 1, 9)
    two_hop_connection(sim)
    two_hop = {(1, 2): views(sim)[1].two_hop_helpers.get(2)}
    assert views(sim)[2].two_hop_helpers == {1: two_hop[(1, 2)]}
    assert two_hop == expected_two_hop(sim.graph.adjacency, {1, 2}) == {(1, 2): 5}
    assert views(sim)[5].status == "helper"


def _claims(sim):
    """Every (helper, s, t) claim the pair ssf execution sent."""
    (ex,) = [ex for ex in sim.sink.executions if ex.phase == "two-hop-connection"]
    return {c for m in transmitted(ex, sim.inst.n_labels) for c in m.payload}


def _assert_two_hop_equals_the_reference(make, prepare=leader_election):
    """The array inform and claim rules give the dict-based reference's
    learned neighborhoods, claims, helpers, statuses and executions on
    make()'s instance, each run after prepare(sim)."""
    sims = []
    for two_hop in (two_hop_connection, reference_two_hop_connection):
        sim = Simulator(make())
        prepare(sim)
        sims.append((sim, two_hop(sim)))
    (package, _), (reference, (ref_learned, claims)) = sims
    assert learned(package) == ref_learned
    assert _claims(package) == set(claims.values())
    for lab, v in views(package).items():
        w = views(reference)[lab]
        assert (v.status, v.two_hop_helpers) == (w.status, w.two_hop_helpers), lab
    assert package.round == reference.round
    assert len(package.sink.executions) == len(reference.sink.executions)
    for a, b in zip(package.sink.executions, reference.sink.executions):
        _assert_same_execution(a, b, package.inst.n_labels)
    return package


@pytest.mark.parametrize("name", ["battery", "dense"])
def test_inform_and_claims_equal_the_dict_reference_on_benchmark_instances(name):
    for inst in workloads.make_instances(workloads.WORKLOADS[name], 1):
        _assert_two_hop_equals_the_reference(lambda inst=inst: inst)


def test_inform_and_claims_equal_the_dict_reference_on_the_demo_loss_instance():
    _assert_two_hop_equals_the_reference(demo_loss)


def test_inform_and_claims_equal_the_dict_reference_when_an_inform_message_is_lost(monkeypatch):
    # the claim fault's layout: with (1, 5) lost at 9, 5 and 9 both claim
    # the pair (1, 2), and the reference keeps 9's claim as the package does
    def lose_1_5_at_9(sim):
        force_leaders(sim, {1, 2})
        _drop_delivery(sim, monkeypatch, "neighborhood-inform/i=1", 1, 9)

    sim = _assert_two_hop_equals_the_reference(
        lambda: load_instance(str(FIXTURES / "two_hop_claims.json")), lose_1_5_at_9
    )
    assert learned(sim)[9] == {1: {9}, 2: {5, 9}}
    assert _claims(sim) == {(9, 1, 2)}


def test_a_node_claims_only_pairs_of_leaders_it_heard_announce():
    # 5 missed leader 2's announcement: it still learns N(2) = {5, 9} in
    # neighborhood inform, but 2 is not among its adjacent leaders, so it
    # claims no pair; 9 finds 5 the least common neighbour and claims none
    # either
    def deaf_5(sim):
        force_leaders(sim, {1, 2})
        sim.adjacent = sim.adjacent[(sim.adjacent != [5, 2]).any(axis=1)]

    sim = _assert_two_hop_equals_the_reference(
        lambda: load_instance(str(FIXTURES / "two_hop_claims.json")), deaf_5
    )
    assert learned(sim)[5] == {1: {5, 9}, 2: {5, 9}}
    assert _claims(sim) == set()
    assert views(sim)[5].status == views(sim)[9].status == INACTIVE


@given(
    n=st.integers(2, 40),
    density=st.floats(0.6, 1.0),
    seed=st.integers(0, 10**6),
    n_labels=st.sampled_from([64, 256]),
)
@settings(max_examples=30, deadline=None)
def test_inform_and_claims_equal_the_dict_reference_on_generated_instances(
    n, density, seed, n_labels
):
    side = density * min(4.0, max(1.2, 0.85 * math.sqrt(n)))
    spec = GeneratorSpec(n=n, arena_side=side, seed=seed, n_labels=n_labels)
    _assert_two_hop_equals_the_reference(lambda: generate(spec, P))


# ---------------------------------------------------------------------------
# Token passing.


def test_token_passing_delivers_messages_to_all_neighbors():
    stations = [(7, 0, 0), (2, 0.8, 0), (4, -0.8, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {7})
    msgs = Sent(
        {
            lab: msg(sim, "hop3-report", (lab,) + tuple(sorted(views(sim)[lab].adjacent_leaders)))
            for lab in (2, 4)
        }
    )
    heard = token_passing(sim, msgs)
    # the leader neighbors everyone, so it hears both messages
    senders_heard_by_7 = {s for s, listener in zip(*heard) if listener == 7}
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
    msgs = Sent({3: msg(sim, "hop3-report", (3, 5, 9))})
    token_passing(sim, msgs)
    rec = sim.token_records[0]
    assert rec.holders == (3,)
    returns = [
        m
        for tr in records(sink.executions, 16)
        for lab, m in tr.transmitters
        if m.kind == "token-return"
    ]
    assert (3, 5, 9) in {m.payload for m in returns}  # both tokens returned at once


def test_token_passing_needs_a_message_for_every_holder():
    # 3 holds both leaders' tokens in iteration 1 but has no message: the
    # sweep fails before its first execution
    inst = make_instance([(5, 0, 0), (9, 1.8, 0), (3, 0.9, 0)], P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {5, 9})
    recorded = len(sim.sink.executions)
    with pytest.raises(ValueError, match=r"token holders without a message: \[3\]"):
        token_passing(sim, Sent({9: msg(sim, "hop3-report", (9,))}))
    assert len(sim.sink.executions) == recorded


def test_a_grant_lost_in_a_later_iteration_keeps_the_earlier_records(monkeypatch):
    # leader 7 grants to 2 in iteration 1 and to 4 in iteration 2, where
    # 4 does not hear it: the sweep stops with iteration 1's record only
    inst = make_instance([(7, 0, 0), (2, 0.8, 0), (4, -0.8, 0)], P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {7})
    _drop_delivery(sim, monkeypatch, "token-passing/run=0/i=2/grant", 7, 4)
    msgs = Sent({u: msg(sim, "hop3-report", (u, 7)) for u in (2, 4)})
    with pytest.raises(TokenDeliveryError, match="token from leader 7 to 4 lost in run 0, i=2"):
        token_passing(sim, msgs)
    assert sim.token_records == [TokenRecord(0, 1, (2,), ((2, (7,)),))]
    assert sim.sink.executions[-1].phase == "token-passing/run=0/i=2/grant"


def test_lost_token_grant_raises_for_the_smallest_leader(monkeypatch):
    inst = generate(GeneratorSpec(n=16, arena_side=2.8, seed=5), P)
    sim = Simulator(inst)
    leader_election(sim)
    adjudicate = sim.engine.adjudicate

    def deaf(rounds, senders):
        dl_tx, dl_rx = adjudicate(rounds, senders)
        return dl_tx[:0], dl_rx[:0]

    monkeypatch.setattr(sim.engine, "adjudicate", deaf)
    msgs = Sent(
        {u: msg(sim, "hop3-report", (u,)) for u, v in views(sim).items() if v.status != LEADER}
    )
    first = min(lab for lab, v in views(sim).items() if v.status == LEADER)
    target = views(sim)[first].neighbors[0]
    recorded = len(sim.sink.executions)
    with pytest.raises(TokenDeliveryError) as err:
        token_passing(sim, msgs)
    assert str(err.value) == f"token from leader {first} to {target} lost in run 0, i=1"
    # the sweep stops at the lost grant: nothing after it is recorded
    assert [ex.phase for ex in sim.sink.executions[recorded:]] == [
        "token-passing/run=0/i=1/idle",
        "token-passing/run=0/i=1/grant",
    ]


def test_oversized_inform_message_fails_before_the_first_inform_execution(monkeypatch):
    # a neighbor-of-leader message carries two labels: 8 + 2*5 = 18 bits
    # against a 4*lg 16 = 16-bit budget; no sink asks for a message, so
    # only the up-front size check can fail the run
    inst = make_instance([(5, 0, 0), (9, 1.8, 0), (3, 0.9, 0)], P, 16)
    monkeypatch.setattr(protocol, "C_MSG", 4)
    sim = Simulator(inst)
    force_leaders(sim, {5, 9})
    with pytest.raises(MessageSizeError) as err:
        neighborhood_inform(sim)
    assert str(err.value) == "neighbor-of-leader message of 18 bits exceeds 16-bit budget"
    assert sim.sink.executions == []


def test_oversized_token_return_fails_before_the_return_execution(monkeypatch):
    # holder 3 returns the tokens of leaders 5 and 9 at once: 8 + 3*5 = 23
    # bits against a 5*lg 16 = 20-bit budget, while a grant needs 18
    stations = [(5, 0, 0), (9, 1.8, 0), (3, 0.9, 0)]
    inst = make_instance(stations, P, 16)
    monkeypatch.setattr(protocol, "C_MSG", 5)
    sim = Simulator(inst)
    force_leaders(sim, {5, 9})
    msgs = Sent({3: make_message("hop3-report", (3,), 16)})
    with pytest.raises(MessageSizeError):
        token_passing(sim, msgs)
    assert [ex.phase for ex in sim.sink.executions] == [
        "token-passing/run=0/i=1/idle",
        "token-passing/run=0/i=1/grant",
        "token-passing/run=0/i=1/msg",
    ]
    # the msg execution was sent, so its record is kept
    assert sim.token_records == [TokenRecord(0, 1, (3,), ((3, (5, 9)),))]


def test_oversized_return_of_a_later_transmitter_fails_before_the_return_execution(
    monkeypatch,
):
    # leaders 10 and 11 both grant to 9 and leader 12 to 3 in iteration 1,
    # so the return execution sends 3's return (3, 12) first and 9's
    # (9, 10, 11) after it: 18 and 23 bits against a 20-bit budget
    stations = [(10, -0.8, 0), (9, 0, 0), (11, 0.8, 0), (15, 1.7, 0), (12, 2.6, 0), (3, 3.4, 0)]
    inst = make_instance(stations, P, 16)
    msgs = Sent({u: make_message("hop3-report", (u,), 16) for u in (3, 9, 15)})
    fits = Simulator(inst)
    force_leaders(fits, {10, 11, 12})
    token_passing(fits, msgs)
    returns = fits.sink.executions[3]
    assert returns.phase == "token-passing/run=0/i=1/return"
    assert fits.token_records[0].holders == (3, 9)
    assert returns.transmissions[0].tolist() == [0, 3]  # 9 is not the first transmission

    monkeypatch.setattr(protocol, "C_MSG", 5)
    sim = Simulator(inst)
    force_leaders(sim, {10, 11, 12})
    with pytest.raises(MessageSizeError, match="token-return message of 23 bits"):
        token_passing(sim, msgs)
    assert [ex.phase for ex in sim.sink.executions] == [
        "token-passing/run=0/i=1/idle",
        "token-passing/run=0/i=1/grant",
        "token-passing/run=0/i=1/msg",
    ]


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


@pytest.mark.parametrize("name", ["battery", "dense"])
def test_every_token_holder_sends(name):
    # three-hop connection passes a message for every non-leader, and every
    # holder is one: each msg execution sends from exactly its holders, with
    # the same transmissions as the return execution after it
    for inst in workloads.make_instances(workloads.WORKLOADS[name], 1):
        result = backbone_creation(inst)
        sweep = {ex.phase: ex for ex in result.traces.executions}
        assert len(result.token_records) == 2 * result.delta
        for rec in result.token_records:
            assert [s for s, _receivers in rec.transmissions] == list(rec.holders)
            phase = f"token-passing/run={rec.run}/i={rec.iteration}/"
            sent, returned = sweep[phase + "msg"], sweep[phase + "return"]
            assert sorted(set(sent.transmissions[:, 1].tolist())) == list(rec.holders)
            assert np.array_equal(sent.transmissions, returned.transmissions)
            assert np.array_equal(sent.rounds, returned.rounds)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="demo mode is not interference-safe: over GF(8), 8 labels share a "
    "base ssf set instead of at most 6, and token holder 62 loses its message "
    "to neighbour 14, a link at 0.98 of the range",
)
def test_demo_base_ssf_over_gf8_delivers_every_token_message(monkeypatch):
    # acceptance battery instance 38 (suite seed 100038: n=52, side 4.0,
    # max degree 15) with the (64, 4) base ssf built over GF(8), 32 sets,
    # instead of GF(11); criterion 5's rule: every token holder's message
    # reaches every neighbour
    inst = load_instance(str(FIXTURES / "acceptance_38.json"))
    gf8 = SelectionFamily(kind="ssf", n_labels=64, q=8, K=2, P=4, c=4)
    monkeypatch.setattr(Families, "base_ssf", lambda self: gf8)
    adj = build_graph(inst).adjacency
    result = backbone_creation(inst)
    missing = [
        (sender, sorted(set(adj[sender]) - set(receivers)))
        for tok in result.token_records
        for sender, receivers in tok.transmissions
        if set(adj[sender]) - set(receivers)
    ]
    assert not missing


def _assert_same_heard(a, b):
    """Two yields of Simulator.execute are the same two read-only int64
    arrays, (slot position, listener label) pairs in strictly increasing
    order: by position, then label. The token records rely on that order."""
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
        assert not x.flags.writeable and not y.flags.writeable
    pos, label = a
    step = np.diff(pos)
    assert np.all((step > 0) | ((step == 0) & (np.diff(label) > 0)))


def _assert_same_execution(a, b, n_labels):
    """Two records of runs over n_labels labels hold the same executions,
    arrays and messages."""
    assert (a.phase, a.start, a.size, a.repeats) == (b.phase, b.start, b.size, b.repeats)
    for name in ("rounds", "transmissions", "deliveries"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (a.phase, name)
    assert (a.batch is None) == (b.batch is None)
    if a.batch is not None:
        assert transmitted(a, n_labels) == transmitted(b, n_labels)


class _Recording(Simulator):
    """Keeps each execution's pairs and counts adjudications; with
    one_by_one, runs every batch of executions as lists of one."""

    def __init__(self, inst, one_by_one):
        super().__init__(inst)
        self.one_by_one = one_by_one
        self.pairs = []
        self.batches = 0
        adjudicate = self.engine.adjudicate

        def counted(rounds, senders):
            self.batches += 1
            return adjudicate(rounds, senders)

        self.engine.adjudicate = counted

    def execute(self, family, executions):
        for batch in [[ex] for ex in executions] if self.one_by_one else [executions]:
            for pairs in super().execute(family, batch):
                self.pairs.append(pairs)
                yield pairs


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec(n=40, arena_side=3.4, seed=17), P),
        lambda: generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P),
    ],
    ids=["n40-N64", "n150-N1024"],
)
def test_batched_executions_match_executions_run_one_at_a_time(make):
    inst = make()
    runs = []
    for one_by_one in (False, True):
        sim = _Recording(inst, one_by_one)
        leader_election(sim)
        two_hop_connection(sim)
        three_hop_connection(sim)
        runs.append(sim)
    batched, single = runs
    assert batched.batches < single.batches  # the sweeps did run as batches
    assert batched.round == single.round
    assert len(batched.pairs) == len(single.pairs)
    for a, b in zip(batched.pairs, single.pairs):
        _assert_same_heard(a, b)
    assert batched.token_records == single.token_records
    assert len(batched.sink.executions) == len(single.sink.executions)
    for a, b in zip(batched.sink.executions, single.sink.executions):
        _assert_same_execution(a, b, inst.n_labels)


def test_every_batch_of_a_run_matches_the_dense_engine_bit_for_bit():
    inst = generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P)
    sim = Simulator(inst)
    eng = sim.engine
    adjudicate = eng.adjudicate
    n = len(sim.graph.nodes)
    batches = []

    def checked(rounds, senders):
        got = adjudicate(rounds, senders)
        member = np.zeros((rounds[-1] + 1 if len(rounds) else 0, n), dtype=bool)
        member[rounds, senders] = True
        ref_rounds, ref_senders, ref_tx, ref_rx = dense_adjudicate(eng, member)
        # the transmissions come distinct and row-major
        assert np.array_equal(rounds, ref_rounds) and np.array_equal(senders, ref_senders)
        assert np.array_equal(got[0], ref_tx) and np.array_equal(got[1], ref_rx)
        batches.append(int(np.bincount(rounds).max()) if len(rounds) else 0)
        return got

    eng.adjudicate = checked
    made = []
    for phase in (leader_election, two_hop_connection, three_hop_connection):
        phase(sim)
        made.append(len(batches))
    # every batch ran through the check, with rounds of several
    # transmitters: leader election's one; neighborhood inform's and the
    # pair ssf's; and the first sweep's. The second sweep repeats the first
    # one's schedules, and the announce neighborhood inform's first, so both
    # came from the run's plans (see the test below)
    assert made == [1, 3, 4] and max(batches) > 1


class _Scheduled(Simulator):
    """Keeps the family, slots and owners of each non-silent execution, in
    record order; with reuse=False, plans every execution afresh."""

    def __init__(self, inst, reuse):
        super().__init__(inst)
        self.reuse = reuse
        self.schedules = []

    def execute(self, family, executions):
        self.schedules += [
            (family, slots, owners) for slots, owners, *_ in executions if len(slots)
        ]
        for batch in [executions] if self.reuse else [[ex] for ex in executions]:
            if not self.reuse:
                self._plans.clear()
            yield from super().execute(family, batch)


def _dense_records(sim, family, slots, owners):
    """rounds, transmissions and deliveries of one execution, as the dense
    reference engine adjudicates its membership matrix."""
    labels = sim.graph.label_array
    member = np.zeros((family.size, len(labels)), dtype=bool)
    member[family.rounds_for(slots), labels.searchsorted(owners)[:, None]] = True
    rows = np.flatnonzero(member.any(axis=1))
    rounds, senders, tx, rx = dense_adjudicate(sim.engine, member[rows])
    return (
        rows.astype(np.int32),
        np.column_stack([rounds, labels[senders]]).astype(np.int32),
        np.column_stack([rounds[tx], labels[senders[tx]], labels[rx]]).astype(np.int32),
    )


def test_every_reused_plan_matches_fresh_plans_and_the_dense_engine():
    inst = generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P)
    runs = []
    for reuse in (True, False):
        sim = _Scheduled(inst, reuse)
        leader_election(sim)
        two_hop_connection(sim)
        three_hop_connection(sim)
        runs.append(sim)
    reused, fresh = runs
    assert len(reused._plans) < len(reused.schedules)  # some executions were served
    assert reused.token_records == fresh.token_records
    assert len(reused.sink.executions) == len(fresh.sink.executions)
    for a, b in zip(reused.sink.executions, fresh.sink.executions):
        _assert_same_execution(a, b, inst.n_labels)
    recorded = [ex for ex in reused.sink.executions if ex.batch is not None]
    assert len(recorded) == len(reused.schedules)
    for ex, schedule in zip(recorded, reused.schedules):
        want = _dense_records(reused, *schedule)
        for name, y in zip(("rounds", "transmissions", "deliveries"), want):
            x = getattr(ex, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (ex.phase, name)


def test_plans_are_keyed_by_owners_and_family_code():
    # slots 1 and 2 sent by three pairs of stations, and on two families
    inst = make_instance([(lab, 0.45 * lab, 0.3 * (lab % 2)) for lab in range(1, 7)], P, 64)
    sim = Simulator(inst)
    ssf, pair = sim.base_ssf(), sim.pair_ssf()
    assert (ssf.q, ssf.K, ssf.P) != (pair.q, pair.K, pair.P)

    def spec(owners, phase):
        return ([1, 2], owners, phase, writer(lambda u, ks: msg(sim, "slot", (u, *ks))))

    calls = [
        (ssf, [spec([1, 2], "a"), spec([3, 4], "b")]),  # one call, other owners
        (ssf, [spec([5, 6], "c"), spec([3, 4], "d")]),  # a later call
        (pair, [spec([1, 2], "e")]),  # same slots and owners, other family
    ]
    heard = [h for family, specs in calls for h in sim.execute(family, specs)]
    expected = [(family, s) for family, specs in calls for s in specs]
    for ex, h, (family, s) in zip(sim.sink.executions, heard, expected):
        alone = Simulator(inst)
        (want_heard,) = alone.execute(family, [s])
        _assert_same_heard(h, want_heard)
        (want,) = alone.sink.executions
        _assert_same_execution(ex, dataclasses.replace(want, start=ex.start), 64)
    assert len(sim._plans) == 4  # "d" was served


# ---------------------------------------------------------------------------
# Three-hop connection.


def _three_hop_by_both(inst, mp):
    """Three-hop connection on inst, run by the package and by the
    dict-based reference, each after the same leader election and two-hop
    connection: the two simulators, the SimulationError each run raised
    (or None), and what each run's sweeps heard, per sweep as per-listener
    lists of (sender, message) in slot order."""
    heard = ([], [])
    package_sweep = protocol.token_passing

    def package_heard(sim, msgs):
        senders, listeners = package_sweep(sim, msgs)
        sent = sent_messages(msgs, sorted(set(senders.tolist())), sim.inst.n_labels)
        per_listener = {}
        for s, x in zip(senders.tolist(), listeners.tolist()):
            per_listener.setdefault(x, []).append((s, sent[s]))
        heard[0].append(per_listener)
        return senders, listeners

    def reference_heard(sim, msgs):
        heard[1].append(reference_token_passing(sim, msgs))
        return heard[1][-1]

    mp.setattr(protocol, "token_passing", package_heard)
    sims, errors = [], []
    for three_hop in (
        three_hop_connection,
        lambda sim: reference_three_hop_connection(sim, reference_heard),
    ):
        sim = Simulator(inst)
        sims.append(sim)
        try:
            leader_election(sim)
            two_hop_connection(sim)
            three_hop(sim)
        except SimulationError as exc:
            errors.append((type(exc), str(exc)))
        else:
            errors.append(None)
    return sims, errors, heard


def _assert_three_hop_equals_the_reference(inst, mp):
    """The package's three-hop connection on inst gives the reference's
    receptions, token records, helpers, statuses and executions; returns
    the package's simulator."""
    (package, reference), (error, ref_error), (heard, ref_heard) = _three_hop_by_both(inst, mp)
    assert error == ref_error
    assert heard == ref_heard
    assert package.token_records == reference.token_records
    assert package.round == reference.round
    for lab, v in views(package).items():
        w = views(reference)[lab]
        assert (v.status, v.two_hop_helpers, v.three_hop_helpers) == (
            w.status,
            w.two_hop_helpers,
            w.three_hop_helpers,
        ), lab
    assert len(package.sink.executions) == len(reference.sink.executions)
    for a, b in zip(package.sink.executions, reference.sink.executions):
        _assert_same_execution(a, b, package.inst.n_labels)
    return package


REFERENCE_INSTANCES = {
    "n150-N1024": lambda: generate(GeneratorSpec(n=150, arena_side=6.0, seed=3, n_labels=1024), P),
    "cli-trace": lambda: generate(REFERENCE_RUNS["cli-trace"][0], P),
    # token holder 35's message never reaches its neighbour 46, in either
    # sweep: the array sweeps must lose it too
    "demo-loss": demo_loss,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_array_sweeps_and_rules_equal_the_dict_reference(name, monkeypatch):
    inst = REFERENCE_INSTANCES[name]()
    sim = _assert_three_hop_equals_the_reference(inst, monkeypatch)
    assert len(sim.token_records) == 2 * sim.graph.delta
    if name == "demo-loss":
        lost = [
            rec.run
            for rec in sim.token_records
            for sender, receivers in rec.transmissions
            if sender == 35 and 46 not in receivers
        ]
        assert 46 in sim.graph.adjacency[35] and lost == [0, 1]


@given(
    n=st.integers(4, 40),
    density=st.floats(0.6, 1.0),
    seed=st.integers(0, 10**6),
    n_labels=st.sampled_from([64, 256]),
)
@settings(max_examples=30, deadline=None)
def test_array_sweeps_and_rules_equal_the_dict_reference_on_generated_instances(
    n, density, seed, n_labels
):
    side = density * min(4.0, max(1.2, 0.85 * math.sqrt(n)))
    inst = generate(GeneratorSpec(n=n, arena_side=side, seed=seed, n_labels=n_labels), P)
    with pytest.MonkeyPatch.context() as mp:
        _assert_three_hop_equals_the_reference(inst, mp)


def _assert_same_failures(make, phases, c_msgs, monkeypatch):
    """Run phases = [(package, reference), ...] on make()'s instance, the
    budget lowered to each of c_msgs before the first phase that has a
    reference, until a run passes. Each run stops with the error text,
    after the executions and token records, that the references (which
    build every message up front, in label order) stop with. Returns the
    message kind of each failure."""
    kinds = []
    for c_msg in c_msgs:
        runs = []
        for side in (0, 1):
            monkeypatch.setattr(protocol, "C_MSG", 128)
            sim = Simulator(make())
            error = None
            try:
                for pair in phases:
                    if pair[0] is not pair[1]:
                        monkeypatch.setattr(protocol, "C_MSG", c_msg)
                    pair[side](sim)
            except SimulationError as exc:
                error = (type(exc), str(exc))
            runs.append((sim, error))
        (package, error), (reference, ref_error) = runs
        assert error == ref_error, c_msg
        monkeypatch.setattr(protocol, "C_MSG", 128)  # every message sent was sized
        assert package.token_records == reference.token_records
        ours, theirs = (each_execution(sim.sink.executions) for sim in (package, reference))
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            _assert_same_execution(a, b, package.inst.n_labels)
        if error is None:
            return kinds
        assert error[0] is MessageSizeError
        kinds.append(error[1].split()[0])
    raise AssertionError("every budget failed")


@pytest.mark.parametrize("name", ["n40-N64", "demo-loss"])
def test_oversized_messages_fail_where_the_references_fail(name, monkeypatch):
    # the whole run with the budget lowered step by step reaches the leader
    # announcements and the leaders' three-hop choices; three-hop alone,
    # after a two-hop connection within the default budget, reaches the
    # reports and the non-leaders' choices too
    inst = {
        "n40-N64": lambda: generate(GeneratorSpec(n=40, arena_side=3.4, seed=17), P),
        "demo-loss": demo_loss,
    }[name]()
    whole = _assert_same_failures(
        lambda: inst,
        [
            (leader_election, reference_leader_election),
            (two_hop_connection, reference_two_hop_connection),
            (three_hop_connection, reference_three_hop_connection),
        ],
        range(1, 64),
        monkeypatch,
    )
    assert {"leader-announce", "hop3-choice"} <= set(whole)
    three_hop = _assert_same_failures(
        lambda: inst,
        [
            (leader_election, leader_election),
            (two_hop_connection, two_hop_connection),
            (three_hop_connection, reference_three_hop_connection),
        ],
        range(1, 64),
        monkeypatch,
    )
    assert {"hop3-report", "hop3-choice"} <= set(three_hop)


def test_three_hop_path():
    stations = [(8, 0, 0), (3, 0.9, 0), (5, 1.8, 0), (7, 2.7, 0)]
    inst = make_instance(stations, P, 16)
    sim = Simulator(inst)
    force_leaders(sim, {8, 7})
    two_hop_connection(sim)
    three_hop_connection(sim)
    assert views(sim)[8].three_hop_helpers == {7: (3, 5)}
    assert views(sim)[7].three_hop_helpers == {8: (5, 3)}
    assert views(sim)[3].status == "helper" and views(sim)[5].status == "helper"


def test_three_hop_uses_only_the_reports_a_node_heard(monkeypatch):
    # leaders 8 and 7 at distance three, on the path 8 - 3 - 5 - 7; in
    # three-hop connection, 5 never hears 3, so it learns nothing of 8 and
    # leader 7 gets no helpers, while 3 hears 5 and leader 8 gets (3, 5)
    stations = [(8, 0, 0), (3, 0.9, 0), (5, 1.8, 0), (7, 2.7, 0)]
    inst = make_instance(stations, P, 16)
    sims = []
    for three_hop in (three_hop_connection, reference_three_hop_connection):
        sim = Simulator(inst)
        force_leaders(sim, {8, 7})
        two_hop_connection(sim)
        eng = sim.engine
        adjudicate = eng.adjudicate
        lost = tuple(sim.graph.label_array.searchsorted([3, 5]))

        def deaf(rounds, senders, adjudicate=adjudicate, lost=lost):
            dl_tx, dl_rx = adjudicate(rounds, senders)
            heard = (senders[dl_tx] != lost[0]) | (dl_rx != lost[1])
            return dl_tx[heard], dl_rx[heard]

        monkeypatch.setattr(eng, "adjudicate", deaf)
        three_hop(sim)
        sims.append(sim)
    for sim in sims:
        assert views(sim)[8].three_hop_helpers == {7: (3, 5)}
        assert views(sim)[7].three_hop_helpers == {}
    assert sims[0].token_records == sims[1].token_records


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
    assert views(sim)[10].three_hop_helpers == {11: (2, 7)}
    assert views(sim)[11].three_hop_helpers == {10: (7, 2)}
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
    assert views(sim)[1].two_hop_helpers == {2: 9}
    three_hop_connection(sim)
    assert views(sim)[1].three_hop_helpers == {}
    assert views(sim)[2].three_hop_helpers == {}


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


class _Replayed:
    """A stand-in engine: graph() is a recorded run's CommGraph, and each
    adjudicate call must get the inputs of the recorded call in its place
    and returns that call's outputs."""

    def __init__(self, graph, calls):
        self._graph = graph
        self.calls = iter(calls)

    def graph(self):
        return self._graph

    def adjudicate(self, rounds, senders):
        want_rounds, want_senders, heard = next(self.calls)
        assert np.array_equal(rounds, want_rounds) and np.array_equal(senders, want_senders)
        return heard


def _recorded_run(inst, monkeypatch):
    """backbone_creation on inst, its graph, and each adjudicate call of the
    run as (rounds, senders, heard, whether token passing made the call)."""
    engine = PhysicsEngine(inst)
    adjudicate, sweep = engine.adjudicate, protocol.token_passing
    calls, sweeping = [], []

    def recorded(rounds, senders):
        heard = adjudicate(rounds, senders)
        calls.append((rounds.copy(), senders.copy(), heard, bool(sweeping)))
        return heard

    def flagged(sim, msgs):
        sweeping.append(True)
        try:
            return sweep(sim, msgs)
        finally:
            sweeping.pop()

    engine.adjudicate = recorded
    with monkeypatch.context() as mp:
        mp.setattr(protocol, "token_passing", flagged)
        result = backbone_creation(inst, engine=engine)
    return result, engine.graph(), calls


def _assert_same_run(a, b, n_labels):
    """Every field of two BackboneResults of runs over n_labels labels,
    dicts in order, and every Execution are the same."""
    for f in dataclasses.fields(BackboneResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "traces":
            assert len(x.executions) == len(y.executions)
            for ex, ey in zip(x.executions, y.executions):
                _assert_same_execution(ex, ey, n_labels)
        elif f.name == "phase_snapshots":
            assert [(i, list(d.items())) for i, d in x] == [(i, list(d.items())) for i, d in y]
        else:
            assert (list(x.items()) if isinstance(x, dict) else x) == (
                list(y.items()) if isinstance(y, dict) else y
            ), f.name


def test_information_barrier_position_permutation(monkeypatch):
    # physics reaches the nodes only through adjudicate: a rerun with the
    # same labels, N and params at other positions, whose engine has the
    # recorded graph and replays every recorded adjudicate call, is the
    # same run. The first layout is a path whose mirror image swaps the
    # coordinates of 3 and 7; the rest are redrawn at random.
    path = make_instance([(3, 0, 0), (5, 0.9, 0), (7, 1.8, 0)], P, 16)
    mirror = make_instance([(3, 1.8, 0), (5, 0.9, 0), (7, 0, 0)], P, 16)
    cases = [
        (path, mirror),
        *[(inst, None) for inst in workloads.make_instances(workloads.WORKLOADS["battery"], 1)],
        *[(REFERENCE_INSTANCES[name](), None) for name in sorted(REFERENCE_INSTANCES)],
    ]
    rng = random.Random(1)
    for inst, moved in cases:
        if moved is None:
            side = 10 * max(max(abs(x), abs(y)) for _lab, (x, y) in inst.stations)
            moved = make_instance(
                [(lab, rng.uniform(0, side), rng.uniform(0, side)) for lab, _p in inst.stations],
                inst.params,
                inst.n_labels,
            )
        assert [lab for lab, _p in moved.stations] == [lab for lab, _p in inst.stations]
        assert moved.stations != inst.stations
        result, graph, calls = _recorded_run(inst, monkeypatch)
        engine = _Replayed(graph, [(r, s, heard) for r, s, heard, _sweep in calls])
        _assert_same_run(result, backbone_creation(moved, engine=engine), inst.n_labels)
        assert next(engine.calls, None) is None  # every call was replayed
        # the test can fail: the sweeps are one batch (the second sweep
        # repeats the first one's schedules), and losing every delivery of
        # one holder -> neighbour link from it changes the token records
        ((senders, (dl_tx, dl_rx)),) = [(s, heard) for _r, s, heard, sweep in calls if sweep]
        holder, receivers = next(
            (h, heard)
            for rec in result.token_records
            for h, heard in rec.transmissions
            if heard and result.statuses[h] != LEADER
        )
        h, v = graph.label_array.searchsorted([holder, receivers[0]])
        kept = (senders[dl_tx] != h) | (dl_rx != v)
        lossy = [
            (r, s, (dl_tx[kept], dl_rx[kept]) if sweep else heard)
            for r, s, heard, sweep in calls
        ]
        lost = backbone_creation(moved, engine=_Replayed(graph, lossy))
        assert lost.token_records != result.token_records


def test_backbone_determinism():
    inst = generate(GeneratorSpec(n=24, arena_side=3.0, seed=33), P)
    r1 = backbone_creation(inst)
    r2 = backbone_creation(inst)
    assert r1.leaders == r2.leaders
    assert r1.helpers == r2.helpers
    assert r1.backbone_edges == r2.backbone_edges
    assert r1.rounds_used == r2.rounds_used
    records1, records2 = (records(r.traces.executions, inst.n_labels) for r in (r1, r2))
    assert len(records1) == len(records2)
    for ta, tb in zip(records1, records2):
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
    for tr in records(r.traces.executions, inst.n_labels):
        for _, m in tr.transmitters:
            assert m.size_bits <= budget


@pytest.mark.parametrize("name", ["n40-N1024", "cli-trace"])
def test_every_message_is_sized_as_its_payload_counts(name):
    # every message a run records, sized by counting its payload's labels,
    # is within the budget, and every kind is sent; the phases' own sizing
    # is checked where they fail (test_oversized_messages_fail_where_the_
    # references_fail)
    inst = generate(REFERENCE_RUNS[name][0])
    budget = protocol._budget(inst.n_labels)
    kinds = set()
    for tr in records(backbone_creation(inst).traces.executions, inst.n_labels):
        for _, m in tr.transmitters:
            assert m.size_bits <= budget
            kinds.add(m.kind)
    assert kinds == {
        "leader-announce", "neighbor-of-leader", "helper-claim", "token-grant",
        "token-return", "hop3-report", "hop3-choice",
    }


def test_every_export_resolves_its_type_hints():
    # a name used in an annotation but never imported raises NameError only
    # when something (a dataclass, a checker, a doc tool) resolves the hints
    checked = []
    for obj in vars(sinrbackbone).values():
        if getattr(obj, "__module__", "").startswith("sinrbackbone.") and callable(obj):
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for fn in [obj, *members]:
                fn = getattr(fn, "fget", fn)  # a property resolves its getter
                if inspect.isfunction(fn) or inspect.isclass(fn):
                    typing.get_type_hints(fn)
                    checked.append(fn.__qualname__)
    assert "Simulator.execute" in checked and "backbone_creation" in checked
