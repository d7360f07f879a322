"""Synchronous round engine and node state machines for backbone creation.

The engine enforces the information barrier: node decisions are computed
from NodeView fields only (own label, n, N, Delta, neighbor labels,
received messages), while reception is adjudicated by the physical layer
against the full transmitter set of each round.

Executions of a selection family are scheduled in lockstep at every node,
so silent rounds (no transmitter anywhere) are skipped en masse: they
cannot change any node state. The global round counter still advances by
the full family size, and traces record the skipped spans. The non-silent
rounds of an execution are adjudicated together, in one batch, and kept
as one compact record until a trace asks for its rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import selection
from .errors import (
    DoubleRoleError,
    MessageSizeError,
    TokenDeliveryError,
)
from .physical import CommGraph, PhysicalInstance, PhysicsEngine, build_graph
from .selection import SelectionFamily, construct_selector, construct_ssf, derive_seed

ACTIVE = "active"
LEADER = "leader"
INACTIVE = "inactive"
HELPER = "helper"

_STATUS_TRANSITIONS = {
    (ACTIVE, LEADER),
    (ACTIVE, INACTIVE),
    (INACTIVE, HELPER),
    (HELPER, HELPER),
    (LEADER, LEADER),
}

C_CAP = 2048  # hard cap on the non-demo ssf parameter
KIND_BITS = 8


@dataclass(frozen=True)
class Message:
    """Protocol message: a kind tag plus a bounded tuple of labels.

    Payload entries are labels or small tuples of labels. size_bits counts
    the kind tag plus one label-width field per label carried.
    """

    kind: str
    payload: tuple
    size_bits: int

    @staticmethod
    def make(kind: str, payload: tuple, n_labels: int, c_msg: int) -> "Message":
        labels = _flatten(payload)
        label_bits = max(1, (n_labels).bit_length())
        size = KIND_BITS + len(labels) * label_bits
        budget = c_msg * max(1.0, math.log2(n_labels))
        if size > budget:
            raise MessageSizeError(
                f"{kind} message of {size} bits exceeds {budget:.0f}-bit budget"
            )
        return Message(kind=kind, payload=payload, size_bits=size)


def _flatten(payload) -> list[int]:
    out: list[int] = []
    for item in payload:
        if isinstance(item, tuple):
            out.extend(_flatten(item))
        else:
            out.append(int(item))
    return out


@dataclass
class NodeView:
    """Everything a protocol node may legally know.

    Derived solely from initial knowledge (own label, n, N, Delta, neighbor
    labels) and received messages; never from positions.
    """

    label: int
    n: int
    n_labels: int
    delta: int
    neighbors: tuple[int, ...]
    status: str = ACTIVE
    adjacent_leaders: set[int] = field(default_factory=set)
    learned_neighborhoods: dict[int, set[int]] = field(default_factory=dict)
    inbox: list[tuple[int, Message]] = field(default_factory=list)
    pending_tokens: tuple[int, ...] = ()
    helper_for: list[tuple[int, int]] = field(default_factory=list)
    two_hop_helpers: dict[int, int] = field(default_factory=dict)  # partner -> helper
    three_hop_helpers: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def set_status(self, new: str) -> None:
        if (self.status, new) not in _STATUS_TRANSITIONS:
            raise ValueError(f"illegal status transition {self.status} -> {new}")
        self.status = new


@dataclass(frozen=True)
class RoundTrace:
    """One simulated round: who transmitted what and who heard whom."""

    round: int
    phase: str
    transmitters: tuple[tuple[int, Message], ...]
    deliveries: tuple[tuple[int, int], ...]


@dataclass
class BackboneResult:
    leaders: tuple[int, ...]
    helpers: tuple[int, ...]
    backbone_edges: tuple[tuple[int, int], ...]
    rounds_used: int
    traces: "CollectSink"
    statuses: dict[int, str]
    two_hop: dict[tuple[int, int], int]
    three_hop: dict[tuple[int, int], tuple[int, int]]
    phase_snapshots: list[tuple[int, dict[int, str]]]
    token_records: list["TokenRecord"]
    delta: int


@dataclass(frozen=True)
class TokenRecord:
    """Ground-truth-checkable facts about one token-passing msg slot."""

    run: int
    iteration: int
    holders: tuple[int, ...]
    transmissions: tuple[tuple[int, tuple[int, ...]], ...]  # (sender, receivers)


@dataclass(frozen=True, eq=False)
class Execution:
    """One family execution, kept as int32 arrays instead of round objects.

    rounds holds the family-relative indices of its non-silent rounds;
    every other round of the family was silent. A transmission is a
    (row, station label) pair, where row indexes rounds; a delivery is a
    (row, sender label, receiver label) triple. Both are sorted.
    message(t) is the message of the t-th transmission.
    """

    phase: str
    start: int  # global round of the family's first set
    size: int  # family size
    rounds: np.ndarray
    transmissions: np.ndarray
    deliveries: np.ndarray
    message: Callable[[int], Message]

    def traces(self) -> Iterator[RoundTrace]:
        """One RoundTrace per non-silent round, in round order, each built
        only when the iteration reaches it."""
        rows = np.arange(len(self.rounds) + 1)
        tx_at = np.searchsorted(self.transmissions[:, 0], rows).tolist()
        dl_at = np.searchsorted(self.deliveries[:, 0], rows).tolist()
        senders = self.transmissions[:, 1].tolist()
        for row, j in enumerate(self.rounds.tolist()):
            pairs = self.deliveries[dl_at[row] : dl_at[row + 1], 1:].tolist()
            yield RoundTrace(
                round=self.start + j,
                phase=self.phase,
                transmitters=tuple(
                    (senders[t], self.message(t)) for t in range(tx_at[row], tx_at[row + 1])
                ),
                deliveries=tuple(map(tuple, pairs)),
            )

    def replay(self, sink: "CollectSink") -> None:
        """Feed the execution to sink round by round: emit() for each
        non-silent round, skip() for each span of silent ones."""
        cursor = 0
        for trace in self.traces():
            j = trace.round - self.start
            if j > cursor:
                sink.skip(self.phase, self.start + cursor, j - cursor)
            sink.emit(trace)
            cursor = j + 1
        if self.size > cursor:
            sink.skip(self.phase, self.start + cursor, self.size - cursor)


class CollectSink:
    """Keeps every family execution as one compact record; counts silent
    rounds. `records` expands them into RoundTrace objects, one per
    non-silent round, on first access."""

    def __init__(self) -> None:
        self.executions: list[Execution] = []
        self.silent_rounds = 0
        self._records: Optional[list[RoundTrace]] = None

    def execution(self, ex: Execution) -> None:
        self.executions.append(ex)
        self.silent_rounds += ex.size - len(ex.rounds)
        self._records = None

    def skip(self, phase: str, start_round: int, count: int) -> None:
        self.silent_rounds += count

    @property
    def records(self) -> list[RoundTrace]:
        if self._records is None:
            self._records = [tr for ex in self.executions for tr in ex.traces()]
        return self._records


def run_round(
    intents: Iterable[tuple[int, Optional[Message]]],
    inst: PhysicalInstance,
    *,
    phase: str = "adhoc",
    round_index: int = 0,
    engine: Optional[PhysicsEngine] = None,
) -> RoundTrace:
    """Adjudicate one synchronous round.

    intents maps each node to a Message (transmit) or None (listen); a node
    appearing with both roles raises DoubleRoleError.
    """
    roles: dict[int, Optional[Message]] = {}
    for label, msg in intents:
        if label in roles and (roles[label] is None) != (msg is None):
            raise DoubleRoleError(f"node {label} both transmits and listens")
        roles[label] = msg
    transmitters = {lab: msg for lab, msg in roles.items() if msg is not None}
    eng = engine or PhysicsEngine(inst)
    pairs = eng.deliver(sorted(transmitters))
    return RoundTrace(
        round=round_index,
        phase=phase,
        transmitters=tuple((lab, transmitters[lab]) for lab in sorted(transmitters)),
        deliveries=tuple(pairs),
    )


# ---------------------------------------------------------------------------
# Family provider with cross-run memoization (construction is deterministic).

_FAMILY_CACHE: dict[tuple, SelectionFamily] = {}


def _cached(key: tuple, build: Callable[[], SelectionFamily]) -> SelectionFamily:
    fam = _FAMILY_CACHE.get(key)
    if fam is None:
        fam = build()
        _FAMILY_CACHE[key] = fam
    return fam


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters shared by every node (pre-agreed, like the families)."""

    family_seed: int = 1
    demo: bool = True
    demo_c: int = 4
    c_msg: int = 128

    def effective_c(self, inst: PhysicalInstance, dilution_c: Optional[int]) -> int:
        if self.demo:
            return min(self.demo_c, inst.n_labels)
        if dilution_c is None:
            from .physical import derive_dilution

            dilution_c = derive_dilution(inst.params).c
        return min(dilution_c, C_CAP, inst.n_labels)


@dataclass(frozen=True)
class Families:
    """The selection families of a run, built once per process and cached.

    They depend only on the label space, the ssf parameter c and the family
    seed, so looking them up needs no graph and no physics.
    """

    n_labels: int
    c: int
    family_seed: int

    @staticmethod
    def for_run(
        inst: PhysicalInstance, config: ProtocolConfig, dilution_c: Optional[int] = None
    ) -> "Families":
        return Families(inst.n_labels, config.effective_c(inst, dilution_c), config.family_seed)

    def base_ssf(self) -> SelectionFamily:
        n, c = self.n_labels, self.c
        seed = derive_seed(self.family_seed, "ssf", n, c)
        return _cached(("ssf", n, c, seed), lambda: construct_ssf(n, c, seed))

    def selector(self, k: int, m: int) -> SelectionFamily:
        n = self.n_labels
        k, m = min(k, n), min(m, n)
        seed = derive_seed(self.family_seed, "selector", k, m, n)
        return _cached(
            ("selector", k, m, n, seed), lambda: construct_selector(k, m, n, seed)
        )

    def pair_ssf(self) -> SelectionFamily:
        n2 = self.n_labels**2
        c2 = min(self.c**2, n2)
        seed = derive_seed(self.family_seed, "pair", n2, c2)
        return _cached(("ssf", n2, c2, seed), lambda: construct_ssf(n2, c2, seed))

    def leader_selectors(self, delta: int) -> list[SelectionFamily]:
        """The selector of each of leader election's degree buckets, in order."""
        return [self.selector(*bucket_selector(delta, i)) for i in range(_ceil_lg(delta) + 1)]


class Simulator:
    """One protocol run over a fixed instance: views, schedule, physics."""

    def __init__(
        self,
        inst: PhysicalInstance,
        config: ProtocolConfig = ProtocolConfig(),
        sink: Optional[CollectSink] = None,
        dilution_c: Optional[int] = None,
    ):
        self.inst = inst
        self.config = config
        self.graph: CommGraph = build_graph(inst)
        self.engine = PhysicsEngine(inst)
        self.sink = sink if sink is not None else CollectSink()
        self.round = 0
        self.families = Families.for_run(inst, config, dilution_c)
        n = inst.n
        delta = self.graph.delta
        self.views: dict[int, NodeView] = {
            lab: NodeView(
                label=lab,
                n=n,
                n_labels=inst.n_labels,
                delta=delta,
                neighbors=self.graph.adjacency[lab],
            )
            for lab in sorted(inst.labels)
        }
        self.phase_snapshots: list[tuple[int, dict[int, str]]] = []
        self.token_records: list[TokenRecord] = []
        self._tp_runs = 0

    # -- family access ------------------------------------------------------

    def base_ssf(self) -> SelectionFamily:
        return self.families.base_ssf()

    def selector(self, k: int, m: int) -> SelectionFamily:
        return self.families.selector(k, m)

    def pair_ssf(self) -> SelectionFamily:
        return self.families.pair_ssf()

    # -- message helper ------------------------------------------------------

    def msg(self, kind: str, payload: tuple) -> Message:
        return Message.make(kind, payload, self.inst.n_labels, self.config.c_msg)

    # -- execution core ------------------------------------------------------

    def skip_execution(self, family: SelectionFamily, phase: str) -> None:
        self.sink.skip(phase, self.round, family.size)
        self.round += family.size

    def execute(
        self,
        family: SelectionFamily,
        slots: Sequence[int],
        owners: Sequence[int],
        phase: str,
        message: Callable[[int, list[int]], Message],
    ) -> tuple[list[int], list[int]]:
        """Run one full family execution as a single batch of rounds.

        slots[k] is a label of the family's label space, sent by station
        owners[k]: a station transmits in every round whose set contains one
        of its slots, and the transmission carries all of them.
        message(station, ks) is the message of a transmission carrying the
        slots at positions ks (ascending). It is built when a trace is
        expanded, except for the transmission carrying the most slots, which
        is built during the run: a message grows with the slots it carries,
        so an oversized message fails the run as soon as it is scheduled.

        Returns the distinct (slot position, listener label) pairs heard,
        sorted: the listener received a transmission carrying that slot.
        Rounds whose set meets no slot are silent and cost nothing; the
        round counter still advances by the full family size.
        """
        if not slots:
            self.skip_execution(family, phase)
            return [], []
        start = self.round
        self.round += family.size
        eng = self.engine
        n = len(eng.labels)
        cols = [family.rounds_for(p) for p in slots]
        rounds = np.unique(np.concatenate(cols))
        # slot memberships: (row of the round, slot position, owner index)
        slot_row = np.searchsorted(rounds, np.concatenate(cols))
        slot_k = np.repeat(np.arange(len(slots)), [len(col) for col in cols])
        slot_owner = np.array([eng.index[u] for u in owners])[slot_k]
        member = np.zeros((len(rounds), n), dtype=bool)
        member[slot_row, slot_owner] = True
        tx_row, tx_station, received = eng.adjudicate(member)

        # the transmission that carries each slot membership, and back
        slot_tx = np.searchsorted(tx_row * n + tx_station, slot_row * n + slot_owner)
        by_tx = np.argsort(slot_tx, kind="stable")
        carried_at = np.searchsorted(slot_tx[by_tx], np.arange(len(tx_row) + 1))
        labels = eng.label_array
        tx_label = labels[tx_station]

        def tx_message(t: int) -> Message:
            ks = slot_k[by_tx[carried_at[t] : carried_at[t + 1]]].tolist()
            return message(int(tx_label[t]), ks)

        if len(tx_row):
            tx_message(int(np.argmax(np.diff(carried_at))))

        t, rx = np.nonzero(received)
        self.sink.execution(
            Execution(
                phase=phase,
                start=start,
                size=family.size,
                rounds=rounds.astype(np.int32),
                transmissions=np.column_stack([tx_row, tx_label]).astype(np.int32),
                deliveries=np.column_stack([tx_row[t], tx_label[t], labels[rx]]).astype(
                    np.int32
                ),
                message=tx_message,
            )
        )
        k, listener = np.nonzero(received[slot_tx])
        pairs = np.unique(slot_k[k] * n + listener)
        return (pairs // n).tolist(), labels[pairs % n].tolist()

    def ssf_broadcast(
        self, family: SelectionFamily, senders: Mapping[int, Message], phase: str
    ) -> dict[int, list[tuple[int, Message]]]:
        """Run one full family execution with a fixed sender->message map.

        Returns, per listener, each (sender, message) it heard, once, in
        ascending sender order, however many rounds delivered it.
        """
        labs = sorted(senders)
        heard: dict[int, list[tuple[int, Message]]] = {}
        slots, listeners = self.execute(
            family, labs, labs, phase, lambda u, _ks: senders[u]
        )
        for k, listener in zip(slots, listeners):
            heard.setdefault(listener, []).append((labs[k], senders[labs[k]]))
        return heard

    def delivered_to(self, heard: dict[int, list[tuple[int, Message]]]) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for r, items in heard.items():
            for s, _ in items:
                out.setdefault(s, set()).add(r)
        return out


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_lg(x: int) -> int:
    return (x - 1).bit_length() if x >= 1 else 0


def bucket_selector(delta: int, i: int) -> tuple[int, int]:
    """(k_i, m_i) of the selector that leader election runs for degree
    bucket i = 0..ceil(lg Delta)."""
    pw = 1 << i
    return _ceil_div(delta, pw) + 1, _ceil_div(41 * delta, 42 * pw) + 2


# ---------------------------------------------------------------------------
# Algorithm: leader election.


def leader_election(sim: Simulator) -> None:
    """Elect at most one leader per pivotal box; dominate every node.

    Double loop over degree buckets: phase i runs a
    (ceil(D/2^i)+1, ceil((41/42) D/2^i)+2, N)-selector whose every round
    expands into one full (N,c)-ssf execution. A node in the degree bucket
    that is selected while none of its neighbors are, and is still active,
    announces leadership during the ssf.
    """
    views = sim.views
    delta = sim.graph.delta
    fam_ssf = sim.base_ssf()
    labels = sorted(views)
    lab_index = {lab: i for i, lab in enumerate(labels)}
    nbr_mask = {
        lab: sum(1 << lab_index[v] for v in views[lab].neighbors) for lab in labels
    }

    for i in range(_ceil_lg(delta) + 1):
        pw = 1 << i
        k_i, m_i = bucket_selector(delta, i)
        lo = _ceil_div(delta, 21 * 2 * pw)
        hi = _ceil_div(delta, pw)
        fam_sel = sim.selector(k_i, m_i)
        phase = f"leader-election/i={i}"

        # per-round station bitmasks over this instance's labels
        sel_mask = [0] * fam_sel.size
        for lab in labels:
            bit = 1 << lab_index[lab]
            for j in fam_sel.rounds_for(lab):
                sel_mask[int(j)] |= bit

        for j in range(fam_sel.size):
            mask = sel_mask[j]
            candidates = []
            if mask:
                for lab in labels:
                    v = views[lab]
                    if (
                        v.status == ACTIVE
                        and lo <= v.degree <= hi
                        and (mask >> lab_index[lab]) & 1
                        and not (mask & nbr_mask[lab])
                    ):
                        candidates.append(lab)
            if not candidates:
                sim.skip_execution(fam_ssf, phase)
                continue
            senders = {}
            for u in candidates:
                views[u].set_status(LEADER)
                senders[u] = sim.msg("leader-announce", (u,))
            heard = sim.ssf_broadcast(fam_ssf, senders, phase)
            for listener in sorted(heard):
                v = views[listener]
                for s, msg in heard[listener]:
                    if msg.kind == "leader-announce":
                        v.adjacent_leaders.add(s)
                        if v.status == ACTIVE:
                            v.set_status(INACTIVE)
        sim.phase_snapshots.append(
            (i, {lab: views[lab].status for lab in labels})
        )


# ---------------------------------------------------------------------------
# Algorithm: neighborhood inform.


def neighborhood_inform(sim: Simulator) -> None:
    """Leaders broadcast their i-th neighbor for i = 1..Delta; afterwards
    every non-leader knows the full neighborhood of each adjacent leader."""
    views = sim.views
    fam = sim.base_ssf()
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    for i in range(1, sim.graph.delta + 1):
        senders = {}
        for lab in leaders:
            v = views[lab]
            if v.degree >= i:
                senders[lab] = sim.msg(
                    "neighbor-of-leader", (lab, v.neighbors[i - 1])
                )
        heard = sim.ssf_broadcast(fam, senders, f"neighborhood-inform/i={i}")
        for listener in sorted(heard):
            if views[listener].status == LEADER:
                continue
            for s, msg in heard[listener]:
                if msg.kind == "neighbor-of-leader":
                    leader, member = msg.payload
                    views[listener].learned_neighborhoods.setdefault(
                        leader, set()
                    ).add(member)


# ---------------------------------------------------------------------------
# Algorithm: two-hop connection.


def two_hop_connection(sim: Simulator) -> None:
    """Assign the minimum-label common neighbor as helper for every leader
    pair at graph distance two, via one ssf over pair labels."""
    neighborhood_inform(sim)
    views = sim.views
    n_labels = sim.inst.n_labels
    fam_pair = sim.pair_ssf()
    phase = "two-hop-connection"

    # claims are decidable locally: u knows its adjacent leaders and their
    # full neighborhoods; the canonical orientation s < t is claimed once
    claims: dict[int, tuple[int, tuple[int, int, int]]] = {}
    for u in sorted(views):
        v = views[u]
        if v.status == LEADER:
            continue
        for s, t in combinations(sorted(v.adjacent_leaders), 2):
            common = v.learned_neighborhoods.get(s, set()) & v.learned_neighborhoods.get(
                t, set()
            )
            if common and u == min(common):
                claims[selection.pair_index(s, t, n_labels)] = (u, (u, s, t))

    # a helper's message in a round carries every claim the pair family
    # schedules for it there
    pidxs = sorted(claims)

    def helper_claim(_u: int, ks: list[int]) -> Message:
        return sim.msg("helper-claim", tuple(sorted(claims[pidxs[k]][1] for k in ks)))

    heard = sim.execute(
        fam_pair, pidxs, [claims[p][0] for p in pidxs], phase, helper_claim
    )

    for pidx in pidxs:
        u, (_, s, t) = claims[pidx]
        if views[u].status != HELPER:
            views[u].set_status(HELPER)
        views[u].helper_for.append((s, t))
    for k, listener in zip(*heard):
        h, s, t = claims[pidxs[k]][1]
        if listener == s:
            views[s].two_hop_helpers[t] = h
        elif listener == t:
            views[t].two_hop_helpers[s] = h


# ---------------------------------------------------------------------------
# Algorithm: token passing.


def token_passing(sim: Simulator, msgs: Mapping[int, Message]) -> dict[int, list[tuple[int, Message]]]:
    """Leader-coordinated round robin: each leader passes a token to its
    i-th neighbor, who transmits its message and passes the token back.

    Per iteration the leader schedule is four ssf executions (silent, pass
    token, silent, silent) against the non-leaders' two-execution loop.
    Returns everything heard in the msg slots. A token grant that is not
    received by its addressee is a hard simulation error.
    """
    views = sim.views
    fam = sim.base_ssf()
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    run_id = sim._tp_runs
    sim._tp_runs += 1
    heard_msgs: dict[int, list[tuple[int, Message]]] = {}

    for i in range(1, sim.graph.delta + 1):
        phase = f"token-passing/run={run_id}/i={i}"
        # slot 1: everyone silent
        sim.skip_execution(fam, phase + "/idle")
        # slot 2: leaders pass tokens to their i-th neighbors
        grants = {}
        for lab in leaders:
            v = views[lab]
            if v.degree >= i:
                grants[lab] = sim.msg("token-grant", (lab, v.neighbors[i - 1]))
        heard = sim.ssf_broadcast(fam, grants, phase + "/grant")
        delivered = sim.delivered_to(heard)
        for lab, msg in sorted(grants.items()):
            target = msg.payload[1]
            if target not in delivered.get(lab, set()):
                raise TokenDeliveryError(
                    f"token from leader {lab} to {target} lost in run {run_id}, i={i}"
                )
        for listener in sorted(heard):
            v = views[listener]
            got = tuple(
                s for s, m in heard[listener]
                if m.kind == "token-grant" and m.payload[1] == listener
            )
            if got:
                v.pending_tokens = tuple(sorted(set(v.pending_tokens) | set(got)))
        # slot 3: token holders transmit their message
        holders = [lab for lab in sorted(views) if views[lab].pending_tokens]
        txs = {lab: msgs[lab] for lab in holders if lab in msgs}
        heard = sim.ssf_broadcast(fam, txs, phase + "/msg")
        delivered = sim.delivered_to(heard)
        sim.token_records.append(
            TokenRecord(
                run=run_id,
                iteration=i,
                holders=tuple(holders),
                transmissions=tuple(
                    (lab, tuple(sorted(delivered.get(lab, set())))) for lab in sorted(txs)
                ),
            )
        )
        for listener in sorted(heard):
            heard_msgs.setdefault(listener, []).extend(heard[listener])
        # slot 4: holders pass tokens back
        returns = {
            lab: sim.msg("token-return", (lab,) + views[lab].pending_tokens)
            for lab in holders
        }
        sim.ssf_broadcast(fam, returns, phase + "/return")
        for lab in holders:
            views[lab].pending_tokens = ()
    return heard_msgs


# ---------------------------------------------------------------------------
# Algorithm: three-hop connection.


def three_hop_connection(sim: Simulator) -> None:
    """Connect leader pairs at graph distance three with two helpers chosen
    by the global minimum-label rule, using two token-passing sweeps."""
    views = sim.views
    n_labels = sim.inst.n_labels
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    non_leaders = [lab for lab in sorted(views) if views[lab].status != LEADER]

    msgs1 = {
        u: sim.msg(
            "hop3-report", (u,) + tuple(sorted(views[u].adjacent_leaders))
        )
        for u in non_leaders
    }
    heard1 = token_passing(sim, msgs1)

    # intermediate selection: per heard-about leader b, the minimum-label
    # reporter that belongs to b
    chosen: dict[int, list[tuple[int, int]]] = {}
    for x in non_leaders:
        reporters: dict[int, set[int]] = {}
        for y, msg in heard1.get(x, []):
            if msg.kind != "hop3-report":
                continue
            y_label = msg.payload[0]
            for b in msg.payload[1:]:
                reporters.setdefault(b, set()).add(y_label)
        pairs = [(min(ys), b) for b, ys in sorted(reporters.items())]
        chosen[x] = pairs

    msgs2 = {
        x: sim.msg("hop3-choice", (x,) + tuple((y, b) for y, b in chosen[x]))
        for x in non_leaders
    }
    heard2 = token_passing(sim, msgs2)

    # leader decisions
    decisions: dict[int, dict[int, tuple[int, int]]] = {}
    for lab in leaders:
        v = views[lab]
        reports: dict[int, list[tuple[int, int]]] = {}
        for x, msg in heard2.get(lab, []):
            if msg.kind != "hop3-choice":
                continue
            x_label = msg.payload[0]
            for y, b in msg.payload[1:]:
                if b != lab:
                    reports.setdefault(b, []).append((x_label, y))
        mine: dict[int, tuple[int, int]] = {}
        for b in sorted(reports):
            if b in v.two_hop_helpers:
                continue  # already connected by a two-hop helper
            pairs = sorted(set(reports[b]))
            xs = {x for x, _ in pairs}
            ys = {y for _, y in pairs}
            smallest = min(xs | ys)
            if smallest in xs:
                x_c = smallest
                y_c = min(y for x, y in pairs if x == smallest)
            else:
                y_c = smallest
                x_c = min(x for x, y in pairs if y == smallest)
            mine[b] = (x_c, y_c)
        decisions[lab] = mine
        v.three_hop_helpers.update(mine)

    fam = sim.base_ssf()
    msgs3 = {
        lab: sim.msg(
            "hop3-choice",
            (lab,) + tuple((x, y, b) for b, (x, y) in sorted(decisions[lab].items())),
        )
        for lab in leaders
    }
    heard3 = sim.ssf_broadcast(fam, msgs3, "three-hop-connection/announce")
    for listener in sorted(heard3):
        v = views[listener]
        for sender, msg in heard3[listener]:
            if msg.kind != "hop3-choice":
                continue
            for x, y, b in msg.payload[1:]:
                if listener == x:
                    if v.status != HELPER:
                        v.set_status(HELPER)
                    v.helper_for.append((sender, b))


# ---------------------------------------------------------------------------
# Algorithm: backbone creation.


def backbone_creation(
    inst: PhysicalInstance,
    config: ProtocolConfig = ProtocolConfig(),
    sink: Optional[CollectSink] = None,
) -> BackboneResult:
    """Run leader election, two-hop and three-hop connection; assemble the
    backbone (leaders plus helpers and the edges realizing each assignment)."""
    sim = Simulator(inst, config, sink)
    leader_election(sim)
    two_hop_connection(sim)
    three_hop_connection(sim)

    views = sim.views
    leaders = tuple(lab for lab in sorted(views) if views[lab].status == LEADER)
    two_hop: dict[tuple[int, int], int] = {}
    three_hop: dict[tuple[int, int], tuple[int, int]] = {}
    helpers: set[int] = set()
    edges: set[tuple[int, int]] = set()

    for lab in leaders:
        v = views[lab]
        for partner, h in sorted(v.two_hop_helpers.items()):
            key = (min(lab, partner), max(lab, partner))
            two_hop[key] = h
            helpers.add(h)
            edges.add(tuple(sorted((lab, h))))
            edges.add(tuple(sorted((partner, h))))
        for partner, (x, y) in sorted(v.three_hop_helpers.items()):
            three_hop[(lab, partner)] = (x, y)
            helpers.update((x, y))
            edges.add(tuple(sorted((lab, x))))
            edges.add(tuple(sorted((x, y))))
            edges.add(tuple(sorted((y, partner))))

    return BackboneResult(
        leaders=leaders,
        helpers=tuple(sorted(helpers)),
        backbone_edges=tuple(sorted(edges)),
        rounds_used=sim.round,
        traces=sim.sink,
        statuses={lab: views[lab].status for lab in sorted(views)},
        two_hop=two_hop,
        three_hop=three_hop,
        phase_snapshots=sim.phase_snapshots,
        token_records=sim.token_records,
        delta=sim.graph.delta,
    )
