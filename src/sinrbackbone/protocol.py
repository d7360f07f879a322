"""Synchronous round engine and node state machines for backbone creation.

The engine enforces the information barrier: node decisions are computed
from NodeView fields only (own label, n, N, Delta, neighbor labels,
received messages), while reception is adjudicated by the physical layer
against the full transmitter set of each round.

Every round belongs to exactly one execution of a selection family, and
each execution, silent or not, is one Execution record. Executions are
scheduled in lockstep at every node, so silent rounds (no transmitter
anywhere) cannot change any node state and cost nothing; the global round
counter still advances by the full family size. The non-silent rounds of
consecutive executions whose transmitters are known in advance (a whole
token-passing sweep, say) are adjudicated together, in one batch; a run
adjudicates each distinct transmitter schedule once, however often it
recurs. Each execution is kept as one compact record of arrays, which a
sink reads as they are (the CLI's trace file is written from them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Callable, Iterator, Mapping, Optional, Protocol, Sequence

import numpy as np

from . import selection
from .errors import MessageSizeError, TokenDeliveryError
from .physical import (
    CommGraph,
    PhysicalInstance,
    PhysicsEngine,
    derive_dilution,
    sorted_distinct,
)
from .selection import SelectionFamily, construct_selector, construct_ssf

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
C_MSG = 128  # message budget: at most C_MSG * lg N bits
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
    def make(kind: str, payload: tuple, n_labels: int) -> "Message":
        label_bits = max(1, (n_labels).bit_length())
        size = KIND_BITS + _count_labels(payload) * label_bits
        budget = C_MSG * max(1.0, math.log2(n_labels))
        if size > budget:
            raise MessageSizeError(
                f"{kind} message of {size} bits exceeds {budget:.0f}-bit budget"
            )
        return Message(kind=kind, payload=payload, size_bits=size)


def _count_labels(payload: tuple) -> int:
    """Its entries, with each nested tuple counted by the labels it holds."""
    return len(payload) + sum([_count_labels(x) - 1 for x in payload if isinstance(x, tuple)])


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
    pending_tokens: tuple[int, ...] = ()
    two_hop_helpers: dict[int, int] = field(default_factory=dict)  # partner -> helper
    three_hop_helpers: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def set_status(self, new: str) -> None:
        if (self.status, new) not in _STATUS_TRANSITIONS:
            raise ValueError(f"illegal status transition {self.status} -> {new}")
        self.status = new


@dataclass
class BackboneResult:
    leaders: tuple[int, ...]
    helpers: tuple[int, ...]
    backbone_edges: tuple[tuple[int, int], ...]
    rounds_used: int
    traces: "Sink"
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


_NO_ROUNDS = np.zeros(0, dtype=np.int32)
_NO_TRANSMISSIONS = np.zeros((0, 2), dtype=np.int32)
_NO_DELIVERIES = np.zeros((0, 3), dtype=np.int32)


@dataclass(frozen=True, eq=False, slots=True)
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
    message: Optional[Callable[[int], Message]]  # None when silent

    @staticmethod
    def silent(phase: str, start: int, size: int) -> "Execution":
        """An execution in which no station transmits."""
        return Execution(
            phase, start, size, _NO_ROUNDS, _NO_TRANSMISSIONS, _NO_DELIVERIES, None
        )


@dataclass(frozen=True, eq=False, slots=True)
class _Plan:
    """What one execution schedule (family, slots, owners) produces,
    whatever its messages: the Execution arrays, the slots each
    transmission carries and who heard whom. Executions that share the
    schedule share the plan."""

    rounds: np.ndarray
    transmissions: np.ndarray
    deliveries: np.ndarray
    senders: list[int]  # the label of each transmission
    # transmission t carries the slots at positions
    # carried_k[carried_at[t] : carried_at[t + 1]]
    carried_at: list[int]
    carried_k: list[int]
    widest: int  # the transmission carrying the most slots
    heard_pos: tuple[int, ...]  # the distinct (slot position, listener
    heard_label: tuple[int, ...]  # label) pairs heard, sorted


class Sink(Protocol):
    """Receives every family execution of a run, in round order."""

    def execution(self, ex: Execution) -> None: ...


class CollectSink:
    """Keeps every family execution as one compact record."""

    def __init__(self) -> None:
        self.executions: list[Execution] = []

    def execution(self, ex: Execution) -> None:
        self.executions.append(ex)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters shared by every node (pre-agreed, like the families)."""

    demo: bool = True
    demo_c: int = 4

    def effective_c(self, inst: PhysicalInstance) -> int:
        if self.demo:
            return min(self.demo_c, inst.n_labels)
        return min(derive_dilution(inst.params).c, C_CAP, inst.n_labels)


@dataclass(frozen=True)
class Families:
    """The selection families of a run.

    They depend only on the label space and the ssf parameter c, so looking
    them up needs no graph and no physics. Each is built by construction in
    microseconds, so none is kept between lookups.
    """

    n_labels: int
    c: int

    @staticmethod
    def for_run(inst: PhysicalInstance, config: ProtocolConfig) -> "Families":
        return Families(inst.n_labels, config.effective_c(inst))

    def base_ssf(self) -> SelectionFamily:
        return construct_ssf(self.n_labels, self.c)

    def selector(self, k: int, m: int) -> SelectionFamily:
        n = self.n_labels
        return construct_selector(min(k, n), min(m, n), n)

    def pair_ssf(self) -> SelectionFamily:
        n2 = self.n_labels**2
        return construct_ssf(n2, min(self.c**2, n2))

    def leader_selectors(self, delta: int) -> list[SelectionFamily]:
        """The selector of each of leader election's degree buckets, in order."""
        return [self.selector(*bucket_selector(delta, i)) for i in range(_ceil_lg(delta) + 1)]


class Simulator:
    """One protocol run over a fixed instance: views, schedule, physics."""

    def __init__(
        self,
        inst: PhysicalInstance,
        config: ProtocolConfig = ProtocolConfig(),
        sink: Optional[Sink] = None,
        engine: Optional[PhysicsEngine] = None,
    ):
        """engine, if given, is a PhysicsEngine already built for inst."""
        self.inst = inst
        self.config = config
        self.engine = engine if engine is not None else PhysicsEngine(inst)
        self.graph: CommGraph = self.engine.graph()
        self.sink = sink if sink is not None else CollectSink()
        self.round = 0
        self.families = Families.for_run(inst, config)
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
        self._plans: dict[tuple, _Plan] = {}  # see execute

    # -- family access ------------------------------------------------------

    def base_ssf(self) -> SelectionFamily:
        return self.families.base_ssf()

    def selector(self, k: int, m: int) -> SelectionFamily:
        return self.families.selector(k, m)

    def pair_ssf(self) -> SelectionFamily:
        return self.families.pair_ssf()

    # -- message helper ------------------------------------------------------

    def msg(self, kind: str, payload: tuple) -> Message:
        return Message.make(kind, payload, self.inst.n_labels)

    # -- execution core ------------------------------------------------------

    def skip_execution(self, family: SelectionFamily, phase: str) -> None:
        self.sink.execution(Execution.silent(phase, self.round, family.size))
        self.round += family.size

    def execute(
        self,
        family: SelectionFamily,
        executions: Sequence[
            tuple[Sequence[int], Sequence[int], str, Callable[[int, list[int]], Message]]
        ],
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Run consecutive full executions of one family as a single batch.

        Each execution is (slots, owners, phase, message). slots[k] is a
        label of the family's label space, sent by station owners[k]: a
        station transmits in every round whose set contains one of its
        slots, and the transmission carries all of them. message(station,
        ks) is the message of a transmission carrying the slots at positions
        ks (ascending). It is built when a trace is expanded, except for the
        transmission carrying the most slots, which is built when the
        execution is recorded: a message grows with the slots it carries,
        so an oversized message fails the run as soon as it is scheduled.

        Who transmits in which round, who hears whom and which slots each
        transmission carries follow from the family, the slots and the
        owners alone; only the messages differ between two executions that
        share them. So each distinct schedule is planned once per run (see
        _plan) and kept on the Simulator, keyed by the family's code
        parameters (q, K, P), tuple(slots) and tuple(owners): the second
        token-passing sweep, say, repeats the first one's schedules. The
        schedules of a call that no earlier call planned are planned
        together, each once, in one batch, when the returned iterator is
        first advanced. The iterator walks the executions in order:
        advancing to one records it with the sink, advances the round
        counter by the family size, and yields the distinct (slot position,
        listener label) pairs heard in it, sorted. So a caller must advance
        through every execution; it can stop between two (by raising) with
        exactly the executions before it recorded, and can build an
        execution's messages just before advancing to it. Rounds whose set
        meets no slot are silent and cost nothing.
        """
        plans = self._plans
        code = (family.q, family.K, family.P)
        keys = [
            (code, tuple(slots), tuple(owners)) if len(slots) else None
            for slots, owners, _p, _m in executions
        ]
        misses = list(dict.fromkeys(k for k in keys if k is not None and k not in plans))
        if misses:
            plans.update(zip(misses, self._plan(family, misses)))

        size = family.size
        for key, (_slots, _owners, phase, message) in zip(keys, executions):
            if key is None:
                self.skip_execution(family, phase)
                yield (), ()
                continue
            plan = plans[key]
            start = self.round
            self.round += size

            def tx_message(t: int, plan=plan, message=message) -> Message:
                at = plan.carried_at
                return message(plan.senders[t], plan.carried_k[at[t] : at[t + 1]])

            tx_message(plan.widest)
            self.sink.execution(
                Execution(
                    phase=phase,
                    start=start,
                    size=size,
                    rounds=plan.rounds,
                    transmissions=plan.transmissions,
                    deliveries=plan.deliveries,
                    message=tx_message,
                )
            )
            yield plan.heard_pos, plan.heard_label

    def _plan(self, family: SelectionFamily, schedules: Sequence[tuple]) -> list["_Plan"]:
        """Plan distinct non-empty (code, slots, owners) schedules of one
        family, adjudicating all their rounds in one batch.

        The batch's rows are keyed by (schedule, set). Each slot membership
        is a (row, owner) transmission; the distinct ones, sorted by row and
        then owner (with sorted_distinct, as are the rows and the heard
        pairs), go to the engine as index arrays.
        """
        eng = self.engine
        n = len(eng.labels)
        labels = eng.label_array
        size, P = family.size, family.P
        counts = [len(slots) for _c, slots, _o in schedules]
        slot_at = list(accumulate(counts, initial=0))
        slot = np.array([lab for _c, slots, _o in schedules for lab in slots], dtype=np.int64)
        owner = np.array(
            [eng.index[u] for _c, _s, owners in schedules for u in owners], dtype=np.intp
        )
        slot_pos = np.arange(len(slot)) - np.repeat(slot_at[:-1], counts)  # within its schedule
        # slot memberships, P per slot, each keyed by the transmission that
        # carries it: (schedule * size + set) * n + owner index
        slot_k = np.repeat(np.arange(len(slot)), P)
        keys = np.repeat(np.repeat(np.arange(len(schedules)), counts) * size, P)
        keys += family.rounds_for(slot).reshape(-1)
        keys *= n
        keys += owner[slot_k]
        tx_key = sorted_distinct(keys)
        tx_row_key, tx_station = np.divmod(tx_key, n)
        rows = sorted_distinct(tx_row_key)
        tx_row = rows.searchsorted(tx_row_key)
        dl_tx, dl_rx = eng.adjudicate(tx_row, tx_station)

        # the transmission that carries each slot membership, and back
        slot_tx = tx_key.searchsorted(keys)
        by_tx = slot_tx.argsort(kind="stable")
        carried_at = np.searchsorted(slot_tx[by_tx], np.arange(len(tx_key) + 1))
        carried_k = slot_pos[slot_k[by_tx]].tolist()
        carried = carried_at[1:] - carried_at[:-1]
        # the distinct (slot, listener) pairs heard, sorted: every listener
        # of the transmission that carries each slot membership
        dl_at = dl_tx.searchsorted(np.arange(len(tx_key) + 1))
        lo = dl_at[slot_tx]
        span = dl_at[slot_tx + 1] - lo
        heard_rx = dl_rx[np.arange(span.sum()) + np.repeat(lo - span.cumsum() + span, span)]
        heard = sorted_distinct(slot_k.repeat(span) * n + heard_rx)
        heard_k = heard // n
        heard_at = heard_k.searchsorted(slot_at).tolist()
        heard_pos = slot_pos[heard_k].tolist()
        heard_label = labels[heard % n].tolist()

        # each schedule's records: rows, transmissions and deliveries,
        # numbered from its own first row
        row_exe = rows // size
        row_at = row_exe.searchsorted(np.arange(len(schedules) + 1))
        local_row = np.arange(len(rows)) - row_at[row_exe]
        tx_label = labels[tx_station]
        all_rounds = (rows % size).astype(np.int32)
        all_tx = np.column_stack([local_row[tx_row], tx_label]).astype(np.int32)
        all_dl = np.column_stack(
            [local_row[tx_row[dl_tx]], tx_label[dl_tx], labels[dl_rx]]
        ).astype(np.int32)
        tx_at = tx_row.searchsorted(row_at)
        dl_ex_at = dl_at[tx_at].tolist()
        widest = [
            int(np.argmax(carried[t0:t1])) for t0, t1 in zip(tx_at[:-1], tx_at[1:])
        ]
        carried_at_list = carried_at.tolist()
        tx_label_list = tx_label.tolist()
        row_at, tx_at = row_at.tolist(), tx_at.tolist()
        return [
            _Plan(
                rounds=all_rounds[row_at[e] : row_at[e + 1]],
                transmissions=all_tx[tx_at[e] : tx_at[e + 1]],
                deliveries=all_dl[dl_ex_at[e] : dl_ex_at[e + 1]],
                senders=tx_label_list[tx_at[e] : tx_at[e + 1]],
                carried_at=carried_at_list[tx_at[e] : tx_at[e + 1] + 1],
                carried_k=carried_k,
                widest=widest[e],
                heard_pos=tuple(heard_pos[heard_at[e] : heard_at[e + 1]]),
                heard_label=tuple(heard_label[heard_at[e] : heard_at[e + 1]]),
            )
            for e in range(len(schedules))
        ]

    def ssf_broadcast(
        self, family: SelectionFamily, executions: Sequence[tuple[Mapping[int, Message], str]]
    ) -> Iterator[list[tuple[int, int]]]:
        """Run consecutive full family executions, each with a fixed
        sender->message map, as one batch (see execute).

        Yields, per execution, each distinct (sender, listener) pair once,
        sorted by sender and then listener, however many rounds delivered
        it: the listener received senders[sender].
        """
        labs = [sorted(senders) for senders, _phase in executions]
        steps = self.execute(
            family,
            [
                (ls, ls, phase, lambda u, _ks, senders=senders: senders[u])
                for ls, (senders, phase) in zip(labs, executions)
            ],
        )
        for ls, (slots, listeners) in zip(labs, steps):
            yield [(ls[k], listener) for k, listener in zip(slots, listeners)]


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

    All of that rule but the status is static knowledge, so each bucket
    decides it once, as a table `alone` of (selector round, station): the
    station is in the bucket and selected, and no neighbor is. A round then
    only checks the status of the stations its row marks.
    """
    views = sim.views
    delta = sim.graph.delta
    fam_ssf = sim.base_ssf()
    labels = sorted(views)
    lab_arr = np.array(labels)
    degree = np.array([views[lab].degree for lab in labels])
    # 0/1 float32 matrices multiply by BLAS, exactly: counts stay below 2^24
    adj = np.zeros((len(labels), len(labels)), dtype=np.float32)
    nbrs = [v for lab in labels for v in views[lab].neighbors]
    adj[np.repeat(np.arange(len(labels)), degree), np.searchsorted(lab_arr, nbrs)] = 1

    for i, fam_sel in enumerate(sim.families.leader_selectors(delta)):
        in_bucket = (_ceil_div(delta, 42 << i) <= degree) & (degree <= _ceil_div(delta, 1 << i))
        selected = fam_sel.membership(labels).T  # (selector round, station)
        alone = selected & in_bucket & (selected.astype(np.float32) @ adj == 0)
        rows, stations = np.nonzero(alone)
        row_at = np.searchsorted(rows, np.arange(fam_sel.size + 1)).tolist()
        marked = lab_arr[stations].tolist()
        phase = f"leader-election/i={i}"

        for j in range(fam_sel.size):
            candidates = [u for u in marked[row_at[j] : row_at[j + 1]] if views[u].status == ACTIVE]
            if not candidates:
                sim.skip_execution(fam_ssf, phase)
                continue
            senders = {}
            for u in candidates:
                views[u].set_status(LEADER)
                senders[u] = sim.msg("leader-announce", (u,))
            (pairs,) = sim.ssf_broadcast(fam_ssf, [(senders, phase)])
            for s, listener in pairs:
                v = views[listener]
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
    every non-leader knows the full neighborhood of each adjacent leader.

    What each leader sends in iteration i is fixed from the start, so the
    Delta executions are adjudicated as one batch.
    """
    views = sim.views
    fam = sim.base_ssf()
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    plan = []
    for i in range(1, sim.graph.delta + 1):
        senders = {}
        for lab in leaders:
            v = views[lab]
            if v.degree >= i:
                senders[lab] = sim.msg(
                    "neighbor-of-leader", (lab, v.neighbors[i - 1])
                )
        plan.append((senders, f"neighborhood-inform/i={i}"))
    for (senders, _phase), pairs in zip(plan, sim.ssf_broadcast(fam, plan)):
        for s, listener in pairs:
            if views[listener].status != LEADER:
                leader, member = senders[s].payload
                views[listener].learned_neighborhoods.setdefault(leader, set()).add(member)


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

    (heard,) = sim.execute(
        fam_pair, [(pidxs, [claims[p][0] for p in pidxs], phase, helper_claim)]
    )

    for pidx in pidxs:
        u = claims[pidx][0]
        if views[u].status != HELPER:
            views[u].set_status(HELPER)
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
    Returns, per listener, each (sender, message) it heard in the msg slots,
    in slot order. A token grant that is not received by its addressee is a
    hard simulation error.

    The sweep's transmitters are fixed before its first round: grants go
    to the leaders' i-th neighbors and, since a lost grant fails the run,
    exactly their targets hold tokens, send their messages and return the
    tokens. So the sweep's 4*Delta executions are adjudicated as one batch,
    while each execution's messages are built from the nodes' state just
    before the sweep reaches it.
    """
    views = sim.views
    fam = sim.base_ssf()
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    run_id = sim._tp_runs
    sim._tp_runs += 1
    heard_msgs: dict[int, list[tuple[int, Message]]] = {}

    sweep = []  # per iteration: i, the granting leaders, the holders that send, the holders
    for i in range(1, sim.graph.delta + 1):
        granting = [lab for lab in leaders if views[lab].degree >= i]
        holders = sorted({views[lab].neighbors[i - 1] for lab in granting})
        sweep.append((i, granting, [lab for lab in holders if lab in msgs], holders))
    specs = []
    sent: list[Mapping[int, Message]] = []  # the messages of each execution reached
    for i, *senders in sweep:
        for kind, labs in zip(("idle", "grant", "msg", "return"), ([], *senders)):
            phase = f"token-passing/run={run_id}/i={i}/{kind}"
            specs.append((labs, labs, phase, lambda u, _ks, e=len(specs): sent[e][u]))
    steps = sim.execute(fam, specs)

    def advance(messages: Mapping[int, Message]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Record the next execution, sending messages; who heard whom in
        it, as (sender position, listener) tuples."""
        sent.append(messages)
        return next(steps)

    for i, granting, senders, holders in sweep:
        # slot 1: everyone silent
        advance({})
        # slot 2: leaders pass tokens to their i-th neighbors
        grants = {
            lab: sim.msg("token-grant", (lab, views[lab].neighbors[i - 1])) for lab in granting
        }
        # a grant's payload is its (leader, target) pair
        delivered = {(granting[k], listener) for k, listener in zip(*advance(grants))}
        for lab, msg in grants.items():
            if msg.payload not in delivered:
                raise TokenDeliveryError(
                    f"token from leader {lab} to {msg.payload[1]} lost in run {run_id}, i={i}"
                )
            views[msg.payload[1]].pending_tokens += (lab,)
        # slot 3: token holders transmit their message
        txs = {lab: msgs[lab] for lab in senders}
        receivers: dict[int, list[int]] = {lab: [] for lab in senders}
        for k, listener in zip(*advance(txs)):
            s = senders[k]
            receivers[s].append(listener)
            heard_msgs.setdefault(listener, []).append((s, txs[s]))
        sim.token_records.append(
            TokenRecord(
                run=run_id,
                iteration=i,
                holders=tuple(holders),
                transmissions=tuple((lab, tuple(rs)) for lab, rs in receivers.items()),
            )
        )
        # slot 4: holders pass tokens back
        returns = {
            lab: sim.msg("token-return", (lab,) + views[lab].pending_tokens)
            for lab in holders
        }
        advance(returns)
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
    (announced,) = sim.ssf_broadcast(fam, [(msgs3, "three-hop-connection/announce")])
    for sender, listener in announced:
        v = views[listener]
        if v.status != HELPER and any(x == listener for x, _y, _b in msgs3[sender].payload[1:]):
            v.set_status(HELPER)


# ---------------------------------------------------------------------------
# Algorithm: backbone creation.


def backbone_creation(
    inst: PhysicalInstance,
    config: ProtocolConfig = ProtocolConfig(),
    sink: Optional[Sink] = None,
    engine: Optional[PhysicsEngine] = None,
) -> BackboneResult:
    """Run leader election, two-hop and three-hop connection; assemble the
    backbone (leaders plus helpers and the edges realizing each assignment).
    engine, if given, is a PhysicsEngine already built for inst."""
    sim = Simulator(inst, config, sink, engine)
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
