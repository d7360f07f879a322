"""Synchronous round engine and node state machines for backbone creation.

The engine enforces the information barrier: node decisions are computed
from NodeView fields only (own label, n, N, Delta, neighbor labels,
received messages), while reception is adjudicated by the physical layer
against the full transmitter set of each round.

Every round belongs to exactly one execution of a selection family.
Executions are scheduled in lockstep at every node, so silent rounds (no
transmitter anywhere) cannot change any node state and cost nothing; the
global round counter still advances by the full family size. The non-silent
rounds of consecutive executions whose transmitters are known in advance (a
whole token-passing sweep, say) are adjudicated together, in one batch; a
run adjudicates each distinct transmitter schedule once, however often it
recurs. Leader election, whose transmitters depend on who heard whom,
speculates them and checks the speculation (see leader_election). Each
non-silent execution is kept as one compact record of arrays, which a sink
reads as they are (the CLI's trace file is written from them); a stretch of
consecutive silent executions of one family and phase is one record.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations
from typing import Callable, Iterator, Mapping, Optional, Protocol, Sequence

import numpy as np

from . import selection
from .errors import MessageSizeError, TokenDeliveryError
from .physical import (
    CommGraph,
    PhysicalInstance,
    PhysicsEngine,
    derive_dilution,
    index_ranges,
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
        return Message(kind, payload, _message_bits(kind, _count_labels(payload), n_labels))


def _message_bits(kind: str, labels: int, n_labels: int) -> int:
    """The size of a kind message carrying labels labels; MessageSizeError
    if that is over the budget."""
    size = KIND_BITS + labels * max(1, n_labels.bit_length())
    budget = C_MSG * max(1.0, math.log2(n_labels))
    if size > budget:
        raise MessageSizeError(f"{kind} message of {size} bits exceeds {budget:.0f}-bit budget")
    return size


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

    A silent record (message None) stands for repeats consecutive silent
    executions of the family, the first from start on; every other record
    has repeats 1.
    """

    phase: str
    start: int  # global round of the family's first set
    size: int  # family size
    rounds: np.ndarray
    transmissions: np.ndarray
    deliveries: np.ndarray
    message: Optional[Callable[[int], Message]]  # None when silent
    repeats: int = 1

    @staticmethod
    def silent(phase: str, start: int, size: int, repeats: int = 1) -> "Execution":
        """repeats consecutive executions in which no station transmits,
        the first from start on."""
        return Execution(
            phase, start, size, _NO_ROUNDS, _NO_TRANSMISSIONS, _NO_DELIVERIES, None, repeats
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

    def skip_execution(self, family: SelectionFamily, phase: str, count: int = 1) -> None:
        """Record count consecutive silent executions of family as one."""
        self.sink.execution(Execution.silent(phase, self.round, family.size, count))
        self.round += family.size * count

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
        ks (ascending). It is called only when a sink asks for it: execute
        builds no message. A phase sizes each message it sends once, before
        the execution that sends it is recorded, with Message.make when it
        builds the message up front and with _message_bits, from its label
        count, when a sink builds it later.

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
        exactly the executions before it recorded, and can size an
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
        # the distinct (slot, listener) pairs heard, sorted: every listener
        # of the transmission that carries each slot membership
        dl_at = dl_tx.searchsorted(np.arange(len(tx_key) + 1))
        lo = dl_at[slot_tx]
        span = dl_at[slot_tx + 1] - lo
        heard_rx = dl_rx[index_ranges(lo, span)]
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
    announces leadership during the ssf; every active node that hears it
    becomes inactive.

    All of that rule but the status is static knowledge. Call a selector
    row marked for a station when the station is in the row's bucket and
    selected there, and no neighbor is; rows are numbered over the buckets
    in order. Only a station's first marked row decides anything: there it
    becomes a leader, or it is already inactive for good. So the election
    speculates. It walks the stations by their first marked rows as if
    every announcement reached every active neighbor, and runs every row
    that transmits in one batch. It then applies each row's real
    deliveries in order and checks them: if the stations that went
    inactive in a row are not the ones speculated, the rest of the batch is
    dropped and the election speculates again from the next row, from the
    real statuses. The silent rows between two that transmit are recorded
    as one Execution per bucket.
    """
    views = sim.views
    eng = sim.engine
    fam_ssf = sim.base_ssf()
    delta = sim.graph.delta
    labels = eng.labels
    degree = np.diff(eng.nbr_at)
    selectors = sim.families.leader_selectors(delta)
    phases = [f"leader-election/i={i}" for i in range(len(selectors))]
    ends = list(accumulate(fam.size for fam in selectors))  # where each bucket's rows end
    never = ends[-1]
    first = np.full(len(labels), never, dtype=np.int64)  # each station's first marked row
    for i, fam_sel in enumerate(selectors):
        in_bucket = (_ceil_div(delta, 42 << i) <= degree) & (degree <= _ceil_div(delta, 1 << i))
        todo = np.flatnonzero(in_bucket & (first == never))  # in the bucket, not yet marked
        # a station is in one set per point, ascending, and shares it with a
        # neighbor where their polynomials agree; todo[edge] -> nbr are the
        # edges of the todo stations
        sets = fam_sel.rounds_for(eng.label_array)
        count = degree[todo]
        edge = np.repeat(np.arange(len(todo)), count)
        nbr = eng.nbrs[index_ranges(eng.nbr_at[todo], count)]
        e, x = np.nonzero(sets[todo[edge]] == sets[nbr])
        marked = np.ones((len(todo), fam_sel.P), dtype=bool)
        marked[edge[e], x] = False
        hit = marked.any(axis=1)
        first[todo[hit]] = ends[i] - fam_sel.size + sets[todo[hit], marked[hit].argmax(axis=1)]
    order = np.argsort(first, kind="stable")
    by_row, row_of = order.tolist(), first[order].tolist()
    nbrs, nbr_at = eng.nbrs.tolist(), eng.nbr_at.tolist()

    def speculate(g: int) -> list[tuple[int, list[int], set[int]]]:
        """Each row from g on that transmits, with its leaders and the
        stations they make inactive, if every announcement reaches every
        active neighbor."""
        active = [views[lab].status == ACTIVE for lab in labels]
        out: list[tuple[int, list[int], set[int]]] = []
        k = bisect_left(row_of, g)
        for s, row in zip(by_row[k:], row_of[k:]):
            if row == never:
                break
            if not active[s]:
                continue
            off = [v for v in nbrs[nbr_at[s] : nbr_at[s + 1]] if active[v]]
            active[s] = False
            for v in off:
                active[v] = False
            if not out or out[-1][0] != row:
                out.append((row, [], set()))
            out[-1][1].append(labels[s])
            out[-1][2].update(labels[v] for v in off)
        return out

    g = 0  # the first row not yet recorded

    def advance(to: int, silent: bool = True) -> None:
        """Rows g .. to-1 are done: record them if silent, one Execution per
        bucket, and snapshot every bucket that ends among them."""
        nonlocal g
        while g < to:
            i = bisect_right(ends, g)
            stop = min(to, ends[i])
            if silent:
                sim.skip_execution(fam_ssf, phases[i], stop - g)
            g = stop
            if g == ends[i]:
                sim.phase_snapshots.append((i, {lab: views[lab].status for lab in labels}))

    announce: dict[int, Message] = {}
    while True:
        rows = speculate(g)
        steps = sim.execute(
            fam_ssf,
            [
                (leaders, leaders, phases[bisect_right(ends, row)], lambda u, _ks: announce[u])
                for row, leaders, _off in rows
            ],
        )
        for row, leaders, expected in rows:
            advance(row)
            for u in leaders:
                views[u].set_status(LEADER)
                announce[u] = sim.msg("leader-announce", (u,))
            pos, heard = next(steps)
            off = set()
            for k, listener in zip(pos, heard):
                v = views[listener]
                v.adjacent_leaders.add(leaders[k])
                if v.status == ACTIVE:
                    v.set_status(INACTIVE)
                    off.add(listener)
            advance(row + 1, silent=False)
            if off != expected:
                steps.close()
                break
        else:
            break
    advance(never)


# ---------------------------------------------------------------------------
# Algorithm: neighborhood inform.


def neighborhood_inform(sim: Simulator) -> None:
    """Leaders broadcast their i-th neighbor for i = 1..Delta; afterwards
    every non-leader knows the full neighborhood of each adjacent leader.

    What each leader sends in iteration i is fixed from the start: the
    iteration's table maps each leader of degree at least i to its i-th
    neighbor, in ascending leader order. So the Delta executions are
    adjudicated as one batch. Every message carries two labels and is sized
    once, before the first execution; one is built only when a sink asks
    for it, once per execution and sender. A listener learns each (leader,
    member) pair from the table.
    """
    views = sim.views
    n_labels = sim.inst.n_labels
    tables: list[dict[int, int]] = [{} for _ in range(sim.graph.delta)]
    for lab in sorted(views):
        if views[lab].status == LEADER:
            for table, member in zip(tables, views[lab].neighbors):
                table[lab] = member
    if any(tables):
        _message_bits("neighbor-of-leader", 2, n_labels)

    def inform(table: dict[int, int]) -> Callable[[int, list[int]], Message]:
        return _per_sender(
            lambda u, _ks: Message.make("neighbor-of-leader", (u, table[u]), n_labels)
        )

    steps = sim.execute(
        sim.base_ssf(),
        [
            (list(table), list(table), f"neighborhood-inform/i={i}", inform(table))
            for i, table in enumerate(tables, 1)
        ],
    )
    for table, (pos, listeners) in zip(tables, steps):
        leaders = list(table)
        for k, listener in zip(pos, listeners):
            if views[listener].status != LEADER:
                leader = leaders[k]
                views[listener].learned_neighborhoods.setdefault(leader, set()).add(table[leader])


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
    # schedules for it there, three labels each: size the widest one
    pidxs = sorted(claims)
    helpers = [claims[p][0] for p in pidxs]
    if pidxs:
        sets = fam_pair.rounds_for(pidxs) + fam_pair.size * np.array(helpers)[:, None]
        widest = np.unique(sets, return_counts=True)[1].max()
        _message_bits("helper-claim", 3 * int(widest), n_labels)

    def helper_claim(_u: int, ks: list[int]) -> Message:
        return sim.msg("helper-claim", tuple(sorted(claims[pidxs[k]][1] for k in ks)))

    (heard,) = sim.execute(fam_pair, [(pidxs, helpers, phase, helper_claim)])

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


def token_passing(sim: Simulator, msgs: Mapping[int, Message]) -> tuple[np.ndarray, np.ndarray]:
    """Leader-coordinated round robin: each leader passes a token to its
    i-th neighbor, who transmits its message and passes the token back.

    Per iteration the leader schedule is four ssf executions (silent, pass
    token, silent, silent) against the non-leaders' two-execution loop.
    Returns every reception of the msg slots as (sender, listener) label
    arrays, by iteration, then sender, then listener: the listener received
    msgs[sender]. A token grant that is not received by its addressee is a
    hard simulation error.

    Every token holder sends, so msgs must hold a message for every holder
    (checked up front): three_hop_connection passes one per non-leader.

    The sweep is fixed before its first round. Iteration i's grants map
    each leader of degree at least i to its i-th neighbor, and its tokens
    map each holder to the leaders that granted it one, both in ascending
    leader order. Since a lost grant fails the run, the sorted holders
    send their messages and return their tokens, so an iteration's msg and
    return executions share one plan. The 4*Delta executions are
    adjudicated as one batch. A grant or return is built only when a sink
    asks for it, once per execution and sender, and sized from its label
    count before its execution is recorded. The grant check, the token
    records and the receptions are read from each execution's heard (slot
    position, listener) pairs.
    """
    views = sim.views
    n_labels = sim.inst.n_labels
    run_id = sim._tp_runs
    sim._tp_runs += 1
    delta = sim.graph.delta
    # per iteration: the grants, the tokens and the sorted holders
    grants: list[dict[int, int]] = [{} for _ in range(delta)]
    tokens: list[dict[int, list[int]]] = [{} for _ in range(delta)]
    for lab in sorted(views):
        if views[lab].status == LEADER:
            for grants_i, tokens_i, target in zip(grants, tokens, views[lab].neighbors):
                grants_i[lab] = target
                tokens_i.setdefault(target, []).append(lab)
    if mute := set().union(*tokens) - msgs.keys():
        raise ValueError(f"token holders without a message: {sorted(mute)}")
    sweep = [(g, t, sorted(t)) for g, t in zip(grants, tokens)]

    def send(u: int, _ks: list[int]) -> Message:
        return msgs[u]

    def grant(grants_i: dict[int, int]) -> Callable[[int, list[int]], Message]:
        return _per_sender(lambda u, _ks: Message.make("token-grant", (u, grants_i[u]), n_labels))

    def give_back(tokens_i: dict[int, list[int]]) -> Callable[[int, list[int]], Message]:
        return _per_sender(
            lambda u, _ks: Message.make("token-return", (u, *tokens_i[u]), n_labels)
        )

    specs = []
    for i, (grants_i, tokens_i, holders) in enumerate(sweep, 1):
        phase = f"token-passing/run={run_id}/i={i}/"
        specs += [
            ([], [], phase + "idle", send),
            (list(grants_i), list(grants_i), phase + "grant", grant(grants_i)),
            (holders, holders, phase + "msg", send),
            (holders, holders, phase + "return", give_back(tokens_i)),
        ]
    steps = sim.execute(sim.base_ssf(), specs)
    senders: list[int] = []  # each holder of the sweep,
    counts: list[int] = []  # how many listeners heard it,
    heard: list[tuple[int, ...]] = []  # and who, per iteration
    fits = 0  # a token count whose return is known to fit the budget

    for i, (grants_i, tokens_i, holders) in enumerate(sweep, 1):
        # slot 1: everyone silent
        next(steps)
        # slot 2: leaders pass tokens to their i-th neighbors
        if grants_i:
            _message_bits("token-grant", 2, n_labels)
        pos, label = next(steps)
        at = _slot_at(pos, len(grants_i))
        for k, (lab, target) in enumerate(grants_i.items()):
            if target not in label[at[k] : at[k + 1]]:
                raise TokenDeliveryError(
                    f"token from leader {lab} to {target} lost in run {run_id}, i={i}"
                )
        # slot 3: token holders transmit their message
        pos, label = next(steps)
        at = _slot_at(pos, len(holders))
        receivers = [label[lo:hi] for lo, hi in zip(at, at[1:])]
        senders += holders
        counts += map(len, receivers)
        heard.append(label)
        sim.token_records.append(
            TokenRecord(run_id, i, tuple(holders), tuple(zip(holders, receivers)))
        )
        # slot 4: holders pass tokens back, each return one label longer
        # than its holder's token count
        for h in holders:
            if len(tokens_i[h]) > fits:
                fits = len(tokens_i[h])
                _message_bits("token-return", 1 + fits, n_labels)
        next(steps)

    listeners = np.fromiter(chain.from_iterable(heard), np.int64, sum(counts))
    return np.repeat(np.array(senders, dtype=np.int64), counts), listeners


def _per_sender(build: Callable[[int, list[int]], Message]) -> Callable[[int, list[int]], Message]:
    """build, called at most once per sender: a sink asks for a message in
    every round that sends it."""
    built: dict[int, Message] = {}

    def message(u: int, ks: list[int]) -> Message:
        m = built.get(u)
        if m is None:
            m = built[u] = build(u, ks)
        return m

    return message


def _slot_at(pos: Sequence[int], count: int) -> list[int]:
    """Where each of count slot positions starts in the sorted pos."""
    return [bisect_left(pos, k) for k in range(count + 1)]


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each row of the sorted keys starts a run of equal rows."""
    start = np.ones(len(keys[0]), dtype=bool)
    if len(start):
        start[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return start


def _heard_entries(
    msgs: Mapping[int, Message], senders: np.ndarray, listeners: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per entry after the first of each payload a listener heard:
    (listener, the payload's first entry, the entry as width labels).
    listeners[j] received msgs[senders[j]]."""
    labs = sorted(msgs)
    payloads = [msgs[u].payload for u in labs]
    count = np.array([len(p) - 1 for p in payloads], dtype=np.int64)
    row = np.searchsorted(labs, senders)
    span = count[row]
    entries = np.array([e for p in payloads for e in p[1:]], dtype=np.int64).reshape(-1, width)
    first = np.array([p[0] for p in payloads], dtype=np.int64)
    return (
        listeners.repeat(span),
        first[row].repeat(span),
        entries[index_ranges((count.cumsum() - count)[row], span)],
    )


# ---------------------------------------------------------------------------
# Algorithm: three-hop connection.


def three_hop_connection(sim: Simulator) -> None:
    """Connect leader pairs at graph distance three with two helpers chosen
    by the global minimum-label rule, using two token-passing sweeps.

    Both rules run as sorts and group-bys over arrays of the receptions a
    sweep returns, one row per entry of a payload heard: a node decides
    from the messages it heard (and a leader from its own two-hop helpers),
    never from another node's state.
    """
    views = sim.views
    n_labels = sim.inst.n_labels
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    non_leaders = [lab for lab in sorted(views) if views[lab].status != LEADER]
    is_leader = np.zeros(n_labels + 1, dtype=bool)
    is_leader[leaders] = True

    def by_node(nodes: list[int], sorted_nodes: np.ndarray) -> list[int]:
        """at, with node j's rows of sorted_nodes at at[j] : at[j + 1]."""
        return sorted_nodes.searchsorted(nodes + [n_labels + 1]).tolist()

    msgs1 = {
        u: sim.msg("hop3-report", (u,) + tuple(sorted(views[u].adjacent_leaders)))
        for u in non_leaders
    }
    senders, listeners = token_passing(sim, msgs1)
    heard = ~is_leader[listeners]
    x, y, b = _heard_entries(msgs1, senders[heard], listeners[heard], 1)
    b = b[:, 0]

    # intermediate selection: per heard-about leader b, the minimum-label
    # reporter y that belongs to b
    order = np.lexsort((y, b, x))
    x, y, b = x[order], y[order], b[order]
    first = _run_starts(x, b)
    at = by_node(non_leaders, x[first])
    ys, bs = y[first].tolist(), b[first].tolist()
    msgs2 = {
        u: sim.msg("hop3-choice", (u, *zip(ys[lo:hi], bs[lo:hi])))
        for u, lo, hi in zip(non_leaders, at, at[1:])
    }
    senders, listeners = token_passing(sim, msgs2)
    heard = is_leader[listeners]
    lab, x, yb = _heard_entries(msgs2, senders[heard], listeners[heard], 2)
    y, b = yb[:, 0], yb[:, 1]

    # leader decisions, per other leader b not already connected by a
    # two-hop helper: the smallest label among the reports' x and y, and
    # the least label reported with it (an x first)
    pair = lab * (n_labels + 1) + b
    connected = np.array(
        sorted(u * (n_labels + 1) + t for u in leaders for t in views[u].two_hop_helpers),
        dtype=np.int64,
    )
    in_connected = np.append(connected, -1)[connected.searchsorted(pair)] == pair
    keep = (b != lab) & ~in_connected
    lab, b, x, y = lab[keep], b[keep], x[keep], y[keep]
    by_x, by_y = np.lexsort((y, x, b, lab)), np.lexsort((x, y, b, lab))
    start = np.flatnonzero(_run_starts(lab[by_x], b[by_x]))
    min_x, y_of_x = x[by_x][start], y[by_x][start]
    min_y, x_of_y = y[by_y][start], x[by_y][start]
    x_first = min_x <= min_y
    xs = np.where(x_first, min_x, x_of_y).tolist()
    ys = np.where(x_first, y_of_x, min_y).tolist()
    bs = b[by_x][start].tolist()
    at = by_node(leaders, lab[by_x][start])
    for u, lo, hi in zip(leaders, at, at[1:]):
        views[u].three_hop_helpers.update(zip(bs[lo:hi], zip(xs[lo:hi], ys[lo:hi])))

    fam = sim.base_ssf()
    msgs3 = {
        u: sim.msg("hop3-choice", (u, *zip(xs[lo:hi], ys[lo:hi], bs[lo:hi])))
        for u, lo, hi in zip(leaders, at, at[1:])
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
