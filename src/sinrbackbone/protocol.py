"""Synchronous round engine and node state machines for backbone creation.

The engine enforces the information barrier: a node acts only on its own
label, n, N, Delta, its neighbors' labels and what it heard. The phases
read the graph's CSR list, the node state arrays on the Simulator and the
heard pairs Simulator.execute yields; physics reaches them only through
PhysicsEngine.adjudicate, which decides who heard whom against the full
transmitter set of each round. The protocol tests pin this by replaying
a run's adjudicate answers on redrawn positions.

Every round belongs to exactly one execution of a selection family.
Executions are scheduled in lockstep at every node, so silent rounds (no
transmitter anywhere) cannot change any node state and cost nothing; the
global round counter still advances by the full family size. The non-silent
rounds of consecutive executions whose transmitters are known in advance (a
whole token-passing sweep, say) are adjudicated together, in one batch; a
run adjudicates each distinct transmitter schedule once, however often it
recurs. Leader election, whose transmitters depend on who heard whom,
speculates them and checks the speculation (see leader_election). Each
non-silent execution is kept as one compact record of arrays, built for
its whole batch the first time a sink reads one (the CLI's trace file is
written from them); a stretch of consecutive silent executions of one
family and phase is one record. What an execution heard is its distinct
(slot position, listener label) pairs, sorted; the phases apply their rules
to them as array programs, and size every message from its label count.
Each phase hands every execution a payload writer, which fills one JSON
template per message kind from the arrays the phase holds. A message is
only ever that text: it is rendered only when a sink asks, once per
execution and message key (sender and carried slots), and never decoded.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .errors import MessageSizeError, TokenDeliveryError
from .physical import (
    CommGraph,
    PhysicalInstance,
    PhysicsEngine,
    derive_dilution,
    in_sorted,
    index_ranges,
    least,
    run_heads,
    sorted_distinct,
)
from .selection import SelectionFamily, construct_selector, construct_ssf

ACTIVE = "active"
LEADER = "leader"
INACTIVE = "inactive"
HELPER = "helper"

# a station's status is an index into STATUSES
STATUSES = (ACTIVE, LEADER, INACTIVE, HELPER)
_ACTIVE, _LEADER, _INACTIVE, _HELPER = range(len(STATUSES))
# _MAY_BECOME[old, new]: the five legal status transitions
_MAY_BECOME = np.zeros((len(STATUSES),) * 2, dtype=bool)
_MAY_BECOME[
    [_ACTIVE, _ACTIVE, _INACTIVE, _HELPER, _LEADER],
    [_LEADER, _INACTIVE, _HELPER, _HELPER, _LEADER],
] = True

C_CAP = 2048  # hard cap on the non-demo ssf parameter
C_MSG = 128  # message budget: at most C_MSG * lg N bits
KIND_BITS = 8


# A payload writer renders the messages of some message keys, given each
# key's sender and carried slot positions: it returns their transmitter
# texts, {"kind": ..., "label": sender, "payload": [...]} as
# json.dumps(..., sort_keys=True) writes it. Each payload entry is a label
# or a list of labels; the phases size every message from its label count
# (see _bits) before the execution that sends it is recorded.
Writer = Callable[[Sequence[int], Sequence[tuple[int, ...]]], list[bytes]]


def _template(kind: str, payload: bytes) -> bytes:
    """The transmitter text of a kind message as a %-template: the
    sender's label, then payload's own fields."""
    return b'{"kind": %s, "label": %%d, "payload": %s}' % (json.dumps(kind).encode(), payload)


_ANNOUNCE = _template("leader-announce", b"[%d]")
_INFORM = _template("neighbor-of-leader", b"[%d, %d]")
_GRANT = _template("token-grant", b"[%d, %d]")
_RETURN = _template("token-return", b"[%d%s]")  # the tokens, each after ", "
_CLAIMS = _template("helper-claim", b"[%s]")


def _bits(labels, n_labels: int):
    """The size of a message carrying labels labels (an int, or an integer
    array of counts): its kind tag and one label-width field per label."""
    return KIND_BITS + labels * max(1, n_labels.bit_length())


def _budget(n_labels: int) -> float:
    """The message budget in bits, C_MSG * lg N (C_MSG read at each call)."""
    return C_MSG * max(1.0, math.log2(n_labels))


def _message_bits(kind: str, labels: int, n_labels: int) -> int:
    """The size of a kind message carrying labels labels; MessageSizeError
    if that is over the budget."""
    size = _bits(labels, n_labels)
    budget = _budget(n_labels)
    if size > budget:
        raise MessageSizeError(f"{kind} message of {size} bits exceeds {budget:.0f}-bit budget")
    return size


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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """arrays, made read-only: plans are shared by every execution of their
    schedule, so no caller may write to what execute yields."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# what a silent execution hears: no (slot position, listener) pair
_NOT_HEARD = _frozen(np.zeros(0, np.int64), np.zeros(0, np.int64))


@dataclass(eq=False, slots=True)
class Execution:
    """One family execution, kept as int32 arrays instead of round objects.

    rounds holds the family-relative indices of its non-silent rounds;
    every other round of the family was silent. A transmission is a
    (row, station label) pair, where row indexes rounds; a delivery is a
    (row, sender label, receiver label) triple. Both are sorted. A
    transmission's message key (message_keys[t]) is its sender and the
    slots it carries: every transmission with one key sends one message.
    texts() holds each key's transmitter text, which write, the phase's
    writer, renders in one call the first time they are read. They are
    kept on the execution, not its batch: executions that share a
    schedule (the two token-passing sweeps', say) send other messages.

    The execution's schedule is schedule index of batch, shared by every
    execution of that schedule. Its arrays and keys are read from the
    batch's table (see _Table), which the batch builds for all its
    schedules the first time a sink reads one, so a sink can format what
    they have in common once per batch and only the key texts once per
    execution. A run whose sink never reads them (a CollectSink's) never
    builds a table and calls no writer.

    A silent record (batch None) stands for repeats consecutive silent
    executions of the family, the first from start on; every other
    record has repeats 1.
    """

    phase: str
    start: int  # global round of the family's first set
    size: int  # family size
    batch: Optional["_Batch"] = None  # None when silent
    index: int = 0  # the schedule's index in batch
    write: Optional[Writer] = None
    repeats: int = 1
    _texts: Optional[list[bytes]] = field(default=None, init=False, repr=False)

    @staticmethod
    def silent(phase: str, start: int, size: int, repeats: int = 1) -> "Execution":
        """repeats consecutive executions in which no station transmits,
        the first from start on."""
        return Execution(phase, start, size, repeats=repeats)

    @property
    def rounds(self) -> np.ndarray:
        if self.batch is None:
            return _NO_ROUNDS
        table, e = self.batch.table, self.index
        return table.rounds[table.row_at[e] : table.row_at[e + 1]]

    @property
    def transmissions(self) -> np.ndarray:
        if self.batch is None:
            return _NO_TRANSMISSIONS
        table, e = self.batch.table, self.index
        return table.tx[table.tx_at[e] : table.tx_at[e + 1]]

    @property
    def deliveries(self) -> np.ndarray:
        if self.batch is None:
            return _NO_DELIVERIES
        table, e = self.batch.table, self.index
        return table.dl[table.dl_at[e] : table.dl_at[e + 1]]

    @property
    def message_keys(self) -> list[int]:
        """Each transmission's message key, numbered from 0 in order of
        first transmission: transmissions with one key send one message
        (see _Table)."""
        if self.batch is None:
            return []
        table, e = self.batch.table, self.index
        return table.key[table.tx_at[e] : table.tx_at[e + 1]]

    def texts(self) -> list[bytes]:
        """Each message key's transmitter text, in key order."""
        if self.batch is None:
            return []
        if self._texts is None:
            table, e = self.batch.table, self.index
            k0, k1 = table.key_at[e], table.key_at[e + 1]
            self._texts = self.write(table.sender[k0:k1], table.carried[k0:k1])
        return self._texts


class _Table(NamedTuple):
    """A batch's records and message keys, built at once for all its
    schedules (see _Batch.table).

    Schedule e's rows are row_at[e] : row_at[e + 1] of the batch's, and
    likewise its transmissions (tx_at), deliveries (dl_at) and message keys
    (key_at); row r's transmissions are row_tx[r] : row_tx[r + 1] and its
    deliveries row_dl[r] : row_dl[r + 1]. The records are int32: each row's
    round within the family (rounds), each transmission's (row, sender
    label) (tx) and each delivery's (row, sender label, receiver label)
    (dl), rows counted from their schedule's first.

    A message key is a sender and the slots it carries: a transmission
    carrying the slots at positions ks sends message(sender, ks), so the
    transmissions with one key send one message. key[t] is transmission t's
    key, numbered from 0 within its schedule in order of first
    transmission; over the batch, schedule e's key k is key key_at[e] + k.
    Batch key j is sent by station sender[j] and carries the slots at
    positions carried[j], ascending.
    """

    row_at: list[int]
    tx_at: list[int]
    dl_at: list[int]
    key_at: list[int]
    row_tx: list[int]
    row_dl: list[int]
    rounds: np.ndarray
    tx: np.ndarray
    dl: np.ndarray
    key: list[int]
    sender: list[int]
    carried: list[tuple[int, ...]]


@dataclass(eq=False)
class _Batch:
    """What one _plan call computed for its schedules, as batch-wide arrays.

    Who heard whom is planned up front: schedule e's distinct heard (slot
    position, listener label) pairs, sorted, are heard_pos and heard_label
    over heard_at[e] : heard_at[e + 1]. The records and message keys of
    all the schedules (table) are built from the rest, the first time a
    sink reads one.
    """

    labels: np.ndarray  # station labels, ascending
    size: int  # family size
    rows: np.ndarray  # each non-silent row: schedule * size + set
    tx_row: np.ndarray  # each transmission's row
    tx_station: np.ndarray  # and station index
    dl_tx: np.ndarray  # each delivery's transmission
    dl_rx: np.ndarray  # and listener station index
    dl_at: np.ndarray  # transmission t's deliveries start at dl_at[t]
    slot_tx: np.ndarray  # the transmission that carries each slot membership
    slot_k: np.ndarray  # and its slot, numbered over the batch
    slot_pos: np.ndarray  # each slot's position within its schedule
    heard_at: list[int]
    heard_pos: np.ndarray
    heard_label: np.ndarray

    def heard(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Schedule e's heard (slot position, listener label) pairs, sorted,
        as read-only views."""
        lo, hi = self.heard_at[e], self.heard_at[e + 1]
        return self.heard_pos[lo:hi], self.heard_label[lo:hi]

    @cached_property
    def table(self) -> _Table:
        """The records and message keys of every schedule (see _Table).

        A transmission's key is the set of slots it carries: each
        transmission's slots, numbered over the batch and ascending, are
        one row of a matrix padded with -1, and the transmissions of one
        distinct row, found by one stable lexsort, share a key. A slot
        belongs to one schedule and one owner, so no key spans two of
        either."""
        labels, rows, tx_row, dl_tx = self.labels, self.rows, self.tx_row, self.dl_tx
        n_tx = len(tx_row)
        schedule = rows // self.size  # each row's schedule
        row_at = schedule.searchsorted(np.arange(len(self.heard_at)))
        row_tx = tx_row.searchsorted(np.arange(len(rows) + 1))
        tx_at = row_tx[row_at]
        local_row = np.arange(len(rows)) - row_at[schedule]
        tx_label = labels[self.tx_station]
        tx = np.empty((n_tx, 2), np.int32)
        tx[:, 0], tx[:, 1] = local_row[tx_row], tx_label
        dl = np.empty((len(dl_tx), 3), np.int32)
        dl[:, 0], dl[:, 1], dl[:, 2] = tx[dl_tx, 0], tx_label[dl_tx], labels[self.dl_rx]
        # each transmission's slots, ascending, as one row of carried
        by_tx = self.slot_tx.argsort(kind="stable")
        tx_of = self.slot_tx[by_tx]
        slot_at = tx_of.searchsorted(np.arange(n_tx + 1))
        count = slot_at[1:] - slot_at[:-1]
        carried = np.full((n_tx, count.max()), -1)
        carried[tx_of, np.arange(len(tx_of)) - slot_at[tx_of]] = self.slot_k[by_tx]
        # the sort is stable, so each key's first transmission leads its run
        order = np.lexsort(carried.T[::-1])
        new = run_heads(*carried[order].T)
        group = np.empty(n_tx, np.int64)
        group[order] = new.cumsum() - 1
        first = order[new]
        first.sort()  # each key's first transmission, over the batch
        rank = np.empty(len(first), np.int64)
        rank[group[first]] = np.arange(len(first))
        key = rank[group]  # numbered over the batch in order of first transmission
        key_at = first.searchsorted(tx_at)
        tx_schedule = schedule[tx_row]
        mine = carried[first]  # each key's slots
        pos = self.slot_pos[mine[mine >= 0]].tolist()
        pos_at = [0, *count[first].cumsum().tolist()]
        return _Table(
            row_at=row_at.tolist(),
            tx_at=tx_at.tolist(),
            dl_at=self.dl_at[tx_at].tolist(),
            key_at=key_at.tolist(),
            row_tx=row_tx.tolist(),
            row_dl=self.dl_at[row_tx].tolist(),
            rounds=(rows % self.size).astype(np.int32),
            tx=tx,
            dl=dl,
            key=(key - key_at[tx_schedule]).tolist(),
            sender=tx_label[first].tolist(),
            carried=[tuple(pos[a:b]) for a, b in zip(pos_at, pos_at[1:])],
        )


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
    microseconds, so none is kept between lookups; what a lookup would
    recompute, each code's codeword table, is kept per process by
    selection (see SelectionFamily.rounds_for).
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
    """One protocol run over a fixed instance: node state, schedule, physics.

    The node state is arrays. status holds each station's status, by graph
    position, as an index into STATUSES; only set_status changes it. The
    rest is rows of labels, each its first column's station's own
    knowledge: adjacent, the leaders each station heard announce (see
    leader_election); learned (see neighborhood_inform); and two_hop and
    three_hop, the helpers each leader keeps (see two_hop_connection and
    three_hop_connection). adjacent, two_hop and three_hop are sorted and
    distinct.
    """

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
        self.status = np.full(len(self.graph.nodes), _ACTIVE, dtype=np.int8)
        self.adjacent = np.zeros((0, 2), dtype=np.int64)  # (listener, leader)
        self.learned = np.zeros((0, 3), dtype=np.int64)  # (listener, leader, member)
        self.two_hop = np.zeros((0, 3), dtype=np.int64)  # (leader, partner, helper)
        self.three_hop = np.zeros((0, 4), dtype=np.int64)  # (leader, partner, x, y)
        self.phase_snapshots: list[tuple[int, dict[int, str]]] = []
        self.token_records: list[TokenRecord] = []
        self._tp_runs = 0
        self._plans: dict[tuple, tuple[_Batch, int]] = {}  # see execute

    def statuses(self) -> dict[int, str]:
        """Each station's status, by label, ascending."""
        return dict(zip(self.graph.nodes, [STATUSES[s] for s in self.status.tolist()]))

    def set_status(self, labels: Sequence[int], new: str) -> None:
        """Give each station of labels the status new. If any of them may
        not become new (see _MAY_BECOME), raise a ValueError naming the
        first, and change nothing."""
        at = self.graph.label_array.searchsorted(labels)
        code = STATUSES.index(new)
        legal = _MAY_BECOME[self.status[at], code]
        if not legal.all():
            k = int(legal.argmin())
            raise ValueError(
                f"illegal status transition {STATUSES[self.status[at[k]]]} -> {new} "
                f"at station {labels[k]}"
            )
        self.status[at] = code

    # -- family access ------------------------------------------------------

    def base_ssf(self) -> SelectionFamily:
        return self.families.base_ssf()

    def selector(self, k: int, m: int) -> SelectionFamily:
        return self.families.selector(k, m)

    def pair_ssf(self) -> SelectionFamily:
        return self.families.pair_ssf()

    # -- execution core ------------------------------------------------------

    def skip_execution(self, family: SelectionFamily, phase: str, count: int = 1) -> None:
        """Record count consecutive silent executions of family as one."""
        self.sink.execution(Execution.silent(phase, self.round, family.size, count))
        self.round += family.size * count

    def execute(
        self,
        family: SelectionFamily,
        executions: Sequence[tuple[Sequence[int], Sequence[int], str, Writer]],
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Run consecutive full executions of one family as a single batch.

        Each execution is (slots, owners, phase, write): integer sequences
        or arrays, a phase name and a payload writer. slots[k] is a label
        of the family's label space, sent by station owners[k]: a station
        transmits in every round whose set contains one of its slots, and
        the transmission carries all of them. Its message key is (station,
        ks), ks the positions of the slots it carries (ascending), a tuple
        shared by every execution of the schedule. write(stations, kss)
        renders the messages of the execution's keys (see Writer) in one
        call, only when a sink asks for them: execute renders no payload.
        A phase sizes each message it sends, from its label count, before
        the execution that sends it is recorded.

        Who transmits in which round, who hears whom and which slots each
        transmission carries follow from the family, the slots and the
        owners alone; only the messages differ between two executions that
        share them. So each distinct schedule is planned once per run (see
        _plan) and kept on the Simulator, keyed by the family's code
        parameters (q, K, P) and the bytes of slots and owners as int64:
        the second token-passing sweep, say, repeats the first one's
        schedules. The schedules of a call that no earlier call planned are
        planned together, each once, in one batch, when the returned
        iterator is first advanced. The iterator walks the executions in
        order: advancing to one records it with the sink, advances the
        round counter by the family size, and yields what it heard as two
        read-only int64 arrays (pos, label): the distinct (slot position,
        listener label) pairs, sorted by position and then label. So a
        caller must advance through every execution; it can stop between
        two (by raising) with exactly the executions before it recorded,
        and can size an execution's messages just before advancing to it.
        Rounds whose set meets no slot are silent and cost nothing.
        """
        plans = self._plans
        code = (family.q, family.K, family.P)

        def schedule(slots: Sequence[int], owners: Sequence[int]) -> Optional[tuple]:
            if not len(slots):
                return None
            s = np.asarray(slots, np.int64).tobytes()
            return code, s, s if owners is slots else np.asarray(owners, np.int64).tobytes()

        keys = [schedule(slots, owners) for slots, owners, _p, _m in executions]
        misses = list(dict.fromkeys(k for k in keys if k is not None and k not in plans))
        if misses:
            batch = self._plan(family, misses)
            plans.update((k, (batch, e)) for e, k in enumerate(misses))

        size = family.size
        for key, (_slots, _owners, phase, write) in zip(keys, executions):
            if key is None:
                self.skip_execution(family, phase)
                yield _NOT_HEARD
                continue
            batch, e = plans[key]
            start = self.round
            self.round += size

            self.sink.execution(Execution(phase, start, size, batch, e, write))
            yield batch.heard(e)

    def _plan(self, family: SelectionFamily, schedules: Sequence[tuple]) -> _Batch:
        """Plan distinct non-empty (code, slots, owners) schedules of one
        family, adjudicating all their rounds in one batch.

        The batch's rows are keyed by (schedule, set). Each slot membership
        is a (row, owner) transmission; the distinct ones, sorted by row and
        then owner (with sorted_distinct, as are the heard pairs), go to the
        engine as index arrays. Only the heard pairs are derived here; see
        _Batch for the rest.
        """
        n = len(self.graph.nodes)
        labels = self.graph.label_array
        size, P = family.size, family.P
        slot = np.frombuffer(b"".join([s for _c, s, _o in schedules]), np.int64)
        owner_labels = np.frombuffer(b"".join([o for _c, _s, o in schedules]), np.int64)
        owner = labels.searchsorted(owner_labels)
        counts = np.array([len(s) for _c, s, _o in schedules]) // 8
        slot_at = np.concatenate(([0], counts.cumsum()))
        slot_pos = np.arange(len(slot)) - slot_at[:-1].repeat(counts)  # within its schedule
        # slot memberships, P per slot, each keyed by the transmission that
        # carries it: (schedule * size + set) * n + owner index
        slot_k = np.arange(len(slot)).repeat(P)
        keys = (np.arange(len(schedules)).repeat(counts) * size).repeat(P)
        keys += family.rounds_for(slot).reshape(-1)
        keys *= n
        keys += owner[slot_k]
        tx_key = sorted_distinct(keys)
        tx_row_key, tx_station = np.divmod(tx_key, n)
        new_row = run_heads(tx_row_key)  # tx_row_key is sorted
        tx_row = new_row.cumsum() - 1
        dl_tx, dl_rx = self.engine.adjudicate(tx_row, tx_station)

        # the distinct (slot, listener) pairs heard, sorted: every listener
        # of the transmission that carries each slot membership
        slot_tx = tx_key.searchsorted(keys)
        dl_at = dl_tx.searchsorted(np.arange(len(tx_key) + 1))
        lo = dl_at[slot_tx]
        span = dl_at[slot_tx + 1] - lo
        heard = sorted_distinct(slot_k.repeat(span) * n + dl_rx[index_ranges(lo, span)])
        heard_k, heard_rx = np.divmod(heard, n)
        heard_pos, heard_label = _frozen(slot_pos[heard_k], labels[heard_rx])
        return _Batch(
            labels=labels,
            size=size,
            rows=tx_row_key[new_row],
            tx_row=tx_row,
            tx_station=tx_station,
            dl_tx=dl_tx,
            dl_rx=dl_rx,
            dl_at=dl_at,
            slot_tx=slot_tx,
            slot_k=slot_k,
            slot_pos=slot_pos,
            heard_at=heard_k.searchsorted(slot_at).tolist(),
            heard_pos=heard_pos,
            heard_label=heard_label,
        )


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
    as one Execution per bucket. Every (listener, leader) announcement
    heard is kept in sim.adjacent.
    """
    graph = sim.graph
    status = sim.status
    n_labels = sim.inst.n_labels
    fam_ssf = sim.base_ssf()
    delta = graph.delta
    labels = graph.nodes
    degree = graph.degree
    selectors = sim.families.leader_selectors(delta)
    phases = [f"leader-election/i={i}" for i in range(len(selectors))]
    ends = list(accumulate(fam.size for fam in selectors))  # where each bucket's rows end
    never = ends[-1]
    first = np.full(len(labels), never, dtype=np.int64)  # each station's first marked row
    for i, fam_sel in enumerate(selectors):
        in_bucket = (_ceil_div(delta, 42 << i) <= degree) & (degree <= _ceil_div(delta, 1 << i))
        todo = (in_bucket & (first == never)).nonzero()[0]  # in the bucket, not yet marked
        # a station is in one set per point, ascending, and shares it with a
        # neighbor where their polynomials agree; todo[edge] -> nbr are the
        # edges of the todo stations
        sets = fam_sel.rounds_for(graph.label_array)
        count = degree[todo]
        edge = np.arange(len(todo)).repeat(count)
        nbr = graph.nbrs[index_ranges(graph.nbr_at[todo], count)]
        e, x = (sets[todo[edge]] == sets[nbr]).nonzero()
        marked = np.empty((len(todo), fam_sel.P), dtype=bool)
        marked.fill(True)
        marked[edge[e], x] = False
        hit = marked.any(axis=1)
        first[todo[hit]] = ends[i] - fam_sel.size + sets[todo[hit], marked[hit].argmax(axis=1)]
    order = first.argsort(kind="stable")
    by_row, row_of = order.tolist(), first[order].tolist()
    nbrs, nbr_at = graph.nbrs.tolist(), graph.nbr_at.tolist()

    def speculate(g: int) -> list[tuple[int, list[int], set[int]]]:
        """Each row from g on that transmits, with its leaders and the
        stations they make inactive, if every announcement reaches every
        active neighbor."""
        active = (status == _ACTIVE).tolist()
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
                sim.phase_snapshots.append((i, sim.statuses()))

    def announce(senders: Sequence[int], _carried) -> list[bytes]:
        return [_ANNOUNCE % (u, u) for u in senders]

    adjacent = [_NOT_HEARD[1]]  # each heard announcement: listener * (N + 1) + leader
    while True:
        rows = speculate(g)
        steps = sim.execute(
            fam_ssf,
            [
                (leaders, leaders, phases[bisect_right(ends, row)], announce)
                for row, leaders, _off in rows
            ],
        )
        for row, leaders, expected in rows:
            advance(row)
            _message_bits("leader-announce", 1, n_labels)
            sim.set_status(leaders, LEADER)
            pos, heard = next(steps)
            adjacent.append(heard * (n_labels + 1) + np.array(leaders)[pos])
            off = heard[status[graph.label_array.searchsorted(heard)] == _ACTIVE]
            sim.set_status(off, INACTIVE)
            advance(row + 1, silent=False)
            if set(off.tolist()) != expected:
                steps.close()
                break
        else:
            break
    advance(never)
    adjacent = sorted_distinct(np.concatenate(adjacent))
    sim.adjacent = np.column_stack(np.divmod(adjacent, n_labels + 1))


# ---------------------------------------------------------------------------
# Algorithm: neighborhood inform.


def _leader_tables(
    sim: Simulator,
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Each leader's i-th neighbor, for i = 1..Delta, as (at, iteration,
    leaders, members): iteration i maps leaders[at[i-1] : at[i]],
    ascending, each to the same row of members, and iteration holds each
    row's i - 1."""
    g = sim.graph
    lead = (sim.status == _LEADER).nonzero()[0]
    degree = g.degree[lead]
    nbr = g.nbrs[index_ranges(g.nbr_at[lead], degree)]
    i = np.arange(len(nbr)) - (degree.cumsum() - degree).repeat(degree)
    order = i.argsort(kind="stable")  # by i, then leader
    labels = g.label_array
    iteration = i[order]
    at = iteration.searchsorted(np.arange(g.delta + 1)).tolist()
    return at, iteration, labels[lead.repeat(degree)][order], labels[nbr][order]


def neighborhood_inform(sim: Simulator) -> None:
    """Leaders broadcast their i-th neighbor for i = 1..Delta; afterwards
    every non-leader knows the full neighborhood of each adjacent leader.

    What each leader sends in iteration i is fixed from the start: the
    iteration's table maps each leader of degree at least i to its i-th
    neighbor, in ascending leader order. So the Delta executions are
    adjudicated as one batch. Every message carries two labels and is sized
    once, before the first execution; its text is rendered from the tables
    only when a sink asks for it, once per execution and sender.

    What the listeners learned is kept as one array, sim.learned: a row
    (listener, leader, member) for each (leader, member) pair of the tables
    that a non-leader listener heard, in reception order. A row is its
    listener's own knowledge.
    """
    n_labels = sim.inst.n_labels
    at, _iteration, leaders, members = _leader_tables(sim)
    if len(leaders):
        _message_bits("neighbor-of-leader", 2, n_labels)
    member_list = members.tolist()

    def inform(lo: int) -> Writer:
        def write(senders: Sequence[int], carried: Sequence[tuple[int, ...]]) -> list[bytes]:
            return [_INFORM % (u, u, member_list[lo + ks[0]]) for u, ks in zip(senders, carried)]

        return write

    steps = sim.execute(
        sim.base_ssf(),
        [
            (leaders[lo:hi], leaders[lo:hi], f"neighborhood-inform/i={i}", inform(lo))
            for i, (lo, hi) in enumerate(zip(at, at[1:]), 1)
        ],
    )
    # every (slot, listener) pair heard, slots numbered over all the tables
    pos, listener = [_NOT_HEARD[0]], [_NOT_HEARD[1]]
    for (p, lab), lo in zip(steps, at):
        pos.append(p + lo)
        listener.append(lab)
    pos, listener = np.concatenate(pos), np.concatenate(listener)
    keep = (sim.status != _LEADER)[sim.graph.label_array.searchsorted(listener)]
    sim.learned = np.column_stack([listener, leaders[pos], members[pos]])[keep]


# ---------------------------------------------------------------------------
# Algorithm: two-hop connection.


def two_hop_connection(sim: Simulator) -> None:
    """Assign the minimum-label common neighbor as helper for every leader
    pair at graph distance two, via one ssf over pair labels.

    The claim rule is a group-by over sim.learned: a non-leader u claims
    the pair of adjacent leaders s < t when u is the least label that it
    learned neighbors both. Claims are kept one per pair, the largest
    claimant's. Each leader that hears a claim naming it keeps the
    claimant as its helper to the other leader, in sim.two_hop.
    """
    neighborhood_inform(sim)
    n_labels = sim.inst.n_labels
    fam_pair = sim.pair_ssf()
    phase = "two-hop-connection"

    # (u, s, m): u learned that m neighbors s, one of its adjacent leaders;
    # only an m up to u can be the least common member that u must be
    u, s, m = sim.learned.T
    mine = sim.adjacent[:, 0] * (n_labels + 1) + sim.adjacent[:, 1]  # sorted
    keep = (m <= u).nonzero()[0]
    keep = keep[in_sorted(u[keep] * (n_labels + 1) + s[keep], mine)]
    u, s, m = u[keep], s[keep], m[keep]
    order = np.lexsort((s, m, u))
    u, s, m = u[order], s[order], m[order]
    # every two rows i < j of one (u, m) group: m is common to s[i] < s[j]
    bounds = np.concatenate((run_heads(u, m).nonzero()[0], [len(u)]))
    later = bounds[1:].repeat(bounds[1:] - bounds[:-1]) - np.arange(len(u)) - 1
    i = np.arange(len(u)).repeat(later)
    j = index_ranges(np.arange(len(u)) + 1, later)
    u, s, t, m = u[i], s[i], s[j], m[i]
    # the least common member of each (u, s, t); u claims when it is u
    order = np.lexsort((m, t, s, u))
    first = order[run_heads(u[order], s[order], t[order])]
    claim = first[m[first] == u[first]]
    # one claim per pair: a larger claimant's replaces a smaller one's, so
    # each pair keeps its largest claimant, the least negated label
    pair, least_negated = least(s[claim] * (n_labels + 1) + t[claim], -u[claim])
    (s, t), helpers = np.divmod(pair, n_labels + 1), -least_negated
    pidxs = (s - 1) * n_labels + t  # selection.pair_index

    # a helper's message in a round carries every claim the pair family
    # schedules for it there, three labels each: size the widest one
    if len(pidxs):
        sets = fam_pair.rounds_for(pidxs) + fam_pair.size * helpers[:, None]
        sets = sets.ravel()
        sets.sort()
        run_at = np.concatenate((run_heads(sets).nonzero()[0], [len(sets)]))
        widest = (run_at[1:] - run_at[:-1]).max()
        _message_bits("helper-claim", 3 * int(widest), n_labels)
    claims = list(zip(helpers.tolist(), s.tolist(), t.tolist()))

    def helper_claim(senders: Sequence[int], carried: Sequence[tuple[int, ...]]) -> list[bytes]:
        # pidxs ascend with (s, t) and a key's claims share their helper, so
        # a key's positions, ascending, give its claims sorted
        return [
            _CLAIMS % (u, b", ".join([b"[%d, %d, %d]" % claims[k] for k in ks]))
            for u, ks in zip(senders, carried)
        ]

    ((pos, listener),) = sim.execute(fam_pair, [(pidxs, helpers, phase, helper_claim)])

    sim.set_status(helpers, HELPER)
    named = (listener == s[pos]) | (listener == t[pos])
    pos, leader = pos[named], listener[named]
    partner = np.where(leader == s[pos], t[pos], s[pos])
    order = np.lexsort((partner, leader))
    sim.two_hop = np.column_stack([leader, partner, helpers[pos]])[order]


# ---------------------------------------------------------------------------
# Algorithm: token passing.


class Messages(Protocol):
    """A payload writer (see Writer) of one message per sender: u in it
    tells whether it holds u's, and it renders each key's from its sender
    alone."""

    def __contains__(self, u: object) -> bool: ...

    def __call__(self, senders: Sequence[int], carried: Sequence[tuple[int, ...]]) -> list[bytes]:
        ...


def token_passing(sim: Simulator, msgs: Messages) -> tuple[np.ndarray, np.ndarray]:
    """Leader-coordinated round robin: each leader passes a token to its
    i-th neighbor, who transmits its message and passes the token back.

    Per iteration the leader schedule is four ssf executions (silent, pass
    token, silent, silent) against the non-leaders' two-execution loop.
    Returns every reception of the msg slots as (sender, listener) label
    arrays, by iteration, then sender, then listener: the listener received
    the sender's message in msgs. A token grant that is not received by its
    addressee is a hard simulation error.

    Every token holder sends, so msgs must hold a message for every holder
    (checked up front): three_hop_connection passes one per non-leader.
    msgs renders the msg executions' payloads, only when a sink asks.

    The sweep is fixed before its first round. Iteration i's grants map
    each leader of degree at least i to its i-th neighbor, and its tokens
    map each holder to the leaders that granted it one, both in ascending
    leader order. Since a lost grant fails the run, the sorted holders
    send their messages and return their tokens, so an iteration's msg and
    return executions share one plan. The 4*Delta executions are
    adjudicated as one batch. A grant or return is rendered only when a
    sink asks for it, once per execution and sender, and sized from its label
    count before its execution is recorded. Each grant execution is checked
    by one array comparison of the targets with what was heard, as the
    sweep must stop there if a grant was lost. The token records and the
    receptions are read from the msg executions sent, in one pass when the
    sweep ends or stops.
    """
    n_labels = sim.inst.n_labels
    run_id = sim._tp_runs
    sim._tp_runs += 1
    delta = sim.graph.delta
    at, iteration, leaders, targets = _leader_tables(sim)
    # the tokens: each iteration's holders, ascending, and the leaders
    # whose tokens holder h holds, tokens[token_at[h] : token_at[h + 1]]
    by_holder = np.lexsort((leaders, targets, iteration))
    new = run_heads(iteration[by_holder], targets[by_holder])
    holders = targets[by_holder][new]
    holder_at = iteration[by_holder][new].searchsorted(np.arange(delta + 1)).tolist()
    token_at = np.concatenate((new.nonzero()[0], [len(new)]))
    holder_list = holders.tolist()
    if mute := sorted({h for h in holder_list if h not in msgs}):
        raise ValueError(f"token holders without a message: {mute}")
    # a return carries its holder's label and tokens: the first holder
    # whose return is over the budget stops the sweep before its return
    too_long = _first_oversize(_bits(1 + token_at[1:] - token_at[:-1], n_labels), n_labels)
    target_list, token_at_list = targets.tolist(), token_at.tolist()
    tokens = leaders[by_holder].tolist()

    def grant(lo: int) -> Writer:
        def write(senders: Sequence[int], carried: Sequence[tuple[int, ...]]) -> list[bytes]:
            return [_GRANT % (u, u, target_list[lo + ks[0]]) for u, ks in zip(senders, carried)]

        return write

    def give_back(lo: int) -> Writer:
        def write(senders: Sequence[int], carried: Sequence[tuple[int, ...]]) -> list[bytes]:
            texts = []
            for u, ks in zip(senders, carried):
                h = lo + ks[0]
                mine = tokens[token_at_list[h] : token_at_list[h + 1]]
                texts.append(_RETURN % (u, u, b", %d" * len(mine) % tuple(mine)))
            return texts

        return write

    specs = []
    for i in range(delta):
        phase = f"token-passing/run={run_id}/i={i + 1}/"
        granting = leaders[at[i] : at[i + 1]]
        holding = holders[holder_at[i] : holder_at[i + 1]]
        specs += [
            ([], [], phase + "idle", msgs),
            (granting, granting, phase + "grant", grant(at[i])),
            (holding, holding, phase + "msg", msgs),
            (holding, holding, phase + "return", give_back(holder_at[i])),
        ]
    steps = sim.execute(sim.base_ssf(), specs)
    sent: list[tuple[np.ndarray, np.ndarray]] = []  # each msg execution's heard

    try:
        for i in range(delta):
            lo, hi = at[i], at[i + 1]
            # slot 1: everyone silent
            next(steps)
            # slot 2: leaders pass tokens to their i-th neighbors
            if hi > lo:
                _message_bits("token-grant", 2, n_labels)
            pos, label = next(steps)
            got = label == targets[lo:hi][pos]
            if np.count_nonzero(got) < hi - lo:
                granted = np.zeros(hi - lo, dtype=bool)
                granted[pos[got]] = True
                k = lo + int(np.argmin(granted))
                raise TokenDeliveryError(
                    f"token from leader {leaders[k]} to {target_list[k]} lost in run {run_id}, "
                    f"i={i + 1}"
                )
            # slot 3: token holders transmit their message
            sent.append(next(steps))
            # slot 4: holders pass tokens back
            if too_long is not None and holder_at[i] <= too_long < holder_at[i + 1]:
                count = token_at_list[too_long + 1] - token_at_list[too_long]
                _message_bits("token-return", 1 + count, n_labels)
            next(steps)
    finally:
        receptions = _append_token_records(sim, run_id, holder_list, holder_at, sent)
    return receptions


def _append_token_records(
    sim: Simulator,
    run_id: int,
    holders: list[int],
    holder_at: list[int],
    sent: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Append the TokenRecord of each iteration whose msg execution was
    sent, from what it heard; returns their receptions as (sender,
    listener) label arrays. Iteration i's msg execution sends
    holders[holder_at[i] : holder_at[i + 1]] at slot positions 0, 1, ...,
    and its heard pairs are sorted by position: so with holders numbered
    over the sweep, each holder's listeners are one run of the pairs."""
    holder = np.concatenate([_NOT_HEARD[0]] + [pos + lo for (pos, _l), lo in zip(sent, holder_at)])
    listeners = np.concatenate([_NOT_HEARD[1]] + [lab for _p, lab in sent])
    # where each holder's listeners start, over the whole sweep
    bounds = holder.searchsorted(np.arange(holder_at[len(sent)] + 1)).tolist()
    heard = listeners.tolist()
    receivers = [tuple(heard[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    for i in range(len(sent)):
        hs = holders[holder_at[i] : holder_at[i + 1]]
        mine = receivers[holder_at[i] : holder_at[i + 1]]
        sim.token_records.append(TokenRecord(run_id, i + 1, tuple(hs), tuple(zip(hs, mine))))
    return np.array(holders, dtype=np.int64)[holder], listeners


def _first_oversize(sizes: np.ndarray, n_labels: int) -> Optional[int]:
    """The index of the first message, in order, whose size (see _bits) is
    over the budget (see _budget); None if none is."""
    over = (sizes > _budget(n_labels)).nonzero()[0]
    return int(over[0]) if len(over) else None


class _Messages:
    """The kind message of each of senders (ascending labels), as a payload
    writer (see Messages): sender j's payload is its label, then its
    entries, rows at[j] : at[j + 1] of columns, each a label (one column)
    or a list of labels. All are sized at once, in sender order, when the
    writer is made (MessageSizeError for the first over the budget). A
    sender's text is filled from the columns each time it is asked for,
    once per execution it is in (see Execution.texts)."""

    def __init__(
        self,
        kind: str,
        senders: np.ndarray,
        at: np.ndarray,
        columns: Sequence[np.ndarray],
        n_labels: int,
    ) -> None:
        width = len(columns)
        counts = at[1:] - at[:-1]
        first = _first_oversize(_bits(1 + width * counts, n_labels), n_labels)
        if first is not None:
            _message_bits(kind, 1 + width * int(counts[first]), n_labels)
        self._template = _template(kind, b"[%d%s]")  # the sender, then its entries
        self._entry = b", %d" if width == 1 else b", [%s]" % b", ".join([b"%d"] * width)
        self._index = dict(zip(senders.tolist(), range(len(senders))))
        self._at = at.tolist()
        self._width = width
        self._labels = np.column_stack(columns).ravel().tolist()  # each entry's, in order

    def __contains__(self, u: object) -> bool:
        return u in self._index

    def __call__(self, senders: Sequence[int], _carried) -> list[bytes]:
        template, entry, at, w, labels = (
            self._template, self._entry, self._at, self._width, self._labels
        )
        texts = []
        for u in senders:
            j = self._index[u]
            lo, hi = at[j], at[j + 1]
            texts.append(template % (u, u, entry * (hi - lo) % tuple(labels[lo * w : hi * w])))
        return texts


def _heard_entries(
    senders: np.ndarray, at: np.ndarray, entries: np.ndarray, sent: np.ndarray, heard: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per entry of each payload a listener heard: (listener,
    sender, entry). senders[j] (ascending) sends entries[at[j] : at[j + 1]]
    after its own label; listener heard[r] received sent[r]'s payload."""
    row = senders.searchsorted(sent)
    lo = at[row]
    span = at[row + 1] - lo
    return heard.repeat(span), sent.repeat(span), entries[index_ranges(lo, span)]


# ---------------------------------------------------------------------------
# Algorithm: three-hop connection.


def three_hop_connection(sim: Simulator) -> None:
    """Connect leader pairs at graph distance three with two helpers chosen
    by the global minimum-label rule, using two token-passing sweeps.

    Both rules run as sorts and group-bys over arrays of the receptions a
    sweep returns, one row per entry of a payload heard: a node decides
    from the messages it heard (and a leader from its own two-hop helpers),
    never from another node's state. The hop3-report and hop3-choice
    payloads are kept as arrays too: each phase sizes all its messages at
    once from their label counts, and a payload's text is rendered from
    them only when a sink asks for it. Each leader keeps its choices in sim.three_hop and
    announces them through one ssf execution, and every x named to the
    leader it heard becomes a helper.
    """
    n_labels = sim.inst.n_labels
    n1 = n_labels + 1  # label pairs are keyed a * n1 + b
    labels = sim.graph.label_array
    leaders, nl = labels[sim.status == _LEADER], labels[sim.status != _LEADER]
    is_leader = np.zeros(n1, dtype=bool)
    is_leader[leaders] = True

    def by_node(nodes: np.ndarray, sorted_nodes: np.ndarray) -> np.ndarray:
        """at, with node j's rows of sorted_nodes at at[j] : at[j + 1]."""
        return sorted_nodes.searchsorted(np.concatenate((nodes, [n1])))

    # each non-leader reports its adjacent leaders
    reporter, adjacent = sim.adjacent[~is_leader[sim.adjacent[:, 0]]].T
    at = by_node(nl, reporter)
    senders, listeners = token_passing(sim, _Messages("hop3-report", nl, at, [adjacent], n_labels))
    heard = ~is_leader[listeners]
    x, y, b = _heard_entries(nl, at, adjacent, senders[heard], listeners[heard])

    # intermediate selection: per heard-about leader b, the minimum-label
    # reporter y that belongs to b
    xb, ys = least(x * n1 + b, y)
    xs, bs = np.divmod(xb, n1)
    at = by_node(nl, xs)
    senders, listeners = token_passing(sim, _Messages("hop3-choice", nl, at, [ys, bs], n_labels))
    heard = is_leader[listeners]
    lab, x, k = _heard_entries(nl, at, np.arange(len(ys)), senders[heard], listeners[heard])
    y, b = ys[k], bs[k]

    # leader decisions, per other leader b not already connected by a
    # two-hop helper: the smallest label among the reports' x and y, and
    # the least label reported with it (an x first); that is, of the least
    # x * n1 + y and the least y * n1 + x, the one that starts lower
    pair = lab * n1 + b
    connected = sim.two_hop[:, 0] * n1 + sim.two_hop[:, 1]  # sorted
    keep = (b != lab) & ~in_sorted(pair, connected)
    pair, x, y = pair[keep], x[keep], y[keep]
    pairs, xy = least(pair, x * n1 + y)
    min_x, y_of_x = np.divmod(xy, n1)
    min_y, x_of_y = np.divmod(least(pair, y * n1 + x)[1], n1)
    x_first = min_x <= min_y
    xs = np.where(x_first, min_x, x_of_y)
    ys = np.where(x_first, y_of_x, min_y)
    lab, bs = np.divmod(pairs, n1)
    sim.three_hop = np.column_stack([lab, bs, xs, ys])
    at = by_node(leaders, lab)

    choices = _Messages("hop3-choice", leaders, at, [xs, ys, bs], n_labels)
    ((pos, listener),) = sim.execute(
        sim.base_ssf(), [(leaders, leaders, "three-hop-connection/announce", choices)]
    )
    # every x a leader named becomes a helper when it hears that leader
    named = np.arange(len(leaders)).repeat(at[1:] - at[:-1]) * n1 + xs
    named.sort()
    heard = listener[in_sorted(pos * n1 + listener, named)]
    sim.set_status(sorted_distinct(heard), HELPER)


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

    n1 = inst.n_labels + 1
    two, three = sim.two_hop, sim.three_hop
    two_hop = {(min(s, t), max(s, t)): h for s, t, h in two.tolist()}
    three_hop = {(s, t): (x, y) for s, t, x, y in three.tolist()}
    # the edges realizing each assignment: s - h - t, and s - x - y - t
    u = np.concatenate([two[:, 0], two[:, 1], three[:, 0], three[:, 2], three[:, 3]])
    v = np.concatenate([two[:, 2], two[:, 2], three[:, 2], three[:, 3], three[:, 1]])
    edges = np.divmod(sorted_distinct(np.minimum(u, v) * n1 + np.maximum(u, v)), n1)
    helpers = sorted_distinct(np.concatenate([two[:, 2], three[:, 2:].ravel()]))
    return BackboneResult(
        leaders=tuple(sim.graph.label_array[sim.status == _LEADER].tolist()),
        helpers=tuple(helpers.tolist()),
        backbone_edges=tuple(zip(*[e.tolist() for e in edges])),
        rounds_used=sim.round,
        traces=sim.sink,
        statuses=sim.statuses(),
        two_hop=two_hop,
        three_hop=three_hop,
        phase_snapshots=sim.phase_snapshots,
        token_records=sim.token_records,
        delta=sim.graph.delta,
    )
