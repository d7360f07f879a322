"""The scalar SINR check, kept as the reference for PhysicsEngine, and the
set-based graph helpers the verifier's references use.

sinr() and receives() decide one (sender, receiver) pair from the paper's
formulas, one transmitter at a time. The engine adjudicates every run and
every dilution trial; these must agree with it on each pair away from a
float tie at the threshold. scalar_dilution_trial() is the dilution trial
decided pair by pair with receives().

bfs_distances(), components(), induced(), is_dominating() and _arcs() work
on plain adjacency mappings (label -> neighbour labels); verify runs on
bitsets and a CSR list instead, and PhysicsEngine checks connectivity on
its CSR list.

in_range() is the n x n in-range matrix PhysicsEngine kept before it
built its CSR list from near pairs, and generate_by_full_scan() is
cli.generate as it was before its grid: each drawn point checked against
every placed point.

The package keeps a message only as its transmitter text. Message is a
message as the tests read it: a kind tag, a payload of labels and tuples
of labels, and its size in bits. decoded() reads one from a transmitter
text, and transmitted() every transmission's of a recorded execution,
rendered afresh by the execution's writer.
make_message() is the label-count reference for message sizes: both size
a message by counting the labels of its payload, nested tuples included
(count_labels), where the phases size each message from the label count
they already hold.

ssf_broadcast() runs family executions with a fixed sender -> message map
each, through Simulator.execute: the leader and token references send that
way, with messages built up front by msg(). Simulator.execute takes payload
writers, not messages: writer() makes one of a per-key Message builder,
and Sent is a sender -> Message dict that is also a writer, as
token_passing takes its msgs. Both render each message with json.dumps,
so the texts the package's templates fill are held to the json module's.
sent_messages() decodes what a writer renders for some senders.

TokenRecord is what one token-passing msg execution sent, and
token_records() reads every one from a run's records: the trace is the
package's only record of a sweep.

NodeView is one node's state as one object, with its own guard on status
transitions: the leader, inform and token references apply their
node-local rules to views(sim), built from the Simulator's state arrays,
and write them back with store(sim, views).
"""

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from sinrbackbone import protocol, verify
from sinrbackbone.cli import GeneratorSpec
from sinrbackbone.errors import DegenerateDistanceError, RetryCapError
from sinrbackbone.protocol import (
    ACTIVE,
    HELPER,
    INACTIVE,
    LEADER,
    STATUSES,
    Execution,
    Simulator,
)
from sinrbackbone.selection import SelectionFamily
from sinrbackbone.physical import (
    PhysicalInstance,
    SinrParams,
    broadcast_range,
    distance,
    distance_matrix,
    make_instance,
)


class UndefinedRatioError(ArithmeticError):
    """SINR denominator is zero (no noise and no interference)."""


def sinr(
    sender: int,
    receiver: int,
    transmitters: Iterable[int],
    inst: PhysicalInstance,
) -> float:
    """Signal-to-interference-plus-noise ratio at the receiver.

    Signal is P/d(u,v)^alpha; the denominator adds noise and the same
    path-loss term for every other transmitter.
    """
    tx = set(transmitters)
    if sender not in tx:
        raise ValueError("sender must be in the transmitter set")
    if receiver in tx:
        raise ValueError("receiver cannot also transmit")
    if sender == receiver:
        raise ValueError("sender and receiver must differ")
    pos = dict(inst.stations)
    p = inst.params
    rx = pos[receiver]

    d_sr = distance(pos[sender], rx)
    if d_sr == 0.0:
        raise DegenerateDistanceError(f"stations {sender} and {receiver} coincide")
    signal = p.power / d_sr**p.alpha

    interference = 0.0
    for t in tx:
        if t == sender:
            continue
        d_tr = distance(pos[t], rx)
        if d_tr == 0.0:
            raise DegenerateDistanceError(f"stations {t} and {receiver} coincide")
        interference += p.power / d_tr**p.alpha

    denom = p.noise + interference
    if denom == 0.0:
        raise UndefinedRatioError("zero noise and no interference")
    return signal / denom


def receives(
    sender: int,
    receiver: int,
    transmitters: Iterable[int],
    inst: PhysicalInstance,
) -> bool:
    """Reception verdict: SINR >= beta and the weak-device power floor holds.

    The power floor P/d^alpha >= (1+eps)*beta*noise is evaluated in its
    equivalent distance form d <= range so that ties at the range boundary
    are inclusive regardless of floating-point rounding in the power term.
    """
    p = inst.params
    pos = dict(inst.stations)
    d_sr = distance(pos[sender], pos[receiver])
    if p.noise > 0:
        if d_sr > broadcast_range(p):
            return False
    # noise = 0 makes the floor (1+eps)*beta*0 = 0, satisfied by any signal
    return sinr(sender, receiver, transmitters, inst) >= p.beta


def scalar_dilution_trial(params: SinrParams, d: int, seed: int) -> list[tuple[int, int]]:
    """verify.dilution_trial's failures, each required pair decided by
    receives() against every station of the placement."""
    stations, actives = verify._diluted_placement(params, d, seed)
    inst = make_instance(stations, params, len(stations))
    pos = dict(inst.stations)
    r = broadcast_range(params)
    active_set = set(actives)
    failures = []
    for u in actives:
        for lab, _, _ in stations:
            if lab == u or lab in active_set:
                continue
            if distance(pos[u], pos[lab]) <= r:
                if not receives(u, lab, active_set, inst):
                    failures.append((u, lab))
    return failures


def in_range(inst: PhysicalInstance) -> np.ndarray:
    """Entry [i, j]: whether the i-th and j-th smallest labels are within
    range of each other, distance_matrix <= broadcast_range, with the
    diagonal cleared."""
    near = distance_matrix(inst) <= broadcast_range(inst.params)
    np.fill_diagonal(near, False)
    return near


def generate_by_full_scan(spec: GeneratorSpec, params: SinrParams) -> PhysicalInstance:
    """cli.generate's draws and answers, O(n^2): a drawn point's spacing is
    checked against every placed point by math.hypot, and connectivity is
    decided on in_range. Raises DegenerateDistanceError on coincident
    stations and RetryCapError when no attempt succeeds."""
    rng = random.Random(spec.seed)
    for _ in range(spec.retry_cap):
        labels = sorted(rng.sample(range(1, spec.n_labels + 1), spec.n))
        points: list[tuple[float, float]] = []
        for _ in range(spec.n):
            for _try in range(200):
                x = rng.uniform(0.0, spec.arena_side)
                y = rng.uniform(0.0, spec.arena_side)
                if all(math.hypot(x - a, y - b) >= spec.min_spacing for a, b in points):
                    points.append((x, y))
                    break
            else:
                break
        if len(points) < spec.n:
            continue
        stations = [(lab, x, y) for lab, (x, y) in zip(labels, points)]
        inst = make_instance(stations, params, spec.n_labels)
        if np.count_nonzero(distance_matrix(inst) == 0.0) > spec.n:
            raise DegenerateDistanceError("coincident stations in instance")
        rows = zip(labels, in_range(inst))
        if len(components({u: [labels[j] for j in np.flatnonzero(r)] for u, r in rows})) == 1:
            return inst
    raise RetryCapError(f"no connected instance in {spec.retry_cap} attempts")


Adjacency = Mapping[int, Sequence[int]]


def bfs_distances(adj: Adjacency, src: int, radius: Optional[int] = None) -> dict[int, int]:
    """Hop distance from src of every node it reaches; with a radius, of
    every node within that many hops."""
    dist = {src: 0}
    frontier = [src]
    while frontier and (radius is None or dist[frontier[0]] < radius):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _arcs(adj: Adjacency) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The nodes in label order and every arc u -> v of adj as (source,
    target) arrays of indices into that order."""
    nodes = sorted(adj)
    index = {u: i for i, u in enumerate(nodes)}
    src = np.repeat(np.arange(len(nodes)), [len(adj[u]) for u in nodes])
    dst = np.fromiter((index[v] for u in nodes for v in adj[u]), np.intp, len(src))
    return nodes, src, dst


def induced(adj: Adjacency, nodes: set[int]) -> dict[int, list[int]]:
    return {u: [v for v in adj[u] if v in nodes] for u in adj if u in nodes}


def is_dominating(adj: Adjacency, dom: set[int]) -> bool:
    return all(u in dom or set(adj[u]) & dom for u in adj)


def components(adjacency: Adjacency) -> list[set[int]]:
    """The connected components, in ascending order of their smallest node,
    by one depth-first pass."""
    seen: set[int] = set()
    out = []
    for src in sorted(adjacency):
        if src in seen:
            continue
        comp = {src}
        stack = [src]
        while stack:
            for v in adjacency[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(comp)
    return out


def count_labels(payload: tuple) -> int:
    """Its entries, with each nested tuple counted by the labels it holds."""
    return len(payload) + sum([count_labels(x) - 1 for x in payload if isinstance(x, tuple)])


@dataclass(frozen=True)
class Message:
    """Protocol message: a kind tag plus a bounded tuple of labels.

    Payload entries are labels or tuples of labels. size_bits counts the
    kind tag plus one label-width field per label carried (see
    protocol._bits)."""

    kind: str
    payload: tuple
    size_bits: int


def _tuples(value):
    """value with every JSON array in it turned into a tuple."""
    return tuple(map(_tuples, value)) if type(value) is list else value


def decoded(text: bytes, n_labels: int) -> Message:
    """The message whose transmitter text is text, sized by counting its
    labels for a label space of n_labels."""
    record = json.loads(text)
    payload = _tuples(record["payload"])
    return Message(record["kind"], payload, protocol._bits(count_labels(payload), n_labels))


def transmitted(ex: Execution, n_labels: int) -> list[Message]:
    """The message of each transmission of ex, a record of a run over
    n_labels labels: its message key's text, rendered afresh by ex's own
    writer (not read from ex.texts(), which FileSink writes from) and
    decoded. A silent record sends none."""
    if ex.batch is None:
        return []
    table, e = ex.batch.table, ex.index
    k0, k1 = table.key_at[e], table.key_at[e + 1]
    texts = ex.write(table.sender[k0:k1], table.carried[k0:k1])
    messages = [decoded(text, n_labels) for text in texts]
    return [messages[k] for k in ex.message_keys]


def make_message(kind: str, payload: tuple, n_labels: int) -> Message:
    """The kind message carrying payload, sized by counting its labels
    (protocol._message_bits: MessageSizeError if over the budget)."""
    return Message(kind, payload, protocol._message_bits(kind, count_labels(payload), n_labels))


def msg(sim: Simulator, kind: str, payload: tuple) -> Message:
    """The kind message carrying payload, sized for sim's label space."""
    return make_message(kind, payload, sim.inst.n_labels)


def written(senders: Sequence[int], messages: Sequence[Message]) -> list[bytes]:
    """The transmitter texts of messages, sent by senders: what a payload
    writer returns (see protocol.Writer)."""
    return [
        json.dumps({"kind": m.kind, "label": u, "payload": m.payload}, sort_keys=True).encode()
        for u, m in zip(senders, messages)
    ]


def writer(build: Callable[[int, tuple[int, ...]], Message]) -> protocol.Writer:
    """The payload writer of build(sender, carried positions), a Message
    builder called once per key it is asked for."""

    def write(senders, carried):
        return written(senders, [build(u, ks) for u, ks in zip(senders, carried)])

    return write


class Sent(dict):
    """A sender -> Message map that is a payload writer too: each key's
    message is its sender's (see protocol.Messages)."""

    def __call__(self, senders, _carried):
        return written(senders, [self[u] for u in senders])


def sent_messages(
    write: protocol.Writer, senders: Sequence[int], n_labels: int
) -> dict[int, Message]:
    """The message that write renders for each of senders, decoded from
    its text, for a writer that reads only the sender (protocol.Messages)."""
    texts = write(list(senders), [(0,)] * len(senders))
    return {u: decoded(text, n_labels) for u, text in zip(senders, texts)}


def ssf_broadcast(
    sim: Simulator,
    family: SelectionFamily,
    executions: Sequence[tuple[Mapping[int, Message], str]],
) -> Iterator[list[tuple[int, int]]]:
    """Run consecutive full family executions, each with a fixed
    sender->message map, as one batch (see Simulator.execute).

    Yields, per execution, each distinct (sender, listener) pair once,
    sorted by sender and then listener, however many rounds delivered
    it: the listener received senders[sender].
    """
    labs = [sorted(senders) for senders, _phase in executions]
    steps = sim.execute(
        family,
        [
            (ls, ls, phase, Sent(senders))
            for ls, (senders, phase) in zip(labs, executions)
        ],
    )
    for ls, (slots, listeners) in zip(labs, steps):
        yield [(ls[k], listener) for k, listener in zip(slots.tolist(), listeners.tolist())]


@dataclass(frozen=True)
class TokenRecord:
    """Ground-truth-checkable facts about one token-passing msg execution."""

    run: int
    iteration: int
    holders: tuple[int, ...]
    transmissions: tuple[tuple[int, tuple[int, ...]], ...]  # (sender, receivers)


_MSG_PHASE = re.compile(r"token-passing/run=(\d+)/i=(\d+)/msg")


def token_records(executions: Iterable[Execution]) -> list[TokenRecord]:
    """The TokenRecord of each token-passing msg execution of a run's
    records, silent ones included, in round order: its holders are its
    transmitters, ascending, and each holder's receivers are the distinct
    receivers of its deliveries, ascending. A holder that reached no one
    has ()."""
    from trace_reference import each_execution  # which imports this module

    out = []
    for ex in each_execution(executions):
        phase = _MSG_PHASE.fullmatch(ex.phase)
        if phase is None:
            continue
        receivers = {h: set() for h in sorted(set(ex.transmissions[:, 1].tolist()))}
        for _row, sender, receiver in ex.deliveries.tolist():
            receivers[sender].add(receiver)
        out.append(
            TokenRecord(
                int(phase[1]),
                int(phase[2]),
                tuple(receivers),
                tuple((h, tuple(sorted(rs))) for h, rs in receivers.items()),
            )
        )
    return out


_STATUS_TRANSITIONS = {
    (ACTIVE, LEADER),
    (ACTIVE, INACTIVE),
    (INACTIVE, HELPER),
    (HELPER, HELPER),
    (LEADER, LEADER),
}


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
    two_hop_helpers: dict[int, int] = field(default_factory=dict)  # partner -> helper
    three_hop_helpers: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def set_status(self, new: str) -> None:
        if (self.status, new) not in _STATUS_TRANSITIONS:
            raise ValueError(f"illegal status transition {self.status} -> {new}")
        self.status = new


def views(sim: Simulator) -> dict[int, NodeView]:
    """Each station's NodeView, by label, from sim's state arrays."""
    g = sim.graph
    out = {
        lab: NodeView(lab, sim.inst.n, sim.inst.n_labels, g.delta, g.adjacency[lab], status)
        for lab, status in sim.statuses().items()
    }
    for u, s in sim.adjacent.tolist():
        out[u].adjacent_leaders.add(s)
    for s, t, h in sim.two_hop.tolist():
        out[s].two_hop_helpers[t] = h
    for s, t, x, y in sim.three_hop.tolist():
        out[s].three_hop_helpers[t] = (x, y)
    return out


def store(sim: Simulator, views: Mapping[int, NodeView]) -> None:
    """Write views back to sim's state arrays, each table's rows sorted."""
    nodes = sim.graph.nodes

    def rows(width: int, entries: Iterable[tuple]) -> np.ndarray:
        return np.array(sorted(entries), dtype=np.int64).reshape(-1, width)

    sim.status[:] = [STATUSES.index(views[u].status) for u in nodes]
    sim.adjacent = rows(2, ((u, s) for u in nodes for s in views[u].adjacent_leaders))
    sim.two_hop = rows(3, ((u, *e) for u in nodes for e in views[u].two_hop_helpers.items()))
    sim.three_hop = rows(
        4, ((u, t, *xy) for u in nodes for t, xy in views[u].three_hop_helpers.items())
    )
