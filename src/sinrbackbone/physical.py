"""Ground-truth physical layer: geometry, SINR reception, the communication
graph, grid, dilution.

Everything here sees station coordinates. Protocol code must never import
positions from this module; it interacts with the physical layer only
through round adjudication and the communication graph (CommGraph, the one
graph object, over the round engine's CSR list).

The graph is built from nearby pairs only (near_pairs), with no n x n
state; distance_matrix, n x n, is computed only for the gains of an engine
that adjudicates. The sorted-key kernels (run_heads, sorted_distinct,
in_sorted, least, index_ranges) serve the engine, the phases and the
verifier alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import chain, combinations, starmap
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDistanceError,
    DisconnectedInstanceError,
    InstanceFormatError,
    NoDilutionError,
    UnboundedRangeError,
)

Position = tuple[float, float]

SQRT2 = math.sqrt(2.0)

# the largest label space N: an execution's records hold labels as int32,
# and the phases key label pairs as a * (N + 1) + b in int64 arrays, every
# key of which is then below 2**62
MAX_LABELS = 2**31 - 1


@dataclass(frozen=True)
class SinrParams:
    """Model parameters: path loss alpha, threshold beta, noise, sensitivity
    epsilon and the common transmission power.

    All devices are weak (epsilon > 0) and share the same power.
    """

    alpha: float
    beta: float
    noise: float
    epsilon: float
    power: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.alpha > 2:
            raise ValueError(f"alpha must be > 2, got {self.alpha}")
        if not self.beta >= 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.power > 0:
            raise ValueError(f"power must be > 0, got {self.power}")


@dataclass(frozen=True)
class PhysicalInstance:
    """Station labels with ground-truth positions plus shared SINR parameters.

    There is at least one station, and labels are distinct integers in
    [1 .. n_labels], 1 <= n_labels <= MAX_LABELS. Connectivity of the induced
    communication graph is checked by build_graph, not here, so that
    deliberately out-of-range layouts remain expressible in tests.
    """

    stations: tuple[tuple[int, Position], ...]
    params: SinrParams
    n_labels: int

    def __post_init__(self) -> None:
        if not self.stations:
            raise ValueError("an instance needs at least one station")
        if not 1 <= self.n_labels <= MAX_LABELS:
            raise ValueError(f"n_labels must be in [1..{MAX_LABELS}], got {self.n_labels}")
        labels = [lab for lab, _ in self.stations]
        if len(set(labels)) != len(labels):
            raise ValueError("station labels must be distinct")
        for lab, pos in self.stations:
            if not (1 <= lab <= self.n_labels):
                raise ValueError(f"label {lab} outside [1..{self.n_labels}]")
            if not all(map(math.isfinite, pos)):
                raise ValueError(f"station {lab} has a coordinate that is not finite: {pos}")

    @property
    def n(self) -> int:
        return len(self.stations)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lab for lab, _ in self.stations)


def make_instance(
    stations: Iterable[tuple[int, float, float]],
    params: SinrParams,
    n_labels: int,
) -> PhysicalInstance:
    """Convenience constructor from (label, x, y) triples."""
    return PhysicalInstance(
        stations=tuple((int(lab), (float(x), float(y))) for lab, x, y in stations),
        params=params,
        n_labels=int(n_labels),
    )


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters.

    Every distance in the package comes from here: the graph, the round
    engine and the dilution trial's required pairs agree at the range
    boundary.
    """
    return math.dist(a, b)


def distance_matrix(inst: PhysicalInstance) -> np.ndarray:
    """Pairwise distances between stations in ascending label order.

    Entry [i, j] is distance() of the i-th and j-th smallest labels. The
    upper triangle is filled row by row in one C-level pass.
    """
    pos = [p for _, p in sorted(inst.stations)]
    n = len(pos)
    dist = np.zeros((n, n))
    dist[np.arange(n)[:, None] < np.arange(n)] = np.fromiter(
        starmap(math.dist, combinations(pos, 2)), float, n * (n - 1) // 2
    )
    return dist + dist.T  # x + 0.0 is x: the lower triangle is the upper's


def broadcast_range(params: SinrParams) -> float:
    """Maximum distance at which a lone transmitter is received.

    With epsilon > 0 the weak-device power floor is the binding constraint,
    which gives the closed form (P / ((1+eps) * beta * noise))^(1/alpha).
    Requires positive noise; otherwise the range is unbounded.
    """
    if params.noise <= 0:
        raise UnboundedRangeError(
            "range is unbounded when noise = 0; the simulator needs noise > 0"
        )
    return (params.power / ((1 + params.epsilon) * params.beta * params.noise)) ** (
        1.0 / params.alpha
    )


def pivotal_side(params: SinrParams) -> float:
    """Side length of the pivotal grid: range / sqrt(2)."""
    return broadcast_range(params) / SQRT2


def grid_box(pos: Position, side: float) -> tuple[int, int]:
    """Box coordinates under the half-open convention k*side <= a < (k+1)*side."""
    if side <= 0:
        raise ValueError("grid side must be positive")
    return (math.floor(pos[0] / side), math.floor(pos[1] / side))


@dataclass(frozen=True)
class GridIndex:
    """Assignment of stations to boxes of a fixed-origin square grid."""

    side: float
    boxes: Mapping[int, tuple[int, int]]  # label -> (k, j)


def grid_index(inst: PhysicalInstance) -> GridIndex:
    """Index stations by box of the pivotal grid."""
    side = pivotal_side(inst.params)
    return GridIndex(
        side=side,
        boxes={lab: grid_box(pos, side) for lab, pos in inst.stations},
    )


class CommGraph:
    """The simple undirected communication graph on labels (weak link model).

    It holds the labels in ascending order (nodes, and label_array) and one
    CSR list: node i is nodes[i], and its neighbours, ascending, are the
    positions nbrs[nbr_at[i] : nbr_at[i + 1]]; the engine's graph holds the
    engine's own arrays. degree[i] is node i's degree (read-only), and
    delta the largest degree. The two other forms are derived from the CSR
    list when first read: adjacency (each label's neighbour labels as a
    sorted tuple) and the closed CSR list.
    """

    def __init__(self, nodes: list[int], nbrs: np.ndarray, nbr_at: np.ndarray):
        self.nodes = nodes
        self.label_array = np.array(nodes, dtype=int)
        self.nbrs = nbrs
        self.nbr_at = nbr_at
        self.degree = nbr_at[1:] - nbr_at[:-1]
        self.degree.flags.writeable = False  # shared by every reader
        self.delta = int(self.degree.max(initial=0))

    def positions(self, labels: Iterable[int]) -> np.ndarray:
        """Each label's position in nodes; KeyError, naming it, for the
        first label that is not a node."""
        labels = np.fromiter(labels, int)
        known = in_sorted(labels, self.label_array)
        if not known.all():
            raise KeyError(int(labels[known.argmin()]))
        return self.label_array.searchsorted(labels)

    @staticmethod
    def of(adj: Mapping[int, Collection[int]] | CommGraph) -> CommGraph:
        """adj itself if it is a CommGraph, else the graph of a mapping from
        each label to its neighbours' labels, in any order. ValueError, with
        the first such label or pair, if a neighbour label is not a key or
        if one label lists another more often than that one lists it."""
        if isinstance(adj, CommGraph):
            return adj
        nodes, n = sorted(adj), len(adj)
        rows = [adj[u] for u in nodes]
        degree = np.fromiter(map(len, rows), np.intp, n)
        labels = np.fromiter(chain.from_iterable(rows), int, degree.sum())
        label_array = np.array(nodes, dtype=int)
        col = label_array.searchsorted(labels)
        # in_sorted's test on the positions needed anyway, not a second search
        unknown = label_array.take(col, mode="clip") != labels
        if np.count_nonzero(unknown):
            raise ValueError(f"neighbour label {labels[unknown.argmax()]} is not a node")
        # each entry keyed row * n + position, so one sort orders every row;
        # the mapping is undirected iff its keys transposed are the same
        row = np.arange(n).repeat(degree)
        keys, back = row * n + col, col * n + row
        keys.sort()
        back.sort()
        if np.count_nonzero(keys != back):
            i = (keys != back).argmax()
            u, v = divmod(int(min(keys[i], back[i])), n)
            raise ValueError(f"labels {nodes[u]} and {nodes[v]} list each other unequally")
        return CommGraph(nodes, keys % n, np.concatenate(([0], degree.cumsum())))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """label -> its neighbours' labels, ascending."""
        nbrs = self.label_array[self.nbrs].tolist()
        at = self.nbr_at.tolist()
        return {lab: tuple(nbrs[at[i] : at[i + 1]]) for i, lab in enumerate(self.nodes)}

    @cached_property
    def closed_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The closed CSR list (nbrs, nbr_at): each open row with its own
        node put in, keyed row * n + node and sorted as one array."""
        n = len(self.nodes)
        row = np.arange(n).repeat(self.degree)
        keys = np.concatenate((row * n + self.nbrs, np.arange(n) * (n + 1)))
        keys.sort()
        return keys % n, self.nbr_at + np.arange(n + 1)


class PhysicsEngine:
    """Vectorized SINR adjudication for one instance, and the communication
    graph it implies.

    The package's one SINR adjudicator: every protocol round and every
    dilution trial is decided here. Distances come from distance() and the
    range from broadcast_range. The graph has an edge wherever a pair's
    distance is at most the range, and the engine reads the same CSR list
    of in-range pairs, so the graph and the round engine cannot disagree at
    the range boundary. The list is built from near_pairs, without n x n
    state. The gains (and the distance_matrix they are computed from) are
    computed on first use, the first adjudicate, so an engine built only
    for its graph (build_graph) never computes them.
    """

    def __init__(self, inst: PhysicalInstance):
        pos = [p for _, p in sorted(inst.stations)]
        n = len(pos)
        a, b, dist = near_pairs(pos, broadcast_range(inst.params))
        if not dist.all():  # a coincident pair is in range
            raise DegenerateDistanceError("coincident stations in instance")
        # the in-range pairs as a CSR list: station i's in-range stations,
        # ascending, are nbrs[nbr_at[i] : nbr_at[i + 1]], with those pairs'
        # gains in nbr_gain; each pair keyed row * n + column in both
        # directions, so one sort gives np.nonzero's order of the n x n
        # in-range matrix; the communication graph is built over it
        keys = np.concatenate((a * n + b, b * n + a))
        keys.sort()
        self.nbrs = keys % n
        self.nbr_at = keys.searchsorted(np.arange(n + 1) * n)
        self.noise = inst.params.noise
        self.beta = inst.params.beta
        self._inst = inst
        self._graph = CommGraph(sorted(inst.labels), self.nbrs, self.nbr_at)

    @cached_property
    def gain(self) -> np.ndarray:
        """The received power of each (sender, listener) pair, power /
        distance**alpha, with 0.0 on the diagonal: no station interferes
        with itself."""
        p = self._inst.params
        path_loss = distance_matrix(self._inst) ** p.alpha
        path_loss.ravel()[:: len(path_loss) + 1] = np.inf  # the diagonal
        return p.power / path_loss

    @cached_property
    def nbr_gain(self) -> np.ndarray:
        """The gain of each in-range pair, in CSR order (see nbrs)."""
        rows = np.arange(len(self.nbr_at) - 1).repeat(self._graph.degree)
        return self.gain[rows, self.nbrs]

    def graph(self) -> CommGraph:
        """The communication graph: label u adjacent to v iff in_range, over
        the engine's own CSR list; every call returns the same object.

        Raises DisconnectedInstanceError when the graph is not connected (a
        station's component label is not 0), since every protocol in this
        package presumes connectivity.
        """
        if np.count_nonzero(component_labels(self.nbrs, self.nbr_at)):
            raise DisconnectedInstanceError(
                f"communication graph on {len(self._graph.nodes)} stations is not connected"
            )
        return self._graph

    def adjudicate(
        self, rounds: np.ndarray, senders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide every reception of a batch of rounds at once.

        The transmissions are (round, station) index arrays over the
        stations in label order: distinct, and sorted by round, then
        station. Returns the deliveries as (transmission, listener station)
        index arrays, sorted: in (round, sender, receiver) order.

        Only in-range (transmission, listener) pairs are evaluated, read
        from the CSR list, since no station beyond the range can receive.
        Interference is summed rank by rank: step j adds the gain of the
        j-th transmitter of the pair's round, for every pair whose round has
        one. So a pair's threshold is 0.0 plus its round's transmitters'
        gains in ascending label order, plus noise, minus the signal, times
        beta: the same float operations, in the same order, as summing the
        round's whole gain rows. A station that transmits in a round hears
        nothing in it.
        """
        n = len(self.nbr_at) - 1
        # every (transmission, in-range listener) pair, by its CSR position
        lo = self.nbr_at[senders]
        count = self.nbr_at[senders + 1] - lo
        pair_tx = np.arange(len(senders)).repeat(count)
        pos = index_ranges(lo, count)
        listener = self.nbrs[pos]
        signal = self.nbr_gain[pos]
        # the first transmission of each pair's round, and how many it has
        per_round = np.bincount(rounds)
        first = (per_round.cumsum() - per_round)[rounds][pair_tx]
        load = per_round[rounds][pair_tx]
        gain = self.gain.ravel()
        # a transmitting listener hears nothing: its total is inf, as if its
        # own transmission drowned every other
        sender = senders[first]
        total = gain[sender * n + listener]  # 0.0 + the first gain
        total[sender == listener] = np.inf
        sel = (load > 1).nonzero()[0]  # the pairs whose round has a j-th transmitter
        j = 1
        while len(sel):
            near = listener[sel]
            sender = senders[first[sel] + j]
            total[sel] += gain[sender * n + near]
            total[sel[sender == near]] = np.inf
            j += 1
            sel = sel[load[sel] > j]
        total += self.noise
        total -= signal
        total *= self.beta
        heard = signal >= total
        return pair_tx[heard], listener[heard]

    def deliver(self, transmitters: Sequence[int]) -> list[tuple[int, int]]:
        """Successful (sender, receiver) pairs for one round, sorted, of
        labels of the instance. A station listed twice transmits once; a
        label that is not a station's raises KeyError."""
        labels = self._graph.label_array
        senders = sorted_distinct(self._graph.positions(transmitters))
        tx, rx = self.adjudicate(np.zeros_like(senders), senders)
        return list(zip(labels[senders[tx]].tolist(), labels[rx].tolist()))


def component_labels(nbrs: np.ndarray, nbr_at: np.ndarray) -> np.ndarray:
    """Each node's component label, the least index in its component, for
    any CSR list (nbrs, nbr_at) of an undirected graph; a row may be empty.

    Every node holds a label, at first its own index. Each round, a node
    finds the least label among its neighbours, or its own if it has none;
    each label takes the least found by any node that holds it (hooking);
    every node takes the least of its label's and its own find, and follows
    labels twice (pointer jumping). Labels only fall and stay within a
    component; when a round changes none, each holds its least index.
    """
    comp = np.arange(len(nbr_at) - 1)
    rows = (nbr_at[:-1] < nbr_at[1:]).nonzero()[0]
    starts = nbr_at[rows]
    while True:
        found = comp.copy()
        found[rows] = np.minimum.reduceat(comp[nbrs], starts)
        hooked = comp.copy()
        np.minimum.at(hooked, comp, found)
        low = np.minimum(hooked[comp], found)
        low = low[low[low]]
        if not np.count_nonzero(low) or not np.count_nonzero(low != comp):
            return low
        comp = low


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.

    A sort and run_heads. np.unique gives the same array, but in NumPy 2 it
    hashes before it sorts: on the batch keys of three n=150 instances it
    takes 29.6 ms against 5.2 ms.
    """
    keys = keys.copy()
    keys.sort()
    return keys[run_heads(keys)]


def run_heads(*keys: np.ndarray) -> np.ndarray:
    """Flags the first of each run of equal rows of one or more key arrays
    of one length: row i is (keys[0][i], keys[1][i], ...)."""
    first = np.empty(len(keys[0]), dtype=bool)
    first[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=first[1:])
    for k in keys[1:]:
        first[1:] |= k[1:] != k[:-1]
    return first


def in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each key is in table, an ascending array, which may be empty."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    return table.take(table.searchsorted(keys), mode="clip") == keys


def least(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the least value of each."""
    order = keys.argsort()
    keys = keys[order]
    head = run_heads(keys).nonzero()[0]
    return keys[head], np.minimum.reduceat(values[order], head)


def index_ranges(lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The indices lo[j] .. lo[j] + span[j] - 1 of every j, in order."""
    return np.arange(span.sum()) + (lo - span.cumsum() + span).repeat(span)


NEAR_PAIRS_CHUNK = 1 << 15  # window pairs near_pairs filters per step


def near_pairs(pos: list[Position], reach: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of pos within distance() reach of each other, once, as
    index arrays (a, b) and their distances.

    One sweep over the stations sorted by x: each station's window is the
    stations after it up to xs + w, found by searchsorted, with w = reach
    * (1 + 2**-30); the window pairs whose y difference is over w are
    dropped, and distance() decides the rest. The windows are taken about
    NEAR_PAIRS_CHUNK pairs at a time, so the transient arrays stay small
    however wide a window is.

    No pair within reach is dropped. A station j beyond station i's window
    has xs[j] > fl(xs[i] + w); as xs[j] is a float, the exact xs[j] - xs[i]
    is over w, and the float x difference math.dist computes is at least w,
    since rounding is monotone. A dropped pair's float y difference, the
    one math.dist computes, is over w. math.dist is at least each
    coordinate difference it computes, and w > reach: alpha > 2 keeps a
    positive finite reach far above the subnormals. (At reach 0 a dropped
    pair's difference is nonzero; at reach inf no pair is dropped.)
    Nothing is keyed by an integer cell, so any finite coordinates work.
    """
    n = len(pos)
    w = reach * (1 + 2**-30)
    xy = np.fromiter(chain.from_iterable(pos), float, 2 * n).reshape(n, 2)
    order = xy[:, 0].argsort(kind="stable")
    xs, ys = xy[order, 0], xy[order, 1]
    span = xs.searchsorted(xs + w, "right") - np.arange(1, n + 1)  # window sizes
    ends = span.cumsum()
    get = pos.__getitem__
    parts = []
    lo = 0
    while lo < n:  # stations lo .. hi - 1: at most a chunk of pairs, or one station
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(done + NEAR_PAIRS_CHUNK, "right")))
        a = np.arange(lo, hi).repeat(span[lo:hi])
        b = index_ranges(np.arange(lo + 1, hi + 1), span[lo:hi])
        keep = np.abs(ys[b] - ys[a]) <= w
        a, b = order[a[keep]], order[b[keep]]
        dist = np.fromiter(
            map(math.dist, map(get, a.tolist()), map(get, b.tolist())), float, len(a)
        )  # distance() of each pair, by one C-level map as in distance_matrix
        near = dist <= reach
        parts.append((a[near], b[near], dist[near]))
        lo = hi
    if len(parts) == 1:
        return parts[0]
    a, b, dist = zip(*parts)
    return np.concatenate(a), np.concatenate(b), np.concatenate(dist)


def build_graph(inst: PhysicalInstance) -> CommGraph:
    """Communication graph with edges at distance <= range (inclusive): a
    new round engine's graph. Raises DisconnectedInstanceError when it is not
    connected and DegenerateDistanceError when two stations coincide."""
    return PhysicsEngine(inst).graph()


@dataclass(frozen=True)
class DilutionConstants:
    """Dilution constant d, per-box transmitter cap k and ssf parameter c."""

    d: int
    k: int
    c: int


def _ring_sum(d: int, alpha: float) -> float:
    """Worst-case interference factor: sum over rings j>=1 of 8j/(j(d+1)-sqrt2)^alpha.

    Returns math.inf when the nearest ring bound is non-positive. The tail
    beyond the iterated terms is bounded by an integral and added, so the
    result is conservative (never an underestimate).
    """
    if (d + 1) <= SQRT2:
        return math.inf
    total = 0.0
    j = 1
    while True:
        term = 8.0 * j / (j * (d + 1) - SQRT2) ** alpha
        total += term
        if j >= 16 and term < 1e-16 * total:
            break
        if j > 10_000_000:
            break
        j += 1
    # integral tail bound: 8x/((x(d+1)-sqrt2))^alpha <= C * x^(1-alpha) for x >= j
    shrink = 1.0 - SQRT2 / (j * (d + 1))
    c_tail = 8.0 / ((d + 1) * shrink) ** alpha
    total += c_tail * j ** (2 - alpha) / (alpha - 2)
    return total


DILUTION_K = 21  # transmitters allowed per pivotal box
DILUTION_D_CAP = 64  # largest dilution constant searched


def derive_dilution(params: SinrParams) -> DilutionConstants:
    """Smallest d such that diluted transmitters keep SINR >= beta at sqrt(2)x.

    A transmitter at the maximal pivotal-grid distance sqrt(2)x = range
    delivers exactly (1+eps)*beta*noise of signal, so reception tolerates
    interference up to eps*noise. Scaling out P and noise, feasibility of a
    candidate d reduces to

        (1+eps) * beta * 2^(alpha/2) * ring_sum(d, alpha) <= eps

    which depends only on alpha, beta and eps.
    """
    factor = (1 + params.epsilon) * params.beta * 2 ** (params.alpha / 2)
    k = DILUTION_K
    for d in range(0, DILUTION_D_CAP + 1):
        s = _ring_sum(d, params.alpha)
        if factor * s <= params.epsilon:
            return DilutionConstants(d=d, k=k, c=k * k * (2 * d + 1) ** 2)
    raise NoDilutionError(
        f"no dilution constant up to d={DILUTION_D_CAP} satisfies the ring bound "
        f"(alpha={params.alpha}, beta={params.beta}, epsilon={params.epsilon})"
    )


# ---------------------------------------------------------------------------
# Instance files.  JSON with floats serialized via repr, which round-trips
# doubles bit-exactly: parse -> serialize -> parse is the identity.

def serialize_instance(inst: PhysicalInstance) -> str:
    doc = {
        "params": asdict(inst.params),
        "n_labels": inst.n_labels,
        "stations": [
            {"label": lab, "x": pos[0], "y": pos[1]} for lab, pos in inst.stations
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_instance(text: str) -> PhysicalInstance:
    """Labels and n_labels must be JSON integers, coordinates and params
    JSON numbers; a bool or a string is neither."""
    try:
        doc = json.loads(text)
        params = SinrParams(
            **{f.name: _json_number(doc["params"], f.name) for f in fields(SinrParams)}
        )
        stations = tuple(
            (_json_int(s, "label"), (_json_number(s, "x"), _json_number(s, "y")))
            for s in doc["stations"]
        )
        return PhysicalInstance(
            stations=stations, params=params, n_labels=_json_int(doc, "n_labels")
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"bad instance file: {exc}") from exc


def _json_int(doc: Mapping, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _json_number(doc: Mapping, key: str) -> float:
    value = doc[key]
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a JSON number, got {value!r}")
    return float(value)  # OverflowError for an integer beyond any float


def load_instance(path: str) -> PhysicalInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read instance file: {exc}") from exc
    return parse_instance(text)


def save_instance(inst: PhysicalInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
