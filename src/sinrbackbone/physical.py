"""Ground-truth physical layer: geometry, SINR reception, grid, dilution.

Everything here sees station coordinates. Protocol code must never import
positions from this module; it interacts with the physical layer only
through round adjudication.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDistanceError,
    DisconnectedInstanceError,
    InstanceFormatError,
    NoDilutionError,
    UnboundedRangeError,
    UndefinedRatioError,
)

Position = tuple[float, float]

SQRT2 = math.sqrt(2.0)


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

    Labels are distinct integers in [1 .. n_labels]. Connectivity of the
    induced communication graph is checked by build_graph, not here, so that
    deliberately out-of-range layouts remain expressible in tests.
    """

    stations: tuple[tuple[int, Position], ...]
    params: SinrParams
    n_labels: int

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.stations]
        if len(set(labels)) != len(labels):
            raise ValueError("station labels must be distinct")
        for lab in labels:
            if not (1 <= lab <= self.n_labels):
                raise ValueError(f"label {lab} outside [1..{self.n_labels}]")

    @property
    def n(self) -> int:
        return len(self.stations)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lab for lab, _ in self.stations)

    def position(self, label: int) -> Position:
        for lab, pos in self.stations:
            if lab == label:
                return pos
        raise KeyError(label)

    def positions(self) -> dict[int, Position]:
        return {lab: pos for lab, pos in self.stations}


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
    engine and the scalar reception check agree at the range boundary.
    """
    return math.hypot(a[0] - b[0], a[1] - b[1])


def distance_matrix(inst: PhysicalInstance) -> np.ndarray:
    """Pairwise distances between stations in ascending label order.

    Entry [i, j] is distance() of the i-th and j-th smallest labels.
    """
    pos = [p for _, p in sorted(inst.stations)]
    dist = np.zeros((len(pos), len(pos)))
    for i, a in enumerate(pos):
        row = [distance(a, b) for b in pos[i + 1 :]]
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return dist


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

    def occupants(self) -> dict[tuple[int, int], list[int]]:
        out: dict[tuple[int, int], list[int]] = {}
        for lab in sorted(self.boxes):
            out.setdefault(self.boxes[lab], []).append(lab)
        return out


def grid_index(inst: PhysicalInstance, side: float | None = None) -> GridIndex:
    """Index stations by grid box; defaults to the pivotal grid."""
    if side is None:
        side = pivotal_side(inst.params)
    return GridIndex(
        side=side,
        boxes={lab: grid_box(pos, side) for lab, pos in inst.stations},
    )


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
    pos = inst.positions()
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
    pos = inst.positions()
    d_sr = distance(pos[sender], pos[receiver])
    if p.noise > 0:
        if d_sr > broadcast_range(p):
            return False
    # noise = 0 makes the floor (1+eps)*beta*0 = 0, satisfied by any signal
    return sinr(sender, receiver, transmitters, inst) >= p.beta


class PhysicsEngine:
    """Vectorized SINR adjudication for one instance (verifier side only).

    Distances come from distance_matrix and the range from broadcast_range,
    as for the graph and receives().
    """

    def __init__(self, inst: PhysicalInstance):
        p = inst.params
        if p.noise <= 0:
            raise ValueError("the round engine needs noise > 0 (finite range)")
        self.labels = sorted(inst.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.label_array = np.array(self.labels)
        n = len(self.labels)
        dist = distance_matrix(inst)
        off_diagonal = ~np.eye(n, dtype=bool)
        if n > 1 and np.any(dist[off_diagonal] == 0.0):
            raise DegenerateDistanceError("coincident stations in instance")
        with np.errstate(divide="ignore"):
            gain = p.power / dist**p.alpha
        np.fill_diagonal(gain, 0.0)
        self.in_range = (dist <= broadcast_range(p)) & off_diagonal
        self.gain = gain
        self.noise = p.noise
        self.beta = p.beta

    def adjudicate(
        self, member: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide every reception of a batch of rounds at once.

        member is a (rounds, stations) boolean matrix over the stations in
        label order; row r is the transmitter set of round r. Returns the
        transmissions as (round, station) index arrays in row-major order,
        and a (transmissions, stations) matrix that is true where the
        station receives the transmission. Its np.nonzero lists the
        deliveries in (round, sender, receiver) order.

        Interference is summed sender by sender in ascending label order,
        each sender adding its gain row to the rounds it transmits in. So
        every round's sum takes the same float additions, in the same
        order, as summing its own transmitters' rows alone.
        """
        total = np.zeros(member.shape)
        for i in np.flatnonzero(member.any(axis=0)):
            total[member[:, i]] += self.gain[i]
        total += self.noise
        rounds, senders = np.nonzero(member)
        signal = self.gain[senders]
        threshold = total[rounds]
        threshold -= signal
        threshold *= self.beta
        heard = signal >= threshold
        heard &= self.in_range[senders]
        heard &= ~member[rounds]
        return rounds, senders, heard

    def deliver(self, transmitters: Sequence[int]) -> list[tuple[int, int]]:
        """Successful (sender, receiver) pairs for one round, sorted."""
        member = np.zeros((1, len(self.labels)), dtype=bool)
        member[0, [self.index[t] for t in transmitters]] = True
        _, senders, heard = self.adjudicate(member)
        tx, rx = np.nonzero(heard)
        labels = self.label_array
        return list(zip(labels[senders[tx]].tolist(), labels[rx].tolist()))


@dataclass(frozen=True)
class CommGraph:
    """Undirected communication graph on labels (weak link model)."""

    adjacency: Mapping[int, tuple[int, ...]]  # label -> sorted neighbor labels
    range_used: float

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in sorted(self.adjacency):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return tuple(out)

    def degree(self, label: int) -> int:
        return len(self.adjacency[label])

    @property
    def delta(self) -> int:
        return max((len(nb) for nb in self.adjacency.values()), default=0)


def _adjacency(inst: PhysicalInstance) -> dict[int, tuple[int, ...]]:
    labs = sorted(inst.labels)
    near = distance_matrix(inst) <= broadcast_range(inst.params)
    np.fill_diagonal(near, False)
    return {
        lab: tuple(labs[j] for j in np.flatnonzero(row)) for lab, row in zip(labs, near)
    }


def is_connected(adjacency: Mapping[int, Sequence[int]]) -> bool:
    nodes = list(adjacency)
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)


def build_graph(inst: PhysicalInstance) -> CommGraph:
    """Communication graph with edges at distance <= range (inclusive).

    Raises DisconnectedInstanceError when the graph is not connected, since
    every protocol in this package presumes connectivity.
    """
    adj = _adjacency(inst)
    if not is_connected(adj):
        raise DisconnectedInstanceError(
            f"communication graph on {inst.n} stations is not connected"
        )
    return CommGraph(adjacency=adj, range_used=broadcast_range(inst.params))


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


def derive_dilution(params: SinrParams, k: int = 21, d_cap: int = 64) -> DilutionConstants:
    """Smallest d such that diluted transmitters keep SINR >= beta at sqrt(2)x.

    A transmitter at the maximal pivotal-grid distance sqrt(2)x = range
    delivers exactly (1+eps)*beta*noise of signal, so reception tolerates
    interference up to eps*noise. Scaling out P and noise, feasibility of a
    candidate d reduces to

        (1+eps) * beta * 2^(alpha/2) * ring_sum(d, alpha) <= eps

    which depends only on alpha, beta and eps.
    """
    factor = (1 + params.epsilon) * params.beta * 2 ** (params.alpha / 2)
    for d in range(0, d_cap + 1):
        s = _ring_sum(d, params.alpha)
        if factor * s <= params.epsilon:
            return DilutionConstants(d=d, k=k, c=k * k * (2 * d + 1) ** 2)
    raise NoDilutionError(
        f"no dilution constant up to d={d_cap} satisfies the ring bound "
        f"(alpha={params.alpha}, beta={params.beta}, epsilon={params.epsilon})"
    )


# ---------------------------------------------------------------------------
# Instance files.  JSON with floats serialized via repr, which round-trips
# doubles bit-exactly: parse -> serialize -> parse is the identity.

def serialize_instance(inst: PhysicalInstance) -> str:
    doc = {
        "params": {
            "alpha": inst.params.alpha,
            "beta": inst.params.beta,
            "noise": inst.params.noise,
            "epsilon": inst.params.epsilon,
            "power": inst.params.power,
        },
        "n_labels": inst.n_labels,
        "stations": [
            {"label": lab, "x": pos[0], "y": pos[1]} for lab, pos in inst.stations
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_instance(text: str) -> PhysicalInstance:
    try:
        doc = json.loads(text)
        params = SinrParams(
            alpha=float(doc["params"]["alpha"]),
            beta=float(doc["params"]["beta"]),
            noise=float(doc["params"]["noise"]),
            epsilon=float(doc["params"]["epsilon"]),
            power=float(doc["params"]["power"]),
        )
        stations = tuple(
            (int(s["label"]), (float(s["x"]), float(s["y"])))
            for s in doc["stations"]
        )
        return PhysicalInstance(
            stations=stations, params=params, n_labels=int(doc["n_labels"])
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InstanceFormatError(f"bad instance file: {exc}") from exc


def load_instance(path: str) -> PhysicalInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: PhysicalInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
