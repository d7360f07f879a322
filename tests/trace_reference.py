"""The round-by-round trace writer that cli.FileSink must match byte for byte.

each_execution() expands a run's records into one Execution per family
execution: a silent record of several executions becomes that many.
traces() expands one Execution's arrays into a RoundTrace per non-silent
round, each transmitter's message decoded from its text for the run's
label space (oracles.transmitted). replay() feeds one record to a sink
round by round, execution by execution: emit() with a RoundTrace for
each non-silent round, skip() for each stretch of silent ones.
RoundWriter writes each of those calls as records of its own, every
record with json.dumps(..., sort_keys=True), in the trace file's two
modes: "full" (one record per round) and "compact" (one per non-silent
round and one per stretch of silent rounds within an execution).
message_keys() numbers a planned batch's message keys with one
dict per schedule, transmission by transmission: the reference for the
batch's key table.
"""

import json
from dataclasses import dataclass

import numpy as np

from sinrbackbone.protocol import Execution

from oracles import transmitted


@dataclass(frozen=True)
class RoundTrace:
    """One simulated round: who transmitted what and who heard whom."""

    round: int
    phase: str
    transmitters: tuple  # (label, Message) pairs
    deliveries: tuple  # (sender, receiver) pairs


def traces(ex, n_labels: int):
    """One RoundTrace per non-silent round of ex, a record of a run over
    n_labels labels, in round order."""
    rows = np.arange(len(ex.rounds) + 1)
    tx_at = np.searchsorted(ex.transmissions[:, 0], rows).tolist()
    dl_at = np.searchsorted(ex.deliveries[:, 0], rows).tolist()
    senders = ex.transmissions[:, 1].tolist()
    messages = transmitted(ex, n_labels)
    for row, j in enumerate(ex.rounds.tolist()):
        pairs = ex.deliveries[dl_at[row] : dl_at[row + 1], 1:].tolist()
        yield RoundTrace(
            round=ex.start + j,
            phase=ex.phase,
            transmitters=tuple(
                (senders[t], messages[t]) for t in range(tx_at[row], tx_at[row + 1])
            ),
            deliveries=tuple(map(tuple, pairs)),
        )


def message_keys(batch):
    """Each schedule's message keys of batch (a protocol._Batch), found
    transmission by transmission: (keys, key_of). keys holds each key's
    (sender label, carried slot positions), positions ascending, in order
    of first transmission; key_of[t] is transmission t's key, counted
    from the schedule's first transmission."""
    by_tx = batch.slot_tx.argsort(kind="stable")
    at = np.searchsorted(batch.slot_tx[by_tx], np.arange(len(batch.tx_row) + 1)).tolist()
    slots = batch.slot_k[by_tx].tolist()  # numbered over the batch
    senders = batch.labels[batch.tx_station].tolist()
    pos = batch.slot_pos.tolist()
    schedule = batch.rows[batch.tx_row] // batch.size
    bounds = schedule.searchsorted(np.arange(len(batch.heard_at))).tolist()
    out = []
    for t0, t1 in zip(bounds, bounds[1:]):
        index = {}
        keys, key_of = [], []
        for t in range(t0, t1):
            carried = tuple(slots[at[t] : at[t + 1]])
            k = index.get(carried)
            if k is None:
                k = index[carried] = len(keys)
                keys.append((senders[t], tuple(pos[x] for x in carried)))
            key_of.append(k)
        out.append((keys, key_of))
    return out


def records(executions, n_labels: int):
    """The RoundTrace of every non-silent round of a run over n_labels
    labels, in round order."""
    return [tr for ex in executions for tr in traces(ex, n_labels)]


def each_execution(executions):
    """The records, with each silent record of repeats executions
    replaced by repeats records of one, in round order."""
    return [
        Execution.silent(ex.phase, ex.start + r * ex.size, ex.size) if ex.repeats > 1 else ex
        for ex in executions
        for r in range(ex.repeats)
    ]


def replay(ex, sink, n_labels: int) -> None:
    """Feed the record ex of a run over n_labels labels to sink round by
    round, one family execution at a time: sink.emit() for each non-silent
    round, sink.skip() for each stretch of silent ones."""
    for one in each_execution([ex]):
        cursor = 0
        for trace in traces(one, n_labels):
            j = trace.round - one.start
            if j > cursor:
                sink.skip(one.phase, one.start + cursor, j - cursor)
            sink.emit(trace)
            cursor = j + 1
        if one.size > cursor:
            sink.skip(one.phase, one.start + cursor, one.size - cursor)


def _payload_json(payload):
    return [list(x) if isinstance(x, tuple) else x for x in payload]


class RoundWriter:
    """A trace sink for a run over n_labels labels that writes one
    json.dumps call per record."""

    def __init__(self, fh, mode: str, n_labels: int):
        self.fh = fh
        self.mode = mode
        self.n_labels = n_labels

    def execution(self, ex) -> None:
        replay(ex, self, self.n_labels)

    def _write(self, record: dict) -> None:
        self.fh.write(json.dumps(record, sort_keys=True) + "\n")

    def emit(self, trace) -> None:
        self._write(
            {
                "round": trace.round,
                "phase": trace.phase,
                "transmitters": [
                    {"label": lab, "kind": m.kind, "payload": _payload_json(m.payload)}
                    for lab, m in trace.transmitters
                ],
                "deliveries": [[s, r] for s, r in trace.deliveries],
            }
        )

    def skip(self, phase: str, start_round: int, count: int) -> None:
        if self.mode == "full":
            for r in range(start_round, start_round + count):
                self._write(
                    {"round": r, "phase": phase, "transmitters": [], "deliveries": []}
                )
        else:
            self._write({"phase": phase, "round_start": start_round, "silent": count})
