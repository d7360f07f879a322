"""The dict-based token passing and three-hop rules, kept as the reference
for protocol.token_passing and protocol.three_hop_connection.

Each sweep builds every grant, msg and return message up front, collects
who heard whom into per-listener lists of (sender, message), and the
reporter and decision rules walk those lists with dicts and sets. A token
holder's pending tokens are kept per sweep, as the grants it received.
The package's array versions must give the same executions, messages,
token records, helpers and statuses.
"""

from sinrbackbone.errors import TokenDeliveryError
from sinrbackbone.protocol import HELPER, LEADER, TokenRecord

from oracles import msg, ssf_broadcast


def reference_token_passing(sim, msgs):
    """Per listener, each (sender, message) it heard in the msg slots, in
    slot order."""
    views = sim.views
    fam = sim.base_ssf()
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    run_id = sim._tp_runs
    sim._tp_runs += 1
    heard_msgs = {}
    pending = {}  # holder -> the leaders whose tokens it holds

    sweep = []  # per iteration: i, the granting leaders, the holders that send, the holders
    for i in range(1, sim.graph.delta + 1):
        granting = [lab for lab in leaders if views[lab].degree >= i]
        holders = sorted({views[lab].neighbors[i - 1] for lab in granting})
        sweep.append((i, granting, [lab for lab in holders if lab in msgs], holders))
    specs = []
    sent = []  # the messages of each execution reached
    for i, *senders in sweep:
        for kind, labs in zip(("idle", "grant", "msg", "return"), ([], *senders)):
            phase = f"token-passing/run={run_id}/i={i}/{kind}"
            specs.append((labs, labs, phase, lambda u, _ks, e=len(specs): sent[e][u]))
    steps = sim.execute(fam, specs)

    def advance(messages):
        """The (slot position, listener) pairs the next execution heard."""
        sent.append(messages)
        pos, listeners = next(steps)
        return pos.tolist(), listeners.tolist()

    for i, granting, senders, holders in sweep:
        advance({})
        grants = {
            lab: msg(sim, "token-grant", (lab, views[lab].neighbors[i - 1])) for lab in granting
        }
        delivered = {(granting[k], listener) for k, listener in zip(*advance(grants))}
        for lab, grant in grants.items():
            if grant.payload not in delivered:
                raise TokenDeliveryError(
                    f"token from leader {lab} to {grant.payload[1]} lost in run {run_id}, i={i}"
                )
            pending[grant.payload[1]] = pending.get(grant.payload[1], ()) + (lab,)
        txs = {lab: msgs[lab] for lab in senders}
        receivers = {lab: [] for lab in senders}
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
        returns = {lab: msg(sim, "token-return", (lab,) + pending[lab]) for lab in holders}
        advance(returns)
        pending.clear()
    return heard_msgs


def reference_three_hop_connection(sim, token_passing=reference_token_passing):
    """three_hop_connection with the dict-based rules; token_passing is
    called as token_passing(sim, msgs) and returns per-listener lists."""
    views = sim.views
    leaders = [lab for lab in sorted(views) if views[lab].status == LEADER]
    non_leaders = [lab for lab in sorted(views) if views[lab].status != LEADER]

    msgs1 = {
        u: msg(sim, "hop3-report", (u,) + tuple(sorted(views[u].adjacent_leaders)))
        for u in non_leaders
    }
    heard1 = token_passing(sim, msgs1)

    # per heard-about leader b, the minimum-label reporter that belongs to b
    chosen = {}
    for x in non_leaders:
        reporters = {}
        for _y, report in heard1.get(x, []):
            y_label = report.payload[0]
            for b in report.payload[1:]:
                reporters.setdefault(b, set()).add(y_label)
        chosen[x] = [(min(ys), b) for b, ys in sorted(reporters.items())]

    msgs2 = {
        x: msg(sim, "hop3-choice", (x,) + tuple((y, b) for y, b in chosen[x]))
        for x in non_leaders
    }
    heard2 = token_passing(sim, msgs2)

    decisions = {}
    for lab in leaders:
        v = views[lab]
        reports = {}
        for _x, choice in heard2.get(lab, []):
            x_label = choice.payload[0]
            for y, b in choice.payload[1:]:
                if b != lab:
                    reports.setdefault(b, []).append((x_label, y))
        mine = {}
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
        lab: msg(
            sim,
            "hop3-choice",
            (lab,) + tuple((x, y, b) for b, (x, y) in sorted(decisions[lab].items())),
        )
        for lab in leaders
    }
    (announced,) = ssf_broadcast(sim, fam, [(msgs3, "three-hop-connection/announce")])
    for sender, listener in announced:
        v = views[listener]
        if v.status != HELPER and any(x == listener for x, _y, _b in msgs3[sender].payload[1:]):
            v.set_status(HELPER)
