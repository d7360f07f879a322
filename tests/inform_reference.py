"""The dict-based neighborhood inform and two-hop claim rules, kept as the
reference for protocol.neighborhood_inform and protocol.two_hop_connection.

Every listener keeps what it learned as its own dict of sets (leader ->
the members of that leader's neighborhood it heard), filled reception by
reception, and every non-leader walks the pairs of its adjacent leaders
to decide its claims. Each message is built up front. The package's array
versions must give the same learned neighborhoods, claims, helpers,
statuses and executions.
"""

from itertools import combinations

from sinrbackbone.protocol import HELPER, LEADER
from sinrbackbone.selection import pair_index

from oracles import Sent, msg, store, views, writer


def reference_neighborhood_inform(sim):
    """Per non-leader listener, leader -> the members it heard that
    leader send."""
    node = views(sim)
    tables = [{} for _ in range(sim.graph.delta)]
    for lab in sorted(node):
        if node[lab].status == LEADER:
            for table, member in zip(tables, node[lab].neighbors):
                table[lab] = member
    sent = [{u: msg(sim, "neighbor-of-leader", (u, v)) for u, v in t.items()} for t in tables]
    steps = sim.execute(
        sim.base_ssf(),
        [
            (list(table), list(table), f"neighborhood-inform/i={i}", Sent(msgs))
            for i, (table, msgs) in enumerate(zip(tables, sent), 1)
        ],
    )
    learned = {}
    for table, (pos, listeners) in zip(tables, steps):
        leaders = list(table)
        for k, listener in zip(pos.tolist(), listeners.tolist()):
            if node[listener].status != LEADER:
                leader = leaders[k]
                learned.setdefault(listener, {}).setdefault(leader, set()).add(table[leader])
    return learned


def reference_two_hop_connection(sim):
    """two_hop_connection with the dict-based rules; returns what each
    listener learned and the claims, pair index -> (helper, s, t)."""
    learned = reference_neighborhood_inform(sim)
    node = views(sim)
    n_labels = sim.inst.n_labels
    fam_pair = sim.pair_ssf()

    # a node claims the pair s < t of its adjacent leaders when it is the
    # least label it learned neighbors both; a later claimant's claim of a
    # pair replaces an earlier one's
    claims = {}
    for u in sorted(node):
        v = node[u]
        if v.status == LEADER:
            continue
        mine = learned.get(u, {})
        for s, t in combinations(sorted(v.adjacent_leaders), 2):
            common = mine.get(s, set()) & mine.get(t, set())
            if common and u == min(common):
                claims[pair_index(s, t, n_labels)] = (u, s, t)

    pidxs = sorted(claims)
    helpers = [claims[p][0] for p in pidxs]
    # each claim bundle a helper sends in one round, the widest built first
    bundles = {}
    for p in pidxs:
        for r in fam_pair.rounds_for(p).tolist():
            bundles.setdefault((claims[p][0], r), []).append(claims[p])
    for bundle in sorted(bundles.values(), key=len, reverse=True):
        msg(sim, "helper-claim", tuple(sorted(bundle)))

    def helper_claim(u, ks):
        return msg(sim, "helper-claim", tuple(sorted(claims[pidxs[k]] for k in ks)))

    ((pos, listeners),) = sim.execute(
        fam_pair, [(pidxs, helpers, "two-hop-connection", writer(helper_claim))]
    )
    for h in helpers:
        if node[h].status != HELPER:
            node[h].set_status(HELPER)
    for k, listener in zip(pos.tolist(), listeners.tolist()):
        h, s, t = claims[pidxs[k]]
        if listener == s:
            node[s].two_hop_helpers[t] = h
        elif listener == t:
            node[t].two_hop_helpers[s] = h
    store(sim, node)
    return learned, claims
