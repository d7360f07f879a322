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

from oracles import msg


def reference_neighborhood_inform(sim):
    """Per non-leader listener, leader -> the members it heard that
    leader send."""
    views = sim.views
    tables = [{} for _ in range(sim.graph.delta)]
    for lab in sorted(views):
        if views[lab].status == LEADER:
            for table, member in zip(tables, views[lab].neighbors):
                table[lab] = member
    sent = [{u: msg(sim, "neighbor-of-leader", (u, v)) for u, v in t.items()} for t in tables]
    steps = sim.execute(
        sim.base_ssf(),
        [
            (list(table), list(table), f"neighborhood-inform/i={i}", lambda u, _ks, m=msgs: m[u])
            for i, (table, msgs) in enumerate(zip(tables, sent), 1)
        ],
    )
    learned = {}
    for table, (pos, listeners) in zip(tables, steps):
        leaders = list(table)
        for k, listener in zip(pos.tolist(), listeners.tolist()):
            if views[listener].status != LEADER:
                leader = leaders[k]
                learned.setdefault(listener, {}).setdefault(leader, set()).add(table[leader])
    return learned


def reference_two_hop_connection(sim):
    """two_hop_connection with the dict-based rules; returns what each
    listener learned and the claims, pair index -> (helper, s, t)."""
    learned = reference_neighborhood_inform(sim)
    views = sim.views
    n_labels = sim.inst.n_labels
    fam_pair = sim.pair_ssf()

    # a node claims the pair s < t of its adjacent leaders when it is the
    # least label it learned neighbors both; a later claimant's claim of a
    # pair replaces an earlier one's
    claims = {}
    for u in sorted(views):
        v = views[u]
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
        fam_pair, [(pidxs, helpers, "two-hop-connection", helper_claim)]
    )
    for h in helpers:
        if views[h].status != HELPER:
            views[h].set_status(HELPER)
    for k, listener in zip(pos.tolist(), listeners.tolist()):
        h, s, t = claims[pidxs[k]]
        if listener == s:
            views[s].two_hop_helpers[t] = h
        elif listener == t:
            views[t].two_hop_helpers[s] = h
    return learned, claims
