"""The row-by-row leader election, kept as the reference for
protocol.leader_election.

Every selector row of every degree bucket is walked in Python: a row whose
marked stations are all inactive is recorded as one silent execution, and
every other row runs its own ssf broadcast, adjudicated as a batch of one.
The `alone` table comes from a dense n x n adjacency product. The
package's speculative election must give the same statuses, leaders,
adjacent leaders, snapshots, rounds and executions (these expanded with
trace_reference.each_execution).
"""

import numpy as np

from sinrbackbone.protocol import ACTIVE, INACTIVE, LEADER

from oracles import msg, ssf_broadcast


def _ceil_div(a, b):
    return -(-a // b)


def reference_leader_election(sim):
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
                senders[u] = msg(sim, "leader-announce", (u,))
            (pairs,) = ssf_broadcast(sim, fam_ssf, [(senders, phase)])
            for s, listener in pairs:
                v = views[listener]
                v.adjacent_leaders.add(s)
                if v.status == ACTIVE:
                    v.set_status(INACTIVE)
        sim.phase_snapshots.append((i, {lab: views[lab].status for lab in labels}))
