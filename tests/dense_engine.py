"""The dense batch engine, kept as the reference for PhysicsEngine.adjudicate.

It takes the batch as a (rounds, stations) boolean membership matrix and
sums interference into a (rounds, stations) matrix: rank by rank, the gain
row of the j-th transmitter of every round at once, so each round adds its
transmitters' rows in ascending label order from 0.0. A transmitting
station's total is inf, so it hears nothing. The sparse engine must return
exactly its deliveries, bit for bit.
"""

import numpy as np


def dense_adjudicate(eng, member):
    """(rounds, senders, delivery transmission, delivery listener) index
    arrays of the batch member, for the engine eng."""
    rounds, senders = np.nonzero(member)
    per_round = np.bincount(rounds, minlength=len(member))
    # total holds the rounds busiest first (stably), so the rounds with a
    # j-th transmitter are its first ranked[j] rows
    by_load = np.argsort(-per_round, kind="stable")
    first = (per_round.cumsum() - per_round)[by_load]
    ranked = np.searchsorted(-per_round[by_load], -np.arange(per_round.max(initial=0)))
    total = np.zeros(member.shape)
    for j, m in enumerate(ranked.tolist()):
        total[:m] += eng.gain[senders[first[:m] + j]]
    total += eng.noise
    row_of = np.empty_like(by_load)  # row_of[r] is round r's row of total
    row_of[by_load] = np.arange(len(by_load))
    sender_row = row_of[rounds]
    total[sender_row, senders] = np.inf  # a transmitting station hears nothing
    # every (transmission, in-range listener) pair, by its CSR position
    lo = eng.nbr_at[senders]
    count = eng.nbr_at[senders + 1] - lo
    pair_tx = np.repeat(np.arange(len(senders)), count)
    pos = np.arange(len(pair_tx)) + np.repeat(lo - count.cumsum() + count, count)
    listener = eng.nbrs[pos]
    signal = eng.nbr_gain[pos]
    threshold = total.ravel()[np.repeat(sender_row * member.shape[1], count) + listener]
    threshold -= signal
    threshold *= eng.beta
    heard = signal >= threshold
    return rounds, senders, pair_tx[heard], listener[heard]
