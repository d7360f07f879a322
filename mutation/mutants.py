"""The mutation table: each mutant breaks one rule of the simulator, and
the tests it names must fail on it.

A mutant replaces old, which must occur exactly once in the file at path
(relative to src/), with new. Its tests are pytest node ids, relative to
the repository root. run.py applies each mutant to a copy of src/ and runs
its tests against the copy.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # a transmitting listener hears as if it were silent
    Mutant(
        "adjudicate-transmitting-listener-hears",
        "sinrbackbone/physical.py",
        """\
        total = gain[sender * n + listener]  # 0.0 + the first gain
        total[sender == listener] = np.inf
""",
        """\
        total = gain[sender * n + listener]  # 0.0 + the first gain
""",
        (
            "tests/test_physical.py::test_engine_batch_matches_rounds_and_scalar_reference",
            "tests/test_physical.py::test_engine_matches_the_dense_reference_bit_for_bit",
            "tests/test_protocol.py::test_every_batch_of_a_run_matches_the_dense_engine_bit_for_bit",
        ),
    ),
    # two executions with the same slots but other owners share one plan
    Mutant(
        "plans-keyed-without-owners",
        "sinrbackbone/protocol.py",
        "return code, s, s if owners is slots else np.asarray(owners, np.int64).tobytes()",
        "return code, s",
        ("tests/test_protocol.py::test_plans_are_keyed_by_owners_and_family_code",),
    ),
    # a sender's first message is reused for its later transmissions
    Mutant(
        "sent-messages-keyed-by-sender",
        "sinrbackbone/protocol.py",
        """\
        m = built.get(j)
        if m is None:
            m = built[j] = build(table.sender[j], table.carried[j])
""",
        """\
        m = built.get(table.sender[j])
        if m is None:
            m = built[table.sender[j]] = build(table.sender[j], table.carried[j])
""",
        (
            "tests/test_cli.py::test_a_two_hop_helper_sends_in_each_round_the_claims_scheduled_there",
            "tests/test_cli.py::test_each_message_key_is_built_once_per_execution[n40-N1024]",
            "tests/test_cli.py::test_each_message_key_is_built_once_per_execution[cli-trace]",
        ),
    ),
    # message keys numbered in order of their carried slots instead of
    # their first transmissions: a key's number and its first
    # transmission, sender and slots no longer match
    Mutant(
        "message-keys-in-slot-order",
        "sinrbackbone/protocol.py",
        "key = rank[group]  # numbered over the batch in order of first transmission",
        "key = group",
        (
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[n64]",
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[cli-trace]",
            "tests/test_protocol.py::test_the_key_table_matches_the_per_transmission_reference[cli-trace]",
            "tests/test_protocol.py::test_the_key_table_covers_a_transmission_that_carries_two_claims",
        ),
    ),
    # a sweep that fails drops the token records of its earlier iterations
    Mutant(
        "token-records-only-on-normal-exit",
        "sinrbackbone/protocol.py",
        """\
    finally:
        receptions = _append_token_records(sim, run_id, holder_list, holder_at, sent)
""",
        """\
    except Exception:
        raise
    receptions = _append_token_records(sim, run_id, holder_list, holder_at, sent)
""",
        (
            "tests/test_protocol.py::test_a_grant_lost_in_a_later_iteration_keeps_the_earlier_records",
            "tests/test_protocol.py::test_oversized_token_return_fails_before_the_return_execution",
        ),
    ),
    # a codeword table's row l - 1 holds label l + 1's sets
    Mutant(
        "codeword-table-shifted-by-one-label",
        "sinrbackbone/selection.py",
        "table = _rounds(q, K, P, np.arange(n_labels, dtype=np.int64)[:, None])",
        "table = _rounds(q, K, P, np.arange(1, n_labels + 1, dtype=np.int64)[:, None])",
        (
            "tests/test_selection.py::test_codeword_tables_match_horner_bit_for_bit",
            "tests/test_selection.py::test_codeword_tables_are_kept_per_code_and_label_space",
            "tests/test_selection.py::test_labels_outside_the_label_space_are_rejected[64]",
        ),
    ),
    # the table budget counts labels, not labels x points: the
    # (4096, 4)-ssf builds a table of 40,960 entries
    Mutant(
        "codeword-table-budget-on-labels-only",
        "sinrbackbone/selection.py",
        "if self.n_labels * self.P <= TABLE_ENTRIES:",
        "if self.n_labels <= TABLE_ENTRIES:",
        (
            "tests/test_selection.py::test_codeword_tables_match_horner_bit_for_bit",
            "tests/test_selection.py::test_labels_outside_the_label_space_are_rejected[4096]",
        ),
    ),
    # a full-mode chunk takes the digits above its hundreds from the round
    # before its first: one that starts at a multiple of 1000 keeps the
    # last period's digits
    Mutant(
        "full-trace-high-digits-one-round-late",
        "sinrbackbone/cli.py",
        'line = head + digits[: d - low].encode() + b"0" * low + tail',
        'line = head + str(s - 1)[: d - low].encode() + b"0" * low + tail',
        ("tests/test_cli.py::test_file_sink_writes_the_reference_bytes_across_a_power_of_ten[4]",),
    ),
    # emit splices its records in at offsets of the line width of its
    # first round's digit count, also past a power of ten
    Mutant(
        "full-trace-splice-offset-of-the-first-digit-count",
        "sinrbackbone/cli.py",
        "off = (r - s) * width",
        "off = (r - s) * (len(head) + len(str(start)) + len(tail))",
        (
            "tests/test_cli.py::test_file_sink_writes_the_reference_bytes_across_a_power_of_ten[1]",
            "tests/test_cli.py::test_file_sink_writes_the_reference_bytes_across_a_power_of_ten[7]",
        ),
    ),
    # bucket coverage skips the nodes whose degree equals the bucket's
    # threshold
    Mutant(
        "bucket-coverage-strict-threshold",
        "sinrbackbone/verify.py",
        "missed = (g.degree >= threshold) & ~_covered(g, lead)",
        "missed = (g.degree > threshold) & ~_covered(g, lead)",
        (
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_failing_results",
        ),
    ),
    # the two-hop replay keeps each pair's largest common neighbour
    Mutant(
        "two-hop-replay-largest-common-neighbour",
        "sinrbackbone/verify.py",
        """\
    pair, mid = least(u[keep] * n + v[keep], w[keep])
""",
        """\
    pair, mid = least(u[keep] * n + v[keep], -w[keep])
    mid = -mid
""",
        (
            "tests/test_verifier.py::test_helper_replays_match_the_whole_graph_bfs",
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_battery_seed_1",
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_n150_at_N1024",
        ),
    ),
    # the greedy CDS's connection search visits each node's neighbours in
    # descending label order
    Mutant(
        "greedy-connect-neighbours-descending",
        "sinrbackbone/verify.py",
        "nbrs, seen, levels = g.nbrs, start.copy(), []",
        "nbrs, seen, levels = g.nbrs[(2 * g.nbr_at[:-1] + g.degree - 1).repeat(g.degree)"
        " - np.arange(len(g.nbrs))], start.copy(), []",
        (
            "tests/test_verifier.py::test_array_oracles_match_the_python_references",
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_battery_seed_1",
        ),
    ),
    # components from one hook-and-jump round, not from rounds until none
    # changes a label: the connected-backbone check reads unsettled labels
    Mutant(
        "components-one-hook-round",
        "sinrbackbone/physical.py",
        """\
        if not np.count_nonzero(low) or not np.count_nonzero(low != comp):
            return low
        comp = low
""",
        """\
        return low
""",
        (
            "tests/test_verifier.py::test_backbone_graph_is_the_reference_backbone",
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_failing_results",
            "tests/test_verifier.py::test_verifier_matches_the_reference_on_battery_seed_1",
        ),
    ),
    # least keeps each key's largest value: the minimum-label rules of the
    # phases and of the replays pick the largest label, and two-hop keeps
    # each pair's smallest claimant
    Mutant(
        "least-takes-the-largest-value",
        "sinrbackbone/physical.py",
        "return keys[head], np.minimum.reduceat(values[order], head)",
        "return keys[head], np.maximum.reduceat(values[order], head)",
        (
            "tests/test_physical.py::test_sorted_key_kernels_match_their_plain_definitions",
            "tests/test_protocol.py::test_three_hop_min_label_bridge_agreement",
            "tests/test_protocol.py::test_inform_and_claims_equal_the_dict_reference_when_an_inform_message_is_lost",
            "tests/test_verifier.py::test_helper_replays_match_the_whole_graph_bfs",
        ),
    ),
    # the membership test compares each key with the table's entry one
    # position past where the key would go
    Mutant(
        "membership-test-off-by-one-position",
        "sinrbackbone/physical.py",
        'return table.take(table.searchsorted(keys), mode="clip") == keys',
        'return table.take(table.searchsorted(keys) + 1, mode="clip") == keys',
        (
            "tests/test_physical.py::test_sorted_key_kernels_match_their_plain_definitions",
            "tests/test_physical.py::test_deliver_rejects_a_label_that_is_not_a_station",
            "tests/test_protocol.py::test_two_hop_min_label_among_common_neighbors",
            "tests/test_verifier.py::test_expected_two_hop_on_path",
        ),
    ),
    # run heads of several key arrays read only the first
    Mutant(
        "run-heads-first-key-only",
        "sinrbackbone/physical.py",
        "    for k in keys[1:]:\n",
        "    for k in keys[1:1]:\n",
        (
            "tests/test_physical.py::test_sorted_key_kernels_match_their_plain_definitions",
            "tests/test_protocol.py::test_three_hop_path",
            "tests/test_protocol.py::test_the_key_table_covers_a_transmission_that_carries_two_claims",
            "tests/test_protocol.py::test_inform_and_claims_equal_the_dict_reference_on_benchmark_instances[battery]",
        ),
    ),
    # each token-passing sweep runs one more iteration, in which no leader
    # holds a neighbour to grant: four more silent executions
    Mutant(
        "token-passing-extra-iteration",
        "sinrbackbone/protocol.py",
        """\
    delta = sim.graph.delta
    at, iteration, leaders, targets = _leader_tables(sim)
""",
        """\
    delta = sim.graph.delta + 1
    at, iteration, leaders, targets = _leader_tables(sim)
    at = at + at[-1:]
""",
        (
            "tests/test_acceptance.py::test_acceptance_8_round_complexity_stability",
            "tests/test_protocol.py::test_executions_tile_the_rounds_as_scheduled",
            "tests/test_protocol.py::test_every_token_holder_sends[battery]",
        ),
    ),
    # leader election runs one more degree bucket than ceil(lg Delta) + 1
    Mutant(
        "leader-election-extra-bucket",
        "sinrbackbone/protocol.py",
        "for i in range(_ceil_lg(delta) + 1)]",
        "for i in range(_ceil_lg(delta) + 2)]",
        (
            "tests/test_acceptance.py::test_acceptance_8_round_complexity_stability",
            "tests/test_protocol.py::test_executions_tile_the_rounds_as_scheduled",
            "tests/test_protocol.py::test_leader_election_follows_its_per_round_rule[n40-N64]",
        ),
    ),
    # every code of K >= 2 evaluates its polynomials at twice the points
    # it needs: a strongly selective family, but twice its size or more
    Mutant(
        "code-parameters-double-points",
        "sinrbackbone/selection.py",
        "        p = (c - 1) * (k - 1) + 1\n",
        "        p = 2 * ((c - 1) * (k - 1) + 1)\n",
        (
            "tests/test_selection.py::test_code_parameters_give_the_smallest_code",
            "tests/test_selection.py::test_family_code_parameters_are_pinned[64-4-11-2-4]",
            "tests/test_selection.py::test_selector_code_parameters_are_pinned[64-2-4-3-3]",
        ),
    ),
    # plans are keyed by slots and owners alone: two families with the same
    # slots share the first one's plan
    Mutant(
        "plans-keyed-without-family-code",
        "sinrbackbone/protocol.py",
        "code = (family.q, family.K, family.P)",
        "code = ()",
        (
            "tests/test_protocol.py::test_plans_are_keyed_by_owners_and_family_code",
        ),
    ),
    # the engine's gains from np.hypot distances, which differ from
    # math.dist's (the distance of the graph) in the last bit of some pairs
    Mutant(
        "engine-on-np-hypot-distances",
        "sinrbackbone/physical.py",
        """\
    dist[np.arange(n)[:, None] < np.arange(n)] = np.fromiter(
        starmap(math.dist, combinations(pos, 2)), float, n * (n - 1) // 2
    )
""",
        """\
    upper = np.arange(n)[:, None] < np.arange(n)
    xy = np.array(pos, dtype=float).reshape(n, 2)
    dist[upper] = np.hypot(xy[:, None, 0] - xy[:, 0], xy[:, None, 1] - xy[:, 1])[upper]
""",
        (
            "tests/test_physical.py::test_distance_matrix_equals_the_per_pair_loop",
            "tests/test_physical.py::test_lone_transmitter_reaches_exactly_its_graph_neighbors_at_range",
        ),
    ),
)
