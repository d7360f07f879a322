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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # two executions with the same slots but other owners share one plan
    Mutant(
        "plans-keyed-without-owners",
        "sinrbackbone/protocol.py",
        "return code, s, s if owners is slots else np.asarray(owners, np.int64).tobytes()",
        "return code, s",
        (
            "tests/test_protocol.py::test_plans_are_keyed_by_owners_and_family_code",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # a sender's first message is reused for its later transmissions: the
    # writer renders every key of a sender with its first key's slots
    Mutant(
        "sent-messages-keyed-by-sender",
        "sinrbackbone/protocol.py",
        """\
            self._texts = self.write(table.sender[k0:k1], table.carried[k0:k1])
""",
        """\
            first = {}
            for u, ks in zip(table.sender[k0:k1], table.carried[k0:k1]):
                first.setdefault(u, ks)
            self._texts = self.write(table.sender[k0:k1], [first[u] for u in table.sender[k0:k1]])
""",
        (
            "tests/test_cli.py::test_a_two_hop_helper_sends_in_each_round_the_claims_scheduled_there",
            "tests/test_cli.py::test_each_message_key_is_built_once_per_execution[n40-N1024]",
            "tests/test_cli.py::test_each_message_key_is_built_once_per_execution[cli-trace]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # rendered texts are kept on the shared batch, one list per schedule,
    # instead of on the execution: every later execution of a schedule
    # writes the first one's texts (the second token-passing sweep the
    # first sweep's hop3-report texts, a return its iteration's msg texts)
    Mutant(
        "payload-texts-cached-per-plan",
        "sinrbackbone/protocol.py",
        """\
        if self._texts is None:
            table, e = self.batch.table, self.index
            k0, k1 = table.key_at[e], table.key_at[e + 1]
            self._texts = self.write(table.sender[k0:k1], table.carried[k0:k1])
        return self._texts
""",
        """\
        texts = vars(self.batch).setdefault("texts", {})  # one list per schedule
        if self.index not in texts:
            table, e = self.batch.table, self.index
            k0, k1 = table.key_at[e], table.key_at[e + 1]
            texts[e] = self.write(table.sender[k0:k1], table.carried[k0:k1])
        return texts[self.index]
""",
        (
            "tests/test_cli.py::test_run_outputs_match_golden_digests[full-n64]",
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[cli-trace]",
            "tests/test_cli.py::test_file_sink_builds_no_message[n64]",
            "tests/test_protocol.py::test_executions_that_share_a_schedule_keep_their_own_texts",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
        'line = head + digits[: d - low] + b"0" * low + tail',
        'line = head + (b"%d" % (s - 1))[: d - low] + b"0" * low + tail',
        (
            "tests/test_cli.py::test_file_sink_writes_the_reference_bytes_across_a_power_of_ten[4]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # a chunk formatted in bulk places its rows by their offset from the
    # execution's first round, not the chunk's: past an execution's first
    # chunk, a row falls outside its chunk
    Mutant(
        "bulk-chunk-rows-placed-from-the-execution-start",
        "sinrbackbone/cli.py",
        "chunk_heads[j - a], chunk_texts[j - a] = head, text",
        "chunk_heads[j], chunk_texts[j] = head, text",
        (
            "tests/test_cli.py::test_run_outputs_match_golden_digests[full-n256]",
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[n256]",
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[no-demo]",
            "tests/test_cli.py::test_file_sink_builds_no_message[n40-N1024]",
        ),
    ),
    # an execution's chunk that holds exactly one non-silent round is
    # written as silent, losing that round's record
    Mutant(
        "chunk-with-one-record-written-as-silent",
        "sinrbackbone/cli.py",
        "                if stop == k:\n",
        "                if stop <= k + 1:\n",
        (
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[no-demo]",
        ),
    ),
    # each row's delivery text is sliced one pair late: it drops its own
    # first pair and ends with the next row's first
    Mutant(
        "delivery-group-sliced-one-pair-late",
        "sinrbackbone/cli.py",
        'template % b", ".join(lines[a:b])',
        'template % b", ".join(lines[a + 1 : b + 1])',
        (
            "tests/test_cli.py::test_delivery_text_is_the_json_dumps_text",
            "tests/test_cli.py::test_run_outputs_match_golden_digests[compact-n64]",
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[n64]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # a row with one transmitter writes the key of the transmission before
    # it
    Mutant(
        "single-transmitter-row-reads-its-neighbours-key",
        "sinrbackbone/cli.py",
        "first = [key[a] for a in row_tx[:-1]]",
        "first = [key[a - 1] for a in row_tx[:-1]]",
        (
            "tests/test_cli.py::test_file_sink_writes_the_round_by_round_reference_bytes[n64]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
        ),
    ),
    # a run that fails after its trace was opened leaves the rounds it
    # wrote behind
    Mutant(
        "failed-run-keeps-its-partial-trace",
        "sinrbackbone/cli.py",
        "                os.remove(trace_path)\n",
        "                pass\n",
        (
            "tests/test_cli.py::test_a_run_that_fails_mid_protocol_leaves_no_trace[full]",
            "tests/test_cli.py::test_a_run_that_fails_mid_protocol_leaves_no_trace[compact]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[battery]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[dense]",
            "tests/test_benchmark_outputs.py::test_seed_1_outcomes_of_the_package_under_test_match_the_pinned_record[cli-trace]",
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
